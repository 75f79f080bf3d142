//! The benchmark's own tests: short runs of every workload report every
//! named metric, the simulator side is a pure function of the seed, and
//! the metric catalogue matches `BENCHMARK.json`.

use alps_core::Nanos;
use alpsbench::report::{END_TO_END, PER_LAYER};
use alpsbench::{run, Report, WORKLOADS};

/// The text of the list `key` in `BENCHMARK.json`, up to its `]`.
fn list(key: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing"));
    let body = &text[start..];
    body[..body.find(']').expect("list closes")].to_string()
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let body = list(key);
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field present");
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = rest[open..].find('"').expect("value closes");
        rest[open..open + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    for (key, cat) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, String)> = cat
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(key), want, "{key}");
    }
    let workloads = list("workloads");
    let names: Vec<&str> = workloads
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("name closes")])
        .collect();
    assert!(names.len() >= 2, "{names:?}");
    for w in names {
        assert!(WORKLOADS.contains(&w), "{w} is not a workload");
    }
}

fn short(workload: &str, seed: u64, traced: bool) -> Report {
    run(workload, seed, Nanos::SECOND, traced, true)
        .unwrap_or_else(|e| panic!("{workload} traced={traced}: {e}"))
}

fn assert_complete(workload: &str, r: &Report, traced: bool) {
    // `run` validated presence and finiteness; the printed line carries
    // each metric with its unit.
    let line = r.result_line(traced);
    let cat = if traced { PER_LAYER } else { END_TO_END };
    for &(name, unit) in cat {
        let v = r.metrics[name];
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": "))
                && line.contains(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} [{unit}] not printed in {line}"
        );
    }
    assert!(r.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(r.failed, 0, "{workload}: failed operations");
}

/// Both real-Linux workloads in one test: they pin to the same CPU, so
/// running them side by side would skew both.
#[test]
fn os_workloads_report_every_metric_in_short_mode() {
    for workload in ["os-linear5", "os-principals16"] {
        for traced in [false, true] {
            let r = short(workload, 1, traced);
            assert_complete(workload, &r, traced);
            if !traced {
                assert!(r.metrics["share_err_pct"] > 0.0, "{workload}");
                assert!(r.metrics["cpu_util"] > 0.5, "{workload}");
            }
        }
    }
}

#[test]
fn sim_workloads_report_every_metric_in_short_mode() {
    for workload in ["sim-fig4", "sim-websrv"] {
        for traced in [false, true] {
            let r = short(workload, 1, traced);
            assert_complete(workload, &r, traced);
        }
    }
}

#[test]
fn simulator_results_are_a_function_of_the_seed() {
    const EXACT: [&str; 4] = [
        "kernsim.events",
        "engine.quanta",
        "engine.measurements",
        "engine.signals",
    ];
    for workload in ["sim-fig4", "sim-websrv"] {
        let key = |seed: u64| -> Vec<f64> {
            let plain = short(workload, seed, false);
            let traced = short(workload, seed, true);
            let mut k = vec![plain.metrics["share_err_pct"]];
            k.extend(EXACT.iter().map(|&n| traced.metrics[n]));
            k
        };
        let a = key(1);
        assert_eq!(a, key(1), "{workload}: same seed, same results");
        // The engine counts may coincide across seeds (the web server's
        // quanta are fixed by its simulated length); the error and the
        // simulator's event count may not.
        let b = key(2);
        assert_ne!(a[0], b[0], "{workload}: share_err_pct ignores the seed");
        assert_ne!(a[1], b[1], "{workload}: kernsim.events ignores the seed");
    }
}
