//! Metric catalogue and the result lines the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs): name and unit. Every workload
/// reports every one; README.md in this directory defines each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("share_err_pct", "%"),
    ("cpu_util", "fraction"),
    ("alps_cpu_us_per_quantum", "us"),
    ("quanta_missed_frac", "fraction"),
    ("sim_s_per_host_s", "s/s"),
    ("req_p95_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs): name and unit. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wake.late_us_p50", "us"),
    ("wake.late_us_p99", "us"),
    ("wake.overruns", "count"),
    ("wake.cpu_us_per_quantum", "us"),
    ("measure.reads_per_quantum", "1/quantum"),
    ("measure.us_per_read_p50", "us"),
    ("measure.us_per_quantum", "us"),
    ("measure.failed", "count"),
    ("decide.us_per_quantum", "us"),
    ("decide.transitions_per_quantum", "1/quantum"),
    ("actuate.signals_per_quantum", "1/quantum"),
    ("actuate.us_per_signal_p50", "us"),
    ("actuate.us_per_quantum", "us"),
    ("actuate.failed", "count"),
    ("refresh.us_p50", "us"),
    ("refresh.count", "count"),
    ("loop.us_per_quantum", "us"),
    ("kernsim.events", "count"),
    ("kernsim.ns_per_event", "ns"),
    ("kernsim.context_switches", "count"),
    ("engine.quanta", "count"),
    ("engine.measurements", "count"),
    ("engine.signals", "count"),
    ("model.measure_ratio", "ratio"),
    ("model.signal_ratio", "ratio"),
    ("model.timer_ratio", "ratio"),
    ("trace.quantum_cpu_us", "us"),
    ("trace.accounted_us_per_quantum", "us"),
    ("trace.overhead_us_per_quantum", "us"),
];

/// The metric names a run in the given mode must report.
pub fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one run measured.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Operations attempted (quanta serviced, simulated or real).
    pub attempted: u64,
    /// Operations that returned an error (failed `/proc` reads and
    /// `kill(2)` calls). Missed quanta are a metric, not a failure.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context printed on the line before the result: the host
    /// fingerprint and sample counts behind the medians.
    pub detail: BTreeMap<String, String>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a detail as a JSON string.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.detail
            .insert(key.to_string(), quote(&value.to_string()));
    }

    /// Record a detail that is already a JSON value (a number).
    pub fn note_num(&mut self, key: &str, value: f64) {
        self.detail.insert(key.to_string(), num(value));
    }

    /// Check that every metric of the mode is present and finite.
    pub fn validate(&self, traced: bool) -> Result<(), String> {
        for &(name, _) in catalogue(traced) {
            match self.metrics.get(name) {
                None => return Err(format!("metric {name} was not measured")),
                Some(v) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
                Some(_) => {}
            }
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        Ok(())
    }

    /// The detail line: one JSON object.
    pub fn detail_line(&self) -> String {
        let mut out = String::from("{\"detail\": {");
        for (i, (k, v)) in self.detail.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", quote(k));
        }
        out.push_str("}}");
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the mode's
    /// metrics with their units, in catalogue order. Only a run whose
    /// checks all passed prints one, so `correct` is always true.
    pub fn result_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, &(name, unit)) in catalogue(traced).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(v),
                quote(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every digit and always marks a float (`1.0`).
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.validate(false).unwrap();
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r.validate(true).is_err(), "per-layer metrics missing");
    }

    #[test]
    fn details_are_escaped() {
        let mut r = Report::default();
        r.note("kernel", "6.1 \"x\"");
        r.note_num("n", 2.0);
        assert_eq!(
            r.detail_line(),
            "{\"detail\": {\"kernel\": \"6.1 \\\"x\\\"\", \"n\": 2.0}}"
        );
    }
}
