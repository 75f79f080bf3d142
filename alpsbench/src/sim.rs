//! The `sim-*` workloads: ALPS inside the `kernsim` simulator.
//!
//! A pass runs fixed simulated work that the seed fully determines. The
//! benchmark repeats passes until its window is spent, checks that every
//! pass reproduced the first one exactly, and reports host-time medians
//! over passes. Host time, read on the thread's CPU clock, is taken
//! around each `Sim::run_until` chunk (the simulator with the engine
//! running inside it) and around each simulation's construction (set-up).

use std::cell::RefCell;
use std::rc::Rc;

use alps_core::{AlpsConfig, EngineStats, Nanos};
use alps_metrics::mean_rms_relative_error_pct;
use alps_os::clock;
use alps_sim::{spawn_alps, spawn_alps_principals, CostModel, MemberList};
use kernsim::{ComputeBound, Pid, Sim, SimConfig};
use workloads::{ShareModel, Site, Tenant, Workload};

use crate::host;
use crate::report::Report;
use crate::span::Recorder;
use crate::stats::{median, miss_rate, quantile};

/// Which simulated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Figure-4/5 grid.
    Fig4,
    /// The §5 shared web server.
    Websrv,
}

/// Run length and sizing of one invocation.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Host time to keep repeating passes for.
    pub window: Nanos,
    /// Base `SimConfig` seed.
    pub seed: u64,
    /// A small pass (fewer cycles, one short seed) for tests.
    pub short: bool,
}

/// Simulated seconds per `run_until` chunk.
const CHUNK: Nanos = Nanos::SECOND;

const FIG4_NS: [usize; 3] = [5, 10, 20];
const FIG4_QS_MS: [u64; 3] = [10, 20, 40];
const FIG4_CYCLES: u64 = 200;
const FIG4_WARMUP_CYCLES: usize = 3;

const WEB_SEEDS: u64 = 40;
const WEB_WINDOW: Nanos = Nanos::from_secs(600);
const WEB_WARMUP: Nanos = Nanos::from_secs(5);
const WEB_QUANTUM: Nanos = Nanos::from_millis(100);
const WEB_SHARES: [u64; 3] = [1, 2, 3];
/// Completions skipped before latency percentiles (as `run_webserver`).
const WEB_WARM_REQUESTS: usize = 50;
/// `repro verify`'s band for the largest site's throughput fraction.
const WEB_BAND: f64 = 0.07;

/// Everything a pass computes that the seed determines.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    share_err_pct: f64,
    cpu_util: f64,
    alps_cpu_us_per_quantum: f64,
    quanta_missed_frac: f64,
    /// Worst site's p95 request latency (web server); `None` for the
    /// grid, whose unit of service is a grid point timed on the host.
    req_p95_ms: Option<f64>,
    sim_ns: u64,
    events: u64,
    context_switches: u64,
    stats: EngineStats,
    refreshes: u64,
}

/// One pass over a workload's simulations: the simulated totals the seed
/// determines, and the host time spent.
#[derive(Debug, Default)]
struct Pass {
    err_sum: f64,
    p95_sum: f64,
    points: u64,
    worker_cpu: f64,
    wall: f64,
    alps_cpu: f64,
    /// Quantum boundaries due after warm-up, and how many of them no
    /// invocation serviced.
    due: u64,
    missed: u64,
    sim_ns: u64,
    events: u64,
    context_switches: u64,
    stats: EngineStats,
    refreshes: u64,
    /// Host time inside `Sim::run_until`.
    run_ns: u64,
    /// Host time building the simulations.
    setup_ns: u64,
    /// Host time of each grid point (set-up plus run).
    point_ns: Vec<f64>,
    /// Spans of this pass, when traced.
    rec: Option<Recorder>,
    /// `host::speed_scale()` taken just before the pass.
    host_scale: f64,
}

impl Pass {
    /// Advance `sim` to `until` in `CHUNK`s while `more` holds, timing
    /// each `run_until` call (and recording a span for it when tracing).
    fn run_chunks(&mut self, sim: &mut Sim, until: Nanos, more: impl Fn() -> bool) {
        while sim.now() < until && more() {
            let next = (sim.now() + CHUNK).min(until);
            let span = self.rec.as_mut().map(|r| r.open("run_until"));
            let t0 = host::thread_cpu();
            self.events += sim.run_until(next);
            self.run_ns += (host::thread_cpu() - t0).0;
            if let (Some(r), Some(s)) = (self.rec.as_mut(), span) {
                r.close(s);
            }
        }
    }

    /// Add one finished simulation: its post-warm-up window of length
    /// `span` at quantum `q` (in which `serviced` invocations ran) and
    /// the ALPS instance's counters.
    fn add(
        &mut self,
        sim: &Sim,
        alps_pid: Pid,
        stats: EngineStats,
        span: Nanos,
        q: Nanos,
        serviced: u64,
    ) {
        let due = span.as_nanos() / q.as_nanos();
        self.due += due;
        self.missed += due.saturating_sub(serviced);
        self.points += 1;
        self.alps_cpu += sim.proc(alps_pid).map_or(0.0, |v| v.cputime().as_f64());
        self.sim_ns += sim.now().0;
        self.context_switches += sim.context_switches();
        let t = &mut self.stats;
        t.quanta += stats.quanta;
        t.measurements += stats.measurements;
        t.signals += stats.signals;
        t.overruns += stats.overruns;
    }

    fn outcome(&self, web: bool) -> Outcome {
        Outcome {
            share_err_pct: self.err_sum / self.points as f64,
            cpu_util: self.worker_cpu / self.wall,
            alps_cpu_us_per_quantum: self.alps_cpu / self.stats.quanta as f64 / 1e3,
            quanta_missed_frac: miss_rate(self.missed, self.due),
            req_p95_ms: web.then(|| self.p95_sum / self.points as f64),
            sim_ns: self.sim_ns,
            events: self.events,
            context_switches: self.context_switches,
            stats: self.stats,
            refreshes: self.refreshes,
        }
    }
}

fn cputime(sim: &Sim, pids: &[Pid]) -> f64 {
    pids.iter()
        .map(|&p| sim.proc(p).map_or(0.0, |v| v.cputime().as_f64()))
        .sum()
}

/// One Figure-4 grid point, as `run_workload` runs it: `n` compute-bound
/// processes with a Table-2 share set under one ALPS at quantum `q`,
/// until `cycles` cycles after warm-up complete.
fn fig4_point(
    p: &mut Pass,
    model: ShareModel,
    n: usize,
    q: Nanos,
    seed: u64,
    cycles: u64,
) -> Result<(), String> {
    let t0 = host::thread_cpu();
    let shares = model.shares(n);
    let mut sim = Sim::new(SimConfig {
        seed,
        spawn_estcpu_jitter: 8.0,
        ..SimConfig::default()
    });
    let procs: Vec<(Pid, u64)> = shares
        .iter()
        .enumerate()
        .map(|(i, &s)| (sim.spawn(format!("w{i}"), Box::new(ComputeBound)), s))
        .collect();
    let cfg = AlpsConfig::new(q).with_cycle_log(true);
    let alps = spawn_alps(&mut sim, "alps", cfg, CostModel::paper(), &procs);
    let setup = (host::thread_cpu() - t0).0;
    p.setup_ns += setup;
    let run0 = p.run_ns;

    let warm = FIG4_WARMUP_CYCLES as u64;
    let want = cycles + warm;
    let total_shares: u64 = shares.iter().sum();
    let budget = q
        .mul_f64(total_shares as f64 * (want + 2) as f64 * 2.0)
        .max(Nanos::from_secs(30));
    // Warm-up includes start-up stalls of the ALPS process (it is spawned
    // behind workers with jittered `estcpu`); misses count after it.
    p.run_chunks(&mut sim, budget, || alps.cycle_count() < warm);
    let (t_warm, q_warm) = (sim.now(), alps.stats().quanta);
    p.run_chunks(&mut sim, budget, || alps.cycle_count() < want);
    p.point_ns.push((setup + p.run_ns - run0) as f64);
    if alps.cycle_count() < want {
        return Err(format!(
            "check fig4_cycles: {model:?}{n} at Q={q} completed {} of {want} cycles",
            alps.cycle_count()
        ));
    }

    p.err_sum += mean_rms_relative_error_pct(&alps.cycles(), FIG4_WARMUP_CYCLES);
    let workers: Vec<Pid> = procs.iter().map(|&(pid, _)| pid).collect();
    p.worker_cpu += cputime(&sim, &workers);
    p.wall += sim.now().as_f64();
    let stats = alps.stats();
    p.add(
        &sim,
        alps.pid,
        stats,
        sim.now() - t_warm,
        q,
        stats.quanta - q_warm,
    );
    Ok(())
}

/// The three sites of `run_webserver`, seeded the same way.
fn sites(seed: u64) -> [Site; 3] {
    let names = ["siteA", "siteB", "siteC"];
    [0u64, 1, 2].map(|i| Site {
        name: names[i as usize].into(),
        workers: 50,
        active: 8,
        cpu_per_request: Nanos::from_millis(10),
        db_wait: Nanos::from_millis(40),
        jitter: 0.3,
        seed: seed.wrapping_mul(17).wrapping_add(i),
    })
}

/// One seed of the shared web server under ALPS with per-site principals.
fn web_seed(p: &mut Pass, seed: u64, window: Nanos) -> Result<(), String> {
    let t0 = host::thread_cpu();
    let mut sim = Sim::new(SimConfig {
        seed,
        spawn_estcpu_jitter: 4.0,
        ..SimConfig::default()
    });
    let tenants: Vec<Tenant> = sites(seed).iter().map(|s| s.spawn(&mut sim)).collect();
    let groups: Vec<(u64, MemberList)> = tenants
        .iter()
        .zip(WEB_SHARES)
        .map(|(t, share)| (share, Rc::new(RefCell::new(t.members.clone()))))
        .collect();
    let alps = spawn_alps_principals(
        &mut sim,
        "alps",
        AlpsConfig::new(WEB_QUANTUM),
        CostModel::paper(),
        &groups,
        Nanos::SECOND,
    );
    p.setup_ns += (host::thread_cpu() - t0).0;

    let workers: Vec<Pid> = tenants
        .iter()
        .flat_map(|t| t.members.iter().copied())
        .collect();
    p.run_chunks(&mut sim, WEB_WARMUP, || true);
    let q_warm = alps.stats().quanta;
    let base: Vec<u64> = tenants.iter().map(|t| t.completed()).collect();
    let cpu0 = cputime(&sim, &workers);
    let end = sim.now() + window;
    p.run_chunks(&mut sim, end, || true);

    let rps: Vec<f64> = tenants
        .iter()
        .zip(&base)
        .map(|(t, &b)| Tenant::throughput_rps(t.completed() - b, window))
        .collect();
    let total: f64 = rps.iter().sum();
    let sum_shares: u64 = WEB_SHARES.iter().sum();
    let mut sq = 0.0;
    for (r, &s) in rps.iter().zip(&WEB_SHARES) {
        let want = s as f64 / sum_shares as f64;
        sq += ((r / total - want) / want).powi(2);
    }
    // The band `repro verify` applies to the §5 experiment.
    let frac_c = rps[2] / total;
    if !(rps[0] < rps[1] && rps[1] < rps[2] && (frac_c - 0.5).abs() < WEB_BAND) {
        return Err(format!(
            "check websrv_band: seed {seed}: throughput {rps:?} req/s, largest site's \
             fraction {frac_c:.3} (want ordered and within 0.5 ± {WEB_BAND})"
        ));
    }
    let p95 = tenants
        .iter()
        .map(|t| t.latency_percentile_ms(0.95, WEB_WARM_REQUESTS))
        .try_fold(0.0f64, |m, p| p.map(|p| m.max(p)))
        .ok_or_else(|| {
            format!("check websrv_latency: seed {seed}: a site completed no requests")
        })?;

    p.err_sum += 100.0 * (sq / rps.len() as f64).sqrt();
    p.p95_sum += p95;
    p.worker_cpu += cputime(&sim, &workers) - cpu0;
    p.wall += window.as_f64();
    p.refreshes += alps.refreshes();
    let stats = alps.stats();
    p.add(
        &sim,
        alps.pid,
        stats,
        window,
        WEB_QUANTUM,
        stats.quanta - q_warm,
    );
    Ok(())
}

fn pass(kind: Kind, plan: Plan, rec: Option<Recorder>) -> Result<Pass, String> {
    let mut p = Pass {
        rec,
        ..Pass::default()
    };
    match kind {
        Kind::Fig4 => {
            let cycles = if plan.short { 20 } else { FIG4_CYCLES };
            for model in ShareModel::ALL {
                for n in FIG4_NS {
                    for q in FIG4_QS_MS {
                        fig4_point(&mut p, model, n, Nanos::from_millis(q), plan.seed, cycles)?;
                    }
                }
            }
        }
        Kind::Websrv => {
            let (seeds, window) = if plan.short {
                (1, Nanos::from_secs(60))
            } else {
                (WEB_SEEDS, WEB_WINDOW)
            };
            for k in 0..seeds {
                web_seed(&mut p, plan.seed.wrapping_add(k), window)?;
            }
        }
    }
    Ok(p)
}

/// Repeat passes until the window is spent (at least `min` passes);
/// every pass must reproduce the first exactly. `traced(i)` says whether
/// pass `i` records spans.
fn passes(
    kind: Kind,
    plan: Plan,
    min: usize,
    traced: impl Fn(usize) -> bool,
) -> Result<(Outcome, Vec<Pass>), String> {
    let web = kind == Kind::Websrv;
    let end = clock::now() + plan.window;
    let mut runs: Vec<Pass> = Vec::new();
    while runs.len() < min || clock::now() < end {
        let i = runs.len();
        let rec = traced(i).then(|| {
            let mut r = Recorder::new(|| host::thread_cpu().0);
            r.set_id(i as u64);
            r
        });
        let host_scale = host::speed_scale();
        let mut p = pass(kind, plan, rec)?;
        p.host_scale = host_scale;
        if let Some(first) = runs.first() {
            let (a, b) = (first.outcome(web), p.outcome(web));
            if a != b {
                return Err(format!(
                    "check sim_deterministic: pass {i} differs from pass 0: {b:?} vs {a:?}"
                ));
            }
        }
        runs.push(p);
    }
    Ok((runs[0].outcome(web), runs))
}

/// The untraced run: every end-to-end metric.
pub fn run(kind: Kind, plan: Plan) -> Result<Report, String> {
    let mut r = Report::default();
    host::fingerprint(&mut r, None)?;
    let (out, runs) = passes(kind, plan, 1, |_| false)?;
    let over =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&runs.iter().map(f).collect::<Vec<_>>()) };
    r.set("share_err_pct", out.share_err_pct);
    r.set("cpu_util", out.cpu_util);
    r.set("alps_cpu_us_per_quantum", out.alps_cpu_us_per_quantum);
    r.set("quanta_missed_frac", out.quanta_missed_frac);
    // Host times are scaled to a host where the speed reference takes
    // its nominal time (see `host::speed_scale`); the raw medians are
    // details.
    let rate = |p: &Pass, scale: f64| out.sim_ns as f64 / (p.run_ns as f64 * scale);
    r.set("sim_s_per_host_s", over(&|p| rate(p, p.host_scale)));
    r.note_num("sim_s_per_host_s.raw", over(&|p| rate(p, 1.0)));
    // No requests in the grid: its unit of service is one grid point
    // (set-up plus run), timed on the host.
    let p95 = out.req_p95_ms.unwrap_or_else(|| {
        r.note_num(
            "req_p95_ms.raw",
            over(&|p| quantile(&p.point_ns, 0.95) / 1e6),
        );
        over(&|p| quantile(&p.point_ns, 0.95) * p.host_scale / 1e6)
    });
    r.set("req_p95_ms", p95);
    r.set("setup_s", over(&|p| p.setup_ns as f64 * p.host_scale / 1e9));
    r.note_num("setup_s.raw", over(&|p| p.setup_ns as f64 / 1e9));
    r.note_num("host.speed_scale", over(&|p| p.host_scale));
    r.note_num("passes", runs.len() as f64);
    r.note_num("sim_seconds_per_pass", out.sim_ns as f64 / 1e9);
    r.attempted = out.stats.quanta * runs.len() as u64;
    Ok(r)
}

/// The traced run: alternate untraced and traced passes; per-layer
/// metrics from the traced ones, tracing overhead from the difference.
pub fn run_traced(kind: Kind, plan: Plan) -> Result<Report, String> {
    let mut r = Report::default();
    host::fingerprint(&mut r, None)?;
    let (out, runs) = passes(kind, plan, 2, |i| i % 2 == 1)?;
    let s = out.stats;
    let quanta = s.quanta as f64;
    let mut per_event = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for p in &runs {
        let us_per_quantum = p.run_ns as f64 / quanta / 1e3;
        match &p.rec {
            Some(rec) => {
                let in_spans: u64 = rec.spans().iter().map(|s| s.dur()).sum();
                per_event.push(in_spans as f64 / out.events as f64);
                traced.push(us_per_quantum);
            }
            None => plain.push(us_per_quantum),
        }
    }
    for name in [
        "wake.late_us_p50",
        "wake.late_us_p99",
        "wake.cpu_us_per_quantum",
        "measure.us_per_read_p50",
        "measure.us_per_quantum",
        "decide.us_per_quantum",
        "decide.transitions_per_quantum",
        "actuate.us_per_signal_p50",
        "actuate.us_per_quantum",
        "refresh.us_p50",
        "loop.us_per_quantum",
        "model.measure_ratio",
        "model.signal_ratio",
        "model.timer_ratio",
    ] {
        // Host-timed per-operation layers exist only on real Linux; in
        // the simulator they run inside `run_until` and are charged from
        // the cost model.
        r.set(name, 0.0);
    }
    r.set("wake.overruns", s.overruns as f64);
    r.set("measure.reads_per_quantum", s.measurements as f64 / quanta);
    r.set("measure.failed", 0.0);
    r.set("actuate.signals_per_quantum", s.signals as f64 / quanta);
    r.set("actuate.failed", 0.0);
    r.set("refresh.count", out.refreshes as f64);
    r.set("kernsim.events", out.events as f64);
    r.set("kernsim.ns_per_event", median(&per_event));
    r.set("kernsim.context_switches", out.context_switches as f64);
    r.set("engine.quanta", s.quanta as f64);
    r.set("engine.measurements", s.measurements as f64);
    r.set("engine.signals", s.signals as f64);
    // Host time per simulated quantum stands in for the supervisor's CPU
    // per quantum: the whole simulation is the host-side cost here.
    let (t, u) = (median(&traced), median(&plain));
    r.set("trace.quantum_cpu_us", t);
    r.set("trace.accounted_us_per_quantum", t);
    r.set("trace.overhead_us_per_quantum", t - u);
    r.note_num("passes", runs.len() as f64);
    r.note("share_err_pct", out.share_err_pct);
    r.attempted = s.quanta * runs.len() as u64;
    Ok(r)
}
