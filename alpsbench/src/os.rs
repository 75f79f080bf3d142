//! The `os-*` workloads: the real supervisor controlling real busy-loop
//! processes on one pinned CPU.
//!
//! Untraced runs call the public supervisors (`Supervisor`,
//! `PrincipalSupervisor`) exactly as a user would and time each
//! `run_quantum` call from outside. Traced runs first repeat that for half
//! the window (the untraced baseline of the same process), then drive
//! `Engine`'s public stages over a timing wrapper around `OsSubstrate` on
//! the same cadence, recording a span at every layer boundary.

use std::time::Duration;

use alps_core::{
    AlpsConfig, CycleEntry, CycleRecord, Engine, Event, EventSink, Instrumentation, Nanos,
    NullSink, Observation, ProcId, Signal, Substrate,
};
use alps_metrics::mean_rms_relative_error_pct;
use alps_os::{
    clock, proc, signal, ExitWatcher, Membership, OsError, OsSubstrate, PrincipalSupervisor,
    SpinnerPool, Supervisor,
};
use alps_sim::CostModel;

use crate::host;
use crate::report::Report;
use crate::span::{self_times, Recorder};
use crate::stats::{mean, median, quantile};

/// One `os-*` workload: groups of busy-loop children and their shares.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Scheduled as principals (`PrincipalSupervisor`) rather than one
    /// process per share (`Supervisor`).
    pub principals: bool,
    /// One share per group; the seed permutes which group gets which.
    pub shares: &'static [u64],
    /// Children per group.
    pub per_group: usize,
}

/// The paper's Linear5 set under the flat supervisor.
pub const LINEAR5: Shape = Shape {
    principals: false,
    shares: &[1, 3, 5, 7, 9],
    per_group: 1,
};

/// Four principals of four children each.
pub const PRINCIPALS16: Shape = Shape {
    principals: true,
    shares: &[1, 3, 5, 7],
    per_group: 4,
};

const QUANTUM: Nanos = Nanos::from_millis(10);
const REFRESH: Nanos = Nanos::SECOND;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Quanta run before measuring, so enrollment and the first cycles
/// (which start from arbitrary `estcpu`-free kernel state) are skipped.
const WARMUP: Nanos = Nanos::from_millis(1000);
/// CPU time of one `host::WakeProbe` wake-up in the build host's fast
/// regime, for a probe of one child or of four (see README.md):
/// `alps_cpu_us_per_quantum` is the supervisor's cost on a host where the
/// probe costs this much.
const PROBE_NOMINAL_NS: f64 = 25e3;
/// Blocks over which the supervisor's cost is compared with the probe's.
const BLOCK: Nanos = Nanos::SECOND;

/// Run length and sizing of one invocation.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Measured window.
    pub window: Nanos,
    /// Workload seed.
    pub seed: u64,
}

#[derive(Debug)]
struct Group {
    share: u64,
    pids: Vec<i32>,
}

/// Deterministic Fisher–Yates shuffle of the share set.
fn permuted(shares: &[u64], seed: u64) -> Vec<u64> {
    let mut v = shares.to_vec();
    let mut x = seed;
    for i in (1..v.len()).rev() {
        x = workloads::splitmix64(x);
        let j = (x % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn os_err(e: OsError) -> String {
    e.to_string()
}

/// The supervisor under test (one per run, so its size is immaterial).
#[allow(clippy::large_enum_variant)]
enum Driver {
    Flat(Supervisor),
    Principals(PrincipalSupervisor),
}

/// Watches the supervisor's event stream for cycle ends and for the
/// time each quantum started (just after its wake-up).
#[derive(Default)]
struct Observer {
    cycle_ends: u64,
    started: Nanos,
}

impl EventSink<i32> for Observer {
    fn on_event(&mut self, e: &Event<i32>) {
        match e {
            Event::CycleEnd { .. } => self.cycle_ends += 1,
            Event::QuantumStart { now, .. } => self.started = *now,
            _ => {}
        }
    }
}

impl Driver {
    /// Build the supervisor and enroll every group; returns the ids the
    /// groups were registered under, in group order.
    fn build(shape: Shape, groups: &[Group]) -> Result<(Driver, Vec<ProcId>), String> {
        let cfg = AlpsConfig::new(QUANTUM);
        if shape.principals {
            let mut sup = PrincipalSupervisor::new(cfg, Duration::from(REFRESH));
            let ids = groups
                .iter()
                .map(|g| sup.add_principal(g.share, Membership::Pids(g.pids.clone())))
                .collect();
            Ok((Driver::Principals(sup), ids))
        } else {
            let mut sup = Supervisor::new(cfg);
            let mut ids = Vec::new();
            for g in groups {
                ids.push(sup.add_process(g.pids[0], g.share).map_err(os_err)?);
            }
            Ok((Driver::Flat(sup), ids))
        }
    }

    /// One `run_quantum` call; returns whether a cycle ended in it.
    fn step(&mut self, obs: &mut Observer) -> Result<bool, String> {
        let before = obs.cycle_ends;
        match self {
            Driver::Flat(sup) => sup.run_quantum_with(obs).map(drop),
            Driver::Principals(sup) => sup.run_quantum_with(obs),
        }
        .map_err(os_err)?;
        Ok(obs.cycle_ends > before)
    }
}

/// Spawned children plus their grouping.
struct Children {
    pool: SpinnerPool,
    groups: Vec<Group>,
}

impl Children {
    fn spawn(shape: Shape, seed: u64) -> Result<Children, String> {
        let shares = permuted(shape.shares, seed);
        let pool = SpinnerPool::spawn(shares.len() * shape.per_group).map_err(os_err)?;
        let pids = pool.pids();
        let groups = shares
            .iter()
            .zip(pids.chunks(shape.per_group))
            .map(|(&share, pids)| Group {
                share,
                pids: pids.to_vec(),
            })
            .collect();
        Ok(Children { pool, groups })
    }

    fn all_pids(&self) -> Vec<i32> {
        self.pool.pids()
    }

    /// Per-group schedstat runtime sums.
    fn runtimes(&self) -> Result<Vec<u64>, String> {
        self.groups
            .iter()
            .map(|g| g.pids.iter().map(|&p| host::schedstat_ns(p)).sum())
            .collect()
    }
}

/// Per-cycle consumption built from schedstat at each cycle end.
struct CycleLog {
    ids: Vec<ProcId>,
    shares: Vec<u64>,
    last: Vec<u64>,
    first: Vec<u64>,
    records: Vec<CycleRecord>,
}

impl CycleLog {
    fn start(children: &Children, ids: Vec<ProcId>) -> Result<CycleLog, String> {
        let now = children.runtimes()?;
        Ok(CycleLog {
            ids,
            shares: children.groups.iter().map(|g| g.share).collect(),
            first: now.clone(),
            last: now,
            records: Vec::new(),
        })
    }

    fn cycle_end(&mut self, children: &Children) -> Result<(), String> {
        let now = children.runtimes()?;
        let entries: Vec<CycleEntry> = (0..now.len())
            .map(|i| CycleEntry {
                id: self.ids[i],
                share: self.shares[i],
                consumed: Nanos(now[i].saturating_sub(self.last[i])),
            })
            .collect();
        self.records.push(CycleRecord {
            index: self.records.len() as u64,
            completed_at: clock::now(),
            total_shares: self.shares.iter().sum(),
            total_consumed: entries.iter().map(|e| e.consumed).sum(),
            entries,
        });
        self.last = now;
        Ok(())
    }
}

/// The supervisors' drift-free cadence, mirrored from outside: the
/// deadline each call services and how many boundaries were skipped.
struct Cadence {
    deadline: Nanos,
    missed: u64,
    serviced: u64,
}

impl Cadence {
    /// Starts from the first deadline a fresh supervisor sets (`now + Q`).
    fn new(first_call: Nanos) -> Cadence {
        Cadence {
            deadline: first_call + QUANTUM,
            missed: 0,
            serviced: 0,
        }
    }

    /// A quantum was serviced at `woke`; returns the deadline it served.
    fn serviced_at(&mut self, woke: Nanos) -> Nanos {
        let mut served = self.deadline;
        // `woke` trails the supervisor's own wake-up reading slightly; if a
        // boundary fell in between, the mirror skipped one the supervisor
        // did not. No deadline is served before its wake-up: step back.
        while served > woke {
            served -= QUANTUM;
            self.missed = self.missed.saturating_sub(1);
        }
        let mut next = served + QUANTUM;
        if woke >= next {
            let behind = (woke - served).as_nanos() / QUANTUM.as_nanos();
            next = served + QUANTUM * (behind + 1);
            self.missed += behind;
        }
        self.deadline = next;
        self.serviced += 1;
        served
    }

    fn window_reset(&mut self) {
        self.missed = 0;
        self.serviced = 0;
    }
}

/// Run quanta until a cycle ends (at most `cap` of wall time).
fn until_cycle_end(
    d: &mut Driver,
    obs: &mut Observer,
    cad: &mut Cadence,
    cap: Nanos,
) -> Result<(), String> {
    let stop = clock::now() + cap;
    loop {
        let ended = d.step(obs)?;
        cad.serviced_at(obs.started);
        if ended {
            return Ok(());
        }
        if clock::now() > stop {
            return Err("check cycle_progress: no cycle completed during warm-up".into());
        }
    }
}

/// One `run_quantum` call of the untraced window.
struct Call {
    /// When the call returned.
    at: Nanos,
    /// Supervisor thread CPU time inside the call.
    cpu: f64,
    /// From the deadline it served to its return.
    response: f64,
    /// The part of its quantum that had passed before its wake-up, in
    /// quanta (at most 1).
    late: f64,
}

/// What the untraced supervisor loop measured over its window.
struct Window {
    start: Nanos,
    calls: Vec<Call>,
    /// `host::WakeProbe` samples over the window.
    probe: Vec<(Nanos, Nanos)>,
    wall: Nanos,
    children_cpu: u64,
    log: CycleLog,
    missed: u64,
    serviced: u64,
}

fn untraced_window(
    d: &mut Driver,
    children: &Children,
    ids: Vec<ProcId>,
    window: Nanos,
) -> Result<Window, String> {
    let mut obs = Observer::default();
    let mut cad = Cadence::new(clock::now());
    let warm_end = clock::now() + WARMUP;
    while clock::now() < warm_end {
        d.step(&mut obs)?;
        cad.serviced_at(obs.started);
    }
    until_cycle_end(d, &mut obs, &mut cad, Nanos::from_secs(5))?;
    let mut log = CycleLog::start(children, ids)?;
    cad.window_reset();
    let start = clock::now();
    let end = start + window;
    let probe = host::WakeProbe::start(children.groups[0].pids.clone(), start, QUANTUM);
    let mut calls = Vec::new();
    loop {
        let c0 = host::thread_cpu();
        let ended = d.step(&mut obs)?;
        let c1 = host::thread_cpu();
        let t = clock::now();
        let served = cad.serviced_at(obs.started);
        calls.push(Call {
            at: t,
            cpu: (c1 - c0).as_f64(),
            response: t.saturating_sub(served).as_f64(),
            late: (obs.started.saturating_sub(served).as_f64() / QUANTUM.as_f64()).min(1.0),
        });
        if ended {
            log.cycle_end(children)?;
        }
        if t >= end {
            break;
        }
    }
    let wall = clock::now() - start;
    let probe = probe.stop()?;
    let now = children.runtimes()?;
    let children_cpu = now
        .iter()
        .zip(&log.first)
        .map(|(a, b)| a.saturating_sub(*b))
        .sum();
    Ok(Window {
        start,
        calls,
        probe,
        wall,
        children_cpu,
        log,
        missed: cad.missed,
        serviced: cad.serviced,
    })
}

/// Spawn and enroll `SETUP_REPS` times, keeping the last; returns the
/// median set-up time.
fn set_up(shape: Shape, seed: u64) -> Result<(Children, Driver, Vec<ProcId>, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = clock::now();
        let children = Children::spawn(shape, seed)?;
        let (driver, ids) = Driver::build(shape, &children.groups)?;
        times.push((clock::now() - t0).as_secs_f64());
        // Release before the children are killed (drop order).
        kept = Some((driver, children, ids));
    }
    let (driver, children, ids) = kept.expect("SETUP_REPS > 0");
    Ok((children, driver, ids, median(&times)))
}

/// Pin to the chosen CPU and record the host fingerprint.
fn prepare(r: &mut Report) -> Result<(), String> {
    let cpu = host::chosen_cpu()?;
    if !host::fingerprint(r, Some(cpu))? {
        return Err("check schedstat_ns: /proc/<pid>/schedstat does not count nanoseconds".into());
    }
    host::actuators(r);
    host::pin_current_thread(cpu)
}

/// schedstat runtime and `/proc/<pid>/stat` CPU time agree to within
/// tick granularity: stat's utime and stime are each truncated to whole
/// ticks, so their sum trails the runtime by less than two ticks.
fn check_schedstat_vs_stat(pids: &[i32]) -> Result<(), String> {
    let tick = proc::ns_per_tick();
    for &pid in pids {
        let before = host::schedstat_ns(pid)?;
        let stat = proc::read_stat(pid, tick).map_err(os_err)?.cpu_time.0;
        let after = host::schedstat_ns(pid)?;
        if stat + 2 * tick < before || stat > after + tick {
            return Err(format!(
                "check schedstat_vs_stat: pid {pid}: stat {stat} ns outside \
                 [{before} - 2 ticks, {after} + 1 tick] (tick {tick} ns)"
            ));
        }
    }
    Ok(())
}

/// Every child is running again (not stopped) once control is released.
fn check_none_stopped(pids: &[i32]) -> Result<(), String> {
    let tick = proc::ns_per_tick();
    for &pid in pids {
        let mut state = 'T';
        for _ in 0..100 {
            state = proc::read_stat(pid, tick).map_err(os_err)?.state;
            if state != 'T' {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if state == 'T' {
            return Err(format!(
                "check children_continued: pid {pid} left stopped after release"
            ));
        }
    }
    Ok(())
}

/// Kill and reap the children, then confirm none is left, even a zombie.
fn finish(children: Children) -> Result<(), String> {
    let pids = children.all_pids();
    drop(children);
    for pid in pids {
        if signal::alive(pid) {
            return Err(format!("check children_reaped: pid {pid} still exists"));
        }
    }
    Ok(())
}

/// Over the whole window, a larger share must have bought more CPU.
fn check_ordered(log: &CycleLog, children: &Children) -> Result<(), String> {
    let now = children.runtimes()?;
    let mut got: Vec<(u64, u64)> = log
        .shares
        .iter()
        .zip(now.iter().zip(&log.first))
        .map(|(&s, (a, b))| (s, a.saturating_sub(*b)))
        .collect();
    got.sort_unstable();
    if got.windows(2).any(|w| w[0].1 >= w[1].1) {
        return Err(format!(
            "check shares_ordered: (share, cpu ns) over the window = {got:?}"
        ));
    }
    Ok(())
}

/// The values of `(time, value)` samples, grouped by the whole `BLOCK`s
/// of the window that starts at `start`; samples after the last whole
/// block are left out.
fn by_block(
    start: Nanos,
    window: Nanos,
    samples: impl IntoIterator<Item = (Nanos, f64)>,
) -> Vec<Vec<f64>> {
    let mut blocks = vec![Vec::new(); (window.as_nanos() / BLOCK.as_nanos()).max(1) as usize];
    for (t, v) in samples {
        let i = (t.saturating_sub(start).as_nanos() / BLOCK.as_nanos()) as usize;
        if let Some(b) = blocks.get_mut(i) {
            b.push(v);
        }
    }
    blocks
}

/// Mean supervisor CPU per quantum at the probe's nominal speed. In each
/// whole `BLOCK` of the window, the supervisor's mean CPU per quantum is
/// divided by the probe's mean CPU per wake-up; the result is the mean of
/// those ratios times `PROBE_NOMINAL_NS`. `NaN` if no block has both.
fn at_nominal_speed(start: Nanos, window: Nanos, calls: &[Call], probe: &[(Nanos, Nanos)]) -> f64 {
    let sup = by_block(start, window, calls.iter().map(|c| (c.at, c.cpu)));
    let probe = by_block(start, window, probe.iter().map(|&(t, c)| (t, c.as_f64())));
    let ratios: Vec<f64> = sup
        .iter()
        .zip(&probe)
        .filter(|(s, p)| !s.is_empty() && !p.is_empty())
        .map(|(s, p)| mean(s) / mean(p))
        .collect();
    mean(&ratios) * PROBE_NOMINAL_NS
}

/// Median over the window's whole `BLOCK`s of each block's p95 response
/// time: a second in which the host stalled the supervisor moves it no
/// more than any other second.
fn response_p95(start: Nanos, window: Nanos, calls: &[Call]) -> f64 {
    let p95: Vec<f64> = by_block(start, window, calls.iter().map(|c| (c.at, c.response)))
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| quantile(b, 0.95))
        .collect();
    median(&p95)
}

/// The untraced run: every end-to-end metric.
pub fn run(shape: Shape, plan: Plan) -> Result<Report, String> {
    let mut r = Report::default();
    prepare(&mut r)?;
    let (children, mut driver, ids, setup_s) = set_up(shape, plan.seed)?;
    let w = untraced_window(&mut driver, &children, ids, plan.window)?;
    check_ordered(&w.log, &children)?;
    check_schedstat_vs_stat(&children.all_pids())?;
    drop(driver);
    check_none_stopped(&children.all_pids())?;
    finish(children)?;

    let cpu: Vec<f64> = w.calls.iter().map(|c| c.cpu).collect();
    let response: Vec<f64> = w.calls.iter().map(|c| c.response).collect();
    let probe: Vec<f64> = w.probe.iter().map(|&(_, c)| c.as_f64()).collect();
    let cpu_nominal = at_nominal_speed(w.start, plan.window, &w.calls, &w.probe);
    let late: f64 = w.calls.iter().map(|c| c.late).sum();
    let due = w.serviced + w.missed;
    r.set(
        "share_err_pct",
        mean_rms_relative_error_pct(&w.log.records, 0),
    );
    r.set("cpu_util", w.children_cpu as f64 / w.wall.as_f64());
    r.set("alps_cpu_us_per_quantum", cpu_nominal / 1e3);
    r.set("quanta_missed_frac", (w.missed as f64 + late) / due as f64);
    r.set("sim_s_per_host_s", QUANTUM.as_f64() / cpu_nominal);
    r.set(
        "req_p95_ms",
        response_p95(w.start, plan.window, &w.calls) / 1e6,
    );
    r.set("setup_s", setup_s);
    r.note_num("alps_cpu_us_per_quantum.raw_mean", mean(&cpu) / 1e3);
    r.note_num("alps_cpu_us_per_quantum.raw_p50", median(&cpu) / 1e3);
    r.note_num(
        "alps_cpu_us_per_quantum.raw_p99",
        quantile(&cpu, 0.99) / 1e3,
    );
    r.note_num("alps_cpu_us_per_quantum.samples", cpu.len() as f64);
    r.note_num("req_p95_ms.whole_window", quantile(&response, 0.95) / 1e6);
    r.note_num("probe.us_per_wake_mean", mean(&probe) / 1e3);
    r.note_num("probe.samples", probe.len() as f64);
    r.note_num("share_err_pct.cycles", w.log.records.len() as f64);
    r.note_num("quanta.due", due as f64);
    r.note_num("quanta.skipped", w.missed as f64);
    r.note_num("quanta.late", late);
    r.attempted = w.serviced;
    Ok(r)
}

/// `OsSubstrate` with a span around every `/proc` read and every signal
/// batch.
struct TimedSub {
    inner: OsSubstrate,
    rec: Recorder,
    reads: u64,
    read_failed: u64,
    /// Per-read time of each read call (batch duration ÷ batch size).
    ns_per_read: Vec<f64>,
    signals: u64,
    signal_failed: u64,
    /// Per-signal time of each batch (batch duration ÷ batch size).
    ns_per_signal: Vec<f64>,
}

impl Substrate for TimedSub {
    type Member = i32;
    type Error = OsError;

    fn now(&mut self) -> Nanos {
        self.inner.now()
    }

    fn read(&mut self, pid: i32) -> Result<Option<Observation>, OsError> {
        let s = self.rec.open("read");
        let r = self.inner.read(pid);
        self.rec.close(s);
        self.ns_per_read.push(self.rec.spans()[s].dur() as f64);
        self.reads += 1;
        self.read_failed += u64::from(r.is_err());
        r
    }

    fn read_batch(
        &mut self,
        members: &[i32],
        out: &mut Vec<Option<Observation>>,
    ) -> Result<(), OsError> {
        let s = self.rec.open("read");
        let r = self.inner.read_batch(members, out);
        self.rec.close(s);
        if !members.is_empty() {
            let dur = self.rec.spans()[s].dur() as f64;
            self.ns_per_read.push(dur / members.len() as f64);
        }
        self.reads += members.len() as u64;
        self.read_failed += u64::from(r.is_err());
        r
    }

    fn read_exact(&mut self, pid: i32) -> Result<Option<Nanos>, OsError> {
        let s = self.rec.open("read");
        let r = self.inner.read_exact(pid);
        self.rec.close(s);
        self.ns_per_read.push(self.rec.spans()[s].dur() as f64);
        self.reads += 1;
        self.read_failed += u64::from(r.is_err());
        r
    }

    fn deliver(&mut self, pid: i32, sig: Signal) -> Result<bool, OsError> {
        // One-signal batch, so it is timed like the engine's batches.
        let mut delivered = Vec::with_capacity(1);
        self.apply_batch(&[(pid, sig)], &mut delivered)?;
        Ok(delivered[0])
    }

    fn apply_batch(
        &mut self,
        batch: &[(i32, Signal)],
        delivered: &mut Vec<bool>,
    ) -> Result<(), OsError> {
        let s = self.rec.open("signal");
        let r = self.inner.apply_batch(batch, delivered);
        self.rec.close(s);
        if !batch.is_empty() {
            let dur = self.rec.spans()[s].dur() as f64;
            self.ns_per_signal.push(dur / batch.len() as f64);
        }
        self.signals += batch.len() as u64;
        self.signal_failed += u64::from(r.is_err());
        r
    }
}

/// Mirror of `PrincipalSupervisor`'s membership refresh: read every
/// listed pid, hand the live ones to the engine, deliver the
/// reconciliation signals.
fn refresh(
    engine: &mut Engine<i32>,
    sub: &mut TimedSub,
    groups: &[Group],
    ids: &[ProcId],
) -> Result<(), String> {
    let tick = proc::ns_per_tick();
    for (g, &id) in groups.iter().zip(ids) {
        let mut current = Vec::with_capacity(g.pids.len());
        for &pid in &g.pids {
            if let Ok(stat) = proc::read_stat(pid, tick) {
                if !stat.dead() {
                    current.push((pid, stat.cpu_time));
                }
            }
        }
        if let Some(change) = engine.set_membership(id, &current) {
            engine
                .apply_signals(sub, &change.signals, &mut NullSink)
                .map_err(os_err)?;
        }
    }
    Ok(())
}

/// Spans on the supervisor thread's CPU clock.
fn cpu_recorder() -> Recorder {
    Recorder::new(|| host::thread_cpu().0)
}

/// The traced half: the engine's stages over `TimedSub`, on the
/// supervisors' cadence.
struct Traced {
    sub: TimedSub,
    quantum_cpu: Vec<f64>,
    late_ns: Vec<f64>,
    transitions: u64,
    quanta: u64,
    coalesced: u64,
    stats: alps_core::EngineStats,
}

fn traced_window(shape: Shape, children: &Children, window: Nanos) -> Result<Traced, String> {
    let cfg = AlpsConfig::new(QUANTUM);
    let mut sub = TimedSub {
        inner: OsSubstrate::new(),
        rec: cpu_recorder(),
        reads: 0,
        read_failed: 0,
        ns_per_read: Vec::new(),
        signals: 0,
        signal_failed: 0,
        ns_per_signal: Vec::new(),
    };
    let mut watcher = None;
    let mut ids = Vec::new();
    let mut engine;
    if shape.principals {
        engine = Engine::new(cfg, Instrumentation::Measured);
        for g in &children.groups {
            ids.push(engine.add_principal(g.share));
        }
    } else {
        // As `Supervisor::new` + `add_process`: exact cycle
        // instrumentation, auto-reap, members enrolled stopped.
        engine = Engine::new(cfg, Instrumentation::Exact).with_auto_reap(true);
        let mut w = ExitWatcher::new().map_err(os_err)?;
        for g in &children.groups {
            let pid = g.pids[0];
            let obs = sub
                .inner
                .read(pid)
                .map_err(os_err)?
                .ok_or_else(|| format!("pid {pid} vanished before enrollment"))?;
            sub.inner.deliver(pid, Signal::Stop).map_err(os_err)?;
            engine.add_member(pid, g.share, obs.total_cpu);
            w.watch(pid).map_err(os_err)?;
        }
        watcher = Some(w);
    }

    let mut exited = Vec::new();
    let mut next_deadline: Option<Nanos> = None;
    let mut next_refresh = Nanos::ZERO;
    let record_from = clock::now() + WARMUP;
    let end = record_from + window;
    let mut t = Traced {
        sub,
        quantum_cpu: Vec::new(),
        late_ns: Vec::new(),
        transitions: 0,
        quanta: 0,
        coalesced: 0,
        stats: Default::default(),
    };
    let mut stats_at_start = None;
    let mut k = 0u64;
    loop {
        let recording = clock::now() >= record_from;
        if recording && stats_at_start.is_none() {
            stats_at_start = Some(engine.stats());
            t.sub.rec = cpu_recorder();
            t.sub.reads = 0;
            t.sub.read_failed = 0;
            t.sub.ns_per_read.clear();
            t.sub.signals = 0;
            t.sub.signal_failed = 0;
            t.sub.ns_per_signal.clear();
        }
        k += 1;
        t.sub.rec.set_id(k);
        let c0 = host::thread_cpu();
        let q = t.sub.rec.open("quantum");
        let deadline = next_deadline.unwrap_or_else(|| clock::now() + QUANTUM);
        let w = t.sub.rec.open("wake");
        match &mut watcher {
            Some(wt) => {
                exited.clear();
                wt.wait_until(deadline, &mut exited);
            }
            None => clock::sleep_until(deadline),
        }
        t.sub.rec.close(w);
        let now = clock::now();
        let mut next = deadline + QUANTUM;
        let coalesced = now >= next;
        if coalesced {
            let behind = (now - deadline).as_nanos() / QUANTUM.as_nanos();
            next = deadline + QUANTUM * (behind + 1);
        }
        next_deadline = Some(next);
        if shape.principals && now >= next_refresh {
            let s = t.sub.rec.open("refresh");
            refresh(&mut engine, &mut t.sub, &children.groups, &ids)?;
            t.sub.rec.close(s);
            next_refresh = now + REFRESH;
        }
        let s = t.sub.rec.open("begin");
        engine
            .begin_quantum(&mut t.sub, &mut NullSink)
            .map_err(os_err)?;
        t.sub.rec.close(s);
        let s = t.sub.rec.open("complete");
        engine
            .complete_quantum(&mut t.sub, &mut NullSink)
            .map_err(os_err)?;
        t.sub.rec.close(s);
        let transitions = engine.last_transitions().len() as u64;
        let s = t.sub.rec.open("apply");
        engine
            .apply_pending_signals(&mut t.sub, &mut NullSink)
            .map_err(os_err)?;
        t.sub.rec.close(s);
        t.sub.rec.close(q);
        let c1 = host::thread_cpu();
        if recording {
            t.quanta += 1;
            t.transitions += transitions;
            t.coalesced += u64::from(coalesced);
            t.quantum_cpu.push((c1 - c0).as_f64());
            t.late_ns.push(now.saturating_sub(deadline).as_f64());
        }
        if recording && clock::now() >= end {
            break;
        }
    }
    let s0 = stats_at_start.expect("the window records at least one quantum");
    let s1 = engine.stats();
    t.stats = alps_core::EngineStats {
        quanta: s1.quanta - s0.quanta,
        measurements: s1.measurements - s0.measurements,
        signals: s1.signals - s0.signals,
        ..s1
    };
    // Release every member, as `release_all` does.
    for pid in children.all_pids() {
        match signal::sigcont(pid) {
            Ok(()) | Err(OsError::NoSuchProcess(_)) => {}
            Err(e) => return Err(os_err(e)),
        }
    }
    Ok(t)
}

/// The traced run: untraced baseline for half the window, then the
/// span-recording engine loop for the other half; every per-layer metric.
pub fn run_traced(shape: Shape, plan: Plan) -> Result<Report, String> {
    let mut r = Report::default();
    prepare(&mut r)?;
    let children = Children::spawn(shape, plan.seed)?;
    let half = Nanos(plan.window.0 / 2);
    let (mut driver, ids) = Driver::build(shape, &children.groups)?;
    let base = untraced_window(&mut driver, &children, ids, half)?;
    drop(driver);
    check_none_stopped(&children.all_pids())?;
    let t = traced_window(shape, &children, half)?;
    check_schedstat_vs_stat(&children.all_pids())?;
    check_none_stopped(&children.all_pids())?;
    finish(children)?;

    let spans = t.sub.rec.spans();
    let selfs = self_times(spans);
    let quanta = t.quanta as f64;
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .sum()
    };
    let self_total = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &st)| st as f64)
            .sum()
    };
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    };
    let paper = CostModel::paper();
    let read_p50 = median(&t.sub.ns_per_read) / 1e3;
    let signal_p50 = median(&t.sub.ns_per_signal) / 1e3;
    let wake_cpu = total("wake") / quanta / 1e3;
    let measure = total("read") / quanta / 1e3;
    let decide = (self_total("begin") + self_total("complete")) / quanta / 1e3;
    let actuate = total("apply") / quanta / 1e3;
    let refresh = total("refresh") / quanta / 1e3;
    let lp = self_total("quantum") / quanta / 1e3;
    let refreshes = durs("refresh");
    r.set("wake.late_us_p50", quantile(&t.late_ns, 0.5) / 1e3);
    r.set("wake.late_us_p99", quantile(&t.late_ns, 0.99) / 1e3);
    r.set("wake.overruns", t.coalesced as f64);
    r.set("wake.cpu_us_per_quantum", wake_cpu);
    r.set("measure.reads_per_quantum", t.sub.reads as f64 / quanta);
    r.set("measure.us_per_read_p50", read_p50);
    r.set("measure.us_per_quantum", measure);
    r.set("measure.failed", t.sub.read_failed as f64);
    r.set("decide.us_per_quantum", decide);
    r.set(
        "decide.transitions_per_quantum",
        t.transitions as f64 / quanta,
    );
    r.set("actuate.signals_per_quantum", t.sub.signals as f64 / quanta);
    r.set("actuate.us_per_signal_p50", signal_p50);
    r.set("actuate.us_per_quantum", actuate);
    r.set("actuate.failed", t.sub.signal_failed as f64);
    r.set(
        "refresh.us_p50",
        if refreshes.is_empty() {
            0.0
        } else {
            median(&refreshes) / 1e3
        },
    );
    r.set("refresh.count", refreshes.len() as f64);
    r.set("loop.us_per_quantum", lp);
    r.set("kernsim.events", 0.0);
    r.set("kernsim.ns_per_event", 0.0);
    r.set("kernsim.context_switches", 0.0);
    r.set("engine.quanta", t.stats.quanta as f64);
    r.set("engine.measurements", t.stats.measurements as f64);
    r.set("engine.signals", t.stats.signals as f64);
    r.set(
        "model.measure_ratio",
        read_p50 / paper.measure_per_proc.as_f64() * 1e3,
    );
    r.set(
        "model.signal_ratio",
        signal_p50 / paper.signal.as_f64() * 1e3,
    );
    r.set(
        "model.timer_ratio",
        median(&durs("wake")) / paper.timer_event.as_f64(),
    );
    let traced_cpu = mean(&t.quantum_cpu) / 1e3;
    let base_cpu: Vec<f64> = base.calls.iter().map(|c| c.cpu).collect();
    let untraced_cpu = mean(&base_cpu) / 1e3;
    r.set("trace.quantum_cpu_us", traced_cpu);
    r.set(
        "trace.accounted_us_per_quantum",
        wake_cpu + measure + decide + actuate + refresh + lp,
    );
    r.set("trace.overhead_us_per_quantum", traced_cpu - untraced_cpu);
    r.note_num("trace.untraced_cpu_us", untraced_cpu);
    r.note_num("trace.spans", spans.len() as f64);
    r.note_num("trace.quanta", quanta);
    r.attempted = base.serviced + t.quanta;
    r.failed = t.sub.read_failed + t.sub.signal_failed;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_permutes_shares() {
        let a = permuted(&[1, 3, 5, 7, 9], 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 3, 5, 7, 9]);
        assert_eq!(a, permuted(&[1, 3, 5, 7, 9], 1));
        assert!((2..20).any(|s| permuted(&[1, 3, 5, 7, 9], s) != a));
    }

    fn call(at: Nanos, cpu: f64) -> Call {
        Call {
            at,
            cpu,
            response: cpu,
            late: 0.0,
        }
    }

    #[test]
    fn supervisor_cost_is_scaled_per_block_by_the_probe() {
        let s = Nanos::SECOND;
        let ms = Nanos::from_millis;
        // Block 0: supervisor 50, probe 25 (ratio 2); block 1: both three
        // times slower (ratio 2 again); the partial block 2 is left out.
        let calls = [
            call(ms(100), 40e3),
            call(ms(900), 60e3),
            call(s + ms(5), 150e3),
            call(s * 2, 1e9),
        ];
        let probe = [(ms(500), Nanos(25_000)), (s + ms(500), Nanos(75_000))];
        let v = at_nominal_speed(Nanos::ZERO, s * 2, &calls, &probe);
        assert!((v - 2.0 * PROBE_NOMINAL_NS).abs() < 1e-6, "{v}");
        assert!(at_nominal_speed(Nanos::ZERO, s, &calls, &[]).is_nan());
    }

    #[test]
    fn response_p95_is_the_median_block() {
        let s = Nanos::SECOND;
        let calls = [call(Nanos(1), 59e3), call(s, 150e3)];
        // Per-block p95s are 59e3 and 150e3; their median is the mean.
        let p95 = response_p95(Nanos::ZERO, s * 2, &calls);
        assert!((p95 - (59e3 + 150e3) / 2.0).abs() < 1e-6, "{p95}");
    }

    #[test]
    fn samples_group_by_whole_block() {
        let s = Nanos::SECOND;
        let b = by_block(
            s,
            s * 2,
            [(s, 1.0), (s * 2, 2.0), (s * 3, 3.0), (Nanos::ZERO, 4.0)],
        );
        // Samples before `start` count in the first block.
        assert_eq!(b, vec![vec![1.0, 4.0], vec![2.0]]);
        assert_eq!(by_block(s, Nanos(1), [(s, 1.0)]), vec![vec![1.0]]);
    }

    #[test]
    fn cadence_counts_skipped_boundaries() {
        let q = QUANTUM;
        let mut c = Cadence::new(Nanos::ZERO);
        assert_eq!(c.serviced_at(q + Nanos(5)), q);
        // 2.5 quanta late: the next two boundaries are skipped.
        assert_eq!(c.serviced_at(q * 4 + Nanos(5)), q * 2);
        assert_eq!(c.missed, 2);
        assert_eq!(c.serviced_at(q * 5 + Nanos(1)), q * 5);
        assert_eq!(c.serviced, 3);
        // 6q seen just past 7q, though the supervisor woke before 7q: the
        // mirror skips 7q, then steps back when 7q is served.
        assert_eq!(c.serviced_at(q * 7 + Nanos(1)), q * 6);
        assert_eq!(c.missed, 3);
        assert_eq!(c.serviced_at(q * 7 + Nanos(5)), q * 7);
        assert_eq!(c.missed, 2);
    }
}
