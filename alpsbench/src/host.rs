//! Host probes: thread CPU clock, `/proc/<pid>/schedstat`, CPU pinning
//! and the fingerprint printed with every result.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use alps_core::{AlpsConfig, Nanos};
use alps_os::{clock, ActuatorMode, OsError, Supervisor};

use crate::report::Report;

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`; the in-tree libc stub
/// carries `clock_gettime` but not this constant.
const CLOCK_THREAD_CPUTIME_ID: libc::clockid_t = 3;

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Nanos {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer for clock_gettime.
    let rc = unsafe { libc::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    Nanos(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Nanoseconds `pid` has run on a CPU: the first field of
/// `/proc/<pid>/schedstat`. Unlike `/proc/<pid>/stat`, which counts in
/// clock ticks (10 ms at CLK_TCK = 100, as coarse as the quantum), this
/// is the scheduler's own runtime sum.
pub fn schedstat_ns(pid: i32) -> Result<u64, String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/schedstat"))
        .map_err(|e| format!("read /proc/{pid}/schedstat: {e}"))?;
    text.split_ascii_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/schedstat unparsable: {text:?}"))
}

fn thread_id() -> Result<i32, String> {
    // "/proc/thread-self" links to "<pid>/task/<tid>".
    let link = std::fs::read_link("/proc/thread-self").map_err(|e| format!("thread-self: {e}"))?;
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("unexpected /proc/thread-self target {link:?}"))
}

/// The CPU the `os-*` workloads run on: the highest-numbered CPU this
/// thread may use, so repeated runs land on the same one.
pub fn chosen_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/thread-self/status")
        .map_err(|e| format!("thread status: {e}"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list")?
        .trim();
    let mut best = None;
    for part in list.split(',') {
        let last = part.rsplit('-').next().unwrap_or(part);
        let cpu: usize = last
            .parse()
            .map_err(|_| format!("bad Cpus_allowed_list {list:?}"))?;
        best = best.max(Some(cpu));
    }
    best.ok_or_else(|| format!("empty Cpus_allowed_list {list:?}"))
}

/// Pin the calling thread to `cpu` with the installed `taskset`; children
/// spawned afterwards inherit the affinity, so the supervisor and its
/// processes share one CPU as ALPS and its processes shared the paper's
/// uniprocessor.
pub fn pin_current_thread(cpu: usize) -> Result<(), String> {
    let tid = thread_id()?;
    let out = Command::new("taskset")
        .args(["-pc", &cpu.to_string(), &tid.to_string()])
        .output()
        .map_err(|e| format!("taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset -pc {cpu} {tid}: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

/// Whether schedstat's runtime advances in nanoseconds: burn about 20 ms
/// of this thread's CPU and compare schedstat's delta with the thread
/// CPU clock's.
fn schedstat_in_ns() -> Result<bool, String> {
    let path = format!("/proc/self/task/{}/schedstat", thread_id()?);
    let read = || -> Result<u64, String> {
        let t = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        t.split_ascii_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("{path} unparsable"))
    };
    let (s0, c0) = (read()?, thread_cpu());
    let mut x = 0u64;
    while thread_cpu() - c0 < Nanos::from_millis(20) {
        x = std::hint::black_box(x.wrapping_add(1));
    }
    let (s1, c1) = (read()?, thread_cpu());
    let ratio = (s1 - s0) as f64 / (c1 - c0).as_f64();
    Ok((0.5..2.0).contains(&ratio))
}

/// Record nproc, kernel release, CLK_TCK, the pinned CPU and schedstat
/// units as details of `r`. Returns whether schedstat counts nanoseconds.
pub fn fingerprint(r: &mut Report, pinned: Option<usize>) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    r.note_num("host.nproc", nproc as f64);
    let release = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_err(|e| format!("osrelease: {e}"))?;
    r.note("host.kernel", release.trim());
    // SAFETY: sysconf has no memory preconditions.
    let hz = unsafe { libc::sysconf(libc::_SC_CLK_TCK) };
    r.note_num("host.clk_tck", hz as f64);
    match pinned {
        Some(cpu) => r.note_num("host.pinned_cpu", cpu as f64),
        None => r.note("host.pinned_cpu", "none"),
    }
    let ns = schedstat_in_ns()?;
    r.note("host.schedstat_ns", ns);
    Ok(ns)
}

/// Record whether the cgroup actuators (`weights`, `caps`) are available:
/// `skipped: <reason>` when `Supervisor::with_actuator` refuses them.
/// Only the real-Linux workloads ask, since a successful probe briefly
/// creates a cgroup.
pub fn actuators(r: &mut Report) {
    for (key, mode) in [
        ("host.actuator.weights", ActuatorMode::Weights),
        ("host.actuator.caps", ActuatorMode::Caps),
    ] {
        let state = match Supervisor::with_actuator(AlpsConfig::default(), mode) {
            Ok(_) => "available, not benchmarked".to_string(),
            Err(OsError::Unsupported(why)) => format!("skipped: {why}"),
            Err(e) => format!("skipped: {e}"),
        };
        r.note(key, state);
    }
}

/// A reference wake-up loop on the calling thread's CPU: a thread that
/// sleeps until a deadline on the supervisor's cadence, half a period out
/// of phase with it, then reads `/proc/<pid>/schedstat` of one group's
/// children and sends each signal 0 — a quantum's wake, read and signal in
/// miniature, written in this crate so no change to the library moves it.
/// The CPU cost of one such wake-up tracks the host's speed regime, which
/// on a shared VM moves the supervisor's cost per quantum by a factor of
/// three over tens of seconds (see README.md).
pub struct WakeProbe {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<ProbeResult>>,
}

/// Each wake-up's time and the CPU time of its sleep plus its work.
type ProbeResult = Result<Vec<(Nanos, Nanos)>, String>;

impl WakeProbe {
    /// Start waking every `period` at `start + period / 2 + k * period`.
    /// The thread inherits the caller's CPU affinity.
    pub fn start(pids: Vec<i32>, start: Nanos, period: Nanos) -> WakeProbe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            let mut deadline = start + Nanos(period.0 / 2);
            while !flag.load(Ordering::Relaxed) {
                let c0 = thread_cpu();
                let now = clock::now();
                if deadline > now {
                    std::thread::sleep(Duration::from_nanos((deadline - now).0));
                }
                for &pid in &pids {
                    schedstat_ns(pid)?;
                }
                for &pid in &pids {
                    // SAFETY: kill with signal 0 only checks that `pid` exists.
                    unsafe { libc::kill(pid, 0) };
                }
                samples.push((clock::now(), thread_cpu() - c0));
                deadline += period;
            }
            Ok(samples)
        });
        WakeProbe {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop the thread and wait for it; returns its samples.
    pub fn stop(mut self) -> ProbeResult {
        self.halt().map_err(|_| "wake probe panicked")?
    }

    fn halt(&mut self) -> std::thread::Result<ProbeResult> {
        self.stop.store(true, Ordering::Relaxed);
        match self.thread.take() {
            Some(t) => t.join(),
            None => Ok(Ok(Vec::new())),
        }
    }
}

impl Drop for WakeProbe {
    /// A probe left running when a run fails is stopped and joined; its
    /// samples are not needed then.
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// Thread CPU time the speed reference takes, fastest of
/// `REFERENCE_REPS`, on the kind of host this benchmark was built on (see
/// README.md).
const REFERENCE_NOMINAL_NS: f64 = 10e6;

/// Repetitions of the speed reference; the fastest counts.
const REFERENCE_REPS: usize = 3;

/// Factor converting host time measured now into host time on a host
/// where the speed reference takes `REFERENCE_NOMINAL_NS`: runs the
/// reference `REFERENCE_REPS` times on this thread's CPU clock and returns
/// nominal ÷ the fastest. On shared hosts the speed of branchy,
/// cache-resident code like the simulator drifts by tens of percent over
/// minutes while a pure arithmetic loop does not move; the reference is
/// code of the first kind that no change to this repository touches.
pub fn speed_scale() -> f64 {
    let fastest = (0..REFERENCE_REPS)
        .map(|_| {
            let t0 = thread_cpu();
            let mut map = BTreeMap::new();
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for i in 0..4096u64 {
                map.insert(next(), i);
            }
            for i in 0..200_000u64 {
                map.insert(next(), i);
                map.pop_first();
            }
            std::hint::black_box(map.len());
            (thread_cpu() - t0).as_f64()
        })
        .fold(f64::INFINITY, f64::min);
    REFERENCE_NOMINAL_NS / fastest
}
