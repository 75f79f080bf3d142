//! End-to-end and per-layer benchmark of ALPS on real Linux and in the
//! `kernsim` simulator. See README.md in this directory.

pub mod host;
pub mod os;
pub mod report;
pub mod sim;
pub mod span;
pub mod stats;

use alps_core::Nanos;

pub use report::Report;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: &[&str] = &["os-linear5", "os-principals16", "sim-fig4", "sim-websrv"];

/// Run one workload for `window` (host time) and return what it measured.
/// `short` shrinks the simulated passes for tests; the real-Linux
/// workloads are sized by `window` alone.
pub fn run(
    workload: &str,
    seed: u64,
    window: Nanos,
    traced: bool,
    short: bool,
) -> Result<Report, String> {
    let os_plan = os::Plan { window, seed };
    let sim_plan = sim::Plan {
        window,
        seed,
        short,
    };
    let report = match (workload, traced) {
        ("os-linear5", false) => os::run(os::LINEAR5, os_plan),
        ("os-linear5", true) => os::run_traced(os::LINEAR5, os_plan),
        ("os-principals16", false) => os::run(os::PRINCIPALS16, os_plan),
        ("os-principals16", true) => os::run_traced(os::PRINCIPALS16, os_plan),
        ("sim-fig4", false) => sim::run(sim::Kind::Fig4, sim_plan),
        ("sim-fig4", true) => sim::run_traced(sim::Kind::Fig4, sim_plan),
        ("sim-websrv", false) => sim::run(sim::Kind::Websrv, sim_plan),
        ("sim-websrv", true) => sim::run_traced(sim::Kind::Websrv, sim_plan),
        _ => Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }?;
    report.validate(traced)?;
    Ok(report)
}
