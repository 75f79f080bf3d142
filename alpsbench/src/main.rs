//! `alpsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a detail line (host fingerprint, sample counts) and, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! the metrics. A failed correctness check exits 1 and names the check.

use alps_core::Nanos;

const USAGE: &str = "usage: alpsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("not a whole number"))?;
                if !(1..=3600).contains(&s) {
                    return Err(bad("out of range 1..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("alpsbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let window = Nanos::from_secs(args.seconds);
    match alpsbench::run(&args.workload, args.seed, window, args.trace, false) {
        Ok(report) => {
            println!("{}", report.detail_line());
            println!("{}", report.result_line(args.trace));
        }
        Err(e) => {
            eprintln!("alpsbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
