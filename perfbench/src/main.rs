//! `perfbench`: the end-to-end and per-layer benchmark of the roundelim
//! workspace.
//!
//! ```text
//! perfbench --workload <lb-search|serve-mixed|sim-large> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, checks the
//! program's outputs against computations made apart from the code under
//! test, prints every metric by name with its unit, and ends with one JSON
//! line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the workload's end-to-end metrics
//! (tracing off); with `--trace 1` they are its per-layer metrics, taken
//! from a separate traced run. See `README.md` for the metric table.

mod layers;
mod lb;
mod rename;
mod report;
mod serve;
mod sim;
mod stats;

use report::Report;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["lb-search", "serve-mixed", "sim-large"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Set in the child processes lb-search starts for its cold set-up
    /// passes (`--setup-child REP`); not a flag to pass by hand.
    pub setup_child: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_child = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--setup-child" => {
                setup_child = Some(value.parse().map_err(|_| format!("bad --setup-child {value}"))?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; known: {}", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if setup_child.is_some() && workload != "lb-search" {
        return Err("--setup-child belongs to lb-search".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        setup_child,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Some(rep) = args.setup_child {
        if let Err(e) = lb::setup_child(&args, rep) {
            eprintln!("perfbench: set-up pass {rep} failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# machine: {}", report::machine_descriptor());
    let mut report = Report::new(&args.workload, args.trace);
    let outcome = match args.workload.as_str() {
        "lb-search" => lb::run(&args, &mut report),
        "serve-mixed" => serve::run(&args, &mut report),
        "sim-large" => sim::run(&args, &mut report),
        _ => unreachable!("workload validated in parse_args"),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    let correct = report.correct();
    report.print();
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("--workload sim-large --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("sim-large", 7, 3, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload lb-search --trace 2")).is_err());
        assert!(parse_args(&argv("--workload lb-search --seconds 0")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload sim-large --setup-child 1")).is_err());
        let c = parse_args(&argv("--workload lb-search --setup-child 2")).unwrap();
        assert_eq!(c.setup_child, Some(2));
    }
}
