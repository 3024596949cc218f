//! `reis-perf` — the fixed two-clock benchmark of the REIS reproduction.
//!
//! ```text
//! reis-perf run (--all | --workload NAME) [--seed N] [--seconds S]
//!               [--trace [0|1]] [--out DIR] [--smoke]
//! reis-perf compare A_DIR B_DIR
//! reis-perf catalogue
//! ```
//!
//! `run` prints one `workload metric value unit` line per metric, writes one
//! JSON document per workload under `--out` (default `benchmark/results`),
//! and ends each workload with a one-line JSON result. `--trace 0` (the
//! default) is the untraced run that yields the end-to-end metrics,
//! `--trace 1` the traced run that yields the per-layer metrics, a bare
//! `--trace` both. See `benchmark/README.md`.

mod calib;
mod catalogue;
mod checks;
mod compare;
mod harness;
mod json;
mod probes;
mod report;
mod stats;
#[cfg(test)]
mod suite_test;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::JsonExt as _;
use workloads::{RunCfg, Scale};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 47;

/// Pool threads the systems under test get: the client thread helps while
/// it waits, so `nproc - 1` workers keep at most `nproc` threads runnable.
fn sched_workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

fn usage() -> String {
    "usage:\n  reis-perf run (--all | --workload NAME) [--seed N] [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]\n  reis-perf compare A_DIR B_DIR\n  reis-perf catalogue".to_string()
}

/// Parsed `run` options.
#[derive(Debug, PartialEq)]
struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    /// Which runs to make: untraced, traced.
    kinds: Vec<bool>,
    out: PathBuf,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(catalogue::RUN_SECONDS),
        kinds: vec![false],
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
        smoke: false,
    };
    let mut seconds_given = false;
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--all" => parsed.workloads = catalogue::WORKLOADS.iter().map(|w| w.name).collect(),
            "--workload" => {
                let name = value("--workload")?;
                let known = catalogue::WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                parsed.workloads.push(known.name);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| "--seconds takes a number in (0, 600]".to_string())?;
                seconds_given = true;
            }
            "--trace" => {
                parsed.kinds = match args.peek().map(|s| s.as_str()) {
                    Some("0") => vec![false],
                    Some("1") => vec![true],
                    _ => vec![false, true],
                };
                if parsed.kinds.len() == 1 {
                    args.next();
                }
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("give --all or --workload NAME".into());
    }
    if parsed.smoke && !seconds_given {
        parsed.seconds = 0.4;
    }
    Ok(parsed)
}

/// Run one workload once, in this process.
fn run_one(workload: &str, trace: bool, args: &RunArgs) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The systems read these when they are constructed. One client thread
    // plus `nproc - 1` pool workers; nothing else may steer the run.
    std::env::set_var("REIS_SCHED_WORKERS", sched_workers(nproc).to_string());
    std::env::remove_var("REIS_TEST_PARALLELISM");
    std::env::remove_var("REIS_TELEMETRY");

    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace,
        scale: if args.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        },
        nproc,
        work_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("work"),
    };
    let report = workloads::run(workload, &cfg)?;
    let mismatches = report::catalogue_mismatches(&report, trace);
    if !mismatches.is_empty() {
        return Err(format!("{workload}: {}", mismatches.join("; ")));
    }
    report::write_files(&args.out, workload, &report, &cfg)?;
    if args.smoke {
        println!("# {workload}: smoke run, numbers are not comparable");
    }
    for line in report::metric_lines(workload, &report, trace) {
        println!("{line}");
    }
    println!(
        "# {workload}: seed {} nproc {nproc} pool {} samples {} attempted {} failed {} fail_ratio {}",
        cfg.seed,
        sched_workers(nproc),
        report.samples,
        report.tally.attempted,
        report.tally.failed,
        json::format_number(report.tally.fail_ratio()),
    );
    for message in &report.tally.messages {
        println!("# {workload}: {message}");
    }
    println!("{}", report::result_line(&report, trace));
    Ok(report.tally.correct())
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    if let ([workload], [trace]) = (args.workloads.as_slice(), args.kinds.as_slice()) {
        return run_one(workload, *trace, &args);
    }
    // Several runs: each in a process of its own, so that one run's heap,
    // peak RSS and pool threads are never another run's starting state and
    // `--all` measures exactly what a single `--workload` run measures.
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut all_correct = true;
    for workload in &args.workloads {
        for &trace in &args.kinds {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["run", "--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out);
            if args.smoke {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start the run of {workload}: {e}"))?;
            match status.code() {
                Some(0) => {}
                Some(2) => all_correct = false,
                _ => return Err(format!("the run of {workload} ended with {status}")),
            }
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err(usage()),
        },
        Some("catalogue") => {
            print!("{}", catalogue::benchmark_json().to_pretty());
            Ok(true)
        }
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("reis-perf: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let parsed = parse_run(&args(
            "--workload ivf_single --seed 1013 --seconds 6 --trace 1",
        ))
        .unwrap();
        assert_eq!(parsed.workloads, ["ivf_single"]);
        assert_eq!((parsed.seed, parsed.seconds), (1013, 6.0));
        assert_eq!(parsed.kinds, [true]);
        let parsed = parse_run(&args("--workload bf_single --trace 0")).unwrap();
        assert_eq!(parsed.kinds, [false]);
        assert_eq!(parsed.seed, DEFAULT_SEED);
    }

    #[test]
    fn all_smoke_and_bare_trace_parse() {
        let parsed = parse_run(&args("--all --trace --smoke --out somewhere")).unwrap();
        assert_eq!(parsed.workloads.len(), 7);
        assert_eq!(parsed.kinds, [false, true]);
        assert!(parsed.smoke && parsed.seconds < 1.0);
        assert_eq!(parsed.out, PathBuf::from("somewhere"));
        let parsed = parse_run(&args("--trace --all")).unwrap();
        assert_eq!(parsed.kinds, [false, true]);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--all --seed x",
            "--all --seconds 0",
            "--all --seconds nan",
            "--all --frobnicate",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn one_client_thread_plus_the_pool_fills_the_host() {
        assert_eq!(sched_workers(1), 1);
        assert_eq!(sched_workers(2), 1);
        assert_eq!(sched_workers(8), 7);
    }
}
