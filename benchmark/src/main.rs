//! The repo benchmark: one run of one workload. `benchmark/run.sh` builds
//! and runs this binary; `benchmark/suite.py` runs it once per workload, each
//! time in a process of its own as the driver does, for the all-workloads
//! run, the A/A comparison and the spread check. See `benchmark/README.md`.
//!
//! `--workload W --seed N --seconds S --trace 0|1` prints every metric by
//! name with its unit, then a `RECORD` line with everything the run
//! recorded, and as the last line of stdout one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics when
//! untraced, the per-layer metrics when traced). `--quick` shrinks the data
//! sets to a smoke test. The exit status is non-zero if anything failed.

mod alloc;
mod harness;
mod layers;
mod net;
mod report;
mod spec;
mod stats;
mod stream;
mod tpcc;
mod trace;
mod ycsb;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Outcome, Params};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    print_spec: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Default::default()
    };
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value(&mut argv, "--workload")?),
            "--seed" => {
                args.seed = value(&mut argv, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut argv, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut argv, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--print-spec" => args.print_spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if spec::workload(w).is_none() {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {w}; choose one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// Runs one workload once. Every metric the mode calls for is present in
/// the result: a layer that did nothing reports 0.
fn run_workload(name: &'static str, p: &Params) -> Outcome {
    let result = match name {
        "ycsb_cached" | "ycsb_large" => ycsb::run(name, p),
        "tpcc_mem" | "tpcc_durable" => tpcc::run(name, p),
        "net_read" => net::run_read(p),
        "net_durable" => net::run_durable(p),
        _ => Err(format!("unknown workload {name}")),
    };
    let mut out = result.unwrap_or_else(|e| {
        let mut out = Outcome::default();
        out.fail(1, || e);
        out
    });
    let wanted = if p.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    for m in wanted {
        out.metrics.entry(m.name).or_insert(0.0);
    }
    out.attempted = out.attempted.max(1);
    out
}

fn main() -> ExitCode {
    // A load thread that panics would leave the others parked on a barrier;
    // end the whole run instead, without a result.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::exit(3);
    }));
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] | --print-spec"
            );
            return ExitCode::from(2);
        }
    };
    if args.print_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // Everything the benchmark writes goes under its own directory.
    let out_dir = PathBuf::from("benchmark").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let seconds = args.seconds.unwrap_or(if args.quick {
        0.4
    } else {
        spec::RUN_SECONDS as f64
    });
    let params = Params {
        seed: args.seed,
        seconds,
        trace: args.trace,
        quick: args.quick,
        out_dir,
    };

    let Some(workload) = args.workload.as_deref().and_then(spec::workload) else {
        eprintln!("error: --workload is required (suite.py runs all of them)");
        return ExitCode::from(2);
    };
    let start = std::time::Instant::now();
    let outcome = run_workload(workload.name, &params);
    report::print_outcome(workload.name, &params, &outcome);
    let wall_s = start.elapsed().as_secs_f64();
    println!(
        "RECORD {}",
        report::record_line(workload.name, &params, &outcome, wall_s)
    );
    println!("{}", report::driver_line(&outcome, params.trace));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "net_read",
            "--seed",
            "42",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("net_read"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(8.0), true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }
}
