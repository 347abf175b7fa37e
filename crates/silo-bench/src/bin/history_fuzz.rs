//! CI runner for the serializability scenario fuzzer (`silo_wl::fuzz`).
//!
//! Sweeps a block of seeds across several thread counts; every run records
//! its full transaction history and feeds it through the `silo-check`
//! serializability checker. A failing run prints the violation, the exact
//! replay command, and (if `SILO_FUZZ_HISTORY_DIR` is set) dumps the
//! recorded history to a file for artifact upload; the process then exits
//! non-zero after finishing the sweep.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `SILO_FUZZ_SEEDS` | number of seeds to sweep, from seed 1 | 16 |
//! | `SILO_FUZZ_SEED` | replay exactly this one seed | unset |
//! | `SILO_FUZZ_THREADS` | comma-separated thread counts | `1,2,4` |
//! | `SILO_FUZZ_TXNS` | transactions per session | 300 |
//! | `SILO_FUZZ_HISTORY_DIR` | where to dump failing histories | unset |
//!
//! Every other knob of the scenario (key space, hot set and bias, operations
//! per transaction, injected aborts) is `FuzzConfig::default()`'s.

use std::path::PathBuf;
use std::process::ExitCode;

use silo_bench::env_u64;
use silo_wl::fuzz::{run_fuzz, FuzzConfig, FuzzFailure};

fn thread_counts() -> Vec<usize> {
    let spec = std::env::var("SILO_FUZZ_THREADS").unwrap_or_else(|_| "1,2,4".to_string());
    let counts: Vec<usize> = spec
        .split(',')
        .filter_map(|part| part.trim().parse().ok())
        .filter(|&n| n >= 1)
        .collect();
    if counts.is_empty() {
        vec![1, 2, 4]
    } else {
        counts
    }
}

fn seeds() -> Vec<u64> {
    if let Ok(seed) = std::env::var("SILO_FUZZ_SEED") {
        let seed = seed.parse().expect("SILO_FUZZ_SEED must be an integer");
        return vec![seed];
    }
    (1..=env_u64("SILO_FUZZ_SEEDS", 16)).collect()
}

fn config_for(seed: u64, threads: usize) -> FuzzConfig {
    FuzzConfig {
        seed,
        threads,
        txns_per_session: env_u64("SILO_FUZZ_TXNS", 300) as usize,
        ..FuzzConfig::default()
    }
}

fn dump_failure(failure: &FuzzFailure) {
    let Ok(dir) = std::env::var("SILO_FUZZ_HISTORY_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("history dump: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!(
        "history_seed{}_t{}.txt",
        failure.seed, failure.threads
    ));
    let mut text = failure.to_string();
    text.push('\n');
    text.push_str(&failure.dump());
    match std::fs::write(&path, text) {
        Ok(()) => println!("history dumped to {}", path.display()),
        Err(e) => eprintln!("history dump: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let seeds = seeds();
    let threads = thread_counts();
    let mut runs = 0usize;
    let mut failures: Vec<(u64, usize)> = Vec::new();

    for &seed in &seeds {
        for &thread_count in &threads {
            let cfg = config_for(seed, thread_count);
            runs += 1;
            match run_fuzz(&cfg) {
                Ok(outcome) => {
                    println!(
                        "FUZZ seed={} threads={} result=ok committed={} aborted={} \
                         edges={} external={}{}",
                        seed,
                        thread_count,
                        outcome.committed,
                        outcome.aborted,
                        outcome.report.edges,
                        outcome.report.external_versions,
                        if outcome.degraded_seen {
                            " degraded_seen=true"
                        } else {
                            ""
                        },
                    );
                }
                Err(failure) => {
                    println!("FUZZ seed={seed} threads={thread_count} result=FAIL");
                    eprintln!("{failure}");
                    dump_failure(&failure);
                    failures.push((seed, thread_count));
                }
            }
        }
    }

    if failures.is_empty() {
        println!(
            "history-check: all {} runs serializable ({} seeds x {:?} threads)",
            runs,
            seeds.len(),
            threads
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("history-check: {} of {runs} runs FAILED:", failures.len());
        for (seed, thread_count) in &failures {
            eprintln!(
                "  replay: SILO_FUZZ_SEED={seed} SILO_FUZZ_THREADS={thread_count} \
                 cargo run --release -p silo-bench --bin history_fuzz"
            );
        }
        ExitCode::FAILURE
    }
}
