//! Shared harness utilities for the paper-reproduction binaries: the `fig`
//! runner (every figure and table of §5), `fig_recovery` and `history_fuzz`.
//!
//! The `SILO_BENCH_*` environment variables are documented once, in the
//! `fig` runner's module doc (`src/bin/fig.rs`). Absolute performance is
//! gated by `benchmark/` + `BENCHMARK.json`, not here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use silo_core::{Database, SiloConfig};
use silo_wl::driver::{RunOptions, RunResult};

/// A global allocator wrapper that tracks live and peak allocated bytes
/// (used by the §5.6 space-overhead experiment) plus a per-thread allocation
/// *count* (used by the zero-allocation hot-path test: counting only the
/// current thread isolates the measured worker from background threads).
pub struct CountingAllocator;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized so reading it from inside the allocator never
    // recursively allocates.
    static THREAD_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

// SAFETY: delegates to the system allocator; the bookkeeping is lock-free.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let now =
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK.fetch_max(now, Ordering::Relaxed);
        // `with` may fail during thread teardown; allocation counting is
        // best-effort there.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded to the system allocator with the same layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        ALLOCATED.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded to the system allocator with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

impl CountingAllocator {
    /// Currently allocated bytes.
    pub fn allocated() -> u64 {
        ALLOCATED.load(Ordering::Relaxed)
    }

    /// Peak allocated bytes since process start.
    pub fn peak() -> u64 {
        PEAK.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current allocation level.
    pub fn reset_peak() {
        PEAK.store(ALLOCATED.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of heap allocations made by the *calling* thread since it
    /// started (only counted while this is the `#[global_allocator]`).
    pub fn thread_allocs() -> u64 {
        THREAD_ALLOCS.with(|c| c.get())
    }
}

/// Reads an environment variable as `u64`, with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an environment variable as `f64`, with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The per-point measurement duration.
pub fn bench_seconds() -> Duration {
    Duration::from_secs(env_u64("SILO_BENCH_SECONDS", 2))
}

/// Parses a comma-separated list of worker counts (`"1,2,4"`). An empty
/// list, a zero, or an entry that is not a number is an error: a typo must
/// not silently shrink a sweep.
pub fn parse_threads(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .map(|part| match part.trim().parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "SILO_BENCH_THREADS: {part:?} is not a positive worker count"
            )),
        })
        .collect()
}

/// The thread counts to sweep (`SILO_BENCH_THREADS`, default `1,2,4`); an
/// invalid list is a usage error (exit status 2).
pub fn bench_threads() -> Vec<usize> {
    let spec = std::env::var("SILO_BENCH_THREADS").unwrap_or_else(|_| "1,2,4".to_string());
    parse_threads(&spec).unwrap_or_else(|e| {
        eprintln!("usage error: {e}");
        std::process::exit(2)
    })
}

/// The TPC-C scale factor relative to the spec sizes.
pub fn bench_scale() -> f64 {
    env_f64("SILO_BENCH_SCALE", 0.05)
}

/// A MemSilo database configuration (logging disabled, paper defaults
/// otherwise), with a faster epoch tick so short bench runs cross enough
/// epoch and snapshot boundaries to be representative.
pub fn memsilo_config() -> SiloConfig {
    SiloConfig::default().with_epoch(silo_core::EpochConfig {
        epoch_interval: Duration::from_millis(10),
        snapshot_interval_epochs: 25,
    })
}

/// Opens a MemSilo database.
pub fn open_memsilo() -> Arc<Database> {
    Database::open(memsilo_config())
}

/// Engine allocations per committed transaction, or `None` when the engine
/// counted no commits: the Key-Value, Partitioned-Store and raw-tree loads run
/// outside its transactions and fill no `WorkerStats`, so a `0` there would
/// read as a measurement.
pub fn allocs_per_txn(result: &RunResult) -> Option<f64> {
    (result.stats.commits > 0).then(|| result.stats.allocs_per_txn())
}

/// Aborted attempts per committed transaction, from the driver's counts:
/// the Partitioned-Store load fills no `WorkerStats`, and on the engine's
/// loads the two agree.
pub fn aborts_per_txn(result: &RunResult) -> f64 {
    if result.committed == 0 {
        return 0.0;
    }
    result.aborted as f64 / result.committed as f64
}

/// Prints a standard result row, including the engine's allocator discipline
/// (global-allocator hits per committed transaction — 0 once pools and
/// arenas are warm) and the abort ratio.
pub fn print_row(series: &str, x: impl std::fmt::Display, result: &RunResult) {
    println!(
        "{series:<24} {x:>8} {:>14.0} txn/s {:>12.0} txn/s/core {:>10.0} aborts/s {:>9.4} allocs/txn {:>9.5} aborts/txn",
        result.throughput(),
        result.per_core_throughput(),
        result.abort_rate(),
        result.stats.allocs_per_txn(),
        aborts_per_txn(result),
    );
}

/// Prints the logging-subsystem counters for a persistent run, indented under
/// its result row.
pub fn print_logger_stats(result: &RunResult) {
    if let Some(stats) = &result.logger_stats {
        println!("  └─ logger: {stats}");
    }
}

/// Prints the checkpointer counters for a run that had one, indented under
/// its result row.
pub fn print_checkpoint_stats(result: &RunResult) {
    if let Some(c) = &result.checkpoint_stats {
        println!(
            "  └─ checkpoints: {} completed ({} skipped, {} failed), last epoch {}, {} records / {} B in {:.1} ms ({:.1} MB/s), {} B total",
            c.completed,
            c.skipped,
            c.failed,
            c.last_epoch,
            c.last_records,
            c.last_bytes,
            c.last_micros as f64 / 1e3,
            c.last_write_rate() / 1e6,
            c.total_bytes,
        );
    }
}

/// Rows accumulated by [`emit_bench_json`] since the last
/// [`write_bench_json`].
static BENCH_JSON_ROWS: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Emits one machine-readable result row: printed to stdout as a
/// `BENCH_JSON {...}` line and retained for [`write_bench_json`]. A row
/// carries what a reader of the uploaded artifact compares across runs:
/// throughput, aborts, allocator discipline and, for a persistent run, the
/// durable-latency summary. A row whose load the engine counts no commits
/// for has no `allocs_per_txn` (see [`allocs_per_txn`]).
pub fn emit_bench_json(bench: &str, series: &str, threads: usize, result: &RunResult) {
    let mut row = format!(
        "{{\"bench\":\"{}\",\"series\":\"{}\",\"threads\":{},\"seconds\":{:.3},\"committed\":{},\"aborted\":{},\"throughput_txns_per_s\":{:.1}",
        json_escape(bench),
        json_escape(series),
        threads,
        result.duration.as_secs_f64(),
        result.committed,
        result.aborted,
        result.throughput(),
    );
    if let Some(allocs) = allocs_per_txn(result) {
        row.push_str(&format!(",\"allocs_per_txn\":{allocs:.4}"));
    }
    row.push_str(&format!(
        ",\"aborts_per_txn\":{:.5}",
        aborts_per_txn(result)
    ));
    if result.latency.samples > 0 {
        row.push_str(&format!(
            ",\"latency_samples\":{},\"latency_mean_us\":{:.1},\"latency_p50_us\":{},\"latency_p99_us\":{}",
            result.latency.samples,
            result.latency.mean_us,
            result.latency.p50_us,
            result.latency.p99_us,
        ));
    }
    row.push('}');
    println!("BENCH_JSON {row}");
    BENCH_JSON_ROWS
        .lock()
        .expect("no panic while holding the row list")
        .push(row);
}

/// Writes the rows emitted since the previous call to `BENCH_<bench>.json`
/// (a JSON array) under `SILO_BENCH_JSON_DIR`, and forgets them. Does not
/// write when the variable is unset, so ad-hoc runs don't litter the
/// working directory.
pub fn write_bench_json(bench: &str) {
    let rows = std::mem::take(
        &mut *BENCH_JSON_ROWS
            .lock()
            .expect("no panic while holding the row list"),
    );
    let Ok(dir) = std::env::var("SILO_BENCH_JSON_DIR") else {
        return;
    };
    let body = format!("[\n  {}\n]\n", rows.join(",\n  "));
    let path = std::path::Path::new(&dir).join(format!("BENCH_{bench}.json"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("warning: failed to write {}: {e}", path.display());
    }
}

/// Builds run options with the harness defaults.
pub fn run_options(threads: usize) -> RunOptions {
    RunOptions::default()
        .with_threads(threads)
        .with_duration(bench_seconds())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_u64("SILO_BENCH_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_f64("SILO_BENCH_DOES_NOT_EXIST", 0.5), 0.5);
    }

    #[test]
    fn thread_lists_are_parsed_strictly() {
        assert_eq!(parse_threads("1, 2,4"), Ok(vec![1, 2, 4]));
        for bad in ["", "1,,2", "1,x", "0", "2;4"] {
            assert!(parse_threads(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn aborts_per_txn_counts_loads_that_fill_no_worker_stats() {
        let result = RunResult {
            committed: 200,
            aborted: 711,
            duration: std::time::Duration::from_secs(1),
            stats: silo_core::WorkerStats::default(),
            latency: Default::default(),
            threads: 1,
            logger_stats: None,
            checkpoint_stats: None,
            index_stats: None,
        };
        assert_eq!(aborts_per_txn(&result), 3.555);
        emit_bench_json("aborts-test", "partitioned", 1, &result);
        let rows = BENCH_JSON_ROWS.lock().unwrap();
        let row = rows.iter().find(|row| row.contains("aborts-test")).unwrap();
        assert!(row.contains("\"aborts_per_txn\":3.55500"), "{row}");
    }

    #[test]
    fn memsilo_config_is_memsilo() {
        let c = memsilo_config();
        assert!(c.overwrite_in_place && c.enable_snapshots && c.enable_gc && !c.global_tid);
    }
}
