//! Checkpointing + crash-recovery experiment (paper §4.9–§4.10).
//!
//! Three modes:
//!
//! * `fig_recovery` (no arguments) — self-contained benchmark: run persistent
//!   TPC-C with a periodic checkpointer, stop, then rebuild a fresh database
//!   from the checkpoint + log tail and report checkpoint write rate, log
//!   tail size vs. total log bytes written, and restart-to-ready time.
//! * `fig_recovery run <dir>` — run persistent TPC-C against `<dir>` until
//!   killed (or for `RUN_CAP`, 600 s), printing a `BENCH_JSON` status row with the
//!   current durable epoch a few times per second. The crash-recovery CI gate
//!   `SIGKILL`s this process mid-run.
//! * `fig_recovery recover <dir>` — recover a fresh database from `<dir>`,
//!   verify the TPC-C consistency conditions on the recovered state, check
//!   that no complete checkpoint failed verification, check the recovered
//!   durable epoch against `SILO_RECOVERY_MIN_EPOCH` (the last durable epoch
//!   the killed run reported), and check the replayed log tail stayed small
//!   relative to `SILO_RECOVERY_TOTAL_LOG_BYTES`.
//!
//! Extra knobs (on top of the usual `SILO_BENCH_*` harness variables):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `SILO_BENCH_CKPT_MS` | checkpoint interval (ms) | 1000 |
//! | `SILO_BENCH_CKPT_BYTES_PER_SEC` | checkpoint walk rate limit (0 = off) | 0 |
//! | `SILO_BENCH_SEGMENT_BYTES` | log segment rotation threshold | 4 MiB |
//! | `SILO_RECOVERY_THREADS` | threads that sort each table's log tail, then build tables from checkpoint runs merged with their tail (the log is decoded by one thread per stream) | 4 |
//! | `SILO_RECOVERY_MIN_EPOCH` | recovered horizon must reach this | 0 |
//! | `SILO_RECOVERY_TOTAL_LOG_BYTES` | total bytes the run logged | unset |
//! | `SILO_RECOVERY_MAX_TAIL_FRACTION` | max tail/total ratio | 0.5 |

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use silo_bench::*;
use silo_core::Database;
use silo_log::{
    recover_directory, CheckpointConfig, Checkpointer, LogConfig, RecoveryOptions, SiloLogger,
};
use silo_wl::driver::run_workload;
use silo_wl::tpcc::check::check_consistency;
use silo_wl::tpcc::{load, TpccConfig, TpccTables, TpccWorkload};

/// How long `run` lasts when nothing kills it first.
const RUN_CAP: Duration = Duration::from_secs(600);

fn checkpoint_interval() -> Duration {
    Duration::from_millis(env_u64("SILO_BENCH_CKPT_MS", 1000))
}

fn recovery_threads() -> usize {
    env_u64("SILO_RECOVERY_THREADS", 4).max(1) as usize
}

fn log_config(dir: &Path, threads: usize) -> LogConfig {
    LogConfig::to_directory(dir, 4.min(threads.max(1)))
        .with_segment_bytes(env_u64("SILO_BENCH_SEGMENT_BYTES", 4 << 20).max(1))
}

fn checkpoint_config(dir: &Path) -> CheckpointConfig {
    CheckpointConfig {
        interval: checkpoint_interval(),
        writers: recovery_threads().min(4),
        max_walk_bytes_per_sec: env_u64("SILO_BENCH_CKPT_BYTES_PER_SEC", 0),
        ..CheckpointConfig::new(dir)
    }
}

/// The run's shape, persisted next to the logs so `recover` rebuilds the
/// exact same schema (table-id assignment is creation-order-deterministic).
fn write_run_meta(dir: &Path, warehouses: u32, scale: f64) {
    let meta = format!("warehouses {warehouses}\nscale {scale}\n");
    std::fs::write(dir.join("RUN_META"), meta).expect("write RUN_META");
}

fn read_run_meta(dir: &Path) -> Option<(u32, f64)> {
    let text = std::fs::read_to_string(dir.join("RUN_META")).ok()?;
    let mut warehouses = None;
    let mut scale = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("warehouses ") {
            warehouses = v.parse().ok();
        } else if let Some(v) = line.strip_prefix("scale ") {
            scale = v.parse().ok();
        }
    }
    Some((warehouses?, scale?))
}

/// One machine-readable status row for the `run` mode; the crash-recovery CI
/// gate greps the *last* such row out of the killed process's output to learn
/// the final durable epoch and total log volume.
fn print_run_status(logger: &SiloLogger, ckpt: &Checkpointer) {
    let log = logger.stats();
    let c = ckpt.stats();
    println!(
        "BENCH_JSON {{\"bench\":\"fig_recovery\",\"series\":\"run\",\"durable_epoch\":{},\"log_bytes_written\":{},\"log_bytes_truncated\":{},\"log_segments_deleted\":{},\"ckpt_completed\":{},\"ckpt_last_epoch\":{},\"ckpt_total_bytes\":{}}}",
        logger.durable_epoch(),
        log.bytes_written,
        log.bytes_truncated,
        log.segments_deleted,
        c.completed,
        c.last_epoch,
        c.total_bytes,
    );
}

/// Opens the database, installs logging + periodic checkpointing against
/// `dir`, loads TPC-C, and takes a base checkpoint covering the population.
fn start_persistent(
    dir: &Path,
    threads: usize,
    scale: f64,
) -> (
    Arc<Database>,
    Arc<SiloLogger>,
    Arc<Checkpointer>,
    TpccConfig,
    TpccTables,
) {
    let db = open_memsilo();
    // The logger must be installed *before* the loader so the initial
    // population is itself recoverable (a crash before the first checkpoint
    // otherwise loses the base state).
    let logger = SiloLogger::install(log_config(dir, threads), &db).expect("install logger");
    let cfg = TpccConfig::scaled(threads as u32, scale);
    write_run_meta(dir, cfg.warehouses, scale);
    let tables = load(&db, &cfg);
    let checkpointer =
        Checkpointer::spawn(Arc::clone(&db), Arc::clone(&logger), checkpoint_config(dir));
    // Base checkpoint: the bulk load is large relative to the workload's
    // per-second write volume, so fold it into the checkpoint immediately
    // rather than leaving it as permanent log tail.
    logger.wait_for_durable(db.epochs().global_epoch(), Duration::from_secs(30));
    checkpointer.run_now().expect("base checkpoint");
    (db, logger, checkpointer, cfg, tables)
}

/// `run` mode: persistent TPC-C until killed (or a generous timeout).
fn mode_run(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create durability root");
    let threads = bench_threads().first().copied().unwrap_or(1);
    let (db, logger, checkpointer, cfg, tables) = start_persistent(dir, threads, bench_scale());
    println!(
        "# fig_recovery run — TPC-C persistent, {threads} threads, {} warehouses, root {}",
        cfg.warehouses,
        dir.display()
    );
    print_run_status(&logger, &checkpointer);

    // Status reporter: a few rows per second, each flushed (stdout is
    // line-buffered), so a SIGKILL still leaves the last durable epoch in the
    // captured output.
    {
        let logger = Arc::clone(&logger);
        let checkpointer = Arc::clone(&checkpointer);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(200));
            print_run_status(&logger, &checkpointer);
        });
    }

    let result = run_workload(
        &db,
        Arc::new(TpccWorkload::new(cfg, tables)),
        run_options(threads)
            // Run effectively forever; the CI gate kills the process long
            // before this, and a stand-alone invocation still terminates.
            .with_duration(RUN_CAP)
            .with_logger(Arc::clone(&logger))
            .with_checkpointer(Arc::clone(&checkpointer)),
    );
    // Only reached without a kill: report and shut down cleanly.
    print_row("TPC-C persistent", threads, &result);
    print_logger_stats(&result);
    print_checkpoint_stats(&result);
    print_run_status(&logger, &checkpointer);
    checkpointer.shutdown();
    logger.shutdown();
    db.stop_epoch_advancer();
}

/// Shared by `recover` mode and the default benchmark: rebuild from `dir`,
/// verify, report. Returns the restart-to-ready time in microseconds.
fn recover_and_verify(dir: &Path, min_epoch: u64, total_log_bytes: Option<u64>) -> u64 {
    let (warehouses, scale) = read_run_meta(dir).unwrap_or_else(|| {
        (
            bench_threads().first().copied().unwrap_or(1) as u32,
            bench_scale(),
        )
    });
    let cfg = TpccConfig::scaled(warehouses, scale);

    let started = Instant::now();
    let db = open_memsilo();
    // Recreate the schema (same creation order => same table ids), then
    // rebuild state from checkpoint + log tail.
    let tables = TpccTables::create(&db, &cfg);
    let report = recover_directory(
        &db,
        dir,
        &RecoveryOptions {
            replay_threads: recovery_threads(),
        },
    )
    .unwrap_or_else(|e| panic!("recovery failed: {e}"));
    let restart_us = started.elapsed().as_micros() as u64;

    // "Ready" means serving transactions, not just loaded: verify the TPC-C
    // consistency conditions and then commit real work against the recovered
    // state.
    let summary = check_consistency(&db, &cfg, &tables)
        .unwrap_or_else(|e| panic!("recovered state violates TPC-C consistency: {e}"));
    let post = run_workload(
        &db,
        Arc::new(TpccWorkload::new(cfg.clone(), tables)),
        run_options(1)
            .with_duration(Duration::from_millis(200))
            .with_latency_sample_every(0),
    );
    assert!(
        post.committed > 0,
        "recovered database must accept new transactions"
    );

    println!(
        "# recovered: ckpt epoch {} ({} records, {} B, tables built in {:.1} ms), horizon {}, replayed {} txns / {} writes ({} B tail over {} files, {} covered by ckpt) read and sorted in {:.1} ms; consistency: {} districts / {} orders OK; post-recovery commits: {}",
        report.checkpoint_epoch,
        report.checkpoint_records,
        report.checkpoint_bytes,
        report.checkpoint_micros as f64 / 1e3,
        report.durable_epoch,
        report.replayed_txns,
        report.replayed_writes,
        report.log_bytes_scanned,
        report.log_files,
        report.covered_txns,
        report.replay_micros as f64 / 1e3,
        summary.districts,
        summary.orders,
        post.committed,
    );
    println!(
        "BENCH_JSON {{\"bench\":\"fig_recovery\",\"series\":\"recover\",\"ckpt_epoch\":{},\"corrupt_log_tails\":{},\"ckpt_records\":{},\"ckpt_bytes\":{},\"ckpt_micros\":{},\"durable_epoch\":{},\"replayed_txns\":{},\"replayed_writes\":{},\"skipped_txns\":{},\"covered_txns\":{},\"log_tail_bytes\":{},\"log_files\":{},\"replay_micros\":{},\"restart_us\":{},\"districts_checked\":{},\"post_recovery_committed\":{}}}",
        report.checkpoint_epoch,
        report.corrupt_log_tails,
        report.checkpoint_records,
        report.checkpoint_bytes,
        report.checkpoint_micros,
        report.durable_epoch,
        report.replayed_txns,
        report.replayed_writes,
        report.skipped_txns,
        report.covered_txns,
        report.log_bytes_scanned,
        report.log_files,
        report.replay_micros,
        restart_us,
        summary.districts,
        post.committed,
    );

    // Durability gate: everything the killed run reported durable must be
    // inside the recovered horizon.
    assert!(
        report.durable_epoch >= min_epoch,
        "recovered horizon {} < last reported durable epoch {min_epoch}: durable transactions were lost",
        report.durable_epoch
    );
    // Tail gate: checkpoints + truncation must keep restart work bounded by
    // the log *tail*, not the full history.
    if let Some(total) = total_log_bytes {
        let max_fraction = env_f64("SILO_RECOVERY_MAX_TAIL_FRACTION", 0.5);
        let fraction = report.log_bytes_scanned as f64 / total.max(1) as f64;
        assert!(
            fraction <= max_fraction,
            "log tail {} B is {:.0}% of the {} B ever logged (limit {:.0}%): truncation is not bounding restart time",
            report.log_bytes_scanned,
            fraction * 100.0,
            total,
            max_fraction * 100.0
        );
        println!(
            "# tail check: replayed {} B of {} B ever logged ({:.1}%)",
            report.log_bytes_scanned,
            total,
            fraction * 100.0
        );
    }
    db.stop_epoch_advancer();
    restart_us
}

fn mode_recover(dir: &Path) {
    let min_epoch = env_u64("SILO_RECOVERY_MIN_EPOCH", 0);
    let total = std::env::var("SILO_RECOVERY_TOTAL_LOG_BYTES")
        .ok()
        .and_then(|v| v.parse().ok());
    let restart_us = recover_and_verify(dir, min_epoch, total);
    println!("# restart-to-ready: {:.1} ms", restart_us as f64 / 1e3);
    println!("RECOVERY_OK");
}

/// Default mode: the self-contained figure — run, "crash", recover, report.
fn mode_bench() {
    let dir = std::env::temp_dir().join(format!("silo-fig-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create durability root");
    let threads = bench_threads().first().copied().unwrap_or(1);
    let seconds = bench_seconds();
    println!(
        "# fig_recovery — TPC-C persistent with {} ms checkpoints, {} threads, {}s run",
        checkpoint_interval().as_millis(),
        threads,
        seconds.as_secs()
    );

    let (db, logger, checkpointer, cfg, tables) = start_persistent(&dir, threads, bench_scale());
    let result = run_workload(
        &db,
        Arc::new(TpccWorkload::new(cfg, tables)),
        run_options(threads)
            .with_duration(seconds)
            .with_logger(Arc::clone(&logger))
            .with_checkpointer(Arc::clone(&checkpointer)),
    );
    print_row("TPC-C persistent", threads, &result);
    print_logger_stats(&result);
    print_checkpoint_stats(&result);
    emit_bench_json("fig_recovery", "TPC-C persistent", threads, &result);
    let final_durable = logger.durable_epoch();
    let total_log_bytes = result.logger_stats.as_ref().map(|s| s.bytes_written);

    // "Crash": stop the checkpointer and abandon the database without any
    // orderly logger handoff beyond what group commit already made durable.
    checkpointer.shutdown();
    logger.shutdown();
    db.stop_epoch_advancer();
    drop(db);

    let restart_us = recover_and_verify(&dir, final_durable, total_log_bytes);
    println!("# restart-to-ready: {:.1} ms", restart_us as f64 / 1e3);
    write_bench_json("fig_recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("run") => {
            let dir = args
                .get(2)
                .map(PathBuf::from)
                .expect("usage: fig_recovery run <dir>");
            mode_run(&dir);
        }
        Some("recover") => {
            let dir = args
                .get(2)
                .map(PathBuf::from)
                .expect("usage: fig_recovery recover <dir>");
            mode_recover(&dir);
        }
        None => mode_bench(),
        Some(other) => {
            eprintln!("unknown mode {other:?}; usage: fig_recovery [run <dir> | recover <dir>]");
            std::process::exit(2);
        }
    }
}
