//! End-to-end adversarial correctness through the public facade: the
//! scenario fuzzer records real multi-threaded executions and the
//! serializability checker verifies them — including while the durability
//! subsystem is degraded by injected sync stalls.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use silo::wl::fuzz::{run_fuzz, run_fuzz_on, FuzzConfig};
use silo::{
    Database, DurabilityHealth, EpochConfig, FaultKind, FaultPlan, FaultSite, LogConfig,
    SiloConfig, SiloLogger,
};

use common::test_threads;

/// A fresh log directory for one test, removed when dropped.
struct LogDir(PathBuf);

impl Drop for LogDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn log_dir(name: &str) -> LogDir {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    LogDir(std::env::temp_dir().join(format!("silo-{name}-{}-{n}", std::process::id())))
}

#[test]
fn fuzzed_histories_are_serializable_across_seeds() {
    let threads = test_threads(2);
    for seed in 1..=4u64 {
        let outcome = run_fuzz(&FuzzConfig {
            seed,
            threads,
            txns_per_session: 200,
            keys: 16,
            hot_keys: 3,
            hot_bias: 0.8,
            ..FuzzConfig::default()
        })
        .unwrap_or_else(|failure| panic!("{failure}\n{}", failure.dump()));
        assert!(outcome.committed > 1, "seed {seed} must commit work");
        assert_eq!(outcome.report.sessions, threads + 1); // + setup session
    }
}

/// Polls `db.durability_health()` until `want` matches it, or panics after
/// `timeout`.
fn wait_for_health(
    db: &Arc<Database>,
    timeout: Duration,
    want: impl Fn(&DurabilityHealth) -> bool,
    what: &str,
) -> DurabilityHealth {
    let deadline = Instant::now() + timeout;
    loop {
        let health = db.durability_health();
        if want(&health) {
            return health;
        }
        assert!(
            Instant::now() < deadline,
            "durability never became {what}; last observed {health:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn history_stays_serializable_while_durability_degrades_and_recovers() {
    // Fast epochs so the durable-epoch lag builds up quickly once the
    // injected stalls freeze the logger's syncs.
    let db = Database::open(
        SiloConfig::default()
            .with_epoch(EpochConfig {
                epoch_interval: Duration::from_millis(1),
                ..EpochConfig::default()
            })
            .with_spawn_epoch_advancer(true)
            .without_gc(),
    );
    let table = db.create_table("fuzz").unwrap();

    // Four long sync stalls back to back: the logger keeps succeeding but
    // each sync takes 400 ms, so the durable epoch falls hundreds of epochs
    // behind the (1 ms) global epoch — Degraded, then recovery once the
    // scheduled stalls are exhausted.
    let plan = Arc::new(
        FaultPlan::new()
            .fail_at(FaultSite::Sync, 1, FaultKind::SyncStall { millis: 400 })
            .fail_at(FaultSite::Sync, 2, FaultKind::SyncStall { millis: 400 })
            .fail_at(FaultSite::Sync, 3, FaultKind::SyncStall { millis: 400 })
            .fail_at(FaultSite::Sync, 4, FaultKind::SyncStall { millis: 400 }),
    );
    let dir = log_dir("history-degraded");
    let logger = SiloLogger::install(
        LogConfig::to_directory(&dir.0, 1)
            .with_fault(Arc::clone(&plan))
            .with_max_durable_lag_epochs(8),
        &db,
    )
    .expect("install logger");

    // The epoch advancer alone drives marker rounds, so the stalls begin
    // firing immediately; wait until the lag crosses the threshold.
    wait_for_health(
        &db,
        Duration::from_secs(10),
        |h| matches!(h, DurabilityHealth::Degraded { .. }),
        "Degraded",
    );

    // Fuzz while degraded: acknowledged-but-not-yet-durable commits must
    // still form a serializable history, and the workload must actually
    // observe the degraded window.
    let degraded_outcome = run_fuzz_on(
        &db,
        table,
        &FuzzConfig {
            seed: 0xDE6,
            threads: test_threads(2),
            txns_per_session: 250,
            keys: 16,
            hot_keys: 3,
            hot_bias: 0.8,
            ..FuzzConfig::default()
        },
    )
    .unwrap_or_else(|failure| panic!("degraded-window history not serializable: {failure}"));
    assert!(degraded_outcome.committed > 1);
    assert!(
        degraded_outcome.degraded_seen,
        "the fuzz run must observe DurabilityHealth::Degraded mid-workload"
    );

    // Once the scheduled stalls stop firing the durable epoch catches up
    // and health returns to Healthy — degradation is not sticky. (Any stall
    // still pending here fires — and is ridden out — during this wait.)
    assert!(plan.injected() >= 1, "at least one stall fired");
    wait_for_health(
        &db,
        Duration::from_secs(30),
        |h| matches!(h, DurabilityHealth::Healthy),
        "Healthy again",
    );

    // And a post-recovery run still checks out.
    let recovered_outcome = run_fuzz_on(
        &db,
        table,
        &FuzzConfig {
            seed: 0xF00D,
            threads: test_threads(2),
            txns_per_session: 150,
            keys: 16,
            ..FuzzConfig::default()
        },
    )
    .unwrap_or_else(|failure| panic!("post-recovery history not serializable: {failure}"));
    assert!(recovered_outcome.committed > 1);
    assert_eq!(logger.stats().logger_failures, 0, "stalls are not failures");

    logger.shutdown();
    db.stop_epoch_advancer();
}
