//! Prefix oracle: recovery restores exactly the committed transactions up to
//! its horizon, and nothing else.
//!
//! Two sessions run multi-key transactions (2–4 keys each, overwrites,
//! deletes and re-inserts) over a 64-key table, logged by two loggers, while
//! the main thread checkpoints until the seeded crash point in the
//! checkpointer's fault plan fires. Every committed transaction is kept with
//! its TID and its writes. After the crash, recovery into a fresh database
//! must produce, key by key, the fold in TID order of the committed
//! transactions with epoch ≤ R, where R is the recovered durable epoch; and
//! R must cover every epoch the logger acknowledged as durable before the
//! crash. So a transaction torn across keys, a write applied out of TID
//! order, one lost below R or one resurrected above R each fail it.
//!
//! The seed count scales with `SILO_FAULT_SEEDS` (default 2). Each case
//! prints its seed and crash point; a failing case leaves its durability
//! directory under `SILO_FAULT_DIR` (or the temp dir).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use silo_log::fault::is_injected_crash;
use silo_log::{
    recover_directory, CheckpointConfig, Checkpointer, FaultKind, FaultPlan, FaultSite, LogConfig,
    RecoveryOptions, SiloLogger,
};
use workload::{fold, open_db, session, Committed};

mod workload {
    use silo_log::fault::xorshift;
    include!("common/prefix_workload.rs");
}

const SESSIONS: u64 = 2;
/// The keys the sessions write: `k00` to `k63`.
const KEYS: u64 = 64;
/// Checkpoint attempts after which a case gives up on its crash point.
const MAX_CHECKPOINTS: usize = 12;
/// The checkpointer's crash points; seed `s` crashes at `CRASH_SITES[s % 4]`.
const CRASH_SITES: [FaultSite; 4] = [
    FaultSite::CkptSlice,
    FaultSite::CkptBeforeManifest,
    FaultSite::CkptAfterManifest,
    FaultSite::CkptBeforeTruncate,
];

fn seeds() -> u64 {
    std::env::var("SILO_FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// One case: run the sessions and checkpoints until the crash fires, shut
/// down, recover, and compare with the fold. Returns the case directory.
fn run_case(seed: u64) -> PathBuf {
    let root = std::env::var_os("SILO_FAULT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = root.join(format!("silo-prefix-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The crash lands on the 1st, 2nd or 3rd visit of its site.
    let site = CRASH_SITES[(seed % 4) as usize];
    let plan = Arc::new(FaultPlan::new().fail_at(site, 1 + seed / 4 % 3, FaultKind::Crash));
    let db = open_db();
    let logger = SiloLogger::install(
        LogConfig::to_directory(&dir, 2)
            .with_segment_bytes(16 * 1024)
            .with_fault(Arc::clone(&plan)),
        &db,
    )
    .expect("install logger");
    let table = db.create_table("t").unwrap();
    let ckpt = Checkpointer::spawn(
        Arc::clone(&db),
        Arc::clone(&logger),
        CheckpointConfig {
            interval: Duration::from_secs(3600), // only explicit run_now
            writers: 2,
            ..CheckpointConfig::new(&dir)
        },
    );
    let stop = Arc::new(AtomicBool::new(false));
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|s| {
            let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
            std::thread::spawn(move || session(db, table, KEYS, seed * SESSIONS + s + 1, stop))
        })
        .collect();

    // Checkpoint, each time over a snapshot epoch the last one did not
    // cover, until the scheduled crash point fires.
    let mut crashed = None;
    let mut covered = 0;
    for _ in 0..MAX_CHECKPOINTS {
        let deadline = Instant::now() + Duration::from_secs(5);
        while db.epochs().global_snapshot_epoch() <= covered {
            assert!(Instant::now() < deadline, "snapshot epoch stalled");
            std::thread::sleep(Duration::from_millis(2));
        }
        covered = db.epochs().global_snapshot_epoch();
        std::thread::sleep(Duration::from_millis(10));
        match ckpt.run_now() {
            Err(e) if is_injected_crash(&e) => {
                crashed = Some(e);
                break;
            }
            Err(e) => panic!("seed {seed}: checkpoint failed with a non-injected error: {e}"),
            Ok(_) => {}
        }
    }
    let crashed = crashed.unwrap_or_else(|| panic!("seed {seed}: the crash point never fired"));
    // Everything at or below this epoch was acknowledged as crash-proof.
    let acked = logger.durable_epoch();
    // The sessions keep committing while the loggers write their last
    // rounds, so the log ends past its last durable marker.
    ckpt.shutdown();
    logger.shutdown();
    stop.store(true, Ordering::Relaxed);
    let mut committed: Vec<Committed> = sessions
        .into_iter()
        .flat_map(|s| s.join().expect("session panicked"))
        .collect();
    db.stop_epoch_advancer();
    drop(db);

    let db = open_db();
    let table = db.create_table("t").unwrap();
    let report = recover_directory(&db, &dir, &RecoveryOptions { replay_threads: 2 })
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    eprintln!(
        "prefix-oracle seed {seed}: {crashed}; {} txns committed, acked epoch {acked}, \
         checkpoint epoch {}, horizon {}, {} txns replayed, {} beyond the horizon",
        committed.len(),
        report.checkpoint_epoch,
        report.durable_epoch,
        report.replayed_txns,
        report.skipped_txns,
    );
    assert!(
        report.durable_epoch >= acked,
        "seed {seed}: recovered horizon {} is below the acknowledged durable epoch {acked}",
        report.durable_epoch
    );

    let mut w = db.register_worker();
    let mut txn = w.begin();
    let rows = txn.scan(table, b"", None, None).expect("scan");
    txn.commit().unwrap();
    drop(w);
    db.stop_epoch_advancer();
    let recovered: BTreeMap<Vec<u8>, Vec<u8>> = rows.into_iter().collect();
    let expected = fold(&mut committed, report.durable_epoch);
    for key in (0..KEYS).map(|k| format!("k{k:02}").into_bytes()) {
        assert_eq!(
            recovered.get(&key).map(|v| String::from_utf8_lossy(v)),
            expected.get(&key).map(|v| String::from_utf8_lossy(v)),
            "seed {seed}: key {} after recovery to horizon {} (dir {})",
            String::from_utf8_lossy(&key),
            report.durable_epoch,
            dir.display()
        );
    }
    assert_eq!(recovered.len(), expected.len(), "seed {seed}: extra keys");
    dir
}

#[test]
fn recovery_restores_exactly_the_committed_prefix() {
    for seed in 0..seeds() {
        let dir = run_case(seed);
        // Reached only on success: a failure leaves the dir for post-mortem.
        let _ = std::fs::remove_dir_all(&dir);
    }
}
