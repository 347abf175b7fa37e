//! Integration test: commit with logging under concurrency, crash, recover,
//! and check that exactly the durable prefix is restored.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use silo::{Database, EpochConfig, LogConfig, SiloConfig, SiloLogger};
use silo_log::{recover_directory, RecoveryOptions};

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
fn concurrent_commits_survive_crash_and_recovery() {
    let config = SiloConfig::default().with_epoch(EpochConfig {
        epoch_interval: Duration::from_millis(2),
        snapshot_interval_epochs: 5,
    });
    let db = Database::open(config.clone());
    let dir = log_dir("crash-recovery");
    let logger =
        SiloLogger::install(LogConfig::to_directory(&dir.0, 2), &db).expect("install logger");
    let t = db.create_table("ledger").unwrap();

    // Several threads append entries; each thread records what it committed.
    let mut handles = Vec::new();
    for thread in 0..3u32 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut w = db.register_worker();
            let mut committed = Vec::new();
            for i in 0..200u32 {
                let key = format!("t{thread}-entry{i:04}");
                // Retry on aborts (concurrent inserts into the same index leaf
                // can fail node-set validation or fixup, in the write as well
                // as the commit; the one-shot model simply re-executes the
                // request).
                loop {
                    let mut txn = w.begin();
                    if txn.write(t, key.as_bytes(), &i.to_be_bytes()).is_err() {
                        continue;
                    }
                    if let Ok(tid) = txn.commit() {
                        committed.push((key, tid));
                        break;
                    }
                }
            }
            committed
        }));
    }
    let committed: Vec<(String, silo::Tid)> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(committed.len(), 600);
    let max_epoch = committed.iter().map(|(_, tid)| tid.epoch()).max().unwrap();
    assert!(
        logger
            .wait_for_durable(max_epoch, Duration::from_secs(10))
            .is_durable(),
        "all commits should become durable once workers finish"
    );
    logger.shutdown();
    let durable_horizon = logger.durable_epoch();
    drop(db);

    // Recover into a fresh database with the same schema.
    let db2 = Database::open(config);
    let t2 = db2.create_table("ledger").unwrap();
    assert_eq!(t2, t);
    let report = recover_directory(&db2, &dir.0, &RecoveryOptions::default()).unwrap();
    assert!(report.durable_epoch >= durable_horizon.min(max_epoch));
    assert_eq!(report.replayed_txns, 600);
    assert_eq!(report.corrupt_log_tails, 0);

    let mut w = db2.register_worker();
    let mut txn = w.begin();
    // Every transaction whose epoch is within the recovered horizon must be
    // present; the durable-epoch wait above makes that all of them.
    for (key, tid) in &committed {
        if tid.epoch() <= report.durable_epoch {
            assert!(
                txn.read(t2, key.as_bytes()).unwrap().is_some(),
                "durable commit {key} (epoch {}) missing after recovery",
                tid.epoch()
            );
        }
    }
    let total = txn.scan(t2, b"", None, None).unwrap().len();
    txn.commit().unwrap();
    assert_eq!(total, 600);
    db2.stop_epoch_advancer();
}
