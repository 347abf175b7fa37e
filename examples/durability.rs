//! Durability walkthrough: commit transactions with logging enabled, wait for
//! the group-commit (durable) epoch, simulate a crash, and recover the
//! durable prefix into a fresh database. Exits non-zero unless recovery
//! restores exactly the 499 orders left after the cancellation.
//!
//! ```sh
//! cargo run --release --example durability
//! ```

use std::time::Duration;

use silo::{Database, LogConfig, SiloConfig, SiloLogger};
use silo_log::{recover_directory, RecoveryOptions};

fn main() {
    // --- Phase 1: a database with logging -------------------------------
    let dir = std::env::temp_dir().join(format!("silo-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(SiloConfig::default());
    let logger =
        SiloLogger::install(LogConfig::to_directory(&dir, 2), &db).expect("install logger");
    let orders = db.create_table("orders").expect("create table");

    let mut worker = db.register_worker();
    let mut last_tid = silo::Tid::ZERO;
    for i in 0..500u32 {
        let mut txn = worker.begin();
        txn.write(
            orders,
            format!("order-{i:05}").as_bytes(),
            format!("{{\"qty\": {}}}", i % 10).as_bytes(),
        )
        .expect("write");
        last_tid = txn.commit().expect("commit");
    }
    // Cancel one order so recovery has a delete to replay.
    let mut txn = worker.begin();
    txn.delete(orders, b"order-00042").expect("delete");
    let delete_tid = txn.commit().expect("commit");
    // Leave the epoch before waiting: a worker still inside epoch `e` stops
    // the global epoch at `e + 1` and the durable epoch below `e`.
    worker.quiesce();

    println!("committed 501 transactions; last TID = {last_tid}");
    let durable = logger.wait_for_durable(delete_tid.epoch(), Duration::from_secs(10));
    println!(
        "durable epoch reached {} (needed {}): {}",
        logger.durable_epoch(),
        delete_tid.epoch(),
        if durable.is_durable() {
            "all transactions durable"
        } else {
            "timed out"
        }
    );

    // --- Phase 2: "crash" ------------------------------------------------
    logger.shutdown();
    let log_bytes: u64 = std::fs::read_dir(&dir)
        .expect("log directory")
        .map(|entry| entry.expect("log file").metadata().expect("metadata").len())
        .sum();
    println!(
        "simulating a crash; {} bytes of redo log survive",
        log_bytes
    );
    drop(db);

    // --- Phase 3: recovery ----------------------------------------------
    let db2 = Database::open(SiloConfig::default());
    let orders2 = db2.create_table("orders").expect("recreate schema");
    assert_eq!(
        orders2, orders,
        "schema must be recreated in the same order"
    );
    let report = recover_directory(&db2, &dir, &RecoveryOptions::default()).expect("recovery");
    println!(
        "recovered to durable epoch {}: {} transactions ({} writes) read and sorted in {} µs, \
         {} beyond the horizon skipped, table built in {} µs",
        report.durable_epoch,
        report.replayed_txns,
        report.replayed_writes,
        report.replay_micros,
        report.skipped_txns,
        report.checkpoint_micros
    );

    let mut worker = db2.register_worker();
    let mut txn = worker.begin();
    let rows = txn.scan(orders2, b"order-", None, None).expect("scan");
    let cancelled = txn.read(orders2, b"order-00042").expect("read");
    txn.commit().expect("commit");
    println!("orders visible after recovery : {}", rows.len());
    println!(
        "cancelled order order-00042   : {}",
        if cancelled.is_none() {
            "absent (delete recovered)"
        } else {
            "present"
        }
    );
    db2.stop_epoch_advancer();
    let _ = std::fs::remove_dir_all(&dir);
    if rows.len() != 499 || cancelled.is_some() {
        eprintln!("recovery lost or resurrected orders: expected 499 with order-00042 absent");
        std::process::exit(1);
    }
}
