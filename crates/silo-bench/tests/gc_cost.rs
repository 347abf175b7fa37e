//! A collector round must cost what it frees, not what is pending. A worker
//! that has superseded one version of every key keeps those versions until
//! the snapshot that can read them is retired; meanwhile its transactions
//! should run as fast with 200k of them pending as with 2k. A collector that
//! walks every pending item each round makes them cost in proportion to the
//! backlog instead.
//!
//! The gate is a ratio of two timings taken seconds apart in one process, so
//! the speed of the machine cancels out. It is meaningful only with
//! optimization on, so it is ignored in a debug build; the `scaling-sweep`
//! CI job runs it with `--release`.

use std::time::Instant;

use silo_core::{Database, EpochConfig, SiloConfig};
use silo_wl::ycsb::{ycsb_key, ycsb_value, RECORD_SIZE};

/// Epochs per snapshot interval: the measured epochs all fall inside one, so
/// no pending version becomes reclaimable while it is timed.
const SNAPSHOT_EPOCHS: u64 = 1_000;
/// Read-only transactions timed per measurement.
const TXNS: u64 = 200_000;
/// Transactions per epoch while timing (the global epoch advances this
/// often, as the benchmark's 10 ms epochs would at ~100k transactions/s).
const TXNS_PER_EPOCH: u64 = 1_000;
/// Keys of the small table the timed transactions read.
const HOT_KEYS: u64 = 64;

/// Nanoseconds per one-read read-only transaction on a worker that has
/// `pending` superseded versions waiting for reclamation: the best of three
/// runs, so a noisy spell on a shared machine has to hit all three to count.
fn read_only_ns_with_pending(pending: u64) -> f64 {
    (0..3)
        .map(|_| {
            let db = Database::open(
                SiloConfig::default()
                    .with_epoch(EpochConfig {
                        snapshot_interval_epochs: SNAPSHOT_EPOCHS,
                        ..EpochConfig::default()
                    })
                    .with_spawn_epoch_advancer(false),
            );
            let backlog = db.create_table("backlog").expect("create table");
            let hot = db.create_table("hot").expect("create table");
            let mut worker = db.register_worker();
            let value = ycsb_value(0, RECORD_SIZE);
            let write_all = |worker: &mut silo_core::Worker, table, keys: u64| {
                for batch in (0..keys).step_by(1_000) {
                    let mut txn = worker.begin();
                    for key in batch..(batch + 1_000).min(keys) {
                        txn.write(table, &ycsb_key(key), &value)
                            .expect("single writer never conflicts");
                    }
                    txn.commit().expect("single writer never conflicts");
                }
            };
            write_all(&mut worker, backlog, pending);
            write_all(&mut worker, hot, HOT_KEYS);
            // Into the next snapshot interval: rewriting every backlog key now
            // keeps its previous version for snapshot readers.
            worker.quiesce();
            db.epochs().advance_to(SNAPSHOT_EPOCHS);
            write_all(&mut worker, backlog, pending);
            assert_eq!(worker.pending_garbage() as u64, pending);

            let start = Instant::now();
            for i in 0..TXNS {
                let mut txn = worker.begin();
                let found = txn
                    .read_with(hot, &ycsb_key(i % HOT_KEYS), |v| v.len())
                    .expect("read-only transaction never conflicts");
                assert_eq!(found, Some(RECORD_SIZE));
                txn.commit().expect("read-only transaction never conflicts");
                if i % TXNS_PER_EPOCH == TXNS_PER_EPOCH - 1 {
                    db.epochs().try_advance();
                }
            }
            let ns = start.elapsed().as_nanos() as f64 / TXNS as f64;
            assert_eq!(
                worker.pending_garbage() as u64,
                pending,
                "the backlog must stay pending while it is timed"
            );
            ns
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing ratio: run with --release")]
fn read_only_cost_is_flat_in_the_collector_backlog() {
    let small = read_only_ns_with_pending(2_000);
    let large = read_only_ns_with_pending(200_000);
    println!(
        "{small:.0} ns per read-only transaction with 2k versions pending, {large:.0} with \
         200k: ratio {:.2}",
        large / small
    );
    assert!(
        large <= 1.5 * small,
        "a read-only transaction with 200k versions pending costs {:.1}x one with 2k \
         ({large:.0} vs {small:.0} ns)",
        large / small
    );
}
