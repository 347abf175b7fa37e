//! A transaction's cost per operation must not depend on how many operations
//! it has already made. Loading the same keys in transactions of 16 writes
//! and of 1 024 writes does the same index and record work per key; what
//! differs is how large the write-set and node-set are when each write looks
//! itself up in them. With those lookups indexed the two loads cost the same
//! per key; with a linear scan the large one costs six times as much.
//!
//! The gate is a ratio of two timings taken seconds apart in one process, so
//! the speed of the machine cancels out. It is meaningful only with
//! optimization on (a debug build buries the lookup under unoptimized index
//! code), so it is ignored there; the `scaling-sweep` CI job runs it with
//! `--release`.

use std::time::Instant;

use silo_core::{Database, SiloConfig};
use silo_wl::ycsb::{ycsb_key, ycsb_value, RECORD_SIZE};

const KEYS: u64 = 200_000;

/// Nanoseconds per key to load `KEYS` YCSB keys into a fresh database in
/// transactions of `batch` writes: the best of three loads, so a noisy spell
/// on a shared machine has to hit all three to count.
fn load_ns_per_key(batch: u64) -> f64 {
    (0..3)
        .map(|_| {
            let db = Database::open(SiloConfig::default());
            let table = db.create_table("ycsb").expect("create table");
            let mut worker = db.register_worker();
            let start = Instant::now();
            let mut k = 0;
            while k < KEYS {
                let end = (k + batch).min(KEYS);
                let mut txn = worker.begin();
                for key in k..end {
                    txn.write(table, &ycsb_key(key), &ycsb_value(key, RECORD_SIZE))
                        .expect("single loader never conflicts");
                }
                txn.commit().expect("single loader never conflicts");
                k = end;
            }
            let ns = start.elapsed().as_nanos() as f64 / KEYS as f64;
            drop(worker);
            db.stop_epoch_advancer();
            ns
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing ratio: run with --release")]
fn load_cost_per_key_is_flat_in_transaction_size() {
    let small = load_ns_per_key(16);
    let large = load_ns_per_key(1024);
    println!(
        "{small:.0} ns/key at 16 writes per transaction, {large:.0} ns/key at 1024: ratio {:.2}",
        large / small
    );
    assert!(
        large <= 2.0 * small,
        "a write in a 1024-write transaction costs {:.1}x one in a 16-write transaction \
         ({large:.0} vs {small:.0} ns/key)",
        large / small
    );
}
