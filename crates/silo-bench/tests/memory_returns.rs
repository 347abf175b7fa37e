//! Memory comes back: workers that come and go do not grow the heap, and a
//! dropped database returns what it took, record slab chunks included.
//!
//! The whole test binary runs under [`CountingAllocator`], whose byte count
//! is process-wide; the binary holds this one test so nothing else moves it.

use std::sync::Arc;
use std::time::Duration;

use silo_bench::CountingAllocator;
use silo_core::{Database, EpochConfig, SiloConfig, TableId};
use silo_index::Slab;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const KEYS: u64 = 100_000;
const RECORD_SIZE: usize = 100;
/// Read-modify-write transactions each loader runs after loading.
const CHURN: u64 = 50_000;
/// What a worker takes from the record slab at a time.
const WINDOW: u64 = Slab::FIRST_CHUNK as u64;

fn key(i: u64) -> [u8; 12] {
    let mut k = [0u8; 12];
    k[..4].copy_from_slice(b"user");
    k[4..].copy_from_slice(&i.to_be_bytes());
    k
}

/// Loads keys `lo..hi`, then rewrites keys of the whole table: with
/// in-place overwrites off, every write supersedes a record that one of the
/// two workers' collectors recycles into its own pool.
fn load_and_churn(db: &Arc<Database>, t: TableId, lo: u64, hi: u64, seed: u64) {
    let mut w = db.register_worker();
    for batch in (lo..hi).step_by(100) {
        let mut txn = w.begin();
        for i in batch..(batch + 100).min(hi) {
            txn.insert(t, &key(i), &[i as u8; RECORD_SIZE]).unwrap();
        }
        txn.commit().unwrap();
    }
    let mut x = seed;
    let mut value = Vec::new();
    let mut done = 0;
    while done < CHURN {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = key(x % KEYS);
        let mut txn = w.begin();
        match txn.read_into(t, &k, &mut value) {
            Ok(true) => {}
            // The other loader has not inserted this key yet.
            Ok(false) => continue,
            Err(_) => continue,
        }
        value[0] = value[0].wrapping_add(1);
        if txn.write(t, &k, &value).is_ok() && txn.commit().is_ok() {
            done += 1;
        }
    }
    w.collect_garbage();
    w.quiesce();
}

#[test]
fn workers_and_the_database_give_their_memory_back() {
    let start = CountingAllocator::allocated();
    let db = Database::open(
        SiloConfig::default()
            .with_epoch(EpochConfig {
                epoch_interval: Duration::from_millis(1),
                snapshot_interval_epochs: 5,
            })
            .with_overwrite_in_place(false),
    );
    let t = db.create_table("usertable").unwrap();
    std::thread::scope(|s| {
        let (db, half) = (&db, KEYS / 2);
        let a = s.spawn(move || load_and_churn(db, t, 0, half, 0x9e37_79b9));
        let b = s.spawn(move || load_and_churn(db, t, half, KEYS, 0x2545_f491));
        a.join().unwrap();
        b.join().unwrap();
    });
    let loaded = CountingAllocator::allocated();
    assert!(
        loaded - start > KEYS * RECORD_SIZE as u64,
        "the load holds its records"
    );

    // Workers that register, write and drop take their records from the
    // spare ones dropped workers left, not from fresh windows.
    const WORKERS: u64 = 64;
    for i in 0..WORKERS {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        txn.write(t, &key(i), &[7; RECORD_SIZE]).unwrap();
        txn.commit().unwrap();
        w.collect_garbage();
    }
    let after_workers = CountingAllocator::allocated();
    assert!(
        after_workers <= loaded + WORKERS * WINDOW,
        "{WORKERS} short-lived workers grew the heap by {} bytes",
        after_workers as i64 - loaded as i64
    );

    drop(db);
    let end = CountingAllocator::allocated();
    assert!(
        end.abs_diff(start) <= Slab::HUGE_CHUNK as u64,
        "a dropped database left {} bytes behind",
        end as i64 - start as i64
    );
}
