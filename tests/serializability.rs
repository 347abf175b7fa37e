//! Cross-crate integration tests: serializability under concurrency, through
//! the public facade crate.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use silo::{Database, EpochConfig, SiloConfig};

use common::test_threads;

fn fast_config() -> SiloConfig {
    SiloConfig::default().with_epoch(EpochConfig {
        epoch_interval: Duration::from_millis(2),
        snapshot_interval_epochs: 5,
    })
}

#[test]
fn transfer_invariant_under_heavy_contention() {
    let db = Database::open(fast_config());
    let t = db.create_table("accounts").unwrap();
    let accounts = 8u32; // few accounts => heavy conflicts
    {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        for a in 0..accounts {
            txn.write(t, &a.to_be_bytes(), &100u64.to_be_bytes())
                .unwrap();
        }
        txn.commit().unwrap();
    }
    let mut handles = Vec::new();
    for seed in 0..test_threads(4) as u64 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut w = db.register_worker();
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) + 1;
            for _ in 0..400 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let from = (state >> 33) as u32 % accounts;
                let to = (state >> 11) as u32 % accounts;
                if from == to {
                    continue;
                }
                let mut txn = w.begin();
                let result = (|| -> Result<(), silo::Abort> {
                    let f = u64::from_be_bytes(
                        txn.read(t, &from.to_be_bytes())?
                            .unwrap()
                            .try_into()
                            .unwrap(),
                    );
                    let g = u64::from_be_bytes(
                        txn.read(t, &to.to_be_bytes())?.unwrap().try_into().unwrap(),
                    );
                    if f == 0 {
                        return Ok(());
                    }
                    txn.write(t, &from.to_be_bytes(), &(f - 1).to_be_bytes())?;
                    txn.write(t, &to.to_be_bytes(), &(g + 1).to_be_bytes())?;
                    Ok(())
                })();
                match result {
                    Ok(()) => {
                        let _ = txn.commit();
                    }
                    Err(_) => txn.abort(),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut w = db.register_worker();
    let mut txn = w.begin();
    let total: u64 = (0..accounts)
        .map(|a| {
            u64::from_be_bytes(
                txn.read(t, &a.to_be_bytes())
                    .unwrap()
                    .unwrap()
                    .try_into()
                    .unwrap(),
            )
        })
        .sum();
    txn.commit().unwrap();
    assert_eq!(total, accounts as u64 * 100);
    db.stop_epoch_advancer();
}

#[test]
fn write_skew_and_phantoms_are_rejected_between_threads() {
    let db = Database::open(fast_config());
    let t = db.create_table("t").unwrap();
    {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        txn.write(t, b"x", &0u64.to_be_bytes()).unwrap();
        txn.write(t, b"y", &0u64.to_be_bytes()).unwrap();
        txn.commit().unwrap();
    }
    // Run the Figure-3 pattern many times across two threads with a barrier;
    // the outcome x = y = 1 must never be observed.
    for _ in 0..50 {
        // Reset.
        {
            let mut w = db.register_worker();
            let mut txn = w.begin();
            txn.write(t, b"x", &0u64.to_be_bytes()).unwrap();
            txn.write(t, b"y", &0u64.to_be_bytes()).unwrap();
            txn.commit().unwrap();
        }
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for (read_key, write_key) in [(b"x", b"y"), (b"y", b"x")] {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut w = db.register_worker();
                let mut txn = w.begin();
                let v =
                    u64::from_be_bytes(txn.read(t, read_key).unwrap().unwrap().try_into().unwrap());
                barrier.wait();
                let _ = txn.write(t, write_key, &(v + 1).to_be_bytes());
                txn.commit().is_ok()
            }));
        }
        let results: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Reading the final state.
        let mut w = db.register_worker();
        let mut txn = w.begin();
        let x = u64::from_be_bytes(txn.read(t, b"x").unwrap().unwrap().try_into().unwrap());
        let y = u64::from_be_bytes(txn.read(t, b"y").unwrap().unwrap().try_into().unwrap());
        txn.commit().unwrap();
        assert!(
            !(x == 1 && y == 1),
            "write skew observed (commits: {results:?})"
        );
    }
    db.stop_epoch_advancer();
}

#[test]
fn read_only_transactions_scale_without_aborts() {
    let db = Database::open(fast_config());
    let t = db.create_table("t").unwrap();
    {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        for i in 0..1000u32 {
            txn.write(t, &i.to_be_bytes(), &i.to_be_bytes()).unwrap();
        }
        txn.commit().unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for _ in 0..test_threads(3) {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut w = db.register_worker();
            while !stop.load(Ordering::Relaxed) {
                let mut txn = w.begin();
                for i in (0..1000u32).step_by(101) {
                    assert!(txn.read(t, &i.to_be_bytes()).unwrap().is_some());
                }
                txn.commit().unwrap();
            }
            w.stats().clone()
        }));
    }
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let stats = h.join().unwrap();
        assert!(stats.commits > 0);
        assert_eq!(stats.aborts, 0, "pure readers over static data never abort");
    }
    db.stop_epoch_advancer();
}
