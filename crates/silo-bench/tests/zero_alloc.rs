//! The allocation-free hot path, enforced: a warmed-up worker must commit
//! YCSB-style read/write transactions with **zero** heap allocations.
//!
//! The whole test binary runs under [`CountingAllocator`], which counts
//! per-thread allocations; the measured section asserts the count does not
//! move. This is the guard rail for the reusable `TxnContext`, the write-set
//! arena, the record pool and the in-place overwrite path — a regression in
//! any of them (a stray `to_vec`, a stable sort, a fresh `Vec` per begin)
//! fails this test rather than only showing up as a throughput dip.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use silo_bench::CountingAllocator;
use silo_core::{Database, EpochConfig, HistoryRecorder, SiloConfig};
use silo_log::{LogConfig, SiloLogger};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

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

/// Number of keys the workload cycles through.
const KEYS: u64 = 64;
/// YCSB record payload size (paper: 100 bytes).
const RECORD_SIZE: usize = 100;

fn key(i: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(b"usertbl:");
    k[8..].copy_from_slice(&(i % KEYS).to_be_bytes());
    k
}

#[test]
fn warmed_worker_commits_without_heap_allocation() {
    let db = Database::open(
        SiloConfig::default()
            .with_epoch(EpochConfig {
                epoch_interval: Duration::from_millis(1),
                snapshot_interval_epochs: 5,
            })
            // Deterministic epochs: advanced manually during warm-up only, so
            // every measured write lands in the same snapshot interval and takes
            // the in-place overwrite path, and — the collector running once per
            // epoch — no collector round falls into the measured section.
            .with_spawn_epoch_advancer(false),
    );
    let table = db.create_table("ycsb").unwrap();
    let mut worker = db.register_worker();

    // ---- Warm-up ----------------------------------------------------
    // Load the keys, then churn: updates feed superseded versions through
    // epoch advances + GC into the worker's record pool, and size every
    // reusable buffer (context vectors, arena chunk, scratch, value buffer).
    let mut value = vec![0u8; RECORD_SIZE];
    for i in 0..KEYS {
        let mut txn = worker.begin();
        value.fill(i as u8);
        txn.write(table, &key(i), &value).unwrap();
        txn.commit().unwrap();
    }
    for round in 0..8u64 {
        for i in 0..KEYS {
            let mut txn = worker.begin();
            txn.read_into(table, &key(i + 1), &mut value).unwrap();
            value.fill(round as u8);
            txn.write(table, &key(i), &value).unwrap();
            txn.commit().unwrap();
        }
        worker.quiesce();
        db.epochs().advance_n(2);
        worker.collect_garbage();
    }
    // A final pass *after* the last epoch advance so every record's TID is
    // in the current snapshot interval (measured writes overwrite in place).
    for i in 0..KEYS {
        let mut txn = worker.begin();
        value.fill(0xAB);
        txn.write(table, &key(i), &value).unwrap();
        txn.commit().unwrap();
    }

    // Guard against a vacuous pass: warm-up must have been counted (loading
    // the table allocates records), or the allocator is not actually wired.
    assert!(
        CountingAllocator::thread_allocs() > 0,
        "counting allocator saw no warm-up allocations — not installed?"
    );

    // ---- Measure ----------------------------------------------------
    // YCSB-style transactions: one read plus one read-modify-write per txn.
    let mut read_buf = vec![0u8; RECORD_SIZE];
    let before = CountingAllocator::thread_allocs();
    for i in 0..200u64 {
        let mut txn = worker.begin();
        let found = txn.read_into(table, &key(i + 7), &mut read_buf).unwrap();
        assert!(found, "warm key must be present");
        txn.read_into(table, &key(i), &mut value).unwrap();
        for b in value.iter_mut() {
            *b = b.wrapping_add(1);
        }
        txn.write(table, &key(i), &value).unwrap();
        txn.commit().unwrap();
    }
    let allocs = CountingAllocator::thread_allocs() - before;

    assert_eq!(
        allocs, 0,
        "a warmed worker must commit read/write transactions without touching \
         the heap; {allocs} allocation(s) leaked into the hot path"
    );

    // The engine's own accounting should agree that the measured section
    // allocated nothing: pool misses and arena chunks all date from warm-up.
    let stats = worker.stats();
    assert!(stats.commits >= KEYS * 10);
    assert_eq!(stats.aborts, 0);
}

/// The same guarantee for a large transaction: once a worker has run one
/// 1 024-write transaction, the next one finds the write-set's entries, its
/// hash index, the arena chunks and the read-set all retained, and touches
/// no allocator — the index is part of the reusable context, not a per-
/// transaction map.
#[test]
fn warmed_worker_commits_a_1024_write_transaction_without_heap_allocation() {
    const WRITES: u64 = 1024;
    let wide_key = |i: u64| {
        let mut k = [0u8; 16];
        k[..8].copy_from_slice(b"widetbl:");
        k[8..].copy_from_slice(&i.to_be_bytes());
        k
    };
    let db = Database::open(SiloConfig::default().with_spawn_epoch_advancer(false));
    let table = db.create_table("wide").unwrap();
    let mut worker = db.register_worker();
    let mut value = vec![0u8; RECORD_SIZE];
    let mut read_buf = Vec::with_capacity(RECORD_SIZE);

    // Round 0 inserts the keys; round 1 sizes everything an updating
    // transaction of this shape uses; round 2 is measured.
    let mut allocs_by_round = [0u64; 3];
    for (round, allocs) in allocs_by_round.iter_mut().enumerate() {
        let before = CountingAllocator::thread_allocs();
        let mut txn = worker.begin();
        for i in 0..WRITES {
            let found = txn.read_into(table, &wide_key(i), &mut read_buf).unwrap();
            assert_eq!(found, round > 0);
            value.fill((round as u64 + i) as u8);
            txn.write(table, &wide_key(i), &value).unwrap();
        }
        // Read-your-writes goes through the index at this size.
        assert!(txn
            .read_into(table, &wide_key(WRITES / 2), &mut read_buf)
            .unwrap());
        assert_eq!(read_buf[0], (round as u64 + WRITES / 2) as u8);
        assert_eq!(txn.write_set_len(), WRITES as usize);
        txn.commit().unwrap();
        *allocs = CountingAllocator::thread_allocs() - before;
    }
    assert!(
        allocs_by_round[0] > 0,
        "loading allocates records and nodes"
    );
    assert_eq!(
        allocs_by_round[2], 0,
        "a warmed 1 024-write transaction must not touch the heap"
    );
}

/// The same guarantee with a (disabled) [`HistoryRecorder`] installed: every
/// worker binds a history session at registration, so the recorder's
/// disabled state must cost exactly one relaxed atomic load per transaction
/// — not a single byte of heap. This pins the recording hook added for the
/// serializability checker out of the hot path.
#[test]
fn warmed_worker_with_disabled_recorder_commits_without_heap_allocation() {
    let db = Database::open(
        SiloConfig::default()
            .with_epoch(EpochConfig {
                epoch_interval: Duration::from_millis(1),
                snapshot_interval_epochs: 5,
            })
            .with_spawn_epoch_advancer(false),
    );
    let recorder = Arc::new(HistoryRecorder::new_disabled());
    db.set_history_recorder(Arc::clone(&recorder))
        .expect("fresh database has no recorder");
    let table = db.create_table("ycsb").unwrap();
    let mut worker = db.register_worker();

    // ---- Warm-up (same shape as the recorder-less test) --------------
    let mut value = vec![0u8; RECORD_SIZE];
    for i in 0..KEYS {
        let mut txn = worker.begin();
        value.fill(i as u8);
        txn.write(table, &key(i), &value).unwrap();
        txn.commit().unwrap();
    }
    for round in 0..8u64 {
        for i in 0..KEYS {
            let mut txn = worker.begin();
            txn.read_into(table, &key(i + 1), &mut value).unwrap();
            value.fill(round as u8);
            txn.write(table, &key(i), &value).unwrap();
            txn.commit().unwrap();
        }
        worker.quiesce();
        db.epochs().advance_n(2);
        worker.collect_garbage();
    }
    for i in 0..KEYS {
        let mut txn = worker.begin();
        value.fill(0xAB);
        txn.write(table, &key(i), &value).unwrap();
        txn.commit().unwrap();
    }
    assert!(
        CountingAllocator::thread_allocs() > 0,
        "counting allocator saw no warm-up allocations — not installed?"
    );

    // ---- Measure ----------------------------------------------------
    let mut read_buf = vec![0u8; RECORD_SIZE];
    let before = CountingAllocator::thread_allocs();
    for i in 0..200u64 {
        let mut txn = worker.begin();
        let found = txn.read_into(table, &key(i + 7), &mut read_buf).unwrap();
        assert!(found, "warm key must be present");
        txn.read_into(table, &key(i), &mut value).unwrap();
        for b in value.iter_mut() {
            *b = b.wrapping_add(1);
        }
        txn.write(table, &key(i), &value).unwrap();
        txn.commit().unwrap();
    }
    let allocs = CountingAllocator::thread_allocs() - before;

    assert_eq!(
        allocs, 0,
        "a disabled history recorder must not add heap traffic to the hot \
         path; {allocs} allocation(s) leaked in"
    );

    drop(worker);
    assert!(
        recorder.take_sessions().is_empty(),
        "a disabled recorder must have recorded nothing"
    );
}

/// The same guarantee with durability enabled: a warmed worker whose commits
/// flow through a [`SiloLogger`] must still never touch the heap. This pins
/// the recycled log-buffer pool (paper §4.10): `publish` swaps the full
/// buffer for a pooled one instead of discarding its capacity, the mailbox
/// handoff to the logger reuses its queue storage, and compression lives on
/// the logger threads — so the only thing the commit path does is serialize
/// into pre-sized memory.
#[test]
fn warmed_worker_with_logger_commits_without_heap_allocation() {
    let db = Database::open(
        SiloConfig::default()
            .with_epoch(EpochConfig {
                epoch_interval: Duration::from_millis(1),
                // Never cross a snapshot boundary during the test: every measured
                // write takes the in-place overwrite path regardless of the
                // epoch advances that force log-buffer publishes.
                snapshot_interval_epochs: 1_000_000,
            })
            .with_spawn_epoch_advancer(false),
    );
    // A small publish watermark so the measured section publishes several
    // buffers, and a pool deep enough that the pool can never run dry even
    // if the logger thread is descheduled the whole time (publishes during
    // the test ≪ 64 buffers in the pool).
    let dir = log_dir("zero-alloc");
    let logger = SiloLogger::install(
        LogConfig::to_directory(&dir.0, 1)
            .with_buffer_capacity(4096)
            .with_pool_buffers(64),
        &db,
    )
    .expect("install logger");
    let table = db.create_table("ycsb").unwrap();
    let mut worker = db.register_worker();

    // ---- Warm-up ----------------------------------------------------
    // Load the keys, then churn across epoch boundaries so the worker's log
    // buffer cycles through the pool (sizing every buffer past the watermark
    // crossing) and the logger mailbox reaches its steady-state capacity.
    let mut value = vec![0u8; RECORD_SIZE];
    for i in 0..KEYS {
        let mut txn = worker.begin();
        value.fill(i as u8);
        txn.write(table, &key(i), &value).unwrap();
        txn.commit().unwrap();
    }
    for round in 0..6u64 {
        for i in 0..KEYS {
            let mut txn = worker.begin();
            txn.read_into(table, &key(i + 1), &mut value).unwrap();
            value.fill(round as u8);
            txn.write(table, &key(i), &value).unwrap();
            txn.commit().unwrap();
        }
        db.epochs().advance_n(1);
    }
    assert!(
        CountingAllocator::thread_allocs() > 0,
        "counting allocator saw no warm-up allocations — not installed?"
    );

    // ---- Measure ----------------------------------------------------
    // Same YCSB-style loop as the logger-less test, with periodic epoch
    // advances so the measured window exercises both publish triggers: the
    // fill-level watermark and the epoch boundary.
    let published_before = logger.stats().buffers_published;
    let mut read_buf = vec![0u8; RECORD_SIZE];
    let before = CountingAllocator::thread_allocs();
    for i in 0..200u64 {
        let mut txn = worker.begin();
        let found = txn.read_into(table, &key(i + 7), &mut read_buf).unwrap();
        assert!(found, "warm key must be present");
        txn.read_into(table, &key(i), &mut value).unwrap();
        for b in value.iter_mut() {
            *b = b.wrapping_add(1);
        }
        txn.write(table, &key(i), &value).unwrap();
        txn.commit().unwrap();
        if i % 50 == 49 {
            db.epochs().advance_n(1);
        }
    }
    let allocs = CountingAllocator::thread_allocs() - before;

    assert_eq!(
        allocs, 0,
        "a warmed worker with a logger installed must commit without touching \
         the heap; {allocs} allocation(s) leaked into the commit/log path"
    );

    // Prove the guarantee covered the publish path, not just buffer fills,
    // and that every publish drew its replacement from the recycled pool.
    let log_stats = logger.stats();
    assert!(
        log_stats.buffers_published > published_before,
        "measured section must have published at least one log buffer"
    );
    assert_eq!(
        log_stats.pool_misses, 0,
        "the pre-sized pool must absorb every publish"
    );

    let stats = worker.stats();
    assert!(stats.commits >= KEYS * 7);
    assert_eq!(stats.aborts, 0);
    drop(worker);
    logger.shutdown();
}

/// The checkpoint walk under the same rule, scaled: walking a table through
/// `scan_versions` allocates a fixed number of times however many records
/// the table holds. Each chunk resumes through the index's borrowed scan
/// with the worker's scratch, rather than a collecting scan that owns every
/// key it returns.
#[test]
fn snapshot_walk_allocations_do_not_grow_with_the_table() {
    let db = Database::open(SiloConfig::default().with_spawn_epoch_advancer(false));
    let mut worker = db.register_worker();
    let value = [7u8; RECORD_SIZE];
    let [small, large] = [1_000u64, 100_000].map(|records| {
        let table = db.create_table(&format!("walk{records}")).unwrap();
        for batch in 0..records.div_ceil(1_000) {
            let mut txn = worker.begin();
            for i in batch * 1_000..records.min((batch + 1) * 1_000) {
                txn.write(table, &i.to_be_bytes(), &value).unwrap();
            }
            txn.commit().unwrap();
        }
        (table, records)
    });
    // Move the snapshot epoch past the load, so the walks see every record.
    let loaded = db.epochs().global_epoch();
    worker.quiesce();
    while db.epochs().global_snapshot_epoch() <= loaded {
        db.epochs().advance_n(1);
    }

    // Returns (records yielded, allocations made) for one walk of `table`.
    let mut walk = |table| {
        let before = CountingAllocator::thread_allocs();
        let mut snap = worker.begin_snapshot();
        let yielded = snap.scan_versions(table, 64, None, |_, _, _| {});
        snap.finish();
        (yielded, CountingAllocator::thread_allocs() - before)
    };
    // The warm-up walk sizes the scan scratch and the value buffer, and
    // takes the collector round of the new epoch.
    assert_eq!(walk(large.0).0, large.1);
    let (small_records, small_allocs) = walk(small.0);
    let (large_records, large_allocs) = walk(large.0);
    assert_eq!((small_records, large_records), (small.1, large.1));
    assert!(
        small_allocs.abs_diff(large_allocs) <= 2,
        "walking {} records allocated {small_allocs} times, walking {} \
         allocated {large_allocs} times",
        small.1,
        large.1
    );
}

/// Runs `f`, adding the allocations it makes on this thread to `allocs`.
fn counted<R>(allocs: &mut u64, f: impl FnOnce() -> R) -> R {
    let before = CountingAllocator::thread_allocs();
    let result = f();
    *allocs += CountingAllocator::thread_allocs() - before;
    result
}

/// The five TPC-C transactions under the same rule. The read-only ones —
/// order-status, and stock-level on a snapshot and as a regular transaction —
/// must not allocate at all. New-order, payment and delivery may allocate
/// only what outlives them: the records they insert or install as new
/// versions (counted as record-pool misses), the index nodes and key-suffix
/// buffers their inserts create, and the owned key each delete — or each
/// insert placeholder of a rolled-back new-order — hands to the garbage
/// collector for the later unhook. Keys, row copies, scan results and the
/// index's insert and scan bookkeeping all live on the stack or in the
/// worker's reusable scratch.
#[test]
fn warmed_worker_runs_tpcc_without_transient_heap_allocation() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use silo_wl::tpcc::schema::TpccTable;
    use silo_wl::tpcc::{self, txns, TpccConfig};

    let db = Database::open(
        SiloConfig::default()
            .with_epoch(EpochConfig {
                epoch_interval: Duration::from_millis(1),
                snapshot_interval_epochs: 5,
            })
            // Epochs, and with them the collector, move only when
            // `maintain` below says so.
            .with_spawn_epoch_advancer(false),
    );
    // `tiny()` with every last name present in every district (so selection
    // by name scans real matches) and enough items and orders that no
    // transaction finds a row missing.
    let cfg = TpccConfig {
        customers_per_district: 1000,
        initial_orders_per_district: 100,
        items: 200,
        ..TpccConfig::tiny()
    };
    let cfg_no_snapshot = TpccConfig {
        stock_level_on_snapshot: false,
        ..cfg.clone()
    };
    let tables = tpcc::load(&db, &cfg);
    let mut worker = db.register_worker();
    let mut rng = SmallRng::seed_from_u64(7);
    // Crosses a snapshot boundary and reclaims what that frees: superseded
    // versions refill the record pool, deleted NEW-ORDER rows are unhooked.
    let maintain = |worker: &mut silo_core::Worker| {
        worker.quiesce();
        db.epochs().advance_n(6);
        worker.collect_garbage();
    };

    // ---- Warm-up ----------------------------------------------------
    // Mixed transactions of every kind size the context's sets, the arena,
    // the scan scratch and the garbage lists beyond what any measured window
    // below needs.
    for _ in 0..4 {
        for i in 0..1000u32 {
            let w_id = i % cfg.warehouses + 1;
            let _ = match rng.gen_range(0..100u32) {
                0..=44 => txns::new_order(&mut worker, &tables, &cfg, &mut rng, w_id).map(|_| ()),
                45..=87 => txns::payment(&mut worker, &tables, &cfg, &mut rng, w_id),
                88..=91 => txns::order_status(&mut worker, &tables, &cfg, &mut rng, w_id),
                92..=95 => txns::delivery(&mut worker, &tables, &cfg, &mut rng, w_id),
                96..=97 => {
                    txns::stock_level(&mut worker, &tables, &cfg, &mut rng, w_id).map(|_| ())
                }
                _ => txns::stock_level(&mut worker, &tables, &cfg_no_snapshot, &mut rng, w_id)
                    .map(|_| ()),
            };
        }
        maintain(&mut worker);
    }
    assert!(
        CountingAllocator::thread_allocs() > 0,
        "counting allocator saw no warm-up allocations — not installed?"
    );

    // ---- Read-only transactions: nothing ------------------------------
    let (mut allocs, mut low_stock) = (0, 0);
    for _ in 0..200 {
        counted(&mut allocs, || {
            txns::order_status(&mut worker, &tables, &cfg, &mut rng, 1)
        })
        .expect("order-status");
    }
    assert_eq!(allocs, 0, "order-status allocated");
    for _ in 0..200 {
        low_stock += counted(&mut allocs, || {
            txns::stock_level(&mut worker, &tables, &cfg, &mut rng, 2)
        })
        .expect("stock-level");
    }
    assert_eq!(allocs, 0, "stock-level on a snapshot allocated");
    for _ in 0..200 {
        low_stock += counted(&mut allocs, || {
            txns::stock_level(&mut worker, &tables, &cfg_no_snapshot, &mut rng, 2)
        })
        .expect("stock-level");
    }
    assert_eq!(allocs, 0, "stock-level as a regular transaction allocated");
    assert!(
        low_stock > 0,
        "stock-level never found an item below its threshold"
    );

    // ---- Writers: only what outlives them ------------------------------
    // What a window may have allocated, from the engine's own accounting:
    // record-pool misses and arena chunks, index nodes, trie layers and
    // suffix buffers (a buffer and its box) created, and `unhook_keys`.
    let long_lived = |worker: &silo_core::Worker| {
        let index = db.index_stats();
        worker.stats().pool_misses
            + worker.stats().arena_chunk_allocs
            + index.leaves
            + index.inners
            + index.layer_creations
            + 2 * index.suffix_entries
    };
    // The tables are shared between warehouses: one scan sees every row.
    let pending_new_orders = |worker: &mut silo_core::Worker| {
        let mut txn = worker.begin();
        let rows = txn
            .scan(tables.id(TpccTable::NewOrder, 1), b"", None, None)
            .expect("scan")
            .len() as u64;
        txn.commit().expect("read-only commit");
        rows
    };

    maintain(&mut worker);
    let before = long_lived(&worker);
    // A rolled-back new-order (1 %) leaves its insert placeholders to the
    // garbage collector; nothing else of an aborted transaction is garbage.
    let (mut allocs, mut committed, mut unhook_keys) = (0, 0, 0);
    for _ in 0..300 {
        let garbage = worker.pending_garbage();
        match counted(&mut allocs, || {
            txns::new_order(&mut worker, &tables, &cfg, &mut rng, 1)
        }) {
            Ok(_) => committed += 1,
            Err(_) => unhook_keys += (worker.pending_garbage() - garbage) as u64,
        }
    }
    let allowed = long_lived(&worker) - before + unhook_keys;
    assert!(committed >= 290, "new-order mostly commits: {committed}");
    assert!(
        allocs <= allowed,
        "300 new-orders allocated {allocs} times but only {allowed} things outlive them"
    );

    maintain(&mut worker);
    let before = long_lived(&worker);
    let mut allocs = 0;
    for _ in 0..300 {
        counted(&mut allocs, || {
            txns::payment(&mut worker, &tables, &cfg, &mut rng, 2)
        })
        .expect("payment");
    }
    let allowed = long_lived(&worker) - before;
    assert!(
        allocs <= allowed,
        "300 payments allocated {allocs} times but only {allowed} things outlive them"
    );

    // Delivery deletes one NEW-ORDER row per district it serves; GC between
    // deliveries unhooks them, so every delivery has work to do.
    maintain(&mut worker);
    let before = long_lived(&worker);
    let pending_before = pending_new_orders(&mut worker);
    let mut allocs = 0;
    for _ in 0..20 {
        maintain(&mut worker);
        counted(&mut allocs, || {
            txns::delivery(&mut worker, &tables, &cfg, &mut rng, 1)
        })
        .expect("delivery");
    }
    let deleted = pending_before - pending_new_orders(&mut worker);
    let allowed = long_lived(&worker) - before + deleted;
    assert!(
        deleted >= 20,
        "deliveries found orders to deliver: {deleted}"
    );
    assert!(
        allocs <= allowed,
        "20 deliveries allocated {allocs} times but only {allowed} things outlive them"
    );
}
