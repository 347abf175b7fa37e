//! End-to-end durability tests: commit → log → durable epoch → recovery.

use super::*;
use silo_core::SiloConfig;
use std::sync::Arc;

/// Wraps already-encoded inner blocks in one CRC-sealed envelope, as a logger
/// thread does with a group-commit round.
pub(crate) fn sealed(inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let header = record::begin_sealed(&mut out);
    out.extend_from_slice(inner);
    record::seal(&mut out, header);
    out
}

/// The tuple form of a write-set, as [`record::encode_txn`] takes it.
pub(crate) fn as_writes<'a>(
    writes: &'a [(silo_core::TableId, &'a [u8], Option<&'a [u8]>)],
) -> impl ExactSizeIterator<Item = silo_core::CommitWrite<'a>> + 'a {
    writes
        .iter()
        .map(|&(table, key, value)| silo_core::CommitWrite { table, key, value })
}

/// Every block of `stream`, through the one decoder.
pub(crate) fn decode_all(stream: &[u8]) -> Result<Vec<record::Block>, record::DecodeError> {
    let mut decoder = record::StreamDecoder::new(stream);
    let mut blocks = Vec::new();
    while let Some(block) = decoder.next_block()? {
        blocks.push(block);
    }
    Ok(blocks)
}

/// A fresh, empty scratch directory unique to this test process.
pub(crate) fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("silo-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Recovers in-memory `logs` into a fresh database with one table `name`.
pub(crate) fn recovered(name: &str, logs: &[Vec<u8>]) -> (Arc<Database>, RecoveryReport) {
    let db = Database::open(SiloConfig::for_testing());
    db.create_table(name).unwrap();
    let report = recover_into(&db, logs).unwrap();
    (db, report)
}

fn logged_db(log_config: LogConfig) -> (Arc<Database>, Arc<SiloLogger>) {
    let db = Database::open(
        SiloConfig::for_testing()
            .with_spawn_epoch_advancer(true)
            .with_epoch(silo_core::EpochConfig {
                epoch_interval: Duration::from_millis(2),
                snapshot_interval_epochs: 5,
            }),
    );
    let logger = SiloLogger::install(log_config, &db).expect("install logger");
    (db, logger)
}

#[test]
fn committed_transactions_become_durable() {
    let (db, logger) = logged_db(LogConfig::in_memory(2));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut last_tid = silo_core::Tid::ZERO;
    for i in 0..50u32 {
        let mut txn = w.begin();
        txn.write(t, format!("key{i}").as_bytes(), b"value")
            .unwrap();
        last_tid = txn.commit().unwrap();
    }
    // The worker is done; dropping it flushes its buffer and stops it from
    // holding back the durable epoch.
    drop(w);
    // The group-commit property: once the durable epoch passes the commit
    // epoch, the transaction is recoverable.
    assert!(
        logger
            .wait_for_durable(last_tid.epoch(), Duration::from_secs(5))
            .is_durable(),
        "durable epoch never reached {} (currently {})",
        last_tid.epoch(),
        logger.durable_epoch()
    );
    assert!(logger.is_durable(last_tid));
    assert!(logger.bytes_published() > 0);
    db.stop_epoch_advancer();
}

#[test]
fn durable_epoch_lags_commits_until_logged() {
    let (db, logger) = logged_db(LogConfig::in_memory(1));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"k", b"v").unwrap();
    let tid = txn.commit().unwrap();
    // Group commit means durability is deferred to an epoch boundary: the
    // commit's epoch cannot already be durable at the instant commit returns,
    // because the epoch it belongs to is still open.
    assert!(logger.durable_epoch() <= tid.epoch());
    drop(w);
    assert!(logger
        .wait_for_durable(tid.epoch(), Duration::from_secs(5))
        .is_durable());
    db.stop_epoch_advancer();
}

#[test]
fn timed_durable_wait_fails_fast_across_shutdown() {
    // Once shutdown has detached the logger threads nothing can advance the
    // durable epoch, so a timed wait must report `Failed` like the untimed
    // one does — not burn its whole timeout.
    let (db, logger) = logged_db(LogConfig::in_memory(1));
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let waiter = {
        let logger = Arc::clone(&logger);
        std::thread::spawn(move || {
            started_tx.send(()).unwrap();
            let start = std::time::Instant::now();
            let outcome = logger.wait_for_durable(u64::MAX, Duration::from_secs(20));
            (outcome, start.elapsed())
        })
    };
    started_rx.recv().unwrap();
    logger.shutdown();
    let (outcome, waited) = waiter.join().unwrap();
    assert_eq!(outcome, DurableWait::Failed);
    assert!(
        waited < Duration::from_secs(10),
        "the wait outlived shutdown by {waited:?}"
    );
    // A wait that starts after shutdown fails immediately too.
    assert_eq!(
        logger.wait_for_durable(u64::MAX, Duration::from_secs(20)),
        DurableWait::Failed
    );
    db.stop_epoch_advancer();
}

#[test]
fn recovery_restores_exactly_the_durable_prefix() {
    let (db, logger) = logged_db(LogConfig::in_memory(2));
    let t = db.create_table("accounts").unwrap();
    let mut w = db.register_worker();

    for i in 0..100u32 {
        let mut txn = w.begin();
        txn.write(t, format!("acct{i:03}").as_bytes(), &i.to_be_bytes())
            .unwrap();
        txn.commit().unwrap();
    }
    let mut txn = w.begin();
    txn.delete(t, b"acct007").unwrap();
    let delete_tid = txn.commit().unwrap();
    drop(w);
    assert!(logger
        .wait_for_durable(delete_tid.epoch(), Duration::from_secs(5))
        .is_durable());
    logger.shutdown();
    let logs = logger.memory_logs();
    db.stop_epoch_advancer();

    // "Crash": open a fresh database, recreate the schema, replay the logs.
    let (db2, report) = recovered("accounts", &logs);
    assert!(report.durable_epoch >= delete_tid.epoch());
    assert_eq!(report.replayed_txns, 101);

    let mut w2 = db2.register_worker();
    let mut txn = w2.begin();
    for i in 0..100u32 {
        let key = format!("acct{i:03}");
        let expected = if i == 7 {
            None
        } else {
            Some(i.to_be_bytes().to_vec())
        };
        assert_eq!(txn.read(t, key.as_bytes()).unwrap(), expected, "acct{i:03}");
    }
    txn.commit().unwrap();
}

#[test]
fn small_records_mode_logs_less_but_recovers_nothing_useful() {
    let (db, logger) = logged_db(LogConfig {
        mode: LogMode::SmallRecords,
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..50u32 {
        let mut txn = w.begin();
        txn.write(
            t,
            format!("key-with-a-long-name-{i}").as_bytes(),
            &[0u8; 100],
        )
        .unwrap();
        last = txn.commit().unwrap();
    }
    drop(w);
    assert!(logger
        .wait_for_durable(last.epoch(), Duration::from_secs(5))
        .is_durable());
    logger.shutdown();
    let small_bytes = logger.bytes_published();
    db.stop_epoch_advancer();

    let (db_full, logger_full) = logged_db(LogConfig::in_memory(1));
    let tf = db_full.create_table("t").unwrap();
    let mut wf = db_full.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..50u32 {
        let mut txn = wf.begin();
        txn.write(
            tf,
            format!("key-with-a-long-name-{i}").as_bytes(),
            &[0u8; 100],
        )
        .unwrap();
        last = txn.commit().unwrap();
    }
    drop(wf);
    assert!(logger_full
        .wait_for_durable(last.epoch(), Duration::from_secs(5))
        .is_durable());
    logger_full.shutdown();
    let full_bytes = logger_full.bytes_published();
    db_full.stop_epoch_advancer();

    assert!(
        small_bytes * 4 < full_bytes,
        "SmallRecords ({small_bytes} B) should be much smaller than FullRecords ({full_bytes} B)"
    );
    // And the small-records log carries no key/value data: every
    // transaction is seen, none restores anything.
    let (db2, report) = recovered("t", &logger.memory_logs());
    assert_eq!((report.replayed_txns, report.replayed_writes), (50, 0));
    assert!(full_scan(&db2, t).is_empty());
}

#[test]
fn compressed_logs_shrink_and_recover_identically() {
    let make = |compress: bool| {
        let (db, logger) = logged_db(LogConfig {
            compress,
            ..LogConfig::in_memory(1)
        });
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let mut last = silo_core::Tid::ZERO;
        for i in 0..80u32 {
            let mut txn = w.begin();
            // Highly repetitive values, as OLTP records tend to be.
            let value = format!(
                "warehouse-{:04}-district-{:02}-padding-{}",
                i % 4,
                i % 10,
                "x".repeat(60)
            );
            txn.write(t, format!("key{i:04}").as_bytes(), value.as_bytes())
                .unwrap();
            last = txn.commit().unwrap();
        }
        drop(w);
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(5))
            .is_durable());
        logger.shutdown();
        db.stop_epoch_advancer();
        let logs = logger.memory_logs();
        let bytes: usize = logs.iter().map(Vec::len).sum();
        (logs, bytes)
    };
    let (plain_logs, plain_bytes) = make(false);
    let (comp_logs, comp_bytes) = make(true);
    assert!(
        comp_bytes < plain_bytes,
        "compressed log ({comp_bytes}) should be smaller than plain ({plain_bytes})"
    );

    let restore = |logs: &[Vec<u8>]| full_scan(&recovered("t", logs).0, 0);
    let rows = restore(&plain_logs);
    assert_eq!(rows.len(), 80);
    assert_eq!(rows, restore(&comp_logs));
}

#[test]
fn idle_worker_partial_buffer_is_stolen_and_becomes_durable() {
    // A worker commits once (a partial buffer, far below the watermark) and
    // then goes idle without finishing. The event-driven logger must
    // steal-publish the stale buffer on an epoch tick — otherwise the
    // durable epoch would be stuck behind the idle worker forever.
    let (db, logger) = logged_db(LogConfig {
        buffer_capacity: 1024 * 1024,
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"lonely", b"value").unwrap();
    let tid = txn.commit().unwrap();
    // Quiesce (but keep the worker alive and unfinished) so the global epoch
    // can advance past the commit.
    w.quiesce();
    assert!(
        logger
            .wait_for_durable(tid.epoch(), Duration::from_secs(5))
            .is_durable(),
        "stolen partial buffer never became durable (durable epoch {})",
        logger.durable_epoch()
    );
    assert!(
        logger.stats().steal_publishes >= 1,
        "the only publish path for an idle worker is the steal"
    );
    let (db2, _) = recovered("t", &logger.memory_logs());
    assert_eq!(
        full_scan(&db2, t),
        vec![(b"lonely".to_vec(), b"value".to_vec())]
    );
    db.stop_epoch_advancer();
}

#[test]
fn compression_happens_on_the_logger_side() {
    // Workers publish raw bytes; the logger compresses while batching. The
    // counters make the division of labour observable: published (raw) bytes
    // must exceed written (compressed) bytes on repetitive data.
    let (db, logger) = logged_db(LogConfig {
        compress: true,
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..60u32 {
        let mut txn = w.begin();
        let value = format!("district-{:02}-{}", i % 10, "pad".repeat(40));
        txn.write(t, format!("key{i:04}").as_bytes(), value.as_bytes())
            .unwrap();
        last = txn.commit().unwrap();
    }
    drop(w);
    assert!(logger
        .wait_for_durable(last.epoch(), Duration::from_secs(5))
        .is_durable());
    logger.shutdown();
    let stats = logger.stats();
    assert!(
        stats.bytes_written < stats.bytes_published,
        "logger-side compression must shrink the stream ({} written vs {} published)",
        stats.bytes_written,
        stats.bytes_published
    );
    db.stop_epoch_advancer();
}

#[test]
fn pool_survives_finish_steal_and_shutdown_races() {
    // Stress the recycled pool: workers registering/finishing in a loop,
    // epoch-boundary and watermark publishes, logger steals, and a shutdown
    // fired while workers are still committing. The run must not panic, the
    // pool accounting must balance, and whatever reached the sinks must
    // still be a decodable, replayable log.
    use std::sync::atomic::{AtomicBool, Ordering};
    let (db, logger) = logged_db(LogConfig {
        buffer_capacity: 256, // tiny watermark: publish every couple of txns
        pool_buffers: 2,      // force pool misses under pressure
        ..LogConfig::in_memory(2)
    });
    let t = db.create_table("t").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for thread in 0..3u64 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            // Bounded re-registration (worker ids are finite): each drop
            // exercises on_worker_finish racing the logger's steal scan.
            for generation in 0..25u64 {
                let mut w = db.register_worker();
                for i in 0..80u64 {
                    let key = format!("t{thread}g{generation}k{}", i % 17);
                    let value = vec![b'v'; 64];
                    // OCC aborts (e.g. node-set validation or fixup when a
                    // concurrent insert splits a shared leaf) are legitimate
                    // under this storm, in the write as well as the commit;
                    // the one-shot model simply re-executes.
                    loop {
                        let mut txn = w.begin();
                        if txn.write(t, key.as_bytes(), &value).is_ok() && txn.commit().is_ok() {
                            break;
                        }
                    }
                    if i % 19 == 0 {
                        w.quiesce(); // let steals and epoch advances interleave
                        std::thread::yield_now();
                    }
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
        }));
    }
    // Shut the logging subsystem down in the middle of the commit storm.
    std::thread::sleep(Duration::from_millis(30));
    logger.shutdown();
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("stress worker panicked");
    }

    let stats = logger.stats();
    assert_eq!(
        stats.pool_hits + stats.pool_misses,
        stats.buffers_published,
        "every publish draws exactly one replacement buffer"
    );
    assert!(stats.buffers_published > 0);

    // The sinks hold a valid log prefix: decodable, and replayable into a
    // fresh database.
    let (_, report) = recovered("t", &logger.memory_logs());
    assert_eq!(report.corrupt_log_tails, 0);
    db.stop_epoch_advancer();
}

#[test]
fn worker_finish_flushes_partial_buffers() {
    let (db, logger) = logged_db(LogConfig {
        buffer_capacity: 1024 * 1024, // never fills by size
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"solo", b"value").unwrap();
    let tid = txn.commit().unwrap();
    // Nothing forces the buffer out except the epoch boundary / finish call.
    use silo_core::CommitHook;
    logger.on_worker_finish(w.id());
    // A finished worker has also left its epoch (dropping it does both).
    w.quiesce();
    assert!(logger
        .wait_for_durable(tid.epoch(), Duration::from_secs(5))
        .is_durable());
    logger.shutdown();
    let (db2, _) = recovered("t", &logger.memory_logs());
    assert_eq!(
        full_scan(&db2, t),
        vec![(b"solo".to_vec(), b"value".to_vec())]
    );
    db.stop_epoch_advancer();
}

// ---------------------------------------------------------------------------
// Checkpointing + parallel recovery
// ---------------------------------------------------------------------------

/// Every row of `table`, via a fresh worker (sorted by key, as `scan` is).
fn full_scan(db: &Arc<Database>, table: silo_core::TableId) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut w = db.register_worker();
    let mut txn = w.begin();
    let rows = txn.scan(table, b"", None, None).unwrap();
    txn.commit().unwrap();
    rows
}

#[test]
fn checkpoint_truncates_log_and_recovery_replays_only_the_tail() {
    let dir = std::env::temp_dir().join(format!("silo-ckpt-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let expected;
    let ckpt_epoch;
    {
        let (db, logger) = logged_db(LogConfig {
            // Tiny segments so the pre-checkpoint history spans several files
            // truncation can reclaim.
            segment_bytes: 4096,
            ..LogConfig::to_directory(&dir, 2)
        });
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        // Pre-checkpoint history: inserts, overwrites, and deletes.
        let mut last = silo_core::Tid::ZERO;
        for i in 0..300u32 {
            let mut txn = w.begin();
            txn.write(t, format!("ka{i:03}").as_bytes(), &[b'a'; 64])
                .unwrap();
            last = txn.commit().unwrap();
        }
        for i in 0..20u32 {
            let mut txn = w.begin();
            txn.delete(t, format!("ka{i:03}").as_bytes()).unwrap();
            last = txn.commit().unwrap();
        }
        drop(w);
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(10))
            .is_durable());
        // The checkpoint scan walks the snapshot at `SE`; wait until that
        // snapshot covers the history above.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while db.epochs().global_snapshot_epoch() <= last.epoch() {
            assert!(
                std::time::Instant::now() < deadline,
                "snapshot epoch stalled"
            );
            std::thread::sleep(Duration::from_millis(2));
        }

        let ckpt = Checkpointer::spawn(
            Arc::clone(&db),
            Arc::clone(&logger),
            CheckpointConfig {
                interval: Duration::from_secs(3600), // only explicit run_now
                writers: 2,
                chunk: 64,
                ..CheckpointConfig::new(&dir)
            },
        );
        ckpt_epoch = ckpt.run_now().unwrap().expect("checkpoint written");
        let stats = ckpt.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.last_epoch, ckpt_epoch);
        assert_eq!(stats.last_records, 280, "300 inserts minus 20 deletes");
        assert!(stats.last_bytes > 0 && stats.last_micros > 0);

        // Post-checkpoint tail: overwrite checkpointed keys, delete a
        // checkpointed key, re-insert a pre-checkpoint delete, add new keys.
        let mut w = db.register_worker();
        for i in 100..150u32 {
            let mut txn = w.begin();
            txn.write(t, format!("ka{i:03}").as_bytes(), b"tail-overwrite")
                .unwrap();
            txn.commit().unwrap();
        }
        {
            let mut txn = w.begin();
            txn.delete(t, b"ka299").unwrap();
            txn.write(t, b"ka000", b"revived-after-ckpt").unwrap();
            txn.write(t, b"kb-new", b"tail-insert").unwrap();
            last = txn.commit().unwrap();
        }
        drop(w);
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(10))
            .is_durable());

        // Truncation is asynchronous (logger threads act on their next
        // round): poll for it.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while logger.stats().segments_deleted == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no segment was truncated: {}",
                logger.stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(logger.stats().bytes_truncated > 0);

        expected = full_scan(&db, t);
        ckpt.shutdown();
        logger.shutdown();
        db.stop_epoch_advancer();
    }

    // Recover into a fresh database: schema first, then checkpoint + tail.
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("t").unwrap();
    let report = recover_directory(
        &db2,
        &dir,
        &RecoveryOptions {
            replay_threads: 3,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.checkpoint_epoch, ckpt_epoch);
    assert_eq!(report.checkpoint_records, 280);
    assert!(report.durable_epoch > ckpt_epoch);
    assert!(
        report.replayed_txns >= 51,
        "the 51 tail transactions must replay"
    );
    assert!(
        report.log_bytes_scanned > 0 && report.checkpoint_bytes > 0,
        "both sources must contribute"
    );
    assert_eq!(full_scan(&db2, t2), expected);

    // The tail's delete of a checkpointed key left an absent record that the
    // post-replay sweep must have unhooked: the index holds exactly the live
    // keys, not live keys + tombstones.
    assert!(
        report.tombstones_reclaimed >= 1,
        "the ka299 delete tombstone must be swept: {report:?}"
    );
    assert_eq!(
        db2.table(t2).approximate_len(),
        expected.len(),
        "no absent records may stay hooked after recovery"
    );

    // Post-recovery, the epochs are past the recovered horizon: new commits
    // get TIDs that sort after everything recovered.
    let mut w = db2.register_worker();
    let mut txn = w.begin();
    txn.write(t2, b"post", b"recovery").unwrap();
    let tid = txn.commit().unwrap();
    assert!(tid.epoch() > report.durable_epoch);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn paced_checkpoint_is_throttled_but_complete() {
    let dir = std::env::temp_dir().join(format!("silo-ckpt-paced-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (db, logger) = logged_db(LogConfig::to_directory(&dir, 1));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..300u32 {
        let mut txn = w.begin();
        txn.write(t, format!("k{i:03}").as_bytes(), &[b'x'; 64])
            .unwrap();
        last = txn.commit().unwrap();
    }
    drop(w);
    assert!(logger
        .wait_for_durable(last.epoch(), Duration::from_secs(10))
        .is_durable());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while db.epochs().global_snapshot_epoch() <= last.epoch() {
        assert!(
            std::time::Instant::now() < deadline,
            "snapshot epoch stalled"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // ~25 KB of slice data at 100 KB/s: the walk alone must take ≥ 200 ms
    // (the unpaced walk finishes in single-digit milliseconds).
    let ckpt = Checkpointer::spawn(
        Arc::clone(&db),
        Arc::clone(&logger),
        CheckpointConfig {
            interval: Duration::from_secs(3600),
            writers: 2,
            chunk: 32,
            max_walk_bytes_per_sec: 100_000,
            ..CheckpointConfig::new(&dir)
        },
    );
    let started = std::time::Instant::now();
    let epoch = ckpt.run_now().unwrap().expect("checkpoint written");
    assert!(
        started.elapsed() >= Duration::from_millis(150),
        "paced walk finished too fast: {:?}",
        started.elapsed()
    );
    let stats = ckpt.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.last_records, 300);

    // The paced checkpoint is just as usable: recover from it.
    let expected = full_scan(&db, t);
    ckpt.shutdown();
    logger.shutdown();
    db.stop_epoch_advancer();
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("t").unwrap();
    let report = recover_directory(&db2, &dir, &RecoveryOptions::default()).unwrap();
    assert_eq!(report.checkpoint_epoch, epoch);
    assert_eq!(full_scan(&db2, t2), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_without_any_checkpoint_still_replays_the_whole_log() {
    let dir = std::env::temp_dir().join(format!("silo-nockpt-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let expected;
    {
        let (db, logger) = logged_db(LogConfig::to_directory(&dir, 2));
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let mut last = silo_core::Tid::ZERO;
        for i in 0..64u32 {
            let mut txn = w.begin();
            txn.write(t, format!("k{i:02}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
            last = txn.commit().unwrap();
        }
        drop(w);
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(10))
            .is_durable());
        expected = full_scan(&db, t);
        logger.shutdown();
        db.stop_epoch_advancer();
    }
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("t").unwrap();
    let report = recover_directory(&db2, &dir, &RecoveryOptions::default()).unwrap();
    assert_eq!(report.checkpoint_epoch, 0);
    assert_eq!(report.checkpoint_records, 0);
    assert_eq!(report.replayed_txns, 64);
    assert_eq!(report.log_files, 2, "one first segment per logger");
    assert_eq!(full_scan(&db2, t2), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn transient_faults_are_retried_and_commits_stay_durable() {
    let plan = Arc::new(
        crate::fault::FaultPlan::new()
            .fail_at(FaultSite::Append, 1, FaultKind::Transient)
            .fail_at(FaultSite::Append, 3, FaultKind::Transient)
            .fail_at(FaultSite::Sync, 2, FaultKind::Transient),
    );
    let (db, logger) = logged_db(LogConfig {
        fault: Some(Arc::clone(&plan)),
        retry_backoff: Duration::from_micros(50),
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..200u32 {
        let mut txn = w.begin();
        txn.write(t, format!("k{i}").as_bytes(), b"v").unwrap();
        last = txn.commit().unwrap();
    }
    drop(w);
    assert!(logger
        .wait_for_durable(last.epoch(), Duration::from_secs(10))
        .is_durable());
    assert_eq!(
        logger.durability_health(),
        silo_core::DurabilityHealth::Healthy
    );
    let stats = logger.stats();
    assert!(
        stats.retries >= 1,
        "injected transient faults must be retried"
    );
    assert!(stats.backoff_micros > 0);
    assert_eq!(stats.logger_failures, 0);
    assert!(stats.faults_injected >= 1);
    logger.shutdown();

    // Every committed transaction survives the retried faults.
    let (_, report) = recovered("t", &logger.memory_logs());
    assert!(report.durable_epoch >= last.epoch());
    assert_eq!(report.replayed_txns, 200);
    db.stop_epoch_advancer();
}

#[test]
fn failed_syncs_reopen_the_segment_before_retrying() {
    // fsyncgate: after a failed fsync the kernel may mark dirty pages clean,
    // so retrying fsync on the same descriptor can falsely succeed. The
    // logger must instead reopen the segment, discard the unsynced tail, and
    // rewrite the round. Inject transient sync failures (plus a stall, which
    // succeeds slowly and must NOT trigger a reopen) against a real file
    // sink and verify both the reopen counter and that every commit is
    // recoverable from the files afterwards.
    let dir = std::env::temp_dir().join(format!("silo-log-fsyncgate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let expected;
    let last;
    {
        let plan = Arc::new(
            crate::fault::FaultPlan::new()
                .fail_at(FaultSite::Sync, 1, FaultKind::Transient)
                .fail_at(FaultSite::Sync, 3, FaultKind::SyncStall { millis: 5 })
                .fail_at(FaultSite::Sync, 4, FaultKind::Transient),
        );
        let (db, logger) = logged_db(LogConfig {
            fault: Some(Arc::clone(&plan)),
            retry_backoff: Duration::from_micros(50),
            ..LogConfig::to_directory(&dir, 1)
        });
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let mut tid = silo_core::Tid::ZERO;
        for i in 0..200u32 {
            let mut txn = w.begin();
            txn.write(t, format!("k{i:03}").as_bytes(), b"v").unwrap();
            tid = txn.commit().unwrap();
        }
        drop(w);
        assert!(logger
            .wait_for_durable(tid.epoch(), Duration::from_secs(10))
            .is_durable());
        let stats = logger.stats();
        assert!(
            stats.sync_reopens >= 1,
            "a failed sync must reopen the segment, not re-sync the fd: {stats}"
        );
        assert!(stats.retries >= stats.sync_reopens);
        assert_eq!(stats.logger_failures, 0);
        expected = full_scan(&db, t);
        last = tid;
        logger.shutdown();
        db.stop_epoch_advancer();
    }
    // The rewritten rounds must leave a clean, fully replayable log.
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("t").unwrap();
    let report = recover_directory(&db2, &dir, &RecoveryOptions::default()).unwrap();
    assert!(report.durable_epoch >= last.epoch());
    assert_eq!(report.replayed_txns, 200);
    assert_eq!(full_scan(&db2, t2), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_permanent_fault_degrades_the_logger_instead_of_aborting() {
    let plan = Arc::new(crate::fault::FaultPlan::new().fail_at(
        FaultSite::Append,
        1,
        FaultKind::Permanent,
    ));
    let (db, logger) = logged_db(LogConfig {
        fault: Some(plan),
        retry_budget: Duration::from_millis(50),
        ..LogConfig::in_memory(1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let tid = {
        let mut txn = w.begin();
        txn.write(t, b"doomed", b"v").unwrap();
        txn.commit().unwrap()
    };
    drop(w);

    // The first append fails permanently: the logger marks itself failed and
    // the wait reports that as a typed outcome — the process never aborts.
    assert_eq!(
        logger.wait_for_durable(tid.epoch(), Duration::from_secs(10)),
        DurableWait::Failed
    );
    assert_eq!(
        logger.durability_health(),
        silo_core::DurabilityHealth::Failed
    );
    assert_eq!(db.durability_health(), silo_core::DurabilityHealth::Failed);
    assert_eq!(logger.stats().logger_failures, 1);

    // Commits still complete (acknowledged-but-not-durable) and shutdown
    // drains cleanly through the degraded logger.
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"after-failure", b"v").unwrap();
    txn.commit().unwrap();
    drop(w);
    logger.shutdown();
    db.stop_epoch_advancer();
}

#[test]
fn enospc_on_rotation_keeps_the_current_segment_writable() {
    let dir = std::env::temp_dir().join(format!("silo-log-enospc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let plan = Arc::new(crate::fault::FaultPlan::new().fail_at(
            FaultSite::Rotate,
            1,
            FaultKind::NoSpace,
        ));
        let (db, logger) = logged_db(LogConfig {
            segment_bytes: 4096,
            fault: Some(Arc::clone(&plan)),
            ..LogConfig::to_directory(&dir, 1)
        });
        let t = db.create_table("t").unwrap();
        let mut last = silo_core::Tid::ZERO;
        // Commit in waves (a fresh worker per wave, so each wave's partial
        // buffer is published when it drops), waiting out each group-commit
        // round, so the logger attempts rotation more than once — a single
        // burst can coalesce into one round: one rotate attempt (the injected
        // failure) and done.
        let mut i = 0u32;
        for _wave in 0..40 {
            let mut w = db.register_worker();
            for _ in 0..50 {
                let mut txn = w.begin();
                txn.write(t, format!("key{i:04}").as_bytes(), &[b'x'; 64])
                    .unwrap();
                last = txn.commit().unwrap();
                i += 1;
            }
            drop(w);
            assert!(logger
                .wait_for_durable(last.epoch(), Duration::from_secs(10))
                .is_durable());
            if i >= 400 && logger.stats().segments_rotated >= 1 {
                break;
            }
        }
        let total = i;

        // The failed rotation is non-fatal: the segment that was due to roll
        // stays writable, durability keeps advancing, and a later round
        // rotates successfully.
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(10))
            .is_durable());
        let stats = logger.stats();
        assert_eq!(stats.logger_failures, 0);
        assert_eq!(stats.faults_injected, 1);
        assert!(stats.segments_rotated >= 1, "a later rotation must succeed");
        logger.shutdown();
        db.stop_epoch_advancer();
        // Every byte on disk is counted, the fresh segments' rotation stamps
        // included.
        let on_disk: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().metadata().unwrap().len())
            .sum();
        assert_eq!(logger.stats().bytes_written, on_disk);

        // Everything acknowledged recovers.
        let db2 = Database::open(SiloConfig::for_testing());
        let t2 = db2.create_table("t").unwrap();
        let report = recover_directory(&db2, &dir, &RecoveryOptions::default()).unwrap();
        assert!(report.durable_epoch >= last.epoch());
        assert_eq!(full_scan(&db2, t2).len(), total as usize);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

mod checkpoint_equivalence {
    //! Property test for the recovery horizon story: restoring the latest
    //! checkpoint (epoch `ce`) and replaying only the log tail must be
    //! byte-for-byte equivalent to replaying the *full* log from scratch,
    //! for arbitrary commit histories — including deletes and re-inserts
    //! whose lifetimes straddle the checkpoint epoch, and whether or not the
    //! covered log prefix was already truncated away.

    use super::*;
    use crate::record::{encode_epoch_marker, encode_txn};
    use crate::tests::as_writes;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use silo_core::Tid;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique scratch-directory counter across proptest cases.
    static CASE: AtomicU64 = AtomicU64::new(0);

    const MAX_EPOCH: u64 = 5;

    fn key_bytes(k: u8) -> Vec<u8> {
        vec![b'k', b'0' + k / 10, b'0' + k % 10]
    }

    fn value_bytes(v: u8) -> Vec<u8> {
        vec![v; (v % 5) as usize + 1]
    }

    /// One logged transaction: (epoch, writes as (key, Some(value) | delete)).
    fn arb_txn() -> impl Strategy<Value = (u8, Vec<(u8, Option<u8>)>)> {
        (
            1u8..=MAX_EPOCH as u8,
            vec((0u8..12, proptest::option::of(any::<u8>())), 1..4),
        )
    }

    /// Writes `streams` as one segment file per logger under `dir`, each
    /// stream terminated by a durable-epoch marker at `durable`.
    fn write_log_dir(dir: &std::path::Path, streams: &[Vec<u8>], durable: u64) {
        std::fs::create_dir_all(dir).unwrap();
        for (i, stream) in streams.iter().enumerate() {
            let mut bytes = stream.clone();
            encode_epoch_marker(&mut bytes, durable);
            std::fs::write(
                dir.join(format!("silo-log-{i}-seg000000.bin")),
                sealed(&bytes),
            )
            .unwrap();
        }
    }

    /// Writes a checkpoint at `ce` holding `state` (key -> (tid, value)) in
    /// the on-disk slice + manifest format.
    fn write_checkpoint(dir: &std::path::Path, ce: u64, state: &HashMap<u8, (Tid, Vec<u8>)>) {
        use crate::checkpoint::tests::{slice_bytes, write_one_slice_checkpoint};
        let mut keys: Vec<(Vec<u8>, &(Tid, Vec<u8>))> =
            state.iter().map(|(k, v)| (key_bytes(*k), v)).collect();
        keys.sort();
        let records: Vec<(silo_core::TableId, &[u8], Tid, &[u8])> = keys
            .iter()
            .map(|(key, (tid, value))| (0, key.as_slice(), *tid, value.as_slice()))
            .collect();
        write_one_slice_checkpoint(dir, ce, &slice_bytes(&records), records.len() as u64);
    }

    /// Recovers `dir` into a fresh database and returns the full table scan.
    fn recover_scan(dir: &std::path::Path) -> Vec<(Vec<u8>, Vec<u8>)> {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        recover_directory(
            &db,
            dir,
            &RecoveryOptions {
                replay_threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        full_scan(&db, t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn checkpoint_plus_tail_equals_full_log_replay(
            txns in vec(arb_txn(), 1..32),
            ce in 0u64..=MAX_EPOCH,
            split_bits in any::<u64>(),
        ) {
            // Assign each transaction a unique TID (its position is the
            // sequence number, so same-epoch TIDs are distinct) and spread
            // them over two logger streams — arrival order within a stream is
            // *not* TID order, exactly as with real loggers.
            let mut streams = vec![Vec::new(), Vec::new()];
            let mut tail_streams = vec![Vec::new(), Vec::new()];
            let mut model: HashMap<u8, (Tid, Option<Vec<u8>>)> = HashMap::new();
            // Same shape for the checkpoint-time state: deletes must keep
            // their TID as a tombstone while folding (generation order is
            // not TID order), and only materialize as "key absent" at the
            // end.
            let mut ckpt_model: HashMap<u8, (Tid, Option<Vec<u8>>)> = HashMap::new();
            for (i, (epoch, raw_writes)) in txns.iter().enumerate() {
                let tid = Tid::new(*epoch as u64, i as u64 + 1);
                // A committed write-set holds one entry per key (later writes
                // in a transaction overwrite earlier ones): dedupe last-wins.
                let mut writes: Vec<(u8, Option<u8>)> = Vec::new();
                for (k, v) in raw_writes {
                    if let Some(slot) = writes.iter_mut().find(|(key, _)| key == k) {
                        slot.1 = *v;
                    } else {
                        writes.push((*k, *v));
                    }
                }
                let encoded: Vec<(silo_core::TableId, Vec<u8>, Option<Vec<u8>>)> = writes
                    .iter()
                    .map(|(k, v)| (0, key_bytes(*k), v.map(value_bytes)))
                    .collect();
                let borrowed: Vec<(silo_core::TableId, &[u8], Option<&[u8]>)> = encoded
                    .iter()
                    .map(|(t, k, v)| (*t, k.as_slice(), v.as_deref()))
                    .collect();
                let stream = ((split_bits >> (i % 64)) & 1) as usize;
                encode_txn(&mut streams[stream], tid, as_writes(&borrowed), false);
                if tid.epoch() > ce {
                    encode_txn(&mut tail_streams[stream], tid, as_writes(&borrowed), false);
                }
                for (k, v) in &writes {
                    // Reference model: the largest TID wins per key.
                    let slot = model.entry(*k).or_insert((Tid::ZERO, None));
                    if tid > slot.0 {
                        *slot = (tid, v.map(value_bytes));
                    }
                    // Checkpoint state: largest TID at or below `ce` wins.
                    if tid.epoch() <= ce {
                        let slot = ckpt_model.entry(*k).or_insert((Tid::ZERO, None));
                        if tid > slot.0 {
                            *slot = (tid, v.map(value_bytes));
                        }
                    }
                }
            }
            // Deleted keys are simply not present in a written checkpoint.
            let ckpt_state: HashMap<u8, (Tid, Vec<u8>)> = ckpt_model
                .into_iter()
                .filter_map(|(k, (tid, v))| v.map(|v| (k, (tid, v))))
                .collect();
            let expected: Vec<(Vec<u8>, Vec<u8>)> = {
                let mut rows: Vec<_> = model
                    .iter()
                    .filter_map(|(k, (_, v))| v.clone().map(|v| (key_bytes(*k), v)))
                    .collect();
                rows.sort();
                rows
            };

            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let root = std::env::temp_dir()
                .join(format!("silo-ckpt-prop-{}-{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);

            // (a) Full-log replay, no checkpoint.
            let full = root.join("full");
            write_log_dir(&full, &streams, MAX_EPOCH + 1);
            prop_assert_eq!(&recover_scan(&full), &expected, "full-log replay diverged");

            if ce > 0 {
                // (b) Checkpoint + *untruncated* logs: the covered prefix is
                // still on disk and must be skipped, not double-applied.
                let with_ckpt = root.join("ckpt-full-logs");
                write_log_dir(&with_ckpt, &streams, MAX_EPOCH + 1);
                write_checkpoint(&with_ckpt, ce, &ckpt_state);
                prop_assert_eq!(
                    &recover_scan(&with_ckpt), &expected,
                    "checkpoint + untruncated log diverged (ce={})", ce
                );

                // (c) Checkpoint + truncated logs: only the tail survives.
                let truncated = root.join("ckpt-tail-only");
                write_log_dir(&truncated, &tail_streams, MAX_EPOCH + 1);
                write_checkpoint(&truncated, ce, &ckpt_state);
                prop_assert_eq!(
                    &recover_scan(&truncated), &expected,
                    "checkpoint + truncated log diverged (ce={})", ce
                );
            }
            std::fs::remove_dir_all(&root).unwrap();
        }
    }
}
