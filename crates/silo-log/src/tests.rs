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

/// A scratch directory of this test process, removed when dropped.
pub(crate) struct ScratchDir(PathBuf);

impl std::ops::Deref for ScratchDir {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh, empty scratch directory: the process id and a process-wide
/// counter make it unique, so tests running in parallel never share one.
pub(crate) fn scratch_dir(name: &str) -> ScratchDir {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("silo-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    ScratchDir(dir)
}

/// Writes `streams[i]` as the first segment of logger `i` under `dir`.
pub(crate) fn write_segments(dir: &std::path::Path, streams: &[Vec<u8>]) {
    for (i, stream) in streams.iter().enumerate() {
        std::fs::write(dir.join(format!("silo-log-{i}-seg000000.bin")), stream).unwrap();
    }
}

/// The log of logger `logger` under `dir`: its segment files, read in
/// sequence order.
pub(crate) fn log_stream(dir: &std::path::Path, logger: usize) -> Vec<u8> {
    let mut segments: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let (idx, seq) = sink::parse_segment_name(name)?;
            (idx == logger).then_some((seq, path))
        })
        .collect();
    segments.sort();
    segments
        .iter()
        .flat_map(|(_, path)| std::fs::read(path).unwrap())
        .collect()
}

/// Recovers the log directory `dir` into a fresh database with one table
/// `name`.
pub(crate) fn recovered(name: &str, dir: &std::path::Path) -> (Arc<Database>, RecoveryReport) {
    let db = Database::open(SiloConfig::for_testing());
    db.create_table(name).unwrap();
    let report = recover_directory(&db, dir, &RecoveryOptions::default()).unwrap();
    (db, report)
}

/// Fails unless every table of `db` is free of records that are latest and
/// absent: recovery builds no record for a key whose last write deletes it.
pub(crate) fn assert_no_absent_record(db: &Database) {
    for id in db.table_ids() {
        for (key, value) in db.table(id).tree().scan(b"", None, None).entries {
            // SAFETY: the table's records live as long as the database, and
            // no transaction runs.
            let word = unsafe { (*(value as *const silo_core::record::Record)).tid().load() };
            assert!(
                !(word.is_latest() && word.is_absent()),
                "table {id} key {key:?}: an absent record survived recovery"
            );
        }
    }
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
    let dir = scratch_dir("durable");
    let (db, logger) = logged_db(LogConfig::to_directory(&*dir, 2));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut last_tid = silo_core::Tid::ZERO;
    for i in 0..50u32 {
        let mut txn = w.begin();
        txn.write(t, format!("key{i}").as_bytes(), b"value")
            .unwrap();
        last_tid = txn.commit().unwrap();
    }
    // The worker is done; dropping it takes it out of its epoch, so the
    // logger steals its partial buffer and the durable epoch moves past it.
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
    assert!(logger.stats().bytes_published > 0);
    db.stop_epoch_advancer();
}

#[test]
fn durable_epoch_lags_commits_until_logged() {
    let dir = scratch_dir("lag");
    let (db, logger) = logged_db(LogConfig::to_directory(&*dir, 1));
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
    // Once shutdown has stopped the logger threads nothing can advance the
    // durable epoch, so a timed wait must report `Failed` like the untimed
    // one does — not burn its whole timeout.
    let dir = scratch_dir("wait-shutdown");
    let (db, logger) = logged_db(LogConfig::to_directory(&*dir, 1));
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
    let dir = scratch_dir("prefix");
    let (db, logger) = logged_db(LogConfig::to_directory(&*dir, 2));
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
    db.stop_epoch_advancer();

    // "Crash": open a fresh database, recreate the schema, replay the logs.
    let (db2, report) = recovered("accounts", &dir);
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
    let dir = scratch_dir("small-recs");
    let (db, logger) = logged_db(LogConfig {
        mode: LogMode::SmallRecords,
        ..LogConfig::to_directory(&*dir, 1)
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
    let small_bytes = logger.stats().bytes_published;
    db.stop_epoch_advancer();

    let full_dir = scratch_dir("full-recs");
    let (db_full, logger_full) = logged_db(LogConfig::to_directory(&*full_dir, 1));
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
    let full_bytes = logger_full.stats().bytes_published;
    db_full.stop_epoch_advancer();

    assert!(
        small_bytes * 4 < full_bytes,
        "SmallRecords ({small_bytes} B) should be much smaller than FullRecords ({full_bytes} B)"
    );
    // And the small-records log carries no key/value data: every
    // transaction is seen, none restores anything.
    let (db2, report) = recovered("t", &dir);
    assert_eq!((report.replayed_txns, report.replayed_writes), (50, 0));
    assert!(full_scan(&db2, t).is_empty());
}

#[test]
fn compressed_logs_shrink_and_recover_identically() {
    let make = |compress: bool| {
        let dir = scratch_dir("compress");
        let (db, logger) = logged_db(LogConfig {
            compress,
            ..LogConfig::to_directory(&*dir, 1)
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
        let bytes: u64 = std::fs::read_dir(&*dir)
            .unwrap()
            .map(|entry| entry.unwrap().metadata().unwrap().len())
            .sum();
        (dir, bytes)
    };
    let (plain_dir, plain_bytes) = make(false);
    let (comp_dir, comp_bytes) = make(true);
    assert!(
        comp_bytes < plain_bytes,
        "compressed log ({comp_bytes}) should be smaller than plain ({plain_bytes})"
    );

    let restore = |dir: &std::path::Path| full_scan(&recovered("t", dir).0, 0);
    let rows = restore(&plain_dir);
    assert_eq!(rows.len(), 80);
    assert_eq!(rows, restore(&comp_dir));
}

#[test]
fn idle_worker_partial_buffer_is_stolen_and_becomes_durable() {
    // A worker commits once (a partial buffer, far below the watermark) and
    // then goes idle without finishing. The event-driven logger must
    // steal-publish the stale buffer on an epoch tick — otherwise the
    // durable epoch would be stuck behind the idle worker forever.
    let dir = scratch_dir("idle-steal");
    let (db, logger) = logged_db(LogConfig {
        buffer_capacity: 1024 * 1024,
        ..LogConfig::to_directory(&*dir, 1)
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
    logger.shutdown();
    let (db2, _) = recovered("t", &dir);
    assert_eq!(
        full_scan(&db2, t),
        vec![(b"lonely".to_vec(), b"value".to_vec())]
    );
    db.stop_epoch_advancer();
}

#[test]
fn worker_finish_flushes_partial_buffers() {
    // A finished worker's partial buffer reaches the log without any
    // finish-time flush: dropping the worker leaves its epoch, and the
    // first logger round whose floor passes that epoch steals the buffer.
    let dir = scratch_dir("drop-steal");
    let (db, logger) = logged_db(LogConfig {
        buffer_capacity: 1024 * 1024, // never fills by size
        ..LogConfig::to_directory(&*dir, 1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"solo", b"value").unwrap();
    let tid = txn.commit().unwrap();
    drop(w);
    assert!(
        logger
            .wait_for_durable(tid.epoch(), Duration::from_secs(5))
            .is_durable(),
        "a dropped worker's partial buffer never became durable (durable epoch {})",
        logger.durable_epoch()
    );
    assert!(
        logger.stats().steal_publishes >= 1,
        "the only publish path for a dropped worker is the steal"
    );
    logger.shutdown();
    let (db2, _) = recovered("t", &dir);
    assert_eq!(
        full_scan(&db2, t),
        vec![(b"solo".to_vec(), b"value".to_vec())]
    );
    db.stop_epoch_advancer();
}

#[test]
fn ten_thousand_short_lived_workers_share_one_slot_and_log_every_commit() {
    // Each worker registers, commits one write and drops, so the next one
    // gets the same id and the same log buffer: the records its predecessor
    // left there are published by its first commit in a new epoch, or by
    // the steal.
    let dir = scratch_dir("one-slot");
    let (db, logger) = logged_db(LogConfig::to_directory(&*dir, 1));
    let t = db.create_table("t").unwrap();
    let mut last = silo_core::Tid::ZERO;
    for cycle in 0..10_000u32 {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        txn.write(t, &cycle.to_be_bytes(), b"v").unwrap();
        last = txn.commit().unwrap();
    }
    assert_eq!(db.epochs().worker_count(), 0);
    assert_eq!(db.epochs().high_water(), 1);
    assert!(logger
        .wait_for_durable(last.epoch(), Duration::from_secs(10))
        .is_durable());
    logger.shutdown();
    let (db2, _) = recovered("t", &dir);
    assert_eq!(full_scan(&db2, t).len(), 10_000);
    db.stop_epoch_advancer();
}

#[test]
fn compression_happens_on_the_logger_side() {
    // Workers publish raw bytes; the logger compresses while batching. The
    // counters make the division of labour observable: published (raw) bytes
    // must exceed written (compressed) bytes on repetitive data.
    let dir = scratch_dir("logger-compress");
    let (db, logger) = logged_db(LogConfig {
        compress: true,
        ..LogConfig::to_directory(&*dir, 1)
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
    let dir = scratch_dir("pool-races");
    let (db, logger) = logged_db(LogConfig {
        buffer_capacity: 256, // tiny watermark: publish every couple of txns
        pool_buffers: 2,      // force pool misses under pressure
        ..LogConfig::to_directory(&*dir, 2)
    });
    let t = db.create_table("t").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for thread in 0..3u64 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            // Each drop leaves a partial buffer for the logger's steal scan,
            // or for the next generation, which may get the same id.
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
    let (_, report) = recovered("t", &dir);
    assert_eq!(report.corrupt_log_tails, 0);
    db.stop_epoch_advancer();
}

#[test]
fn stats_snapshots_are_consistent_under_concurrent_publishes() {
    // A one-byte watermark makes every commit publish, so two writers move
    // the publish counters as fast as they can while a reader snapshots
    // them. A publish counts its buffer and its pool draw together, and a
    // snapshot must never show one without the other.
    let dir = scratch_dir("stats-snapshots");
    let (db, logger) = logged_db(LogConfig {
        buffer_capacity: 1,
        ..LogConfig::to_directory(&*dir, 2)
    });
    let t = db.create_table("t").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|thread| {
            let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut w = db.register_worker();
                for i in 0u64.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let key = format!("w{thread}k{}", i % 64);
                    let mut txn = w.begin();
                    // An OCC abort in the write skips this commit.
                    if txn.write(t, key.as_bytes(), b"v").is_ok() {
                        let _ = txn.commit();
                    }
                }
            })
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(1);
    let (mut snapshots, mut torn) = (0u64, 0u64);
    while Instant::now() < deadline {
        let stats = logger.stats();
        snapshots += 1;
        torn += u64::from(stats.pool_hits + stats.pool_misses != stats.buffers_published);
    }
    stop.store(true, Ordering::Relaxed);
    for writer in writers {
        writer.join().expect("writer panicked");
    }
    logger.shutdown();
    db.stop_epoch_advancer();

    assert!(snapshots > 1_000, "only {snapshots} snapshots in 1 s");
    assert!(logger.stats().buffers_published > 0, "no commit published");
    assert_eq!(torn, 0, "{torn} of {snapshots} snapshots were torn");
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
fn a_logged_load_recovers_to_an_identical_table() {
    let dir = scratch_dir("logged-load");
    let (expected, loaded) = {
        let (db, logger) = logged_db(LogConfig::to_directory(&*dir, 2));
        let t = db.create_table("t").unwrap();
        let loaded = db.create_table("loaded").unwrap();
        let rows: Vec<(Vec<u8>, Vec<u8>)> = (0..1_300u32)
            .map(|i| {
                (
                    format!("row{i:05}").into_bytes(),
                    vec![i as u8; 1 + i as usize % 90],
                )
            })
            .collect();
        let mut w = db.register_worker();
        w.load(loaded, rows.iter().map(|(k, v)| (k, v))).unwrap();
        let mut txn = w.begin();
        txn.write(t, b"after", b"the load").unwrap();
        let last = txn.commit().unwrap();
        drop(w);
        assert!(logger
            .wait_for_durable(last.epoch(), Duration::from_secs(10))
            .is_durable());
        let expected = full_scan(&db, loaded);
        assert_eq!(expected, rows);
        logger.shutdown();
        db.stop_epoch_advancer();
        (expected, loaded)
    };
    let db2 = Database::open(SiloConfig::for_testing());
    db2.create_table("t").unwrap();
    assert_eq!(db2.create_table("loaded").unwrap(), loaded);
    let report = recover_directory(&db2, &dir, &RecoveryOptions::default()).unwrap();
    assert_eq!(
        report.replayed_txns,
        3 + 1,
        "three batches of at most 512 rows"
    );
    assert_eq!(full_scan(&db2, loaded), expected);
}

#[test]
fn a_table_in_two_checkpoint_runs_is_a_recovery_error() {
    use crate::checkpoint::tests::{slice_bytes, write_checkpoint};
    let tid = silo_core::Tid::new(2, 1);
    let recover = |records: &[(silo_core::TableId, &[u8], silo_core::Tid, &[u8])]| {
        let dir = scratch_dir("two-runs");
        write_checkpoint(&dir, 3, &[(&slice_bytes(records), records.len() as u64)]);
        let db = Database::open(SiloConfig::for_testing());
        db.create_table("a").unwrap();
        db.create_table("b").unwrap();
        match recover_directory(&db, &dir, &RecoveryOptions::default()) {
            Err(RecoveryError::Apply(why)) => why,
            other => panic!("expected an apply error, got {other:?}"),
        }
    };
    let why = recover(&[
        (0, b"k1", tid, b"v"),
        (1, b"k1", tid, b"v"),
        (0, b"k2", tid, b"v"),
    ]);
    assert!(why.contains("one run each"), "{why}");
    let why = recover(&[(0, b"k2", tid, b"v"), (0, b"k1", tid, b"v")]);
    assert!(why.contains("sorts below"), "{why}");
}

#[test]
fn checkpoint_truncates_log_and_recovery_replays_only_the_tail() {
    let dir = scratch_dir("ckpt-e2e");
    let expected;
    let ckpt_epoch;
    {
        let (db, logger) = logged_db(LogConfig {
            // Tiny segments so the pre-checkpoint history spans several files
            // truncation can reclaim.
            segment_bytes: 4096,
            ..LogConfig::to_directory(&*dir, 2)
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
                ..CheckpointConfig::new(&*dir)
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
    let report = recover_directory(&db2, &dir, &RecoveryOptions { replay_threads: 3 }).unwrap();
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

    // The tail's delete of a checkpointed key dropped its row from the
    // build: the index holds exactly the live keys, and no absent record.
    assert!(
        db2.table(t2).tree().get(b"ka299").is_none(),
        "the ka299 row deleted in the tail was built: {report:?}"
    );
    assert_eq!(
        db2.table(t2).approximate_len(),
        expected.len(),
        "no absent records may stay hooked after recovery"
    );
    assert_no_absent_record(&db2);

    // Post-recovery, the epochs are past the recovered horizon: new commits
    // get TIDs that sort after everything recovered.
    let mut w = db2.register_worker();
    let mut txn = w.begin();
    txn.write(t2, b"post", b"recovery").unwrap();
    let tid = txn.commit().unwrap();
    assert!(tid.epoch() > report.durable_epoch);
}

#[test]
fn paced_checkpoint_is_throttled_but_complete() {
    let dir = scratch_dir("ckpt-paced");
    let (db, logger) = logged_db(LogConfig::to_directory(&*dir, 1));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..4000u32 {
        let mut txn = w.begin();
        txn.write(t, format!("k{i:04}").as_bytes(), &[b'x'; 64])
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

    // The pacer sleeps only between the walk's 1024-key chunks, so the table
    // spans four: ~380 KB of slice data at 1 MB/s, and sleeping off the
    // first three chunks' ~290 KB alone takes ~290 ms (the unpaced walk
    // finishes in milliseconds).
    let ckpt = Checkpointer::spawn(
        Arc::clone(&db),
        Arc::clone(&logger),
        CheckpointConfig {
            interval: Duration::from_secs(3600),
            writers: 2,
            max_walk_bytes_per_sec: 1_000_000,
            ..CheckpointConfig::new(&*dir)
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
    assert_eq!(stats.last_records, 4000);

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
}

#[test]
fn checkpoint_crash_sites_fire_from_the_loggers_fault_plan() {
    // One fault plan per durability root: the plan installed on the
    // `LogConfig` alone also schedules the checkpointer's crash points.
    let plan =
        Arc::new(FaultPlan::new().fail_at(FaultSite::CkptBeforeManifest, 1, FaultKind::Crash));
    let dir = scratch_dir("ckpt-crash-plan");
    let (db, logger) = logged_db(LogConfig {
        fault: Some(Arc::clone(&plan)),
        ..LogConfig::to_directory(&*dir, 1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..100u32 {
        let mut txn = w.begin();
        txn.write(t, format!("k{i:03}").as_bytes(), b"v").unwrap();
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

    let ckpt = Checkpointer::spawn(
        Arc::clone(&db),
        Arc::clone(&logger),
        CheckpointConfig {
            interval: Duration::from_secs(3600),
            ..CheckpointConfig::new(&*dir)
        },
    );
    let err = ckpt
        .run_now()
        .expect_err("the crash before the manifest fires");
    assert!(fault::is_injected_crash(&err), "{err}");
    // The crash point fired once and is counted like any other fault.
    assert!(plan.exhausted());
    assert_eq!(plan.injected(), 1);
    assert_eq!(logger.stats().faults_injected, 1);
    // The walk's slices stay behind, as after a `kill -9`, but no manifest
    // marks the checkpoint complete.
    let attempts: Vec<PathBuf> = std::fs::read_dir(dir.join("checkpoints"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    assert_eq!(attempts.len(), 1, "{attempts:?}");
    assert!(!attempts[0].join("MANIFEST").exists());

    let expected = full_scan(&db, t);
    ckpt.shutdown();
    logger.shutdown();
    db.stop_epoch_advancer();
    // Recovery ignores the incomplete attempt and replays the whole log.
    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("t").unwrap();
    let report = recover_directory(&db2, &dir, &RecoveryOptions::default()).unwrap();
    assert_eq!(report.checkpoint_epoch, 0);
    assert_eq!(report.replayed_txns, 100);
    assert_eq!(full_scan(&db2, t2), expected);
}

#[test]
fn recovery_without_any_checkpoint_still_replays_the_whole_log() {
    let dir = scratch_dir("nockpt-e2e");
    let expected;
    {
        let (db, logger) = logged_db(LogConfig::to_directory(&*dir, 2));
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
}

/// Commits `rows` keys `{prefix}{i}` and waits until they are durable and
/// inside the snapshot a checkpoint taken now would walk.
fn commit_durable_rows(
    db: &Arc<Database>,
    logger: &SiloLogger,
    t: silo_core::TableId,
    prefix: &str,
    rows: u32,
) {
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..rows {
        let mut txn = w.begin();
        txn.write(t, format!("{prefix}{i:03}").as_bytes(), &[b'v'; 64])
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
}

#[test]
fn a_rotted_newest_checkpoint_fails_recovery_instead_of_losing_rows() {
    // Two checkpoints over small segments: the second truncates the log the
    // first one would need. Rotting the second must not leave recovery to
    // load the first and report a durable epoch past the rows it lost.
    let dir = scratch_dir("ckpt-rot");
    let checkpoint;
    {
        let (db, logger) = logged_db(LogConfig {
            segment_bytes: 4096,
            ..LogConfig::to_directory(&*dir, 1)
        });
        let t = db.create_table("t").unwrap();
        let ckpt = Checkpointer::spawn(
            Arc::clone(&db),
            Arc::clone(&logger),
            CheckpointConfig {
                interval: Duration::from_secs(3600),
                ..CheckpointConfig::new(&*dir)
            },
        );
        commit_durable_rows(&db, &logger, t, "a", 200);
        ckpt.run_now().unwrap().expect("first checkpoint");
        commit_durable_rows(&db, &logger, t, "b", 200);
        let deleted = logger.stats().segments_deleted;
        checkpoint = ckpt.run_now().unwrap().expect("second checkpoint");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while logger.stats().segments_deleted == deleted {
            assert!(
                std::time::Instant::now() < deadline,
                "the second checkpoint truncated nothing: {}",
                logger.stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        commit_durable_rows(&db, &logger, t, "c", 200);
        ckpt.shutdown();
        logger.shutdown();
        db.stop_epoch_advancer();
    }

    let (epoch, newest) = checkpoint::newest_checkpoint(&dir).expect("complete checkpoint");
    let newest = newest.expect("intact before the rot");
    assert_eq!((epoch, newest.epoch), (checkpoint, checkpoint));
    let (slice, bytes, _) = &newest.slices[0];
    let mut rotted = std::fs::read(slice).unwrap();
    rotted[*bytes as usize / 2] ^= 0x10;
    std::fs::write(slice, rotted).unwrap();

    let db = Database::open(SiloConfig::for_testing());
    let t = db.create_table("t").unwrap();
    let result = recover_directory(&db, &dir, &RecoveryOptions::default());
    let rows = full_scan(&db, t).len();
    assert!(
        result.is_err(),
        "recovery returned Ok with {rows} of 600 rows: {result:?}"
    );
    match result {
        Err(RecoveryError::Checkpoint { epoch, error }) => {
            assert_eq!(epoch, checkpoint);
            assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{error}");
        }
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
    assert_eq!(rows, 0, "nothing is loaded");
}

#[test]
fn transient_faults_are_retried_and_commits_stay_durable() {
    let plan = Arc::new(
        crate::fault::FaultPlan::new()
            .fail_at(FaultSite::Append, 1, FaultKind::Transient)
            .fail_at(FaultSite::Append, 3, FaultKind::Transient)
            .fail_at(FaultSite::Sync, 2, FaultKind::Transient),
    );
    let dir = scratch_dir("transient");
    let (db, logger) = logged_db(LogConfig {
        fault: Some(Arc::clone(&plan)),
        ..LogConfig::to_directory(&*dir, 1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    // Four waves, each waited out until durable, so the log takes at least
    // four rounds and every scheduled fault fires: a single burst can
    // coalesce into one round, which never reaches the second sync.
    for i in 0..200u32 {
        let mut txn = w.begin();
        txn.write(t, format!("k{i}").as_bytes(), b"v").unwrap();
        last = txn.commit().unwrap();
        if i % 50 == 49 {
            w.quiesce();
            assert!(logger
                .wait_for_durable(last.epoch(), Duration::from_secs(10))
                .is_durable());
        }
    }
    drop(w);
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
    assert_eq!(stats.faults_injected, 3, "{stats}");
    logger.shutdown();

    // Every committed transaction survives the retried faults, and the
    // failed sync was retried on a reopened segment, as in production.
    let (_, report) = recovered("t", &dir);
    assert!(report.durable_epoch >= last.epoch());
    assert_eq!(report.replayed_txns, 200);
    assert!(
        stats.sync_reopens >= 1,
        "a failed sync must reopen the segment: {stats}"
    );
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
    let dir = scratch_dir("fsyncgate");
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
            ..LogConfig::to_directory(&*dir, 1)
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
}

#[test]
fn a_permanent_fault_degrades_the_logger_instead_of_aborting() {
    let plan = Arc::new(crate::fault::FaultPlan::new().fail_at(
        FaultSite::Append,
        1,
        FaultKind::Permanent,
    ));
    let dir = scratch_dir("permanent");
    let (db, logger) = logged_db(LogConfig {
        fault: Some(plan),
        ..LogConfig::to_directory(&*dir, 1)
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
fn publishes_into_a_closed_inbox_drop_their_records() {
    // A logger that stopped or failed closes its mailbox. A publish after
    // that drops its records (they can never become durable) instead of
    // queueing a buffer that nothing drains, and draws no replacement
    // buffer from the pool.
    for failed in [false, true] {
        let plan = FaultPlan::new().fail_at(FaultSite::Append, 1, FaultKind::Permanent);
        let dir = scratch_dir("closed-inbox");
        let (db, logger) = logged_db(LogConfig {
            buffer_capacity: 256,
            fault: failed.then(|| Arc::new(plan)),
            ..LogConfig::to_directory(&*dir, 1)
        });
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let full = vec![b'v'; 256];
        let mut put = |key: &[u8]| {
            let mut txn = w.begin();
            txn.write(t, key, &full).unwrap();
            txn.commit().unwrap()
        };
        if failed {
            // The publish starts a round whose append fails for good.
            let tid = put(b"first");
            assert_eq!(
                logger.wait_for_durable(tid.epoch(), Duration::from_secs(10)),
                DurableWait::Failed
            );
        } else {
            logger.shutdown();
        }
        let before = logger.stats();
        for i in 0..4u8 {
            put(&[i]);
        }
        let after = logger.stats();
        assert_eq!(
            after.buffers_published, before.buffers_published,
            "failed: {failed}"
        );
        assert_eq!(
            after.pool_hits + after.pool_misses,
            before.pool_hits + before.pool_misses,
            "failed: {failed}"
        );
        drop(w);
        logger.shutdown();
        db.stop_epoch_advancer();
    }
}

#[test]
fn a_round_that_fails_to_reach_the_sink_is_not_counted() {
    // The first append fails for good: that round was sealed, but it never
    // reached the sink, so no counter of written rounds may include it.
    let plan = FaultPlan::new().fail_at(FaultSite::Append, 1, FaultKind::Permanent);
    let dir = scratch_dir("uncounted");
    let (db, logger) = logged_db(LogConfig {
        fault: Some(Arc::new(plan)),
        ..LogConfig::to_directory(&*dir, 1)
    });
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"k", b"v").unwrap();
    let tid = txn.commit().unwrap();
    drop(w);
    assert_eq!(
        logger.wait_for_durable(tid.epoch(), Duration::from_secs(10)),
        DurableWait::Failed
    );
    let stats = logger.stats();
    assert_eq!(stats.logger_failures, 1);
    assert_eq!(stats.faults_injected, 1);
    assert_eq!(stats.checksum_blocks, 0, "{stats}");
    assert_eq!(stats.sync_calls, 0, "{stats}");
    assert_eq!(stats.bytes_written, 0, "{stats}");
    assert_eq!(stats.durable_advances, 0, "{stats}");
    logger.shutdown();
    db.stop_epoch_advancer();
}

#[test]
fn logger_phase_times_and_durable_advances_move() {
    let dir = scratch_dir("phase-times");
    let (db, logger) = logged_db(LogConfig::to_directory(&*dir, 1));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut last = silo_core::Tid::ZERO;
    for i in 0..200u32 {
        let mut txn = w.begin();
        txn.write(t, &i.to_le_bytes(), &[b'v'; 100]).unwrap();
        last = txn.commit().unwrap();
    }
    drop(w);
    assert!(logger
        .wait_for_durable(last.epoch(), Duration::from_secs(10))
        .is_durable());
    // Stopped, so the counters hold still while they are read.
    logger.shutdown();
    let stats = logger.stats();
    assert!(stats.checksum_blocks > 0, "{stats}");
    for (name, value) in [
        ("seal_ns", stats.seal_ns),
        ("append_ns", stats.append_ns),
        ("sync_ns", stats.sync_ns),
        ("durable_advances", stats.durable_advances),
        ("durable_advance_ns", stats.durable_advance_ns),
    ] {
        assert!(value > 0, "{name} did not move: {stats}");
    }
    // Only a written round can raise `d_l`.
    assert!(stats.durable_advances <= stats.sync_calls, "{stats}");
    db.stop_epoch_advancer();
}

#[test]
fn enospc_on_rotation_keeps_the_current_segment_writable() {
    let dir = scratch_dir("enospc");
    {
        let plan = Arc::new(crate::fault::FaultPlan::new().fail_at(
            FaultSite::Rotate,
            1,
            FaultKind::NoSpace,
        ));
        let (db, logger) = logged_db(LogConfig {
            segment_bytes: 4096,
            fault: Some(Arc::clone(&plan)),
            ..LogConfig::to_directory(&*dir, 1)
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
        let on_disk: u64 = std::fs::read_dir(&*dir)
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
        let sealed_streams: Vec<Vec<u8>> = streams
            .iter()
            .map(|stream| {
                let mut bytes = stream.clone();
                encode_epoch_marker(&mut bytes, durable);
                sealed(&bytes)
            })
            .collect();
        write_segments(dir, &sealed_streams);
    }

    /// Writes a checkpoint at `ce` holding `state` (key -> (tid, value)) in
    /// the on-disk slice + manifest format.
    fn write_checkpoint(dir: &std::path::Path, ce: u64, state: &HashMap<u8, (Tid, Vec<u8>)>) {
        use crate::checkpoint::tests::{slice_bytes, write_checkpoint as write_slices};
        let mut keys: Vec<(Vec<u8>, &(Tid, Vec<u8>))> =
            state.iter().map(|(k, v)| (key_bytes(*k), v)).collect();
        keys.sort();
        let records: Vec<(silo_core::TableId, &[u8], Tid, &[u8])> = keys
            .iter()
            .map(|(key, (tid, value))| (0, key.as_slice(), *tid, value.as_slice()))
            .collect();
        write_slices(dir, ce, &[(&slice_bytes(&records), records.len() as u64)]);
    }

    /// Recovers `dir` into a fresh database and returns the full table scan.
    fn recover_scan(dir: &std::path::Path) -> Vec<(Vec<u8>, Vec<u8>)> {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        recover_directory(&db, dir, &RecoveryOptions { replay_threads: 2 }).unwrap();
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

            let root = scratch_dir("ckpt-prop");

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
        }
    }
}
