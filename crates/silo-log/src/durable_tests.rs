// Commit to durable (paper §4.10): committed transactions become durable
// once the logger writes their epoch, and a log recovers exactly the
// durable prefix, in every logging mode. Included into `crate::tests`
// (lib.rs), which holds the imports.

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
