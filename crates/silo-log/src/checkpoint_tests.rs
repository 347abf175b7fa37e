// Checkpoints and log truncation: a checkpoint plus the log tail behind it
// recovers what the whole log would, the covered log is truncated, and a
// damaged newest checkpoint fails recovery rather than losing rows.
// Included into `crate::tests` (lib.rs), which holds the imports.

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
