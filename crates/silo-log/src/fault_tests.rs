// Sink faults: transient ones are retried and commits stay durable,
// permanent ones degrade the logger instead of aborting it, and a round that
// never reached the sink is not counted. Included into `crate::tests`
// (lib.rs), which holds the imports.

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
