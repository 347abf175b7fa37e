// Snapshot transactions (paper §4.9): they read the database as of the
// snapshot epoch, never abort, and keep seeing versions that later writes
// replaced or deleted. Included into `crate::tests` (lib.rs), which holds the
// imports.

#[test]
fn snapshot_transactions_read_the_past_and_never_abort() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    txn.write(t, b"row", b"old-value").unwrap();
    txn.commit().unwrap();

    // Advance far enough that the committed value is covered by a snapshot
    // epoch (k = 5 in the test config).
    advance_epochs(&db, &[&w], 12);

    // Overwrite the row in the present.
    let mut txn = w.begin();
    txn.write(t, b"row", b"new-value").unwrap();
    txn.commit().unwrap();

    // A snapshot transaction still sees the old value; a regular transaction
    // sees the new one.
    let mut snap = w.begin_snapshot();
    assert!(snap.snapshot_epoch() >= 1);
    assert_eq!(snap.read(t, b"row"), Some(b"old-value".to_vec()));
    snap.finish();

    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"row").unwrap(), Some(b"new-value".to_vec()));
    txn.commit().unwrap();
    assert_eq!(w.stats().snapshot_commits, 1);
}

#[test]
fn snapshot_scan_ignores_keys_inserted_after_snapshot() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    for i in 0..5u32 {
        txn.write(t, format!("old{}", i).as_bytes(), b"v").unwrap();
    }
    txn.commit().unwrap();

    advance_epochs(&db, &[&w], 12);

    let mut txn = w.begin();
    for i in 0..5u32 {
        txn.write(t, format!("new{}", i).as_bytes(), b"v").unwrap();
    }
    txn.commit().unwrap();

    let mut snap = w.begin_snapshot();
    let rows = snap.scan(t, b"", None, None);
    assert_eq!(rows.len(), 5, "snapshot must not see the new keys");
    assert!(rows.iter().all(|(k, _)| k.starts_with(b"old")));
    drop(snap);

    let mut txn = w.begin();
    assert_eq!(txn.scan(t, b"", None, None).unwrap().len(), 10);
    txn.commit().unwrap();
}

#[test]
fn snapshot_sees_deleted_rows_that_existed_at_snapshot_time() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    txn.write(t, b"doomed", b"still-here").unwrap();
    txn.commit().unwrap();

    advance_epochs(&db, &[&w], 12);

    let mut txn = w.begin();
    assert!(txn.delete(t, b"doomed").unwrap());
    txn.commit().unwrap();

    let mut snap = w.begin_snapshot();
    assert_eq!(snap.read(t, b"doomed"), Some(b"still-here".to_vec()));
    drop(snap);

    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"doomed").unwrap(), None);
    txn.commit().unwrap();
}

#[test]
fn snapshot_reads_are_consistent_under_concurrent_updates() {
    // Writers keep two keys equal; snapshot readers must never observe them
    // differing (a regular read could, before commit-time validation).
    let db = Database::open(SiloConfig {
        spawn_epoch_advancer: true,
        ..SiloConfig::for_testing()
    });
    let t = db.create_table("t").unwrap();
    {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        txn.write(t, b"left", &0u64.to_be_bytes()).unwrap();
        txn.write(t, b"right", &0u64.to_be_bytes()).unwrap();
        txn.commit().unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut w = db.register_worker();
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                let mut txn = w.begin();
                txn.write(t, b"left", &n.to_be_bytes()).unwrap();
                txn.write(t, b"right", &n.to_be_bytes()).unwrap();
                let _ = txn.commit();
            }
        })
    };
    let mut w = db.register_worker();
    for _ in 0..200 {
        let mut snap = w.begin_snapshot();
        let l = snap.read(t, b"left");
        let r = snap.read(t, b"right");
        assert_eq!(l, r, "snapshot saw a half-applied transaction");
        drop(snap);
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    db.stop_epoch_advancer();
}

/// Without in-place overwrite every write installs a new record. The second
/// one inside a snapshot interval does not keep its predecessor, so it has
/// to inherit the predecessor's link to the version snapshots still read.
#[test]
fn snapshot_chain_survives_a_second_new_version_in_one_interval() {
    let db = Database::open(SiloConfig::for_testing().with_overwrite_in_place(false));
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"row", b"old-value").unwrap();
    txn.commit().unwrap();
    advance_epochs(&db, &[&w], 12);
    for v in [b"new-value-1", b"new-value-2"] {
        let mut txn = w.begin();
        txn.write(t, b"row", v).unwrap();
        txn.commit().unwrap();
    }
    let mut snap = w.begin_snapshot();
    assert_eq!(snap.read(t, b"row"), Some(b"old-value".to_vec()));
}
