// Garbage collection (paper §4.8): deleted keys are unhooked once no reader
// can see them, and only when the collector is on. Included into
// `crate::tests` (lib.rs), which holds the imports.

#[test]
fn garbage_collection_unhooks_deleted_keys() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    for i in 0..20u32 {
        txn.write(t, format!("k{:02}", i).as_bytes(), b"v").unwrap();
    }
    txn.commit().unwrap();

    let mut txn = w.begin();
    for i in 0..20u32 {
        assert!(txn.delete(t, format!("k{:02}", i).as_bytes()).unwrap());
    }
    txn.commit().unwrap();

    let table_len_before = db.table(t).approximate_len();
    assert_eq!(table_len_before, 20, "absent records stay until GC");

    // Let both the snapshot and tree reclamation epochs move past the delete.
    for _ in 0..40 {
        advance_epochs(&db, &[&w], 1);
        // Keep the worker's epochs current so reclamation epochs advance.
        let txn = w.begin();
        txn.commit().unwrap();
        w.collect_garbage();
    }
    assert!(
        db.table(t).approximate_len() < 20,
        "GC should have unhooked deleted keys (len = {})",
        db.table(t).approximate_len()
    );
    assert!(w.stats().records_reclaimed > 0);
}

#[test]
fn no_gc_configuration_leaves_absent_records_in_place() {
    let db = Database::open(SiloConfig::for_testing().without_gc());
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"k", b"v").unwrap();
    txn.commit().unwrap();
    let mut txn = w.begin();
    txn.delete(t, b"k").unwrap();
    txn.commit().unwrap();
    for _ in 0..40 {
        advance_epochs(&db, &[&w], 1);
        w.collect_garbage();
    }
    assert_eq!(db.table(t).approximate_len(), 1);
    assert_eq!(w.pending_garbage(), 0);
}
