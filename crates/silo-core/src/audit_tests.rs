// The paper's §3 rule that reads write nothing shared, checked with the
// shared-write audit counter. Included into `crate::tests` (lib.rs), which
// holds the imports.

/// The paper's §3 design rule, pinned end-to-end: a warmed, committed
/// read-only transaction — epoch refresh, index point reads (hits and
/// misses), a range scan, read/node-set validation, TID generation — writes
/// **nothing** to memory shared between threads. Every shared-write site in
/// the workspace calls `shared_write_audit::note()`; per-worker
/// cache-padded epoch slots and sharded reader-retry cells are the two
/// sanctioned (unaudited) patterns. The counter is live in debug builds
/// only; in release the test still checks that the commit left the TID word
/// of every record it read unchanged.
#[test]
fn read_only_transactions_write_nothing_shared() {
    use silo_epoch::shared_write_audit;

    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    // Warm: populate enough rows for splits, plus long keys for trie
    // layers, and run one full read-only transaction so worker-local caches
    // (table cache, thread-locals) are primed.
    let mut txn = w.begin();
    for i in 0..500u64 {
        let k = format!("warm{i:08}");
        txn.write(t, k.as_bytes(), b"v").unwrap();
    }
    for i in 0..32u64 {
        let k = format!("longprefix-shared-{i:04}-with-a-tail");
        txn.write(t, k.as_bytes(), b"v").unwrap();
    }
    txn.commit().unwrap();
    let mut txn = w.begin();
    assert!(txn.read(t, b"warm00000001").unwrap().is_some());
    let _ = txn
        .scan(t, b"warm00000100", Some(b"warm00000200"), None)
        .unwrap();
    txn.commit().unwrap();

    // A committed read-only transaction installs nothing, so the TID words
    // of the records it read must not move.
    let read_keys: Vec<String> = (0..500u64)
        .step_by(13)
        .map(|i| format!("warm{i:08}"))
        .chain(["longprefix-shared-0007-with-a-tail".to_string()])
        .collect();
    let tid_words = || -> Vec<u64> {
        read_keys
            .iter()
            .map(|k| {
                let (val, _, _) = db.table(t).tree().get_tracked(k.as_bytes());
                let rec = val.unwrap() as *const record::Record;
                // SAFETY: the record is live (no collector ran).
                unsafe { (*rec).tid().load().raw() }
            })
            .collect()
    };
    let before = tid_words();

    let _ = shared_write_audit::take();

    // Measured: a read-only transaction of point reads (present and absent,
    // short and long keys) and a range scan, committed.
    let mut txn = w.begin();
    for i in (0..500u64).step_by(13) {
        let k = format!("warm{i:08}");
        assert_eq!(
            txn.read(t, k.as_bytes()).unwrap().as_deref(),
            Some(&b"v"[..])
        );
    }
    assert_eq!(txn.read(t, b"warm-absent-key").unwrap(), None);
    assert_eq!(
        txn.read(t, b"longprefix-shared-0007-with-a-tail")
            .unwrap()
            .as_deref(),
        Some(&b"v"[..])
    );
    assert_eq!(
        txn.read(t, b"longprefix-shared-0007-with-a-MISS").unwrap(),
        None
    );
    let r = txn
        .scan(t, b"warm00000100", Some(b"warm00000200"), None)
        .unwrap();
    assert_eq!(r.len(), 100);
    txn.commit().unwrap();

    assert_eq!(
        shared_write_audit::take(),
        0,
        "a read-only transaction must not write to shared memory (paper §3)"
    );
    assert_eq!(
        tid_words(),
        before,
        "a read-only commit must not change the TID word of a record it read"
    );

    // A snapshot transaction is read-only by construction: same rule. (The
    // snapshot epoch may predate the warm-up commit, so the read's outcome
    // is not asserted — only its write behaviour.)
    let mut snap = w.begin_snapshot();
    let _ = snap.read(t, b"warm00000001");
    drop(snap);
    assert_eq!(
        shared_write_audit::take(),
        0,
        "snapshot transactions must not write to shared memory"
    );
}
