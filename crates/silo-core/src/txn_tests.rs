// Transaction semantics on one worker: reads, writes, inserts, deletes and
// scans see the transaction's own pending writes; aborts leave nothing
// behind; TIDs are monotone and epoch-tagged. Included into `crate::tests`
// (lib.rs), which holds the imports.

#[test]
fn write_then_read_back() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    txn.write(t, b"k1", b"v1").unwrap();
    txn.write(t, b"k2", b"v2").unwrap();
    let tid = txn.commit().unwrap();
    assert!(tid > Tid::ZERO);

    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"k1").unwrap(), Some(b"v1".to_vec()));
    assert_eq!(txn.read(t, b"k2").unwrap(), Some(b"v2".to_vec()));
    assert_eq!(txn.read(t, b"k3").unwrap(), None);
    txn.commit().unwrap();
    assert_eq!(w.stats().commits, 2);
}

#[test]
fn read_your_own_writes_and_deletes() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    txn.write(t, b"a", b"1").unwrap();
    assert_eq!(txn.read(t, b"a").unwrap(), Some(b"1".to_vec()));
    txn.write(t, b"a", b"2").unwrap();
    assert_eq!(txn.read(t, b"a").unwrap(), Some(b"2".to_vec()));
    txn.delete(t, b"a").unwrap();
    assert_eq!(txn.read(t, b"a").unwrap(), None);
    txn.commit().unwrap();

    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"a").unwrap(), None);
    txn.commit().unwrap();
}

#[test]
fn update_returns_existence() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    assert!(!txn.update(t, b"missing", b"x").unwrap());
    txn.write(t, b"present", b"1").unwrap();
    txn.commit().unwrap();

    let mut txn = w.begin();
    assert!(txn.update(t, b"present", b"2").unwrap());
    txn.commit().unwrap();

    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"present").unwrap(), Some(b"2".to_vec()));
    txn.commit().unwrap();
}

#[test]
fn insert_duplicate_aborts() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    txn.insert(t, b"k", b"v").unwrap();
    txn.commit().unwrap();

    let mut txn = w.begin();
    let err = txn.insert(t, b"k", b"v2").unwrap_err();
    assert_eq!(err.0, AbortReason::DuplicateKey);
    assert!(txn.commit().is_err());
    assert_eq!(w.stats().aborts, 1);
    assert_eq!(w.stats().abort_reasons.duplicate_key, 1);

    // The original value is untouched.
    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"k").unwrap(), Some(b"v".to_vec()));
    txn.commit().unwrap();
}

#[test]
fn insert_after_delete_reuses_key() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    txn.insert(t, b"k", b"v1").unwrap();
    txn.commit().unwrap();

    let mut txn = w.begin();
    assert!(txn.delete(t, b"k").unwrap());
    txn.commit().unwrap();

    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"k").unwrap(), None);
    txn.insert(t, b"k", b"v2").unwrap();
    txn.commit().unwrap();

    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"k").unwrap(), Some(b"v2".to_vec()));
    txn.commit().unwrap();
}

#[test]
fn delete_missing_key_is_noop() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    assert!(!txn.delete(t, b"ghost").unwrap());
    txn.commit().unwrap();
}

#[test]
fn scan_returns_sorted_committed_data() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    for i in 0..50u32 {
        txn.write(
            t,
            format!("key{:03}", i).as_bytes(),
            format!("val{}", i).as_bytes(),
        )
        .unwrap();
    }
    txn.commit().unwrap();

    let mut txn = w.begin();
    let rows = txn.scan(t, b"key010", Some(b"key020"), None).unwrap();
    assert_eq!(rows.len(), 10);
    assert_eq!(rows[0].0, b"key010".to_vec());
    assert_eq!(rows[9].1, b"val19".to_vec());
    let limited = txn.scan(t, b"key000", None, Some(5)).unwrap();
    assert_eq!(limited.len(), 5);
    txn.commit().unwrap();
}

#[test]
fn scan_skips_deleted_keys() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    for i in 0..10u32 {
        txn.write(t, format!("k{}", i).as_bytes(), b"v").unwrap();
    }
    txn.commit().unwrap();

    let mut txn = w.begin();
    txn.delete(t, b"k3").unwrap();
    txn.delete(t, b"k7").unwrap();
    txn.commit().unwrap();

    let mut txn = w.begin();
    let rows = txn.scan(t, b"k", None, None).unwrap();
    assert_eq!(rows.len(), 8);
    assert!(!rows.iter().any(|(k, _)| k == b"k3" || k == b"k7"));
    txn.commit().unwrap();
}

#[test]
fn scan_overlays_own_updates() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    txn.write(t, b"a", b"old").unwrap();
    txn.commit().unwrap();

    let mut txn = w.begin();
    txn.write(t, b"a", b"new").unwrap();
    let rows = txn.scan(t, b"", None, None).unwrap();
    assert_eq!(rows, vec![(b"a".to_vec(), b"new".to_vec())]);
    txn.commit().unwrap();
}

/// `read_with`/`scan_with` against `read`/`scan` and against a model, over a
/// randomized mix of committed rows, absent records, and the transaction's
/// own pending updates, deletes and inserts; then the same for snapshots.
#[test]
fn borrowed_reads_and_scans_match_the_collecting_forms() {
    use std::collections::BTreeMap;
    for seed in 1..=6u64 {
        // GC off: deleted keys stay in the index as absent records.
        let db = Database::open(SiloConfig::for_testing().without_gc());
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        // Keys of 4, 12 and 20 bytes, so scans cross trie layers and
        // suffixes; values of varying length.
        let key = |i: u64| -> Vec<u8> {
            let mut k = format!("{:04}", i / 3).into_bytes();
            match i % 3 {
                0 => {}
                1 => k.extend_from_slice(b"-shared-"),
                _ => k.extend_from_slice(b"-shared-suffix-k"),
            }
            k
        };
        let value =
            |tag: &str, i: u64| format!("{tag}{}", "x".repeat(i as usize % 40)).into_bytes();

        let mut index: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut txn = w.begin();
        for i in 0..240 {
            if next(10) < 7 {
                txn.write(t, &key(i), &value("committed", i)).unwrap();
                index.insert(key(i), Some(value("committed", i)));
            }
        }
        txn.commit().unwrap();
        let mut txn = w.begin();
        for i in 0..240 {
            if index.contains_key(&key(i)) && next(10) < 2 {
                assert!(txn.delete(t, &key(i)).unwrap());
                index.insert(key(i), None);
            }
        }
        txn.commit().unwrap();
        let at_snapshot = index.clone();
        advance_epochs(&db, &[&w], 12);

        // One transaction with pending work of every kind.
        let mut txn = w.begin();
        let mut pending: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for i in 0..240 {
            let present = matches!(index.get(&key(i)), Some(Some(_)));
            match next(10) {
                0 | 1 if present => {
                    txn.write(t, &key(i), &value("pending", i)).unwrap();
                    pending.insert(key(i), Some(value("pending", i)));
                }
                2 if present => {
                    assert!(txn.delete(t, &key(i)).unwrap());
                    pending.insert(key(i), None);
                }
                3 if !index.contains_key(&key(i)) => {
                    // An own insert leaves an absent placeholder in the index.
                    txn.insert(t, &key(i), &value("inserted", i)).unwrap();
                    index.insert(key(i), None);
                    pending.insert(key(i), Some(value("inserted", i)));
                }
                _ => {}
            }
        }

        for i in 0..240 {
            let (reads, nodes) = (txn.read_set_len(), txn.node_set_len());
            let owned = txn.read(t, &key(i)).unwrap();
            let grew = (txn.read_set_len() - reads, txn.node_set_len() - nodes);
            let (reads, nodes) = (txn.read_set_len(), txn.node_set_len());
            let borrowed = txn.read_with(t, &key(i), <[u8]>::to_vec).unwrap();
            assert_eq!(borrowed, owned, "seed {seed} key {i}");
            // The same records are registered again; the leaves are already
            // in the node-set.
            assert_eq!(
                (txn.read_set_len() - reads, txn.node_set_len() - nodes),
                (grew.0, 0),
                "seed {seed} key {i}: both forms register the same validation work"
            );
            let expected = match pending.get(&key(i)) {
                Some(own) => own.clone(),
                None => index.get(&key(i)).cloned().flatten(),
            };
            assert_eq!(owned, expected, "seed {seed} key {i}");
        }

        let ranges: [(Vec<u8>, Option<Vec<u8>>); 4] = [
            (Vec::new(), None),
            (key(30), Some(key(200))),
            (key(61), Some(key(64))),
            (b"0050-shared-a".to_vec(), Some(b"0070-".to_vec())),
        ];
        for (start, end) in &ranges {
            for limit in [None, Some(0), Some(1), Some(7), Some(1000)] {
                let (reads, nodes) = (txn.read_set_len(), txn.node_set_len());
                let owned = txn.scan(t, start, end.as_deref(), limit).unwrap();
                let grew = (txn.read_set_len() - reads, txn.node_set_len() - nodes);
                let (reads, nodes) = (txn.read_set_len(), txn.node_set_len());
                let mut borrowed = Vec::new();
                txn.scan_with(t, start, end.as_deref(), limit, |k, v| {
                    borrowed.push((k.to_vec(), v.to_vec()));
                })
                .unwrap();
                assert_eq!(
                    borrowed, owned,
                    "seed {seed} {start:?}..{end:?} limit {limit:?}"
                );
                assert_eq!(
                    (txn.read_set_len() - reads, txn.node_set_len() - nodes),
                    (grew.0, 0),
                    "seed {seed}: both forms register the same validation work"
                );
                assert_eq!(
                    owned,
                    expected_scan(&index, &pending, start, end.as_deref(), limit),
                    "seed {seed} {start:?}..{end:?} limit {limit:?}"
                );
            }
        }
        txn.commit().unwrap();

        // The snapshot predates that transaction: it sees the rows of the
        // first two, and its limit counts present rows only.
        let mut snap = w.begin_snapshot();
        for i in 0..240 {
            let owned = snap.read(t, &key(i));
            assert_eq!(snap.read_with(t, &key(i), <[u8]>::to_vec), owned);
            assert_eq!(owned, at_snapshot.get(&key(i)).cloned().flatten());
        }
        for (start, end) in &ranges {
            for limit in [None, Some(0), Some(1), Some(7), Some(1000)] {
                let owned = snap.scan(t, start, end.as_deref(), limit);
                let mut borrowed = Vec::new();
                snap.scan_with(t, start, end.as_deref(), limit, |k, v| {
                    borrowed.push((k.to_vec(), v.to_vec()));
                });
                assert_eq!(borrowed, owned);
                let expected: Vec<_> =
                    expected_scan(&at_snapshot, &BTreeMap::new(), start, end.as_deref(), None)
                        .into_iter()
                        .take(limit.unwrap_or(usize::MAX))
                        .collect();
                assert_eq!(
                    owned, expected,
                    "seed {seed} {start:?}..{end:?} limit {limit:?}"
                );
            }
        }
    }
}

#[test]
fn aborted_insert_leaves_no_visible_key() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    txn.insert(t, b"temp", b"value").unwrap();
    txn.abort();

    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"temp").unwrap(), None);
    // Re-inserting after the abort works (the placeholder is absent).
    txn.insert(t, b"temp", b"second-try").unwrap();
    txn.commit().unwrap();

    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"temp").unwrap(), Some(b"second-try".to_vec()));
    txn.commit().unwrap();
}

#[test]
fn dropping_txn_without_commit_aborts() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    {
        let mut txn = w.begin();
        txn.write(t, b"k", b"v").unwrap();
        // dropped here
    }
    assert_eq!(w.stats().aborts, 1);
    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"k").unwrap(), None);
    txn.commit().unwrap();
}

#[test]
fn tids_are_monotonic_per_worker_and_epoch_tagged() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut prev = Tid::ZERO;
    for i in 0..10u32 {
        let mut txn = w.begin();
        txn.write(t, format!("k{}", i).as_bytes(), b"v").unwrap();
        let tid = txn.commit().unwrap();
        assert!(tid > prev);
        assert!(tid.epoch() >= 1);
        prev = tid;
    }
    // Epoch advances are reflected in later TIDs.
    advance_epochs(&db, &[&w], 3);
    let mut txn = w.begin();
    txn.write(t, b"late", b"v").unwrap();
    let tid = txn.commit().unwrap();
    assert!(tid.epoch() >= 4);
}

#[test]
fn global_tid_configuration_commits_correctly() {
    let db = Database::open(SiloConfig::for_testing().with_global_tid());
    let t = db.create_table("t").unwrap();
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    for i in 0..20u32 {
        let mut txn = if i % 2 == 0 { w1.begin() } else { w2.begin() };
        txn.write(t, format!("k{}", i).as_bytes(), b"v").unwrap();
        txn.commit().unwrap();
    }
    let mut txn = w1.begin();
    assert_eq!(txn.scan(t, b"", None, None).unwrap().len(), 20);
    txn.commit().unwrap();
}

#[test]
fn overwrite_stats_distinguish_inplace_from_new_versions() {
    // Same-length overwrites within one snapshot interval stay in place.
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"k", b"12345678").unwrap();
    txn.commit().unwrap();
    for _ in 0..5 {
        let mut txn = w.begin();
        txn.write(t, b"k", b"87654321").unwrap();
        txn.commit().unwrap();
    }
    assert!(w.stats().inplace_overwrites >= 5);

    // With overwrites disabled every update allocates a new version.
    let db2 = Database::open(SiloConfig {
        overwrite_in_place: false,
        ..SiloConfig::for_testing()
    });
    let t2 = db2.create_table("t").unwrap();
    let mut w2 = db2.register_worker();
    let mut txn = w2.begin();
    txn.write(t2, b"k", b"12345678").unwrap();
    txn.commit().unwrap();
    for _ in 0..5 {
        let mut txn = w2.begin();
        txn.write(t2, b"k", b"87654321").unwrap();
        txn.commit().unwrap();
    }
    assert_eq!(w2.stats().new_versions, 5);
}

/// A worker draws at most 2^21 TIDs per epoch. Empty read-only transactions
/// can use them up well inside one epoch; the one after the last must wait
/// for the next epoch rather than panic, and TIDs stay strictly monotone
/// across the wait.
#[test]
fn read_only_commits_wait_out_an_exhausted_epoch() {
    use std::sync::atomic::AtomicU64;

    let db = test_db();
    let mut w = db.register_worker();
    let per_epoch = silo_tid::MAX_SEQUENCE + 1;
    let committed = Arc::new(AtomicU64::new(0));
    let first_epoch = db.epochs().global_epoch();
    let advancer = {
        let (db, committed) = (Arc::clone(&db), Arc::clone(&committed));
        std::thread::spawn(move || {
            while committed.load(Ordering::Relaxed) < per_epoch {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // Give the worker time to reach its next commit and wait there.
            std::thread::sleep(std::time::Duration::from_millis(20));
            db.epochs().try_advance()
        })
    };
    let mut prev = Tid::ZERO;
    for i in 1..=per_epoch + 1 {
        let tid = w.begin().commit().unwrap();
        assert!(tid > prev, "commit {i}: {tid:?} after {prev:?}");
        prev = tid;
        committed.store(i, Ordering::Relaxed);
    }
    assert_eq!(advancer.join().unwrap(), first_epoch + 1);
    assert_eq!(prev, Tid::new(first_epoch + 1, 0));
}
