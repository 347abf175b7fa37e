//! Engine-level tests: single-threaded semantics, conflict behaviour,
//! snapshots, garbage collection and multi-threaded serializability checks.

use super::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn test_db() -> Arc<Database> {
    Database::open(SiloConfig::for_testing())
}

/// Advances the global epoch by `n`, marking the given workers quiescent so
/// the epoch invariant does not hold the advance back.
fn advance_epochs(db: &Arc<Database>, workers: &[&Worker], n: u64) {
    for w in workers {
        w.quiesce();
    }
    db.epochs().advance_n(n);
}

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

#[test]
fn read_write_conflict_aborts_second_committer() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();

    {
        let mut setup = w1.begin();
        setup.write(t, b"x", b"0").unwrap();
        setup.commit().unwrap();
    }

    // t1 reads x, then t2 overwrites x and commits, then t1 tries to commit a
    // write based on its stale read: t1 must abort.
    let mut t1 = w1.begin();
    let x = t1.read(t, b"x").unwrap().unwrap();

    let mut t2 = w2.begin();
    t2.write(t, b"x", b"99").unwrap();
    t2.commit().unwrap();

    t1.write(t, b"y", &x).unwrap();
    let result = t1.commit();
    assert!(result.is_err());
    assert_eq!(w1.stats().abort_reasons.read_validation, 1);
}

#[test]
fn write_skew_is_prevented() {
    // Figure 3 of the paper: x = y = 1 must not be reachable from x = y = 0.
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();

    {
        let mut setup = w1.begin();
        setup.write(t, b"x", b"0").unwrap();
        setup.write(t, b"y", b"0").unwrap();
        setup.commit().unwrap();
    }

    let mut t1 = w1.begin();
    let x = t1.read(t, b"x").unwrap().unwrap();
    let mut t2 = w2.begin();
    let y = t2.read(t, b"y").unwrap().unwrap();
    // Each writes the other record based on its read.
    t1.write(t, b"y", &[x[0] + 1]).unwrap();
    t2.write(t, b"x", &[y[0] + 1]).unwrap();
    let r1 = t1.commit();
    let r2 = t2.commit();
    assert!(
        !(r1.is_ok() && r2.is_ok()),
        "both committing would be write skew (non-serializable)"
    );
}

#[test]
fn phantom_protection_on_scans() {
    // Through the collecting `scan` and through the `scan_with` visitor.
    for visitor in [false, true] {
        let db = test_db();
        let t = db.create_table("t").unwrap();
        let mut w1 = db.register_worker();
        let mut w2 = db.register_worker();

        {
            let mut setup = w1.begin();
            for i in 0..20u32 {
                setup
                    .write(t, format!("k{:02}", i).as_bytes(), b"v")
                    .unwrap();
            }
            setup.commit().unwrap();
        }

        // t1 scans a range; t2 inserts a key into that range and commits;
        // t1's commit must fail node-set validation.
        let mut t1 = w1.begin();
        let rows = if visitor {
            let mut rows = 0;
            t1.scan_with(t, b"k05", Some(b"k15"), None, |_, _| rows += 1)
                .unwrap();
            rows
        } else {
            t1.scan(t, b"k05", Some(b"k15"), None).unwrap().len()
        };
        assert_eq!(rows, 10);

        let mut t2 = w2.begin();
        t2.insert(t, b"k07x", b"phantom").unwrap();
        t2.commit().unwrap();

        // t1 is doomed either way. Depending on which leaf its own insert
        // lands in, the conflict is caught early by the §4.6 node-set fix-up
        // (the insert touches the leaf t2 changed) or by commit-time
        // node-set validation.
        match t1.write(t, b"summary", b"10-rows") {
            Ok(()) => assert!(t1.commit().is_err()),
            // Dropping the poisoned transaction aborts it with the fix-up
            // failure as the recorded reason.
            Err(_) => drop(t1),
        }
        let reasons = &w1.stats().abort_reasons;
        assert_eq!(reasons.node_validation + reasons.node_set_fixup, 1);
    }
}

/// What a scan of `[start, end)` with `limit` must produce, from a model of
/// the index: every key the index holds in the range (`None` = an absent
/// record: deleted and not yet unhooked, or this transaction's own insert
/// placeholder) counts against the limit; present ones are returned with
/// `pending` (this transaction's updates and deletes) overlaid.
pub(crate) fn expected_scan(
    index: &std::collections::BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    pending: &std::collections::BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    start: &[u8],
    end: Option<&[u8]>,
    limit: Option<usize>,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    index
        .range(start.to_vec()..)
        .take_while(|(k, _)| end.map_or(true, |e| k.as_slice() < e))
        .take(limit.unwrap_or(usize::MAX))
        .filter_map(|(k, committed)| {
            let committed = committed.as_ref()?;
            match pending.get(k) {
                Some(overlay) => overlay.clone().map(|v| (k.clone(), v)),
                None => Some((k.clone(), committed.clone())),
            }
        })
        .collect()
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
fn phantom_protection_on_absent_reads() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();

    // t1 reads a missing key; t2 inserts it; t1 commits a dependent write.
    let mut t1 = w1.begin();
    assert_eq!(t1.read(t, b"missing").unwrap(), None);

    let mut t2 = w2.begin();
    t2.insert(t, b"missing", b"now-present").unwrap();
    t2.commit().unwrap();

    // The conflict may surface either at the dependent write (node-set fix-up
    // against the leaf t2 just changed) or at commit-time validation; either
    // way t1 must not commit.
    let outcome = match t1.write(t, b"dependent", b"x") {
        Ok(()) => t1.commit().map(|_| ()),
        Err(e) => {
            t1.abort();
            Err(e)
        }
    };
    assert!(outcome.is_err());
    assert!(w1.stats().aborts >= 1);
}

#[test]
fn own_insert_does_not_invalidate_own_scan() {
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();

    let mut setup = w.begin();
    for i in 0..10u32 {
        setup
            .write(t, format!("k{:02}", i).as_bytes(), b"v")
            .unwrap();
    }
    setup.commit().unwrap();

    // A transaction that scans a range and then inserts into it must still
    // commit (§4.6: its own structural changes are fixed up, not treated as
    // conflicts).
    let mut txn = w.begin();
    let rows = txn.scan(t, b"k00", Some(b"k99"), None).unwrap();
    assert_eq!(rows.len(), 10);
    txn.insert(t, b"k05x", b"mine").unwrap();
    txn.commit().unwrap();
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

#[test]
fn commit_hook_receives_writes() {
    use std::sync::Mutex;
    #[derive(Default)]
    struct Capture {
        log: Mutex<Vec<(usize, Tid, Vec<(TableId, Vec<u8>, Option<Vec<u8>>)>)>>,
    }
    impl CommitHook for Capture {
        fn on_commit(&self, worker: usize, tid: Tid, writes: CommitWrites<'_>) {
            let owned = writes
                .iter()
                .map(|w| (w.table, w.key.to_vec(), w.value.map(|v| v.to_vec())))
                .collect();
            self.log.lock().unwrap().push((worker, tid, owned));
        }
    }

    let db = test_db();
    let t = db.create_table("t").unwrap();
    let capture = Arc::new(Capture::default());
    db.set_commit_hook(capture.clone() as Arc<dyn CommitHook>)
        .ok()
        .unwrap();
    let mut w = db.register_worker();

    let mut txn = w.begin();
    txn.write(t, b"a", b"1").unwrap();
    txn.write(t, b"b", b"2").unwrap();
    let tid = txn.commit().unwrap();

    let mut txn = w.begin();
    txn.delete(t, b"a").unwrap();
    txn.commit().unwrap();

    let log = capture.log.lock().unwrap();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].1, tid);
    assert_eq!(log[0].2.len(), 2);
    assert!(log[1].2[0].2.is_none(), "delete logged with value = None");
}

#[test]
fn read_only_transactions_do_not_write_shared_memory() {
    // A read-only transaction's commit must not change any record TID word.
    let db = test_db();
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"k", b"v").unwrap();
    txn.commit().unwrap();

    let before = {
        let (val, _, _) = db.table(t).tree().get_tracked(b"k");
        let rec = val.unwrap() as *const record::Record;
        // SAFETY: record is live (no GC ran).
        unsafe { (*rec).tid().load().raw() }
    };
    for _ in 0..5 {
        let mut txn = w.begin();
        assert!(txn.read(t, b"k").unwrap().is_some());
        txn.commit().unwrap();
    }
    let after = {
        let (val, _, _) = db.table(t).tree().get_tracked(b"k");
        let rec = val.unwrap() as *const record::Record;
        // SAFETY: record is live.
        unsafe { (*rec).tid().load().raw() }
    };
    assert_eq!(before, after);
}

// ---------------------------------------------------------------------------
// Multi-threaded serializability checks
// ---------------------------------------------------------------------------

#[test]
fn concurrent_bank_transfers_preserve_total_balance() {
    let db = Database::open(SiloConfig {
        spawn_epoch_advancer: true,
        ..SiloConfig::for_testing()
    });
    let t = db.create_table("accounts").unwrap();
    let accounts = 16u32;
    let initial = 1000u64;
    {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        for a in 0..accounts {
            txn.write(
                t,
                format!("acct{:02}", a).as_bytes(),
                &initial.to_be_bytes(),
            )
            .unwrap();
        }
        txn.commit().unwrap();
    }

    let threads = 4;
    let transfers_per_thread = 500;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut w = db.register_worker();
            let mut committed = 0u64;
            let mut state = 0x243F6A8885A308D3u64 ^ (tid as u64);
            for _ in 0..transfers_per_thread {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let from = (state >> 33) as u32 % accounts;
                let to = (state >> 13) as u32 % accounts;
                if from == to {
                    continue;
                }
                let mut txn = w.begin();
                let run = (|| -> Result<(), Abort> {
                    let fk = format!("acct{:02}", from);
                    let tk = format!("acct{:02}", to);
                    let fv = txn.read(t, fk.as_bytes())?.expect("account exists");
                    let tv = txn.read(t, tk.as_bytes())?.expect("account exists");
                    let fb = u64::from_be_bytes(fv.try_into().unwrap());
                    let tb = u64::from_be_bytes(tv.try_into().unwrap());
                    if fb == 0 {
                        return Ok(());
                    }
                    txn.write(t, fk.as_bytes(), &(fb - 1).to_be_bytes())?;
                    txn.write(t, tk.as_bytes(), &(tb + 1).to_be_bytes())?;
                    Ok(())
                })();
                match run {
                    Ok(()) => {
                        if txn.commit().is_ok() {
                            committed += 1;
                        }
                    }
                    Err(_) => txn.abort(),
                }
            }
            committed
        }));
    }
    let total_committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_committed > 0);

    let mut w = db.register_worker();
    let mut txn = w.begin();
    let mut sum = 0u64;
    for a in 0..accounts {
        let v = txn
            .read(t, format!("acct{:02}", a).as_bytes())
            .unwrap()
            .unwrap();
        sum += u64::from_be_bytes(v.try_into().unwrap());
    }
    txn.commit().unwrap();
    assert_eq!(
        sum,
        accounts as u64 * initial,
        "serializability violated: money created or destroyed"
    );
    db.stop_epoch_advancer();
}

#[test]
fn concurrent_counter_increments_are_not_lost() {
    let db = Database::open(SiloConfig {
        spawn_epoch_advancer: true,
        ..SiloConfig::for_testing()
    });
    let t = db.create_table("counters").unwrap();
    {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        txn.write(t, b"c", &0u64.to_be_bytes()).unwrap();
        txn.commit().unwrap();
    }
    let threads = 4;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut w = db.register_worker();
            let mut committed = 0u64;
            for _ in 0..300 {
                let mut txn = w.begin();
                let v = txn.read(t, b"c").unwrap().unwrap();
                let n = u64::from_be_bytes(v.try_into().unwrap());
                txn.write(t, b"c", &(n + 1).to_be_bytes()).unwrap();
                if txn.commit().is_ok() {
                    committed += 1;
                }
            }
            committed
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    let v = txn.read(t, b"c").unwrap().unwrap();
    txn.commit().unwrap();
    assert_eq!(u64::from_be_bytes(v.try_into().unwrap()), total);
    db.stop_epoch_advancer();
}

#[test]
fn concurrent_inserts_of_same_key_commit_exactly_once() {
    let db = Database::open(SiloConfig {
        spawn_epoch_advancer: true,
        ..SiloConfig::for_testing()
    });
    let t = db.create_table("t").unwrap();
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let mut handles = Vec::new();
    for tid in 0..4usize {
        let db = Arc::clone(&db);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut w = db.register_worker();
            barrier.wait();
            let mut wins = 0;
            for k in 0..100u32 {
                let mut txn = w.begin();
                let key = format!("contended{}", k);
                match txn.insert(t, key.as_bytes(), format!("winner{}", tid).as_bytes()) {
                    Ok(()) => {
                        if txn.commit().is_ok() {
                            wins += 1;
                        }
                    }
                    Err(_) => txn.abort(),
                }
            }
            wins
        }));
    }
    let total_wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(
        total_wins, 100,
        "each key committed by exactly one inserter"
    );
    db.stop_epoch_advancer();
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

/// The paper's §3 design rule, pinned end-to-end: a warmed, committed
/// read-only transaction — epoch refresh, index point reads (hits and
/// misses), a range scan, read/node-set validation, TID generation — writes
/// **nothing** to memory shared between threads. Every shared-write site in
/// the workspace calls `shared_write_audit::note()`; per-worker
/// cache-padded epoch slots and sharded reader-retry cells are the two
/// sanctioned (unaudited) patterns. The counter is live in debug builds
/// only; in release this degenerates to a smoke test.
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

mod context_reuse {
    //! Property test for the reusable `TxnContext`: no transaction state
    //! (reads, writes, node-set, placeholders, arena contents) may leak from
    //! one transaction into the next on the same worker, across any
    //! interleaving of commits, aborts, drops and poisoned transactions.

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// One operation inside a transaction. Keys are drawn from a small space
    /// so transactions collide with earlier state often.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Read(u8),
        Write(u8, u8),
        Insert(u8, u8),
        Delete(u8),
        Scan,
        Exists(u8),
    }

    /// How the transaction ends.
    #[derive(Debug, Clone, Copy)]
    enum End {
        Commit,
        Abort,
        Drop,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..16).prop_map(Op::Read),
            (0u8..16, any::<u8>()).prop_map(|(k, v)| Op::Write(k, v)),
            (0u8..16, any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u8..16).prop_map(Op::Delete),
            (0u8..16).prop_map(|_| Op::Scan),
            (0u8..16).prop_map(Op::Exists),
        ]
    }

    fn arb_end() -> impl Strategy<Value = End> {
        prop_oneof![
            (0u8..1).prop_map(|_| End::Commit),
            (0u8..1).prop_map(|_| End::Abort),
            (0u8..1).prop_map(|_| End::Drop),
        ]
    }

    fn key(k: u8) -> [u8; 3] {
        [b'k', k / 10 + b'0', k % 10 + b'0']
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn no_state_leaks_between_transactions(
            txns in vec((vec(arb_op(), 0..12), arb_end()), 1..24),
        ) {
            let db = test_db();
            let t = db.create_table("t").unwrap();
            let mut w = db.register_worker();
            // The reference model of committed state.
            let mut model: HashMap<u8, u8> = HashMap::new();

            for (ops, end) in txns {
                // A fresh transaction must start with *empty* sets no matter
                // how its predecessor ended.
                let mut txn = w.begin();
                prop_assert_eq!(txn.read_set_len(), 0, "read-set leaked");
                prop_assert_eq!(txn.write_set_len(), 0, "write-set leaked");
                prop_assert_eq!(txn.node_set_len(), 0, "node-set leaked");
                prop_assert_eq!(txn.placeholder_len(), 0, "placeholders leaked");

                // Shadow model of this transaction's own effects, applied to
                // the committed model only on a successful commit.
                let mut pending = model.clone();
                let mut poisoned = false;
                for op in ops {
                    if poisoned {
                        break;
                    }
                    match op {
                        Op::Read(k) => {
                            let got = match txn.read(t, &key(k)) {
                                Ok(v) => v,
                                Err(_) => { poisoned = true; continue; }
                            };
                            prop_assert_eq!(
                                got, pending.get(&k).map(|v| vec![*v]),
                                "read of k{} disagrees with the model", k
                            );
                        }
                        Op::Exists(k) => {
                            let got = match txn.exists(t, &key(k)) {
                                Ok(v) => v,
                                Err(_) => { poisoned = true; continue; }
                            };
                            prop_assert_eq!(got, pending.contains_key(&k));
                        }
                        Op::Write(k, v) => {
                            match txn.write(t, &key(k), &[v]) {
                                Ok(()) => { pending.insert(k, v); }
                                Err(_) => poisoned = true,
                            }
                        }
                        Op::Insert(k, v) => {
                            // Inserting a present key poisons the txn — that
                            // is the interleaved "poisoned" case of the
                            // property.
                            match txn.insert(t, &key(k), &[v]) {
                                Ok(()) => { pending.insert(k, v); }
                                Err(_) => poisoned = true,
                            }
                        }
                        Op::Delete(k) => {
                            match txn.delete(t, &key(k)) {
                                Ok(existed) => {
                                    prop_assert_eq!(existed, pending.remove(&k).is_some());
                                }
                                Err(_) => poisoned = true,
                            }
                        }
                        Op::Scan => {
                            let got = match txn.scan(t, b"k", None, None) {
                                Ok(v) => v,
                                Err(_) => { poisoned = true; continue; }
                            };
                            // The scan overlays this txn's own updates of
                            // committed keys but not its fresh inserts, so
                            // compare against the committed key space.
                            for (k_bytes, v_bytes) in got {
                                let k = (k_bytes[1] - b'0') * 10 + (k_bytes[2] - b'0');
                                prop_assert!(
                                    pending.contains_key(&k) || model.contains_key(&k),
                                    "scan surfaced k{} which neither model holds", k
                                );
                                prop_assert_eq!(v_bytes.len(), 1);
                            }
                        }
                    }
                }

                match end {
                    End::Commit => {
                        if txn.commit().is_ok() && !poisoned {
                            model = pending;
                        }
                    }
                    End::Abort => txn.abort(),
                    End::Drop => drop(txn),
                }

                // Whatever happened, the committed state must now match the
                // model exactly: nothing from an aborted/poisoned/dropped
                // transaction may be visible, everything committed must be.
                let mut check = w.begin();
                for k in 0u8..16 {
                    let got = check.read(t, &key(k)).unwrap();
                    prop_assert_eq!(
                        got, model.get(&k).map(|v| vec![*v]),
                        "post-txn state of k{} diverged from the model", k
                    );
                }
                check.commit().unwrap();

                // Interleave epoch advancement + GC so placeholder cleanup
                // and record recycling run mid-sequence too.
                advance_epochs(&db, &[&w], 1);
                w.collect_garbage();
            }
        }
    }
}

mod history_recording {
    //! End-to-end tests of the history recorder and checker: the engine's
    //! own executions, recorded black-box and verified serializable.

    use super::*;
    use silo_check::{check_serializability, HistoryRecorder};

    #[test]
    fn recorded_history_roundtrips_through_engine() {
        let db = test_db();
        let recorder = HistoryRecorder::new();
        db.set_history_recorder(Arc::clone(&recorder)).unwrap();
        let t = db.create_table("t").unwrap();
        {
            let mut w = db.register_worker();
            let mut txn = w.begin();
            txn.write(t, b"a", b"1").unwrap();
            txn.insert(t, b"b", b"2").unwrap();
            txn.commit().unwrap();

            let mut txn = w.begin();
            assert!(txn.read(t, b"a").unwrap().is_some());
            assert!(txn.read(t, b"missing").unwrap().is_none());
            txn.delete(t, b"b").unwrap();
            txn.commit().unwrap();

            let mut txn = w.begin();
            let v = txn.read(t, b"a").unwrap().unwrap();
            txn.write(t, b"a", &[v[0] + 1]).unwrap();
            txn.abort();
        }
        let sessions = recorder.take_sessions();
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.len(), 3);
        let t0 = s.txn(0);
        let t1 = s.txn(1);
        let t2 = s.txn(2);
        // Txn 0: two fresh writes, both absence checks observed version 0.
        assert!(t0.reads().all(|r| r.observed == 0));
        assert_eq!(t0.writes().count(), 2);
        // Txn 1 read the versions txn 0 installed, and a missing key as 0.
        let tid0 = t0.tid().unwrap().raw();
        let observed: Vec<u64> = t1.reads().map(|r| r.observed).collect();
        assert!(observed.contains(&tid0));
        assert!(observed.contains(&0));
        assert!(t1.writes().any(|w| w.delete));
        // Txn 2 aborted; its attempted write is recorded, but it has no TID.
        assert!(t2.tid().is_none());
        assert_eq!(t2.writes().count(), 1);

        let report = check_serializability(&sessions).expect("serializable");
        assert_eq!(report.committed, 2);
        assert_eq!(report.aborted, 1);
        assert_eq!(report.external_versions, 0);
    }

    #[test]
    fn recorded_concurrent_history_is_serializable() {
        // GC stays off: after a deleted key is unhooked from the index, a
        // reader records "initial version" for what is really a later state,
        // which the checker would (rightly, per the recording) flag.
        let db = Database::open(SiloConfig {
            spawn_epoch_advancer: true,
            ..SiloConfig::for_testing().without_gc()
        });
        let recorder = HistoryRecorder::new();
        db.set_history_recorder(Arc::clone(&recorder)).unwrap();
        let t = db.create_table("t").unwrap();
        {
            let mut w = db.register_worker();
            let mut txn = w.begin();
            for k in 0..4u32 {
                txn.write(t, &k.to_be_bytes(), &0u64.to_be_bytes()).unwrap();
            }
            txn.commit().unwrap();
        }
        let mut handles = Vec::new();
        for seed in 0..3u64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let mut w = db.register_worker();
                let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) + 1;
                for i in 0..200u64 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = ((state >> 33) as u32 % 4).to_be_bytes();
                    let mut txn = w.begin();
                    let result = (|| -> Result<(), Abort> {
                        let v = txn.read(t, &k)?.unwrap_or_default();
                        let n = u64::from_be_bytes(v.try_into().unwrap_or([0; 8]));
                        txn.write(t, &k, &(n + i).to_be_bytes())?;
                        Ok(())
                    })();
                    match result {
                        Ok(()) => {
                            let _ = txn.commit();
                        }
                        Err(_) => txn.abort(),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        db.stop_epoch_advancer();
        let sessions = recorder.take_sessions();
        assert_eq!(sessions.len(), 4, "setup worker plus three threads");
        let report = check_serializability(&sessions).expect("serializable");
        assert!(report.committed > 0);
        assert_eq!(report.external_versions, 0);
    }

    /// An installed-but-disabled recorder adds **zero shared-memory writes**
    /// to the transaction path — and even an enabled one only writes
    /// worker-local buffers during transactions (the shared recorder is
    /// touched at flush). Reuses the `shared_write_audit` hook that pins the
    /// paper's §3 rule for read-only transactions.
    #[test]
    fn recorder_adds_no_shared_writes_to_transactions() {
        use silo_epoch::shared_write_audit;

        let db = test_db();
        let recorder = HistoryRecorder::new_disabled();
        db.set_history_recorder(Arc::clone(&recorder)).unwrap();
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();

        // Warm: data in place, one read-only txn to prime caches.
        let mut txn = w.begin();
        for i in 0..64u64 {
            txn.write(t, &i.to_be_bytes(), b"v").unwrap();
        }
        txn.commit().unwrap();
        let mut txn = w.begin();
        assert!(txn.read(t, &1u64.to_be_bytes()).unwrap().is_some());
        txn.commit().unwrap();

        let _ = shared_write_audit::take();
        let mut txn = w.begin();
        for i in (0..64u64).step_by(7) {
            assert!(txn.read(t, &i.to_be_bytes()).unwrap().is_some());
        }
        assert!(txn.read(t, b"absent").unwrap().is_none());
        txn.commit().unwrap();
        assert_eq!(
            shared_write_audit::take(),
            0,
            "a disabled recorder must not add shared-memory writes"
        );

        // Enabled: recording goes to worker-local buffers only, so a
        // read-only transaction still performs no shared writes.
        recorder.set_enabled(true);
        let mut txn = w.begin();
        assert!(txn.read(t, &2u64.to_be_bytes()).unwrap().is_some());
        txn.commit().unwrap();
        assert_eq!(
            shared_write_audit::take(),
            0,
            "recording buffers are worker-local"
        );

        recorder.set_enabled(false);
        drop(w);
        let sessions = recorder.take_sessions();
        assert_eq!(sessions.len(), 1, "only the enabled transaction recorded");
        assert_eq!(sessions[0].len(), 1);
    }

    /// Workers registered before any recorder is installed never record.
    #[test]
    fn recorder_only_binds_workers_registered_after_install() {
        let db = test_db();
        let t = db.create_table("t").unwrap();
        let mut early = db.register_worker();
        let recorder = HistoryRecorder::new();
        db.set_history_recorder(Arc::clone(&recorder)).unwrap();
        let mut late = db.register_worker();

        let mut txn = early.begin();
        txn.write(t, b"e", b"1").unwrap();
        txn.commit().unwrap();
        let mut txn = late.begin();
        txn.write(t, b"l", b"1").unwrap();
        txn.commit().unwrap();
        drop(early);
        drop(late);

        let sessions = recorder.take_sessions();
        assert_eq!(sessions.len(), 1);
        // Worker ids are sequential: 0 = early, 1 = late.
        assert_eq!(sessions[0].session(), 1);
    }
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
