//! The transaction's indexed sets and its read memo, through the public
//! operations: whatever the write-set's size — scanned or hashed, with a
//! decent hash or one that collides on every key — a transaction behaves as
//! the model says; the node-set holds a leaf once; the memo is what the
//! last point read found and nothing else.

use std::collections::BTreeMap;
use std::sync::Arc;

use super::*;
use crate::set::DEGENERATE_HASH;
use crate::tests::expected_scan;

type Model = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

fn key(i: u64) -> Vec<u8> {
    // 6, 14 and 22 bytes: single slices, suffixes and a second trie layer.
    let mut k = format!("k{:05}", i / 3).into_bytes();
    match i % 3 {
        0 => {}
        1 => k.extend_from_slice(b"-shared-"),
        _ => k.extend_from_slice(b"-shared-suffix-k"),
    }
    k
}

/// One seeded run: transactions of `ops` operations each over `keys` keys,
/// every operation checked against the model as it happens and the whole
/// table checked after each commit.
fn run_model(seed: u64, keys: u64, ops_per_txn: &[usize]) {
    // GC off: deleted keys stay in the index as absent records, so the
    // model of the index is exact.
    let db = Database::open(SiloConfig::for_testing().without_gc());
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    // The index as the model knows it, and the committed state within it.
    let mut index: Model = BTreeMap::new();

    for (round, &ops) in ops_per_txn.iter().enumerate() {
        let mut pending: Model = BTreeMap::new();
        let mut index_now = index.clone();
        let mut txn = w.begin();
        let mut aborted = false;
        for op in 0..ops {
            // A third of the transactions end on a key they can see.
            let mut i = next(keys);
            if op + 1 == ops && round % 3 == 2 {
                if let Some(seen) = pending.iter().find_map(|(k, v)| v.as_ref().map(|_| k)) {
                    i = (0..keys).find(|i| key(*i) == *seen).expect("a model key");
                }
            }
            let k = key(i);
            let v = format!("r{round}o{op}").into_bytes();
            let committed = index.get(&k).cloned().flatten();
            let visible = match pending.get(&k) {
                Some(own) => own.clone(),
                None => committed.clone(),
            };
            let ctx = format!("seed {seed} round {round} op {op} key {i}");
            match next(12) {
                0..=2 => assert_eq!(txn.read(t, &k).unwrap(), visible, "{ctx}: read"),
                3..=5 => {
                    txn.write(t, &k, &v).unwrap();
                    if !pending.contains_key(&k) && !index_now.contains_key(&k) {
                        // A write of a missing key takes the insert path.
                        index_now.insert(k.clone(), None);
                    }
                    pending.insert(k, Some(v));
                }
                6 | 7 => {
                    let existed = txn.update(t, &k, &v).unwrap();
                    assert_eq!(existed, visible.is_some(), "{ctx}: update");
                    if existed {
                        pending.insert(k, Some(v));
                    }
                }
                8 => {
                    let existed = txn.delete(t, &k).unwrap();
                    assert_eq!(existed, visible.is_some(), "{ctx}: delete");
                    if existed || pending.contains_key(&k) {
                        pending.insert(k, None);
                    }
                }
                // Inserting a visible key poisons the transaction, so only
                // its last operation may try (a third of them do).
                9 if visible.is_none() || op + 1 == ops => match txn.insert(t, &k, &v) {
                    Ok(()) => {
                        assert!(visible.is_none(), "{ctx}: insert over a visible key");
                        index_now.entry(k.clone()).or_insert(None);
                        pending.insert(k, Some(v));
                    }
                    Err(abort) => {
                        assert_eq!(abort.0, AbortReason::DuplicateKey, "{ctx}");
                        assert!(visible.is_some(), "{ctx}: spurious DuplicateKey");
                        // The transaction is poisoned: everything fails now.
                        assert_eq!(txn.read(t, &k).unwrap_err().0, AbortReason::DuplicateKey);
                        aborted = true;
                    }
                },
                9 => assert_eq!(txn.exists(t, &k).unwrap(), visible.is_some(), "{ctx}"),
                10 => {
                    // Read, then write the same key: the memo's path.
                    assert_eq!(txn.read(t, &k).unwrap(), visible, "{ctx}: read-for-rmw");
                    txn.write(t, &k, &v).unwrap();
                    if !pending.contains_key(&k) && !index_now.contains_key(&k) {
                        index_now.insert(k.clone(), None);
                    }
                    pending.insert(k, Some(v));
                }
                _ => {
                    let (start, end) = (key(i), key(i + 1 + next(30)));
                    let limit = 1 + next(20) as usize;
                    let mut got = Vec::new();
                    txn.scan_with(t, &start, Some(&end), Some(limit), |k, v| {
                        got.push((k.to_vec(), v.to_vec()));
                    })
                    .unwrap();
                    assert_eq!(
                        got,
                        expected_scan(&index_now, &pending, &start, Some(&end), Some(limit)),
                        "{ctx}: scan"
                    );
                }
            }
        }
        let writes = txn.write_set_len();
        assert!(
            ops < 100 || writes > ops / 4,
            "seed {seed} round {round}: {ops} operations left only {writes} writes"
        );
        if aborted {
            // Aborted inserts leave absent placeholders behind (GC is off).
            drop(txn);
            for k in index_now.keys() {
                index.entry(k.clone()).or_insert(None);
            }
        } else {
            txn.commit().unwrap();
            index = index_now;
            for (k, v) in pending {
                index.insert(k, v);
            }
        }
        // The committed table is the model, key for key.
        let mut txn = w.begin();
        let all = txn.scan(t, b"", None, None).unwrap();
        let want: Vec<_> = index
            .iter()
            .filter_map(|(k, v)| v.clone().map(|v| (k.clone(), v)))
            .collect();
        assert_eq!(all, want, "seed {seed} after round {round}");
        txn.commit().unwrap();
    }
}

#[test]
fn transactions_of_every_size_match_the_model() {
    // Below, at and past the linear-scan threshold; one context reused
    // throughout, so each index generation follows a larger or smaller one.
    run_model(1, 40, &[1, 3, 8, 9, 10, 40, 7, 120, 2]);
    run_model(2, 12000, &[8000, 5, 64, 8000, 17]);
    run_model(3, 3000, &[700, 1500, 1, 300]);
}

#[test]
fn transactions_match_the_model_when_every_hash_collides() {
    DEGENERATE_HASH.with(|d| d.set(true));
    run_model(4, 60, &[9, 30, 200, 12]);
    run_model(5, 400, &[600, 20]);
    DEGENERATE_HASH.with(|d| d.set(false));
}

fn big_key(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

#[test]
fn node_set_holds_each_leaf_once() {
    let db = Database::open(SiloConfig::for_testing());
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    // Even keys exist; the odd ones in between are missing.
    let mut txn = w.begin();
    for i in 0..1024u64 {
        txn.write(t, &big_key(2 * i), b"v").unwrap();
    }
    txn.commit().unwrap();
    let leaves = db.index_stats().leaves as usize;

    let mut txn = w.begin();
    for i in 0..1024u64 {
        assert!(txn.read(t, &big_key(2 * i + 1)).unwrap().is_none());
    }
    assert!(
        txn.node_set_len() <= leaves,
        "{} node-set entries for 1024 absent reads over {leaves} leaves",
        txn.node_set_len()
    );
    let after_reads = txn.node_set_len();
    // Scanning the same leaves adds nothing.
    txn.scan(t, &big_key(0), None, None).unwrap();
    assert_eq!(txn.node_set_len(), after_reads);
    txn.commit().unwrap();
}

#[test]
fn a_leaf_seen_at_two_versions_fails_node_validation() {
    let db = Database::open(SiloConfig::for_testing());
    let t = db.create_table("t").unwrap();
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut txn = w1.begin();
    txn.write(t, &big_key(10), b"v").unwrap();
    txn.commit().unwrap();

    let mut reader = w1.begin();
    assert!(reader.read(t, &big_key(11)).unwrap().is_none());
    // Another transaction inserts into that leaf...
    let mut writer = w2.begin();
    writer.insert(t, &big_key(12), b"v").unwrap();
    writer.commit().unwrap();
    // ...and the reader sees the leaf again, at its new version. The
    // node-set keeps the first one.
    assert!(reader.read(t, &big_key(13)).unwrap().is_none());
    assert_eq!(reader.node_set_len(), 1);
    assert_eq!(
        reader.commit().unwrap_err().0,
        AbortReason::NodeValidation,
        "the first observation is stale"
    );

    // The same with the transaction's own insert in between: the fix-up
    // finds the stale first version.
    let mut reader = w1.begin();
    assert!(reader.read(t, &big_key(21)).unwrap().is_none());
    let mut writer = w2.begin();
    writer.insert(t, &big_key(22), b"v").unwrap();
    writer.commit().unwrap();
    assert_eq!(
        reader.insert(t, &big_key(23), b"v").unwrap_err().0,
        AbortReason::NodeSetFixup
    );
}

fn read(txn: &mut Txn<'_>, table: TableId, key: &[u8]) {
    txn.read(table, key).unwrap();
}

/// Read-set growth of one operation.
fn reads_added(txn: &mut Txn<'_>, op: impl FnOnce(&mut Txn<'_>)) -> usize {
    let before = txn.read_set_len();
    op(txn);
    txn.read_set_len() - before
}

#[test]
fn read_memo_serves_the_next_write_of_that_key_only() {
    let db = Database::open(SiloConfig::for_testing().without_gc());
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    for k in [b"a", b"b", b"c", b"d", b"e"] {
        txn.write(t, k, b"0").unwrap();
    }
    txn.commit().unwrap();
    let mut txn = w.begin();
    assert!(txn.delete(t, b"e").unwrap());
    txn.commit().unwrap();

    let mut txn = w.begin();
    // Read then write, update, delete: one descent, one read-set entry.
    assert_eq!(reads_added(&mut txn, |x| read(x, t, b"a")), 1);
    assert_eq!(
        reads_added(&mut txn, |x| x.write(t, b"a", b"1").unwrap()),
        0
    );
    assert_eq!(reads_added(&mut txn, |x| read(x, t, b"b")), 1);
    assert_eq!(
        reads_added(&mut txn, |x| assert!(x.update(t, b"b", b"1").unwrap())),
        0
    );
    assert_eq!(reads_added(&mut txn, |x| read(x, t, b"c")), 1);
    assert_eq!(
        reads_added(&mut txn, |x| assert!(x.delete(t, b"c").unwrap())),
        0
    );
    // An absent record is remembered as absent.
    assert_eq!(reads_added(&mut txn, |x| read(x, t, b"e")), 1);
    assert_eq!(
        reads_added(&mut txn, |x| assert!(!x.update(t, b"e", b"1").unwrap())),
        0
    );
    // An intervening read of another key replaces the memo...
    assert_eq!(reads_added(&mut txn, |x| read(x, t, b"d")), 1);
    assert_eq!(reads_added(&mut txn, |x| read(x, t, b"e")), 1);
    assert_eq!(
        reads_added(&mut txn, |x| x.write(t, b"d", b"1").unwrap()),
        1
    );
    // ...a missing key empties it...
    assert_eq!(reads_added(&mut txn, |x| read(x, t, b"d2")), 0);
    // ...and so does a scan, even one that ends on the remembered key.
    let mut txn2_keys = Vec::new();
    assert_eq!(reads_added(&mut txn, |x| read(x, t, b"e")), 1);
    txn.scan_with(t, b"e", None, None, |k, _| txn2_keys.push(k.to_vec()))
        .unwrap();
    let before = txn.read_set_len();
    txn.write(t, b"e", b"2").unwrap();
    assert_eq!(txn.read_set_len(), before + 1, "the scan dropped the memo");
    txn.commit().unwrap();

    let mut txn = w.begin();
    assert_eq!(txn.read(t, b"a").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(txn.read(t, b"b").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(txn.read(t, b"c").unwrap(), None);
    assert_eq!(txn.read(t, b"d").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(txn.read(t, b"e").unwrap().as_deref(), Some(&b"2"[..]));
    txn.commit().unwrap();
}

#[test]
fn read_memo_does_not_outlive_its_transaction() {
    let db = Database::open(SiloConfig::for_testing());
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"a", b"0").unwrap();
    txn.commit().unwrap();

    // Left behind by a commit, an abort and a drop in turn.
    for end in 0..3 {
        let mut txn = w.begin();
        assert!(txn.read(t, b"a").unwrap().is_some());
        match end {
            0 => {
                txn.commit().unwrap();
            }
            1 => txn.abort(),
            _ => drop(txn),
        }
        let mut txn = w.begin();
        assert_eq!(
            reads_added(&mut txn, |x| x.write(t, b"a", b"1").unwrap()),
            1,
            "a fresh transaction must read for itself (ending {end})"
        );
        txn.commit().unwrap();
    }
}

#[test]
fn memo_write_still_validates_the_read() {
    // The write found its record in the memo; the read-set entry behind the
    // memo is what notices a concurrent update.
    let db = Database::open(SiloConfig::for_testing());
    let t = db.create_table("t").unwrap();
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut txn = w1.begin();
    txn.write(t, b"a", b"0").unwrap();
    txn.commit().unwrap();

    let mut rmw = w1.begin();
    assert!(rmw.read(t, b"a").unwrap().is_some());
    let mut other = w2.begin();
    other.write(t, b"a", b"other").unwrap();
    other.commit().unwrap();
    rmw.write(t, b"a", b"mine").unwrap();
    assert_eq!(rmw.commit().unwrap_err().0, AbortReason::ReadValidation);
}

#[test]
fn read_only_commits_keep_the_workers_tids_monotone() {
    let db = Database::open(SiloConfig::for_testing());
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut writer = db.register_worker();
    let mut prev = Tid::ZERO;
    for i in 0..60u64 {
        // Someone else keeps the record's TID moving.
        let mut txn = writer.begin();
        txn.write(t, b"hot", &i.to_be_bytes()).unwrap();
        let written = txn.commit().unwrap();

        let mut txn = w.begin();
        if i % 3 == 0 {
            txn.write(t, &big_key(i), b"v").unwrap();
        } else {
            assert!(txn.read(t, b"hot").unwrap().is_some());
            // A scan and an absent read: node-set validation runs too.
            txn.scan(t, &big_key(0), Some(&big_key(100)), None).unwrap();
            assert!(txn.read(t, b"nope").unwrap().is_none());
        }
        let tid = txn.commit().unwrap();
        assert!(
            tid > prev,
            "worker TIDs must increase: {tid:?} after {prev:?}"
        );
        if i % 3 != 0 {
            assert!(tid > written, "a reader's TID exceeds what it read");
        }
        prev = tid;
        if i % 10 == 9 {
            w.quiesce();
            writer.quiesce();
            db.epochs().advance_n(1);
        }
    }
}

#[test]
fn read_only_commit_still_aborts_on_a_stale_read_or_phantom() {
    let db = Database::open(SiloConfig::for_testing());
    let t = db.create_table("t").unwrap();
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut txn = w1.begin();
    txn.write(t, b"a", b"0").unwrap();
    txn.commit().unwrap();

    let mut reader = w1.begin();
    assert!(reader.read(t, b"a").unwrap().is_some());
    let mut other = w2.begin();
    other.write(t, b"a", b"1").unwrap();
    other.commit().unwrap();
    assert_eq!(reader.commit().unwrap_err().0, AbortReason::ReadValidation);

    let mut reader = w1.begin();
    assert!(reader.read(t, b"b").unwrap().is_none());
    let mut other = w2.begin();
    other.insert(t, b"b", b"1").unwrap();
    other.commit().unwrap();
    assert_eq!(reader.commit().unwrap_err().0, AbortReason::NodeValidation);
}

#[test]
fn read_only_commit_reaches_neither_the_log_hook_nor_shared_memory() {
    use crate::database::{CommitHook, CommitWrites};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Counting(AtomicU64);
    impl CommitHook for Counting {
        fn on_commit(&self, _worker: usize, _tid: Tid, _writes: CommitWrites<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let db = Database::open(SiloConfig::for_testing());
    let hook = Arc::new(Counting::default());
    assert!(db.set_commit_hook(hook.clone()).is_ok());
    let t = db.create_table("t").unwrap();
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"a", b"0").unwrap();
    txn.write(t, b"b", b"0").unwrap();
    txn.commit().unwrap();
    assert_eq!(hook.0.load(Ordering::Relaxed), 1);
    for _ in 0..5 {
        let mut txn = w.begin();
        assert!(txn.read(t, b"a").unwrap().is_some());
        txn.commit().unwrap();
    }
    assert_eq!(hook.0.load(Ordering::Relaxed), 1);

    // A writer that locks `b` in Phase 1 and then fails Phase 2 on its
    // stale read of `a` reaches the hook no more than a reader does, and
    // leaves `b` unlocked.
    let mut other = db.register_worker();
    let mut stale = w.begin();
    assert!(stale.read(t, b"a").unwrap().is_some());
    stale.write(t, b"b", b"1").unwrap();
    let mut txn = other.begin();
    txn.write(t, b"a", b"1").unwrap();
    txn.commit().unwrap();
    assert_eq!(hook.0.load(Ordering::Relaxed), 2);
    assert_eq!(stale.commit().unwrap_err().0, AbortReason::ReadValidation);
    assert_eq!(hook.0.load(Ordering::Relaxed), 2);
    assert_eq!(w.stats().abort_reasons.read_validation, 1);
    let (b, _, _) = db.table(t).tree().get_tracked(b"b");
    // SAFETY: `b` was never superseded or deleted, and no collector ran.
    let word = unsafe { (*(b.unwrap() as *const crate::record::Record)).tid().load() };
    assert!(!word.is_locked());
}
