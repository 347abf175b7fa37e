// The paper's §3 rule that reads write nothing shared, checked with the
// shared-write audit counter, and the sharded reader-retry statistics that
// keep it. Included into `crate::tests` (lib.rs), which holds the imports.

/// The merged `reader_retries` figure must count every per-thread cell
/// exactly once — including cells whose owning threads exited before
/// `stats()` ran — and match a serial recount of the bumps that were made.
#[test]
fn sharded_retry_stats_merge_counts_exited_workers() {
    let t = Arc::new(Tree::new());
    let threads = 8u64;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let t = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            // A known, per-thread-distinct number of retry bumps.
            for _ in 0..(tid + 1) * 10 {
                t.counters.note_retry();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Every worker has exited; their cells live on the tree.
    let expected: u64 = (1..=threads).map(|n| n * 10).sum();
    assert_eq!(t.stats().reader_retries, expected);
    // stats() must not consume or double-count the cells.
    assert_eq!(t.stats().reader_retries, expected);

    // And the current thread's bumps land in a (possibly shared) cell that
    // is still summed exactly once.
    t.counters.note_retry();
    assert_eq!(t.stats().reader_retries, expected + 1);

    // IndexStats::merge adds the per-tree totals.
    let other = Tree::new();
    other.counters.note_retry();
    other.counters.note_retry();
    let mut merged = t.stats();
    merged.merge(&other.stats());
    assert_eq!(merged.reader_retries, expected + 3);
}

/// The §3 rule, pinned end-to-end for the index: a warmed read-only
/// operation mix (point hits and misses across inline, suffix, and layer
/// entries, plus scans) performs **zero** writes to shared memory. The
/// audit counter is live in debug builds; in release it reads 0 and the
/// test degenerates to a smoke check.
#[test]
fn read_only_operations_write_nothing_shared() {
    use silo_epoch::shared_write_audit;

    let t = Tree::new();
    // Warm with a mix that exercises every entry kind: short inline keys,
    // long suffix keys, and colliding keys that force trie layers.
    for i in 0..2000u64 {
        t.insert_if_absent(&key(i), i);
    }
    for i in 0..64u64 {
        let long = format!("sharedprefix-{:04}-plus-a-long-suffix", i).into_bytes();
        t.insert_if_absent(&long, 10_000 + i);
        let sibling = format!("sharedprefix-{:04}-plus-another-tail", i).into_bytes();
        t.insert_if_absent(&sibling, 20_000 + i);
    }
    let _ = shared_write_audit::take();

    for i in (0..2000u64).step_by(7) {
        assert_eq!(t.get(&key(i)), Some(i));
        let (v, _, _) = t.get_tracked(&key(i));
        assert_eq!(v, Some(i));
    }
    assert_eq!(t.get(b"missing-entirely"), None);
    assert_eq!(t.get(b"sharedprefix-0004-plus-a-long-MISS"), None);
    assert_eq!(t.get(b"sharedprefix-0011-plus-a-long-suffix"), Some(10_011));
    let r = t.scan(&key(100), Some(&key(400)), None);
    assert_eq!(r.entries.len(), 300);
    let r = t.scan(b"sharedprefix-", None, Some(50));
    assert_eq!(r.entries.len(), 50);

    assert_eq!(
        shared_write_audit::take(),
        0,
        "read-only index operations must not write to shared memory"
    );
}

/// An insert into a leaf with room writes that leaf and nothing above it:
/// the same shared-write count in a one-leaf tree as in a tree four levels
/// deep. A descent that locked its way down from the layer root would add a
/// lock per level. (Like the test above, only a debug build counts.)
#[test]
fn non_splitting_insert_locks_only_its_leaf() {
    use silo_epoch::shared_write_audit;

    // The shared writes of one insert of `k`, which must not split.
    let insert_writes = |t: &Tree, k: u64| {
        let _ = shared_write_audit::take();
        let outcome = t.insert_if_absent(&k.to_be_bytes(), k);
        let writes = shared_write_audit::take();
        match outcome {
            InsertOutcome::Inserted { node_changes } => {
                assert_eq!(node_changes.len(), 1, "no split: {node_changes:?}")
            }
            InsertOutcome::Exists { .. } => panic!("key {k} was absent"),
        }
        writes
    };

    let one_leaf = Tree::new();
    one_leaf.insert_if_absent(&0u64.to_be_bytes(), 0);
    assert_eq!(one_leaf.stats().max_btree_depth, 1);

    // Ascending 8-byte keys: one trie layer, leaves left with room for one.
    let deep = Tree::new();
    for i in 0..20_000u64 {
        deep.insert_if_absent(&(2 * i).to_be_bytes(), 2 * i);
    }
    assert!(deep.stats().max_btree_depth >= 3);

    let shallow_writes = insert_writes(&one_leaf, 1);
    let deep_writes = insert_writes(&deep, 2 * 10_000 + 1);
    assert_eq!(
        deep_writes, shallow_writes,
        "an insert into a leaf with room must lock nothing above the leaf"
    );
}
