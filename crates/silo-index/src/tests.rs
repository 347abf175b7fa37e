//! Unit, stress, and property-based tests for the Masstree-style index.

use super::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering as AO};
use std::sync::Arc;

fn key(i: u64) -> Vec<u8> {
    format!("key{:08}", i).into_bytes()
}

/// Thread count for the concurrency tests: `SILO_TEST_THREADS` if set
/// (oversubscribed stress runs raise it past the core count), else
/// `default`.
fn test_threads(default: u64) -> u64 {
    std::env::var("SILO_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Walks a quiescent tree and asserts the interior structure of every trie
/// layer: an interior node holds at most `FANOUT` separators, strictly
/// ascending, and a non-null child in every slot `0..=nkeys`; every
/// separator and every leaf key below a child lies within the bounds the
/// separators above give that child (`children[i]` covers `keys[i - 1]`
/// inclusive to `keys[i]` exclusive).
fn audit_interior(tree: &Tree) {
    // (node, lower bound, upper bound or none): the bounds of one layer.
    let mut stack: Vec<(*const NodeHeader, u64, Option<u64>)> =
        vec![(tree.root.root.load(AO::Acquire), 0, None)];
    while let Some((node, lo, hi)) = stack.pop() {
        assert!(!node.is_null(), "a layer root is null");
        let within = |s: u64| s >= lo && hi.map_or(true, |h| s < h);
        // SAFETY: the tree is quiescent and frees no node while it lives.
        if unsafe { (*node).is_leaf() } {
            // SAFETY: LEAF bit checked.
            let leaf = unsafe { &*(node as *const LeafNode) };
            let perm = leaf.permutation();
            for rank in 0..perm.count() {
                let slot = perm.slot(rank);
                let slice = leaf.slice(slot);
                assert!(
                    within(slice),
                    "leaf {node:?}: slice {slice:#x} outside [{lo:#x}, {hi:?})"
                );
                if leaf.klen(slot) == KLEN_LAYER {
                    // SAFETY: layer entries point at live layers.
                    let sub =
                        unsafe { (*(leaf.value(slot) as *const Layer)).root.load(AO::Acquire) };
                    stack.push((sub, 0, None));
                }
            }
            continue;
        }
        // SAFETY: LEAF bit clear.
        let inner = unsafe { &*(node as *const InnerNode) };
        let n = inner.nkeys();
        assert!(n <= FANOUT, "inner {node:?}: {n} separators");
        let keys: Vec<u64> = (0..n).map(|i| inner.key(i)).collect();
        for pair in keys.windows(2) {
            assert!(
                pair[0] < pair[1],
                "inner {node:?}: separators {keys:x?} do not ascend"
            );
        }
        for &k in &keys {
            assert!(
                within(k),
                "inner {node:?}: separator {k:#x} outside [{lo:#x}, {hi:?})"
            );
        }
        for i in 0..=n {
            let child = inner.child(i);
            assert!(
                !child.is_null(),
                "inner {node:?}: child {i} of {n} separators is null"
            );
            let child_lo = if i == 0 { lo } else { keys[i - 1] };
            let child_hi = if i == n { hi } else { Some(keys[i]) };
            stack.push((child, child_lo, child_hi));
        }
    }
}

#[test]
fn empty_tree_lookups() {
    let t = Tree::new();
    assert!(t.is_empty());
    assert_eq!(t.get(b"missing"), None);
    let (v, leaf, version) = t.get_tracked(b"missing");
    assert_eq!(v, None);
    assert_eq!(t.node_version(leaf), version);
}

#[test]
fn insert_and_get_single() {
    let t = Tree::new();
    match t.insert_if_absent(b"hello", 42) {
        InsertOutcome::Inserted { node_changes } => {
            assert_eq!(node_changes.len(), 1);
        }
        InsertOutcome::Exists { .. } => panic!("key was absent"),
    }
    assert_eq!(t.get(b"hello"), Some(42));
    assert_eq!(t.len(), 1);
}

#[test]
fn insert_if_absent_reports_existing() {
    let t = Tree::new();
    assert!(matches!(
        t.insert_if_absent(b"k", 1),
        InsertOutcome::Inserted { .. }
    ));
    match t.insert_if_absent(b"k", 2) {
        InsertOutcome::Exists { value, .. } => assert_eq!(value, 1),
        InsertOutcome::Inserted { .. } => panic!("key already present"),
    }
    assert_eq!(t.get(b"k"), Some(1));
    assert_eq!(t.len(), 1);
}

#[test]
fn many_inserts_cause_splits_and_remain_retrievable() {
    let t = Tree::new();
    let n = 10_000u64;
    for i in 0..n {
        assert!(matches!(
            t.insert_if_absent(&key(i), i),
            InsertOutcome::Inserted { .. }
        ));
    }
    assert_eq!(t.len(), n as usize);
    for i in 0..n {
        assert_eq!(t.get(&key(i)), Some(i), "key {i} lost");
    }
    assert_eq!(t.get(&key(n)), None);
    let stats = t.stats();
    assert_eq!(stats.entries, n);
    assert!(stats.splits > 0, "10k inserts must split");
}

#[test]
fn inserts_in_reverse_and_random_order() {
    let t = Tree::new();
    let mut order: Vec<u64> = (0..5000).collect();
    // Deterministic shuffle.
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    for &i in &order {
        t.insert_if_absent(&key(i), i);
    }
    for i in 0..5000 {
        assert_eq!(t.get(&key(i)), Some(i));
    }
}

#[test]
fn leaf_version_changes_when_membership_changes() {
    let t = Tree::new();
    let (_, leaf, v0) = t.get_tracked(b"absent-key");
    // Inserting an unrelated key into the same (only) leaf changes its version.
    t.insert_if_absent(b"other", 1);
    assert_ne!(t.node_version(leaf), v0);
}

#[test]
fn leaf_version_stable_when_nothing_changes() {
    let t = Tree::new();
    t.insert_if_absent(b"a", 1);
    let (_, leaf, v0) = t.get_tracked(b"zzz");
    assert_eq!(t.get(b"a"), Some(1));
    assert_eq!(t.node_version(leaf), v0);
}

#[test]
fn update_value_does_not_change_leaf_version() {
    let t = Tree::new();
    t.insert_if_absent(b"a", 1);
    let (_, leaf, v0) = t.get_tracked(b"a");
    assert!(t.update_value(b"a", 99));
    assert_eq!(t.get(b"a"), Some(99));
    assert_eq!(
        t.node_version(leaf),
        v0,
        "value updates must not look like structural changes"
    );
    assert!(!t.update_value(b"missing", 1));
}

#[test]
fn remove_changes_version_and_deletes_key() {
    let t = Tree::new();
    t.insert_if_absent(b"a", 1);
    t.insert_if_absent(b"b", 2);
    let (_, leaf, v0) = t.get_tracked(b"a");
    let removed = t.remove(b"a").expect("present");
    assert_eq!(removed.value, 1);
    assert_eq!(t.get(b"a"), None);
    assert_eq!(t.get(b"b"), Some(2));
    assert_ne!(t.node_version(leaf), v0);
    assert_eq!(t.len(), 1);
    assert!(t.remove(b"a").is_none());
}

#[test]
fn upsert_inserts_then_overwrites() {
    let t = Tree::new();
    assert_eq!(t.upsert(b"x", 1), None);
    assert_eq!(t.upsert(b"x", 2), Some(1));
    assert_eq!(t.get(b"x"), Some(2));
    assert_eq!(t.len(), 1);
}

#[test]
fn insert_node_changes_cover_splits() {
    let t = Tree::new();
    // `key(i)` keys share their first 8 bytes, so they occupy one trie layer
    // below the root: fill that layer's leaf exactly.
    for i in 0..LEAF_WIDTH as u64 {
        t.insert_if_absent(&key(i), i);
    }
    // The next insert must split: expect at least one updated leaf and two
    // created nodes (the new right leaf and the layer's new interior root).
    match t.insert_if_absent(&key(LEAF_WIDTH as u64), 0) {
        InsertOutcome::Inserted { node_changes } => {
            let updated = node_changes
                .iter()
                .filter(|c| matches!(c, NodeChange::Updated { .. }))
                .count();
            let created = node_changes
                .iter()
                .filter(|c| matches!(c, NodeChange::Created { .. }))
                .count();
            assert!(updated >= 1, "expected an updated leaf: {node_changes:?}");
            assert!(
                created >= 2,
                "expected new leaf + new root: {node_changes:?}"
            );
            // Reported new versions must match the live tree.
            for change in node_changes.iter() {
                match change {
                    NodeChange::Updated {
                        node, new_version, ..
                    } => assert_eq!(t.node_version(*node), *new_version),
                    NodeChange::Created { node, version, .. } => {
                        assert_eq!(t.node_version(*node), *version)
                    }
                }
            }
        }
        InsertOutcome::Exists { .. } => panic!("key was absent"),
    }
}

#[test]
fn scan_full_tree_is_sorted_and_complete() {
    let t = Tree::new();
    for i in 0..2000u64 {
        t.insert_if_absent(&key(i), i);
    }
    let result = t.scan(b"", None, None);
    assert_eq!(result.entries.len(), 2000);
    for (i, (k, v)) in result.entries.iter().enumerate() {
        assert_eq!(k, &key(i as u64));
        assert_eq!(*v, i as u64);
    }
    assert!(!result.nodes.is_empty());
    // Every reported node version must still validate (nothing changed).
    for (node, version) in &result.nodes {
        assert_eq!(t.node_version(*node), *version);
    }
}

#[test]
fn scan_respects_bounds_and_limit() {
    let t = Tree::new();
    for i in 0..500u64 {
        t.insert_if_absent(&key(i), i);
    }
    let r = t.scan(&key(100), Some(&key(200)), None);
    assert_eq!(r.entries.len(), 100);
    assert_eq!(r.entries.first().unwrap().0, key(100));
    assert_eq!(r.entries.last().unwrap().0, key(199));

    let r = t.scan(&key(100), Some(&key(200)), Some(10));
    assert_eq!(r.entries.len(), 10);
    assert_eq!(r.entries.last().unwrap().0, key(109));

    let r = t.scan(&key(490), None, None);
    assert_eq!(r.entries.len(), 10);

    let r = t.scan(&key(1000), None, None);
    assert!(r.entries.is_empty());
    assert!(!r.nodes.is_empty(), "even an empty scan registers a leaf");
}

#[test]
fn scan_with_reuses_its_scratch_across_scans() {
    // Keys of 4, 12 and 27 bytes: the scans below cross trie layers, suffix
    // entries and leaf boundaries, and each leaves a different shape behind
    // in the scratch the next one reuses.
    let t = Tree::new();
    for i in 0..600u64 {
        let mut k = format!("{:04}", i / 3).into_bytes();
        match i % 3 {
            0 => {}
            1 => k.extend_from_slice(b"-shared-"),
            _ => k.extend_from_slice(b"-shared-and-a-longer-tail"),
        }
        t.insert_if_absent(&k, i);
    }
    type Case = (&'static [u8], Option<&'static [u8]>, Option<usize>);
    let cases: [Case; 7] = [
        (b"", None, None),
        (b"0100-shared-", Some(b"0150"), None),
        (b"0199", None, Some(5)),
        (b"0020-shared-and", Some(b"0020-shared-b"), None),
        (b"", None, Some(0)),
        (b"9999", None, None),
        (b"0000", Some(b"0199-shared-a"), Some(400)),
    ];
    let mut scratch = ScanScratch::default();
    for (start, end, limit) in cases {
        let collected = t.scan(start, end, limit);
        let mut visited = Vec::new();
        t.scan_with(&mut scratch, start, end, limit, |k, v| {
            visited.push((k.to_vec(), v));
        });
        assert_eq!(
            visited, collected.entries,
            "{start:?}..{end:?} limit {limit:?}"
        );
        assert_eq!(scratch.nodes(), &collected.nodes[..]);
    }
}

#[test]
fn scan_detects_membership_changes_via_node_versions() {
    let t = Tree::new();
    for i in 0..100u64 {
        t.insert_if_absent(&key(i), i);
    }
    let r = t.scan(&key(10), Some(&key(30)), None);
    // Concurrent (here: subsequent) insert into the scanned range must change
    // at least one registered node's version — this is exactly the phantom
    // check Silo's Phase 2 performs.
    t.insert_if_absent(b"key00000015x", 999);
    let invalidated = r
        .nodes
        .iter()
        .any(|(node, version)| t.node_version(*node) != *version);
    assert!(invalidated, "phantom insert must be detectable");
}

#[test]
fn variable_length_and_binary_keys() {
    let t = Tree::new();
    let keys: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"\x00".to_vec(),
        b"\x00\x00".to_vec(),
        b"\xff".to_vec(),
        b"\xff\xff\xff".to_vec(),
        b"a".to_vec(),
        b"ab".to_vec(),
        b"abc".to_vec(),
        vec![0u8; 100],
        vec![0xab; 300],
    ];
    for (i, k) in keys.iter().enumerate() {
        assert!(matches!(
            t.insert_if_absent(k, i as u64),
            InsertOutcome::Inserted { .. }
        ));
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.get(k), Some(i as u64));
    }
    // Scan returns them in byte order.
    let r = t.scan(b"", None, None);
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        r.entries.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        sorted
    );
}

// ---------------------------------------------------------------------------
// Trie-of-trees behaviour
// ---------------------------------------------------------------------------

/// The §3 single-slice fast path: looking up keys of at most 8 bytes must
/// never dereference an out-of-line suffix buffer, even when the leaf also
/// holds suffix entries.
#[test]
fn short_key_gets_never_dereference_suffixes() {
    let t = Tree::new();
    let short: Vec<&[u8]> = vec![b"", b"a", b"ab", b"abc", b"abcdefgh", b"zzzzzzz"];
    let long: Vec<&[u8]> = vec![b"abcdefghTAIL", b"zzzzzzzz-long", b"abcdefgh\x00"];
    for (i, k) in short.iter().chain(long.iter()).enumerate() {
        t.insert_if_absent(k, i as u64);
    }
    let _ = deref_audit::take();
    for (i, k) in short.iter().enumerate() {
        assert_eq!(t.get(k), Some(i as u64));
    }
    // Also a short miss that shares a slice with suffix entries.
    assert_eq!(t.get(b"abcdefg"), None);
    assert_eq!(
        deref_audit::take(),
        0,
        "single-slice lookups must not chase KeyBuf pointers"
    );
    // Sanity: a lookup of a key whose tail lives out of line does touch its
    // suffix ("abcdefgh…" keys converted to a layer with *inline* tails, so
    // use the un-collided long key).
    assert_eq!(t.get(b"zzzzzzzz-long"), Some(short.len() as u64 + 1));
    assert!(deref_audit::take() > 0);
}

#[test]
fn shared_prefixes_build_trie_layers() {
    let t = Tree::new();
    // 8-, 16- and 24-byte shared prefixes with divergent tails.
    let keys: Vec<Vec<u8>> = vec![
        b"PPPPPPPPa".to_vec(),
        b"PPPPPPPPb".to_vec(),
        b"PPPPPPPPQQQQQQQQa".to_vec(),
        b"PPPPPPPPQQQQQQQQbb".to_vec(),
        b"PPPPPPPPQQQQQQQQRRRRRRRRx".to_vec(),
        b"PPPPPPPPQQQQQQQQRRRRRRRRyyyy".to_vec(),
        b"PPPPPPPP".to_vec(),
        b"PPPPPPPPQQQQQQQQ".to_vec(),
    ];
    for (i, k) in keys.iter().enumerate() {
        assert!(matches!(
            t.insert_if_absent(k, i as u64),
            InsertOutcome::Inserted { .. }
        ));
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.get(k), Some(i as u64), "key {i}");
    }
    let mut sorted = keys.clone();
    sorted.sort();
    let r = t.scan(b"", None, None);
    assert_eq!(
        r.entries.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        sorted
    );
    let stats = t.stats();
    assert!(stats.layers >= 3, "expected nested layers: {stats:?}");
    assert!(stats.max_trie_depth >= 3, "{stats:?}");
    assert_eq!(stats.entries, keys.len() as u64);
    assert!(stats.layer_creations >= 2);
    // Bounded scans across layer boundaries ('R' < 'a', so the deepest
    // layer's keys sort between the 16-byte key and the short-tailed ones).
    let r = t.scan(b"PPPPPPPPQQQQQQQQ", Some(b"PPPPPPPPQQQQQQQQc"), None);
    assert_eq!(
        r.entries.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        vec![
            b"PPPPPPPPQQQQQQQQ".to_vec(),
            b"PPPPPPPPQQQQQQQQRRRRRRRRx".to_vec(),
            b"PPPPPPPPQQQQQQQQRRRRRRRRyyyy".to_vec(),
            b"PPPPPPPPQQQQQQQQa".to_vec(),
            b"PPPPPPPPQQQQQQQQbb".to_vec(),
        ]
    );
}

/// Deep-prefix collisions create a chain of layers in one insert; both keys
/// must land correctly and the conversion must report every created leaf.
#[test]
fn deep_shared_prefix_creates_layer_chain() {
    let t = Tree::new();
    let a = vec![7u8; 40]; // 5 slices of 0x07
    let mut b = vec![7u8; 40];
    b[39] = 9; // diverges in the final slice
    t.insert_if_absent(&a, 1);
    let (_, leaf, v0) = t.get_tracked(&b);
    match t.insert_if_absent(&b, 2) {
        InsertOutcome::Inserted { node_changes } => {
            let created: Vec<_> = node_changes
                .iter()
                .filter(|c| matches!(c, NodeChange::Created { .. }))
                .collect();
            assert!(
                created.len() >= 4,
                "one leaf per extra shared slice: {node_changes:?}"
            );
        }
        InsertOutcome::Exists { .. } => panic!("b was absent"),
    }
    // The conversion must invalidate the node-set entry that proved `b`
    // absent (phantom protection across the conversion).
    assert_ne!(t.node_version(leaf), v0);
    assert_eq!(t.get(&a), Some(1));
    assert_eq!(t.get(&b), Some(2));
    let r = t.scan(b"", None, None);
    assert_eq!(r.entries.len(), 2);
    assert_eq!(r.entries[0].0, a);
    assert_eq!(r.entries[1].0, b);
}

/// Absence proofs must stay phantom-safe no matter which trie shape the
/// later insert takes: new suffix entry, suffix→layer conversion, or a
/// descent into an existing layer.
#[test]
fn absent_key_tracking_across_layer_shapes() {
    // (a) Key absent, no bucket: insert adds a suffix entry to the same leaf.
    let t = Tree::new();
    let k1 = b"AAAAAAAAtail1";
    let (v, leaf, version) = t.get_tracked(k1);
    assert_eq!(v, None);
    t.insert_if_absent(k1, 1);
    assert_ne!(t.node_version(leaf), version);

    // (b) Key absent, bucket holds another suffix: insert converts it.
    let k2 = b"AAAAAAAAtail2";
    let (v, leaf, version) = t.get_tracked(k2);
    assert_eq!(v, None);
    t.insert_if_absent(k2, 2);
    assert_ne!(
        t.node_version(leaf),
        version,
        "conversion must bump the leaf"
    );

    // (c) Key absent, bucket is a layer: the proof lives in the sub-layer
    // leaf, which the insert modifies.
    let k3 = b"AAAAAAAAtail3";
    let (v, leaf, version) = t.get_tracked(k3);
    assert_eq!(v, None);
    t.insert_if_absent(k3, 3);
    assert_ne!(t.node_version(leaf), version);
    assert_eq!(t.get(k1), Some(1));
    assert_eq!(t.get(k2), Some(2));
    assert_eq!(t.get(k3), Some(3));
}

/// Keys with an enormous shared prefix build one trie layer per 8 shared
/// bytes. Every operation — insert (which builds the whole chain at once),
/// get, scan, stats, remove, and drop — must traverse the chain iteratively;
/// recursing once per layer would overflow the thread stack (regression:
/// scan/stats/drop were originally recursive and crashed here).
#[test]
fn very_deep_layer_chains_do_not_overflow_the_stack() {
    let t = Tree::new();
    // 64 KiB shared prefix = 8192 nested layers.
    let a = vec![0x41u8; 65_536 + 2];
    let mut b = a.clone();
    *b.last_mut().unwrap() = 0x42;
    assert!(matches!(
        t.insert_if_absent(&a, 1),
        InsertOutcome::Inserted { .. }
    ));
    match t.insert_if_absent(&b, 2) {
        InsertOutcome::Inserted { node_changes } => {
            let created = node_changes
                .iter()
                .filter(|c| matches!(c, NodeChange::Created { .. }))
                .count();
            assert!(created >= 8000, "one leaf per shared slice: {created}");
        }
        InsertOutcome::Exists { .. } => panic!("b was absent"),
    }
    assert_eq!(t.get(&a), Some(1));
    assert_eq!(t.get(&b), Some(2));
    let r = t.scan(b"", None, None);
    assert_eq!(
        r.entries.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        vec![a.clone(), b.clone()]
    );
    // Bounded scan that descends the whole chain and stops at `b`.
    let r = t.scan(&a, Some(&b), None);
    assert_eq!(r.entries.len(), 1);
    let stats = t.stats();
    assert!(stats.max_trie_depth >= 8192, "{stats:?}");
    assert_eq!(stats.entries, 2);
    assert_eq!(t.remove(&a).map(|e| e.value), Some(1));
    assert_eq!(t.get(&b), Some(2));
    drop(t); // frees the 8192-layer chain without recursing
}

#[test]
fn removes_inside_layers_and_suffix_ownership() {
    let t = Tree::new();
    let keys: Vec<Vec<u8>> = vec![
        b"BBBBBBBBone".to_vec(),
        b"BBBBBBBBtwo".to_vec(),
        b"BBBBBBBBthree-with-a-long-tail".to_vec(),
        b"BBBBBBBB".to_vec(),
    ];
    for (i, k) in keys.iter().enumerate() {
        t.insert_if_absent(k, i as u64);
    }
    // Remove a deep suffix entry; the RemovedEntry owns its suffix buffer.
    let removed = t
        .remove(b"BBBBBBBBthree-with-a-long-tail")
        .expect("present");
    assert_eq!(removed.value, 2);
    drop(removed); // single-threaded: immediate drop is fine
    assert_eq!(t.get(b"BBBBBBBBthree-with-a-long-tail"), None);
    // Remove an inline entry in the sub-layer and the 8-byte inline key.
    assert_eq!(t.remove(b"BBBBBBBBone").map(|r| r.value), Some(0));
    assert_eq!(t.remove(b"BBBBBBBB").map(|r| r.value), Some(3));
    assert_eq!(t.get(b"BBBBBBBBtwo"), Some(1));
    assert_eq!(t.len(), 1);
    // Re-insert through the (now sparse) layer.
    t.insert_if_absent(b"BBBBBBBBone", 9);
    assert_eq!(t.get(b"BBBBBBBBone"), Some(9));
}

#[test]
fn stats_report_structure() {
    let t = Tree::new();
    assert_eq!(t.stats().layers, 1);
    for i in 0..100u64 {
        t.insert_if_absent(&key(i), i);
    }
    let stats = t.stats();
    assert_eq!(stats.entries, 100);
    assert!(stats.layers >= 2, "key() keys share an 8-byte prefix");
    assert!(stats.leaves >= 2);
    assert_eq!(
        stats.nodes_per_level.iter().sum::<u64>(),
        stats.leaves + stats.inners
    );
    assert!(stats.max_btree_depth >= 2);
}

/// Leaves needed for `n` 8-byte big-endian keys inserted in the order given.
fn leaves_after(order: impl Iterator<Item = u64>) -> u64 {
    let t = Tree::new();
    let mut n = 0;
    for i in order {
        t.insert_if_absent(&i.to_be_bytes(), i);
        n += 1;
    }
    let stats = t.stats();
    assert_eq!(stats.entries, n);
    stats.leaves
}

#[test]
fn ascending_inserts_fill_their_leaves() {
    // Every split is at the right edge: the left leaf keeps 14 of 15 slots.
    let n = 30_000u64;
    let leaves = leaves_after(0..n);
    assert!(
        leaves <= n / (LEAF_WIDTH as u64 - 2),
        "{leaves} leaves for {n} keys appended in order"
    );
}

#[test]
fn interleaved_ascending_runs_fill_their_leaves() {
    // Two loaders, each appending to its own half of the key space, as the
    // benchmark's YCSB set-up does: the lower run never reaches the right
    // edge of a leaf, and is recognised all the same.
    let n = 30_000u64;
    let leaves = leaves_after((0..n).map(|i| (i % 2) * (n / 2) + i / 2));
    assert!(
        leaves <= n / (LEAF_WIDTH as u64 - 2),
        "{leaves} leaves for {n} keys appended in two runs"
    );
}

#[test]
fn scattered_inserts_still_split_in_the_middle() {
    // A shuffled order: the fill stays at a middle split's ln 2.
    let n = 30_000u64;
    let mut order: Vec<u64> = (0..n).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..order.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let leaves = leaves_after(order.into_iter());
    let fill = n as f64 / (leaves * LEAF_WIDTH as u64) as f64;
    assert!((0.64..0.74).contains(&fill), "fill {fill:.2}");
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

#[test]
fn concurrent_disjoint_inserts() {
    let t = Arc::new(Tree::new());
    let threads = test_threads(4);
    let per_thread = 3000u64;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let t = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                let k = key(tid * per_thread + i);
                assert!(matches!(
                    t.insert_if_absent(&k, tid * per_thread + i),
                    InsertOutcome::Inserted { .. }
                ));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    audit_interior(&t);
    assert_eq!(t.len(), (threads * per_thread) as usize);
    for i in 0..threads * per_thread {
        assert_eq!(t.get(&key(i)), Some(i));
    }
    let r = t.scan(b"", None, None);
    assert_eq!(r.entries.len(), (threads * per_thread) as usize);
}

#[test]
fn concurrent_inserts_of_same_keys_keep_first_value() {
    let t = Arc::new(Tree::new());
    let threads = test_threads(4);
    let keys = 2000u64;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let t = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            let mut wins = 0u64;
            for i in 0..keys {
                if matches!(
                    t.insert_if_absent(&key(i), tid),
                    InsertOutcome::Inserted { .. }
                ) {
                    wins += 1;
                }
            }
            wins
        }));
    }
    let total_wins: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total_wins, keys, "each key must be inserted exactly once");
    audit_interior(&t);
    assert_eq!(t.len(), keys as usize);
    for i in 0..keys {
        let v = t.get(&key(i)).unwrap();
        assert!(v < threads, "value must come from one of the writers");
    }
}

/// Concurrent inserts of colliding long keys: every thread races to convert
/// the same suffix buckets into layers.
#[test]
fn concurrent_layer_conversions() {
    let t = Arc::new(Tree::new());
    let threads = test_threads(4);
    let buckets = 64u64;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let t = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            for b in 0..buckets {
                // All threads' keys for bucket `b` share 16 bytes.
                let k = format!("bk{:06}shared__t{}", b, tid).into_bytes();
                t.insert_if_absent(&k, tid * buckets + b);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    audit_interior(&t);
    assert_eq!(t.len(), (threads * buckets) as usize);
    for tid in 0..threads {
        for b in 0..buckets {
            let k = format!("bk{:06}shared__t{}", b, tid).into_bytes();
            assert_eq!(t.get(&k), Some(tid * buckets + b));
        }
    }
    let r = t.scan(b"", None, None);
    assert_eq!(r.entries.len(), (threads * buckets) as usize);
    assert!(t.stats().layer_creations >= buckets);
}

#[test]
fn concurrent_readers_during_inserts_see_only_valid_values() {
    let t = Arc::new(Tree::new());
    let stop = Arc::new(AtomicBool::new(false));
    let n = 5000u64;

    let mut readers = Vec::new();
    for _ in 0..test_threads(2) {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut observed = 0u64;
            while !stop.load(AO::Relaxed) {
                for i in (0..n).step_by(97) {
                    // Values are always key index + 1000.
                    if let Some(v) = t.get(&key(i)) {
                        assert_eq!(v, i + 1000);
                        observed += 1;
                    }
                }
            }
            observed
        }));
    }
    let scanner = {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(AO::Relaxed) {
                let r = t.scan(&key(100), Some(&key(4000)), Some(200));
                let mut prev: Option<Vec<u8>> = None;
                for (k, v) in &r.entries {
                    if let Some(p) = &prev {
                        assert!(k > p, "scan results must be sorted");
                    }
                    let idx: u64 = String::from_utf8_lossy(&k[3..]).parse().unwrap();
                    assert_eq!(*v, idx + 1000);
                    prev = Some(k.clone());
                }
            }
        })
    };

    for i in 0..n {
        t.insert_if_absent(&key(i), i + 1000);
    }
    stop.store(true, AO::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    scanner.join().unwrap();
    audit_interior(&t);
    for i in 0..n {
        assert_eq!(t.get(&key(i)), Some(i + 1000));
    }
}

#[test]
fn concurrent_updates_and_reads() {
    let t = Arc::new(Tree::new());
    for i in 0..200u64 {
        t.insert_if_absent(&key(i), 1);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..test_threads(2) {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(AO::Relaxed) {
                for i in 0..200u64 {
                    t.update_value(&key(i), (w + 1) * 1000 + round);
                }
                round += 1;
            }
        }));
    }
    for _ in 0..50 {
        for i in 0..200u64 {
            let v = t.get(&key(i)).unwrap();
            assert!(v == 1 || v >= 1000, "unexpected value {v}");
        }
    }
    stop.store(true, AO::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

/// Writers inserting interleaved keys (`key(i * writers + tid)`) contend on
/// every leaf and on its parent, so their splits race: upgrading a full
/// leaf's ancestors fails and the insert starts over. Readers running
/// alongside may only see values that were inserted.
#[test]
fn concurrent_interleaved_inserts_split_shared_leaves() {
    let t = Arc::new(Tree::new());
    let writers = test_threads(4);
    let per_writer = 50_000u64;
    let n = writers * per_writer;
    // Every key's value is its index plus this.
    let base = 1_000_000u64;
    let stop = Arc::new(AtomicBool::new(false));
    // Everyone starts at once, so the writers' splits overlap.
    let start = Arc::new(std::sync::Barrier::new(writers as usize + 2));
    fn index_of(k: &[u8]) -> u64 {
        String::from_utf8_lossy(&k[3..]).parse().unwrap()
    }

    let mut readers = Vec::new();
    for r in 0..2u64 {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        readers.push(std::thread::spawn(move || {
            start.wait();
            while !stop.load(AO::Relaxed) {
                for i in (r..n).step_by(53) {
                    let (v, leaf, version) = t.get_tracked(&key(i));
                    if let Some(v) = v {
                        assert_eq!(v, i + base, "reader saw a value never inserted");
                    }
                    assert_eq!(version & NODE_LOCK_BIT, 0);
                    assert!(t.node_version(leaf) >= version, "versions only grow");
                }
                let r = t.scan(&key(r * n / 2), None, Some(200));
                for pair in r.entries.windows(2) {
                    assert!(pair[0].0 < pair[1].0, "scan results must be sorted");
                }
                for (k, v) in &r.entries {
                    assert_eq!(*v, index_of(k) + base, "scan saw a value never inserted");
                }
            }
        }));
    }
    let mut handles = Vec::new();
    for tid in 0..writers {
        let t = Arc::clone(&t);
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            start.wait();
            for i in 0..per_writer {
                let k = i * writers + tid;
                assert!(
                    matches!(
                        t.insert_if_absent(&key(k), k + base),
                        InsertOutcome::Inserted { .. }
                    ),
                    "key {k} has one writer and was absent"
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, AO::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    audit_interior(&t);

    for i in 0..n {
        assert_eq!(t.get(&key(i)), Some(i + base));
        assert!(matches!(
            t.insert_if_absent(&key(i), 0),
            InsertOutcome::Exists { value } if value == i + base
        ));
    }
    let all = t.scan(b"", None, None);
    assert_eq!(all.entries.len() as u64, n);
    for (i, (k, v)) in all.entries.iter().enumerate() {
        assert_eq!(k, &key(i as u64), "full scan is sorted and complete");
        assert_eq!(*v, i as u64 + base);
    }
    let stats = t.stats();
    assert_eq!(stats.entries, n);
    assert!(stats.splits > 0);
}

// ---------------------------------------------------------------------------
// Reads-write-nothing (paper §3) and sharded statistics
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Interior-node permutation publish ordering
// ---------------------------------------------------------------------------

/// Readers racing interior separator inserts and splits: short (inline,
/// single-slice) keys inserted in an adversarial order drive constant
/// interior-node mutation while readers validate every observed value. A
/// shifting separator array would let a reader route on a half-moved key
/// and return a wrong (yet present-looking) entry; permutation publishing
/// plus version validation must never let that surface.
#[test]
fn concurrent_readers_during_interior_splits_see_consistent_routing() {
    let t = Arc::new(Tree::new());
    let stop = Arc::new(AtomicBool::new(false));
    let n = 6000u64;
    // 8-byte keys, bit-reversed insertion order: neighbouring inserts land
    // in distant leaves, maximizing distinct interior-insert sites.
    let enc = |i: u64| (i.reverse_bits() >> 48) ^ (i << 16);

    let mut readers = Vec::new();
    for r in 0..test_threads(2) {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut hits = 0u64;
            while !stop.load(AO::Relaxed) {
                for i in (r..n).step_by(61) {
                    if let Some(v) = t.get(&enc(i).to_be_bytes()) {
                        assert_eq!(v, i, "reader observed a misrouted entry");
                        hits += 1;
                    }
                }
            }
            hits
        }));
    }
    for i in 0..n {
        t.insert_if_absent(&enc(i).to_be_bytes(), i);
    }
    stop.store(true, AO::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    audit_interior(&t);
    assert!(
        t.stats().inners > 1,
        "workload must have split interior nodes"
    );
    for i in 0..n {
        assert_eq!(t.get(&enc(i).to_be_bytes()), Some(i));
    }
}

// ---------------------------------------------------------------------------
// Property-based model tests
// ---------------------------------------------------------------------------
// Bulk load
// ---------------------------------------------------------------------------

/// Bulk-builds a tree from sorted `keys`, each valued by its index.
fn bulk_built(keys: &[Vec<u8>]) -> Tree {
    let tree = Tree::new();
    let mut load = tree.bulk_load(|_| panic!("nothing is discarded")).unwrap();
    for (i, k) in keys.iter().enumerate() {
        load.push(k, i as u64).unwrap();
    }
    load.publish().unwrap();
    tree
}

#[test]
fn bulk_load_fills_leaves_and_interior_nodes() {
    let n = 10_000u64;
    let keys: Vec<Vec<u8>> = (0..n).map(|i| (i * 3).to_be_bytes().to_vec()).collect();
    let tree = bulk_built(&keys);
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(tree.get(k), Some(i as u64));
        assert_eq!(tree.get(&(i as u64 * 3 + 1).to_be_bytes()), None);
    }
    let stats = tree.stats();
    assert_eq!(stats.entries, n);
    assert_eq!(
        stats.leaves,
        n.div_ceil(LEAF_WIDTH as u64),
        "leaves are full"
    );
    // 667 leaves under full 16-way interior nodes: 42, then 3, then a root.
    assert_eq!(stats.max_btree_depth, 4);
    assert_eq!(stats.inners, 42 + 3 + 1);
    assert_eq!(stats.splits, 0);
    let all = tree.scan(b"", None, None);
    assert_eq!(all.entries.len(), n as usize);
    // A reverse walk of the `next` links is what a scan follows: every leaf
    // was visited once, in order.
    assert_eq!(all.nodes.len() as u64, stats.leaves);

    // Appending past the last key splits the full last leaf in order, as
    // after in-order inserts: the left leaf stays full.
    let before = tree.stats().leaves;
    for i in n..n + 15 {
        assert!(matches!(
            tree.insert_if_absent(&(i * 3).to_be_bytes(), i),
            InsertOutcome::Inserted { .. }
        ));
    }
    assert_eq!(tree.stats().leaves, before + 1);
}

#[test]
fn bulk_load_keeps_a_slice_in_one_leaf_and_builds_layers() {
    // Fourteen one-slice keys, then a slice with inline entries of several
    // lengths, one suffix key and a layer of many longer keys: the slice's
    // ten entries do not fit after the fourteen, so they open a new leaf.
    let mut keys: Vec<Vec<u8>> = (0..14u8).map(|i| vec![b'a', i]).collect();
    let b_slice = *b"b\0\0\0\0\0\0\0";
    for len in 1..=8 {
        keys.push(b_slice[..len].to_vec());
    }
    for i in 0..40u8 {
        keys.push([b_slice.as_slice(), b"LAYER---", &[i]].concat());
    }
    keys.push(b"c".repeat(9));
    keys.sort();
    let tree = bulk_built(&keys);
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(tree.get(k), Some(i as u64), "{k:?}");
    }
    let (_, first, _) = tree.get_tracked(b"b");
    assert_eq!(tree.get_tracked(&b_slice).1, first, "one slice, one leaf");
    assert_ne!(tree.get_tracked(b"a\x0d").1, first);
    let stats = tree.stats();
    assert_eq!(stats.leaves, 2 + 1 + 3, "two root-layer leaves, one, three");
    assert_eq!(stats.layers, 3);
    assert_eq!(stats.suffix_entries, 1);
    let all = tree.scan(b"", None, None);
    let expected: Vec<(Vec<u8>, u64)> = keys.iter().cloned().zip(0..).collect();
    assert_eq!(all.entries, expected);
}

#[test]
fn bulk_load_refuses_unsorted_repeated_and_non_empty() {
    let discarded = std::cell::RefCell::new(Vec::new());
    let tree = Tree::new();
    {
        let mut load = tree.bulk_load(|v| discarded.borrow_mut().push(v)).unwrap();
        load.push(b"b", 1).unwrap();
        load.push(b"bbbbbbbbb-suffix", 2).unwrap();
        assert_eq!(load.push(b"a", 3), Err(BulkLoadError::Unsorted));
        assert_eq!(
            load.push(b"bbbbbbbbb-suffix", 4),
            Err(BulkLoadError::Repeated)
        );
    }
    discarded.borrow_mut().sort();
    assert_eq!(
        *discarded.borrow(),
        vec![1, 2, 3, 4],
        "every value comes back"
    );
    assert!(tree.is_empty());

    tree.insert_if_absent(b"k", 9);
    assert_eq!(tree.bulk_load(|_| {}).err(), Some(BulkLoadError::NotEmpty));
}

#[test]
fn bulk_publish_is_refused_after_a_concurrent_insert() {
    let discarded = std::cell::RefCell::new(Vec::new());
    let tree = Tree::new();
    let mut load = tree.bulk_load(|v| discarded.borrow_mut().push(v)).unwrap();
    for i in 0..100u64 {
        load.push(&i.to_be_bytes(), i).unwrap();
    }
    tree.insert_if_absent(b"intruder", 7);
    assert_eq!(load.publish(), Err(BulkLoadError::NotEmpty));
    assert_eq!(discarded.borrow().len(), 100);
    assert_eq!(tree.len(), 1);
    assert_eq!(tree.get(b"intruder"), Some(7));
}

#[test]
fn bulk_publish_invalidates_the_empty_root_and_shows_all_or_nothing() {
    let tree = Tree::new();
    let (value, leaf, version) = tree.get_tracked(b"k005");
    assert_eq!(value, None);
    let mut load = tree.bulk_load(|_| {}).unwrap();
    for i in 0..50u64 {
        load.push(&key(i), i).unwrap();
    }
    assert!(
        tree.scan(b"", None, None).entries.is_empty(),
        "nothing before the publish"
    );
    let mut seen = Vec::new();
    let mut visit = |k: &[u8], v: u64| {
        // Still locked: readers of the empty tree wait for the publish.
        seen.push((k.to_vec(), v));
    };
    load.publish_visiting(&mut visit).unwrap();
    let expected: Vec<(Vec<u8>, u64)> = (0..50).map(|i| (key(i), i)).collect();
    assert_eq!(seen, expected, "the publish visits every entry in order");
    assert_ne!(tree.node_version(leaf), version, "the absence proof fails");
    assert_eq!(tree.scan(b"", None, None).entries, expected);

    // Nothing pushed: nothing published, nothing invalidated.
    let empty = Tree::new();
    let (_, leaf, version) = empty.get_tracked(b"k");
    empty.bulk_load(|_| {}).unwrap().publish().unwrap();
    assert_eq!(empty.node_version(leaf), version);
}

// ---------------------------------------------------------------------------

mod proptests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>, u64),
        Upsert(Vec<u8>, u64),
        Remove(Vec<u8>),
        Get(Vec<u8>),
        Scan(Vec<u8>, Option<Vec<u8>>, Option<usize>),
    }

    fn arb_key() -> impl Strategy<Value = Vec<u8>> {
        // Small alphabet and lengths to force collisions and splits.
        vec(prop::num::u8::ANY, 0..6)
    }

    /// Adversarial keys for the trie layout: a shared prefix of 0, 8, 16 or
    /// 24 bytes drawn from a tiny set (so different keys collide on whole
    /// slices), then a short low-entropy tail — producing empty keys, keys
    /// equal to a prefix of other keys, keys differing only in length, and
    /// deep layer chains.
    fn arb_trie_key() -> impl Strategy<Value = Vec<u8>> {
        let prefix = prop_oneof![
            Just(Vec::new()),
            prop::sample::select(vec![b"AAAAAAAA".to_vec(), b"BBBBBBBB".to_vec()]),
            prop::sample::select(vec![
                b"AAAAAAAABBBBBBBB".to_vec(),
                b"AAAAAAAACCCCCCCC".to_vec(),
            ]),
            Just(b"AAAAAAAABBBBBBBBCCCCCCCC".to_vec()),
        ];
        (prefix, vec(prop::sample::select(vec![0u8, 1, 65]), 0..4)).prop_map(|(mut p, tail)| {
            p.extend(tail);
            p
        })
    }

    fn arb_op<S: Strategy<Value = Vec<u8>> + 'static>(
        keys: impl Fn() -> S,
    ) -> impl Strategy<Value = Op> {
        prop_oneof![
            (keys(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (keys(), any::<u64>()).prop_map(|(k, v)| Op::Upsert(k, v)),
            keys().prop_map(Op::Remove),
            keys().prop_map(Op::Get),
            (
                keys(),
                proptest::option::of(keys()),
                proptest::option::of(0usize..50)
            )
                .prop_map(|(s, e, l)| Op::Scan(s, e, l)),
        ]
    }

    fn check_ops_against_model(ops: Vec<Op>, check_versions: bool) -> Result<(), TestCaseError> {
        let tree = Tree::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    // Membership tracking: the (leaf, version) pair that
                    // proves `k`'s current state must be invalidated by any
                    // membership change — this is Silo's §4.6 contract.
                    let (_, leaf, version) = tree.get_tracked(&k);
                    let outcome = tree.insert_if_absent(&k, v);
                    match model.entry(k) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            let inserted = matches!(outcome, InsertOutcome::Inserted { .. });
                            prop_assert!(inserted, "expected insertion of a new key");
                            e.insert(v);
                            if check_versions {
                                prop_assert_ne!(
                                    tree.node_version(leaf),
                                    version,
                                    "insert must invalidate the absence proof"
                                );
                            }
                        }
                        std::collections::btree_map::Entry::Occupied(e) => match outcome {
                            InsertOutcome::Exists { value, .. } => {
                                prop_assert_eq!(value, *e.get());
                            }
                            InsertOutcome::Inserted { .. } => {
                                return Err(TestCaseError::fail("inserted over existing key"));
                            }
                        },
                    }
                }
                Op::Upsert(k, v) => {
                    let old = tree.upsert(&k, v);
                    let model_old = model.insert(k, v);
                    prop_assert_eq!(old, model_old);
                }
                Op::Remove(k) => {
                    let (_, leaf, version) = tree.get_tracked(&k);
                    let removed = tree.remove(&k);
                    let model_removed = model.remove(&k);
                    prop_assert_eq!(removed.as_ref().map(|r| r.value), model_removed);
                    if check_versions && model_removed.is_some() {
                        prop_assert_ne!(
                            tree.node_version(leaf),
                            version,
                            "remove must invalidate the presence proof"
                        );
                    }
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k), model.get(&k).copied());
                }
                Op::Scan(start, end, limit) => {
                    if let Some(e) = &end {
                        if e < &start {
                            continue;
                        }
                    }
                    let r = tree.scan(&start, end.as_deref(), limit);
                    let expected: Vec<(Vec<u8>, u64)> = model
                        .range(start.clone()..)
                        .filter(|(k, _)| end.as_ref().map_or(true, |e| *k < e))
                        .take(limit.unwrap_or(usize::MAX))
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    prop_assert_eq!(r.entries, expected);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        // Final full-scan equivalence.
        let r = tree.scan(b"", None, None);
        let expected: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(r.entries, expected);
        audit_interior(&tree);
        Ok(())
    }

    /// Keys of 0–40 bytes, many sharing 8- and 16-byte prefixes, so that
    /// one slice holds inline entries of several lengths, suffix entries and
    /// next-layer trees.
    fn arb_bulk_key() -> impl Strategy<Value = Vec<u8>> {
        let prefix = prop::sample::select(vec![
            Vec::new(),
            b"AAAAAAAA".to_vec(),
            b"BBBBBBBB".to_vec(),
            b"AAAAAAAABBBBBBBB".to_vec(),
            b"AAAAAAAACCCCCCCC".to_vec(),
            b"AAAAAAAABBBBBBBBCCCCCCCC".to_vec(),
            b"AAAAAAAABBBBBBBBCCCCCCCCDDDDDDDD".to_vec(),
        ]);
        (
            prefix,
            vec(prop::sample::select(vec![0u8, 1, 65, 66, 255]), 0..9),
        )
            .prop_map(|(mut p, tail)| {
                p.extend(tail);
                p
            })
    }

    /// A scan's start, end and limit.
    type Scan = (Vec<u8>, Option<Vec<u8>>, Option<usize>);

    /// Asserts that `a` and `b` answer a lookup of every key in `probes` and
    /// a scan over each of `scans` identically.
    fn same_answers(
        a: &Tree,
        b: &Tree,
        probes: &[Vec<u8>],
        scans: &[Scan],
    ) -> Result<(), TestCaseError> {
        for k in probes {
            prop_assert_eq!(a.get(k), b.get(k));
        }
        for (start, end, limit) in scans {
            if end.as_ref().is_some_and(|e| e < start) {
                continue;
            }
            let (ra, rb) = (
                a.scan(start, end.as_deref(), *limit),
                b.scan(start, end.as_deref(), *limit),
            );
            prop_assert_eq!(ra.entries, rb.entries);
        }
        prop_assert_eq!(a.len(), b.len());
        Ok(())
    }

    /// The key range the interior-node model test draws separators from.
    const SPAN: u64 = 1 << 40;

    /// A separator strictly between the model's separators at ranks
    /// `rank - 1` and `rank` (the range's ends past either edge).
    fn between(model: &[(u64, *mut NodeHeader)], rank: usize) -> u64 {
        let lo = if rank == 0 { 0 } else { model[rank - 1].0 };
        let hi = model.get(rank).map_or(SPAN, |&(s, _)| s);
        lo + (hi - lo) / 2
    }

    /// Asserts that `node` holds exactly `model`'s separators, with
    /// `child0` first, and routes each probe, and each separator and its
    /// neighbours, to the child the sorted model names.
    fn check_inner(
        node: &InnerNode,
        child0: *mut NodeHeader,
        model: &[(u64, *mut NodeHeader)],
        probes: &[u64],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(node.nkeys(), model.len());
        let edges = model.iter().flat_map(|&(s, _)| [s - 1, s, s + 1]);
        for p in probes.iter().copied().chain(edges) {
            let idx = model.iter().filter(|&&(s, _)| s <= p).count();
            let child = if idx == 0 { child0 } else { model[idx - 1].1 };
            prop_assert_eq!(node.route(p), idx, "route of {:#x}", p);
            prop_assert_eq!(node.child(idx), child, "child {} for {:#x}", idx, p);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A bulk-built tree answers gets, scans, inserts, removes and
        /// node-set validation exactly like one built by inserts.
        #[test]
        fn prop_bulk_load_matches_inserts(
            raw in vec(arb_bulk_key(), 0..400),
            probes in vec(arb_bulk_key(), 0..60),
            scans in vec(
                (
                    arb_bulk_key(),
                    proptest::option::of(arb_bulk_key()),
                    proptest::option::of(0usize..40)
                ),
                0..12
            ),
            later in vec((arb_bulk_key(), any::<bool>()), 0..120),
        ) {
            let mut keys = raw;
            keys.sort();
            keys.dedup();
            let bulk = bulk_built(&keys);
            let inserted = Tree::new();
            for (i, k) in keys.iter().enumerate() {
                inserted.insert_if_absent(k, i as u64);
            }
            audit_interior(&bulk);
            audit_interior(&inserted);
            let mut all_probes = probes.clone();
            all_probes.extend(keys.iter().cloned());
            same_answers(&bulk, &inserted, &all_probes, &scans)?;

            for (i, (k, insert)) in later.iter().enumerate() {
                let value = 1_000_000 + i as u64;
                if *insert {
                    let (present, leaf, version) = bulk.get_tracked(k);
                    let a = bulk.insert_if_absent(k, value);
                    let b = inserted.insert_if_absent(k, value);
                    match (a, b) {
                        (InsertOutcome::Inserted { .. }, InsertOutcome::Inserted { .. }) => {
                            prop_assert!(present.is_none());
                            prop_assert_ne!(
                                bulk.node_version(leaf),
                                version,
                                "an insert must invalidate the absence proof"
                            );
                        }
                        (InsertOutcome::Exists { value: va }, InsertOutcome::Exists { value: vb }) => {
                            prop_assert_eq!(va, vb);
                        }
                        _ => return Err(TestCaseError::fail("insert outcomes differ")),
                    }
                } else {
                    prop_assert_eq!(
                        bulk.remove(k).map(|r| r.value),
                        inserted.remove(k).map(|r| r.value)
                    );
                }
            }
            let mut final_probes = all_probes;
            final_probes.extend(later.into_iter().map(|(k, _)| k));
            same_answers(&bulk, &inserted, &final_probes, &scans)?;
            let (ra, rb) = (bulk.scan(b"", None, None), inserted.scan(b"", None, None));
            prop_assert_eq!(ra.entries, rb.entries);
            audit_interior(&bulk);
            audit_interior(&inserted);
        }

        #[test]
        fn prop_tree_matches_btreemap_model(ops in vec(arb_op(arb_key), 1..400)) {
            check_ops_against_model(ops, false)?;
        }

        #[test]
        fn prop_trie_layout_matches_model_with_version_tracking(
            ops in vec(arb_op(arb_trie_key), 1..300)
        ) {
            check_ops_against_model(ops, true)?;
        }

        #[test]
        fn prop_sequential_inserts_always_retrievable(keys in vec(arb_key(), 1..200)) {
            let tree = Tree::new();
            let mut model = BTreeMap::new();
            for (i, k) in keys.iter().enumerate() {
                tree.insert_if_absent(k, i as u64);
                model.entry(k.clone()).or_insert(i as u64);
            }
            for (k, v) in &model {
                prop_assert_eq!(tree.get(k), Some(*v));
            }
            audit_interior(&tree);
        }

        /// An interior node routes exactly like a sorted model through
        /// separator inserts at both edges and at mid ranks until it is full,
        /// through its split, and through one more insert into the half the
        /// next separator belongs to, as a tree split makes.
        #[test]
        fn prop_inner_routes_match_a_sorted_model(
            steps in vec((0u8..3, any::<usize>()), FANOUT - 1),
            probes in vec(0u64..SPAN + 2, 0..24),
            next in any::<usize>(),
        ) {
            // Children are opaque identities to `route`/`child`: distinct
            // fake pointers, never dereferenced.
            let fake = |i: usize| ((i + 1) * 0x100) as *mut NodeHeader;
            let slab = crate::Slab::new();
            let node_ptr = InnerNode::allocate(&slab);
            // SAFETY: single-threaded exclusive access in this test.
            let node = unsafe { &*node_ptr };
            node.init_root(SPAN / 2, fake(0), fake(1));
            let mut model = vec![(SPAN / 2, fake(1))];
            check_inner(node, fake(0), &model, &probes)?;
            for (j, &(edge, pick)) in steps.iter().enumerate() {
                let rank = match edge {
                    0 => 0,
                    1 => model.len(),
                    _ => pick % (model.len() + 1),
                };
                let sep = between(&model, rank);
                prop_assert_eq!(node.route(sep), rank);
                node.insert_separator(rank, sep, fake(j + 2));
                model.insert(rank, (sep, fake(j + 2)));
                check_inner(node, fake(0), &model, &probes)?;
            }
            prop_assert!(node.is_full());

            prop_assert!(node.header.try_upgrade_lock(node.header.stable_version()));
            let (promoted, right_ptr) = node.split(&slab);
            // SAFETY: the split's fresh sibling, exclusively ours.
            let right = unsafe { &*right_ptr };
            let mid = FANOUT / 2;
            prop_assert_eq!(promoted, model[mid].0);
            let mut right_model = model.split_off(mid + 1);
            let (_, right_child0) = model.pop().unwrap();
            check_inner(node, fake(0), &model, &probes)?;
            check_inner(right, right_child0, &right_model, &probes)?;

            // One more separator, into the half it belongs to.
            let mut whole = model.clone();
            whole.push((promoted, right_child0));
            whole.extend(right_model.iter().copied());
            let sep = between(&whole, next % (whole.len() + 1));
            let (half, half_model) = if sep < promoted {
                (node, &mut model)
            } else {
                (right, &mut right_model)
            };
            let rank = half_model.iter().filter(|&&(s, _)| s < sep).count();
            prop_assert_eq!(half.route(sep), rank);
            half.insert_separator(rank, sep, fake(FANOUT + 1));
            half_model.insert(rank, (sep, fake(FANOUT + 1)));
            check_inner(node, fake(0), &model, &probes)?;
            check_inner(right, right_child0, &right_model, &probes)?;
            node.header.unlock_with_increment();
            right.header.unlock_with_increment();
        }
    }
}
