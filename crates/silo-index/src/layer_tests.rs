// The trie of trees: keys longer than one 8-byte slice keep a suffix in
// their leaf until a second key shares the slice, which turns the entry
// into a trie layer. Included into `crate::tests` (lib.rs), which holds the
// imports.

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
