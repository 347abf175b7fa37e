// Point operations and scans on one thread: gets, inserts, upserts and
// removes, the leaf versions they bump or keep, and scans that report the
// nodes they crossed. Included into `crate::tests` (lib.rs), which holds the
// imports.

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
