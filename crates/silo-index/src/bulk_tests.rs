// Bottom-up bulk load: full leaves and interior nodes, trie layers for
// shared slices, refusal of bad input, and an all-or-nothing publish.
// Included into `crate::tests` (lib.rs), which holds the imports.

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
