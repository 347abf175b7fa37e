// Property tests against a `BTreeMap` model: random operation sequences,
// trie-shaped keys, and bulk loads. Included into `crate::tests` (lib.rs).

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
