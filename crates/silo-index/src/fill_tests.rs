// Leaf fill: ascending inserts split at the insert point and leave full
// leaves behind; scattered ones split in the middle. Included into
// `crate::tests` (lib.rs), which holds the imports.

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
