//! Fixtures shared by the crate's tests.

use crate::*;
use std::sync::atomic::Ordering;

pub(crate) fn key(i: u64) -> Vec<u8> {
    format!("key{:08}", i).into_bytes()
}

/// Thread count for the concurrency tests: `SILO_TEST_THREADS` if set
/// (oversubscribed stress runs raise it past the core count), else
/// `default`.
pub(crate) fn test_threads(default: u64) -> u64 {
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
pub(crate) fn audit_interior(tree: &Tree) {
    // (node, lower bound, upper bound or none): the bounds of one layer.
    let mut stack: Vec<(*const NodeHeader, u64, Option<u64>)> =
        vec![(tree.root.root.load(Ordering::Acquire), 0, None)];
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
                    let sub = unsafe {
                        (*(leaf.value(slot) as *const Layer))
                            .root
                            .load(Ordering::Acquire)
                    };
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
