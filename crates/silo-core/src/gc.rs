//! Typed garbage lists and the per-worker record allocation pool.
//!
//! Workers generate three kinds of garbage (paper §4.8, §4.9):
//!
//! * **Superseded record versions** — freed once no snapshot transaction can
//!   reach them (snapshot reclamation epoch).
//! * **Absent records left behind by deletes** (and by aborted inserts) —
//!   reclaimed in two stages: once the snapshot reclamation epoch passes, the
//!   record is unhooked from the tree (if it is still the latest version);
//!   the unhooked record and the removed leaf key then wait for the tree
//!   reclamation epoch before the memory is freed.
//! * **Index key buffers** removed from leaves — freed after the tree
//!   reclamation epoch.
//!
//! Each worker owns its lists, so registering garbage never writes shared
//! memory; reclamation runs in the worker between transactions.
//!
//! The [`RecordPool`] implements the `+Allocator` knob of the factor analysis
//! (Figure 11): reclaimed record allocations are recycled by the same worker
//! instead of going back to the global allocator, standing in for the paper's
//! NUMA-aware allocator (see DESIGN.md).

use std::collections::VecDeque;

use silo_index::RemovedEntry;
use silo_tid::TidWord;

use crate::database::TableId;
use crate::record::{Record, RecordPtr};

/// One unit of deferred work, tagged with the epoch after which it may run.
#[derive(Debug)]
pub(crate) enum Garbage {
    /// Free (or recycle) a record that is no longer reachable by new readers.
    Record(RecordPtr),
    /// Drop a key buffer that was removed from an index leaf.
    TreeKey(RemovedEntry),
    /// Stage-one cleanup of a deleted key: if `record` is still the latest,
    /// absent version for `key`, remove the key from `table`'s index and
    /// schedule the record itself for the tree reclamation epoch.
    Unhook {
        /// Table whose index holds the absent record.
        table: TableId,
        /// The deleted key.
        key: Vec<u8>,
        /// The absent record installed by the delete.
        record: RecordPtr,
    },
}

/// A per-worker queue of `(reclamation_epoch, garbage)` pairs in
/// registration order.
///
/// Every producer registers a non-decreasing epoch (a worker's commit epochs
/// and the global epoch it reads only grow), so the ready items are always a
/// prefix: a collector round pops that prefix and stops at the first item
/// that is not ready, costing one comparison when nothing can be freed and
/// O(items freed) otherwise — never a walk over everything pending. Were an
/// epoch ever pushed out of order, the items behind it would only be
/// released late, which is safe.
#[derive(Debug, Default)]
pub(crate) struct GarbageList {
    items: VecDeque<(u64, Garbage)>,
}

impl GarbageList {
    /// Registers `garbage` to be processed once the relevant reclamation
    /// epoch reaches `epoch`, which must be at least every epoch registered
    /// before it.
    pub(crate) fn push(&mut self, epoch: u64, garbage: Garbage) {
        debug_assert!(
            self.items.back().map_or(true, |&(last, _)| last <= epoch),
            "garbage registered out of epoch order: {epoch} after {:?}",
            self.items.back().map(|&(last, _)| last)
        );
        self.items.push_back((epoch, garbage));
    }

    /// Moves the ready prefix — items whose epoch is `≤ up_to`, oldest
    /// first — into `out` (which the caller reuses across rounds, keeping
    /// reclamation allocation-free). Returns how many items it examined:
    /// the ones it moved plus the one it stopped at, if any.
    pub(crate) fn take_ready_into(&mut self, up_to: u64, out: &mut Vec<(u64, Garbage)>) -> usize {
        let mut examined = 0;
        while let Some(&(epoch, _)) = self.items.front() {
            examined += 1;
            if epoch > up_to {
                break;
            }
            out.extend(self.items.pop_front());
        }
        examined
    }

    /// Removes and returns all items regardless of epoch (shutdown).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn take_all(&mut self) -> Vec<(u64, Garbage)> {
        std::mem::take(&mut self.items).into()
    }

    /// Number of pending items.
    pub(crate) fn pending(&self) -> usize {
        self.items.len()
    }
}

/// Size classes used by the per-worker record pool (bytes of data capacity).
const POOL_CLASSES: &[usize] = &[16, 32, 64, 128, 256, 512, 1024];
/// Maximum number of recycled allocations retained per class.
const POOL_CLASS_LIMIT: usize = 4096;

/// A per-worker pool of recycled record allocations (`+Allocator`).
#[derive(Debug)]
pub(crate) struct RecordPool {
    enabled: bool,
    classes: Vec<Vec<RecordPtr>>,
    /// Allocations served from the pool.
    pub(crate) hits: u64,
    /// Allocations that fell through to the global allocator.
    pub(crate) misses: u64,
}

impl RecordPool {
    pub(crate) fn new(enabled: bool) -> Self {
        RecordPool {
            enabled,
            classes: POOL_CLASSES.iter().map(|_| Vec::new()).collect(),
            hits: 0,
            misses: 0,
        }
    }

    fn class_index(len: usize) -> Option<usize> {
        POOL_CLASSES.iter().position(|&c| len <= c)
    }

    /// Allocates a record with the given data and TID word and a capacity of
    /// at least `min_capacity`, recycling a pooled allocation when possible.
    pub(crate) fn allocate(
        &mut self,
        data: &[u8],
        word: TidWord,
        min_capacity: usize,
    ) -> *mut Record {
        let needed = data.len().max(min_capacity);
        if self.enabled {
            if let Some(class) = Self::class_index(needed) {
                if let Some(ptr) = self.classes[class].pop() {
                    self.hits += 1;
                    // SAFETY: pooled records were reclaimed (no other thread
                    // can reach them) and belong to a class with capacity
                    // ≥ needed ≥ data.len().
                    unsafe { Record::reinit(ptr.0, data, word) };
                    return ptr.0;
                }
                self.misses += 1;
                return Record::allocate(data, word, POOL_CLASSES[class]);
            }
        }
        self.misses += 1;
        Record::allocate(data, word, min_capacity)
    }

    /// Returns a reclaimed record to the pool, or frees it when pooling is
    /// disabled / the pool is full / the capacity does not match a class.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the record is unreachable (its reclamation
    /// epoch has passed) and owned exclusively by this worker's GC.
    pub(crate) unsafe fn recycle(&mut self, ptr: RecordPtr) {
        if self.enabled && !ptr.is_null() {
            // SAFETY: exclusive ownership per the caller's contract.
            let cap = unsafe { (*ptr.0).capacity() };
            if let Some(class) = POOL_CLASSES.iter().position(|&c| c == cap) {
                if self.classes[class].len() < POOL_CLASS_LIMIT {
                    self.classes[class].push(ptr);
                    return;
                }
            }
        }
        if !ptr.is_null() {
            // SAFETY: exclusive ownership per the caller's contract.
            unsafe { Record::free(ptr.0) };
        }
    }

    /// Number of allocations currently cached in the pool.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pooled(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }
}

impl Drop for RecordPool {
    fn drop(&mut self) {
        for class in &mut self.classes {
            for ptr in class.drain(..) {
                // SAFETY: pooled records are unreachable by construction and
                // owned by the pool.
                unsafe { Record::free(ptr.0) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_tid::Tid;

    fn word() -> TidWord {
        TidWord::new(Tid::new(1, 1), false, true, false)
    }

    /// A garbage item whose record pointer is just a label, never
    /// dereferenced: lets the model test tell items apart.
    fn labelled(label: usize) -> Garbage {
        Garbage::Record(RecordPtr(label as *mut Record))
    }

    fn label(garbage: &Garbage) -> usize {
        match garbage {
            Garbage::Record(ptr) => ptr.0 as usize,
            other => panic!("unexpected garbage {other:?}"),
        }
    }

    /// `GarbageList` against a plain `Vec` holding everything pushed and not
    /// yet released, over seeded interleavings of pushes (epochs that grow
    /// by 0–2 at a time, as a worker's do) and rounds whose bound wanders
    /// below and above them.
    #[test]
    fn garbage_list_releases_the_ready_prefix_of_a_plain_model() {
        for seed in 1..=32u64 {
            let mut rng = seed;
            let mut next = move |bound: u64| {
                // splitmix64
                rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % bound
            };
            let mut list = GarbageList::default();
            let mut model: Vec<(u64, usize)> = Vec::new();
            let mut ready = Vec::new();
            let (mut epoch, mut pushed) = (1u64, 0usize);
            for _ in 0..2_000 {
                if next(3) != 0 {
                    epoch += next(3);
                    list.push(epoch, labelled(pushed));
                    model.push((epoch, pushed));
                    pushed += 1;
                    continue;
                }
                let bound = (epoch + 2).saturating_sub(next(8));
                ready.clear();
                let examined = list.take_ready_into(bound, &mut ready);
                let released: Vec<(u64, usize)> =
                    ready.iter().map(|(e, g)| (*e, label(g))).collect();
                assert!(
                    released.iter().all(|&(e, _)| e <= bound),
                    "seed {seed}: released an item above bound {bound}"
                );
                let expected: Vec<(u64, usize)> =
                    model.iter().copied().filter(|&(e, _)| e <= bound).collect();
                assert_eq!(released, expected, "seed {seed}, bound {bound}");
                model.retain(|&(e, _)| e > bound);
                assert_eq!(list.pending(), model.len(), "seed {seed}");
                assert!(
                    examined <= released.len() + 1,
                    "seed {seed}: examined {examined} items to release {}",
                    released.len()
                );
            }
            // Once the bound reaches the last epoch pushed, nothing is left.
            ready.clear();
            list.take_ready_into(epoch, &mut ready);
            assert_eq!(ready.len(), model.len(), "seed {seed}");
            assert_eq!(list.pending(), 0, "seed {seed}");
            assert!(list.take_all().is_empty());
        }
    }

    #[test]
    fn pool_recycles_matching_classes() {
        let mut pool = RecordPool::new(true);
        let r1 = pool.allocate(b"0123456789", word(), 0);
        // SAFETY: just allocated, not shared.
        assert_eq!(unsafe { (*r1).capacity() }, 16);
        assert_eq!(pool.misses, 1);
        // SAFETY: unreachable by anyone else in this test.
        unsafe { pool.recycle(RecordPtr(r1)) };
        assert_eq!(pool.pooled(), 1);
        let r2 = pool.allocate(b"abc", word(), 0);
        assert_eq!(r2, r1, "allocation should be recycled");
        assert_eq!(pool.hits, 1);
        let mut out = Vec::new();
        // SAFETY: r2 is exclusively owned here.
        unsafe { (*r2).read_consistent(&mut out) };
        assert_eq!(out, b"abc");
        // SAFETY: sole owner.
        unsafe { Record::free(r2) };
    }

    #[test]
    fn pool_disabled_always_frees() {
        let mut pool = RecordPool::new(false);
        let r = pool.allocate(b"xyz", word(), 0);
        assert_eq!(pool.misses, 1);
        // SAFETY: unreachable by anyone else.
        unsafe { pool.recycle(RecordPtr(r)) };
        assert_eq!(pool.pooled(), 0);
        let r2 = pool.allocate(b"xyz", word(), 0);
        assert_eq!(pool.hits, 0);
        // SAFETY: sole owner.
        unsafe { Record::free(r2) };
    }

    #[test]
    fn oversized_allocations_bypass_the_pool() {
        let mut pool = RecordPool::new(true);
        let big = vec![7u8; 4096];
        let r = pool.allocate(&big, word(), 0);
        // SAFETY: just allocated.
        assert_eq!(unsafe { (*r).capacity() }, 4096);
        // SAFETY: unreachable by anyone else; capacity matches no class, so
        // recycle frees it.
        unsafe { pool.recycle(RecordPtr(r)) };
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn pool_drop_frees_cached_records() {
        let mut pool = RecordPool::new(true);
        for i in 0..10u8 {
            let r = pool.allocate(&[i; 20], word(), 0);
            // SAFETY: unreachable by anyone else.
            unsafe { pool.recycle(RecordPtr(r)) };
        }
        assert!(pool.pooled() >= 1);
        drop(pool); // must not leak or double-free (checked by sanitizers/miri in CI)
    }
}
