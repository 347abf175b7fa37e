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
//! The [`RecordPool`] and [`RecordSlab`] implement the `+Allocator` knob of
//! the factor analysis (Figure 11), the paper's per-core allocator over 2 MB
//! superpages (§4.8) at this repository's scale. Each database owns one
//! record slab: a `silo_index::Slab` whose chunks grow from 64 KiB to 2 MiB
//! huge pages. A worker carves the records it allocates from a private
//! 64 KiB window of that slab, and its collector recycles reclaimed records
//! into the worker's pool, never back to the global allocator. The slab's
//! chunks go back all at once when the database drops.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use silo_index::{Bump, RemovedEntry, Slab};
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
const POOL_CLASSES: [usize; 7] = [16, 32, 64, 128, 256, 512, 1024];

/// One list of records per size class.
type ClassLists = [Vec<RecordPtr>; POOL_CLASSES.len()];

/// The smallest class holding `len` data bytes, if any does.
fn class_index(len: usize) -> Option<usize> {
    POOL_CLASSES.iter().position(|&c| len <= c)
}

/// The bytes a record of class `class` takes in a slab: whole cache lines,
/// so the TID word and the data it guards start on a line of their own.
fn slot_size(class: usize) -> usize {
    Record::size_for(POOL_CLASSES[class]).next_multiple_of(Slab::ALIGN)
}

/// The database's record memory under `+Allocator`: the slab every record
/// of a class capacity is carved from, and the spare records a dropped
/// worker (or recovery) left, which the next registered worker takes over.
/// The slab's chunks, and so every such record, are freed together when the
/// last owner — the database and its tables — drops.
#[derive(Debug, Default)]
pub(crate) struct RecordSlab {
    slab: Slab,
    spare: Mutex<ClassLists>,
}

impl RecordSlab {
    /// A record holding `data` for a caller without a worker (recovery),
    /// carved from the slab under its lock. `None` when `data` is larger
    /// than every class.
    pub(crate) fn allocate(&self, data: &[u8], word: TidWord) -> Option<*mut Record> {
        let class = class_index(data.len())?;
        let raw = self.slab.alloc(slot_size(class));
        // SAFETY: a fresh slab piece of `slot_size(class)` bytes, which the
        // slab keeps valid as long as any record in it can be used.
        Some(unsafe { Record::carve(raw, data, word, POOL_CLASSES[class]) })
    }

    /// Keeps a slab record that no one can reach any more for the next
    /// worker to register.
    ///
    /// # Safety
    ///
    /// `ptr` must be a slab record of this database that no thread can
    /// reach (its reclamation epoch passed, or recovery owns the database).
    pub(crate) unsafe fn give_back(&self, ptr: RecordPtr) {
        // SAFETY: a live slab record per the caller's contract.
        let cap = unsafe { (*ptr.0).capacity() };
        let class = class_index(cap).expect("a slab record has a class capacity");
        self.spare.lock()[class].push(ptr);
    }
}

/// Bytes a worker takes from the record slab at a time: its private window.
const WINDOW: usize = Slab::FIRST_CHUNK;

/// A per-worker pool of recycled records (`+Allocator`): a list per size
/// class, refilled by the worker's garbage collector, plus the worker's
/// private window of the database's record slab, which a pool miss carves a
/// fresh record from. Allocating a record therefore writes nothing shared
/// except when the window runs out.
#[derive(Debug)]
pub(crate) struct RecordPool {
    /// The database's record slab; `None` without `+Allocator`, when every
    /// record comes from the global allocator.
    slab: Option<Arc<RecordSlab>>,
    classes: ClassLists,
    /// The free rest of the window this worker last took from the slab.
    window: Bump,
    /// Allocations served from the pool.
    pub(crate) hits: u64,
    /// Allocations carved from the slab or made by the global allocator.
    pub(crate) misses: u64,
}

impl RecordPool {
    /// A pool over `slab`'s records, starting with every spare record the
    /// database holds.
    pub(crate) fn new(slab: Option<Arc<RecordSlab>>) -> Self {
        let classes = slab
            .as_ref()
            .map(|s| std::mem::take(&mut *s.spare.lock()))
            .unwrap_or_default();
        RecordPool {
            slab,
            classes,
            window: Bump::EMPTY,
            hits: 0,
            misses: 0,
        }
    }

    /// Allocates a record with the given data and TID word and a capacity of
    /// at least `min_capacity`, recycling a pooled record when possible.
    pub(crate) fn allocate(
        &mut self,
        data: &[u8],
        word: TidWord,
        min_capacity: usize,
    ) -> *mut Record {
        let needed = data.len().max(min_capacity);
        if let (Some(slab), Some(class)) = (&self.slab, class_index(needed)) {
            if let Some(ptr) = self.classes[class].pop() {
                self.hits += 1;
                // SAFETY: pooled records were reclaimed (no other thread
                // can reach them) and belong to a class with capacity
                // ≥ needed ≥ data.len().
                unsafe { Record::reinit(ptr.0, data, word) };
                return ptr.0;
            }
            self.misses += 1;
            let size = slot_size(class);
            let raw = self.window.take(size).unwrap_or_else(|| {
                self.window = Bump::new(slab.slab.alloc(WINDOW), WINDOW);
                self.window
                    .take(size)
                    .expect("a window holds a record of any class")
            });
            // SAFETY: a fresh piece of the worker's window, `slot_size`
            // bytes, which the slab keeps valid while the pool (holding an
            // `Arc` to it) or any table of the database is alive.
            return unsafe { Record::carve(raw, data, word, POOL_CLASSES[class]) };
        }
        self.misses += 1;
        Record::allocate(data, word, min_capacity)
    }

    /// Returns a reclaimed record to the pool when it was carved from the
    /// slab, and frees any other.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the record is unreachable (its reclamation
    /// epoch has passed) and owned exclusively by this worker's GC.
    pub(crate) unsafe fn recycle(&mut self, ptr: RecordPtr) {
        if ptr.is_null() {
            return;
        }
        // SAFETY: exclusive ownership per the caller's contract.
        let rec = unsafe { &*ptr.0 };
        if rec.from_slab() {
            let class = class_index(rec.capacity()).expect("a slab record has a class capacity");
            self.classes[class].push(ptr);
        } else {
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
    /// Hands the pooled records to the database for the next worker. Only
    /// slab records are ever pooled, so there is nothing to free.
    fn drop(&mut self) {
        if let Some(slab) = &self.slab {
            let mut spare = slab.spare.lock();
            for (mine, theirs) in self.classes.iter_mut().zip(spare.iter_mut()) {
                theirs.append(mine);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::{bulk_apply, sweep_absent};
    use crate::config::SiloConfig;
    use crate::database::Database;
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

    fn slab_pool() -> RecordPool {
        RecordPool::new(Some(Arc::default()))
    }

    #[test]
    fn pool_recycles_matching_classes() {
        let mut pool = slab_pool();
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
    }

    #[test]
    fn pool_disabled_always_frees() {
        let mut pool = RecordPool::new(None);
        let r = pool.allocate(b"xyz", word(), 0);
        assert_eq!(pool.misses, 1);
        // SAFETY: just allocated, not shared.
        assert!(
            !unsafe { (*r).from_slab() },
            "Simple records come from the global allocator"
        );
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
        let mut pool = slab_pool();
        let big = vec![7u8; 4096];
        let r = pool.allocate(&big, word(), 0);
        // SAFETY: just allocated.
        assert_eq!(unsafe { (*r).capacity() }, 4096);
        // SAFETY: just allocated.
        assert!(!unsafe { (*r).from_slab() });
        // SAFETY: unreachable by anyone else; not a slab record, so recycle
        // frees it.
        unsafe { pool.recycle(RecordPtr(r)) };
        assert_eq!(pool.pooled(), 0);
    }

    /// A dropped pool's records go to the database's spare lists, which the
    /// next pool takes whole; their memory is freed with the slab's chunks.
    #[test]
    fn pool_drop_frees_cached_records() {
        let slab: Arc<RecordSlab> = Arc::default();
        let mut pool = RecordPool::new(Some(Arc::clone(&slab)));
        for i in 0..10u8 {
            let r = pool.allocate(&[i; 20], word(), 0);
            // SAFETY: unreachable by anyone else.
            unsafe { pool.recycle(RecordPtr(r)) };
        }
        assert_eq!(pool.pooled(), 1);
        drop(pool);
        assert_eq!(slab.spare.lock()[1].len(), 1);
        let next = RecordPool::new(Some(Arc::clone(&slab)));
        assert_eq!(next.pooled(), 1, "a new pool drains the spare lists");
        assert_eq!(slab.spare.lock().iter().map(Vec::len).sum::<usize>(), 0);
    }

    /// Pool misses: every class is carved from the worker's window, cache
    /// line aligned, and recycles back into the pool.
    #[test]
    fn pool_misses_carve_every_class_from_the_slab() {
        let mut pool = slab_pool();
        for (class, &cap) in POOL_CLASSES.iter().enumerate() {
            let r = pool.allocate(&vec![class as u8; cap], word(), 0);
            // SAFETY: just allocated, not shared.
            let rec = unsafe { &*r };
            assert!(rec.from_slab(), "class {cap}");
            assert_eq!(rec.capacity(), cap);
            assert_eq!(r as usize % Slab::ALIGN, 0);
            // SAFETY: unreachable by anyone else.
            unsafe { pool.recycle(RecordPtr(r)) };
            assert_eq!(pool.classes[class].len(), 1);
            assert_eq!(pool.allocate(b"", word(), cap), r, "recycled, class {cap}");
            // SAFETY: as above.
            unsafe { pool.recycle(RecordPtr(r)) };
        }
        assert_eq!(pool.pooled(), POOL_CLASSES.len());
        assert_eq!(pool.misses, POOL_CLASSES.len() as u64);
    }

    /// Insert placeholders: sized for their value, carved from the slab,
    /// and recycled into the pool when the insert finds its key taken.
    #[test]
    fn insert_placeholders_of_every_class_are_slab_records() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        for (class, &cap) in POOL_CLASSES.iter().enumerate() {
            let key = format!("k{class}");
            let mut txn = w.begin();
            txn.insert(t, key.as_bytes(), &vec![1; cap]).unwrap();
            txn.commit().unwrap();
            let rec = db.table(t).tree().get(key.as_bytes()).unwrap() as *const Record;
            // SAFETY: the key's live record; no other worker runs.
            let (from_slab, capacity) = unsafe { ((*rec).from_slab(), (*rec).capacity()) };
            assert!(from_slab, "class {cap}");
            assert_eq!(capacity, cap);

            let mut txn = w.begin();
            assert!(txn.insert(t, key.as_bytes(), &vec![2; cap]).is_err());
            txn.abort();
            assert_eq!(
                w.pool.classes[class].len(),
                1,
                "placeholder recycled, class {cap}"
            );
        }
    }

    /// `bulk_apply` carves from the same slab; a record it releases waits in
    /// the spare lists for the next worker.
    #[test]
    fn bulk_applied_records_of_every_class_return_to_a_pool() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let table = db.table(t);
        for (class, &cap) in POOL_CLASSES.iter().enumerate() {
            let key = format!("k{class}");
            // SAFETY: no transactions in flight, one thread.
            unsafe { bulk_apply(&table, key.as_bytes(), Tid::new(2, 1), Some(&vec![1; cap])) };
            let rec = table.tree().get(key.as_bytes()).unwrap() as *const Record;
            // SAFETY: the key's live record.
            let (from_slab, capacity) = unsafe { ((*rec).from_slab(), (*rec).capacity()) };
            assert!(from_slab, "class {cap}");
            assert_eq!(capacity, cap);
            // SAFETY: as above.
            unsafe { bulk_apply(&table, key.as_bytes(), Tid::new(3, 1), None) };
        }
        // SAFETY: as above.
        assert_eq!(unsafe { sweep_absent(&table) }, POOL_CLASSES.len() as u64);
        let w = db.register_worker();
        for (pooled, cap) in w.pool.classes.iter().zip(POOL_CLASSES) {
            assert_eq!(pooled.len(), 1, "class {cap}");
        }
    }

    /// Without `+Allocator` (Fig. 11's Simple), records come from the global
    /// allocator everywhere.
    #[test]
    fn simple_records_come_from_the_global_allocator() {
        let db = Database::open(SiloConfig::for_testing().with_per_worker_pool(false));
        let t = db.create_table("t").unwrap();
        let table = db.table(t);
        let mut w = db.register_worker();
        let mut txn = w.begin();
        txn.insert(t, b"txn", &[1; 16]).unwrap();
        txn.commit().unwrap();
        // SAFETY: no transactions in flight, one thread.
        unsafe { bulk_apply(&table, b"bulk", Tid::new(9, 1), Some(&[1; 16])) };
        for key in [&b"txn"[..], b"bulk"] {
            let rec = table.tree().get(key).unwrap() as *const Record;
            // SAFETY: the key's live record.
            assert!(!unsafe { (*rec).from_slab() });
        }
    }
}
