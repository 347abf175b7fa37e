//! A Masstree-style concurrent index for silo-rs (paper §3, §4.6).
//!
//! Silo stores every table (primary and secondary indexes alike) in an
//! ordered key-value structure "based on Masstree": readers never write to
//! shared memory and coordinate with writers purely through per-node version
//! numbers and fences; writers use fine-grained per-node locks. This crate
//! provides that substrate with the exact interface contract Silo's commit
//! protocol relies on, together with Masstree's cache craftsmanship:
//!
//! * **Inline keyslices.** Keys are compared 8 bytes at a time as big-endian
//!   `u64`s stored inline in interior and leaf nodes, so descent performs
//!   register compares instead of pointer chases plus `memcmp`s. Only the
//!   remainder of a key longer than one slice lives out-of-line (a
//!   [`KeyBuf`] suffix).
//! * **Permutation-ordered leaves** (Masstree §4.6.2). Leaf entries sit in
//!   fixed slots ordered by a packed 64-bit permutation word; an insert
//!   writes one free slot and publishes a new permutation with a single
//!   atomic store instead of shifting arrays under the lock, which also
//!   shrinks the window in which concurrent readers must retry.
//! * **A trie of trees.** When two keys share a slice but differ later, the
//!   shared slice's entry becomes a pointer to a *next-layer* B+-tree keyed
//!   on the next 8 bytes. Long composite keys (TPC-C district/order-line)
//!   compare one register per layer instead of `memcmp`-ing whole encoded
//!   keys, and common prefixes are stored once.
//! * **Prefetched descent.** The child (and next-layer root) is prefetched
//!   before the parent's version re-check, overlapping memory latency with
//!   validation.
//! * **Nodes on superpages.** Every node and trie layer is carved, cache-line
//!   aligned, from the tree's own [`Slab`], whose chunks grow to 2 MiB huge
//!   pages: a descent through a large tree pays no TLB walk per node, and
//!   the prefetch covers exactly the five lines a probe reads.
//!
//! The concurrency contract:
//!
//! * **Optimistic, write-free readers.** [`Tree::get`] and [`Tree::scan`]
//!   never modify shared memory. They validate per-node versions after
//!   reading and restart on interference. Every point operation — reads,
//!   value replacement and removal — shares one optimistic descent and one
//!   leaf probe (`LeafNode::search`); only the lock-crabbing insert and the
//!   scan engine walk the tree their own way.
//! * **Version-tracked leaves for phantom protection.** Any change to a
//!   leaf's key *membership* (insert, remove, split, suffix→layer
//!   conversion) increments the leaf's version. [`Tree::get_tracked`] and
//!   [`Tree::scan`] return the `(node, version)` pairs a transaction must
//!   put in its node-set; the commit protocol re-checks them with
//!   [`Tree::node_version`]. For an absent key the returned leaf is the one
//!   — at whatever trie layer the descent ended — that a later insert of
//!   that key must modify.
//! * **`insert-if-absent`.** [`Tree::insert_if_absent`] atomically inserts a
//!   key and reports the version changes of every affected node so the
//!   transaction can fix up its own node-set (§4.6). Nodes created by
//!   splits *and* trie layers created by suffix conversions are reported as
//!   [`NodeChange::Created`] with the leaf they grew out of, so scans that
//!   covered the old entry inherit membership in the new layer.
//! * **Value slots are plain `u64`s** read and written atomically: Silo
//!   stores a pointer to the record header there, and updates it only when a
//!   record is superseded by a new version (not on in-place overwrites).
//!
//! Two multicore-readiness rules are enforced on top (paper §3):
//!
//! * **Reads write nothing shared.** The read path performs no store to any
//!   cache line another thread reads. Even the reader-retry statistic is
//!   sharded into per-thread cache-line-padded cells (merged lazily by
//!   [`Tree::stats`]), so a retrying reader bumps a line it owns instead of
//!   bouncing a tree-global counter. The invariant is pinned by tests via
//!   [`silo_epoch::shared_write_audit`].
//! * **Permutation-ordered interior nodes**, like the leaves. An interior
//!   insert writes one free key/child slot and publishes with a single
//!   atomic permutation store, so descending readers never observe a
//!   separator array mid-shift.
//!
//! Remaining simplifications vs. Masstree: nodes are never merged or freed
//! before the tree drops (the slab then frees them all at once), and empty
//! trie layers are left in place after removals. Neither affects the
//! concurrency-control behaviour the paper evaluates.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use silo_epoch::shared_write_audit;

mod node;
mod slab;

pub use node::{
    keyslice, klen_class, prefetch_line, KeyBuf, Permutation, FANOUT, KLEN_LAYER, KLEN_SUFFIX,
    LEAF_WIDTH, NODE_LEAF_BIT, NODE_LOCK_BIT, NODE_VERSION_INC,
};
pub use slab::{Bump, Slab};

use node::{prefetch, InnerNode, LeafNode, LeafSearch, NodeHeader};

// ---------------------------------------------------------------------------
// Suffix-dereference audit (test builds only)
// ---------------------------------------------------------------------------

#[cfg(test)]
pub(crate) mod deref_audit {
    use std::cell::Cell;
    thread_local! {
        static SUFFIX_DEREFS: Cell<u64> = const { Cell::new(0) };
    }
    pub(crate) fn note() {
        SUFFIX_DEREFS.with(|c| c.set(c.get() + 1));
    }
    /// Resets the counter and returns the count since the previous reset.
    pub(crate) fn take() -> u64 {
        SUFFIX_DEREFS.with(|c| c.replace(0))
    }
}

/// Reads a suffix buffer's bytes. Every read-path dereference of an
/// out-of-line suffix funnels through here so tests can assert the
/// single-slice fast path never chases a `KeyBuf` pointer.
///
/// # Safety
///
/// `ptr` must be a live (possibly stale, reclamation-deferred) suffix
/// buffer.
#[inline(always)]
unsafe fn suffix_bytes<'a>(ptr: *mut KeyBuf) -> &'a [u8] {
    #[cfg(test)]
    deref_audit::note();
    // SAFETY: forwarded from the caller's contract.
    unsafe { (*ptr).bytes() }
}

// ---------------------------------------------------------------------------
// Public result types (unchanged contract)
// ---------------------------------------------------------------------------

/// An opaque reference to a tree node, used as the identity of node-set
/// entries. Valid for as long as the owning [`Tree`] is alive (nodes are
/// never freed before the tree is dropped, including nodes of deeper trie
/// layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(usize);

impl NodeRef {
    fn from_ptr(ptr: *const NodeHeader) -> Self {
        NodeRef(ptr as usize)
    }

    /// The node's address, usable as a stable identity / sort key.
    pub fn as_usize(self) -> usize {
        self.0
    }
}

/// A structural version change caused by an insert, reported so transactions
/// can fix up their node-sets (paper §4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeChange {
    /// An existing node's version moved from `old_version` to `new_version`.
    Updated {
        /// The affected node.
        node: NodeRef,
        /// Its version before the insert locked it.
        old_version: u64,
        /// Its version after the insert's modifications.
        new_version: u64,
    },
    /// A new node was created — by a split, or as the root leaf of a trie
    /// layer created when a suffix entry was converted.
    Created {
        /// The new node.
        node: NodeRef,
        /// Its version after creation.
        version: u64,
        /// The node it grew out of (split origin, or the leaf whose suffix
        /// entry became the layer pointer).
        split_from: NodeRef,
    },
}

/// A fixed-capacity list stored inline, so building one never touches the
/// allocator. Pushing past `N` panics; every use is bounded by the B+-tree
/// depth of one layer (see [`MAX_BTREE_DEPTH`]) or by the leaf width.
///
/// The unused slots stay uninitialized: an insert builds one of these per
/// call, and zero-filling the dozen node changes it almost never reports
/// was measured at 15 ns of a 170 ns insert.
struct InlineVec<T: Copy, const N: usize> {
    len: usize,
    items: [std::mem::MaybeUninit<T>; N],
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    fn new() -> Self {
        InlineVec {
            len: 0,
            items: [std::mem::MaybeUninit::uninit(); N],
        }
    }

    fn push(&mut self, item: T) {
        self.items[self.len].write(item);
        self.len += 1;
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: `len` only grows in `push`, which initializes the slot it
        // counts, so the first `len` items are initialized; `MaybeUninit<T>`
        // has the layout of `T`.
        unsafe { std::slice::from_raw_parts(self.items.as_ptr().cast::<T>(), self.len) }
    }
}

impl<T: Copy + std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Upper bound on the B+-tree depth of one trie layer, and so on the chain
/// of nodes an insert holds locked. A split leaves every node at least half
/// full, so a layer this deep would need more than 8^14 leaves.
const MAX_BTREE_DEPTH: usize = 16;

/// A locked node (or one about to be unlocked) and its pre-lock version.
type LockedNode = (*const NodeHeader, u64);

/// The locked descent path of one insert, root-most first.
type LockedChain = InlineVec<LockedNode, MAX_BTREE_DEPTH>;

/// [`NodeChange`]s a [`NodeChanges`] holds without allocating: a split that
/// propagates through six levels reports twelve.
const INLINE_NODE_CHANGES: usize = 12;

/// The version changes reported by one [`Tree::insert_if_absent`].
///
/// Stored inline up to a split chain far deeper than real trees produce, so
/// an insert allocates nothing for its report; only a suffix→layer conversion
/// of keys sharing a very long prefix (one created leaf per shared slice)
/// spills to the heap.
pub struct NodeChanges {
    inline: InlineVec<NodeChange, INLINE_NODE_CHANGES>,
    spill: Vec<NodeChange>,
}

impl NodeChanges {
    fn new() -> Self {
        NodeChanges {
            inline: InlineVec::new(),
            spill: Vec::new(),
        }
    }

    fn push(&mut self, change: NodeChange) {
        if self.inline.len() < INLINE_NODE_CHANGES {
            self.inline.push(change);
        } else {
            self.spill.push(change);
        }
    }

    /// Number of changes reported.
    pub fn len(&self) -> usize {
        self.inline.len() + self.spill.len()
    }

    /// Whether no change was reported (never the case for an insert).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The changes, in the order the insert produced them.
    pub fn iter(&self) -> impl Iterator<Item = &NodeChange> {
        self.inline.iter().chain(&self.spill)
    }
}

impl std::fmt::Debug for NodeChanges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Result of [`Tree::insert_if_absent`].
// `Inserted` is both the large variant and the common one, and its size is
// the point: the change list travels inline instead of through the heap.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum InsertOutcome {
    /// The key was not present and has been inserted.
    Inserted {
        /// Version changes of every node affected by the insert.
        node_changes: NodeChanges,
    },
    /// The key was already present; nothing was modified.
    Exists {
        /// The value currently associated with the key.
        value: u64,
    },
}

/// An entry removed from the tree by [`Tree::remove`].
///
/// Owns the removed key's out-of-line suffix buffer, if it had one (keys of
/// at most 8 bytes per trie layer store nothing out of line). Dropping it
/// frees the buffer, so the caller **must defer the drop past a grace
/// period** (`silo-core` queues it on the worker's epoch-ordered garbage
/// list) if concurrent readers may still hold the pointer; dropping
/// immediately is only safe in single-threaded contexts.
#[derive(Debug)]
pub struct RemovedEntry {
    /// The value that was associated with the removed key.
    pub value: u64,
    suffix: *mut KeyBuf,
}

// SAFETY: the owned suffix buffer is immutable heap data; transferring the
// responsibility to free it to another thread is sound.
unsafe impl Send for RemovedEntry {}

impl Drop for RemovedEntry {
    fn drop(&mut self) {
        if !self.suffix.is_null() {
            // SAFETY: the suffix was removed from the tree and is exclusively
            // owned by this entry; the caller is responsible for only
            // dropping after a grace period (see type-level docs).
            unsafe { KeyBuf::free(self.suffix) };
        }
    }
}

/// The collected result of [`Tree::scan`]: the matching entries plus the
/// `(node, version)` pairs that must be added to the scanning transaction's
/// node-set. Leaves of every trie layer the scan visited are included.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Matching `(key, value)` pairs in ascending key order.
    pub entries: Vec<(Vec<u8>, u64)>,
    /// Every leaf visited during the scan, with the version validated while
    /// reading it.
    pub nodes: Vec<(NodeRef, u64)>,
}

/// The working memory of [`Tree::scan_with`], owned by the caller so that
/// repeated scans reuse it: the stack of per-layer frames, the buffer full
/// keys are assembled in, and the list of visited leaves. A default value
/// holds no heap memory; a caller that keeps one per thread scans without
/// allocating once the buffers have grown to the shapes it scans.
#[derive(Debug, Default)]
pub struct ScanScratch {
    frames: Vec<ScanFrame>,
    /// The stripped prefix of the current descent path, with the entry being
    /// visited appended for the duration of its `visit` call.
    key: Vec<u8>,
    nodes: Vec<(NodeRef, u64)>,
}

// SAFETY: the node pointers in `frames` are the only non-`Send` content, and
// no scan dereferences one it did not store itself (`scan_with` clears the
// stack before use, and again when it finishes); everything else is plain
// data.
unsafe impl Send for ScanScratch {}

impl ScanScratch {
    /// Every leaf the last scan visited (across all trie layers), with the
    /// version validated while reading it: what a serializable transaction
    /// adds to its node-set.
    pub fn nodes(&self) -> &[(NodeRef, u64)] {
        &self.nodes
    }
}

// ---------------------------------------------------------------------------
// Index statistics
// ---------------------------------------------------------------------------

/// A snapshot of index structure and activity counters, surfaced through the
/// benchmark harness (`WorkerStats`/`RunResult` → `BENCH_JSON`).
///
/// Structure counts come from a read-only walk and are approximate under
/// concurrent writes. Activity counters are exact relaxed atomics: splits
/// and layer creations are bumped on paths that already write shared
/// memory, while `reader_retries` is kept in per-thread cache-line-padded
/// cells so the read path never writes a shared line — [`Tree::stats`]
/// merges the cells (each exactly once, including cells whose owning
/// threads have exited) into the single `reader_retries` figure reported
/// here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Leaf nodes across all trie layers.
    pub leaves: u64,
    /// Interior nodes across all trie layers.
    pub inners: u64,
    /// Trie layers (1 = no long-key collisions anywhere).
    pub layers: u64,
    /// Live entries (inline + suffix) across all layers.
    pub entries: u64,
    /// Entries whose key continues in an out-of-line suffix.
    pub suffix_entries: u64,
    /// Entries that point at a deeper trie layer.
    pub layer_entries: u64,
    /// Deepest B+-tree level of any single layer (1 = root is a leaf).
    pub max_btree_depth: u64,
    /// Deepest trie layer reachable (1 = single layer).
    pub max_trie_depth: u64,
    /// Node counts per B+-tree level, aggregated across layers
    /// (`nodes_per_level[0]` counts layer roots).
    pub nodes_per_level: Vec<u64>,
    /// Leaf/interior splits performed since the tree was created.
    pub splits: u64,
    /// Trie layers created by suffix conversions.
    pub layer_creations: u64,
    /// Optimistic-reader restarts (version mismatches, torn reads).
    pub reader_retries: u64,
}

impl IndexStats {
    /// Accumulates another tree's statistics into this one (per-table
    /// aggregation in the benchmark harness).
    pub fn merge(&mut self, other: &IndexStats) {
        self.leaves += other.leaves;
        self.inners += other.inners;
        self.layers += other.layers;
        self.entries += other.entries;
        self.suffix_entries += other.suffix_entries;
        self.layer_entries += other.layer_entries;
        self.max_btree_depth = self.max_btree_depth.max(other.max_btree_depth);
        self.max_trie_depth = self.max_trie_depth.max(other.max_trie_depth);
        if self.nodes_per_level.len() < other.nodes_per_level.len() {
            self.nodes_per_level.resize(other.nodes_per_level.len(), 0);
        }
        for (i, n) in other.nodes_per_level.iter().enumerate() {
            self.nodes_per_level[i] += n;
        }
        self.splits += other.splits;
        self.layer_creations += other.layer_creations;
        self.reader_retries += other.reader_retries;
    }
}

/// Number of reader-retry cells. More shards than typical worker counts so
/// round-robin assignment rarely doubles threads up on one line.
const RETRY_SHARDS: usize = 32;

/// One cache-line-padded counter cell. 128-byte alignment covers the
/// adjacent-line ("spatial") prefetcher on modern x86, which otherwise pulls
/// the neighbouring 64-byte line into the same coherence traffic.
#[derive(Debug, Default)]
#[repr(align(128))]
struct PaddedCounter(AtomicU64);

/// Returns the calling thread's retry-shard index.
///
/// Assigned round-robin from a process-global counter the first time a
/// thread retries anywhere; cached in a thread-local afterwards. The
/// one-time assignment is the only shared write on this path and is noted
/// with the audit (it is registration, like a worker slot — not a per-read
/// cost).
fn retry_shard() -> usize {
    use std::cell::Cell;
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let cached = s.get();
        if cached != usize::MAX {
            return cached;
        }
        shared_write_audit::note();
        let assigned = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % RETRY_SHARDS;
        s.set(assigned);
        assigned
    })
}

#[derive(Debug, Default)]
struct Counters {
    splits: AtomicU64,
    layer_creations: AtomicU64,
    /// Reader-retry counts, sharded per thread (paper §3: reads must not
    /// write shared memory — not even to report that they had to retry).
    /// The cells outlive any particular worker thread, so retries from
    /// threads that exited mid-run still show up in [`Tree::stats`].
    reader_retries: [PaddedCounter; RETRY_SHARDS],
}

impl Counters {
    #[inline(always)]
    fn note_retry(&self) {
        // Relaxed add to a line owned (modulo shard collisions) by this
        // thread: no cross-thread cacheline bounce on the retry path.
        self.reader_retries[retry_shard()]
            .0
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Sums the per-thread retry cells. Each cell is read exactly once, so
    /// the merged figure counts every retry exactly once regardless of how
    /// many threads (live or exited) shared a cell.
    fn reader_retries_total(&self) -> u64 {
        self.reader_retries
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Layers
// ---------------------------------------------------------------------------

/// One trie layer: a B+-tree over one 8-byte keyslice position. The root
/// pointer changes only when the layer's root splits.
struct Layer {
    root: AtomicPtr<NodeHeader>,
}

impl Layer {
    /// A layer whose root is a fresh, empty leaf placed in `slab`.
    fn new(slab: &Slab) -> Layer {
        Layer {
            root: AtomicPtr::new(LeafNode::allocate(slab) as *mut NodeHeader),
        }
    }

    /// Optimistically descends to the leaf of this layer that covers
    /// `slice`, returning the leaf and a stable version observed on the way
    /// down. The caller must re-validate the version after reading leaf
    /// contents.
    fn find_leaf(&self, slice: u64, counters: &Counters) -> (*const LeafNode, u64) {
        'restart: loop {
            let root = self.root.load(Ordering::Acquire);
            prefetch(root);
            // SAFETY: the root pointer always refers to a live node.
            let mut version = unsafe { (*root).stable_version() };
            // Re-check the root pointer: if a root split completed between
            // the load and the version read, this node only covers part of
            // the key space and we must restart from the new root.
            if self.root.load(Ordering::Acquire) != root {
                counters.note_retry();
                continue 'restart;
            }
            let mut node = root as *const NodeHeader;
            loop {
                // SAFETY: `node` is a live node (never freed while the tree
                // is alive).
                let hdr = unsafe { &*node };
                if version & NODE_LEAF_BIT != 0 {
                    return (node as *const LeafNode, version);
                }
                // SAFETY: the LEAF bit told us this is an interior node.
                let inner_ref = unsafe { &*(node as *const InnerNode) };
                // Route and fetch the child under ONE permutation snapshot:
                // a concurrent insert publishing a new permutation between
                // the two calls could otherwise pair a rank from the old
                // ordering with a child from the new one. (Any remaining
                // inconsistency with the key/child slots themselves is
                // caught by the version re-check below.)
                let perm = inner_ref.permutation();
                let idx = inner_ref.route_at(perm, slice);
                let child = inner_ref.child_at(perm, idx);
                // Start pulling the child in while we validate the routing
                // decision against the version we held.
                prefetch(child);
                if hdr.version_raw() != version || child.is_null() {
                    counters.note_retry();
                    continue 'restart;
                }
                // SAFETY: child pointers observed under a validated version
                // refer to live nodes.
                let child_version = unsafe { (*child).stable_version() };
                // Hand-over-hand: re-validate the parent after capturing the
                // child's version, so a concurrent split cannot slip between.
                if hdr.version_raw() != version {
                    counters.note_retry();
                    continue 'restart;
                }
                node = child;
                version = child_version;
            }
        }
    }
}

/// A suffix buffer displaced by a suffix→layer conversion. Concurrent
/// readers holding the old `(klen, suffix)` pair may dereference it at any
/// point in the tree's lifetime, so displaced suffixes are retired to a
/// tree-level list and freed only on [`Tree`] drop — bounded by the number
/// of layer entries ever created, the same order as the (also never freed)
/// layer nodes themselves.
struct RetiredSuffix(*mut KeyBuf);

// SAFETY: an immutable heap buffer; only the drop path frees it.
unsafe impl Send for RetiredSuffix {}

// ---------------------------------------------------------------------------
// The tree
// ---------------------------------------------------------------------------

/// A concurrent ordered map from byte-string keys to `u64` values,
/// structured as a trie of B+-trees over 8-byte keyslices.
pub struct Tree {
    root: Layer,
    counters: Counters,
    retired: Mutex<Vec<RetiredSuffix>>,
    /// Holds every leaf, interior node and trie layer of the tree. None is
    /// freed before the tree drops, which frees them all with the slab.
    nodes: Slab,
}

// SAFETY: all shared node state is accessed through atomics and the
// version/lock protocol documented in `node.rs`; suffix buffers are
// immutable and freed only with exclusive access or deferred by the caller;
// the node slab is itself `Sync`.
unsafe impl Send for Tree {}
// SAFETY: see above.
unsafe impl Sync for Tree {}

impl Default for Tree {
    fn default() -> Self {
        Self::new()
    }
}

/// The outcome of [`Tree::locate`]: the terminal leaf for a key (at
/// whatever trie layer the descent ended) and the version under which the
/// outcome was validated. `entry` is `Some((rank, slot, value))` when the
/// key is present.
struct Located {
    leaf: *const LeafNode,
    version: u64,
    entry: Option<(usize, usize, u64)>,
}

/// How many entries ahead of the scan cursor value/suffix/layer prefetches
/// are issued: far enough to cover a memory round-trip at typical
/// per-entry processing cost, near enough not to thrash the L1.
const SCAN_PREFETCH_DISTANCE: usize = 3;

/// One validated leaf entry captured during a scan, processed only after the
/// leaf version check passed.
#[derive(Debug, Clone, Copy)]
enum ScanItem {
    Inline {
        slice: u64,
        klen: u8,
        value: u64,
    },
    Suffix {
        slice: u64,
        suffix: *mut KeyBuf,
        value: u64,
    },
    Layer {
        slice: u64,
        layer: u64,
    },
}

/// Per-trie-layer scan state (one per layer on the current descent path;
/// kept on an explicit stack so arbitrarily deep layer chains cannot
/// overflow the thread stack). `start`/`end` are byte offsets into the scan's
/// original bounds — stripping a layer's prefix advances the offset by 8 —
/// with `None` meaning "from the beginning" / "unbounded within this
/// subtree" respectively.
#[derive(Debug)]
struct ScanFrame {
    leaf: *const LeafNode,
    version: u64,
    /// B-link successor captured (validated) alongside `items`.
    next: *mut LeafNode,
    items: InlineVec<ScanItem, LEAF_WIDTH>,
    idx: usize,
    start: Option<usize>,
    end: Option<usize>,
}

impl ScanFrame {
    fn new(
        (leaf, version): (*const LeafNode, u64),
        start: Option<usize>,
        end: Option<usize>,
    ) -> Self {
        ScanFrame {
            leaf,
            version,
            next: std::ptr::null_mut(),
            items: InlineVec::new(),
            idx: 0,
            start,
            end,
        }
    }
}

/// Compares the concatenation `a0 ++ a1` with `b` without materializing it.
fn concat_cmp(a0: &[u8], a1: &[u8], b: &[u8]) -> std::cmp::Ordering {
    use std::cmp::Ordering::*;
    let n0 = a0.len().min(b.len());
    match a0[..n0].cmp(&b[..n0]) {
        Equal => {}
        other => return other,
    }
    if a0.len() >= b.len() {
        if a0.len() > b.len() || !a1.is_empty() {
            Greater
        } else {
            Equal
        }
    } else {
        a1.cmp(&b[a0.len()..])
    }
}

impl Tree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        let nodes = Slab::new();
        Tree {
            root: Layer::new(&nodes),
            counters: Counters::default(),
            retired: Mutex::new(Vec::new()),
            nodes,
        }
    }

    /// Number of keys currently in the tree, counted by the structural walk
    /// of [`Tree::stats`] (O(n); approximate while writers are active).
    pub fn len(&self) -> usize {
        self.stats().entries as usize
    }

    /// Whether the tree contains no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current stable version of `node` (used by commit-protocol Phase 2
    /// to validate node-sets).
    pub fn node_version(&self, node: NodeRef) -> u64 {
        let ptr = node.0 as *const NodeHeader;
        // SAFETY: nodes are never freed while the tree is alive (at any trie
        // layer), and NodeRefs are only handed out by this tree's own
        // operations.
        unsafe { (*ptr).stable_version() }
    }

    fn retire_suffix(&self, suffix: *mut KeyBuf) {
        if !suffix.is_null() {
            shared_write_audit::note();
            self.retired
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(RetiredSuffix(suffix));
        }
    }

    // ------------------------------------------------------------------
    // Optimistic read path
    // ------------------------------------------------------------------

    /// Looks up `key`, returning its value if present.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        self.get_tracked(key).0
    }

    /// Looks up `key`, additionally returning the leaf that covers the key
    /// and the version under which the lookup was performed.
    ///
    /// For an absent key the `(leaf, version)` pair is exactly what Silo
    /// adds to the transaction's node-set so that a concurrent insert of the
    /// key is detected at commit time (§4.6): the leaf is the one — at
    /// whatever trie layer the descent ended — that such an insert must
    /// modify (adding an entry, or converting a suffix entry into a layer).
    pub fn get_tracked(&self, key: &[u8]) -> (Option<u64>, NodeRef, u64) {
        let loc = self.locate(key);
        (
            loc.entry.map(|(_, _, value)| value),
            NodeRef::from_ptr(loc.leaf as *const NodeHeader),
            loc.version,
        )
    }

    /// The one optimistic point descent, shared by reads and writes: walks
    /// the trie layers to the terminal leaf for `key` and resolves whether
    /// the key is present, retrying on interference until the outcome has
    /// been validated under a single leaf version. Writes nothing shared
    /// (the paper's §3 rule); lock-taking callers upgrade afterwards with
    /// [`NodeHeader::try_upgrade_lock`], whose success proves the returned
    /// rank/slot are still exact.
    fn locate(&self, key: &[u8]) -> Located {
        let mut layer: &Layer = &self.root;
        let mut rem: &[u8] = key;
        'layer: loop {
            let (slice, class) = keyslice(rem);
            'retry: loop {
                let (leaf_ptr, version) = layer.find_leaf(slice, &self.counters);
                // SAFETY: leaves are never freed while the tree is alive.
                let leaf = unsafe { &*leaf_ptr };
                let entry = match leaf.search(leaf.permutation(), slice, class) {
                    LeafSearch::NotFound { .. } => None,
                    // Inline entries match completely on (slice, klen): no
                    // pointer is chased for keys of ≤ 8 bytes per layer —
                    // the paper's single-slice fast path.
                    LeafSearch::Found { rank, slot } if class <= 8 => {
                        Some((rank, slot, leaf.value(slot)))
                    }
                    LeafSearch::Found { rank, slot } => match leaf.klen(slot) {
                        KLEN_LAYER => {
                            let value = leaf.value(slot);
                            if leaf.header.version_raw() != version {
                                self.counters.note_retry();
                                continue 'retry;
                            }
                            // SAFETY: the version check validated the
                            // (klen, value) pair, and layers are never freed
                            // while the tree is alive.
                            let next = unsafe { &*(value as *const Layer) };
                            prefetch(next.root.load(Ordering::Acquire));
                            layer = next;
                            rem = &rem[8..];
                            continue 'layer;
                        }
                        KLEN_SUFFIX => {
                            let sp = leaf.suffix(slot);
                            if sp.is_null() {
                                self.counters.note_retry();
                                continue 'retry;
                            }
                            // SAFETY: non-null suffix pointers in a node are
                            // dereferenceable (immutable buffers, deferred
                            // reclamation).
                            let matches = unsafe { suffix_bytes(sp) } == &rem[8..];
                            matches.then(|| (rank, slot, leaf.value(slot)))
                        }
                        _ => {
                            // Torn (slot mid-rewrite): the version check
                            // cannot pass.
                            self.counters.note_retry();
                            continue 'retry;
                        }
                    },
                };
                if leaf.header.version_raw() != version {
                    self.counters.note_retry();
                    continue 'retry;
                }
                return Located {
                    leaf: leaf_ptr,
                    version,
                    entry,
                };
            }
        }
    }

    /// Scans keys in `[start, end)` (or to the end of the tree when `end` is
    /// `None`), returning at most `limit` entries if a limit is given.
    ///
    /// The result carries every visited leaf (across all trie layers) and
    /// its validated version; a serializable transaction adds these to its
    /// node-set. This is the collecting form of [`Tree::scan_with`]: it owns
    /// every key it returns, so it allocates per entry.
    pub fn scan(&self, start: &[u8], end: Option<&[u8]>, limit: Option<usize>) -> ScanResult {
        let mut scratch = ScanScratch::default();
        let mut entries = Vec::new();
        self.scan_with(&mut scratch, start, end, limit, |key, value| {
            entries.push((key.to_vec(), value));
        });
        ScanResult {
            entries,
            nodes: scratch.nodes,
        }
    }

    /// Reads one leaf's entries into `frame` (retrying torn reads / version
    /// mismatches until a validated snapshot is captured), registers the leaf
    /// in `nodes`, and records its B-link successor. After this returns,
    /// every captured `(klen, value/suffix)` pair in `frame.items` was
    /// validated by the version check, so layer pointers and suffix buffers
    /// are safe to follow.
    fn load_scan_leaf(&self, frame: &mut ScanFrame, nodes: &mut Vec<(NodeRef, u64)>) {
        loop {
            // SAFETY: leaves are never freed while the tree is alive.
            let leaf = unsafe { &*frame.leaf };
            frame.items.clear();
            frame.idx = 0;
            let mut torn = false;
            let perm = leaf.permutation();
            for rank in 0..perm.count() {
                let slot = perm.slot(rank);
                let slice = leaf.slice(slot);
                let klen = leaf.klen(slot);
                match klen {
                    0..=8 => frame.items.push(ScanItem::Inline {
                        slice,
                        klen,
                        value: leaf.value(slot),
                    }),
                    KLEN_SUFFIX => {
                        let suffix = leaf.suffix(slot);
                        if suffix.is_null() {
                            torn = true;
                            break;
                        }
                        frame.items.push(ScanItem::Suffix {
                            slice,
                            suffix,
                            value: leaf.value(slot),
                        });
                    }
                    KLEN_LAYER => frame.items.push(ScanItem::Layer {
                        slice,
                        layer: leaf.value(slot),
                    }),
                    _ => {
                        torn = true;
                        break;
                    }
                }
            }
            frame.next = leaf.next();
            if torn || leaf.header.version_raw() != frame.version {
                // Interference: retry this leaf with a fresh version. Keys
                // that moved right due to a split will be picked up via
                // `next`.
                self.counters.note_retry();
                frame.version = leaf.header.stable_version();
                continue;
            }
            nodes.push((
                NodeRef::from_ptr(frame.leaf as *const NodeHeader),
                frame.version,
            ));
            return;
        }
    }

    /// The scan engine: calls `visit(key, value)` for every entry in
    /// `[start, end)` in ascending key order, for at most `limit` entries if
    /// a limit is given. `key` is only valid for the duration of the call.
    /// Afterwards [`ScanScratch::nodes`] lists every leaf visited.
    ///
    /// One explicit `ScanFrame` per trie layer on the current descent path
    /// (an explicit stack rather than recursion, so adversarially deep layer
    /// chains — keys with enormous shared prefixes — cannot overflow the
    /// thread stack). Each frame's *local* bounds are the original bounds
    /// with the layer's prefix stripped, represented as offsets into
    /// `start`/`end` (`None` start = from the beginning, `None` end =
    /// unbounded within the subtree); `scratch.key` accumulates the stripped
    /// bytes for reconstructing full keys.
    pub fn scan_with(
        &self,
        scratch: &mut ScanScratch,
        start: &[u8],
        end: Option<&[u8]>,
        limit: Option<usize>,
        mut visit: impl FnMut(&[u8], u64),
    ) {
        let ScanScratch { frames, key, nodes } = scratch;
        frames.clear();
        key.clear();
        nodes.clear();
        let limit = limit.unwrap_or(usize::MAX);
        if limit == 0 {
            return;
        }
        let mut visited = 0usize;
        {
            let (start_slice, _) = keyslice(start);
            let mut frame = ScanFrame::new(
                self.root.find_leaf(start_slice, &self.counters),
                Some(0),
                end.map(|_| 0),
            );
            self.load_scan_leaf(&mut frame, nodes);
            frames.push(frame);
        }

        /// What the borrow-scoped item loop decided to do next.
        enum ScanStep {
            /// Push a frame for the given sub-layer.
            Descend {
                layer: u64,
                sub_start: Option<usize>,
                sub_end: Option<usize>,
            },
            /// This layer is exhausted: pop back to the parent.
            Pop,
            /// Follow the B-link to the next leaf of this layer.
            NextLeaf,
            /// Limit reached or past the end bound: the whole scan is done.
            Done,
        }

        loop {
            let step = {
                let Some(frame) = frames.last_mut() else {
                    return;
                };
                let local_start: &[u8] = match frame.start {
                    Some(off) => &start[off..],
                    None => b"",
                };
                let local_end: Option<&[u8]> = match (frame.end, end) {
                    (Some(off), Some(e)) => Some(&e[off..]),
                    _ => None,
                };
                let mut step = None;
                while frame.idx < frame.items.len() {
                    // Start pulling in what the cursor will touch a few
                    // entries from now: values are record-header pointers in
                    // Silo, and suffix/layer entries chase a pointer of
                    // their own. Prefetch is a hint — harmless when a value
                    // is not actually an address.
                    if let Some(ahead) = frame.items.get(frame.idx + SCAN_PREFETCH_DISTANCE) {
                        match ahead {
                            ScanItem::Inline { value, .. } => prefetch_line(*value as *const u8),
                            ScanItem::Suffix { suffix, value, .. } => {
                                prefetch_line(*suffix as *const u8);
                                prefetch_line(*value as *const u8);
                            }
                            ScanItem::Layer { layer, .. } => prefetch_line(*layer as *const u8),
                        }
                    }
                    let item = frame.items[frame.idx];
                    frame.idx += 1;
                    match item {
                        ScanItem::Inline { slice, klen, value } => {
                            let sb = slice.to_be_bytes();
                            let kb = &sb[..klen as usize];
                            if kb < local_start {
                                continue;
                            }
                            if local_end.is_some_and(|e| kb >= e) || visited >= limit {
                                step = Some(ScanStep::Done);
                                break;
                            }
                            let prefix_len = key.len();
                            key.extend_from_slice(kb);
                            visit(key, value);
                            key.truncate(prefix_len);
                            visited += 1;
                        }
                        ScanItem::Suffix {
                            slice,
                            suffix,
                            value,
                        } => {
                            let sb = slice.to_be_bytes();
                            // SAFETY: validated by `load_scan_leaf`; buffers
                            // are immutable and reclamation-deferred.
                            let sfx = unsafe { suffix_bytes(suffix) };
                            if concat_cmp(&sb, sfx, local_start) == std::cmp::Ordering::Less {
                                continue;
                            }
                            let past_end = local_end.is_some_and(|e| {
                                concat_cmp(&sb, sfx, e) != std::cmp::Ordering::Less
                            });
                            if past_end || visited >= limit {
                                step = Some(ScanStep::Done);
                                break;
                            }
                            let prefix_len = key.len();
                            key.extend_from_slice(&sb);
                            key.extend_from_slice(sfx);
                            visit(key, value);
                            key.truncate(prefix_len);
                            visited += 1;
                        }
                        ScanItem::Layer { slice, layer } => {
                            let sb = slice.to_be_bytes();
                            // Every key below starts with `sb` and is longer,
                            // i.e. strictly greater than `sb`.
                            if local_end.is_some_and(|e| e <= &sb[..]) {
                                step = Some(ScanStep::Done);
                                break;
                            }
                            let sub_start: Option<usize> =
                                if local_start.len() > 8 && local_start[..8] == sb {
                                    frame.start.map(|off| off + 8)
                                } else if local_start <= &sb[..] {
                                    None
                                } else {
                                    // `local_start` routes past this subtree.
                                    continue;
                                };
                            let sub_end: Option<usize> = match local_end {
                                Some(e) if e.len() > 8 && e[..8] == sb => frame.end.map(|o| o + 8),
                                // `end` > `sb` and not an extension: the
                                // whole subtree is below it.
                                _ => None,
                            };
                            if visited >= limit {
                                step = Some(ScanStep::Done);
                                break;
                            }
                            key.extend_from_slice(&sb);
                            step = Some(ScanStep::Descend {
                                layer,
                                sub_start,
                                sub_end,
                            });
                            break;
                        }
                    }
                }
                match step {
                    Some(step) => step,
                    // This leaf is exhausted.
                    None if visited >= limit => ScanStep::Done,
                    None if frame.next.is_null() => ScanStep::Pop,
                    None => ScanStep::NextLeaf,
                }
            };
            match step {
                ScanStep::Done => {
                    // Leave no node pointers behind in the caller's scratch.
                    frames.clear();
                    return;
                }
                ScanStep::Pop => {
                    // Resume the parent frame after the layer entry that got
                    // us here.
                    frames.pop();
                    key.truncate(key.len().saturating_sub(8));
                }
                ScanStep::NextLeaf => {
                    let frame = frames.last_mut().expect("frame exists");
                    frame.leaf = frame.next;
                    // SAFETY: B-link sibling pointers refer to live leaves.
                    frame.version = unsafe { (*frame.next).header.stable_version() };
                    self.load_scan_leaf(frame, nodes);
                }
                ScanStep::Descend {
                    layer,
                    sub_start,
                    sub_end,
                } => {
                    // SAFETY: validated by `load_scan_leaf`; layers are never
                    // freed while the tree is alive.
                    let sub_layer = unsafe { &*(layer as *const Layer) };
                    let sub_start_bytes: &[u8] = match sub_start {
                        Some(off) => &start[off..],
                        None => b"",
                    };
                    let (sub_slice, _) = keyslice(sub_start_bytes);
                    let mut sub_frame = ScanFrame::new(
                        sub_layer.find_leaf(sub_slice, &self.counters),
                        sub_start,
                        sub_end,
                    );
                    self.load_scan_leaf(&mut sub_frame, nodes);
                    frames.push(sub_frame);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Write path (lock crabbing)
    // ------------------------------------------------------------------

    /// Inserts `key → value` if the key is not already present.
    ///
    /// On success the returned [`NodeChange`] list describes the version
    /// change of every node the insert touched — including nodes created by
    /// splits and the root leaves of trie layers created by suffix
    /// conversions — which the caller uses to update its node-set per §4.6.
    pub fn insert_if_absent(&self, key: &[u8], value: u64) -> InsertOutcome {
        let mut layer: &Layer = &self.root;
        let mut rem: &[u8] = key;
        'layer: loop {
            let (slice, class) = keyslice(rem);
            'restart: loop {
                // Chain of locked nodes: every node except the last is full;
                // the first is either non-full or the layer root.
                let mut chain = LockedChain::new();
                let unlock_chain = |chain: &[LockedNode]| {
                    for &(node, _) in chain.iter().rev() {
                        // SAFETY: we locked these nodes below; they are live.
                        unsafe { (*node).unlock() };
                    }
                };

                let root = layer.root.load(Ordering::Acquire);
                // SAFETY: the root pointer always refers to a live node.
                unsafe { (*root).lock() };
                if layer.root.load(Ordering::Acquire) != root {
                    // SAFETY: we hold the lock we are releasing.
                    unsafe { (*root).unlock() };
                    continue 'restart;
                }
                // SAFETY: lock held; reading the version under the lock.
                let root_version = unsafe { (*root).version_raw() } & !NODE_LOCK_BIT;
                chain.push((root as *const NodeHeader, root_version));

                let mut node = root as *const NodeHeader;
                // SAFETY: `node` is live and locked by us.
                while unsafe { !(*node).is_leaf() } {
                    // SAFETY: interior node, lock held.
                    let inner_ref = unsafe { &*(node as *const InnerNode) };
                    let idx = inner_ref.route(slice);
                    let child = inner_ref.child(idx) as *const NodeHeader;
                    debug_assert!(!child.is_null());
                    prefetch(child);
                    // SAFETY: children of a live, locked interior node are
                    // live.
                    unsafe { (*child).lock() };
                    let child_version = unsafe { (*child).version_raw() } & !NODE_LOCK_BIT;
                    let child_full = unsafe {
                        if (*child).is_leaf() {
                            (*(child as *const LeafNode)).is_full()
                        } else {
                            (*(child as *const InnerNode)).is_full()
                        }
                    };
                    if !child_full {
                        // Child cannot split: release every ancestor.
                        unlock_chain(&chain);
                        chain.clear();
                    }
                    chain.push((child, child_version));
                    node = child;
                }

                let leaf = node as *const LeafNode;
                // SAFETY: leaf node, lock held.
                let leaf_ref = unsafe { &*leaf };
                let perm = leaf_ref.permutation();

                match leaf_ref.search(perm, slice, class) {
                    LeafSearch::Found { slot, .. } if class <= 8 => {
                        let value = leaf_ref.value(slot);
                        unlock_chain(&chain);
                        return InsertOutcome::Exists { value };
                    }
                    LeafSearch::Found { slot, .. } => {
                        // The slice's suffix/layer bucket is occupied.
                        match leaf_ref.klen(slot) {
                            KLEN_LAYER => {
                                let next_layer = leaf_ref.value(slot) as *const Layer;
                                unlock_chain(&chain);
                                // SAFETY: read under the leaf lock; layers
                                // are never freed while the tree is alive.
                                layer = unsafe { &*next_layer };
                                rem = &rem[8..];
                                continue 'layer;
                            }
                            KLEN_SUFFIX => {
                                let sp = leaf_ref.suffix(slot);
                                // SAFETY: read under the leaf lock.
                                let sfx = unsafe { suffix_bytes(sp) };
                                if sfx == &rem[8..] {
                                    let value = leaf_ref.value(slot);
                                    unlock_chain(&chain);
                                    return InsertOutcome::Exists { value };
                                }
                                // Two distinct keys share the slice: convert
                                // the suffix entry into a trie layer holding
                                // both (Masstree §4.6.3). The new layers are
                                // built privately, then published with one
                                // value+klen rewrite under the leaf lock.
                                let old_value = leaf_ref.value(slot);
                                let (new_layer, created) =
                                    build_layer_chain(&self.nodes, sfx, old_value, &rem[8..], value);
                                // Capture the created leaves' versions while
                                // the chain is still thread-private: once
                                // `convert_to_layer` publishes it, a
                                // concurrent insert could bump them, and
                                // reporting the *post*-bump version would
                                // absorb that concurrent membership change
                                // into the inserter's node-set fix-up — an
                                // undetected phantom. (Split-created nodes
                                // avoid this by staying locked until their
                                // version is taken.)
                                let created: Vec<(*const NodeHeader, u64)> = created
                                    .into_iter()
                                    // SAFETY: freshly created, never locked,
                                    // still private to this thread.
                                    .map(|leaf| (leaf, unsafe { (*leaf).stable_version() }))
                                    .collect();
                                let displaced =
                                    leaf_ref.convert_to_layer(slot, new_layer as u64);
                                self.retire_suffix(displaced);
                                shared_write_audit::note();
                                self.counters
                                    .layer_creations
                                    .fetch_add(created.len() as u64, Ordering::Relaxed);
                                let (leaf_hdr, leaf_old_version) =
                                    *chain.last().expect("chain contains the leaf");
                                let mut changes = NodeChanges::new();
                                // Membership below this leaf changed: bump
                                // its version so node-sets that proved the
                                // new key absent (or scanned the old suffix
                                // entry) fail validation.
                                let new_version =
                                    // SAFETY: we hold the leaf lock.
                                    unsafe { (*leaf_hdr).unlock_with_increment() };
                                changes.push(NodeChange::Updated {
                                    node: NodeRef::from_ptr(leaf_hdr),
                                    old_version: leaf_old_version,
                                    new_version,
                                });
                                for &(anc, _) in chain[..chain.len() - 1].iter().rev() {
                                    // SAFETY: we hold these locks.
                                    unsafe { (*anc).unlock() };
                                }
                                for (created_leaf, version) in created {
                                    changes.push(NodeChange::Created {
                                        node: NodeRef::from_ptr(created_leaf),
                                        version,
                                        split_from: NodeRef::from_ptr(leaf_hdr),
                                    });
                                }
                                shared_write_audit::note();
                                return InsertOutcome::Inserted {
                                    node_changes: changes,
                                };
                            }
                            other => unreachable!(
                                "class-9 bucket holds suffix or layer under the leaf lock, saw klen {other}"
                            ),
                        }
                    }
                    LeafSearch::NotFound { rank } => {
                        let suffix = if class == KLEN_SUFFIX {
                            KeyBuf::allocate(&rem[8..])
                        } else {
                            std::ptr::null_mut()
                        };
                        let klen = class; // inline length, or KLEN_SUFFIX
                        let mut changes = NodeChanges::new();
                        if perm.count() < LEAF_WIDTH {
                            let (_, old_version) = *chain.last().expect("chain contains the leaf");
                            leaf_ref.insert_entry(perm, rank, slice, klen, suffix, value);
                            let new_version = leaf_ref.header.unlock_with_increment();
                            changes.push(NodeChange::Updated {
                                node: NodeRef::from_ptr(node),
                                old_version,
                                new_version,
                            });
                            // Everything above the leaf (if anything) was
                            // locked only because the leaf was full —
                            // impossible here, so the chain is exactly
                            // [leaf]. Defensive unlock anyway.
                            debug_assert_eq!(chain.len(), 1);
                            for &(anc, _) in chain.iter().rev().skip(1) {
                                // SAFETY: we hold these locks.
                                unsafe { (*anc).unlock() };
                            }
                            shared_write_audit::note();
                            return InsertOutcome::Inserted {
                                node_changes: changes,
                            };
                        }
                        // Leaf is full: split and propagate up the locked
                        // chain.
                        self.insert_with_splits(
                            layer,
                            slice,
                            klen,
                            suffix,
                            value,
                            &chain,
                            &mut changes,
                        );
                        shared_write_audit::note();
                        return InsertOutcome::Inserted {
                            node_changes: changes,
                        };
                    }
                }
            }
        }
    }

    /// Splits the (full, locked) leaf at the end of `chain`, inserts the new
    /// entry, and propagates separator slices up through the locked
    /// ancestors, splitting them as needed and growing a new layer root if
    /// the chain is exhausted.
    ///
    /// All locks are released only at the very end, *after* a possible new
    /// root has been published: a reader must never be able to observe an
    /// already-split node with an unlocked (fresh) version while the pointer
    /// that routes around it (parent separator or the layer root) still
    /// points at the pre-split state.
    #[allow(clippy::too_many_arguments)]
    fn insert_with_splits(
        &self,
        layer: &Layer,
        slice: u64,
        klen: u8,
        suffix: *mut KeyBuf,
        value: u64,
        chain: &[LockedNode],
        changes: &mut NodeChanges,
    ) {
        // Nodes we modified and must unlock-with-increment at the end: at
        // most one per chain level.
        let mut updated = LockedChain::new();
        // Nodes created by splits (still locked) and the node they split
        // from: at most one per chain level.
        let mut created: InlineVec<(*const NodeHeader, *const NodeHeader), MAX_BTREE_DEPTH> =
            InlineVec::new();

        let (leaf_hdr, leaf_old_version) = *chain.last().expect("chain is never empty");
        let leaf = leaf_hdr as *const LeafNode;
        // SAFETY: leaf at the end of the chain, lock held.
        let leaf_ref = unsafe { &*leaf };
        let rank = match leaf_ref.search(leaf_ref.permutation(), slice, klen_class(klen)) {
            LeafSearch::NotFound { rank } => rank,
            LeafSearch::Found { .. } => unreachable!("key was absent under the leaf lock"),
        };
        let (mut sep, right_leaf) = leaf_ref.split(rank, &self.nodes);
        shared_write_audit::note();
        self.counters.splits.fetch_add(1, Ordering::Relaxed);
        // SAFETY: split returns a live, locked right sibling.
        let right_leaf_ref = unsafe { &*right_leaf };
        // Insert the new entry into whichever half now covers its slice
        // (equal slices all moved to one side, so this is unambiguous).
        let target: &LeafNode = if slice < sep {
            leaf_ref
        } else {
            right_leaf_ref
        };
        let perm = target.permutation();
        match target.search(perm, slice, klen_class(klen)) {
            LeafSearch::NotFound { rank } => {
                target.insert_entry(perm, rank, slice, klen, suffix, value);
            }
            LeafSearch::Found { .. } => unreachable!("key was absent under the leaf lock"),
        }
        updated.push((leaf_hdr, leaf_old_version));
        created.push((right_leaf as *const NodeHeader, leaf_hdr));

        // Propagate `sep` (with right sibling `right_node`) up the chain.
        let mut right_node: *const NodeHeader = right_leaf as *const NodeHeader;
        let mut level = chain.len() as isize - 2;
        let mut new_root: *const NodeHeader = std::ptr::null();
        loop {
            if level < 0 {
                // The chain is exhausted: its top was the (full) layer root,
                // which we just split. Grow a new root and publish it before
                // any lock is released.
                let (old_top, _) = chain[0];
                let root = InnerNode::allocate(&self.nodes);
                // SAFETY: freshly allocated root, exclusively owned until
                // published via the store below.
                unsafe {
                    (*root).init_root(
                        sep,
                        old_top as *mut NodeHeader,
                        right_node as *mut NodeHeader,
                    );
                }
                layer.root.store(root as *mut NodeHeader, Ordering::Release);
                new_root = root as *const NodeHeader;
                break;
            }
            let (anc_hdr, anc_old_version) = chain[level as usize];
            let anc = anc_hdr as *const InnerNode;
            // SAFETY: interior ancestor in the locked chain.
            let anc_ref = unsafe { &*anc };
            if !anc_ref.is_full() {
                let idx = anc_ref.route(sep);
                anc_ref.insert_separator(idx, sep, right_node as *mut NodeHeader);
                updated.push((anc_hdr, anc_old_version));
                // Any chain nodes above an unfilled ancestor were released
                // during the descent; we are done propagating.
                debug_assert_eq!(level, 0);
                break;
            }
            // The ancestor is full too: split it, insert the separator into
            // the correct half, and keep propagating the promoted slice.
            let (promoted, anc_right) = anc_ref.split(&self.nodes);
            shared_write_audit::note();
            self.counters.splits.fetch_add(1, Ordering::Relaxed);
            // SAFETY: split returns a live, locked right sibling.
            let anc_right_ref = unsafe { &*anc_right };
            let target: &InnerNode = if sep < promoted {
                anc_ref
            } else {
                anc_right_ref
            };
            let idx = target.route(sep);
            target.insert_separator(idx, sep, right_node as *mut NodeHeader);
            updated.push((anc_hdr, anc_old_version));
            created.push((anc_right as *const NodeHeader, anc_hdr));
            sep = promoted;
            right_node = anc_right as *const NodeHeader;
            level -= 1;
        }

        // Release every lock (deepest first) and record the version changes.
        for &(hdr, old_version) in updated.iter() {
            // SAFETY: we hold these locks; the nodes are live.
            let new_version = unsafe { (*hdr).unlock_with_increment() };
            changes.push(NodeChange::Updated {
                node: NodeRef::from_ptr(hdr),
                old_version,
                new_version,
            });
        }
        for &(hdr, split_from) in created.iter() {
            // SAFETY: split() returned these nodes locked; they are live.
            let version = unsafe { (*hdr).unlock_with_increment() };
            changes.push(NodeChange::Created {
                node: NodeRef::from_ptr(hdr),
                version,
                split_from: NodeRef::from_ptr(split_from),
            });
        }
        if !new_root.is_null() {
            // SAFETY: allocated above; never locked, so its version is
            // stable.
            let version = unsafe { (*new_root).stable_version() };
            changes.push(NodeChange::Created {
                node: NodeRef::from_ptr(new_root),
                version,
                split_from: NodeRef::from_ptr(chain[0].0),
            });
        }
    }

    /// Atomically replaces the value associated with `key`, returning the
    /// previous value if the key was present.
    ///
    /// Does **not** change any node version: replacing a record pointer does
    /// not alter key membership, so concurrent scans' node-sets stay valid
    /// (record-level validation catches value conflicts instead).
    fn try_replace(&self, key: &[u8], value: u64) -> Option<u64> {
        loop {
            let loc = self.locate(key);
            let (_, slot, _) = loc.entry?;
            // SAFETY: leaves are never freed while the tree is alive.
            let leaf = unsafe { &*loc.leaf };
            if !leaf.header.try_upgrade_lock(loc.version) {
                // Interference since `locate` validated: restart the whole
                // descent (the leaf may no longer even cover the key).
                self.counters.note_retry();
                continue;
            }
            let old = leaf.value(slot);
            leaf.set_value(slot, value);
            leaf.header.unlock();
            return Some(old);
        }
    }

    /// Atomically replaces the value associated with `key`, returning
    /// whether the key was present. See `Tree::try_replace` for the
    /// version-stability guarantee.
    pub fn update_value(&self, key: &[u8], value: u64) -> bool {
        self.try_replace(key, value).is_some()
    }

    /// Inserts or overwrites `key → value`, returning the previous value if
    /// the key was present. Intended for loaders and for the
    /// non-transactional Key-Value baseline (§5.2), not for the commit
    /// protocol.
    pub fn upsert(&self, key: &[u8], value: u64) -> Option<u64> {
        loop {
            if let Some(old) = self.try_replace(key, value) {
                return Some(old);
            }
            match self.insert_if_absent(key, value) {
                InsertOutcome::Inserted { .. } => return None,
                InsertOutcome::Exists { .. } => continue,
            }
        }
    }

    /// Removes `key`, returning the removed entry if it was present.
    ///
    /// The leaf's version is incremented (membership changed). Trie layers
    /// and their nodes are never removed, even when emptied — matching the
    /// interior-node policy — so node-set entries stay valid. See
    /// [`RemovedEntry`] for the reclamation contract on the suffix buffer.
    pub fn remove(&self, key: &[u8]) -> Option<RemovedEntry> {
        loop {
            let loc = self.locate(key);
            let (rank, _, _) = loc.entry?;
            // SAFETY: leaves are never freed while the tree is alive.
            let leaf = unsafe { &*loc.leaf };
            if !leaf.header.try_upgrade_lock(loc.version) {
                self.counters.note_retry();
                continue;
            }
            // The upgrade proved the leaf unchanged since `locate`'s version
            // read, so the permutation re-read under the lock is the one the
            // lookup was validated against and `rank` is still exact.
            let perm = leaf.permutation();
            let (_, suffix, value) = leaf.remove_entry(perm, rank);
            leaf.header.unlock_with_increment();
            shared_write_audit::note();
            return Some(RemovedEntry { value, suffix });
        }
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// A snapshot of the index's structure and activity counters.
    ///
    /// The structural walk is read-only and safe under concurrency, but its
    /// counts are approximate while writers are active (a split in flight
    /// may be counted on both sides); activity counters are exact.
    pub fn stats(&self) -> IndexStats {
        let mut stats = IndexStats {
            splits: self.counters.splits.load(Ordering::Relaxed),
            layer_creations: self.counters.layer_creations.load(Ordering::Relaxed),
            reader_retries: self.counters.reader_retries_total(),
            ..Default::default()
        };
        // SAFETY: nodes and layers are never freed while the tree is alive;
        // the walk only loads atomics.
        unsafe { walk_stats(self.root.root.load(Ordering::Acquire), &mut stats) };
        stats.layers = stats.layer_entries + 1;
        stats
    }
}

/// Builds the chain of fresh trie layers holding two keys that share a
/// slice: intermediate layers (one per additional shared 8-byte run) hold a
/// single layer entry; the final layer holds both keys. Layers and leaves
/// are placed in `slab`. Returns the first layer (to be published in the
/// converted slot) and every created leaf, for [`NodeChange::Created`]
/// reporting.
fn build_layer_chain(
    slab: &Slab,
    old_rem: &[u8],
    old_value: u64,
    new_rem: &[u8],
    new_value: u64,
) -> (*mut Layer, Vec<*const NodeHeader>) {
    debug_assert_ne!(old_rem, new_rem);
    let mut created = Vec::new();
    let head = slab.place(Layer::new(slab));
    let mut cur: &Layer = {
        // SAFETY: just allocated, private until published by the caller.
        unsafe { &*head }
    };
    let mut orem = old_rem;
    let mut nrem = new_rem;
    loop {
        let leaf_ptr = cur.root.load(Ordering::Relaxed) as *mut LeafNode;
        created.push(leaf_ptr as *const NodeHeader);
        // SAFETY: the freshly built chain is private to this thread.
        let leaf = unsafe { &*leaf_ptr };
        let (os, oc) = keyslice(orem);
        let (ns, nc) = keyslice(nrem);
        if (os, oc) == (ns, nc) {
            // Both keys continue identically through this slice too: add
            // another layer below.
            debug_assert_eq!(oc, KLEN_SUFFIX);
            let next = slab.place(Layer::new(slab));
            let perm = leaf.permutation();
            leaf.insert_entry(perm, 0, os, KLEN_LAYER, std::ptr::null_mut(), next as u64);
            // SAFETY: as above.
            cur = unsafe { &*next };
            orem = &orem[8..];
            nrem = &nrem[8..];
            continue;
        }
        // The keys diverge here: store both entries, in slice order.
        let put = |slice: u64, class: u8, rem: &[u8], value: u64| {
            let suffix = if class == KLEN_SUFFIX {
                KeyBuf::allocate(&rem[8..])
            } else {
                std::ptr::null_mut()
            };
            let perm = leaf.permutation();
            let rank = match leaf.search(perm, slice, class) {
                LeafSearch::NotFound { rank } => rank,
                LeafSearch::Found { .. } => unreachable!("keys diverge at this slice"),
            };
            leaf.insert_entry(perm, rank, slice, class, suffix, value);
        };
        put(os, oc, orem, old_value);
        put(ns, nc, nrem, new_value);
        return (head, created);
    }
}

/// Accumulates structural statistics over a subtree, iteratively (an
/// explicit work stack, so adversarially deep trie chains cannot overflow
/// the thread stack). `btree_level` is 1-based within a node's layer;
/// `trie_depth` is 0-based.
///
/// # Safety
///
/// `node` must belong to a live tree (nodes are never freed before drop).
unsafe fn walk_stats(root: *const NodeHeader, s: &mut IndexStats) {
    let mut stack: Vec<(*const NodeHeader, u64, u64)> = vec![(root, 1, 0)];
    while let Some((node, btree_level, trie_depth)) = stack.pop() {
        if node.is_null() {
            continue;
        }
        s.max_btree_depth = s.max_btree_depth.max(btree_level);
        s.max_trie_depth = s.max_trie_depth.max(trie_depth + 1);
        if s.nodes_per_level.len() < btree_level as usize {
            s.nodes_per_level.resize(btree_level as usize, 0);
        }
        s.nodes_per_level[btree_level as usize - 1] += 1;
        // SAFETY: live node per the caller's contract.
        if unsafe { (*node).is_leaf() } {
            s.leaves += 1;
            // SAFETY: LEAF bit checked.
            let leaf = unsafe { &*(node as *const LeafNode) };
            let perm = leaf.permutation();
            for rank in 0..perm.count() {
                let slot = perm.slot(rank);
                match leaf.klen(slot) {
                    KLEN_LAYER => {
                        s.layer_entries += 1;
                        let sub = leaf.value(slot) as *const Layer;
                        // SAFETY: layer entries point at live layers.
                        let sub_root = unsafe { (*sub).root.load(Ordering::Acquire) };
                        stack.push((sub_root, 1, trie_depth + 1));
                    }
                    KLEN_SUFFIX => {
                        s.entries += 1;
                        s.suffix_entries += 1;
                    }
                    _ => s.entries += 1,
                }
            }
        } else {
            s.inners += 1;
            // SAFETY: interior node.
            let inner = unsafe { &*(node as *const InnerNode) };
            let n = inner.nkeys().min(FANOUT);
            for i in 0..=n {
                // SAFETY: children in [0, nkeys] are live.
                stack.push((inner.child(i), btree_level + 1, trie_depth));
            }
        }
    }
}

/// Frees the suffix buffers of a subtree and of every trie layer below it
/// — iteratively (an explicit work stack, so adversarially deep trie chains
/// cannot overflow the thread stack during drop). The nodes and layers
/// themselves go with the tree's slab.
///
/// # Safety
///
/// Requires exclusive access to the whole tree (Tree::drop).
unsafe fn free_suffixes(root: *mut NodeHeader) {
    let mut stack: Vec<*mut NodeHeader> = vec![root];
    while let Some(node) = stack.pop() {
        if node.is_null() {
            continue;
        }
        // SAFETY: exclusive access per the caller's contract; every node and
        // layer is reachable exactly once, so each suffix is freed once.
        unsafe {
            if (*node).is_leaf() {
                let leaf = &*(node as *const LeafNode);
                let perm = leaf.permutation();
                for rank in 0..perm.count() {
                    let slot = perm.slot(rank);
                    match leaf.klen(slot) {
                        KLEN_SUFFIX => KeyBuf::free(leaf.suffix(slot)),
                        KLEN_LAYER => {
                            let layer = &*(leaf.value(slot) as *const Layer);
                            stack.push(layer.root.load(Ordering::Relaxed));
                        }
                        _ => {}
                    }
                }
            } else {
                let inner = &*(node as *const InnerNode);
                let n = inner.nkeys().min(FANOUT);
                for i in 0..=n {
                    stack.push(inner.child(i));
                }
            }
        }
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let root = *self.root.root.get_mut();
        // SAFETY: `&mut self` guarantees exclusive access to the whole tree.
        unsafe { free_suffixes(root) };
        let retired = std::mem::take(
            self.retired
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for suffix in retired {
            // SAFETY: conversion displaced these buffers; nothing can reach
            // them once the tree's nodes are gone.
            unsafe { KeyBuf::free(suffix.0) };
        }
    }
}

impl std::fmt::Debug for Tree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tree").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests;
