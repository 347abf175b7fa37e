//! Node structures and low-level node operations for the Masstree-style
//! concurrent trie of B+-trees (paper §3, §4.6; Masstree §4).
//!
//! Every node starts with a [`NodeHeader`] containing a *version word*:
//!
//! ```text
//!  63                                    2   1    0
//! +----------------------------------------+----+----+
//! |          version counter               |LEAF|LOCK|
//! +----------------------------------------+----+----+
//! ```
//!
//! * `LOCK` — held by a writer while it modifies the node.
//! * `LEAF` — immutable node-kind flag (set for leaf nodes).
//! * counter — incremented on every *structural* change: key inserted or
//!   removed in a leaf, a suffix entry converted into a trie-layer pointer,
//!   node split, separator installed in an interior node.
//!
//! Readers never write to nodes: they read the version, read the node
//! contents, and re-check the version (the Masstree/OLFIT discipline). The
//! version counter is exactly what Silo's node-set validation records for
//! phantom protection.
//!
//! # Keyslices
//!
//! Keys are compared 8 bytes at a time as big-endian `u64` *keyslices* stored
//! **inline** in the nodes (Masstree §4.2): descent and leaf search never
//! chase a pointer for keys of at most 8 bytes (per trie layer). A leaf entry
//! is `(slice, klen, value, suffix)` where `klen` is:
//!
//! * `0..=8` — the key ends in this layer after `klen` bytes; `slice` holds
//!   the bytes zero-padded, `suffix` is unused.
//! * [`KLEN_SUFFIX`] — the key continues past the slice; the remaining bytes
//!   live out-of-line in a [`KeyBuf`].
//! * [`KLEN_LAYER`] — several keys continue past this slice; `value` points
//!   to the next trie layer (a whole B+-tree keyed on the next 8 bytes).
//!
//! Entries are ordered by `(slice, min(klen, 9))`: among keys sharing a
//! slice, shorter keys sort first, and the suffix/layer bucket (of which a
//! leaf holds at most one per slice) sorts last — which is exactly byte
//! order of the original keys. Because at most 10 distinct entries can share
//! one slice, a full leaf of [`LEAF_WIDTH`] entries always has a slice
//! boundary to split at, so entries with equal slices never straddle leaves
//! and interior nodes can route on the slice alone.
//!
//! # Permutation-ordered leaves
//!
//! Leaf entries live in fixed slots and are ordered by a packed 64-bit
//! *permutation* word (Masstree §4.6.2, 4 bits of count + 15 × 4-bit slot
//! indices): an insert writes a free slot and publishes a new permutation
//! with a single atomic store instead of shifting arrays while readers
//! retry. Freed slots go to the back of the free list so they are reused as
//! late as possible.
//!
//! Interior nodes use the same permutation word for their separator slices
//! (since PR 6): installing a separator writes one key slot and one child
//! slot and publishes a new permutation with a single store, instead of
//! shifting up to 15 keys and 16 children while readers spin on the locked
//! version — the writer-side version-bump window shrinks to two stores.
//!
//! Every leaf probe — optimistic point lookups, lock-holding inserts and
//! splits alike — is [`LeafNode::search`]: a walk of the permutation in key
//! order that stops at the first slot at or past the probe.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};

use silo_epoch::shared_write_audit;

use crate::slab::Slab;

/// Maximum number of entries per leaf (limited by the 64-bit permutation
/// word: 4 bits of count plus 15 slot indices).
pub const LEAF_WIDTH: usize = 15;

/// Maximum number of separator keyslices per interior node
/// (`FANOUT + 1` children).
pub const FANOUT: usize = 15;

/// `klen` value marking an entry whose key continues past the slice with the
/// remainder stored out-of-line in a [`KeyBuf`].
pub const KLEN_SUFFIX: u8 = 9;

/// `klen` value marking an entry whose value is a pointer to the next trie
/// layer.
pub const KLEN_LAYER: u8 = 10;

/// Collapses a stored `klen` into its ordering class: inline lengths order
/// by length, and the suffix/layer bucket (there is at most one per slice)
/// orders after every inline entry of the same slice.
#[inline(always)]
pub fn klen_class(klen: u8) -> u8 {
    klen.min(KLEN_SUFFIX)
}

/// Lock bit of the node version word.
pub const NODE_LOCK_BIT: u64 = 1;
/// Leaf-flag bit of the node version word (immutable).
pub const NODE_LEAF_BIT: u64 = 1 << 1;
/// Increment applied to the version counter on each structural change.
pub const NODE_VERSION_INC: u64 = 1 << 2;

/// Prefetches the five cache lines `[0, 320)` of a node into L1: a whole
/// interior node, and the part of a leaf a probe reads (everything before
/// `suffixes`). Nodes are cache-line aligned in their tree's slab, so five
/// lines cover exactly that range.
///
/// Descent knows the child it will visit one hop in advance; issuing the
/// prefetch before validating the parent overlaps the memory latency with
/// the version re-check (paper §3: Masstree "prefetches the next tree node
/// while descending").
#[inline(always)]
pub fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        if ptr.is_null() {
            return;
        }
        // SAFETY: prefetch is a hint; it cannot fault even on dangling
        // addresses, and `ptr` refers to a live node here anyway.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let p = ptr as *const i8;
            _mm_prefetch::<_MM_HINT_T0>(p);
            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(64));
            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(128));
            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(192));
            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(256));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

// What `prefetch` covers: a leaf's probe set and a whole interior node.
const _: () = assert!(
    std::mem::offset_of!(LeafNode, suffixes) <= 320 && std::mem::size_of::<InnerNode>() <= 320
);

/// Prefetches a single cache line. For small objects reached through scan
/// cursors (record headers behind value words, suffix buffers) the 5-line
/// node prefetch of `prefetch` would cost five prefetch slots and pollute
/// the L1 with lines the scan never touches.
#[inline(always)]
pub fn prefetch_line<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        if ptr.is_null() {
            return;
        }
        // SAFETY: prefetch is a hint; it cannot fault even on dangling
        // addresses.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(ptr as *const i8);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

/// Extracts the keyslice and ordering class of the key *remainder* `rem`
/// (the key bytes from the current trie layer on): the first 8 bytes
/// big-endian (zero-padded), and `rem.len()` capped at [`KLEN_SUFFIX`].
///
/// Big-endian packing makes `u64` comparison agree with byte-string
/// comparison of the slices, which is the whole trick (§3).
#[inline(always)]
pub fn keyslice(rem: &[u8]) -> (u64, u8) {
    if rem.len() >= 8 {
        let slice = u64::from_be_bytes(rem[..8].try_into().expect("8 bytes"));
        let class = if rem.len() == 8 { 8 } else { KLEN_SUFFIX };
        (slice, class)
    } else {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        (u64::from_be_bytes(buf), rem.len() as u8)
    }
}

/// An immutable, heap-allocated key-suffix buffer.
///
/// `KeyBuf`s are never mutated after construction, so concurrent readers may
/// dereference them freely; the only hazard is deallocation, which callers
/// must defer via epoch-based reclamation.
#[derive(Debug)]
pub struct KeyBuf {
    bytes: Box<[u8]>,
}

impl KeyBuf {
    /// Allocates a new buffer holding a copy of `bytes` and leaks it,
    /// returning the raw pointer that node slots store.
    pub fn allocate(bytes: &[u8]) -> *mut KeyBuf {
        Box::into_raw(Box::new(KeyBuf {
            bytes: bytes.to_vec().into_boxed_slice(),
        }))
    }

    /// The stored bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Frees a buffer previously produced by [`KeyBuf::allocate`].
    ///
    /// # Safety
    ///
    /// `ptr` must have been returned by [`KeyBuf::allocate`], must not have
    /// been freed already, and no thread may dereference it afterwards (i.e.
    /// the call must be deferred past a grace period if the buffer was ever
    /// published in a node).
    pub unsafe fn free(ptr: *mut KeyBuf) {
        debug_assert!(!ptr.is_null());
        // SAFETY: forwarded from the caller's contract.
        unsafe { drop(Box::from_raw(ptr)) };
    }
}

// ---------------------------------------------------------------------------
// Permutation word
// ---------------------------------------------------------------------------

/// A packed leaf permutation: bits `[0, 4)` hold the entry count `n`, bits
/// `[4 + 4i, 8 + 4i)` hold the slot index stored at position `i`. Positions
/// `0..n` list the active slots in sorted key order; positions `n..15` are
/// the free list (every slot index appears exactly once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Permutation(u64);

impl Permutation {
    /// The nibble list of every identity permutation (`slot(p) == p` for all
    /// 15 positions), i.e. `raw() >> 4` of [`Permutation::empty`] and of
    /// [`Permutation::identity`] for any count. Comparing a permutation's
    /// shifted word against this constant is a one-instruction test for
    /// "rank order equals physical slot order over the dense prefix".
    pub const IDENTITY_TAIL: u64 = 0x0EDC_BA98_7654_3210;

    /// The empty permutation: no active entries, free list `0, 1, …, 14`.
    pub fn empty() -> Permutation {
        let mut word = 0u64;
        for i in 0..LEAF_WIDTH as u64 {
            word |= i << (4 + 4 * i);
        }
        Permutation(word)
    }

    /// Rebuilds a permutation from a raw word (as loaded from a leaf).
    #[inline(always)]
    pub fn from_raw(word: u64) -> Permutation {
        Permutation(word)
    }

    /// The raw word (as stored in a leaf).
    #[inline(always)]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Number of active entries.
    #[inline(always)]
    pub fn count(self) -> usize {
        (self.0 & 0xF) as usize
    }

    /// The slot index stored at position `pos` (active for `pos < count()`).
    #[inline(always)]
    pub fn slot(self, pos: usize) -> usize {
        ((self.0 >> (4 + 4 * pos)) & 0xF) as usize
    }

    fn to_slots(self) -> [u8; LEAF_WIDTH] {
        let mut slots = [0u8; LEAF_WIDTH];
        for (p, s) in slots.iter_mut().enumerate() {
            *s = self.slot(p) as u8;
        }
        slots
    }

    fn from_slots(slots: [u8; LEAF_WIDTH], count: usize) -> Permutation {
        let mut word = count as u64;
        for (p, s) in slots.iter().enumerate() {
            word |= (*s as u64) << (4 + 4 * p);
        }
        Permutation(word)
    }

    /// Returns the permutation with the first free slot inserted at `rank`,
    /// plus the chosen slot index. The caller writes the entry into the slot
    /// *before* publishing the returned permutation.
    pub fn insert_at(self, rank: usize) -> (Permutation, usize) {
        let n = self.count();
        debug_assert!(rank <= n && n < LEAF_WIDTH);
        let mut slots = self.to_slots();
        let free = slots[n];
        let mut p = n;
        while p > rank {
            slots[p] = slots[p - 1];
            p -= 1;
        }
        slots[rank] = free;
        (Permutation::from_slots(slots, n + 1), free as usize)
    }

    /// Returns the permutation with the entry at `rank` removed (its slot
    /// moved to the very back of the free list, so it is reused as late as
    /// possible), plus the freed slot index.
    pub fn remove_at(self, rank: usize) -> (Permutation, usize) {
        let n = self.count();
        debug_assert!(rank < n);
        let mut slots = self.to_slots();
        let freed = slots[rank];
        for p in rank..LEAF_WIDTH - 1 {
            slots[p] = slots[p + 1];
        }
        slots[LEAF_WIDTH - 1] = freed;
        (Permutation::from_slots(slots, n - 1), freed as usize)
    }

    /// Returns the permutation truncated to its first `count` entries (used
    /// by splits: the moved upper ranks become the new free region).
    pub fn truncated(self, count: usize) -> Permutation {
        debug_assert!(count <= self.count());
        Permutation((self.0 & !0xF) | count as u64)
    }

    /// The identity permutation (`slot(i) == i`) with the given active
    /// count — what a split publishes in a freshly filled right sibling.
    pub fn identity(count: usize) -> Permutation {
        debug_assert!(count <= LEAF_WIDTH);
        Permutation((Permutation::empty().0 & !0xF) | count as u64)
    }
}

// ---------------------------------------------------------------------------
// Node header
// ---------------------------------------------------------------------------

/// Common header shared by leaf and interior nodes. `#[repr(C)]` with the
/// header first lets us cast a `*mut NodeHeader` to the concrete node type
/// once the LEAF bit has been inspected.
#[repr(C)]
#[derive(Debug)]
pub struct NodeHeader {
    version: AtomicU64,
}

impl NodeHeader {
    fn new(is_leaf: bool) -> Self {
        let v = if is_leaf { NODE_LEAF_BIT } else { 0 };
        NodeHeader {
            version: AtomicU64::new(v),
        }
    }

    /// Loads the raw version word (may include the lock bit).
    #[inline(always)]
    pub fn version_raw(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Spins until the lock bit is clear and returns the observed version
    /// word (lock bit clear).
    pub fn stable_version(&self) -> u64 {
        let mut spins = 0u32;
        loop {
            let v = self.version.load(Ordering::Acquire);
            if v & NODE_LOCK_BIT == 0 {
                return v;
            }
            spins = spins.wrapping_add(1);
            if spins % 128 == 0 {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }

    /// Whether this node is a leaf.
    #[inline(always)]
    pub fn is_leaf(&self) -> bool {
        self.version.load(Ordering::Relaxed) & NODE_LEAF_BIT != 0
    }

    /// Acquires the node's write lock (spinning).
    pub fn lock(&self) {
        let mut spins = 0u32;
        loop {
            let v = self.version.load(Ordering::Relaxed);
            if v & NODE_LOCK_BIT == 0
                && self
                    .version
                    .compare_exchange_weak(
                        v,
                        v | NODE_LOCK_BIT,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                // Every node mutation starts here: one audit note covers the
                // whole locked section (reads-write-nothing rule, §3).
                shared_write_audit::note();
                return;
            }
            spins = spins.wrapping_add(1);
            if spins % 128 == 0 {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }

    /// Attempts to atomically upgrade an optimistic read into the write lock:
    /// succeeds only if the version word still equals `expected_version`
    /// (which must not have the lock bit set). On success the caller holds
    /// the lock and knows the node has not changed since it was read.
    pub fn try_upgrade_lock(&self, expected_version: u64) -> bool {
        debug_assert_eq!(expected_version & NODE_LOCK_BIT, 0);
        let locked = self
            .version
            .compare_exchange(
                expected_version,
                expected_version | NODE_LOCK_BIT,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok();
        if locked {
            // See `lock()`: one audit note per acquired node lock.
            shared_write_audit::note();
        }
        locked
    }

    /// Releases the write lock without changing the version counter (the node
    /// was locked but not structurally modified).
    pub fn unlock(&self) {
        let v = self.version.load(Ordering::Relaxed);
        debug_assert!(v & NODE_LOCK_BIT != 0);
        self.version.store(v & !NODE_LOCK_BIT, Ordering::Release);
    }

    /// Releases the write lock and increments the version counter (the node
    /// was structurally modified). Returns the new (unlocked) version word.
    pub fn unlock_with_increment(&self) -> u64 {
        let v = self.version.load(Ordering::Relaxed);
        debug_assert!(v & NODE_LOCK_BIT != 0);
        let new = (v & !NODE_LOCK_BIT) + NODE_VERSION_INC;
        self.version.store(new, Ordering::Release);
        new
    }
}

// ---------------------------------------------------------------------------
// Interior nodes
// ---------------------------------------------------------------------------

/// An interior (routing) node: up to [`FANOUT`] separator keyslices — stored
/// inline as `u64`s in fixed slots, so routing is pure register compares —
/// ordered by a packed [`Permutation`] word, plus `nkeys + 1` children.
///
/// In rank order, the child *before* the rank-0 separator is `child0`; the
/// child *after* the rank-`i` separator is `rights[perm.slot(i)]` (each key
/// slot carries its right child in the matching child slot). Installing a
/// separator therefore writes one key slot and one child slot and publishes
/// a new permutation with a **single atomic store** — optimistic readers see
/// either the old or the new routing table, never a mid-shift state, and the
/// writer's version-bump window shrinks from a 15-element array shift to two
/// stores. (The version still bumps: a reader that routed by the old table
/// must retry, because the old left child no longer covers the split-off
/// range.)
/// Dense-slot invariant: the active key slots are exactly `0..nkeys`.
/// Separators are never removed individually, [`Permutation::insert_at`]
/// hands out free slots in ascending order (every interior permutation
/// descends from `empty()`/`identity()`, whose free regions list `n..14`
/// in order), and [`InnerNode::split`] compacts the surviving lower half
/// back into slots `0..mid`. [`InnerNode::route_at`] relies on this to
/// route by *counting* over the dense prefix instead of chasing
/// permutation nibbles — see its docs. As a debugging aid the free tail
/// `nkeys..` additionally always holds `u64::MAX`.
#[repr(C)]
pub struct InnerNode {
    /// Version word (see [`NodeHeader`]).
    pub header: NodeHeader,
    /// Separator ordering, same packed format as leaf permutations.
    permutation: AtomicU64,
    /// Separator keyslices. Directly after the header words so the first
    /// cache line holds the version, the permutation, and the first six
    /// separators — the whole hot read set of a sorted-scan route.
    keys: [AtomicU64; FANOUT],
    /// The leftmost child: covers slices below the rank-0 separator.
    ///
    /// `child0` is deliberately laid out immediately before `rights`
    /// (`repr(C)`, both 8-aligned, no padding), so the two form one
    /// contiguous 16-pointer array: routing index `idx` maps to the pointer
    /// at `(&child0).add(idx)`. [`InnerNode::child_at`] indexes that way on
    /// the identity-permutation fast path, exactly like a shifting design's
    /// `children[idx]` — no branch on `idx == 0`, no nibble extraction.
    child0: AtomicPtr<NodeHeader>,
    /// `rights[s]` is the child to the right of the separator in key slot
    /// `s` (covers slices `≥ keys[s]` up to the next separator).
    rights: [AtomicPtr<NodeHeader>; FANOUT],
}

impl InnerNode {
    /// Places a new empty interior node in `slab`, which owns it from then
    /// on.
    pub fn allocate(slab: &Slab) -> *mut InnerNode {
        slab.place(InnerNode {
            header: NodeHeader::new(false),
            permutation: AtomicU64::new(Permutation::empty().raw()),
            child0: AtomicPtr::new(std::ptr::null_mut()),
            keys: [const { AtomicU64::new(u64::MAX) }; FANOUT],
            rights: [const { AtomicPtr::new(std::ptr::null_mut()) }; FANOUT],
        })
    }

    /// The current separator permutation word.
    #[inline(always)]
    pub fn permutation(&self) -> Permutation {
        Permutation::from_raw(self.permutation.load(Ordering::Acquire))
    }

    /// Number of separator slices currently in the node.
    #[inline(always)]
    pub fn nkeys(&self) -> usize {
        self.permutation().count()
    }

    /// The child pointer at routing index `idx` (0 = leftmost) under a fresh
    /// permutation snapshot. Prefer [`InnerNode::child_at`] when the caller
    /// already holds a snapshot from [`InnerNode::route_at`].
    #[inline(always)]
    pub fn child(&self, idx: usize) -> *mut NodeHeader {
        self.child_at(self.permutation(), idx)
    }

    /// The child pointer at routing index `idx` under the permutation
    /// snapshot `perm`.
    ///
    /// When `perm` is an identity permutation (always true after a
    /// sequential build or a split, see [`Permutation::IDENTITY_TAIL`]),
    /// slot `idx - 1` *is* `idx - 1`, and `child0`/`rights` are contiguous —
    /// so the child is a single indexed load off the routing index. That
    /// keeps the descent's serialized child-address chain as short as a
    /// plain sorted-array `children[idx]` fetch: no nibble extraction, no
    /// `idx == 0` branch. The compiler CSEs the identity test with the one
    /// in [`InnerNode::route_at`] when both run on the same snapshot.
    #[inline(always)]
    pub fn child_at(&self, perm: Permutation, idx: usize) -> *mut NodeHeader {
        if perm.raw() >> 4 == Permutation::IDENTITY_TAIL {
            debug_assert!(idx <= FANOUT);
            // SAFETY: `child0` and `rights` are adjacent `repr(C)` fields of
            // the same type with no padding between them (both 8-byte
            // aligned), forming 16 contiguous `AtomicPtr`s; `idx` is a
            // routing index, bounded by the permutation count (≤ 15).
            let base = &raw const self.child0;
            return unsafe { (*base.add(idx)).load(Ordering::Acquire) };
        }
        if idx == 0 {
            self.child0.load(Ordering::Acquire)
        } else {
            self.rights[perm.slot(idx - 1)].load(Ordering::Acquire)
        }
    }

    /// Finds the routing index of the child that covers `slice` under a
    /// fresh permutation snapshot.
    #[inline(always)]
    pub fn route(&self, slice: u64) -> usize {
        self.route_at(self.permutation(), slice)
    }

    /// Finds the routing index of the child that covers `slice` under the
    /// permutation snapshot `perm`.
    ///
    /// Works both under the node lock and optimistically (in the latter case
    /// the result is only meaningful if the version validates afterwards).
    ///
    /// The scan walks separators in rank order and exits at the first one
    /// `> slice`. The early exit is deliberately a *predictable branch*
    /// rather than a branchless count: descents serialize on the routed
    /// child address, and a branchy exit lets the CPU speculate the child
    /// load several levels deep (memory-level parallelism a `cmp/sbb`
    /// accumulator chain forfeits — measured ~10% on value-chasing reads).
    ///
    /// Fast path: a node whose permutation is the *identity* (rank `r` in
    /// slot `r` — one register compare against [`Permutation::IDENTITY_TAIL`])
    /// is physically sorted over its dense prefix, so the scan indexes
    /// `keys[idx]` directly with zero per-step permutation work — exactly
    /// the sorted-array loop of a shifting design, without the shifting.
    /// Freshly split nodes (compaction rebuilds rank order — see
    /// [`InnerNode::split`]) and nodes only ever appended to on the right
    /// (sequential loads, monotonic workloads) keep identity permutations,
    /// so this is the overwhelmingly common case. Mid-rank inserts break
    /// identity until the next split and take the counting fallback.
    ///
    /// Fallback: for a non-identity permutation, the dense-slot invariant
    /// (active slots are exactly `0..n`, in *some* order) means the routing
    /// index is simply the number of active separators `≤ slice` — so the
    /// fallback counts over `keys[0..n]` without touching the permutation
    /// word at all. That compiles to a short `cmp/sbb` accumulator over
    /// adjacent slots instead of a serial nibble-extract chain
    /// (`shr %cl` + dependent gather per rank), which matters on
    /// insert-heavy workloads (e.g. TPC-C) where interleaved key ranges
    /// keep interior permutations out of identity form between splits.
    ///
    /// Under a *stale* permutation snapshot the result is still exact for
    /// that snapshot's separator set: the scan only reads slots the
    /// snapshot references, and slots are never rewritten outside a split.
    /// A reader can still race a splitting writer mid-compaction and see
    /// torn slices — the same torn-route hazard the optimistic protocol
    /// already handles: interior writers hold the node lock and unlock with
    /// a version increment, so the descent's version re-check
    /// (`Layer::find_leaf`) discards any route that overlapped a writer.
    #[inline(always)]
    pub fn route_at(&self, perm: Permutation, slice: u64) -> usize {
        let n = perm.count();
        let mut idx = 0usize;
        if perm.raw() >> 4 == Permutation::IDENTITY_TAIL {
            while idx < n && slice >= self.keys[idx].load(Ordering::Acquire) {
                idx += 1;
            }
            return idx;
        }
        // Dense-slot invariant: counting matches over the unordered dense
        // prefix yields the rank directly. A torn read under a racing
        // writer can only produce a route the version re-check throws away.
        for slot in 0..n {
            idx += usize::from(slice >= self.keys[slot].load(Ordering::Acquire));
        }
        idx
    }

    /// Inserts separator `slice` with right child `right` at rank `rank`
    /// (the routing index returned by [`InnerNode::route`] for `slice`).
    /// Writes one free key slot and its child slot, then publishes the new
    /// permutation with a single store. Caller must hold the node lock and
    /// guarantee the node is not full.
    pub fn insert_separator(&self, rank: usize, slice: u64, right: *mut NodeHeader) {
        let perm = self.permutation();
        debug_assert!(perm.count() < FANOUT && rank <= perm.count());
        let (new_perm, slot) = perm.insert_at(rank);
        self.keys[slot].store(slice, Ordering::Release);
        self.rights[slot].store(right, Ordering::Release);
        // The permutation store publishes the separator: readers that see
        // the new word also see the slot contents (release/acquire pairing
        // on the word).
        self.permutation.store(new_perm.raw(), Ordering::Release);
    }

    /// Initializes a fresh root with a single separator and two children.
    /// Caller owns the node exclusively.
    pub fn init_root(&self, slice: u64, left: *mut NodeHeader, right: *mut NodeHeader) {
        let (perm, slot) = Permutation::empty().insert_at(0);
        self.keys[slot].store(slice, Ordering::Release);
        self.child0.store(left, Ordering::Release);
        self.rights[slot].store(right, Ordering::Release);
        self.permutation.store(perm.raw(), Ordering::Release);
    }

    /// Whether inserting one more separator would overflow the node.
    pub fn is_full(&self) -> bool {
        self.nkeys() >= FANOUT
    }

    /// Splits this (full, locked) node: the upper half of the separators and
    /// children move to a freshly allocated right sibling, and the middle
    /// separator is *promoted* (returned) for insertion into the parent.
    ///
    /// Returns `(promoted_slice, right_sibling)`. The caller must hold this
    /// node's lock; the right sibling is returned locked so the caller can
    /// publish it before any other writer touches it.
    pub fn split(&self, slab: &Slab) -> (u64, *mut InnerNode) {
        let perm = self.permutation();
        let n = perm.count();
        debug_assert_eq!(n, FANOUT);
        let mid = n / 2;
        let right = InnerNode::allocate(slab);
        // SAFETY: freshly allocated, exclusively owned until published.
        let right_ref = unsafe { &*right };
        right_ref.header.lock();
        let promoted = self.keys[perm.slot(mid)].load(Ordering::Relaxed);
        // The promoted separator's right child becomes the sibling's
        // leftmost child.
        right_ref.child0.store(
            self.rights[perm.slot(mid)].load(Ordering::Relaxed),
            Ordering::Release,
        );
        let mut j = 0;
        for rank in (mid + 1)..n {
            let slot = perm.slot(rank);
            right_ref.keys[j].store(self.keys[slot].load(Ordering::Relaxed), Ordering::Release);
            right_ref.rights[j].store(self.rights[slot].load(Ordering::Relaxed), Ordering::Release);
            j += 1;
        }
        right_ref
            .permutation
            .store(Permutation::identity(j).raw(), Ordering::Release);
        // Compact the surviving lower half into slots `0..mid` in rank
        // order, restoring the dense-slots invariant `route_at` counts on
        // (a plain truncate would leave the survivors scattered). We hold
        // the lock and will unlock with a version increment, so readers
        // racing the rewrite are discarded by their version re-check like
        // any other torn route.
        let mut low_keys = [0u64; FANOUT];
        let mut low_rights = [std::ptr::null_mut(); FANOUT];
        for (rank, (k, r)) in low_keys
            .iter_mut()
            .zip(&mut low_rights)
            .enumerate()
            .take(mid)
        {
            let slot = perm.slot(rank);
            *k = self.keys[slot].load(Ordering::Relaxed);
            *r = self.rights[slot].load(Ordering::Relaxed);
        }
        for (slot, (k, r)) in low_keys.iter().zip(&low_rights).enumerate().take(mid) {
            self.keys[slot].store(*k, Ordering::Release);
            self.rights[slot].store(*r, Ordering::Release);
        }
        // Re-poison the freed tail so free slots keep holding `u64::MAX`.
        for slot in mid..FANOUT {
            self.keys[slot].store(u64::MAX, Ordering::Release);
        }
        self.permutation
            .store(Permutation::identity(mid).raw(), Ordering::Release);
        (promoted, right)
    }
}

// ---------------------------------------------------------------------------
// Leaf nodes
// ---------------------------------------------------------------------------

/// Outcome of searching a leaf for a `(slice, class)` key position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafSearch {
    /// An entry with the same `(slice, class)` exists: its rank in the
    /// permutation order and its storage slot.
    Found {
        /// Position in the sorted permutation order.
        rank: usize,
        /// Storage slot holding the entry.
        slot: usize,
    },
    /// No such entry; it would belong at the given rank.
    NotFound {
        /// Insertion position in the sorted permutation order.
        rank: usize,
    },
}

/// [`LeafNode::last_insert`] when no insert is remembered.
const NO_SLOT: u8 = u8::MAX;

/// A leaf node: up to [`LEAF_WIDTH`] entries in fixed slots, ordered by the
/// permutation word, plus a B-link pointer to the right sibling leaf. Field
/// order keeps the search-relevant arrays (`slices`, `klens`) in the first
/// cache lines.
#[repr(C)]
pub struct LeafNode {
    /// Version word (see [`NodeHeader`]).
    pub header: NodeHeader,
    permutation: AtomicU64,
    slices: [AtomicU64; LEAF_WIDTH],
    klens: [AtomicU8; LEAF_WIDTH],
    /// Slot of the entry most recently inserted into this leaf, or
    /// [`NO_SLOT`]: how [`LeafNode::split`] recognises keys arriving in
    /// order. Read and written under the leaf lock only; it occupies the
    /// byte of padding after `klens`, so the node is no larger for it.
    last_insert: AtomicU8,
    next: AtomicPtr<LeafNode>,
    values: [AtomicU64; LEAF_WIDTH],
    suffixes: [AtomicPtr<KeyBuf>; LEAF_WIDTH],
}

impl LeafNode {
    /// Places a new empty leaf in `slab`, which owns it from then on.
    pub fn allocate(slab: &Slab) -> *mut LeafNode {
        slab.place(LeafNode {
            header: NodeHeader::new(true),
            permutation: AtomicU64::new(Permutation::empty().raw()),
            slices: [const { AtomicU64::new(0) }; LEAF_WIDTH],
            klens: [const { AtomicU8::new(0) }; LEAF_WIDTH],
            last_insert: AtomicU8::new(NO_SLOT),
            next: AtomicPtr::new(std::ptr::null_mut()),
            values: [const { AtomicU64::new(0) }; LEAF_WIDTH],
            suffixes: [const { AtomicPtr::new(std::ptr::null_mut()) }; LEAF_WIDTH],
        })
    }

    /// The current permutation word.
    #[inline(always)]
    pub fn permutation(&self) -> Permutation {
        Permutation::from_raw(self.permutation.load(Ordering::Acquire))
    }

    /// Publishes a new permutation. Caller must hold the leaf lock.
    #[inline(always)]
    pub fn set_permutation(&self, perm: Permutation) {
        self.permutation.store(perm.raw(), Ordering::Release);
    }

    /// The keyslice stored in `slot`.
    #[inline(always)]
    pub fn slice(&self, slot: usize) -> u64 {
        self.slices[slot].load(Ordering::Acquire)
    }

    /// The `klen` stored in `slot` (`0..=8`, [`KLEN_SUFFIX`] or
    /// [`KLEN_LAYER`]).
    #[inline(always)]
    pub fn klen(&self, slot: usize) -> u8 {
        self.klens[slot].load(Ordering::Acquire)
    }

    /// The value stored in `slot` (a record pointer, or a trie-layer pointer
    /// when `klen == KLEN_LAYER`).
    #[inline(always)]
    pub fn value(&self, slot: usize) -> u64 {
        self.values[slot].load(Ordering::Acquire)
    }

    /// The suffix buffer stored in `slot` (meaningful for
    /// `klen == KLEN_SUFFIX`).
    #[inline(always)]
    pub fn suffix(&self, slot: usize) -> *mut KeyBuf {
        self.suffixes[slot].load(Ordering::Acquire)
    }

    /// Atomically overwrites the value in `slot`. Caller must hold the leaf
    /// lock so the slot cannot be recycled underneath it.
    pub fn set_value(&self, slot: usize, value: u64) {
        self.values[slot].store(value, Ordering::Release);
    }

    /// The right sibling leaf (B-link pointer).
    #[inline(always)]
    pub fn next(&self) -> *mut LeafNode {
        self.next.load(Ordering::Acquire)
    }

    /// Searches the leaf (under the permutation snapshot `perm`) for an
    /// entry with the given slice and ordering class.
    ///
    /// Under the leaf lock the result is exact; optimistic readers must
    /// validate the leaf version afterwards. For `class <= 8` a `Found`
    /// result identifies the key completely (equal slice + equal length ⇒
    /// equal bytes); for `class == 9` it identifies the slice's suffix/layer
    /// bucket, which the caller disambiguates via [`LeafNode::klen`].
    #[inline]
    pub fn search(&self, perm: Permutation, slice: u64, class: u8) -> LeafSearch {
        let n = perm.count();
        for rank in 0..n {
            let slot = perm.slot(rank);
            let es = self.slices[slot].load(Ordering::Acquire);
            if es < slice {
                continue;
            }
            if es > slice {
                return LeafSearch::NotFound { rank };
            }
            let ec = klen_class(self.klens[slot].load(Ordering::Acquire));
            if ec < class {
                continue;
            }
            if ec > class {
                return LeafSearch::NotFound { rank };
            }
            return LeafSearch::Found { rank, slot };
        }
        LeafSearch::NotFound { rank: n }
    }

    /// Writes a full entry into `slot` and publishes the permutation placing
    /// it at `rank`. Caller must hold the leaf lock and pass the current
    /// permutation; the leaf must not be full. Returns the new permutation.
    pub fn insert_entry(
        &self,
        perm: Permutation,
        rank: usize,
        slice: u64,
        klen: u8,
        suffix: *mut KeyBuf,
        value: u64,
    ) -> Permutation {
        let (new_perm, slot) = perm.insert_at(rank);
        self.slices[slot].store(slice, Ordering::Release);
        self.klens[slot].store(klen, Ordering::Release);
        self.suffixes[slot].store(suffix, Ordering::Release);
        self.values[slot].store(value, Ordering::Release);
        self.last_insert.store(slot as u8, Ordering::Relaxed);
        // The permutation store publishes the slot: readers that see the new
        // word also see the entry fields (release/acquire on the word).
        self.set_permutation(new_perm);
        new_perm
    }

    /// Removes the entry at `rank`, publishing the shrunken permutation.
    /// Returns `(klen, suffix, value)` of the removed entry; ownership of a
    /// non-null suffix passes to the caller, which must defer its
    /// destruction past a grace period. Caller must hold the leaf lock. The
    /// slot's contents are intentionally left in place: readers holding the
    /// old permutation can still load them consistently.
    pub fn remove_entry(&self, perm: Permutation, rank: usize) -> (u8, *mut KeyBuf, u64) {
        let (new_perm, slot) = perm.remove_at(rank);
        let klen = self.klens[slot].load(Ordering::Relaxed);
        let suffix = self.suffixes[slot].load(Ordering::Relaxed);
        let value = self.values[slot].load(Ordering::Relaxed);
        self.set_permutation(new_perm);
        (klen, suffix, value)
    }

    /// Converts the suffix entry in `slot` into a trie-layer pointer: the
    /// value becomes `layer` and the `klen` becomes [`KLEN_LAYER`]. Returns
    /// the displaced suffix buffer, whose destruction the caller must defer
    /// (concurrent readers holding the old `(klen, suffix)` pair may still
    /// dereference it). Caller must hold the leaf lock.
    ///
    /// Store order matters for lock-free readers: the value is written
    /// before the `klen`, so a reader that observes `KLEN_LAYER` is
    /// guaranteed to load the layer pointer (release on `klen`, acquire on
    /// the reader's `klen` load). A reader that instead observes the *old*
    /// `klen` with the *new* value returns a garbage `u64` — which the leaf
    /// version re-check (the conversion increments it) discards before the
    /// caller can dereference anything.
    pub fn convert_to_layer(&self, slot: usize, layer: u64) -> *mut KeyBuf {
        debug_assert_eq!(self.klens[slot].load(Ordering::Relaxed), KLEN_SUFFIX);
        let suffix = self.suffixes[slot].load(Ordering::Relaxed);
        self.values[slot].store(layer, Ordering::Release);
        self.klens[slot].store(KLEN_LAYER, Ordering::Release);
        suffix
    }

    /// Whether inserting one more entry would overflow the leaf.
    pub fn is_full(&self) -> bool {
        self.permutation().count() >= LEAF_WIDTH
    }

    /// Splits this (full, locked) leaf at a slice boundary: the upper ranks
    /// move to a freshly allocated right sibling which is linked into the
    /// B-link chain. Entries sharing a slice never straddle the boundary —
    /// always possible because at most 10 entries can share a slice — so the
    /// parent can route on the separator slice alone.
    ///
    /// `rank` is where the key whose insertion forced the split belongs. If
    /// the entry just before it is the one this leaf received last, keys are
    /// arriving in order, and they will keep arriving right there: a
    /// half-half split would leave every left leaf half empty for good, so
    /// the split is made at the insertion point instead and the left leaf
    /// stays full. At the right edge of the leaf that is Masstree's append
    /// rule; recognising the run by the leaf's last insert rather than by
    /// the edge also covers a run that ends in the middle of the key space
    /// (one loader's range below another's, each TPC-C district's orders
    /// below the next district's) and leaves a leaf filled in no particular
    /// order to split in the middle wherever its last key fell.
    ///
    /// Returns `(separator_slice, right_sibling)`; the separator equals the
    /// right sibling's first slice. The right sibling is returned locked.
    pub fn split(&self, rank: usize, slab: &Slab) -> (u64, *mut LeafNode) {
        let perm = self.permutation();
        let n = perm.count();
        debug_assert_eq!(n, LEAF_WIDTH);
        let in_order =
            rank > 0 && perm.slot(rank - 1) as u8 == self.last_insert.load(Ordering::Relaxed);
        // Pick the slice boundary closest to the insertion point of an
        // ordered run, else to the middle.
        let target = if in_order { rank } else { n / 2 };
        let mut boundary = 0usize;
        let mut best = usize::MAX;
        for j in 1..n {
            let prev = self.slices[perm.slot(j - 1)].load(Ordering::Relaxed);
            let cur = self.slices[perm.slot(j)].load(Ordering::Relaxed);
            if prev != cur {
                let dist = j.abs_diff(target);
                if dist < best {
                    best = dist;
                    boundary = j;
                }
            }
        }
        assert!(boundary > 0, "a full leaf always has a slice boundary");
        let right = LeafNode::allocate(slab);
        // SAFETY: freshly allocated, exclusively owned until published.
        let right_ref = unsafe { &*right };
        right_ref.header.lock();
        let mut j = 0;
        for rank in boundary..n {
            let slot = perm.slot(rank);
            right_ref.slices[j].store(self.slices[slot].load(Ordering::Relaxed), Ordering::Release);
            right_ref.klens[j].store(self.klens[slot].load(Ordering::Relaxed), Ordering::Release);
            // Ownership of suffix buffers moves to the right sibling; the
            // left slot keeps a stale copy, but it sits in the free region
            // after the truncation below, so only the right sibling ever
            // frees it.
            right_ref.suffixes[j].store(
                self.suffixes[slot].load(Ordering::Relaxed),
                Ordering::Release,
            );
            right_ref.values[j].store(self.values[slot].load(Ordering::Relaxed), Ordering::Release);
            j += 1;
        }
        // Identity permutation over the copied entries.
        right_ref.set_permutation(Permutation::identity(j));
        right_ref
            .next
            .store(self.next.load(Ordering::Relaxed), Ordering::Release);
        self.next.store(right, Ordering::Release);
        let sep = right_ref.slices[0].load(Ordering::Relaxed);
        // Truncating the permutation atomically retires the moved ranks:
        // their slots become the new free region. The remembered slot may
        // be among them.
        self.last_insert.store(NO_SLOT, Ordering::Relaxed);
        self.set_permutation(perm.truncated(boundary));
        (sep, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_lock_and_version_increment() {
        let h = NodeHeader::new(true);
        let v0 = h.stable_version();
        assert!(v0 & NODE_LEAF_BIT != 0);
        h.lock();
        assert!(h.version_raw() & NODE_LOCK_BIT != 0);
        let v1 = h.unlock_with_increment();
        assert_eq!(v1, v0 + NODE_VERSION_INC);
        h.lock();
        h.unlock();
        assert_eq!(h.stable_version(), v1);
    }

    #[test]
    fn keyslice_orders_like_bytes() {
        let keys: Vec<&[u8]> = vec![
            b"",
            b"\x00",
            b"\x00\x00",
            b"a",
            b"a\x00",
            b"ab",
            b"abcdefgh",
            b"abcdefghi",
            b"b",
            b"\xff",
        ];
        for w in keys.windows(2) {
            let (s0, c0) = keyslice(w[0]);
            let (s1, c1) = keyslice(w[1]);
            assert!(
                (s0, c0) <= (s1, c1),
                "slice order must follow byte order: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
        assert_eq!(keyslice(b"abcdefgh").1, 8);
        assert_eq!(keyslice(b"abcdefghi").1, KLEN_SUFFIX);
        assert_eq!(keyslice(b"").1, 0);
    }

    #[test]
    fn identity_tail_matches_constructors() {
        assert_eq!(Permutation::empty().raw() >> 4, Permutation::IDENTITY_TAIL);
        for n in 0..=LEAF_WIDTH {
            assert_eq!(
                Permutation::identity(n).raw() >> 4,
                Permutation::IDENTITY_TAIL
            );
        }
        // Rightmost appends preserve the identity tail; a mid-rank insert
        // breaks it (and with it the sorted-scan fast path in `route_at`).
        let mut perm = Permutation::empty();
        for rank in 0..4 {
            perm = perm.insert_at(rank).0;
            assert_eq!(perm.raw() >> 4, Permutation::IDENTITY_TAIL);
        }
        let (mid, _) = perm.insert_at(2);
        assert_ne!(mid.raw() >> 4, Permutation::IDENTITY_TAIL);
    }

    #[test]
    fn permutation_insert_remove_roundtrip() {
        let mut perm = Permutation::empty();
        assert_eq!(perm.count(), 0);
        // Insert slots at alternating ranks.
        let (p1, s1) = perm.insert_at(0);
        perm = p1;
        let (p2, s2) = perm.insert_at(0);
        perm = p2;
        let (p3, s3) = perm.insert_at(2);
        perm = p3;
        assert_eq!(perm.count(), 3);
        assert_ne!(s1, s2);
        assert_ne!(s2, s3);
        assert_eq!(perm.slot(0), s2);
        assert_eq!(perm.slot(1), s1);
        assert_eq!(perm.slot(2), s3);
        // Every slot index appears exactly once across the word.
        let mut seen = [false; LEAF_WIDTH];
        for p in 0..LEAF_WIDTH {
            let s = perm.slot(p);
            assert!(!seen[s]);
            seen[s] = true;
        }
        // Remove the middle entry; its slot goes to the very back.
        let (p4, freed) = perm.remove_at(1);
        assert_eq!(freed, s1);
        assert_eq!(p4.count(), 2);
        assert_eq!(p4.slot(0), s2);
        assert_eq!(p4.slot(1), s3);
        assert_eq!(p4.slot(LEAF_WIDTH - 1), s1);
    }

    #[test]
    fn permutation_freed_slots_reused_last() {
        let mut perm = Permutation::empty();
        for _ in 0..3 {
            perm = perm.insert_at(0).0;
        }
        let (after_remove, freed) = perm.remove_at(0);
        // The next two inserts must pick other free slots before the freed
        // one comes back around.
        let (p1, s1) = after_remove.insert_at(0);
        assert_ne!(s1, freed);
        let (_, s2) = p1.insert_at(0);
        assert_ne!(s2, freed);
    }

    #[test]
    fn leaf_insert_search_remove() {
        let slab = Slab::new();
        let leaf_ptr = LeafNode::allocate(&slab);
        // SAFETY: single-threaded exclusive access in this test.
        let leaf = unsafe { &*leaf_ptr };
        for (i, k) in [b"bb".as_ref(), b"dd", b"ff"].iter().enumerate() {
            let (slice, class) = keyslice(k);
            let perm = leaf.permutation();
            let rank = match leaf.search(perm, slice, class) {
                LeafSearch::NotFound { rank } => rank,
                LeafSearch::Found { .. } => panic!("unexpected"),
            };
            leaf.insert_entry(
                perm,
                rank,
                slice,
                class,
                std::ptr::null_mut(),
                i as u64 + 10,
            );
        }
        assert_eq!(leaf.permutation().count(), 3);
        let (slice, class) = keyslice(b"dd");
        match leaf.search(leaf.permutation(), slice, class) {
            LeafSearch::Found { rank, slot } => {
                assert_eq!(rank, 1);
                assert_eq!(leaf.value(slot), 11);
            }
            LeafSearch::NotFound { .. } => panic!("dd must be present"),
        }
        let (slice, class) = keyslice(b"cc");
        assert_eq!(
            leaf.search(leaf.permutation(), slice, class),
            LeafSearch::NotFound { rank: 1 }
        );
        let (_, suffix, value) = leaf.remove_entry(leaf.permutation(), 1);
        assert!(suffix.is_null());
        assert_eq!(value, 11);
        let (slice, class) = keyslice(b"dd");
        assert_eq!(
            leaf.search(leaf.permutation(), slice, class),
            LeafSearch::NotFound { rank: 1 }
        );
        assert_eq!(leaf.permutation().count(), 2);
    }

    #[test]
    fn leaf_orders_same_slice_by_length_then_bucket() {
        let slab = Slab::new();
        let leaf_ptr = LeafNode::allocate(&slab);
        // SAFETY: single-threaded exclusive access in this test.
        let leaf = unsafe { &*leaf_ptr };
        // "a", "a\0\0" (3 bytes), and a long key sharing the slice.
        let keys: [&[u8]; 3] = [b"a\x00\x00", b"a", b"a\x00\x00\x00\x00\x00\x00\x00xyz"];
        for (i, k) in keys.iter().enumerate() {
            let (slice, class) = keyslice(k);
            let suffix = if class == KLEN_SUFFIX {
                KeyBuf::allocate(&k[8..])
            } else {
                std::ptr::null_mut()
            };
            let perm = leaf.permutation();
            let rank = match leaf.search(perm, slice, class) {
                LeafSearch::NotFound { rank } => rank,
                LeafSearch::Found { .. } => panic!("distinct keys"),
            };
            leaf.insert_entry(perm, rank, slice, class, suffix, i as u64);
        }
        let perm = leaf.permutation();
        assert_eq!(perm.count(), 3);
        // Sorted order: "a" (len 1), "a\0\0" (len 3), long key (bucket).
        assert_eq!(leaf.value(perm.slot(0)), 1);
        assert_eq!(leaf.value(perm.slot(1)), 0);
        assert_eq!(leaf.value(perm.slot(2)), 2);
        assert_eq!(leaf.klen(perm.slot(2)), KLEN_SUFFIX);
        // SAFETY: exclusive access; the leaf goes with the slab.
        unsafe { KeyBuf::free(leaf.suffix(perm.slot(2))) };
    }

    #[test]
    fn leaf_split_moves_upper_half_and_links_sibling() {
        // Filled right to left: wherever the next key belongs, it does not
        // continue the leaf's last insert.
        let descending: Vec<usize> = (0..LEAF_WIDTH).rev().collect();
        for rank in [2, LEAF_WIDTH / 2, LEAF_WIDTH] {
            assert_eq!(split_full_leaf(&descending, rank), LEAF_WIDTH / 2);
        }
    }

    #[test]
    fn in_order_run_splits_at_its_insertion_point() {
        // A run that reached the leaf's right edge: Masstree's append split.
        let ascending: Vec<usize> = (0..LEAF_WIDTH).collect();
        assert_eq!(split_full_leaf(&ascending, LEAF_WIDTH), LEAF_WIDTH - 1);
        // A run that ends below keys already there (another loader's range).
        let interior: Vec<usize> = (10..LEAF_WIDTH).chain(0..10).collect();
        assert_eq!(split_full_leaf(&interior, 10), 10);
        // The same leaf, but the next key does not follow the run.
        assert_eq!(split_full_leaf(&interior, 12), LEAF_WIDTH / 2);
    }

    /// Fills a leaf with the distinct-slice keys `order` names, inserted in
    /// that order, splits it for a key belonging at `rank`, checks the
    /// halves and returns how many entries stayed on the left.
    fn split_full_leaf(order: &[usize], rank: usize) -> usize {
        let slab = Slab::new();
        let leaf_ptr = LeafNode::allocate(&slab);
        // SAFETY: single-threaded exclusive access in this test.
        let leaf = unsafe { &*leaf_ptr };
        for &i in order {
            let key = format!("key{:03}", i);
            let (slice, class) = keyslice(key.as_bytes());
            let perm = leaf.permutation();
            let at = match leaf.search(perm, slice, class) {
                LeafSearch::NotFound { rank } => rank,
                LeafSearch::Found { .. } => panic!("distinct"),
            };
            leaf.insert_entry(perm, at, slice, class, std::ptr::null_mut(), i as u64);
        }
        assert!(leaf.is_full());
        leaf.header.lock();
        let (sep, right_ptr) = leaf.split(rank, &slab);
        // SAFETY: right sibling freshly created by split.
        let right = unsafe { &*right_ptr };
        let left_n = leaf.permutation().count();
        let right_n = right.permutation().count();
        assert_eq!(left_n + right_n, LEAF_WIDTH);
        assert!(left_n > 0 && right_n > 0);
        let expected = keyslice(format!("key{:03}", left_n).as_bytes()).0;
        assert_eq!(sep, expected);
        assert_eq!(leaf.next(), right_ptr);
        // Every left entry's slice < sep <= every right entry's slice.
        for r in 0..left_n {
            assert!(leaf.slice(leaf.permutation().slot(r)) < sep);
        }
        for r in 0..right_n {
            assert!(right.slice(right.permutation().slot(r)) >= sep);
        }
        leaf.header.unlock_with_increment();
        right.header.unlock_with_increment();
        left_n
    }

    #[test]
    fn leaf_split_keeps_equal_slices_together() {
        let slab = Slab::new();
        let leaf_ptr = LeafNode::allocate(&slab);
        // SAFETY: single-threaded exclusive access in this test.
        let leaf = unsafe { &*leaf_ptr };
        // 10 entries share the all-zero slice (prefixes of zeros pad to the
        // same slice: lengths 0..=8, plus the suffix bucket — the worst
        // case), the rest use larger slices: the boundary must fall between.
        let shared = &[0u8; 8];
        let mut i = 0u64;
        for len in 0..=8usize {
            let key = &shared[..len];
            let (slice, class) = keyslice(key);
            let perm = leaf.permutation();
            let rank = match leaf.search(perm, slice, class) {
                LeafSearch::NotFound { rank } => rank,
                LeafSearch::Found { .. } => panic!("distinct lengths"),
            };
            leaf.insert_entry(perm, rank, slice, class, std::ptr::null_mut(), i);
            i += 1;
        }
        // One suffix-bucket entry for the shared slice.
        {
            let key = b"\x00\x00\x00\x00\x00\x00\x00\x00ZZ";
            let (slice, class) = keyslice(key);
            let perm = leaf.permutation();
            let rank = match leaf.search(perm, slice, class) {
                LeafSearch::NotFound { rank } => rank,
                LeafSearch::Found { .. } => panic!("bucket empty"),
            };
            leaf.insert_entry(perm, rank, slice, class, KeyBuf::allocate(&key[8..]), i);
            i += 1;
        }
        for extra in 0..(LEAF_WIDTH - 10) {
            let key = format!("zz{extra:03}");
            let (slice, class) = keyslice(key.as_bytes());
            let perm = leaf.permutation();
            let rank = match leaf.search(perm, slice, class) {
                LeafSearch::NotFound { rank } => rank,
                LeafSearch::Found { .. } => panic!("distinct"),
            };
            leaf.insert_entry(perm, rank, slice, class, std::ptr::null_mut(), i);
            i += 1;
        }
        assert!(leaf.is_full());
        leaf.header.lock();
        let (sep, right_ptr) = leaf.split(0, &slab);
        // SAFETY: right sibling freshly created by split.
        let right = unsafe { &*right_ptr };
        let shared_slice = keyslice(shared).0;
        assert!(
            sep > shared_slice,
            "shared-slice run must stay in the left leaf"
        );
        assert_eq!(leaf.permutation().count(), 10);
        assert_eq!(right.permutation().count(), LEAF_WIDTH - 10);
        leaf.header.unlock_with_increment();
        right.header.unlock_with_increment();
        // SAFETY: exclusive access; the one suffix is owned by the left leaf.
        unsafe { KeyBuf::free(leaf.suffix(leaf.permutation().slot(9))) };
    }

    #[test]
    fn inner_route_and_insert_separator() {
        let slab = Slab::new();
        let inner_ptr = InnerNode::allocate(&slab);
        // SAFETY: single-threaded exclusive access in this test.
        let inner = unsafe { &*inner_ptr };
        let left = LeafNode::allocate(&slab);
        let right = LeafNode::allocate(&slab);
        let (mm, _) = keyslice(b"mm");
        inner.init_root(mm, left as *mut NodeHeader, right as *mut NodeHeader);
        assert_eq!(inner.route(keyslice(b"aa").0), 0);
        assert_eq!(inner.route(mm), 1);
        assert_eq!(inner.route(keyslice(b"zz").0), 1);
        let far_right = LeafNode::allocate(&slab);
        let (tt, _) = keyslice(b"tt");
        inner.insert_separator(1, tt, far_right as *mut NodeHeader);
        assert_eq!(inner.nkeys(), 2);
        assert_eq!(inner.route(keyslice(b"zz").0), 2);
        assert_eq!(inner.route(keyslice(b"nn").0), 1);
        assert_eq!(inner.child(2), far_right as *mut NodeHeader);
    }

    #[test]
    fn leaf_search_finds_keys_by_slice_and_class() {
        let slab = Slab::new();
        let leaf_ptr = LeafNode::allocate(&slab);
        // SAFETY: single-threaded exclusive access in this test.
        let leaf = unsafe { &*leaf_ptr };
        // A mix of short, exact-slice and long keys, including shared slices,
        // listed in key order.
        let keys: Vec<Vec<u8>> = vec![
            b"a".to_vec(),
            b"a\x00\x00".to_vec(),
            b"abcdefgh".to_vec(),
            b"abcdefghZZ".to_vec(),
            b"m".to_vec(),
            b"zzzzzzz".to_vec(),
        ];
        for (i, k) in keys.iter().enumerate() {
            let (slice, class) = keyslice(k);
            let suffix = if class == KLEN_SUFFIX {
                KeyBuf::allocate(&k[8..])
            } else {
                std::ptr::null_mut()
            };
            let perm = leaf.permutation();
            let rank = match leaf.search(perm, slice, class) {
                LeafSearch::NotFound { rank } => rank,
                LeafSearch::Found { .. } => panic!("distinct keys"),
            };
            leaf.insert_entry(perm, rank, slice, class, suffix, i as u64);
        }
        let perm = leaf.permutation();
        // Every inserted key is found at its key-order rank, in the slot
        // holding its value.
        for (i, k) in keys.iter().enumerate() {
            let (slice, class) = keyslice(k);
            match leaf.search(perm, slice, class) {
                LeafSearch::Found { rank, slot } => {
                    assert_eq!(rank, i, "rank of {k:?}");
                    assert_eq!(perm.slot(rank), slot);
                    assert_eq!(leaf.value(slot), i as u64);
                }
                LeafSearch::NotFound { .. } => panic!("{k:?} not found"),
            }
        }
        // Misses sharing a slice with a hit (differing only in the klen
        // class) and plain misses report their insertion rank.
        let misses: [((u64, u8), usize); 4] = [
            (keyslice(b"ab"), 2),
            (keyslice(b"a\x00"), 1),
            (keyslice(b"nope-missing"), 5),
            ((keyslice(b"a").0, 4), 2),
        ];
        for ((slice, class), want) in misses {
            match leaf.search(perm, slice, class) {
                LeafSearch::NotFound { rank } => {
                    assert_eq!(rank, want, "miss ({slice:#x}, {class})")
                }
                LeafSearch::Found { .. } => panic!("({slice:#x}, {class}) is absent"),
            }
        }
        // Removal deactivates the slot, although the freed slot still holds
        // the slice: the permutation alone decides what search sees.
        let (slice, class) = keyslice(b"m");
        let LeafSearch::Found { rank, slot } = leaf.search(perm, slice, class) else {
            panic!("m present");
        };
        let (_, _, value) = leaf.remove_entry(perm, rank);
        assert_eq!(value, 4);
        assert_eq!(leaf.slice(slot), slice, "the stale slot keeps its slice");
        assert_eq!(
            leaf.search(leaf.permutation(), slice, class),
            LeafSearch::NotFound { rank: 4 }
        );
        // SAFETY: exclusive access; free the one suffix (the leaf goes
        // with the slab).
        let (s, c) = keyslice(b"abcdefghZZ");
        if let LeafSearch::Found { slot, .. } = leaf.search(leaf.permutation(), s, c) {
            unsafe { KeyBuf::free(leaf.suffix(slot)) };
        }
    }

    #[test]
    fn inner_insert_publishes_without_shifting_slots() {
        let slab = Slab::new();
        let inner_ptr = InnerNode::allocate(&slab);
        // SAFETY: single-threaded exclusive access in this test.
        let inner = unsafe { &*inner_ptr };
        let left = LeafNode::allocate(&slab);
        // Insert separators in descending order so a shifting implementation
        // would move every existing slot each time.
        let seps: Vec<u64> = (0..FANOUT as u64).rev().map(|i| 100 + i * 10).collect();
        let right = LeafNode::allocate(&slab);
        inner.init_root(seps[0], left as *mut NodeHeader, right as *mut NodeHeader);
        for &sep in &seps[1..] {
            let c = LeafNode::allocate(&slab);
            let idx = inner.route(sep);
            inner.insert_separator(idx, sep, c as *mut NodeHeader);
        }
        assert!(inner.is_full());
        // Routing walks the separators in sorted order even though they were
        // written to slots in insertion order.
        let perm = inner.permutation();
        let mut prev = 0;
        for rank in 0..perm.count() {
            let key = inner.keys[perm.slot(rank)].load(Ordering::Relaxed);
            assert!(key > prev, "separators must be sorted in rank order");
            prev = key;
        }
        for &sep in &seps {
            let idx = inner.route_at(perm, sep);
            assert!(idx > 0);
            assert_eq!(inner.keys[perm.slot(idx - 1)].load(Ordering::Relaxed), sep);
            assert!(!inner.child_at(perm, idx).is_null());
        }
        assert_eq!(inner.route_at(perm, 0), 0);
        assert_eq!(inner.child_at(perm, 0), left as *mut NodeHeader);
    }

    #[test]
    fn inner_split_partitions_children_by_rank() {
        let slab = Slab::new();
        let inner_ptr = InnerNode::allocate(&slab);
        // SAFETY: single-threaded exclusive access in this test.
        let inner = unsafe { &*inner_ptr };
        let mut children = Vec::new();
        let first = LeafNode::allocate(&slab);
        children.push(first);
        inner
            .child0
            .store(first as *mut NodeHeader, Ordering::Release);
        for i in 0..FANOUT {
            let c = LeafNode::allocate(&slab);
            children.push(c);
            inner.insert_separator(i, 1000 + i as u64, c as *mut NodeHeader);
        }
        inner.header.lock();
        let (promoted, right_ptr) = inner.split(&slab);
        // SAFETY: right sibling freshly created by split.
        let right = unsafe { &*right_ptr };
        // children[i + 1] is the right child of separator 1000 + i.
        // Left keeps child0 + children of separators below the promoted one.
        let lperm = inner.permutation();
        assert_eq!(inner.child_at(lperm, 0), first as *mut NodeHeader);
        for rank in 0..lperm.count() {
            assert_eq!(
                inner.child_at(lperm, rank + 1),
                children[rank + 1] as *mut NodeHeader
            );
        }
        // Right's child0 is the promoted separator's right child, then the
        // children of every separator above it.
        let promoted_idx = (promoted - 1000) as usize;
        let rperm = right.permutation();
        assert_eq!(
            right.child_at(rperm, 0),
            children[promoted_idx + 1] as *mut NodeHeader
        );
        for rank in 0..rperm.count() {
            assert_eq!(
                right.keys[rperm.slot(rank)].load(Ordering::Relaxed),
                1000 + (promoted_idx + 1 + rank) as u64
            );
            assert_eq!(
                right.child_at(rperm, rank + 1),
                children[promoted_idx + 2 + rank] as *mut NodeHeader
            );
        }
        inner.header.unlock_with_increment();
        right.header.unlock_with_increment();
    }

    #[test]
    fn inner_split_promotes_middle_separator() {
        let slab = Slab::new();
        let inner_ptr = InnerNode::allocate(&slab);
        // SAFETY: single-threaded exclusive access in this test.
        let inner = unsafe { &*inner_ptr };
        let mut children = Vec::new();
        let first_child = LeafNode::allocate(&slab);
        children.push(first_child);
        inner
            .child0
            .store(first_child as *mut NodeHeader, Ordering::Release);
        for i in 0..FANOUT {
            let child = LeafNode::allocate(&slab);
            children.push(child);
            inner.insert_separator(i, 1000 + i as u64, child as *mut NodeHeader);
        }
        assert!(inner.is_full());
        inner.header.lock();
        let (promoted, right_ptr) = inner.split(&slab);
        assert_eq!(promoted, 1000 + (FANOUT / 2) as u64);
        // SAFETY: right sibling freshly created by split.
        let right = unsafe { &*right_ptr };
        assert_eq!(inner.nkeys(), FANOUT / 2);
        assert_eq!(right.nkeys(), FANOUT - FANOUT / 2 - 1);
        inner.header.unlock_with_increment();
        right.header.unlock_with_increment();
    }
}
