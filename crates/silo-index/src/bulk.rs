//! Bottom-up construction of a whole tree from a sorted stream
//! ([`Tree::bulk_load`]).
//!
//! Keys arrive in strictly ascending order, so every node can be filled once,
//! left to right, and never split: leaves are filled to [`LEAF_WIDTH`], each
//! full leaf is linked to the next, and each new leaf's first slice becomes a
//! separator in the interior level above it, which fills the same way. The
//! entries of one slice are collected before they are placed, so they never
//! straddle two leaves. Among them, the keys longer than the slice become one
//! suffix entry if there is one such key, or a next-layer tree built the same
//! way on the next 8 bytes if there are several; a stack of layer builds
//! follows the current key down the trie. Nothing is buffered beyond the
//! entries of the current slice of each layer on that path.
//!
//! The tree is published with one root-pointer store, so readers see none of
//! it or all of it.

use std::sync::atomic::{AtomicPtr, Ordering};

use crate::node::{InnerNode, LeafNode, NodeHeader};
use crate::{
    keyslice, release_subtree, InlineVec, KeyBuf, Layer, ScanScratch, Slab, Tree, KLEN_LAYER,
    KLEN_SUFFIX, LEAF_WIDTH, NODE_LEAF_BIT,
};

/// Why a bulk load was refused. Nothing of it was published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkLoadError {
    /// The tree holds keys: only an empty tree can be bulk-built.
    NotEmpty,
    /// A key sorted below the key pushed before it.
    Unsorted,
    /// A key equal to the key pushed before it.
    Repeated,
}

impl std::fmt::Display for BulkLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BulkLoadError::NotEmpty => "bulk load into a tree that is not empty",
            BulkLoadError::Unsorted => "bulk load key sorts below the key before it",
            BulkLoadError::Repeated => "bulk load key repeats the key before it",
        })
    }
}

impl std::error::Error for BulkLoadError {}

/// One inline entry of the slice being collected.
#[derive(Debug, Clone, Copy)]
struct Entry {
    klen: u8,
    value: u64,
}

/// The one entry of a slice that stands for the keys longer than the slice.
#[derive(Debug, Clone, Copy)]
enum Bucket {
    Empty,
    /// One such key so far: its value, with its bytes past the slice in
    /// `LayerBuild::pending`.
    Suffix(u64),
    /// Several: they go into the next-layer build above this one on the
    /// stack.
    Open,
    /// Several, in the finished next layer.
    Layer(*mut Layer),
}

/// The build of one trie layer: the slice being collected, the leaf being
/// filled and, per interior level bottom-up, the node being filled with its
/// separator count.
#[derive(Debug)]
struct LayerBuild {
    /// The slice being collected, when `collecting`.
    slice: u64,
    collecting: bool,
    /// Its inline entries: one per key length up to 8, in length order.
    inline: InlineVec<Entry, 9>,
    bucket: Bucket,
    pending: Vec<u8>,
    leaf: *mut LeafNode,
    filled: usize,
    inners: Vec<*mut InnerNode>,
}

impl Default for LayerBuild {
    fn default() -> Self {
        LayerBuild {
            slice: 0,
            collecting: false,
            inline: InlineVec::new(),
            bucket: Bucket::Empty,
            pending: Vec::new(),
            leaf: std::ptr::null_mut(),
            filled: 0,
            inners: Vec::new(),
        }
    }
}

impl LayerBuild {
    /// Adds the key remainder `rem` at this layer. Returns the value of the
    /// slice's waiting suffix entry when `rem` is the second key longer than
    /// that slice: the caller then opens a next layer holding both, and the
    /// first one's bytes past the slice are still in `pending`.
    fn add(&mut self, slab: &Slab, rem: &[u8], value: u64) -> Option<u64> {
        let (slice, class) = keyslice(rem);
        if !self.collecting || self.slice != slice {
            self.place_slice(slab);
            self.slice = slice;
            self.collecting = true;
        }
        if class <= 8 {
            self.inline.push(Entry { klen: class, value });
            return None;
        }
        match self.bucket {
            Bucket::Empty => {
                self.pending.clear();
                self.pending.extend_from_slice(&rem[8..]);
                self.bucket = Bucket::Suffix(value);
                None
            }
            Bucket::Suffix(first) => {
                self.bucket = Bucket::Open;
                Some(first)
            }
            // Ascending keys reach an open layer through the stack, and a
            // closed one only closes when a greater slice arrives.
            Bucket::Open | Bucket::Layer(_) => unreachable!("bucket already holds a layer"),
        }
    }

    /// Places the collected slice's entries in the leaf, starting a new leaf
    /// first if they do not all fit in this one.
    fn place_slice(&mut self, slab: &Slab) {
        if !self.collecting {
            return;
        }
        let bucket = !matches!(self.bucket, Bucket::Empty);
        if self.leaf.is_null() || self.filled + self.inline.len() + usize::from(bucket) > LEAF_WIDTH
        {
            self.next_leaf(slab);
        }
        // SAFETY: the leaf was allocated by this build and is unpublished.
        let leaf = unsafe { &*self.leaf };
        for entry in self.inline.iter() {
            leaf.write_unpublished(
                self.filled,
                self.slice,
                entry.klen,
                std::ptr::null_mut(),
                entry.value,
            );
            self.filled += 1;
        }
        let (klen, suffix, value) = match self.bucket {
            Bucket::Empty => (0, std::ptr::null_mut(), 0),
            Bucket::Suffix(value) => (KLEN_SUFFIX, KeyBuf::allocate(&self.pending), value),
            Bucket::Layer(layer) => (KLEN_LAYER, std::ptr::null_mut(), layer as u64),
            Bucket::Open => unreachable!("a layer is closed before its slice is placed"),
        };
        if bucket {
            leaf.write_unpublished(self.filled, self.slice, klen, suffix, value);
            self.filled += 1;
        }
        self.inline.clear();
        self.bucket = Bucket::Empty;
        self.collecting = false;
    }

    /// Closes the full leaf, if any, and starts the next one, whose first
    /// slice is the one being placed.
    fn next_leaf(&mut self, slab: &Slab) {
        let fresh = LeafNode::allocate(slab);
        if !self.leaf.is_null() {
            // SAFETY: allocated by this build and unpublished.
            unsafe { (*self.leaf).seal_unpublished(self.filled, fresh) };
            self.push_separator(
                slab,
                self.slice,
                fresh as *mut NodeHeader,
                self.leaf as *mut NodeHeader,
            );
        }
        self.leaf = fresh;
        self.filled = 0;
    }

    /// Adds separator `sep`, with `right` the node it leads to, to the
    /// lowest interior level, closing full nodes upwards. `left` is the node
    /// before `right`: the first child of a level started by this call.
    fn push_separator(
        &mut self,
        slab: &Slab,
        sep: u64,
        mut right: *mut NodeHeader,
        mut left: *mut NodeHeader,
    ) {
        for level in 0.. {
            if level == self.inners.len() {
                let node = InnerNode::allocate(slab);
                // SAFETY: just allocated, unpublished.
                unsafe { (*node).set_child0_unpublished(left) };
                self.inners.push(node);
            }
            let node = &mut self.inners[level];
            // SAFETY: allocated by this build and unpublished.
            let inner = unsafe { &**node };
            if !inner.is_full() {
                inner.append_unpublished(sep, right);
                return;
            }
            // The node is full: start its right sibling with `right` as
            // first child, and promote `sep` to the level above.
            let fresh = InnerNode::allocate(slab);
            // SAFETY: just allocated, unpublished.
            unsafe { (*fresh).set_child0_unpublished(right) };
            left = *node as *mut NodeHeader;
            right = fresh as *mut NodeHeader;
            *node = fresh;
        }
    }

    /// Places what is left, closes the last leaf, and returns the layer's root
    /// (null if no key was added). Leaves the build empty for reuse.
    fn finish(&mut self, slab: &Slab) -> *mut NodeHeader {
        self.place_slice(slab);
        if self.leaf.is_null() {
            return std::ptr::null_mut();
        }
        // SAFETY: the leaf was allocated by this build and is unpublished.
        unsafe { (*self.leaf).seal_unpublished(self.filled, std::ptr::null_mut()) };
        let root = match self.inners.last() {
            Some(&node) => node as *mut NodeHeader,
            None => self.leaf as *mut NodeHeader,
        };
        self.leaf = std::ptr::null_mut();
        self.filled = 0;
        self.inners.clear();
        root
    }
}

/// A bulk load in progress: see [`Tree::bulk_load`].
///
/// Every value pushed is either published with the tree or handed to the
/// load's `discard` function: the offending value of a refused push, and
/// every value held when [`BulkLoad::publish`] is refused or the load is
/// dropped unpublished.
pub struct BulkLoad<'t> {
    tree: &'t Tree,
    /// One build per trie layer on the path of the last key, root layer
    /// first.
    stack: Vec<LayerBuild>,
    /// Finished builds, kept for the next layer opened.
    spare: Vec<LayerBuild>,
    last: Vec<u8>,
    pushed: bool,
    discard: Box<dyn FnMut(u64) + 't>,
}

impl std::fmt::Debug for BulkLoad<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BulkLoad")
            .field("depth", &self.stack.len())
            .finish_non_exhaustive()
    }
}

impl<'t> BulkLoad<'t> {
    /// Appends `key → value`. `key` must sort strictly after the key pushed
    /// before it; otherwise the push is refused, `value` is discarded, and
    /// the load should be dropped.
    pub fn push(&mut self, key: &[u8], value: u64) -> Result<(), BulkLoadError> {
        if self.pushed {
            match key.cmp(&self.last) {
                std::cmp::Ordering::Less => return self.refuse(value, BulkLoadError::Unsorted),
                std::cmp::Ordering::Equal => return self.refuse(value, BulkLoadError::Repeated),
                std::cmp::Ordering::Greater => {}
            }
        }
        self.pushed = true;
        self.last.clear();
        self.last.extend_from_slice(key);
        let tree: &'t Tree = self.tree;
        let slab = &tree.nodes;
        let mut depth = 0;
        let mut rem = key;
        loop {
            if depth + 1 < self.stack.len() {
                // The build at `depth` has a next layer open for its slice:
                // a longer key of that slice goes there, any other key
                // closes it.
                let (slice, class) = keyslice(rem);
                if class == KLEN_SUFFIX && self.stack[depth].slice == slice {
                    depth += 1;
                    rem = &rem[8..];
                    continue;
                }
                self.close_layers_above(depth);
            }
            let build = &mut self.stack[depth];
            let Some(first) = build.add(slab, rem, value) else {
                return Ok(());
            };
            // A second key longer than the slice: both go into a next layer.
            let mut next = self.spare.pop().unwrap_or_default();
            let none = next.add(slab, &build.pending, first);
            debug_assert!(none.is_none(), "a fresh layer holds one key");
            self.stack.push(next);
            depth += 1;
            rem = &rem[8..];
        }
    }

    fn refuse(&mut self, value: u64, error: BulkLoadError) -> Result<(), BulkLoadError> {
        (self.discard)(value);
        Err(error)
    }

    /// Finishes the builds above `depth` and hangs each finished layer in
    /// the slice bucket below it.
    fn close_layers_above(&mut self, depth: usize) {
        let tree: &'t Tree = self.tree;
        let slab = &tree.nodes;
        while self.stack.len() > depth + 1 {
            let mut top = self.stack.pop().expect("stack is deeper than depth");
            let root = top.finish(slab);
            self.spare.push(top);
            let layer = slab.place(Layer {
                root: AtomicPtr::new(root),
            });
            let below = self.stack.last_mut().expect("a layer has a parent");
            debug_assert!(matches!(below.bucket, Bucket::Open));
            below.bucket = Bucket::Layer(layer);
        }
    }

    /// Finishes every build and returns the root of the whole tree, or null
    /// if nothing was pushed (or it was already taken).
    fn finish(&mut self) -> *mut NodeHeader {
        self.close_layers_above(0);
        self.stack[0].finish(&self.tree.nodes)
    }

    /// Publishes the built tree as the tree's contents, with one store of
    /// the root pointer.
    ///
    /// The tree's empty root leaf is locked first, so the publish is refused
    /// with [`BulkLoadError::NotEmpty`] if a key was inserted since the load
    /// began. The empty leaf is unlocked with its version bumped: a node-set
    /// that recorded the tree empty fails validation.
    pub fn publish(self) -> Result<(), BulkLoadError> {
        self.publish_with(None::<fn(&[u8], u64)>)
    }

    /// [`BulkLoad::publish`], with `visit` shown every entry in key order
    /// while the empty root is locked: a caller can make the contents
    /// durable before any reader can see them.
    pub fn publish_visiting(self, visit: impl FnMut(&[u8], u64)) -> Result<(), BulkLoadError> {
        self.publish_with(Some(visit))
    }

    fn publish_with(mut self, visit: Option<impl FnMut(&[u8], u64)>) -> Result<(), BulkLoadError> {
        let root = self.finish();
        if root.is_null() {
            return Ok(());
        }
        let Some(empty) = self.tree.lock_empty_root() else {
            // SAFETY: built by this load and never published.
            unsafe { release_subtree(root, &mut *self.discard) };
            return Err(BulkLoadError::NotEmpty);
        };
        if let Some(visit) = visit {
            let built = Layer {
                root: AtomicPtr::new(root),
            };
            let mut scratch = ScanScratch::default();
            self.tree
                .scan_layer(&built, &mut scratch, b"", None, None, visit);
        }
        // Release: the nodes were written with relaxed stores while no
        // other thread could reach them, and a reader reaches them only
        // through this pointer, loaded with `Acquire`.
        self.tree.root.root.store(root, Ordering::Release);
        empty.header.unlock_with_increment();
        Ok(())
    }
}

impl Drop for BulkLoad<'_> {
    fn drop(&mut self) {
        let root = self.finish();
        if !root.is_null() {
            // SAFETY: built by this load and never published.
            unsafe { release_subtree(root, &mut *self.discard) };
        }
    }
}

impl Tree {
    /// Starts building this tree bottom-up from `(key, value)` pairs pushed
    /// in strictly ascending key order (see [`BulkLoad`]); readers see
    /// nothing of it until [`BulkLoad::publish`].
    ///
    /// Leaves are filled to [`LEAF_WIDTH`] and interior nodes to [`FANOUT`](crate::FANOUT)
    /// separators, every node from the tree's slab, the leaves with identity
    /// permutations and `next` links as in-order inserts would leave them.
    /// No key is descended to and nothing is locked until the publish.
    ///
    /// `discard` receives every value that does not end up in the tree. The
    /// tree must be empty: one that holds keys is refused with
    /// [`BulkLoadError::NotEmpty`] here, or at the publish if a key arrives
    /// meanwhile.
    pub fn bulk_load<'t>(
        &'t self,
        discard: impl FnMut(u64) + 't,
    ) -> Result<BulkLoad<'t>, BulkLoadError> {
        if !self.root_is_empty_leaf() {
            return Err(BulkLoadError::NotEmpty);
        }
        Ok(BulkLoad {
            tree: self,
            stack: vec![LayerBuild::default()],
            spare: Vec::new(),
            last: Vec::new(),
            pushed: false,
            discard: Box::new(discard),
        })
    }

    /// Whether the root is a leaf holding no entry.
    fn root_is_empty_leaf(&self) -> bool {
        let root = self.root.root.load(Ordering::Acquire);
        // SAFETY: the root pointer always refers to a live node.
        let version = unsafe { (*root).stable_version() };
        // SAFETY: the LEAF bit says the root is a leaf.
        version & NODE_LEAF_BIT != 0
            && unsafe { (*(root as *const LeafNode)).permutation() }.count() == 0
    }

    /// Locks the root leaf of a tree that holds no key, for a bulk publish;
    /// `None` if the tree holds keys.
    fn lock_empty_root(&self) -> Option<&LeafNode> {
        loop {
            let root = self.root.root.load(Ordering::Acquire);
            // SAFETY: the root pointer always refers to a live node.
            let version = unsafe { (*root).stable_version() };
            if version & NODE_LEAF_BIT == 0 {
                return None;
            }
            // SAFETY: the LEAF bit says the root is a leaf; nodes are never
            // freed while the tree is alive.
            let leaf = unsafe { &*(root as *const LeafNode) };
            if leaf.permutation().count() != 0 {
                return None;
            }
            // A successful upgrade proves the leaf unchanged since `version`,
            // so still empty and still the root: only a locked root split
            // replaces the root.
            if leaf.header.try_upgrade_lock(version) {
                debug_assert_eq!(self.root.root.load(Ordering::Relaxed), root);
                return Some(leaf);
            }
            self.counters.note_retry();
        }
    }
}
