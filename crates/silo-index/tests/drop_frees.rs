//! A dropped tree gives back every byte it took: the chunks of its node
//! slab, and every suffix `KeyBuf` — live in a leaf, displaced by a trie
//! layer conversion, or handed out by a removal and dropped.
//!
//! The test binary runs under a counting global allocator whose counters
//! are per thread, so the harness's own threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use silo_index::{Slab, Tree};

struct Counting;

thread_local! {
    // Const-initialised so reading it inside the allocator never allocates.
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only a thread-local cell and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = NET_BYTES.try_with(|c| c.set(c.get() + layout.size() as i64));
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = NET_BYTES.try_with(|c| c.set(c.get() - layout.size() as i64));
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn net_bytes() -> i64 {
    NET_BYTES.with(Cell::get)
}

#[test]
fn a_dropped_tree_with_layers_and_suffixes_frees_every_byte() {
    const KEYS: u64 = 100_000;
    let before = net_bytes();
    {
        let tree = Tree::new();
        // Distinct first slices with a tail past eight bytes: suffix keys.
        for i in 0..KEYS {
            let key = format!("k{i:07}-tail-{}", i % 13);
            tree.insert_if_absent(key.as_bytes(), i);
        }
        // Every tenth slice gains a second key, converting its suffix entry
        // into a trie layer and retiring the displaced suffix.
        for i in (0..KEYS).step_by(10) {
            let key = format!("k{i:07}+other-tail");
            tree.insert_if_absent(key.as_bytes(), i);
        }
        // Removals hand suffixes out; dropping the entries frees them.
        for i in (5..KEYS).step_by(10) {
            let key = format!("k{i:07}-tail-{}", i % 13);
            assert!(tree.remove(key.as_bytes()).is_some());
        }
        let stats = tree.stats();
        assert!(stats.layer_entries >= KEYS / 10, "{stats:?}");
        assert!(stats.suffix_entries >= KEYS / 2, "{stats:?}");
        assert!(net_bytes() - before > Slab::HUGE_CHUNK as i64);
    }
    assert_eq!(net_bytes(), before, "bytes still allocated after the drop");
}
