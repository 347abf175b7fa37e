//! The harness's own counting global allocator.
//!
//! Counters are thread-local, so counting adds no shared write to the
//! engine's hot path: a worker reads its own counters before and after a
//! phase and reports the difference.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAllocator;

thread_local! {
    // Const-initialised so reading them inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only thread-local cells and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` fails during thread teardown; counting is best-effort there.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
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

/// Heap allocations made by the calling thread since it started.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes allocated minus bytes freed by the calling thread since it started.
pub fn thread_net_bytes() -> i64 {
    NET_BYTES.with(Cell::get)
}
