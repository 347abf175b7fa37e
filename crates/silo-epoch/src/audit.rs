//! Test-only shared-memory-write audit (the paper's §3 design rule).
//!
//! Silo's headline scalability argument rests on one discipline:
//! *transactions that only read data never write to shared memory*. This
//! module pins that invariant the same way the suffix-dereference audit pins
//! the single-slice fast path: every code path in the engine that writes
//! memory **shared between threads** — node locks, tree-global counters,
//! epoch advances, worker registration — calls [`note`], and tests assert
//! that a warmed read-only transaction (index point reads, scans, epoch
//! refresh included) leaves the counter at zero.
//!
//! What deliberately does *not* count as a shared write:
//!
//! * a worker storing to its **own cache-line-padded slot** (the `e_w`/`se_w`
//!   publishes in [`crate::WorkerEpochHandle::refresh`]) — that is the
//!   sanctioned per-worker sharding pattern, the line is owned by one writer;
//! * bumps of **per-worker sharded counters** (e.g. the index's reader-retry
//!   cells), for the same reason.
//!
//! The counter is a plain thread-local `Cell` compiled only under
//! `debug_assertions`; release builds (and therefore all benchmarks) pay
//! nothing.

#[cfg(debug_assertions)]
use std::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    static SHARED_WRITES: Cell<u64> = const { Cell::new(0) };
}

/// Records one write to cross-thread shared memory by the calling thread.
///
/// Call this from every code path that locks a node, bumps a process- or
/// tree-global counter, or stores to state read by other threads (other than
/// the caller's own cache-padded per-worker cell). Compiles to nothing when
/// `debug_assertions` are off.
#[inline(always)]
pub fn note() {
    #[cfg(debug_assertions)]
    SHARED_WRITES.with(|c| c.set(c.get() + 1));
}

/// Resets the calling thread's counter and returns the number of shared
/// writes noted since the previous reset. Always returns 0 in release builds.
#[inline]
pub fn take() -> u64 {
    #[cfg(debug_assertions)]
    {
        SHARED_WRITES.with(|c| c.replace(0))
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

// The counter only exists under `debug_assertions`; in a release test run
// there is nothing to assert.
#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn take_resets_counter() {
        let _ = take();
        note();
        note();
        assert_eq!(take(), 2);
        assert_eq!(take(), 0);
    }

    #[test]
    fn counter_is_thread_local() {
        let _ = take();
        note();
        std::thread::spawn(|| assert_eq!(take(), 0)).join().unwrap();
        assert_eq!(take(), 1);
    }
}
