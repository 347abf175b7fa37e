//! Superpage slabs: memory carved in cache-line pieces out of chunks that
//! one owner holds until it drops.
//!
//! Silo runs each worker on memory pools carved from 2 MB superpages (paper
//! §4.8, the `+Allocator` step of §5.7). A [`Slab`] is that allocator at
//! this repository's scale: it bump-allocates 64-byte-aligned pieces out of
//! chunks it gets from [`std::alloc`] (so a counting global allocator still
//! sees every byte) and frees the chunks all at once when it drops. Pieces
//! are never freed one by one.
//!
//! Chunks grow from [`Slab::FIRST_CHUNK`] to [`Slab::HUGE_CHUNK`], doubling
//! each time. Only a `HUGE_CHUNK` chunk is allocated 2 MiB-aligned, and on
//! Linux only such a chunk is advised `MADV_HUGEPAGE`: one huge page then
//! backs it, and a pointer chase through it costs no TLB walk. A small owner
//! never reaches that size, so it never faults a huge page.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;
use std::sync::{Mutex, PoisonError};

use silo_epoch::shared_write_audit;

/// A bump allocator over chunks freed together when it drops. Safe to share
/// between threads: each allocation takes one lock.
pub struct Slab {
    chunks: Mutex<Chunks>,
}

/// The chunks a slab holds and the free tail of the newest one.
struct Chunks {
    /// Every chunk with the layout it was allocated under, oldest first.
    held: Vec<(NonNull<u8>, Layout)>,
    tail: Bump,
}

// SAFETY: the raw pointers address chunks the slab owns exclusively; they
// are only read or moved under the mutex and freed in `Drop`, which has
// `&mut self`. Handing out a piece moves no ownership of the chunk.
unsafe impl Send for Chunks {}

/// A range of memory handed out front to back: the free tail of a slab's
/// newest chunk, or a window of a slab that one owner carves alone. It only
/// computes addresses; whoever holds the memory behind it keeps it valid.
#[derive(Debug)]
pub struct Bump {
    next: *mut u8,
    end: *mut u8,
}

// SAFETY: a `Bump` holds addresses, not memory: it never reads or writes
// through them.
unsafe impl Send for Bump {}

impl Bump {
    /// A range with no bytes in it.
    pub const EMPTY: Bump = Bump {
        next: std::ptr::null_mut(),
        end: std::ptr::null_mut(),
    };

    /// The `len` bytes from `start`.
    pub fn new(start: NonNull<u8>, len: usize) -> Bump {
        Bump {
            next: start.as_ptr(),
            end: start.as_ptr().wrapping_add(len),
        }
    }

    /// Takes `size` bytes off the front, if the range still has them.
    pub fn take(&mut self, size: usize) -> Option<NonNull<u8>> {
        if (self.end as usize).saturating_sub(self.next as usize) < size {
            return None;
        }
        let piece = self.next;
        self.next = piece.wrapping_add(size);
        NonNull::new(piece)
    }
}

impl Slab {
    /// Every piece starts on a cache-line boundary.
    pub const ALIGN: usize = 64;
    /// The size of a slab's first chunk, and of the largest piece it hands
    /// out.
    pub const FIRST_CHUNK: usize = 64 << 10;
    /// The size of one huge page, which chunks grow to and then keep.
    pub const HUGE_CHUNK: usize = 2 << 20;

    /// An empty slab: it holds no chunk until the first allocation.
    pub fn new() -> Slab {
        Slab {
            chunks: Mutex::new(Chunks {
                held: Vec::new(),
                tail: Bump::EMPTY,
            }),
        }
    }

    /// Allocates `size` bytes, rounded up to a multiple of [`Slab::ALIGN`]
    /// and aligned to it. The memory is uninitialized and stays valid until
    /// the slab drops.
    ///
    /// # Panics
    ///
    /// If `size` exceeds [`Slab::FIRST_CHUNK`].
    pub fn alloc(&self, size: usize) -> NonNull<u8> {
        assert!(
            size <= Self::FIRST_CHUNK,
            "slab pieces are at most {} bytes, asked for {size}",
            Self::FIRST_CHUNK
        );
        let size = size.max(1).next_multiple_of(Self::ALIGN);
        shared_write_audit::note();
        // Every update below leaves the state valid, so a poisoned lock is
        // safe to keep using.
        let mut chunks = self.chunks.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(piece) = chunks.tail.take(size) {
            return piece;
        }
        chunks.grow();
        chunks
            .tail
            .take(size)
            .expect("a fresh chunk holds any piece")
    }

    /// Moves `value` into a fresh piece and returns a pointer to it. The
    /// value is never dropped: its memory goes back with the slab's chunks.
    pub fn place<T>(&self, value: T) -> *mut T {
        assert!(
            std::mem::align_of::<T>() <= Self::ALIGN && !std::mem::needs_drop::<T>(),
            "a slab holds only plain values aligned to at most a cache line"
        );
        let ptr = self.alloc(std::mem::size_of::<T>()).cast::<T>().as_ptr();
        // SAFETY: a fresh piece of at least `size_of::<T>()` bytes, aligned
        // to `ALIGN ≥ align_of::<T>()`.
        unsafe { ptr.write(value) };
        ptr
    }
}

impl Chunks {
    /// Starts a new chunk, twice the size of the last one up to
    /// `HUGE_CHUNK`. What was left of the old chunk goes unused.
    fn grow(&mut self) {
        let size = self.held.last().map_or(Slab::FIRST_CHUNK, |(_, last)| {
            (last.size() * 2).min(Slab::HUGE_CHUNK)
        });
        let align = if size == Slab::HUGE_CHUNK {
            Slab::HUGE_CHUNK
        } else {
            Slab::ALIGN
        };
        let layout = Layout::from_size_align(size, align).expect("chunk layout");
        // SAFETY: the layout has a non-zero size.
        let chunk =
            NonNull::new(unsafe { alloc(layout) }).unwrap_or_else(|| handle_alloc_error(layout));
        advise_huge(chunk.as_ptr(), size);
        self.held.push((chunk, layout));
        self.tail = Bump::new(chunk, size);
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        let chunks = self
            .chunks
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for (chunk, layout) in chunks.held.drain(..) {
            // SAFETY: allocated in `grow` with exactly this layout; `&mut
            // self` means no piece is in use any more.
            unsafe { dealloc(chunk.as_ptr(), layout) };
        }
    }
}

impl Default for Slab {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Slab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slab").finish_non_exhaustive()
    }
}

/// Asks the kernel to back `chunk` with a huge page when it is exactly one
/// 2 MiB-aligned huge page. Returns `madvise`'s result when it asked, `None`
/// when it did not (a smaller or unaligned chunk, or not Linux). A refusal
/// is harmless: the chunk is then backed by ordinary pages.
fn advise_huge(chunk: *mut u8, len: usize) -> Option<i32> {
    if len != Slab::HUGE_CHUNK || chunk as usize % Slab::HUGE_CHUNK != 0 {
        return None;
    }
    madvise_hugepage(chunk, len)
}

#[cfg(target_os = "linux")]
fn madvise_hugepage(addr: *mut u8, len: usize) -> Option<i32> {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: `addr..addr + len` is one page-aligned chunk this slab owns;
    // the advice changes how the kernel backs it, never its contents.
    Some(unsafe { madvise(addr.cast(), len, MADV_HUGEPAGE) })
}

#[cfg(not(target_os = "linux"))]
fn madvise_hugepage(_addr: *mut u8, _len: usize) -> Option<i32> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk_sizes(slab: &Slab) -> Vec<usize> {
        let chunks = slab.chunks.lock().unwrap();
        chunks.held.iter().map(|(_, l)| l.size()).collect()
    }

    #[test]
    fn pieces_are_cache_line_aligned_and_disjoint() {
        let slab = Slab::new();
        let mut last_end = 0usize;
        for size in [1usize, 8, 63, 64, 65, 264, 400, 1000] {
            let piece = slab.alloc(size).as_ptr() as usize;
            assert_eq!(piece % Slab::ALIGN, 0, "piece of {size} bytes");
            assert!(piece >= last_end, "pieces overlap");
            last_end = piece + size;
        }
        let placed = slab.place([7u64; 5]);
        assert_eq!(placed as usize % Slab::ALIGN, 0);
        // SAFETY: placed above; the slab is alive.
        assert_eq!(unsafe { *placed }, [7u64; 5]);
    }

    #[test]
    fn chunks_grow_from_64_kib_to_2_mib_and_stay_there() {
        let slab = Slab::new();
        assert!(
            chunk_sizes(&slab).is_empty(),
            "no chunk before the first piece"
        );
        // Pieces of the first chunk's size fill every chunk exactly.
        while chunk_sizes(&slab).len() < 8 {
            slab.alloc(Slab::FIRST_CHUNK);
        }
        let kib = 1 << 10;
        assert_eq!(
            chunk_sizes(&slab),
            [
                64 * kib,
                128 * kib,
                256 * kib,
                512 * kib,
                1024 * kib,
                2048 * kib,
                2048 * kib,
                2048 * kib
            ]
        );
        let chunks = slab.chunks.lock().unwrap();
        for (chunk, layout) in &chunks.held[5..] {
            assert_eq!(layout.align(), Slab::HUGE_CHUNK);
            assert_eq!(chunk.as_ptr() as usize % Slab::HUGE_CHUNK, 0);
        }
    }

    #[test]
    fn only_an_aligned_huge_chunk_is_advised() {
        let huge = Layout::from_size_align(Slab::HUGE_CHUNK, Slab::HUGE_CHUNK).unwrap();
        let small = Layout::from_size_align(Slab::FIRST_CHUNK, Slab::ALIGN).unwrap();
        // SAFETY: non-zero sizes; freed below.
        let (h, s) = unsafe { (alloc(huge), alloc(small)) };
        assert!(!h.is_null() && !s.is_null());
        let on_linux = cfg!(target_os = "linux").then_some(0);
        assert_eq!(
            advise_huge(h, Slab::HUGE_CHUNK),
            on_linux,
            "madvise returns 0"
        );
        assert_eq!(advise_huge(s, Slab::FIRST_CHUNK), None);
        // One byte in, the huge chunk is no longer 2 MiB-aligned.
        assert_eq!(advise_huge(h.wrapping_add(64), Slab::HUGE_CHUNK), None);
        // SAFETY: allocated above with these layouts.
        unsafe {
            dealloc(h, huge);
            dealloc(s, small);
        }
    }

    #[test]
    #[should_panic(expected = "slab pieces are at most")]
    fn a_piece_larger_than_the_first_chunk_is_refused() {
        Slab::new().alloc(Slab::FIRST_CHUNK + 1);
    }

    #[test]
    fn concurrent_allocations_never_share_a_piece() {
        let slab = Slab::new();
        let mut pieces: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        (0..5_000)
                            .map(|_| slab.alloc(100).as_ptr() as usize)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        pieces.sort_unstable();
        for pair in pieces.windows(2) {
            assert!(pair[1] - pair[0] >= 128, "overlapping pieces");
        }
    }
}
