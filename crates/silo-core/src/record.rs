//! Record layout and the record read/write protocols (paper §4.3, §4.5).
//!
//! A record contains:
//!
//! * a **TID word** ([`AtomicTidWord`]) — the TID of the transaction that
//!   most recently modified the record, plus the lock / latest-version /
//!   absent status bits;
//! * a **previous-version pointer** — a singly linked chain of superseded
//!   versions kept for snapshot transactions (§4.9);
//! * the **record data** — an inline byte buffer of fixed capacity. When an
//!   update fits into the existing capacity and no snapshot needs the old
//!   version, Silo overwrites the data in place (§4.5), which is the
//!   `+Overwrites` factor of Figure 11.
//!
//! A record and its data buffer are **one** piece of memory: the header is
//! followed immediately by `cap` data bytes (the layout the paper's C++
//! implementation uses). This halves allocator traffic per record, keeps the
//! TID word and the data it guards on the same cache lines, and lets the
//! per-worker pool recycle the whole record with a single pointer.
//!
//! A record comes either from the global allocator ([`Record::allocate`],
//! freed by [`Record::free`]) or, under `+Allocator`, from its database's
//! record slab (`Record::carve`). The record says which
//! ([`Record::from_slab`]): a slab record is only ever recycled, and its
//! memory goes back with the slab's chunks when the database drops.
//!
//! # Reading record data
//!
//! Because committed transactions may overwrite record data in place,
//! readers use a version-validation protocol ([`Record::read_consistent`]):
//! read the TID word (spinning while locked), copy the data, then re-read the
//! TID word; if it changed, retry. The byte copy itself can race with an
//! in-flight in-place overwrite — the copied bytes are discarded in that case
//! because the trailing TID check fails. This is the same seqlock-style
//! discipline the paper describes; the data buffer contains only plain bytes
//! (never pointers the reader would dereference), and disabling
//! `overwrite_in_place` removes the race entirely (every update then installs
//! a freshly allocated record).

use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicPtr, AtomicUsize, Ordering};

use silo_tid::{AtomicTidWord, TidWord};

/// A heap-allocated record. Records are reference by raw pointer from index
/// leaves and from previous-version chains; their lifetime is governed by the
/// epoch-based reclamation scheme (§4.8), never by Rust ownership alone.
///
/// The data buffer lives *inside* the record's own allocation, immediately
/// after the header; `buf` caches its address (it cannot be recomputed from a
/// `&Record` without losing provenance over the tail of the allocation).
#[derive(Debug)]
pub struct Record {
    tid: AtomicTidWord,
    prev: AtomicPtr<Record>,
    len: AtomicUsize,
    cap: usize,
    buf: *mut u8,
    /// Carved from a record slab: never freed on its own.
    from_slab: bool,
}

// SAFETY: all mutable state is accessed through atomics or under the record
// lock per the protocols documented above; the data buffer is plain bytes.
unsafe impl Send for Record {}
// SAFETY: see above.
unsafe impl Sync for Record {}

impl Record {
    /// The layout of a record with `cap` inline data bytes: the header
    /// followed by the buffer, in a single allocation.
    fn layout_for(cap: usize) -> Layout {
        let header = Layout::new::<Record>();
        // `u8` needs no alignment, so the data begins exactly at the end of
        // the header and the combined layout keeps the header's alignment.
        Layout::from_size_align(header.size() + cap, header.align()).expect("record layout")
    }

    /// The bytes a record with `cap` data bytes occupies.
    pub(crate) fn size_for(cap: usize) -> usize {
        Self::layout_for(cap).size()
    }

    /// Allocates a record holding a copy of `data`, with capacity at least
    /// `max(data.len(), min_capacity)`, and the given initial TID word.
    /// Returns a leaked pointer; free with [`Record::free`].
    pub fn allocate(data: &[u8], word: TidWord, min_capacity: usize) -> *mut Record {
        let cap = data.len().max(min_capacity);
        let layout = Self::layout_for(cap);
        // SAFETY: the layout has non-zero size (the header alone is not
        // empty).
        let raw = NonNull::new(unsafe { std::alloc::alloc(layout) })
            .unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        // SAFETY: `raw` is a fresh allocation of `layout_for(cap)` bytes.
        unsafe { Self::init(raw, data, word, cap, false) }
    }

    /// Builds a record holding a copy of `data`, with capacity `cap`, in a
    /// piece of a record slab. The record is never freed: it is recycled,
    /// and its memory goes back when the slab drops.
    ///
    /// # Safety
    ///
    /// `raw` must be 8-byte aligned, hold `Record::size_for(cap)` bytes that
    /// nothing else uses, and stay valid for as long as the record is used;
    /// `data.len()` must not exceed `cap`.
    pub(crate) unsafe fn carve(
        raw: NonNull<u8>,
        data: &[u8],
        word: TidWord,
        cap: usize,
    ) -> *mut Record {
        debug_assert!(data.len() <= cap);
        // SAFETY: forwarded from the caller's contract.
        unsafe { Self::init(raw, data, word, cap, true) }
    }

    /// Writes a fresh record header and `data` at `raw`.
    ///
    /// # Safety
    ///
    /// `raw` must be aligned for `Record` and hold `size_for(cap)` bytes
    /// that nothing else uses; `data.len() <= cap`.
    unsafe fn init(
        raw: NonNull<u8>,
        data: &[u8],
        word: TidWord,
        cap: usize,
        from_slab: bool,
    ) -> *mut Record {
        let ptr = raw.as_ptr() as *mut Record;
        // SAFETY: per the contract, big enough for the header plus `cap`
        // data bytes right after it.
        unsafe {
            let buf = raw.as_ptr().add(std::mem::size_of::<Record>());
            ptr.write(Record {
                tid: AtomicTidWord::new(word),
                prev: AtomicPtr::new(std::ptr::null_mut()),
                len: AtomicUsize::new(data.len()),
                cap,
                buf,
                from_slab,
            });
            if !data.is_empty() {
                std::ptr::copy_nonoverlapping(data.as_ptr(), buf, data.len());
            }
        }
        ptr
    }

    /// Frees a record previously produced by [`Record::allocate`].
    ///
    /// # Panics
    ///
    /// If the record was carved from a slab: such a record never goes back
    /// to the global allocator.
    ///
    /// # Safety
    ///
    /// `ptr` must point at a live record, must not have been freed already,
    /// and no other thread may access it afterwards (callers defer this
    /// through the epoch-based reclamation scheme).
    pub unsafe fn free(ptr: *mut Record) {
        debug_assert!(!ptr.is_null());
        // SAFETY: a live record per the caller's contract.
        let (cap, from_slab) = unsafe { ((*ptr).cap, (*ptr).from_slab) };
        assert!(!from_slab, "a slab record reached the global allocator");
        // SAFETY: allocated by `allocate` with exactly this layout. No field
        // of `Record` owns heap memory (the data bytes live inside this same
        // allocation), so deallocating is all the cleanup there is.
        unsafe { std::alloc::dealloc(ptr as *mut u8, Self::layout_for(cap)) };
    }

    /// Whether the record was carved from a record slab (`Record::carve`)
    /// rather than allocated on its own.
    pub fn from_slab(&self) -> bool {
        self.from_slab
    }

    /// Re-initializes a recycled record allocation with new contents, for the
    /// per-worker allocation pool (`+Allocator`).
    ///
    /// # Safety
    ///
    /// The caller must own `ptr` exclusively (it was reclaimed and has not
    /// been republished), and `data.len()` must not exceed its capacity.
    pub unsafe fn reinit(ptr: *mut Record, data: &[u8], word: TidWord) {
        // SAFETY: exclusive ownership per the caller's contract.
        let rec = unsafe { &*ptr };
        debug_assert!(data.len() <= rec.cap);
        if !data.is_empty() {
            // SAFETY: capacity checked above; exclusive ownership.
            unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), rec.buf, data.len()) };
        }
        rec.len.store(data.len(), Ordering::Release);
        rec.prev.store(std::ptr::null_mut(), Ordering::Release);
        rec.tid.store(word);
    }

    /// Hints the two cache lines after the record's first into L1. The
    /// first line (TID word, length) is demand-loaded by the read protocol
    /// immediately; the data of a ~100-byte record spills onto the next two,
    /// which would otherwise miss one after the other once the copy starts.
    /// Safe on any address: a prefetch never faults.
    #[inline(always)]
    pub fn prefetch_data(record: *const Record) {
        let line = record as *const u8;
        silo_index::prefetch_line(line.wrapping_add(64));
        silo_index::prefetch_line(line.wrapping_add(128));
    }

    /// The record's TID word.
    pub fn tid(&self) -> &AtomicTidWord {
        &self.tid
    }

    /// The previous (superseded) version, or null.
    pub fn prev(&self) -> *mut Record {
        self.prev.load(Ordering::Acquire)
    }

    /// Links `prev` as the previous version of this record.
    pub fn set_prev(&self, prev: *mut Record) {
        self.prev.store(prev, Ordering::Release);
    }

    /// The data buffer capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The current data length in bytes (racy; exact only under the lock).
    pub fn data_len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether `data` would fit into this record's buffer for an in-place
    /// overwrite.
    pub fn fits(&self, data: &[u8]) -> bool {
        data.len() <= self.cap
    }

    /// Overwrites the record data in place (§4.5 Phase 3, step (a)).
    ///
    /// # Safety
    ///
    /// The caller must hold the record's lock bit and `data` must fit
    /// (`self.fits(data)`). Concurrent readers may be copying the old bytes;
    /// they will discard the copy when their trailing TID-word check fails.
    pub unsafe fn overwrite(&self, data: &[u8]) {
        debug_assert!(self.fits(data));
        if !data.is_empty() {
            // SAFETY: capacity checked by the caller contract; the lock bit
            // excludes concurrent writers.
            unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), self.buf, data.len()) };
        }
        self.len.store(data.len(), Ordering::Release);
        // The paper's step (b): a fence so the new data is visible before the
        // new TID word is published by the subsequent unlocking store.
        fence(Ordering::Release);
    }

    /// Copies the record data into `out` without validation: the copy step of
    /// [`Record::read_consistent`], which checks the TID word around it.
    fn read_data_unvalidated(&self, out: &mut Vec<u8>) {
        out.clear();
        let len = self.len.load(Ordering::Acquire).min(self.cap);
        if len > 0 {
            out.reserve(len);
            // SAFETY: `buf` has `cap >= len` readable bytes for the lifetime
            // of the record.
            unsafe {
                std::ptr::copy_nonoverlapping(self.buf, out.as_mut_ptr(), len);
                out.set_len(len);
            }
        }
    }

    /// The record read protocol of §4.5: spin until unlocked, copy the data,
    /// and re-check the TID word; retry on interference. Returns the TID word
    /// under which the copy is known to be consistent.
    pub fn read_consistent(&self, out: &mut Vec<u8>) -> TidWord {
        loop {
            // (a) read the TID word, spinning until the lock is clear.
            let w1 = self.tid.read_stable();
            // (b)/(c) copy the data (the caller decides what to do about the
            // latest/absent bits; the copy is consistent either way).
            self.read_data_unvalidated(out);
            // (d) memory fence.
            fence(Ordering::Acquire);
            // (e) check the TID word again.
            let w2 = self.tid.load();
            if w1 == w2 {
                return w1;
            }
        }
    }

    /// Walks the previous-version chain (including `self`) and returns the
    /// most recent version whose TID epoch is `≤ snapshot_epoch`, if any.
    ///
    /// Used by snapshot transactions (§4.9). Superseded chain members never
    /// change, but the returned version can be the head, which a writer may
    /// overwrite in place (always so with snapshots disabled). A caller
    /// therefore copies the version with [`Record::read_consistent`] and
    /// walks again if the copied TID word's epoch is past `snapshot_epoch`.
    pub fn snapshot_version(&self, snapshot_epoch: u64) -> Option<&Record> {
        let mut cur: *const Record = self;
        while !cur.is_null() {
            // SAFETY: chain members are only freed after the snapshot
            // reclamation epoch passes, which the caller's `se_w` pin prevents.
            let rec = unsafe { &*cur };
            let word = rec.tid.read_stable();
            if word.tid().epoch() <= snapshot_epoch {
                return Some(rec);
            }
            cur = rec.prev();
        }
        None
    }
}

/// A `Send`-able wrapper around a raw record pointer, used to move record
/// pointers into garbage lists and allocation pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordPtr(pub *mut Record);

// SAFETY: a raw pointer is just an address; the reclamation protocol governs
// when it may be dereferenced or freed.
unsafe impl Send for RecordPtr {}

impl RecordPtr {
    /// The null record pointer.
    pub fn null() -> Self {
        RecordPtr(std::ptr::null_mut())
    }

    /// Whether the pointer is null.
    pub fn is_null(&self) -> bool {
        self.0.is_null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_tid::Tid;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn word(epoch: u64, seq: u64) -> TidWord {
        TidWord::new(Tid::new(epoch, seq), false, true, false)
    }

    #[test]
    fn allocate_read_roundtrip() {
        let r = Record::allocate(b"hello world", word(1, 1), 0);
        // SAFETY: single-threaded test; freed below.
        let rec = unsafe { &*r };
        let mut out = Vec::new();
        let w = rec.read_consistent(&mut out);
        assert_eq!(out, b"hello world");
        assert_eq!(w.tid(), Tid::new(1, 1));
        assert!(w.is_latest());
        assert!(!w.is_absent());
        assert_eq!(rec.capacity(), 11);
        // SAFETY: sole owner.
        unsafe { Record::free(r) };
    }

    #[test]
    fn empty_record_and_min_capacity() {
        let r = Record::allocate(b"", word(1, 0), 32);
        // SAFETY: single-threaded test; freed below.
        let rec = unsafe { &*r };
        assert_eq!(rec.capacity(), 32);
        assert_eq!(rec.data_len(), 0);
        let mut out = vec![1, 2, 3];
        rec.read_consistent(&mut out);
        assert!(out.is_empty());
        assert!(rec.fits(&[0u8; 32]));
        assert!(!rec.fits(&[0u8; 33]));
        // SAFETY: sole owner.
        unsafe { Record::free(r) };
    }

    #[test]
    fn overwrite_in_place_updates_data_and_tid() {
        let r = Record::allocate(b"aaaaaaaa", word(1, 1), 0);
        // SAFETY: single-threaded test; freed below.
        let rec = unsafe { &*r };
        rec.tid().lock();
        // SAFETY: lock held, data fits.
        unsafe { rec.overwrite(b"bbbb") };
        rec.tid().store_and_unlock(word(2, 0));
        let mut out = Vec::new();
        let w = rec.read_consistent(&mut out);
        assert_eq!(out, b"bbbb");
        assert_eq!(w.tid(), Tid::new(2, 0));
        // SAFETY: sole owner.
        unsafe { Record::free(r) };
    }

    #[test]
    fn reinit_resets_contents_and_prev() {
        let r = Record::allocate(b"0123456789", word(1, 1), 0);
        let old = Record::allocate(b"old", word(1, 0), 0);
        // SAFETY: single-threaded test.
        unsafe { (*r).set_prev(old) };
        // SAFETY: exclusive ownership, new data fits in capacity 10.
        unsafe { Record::reinit(r, b"fresh", word(3, 0)) };
        // SAFETY: single-threaded test.
        let rec = unsafe { &*r };
        let mut out = Vec::new();
        let w = rec.read_consistent(&mut out);
        assert_eq!(out, b"fresh");
        assert_eq!(w.tid(), Tid::new(3, 0));
        assert!(rec.prev().is_null());
        // SAFETY: sole owner of both.
        unsafe {
            Record::free(r);
            Record::free(old);
        }
    }

    #[test]
    fn snapshot_version_walks_chain() {
        // Chain: head (epoch 9) -> middle (epoch 5) -> oldest (epoch 2).
        let oldest = Record::allocate(b"v-epoch2", word(2, 1), 0);
        let middle = Record::allocate(b"v-epoch5", word(5, 1), 0);
        let head = Record::allocate(b"v-epoch9", word(9, 1), 0);
        // SAFETY: single-threaded test wiring.
        unsafe {
            (*middle).set_prev(oldest);
            (*head).set_prev(middle);
        }
        // SAFETY: single-threaded test.
        let head_ref = unsafe { &*head };
        let mut out = Vec::new();

        let v = head_ref.snapshot_version(9).unwrap();
        v.read_consistent(&mut out);
        assert_eq!(out, b"v-epoch9");

        let v = head_ref.snapshot_version(7).unwrap();
        v.read_consistent(&mut out);
        assert_eq!(out, b"v-epoch5");

        let v = head_ref.snapshot_version(4).unwrap();
        v.read_consistent(&mut out);
        assert_eq!(out, b"v-epoch2");

        assert!(head_ref.snapshot_version(1).is_none());

        // SAFETY: sole owner of all three.
        unsafe {
            Record::free(head);
            Record::free(middle);
            Record::free(oldest);
        }
    }

    #[test]
    fn read_consistent_never_observes_torn_overwrites() {
        // A writer alternates two equal-length patterns; readers must only
        // ever see one of the two pure patterns when validation succeeds.
        let r = Record::allocate(&[b'A'; 64], word(1, 0), 0);
        let addr = r as usize;
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                // SAFETY: the record outlives the threads (joined before free).
                let rec = unsafe { &*(addr as *const Record) };
                let mut out = Vec::new();
                let mut seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    rec.read_consistent(&mut out);
                    assert_eq!(out.len(), 64);
                    let first = out[0];
                    assert!(first == b'A' || first == b'B', "garbage byte {first}");
                    assert!(
                        out.iter().all(|&b| b == first),
                        "torn read observed: {:?}",
                        &out[..8]
                    );
                    seen += 1;
                }
                seen
            }));
        }
        // SAFETY: the record outlives the writer loop.
        let rec = unsafe { &*r };
        for i in 0..20_000u64 {
            let pattern = if i % 2 == 0 { [b'B'; 64] } else { [b'A'; 64] };
            rec.tid().lock();
            // SAFETY: lock held, data fits.
            unsafe { rec.overwrite(&pattern) };
            rec.tid().store_and_unlock(TidWord::new(
                Tid::new(1, (i % 2_000_000) + 1),
                false,
                true,
                false,
            ));
        }
        stop.store(true, Ordering::Relaxed);
        for t in readers {
            // The assertions inside the reader threads are the real check; on
            // a single-core machine a reader may observe few or no iterations.
            let _ = t.join().unwrap();
        }
        // SAFETY: all readers joined; sole owner now.
        unsafe { Record::free(r) };
    }
}
