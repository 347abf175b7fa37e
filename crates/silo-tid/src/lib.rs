//! Transaction ID (TID) words for silo-rs.
//!
//! Silo concurrency control centers on TIDs (paper §4.2). A TID identifies a
//! transaction and a record version, serves as a record lock (latch), and is
//! the unit of conflict detection. Each record carries the TID word of the
//! transaction that most recently modified it.
//!
//! A TID word is a 64-bit integer laid out as:
//!
//! ```text
//!  63                         24 23                     3  2  1  0
//! +-----------------------------+------------------------+--+--+--+
//! |        epoch (40 bits)      |   sequence (21 bits)   |AB|LV|LK|
//! +-----------------------------+------------------------+--+--+--+
//! ```
//!
//! * `LK` — lock bit: a short-term latch protecting record memory.
//! * `LV` — latest-version bit: set while the record holds the latest data
//!   for its key; cleared when the record is superseded (e.g. kept only for
//!   snapshot transactions).
//! * `AB` — absent bit: the record is logically equivalent to a missing key
//!   (used by insert placeholders and deletes).
//! * `sequence` — distinguishes transactions committing within the same epoch.
//! * `epoch` — the global epoch at the transaction's commit time. The high
//!   placement makes TID comparison across epochs agree with the serial order.
//!
//! The split (40/21/3) differs slightly from the paper's informal "high bits /
//! middle bits / three low bits" description only in the exact widths; the
//! paper does not fix them. 40 epoch bits at one epoch per 40 ms is ~1,400
//! years before wraparound, and 21 sequence bits allow 2M commits per worker
//! per epoch, far above anything a worker can execute in 40 ms.
//!
//! [`TidWord`] is the plain-integer view (encode/decode/helpers);
//! [`AtomicTidWord`] wraps an `AtomicU64` and provides the lock/unlock and
//! read-validation operations the commit protocol uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use core::sync::atomic::{AtomicU64, Ordering};

mod generator;

pub use generator::{GlobalTidGenerator, TidGenerator};

/// Number of low bits reserved for status flags.
pub const STATUS_BITS: u32 = 3;
/// Number of bits used for the per-epoch sequence number.
pub const SEQUENCE_BITS: u32 = 21;
/// Number of bits used for the epoch number.
pub const EPOCH_BITS: u32 = 64 - STATUS_BITS - SEQUENCE_BITS;

/// Bit mask of the lock bit.
pub const LOCK_BIT: u64 = 1 << 0;
/// Bit mask of the latest-version bit.
pub const LATEST_BIT: u64 = 1 << 1;
/// Bit mask of the absent bit.
pub const ABSENT_BIT: u64 = 1 << 2;
/// Mask covering all three status bits.
pub const STATUS_MASK: u64 = LOCK_BIT | LATEST_BIT | ABSENT_BIT;

/// Maximum representable sequence number within an epoch.
pub const MAX_SEQUENCE: u64 = (1 << SEQUENCE_BITS) - 1;
/// Maximum representable epoch number.
pub const MAX_EPOCH: u64 = (1 << EPOCH_BITS) - 1;

const EPOCH_SHIFT: u32 = STATUS_BITS + SEQUENCE_BITS;

/// A pure transaction ID: the (epoch, sequence) pair without status bits.
///
/// `Tid` values are totally ordered; across epochs the order agrees with the
/// serial order of committed transactions (paper §4.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tid(u64);

impl Tid {
    /// The zero TID, used for freshly inserted (absent placeholder) records.
    pub const ZERO: Tid = Tid(0);

    /// Builds a TID from an epoch and a per-epoch sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` or `sequence` exceed their field widths.
    pub fn new(epoch: u64, sequence: u64) -> Self {
        assert!(epoch <= MAX_EPOCH, "epoch {epoch} out of range");
        assert!(sequence <= MAX_SEQUENCE, "sequence {sequence} out of range");
        Tid((epoch << (EPOCH_SHIFT - STATUS_BITS)) | sequence)
    }

    /// Reconstructs a TID from its raw shifted representation
    /// (i.e. a TID word with the status bits stripped and shifted out).
    pub fn from_raw(raw: u64) -> Self {
        Tid(raw)
    }

    /// Raw shifted representation (no status bits).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The epoch in which the owning transaction committed.
    pub fn epoch(self) -> u64 {
        self.0 >> (EPOCH_SHIFT - STATUS_BITS)
    }

    /// The per-epoch sequence number.
    pub fn sequence(self) -> u64 {
        self.0 & MAX_SEQUENCE
    }

    /// Returns the smallest TID in `epoch` that is strictly greater than both
    /// `self` and `other`, implementing the paper's TID-generation rule:
    /// the result is (a) larger than any TID observed, (b) larger than the
    /// worker's previously chosen TID and (c) lies in the current epoch.
    ///
    /// # Panics
    ///
    /// Panics if [`Tid::next_exhausts_epoch`]: callers that can wait for
    /// the next epoch check first.
    pub fn next_after(self, other: Tid, epoch: u64) -> Tid {
        let floor = self.max(other);
        assert!(
            !self.next_exhausts_epoch(other, epoch),
            "TID sequence of epoch {} exhausted: a worker drew 2^{SEQUENCE_BITS} TIDs \
             in one epoch (a read-only commit waits for the next epoch instead; a \
             writer cannot, so the epoch advancer must have stalled)",
            floor.epoch()
        );
        let candidate = if floor.epoch() >= epoch {
            // Observed TIDs already reach (or exceed) the current epoch:
            // keep counting within the observed epoch.
            Tid::new(floor.epoch(), floor.sequence() + 1)
        } else {
            Tid::new(epoch, 0)
        };
        debug_assert!(candidate > self && candidate > other);
        candidate
    }

    /// Whether [`Tid::next_after`]`(other, epoch)` would run out of sequence
    /// numbers: the larger of the two TIDs is already the last one of an
    /// epoch at or after `epoch`. A later `epoch` makes room again.
    pub fn next_exhausts_epoch(self, other: Tid, epoch: u64) -> bool {
        let floor = self.max(other);
        floor.epoch() >= epoch && floor.sequence() == MAX_SEQUENCE
    }
}

impl fmt::Debug for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tid(e{}, s{})", self.epoch(), self.sequence())
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.epoch(), self.sequence())
    }
}

/// A TID word: a [`Tid`] plus the three status bits, as stored in a record
/// header or observed by the read-validation protocol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TidWord(u64);

impl TidWord {
    /// A zero word: TID 0, unlocked, not latest, not absent.
    pub const ZERO: TidWord = TidWord(0);

    /// Builds a word from its raw 64-bit representation.
    pub fn from_raw(raw: u64) -> Self {
        TidWord(raw)
    }

    /// Raw 64-bit representation.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Builds a word from a TID and explicit status flags.
    pub fn new(tid: Tid, locked: bool, latest: bool, absent: bool) -> Self {
        let mut raw = tid.raw() << STATUS_BITS;
        if locked {
            raw |= LOCK_BIT;
        }
        if latest {
            raw |= LATEST_BIT;
        }
        if absent {
            raw |= ABSENT_BIT;
        }
        TidWord(raw)
    }

    /// The pure TID contained in this word.
    pub fn tid(self) -> Tid {
        Tid::from_raw(self.0 >> STATUS_BITS)
    }

    /// Replaces the TID, keeping the status bits.
    pub fn with_tid(self, tid: Tid) -> Self {
        TidWord((tid.raw() << STATUS_BITS) | (self.0 & STATUS_MASK))
    }

    /// Whether the lock (latch) bit is set.
    pub fn is_locked(self) -> bool {
        self.0 & LOCK_BIT != 0
    }

    /// Whether the latest-version bit is set.
    pub fn is_latest(self) -> bool {
        self.0 & LATEST_BIT != 0
    }

    /// Whether the absent bit is set.
    pub fn is_absent(self) -> bool {
        self.0 & ABSENT_BIT != 0
    }

    /// Returns a copy with the lock bit set or cleared.
    pub fn with_locked(self, locked: bool) -> Self {
        if locked {
            TidWord(self.0 | LOCK_BIT)
        } else {
            TidWord(self.0 & !LOCK_BIT)
        }
    }

    /// Returns a copy with the latest-version bit set or cleared.
    pub fn with_latest(self, latest: bool) -> Self {
        if latest {
            TidWord(self.0 | LATEST_BIT)
        } else {
            TidWord(self.0 & !LATEST_BIT)
        }
    }

    /// Returns a copy with the absent bit set or cleared.
    pub fn with_absent(self, absent: bool) -> Self {
        if absent {
            TidWord(self.0 | ABSENT_BIT)
        } else {
            TidWord(self.0 & !ABSENT_BIT)
        }
    }

    /// Two words are *version-equal* when everything except the lock bit
    /// matches: the read-validation step ignores whether the observing
    /// transaction itself holds the lock.
    pub fn same_version(self, other: TidWord) -> bool {
        (self.0 & !LOCK_BIT) == (other.0 & !LOCK_BIT)
    }
}

impl fmt::Debug for TidWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TidWord({:?}, lock={}, latest={}, absent={})",
            self.tid(),
            self.is_locked(),
            self.is_latest(),
            self.is_absent()
        )
    }
}

/// An atomically updatable TID word, as embedded in every record header.
///
/// This type provides the latch operations used by Phase 1 / Phase 3 of the
/// commit protocol and the stable-read snapshot used by the record read
/// protocol (paper §4.4, §4.5).
#[derive(Debug, Default)]
pub struct AtomicTidWord(AtomicU64);

impl AtomicTidWord {
    /// Creates a new atomic word holding `word`.
    pub fn new(word: TidWord) -> Self {
        AtomicTidWord(AtomicU64::new(word.raw()))
    }

    /// Loads the current word with `Acquire` ordering.
    pub fn load(&self) -> TidWord {
        TidWord::from_raw(self.0.load(Ordering::Acquire))
    }

    /// Loads the current word with `Relaxed` ordering (statistics only).
    pub fn load_relaxed(&self) -> TidWord {
        TidWord::from_raw(self.0.load(Ordering::Relaxed))
    }

    /// Stores `word` with `Release` ordering.
    ///
    /// The caller must hold the lock bit (or be the sole owner of the record,
    /// e.g. during load / recovery) for this to be meaningful.
    pub fn store(&self, word: TidWord) {
        self.0.store(word.raw(), Ordering::Release);
    }

    /// Attempts to acquire the lock bit once.
    ///
    /// Returns `true` on success. Does not spin.
    pub fn try_lock(&self) -> bool {
        let cur = self.0.load(Ordering::Relaxed);
        if cur & LOCK_BIT != 0 {
            return false;
        }
        self.0
            .compare_exchange_weak(cur, cur | LOCK_BIT, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Acquires the lock bit, spinning until it is available.
    ///
    /// The Silo commit protocol sorts the write-set by record address before
    /// locking, which rules out deadlock among committing transactions, so an
    /// unbounded spin is appropriate here.
    pub fn lock(&self) {
        let mut spins = 0u32;
        loop {
            if self.try_lock() {
                return;
            }
            spins = spins.wrapping_add(1);
            if spins % 64 == 0 {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }

    /// Releases the lock bit without changing the TID or other status bits.
    ///
    /// Used when a commit aborts after Phase 1: locks must be released while
    /// leaving the record version untouched.
    pub fn unlock(&self) {
        // The word (apart from the lock bit) is stable while we hold the lock,
        // so a fetch_and is sufficient and keeps the operation a single RMW.
        self.0.fetch_and(!LOCK_BIT, Ordering::Release);
    }

    /// Atomically installs a new TID (and status bits) *and* releases the
    /// lock in a single store, as required by Phase 3: a concurrent reader
    /// that observes the cleared lock must also observe the new TID.
    pub fn store_and_unlock(&self, word: TidWord) {
        debug_assert!(
            self.load_relaxed().is_locked(),
            "store_and_unlock called on an unlocked record"
        );
        self.0
            .store(word.with_locked(false).raw(), Ordering::Release);
    }

    /// Spins until the lock bit is clear and returns the observed word.
    ///
    /// This is step (a) of the record read protocol (§4.5): "read the TID
    /// word, spinning until the lock is clear".
    pub fn read_stable(&self) -> TidWord {
        let mut spins = 0u32;
        loop {
            let w = TidWord::from_raw(self.0.load(Ordering::Acquire));
            if !w.is_locked() {
                return w;
            }
            spins = spins.wrapping_add(1);
            if spins % 64 == 0 {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }
}

impl Clone for AtomicTidWord {
    fn clone(&self) -> Self {
        AtomicTidWord(AtomicU64::new(self.0.load(Ordering::Acquire)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn tid_roundtrip_fields() {
        let t = Tid::new(42, 1234);
        assert_eq!(t.epoch(), 42);
        assert_eq!(t.sequence(), 1234);
    }

    #[test]
    fn tid_zero_is_smallest() {
        assert_eq!(Tid::ZERO.epoch(), 0);
        assert_eq!(Tid::ZERO.sequence(), 0);
        assert!(Tid::ZERO <= Tid::new(0, 0));
        assert!(Tid::ZERO < Tid::new(0, 1));
        assert!(Tid::ZERO < Tid::new(1, 0));
    }

    #[test]
    fn tid_order_respects_epoch_then_sequence() {
        assert!(Tid::new(1, 100) < Tid::new(2, 0));
        assert!(Tid::new(3, 5) < Tid::new(3, 6));
        assert!(Tid::new(3, MAX_SEQUENCE) < Tid::new(4, 0));
    }

    #[test]
    #[should_panic(expected = "sequence")]
    fn tid_rejects_oversized_sequence() {
        let _ = Tid::new(0, MAX_SEQUENCE + 1);
    }

    #[test]
    #[should_panic(expected = "epoch")]
    fn tid_rejects_oversized_epoch() {
        let _ = Tid::new(MAX_EPOCH + 1, 0);
    }

    #[test]
    fn next_after_moves_to_new_epoch() {
        let prev = Tid::new(3, 17);
        let observed = Tid::new(2, 900);
        let next = prev.next_after(observed, 5);
        assert_eq!(next.epoch(), 5);
        assert_eq!(next.sequence(), 0);
        assert!(next > prev && next > observed);
    }

    #[test]
    fn next_after_increments_within_epoch() {
        let prev = Tid::new(5, 17);
        let observed = Tid::new(5, 40);
        let next = prev.next_after(observed, 5);
        assert_eq!(next.epoch(), 5);
        assert_eq!(next.sequence(), 41);
    }

    #[test]
    fn next_after_handles_observed_from_future_epoch() {
        // A record written in epoch 7 can be read by a worker whose cached
        // epoch snapshot is 6: the generated TID must still exceed it.
        let prev = Tid::new(5, 2);
        let observed = Tid::new(7, 9);
        let next = prev.next_after(observed, 6);
        assert!(next > observed);
        assert_eq!(next.epoch(), 7);
        assert_eq!(next.sequence(), 10);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn next_after_refuses_an_exhausted_epoch() {
        let last = Tid::new(5, MAX_SEQUENCE);
        assert!(last.next_exhausts_epoch(Tid::ZERO, 5));
        assert!(Tid::ZERO.next_exhausts_epoch(last, 4));
        assert!(!last.next_exhausts_epoch(Tid::ZERO, 6));
        assert_eq!(last.next_after(Tid::ZERO, 6), Tid::new(6, 0));
        let _ = last.next_after(Tid::ZERO, 5);
    }

    #[test]
    fn tidword_status_bits_roundtrip() {
        let w = TidWord::new(Tid::new(9, 3), true, true, false);
        assert!(w.is_locked());
        assert!(w.is_latest());
        assert!(!w.is_absent());
        assert_eq!(w.tid(), Tid::new(9, 3));

        let w2 = w.with_locked(false).with_absent(true).with_latest(false);
        assert!(!w2.is_locked());
        assert!(!w2.is_latest());
        assert!(w2.is_absent());
        assert_eq!(w2.tid(), Tid::new(9, 3));
    }

    #[test]
    fn tidword_with_tid_preserves_status() {
        let w = TidWord::new(Tid::new(1, 1), false, true, true);
        let w2 = w.with_tid(Tid::new(8, 0));
        assert_eq!(w2.tid(), Tid::new(8, 0));
        assert!(w2.is_latest());
        assert!(w2.is_absent());
        assert!(!w2.is_locked());
    }

    #[test]
    fn same_version_ignores_lock_bit() {
        let a = TidWord::new(Tid::new(4, 4), false, true, false);
        let b = a.with_locked(true);
        assert!(a.same_version(b));
        let c = a.with_tid(Tid::new(4, 5));
        assert!(!a.same_version(c));
        let d = a.with_latest(false);
        assert!(!a.same_version(d));
    }

    #[test]
    fn atomic_lock_unlock() {
        let w = AtomicTidWord::new(TidWord::new(Tid::new(1, 1), false, true, false));
        assert!(w.try_lock());
        assert!(!w.try_lock());
        assert!(w.load().is_locked());
        w.unlock();
        assert!(!w.load().is_locked());
        assert_eq!(w.load().tid(), Tid::new(1, 1));
    }

    #[test]
    fn atomic_store_and_unlock_publishes_new_tid() {
        let w = AtomicTidWord::new(TidWord::new(Tid::new(1, 1), false, true, false));
        w.lock();
        w.store_and_unlock(TidWord::new(Tid::new(2, 0), true, true, false));
        let observed = w.load();
        assert!(!observed.is_locked());
        assert_eq!(observed.tid(), Tid::new(2, 0));
        assert!(observed.is_latest());
    }

    #[test]
    fn read_stable_waits_for_unlock() {
        let w = Arc::new(AtomicTidWord::new(TidWord::new(
            Tid::new(1, 0),
            false,
            true,
            false,
        )));
        w.lock();
        let w2 = Arc::clone(&w);
        let handle = std::thread::spawn(move || w2.read_stable());
        std::thread::sleep(std::time::Duration::from_millis(10));
        w.store_and_unlock(TidWord::new(Tid::new(3, 0), false, true, false));
        let seen = handle.join().unwrap();
        assert!(!seen.is_locked());
        assert_eq!(seen.tid(), Tid::new(3, 0));
    }

    #[test]
    fn concurrent_lock_mutual_exclusion() {
        let w = Arc::new(AtomicTidWord::new(TidWord::ZERO));
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let w = Arc::clone(&w);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    w.lock();
                    // Critical section: non-atomic increment emulated through
                    // a load/store pair would race without mutual exclusion.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    w.unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_tid_roundtrip(epoch in 0..=MAX_EPOCH, seq in 0..=MAX_SEQUENCE) {
            let t = Tid::new(epoch, seq);
            prop_assert_eq!(t.epoch(), epoch);
            prop_assert_eq!(t.sequence(), seq);
            prop_assert_eq!(Tid::from_raw(t.raw()), t);
        }

        #[test]
        fn prop_tid_order_matches_lexicographic(
            e1 in 0..1000u64, s1 in 0..=MAX_SEQUENCE,
            e2 in 0..1000u64, s2 in 0..=MAX_SEQUENCE,
        ) {
            let a = Tid::new(e1, s1);
            let b = Tid::new(e2, s2);
            prop_assert_eq!(a.cmp(&b), (e1, s1).cmp(&(e2, s2)));
        }

        #[test]
        fn prop_tidword_roundtrip(
            epoch in 0..1_000_000u64,
            seq in 0..=MAX_SEQUENCE,
            locked: bool, latest: bool, absent: bool,
        ) {
            let w = TidWord::new(Tid::new(epoch, seq), locked, latest, absent);
            prop_assert_eq!(w.tid(), Tid::new(epoch, seq));
            prop_assert_eq!(w.is_locked(), locked);
            prop_assert_eq!(w.is_latest(), latest);
            prop_assert_eq!(w.is_absent(), absent);
            prop_assert_eq!(TidWord::from_raw(w.raw()), w);
        }

        #[test]
        fn prop_next_after_is_strictly_greater_and_in_epoch(
            pe in 0..500u64, ps in 0..1000u64,
            oe in 0..500u64, os in 0..1000u64,
            epoch in 0..500u64,
        ) {
            let prev = Tid::new(pe, ps);
            let observed = Tid::new(oe, os);
            let next = prev.next_after(observed, epoch);
            prop_assert!(next > prev);
            prop_assert!(next > observed);
            // The chosen TID is in the current epoch unless an observed TID
            // already comes from a later epoch.
            prop_assert!(next.epoch() >= epoch);
            prop_assert!(next.epoch() <= epoch.max(pe).max(oe));
        }
    }
}
