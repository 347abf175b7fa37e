//! The transaction's keyed sets: a `Vec` of entries in insertion order with
//! an open-addressed hash index over it, so a lookup costs the same whether
//! the transaction has written ten keys or ten thousand.
//!
//! The write-set is looked up by `(table, key)` on every operation and the
//! node-set by `(table, leaf)` on every absent read, scan and insert fix-up.
//! Both stay tiny in the common case, where a linear scan over a few
//! contiguous entries beats hashing; past [`LINEAR_SET_MAX`] entries the
//! index takes over. Index slots are stamped with a generation, so clearing
//! the set between transactions is O(1) and the slot array — like the entry
//! `Vec` — is retained: a warmed worker allocates nothing here.

/// Sets of at most this many entries are searched linearly and maintain no
/// index.
const LINEAR_SET_MAX: usize = 8;

/// Smallest slot array; avoids regrowing through 16, 32, 64.
const MIN_SLOTS: usize = 64;

/// An entry that knows the hash of its own key, so the index can be rebuilt
/// from the entries alone.
pub(crate) trait Keyed {
    fn key_hash(&self) -> u64;
}

/// Insertion-ordered entries plus a hash index mapping a key hash to the
/// entry's position. The index is only consulted by [`IndexedSet::find`];
/// code that reorders `entries` in place (the commit protocol sorts the
/// write-set by record address) must not call `find` or `push` afterwards.
#[derive(Debug)]
pub(crate) struct IndexedSet<T> {
    pub(crate) entries: Vec<T>,
    /// `generation << 32 | position`, linear probing, at most half full. A
    /// slot stamped with any other generation is empty.
    slots: Vec<u64>,
    /// Never 0, so zeroed slots are empty.
    generation: u32,
}

impl<T> Default for IndexedSet<T> {
    fn default() -> Self {
        IndexedSet {
            entries: Vec::new(),
            slots: Vec::new(),
            generation: 1,
        }
    }
}

impl<T: Keyed> IndexedSet<T> {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the set, retaining both allocations.
    pub(crate) fn clear(&mut self) {
        if self.entries.len() > LINEAR_SET_MAX {
            self.generation = self.generation.wrapping_add(1);
            if self.generation == 0 {
                self.slots.fill(0);
                self.generation = 1;
            }
        }
        self.entries.clear();
    }

    /// Position of the entry `is_match` accepts among those whose key hashes
    /// to `hash()`. `hash` is only evaluated when the index is in use.
    pub(crate) fn find(
        &self,
        hash: impl FnOnce() -> u64,
        is_match: impl Fn(&T) -> bool,
    ) -> Option<usize> {
        if self.entries.len() <= LINEAR_SET_MAX {
            return self.entries.iter().position(is_match);
        }
        let mask = self.slots.len() - 1;
        let mut at = hash() as usize & mask;
        loop {
            let slot = self.slots[at];
            if (slot >> 32) as u32 != self.generation {
                return None;
            }
            let position = slot as u32 as usize;
            if is_match(&self.entries[position]) {
                return Some(position);
            }
            at = (at + 1) & mask;
        }
    }

    /// Appends `entry`. The caller has established (with `find`) that no
    /// entry with its key is present.
    pub(crate) fn push(&mut self, entry: T) {
        self.entries.push(entry);
        let n = self.entries.len();
        if n <= LINEAR_SET_MAX {
            return;
        }
        let grow = n * 2 > self.slots.len();
        if grow {
            // Zeroed slots carry generation 0: all empty.
            let capacity = (n * 2).next_power_of_two().max(MIN_SLOTS);
            self.slots.clear();
            self.slots.resize(capacity, 0);
        }
        // Everything it holds goes in when the slots are new or the set has
        // just outgrown the linear scan; the new entry alone otherwise.
        let rebuild = grow || n == LINEAR_SET_MAX + 1;
        self.index_from(if rebuild { 0 } else { n - 1 });
    }

    fn index_from(&mut self, first: usize) {
        let mask = self.slots.len() - 1;
        let stamp = (self.generation as u64) << 32;
        for position in first..self.entries.len() {
            let mut at = self.entries[position].key_hash() as usize & mask;
            while (self.slots[at] >> 32) as u32 == self.generation {
                at = (at + 1) & mask;
            }
            self.slots[at] = stamp | position as u64;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test switch: collapse every hash to two bits, so every probe
    /// sequence collides and the index degenerates to a scan.
    pub(crate) static DEGENERATE_HASH: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// Folds `word` into the running hash `h`.
#[inline]
pub(crate) fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Final avalanche, so that the low bits — the ones the index uses — depend
/// on every input bit.
#[inline]
pub(crate) fn finish(h: u64) -> u64 {
    #[cfg(test)]
    if DEGENERATE_HASH.with(|d| d.get()) {
        return h & 3;
    }
    let h = (h ^ (h >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 29)
}

/// Hash of a `(table, key bytes)` pair.
pub(crate) fn hash_bytes(table: u32, key: &[u8]) -> u64 {
    let mut h = mix(table as u64, key.len() as u64);
    let mut words = key.chunks_exact(8);
    for word in &mut words {
        h = mix(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(last));
    }
    finish(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Item(u64);

    impl Keyed for Item {
        fn key_hash(&self) -> u64 {
            finish(mix(0, self.0))
        }
    }

    fn find(set: &IndexedSet<Item>, key: u64) -> Option<usize> {
        set.find(|| Item(key).key_hash(), |e| e.0 == key)
    }

    fn exercise(sizes: &[usize]) {
        let mut set = IndexedSet::default();
        for &n in sizes {
            for k in 0..n as u64 {
                assert_eq!(find(&set, k * 3), None);
                set.push(Item(k * 3));
                assert_eq!(find(&set, k * 3), Some(k as usize));
            }
            assert_eq!(set.len(), n);
            for k in 0..n as u64 {
                assert_eq!(find(&set, k * 3), Some(k as usize));
                assert_eq!(find(&set, k * 3 + 1), None);
            }
            set.clear();
            assert!(set.is_empty());
            assert_eq!(find(&set, 0), None);
        }
    }

    #[test]
    fn finds_every_entry_across_sizes_and_reuse() {
        // Small after large: stale slots of earlier generations must read
        // as empty; large after small: the index is built at the threshold.
        exercise(&[0, 1, 8, 9, 2000, 5, 9, 33, 2000, 64]);
    }

    #[test]
    fn degenerate_hash_still_finds_every_entry() {
        DEGENERATE_HASH.with(|d| d.set(true));
        exercise(&[9, 300, 12]);
        DEGENERATE_HASH.with(|d| d.set(false));
    }

    #[test]
    fn generation_wrap_clears_the_slots() {
        let mut set = IndexedSet::default();
        for k in 0..20 {
            set.push(Item(k));
        }
        set.generation = u32::MAX;
        set.slots.fill(0);
        set.index_from(0);
        set.clear();
        assert_eq!(set.generation, 1);
        assert!(set.slots.iter().all(|&s| s == 0));
        for k in 0..20 {
            set.push(Item(k + 100));
        }
        assert_eq!(find(&set, 105), Some(5));
        assert_eq!(find(&set, 5), None);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut set = IndexedSet::default();
        for k in 0..1024 {
            set.push(Item(k));
        }
        let (entries, slots) = (set.entries.capacity(), set.slots.capacity());
        set.clear();
        for k in 0..1024 {
            set.push(Item(k));
        }
        assert_eq!(
            (set.entries.capacity(), set.slots.capacity()),
            (entries, slots)
        );
    }
}
