//! Fixed-capacity stack storage for the TPC-C transactions, which must not
//! touch the allocator: order lines, scanned ids, and copies of rows that a
//! transaction patches and writes back.

use std::ops::{Deref, DerefMut};

use super::schema::string_prefix;

/// A list of at most `N` items stored inline.
#[derive(Debug, Clone, Copy)]
pub(super) struct StackVec<T: Copy, const N: usize> {
    len: usize,
    items: [T; N],
}

impl<T: Copy, const N: usize> StackVec<T, N> {
    /// An empty list; `fill` only initializes the unused slots.
    pub(super) fn new(fill: T) -> Self {
        StackVec {
            len: 0,
            items: [fill; N],
        }
    }

    /// Appends `item`; returns `false` (dropping it) when the list is full.
    pub(super) fn push(&mut self, item: T) -> bool {
        let Some(slot) = self.items.get_mut(self.len) else {
            return false;
        };
        *slot = item;
        self.len += 1;
        true
    }
}

impl<T: Copy, const N: usize> Deref for StackVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T: Copy, const N: usize> DerefMut for StackVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

/// The bytes of one encoded row, on the stack. `N` is chosen per use from
/// the longest row the schema can produce (the loader and the transactions
/// bound every string); appending past it panics.
pub(super) type RowBuf<const N: usize> = StackVec<u8, N>;

impl<const N: usize> RowBuf<N> {
    /// A buffer holding a copy of `row`.
    pub(super) fn copy_of(row: &[u8]) -> Self {
        let mut buf = StackVec::new(0);
        buf.extend(row);
        buf
    }

    /// Appends `bytes`.
    pub(super) fn extend(&mut self, bytes: &[u8]) {
        self.items[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// Appends one length-prefixed string, the concatenation of `parts`, as
    /// the row coders of [`super::schema`] lay strings out.
    pub(super) fn put_str(&mut self, parts: &[&[u8]]) {
        self.extend(&string_prefix(parts.iter().map(|p| p.len()).sum()));
        for part in parts {
            self.extend(part);
        }
    }
}

impl<const N: usize> std::fmt::Write for RowBuf<N> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        if s.len() > N - self.len {
            return Err(std::fmt::Error);
        }
        self.extend(s.as_bytes());
        Ok(())
    }
}
