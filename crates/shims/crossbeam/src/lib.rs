//! Offline stand-in for [`crossbeam`](https://crates.io/crates/crossbeam).
//!
//! Provides the one piece this workspace uses: [`utils::CachePadded`], a
//! 128-byte-aligned wrapper that keeps hot atomics on their own cache line,
//! matching crossbeam's alignment on modern x86_64/aarch64. Channels come
//! from `std::sync::mpsc` directly.

/// Utilities: cache-line padding.
pub mod utils {
    use std::fmt;
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 128 bytes to avoid false sharing.
    #[derive(Default, Clone, Copy, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value` in its own cache line.
        pub const fn new(value: T) -> Self {
            CachePadded { value }
        }

        /// Returns the inner value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_tuple("CachePadded").field(&self.value).finish()
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            CachePadded::new(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::utils::CachePadded;

    #[test]
    fn cache_padded_is_aligned_and_transparent() {
        let padded = CachePadded::new(7u64);
        assert_eq!(*padded, 7);
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 128);
        assert_eq!(padded.into_inner(), 7);
    }
}
