//! A minimal, dependency-free stand-in for the `bytes` crate.
//!
//! The workspace builds in offline environments where crates.io is not
//! reachable, so the external `bytes` dependency is replaced by this local
//! shim providing exactly the surface the proxy stack uses: a cheaply
//! cloneable, immutable, contiguous byte buffer with zero-copy slicing.
//!
//! `Bytes` is an `Arc<[u8]>` plus an offset/length window; `clone` and
//! `slice` are O(1) and never copy the payload — the property the
//! simulator relies on when a packet is retransmitted or duplicated.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    len: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copies `data` into a new buffer: one allocation, one copy.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::whole(Arc::from(data))
    }

    /// Builds an `n`-byte buffer in place: `fill` receives the zeroed
    /// storage the returned `Bytes` will share, so a producer that writes
    /// piecewise (a segment snapshot) pays one allocation and no copy
    /// beyond its own writes.
    #[must_use]
    pub fn init_with(n: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        // `RepeatN` is `TrustedLen`: the `Arc<[u8]>` is allocated
        // once at its final size, with no intermediate `Vec`.
        let mut data: Arc<[u8]> = std::iter::repeat_n(0u8, n).collect();
        fill(Arc::get_mut(&mut data).expect("a freshly collected Arc is uniquely owned"));
        Bytes::whole(data)
    }

    fn whole(data: Arc<[u8]>) -> Bytes {
        let len = data.len();
        Bytes {
            data,
            start: 0,
            len,
        }
    }

    /// Wraps a static slice (copied once; the shim keeps one representation).
    #[must_use]
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Length of the view in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a zero-copy sub-view of this buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(begin <= end, "slice range inverted: {begin} > {end}");
        assert!(end <= self.len, "slice end {end} out of bounds ({})", self.len);
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            len: end - begin,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::whole(v.into())
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for e in std::ascii::escape_default(b) {
                write!(f, "{}", e as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_slice() {
        let b = Bytes::copy_from_slice(b"hello world");
        assert_eq!(b.len(), 11);
        assert_eq!(&b[..], b"hello world");
        let tail = b.slice(6..);
        assert_eq!(&tail[..], b"world");
        let mid = b.slice(3..5);
        assert_eq!(&mid[..], b"lo");
        let sub = tail.slice(1..3);
        assert_eq!(&sub[..], b"or");
    }

    #[test]
    fn clone_is_shallow_and_equal() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(Arc::ptr_eq(&b.data, &c.data));
    }

    #[test]
    fn empty_and_static() {
        assert!(Bytes::new().is_empty());
        let s = Bytes::from_static(b"abc");
        assert_eq!(&s[..], b"abc");
        assert_eq!(format!("{s:?}"), "b\"abc\"");
    }

    #[test]
    fn init_with_fills_the_final_buffer_in_place() {
        let b = Bytes::init_with(4096, |buf| {
            assert_eq!(buf.len(), 4096);
            assert!(buf.iter().all(|&x| x == 0), "fill sees zeroed storage");
            for (i, x) in buf.iter_mut().enumerate() {
                *x = i as u8;
            }
        });
        assert_eq!(b.len(), 4096);
        assert!(b.iter().enumerate().all(|(i, &x)| x == i as u8));
        // The closure wrote into the storage the result holds: nothing
        // else owns it, and clones and slices share it.
        assert_eq!(Arc::strong_count(&b.data), 1);
        let c = b.clone();
        let s = b.slice(8..16);
        assert!(Arc::ptr_eq(&b.data, &c.data));
        assert!(Arc::ptr_eq(&b.data, &s.data));
        assert_eq!(&s[..], &[8, 9, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn init_with_partial_fill_leaves_zeros() {
        let b = Bytes::init_with(5, |buf| buf[1] = 7);
        assert_eq!(&b[..], &[0, 7, 0, 0, 0]);
    }

    #[test]
    fn init_with_zero_length() {
        let mut called = false;
        let b = Bytes::init_with(0, |buf| {
            called = true;
            assert!(buf.is_empty());
        });
        assert!(called);
        assert!(b.is_empty());
        assert_eq!(b, Bytes::new());
    }

    #[test]
    fn copies_from_slices_are_equal_and_independent() {
        let src = [1u8, 2, 3];
        let a = Bytes::copy_from_slice(&src);
        let b = Bytes::from(&src[..]);
        assert_eq!(a, b);
        assert!(!Arc::ptr_eq(&a.data, &b.data));
        assert_eq!(Bytes::copy_from_slice(&[]), Bytes::new());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_oob_panics() {
        let _ = Bytes::from(vec![1u8]).slice(0..2);
    }
}
