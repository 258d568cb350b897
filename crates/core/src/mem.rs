//! Per-process simulated memory.
//!
//! Each user process owns one address space — a flat, byte-addressable,
//! growable segment with a bump allocator. Application data really lives
//! here and really travels through the simulated network, so functional
//! results (sorted keys, factored matrices, ...) are checkable.

use bytes::Bytes;

use crate::addr::{Addr, Asid};
use crate::error::CommError;

/// Default alignment for allocations: one cache line.
pub const CACHE_LINE_BYTES: u64 = 64;

/// A process's address space.
#[derive(Debug, Default)]
pub struct Memory {
    bytes: Vec<u8>,
    next: u64,
}

impl Memory {
    /// Creates an empty address space.
    #[must_use]
    pub fn new() -> Self {
        Memory::default()
    }

    /// Current size in bytes.
    #[must_use]
    fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Allocates `nbytes`, cache-line aligned, growing the space.
    pub fn alloc(&mut self, nbytes: u64) -> Addr {
        self.alloc_aligned(nbytes, CACHE_LINE_BYTES)
    }

    /// Allocates `nbytes` with the given power-of-two alignment.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    fn alloc_aligned(&mut self, nbytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let start = self.next.next_multiple_of(align);
        self.next = start + nbytes;
        if self.next > self.bytes.len() as u64 {
            self.bytes.resize(self.next as usize, 0);
        }
        Addr(start)
    }

    /// Validates that `[addr, addr + nbytes)` lies within the space.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::OutOfBounds`] otherwise; `asid` is only used to
    /// label the error.
    pub fn check(&self, asid: Asid, addr: Addr, nbytes: u32) -> Result<(), CommError> {
        let end = addr.0.checked_add(u64::from(nbytes));
        if end.is_none_or(|end| end > self.size()) {
            Err(CommError::OutOfBounds {
                asid,
                addr,
                nbytes,
                size: self.size(),
            })
        } else {
            Ok(())
        }
    }

    /// Reads `nbytes` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds — engines validate before reading.
    #[must_use]
    pub fn read(&self, addr: Addr, nbytes: u32) -> Bytes {
        let s = addr.0 as usize;
        Bytes::copy_from_slice(&self.bytes[s..s + nbytes as usize])
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds — engines validate before writing.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        let s = addr.0 as usize;
        self.bytes[s..s + data.len()].copy_from_slice(data);
    }

    /// Reads a little-endian `u64`.
    #[must_use]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let s = addr.0 as usize;
        u64::from_le_bytes(self.bytes[s..s + 8].try_into().expect("8 bytes"))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Reads an `f64`.
    #[must_use]
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    pub fn write_f64(&mut self, addr: Addr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Reads `count` consecutive `f64`s.
    #[must_use]
    pub fn read_f64_slice(&self, addr: Addr, count: usize) -> Vec<f64> {
        (0..count)
            .map(|i| self.read_f64(addr.index(i as u64, 8)))
            .collect()
    }

    /// Writes consecutive `f64`s.
    pub fn write_f64_slice(&mut self, addr: Addr, values: &[f64]) {
        for (i, v) in values.iter().enumerate() {
            self.write_f64(addr.index(i as u64, 8), *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_grows() {
        let mut m = Memory::new();
        let a = m.alloc(10);
        let b = m.alloc(1);
        assert_eq!(a, Addr(0));
        assert_eq!(b, Addr(64)); // next cache line
        assert!(m.size() >= 65);
    }

    #[test]
    fn alloc_custom_alignment() {
        let mut m = Memory::new();
        let _ = m.alloc_aligned(3, 1);
        let a = m.alloc_aligned(8, 8);
        assert_eq!(a.0 % 8, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        Memory::new().alloc_aligned(1, 3);
    }

    #[test]
    fn typed_round_trips() {
        let mut m = Memory::new();
        let a = m.alloc(64);
        m.write_u64(a, 0xdead_beef_0123);
        assert_eq!(m.read_u64(a), 0xdead_beef_0123);
        m.write_f64(a.offset(8), -2.5);
        assert_eq!(m.read_f64(a.offset(8)), -2.5);
        m.write(a.offset(16), &77u32.to_le_bytes());
        assert_eq!(m.read(a.offset(16), 4)[..], 77u32.to_le_bytes());
    }

    #[test]
    fn slice_round_trip() {
        let mut m = Memory::new();
        let a = m.alloc(80);
        let xs = [1.0, -1.5, 3.25];
        m.write_f64_slice(a, &xs);
        assert_eq!(m.read_f64_slice(a, 3), xs.to_vec());
    }

    #[test]
    fn bounds_check() {
        let mut m = Memory::new();
        let a = m.alloc(16);
        assert!(m.check(Asid(0), a, 16).is_ok());
        let far = Addr(m.size());
        assert!(matches!(
            m.check(Asid(0), far, 1),
            Err(CommError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn bounds_check_rejects_a_wrapping_range() {
        let mut m = Memory::new();
        let _ = m.alloc(16);
        assert!(matches!(
            m.check(Asid(0), Addr(u64::MAX - 3), 8),
            Err(CommError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn raw_read_write() {
        let mut m = Memory::new();
        let a = m.alloc(8);
        m.write(a, b"abcd");
        assert_eq!(&m.read(a, 4)[..], b"abcd");
    }
}
