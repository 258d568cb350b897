//! Shared-memory segments for the threaded runtime.
//!
//! Each user process owns one [`Segment`] — the runtime analogue of an
//! address space (`asid`). Segments are atomic word arrays, so the proxy
//! thread can move data without locks; release/acquire ordering on the
//! synchronisation flags publishes the payload bytes, exactly like a
//! real shared-memory mailbox protocol.
//!
//! Storage is word-granular (`AtomicU64`), not byte-granular: payload
//! copies are the proxy's per-message service cost, and copying whole
//! words needs one eighth of the atomic operations. Byte addressing is
//! preserved at the API — unaligned edges of a transfer are merged into
//! their word with a compare-and-swap loop so a neighbouring write to
//! the *other* bytes of the same word is never lost.
//!
//! A segment comes zeroed from the allocator and nothing writes it when
//! it is made. A fresh large allocation is untouched `mmap` pages, each
//! faulted in by the first write to it on the data path, so a new
//! process starting a cluster faults in none of its segments' pages; a
//! reused heap chunk is cleared once, by the allocator (EXPERIMENTS.md
//! "Segments come zeroed").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

const WORD: usize = 8;

/// A byte-addressable shared segment.
#[derive(Clone)]
pub struct Segment {
    /// A `Vec`, not an `Arc<[_]>`: turning the vector into a slice
    /// would copy it, writing every page.
    words: Arc<Vec<AtomicU64>>,
    size: usize,
}

impl Segment {
    /// Allocates a zeroed segment of `size` bytes without writing it.
    ///
    /// `vec![0; n]` asks the allocator for zeroed memory, and collecting
    /// it into atomics of the same layout reuses that buffer in place;
    /// in release the identity map compiles to nothing, so no page of
    /// the segment is touched here.
    #[must_use]
    pub fn new(size: usize) -> Segment {
        let zeroed = vec![0u64; size.div_ceil(WORD)];
        let at = zeroed.as_ptr();
        let words: Vec<AtomicU64> = zeroed.into_iter().map(AtomicU64::new).collect();
        debug_assert!(std::ptr::eq(words.as_ptr().cast(), at), "collect copied");
        Segment {
            words: Arc::new(words),
            size,
        }
    }

    /// Segment size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// True if `[addr, addr+n)` lies inside the segment.
    #[must_use]
    pub fn check(&self, addr: u64, n: usize) -> bool {
        (addr as usize)
            .checked_add(n)
            .is_some_and(|end| end <= self.size)
    }

    /// Copies `n` bytes out of the segment into a shared buffer.
    ///
    /// The snapshot is taken once, straight into the buffer's final
    /// storage; the returned [`Bytes`] can then travel through wire
    /// queues and be cloned per hop without further copies. Words are
    /// snapshotted atomically; a transfer spanning several words
    /// observes each word at a single instant (the flag protocol, not
    /// the copy, orders whole payloads).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds (callers validate first).
    #[must_use]
    pub fn read(&self, addr: u64, n: usize) -> Bytes {
        assert!(self.check(addr, n), "segment read out of bounds");
        Bytes::init_with(n, |out| self.copy_out(addr as usize, out))
    }

    /// Appends `n` bytes of the segment from `addr` to `out`: the
    /// snapshot [`Segment::read`] takes, written after what `out` holds.
    /// Each word is loaded once and appended whole (its edge words in
    /// part), so nothing is zero-filled first, and `out` grows only when
    /// its capacity is short — a staging buffer reused from one frame to
    /// the next settles at the size its frames need.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds (callers validate first).
    pub(crate) fn append_to(&self, addr: u64, n: usize, out: &mut Vec<u8>) {
        assert!(self.check(addr, n), "segment read out of bounds");
        out.reserve(n);
        let word = |at: usize| self.words[at].load(Ordering::Relaxed).to_le_bytes();
        let off = addr as usize % WORD;
        let mut at = addr as usize / WORD;
        let mut left = n;
        if off != 0 && left != 0 {
            let head = (WORD - off).min(left);
            out.extend_from_slice(&word(at)[off..off + head]);
            left -= head;
            at += 1;
        }
        // A flat map into arrays keeps the slice's exact length, so this
        // extends in one step, with no capacity check per word (a 4 KiB
        // snapshot is several times faster than one `extend_from_slice`
        // per word).
        let whole = left / WORD;
        let words = self.words[at..at + whole].iter();
        out.extend(words.flat_map(|w| w.load(Ordering::Relaxed).to_le_bytes()));
        let tail = left % WORD;
        if tail != 0 {
            out.extend_from_slice(&word(at + whole)[..tail]);
        }
    }

    /// Fills `out` from the bytes at `start` (bounds already checked):
    /// a partial head word, whole words, a partial tail word.
    fn copy_out(&self, start: usize, out: &mut [u8]) {
        let off = start % WORD;
        let mut at = start / WORD;
        let mut out = out;
        if off != 0 && !out.is_empty() {
            let (head, rest) = out.split_at_mut((WORD - off).min(out.len()));
            let w = self.words[at].load(Ordering::Relaxed).to_le_bytes();
            head.copy_from_slice(&w[off..off + head.len()]);
            out = rest;
            at += 1;
        }
        let whole = out.len() / WORD;
        let (body, tail) = out.split_at_mut(whole * WORD);
        for (slot, chunk) in self.words[at..at + whole]
            .iter()
            .zip(body.chunks_exact_mut(WORD))
        {
            chunk.copy_from_slice(&slot.load(Ordering::Relaxed).to_le_bytes());
        }
        if !tail.is_empty() {
            let w = self.words[at + whole].load(Ordering::Relaxed).to_le_bytes();
            tail.copy_from_slice(&w[..tail.len()]);
        }
    }

    /// Copies `data` into the segment.
    ///
    /// Aligned full words are plain atomic stores; the partial words at
    /// the two edges merge via a CAS loop so concurrent writes to the
    /// other bytes of the word survive.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds (callers validate first).
    pub fn write(&self, addr: u64, data: &[u8]) {
        assert!(self.check(addr, data.len()), "segment write out of bounds");
        let off = addr as usize % WORD;
        let mut at = addr as usize / WORD;
        let mut data = data;
        if off != 0 && !data.is_empty() {
            let (head, rest) = data.split_at((WORD - off).min(data.len()));
            self.merge(at, off, head);
            data = rest;
            at += 1;
        }
        let body = data.chunks_exact(WORD);
        let tail = body.remainder();
        let whole = body.len();
        for (slot, chunk) in self.words[at..at + whole].iter().zip(body) {
            let w = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(WORD)"));
            slot.store(w, Ordering::Relaxed);
        }
        if !tail.is_empty() {
            self.merge(at + whole, 0, tail);
        }
    }

    /// Overwrites bytes `[off, off + part.len())` of word `at`, keeping
    /// whatever a concurrent writer puts in the word's other bytes.
    fn merge(&self, at: usize, off: usize, part: &[u8]) {
        let _ = self.words[at].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
            let mut w = old.to_le_bytes();
            w[off..off + part.len()].copy_from_slice(part);
            Some(u64::from_le_bytes(w))
        });
    }

    /// Reads a little-endian `u64` without allocating: one atomic load
    /// when `addr` is word-aligned, the two words it straddles otherwise.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        assert!(self.check(addr, WORD), "segment read out of bounds");
        let mut b = [0u8; WORD];
        self.copy_out(addr as usize, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`: one atomic store when `addr` is
    /// word-aligned, merged into the two words it straddles otherwise.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn write_u64(&self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mproxy_model::fate::SplitMix64;

    #[test]
    fn round_trips() {
        let s = Segment::new(64);
        s.write(0, b"hello");
        assert_eq!(&s.read(0, 5)[..], b"hello");
        s.write_u64(8, 0xfeed);
        assert_eq!(s.read_u64(8), 0xfeed);
    }

    /// Resident pages of this process: field 2 of `/proc/self/statm`.
    fn resident_pages() -> usize {
        let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
        statm.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    // In debug the identity map of `Segment::new` runs as a loop and
    // writes every word.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn a_new_segment_touches_no_page() {
        const SIZE: usize = 64 << 20;
        const PAGE: usize = 4096;
        let before = resident_pages();
        let s = Segment::new(SIZE);
        let grown = resident_pages().saturating_sub(before) * PAGE;
        assert!(
            grown < 8 << 20,
            "a 64 MiB segment made {grown} bytes resident"
        );
        for addr in (0..SIZE).step_by(1 << 20).chain([SIZE - WORD]) {
            assert_eq!(s.read_u64(addr as u64), 0, "word at {addr}");
        }
    }

    #[test]
    fn bounds_checking() {
        let s = Segment::new(16);
        assert!(s.check(0, 16));
        assert!(!s.check(1, 16));
        assert!(!s.check(u64::MAX, 1));
        assert!(s.check(16, 0));
    }

    #[test]
    fn clones_share_storage() {
        let a = Segment::new(8);
        let b = a.clone();
        a.write_u64(0, 7);
        assert_eq!(b.read_u64(0), 7);
    }

    #[test]
    fn unaligned_edges_merge_into_words() {
        let s = Segment::new(32);
        s.write(0, &[0xAA; 32]);
        // A 5-byte write at offset 3 spans the first word's tail and the
        // second word's head; surrounding bytes must survive.
        s.write(3, &[1, 2, 3, 4, 5]);
        let got = s.read(0, 32);
        assert_eq!(&got[..3], &[0xAA; 3]);
        assert_eq!(&got[3..8], &[1, 2, 3, 4, 5]);
        assert_eq!(&got[8..], &[0xAA; 24]);
        // Unaligned read of the same span.
        assert_eq!(&s.read(3, 5)[..], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn odd_sized_segment_reaches_last_byte() {
        let s = Segment::new(13);
        assert!(s.check(12, 1));
        assert!(!s.check(12, 2));
        s.write(10, b"end");
        assert_eq!(&s.read(10, 3)[..], b"end");
    }

    #[test]
    fn concurrent_writers_to_adjacent_bytes_both_land() {
        let s = Segment::new(16);
        let s2 = s.clone();
        // Two threads hammer disjoint halves of the same word.
        let t = std::thread::spawn(move || {
            for i in 0..10_000u32 {
                s2.write(0, &(i as u8).to_le_bytes()[..1]);
            }
        });
        for i in 0..10_000u32 {
            s.write(4, &i.to_le_bytes());
        }
        t.join().unwrap();
        assert_eq!(s.read(4, 4)[..], 9_999u32.to_le_bytes());
    }

    /// A segment beside the plain byte vector it must behave like.
    struct Modelled {
        seg: Segment,
        model: Vec<u8>,
        rng: SplitMix64,
    }

    impl Modelled {
        fn new(size: usize, seed: u64) -> Modelled {
            let mut m = Modelled {
                seg: Segment::new(size),
                model: vec![0; size],
                rng: SplitMix64::new(seed),
            };
            m.write(0, size);
            m
        }

        /// Writes `n` random bytes at `addr` to both; the write reads
        /// back and every other byte of the segment is untouched.
        fn write(&mut self, addr: usize, n: usize) {
            let data: Vec<u8> = (0..n).map(|_| self.rng.next_u64() as u8).collect();
            self.seg.write(addr as u64, &data);
            self.model[addr..addr + n].copy_from_slice(&data);
            assert_eq!(&self.seg.read(addr as u64, n)[..], &data[..], "{addr}+{n}");
            self.assert_same();
        }

        fn assert_same(&self) {
            assert_eq!(&self.seg.read(0, self.model.len())[..], &self.model[..]);
        }

        /// [`Segment::append_to`] appends exactly what [`Segment::read`]
        /// returns for the same span, after whatever the buffer held.
        fn assert_appends_like_read(&mut self, addr: usize, n: usize) {
            let before = (self.rng.next_u64() % 12) as usize;
            let mut out: Vec<u8> = (0..before).map(|i| i as u8).collect();
            self.seg.append_to(addr as u64, n, &mut out);
            let read = self.seg.read(addr as u64, n);
            assert_eq!(&out[before..], &read[..], "{addr}+{n}");
            assert_eq!(&out[before..], &self.model[addr..addr + n], "{addr}+{n}");
            assert!(out[..before].iter().enumerate().all(|(i, &b)| b == i as u8));
        }
    }

    #[test]
    fn every_head_body_tail_shape_matches_the_byte_model() {
        const BASE: usize = 16;
        let mut m = Modelled::new(BASE + (512 + 2) * WORD + 5, 1997);
        for head in 0..WORD {
            for tail in 0..WORD {
                for body in [0, 1, 2, 511, 512] {
                    let n = (WORD - head) % WORD + body * WORD + tail;
                    m.write(BASE + head, n);
                }
            }
        }
    }

    #[test]
    fn random_spans_match_the_byte_model() {
        let size = 1021;
        let mut m = Modelled::new(size, 14);
        for i in 0..4000 {
            // Mostly spans inside one or two words, now and then long ones.
            let max = if i % 8 == 0 { 600 } else { 20 };
            let n = (m.rng.next_u64() % max) as usize;
            let addr = (m.rng.next_u64() % (size - n + 1) as u64) as usize;
            m.write(addr, n);
            let n = (m.rng.next_u64() % max) as usize;
            let addr = (m.rng.next_u64() % (size - n + 1) as u64) as usize;
            assert_eq!(&m.seg.read(addr as u64, n)[..], &m.model[addr..addr + n]);
            m.assert_appends_like_read(addr, n);
        }
    }

    #[test]
    fn append_matches_read_at_every_edge_shape() {
        let size = 6 * WORD + 5;
        let mut m = Modelled::new(size, 44);
        // Every start and length inside four words: unaligned heads and
        // tails, spans inside one word, whole words, and zero lengths at
        // every offset, the segment's end included.
        for addr in 0..=size {
            for n in 0..=(4 * WORD).min(size - addr) {
                m.assert_appends_like_read(addr, n);
            }
        }
    }

    #[test]
    fn zero_length_at_the_end_and_the_last_odd_byte() {
        for size in [13, 16] {
            let mut m = Modelled::new(size, size as u64);
            m.write(size, 0);
            m.write(size - 1, 1);
            m.write(3, 0);
            assert!(m.seg.read(size as u64, 0).is_empty());
        }
    }

    #[test]
    fn words_round_trip_at_every_alignment() {
        let mut m = Modelled::new(40, 8);
        for off in 0..WORD {
            let addr = 8 + off;
            let v = m.rng.next_u64();
            m.seg.write_u64(addr as u64, v);
            m.model[addr..addr + WORD].copy_from_slice(&v.to_le_bytes());
            assert_eq!(m.seg.read_u64(addr as u64), v);
            m.assert_same();
            // The word view and the byte view agree in the other
            // direction too (the byte write overwrites the word).
            m.write(addr, WORD);
            let bytes: [u8; WORD] = m.model[addr..addr + WORD].try_into().unwrap();
            assert_eq!(m.seg.read_u64(addr as u64), u64::from_le_bytes(bytes));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn word_access_past_the_end_panics() {
        let _ = Segment::new(16).read_u64(9);
    }

    #[test]
    fn bulk_writers_sharing_a_boundary_word_both_land() {
        // One writer's tail and the other's head are the two halves of
        // word 64; each reads its own span back after every write, so a
        // boundary word stored whole by the neighbour shows as a mismatch.
        const SPLIT: usize = 64 * WORD + 3;
        const END: usize = 128 * WORD;
        let s = Segment::new(END);
        let start = std::sync::Barrier::new(2);
        let hammer = |addr: usize, n: usize| {
            start.wait();
            for i in 0..5_000u32 {
                let fill = vec![i as u8; n];
                s.write(addr as u64, &fill);
                assert_eq!(&s.read(addr as u64, n)[..], &fill[..], "round {i}");
            }
        };
        std::thread::scope(|t| {
            t.spawn(|| hammer(0, SPLIT));
            hammer(SPLIT, END - SPLIT);
        });
        let last = 4_999u32 as u8;
        assert!(s.read(0, END).iter().all(|&b| b == last));
    }
}
