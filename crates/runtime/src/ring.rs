//! Bounded lock-free rings for the proxy data plane.
//!
//! The paper's case (§3–§4) is that a pinned proxy polling lock-free
//! shared-memory queues beats both system calls and lock-protected
//! software queues. The per-user *command* queues already honour that
//! ([`crate::spsc`]); this module extends the property to the other two
//! edges of the data plane:
//!
//! * the **wire ring** — one bounded multi-producer single-consumer ring
//!   per node, written by peer proxies and drained by the node's pinned
//!   proxy thread (the software analogue of the SP adapter's receive
//!   frame FIFO);
//! * the **reply rings** — single-producer single-consumer rings carrying
//!   remote-queue payloads from the local proxy back to a user process,
//!   each made by the first ENQ to its queue.
//!
//! Both are instances of [`Ring`], a bounded ring buffer using the
//! classic sequence-number scheme (Vyukov's bounded queue, the same
//! design as the LMAX Disruptor's sequenced slots): every slot carries an
//! atomic sequence counter, producers claim slots with a single
//! compare-and-swap on the head counter, and the slot's release store of
//! its sequence publishes the payload to the consumer. The head and tail
//! counters — written on every push and every pop — live on their own
//! cache lines so producers and the consumer never false-share them. The
//! slots are stored unpadded: a slot is touched by one producer and then
//! by the consumer, a lap apart, so only neighbours at the very front of
//! a nearly empty ring can share a line, while padding each to 128 bytes
//! made the eight 256-slot reply rings of every process 256 KiB instead
//! of 96 and the 512-slot wire ring of every node 64 KiB instead of 32 —
//! all written at construction, so resident memory and set-up time on
//! every workload (EXPERIMENTS.md "Coalesced wire frames" has the
//! before/after, the `ring.*` probes included).
//!
//! # Safety and progress
//!
//! The crate forbids `unsafe`, so the slot payload cell is a
//! `Mutex<Option<T>>` standing in for the `UnsafeCell` an unsafe
//! implementation would use. The sequence protocol guarantees the mutex
//! is **never contended**: a producer touches a slot's cell only between
//! winning the head CAS and releasing the slot's sequence, and the
//! consumer only between observing that release and retiring the slot —
//! the two windows cannot overlap, so every `lock()` succeeds without
//! waiting and the cell behaves as an exclusive-access payload box, not a
//! lock anyone blocks on. `try_push`/`try_pop` never wait for another
//! thread: a full or empty ring returns immediately.
//!
//! # Memory-ordering contract
//!
//! * producer: payload write (inside the cell) *happens-before* the
//!   `Release` store of `seq = pos + 1`;
//! * consumer: the `Acquire` load of `seq` observing `pos + 1` makes the
//!   payload visible; the `Release` store of `seq = pos + capacity`
//!   returns the slot and *happens-before* the producer that next claims
//!   it (via its `Acquire` sequence load).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Pads and aligns a value to 128 bytes so it shares a cache line with
/// nothing else (two lines to defeat adjacent-line prefetchers) — a
/// local stand-in for `crossbeam_utils::CachePadded`.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

#[derive(Debug)]
struct Slot<T> {
    /// Sequence counter: `pos` = empty and claimable by the producer of
    /// ticket `pos`, `pos + 1` = full and readable by the consumer of
    /// ticket `pos`, `pos + capacity` = retired, claimable next lap.
    seq: AtomicUsize,
    /// Payload cell; see the module docs for why this `Mutex` is never
    /// contended (it is a safe-Rust stand-in for `UnsafeCell`).
    cell: Mutex<Option<T>>,
}

/// A bounded lock-free multi-producer single-consumer ring.
///
/// Also usable single-producer (the head CAS then never retries) and
/// multi-consumer (pops race on the tail CAS); the data plane uses it in
/// MPSC (wire) and SPSC (reply) configurations.
///
/// # Examples
///
/// ```
/// use mproxy_rt::ring::Ring;
///
/// let r: Ring<u32> = Ring::new(4);
/// assert!(r.try_push(7).is_ok());
/// assert_eq!(r.try_pop(), Some(7));
/// assert_eq!(r.try_pop(), None);
/// ```
#[derive(Debug)]
pub struct Ring<T> {
    slots: Box<[Slot<T>]>,
    /// Next ticket a producer claims.
    head: CachePadded<AtomicUsize>,
    /// Next ticket the consumer retires.
    tail: CachePadded<AtomicUsize>,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2`: the sequence scheme distinguishes a
    /// slot's "published" (`pos + 1`) and "retired" (`pos + capacity`)
    /// states by value, and with one slot the two collide — a producer
    /// one lap ahead could claim a still-unconsumed entry.
    #[must_use]
    pub fn new(capacity: usize) -> Ring<T> {
        assert!(capacity >= 2, "ring capacity must be at least 2");
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                cell: Mutex::new(None),
            })
            .collect();
        Ring {
            slots,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Entries currently queued (approximate under concurrent access,
    /// exact when quiescent). Never exceeds the capacity by more
    /// than the number of in-flight producers.
    #[must_use]
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        head.saturating_sub(tail)
    }

    /// True when no entry is queued (approximate; see [`Ring::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn cell_take(&self, idx: usize) -> Option<T> {
        self.slots[idx]
            .cell
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    fn cell_put(&self, idx: usize, v: T) {
        *self.slots[idx]
            .cell
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(v);
    }

    /// Attempts to enqueue; on a full ring the value is handed back.
    ///
    /// Never blocks: producers race only on the head counter CAS, and a
    /// loser immediately retries against the fresh value.
    ///
    /// # Errors
    ///
    /// Returns `Err(v)` when the ring is full.
    pub fn try_push(&self, v: T) -> Result<(), T> {
        let cap = self.slots.len();
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos % cap];
            let seq = slot.seq.load(Ordering::Acquire);
            // Wrapping-aware comparison (tickets grow without bound).
            let dif = seq.wrapping_sub(pos) as isize;
            if dif == 0 {
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.cell_put(pos % cap, v);
                        // Publish: the payload write happens-before any
                        // consumer that acquires this sequence.
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                // The slot has not been retired since last lap: full.
                return Err(v);
            } else {
                // Another producer claimed this ticket; chase the head.
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Attempts to dequeue the oldest entry. Never blocks.
    #[must_use]
    pub fn try_pop(&self) -> Option<T> {
        let cap = self.slots.len();
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos % cap];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(pos.wrapping_add(1)) as isize;
            if dif == 0 {
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let v = self.cell_take(pos % cap);
                        // Retire: the slot becomes claimable one lap out.
                        slot.seq.store(pos.wrapping_add(cap), Ordering::Release);
                        return v;
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                // The producer of this ticket has not published yet (or
                // the ring is empty): nothing to take *in order*.
                return None;
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_full_detection() {
        let r: Ring<u32> = Ring::new(4);
        for i in 0..4 {
            assert!(r.try_push(i).is_ok());
        }
        assert_eq!(r.try_push(99), Err(99), "must report full");
        assert_eq!(r.len(), 4);
        for i in 0..4 {
            assert_eq!(r.try_pop(), Some(i));
        }
        assert!(r.try_pop().is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn wraps_many_laps() {
        let r: Ring<u64> = Ring::new(3);
        for lap in 0..1000u64 {
            assert!(r.try_push(lap).is_ok());
            assert_eq!(r.try_pop(), Some(lap));
        }
    }

    #[test]
    fn minimum_capacity_alternates() {
        let r: Ring<&str> = Ring::new(2);
        assert!(r.try_push("a").is_ok());
        assert!(r.try_push("b").is_ok());
        assert!(r.try_push("c").is_err());
        assert_eq!(r.try_pop(), Some("a"));
        assert!(r.try_push("c").is_ok());
        assert_eq!(r.try_pop(), Some("b"));
        assert_eq!(r.try_pop(), Some("c"));
        assert!(r.try_pop().is_none());
    }

    #[test]
    fn multi_producer_preserves_per_producer_order() {
        let r = std::sync::Arc::new(Ring::<(u8, u32)>::new(16));
        const N: u32 = 20_000;
        let producers: Vec<_> = (0..3u8)
            .map(|id| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..N {
                        let mut v = (id, i);
                        loop {
                            match r.try_push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let mut next = [0u32; 3];
        let mut got = 0u64;
        while got < u64::from(N) * 3 {
            if let Some((id, i)) = r.try_pop() {
                assert_eq!(i, next[id as usize], "per-producer FIFO broken");
                next[id as usize] += 1;
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn sub_minimum_capacity_rejected() {
        let _: Ring<u8> = Ring::new(1);
    }
}
