//! The lock-free single-producer single-consumer command queue.
//!
//! Exactly the structure Section 4 describes: "the command queues are
//! single-producer, single-consumer queues, \[so\] the queue synchronization
//! can be enforced by a full/empty flag in each queue entry". Neither side
//! shares its ring index — the *only* shared state is the per-entry flag
//! (plus the entry payload, published by the flag's release store). Every
//! field is a plain atomic; the implementation contains no unsafe code and
//! no locks.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::idle::Backoff;
use crate::ring::CachePadded;

/// A fixed command record: opcode plus four operand words — the shape of
/// a real proxy queue entry (opcode, addresses, size, sync descriptor) —
/// plus a submit timestamp for the command-queue-wait telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Entry {
    /// Operation code (interpreted by the consumer).
    pub op: u32,
    /// Operand words (addresses, lengths, flag ids...).
    pub args: [u64; 4],
    /// Submit timestamp, ns since an epoch the producer and consumer
    /// agree on (the cluster start). `0` means unstamped — telemetry
    /// recording was off at submit time, and the consumer must not
    /// derive a wait time from it.
    pub t_ns: u64,
}

struct Slot {
    /// 0 = empty, 1 = full. The producer's release store publishes the
    /// payload; the consumer's release store returns the slot.
    valid: AtomicU32,
    op: AtomicU32,
    args: [AtomicU64; 4],
    t_ns: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            valid: AtomicU32::new(0),
            op: AtomicU32::new(0),
            args: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            t_ns: AtomicU64::new(0),
        }
    }
}

/// The shared ring. Split into a [`Producer`] / [`Consumer`] pair with
/// [`channel`].
#[derive(Debug)]
pub struct Ring {
    slots: Box<[CachePadded<Slot>]>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("valid", &self.valid.load(Ordering::Relaxed))
            .finish()
    }
}

/// Creates a command queue of `capacity` entries, returning the two
/// endpoints.
///
/// # Panics
///
/// Panics if `capacity` is zero.
///
/// # Examples
///
/// ```
/// use mproxy_rt::spsc::{channel, Entry};
///
/// let (mut tx, mut rx) = channel(8);
/// assert!(tx.try_send(Entry { op: 1, args: [2, 3, 4, 5], ..Entry::default() }));
/// assert_eq!(rx.try_recv().unwrap().op, 1);
/// assert!(rx.try_recv().is_none());
/// ```
#[must_use]
pub fn channel(capacity: usize) -> (Producer, Consumer) {
    assert!(capacity > 0, "queue capacity must be > 0");
    let slots: Vec<CachePadded<Slot>> = (0..capacity).map(|_| CachePadded(Slot::new())).collect();
    let ring = std::sync::Arc::new(Ring {
        slots: slots.into_boxed_slice(),
    });
    (
        Producer {
            ring: std::sync::Arc::clone(&ring),
            head: 0,
        },
        Consumer { ring, tail: 0 },
    )
}

/// The user-process side of a command queue.
#[derive(Debug)]
pub struct Producer {
    ring: std::sync::Arc<Ring>,
    /// Private ring index — never shared with the consumer.
    head: usize,
}

impl Producer {
    /// Attempts to enqueue; returns false if the queue is full (the entry
    /// at the head still carries its full flag).
    pub fn try_send(&mut self, e: Entry) -> bool {
        let slot = &self.ring.slots[self.head];
        if slot.valid.load(Ordering::Acquire) != 0 {
            return false;
        }
        slot.op.store(e.op, Ordering::Relaxed);
        for (dst, src) in slot.args.iter().zip(e.args) {
            dst.store(src, Ordering::Relaxed);
        }
        slot.t_ns.store(e.t_ns, Ordering::Relaxed);
        // Publish: everything above happens-before a consumer that
        // acquires the flag.
        slot.valid.store(1, Ordering::Release);
        self.head = (self.head + 1) % self.ring.slots.len();
        true
    }

    /// Waits until the entry is accepted (bounded command queues provide
    /// natural backpressure on a runaway producer), backing off
    /// adaptively while the queue stays full.
    pub fn send(&mut self, e: Entry) {
        let mut backoff = Backoff::new();
        while !self.try_send(e) {
            backoff.snooze();
        }
    }
}

/// The proxy side of a command queue.
#[derive(Debug)]
pub struct Consumer {
    ring: std::sync::Arc<Ring>,
    tail: usize,
}

impl Consumer {
    /// Polls the queue head: one acquire load when empty (the probe the
    /// polling-delay model charges `C` for).
    pub fn try_recv(&mut self) -> Option<Entry> {
        self.pop_unless(|_| false)
    }

    /// Takes the head entry unless `hold` refuses it, in which case it
    /// stays at the head — the producer cannot overwrite a full slot —
    /// and the next pop sees it unchanged. `None` when empty or held.
    pub fn pop_unless(&mut self, hold: impl FnOnce(&Entry) -> bool) -> Option<Entry> {
        let slot = &self.ring.slots[self.tail];
        if slot.valid.load(Ordering::Acquire) == 0 {
            return None;
        }
        let e = Entry {
            op: slot.op.load(Ordering::Relaxed),
            args: [
                slot.args[0].load(Ordering::Relaxed),
                slot.args[1].load(Ordering::Relaxed),
                slot.args[2].load(Ordering::Relaxed),
                slot.args[3].load(Ordering::Relaxed),
            ],
            t_ns: slot.t_ns.load(Ordering::Relaxed),
        };
        if hold(&e) {
            return None;
        }
        // Return the slot to the producer.
        slot.valid.store(0, Ordering::Release);
        self.tail = (self.tail + 1) % self.ring.slots.len();
        Some(e)
    }

    /// Drains up to `max` entries into `out` (appending), returning how
    /// many were taken. One acquire probe per entry plus one when the
    /// queue runs dry. (The proxy drains with [`Consumer::pop_unless`].)
    pub fn pop_burst(&mut self, out: &mut Vec<Entry>, max: usize) -> usize {
        let mut taken = 0;
        while taken < max {
            let Some(e) = self.try_recv() else { break };
            out.push(e);
            taken += 1;
        }
        taken
    }

    /// True if the head slot holds a command (non-destructive probe).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.ring.slots[self.tail].valid.load(Ordering::Acquire) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let (mut tx, mut rx) = channel(4);
        for i in 0..4 {
            assert!(tx.try_send(Entry {
                op: i,
                args: [u64::from(i); 4],
                ..Entry::default()
            }));
        }
        assert!(
            !tx.try_send(Entry {
                op: 9,
                args: [0; 4],
                ..Entry::default()
            }),
            "must be full"
        );
        for i in 0..4 {
            let e = rx.try_recv().unwrap();
            assert_eq!(e.op, i);
            assert_eq!(e.args[3], u64::from(i));
        }
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut tx, mut rx) = channel(3);
        for round in 0..100u32 {
            assert!(tx.try_send(Entry {
                op: round,
                args: [u64::from(round), 0, 0, 0],
                ..Entry::default()
            }));
            assert_eq!(rx.try_recv().unwrap().op, round);
        }
    }

    #[test]
    fn cross_thread_stress_preserves_sequence() {
        let (mut tx, mut rx) = channel(16);
        const N: u32 = 100_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.send(Entry {
                    op: i,
                    args: [u64::from(i).wrapping_mul(0x9e37), 0, 0, 0],
                    ..Entry::default()
                });
            }
        });
        let mut expected = 0u32;
        while expected < N {
            if let Some(e) = rx.try_recv() {
                assert_eq!(e.op, expected);
                assert_eq!(e.args[0], u64::from(expected).wrapping_mul(0x9e37));
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn pop_burst_drains_up_to_max() {
        let (mut tx, mut rx) = channel(8);
        for i in 0..6 {
            assert!(tx.try_send(Entry {
                op: i,
                args: [0; 4],
                ..Entry::default()
            }));
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_burst(&mut out, 4), 4);
        assert_eq!(rx.pop_burst(&mut out, 4), 2, "queue runs dry mid-burst");
        assert_eq!(
            out.iter().map(|e| e.op).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4, 5]
        );
        assert_eq!(rx.pop_burst(&mut out, 4), 0);
        // Freed slots are reusable immediately.
        assert!(tx.try_send(Entry {
            op: 9,
            args: [0; 4],
            ..Entry::default()
        }));
        assert_eq!(rx.try_recv().unwrap().op, 9);
    }

    #[test]
    fn held_entry_stays_at_the_head_unchanged() {
        let (mut tx, mut rx) = channel(2);
        let first = Entry {
            op: 7,
            args: [1, 2, 3, 4],
            t_ns: 5,
        };
        assert!(tx.try_send(first));
        assert!(tx.try_send(Entry::default()));
        let mut seen = None;
        assert!(rx
            .pop_unless(|e| {
                seen = Some(*e);
                true
            })
            .is_none());
        assert_eq!(seen, Some(first), "the hold sees the head");
        assert!(
            rx.is_ready() && !tx.try_send(Entry::default()),
            "still full"
        );
        assert_eq!(rx.try_recv(), Some(first));
        assert_eq!(rx.try_recv(), Some(Entry::default()));
        assert!(rx.pop_unless(|_| false).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = channel(0);
    }
}
