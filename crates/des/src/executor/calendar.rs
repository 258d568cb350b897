//! The event calendar: a binary min-heap of 16-byte keys over a slab of
//! wake actions.
//!
//! Every event the simulator processes is one push and one pop here, so a
//! heap sift moves keys, not the actions: a key is the `u128`
//! `at_ns << 64 | seq << 24 | slot`, and `slot` indexes the slab of
//! [`WakeKind`]s that says what firing does. Sequence numbers are unique,
//! so keys order by `(at, seq)` — the executor's deterministic event
//! order — and the slot bits below them never decide. Freed slots are
//! reused most recent first.
//!
//! A heap rather than a sorted buffer: an insert into a sorted buffer
//! moves every later entry, and a calendar a thousand entries wide (one
//! per process, each on its own delay) makes that the whole cost.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::WakeKind;
use crate::time::SimTime;

/// Low bits of a key's tag: the slab slot.
const SLOT_BITS: u32 = 24;
/// High bits of a key's tag: the creation sequence number.
const SEQ_BITS: u32 = u64::BITS - SLOT_BITS;
/// Entries a new calendar holds before its vectors first grow. The
/// simulator's own runs peak at a few dozen, so each run makes three
/// allocations here rather than one per doubling of each vector.
const INITIAL_ENTRIES: usize = 64;

/// Packs a creation sequence number and a slab slot into a key's tag.
///
/// # Panics
///
/// Panics if either field would overflow its bits: a silent wrap would
/// misorder the calendar.
fn tag(seq: u64, slot: usize) -> u64 {
    assert!(
        seq < 1 << SEQ_BITS,
        "event calendar: sequence number {seq} needs more than {SEQ_BITS} bits"
    );
    assert!(
        slot < 1 << SLOT_BITS,
        "event calendar: more than 2^{SLOT_BITS} entries pending"
    );
    seq << SLOT_BITS | slot as u64
}

pub(super) struct Calendar {
    /// Keys `at_ns << 64 | tag`: one integer compare orders by instant,
    /// then by creation sequence.
    heap: BinaryHeap<Reverse<u128>>,
    kinds: Vec<Option<WakeKind>>,
    free: Vec<usize>,
    next_seq: u64,
}

impl Calendar {
    pub(super) fn new() -> Self {
        Calendar {
            heap: BinaryHeap::with_capacity(INITIAL_ENTRIES),
            kinds: Vec::with_capacity(INITIAL_ENTRIES),
            free: Vec::with_capacity(INITIAL_ENTRIES),
            next_seq: 0,
        }
    }

    /// Queues `kind` to fire at `at`, after everything already queued for
    /// the same instant.
    pub(super) fn push(&mut self, at: SimTime, kind: WakeKind) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.kinds[slot] = Some(kind);
                slot
            }
            None => {
                self.kinds.push(Some(kind));
                self.kinds.len() - 1
            }
        };
        let tag = tag(self.next_seq, slot);
        self.next_seq += 1;
        self.heap
            .push(Reverse(u128::from(at.as_ns()) << 64 | u128::from(tag)));
    }

    /// Removes and returns the earliest entry, ties in creation order.
    pub(super) fn pop(&mut self) -> Option<(SimTime, WakeKind)> {
        let Reverse(key) = self.heap.pop()?;
        let slot = (key as u64 & ((1 << SLOT_BITS) - 1)) as usize;
        let kind = self.kinds[slot]
            .take()
            .expect("a queued key names a filled slot");
        self.free.push(slot);
        Some((SimTime::from_ns((key >> 64) as u64), kind))
    }

    /// The most entries pending at once: every slab slot ever allocated
    /// was in use when it was, as freed slots are reused first.
    pub(super) fn peak(&self) -> usize {
        self.kinds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_orders_by_sequence_before_slot() {
        assert!(tag(1, 0) > tag(0, (1 << SLOT_BITS) - 1));
        assert_eq!(
            tag((1 << SEQ_BITS) - 1, 5) >> SLOT_BITS,
            (1 << SEQ_BITS) - 1
        );
    }

    #[test]
    #[should_panic(expected = "sequence number")]
    fn sequence_overflow_panics() {
        let _ = tag(1 << SEQ_BITS, 0);
    }

    #[test]
    #[should_panic(expected = "entries pending")]
    fn slot_overflow_panics() {
        let _ = tag(0, 1 << SLOT_BITS);
    }
}
