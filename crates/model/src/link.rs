//! The sequencing core shared by both reliable link layers.
//!
//! The paper's proxies assume a reliable FIFO interconnect; the workspace
//! removes that assumption twice — `mproxy`'s simulated link layer
//! (`engine/reliable.rs`, one packet per operation, simulated time) and
//! `mproxy-rt`'s wire layer (`state.rs` + `wire.rs`, frames of operations,
//! real threads). What the two must agree on is *sequencing*: number what
//! is sent, keep it until it is cumulatively acknowledged, park what
//! arrives ahead of a gap, and hand everything over exactly once, in
//! order. This module is that state, written once:
//!
//! * [`Retention`] — the sender half: contiguous sent-but-unacknowledged
//!   items. [`Retention::push`] is the only place a sequence number is
//!   consumed, [`Retention::release`] the only cumulative-ack walk,
//!   [`Retention::get`] the only lookup of a NACKed sequence.
//! * [`Reorder`] — the receiver half: the in-order delivery watermark and
//!   a bounded window of out-of-order arrivals behind it.
//!
//! Both are plain state machines over an item type `T` (a packet, a
//! frame): no clock, no I/O, no shared ownership, and nothing that tells
//! them which engine is calling. What a link layer *decides* — when a
//! retransmission timer fires and how it backs off, how often an
//! acknowledgement goes out, what triggers a NACK, how an epoch is
//! encoded on the wire, what a crash erases — is its driver's half of
//! the contract and stays with the driver.

use std::collections::VecDeque;

/// Sent-but-unacknowledged items towards one peer, contiguous in sequence.
///
/// Sequence numbers start at 1 and are consumed only by [`push`]; the
/// retained items always carry the consecutive sequences
/// `acked() + 1 ..= last()`, so a sequence locates its item by offset.
///
/// [`push`]: Retention::push
///
/// # Examples
///
/// ```
/// use mproxy_model::link::Retention;
///
/// let mut tx = Retention::new();
/// assert_eq!((tx.push('a'), tx.push('b'), tx.push('c')), (1, 2, 3));
/// // A cumulative ack of 2 releases the first two, in order.
/// assert_eq!(tx.release(2).collect::<Vec<_>>(), [(1, 'a'), (2, 'b')]);
/// assert_eq!((tx.acked(), tx.get(3), tx.get(2)), (2, Some(&'c'), None));
/// ```
#[derive(Debug, Clone)]
pub struct Retention<T> {
    /// Sequence the next [`Retention::push`] will carry.
    next: u64,
    /// Oldest first: `items[i]` carries sequence `next - items.len() + i`.
    items: VecDeque<T>,
}

impl<T> Default for Retention<T> {
    fn default() -> Self {
        Retention::new()
    }
}

impl<T> Retention<T> {
    /// An empty buffer whose first item will carry sequence 1.
    #[must_use]
    pub fn new() -> Retention<T> {
        Retention {
            next: 1,
            items: VecDeque::new(),
        }
    }

    /// Sequence of the oldest retained item (of the next push when empty).
    fn front(&self) -> u64 {
        self.next - self.items.len() as u64
    }

    /// Offset of `seq` from the oldest retained item, if it is not older.
    fn index(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.front())?).ok()
    }

    /// Highest sequence consumed so far (0 before the first push).
    #[must_use]
    pub fn last(&self) -> u64 {
        self.next - 1
    }

    /// Highest sequence no longer retained: everything at or below it was
    /// released (or abandoned by a reset).
    #[must_use]
    pub fn acked(&self) -> u64 {
        self.front() - 1
    }

    /// Number of retained items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is awaiting acknowledgement.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Retains `item` under the next sequence number, which it returns.
    pub fn push(&mut self, item: T) -> u64 {
        let seq = self.next;
        self.next += 1;
        self.items.push_back(item);
        seq
    }

    /// Consumes a cumulative acknowledgement: yields, oldest first and
    /// with its sequence, every retained item at or below `upto`. They
    /// are gone from the buffer whether or not the iterator is run to
    /// its end. A watermark at or below [`Retention::acked`] yields
    /// nothing.
    pub fn release(&mut self, upto: u64) -> impl Iterator<Item = (u64, T)> + '_ {
        let first = self.front();
        let covered = upto.saturating_add(1).saturating_sub(first);
        let n = usize::try_from(covered).map_or(self.items.len(), |c| c.min(self.items.len()));
        (first..).zip(self.items.drain(..n))
    }

    /// The retained item carrying `seq`; `None` once it was released (or
    /// before it was pushed).
    #[must_use]
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.items.get(self.index(seq)?)
    }

    /// Mutable access to the retained item carrying `seq`.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let idx = self.index(seq)?;
        self.items.get_mut(idx)
    }

    /// Every retained item with its sequence, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.front()..).zip(&self.items)
    }

    /// Abandons everything retained — returned oldest first, so the
    /// caller can settle what each item owed — and renumbers: the next
    /// push carries `next`. Passing [`Retention::last`]` + 1` abandons
    /// without renumbering.
    pub fn reset(&mut self, next: u64) -> VecDeque<T> {
        debug_assert!(next >= 1, "sequences start at 1");
        self.next = next;
        std::mem::take(&mut self.items)
    }
}

/// What [`Reorder::park`] did with an item that is ahead of the watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parked {
    /// Parked until the gap in front of it fills.
    Held,
    /// An intact copy of this sequence is already parked.
    Duplicate,
    /// Beyond the reorder window, or corrupt (its sequence, if inside
    /// the window, is noted as a hole): discarded.
    Dropped,
}

/// The receiver half of one sequenced stream: the in-order delivery
/// watermark and the out-of-order arrivals parked behind it.
///
/// Slot `i` of the buffer is sequence `delivered() + 1 + i`: `Some` when
/// that item arrived intact ahead of a gap, `None` while it is still
/// missing. The buffer spans the watermark to the highest sequence seen,
/// so it is empty on an in-order stream, slot 0 is always a hole, and it
/// never grows past the window — an item further ahead is dropped and
/// recovered later, like any lost one.
///
/// The caller delivers: an arrival at `delivered() + 1` is handed over
/// and followed by [`Reorder::advance`], then by everything
/// [`Reorder::next_ready`] releases.
///
/// # Examples
///
/// ```
/// use mproxy_model::link::{Parked, Reorder};
///
/// let mut rx = Reorder::new(8);
/// assert_eq!(rx.park(3, Some('c')), Parked::Held);
/// assert_eq!(rx.park(2, Some('b')), Parked::Held);
/// assert_eq!(rx.missing(), [1]);
/// rx.advance(); // 1 arrived and was delivered by the caller
/// assert_eq!((rx.next_ready(), rx.next_ready(), rx.next_ready()), (Some('b'), Some('c'), None));
/// assert_eq!(rx.delivered(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Reorder<T> {
    /// Highest sequence delivered in order.
    delivered: u64,
    /// Most slots `held` may span.
    window: usize,
    held: VecDeque<Option<T>>,
}

impl<T> Reorder<T> {
    /// A stream at watermark 0 that parks at most `window` sequences
    /// ahead of it.
    #[must_use]
    pub fn new(window: usize) -> Reorder<T> {
        Reorder {
            delivered: 0,
            window,
            held: VecDeque::new(),
        }
    }

    /// Highest sequence delivered in order — what a cumulative
    /// acknowledgement carries.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Slots between the watermark and the highest sequence seen (holes
    /// included); zero when the stream is in order.
    #[must_use]
    pub fn span(&self) -> usize {
        self.held.len()
    }

    /// Files an item whose `seq` is ahead of the watermark (`seq >
    /// delivered()`) and cannot be delivered yet: an intact body is
    /// parked in its slot; a corrupt one (`None`) only widens the buffer
    /// to cover `seq`, so [`Reorder::missing`] names it.
    pub fn park(&mut self, seq: u64, body: Option<T>) -> Parked {
        debug_assert!(seq > self.delivered);
        let idx = match usize::try_from(seq - self.delivered - 1) {
            Ok(idx) if idx < self.window => idx,
            _ => return Parked::Dropped,
        };
        if self.held.len() <= idx {
            self.held.resize_with(idx + 1, || None);
        }
        match (&self.held[idx], body) {
            (Some(_), _) => Parked::Duplicate,
            (None, None) => Parked::Dropped,
            (None, body) => {
                self.held[idx] = body;
                Parked::Held
            }
        }
    }

    /// Moves the watermark one sequence forward (the caller just
    /// delivered, or rejected, that item), keeping the buffer aligned
    /// with it.
    pub fn advance(&mut self) {
        self.delivered += 1;
        self.held.pop_front();
    }

    /// Takes the parked item that is next in order, if the gap in front
    /// of it has closed; the caller delivers it.
    pub fn next_ready(&mut self) -> Option<T> {
        let body = self.held.front_mut()?.take()?;
        self.advance();
        Some(body)
    }

    /// Every sequence still missing between the watermark and the highest
    /// one seen, ascending — what a NACK names.
    #[must_use]
    pub fn missing(&self) -> Vec<u64> {
        let first = self.delivered + 1;
        let slots = self.held.iter().enumerate();
        slots
            .filter_map(|(i, slot)| slot.is_none().then_some(first + i as u64))
            .collect()
    }

    /// Discards every parked item (their sender is gone, or the receiver
    /// lost its memory), returning them so the caller can count what was
    /// lost. The watermark stays.
    pub fn abandon_held(&mut self) -> Vec<T> {
        self.held.drain(..).flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything the buffer releases right now, in release order.
    fn ready(rx: &mut Reorder<u64>) -> Vec<u64> {
        std::iter::from_fn(|| rx.next_ready()).collect()
    }

    /// A stream whose watermark already stands at `delivered`.
    fn reorder_at(delivered: u64, window: usize) -> Reorder<u64> {
        let mut rx = Reorder::new(window);
        (0..delivered).for_each(|_| rx.advance());
        rx
    }

    #[test]
    fn parked_items_release_in_order_once_the_gap_fills() {
        let mut rx = Reorder::new(8);
        // 1 and 4 are lost; 2, 3, 5 arrive (3 twice).
        assert_eq!(rx.park(3, Some(3)), Parked::Held);
        assert_eq!(rx.park(2, Some(2)), Parked::Held);
        assert_eq!(rx.park(3, Some(33)), Parked::Duplicate);
        assert_eq!(rx.park(5, Some(5)), Parked::Held);
        assert_eq!(rx.missing(), vec![1, 4]);
        assert!(ready(&mut rx).is_empty(), "slot 0 is still a hole");
        // 1 arrives in order: the caller delivers it and advances.
        rx.advance();
        assert_eq!(ready(&mut rx), vec![2, 3]);
        assert_eq!(rx.delivered(), 3);
        assert_eq!(rx.missing(), vec![4]);
        rx.advance();
        assert_eq!(ready(&mut rx), vec![5]);
        assert_eq!(rx.delivered(), 5);
        assert!(rx.span() == 0 && rx.missing().is_empty());
    }

    #[test]
    fn corrupt_item_is_dropped_but_named_as_missing() {
        let mut rx = reorder_at(9, 8);
        assert_eq!(rx.park(10, None), Parked::Dropped);
        assert_eq!(rx.missing(), vec![10]);
        assert_eq!(rx.park(12, None), Parked::Dropped);
        assert_eq!(rx.missing(), vec![10, 11, 12]);
        // A corrupt copy never displaces an intact parked one.
        assert_eq!(rx.park(11, Some(11)), Parked::Held);
        assert_eq!(rx.park(11, None), Parked::Duplicate);
        assert_eq!(rx.missing(), vec![10, 12]);
        // Abandonment hands back what was parked and keeps the watermark.
        assert_eq!(rx.park(13, Some(13)), Parked::Held);
        assert_eq!(rx.abandon_held(), vec![11, 13]);
        assert_eq!((rx.span(), rx.delivered()), (0, 9));
    }

    #[test]
    fn hold_buffer_never_exceeds_its_window() {
        const WINDOW: usize = 16;
        let mut rx = Reorder::new(WINDOW);
        let cap = WINDOW as u64;
        // Sequence 1 is missing; everything up to 3× the window arrives.
        for seq in 2..=3 * cap {
            let want = if seq <= cap {
                Parked::Held
            } else {
                Parked::Dropped
            };
            assert_eq!(rx.park(seq, Some(seq)), want, "seq {seq}");
            assert!(rx.span() <= WINDOW);
        }
        assert_eq!(rx.park(u64::MAX, Some(0)), Parked::Dropped);
        assert_eq!(rx.missing(), vec![1]);
        // The gap fills: the whole window is released in order, and the
        // items dropped beyond it are what is missing next.
        rx.advance();
        assert_eq!(ready(&mut rx), (2..=cap).collect::<Vec<_>>());
        assert_eq!(rx.delivered(), cap);
        assert_eq!(rx.park(cap + 2, Some(cap + 2)), Parked::Held);
        assert_eq!(rx.missing(), vec![cap + 1]);
    }

    #[test]
    fn retention_numbers_releases_and_finds_by_sequence() {
        let mut tx = Retention::new();
        assert_eq!((tx.last(), tx.acked(), tx.len()), (0, 0, 0));
        for want in 1..=5u64 {
            assert_eq!(tx.push(want * 10), want);
        }
        assert_eq!((tx.last(), tx.acked(), tx.len()), (5, 0, 5));
        // A stale or empty watermark releases nothing.
        assert_eq!(tx.release(0).count(), 0);
        assert_eq!(tx.release(2).collect::<Vec<_>>(), [(1, 10), (2, 20)]);
        assert_eq!(tx.release(2).count(), 0, "a repeated ack is a no-op");
        assert_eq!((tx.acked(), tx.len()), (2, 3));
        // Lookup by sequence: released and not-yet-pushed are both gone.
        assert_eq!(
            (tx.get(2), tx.get(3), tx.get(5), tx.get(6)),
            (None, Some(&30), Some(&50), None)
        );
        *tx.get_mut(4).expect("retained") += 1;
        assert_eq!(
            tx.iter().collect::<Vec<_>>(),
            [(3, &30), (4, &41), (5, &50)]
        );
        // Dropping the iterator early still releases everything covered,
        // and a watermark past the last push stops at the last push.
        drop(tx.release(u64::MAX));
        assert_eq!((tx.acked(), tx.last(), tx.is_empty()), (5, 5, true));
        assert_eq!(tx.push(60), 6);
    }

    #[test]
    fn reset_abandons_and_renumbers() {
        let mut tx = Retention::new();
        tx.push('a');
        tx.push('b');
        // Give-up / purge: abandon without renumbering.
        assert_eq!(tx.reset(tx.last() + 1), ['a', 'b']);
        assert_eq!((tx.acked(), tx.push('c')), (2, 3));
        // Crash, then a peer's HELLO-ACK: resume where it expects us.
        assert_eq!(tx.reset(1), ['c']);
        assert!(tx.reset(41).is_empty());
        assert_eq!((tx.acked(), tx.push('d'), tx.get(41)), (40, 41, Some(&'d')));
    }
}
