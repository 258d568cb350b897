//! Per-node protocol state that outlives a proxy thread.
//!
//! Everything here is owned by `Shared` and locked by the node's serving
//! proxy for its lifetime, so a respawned incarnation resumes from the
//! exact watermarks, retention buffers, parked frames and CCBs its
//! predecessor held: [`NodeState`], and the two halves of each sequenced
//! stream it keeps per peer node — [`TxPeer`] (sender: the open frame,
//! sequence numbers, retention, NACKed sequences) and [`RxPeer`]
//! (receiver: the in-order watermark and the reorder buffer).
//!
//! The unit of both halves is the **frame**: the operations one service
//! phase addressed to one peer, at most [`FRAME_CAP`] of them (fewer when
//! they are large: [`FRAME_BYTES`]), sharing one sequence number, one
//! retention slot and one place in the reorder buffer.
//! [`TxPeer::append`] and [`TxPeer::close_frame`] are the only way a
//! frame comes to be; the functions that move frames between these
//! structures and the rings are in [`crate::wire`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use crate::proxy::PENDING_CAP;
use crate::wire::{Frame, Payload, WireMsg};

/// Most operations one frame carries. A frame also closes, however few it
/// holds, at the end of the service phase that opened it, so this only
/// bounds how much one sequence number — one retransmission, one reorder
/// slot, one shed verdict — can cover. Most of what there is to gain
/// from amortising the per-frame costs (sequence, retention slot, ring
/// push, wake) is had by 16 operations, and the steps beyond 32 are
/// inside the run-to-run noise (EXPERIMENTS.md "Coalesced wire frames"
/// has the sweep); 32 keeps a frame of 32-byte PUTs near 2 KiB.
pub(crate) const FRAME_CAP: usize = 32;

/// Payload bytes at which a frame closes, however few operations it
/// holds. What a frame amortises is per-frame bookkeeping, which matters
/// while operations are small; but a frame is copied out whole before
/// it is sent and applied whole before it is answered, so two proxies
/// exchanging frames of 32 4-KiB operations take turns copying 128 KiB
/// instead of overlapping, and whether a pass found 2 operations or 32
/// then decides the latency: `rt_bulk_bidir` ran in either mode from one
/// 0.45 s rep to the next (`op_p50_us` 50 or 130) until frames were
/// bounded in bytes too. 16 KiB — four such operations, sixteen times
/// what a full frame of 32-byte PUTs carries — keeps the amortisation
/// and not the convoy (EXPERIMENTS.md "Coalesced wire frames" has the
/// sweep).
pub(crate) const FRAME_BYTES: u64 = 16384;

/// Most out-of-order frames a receiver parks per source stream while it
/// waits for a gap to fill (the reorder window). A frame further ahead of
/// the in-order watermark than this is dropped and recovered later, like
/// any lost frame.
pub(crate) const HOLD_WINDOW: usize = PENDING_CAP;

/// An outstanding GET command control block (lives in [`NodeState`] so a
/// respawned proxy can still complete or cancel it).
pub(crate) struct CcbGet {
    pub(crate) proc: u32,
    pub(crate) laddr: u64,
    pub(crate) nbytes: u32,
    pub(crate) lsync: Option<u32>,
}

/// A retained (sent, unacknowledged) frame. What each of its operations
/// owes its submitter on acknowledgement is in [`TxPeer::lsyncs`].
pub(crate) struct Retained {
    pub(crate) seq: u64,
    pub(crate) body: Frame,
    /// First-transmission time (cluster-relative ns) — the wire-RTT
    /// histogram measures from here to the releasing ack.
    pub(crate) sent_ns: u64,
}

/// What the sender owes one operation's submitter once the frame that
/// carries it is acknowledged un-rejected.
pub(crate) struct Lsync {
    /// `(proc, flag)` to bump.
    pub(crate) flag: Option<(u32, u32)>,
    /// The originating command's submit stamp ([`crate::spsc::Entry::t_ns`]; 0 when
    /// recording was off or the operation is proxy-originated) — the
    /// lsync-RTT histogram measures from here.
    pub(crate) submit_ns: u64,
}

/// Sender-side state towards one destination node.
pub(crate) struct TxPeer {
    /// Sequence number the next closed frame will carry (first is 1).
    pub(crate) next_seq: u64,
    /// Highest acknowledged sequence.
    pub(crate) acked: u64,
    /// The open frame: operations the current service phase has addressed
    /// to this peer, not yet sequenced. Never longer than [`FRAME_CAP`]
    /// nor, short of its last operation, heavier than [`FRAME_BYTES`],
    /// and empty between phases — the phase that appends also closes
    /// ([`crate::wire::flush_frames`]), so no operation waits for company.
    /// It lives here, in crash-surviving state, so a proxy that dies
    /// mid-phase leaves its successor the operations, not a hole.
    pub(crate) open: Vec<Payload>,
    /// Payload bytes the open frame carries so far.
    pub(crate) open_bytes: u64,
    /// Sent-but-unacknowledged frames, in sequence order. Unbounded by
    /// type, bounded in practice by the receiver's ack cadence — even a
    /// *saturated* receiver advances its watermark (shed-reject), so
    /// retention drains at wire speed.
    pub(crate) retained: VecDeque<Retained>,
    /// One entry per operation of every retained frame, oldest first,
    /// then one per operation of the open frame: frame `r` of `retained`
    /// owns the next `r.body.len()` of them.
    pub(crate) lsyncs: VecDeque<Lsync>,
    /// Last time the ack watermark moved (or retention went non-empty);
    /// the RTO measures from here.
    pub(crate) last_progress: Instant,
    /// A resync (a peer's Hello, or this node's own respawn) asked for an
    /// immediate re-send from the retention head.
    pub(crate) resync_hint: bool,
    /// Sequences the peer's latest NACK named as missing, re-sent (and
    /// cleared) by the next [`crate::wire::retransmit`] pass.
    pub(crate) nacked: Vec<u64>,
}

impl TxPeer {
    pub(crate) fn new(now: Instant) -> TxPeer {
        TxPeer {
            next_seq: 1,
            acked: 0,
            open: Vec::with_capacity(FRAME_CAP),
            open_bytes: 0,
            retained: VecDeque::new(),
            lsyncs: VecDeque::new(),
            last_progress: now,
            resync_hint: false,
            nacked: Vec::new(),
        }
    }

    /// Adds one operation to the open frame; true when that filled it and
    /// the caller must close it before appending again.
    pub(crate) fn append(&mut self, body: Payload, lsync: Lsync) -> bool {
        debug_assert!(self.open.len() < FRAME_CAP && self.open_bytes < FRAME_BYTES);
        self.open_bytes += body.wire_bytes();
        self.open.push(body);
        self.lsyncs.push_back(lsync);
        self.open.len() == FRAME_CAP || self.open_bytes >= FRAME_BYTES
    }

    /// Closes the open frame — the only place a sequence number is
    /// consumed and a retention slot filled: its operations become one
    /// shared slice, retained under the next sequence number. Returns
    /// what to transmit; `None` when nothing was open.
    pub(crate) fn close_frame(&mut self, now: Instant, sent_ns: u64) -> Option<(u64, Frame)> {
        if self.open.is_empty() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        // `Drain` reports its exact length, so this is one allocation
        // and `open` keeps its capacity for the next frame.
        let body: Frame = self.open.drain(..).collect();
        self.open_bytes = 0;
        if self.retained.is_empty() {
            self.last_progress = now;
        }
        self.retained.push_back(Retained {
            seq,
            body: Arc::clone(&body),
            sent_ns,
        });
        Some((seq, body))
    }
}

/// Receiver-side state from one source node.
#[derive(Default)]
pub(crate) struct RxPeer {
    /// Highest sequence delivered (or rejected) in order.
    pub(crate) delivered: u64,
    /// An ack should go out this pass.
    pub(crate) ack_pending: bool,
    /// A nack should go out this pass.
    pub(crate) nack_pending: bool,
    /// Sequences of frames shed since the last ack, to ride out on it.
    pub(crate) rejected_new: Vec<u64>,
    /// The reorder buffer: slot `i` is sequence `delivered + 1 + i`,
    /// `Some` when that frame arrived intact ahead of a gap and is parked
    /// until the gap fills, `None` while it is still missing. Spans the
    /// watermark to the highest sequence seen, so it is empty on an
    /// in-order stream, slot 0 is always a hole, and it never grows past
    /// [`HOLD_WINDOW`]. Lives here — in [`NodeState`] — so parked frames
    /// survive a proxy respawn; they stay in the sender's retention (the
    /// cumulative ack does not cover them) until applied.
    pub(crate) held: VecDeque<Option<Frame>>,
}

/// What [`RxPeer::park`] did with a frame that is ahead of the watermark.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Parked {
    /// Parked until the gap in front of it fills.
    Held,
    /// An intact copy of this sequence is already parked.
    Duplicate,
    /// Beyond the reorder window, or corrupt (its sequence, if inside
    /// the window, is noted as a hole): discarded.
    Dropped,
}

impl RxPeer {
    /// Files a frame whose `seq` is ahead of the watermark (`seq >
    /// delivered`) and cannot be applied yet: an intact body is parked in
    /// its slot; a corrupt one only widens the buffer to cover `seq`, so
    /// the next NACK names it.
    pub(crate) fn park(&mut self, seq: u64, body: Option<Frame>) -> Parked {
        debug_assert!(seq > self.delivered);
        let idx = match usize::try_from(seq - self.delivered - 1) {
            Ok(idx) if idx < HOLD_WINDOW => idx,
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

    /// Moves the watermark one sequence forward (that frame was just
    /// applied or shed), keeping the reorder buffer aligned with it.
    pub(crate) fn advance(&mut self) {
        self.delivered += 1;
        self.held.pop_front();
    }

    /// Takes the parked frame that is next in order, if the gap in front
    /// of it has closed; the caller applies it.
    pub(crate) fn next_ready(&mut self) -> Option<Frame> {
        let body = self.held.front_mut()?.take()?;
        self.advance();
        Some(body)
    }

    /// Every sequence still missing between the watermark and the highest
    /// one seen, ascending — what a NACK names.
    pub(crate) fn missing(&self) -> Vec<u64> {
        let first = self.delivered + 1;
        let slots = self.held.iter().enumerate();
        slots
            .filter_map(|(i, slot)| slot.is_none().then_some(first + i as u64))
            .collect()
    }

    /// Discards every parked frame (their sender is gone, or this proxy
    /// is exiting); returns how many operations they carried so the
    /// caller can count them as dropped.
    pub(crate) fn abandon_held(&mut self) -> u64 {
        let parked: usize = self.held.drain(..).flatten().map(|f| f.len()).sum();
        parked as u64
    }
}

/// An accepted ENQ whose reply ring was full; delivery is owed (its
/// frame was already acknowledged), so this queue must survive a proxy
/// crash — it does, inside [`NodeState`].
pub(crate) struct PendingEnq {
    pub(crate) dst: u32,
    pub(crate) rq: u32,
    pub(crate) data: Bytes,
    pub(crate) rsync: Option<u32>,
}

/// Everything a node's proxy knows that must survive the proxy thread:
/// protocol watermarks, retention buffers, CCBs, stashed undeliverable
/// output. Owned by `Shared`, locked by the serving proxy for its
/// lifetime; the supervisor locks it briefly between incarnations to
/// bump the epoch.
pub(crate) struct NodeState {
    /// Incarnation number; bumped by the supervisor on each respawn.
    pub(crate) epoch: u64,
    /// Respawn announcement owed to peers (set by the supervisor, cleared
    /// by the new incarnation once the Hellos are queued).
    pub(crate) hello_pending: bool,
    pub(crate) next_token: u64,
    pub(crate) ccbs: HashMap<u64, CcbGet>,
    pub(crate) tx: Vec<TxPeer>,
    pub(crate) rx: Vec<RxPeer>,
    /// Outbound frames whose destination ring was full, per node.
    /// Flushed in FIFO order before anything new is pushed, so per-pair
    /// wire order is preserved. Holds control frames too — an ack
    /// carrying rejections must never be lost.
    pub(crate) pending_wire: Vec<VecDeque<WireMsg>>,
    /// Accepted local deliveries whose reply ring was full.
    pub(crate) pending_rq: VecDeque<PendingEnq>,
    pub(crate) ticks: ObsTicks,
}

/// Decimation ticks of the proxy's sampled telemetry sites (see
/// [`crate::cluster::sampled`]), one per site: each site then records
/// one in 32 of *its own* events whatever the others see. (On a shared
/// tick a one-at-a-time stream steps it a fixed number of times per
/// operation, and every 32nd step lands on the same site forever.)
#[derive(Default)]
pub(crate) struct ObsTicks {
    /// `Send` events, per frame transmitted.
    pub(crate) send: u64,
    /// `Drain` events, per non-empty command burst.
    pub(crate) drain: u64,
    /// `AckIn` events, per acknowledgement received.
    pub(crate) ack_in: u64,
    /// Wire-RTT samples, per frame released by an acknowledgement.
    pub(crate) wire_rtt: u64,
}

impl NodeState {
    pub(crate) fn new(nodes: usize, now: Instant) -> NodeState {
        NodeState {
            epoch: 0,
            hello_pending: false,
            next_token: 0,
            ccbs: HashMap::new(),
            tx: (0..nodes).map(|_| TxPeer::new(now)).collect(),
            rx: (0..nodes).map(|_| RxPeer::default()).collect(),
            pending_wire: (0..nodes).map(|_| VecDeque::new()).collect(),
            pending_rq: VecDeque::new(),
            ticks: ObsTicks::default(),
        }
    }

    /// Outbound frames stashed because their destination rings were full.
    pub(crate) fn backlogged(&self) -> usize {
        self.pending_wire.iter().map(VecDeque::len).sum::<usize>() + self.pending_rq.len()
    }

    pub(crate) fn outbox_empty(&self) -> bool {
        self.pending_rq.is_empty() && self.pending_wire.iter().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distinguishable operation.
    fn op(tag: u64) -> Payload {
        Payload::GetReply {
            token: tag,
            data: None,
        }
    }

    /// A distinguishable intact frame (of one operation).
    fn body(tag: u64) -> Frame {
        Arc::new([op(tag)])
    }

    fn tag(f: &Frame) -> u64 {
        match f[..] {
            [Payload::GetReply { token, .. }] => token,
            ref other => panic!("unexpected frame {other:?}"),
        }
    }

    /// Everything the buffer releases right now, in release order.
    fn ready(rx: &mut RxPeer) -> Vec<u64> {
        std::iter::from_fn(|| rx.next_ready())
            .map(|p| tag(&p))
            .collect()
    }

    #[test]
    fn parked_frames_release_in_order_once_the_gap_fills() {
        let mut rx = RxPeer::default();
        // 1 and 4 are lost; 2, 3, 5 arrive (3 twice).
        assert_eq!(rx.park(3, Some(body(3))), Parked::Held);
        assert_eq!(rx.park(2, Some(body(2))), Parked::Held);
        assert_eq!(rx.park(3, Some(body(33))), Parked::Duplicate);
        assert_eq!(rx.park(5, Some(body(5))), Parked::Held);
        assert_eq!(rx.missing(), vec![1, 4]);
        assert!(ready(&mut rx).is_empty(), "slot 0 is still a hole");
        // 1 arrives in order: the caller applies it and advances.
        rx.advance();
        assert_eq!(ready(&mut rx), vec![2, 3]);
        assert_eq!(rx.delivered, 3);
        assert_eq!(rx.missing(), vec![4]);
        rx.advance();
        assert_eq!(ready(&mut rx), vec![5]);
        assert_eq!(rx.delivered, 5);
        assert!(rx.held.is_empty() && rx.missing().is_empty());
    }

    #[test]
    fn corrupt_frame_is_dropped_but_named_by_the_next_nack() {
        let mut rx = RxPeer {
            delivered: 9,
            ..RxPeer::default()
        };
        assert_eq!(rx.park(10, None), Parked::Dropped);
        assert_eq!(rx.missing(), vec![10]);
        assert_eq!(rx.park(12, None), Parked::Dropped);
        assert_eq!(rx.missing(), vec![10, 11, 12]);
        // A corrupt copy never displaces an intact parked one.
        assert_eq!(rx.park(11, Some(body(11))), Parked::Held);
        assert_eq!(rx.park(11, None), Parked::Duplicate);
        assert_eq!(rx.missing(), vec![10, 12]);
        // Abandonment is counted in operations, not parked frames.
        let three: Frame = Arc::new([op(1), op(2), op(3)]);
        assert_eq!(rx.park(13, Some(three)), Parked::Held);
        assert_eq!(rx.abandon_held(), 1 + 3);
        assert!(rx.held.is_empty());
    }

    #[test]
    fn hold_buffer_never_exceeds_its_window() {
        let mut rx = RxPeer::default();
        let cap = HOLD_WINDOW as u64;
        // Sequence 1 is missing; everything up to 3× the window arrives.
        for seq in 2..=3 * cap {
            let want = if seq <= cap {
                Parked::Held
            } else {
                Parked::Dropped
            };
            assert_eq!(rx.park(seq, Some(body(seq))), want, "seq {seq}");
            assert!(rx.held.len() <= HOLD_WINDOW);
        }
        assert_eq!(rx.park(u64::MAX, Some(body(0))), Parked::Dropped);
        assert_eq!(rx.missing(), vec![1]);
        // The gap fills: the whole window is released in order, and the
        // frames dropped beyond it are what is missing next.
        rx.advance();
        assert_eq!(ready(&mut rx), (2..=cap).collect::<Vec<_>>());
        assert_eq!(rx.delivered, cap);
        assert_eq!(rx.park(cap + 2, Some(body(cap + 2))), Parked::Held);
        assert_eq!(rx.missing(), vec![cap + 1]);
    }

    fn lsync(flag: u32) -> Lsync {
        Lsync {
            flag: Some((0, flag)),
            submit_ns: 0,
        }
    }

    #[test]
    fn open_frame_fills_at_the_cap_and_closes_under_one_sequence() {
        let now = Instant::now();
        let mut tx = TxPeer::new(now);
        assert!(tx.close_frame(now, 0).is_none(), "nothing open");
        assert_eq!(tx.next_seq, 1, "an empty close consumes no sequence");
        for i in 1..=FRAME_CAP as u64 {
            let full = tx.append(op(i), lsync(1));
            assert_eq!(full, i == FRAME_CAP as u64, "op {i}");
        }
        let (seq, body) = tx.close_frame(now, 7).expect("a full frame");
        assert_eq!((seq, body.len()), (1, FRAME_CAP));
        assert!(tx.open.is_empty());
        // One operation alone is a frame too, under the next sequence.
        assert!(!tx.append(op(99), lsync(2)));
        let (seq, one) = tx.close_frame(now, 9).expect("a frame of one");
        assert_eq!((seq, tag(&one)), (2, 99));
        // Retention shares the allocation that went to the wire, and
        // owes one lsync entry per operation, in order.
        let seqs: Vec<u64> = tx.retained.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [1, 2]);
        assert!(Arc::ptr_eq(&tx.retained[0].body, &body));
        assert!(Arc::ptr_eq(&tx.retained[1].body, &one));
        assert_eq!(tx.retained[1].sent_ns, 9);
        let flags: Vec<u32> = tx.lsyncs.iter().map(|l| l.flag.unwrap().1).collect();
        assert_eq!(flags.len(), FRAME_CAP + 1);
        assert_eq!(flags.last(), Some(&2));
        assert!(flags[..FRAME_CAP].iter().all(|&f| f == 1));
    }

    #[test]
    fn open_frame_closes_at_the_byte_cap_however_few_it_holds() {
        let now = Instant::now();
        let mut tx = TxPeer::new(now);
        let put = |n: u64| Payload::Put {
            dst: 0,
            raddr: 0,
            data: Bytes::from(vec![0u8; n as usize]),
            rsync: None,
        };
        // A bulk operation fills a frame by itself.
        assert!(tx.append(put(FRAME_BYTES), lsync(1)));
        let (seq, body) = tx.close_frame(now, 0).expect("a frame of one");
        assert_eq!((seq, body.len()), (1, 1));
        // Operations that carry nothing weigh nothing; the one that
        // brings the frame to the cap is its last.
        assert!(!tx.append(op(7), lsync(1)));
        assert!(!tx.append(put(FRAME_BYTES - 1), lsync(1)));
        assert!(tx.append(put(1), lsync(1)));
        let (seq, body) = tx.close_frame(now, 0).expect("a frame of three");
        assert_eq!((seq, body.len()), (2, 3));
        // The next frame starts from nothing.
        assert_eq!(tx.open_bytes, 0);
        assert!(!tx.append(put(8), lsync(1)));
    }
}
