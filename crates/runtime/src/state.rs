//! Per-node protocol state that outlives a proxy thread.
//!
//! Everything here is owned by `Shared` and locked by the node's serving
//! proxy for its lifetime, so a respawned incarnation resumes from the
//! exact watermarks, retention buffers, parked frames and CCBs its
//! predecessor held: [`NodeState`], and the two halves of each sequenced
//! stream it keeps per peer node — [`TxPeer`] (sender: sequence numbers,
//! retention, NACKed sequences) and [`RxPeer`] (receiver: the in-order
//! watermark and the reorder buffer). The functions that move frames
//! between these structures and the rings are in [`crate::wire`].

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use bytes::Bytes;

use crate::proxy::PENDING_CAP;
use crate::wire::{Payload, WireMsg};

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

/// A retained (sent, unacknowledged) data frame.
pub(crate) struct Retained {
    pub(crate) seq: u64,
    pub(crate) body: Payload,
    /// `(proc, flag)` to bump when the frame is acknowledged un-rejected.
    pub(crate) lsync: Option<(u32, u32)>,
    /// First-transmission time (cluster-relative ns) — the wire-RTT
    /// histogram measures from here to the releasing ack.
    pub(crate) sent_ns: u64,
    /// The originating command's submit stamp ([`crate::spsc::Entry::t_ns`]; 0 when
    /// recording was off or the frame is proxy-originated) — the
    /// lsync-RTT histogram measures from here.
    pub(crate) submit_ns: u64,
}

/// Sender-side state towards one destination node.
pub(crate) struct TxPeer {
    /// Sequence number the next new frame will carry (first frame is 1).
    pub(crate) next_seq: u64,
    /// Highest acknowledged sequence.
    pub(crate) acked: u64,
    /// Sent-but-unacknowledged frames, in sequence order. Unbounded by
    /// type, bounded in practice by the receiver's ack cadence — even a
    /// *saturated* receiver advances its watermark (shed-reject), so
    /// retention drains at wire speed.
    pub(crate) retained: VecDeque<Retained>,
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
            retained: VecDeque::new(),
            last_progress: now,
            resync_hint: false,
            nacked: Vec::new(),
        }
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
    /// Sequences shed since the last ack, to ride out on it.
    pub(crate) rejected_new: Vec<u64>,
    /// The reorder buffer: slot `i` is sequence `delivered + 1 + i`,
    /// `Some` when that frame arrived intact ahead of a gap and is parked
    /// until the gap fills, `None` while it is still missing. Spans the
    /// watermark to the highest sequence seen, so it is empty on an
    /// in-order stream, slot 0 is always a hole, and it never grows past
    /// [`HOLD_WINDOW`]. Lives here — in [`NodeState`] — so parked frames
    /// survive a proxy respawn; they stay in the sender's retention (the
    /// cumulative ack does not cover them) until applied.
    pub(crate) held: VecDeque<Option<Payload>>,
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
    pub(crate) fn park(&mut self, seq: u64, body: Option<Payload>) -> Parked {
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
    pub(crate) fn next_ready(&mut self) -> Option<Payload> {
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
    /// is exiting); returns how many there were so the caller can count
    /// them as dropped.
    pub(crate) fn abandon_held(&mut self) -> u64 {
        let parked = self.held.iter().filter(|s| s.is_some()).count();
        self.held.clear();
        parked as u64
    }
}

/// An accepted ENQ whose reply ring was full; delivery is owed (the
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
    /// Decimation tick for sampled telemetry (see [`crate::cluster::OBS_SAMPLE_MASK`]).
    pub(crate) obs_tick: u64,
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
            obs_tick: 0,
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

    /// A distinguishable intact frame body.
    fn body(tag: u64) -> Payload {
        Payload::GetReply {
            token: tag,
            data: None,
        }
    }

    fn tag(p: &Payload) -> u64 {
        match p {
            Payload::GetReply { token, .. } => *token,
            other => panic!("unexpected payload {other:?}"),
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
        assert_eq!(rx.abandon_held(), 1);
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
}
