//! Per-node protocol state that outlives a proxy thread.
//!
//! Everything here is owned by `Shared` and locked by the node's serving
//! proxy for its lifetime, so a respawned incarnation resumes from the
//! exact watermarks, retention buffers, parked frames and CCBs its
//! predecessor held: [`NodeState`], and the two halves of each sequenced
//! stream it keeps per peer node — [`TxPeer`] (sender: the open frame,
//! retention, NACKed sequences) and [`RxPeer`] (receiver: the reorder
//! buffer and what the next ack owes).
//!
//! The sequencing itself — numbering, retention until the cumulative ack,
//! the in-order watermark and the bounded reorder buffer — is
//! [`mproxy_model::link`], the core the simulator's link layer runs on
//! too; what is here is this driver's side of it: frames, one RTO per
//! peer, one ack / NACK per pass, shed-reject.
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

use bytes::Bytes;
use mproxy_model::link::{Reorder, Retention};

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

/// A retained (sent, unacknowledged) frame; its sequence number is its
/// place in [`TxPeer::retained`]. What each of its operations owes its
/// submitter on acknowledgement is in [`TxPeer::lsyncs`].
pub(crate) struct Retained {
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
    pub(crate) retained: Retention<Retained>,
    /// One entry per operation of every retained frame, oldest first,
    /// then one per operation of the open frame: frame `r` of `retained`
    /// owns the next `r.body.len()` of them.
    pub(crate) lsyncs: VecDeque<Lsync>,
    /// Last time (cluster-relative ns, like [`Retained::sent_ns`]) the ack
    /// watermark moved or retention went non-empty; the RTO measures from
    /// here.
    pub(crate) last_progress_ns: u64,
    /// A resync (a peer's Hello, or this node's own respawn) asked for an
    /// immediate re-send from the retention head.
    pub(crate) resync_hint: bool,
    /// Sequences the peer's latest NACK named as missing, re-sent (and
    /// cleared) by the next [`crate::wire::retransmit`] pass.
    pub(crate) nacked: Vec<u64>,
}

impl TxPeer {
    pub(crate) fn new(now_ns: u64) -> TxPeer {
        TxPeer {
            open: Vec::with_capacity(FRAME_CAP),
            open_bytes: 0,
            retained: Retention::new(),
            lsyncs: VecDeque::new(),
            last_progress_ns: now_ns,
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

    /// Closes the open frame — the only place this driver consumes a
    /// sequence number and fills a retention slot: its operations become
    /// one shared slice, retained under the next sequence number. Returns
    /// what to transmit; `None` when nothing was open.
    pub(crate) fn close_frame(&mut self, now_ns: u64) -> Option<(u64, Frame)> {
        if self.open.is_empty() {
            return None;
        }
        // `Drain` reports its exact length, so this is one allocation
        // and `open` keeps its capacity for the next frame.
        let body: Frame = self.open.drain(..).collect();
        self.open_bytes = 0;
        if self.retained.is_empty() {
            self.last_progress_ns = now_ns;
        }
        let seq = self.retained.push(Retained {
            body: Arc::clone(&body),
            sent_ns: now_ns,
        });
        Some((seq, body))
    }
}

/// Receiver-side state from one source node.
pub(crate) struct RxPeer {
    /// The in-order watermark and the reorder buffer behind it, at most
    /// [`HOLD_WINDOW`] frames wide. Lives here — in [`NodeState`] — so
    /// parked frames survive a proxy respawn; they stay in the sender's
    /// retention (the cumulative ack does not cover them) until applied.
    pub(crate) order: Reorder<Frame>,
    /// An ack should go out this pass.
    pub(crate) ack_pending: bool,
    /// A nack should go out this pass.
    pub(crate) nack_pending: bool,
    /// Sequences of frames shed since the last ack, to ride out on it.
    pub(crate) rejected_new: Vec<u64>,
}

impl RxPeer {
    fn new() -> RxPeer {
        RxPeer {
            order: Reorder::new(HOLD_WINDOW),
            ack_pending: false,
            nack_pending: false,
            rejected_new: Vec::new(),
        }
    }

    /// Discards every parked frame (their sender is gone, or this proxy
    /// is exiting); returns how many operations they carried so the
    /// caller can count them as dropped.
    pub(crate) fn abandon_held(&mut self) -> u64 {
        self.order.abandon_held().iter().map(|f| f.len() as u64).sum()
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
    pub(crate) fn new(nodes: usize, now_ns: u64) -> NodeState {
        NodeState {
            epoch: 0,
            hello_pending: false,
            next_token: 0,
            ccbs: HashMap::new(),
            tx: (0..nodes).map(|_| TxPeer::new(now_ns)).collect(),
            rx: (0..nodes).map(|_| RxPeer::new()).collect(),
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

    fn tag(f: &Frame) -> u64 {
        match f[..] {
            [Payload::GetReply { token, .. }] => token,
            ref other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn abandonment_is_counted_in_operations_not_parked_frames() {
        let mut rx = RxPeer::new();
        let three: Frame = Arc::new([op(1), op(2), op(3)]);
        rx.order.park(2, Some(Arc::new([op(9)])));
        rx.order.park(4, Some(three));
        assert_eq!(rx.abandon_held(), 1 + 3);
        assert_eq!(rx.order.span(), 0);
    }

    fn lsync(flag: u32) -> Lsync {
        Lsync {
            flag: Some((0, flag)),
            submit_ns: 0,
        }
    }

    #[test]
    fn open_frame_fills_at_the_cap_and_closes_under_one_sequence() {
        let mut tx = TxPeer::new(0);
        assert!(tx.close_frame(0).is_none(), "nothing open");
        assert_eq!(tx.retained.last(), 0, "an empty close consumes no sequence");
        for i in 1..=FRAME_CAP as u64 {
            let full = tx.append(op(i), lsync(1));
            assert_eq!(full, i == FRAME_CAP as u64, "op {i}");
        }
        let (seq, body) = tx.close_frame(7).expect("a full frame");
        assert_eq!((seq, body.len()), (1, FRAME_CAP));
        assert!(tx.open.is_empty());
        assert_eq!(tx.last_progress_ns, 7, "retention went non-empty");
        // One operation alone is a frame too, under the next sequence.
        assert!(!tx.append(op(99), lsync(2)));
        let (seq, one) = tx.close_frame(9).expect("a frame of one");
        assert_eq!((seq, tag(&one)), (2, 99));
        assert_eq!(tx.last_progress_ns, 7, "only the ack watermark moves it now");
        // Retention shares the allocation that went to the wire, and
        // owes one lsync entry per operation, in order.
        let seqs: Vec<u64> = tx.retained.iter().map(|(seq, _)| seq).collect();
        assert_eq!(seqs, [1, 2]);
        let retained = |seq| tx.retained.get(seq).expect("retained");
        assert!(Arc::ptr_eq(&retained(1).body, &body));
        assert!(Arc::ptr_eq(&retained(2).body, &one));
        assert_eq!(retained(2).sent_ns, 9);
        let flags: Vec<u32> = tx.lsyncs.iter().map(|l| l.flag.unwrap().1).collect();
        assert_eq!(flags.len(), FRAME_CAP + 1);
        assert_eq!(flags.last(), Some(&2));
        assert!(flags[..FRAME_CAP].iter().all(|&f| f == 1));
    }

    #[test]
    fn open_frame_closes_at_the_byte_cap_however_few_it_holds() {
        let mut tx = TxPeer::new(0);
        let put = |n: u64| Payload::Put {
            dst: 0,
            raddr: 0,
            data: Bytes::from(vec![0u8; n as usize]),
            rsync: None,
        };
        // A bulk operation fills a frame by itself.
        assert!(tx.append(put(FRAME_BYTES), lsync(1)));
        let (seq, body) = tx.close_frame(0).expect("a frame of one");
        assert_eq!((seq, body.len()), (1, 1));
        // Operations that carry nothing weigh nothing; the one that
        // brings the frame to the cap is its last.
        assert!(!tx.append(op(7), lsync(1)));
        assert!(!tx.append(put(FRAME_BYTES - 1), lsync(1)));
        assert!(tx.append(put(1), lsync(1)));
        let (seq, body) = tx.close_frame(0).expect("a frame of three");
        assert_eq!((seq, body.len()), (2, 3));
        // The next frame starts from nothing.
        assert_eq!(tx.open_bytes, 0);
        assert!(!tx.append(put(8), lsync(1)));
    }
}
