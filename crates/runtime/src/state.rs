//! Per-node protocol state that outlives a proxy panic.
//!
//! Everything here is owned by the node's proxy thread for the cluster's
//! lifetime, outside the `catch_unwind` its service loop runs under, so a
//! loop restarted after a panic resumes from the exact watermarks,
//! retention buffers, parked frames and CCBs the dead one held:
//! [`NodeState`], and the two halves of each sequenced
//! stream it keeps per peer node — [`TxPeer`] (sender: the open frame,
//! retention, which is also the peer's outbound queue, NACKed sequences)
//! and [`RxPeer`] (receiver: the reorder buffer and what the next ack
//! owes).
//!
//! The sequencing itself — numbering, retention until the cumulative ack,
//! the in-order watermark and the bounded reorder buffer — is
//! [`mproxy_model::link`], the core the simulator's link layer runs on
//! too; what is here is this driver's side of it: frames, one RTO per
//! peer, one ack / NACK per pass.
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
use mproxy_model::fate::Fate;
use mproxy_model::link::{Reorder, Retention};

use crate::fault::NodeFaults;
use crate::proxy::PENDING_CAP;
use crate::wire::{Frame, Payload, Source};

/// Most operations one frame carries. A frame also closes, however few it
/// holds, at the end of the service phase that opened it, so this only
/// bounds how much one sequence number — one retransmission, one reorder
/// slot — can cover. Most of what there is to gain
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
/// restarted proxy can still complete or cancel it).
pub(crate) struct CcbGet {
    pub(crate) proc: u32,
    pub(crate) laddr: u64,
    pub(crate) lsync: Option<u32>,
}

/// A retained (closed, unacknowledged) frame; its sequence number is its
/// place in [`TxPeer::retained`]. What each of its operations owes its
/// submitter on acknowledgement is in [`TxPeer::lsyncs`].
pub(crate) struct Retained {
    pub(crate) body: Frame,
    /// Close time (cluster-relative ns) — the wire-RTT histogram measures
    /// from here to the releasing ack.
    pub(crate) sent_ns: u64,
    /// The injector's verdict on its first transmission, applied by
    /// [`crate::wire::pump`]; a retransmission draws its own.
    pub(crate) fate: Fate,
}

/// What the sender owes one operation's submitter once the frame that
/// carries it is acknowledged.
pub(crate) struct Lsync {
    /// `(proc, flag)` to bump.
    pub(crate) flag: Option<(u32, u32)>,
    /// The originating command's submit stamp ([`crate::spsc::Entry::t_ns`]; 0 when
    /// recording was off or the operation is proxy-originated) — the
    /// lsync-RTT histogram measures from here.
    pub(crate) submit_ns: u64,
}

/// An operation of the open frame: its payload bytes are the next `data`
/// bytes of [`TxPeer::staging`], after those of the operations before it.
pub(crate) type Staged = Payload<usize>;

/// Sender-side state towards one destination node.
pub(crate) struct TxPeer {
    /// The open frame: operations the current service phase has addressed
    /// to this peer, not yet sequenced. Never longer than [`FRAME_CAP`]
    /// nor, short of its last operation, heavier than [`FRAME_BYTES`],
    /// and empty between phases — the phase that appends also closes
    /// ([`crate::wire::flush_frames`]), so no operation waits for company.
    /// It lives here, in crash-surviving state, so a proxy that dies
    /// mid-phase leaves its restarted loop the operations, not a hole.
    pub(crate) open: Vec<Staged>,
    /// The open frame's payload bytes, in operation order, copied from
    /// their segments as each operation joined. Emptied, not freed, as
    /// the frame closes: it grows to what this peer's frames carry (at
    /// most twice [`FRAME_BYTES`] is kept) and is reused from then on.
    pub(crate) staging: Vec<u8>,
    /// Closed, unacknowledged frames in sequence order: the peer's one
    /// outbound queue. Those past [`TxPeer::sent`] are not on its ring yet
    /// (`proxy::held` caps them); sent ones drain as fast as the
    /// receiver applies.
    pub(crate) retained: Retention<Retained>,
    /// Highest sequence pushed to the peer's ring, or skipped as dropped.
    pub(crate) sent: u64,
    /// One entry per operation of every retained frame, oldest first,
    /// then one per operation of the open frame: frame `r` of `retained`
    /// owns the next `r.body.len()` of them.
    pub(crate) lsyncs: VecDeque<Lsync>,
    /// Last time (cluster-relative ns, like [`Retained::sent_ns`]) the ack
    /// watermark moved or retention went non-empty; the RTO measures from
    /// here.
    pub(crate) last_progress_ns: u64,
    /// Sequences the peer's latest NACK named as missing, re-sent (and
    /// cleared) by the next [`crate::wire::retransmit`] pass.
    pub(crate) nacked: Vec<u64>,
}

impl TxPeer {
    pub(crate) fn new(now_ns: u64) -> TxPeer {
        TxPeer {
            open: Vec::with_capacity(FRAME_CAP),
            staging: Vec::new(),
            retained: Retention::new(),
            sent: 0,
            lsyncs: VecDeque::new(),
            last_progress_ns: now_ns,
            nacked: Vec::new(),
        }
    }

    /// Adds one operation to the open frame, copying its payload bytes
    /// from their source into [`TxPeer::staging`]; true when that filled
    /// the frame and the caller must close it before appending again.
    pub(crate) fn append(&mut self, body: Payload<Source<'_>>, lsync: Lsync) -> bool {
        debug_assert!(self.open.len() < FRAME_CAP && (self.staging.len() as u64) < FRAME_BYTES);
        let staged = body.map(|src| {
            src.seg.append_to(src.addr, src.len, &mut self.staging);
            src.len
        });
        self.open.push(staged);
        self.lsyncs.push_back(lsync);
        self.open.len() == FRAME_CAP || self.staging.len() as u64 >= FRAME_BYTES
    }

    /// Closed frames not yet on the peer's ring.
    pub(crate) fn unsent(&self) -> usize {
        (self.retained.last() - self.sent) as usize
    }

    /// Closes the open frame — the only place this driver consumes a
    /// sequence number and fills a retention slot: its staged bytes
    /// become one buffer and its operations one shared slice, each
    /// operation's data a slice of that buffer, retained under the next
    /// sequence number with its verdict `fate`. Returns both; `None` when
    /// nothing was open.
    pub(crate) fn close_frame(&mut self, now_ns: u64, fate: Fate) -> Option<(u64, Frame)> {
        if self.open.is_empty() {
            return None;
        }
        // A frame of GET requests alone stages nothing and allocates no
        // buffer (no other operation stages nothing: `proxy::valid`
        // admits no empty transfer).
        let buf = (!self.staging.is_empty()).then(|| Bytes::copy_from_slice(&self.staging));
        self.staging.clear();
        // A frame is short of FRAME_BYTES before its last operation, so
        // twice that holds any frame of operations no larger; what one
        // larger operation grew is given back here.
        self.staging.shrink_to(2 * FRAME_BYTES as usize);
        let mut at = 0;
        let mut slice = |len: usize| {
            at += len;
            buf.as_ref()
                .map_or_else(Bytes::new, |buf| buf.slice(at - len..at))
        };
        // `Drain` reports its exact length, so this is one allocation
        // and `open` keeps its capacity for the next frame.
        let body: Frame = self.open.drain(..).map(|op| op.map(&mut slice)).collect();
        if self.retained.is_empty() {
            self.last_progress_ns = now_ns;
        }
        let seq = self.retained.push(Retained {
            body: Arc::clone(&body),
            sent_ns: now_ns,
            fate,
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
    /// An ack is owed (a full ring leaves it owed; the one that goes
    /// carries the watermark of then).
    pub(crate) ack_pending: bool,
    /// A nack is owed, on the same terms.
    pub(crate) nack_pending: bool,
}

impl RxPeer {
    fn new() -> RxPeer {
        RxPeer {
            order: Reorder::new(HOLD_WINDOW),
            ack_pending: false,
            nack_pending: false,
        }
    }

    /// Empties every parked frame (their sender is gone, or this proxy
    /// is exiting), handing each operation to `lost`; returns how many
    /// there were. The slots stay, so a late copy is a duplicate
    /// ([`crate::wire::handle_packet`] applies nothing more of a stream
    /// it abandoned).
    pub(crate) fn abandon_held(&mut self, mut lost: impl FnMut(&Payload)) -> u64 {
        let frames = self.order.held_mut();
        let ops = frames.map(|f| std::mem::replace(f, Arc::new([])));
        ops.map(|f| f.iter().map(&mut lost).count() as u64).sum()
    }
}

/// Everything a node's proxy knows that must survive a panic of its
/// service loop: protocol watermarks, retention buffers (with what has
/// not reached each peer's ring yet), CCBs, its share of the fault plan.
/// Owned by the node's proxy thread ([`crate::proxy::run_proxy`]).
pub(crate) struct NodeState {
    pub(crate) next_token: u64,
    pub(crate) ccbs: HashMap<u64, CcbGet>,
    pub(crate) tx: Vec<TxPeer>,
    pub(crate) rx: Vec<RxPeer>,
    pub(crate) ticks: ObsTicks,
    /// This node's share of the installed fault plan, if any.
    pub(crate) faults: Option<NodeFaults>,
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
    pub(crate) fn new(nodes: usize, now_ns: u64, faults: Option<NodeFaults>) -> NodeState {
        NodeState {
            next_token: 0,
            ccbs: HashMap::new(),
            tx: (0..nodes).map(|_| TxPeer::new(now_ns)).collect(),
            rx: (0..nodes).map(|_| RxPeer::new()).collect(),
            ticks: ObsTicks::default(),
            faults,
        }
    }

    /// Nothing is owed that only a retry can deliver: no unsent frame, no
    /// refused ack or nack.
    pub(crate) fn outbox_empty(&self) -> bool {
        self.tx.iter().all(|tx| tx.unsent() == 0)
            && self.rx.iter().all(|rx| !rx.ack_pending && !rx.nack_pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Segment;
    use mproxy_model::link::Parked;

    /// A distinguishable operation that carries no payload bytes.
    fn op<D>(tag: u64) -> Payload<D> {
        Payload::GetReq {
            dst: 0,
            raddr: 0,
            nbytes: 8,
            token: tag,
        }
    }

    fn tag(f: &Frame) -> u64 {
        match f[..] {
            [Payload::GetReq { token, .. }] => token,
            ref other => panic!("unexpected frame {other:?}"),
        }
    }

    /// The payload bytes `op` carries, if any.
    fn data(op: &Payload) -> Option<&Bytes> {
        match op {
            Payload::Put { data, .. }
            | Payload::Enq { data, .. }
            | Payload::GetReply { data, .. } => Some(data),
            Payload::GetReq { .. } => None,
        }
    }

    #[test]
    fn abandonment_is_counted_in_operations_not_parked_frames() {
        let mut rx = RxPeer::new();
        let three: Frame = Arc::new([op(1), op(2), op(3)]);
        rx.order.park(2, Some(Arc::new([op(9)])));
        rx.order.park(4, Some(three));
        assert_eq!(rx.abandon_held(|_| {}), 1 + 3);
        // The slots stay, empty: a late copy is a duplicate, and the
        // frames count once.
        assert_eq!(rx.order.span(), 4);
        assert_eq!(rx.order.park(4, Some(Arc::new([op(3)]))), Parked::Duplicate);
        assert_eq!(rx.abandon_held(|_| {}), 0);
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
        assert!(tx.close_frame(0, Fate::default()).is_none(), "nothing open");
        assert_eq!(tx.retained.last(), 0, "an empty close consumes no sequence");
        for i in 1..=FRAME_CAP as u64 {
            let full = tx.append(op(i), lsync(1));
            assert_eq!(full, i == FRAME_CAP as u64, "op {i}");
        }
        let (seq, body) = tx.close_frame(7, Fate::default()).expect("a full frame");
        assert_eq!((seq, body.len()), (1, FRAME_CAP));
        assert!(tx.open.is_empty());
        assert_eq!(tx.last_progress_ns, 7, "retention went non-empty");
        // One operation alone is a frame too, under the next sequence.
        assert!(!tx.append(op(99), lsync(2)));
        let (seq, one) = tx.close_frame(9, Fate::default()).expect("a frame of one");
        assert_eq!((seq, tag(&one)), (2, 99));
        assert_eq!(
            tx.last_progress_ns, 7,
            "only the ack watermark moves it now"
        );
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
        let seg = Segment::new(FRAME_BYTES as usize);
        let put = |n: u64| Payload::Put {
            dst: 0,
            raddr: 0,
            data: Source {
                seg: &seg,
                addr: 0,
                len: n as usize,
            },
            rsync: None,
        };
        // A bulk operation fills a frame by itself.
        assert!(tx.append(put(FRAME_BYTES), lsync(1)));
        let (seq, body) = tx.close_frame(0, Fate::default()).expect("a frame of one");
        assert_eq!((seq, body.len()), (1, 1));
        // Operations that carry nothing weigh nothing; the one that
        // brings the frame to the cap is its last.
        assert!(!tx.append(op(7), lsync(1)));
        assert!(!tx.append(put(FRAME_BYTES - 1), lsync(1)));
        assert!(tx.append(put(1), lsync(1)));
        let (seq, body) = tx
            .close_frame(0, Fate::default())
            .expect("a frame of three");
        assert_eq!((seq, body.len()), (2, 3));
        // The next frame starts from nothing.
        assert!(tx.staging.is_empty());
        assert!(!tx.append(put(8), lsync(1)));
    }

    #[test]
    fn a_closed_frame_is_one_buffer_and_each_operation_a_slice_of_it() {
        let seg = Segment::new(256);
        let bytes: Vec<u8> = (0..=255).collect();
        seg.write(0, &bytes);
        let src = |addr: u64, len: usize| Source {
            seg: &seg,
            addr,
            len,
        };
        // Each kind that carries bytes, from unaligned heads and tails and
        // from inside one word, and a GET request, which carries none.
        let spans = [(3, 13), (100, 32), (17, 1), (200, 40)];
        let ops = [
            Payload::Put {
                dst: 0,
                raddr: 0,
                data: src(3, 13),
                rsync: None,
            },
            op(1),
            Payload::Enq {
                dst: 0,
                rq: 0,
                data: src(100, 32),
                rsync: None,
            },
            Payload::GetReply {
                token: 2,
                data: src(17, 1),
            },
            Payload::Put {
                dst: 0,
                raddr: 0,
                data: src(200, 40),
                rsync: None,
            },
        ];
        let mut tx = TxPeer::new(0);
        for op in ops {
            assert!(!tx.append(op, lsync(1)));
        }
        assert_eq!(tx.staging.len(), 13 + 32 + 1 + 40);
        let (_, body) = tx.close_frame(0, Fate::default()).expect("a frame");
        assert!(
            tx.staging.is_empty(),
            "staging is emptied for the next frame"
        );
        let slices: Vec<&Bytes> = body.iter().filter_map(data).collect();
        assert_eq!(slices.len(), spans.len());
        // Every operation's bytes are the next ones of one buffer, in
        // order, and are what its source held.
        let base = slices[0].as_ptr() as usize;
        let mut at = 0;
        for (data, (addr, len)) in slices.into_iter().zip(spans) {
            assert_eq!(data.as_ptr() as usize - base, at, "{addr}+{len}");
            assert_eq!(&data[..], &bytes[addr as usize..addr as usize + len]);
            at += len;
        }
        // A frame of requests alone carries no bytes.
        assert!(!tx.append(op(3), lsync(1)));
        let (_, body) = tx.close_frame(0, Fate::default()).expect("a frame");
        assert_eq!(tag(&body), 3);
    }
}
