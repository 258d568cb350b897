//! The sequenced wire layer between proxies.
//!
//! Inter-proxy traffic is *reliable* over a transport that is allowed to
//! misbehave (the seeded injector of [`crate::fault`], or a proxy dying
//! mid-conversation). Its unit is the **frame**: the operations one
//! service phase addressed to one peer node — at most
//! [`crate::state::FRAME_CAP`], and no more after the one that brings
//! their payload to [`crate::state::FRAME_BYTES`] — as one shared
//! immutable slice ([`Frame`]). [`send_data`] is the only way an
//! operation reaches the wire: it appends to the destination's open
//! frame, and the frame is closed and transmitted ([`transmit_frame`])
//! when it fills or when the phase that opened it ends
//! ([`flush_frames`], right after the command drain and again after the
//! wire drain), so a frame never outlives the pass that opened it and an
//! operation submitted alone leaves at once as a frame of one — there is
//! no flush timer and no unbatched path. Each peer has one outbound
//! queue, its retention: a closed frame is retained once, and [`pump`]
//! alone decides what first reaches the peer's ring — the unsent frames
//! in sequence, as far as the ring takes them; [`retransmit`] re-sends
//! only what has been sent.
//!
//! Everything the protocol does, it does once per frame, memory
//! included. A frame from node `s` to node `d` carries one per-pair
//! monotone sequence number, and the sender retains one reference to it
//! until acknowledged (the wire copies, retransmissions included, are
//! further references to the same allocation). Its operations' payload
//! bytes are one buffer too: each operation's bytes are copied from its
//! segment onto the peer's staging buffer as it joins the open frame,
//! and closing the frame copies them into one [`Bytes`] that every
//! operation's `data` is a slice of, so a frame costs two allocations
//! however many operations it carries, and the releasing ack frees
//! both. A delivered ENQ is copied out of it, since it outlives the
//! frame in a receive queue. The one thing that stays per operation is
//! the fault injector's draw: a plan's rates are per operation, so each
//! is judged as it is queued and one that draws a verdict leaves in a
//! frame of its own ([`send_data`]). The receiver
//! delivers strictly in order — every operation of a frame, in
//! submission order, by reference — parks intact out-of-order frames in
//! a bounded reorder buffer, answers each drain batch with one cumulative
//! [`WireMsg::AckUpto`] watermark, NACKs the exact sequences it is
//! missing behind a gap or a corrupt frame, and drops duplicates
//! (re-acking so the sender converges). A retransmit timer backstops lost
//! NACKs. Control frames (acks and nacks) are never judged by the
//! injector and never dropped: the model is a lossy transport under a
//! reliable protocol, not a broken protocol.
//!
//! A proxy respawn needs no message of its own: everything above lives
//! in [`NodeState`], which the restarted loop re-enters unchanged, so a
//! kill is a pause. A frame really lost to it — popped from the ring by
//! a pass the panic abandoned — is a drop like any other, and the NACK
//! or the RTO recovers it.
//!
//! The invariant bought by all this: **an operation whose `lsync` flag
//! fired was applied at the destination exactly once** — under drops,
//! duplicates, corruption and proxy respawns. The argument is per frame:
//! a sequence number is applied only as the watermark passes it, which
//! happens once; applying it applies each of its operations once; and
//! the sender fires a frame's lsyncs (together, [`process_ack`]) only on
//! an ack at or past its sequence. The middle step rests on a premise:
//! no user operand reaches [`crate::proxy::apply_data`] unchecked — the
//! sending proxy checked every one where it decoded the command, and
//! claimed each ENQ a place in its queue — so applying a frame cannot
//! fail partway on anything a tenant chose. The
//! premise matters because [`handle_packet`] advances the watermark, and
//! owes the ack, *before* it applies the frame: a panic partway would
//! leave the rest of the frame acknowledged after the restart but never
//! applied. That order stays; the premise is the assumption it rests on.
//! Overload never breaks that chain: a
//! receiver applies every in-order frame it pops, and a sender that
//! outruns it is slowed by the bounded queues behind it — the wire ring,
//! then the frames retained unsent for that peer (past
//! [`crate::proxy::PENDING_CAP`] of them, commands addressed to it wait)
//! or, for an ENQ, its queue's places (none free, the ENQ waits), then
//! the full command queues of the processes submitting to it. Only they
//! wait: commands to other peers and queues are served.
//!
//! This module holds the frames and the functions that move them; the
//! per-stream state they act on ([`crate::state::TxPeer`], [`RxPeer`]) is in
//! [`crate::state`], the sequencing under it in [`mproxy_model::link`],
//! and what a delivered operation *does* is [`crate::proxy::apply_data`].

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use mproxy_model::fate::Fate;
use mproxy_model::link::Parked;
use mproxy_obs::{Ctr, EventKind, HistId, Scope as ObsScope};

use crate::cluster::{sampled, Shared};
use crate::fault::NodeFaults;
use crate::mem::Segment;
use crate::proxy::apply_data;
use crate::state::{Lsync, NodeState, Retained, RxPeer, TxPeer};

/// Retransmit timeout: a sender with unacknowledged frames and no ack
/// progress for this long re-sends from its retention buffer. Generous
/// against ack coalescing latency, tight enough that a dropped frame
/// costs milliseconds, not a stalled test.
pub(crate) const RTO_NS: u64 = 2_000_000;

/// Most retained frames re-sent from the retention head per destination
/// per RTO expiry; bounds the burst a recovering receiver takes all at
/// once. NACK-driven recovery never
/// bursts: it re-sends exactly the sequences the receiver named.
const RESEND_BURST: usize = 128;

/// An operation travelling the wire. `D` is its payload bytes: on the
/// wire, a slice of its frame's one buffer ([`Frame`]); as it is
/// queued, where they are read from ([`Source`]); in the open frame, how
/// many of the staged bytes are its own ([`crate::state::Staged`]).
#[derive(Debug)]
pub(crate) enum Payload<D = Bytes> {
    Put {
        dst: u32,
        raddr: u64,
        data: D,
        rsync: Option<u32>,
    },
    GetReq {
        dst: u32,
        raddr: u64,
        nbytes: u32,
        token: u64,
    },
    GetReply {
        token: u64,
        data: D,
    },
    Enq {
        dst: u32,
        rq: u32,
        data: D,
        rsync: Option<u32>,
    },
}

impl<D> Payload<D> {
    /// The CCB token of a GET request.
    pub(crate) fn get_token(&self) -> Option<u64> {
        match *self {
            Payload::GetReq { token, .. } => Some(token),
            _ => None,
        }
    }

    /// The same operation, its payload bytes replaced by `f` of them.
    pub(crate) fn map<E>(self, f: impl FnOnce(D) -> E) -> Payload<E> {
        match self {
            Payload::Put {
                dst,
                raddr,
                data,
                rsync,
            } => Payload::Put {
                dst,
                raddr,
                data: f(data),
                rsync,
            },
            Payload::GetReq {
                dst,
                raddr,
                nbytes,
                token,
            } => Payload::GetReq {
                dst,
                raddr,
                nbytes,
                token,
            },
            Payload::GetReply { token, data } => Payload::GetReply {
                token,
                data: f(data),
            },
            Payload::Enq {
                dst,
                rq,
                data,
                rsync,
            } => Payload::Enq {
                dst,
                rq,
                data: f(data),
                rsync,
            },
        }
    }
}

impl Payload {
    /// Application bytes carried (the bytes_in/bytes_out accounting
    /// unit; headers and control frames count zero).
    pub(crate) fn wire_bytes(&self) -> u64 {
        match self {
            Payload::Put { data, .. }
            | Payload::Enq { data, .. }
            | Payload::GetReply { data, .. } => data.len() as u64,
            Payload::GetReq { .. } => 0,
        }
    }
}

/// Where an operation's payload bytes are when it is queued: `len`
/// bytes of `seg` from `addr` — a PUT's or ENQ's local operand, a GET
/// reply's remote range. [`send_data`] copies them into the open frame
/// there and then, so later writes to the segment do not reach the wire.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Source<'a> {
    pub(crate) seg: &'a Segment,
    pub(crate) addr: u64,
    pub(crate) len: usize,
}

/// The operations of one sequenced [`WireMsg::Data`] frame, in submission
/// order: two allocations however many operations it holds — this
/// slice, and the one buffer all of its payload bytes are slices of (a
/// frame of GET requests alone has none) — shared by the
/// sender's retention copy and every wire copy, retransmissions
/// included, applied by reference at the receiver and freed by the ack
/// that releases the frame. An ENQ is the one operation whose bytes
/// outlive the frame (in a receive queue, until its owner dequeues
/// them), so the receiver copies it out ([`crate::proxy::apply_data`])
/// rather than let a slow dequeuer pin the whole buffer.
pub(crate) type Frame = Arc<[Payload]>;

/// Application bytes a frame carries.
fn frame_bytes(body: &[Payload]) -> u64 {
    body.iter().map(Payload::wire_bytes).sum()
}

/// One frame on the inter-proxy wire. `Data` frames are sequenced per
/// (sender, destination) pair and subject to fault injection; the control
/// frames are the reliability layer itself and are never judged or lost.
#[derive(Debug)]
pub(crate) enum WireMsg {
    /// A sequenced frame of operations (never empty). `corrupt` models
    /// damage in flight — set by the injector, detected "by checksum" at
    /// the receiver, which NACKs instead of delivering any of it.
    Data {
        from: usize,
        seq: u64,
        corrupt: bool,
        body: Frame,
    },
    /// Cumulative acknowledgement: every `Data` frame from the receiver's
    /// peer with `seq <= upto` has been delivered in order.
    AckUpto { from: usize, upto: u64 },
    /// The receiver's in-order watermark is stuck at `since` behind a gap
    /// or a corrupt frame: `missing` names every sequence it still lacks
    /// up to the highest one it has seen (ascending, starting at
    /// `since + 1`). The sender re-sends exactly those frames now rather
    /// than waiting out the RTO.
    Nack {
        from: usize,
        since: u64,
        missing: Vec<u64>,
    },
}

/// Abandons every frame node `node` has parked
/// ([`RxPeer::abandon_held`]): each operation counts as a damaged drop,
/// each ENQ gives its place back.
pub(crate) fn abandon_all_held(shared: &Shared, st: &mut NodeState, node: usize) {
    let lost = |rx: &mut RxPeer| rx.abandon_held(|op| give_back(shared, op));
    shared.obs[node].add(Ctr::DamagedDrops, st.rx.iter_mut().map(lost).sum());
}

/// Gives back the queue place of `op` if it is an ENQ.
pub(crate) fn give_back<D>(shared: &Shared, op: &Payload<D>) {
    if let Payload::Enq { dst, rq, .. } = *op {
        shared.procs[dst as usize].give_back(rq as usize);
    }
}

/// Gives back the queue places of the ENQs `tx` holds that never reached
/// its peer's ring: in frames past [`TxPeer::sent`], or still open.
pub(crate) fn give_back_unsent(shared: &Shared, tx: &TxPeer) {
    let unsent = tx.retained.iter().filter(|&(seq, _)| seq > tx.sent);
    let frames = unsent.flat_map(|(_, r)| r.body.iter());
    frames.for_each(|op| give_back(shared, op));
    tx.open.iter().for_each(|op| give_back(shared, op));
}

/// Offers one frame to `dst`'s ring, waking its proxy if it took it.
fn offer(shared: &Shared, dst: usize, msg: WireMsg) -> bool {
    let taken = shared.wires[dst].try_push(msg).is_ok();
    if taken {
        shared.parkers[dst].wake();
    }
    taken
}

/// The node's injector's verdict on one transmission; `None` when no
/// installed plan can fault a packet, so nothing is judged.
fn judge(faults: &mut Option<NodeFaults>) -> Option<Fate> {
    faults
        .as_mut()
        .filter(|f| f.packet_faults_possible())
        .map(NodeFaults::judge)
}

/// Counts one judged transmission's verdict once, in the sending node's
/// scope (a dropped one only as dropped).
fn count_verdict(obs: &ObsScope, fate: Fate) {
    obs.inc(Ctr::FaultsJudged);
    let kinds = [
        (faulted(fate), Ctr::FaultsInjected),
        (fate.drop, Ctr::FaultsDropped),
        (!fate.drop && fate.duplicate, Ctr::FaultsDuplicated),
        (!fate.drop && fate.corrupt, Ctr::FaultsCorrupted),
    ];
    for (_, c) in kinds.iter().filter(|k| k.0) {
        obs.inc(*c);
    }
}

fn faulted(fate: Fate) -> bool {
    fate.drop || fate.corrupt || fate.duplicate
}

/// Queues one operation from `node` towards `dst_node`: the only way an
/// operation reaches the wire. It joins the destination's open frame,
/// which leaves at once if that fills it and otherwise when the current
/// service phase ends ([`flush_frames`]). Its payload bytes are copied
/// from their [`Source`] into the frame's staging buffer as it joins
/// ([`TxPeer::append`]): the snapshot is taken now, whenever the frame
/// closes.
///
/// The fault injector's unit stays the operation, whatever the
/// coalescing: a plan's probabilities are per operation submitted, so an
/// operation that draws a verdict travels in a frame of its own — what
/// was queued before it leaves first, untouched, in a buffer of its own
/// — and a lossy stream
/// loses the share of its operations the plan says, not that share of
/// its (much rarer) frames.
#[allow(clippy::too_many_arguments)]
pub(crate) fn send_data(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now_ns: u64,
    dst_node: usize,
    body: Payload<Source<'_>>,
    lsync: Option<(u32, u32)>,
    submit_ns: u64,
) {
    if shared.condemned[dst_node].load(Ordering::Relaxed) {
        // The destination is permanently gone: the op is lost, its lsync
        // never fires (clients observe that through bounded waits), and
        // a GET's CCB is cancelled so the token can't dangle, and an
        // ENQ's place, claimed before the node was condemned, given back.
        if let Payload::GetReq { token, .. } = body {
            st.ccbs.remove(&token);
        }
        give_back(shared, &body);
        return;
    }
    let judged = judge(&mut st.faults);
    if let Some(fate) = judged {
        count_verdict(&shared.obs[node], fate);
    }
    let fate = judged.unwrap_or_default();
    if faulted(fate) {
        // Closed before this operation stages a byte, so the frame ahead
        // keeps a buffer of its own bytes only.
        transmit_frame(shared, st, node, now_ns, dst_node, Fate::default());
    }
    let lsync = Lsync {
        flag: lsync,
        submit_ns,
    };
    if st.tx[dst_node].append(body, lsync) || faulted(fate) {
        transmit_frame(shared, st, node, now_ns, dst_node, fate);
    }
}

/// Ends a service phase: every frame the phase opened leaves now, however
/// few operations it holds, and every peer is pumped. True if anything
/// reached a ring.
pub(crate) fn flush_frames(shared: &Shared, st: &mut NodeState, node: usize, now_ns: u64) -> bool {
    let mut pushed = false;
    for dst in 0..st.tx.len() {
        pushed |= transmit_frame(shared, st, node, now_ns, dst, Fate::default());
    }
    pushed
}

/// Closes `node`'s open frame towards `dst`, if there is one
/// ([`crate::state::TxPeer::close_frame`]: one sequence number, one
/// retention slot, retained with its verdict `fate`), then pumps `dst`.
/// True if anything reached its ring.
fn transmit_frame(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now_ns: u64,
    dst: usize,
    fate: Fate,
) -> bool {
    if let Some((seq, body)) = st.tx[dst].close_frame(now_ns, fate) {
        let obs = &shared.obs[node];
        obs.inc(Ctr::FramesOut);
        obs.add(Ctr::MsgsOut, body.len() as u64);
        obs.add(Ctr::BytesOut, frame_bytes(&body));
        if faulted(fate) {
            let kind = if fate.drop {
                EventKind::FaultDrop
            } else if fate.corrupt {
                EventKind::FaultCorrupt
            } else {
                EventKind::FaultDup
            };
            obs.trace_at(now_ns, kind, dst as u16, seq as u32);
        }
    }
    pump(shared, st, node, now_ns, dst)
}

/// Pushes what `node` owes peer `dst`, in order, until its ring refuses:
/// every frame past the `TxPeer::sent` cursor, under the verdict it drew
/// when it closed (a dropped one is skipped:
/// retention and a NACK or the RTO recover it). What the ring refuses
/// waits for the next pump. True if anything was pushed.
pub(crate) fn pump(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now_ns: u64,
    dst: usize,
) -> bool {
    let NodeState { tx, ticks, .. } = st;
    let tx = &mut tx[dst];
    let mut pushed = false;
    while tx.sent < tx.retained.last() {
        let seq = tx.sent + 1;
        // A peer acknowledges only what reached its ring, so every frame
        // past the cursor is still retained.
        let r = tx.retained.get(seq).expect("unsent frames are retained");
        if !r.fate.drop {
            if !push_frame(shared, node, dst, seq, &r.body, r.fate) {
                break;
            }
            pushed = true;
            if sampled(&mut ticks.send) {
                shared.obs[node].trace_at(now_ns, EventKind::Send, dst as u16, seq as u32);
            }
        }
        tx.sent = seq;
    }
    pushed
}

/// Pushes frame `seq` of `node` onto `dst`'s ring under `fate`: flagged
/// if corrupt, twice if duplicated (a second copy the ring refuses is a
/// duplicate not made). False if the ring refused the frame itself.
fn push_frame(
    shared: &Shared,
    node: usize,
    dst: usize,
    seq: u64,
    body: &Frame,
    fate: Fate,
) -> bool {
    let copy = || WireMsg::Data {
        from: node,
        seq,
        corrupt: fate.corrupt,
        body: Arc::clone(body),
    };
    let pushed = offer(shared, dst, copy());
    if pushed && fate.duplicate {
        offer(shared, dst, copy());
    }
    pushed
}

/// Consumes one cumulative acknowledgement from `from`: advances the
/// watermark, releases retention and fires the `lsync` flags of every
/// released frame — a run of identical `(proc, flag)` as one add.
fn process_ack(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now_ns: u64,
    from: usize,
    upto: u64,
) {
    let NodeState { tx, ticks, .. } = st;
    let tx = &mut tx[from];
    if upto <= tx.retained.acked() {
        return;
    }
    let obs = &shared.obs[node];
    tx.last_progress_ns = now_ns;
    for (_, r) in tx.retained.release(upto) {
        // Wire RTT: first transmission → the releasing cumulative ack.
        if sampled(&mut ticks.wire_rtt) {
            obs.record(HistId::WireRttNs, now_ns.saturating_sub(r.sent_ns));
        }
        let lsyncs = tx.lsyncs.drain(..r.body.len());
        // The run of completions not yet added to their flag.
        let mut run: Option<((u32, u32), u64)> = None;
        for l in lsyncs {
            // Lsync round trip: user submit stamp → the ack that fires
            // the flag (0 means the stamp predates recording — skip).
            if l.submit_ns != 0 {
                obs.record(HistId::LsyncRttNs, now_ns.saturating_sub(l.submit_ns));
            }
            let Some(key) = l.flag else { continue };
            match &mut run {
                Some((k, n)) if *k == key => *n += 1,
                _ => {
                    if let Some(((proc, flag), n)) = run.replace((key, 1)) {
                        shared.add_flag(proc, flag, n);
                    }
                }
            }
        }
        if let Some(((proc, flag), n)) = run {
            shared.add_flag(proc, flag, n);
        }
        // `r` — the last reference to the frame, which the receiver's
        // core wrote to last — is let go here, after the waiters were
        // told, not before.
    }
}

/// Handles one inbound wire frame on node `node`; returns how many
/// operations it carried (one for a control frame) — the unit of
/// `ops_serviced` and of the drain burst.
///
/// A data frame at or below the sender's in-order watermark is a
/// duplicate; unless its sender is condemned, the frame right after the
/// watermark is applied — every operation, in submission order — with
/// every parked frame the advance makes contiguous; an intact frame
/// further ahead is parked in the reorder buffer; a corrupt frame, or
/// one beyond the reorder window, is dropped. Every arrival that leaves
/// the watermark stuck behind a gap owes the sender a NACK.
pub(crate) fn handle_packet(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now_ns: u64,
    msg: WireMsg,
) -> u64 {
    let obs = &shared.obs[node];
    match msg {
        WireMsg::Data {
            from,
            seq,
            corrupt,
            body,
        } => {
            let ops = body.len() as u64;
            obs.inc(Ctr::FramesIn);
            obs.add(Ctr::MsgsIn, ops);
            obs.add(Ctr::BytesIn, frame_bytes(&body));
            let rx = &mut st.rx[from];
            if seq <= rx.order.delivered() {
                // Duplicate (injected, or a retransmission racing the
                // ack): drop it, re-ack so the sender converges.
                obs.add(Ctr::DedupDrops, ops);
                obs.trace_at(now_ns, EventKind::DedupDrop, from as u16, seq as u32);
                rx.ack_pending = true;
                return ops;
            }
            // A condemned sender's stream is closed: nothing more of it
            // is applied. Its frames are parked emptied, so the first
            // intact copy of each gives its ENQs' places back, once.
            let closed = shared.condemned[from].load(Ordering::Relaxed);
            if corrupt || seq != rx.order.delivered() + 1 || closed {
                // Damaged, or ahead of a gap (an earlier frame was lost):
                // park what is intact, and name what is missing on the
                // next NACK.
                let parked = if closed {
                    Arc::new([])
                } else {
                    Arc::clone(&body)
                };
                match rx.order.park(seq, (!corrupt).then_some(parked)) {
                    Parked::Held if closed => {
                        body.iter().for_each(|op| give_back(shared, op));
                        obs.add(Ctr::DamagedDrops, ops);
                    }
                    Parked::Held => {}
                    Parked::Duplicate => obs.add(Ctr::DedupDrops, ops),
                    Parked::Dropped => obs.add(Ctr::DamagedDrops, ops),
                }
                rx.nack_pending = !closed;
                return ops;
            }
            rx.order.advance();
            rx.ack_pending = true;
            // The frame itself, then — the gap (if there was one) having
            // just closed — everything parked behind it that is now
            // contiguous, in order.
            let mut ready = Some(body);
            while let Some(frame) = ready {
                obs.add(Ctr::OpsApplied, frame.len() as u64);
                for op in frame.iter() {
                    apply_data(shared, st, node, now_ns, from, op);
                }
                ready = st.rx[from].order.next_ready();
            }
            return ops;
        }
        WireMsg::AckUpto { from, upto } => {
            obs.inc(Ctr::AcksIn);
            // Acks arrive roughly per service batch under load, so this
            // trace is decimated like the other hot-path events.
            if sampled(&mut st.ticks.ack_in) {
                obs.trace_at(now_ns, EventKind::AckIn, from as u16, upto as u32);
            }
            process_ack(shared, st, node, now_ns, from, upto);
        }
        WireMsg::Nack {
            from,
            since,
            mut missing,
        } => {
            obs.inc(Ctr::NacksIn);
            obs.trace_at(now_ns, EventKind::NackIn, from as u16, since as u32);
            let tx = &mut st.tx[from];
            let acked = tx.retained.acked();
            if since < acked {
                // Stale: a later ack overtook it. What it names at or
                // below the watermark has since arrived.
                missing.retain(|&s| s > acked);
            }
            // The latest NACK supersedes any not yet served: it reflects
            // the receiver's newest view of the same gaps.
            tx.nacked = missing;
        }
    }
    1
}

/// Re-sends `frames` (retained copies) from `node` straight into `dst`'s
/// ring, each — one packet, however many operations — judged once by the
/// node's fault injector; stops early when the ring fills (what is left
/// is recovered by a later NACK or the RTO). Counts and traces what it
/// re-sent, and the verdicts of what was dropped or reached the ring: a
/// refused frame spends its draw but never left.
fn resend<'a>(
    shared: &Shared,
    faults: &mut Option<NodeFaults>,
    node: usize,
    now_ns: u64,
    dst: usize,
    frames: impl Iterator<Item = (u64, &'a Retained)>,
) {
    let obs = &shared.obs[node];
    let mut resent = 0u32;
    for (seq, r) in frames {
        let judged = judge(faults);
        let fate = judged.unwrap_or_default();
        // A dropped *retransmit* is not pushed; a later pass retries.
        if !fate.drop && !push_frame(shared, node, dst, seq, &r.body, fate) {
            break;
        }
        if let Some(fate) = judged {
            count_verdict(obs, fate);
        }
        resent += u32::from(!fate.drop);
    }
    if resent > 0 {
        obs.add(Ctr::Retransmits, u64::from(resent));
        obs.trace_at(now_ns, EventKind::Retransmit, dst as u16, resent);
    }
}

/// Retransmission pass, per destination with unacknowledged retention.
/// When the RTO expired with no ack progress, a burst is re-sent from the
/// retention head: the receiver's state is unknown, so assume nothing
/// arrived. Otherwise the
/// frames the receiver's latest NACK named are re-sent, and only those:
/// everything else in flight is parked at the receiver, waiting for
/// them. Frames go straight to the destination ring, and only once
/// nothing is owed there first: retransmits are redundant by design,
/// and a peer whose ring refused a first transmission would refuse them
/// too.
pub(crate) fn retransmit(shared: &Shared, st: &mut NodeState, node: usize, now_ns: u64) {
    let NodeState { tx, faults, .. } = st;
    for (dst, tx) in tx.iter_mut().enumerate() {
        if tx.retained.is_empty() {
            tx.nacked.clear();
            continue;
        }
        if tx.unsent() > 0 || shared.condemned[dst].load(Ordering::Relaxed) {
            continue;
        }
        if now_ns.saturating_sub(tx.last_progress_ns) >= RTO_NS {
            tx.nacked.clear();
            tx.last_progress_ns = now_ns;
            let burst = tx.retained.iter().take(RESEND_BURST);
            resend(shared, faults, node, now_ns, dst, burst);
        } else if !tx.nacked.is_empty() {
            // A named frame already acknowledged is simply gone.
            let named = tx
                .nacked
                .iter()
                .filter_map(|&seq| Some((seq, tx.retained.get(seq)?)));
            resend(shared, faults, node, now_ns, dst, named);
            tx.nacked.clear();
        }
    }
}

/// Emits the acknowledgement state owed: one cumulative
/// [`WireMsg::AckUpto`] per source that delivered anything (or sent a
/// duplicate), one [`WireMsg::Nack`] per source whose watermark is stuck
/// behind a gap or a corrupt frame and that sent anything, naming exactly
/// the sequences still missing. One a full ring refuses stays owed in its
/// [`RxPeer`] flag and goes on a later pass with the watermark of then.
pub(crate) fn flush_acks(shared: &Shared, st: &mut NodeState, node: usize) {
    let obs = &shared.obs[node];
    for (src, rx) in st.rx.iter_mut().enumerate() {
        // A gap that closed later in the same pass owes nothing.
        rx.nack_pending &= rx.order.span() > 0;
        let since = rx.order.delivered();
        if rx.ack_pending {
            let ack = WireMsg::AckUpto {
                from: node,
                upto: since,
            };
            if offer(shared, src, ack) {
                rx.ack_pending = false;
                obs.inc(Ctr::AcksOut);
            }
        }
        if rx.nack_pending {
            let nack = WireMsg::Nack {
                from: node,
                since,
                missing: rx.order.missing(),
            };
            if offer(shared, src, nack) {
                rx.nack_pending = false;
                obs.inc(Ctr::NacksOut);
            }
        }
    }
}
