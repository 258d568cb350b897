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
//! no flush timer and no unbatched path.
//!
//! Everything the protocol does, it does once per frame. A frame from
//! node `s` to node `d` carries one per-pair monotone sequence number,
//! and the sender retains one reference to it until acknowledged (the
//! wire copies, retransmissions included, are further references to the
//! same allocation). The one thing that stays per operation is the fault
//! injector's draw: a plan's rates are per operation, so each is judged
//! as it is queued and one that draws a verdict leaves in a frame of its
//! own ([`send_data`]). The receiver
//! delivers strictly in order — every operation of a frame, in
//! submission order, by reference — parks intact out-of-order frames in
//! a bounded reorder buffer, answers each drain batch with one cumulative
//! [`WireMsg::AckUpto`] watermark, NACKs the exact sequences it is
//! missing behind a gap or a corrupt frame, and drops duplicates
//! (re-acking so the sender converges). A retransmit timer backstops lost
//! NACKs. Control frames (acks, nacks, hellos) are never judged by the
//! injector and never dropped: the model is a lossy transport under a
//! reliable protocol, not a broken protocol.
//!
//! The invariant bought by all this: **an operation whose `lsync` flag
//! fired was applied at the destination exactly once** — under drops,
//! duplicates, corruption, overload shedding, and proxy respawns. The
//! argument is per frame: a sequence number is applied only as the
//! watermark passes it, which happens once; applying it applies each of
//! its operations once; and the sender fires a frame's lsyncs (together,
//! [`process_ack`]) only on an ack at or past its sequence that does not
//! list it as rejected. Overload shedding rides the same machinery: a
//! saturated proxy *rejects* an excess frame whole — and only if every
//! operation in it is a request, because a response resolves a CCB that
//! has already been paid for — by advancing its delivered watermark and
//! reporting the sequence on the ack, so the sender drops the frame from
//! retention without firing any of its `lsync`s.
//!
//! This module holds the frames and the functions that move them; the
//! per-stream state they act on ([`crate::state::TxPeer`], [`RxPeer`]) is in
//! [`crate::state`], the sequencing under it in [`mproxy_model::link`],
//! and what a delivered operation *does* is [`crate::proxy::apply_data`].

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use mproxy_model::fate::Fate;
use mproxy_model::link::Parked;
use mproxy_obs::{Ctr, EventKind, HistId};

use crate::cluster::{sampled, Shared};
use crate::proxy::apply_data;
use crate::state::{Lsync, NodeState, PendingEnq, Retained, RxPeer};

/// Retransmit timeout: a sender with unacknowledged frames and no ack
/// progress for this long re-sends from its retention buffer. Generous
/// against ack coalescing latency, tight enough that a dropped frame
/// costs milliseconds, not a stalled test.
const RTO_NS: u64 = 2_000_000;

/// Most retained frames re-sent from the retention head per destination
/// per resync pass (RTO expiry or a peer's Hello); bounds the burst a
/// recovering receiver takes all at once. NACK-driven recovery never
/// bursts: it re-sends exactly the sequences the receiver named.
const RESEND_BURST: usize = 128;

/// An operation travelling the wire.
#[derive(Debug)]
pub(crate) enum Payload {
    Put {
        dst: u32,
        raddr: u64,
        data: Bytes,
        rsync: Option<u32>,
    },
    GetReq {
        src_asid: u32,
        dst: u32,
        raddr: u64,
        nbytes: u32,
        token: u64,
    },
    GetReply {
        token: u64,
        data: Option<Bytes>,
    },
    Enq {
        dst: u32,
        rq: u32,
        data: Bytes,
        rsync: Option<u32>,
    },
}

impl Payload {
    /// Requests may be rejected under overload; responses may not — each
    /// one resolves a CCB that has already been paid for, and rejecting
    /// it would strand the waiter.
    fn is_request(&self) -> bool {
        !matches!(self, Payload::GetReply { .. })
    }

    /// Application bytes carried (the bytes_in/bytes_out accounting
    /// unit; headers and control frames count zero).
    pub(crate) fn wire_bytes(&self) -> u64 {
        match self {
            Payload::Put { data, .. } | Payload::Enq { data, .. } => data.len() as u64,
            Payload::GetReq { .. } => 0,
            Payload::GetReply { data, .. } => data.as_ref().map_or(0, |d| d.len() as u64),
        }
    }
}

/// The operations of one sequenced [`WireMsg::Data`] frame, in submission
/// order: one allocation, shared by the sender's retention copy and
/// every wire copy, applied by reference at the receiver.
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
    /// peer with `seq <= upto` has been accounted for. Frames listed in
    /// `rejected` were *shed* under overload: the sender must drop them
    /// from retention without firing any of their `lsync`s.
    AckUpto {
        from: usize,
        upto: u64,
        rejected: Vec<u64>,
    },
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
    /// A respawned proxy announcing itself: peers re-ack their watermark
    /// (so the newcomer's retention drains) and retransmit their own
    /// retained traffic immediately.
    Hello {
        from: usize,
        epoch: u64,
    },
}

/// Discards every frame node `node` has parked, from every source,
/// counting each of their operations as a damaged drop.
pub(crate) fn abandon_all_held(shared: &Shared, st: &mut NodeState, node: usize) {
    let parked: u64 = st.rx.iter_mut().map(RxPeer::abandon_held).sum();
    shared.obs[node].add(Ctr::DamagedDrops, parked);
}

/// Pushes one wire frame towards `dst`, stashing it in the caller's
/// pending queue if the ring is full or earlier frames are already
/// stashed (FIFO per destination).
pub(crate) fn push_wire(shared: &Shared, pending: &mut VecDeque<WireMsg>, dst: usize, msg: WireMsg) {
    if !pending.is_empty() {
        pending.push_back(msg);
        return;
    }
    match shared.wires[dst].try_push(msg) {
        Ok(()) => shared.parkers[dst].wake(),
        Err(back) => pending.push_back(back),
    }
}

/// Retries stashed outbound frames and owed local deliveries; true if
/// any progress was made. Pending output towards a condemned node is
/// discarded — nobody will ever drain that ring.
pub(crate) fn flush_pending(shared: &Shared, st: &mut NodeState) -> bool {
    let mut progressed = false;
    for (dst, q) in st.pending_wire.iter_mut().enumerate() {
        if q.is_empty() {
            continue;
        }
        if shared.condemned[dst].load(Ordering::Relaxed) {
            q.clear();
            continue;
        }
        let mut pushed = false;
        while let Some(m) = q.pop_front() {
            match shared.wires[dst].try_push(m) {
                Ok(()) => pushed = true,
                Err(back) => {
                    q.push_front(back);
                    break;
                }
            }
        }
        if pushed {
            shared.parkers[dst].wake();
            progressed = true;
        }
    }
    while let Some(p) = st.pending_rq.pop_front() {
        let PendingEnq {
            dst,
            rq,
            data,
            rsync,
        } = p;
        match shared.procs[dst as usize].queues[rq as usize].try_push(data) {
            Ok(()) => {
                if let Some(f) = rsync {
                    shared.set_flag(dst, f);
                }
                progressed = true;
            }
            Err(data) => {
                st.pending_rq.push_front(PendingEnq {
                    dst,
                    rq,
                    data,
                    rsync,
                });
                break;
            }
        }
    }
    progressed
}

/// The injector's verdict on one transmission from `node`; clean when no
/// installed plan can fault a packet.
fn judge(shared: &Shared, node: usize) -> Fate {
    match &shared.faults {
        Some(faults) if faults.packet_faults_possible() => faults.judge(node),
        _ => Fate::default(),
    }
}

fn faulted(fate: Fate) -> bool {
    fate.drop || fate.corrupt || fate.duplicate
}

/// Queues one operation from `node` towards `dst_node`: the only way an
/// operation reaches the wire. It joins the destination's open frame,
/// which leaves at once if that fills it and otherwise when the current
/// service phase ends ([`flush_frames`]).
///
/// The fault injector's unit stays the operation, whatever the
/// coalescing: a plan's probabilities are per operation submitted, so an
/// operation that draws a verdict travels in a frame of its own — what
/// was queued before it leaves first, untouched — and a lossy stream
/// loses the share of its operations the plan says, not that share of
/// its (much rarer) frames.
#[allow(clippy::too_many_arguments)]
pub(crate) fn send_data(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    dst_node: usize,
    body: Payload,
    lsync: Option<(u32, u32)>,
    submit_ns: u64,
) {
    if shared.condemned[dst_node].load(Ordering::Relaxed) {
        // The destination is permanently gone: the op is lost, its lsync
        // never fires (clients observe that through bounded waits), and
        // a GET's CCB is cancelled so the token can't dangle.
        if let Payload::GetReq { token, .. } = body {
            st.ccbs.remove(&token);
        }
        return;
    }
    let fate = judge(shared, node);
    if faulted(fate) {
        transmit_frame(shared, st, node, now, dst_node, Fate::default());
    }
    let lsync = Lsync {
        flag: lsync,
        submit_ns,
    };
    if st.tx[dst_node].append(body, lsync) || faulted(fate) {
        transmit_frame(shared, st, node, now, dst_node, fate);
    }
}

/// Ends a service phase: every frame the phase opened leaves now, however
/// few operations it holds.
pub(crate) fn flush_frames(shared: &Shared, st: &mut NodeState, node: usize, now: Instant) {
    for dst in 0..st.tx.len() {
        transmit_frame(shared, st, node, now, dst, Fate::default());
    }
}

/// Closes `node`'s open frame towards `dst`, if there is one
/// ([`crate::state::TxPeer::close_frame`]: one sequence number, one
/// retention slot), and transmits it under `fate` (drop / duplicate /
/// corrupt) — which touches the transmission, never the retained copy
/// that retransmission re-sends.
fn transmit_frame(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    dst: usize,
    fate: Fate,
) {
    // The loop's `now` re-expressed on the shared epoch: pure arithmetic,
    // no extra clock read on the proxy's hot path.
    let now_ns = shared.rel_ns(now);
    let Some((seq, body)) = st.tx[dst].close_frame(now_ns) else {
        return; // nothing open towards `dst`
    };
    let obs = &shared.obs[node];
    obs.inc(Ctr::FramesOut);
    obs.add(Ctr::MsgsOut, body.len() as u64);
    obs.add(Ctr::BytesOut, frame_bytes(&body));
    if faulted(fate) {
        obs.inc(Ctr::FaultsInjected);
        let kind = if fate.drop {
            EventKind::FaultDrop
        } else if fate.corrupt {
            EventKind::FaultCorrupt
        } else {
            EventKind::FaultDup
        };
        obs.trace_at(now_ns, kind, dst as u16, seq as u32);
        if fate.drop {
            return; // retention + NACK or RTO recover it
        }
    }
    if sampled(&mut st.ticks.send) {
        obs.trace_at(now_ns, EventKind::Send, dst as u16, seq as u32);
    }
    let frame = |body| WireMsg::Data {
        from: node,
        seq,
        corrupt: fate.corrupt,
        body,
    };
    let pending = &mut st.pending_wire[dst];
    if fate.duplicate {
        push_wire(shared, pending, dst, frame(Arc::clone(&body)));
    }
    push_wire(shared, pending, dst, frame(body));
}

/// Consumes one cumulative acknowledgement from `from`: advances the
/// watermark, releases retention, fires the `lsync` flags of accepted
/// frames — a run of identical `(proc, flag)` as one add — and cancels
/// the CCBs of rejected GETs.
fn process_ack(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    from: usize,
    upto: u64,
    rejected: &[u64],
) {
    let NodeState {
        tx, ccbs, ticks, ..
    } = st;
    let tx = &mut tx[from];
    if upto <= tx.retained.acked() {
        return;
    }
    let obs = &shared.obs[node];
    let now_ns = shared.rel_ns(now);
    tx.last_progress_ns = now_ns;
    // Cursor into `rejected`: the receiver sheds in sequence order, so
    // the list ascends just as the released frames do.
    let mut shed = 0;
    for (seq, r) in tx.retained.release(upto) {
        // Wire RTT: first transmission → the releasing cumulative ack.
        if sampled(&mut ticks.wire_rtt) {
            obs.record(HistId::WireRttNs, now_ns.saturating_sub(r.sent_ns));
        }
        let lsyncs = tx.lsyncs.drain(..r.body.len());
        while rejected.get(shed).is_some_and(|&s| s < seq) {
            shed += 1;
        }
        if rejected.get(shed) == Some(&seq) {
            // Shed at the receiver: none of it happened. No lsync fires;
            // a rejected GET's CCB is cancelled.
            for op in r.body.iter() {
                if let Payload::GetReq { token, .. } = op {
                    ccbs.remove(token);
                }
            }
            continue;
        }
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
/// duplicate; the frame right after the watermark is applied — every
/// operation, in submission order — followed by every parked frame the
/// advance makes contiguous; an intact frame further ahead is parked in
/// the reorder buffer; a corrupt frame, or one beyond the reorder window,
/// is dropped. Every arrival that leaves the watermark stuck behind a gap
/// owes the sender a NACK.
///
/// With `shed` set (overload control) an in-order frame of nothing but
/// *requests* is rejected instead of applied: the watermark still
/// advances, the sequence rides out on the next ack, and the sender
/// unretains it without firing any `lsync`. A frame carrying a response,
/// and control frames, are handled as always.
pub(crate) fn handle_packet(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    msg: WireMsg,
    shed: bool,
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
                obs.trace_at(
                    shared.rel_ns(now),
                    EventKind::DedupDrop,
                    from as u16,
                    seq as u32,
                );
                rx.ack_pending = true;
                return ops;
            }
            if corrupt || seq != rx.order.delivered() + 1 {
                // Damaged, or ahead of a gap (an earlier frame was lost):
                // park what is intact, and name what is missing on the
                // next NACK.
                match rx.order.park(seq, (!corrupt).then_some(body)) {
                    Parked::Held => {}
                    Parked::Duplicate => obs.add(Ctr::DedupDrops, ops),
                    Parked::Dropped => obs.add(Ctr::DamagedDrops, ops),
                }
                rx.nack_pending = true;
                return ops;
            }
            rx.order.advance();
            rx.ack_pending = true;
            let mut ready = if shed && body.iter().all(Payload::is_request) {
                rx.rejected_new.push(seq);
                obs.add(Ctr::Sheds, ops);
                shared.health[node].shed.fetch_add(ops, Ordering::Relaxed);
                obs.trace_at(shared.rel_ns(now), EventKind::Shed, from as u16, seq as u32);
                rx.order.next_ready()
            } else {
                Some(body)
            };
            // The frame itself, then — the gap (if there was one) having
            // just closed — everything parked behind it that is now
            // contiguous, in order. Parked frames were accepted before
            // any overload verdict, so they are never shed.
            while let Some(frame) = ready {
                obs.add(Ctr::OpsApplied, frame.len() as u64);
                for op in frame.iter() {
                    apply_data(shared, st, node, now, from, op);
                }
                ready = st.rx[from].order.next_ready();
            }
            return ops;
        }
        WireMsg::AckUpto {
            from,
            upto,
            rejected,
        } => {
            obs.inc(Ctr::AcksIn);
            // Acks arrive roughly per service batch under load, so this
            // trace is decimated like the other hot-path events. The
            // resync span in the Chrome exporter tolerates a missed ack:
            // it falls back to the (never-sampled) Hello event.
            if sampled(&mut st.ticks.ack_in) {
                obs.trace_at(
                    shared.rel_ns(now),
                    EventKind::AckIn,
                    from as u16,
                    upto as u32,
                );
            }
            process_ack(shared, st, node, now, from, upto, &rejected);
        }
        WireMsg::Nack {
            from,
            since,
            mut missing,
        } => {
            obs.inc(Ctr::NacksIn);
            obs.trace_at(
                shared.rel_ns(now),
                EventKind::NackIn,
                from as u16,
                since as u32,
            );
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
        WireMsg::Hello { from, epoch } => {
            // A peer's proxy respawned. Re-ack our watermark so its
            // retention drains, and retransmit ours immediately — its
            // wire ring may hold our frames from before the crash, but
            // timers would cover any gap slowly; the hello bounds the
            // resync to one round trip.
            obs.trace_at(
                shared.rel_ns(now),
                EventKind::Hello,
                from as u16,
                epoch as u32,
            );
            st.rx[from].ack_pending = true;
            st.tx[from].resync_hint = true;
        }
    }
    1
}

/// Re-sends `frames` (retained copies) from `node` straight into `dst`'s
/// ring, each — one packet, however many operations — judged once by the
/// fault injector; stops early when the ring fills (what is left is recovered by a
/// later NACK or the RTO). Counts and traces what it re-sent.
fn resend<'a>(
    shared: &Shared,
    node: usize,
    now: Instant,
    dst: usize,
    frames: impl Iterator<Item = (u64, &'a Retained)>,
) {
    let obs = &shared.obs[node];
    let mut pushed = false;
    let mut resent = 0u32;
    'frames: for (seq, r) in frames {
        let fate = judge(shared, node);
        if faulted(fate) {
            obs.inc(Ctr::FaultsInjected);
        }
        if fate.drop {
            continue; // the *retransmit* was dropped; a later pass retries
        }
        for _ in 0..1 + u32::from(fate.duplicate) {
            let frame = WireMsg::Data {
                from: node,
                seq,
                corrupt: fate.corrupt,
                body: Arc::clone(&r.body),
            };
            if shared.wires[dst].try_push(frame).is_err() {
                break 'frames;
            }
            pushed = true;
        }
        resent += 1;
    }
    if resent > 0 {
        obs.add(Ctr::Retransmits, u64::from(resent));
        obs.trace_at(
            shared.rel_ns(now),
            EventKind::Retransmit,
            dst as u16,
            resent,
        );
    }
    if pushed {
        shared.parkers[dst].wake();
    }
}

/// Retransmission pass, per destination with unacknowledged retention.
/// A resync — the RTO expired with no ack progress, a peer said Hello, or
/// this node's proxy respawned — re-sends a burst from the retention head: the
/// receiver's state is unknown, so assume nothing arrived. Otherwise the
/// frames the receiver's latest NACK named are re-sent, and only those:
/// everything else in flight is parked at the receiver, waiting for
/// them. Frames go straight to the destination ring (never the pending
/// stash — retransmits are redundant by design; the stash must stay
/// FIFO-clean for new traffic).
pub(crate) fn retransmit(shared: &Shared, st: &mut NodeState, node: usize, now: Instant) {
    let NodeState {
        tx, pending_wire, ..
    } = st;
    let now_ns = shared.rel_ns(now);
    for (dst, tx) in tx.iter_mut().enumerate() {
        if tx.retained.is_empty() {
            tx.resync_hint = false;
            tx.nacked.clear();
            continue;
        }
        if !pending_wire[dst].is_empty() || shared.condemned[dst].load(Ordering::Relaxed) {
            continue;
        }
        if tx.resync_hint || now_ns.saturating_sub(tx.last_progress_ns) >= RTO_NS {
            tx.resync_hint = false;
            tx.nacked.clear();
            tx.last_progress_ns = now_ns;
            resend(
                shared,
                node,
                now,
                dst,
                tx.retained.iter().take(RESEND_BURST),
            );
        } else if !tx.nacked.is_empty() {
            // A named frame already acknowledged is simply gone.
            let named = tx
                .nacked
                .iter()
                .filter_map(|&seq| Some((seq, tx.retained.get(seq)?)));
            resend(shared, node, now, dst, named);
            tx.nacked.clear();
        }
    }
}

/// Emits the acknowledgement state accumulated this pass: one cumulative
/// [`WireMsg::AckUpto`] per source that delivered (or was shed) anything,
/// one [`WireMsg::Nack`] per source whose watermark is stuck behind a gap
/// or a corrupt frame and that sent anything this pass, naming exactly
/// the sequences still missing.
pub(crate) fn flush_acks(shared: &Shared, st: &mut NodeState, node: usize) {
    let NodeState {
        rx, pending_wire, ..
    } = st;
    let obs = &shared.obs[node];
    for (src, rx) in rx.iter_mut().enumerate() {
        if rx.ack_pending || !rx.rejected_new.is_empty() {
            rx.ack_pending = false;
            let rejected = std::mem::take(&mut rx.rejected_new);
            obs.inc(Ctr::AcksOut);
            push_wire(
                shared,
                &mut pending_wire[src],
                src,
                WireMsg::AckUpto {
                    from: node,
                    upto: rx.order.delivered(),
                    rejected,
                },
            );
        }
        // A gap that closed later in the same pass owes nothing.
        if std::mem::take(&mut rx.nack_pending) && rx.order.span() > 0 {
            obs.inc(Ctr::NacksOut);
            push_wire(
                shared,
                &mut pending_wire[src],
                src,
                WireMsg::Nack {
                    from: node,
                    since: rx.order.delivered(),
                    missing: rx.order.missing(),
                },
            );
        }
    }
}
