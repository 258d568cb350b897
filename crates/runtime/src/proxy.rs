//! A node's proxy: the thread that runs the Figure 5 loop for real.
//!
//! [`run_proxy`] is a node's proxy thread, which restarts its own service
//! loop in place after a panic (under supervision, against the same
//! [`NodeState`]); [`proxy_main`] is that loop, a fixed sequence of
//! phases per pass — load sampling, timed faults, condemned-peer purge,
//! command drain, wire drain, reliability upkeep, idle. The two
//! drains are what put operations on
//! the wire, and each ends by closing the frames it opened
//! ([`crate::wire::flush_frames`]), so a frame never outlives its pass.
//! A command whose destination cannot take more ([`held`]) waits at the
//! head of its submitter's ring, so backpressure stops at the resource
//! that is full: only that submitter waits.
//! [`handle_command`] executes a local user's command and [`apply_data`]
//! a remote one. Every user operand is checked in one place, the sending
//! proxy's [`valid`], where the command is decoded — never in
//! user code, and never again at the receiver: a rejected command costs
//! its submitter one fault and never reaches the wire, so [`apply_data`]
//! applies what it is given without checking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use mproxy_obs::{Ctr, EventKind, HistId};

use crate::cluster::{
    condemn_dead, sampled, Shared, CMDQ_DEPTH, NUM_FLAGS, NUM_QUEUES, RQ_DEPTH, WIRE_DEPTH,
};
use crate::endpoint::{unpack_sync, OP_ENQ, OP_GET, OP_PUT};
use crate::idle::{Backoff, Parker};
use crate::load::LoadSampler;
use crate::ring::Ring;
use crate::spsc::{self, Entry};
use crate::state::{CcbGet, NodeState};
use crate::wire::{
    abandon_all_held, flush_acks, flush_frames, give_back, give_back_unsent, handle_packet,
    retransmit, send_data, Payload, Source, WireMsg,
};

/// One command-queue consumer held by a node's proxy, tagged with the
/// owning asid and the §4.1 ready bit it arms in the node's ready word
/// (the queue's index among its node's queues).
pub(crate) struct SeatEntry {
    pub(crate) asid: u32,
    pub(crate) qbit: u32,
    pub(crate) q: spsc::Consumer,
}

/// A node's command-queue consumers.
pub(crate) type Seat = Vec<SeatEntry>;

/// Most entries a proxy drains from one queue per loop iteration. When the
/// arrival rate exceeds the service rate a drain would otherwise never
/// terminate, and iteration boundaries are where busy-time accounting and
/// load sampling run — an overloaded proxy must keep reaching them.
const SERVICE_BURST: usize = 2 * CMDQ_DEPTH;

/// Closed frames a proxy keeps unsent for one peer (its wire ring full)
/// before commands addressed to that peer wait in their submitters'
/// rings ([`held`]). The bounded command rings then backpressure those
/// submitters alone, so what commands put in flight towards a peer
/// stays bounded by its `WIRE_DEPTH` ring plus `PENDING_CAP` unsent
/// frames of at most [`crate::state::FRAME_CAP`] operations each (plus
/// sent retention, which drains as fast as the peer acknowledges).
pub(crate) const PENDING_CAP: usize = 2 * WIRE_DEPTH;

/// Longest a parked proxy sleeps before re-probing its queues (a missed
/// wake is designed out, this is insurance — see [`crate::idle::Parker`])
/// and sampling its load.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Loop passes a stopping proxy keeps waiting for undeliverable or
/// unacknowledged outbound frames (a peer's ring full, or a peer dead
/// but not yet condemned) before giving up on them — in-flight traffic
/// at shutdown is lossy by contract.
const STOP_FLUSH_TRIES: u32 = 10_000;

/// Applies one operation of an in-order, uncorrupted data frame from
/// node `from`. By reference: the frame is shared with the sender's
/// retention copy, so a payload that must outlive it (an ENQ handed to a
/// reply ring) is copied out of the frame's buffer — a dequeuer that
/// takes its time then pins its own bytes, not a whole frame's. Nothing here is
/// checked: the sending proxy's [`valid`] admitted every operand and
/// [`held`] claimed each ENQ its place, so applying cannot fail on
/// anything a tenant chose.
pub(crate) fn apply_data(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now_ns: u64,
    from: usize,
    body: &Payload,
) {
    match *body {
        Payload::Put {
            dst,
            raddr,
            ref data,
            rsync,
        } => {
            shared.procs[dst as usize].seg.write(raddr, data);
            if let Some(f) = rsync {
                shared.set_flag(dst, f);
            }
        }
        Payload::GetReq {
            dst,
            raddr,
            nbytes,
            token,
        } => {
            let data = Source {
                seg: &shared.procs[dst as usize].seg,
                addr: raddr,
                len: nbytes as usize,
            };
            send_data(
                shared,
                st,
                node,
                now_ns,
                from,
                Payload::GetReply { token, data },
                None,
                0,
            );
        }
        Payload::GetReply { token, ref data } => {
            if let Some(ccb) = st.ccbs.remove(&token) {
                shared.procs[ccb.proc as usize].seg.write(ccb.laddr, data);
                if let Some(f) = ccb.lsync {
                    shared.set_flag(ccb.proc, f);
                }
            }
        }
        Payload::Enq {
            dst,
            rq,
            ref data,
            rsync,
        } => {
            // The sending proxy claimed this place ([`held`]). A queue's
            // ring is made by its first ENQ.
            let ring =
                shared.procs[dst as usize].queues[rq as usize].get_or_init(|| Ring::new(RQ_DEPTH));
            let pushed = ring.try_push(Bytes::copy_from_slice(data));
            assert!(pushed.is_ok(), "an ENQ without a place");
            if let Some(f) = rsync {
                shared.set_flag(dst, f);
            }
        }
    }
}

/// True if command `e` of process `src` may run: the one place a user
/// operand is checked, all of them together, as the simulator's `Proc`
/// checks a submission. The destination asid exists and `src` holds a
/// grant for it, the op code is known, the transfer is not empty, the
/// local range lies inside `src`'s segment and a PUT's or GET's remote
/// range inside the destination's (neither wrapping), and every flag
/// and queue index is in range. A command failing any of them costs
/// `src` one fault and claims nothing.
fn valid(shared: &Shared, src: u32, e: &Entry) -> bool {
    let [laddr, raddr, dst_nbytes, sync] = e.args;
    let (dst, n) = ((dst_nbytes >> 32) as usize, dst_nbytes as u32 as usize);
    let (lsync, rsync) = unpack_sync(sync);
    let flag_ok = |f: Option<u32>| f.is_none_or(|f| (f as usize) < NUM_FLAGS);
    dst < shared.procs.len()
        && shared.allowed(src, dst as u32)
        && n > 0
        && shared.procs[src as usize].seg.check(laddr, n)
        && flag_ok(lsync)
        && flag_ok(rsync)
        && match e.op {
            OP_PUT | OP_GET => shared.procs[dst].seg.check(raddr, n),
            OP_ENQ => raddr < NUM_QUEUES as u64,
            _ => false,
        }
}

/// Sends command `e` of process `src` on node `node`, which [`valid`]
/// admitted and [`held`] let go, towards its destination.
fn handle_command(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now_ns: u64,
    src: u32,
    e: Entry,
) {
    let [laddr, raddr, dst_nbytes, sync] = e.args;
    let dst = (dst_nbytes >> 32) as u32;
    let nbytes = dst_nbytes as u32;
    let (lsync, rsync) = unpack_sync(sync);
    let data = Source {
        seg: &shared.procs[src as usize].seg,
        addr: laddr,
        len: nbytes as usize,
    };
    let dst_node = shared.procs[dst as usize].node;
    let (body, lsync) = match e.op {
        OP_PUT => {
            let body = Payload::Put {
                dst,
                raddr,
                data,
                rsync,
            };
            (body, lsync.map(|l| (src, l)))
        }
        OP_GET => {
            let token = st.next_token;
            st.next_token += 1;
            st.ccbs.insert(
                token,
                CcbGet {
                    proc: src,
                    laddr,
                    lsync,
                },
            );
            let body = Payload::GetReq {
                dst,
                raddr,
                nbytes,
                token,
            };
            (body, None)
        }
        // OP_ENQ: `valid` admits no other op.
        _ => {
            let body = Payload::Enq {
                dst,
                rq: raddr as u32,
                data,
                rsync,
            };
            (body, lsync.map(|l| (src, l)))
        }
    };
    send_data(shared, st, node, now_ns, dst_node, body, lsync, e.t_ns);
}

/// Supervision policy ([`crate::RtClusterBuilder::supervise`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SupervisorCfg {
    /// Restarts allowed per node before condemnation.
    pub(crate) max_restarts: u32,
    /// Base restart delay; doubles with each restart of the same node.
    pub(crate) backoff: Duration,
}

/// A node's proxy thread for the cluster's lifetime, and its own
/// supervisor: it owns the node's seat (command consumers) and protocol
/// state, and runs the service loop under `catch_unwind`. A panic is
/// recorded as a death. Under supervision, within the restart budget, the
/// thread then waits out `backoff · 2^restarts` (so a crash loop does
/// not become a restart storm) and re-enters the loop on the same state —
/// watermarks, retention, CCBs — so nothing acknowledged is lost or
/// re-applied, and nothing needs announcing: to its peers the kill was a
/// pause.
/// Otherwise (no supervision, budget spent, or the cluster stopping) it
/// condemns the node and returns.
pub(crate) fn run_proxy(node: usize, shared: &Shared, mut seat: Seat, mut st: NodeState) {
    shared.parkers[node].register();
    let mut load = LoadSampler::new(shared.now_ns());
    let mut restarts = 0u32;
    loop {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            proxy_main(node, &mut seat, &mut st, &mut load, shared);
        }));
        let Err(payload) = result else { return };
        let reason = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        let obs = &shared.obs[node];
        obs.inc(Ctr::Kills);
        obs.trace(EventKind::Kill, node as u16, 0);
        *shared.panic_reasons[node]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(reason.clone());
        let supervised = shared
            .supervision
            .filter(|_| !shared.stop.load(Ordering::Relaxed));
        if let Some(cfg) = supervised.filter(|cfg| restarts < cfg.max_restarts) {
            shared.panicked[node].store(true, Ordering::Release);
            let delay = cfg.backoff.saturating_mul(1u32 << restarts.min(16));
            if crate::idle::sleep_unless(delay, &shared.stop) {
                restarts += 1;
                obs.inc(Ctr::Respawns);
                obs.trace(EventKind::Respawn, node as u16, restarts);
                eprintln!(
                    "mproxy-rt: node {node} proxy died ({reason}); \
                     respawning (restart {restarts})"
                );
                shared.panicked[node].store(false, Ordering::Release);
                continue;
            }
        } else if let Some(cfg) = supervised {
            eprintln!(
                "mproxy-rt: node {node} proxy is crash-looping \
                 ({} restarts exhausted) — condemning it",
                cfg.max_restarts
            );
        }
        // Nobody will restart this node: condemn it so waits and drains
        // abort, and only then raise (or leave raised) the panic bit, so
        // every observer of the bit also sees the condemnation.
        condemn_dead(shared, &mut st, node);
        shared.panicked[node].store(true, Ordering::Release);
        return;
    }
}

/// The proxy service loop: the Figure 5 loop over real queues and wires,
/// plus the reliability layer (retention, acks, retransmission), the
/// fault injector's time-domain hooks, condemned-peer purging and the
/// proxy's own load sampling. Every pass runs the same phases in the same
/// order; a pass that moved anything is charged to the proxy's busy time
/// and followed at once by the next, an empty one falls through to the
/// stop check and the idle policy.
fn proxy_main(
    node: usize,
    seat: &mut [SeatEntry],
    st: &mut NodeState,
    load: &mut LoadSampler,
    shared: &Shared,
) {
    let parker = &shared.parkers[node];
    let ready = &shared.ready_masks[node];
    let wire_rx = &shared.wires[node];
    let mut backoff = Backoff::new();
    let mut stop_flush_tries = 0u32;
    loop {
        // The pass's one clock read: every phase below takes this
        // reading, and the load sampler charges the previous pass up to
        // it.
        let now_ns = shared.now_ns();
        load.tick(shared, node, now_ns);
        if timed_faults(shared, st, node, now_ns) {
            continue;
        }
        if shared.any_condemned.load(Ordering::Acquire) {
            purge_condemned(shared, st, node);
        }
        let mut progressed = drain_commands(shared, st, node, now_ns, seat, ready);
        // The command frames, behind what earlier passes left unsent.
        progressed |= flush_frames(shared, st, node, now_ns);
        progressed |= drain_wire(shared, st, node, now_ns, wire_rx);
        // The GET replies the wire drain produced.
        progressed |= flush_frames(shared, st, node, now_ns);
        // Reliability upkeep: retransmit overdue retention, then emit the
        // acks and nacks this pass accumulated. Neither counts as
        // progress — an idle-but-unacked sender must still reach the
        // park below (its 1 ms timeout doubles as the retransmit clock).
        retransmit(shared, st, node, now_ns);
        flush_acks(shared, st, node);
        if progressed {
            load.charge(now_ns);
            backoff.reset();
            stop_flush_tries = 0;
            continue;
        }
        if shared.stop.load(Ordering::Relaxed) {
            // Final drain pass (ready bits may have raced with stop).
            let drained = seat.iter().all(|e| !e.q.is_ready());
            if drained && wire_rx.is_empty() {
                // Exit only once nothing is owed: nothing unsent, and no
                // unacknowledged frames towards live peers (their
                // acks are what release our retention — and our lsyncs).
                let unacked = st.tx.iter().enumerate().any(|(d, tx)| {
                    !tx.retained.is_empty() && !shared.condemned[d].load(Ordering::Relaxed)
                });
                if st.outbox_empty() && !unacked {
                    break;
                }
                // A peer may be gone without condemnation (or its ring
                // is full forever): bounded retries, then in-flight
                // traffic is abandoned — lossy at shutdown by contract.
                stop_flush_tries += 1;
                if stop_flush_tries > STOP_FLUSH_TRIES {
                    break;
                }
            }
            // Re-arm all bits so the next pass scans everything.
            ready.fetch_or(u64::MAX, Ordering::Release);
            std::thread::yield_now();
            continue;
        }
        idle(shared, st, parker, ready, wire_rx, &mut backoff);
    }
    // A clean exit: whatever is still parked behind a gap is in-flight
    // traffic lost to the shutdown. Count it, so every frame this node
    // ever popped sits in exactly one outcome bucket.
    abandon_all_held(shared, st, node);
}

/// Injected time-domain faults: kills panic right here (the
/// `catch_unwind` in [`run_proxy`] turns that into a recorded death);
/// stalls freeze the loop wholesale, each counted and traced as a
/// `Stall` event carrying its remaining length in µs. True when the
/// node just sat out a stall, so the pass restarts on a fresh clock.
#[inline]
fn timed_faults(shared: &Shared, st: &mut NodeState, node: usize, now_ns: u64) -> bool {
    let Some(faults) = st.faults.as_mut().filter(|f| f.has_timed_faults()) else {
        return false;
    };
    let ops = shared.ops_serviced[node].load(Ordering::Relaxed);
    if let Some(threshold) = faults.kill_due(ops) {
        panic!("injected kill: node {node} after {threshold} ops");
    }
    let Some((remaining, interruptible)) = faults.stall_due(now_ns) else {
        return false;
    };
    // Rare, so never sampled: a trace must show why the node went quiet.
    let remaining_us = u32::try_from(remaining.as_micros()).unwrap_or(u32::MAX);
    shared.obs[node].inc(Ctr::Stalls);
    shared.obs[node].trace_at(now_ns, EventKind::Stall, node as u16, remaining_us);
    if interruptible {
        let _ = crate::idle::sleep_unless(remaining, &shared.stop);
    } else {
        // A wedge: models a proxy stuck in foreign code, deaf even to
        // the stop signal.
        std::thread::sleep(remaining);
    }
    true
}

/// Purges traffic to and from condemned peers: their rings will never
/// drain, their acks and retransmissions will never come. Every GET in
/// every retained frame cancels its CCB, every ENQ that never reached
/// the peer's ring gives its place back; lsyncs never fire (the ops are
/// lost, and bounded waits report it).
#[inline]
fn purge_condemned(shared: &Shared, st: &mut NodeState, node: usize) {
    for dst in 0..shared.wires.len() {
        if dst == node || !shared.condemned[dst].load(Ordering::Relaxed) {
            continue;
        }
        let NodeState { tx, rx, ccbs, .. } = &mut *st;
        let tx = &mut tx[dst];
        // (`open` is empty between passes unless the loop died
        // mid-phase.)
        let retained = tx.retained.iter().flat_map(|(_, r)| r.body.iter());
        let open = tx.open.iter().map(Payload::get_token);
        for token in retained.map(Payload::get_token).chain(open).flatten() {
            ccbs.remove(&token);
        }
        give_back_unsent(shared, tx);
        tx.retained.abandon();
        tx.sent = tx.retained.last();
        // Nobody drains its ring: what it is owed is owed to no one.
        (rx[dst].ack_pending, rx[dst].nack_pending) = (false, false);
        tx.open.clear();
        tx.staging.clear();
        tx.lsyncs.clear();
        // Frames parked behind a gap the dead node will never fill are
        // abandoned: counted, so `msgs_in` stays exact, and their ENQs'
        // places given back.
        let lost = rx[dst].abandon_held(|op| give_back(shared, op));
        shared.obs[node].add(Ctr::DamagedDrops, lost);
    }
}

/// True while [`valid`] command `e` must wait at the head of its ring:
/// its destination node has [`PENDING_CAP`] unsent frames from this
/// node, or it is an ENQ and its queue has no free place. The place is
/// claimed here, last, so a command that waits holds none.
fn held(shared: &Shared, st: &NodeState, e: &Entry) -> bool {
    let dst = &shared.procs[(e.args[2] >> 32) as usize];
    st.tx[dst.node].unsent() >= PENDING_CAP || e.op == OP_ENQ && !dst.claim(e.args[1] as usize)
}

/// User command queues: consult the §4.1 ready-bit vector, then drain a
/// burst from each queue whose bit was set, faulting what is not
/// [`valid`] and stopping at a command that is [`held`] — it stays at
/// the head of its ring, and the other queues are served. True if any
/// command was taken.
#[inline]
fn drain_commands(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now_ns: u64,
    seat: &mut [SeatEntry],
    ready: &AtomicU64,
) -> bool {
    // Load first, so an idle pass only reads the word the submitters
    // write (a swap would take their cache line from them every pass).
    // The swap's Acquire pairs with their Release `fetch_or`; a bit this
    // Relaxed load misses is seen by the next pass, or by `idle`'s
    // SeqCst re-check before it parks.
    if ready.load(Ordering::Relaxed) == 0 {
        return false;
    }
    let mask = ready.swap(0, Ordering::Acquire);
    let mut progressed = false;
    for e in seat.iter_mut() {
        let bit = 1u64 << e.qbit;
        if mask & bit == 0 {
            continue;
        }
        let src = e.asid;
        let obs = &shared.obs[node];
        let mut taken = 0;
        while taken < SERVICE_BURST {
            // A command towards a condemned node is dropped as it is
            // decoded, claiming nothing: it would be lost on the wire.
            let (mut ok, mut gone) = (false, false);
            let Some(entry) = e.q.pop_unless(|c| {
                ok = valid(shared, src, c);
                let to = || shared.procs[(c.args[2] >> 32) as usize].node;
                gone = ok && shared.condemned[to()].load(Ordering::Relaxed);
                ok && !gone && held(shared, st, c)
            }) else {
                break;
            };
            taken += 1;
            // Command-queue wait: submit stamp → this drain. `t_ns == 0`
            // means the entry was unstamped (not a sampled submission).
            if entry.t_ns != 0 {
                obs.record(HistId::CmdWaitNs, now_ns.saturating_sub(entry.t_ns));
            }
            if !ok {
                shared.fault(src);
            } else if !gone {
                handle_command(shared, st, node, now_ns, src, entry);
            }
        }
        if taken > 0 {
            if sampled(&mut st.ticks.drain) {
                obs.trace_at(now_ns, EventKind::Drain, src as u16, taken as u32);
            }
            shared.ops_serviced[node].fetch_add(taken as u64, Ordering::Relaxed);
            progressed = true;
        }
        if e.q.is_ready() {
            // Entries remain past the burst, or one is held; re-arm the
            // bit so the next scan comes back.
            ready.fetch_or(bit, Ordering::Release);
        }
    }
    progressed
}

/// Network input, burst-bounded (in operations, whatever the frames'
/// sizes) like the command queues: a flooded wire refills faster than it
/// drains, and this must not become the whole pass. Every frame popped is
/// handled; a sender that outruns this finds the ring full and keeps its
/// frames in retention, unsent, and past [`PENDING_CAP`] of them holds
/// the commands addressed to this node in their rings. True if anything
/// was serviced.
#[inline]
fn drain_wire(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now_ns: u64,
    wire_rx: &Ring<WireMsg>,
) -> bool {
    let mut ops = 0;
    while ops < SERVICE_BURST as u64 {
        let Some(msg) = wire_rx.try_pop() else { break };
        ops += handle_packet(shared, st, node, now_ns, msg);
    }
    // An idle pass must not write here: a store per empty poll would
    // take the counter's line from whoever reads it (`ops_serviced`,
    // the kill check of `timed_faults`) on every pass.
    if ops > 0 {
        shared.ops_serviced[node].fetch_add(ops, Ordering::Relaxed);
    }
    ops > 0
}

/// Idle: escalate yield → park. Parking is gated on an empty outbox
/// ([`NodeState::outbox_empty`]: unsent frames and refused acks wait on a
/// peer's ring, which sends no wake when space frees up). Unacknowledged
/// retention does *not* block parking: the bounded park timeout re-probes
/// often enough to serve as the RTO clock.
#[inline]
fn idle(
    shared: &Shared,
    st: &NodeState,
    parker: &Parker,
    ready: &AtomicU64,
    wire_rx: &Ring<WireMsg>,
    backoff: &mut Backoff,
) {
    if backoff.is_parkable() && st.outbox_empty() {
        parker.prepare_park();
        if ready.load(Ordering::SeqCst) != 0
            || !wire_rx.is_empty()
            || shared.stop.load(Ordering::Relaxed)
        {
            parker.cancel();
        } else {
            parker.park(PARK_TIMEOUT);
        }
        backoff.reset();
    } else {
        backoff.snooze();
    }
}

#[cfg(test)]
mod tests;
