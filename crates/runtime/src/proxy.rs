//! A node's proxy: the thread that runs the Figure 5 loop for real.
//!
//! [`run_proxy`] is one incarnation of a node's proxy (supervision
//! respawns it against the same [`NodeState`]); [`proxy_main`] is its
//! service loop, a fixed sequence of phases per pass — timed faults,
//! condemned-peer purge, hello, command drain, shed, wire drain,
//! reliability upkeep, idle. The two drains are what put operations on
//! the wire, and each ends by closing the frames it opened
//! ([`crate::wire::flush_frames`]), so a frame never outlives its pass.
//! [`handle_command`] executes a local user's command and [`apply_data`]
//! a remote one: protection and bounds checks run here, in the proxy,
//! never in user code.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mproxy_obs::{Ctr, EventKind, HistId};

use crate::cluster::{
    condemn_dead, sampled, Shared, CMDQ_DEPTH, NUM_QUEUES, SHED_BACKLOG, WIRE_DEPTH,
};
use crate::endpoint::{unpack_sync, OP_ENQ, OP_GET, OP_PUT};
use crate::idle::{Backoff, Parker};
use crate::ring::Ring;
use crate::spsc::{self, Entry};
use crate::state::{CcbGet, NodeState, PendingEnq};
use crate::wire::{
    abandon_all_held, flush_acks, flush_frames, flush_pending, handle_packet, push_wire,
    retransmit, send_data, Payload, WireMsg,
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
/// the shedding check run — an overloaded proxy must keep reaching them.
const SERVICE_BURST: usize = 2 * CMDQ_DEPTH;

/// Outbound frames a proxy holds privately (its wire rings to peers all
/// full) before it stops draining command queues; the bounded command
/// rings then backpressure the user processes, so total occupancy per
/// node stays bounded by `CMDQ_DEPTH·procs` commands plus
/// `WIRE_DEPTH + PENDING_CAP` frames of at most
/// [`crate::state::FRAME_CAP`] operations each (plus retention, which
/// drains as fast as peers acknowledge).
pub(crate) const PENDING_CAP: usize = 2 * WIRE_DEPTH;

/// Longest a parked proxy sleeps before re-probing its queues (a missed
/// wake is designed out, this is insurance — see [`crate::idle::Parker`]).
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Loop passes a stopping proxy keeps waiting for undeliverable or
/// unacknowledged outbound frames (a peer's ring full, or a peer dead
/// but not yet condemned) before giving up on them — in-flight traffic
/// at shutdown is lossy by contract.
const STOP_FLUSH_TRIES: u32 = 10_000;

/// Applies one operation of an in-order, uncorrupted data frame from
/// node `from`. By reference: the frame is shared with the sender's
/// retention copy, so a payload that must outlive it (an ENQ handed to a
/// reply ring) takes its own reference to the bytes.
pub(crate) fn apply_data(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
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
            let dp = &shared.procs[dst as usize];
            if dp.seg.check(raddr, data.len()) {
                dp.seg.write(raddr, data);
                if let Some(f) = rsync {
                    shared.set_flag(dst, f);
                }
            }
        }
        Payload::GetReq {
            src_asid,
            dst,
            raddr,
            nbytes,
            token,
        } => {
            let dp = &shared.procs[dst as usize];
            let data = if dp.seg.check(raddr, nbytes as usize) {
                Some(dp.seg.read(raddr, nbytes as usize))
            } else {
                shared.fault(src_asid);
                None
            };
            send_data(
                shared,
                st,
                node,
                now,
                from,
                Payload::GetReply { token, data },
                None,
                0,
            );
        }
        Payload::GetReply { token, ref data } => {
            if let Some(ccb) = st.ccbs.remove(&token) {
                if let Some(data) = data {
                    let take = (ccb.nbytes as usize).min(data.len());
                    shared.procs[ccb.proc as usize]
                        .seg
                        .write(ccb.laddr, &data[..take]);
                }
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
            let data = data.clone();
            // FIFO per queue: anything already owed goes first.
            if !st.pending_rq.is_empty() {
                st.pending_rq.push_back(PendingEnq {
                    dst,
                    rq,
                    data,
                    rsync,
                });
                return;
            }
            match shared.procs[dst as usize].queues[rq as usize].try_push(data) {
                Ok(()) => {
                    if let Some(f) = rsync {
                        shared.set_flag(dst, f);
                    }
                }
                Err(data) => st.pending_rq.push_back(PendingEnq {
                    dst,
                    rq,
                    data,
                    rsync,
                }),
            }
        }
    }
}

/// Decodes and executes one user command on node `node` (protection and
/// bounds checks, then a sequenced transmission towards the destination).
fn handle_command(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    src: u32,
    e: Entry,
) {
    let laddr = e.args[0];
    let dst = (e.args[2] >> 32) as u32;
    let nbytes = e.args[2] as u32;
    let (lsync, rsync) = unpack_sync(e.args[3]);
    if dst as usize >= shared.procs.len() || !shared.allowed(src, dst) {
        shared.fault(src);
        return;
    }
    let src_proc = &shared.procs[src as usize];
    match e.op {
        OP_PUT => {
            if !src_proc.seg.check(laddr, nbytes as usize) {
                shared.fault(src);
                return;
            }
            let data = src_proc.seg.read(laddr, nbytes as usize);
            let raddr = e.args[1];
            send_data(
                shared,
                st,
                node,
                now,
                shared.procs[dst as usize].node,
                Payload::Put {
                    dst,
                    raddr,
                    data,
                    rsync,
                },
                lsync.map(|l| (src, l)),
                e.t_ns,
            );
        }
        OP_GET => {
            if !src_proc.seg.check(laddr, nbytes as usize) {
                shared.fault(src);
                return;
            }
            let token = st.next_token;
            st.next_token += 1;
            st.ccbs.insert(
                token,
                CcbGet {
                    proc: src,
                    laddr,
                    nbytes,
                    lsync,
                },
            );
            send_data(
                shared,
                st,
                node,
                now,
                shared.procs[dst as usize].node,
                Payload::GetReq {
                    src_asid: src,
                    dst,
                    raddr: e.args[1],
                    nbytes,
                    token,
                },
                None,
                e.t_ns,
            );
        }
        OP_ENQ => {
            if !src_proc.seg.check(laddr, nbytes as usize) {
                shared.fault(src);
                return;
            }
            let rq = e.args[1] as u32;
            if rq as usize >= NUM_QUEUES {
                shared.fault(src);
                return;
            }
            let data = src_proc.seg.read(laddr, nbytes as usize);
            send_data(
                shared,
                st,
                node,
                now,
                shared.procs[dst as usize].node,
                Payload::Enq {
                    dst,
                    rq,
                    data,
                    rsync,
                },
                lsync.map(|l| (src, l)),
                e.t_ns,
            );
        }
        _ => shared.fault(src),
    }
}

/// One incarnation of a node's proxy: takes the node's seat (command
/// consumers) and protocol state, runs the service loop under
/// `catch_unwind`, and on panic returns the seat, records the payload,
/// and raises the panic bit — so a supervisor can respawn a successor
/// that resumes from the exact same state.
pub(crate) fn run_proxy(node: usize, shared: Arc<Shared>) {
    let Some(mut seat) = shared.seats[node]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
    else {
        return; // a racing incarnation holds the seat; let it serve
    };
    let mut guard = shared.node_state[node]
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        proxy_main(node, &mut seat, &mut guard, &shared);
    }));
    // The guard is dropped here, *outside* any unwinding — the node-state
    // mutex is never poisoned by a proxy death.
    drop(guard);
    *shared.seats[node].lock().unwrap_or_else(|e| e.into_inner()) = Some(seat);
    if let Err(payload) = result {
        let reason = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        let obs = &shared.obs[node];
        obs.inc(Ctr::Kills);
        obs.trace(EventKind::Kill, node as u16, 0);
        if std::env::var_os("MPROXY_OBS_DUMP_ON_PANIC").is_some() {
            eprintln!(
                "mproxy-rt: {} flight recorder at death:\n{}",
                obs.name(),
                obs.events()
                    .iter()
                    .map(|e| format!(
                        "  t={}ns {} a={} b={}",
                        e.t_ns,
                        e.kind.name(),
                        e.a,
                        e.b
                    ))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        shared.deaths[node].fetch_add(1, Ordering::Relaxed);
        *shared.panic_reasons[node]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(reason);
        if shared.supervision.is_none() || shared.stop.load(Ordering::Relaxed) {
            // Nobody will respawn this node (no supervisor, or it is
            // already shutting down): condemn so waits and drains abort.
            condemn_dead(&shared, node);
        }
        // Last: the panic bit is what the supervisor polls, and every
        // observer must already see the seat, the reason and (possibly)
        // the condemnation when it flips.
        shared.panicked[node].store(true, Ordering::Release);
    }
}

/// The proxy service loop: the Figure 5 loop over real queues and wires,
/// plus the reliability layer (retention, acks, retransmission), the
/// fault injector's time-domain hooks and condemned-peer purging. Every
/// pass runs the same phases in the same order; a pass that moved
/// anything is charged to the proxy's busy time and followed at once by
/// the next, an empty one falls through to the stop check and the idle
/// policy.
fn proxy_main(node: usize, seat: &mut [SeatEntry], st: &mut NodeState, shared: &Shared) {
    let parker = &shared.parkers[node];
    parker.register();
    let ready = &*shared.ready_masks[node];
    let wire_rx = &shared.wires[node];
    let health = &shared.health[node];
    let mut batch: Vec<Entry> = Vec::with_capacity(SERVICE_BURST);
    let mut backoff = Backoff::new();
    let mut stop_flush_tries = 0u32;
    loop {
        let now = Instant::now();
        if timed_faults(shared, node, now) {
            continue;
        }
        if shared.any_condemned.load(Ordering::Acquire) {
            purge_condemned(shared, st, node);
        }
        if st.hello_pending {
            say_hello(shared, st, node, now);
        }
        // Stashed outbound packets go first: per-destination FIFO.
        let mut progressed = flush_pending(shared, st);
        // While the outbound stash is deep the command drain pauses (the
        // ready bits stay set), so the bounded command rings backpressure
        // users and per-node occupancy stays bounded.
        if st.backlogged() < PENDING_CAP {
            progressed |= drain_commands(shared, st, node, now, seat, ready, &mut batch);
            flush_frames(shared, st, node, now);
        }
        if shared.shed_enabled.load(Ordering::Relaxed) && health.saturated.load(Ordering::Acquire)
        {
            progressed |= shed_backlog(shared, st, node, now, wire_rx);
        }
        progressed |= drain_wire(shared, st, node, now, wire_rx);
        // The GET replies the two wire phases produced.
        flush_frames(shared, st, node, now);
        // Reliability upkeep: retransmit overdue retention, then emit the
        // acks and nacks this pass accumulated. Neither counts as
        // progress — an idle-but-unacked sender must still reach the
        // park below (its 1 ms timeout doubles as the retransmit clock).
        retransmit(shared, st, node, now);
        flush_acks(shared, st, node);
        if progressed {
            // Busy time feeds the watchdog's utilisation samples; idle
            // polling scans are charged to nobody, exactly like the
            // simulator's per-node busy counter.
            health.busy_ns.fetch_add(
                u64::try_from(now.elapsed().as_nanos()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
            backoff.reset();
            stop_flush_tries = 0;
            continue;
        }
        if shared.stop.load(Ordering::Relaxed) {
            // Final drain pass (ready bits may have raced with stop).
            let drained = seat.iter().all(|e| !e.q.is_ready());
            if drained && wire_rx.is_empty() {
                // Exit only once nothing is owed: no stashed output, and
                // no unacknowledged frames towards live peers (their
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
/// `catch_unwind` in [`run_proxy`] turns that into a death the
/// supervisor can see); stalls freeze the loop wholesale. True when the
/// node just sat out a stall, so the pass restarts on a fresh clock.
#[inline]
fn timed_faults(shared: &Shared, node: usize, now: Instant) -> bool {
    let Some(faults) = &shared.faults else {
        return false;
    };
    if !faults.has_timed_faults() {
        return false;
    }
    let ops = shared.ops_serviced[node].load(Ordering::Relaxed);
    if let Some(threshold) = faults.kill_due(node, ops) {
        panic!("injected kill: node {node} after {threshold} ops");
    }
    let Some(order) = faults.stall_due(node, now.duration_since(shared.started)) else {
        return false;
    };
    if order.interruptible {
        let _ = crate::idle::sleep_unless(order.remaining, &shared.stop);
    } else {
        // A wedge: models a proxy stuck in foreign code, deaf even to
        // the stop signal.
        std::thread::sleep(order.remaining);
    }
    true
}

/// Purges traffic to and from condemned peers: their rings will never
/// drain, their acks and retransmissions will never come. Every GET in
/// every retained frame cancels its CCB; lsyncs never fire (the ops are
/// lost, and bounded waits report it).
#[inline]
fn purge_condemned(shared: &Shared, st: &mut NodeState, node: usize) {
    for dst in 0..shared.wires.len() {
        if dst == node || !shared.condemned[dst].load(Ordering::Relaxed) {
            continue;
        }
        st.pending_wire[dst].clear();
        let NodeState { tx, rx, ccbs, .. } = &mut *st;
        let tx = &mut tx[dst];
        // (`open` is empty between passes unless a predecessor died
        // mid-phase.)
        let frames = tx.retained.iter().map(|(_, r)| &r.body[..]);
        for op in frames.chain([&tx.open[..]]).flatten() {
            if let Payload::GetReq { token, .. } = op {
                ccbs.remove(token);
            }
        }
        tx.retained.reset(tx.retained.last() + 1);
        tx.open.clear();
        tx.lsyncs.clear();
        tx.resync_hint = false;
        // Frames parked behind a gap the dead node will never fill are
        // abandoned — counted, so the receiver's `msgs_in` identity
        // stays exact.
        shared.obs[node].add(Ctr::DamagedDrops, rx[dst].abandon_held());
    }
}

/// A fresh incarnation owes its peers a Hello (and owes itself a
/// retransmission pass — peers may have acked frames the wire lost
/// while the node was down).
#[inline]
fn say_hello(shared: &Shared, st: &mut NodeState, node: usize, now: Instant) {
    st.hello_pending = false;
    let epoch = st.epoch;
    let obs = &shared.obs[node];
    obs.trace_at(shared.rel_ns(now), EventKind::Hello, node as u16, epoch as u32);
    for dst in 0..shared.wires.len() {
        if dst == node {
            continue;
        }
        st.tx[dst].resync_hint = true;
        if shared.condemned[dst].load(Ordering::Relaxed) {
            continue;
        }
        obs.inc(Ctr::HellosOut);
        push_wire(
            shared,
            &mut st.pending_wire[dst],
            dst,
            WireMsg::Hello { from: node, epoch },
        );
    }
}

/// User command queues: consult the §4.1 ready-bit vector, then drain a
/// burst from each queue whose bit was set. True if any command was
/// taken.
#[inline]
fn drain_commands(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    seat: &mut [SeatEntry],
    ready: &AtomicU64,
    batch: &mut Vec<Entry>,
) -> bool {
    let mask = ready.swap(0, Ordering::Acquire);
    if mask == 0 {
        return false;
    }
    let mut progressed = false;
    for e in seat.iter_mut() {
        let bit = 1u64 << e.qbit;
        if mask & bit == 0 {
            continue;
        }
        let taken = e.q.pop_burst(batch, SERVICE_BURST);
        let src = e.asid;
        let obs = &shared.obs[node];
        let drain_ns = shared.rel_ns(now);
        for entry in batch.drain(..) {
            // Command-queue wait: submit stamp → this drain. `t_ns == 0`
            // means the entry was unstamped (recording off at submit
            // time).
            if entry.t_ns != 0 {
                obs.record(HistId::CmdWaitNs, drain_ns.saturating_sub(entry.t_ns));
            }
            handle_command(shared, st, node, now, src, entry);
        }
        if taken > 0 {
            if sampled(&mut st.ticks.drain) {
                obs.trace_at(drain_ns, EventKind::Drain, src as u16, taken as u32);
            }
            shared.ops_serviced[node].fetch_add(taken as u64, Ordering::Relaxed);
            progressed = true;
        }
        if e.q.is_ready() {
            // Entries remain past the burst; re-arm the bit so the next
            // scan comes back.
            ready.fetch_or(bit, Ordering::Release);
        }
    }
    progressed
}

/// Overload control: a saturated proxy rejects the oldest all-request
/// frames over the backlog cap. Rejection *advances the delivered
/// watermark* and reports the sequence on the next ack, so the sender
/// unretains the frame without firing any lsync — "acked ⇒ applied
/// exactly once" survives shedding. Control frames and frames carrying a
/// response are serviced normally even over the cap.
#[inline]
fn shed_backlog(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    wire_rx: &Ring<WireMsg>,
) -> bool {
    let mut ops = 0;
    while wire_rx.len() > SHED_BACKLOG {
        let Some(msg) = wire_rx.try_pop() else { break };
        ops += handle_packet(shared, st, node, now, msg, true);
    }
    count_serviced(shared, node, ops)
}

/// Network input, burst-bounded (in operations, whatever the frames'
/// sizes) like the command queues: a flooded wire refills faster than it
/// drains, and this must not become the whole pass.
#[inline]
fn drain_wire(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    wire_rx: &Ring<WireMsg>,
) -> bool {
    let mut ops = 0;
    while ops < SERVICE_BURST as u64 {
        let Some(msg) = wire_rx.try_pop() else { break };
        ops += handle_packet(shared, st, node, now, msg, false);
    }
    count_serviced(shared, node, ops)
}

/// Books what a wire phase serviced; true if it serviced anything. An
/// idle pass must not write here: the per-node counters are small
/// neighbouring allocations, and a store per empty poll would bounce
/// their cache line between every pair of idle proxies.
#[inline]
fn count_serviced(shared: &Shared, node: usize, ops: u64) -> bool {
    if ops > 0 {
        shared.ops_serviced[node].fetch_add(ops, Ordering::Relaxed);
    }
    ops > 0
}

/// Idle: escalate spin → yield → park. Parking is gated on an empty
/// outbound stash (stashed packets wait on a peer's ring, which sends no
/// wake when space frees up). Unacknowledged retention does *not* block
/// parking: the bounded park timeout re-probes often enough to serve as
/// the RTO clock.
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
