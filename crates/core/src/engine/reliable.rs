//! Reliable delivery over the (possibly faulty) interconnect.
//!
//! The paper assumes a lossless network; this module removes that
//! assumption so the fault-injection substrate (`mproxy_simnet::FaultPlan`)
//! can exercise the fabric. Each node's communication agent owns one
//! [`LinkLayer`] implementing a per-destination sliding protocol:
//!
//! * every data message carries a per-destination **sequence number**
//!   (starting at 1; 0 marks unsequenced control traffic) and a structural
//!   **checksum** of its payload;
//! * the receiving agent **acknowledges** every sequenced packet — also
//!   duplicates, so lost ACKs heal — **NACKs** checksum failures for an
//!   immediate resend, discards duplicates, and holds out-of-order
//!   arrivals in a reorder buffer until the gap fills, delivering
//!   **exactly once, in order**;
//! * acknowledgements are **cumulative**: an ACK carries the receiver's
//!   in-order delivery watermark and retires every pending entry at or
//!   below it, so the sender's retransmit buffer reflects exactly what the
//!   receiver has *consumed* (an out-of-order packet parked in the reorder
//!   buffer stays the sender's responsibility until its gap fills — which
//!   is what makes crash recovery sound);
//! * the sender keeps unacknowledged messages in a **bounded** pending
//!   table (at most [`crate::ClusterSpec::link_window`] per destination;
//!   overflow parks in a FIFO backlog and is promoted as ACKs free slots,
//!   so memory stays O(window) under sustained drop storms) and
//!   retransmits on a timer following [`RetryPolicy`] exponential backoff;
//!   when the budget is exhausted the destination is declared dead and
//!   the submitting process is failed with [`CommError::Unreachable`]
//!   instead of waiting forever;
//! * every connection carries an **epoch** (the upper [`EPOCH_BITS`] bits
//!   of the wire sequence). A proxy crash ([`FaultPlan::crash`]) loses all
//!   volatile link state — sequence counters, the retransmit buffer, the
//!   backlog — and restarts into the next epoch, announcing itself with a
//!   `HELLO { epoch, last_delivered }` handshake: survivors prune their
//!   retransmit buffers to the reported watermark, replay the remainder
//!   idempotently, purge stale-epoch holds, and answer `HELLO-ACK` with
//!   their own watermark so the restarted node resumes numbering where
//!   they expect it. Work that was in flight from the crashed node and
//!   never acknowledged is unrecoverable; its owners are failed with
//!   [`CommError::EpochReset`].
//!
//! The layer is engaged only when the cluster is built with a fault plan
//! ([`crate::Cluster::new_with_faults`]); fault-free clusters take the
//! original direct send path and their timing is bit-identical to before.
//! Epochs start at 0, so runs without crash windows put identical bits on
//! the wire as before the epoch field existed.
//!
//! Failure surfacing: the discrete-event executor has no cancellation, so
//! a failed process is *poisoned* — its [`CommError`] is recorded, every
//! synchronisation-flag counter is bumped past any realistic target to
//! wake waiters, and its receive queues are closed. Waiters using
//! [`crate::Proc::wait_flag_result`] observe the error; plain waits panic
//! with the error message rather than deadlock.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};

use crate::fxhash::FxHashMap;
use std::rc::Rc;

use mproxy_des::{Dur, SimCtx, SimTime, TimerHandle, TimerOutcome};
use mproxy_simnet::{CrashWindow, NetPort, NodeId, Packet};

use crate::addr::ProcId;
use crate::cluster::{ClusterState, NodeState, ProcState};
use crate::engine::{Ccb, ProxyInput, WireMsg};
use crate::error::CommError;
use crate::retry::RetryPolicy;

/// Flag counters of a poisoned process are advanced by this much, waking
/// any waiter regardless of its target.
pub(crate) const POISON_BUMP: u64 = 1 << 32;

/// Upper bits of the wire sequence that carry the sender's epoch.
pub(crate) const EPOCH_BITS: u32 = 16;
const EPOCH_SHIFT: u32 = 64 - EPOCH_BITS;
const SEQ_MASK: u64 = (1 << EPOCH_SHIFT) - 1;

/// Payload bytes the wire serialises for a protocol message: none. The
/// engines charge payload movement themselves — PIO per line, or
/// `DmaEngine::transfer` for large blocks — so the wire carries (and
/// times) the header only. Passed at the two `NetPort` boundaries,
/// [`send_wire`] and [`LinkLayer::transmit`], and nowhere else.
const HEADER_ONLY: u32 = 0;

/// Interval at which a restarted proxy re-sends its HELLO until the peer
/// answers (the wire may eat either side of the handshake).
const HELLO_RETRY_US: f64 = 50.0;

/// Encodes `(epoch, seq)` into the one wire sequence field.
fn wire_seq(epoch: u32, seq: u64) -> u64 {
    debug_assert!(seq <= SEQ_MASK, "sequence overflow");
    (u64::from(epoch) << EPOCH_SHIFT) | seq
}

/// Splits a wire sequence into `(epoch, seq)`.
fn split_seq(wire: u64) -> (u32, u64) {
    ((wire >> EPOCH_SHIFT) as u32, wire & SEQ_MASK)
}

/// Marks `ps` as failed with `err`: records the error, releases all flag
/// waiters, and closes receive queues. Idempotent (first error wins).
pub(crate) fn poison_proc(ps: &ProcState, err: CommError) {
    {
        let mut slot = ps.comm_error.borrow_mut();
        if slot.is_some() {
            return;
        }
        *slot = Some(err);
    }
    for c in ps.flags.borrow().iter() {
        c.add(POISON_BUMP);
    }
    for q in ps.queues.borrow().iter() {
        q.close();
    }
    // Wake submitters blocked on command-queue credits.
    if let Some(c) = &ps.credits {
        c.close();
    }
}

/// Structural FNV-1a checksum of a wire message. Covers every field the
/// receiver acts on; corruption is modelled by the packet's `corrupted`
/// flag, which receivers treat as a mismatch.
pub(crate) fn wire_checksum(msg: &WireMsg) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    struct Fnv(u64);
    impl Fnv {
        fn byte(&mut self, b: u8) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        fn u64(&mut self, v: u64) {
            for b in v.to_le_bytes() {
                self.byte(b);
            }
        }
        fn u32(&mut self, v: u32) {
            self.u64(u64::from(v));
        }
        fn bytes(&mut self, data: &[u8]) {
            // Word-at-a-time: payloads dominate the hash cost, and a
            // structural checksum only needs to be deterministic and
            // sensitive, not byte-serial.
            self.u64(data.len() as u64);
            let mut chunks = data.chunks_exact(8);
            for c in chunks.by_ref() {
                let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
                self.0 = (self.0 ^ w).wrapping_mul(PRIME);
            }
            for &b in chunks.remainder() {
                self.byte(b);
            }
        }
        fn flag(&mut self, f: Option<crate::addr::FlagId>) {
            match f {
                Some(id) => {
                    self.byte(1);
                    self.u32(id.0);
                }
                None => self.byte(0),
            }
        }
        fn ack(&mut self, a: Option<(usize, u64)>) {
            match a {
                Some((node, token)) => {
                    self.byte(1);
                    self.u64(node as u64);
                    self.u64(token);
                }
                None => self.byte(0),
            }
        }
    }
    let mut h = Fnv(OFFSET);
    match msg {
        WireMsg::PutData {
            dst,
            raddr,
            data,
            rsync,
            ack,
            dma,
        } => {
            h.byte(1);
            h.u32(dst.0);
            h.u64(raddr.0);
            h.bytes(data);
            h.flag(*rsync);
            h.ack(*ack);
            h.byte(u8::from(*dma));
        }
        WireMsg::GetReq {
            dst,
            raddr,
            nbytes,
            rsync,
            origin,
            token,
            dma,
        } => {
            h.byte(2);
            h.u32(dst.0);
            h.u64(raddr.0);
            h.u32(*nbytes);
            h.flag(*rsync);
            h.u64(*origin as u64);
            h.u64(*token);
            h.byte(u8::from(*dma));
        }
        WireMsg::GetReply { token, data, dma } => {
            h.byte(3);
            h.u64(*token);
            h.bytes(data);
            h.byte(u8::from(*dma));
        }
        WireMsg::EnqData {
            dst,
            rq,
            data,
            rsync,
            ack,
        } => {
            h.byte(4);
            h.u32(dst.0);
            h.u32(rq.0);
            h.bytes(data);
            h.flag(*rsync);
            h.ack(*ack);
        }
        WireMsg::DeqReq {
            dst,
            rq,
            nbytes,
            origin,
            token,
        } => {
            h.byte(5);
            h.u32(dst.0);
            h.u32(rq.0);
            h.u32(*nbytes);
            h.u64(*origin as u64);
            h.u64(*token);
        }
        WireMsg::DeqReply { token, data } => {
            h.byte(6);
            h.u64(*token);
            match data {
                Some(d) => {
                    h.byte(1);
                    h.bytes(d);
                }
                None => h.byte(0),
            }
        }
        WireMsg::Ack { token } => {
            h.byte(7);
            h.u64(*token);
        }
        WireMsg::LinkAck { seq } => {
            h.byte(8);
            h.u64(*seq);
        }
        WireMsg::LinkNack { seq } => {
            h.byte(9);
            h.u64(*seq);
        }
        WireMsg::Hello {
            epoch,
            last_delivered,
        } => {
            h.byte(10);
            h.u32(*epoch);
            h.u64(*last_delivered);
        }
        WireMsg::HelloAck {
            epoch,
            last_delivered,
        } => {
            h.byte(11);
            h.u32(*epoch);
            h.u64(*last_delivered);
        }
    }
    h.0
}

/// One node's reliable-link state digest: its current epoch plus, per
/// peer and sorted by peer, `(peer, last sequence sent, next expected)`.
/// Compared across serial/parallel/repeat runs by the crash-recovery
/// determinism checks.
pub type LinkSnapshot = (u32, Vec<(NodeId, u64, u64)>);

/// Link-layer protocol counters of one node (inputs to
/// [`crate::FaultReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Timer- and NACK-driven retransmissions.
    pub retransmits: u64,
    /// Sequenced packets acknowledged on arrival.
    pub acks_sent: u64,
    /// Checksum failures NACKed back to the sender.
    pub nacks_sent: u64,
    /// Duplicate arrivals discarded by sequence check.
    pub dups_discarded: u64,
    /// Out-of-order arrivals parked in the reorder buffer.
    pub held_out_of_order: u64,
    /// Pending sends abandoned after budget exhaustion.
    pub unreachable: u64,
    /// Highest simultaneous retransmit-buffer occupancy towards any one
    /// destination (bounded by the configured window).
    pub peak_pending: u64,
    /// Sends parked in the bounded-window backlog instead of entering the
    /// retransmit buffer immediately.
    pub backlogged: u64,
    /// HELLO announcements transmitted after crash restarts (including
    /// retries).
    pub hellos_sent: u64,
    /// Retransmit-buffer entries replayed for a restarted peer.
    pub replayed: u64,
    /// Packets discarded because their epoch did not match the sender's
    /// current incarnation.
    pub stale_discarded: u64,
    /// Epoch resyncs completed (HELLO-ACK accepted after a restart).
    pub epoch_resyncs: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    msg: WireMsg,
    /// Process to fail if the budget runs out (None for replies whose
    /// originating process the responder does not know).
    owner: Option<ProcId>,
    /// Handle onto the current retransmission timer, so an ACK disarms it
    /// immediately instead of leaving a dead calendar event to churn
    /// through. Set by the retransmit loop once it arms its first timer.
    timer: Option<TimerHandle>,
}

/// A send parked behind a full window (or an unfinished epoch resync),
/// not yet assigned a sequence number.
#[derive(Debug)]
struct Parked {
    msg: WireMsg,
    owner: Option<ProcId>,
}

/// Per-node reliable-delivery state. Self-contained (owns clones of the
/// sim context and network port) so retransmission timers capture only an
/// `Rc<LinkLayer>`.
pub(crate) struct LinkLayer {
    ctx: SimCtx,
    node: NodeId,
    port: NetPort<WireMsg>,
    policy: RetryPolicy,
    procs: Vec<Rc<ProcState>>,
    /// Retransmit-buffer cap per destination; overflow parks in `backlog`.
    window: usize,
    /// This node's incarnation; bumped by [`LinkLayer::crash`].
    epoch: Cell<u32>,
    /// Last epoch observed per peer (via its sequenced traffic and HELLOs).
    peer_epoch: RefCell<FxHashMap<NodeId, u32>>,
    next_seq: RefCell<FxHashMap<NodeId, u64>>,
    /// Un-ACKed sends per destination, ordered by sequence so cumulative
    /// ACK pruning and crash replay walk them in order.
    pending: RefCell<FxHashMap<NodeId, BTreeMap<u64, Pending>>>,
    /// FIFO of sends awaiting a window slot (or the end of a resync).
    backlog: RefCell<FxHashMap<NodeId, VecDeque<Parked>>>,
    /// Peers this (restarted) node still owes a HELLO-ACK from; data sends
    /// towards them park in the backlog until the handshake completes.
    resyncing: RefCell<Vec<NodeId>>,
    /// Next expected sequence per source node (first is 1). Survives a
    /// crash: delivered data lives in process memory, which the crash does
    /// not erase, and the watermark is journaled with it.
    expected: RefCell<FxHashMap<NodeId, u64>>,
    /// Out-of-order arrivals per source, keyed by sequence.
    held: RefCell<FxHashMap<NodeId, BTreeMap<u64, WireMsg>>>,
    stats: RefCell<LinkStats>,
    /// Set by [`LinkLayer::quiesce`] at cluster shutdown: later sends go
    /// out untracked (fire-and-forget) instead of arming retransmission
    /// timers against peers that no longer service their input.
    closed: Cell<bool>,
}

impl LinkLayer {
    pub(crate) fn new(
        ctx: SimCtx,
        node: NodeId,
        port: NetPort<WireMsg>,
        policy: RetryPolicy,
        procs: Vec<Rc<ProcState>>,
        window: usize,
    ) -> Rc<LinkLayer> {
        assert!(window >= 1, "link window must be at least 1");
        Rc::new(LinkLayer {
            ctx,
            node,
            port,
            policy,
            procs,
            window,
            epoch: Cell::new(0),
            peer_epoch: RefCell::new(FxHashMap::default()),
            next_seq: RefCell::new(FxHashMap::default()),
            pending: RefCell::new(FxHashMap::default()),
            backlog: RefCell::new(FxHashMap::default()),
            resyncing: RefCell::new(Vec::new()),
            expected: RefCell::new(FxHashMap::default()),
            held: RefCell::new(FxHashMap::default()),
            stats: RefCell::new(LinkStats::default()),
            closed: Cell::new(false),
        })
    }

    pub(crate) fn stats(&self) -> LinkStats {
        *self.stats.borrow()
    }

    /// This node's current epoch and, per peer it has link state with,
    /// the last sequence sent and the next expected — sorted by peer for
    /// byte-stable determinism checks.
    pub(crate) fn snapshot(&self) -> LinkSnapshot {
        let next_seq = self.next_seq.borrow();
        let expected = self.expected.borrow();
        let mut peers: Vec<NodeId> = next_seq.keys().chain(expected.keys()).copied().collect();
        peers.sort_unstable();
        peers.dedup();
        let rows = peers
            .into_iter()
            .map(|p| {
                (
                    p,
                    next_seq.get(&p).copied().unwrap_or(0),
                    expected.get(&p).copied().unwrap_or(1),
                )
            })
            .collect();
        (self.epoch.get(), rows)
    }

    fn is_resyncing(&self, dst: NodeId) -> bool {
        self.resyncing.borrow().contains(&dst)
    }

    /// Sends `msg` under reliable delivery. If the window towards `dst`
    /// has a free slot (and no epoch resync is in progress), the message
    /// is stamped with the next sequence, remembered as pending, and
    /// transmitted with its first retransmission timer armed; otherwise it
    /// parks in the FIFO backlog and is promoted when ACKs free slots.
    pub(crate) async fn send_reliable(
        self: Rc<Self>,
        dst: NodeId,
        msg: WireMsg,
        owner: Option<ProcId>,
    ) {
        if self.closed.get() {
            // Shutdown linger: a stalled engine draining its backlog after
            // the run ended may still answer peers that are already gone.
            // Transmit once, never retry, never declare anyone unreachable.
            let seq = self.bump_seq(dst);
            self.transmit(dst, msg, wire_seq(self.epoch.get(), seq))
                .await;
            return;
        }
        let has_slot = !self.is_resyncing(dst)
            && self.backlog.borrow().get(&dst).is_none_or(VecDeque::is_empty)
            && self.pending.borrow().get(&dst).map_or(0, BTreeMap::len) < self.window;
        if !has_slot {
            self.stats.borrow_mut().backlogged += 1;
            self.backlog
                .borrow_mut()
                .entry(dst)
                .or_default()
                .push_back(Parked { msg, owner });
            return;
        }
        self.transmit_new(dst, msg, owner).await;
    }

    /// Puts `msg` on the wire under wire sequence `seq` (0 for unsequenced
    /// control traffic), stamped with its checksum.
    async fn transmit(&self, dst: NodeId, msg: WireMsg, seq: u64) {
        let checksum = wire_checksum(&msg);
        self.port
            .send_tagged(dst, msg, HEADER_ONLY, seq, checksum)
            .await;
    }

    fn bump_seq(&self, dst: NodeId) -> u64 {
        let mut m = self.next_seq.borrow_mut();
        let slot = m.entry(dst).or_insert(0);
        *slot += 1;
        *slot
    }

    /// Assigns the next sequence towards `dst`, records the pending entry,
    /// transmits, and arms the retransmission loop.
    async fn transmit_new(self: &Rc<Self>, dst: NodeId, msg: WireMsg, owner: Option<ProcId>) {
        let seq = self.bump_seq(dst);
        {
            let mut pending = self.pending.borrow_mut();
            let m = pending.entry(dst).or_default();
            m.insert(
                seq,
                Pending {
                    msg: msg.clone(),
                    owner,
                    timer: None,
                },
            );
            let occupancy = m.len() as u64;
            let mut stats = self.stats.borrow_mut();
            if occupancy > stats.peak_pending {
                stats.peak_pending = occupancy;
            }
        }
        self.transmit(dst, msg, wire_seq(self.epoch.get(), seq))
            .await;
        self.arm_retransmit_loop(dst, seq);
    }

    /// Promotes parked sends towards `dst` while window slots are free.
    async fn pump_backlog(self: &Rc<Self>, dst: NodeId) {
        loop {
            if self.is_resyncing(dst)
                || self.pending.borrow().get(&dst).map_or(0, BTreeMap::len) >= self.window
            {
                return;
            }
            let next = self
                .backlog
                .borrow_mut()
                .get_mut(&dst)
                .and_then(VecDeque::pop_front);
            let Some(p) = next else { return };
            self.transmit_new(dst, p.msg, p.owner).await;
        }
    }

    /// Spawns the retransmission loop for `(dst, seq)`: one task for the
    /// whole lifetime of the pending entry, sleeping on a cancellable
    /// [`mproxy_des::Timer`] per attempt. An arriving ACK disarms the
    /// current timer through the handle stashed in the pending table, so
    /// the loop ends at the instant of acknowledgment and the calendar
    /// never fires a dead retransmission event — the common case on a
    /// mostly-healthy network. A crash drains the pending table and
    /// cancels every timer, ending the loop the same way.
    fn arm_retransmit_loop(self: &Rc<Self>, dst: NodeId, seq: u64) {
        let link = Rc::clone(self);
        self.ctx.clone().spawn(async move {
            let mut attempt: u32 = 0;
            loop {
                let timer = link
                    .ctx
                    .timer(Dur::from_us(link.policy.delay_us(attempt)));
                {
                    let mut pending = link.pending.borrow_mut();
                    let Some(p) = pending.get_mut(&dst).and_then(|m| m.get_mut(&seq)) else {
                        // Acknowledged before the timer was even armed.
                        break;
                    };
                    p.timer = Some(timer.handle());
                }
                if timer.await == TimerOutcome::Cancelled {
                    // Acknowledged (or quiesced, or crashed); the entry is
                    // gone.
                    break;
                }
                // Fired. The entry can still be gone: an ACK processed at
                // the very instant of the deadline finds the timer already
                // in its fired state, and cancelling is then a no-op.
                let entry = link
                    .pending
                    .borrow()
                    .get(&dst)
                    .and_then(|m| m.get(&seq))
                    .map(|p| p.msg.clone());
                let Some(msg) = entry else { break };
                let sent_so_far = attempt + 1;
                if link.policy.give_up_after(sent_so_far) {
                    link.give_up(dst, sent_so_far);
                    break;
                }
                link.stats.borrow_mut().retransmits += 1;
                link.transmit(dst, msg, wire_seq(link.epoch.get(), seq))
                    .await;
                attempt += 1;
                // Give the engine one scheduling round before re-arming,
                // mirroring the queue round-trip of the former
                // spawn-a-task-per-attempt design so event ordering (and
                // every results reproduction) stays byte-identical.
                link.ctx.yield_now().await;
            }
        });
    }

    /// Declares `dst` dead after `attempts` unacknowledged transmissions:
    /// abandons *everything* queued towards it — the whole pending window
    /// and the parked backlog — and fails every owning process, so no
    /// parked send waits forever behind a peer that will never ACK again.
    fn give_up(&self, dst: NodeId, attempts: u32) {
        let drained = self.pending.borrow_mut().remove(&dst).unwrap_or_default();
        let parked = self.backlog.borrow_mut().remove(&dst).unwrap_or_default();
        let mut abandoned: u64 = 0;
        let mut owners = Vec::new();
        for (_, p) in drained {
            if let Some(t) = p.timer {
                t.cancel();
            }
            if let Some(o) = p.owner {
                owners.push(o);
            }
            abandoned += 1;
        }
        for p in parked {
            if let Some(o) = p.owner {
                owners.push(o);
            }
            abandoned += 1;
        }
        self.stats.borrow_mut().unreachable += abandoned;
        for o in owners {
            poison_proc(
                &self.procs[o.0 as usize],
                CommError::Unreachable { dst, attempts },
            );
        }
    }

    /// Abandons all retransmission state. Called at cluster shutdown:
    /// once every process body has finished, all message-level results
    /// have provably arrived, so any still-pending entry is only a
    /// link-level ACK the peer never echoed (the peer may already be
    /// gone). Draining the map and cancelling every retransmission timer
    /// ends the retry loops at this very instant instead of letting them
    /// retransmit into closed engines until they declare the node
    /// unreachable.
    pub(crate) fn quiesce(&self) {
        self.closed.set(true);
        for (_, m) in self.pending.borrow_mut().drain() {
            for (_, p) in m {
                if let Some(t) = p.timer {
                    t.cancel();
                }
            }
        }
        self.backlog.borrow_mut().clear();
        self.resyncing.borrow_mut().clear();
        self.held.borrow_mut().clear();
    }

    /// Simulates a proxy crash: every piece of volatile link state — the
    /// retransmit buffer, the backlog, outbound sequence counters, the
    /// reorder buffer, any unfinished resync — is lost, and the node moves
    /// into the next epoch. Owners of un-ACKed sends are failed with
    /// [`CommError::EpochReset`]: their operations may or may not have
    /// taken effect remotely and cannot be replayed transparently. The
    /// delivery watermarks (`expected`) and observed peer epochs survive:
    /// delivered data lives in process memory, which the crash does not
    /// erase, and the watermark is journaled with it.
    ///
    /// Every peer is marked as resyncing *immediately*: a command queued
    /// behind the crash instant is serviced the moment the engine thaws at
    /// restart, and without the mark it could race ahead of
    /// [`LinkLayer::restart`], transmit under the new epoch with a reset
    /// sequence counter, be silently discarded by the peer's epoch filter,
    /// and then be pruned as "delivered" by a stale watermark — a silent
    /// loss. Parked in the backlog instead, it drains after the HELLO-ACK
    /// restores sequence agreement.
    ///
    /// Returns the new epoch.
    pub(crate) fn crash(&self, nodes: usize) -> u32 {
        let epoch = self.epoch.get() + 1;
        assert!(u64::from(epoch) < (1 << EPOCH_BITS), "epoch overflow");
        self.epoch.set(epoch);
        let drained: Vec<_> = self.pending.borrow_mut().drain().collect();
        for (_, m) in drained {
            for (_, p) in m {
                if let Some(t) = p.timer {
                    t.cancel();
                }
                if let Some(o) = p.owner {
                    poison_proc(
                        &self.procs[o.0 as usize],
                        CommError::EpochReset {
                            node: self.node,
                            epoch,
                        },
                    );
                }
            }
        }
        let parked: Vec<_> = self.backlog.borrow_mut().drain().collect();
        for (_, q) in parked {
            for p in q {
                if let Some(o) = p.owner {
                    poison_proc(
                        &self.procs[o.0 as usize],
                        CommError::EpochReset {
                            node: self.node,
                            epoch,
                        },
                    );
                }
            }
        }
        self.next_seq.borrow_mut().clear();
        self.held.borrow_mut().clear();
        let mut resyncing = self.resyncing.borrow_mut();
        resyncing.clear();
        resyncing.extend((0..nodes).filter(|&p| p != self.node));
        epoch
    }

    /// Brings a crashed node back into service: starts a HELLO retry task
    /// per peer (all marked resyncing since the crash instant; data sends
    /// park in the backlog meanwhile) that announces the new epoch and
    /// this node's surviving delivery watermark until the peer's
    /// HELLO-ACK arrives — the wire may eat either side of the handshake,
    /// so it retries every [`HELLO_RETRY_US`].
    pub(crate) fn restart(self: &Rc<Self>) {
        let epoch = self.epoch.get();
        for peer in self.resyncing.borrow().clone() {
            let link = Rc::clone(self);
            self.ctx.clone().spawn(async move {
                loop {
                    if link.closed.get()
                        || link.epoch.get() != epoch
                        || !link.is_resyncing(peer)
                    {
                        break;
                    }
                    let wm = link.expected.borrow().get(&peer).copied().unwrap_or(1) - 1;
                    link.stats.borrow_mut().hellos_sent += 1;
                    link.send_control(
                        peer,
                        WireMsg::Hello {
                            epoch,
                            last_delivered: wm,
                        },
                    )
                    .await;
                    link.ctx.delay(Dur::from_us(HELLO_RETRY_US)).await;
                }
            });
        }
    }

    /// Survivor-side HELLO handling: adopt the restarted peer's new epoch,
    /// discard reorder-buffer holds from its dead incarnation, retire
    /// pending sends it reports as delivered, replay the remainder
    /// idempotently (original sequences, this node's unchanged epoch), and
    /// answer with this node's own delivery watermark so the peer resumes
    /// numbering where it is expected. Idempotent, so HELLO retries are
    /// harmless.
    async fn handle_hello(self: &Rc<Self>, src: NodeId, e: u32, last_delivered: u64) {
        let known = self.peer_epoch.borrow().get(&src).copied().unwrap_or(0);
        if e < known {
            self.stats.borrow_mut().stale_discarded += 1;
            return;
        }
        if e > known {
            self.peer_epoch.borrow_mut().insert(src, e);
            self.held.borrow_mut().remove(&src);
        }
        let (timers, replay) = {
            let mut pending = self.pending.borrow_mut();
            match pending.get_mut(&src) {
                Some(m) => {
                    let keep = m.split_off(&(last_delivered + 1));
                    let acked = std::mem::replace(m, keep);
                    let timers: Vec<_> = acked.into_values().filter_map(|p| p.timer).collect();
                    let replay: Vec<(u64, WireMsg)> =
                        m.iter().map(|(s, p)| (*s, p.msg.clone())).collect();
                    (timers, replay)
                }
                None => (Vec::new(), Vec::new()),
            }
        };
        for t in timers {
            t.cancel();
        }
        let epoch = self.epoch.get();
        self.stats.borrow_mut().replayed += replay.len() as u64;
        for (s, msg) in replay {
            self.transmit(src, msg, wire_seq(epoch, s)).await;
        }
        let wm = self.expected.borrow().get(&src).copied().unwrap_or(1) - 1;
        self.send_control(
            src,
            WireMsg::HelloAck {
                epoch: e,
                last_delivered: wm,
            },
        )
        .await;
        self.pump_backlog(src).await;
    }

    /// Sends unsequenced control traffic (ACK/NACK/HELLO). Not
    /// retransmitted here: a lost ACK is healed by the peer's timer plus
    /// our duplicate re-ACK; a lost NACK by the peer's timer alone; a lost
    /// HELLO or HELLO-ACK by the restart task's retry loop.
    async fn send_control(&self, dst: NodeId, msg: WireMsg) {
        self.transmit(dst, msg, 0).await;
    }

    /// Processes one arriving packet, returning the data messages now
    /// deliverable to the protocol engine (in order; possibly several when
    /// a gap closes, possibly none).
    pub(crate) async fn accept(self: &Rc<Self>, pkt: Packet<WireMsg>) -> Vec<WireMsg> {
        let Packet {
            src,
            seq,
            checksum,
            corrupted,
            message,
            ..
        } = pkt;
        let valid = !corrupted && checksum == wire_checksum(&message);
        match message {
            WireMsg::LinkAck { seq: acked } => {
                // Corrupted control is dropped; recovery is timer-driven.
                if valid {
                    let (e, wm) = split_seq(acked);
                    if e == self.epoch.get() {
                        // Cumulative: the watermark retires every pending
                        // entry the receiver has consumed in order.
                        let timers: Vec<TimerHandle> = {
                            let mut pending = self.pending.borrow_mut();
                            match pending.get_mut(&src) {
                                Some(m) => {
                                    let keep = m.split_off(&(wm + 1));
                                    let acked_entries = std::mem::replace(m, keep);
                                    acked_entries
                                        .into_values()
                                        .filter_map(|p| p.timer)
                                        .collect()
                                }
                                None => Vec::new(),
                            }
                        };
                        for t in timers {
                            // Disarm the retransmission timers right now:
                            // their calendar entries are discarded lazily
                            // and never fire as events.
                            t.cancel();
                        }
                        self.pump_backlog(src).await;
                    } else {
                        // An echo of a dead incarnation's traffic.
                        self.stats.borrow_mut().stale_discarded += 1;
                    }
                }
                Vec::new()
            }
            WireMsg::LinkNack { seq: nacked } => {
                if valid {
                    let (e, s) = split_seq(nacked);
                    if e == self.epoch.get() {
                        let entry = self
                            .pending
                            .borrow()
                            .get(&src)
                            .and_then(|m| m.get(&s))
                            .map(|p| p.msg.clone());
                        if let Some(msg) = entry {
                            self.stats.borrow_mut().retransmits += 1;
                            self.transmit(src, msg, nacked).await;
                        }
                    } else {
                        self.stats.borrow_mut().stale_discarded += 1;
                    }
                }
                Vec::new()
            }
            WireMsg::Hello {
                epoch,
                last_delivered,
            } => {
                if valid {
                    self.handle_hello(src, epoch, last_delivered).await;
                }
                Vec::new()
            }
            WireMsg::HelloAck {
                epoch,
                last_delivered,
            } => {
                if valid {
                    if epoch == self.epoch.get() && self.is_resyncing(src) {
                        // Resume numbering where the survivor expects it.
                        self.resyncing.borrow_mut().retain(|&p| p != src);
                        self.next_seq.borrow_mut().insert(src, last_delivered);
                        self.stats.borrow_mut().epoch_resyncs += 1;
                        self.pump_backlog(src).await;
                    } else {
                        self.stats.borrow_mut().stale_discarded += 1;
                    }
                }
                Vec::new()
            }
            message if seq == 0 => {
                // Unsequenced data only occurs when reliability is off for
                // the sender; deliver as-is (nothing to ACK or dedup).
                if valid {
                    vec![message]
                } else {
                    Vec::new()
                }
            }
            message => {
                if !valid {
                    self.stats.borrow_mut().nacks_sent += 1;
                    self.send_control(src, WireMsg::LinkNack { seq }).await;
                    return Vec::new();
                }
                let (e, s) = split_seq(seq);
                let known = self.peer_epoch.borrow().get(&src).copied().unwrap_or(0);
                if e != known {
                    // A dead incarnation's packet — or a new incarnation's
                    // data racing ahead of its HELLO under reordering.
                    // Discard without ACK; the sender's timer (and the
                    // handshake) heal it.
                    self.stats.borrow_mut().stale_discarded += 1;
                    return Vec::new();
                }
                let expected = *self.expected.borrow().get(&src).unwrap_or(&1);
                let mut out = Vec::new();
                if s < expected {
                    self.stats.borrow_mut().dups_discarded += 1;
                } else if s > expected {
                    // Re-inserting a duplicate of a held seq just overwrites
                    // it with identical content.
                    self.stats.borrow_mut().held_out_of_order += 1;
                    self.held
                        .borrow_mut()
                        .entry(src)
                        .or_default()
                        .insert(s, message);
                } else {
                    out.push(message);
                    let mut next = expected + 1;
                    {
                        let mut held = self.held.borrow_mut();
                        if let Some(h) = held.get_mut(&src) {
                            while let Some(m) = h.remove(&next) {
                                out.push(m);
                                next += 1;
                            }
                        }
                    }
                    self.expected.borrow_mut().insert(src, next);
                }
                // ACK everything valid — including duplicates, so the
                // sender stops retransmitting even if its first ACK died.
                // Sent *after* delivery bookkeeping: the ACK carries the
                // in-order watermark, so the sender retires exactly what
                // has been consumed — an out-of-order hold stays the
                // sender's responsibility until its gap fills, which is
                // what makes a receiver crash recoverable.
                self.stats.borrow_mut().acks_sent += 1;
                let wm = *self.expected.borrow().get(&src).unwrap_or(&1) - 1;
                self.send_control(
                    src,
                    WireMsg::LinkAck {
                        seq: wire_seq(known, wm),
                    },
                )
                .await;
                out
            }
        }
    }
}

impl std::fmt::Debug for LinkLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkLayer")
            .field("node", &self.node)
            .field("pending", &self.pending.borrow().len())
            .finish()
    }
}

/// Sends a wire message from `node`, through its link layer when
/// reliability is engaged, directly otherwise. `owner` names the process
/// to fail if the destination never acknowledges.
pub(crate) async fn send_wire(node: &NodeState, dst: NodeId, msg: WireMsg, owner: Option<ProcId>) {
    match &node.link {
        Some(link) => Rc::clone(link).send_reliable(dst, msg, owner).await,
        None => node.port.send(dst, msg, HEADER_ONLY).await,
    }
}

/// If the fault plan stalls `node` right now — or its proxy is down inside
/// a crash window — freezes the caller (the node's communication agent)
/// until the window ends.
pub(crate) async fn stall_gate(node: &NodeState, cs: &ClusterState) {
    let Some(faults) = &cs.faults else { return };
    // Re-check after waking: windows may abut or interleave.
    loop {
        let now = cs.ctx.now();
        let now_us = now.as_us();
        let stall = faults.stall_end(node.id, now_us);
        let crash = faults.crash_end(node.id, now_us);
        let end_us = match (stall, crash) {
            (Some(s), Some(c)) => s.max(c),
            (Some(s), None) => s,
            (None, Some(c)) => c,
            (None, None) => return,
        };
        // The window bounds are f64 microseconds but the calendar ticks in
        // integer nanoseconds, so `end_us` can round to an instant at or
        // before `now` (the wake-up from the previous iteration): the rest
        // of the window is unrepresentable, hence already over. Without
        // this tick-domain check the `delay_until` below completes
        // immediately and the loop re-reads the same window forever — a
        // synchronous livelock that never yields to the executor.
        let end = SimTime::ZERO + Dur::from_us(end_us);
        if end <= now {
            return;
        }
        cs.ctx.delay_until(end).await;
    }
}

/// Drives the crash windows of one node: at each `at_us` the node's link
/// layer [`LinkLayer::crash`]es (volatile state lost, epoch bumped) and
/// the proxy's in-memory work is wiped — queued commands fail their
/// submitters with [`CommError::EpochReset`], queued packets vanish (the
/// senders' retransmit timers re-deliver them), and every outstanding CCB
/// fails its owner (its reply can no longer be matched). The engine task
/// itself is frozen across the window by [`stall_gate`]; at `restart_us`
/// the link layer [`LinkLayer::restart`]s and opens the HELLO handshake.
pub(crate) async fn crash_driver(
    cs: Rc<ClusterState>,
    node: usize,
    windows: Vec<CrashWindow>,
) {
    for w in windows {
        cs.ctx
            .delay_until(SimTime::ZERO + Dur::from_us(w.at_us))
            .await;
        let ns = &cs.nodes[node];
        let Some(link) = &ns.link else { return };
        let epoch = link.crash(cs.spec.nodes);
        while let Some(input) = ns.proxy_input.try_recv() {
            match input {
                ProxyInput::Cmd(cmd, _) => poison_proc(
                    cs.proc(cmd.src()),
                    CommError::EpochReset { node, epoch },
                ),
                // Undelivered packets and re-probe ticks die with the
                // proxy's memory image.
                ProxyInput::Pkt(_) | ProxyInput::RetryDeq(_) => {}
            }
        }
        let ccbs: Vec<Ccb> = ns.ccbs.borrow_mut().drain().map(|(_, c)| c).collect();
        for ccb in ccbs {
            let proc = match ccb {
                Ccb::Get { proc, .. } | Ccb::PutAck { proc, .. } | Ccb::Deq { proc, .. } => proc,
            };
            poison_proc(cs.proc(proc), CommError::EpochReset { node, epoch });
        }
        cs.ctx
            .delay_until(SimTime::ZERO + Dur::from_us(w.restart_us))
            .await;
        link.restart();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, FlagId};
    use bytes::Bytes;

    fn put(data: &'static [u8], rsync: Option<FlagId>) -> WireMsg {
        WireMsg::PutData {
            dst: ProcId(1),
            raddr: Addr(64),
            data: Bytes::from_static(data),
            rsync,
            ack: None,
            dma: false,
        }
    }

    #[test]
    fn checksum_distinguishes_fields_and_variants() {
        let a = wire_checksum(&put(b"hello", None));
        let b = wire_checksum(&put(b"hellp", None));
        let c = wire_checksum(&put(b"hello", Some(FlagId(0))));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(
            wire_checksum(&WireMsg::Ack { token: 5 }),
            wire_checksum(&WireMsg::LinkAck { seq: 5 })
        );
        // Deterministic.
        assert_eq!(a, wire_checksum(&put(b"hello", None)));
    }

    #[test]
    fn checksum_covers_deq_reply_none_vs_empty() {
        let none = wire_checksum(&WireMsg::DeqReply {
            token: 1,
            data: None,
        });
        let empty = wire_checksum(&WireMsg::DeqReply {
            token: 1,
            data: Some(Bytes::new()),
        });
        assert_ne!(none, empty);
    }
}
