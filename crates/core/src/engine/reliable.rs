//! Reliable delivery over the (possibly faulty) interconnect.
//!
//! The paper assumes a lossless network; this module removes that
//! assumption so the fault-injection substrate (`mproxy_simnet::FaultPlan`)
//! can exercise the fabric. Each node's communication agent owns one
//! [`LinkLayer`], which keeps one [`PeerLink`] per peer node.
//!
//! The *sequencing* — numbering what is sent, retaining it until it is
//! cumulatively acknowledged, parking out-of-order arrivals in a bounded
//! window, delivering **exactly once, in order** — is
//! [`mproxy_model::link`] ([`Retention`], [`Reorder`]), the core the
//! threaded runtime's wire layer runs on too. This module is the
//! simulator's *driver* of that core — what it decides, and when:
//!
//! * **Unit.** One packet per operation. Every data message carries a
//!   per-destination sequence number (starting at 1; 0 marks unsequenced
//!   control traffic) and a structural **checksum** of its payload.
//! * **Timer.** One cancellable timer per pending packet, from
//!   [`XMIT_INITIAL_US`] doubling to [`XMIT_CAP_US`]. ACKs return only
//!   once the receiving engine dequeues, so under load early sends
//!   routinely time out (duplicates are discarded); [`XMIT_SENDS`] sends
//!   (~12.8 ms) outlast any receiver's service time, so a process fails
//!   with [`CommError::Unreachable`] only for a dead or stalled
//!   destination, instead of waiting for it forever.
//! * **Ack cadence.** The receiving agent acknowledges every valid
//!   sequenced packet — also duplicates, so lost ACKs heal — with its
//!   **cumulative** in-order watermark, so the sender's retransmit buffer
//!   reflects exactly what the receiver has *consumed*
//!   ([`LinkLayer::accept`] has why that makes crash recovery sound).
//! * **NACK trigger.** Checksum failures only, for an immediate resend; a
//!   gap (or a packet beyond the reorder window, which is dropped) is
//!   healed by the sender's timer.
//! * **Window.** At most [`LINK_WINDOW`] unacknowledged packets per
//!   destination; overflow parks in a FIFO backlog, promoted as ACKs
//!   free slots, so memory stays O(window) under drop storms — at the
//!   receiver too, whose reorder buffer is as wide.
//! * **Epoch.** Every connection carries an epoch (the upper
//!   [`EPOCH_BITS`] bits of the wire sequence). A proxy crash
//!   ([`crate::FaultPlan::crash`]) loses all volatile link state
//!   ([`LinkLayer::crash`]) and restarts into the next epoch, announcing
//!   itself with a `HELLO { epoch, last_delivered }` handshake
//!   ([`LinkLayer::restart`]): survivors prune their retransmit buffers
//!   to the reported watermark, replay the remainder idempotently, purge
//!   stale-epoch holds, and answer `HELLO-ACK` with their own watermark
//!   so the restarted node resumes numbering where they expect it. Work
//!   in flight from the crashed node and never acknowledged is
//!   unrecoverable; its owners are failed with [`CommError::EpochReset`].
//!
//! The layer is engaged only when the cluster is built with a fault plan
//! ([`crate::Cluster::new_with_faults`]); fault-free clusters take the
//! direct send path, and epochs start at 0, so neither reliability nor
//! crash recovery costs a run that does not ask for it a single bit.
//! Failures surface by [`poison_proc`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use mproxy_des::{Dur, SimCtx, TimerHandle, TimerOutcome};
use mproxy_model::link::{Reorder, Retention};
use mproxy_simnet::{NetPort, NodeId, Packet};

use crate::addr::ProcId;
use crate::cluster::{NodeState, ProcState};
use crate::engine::WireMsg;
use crate::error::CommError;
use crate::fxhash::FxHasher;

/// Unacknowledged packets per destination, and reorder-buffer width.
pub(crate) const LINK_WINDOW: usize = 64;
/// First retransmission delay; each retransmission doubles it.
const XMIT_INITIAL_US: f64 = 50.0;
/// Longest single retransmission delay.
const XMIT_CAP_US: f64 = 1600.0;
/// Transmissions of one packet before its destination is unreachable.
const XMIT_SENDS: u32 = 12;

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

/// Marks `ps` as failed with `err`. The discrete-event executor has no
/// cancellation, so a failed process is *poisoned*: its [`CommError`] is
/// recorded (first error wins), every synchronisation-flag counter is
/// bumped past any realistic target to wake waiters, and its receive
/// queues are closed. Waiters using [`crate::Proc::wait_flag_result`]
/// observe the error; plain waits panic with the error message rather
/// than deadlock.
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

/// Structural checksum of a wire message: the derived [`Hash`] of
/// [`WireMsg`] — variant, then every field the receiver acts on, payloads
/// length-prefixed — fed to the crate's deterministic [`FxHasher`].
/// Corruption is modelled by the packet's `corrupted` flag, which
/// receivers treat as a mismatch.
pub(crate) fn wire_checksum(msg: &WireMsg) -> u64 {
    let mut h = FxHasher::default();
    msg.hash(&mut h);
    h.finish()
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
    /// destination (bounded by the window, 64).
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

/// A send the link layer is answerable for: pending (sequenced, on the
/// wire, un-ACKed) or still queued behind a full window.
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

/// Everything one node keeps about its link with one peer node.
struct PeerLink {
    /// Last epoch observed from the peer (via its sequenced traffic and
    /// HELLOs). Survives a crash, like `rx`'s watermark.
    epoch: u32,
    /// Un-ACKed sends towards the peer, at most the window.
    tx: Retention<Pending>,
    /// FIFO of sends awaiting a window slot (or the end of a resync), not
    /// yet assigned a sequence number.
    backlog: VecDeque<Pending>,
    /// This (restarted) node still owes the peer's HELLO-ACK; data sends
    /// towards it park in the backlog until the handshake completes.
    resyncing: bool,
    /// In-order watermark and reorder buffer of the peer's stream. The
    /// watermark survives a crash: delivered data lives in process
    /// memory, which the crash does not erase, and the watermark is
    /// journaled with it; the parked packets do not.
    rx: Reorder<WireMsg>,
}

impl PeerLink {
    /// Abandons everything queued towards the peer — the retransmit
    /// buffer (timers disarmed) and the backlog — so that the next send
    /// carries sequence `next`. Returns the owner of each abandoned send.
    fn abandon(&mut self, next: u64) -> Vec<Option<ProcId>> {
        let pending = self.tx.reset(next).into_iter();
        let abandoned = pending.chain(std::mem::take(&mut self.backlog));
        abandoned
            .map(|p| {
                if let Some(t) = p.timer {
                    t.cancel();
                }
                p.owner
            })
            .collect()
    }

    /// Retires every pending send the peer reports as consumed, disarming
    /// the retransmission timers right now: their calendar entries are
    /// discarded lazily and never fire as events.
    fn retire(&mut self, upto: u64) {
        for (_, p) in self.tx.release(upto) {
            if let Some(t) = p.timer {
                t.cancel();
            }
        }
    }
}

/// Per-node reliable-delivery state. Self-contained (owns clones of the
/// sim context and network port) so retransmission timers capture only an
/// `Rc<LinkLayer>`.
pub(crate) struct LinkLayer {
    ctx: SimCtx,
    node: NodeId,
    port: NetPort<WireMsg>,
    procs: Vec<Rc<ProcState>>,
    /// This node's incarnation; bumped by [`LinkLayer::crash`].
    epoch: Cell<u32>,
    /// Link state per peer, indexed by node.
    peers: RefCell<Vec<PeerLink>>,
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
        procs: Vec<Rc<ProcState>>,
    ) -> Rc<LinkLayer> {
        let peers = (0..port.nodes())
            .map(|_| PeerLink {
                epoch: 0,
                tx: Retention::new(),
                backlog: VecDeque::new(),
                resyncing: false,
                rx: Reorder::new(LINK_WINDOW),
            })
            .collect();
        Rc::new(LinkLayer {
            ctx,
            node,
            port,
            procs,
            epoch: Cell::new(0),
            peers: RefCell::new(peers),
            stats: RefCell::new(LinkStats::default()),
            closed: Cell::new(false),
        })
    }

    pub(crate) fn stats(&self) -> LinkStats {
        *self.stats.borrow()
    }

    /// This node's current epoch and, per peer it has exchanged sequenced
    /// traffic with, the last sequence sent and the next expected — in
    /// peer order, for byte-stable determinism checks.
    pub(crate) fn snapshot(&self) -> LinkSnapshot {
        let peers = self.peers.borrow();
        let rows = peers
            .iter()
            .enumerate()
            .map(|(p, l)| (p, l.tx.last(), l.rx.delivered() + 1))
            .filter(|&(_, last, expected)| last > 0 || expected > 1)
            .collect();
        (self.epoch.get(), rows)
    }

    fn is_resyncing(&self, dst: NodeId) -> bool {
        self.peers.borrow()[dst].resyncing
    }

    /// Fails every process in `owners` with `err`.
    fn poison(&self, owners: Vec<Option<ProcId>>, err: CommError) {
        for o in owners.into_iter().flatten() {
            poison_proc(&self.procs[o.0 as usize], err.clone());
        }
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
        let send = Pending {
            msg,
            owner,
            timer: None,
        };
        if self.closed.get() {
            // Shutdown linger: a stalled engine draining its backlog after
            // the run ended may still answer peers that are already gone.
            // Transmit once, never retry, never declare anyone unreachable:
            // the sequence is consumed and nothing stays retained.
            let sent = {
                let tx = &mut self.peers.borrow_mut()[dst].tx;
                let seq = tx.push(send);
                tx.release(seq).last()
            };
            let (seq, p) = sent.expect("just pushed");
            self.transmit(dst, p.msg, wire_seq(self.epoch.get(), seq))
                .await;
            return;
        }
        {
            let p = &mut self.peers.borrow_mut()[dst];
            if p.resyncing || !p.backlog.is_empty() || p.tx.len() >= LINK_WINDOW {
                self.stats.borrow_mut().backlogged += 1;
                p.backlog.push_back(send);
                return;
            }
        }
        self.transmit_new(dst, send).await;
    }

    /// Puts `msg` on the wire under wire sequence `seq` (0 for unsequenced
    /// control traffic), stamped with its checksum.
    async fn transmit(&self, dst: NodeId, msg: WireMsg, seq: u64) {
        let checksum = wire_checksum(&msg);
        self.port
            .send_tagged(dst, msg, HEADER_ONLY, seq, checksum)
            .await;
    }

    /// Assigns the next sequence towards `dst`, records the pending entry,
    /// transmits, and arms the retransmission loop.
    async fn transmit_new(self: &Rc<Self>, dst: NodeId, send: Pending) {
        let msg = send.msg.clone();
        let seq = {
            let tx = &mut self.peers.borrow_mut()[dst].tx;
            let seq = tx.push(send);
            let mut stats = self.stats.borrow_mut();
            stats.peak_pending = stats.peak_pending.max(tx.len() as u64);
            seq
        };
        self.transmit(dst, msg, wire_seq(self.epoch.get(), seq))
            .await;
        self.arm_retransmit_loop(dst, seq);
    }

    /// Promotes parked sends towards `dst` while window slots are free.
    async fn pump_backlog(self: &Rc<Self>, dst: NodeId) {
        loop {
            let next = {
                let p = &mut self.peers.borrow_mut()[dst];
                if p.resyncing || p.tx.len() >= LINK_WINDOW {
                    return;
                }
                p.backlog.pop_front()
            };
            let Some(send) = next else { return };
            self.transmit_new(dst, send).await;
        }
    }

    /// Spawns the retransmission loop for `(dst, seq)`: one task for the
    /// whole lifetime of the pending entry, sleeping on a cancellable
    /// [`mproxy_des::Timer`] per attempt. An arriving ACK disarms the
    /// current timer through the handle stashed in the pending entry, so
    /// the loop ends at the instant of acknowledgment and the calendar
    /// never fires a dead retransmission event — the common case on a
    /// mostly-healthy network. A crash drains the retransmit buffer and
    /// cancels every timer, ending the loop the same way.
    fn arm_retransmit_loop(self: &Rc<Self>, dst: NodeId, seq: u64) {
        let link = Rc::clone(self);
        self.ctx.clone().spawn(async move {
            // Transmissions so far, and the wait before the next.
            let (mut sent, mut delay_us) = (1, XMIT_INITIAL_US);
            loop {
                let timer = link.ctx.timer(Dur::from_us(delay_us));
                {
                    let mut peers = link.peers.borrow_mut();
                    let Some(p) = peers[dst].tx.get_mut(seq) else {
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
                let entry = link.peers.borrow()[dst].tx.get(seq).map(|p| p.msg.clone());
                let Some(msg) = entry else { break };
                if sent >= XMIT_SENDS {
                    link.give_up(dst, sent);
                    break;
                }
                link.stats.borrow_mut().retransmits += 1;
                link.transmit(dst, msg, wire_seq(link.epoch.get(), seq))
                    .await;
                sent += 1;
                delay_us = (delay_us * 2.0).min(XMIT_CAP_US);
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
    /// Numbering towards `dst` carries on where it was.
    fn give_up(&self, dst: NodeId, attempts: u32) {
        let owners = {
            let p = &mut self.peers.borrow_mut()[dst];
            p.abandon(p.tx.last() + 1)
        };
        self.stats.borrow_mut().unreachable += owners.len() as u64;
        self.poison(owners, CommError::Unreachable { dst, attempts });
    }

    /// Abandons all retransmission state. Called at cluster shutdown:
    /// once every process body has finished, all message-level results
    /// have provably arrived, so any still-pending entry is only a
    /// link-level ACK the peer never echoed (the peer may already be
    /// gone). Draining the buffers and cancelling every retransmission
    /// timer ends the retry loops at this very instant instead of letting
    /// them retransmit into closed engines until they declare the node
    /// unreachable.
    pub(crate) fn quiesce(&self) {
        self.closed.set(true);
        for p in self.peers.borrow_mut().iter_mut() {
            p.abandon(p.tx.last() + 1);
            p.resyncing = false;
            p.rx.abandon_held();
        }
    }

    /// Simulates a proxy crash: every piece of volatile link state — the
    /// retransmit buffer, the backlog, outbound sequence counters, the
    /// reorder buffer, any unfinished resync — is lost, and the node moves
    /// into the next epoch. Owners of un-ACKed sends are failed with
    /// [`CommError::EpochReset`]: their operations may or may not have
    /// taken effect remotely and cannot be replayed transparently. The
    /// delivery watermarks and observed peer epochs survive: delivered
    /// data lives in process memory, which the crash does not erase, and
    /// the watermark is journaled with it.
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
    pub(crate) fn crash(&self) -> u32 {
        let epoch = self.epoch.get() + 1;
        assert!(u64::from(epoch) < (1 << EPOCH_BITS), "epoch overflow");
        self.epoch.set(epoch);
        let mut owners = Vec::new();
        for (peer, p) in self.peers.borrow_mut().iter_mut().enumerate() {
            owners.append(&mut p.abandon(1));
            p.rx.abandon_held();
            p.resyncing = peer != self.node;
        }
        let node = self.node;
        self.poison(owners, CommError::EpochReset { node, epoch });
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
        let resyncing = (0..self.port.nodes()).filter(|&p| self.is_resyncing(p));
        for peer in resyncing {
            let link = Rc::clone(self);
            self.ctx.clone().spawn(async move {
                while !link.closed.get() && link.epoch.get() == epoch && link.is_resyncing(peer) {
                    let last_delivered = link.peers.borrow()[peer].rx.delivered();
                    link.stats.borrow_mut().hellos_sent += 1;
                    link.send_control(
                        peer,
                        WireMsg::Hello {
                            epoch,
                            last_delivered,
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
        let (replay, wm) = {
            let p = &mut self.peers.borrow_mut()[src];
            if e < p.epoch {
                self.stats.borrow_mut().stale_discarded += 1;
                return;
            }
            if e > p.epoch {
                p.epoch = e;
                p.rx.abandon_held();
            }
            p.retire(last_delivered);
            let replay: Vec<(u64, WireMsg)> =
                p.tx.iter().map(|(s, p)| (s, p.msg.clone())).collect();
            (replay, p.rx.delivered())
        };
        let epoch = self.epoch.get();
        self.stats.borrow_mut().replayed += replay.len() as u64;
        for (s, msg) in replay {
            self.transmit(src, msg, wire_seq(epoch, s)).await;
        }
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
        let (src, seq) = (pkt.src, pkt.seq);
        if pkt.corrupted || pkt.checksum != wire_checksum(&pkt.message) {
            // Damaged control (and unsequenced data) is dropped; recovery
            // is timer-driven. A damaged sequenced packet is NACKed for an
            // immediate resend.
            if seq != 0 {
                self.stats.borrow_mut().nacks_sent += 1;
                self.send_control(src, WireMsg::LinkNack { seq }).await;
            }
            return Vec::new();
        }
        let mut out = Vec::new();
        match pkt.message {
            WireMsg::LinkAck { seq: echo } | WireMsg::LinkNack { seq: echo }
                if split_seq(echo).0 != self.epoch.get() =>
            {
                // An echo of a dead incarnation's traffic.
                self.stats.borrow_mut().stale_discarded += 1;
            }
            WireMsg::LinkAck { seq: acked } => {
                // Cumulative: the watermark retires every pending entry
                // the receiver has consumed in order.
                self.peers.borrow_mut()[src].retire(split_seq(acked).1);
                self.pump_backlog(src).await;
            }
            WireMsg::LinkNack { seq: nacked } => {
                let s = split_seq(nacked).1;
                let entry = self.peers.borrow()[src].tx.get(s).map(|p| p.msg.clone());
                if let Some(msg) = entry {
                    self.stats.borrow_mut().retransmits += 1;
                    self.transmit(src, msg, nacked).await;
                }
            }
            WireMsg::Hello {
                epoch,
                last_delivered,
            } => self.handle_hello(src, epoch, last_delivered).await,
            WireMsg::HelloAck {
                epoch,
                last_delivered,
            } => {
                if epoch == self.epoch.get() && self.is_resyncing(src) {
                    // Resume numbering where the survivor expects it.
                    {
                        let p = &mut self.peers.borrow_mut()[src];
                        p.resyncing = false;
                        p.tx.reset(last_delivered + 1);
                    }
                    self.stats.borrow_mut().epoch_resyncs += 1;
                    self.pump_backlog(src).await;
                } else {
                    self.stats.borrow_mut().stale_discarded += 1;
                }
            }
            // Unsequenced data only occurs when reliability is off for
            // the sender; deliver as-is (nothing to ACK or dedup).
            message if seq == 0 => out.push(message),
            message => {
                let (e, s) = split_seq(seq);
                let ack = {
                    let p = &mut self.peers.borrow_mut()[src];
                    let mut stats = self.stats.borrow_mut();
                    if e != p.epoch {
                        // A dead incarnation's packet — or a new
                        // incarnation's data racing ahead of its HELLO
                        // under reordering. Discard without ACK; the
                        // sender's timer (and the handshake) heal it.
                        stats.stale_discarded += 1;
                        return out;
                    }
                    let expected = p.rx.delivered() + 1;
                    if s < expected {
                        stats.dups_discarded += 1;
                    } else if s > expected {
                        // Parked until its gap fills — unless a copy is
                        // parked already, or it lies beyond the window and
                        // is dropped: the sender's timer brings it back.
                        stats.held_out_of_order += 1;
                        p.rx.park(s, Some(message));
                    } else {
                        out.push(message);
                        p.rx.advance();
                        out.extend(std::iter::from_fn(|| p.rx.next_ready()));
                    }
                    // ACK everything valid — including duplicates, so the
                    // sender stops retransmitting even if its first ACK
                    // died. Sent *after* delivery bookkeeping: the ACK
                    // carries the in-order watermark, so the sender retires
                    // exactly what has been consumed — an out-of-order hold
                    // stays the sender's responsibility until its gap
                    // fills, which is what makes a receiver crash
                    // recoverable.
                    stats.acks_sent += 1;
                    wire_seq(p.epoch, p.rx.delivered())
                };
                self.send_control(src, WireMsg::LinkAck { seq: ack }).await;
            }
        }
        out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, FlagId};
    use bytes::Bytes;
    use mproxy_des::Simulation;
    use mproxy_simnet::{LinkParams, Network};

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

    #[test]
    fn packet_beyond_the_reorder_window_is_dropped_until_retransmitted() {
        const WINDOW: u64 = LINK_WINDOW as u64;
        let sim = Simulation::new();
        let port = Network::new(&sim.ctx(), 2, LinkParams::new(1.0, 100.0)).adapter(0);
        let link = LinkLayer::new(sim.ctx(), 0, port, Vec::new());
        sim.spawn(async move {
            // Node 1's packet `seq`.
            let feed = |seq: u64| {
                let message = WireMsg::Ack { token: seq };
                let checksum = wire_checksum(&message);
                link.accept(Packet {
                    src: 1,
                    dst: 0,
                    message,
                    payload_bytes: HEADER_ONLY,
                    seq,
                    checksum,
                    corrupted: false,
                })
            };
            // Sequence 1 is lost; the rest of the window parks, and what
            // arrives beyond it — near or absurdly far — is not kept.
            for seq in (2..=WINDOW + 1).chain([SEQ_MASK]) {
                assert!(feed(seq).await.is_empty(), "seq {seq} delivered early");
                assert!(link.peers.borrow()[1].rx.span() <= WINDOW as usize);
            }
            assert_eq!(link.stats().held_out_of_order, WINDOW + 1);
            // The gap fills: exactly the window is released…
            assert_eq!(feed(1).await.len() as u64, WINDOW);
            // …and the sender's retransmission of the dropped packet lands.
            assert_eq!(feed(WINDOW + 1).await.len(), 1);
            assert_eq!(link.snapshot(), (0, vec![(1, 0, WINDOW + 2)]));
        });
        assert!(sim.run().completed_cleanly());
    }
}
