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
//!   reflects exactly what the receiver has *consumed*.
//! * **NACK trigger.** Checksum failures only, for an immediate resend; a
//!   gap (or a packet beyond the reorder window, which is dropped) is
//!   healed by the sender's timer.
//! * **Window.** At most [`LINK_WINDOW`] unacknowledged packets per
//!   destination; overflow parks in a FIFO backlog, promoted as ACKs
//!   free slots, so memory stays O(window) under drop storms — at the
//!   receiver too, whose reorder buffer is as wide.
//! * **Crash.** A proxy crash ([`crate::FaultPlan::crash`]) is a pause,
//!   as a runtime respawn is: every piece of this layer's state survives
//!   it, and the packets it discards from the node's input are ordinary
//!   losses that the senders' timers recover.
//!
//! The layer is engaged only when the cluster is built with a fault plan
//! ([`crate::Cluster::new_with_faults`]); fault-free clusters take the
//! direct send path, so reliability costs a run that does not ask for it
//! nothing. Failures surface by [`poison_proc`].

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

/// Payload bytes the wire serialises for a protocol message: none. The
/// engines charge payload movement themselves — PIO per line, or
/// `DmaEngine::transfer` for large blocks — so the wire carries (and
/// times) the header only. Passed at the two `NetPort` boundaries,
/// [`send_wire`] and [`LinkLayer::transmit`], and nowhere else.
const HEADER_ONLY: u32 = 0;

/// Marks `ps` as failed with `err`. The discrete-event executor has no
/// cancellation, so a failed process is *poisoned*: its [`CommError`] is
/// recorded (first error wins), every synchronisation-flag counter is
/// bumped past any realistic target and its receive queues are closed, to
/// wake its waiters and pollers. Waiters using [`crate::Proc::wait_flag_result`]
/// observe the error; plain waits panic with it rather than deadlock.
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
    ps.watch.touch();
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

/// One node's reliable-link state digest: per peer and sorted by peer,
/// `(peer, last sequence sent, next expected)`. Compared across repeat
/// runs by the crash-recovery determinism checks.
pub type LinkSnapshot = Vec<(NodeId, u64, u64)>;

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
    /// Packets a proxy crash discarded from the node's input before this
    /// layer accepted them; the senders' timers recover each.
    pub crash_dropped: u64,
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
    /// Un-ACKed sends towards the peer, at most the window.
    tx: Retention<Pending>,
    /// FIFO of sends awaiting a window slot, not yet assigned a sequence
    /// number.
    backlog: VecDeque<Pending>,
    /// In-order watermark and reorder buffer of the peer's stream.
    rx: Reorder<WireMsg>,
}

impl PeerLink {
    /// Abandons everything queued towards the peer — the retransmit
    /// buffer (timers disarmed) and the backlog — without renumbering.
    /// Returns the owner of each abandoned send.
    fn abandon(&mut self) -> Vec<Option<ProcId>> {
        let pending = self.tx.reset(self.tx.last() + 1).into_iter();
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
    port: NetPort<WireMsg>,
    procs: Vec<Rc<ProcState>>,
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
        port: NetPort<WireMsg>,
        procs: Vec<Rc<ProcState>>,
    ) -> Rc<LinkLayer> {
        let peers = (0..port.nodes())
            .map(|_| PeerLink {
                tx: Retention::new(),
                backlog: VecDeque::new(),
                rx: Reorder::new(LINK_WINDOW),
            })
            .collect();
        Rc::new(LinkLayer {
            ctx,
            port,
            procs,
            peers: RefCell::new(peers),
            stats: RefCell::new(LinkStats::default()),
            closed: Cell::new(false),
        })
    }

    pub(crate) fn stats(&self) -> LinkStats {
        *self.stats.borrow()
    }

    /// Counts `n` packets a proxy crash discarded from the node's input.
    pub(crate) fn count_crash_drops(&self, n: u64) {
        self.stats.borrow_mut().crash_dropped += n;
    }

    /// Per peer this node has exchanged sequenced traffic with, the last
    /// sequence sent and the next expected — in peer order, for
    /// byte-stable determinism checks.
    pub(crate) fn snapshot(&self) -> LinkSnapshot {
        let peers = self.peers.borrow();
        peers
            .iter()
            .enumerate()
            .map(|(p, l)| (p, l.tx.last(), l.rx.delivered() + 1))
            .filter(|&(_, last, expected)| last > 0 || expected > 1)
            .collect()
    }

    /// Sends `msg` under reliable delivery. If the window towards `dst`
    /// has a free slot, the message
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
            self.transmit(dst, p.msg, seq).await;
            return;
        }
        {
            let p = &mut self.peers.borrow_mut()[dst];
            if !p.backlog.is_empty() || p.tx.len() >= LINK_WINDOW {
                self.stats.borrow_mut().backlogged += 1;
                p.backlog.push_back(send);
                return;
            }
        }
        self.transmit_new(dst, send).await;
    }

    /// Puts `msg` on the wire under sequence `seq` (0 for unsequenced
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
        self.transmit(dst, msg, seq).await;
        self.arm_retransmit_loop(dst, seq);
    }

    /// Promotes parked sends towards `dst` while window slots are free.
    async fn pump_backlog(self: &Rc<Self>, dst: NodeId) {
        loop {
            let next = {
                let p = &mut self.peers.borrow_mut()[dst];
                if p.tx.len() >= LINK_WINDOW {
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
    /// mostly-healthy network. [`LinkLayer::give_up`] and
    /// [`LinkLayer::quiesce`] cancel every timer, ending the loop the same
    /// way.
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
                    // Acknowledged (or given up on, or quiesced); the entry
                    // is gone.
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
                link.transmit(dst, msg, seq).await;
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
        let owners = self.peers.borrow_mut()[dst].abandon();
        self.stats.borrow_mut().unreachable += owners.len() as u64;
        for o in owners.into_iter().flatten() {
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
    /// gone). Draining the buffers and cancelling every retransmission
    /// timer ends the retry loops at this very instant instead of letting
    /// them retransmit into closed engines until they declare the node
    /// unreachable.
    pub(crate) fn quiesce(&self) {
        self.closed.set(true);
        for p in self.peers.borrow_mut().iter_mut() {
            p.abandon();
            p.rx.abandon_held();
        }
    }

    /// Sends unsequenced control traffic (ACK/NACK). Not retransmitted
    /// here: a lost ACK is healed by the peer's timer plus our duplicate
    /// re-ACK; a lost NACK by the peer's timer alone.
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
            WireMsg::LinkAck { seq: acked } => {
                // Cumulative: the watermark retires every pending entry
                // the receiver has consumed in order.
                self.peers.borrow_mut()[src].retire(acked);
                self.pump_backlog(src).await;
            }
            WireMsg::LinkNack { seq: nacked } => {
                let entry = self.peers.borrow()[src]
                    .tx
                    .get(nacked)
                    .map(|p| p.msg.clone());
                if let Some(msg) = entry {
                    self.stats.borrow_mut().retransmits += 1;
                    self.transmit(src, msg, nacked).await;
                }
            }
            // Unsequenced data only occurs when reliability is off for
            // the sender; deliver as-is (nothing to ACK or dedup).
            message if seq == 0 => out.push(message),
            message => {
                let ack = {
                    let p = &mut self.peers.borrow_mut()[src];
                    let mut stats = self.stats.borrow_mut();
                    let expected = p.rx.delivered() + 1;
                    if seq < expected {
                        stats.dups_discarded += 1;
                    } else if seq > expected {
                        // Parked until its gap fills — unless a copy is
                        // parked already, or it lies beyond the window and
                        // is dropped: the sender's timer brings it back.
                        stats.held_out_of_order += 1;
                        p.rx.park(seq, Some(message));
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
                    // fills.
                    stats.acks_sent += 1;
                    p.rx.delivered()
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
        let link = LinkLayer::new(sim.ctx(), port, Vec::new());
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
            for seq in (2..=WINDOW + 1).chain([u64::MAX]) {
                assert!(feed(seq).await.is_empty(), "seq {seq} delivered early");
                assert!(link.peers.borrow()[1].rx.span() <= WINDOW as usize);
            }
            assert_eq!(link.stats().held_out_of_order, WINDOW + 1);
            // The gap fills: exactly the window is released…
            assert_eq!(feed(1).await.len() as u64, WINDOW);
            // …and the sender's retransmission of the dropped packet lands.
            assert_eq!(feed(WINDOW + 1).await.len(), 1);
            assert_eq!(link.snapshot(), vec![(1, 0, WINDOW + 2)]);
        });
        assert!(sim.run().completed_cleanly());
    }
}
