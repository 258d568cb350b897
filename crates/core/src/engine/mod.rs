//! The protected-communication engine.
//!
//! Section 2's three architectures — message proxies, custom hardware,
//! system-level communication — run the same RMA + RQ protocol over the
//! same simulated network; they differ in *where* protocol work runs and
//! *what* each step costs, exactly as Figure 2 contrasts. So the protocol
//! is written once ([`protocol`]), priced from a per-design-point table
//! ([`costs`]) and placed on processors by one of two drivers
//! ([`drivers`]); [`reliable`] is the link layer underneath.

pub(crate) mod costs;
pub(crate) mod drivers;
pub(crate) mod protocol;
pub(crate) mod reliable;

use bytes::Bytes;
use mproxy_des::{Channel, Counter, Dur};
use mproxy_simnet::{NetPort, Packet};

use crate::addr::{Addr, FlagId, ProcId, RemoteQueue, RqId};
use crate::cluster::{ClusterState, NodeState, ProcState};

/// Cache-line granularity used to charge per-line PIO costs.
pub(crate) const LINE_BYTES: u32 = 64;

/// PUT/ENQ payloads at or below this size are copied into the command
/// queue entry at submission time (as real proxy queue entries hold their
/// operands inline), so the source buffer may be reused immediately.
/// Larger transfers stay zero-copy: the engine reads the source when it
/// services the command.
pub(crate) const INLINE_BYTES: u32 = 240;

/// How long a DEQ that found its queue empty waits before probing again.
/// A DEQ blocks until data arrives, so it re-probes for as long as it
/// takes.
pub(crate) const DEQ_REPROBE: Dur = Dur::from_ns(10_000);

/// Number of 64-byte lines touched by an `nbytes` transfer.
pub(crate) fn lines(nbytes: u32) -> u32 {
    nbytes.div_ceil(LINE_BYTES).max(1)
}

/// A user command as it enters an engine.
#[derive(Debug, Clone)]
pub(crate) enum Command {
    Put {
        src: ProcId,
        dst: ProcId,
        laddr: Addr,
        raddr: Addr,
        nbytes: u32,
        lsync: Option<FlagId>,
        rsync: Option<FlagId>,
        /// Payload captured at submission for small transfers.
        inline: Option<Bytes>,
    },
    Get {
        src: ProcId,
        dst: ProcId,
        laddr: Addr,
        raddr: Addr,
        nbytes: u32,
        lsync: Option<FlagId>,
        rsync: Option<FlagId>,
    },
    Enq {
        src: ProcId,
        dst: ProcId,
        rq: RqId,
        laddr: Addr,
        nbytes: u32,
        lsync: Option<FlagId>,
        rsync: Option<FlagId>,
        /// Payload captured at submission for small transfers.
        inline: Option<Bytes>,
    },
    Deq {
        src: ProcId,
        dst: ProcId,
        rq: RqId,
        laddr: Addr,
        nbytes: u32,
        lsync: Option<FlagId>,
    },
}

impl Command {
    pub(crate) fn src(&self) -> ProcId {
        match self {
            Command::Put { src, .. }
            | Command::Get { src, .. }
            | Command::Enq { src, .. }
            | Command::Deq { src, .. } => *src,
        }
    }
}

/// Wire messages exchanged between nodes.
#[derive(Debug, Clone, Hash)]
pub(crate) enum WireMsg {
    PutData {
        dst: ProcId,
        raddr: Addr,
        data: Bytes,
        rsync: Option<FlagId>,
        ack: Option<(usize, u64)>, // (origin node, token)
        dma: bool,
    },
    GetReq {
        dst: ProcId,
        raddr: Addr,
        nbytes: u32,
        rsync: Option<FlagId>,
        origin: usize,
        token: u64,
        dma: bool,
    },
    GetReply {
        token: u64,
        data: Bytes,
        dma: bool,
    },
    EnqData {
        dst: ProcId,
        rq: RqId,
        data: Bytes,
        rsync: Option<FlagId>,
        ack: Option<(usize, u64)>,
    },
    DeqReq {
        dst: ProcId,
        rq: RqId,
        nbytes: u32,
        origin: usize,
        token: u64,
    },
    DeqReply {
        token: u64,
        data: Option<Bytes>,
    },
    Ack {
        token: u64,
    },
    /// Link-layer acknowledgement of sequenced packet `seq` (only present
    /// when reliable delivery is engaged).
    LinkAck {
        seq: u64,
    },
    /// Link-layer retransmission request for packet `seq` (checksum or
    /// corruption failure at the receiver).
    LinkNack {
        seq: u64,
    },
    /// Epoch-resync request from a proxy that crashed and restarted:
    /// announces the restarted node's new epoch and the highest in-order
    /// sequence it had delivered *from* the receiver before the crash, so
    /// the receiver can prune its retransmit buffer and replay the rest.
    Hello {
        epoch: u32,
        last_delivered: u64,
    },
    /// Epoch-resync acknowledgement from a survivor: echoes the epoch and
    /// reports the highest sequence it delivered *from* the restarted
    /// node, so the restarted node resumes numbering where the survivor
    /// expects it.
    HelloAck {
        epoch: u32,
        last_delivered: u64,
    },
}

/// Input stream of a node's serial agent: user commands multiplexed with
/// arriving packets (the Figure 5 loop polls both).
#[derive(Debug)]
pub(crate) enum ProxyInput {
    /// A user command and its submission instant (for queueing-delay
    /// statistics against the §5.4 contention model).
    Cmd(Command, mproxy_des::SimTime),
    Pkt(Packet<WireMsg>),
    /// Re-probe a remote queue for a pending DEQ.
    RetryDeq(u64),
}

/// Communication control block: per-node state of an outstanding
/// operation awaiting a reply (Section 4's CCB).
#[derive(Debug, Clone)]
pub(crate) enum Ccb {
    Get {
        proc: ProcId,
        laddr: Addr,
        lsync: Option<FlagId>,
    },
    PutAck {
        proc: ProcId,
        lsync: Option<FlagId>,
    },
    Deq {
        proc: ProcId,
        laddr: Addr,
        lsync: Option<FlagId>,
        target: RemoteQueue,
        nbytes: u32,
    },
}

/// Forwards packets from a node's adapter input FIFO into the proxy's
/// merged input channel.
pub(crate) async fn forward_rx(port: NetPort<WireMsg>, input: Channel<ProxyInput>) {
    while let Some(pkt) = port.recv().await {
        if input.try_send(ProxyInput::Pkt(pkt)).is_err() {
            break;
        }
    }
}

/// Lazily grown flag counter of `proc` (flag slots are deterministic, so
/// peers may name a slot before its owner first touches it). Counters
/// created after the process was poisoned are pre-bumped so waiters wake.
pub(crate) fn flag_counter(ps: &ProcState, id: FlagId) -> Counter {
    let poisoned = ps.comm_error.borrow().is_some();
    let mut flags = ps.flags.borrow_mut();
    while flags.len() <= id.0 as usize {
        let c = Counter::new();
        if poisoned {
            c.add(reliable::POISON_BUMP);
        }
        flags.push(c);
    }
    flags[id.0 as usize].clone()
}

/// Lazily grown remote-queue channel of `proc`. Channels created after
/// the process was poisoned start closed.
pub(crate) fn queue_channel(ps: &ProcState, id: RqId) -> Channel<Bytes> {
    let poisoned = ps.comm_error.borrow().is_some();
    let mut queues = ps.queues.borrow_mut();
    while queues.len() <= id.0 as usize {
        let q: Channel<Bytes> = Channel::unbounded();
        if poisoned {
            q.close();
        }
        queues.push(q);
    }
    queues[id.0 as usize].clone()
}

/// Sets flag `id` of process `proc`.
pub(crate) fn set_flag(cs: &ClusterState, proc: ProcId, id: FlagId) {
    flag_counter(cs.proc(proc), id).incr();
}

/// Reads `nbytes` at `addr` from `proc`'s memory.
pub(crate) fn read_mem(cs: &ClusterState, proc: ProcId, addr: Addr, nbytes: u32) -> Bytes {
    cs.proc(proc).mem.borrow().read(addr, nbytes)
}

/// Writes `data` at `addr` into `proc`'s memory.
pub(crate) fn write_mem(cs: &ClusterState, proc: ProcId, addr: Addr, data: &[u8]) {
    cs.proc(proc).mem.borrow_mut().write(addr, data);
}

/// Charges `us` microseconds of wall time to the calling task.
pub(crate) async fn charge(cs: &ClusterState, us: f64) {
    cs.ctx.delay(Dur::from_us(us)).await;
}

/// Measures the busy time of `node`'s engine around a handler body.
pub(crate) struct BusyScope<'a> {
    node: &'a NodeState,
    cs: &'a ClusterState,
    start: mproxy_des::SimTime,
}

impl<'a> BusyScope<'a> {
    pub(crate) fn begin(node: &'a NodeState, cs: &'a ClusterState) -> Self {
        BusyScope {
            node,
            cs,
            start: cs.ctx.now(),
        }
    }
}

impl Drop for BusyScope<'_> {
    fn drop(&mut self) {
        self.node.add_busy(self.cs.ctx.now().since(self.start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_counting() {
        assert_eq!(lines(0), 1);
        assert_eq!(lines(1), 1);
        assert_eq!(lines(64), 1);
        assert_eq!(lines(65), 2);
        assert_eq!(lines(4096), 64);
    }
}
