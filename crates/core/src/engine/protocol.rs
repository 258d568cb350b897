//! The RMA + RQ protocol, written once for all three architectures.
//!
//! [`handle_command`] is the sending half (PUT / GET / ENQ / DEQ leave the
//! node), [`handle_packet`] the receiving half (requests are applied and
//! answered, replies complete their CCB), [`retry_deq`] the re-probe of a
//! DEQ that found its queue empty. Every step charges simulated time from
//! the cluster's [`StepCosts`](super::costs::StepCosts) table; a step the
//! architecture lacks is `None` there and costs neither time nor an event
//! here. Nothing in this file knows which architecture it serves: *where*
//! the handlers run (a serial agent, or the caller's and the target's own
//! compute processors) is the business of [`super::drivers`], and so is
//! how to wait out the [`DEQ_REPROBE`](super::DEQ_REPROBE) an empty DEQ
//! reply asks for.
//!
//! The implementation properties Section 4 calls out hold here: the
//! handlers never block on anything but their own charged time and the
//! wire (**strictly polling**, **forward progress**), command queues are
//! single-producer single-consumer (**lock-free**), and data moves source
//! buffer → FIFO → destination buffer (**zero-copy**).

use bytes::Bytes;

use crate::addr::{Addr, FlagId, ProcId, RemoteQueue};
use crate::cluster::{ClusterState, NodeState};
use crate::engine::costs::StepCost;
use crate::engine::reliable::send_wire;
use crate::engine::{
    charge, lines, queue_channel, read_mem, set_flag, write_mem, Ccb, Command, WireMsg,
};

/// Charges one table step over `units` lines. An absent step returns at
/// once: no time, no event.
async fn step(cs: &ClusterState, cost: impl Into<Option<StepCost>>, units: u32) {
    if let Some(c) = cost.into() {
        charge(cs, c.us(units)).await;
    }
}

/// Moves `nbytes` out through the adapter: pinned DMA for large blocks
/// (the engine's time, pin and unpin included), per-line PIO otherwise.
async fn data_out(node: &NodeState, cs: &ClusterState, nbytes: u32, dma: bool) {
    if dma {
        node.dma.transfer(nbytes).await;
    } else {
        step(cs, cs.costs.data_out, lines(nbytes)).await;
    }
}

/// Receives `nbytes` into memory. A DMA-sized block streams concurrently
/// with the wire, so the handler pays at most the dynamic pin/unpin; small
/// blocks are stored per line.
async fn data_in(cs: &ClusterState, nbytes: u32, dma: bool) {
    if dma {
        let pages = nbytes.div_ceil(cs.design().page_bytes);
        step(cs, cs.costs.rx_dma_pin, pages).await;
    } else {
        step(cs, cs.costs.data_in, lines(nbytes)).await;
    }
}

/// Header, payload, launch: the sending side of a PUT or ENQ. Returns the
/// payload (captured at submission for small transfers, read now for
/// large ones).
async fn send_payload(
    node: &NodeState,
    cs: &ClusterState,
    src: ProcId,
    laddr: Addr,
    nbytes: u32,
    inline: Option<Bytes>,
    dma: bool,
) -> Bytes {
    step(cs, cs.costs.header, 0).await;
    let data = inline.unwrap_or_else(|| read_mem(cs, src, laddr, nbytes));
    data_out(node, cs, nbytes, dma).await;
    step(cs, cs.costs.launch, 0).await;
    data
}

/// Files the CCB that will complete `lsync` when the PUT/ENQ is
/// acknowledged; without an `lsync` no acknowledgement is requested.
fn ack_ccb(node: &NodeState, src: ProcId, lsync: Option<FlagId>) -> Option<(usize, u64)> {
    lsync.map(|_| {
        let token = node.new_token();
        node.ccbs
            .borrow_mut()
            .insert(token, Ccb::PutAck { proc: src, lsync });
        (node.id, token)
    })
}

/// Builds a data-less GET/DEQ request and files `ccb` for its reply.
async fn file_request(node: &NodeState, cs: &ClusterState, ccb: Ccb) -> u64 {
    step(cs, cs.costs.request_build, 0).await;
    let token = node.new_token();
    node.ccbs.borrow_mut().insert(token, ccb);
    step(cs, cs.costs.request_launch, 0).await;
    token
}

/// Sets `flag` (an `rsync` or `lsync`) of `proc`, if one was named.
async fn signal(cs: &ClusterState, proc: ProcId, flag: Option<FlagId>) {
    if let Some(f) = flag {
        step(cs, cs.costs.flag_set, 0).await;
        set_flag(cs, proc, f);
    }
}

/// Acknowledges a delivered PUT/ENQ to its origin, if it asked.
async fn acknowledge(node: &NodeState, cs: &ClusterState, ack: Option<(usize, u64)>) {
    if let Some((origin, token)) = ack {
        step(cs, cs.costs.ack_build, 0).await;
        send_wire(node, origin, WireMsg::Ack { token }, None).await;
    }
}

/// After a crash wiped the CCB table, a reply to a pre-crash request is
/// an expected orphan; otherwise a missing CCB is a protocol bug.
fn orphan(cs: &ClusterState, what: &str) {
    debug_assert!(cs.crashes_possible, "{what} with no matching CCB");
}

/// Services one user command.
pub(crate) async fn handle_command(node: &NodeState, cs: &ClusterState, cmd: Command) {
    step(cs, cs.costs.cmd_dispatch, 0).await;
    let pio_max = cs.design().pio_threshold_bytes;
    match cmd {
        Command::Put {
            src,
            dst,
            laddr,
            raddr,
            nbytes,
            lsync,
            rsync,
            inline,
        } => {
            let dma = nbytes > pio_max;
            let data = send_payload(node, cs, src, laddr, nbytes, inline, dma).await;
            let msg = WireMsg::PutData {
                dst,
                raddr,
                data,
                rsync,
                ack: ack_ccb(node, src, lsync),
                dma,
            };
            send_wire(node, cs.proc(dst).node, msg, Some(src)).await;
        }
        Command::Get {
            src,
            dst,
            laddr,
            raddr,
            nbytes,
            lsync,
            rsync,
        } => {
            let ccb = Ccb::Get {
                proc: src,
                laddr,
                lsync,
            };
            let token = file_request(node, cs, ccb).await;
            let msg = WireMsg::GetReq {
                dst,
                raddr,
                nbytes,
                rsync,
                origin: node.id,
                token,
                dma: nbytes > pio_max,
            };
            send_wire(node, cs.proc(dst).node, msg, Some(src)).await;
        }
        Command::Enq {
            src,
            dst,
            rq,
            laddr,
            nbytes,
            lsync,
            rsync,
            inline,
        } => {
            let data = send_payload(node, cs, src, laddr, nbytes, inline, false).await;
            let msg = WireMsg::EnqData {
                dst,
                rq,
                data,
                rsync,
                ack: ack_ccb(node, src, lsync),
            };
            send_wire(node, cs.proc(dst).node, msg, Some(src)).await;
        }
        Command::Deq {
            src,
            dst,
            rq,
            laddr,
            nbytes,
            lsync,
        } => {
            let ccb = Ccb::Deq {
                proc: src,
                laddr,
                lsync,
                target: RemoteQueue { proc: dst, rq },
                nbytes,
            };
            let token = file_request(node, cs, ccb).await;
            let msg = WireMsg::DeqReq {
                dst,
                rq,
                nbytes,
                origin: node.id,
                token,
            };
            send_wire(node, cs.proc(dst).node, msg, Some(src)).await;
        }
    }
}

/// Services one arriving protocol message. Returns the token of the DEQ
/// to re-probe after [`DEQ_REPROBE`](super::DEQ_REPROBE) when the message
/// was an empty DEQ reply.
pub(crate) async fn handle_packet(
    node: &NodeState,
    cs: &ClusterState,
    msg: WireMsg,
) -> Option<u64> {
    let t = &cs.costs;
    step(cs, t.pkt_dispatch, 0).await;
    match msg {
        WireMsg::PutData {
            dst,
            raddr,
            data,
            rsync,
            ack,
            dma,
        } => {
            step(cs, t.check_attach, 0).await;
            data_in(cs, data.len() as u32, dma).await;
            write_mem(cs, dst, raddr, &data);
            signal(cs, dst, rsync).await;
            acknowledge(node, cs, ack).await;
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
            step(cs, t.check_attach, 0).await;
            step(cs, t.reply_header, 0).await;
            let data = read_mem(cs, dst, raddr, nbytes);
            data_out(node, cs, nbytes, dma).await;
            signal(cs, dst, rsync).await;
            step(cs, t.launch, 0).await;
            send_wire(node, origin, WireMsg::GetReply { token, data, dma }, None).await;
        }
        WireMsg::GetReply { token, data, dma } => {
            step(cs, t.ccb_lookup, 0).await;
            let ccb = node.ccbs.borrow_mut().remove(&token);
            let Some(Ccb::Get { proc, laddr, lsync }) = ccb else {
                orphan(cs, "GetReply");
                return None;
            };
            data_in(cs, data.len() as u32, dma).await;
            write_mem(cs, proc, laddr, &data);
            signal(cs, proc, lsync).await;
        }
        WireMsg::EnqData {
            dst,
            rq,
            data,
            rsync,
            ack,
        } => {
            step(cs, t.check_attach, 0).await;
            step(cs, t.enq_in, lines(data.len() as u32)).await;
            step(cs, t.queue_update, 0).await;
            let _ = queue_channel(cs.proc(dst), rq).try_send(data);
            signal(cs, dst, rsync).await;
            acknowledge(node, cs, ack).await;
        }
        WireMsg::DeqReq {
            dst,
            rq,
            nbytes,
            origin,
            token,
        } => {
            step(cs, t.check_attach, 0).await;
            let data = queue_channel(cs.proc(dst), rq).try_recv();
            match &data {
                Some(d) => {
                    step(cs, t.queue_update, 0).await;
                    step(cs, t.reply_header, 0).await;
                    step(cs, t.deq_out, lines(nbytes.min(d.len() as u32))).await;
                    step(cs, t.launch, 0).await;
                }
                None => step(cs, t.deq_empty_reply, 0).await,
            }
            send_wire(node, origin, WireMsg::DeqReply { token, data }, None).await;
        }
        WireMsg::DeqReply { token, data } => {
            step(cs, t.ccb_lookup, 0).await;
            let Some(data) = data else {
                // Empty: probe again, unless a crash wiped the CCB.
                let filed = matches!(node.ccbs.borrow().get(&token), Some(Ccb::Deq { .. }));
                return filed.then_some(token);
            };
            let ccb = node.ccbs.borrow_mut().remove(&token);
            let Some(Ccb::Deq {
                proc,
                laddr,
                lsync,
                nbytes,
                ..
            }) = ccb
            else {
                orphan(cs, "DeqReply");
                return None;
            };
            let take = (data.len() as u32).min(nbytes);
            data_in(cs, take, false).await;
            write_mem(cs, proc, laddr, &data[..take as usize]);
            signal(cs, proc, lsync).await;
        }
        WireMsg::Ack { token } => {
            step(cs, t.ack_lookup, 0).await;
            let ccb = node.ccbs.borrow_mut().remove(&token);
            let Some(Ccb::PutAck { proc, lsync }) = ccb else {
                orphan(cs, "Ack");
                return None;
            };
            signal(cs, proc, lsync).await;
        }
        // Link-layer control never reaches the protocol handlers: it is
        // consumed by `LinkLayer::accept`, and without a link layer it is
        // never sent.
        WireMsg::LinkAck { .. }
        | WireMsg::LinkNack { .. }
        | WireMsg::Hello { .. }
        | WireMsg::HelloAck { .. } => {
            debug_assert!(false, "link control leaked into protocol handler");
        }
    }
    None
}

/// Re-issues the request of the DEQ filed under `token`, unless it has
/// been completed or wiped meanwhile.
pub(crate) async fn retry_deq(node: &NodeState, cs: &ClusterState, token: u64) {
    let Some(Ccb::Deq {
        proc,
        target,
        nbytes,
        ..
    }) = node.ccbs.borrow().get(&token).cloned()
    else {
        return;
    };
    step(cs, cs.costs.deq_reprobe, 0).await;
    let msg = WireMsg::DeqReq {
        dst: target.proc,
        rq: target.rq,
        nbytes,
        origin: node.id,
        token,
    };
    send_wire(node, cs.proc(target.proc).node, msg, Some(proc)).await;
}
