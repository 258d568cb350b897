//! Where the protocol handlers run.
//!
//! Two drivers put [`super::protocol`] onto processors:
//!
//! * [`agent_main`] — one serial agent per node, fed by the merged input
//!   of user commands and arriving packets. It is the message proxy on
//!   its dedicated processor (the Figure 5 loop: strictly polling, no
//!   interrupts anywhere) and, unchanged, the protocol engine of a
//!   custom-hardware adapter. A re-probe goes back into the agent's own
//!   input after its backoff, burning no agent time in between.
//! * [`trap`] + [`interrupt_main`] — system-level communication. A
//!   submission crosses into the kernel on the *caller's* compute
//!   processor; each arrival raises an interrupt that steals the compute
//!   processor of the process it concerns — the reason the paper finds
//!   37–100% slowdowns on latency-bound applications despite its very
//!   aggressive 6.5 µs syscall/interrupt assumption. A re-probe is a
//!   kernel timer that re-issues the request on no process's processor.

use std::rc::Rc;

use mproxy_des::{Dur, SimTime};
use mproxy_simnet::CrashWindow;

use crate::addr::ProcId;
use crate::cluster::{ClusterState, NodeState};
use crate::engine::protocol::{handle_command, handle_packet, retry_deq};
use crate::engine::reliable::poison_proc;
use crate::engine::{BusyScope, Ccb, Command, ProxyInput, WireMsg, DEQ_REPROBE};
use crate::error::CommError;

/// The per-node agent loop: message proxy or adapter protocol engine.
pub(crate) async fn agent_main(node: Rc<NodeState>, cs: Rc<ClusterState>) {
    let input = node.proxy_input.clone();
    while let Some(ev) = input.recv().await {
        // A stalled agent stops servicing (and acknowledging) everything
        // until its window ends; input keeps queueing meanwhile.
        stall_gate(&node, &cs).await;
        let busy = BusyScope::begin(&node, &cs);
        match ev {
            ProxyInput::Cmd(cmd, submitted) => {
                // Service start: record the queueing delay and hand the
                // submitter's flow-control credit back.
                node.record_cmd_wait(cs.ctx.now().since(submitted));
                if let Some(c) = &cs.proc(cmd.src()).credits {
                    let _ = c.try_send(());
                }
                handle_command(&node, &cs, cmd).await;
            }
            ProxyInput::Pkt(pkt) => match node.link.clone() {
                Some(link) => {
                    for msg in link.accept(pkt).await {
                        serve_packet(&node, &cs, msg).await;
                    }
                }
                None => serve_packet(&node, &cs, pkt.message).await,
            },
            ProxyInput::RetryDeq(token) => retry_deq(&node, &cs, token).await,
        }
        drop(busy);
    }
}

/// Runs the packet handler on the agent and queues the re-probe tick an
/// empty DEQ reply asks for.
async fn serve_packet(node: &NodeState, cs: &ClusterState, msg: WireMsg) {
    if let Some(token) = handle_packet(node, cs, msg).await {
        let ctx = cs.ctx.clone();
        let input = node.proxy_input.clone();
        cs.ctx.spawn(async move {
            ctx.delay(DEQ_REPROBE).await;
            let _ = input.try_send(ProxyInput::RetryDeq(token));
        });
    }
}

/// System-call submission: `src` traps into the kernel and runs the
/// sending half of the protocol on its own compute processor.
pub(crate) async fn trap(cs: &ClusterState, src: ProcId, cmd: Command) {
    let guard = cs.proc(src).cpu.acquire().await;
    handle_command(cs.node_of(src), cs, cmd).await;
    drop(guard);
}

/// Per-node receive dispatcher of the system-call architecture: every
/// arriving message raises an interrupt of its own.
pub(crate) async fn interrupt_main(node: Rc<NodeState>, cs: Rc<ClusterState>) {
    let raise = |msg| {
        let (node, cs) = (Rc::clone(&node), Rc::clone(&cs));
        cs.ctx
            .clone()
            .spawn(async move { handle_interrupt(&node, &cs, msg).await });
    };
    while let Some(pkt) = node.port.recv().await {
        // A stalled node's kernel services no interrupts until the window
        // ends; arrivals keep queueing in the FIFO.
        stall_gate(&node, &cs).await;
        match node.link.clone() {
            Some(link) => link.accept(pkt).await.into_iter().for_each(raise),
            None => raise(pkt.message),
        }
    }
}

/// Which process's CPU takes the interrupt for a message.
fn target_proc(node: &NodeState, msg: &WireMsg) -> Option<ProcId> {
    match msg {
        WireMsg::PutData { dst, .. }
        | WireMsg::GetReq { dst, .. }
        | WireMsg::EnqData { dst, .. }
        | WireMsg::DeqReq { dst, .. } => Some(*dst),
        WireMsg::GetReply { token, .. }
        | WireMsg::DeqReply { token, .. }
        | WireMsg::Ack { token } => match node.ccbs.borrow().get(token) {
            Some(Ccb::Get { proc, .. })
            | Some(Ccb::PutAck { proc, .. })
            | Some(Ccb::Deq { proc, .. }) => Some(*proc),
            None => None,
        },
        // Consumed by the link layer before dispatch.
        WireMsg::LinkAck { .. }
        | WireMsg::LinkNack { .. }
        | WireMsg::Hello { .. }
        | WireMsg::HelloAck { .. } => None,
    }
}

async fn handle_interrupt(node: &Rc<NodeState>, cs: &Rc<ClusterState>, msg: WireMsg) {
    let Some(proc) = target_proc(node, &msg) else {
        // A reply whose CCB a crash wiped has no process to interrupt.
        debug_assert!(cs.crashes_possible, "interrupt for unknown CCB");
        return;
    };
    // Steal the target's compute processor for the handler. The busy time
    // is also accounted as communication-interface work for reporting.
    let guard = cs.proc(proc).cpu.acquire().await;
    let busy = BusyScope::begin(node, cs);
    if let Some(token) = handle_packet(node, cs, msg).await {
        let (node, cs) = (Rc::clone(node), Rc::clone(cs));
        cs.ctx.clone().spawn(async move {
            cs.ctx.delay(DEQ_REPROBE).await;
            retry_deq(&node, &cs, token).await;
        });
    }
    drop(busy);
    drop(guard);
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
/// layer [`crash`]es (volatile state lost, epoch bumped) and the proxy's
/// in-memory work is wiped — queued commands fail their submitters with
/// [`CommError::EpochReset`], queued packets vanish (the senders'
/// retransmit timers re-deliver them), and every outstanding CCB fails
/// its owner (its reply can no longer be matched). The engine task itself
/// is frozen across the window by [`stall_gate`]; at `restart_us` the
/// link layer [`restart`]s and opens the HELLO handshake.
///
/// [`crash`]: crate::engine::reliable::LinkLayer::crash
/// [`restart`]: crate::engine::reliable::LinkLayer::restart
pub(crate) async fn crash_driver(cs: Rc<ClusterState>, node: usize, windows: Vec<CrashWindow>) {
    for w in windows {
        cs.ctx
            .delay_until(SimTime::ZERO + Dur::from_us(w.at_us))
            .await;
        let ns = &cs.nodes[node];
        let Some(link) = &ns.link else { return };
        let epoch = link.crash();
        while let Some(input) = ns.proxy_input.try_recv() {
            match input {
                ProxyInput::Cmd(cmd, _) => {
                    poison_proc(cs.proc(cmd.src()), CommError::EpochReset { node, epoch })
                }
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
