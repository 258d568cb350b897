//! Frame-level protocol cases, driven by hand on a cluster whose proxies
//! have exited: a fresh state per node, built here, is stepped through
//! [`send_data`], [`flush_frames`], [`handle_packet`], [`flush_acks`] and
//! [`retransmit`] with the wire rings carried across by the test and
//! synthetic `now_ns` readings for the clock, so every verdict is
//! deterministic — timers included.
//!
//! This file holds the shared fixtures; the cases live in `tests/`, one
//! file per concern, pasted in with `include!` so every case keeps its
//! name `proxy::tests::<case>`.

use super::*;
use crate::load::SAMPLE_PERIOD_NS;
use crate::state::Lsync;
use crate::wire::{Frame, RTO_NS};
use crate::{RqId, RtClusterBuilder, RtFaultPlan, RQ_DEPTH};
use mproxy_model::fate::Fate;
use std::sync::Arc;

const SRC: usize = 0;
const DST: usize = 1;
const LSYNC: u32 = 5;
/// A synthetic clock reading: ns since cluster start.
const T0: u64 = 1_000;

/// A stopped two-node cluster, one process (asid = node) on each.
fn quiesced() -> Arc<Shared> {
    quiesced_with_owner().0
}

/// [`quiesced`], and the endpoint of `DST`'s process, which owns the
/// queues the tests ENQ to.
fn quiesced_with_owner() -> (Arc<Shared>, crate::Endpoint) {
    let mut b = RtClusterBuilder::new(2);
    b.add_process(SRC, 1 << 12);
    b.add_process(DST, 1 << 12);
    let (cluster, mut eps) = b.start();
    let shared = Arc::clone(&cluster.shared);
    let owner = eps.pop().expect("DST's endpoint");
    drop(eps);
    assert!(cluster.shutdown().clean());
    (shared, owner)
}

fn node_state() -> NodeState {
    NodeState::new(2, 0, None)
}

/// A fresh state of `node` under `plan`, as `start` makes it.
fn node_state_under(plan: &RtFaultPlan, node: usize) -> NodeState {
    NodeState::new(2, 0, plan.split(2).into_iter().nth(node))
}

/// The eight bytes `tag` in `SRC`'s segment, at an offset of their own.
fn tagged(shared: &Shared, tag: u8) -> Source<'_> {
    let seg = &shared.procs[SRC].seg;
    let addr = 8 * u64::from(tag);
    seg.write(addr, &[tag; 8]);
    Source { seg, addr, len: 8 }
}

/// A PUT of [`tagged`] bytes to offset 0 of `DST`'s segment.
fn put(shared: &Shared, tag: u8) -> Payload<Source<'_>> {
    Payload::Put {
        dst: DST as u32,
        raddr: 0,
        data: tagged(shared, tag),
        rsync: None,
    }
}

/// Files a CCB on the source and returns the GET request for it.
fn get_req(st: &mut NodeState) -> Payload<Source<'static>> {
    let token = st.next_token;
    st.next_token += 1;
    let ccb = CcbGet {
        proc: SRC as u32,
        laddr: 64,
        lsync: None,
    };
    st.ccbs.insert(token, ccb);
    Payload::GetReq {
        dst: DST as u32,
        raddr: 0,
        nbytes: 8,
        token,
    }
}

fn flag(shared: &Shared, flag: u32) -> u64 {
    shared.procs[SRC].flags[flag as usize].load(Ordering::Acquire)
}

/// Fills `node`'s wire ring with acks until it refuses one.
fn fill(shared: &Shared, node: usize) {
    let filler = || WireMsg::AckUpto {
        from: node,
        upto: 0,
    };
    while shared.wires[node].try_push(filler()).is_ok() {}
}

/// Empties `node`'s wire ring.
fn drain(shared: &Shared, node: usize) -> Vec<WireMsg> {
    std::iter::from_fn(|| shared.wires[node].try_pop()).collect()
}

/// `n` command queues of process `SRC`, as its proxy's seat holds them,
/// and their producers.
fn queues(n: u32) -> (Vec<spsc::Producer>, Vec<SeatEntry>) {
    (0..n)
        .map(|qbit| {
            let (tx, q) = spsc::channel(CMDQ_DEPTH);
            let asid = SRC as u32;
            (tx, SeatEntry { asid, qbit, q })
        })
        .unzip()
}

/// One command drain over every queue of `seat` on `SRC`.
fn drain_seat(shared: &Shared, st: &mut NodeState, seat: &mut [SeatEntry]) -> bool {
    let ready = AtomicU64::new((1 << seat.len()) - 1);
    drain_commands(shared, st, SRC, T0, seat, &ready)
}

/// An in-bounds command of process `SRC` towards `dst`: 8 bytes from
/// offset 0, to offset 0 or queue `rq`, with sync word `sync`.
fn cmd(op: u32, dst: usize, rq: u64, sync: u64) -> Entry {
    Entry {
        op,
        args: [0, rq, (dst as u64) << 32 | 8, sync],
        t_ns: 0,
    }
}

/// Places taken in queue `rq` of `DST`'s process.
fn claimed(shared: &Shared, rq: usize) -> usize {
    shared.procs[DST].claimed[rq].load(Ordering::Acquire)
}

/// Payloads in queue `rq` of `DST`'s process; `None` while no ENQ has
/// made its ring.
fn queued(shared: &Shared, rq: usize) -> Option<usize> {
    shared.procs[DST].queues[rq].get().map(Ring::len)
}

/// Closes one frame of one PUT towards `DST` under `fate`, leaving it to
/// the next pump.
fn close(shared: &Shared, st: &mut NodeState, tag: u8, fate: Fate) {
    let tx = &mut st.tx[DST];
    let lsync = Lsync {
        flag: None,
        submit_ns: 0,
    };
    assert!(!tx.append(put(shared, tag), lsync));
    assert!(tx.close_frame(T0, fate).is_some());
}

/// Sends one PUT from `src` to `dst` and delivers its frame.
fn deliver(shared: &Shared, src: &mut NodeState, dst: &mut NodeState, tag: u8) {
    send_data(shared, src, SRC, T0, DST, put(shared, tag), None, 0);
    flush_frames(shared, src, SRC, T0);
    let frame = shared.wires[DST].try_pop().expect("the frame");
    assert_eq!(handle_packet(shared, dst, DST, T0, frame), 1);
}

/// Admits one ENQ of `SRC` to queue 0 of `DST` through `seat`, and
/// closes its frame unless `open`.
fn enq(
    shared: &Shared,
    st: &mut NodeState,
    tx: &mut spsc::Producer,
    seat: &mut [SeatEntry],
    open: bool,
) {
    assert!(tx.try_send(cmd(OP_ENQ, DST, 0, 0)));
    assert!(drain_seat(shared, st, seat));
    if !open {
        flush_frames(shared, st, SRC, T0);
    }
}

/// The next frame on `node`'s ring.
fn pop_frame(shared: &Shared, node: usize) -> (u64, Frame) {
    match shared.wires[node].try_pop() {
        Some(WireMsg::Data { seq, body, .. }) => (seq, body),
        other => panic!("expected a data frame, got {other:?}"),
    }
}

/// A copy of data frame `seq` from `SRC`.
fn copy(seq: u64, body: &Frame) -> WireMsg {
    WireMsg::Data {
        from: SRC,
        seq,
        corrupt: false,
        body: Arc::clone(body),
    }
}

include!("tests/wire.rs");
include!("tests/commands.rs");
include!("tests/claims.rs");
include!("tests/load.rs");
