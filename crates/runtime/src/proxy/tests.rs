//! Frame-level protocol cases, driven by hand on a cluster whose proxies
//! have exited: a fresh state per node, built here, is stepped through
//! [`send_data`], [`flush_frames`], [`handle_packet`] and [`flush_acks`]
//! with the wire rings carried across by the test, so every verdict is
//! deterministic.

use super::*;
use crate::RtClusterBuilder;
use std::sync::Arc;

const SRC: usize = 0;
const DST: usize = 1;
const LSYNC: u32 = 5;

/// A stopped two-node cluster, one process (asid = node) on each.
fn quiesced() -> Arc<Shared> {
    quiesced_under(crate::RtFaultPlan::new(0))
}

fn quiesced_under(plan: crate::RtFaultPlan) -> Arc<Shared> {
    let mut b = RtClusterBuilder::new(2);
    b.fault_plan(plan);
    b.add_process(SRC, 1 << 12);
    b.add_process(DST, 1 << 12);
    let (cluster, eps) = b.start();
    let shared = Arc::clone(&cluster.shared);
    drop(eps);
    assert!(cluster.shutdown().clean());
    shared
}

fn node_state() -> NodeState {
    NodeState::new(2, 0)
}

fn put(tag: u8) -> Payload {
    Payload::Put {
        dst: DST as u32,
        raddr: 0,
        data: bytes::Bytes::copy_from_slice(&[tag; 8]),
        rsync: None,
    }
}

/// Files a CCB on the source and returns the GET request for it.
fn get_req(st: &mut NodeState) -> Payload {
    let token = st.next_token;
    st.next_token += 1;
    let ccb = CcbGet {
        proc: SRC as u32,
        laddr: 64,
        nbytes: 8,
        lsync: None,
    };
    st.ccbs.insert(token, ccb);
    Payload::GetReq {
        src_asid: SRC as u32,
        dst: DST as u32,
        raddr: 0,
        nbytes: 8,
        token,
    }
}

fn flag(shared: &Shared, flag: u32) -> u64 {
    shared.procs[SRC].flags[flag as usize].load(Ordering::Acquire)
}

#[test]
fn frame_round_trip_applies_every_operation_and_fires_its_lsyncs_together() {
    let shared = quiesced();
    let obs = &shared.obs[DST];
    let now = Instant::now();
    let (mut src, mut dst) = (node_state(), node_state());
    // Requests and a response (one no CCB waits for) share one frame;
    // runs of one flag are broken by another flag and by an operation
    // that owes nothing.
    let reply = Payload::GetReply {
        token: u64::MAX,
        data: None,
    };
    let ops = [
        (put(1), Some(LSYNC)),
        (put(2), Some(LSYNC)),
        (reply, None),
        (put(3), Some(LSYNC + 1)),
        (put(4), Some(LSYNC)),
    ];
    let n = ops.len() as u64;
    for (op, flag) in ops {
        let lsync = flag.map(|f| (SRC as u32, f));
        send_data(&shared, &mut src, SRC, now, DST, op, lsync, 0);
    }
    flush_frames(&shared, &mut src, SRC, now);
    assert_eq!(src.tx[DST].retained.len(), 1, "one frame, one slot");
    let frame = shared.wires[DST].try_pop().expect("the frame");
    assert!(shared.wires[DST].is_empty(), "one ring push");
    assert_eq!(handle_packet(&shared, &mut dst, DST, now, frame), n);
    assert_eq!(obs.get(Ctr::OpsApplied), n, "every operation applied");
    let landed = shared.procs[DST].seg.read_u64(0);
    assert_eq!(landed, u64::from_le_bytes([4; 8]), "in order: the last PUT");
    assert_eq!((obs.get(Ctr::FramesIn), obs.get(Ctr::MsgsIn)), (1, n));

    // Nothing fires before the acknowledgement, all of it on it.
    assert_eq!((flag(&shared, LSYNC), flag(&shared, LSYNC + 1)), (0, 0));
    flush_acks(&shared, &mut dst, DST);
    let ack = shared.wires[SRC].try_pop().expect("the ack");
    assert_eq!(handle_packet(&shared, &mut src, SRC, now, ack), 1);
    assert!(src.tx[DST].retained.is_empty() && src.tx[DST].lsyncs.is_empty());
    assert_eq!((flag(&shared, LSYNC), flag(&shared, LSYNC + 1)), (3, 1));
}

#[test]
fn purge_cancels_the_ccbs_of_every_operation_of_every_retained_frame() {
    let shared = quiesced();
    let now = Instant::now();
    let mut src = node_state();
    // Two closed frames and one a loop that died mid-phase left open.
    for frame in 0..3 {
        for _ in 0..3 {
            let get = get_req(&mut src);
            send_data(&shared, &mut src, SRC, now, DST, get, None, 0);
        }
        if frame < 2 {
            flush_frames(&shared, &mut src, SRC, now);
        }
    }
    assert_eq!((src.ccbs.len(), src.tx[DST].retained.len()), (9, 2));
    shared.condemned[DST].store(true, Ordering::Release);
    purge_condemned(&shared, &mut src, SRC);
    assert!(src.ccbs.is_empty());
    let tx = &src.tx[DST];
    assert!(tx.retained.is_empty() && tx.open.is_empty() && tx.lsyncs.is_empty());
}

#[test]
fn operation_that_draws_a_fault_travels_in_a_frame_of_its_own() {
    // The plan's rates are per operation: 200 operations are judged 200
    // times however they coalesce, and a verdict falls on one operation's
    // frame, never on the neighbours that shared its burst.
    const N: u64 = 200;
    let shared = quiesced_under(crate::RtFaultPlan::new(7).drop(0.05));
    let now = Instant::now();
    let mut src = node_state();
    for i in 0..N {
        send_data(&shared, &mut src, SRC, now, DST, put(i as u8), None, 0);
    }
    flush_frames(&shared, &mut src, SRC, now);
    let counts = shared.faults.as_ref().expect("plan installed").counts();
    assert_eq!(counts.packets, N, "one judgement per operation");
    assert!(counts.dropped > 0, "the plan must have bitten");
    let on_the_wire: Vec<u64> = std::iter::from_fn(|| shared.wires[DST].try_pop())
        .map(|m| match m {
            WireMsg::Data { seq, .. } => seq,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    let retained = &src.tx[DST].retained;
    let ops = |(_, r): (u64, &crate::state::Retained)| r.body.len() as u64;
    assert_eq!(retained.iter().map(ops).sum::<u64>(), N);
    let lost: Vec<_> = retained
        .iter()
        .filter(|(seq, _)| !on_the_wire.contains(seq))
        .collect();
    assert_eq!(lost.len() as u64, counts.dropped);
    assert!(
        lost.iter().all(|&frame| ops(frame) == 1),
        "a dropped frame is one op"
    );
    assert!(retained.len() < N as usize / 4, "the rest still coalesced");
}
