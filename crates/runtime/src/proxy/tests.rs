//! Frame-level protocol cases, driven by hand on a cluster whose proxies
//! have exited: a fresh state per node, built here, is stepped through
//! [`send_data`], [`flush_frames`], [`handle_packet`], [`flush_acks`] and
//! [`retransmit`] with the wire rings carried across by the test and
//! synthetic `now_ns` readings for the clock, so every verdict is
//! deterministic — timers included.

use super::*;
use crate::fault::RtFaultState;
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
    quiesced_under(RtFaultPlan::new(0))
}

fn quiesced_under(plan: RtFaultPlan) -> Arc<Shared> {
    quiesced_with_owner(plan).0
}

/// [`quiesced_under`], and the endpoint of `DST`'s process, which owns
/// the queues the tests ENQ to.
fn quiesced_with_owner(plan: RtFaultPlan) -> (Arc<Shared>, crate::Endpoint) {
    let mut b = RtClusterBuilder::new(2);
    b.fault_plan(plan);
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

/// Closes one frame of one PUT towards `DST` under `fate`, leaving it to
/// the next pump.
fn close(st: &mut NodeState, tag: u8, fate: Fate) {
    let tx = &mut st.tx[DST];
    let lsync = Lsync {
        flag: None,
        submit_ns: 0,
    };
    assert!(!tx.append(put(tag), lsync));
    assert!(tx.close_frame(T0, fate).is_some());
}

#[test]
fn frame_round_trip_applies_every_operation_and_fires_its_lsyncs_together() {
    let shared = quiesced();
    let obs = &shared.obs[DST];
    let (mut src, mut dst) = (node_state(), node_state());
    // Requests and a response (one no CCB waits for) share one frame;
    // runs of one flag are broken by another flag and by an operation
    // that owes nothing.
    let reply = Payload::GetReply {
        token: u64::MAX,
        data: bytes::Bytes::new(),
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
        send_data(&shared, &mut src, SRC, T0, DST, op, lsync, 0);
    }
    flush_frames(&shared, &mut src, SRC, T0);
    assert_eq!(src.tx[DST].retained.len(), 1, "one frame, one slot");
    let frame = shared.wires[DST].try_pop().expect("the frame");
    assert!(shared.wires[DST].is_empty(), "one ring push");
    assert_eq!(handle_packet(&shared, &mut dst, DST, T0, frame), n);
    assert_eq!(obs.get(Ctr::OpsApplied), n, "every operation applied");
    let landed = shared.procs[DST].seg.read_u64(0);
    assert_eq!(landed, u64::from_le_bytes([4; 8]), "in order: the last PUT");
    assert_eq!((obs.get(Ctr::FramesIn), obs.get(Ctr::MsgsIn)), (1, n));

    // Nothing fires before the acknowledgement, all of it on it.
    assert_eq!((flag(&shared, LSYNC), flag(&shared, LSYNC + 1)), (0, 0));
    flush_acks(&shared, &mut dst, DST);
    let ack = shared.wires[SRC].try_pop().expect("the ack");
    assert_eq!(handle_packet(&shared, &mut src, SRC, T0, ack), 1);
    assert!(src.tx[DST].retained.is_empty() && src.tx[DST].lsyncs.is_empty());
    assert_eq!((flag(&shared, LSYNC), flag(&shared, LSYNC + 1)), (3, 1));
}

#[test]
fn command_endpoint_cannot_express_faults_once_and_sends_nothing() {
    let shared = quiesced();
    let mut st = node_state();
    let (mut tx, mut seat) = queues(1);
    let faults = || shared.procs[SRC].faults.load(Ordering::Relaxed);
    // An in-bounds 8-byte command towards DST, but for `op`, the queue
    // word and the sync word.
    let cmd = |op, rq, sync| cmd(op, DST, rq, sync);
    // A sync half naming flag `NUM_FLAGS`, one past the last.
    let past = NUM_FLAGS as u64 + 1;
    let hostile = [
        cmd(0, 0, 0),
        cmd(OP_ENQ + 1, 0, 0),
        cmd(u32::MAX, 0, 0),
        cmd(OP_PUT, 0, u64::MAX),
        cmd(OP_PUT, 0, past << 32),
        cmd(OP_PUT, 0, 1 << 32 | past),
        cmd(OP_GET, 0, past << 32),
        cmd(OP_GET, 0, u64::from(u32::MAX)),
        cmd(OP_ENQ, 0, past),
        // A queue word past `u32`: no truncation to queue 0.
        cmd(OP_ENQ, 1 << 32, 0),
    ];
    for (i, e) in hostile.into_iter().enumerate() {
        assert!(tx[0].try_send(e));
        assert!(drain_seat(&shared, &mut st, &mut seat));
        flush_frames(&shared, &mut st, SRC, T0);
        assert_eq!(faults(), i as u64 + 1, "one fault for {e:?}");
        assert!(shared.wires[DST].is_empty(), "{e:?} reached the wire");
    }
    assert!(st.tx[DST].retained.is_empty() && st.ccbs.is_empty());
    // The same commands with every word in range are sent, unfaulted.
    for op in [OP_PUT, OP_GET, OP_ENQ] {
        assert!(tx[0].try_send(cmd(op, 0, 1 << 32 | 1)));
    }
    drain_seat(&shared, &mut st, &mut seat);
    flush_frames(&shared, &mut st, SRC, T0);
    assert_eq!(faults(), hostile.len() as u64);
    let Some(WireMsg::Data { body, .. }) = shared.wires[DST].try_pop() else {
        panic!("the valid commands' frame");
    };
    assert_eq!(body.len(), 3);
}

#[test]
fn purge_cancels_the_ccbs_of_every_operation_of_every_retained_frame() {
    let shared = quiesced();
    let mut src = node_state();
    // Two closed frames and one a loop that died mid-phase left open.
    for frame in 0..3 {
        for _ in 0..3 {
            let get = get_req(&mut src);
            send_data(&shared, &mut src, SRC, T0, DST, get, None, 0);
        }
        if frame < 2 {
            flush_frames(&shared, &mut src, SRC, T0);
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
    let shared = quiesced_under(RtFaultPlan::new(7).drop(0.05));
    let mut src = node_state();
    for i in 0..N {
        send_data(&shared, &mut src, SRC, T0, DST, put(i as u8), None, 0);
    }
    flush_frames(&shared, &mut src, SRC, T0);
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

#[test]
fn retention_is_resent_exactly_once_when_the_rto_expires_and_not_a_ns_before() {
    let shared = quiesced();
    let obs = &shared.obs[SRC];
    let mut src = node_state();
    send_data(&shared, &mut src, SRC, T0, DST, put(1), None, 0);
    flush_frames(&shared, &mut src, SRC, T0);
    // The wire loses the frame; no ack will ever come.
    assert!(shared.wires[DST].try_pop().is_some());
    assert_eq!(src.tx[DST].last_progress_ns, T0, "retention went non-empty");
    let before = obs.get(Ctr::Retransmits);

    retransmit(&shared, &mut src, SRC, T0 + RTO_NS - 1);
    assert!(shared.wires[DST].is_empty(), "not yet due");
    assert_eq!(obs.get(Ctr::Retransmits), before);

    retransmit(&shared, &mut src, SRC, T0 + RTO_NS);
    let Some(WireMsg::Data { seq, body, .. }) = shared.wires[DST].try_pop() else {
        panic!("the retained frame, re-sent");
    };
    assert_eq!((seq, body.len()), (src.tx[DST].retained.last(), 1));
    assert!(shared.wires[DST].is_empty(), "re-sent once");
    assert_eq!(obs.get(Ctr::Retransmits), before + 1);
    let restarted = src.tx[DST].last_progress_ns;
    assert_eq!(restarted, T0 + RTO_NS, "the RTO restarts");

    // The restarted timer holds off the next resend for a whole RTO.
    retransmit(&shared, &mut src, SRC, T0 + 2 * RTO_NS - 1);
    assert!(shared.wires[DST].is_empty());
    assert_eq!(obs.get(Ctr::Retransmits), before + 1);
}

#[test]
fn a_receiver_paused_short_of_the_rto_resumes_on_its_state_and_nothing_is_sent_twice() {
    const FRAMES: u64 = 4;
    const OPS: u64 = 2;
    let shared = quiesced();
    let (mut src, mut dst) = (node_state(), node_state());
    let lsync = Some((SRC as u32, LSYNC));
    for tag in 0..FRAMES {
        for i in 0..OPS {
            let op = put((tag * OPS + i) as u8);
            send_data(&shared, &mut src, SRC, T0, DST, op, lsync, 0);
        }
        flush_frames(&shared, &mut src, SRC, T0);
    }
    // DST applies the first frame, and its proxy dies before the pass
    // that would have acknowledged it: the ack stays owed in its state,
    // the other frames wait in its ring.
    let first = shared.wires[DST].try_pop().expect("the first frame");
    assert_eq!(handle_packet(&shared, &mut dst, DST, T0, first), OPS);
    assert!(dst.rx[SRC].ack_pending);

    // The pause lasts one ns short of the RTO: SRC re-sends nothing.
    let resume = T0 + RTO_NS - 1;
    retransmit(&shared, &mut src, SRC, resume);
    let waiting = shared.wires[DST].len() as u64;
    assert_eq!(waiting, FRAMES - 1, "nothing re-sent");

    // DST re-enters on the same state: one pass applies the rest once and
    // acknowledges all of it.
    let wire_rx = &shared.wires[DST];
    assert!(drain_wire(&shared, &mut dst, DST, resume, wire_rx));
    flush_acks(&shared, &mut dst, DST);
    assert_eq!(shared.obs[DST].get(Ctr::OpsApplied), FRAMES * OPS);
    let acks = drain(&shared, SRC);
    let [WireMsg::AckUpto { upto: FRAMES, .. }] = acks[..] else {
        panic!("one ack of every frame, got {acks:?}");
    };
    let ack = acks.into_iter().next().expect("the ack");
    handle_packet(&shared, &mut src, SRC, resume, ack);
    assert!(src.tx[DST].retained.is_empty() && src.tx[DST].lsyncs.is_empty());
    assert_eq!(flag(&shared, LSYNC), FRAMES * OPS, "every lsync fired");

    retransmit(&shared, &mut src, SRC, resume + RTO_NS);
    assert!(shared.wires[DST].is_empty());
    for node in [SRC, DST] {
        let obs = &shared.obs[node];
        assert_eq!(obs.get(Ctr::Retransmits), 0);
        assert_eq!(obs.get(Ctr::DedupDrops), 0);
    }
}

#[test]
fn frames_a_full_ring_refuses_wait_in_retention_and_leave_in_sequence_under_their_verdicts() {
    let shared = quiesced();
    let mut src = node_state();
    fill(&shared, DST);
    let verdict = |drop, duplicate, corrupt| Fate {
        drop,
        duplicate,
        corrupt,
        ..Fate::default()
    };
    let fates = [
        Fate::default(),
        verdict(true, false, false),
        verdict(false, true, false),
        verdict(false, false, true),
        Fate::default(),
    ];
    for (tag, fate) in (1..).zip(fates) {
        close(&mut src, tag, fate);
    }
    assert!(
        !flush_frames(&shared, &mut src, SRC, T0),
        "the ring is full"
    );
    assert_eq!(src.tx[DST].unsent(), fates.len());
    assert!(
        !src.outbox_empty(),
        "unsent frames keep the proxy from parking"
    );

    // Room for one frame: the RTO has expired, but a retransmission must
    // not take it ahead of the frames' first transmissions.
    assert!(shared.wires[DST].try_pop().is_some());
    retransmit(&shared, &mut src, SRC, T0 + RTO_NS);
    assert_eq!(shared.obs[SRC].get(Ctr::Retransmits), 0);
    assert_eq!(shared.wires[DST].len(), shared.wires[DST].capacity() - 1);

    // The ring drains: each frame leaves once, in sequence, as its
    // verdict says — the dropped one never, the duplicated one twice.
    drain(&shared, DST);
    assert!(flush_frames(&shared, &mut src, SRC, T0));
    assert!(!flush_frames(&shared, &mut src, SRC, T0), "nothing twice");
    let wire: Vec<(u64, bool)> = drain(&shared, DST)
        .into_iter()
        .map(|m| match m {
            WireMsg::Data { seq, corrupt, .. } => (seq, corrupt),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(
        wire,
        [(1, false), (3, false), (3, false), (4, true), (5, false)]
    );
    assert!(src.outbox_empty());
    assert_eq!(
        src.tx[DST].retained.len(),
        fates.len(),
        "retained until acked"
    );
}

/// Sends one PUT from `src` to `dst` and delivers its frame.
fn deliver(shared: &Shared, src: &mut NodeState, dst: &mut NodeState, tag: u8) {
    send_data(shared, src, SRC, T0, DST, put(tag), None, 0);
    flush_frames(shared, src, SRC, T0);
    let frame = shared.wires[DST].try_pop().expect("the frame");
    assert_eq!(handle_packet(shared, dst, DST, T0, frame), 1);
}

#[test]
fn an_ack_a_full_ring_refuses_goes_on_the_next_pass_with_the_newer_watermark() {
    let shared = quiesced();
    let (mut src, mut dst) = (node_state(), node_state());
    deliver(&shared, &mut src, &mut dst, 1);
    fill(&shared, SRC);
    flush_acks(&shared, &mut dst, DST);
    assert!(dst.rx[SRC].ack_pending, "still owed");
    assert!(
        !dst.outbox_empty(),
        "an owed ack keeps the proxy from parking"
    );
    assert_eq!(shared.obs[DST].get(Ctr::AcksOut), 0);

    deliver(&shared, &mut src, &mut dst, 2);
    drain(&shared, SRC);
    flush_acks(&shared, &mut dst, DST);
    let acks = drain(&shared, SRC);
    let [WireMsg::AckUpto { upto: 2, .. }] = acks[..] else {
        panic!("one ack of both frames, got {acks:?}");
    };
    assert!(dst.outbox_empty());
    assert_eq!(shared.obs[DST].get(Ctr::AcksOut), 1);
    let ack = acks.into_iter().next().expect("the ack");
    handle_packet(&shared, &mut src, SRC, T0, ack);
    assert!(src.tx[DST].retained.is_empty());
}

#[test]
fn a_command_to_a_backlogged_peer_waits_in_its_ring_while_other_queues_are_served() {
    let shared = quiesced();
    let mut st = node_state();
    fill(&shared, DST);
    for i in 0..PENDING_CAP {
        close(&mut st, i as u8, Fate::default());
    }
    assert!(!flush_frames(&shared, &mut st, SRC, T0));
    // Two queues of process SRC: a PUT to DST's process, one to itself.
    let (mut tx, mut seat) = queues(2);
    assert!(tx[0].try_send(cmd(OP_PUT, DST, 0, 0)) && tx[1].try_send(cmd(OP_PUT, SRC, 0, 0)));
    let ready = AtomicU64::new(0b11);
    assert!(drain_commands(&shared, &mut st, SRC, T0, &mut seat, &ready));
    assert!(
        seat[0].q.is_ready(),
        "the held command is still at its head"
    );
    assert!(!seat[1].q.is_ready(), "the other queue was served");
    assert_eq!(ready.load(Ordering::Relaxed), 0b01, "the held bit re-armed");
    assert_eq!(st.tx[DST].unsent(), PENDING_CAP);
    assert!(flush_frames(&shared, &mut st, SRC, T0));
    assert!(matches!(drain(&shared, SRC)[..], [WireMsg::Data { .. }]));

    // The peer's ring drains: the held command goes.
    drain(&shared, DST);
    assert!(flush_frames(&shared, &mut st, SRC, T0));
    assert!(st.tx[DST].unsent() < PENDING_CAP);
    assert!(drain_commands(&shared, &mut st, SRC, T0, &mut seat, &ready));
    assert!(!seat[0].q.is_ready());
}

#[test]
fn an_enq_that_fails_any_check_claims_no_place() {
    let shared = quiesced();
    let mut st = node_state();
    let (mut tx, mut seat) = queues(1);
    let past = NUM_FLAGS as u64 + 1;
    let no_bytes = Entry {
        args: [0, 0, (DST as u64) << 32, 0],
        ..cmd(OP_ENQ, DST, 0, 0)
    };
    let bad_laddr = Entry {
        args: [1 << 12, 0, (DST as u64) << 32 | 8, 0],
        ..cmd(OP_ENQ, DST, 0, 0)
    };
    let invalid = [
        no_bytes,
        bad_laddr,
        cmd(OP_ENQ, DST, 0, past << 32),
        cmd(OP_ENQ, DST, 0, past),
        cmd(OP_ENQ, DST, NUM_QUEUES as u64, 0),
        cmd(OP_ENQ, 2, 0, 0),
        // No grant: the last, once grants are enforced.
        cmd(OP_ENQ, DST, 0, 0),
    ];
    for e in invalid {
        assert!(tx[0].try_send(e));
    }
    shared.allow_all.store(false, Ordering::Relaxed);
    assert!(drain_seat(&shared, &mut st, &mut seat));
    assert!(!seat[0].q.is_ready(), "every command decided");
    let faults = shared.procs[SRC].faults.load(Ordering::Relaxed);
    assert_eq!(faults, invalid.len() as u64);
    assert!((0..NUM_QUEUES).all(|rq| claimed(&shared, rq) == 0));
    // The same ENQ, granted, takes one place in its queue.
    shared.allow_all.store(true, Ordering::Relaxed);
    assert!(tx[0].try_send(cmd(OP_ENQ, DST, 3, 0)));
    assert!(drain_seat(&shared, &mut st, &mut seat));
    assert_eq!((claimed(&shared, 3), claimed(&shared, 0)), (1, 0));
}

#[test]
fn an_enq_to_a_full_queue_waits_at_the_head_of_its_ring_while_another_ring_is_served() {
    let (shared, owner) = quiesced_with_owner(RtFaultPlan::new(0));
    let mut st = node_state();
    let dst = &shared.procs[DST];
    for i in 0..RQ_DEPTH {
        assert!(dst.claim(0), "place {i}");
        assert!(dst.queues[0].try_push(bytes::Bytes::new()).is_ok());
    }
    let (mut tx, mut seat) = queues(2);
    assert!(tx[0].try_send(cmd(OP_ENQ, DST, 0, 0)));
    assert!(tx[1].try_send(cmd(OP_PUT, DST, 0, 0)));
    let ready = AtomicU64::new(0b11);
    assert!(drain_commands(&shared, &mut st, SRC, T0, &mut seat, &ready));
    assert!(seat[0].q.is_ready(), "the ENQ is still at its head");
    assert!(!seat[1].q.is_ready(), "the PUT was served");
    assert_eq!(ready.load(Ordering::Relaxed), 0b01, "the held bit re-armed");
    assert_eq!(claimed(&shared, 0), RQ_DEPTH);
    flush_frames(&shared, &mut st, SRC, T0);
    let Some(WireMsg::Data { body, .. }) = shared.wires[DST].try_pop() else {
        panic!("the PUT's frame");
    };
    assert!(matches!(body[..], [Payload::Put { .. }]));
    // The owner dequeues one payload: the ENQ takes its place.
    assert!(owner.rq_try_recv(RqId(0)).is_some());
    assert_eq!(claimed(&shared, 0), RQ_DEPTH - 1);
    assert!(drain_commands(&shared, &mut st, SRC, T0, &mut seat, &ready));
    assert!(!seat[0].q.is_ready());
    assert_eq!(claimed(&shared, 0), RQ_DEPTH);
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

#[test]
fn a_duplicated_or_retransmitted_enq_uses_one_place() {
    let (shared, owner) = quiesced_with_owner(RtFaultPlan::new(0));
    let (mut src, mut dst) = (node_state(), node_state());
    let (mut tx, mut seat) = queues(1);
    enq(&shared, &mut src, &mut tx[0], &mut seat, false);
    let (seq, body) = pop_frame(&shared, DST);
    // The frame, a duplicate of it, then a retransmission: applied once.
    handle_packet(&shared, &mut dst, DST, T0, copy(seq, &body));
    handle_packet(&shared, &mut dst, DST, T0, copy(seq, &body));
    retransmit(&shared, &mut src, SRC, T0 + RTO_NS);
    let resent = shared.wires[DST].try_pop().expect("the retransmission");
    handle_packet(&shared, &mut dst, DST, T0, resent);
    assert_eq!(
        (shared.procs[DST].queues[0].len(), claimed(&shared, 0)),
        (1, 1)
    );
    assert_eq!(shared.obs[DST].get(Ctr::DedupDrops), 2);
    let (first, second) = (owner.rq_try_recv(RqId(0)), owner.rq_try_recv(RqId(0)));
    assert!(first.is_some() && second.is_none());
    assert_eq!(claimed(&shared, 0), 0);
}

#[test]
fn abandoned_and_unsent_enqs_give_their_places_back_and_sent_ones_keep_them() {
    // Once its sender is condemned, nothing more of a stream is applied:
    // a frame parked behind a gap gives its place back, and so does the
    // gap frame arriving late — each once, later copies being duplicates.
    let shared = quiesced();
    let (mut src, mut dst) = (node_state(), node_state());
    let (mut tx, mut seat) = queues(1);
    enq(&shared, &mut src, &mut tx[0], &mut seat, false);
    enq(&shared, &mut src, &mut tx[0], &mut seat, false);
    let (gap, first) = pop_frame(&shared, DST);
    let (seq, parked) = pop_frame(&shared, DST);
    handle_packet(&shared, &mut dst, DST, T0, copy(seq, &parked));
    assert_eq!(claimed(&shared, 0), 2);
    shared.condemned[SRC].store(true, Ordering::Release);
    purge_condemned(&shared, &mut dst, DST);
    assert_eq!(claimed(&shared, 0), 1, "the parked ENQ's place is back");
    assert_eq!(shared.obs[DST].get(Ctr::DamagedDrops), 1);
    handle_packet(&shared, &mut dst, DST, T0, copy(seq, &parked));
    purge_condemned(&shared, &mut dst, DST);
    assert_eq!(claimed(&shared, 0), 1, "given back once");
    handle_packet(&shared, &mut dst, DST, T0, copy(gap, &first));
    assert_eq!(claimed(&shared, 0), 0, "the late gap frame's place is back");
    handle_packet(&shared, &mut dst, DST, T0, copy(gap, &first));
    purge_condemned(&shared, &mut dst, DST);
    assert_eq!(claimed(&shared, 0), 0, "given back once");
    assert!(shared.procs[DST].queues[0].is_empty(), "nothing applied");
    let obs = &shared.obs[DST];
    assert_eq!(
        (obs.get(Ctr::DamagedDrops), obs.get(Ctr::DedupDrops)),
        (2, 2)
    );

    // A dying proxy gives back the places of what never reached a
    // peer's ring — unsent or still open — and keeps those of what did.
    let shared = quiesced();
    let mut src = node_state();
    let (mut tx, mut seat) = queues(1);
    enq(&shared, &mut src, &mut tx[0], &mut seat, false);
    fill(&shared, DST);
    enq(&shared, &mut src, &mut tx[0], &mut seat, false);
    enq(&shared, &mut src, &mut tx[0], &mut seat, true);
    assert_eq!((src.tx[DST].unsent(), src.tx[DST].open.len()), (1, 1));
    assert_eq!(claimed(&shared, 0), 3);
    crate::cluster::condemn_dead(&shared, &mut src, SRC);
    assert_eq!(claimed(&shared, 0), 1, "the sent ENQ keeps its place");

    // Towards a condemned node, an ENQ that was sent keeps its place: it
    // may sit in the queue already. The unsent and the open give theirs.
    let shared = quiesced();
    let mut src = node_state();
    let (mut tx, mut seat) = queues(1);
    enq(&shared, &mut src, &mut tx[0], &mut seat, false);
    fill(&shared, DST);
    enq(&shared, &mut src, &mut tx[0], &mut seat, false);
    enq(&shared, &mut src, &mut tx[0], &mut seat, true);
    shared.condemned[DST].store(true, Ordering::Release);
    purge_condemned(&shared, &mut src, SRC);
    assert!(src.tx[DST].retained.is_empty() && src.tx[DST].open.is_empty());
    assert_eq!(claimed(&shared, 0), 1, "the sent ENQ keeps its place");
}

#[test]
fn enqs_to_a_condemned_node_claim_nothing_and_hold_back_no_command_behind_them() {
    let shared = quiesced();
    let mut st = node_state();
    // Queue 0 is full of places kept by ENQs sent before DST was
    // condemned. RQ_DEPTH + 2 more ENQs to it over three rings, a PUT to
    // SRC behind the last: one drain takes all of them, and sends the PUT.
    while shared.procs[DST].claim(0) {}
    shared.condemned[DST].store(true, Ordering::Release);
    let (mut tx, mut seat) = queues(3);
    for i in 0..RQ_DEPTH + 2 {
        assert!(tx[i % 3].try_send(cmd(OP_ENQ, DST, 0, 0)));
    }
    assert!(tx[2].try_send(cmd(OP_PUT, SRC, 0, 0)));
    assert!(drain_seat(&shared, &mut st, &mut seat));
    assert!(seat.iter().all(|e| !e.q.is_ready()), "every command taken");
    assert_eq!(claimed(&shared, 0), RQ_DEPTH);
    assert_eq!(shared.procs[SRC].faults.load(Ordering::Relaxed), 0);
    flush_frames(&shared, &mut st, SRC, T0);
    let (_, body) = pop_frame(&shared, SRC);
    assert!(matches!(body[..], [Payload::Put { .. }]));
    // An ENQ whose place was claimed before its node was condemned gives
    // it back as the wire drops it.
    assert!(shared.procs[DST].claim(1));
    let data = bytes::Bytes::new();
    let body = Payload::Enq {
        dst: DST as u32,
        rq: 1,
        data,
        rsync: None,
    };
    send_data(&shared, &mut st, SRC, T0, DST, body, None, 0);
    assert_eq!(claimed(&shared, 1), 0);
}

#[test]
fn load_sampler_charges_busy_passes_up_to_the_next_reading_and_samples_each_period() {
    let shared = quiesced();
    let bits = &shared.util_bits[SRC];
    let util = || f64::from_bits(bits.load(Ordering::Relaxed));
    let unsampled = f64::to_bits(-1.0);
    bits.store(unsampled, Ordering::Relaxed);
    let mut load = LoadSampler::new(0);
    // A busy pass at 0, an idle one at 100 µs, a busy one at 900 µs.
    load.tick(&shared, SRC, 0);
    load.charge(0);
    load.tick(&shared, SRC, 100_000);
    load.tick(&shared, SRC, 900_000);
    load.charge(900_000);
    load.tick(&shared, SRC, SAMPLE_PERIOD_NS - 1);
    assert_eq!(util(), -1.0, "the window is not a period old yet");
    load.tick(&shared, SRC, SAMPLE_PERIOD_NS);
    // Charged: [0, 100 µs) and [900 µs, period − 1 ns); the idle pass
    // between them, nothing.
    assert_eq!(util(), 199_999.0 / SAMPLE_PERIOD_NS as f64);
    // The next window starts at the sample and holds nothing busy.
    bits.store(unsampled, Ordering::Relaxed);
    load.tick(&shared, SRC, 2 * SAMPLE_PERIOD_NS - 1);
    assert_eq!(util(), -1.0);
    load.tick(&shared, SRC, 2 * SAMPLE_PERIOD_NS);
    assert_eq!(util(), 0.0);
}

#[test]
fn overload_warning_names_the_signal_that_tripped_and_is_printed_once() {
    let said = |load: &LoadSampler, what| load.warned.is_some_and(|w| w.starts_with(what));
    // Busy for the whole period: utilisation crossed the bound.
    let shared = quiesced();
    let mut load = LoadSampler::new(0);
    load.charge(0);
    load.tick(&shared, SRC, SAMPLE_PERIOD_NS);
    assert!(load.saturated);
    assert!(said(&load, "overloaded"), "{:?}", load.warned);
    // Idle for the whole period while its input ring fills: stalled.
    let shared = quiesced();
    for upto in 0..200 {
        let ack = WireMsg::AckUpto { from: DST, upto };
        assert!(shared.wires[SRC].try_push(ack).is_ok());
    }
    let mut load = LoadSampler::new(0);
    load.tick(&shared, SRC, SAMPLE_PERIOD_NS);
    assert!(load.saturated);
    assert!(said(&load, "not draining"), "{:?}", load.warned);
    // Once per proxy: re-entering saturation, now overloaded, keeps the
    // first warning.
    while shared.wires[SRC].try_pop().is_some() {}
    load.tick(&shared, SRC, 2 * SAMPLE_PERIOD_NS);
    assert!(!load.saturated);
    load.charge(2 * SAMPLE_PERIOD_NS);
    load.tick(&shared, SRC, 3 * SAMPLE_PERIOD_NS);
    assert!(load.saturated);
    assert!(said(&load, "not draining"), "{:?}", load.warned);
}

#[test]
fn stall_fires_from_its_windows_first_ns_and_not_at_its_end() {
    const MS: u64 = 1_000_000;
    let plan = RtFaultPlan::new(0)
        .stall(SRC, Duration::from_millis(10), Duration::from_millis(20))
        .wedge(DST, Duration::from_millis(10), Duration::from_millis(20));
    let faults = RtFaultState::new(plan, 2);
    assert_eq!(faults.stall_due(SRC, 10 * MS - 1), None);
    assert_eq!(faults.stall_due(SRC, 30 * MS), None, "the end is outside");
    let first = faults.stall_due(SRC, 10 * MS).expect("first ns inside");
    assert_eq!(first.remaining, Duration::from_millis(20));
    assert_eq!(faults.stall_due(DST, 30 * MS), None);
    let last = faults.stall_due(DST, 30 * MS - 1).expect("last ns inside");
    assert_eq!(last.remaining, Duration::from_nanos(1));
    assert!(!last.interruptible);
    assert_eq!(faults.counts().stalls, 2);
}
