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
use crate::wire::RTO_NS;
use crate::{RtClusterBuilder, RtFaultPlan};
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
    let faults = || shared.procs[SRC].faults.load(Ordering::Relaxed);
    // An in-bounds 8-byte command towards DST, but for `op`, the queue
    // word and the sync word.
    let cmd = |op, rq, sync| Entry {
        op,
        args: [0, rq, (DST as u64) << 32 | 8, sync],
        t_ns: 0,
    };
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
        handle_command(&shared, &mut st, SRC, T0, SRC as u32, e);
        flush_frames(&shared, &mut st, SRC, T0);
        assert_eq!(faults(), i as u64 + 1, "one fault for {e:?}");
        assert!(shared.wires[DST].is_empty(), "{e:?} reached the wire");
    }
    assert!(st.tx[DST].retained.is_empty() && st.ccbs.is_empty());
    // The same commands with every word in range are sent, unfaulted.
    for op in [OP_PUT, OP_GET, OP_ENQ] {
        handle_command(&shared, &mut st, SRC, T0, SRC as u32, cmd(op, 0, 1 << 32 | 1));
    }
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
    let cmd = |dst: usize| Entry {
        op: OP_PUT,
        args: [0, 0, (dst as u64) << 32 | 8, 0],
        t_ns: 0,
    };
    let (mut to_peer, q0) = spsc::channel(CMDQ_DEPTH);
    let (mut to_self, q1) = spsc::channel(CMDQ_DEPTH);
    assert!(to_peer.try_send(cmd(DST)) && to_self.try_send(cmd(SRC)));
    let asid = SRC as u32;
    let mut seat = [
        SeatEntry {
            asid,
            qbit: 0,
            q: q0,
        },
        SeatEntry {
            asid,
            qbit: 1,
            q: q1,
        },
    ];
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
