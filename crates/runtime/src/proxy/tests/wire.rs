// Frames on the wire: a frame's round trip, the CCBs a purge cancels,
// a faulted operation's frame of its own, the RTO's boundary, a re-send
// the ring refuses, a pause
// short of it, frames and acks a full ring refuses, and the one payload
// buffer of a frame — when its bytes are taken, what a faulted
// operation's frame leaves the one ahead, and what an ENQ keeps.

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
        data: tagged(&shared, 9),
    };
    let ops = [
        (put(&shared, 1), Some(LSYNC)),
        (put(&shared, 2), Some(LSYNC)),
        (reply, None),
        (put(&shared, 3), Some(LSYNC + 1)),
        (put(&shared, 4), Some(LSYNC)),
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
    let shared = quiesced();
    let mut src = node_state_under(&RtFaultPlan::new(7).drop(0.05), SRC);
    for i in 0..N {
        send_data(&shared, &mut src, SRC, T0, DST, put(&shared, i as u8), None, 0);
    }
    flush_frames(&shared, &mut src, SRC, T0);
    let (obs, dropped) = (&shared.obs[SRC], shared.obs[SRC].get(Ctr::FaultsDropped));
    assert_eq!(obs.get(Ctr::FaultsJudged), N, "one judgement per operation");
    assert!(dropped > 0, "the plan must have bitten");
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
    assert_eq!(lost.len() as u64, dropped);
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
    send_data(&shared, &mut src, SRC, T0, DST, put(&shared, 1), None, 0);
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
fn a_resend_the_ring_refuses_injects_no_fault() {
    // Every re-send draws a duplicate verdict, but the one the full ring
    // refuses never left: neither ledger counts it.
    let shared = quiesced();
    let obs = &shared.obs[SRC];
    let mut src = node_state_under(&RtFaultPlan::new(0).duplicate(1.0), SRC);
    close(&shared, &mut src, 1, Fate::default());
    assert!(flush_frames(&shared, &mut src, SRC, T0));
    drain(&shared, DST); // the wire loses it
    fill(&shared, DST);
    retransmit(&shared, &mut src, SRC, T0 + RTO_NS);
    let ledgers = || {
        let kinds = [Ctr::FaultsInjected, Ctr::FaultsDuplicated];
        (obs.get(Ctr::FaultsJudged), kinds.map(|c| obs.get(c)))
    };
    assert_eq!(obs.get(Ctr::Retransmits), 0, "the ring refused it");
    assert_eq!(ledgers(), (0, [0, 0]));
    // Once the ring has room, the next re-send goes, twice, and counts.
    drain(&shared, DST);
    retransmit(&shared, &mut src, SRC, T0 + 2 * RTO_NS);
    assert_eq!(drain(&shared, DST).len(), 2, "the frame and its duplicate");
    assert_eq!(ledgers(), (1, [1, 1]));
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
            let op = put(&shared, (tag * OPS + i) as u8);
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
        close(&shared, &mut src, tag, fate);
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
    assert_eq!(shared.wires[DST].len(), WIRE_DEPTH - 1);

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

/// The payload bytes each operation of `body` carries, in order.
fn payloads(body: &Frame) -> Vec<&bytes::Bytes> {
    body.iter()
        .filter_map(|op| match op {
            Payload::Put { data, .. } | Payload::Enq { data, .. } | Payload::GetReply { data, .. } => {
                Some(data)
            }
            Payload::GetReq { .. } => None,
        })
        .collect()
}

/// The address range of `body`'s payload bytes, after asserting that
/// they are one run: each operation's bytes follow the last one's.
fn one_buffer(body: &Frame) -> std::ops::Range<usize> {
    let data = payloads(body);
    let base = data[0].as_ptr() as usize;
    let mut end = base;
    for d in data {
        assert_eq!(d.as_ptr() as usize, end, "the next bytes of one buffer");
        end += d.len();
    }
    base..end
}

#[test]
fn every_operation_carries_its_bytes_as_they_were_when_it_joined_its_frame() {
    let shared = quiesced();
    let mut src = node_state();
    let seg = &shared.procs[SRC].seg;
    let enq = Payload::Enq {
        dst: DST as u32,
        rq: 0,
        data: tagged(&shared, 2),
        rsync: None,
    };
    send_data(&shared, &mut src, SRC, T0, DST, put(&shared, 1), None, 0);
    send_data(&shared, &mut src, SRC, T0, DST, enq, None, 0);
    // Overwritten while the frame is open, and again after it left.
    seg.write(8, &[0xEE; 16]);
    flush_frames(&shared, &mut src, SRC, T0);
    let (seq, sent) = pop_frame(&shared, DST);
    seg.write(8, &[0xDD; 16]);
    let want: [&[u8]; 2] = [&[1; 8], &[2; 8]];
    let got: Vec<&[u8]> = payloads(&sent).into_iter().map(|d| &d[..]).collect();
    assert_eq!(got, want);
    one_buffer(&sent);
    // The frame is lost; its retransmission is the same frame, bytes and
    // all.
    retransmit(&shared, &mut src, SRC, T0 + RTO_NS);
    let (again, resent) = pop_frame(&shared, DST);
    assert_eq!(again, seq);
    assert!(Arc::ptr_eq(&sent, &resent));
    let got: Vec<&[u8]> = payloads(&resent).into_iter().map(|d| &d[..]).collect();
    assert_eq!(got, want);
}

#[test]
fn a_get_reply_is_taken_before_a_later_write_of_the_same_drain() {
    let shared = quiesced();
    let (mut src, mut dst) = (node_state(), node_state());
    shared.procs[DST].seg.write(0, &[0xAB; 8]);
    // One frame: a GET of DST's word 0, then a PUT that overwrites it.
    let get = get_req(&mut src);
    send_data(&shared, &mut src, SRC, T0, DST, get, None, 0);
    send_data(&shared, &mut src, SRC, T0, DST, put(&shared, 7), None, 0);
    flush_frames(&shared, &mut src, SRC, T0);
    let frame = shared.wires[DST].try_pop().expect("the frame");
    assert_eq!(handle_packet(&shared, &mut dst, DST, T0, frame), 2);
    assert_eq!(shared.procs[DST].seg.read_u64(0), u64::from_le_bytes([7; 8]));
    flush_frames(&shared, &mut dst, DST, T0);
    let reply = shared.wires[SRC].try_pop().expect("the reply's frame");
    let WireMsg::Data { body, .. } = &reply else {
        panic!("a data frame, got {reply:?}");
    };
    let [Payload::GetReply { data, .. }] = &body[..] else {
        panic!("the reply alone, got {body:?}");
    };
    assert_eq!(&data[..], &[0xAB; 8], "the bytes the GET found");
    // The source applies them to the word its CCB names.
    handle_packet(&shared, &mut src, SRC, T0, reply);
    let got = shared.procs[SRC].seg.read_u64(64);
    assert_eq!(got, u64::from_le_bytes([0xAB; 8]));
}

#[test]
fn a_faulted_operation_leaves_the_frame_ahead_of_it_all_of_its_own_bytes() {
    const N: u8 = 200;
    let shared = quiesced();
    let mut src = node_state_under(&RtFaultPlan::new(7).drop(0.05), SRC);
    for tag in 0..N {
        send_data(&shared, &mut src, SRC, T0, DST, put(&shared, tag), None, 0);
    }
    flush_frames(&shared, &mut src, SRC, T0);
    let frames: Vec<Frame> = src.tx[DST]
        .retained
        .iter()
        .map(|(_, r)| Arc::clone(&r.body))
        .collect();
    assert!(frames.iter().any(|f| f.len() == 1), "the plan must have bitten");
    // Every frame is one run of its own operations' bytes, in order, and
    // no two frames share a byte.
    let mut tag = 0;
    let mut runs = Vec::new();
    for body in &frames {
        for d in payloads(body) {
            assert_eq!(&d[..], &[tag; 8]);
            tag += 1;
        }
        runs.push(one_buffer(body));
    }
    assert_eq!(tag, N, "every operation once");
    runs.sort_by_key(|r| r.start);
    assert!(runs.windows(2).all(|w| w[0].end <= w[1].start), "disjoint");
}

#[test]
fn an_enq_in_its_queue_outlives_every_reference_to_its_frame_and_shares_none() {
    let (shared, owner) = quiesced_with_owner();
    let (mut src, mut dst) = (node_state(), node_state());
    assert!(shared.procs[DST].claim(0));
    let enq = Payload::Enq {
        dst: DST as u32,
        rq: 0,
        data: tagged(&shared, 5),
        rsync: None,
    };
    send_data(&shared, &mut src, SRC, T0, DST, put(&shared, 4), None, 0);
    send_data(&shared, &mut src, SRC, T0, DST, enq, None, 0);
    flush_frames(&shared, &mut src, SRC, T0);
    let frame = shared.wires[DST].try_pop().expect("the frame");
    let WireMsg::Data { body, .. } = &frame else {
        panic!("a data frame, got {frame:?}");
    };
    let buffer = one_buffer(body);
    assert_eq!(handle_packet(&shared, &mut dst, DST, T0, frame), 2);
    // The ack releases the sender's reference, the last one.
    flush_acks(&shared, &mut dst, DST);
    let ack = shared.wires[SRC].try_pop().expect("the ack");
    handle_packet(&shared, &mut src, SRC, T0, ack);
    assert!(src.tx[DST].retained.is_empty());
    shared.procs[SRC].seg.write(40, &[0; 8]);
    let got = owner.rq_try_recv(RqId(0)).expect("the ENQ");
    assert_eq!(&got[..], &[5; 8]);
    let at = got.as_ptr() as usize;
    assert!(!buffer.contains(&at), "a copy, not a slice of the frame");
}
