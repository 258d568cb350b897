// Receive-queue places: what an ENQ claims, when it waits for one, and
// when a duplicate, an abandoned frame or a condemned node gives it back.

#[test]
fn a_reply_ring_is_made_by_the_first_enq_to_its_queue_and_no_sooner() {
    let (shared, owner) = quiesced_with_owner();
    let no_ring = |p: &crate::cluster::ProcShared| p.queues.iter().all(|q| q.get().is_none());
    assert!(shared.procs.iter().all(|p| no_ring(p)), "a ring at start");
    // A place claimed, its ENQ not applied yet: the owner's dequeue finds
    // nothing and gives nothing back.
    assert!(shared.procs[DST].claim(5));
    assert_eq!(owner.rq_try_recv(RqId(5)), None);
    assert_eq!((queued(&shared, 5), claimed(&shared, 5)), (None, 1));
    // One ENQ to queue 3 makes that ring, and only that one.
    let (mut src, mut dst) = (node_state(), node_state());
    let (mut tx, mut seat) = queues(1);
    assert!(tx[0].try_send(cmd(OP_ENQ, DST, 3, 0)));
    assert!(drain_seat(&shared, &mut src, &mut seat));
    flush_frames(&shared, &mut src, SRC, T0);
    let (seq, body) = pop_frame(&shared, DST);
    assert_eq!(handle_packet(&shared, &mut dst, DST, T0, copy(seq, &body)), 1);
    assert!(no_ring(&shared.procs[SRC]));
    let made: Vec<usize> = (0..NUM_QUEUES).filter(|&rq| queued(&shared, rq).is_some()).collect();
    assert_eq!((made, queued(&shared, 3)), (vec![3], Some(1)));
    assert_eq!(owner.rq_try_recv(RqId(3)).as_deref(), Some(&[0u8; 8][..]));
    assert_eq!((queued(&shared, 3), claimed(&shared, 3)), (Some(0), 0));
    assert_eq!(claimed(&shared, 5), 1, "the unapplied claim stays");
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
    let (shared, owner) = quiesced_with_owner();
    let mut st = node_state();
    let dst = &shared.procs[DST];
    for i in 0..RQ_DEPTH {
        assert!(dst.claim(0), "place {i}");
        let ring = dst.queues[0].get_or_init(|| Ring::new(RQ_DEPTH));
        assert!(ring.try_push(bytes::Bytes::new()).is_ok());
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

#[test]
fn a_duplicated_or_retransmitted_enq_uses_one_place() {
    let (shared, owner) = quiesced_with_owner();
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
    assert_eq!((queued(&shared, 0), claimed(&shared, 0)), (Some(1), 1));
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
    assert_eq!(queued(&shared, 0), None, "nothing applied");
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
    let data = tagged(&shared, 1);
    let body = Payload::Enq {
        dst: DST as u32,
        rq: 1,
        data,
        rsync: None,
    };
    send_data(&shared, &mut st, SRC, T0, DST, body, None, 0);
    assert_eq!(claimed(&shared, 1), 0);
}
