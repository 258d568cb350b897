// Commands as the proxy decodes them: operand checks before anything
// is sent, and a command to a backlogged peer waiting in its ring.

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
fn a_command_to_a_backlogged_peer_waits_in_its_ring_while_other_queues_are_served() {
    let shared = quiesced();
    let mut st = node_state();
    fill(&shared, DST);
    for i in 0..PENDING_CAP {
        close(&shared, &mut st, i as u8, Fate::default());
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
