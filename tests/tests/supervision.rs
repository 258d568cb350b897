//! Supervision, fault injection, and recovery: the runtime equivalents
//! of the simulator's fault-plan tests. Every scenario is seeded and
//! deterministic in its *decisions* (which packets are judged, where
//! kills land); thread interleaving still varies, so assertions are on
//! protocol invariants — "acked means applied exactly once", "the
//! cluster converges" — not on timing.
//!
//! The randomized soak at the bottom honours `MPROXY_STRESS_ITERS`
//! (default 5 seeds; CI nightly raises it), and the `--ignored` variant
//! runs a longer sweep.

use std::time::Duration;

use mproxy_rt::{FlagId, RqId, RtClusterBuilder, RtError, RtFaultPlan, CMDQ_DEPTH};

/// Generous per-wait bound: recovery from a kill must complete well
/// inside this even on a loaded single-CPU host.
const WAIT: Duration = Duration::from_millis(2000);

#[test]
fn kill_respawn_resyncs_and_completes_all_ops() {
    // Node 1's proxy is killed after 10 serviced ops; supervision brings
    // it back. Every one of the 100 acknowledged puts must have landed
    // exactly once (the payload is a counter, so the final cell value
    // proves the last write; lsync count proves acknowledgement).
    let mut b = RtClusterBuilder::new(2);
    let p0 = b.add_process(0, 1 << 16);
    let p1 = b.add_process(1, 1 << 16);
    b.fault_plan(RtFaultPlan::new(42).kill(1, 10));
    b.supervise(3, Duration::from_millis(1));
    let (cluster, mut eps) = b.start();
    let e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    assert_eq!((e0.asid(), e1.asid()), (p0, p1));

    for i in 1..=100u64 {
        e0.seg().write_u64(0, i);
        e0.put(0, p1, 64, 8, Some(FlagId(0)), None);
        e0.wait_flag_timeout(FlagId(0), i, WAIT)
            .expect("put must be acknowledged across the respawn");
    }
    assert_eq!(e1.seg().read_u64(64), 100, "last acked write visible");
    assert!(cluster.deaths(1) >= 1, "the kill must have fired");
    assert!(cluster.epoch(1) >= 1, "respawn bumps the epoch");
    assert!(cluster.restarts_total() >= 1);
    assert_eq!(cluster.condemned_nodes(), Vec::<usize>::new());
    let report = cluster.shutdown();
    assert!(report.clean(), "recovered node shuts down clean: {report:?}");
    assert!(report.restarts >= 1);
}

#[test]
fn unsupervised_death_condemns_and_reports_reason() {
    // No supervision: the kill condemns node 1. Bounded waits must
    // report ProxyDown with the injected panic message, and the
    // shutdown report must carry it too.
    let mut b = RtClusterBuilder::new(2);
    let _p0 = b.add_process(0, 1 << 16);
    let p1 = b.add_process(1, 1 << 16);
    b.fault_plan(RtFaultPlan::new(7).kill(1, 5));
    let (cluster, mut eps) = b.start();
    let _e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();

    let mut saw_down = None;
    for i in 1..=200u64 {
        e0.seg().write_u64(0, i);
        e0.put(0, p1, 64, 8, Some(FlagId(0)), None);
        match e0.wait_flag_timeout(FlagId(0), i, WAIT) {
            Ok(()) => {}
            Err(err) => {
                saw_down = Some(err);
                break;
            }
        }
    }
    let err = saw_down.expect("some put must fail once node 1 is dead");
    match &err {
        RtError::ProxyDown { node, reason } => {
            assert_eq!(*node, 1);
            let r = reason.as_deref().expect("panic payload captured");
            assert!(r.contains("injected kill"), "unexpected reason: {r}");
        }
        other => panic!("expected ProxyDown, got {other:?}"),
    }
    assert_eq!(cluster.condemned_nodes(), vec![1]);
    let report = cluster.shutdown();
    assert!(!report.clean());
    assert_eq!(report.panicked_nodes.len(), 1);
    assert_eq!(report.panicked_nodes[0].node, 1);
    assert!(report.panicked_nodes[0]
        .reason
        .as_deref()
        .unwrap()
        .contains("injected kill"));
}

#[test]
fn full_command_queue_to_dead_proxy_drops_instead_of_hanging() {
    // Node 0's *own* proxy dies unsupervised, so nothing will ever drain
    // its user's command queue again. Submissions past the queue depth
    // must still return (the op is dropped, like one towards a condemned
    // destination), and the bounded wait must name the dead proxy.
    let mut b = RtClusterBuilder::new(2);
    let _p0 = b.add_process(0, 1 << 16);
    let p1 = b.add_process(1, 1 << 16);
    b.fault_plan(RtFaultPlan::new(5).kill(0, 4));
    let (cluster, mut eps) = b.start();
    let _e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();

    let mut acked = 0u64;
    while cluster.condemned_nodes().is_empty() {
        assert!(acked < 100, "the kill after 4 ops never fired");
        e0.put(0, p1, 64, 8, Some(FlagId(0)), None);
        if e0.wait_flag_timeout(FlagId(0), acked + 1, WAIT).is_ok() {
            acked += 1;
        }
    }
    assert_eq!(cluster.condemned_nodes(), vec![0]);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let submitter = std::thread::spawn(move || {
        for _ in 0..CMDQ_DEPTH + 8 {
            e0.put(0, p1, 64, 8, Some(FlagId(0)), None);
        }
        done_tx.send(()).expect("test still listening");
        e0
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("put() must not hang on a full queue nobody drains");
    let e0 = submitter.join().expect("submitter thread");
    match e0.wait_flag_timeout(FlagId(0), acked + 1, WAIT) {
        Err(RtError::ProxyDown { node, reason }) => {
            assert_eq!(node, 0);
            assert!(reason.is_some_and(|r| r.contains("injected kill")));
        }
        other => panic!("expected ProxyDown, got {other:?}"),
    }
    let report = cluster.shutdown();
    assert!(!report.clean());
}

#[test]
fn restart_budget_exhaustion_condemns() {
    // Two kills, budget of one: the first death is respawned, the second
    // exhausts the budget and the node is condemned.
    let mut b = RtClusterBuilder::new(2);
    let _p0 = b.add_process(0, 1 << 16);
    let p1 = b.add_process(1, 1 << 16);
    b.fault_plan(RtFaultPlan::new(3).kill(1, 20).kill(1, 40));
    b.supervise(1, Duration::from_millis(1));
    let (cluster, mut eps) = b.start();
    let _e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();

    let mut acked = 0u64;
    for i in 1..=500u64 {
        e0.seg().write_u64(0, i);
        e0.put(0, p1, 64, 8, Some(FlagId(0)), None);
        match e0.wait_flag_timeout(FlagId(0), i, WAIT) {
            Ok(()) => acked = i,
            Err(_) => break,
        }
    }
    assert!(acked > 0, "some ops must land before condemnation");
    assert_eq!(cluster.condemned_nodes(), vec![1]);
    assert_eq!(cluster.restarts_total(), 1, "budget was one respawn");
    assert!(cluster.deaths(1) >= 2);
    let report = cluster.shutdown();
    assert!(!report.clean());
}

#[test]
fn wedged_proxy_is_reported_not_joined_forever() {
    // Node 0's proxy wedges (uninterruptible stall) for far longer than
    // the shutdown deadline: shutdown must return promptly, reporting
    // the node as wedged rather than hanging.
    let mut b = RtClusterBuilder::new(2);
    let _p0 = b.add_process(0, 4096);
    let _p1 = b.add_process(1, 4096);
    b.fault_plan(RtFaultPlan::new(0).wedge(0, Duration::ZERO, Duration::from_secs(20)));
    let (cluster, _eps) = b.start();
    // Give the proxy a moment to enter the wedge.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = std::time::Instant::now();
    let report = cluster.shutdown_with_deadline(Duration::from_millis(300));
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "shutdown must not wait out the wedge"
    );
    assert_eq!(report.wedged_nodes, vec![0]);
    assert!(!report.clean());
}

#[test]
fn interruptible_stall_defers_but_does_not_wedge() {
    // An interruptible stall freezes the proxy mid-run but honours the
    // stop signal: shutdown inside the stall window completes fast and
    // clean.
    let mut b = RtClusterBuilder::new(2);
    let p0 = b.add_process(0, 4096);
    let p1 = b.add_process(1, 4096);
    b.fault_plan(RtFaultPlan::new(0).stall(
        1,
        Duration::from_millis(30),
        Duration::from_secs(30),
    ));
    let (cluster, mut eps) = b.start();
    let _e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    assert_eq!((e0.asid(), e1_asid(&_e1)), (p0, p1));

    // Before the stall window opens the path works normally.
    e0.seg().write_u64(0, 9);
    e0.put(0, p1, 0, 8, Some(FlagId(0)), None);
    e0.wait_flag_timeout(FlagId(0), 1, WAIT).unwrap();
    // Let node 1 enter the stall, then shut down through it.
    std::thread::sleep(Duration::from_millis(60));
    let t0 = std::time::Instant::now();
    let report = cluster.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "stop must interrupt the stall"
    );
    assert!(report.clean(), "{report:?}");
}

fn e1_asid(e: &mproxy_rt::Endpoint) -> u32 {
    e.asid()
}

#[test]
fn lossy_wire_still_delivers_exactly_once() {
    // 20% drop + 20% duplicate + 5% corrupt on every data packet. The
    // sequenced wire layer must deliver every acknowledged enq exactly
    // once, in order, despite the carnage.
    let mut b = RtClusterBuilder::new(2);
    let p0 = b.add_process(0, 1 << 16);
    let p1 = b.add_process(1, 1 << 16);
    b.fault_plan(
        RtFaultPlan::new(1234)
            .drop(0.20)
            .duplicate(0.20)
            .corrupt(0.05),
    );
    let (cluster, mut eps) = b.start();
    let e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    assert_eq!((e0.asid(), e1.asid()), (p0, p1));

    let n = 300u64;
    for i in 1..=n {
        e0.seg().write_u64(0, i);
        e0.enq(0, p1, RqId(0), 8, Some(FlagId(0)), None);
        e0.wait_flag_timeout(FlagId(0), i, WAIT)
            .expect("every enq must eventually be acknowledged");
    }
    // Drain: exactly n payloads, in order, no duplicates.
    let mut got = Vec::new();
    while got.len() < n as usize {
        if let Some(data) = e1.rq_try_recv(RqId(0)) {
            got.push(u64::from_le_bytes(data[..8].try_into().unwrap()));
        } else {
            std::thread::yield_now();
        }
    }
    assert!(e1.rq_try_recv(RqId(0)).is_none(), "no extra deliveries");
    assert_eq!(got, (1..=n).collect::<Vec<_>>(), "in order, exactly once");
    let counts = cluster.fault_counts().unwrap();
    assert!(counts.dropped > 0, "the plan must actually have dropped");
    assert!(counts.duplicated > 0);
    assert!(counts.corrupted > 0);
    let report = cluster.shutdown();
    assert!(report.clean(), "{report:?}");
}

#[test]
fn condemned_node_does_not_abort_waits_on_a_live_node() {
    // Node 1 is killed with no supervision and condemned; node 2 is a
    // bystander. Bounded waits that depend on node 1 must fail with
    // ProxyDown, and waits node 2 is still serving must not — the
    // progress grace of `wait_flag_timeout` is what tells them apart.
    let mut b = RtClusterBuilder::new(3);
    let p0 = b.add_process(0, 1 << 16);
    let victim = b.add_process(1, 1 << 16);
    let bystander = b.add_process(2, 1 << 16);
    b.fault_plan(RtFaultPlan::new(9).kill(1, 10));
    let (cluster, mut eps) = b.start();
    let _e2 = eps.pop().unwrap();
    let _e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    assert_eq!(e0.asid(), p0);

    // Flood the victim until its proxy dies under the op-count trigger.
    let mut saw_down = None;
    for i in 1..=200u64 {
        e0.seg().write_u64(0, i);
        e0.put(0, victim, 64, 8, Some(FlagId(0)), None);
        if let Err(err) = e0.wait_flag_timeout(FlagId(0), i, WAIT) {
            saw_down = Some(err);
            break;
        }
    }
    match saw_down.expect("puts at the killed node must eventually fail") {
        RtError::ProxyDown { node, reason } => {
            assert_eq!(node, 1);
            let r = reason.as_deref().expect("panic payload captured");
            assert!(r.contains("injected kill"), "{r}");
        }
        other => panic!("expected ProxyDown, got {other:?}"),
    }

    // Bystander liveness: node 2 keeps acknowledging.
    for i in 1..=30u64 {
        e0.seg().write_u64(0, i);
        e0.put(0, bystander, 64, 8, Some(FlagId(1)), None);
        e0.wait_flag_timeout(FlagId(1), i, WAIT)
            .expect("a live node must stay reachable after an unrelated kill");
    }

    assert_eq!(cluster.condemned_nodes(), vec![1]);
    let report = cluster.shutdown();
    assert!(!report.clean());
    assert_eq!(report.panicked_nodes.len(), 1);
    assert_eq!(report.panicked_nodes[0].node, 1);
}

#[test]
fn kill_respawn_under_loss_preserves_enq_exactly_once() {
    // The sink node's proxy dies mid-stream on a wire dropping 5 % of
    // frames and is respawned; every acknowledged enq must surface
    // exactly once, in order, across the kill/respawn epoch.
    let mut b = RtClusterBuilder::new(2);
    let p0 = b.add_process(0, 1 << 16);
    let p1 = b.add_process(1, 1 << 16);
    b.fault_plan(RtFaultPlan::new(21).kill(1, 15).drop(0.05));
    b.supervise(3, Duration::from_millis(1));
    let (cluster, mut eps) = b.start();
    let e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    assert_eq!(e0.asid(), p0);

    let n = 150u64;
    for i in 1..=n {
        e0.seg().write_u64(0, i);
        e0.enq(0, p1, RqId(0), 8, Some(FlagId(0)), None);
        e0.wait_flag_timeout(FlagId(0), i, WAIT)
            .expect("enq must be acknowledged across the respawn");
    }
    let mut got = Vec::new();
    let deadline = std::time::Instant::now() + WAIT;
    while got.len() < n as usize && std::time::Instant::now() < deadline {
        if let Some(data) = e1.rq_try_recv(RqId(0)) {
            got.push(u64::from_le_bytes(data[..8].try_into().unwrap()));
        } else {
            std::thread::yield_now();
        }
    }
    assert!(e1.rq_try_recv(RqId(0)).is_none(), "no extra deliveries");
    assert_eq!(got, (1..=n).collect::<Vec<_>>(), "in order, exactly once");
    assert!(cluster.deaths(1) >= 1, "the kill must have fired");
    assert!(cluster.restarts_total() >= 1);
    assert_eq!(cluster.condemned_nodes(), Vec::<usize>::new());
    let report = cluster.shutdown();
    assert!(report.clean(), "{report:?}");
}

/// Seeded randomized kill/loss soak, scaled by `MPROXY_STRESS_ITERS`.
/// Each iteration: 3 nodes in a ring, lossy wire, a kill on a random
/// node partway through, supervision on — every acknowledged op must
/// have been applied exactly once.
fn soak(seeds: u64) {
    for seed in 0..seeds {
        let mut b = RtClusterBuilder::new(3);
        let procs: Vec<u32> = (0..3).map(|n| b.add_process(n, 1 << 16)).collect();
        let victim = (seed % 3) as usize;
        let after = 10 + (seed * 13) % 60;
        b.fault_plan(
            RtFaultPlan::new(seed)
                .drop(0.02)
                .duplicate(0.02)
                .corrupt(0.01)
                .kill(victim, after),
        );
        b.supervise(3, Duration::from_millis(1));
        let (cluster, mut eps) = b.start();

        let rounds = 60u64;
        for i in 1..=rounds {
            for src in 0..3usize {
                let dst = procs[(src + 1) % 3];
                let e = &mut eps[src];
                e.seg().write_u64(0, i);
                e.put(0, dst, 64, 8, Some(FlagId(0)), None);
            }
            for e in eps.iter_mut() {
                e.wait_flag_timeout(FlagId(0), i, WAIT).unwrap_or_else(|err| {
                    panic!("seed {seed}: round {i} not acknowledged: {err}")
                });
            }
        }
        for e in &eps {
            assert_eq!(e.seg().read_u64(64), rounds, "seed {seed}: last write");
        }
        assert!(cluster.deaths(victim) >= 1, "seed {seed}: kill never fired");
        let report = cluster.shutdown();
        assert!(report.clean(), "seed {seed}: {report:?}");
    }
}

#[test]
fn randomized_kill_soak() {
    let seeds = std::env::var("MPROXY_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    soak(seeds);
}

#[test]
#[ignore = "long nightly soak; run with --ignored"]
fn randomized_kill_soak_nightly() {
    soak(40);
}
