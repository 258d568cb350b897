//! Supervision, fault injection, and recovery: the runtime equivalents
//! of the simulator's fault-plan tests. Every scenario is seeded and
//! deterministic in its *decisions* (which packets are judged, where
//! kills land); thread interleaving still varies, so assertions are on
//! protocol invariants — "acked means applied exactly once", "the
//! cluster converges" — not on timing. The kill × loss soak runs the
//! shared ring, [`rt::ring`].

use std::time::Duration;

use mproxy_rt::{FlagId, RqId, RtClusterBuilder, RtError, RtFaultPlan, CMDQ_DEPTH};
use mproxy_tests::rt::{self, WAIT};

#[test]
fn kill_respawn_resyncs_and_completes_all_ops() {
    let _bound = rt::watchdog();
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
    assert!(cluster.restarts_total() >= 1);
    assert_eq!(cluster.condemned_nodes(), Vec::<usize>::new());
    rt::finish(cluster);
}

#[test]
fn unsupervised_death_condemns_and_reports_reason() {
    let _bound = rt::watchdog();
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
    let _bound = rt::watchdog();
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
    let _bound = rt::watchdog();
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
fn proxy_waiting_out_its_restart_backoff_is_condemned_promptly_at_shutdown() {
    let _bound = rt::watchdog();
    // A 30 s backoff keeps node 1 dead when the cluster stops. The stop
    // must cut the backoff short, and a node dead at stop must be
    // condemned (so node 0 stops waiting for its acks) and reported —
    // never restarted, never waited out.
    let mut b = RtClusterBuilder::new(2);
    let _p0 = b.add_process(0, 1 << 16);
    let p1 = b.add_process(1, 1 << 16);
    b.fault_plan(RtFaultPlan::new(11).kill(1, 10));
    b.supervise(3, Duration::from_secs(30));
    let (cluster, mut eps) = b.start();
    let _e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();

    // Nothing condemns a node while it backs off, so a wait on it ends
    // only by timing out: the waits here are short.
    let mut acked = 0u64;
    while cluster.panicked_nodes().is_empty() {
        assert!(acked < 100, "the kill after 10 ops never fired");
        e0.put(0, p1, 64, 8, Some(FlagId(0)), None);
        let short = Duration::from_millis(200);
        if e0.wait_flag_timeout(FlagId(0), acked + 1, short).is_ok() {
            acked += 1;
        }
    }
    // Backing off: dead, but neither condemned nor restarted.
    assert_eq!(cluster.panicked_nodes(), vec![1]);
    assert_eq!(cluster.condemned_nodes(), Vec::<usize>::new());
    assert_eq!(cluster.restarts_total(), 0);

    let t0 = std::time::Instant::now();
    let report = cluster.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown waited out the backoff: {:?}",
        t0.elapsed()
    );
    assert_eq!(report.restarts, 0);
    assert_eq!(report.panicked_nodes.len(), 1, "{report:?}");
    assert_eq!(report.panicked_nodes[0].node, 1);
    let reason = report.panicked_nodes[0].reason.as_deref();
    assert!(
        reason.is_some_and(|r| r.contains("injected kill")),
        "{reason:?}"
    );
}

#[test]
fn wedged_proxy_is_reported_not_joined_forever() {
    let _bound = rt::watchdog();
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
    let _bound = rt::watchdog();
    // An interruptible stall freezes the proxy mid-run but honours the
    // stop signal: shutdown inside the stall window completes fast and
    // clean.
    let mut b = RtClusterBuilder::new(2);
    let p0 = b.add_process(0, 4096);
    let p1 = b.add_process(1, 4096);
    b.fault_plan(RtFaultPlan::new(0).stall(1, Duration::from_millis(30), Duration::from_secs(30)));
    let (cluster, mut eps) = b.start();
    let e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    assert_eq!((e0.asid(), e1.asid()), (p0, p1));

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

#[test]
fn lossy_wire_still_delivers_exactly_once() {
    let _bound = rt::watchdog();
    // 20% drop + 20% duplicate + 5% corrupt on every data packet, with
    // one ENQ in flight at a time: no later frame exposes a lost one's
    // gap to a NACK, so the retransmit timer alone recovers each loss.
    // The sequenced wire layer must still deliver every acknowledged ENQ
    // exactly once, in order.
    const N: u64 = 300;
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

    // Drain while the sender runs: the queue holds `RQ_DEPTH` payloads,
    // and an ENQ past them waits for the owner to make room.
    let drainer = std::thread::spawn(move || rt::drain(&e1, RqId(0), N, WAIT));
    for i in 1..=N {
        e0.seg().write_u64(0, i);
        e0.enq(0, p1, RqId(0), 8, Some(FlagId(0)), None);
        e0.wait_flag_timeout(FlagId(0), i, WAIT)
            .expect("every enq must eventually be acknowledged");
    }
    let got = drainer.join().expect("drainer thread");
    rt::check_exactly_once(&got, &[0], N).unwrap_or_else(|why| panic!("{why}"));
    let counts = cluster.fault_counts().unwrap();
    assert!(counts.dropped > 0, "the plan must actually have dropped");
    assert!(counts.duplicated > 0);
    assert!(counts.corrupted > 0);
    rt::finish(cluster);
}

#[test]
fn condemned_node_does_not_abort_waits_on_a_live_node() {
    let _bound = rt::watchdog();
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

/// Seeded randomized kill × loss soak, `MPROXY_STRESS_ITERS` seeds
/// (default 5; CI's fault-tests job runs 25): every acknowledged PUT and
/// ENQ of the ring was applied exactly once across the kill.
#[test]
fn randomized_kill_soak() {
    for seed in 0..rt::stress_iters(5) {
        rt::ring(seed, 50);
    }
}

#[test]
#[ignore = "long nightly soak; run with --ignored"]
fn randomized_kill_soak_nightly() {
    for seed in 0..60 {
        rt::ring(seed, 60);
    }
}
