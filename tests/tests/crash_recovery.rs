//! Proxy crashes and credit-based overload control, end to end.
//!
//! A simulated proxy crash is a pause, as a runtime respawn is: the
//! node's agent services nothing until it restarts, keeps every queued
//! command and all reliable-link state, and loses only the packets queued
//! in its input at the crash instant, which the senders' timers recover.
//! So every crash case must deliver exactly once, in order, and fail no
//! process. Credits bound the per-node command queue under overload.

use mproxy::micro::pingpong_verified;
use mproxy::{Cluster, ClusterSpec, FaultPlan, LinkStats, ProcId, RemoteQueue};
use mproxy_apps::{run_app_flat_faulty, AppId, AppSize};
use mproxy_bench::reports::{
    crash_sweep_plan, sweep_plan, APP_CRASH_AT_US, CRASH_DOWNTIME_US, CRASH_DROP, CRASH_NODE,
    PP_CRASH_AT_US, PP_MIDFLIGHT_AT_US,
};
use mproxy_des::{Dur, Simulation};
use mproxy_model::MP1;
use mproxy_tests::rt::stress_iters;
use mproxy_tests::Rng;
use std::cell::Cell;
use std::rc::Rc;

/// The crash sweep's plan: 1% loss plus a crash of node 1 at `at_us`.
fn sweep_crash(at_us: f64) -> FaultPlan {
    crash_sweep_plan(CRASH_DROP, CRASH_NODE, at_us, CRASH_DOWNTIME_US)
}

/// Runs the verified ping-pong under `plan` and checks what a pause
/// guarantees: every round, exactly once, in order, no process failed,
/// and nothing renumbered — each node sent 64 sequences and expects the
/// 65th. `which` names the case.
fn pingpong_exactly_once(plan: FaultPlan, which: &str) {
    let r = pingpong_verified(MP1, 64, 64, Some(plan));
    assert_eq!(r.error, None, "{which}: a pause failed a process");
    assert_eq!(r.rounds, 64, "{which}: rounds lost across the crash");
    assert!(r.data_ok, "{which}: payload corrupted or replayed");
    let once_each = [[(1, 64, 65)], [(0, 64, 65)]];
    assert_eq!(r.links, once_each, "{which}: renumbered");
}

/// Acceptance: the verified ping-pong completes every round with zero
/// lost or duplicated deliveries despite a mid-run proxy crash on a 1%
/// lossy wire.
#[test]
fn pingpong_survives_midrun_proxy_crash_with_zero_loss() {
    pingpong_exactly_once(sweep_crash(PP_CRASH_AT_US), "between rounds");
}

/// A crash that catches the victim with its reply un-ACKed keeps that
/// reply retained across the pause, and the stream completes exactly once.
#[test]
fn crash_with_unacked_work_recovers_exactly_once() {
    pingpong_exactly_once(sweep_crash(PP_MIDFLIGHT_AT_US), "mid-flight");
}

/// Same seed, same crash window => byte-identical delivery order,
/// timing, recovery statistics and final sequence tables.
#[test]
fn crash_recovery_is_deterministic_across_runs() {
    let run = || pingpong_verified(MP1, 64, 64, Some(sweep_crash(PP_CRASH_AT_US)));
    // `f64`'s Debug form round-trips, so equal texts mean equal bits.
    assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
}

/// Acceptance: the Sample application runs to completion through a
/// proxy crash with a checksum identical to the crash-free run. The crash
/// hits the key exchange and discards packets queued in the node's
/// input; the senders' timers recover every one.
#[test]
fn sample_app_completes_through_proxy_crash_with_identical_checksum() {
    let sample = |plan| run_app_flat_faulty(AppId::Sample, MP1, 2, AppSize::Tiny, plan);
    let (base, r) = (
        sample(sweep_plan(CRASH_DROP)),
        sample(sweep_crash(APP_CRASH_AT_US)),
    );
    assert_eq!(r.checksum, base.checksum, "crash changed the answer");
    let link = r.faults.link;
    assert!(link.crash_dropped >= 1, "nothing discarded: {link:?}");
    assert!(r.elapsed_us > base.elapsed_us, "recovery cannot be free");
}

/// A command submitted while its node's proxy is down waits in the
/// proxy's queue and is delivered exactly once after the restart.
#[test]
fn command_submitted_during_crash_is_delivered_once_after_restart() {
    // Node 0's proxy is down over [100, 350) us; its process submits at 200.
    let plan = FaultPlan::new(7).crash(0, 100.0, CRASH_DOWNTIME_US);
    let (_, at_us) = flood(1, plan, 200.0);
    assert!(at_us >= 100.0 + CRASH_DOWNTIME_US, "arrived at {at_us} us");
}

/// Both proxies crash during a flood on a lossy wire: the sender's with
/// commands queued and lost packets retained, the receiver's with packets
/// queued in its input. The pauses keep commands and retention, the
/// timers recover every drop, and the stream arrives exactly once.
#[test]
fn crashes_mid_flood_deliver_every_message_exactly_once() {
    // The 512-word flood takes about 6.5 ms; both crashes fall inside it.
    let plan = FaultPlan::new(0xf100d)
        .drop(0.05)
        .crash(0, 300.0, CRASH_DOWNTIME_US)
        .crash(1, 900.0, CRASH_DOWNTIME_US);
    let (link, _) = flood(512, plan, 0.0);
    assert!(link.crash_dropped >= 1, "nothing discarded: {link:?}");
}

/// Rank 0 ENQs the words `0..k` to rank 1 from `start_us` on; rank 1
/// checks that they arrive in order and that no copy follows within
/// 20 ms. Returns the link counters and when the last word arrived.
fn flood(k: u64, plan: FaultPlan, start_us: f64) -> (LinkStats, f64) {
    let sim = Simulation::new();
    let spec = ClusterSpec::new(MP1, 2, 1);
    let cluster = Cluster::new_with_faults(&sim.ctx(), spec, plan).unwrap();
    let arrived = Rc::new(Cell::new(f64::NAN));
    let probe = Rc::clone(&arrived);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(64);
            let rq = p.new_queue();
            p.ctx().yield_now().await;
            if p.rank().0 == 0 {
                p.ctx().delay(Dur::from_us(start_us)).await;
                for i in 0..k {
                    p.write_u64(buf, i);
                    let to = RemoteQueue {
                        proc: ProcId(1),
                        rq,
                    };
                    p.enq(buf, to, 8, None, None).await.unwrap();
                }
            } else {
                for i in 0..k {
                    let got = p.rq_recv(rq).await.expect("stream ended early");
                    assert_eq!(got.as_ref(), i.to_le_bytes(), "out of order or duplicated");
                }
                probe.set(p.now().as_us());
                p.ctx().delay(Dur::from_us(20_000.0)).await;
                assert!(p.rq_poll(rq).await.is_none(), "a word arrived twice");
            }
        }
    });
    assert!(cluster.run(&sim).completed_cleanly(), "flood hung");
    assert!(arrived.get() >= start_us, "receiver never finished");
    (cluster.fault_report().link, arrived.get())
}

/// The retransmit buffer obeys the link layer's window (64 packets per
/// destination) even at 20% drop — a flood well past it parks in the
/// backlog (O(window) memory), is promoted as ACKs free slots, and the
/// stream still arrives exactly once, in order.
#[test]
fn retransmit_buffer_stays_bounded_at_heavy_drop() {
    const WINDOW: u64 = 64;
    const K: u64 = 8 * WINDOW;
    let plan = FaultPlan::new(0x20_c4a5).drop(0.20).reorder(0.05, 20.0);
    let (link, _) = flood(K, plan, 0.0);
    assert!(
        link.peak_pending <= WINDOW,
        "retransmit buffer grew to {} > window {WINDOW}",
        link.peak_pending
    );
    assert!(
        link.backlogged > 0,
        "a {K}-message flood through a {WINDOW}-slot window never parked anything"
    );
    assert!(link.retransmits > 0, "20% drop caused no retransmissions");
}

/// Credits bound the engine's command-queue depth under a flood; the
/// same flood without credits overruns that bound.
#[test]
fn credits_bound_command_queue_depth() {
    const PUTS: u64 = 50;
    let run = |credits: u32| {
        let sim = Simulation::new();
        let mut spec = ClusterSpec::new(MP1, 2, 2);
        spec.cmd_credits = credits;
        let cluster = Cluster::new(&sim.ctx(), spec).unwrap();
        cluster.spawn_spmd(move |p| async move {
            let buf = p.alloc(64);
            p.ctx().yield_now().await;
            let me = p.rank().0;
            if me < 2 {
                let peer = mproxy::Asid(me + 2);
                for _ in 0..PUTS {
                    p.put(buf, peer, buf, 64, None, None).await.unwrap();
                }
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
        let (cmds, wait_us) = cluster.cmd_wait_us(0);
        assert_eq!(cmds, 2 * PUTS, "a command went missing");
        (cluster.engine_queue_peak(0), wait_us)
    };
    let (bounded_peak, bounded_wait) = run(2);
    let (free_peak, free_wait) = run(0);
    assert!(
        bounded_peak <= 2 * 2,
        "credited queue peaked at {bounded_peak} > procs x credits = 4"
    );
    assert!(
        free_peak > 2 * 2,
        "uncredited flood should overrun the credit bound, peaked at {free_peak}"
    );
    assert!(
        bounded_wait < free_wait,
        "backpressure should shift waiting out of the shared queue"
    );
}

/// Crash windows on top of the full fault matrix (drop + duplicate +
/// reorder + corrupt), one seed, node and crash instant per case. Every
/// case must complete exactly once with no error: a pause fails no
/// process, and loss, duplication or deadlock are never acceptable.
fn crash_plus_fault_matrix(cases: u64) {
    for case in 0..cases {
        let mut rng = Rng::new(0xc4a5_0000 + case);
        let node = usize::from(case % 2 == 0);
        let at = rng.f64_range(30.0, 450.0);
        let downtime = rng.f64_range(120.0, 400.0);
        let plan = FaultPlan::new(rng.next_u64())
            .drop(rng.f64_range(0.0, 0.06))
            .duplicate(rng.f64_range(0.0, 0.03))
            .reorder(rng.f64_range(0.0, 0.06), rng.f64_range(5.0, 40.0))
            .corrupt(rng.f64_range(0.0, 0.03))
            .crash(node, at, downtime);
        // Enough to replay a failing case by hand.
        let which = format!("case {case} (node {node}, at {at} us, downtime {downtime} us)");
        pingpong_exactly_once(plan, &which);
    }
}

/// The matrix's first cases in tier-1 (`MPROXY_STRESS_ITERS`, default 4).
#[test]
fn crash_plus_fault_matrix_first_cases() {
    crash_plus_fault_matrix(stress_iters(4));
}

/// Nightly soak: the whole 60-case matrix.
#[test]
#[ignore = "long soak; run nightly via cargo test -- --ignored"]
fn crash_plus_fault_matrix_soak() {
    crash_plus_fault_matrix(60);
}
