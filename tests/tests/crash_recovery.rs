//! Crash-recovery epochs and credit-based overload control, end to end.
//!
//! A proxy crash loses all volatile link state (sequence counters,
//! retransmit buffer, backlog) and restarts into a new epoch. The
//! HELLO/HELLO-ACK resync must restore exactly-once, in-order delivery
//! when the crash caught no un-ACKed work, and fail-stop with
//! [`CommError::EpochReset`] — never lose or duplicate silently — when
//! it did. Credits bound the per-node command queue under overload.

use mproxy::micro::pingpong_verified;
use mproxy::{Cluster, ClusterSpec, CommError, FaultPlan, ProcId, RemoteQueue};
use mproxy_apps::{run_app_flat_faulty, AppId, AppSize};
use mproxy_bench::reports::{
    crash_sweep_plan, sweep_plan, APP_CRASH_AT_US, CRASH_DOWNTIME_US, CRASH_DROP, CRASH_NODE,
    PP_CRASH_AT_US, PP_MIDFLIGHT_AT_US,
};
use mproxy_des::Simulation;
use mproxy_model::MP1;
use mproxy_tests::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// Acceptance: the verified ping-pong completes every round with zero
/// lost or duplicated deliveries despite a mid-run proxy crash on a 1%
/// lossy wire, and the link visibly went through an epoch resync.
#[test]
fn pingpong_survives_midrun_proxy_crash_with_zero_loss() {
    let plan = crash_sweep_plan(CRASH_DROP, CRASH_NODE, PP_CRASH_AT_US, CRASH_DOWNTIME_US);
    let r = pingpong_verified(MP1, 64, 64, Some(plan));
    assert_eq!(r.rounds, 64, "rounds lost across the crash");
    assert!(r.data_ok, "payload corrupted or replayed out of order");
    assert_eq!(r.error, None);
    let link = r.report.link;
    assert!(link.epoch_resyncs >= 1, "no epoch resync happened");
    assert!(link.hellos_sent >= 1, "restarted node never said HELLO");
    // The crashed node restarted into epoch 1; the survivor stayed at 0.
    assert_eq!(r.epochs.len(), 2);
    assert_eq!(r.epochs[0].0, 0, "survivor must keep its epoch");
    assert_eq!(r.epochs[1].0, 1, "crashed node must enter the next epoch");
}

/// Acceptance: the Sample application runs to completion through a
/// proxy crash with a checksum identical to the crash-free run.
#[test]
fn sample_app_completes_through_proxy_crash_with_identical_checksum() {
    let base = run_app_flat_faulty(AppId::Sample, MP1, 2, AppSize::Tiny, sweep_plan(CRASH_DROP));
    let plan = crash_sweep_plan(CRASH_DROP, CRASH_NODE, APP_CRASH_AT_US, CRASH_DOWNTIME_US);
    let r = run_app_flat_faulty(AppId::Sample, MP1, 2, AppSize::Tiny, plan);
    assert_eq!(r.checksum, base.checksum, "crash changed the answer");
    assert!(r.faults.link.epoch_resyncs >= 1, "no epoch resync happened");
    assert!(
        r.elapsed_us > base.elapsed_us,
        "recovery cannot be free: {} vs {}",
        r.elapsed_us,
        base.elapsed_us
    );
}

/// Same seed, same crash window => byte-identical delivery order,
/// timing, recovery statistics and final epoch/sequence tables.
#[test]
fn crash_recovery_is_deterministic_across_runs() {
    let plan = || crash_sweep_plan(CRASH_DROP, CRASH_NODE, PP_CRASH_AT_US, CRASH_DOWNTIME_US);
    let a = pingpong_verified(MP1, 64, 64, Some(plan()));
    let b = pingpong_verified(MP1, 64, 64, Some(plan()));
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.rt_us.to_bits(), b.rt_us.to_bits());
    assert_eq!(a.error, b.error);
    assert_eq!(a.report, b.report);
    assert_eq!(a.epochs, b.epochs, "epoch/seq tables diverged");
}

/// A crash that catches the victim with un-ACKed work of its own cannot
/// be hidden: the owner is failed with `EpochReset` (fail-stop), and
/// that failure itself is deterministic.
#[test]
fn crash_with_unacked_work_fails_stop_with_epoch_reset() {
    let plan = || {
        crash_sweep_plan(
            CRASH_DROP,
            CRASH_NODE,
            PP_MIDFLIGHT_AT_US,
            CRASH_DOWNTIME_US,
        )
    };
    let a = pingpong_verified(MP1, 64, 64, Some(plan()));
    assert!(
        matches!(
            a.error,
            Some(CommError::EpochReset { node, .. }) if node == CRASH_NODE
        ),
        "expected EpochReset from node {CRASH_NODE}, got {:?}",
        a.error
    );
    assert!(a.data_ok, "even a failed run must never corrupt data");
    assert!(a.rounds < 64, "the failure must abort the stream");
    let b = pingpong_verified(MP1, 64, 64, Some(plan()));
    assert_eq!(a.error, b.error);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.report, b.report);
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
    let sim = Simulation::new();
    let spec = ClusterSpec::new(MP1, 2, 1);
    let cluster = Cluster::new_with_faults(&sim.ctx(), spec, plan).unwrap();
    let done = Rc::new(RefCell::new(false));
    let probe = Rc::clone(&done);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(64);
            let q = p.new_queue();
            p.ctx().yield_now().await;
            if p.rank().0 == 0 {
                for i in 0..K {
                    p.write_u64(buf, i);
                    p.enq(
                        buf,
                        RemoteQueue {
                            proc: ProcId(1),
                            rq: q,
                        },
                        8,
                        None,
                        None,
                    )
                    .await
                    .unwrap();
                }
            } else {
                for i in 0..K {
                    let got = p.rq_recv(q).await.expect("stream ended early");
                    let v = u64::from_le_bytes(got.as_ref().try_into().unwrap());
                    assert_eq!(v, i, "out of order or duplicated past the window");
                }
                *probe.borrow_mut() = true;
            }
        }
    });
    assert!(cluster.run(&sim).completed_cleanly(), "drop storm hung");
    assert!(*done.borrow(), "receiver never finished");
    let link = cluster.fault_report().link;
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

/// Nightly soak: crash windows on top of the full PR 1 fault matrix
/// (drop + duplicate + reorder + corrupt) across many seeds and crash
/// instants. Invariant: every run terminates, and either recovers with
/// all rounds intact or fail-stops with `EpochReset`/`Unreachable` —
/// silent loss, duplication, or deadlock are never acceptable.
#[test]
#[ignore = "long soak; run nightly via cargo test -- --ignored"]
fn crash_plus_fault_matrix_soak() {
    let mut clean = 0u32;
    let mut failstop = 0u32;
    for case in 0..60u64 {
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
        let r = pingpong_verified(MP1, 64, 64, Some(plan));
        assert!(r.data_ok, "{which}: silent corruption or replay");
        match r.error {
            None => {
                assert_eq!(r.rounds, 64, "{which}: silent round loss");
                clean += 1;
            }
            Some(CommError::EpochReset { .. } | CommError::Unreachable { .. }) => failstop += 1,
            Some(other) => panic!("{which}: unexpected failure {other}"),
        }
    }
    // The sweep must exercise both outcomes to mean anything.
    assert!(clean > 0, "no case ever recovered cleanly");
    assert!(failstop > 0, "no case ever hit the fail-stop path");
    eprintln!("soak: {clean} clean recoveries, {failstop} fail-stops");
}
