//! End-to-end fault injection: the reliable link layer must hide drops,
//! duplicates, reorders, and corruption from the protocol above it,
//! surface genuinely dead nodes as [`CommError::Unreachable`], and stay
//! bit-for-bit deterministic per seed.

use mproxy::micro::pingpong_verified;
use mproxy::{Cluster, ClusterSpec, CommError, FaultPlan, ProcId, RemoteQueue};
use mproxy_des::Simulation;
use mproxy_model::{HW1, MP1, SW1};
use mproxy_tests::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// Property: an ENQ stream through an arbitrarily faulty link is
/// delivered exactly once, in submission order, on every architecture
/// and for every seed.
#[test]
fn faulty_link_delivers_enq_streams_exactly_once_in_order() {
    for case in 0..10u64 {
        let mut rng = Rng::new(0xfa17_0000 + case);
        let design = rng.pick(&[MP1, HW1, SW1]);
        let k = rng.range(8, 33);
        let plan = FaultPlan::new(rng.next_u64())
            .drop(rng.f64_range(0.0, 0.08))
            .duplicate(rng.f64_range(0.0, 0.04))
            .reorder(rng.f64_range(0.0, 0.08), rng.f64_range(5.0, 50.0))
            .corrupt(rng.f64_range(0.0, 0.04));
        let sim = Simulation::new();
        let cluster =
            Cluster::new_with_faults(&sim.ctx(), ClusterSpec::new(design, 2, 1), plan).unwrap();
        let leftover = Rc::new(RefCell::new(usize::MAX));
        let probe = Rc::clone(&leftover);
        cluster.spawn_spmd(move |p| {
            let probe = Rc::clone(&probe);
            async move {
                let buf = p.alloc(64);
                let q = p.new_queue();
                p.ctx().yield_now().await;
                if p.rank().0 == 0 {
                    // Fire the whole stream; inline capture lets the
                    // buffer be reused immediately.
                    for i in 0..k {
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
                    for i in 0..k {
                        let got = p.rq_recv(q).await.expect("stream ended early");
                        let v = u64::from_le_bytes(got.as_ref().try_into().unwrap());
                        assert_eq!(v, i, "case {case}: out of order or duplicated");
                    }
                    let stray = p.rq_poll(q).await;
                    *probe.borrow_mut() = usize::from(stray.is_some());
                }
            }
        });
        assert!(
            cluster.run(&sim).completed_cleanly(),
            "case {case} on {} deadlocked",
            design.name
        );
        assert_eq!(*leftover.borrow(), 0, "case {case}: stray deliveries");
        assert!(cluster.comm_error(ProcId(0)).is_none());
        assert!(cluster.comm_error(ProcId(1)).is_none());
    }
}

/// The same seed must reproduce the same faulty run bit for bit:
/// identical timing, identical injected-fault and recovery counters.
#[test]
fn same_seed_reproduces_the_same_faulty_run_bit_for_bit() {
    let plan = || {
        FaultPlan::new(0xdeed)
            .drop(0.03)
            .duplicate(0.02)
            .reorder(0.04, 25.0)
            .corrupt(0.01)
    };
    let a = pingpong_verified(MP1, 64, 32, Some(plan()));
    let b = pingpong_verified(MP1, 64, 32, Some(plan()));
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.rt_us.to_bits(), b.rt_us.to_bits());
    assert_eq!(a.data_ok, b.data_ok);
    assert_eq!(a.error, b.error);
    assert_eq!(a.report, b.report);
    assert!(a.report.injected.packets > 0, "plan injected nothing");
}

/// A node whose proxy stalls past the whole retransmission budget is
/// reported as unreachable at the submitting process — the run ends,
/// it never deadlocks.
#[test]
fn stalled_node_surfaces_unreachable_without_deadlock() {
    // Stall node 1 for 50 ms: far beyond the ~12.8 ms default budget.
    let plan = FaultPlan::new(1).stall(1, 0.0, 50_000.0);
    let sim = Simulation::new();
    let cluster = Cluster::new_with_faults(&sim.ctx(), ClusterSpec::new(MP1, 2, 1), plan).unwrap();
    let seen = Rc::new(RefCell::new(None));
    let probe = Rc::clone(&seen);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(64);
            p.ctx().yield_now().await;
            if p.rank().0 == 0 {
                let f = p.new_flag();
                p.write_u64(buf, 7);
                p.put(buf, ProcId(1).into(), buf, 8, Some(&f), None)
                    .await
                    .unwrap();
                let err = p.wait_flag_result(&f, 1).await.unwrap_err();
                *probe.borrow_mut() = Some(err);
            }
        }
    });
    assert!(cluster.run(&sim).completed_cleanly(), "stall deadlocked");
    let err = seen.borrow().clone().expect("rank 0 never saw a failure");
    assert!(
        matches!(err, CommError::Unreachable { dst: 1, .. }),
        "expected unreachable node 1, got: {err}"
    );
    assert_eq!(cluster.comm_error(ProcId(0)), Some(err));
    assert_eq!(cluster.fault_report().link.unreachable, 1);
}

/// Heavy corruption is healed by NACK-driven retransmission: everything
/// still arrives exactly once with the right contents.
#[test]
fn heavy_corruption_recovers_via_nack_retransmission() {
    let plan = FaultPlan::new(7).corrupt(0.3);
    let r = pingpong_verified(MP1, 64, 24, Some(plan));
    assert_eq!(r.rounds, 24);
    assert!(r.data_ok, "corrupted payload leaked through");
    assert_eq!(r.error, None);
    assert!(r.report.link.nacks_sent > 0, "corruption never NACKed");
    assert_eq!(r.report.link.unreachable, 0);
}
