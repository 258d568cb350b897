//! Protection semantics across the whole stack: per-asid grants, faults,
//! and revocation — on every architecture (the property the paper's title
//! promises).

use mproxy::{Asid, Cluster, ClusterSpec, CommError, ProcId};
use mproxy_des::Simulation;
use mproxy_model::{ALL_DESIGN_POINTS, MP1};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn ungranted_access_is_denied_on_every_architecture() {
    for d in ALL_DESIGN_POINTS {
        let sim = Simulation::new();
        let mut spec = ClusterSpec::new(d, 2, 1);
        spec.allow_all = false;
        let cluster = Cluster::new(&sim.ctx(), spec).unwrap();
        let outcome = Rc::new(RefCell::new(Vec::new()));
        let probe = Rc::clone(&outcome);
        cluster.spawn_spmd(move |p| {
            let probe = Rc::clone(&probe);
            async move {
                let buf = p.alloc(8);
                p.ctx().yield_now().await;
                if p.rank() == ProcId(0) {
                    let r = p.put(buf, Asid(1), buf, 8, None, None).await;
                    probe.borrow_mut().push(r);
                    let r = p.get(buf, Asid(1), buf, 8, None, None).await;
                    probe.borrow_mut().push(r);
                }
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
        for r in outcome.borrow().iter() {
            assert!(
                matches!(r, Err(CommError::PermissionDenied { .. })),
                "{}: expected denial, got {r:?}",
                d.name
            );
        }
        assert_eq!(cluster.proc_stats(ProcId(0)).faults, 2, "{}", d.name);
    }
}

#[test]
fn grant_enables_then_revoke_disables() {
    for d in ALL_DESIGN_POINTS {
        let sim = Simulation::new();
        let mut spec = ClusterSpec::new(d, 2, 1);
        spec.allow_all = false;
        let cluster = Rc::new(Cluster::new(&sim.ctx(), spec).unwrap());
        cluster.grant(ProcId(0), Asid(1));
        let after_revoke = Rc::new(RefCell::new(None));
        let (probe, grants) = (Rc::clone(&after_revoke), Rc::clone(&cluster));
        cluster.spawn_spmd(move |p| {
            let (probe, grants) = (Rc::clone(&probe), Rc::clone(&grants));
            async move {
                let buf = p.alloc(8);
                let f = p.new_flag();
                p.ctx().yield_now().await;
                if p.rank() == ProcId(0) {
                    p.put(buf, Asid(1), buf, 8, Some(&f), None).await.unwrap();
                    p.wait_flag(&f, 1).await;
                    // Revocation takes effect for the next operation.
                    grants.revoke(ProcId(0), Asid(1));
                    let r = p.put(buf, Asid(1), buf, 8, None, None).await;
                    *probe.borrow_mut() = Some(r);
                }
            }
        });
        assert!(cluster.run(&sim).completed_cleanly(), "{}", d.name);
        assert_eq!(
            after_revoke.borrow_mut().take(),
            Some(Err(CommError::PermissionDenied {
                src: ProcId(0),
                target: Asid(1),
            })),
            "{}: the PUT after the revoke",
            d.name
        );
        assert_eq!(cluster.proc_stats(ProcId(0)).faults, 1, "{}", d.name);
    }
}

#[test]
fn out_of_bounds_remote_address_rejected() {
    let sim = Simulation::new();
    let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
    let saw = Rc::new(RefCell::new(None));
    let probe = Rc::clone(&saw);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(8);
            p.ctx().yield_now().await;
            if p.rank() == ProcId(0) {
                let r = p
                    .put(buf, Asid(1), mproxy::Addr(1 << 40), 8, None, None)
                    .await;
                *probe.borrow_mut() = Some(r);
            }
        }
    });
    assert!(cluster.run(&sim).completed_cleanly());
    assert!(matches!(
        saw.borrow().as_ref().unwrap(),
        Err(CommError::OutOfBounds { .. })
    ));
}

#[test]
fn zero_byte_transfers_rejected() {
    let sim = Simulation::new();
    let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
    let saw = Rc::new(RefCell::new(None));
    let probe = Rc::clone(&saw);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(8);
            p.ctx().yield_now().await;
            if p.rank().0 == 0 {
                *probe.borrow_mut() = Some(p.put(buf, Asid(1), buf, 0, None, None).await);
            }
        }
    });
    assert!(cluster.run(&sim).completed_cleanly());
    assert!(matches!(
        saw.borrow().as_ref().unwrap(),
        Err(CommError::EmptyTransfer)
    ));
}
