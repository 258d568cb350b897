//! The MSI protocol end to end: coherence, caching and statistics on
//! small clusters.

use super::*;
use mproxy::{Cluster, ClusterSpec};
use mproxy_am::Coll;
use mproxy_des::Simulation;
use mproxy_model::{HW1, MP1, SW1};
use std::future::Future;

fn run_crl<F, Fut>(design: mproxy_model::DesignPoint, nodes: usize, ppn: usize, body: F)
where
    F: Fn(Proc, Crl, Coll) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    let sim = Simulation::new();
    let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(design, nodes, ppn)).unwrap();
    cluster.spawn_spmd(move |p| {
        let am = Am::new(&p);
        let crl = Crl::new(&p, &am);
        let coll = Coll::new(&p, Some(am));
        body(p, crl, coll)
    });
    let report = cluster.run(&sim);
    assert!(report.completed_cleanly(), "CRL test deadlocked");
}

#[test]
fn exclusive_counter_is_coherent() {
    for design in [MP1, HW1, SW1] {
        run_crl(design, 4, 1, |p, crl, coll| async move {
            let rid = RegionId {
                home: ProcId(0),
                idx: 0,
            };
            if p.rank() == rid.home {
                crl.create(8);
            }
            let rgn = crl.map(rid, 8);
            coll.barrier().await;
            for _round in 0..3 {
                crl.start_write(&rgn).await;
                let v = p.read_u64(rgn.addr());
                p.write_u64(rgn.addr(), v + 1);
                crl.end_write(&rgn).await;
            }
            coll.barrier().await;
            crl.start_read(&rgn).await;
            assert_eq!(p.read_u64(rgn.addr()), 12, "{}", design.name);
            crl.end_read(&rgn).await;
            coll.barrier().await;
        });
    }
}

#[test]
fn readers_cache_until_invalidated() {
    run_crl(MP1, 3, 1, |p, crl, coll| async move {
        let rid = RegionId {
            home: ProcId(0),
            idx: 0,
        };
        if p.rank() == rid.home {
            crl.create(16);
        }
        let rgn = crl.map(rid, 16);
        coll.barrier().await;
        if p.rank().0 == 0 {
            crl.start_write(&rgn).await;
            p.write_u64(rgn.addr(), 111);
            crl.end_write(&rgn).await;
        }
        coll.barrier().await;
        // Everyone reads twice; the second read must be a hit.
        crl.start_read(&rgn).await;
        assert_eq!(p.read_u64(rgn.addr()), 111);
        crl.end_read(&rgn).await;
        let misses_before = crl.stats().misses;
        crl.start_read(&rgn).await;
        crl.end_read(&rgn).await;
        assert_eq!(crl.stats().misses, misses_before, "second read must hit");
        coll.barrier().await;
        // A writer invalidates all readers.
        if p.rank().0 == 2 {
            crl.start_write(&rgn).await;
            p.write_u64(rgn.addr(), 222);
            crl.end_write(&rgn).await;
        }
        coll.barrier().await;
        crl.start_read(&rgn).await;
        assert_eq!(p.read_u64(rgn.addr()), 222);
        crl.end_read(&rgn).await;
        coll.barrier().await;
    });
}

#[test]
fn multiple_regions_and_homes() {
    run_crl(MP1, 4, 1, |p, crl, coll| async move {
        let n = p.nprocs();
        // Every rank homes one region; all map all of them.
        let my_rid = crl.create(8);
        assert_eq!(my_rid.home, p.rank());
        let regions: Vec<Region> = (0..n)
            .map(|h| {
                crl.map(
                    RegionId {
                        home: ProcId(h as u32),
                        idx: 0,
                    },
                    8,
                )
            })
            .collect();
        coll.barrier().await;
        // Each rank writes its successor's region.
        let next = (p.rank().0 as usize + 1) % n;
        crl.start_write(&regions[next]).await;
        p.write_u64(regions[next].addr(), 1000 + next as u64);
        crl.end_write(&regions[next]).await;
        coll.barrier().await;
        // Everyone reads every region and checks.
        for (h, rgn) in regions.iter().enumerate() {
            crl.start_read(rgn).await;
            assert_eq!(p.read_u64(rgn.addr()), 1000 + h as u64);
            crl.end_read(rgn).await;
        }
        coll.barrier().await;
    });
}

#[test]
fn contended_writes_serialize_correctly() {
    // All ranks hammer one region concurrently; total must equal the
    // number of increments (atomicity through exclusivity).
    run_crl(MP1, 4, 2, |p, crl, coll| async move {
        let rid = RegionId {
            home: ProcId(3),
            idx: 0,
        };
        if p.rank() == rid.home {
            crl.create(8);
        }
        let rgn = crl.map(rid, 8);
        coll.barrier().await;
        for _ in 0..4 {
            crl.start_write(&rgn).await;
            let v = p.read_u64(rgn.addr());
            p.write_u64(rgn.addr(), v + 1);
            crl.end_write(&rgn).await;
        }
        coll.barrier().await;
        crl.start_read(&rgn).await;
        assert_eq!(p.read_u64(rgn.addr()), 32);
        crl.end_read(&rgn).await;
        coll.barrier().await;
    });
}

#[test]
fn stats_track_protocol_activity() {
    run_crl(MP1, 2, 1, |p, crl, coll| async move {
        let rid = RegionId {
            home: ProcId(0),
            idx: 0,
        };
        if p.rank() == rid.home {
            crl.create(8);
        }
        let rgn = crl.map(rid, 8);
        coll.barrier().await;
        crl.start_read(&rgn).await;
        crl.end_read(&rgn).await;
        coll.barrier().await;
        if p.rank().0 == 1 {
            crl.start_write(&rgn).await;
            crl.end_write(&rgn).await;
            assert!(crl.stats().misses >= 2);
        } else {
            // Home sent an invalidation to itself? No — to rank 1's
            // write, home invalidates its own copy locally and rank 0's
            // stats count no message; but the read by rank 1 earlier
            // came through this directory.
            assert_eq!(crl.stats().hits + crl.stats().misses, 1);
        }
        coll.barrier().await;
    });
}
