//! A message-passing ring pipeline on the miniature MPI layer: each stage
//! transforms a record and forwards it, with a large bulk hand-off at the
//! end — eager and rendezvous protocols in one program, compared across
//! two architectures.
//!
//! Run: `cargo run --release -p mproxy-examples --example ring_pipeline`

use mproxy::{Cluster, ClusterSpec, ProcId};
use mproxy_am::Am;
use mproxy_des::Simulation;
use mproxy_model::{HW1, MP1};
use mproxy_mpi::Mpi;

fn main() {
    for d in [HW1, MP1] {
        let sim = Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(d, 4, 1)).expect("spec");
        cluster.spawn_spmd(|p| async move {
            let am = Am::new(&p);
            let mpi = Mpi::new(&p, &am);
            let n = p.nprocs() as u32;
            let me = p.rank().0;
            let next = ProcId((me + 1) % n);
            let small = p.alloc(64);
            let big = p.alloc(8192);
            p.ctx().yield_now().await;

            if me == 0 {
                // Inject 16 records, each a counter the ring increments.
                for i in 0..16u64 {
                    p.write_u64(small, i * 100);
                    mpi.send(next, 1, small, 8).await;
                }
                // Collect them after a full loop.
                let mut total = 0;
                for _ in 0..16 {
                    let _ = mpi.recv(None, Some(1), small, 64).await;
                    total += p.read_u64(small);
                }
                // Each record gained (n-1) increments.
                assert_eq!(
                    total,
                    (0..16).map(|i| i * 100).sum::<u64>() + 16 * u64::from(n - 1)
                );
                // Finish with one bulk rendezvous transfer around the ring.
                for i in 0..1024u64 {
                    p.write_u64(big.index(i, 8), i);
                }
                mpi.send(next, 2, big, 8192).await;
                let _ = mpi.recv(None, Some(2), big, 8192).await;
                assert_eq!(p.read_u64(big.index(1023, 8)), 1023);
                println!(
                    "{}: ring of {n} done at {:.0} us ({:?})",
                    p.design().name,
                    p.now().as_us(),
                    mpi.counts()
                );
            } else {
                for _ in 0..16 {
                    let _ = mpi.recv(None, Some(1), small, 64).await;
                    p.write_u64(small, p.read_u64(small) + 1);
                    mpi.send(next, 1, small, 8).await;
                }
                let _ = mpi.recv(None, Some(2), big, 8192).await;
                mpi.send(next, 2, big, 8192).await;
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
    }
}
