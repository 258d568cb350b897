//! # mproxy-splitc — Split-C-style global access over RMA
//!
//! The paper's third programming style: "Split-C, an extension to the C
//! language that provides globally-addressable variables and arrays ...
//! \[and\] a global address space for shared data" (Culler et al.,
//! Supercomputing'93). Six of the ten applications (MM, FFT, Sample,
//! Sampleb, P-Ray, Wator) are written against this layer.
//!
//! The key idea is *split-phase* access: [`SplitC::get_nb`] issues the
//! transfer and returns; [`SplitC::sync`] waits for every outstanding
//! transfer, letting programs overlap communication with computation.
//! [`SplitC::store`] is the one-way `:-` store whose global completion is
//! awaited by [`SplitC::all_store_sync`].
//!
//! # Examples
//!
//! ```
//! use mproxy::{Cluster, ClusterSpec, ProcId};
//! use mproxy_am::Am;
//! use mproxy_des::Simulation;
//! use mproxy_splitc::{GlobalPtr, SplitC};
//!
//! let sim = Simulation::new();
//! let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(mproxy_model::MP1, 2, 1)).unwrap();
//! cluster.spawn_spmd(|p| async move {
//!     let am = Am::new(&p);
//!     let sc = SplitC::new(&p, &am);
//!     let arr = p.alloc(64);
//!     p.ctx().yield_now().await;
//!     if p.rank() == ProcId(0) {
//!         // Split-phase read of rank 1's array, overlap, then sync.
//!         let remote = GlobalPtr { proc: ProcId(1), addr: arr };
//!         sc.get_nb(remote, arr, 64).await;
//!         p.compute(100).await; // overlapped work
//!         sc.sync().await;
//!     }
//! });
//! assert!(cluster.run(&sim).completed_cleanly());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::rc::Rc;

use mproxy::{Addr, Proc, ProcId, SyncFlag};
use mproxy_am::{Am, Coll};

/// A global pointer: a process and an address within its space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalPtr {
    /// The owning process.
    pub proc: ProcId,
    /// Address within that process's space.
    pub addr: Addr,
}

struct ScState {
    op_flag: SyncFlag,
    issued: Cell<u64>,
    store_arrivals: SyncFlag,
    stores_issued: Cell<u64>,
}

/// The per-process Split-C context. Cloneable; clones share state.
#[derive(Clone)]
pub struct SplitC {
    p: Proc,
    am: Am,
    st: Rc<ScState>,
}

impl SplitC {
    /// Creates the context (deterministic flag allocation: every SPMD rank
    /// must construct its `SplitC` at the same point in setup).
    #[must_use]
    pub fn new(p: &Proc, am: &Am) -> SplitC {
        SplitC {
            p: p.clone(),
            am: am.clone(),
            st: Rc::new(ScState {
                op_flag: p.new_flag(),
                issued: Cell::new(0),
                store_arrivals: p.new_flag(),
                stores_issued: Cell::new(0),
            }),
        }
    }

    /// Split-phase global read: issue and return. Complete with
    /// [`SplitC::sync`].
    pub async fn get_nb(&self, src: GlobalPtr, laddr: Addr, nbytes: u32) {
        self.st.issued.set(self.st.issued.get() + 1);
        self.p
            .get(
                laddr,
                src.proc.into(),
                src.addr,
                nbytes,
                Some(&self.st.op_flag),
                None,
            )
            .await
            .expect("split-phase get failed");
    }

    /// Waits for every outstanding split-phase operation, servicing
    /// active messages meanwhile.
    pub async fn sync(&self) {
        let target = self.st.issued.get();
        let flag = self.st.op_flag.clone();
        self.am.poll_while(|| flag.count() >= target).await;
    }

    /// One-way store (`:-` in Split-C): no local completion; the target's
    /// arrival counter increments on delivery. Globally completed by
    /// [`SplitC::all_store_sync`].
    pub async fn store(&self, laddr: Addr, dst: GlobalPtr, nbytes: u32) {
        self.st.stores_issued.set(self.st.stores_issued.get() + 1);
        let rflag = self.p.remote_flag(dst.proc, self.st.store_arrivals.id());
        self.p
            .put(laddr, dst.proc.into(), dst.addr, nbytes, None, Some(rflag))
            .await
            .expect("store failed");
    }

    /// Global completion of all [`SplitC::store`]s: every rank waits until
    /// the cluster-wide arrival count matches the cluster-wide issue
    /// count (Split-C's `all_store_sync`).
    pub async fn all_store_sync(&self, coll: &Coll) {
        loop {
            let issued = coll.allreduce_sum(self.st.stores_issued.get() as f64).await;
            let arrived = coll
                .allreduce_sum(self.st.store_arrivals.count() as f64)
                .await;
            if issued == arrived {
                break;
            }
            // Stores still in flight; drain a batch before re-checking so
            // the global counters are not hammered (each check is a full
            // reduction).
            for _ in 0..16 {
                self.am.poll().await;
            }
        }
    }

    /// Blocking bulk read (`bulk_get`), polling while waiting.
    pub async fn bulk_get(&self, src: GlobalPtr, laddr: Addr, nbytes: u32) {
        if src.proc == self.p.rank() {
            let data = self.p.read_bytes(src.addr, nbytes);
            self.p
                .compute_us(f64::from(nbytes.div_ceil(64)) * 0.05)
                .await;
            self.p.write_bytes(laddr, &data);
            return;
        }
        self.am.get_bulk(src.proc, laddr, src.addr, nbytes).await;
    }

    /// Blocking bulk write (`bulk_put`), polling while waiting for the
    /// remote ack.
    pub async fn bulk_put(&self, laddr: Addr, dst: GlobalPtr, nbytes: u32) {
        let flag = self.p.new_flag();
        self.p
            .put(laddr, dst.proc.into(), dst.addr, nbytes, Some(&flag), None)
            .await
            .expect("bulk put failed");
        let f = flag.clone();
        self.am.poll_while(|| f.count() >= 1).await;
    }
}

impl std::fmt::Debug for SplitC {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitC")
            .field("proc", &self.p.rank())
            .field(
                "outstanding",
                &(self.st.issued.get() - self.st.op_flag.count()),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mproxy::{Cluster, ClusterSpec};
    use mproxy_des::Simulation;
    use mproxy_model::{HW0, MP2, SW1};
    use std::future::Future;

    fn run_sc<F, Fut>(design: mproxy_model::DesignPoint, n: usize, body: F)
    where
        F: Fn(Proc, SplitC, Coll) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let sim = Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(design, n, 1)).unwrap();
        cluster.spawn_spmd(move |p| {
            let am = Am::new(&p);
            let sc = SplitC::new(&p, &am);
            let coll = Coll::new(&p, Some(am));
            body(p, sc, coll)
        });
        let report = cluster.run(&sim);
        assert!(report.completed_cleanly(), "split-c test deadlocked");
    }

    #[test]
    fn split_phase_get_overlaps_and_lands() {
        run_sc(MP2, 2, |p, sc, coll| async move {
            let arr = p.alloc(128);
            for i in 0..16u64 {
                p.write_f64(arr.index(i, 8), f64::from(p.rank().0) * 100.0 + i as f64);
            }
            let dst = p.alloc(128);
            coll.barrier().await;
            if p.rank().0 == 0 {
                let remote = GlobalPtr {
                    proc: ProcId(1),
                    addr: arr,
                };
                sc.get_nb(remote, dst, 128).await;
                p.compute(500).await;
                sc.sync().await;
                for i in 0..16u64 {
                    assert_eq!(p.read_f64(dst.index(i, 8)), 100.0 + i as f64);
                }
            }
            coll.barrier().await;
        });
    }

    #[test]
    fn stores_complete_globally() {
        for d in [MP2, HW0, SW1] {
            run_sc(d, 4, |p, sc, coll| async move {
                let n = p.nprocs() as u64;
                let slots = p.alloc(8 * n);
                let mine = p.alloc(8);
                p.write_f64(mine, f64::from(p.rank().0 + 1));
                coll.barrier().await;
                // Everyone stores its value into everyone's slot array.
                for r in 0..n {
                    let dst = GlobalPtr {
                        proc: ProcId(r as u32),
                        addr: slots.index(u64::from(p.rank().0), 8),
                    };
                    sc.store(mine, dst, 8).await;
                }
                sc.all_store_sync(&coll).await;
                let total: f64 = (0..n).map(|r| p.read_f64(slots.index(r, 8))).sum();
                assert_eq!(total, (n * (n + 1) / 2) as f64, "{}", d.name);
                coll.barrier().await;
            });
        }
    }

    #[test]
    fn blocking_scalar_and_bulk_round_trip() {
        run_sc(MP2, 2, |p, sc, coll| async move {
            let cell = p.alloc(8);
            let buf = p.alloc(256);
            coll.barrier().await;
            let peer = ProcId(1 - p.rank().0);
            let remote_cell = GlobalPtr {
                proc: peer,
                addr: cell,
            };
            if p.rank().0 == 0 {
                let (out, back) = (p.alloc(8), p.alloc(8));
                p.write_f64(out, 42.5);
                sc.bulk_put(out, remote_cell, 8).await;
                sc.bulk_get(remote_cell, back, 8).await;
                assert_eq!(p.read_f64(back), 42.5);
                // Bulk put then read back.
                for i in 0..32u64 {
                    p.write_f64(buf.index(i, 8), i as f64);
                }
                sc.bulk_put(
                    buf,
                    GlobalPtr {
                        proc: peer,
                        addr: buf,
                    },
                    256,
                )
                .await;
                let check = p.alloc(256);
                sc.bulk_get(
                    GlobalPtr {
                        proc: peer,
                        addr: buf,
                    },
                    check,
                    256,
                )
                .await;
                for i in 0..32u64 {
                    assert_eq!(p.read_f64(check.index(i, 8)), i as f64);
                }
                // Release the peer from its service loop.
                p.write_f64(out, -1.0);
                sc.bulk_put(out, remote_cell, 8).await;
            } else {
                // Service requests until the sentinel lands.
                let me = p.clone();
                sc.am.poll_while(move || me.read_f64(cell) == -1.0).await;
            }
            coll.barrier().await;
        });
    }

    #[test]
    fn local_fast_paths() {
        run_sc(MP2, 1, |p, sc, _coll| async move {
            let a = p.alloc(64);
            let me = GlobalPtr {
                proc: p.rank(),
                addr: a,
            };
            p.write_f64(a, 7.25);
            let b = p.alloc(64);
            sc.bulk_get(me, b, 64).await;
            assert_eq!(p.read_f64(b), 7.25);
            let c = p.alloc(64);
            let to_c = GlobalPtr {
                proc: p.rank(),
                addr: c,
            };
            sc.bulk_put(b, to_c, 64).await;
            assert_eq!(p.read_f64(c), 7.25);
        });
    }
}
