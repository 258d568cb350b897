//! The collective communication library (Section 5.1): barriers, scans,
//! reductions and broadcasts built on RMA and RQ.
//!
//! Waits optionally service an [`Am`] endpoint so that coherence layers
//! (CRL) and request/reply applications stay deadlock-free inside
//! collectives: a process blocked in a barrier keeps answering requests.

use std::cell::Cell;
use std::rc::Rc;

use mproxy::{Addr, Proc, ProcId, SyncFlag};

use crate::am::Am;

/// Rounds of the dissemination barrier / binomial trees for `n` ranks.
fn ceil_log2(n: usize) -> usize {
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

struct CollState {
    n: usize,
    rounds: usize,
    barrier_flags: Vec<SyncFlag>,
    barrier_gen: Cell<u64>,
    bcast_flag: SyncFlag,
    bcast_gen: Cell<u64>,
    gather_flag: SyncFlag,
    result_flag: SyncFlag,
    reduce_gen: Cell<u64>,
    /// 1-byte token PUT around by the barrier.
    token: Addr,
    /// `n` 8-byte slots gathered at the root.
    gather: Addr,
    /// `n` 8-byte outgoing slots at the root (per-peer, so a slot is never
    /// rewritten while an earlier PUT may still read it).
    prefix: Addr,
    /// 8-byte outgoing value.
    value: Addr,
    /// 8-byte result delivered back by the root.
    result: Addr,
}

/// Collective operations over all processes of the cluster.
///
/// Every rank must call each collective the same number of times in the
/// same order (standard SPMD discipline); flags and staging buffers are
/// allocated deterministically at construction.
#[derive(Clone)]
pub struct Coll {
    p: Proc,
    am: Option<Am>,
    st: Rc<CollState>,
}

impl Coll {
    /// Creates the collective context. Pass the process's [`Am`] endpoint
    /// if it has one, so waits keep servicing incoming requests.
    #[must_use]
    pub fn new(p: &Proc, am: Option<Am>) -> Coll {
        let n = p.nprocs();
        let rounds = if n > 1 { ceil_log2(n) } else { 0 };
        let barrier_flags = (0..rounds.max(1)).map(|_| p.new_flag()).collect();
        let bcast_flag = p.new_flag();
        let gather_flag = p.new_flag();
        let result_flag = p.new_flag();
        let token = p.alloc(8);
        let gather = p.alloc(8 * n as u64);
        let prefix = p.alloc(8 * n as u64);
        let value = p.alloc(8);
        let result = p.alloc(8);
        Coll {
            p: p.clone(),
            am,
            st: Rc::new(CollState {
                n,
                rounds,
                barrier_flags,
                barrier_gen: Cell::new(0),
                bcast_flag,
                bcast_gen: Cell::new(0),
                gather_flag,
                result_flag,
                reduce_gen: Cell::new(0),
                token,
                gather,
                prefix,
                value,
                result,
            }),
        }
    }

    async fn wait(&self, flag: &SyncFlag, target: u64) {
        match &self.am {
            Some(am) => {
                let f = flag.clone();
                am.poll_while(|| f.count() >= target).await;
            }
            None => self.p.wait_flag(flag, target).await,
        }
    }

    /// Dissemination barrier: `ceil(log2 n)` rounds, any `n`.
    pub async fn barrier(&self) {
        let st = &self.st;
        if st.n == 1 {
            return;
        }
        let gen = st.barrier_gen.get() + 1;
        st.barrier_gen.set(gen);
        let me = self.p.rank().0 as usize;
        for r in 0..st.rounds {
            let peer = ProcId(((me + (1 << r)) % st.n) as u32);
            let rflag = self.p.remote_flag(peer, st.barrier_flags[r].id());
            self.p
                .put(st.token, peer.into(), st.token, 1, None, Some(rflag))
                .await
                .expect("barrier put failed");
            self.wait(&st.barrier_flags[r], gen).await;
        }
    }

    /// Binomial-tree broadcast of `nbytes` at symmetric address `addr`
    /// from `root` to every rank.
    pub async fn broadcast(&self, root: ProcId, addr: Addr, nbytes: u32) {
        let st = &self.st;
        if st.n == 1 {
            return;
        }
        let gen = st.bcast_gen.get() + 1;
        st.bcast_gen.set(gen);
        let me = self.p.rank().0 as usize;
        let rel = (me + st.n - root.0 as usize) % st.n;
        if rel != 0 {
            self.wait(&st.bcast_flag, gen).await;
        }
        for r in 0..st.rounds {
            if rel < (1 << r) && rel + (1 << r) < st.n {
                let peer = ProcId(((rel + (1 << r) + root.0 as usize) % st.n) as u32);
                let rflag = self.p.remote_flag(peer, st.bcast_flag.id());
                self.p
                    .put(addr, peer.into(), addr, nbytes, None, Some(rflag))
                    .await
                    .expect("broadcast put failed");
            }
        }
    }

    /// All-reduce over one `f64` per rank: values are gathered at rank 0
    /// (combined in rank order, so non-associative effects are
    /// deterministic), and the result is broadcast back.
    async fn allreduce_f64(&self, v: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        let st = &self.st;
        if st.n == 1 {
            return v;
        }
        let gen = st.reduce_gen.get() + 1;
        st.reduce_gen.set(gen);
        let me = self.p.rank().0 as usize;
        self.p.with_mem_mut(|m| m.write_f64(st.value, v));
        let root = ProcId(0);
        if me != 0 {
            let slot = st.gather.index(me as u64, 8);
            let rflag = self.p.remote_flag(root, st.gather_flag.id());
            self.p
                .put(st.value, root.into(), slot, 8, None, Some(rflag))
                .await
                .expect("reduce put failed");
            self.wait(&st.result_flag, gen).await;
            return self.p.read_f64(st.result);
        }
        // Root: wait for n-1 contributions of this generation.
        self.wait(&st.gather_flag, gen * (st.n as u64 - 1)).await;
        let mut acc = v;
        for r in 1..st.n {
            acc = op(acc, self.p.read_f64(st.gather.index(r as u64, 8)));
        }
        self.p.with_mem_mut(|m| m.write_f64(st.result, acc));
        for r in 1..st.n {
            let peer = ProcId(r as u32);
            let rflag = self.p.remote_flag(peer, st.result_flag.id());
            self.p
                .put(st.result, peer.into(), st.result, 8, None, Some(rflag))
                .await
                .expect("reduce result put failed");
        }
        acc
    }

    /// All-reduce sum.
    pub async fn allreduce_sum(&self, v: f64) -> f64 {
        self.allreduce_f64(v, |a, b| a + b).await
    }

    /// All-reduce max.
    pub async fn allreduce_max(&self, v: f64) -> f64 {
        self.allreduce_f64(v, f64::max).await
    }

    /// Exclusive prefix sum of one `u64` per rank (rank 0 gets 0).
    pub async fn exscan_sum_u64(&self, v: u64) -> u64 {
        let st = &self.st;
        if st.n == 1 {
            return 0;
        }
        let gen = st.reduce_gen.get() + 1;
        st.reduce_gen.set(gen);
        let me = self.p.rank().0 as usize;
        self.p.with_mem_mut(|m| m.write_u64(st.value, v));
        let root = ProcId(0);
        if me != 0 {
            let slot = st.gather.index(me as u64, 8);
            let rflag = self.p.remote_flag(root, st.gather_flag.id());
            self.p
                .put(st.value, root.into(), slot, 8, None, Some(rflag))
                .await
                .expect("scan put failed");
            self.wait(&st.result_flag, gen).await;
            return self.p.read_u64(st.result);
        }
        self.wait(&st.gather_flag, gen * (st.n as u64 - 1)).await;
        let mut acc = v;
        for r in 1..st.n {
            let x = self.p.read_u64(st.gather.index(r as u64, 8));
            // Send the prefix *excluding* rank r's own value, from a
            // per-peer slot (the proxy reads the source lazily).
            let peer = ProcId(r as u32);
            let slot = st.prefix.index(r as u64, 8);
            self.p.with_mem_mut(|m| m.write_u64(slot, acc));
            let rflag = self.p.remote_flag(peer, st.result_flag.id());
            self.p
                .put(slot, peer.into(), st.result, 8, None, Some(rflag))
                .await
                .expect("scan result put failed");
            acc += x;
        }
        0
    }
}

impl std::fmt::Debug for Coll {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coll")
            .field("proc", &self.p.rank())
            .field("n", &self.st.n)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mproxy::{Cluster, ClusterSpec};
    use mproxy_des::Simulation;
    use mproxy_model::{ALL_DESIGN_POINTS, MP1};
    use std::cell::RefCell;

    fn run_collective<F, Fut>(design: mproxy_model::DesignPoint, n: usize, body: F)
    where
        F: Fn(Proc, Coll) -> Fut,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let sim = Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(design, n, 1)).unwrap();
        cluster.spawn_spmd(move |p| {
            let coll = Coll::new(&p, None);
            body(p, coll)
        });
        let report = cluster.run(&sim);
        assert!(report.completed_cleanly(), "collective deadlocked");
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(16), 4);
    }

    #[test]
    fn barrier_synchronizes_uneven_arrivals() {
        let times = Rc::new(RefCell::new(Vec::new()));
        let probe = Rc::clone(&times);
        run_collective(MP1, 4, move |p, coll| {
            let probe = Rc::clone(&probe);
            async move {
                // Rank r arrives 50r µs late; all must leave together.
                p.compute_us(50.0 * f64::from(p.rank().0)).await;
                coll.barrier().await;
                probe.borrow_mut().push(p.now().as_us());
            }
        });
        let times = times.borrow();
        assert_eq!(times.len(), 4);
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(min >= 150.0, "nobody may leave before the slowest arrives");
        assert!(max - min < 120.0, "exit skew too large: {times:?}");
    }

    #[test]
    fn repeated_barriers_stay_in_step() {
        run_collective(MP1, 3, |p, coll| async move {
            for gen in 0..5u32 {
                p.compute_us(f64::from((p.rank().0 * 7 + gen) % 11)).await;
                coll.barrier().await;
            }
        });
    }

    #[test]
    fn broadcast_delivers_payload_from_any_root() {
        for root in [0u32, 2] {
            let seen = Rc::new(RefCell::new(Vec::new()));
            let probe = Rc::clone(&seen);
            run_collective(MP1, 5, move |p, coll| {
                let probe = Rc::clone(&probe);
                async move {
                    let buf = p.alloc(16);
                    if p.rank().0 == root {
                        p.write_u64(buf, 0xfeed + u64::from(root));
                    }
                    p.ctx().yield_now().await;
                    coll.broadcast(ProcId(root), buf, 16).await;
                    probe.borrow_mut().push(p.read_u64(buf));
                }
            });
            let seen = seen.borrow();
            assert_eq!(seen.len(), 5);
            assert!(seen.iter().all(|&v| v == 0xfeed + u64::from(root)));
        }
    }

    #[test]
    fn allreduce_sum_and_max_across_design_points() {
        for d in ALL_DESIGN_POINTS {
            let sums = Rc::new(RefCell::new(Vec::new()));
            let probe = Rc::clone(&sums);
            run_collective(d, 4, move |p, coll| {
                let probe = Rc::clone(&probe);
                async move {
                    let v = f64::from(p.rank().0 + 1);
                    let s = coll.allreduce_sum(v).await;
                    let m = coll.allreduce_max(v).await;
                    probe.borrow_mut().push((s, m));
                }
            });
            for &(s, m) in sums.borrow().iter() {
                assert_eq!(s, 10.0, "{}", d.name);
                assert_eq!(m, 4.0, "{}", d.name);
            }
        }
    }

    #[test]
    fn exscan_is_exclusive_prefix_sum() {
        let out = Rc::new(RefCell::new(Vec::new()));
        let probe = Rc::clone(&out);
        run_collective(MP1, 6, move |p, coll| {
            let probe = Rc::clone(&probe);
            async move {
                let v = u64::from(p.rank().0) + 1; // 1,2,3,4,5,6
                let s = coll.exscan_sum_u64(v).await;
                probe.borrow_mut().push((p.rank().0, s));
            }
        });
        let mut out = out.borrow().clone();
        out.sort();
        assert_eq!(out, vec![(0, 0), (1, 1), (2, 3), (3, 6), (4, 10), (5, 15)]);
    }

    #[test]
    fn single_process_collectives_are_noops() {
        run_collective(MP1, 1, |_, coll| async move {
            coll.barrier().await;
            coll.broadcast(ProcId(0), Addr(0), 1).await;
            assert_eq!(coll.allreduce_sum(3.5).await, 3.5);
            assert_eq!(coll.exscan_sum_u64(9).await, 0);
        });
    }
}
