//! Micro-benchmarks (Table 4 and Figure 7).
//!
//! Each function builds a fresh two-node cluster at a design point, runs a
//! measurement loop inside the simulator, and reports averages:
//!
//! * [`run_micro`] — PUT/GET latency, compute-processor overhead and peak
//!   bandwidth (four of Table 4's five rows; the AM row lives in
//!   `mproxy-am`).
//! * [`pingpong_put`] — latency/bandwidth versus message size (Figure 7).

use std::cell::RefCell;
use std::rc::Rc;

use mproxy_des::{RunReport, Simulation};
use mproxy_model::DesignPoint;
use mproxy_simnet::FaultPlan;

use crate::addr::{Asid, ProcId};
use crate::cluster::{Cluster, ClusterSpec, FaultReport};
use crate::engine::reliable::LinkSnapshot;
use crate::error::CommError;

/// Results of [`run_micro`], in the units of Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroResult {
    /// PUT latency to local-sync completion, µs.
    pub put_rt_us: f64,
    /// One-word GET latency, µs.
    pub get_us: f64,
    /// Compute-processor overhead of a PUT with completion detection, µs.
    pub overhead_us: f64,
    /// Peak PUT bandwidth on large messages, MB/s.
    pub peak_bw_mbs: f64,
}

/// One point of a Figure 7 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingPongPoint {
    /// Message payload size, bytes.
    pub bytes: u32,
    /// One-way latency, µs.
    pub latency_us: f64,
    /// Achieved bandwidth, MB/s.
    pub bandwidth_mbs: f64,
}

const WARMUP: u64 = 4;

/// Runs the Table 4 micro-benchmarks at `design`.
///
/// # Examples
///
/// ```
/// use mproxy::micro::run_micro;
/// use mproxy_model::{HW1, MP1};
///
/// let hw = run_micro(HW1);
/// let mp = run_micro(MP1);
/// // Message proxies trade ~2.5x latency for commodity hardware.
/// assert!(mp.get_us > 1.5 * hw.get_us);
/// ```
#[must_use]
pub fn run_micro(design: DesignPoint) -> MicroResult {
    let reps: u64 = 32;
    let (put_rt_us, overhead_us) = put_latency_and_overhead(design, reps);
    let get_us = get_latency(design, reps);
    let peak_bw_mbs = peak_bandwidth(design);
    MicroResult {
        put_rt_us,
        get_us,
        overhead_us,
        peak_bw_mbs,
    }
}

fn two_node_cluster(design: DesignPoint) -> (Simulation, Cluster) {
    let sim = Simulation::new();
    let cluster =
        Cluster::new(&sim.ctx(), ClusterSpec::new(design, 2, 1)).expect("valid micro spec");
    (sim, cluster)
}

fn put_latency_and_overhead(design: DesignPoint, reps: u64) -> (f64, f64) {
    let (sim, cluster) = two_node_cluster(design);
    let out = Rc::new(RefCell::new((0.0, 0.0)));
    let probe = Rc::clone(&out);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(64);
            // Let every rank finish allocating before anyone validates.
            p.ctx().yield_now().await;
            if p.rank() != ProcId(0) {
                return;
            }
            let f = p.new_flag();
            // Warm-up reps to fill allocator/queue state.
            for i in 0..WARMUP {
                p.put(buf, Asid(1), buf, 8, Some(&f), None).await.unwrap();
                p.wait_flag(&f, i + 1).await;
            }
            let t0 = p.now();
            let busy0 = 0.0; // cpu busy measured via utilization deltas below
            let _ = busy0;
            for i in 0..reps {
                p.put(buf, Asid(1), buf, 8, Some(&f), None).await.unwrap();
                p.wait_flag(&f, WARMUP + i + 1).await;
            }
            let elapsed = p.now().since(t0);
            probe.borrow_mut().0 = elapsed.as_us() / reps as f64;
        }
    });
    // Measure CPU busy time attributable to communication over the whole
    // run (no compute phases are issued, so all rank-0 CPU time is
    // overhead).
    let cpu = cluster.proc(ProcId(0));
    let _ = cpu;
    let report = cluster.run(&sim);
    assert!(report.completed_cleanly(), "micro benchmark deadlocked");
    let total_ops = WARMUP + reps;
    let busy = cluster.cpu_busy_us(ProcId(0));
    let overhead = busy / total_ops as f64;
    let latency = out.borrow().0;
    (latency, overhead)
}

fn get_latency(design: DesignPoint, reps: u64) -> f64 {
    let (sim, cluster) = two_node_cluster(design);
    let out = Rc::new(RefCell::new(0.0));
    let probe = Rc::clone(&out);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(64);
            // Let every rank finish allocating before anyone validates.
            p.ctx().yield_now().await;
            if p.rank() != ProcId(0) {
                return;
            }
            let f = p.new_flag();
            for i in 0..WARMUP {
                p.get(buf, Asid(1), buf, 8, Some(&f), None).await.unwrap();
                p.wait_flag(&f, i + 1).await;
            }
            let t0 = p.now();
            for i in 0..reps {
                p.get(buf, Asid(1), buf, 8, Some(&f), None).await.unwrap();
                p.wait_flag(&f, WARMUP + i + 1).await;
            }
            *probe.borrow_mut() = p.now().since(t0).as_us() / reps as f64;
        }
    });
    let report = cluster.run(&sim);
    assert!(report.completed_cleanly(), "micro benchmark deadlocked");
    let v = *out.borrow();
    v
}

fn peak_bandwidth(design: DesignPoint) -> f64 {
    let (sim, cluster) = two_node_cluster(design);
    let out = Rc::new(RefCell::new(0.0));
    let probe = Rc::clone(&out);
    const MSG: u32 = 256 * 1024;
    const N: u64 = 8;
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(u64::from(MSG));
            p.ctx().yield_now().await;
            if p.rank() != ProcId(0) {
                return;
            }
            let f = p.new_flag();
            let t0 = p.now();
            for _ in 0..N {
                p.put(buf, Asid(1), buf, MSG, Some(&f), None).await.unwrap();
            }
            p.wait_flag(&f, N).await;
            let elapsed = p.now().since(t0).as_us();
            *probe.borrow_mut() = (u64::from(MSG) * N) as f64 / elapsed;
        }
    });
    let report = cluster.run(&sim);
    assert!(report.completed_cleanly(), "bandwidth benchmark deadlocked");
    let v = *out.borrow();
    v
}

/// Runs the Figure 7 PUT ping-pong at each payload size: rank 0 PUTs to
/// rank 1 (setting a flag there); rank 1 replies in kind. One-way latency
/// is half the round trip. Each point is a fault-free
/// [`pingpong_verified`] run: its marker words are memory reads and
/// writes, which cost no simulated time.
#[must_use]
pub fn pingpong_put(design: DesignPoint, sizes: &[u32], reps: u64) -> Vec<PingPongPoint> {
    sizes
        .iter()
        .map(|&bytes| {
            let run = pingpong_verified(design, bytes, reps, None);
            assert!(run.data_ok && run.error.is_none(), "ping-pong failed");
            let latency_us = run.rt_us / 2.0;
            PingPongPoint {
                bytes,
                latency_us,
                bandwidth_mbs: f64::from(bytes) / latency_us,
            }
        })
        .collect()
}

/// Results of [`pingpong_verified`].
#[derive(Debug, Clone)]
pub struct VerifiedPingPong {
    /// Round trips completed by rank 0.
    pub rounds: u64,
    /// Average round-trip time over completed rounds, µs.
    pub rt_us: f64,
    /// True iff every payload word arrived with the expected value at both
    /// ends — the exactly-once, in-order check.
    pub data_ok: bool,
    /// The first communication failure either rank observed, if any.
    pub error: Option<CommError>,
    /// Injected faults and link-layer recovery counters.
    pub report: FaultReport,
    /// Final per-node link snapshots — epoch plus per-peer (peer, last
    /// sequence sent, next expected) — for crash-recovery determinism
    /// checks. Empty when the run had no fault plan.
    pub epochs: Vec<LinkSnapshot>,
    /// The simulator's own run report — event and task counts, used by
    /// the performance harness to compute events/sec.
    pub sim: RunReport,
}

/// The Figure 7 PUT ping-pong with end-to-end payload verification,
/// optionally on a faulty network. Each round carries a distinct marker
/// word that both ranks check on receipt, so dropped, duplicated,
/// reordered, or stale deliveries are detected as data mismatches rather
/// than hidden by timing.
#[must_use]
pub fn pingpong_verified(
    design: DesignPoint,
    bytes: u32,
    reps: u64,
    plan: Option<FaultPlan>,
) -> VerifiedPingPong {
    assert!(
        bytes >= 8,
        "verified ping-pong needs room for a marker word"
    );
    let sim = Simulation::new();
    let spec = ClusterSpec::new(design, 2, 1);
    let cluster = match plan {
        Some(plan) => Cluster::new_with_faults(&sim.ctx(), spec, plan),
        None => Cluster::new(&sim.ctx(), spec),
    }
    .expect("valid verified ping-pong spec");

    // Marker words: rank 0 sends PING|i, rank 1 replies PONG|i.
    const PING: u64 = 0x5EED_0000_0000_0000;
    const PONG: u64 = 0xB0B0_0000_0000_0000;

    let out = Rc::new(RefCell::new((0u64, 0.0f64, true, None::<CommError>)));
    let probe = Rc::clone(&out);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(u64::from(bytes).max(64));
            let f = p.new_flag();
            p.ctx().yield_now().await;
            let me = p.rank().0;
            let peer = Asid(1 - me);
            let peer_flag = p.remote_flag(ProcId(1 - me), f.id());
            if me == 0 {
                let t0 = p.now();
                for i in 0..reps {
                    p.write_u64(buf, PING | i);
                    if let Err(e) = p.put(buf, peer, buf, bytes, None, Some(peer_flag)).await {
                        probe.borrow_mut().3.get_or_insert(e);
                        break;
                    }
                    if let Err(e) = p.wait_flag_result(&f, i + 1).await {
                        probe.borrow_mut().3.get_or_insert(e);
                        break;
                    }
                    let mut o = probe.borrow_mut();
                    if p.read_u64(buf) != (PONG | i) {
                        o.2 = false;
                    }
                    o.0 = i + 1;
                    o.1 = p.now().since(t0).as_us() / (i + 1) as f64;
                }
            } else {
                for i in 0..reps {
                    if let Err(e) = p.wait_flag_result(&f, i + 1).await {
                        probe.borrow_mut().3.get_or_insert(e);
                        break;
                    }
                    if p.read_u64(buf) != (PING | i) {
                        probe.borrow_mut().2 = false;
                    }
                    p.write_u64(buf, PONG | i);
                    if let Err(e) = p.put(buf, peer, buf, bytes, None, Some(peer_flag)).await {
                        probe.borrow_mut().3.get_or_insert(e);
                        break;
                    }
                }
            }
        }
    });
    let run = cluster.run(&sim);
    let (rounds, rt_us, data_ok, error) = out.borrow().clone();
    // When one side is failed by the fabric, its peer — which has no
    // submission of its own to be failed on — legitimately never finishes
    // its wait; the error is the result then, not a hung harness.
    assert!(
        run.completed_cleanly() || error.is_some(),
        "verified ping-pong hung"
    );
    VerifiedPingPong {
        rounds,
        rt_us,
        data_ok,
        error,
        report: cluster.fault_report(),
        epochs: (0..2).filter_map(|n| cluster.link_snapshot(n)).collect(),
        sim: run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mproxy_model::{paper_table4, ALL_DESIGN_POINTS, HW1, MP0, MP1, MP2, SW1};

    fn rel_err(a: f64, b: f64) -> f64 {
        (a - b).abs() / b
    }

    #[test]
    fn simulated_latencies_track_paper_table4() {
        for d in ALL_DESIGN_POINTS {
            let m = run_micro(d);
            let t = paper_table4(d.name).unwrap();
            assert!(
                rel_err(m.get_us, t.get_us) < 0.15,
                "{}: GET sim {:.2} vs paper {:.2}",
                d.name,
                m.get_us,
                t.get_us
            );
            assert!(
                rel_err(m.put_rt_us, t.put_rt_us) < 0.15,
                "{}: PUT* sim {:.2} vs paper {:.2}",
                d.name,
                m.put_rt_us,
                t.put_rt_us
            );
            assert!(
                rel_err(m.peak_bw_mbs, t.peak_bw_mbs) < 0.15,
                "{}: BW sim {:.1} vs paper {:.1}",
                d.name,
                m.peak_bw_mbs,
                t.peak_bw_mbs
            );
        }
    }

    #[test]
    fn cache_update_improves_proxy_latency_about_forty_percent() {
        let mp1 = run_micro(MP1);
        let mp2 = run_micro(MP2);
        let gain = (mp1.get_us - mp2.get_us) / mp1.get_us;
        assert!(
            (0.25..=0.5).contains(&gain),
            "expected ~40% gain, got {:.1}%",
            gain * 100.0
        );
    }

    #[test]
    fn overheads_ordered_hw_mp2_mp_sw() {
        let hw = run_micro(HW1).overhead_us;
        let mp = run_micro(MP1).overhead_us;
        let mp2 = run_micro(MP2).overhead_us;
        let sw = run_micro(SW1).overhead_us;
        assert!(mp2 < mp, "cache update must cut overhead: {mp2} vs {mp}");
        assert!(mp > hw, "proxy overhead above custom hardware");
        assert!(sw > 3.0 * mp, "syscall overhead dominates: {sw} vs {mp}");
    }

    #[test]
    fn verified_pingpong_survives_faults_exactly_once() {
        let clean = pingpong_verified(MP1, 64, 16, None);
        assert_eq!(clean.rounds, 16);
        assert!(clean.data_ok && clean.error.is_none());
        assert_eq!(clean.report, FaultReport::default());

        let plan = FaultPlan::new(7)
            .drop(0.05)
            .duplicate(0.02)
            .reorder(0.05, 30.0)
            .corrupt(0.01);
        let faulty = pingpong_verified(MP1, 64, 16, Some(plan));
        assert_eq!(faulty.rounds, 16, "faulty run must still finish");
        assert!(faulty.data_ok, "payloads must arrive exactly-once in-order");
        assert!(faulty.error.is_none());
        assert!(faulty.report.injected.packets > 0);
        // Whatever was injected was recovered, so the run took no less
        // time than the clean one.
        assert!(faulty.rt_us >= clean.rt_us);
    }

    #[test]
    fn pingpong_latency_grows_with_size_and_bw_saturates() {
        let pts = pingpong_put(MP0, &[8, 256, 4096, 65536], 4);
        assert!(pts.windows(2).all(|w| w[0].latency_us < w[1].latency_us));
        // Large-message bandwidth approaches the pinning-limited peak.
        let big = pts.last().unwrap();
        assert!(
            (15.0..=25.0).contains(&big.bandwidth_mbs),
            "bw = {}",
            big.bandwidth_mbs
        );
    }
}
