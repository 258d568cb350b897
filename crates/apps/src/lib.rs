//! # mproxy-apps — the paper's application suite (Table 5)
//!
//! Ten parallel applications in three programming styles, reimplemented as
//! real (scaled) algorithms running execution-driven on the simulated
//! cluster:
//!
//! | app | style | communication signature |
//! |---|---|---|
//! | Moldy     | native RMA | broadcast of concatenated vectors (large PUTs) |
//! | LU        | CRL        | blocked LU, coherence traffic on 800-byte blocks |
//! | Barnes-Hut| CRL        | hierarchical n-body, cached reads + per-step updates |
//! | Water     | CRL        | n² molecular dynamics, read-mostly sharing |
//! | MM        | Split-C    | blocked matmul, bulk block fetches |
//! | FFT       | Split-C    | bulk all-to-all transpose |
//! | Sample    | Split-C/AM | per-key `am_request` exchange (two doubles per message) |
//! | Sampleb   | Split-C    | sample sort with bulk transfers |
//! | P-Ray     | Split-C    | ray tracer, small infrequent reads |
//! | Wator     | Split-C    | fish n-body, frequent small GETs |
//!
//! Every app returns a checksum that is identical across design points
//! (the architecture changes *when* things happen, never *what* is
//! computed) — the suite doubles as an end-to-end correctness test of the
//! whole communication stack.
//!
//! # Examples
//!
//! ```
//! use mproxy_apps::{run_app, AppId, AppSize};
//! use mproxy_model::{HW1, MP1};
//!
//! let hw = run_app(AppId::Sample, HW1, 4, 1, AppSize::Tiny);
//! let mp = run_app(AppId::Sample, MP1, 4, 1, AppSize::Tiny);
//! assert_eq!(hw.checksum, mp.checksum); // same answer...
//! assert!(mp.elapsed_us > hw.elapsed_us); // ...different time
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;

mod barnes;
mod fft;
mod lu;
mod mm;
mod moldy;
mod pray;
mod sample;
mod water;
mod wator;

use std::cell::RefCell;
use std::rc::Rc;

use mproxy::{Cluster, ClusterSpec, FaultPlan, FaultReport, TrafficReport};
use mproxy_des::{RunReport, Simulation};
use mproxy_model::DesignPoint;

pub use common::{AppSize, World};

/// The ten applications of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// Monte-Carlo molecular dynamics (native RMA).
    Moldy,
    /// Blocked LU factorization (CRL).
    Lu,
    /// Hierarchical n-body (CRL).
    Barnes,
    /// n² molecular dynamics (CRL).
    Water,
    /// Blocked matrix multiplication (Split-C).
    Mm,
    /// 1-D FFT with bulk transpose (Split-C).
    Fft,
    /// Sample sort with per-key active messages (Split-C).
    Sample,
    /// Sample sort with bulk transfers (Split-C).
    Sampleb,
    /// Ray tracer (Split-C).
    PRay,
    /// Fish n-body simulation (Split-C).
    Wator,
}

impl AppId {
    /// All ten, in the paper's listing order.
    pub const ALL: [AppId; 10] = [
        AppId::Moldy,
        AppId::Lu,
        AppId::Barnes,
        AppId::Water,
        AppId::Mm,
        AppId::Fft,
        AppId::Sample,
        AppId::Sampleb,
        AppId::PRay,
        AppId::Wator,
    ];

    /// Display name as used in the paper.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AppId::Moldy => "Moldy",
            AppId::Lu => "LU",
            AppId::Barnes => "Barnes-Hut",
            AppId::Water => "Water",
            AppId::Mm => "MM",
            AppId::Fft => "FFT",
            AppId::Sample => "Sample",
            AppId::Sampleb => "Sampleb",
            AppId::PRay => "P-Ray",
            AppId::Wator => "Wator",
        }
    }

    /// Programming style (Table 5 grouping).
    #[must_use]
    pub fn style(&self) -> &'static str {
        match self {
            AppId::Moldy => "native RMA",
            AppId::Lu | AppId::Barnes | AppId::Water => "CRL",
            _ => "Split-C",
        }
    }
}

/// Result of one application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Simulated execution time of the timed section, µs.
    pub elapsed_us: f64,
    /// Design-point-independent checksum of the computed answer.
    pub checksum: f64,
    /// Cluster-wide traffic statistics (Table 6 inputs).
    pub traffic: TrafficReport,
    /// Injected faults and link-layer recovery counters (all-zero for
    /// runs without a fault plan).
    pub faults: FaultReport,
    /// The simulator's own run report — event and task counts, used by
    /// the performance harness to compute events/sec.
    pub sim: RunReport,
}

/// Runs `app` on a `nodes`×`procs_per_node` cluster at `design`,
/// returning timing, checksum and traffic.
///
/// # Panics
///
/// Panics if the cluster spec is invalid or the run deadlocks.
#[must_use]
pub fn run_app(
    app: AppId,
    design: DesignPoint,
    nodes: usize,
    procs_per_node: usize,
    size: AppSize,
) -> AppRun {
    run_app_inner(app, design, nodes, procs_per_node, size, None)
}

/// Like [`run_app`], but on a faulty network described by `plan`. The
/// reliable link layer must make the run produce the same checksum as a
/// fault-free one — only the timing (and the fault report) may differ.
///
/// # Panics
///
/// As for [`run_app`].
#[must_use]
pub fn run_app_faulty(
    app: AppId,
    design: DesignPoint,
    nodes: usize,
    procs_per_node: usize,
    size: AppSize,
    plan: FaultPlan,
) -> AppRun {
    run_app_inner(app, design, nodes, procs_per_node, size, Some(plan))
}

fn run_app_inner(
    app: AppId,
    design: DesignPoint,
    nodes: usize,
    procs_per_node: usize,
    size: AppSize,
    plan: Option<FaultPlan>,
) -> AppRun {
    let sim = Simulation::new();
    let spec = ClusterSpec::new(design, nodes, procs_per_node);
    let cluster = match plan {
        Some(plan) => Cluster::new_with_faults(&sim.ctx(), spec, plan),
        None => Cluster::new(&sim.ctx(), spec),
    }
    .unwrap_or_else(|e| panic!("bad cluster spec: {e}"));
    let out: Rc<RefCell<(f64, f64)>> = Rc::new(RefCell::new((0.0, 0.0)));
    let probe = Rc::clone(&out);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let w = World::new(&p);
            // Everyone finishes construction before anyone communicates.
            w.p.ctx().yield_now().await;
            w.coll.barrier().await;
            let t0 = w.p.now();
            let local = match app {
                AppId::Moldy => moldy::run(&w, size).await,
                AppId::Lu => lu::run(&w, size).await,
                AppId::Barnes => barnes::run(&w, size).await,
                AppId::Water => water::run(&w, size).await,
                AppId::Mm => mm::run(&w, size).await,
                AppId::Fft => fft::run(&w, size).await,
                AppId::Sample => sample::run(&w, size, false).await,
                AppId::Sampleb => sample::run(&w, size, true).await,
                AppId::PRay => pray::run(&w, size).await,
                AppId::Wator => wator::run(&w, size).await,
            };
            let sum = w.coll.allreduce_sum(local).await;
            w.coll.barrier().await;
            if w.me() == 0 {
                let elapsed = w.p.now().since(t0).as_us();
                *probe.borrow_mut() = (elapsed, sum);
            }
        }
    });
    let report = cluster.run(&sim);
    assert!(
        report.completed_cleanly(),
        "{} deadlocked on {} ({} tasks pending)",
        app.name(),
        design.name,
        report.pending
    );
    let traffic = cluster.traffic_report();
    let (elapsed_us, checksum) = *out.borrow();
    AppRun {
        elapsed_us,
        checksum,
        traffic,
        faults: cluster.fault_report(),
        sim: report,
    }
}

/// Convenience: run on `procs` single-compute-processor nodes (the Figure
/// 8 configuration).
#[must_use]
pub fn run_app_flat(app: AppId, design: DesignPoint, procs: usize, size: AppSize) -> AppRun {
    run_app(app, design, procs, 1, size)
}

/// Convenience: [`run_app_faulty`] on `procs` single-compute-processor
/// nodes.
#[must_use]
pub fn run_app_flat_faulty(
    app: AppId,
    design: DesignPoint,
    procs: usize,
    size: AppSize,
    plan: FaultPlan,
) -> AppRun {
    run_app_faulty(app, design, procs, 1, size, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mproxy_model::{HW1, MP1, MP2, SW1};

    #[test]
    fn all_apps_run_and_agree_across_design_points() {
        // The architecture must change timing, never answers.
        for app in AppId::ALL {
            let base = run_app_flat(app, HW1, 2, AppSize::Tiny);
            assert!(base.elapsed_us > 0.0, "{} ran in zero time", app.name());
            assert!(
                base.traffic.total_ops > 0,
                "{} never communicated",
                app.name()
            );
            for d in [MP1, SW1] {
                let other = run_app_flat(app, d, 2, AppSize::Tiny);
                assert_eq!(
                    other.checksum,
                    base.checksum,
                    "{} answer differs between HW1 and {}",
                    app.name(),
                    d.name
                );
            }
        }
    }

    #[test]
    fn checksums_stable_across_processor_counts() {
        // Partitioning must not change results (phase-barriered apps).
        for app in AppId::ALL {
            let p2 = run_app_flat(app, MP1, 2, AppSize::Tiny);
            let p4 = run_app_flat(app, MP1, 4, AppSize::Tiny);
            // Barnes-Hut's near/far force split follows the rank topology
            // (like tree-opening granularity), so its *approximation* is
            // allowed to drift slightly with P; everything else is exact.
            let rel = if app == AppId::Barnes { 1e-5 } else { 1e-9 };
            let tol = (p2.checksum.abs() * rel).max(1e-6);
            assert!(
                (p2.checksum - p4.checksum).abs() <= tol,
                "{}: P=2 gives {}, P=4 gives {}",
                app.name(),
                p2.checksum,
                p4.checksum
            );
        }
    }

    #[test]
    fn mm_matches_sequential_reference() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let n = 32;
        let b = 8;
        let sim = mproxy_des::Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
        let sink = Rc::new(RefCell::new(Vec::new()));
        let probe = Rc::clone(&sink);
        cluster.spawn_spmd(move |p| {
            let probe = Rc::clone(&probe);
            async move {
                let w = World::new(&p);
                w.p.ctx().yield_now().await;
                w.coll.barrier().await;
                let _ = mm::run_inner(&w, n, b, Some(probe)).await;
                w.coll.barrier().await;
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
        let expect = mm::reference(n);
        let blocks = sink.borrow();
        assert_eq!(blocks.len(), (n / b) * (n / b));
        for (bi, bj, acc) in blocks.iter() {
            for r in 0..b {
                for c in 0..b {
                    let want = expect[(bi * b + r) * n + (bj * b + c)];
                    let got = acc[r * b + c];
                    assert!(
                        (want - got).abs() < 1e-9,
                        "C[{},{}] block ({bi},{bj}): {got} vs {want}",
                        bi * b + r,
                        bj * b + c
                    );
                }
            }
        }
    }

    #[test]
    fn lu_matches_sequential_oracle() {
        use std::cell::RefCell;
        use std::rc::Rc;
        // Distributed U diagonal must match a plain sequential LU.
        let n = 32;
        let seq = lu::sequential_lu(n);
        let want: f64 = (0..n)
            .map(|i| (seq[i * n + i] * 1024.0).round() / 1024.0)
            .sum();
        let sim = mproxy_des::Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 4, 1)).unwrap();
        let got = Rc::new(RefCell::new(0.0));
        let probe = Rc::clone(&got);
        cluster.spawn_spmd(move |p| {
            let probe = Rc::clone(&probe);
            async move {
                let w = World::new(&p);
                w.p.ctx().yield_now().await;
                w.coll.barrier().await;
                let local = lu::run_inner(&w, 32, 8).await;
                let sum = w.coll.allreduce_sum(local).await;
                w.coll.barrier().await;
                if w.me() == 0 {
                    *probe.borrow_mut() = sum;
                }
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
        let got = *got.borrow();
        assert!(
            (got - want).abs() < 1e-6,
            "U diagonal: distributed {got} vs sequential {want}"
        );
    }

    #[test]
    fn fft_distributed_matches_direct_dft() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let side = 8; // n = 64
        let total = side * side;
        let sim = mproxy_des::Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
        let sink = Rc::new(RefCell::new(Vec::new()));
        let probe = Rc::clone(&sink);
        cluster.spawn_spmd(move |p| {
            let probe = Rc::clone(&probe);
            async move {
                let w = World::new(&p);
                w.p.ctx().yield_now().await;
                w.coll.barrier().await;
                let _ = fft::run_inner(&w, side, Some(probe)).await;
                w.coll.barrier().await;
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
        // Direct DFT of the same input.
        let input: Vec<(f64, f64)> = (0..total).map(|j| fft::input_sample(j, total)).collect();
        let mut expect = vec![(0.0, 0.0); total];
        for (k, e) in expect.iter_mut().enumerate() {
            for (j, &(re, im)) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * ((j * k) % total) as f64 / total as f64;
                let (c, s) = (ang.cos(), ang.sin());
                e.0 += re * c - im * s;
                e.1 += re * s + im * c;
            }
        }
        // Local element (r, c) of stripe starting at row0 holds X[c*side + row0 + r].
        for (row0, local) in sink.borrow().iter() {
            let lr = local.len() / (side * 2);
            for r in 0..lr {
                for c in 0..side {
                    let k = c * side + row0 + r;
                    let got = (local[(r * side + c) * 2], local[(r * side + c) * 2 + 1]);
                    assert!(
                        (got.0 - expect[k].0).abs() < 1e-6 && (got.1 - expect[k].1).abs() < 1e-6,
                        "X[{k}]: got {got:?}, want {:?}",
                        expect[k]
                    );
                }
            }
        }
    }

    #[test]
    fn apps_speed_up_with_more_processors() {
        // Communication-light apps must show real speedup from 1 to 4.
        for app in [AppId::PRay, AppId::Mm] {
            let t1 = run_app_flat(app, HW1, 1, AppSize::Tiny).elapsed_us;
            let t4 = run_app_flat(app, HW1, 4, AppSize::Tiny).elapsed_us;
            assert!(
                t1 / t4 > 1.5,
                "{}: T1={t1:.0}us T4={t4:.0}us speedup {:.2}",
                app.name(),
                t1 / t4
            );
        }
    }

    #[test]
    fn cache_update_helps_communication_intensive_apps() {
        // MP2 must beat MP1 on Sample/Wator (the 7-25% of the abstract).
        for app in [AppId::Sample, AppId::Wator] {
            let mp1 = run_app_flat(app, MP1, 4, AppSize::Tiny).elapsed_us;
            let mp2 = run_app_flat(app, MP2, 4, AppSize::Tiny).elapsed_us;
            assert!(
                mp2 < mp1,
                "{}: MP2 ({mp2:.0}us) should beat MP1 ({mp1:.0}us)",
                app.name()
            );
        }
    }

    #[test]
    fn design_point_ordering_on_latency_bound_app() {
        // HW1 <= MP2 <= MP1 on a small-message app.
        let hw = run_app_flat(AppId::Wator, HW1, 4, AppSize::Tiny).elapsed_us;
        let mp2 = run_app_flat(AppId::Wator, MP2, 4, AppSize::Tiny).elapsed_us;
        let mp1 = run_app_flat(AppId::Wator, MP1, 4, AppSize::Tiny).elapsed_us;
        assert!(
            hw <= mp2 && mp2 <= mp1,
            "hw={hw:.0} mp2={mp2:.0} mp1={mp1:.0}"
        );
    }

    #[test]
    fn traffic_report_reflects_message_sizes() {
        // Moldy sends big messages; Wator sends 40-byte ones.
        let moldy = run_app_flat(AppId::Moldy, MP1, 4, AppSize::Tiny).traffic;
        let wator = run_app_flat(AppId::Wator, MP1, 4, AppSize::Tiny).traffic;
        assert!(
            moldy.avg_msg_bytes > 3.0 * wator.avg_msg_bytes,
            "moldy {:.0}B vs wator {:.0}B",
            moldy.avg_msg_bytes,
            wator.avg_msg_bytes
        );
    }

    #[test]
    fn faulty_network_changes_timing_never_answers() {
        let clean = run_app_flat(AppId::Sample, MP1, 2, AppSize::Tiny);
        let plan = FaultPlan::new(99)
            .drop(0.02)
            .duplicate(0.01)
            .reorder(0.02, 25.0);
        let faulty = run_app_flat_faulty(AppId::Sample, MP1, 2, AppSize::Tiny, plan);
        assert_eq!(clean.checksum, faulty.checksum);
        assert!(faulty.faults.injected.packets > 0);
        assert_eq!(faulty.faults.link.unreachable, 0);
        assert!(faulty.elapsed_us >= clean.elapsed_us);
    }

    #[test]
    fn app_styles_follow_table5() {
        assert_eq!(AppId::Lu.style(), "CRL");
        assert_eq!(AppId::Wator.style(), "Split-C");
    }

    #[test]
    fn smp_nodes_with_multiple_compute_procs() {
        // The Figure 9 configuration must run correctly too.
        let flat = run_app(AppId::Sample, MP1, 4, 1, AppSize::Tiny);
        let smp = run_app(AppId::Sample, MP1, 2, 2, AppSize::Tiny);
        assert_eq!(flat.checksum, smp.checksum);
    }
}
