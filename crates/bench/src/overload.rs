//! Overload sweep: measured proxy command-queue delay vs the §5.4
//! contention model (`results/overload.txt`, printed by the `overload`
//! binary and pinned byte for byte like every other report; the gate is
//! the `quick_sweep_tracks_model_and_respects_credits` unit test below).
//!
//! Four compute processors on one MP1 node submit PUTs toward the peer
//! node in open loop — Poisson arrivals (exponential inter-submission
//! gaps) with a two-point payload mix calibrated so the proxy's
//! service-time distribution has unit squared coefficient of variation.
//! For an M/G/1 server the Pollaczek–Khinchine mean wait depends only on
//! the first two service moments, so with CV² = 1 the measured
//! submission-to-service-start delay must land on the paper's M/M/1
//! curve [`mm1_wait_us`] — the "simple queuing model analysis" behind
//! the 50% utilisation rule.
//!
//! The same sweep exercises the overload-control contract: per-process
//! command credits bound the shared command queue, so peak engine-queue
//! occupancy never exceeds `senders × credits` no matter the offered
//! load.

use mproxy::{Asid, Cluster, ClusterSpec, ProcId};
use mproxy_des::{Dur, Simulation};
use mproxy_model::contention::{mm1_wait_us, STABLE_UTILIZATION};
use mproxy_model::fate::SplitMix64;
use mproxy_model::MP1;

/// Compute processors submitting load (all on node 0).
pub const OVERLOAD_SENDERS: usize = 4;

/// Per-process command-queue credit limit used by the sweep.
pub const OVERLOAD_CREDITS: u32 = 16;

/// Deterministic seed for the arrival/size streams.
pub const OVERLOAD_SEED: u64 = 0x4D50_5F4F_4C44; // "MP_OLD"

/// Payload of the short-service class (PIO path).
pub const SMALL_BYTES: u32 = 64;

/// Payload of the long-service class (pinned-DMA path).
pub const LARGE_BYTES: u32 = 4096;

/// Target utilisations of the full sweep.
pub const OVERLOAD_RHOS: [f64; 6] = [0.1, 0.2, 0.3, 0.4, 0.6, 0.8];

/// Target utilisations of the quick sweep the unit test runs.
pub const QUICK_RHOS: [f64; 3] = [0.2, 0.4, 0.7];

/// Allowed deviation of the measured wait from the model curve in the
/// stable regime ([`check_sweep`]).
pub const MODEL_TOLERANCE: f64 = 0.25;

/// Model agreement is only enforced for sweep points targeting at most
/// this utilisation (the acceptance criterion's "rho <= 0.4"; beyond it
/// the open-loop arrival process is perturbed by credit backpressure).
pub const CHECK_RHO_CAP: f64 = 0.45;

/// One measured point of the overload sweep.
#[derive(Debug, Clone, Copy)]
pub struct OverloadPoint {
    /// Utilisation the arrival rate was tuned for.
    pub target_rho: f64,
    /// Measured utilisation: engine busy time over elapsed time.
    pub rho: f64,
    /// Measured mean service time, µs (engine busy / commands serviced).
    pub service_us: f64,
    /// Measured mean command queueing delay, µs (submission to service
    /// start).
    pub wait_us: f64,
    /// The §5.4 model's prediction [`mm1_wait_us`]`(service_us, rho)`.
    pub model_us: f64,
    /// Commands serviced.
    pub ops: u64,
    /// Peak occupancy of the node-0 engine input queue.
    pub queue_peak: usize,
    /// The flow-control bound on that occupancy: senders × credits.
    pub credit_bound: usize,
}

impl OverloadPoint {
    /// Relative deviation of the measured wait from the model curve.
    #[must_use]
    pub fn deviation(&self) -> f64 {
        if self.model_us <= 0.0 {
            return 0.0;
        }
        (self.wait_us - self.model_us).abs() / self.model_us
    }

    /// True if the point sits in the paper's stable regime.
    #[must_use]
    pub fn stable(&self) -> bool {
        self.rho < STABLE_UTILIZATION
    }
}

/// The full sweep result, including the service-time calibration that
/// fixed the payload mix.
#[derive(Debug, Clone)]
pub struct OverloadSweep {
    /// Measured service time of a [`SMALL_BYTES`] PUT, µs.
    pub small_us: f64,
    /// Measured service time of a [`LARGE_BYTES`] PUT, µs.
    pub large_us: f64,
    /// Fraction of submissions using the large payload, solved so the
    /// two-point service mix has CV² = 1.
    pub large_fraction: f64,
    /// One entry per target utilisation.
    pub points: Vec<OverloadPoint>,
}

/// Uniform in (0, 1] — `ln` of it is finite — from the workspace's one
/// seeded generator, so the sweep reproduces bit for bit.
fn uniform(rng: &mut SplitMix64) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Exponential with the given mean.
fn exp_sample(rng: &mut SplitMix64, mean: f64) -> f64 {
    -mean * uniform(rng).ln()
}

/// Measures the proxy service time of a `bytes`-sized PUT: one sender
/// floods `reps` commands at node 0's engine and the engine's busy time
/// is divided by the commands serviced. Credits keep the flood bounded;
/// queueing never inflates the busy scope.
fn calibrate_service_us(bytes: u32, reps: u64) -> f64 {
    let sim = Simulation::new();
    let mut spec = ClusterSpec::new(MP1, 2, OVERLOAD_SENDERS);
    spec.cmd_credits = OVERLOAD_CREDITS;
    let cluster = Cluster::new(&sim.ctx(), spec).expect("valid overload spec");
    cluster.spawn_spmd(move |p| async move {
        let buf = p.alloc(u64::from(LARGE_BYTES));
        p.ctx().yield_now().await;
        if p.rank() != ProcId(0) {
            return;
        }
        let peer = Asid(OVERLOAD_SENDERS as u32);
        for _ in 0..reps {
            p.put(buf, peer, buf, bytes, None, None)
                .await
                .expect("calibration put");
        }
    });
    let run = cluster.run(&sim);
    assert!(run.completed_cleanly(), "overload calibration hung");
    let (busy_us, _) = cluster.engine_busy_us(0);
    let (cmds, _) = cluster.cmd_wait_us(0);
    assert_eq!(cmds, reps, "calibration serviced a different command count");
    busy_us / cmds as f64
}

/// Solves for the large-payload fraction `q` that gives the two-point
/// service mix `{small_us w.p. 1−q, large_us w.p. q}` a squared
/// coefficient of variation of exactly 1 (E\[S²\] = 2·E\[S\]²), so the
/// M/G/1 wait collapses onto the M/M/1 curve. Falls back to 0.25 when
/// the two services are too close for a real solution (needs roughly
/// `large > 5.83 × small`).
#[must_use]
pub fn large_fraction(small_us: f64, large_us: f64) -> f64 {
    let d = large_us - small_us;
    // 2d²·q² + d(3·small − large)·q + small² = 0
    let a = 2.0 * d * d;
    let b = d * (3.0 * small_us - large_us);
    let c = small_us * small_us;
    let disc = b * b - 4.0 * a * c;
    if disc <= 0.0 || d <= 0.0 {
        return 0.25;
    }
    let q = (-b - disc.sqrt()) / (2.0 * a);
    if q > 0.0 && q < 1.0 {
        q
    } else {
        (-b + disc.sqrt()) / (2.0 * a)
    }
}

/// Runs one open-loop point: four senders at exponential gaps tuned for
/// `target_rho`, measured against the model.
fn run_point(target_rho: f64, big_frac: f64, mean_service_us: f64, window_us: f64) -> OverloadPoint {
    let sim = Simulation::new();
    let mut spec = ClusterSpec::new(MP1, 2, OVERLOAD_SENDERS);
    spec.cmd_credits = OVERLOAD_CREDITS;
    let cluster = Cluster::new(&sim.ctx(), spec).expect("valid overload spec");
    // Aggregate arrival rate rho/S, split evenly across the senders.
    let gap_mean = OVERLOAD_SENDERS as f64 * mean_service_us / target_rho;
    cluster.spawn_spmd(move |p| async move {
        let buf = p.alloc(u64::from(LARGE_BYTES));
        p.ctx().yield_now().await;
        let me = p.rank().0 as usize;
        if me >= OVERLOAD_SENDERS {
            return;
        }
        let peer = Asid((me + OVERLOAD_SENDERS) as u32);
        let mut rng = SplitMix64::new(
            OVERLOAD_SEED
                ^ ((me as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F))
                ^ target_rho.to_bits(),
        );
        let t0 = p.now();
        loop {
            let gap = exp_sample(&mut rng, gap_mean);
            p.ctx().delay(Dur::from_us(gap)).await;
            if p.now().since(t0).as_us() > window_us {
                break;
            }
            let bytes = if uniform(&mut rng) < big_frac {
                LARGE_BYTES
            } else {
                SMALL_BYTES
            };
            p.put(buf, peer, buf, bytes, None, None)
                .await
                .expect("overload put");
        }
    });
    let run = cluster.run(&sim);
    assert!(run.completed_cleanly(), "overload sweep hung");
    let (ops, wait_us) = cluster.cmd_wait_us(0);
    let (busy_us, _) = cluster.engine_busy_us(0);
    let elapsed_us = cluster.traffic_report().elapsed.as_us();
    let rho = busy_us / elapsed_us;
    let service_us = busy_us / ops as f64;
    OverloadPoint {
        target_rho,
        rho,
        service_us,
        wait_us,
        model_us: mm1_wait_us(service_us, rho),
        ops,
        queue_peak: cluster.engine_queue_peak(0),
        credit_bound: OVERLOAD_SENDERS * OVERLOAD_CREDITS as usize,
    }
}

/// Runs the overload sweep: calibrate the two service classes, solve the
/// CV² = 1 mix, then measure every target utilisation.
#[must_use]
pub fn overload_sweep(quick: bool) -> OverloadSweep {
    let (small_reps, large_reps) = if quick { (200, 100) } else { (400, 200) };
    let small_us = calibrate_service_us(SMALL_BYTES, small_reps);
    let large_us = calibrate_service_us(LARGE_BYTES, large_reps);
    let q = large_fraction(small_us, large_us);
    let mean_service_us = (1.0 - q) * small_us + q * large_us;
    let rhos: &[f64] = if quick { &QUICK_RHOS } else { &OVERLOAD_RHOS };
    let window_us = if quick { 40_000.0 } else { 150_000.0 };
    let points = rhos
        .iter()
        .map(|&t| run_point(t, q, mean_service_us, window_us))
        .collect();
    OverloadSweep {
        small_us,
        large_us,
        large_fraction: q,
        points,
    }
}

/// Checks a sweep against the acceptance criteria: the command queue
/// never outgrew the credit bound, and in the stable regime (targets up
/// to [`CHECK_RHO_CAP`]) the measured wait sits within
/// [`MODEL_TOLERANCE`] of the model curve.
///
/// # Errors
///
/// Returns a message naming the first violated point.
pub fn check_sweep(sweep: &OverloadSweep) -> Result<(), String> {
    for p in &sweep.points {
        if p.queue_peak > p.credit_bound {
            return Err(format!(
                "rho {:.2}: engine queue peaked at {} > credit bound {}",
                p.target_rho, p.queue_peak, p.credit_bound
            ));
        }
        if p.target_rho <= CHECK_RHO_CAP {
            let dev = p.deviation();
            if dev > MODEL_TOLERANCE {
                return Err(format!(
                    "rho {:.2}: measured wait {:.3} us deviates {:.0}% from model {:.3} us \
                     (tolerance {:.0}%)",
                    p.target_rho,
                    p.wait_us,
                    dev * 100.0,
                    p.model_us,
                    MODEL_TOLERANCE * 100.0
                ));
            }
        }
    }
    Ok(())
}

/// The sweep as a text table (`results/overload.txt` is the full sweep's).
#[must_use]
pub fn overload_rows(sweep: &OverloadSweep) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "# Overload sweep on MP1: {} senders, {} credits each\n\
         # service mix: {:.2} us ({:.0}%) / {:.2} us ({:.0}%), CV^2 = 1\n\
         {:<10} {:>8} {:>10} {:>9} {:>9} {:>9} {:>6} {:>10} {:>6}\n",
        OVERLOAD_SENDERS,
        OVERLOAD_CREDITS,
        sweep.small_us,
        (1.0 - sweep.large_fraction) * 100.0,
        sweep.large_us,
        sweep.large_fraction * 100.0,
        "target_rho",
        "rho",
        "service_us",
        "wait_us",
        "model_us",
        "dev_pct",
        "ops",
        "queue_peak",
        "stable"
    );
    for p in &sweep.points {
        let _ = writeln!(
            s,
            "{:<10.2} {:>8.3} {:>10.2} {:>9.2} {:>9.2} {:>9.1} {:>6} {:>10} {:>6}",
            p.target_rho,
            p.rho,
            p.service_us,
            p.wait_us,
            p.model_us,
            p.deviation() * 100.0,
            p.ops,
            p.queue_peak,
            if p.stable() { "yes" } else { "NO" }
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cv2_mix_is_exact_when_solvable() {
        let q = large_fraction(5.0, 50.0);
        let m = (1.0 - q) * 5.0 + q * 50.0;
        let m2 = (1.0 - q) * 25.0 + q * 2500.0;
        assert!((m2 - 2.0 * m * m).abs() < 1e-9, "q = {q} broke CV^2 = 1");
        assert!(q > 0.0 && q < 1.0);
    }

    #[test]
    fn cv2_mix_falls_back_when_unsolvable() {
        assert!((large_fraction(5.0, 6.0) - 0.25).abs() < 1e-12);
        assert!((large_fraction(5.0, 5.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exponential_sampler_has_the_right_mean() {
        let mut st = SplitMix64::new(42);
        let n = 20_000;
        let mean = (0..n).map(|_| exp_sample(&mut st, 10.0)).sum::<f64>() / f64::from(n);
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn quick_sweep_tracks_model_and_respects_credits() {
        let sweep = overload_sweep(true);
        assert!(sweep.large_us > sweep.small_us);
        check_sweep(&sweep).unwrap();
        // The rho-0.7 point must show real queueing (wait well above the
        // stable-regime points) without the queue outgrowing the bound.
        let last = sweep.points.last().unwrap();
        assert!(last.wait_us > sweep.points[0].wait_us);
        assert!(last.queue_peak <= last.credit_bound);
    }
}
