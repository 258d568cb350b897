//! Shared machinery for the application suite.
//!
//! The paper's simulator is execution-driven: applications really run and
//! their data really moves through the simulated cluster; only *time* is
//! modelled. Here the compute intervals between communication events are
//! charged from deterministic operation counts (`World::work`) instead of
//! the POWER2 real-time clock — the substitution that keeps every run
//! bit-reproducible (see DESIGN.md).

use mproxy::Proc;
use mproxy_am::{Am, Coll};
use mproxy_crl::Crl;
use mproxy_splitc::SplitC;

/// The communication stack handed to every application process, built in
/// a fixed order so flag/queue allocation is SPMD-deterministic.
#[derive(Clone)]
pub struct World {
    /// The user process.
    pub p: Proc,
    /// Active-message endpoint.
    pub am: Am,
    /// Split-C context.
    pub sc: SplitC,
    /// CRL region DSM.
    pub crl: Crl,
    /// Collectives (polling the AM endpoint while waiting).
    pub coll: Coll,
}

impl World {
    /// Builds the full stack for one process.
    #[must_use]
    pub fn new(p: &Proc) -> World {
        let am = Am::new(p);
        let sc = SplitC::new(p, &am);
        let crl = Crl::new(p, &am);
        let coll = Coll::new(p, Some(am.clone()));
        World {
            p: p.clone(),
            am,
            sc,
            crl,
            coll,
        }
    }

    /// Rank as usize.
    #[must_use]
    pub fn me(&self) -> usize {
        self.p.rank().0 as usize
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.p.nprocs()
    }

    /// Charges `units` of deterministic compute (one unit ≈ one inner-loop
    /// floating-point operation group; [`mproxy::WORK_UNIT_NS`] each),
    /// polling the AM endpoint between 100 µs slices — the discipline CRL
    /// and Split-C programs follow so that coherence and request traffic
    /// is serviced even during long computation phases.
    pub async fn work(&self, units: u64) {
        let slice_units = 100_000 / mproxy::WORK_UNIT_NS;
        let mut left = units;
        while left > slice_units {
            self.p.compute(slice_units).await;
            self.am.poll().await;
            left -= slice_units;
        }
        self.p.compute(left).await;
    }
}

/// Problem-size class for an application run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppSize {
    /// Minimal — unit tests.
    Tiny,
    /// Default — the reports under `results/` (seconds for all of them in
    /// release).
    Small,
    /// Closest to the paper's Table 5 inputs (slow).
    Full,
}

/// A deterministic 64-bit LCG (same stream on every platform and design
/// point).
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Seeds the generator.
    #[must_use]
    pub fn new(seed: u64) -> Lcg {
        Lcg {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Splits `total` items over `n` ranks: returns rank `r`'s (start, count).
#[must_use]
pub fn partition(total: usize, n: usize, r: usize) -> (usize, usize) {
    let base = total / n;
    let extra = total % n;
    let count = base + usize::from(r < extra);
    let start = r * base + r.min(extra);
    (start, count)
}

/// Folds a float into a stable checksum accumulator.
#[must_use]
pub fn fold_checksum(acc: f64, x: f64) -> f64 {
    // Quantize so the checksum is robust to the (deterministic but
    // order-fixed) float arithmetic while still catching data corruption.
    acc + (x * 1024.0).round() / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything_exactly_once() {
        for total in [0usize, 1, 7, 16, 100] {
            for n in [1usize, 2, 3, 5, 16] {
                let mut covered = 0;
                let mut next = 0;
                for r in 0..n {
                    let (s, c) = partition(total, n, r);
                    assert_eq!(s, next, "total={total} n={n} r={r}");
                    next = s + c;
                    covered += c;
                }
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn lcg_is_deterministic_and_uniform_ish() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Lcg::new(7);
        let mean: f64 = (0..10_000).map(|_| c.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn checksum_fold_is_order_stable_for_quantized_values() {
        let xs = [1.5, -2.25, 3.0625];
        let a = xs.iter().fold(0.0, |acc, &x| fold_checksum(acc, x));
        assert_eq!(a, 1.5 - 2.25 + 3.0625);
    }
}
