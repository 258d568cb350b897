//! The seeded fate-decision core shared by every fault injector.
//!
//! Two injectors exist in the workspace: `mproxy-simnet`'s [`FaultPlan`]
//! (simulated time, discrete-event order) and `mproxy-rt`'s
//! [`RtFaultPlan`] (wall-clock time, real threads). Both must mean the
//! *same thing* by "drop 1% of packets, seed 42": the same RNG, the same
//! per-packet draw discipline, the same probability validation, the same
//! window arithmetic. This module is that common core — a [`SplitMix64`]
//! stream, the [`PacketFates`] Bernoulli specification with its
//! fixed-arity [`PacketFates::judge`] draw, and the half-open window
//! helpers — so a plan ported between the simulator and the native
//! runtime keeps its semantics, only its notion of time changes.
//!
//! [`FaultPlan`]: https://docs.rs/mproxy-simnet
//! [`RtFaultPlan`]: https://docs.rs/mproxy-rt

/// SplitMix64 — tiny seeded generator with a well-distributed stream.
///
/// Every fault injector in the workspace draws from this generator so a
/// seed identifies one fault stream regardless of which engine runs it.
///
/// # Examples
///
/// ```
/// use mproxy_model::fate::SplitMix64;
///
/// let (mut a, mut b) = (SplitMix64::new(7), SplitMix64::new(7));
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed` (any value, including zero).
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Validates a probability and returns it.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
#[must_use]
pub fn check_probability(p: f64, what: &str) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "{what} probability {p} not in [0, 1]"
    );
    p
}

/// True if the half-open windows `[s1, e1)` and `[s2, e2)` share any
/// instant. Both injectors reject overlapping windows on one node with
/// this test — two overlapping stall windows have no coherent meaning.
#[must_use]
pub fn windows_overlap(s1: f64, e1: f64, s2: f64, e2: f64) -> bool {
    s1 < e2 && s2 < e1
}

/// Per-packet Bernoulli fault specification: the independent
/// probabilities a transmitted packet is dropped, duplicated, reordered
/// or corrupted. Time-domain faults (stalls, crashes, kills) stay with
/// the engine-specific plan — only the per-packet draw lives here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketFates {
    /// Probability a packet is silently lost.
    pub drop_p: f64,
    /// Probability a packet is delivered twice.
    pub dup_p: f64,
    /// Probability a packet is delayed past later traffic (meaningful
    /// only on transports that can reorder; FIFO transports leave it 0).
    pub reorder_p: f64,
    /// Probability a packet's payload arrives corrupted.
    pub corrupt_p: f64,
    /// Extra transit delay, µs, applied to reordered packets (scaled by
    /// a per-packet jitter draw in `[0.25, 1.25)`).
    pub reorder_extra_us: f64,
}

impl Default for PacketFates {
    fn default() -> Self {
        PacketFates::NONE
    }
}

impl PacketFates {
    /// No packet faults at all.
    pub const NONE: PacketFates = PacketFates {
        drop_p: 0.0,
        dup_p: 0.0,
        reorder_p: 0.0,
        corrupt_p: 0.0,
        reorder_extra_us: 20.0,
    };

    /// True if every probability is zero.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.drop_p == 0.0 && self.dup_p == 0.0 && self.reorder_p == 0.0 && self.corrupt_p == 0.0
    }

    /// Judges one packet, always consuming exactly five variates from
    /// `rng` so the stream position depends only on how many packets
    /// were judged — never on which probabilities are set. This is the
    /// discipline that makes "same seed, same fates" hold across plans
    /// that differ only in rates.
    pub fn judge(&self, rng: &mut SplitMix64) -> Fate {
        let (d, dup, re, co, jitter) = (rng.unit(), rng.unit(), rng.unit(), rng.unit(), rng.unit());
        let reordered = re < self.reorder_p;
        let extra_us = if reordered {
            self.reorder_extra_us * (0.25 + jitter)
        } else {
            0.0
        };
        Fate {
            drop: d < self.drop_p,
            duplicate: dup < self.dup_p,
            corrupt: co < self.corrupt_p,
            extra_us,
            // The duplicate trails the primary by a fixed µs so it is a
            // genuine duplicate-in-flight, not a simultaneous twin.
            dup_extra_us: extra_us + 1.0,
        }
    }
}

/// The fate assigned to one transmitted packet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fate {
    /// The packet is lost (nothing is delivered).
    pub drop: bool,
    /// A second copy is delivered after the first.
    pub duplicate: bool,
    /// The delivered payload is flagged corrupted.
    pub corrupt: bool,
    /// Extra transit delay for the primary copy, µs (reordering).
    pub extra_us: f64,
    /// Extra transit delay for the duplicate copy, µs.
    pub dup_extra_us: f64,
}

impl Fate {
    /// True if this fate manifests in the reordered state (nonzero
    /// primary delay).
    #[must_use]
    pub fn reordered(&self) -> bool {
        self.extra_us > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (SplitMix64::new(99), SplitMix64::new(99));
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn judge_always_draws_five_variates() {
        // Two plans with different rates judged over the same stream
        // leave the RNG at the same position.
        let hot = PacketFates {
            drop_p: 0.9,
            dup_p: 0.9,
            reorder_p: 0.9,
            corrupt_p: 0.9,
            reorder_extra_us: 5.0,
        };
        let cold = PacketFates::NONE;
        let (mut r1, mut r2) = (SplitMix64::new(3), SplitMix64::new(3));
        for _ in 0..50 {
            let _ = hot.judge(&mut r1);
            let _ = cold.judge(&mut r2);
        }
        assert_eq!(r1.next_u64(), r2.next_u64(), "stream positions diverged");
    }

    #[test]
    fn benign_fates_are_inert() {
        let mut rng = SplitMix64::new(0);
        for _ in 0..100 {
            let f = PacketFates::NONE.judge(&mut rng);
            assert!(!f.drop && !f.duplicate && !f.corrupt && !f.reordered());
        }
        assert!(PacketFates::NONE.is_benign());
    }

    #[test]
    fn rates_roughly_respected() {
        let fates = PacketFates {
            drop_p: 0.25,
            ..PacketFates::NONE
        };
        let mut rng = SplitMix64::new(1);
        let mut dropped = 0u32;
        for _ in 0..4000 {
            if fates.judge(&mut rng).drop {
                dropped += 1;
            }
        }
        let rate = f64::from(dropped) / 4000.0;
        assert!((0.20..0.30).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn window_overlap_is_half_open() {
        assert!(windows_overlap(0.0, 10.0, 5.0, 15.0));
        assert!(!windows_overlap(0.0, 10.0, 10.0, 20.0), "touching is fine");
        assert!(windows_overlap(0.0, 10.0, 0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn probability_validated() {
        let _ = check_probability(1.5, "drop");
    }
}
