//! Machine primitives — Table 1 of the paper.
//!
//! The paper distils message-proxy communication into six primitive costs
//! measured on an IBM Model G30 SMP (four 75 MHz PowerPC 601s, SP switch
//! adapter on the Micro Channel):
//!
//! | symbol | meaning                                   | G30 value |
//! |--------|-------------------------------------------|-----------|
//! | `C`    | time to service a cache miss              | 1.0 µs    |
//! | `U`    | uncached (adapter FIFO) access            | 0.5 µs    |
//! | `V`    | `vm_att`/`vm_det` cross-memory attach     | 0.65 µs   |
//! | `P`    | polling delay (scan other queues first)   | 3.0 µs    |
//! | `S`    | processor speed, multiple of 75 MHz       | 1         |
//! | `L`    | network transit latency                   | ~1–2 µs   |
//!
//! `U` is not printed legibly in the paper; it is recovered from the
//! measured one-way latencies (PUT = 18.5 + L µs, GET = 27.5 + L µs)
//! against the §4.1 equations — both solve to `U = 0.5 µs`.

/// Primitive machine costs (Table 1), in microseconds unless noted.
///
/// # Examples
///
/// ```
/// use mproxy_model::MachineParams;
///
/// let g30 = MachineParams::G30;
/// assert_eq!(g30.cache_miss_us, 1.0);
/// assert_eq!(g30.polling_delay_us(g30.cache_miss_us), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// `C`: service time of a cache miss between two agents in the SMP.
    pub cache_miss_us: f64,
    /// `U`: latency of an uncached access to the adapter FIFOs.
    pub uncached_us: f64,
    /// `V`: cost of a `vm_att`/`vm_det` cross-memory attach.
    pub vm_att_us: f64,
    /// `S`: processor speed as a multiple of the 75 MHz PowerPC 601.
    pub speed: f64,
    /// `L`: one-way network transit latency.
    pub net_latency_us: f64,
    /// Instruction component of the polling scan, at `S = 1` (the cache-miss
    /// component is derived; see [`MachineParams::polling_delay_us`]).
    pub poll_instr_us: f64,
    /// Cache-miss probes per polling scan (each costs one `C`).
    pub poll_miss_factor: f64,
}

impl MachineParams {
    /// The measured IBM Model G30 configuration of Section 4.
    pub const G30: MachineParams = MachineParams {
        cache_miss_us: 1.0,
        uncached_us: 0.5,
        vm_att_us: 0.65,
        speed: 1.0,
        net_latency_us: 1.0,
        poll_instr_us: 1.5,
        poll_miss_factor: 1.5,
    };

    /// `P`: the polling delay — time the proxy spends scanning other queues
    /// before reaching a newly ready one — when a probe misses in `miss_us`.
    ///
    /// Decomposed as `P = poll_instr/S + poll_miss_factor · C`: scan
    /// instructions scale with processor speed, and each probe of a
    /// possibly-dirty queue head costs a coherence miss. With
    /// `miss_us = cache_miss_us` this reproduces the measured `P = 3.0 µs`
    /// on the G30; the cache-update design point (MP2) passes its cheaper
    /// shared-memory miss and shrinks `P` along with `C`, as §4.1's
    /// discussion of polling acceleration anticipates.
    #[must_use]
    pub fn polling_delay_us(&self, miss_us: f64) -> f64 {
        self.poll_instr_us / self.speed + self.poll_miss_factor * miss_us
    }

    /// Returns a copy with a different cache-miss latency (the cache-update
    /// experiment of design point MP2).
    #[must_use]
    pub fn with_cache_miss(mut self, c_us: f64) -> Self {
        self.cache_miss_us = c_us;
        self
    }

    /// Returns a copy with a different processor speed multiple.
    #[must_use]
    pub fn with_speed(mut self, s: f64) -> Self {
        self.speed = s;
        self
    }

    /// Validates that every parameter is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns a description of the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("cache_miss_us", self.cache_miss_us),
            ("uncached_us", self.uncached_us),
            ("vm_att_us", self.vm_att_us),
            ("speed", self.speed),
            ("net_latency_us", self.net_latency_us),
            ("poll_instr_us", self.poll_instr_us),
            ("poll_miss_factor", self.poll_miss_factor),
        ];
        for (name, v) in fields {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g30_polling_delay_matches_table1() {
        // Table 1: polling delay = 3.0 µs on the G30.
        let g30 = MachineParams::G30;
        assert_eq!(g30.polling_delay_us(g30.cache_miss_us), 3.0);
    }

    #[test]
    fn g30_validates() {
        MachineParams::G30.validate().unwrap();
    }

    #[test]
    fn validation_rejects_nonpositive() {
        let mut p = MachineParams::G30;
        p.speed = 0.0;
        assert!(p.validate().is_err());
        p.speed = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn with_cache_miss_shrinks_polling_delay() {
        let updated = MachineParams::G30.with_cache_miss(0.25);
        // P = 1.5/1 + 1.5·0.25 = 1.875 µs — cache update accelerates polling.
        assert_eq!(updated.polling_delay_us(updated.cache_miss_us), 1.875);
    }

    #[test]
    fn with_speed_scales_instruction_component() {
        let fast = MachineParams::G30.with_speed(2.0);
        assert_eq!(fast.polling_delay_us(fast.cache_miss_us), 0.75 + 1.5);
    }
}
