//! Message-proxy contention analysis — Section 5.4.
//!
//! A single proxy serves every compute processor on its node. The paper
//! applies "a simple queuing model analysis \[which\] indicates that the
//! utilization of a communication agent should be below 50% for stable
//! behavior", predicts from the Table 6 utilisations that one proxy supports
//! two compute processors for all applications but saturates at four for the
//! five communication-intensive ones, and derives the compute-or-communicate
//! rule: on `P`-processor SMPs, dedicate a proxy whenever it beats
//! system-level communication by more than `P/(P−1)`.

/// Stability threshold for a communication agent's utilisation (§5.4).
pub const STABLE_UTILIZATION: f64 = 0.5;

/// True if an agent at utilisation `rho` is stable: the paper's bound is
/// strict ("below 50%"), so a load of exactly 0.5 is not.
#[must_use]
pub fn is_stable(rho: f64) -> bool {
    rho < STABLE_UTILIZATION
}

/// Largest number of equally loaded compute processors one proxy supports
/// while staying stable, given the utilisation one processor induces.
///
/// Returns `usize::MAX` when a single processor's load rounds to zero.
///
/// # Examples
///
/// ```
/// use mproxy_model::contention::max_supported_procs;
///
/// // LU on 16 processors puts ~25.7%/proc... a proxy at 20% per processor
/// // supports 2 processors (0.4 < 0.5) but not 3 (0.6).
/// assert_eq!(max_supported_procs(0.20), 2);
/// ```
#[must_use]
pub fn max_supported_procs(per_proc_utilization: f64) -> usize {
    if per_proc_utilization <= 0.0 {
        return usize::MAX;
    }
    let mut n = (STABLE_UTILIZATION / per_proc_utilization).floor();
    // The quotient lands on a whole number exactly at the bound, where
    // `n` processors load the proxy to 0.5: not stable.
    if n > 0.0 && !is_stable(n * per_proc_utilization) {
        n -= 1.0;
    }
    if n >= usize::MAX as f64 {
        usize::MAX
    } else {
        n as usize
    }
}

/// Expected queueing delay (µs) at an M/M/1 server with mean service time
/// `service_us` and utilisation `rho` — the "simple queuing model" behind
/// the 50% rule: delay doubles service time at ρ = 0.5 and diverges as
/// ρ → 1.
///
/// Returns infinity for `rho >= 1`.
#[must_use]
pub fn mm1_wait_us(service_us: f64, rho: f64) -> f64 {
    if rho >= 1.0 {
        return f64::INFINITY;
    }
    if rho <= 0.0 {
        return 0.0;
    }
    service_us * rho / (1.0 - rho)
}

/// The §5.4 compute-or-communicate decision on a `smp_procs`-processor SMP
/// node.
///
/// Dedicating one of `P` processors to a proxy costs a factor `P/(P−1)` of
/// raw compute; it pays off whenever the proxy's communication speedup over
/// system-level communication exceeds that factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyTradeoff {
    /// Processors per SMP node.
    pub smp_procs: usize,
    /// Application execution time under system-call communication using all
    /// `P` processors for compute.
    pub syscall_time: f64,
    /// Application execution time under a message proxy using `P − 1`
    /// compute processors.
    pub proxy_time: f64,
}

impl ProxyTradeoff {
    /// The break-even factor `P/(P−1)`.
    ///
    /// # Panics
    ///
    /// Panics if `smp_procs < 2` (a proxy needs a processor to spare).
    #[must_use]
    fn break_even_factor(&self) -> f64 {
        assert!(self.smp_procs >= 2, "need at least two processors per node");
        self.smp_procs as f64 / (self.smp_procs - 1) as f64
    }

    /// True if dedicating a proxy processor is the better use of silicon:
    /// the observed improvement exceeds `P/(P−1)`.
    #[must_use]
    pub fn proxy_wins(&self) -> bool {
        self.syscall_time / self.proxy_time > self.break_even_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_threshold_is_half() {
        assert_eq!(STABLE_UTILIZATION, 0.5);
        assert!(is_stable(0.49));
        assert!(!is_stable(0.5));
        // At the bound the M/M/1 wait is one whole service time.
        assert_eq!(mm1_wait_us(10.0, STABLE_UTILIZATION), 10.0);
    }

    #[test]
    fn paper_prediction_two_yes_four_no() {
        // §5.4: "a message proxy can support two compute processors for all
        // the applications, but will be over-utilized for four compute
        // processors in LU, Barnes-Hut, Water, Sample and Wator."
        // Wator's Table 6 MP1 utilisation is 25.7% for one processor's load
        // spread over 16 procs... i.e. per-proc ≈ 25.7%/proc at rate 14.48.
        let per_proc = 0.257;
        assert!(max_supported_procs(per_proc) >= 1);
        assert!(max_supported_procs(per_proc) < 4);
        // A light app (P-Ray: 1.9%) supports far more than four.
        assert!(max_supported_procs(0.019) >= 4);
    }

    #[test]
    fn a_load_of_exactly_half_is_unstable() {
        // Two processors at 25% load the proxy to exactly 0.5.
        assert_eq!(max_supported_procs(0.25), 1);
        assert_eq!(max_supported_procs(0.5), 0);
        assert_eq!(max_supported_procs(0.2499), 2);
    }

    #[test]
    fn zero_load_supports_unbounded_procs() {
        assert_eq!(max_supported_procs(0.0), usize::MAX);
    }

    #[test]
    fn mm1_wait_behaviour() {
        assert_eq!(mm1_wait_us(10.0, 0.0), 0.0);
        assert!((mm1_wait_us(10.0, 0.5) - 10.0).abs() < 1e-12);
        assert!(mm1_wait_us(10.0, 0.9) > 80.0);
        assert!(mm1_wait_us(10.0, 1.0).is_infinite());
    }

    #[test]
    fn proxy_tradeoff_break_even() {
        let t = ProxyTradeoff {
            smp_procs: 5,
            syscall_time: 130.0,
            proxy_time: 100.0,
        };
        // 5-processor nodes: break-even 1.25; 30% gain wins.
        assert!((t.break_even_factor() - 1.25).abs() < 1e-12);
        assert!(t.proxy_wins());
        let marginal = ProxyTradeoff {
            smp_procs: 2,
            syscall_time: 130.0,
            proxy_time: 100.0,
        };
        // 2-processor nodes: break-even 2.0; 30% gain loses.
        assert!(!marginal.proxy_wins());
    }

    #[test]
    #[should_panic(expected = "two processors")]
    fn uniprocessor_tradeoff_panics() {
        let t = ProxyTradeoff {
            smp_procs: 1,
            syscall_time: 1.0,
            proxy_time: 1.0,
        };
        let _ = t.break_even_factor();
    }
}
