//! The §4.1 latency equations and protection costs for message proxies.
//!
//! The paper models a one-word GET as `(10C + 6U + 3V + 3.6/S + 3P + 2L)` µs
//! and a one-word PUT as `(7C + 4U + 2V + 2.2/S + 2P + L)` µs. Here the
//! equations are derived — by construction — as the sums of the Table 2
//! critical-path traces in [`crate::trace`], so the closed forms and the
//! step-by-step trace can never drift apart.

use crate::cost::Cost;
use crate::trace::{get_trace, put_trace};

/// The one-word GET latency: `10C + 6U + 3V + 3.6/S + 3P + 2L`.
///
/// # Examples
///
/// ```
/// use mproxy_model::{get_latency, MachineParams};
///
/// let us = get_latency().eval_uniform(&MachineParams::G30);
/// assert!((us - 29.55).abs() < 1e-9); // 27.5 µs + 2·(1 µs network)
/// ```
#[must_use]
pub fn get_latency() -> Cost {
    get_trace().iter().map(|s| s.cost).sum()
}

/// The one-word, one-way PUT latency: `7C + 4U + 2V + 2.2/S + 2P + L`.
///
/// # Examples
///
/// ```
/// use mproxy_model::{put_oneway_latency, MachineParams};
///
/// let us = put_oneway_latency().eval_uniform(&MachineParams::G30);
/// assert_eq!(us, 19.5); // 18.5 µs + 1 µs network — the paper's "18.5 + L"
/// ```
#[must_use]
pub fn put_oneway_latency() -> Cost {
    put_trace().iter().map(|s| s.cost).sum()
}

/// The acknowledgement leg appended to a PUT when the caller requests a
/// local completion flag: the remote proxy builds and launches an ack
/// packet, it transits the network, and the local proxy dispatches it and
/// sets the local sync register.
#[must_use]
fn ack_cost() -> Cost {
    // Remote: build header + launch.
    Cost::U + Cost::instr(0.6) + Cost::U
        // Wire.
        + Cost::L
        // Local proxy: polling delay, read header, dispatch, set lsync.
        + Cost::P + Cost::C_OTHER + Cost::instr(0.4) + Cost::C_SHARED
}

/// Latency from submitting a PUT until the *local* synchronisation flag is
/// observed set (the quantity reported in Table 4): one-way PUT, then the
/// ack leg, then the user's read of the flag.
#[must_use]
pub fn put_roundtrip_latency() -> Cost {
    put_oneway_latency() + ack_cost() + Cost::C_SHARED
}

/// Compute-processor overhead of a PUT with completion detection
/// ("PUT+sync ovh." in Table 4): two misses to enqueue the command, one to
/// read the sync flag, plus the library-call instructions. All of it is
/// user↔proxy shared memory, which is why cache update nearly eliminates it.
#[must_use]
pub fn rma_overhead() -> Cost {
    Cost {
        c_shared: 3.0,
        ..Cost::ZERO
    } + Cost::instr(0.5)
}

/// The protection cost a message proxy imposes on a GET: `3C + 3V + 3P`
/// (≈ 14 µs on the G30). These are the components that exist *only* because
/// communication is mediated by a protected agent.
#[must_use]
pub fn protection_cost_get() -> Cost {
    Cost {
        c_shared: 3.0,
        ..Cost::ZERO
    } + Cost::V * 3.0
        + Cost::P * 3.0
}

/// The protection cost for a PUT: `3C + 2V + 2P` (≈ 10.3 µs on the G30).
#[must_use]
pub fn protection_cost_put() -> Cost {
    Cost {
        c_shared: 3.0,
        ..Cost::ZERO
    } + Cost::V * 2.0
        + Cost::P * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineParams;

    const G30: MachineParams = MachineParams::G30;

    #[test]
    fn protection_costs_match_paper() {
        // §4.1: "3C + 3V + 3P ≈ 14 µs for a GET ... 3C + 2V + 2P ≈ 10.3 µs
        // for a PUT".
        let get = protection_cost_get().eval_uniform(&G30);
        assert!((get - 13.95).abs() < 1e-9, "get protection = {get}");
        let put = protection_cost_put().eval_uniform(&G30);
        assert!((put - 10.3).abs() < 1e-9, "put protection = {put}");
    }

    #[test]
    fn proxy_protection_beats_syscall_protection() {
        // Streamlined system-call communication, per the paper's citation
        // of Thekkath et al.: about 23 µs for a GET and 19 µs for a PUT.
        assert!(protection_cost_get().eval_uniform(&G30) < 23.0);
        assert!(protection_cost_put().eval_uniform(&G30) < 19.0);
    }

    #[test]
    fn roundtrip_put_exceeds_oneway() {
        let one = put_oneway_latency().eval_uniform(&G30);
        let rt = put_roundtrip_latency().eval_uniform(&G30);
        assert!(rt > one + 2.0, "ack leg must add a transit plus handling");
    }

    #[test]
    fn get_dominates_oneway_put() {
        assert!(get_latency().eval_uniform(&G30) > put_oneway_latency().eval_uniform(&G30));
    }

    #[test]
    fn overhead_is_three_shared_misses_plus_library_call() {
        let o = rma_overhead();
        assert_eq!(o.c_shared, 3.0);
        assert_eq!(o.eval_uniform(&G30), 3.5);
        // Under cache update the overhead nearly vanishes (MP2 column).
        assert_eq!(o.eval(&G30, 0.25), 1.25);
    }

    #[test]
    fn faster_processor_reduces_instruction_and_polling_terms_only() {
        let fast = G30.with_speed(2.0);
        let slow_get = get_latency().eval_uniform(&G30);
        let fast_get = get_latency().eval_uniform(&fast);
        // Gains: 3.6/2 from instructions + 3·(1.5/2) from polling scan.
        assert!((slow_get - fast_get - (1.8 + 2.25)).abs() < 1e-9);
    }

    #[test]
    fn cache_update_improves_get_by_about_forty_percent() {
        // Table 4 text: "A cache-update primitive improves the message
        // proxy latency by about 40%" (MP1 → MP2 at next-gen speed).
        let fast = G30.with_speed(2.0);
        let mp1 = get_latency().eval(&fast, 1.0);
        let mp2 = get_latency().eval(&fast, 0.25);
        let gain = (mp1 - mp2) / mp1;
        assert!(
            (0.30..=0.50).contains(&gain),
            "expected ~40% improvement, got {:.1}% ({mp1:.2} -> {mp2:.2})",
            gain * 100.0
        );
    }
}
