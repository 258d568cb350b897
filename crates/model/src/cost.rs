//! Symbolic cost expressions over the Table 1 primitives.
//!
//! A [`Cost`] is a linear combination `a·C' + b·C + c·U + d·V + e/S + f·P +
//! g·L + fixed`, evaluated against a [`MachineParams`]. The paper's §4.1
//! latency equations are `Cost` values; so is every row of the Table 2
//! critical-path trace, which lets the test suite check that the trace sums
//! exactly to the closed-form equations.
//!
//! The cache-miss term is split in two: `c_shared` counts misses between a
//! compute processor and the proxy through shared memory (the ones the MP2
//! cache-update primitive accelerates), while `c_other` counts misses
//! against adapter-sourced data. With a uniform miss latency the split is
//! invisible; under cache update only `c_shared` gets the short latency.

use core::ops::{Add, AddAssign, Mul};

use crate::params::MachineParams;

/// A linear combination of primitive costs; see the module docs.
///
/// # Examples
///
/// ```
/// use mproxy_model::{Cost, MachineParams};
///
/// // One polling delay plus one cache miss:
/// let cost = Cost::P + Cost::C_SHARED;
/// assert_eq!(cost.eval_uniform(&MachineParams::G30), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Cache misses between compute processor and proxy (shared memory).
    pub c_shared: f64,
    /// Cache misses against adapter-sourced data (packet headers).
    pub c_other: f64,
    /// Uncached adapter-FIFO accesses (`U`).
    pub u: f64,
    /// Cross-memory attaches (`V`).
    pub v: f64,
    /// Cached instruction work in µs at `S = 1` (scales as `1/S`).
    pub instr: f64,
    /// Polling delays (`P`).
    pub p: f64,
    /// Network transits (`L`).
    pub l: f64,
    /// Fixed microseconds not covered by any primitive.
    pub fixed_us: f64,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost::new();

    /// One shared-memory cache miss.
    pub const C_SHARED: Cost = Cost {
        c_shared: 1.0,
        ..Cost::new()
    };
    /// One adapter-data cache miss.
    pub const C_OTHER: Cost = Cost {
        c_other: 1.0,
        ..Cost::new()
    };
    /// One uncached access.
    pub const U: Cost = Cost {
        u: 1.0,
        ..Cost::new()
    };
    /// One cross-memory attach.
    pub const V: Cost = Cost {
        v: 1.0,
        ..Cost::new()
    };
    /// One polling delay.
    pub const P: Cost = Cost {
        p: 1.0,
        ..Cost::new()
    };
    /// One network transit.
    pub const L: Cost = Cost {
        l: 1.0,
        ..Cost::new()
    };

    const fn new() -> Cost {
        Cost {
            c_shared: 0.0,
            c_other: 0.0,
            u: 0.0,
            v: 0.0,
            instr: 0.0,
            p: 0.0,
            l: 0.0,
            fixed_us: 0.0,
        }
    }

    /// Instruction work of `us` microseconds at `S = 1`.
    #[must_use]
    pub const fn instr(us: f64) -> Cost {
        Cost {
            instr: us,
            ..Cost::new()
        }
    }

    /// Evaluates with a distinct latency for shared-memory misses
    /// (`shared_miss_us`), modelling the MP2 cache-update primitive.
    ///
    /// The polling-delay term also uses `shared_miss_us`: the proxy's scan
    /// probes shared-memory queue heads, so cache update accelerates
    /// polling too (`P = poll_instr/S + poll_miss_factor · C_shared`).
    #[must_use]
    pub fn eval(&self, m: &MachineParams, shared_miss_us: f64) -> f64 {
        let polling_us = m.polling_delay_us(shared_miss_us);
        self.c_shared * shared_miss_us
            + self.c_other * m.cache_miss_us
            + self.u * m.uncached_us
            + self.v * m.vm_att_us
            + self.instr / m.speed
            + self.p * polling_us
            + self.l * m.net_latency_us
            + self.fixed_us
    }

    /// Evaluates with a uniform cache-miss latency (no cache update),
    /// exactly the paper's `(aC + bU + cV + d/S + eP + fL)` form.
    #[must_use]
    pub fn eval_uniform(&self, m: &MachineParams) -> f64 {
        self.eval(m, m.cache_miss_us)
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, r: Cost) -> Cost {
        Cost {
            c_shared: self.c_shared + r.c_shared,
            c_other: self.c_other + r.c_other,
            u: self.u + r.u,
            v: self.v + r.v,
            instr: self.instr + r.instr,
            p: self.p + r.p,
            l: self.l + r.l,
            fixed_us: self.fixed_us + r.fixed_us,
        }
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, r: Cost) {
        *self = *self + r;
    }
}

impl Mul<f64> for Cost {
    type Output = Cost;
    fn mul(self, k: f64) -> Cost {
        Cost {
            c_shared: self.c_shared * k,
            c_other: self.c_other * k,
            u: self.u * k,
            v: self.v * k,
            instr: self.instr * k,
            p: self.p * k,
            l: self.l * k,
            fixed_us: self.fixed_us * k,
        }
    }
}

impl core::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_evaluate_to_their_g30_values() {
        let m = &MachineParams::G30;
        assert_eq!(Cost::C_SHARED.eval_uniform(m), 1.0);
        assert_eq!(Cost::U.eval_uniform(m), 0.5);
        assert_eq!(Cost::V.eval_uniform(m), 0.65);
        assert_eq!(Cost::P.eval_uniform(m), 3.0);
        assert_eq!(Cost::L.eval_uniform(m), 1.0);
        assert_eq!(Cost::instr(2.0).eval_uniform(m), 2.0);
    }

    #[test]
    fn shared_split_only_matters_under_cache_update() {
        let m = &MachineParams::G30;
        let cost = Cost::C_SHARED * 8.0 + Cost::C_OTHER * 2.0;
        assert_eq!(cost.eval_uniform(m), 10.0);
        assert_eq!(cost.eval(m, 0.25), 8.0 * 0.25 + 2.0);
    }

    #[test]
    fn addition_and_scaling_are_componentwise() {
        let a = Cost::C_SHARED + Cost::U * 2.0 + Cost::instr(0.5);
        let b = a + a;
        assert_eq!(b, a * 2.0);
        let m = &MachineParams::G30;
        assert!((b.eval_uniform(m) - 2.0 * a.eval_uniform(m)).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Cost = [Cost::P, Cost::P, Cost::L].into_iter().sum();
        assert_eq!(total.p, 2.0);
        assert_eq!(total.l, 1.0);
    }

    #[test]
    fn instruction_work_scales_with_speed() {
        let fast = MachineParams::G30.with_speed(2.0);
        assert_eq!(Cost::instr(3.6).eval_uniform(&fast), 1.8);
    }
}
