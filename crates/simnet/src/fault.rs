//! Seeded, deterministic fault injection for the simulated interconnect.
//!
//! A [`FaultPlan`] describes *what* can go wrong on the wire — per-packet
//! drop, duplication, reordering (extra transit delay) and payload
//! corruption probabilities, plus node *stall windows* during which a
//! node's communication agent stops servicing its input — and a seed that
//! makes every run byte-reproducible. The network consults the plan's
//! [`FaultState`] once per transmitted packet; because the discrete-event
//! executor is single-threaded and deterministic, the same seed always
//! yields the same fault sequence.
//!
//! The layer above (the reliable-delivery protocol in `mproxy`) is
//! responsible for masking these faults; this module only injects them
//! and counts what it injected.
//!
//! The seeded fate-decision core (the PRNG, the per-packet Bernoulli
//! draw, probability and window validation) lives in
//! [`mproxy_model::fate`] and is shared with the native runtime's
//! injector, so a plan means the same thing in simulation and on real
//! threads.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

pub use mproxy_model::fate::Fate;
use mproxy_model::fate::{check_probability, windows_overlap, PacketFates, SplitMix64};

use crate::NodeId;

/// A window of simulated time during which one node's communication agent
/// is frozen (services nothing, acknowledges nothing). Models a proxy
/// descheduled or wedged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallWindow {
    /// The stalled node.
    pub node: NodeId,
    /// Window start, µs of simulated time.
    pub start_us: f64,
    /// Window end, µs of simulated time.
    pub end_us: f64,
}

/// A window of simulated time during which one node's communication agent
/// is down: it crashes at `at_us` and resumes at `restart_us`. A crash is
/// a pause, as a native proxy respawn is: the agent services nothing
/// across the window, as in a [`StallWindow`], and keeps all its state
/// (queued commands, reliable-link tables, pending requests). What it
/// loses is the packets queued in its input at the crash instant, which
/// the senders' retransmissions recover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// The crashing node.
    pub node: NodeId,
    /// Instant of the crash, µs of simulated time.
    pub at_us: f64,
    /// Instant the restarted agent resumes service, µs of simulated time.
    pub restart_us: f64,
}

/// A seeded description of the faults to inject.
///
/// Built with the fluent methods; all probabilities are per transmitted
/// packet and independent.
///
/// # Examples
///
/// ```
/// use mproxy_simnet::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .drop(0.01)
///     .duplicate(0.005)
///     .reorder(0.01, 20.0)
///     .corrupt(0.002)
///     .stall(1, 100.0, 400.0)
///     .crash(0, 600.0, 200.0);
/// assert_eq!(plan.seed, 42);
/// assert_eq!(plan.stalls.len(), 1);
/// assert_eq!(plan.crashes.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed; equal seeds give identical fault sequences.
    pub seed: u64,
    /// Per-packet Bernoulli fates (shared fate-core representation).
    pub fates: PacketFates,
    /// Node stall windows.
    pub stalls: Vec<StallWindow>,
    /// Node crash windows.
    pub crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults.
    #[must_use]
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fates: PacketFates::NONE,
            stalls: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Sets the per-packet drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn drop(mut self, p: f64) -> FaultPlan {
        self.fates.drop_p = check_probability(p, "drop");
        self
    }

    /// Sets the per-packet duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn duplicate(mut self, p: f64) -> FaultPlan {
        self.fates.dup_p = check_probability(p, "duplicate");
        self
    }

    /// Sets the per-packet reorder probability and the extra delay (µs)
    /// a reordered packet suffers.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `extra_us` is negative or
    /// non-finite.
    #[must_use]
    pub fn reorder(mut self, p: f64, extra_us: f64) -> FaultPlan {
        self.fates.reorder_p = check_probability(p, "reorder");
        assert!(
            extra_us.is_finite() && extra_us >= 0.0,
            "reorder delay must be finite and >= 0"
        );
        self.fates.reorder_extra_us = extra_us;
        self
    }

    /// Sets the per-packet payload-corruption probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn corrupt(mut self, p: f64) -> FaultPlan {
        self.fates.corrupt_p = check_probability(p, "corrupt");
        self
    }

    /// Adds a stall window for `node` over `[start_us, end_us)`.
    ///
    /// # Panics
    ///
    /// Panics if an instant is negative or not finite, if the window is
    /// empty or inverted, or if it overlaps an existing stall window on
    /// the same node — two overlapping windows on one node have no
    /// coherent meaning (which end does the agent resume at?) and used to
    /// misbehave silently at simulation time.
    #[must_use]
    pub fn stall(mut self, node: NodeId, start_us: f64, end_us: f64) -> FaultPlan {
        check_instant(start_us, "stall start");
        check_instant(end_us, "stall end");
        assert!(
            start_us < end_us,
            "empty stall window [{start_us}, {end_us})"
        );
        if let Some(w) = self
            .stalls
            .iter()
            .find(|w| w.node == node && windows_overlap(w.start_us, w.end_us, start_us, end_us))
        {
            panic!(
                "stall window [{start_us}, {end_us}) overlaps [{}, {}) on node {node}",
                w.start_us, w.end_us
            );
        }
        self.stalls.push(StallWindow {
            node,
            start_us,
            end_us,
        });
        self
    }

    /// Adds a crash window: `node`'s communication agent crashes at
    /// `at_us`, losing the packets queued in its input, and resumes
    /// `downtime_us` later (see [`CrashWindow`]).
    ///
    /// # Panics
    ///
    /// Panics if `at_us` is negative or not finite, if `downtime_us` is
    /// not finite and positive, or if the window
    /// `[at_us, at_us + downtime_us)` overlaps an existing crash window on
    /// the same node.
    #[must_use]
    pub fn crash(mut self, node: NodeId, at_us: f64, downtime_us: f64) -> FaultPlan {
        check_instant(at_us, "crash");
        assert!(
            downtime_us.is_finite() && downtime_us > 0.0,
            "crash downtime must be finite and > 0, got {downtime_us}"
        );
        let restart_us = at_us + downtime_us;
        if let Some(w) = self
            .crashes
            .iter()
            .find(|w| w.node == node && windows_overlap(w.at_us, w.restart_us, at_us, restart_us))
        {
            panic!(
                "crash window [{at_us}, {restart_us}) overlaps [{}, {}) on node {node}",
                w.at_us, w.restart_us
            );
        }
        self.crashes.push(CrashWindow {
            node,
            at_us,
            restart_us,
        });
        self
    }

    /// Crash windows scheduled for `node`, in the order they were added.
    pub fn crashes_on(&self, node: NodeId) -> impl Iterator<Item = CrashWindow> + '_ {
        self.crashes.iter().copied().filter(move |w| w.node == node)
    }
}

/// Checks that a window bound is an instant the simulation can reach:
/// finite and not before time 0. `Dur::from_us` maps NaN and negative
/// values to 0, so an unchecked bound would silently move a window to
/// time 0, where its end test never matches; an infinite end never comes.
fn check_instant(us: f64, what: &str) {
    assert!(
        us.is_finite() && us >= 0.0,
        "{what} instant must be finite and >= 0, got {us}"
    );
}

/// Counters of injected faults, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Packets judged (= packets that finished serialisation).
    pub packets: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Packets duplicated.
    pub duplicated: u64,
    /// Packets delayed out of order.
    pub reordered: u64,
    /// Packets delivered with a corrupted payload.
    pub corrupted: u64,
}

/// Live per-run fault state: the plan, its PRNG, and injection counters.
///
/// One instance is shared by every adapter of a faulty [`crate::Network`];
/// draws happen in deterministic discrete-event order, so a seed fixes
/// the whole fault sequence.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: RefCell<SplitMix64>,
    packets: Cell<u64>,
    dropped: Cell<u64>,
    duplicated: Cell<u64>,
    reordered: Cell<u64>,
    corrupted: Cell<u64>,
}

impl FaultState {
    /// Creates the live state for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Rc<FaultState> {
        let rng = RefCell::new(SplitMix64::new(plan.seed));
        Rc::new(FaultState {
            plan,
            rng,
            packets: Cell::new(0),
            dropped: Cell::new(0),
            duplicated: Cell::new(0),
            reordered: Cell::new(0),
            corrupted: Cell::new(0),
        })
    }

    /// The plan this state was built from.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Judges one packet via the shared fate core. The core always draws
    /// the same number of variates, so the stream position depends only
    /// on how many packets were judged.
    pub fn judge(&self) -> Fate {
        let fate = self.plan.fates.judge(&mut self.rng.borrow_mut());
        self.packets.set(self.packets.get() + 1);
        if fate.drop {
            self.dropped.set(self.dropped.get() + 1);
        } else {
            // Only delivered packets can manifest the remaining faults.
            if fate.duplicate {
                self.duplicated.set(self.duplicated.get() + 1);
            }
            if fate.reordered() {
                self.reordered.set(self.reordered.get() + 1);
            }
            if fate.corrupt {
                self.corrupted.set(self.corrupted.get() + 1);
            }
        }
        fate
    }

    /// If `node` is inside a stall window at `now_us`, the window's end;
    /// otherwise `None`. Construction rejects overlapping windows, so at
    /// most one window can contain any instant.
    #[must_use]
    pub fn stall_end(&self, node: NodeId, now_us: f64) -> Option<f64> {
        self.plan
            .stalls
            .iter()
            .find(|w| w.node == node && w.start_us <= now_us && now_us < w.end_us)
            .map(|w| w.end_us)
    }

    /// If `node` is inside a crash window (down, before its restart) at
    /// `now_us`, the restart instant; otherwise `None`.
    #[must_use]
    pub fn crash_end(&self, node: NodeId, now_us: f64) -> Option<f64> {
        self.plan
            .crashes
            .iter()
            .find(|w| w.node == node && w.at_us <= now_us && now_us < w.restart_us)
            .map(|w| w.restart_us)
    }

    /// Snapshot of the injection counters.
    #[must_use]
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            packets: self.packets.get(),
            dropped: self.dropped.get(),
            duplicated: self.duplicated.get(),
            reordered: self.reordered.get(),
            corrupted: self.corrupted.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fates() {
        let mk = || FaultState::new(FaultPlan::new(7).drop(0.3).duplicate(0.2).corrupt(0.1));
        let (a, b) = (mk(), mk());
        for _ in 0..200 {
            assert_eq!(a.judge(), b.judge());
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn rates_roughly_respected() {
        let f = FaultState::new(FaultPlan::new(1).drop(0.25));
        for _ in 0..4000 {
            let _ = f.judge();
        }
        let c = f.counts();
        assert_eq!(c.packets, 4000);
        let rate = c.dropped as f64 / c.packets as f64;
        assert!((0.20..0.30).contains(&rate), "drop rate {rate}");
        assert_eq!(c.duplicated + c.reordered + c.corrupted, 0);
    }

    #[test]
    fn benign_plan_judges_nothing_interesting() {
        let plan = FaultPlan::new(0);
        assert!(plan.fates.is_benign());
        let f = FaultState::new(plan);
        for _ in 0..100 {
            assert_eq!(
                f.judge(),
                Fate {
                    dup_extra_us: 1.0,
                    ..Fate::default()
                }
            );
        }
    }

    #[test]
    fn stall_windows_queried_by_time_and_node() {
        let f = FaultState::new(
            FaultPlan::new(0)
                .stall(1, 10.0, 20.0)
                .stall(1, 25.0, 40.0)
                .stall(2, 0.0, 5.0),
        );
        assert_eq!(f.stall_end(1, 5.0), None);
        assert_eq!(f.stall_end(1, 12.0), Some(20.0));
        assert_eq!(f.stall_end(1, 22.0), None); // between windows
        assert_eq!(f.stall_end(1, 25.0), Some(40.0)); // start is inclusive
        assert_eq!(f.stall_end(1, 40.0), None); // end is exclusive
        assert_eq!(f.stall_end(2, 3.0), Some(5.0));
        assert_eq!(f.stall_end(0, 3.0), None);
    }

    #[test]
    fn crash_windows_queried_by_time_and_node() {
        let plan = FaultPlan::new(0)
            .crash(1, 100.0, 50.0)
            .crash(1, 400.0, 25.0);
        assert_eq!(plan.crashes_on(1).count(), 2);
        assert_eq!(plan.crashes_on(0).count(), 0);
        let f = FaultState::new(plan);
        assert_eq!(f.crash_end(1, 99.0), None);
        assert_eq!(f.crash_end(1, 100.0), Some(150.0)); // crash instant inclusive
        assert_eq!(f.crash_end(1, 149.0), Some(150.0));
        assert_eq!(f.crash_end(1, 150.0), None); // restart instant exclusive
        assert_eq!(f.crash_end(1, 410.0), Some(425.0));
        assert_eq!(f.crash_end(0, 110.0), None);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn probability_validated() {
        let _ = FaultPlan::new(0).drop(1.5);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_stalls_on_one_node_rejected() {
        let _ = FaultPlan::new(0).stall(1, 10.0, 20.0).stall(1, 15.0, 40.0);
    }

    #[test]
    fn touching_and_cross_node_stalls_allowed() {
        // End is exclusive, so back-to-back windows do not overlap; other
        // nodes are independent.
        let plan = FaultPlan::new(0)
            .stall(1, 10.0, 20.0)
            .stall(1, 20.0, 30.0)
            .stall(2, 12.0, 18.0);
        assert_eq!(plan.stalls.len(), 3);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_crashes_on_one_node_rejected() {
        let _ = FaultPlan::new(0)
            .crash(1, 100.0, 50.0)
            .crash(1, 120.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "finite and > 0")]
    fn zero_downtime_crash_rejected() {
        let _ = FaultPlan::new(0).crash(1, 100.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "crash instant must be finite and >= 0, got NaN")]
    fn nan_crash_instant_rejected() {
        let _ = FaultPlan::new(0).crash(1, f64::NAN, 10.0);
    }

    #[test]
    #[should_panic(expected = "crash instant must be finite and >= 0, got -100")]
    fn negative_crash_instant_rejected() {
        let _ = FaultPlan::new(0).crash(1, -100.0, 50.0);
    }

    #[test]
    #[should_panic(expected = "stall start instant must be finite and >= 0, got -100")]
    fn negative_stall_start_rejected() {
        let _ = FaultPlan::new(0).stall(1, -100.0, 50.0);
    }

    #[test]
    #[should_panic(expected = "stall end instant must be finite and >= 0, got inf")]
    fn unending_stall_rejected() {
        let _ = FaultPlan::new(0).stall(1, 10.0, f64::INFINITY);
    }
}
