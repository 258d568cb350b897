//! Seeded fault injection for the *native* (threaded) runtime.
//!
//! An [`RtFaultPlan`] mirrors `mproxy-simnet`'s `FaultPlan` semantics on
//! real threads: per-packet drop / duplication / corruption Bernoulli
//! draws (reordering is omitted — the wire rings are FIFO by
//! construction, so the transport cannot reorder), plus the time-domain
//! faults that matter to a supervisor: **stalls** (the proxy freezes for
//! a wall-clock window) and **kills** (the proxy panics after servicing
//! a given number of operations, deterministically reproducible because
//! the trigger is an op count, not a clock).
//!
//! The rates are per *operation*, whatever the wire layer coalesces:
//! every operation is judged once when it is first sent, and one that
//! draws a verdict travels in a wire frame of its own, so the verdict
//! touches nothing else (a retransmitted frame is one packet and is
//! judged once). The per-packet draws
//! come from the shared fate core
//! ([`mproxy_model::fate`]), one [`SplitMix64`] stream per *sending*
//! node (`seed ^ node·φ`), so each proxy's fault stream is a pure
//! function of the seed and of how many packets that proxy has judged.
//! Cross-node interleaving is still scheduler-dependent — these are real
//! threads — which is exactly the nondeterminism the chaos harness is
//! meant to soak; the per-node streams keep any *single* proxy's fate
//! sequence reproducible.
//!
//! When no plan is installed the cluster carries `None` and the hot path
//! pays one never-taken branch per loop; with a benign plan installed a
//! verdict costs what `perfbench`'s `fault.judge_ns` probe reports.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mproxy_model::fate::{check_probability, windows_overlap, Fate, PacketFates, SplitMix64};

/// Golden-ratio increment used to derive per-node PRNG streams.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// A wall-clock window during which one node's proxy freezes (services
/// nothing, acknowledges nothing). `interruptible` stalls still observe
/// the cluster stop signal — the proxy wakes early at shutdown; a
/// non-interruptible stall ("wedge") models a proxy stuck in foreign
/// code and is the test vehicle for the bounded-shutdown path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtStall {
    /// The stalled node.
    pub node: usize,
    /// Window start, relative to cluster start.
    pub start: Duration,
    /// Window length.
    pub dur: Duration,
    /// Whether the stalled proxy still honours the stop signal.
    pub interruptible: bool,
}

/// A deterministic proxy kill: the proxy for `node` panics at the top of
/// its service loop once it has serviced at least `after_ops` operations
/// ([`crate::RtCluster::ops_serviced`]: commands, plus the operations of
/// every data frame taken off the wire, plus control frames; cumulative
/// across respawns — so several kills on one node fire in `after_ops`
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtKill {
    /// The node whose proxy dies.
    pub node: usize,
    /// Ops-serviced threshold that triggers the panic.
    pub after_ops: u64,
}

/// A seeded description of the faults to inject into a running cluster.
///
/// Built with the fluent methods, installed via
/// `RtClusterBuilder::fault_plan`; all probabilities are per transmitted
/// data packet and independent. Control traffic (acknowledgement
/// watermarks, NACKs, HELLOs) is never judged — the injector models a
/// lossy transport under a reliable protocol, not a broken protocol.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use mproxy_rt::RtFaultPlan;
///
/// let plan = RtFaultPlan::new(42)
///     .drop(0.01)
///     .duplicate(0.005)
///     .corrupt(0.002)
///     .kill(1, 5_000)
///     .stall(0, Duration::from_millis(10), Duration::from_millis(5));
/// assert_eq!(plan.seed, 42);
/// assert!(!plan.is_benign());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RtFaultPlan {
    /// PRNG seed; per-node streams are derived as `seed ^ node·φ`.
    pub seed: u64,
    /// Per-packet Bernoulli fates (shared fate-core representation).
    pub fates: PacketFates,
    /// Proxy stall windows.
    pub stalls: Vec<RtStall>,
    /// Deterministic proxy kills.
    pub kills: Vec<RtKill>,
}

impl RtFaultPlan {
    /// A plan with the given seed and no faults.
    #[must_use]
    pub fn new(seed: u64) -> RtFaultPlan {
        RtFaultPlan {
            seed,
            fates: PacketFates::NONE,
            stalls: Vec::new(),
            kills: Vec::new(),
        }
    }

    /// Sets the per-packet drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn drop(mut self, p: f64) -> RtFaultPlan {
        self.fates.drop_p = check_probability(p, "drop");
        self
    }

    /// Sets the per-packet duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn duplicate(mut self, p: f64) -> RtFaultPlan {
        self.fates.dup_p = check_probability(p, "duplicate");
        self
    }

    /// Sets the per-packet payload-corruption probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn corrupt(mut self, p: f64) -> RtFaultPlan {
        self.fates.corrupt_p = check_probability(p, "corrupt");
        self
    }

    /// Adds an interruptible stall window for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `dur` is zero or the window overlaps an existing stall
    /// window on the same node.
    #[must_use]
    pub fn stall(self, node: usize, start: Duration, dur: Duration) -> RtFaultPlan {
        self.add_stall(node, start, dur, true)
    }

    /// Adds a **non-interruptible** stall ("wedge") for `node`: the
    /// proxy sleeps through the stop signal, which is how a wedged proxy
    /// is simulated for the bounded-shutdown tests.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RtFaultPlan::stall`].
    #[must_use]
    pub fn wedge(self, node: usize, start: Duration, dur: Duration) -> RtFaultPlan {
        self.add_stall(node, start, dur, false)
    }

    fn add_stall(
        mut self,
        node: usize,
        start: Duration,
        dur: Duration,
        interruptible: bool,
    ) -> RtFaultPlan {
        assert!(!dur.is_zero(), "empty stall window");
        let (s, e) = (start.as_secs_f64(), (start + dur).as_secs_f64());
        if let Some(w) = self.stalls.iter().find(|w| {
            w.node == node
                && windows_overlap(w.start.as_secs_f64(), (w.start + w.dur).as_secs_f64(), s, e)
        }) {
            panic!(
                "stall window [{s}s, {e}s) overlaps [{:?}, {:?}) on node {node}",
                w.start,
                w.start + w.dur
            );
        }
        self.stalls.push(RtStall {
            node,
            start,
            dur,
            interruptible,
        });
        self
    }

    /// Adds a kill: `node`'s proxy panics once it has serviced
    /// `after_ops` operations. Multiple kills on one node fire one at a
    /// time, in `after_ops` order, against the node's *cumulative*
    /// (cross-epoch) op count.
    #[must_use]
    pub fn kill(mut self, node: usize, after_ops: u64) -> RtFaultPlan {
        self.kills.push(RtKill { node, after_ops });
        self.kills.sort_by_key(|k| k.after_ops);
        self
    }

    /// True if the plan injects nothing at all.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.fates.is_benign() && self.stalls.is_empty() && self.kills.is_empty()
    }

    /// Largest node index the plan references, if any (for validation
    /// against the cluster size at start).
    #[must_use]
    pub fn max_node(&self) -> Option<usize> {
        self.stalls
            .iter()
            .map(|s| s.node)
            .chain(self.kills.iter().map(|k| k.node))
            .max()
    }
}

/// Counters of injected runtime faults, for reports and the chaos
/// harness's sanity assertions ("the injector actually fired").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtFaultCounts {
    /// Data packets judged.
    pub packets: u64,
    /// Data packets dropped at the sending proxy.
    pub dropped: u64,
    /// Data packets transmitted twice.
    pub duplicated: u64,
    /// Data packets delivered with the corrupt flag set.
    pub corrupted: u64,
    /// Proxy kills fired.
    pub kills: u64,
    /// Stall windows served.
    pub stalls: u64,
}

/// What a stall check asks the proxy to do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StallOrder {
    pub remaining: Duration,
    pub interruptible: bool,
}

/// Live injector state shared by every proxy thread.
#[derive(Debug)]
pub(crate) struct RtFaultState {
    plan: RtFaultPlan,
    rngs: Vec<Mutex<SplitMix64>>,
    kill_fired: Vec<AtomicBool>,
    stall_done: Vec<AtomicBool>,
    packets: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    corrupted: AtomicU64,
    kills: AtomicU64,
    stalls: AtomicU64,
}

impl RtFaultState {
    pub(crate) fn new(plan: RtFaultPlan, nodes: usize) -> RtFaultState {
        if let Some(max) = plan.max_node() {
            assert!(max < nodes, "fault plan references node {max} of {nodes}");
        }
        RtFaultState {
            rngs: (0..nodes)
                .map(|n| Mutex::new(SplitMix64::new(plan.seed ^ (n as u64).wrapping_mul(PHI))))
                .collect(),
            kill_fired: plan.kills.iter().map(|_| AtomicBool::new(false)).collect(),
            stall_done: plan.stalls.iter().map(|_| AtomicBool::new(false)).collect(),
            packets: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            kills: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            plan,
        }
    }

    /// True if no per-packet fault can ever fire — lets the send path
    /// skip the RNG entirely for stall/kill-only plans.
    pub(crate) fn packet_faults_possible(&self) -> bool {
        !self.plan.fates.is_benign()
    }

    /// Judges one outgoing data packet from `node` and counts what was
    /// injected. The node's own proxy is the only caller, so the mutex
    /// is uncontended.
    pub(crate) fn judge(&self, node: usize) -> Fate {
        let fate = self
            .plan
            .fates
            .judge(&mut self.rngs[node].lock().unwrap_or_else(|e| e.into_inner()));
        self.packets.fetch_add(1, Ordering::Relaxed);
        if fate.drop {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            if fate.duplicate {
                self.duplicated.fetch_add(1, Ordering::Relaxed);
            }
            if fate.corrupt {
                self.corrupted.fetch_add(1, Ordering::Relaxed);
            }
        }
        fate
    }

    /// If a kill is due on `node` given its cumulative op count, marks
    /// it fired and returns its threshold (at most one kill per call, so
    /// each respawn can be killed again by a later entry).
    pub(crate) fn kill_due(&self, node: usize, ops: u64) -> Option<u64> {
        for (i, k) in self.plan.kills.iter().enumerate() {
            if k.node == node
                && ops >= k.after_ops
                && !self.kill_fired[i].swap(true, Ordering::Relaxed)
            {
                self.kills.fetch_add(1, Ordering::Relaxed);
                return Some(k.after_ops);
            }
        }
        None
    }

    /// If `node` sits inside an unserved stall window at `elapsed` since
    /// cluster start, marks the window served and returns how long to
    /// freeze (the remainder of the window).
    pub(crate) fn stall_due(&self, node: usize, elapsed: Duration) -> Option<StallOrder> {
        for (i, s) in self.plan.stalls.iter().enumerate() {
            if s.node == node
                && elapsed >= s.start
                && elapsed < s.start + s.dur
                && !self.stall_done[i].swap(true, Ordering::Relaxed)
            {
                self.stalls.fetch_add(1, Ordering::Relaxed);
                return Some(StallOrder {
                    remaining: (s.start + s.dur).saturating_sub(elapsed),
                    interruptible: s.interruptible,
                });
            }
        }
        None
    }

    /// Whether any time-domain fault is configured (gates the per-loop
    /// clock check).
    pub(crate) fn has_timed_faults(&self) -> bool {
        !self.plan.stalls.is_empty() || !self.plan.kills.is_empty()
    }

    /// Snapshot of the injection counters.
    pub(crate) fn counts(&self) -> RtFaultCounts {
        RtFaultCounts {
            packets: self.packets.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            kills: self.kills.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_streams_are_independent_and_seeded() {
        let plan = RtFaultPlan::new(9).drop(0.5);
        let (a, b) = (
            RtFaultState::new(plan.clone(), 2),
            RtFaultState::new(plan, 2),
        );
        let fa: Vec<Fate> = (0..50).map(|_| a.judge(0)).collect();
        let fb: Vec<Fate> = (0..50).map(|_| b.judge(0)).collect();
        assert_eq!(fa, fb, "same seed, same per-node stream");
        // Node 1's stream differs from node 0's.
        let f1: Vec<Fate> = (0..50).map(|_| a.judge(1)).collect();
        assert_ne!(fa, f1);
    }

    #[test]
    fn kills_fire_once_each_in_order() {
        let plan = RtFaultPlan::new(0).kill(1, 100).kill(1, 50);
        let st = RtFaultState::new(plan, 2);
        assert_eq!(st.kill_due(0, 1_000), None, "other nodes unaffected");
        assert_eq!(st.kill_due(1, 49), None);
        assert_eq!(st.kill_due(1, 60), Some(50), "lowest threshold first");
        assert_eq!(st.kill_due(1, 60), None, "second kill not yet due");
        assert_eq!(st.kill_due(1, 120), Some(100), "fires at its threshold");
        assert_eq!(st.kill_due(1, 1_000_000), None, "each fires once");
        assert_eq!(st.counts().kills, 2);
    }

    #[test]
    fn stalls_serve_once_with_remaining_time() {
        let plan = RtFaultPlan::new(0)
            .stall(0, Duration::from_millis(10), Duration::from_millis(20))
            .wedge(1, Duration::ZERO, Duration::from_millis(5));
        let st = RtFaultState::new(plan, 2);
        assert_eq!(st.stall_due(0, Duration::from_millis(5)), None);
        let o = st.stall_due(0, Duration::from_millis(15)).unwrap();
        assert_eq!(o.remaining, Duration::from_millis(15));
        assert!(o.interruptible);
        assert_eq!(st.stall_due(0, Duration::from_millis(16)), None);
        let w = st.stall_due(1, Duration::ZERO).unwrap();
        assert!(!w.interruptible);
        assert_eq!(st.counts().stalls, 2);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_stalls_rejected() {
        let _ = RtFaultPlan::new(0)
            .stall(0, Duration::from_millis(0), Duration::from_millis(10))
            .stall(0, Duration::from_millis(5), Duration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "references node")]
    fn plan_validated_against_cluster_size() {
        let _ = RtFaultState::new(RtFaultPlan::new(0).kill(7, 10), 2);
    }

    #[test]
    fn benign_plan_counts_nothing() {
        let st = RtFaultState::new(RtFaultPlan::new(3), 1);
        assert!(st.plan.is_benign());
        assert!(!st.packet_faults_possible());
        assert!(!st.has_timed_faults());
        let f = st.judge(0);
        assert!(!f.drop && !f.duplicate && !f.corrupt);
        assert_eq!(st.counts().packets, 1);
    }
}
