//! Seeded fault injection for the *native* (threaded) runtime.
//!
//! An [`RtFaultPlan`] mirrors `mproxy-simnet`'s `FaultPlan` semantics on
//! real threads: drop / duplication / corruption Bernoulli draws
//! (reordering is omitted — the wire rings are FIFO by construction, so
//! the transport cannot reorder), plus the time-domain faults that
//! matter to supervision: **stalls** (the proxy freezes for a
//! wall-clock window) and **kills** (the proxy panics after servicing a
//! given number of operations, deterministically reproducible because
//! the trigger is an op count, not a clock).
//!
//! The rates are per *operation*, whatever the wire layer coalesces:
//! every operation is judged once when it is first sent, and one that
//! draws a verdict travels in a wire frame of its own, so the verdict
//! touches nothing else (a retransmitted frame is one packet and is
//! judged once, like one operation).
//!
//! The injector is proxy state: `start` splits the plan into one
//! `NodeFaults` per node, kept in its `NodeState` and read by its proxy
//! alone — the node's [`SplitMix64`] stream (`seed ^ node·φ`, over the
//! fate core [`mproxy_model::fate`]) and its kills and stall windows,
//! each list with a cursor. `NodeState` outlives a panic, so a respawned
//! loop resumes the same stream and fires no kill twice: a proxy's fate
//! sequence is a pure function of the seed and of how many transmissions
//! it has judged (cross-node interleaving is the scheduler's — the
//! nondeterminism the chaos harness soaks). What was injected is counted
//! once, in the node's telemetry scope; [`crate::RtCluster::fault_counts`]
//! sums the nodes.
//!
//! With no plan every node carries `None` and the hot path pays one
//! never-taken branch per loop; a benign plan's verdict costs what
//! `perfbench`'s `fault.judge_ns` probe reports.

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
/// `RtClusterBuilder::fault_plan`; all probabilities are per operation
/// first sent (a re-sent frame is judged once, as one operation) and
/// independent. Control traffic (acknowledgement
/// watermarks and NACKs) is never judged — the injector models a
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
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RtFaultPlan {
    /// PRNG seed; per-node streams are derived as `seed ^ node·φ`.
    pub seed: u64,
    /// Per-operation Bernoulli fates (shared fate-core representation).
    pub fates: PacketFates,
    /// Proxy stall windows.
    pub stalls: Vec<RtStall>,
    /// Deterministic proxy kills, by threshold.
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

    /// Sets the per-operation drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn drop(mut self, p: f64) -> RtFaultPlan {
        self.fates.drop_p = check_probability(p, "drop");
        self
    }

    /// Sets the per-operation duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn duplicate(mut self, p: f64) -> RtFaultPlan {
        self.fates.dup_p = check_probability(p, "duplicate");
        self
    }

    /// Sets the per-operation payload-corruption probability.
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
    /// (across respawns) op count.
    #[must_use]
    pub fn kill(mut self, node: usize, after_ops: u64) -> RtFaultPlan {
        self.kills.push(RtKill { node, after_ops });
        self.kills.sort_by_key(|k| k.after_ops);
        self
    }

    /// Splits the plan into the injector state of each node of an
    /// `nodes`-node cluster, in node order.
    ///
    /// # Panics
    ///
    /// Panics if a kill or stall names a node the cluster lacks.
    pub(crate) fn split(&self, nodes: usize) -> Vec<NodeFaults> {
        let named = self.stalls.iter().map(|s| s.node);
        if let Some(max) = named.chain(self.kills.iter().map(|k| k.node)).max() {
            assert!(max < nodes, "fault plan references node {max} of {nodes}");
        }
        let mut split: Vec<NodeFaults> = (0..nodes)
            .map(|node| NodeFaults {
                fates: self.fates,
                rng: SplitMix64::new(self.seed ^ (node as u64).wrapping_mul(PHI)),
                kills: Vec::new(),
                next_kill: 0,
                stalls: Vec::new(),
                next_stall: 0,
            })
            .collect();
        for k in &self.kills {
            split[k.node].kills.push(k.after_ops);
        }
        for &s in &self.stalls {
            split[s.node].stalls.push(s);
        }
        // In firing order, however the plan's public lists were built.
        for f in &mut split {
            f.kills.sort_unstable();
            f.stalls.sort_by_key(|s| s.start);
        }
        split
    }
}

/// Counters of injected runtime faults, for reports and the chaos
/// harness's sanity assertions ("the injector actually fired"): the sums
/// over every node of its telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtFaultCounts {
    /// Transmissions judged: operations first sent, frames re-sent.
    pub packets: u64,
    /// Transmissions dropped at the sending proxy.
    pub dropped: u64,
    /// Transmissions sent twice (a dropped one counts only as dropped).
    pub duplicated: u64,
    /// Transmissions delivered with the corrupt flag set (likewise).
    pub corrupted: u64,
    /// Stall windows served.
    pub stalls: u64,
}

/// One node's share of an [`RtFaultPlan`], kept in its `NodeState` and
/// read and advanced by its proxy alone.
#[derive(Debug)]
pub(crate) struct NodeFaults {
    fates: PacketFates,
    /// The node's fate stream, `seed ^ node·φ`.
    rng: SplitMix64,
    /// The node's kill thresholds, ascending; those before `next_kill`
    /// have fired.
    kills: Vec<u64>,
    next_kill: usize,
    /// The node's stall windows by start; those before `next_stall`
    /// were served, or passed while nobody looked.
    stalls: Vec<RtStall>,
    next_stall: usize,
}

impl NodeFaults {
    /// True if no per-operation fault can ever fire — lets the send path
    /// skip the stream entirely for stall/kill-only plans.
    pub(crate) fn packet_faults_possible(&self) -> bool {
        !self.fates.is_benign()
    }

    /// Judges one transmission: the next verdict of the node's stream.
    pub(crate) fn judge(&mut self) -> Fate {
        self.fates.judge(&mut self.rng)
    }

    /// If the next kill is due at the node's cumulative op count `ops`,
    /// moves the cursor past it and returns its threshold. The cursor
    /// moves before the caller panics, so the respawned loop, re-entering
    /// this state, does not fire it again; at most one kill per call, so
    /// each respawn can be killed again by a later one.
    pub(crate) fn kill_due(&mut self, ops: u64) -> Option<u64> {
        let after_ops = *self.kills.get(self.next_kill).filter(|&&t| ops >= t)?;
        self.next_kill += 1;
        Some(after_ops)
    }

    /// If `now_ns` since cluster start falls inside the next stall
    /// window, serves it: returns how long to freeze (the remainder of
    /// the window) and whether the stop signal cuts that short. The
    /// proxy's clock only moves forward, so a window it passed without
    /// looking (busy, or dead, through all of it) is skipped for good.
    pub(crate) fn stall_due(&mut self, now_ns: u64) -> Option<(Duration, bool)> {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        while let Some(s) = self.stalls.get(self.next_stall) {
            if now_ns < ns(s.start) {
                return None;
            }
            self.next_stall += 1;
            let end_ns = ns(s.start + s.dur);
            if now_ns < end_ns {
                return Some((Duration::from_nanos(end_ns - now_ns), s.interruptible));
            }
        }
        None
    }

    /// Whether a kill or a stall is still to come (gates the per-pass
    /// op-count read).
    pub(crate) fn has_timed_faults(&self) -> bool {
        self.next_kill < self.kills.len() || self.next_stall < self.stalls.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_streams_are_independent_and_seeded() {
        let plan = RtFaultPlan::new(9).drop(0.5);
        let (mut a, mut b) = (plan.split(2), plan.split(2));
        let fa: Vec<Fate> = (0..50).map(|_| a[0].judge()).collect();
        let fb: Vec<Fate> = (0..50).map(|_| b[0].judge()).collect();
        assert_eq!(fa, fb, "same seed, same per-node stream");
        // Node 1's stream differs from node 0's.
        let f1: Vec<Fate> = (0..50).map(|_| a[1].judge()).collect();
        assert_ne!(fa, f1);
    }

    #[test]
    fn a_nodes_fates_are_its_seeded_stream_whatever_its_peers_draw() {
        // The stream each node judges from is `PacketFates::judge` over
        // `SplitMix64::new(seed ^ node·φ)`, as before the streams moved
        // into the nodes: node 1's draws, however many, move none of
        // node 0's.
        let plan = RtFaultPlan::new(1997).drop(0.3).duplicate(0.2).corrupt(0.1);
        let mut reference = SplitMix64::new(1997 ^ 0u64.wrapping_mul(PHI));
        let mut faults = plan.split(2);
        for i in 0..200 {
            for _ in 0..i % 7 {
                faults[1].judge();
            }
            let expected = plan.fates.judge(&mut reference);
            assert_eq!(faults[0].judge(), expected, "draw {i}");
        }
    }

    #[test]
    fn kills_fire_once_each_in_order() {
        let plan = RtFaultPlan::new(0).kill(1, 100).kill(1, 50);
        let mut st = plan.split(2);
        assert_eq!(st[0].kill_due(1_000), None, "other nodes unaffected");
        assert_eq!(st[1].kill_due(49), None);
        assert_eq!(st[1].kill_due(60), Some(50), "lowest threshold first");
        assert_eq!(st[1].kill_due(60), None, "second kill not yet due");
        assert_eq!(st[1].kill_due(120), Some(100), "fires at its threshold");
        assert_eq!(st[1].kill_due(1_000_000), None, "each fires once");
        assert!(!st[1].has_timed_faults(), "both kills fired");
    }

    #[test]
    fn stalls_serve_once_with_remaining_time() {
        let plan = RtFaultPlan::new(0)
            .stall(0, Duration::from_millis(10), Duration::from_millis(20))
            .wedge(1, Duration::ZERO, Duration::from_millis(5));
        let mut st = plan.split(2);
        const MS: u64 = 1_000_000;
        assert_eq!(st[0].stall_due(5 * MS), None);
        let (remaining, interruptible) = st[0].stall_due(15 * MS).unwrap();
        assert_eq!(remaining, Duration::from_millis(15));
        assert!(interruptible);
        assert_eq!(st[0].stall_due(16 * MS), None);
        let (_, interruptible) = st[1].stall_due(0).unwrap();
        assert!(!interruptible);
        assert!(st.iter().all(|f| !f.has_timed_faults()), "both served");
    }

    #[test]
    fn stalls_serve_in_time_order_and_a_passed_window_is_skipped() {
        const MS: u64 = 1_000_000;
        let ms = Duration::from_millis;
        let plan = RtFaultPlan::new(0)
            .stall(0, ms(40), ms(10))
            .stall(0, ms(20), ms(10))
            .stall(0, ms(0), ms(10));
        let mut st = plan.split(1).remove(0);
        // The window at 0 passed unserved; the one at 20 ms is next.
        let (remaining, _) = st.stall_due(25 * MS).expect("the window at 20 ms");
        assert_eq!(remaining, ms(5));
        assert_eq!(st.stall_due(35 * MS), None, "between windows");
        let (remaining, _) = st.stall_due(40 * MS).expect("the window at 40 ms");
        assert_eq!(remaining, ms(10));
        assert!(!st.has_timed_faults());
    }

    #[test]
    fn a_plan_built_field_by_field_fires_in_order() {
        let kill = |after_ops| RtKill { node: 0, after_ops };
        let plan = RtFaultPlan {
            kills: vec![kill(100), kill(50)],
            ..RtFaultPlan::new(0)
        };
        let mut st = plan.split(1).remove(0);
        assert_eq!(st.kill_due(60), Some(50), "lowest threshold first");
        assert_eq!(st.kill_due(120), Some(100));
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
        let _ = RtFaultPlan::new(0).kill(7, 10).split(2);
    }

    #[test]
    fn benign_plan_counts_nothing() {
        let mut st = RtFaultPlan::new(3).split(1).remove(0);
        assert!(!st.packet_faults_possible());
        assert!(!st.has_timed_faults());
        let f = st.judge();
        assert!(!f.drop && !f.duplicate && !f.corrupt);
        // One judgement drew one verdict's five variates, nothing more.
        let mut fresh = SplitMix64::new(3);
        for _ in 0..5 {
            fresh.next_u64();
        }
        assert_eq!(st.rng.next_u64(), fresh.next_u64());
    }
}
