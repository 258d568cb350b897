//! Overload detection: each proxy samples its own utilisation against the
//! paper's §5.4 stability bound, on the loop's one clock (cluster-relative
//! ns, read once per pass by [`crate::proxy`]).

use std::sync::atomic::Ordering;

use mproxy_model::contention::is_stable;
use mproxy_obs::{Ctr, EventKind, HistId};

use crate::cluster::Shared;

/// Shortest window a utilisation sample covers, in ns. A busy proxy
/// samples at the first pass past it; a parked one wakes every
/// `proxy::PARK_TIMEOUT` (also 1 ms), so an idle node keeps sampling.
pub(crate) const SAMPLE_PERIOD_NS: u64 = 1_000_000;

/// Wire backlog (frames queued on the node's ring) past which a proxy is
/// flagged saturated whatever its sampled utilisation; the flag clears
/// only under half of it.
const SATURATION_BACKLOG: usize = 128;

/// Utilisation below which a saturated proxy is considered recovered.
/// Sits under the §5.4 bound of 0.5 so the flag does not flap when load
/// hovers at it.
const RECOVERY_UTILIZATION: f64 = 0.4;

/// A proxy's own load meter. The service loop calls [`LoadSampler::tick`]
/// with its reading at the top of every pass and marks each pass that
/// moved anything ([`LoadSampler::charge`]); that pass is charged up to
/// the next tick's reading, so a busy pass costs no clock read of its
/// own. At most once per [`SAMPLE_PERIOD_NS`] the tick turns the busy
/// time since the last sample into a utilisation sample and applies the
/// §5.4 stability rule ([`is_stable`]) — a proxy at or above 50 % is
/// past the paper's bound, so it is flagged saturated (with a one-time
/// warning) until the load falls back under [`RECOVERY_UTILIZATION`].
/// Each crossing is counted
/// (`Ctr::SaturationEvents`) and traced (`SatEnter`), each recovery
/// traced (`SatExit`). Idle polling is charged to nobody, exactly like
/// the simulator's per-node busy counter.
pub(crate) struct LoadSampler {
    /// Nanoseconds spent servicing work since the last sample.
    busy_ns: u64,
    /// Start of the current sampling window.
    since_ns: u64,
    /// Start of the last pass, if it moved work and is not charged yet.
    busy_since_ns: Option<u64>,
    /// What the one-time warning called the proxy, once printed.
    pub(crate) warned: Option<&'static str>,
    /// Set on a crossing into saturation, cleared on recovery.
    pub(crate) saturated: bool,
}

impl LoadSampler {
    pub(crate) fn new(now_ns: u64) -> LoadSampler {
        LoadSampler {
            busy_ns: 0,
            since_ns: now_ns,
            busy_since_ns: None,
            warned: None,
            saturated: false,
        }
    }

    /// Marks the pass that started at `start_ns` as having moved
    /// something; the next [`LoadSampler::tick`] charges it.
    pub(crate) fn charge(&mut self, start_ns: u64) {
        self.busy_since_ns = Some(start_ns);
    }

    /// Charges the previous pass if it moved work, then closes the
    /// sampling window if it is at least [`SAMPLE_PERIOD_NS`] old.
    pub(crate) fn tick(&mut self, shared: &Shared, node: usize, now_ns: u64) {
        if let Some(start) = self.busy_since_ns.take() {
            self.busy_ns = self.busy_ns.saturating_add(now_ns.saturating_sub(start));
        }
        let wall = now_ns.saturating_sub(self.since_ns);
        if wall < SAMPLE_PERIOD_NS {
            return;
        }
        self.since_ns = now_ns;
        let util = (self.busy_ns as f64 / wall as f64).min(1.0);
        self.busy_ns = 0;
        shared.util_bits[node].store(util.to_bits(), Ordering::Relaxed);
        let obs = &shared.obs[node];
        // Busy fraction as permille, one sample per window.
        obs.record(HistId::BusyPermille, (util * 1000.0) as u64);
        // Two overload signals. Utilisation is the paper's §5.4 rule, but
        // it is a time-domain measure: on an oversubscribed host the proxy
        // thread may be descheduled and sample low even as its input
        // queue grows without bound. Backlog is the space-domain symptom
        // of the same instability and is immune to scheduler noise, so
        // either one trips the flag.
        let backlog = shared.wires[node].len();
        if !self.saturated && (!is_stable(util) || backlog > SATURATION_BACKLOG) {
            obs.inc(Ctr::SaturationEvents);
            obs.trace_at(now_ns, EventKind::SatEnter, node as u16, backlog as u32);
            self.saturated = true;
            if self.warned.is_none() {
                // Name the signal that tripped: a stalled or descheduled
                // proxy trips the backlog with its utilisation low.
                let signal = if !is_stable(util) {
                    "overloaded (past the 50% stability bound, queueing delay is now unbounded)"
                } else {
                    "not draining its input (stalled or descheduled)"
                };
                self.warned = Some(signal);
                eprintln!(
                    "mproxy-rt: node {node} proxy {signal}: {:.0}% utilisation, {backlog} queued",
                    util * 100.0
                );
            }
        } else if self.saturated && util < RECOVERY_UTILIZATION && backlog < SATURATION_BACKLOG / 2
        {
            obs.trace_at(now_ns, EventKind::SatExit, node as u16, backlog as u32);
            self.saturated = false;
        }
    }
}
