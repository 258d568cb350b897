//! The overload watchdog: per-node utilisation sampling against the
//! paper's §5.4 stability bound.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mproxy_model::contention::STABLE_UTILIZATION;
use mproxy_obs::{Ctr, EventKind, HistId};

use crate::cluster::{Shared, RECOVERY_UTILIZATION, SHED_BACKLOG};

/// Per-node load and overload state, written by the proxy and the
/// watchdog, read by anyone.
#[derive(Debug, Default)]
pub(crate) struct ProxyHealth {
    /// Nanoseconds the proxy has spent servicing work (not idle-spinning).
    pub(crate) busy_ns: AtomicU64,
    /// Bits of the watchdog's last utilisation sample (an `f64`).
    pub(crate) util_bits: AtomicU64,
    /// Set while the sampled utilisation sits above [`STABLE_UTILIZATION`];
    /// cleared once it falls back under [`RECOVERY_UTILIZATION`].
    pub(crate) saturated: AtomicBool,
    /// Times the proxy has crossed into saturation.
    pub(crate) saturation_events: AtomicU64,
    /// Request operations rejected by overload shedding.
    pub(crate) shed: AtomicU64,
}

/// The overload watchdog: every `interval` it turns each proxy's
/// busy-time delta into a utilisation sample and applies the paper's
/// §5.4 stability rule — a proxy above [`STABLE_UTILIZATION`] has
/// unbounded expected queueing delay, so it is flagged saturated (with a
/// one-time warning per node) until the load falls back under
/// [`RECOVERY_UTILIZATION`].
pub(crate) fn watchdog_main(shared: &Shared, interval: Duration) {
    let nodes = shared.health.len();
    let mut prev_busy = vec![0u64; nodes];
    let mut warned = vec![false; nodes];
    let mut prev_t = Instant::now();
    while crate::idle::sleep_unless(interval, &shared.stop) {
        let now = Instant::now();
        let wall_ns = now.duration_since(prev_t).as_nanos();
        if wall_ns == 0 {
            continue;
        }
        prev_t = now;
        for (node, h) in shared.health.iter().enumerate() {
            let busy = h.busy_ns.load(Ordering::Relaxed);
            let delta = busy.saturating_sub(prev_busy[node]);
            prev_busy[node] = busy;
            let util = (u128::from(delta) as f64 / wall_ns as f64).min(1.0);
            h.util_bits.store(util.to_bits(), Ordering::Relaxed);
            let obs = &shared.obs[node];
            // Busy fraction as permille, one sample per watchdog tick.
            obs.record(HistId::BusyPermille, (util * 1000.0) as u64);
            // Two overload signals. Utilisation is the paper's §5.4 rule,
            // but it is a time-domain measure: on an oversubscribed host
            // the proxy thread may be descheduled and sample low even as
            // its input queue grows without bound. Backlog is the
            // space-domain symptom of the same instability and is immune
            // to scheduler noise, so either one trips the flag.
            let backlog = shared.wires[node].len();
            let was = h.saturated.load(Ordering::Acquire);
            if !was && (util > STABLE_UTILIZATION || backlog > SHED_BACKLOG) {
                h.saturation_events.fetch_add(1, Ordering::Relaxed);
                obs.inc(Ctr::SaturationEvents);
                obs.trace(EventKind::SatEnter, node as u16, backlog as u32);
                h.saturated.store(true, Ordering::Release);
                // A shedding proxy may be parked with its wire already
                // over the cap; make sure it sees the flag.
                shared.parkers[node].wake();
                if !warned[node] {
                    warned[node] = true;
                    eprintln!(
                        "mproxy-rt: node {node} proxy overloaded ({:.0}% utilisation, \
                         {backlog} queued) — past the 50% stability bound, queueing \
                         delay is now unbounded",
                        util * 100.0
                    );
                }
            } else if was && util < RECOVERY_UTILIZATION && backlog < SHED_BACKLOG / 2 {
                obs.trace(EventKind::SatExit, node as u16, backlog as u32);
                h.saturated.store(false, Ordering::Release);
            }
        }
    }
}
