//! The overload watchdog: per-lane utilisation sampling against the
//! paper's §5.4 stability bound.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mproxy_model::contention::STABLE_UTILIZATION;
use mproxy_obs::{Ctr, EventKind, HistId};

use crate::cluster::{Shared, RECOVERY_UTILIZATION, SHED_BACKLOG};

/// Per-lane load and overload state, written by the proxy and the
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
    /// Request packets rejected by overload shedding.
    pub(crate) shed: AtomicU64,
}

/// The overload watchdog: every `interval` it turns each proxy lane's
/// busy-time delta into a utilisation sample and applies the paper's
/// §5.4 stability rule *per lane* — a proxy above [`STABLE_UTILIZATION`]
/// has unbounded expected queueing delay, so it is flagged saturated
/// (with a one-time warning per lane) until the load falls back under
/// [`RECOVERY_UTILIZATION`]. The node-level view takes the max over
/// lanes ([`crate::RtCluster::utilization`]): the bound binds per proxy
/// thread, and averaging would hide a hot shard behind idle siblings.
pub(crate) fn watchdog_main(shared: &Shared, interval: Duration) {
    let lanes = shared.lanes();
    let mut prev_busy = vec![0u64; lanes];
    let mut warned = vec![false; lanes];
    let mut prev_t = Instant::now();
    while crate::idle::sleep_unless(interval, &shared.stop) {
        let now = Instant::now();
        let wall_ns = now.duration_since(prev_t).as_nanos();
        if wall_ns == 0 {
            continue;
        }
        prev_t = now;
        for (lane, h) in shared.health.iter().enumerate() {
            let busy = h.busy_ns.load(Ordering::Relaxed);
            let delta = busy.saturating_sub(prev_busy[lane]);
            prev_busy[lane] = busy;
            let util = (u128::from(delta) as f64 / wall_ns as f64).min(1.0);
            h.util_bits.store(util.to_bits(), Ordering::Relaxed);
            let obs = &shared.obs[lane];
            // Busy fraction as permille, one sample per watchdog tick.
            obs.record(HistId::BusyPermille, (util * 1000.0) as u64);
            // Two overload signals. Utilisation is the paper's §5.4 rule,
            // but it is a time-domain measure: on an oversubscribed host
            // the proxy thread may be descheduled and sample low even as
            // its input queue grows without bound. Backlog is the
            // space-domain symptom of the same instability and is immune
            // to scheduler noise, so either one trips the flag.
            let backlog = shared.wires[lane].len();
            let was = h.saturated.load(Ordering::Acquire);
            if !was && (util > STABLE_UTILIZATION || backlog > SHED_BACKLOG) {
                h.saturation_events.fetch_add(1, Ordering::Relaxed);
                obs.inc(Ctr::SaturationEvents);
                obs.trace(EventKind::SatEnter, lane as u16, backlog as u32);
                h.saturated.store(true, Ordering::Release);
                // A shedding proxy may be parked with its wire already
                // over the cap; make sure it sees the flag.
                shared.parkers[lane].wake();
                if !warned[lane] {
                    warned[lane] = true;
                    let who = if shared.sharded() {
                        format!(
                            "node {} shard {} proxy",
                            shared.lane_node(lane),
                            lane % shared.shards
                        )
                    } else {
                        format!("node {lane} proxy")
                    };
                    eprintln!(
                        "mproxy-rt: {who} overloaded ({:.0}% utilisation, \
                         {backlog} queued) — past the 50% stability bound, queueing \
                         delay is now unbounded",
                        util * 100.0
                    );
                }
            } else if was && util < RECOVERY_UTILIZATION && backlog < SHED_BACKLOG / 2 {
                obs.trace(EventKind::SatExit, lane as u16, backlog as u32);
                h.saturated.store(false, Ordering::Release);
            }
        }
    }
}
