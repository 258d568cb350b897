//! Threaded-runtime data-plane workloads, the A/B subjects of the
//! `rt_obs` telemetry-overhead gate.
//!
//! Two microbenchmarks:
//!
//! * **ping-pong** — two processes on two nodes bounce a small PUT back
//!   and forth; per-round latency percentiles expose the idle-path cost
//!   (spin → yield → park wake-up) and the per-message queue mechanics;
//! * **fan-in** — several source processes, each on its own node, flood
//!   acknowledged PUTs at one sink process under a fixed outstanding
//!   window; sustained messages/sec exposes the hot-path queue mechanics
//!   (CAS claims on the wire ring, per-batch coalesced ACKs).

use std::time::{Duration, Instant};

use mproxy_rt::{FlagId, RtClusterBuilder};

/// Payload bytes per message (a small control message — word aligned, so
/// segment copies are pure atomic word traffic).
pub const PAYLOAD: u32 = 32;
/// Outstanding unacknowledged PUTs each fan-in source keeps in flight.
/// Deep enough to build real backlog at the sink (batching and ACK
/// coalescing have material work), shallow enough that the bounded rings
/// exercise their backpressure path rather than deadlocking the host.
pub const WINDOW: u64 = 256;
/// Give-up bound for every wait in the workloads — a wedged data plane
/// fails the bench loudly instead of hanging CI.
const WAIT: Duration = Duration::from_secs(120);

/// Ping-pong latency summary (microseconds).
#[derive(Debug, Clone, Copy)]
pub struct PingPong {
    /// Round trips measured.
    pub rounds: u64,
    /// Total wall time, seconds.
    pub wall_s: f64,
    /// Median round-trip latency, µs.
    pub p50_us: f64,
    /// 90th-percentile round-trip latency, µs.
    pub p90_us: f64,
    /// 99th-percentile round-trip latency, µs.
    pub p99_us: f64,
}

/// Fan-in throughput summary.
#[derive(Debug, Clone, Copy)]
pub struct FanIn {
    /// Source processes (each on its own node).
    pub sources: usize,
    /// Messages sent per source.
    pub msgs_per_source: u64,
    /// Total wall time until the sink observed every delivery, seconds.
    pub wall_s: f64,
    /// Sustained delivered messages per second at the sink.
    pub msgs_per_sec: f64,
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

/// Runs the ping-pong workload. `telemetry` arms histograms and flight
/// recorders — the A/B axis of the `rt_obs` overhead gate (counters stay
/// on either way).
///
/// # Panics
///
/// Panics if any wait times out (a wedged data plane) — the bench must
/// fail loudly, not hang.
#[must_use]
pub fn ping_pong(rounds: u64, telemetry: bool) -> PingPong {
    let mut b = RtClusterBuilder::new(2);
    b.telemetry(telemetry);
    let p0 = b.add_process(0, 4096);
    let p1 = b.add_process(1, 4096);
    let (cluster, mut eps) = b.start();
    let mut e1 = eps.pop().expect("endpoint 1");
    let mut e0 = eps.pop().expect("endpoint 0");

    let ponger = std::thread::spawn(move || {
        for i in 1..=rounds {
            e1.wait_flag_timeout(FlagId(0), i, WAIT).expect("pong wait");
            e1.put(0, p0, 0, PAYLOAD, None, Some(FlagId(0)));
        }
    });

    let mut lat_us = Vec::with_capacity(usize::try_from(rounds).expect("rounds fits usize"));
    let t0 = Instant::now();
    for i in 1..=rounds {
        let r0 = Instant::now();
        e0.put(0, p1, 0, PAYLOAD, None, Some(FlagId(0)));
        e0.wait_flag_timeout(FlagId(0), i, WAIT).expect("ping wait");
        lat_us.push(r0.elapsed().as_secs_f64() * 1e6);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    ponger.join().expect("ponger thread");
    cluster.shutdown();

    lat_us.sort_by(f64::total_cmp);
    PingPong {
        rounds,
        wall_s,
        p50_us: percentile(&lat_us, 0.50),
        p90_us: percentile(&lat_us, 0.90),
        p99_us: percentile(&lat_us, 0.99),
    }
}

/// Runs the all-to-one fan-in workload: `sources` processes (one per
/// node) each send `msgs_per_source` acknowledged PUTs at a sink on node
/// 0, keeping [`WINDOW`] messages in flight. The clock stops when the
/// sink's delivery flag reaches the total. `telemetry` is the recording
/// knob of [`ping_pong`].
///
/// # Panics
///
/// Panics if any wait times out (a wedged data plane).
#[must_use]
pub fn fan_in(sources: usize, msgs_per_source: u64, telemetry: bool) -> FanIn {
    assert!((1..=63).contains(&sources), "1..=63 sources");
    let mut b = RtClusterBuilder::new(sources + 1);
    b.telemetry(telemetry);
    let sink_asid = b.add_process(0, 1 << 16);
    let src_asids: Vec<u32> = (1..=sources).map(|n| b.add_process(n, 4096)).collect();
    let (cluster, mut eps) = b.start();
    let src_eps: Vec<_> = eps.split_off(1);
    let sink = eps.pop().expect("sink endpoint");

    let total = msgs_per_source * sources as u64;
    let t0 = Instant::now();
    let senders: Vec<_> = src_eps
        .into_iter()
        .zip(src_asids)
        .map(|(mut e, asid)| {
            std::thread::spawn(move || {
                e.seg().write(0, &vec![0x5A; PAYLOAD as usize]);
                // Each source lands in its own region of the sink segment.
                let raddr = u64::from(asid) * 64;
                let acked = FlagId(1);
                for i in 1..=msgs_per_source {
                    e.put(0, sink_asid, raddr, PAYLOAD, Some(acked), Some(FlagId(0)));
                    if i > WINDOW {
                        e.wait_flag_timeout(acked, i - WINDOW, WAIT)
                            .expect("window wait");
                    }
                }
                e.wait_flag_timeout(acked, msgs_per_source, WAIT)
                    .expect("final ack wait");
            })
        })
        .collect();

    sink.wait_flag_timeout(FlagId(0), total, WAIT)
        .expect("sink delivery wait");
    let wall_s = t0.elapsed().as_secs_f64();
    for s in senders {
        s.join().expect("sender thread");
    }
    cluster.shutdown();

    FanIn {
        sources,
        msgs_per_source,
        wall_s,
        msgs_per_sec: total as f64 / wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn ping_pong_smoke() {
        let r = ping_pong(20, true);
        assert_eq!(r.rounds, 20);
        assert!(r.p50_us > 0.0 && r.p50_us <= r.p99_us);
    }

    #[test]
    fn fan_in_smoke() {
        let r = fan_in(2, 300, true);
        assert!(r.msgs_per_sec > 0.0);
    }
}
