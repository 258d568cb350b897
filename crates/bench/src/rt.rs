//! Threaded-runtime data-plane workloads for the `rt_throughput` harness.
//!
//! Three microbenchmarks:
//!
//! * **ping-pong** — two processes on two nodes bounce a small PUT back
//!   and forth; per-round latency percentiles expose the idle-path cost
//!   (spin → yield → park wake-up) and the per-message queue mechanics;
//! * **fan-in** — several source processes, each on its own node, flood
//!   acknowledged PUTs at one sink process under a fixed outstanding
//!   window; sustained messages/sec exposes the hot-path queue mechanics
//!   (CAS claims on the wire ring, per-batch coalesced ACKs);
//! * **multi-user fan-in** ([`fan_in_users`]) — the proxies×users sweep
//!   point: several sink *users* share node 0 and the sources spray
//!   round-robin across them, so with `--shards N` the sink node's
//!   command-queue service parallelizes across shard threads instead of
//!   serializing behind one proxy.

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

/// Runs the ping-pong workload with `shards` proxy lanes per node.
/// `telemetry` arms histograms and flight recorders — the A/B axis of
/// the `rt_obs` overhead gate (counters stay on either way).
///
/// # Panics
///
/// Panics if any wait times out (a wedged data plane) — the bench must
/// fail loudly, not hang.
#[must_use]
pub fn ping_pong(rounds: u64, telemetry: bool, shards: usize) -> PingPong {
    let mut b = RtClusterBuilder::new(2);
    b.telemetry(telemetry);
    b.shards(shards);
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
/// knob of [`ping_pong`]; with `shards > 1` the one sink still means one
/// busy lane — that measures the *no-tax* axis, not the scaling axis
/// (that is [`fan_in_users`]).
///
/// # Panics
///
/// Panics if any wait times out (a wedged data plane).
#[must_use]
pub fn fan_in(sources: usize, msgs_per_source: u64, telemetry: bool, shards: usize) -> FanIn {
    assert!((1..=63).contains(&sources), "1..=63 sources");
    let mut b = RtClusterBuilder::new(sources + 1);
    b.telemetry(telemetry);
    b.shards(shards);
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

/// One point of the proxies×users sweep: `shards` proxy threads on the
/// sink node serving `users` sink processes.
#[derive(Debug, Clone, Copy)]
pub struct ShardPoint {
    /// Proxy shard threads per node.
    pub shards: usize,
    /// Sink processes sharing node 0.
    pub users: usize,
    /// Source processes (each on its own node).
    pub sources: usize,
    /// Messages sent per source (rounded down to a multiple of `users`).
    pub msgs_per_source: u64,
    /// PUT payload bytes per message.
    pub payload: u32,
    /// Total wall time until every sink observed its deliveries, seconds.
    pub wall_s: f64,
    /// Sustained delivered messages per second across all sinks.
    pub msgs_per_sec: f64,
}

/// The proxies×users sweep workload: `users` sink
/// processes share node 0 and `sources` source processes (one per
/// node) each spray `msgs_per_source` acknowledged `payload`-byte PUTs
/// round-robin across the sinks under a [`WINDOW`]-deep outstanding
/// window. The placement rule spreads the sinks' command queues
/// round-robin over `shards` proxy threads, so delivery work that serializes
/// behind one proxy at `shards=1` runs in parallel when cores allow.
/// Callers pick the payload: the sweep wants bulk frames (the proxy's
/// per-message copy dominates, so the curve measures data-plane
/// scaling), while tiny frames mostly measure per-frame bookkeeping.
///
/// # Panics
///
/// Panics if any wait times out (a wedged data plane), if
/// `msgs_per_source < users`, or if the sink segment cannot hold every
/// source's landing region at the given payload.
#[must_use]
pub fn fan_in_users(
    shards: usize,
    users: usize,
    sources: usize,
    msgs_per_source: u64,
    payload: u32,
) -> ShardPoint {
    assert!((1..=63).contains(&sources), "1..=63 sources");
    assert!(users >= 1, "at least one sink user");
    // Round-robin spraying lands an exact per-sink count only when each
    // source's message count is a multiple of `users`.
    let msgs_per_source = msgs_per_source - (msgs_per_source % users as u64);
    assert!(msgs_per_source > 0, "msgs_per_source < users");
    // Each source lands in its own 4 KiB-aligned region of the sink
    // segment; the last region must still fit.
    const SINK_SEG: u64 = 1 << 17;
    assert!(payload >= 1 && u64::from(payload) <= 4096, "payload in 1..=4096");
    assert!(
        (users + sources) as u64 * 4096 + u64::from(payload) <= SINK_SEG,
        "sink segment too small for the source landing regions"
    );

    let mut b = RtClusterBuilder::new(sources + 1);
    b.shards(shards);
    let sink_asids: Vec<u32> = (0..users)
        .map(|_| b.add_process(0, SINK_SEG as usize))
        .collect();
    let src_asids: Vec<u32> = (1..=sources).map(|n| b.add_process(n, 4096)).collect();
    let (cluster, mut eps) = b.start();
    let src_eps: Vec<_> = eps.split_off(users);
    let sink_eps = eps;

    let per_sink = sources as u64 * msgs_per_source / users as u64;
    let total = msgs_per_source * sources as u64;
    let t0 = Instant::now();
    let senders: Vec<_> = src_eps
        .into_iter()
        .zip(src_asids)
        .map(|(mut e, asid)| {
            let sinks = sink_asids.clone();
            std::thread::spawn(move || {
                e.seg().write(0, &vec![0x5A; payload as usize]);
                let raddr = u64::from(asid) * 4096;
                let acked = FlagId(1);
                for i in 1..=msgs_per_source {
                    let dst = sinks[((i - 1) % sinks.len() as u64) as usize];
                    e.put(0, dst, raddr, payload, Some(acked), Some(FlagId(0)));
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

    for sink in &sink_eps {
        sink.wait_flag_timeout(FlagId(0), per_sink, WAIT)
            .expect("sink delivery wait");
    }
    let wall_s = t0.elapsed().as_secs_f64();
    for s in senders {
        s.join().expect("sender thread");
    }
    cluster.shutdown();

    ShardPoint {
        shards,
        users,
        sources,
        msgs_per_source,
        payload,
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
        let r = ping_pong(20, true, 1);
        assert_eq!(r.rounds, 20);
        assert!(r.p50_us > 0.0 && r.p50_us <= r.p99_us);
    }

    #[test]
    fn fan_in_smoke() {
        let r = fan_in(2, 300, true, 1);
        assert!(r.msgs_per_sec > 0.0);
    }

    #[test]
    fn fan_in_users_smoke_sharded() {
        let r = fan_in_users(2, 4, 2, 302, 64);
        assert_eq!(r.msgs_per_source, 300, "rounded to a users multiple");
        assert!(r.msgs_per_sec > 0.0);
    }
}
