//! The threaded runtime's overload detection, which each proxy runs on
//! its own load: saturation per the paper's §5.4 stability rule (a proxy past 50% utilisation has unbounded
//! expected queueing delay), hysteresis-based recovery, and opt-in request
//! shedding.
//!
//! These tests drive real threads against wall-clock deadlines, so every
//! assertion is of the form "reaches the expected state within a generous
//! deadline" rather than "reaches it at an exact instant".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mproxy_rt::{FlagId, RtClusterBuilder};

/// Spins until `cond` holds or `deadline` passes; true on success.
fn eventually(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

#[test]
fn watchdog_flags_saturation_and_recovers() {
    let mut b = RtClusterBuilder::new(1);
    let p0 = b.add_process(0, 1 << 20);
    let p1 = b.add_process(0, 1 << 20);
    let (cluster, mut eps) = b.start();
    let e1 = eps.pop().unwrap();
    let e0 = eps.pop().unwrap();

    // Two clients flood self-puts: the proxy copies every payload twice
    // (segment read into the wire message, wire message into the segment)
    // while each client copies it once, so the proxy is the bottleneck and
    // its utilisation pins well above the 50% bound.
    let stop = Arc::new(AtomicBool::new(false));
    let flooders: Vec<_> = [(e0, p0), (e1, p1)]
        .into_iter()
        .map(|(mut ep, asid)| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let laddr = ep.alloc(1024);
                let raddr = ep.alloc(1024);
                while !stop.load(Ordering::Relaxed) {
                    ep.put(laddr, asid, raddr, 1024, None, None);
                }
            })
        })
        .collect();

    let saturated = eventually(Duration::from_secs(5), || cluster.saturated(0));
    // Utilisation is read for observability, not asserted against a bound:
    // on an oversubscribed host the flag can trip on the backlog signal
    // while the descheduled proxy's time-domain utilisation samples low.
    let sampled_util = cluster.utilization(0);
    stop.store(true, Ordering::Relaxed);
    for f in flooders {
        f.join().unwrap();
    }
    assert!(
        saturated,
        "flooded proxy never flagged saturated (last util {sampled_util:.2})"
    );
    assert!(
        cluster.saturation_events(0) >= 1,
        "saturation crossing not counted"
    );

    // Load gone: the flag must clear once utilisation falls back under the
    // recovery threshold (hysteresis keeps it from flapping, not from
    // clearing).
    assert!(
        eventually(Duration::from_secs(5), || !cluster.saturated(0)),
        "saturation flag stuck after load vanished"
    );
    assert!(cluster.shutdown().clean());
}

#[test]
fn shedding_drops_requests_but_cluster_stays_live() {
    // Three source nodes flood one sink: the sink's arrival rate is three
    // proxies' worth of forwarding against one proxy's worth of service,
    // so its wire backlog grows without bound until shedding caps it.
    const SOURCES: usize = 3;
    let mut b = RtClusterBuilder::new(SOURCES + 1);
    let sources: Vec<u32> = (0..SOURCES).map(|n| b.add_process(n, 1 << 20)).collect();
    let sink = b.add_process(SOURCES, 1 << 20);
    b.enable_shedding();
    let (cluster, mut eps) = b.start();
    drop(sources);
    let mut sink_ep = eps.pop().unwrap();
    // Carve the sink's segment so the flood target never overlaps the
    // sentinel exchanged after the storm (stale flood puts may still be
    // draining when it runs).
    let flood_raddr = sink_ep.alloc(1024);
    let sentinel_src = sink_ep.alloc(8);
    let sentinel_dst = sink_ep.alloc(8);

    let stop = Arc::new(AtomicBool::new(false));
    let flooders: Vec<_> = eps
        .into_iter()
        .map(|mut ep| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let laddr = ep.alloc(1024);
                while !stop.load(Ordering::Relaxed) {
                    // Fire-and-forget puts into the sink's segment.
                    ep.put(laddr, SOURCES as u32, flood_raddr, 1024, None, None);
                }
            })
        })
        .collect();

    let shed = eventually(Duration::from_secs(10), || {
        cluster.shed_count(SOURCES) > 0
    });
    stop.store(true, Ordering::Relaxed);
    for f in flooders {
        f.join().unwrap();
    }
    assert!(shed, "overloaded sink never shed a request");

    // Liveness after the storm: wait out saturation (shedding stops with
    // it), then a synchronised put must complete — shedding degraded the
    // flood, not the protocol.
    assert!(
        eventually(Duration::from_secs(5), || !cluster.saturated(SOURCES)),
        "sink never recovered from saturation"
    );
    sink_ep.seg().write_u64(sentinel_src, 0x5EED);
    sink_ep.put(sentinel_src, sink, sentinel_dst, 8, Some(FlagId(0)), None);
    sink_ep
        .wait_flag_timeout(FlagId(0), 1, Duration::from_secs(5))
        .expect("post-shedding put lost");
    assert_eq!(sink_ep.seg().read_u64(sentinel_dst), 0x5EED);
    assert!(cluster.shutdown().clean());
}
