//! The threaded runtime under overload: saturation per the paper's §5.4
//! stability rule (a proxy past 50% utilisation has unbounded expected
//! queueing delay), which each proxy detects on its own load, with
//! hysteresis-based recovery; and what overload does to the traffic —
//! backpressure, never loss.
//!
//! These tests drive real threads against wall-clock deadlines, so every
//! assertion is of the form "reaches the expected state within a generous
//! deadline" rather than "reaches it at an exact instant".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mproxy_obs::{Ctr, EventKind, Snapshot};
use mproxy_rt::{FlagId, RtClusterBuilder};
use mproxy_tests::rt::{self, eventually, node_counter, WAIT};

#[test]
fn watchdog_flags_saturation_and_recovers() {
    let _bound = rt::watchdog();
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

    let saturated = eventually(WAIT, || cluster.saturation_events(0) >= 1);
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
        "flooded proxy never crossed into saturation (last util {sampled_util:.2})"
    );

    // Load gone: the proxy must recover once utilisation falls back under
    // the recovery threshold (hysteresis keeps it from flapping, not from
    // recovering), and trace the recovery.
    let recovered = || {
        let dump = cluster.trace_dump();
        let node0 = dump.iter().find(|(name, _)| name == "node0");
        let events = &node0.expect("node 0's flight recorder").1;
        events.iter().any(|e| e.kind == EventKind::SatExit)
    };
    assert!(
        eventually(WAIT, recovered),
        "no recovery traced after the load vanished"
    );
    rt::finish(cluster);
}

#[test]
fn overloaded_sink_backpressures_its_sources_and_loses_nothing() {
    let _bound = rt::watchdog();
    // Three source nodes flood one sink: the sink's arrival rate is three
    // proxies' worth of forwarding against one proxy's worth of service.
    // Nothing is shed: the sink's wire ring fills, each source's frames
    // for it wait unsent in retention behind it, past the cap the
    // commands addressed to it wait in the flooders' command queues, and
    // those push back on the flooders. Every PUT asks for an lsync, and
    // every lsync fires.
    const SOURCES: usize = 3;
    const BYTES: u32 = 64;
    let mut b = RtClusterBuilder::new(SOURCES + 1);
    for node in 0..SOURCES {
        b.add_process(node, 1 << 12);
    }
    let sink = b.add_process(SOURCES, 1 << 12);
    let (cluster, mut eps) = b.start();
    let _sink_ep = eps.pop().expect("sink endpoint");

    let stop = Arc::new(AtomicBool::new(false));
    let flooders: Vec<_> = eps
        .into_iter()
        .map(|mut ep| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let laddr = ep.alloc(u64::from(BYTES));
                let mut sent = 0;
                while !stop.load(Ordering::Relaxed) {
                    ep.put(laddr, sink, 0, BYTES, Some(FlagId(0)), None);
                    sent += 1;
                }
                let acked = ep.wait_flag_timeout(FlagId(0), sent, WAIT);
                (sent, acked)
            })
        })
        .collect();

    // Run the flood until the sink has been flagged saturated and every
    // source has been pushed back on at least once.
    let pushed_back =
        |snap: &Snapshot| (0..SOURCES).all(|n| node_counter(snap, n, Ctr::CreditStalls) > 0);
    let overloaded = eventually(WAIT, || {
        cluster.saturation_events(SOURCES) > 0 && pushed_back(&cluster.obs_snapshot("flood"))
    });
    stop.store(true, Ordering::Relaxed);
    let mut total = 0;
    for (n, f) in flooders.into_iter().enumerate() {
        let (sent, acked) = f.join().expect("flooder thread");
        acked.unwrap_or_else(|e| panic!("source {n}: {sent} PUTs sent, an lsync lost: {e}"));
        total += sent;
    }
    assert!(
        overloaded,
        "sink saturated {} times; credit stalls per source {:?}",
        cluster.saturation_events(SOURCES),
        {
            let snap = cluster.obs_snapshot("flood");
            (0..SOURCES)
                .map(|n| node_counter(&snap, n, Ctr::CreditStalls))
                .collect::<Vec<_>>()
        }
    );

    let snap = rt::finish(cluster);
    assert_eq!(node_counter(&snap, SOURCES, Ctr::OpsApplied), total);
}
