//! Telemetry-vs-truth: the observability layer's numbers must agree
//! with ground truth established by independent means.
//!
//! * Counters are checked against the ground truth of a clean fan-in
//!   the test performs itself; the per-receiver accounting identity
//!   `msgs_in == applied + dedup + damaged` is checked on every fault
//!   suite's post-shutdown snapshot (`rt::finish`), and across kills by
//!   `chaos.rs` and the seeded ring soak here, which also checks each
//!   node's `ops_applied` and where the kill was counted.
//! * Armed recording must stay decimated — one stamped submission in
//!   32 — which is what bounds its cost; the sample counts are checked
//!   from above as well as from below.
//! * Histogram merge must be associative and commutative — the property
//!   that makes per-node recorders aggregatable in any order.
//! * The Chrome-trace exporter must emit valid JSON containing the
//!   kill → respawn `proxy-dead` span for a chaos run.

use std::time::Duration;

use mproxy_obs::{chrome, json, Ctr, EventKind, HistId, Histogram};
use mproxy_rt::{FlagId, RqId, RtClusterBuilder, RtFaultPlan};
use mproxy_tests::rt::{self, WAIT};

/// Clean (fault-free) two-sender fan-in: every counter the telemetry
/// layer reports must match the op counts the test itself performed.
#[test]
fn counters_match_ground_truth_on_clean_fan_in() {
    let _bound = rt::watchdog();
    const SENDERS: usize = 2;
    const PER: u64 = 200;
    let mut b = RtClusterBuilder::new(SENDERS + 1);
    let sink_asid = b.add_process(0, 1 << 16);
    let src_asids: Vec<u32> = (1..=SENDERS).map(|n| b.add_process(n, 1 << 16)).collect();
    let (cluster, mut eps) = b.start();
    let src_eps = eps.split_off(1);
    let sink = eps.pop().expect("sink endpoint");

    // The sink drains while the senders run: its queue holds `RQ_DEPTH`
    // payloads, and an ENQ past them waits for room.
    let total = SENDERS as u64 * PER;
    let drainer = std::thread::spawn(move || rt::drain(&sink, RqId(0), total, WAIT));
    let handles: Vec<_> = src_eps
        .into_iter()
        .zip(src_asids.clone())
        .map(|(mut e, asid)| {
            std::thread::spawn(move || {
                for i in 1..=PER {
                    e.seg().write_u64(0, (u64::from(asid) << 32) | i);
                    e.enq(0, sink_asid, RqId(0), 8, Some(FlagId(0)), None);
                    e.wait_flag_timeout(FlagId(0), i, WAIT).expect("ack wait");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("sender thread");
    }
    let got = drainer.join().expect("drainer thread");
    rt::check_exactly_once(&got, &src_asids, PER).unwrap_or_else(|why| panic!("{why}"));

    let hub = cluster.obs_handle();
    let snap = rt::finish(cluster);
    let events: Vec<_> = hub
        .trace_dump()
        .into_iter()
        .flat_map(|(_, ev)| ev)
        .collect();

    assert_eq!(snap.total(Ctr::OpsSubmitted), total, "submits == enq calls");
    assert_eq!(snap.total(Ctr::OpsApplied), total, "applies == deliveries");
    assert_eq!(snap.total(Ctr::MsgsOut), total, "no faults: sent once");
    // One operation in flight per sender: nothing to coalesce with.
    let frames = snap.total(Ctr::FramesOut);
    assert_eq!(frames, total, "an operation alone is a frame of one");
    // Recording was armed: the submit-side stamp is taken 1-in-32 and
    // every stamped entry records into the cmd-wait and lsync-RTT
    // histograms, so with 200 ops/sender samples are guaranteed.
    assert!(
        snap.merged_hist(HistId::CmdWaitNs).count() > 0,
        "cmd-wait histogram recorded samples"
    );
    assert!(
        snap.merged_hist(HistId::LsyncRttNs).count() > 0,
        "lsync RTT histogram recorded samples"
    );
    // ... and decimated: what keeps armed recording at a percent or two
    // of an op instead of 25 % is that every sampled site records one in
    // 32 of what *it* counts, on a tick of its own (EXPERIMENTS.md "One
    // measurement system"): submissions for the stamp and everything
    // keyed off it, non-empty command bursts for `Drain`, frames for
    // `Send` and the wire-RTT sample, acknowledgements for `AckIn`.
    // Stamping every event would put the full count in any one.
    let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count() as u64;
    let acks_in = snap.total(Ctr::AcksIn);
    for (what, n, of) in [
        (
            "cmd-wait samples",
            snap.merged_hist(HistId::CmdWaitNs).count(),
            total,
        ),
        (
            "lsync-RTT samples",
            snap.merged_hist(HistId::LsyncRttNs).count(),
            total,
        ),
        ("Enqueue events", count(EventKind::Enqueue), total),
        ("Drain events", count(EventKind::Drain), total),
        ("Send events", count(EventKind::Send), frames),
        (
            "wire-RTT samples",
            snap.merged_hist(HistId::WireRttNs).count(),
            frames,
        ),
        ("AckIn events", count(EventKind::AckIn), acks_in),
    ] {
        assert!(n <= of / 32, "{what}: {n} of {of}, want 1 in 32");
    }
    // A latency-bound trace shows every site: with a tick each, none is
    // starved by the others' steps.
    for kind in [EventKind::Send, EventKind::Drain, EventKind::AckIn] {
        assert!(count(kind) > 0, "no {kind:?} event in {total} round trips");
    }
    assert!(snap.merged_hist(HistId::WireRttNs).count() > 0);
}

/// Bucket-wise histogram merge is associative and commutative, and
/// preserves count / sum / min / max — aggregation order can't matter.
#[test]
fn histogram_merge_is_associative_and_commutative() {
    let mk = |seed: u64, n: u64| {
        let mut h = Histogram::new();
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 1_000_000);
        }
        h
    };
    let (a, b, c) = (mk(1, 300), mk(2, 500), mk(3, 700));

    let mut ab_c = a.clone();
    ab_c.merge(&b);
    ab_c.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    let mut cba = c.clone();
    cba.merge(&b);
    cba.merge(&a);

    for m in [&a_bc, &cba] {
        assert_eq!(ab_c.count(), m.count());
        assert_eq!(ab_c.sum(), m.sum());
        assert_eq!(ab_c.min(), m.min());
        assert_eq!(ab_c.max(), m.max());
        assert_eq!(ab_c.nonzero_buckets(), m.nonzero_buckets());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(ab_c.quantile(q), m.quantile(q));
        }
    }
    assert_eq!(ab_c.count(), 1500);
}

/// A kill + respawn renders to a valid Chrome-trace
/// document containing the synthesized `proxy-dead` span. The document is
/// left in Cargo's test scratch directory (`target/tmp/obs_trace.json`)
/// so CI can hand it to a JSON parser this repository did not write.
#[test]
fn chrome_trace_shows_recovery_span() {
    let _bound = rt::watchdog();
    const PER: u64 = 50;
    let mut b = RtClusterBuilder::new(2);
    let sink_asid = b.add_process(0, 1 << 16);
    let _src = b.add_process(1, 1 << 16);
    b.fault_plan(RtFaultPlan::new(3).kill(0, PER / 2));
    b.supervise(3, Duration::from_millis(1));
    let (cluster, mut eps) = b.start();
    let mut src = eps.pop().expect("source endpoint");
    drop(eps.pop());

    for i in 1..=PER {
        src.seg().write_u64(0, i);
        src.enq(0, sink_asid, RqId(0), 8, Some(FlagId(0)), None);
        src.wait_flag_timeout(FlagId(0), i, WAIT).expect("ack wait");
    }
    assert!(cluster.deaths(0) >= 1, "kill fired");
    let hub = cluster.obs_handle();
    rt::finish(cluster);

    let trace = chrome::chrome_trace(&hub.trace_dump());
    std::fs::write(
        concat!(env!("CARGO_TARGET_TMPDIR"), "/obs_trace.json"),
        &trace,
    )
    .expect("write the trace for the external parser");
    json::validate(&trace).expect("trace is valid JSON");
    assert!(
        chrome::has_recovery_span(&trace),
        "kill → respawn span present: {trace}"
    );
}

/// Seeded telemetry soak on the kill × loss ring, `MPROXY_STRESS_ITERS`
/// seeds (default 4) drawn apart from the supervision soak's: beyond the
/// identity and the exports [`rt::finish`] checks, the counters that
/// outlive a killed proxy agree with what the ring verified end to end —
/// each node applied exactly its predecessor's PUTs and ENQs, and the
/// kill and its respawn are counted on the victim alone.
#[test]
fn telemetry_soak() {
    const ROUNDS: u64 = 30;
    for seed in (0..rt::stress_iters(4)).map(|s| 1000 + s) {
        let (nodes, victim, snap) = rt::ring(seed, ROUNDS);
        for n in 0..nodes {
            assert_eq!(
                rt::node_counter(&snap, n, Ctr::OpsApplied),
                2 * ROUNDS,
                "seed {seed}: node {n} applied its predecessor's PUTs and ENQs once"
            );
            let kills = rt::node_counter(&snap, n, Ctr::Kills);
            assert_eq!(
                kills >= 1,
                n == victim,
                "seed {seed}: node {n} kills {kills}"
            );
        }
        assert!(snap.total(Ctr::Respawns) >= 1, "seed {seed}: no respawn");
    }
}
