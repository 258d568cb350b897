//! Selective wire recovery: the receiver's reorder buffer and the
//! gap-naming NACK. The first four scenarios stream from node 0 to a
//! sink on node 1 over a faulty wire — tagged ENQs, or PUTs where more
//! frames must be in flight than receive queues admit — and check the
//! contract the sequenced wire layer promises — each operation lands
//! exactly once, in order — plus the counters' version of it on the
//! post-shutdown snapshot (`rt::telemetry_truth`: every operation a
//! receiver popped was applied, or dropped as a duplicate or as
//! damaged). The last three are about the unit all of that works in, the
//! coalesced frame: a burst shares sequence numbers, per-destination
//! order survives the split into frames, and nothing waits for company.
//!
//! Seeded and deterministic in the injector's *decisions*; thread
//! interleaving varies, so the assertions are on protocol invariants and
//! on counts with wide margins, never on timing. Holds in debug and
//! release builds alike.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mproxy_obs::{Ctr, EventKind};
use mproxy_rt::{Endpoint, FlagId, RqId, RtCluster, RtClusterBuilder, RtFaultPlan};
use mproxy_tests::rt::{self, check_exactly_once, node_counter, WAIT};

/// ENQs a streaming sender keeps in flight.
const WINDOW: u64 = 64;

/// A two-node cluster under `plan`: one sender process per entry of the
/// returned vector on node 0, the sink alone on node 1.
fn cluster(
    plan: RtFaultPlan,
    senders: usize,
    supervised: bool,
) -> (RtCluster, Vec<Endpoint>, Endpoint) {
    let mut b = RtClusterBuilder::new(2);
    for _ in 0..senders {
        b.add_process(0, 1 << 12);
    }
    b.add_process(1, 1 << 12);
    b.fault_plan(plan);
    if supervised {
        b.supervise(3, Duration::from_millis(1));
    }
    let (cluster, mut eps) = b.start();
    let sink = eps.pop().expect("sink endpoint");
    (cluster, eps, sink)
}

/// Source words a sender cycles through. A word is reused 512 ENQs
/// later; the command ring is 128 deep and drained in bursts of at most
/// 256, so the proxy has long since read it.
const SLOTS: u64 = 512;

/// Streams ENQs tagged `1..=n` at queue `rq` of `sink_asid`, at most
/// `window` unacknowledged (`None`: never wait, flood). Stops at the
/// first failed wait (the sender's own proxy died); returns how many
/// ENQs had been acknowledged by then.
fn stream(e: &mut Endpoint, sink_asid: u32, rq: RqId, n: u64, window: Option<u64>) -> u64 {
    let acked = FlagId(0);
    for i in 1..=n {
        if let Some(behind) = window.and_then(|w| i.checked_sub(w)).filter(|&b| b > 0) {
            if e.wait_flag_timeout(acked, behind, WAIT).is_err() {
                return e.flag(acked);
            }
        }
        let laddr = (i % SLOTS) * 8;
        e.seg().write_u64(laddr, i);
        e.enq(laddr, sink_asid, rq, 8, Some(acked), None);
    }
    let _ = e.wait_flag_timeout(acked, n, WAIT);
    e.flag(acked)
}

/// [`rt::drain`] on a thread of its own, started while the sender runs
/// (a queue holds `RQ_DEPTH` payloads, and an ENQ past them waits for
/// the owner to make room); `quiet` counts only once `done` is raised,
/// since a sender that may be cut off sends fewer than `expect`.
fn drain_behind(
    sink: Endpoint,
    expect: u64,
    quiet: Duration,
    done: Arc<AtomicBool>,
) -> JoinHandle<Vec<u64>> {
    std::thread::spawn(move || {
        let mut got = Vec::new();
        while !done.load(Ordering::Acquire) && (got.len() as u64) < expect {
            match rt::pop_tag(&sink, RqId(0)) {
                Some(tag) => got.push(tag),
                None => std::thread::yield_now(),
            }
        }
        got.extend(rt::drain(&sink, RqId(0), expect - got.len() as u64, quiet));
        got
    })
}

#[test]
fn lossy_stream_arrives_in_order_once_and_resends_only_what_was_lost() {
    let _bound = rt::watchdog();
    const N: u64 = 20_000;
    let plan = RtFaultPlan::new(0x5e1ec7)
        .drop(0.05)
        .duplicate(0.05)
        .corrupt(0.02);
    let (cluster, mut srcs, sink) = cluster(plan, 1, false);
    let sink_asid = sink.asid();
    let mut src = srcs.pop().expect("sender endpoint");
    let sender = std::thread::spawn(move || stream(&mut src, sink_asid, RqId(0), N, Some(WINDOW)));
    let got = rt::drain(&sink, RqId(0), N, WAIT);
    assert_eq!(sender.join().expect("sender thread"), N, "every ENQ acked");
    check_exactly_once(&got, &[0], N).unwrap_or_else(|why| panic!("{why}"));

    let snap = rt::finish(cluster);
    let (resent, injected) = (
        snap.total(Ctr::Retransmits),
        snap.total(Ctr::FaultsInjected),
    );
    assert!(injected > 0 && resent > 0, "the plan must have bitten");
    // Go-back-N re-sent the window behind every lost frame (6.5 per
    // injected fault on this stream); selective recovery re-sends what
    // was lost or damaged (0.6), plus the odd RTO burst on a slow host.
    assert!(
        resent <= 4 * injected,
        "{resent} retransmits for {injected} injected faults"
    );
}

#[test]
fn receiver_killed_mid_flow_keeps_its_parked_frames() {
    let _bound = rt::watchdog();
    // The sink's proxy dies after 4000 serviced frames, with (at this
    // loss rate, almost surely) frames parked behind a gap. They live in
    // the lane's crash-surviving state, so the respawn resumes the same
    // stream: nothing is applied twice, nothing acked is lost, and the
    // accounting identity still closes.
    const N: u64 = 12_000;
    let plan = RtFaultPlan::new(0xdead_5eed)
        .drop(0.05)
        .duplicate(0.05)
        .corrupt(0.02)
        .kill(1, 4_000);
    let (cluster, mut srcs, sink) = cluster(plan, 1, true);
    let sink_asid = sink.asid();
    let mut src = srcs.pop().expect("sender endpoint");
    let sender = std::thread::spawn(move || stream(&mut src, sink_asid, RqId(0), N, Some(WINDOW)));
    let got = rt::drain(&sink, RqId(0), N, WAIT);
    assert_eq!(sender.join().expect("sender thread"), N, "every ENQ acked");
    check_exactly_once(&got, &[0], N).unwrap_or_else(|why| panic!("across the respawn: {why}"));
    assert!(cluster.deaths(1) >= 1, "the kill must have fired");
    assert!(cluster.restarts_total() >= 1, "and been recovered from");
    assert_eq!(cluster.condemned_nodes(), Vec::<usize>::new());

    let snap = rt::finish(cluster);
    assert_eq!(node_counter(&snap, 1, Ctr::OpsApplied), N);
}

#[test]
fn condemned_sender_leaves_no_parked_frame_uncounted() {
    let _bound = rt::watchdog();
    // Unsupervised, the sender's proxy dies for good mid-stream. Half of
    // all transmissions are dropped, so the sink is nearly always parked
    // behind a gap the dead lane will never fill; the purge of the
    // condemned peer must count those frames (the plan corrupts nothing
    // and the window is far below the hold cap, so `damaged_drops` at the
    // sink counts exactly the abandoned ones).
    const N: u64 = 4_000;
    let mut abandoned = 0;
    for seed in 0..6u64 {
        let plan = RtFaultPlan::new(0xc0de + seed).drop(0.5).kill(0, 600);
        let (cluster, mut srcs, sink) = cluster(plan, 1, false);
        let sink_asid = sink.asid();
        let mut src = srcs.pop().expect("sender endpoint");
        let done = Arc::new(AtomicBool::new(false));
        let quiet = Duration::from_millis(200);
        let drainer = drain_behind(sink, N, quiet, Arc::clone(&done));
        let sender =
            std::thread::spawn(move || stream(&mut src, sink_asid, RqId(0), N, Some(WINDOW)));
        let acked = sender.join().expect("sender thread");
        done.store(true, Ordering::Release);
        let got = drainer.join().expect("drainer thread");
        assert!(acked < N, "seed {seed}: the sender must have been cut off");
        assert_eq!(cluster.condemned_nodes(), vec![0], "seed {seed}");
        check_exactly_once(&got, &[0], got.len() as u64)
            .unwrap_or_else(|why| panic!("seed {seed}: the prefix before the death: {why}"));
        assert!(
            got.len() as u64 >= acked,
            "seed {seed}: {acked} ENQs acked, only {} delivered",
            got.len()
        );

        // Not `rt::finish`: the condemned sender makes the report unclean.
        let hub = cluster.obs_handle();
        assert!(!cluster.shutdown().clean(), "seed {seed}");
        let snap = hub.snapshot("condemned_sender");
        rt::telemetry_truth(&snap);
        assert_eq!(
            node_counter(&snap, 1, Ctr::OpsApplied),
            got.len() as u64,
            "seed {seed}: applied == delivered"
        );
        abandoned += node_counter(&snap, 1, Ctr::DamagedDrops);
    }
    assert!(
        abandoned > 0,
        "no seed caught the sink with frames parked at condemnation"
    );
}

#[test]
fn frame_beyond_the_hold_window_is_dropped_then_recovered() {
    let _bound = rt::watchdog();
    // The sink's proxy is deaf for its first 150 ms while four processes
    // flood it with PUTs: the sink's ring (512 frames) and the sender's
    // unsent frames (1024) fill behind the first dropped frame, and a
    // sender with unsent frames never retransmits — so when the sink
    // wakes, more than a hold window of frames arrives ahead of that gap.
    // The excess must be dropped (the plan corrupts nothing, so
    // `damaged_drops` counts exactly the operations of those frames) and
    // recovered. Ring, unsent cap and hold window are bounds in frames,
    // so the flood is sized in frames: 4 × 16 000 PUTs overflow ring +
    // unsent cap even if every frame leaves full (1 536 frames × 32
    // operations = 49 152). PUTs, not ENQs: a receive queue admits
    // `RQ_DEPTH` ENQs at a time, so four of them cannot put that many
    // frames in flight.
    const SENDERS: usize = 4;
    const PER: u64 = 16_000;
    /// Words of the sink's segment each sender cycles through.
    const LAP: u64 = 128;
    let plan =
        RtFaultPlan::new(0xfa12)
            .drop(0.05)
            .stall(1, Duration::ZERO, Duration::from_millis(150));
    let (cluster, srcs, sink) = cluster(plan, SENDERS, false);
    let sink_asid = sink.asid();
    let acked = FlagId(0);
    let landed = |q: usize| FlagId(1 + q as u32);
    let base = |q: usize| q as u64 * LAP * 8;
    let senders: Vec<_> = srcs
        .into_iter()
        .enumerate()
        .map(|(q, mut e)| {
            std::thread::spawn(move || {
                for i in 1..=PER {
                    let (laddr, raddr) = ((i % SLOTS) * 8, base(q) + (i % LAP) * 8);
                    e.seg().write_u64(laddr, i);
                    e.put(laddr, sink_asid, raddr, 8, Some(acked), Some(landed(q)));
                }
                let _ = e.wait_flag_timeout(acked, PER, WAIT);
                e.flag(acked)
            })
        })
        .collect();
    for (q, h) in senders.into_iter().enumerate() {
        assert_eq!(h.join().expect("sender thread"), PER, "sender {q} acked");
        sink.wait_flag_timeout(landed(q), PER, WAIT)
            .unwrap_or_else(|e| panic!("sender {q}'s PUTs landed: {e}"));
        for i in PER - LAP + 1..=PER {
            let word = sink.seg().read_u64(base(q) + (i % LAP) * 8);
            assert_eq!(word, i, "sender {q}: last lap landed");
        }
    }

    let hub = cluster.obs_handle();
    let snap = rt::finish(cluster);
    for q in 0..SENDERS {
        assert_eq!(sink.flag(landed(q)), PER, "sender {q}: each PUT once");
    }
    assert_eq!(
        node_counter(&snap, 1, Ctr::OpsApplied),
        SENDERS as u64 * PER
    );
    assert!(
        node_counter(&snap, 1, Ctr::DamagedDrops) > 0,
        "no frame arrived beyond the hold window"
    );
    // Why the sink went quiet is on its trace: the stall, once, with the
    // node and what was left of the 150 ms window, in µs.
    let dump = hub.trace_dump();
    let (_, sink_events) = dump
        .iter()
        .find(|(name, _)| name == "node1")
        .expect("sink ring");
    let stalls: Vec<_> = sink_events
        .iter()
        .filter(|e| e.kind == EventKind::Stall)
        .collect();
    assert_eq!(stalls.len(), 1, "one stall traced: {stalls:?}");
    assert_eq!(stalls[0].a, 1);
    assert!((1..=150_000).contains(&stalls[0].b), "{:?}", stalls[0]);
}

/// A sender on node 0 (its proxy deaf for the first 5 ms, so that the
/// first commands pile up into one burst) and one passive process on
/// each of nodes `1..=peers`.
fn burst_cluster(plan: RtFaultPlan, peers: usize) -> (RtCluster, Vec<Endpoint>) {
    let mut b = RtClusterBuilder::new(peers + 1);
    for node in 0..=peers {
        b.add_process(node, 1 << 16);
    }
    b.fault_plan(plan.stall(0, Duration::ZERO, Duration::from_millis(5)));
    b.start()
}

#[test]
fn windowed_put_stream_shares_sequence_numbers_and_counts_every_put_once() {
    let _bound = rt::watchdog();
    // 256 PUTs in flight towards one destination: how the stream splits
    // into frames is timing, but a frame holds at most the cap, and the
    // window's worth that is always waiting means far fewer frames than
    // operations — even though each of the 2.5 % of operations that draw
    // a fault leaves alone and cuts the burst it was in. Each PUT still
    // fires its lsync and its rsync once.
    const N: u64 = 20_000;
    const WINDOW: u64 = 256;
    const FRAME_CAP: u64 = 32;
    let (sent, delivered) = (FlagId(0), FlagId(1));
    let plan = RtFaultPlan::new(0xf4a3e)
        .drop(0.01)
        .duplicate(0.01)
        .corrupt(0.005);
    let (cluster, mut eps) = burst_cluster(plan, 1);
    let sink = eps.pop().expect("sink endpoint");
    let mut src = eps.pop().expect("sender endpoint");
    for i in 1..=N {
        if i > WINDOW {
            src.wait_flag_timeout(sent, i - WINDOW, WAIT)
                .expect("window");
        }
        let laddr = (i % SLOTS) * 8;
        src.seg().write_u64(laddr, i);
        src.put(laddr, sink.asid(), laddr, 8, Some(sent), Some(delivered));
    }
    src.wait_flag_timeout(sent, N, WAIT)
        .expect("every PUT acked");
    sink.wait_flag_timeout(delivered, N, WAIT)
        .expect("delivered");
    for i in N - SLOTS + 1..=N {
        assert_eq!(sink.seg().read_u64((i % SLOTS) * 8), i, "last lap landed");
    }

    let snap = rt::finish(cluster);
    assert_eq!((src.flag(sent), sink.flag(delivered)), (N, N), "once each");
    assert_eq!(node_counter(&snap, 0, Ctr::MsgsOut), N);
    assert_eq!(node_counter(&snap, 1, Ctr::OpsApplied), N);
    let frames = node_counter(&snap, 0, Ctr::FramesOut);
    assert!(
        (N.div_ceil(FRAME_CAP)..=N / 4).contains(&frames),
        "{N} PUTs left in {frames} frames"
    );
    assert!(
        snap.total(Ctr::Retransmits) > 0,
        "the plan must have bitten"
    );
}

#[test]
fn interleaved_burst_keeps_per_destination_submission_order() {
    let _bound = rt::watchdog();
    // PUT / GET / ENQ rounds alternate between two destinations. Within
    // a destination's stream the order is the submission order, however
    // the burst was cut into frames: GET `i` reads what PUT `i` wrote
    // (PUT `i + 1` to the same word comes after it), and the ENQ tags
    // arrive ascending.
    const ROUNDS: u64 = 300;
    const WORD: u64 = 1 << 13;
    let done = FlagId(0);
    let (cluster, mut eps) = burst_cluster(RtFaultPlan::new(7), 2);
    let sinks = eps.split_off(1);
    let mut src = eps.pop().expect("sender endpoint");
    let asids: Vec<u32> = sinks.iter().map(Endpoint::asid).collect();
    let drainers: Vec<_> = sinks
        .into_iter()
        .map(|sink| std::thread::spawn(move || rt::drain(&sink, RqId(0), ROUNDS, WAIT)))
        .collect();
    for i in 1..=ROUNDS {
        // The command queue backpressures a sender this far ahead.
        for (d, &sink) in asids.iter().enumerate() {
            let out = (2 * i + d as u64) * 8;
            let back = WORD + out;
            src.seg().write_u64(out, i << d);
            src.put(out, sink, WORD, 8, None, None);
            src.get(back, sink, WORD, 8, Some(done));
            src.enq(out, sink, RqId(0), 8, Some(done), None);
        }
    }
    src.wait_flag_timeout(done, 4 * ROUNDS, WAIT)
        .expect("all done");
    for (d, drainer) in drainers.into_iter().enumerate() {
        let tags = drainer.join().expect("drainer thread");
        let want: Vec<u64> = (1..=ROUNDS).map(|i| i << d).collect();
        assert_eq!(tags, want, "destination {d}: ENQ order");
        for i in 1..=ROUNDS {
            let back = WORD + (2 * i + d as u64) * 8;
            assert_eq!(src.seg().read_u64(back), i << d, "destination {d}: GET {i}");
        }
    }
    let snap = rt::finish(cluster);
    let (frames, msgs) = (
        node_counter(&snap, 0, Ctr::FramesOut),
        node_counter(&snap, 0, Ctr::MsgsOut),
    );
    assert_eq!(msgs, 6 * ROUNDS);
    assert!(frames < msgs, "the burst was coalesced: {frames} frames");
}

#[test]
fn operation_submitted_alone_leaves_at_once_as_a_frame_of_one() {
    let _bound = rt::watchdog();
    // Strictly one operation in flight: nothing may wait for company, so
    // every frame — the GET replies coming back included — holds one
    // operation, and each wait completes without a flush timer existing.
    const ROUNDS: u64 = 200;
    let (put, got, enq) = (FlagId(0), FlagId(1), FlagId(2));
    let (cluster, mut srcs, sink) = cluster(RtFaultPlan::new(1), 1, false);
    let mut src = srcs.pop().expect("sender endpoint");
    for i in 1..=ROUNDS {
        src.seg().write_u64(0, i);
        src.put(0, sink.asid(), 0, 8, Some(put), None);
        src.wait_flag_timeout(put, i, WAIT).expect("put");
        src.get(8, sink.asid(), 0, 8, Some(got));
        src.wait_flag_timeout(got, i, WAIT).expect("get");
        assert_eq!(src.seg().read_u64(8), i);
        src.enq(0, sink.asid(), RqId(0), 8, Some(enq), None);
        src.wait_flag_timeout(enq, i, WAIT).expect("enq");
        assert_eq!(rt::pop_tag(&sink, RqId(0)), Some(i));
    }
    let snap = rt::finish(cluster);
    assert_eq!(snap.total(Ctr::MsgsOut), 4 * ROUNDS);
    assert_eq!(snap.total(Ctr::FramesOut), snap.total(Ctr::MsgsOut));
    assert_eq!(snap.total(Ctr::FramesIn), snap.total(Ctr::MsgsIn));
}
