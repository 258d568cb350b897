//! Selective wire recovery: the receiver's reorder buffer and the
//! gap-naming NACK. The first four scenarios stream tagged ENQs from
//! node 0 to a sink on node 1 over a faulty wire and check the contract
//! the sequenced wire layer promises — each payload arrives exactly once,
//! in order — plus the counters' version of it on the post-shutdown
//! snapshot (`chaos::telemetry_truth`: every operation a receiver popped
//! was applied, or dropped as a duplicate, as damaged, or shed). The last
//! three are about the unit all of that works in, the coalesced frame:
//! a burst shares sequence numbers, per-destination order survives the
//! split into frames, and nothing waits for company.
//!
//! Seeded and deterministic in the injector's *decisions*; thread
//! interleaving varies, so the assertions are on protocol invariants and
//! on counts with wide margins, never on timing. Holds in debug and
//! release builds alike.

use std::time::{Duration, Instant};

use mproxy_bench::chaos;
use mproxy_obs::{Ctr, Snapshot};
use mproxy_rt::{Endpoint, FlagId, RqId, RtCluster, RtClusterBuilder, RtFaultPlan};

/// Per-wait bound, generous for a loaded two-CPU host running a debug
/// build: a kill-respawn-resync cycle or a chain of RTO rounds must fit.
const WAIT: Duration = Duration::from_secs(10);

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

/// Pops one tagged payload off queue `rq` of the sink.
fn pop_tag(sink: &Endpoint, rq: RqId) -> Option<u64> {
    let data = sink.rq_try_recv(rq)?;
    Some(u64::from_le_bytes(
        data[..8].try_into().expect("8-byte tag"),
    ))
}

/// Pops queue `rq` of the sink until `expect` payloads arrived, or — when
/// fewer are coming — until it has stayed empty for `quiet`.
fn drain(sink: &Endpoint, rq: RqId, expect: u64, quiet: Duration) -> Vec<u64> {
    let mut got = Vec::new();
    let mut last = Instant::now();
    while (got.len() as u64) < expect && last.elapsed() < quiet {
        if let Some(tag) = pop_tag(sink, rq) {
            got.push(tag);
            last = Instant::now();
        } else {
            std::thread::yield_now();
        }
    }
    got
}

/// Exactly once, in order: `got` is precisely `1..=got.len()`.
fn assert_in_order(got: &[u64], what: &str) {
    if let Some(i) = got.iter().zip(1u64..).position(|(g, want)| *g != want) {
        panic!("{what}: payload {} arrived where {} was due", got[i], i + 1);
    }
}

/// Stops the cluster and takes the (now exact) telemetry snapshot.
fn stop(cluster: RtCluster, label: &str) -> Snapshot {
    let hub = cluster.obs_handle();
    drop(cluster.shutdown());
    hub.snapshot(label)
}

fn scope_counter(snap: &Snapshot, node: usize, c: Ctr) -> u64 {
    let name = format!("node{node}");
    let scope = snap.scopes.iter().find(|s| s.name == name);
    scope.expect("node scope").counter(c)
}

#[test]
fn lossy_stream_arrives_in_order_once_and_resends_only_what_was_lost() {
    const N: u64 = 20_000;
    let plan = RtFaultPlan::new(0x5e1ec7)
        .drop(0.05)
        .duplicate(0.05)
        .corrupt(0.02);
    let (cluster, mut srcs, sink) = cluster(plan, 1, false);
    let sink_asid = sink.asid();
    let mut src = srcs.pop().expect("sender endpoint");
    let sender = std::thread::spawn(move || stream(&mut src, sink_asid, RqId(0), N, Some(WINDOW)));
    let got = drain(&sink, RqId(0), N, WAIT);
    assert_eq!(sender.join().expect("sender thread"), N, "every ENQ acked");
    assert_eq!(got.len() as u64, N, "every ENQ delivered");
    assert_in_order(&got, "lossy stream");
    assert!(
        sink.rq_try_recv(RqId(0)).is_none(),
        "nothing delivered twice"
    );

    let snap = stop(cluster, "lossy_stream");
    chaos::telemetry_truth(&snap).expect("receiver identity");
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
    let got = drain(&sink, RqId(0), N, WAIT);
    assert_eq!(sender.join().expect("sender thread"), N, "every ENQ acked");
    assert_eq!(got.len() as u64, N, "every ENQ delivered");
    assert_in_order(&got, "stream across a receiver respawn");
    assert!(
        sink.rq_try_recv(RqId(0)).is_none(),
        "nothing delivered twice"
    );
    assert!(cluster.deaths(1) >= 1, "the kill must have fired");
    assert!(cluster.restarts_total() >= 1, "and been recovered from");

    let snap = stop(cluster, "receiver_killed");
    chaos::telemetry_truth(&snap).expect("receiver identity across the respawn");
    assert_eq!(scope_counter(&snap, 1, Ctr::OpsApplied), N);
}

#[test]
fn condemned_sender_leaves_no_parked_frame_uncounted() {
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
        let sender =
            std::thread::spawn(move || stream(&mut src, sink_asid, RqId(0), N, Some(WINDOW)));
        let acked = sender.join().expect("sender thread");
        assert!(acked < N, "seed {seed}: the sender must have been cut off");
        assert_eq!(cluster.condemned_nodes(), vec![0], "seed {seed}");
        let got = drain(&sink, RqId(0), N, Duration::from_millis(200));
        assert_in_order(&got, "prefix delivered before the sender died");
        assert!(
            got.len() as u64 >= acked,
            "seed {seed}: {acked} ENQs acked, only {} delivered",
            got.len()
        );

        let snap = stop(cluster, "condemned_sender");
        chaos::telemetry_truth(&snap).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            scope_counter(&snap, 1, Ctr::OpsApplied),
            got.len() as u64,
            "seed {seed}: applied == delivered"
        );
        abandoned += scope_counter(&snap, 1, Ctr::DamagedDrops);
    }
    assert!(
        abandoned > 0,
        "no seed caught the sink with frames parked at condemnation"
    );
}

#[test]
fn frame_beyond_the_hold_window_is_dropped_then_recovered() {
    // The sink's proxy is deaf for its first 150 ms while four processes
    // flood it: the sender's ring (512 frames) and stash (1024 frames)
    // fill behind the first dropped frame, and a sender with a stash
    // never retransmits — so when the sink wakes, more than a hold window
    // of frames arrives ahead of that gap. The excess must be dropped
    // (the plan corrupts nothing, so `damaged_drops` counts exactly the
    // operations of those frames) and recovered. Ring, stash and hold
    // window are bounds in frames, so the flood is sized in frames:
    // 4 × 16 000 ENQs overflow ring + stash even if every frame leaves
    // full (1 536 frames × 32 operations = 49 152).
    const SENDERS: usize = 4;
    const PER: u64 = 16_000;
    let plan =
        RtFaultPlan::new(0xfa12)
            .drop(0.05)
            .stall(1, Duration::ZERO, Duration::from_millis(150));
    let (cluster, srcs, sink) = cluster(plan, SENDERS, false);
    let sink_asid = sink.asid();
    let senders: Vec<_> = srcs
        .into_iter()
        .enumerate()
        .map(|(q, mut e)| {
            std::thread::spawn(move || stream(&mut e, sink_asid, RqId(q as u32), PER, None))
        })
        .collect();
    // One pass over the queues at a time, so none backs up.
    let mut got: Vec<Vec<u64>> = vec![Vec::new(); SENDERS];
    let deadline = Instant::now() + WAIT;
    while got.iter().any(|g| (g.len() as u64) < PER) {
        assert!(Instant::now() < deadline, "drain timed out: {:?}", {
            got.iter().map(Vec::len).collect::<Vec<_>>()
        });
        for (q, g) in got.iter_mut().enumerate() {
            g.extend(std::iter::from_fn(|| pop_tag(&sink, RqId(q as u32))));
        }
        std::thread::yield_now();
    }
    for (q, h) in senders.into_iter().enumerate() {
        assert_eq!(h.join().expect("sender thread"), PER, "sender {q} acked");
        assert_in_order(&got[q], "flooded queue");
        assert!(sink.rq_try_recv(RqId(q as u32)).is_none(), "no duplicate");
    }

    let snap = stop(cluster, "beyond_window");
    chaos::telemetry_truth(&snap).expect("receiver identity");
    assert_eq!(
        scope_counter(&snap, 1, Ctr::OpsApplied),
        SENDERS as u64 * PER
    );
    assert!(
        scope_counter(&snap, 1, Ctr::DamagedDrops) > 0,
        "no frame arrived beyond the hold window"
    );
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

    let snap = stop(cluster, "windowed_puts");
    chaos::telemetry_truth(&snap).expect("receiver identity");
    assert_eq!((src.flag(sent), sink.flag(delivered)), (N, N), "once each");
    assert_eq!(scope_counter(&snap, 0, Ctr::MsgsOut), N);
    assert_eq!(scope_counter(&snap, 1, Ctr::OpsApplied), N);
    let frames = scope_counter(&snap, 0, Ctr::FramesOut);
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
    for i in 1..=ROUNDS {
        // The command queue backpressures a sender this far ahead.
        for (d, sink) in sinks.iter().enumerate() {
            let out = (2 * i + d as u64) * 8;
            let back = WORD + out;
            src.seg().write_u64(out, i << d);
            src.put(out, sink.asid(), WORD, 8, None, None);
            src.get(back, sink.asid(), WORD, 8, Some(done));
            src.enq(out, sink.asid(), RqId(0), 8, Some(done), None);
        }
    }
    src.wait_flag_timeout(done, 4 * ROUNDS, WAIT)
        .expect("all done");
    for (d, sink) in sinks.iter().enumerate() {
        let tags = drain(sink, RqId(0), ROUNDS, WAIT);
        let want: Vec<u64> = (1..=ROUNDS).map(|i| i << d).collect();
        assert_eq!(tags, want, "destination {d}: ENQ order");
        for i in 1..=ROUNDS {
            let back = WORD + (2 * i + d as u64) * 8;
            assert_eq!(src.seg().read_u64(back), i << d, "destination {d}: GET {i}");
        }
    }
    let snap = stop(cluster, "interleaved_burst");
    let (frames, msgs) = (
        scope_counter(&snap, 0, Ctr::FramesOut),
        scope_counter(&snap, 0, Ctr::MsgsOut),
    );
    assert_eq!(msgs, 6 * ROUNDS);
    assert!(frames < msgs, "the burst was coalesced: {frames} frames");
}

#[test]
fn operation_submitted_alone_leaves_at_once_as_a_frame_of_one() {
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
        assert_eq!(pop_tag(&sink, RqId(0)), Some(i));
    }
    let snap = stop(cluster, "one_at_a_time");
    assert_eq!(snap.total(Ctr::MsgsOut), 4 * ROUNDS);
    assert_eq!(snap.total(Ctr::FramesOut), snap.total(Ctr::MsgsOut));
    assert_eq!(snap.total(Ctr::FramesIn), snap.total(Ctr::MsgsIn));
}
