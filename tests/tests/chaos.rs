//! Chaos scenarios for the threaded runtime: kills, corruption, stalls
//! and a hostile tenant under real load, each checking what supervision
//! and the sequenced wire promise:
//!
//! 1. **No acked op lost or duplicated** — an operation whose `lsync`
//!    flag fired was applied at the destination exactly once, kills and
//!    packet faults notwithstanding. The ENQ workloads check it end to
//!    end on tagged payloads ([`rt::check_exactly_once`]); every run
//!    checks the counters' version on its post-shutdown snapshot
//!    ([`rt::finish`]).
//! 2. **Bounded recovery** — every acknowledgement lands within
//!    [`WAIT`]: a kill, its respawn backoff and the NACK or RTO rounds
//!    that recover what it lost must fit.
//! 3. **Survivor liveness** — nodes not involved in a fault keep
//!    completing operations while a peer is stalled.
//! 4. **Protection** — a hostile tenant's malformed commands are
//!    rejected, one fault each, and cost its co-tenant nothing.
//!
//! Each scenario is seeded; thread interleaving still varies, so the
//! assertions are on these invariants, not on timing. The randomized
//! kill × loss ring, [`rt::ring`], is soaked by
//! `supervision.rs::randomized_kill_soak` and `obs.rs::telemetry_soak`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mproxy_obs::Ctr;
use mproxy_rt::{FlagId, RqId, RtClusterBuilder, RtFaultPlan, NUM_FLAGS, NUM_QUEUES, RQ_DEPTH};
use mproxy_tests::rt::{self, WAIT};
use mproxy_tests::Rng;

/// Kill during fan-in: two senders enqueue tagged payloads, one at a
/// time, at a sink on node 0, and node `victim`'s proxy (the sink's, or
/// a sender's) is killed after `kill_after` serviced operations and
/// respawned. Every acknowledged ENQ lands exactly once, the sink's
/// `ops_applied` counts exactly those, and the kill and the respawn are
/// on the counters, which outlive the proxy that died.
fn kill_fan_in(seed: u64, victim: usize, kill_after: u64) {
    const SENDERS: usize = 2;
    const PER: u64 = 40;
    let mut b = RtClusterBuilder::new(SENDERS + 1);
    let sink_asid = b.add_process(0, 1 << 16);
    let src_asids: Vec<u32> = (1..=SENDERS).map(|n| b.add_process(n, 1 << 16)).collect();
    b.fault_plan(RtFaultPlan::new(seed).kill(victim, kill_after));
    b.supervise(3, Duration::from_millis(1));
    let (cluster, mut eps) = b.start();
    let srcs = eps.split_off(1);
    let sink = eps.pop().expect("sink endpoint");

    let senders: Vec<_> = srcs
        .into_iter()
        .zip(src_asids.clone())
        .map(|(mut e, asid)| {
            std::thread::spawn(move || {
                for i in 1..=PER {
                    e.seg().write_u64(0, (u64::from(asid) << 32) | i);
                    e.enq(0, sink_asid, RqId(0), 8, Some(FlagId(0)), None);
                    e.wait_flag_timeout(FlagId(0), i, WAIT)
                        .unwrap_or_else(|err| panic!("sender {asid} op {i}: {err}"));
                }
            })
        })
        .collect();
    for s in senders {
        s.join().expect("sender thread");
    }
    let total = SENDERS as u64 * PER;
    let got = rt::drain(&sink, RqId(0), total, WAIT);
    rt::check_exactly_once(&got, &src_asids, PER).unwrap_or_else(|why| panic!("{why}"));
    assert!(
        cluster.deaths(victim) >= 1,
        "the kill on node {victim} never fired"
    );

    let snap = rt::finish(cluster);
    assert_eq!(
        rt::node_counter(&snap, 0, Ctr::OpsApplied),
        total,
        "the sink applied exactly the verified deliveries"
    );
    assert!(snap.total(Ctr::Kills) >= 1 && snap.total(Ctr::Respawns) >= 1);
}

#[test]
fn kill_sink_fan_in() {
    let _bound = rt::watchdog();
    kill_fan_in(101, 0, 25);
}

#[test]
fn kill_sender_fan_in() {
    let _bound = rt::watchdog();
    kill_fan_in(202, 1, 20);
}

/// Corruption, loss and duplication under windowed PUT load on a
/// two-node pair: the sequenced wire hides all of it.
#[test]
fn corrupt_under_load() {
    let _bound = rt::watchdog();
    const MSGS: u64 = 200;
    const WINDOW: u64 = 64;
    let mut b = RtClusterBuilder::new(2);
    b.add_process(0, 1 << 16);
    let p1 = b.add_process(1, 1 << 16);
    b.fault_plan(
        RtFaultPlan::new(303)
            .drop(0.10)
            .duplicate(0.10)
            .corrupt(0.05),
    );
    let (cluster, mut eps) = b.start();
    let e1 = eps.pop().expect("endpoint 1");
    let mut e0 = eps.pop().expect("endpoint 0");

    for i in 1..=MSGS {
        e0.seg().write_u64(0, i);
        e0.put(0, p1, 64, 8, Some(FlagId(0)), None);
        if i > WINDOW {
            e0.wait_flag_timeout(FlagId(0), i - WINDOW, WAIT)
                .unwrap_or_else(|err| panic!("op {i}: {err}"));
        }
    }
    e0.wait_flag_timeout(FlagId(0), MSGS, WAIT)
        .expect("final ack");
    // In-order delivery: no stale write lands after the last one.
    assert_eq!(e1.seg().read_u64(64), MSGS, "the cell holds the last write");
    let counts = cluster.fault_counts().expect("plan installed");
    assert!(
        counts.dropped > 0 && counts.duplicated > 0 && counts.corrupted > 0,
        "injector idle under load: {counts:?}"
    );
    rt::finish(cluster);
}

/// Stall one node's proxy for dozens of load-sampling periods while two
/// *other* nodes keep exchanging acknowledged PUTs: survivors never
/// block on a stalled peer, and the stalled node takes its own traffic
/// once the stall lifts.
#[test]
fn stall_survivor_liveness() {
    let _bound = rt::watchdog();
    const ROUNDS: u64 = 25;
    let mut b = RtClusterBuilder::new(3);
    b.add_process(0, 1 << 16);
    let p1 = b.add_process(1, 1 << 16);
    let p2 = b.add_process(2, 1 << 16);
    // Node 1 freezes for 150 ms starting almost at once.
    b.fault_plan(RtFaultPlan::new(404).stall(
        1,
        Duration::from_millis(5),
        Duration::from_millis(150),
    ));
    let (cluster, mut eps) = b.start();
    let e2 = eps.pop().expect("endpoint 2");
    let _e1 = eps.pop().expect("endpoint 1");
    let mut e0 = eps.pop().expect("endpoint 0");

    // Let the stall start.
    std::thread::sleep(Duration::from_millis(20));
    for i in 1..=ROUNDS {
        e0.seg().write_u64(0, i);
        e0.put(0, p2, 64, 8, Some(FlagId(0)), None);
        e0.wait_flag_timeout(FlagId(0), i, WAIT)
            .unwrap_or_else(|err| panic!("survivor op {i}: {err}"));
    }
    assert_eq!(e2.seg().read_u64(64), ROUNDS, "survivor data complete");
    e0.seg().write_u64(0, 77);
    e0.put(0, p1, 64, 8, Some(FlagId(1)), None);
    e0.wait_flag_timeout(FlagId(1), 1, WAIT)
        .expect("delivery into the stalled node once the stall lifts");
    let counts = cluster.fault_counts().expect("plan installed");
    assert!(counts.stalls > 0, "the stall never fired");
    rt::finish(cluster);
}

/// One operation the hostile tenant of [`hostile_tenant`] submits.
struct HostileOp {
    kind: Kind,
    laddr: u64,
    dst: u32,
    /// The remote address of a PUT or GET, the queue index of an ENQ.
    raddr: u64,
    nbytes: u32,
    lsync: FlagId,
    rsync: Option<FlagId>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Put,
    Get,
    Enq,
}

/// The flag every valid hostile operation bumps on completion (its own),
/// and the one every valid PUT and ENQ bumps on delivery (the sink's).
const HOSTILE_LSYNC: u32 = 1;
const HOSTILE_RSYNC: u32 = 2;
/// The sink queue valid hostile ENQs land in (the co-tenant's is 0).
const HOSTILE_RQ: u32 = 1;
/// The co-tenant's flag for the ENQs that refill every drained queue.
const REFILL_LSYNC: u32 = 3;

/// Draws one hostile operation towards `sink` (segment `seg` bytes, like
/// the hostile process's own): a valid one a quarter of the time,
/// otherwise a valid one with exactly one operand made bad — a `dst` that
/// names no process or one it holds no grant for (`stranger`), a flag or
/// queue index past the last (up to `u32::MAX`), a local or remote range
/// past its segment's end or wrapping `u64`, or zero bytes. True when the
/// operation is invalid.
fn hostile_op(rng: &mut Rng, seg: u64, sink: u32, stranger: u32) -> (HostileOp, bool) {
    let kind = rng.pick(&[Kind::Put, Kind::Get, Kind::Enq]);
    let nbytes = 1 + rng.below(64) as u32;
    let n = u64::from(nbytes);
    let mut op = HostileOp {
        kind,
        laddr: rng.below(seg - n + 1),
        dst: sink,
        raddr: match kind {
            Kind::Enq => u64::from(HOSTILE_RQ),
            _ => rng.below(seg - n + 1),
        },
        nbytes,
        lsync: FlagId(HOSTILE_LSYNC),
        rsync: (kind != Kind::Get).then_some(FlagId(HOSTILE_RSYNC)),
    };
    // Uniform in `[lo, u32::MAX]`.
    let past = |rng: &mut Rng, lo: u32| rng.range(u64::from(lo), 1 << 32) as u32;
    let flag = NUM_FLAGS as u32;
    // Past a range's end: straddling it, or up to a TiB beyond.
    let beyond = seg - n + 1 + rng.below(1 << 40);
    // Wrapping `u64`: the range's end overflows.
    let wrapping = u64::MAX - rng.below(n);
    match rng.below(12) {
        0..=2 => return (op, false),
        // The scenario declares four processes.
        3 => op.dst = past(rng, 4),
        4 => op.dst = stranger,
        // `Endpoint::get` takes no rsync: a GET's bad flag is its lsync.
        5 | 6 if kind == Kind::Get => op.lsync = FlagId(past(rng, flag)),
        5 => op.lsync = FlagId(past(rng, flag)),
        6 => op.rsync = Some(FlagId(past(rng, flag))),
        7 => op.laddr = beyond,
        8 => op.laddr = wrapping,
        // An ENQ's remote operand is its queue index.
        9 | 10 if kind == Kind::Enq => op.raddr = u64::from(past(rng, NUM_QUEUES as u32)),
        9 => op.raddr = beyond,
        10 => op.raddr = wrapping,
        _ => op.nbytes = 0,
    }
    (op, true)
}

/// A hostile tenant on a shared node. Process 0 submits 4 000 seeded
/// random PUT/GET/ENQs through its `Endpoint` ([`hostile_op`]: bad
/// `dst`, no grant, flag and queue indices up to `u32::MAX`,
/// out-of-bounds and wrapping addresses, zero lengths, and some valid
/// operations among them), while its co-tenant, process 1 on the same
/// node and proxy, streams tagged ENQs to a sink on node 1. The shared
/// proxy must reject exactly the invalid operations, one fault each,
/// fire no flag for any of them, and never die; the co-tenant's stream
/// must arrive exactly once, in order. The sink drains every queue while
/// they run, and there are more valid hostile ENQs (about one in twelve)
/// than a queue has places, [`RQ_DEPTH`]: afterwards each sink queue
/// must admit a fresh `RQ_DEPTH` ENQs, so no invalid ENQ took a place
/// and no valid one kept its place past its dequeue.
#[test]
fn hostile_tenant() {
    let _bound = rt::watchdog();
    const SEG: u64 = 1 << 12;
    const OPS: u64 = 4_000;
    const PER: u64 = 200;
    let mut b = RtClusterBuilder::new(2);
    let hostile = b.add_process(0, SEG as usize);
    let tenant = b.add_process(0, SEG as usize);
    let sink = b.add_process(1, SEG as usize);
    let stranger = b.add_process(1, SEG as usize);
    let (cluster, mut eps) = b.start();
    cluster.restrict();
    cluster.grant(hostile, sink);
    cluster.grant(tenant, sink);
    let _stranger = eps.pop().expect("stranger endpoint");
    let sink_ep = eps.pop().expect("sink endpoint");
    let mut tenant_ep = eps.pop().expect("co-tenant endpoint");
    let mut hostile_ep = eps.pop().expect("hostile endpoint");

    // The sink drains every queue until told to stop, then once more:
    // the co-tenant's tags, the hostile ENQs, and what landed elsewhere.
    // Neither how many hostile ENQs are valid nor when the last lands is
    // known while it runs, so it drains until stopped, not to a count.
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            let (mut tags, mut hostile_enqs, mut stray) = (Vec::new(), 0u64, 0u64);
            let mut last = false;
            while !last {
                last = stop.load(Ordering::Acquire);
                for rq in 0..NUM_QUEUES as u32 {
                    // A hostile payload may be shorter than a tag.
                    while let Some(data) = sink_ep.rq_try_recv(RqId(rq)) {
                        match rq {
                            0 => tags.extend(data[..].try_into().map(u64::from_le_bytes)),
                            HOSTILE_RQ => hostile_enqs += 1,
                            _ => stray += 1,
                        }
                    }
                }
                std::thread::yield_now();
            }
            (sink_ep, tags, hostile_enqs, stray)
        }
    });

    let tenant_thread = std::thread::spawn(move || {
        const WINDOW: u64 = 32;
        for i in 1..=PER {
            // The proxy reads a payload when it takes the command: a
            // slot is rewritten only once its last ENQ is acknowledged.
            if i > WINDOW {
                tenant_ep
                    .wait_flag_timeout(FlagId(0), i - WINDOW, WAIT)
                    .unwrap_or_else(|err| panic!("co-tenant op {i}: {err}"));
            }
            let slot = 8 * (i % WINDOW);
            tenant_ep
                .seg()
                .write_u64(slot, (u64::from(tenant) << 32) | i);
            tenant_ep.enq(slot, sink, RqId(0), 8, Some(FlagId(0)), None);
        }
        tenant_ep
            .wait_flag_timeout(FlagId(0), PER, WAIT)
            .expect("co-tenant final ack");
        tenant_ep
    });
    let mut rng = Rng::new(505);
    let (mut invalid, mut valid, mut valid_rsync, mut valid_enq) = (0, 0, 0, 0);
    for _ in 0..OPS {
        let (op, bad) = hostile_op(&mut rng, SEG, sink, stranger);
        if bad {
            invalid += 1;
        } else {
            valid += 1;
            valid_rsync += u64::from(op.rsync.is_some());
            valid_enq += u64::from(op.kind == Kind::Enq);
        }
        let (laddr, dst, n, l) = (op.laddr, op.dst, op.nbytes, Some(op.lsync));
        match op.kind {
            Kind::Put => hostile_ep.put(laddr, dst, op.raddr, n, l, op.rsync),
            Kind::Get => hostile_ep.get(laddr, dst, op.raddr, n, l),
            Kind::Enq => hostile_ep.enq(laddr, dst, RqId(op.raddr as u32), n, l, op.rsync),
        }
    }
    hostile_ep
        .wait_flag_timeout(FlagId(HOSTILE_LSYNC), valid, WAIT)
        .expect("the hostile tenant's valid operations");
    let mut tenant_ep = tenant_thread.join().expect("co-tenant thread");
    // Every lsync that fired was for a payload already in its queue.
    stop.store(true, Ordering::Release);
    let (sink_ep, tags, enqueued, stray) = drainer.join().expect("sink drainer thread");
    rt::check_exactly_once(&tags, &[tenant], PER)
        .unwrap_or_else(|why| panic!("co-tenant stream: {why}"));
    assert!(
        valid_enq > RQ_DEPTH as u64,
        "{valid_enq} valid hostile ENQs cannot fill a queue"
    );
    // Every queue drained: each has all its places back.
    let refill = (RQ_DEPTH * NUM_QUEUES) as u64;
    for rq in 0..NUM_QUEUES as u32 {
        for _ in 0..RQ_DEPTH {
            tenant_ep.enq(0, sink, RqId(rq), 8, Some(FlagId(REFILL_LSYNC)), None);
        }
    }
    tenant_ep
        .wait_flag_timeout(FlagId(REFILL_LSYNC), refill, WAIT)
        .expect("a drained queue kept places taken");
    let deaths: u64 = (0..2).map(|n| cluster.deaths(n)).sum();
    assert_eq!(
        deaths,
        0,
        "proxy deaths, panicked {:?}",
        cluster.panicked_nodes()
    );
    rt::finish(cluster);

    // Every proxy has exited: each command is decided and each flag final.
    let flags = |e: &mproxy_rt::Endpoint| -> Vec<u64> {
        (0..NUM_FLAGS as u32).map(|f| e.flag(FlagId(f))).collect()
    };
    let expect = |pairs: &[(u32, u64)]| -> Vec<u64> {
        let mut v = vec![0; NUM_FLAGS];
        for &(f, n) in pairs {
            v[f as usize] = n;
        }
        v
    };
    assert_eq!(hostile_ep.faults(), invalid, "one fault per invalid op");
    assert_eq!(
        flags(&hostile_ep),
        expect(&[(HOSTILE_LSYNC, valid)]),
        "hostile flags"
    );
    assert_eq!(
        flags(&sink_ep),
        expect(&[(HOSTILE_RSYNC, valid_rsync)]),
        "sink flags"
    );
    assert_eq!((enqueued, stray), (valid_enq, 0), "hostile ENQs delivered");
    assert_eq!(
        flags(&tenant_ep),
        expect(&[(0, PER), (REFILL_LSYNC, refill)]),
        "co-tenant flags"
    );
    assert_eq!(tenant_ep.faults(), 0, "co-tenant faults");
}
