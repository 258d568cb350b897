//! Backpressure stops at the resource that is full. A proxy is shared by
//! mutually untrusting processes, so a peer that stops draining, or a
//! receive queue nobody drains, must hold back only the commands
//! addressed to it: a co-tenant on the same node, talking to someone
//! else, keeps going. A receive queue's bound is its `RQ_DEPTH` places,
//! claimed as the sending proxy admits each ENQ: nothing past them is
//! applied, from another node or from its own.
//!
//! These drive real threads. Each scenario takes the host's time for
//! its waits, so they run one at a time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mproxy_obs::Ctr;
use mproxy_rt::{Endpoint, FlagId, RqId, RtCluster, RtClusterBuilder, RtFaultPlan, RQ_DEPTH};
use mproxy_tests::rt::{self, WAIT};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// The endpoints of a cluster with `N` processes, in `add_process` order.
fn endpoints<const N: usize>(eps: Vec<Endpoint>) -> [Endpoint; N] {
    let Ok(eps) = eps.try_into() else {
        panic!("expected {N} endpoints")
    };
    eps
}

/// ENQs the words `1..=words` to queue 0 of `dst`, each from its own
/// slot (the proxy reads a slot when it takes the command) and each
/// asking for an lsync on flag 0.
fn enq_words(ep: &mut Endpoint, dst: u32, words: u64) {
    let base = ep.alloc(8 * words);
    for i in 1..=words {
        let laddr = base + 8 * (i - 1);
        ep.seg().write_u64(laddr, i);
        ep.enq(laddr, dst, RqId(0), 8, Some(FlagId(0)), None);
    }
}

/// Drains `words` words from queue 0 of `owner`, requiring `1..=words`
/// in order, and nothing after them.
fn drain_words(owner: &Endpoint, words: u64) {
    let got = rt::drain(owner, RqId(0), words, WAIT);
    rt::check_exactly_once(&got, &[0], words).unwrap_or_else(|why| panic!("{why}"));
}

/// Operations applied so far, over every node.
fn applied(cluster: &RtCluster) -> u64 {
    let snap = cluster.obs_snapshot("applied");
    snap.scopes.iter().map(|s| s.counter(Ctr::OpsApplied)).sum()
}

/// Polls `value` until it has not moved for `quiet`, or `deadline` has
/// passed since the call; returns the last reading.
fn settled(quiet: Duration, deadline: Duration, value: impl Fn() -> u64) -> u64 {
    let (mut last, mut since) = (value(), Instant::now());
    rt::eventually(deadline, || {
        let now = value();
        if now != last {
            (last, since) = (now, Instant::now());
        }
        since.elapsed() >= quiet
    });
    last
}

#[test]
fn a_stalled_peer_holds_back_only_the_commands_addressed_to_it() {
    let _bound = rt::watchdog();
    let _serial = serial();
    const STALL_AT: Duration = Duration::from_millis(50);
    const STALL: Duration = Duration::from_millis(600);
    const ROUND_TRIPS: u32 = 50;
    let mut b = RtClusterBuilder::new(3);
    b.add_process(0, 1 << 12);
    b.add_process(0, 1 << 12);
    let stalled = b.add_process(1, 1 << 12);
    let healthy = b.add_process(2, 1 << 12);
    b.fault_plan(RtFaultPlan::new(1).stall(1, STALL_AT, STALL));
    // The stall ends `STALL_AT + STALL` after the cluster starts, which
    // is after this reading.
    let t0 = Instant::now();
    let (cluster, eps) = b.start();
    let [mut flooder, mut tenant, _, _] = endpoints(eps);

    // One process floods 64-byte PUTs at the stalled node until told to
    // stop, then waits for every one of them to be acknowledged.
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let flood = std::thread::spawn({
        let (stop, sent) = (Arc::clone(&stop), Arc::clone(&sent));
        move || {
            let laddr = flooder.alloc(64);
            let mut n = 0;
            while !stop.load(Ordering::Relaxed) {
                flooder.put(laddr, stalled, 0, 64, Some(FlagId(0)), None);
                n += 1;
                sent.store(n, Ordering::Relaxed);
            }
            flooder.wait_flag_timeout(FlagId(0), n, WAIT)
        }
    });

    // Once the stall has backed the flood up to its submitter (or half
    // the stall has gone by), the co-tenant does its round trips to the
    // healthy node.
    while t0.elapsed() < STALL_AT {
        std::thread::sleep(Duration::from_millis(1));
    }
    settled(Duration::from_millis(20), STALL / 2, || {
        sent.load(Ordering::Relaxed)
    });
    let laddr = tenant.alloc(8);
    let mut worst = Duration::ZERO;
    for i in 1..=ROUND_TRIPS {
        let start = Instant::now();
        tenant.put(laddr, healthy, 0, 8, Some(FlagId(0)), None);
        tenant
            .wait_flag_timeout(FlagId(0), u64::from(i), WAIT)
            .unwrap_or_else(|e| panic!("co-tenant round trip {i}: {e}"));
        worst = worst.max(start.elapsed());
    }
    let finished = t0.elapsed();
    eprintln!("co-tenant: worst round trip {worst:?}, finished at {finished:?}");
    stop.store(true, Ordering::Relaxed);
    flood
        .join()
        .expect("flooder thread")
        .expect("every flooded PUT is acknowledged after the stall");
    assert!(
        finished < STALL_AT + STALL,
        "the co-tenant finished at {finished:?} (worst round trip {worst:?}), \
         not before the stall on another node ended"
    );
    rt::finish(cluster);
}

#[test]
fn a_queue_nobody_drains_does_not_stall_its_node() {
    let _bound = rt::watchdog();
    let _serial = serial();
    const WORDS: u64 = 3_000;
    let mut b = RtClusterBuilder::new(3);
    b.add_process(0, 1 << 16);
    b.add_process(0, 1 << 12);
    let owner = b.add_process(1, 1 << 12);
    b.add_process(1, 1 << 12);
    let healthy = b.add_process(2, 1 << 12);
    let (cluster, eps) = b.start();
    let [mut flooder, mut neighbour, owner_ep, mut tenant, _] = endpoints(eps);

    // Far more ENQs from another node than the queue holds: each waits
    // for a place at the head of the flooder's command queue.
    let flood = std::thread::spawn(move || {
        enq_words(&mut flooder, owner, WORDS);
        flooder.wait_flag_timeout(FlagId(0), WORDS, WAIT)
    });
    let quiet = Duration::from_millis(200);
    let plateau = settled(quiet, WAIT, || applied(&cluster));
    eprintln!("ENQs applied to an undrained queue: {plateau} of {WORDS}");
    assert_eq!(plateau, RQ_DEPTH as u64, "one ENQ applied per place");

    // A co-tenant on the full queue's node PUTs to a third node, and one
    // on the flooder's node ENQs to another queue of the same owner.
    let laddr = tenant.alloc(8);
    let start = Instant::now();
    tenant.put(laddr, healthy, 0, 8, Some(FlagId(0)), None);
    tenant
        .wait_flag_timeout(FlagId(0), 1, WAIT)
        .unwrap_or_else(|e| panic!("co-tenant PUT beside a full queue: {e}"));
    let put_took = start.elapsed();
    let laddr = neighbour.alloc(8);
    let start = Instant::now();
    neighbour.enq(laddr, owner, RqId(1), 8, Some(FlagId(0)), None);
    neighbour
        .wait_flag_timeout(FlagId(0), 1, WAIT)
        .unwrap_or_else(|e| panic!("ENQ to another queue of the owner: {e}"));
    let enq_took = start.elapsed();
    eprintln!("beside a full queue: co-tenant PUT {put_took:?}, ENQ {enq_took:?}");
    assert!(
        owner_ep.rq_try_recv(RqId(1)).is_some(),
        "the other queue's ENQ"
    );

    // Every word is delivered once, in order, as the owner drains, and
    // then every one of the flood's ENQs is acknowledged.
    drain_words(&owner_ep, WORDS);
    flood
        .join()
        .expect("flooder thread")
        .expect("every ENQ acknowledged once drained");
    rt::finish(cluster);
}

#[test]
fn enqs_to_an_undrained_queue_on_the_same_node_stop_at_the_cap() {
    let _bound = rt::watchdog();
    let _serial = serial();
    const WORDS: u64 = 8_000;
    let mut b = RtClusterBuilder::new(1);
    b.add_process(0, 1 << 17);
    let owner = b.add_process(0, 1 << 12);
    let (cluster, eps) = b.start();
    let [mut sender, owner_ep] = endpoints(eps);

    // The sender floods a queue on its own node and waits for every ENQ.
    let flood = std::thread::spawn(move || {
        enq_words(&mut sender, owner, WORDS);
        sender.wait_flag_timeout(FlagId(0), WORDS, WAIT)
    });

    // Nobody drains: the proxy admits `RQ_DEPTH` ENQs, one per place, and
    // holds the next at the head of the sender's command queue.
    let quiet = Duration::from_millis(200);
    let plateau = settled(quiet, WAIT, || applied(&cluster));
    eprintln!("same-node ENQs applied: {plateau} (cap {RQ_DEPTH})");
    assert_eq!(plateau, RQ_DEPTH as u64, "one ENQ applied per place");

    drain_words(&owner_ep, WORDS);
    flood
        .join()
        .expect("sender thread")
        .expect("every ENQ acknowledged once drained");
    rt::finish(cluster);
}
