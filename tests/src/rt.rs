//! The threaded runtime's fault harness, shared by every suite that
//! drives `mproxy-rt` under kills, loss, stalls and overload
//! (`tests/tests/{chaos,supervision,wire_recovery,obs,runtime_watchdog,backpressure}.rs`):
//! one per-wait bound, one per-test bound, one reading of `MPROXY_STRESS_ITERS`, one drain
//! of tagged payloads, the exactly-once check, the counters' version of
//! it, one way to end a run, and the seeded kill × loss ring that the
//! supervision and telemetry soaks both run.
//!
//! A *tagged* payload is the eight-byte word `(sender << 32) | index`;
//! a stream from one sender carries `1..=n` in order. A sender whose
//! words carry no sender bits is sender 0.

use std::io::Write;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use mproxy_obs::{json, Ctr, Snapshot};
use mproxy_rt::{Endpoint, FlagId, RqId, RtCluster, RtClusterBuilder, RtFaultPlan};

/// Per-wait bound, generous for a loaded two-CPU host running a debug
/// build: a kill and its respawn backoff, or a chain of RTO rounds, must
/// fit. A wait that outlives it fails its test.
pub const WAIT: Duration = Duration::from_secs(10);

/// Longest one runtime test may run, from [`watchdog`] to its end:
/// a dozen [`WAIT`]s. The slowest fault test takes a few seconds in a
/// debug build; one that outlives this is hung, not slow.
pub const TEST_BOUND: Duration = Duration::from_secs(120);

/// Bounds the test that calls it: unless the returned guard is dropped
/// within [`TEST_BOUND`], prints the calling thread's name — the
/// test's, under the test harness — and aborts the test binary. A wait
/// with a timeout fails its test by itself; this fails the waits that
/// have none, such as a submission blocked for ever behind a command its
/// ring holds, or a join on a thread stuck in one, which would otherwise
/// hang the suite.
#[must_use = "the bound lasts as long as the guard"]
pub fn watchdog() -> Watchdog {
    let name = std::thread::current()
        .name()
        .unwrap_or("<unnamed test>")
        .to_owned();
    let (cancel, cancelled) = mpsc::channel::<()>();
    let thread = std::thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = cancelled.recv_timeout(TEST_BOUND) {
            // Straight to the stream: the harness captures `eprintln!`,
            // in threads a test spawns too, and the abort would lose it.
            let _ = writeln!(
                std::io::stderr(),
                "{name}: still running after {TEST_BOUND:?}; aborting the test binary"
            );
            std::process::abort();
        }
    });
    Watchdog {
        cancel: Some(cancel),
        thread: Some(thread),
    }
}

/// The guard [`watchdog`] returns: dropping it — the test returned or
/// panicked — lifts the bound and joins the watching thread.
pub struct Watchdog {
    cancel: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Hanging up wakes the watcher at once.
        drop(self.cancel.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// `MPROXY_STRESS_ITERS` if it is set to a number, else `default`: how
/// many seeds a soak runs or how many operations a stress test makes.
#[must_use]
pub fn stress_iters(default: u64) -> u64 {
    std::env::var("MPROXY_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Pops one tagged payload off queue `rq` of `sink`.
///
/// # Panics
///
/// Panics if the payload is shorter than eight bytes.
#[must_use]
pub fn pop_tag(sink: &Endpoint, rq: RqId) -> Option<u64> {
    let data = sink.rq_try_recv(rq)?;
    Some(u64::from_le_bytes(
        data[..8].try_into().expect("8-byte tag"),
    ))
}

/// Pops queue `rq` of `sink` until `expect` payloads arrived, or — when
/// fewer are coming — until it has stayed empty for `quiet`. Then gives
/// a duplicate a moment to show and takes whatever else is there, so a
/// payload delivered twice is in what it returns.
#[must_use]
pub fn drain(sink: &Endpoint, rq: RqId, expect: u64, quiet: Duration) -> Vec<u64> {
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
    std::thread::sleep(Duration::from_millis(5));
    got.extend(std::iter::from_fn(|| pop_tag(sink, rq)));
    got
}

/// Exactly once, in order: `got` (one queue's tagged payloads) holds
/// `1..=per_sender` from each of `senders`, each sender's in order, and
/// nothing else.
///
/// # Errors
///
/// Names the first sender whose stream lost, duplicated or reordered a
/// payload, or the count of payloads from no listed sender.
pub fn check_exactly_once(got: &[u64], senders: &[u32], per_sender: u64) -> Result<(), String> {
    let want: Vec<u64> = (1..=per_sender).collect();
    for &s in senders {
        let seq: Vec<u64> = got
            .iter()
            .filter(|v| (*v >> 32) as u32 == s)
            .map(|v| *v & 0xffff_ffff)
            .collect();
        if seq != want {
            return Err(format!(
                "sender {s}: expected 1..={per_sender} in order, got {} items \
                 (first divergence at {:?})",
                seq.len(),
                seq.iter().zip(&want).position(|(a, b)| a != b)
            ));
        }
    }
    let stray = got.len() - senders.len() * want.len();
    if stray > 0 {
        return Err(format!("{stray} payloads from no listed sender"));
    }
    Ok(())
}

/// Telemetry against the truth: on a snapshot taken after shutdown, every
/// operation a receiver popped off the wire was applied, or dropped as a
/// duplicate or as damaged, so `msgs_in == applied + dedup + damaged`
/// holds exactly per scope — the counters' version of
/// [`check_exactly_once`].
///
/// # Panics
///
/// Panics on the first scope where the identity fails.
pub fn telemetry_truth(snap: &Snapshot) {
    for sc in &snap.scopes {
        let msgs_in = sc.counter(Ctr::MsgsIn);
        let accounted = sc.counter(Ctr::OpsApplied)
            + sc.counter(Ctr::DedupDrops)
            + sc.counter(Ctr::DamagedDrops);
        assert_eq!(
            msgs_in, accounted,
            "{}: msgs_in != applied + dedup + damaged",
            sc.name
        );
    }
}

/// Counter `c` of node `node`'s scope.
///
/// # Panics
///
/// Panics if the snapshot has no scope for the node.
#[must_use]
pub fn node_counter(snap: &Snapshot, node: usize, c: Ctr) -> u64 {
    let name = format!("node{node}");
    let scope = snap.scopes.iter().find(|s| s.name == name);
    scope.expect("node scope").counter(c)
}

/// Polls `cond` every millisecond until it holds or `deadline` passes;
/// true if it held.
pub fn eventually(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// Ends a run: shuts `cluster` down and returns its telemetry, exact now
/// that every proxy has exited, after asserting that every proxy exited
/// cleanly, that the shutdown report and the snapshot export valid JSON,
/// and [`telemetry_truth`].
///
/// # Panics
///
/// Panics if any of those fails.
pub fn finish(cluster: RtCluster) -> Snapshot {
    let hub = cluster.obs_handle();
    let report = cluster.shutdown();
    assert!(report.clean(), "unclean shutdown: {report:?}");
    let snap = hub.snapshot("finish");
    for doc in [report.to_json(), snap.to_json()] {
        json::validate(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    }
    telemetry_truth(&snap);
    snap
}

/// One seeded randomized ring: 3–5 nodes, each PUTting the round number
/// to a word of its successor and ENQing a tagged payload at its
/// successor's queue every round, on a lossy wire, with a kill at a
/// seed-derived point on a seed-chosen node and supervision on. Every
/// round is acknowledged; afterwards every word holds the last round (a
/// stale write landing late would overwrite it) and every queue its
/// predecessor's tags, exactly once and in order. Ends in [`finish`].
///
/// Returns the node count, the victim node and the final snapshot. Each
/// ring runs under a [`watchdog`] of its own, so a soak of many seeds is
/// bounded per seed.
///
/// # Panics
///
/// Panics, naming the seed, if any of those fails or the kill never
/// fired.
pub fn ring(seed: u64, rounds: u64) -> (usize, usize, Snapshot) {
    let _bound = watchdog();
    let nodes = 3 + (seed % 3) as usize;
    let victim = (seed / 3 % nodes as u64) as usize;
    let kill_after = 10 + seed.wrapping_mul(7) % 70;
    let mut b = RtClusterBuilder::new(nodes);
    let asids: Vec<u32> = (0..nodes).map(|n| b.add_process(n, 1 << 16)).collect();
    b.fault_plan(
        RtFaultPlan::new(seed)
            .drop(0.02)
            .duplicate(0.02)
            .corrupt(0.01)
            .kill(victim, kill_after),
    );
    b.supervise(3, Duration::from_millis(1));
    let (cluster, mut eps) = b.start();
    let next = |n: usize| asids[(n + 1) % nodes];

    for i in 1..=rounds {
        for (n, e) in eps.iter_mut().enumerate() {
            e.seg().write_u64(0, i);
            e.put(0, next(n), 64, 8, Some(FlagId(0)), None);
            e.seg().write_u64(8, (u64::from(asids[n]) << 32) | i);
            e.enq(8, next(n), RqId(0), 8, Some(FlagId(0)), None);
        }
        for (n, e) in eps.iter().enumerate() {
            e.wait_flag_timeout(FlagId(0), 2 * i, WAIT)
                .unwrap_or_else(|err| panic!("seed {seed}: node {n}, round {i}: {err}"));
        }
    }
    for (n, e) in eps.iter().enumerate() {
        let prev = asids[(n + nodes - 1) % nodes];
        assert_eq!(e.seg().read_u64(64), rounds, "seed {seed}: node {n}'s word");
        let got = drain(e, RqId(0), rounds, WAIT);
        check_exactly_once(&got, &[prev], rounds)
            .unwrap_or_else(|why| panic!("seed {seed}: queue of node {n}: {why}"));
    }
    assert!(
        cluster.deaths(victim) >= 1,
        "seed {seed}: the kill on node {victim} never fired"
    );
    (nodes, victim, finish(cluster))
}

#[cfg(test)]
mod tests {
    use super::check_exactly_once;

    #[test]
    fn exactly_once_checker_catches_loss_and_dup() {
        let s = [1u32];
        let tag = |i: u64| (1u64 << 32) | i;
        assert!(check_exactly_once(&[tag(1), tag(2), tag(3)], &s, 3).is_ok());
        assert!(
            check_exactly_once(&[tag(1), tag(3)], &s, 3).is_err(),
            "loss"
        );
        assert!(
            check_exactly_once(&[tag(1), tag(2), tag(2), tag(3)], &s, 3).is_err(),
            "duplicate"
        );
        assert!(
            check_exactly_once(&[tag(2), tag(1), tag(3)], &s, 3).is_err(),
            "reorder"
        );
        assert!(
            check_exactly_once(&[tag(1), tag(2), tag(3), 7], &s, 3).is_err(),
            "stray"
        );
    }
}
