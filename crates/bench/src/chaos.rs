//! Chaos scenarios for the threaded runtime: drive kills, corruption
//! and stalls (via [`mproxy_rt::RtFaultPlan`]) under real load and check
//! the recovery invariants the supervision layer promises:
//!
//! 1. **No acked op lost or duplicated** — an operation whose `lsync`
//!    flag fired was applied at the destination exactly once, kills and
//!    packet faults notwithstanding. Enqueue workloads verify this
//!    end-to-end: every payload carries `(sender, index)`, and each
//!    sender's drained subsequence must be exactly `1..=n`, in order.
//! 2. **Bounded recovery** — every acknowledgement lands within
//!    [`WAIT`]; a kill-respawn-resync cycle that exceeds it fails the
//!    scenario (no wait, no matter how unlucky, may outlive the bound).
//! 3. **Survivor liveness** — nodes not involved in a fault keep
//!    completing operations while a peer is stalled or dead.
//!
//! Each scenario is seeded and returns a [`ScenarioResult`] for a test
//! to assert on: the four deterministic families run in this module's
//! `deterministic_scenarios_smoke`, the randomized ring in
//! `tests/tests/obs.rs::telemetry_soak` (CI's `fault-tests` job runs
//! both three times over; the nightly soak runs 60 seeds).

use std::time::{Duration, Instant};

use mproxy_obs::{Ctr, Snapshot};
use mproxy_rt::{FlagId, RqId, RtClusterBuilder, RtFaultPlan};

/// Per-acknowledgement bound: recovery (respawn + resync + retransmit)
/// must complete well inside this, even on a loaded single-CPU host.
pub const WAIT: Duration = Duration::from_millis(2000);

/// Outcome of one chaos scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario family name.
    pub name: String,
    /// Whether every invariant held.
    pub passed: bool,
    /// Proxy deaths observed (injected kills that fired).
    pub deaths: u64,
    /// Human-readable failure description, empty when `passed`.
    pub failure: String,
    /// The cluster's [`mproxy_rt::ShutdownReport`] as stable JSON.
    pub shutdown_json: String,
    /// Post-shutdown telemetry snapshot (exact: every proxy has exited).
    pub obs: Option<Snapshot>,
}

impl ScenarioResult {
    fn new(name: &str) -> ScenarioResult {
        ScenarioResult {
            name: name.into(),
            passed: true,
            deaths: 0,
            failure: String::new(),
            shutdown_json: String::new(),
            obs: None,
        }
    }

    fn fail(mut self, why: String) -> ScenarioResult {
        self.passed = false;
        if self.failure.is_empty() {
            self.failure = why;
        }
        self
    }
}

/// Checks that `got` (one sink queue's drained payloads, each tagged
/// `(sender << 32) | index`) contains exactly `1..=per_sender` per
/// sender, in order — the "no acked op lost or duplicated" invariant.
fn check_exactly_once(got: &[u64], senders: &[u32], per_sender: u64) -> Result<(), String> {
    for &s in senders {
        let seq: Vec<u64> = got
            .iter()
            .filter(|v| (*v >> 32) as u32 == s)
            .map(|v| *v & 0xffff_ffff)
            .collect();
        let want: Vec<u64> = (1..=per_sender).collect();
        if seq != want {
            return Err(format!(
                "sender {s}: expected 1..={per_sender} in order, got {} items \
                 (first divergence at {:?})",
                seq.len(),
                seq.iter().zip(&want).position(|(a, b)| a != b)
            ));
        }
    }
    Ok(())
}

/// Telemetry-vs-truth: on a post-shutdown snapshot every popped data
/// frame sits in exactly one outcome bucket, so per receiver
/// `msgs_in == applied + dedup_drops + damaged_drops + sheds` must hold
/// exactly — the counters' version of the tagged-payload exactly-once
/// check.
pub fn telemetry_truth(snap: &Snapshot) -> Result<(), String> {
    for sc in &snap.scopes {
        let msgs_in = sc.counter(Ctr::MsgsIn);
        let accounted = sc.counter(Ctr::OpsApplied)
            + sc.counter(Ctr::DedupDrops)
            + sc.counter(Ctr::DamagedDrops)
            + sc.counter(Ctr::Sheds);
        if msgs_in != accounted {
            return Err(format!(
                "{}: msgs_in {msgs_in} != applied+dedup+damaged+shed {accounted}",
                sc.name
            ));
        }
    }
    Ok(())
}

/// Drains `rq` on `sink` until `expect` payloads arrived or the deadline
/// passes.
fn drain_u64s(sink: &mproxy_rt::Endpoint, rq: RqId, expect: usize) -> Result<Vec<u64>, String> {
    let deadline = Instant::now() + WAIT;
    let mut got = Vec::with_capacity(expect);
    while got.len() < expect {
        if let Some(data) = sink.rq_try_recv(rq) {
            let bytes: [u8; 8] = data[..8]
                .try_into()
                .map_err(|_| "short payload".to_string())?;
            got.push(u64::from_le_bytes(bytes));
        } else if Instant::now() >= deadline {
            return Err(format!("drained {} of {expect} before deadline", got.len()));
        } else {
            std::thread::yield_now();
        }
    }
    // Anything extra is a duplicate delivery.
    std::thread::sleep(Duration::from_millis(5));
    if sink.rq_try_recv(rq).is_some() {
        return Err("extra delivery after full drain (duplicate)".into());
    }
    Ok(got)
}

/// Kill-during-fan-in: `senders` processes enqueue tagged payloads at a
/// sink whose proxy is killed (and respawned) mid-stream. `victim_sender`
/// instead kills one of the *sending* nodes.
fn kill_fan_in(
    name: &str,
    seed: u64,
    senders: usize,
    per_sender: u64,
    kill_after: u64,
    victim_sender: bool,
) -> ScenarioResult {
    let mut result = ScenarioResult::new(name);
    let mut b = RtClusterBuilder::new(senders + 1);
    let sink_asid = b.add_process(0, 1 << 16);
    let src_asids: Vec<u32> = (1..=senders).map(|n| b.add_process(n, 1 << 16)).collect();
    let victim = if victim_sender { 1 } else { 0 };
    b.fault_plan(RtFaultPlan::new(seed).kill(victim, kill_after));
    b.supervise(3, Duration::from_millis(1));
    let (cluster, mut eps) = b.start();
    let src_eps = eps.split_off(1);
    let sink = eps.pop().expect("sink endpoint");

    let handles: Vec<_> = src_eps
        .into_iter()
        .zip(src_asids.iter().copied())
        .map(|(mut e, asid)| {
            std::thread::spawn(move || -> Result<(), String> {
                for i in 1..=per_sender {
                    e.seg().write_u64(0, (u64::from(asid) << 32) | i);
                    e.enq(0, sink_asid, RqId(0), 8, Some(FlagId(0)), None);
                    e.wait_flag_timeout(FlagId(0), i, WAIT)
                        .map_err(|err| format!("sender {asid} op {i}: {err}"))?;
                }
                Ok(())
            })
        })
        .collect();

    for h in handles {
        if let Err(why) = h.join().expect("sender thread") {
            result = result.fail(why);
        }
    }
    if result.passed {
        match drain_u64s(&sink, RqId(0), senders * per_sender as usize) {
            Ok(got) => {
                if let Err(why) = check_exactly_once(&got, &src_asids, per_sender) {
                    result = result.fail(why);
                }
            }
            Err(why) => result = result.fail(why),
        }
    }
    result.deaths = cluster.deaths(victim);
    if result.passed && result.deaths == 0 {
        result = result.fail(format!("injected kill on node {victim} never fired"));
    }
    let hub = cluster.obs_handle();
    let report = cluster.shutdown();
    result.shutdown_json = report.to_json();
    if result.passed && !report.clean() {
        result = result.fail(format!("unclean shutdown: {report:?}"));
    }
    let snap = hub.snapshot(&result.name);
    if result.passed {
        if let Err(why) = telemetry_truth(&snap) {
            result = result.fail(format!("telemetry vs truth: {why}"));
        }
        // The sink's applied-op counter must agree with the tagged
        // payloads the exactly-once checker verified, across kills.
        let want = senders as u64 * per_sender;
        let applied = snap
            .scopes
            .iter()
            .find(|sc| sc.name == "node0")
            .map_or(0, |sc| sc.counter(Ctr::OpsApplied));
        if applied != want {
            result = result.fail(format!(
                "sink ops_applied {applied} != {want} verified deliveries"
            ));
        }
    }
    result.obs = Some(snap);
    result
}

/// Kill the sink's proxy mid-fan-in.
#[must_use]
pub fn kill_sink_fan_in(seed: u64, per_sender: u64) -> ScenarioResult {
    kill_fan_in("kill_sink_fan_in", seed, 2, per_sender, 25, false)
}

/// Kill one sender's proxy mid-fan-in.
#[must_use]
pub fn kill_sender_fan_in(seed: u64, per_sender: u64) -> ScenarioResult {
    kill_fan_in("kill_sender_fan_in", seed, 2, per_sender, 20, true)
}

/// Corruption, loss and duplication under windowed PUT load on a clean
/// two-node pair: the sequenced wire layer must hide all of it.
#[must_use]
pub fn corrupt_under_load(seed: u64, msgs: u64) -> ScenarioResult {
    let mut result = ScenarioResult::new("corrupt_under_load");
    let mut b = RtClusterBuilder::new(2);
    let _p0 = b.add_process(0, 1 << 16);
    let p1 = b.add_process(1, 1 << 16);
    b.fault_plan(RtFaultPlan::new(seed).drop(0.10).duplicate(0.10).corrupt(0.05));
    let (cluster, mut eps) = b.start();
    let e1 = eps.pop().expect("endpoint 1");
    let mut e0 = eps.pop().expect("endpoint 0");

    const WINDOW: u64 = 64;
    for i in 1..=msgs {
        e0.seg().write_u64(0, i);
        e0.put(0, p1, 64, 8, Some(FlagId(0)), None);
        if i > WINDOW {
            if let Err(err) = e0.wait_flag_timeout(FlagId(0), i - WINDOW, WAIT) {
                result = result.fail(format!("op {i}: {err}"));
                break;
            }
        }
    }
    if result.passed {
        if let Err(err) = e0.wait_flag_timeout(FlagId(0), msgs, WAIT) {
            result = result.fail(format!("final ack: {err}"));
        }
    }
    // The monotone counter payload: the cell must hold the *last* write
    // (in-order delivery means no stale overwrite can land afterwards).
    if result.passed && e1.seg().read_u64(64) != msgs {
        result = result.fail(format!(
            "final cell holds {}, want {msgs}",
            e1.seg().read_u64(64)
        ));
    }
    let counts = cluster.fault_counts().expect("plan installed");
    if result.passed && (counts.dropped == 0 || counts.duplicated == 0 || counts.corrupted == 0) {
        result = result.fail(format!("injector idle under load: {counts:?}"));
    }
    let hub = cluster.obs_handle();
    let report = cluster.shutdown();
    result.shutdown_json = report.to_json();
    if result.passed && !report.clean() {
        result = result.fail(format!("unclean shutdown: {report:?}"));
    }
    let snap = hub.snapshot(&result.name);
    if result.passed {
        if let Err(why) = telemetry_truth(&snap) {
            result = result.fail(format!("telemetry vs truth: {why}"));
        }
    }
    result.obs = Some(snap);
    result
}

/// Stall one node's proxy past the watchdog period while two *other*
/// nodes keep exchanging acknowledged puts: survivors must never block
/// on a stalled peer, and the stalled node must finish its own backlog
/// once the stall lifts.
#[must_use]
pub fn stall_survivor_liveness(seed: u64, rounds: u64) -> ScenarioResult {
    let mut result = ScenarioResult::new("stall_survivor_liveness");
    let mut b = RtClusterBuilder::new(3);
    let _p0 = b.add_process(0, 1 << 16);
    let p1 = b.add_process(1, 1 << 16);
    let p2 = b.add_process(2, 1 << 16);
    // Node 1 freezes for 150 ms starting almost immediately — dozens of
    // watchdog periods.
    b.fault_plan(RtFaultPlan::new(seed).stall(
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
    // Survivor path 0→2 stays live during the stall.
    for i in 1..=rounds {
        e0.seg().write_u64(0, i);
        e0.put(0, p2, 64, 8, Some(FlagId(0)), None);
        if let Err(err) = e0.wait_flag_timeout(FlagId(0), i, WAIT) {
            result = result.fail(format!("survivor op {i}: {err}"));
            break;
        }
    }
    // Traffic *into* the stalled node completes once the stall lifts.
    if result.passed {
        e0.seg().write_u64(0, 77);
        e0.put(0, p1, 64, 8, Some(FlagId(1)), None);
        if let Err(err) = e0.wait_flag_timeout(FlagId(1), 1, WAIT) {
            result = result.fail(format!("post-stall delivery: {err}"));
        }
    }
    if result.passed && e2.seg().read_u64(64) != rounds {
        result = result.fail("survivor data incomplete".into());
    }
    let counts = cluster.fault_counts().expect("plan installed");
    if result.passed && counts.stalls == 0 {
        result = result.fail("stall never fired".into());
    }
    let hub = cluster.obs_handle();
    let report = cluster.shutdown();
    result.shutdown_json = report.to_json();
    if result.passed && !report.clean() {
        result = result.fail(format!("unclean shutdown: {report:?}"));
    }
    let snap = hub.snapshot(&result.name);
    if result.passed {
        if let Err(why) = telemetry_truth(&snap) {
            result = result.fail(format!("telemetry vs truth: {why}"));
        }
    }
    result.obs = Some(snap);
    result
}

/// One seeded randomized scenario: 3–5 nodes in a ring, each node
/// enqueuing tagged payloads at its successor, a low-probability lossy
/// wire, and a kill at a seed-derived point on a seed-chosen victim,
/// with supervision on. Exactly-once is checked on every queue.
#[must_use]
pub fn randomized(seed: u64, rounds: u64) -> ScenarioResult {
    let mut result = ScenarioResult::new("randomized_ring");
    let nodes = 3 + (seed % 3) as usize; // 3..=5
    let victim = (seed / 3 % nodes as u64) as usize;
    let kill_after = 10 + (seed.wrapping_mul(7) % 70);
    let mut b = RtClusterBuilder::new(nodes);
    let asids: Vec<u32> = (0..nodes).map(|n| b.add_process(n, 1 << 16)).collect();
    b.fault_plan(
        RtFaultPlan::new(seed)
            .drop(0.02)
            .duplicate(0.02)
            .corrupt(0.01)
            .kill(victim, kill_after),
    );
    b.supervise(4, Duration::from_millis(1));
    let (cluster, eps) = b.start();

    let handles: Vec<_> = eps
        .into_iter()
        .enumerate()
        .map(|(n, mut e)| {
            let dst = asids[(n + 1) % nodes];
            let me = asids[n];
            std::thread::spawn(move || -> (mproxy_rt::Endpoint, Result<(), String>) {
                for i in 1..=rounds {
                    e.seg().write_u64(0, (u64::from(me) << 32) | i);
                    e.enq(0, dst, RqId(0), 8, Some(FlagId(0)), None);
                    if let Err(err) = e.wait_flag_timeout(FlagId(0), i, WAIT) {
                        return (e, Err(format!("node {n} op {i}: {err}")));
                    }
                }
                (e, Ok(()))
            })
        })
        .collect();

    let mut endpoints = Vec::with_capacity(nodes);
    for h in handles {
        let (e, r) = h.join().expect("ring thread");
        if let Err(why) = r {
            result = result.fail(why);
        }
        endpoints.push(e);
    }
    if result.passed {
        // Each node's queue holds exactly its predecessor's 1..=rounds.
        for (n, e) in endpoints.iter().enumerate() {
            let pred = asids[(n + nodes - 1) % nodes];
            match drain_u64s(e, RqId(0), rounds as usize) {
                Ok(got) => {
                    if let Err(why) = check_exactly_once(&got, &[pred], rounds) {
                        result = result.fail(format!("queue of node {n}: {why}"));
                        break;
                    }
                }
                Err(why) => {
                    result = result.fail(format!("queue of node {n}: {why}"));
                    break;
                }
            }
        }
    }
    result.deaths = cluster.deaths(victim);
    if result.passed && result.deaths == 0 {
        result = result.fail(format!("injected kill on node {victim} never fired"));
    }
    let hub = cluster.obs_handle();
    let report = cluster.shutdown();
    result.shutdown_json = report.to_json();
    if result.passed && !report.clean() {
        result = result.fail(format!("unclean shutdown: {report:?}"));
    }
    let snap = hub.snapshot(&result.name);
    if result.passed {
        if let Err(why) = telemetry_truth(&snap) {
            result = result.fail(format!("telemetry vs truth: {why}"));
        }
    }
    result.obs = Some(snap);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_once_checker_catches_loss_and_dup() {
        let s = [1u32];
        let tag = |i: u64| (1u64 << 32) | i;
        assert!(check_exactly_once(&[tag(1), tag(2), tag(3)], &s, 3).is_ok());
        assert!(check_exactly_once(&[tag(1), tag(3)], &s, 3).is_err(), "loss");
        assert!(
            check_exactly_once(&[tag(1), tag(2), tag(2), tag(3)], &s, 3).is_err(),
            "duplicate"
        );
        assert!(
            check_exactly_once(&[tag(2), tag(1), tag(3)], &s, 3).is_err(),
            "reorder"
        );
    }

    #[test]
    fn deterministic_scenarios_smoke() {
        // One of each fault family.
        for r in [
            kill_sink_fan_in(101, 40),
            kill_sender_fan_in(202, 40),
            corrupt_under_load(303, 200),
            stall_survivor_liveness(404, 25),
        ] {
            assert!(r.passed, "{}: {}", r.name, r.failure);
        }
    }
}
