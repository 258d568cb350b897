//! # mproxy-rt — the message-proxy architecture on real threads
//!
//! The paper's design, a quarter century on, is the standard recipe of
//! DPDK, SPDK and seastar: dedicate a core to a *polling* communication
//! agent, talk to it through lock-free single-producer single-consumer
//! queues, never take an interrupt or a lock on the data path. This crate
//! is that system in miniature, structured exactly like Section 4's
//! implementation:
//!
//! * [`spsc`] — command queues whose only shared state is a full/empty
//!   flag per entry;
//! * [`ring`] — bounded lock-free rings for the rest of the data plane:
//!   one MPSC wire ring per node (peer proxies → pinned proxy) and SPSC
//!   reply rings (proxy → user process);
//! * [`idle`] — the shared idle policy (yield → park, no spin,
//!   with explicit wake on enqueue) every wait in the runtime uses;
//! * a proxy thread per node — and no other thread — running the
//!   Figure 5 loop in batched drains (ACKs coalesced per peer per batch),
//!   with the §4.1 shared ready-bit vector accelerating the idle scan;
//! * protected RMA (`put`/`get`) and remote queues (`enq`) between
//!   processes, every operand — asid grant, address ranges, flag and
//!   queue indices — checked once *in the sending proxy*;
//! * an in-process "network" of FIFO channels standing in for the SP
//!   switch adapter (see DESIGN.md's substitution notes);
//! * overload detection: each proxy samples its own busy fraction and
//!   flags violations of the paper's §5.4 stability rule (a proxy past
//!   50% utilisation has unbounded expected queueing delay); overload
//!   itself is backpressure — every queue is bounded, so an overloaded
//!   proxy slows the submitters behind it instead of discarding their
//!   operations;
//! * a sequenced, acknowledged **wire layer** between proxies whose unit
//!   is a *frame* of up to 32 operations — whatever one service phase
//!   addressed to one peer shares one sequence number, one retention
//!   slot and one ring push, and an operation alone leaves at once as a
//!   frame of one (cumulative acks, sender-side retention, a receiver
//!   reorder buffer and gap-naming NACKs: a lost frame costs one
//!   retransmit) making "an op whose `lsync` fired was applied exactly
//!   once" hold under packet loss, duplication, corruption and proxy
//!   crashes;
//! * [`fault`] — a seeded **fault injector**
//!   ([`RtClusterBuilder::fault_plan`]): per-packet drop / duplicate /
//!   corrupt verdicts plus injected proxy stalls and kills, sharing its
//!   deterministic fate core with the simulator's `simnet::FaultPlan`;
//! * proxy **supervision** ([`RtClusterBuilder::supervise`]): a dead
//!   proxy restarts itself in place, against the node's surviving
//!   protocol state and with no message to its peers (a kill is a
//!   pause), under a restart budget with exponential backoff;
//!   crash-looping nodes are *condemned* and reported through
//!   [`RtError::ProxyDown`] and the deadline-bounded
//!   [`RtCluster::shutdown`]'s [`ShutdownReport`].
//!
//! Provisioning is the paper's: one proxy per node, so a proxy past its
//! §5.4 bound is relieved by declaring more nodes
//! ([`RtClusterBuilder::new`]) and spreading the processes over them.
//!
//! # Examples
//!
//! ```
//! use mproxy_rt::{FlagId, RtClusterBuilder};
//!
//! let mut b = RtClusterBuilder::new(2);
//! let p0 = b.add_process(0, 4096);
//! let p1 = b.add_process(1, 4096);
//! let (cluster, mut eps) = b.start();
//! let mut e1 = eps.pop().unwrap();
//! let mut e0 = eps.pop().unwrap();
//! assert_eq!((e0.asid(), e1.asid()), (p0, p1));
//!
//! // PUT 8 bytes from process 0 into process 1's segment and wait for
//! // the acknowledgement.
//! e0.seg().write_u64(0, 42);
//! e0.put(0, p1, 128, 8, Some(FlagId(0)), None);
//! e0.wait_flag(FlagId(0), 1);
//! assert_eq!(e1.seg().read_u64(128), 42);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cluster;
mod endpoint;
pub mod fault;
pub mod idle;
mod load;
mod mem;
mod proxy;
pub mod ring;
pub mod spsc;
mod state;
mod wire;

pub use builder::RtClusterBuilder;
pub use cluster::{
    ProxyPanic, RtCluster, ShutdownReport, CMDQ_DEPTH, NUM_FLAGS, NUM_QUEUES, RQ_DEPTH, WIRE_DEPTH,
};
pub use endpoint::{Endpoint, FlagId, RqId, RtError};
pub use fault::{RtFaultCounts, RtFaultPlan, RtKill, RtStall};
pub use mem::Segment;
pub use mproxy_obs as obs;

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_pair() -> (RtCluster, Endpoint, Endpoint) {
        let mut b = RtClusterBuilder::new(2);
        let _p0 = b.add_process(0, 1 << 16);
        let _p1 = b.add_process(1, 1 << 16);
        let (cluster, mut eps) = b.start();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        (cluster, e0, e1)
    }

    #[test]
    fn put_reaches_remote_segment() {
        let (cluster, mut e0, e1) = two_node_pair();
        e0.seg().write_u64(0, 2.75f64.to_bits());
        e0.put(0, e1.asid(), 64, 8, Some(FlagId(0)), Some(FlagId(1)));
        e0.wait_flag(FlagId(0), 1);
        assert_eq!(f64::from_bits(e1.seg().read_u64(64)), 2.75);
        assert_eq!(e1.flag(FlagId(1)), 1);
        cluster.shutdown();
    }

    #[test]
    fn get_fetches_remote_data() {
        let (cluster, mut e0, e1) = two_node_pair();
        e1.seg().write_u64(256, 0xabcd);
        let dst = e1.asid();
        e0.get(8, dst, 256, 8, Some(FlagId(0)));
        e0.wait_flag(FlagId(0), 1);
        assert_eq!(e0.seg().read_u64(8), 0xabcd);
        cluster.shutdown();
    }

    #[test]
    fn enq_lands_in_remote_queue() {
        let (cluster, mut e0, e1) = two_node_pair();
        e0.seg().write(0, b"ping!");
        e0.enq(0, e1.asid(), RqId(2), 5, Some(FlagId(3)), Some(FlagId(4)));
        e0.wait_flag(FlagId(3), 1);
        e1.wait_flag(FlagId(4), 1);
        assert_eq!(&e1.rq_try_recv(RqId(2)).unwrap()[..], b"ping!");
        assert!(e1.rq_try_recv(RqId(2)).is_none());
        cluster.shutdown();
    }

    /// Every op arriving after the yield phase meets parked proxies: the
    /// submission wakes the sender's, the frame the receiver's.
    #[test]
    fn ops_separated_by_idle_gaps_wake_parked_proxies_and_apply_once() {
        use std::time::{Duration, Instant};
        const ROUNDS: u64 = 8;
        let (cluster, mut e0, e1) = two_node_pair();
        let dst = e1.asid();
        let both_parked = || {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !cluster.shared.parkers.iter().all(|p| p.is_parked()) {
                assert!(Instant::now() < deadline, "a proxy never parked");
                std::thread::sleep(Duration::from_micros(200));
            }
        };
        let wait = |e: &Endpoint, f, n| {
            e.wait_flag_timeout(FlagId(f), n, Duration::from_secs(10))
                .unwrap_or_else(|err| panic!("flag {f}: {err}"));
        };
        for round in 1..=ROUNDS {
            both_parked();
            e0.seg().write_u64(0, round);
            e0.put(0, dst, 64, 8, Some(FlagId(0)), Some(FlagId(1)));
            wait(&e0, 0, round);
            assert_eq!((e1.seg().read_u64(64), e1.flag(FlagId(1))), (round, round));
            both_parked();
            e1.seg().write_u64(128, round * 10);
            e0.get(8, dst, 128, 8, Some(FlagId(2)));
            wait(&e0, 2, round);
            assert_eq!(e0.seg().read_u64(8), round * 10);
            both_parked();
            let word = (round * 100).to_le_bytes();
            e0.seg().write(16, &word);
            e0.enq(16, dst, RqId(0), 8, Some(FlagId(3)), Some(FlagId(4)));
            wait(&e0, 3, round);
            assert_eq!(e1.flag(FlagId(4)), round);
            assert_eq!(e1.rq_try_recv(RqId(0)).as_deref(), Some(&word[..]));
            assert!(e1.rq_try_recv(RqId(0)).is_none(), "ENQ applied twice");
        }
        let flags = |e: &Endpoint, fs: &[u32]| -> Vec<u64> {
            fs.iter().map(|&f| e.flag(FlagId(f))).collect()
        };
        assert_eq!(flags(&e0, &[0, 2, 3]), [ROUNDS; 3]);
        assert_eq!(flags(&e1, &[1, 4]), [ROUNDS; 2]);
        assert_eq!((e0.timeouts(), e0.faults()), (0, 0));
        let report = cluster.shutdown();
        assert!(report.clean() && report.restarts == 0, "{report:?}");
    }

    #[test]
    fn protection_faults_denied_access() {
        let (cluster, mut e0, e1) = two_node_pair();
        cluster.restrict();
        e0.seg().write_u64(0, 7);
        e0.put(0, e1.asid(), 0, 8, None, Some(FlagId(0)));
        // The op is dropped; wait until the fault is visible.
        let mut backoff = idle::Backoff::new();
        while e0.faults() == 0 {
            backoff.snooze();
        }
        assert_eq!(e1.flag(FlagId(0)), 0, "no data may land");
        // Grant and retry.
        cluster.grant(e0.asid(), e1.asid());
        e0.put(0, e1.asid(), 0, 8, None, Some(FlagId(0)));
        e1.wait_flag(FlagId(0), 1);
        assert_eq!(e1.seg().read_u64(0), 7);
        // Revoked mid-run: the next PUT faults and does not land.
        cluster.revoke(e0.asid(), e1.asid());
        e0.seg().write_u64(0, 9);
        e0.put(0, e1.asid(), 0, 8, None, Some(FlagId(0)));
        while e0.faults() == 1 {
            backoff.snooze();
        }
        assert_eq!(e0.faults(), 2);
        assert_eq!((e1.seg().read_u64(0), e1.flag(FlagId(0))), (7, 1));
        cluster.shutdown();
    }

    #[test]
    fn out_of_bounds_put_faults() {
        let (cluster, mut e0, e1) = two_node_pair();
        let huge = e1.seg().size() as u64;
        // Both ranges are checked at the sending proxy: an out-of-bounds
        // remote address faults like an out-of-bounds local one, and
        // neither operation's flags fire.
        e0.put(0, e1.asid(), huge, 8, Some(FlagId(1)), Some(FlagId(0)));
        e0.put(u64::MAX, e1.asid(), 0, 8, Some(FlagId(1)), None);
        // A PUT behind them in the same queue: once it is acknowledged,
        // the proxy has handled both.
        e0.put(0, e1.asid(), 0, 8, Some(FlagId(2)), None);
        e0.wait_flag(FlagId(2), 1);
        assert_eq!(e0.faults(), 2);
        assert_eq!((e0.flag(FlagId(1)), e1.flag(FlagId(0))), (0, 0));
        cluster.shutdown();
    }

    #[test]
    fn many_processes_share_one_proxy() {
        // Four processes on one node, all PUT into process 0's segment.
        let mut b = RtClusterBuilder::new(1);
        for _ in 0..4 {
            b.add_process(0, 4096);
        }
        let (cluster, mut eps) = b.start();
        let mut rest = eps.split_off(1);
        let e0 = eps.pop().unwrap();
        for (i, e) in rest.iter_mut().enumerate() {
            e.seg().write_u64(0, 100 + i as u64);
            e.put(0, 0, 64 * (i as u64 + 1), 8, None, Some(FlagId(0)));
        }
        e0.wait_flag(FlagId(0), 3);
        for i in 0..3 {
            assert_eq!(e0.seg().read_u64(64 * (i + 1)), 100 + i);
        }
        assert!(cluster.ops_serviced(0) >= 3);
        cluster.shutdown();
    }

    #[test]
    fn pingpong_many_rounds() {
        let (cluster, mut e0, mut e1) = two_node_pair();
        let rounds = 200u64;
        let a1 = e1.asid();
        let a0 = e0.asid();
        let t = std::thread::spawn(move || {
            for i in 1..=rounds {
                e1.wait_flag(FlagId(0), i);
                let v = e1.seg().read_u64(0);
                e1.seg().write_u64(8, v + 1);
                e1.put(8, a0, 0, 8, None, Some(FlagId(0)));
            }
            e1
        });
        for i in 1..=rounds {
            e0.seg().write_u64(8, i * 10);
            e0.put(8, a1, 0, 8, None, Some(FlagId(0)));
            e0.wait_flag(FlagId(0), i);
            assert_eq!(e0.seg().read_u64(0), i * 10 + 1);
        }
        let _e1 = t.join().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn alloc_is_bump_and_bounded() {
        let mut b = RtClusterBuilder::new(1);
        b.add_process(0, 256);
        let (cluster, mut eps) = b.start();
        let mut e = eps.pop().unwrap();
        let a = e.alloc(10);
        let b2 = e.alloc(10);
        assert_eq!(a, 0);
        assert_eq!(b2, 64);
        cluster.shutdown();
    }
}
