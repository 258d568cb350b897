//! Integration of the threaded runtime: mixed op streams, revocation at
//! run time, and an SPSC model-based property test.

use mproxy_rt::{spsc, FlagId, RqId, RtClusterBuilder, RtError};
use mproxy_tests::Rng;
use std::time::Duration;

#[test]
fn mixed_ops_across_three_nodes() {
    let mut b = RtClusterBuilder::new(3);
    let ids: Vec<u32> = (0..3).map(|n| b.add_process(n, 8192)).collect();
    let (cluster, mut eps) = b.start();
    let e2 = eps.pop().unwrap();
    let mut e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    // Ring of PUTs: 0 -> 1 -> 2, then a GET back, then ENQs.
    e0.seg().write_u64(0, 11);
    e0.put(0, ids[1], 0, 8, Some(FlagId(0)), Some(FlagId(0)));
    e0.wait_flag(FlagId(0), 1);
    e1.wait_flag(FlagId(0), 1);
    e1.put(0, ids[2], 0, 8, Some(FlagId(1)), Some(FlagId(0)));
    e1.wait_flag(FlagId(1), 1);
    e2.wait_flag(FlagId(0), 1);
    assert_eq!(e2.seg().read_u64(0), 11);
    e0.get(64, ids[2], 0, 8, Some(FlagId(3)));
    e0.wait_flag(FlagId(3), 1);
    assert_eq!(e0.seg().read_u64(64), 11);
    for i in 0..10u64 {
        e0.seg().write_u64(128, i);
        e0.enq(128, ids[2], RqId(1), 8, Some(FlagId(2)), None);
        e0.wait_flag(FlagId(2), i + 1);
    }
    let mut got = Vec::new();
    while got.len() < 10 {
        if let Some(v) = e2.rq_try_recv(RqId(1)) {
            got.push(u64::from_le_bytes(v[..].try_into().unwrap()));
        }
    }
    assert_eq!(got, (0..10).collect::<Vec<_>>());
    drop((e0, e1, e2));
    cluster.shutdown();
}

#[test]
fn revocation_takes_effect_mid_run() {
    let mut b = RtClusterBuilder::new(2);
    let p0 = b.add_process(0, 4096);
    let p1 = b.add_process(1, 4096);
    let (cluster, mut eps) = b.start();
    let e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    cluster.restrict();
    cluster.grant(p0, p1);
    e0.put(0, p1, 0, 8, None, Some(FlagId(0)));
    e1.wait_flag(FlagId(0), 1);
    cluster.revoke(p0, p1);
    let faults_before = e0.faults();
    e0.put(0, p1, 0, 8, None, Some(FlagId(0)));
    while e0.faults() == faults_before {
        std::hint::spin_loop();
    }
    assert_eq!(e1.flag(FlagId(0)), 1, "revoked put must not land");
    drop((e0, e1));
    cluster.shutdown();
}

/// Shutdown must complete even with a burst of operations still in
/// flight: surviving proxies drain their queues before exiting.
#[test]
fn shutdown_completes_with_inflight_ops() {
    let mut b = RtClusterBuilder::new(2);
    let _p0 = b.add_process(0, 8192);
    let p1 = b.add_process(1, 8192);
    let (cluster, mut eps) = b.start();
    let e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    // Fire-and-forget: no waits, endpoints dropped immediately after.
    for i in 0..200u64 {
        e0.seg().write_u64(0, i);
        e0.put(0, p1, 8 * (i % 64), 8, None, None);
        e0.enq(0, p1, RqId(0), 8, None, None);
    }
    drop((e0, e1));
    assert!(cluster.shutdown().clean(), "proxy died draining backlog");
}

/// A bounded flag wait on a flag nobody sets reports a timeout instead
/// of spinning forever, and the endpoint counts it.
#[test]
fn bounded_wait_reports_timeout() {
    let mut b = RtClusterBuilder::new(1);
    let _p0 = b.add_process(0, 4096);
    let (cluster, mut eps) = b.start();
    let e0 = eps.pop().unwrap();
    assert_eq!(e0.timeouts(), 0);
    let err = e0
        .wait_flag_timeout(FlagId(3), 5, Duration::from_millis(20))
        .unwrap_err();
    assert_eq!(
        err,
        RtError::Timeout {
            flag: 3,
            target: 5,
            observed: 0,
        }
    );
    assert_eq!(e0.timeouts(), 1);
    drop(e0);
    assert!(cluster.shutdown().clean());
}

/// The SPSC ring behaves exactly like a bounded FIFO against a model.
#[test]
fn spsc_matches_vecdeque_model() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5b5c_0000 + case);
        let ops = rng.vec(1, 200, Rng::coin);
        let cap = rng.range(1, 16) as usize;
        let (mut tx, mut rx) = spsc::channel(cap);
        let mut model = std::collections::VecDeque::new();
        let mut seq = 0u32;
        for push in ops {
            if push {
                let e = spsc::Entry {
                    op: seq,
                    args: [u64::from(seq); 4],
                    ..spsc::Entry::default()
                };
                let accepted = tx.try_send(e);
                assert_eq!(accepted, model.len() < cap);
                if accepted {
                    model.push_back(seq);
                    seq += 1;
                }
            } else {
                let got = rx.try_recv().map(|e| e.op);
                assert_eq!(got, model.pop_front());
            }
        }
        // Drain and compare the tails.
        while let Some(e) = rx.try_recv() {
            assert_eq!(Some(e.op), model.pop_front());
        }
        assert!(model.is_empty());
    }
}
