//! Protection semantics across the whole stack: per-asid grants, faults,
//! and revocation — on every architecture (the property the paper's title
//! promises) — malformed DEQs, and the same malformed PUTs and GETs
//! rejected alike by the simulator and the threaded runtime.

use mproxy::{Addr, Asid, Cluster, ClusterSpec, CommError, ProcId, RemoteQueue};
use mproxy_des::Simulation;
use mproxy_model::{ALL_DESIGN_POINTS, MP1};
use mproxy_rt::{FlagId, RtClusterBuilder, NUM_FLAGS};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

#[test]
fn ungranted_access_is_denied_on_every_architecture() {
    for d in ALL_DESIGN_POINTS {
        let sim = Simulation::new();
        let mut spec = ClusterSpec::new(d, 2, 1);
        spec.allow_all = false;
        let cluster = Cluster::new(&sim.ctx(), spec).unwrap();
        let outcome = Rc::new(RefCell::new(Vec::new()));
        let probe = Rc::clone(&outcome);
        cluster.spawn_spmd(move |p| {
            let probe = Rc::clone(&probe);
            async move {
                let buf = p.alloc(8);
                p.ctx().yield_now().await;
                if p.rank() == ProcId(0) {
                    let r = p.put(buf, Asid(1), buf, 8, None, None).await;
                    probe.borrow_mut().push(r);
                    let r = p.get(buf, Asid(1), buf, 8, None, None).await;
                    probe.borrow_mut().push(r);
                }
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
        for r in outcome.borrow().iter() {
            assert!(
                matches!(r, Err(CommError::PermissionDenied { .. })),
                "{}: expected denial, got {r:?}",
                d.name
            );
        }
        assert_eq!(cluster.proc_stats(ProcId(0)).faults, 2, "{}", d.name);
    }
}

#[test]
fn grant_enables_then_revoke_disables() {
    for d in ALL_DESIGN_POINTS {
        let sim = Simulation::new();
        let mut spec = ClusterSpec::new(d, 2, 1);
        spec.allow_all = false;
        let cluster = Rc::new(Cluster::new(&sim.ctx(), spec).unwrap());
        cluster.grant(ProcId(0), Asid(1));
        let after_revoke = Rc::new(RefCell::new(None));
        let (probe, grants) = (Rc::clone(&after_revoke), Rc::clone(&cluster));
        cluster.spawn_spmd(move |p| {
            let (probe, grants) = (Rc::clone(&probe), Rc::clone(&grants));
            async move {
                let buf = p.alloc(8);
                let f = p.new_flag();
                p.ctx().yield_now().await;
                if p.rank() == ProcId(0) {
                    p.put(buf, Asid(1), buf, 8, Some(&f), None).await.unwrap();
                    p.wait_flag(&f, 1).await;
                    // Revocation takes effect for the next operation.
                    grants.revoke(ProcId(0), Asid(1));
                    let r = p.put(buf, Asid(1), buf, 8, None, None).await;
                    *probe.borrow_mut() = Some(r);
                }
            }
        });
        assert!(cluster.run(&sim).completed_cleanly(), "{}", d.name);
        assert_eq!(
            after_revoke.borrow_mut().take(),
            Some(Err(CommError::PermissionDenied {
                src: ProcId(0),
                target: Asid(1),
            })),
            "{}: the PUT after the revoke",
            d.name
        );
        assert_eq!(cluster.proc_stats(ProcId(0)).faults, 1, "{}", d.name);
    }
}

#[test]
fn out_of_bounds_remote_address_rejected() {
    let sim = Simulation::new();
    let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
    let saw = Rc::new(RefCell::new(None));
    let probe = Rc::clone(&saw);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(8);
            p.ctx().yield_now().await;
            if p.rank() == ProcId(0) {
                let r = p
                    .put(buf, Asid(1), mproxy::Addr(1 << 40), 8, None, None)
                    .await;
                *probe.borrow_mut() = Some(r);
            }
        }
    });
    assert!(cluster.run(&sim).completed_cleanly());
    assert!(matches!(
        saw.borrow().as_ref().unwrap(),
        Err(CommError::OutOfBounds { .. })
    ));
}

#[test]
fn zero_byte_transfers_rejected() {
    let sim = Simulation::new();
    let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
    let saw = Rc::new(RefCell::new(None));
    let probe = Rc::clone(&saw);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(8);
            p.ctx().yield_now().await;
            if p.rank().0 == 0 {
                *probe.borrow_mut() = Some(p.put(buf, Asid(1), buf, 0, None, None).await);
            }
        }
    });
    assert!(cluster.run(&sim).completed_cleanly());
    assert!(matches!(
        saw.borrow().as_ref().unwrap(),
        Err(CommError::EmptyTransfer)
    ));
}

/// One malformed DEQ from process 0: its queue's owner, whether process
/// 0 holds a grant, whether its local buffer lies past its segment, its
/// length, and what the simulator's `Proc::deq` must return and count.
/// The runtime has no remote DEQ (a process dequeues its own queues), so
/// only the simulator is asked.
struct BadDeq {
    what: &'static str,
    owner: u32,
    granted: bool,
    beyond: bool,
    nbytes: u32,
    verdict: fn(&CommError) -> bool,
    faults: u64,
}

#[test]
fn malformed_deqs_are_rejected() {
    let ok = BadDeq {
        what: "",
        owner: 1,
        granted: true,
        beyond: false,
        nbytes: 8,
        verdict: |_| false,
        faults: 0,
    };
    let rows = [
        BadDeq {
            what: "zero bytes",
            nbytes: 0,
            verdict: |e| matches!(e, CommError::EmptyTransfer),
            ..ok
        },
        BadDeq {
            what: "unknown asid",
            owner: 7,
            verdict: |e| matches!(e, CommError::UnknownAsid(Asid(7))),
            ..ok
        },
        BadDeq {
            what: "not granted",
            granted: false,
            verdict: |e| matches!(e, CommError::PermissionDenied { .. }),
            faults: 1,
            ..ok
        },
        BadDeq {
            what: "laddr out of bounds",
            beyond: true,
            verdict: |e| matches!(e, CommError::OutOfBounds { .. }),
            ..ok
        },
    ];
    for c in rows {
        let sim = Simulation::new();
        let mut spec = ClusterSpec::new(MP1, 2, 1);
        spec.allow_all = c.granted;
        let cluster = Cluster::new(&sim.ctx(), spec).unwrap();
        let saw = Rc::new(RefCell::new(None));
        let probe = Rc::clone(&saw);
        let (owner, beyond, nbytes) = (ProcId(c.owner), c.beyond, c.nbytes);
        cluster.spawn_spmd(move |p| {
            let probe = Rc::clone(&probe);
            async move {
                let buf = p.alloc(8);
                let rq = p.new_queue();
                p.ctx().yield_now().await;
                if p.rank() == ProcId(0) {
                    let laddr = if beyond { Addr(1 << 40) } else { buf };
                    let q = RemoteQueue { proc: owner, rq };
                    *probe.borrow_mut() = Some(p.deq(laddr, q, nbytes, None).await);
                }
            }
        });
        assert!(cluster.run(&sim).completed_cleanly(), "{}", c.what);
        let verdict = saw.borrow_mut().take().expect("process 0 ran");
        assert!(
            verdict.as_ref().is_err_and(c.verdict),
            "DEQ {}: the simulator returned {verdict:?}",
            c.what
        );
        let faults = cluster.proc_stats(ProcId(0)).faults;
        assert_eq!(faults, c.faults, "DEQ {}: faults", c.what);
    }
}

/// Where a command's local or remote range lies in its segment.
#[derive(Debug, Clone, Copy)]
enum Range {
    Inside,
    Beyond,
    /// Its end wraps `u64`.
    Wrapping,
}

/// One malformed PUT or GET from process 0 to process 1.
struct Malformed {
    what: &'static str,
    get: bool,
    granted: bool,
    local: Range,
    remote: Range,
    nbytes: u32,
    /// Runtime flag indices (the lsync is process 0's, the rsync process
    /// 1's; a GET takes no rsync).
    lsync: u32,
    rsync: u32,
    /// The simulator's verdict, or `None` where it cannot take the
    /// command: its flags are typed handles, so no index is out of range.
    sim: Option<fn(&CommError) -> bool>,
}

const LSYNC: u32 = 1;
const RSYNC: u32 = 1;

/// An otherwise valid 8-byte command the simulator is not asked about.
const fn case(what: &'static str, get: bool) -> Malformed {
    Malformed {
        what,
        get,
        granted: true,
        local: Range::Inside,
        remote: Range::Inside,
        nbytes: 8,
        lsync: LSYNC,
        rsync: RSYNC,
        sim: None,
    }
}

fn malformed_commands() -> Vec<Malformed> {
    let mut rows = Vec::new();
    for get in [false, true] {
        rows.extend([
            Malformed {
                granted: false,
                sim: Some(|e| matches!(e, CommError::PermissionDenied { .. })),
                ..case("not granted", get)
            },
            Malformed {
                local: Range::Beyond,
                sim: Some(|e| matches!(e, CommError::OutOfBounds { .. })),
                ..case("laddr out of bounds", get)
            },
            Malformed {
                remote: Range::Beyond,
                sim: Some(|e| matches!(e, CommError::OutOfBounds { .. })),
                ..case("raddr out of bounds", get)
            },
            Malformed {
                nbytes: 0,
                sim: Some(|e| matches!(e, CommError::EmptyTransfer)),
                ..case("zero bytes", get)
            },
            Malformed {
                local: Range::Wrapping,
                sim: Some(|e| matches!(e, CommError::OutOfBounds { .. })),
                ..case("wrapping laddr + nbytes", get)
            },
            Malformed {
                remote: Range::Wrapping,
                sim: Some(|e| matches!(e, CommError::OutOfBounds { .. })),
                ..case("wrapping raddr + nbytes", get)
            },
        ]);
        for lsync in [NUM_FLAGS as u32, 1000, u32::MAX] {
            rows.push(Malformed {
                lsync,
                ..case("lsync past the last flag", get)
            });
        }
    }
    // `u32::MAX` is the index whose `+ 1` in the packed sync word would
    // carry into the lsync half and name the sender's own flag 0.
    for rsync in [NUM_FLAGS as u32, 1000, u32::MAX] {
        rows.push(Malformed {
            rsync,
            ..case("rsync past the last flag", false)
        });
    }
    rows
}

/// What the simulator's `Proc::put` / `Proc::get` return for `c`.
fn simulator_verdict(c: &Malformed) -> Result<(), CommError> {
    let sim = Simulation::new();
    let mut spec = ClusterSpec::new(MP1, 2, 1);
    spec.allow_all = c.granted;
    let cluster = Cluster::new(&sim.ctx(), spec).unwrap();
    let saw = Rc::new(RefCell::new(None));
    let probe = Rc::clone(&saw);
    let (get, local, remote, nbytes) = (c.get, c.local, c.remote, c.nbytes);
    cluster.spawn_spmd(move |p| {
        let probe = Rc::clone(&probe);
        async move {
            let buf = p.alloc(8);
            p.ctx().yield_now().await;
            if p.rank() == ProcId(0) {
                let at = |r| match r {
                    Range::Inside => buf,
                    Range::Beyond => Addr(1 << 40),
                    Range::Wrapping => Addr(u64::MAX - 3),
                };
                let (l, r) = (at(local), at(remote));
                let verdict = if get {
                    p.get(l, Asid(1), r, nbytes, None, None).await
                } else {
                    p.put(l, Asid(1), r, nbytes, None, None).await
                };
                *probe.borrow_mut() = Some(verdict);
            }
        }
    });
    assert!(cluster.run(&sim).completed_cleanly(), "{}", c.what);
    let verdict = saw.borrow_mut().take();
    verdict.expect("process 0 ran")
}

/// Submits `c` to a two-node runtime and checks that its proxy rejected
/// it: one fault, nothing applied on either side, no flag fired, and
/// no proxy died.
fn runtime_rejects(c: &Malformed) {
    const SIZE: usize = 4096;
    const FENCE: u32 = 2;
    let mut b = RtClusterBuilder::new(2);
    let p0 = b.add_process(0, SIZE);
    let p1 = b.add_process(1, SIZE);
    let (cluster, mut eps) = b.start();
    let e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    if !c.granted {
        cluster.restrict();
    }
    e0.seg().write(0, &[0xa0; SIZE]);
    e1.seg().write(0, &[0xb1; SIZE]);
    let at = |r| match r {
        Range::Inside => 0,
        Range::Beyond => 1 << 40,
        Range::Wrapping => u64::MAX - 3,
    };
    let (l, r, lsync) = (at(c.local), at(c.remote), Some(FlagId(c.lsync)));
    if c.get {
        e0.get(l, p1, r, c.nbytes, lsync);
    } else {
        e0.put(l, p1, r, c.nbytes, lsync, Some(FlagId(c.rsync)));
    }
    // A PUT of process 0's first word onto itself, behind the command in
    // the same queue: once it completes, the proxy has handled both.
    e0.put(0, p0, 0, 8, Some(FlagId(FENCE)), None);
    e0.wait_flag_timeout(FlagId(FENCE), 1, Duration::from_secs(10))
        .unwrap_or_else(|err| panic!("{}: {err}", c.what));
    assert_eq!(e0.faults(), 1, "{}: one fault", c.what);
    let report = cluster.shutdown();
    assert!(
        report.clean() && report.restarts == 0,
        "{}: {report:?}",
        c.what
    );
    assert!(
        e0.seg().read(0, SIZE).iter().all(|&b| b == 0xa0),
        "{}",
        c.what
    );
    assert!(
        e1.seg().read(0, SIZE).iter().all(|&b| b == 0xb1),
        "{}",
        c.what
    );
    let flags = |e: &mproxy_rt::Endpoint| -> Vec<u64> {
        (0..NUM_FLAGS as u32).map(|f| e.flag(FlagId(f))).collect()
    };
    let mut fence_only = vec![0; NUM_FLAGS];
    fence_only[FENCE as usize] = 1;
    assert_eq!(
        flags(&e0),
        fence_only,
        "{}: a flag of process 0 fired",
        c.what
    );
    assert_eq!(
        flags(&e1),
        vec![0; NUM_FLAGS],
        "{}: a flag of process 1 fired",
        c.what
    );
}

#[test]
fn malformed_commands_are_rejected_alike_by_simulator_and_runtime() {
    for c in malformed_commands() {
        let op = if c.get { "GET" } else { "PUT" };
        if let Some(expected) = c.sim {
            let verdict = simulator_verdict(&c);
            assert!(
                verdict.as_ref().is_err_and(expected),
                "{op} {}: the simulator returned {verdict:?}",
                c.what
            );
        }
        runtime_rejects(&c);
    }
}
