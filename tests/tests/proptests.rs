//! Property-based tests over the core data structures and the analytic
//! model, driven by the seeded harness in `mproxy_tests::Rng` (each case
//! index seeds the generator, so every failure reproduces exactly).

use mproxy::{Asid, Cluster, ClusterSpec, ProcId};
use mproxy_des::{Dur, SimTime, Simulation, Tally};
use mproxy_model::link::{Parked, Reorder, Retention};
use mproxy_model::{get_latency, DesignPoint, MachineParams, MP1};
use mproxy_tests::Rng;
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn dur_arithmetic_is_consistent() {
    for case in 0..64u64 {
        let mut rng = Rng::new(case);
        let a = rng.below(1 << 40);
        let b = rng.below(1 << 40);
        let (da, db) = (Dur::from_ns(a), Dur::from_ns(b));
        assert_eq!(da + db, Dur::from_ns(a + b));
        assert_eq!((SimTime::ZERO + da + db) - db, SimTime::ZERO + da);
        assert_eq!(da - db, Dur::from_ns(a.saturating_sub(b)));
    }
}

#[test]
fn tally_merge_equals_combined_stream() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x7a11_0000 + case);
        let xs = rng.vec(0, 50, |r| r.f64_range(-1e6, 1e6));
        let ys = rng.vec(0, 50, |r| r.f64_range(-1e6, 1e6));
        let mut all = Tally::new();
        for &x in xs.iter().chain(&ys) {
            all.add(x);
        }
        let mut a = Tally::new();
        for &x in &xs {
            a.add(x);
        }
        let mut b = Tally::new();
        for &y in &ys {
            b.add(y);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.sum() - all.sum()).abs() < 1e-6);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }
}

#[test]
fn model_is_monotone_in_every_primitive() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x0de1_0000 + case);
        let c = rng.f64_range(0.1, 2.0);
        let s = rng.f64_range(1.0, 8.0);
        let l = rng.f64_range(0.1, 5.0);
        let base = MachineParams {
            cache_miss_us: c,
            speed: s,
            net_latency_us: l,
            ..MachineParams::G30
        };
        let g = get_latency().eval_uniform(&base);
        let worse_c = MachineParams {
            cache_miss_us: c * 1.5,
            ..base
        };
        let better_s = MachineParams {
            speed: s * 2.0,
            ..base
        };
        let worse_l = MachineParams {
            net_latency_us: l + 1.0,
            ..base
        };
        assert!(get_latency().eval_uniform(&worse_c) > g);
        assert!(get_latency().eval_uniform(&better_s) < g);
        assert!(get_latency().eval_uniform(&worse_l) > g);
    }
}

#[test]
fn simulator_tracks_analytic_model_on_random_machines() {
    for case in 0..12u64 {
        let mut rng = Rng::new(0x5100_0000 + case);
        let c = rng.pick(&[0.25f64, 0.5, 1.0, 1.5]);
        let s = rng.pick(&[1.0f64, 2.0, 4.0]);
        let machine = MachineParams::G30.with_cache_miss(c).with_speed(s);
        let point = DesignPoint {
            name: "prop",
            machine,
            shared_miss_us: c,
            ..MP1
        };
        let sim = mproxy::micro::run_micro(point).get_us;
        let model = get_latency().eval_uniform(&machine);
        let err = (sim - model).abs() / model;
        assert!(err < 0.10, "sim {sim:.2} vs model {model:.2} ({err:.1}%)");
    }
}

#[test]
fn put_then_get_reads_own_write() {
    for case in 0..12u64 {
        let mut rng = Rng::new(0x9e70_0000 + case);
        let words = rng.vec(1, 16, Rng::next_u64);
        let offset_words = rng.below(8);
        let sim = Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
        let ok = Rc::new(RefCell::new(false));
        let probe = Rc::clone(&ok);
        let words2 = words.clone();
        cluster.spawn_spmd(move |p| {
            let probe = Rc::clone(&probe);
            let words = words2.clone();
            async move {
                let n = words.len() as u64;
                let buf = p.alloc((offset_words + n + 16) * 8);
                p.ctx().yield_now().await;
                if p.rank() == ProcId(0) {
                    let f = p.new_flag();
                    for (i, w) in words.iter().enumerate() {
                        p.write_u64(buf.index(i as u64, 8), *w);
                    }
                    let raddr = buf.index(offset_words, 8);
                    p.put(buf, Asid(1), raddr, (n * 8) as u32, Some(&f), None)
                        .await
                        .unwrap();
                    p.wait_flag(&f, 1).await;
                    let back = buf.index(offset_words + n + 1, 8);
                    p.get(back, Asid(1), raddr, (n * 8) as u32, Some(&f), None)
                        .await
                        .unwrap();
                    p.wait_flag(&f, 2).await;
                    let all_match = words
                        .iter()
                        .enumerate()
                        .all(|(i, w)| p.read_u64(back.index(i as u64, 8)) == *w);
                    *probe.borrow_mut() = all_match;
                }
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
        assert!(*ok.borrow(), "PUT-then-GET must read back the written words");
    }
}

/// CRL exclusivity makes region increments atomic: under a random
/// assignment of increments to ranks and regions — with no barriers, so
/// requests genuinely contend — every region ends at its exact increment
/// count on every architecture.
#[test]
fn crl_increments_are_atomic_under_contention() {
    for case in 0..8u64 {
        let mut rng = Rng::new(0xc41_0000 + case);
        let plan: Vec<(u32, u32)> =
            rng.vec(1, 24, |r| (r.below(4) as u32, r.below(3) as u32));
        let hw = rng.coin();
        use mproxy_am::{Am, Coll};
        use mproxy_crl::{Crl, RegionId};
        let design = if hw { mproxy_model::HW1 } else { MP1 };
        let sim = Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(design, 4, 1)).unwrap();
        let plan = Rc::new(plan);
        let checked = Rc::new(RefCell::new(0usize));
        let probe = Rc::clone(&checked);
        let plan2 = Rc::clone(&plan);
        cluster.spawn_spmd(move |p| {
            let plan = Rc::clone(&plan2);
            let probe = Rc::clone(&probe);
            async move {
                let am = Am::new(&p);
                let crl = Crl::new(&p, &am);
                let coll = Coll::new(&p, Some(am));
                // Rank 0 homes three counter regions.
                if p.rank().0 == 0 {
                    for _ in 0..3 {
                        crl.create(8);
                    }
                }
                let regions: Vec<_> = (0..3)
                    .map(|idx| crl.map(RegionId { home: ProcId(0), idx }, 8))
                    .collect();
                p.ctx().yield_now().await;
                coll.barrier().await;
                for &(rank, region) in plan.iter() {
                    if rank == p.rank().0 {
                        let rgn = &regions[region as usize];
                        crl.start_write(rgn).await;
                        let v = p.read_u64(rgn.addr());
                        p.write_u64(rgn.addr(), v + 1);
                        crl.end_write(rgn).await;
                    }
                }
                coll.barrier().await;
                for (idx, rgn) in regions.iter().enumerate() {
                    crl.start_read(rgn).await;
                    let expect = plan.iter().filter(|&&(_, r)| r as usize == idx).count();
                    assert_eq!(p.read_u64(rgn.addr()), expect as u64);
                    crl.end_read(rgn).await;
                    *probe.borrow_mut() += 1;
                }
                coll.barrier().await;
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
        assert_eq!(*checked.borrow(), 12);
    }
}

/// The DES executor never moves time backwards and runs every task to
/// completion for arbitrary delay graphs.
#[test]
fn des_time_is_monotone_over_random_task_graphs() {
    for case in 0..32u64 {
        let mut rng = Rng::new(0xde50_0000 + case);
        let delays: Vec<Vec<u64>> = rng.vec(1, 12, |r| r.vec(1, 6, |r2| r2.below(5_000)));
        let sim = Simulation::new();
        let ctx = sim.ctx();
        let log = Rc::new(RefCell::new(Vec::new()));
        let max_end: u64 = delays
            .iter()
            .map(|d| d.iter().sum::<u64>())
            .max()
            .unwrap_or(0);
        for chain in delays {
            let ctx = ctx.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for d in chain {
                    ctx.delay(mproxy_des::Dur::from_ns(d)).await;
                    log.borrow_mut().push(ctx.now().as_ns());
                }
            });
        }
        let report = sim.run();
        assert!(report.completed_cleanly());
        assert_eq!(report.end.as_ns(), max_end);
        // Events were observed in nondecreasing time order.
        let log = log.borrow();
        assert!(
            log.windows(2).all(|w| w[0] <= w[1]),
            "time went backwards: {log:?}"
        );
    }
}

/// The sequencing core both link layers run on: whatever the wire does to
/// the packets of a `Retention` → `Reorder` pair — lose, duplicate,
/// corrupt, reorder — every item is delivered exactly once, in order; the
/// reorder buffer never spans more than its window; `missing()` names
/// exactly the undelivered sequences up to the highest one seen; and each
/// of those is still retained for the NACK that asks for it.
#[test]
fn link_core_delivers_exactly_once_in_order_over_a_hostile_wire() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x11c4_0000 + case);
        let (items, window) = (rng.range(1, 200), rng.range(1, 16) as usize);
        let mut tx: Retention<u64> = Retention::new();
        let mut rx: Reorder<u64> = Reorder::new(window);
        // In flight: `(seq, body)`, `None` a copy corrupted on the way.
        let mut wire: Vec<(u64, Option<u64>)> = Vec::new();
        let mut delivered = Vec::new();
        // The test's own view of the receiver: intact sequences parked,
        // and the highest sequence seen inside the window.
        let (mut parked, mut highest) = (std::collections::BTreeSet::new(), 0u64);
        let mut hostile = true;
        while tx.last() < items || !tx.is_empty() {
            // Once everything is sent the wire turns clean, so the run ends.
            hostile &= tx.last() < items;
            let send = |rng: &mut Rng, wire: &mut Vec<_>, seq: u64, item: u64| {
                let fate = if hostile { rng.below(8) } else { 7 };
                match fate {
                    0 => {}
                    1 => wire.push((seq, None)),
                    2 => wire.extend([(seq, Some(item)); 2]),
                    _ => wire.push((seq, Some(item))),
                }
            };
            match rng.below(4) {
                0 if tx.last() < items => {
                    let item = (tx.last() + 1) * 7;
                    let seq = tx.push(item);
                    send(&mut rng, &mut wire, seq, item);
                }
                // Retransmission: what the receiver's NACK would name, or
                // (the timer) the oldest retained item.
                0 | 1 => {
                    let mut resend = rx.missing();
                    if resend.is_empty() {
                        resend.extend(tx.iter().next().map(|(seq, _)| seq));
                    }
                    for seq in resend {
                        let item = *tx.get(seq).expect("an undelivered sequence is retained");
                        send(&mut rng, &mut wire, seq, item);
                    }
                }
                // An arrival, in any order.
                2 if !wire.is_empty() => {
                    let at = rng.below(wire.len() as u64) as usize;
                    let (seq, body) = wire.swap_remove(at);
                    if seq <= rx.delivered() {
                        continue; // duplicate
                    }
                    if seq - rx.delivered() <= window as u64 {
                        highest = highest.max(seq);
                    }
                    match body {
                        Some(item) if seq == rx.delivered() + 1 => {
                            delivered.push(item);
                            rx.advance();
                            delivered.extend(std::iter::from_fn(|| rx.next_ready()));
                        }
                        body => {
                            if rx.park(seq, body) == Parked::Held {
                                parked.insert(seq);
                            }
                        }
                    }
                }
                // The cumulative ack reaches the sender.
                _ => drop(tx.release(rx.delivered())),
            }
            assert!(rx.span() <= window, "case {case}: {} > {window}", rx.span());
            let want: Vec<u64> = (rx.delivered() + 1..=highest)
                .filter(|seq| !parked.contains(seq))
                .collect();
            assert_eq!(rx.missing(), want, "case {case}");
        }
        let sent: Vec<u64> = (1..=items).map(|seq| seq * 7).collect();
        assert_eq!(delivered, sent, "case {case}");
        assert_eq!((rx.delivered(), rx.span(), tx.acked()), (items, 0, items));
    }
}
