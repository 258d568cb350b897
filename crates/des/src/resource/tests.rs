//! Resource holds, queues and accounting.

use super::*;
use crate::Simulation;
use std::cell::Cell;
use std::future::poll_fn;
use std::pin::pin;

#[test]
fn serializes_on_single_unit_fifo() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let r = Resource::new(&ctx, 1);
    let order = Rc::new(RefCell::new(Vec::new()));
    for i in 0..3 {
        let r = r.clone();
        let order = Rc::clone(&order);
        let ctx = ctx.clone();
        sim.spawn(async move {
            r.hold(Dur::from_us(10.0)).await;
            order.borrow_mut().push((i, ctx.now().as_us()));
        });
    }
    assert!(sim.run().completed_cleanly());
    assert_eq!(*order.borrow(), vec![(0, 10.0), (1, 20.0), (2, 30.0)]);
}

#[test]
fn parallel_capacity_two() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let r = Resource::new(&ctx, 2);
    for _ in 0..4 {
        let r = r.clone();
        sim.spawn(async move { r.hold(Dur::from_us(5.0)).await });
    }
    let report = sim.run();
    assert_eq!(report.end.as_us(), 10.0);
}

#[test]
fn utilization_and_queue_stats() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let r = Resource::new(&ctx, 1);
    for _ in 0..2 {
        let r = r.clone();
        sim.spawn(async move { r.hold(Dur::from_us(10.0)).await });
    }
    // One idle task stretches the sim to 40 µs so utilisation is 50 %.
    let ctx2 = ctx.clone();
    sim.spawn(async move { ctx2.delay(Dur::from_us(40.0)).await });
    sim.run();
    let end = ctx.now();
    assert!((r.utilization(end) - 0.5).abs() < 1e-9);
    assert_eq!(r.acquisitions(), 2);
    // The second acquirer queued behind the first: one unit, busy
    // 20 µs in a row.
    assert_eq!(r.busy_us(end), 20.0);
}

#[test]
fn guard_release_is_idempotent_with_drop() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let r = Resource::new(&ctx, 1);
    let r2 = r.clone();
    let ok = Rc::new(Cell::new(false));
    let ok2 = Rc::clone(&ok);
    sim.spawn(async move {
        let g = r2.acquire().await;
        g.release();
        let g2 = r2.acquire().await; // available again immediately
        drop(g2);
        ok2.set(true);
    });
    assert!(sim.run().completed_cleanly());
    assert!(ok.get());
    assert_eq!(r.in_use(), 0);
}

/// Every task shares one `Resource` handle, so the shared state's
/// reference count must read 1 wherever it is sampled: a granted hold,
/// a queued request or a dropped one that took a reference of its own
/// would lift it.
#[test]
fn holds_and_waits_take_no_reference() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let r = Rc::new(Resource::new(&ctx, 2));
    let peak = Rc::new(Cell::new(0));
    let granted = Rc::new(RefCell::new(Vec::new()));
    let sample = |r: &Resource, peak: &Cell<usize>| {
        peak.set(peak.get().max(Rc::strong_count(&r.state)));
    };
    // Two holders take both units at t = 0; the first releases
    // explicitly at 10 µs, the second by drop at 20 µs.
    for (name, us) in [("h1", 10.0), ("h2", 20.0)] {
        let (r, peak, granted) = (Rc::clone(&r), Rc::clone(&peak), Rc::clone(&granted));
        let ctx = ctx.clone();
        sim.spawn(async move {
            let g = r.acquire().await;
            granted.borrow_mut().push((name, ctx.now().as_us()));
            sample(&r, &peak);
            ctx.delay(Dur::from_us(us)).await;
            sample(&r, &peak);
            g.release();
        });
    }
    // A waiter queued first and dropped at 5 µs, still waiting.
    {
        let (r, peak, ctx) = (Rc::clone(&r), Rc::clone(&peak), ctx.clone());
        sim.spawn(async move {
            let mut acq = pin!(r.acquire());
            poll_fn(|cx| {
                assert!(acq.as_mut().poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            sample(&r, &peak);
            ctx.delay(Dur::from_us(5.0)).await;
        });
    }
    // A waiter queued behind it: next in line once it is gone.
    {
        let (r, peak, granted) = (Rc::clone(&r), Rc::clone(&peak), Rc::clone(&granted));
        let ctx = ctx.clone();
        sim.spawn(async move {
            let g = r.acquire().await;
            granted.borrow_mut().push(("w", ctx.now().as_us()));
            sample(&r, &peak);
            ctx.delay(Dur::from_us(5.0)).await;
            drop(g);
        });
    }
    let report = sim.run();
    assert!(report.completed_cleanly());
    assert_eq!(report.end.as_us(), 20.0);
    assert_eq!(
        *granted.borrow(),
        vec![("h1", 0.0), ("h2", 0.0), ("w", 10.0)]
    );
    assert_eq!(peak.get(), 1);
    assert_eq!(Rc::strong_count(&r.state), 1);
    assert_eq!((r.acquisitions(), r.in_use()), (3, 0));
    // Two units busy to 15 µs, one to 20 µs: 35 of 40 unit-µs.
    assert_eq!(r.busy_us(ctx.now()), 35.0);
    assert!((r.utilization(ctx.now()) - 0.875).abs() < 1e-9);
}

#[test]
fn zero_length_hold_counts_an_acquisition_and_schedules_no_event() {
    let sim = Simulation::new();
    let r = Resource::new(&sim.ctx(), 1);
    let r2 = r.clone();
    sim.spawn(async move { r2.hold(Dur::ZERO).await });
    let report = sim.run();
    assert!(report.completed_cleanly());
    assert_eq!(report.events, 0);
    assert_eq!((r.acquisitions(), r.in_use()), (1, 0));
    assert_eq!(r.busy_us(sim.now()), 0.0);
}

#[test]
fn hold_dropped_while_queued_leaves_the_queue() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let r = Rc::new(Resource::new(&ctx, 1));
    let served = Rc::new(Cell::new(0.0));
    {
        let r = Rc::clone(&r);
        sim.spawn(async move { r.hold(Dur::from_us(10.0)).await });
    }
    // Queues a hold behind the first, then drops it at 4 µs.
    {
        let (r, ctx) = (Rc::clone(&r), ctx.clone());
        sim.spawn(async move {
            {
                let mut hold = pin!(r.hold(Dur::from_us(50.0)));
                poll_fn(|cx| {
                    assert!(hold.as_mut().poll(cx).is_pending());
                    Poll::Ready(())
                })
                .await;
                assert_eq!(r.state.borrow().queue.len(), 1);
                ctx.delay(Dur::from_us(4.0)).await;
            }
            // Only the hold queued behind it is left.
            assert_eq!(r.state.borrow().queue.len(), 1);
        });
    }
    {
        let (r, ctx, served) = (Rc::clone(&r), ctx.clone(), Rc::clone(&served));
        sim.spawn(async move {
            r.hold(Dur::from_us(5.0)).await;
            served.set(ctx.now().as_us());
        });
    }
    let report = sim.run();
    assert!(report.completed_cleanly());
    assert_eq!(served.get(), 15.0);
    assert_eq!((r.acquisitions(), r.in_use()), (2, 0));
    assert_eq!(r.busy_us(ctx.now()), 15.0);
}

/// A holder dropped 3 µs into a 10 µs hold, with a 5 µs hold queued
/// behind it: `(waiter done, run end, events, busy µs)`, by `Hold` or
/// by an acquired guard held across a `Delay`.
fn drop_mid_hold(via_hold: bool) -> (f64, f64, u64, f64) {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let r = Rc::new(Resource::new(&ctx, 1));
    let done = Rc::new(Cell::new(0.0));
    {
        let (r, ctx) = (Rc::clone(&r), ctx.clone());
        sim.spawn(async move {
            let d = Dur::from_us(10.0);
            let mut holding: Pin<Box<dyn Future<Output = ()> + '_>> = if via_hold {
                Box::pin(r.hold(d))
            } else {
                Box::pin(async {
                    let _g = r.acquire().await;
                    ctx.delay(d).await;
                })
            };
            poll_fn(|cx| {
                assert!(holding.as_mut().poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            assert_eq!(r.in_use(), 1);
            ctx.delay(Dur::from_us(3.0)).await;
        });
    }
    {
        let (r, ctx, done) = (Rc::clone(&r), ctx.clone(), Rc::clone(&done));
        sim.spawn(async move {
            r.hold(Dur::from_us(5.0)).await;
            done.set(ctx.now().as_us());
        });
    }
    let report = sim.run();
    assert!(report.completed_cleanly());
    assert_eq!((r.acquisitions(), r.in_use()), (2, 0));
    (
        done.get(),
        report.end.as_us(),
        report.events,
        r.busy_us(ctx.now()),
    )
}

#[test]
fn hold_dropped_while_holding_hands_its_unit_to_the_next_waiter() {
    let by_hold = drop_mid_hold(true);
    // Served at the drop, 3 µs; the dropped hold's wake at 10 µs still
    // fires (and is ignored), as a dropped `Delay`'s did.
    assert_eq!(by_hold, (8.0, 10.0, 3, 8.0));
    assert_eq!(by_hold, drop_mid_hold(false));
}

/// Unit-ns integral of the holds `[start, end)` over `[0, t]`, summed
/// in `f64` one change of the in-use count at a time.
fn float_integral(spans: &[(u64, u64)], t: u64) -> f64 {
    let mut changes: Vec<(u64, i64)> = spans
        .iter()
        .flat_map(|&(start, end)| [(start, 1), (end, -1)])
        .filter(|&(at, _)| at <= t)
        .collect();
    changes.sort_unstable();
    let (mut integral, mut in_use, mut last) = (0.0, 0i64, 0u64);
    for (at, delta) in changes {
        integral += in_use as f64 * (at - last) as f64;
        (in_use, last) = (in_use + delta, at);
    }
    integral + in_use as f64 * (t - last) as f64
}

#[test]
fn busy_integral_is_bit_equal_to_a_float_reference() {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut rng = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    for capacity in 1..=3 {
        let sim = Simulation::new();
        let ctx = sim.ctx();
        let r = Rc::new(Resource::new(&ctx, capacity));
        let spans = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..40 {
            let arrive = Dur::from_ns(rng(5_000));
            let holds: Vec<u64> = (0..1 + rng(3)).map(|_| rng(700)).collect();
            let (r, ctx, spans) = (Rc::clone(&r), ctx.clone(), Rc::clone(&spans));
            sim.spawn(async move {
                ctx.delay(arrive).await;
                for d in holds {
                    r.hold(Dur::from_ns(d)).await;
                    let end = ctx.now().as_ns();
                    spans.borrow_mut().push((end - d, end));
                }
            });
        }
        let probes = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..20 {
            let at = Dur::from_ns(1 + rng(9_000));
            let (r, ctx, probes) = (Rc::clone(&r), ctx.clone(), Rc::clone(&probes));
            sim.spawn(async move {
                ctx.delay(at).await;
                let now = ctx.now();
                probes
                    .borrow_mut()
                    .push((now.as_ns(), r.busy_us(now), r.utilization(now)));
            });
        }
        assert!(sim.run().completed_cleanly());
        let end = ctx.now();
        probes
            .borrow_mut()
            .push((end.as_ns(), r.busy_us(end), r.utilization(end)));
        assert!(r.acquisitions() >= 40);
        for &(t, busy_us, utilization) in probes.borrow().iter() {
            let reference = float_integral(&spans.borrow(), t);
            assert_eq!(
                busy_us.to_bits(),
                (reference / 1_000.0).to_bits(),
                "at {t} ns"
            );
            let average = reference / t as f64 / capacity as f64;
            assert_eq!(utilization.to_bits(), average.to_bits(), "at {t} ns");
        }
    }
}

#[test]
#[should_panic(expected = "capacity must be > 0")]
fn zero_capacity_rejected() {
    let sim = Simulation::new();
    let _ = Resource::new(&sim.ctx(), 0);
}

/// A spinner holding a unit is listed on the resource by its watch, two
/// on a two-unit resource; a spin dropped while holding leaves the list.
#[test]
fn spinners_are_listed_while_they_hold() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let r = Rc::new(Resource::new(&ctx, 2));
    let listed = Rc::new(RefCell::new(Vec::new()));
    for give_up in [4, 6] {
        let (r, ctx, listed) = (Rc::clone(&r), ctx.clone(), Rc::clone(&listed));
        sim.spawn(async move {
            let watch = crate::Watch::new(&ctx);
            let mut spinning = pin!(r.spin_until(Dur::from_ns(3), &watch, || None::<()>));
            let mut timeout = pin!(ctx.delay(Dur::from_ns(give_up)));
            poll_fn(|cx| {
                if timeout.as_mut().poll(cx).is_ready() {
                    return Poll::Ready(());
                }
                assert!(spinning.as_mut().poll(cx).is_pending());
                Poll::Pending
            })
            .await;
            listed.borrow_mut().push(r.state.borrow().spinning.len());
        });
    }
    assert!(sim.run().completed_cleanly());
    // At 4 both still hold (the list is read before the drop); at 6 one.
    assert_eq!(*listed.borrow(), vec![2, 1]);
    assert!(r.state.borrow().spinning.is_empty());
    assert_eq!(r.in_use(), 0);
}
