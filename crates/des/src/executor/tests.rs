use super::*;
use std::cell::Cell;

#[test]
fn empty_simulation_ends_at_zero() {
    let sim = Simulation::new();
    let r = sim.run();
    assert_eq!(r.end, SimTime::ZERO);
    assert!(r.completed_cleanly());
    assert_eq!(r.events, 0);
}

#[test]
fn delay_advances_time() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    sim.spawn(async move {
        ctx.delay(Dur::from_us(3.5)).await;
        ctx.delay(Dur::from_us(1.5)).await;
        assert_eq!(ctx.now().as_us(), 5.0);
    });
    let r = sim.run();
    assert_eq!(r.end.as_us(), 5.0);
    assert!(r.completed_cleanly());
}

#[test]
fn delay_until_schedules_its_own_wakeup() {
    // Regression: an absolute-deadline delay must register a calendar
    // event on first poll; it used to return Pending and sleep forever.
    let sim = Simulation::new();
    let ctx = sim.ctx();
    sim.spawn(async move {
        ctx.delay_until(SimTime::ZERO + Dur::from_us(40.0)).await;
        assert_eq!(ctx.now().as_us(), 40.0);
        // A deadline already in the past completes without moving time.
        ctx.delay_until(SimTime::ZERO + Dur::from_us(10.0)).await;
        assert_eq!(ctx.now().as_us(), 40.0);
    });
    let r = sim.run();
    assert_eq!(r.end.as_us(), 40.0);
    assert!(r.completed_cleanly());
}

#[test]
fn events_fire_in_time_order_with_fifo_ties() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let order = Rc::new(RefCell::new(Vec::new()));
    for (i, us) in [(0u32, 5.0), (1, 2.0), (2, 5.0), (3, 1.0)] {
        let ctx = ctx.clone();
        let order = Rc::clone(&order);
        sim.spawn(async move {
            ctx.delay(Dur::from_us(us)).await;
            order.borrow_mut().push(i);
        });
    }
    sim.run();
    // Ties (tasks 0 and 2, both at 5 us) resolve in spawn order.
    assert_eq!(*order.borrow(), vec![3, 1, 0, 2]);
}

#[test]
fn spawned_tasks_run_at_spawn_time() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let hit = Rc::new(Cell::new(0.0f64));
    let hit2 = Rc::clone(&hit);
    sim.spawn(async move {
        ctx.delay(Dur::from_us(7.0)).await;
        let inner_ctx = ctx.clone();
        ctx.spawn(async move {
            hit2.set(inner_ctx.now().as_us());
        });
    });
    sim.run();
    assert_eq!(hit.get(), 7.0);
}

#[test]
fn zero_delay_completes_without_calendar_event() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    sim.spawn(async move {
        ctx.delay(Dur::ZERO).await;
    });
    let r = sim.run();
    assert!(r.completed_cleanly());
    assert_eq!(r.events, 0);
}

#[test]
fn yield_now_interleaves_same_instant_tasks() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let order = Rc::new(RefCell::new(Vec::new()));
    let (o1, o2) = (Rc::clone(&order), Rc::clone(&order));
    let ctx1 = ctx.clone();
    sim.spawn(async move {
        o1.borrow_mut().push("a1");
        ctx1.yield_now().await;
        o1.borrow_mut().push("a2");
    });
    sim.spawn(async move {
        o2.borrow_mut().push("b1");
        ctx.yield_now().await;
        o2.borrow_mut().push("b2");
    });
    sim.run();
    assert_eq!(*order.borrow(), vec!["a1", "b1", "a2", "b2"]);
}

#[test]
fn deadlocked_task_reported_pending() {
    let sim = Simulation::new();
    let ch: crate::Channel<u8> = crate::Channel::unbounded();
    sim.spawn(async move {
        let _ = ch.recv().await; // nobody ever sends
    });
    let r = sim.run();
    assert_eq!(r.pending, 1);
    assert!(!r.completed_cleanly());
}

#[test]
fn determinism_two_identical_runs() {
    fn run_once() -> (u64, u64, Vec<u32>) {
        let sim = Simulation::new();
        let ctx = sim.ctx();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..20u32 {
            let ctx = ctx.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                ctx.delay(Dur::from_ns(u64::from(i % 7) * 100)).await;
                log.borrow_mut().push(i);
                ctx.delay(Dur::from_ns(u64::from(i % 3) * 50)).await;
                log.borrow_mut().push(i + 100);
            });
        }
        let r = sim.run();
        let log = Rc::try_unwrap(log).unwrap().into_inner();
        (r.end.as_ns(), r.events, log)
    }
    assert_eq!(run_once(), run_once());
}

#[test]
fn slab_recycles_slots_with_fresh_generations() {
    let sim = Simulation::new();
    let a = sim.spawn(async {});
    sim.run();
    let b = sim.spawn(async {});
    // Slot index is reused, but the generation differs so the ids stay
    // distinct and stale wakes cannot reach the new task.
    assert_ne!(a, b);
    let r = sim.run();
    assert!(r.completed_cleanly());
    assert_eq!(r.spawned, 2);
}

#[test]
fn timer_fires_at_deadline() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    sim.spawn(async move {
        let outcome = ctx.timer(Dur::from_us(25.0)).await;
        assert_eq!(outcome, TimerOutcome::Fired);
        assert_eq!(ctx.now().as_us(), 25.0);
    });
    let r = sim.run();
    assert!(r.completed_cleanly());
    assert_eq!(r.timers_armed, 1);
    assert_eq!(r.timers_fired, 1);
    assert_eq!(r.timers_cancelled, 0);
    assert_eq!(r.events, 1);
}

#[test]
fn zero_timer_fires_without_calendar_event() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    sim.spawn(async move {
        assert_eq!(ctx.timer(Dur::ZERO).await, TimerOutcome::Fired);
    });
    let r = sim.run();
    assert!(r.completed_cleanly());
    assert_eq!(r.events, 0);
    assert_eq!(r.timers_fired, 1);
}

#[test]
fn cancelled_timer_never_fires() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let handle = Rc::new(RefCell::new(None));
    let fired = Rc::new(Cell::new(false));
    let (h1, f1) = (Rc::clone(&handle), Rc::clone(&fired));
    let ctx1 = ctx.clone();
    sim.spawn(async move {
        let t = ctx1.timer(Dur::from_us(100.0));
        *h1.borrow_mut() = Some(t.handle());
        if t.await == TimerOutcome::Fired {
            f1.set(true);
        }
        // Woken at the instant of cancellation, not the deadline.
        assert_eq!(ctx1.now().as_us(), 10.0);
    });
    sim.spawn(async move {
        ctx.delay(Dur::from_us(10.0)).await;
        handle.borrow().as_ref().unwrap().cancel();
    });
    let r = sim.run();
    assert!(r.completed_cleanly());
    assert!(!fired.get(), "cancelled timer must never fire");
    assert_eq!(r.timers_armed, 1);
    assert_eq!(r.timers_cancelled, 1);
    assert_eq!(r.timers_fired, 0);
    // Only the canceller's delay is a calendar event: the dead timer
    // entry is discarded without firing and the run ends at 10 us,
    // not the timer's 100 us deadline.
    assert_eq!(r.events, 1);
    assert_eq!(r.end.as_us(), 10.0);
}

#[test]
fn double_cancel_is_a_noop() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let done = Rc::new(Cell::new(false));
    let done2 = Rc::clone(&done);
    sim.spawn(async move {
        let t = ctx.timer(Dur::from_us(50.0));
        let h = t.handle();
        ctx.spawn(async move {
            h.cancel();
            h.cancel();
        });
        assert_eq!(t.await, TimerOutcome::Cancelled);
        done2.set(true);
    });
    let r = sim.run();
    assert!(r.completed_cleanly());
    assert!(done.get());
    assert_eq!(r.timers_cancelled, 1, "second cancel must not re-count");
}

#[test]
fn cancel_after_fire_is_a_noop() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    sim.spawn(async move {
        let t = ctx.timer(Dur::from_us(5.0));
        let h = t.handle();
        assert_eq!(t.await, TimerOutcome::Fired);
        h.cancel();
    });
    let r = sim.run();
    assert!(r.completed_cleanly());
    assert_eq!(r.timers_fired, 1);
    assert_eq!(r.timers_cancelled, 0);
}

#[test]
fn cancelling_one_timer_leaves_others_untouched() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let order = Rc::new(RefCell::new(Vec::new()));
    let handle = Rc::new(RefCell::new(None));
    for (name, us) in [("a", 10.0), ("b", 20.0), ("c", 30.0)] {
        let ctx = ctx.clone();
        let order = Rc::clone(&order);
        let handle = Rc::clone(&handle);
        sim.spawn(async move {
            let t = ctx.timer(Dur::from_us(us));
            if name == "b" {
                *handle.borrow_mut() = Some(t.handle());
            }
            let outcome = t.await;
            order.borrow_mut().push((name, outcome));
        });
    }
    let ctx2 = sim.ctx();
    sim.spawn(async move {
        ctx2.delay(Dur::from_us(1.0)).await;
        handle.borrow().as_ref().unwrap().cancel();
    });
    let r = sim.run();
    assert!(r.completed_cleanly());
    assert_eq!(
        *order.borrow(),
        vec![
            ("b", TimerOutcome::Cancelled),
            ("a", TimerOutcome::Fired),
            ("c", TimerOutcome::Fired),
        ]
    );
    assert_eq!(r.timers_armed, 3);
    assert_eq!(r.timers_fired, 2);
    assert_eq!(r.timers_cancelled, 1);
}

#[test]
fn stale_waker_from_dropped_simulation_is_harmless() {
    // A waker can outlive its simulation (e.g. held by external code).
    // Waking it must be a silent no-op, and must not perturb a newer
    // simulation that recycled the registry slot.
    let stolen = Rc::new(RefCell::new(None::<Waker>));
    {
        let sim = Simulation::new();
        let thief = Rc::clone(&stolen);
        sim.spawn(async move {
            std::future::poll_fn(move |cx| {
                *thief.borrow_mut() = Some(cx.waker().clone());
                Poll::Ready(())
            })
            .await;
        });
        sim.run();
    }
    let sim = Simulation::new();
    let ctx = sim.ctx();
    sim.spawn(async move {
        ctx.delay(Dur::from_us(1.0)).await;
    });
    stolen.borrow().as_ref().unwrap().wake_by_ref();
    let r = sim.run();
    assert!(r.completed_cleanly());
    assert_eq!(r.spawned, 1);
}
