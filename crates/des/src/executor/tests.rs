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

/// What a calendar entry is, in the order-property test below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Made {
    Call,
    Delay,
    Timer,
}

/// Entries the root creates at time zero: the calendar starts this wide.
const ROOT_ENTRIES: usize = 1_200;
/// No entry fired after this many were created creates more.
const MAX_ENTRIES: usize = 6_000;

/// What firing entry `fired` (`None`: the root process at time zero)
/// does, a pure function of the seed and the entry so that the simulation
/// and the reference follow one script: the entries it creates, `(kind,
/// delay ns)` in creation order, and the earlier entry it cancels if that
/// is a pending timer. Calls come first: `call_after` queues at once,
/// while a spawned process queues its delay or timer when it is first
/// polled, after the firing returns.
fn script(seed: u64, fired: Option<usize>, created: usize) -> (Vec<(Made, u64)>, Option<usize>) {
    let mut x = seed
        ^ fired
            .map_or(0, |id| id as u64 + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut rng = move |n: u64| {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    };
    let count = match fired {
        None => ROOT_ENTRIES,
        Some(_) if created >= MAX_ENTRIES => 0,
        Some(_) => rng(3) as usize,
    };
    let mut made: Vec<(Made, u64)> = (0..count)
        .map(|_| match rng(3) {
            // Eight delays 25 ns apart make ties at every instant; only a
            // call may land on the current one.
            0 => (Made::Call, rng(8) * 25),
            1 => (Made::Delay, (1 + rng(8)) * 25),
            _ => (Made::Timer, (1 + rng(8)) * 25),
        })
        .collect();
    made.sort_by_key(|&(kind, _)| kind != Made::Call);
    let cancel = fired
        .filter(|_| rng(3) == 0)
        .and_then(|id| id.checked_sub(1 + rng(64) as usize));
    (made, cancel)
}

#[derive(Default)]
struct World {
    seed: u64,
    /// `(entry, instant)` of every entry that fired, in order.
    fired: Vec<(usize, u64)>,
    /// Per entry: the handle of its timer, if it is one.
    timers: Vec<Option<TimerHandle>>,
}

fn fire(ctx: &SimCtx, world: &Rc<RefCell<World>>, fired: Option<usize>) {
    let (made, cancel) = {
        let mut w = world.borrow_mut();
        if let Some(id) = fired {
            w.fired.push((id, ctx.now().as_ns()));
        }
        script(w.seed, fired, w.timers.len())
    };
    let target = cancel.and_then(|t| world.borrow().timers[t].clone());
    if let Some(timer) = target {
        timer.cancel();
    }
    for (kind, ns) in made {
        let id = {
            let mut w = world.borrow_mut();
            w.timers.push(None);
            w.timers.len() - 1
        };
        let (d, ctx2, world2) = (Dur::from_ns(ns), ctx.clone(), Rc::clone(world));
        match kind {
            Made::Call => ctx.call_after(d, move || fire(&ctx2, &world2, Some(id))),
            Made::Delay => {
                ctx.spawn(async move {
                    ctx2.delay(d).await;
                    fire(&ctx2, &world2, Some(id));
                });
            }
            Made::Timer => {
                let timer = ctx.timer(d);
                world.borrow_mut().timers[id] = Some(timer.handle());
                ctx.spawn(async move {
                    if timer.await == TimerOutcome::Fired {
                        fire(&ctx2, &world2, Some(id));
                    }
                });
            }
        }
    }
}

/// The script run on a sorted set of `(instant, creation order)` instead
/// of the calendar: the firing order and the `RunReport` counts it implies.
fn reference(seed: u64) -> (Vec<(usize, u64)>, RunReport) {
    let mut queue = std::collections::BTreeSet::new();
    let mut entries: Vec<(Made, u64, bool)> = Vec::new(); // kind, instant, cancelled
    let mut log = Vec::new();
    let mut r = RunReport {
        end: SimTime::ZERO,
        spawned: 0,
        completed: 0,
        pending: 0,
        events: 0,
        polls_elided: 0,
        timers_armed: 0,
        timers_cancelled: 0,
        timers_fired: 0,
        calendar_peak: 0,
    };
    let mut fired = None;
    loop {
        let now = r.end.as_ns();
        let (made, cancel) = script(seed, fired, entries.len());
        if let Some(t) = cancel {
            let (kind, at, cancelled) = &mut entries[t];
            if *kind == Made::Timer && !*cancelled && queue.contains(&(*at, t)) {
                *cancelled = true;
                r.timers_cancelled += 1;
            }
        }
        for (kind, ns) in made {
            queue.insert((now + ns, entries.len()));
            entries.push((kind, now + ns, false));
            r.calendar_peak = r.calendar_peak.max(queue.len() as u64);
            r.timers_armed += u64::from(kind == Made::Timer);
        }
        let next = loop {
            match queue.pop_first() {
                Some((_, id)) if entries[id].2 => continue,
                other => break other,
            }
        };
        let Some((at, id)) = next else {
            return (log, r);
        };
        r.end = SimTime::from_ns(at);
        r.events += 1;
        r.timers_fired += u64::from(entries[id].0 == Made::Timer);
        log.push((id, at));
        fired = Some(id);
    }
}

#[test]
fn calendar_fires_in_time_then_creation_order_at_a_thousand_wide() {
    for seed in [1, 2, 0xdead_beef, 0x5eed_0000_0000_0001] {
        let sim = Simulation::new();
        let ctx = sim.ctx();
        let world = Rc::new(RefCell::new(World {
            seed,
            ..World::default()
        }));
        let (ctx2, world2) = (ctx.clone(), Rc::clone(&world));
        sim.spawn(async move { fire(&ctx2, &world2, None) });
        let report = sim.run();
        assert!(report.completed_cleanly());

        let (expected, want) = reference(seed);
        let mut w = world.borrow_mut();
        assert_eq!(w.fired, expected, "seed {seed:#x}: firing order");
        let counts = |r: &RunReport| {
            (
                r.end,
                r.events,
                r.timers_armed,
                r.timers_cancelled,
                r.timers_fired,
                r.calendar_peak,
            )
        };
        assert_eq!(counts(&report), counts(&want), "seed {seed:#x}: run counts");
        assert!(want.calendar_peak >= 1_000, "the calendar gets wide");
        assert!(want.timers_cancelled > 0 && want.timers_fired > 0);
        // Every slab slot was in use at the peak, and was used many times.
        let slots = sim.core.borrow().calendar.peak();
        assert_eq!(slots as u64, report.calendar_peak);
        assert!(w.timers.len() > 3 * slots, "slots are reused");
        // The handles hold the simulation; let it go.
        w.timers.clear();
    }
}
