//! Clean spinners against the per-miss loop they replace.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use std::future::{poll_fn, Future};
use std::pin::pin;
use std::task::Poll;

use super::next_wake;
use crate::{Dur, Resource, RunReport, SimCtx, SimTime, Simulation, Watch};

#[test]
fn next_wake_is_the_first_grid_point_at_or_after_now() {
    let at = SimTime::from_ns;
    let p = Dur::from_ns(5);
    assert_eq!(next_wake(at(10), p, at(10)), (at(15), 1));
    assert_eq!(next_wake(at(10), p, at(15)), (at(15), 1));
    assert_eq!(next_wake(at(10), p, at(16)), (at(20), 2));
    assert_eq!(next_wake(at(10), p, at(40)), (at(40), 6));
}

/// The loop [`Resource::spin_until`] replaces: one `hold` per miss.
async fn per_miss<T>(res: &Resource, period: Dur, mut probe: impl FnMut() -> Option<T>) -> T {
    loop {
        if let Some(v) = probe() {
            return v;
        }
        res.hold(period).await;
    }
}

/// `spin_until` on `watch`, or the per-miss loop, which ignores it.
async fn spin<T>(
    per_miss_loop: bool,
    res: &Resource,
    period: Dur,
    watch: &Watch,
    probe: impl FnMut() -> Option<T> + Unpin,
) -> T {
    if per_miss_loop {
        per_miss(res, period, probe).await
    } else {
        res.spin_until(period, watch, probe).await
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// One round of a spinner: wait until cell `cell` has risen by `rise`
/// since the round began, then act.
#[derive(Clone, Copy)]
struct Round {
    cell: usize,
    rise: u64,
    act: Act,
}

#[derive(Clone, Copy)]
enum Act {
    /// Bump a cell: a write other probes read.
    Bump(usize),
    /// Hold the spinner's own resource, as a compute step.
    Compute(u64),
    /// Sleep without the resource.
    Sleep(u64),
}

/// Cells the spinners' probes read; the rest are written, and their
/// watches touched, but no probe reads them.
const PROBED: usize = 4;
const CELLS: usize = 6;
const RESOURCES: usize = 3;
const SPINNERS: usize = 10;

/// What a run shows: the `(instant, spinner, value seen)` log, the run
/// report, and each resource's busy time and acquisitions.
type Outcome = (Vec<(u64, usize, u64)>, RunReport, Vec<(u64, u64)>);

/// The cells, each behind its own watch: a write bumps it and touches it.
struct Cells {
    values: [Cell<u64>; CELLS],
    watches: Vec<Watch>,
}

impl Cells {
    fn bump(&self, c: usize) {
        self.values[c].set(self.values[c].get() + 1);
        self.watches[c].touch();
    }
}

/// A seeded tie-heavy script — spinners with small periods and phases,
/// some on one cell and so on one watch, callbacks that bump what they
/// read or what no one reads, competing holds on their resources — run
/// with `spin_until`, or with the per-miss loop.
fn run(seed: u64, per_miss_loop: bool) -> Outcome {
    let mut rng = Rng(seed);
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let cells = Rc::new(Cells {
        values: Default::default(),
        watches: (0..CELLS).map(|_| Watch::new(&ctx)).collect(),
    });
    let res: Rc<Vec<Resource>> = Rc::new((0..RESOURCES).map(|_| Resource::new(&ctx, 1)).collect());
    let log = Rc::new(RefCell::new(Vec::new()));
    let finished = Rc::new(Cell::new(0));
    for who in 0..SPINNERS {
        let period = Dur::from_ns([2, 3, 4, 6][rng.below(4) as usize]);
        let start = Dur::from_ns(2 * rng.below(4));
        let unit = rng.below(RESOURCES as u64) as usize;
        let rounds: Vec<Round> = (0..2 + rng.below(4))
            .map(|_| Round {
                cell: rng.below(PROBED as u64) as usize,
                rise: 1 + rng.below(2),
                act: match rng.below(3) {
                    0 => Act::Bump(rng.below(CELLS as u64) as usize),
                    1 => Act::Compute(1 + rng.below(6)),
                    _ => Act::Sleep(rng.below(9)),
                },
            })
            .collect();
        let (ctx, cells, res, log, finished) = (
            ctx.clone(),
            Rc::clone(&cells),
            Rc::clone(&res),
            Rc::clone(&log),
            Rc::clone(&finished),
        );
        sim.spawn(async move {
            ctx.delay(start).await;
            for r in rounds {
                let cell = &cells.values[r.cell];
                let target = cell.get() + r.rise;
                let probe = || {
                    let v = cell.get();
                    (v >= target).then_some(v)
                };
                let watch = &cells.watches[r.cell];
                let seen = spin(per_miss_loop, &res[unit], period, watch, probe).await;
                log.borrow_mut().push((ctx.now().as_ns(), who, seen));
                match r.act {
                    Act::Bump(c) => cells.bump(c),
                    Act::Compute(ns) => res[unit].hold(Dur::from_ns(ns)).await,
                    Act::Sleep(ns) => ctx.delay(Dur::from_ns(ns)).await,
                }
            }
            finished.set(finished.get() + 1);
        });
    }
    for _ in 0..30 {
        let (at, c) = (rng.below(200), rng.below(CELLS as u64) as usize);
        let cells = Rc::clone(&cells);
        ctx.call_after(Dur::from_ns(at), move || cells.bump(c));
    }
    for _ in 0..12 {
        let (at, unit, ns) = (
            rng.below(200),
            rng.below(RESOURCES as u64) as usize,
            1 + rng.below(8),
        );
        let (ctx, res) = (ctx.clone(), Rc::clone(&res));
        sim.spawn(async move {
            ctx.delay(Dur::from_ns(at)).await;
            res[unit].hold(Dur::from_ns(ns)).await;
        });
    }
    // Keeps every cell rising until the spinners are through.
    sim.spawn(unstick(ctx.clone(), Rc::clone(&cells), finished));
    let report = sim.run();
    let end = ctx.now();
    let units = res
        .iter()
        .map(|r| ((r.busy_us(end) * 1_000.0) as u64, r.acquisitions()))
        .collect();
    let log = log.borrow().clone();
    (log, report, units)
}

async fn unstick(ctx: SimCtx, cells: Rc<Cells>, finished: Rc<Cell<usize>>) {
    while finished.get() < SPINNERS {
        ctx.delay(Dur::from_ns(37)).await;
        for c in 0..CELLS {
            cells.bump(c);
        }
    }
}

#[test]
fn spinning_matches_the_per_miss_loop_on_tie_heavy_schedules() {
    let mut elided = 0;
    for seed in 1..=500u64 {
        let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let (log, report, units) = run(seed, false);
        let (want_log, want, want_units) = run(seed, true);
        assert!(report.completed_cleanly() && want.completed_cleanly());
        assert_eq!(log, want_log, "seed {seed:#x}: wake log");
        assert_eq!(report.end, want.end, "seed {seed:#x}: end");
        assert_eq!(units, want_units, "seed {seed:#x}: busy ns, acquisitions");
        assert_eq!(want.polls_elided, 0);
        assert_eq!(
            report.events + report.polls_elided,
            want.events,
            "seed {seed:#x}: events"
        );
        elided += report.polls_elided;
    }
    assert!(
        elided > 2_000,
        "the script leaves misses to elide: {elided}"
    );
}

/// What a small scenario shows: `(instant, what)` marks, the run report,
/// and the resource's busy time and acquisitions.
type Marks = (Vec<(u64, &'static str)>, RunReport, (u64, u64));

/// Runs `script` with `spin_until` and with the per-miss loop, checks
/// that both show the same, and returns what the `spin_until` run showed.
fn against_per_miss(
    script: impl Fn(&Simulation, bool) -> (Resource, Rc<RefCell<Vec<(u64, &'static str)>>>),
) -> Marks {
    let outcome = |per_miss_loop: bool| {
        let sim = Simulation::new();
        let (res, marks) = script(&sim, per_miss_loop);
        let report = sim.run();
        let end = sim.now();
        let units = ((res.busy_us(end) * 1_000.0) as u64, res.acquisitions());
        let marks = marks.borrow().clone();
        (marks, report, units)
    };
    let (marks, report, units) = outcome(false);
    let (want_marks, want, want_units) = outcome(true);
    assert_eq!(marks, want_marks, "marks");
    assert_eq!(units, want_units, "busy ns, acquisitions");
    assert_eq!((report.end, report.pending), (want.end, want.pending));
    assert_eq!(report.events + report.polls_elided, want.events, "events");
    (marks, report, units)
}

type Log = Rc<RefCell<Vec<(u64, &'static str)>>>;

fn mark(ctx: &SimCtx, log: &Log, what: &'static str) {
    log.borrow_mut().push((ctx.now().as_ns(), what));
}

/// Spawns a spinner on `res` with `period` that waits for `flag` and
/// marks `what` when it sees it.
fn spinner(
    sim: &Simulation,
    per_miss_loop: bool,
    res: &Resource,
    period: u64,
    flag: &(Rc<Cell<bool>>, Watch),
    log: &Log,
    what: &'static str,
) {
    let (ctx, res, log) = (sim.ctx(), res.clone(), Rc::clone(log));
    let (flag, watch) = (Rc::clone(&flag.0), flag.1.clone());
    sim.spawn(async move {
        let probe = || flag.get().then_some(());
        spin(per_miss_loop, &res, Dur::from_ns(period), &watch, probe).await;
        mark(&ctx, &log, what);
    });
}

/// Raises `flag` and touches its watch at `at`.
fn raise_at(ctx: &SimCtx, at: u64, flag: &(Rc<Cell<bool>>, Watch)) {
    let (flag, watch) = (Rc::clone(&flag.0), flag.1.clone());
    ctx.call_after(Dur::from_ns(at), move || {
        flag.set(true);
        watch.touch();
    });
}

#[test]
fn an_entry_pushed_for_a_clean_spinners_next_wake_runs_after_it() {
    let (marks, report, _) = against_per_miss(|sim, per_miss_loop| {
        let ctx = sim.ctx();
        let (res, log) = (Resource::new(&ctx, 1), Log::default());
        let flag = (Rc::new(Cell::new(false)), Watch::new(&ctx));
        spinner(sim, per_miss_loop, &res, 3, &flag, &log, "seen");
        // At 4 the spinner's next wake is 6: the flag raised for 6 comes
        // after the per-miss wake pushed at 3, so it is seen at 9.
        let (ctx2, flag2) = (ctx.clone(), flag.clone());
        ctx.call_after(Dur::from_ns(4), move || raise_at(&ctx2, 2, &flag2));
        (res, log)
    });
    assert_eq!(marks, vec![(9, "seen")]);
    // The wake at 6, pushed for the coincidence, pops before the flag is
    // raised and is skipped; the touch pushes the one at 9.
    assert_eq!((report.events, report.polls_elided), (3, 2));
}

#[test]
fn an_acquire_queued_behind_a_clean_spinner_gets_the_unit_at_its_next_grid_point() {
    let (marks, _, units) = against_per_miss(|sim, per_miss_loop| {
        let ctx = sim.ctx();
        let (res, log) = (Resource::new(&ctx, 1), Log::default());
        let flag = (Rc::new(Cell::new(false)), Watch::new(&ctx));
        spinner(sim, per_miss_loop, &res, 5, &flag, &log, "seen");
        raise_at(&ctx, 30, &flag);
        let (res2, log2) = (res.clone(), Rc::clone(&log));
        sim.spawn(async move {
            ctx.delay(Dur::from_ns(12)).await;
            let unit = res2.acquire().await;
            mark(&ctx, &log2, "granted");
            ctx.delay(Dur::from_ns(4)).await;
            drop(unit);
        });
        (res, log)
    });
    // Granted at the spinner's grid point 15; the spinner queues behind
    // it, holds 19–24, 24–29, 29–34 and sees the flag at 34.
    assert_eq!(marks, vec![(15, "granted"), (34, "seen")]);
    assert_eq!(units, (34, 7));
}

#[test]
fn an_acquire_queued_behind_two_spinners_touches_both() {
    let (marks, _, _) = against_per_miss(|sim, per_miss_loop| {
        let ctx = sim.ctx();
        let (res, log) = (Resource::new(&ctx, 2), Log::default());
        let flag = (Rc::new(Cell::new(false)), Watch::new(&ctx));
        let other = (Rc::new(Cell::new(false)), Watch::new(&ctx));
        spinner(sim, per_miss_loop, &res, 3, &flag, &log, "3 ns seen");
        spinner(sim, per_miss_loop, &res, 4, &other, &log, "4 ns seen");
        raise_at(&ctx, 40, &flag);
        raise_at(&ctx, 50, &other);
        let (res2, log2) = (res.clone(), Rc::clone(&log));
        sim.spawn(async move {
            ctx.delay(Dur::from_ns(7)).await;
            res2.hold(Dur::from_ns(5)).await;
            mark(&ctx, &log2, "held");
        });
        (res, log)
    });
    // The 4 ns spinner releases first, at 8; the other spinner's wake at
    // 9 runs too, and keeps its unit.
    assert_eq!(marks[0], (13, "held"));
    assert_eq!(marks.len(), 3);
}

#[test]
fn a_spin_dropped_while_holding_releases_its_unit_and_its_wake_still_fires() {
    let (marks, report, _) = against_per_miss(|sim, per_miss_loop| {
        let ctx = sim.ctx();
        let (res, log) = (Resource::new(&ctx, 1), Log::default());
        let watch = Watch::new(&ctx);
        let (res2, ctx2) = (res.clone(), ctx.clone());
        sim.spawn(async move {
            let period = Dur::from_ns(3);
            {
                // Spins until 7, then gives up while holding the unit.
                let mut spinning = pin!(spin(per_miss_loop, &res2, period, &watch, || None::<()>));
                let mut timeout = pin!(ctx2.delay(Dur::from_ns(7)));
                poll_fn(|cx| {
                    if timeout.as_mut().poll(cx).is_ready() {
                        return Poll::Ready(());
                    }
                    assert!(spinning.as_mut().poll(cx).is_pending());
                    Poll::Pending
                })
                .await;
            }
            // Its wake at 9 still polls this task, as the dropped hold's
            // would; a request queued at 9 touches no one.
            ctx2.delay(Dur::from_ns(10)).await;
        });
        for at in [8, 9, 20] {
            let (ctx, res, log) = (ctx.clone(), res.clone(), Rc::clone(&log));
            sim.spawn(async move {
                ctx.delay(Dur::from_ns(at)).await;
                res.hold(Dur::from_ns(4)).await;
                mark(&ctx, &log, "held");
            });
        }
        (res, log)
    });
    assert_eq!(marks, vec![(12, "held"), (16, "held"), (24, "held")]);
    assert_eq!(report.end, SimTime::from_ns(24));
}

#[test]
fn activity_that_neither_touches_nor_coincides_leaves_spinners_clean() {
    let with_noise = |noise: bool| {
        against_per_miss(move |sim, per_miss_loop| {
            let ctx = sim.ctx();
            let (res, log) = (Resource::new(&ctx, 1), Log::default());
            let flag = (Rc::new(Cell::new(false)), Watch::new(&ctx));
            spinner(sim, per_miss_loop, &res, 3, &flag, &log, "seen");
            raise_at(&ctx, 100, &flag);
            if noise {
                // Off the spinner's grid, touching nothing it watches.
                let unrelated = Watch::new(&ctx);
                for at in (1..100).step_by(10) {
                    let unrelated = unrelated.clone();
                    ctx.call_after(Dur::from_ns(at), move || unrelated.touch());
                }
            }
            (res, log)
        })
        .1
    };
    let (quiet, noisy) = (with_noise(false), with_noise(true));
    // The touch, then the one wake at 102 that sees it.
    assert_eq!((quiet.events, quiet.polls_elided), (2, 33));
    assert_eq!(noisy.events, quiet.events + 10);
    assert_eq!(noisy.polls_elided, quiet.polls_elided);
}

#[test]
fn a_run_left_with_only_clean_spinners_ends_with_them_pending() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let flag = Rc::new(Cell::new(false));
    for _ in 0..2 {
        let (cpu, flag, watch) = (Resource::new(&ctx, 1), Rc::clone(&flag), Watch::new(&ctx));
        sim.spawn(async move {
            cpu.spin_until(Dur::from_ns(3), &watch, || flag.get().then_some(()))
                .await;
        });
    }
    // The only other activity: a callback at 10 ns that changes nothing.
    // (On one shared unit they would hand it back and forth for ever.)
    ctx.call_after(Dur::from_ns(10), || {});
    let report = sim.run();
    // Nothing touched them and nothing was pushed for their wakes: they
    // stayed out of the calendar, and the run ended with the callback.
    assert_eq!(report.pending, 2);
    assert_eq!(report.end, SimTime::from_ns(10));
    assert_eq!((report.events, report.polls_elided), (1, 0));
}

#[test]
fn a_touch_after_the_simulation_is_gone_does_nothing() {
    let sim = Simulation::new();
    let watch = Watch::new(&sim.ctx());
    drop(sim);
    watch.touch();
}
