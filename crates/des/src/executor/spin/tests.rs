//! Clean spinners against the per-miss loop they replace.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use super::next_wake;
use crate::{Dur, Resource, RunReport, SimCtx, SimTime, Simulation};

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

const CELLS: usize = 4;
const RESOURCES: usize = 3;
const SPINNERS: usize = 10;

/// What a run shows: the `(instant, spinner, value seen)` log, the run
/// report, and each resource's busy time and acquisitions.
type Outcome = (Vec<(u64, usize, u64)>, RunReport, Vec<(u64, u64)>);

/// A seeded tie-heavy script — spinners with small periods and phases,
/// callbacks that bump what they read, competing holds on their
/// resources — run with `spin_until`, or with the per-miss loop.
fn run(seed: u64, per_miss_loop: bool) -> Outcome {
    let mut rng = Rng(seed);
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let cells: Rc<[Cell<u64>; CELLS]> = Rc::new(Default::default());
    let res: Rc<Vec<Resource>> = Rc::new((0..RESOURCES).map(|_| Resource::new(&ctx, 1)).collect());
    let log = Rc::new(RefCell::new(Vec::new()));
    let finished = Rc::new(Cell::new(0));
    for who in 0..SPINNERS {
        let period = Dur::from_ns([2, 3, 4, 6][rng.below(4) as usize]);
        let start = Dur::from_ns(2 * rng.below(4));
        let unit = rng.below(RESOURCES as u64) as usize;
        let rounds: Vec<Round> = (0..2 + rng.below(4))
            .map(|_| Round {
                cell: rng.below(CELLS as u64) as usize,
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
                let target = cells[r.cell].get() + r.rise;
                let probe = || {
                    let v = cells[r.cell].get();
                    (v >= target).then_some(v)
                };
                let seen = if per_miss_loop {
                    per_miss(&res[unit], period, probe).await
                } else {
                    res[unit].spin_until(period, probe).await
                };
                log.borrow_mut().push((ctx.now().as_ns(), who, seen));
                match r.act {
                    Act::Bump(c) => cells[c].set(cells[c].get() + 1),
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
        ctx.call_after(Dur::from_ns(at), move || cells[c].set(cells[c].get() + 1));
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

async fn unstick(ctx: SimCtx, cells: Rc<[Cell<u64>; CELLS]>, finished: Rc<Cell<usize>>) {
    while finished.get() < SPINNERS {
        ctx.delay(Dur::from_ns(37)).await;
        for c in cells.iter() {
            c.set(c.get() + 1);
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

#[test]
fn a_run_left_with_only_clean_spinners_ends_with_them_pending() {
    let sim = Simulation::new();
    let ctx = sim.ctx();
    let flag = Rc::new(Cell::new(false));
    for _ in 0..2 {
        let (cpu, flag) = (Resource::new(&ctx, 1), Rc::clone(&flag));
        sim.spawn(async move {
            cpu.spin_until(Dur::from_ns(3), || flag.get().then_some(()))
                .await;
        });
    }
    // The only other activity: a callback at 10 ns that changes nothing.
    // (On one shared unit they would hand it back and forth for ever.)
    ctx.call_after(Dur::from_ns(10), || {});
    let report = sim.run();
    // Both were put back for the callback and ran once more, at 12 ns.
    assert_eq!(report.pending, 2);
    assert_eq!(report.end, SimTime::from_ns(12));
    assert_eq!((report.events, report.polls_elided), (4, 5));
}
