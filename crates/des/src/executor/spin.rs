//! Clean spinners: polling processes kept out of the calendar while
//! nothing could change what they see (see the executor's "Hot-path
//! design").
//!
//! A spinner is a task in [`crate::Resource::spin_until`]: it holds a unit
//! in back-to-back periods and runs a pure probe at the end of each. When
//! a probe misses and the unit is granted at once, the task registers here
//! instead of pushing its next wake: it is *clean*. Its probe reads only
//! state behind its [`Watch`], so until that watch is touched every wake
//! it skips would have run the same probe on the same state and missed.
//!
//! A clean spinner is *materialised* — its wake pushed at its first grid
//! point (`since + k·period`, `k ≥ 1`) at or after now — on exactly two
//! triggers: a touch of its watch (or an acquire queued behind its unit,
//! which touches it), and a calendar push for exactly that instant, which
//! the per-miss loop's wake, pushed a period earlier, must precede. Either
//! way every clean spinner that wakes at that instant is pushed with it,
//! in order of their virtual push instant (the grid point one period
//! earlier, when the per-miss loop would have pushed the wake), then
//! latest registration instant first, then registration order. Every
//! calendar entry for that instant was pushed before the spinner's virtual
//! push, or it would have been a coincidence, so a fresh sequence number
//! gives each wake the very position its per-miss chain would have reached.
//!
//! A materialised wake whose watch was not touched since the spinner's
//! last real probe is a pure miss no one can tell from a skipped one: the
//! executor re-registers the spinner clean at that instant instead of
//! polling it.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::rc::{Rc, Weak};

use super::{Core, SimCtx, TaskId};
use crate::time::{Dur, SimTime};

/// The first wake of a spinner that last probed at `since`, at or after
/// `now`: `since + k·period` with the smallest `k ≥ 1`. Returns the
/// instant and `k`; the `k − 1` wakes before it were elided.
pub(crate) fn next_wake(since: SimTime, period: Dur, now: SimTime) -> (SimTime, u64) {
    let p = period.as_ns();
    let k = now.since(since).as_ns().div_ceil(p).max(1);
    (since + Dur::from_ns(k * p), k)
}

/// What a spinner's probe reads: the state behind it is written only by
/// code that calls [`Watch::touch`] after the write.
///
/// A probe passed to [`crate::Resource::spin_until`] may read state its
/// own task writes, and state whose every write path touches the watch it
/// spins on; nothing else. Clones name the same watch.
///
/// # Examples
///
/// ```
/// use std::{cell::Cell, rc::Rc};
/// use mproxy_des::{Dur, Resource, Simulation, Watch};
///
/// let sim = Simulation::new();
/// let ctx = sim.ctx();
/// let (cpu, watch, flag) = (Resource::new(&ctx, 1), Watch::new(&ctx), Rc::new(Cell::new(false)));
/// let (w, f) = (watch.clone(), Rc::clone(&flag));
/// ctx.call_after(Dur::from_us(1.0), move || {
///     f.set(true);
///     w.touch(); // wakes the spinner: its probe reads `flag`
/// });
/// sim.spawn(async move {
///     cpu.spin_until(Dur::from_ns(100), &watch, || flag.get().then_some(())).await;
/// });
/// let r = sim.run();
/// assert_eq!(r.end.as_us(), 1.0);
/// assert_eq!(r.events + r.polls_elided, 11); // the per-miss loop's wakes
/// ```
#[derive(Clone)]
pub struct Watch(Rc<WatchCell>);

pub(super) struct WatchCell {
    core: Weak<RefCell<Core>>,
    /// Touches so far.
    touches: Cell<u64>,
    /// Clean spinners registered on this watch.
    clean: Cell<u32>,
}

impl Watch {
    /// A watch for spinners of the simulation behind `ctx`.
    #[must_use]
    pub fn new(ctx: &SimCtx) -> Self {
        Watch(Rc::new(WatchCell {
            core: Rc::downgrade(&ctx.core),
            touches: Cell::new(0),
            clean: Cell::new(0),
        }))
    }

    /// Records a write to the state behind this watch: a clean spinner on
    /// it is put back in the calendar, and its next wake probes. A no-op
    /// for the executor once the simulation is gone.
    pub fn touch(&self) {
        let cell = &*self.0;
        cell.touches.set(cell.touches.get() + 1);
        if cell.clean.get() > 0 {
            if let Some(core) = cell.core.upgrade() {
                core.borrow_mut().touched(cell);
            }
        }
    }

    /// Whether this watch belongs to the simulation behind `ctx`.
    pub(super) fn belongs_to(&self, ctx: &SimCtx) -> bool {
        std::ptr::eq(self.0.core.as_ptr(), Rc::as_ptr(&ctx.core))
    }

    pub(crate) fn same(&self, other: &Watch) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

impl std::fmt::Debug for Watch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watch")
            .field("touches", &self.0.touches.get())
            .finish()
    }
}

struct Spinner {
    task: TaskId,
    /// Instant of its last probe, real or skipped: the origin of its grid.
    since: SimTime,
    period: Dur,
    /// Its first grid point at or after the instant last asked about, and
    /// that point's index `k` on the grid.
    wake: SimTime,
    k: u64,
    watch: Rc<WatchCell>,
    /// The watch's touch count at the last real probe.
    seen: u64,
    /// Registration order.
    order: u64,
}

impl Spinner {
    /// Whether the first grid point at or after `now` is `at` (`≥ now`).
    /// Divides only when the cached wake has passed and `at` is within a
    /// period of now.
    fn wakes_at(&mut self, now: SimTime, at: SimTime) -> bool {
        if self.wake < now {
            if at.since(now) >= self.period {
                return false;
            }
            (self.wake, self.k) = next_wake(self.since, self.period, now);
        }
        self.wake == at
    }

    /// Calendar order among spinners that wake at one instant.
    fn key(&self) -> (SimTime, Reverse<SimTime>, u64) {
        (self.wake - self.period, Reverse(self.since), self.order)
    }
}

/// The registered spinners: clean ones, and materialised ones by the slot
/// their calendar wake names.
#[derive(Default)]
pub(super) struct Spinners {
    clean: Vec<Spinner>,
    woken: Vec<Option<Spinner>>,
    free: Vec<u32>,
    registered: u64,
}

impl Spinners {
    pub(super) fn is_empty(&self) -> bool {
        self.clean.is_empty()
    }

    /// Registers `task`, which probed and missed at `since` and now holds
    /// its unit for `period`.
    pub(super) fn register(&mut self, task: TaskId, since: SimTime, period: Dur, watch: &Watch) {
        // `clean_again` sets the wake, its index and the order.
        self.clean_again(Spinner {
            task,
            since,
            period,
            wake: since,
            k: 0,
            watch: Rc::clone(&watch.0),
            seen: watch.0.touches.get(),
            order: 0,
        });
    }

    fn clean_again(&mut self, mut s: Spinner) {
        s.wake = s.since + s.period;
        s.k = 1;
        s.order = self.registered;
        self.registered += 1;
        s.watch.clean.set(s.watch.clean.get() + 1);
        self.clean.push(s);
    }

    /// Hands `push` the wake of every clean spinner whose next wake is
    /// `at`, in calendar order, and returns the wakes elided before them.
    pub(super) fn materialise_at(
        &mut self,
        now: SimTime,
        at: SimTime,
        push: &mut impl FnMut(SimTime, u32),
    ) -> u64 {
        // Gather them at the tail; the order within the tail is rebuilt
        // from the key, so the clean list's own order is free to change.
        let mut tail = self.clean.len();
        let mut i = 0;
        while i < tail {
            if self.clean[i].wakes_at(now, at) {
                tail -= 1;
                self.clean.swap(i, tail);
            } else {
                i += 1;
            }
        }
        if self.clean.len() - tail > 1 {
            self.clean[tail..].sort_unstable_by_key(Spinner::key);
        }
        let mut elided = 0;
        for s in self.clean.drain(tail..) {
            elided += s.k - 1;
            s.watch.clean.set(s.watch.clean.get() - 1);
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.woken[slot as usize] = Some(s);
                    slot
                }
                None => {
                    self.woken.push(Some(s));
                    u32::try_from(self.woken.len() - 1).expect("spinner slots fit in u32")
                }
            };
            push(at, slot);
        }
        elided
    }

    /// Materialises every clean spinner on `watch`, each with the others
    /// that wake at its instant; returns the wakes elided.
    pub(super) fn materialise_watch(
        &mut self,
        now: SimTime,
        watch: &WatchCell,
        push: &mut impl FnMut(SimTime, u32),
    ) -> u64 {
        let mut elided = 0;
        while let Some(at) = self
            .clean
            .iter()
            .find(|s| std::ptr::eq(&*s.watch, watch))
            .map(|s| next_wake(s.since, s.period, now).0)
        {
            elided += self.materialise_at(now, at, push);
        }
        elided
    }

    /// The materialised wake in `slot` fires at `now`: the task to poll if
    /// its watch was touched since its last real probe, or `None` when the
    /// wake was skipped and the spinner is clean again. Out of line, like
    /// the coincidence check, to keep the executor's pop loop small.
    #[inline(never)]
    pub(super) fn fire(&mut self, slot: u32, now: SimTime) -> Option<TaskId> {
        let mut s = self.woken[slot as usize]
            .take()
            .expect("a spinner's wake names a filled slot");
        self.free.push(slot);
        if s.watch.touches.get() != s.seen {
            return Some(s.task);
        }
        s.since = now;
        self.clean_again(s);
        None
    }
}

#[cfg(test)]
mod tests;
