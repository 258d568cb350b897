//! Contended hardware resources.
//!
//! A [`Resource`] models a server with `capacity` identical units —
//! a processor, a DMA engine, a network port, the message-proxy CPU. The
//! paper's simulator "accounts for contention for hardware resources within
//! a node, such as the processors, the DMA engines, and the network queues";
//! `Resource` is that mechanism, with FIFO queueing and utilisation
//! statistics (the "interface utilisation" column of Table 6).
//!
//! A hold is the simulator's most frequent event (every compute quantum is
//! one), so it costs no allocation: [`Acquire`], [`Hold`] and
//! [`ResourceGuard`] borrow the `Resource` they came from, a [`Hold`]
//! sleeps through the calendar without a [`Delay`] of its own, and only a
//! request that has to queue allocates its wait slot. A process polling in
//! a loop holds its processor through [`Resource::spin_until`], whose
//! empty polls cost an event only when something could have changed what
//! the next one sees: a write behind its [`Watch`], or a request queued
//! behind the unit it holds.
//!
//! [`Delay`]: crate::Delay

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::{next_wake, SimCtx, Watch};
use crate::time::{Dur, SimTime};

struct WaitSlot {
    granted: bool,
    waker: Option<Waker>,
}

struct ResState {
    capacity: usize,
    in_use: usize,
    queue: VecDeque<Rc<RefCell<WaitSlot>>>,
    /// Unit-nanoseconds held from creation to `busy_since`.
    busy_ns: u64,
    busy_since: SimTime,
    /// Completed acquisitions, a clean spinner's elided periods included.
    /// Only the tests read it (see [`Resource::acquired`]).
    #[cfg(test)]
    acquisitions: u64,
    /// The watches of the spinners holding units: a request that queues
    /// touches them, so each spinner's next wake runs and releases.
    spinning: Vec<Watch>,
}

impl ResState {
    /// Closes the busy integral at `now`; call before `in_use` changes.
    fn note(&mut self, now: SimTime) {
        self.busy_ns += self.in_use as u64 * now.since(self.busy_since).as_ns();
        self.busy_since = now;
    }

    /// Unit-nanoseconds held from creation to `end`.
    fn busy_ns(&self, end: SimTime) -> u64 {
        self.busy_ns + self.in_use as u64 * end.since(self.busy_since).as_ns()
    }
}

/// A FIFO-fair, capacity-limited resource with utilisation accounting.
///
/// # Examples
///
/// ```
/// use mproxy_des::{Dur, Resource, Simulation};
///
/// let sim = Simulation::new();
/// let ctx = sim.ctx();
/// let cpu = Resource::new(&ctx, 1);
/// for _ in 0..2 {
///     let cpu = cpu.clone();
///     sim.spawn(async move {
///         cpu.hold(Dur::from_us(10.0)).await; // acquire, work, release
///     });
/// }
/// let r = sim.run();
/// assert_eq!(r.end.as_us(), 20.0); // serialized on the single unit
/// let ctx = sim.ctx();
/// assert_eq!(cpu.busy_us(ctx.now()), 20.0); // busy the whole run
/// ```
#[derive(Clone)]
pub struct Resource {
    ctx: SimCtx,
    state: Rc<RefCell<ResState>>,
}

impl Resource {
    /// Creates a resource with `capacity` units.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(ctx: &SimCtx, capacity: usize) -> Self {
        assert!(capacity > 0, "resource capacity must be > 0");
        Resource {
            ctx: ctx.clone(),
            state: Rc::new(RefCell::new(ResState {
                capacity,
                in_use: 0,
                queue: VecDeque::new(),
                busy_ns: 0,
                busy_since: ctx.now(),
                #[cfg(test)]
                acquisitions: 0,
                spinning: Vec::new(),
            })),
        }
    }

    /// Units currently held.
    #[cfg(test)]
    fn in_use(&self) -> usize {
        self.state.borrow().in_use
    }

    /// Acquires one unit, waiting FIFO behind earlier requests.
    pub fn acquire(&self) -> Acquire<'_> {
        Acquire {
            res: self,
            slot: None,
        }
    }

    /// Acquires one unit, holds it for `d`, then releases — the common
    /// "charge service time on this resource" idiom.
    pub fn hold(&self, d: Dur) -> Hold<'_> {
        Hold {
            acquire: self.acquire(),
            dur: d,
            held: None,
        }
    }

    /// Spins on one unit until `probe` returns a value: probes, and on a
    /// miss holds the unit for `period` and probes again, exactly as
    /// `loop { if let Some(v) = probe() { return v } self.hold(period).await }`
    /// would — same instants, tie order, busy time and acquisitions.
    ///
    /// The unit is held without a break across back-to-back misses, and a
    /// miss costs no event until `watch` is touched: the task waits as a
    /// clean spinner and the executor skips the wakes that could only miss
    /// again (see [`crate::RunReport::polls_elided`]); their acquisitions
    /// are counted when the spinner next wakes. A request that queues for
    /// the unit touches the watch itself. For that, `probe` must be pure
    /// when it misses, must not read the clock or this resource, and may
    /// read only two kinds of state:
    ///
    /// - state its own task writes, which changes only in code the task
    ///   runs after a hit;
    /// - state whose every write path calls [`Watch::touch`] on `watch`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero: a miss would then never yield.
    pub fn spin_until<'a, T, P: FnMut() -> Option<T>>(
        &'a self,
        period: Dur,
        watch: &'a Watch,
        probe: P,
    ) -> SpinUntil<'a, P> {
        assert!(!period.is_zero(), "spin period must be > 0");
        SpinUntil {
            res: self,
            period,
            watch,
            probe,
            state: Spin::Probe,
        }
    }

    /// Total busy time (unit-microseconds) accumulated up to `end` — for
    /// capacity 1 this is simply how long the resource has been held.
    #[must_use]
    pub fn busy_us(&self, end: SimTime) -> f64 {
        self.state.borrow().busy_ns(end) as f64 / 1_000.0
    }

    /// Number of completed acquisitions.
    #[cfg(test)]
    pub(crate) fn acquisitions(&self) -> u64 {
        self.state.borrow().acquisitions
    }

    /// Counts `n` completed acquisitions. The count is the tests' oracle
    /// that a spinner's elided periods acquire as often as the per-miss
    /// loop they stand for (`executor::spin::tests`); nothing else reads
    /// it, so other builds keep none.
    fn acquired(&self, n: u64) {
        #[cfg(test)]
        {
            self.state.borrow_mut().acquisitions += n;
        }
        #[cfg(not(test))]
        let _ = n;
    }

    fn release_one(&self) {
        let now = self.ctx.now();
        let mut s = self.state.borrow_mut();
        debug_assert!(s.in_use > 0, "release without acquire");
        // Hand the unit directly to the next waiter, if any, preserving
        // FIFO order (in_use stays constant in that case).
        if let Some(slot) = s.queue.pop_front() {
            let mut sl = slot.borrow_mut();
            sl.granted = true;
            if let Some(w) = sl.waker.take() {
                w.wake();
            }
        } else {
            s.note(now);
            s.in_use -= 1;
        }
    }
}

impl fmt::Debug for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("Resource")
            .field("capacity", &s.capacity)
            .field("in_use", &s.in_use)
            .field("queued", &s.queue.len())
            .finish()
    }
}

/// Future returned by [`Resource::acquire`].
pub struct Acquire<'a> {
    res: &'a Resource,
    slot: Option<Rc<RefCell<WaitSlot>>>,
}

impl<'a> Future for Acquire<'a> {
    type Output = ResourceGuard<'a>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<ResourceGuard<'a>> {
        let res = self.res;
        // Fast path / re-poll path.
        if let Some(slot) = &self.slot {
            let granted = slot.borrow().granted;
            if granted {
                res.acquired(1);
                self.slot = None;
                return Poll::Ready(ResourceGuard { res });
            }
            slot.borrow_mut().waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let now = res.ctx.now();
        let mut s = res.state.borrow_mut();
        if s.queue.is_empty() && s.in_use < s.capacity {
            s.note(now);
            s.in_use += 1;
            drop(s);
            res.acquired(1);
            Poll::Ready(ResourceGuard { res })
        } else {
            let slot = Rc::new(RefCell::new(WaitSlot {
                granted: false,
                waker: Some(cx.waker().clone()),
            }));
            s.queue.push_back(Rc::clone(&slot));
            for watch in &s.spinning {
                watch.touch();
            }
            drop(s);
            self.slot = Some(slot);
            Poll::Pending
        }
    }
}

impl Drop for Acquire<'_> {
    fn drop(&mut self) {
        // If we were granted a unit but never observed it (future dropped
        // mid-wait), give the unit back so it is not leaked.
        if let Some(slot) = self.slot.take() {
            if slot.borrow().granted {
                self.res.release_one();
            } else {
                let mut s = self.res.state.borrow_mut();
                s.queue.retain(|q| !Rc::ptr_eq(q, &slot));
            }
        }
    }
}

/// Holds one unit of a [`Resource`]; released on drop.
pub struct ResourceGuard<'a> {
    res: &'a Resource,
}

impl Drop for ResourceGuard<'_> {
    fn drop(&mut self) {
        self.res.release_one();
    }
}

impl fmt::Debug for ResourceGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResourceGuard")
            .field("resource", self.res)
            .finish()
    }
}

/// Future returned by [`Resource::hold`]: an [`Acquire`], then one
/// calendar wake `d` after the unit was granted, then the release.
///
/// The wake is scheduled in the poll that is granted the unit, as awaiting
/// [`Resource::acquire`] and then a [`crate::Delay`] would. Dropped while
/// queued, it leaves the queue; dropped while holding, it releases the unit
/// to the next waiter.
pub struct Hold<'a> {
    acquire: Acquire<'a>,
    dur: Dur,
    /// The unit and the instant it is released, once granted.
    held: Option<(ResourceGuard<'a>, SimTime)>,
}

impl Future for Hold<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        if let Some((guard, until)) = &this.held {
            if guard.res.ctx.now() < *until {
                return Poll::Pending;
            }
            this.held = None;
            return Poll::Ready(());
        }
        let Poll::Ready(guard) = Pin::new(&mut this.acquire).poll(cx) else {
            return Poll::Pending;
        };
        match guard.res.ctx.wake_after(this.dur, cx.waker()) {
            Some(until) => {
                this.held = Some((guard, until));
                Poll::Pending
            }
            None => Poll::Ready(()),
        }
    }
}

/// Future returned by [`Resource::spin_until`]. Dropped while it holds
/// the unit, it counts the periods it spun, releases the unit, and touches
/// its watch: the executor's wake for it then fires at the next grid
/// point, as a dropped hold's would.
pub struct SpinUntil<'a, P> {
    res: &'a Resource,
    period: Dur,
    watch: &'a Watch,
    probe: P,
    state: Spin<'a>,
}

impl<P> Drop for SpinUntil<'_, P> {
    fn drop(&mut self) {
        if let Spin::Held { since, .. } = self.state {
            let (_, k) = next_wake(since, self.period, self.res.ctx.now());
            self.res.acquired(k - 1);
            self.watch.touch();
        }
    }
}

/// A unit held by a spinner, listed with its watch on the resource.
struct SpinUnit<'a> {
    unit: ResourceGuard<'a>,
    watch: &'a Watch,
}

impl<'a> SpinUnit<'a> {
    fn new(unit: ResourceGuard<'a>, watch: &'a Watch) -> Self {
        unit.res.state.borrow_mut().spinning.push(watch.clone());
        SpinUnit { unit, watch }
    }
}

impl Drop for SpinUnit<'_> {
    fn drop(&mut self) {
        let mut s = self.unit.res.state.borrow_mut();
        if let Some(at) = s.spinning.iter().position(|w| w.same(self.watch)) {
            s.spinning.remove(at);
        }
    }
}

enum Spin<'a> {
    /// The next poll probes.
    Probe,
    /// The probe missed and the unit was busy: an ordinary hold, whose
    /// wake must run because others ran since the probe.
    Queued(Hold<'a>),
    /// Holding the unit as a clean spinner since `since` (released when
    /// this state is left).
    Held { _unit: SpinUnit<'a>, since: SimTime },
}

impl<T, P: FnMut() -> Option<T> + Unpin> Future for SpinUntil<'_, P> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let this = &mut *self;
        let ctx = &this.res.ctx;
        loop {
            match &mut this.state {
                Spin::Held { since, .. } => {
                    // A clean spinner wakes at a later grid point than the
                    // first; the periods before it were elided, and were
                    // acquisitions of the per-miss loop all the same.
                    let now = ctx.now();
                    let (wake, k) = next_wake(*since, this.period, now);
                    if now < wake {
                        return Poll::Pending;
                    }
                    this.res.acquired(k - 1);
                    this.state = Spin::Probe;
                }
                Spin::Probe => {
                    if let Some(v) = (this.probe)() {
                        return Poll::Ready(v);
                    }
                    let mut acquire = this.res.acquire();
                    let Poll::Ready(guard) = Pin::new(&mut acquire).poll(cx) else {
                        this.state = Spin::Queued(Hold {
                            acquire,
                            dur: this.period,
                            held: None,
                        });
                        return Poll::Pending;
                    };
                    // A pure miss, the unit granted at once: clean.
                    ctx.spin_after(this.period, cx.waker(), this.watch);
                    this.state = Spin::Held {
                        _unit: SpinUnit::new(guard, this.watch),
                        since: ctx.now(),
                    };
                    return Poll::Pending;
                }
                Spin::Queued(hold) => {
                    if Pin::new(hold).poll(cx).is_pending() {
                        return Poll::Pending;
                    }
                    this.state = Spin::Probe;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
