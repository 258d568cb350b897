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
//! the next one sees.
//!
//! [`Delay`]: crate::Delay

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::{next_wake, SimCtx};
use crate::time::{Dur, SimTime};

struct WaitSlot {
    granted: bool,
    waker: Option<Waker>,
}

struct ResState {
    capacity: usize,
    in_use: usize,
    queue: VecDeque<Rc<RefCell<WaitSlot>>>,
    created: SimTime,
    /// Unit-nanoseconds held from `created` to `busy_since`.
    busy_ns: u64,
    busy_since: SimTime,
    acquisitions: u64,
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
/// assert!((cpu.utilization(ctx.now()) - 1.0).abs() < 1e-9);
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
                created: ctx.now(),
                busy_ns: 0,
                busy_since: ctx.now(),
                acquisitions: 0,
            })),
        }
    }

    /// Units currently held.
    #[must_use]
    pub fn in_use(&self) -> usize {
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
    /// miss costs no event while nothing else happens: the task waits as a
    /// clean spinner and the executor skips the wakes that could only miss
    /// again (see [`crate::RunReport::polls_elided`]); their acquisitions
    /// are counted when the spinner next wakes. For that, `probe`
    /// must be pure when it misses, and must not read the clock or this
    /// resource: only state other processes write, such as a flag, a queue
    /// or a memory word.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero: a miss would then never yield.
    pub fn spin_until<T, P: FnMut() -> Option<T>>(
        &self,
        period: Dur,
        probe: P,
    ) -> SpinUntil<'_, P> {
        assert!(!period.is_zero(), "spin period must be > 0");
        SpinUntil {
            res: self,
            period,
            probe,
            state: Spin::Probe,
        }
    }

    /// Fraction of capacity busy, time-averaged from creation to `end`.
    #[must_use]
    pub fn utilization(&self, end: SimTime) -> f64 {
        let s = self.state.borrow();
        let span = end.since(s.created).as_ns();
        let busy = if span == 0 {
            s.in_use as f64
        } else {
            s.busy_ns(end) as f64 / span as f64
        };
        busy / s.capacity as f64
    }

    /// Total busy time (unit-microseconds) accumulated up to `end` — for
    /// capacity 1 this is simply how long the resource has been held.
    #[must_use]
    pub fn busy_us(&self, end: SimTime) -> f64 {
        self.state.borrow().busy_ns(end) as f64 / 1_000.0
    }

    /// Number of completed acquisitions.
    #[must_use]
    pub fn acquisitions(&self) -> u64 {
        self.state.borrow().acquisitions
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
                res.state.borrow_mut().acquisitions += 1;
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
            s.acquisitions += 1;
            Poll::Ready(ResourceGuard { res })
        } else {
            let slot = Rc::new(RefCell::new(WaitSlot {
                granted: false,
                waker: Some(cx.waker().clone()),
            }));
            s.queue.push_back(Rc::clone(&slot));
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

impl ResourceGuard<'_> {
    /// Releases explicitly (equivalent to dropping the guard).
    pub fn release(self) {
        drop(self);
    }
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

/// Future returned by [`Resource::spin_until`].
pub struct SpinUntil<'a, P> {
    res: &'a Resource,
    period: Dur,
    probe: P,
    state: Spin<'a>,
}

enum Spin<'a> {
    /// The next poll probes.
    Probe,
    /// The probe missed and the unit was busy: an ordinary hold, whose
    /// wake must run because others ran since the probe.
    Queued(Hold<'a>),
    /// Holding the unit as a clean spinner since `since` (released when
    /// this state is left).
    Held {
        _unit: ResourceGuard<'a>,
        since: SimTime,
    },
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
                    this.res.state.borrow_mut().acquisitions += k - 1;
                    this.state = Spin::Probe;
                }
                Spin::Probe => {
                    if let Some(v) = (this.probe)() {
                        ctx.materialise_spinners();
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
                    ctx.spin_after(this.period, cx.waker());
                    this.state = Spin::Held {
                        _unit: guard,
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
mod tests {
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
}
