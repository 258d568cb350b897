//! Contended hardware resources.
//!
//! A [`Resource`] models a server with `capacity` identical units —
//! a processor, a DMA engine, a network port, the message-proxy CPU. The
//! paper's simulator "accounts for contention for hardware resources within
//! a node, such as the processors, the DMA engines, and the network queues";
//! `Resource` is that mechanism, with FIFO queueing and utilisation
//! statistics (the "interface utilisation" column of Table 6).
//!
//! A hold is the simulator's most frequent event (every compute quantum and
//! every empty queue poll is one), so it costs no allocation: [`Acquire`]
//! and [`ResourceGuard`] borrow the `Resource` they came from, and only a
//! request that has to queue allocates its wait slot.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::SimCtx;
use crate::stats::TimeWeighted;
use crate::time::{Dur, SimTime};

struct WaitSlot {
    granted: bool,
    waker: Option<Waker>,
}

struct ResState {
    capacity: usize,
    in_use: usize,
    queue: VecDeque<Rc<RefCell<WaitSlot>>>,
    busy: TimeWeighted,
    acquisitions: u64,
}

impl ResState {
    fn note(&mut self, now: SimTime) {
        self.busy.update(now, self.in_use as f64);
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
                busy: TimeWeighted::new(ctx.now(), 0.0),
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
    pub async fn hold(&self, d: Dur) {
        let guard = self.acquire().await;
        guard.delay(d).await;
    }

    /// Fraction of capacity busy, time-averaged from creation to `end`.
    #[must_use]
    pub fn utilization(&self, end: SimTime) -> f64 {
        let s = self.state.borrow();
        s.busy.average(end) / s.capacity as f64
    }

    /// Total busy time (unit-microseconds) accumulated up to `end` — for
    /// capacity 1 this is simply how long the resource has been held.
    #[must_use]
    pub fn busy_us(&self, end: SimTime) -> f64 {
        self.state.borrow().busy.integral_us(end)
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
            s.in_use -= 1;
            s.note(now);
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
            s.in_use += 1;
            s.acquisitions += 1;
            s.note(now);
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
    /// Sleeps for `d` while continuing to hold the unit.
    pub fn delay(&self, d: Dur) -> crate::executor::Delay {
        self.res.ctx.delay(d)
    }

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
                g.delay(Dur::from_us(us)).await;
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
                g.delay(Dur::from_us(5.0)).await;
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
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_rejected() {
        let sim = Simulation::new();
        let _ = Resource::new(&sim.ctx(), 0);
    }
}
