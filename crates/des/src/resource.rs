//! Contended hardware resources.
//!
//! A [`Resource`] models a server with `capacity` identical units —
//! a processor, a DMA engine, a network port, the message-proxy CPU. The
//! paper's simulator "accounts for contention for hardware resources within
//! a node, such as the processors, the DMA engines, and the network queues";
//! `Resource` is that mechanism, with FIFO queueing and utilisation
//! statistics (the "interface utilisation" column of Table 6).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::{Core, SimCtx};
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
/// let cpu = Resource::new(&ctx, "cpu", 1);
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
pub struct Resource {
    name: String,
    core: Rc<RefCell<Core>>,
    state: Rc<RefCell<ResState>>,
}

impl Clone for Resource {
    fn clone(&self) -> Self {
        Resource {
            name: self.name.clone(),
            core: Rc::clone(&self.core),
            state: Rc::clone(&self.state),
        }
    }
}

impl Resource {
    /// Creates a resource with `capacity` units.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(ctx: &SimCtx, name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "resource capacity must be > 0");
        let now = ctx.now();
        Resource {
            name: name.into(),
            core: Rc::clone(ctx.core()),
            state: Rc::new(RefCell::new(ResState {
                capacity,
                in_use: 0,
                queue: VecDeque::new(),
                busy: TimeWeighted::new(now, 0.0),
                acquisitions: 0,
            })),
        }
    }

    /// Resource name (for reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total units.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.state.borrow().capacity
    }

    /// Units currently held.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.state.borrow().in_use
    }

    /// Acquires one unit, waiting FIFO behind earlier requests.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            res: self.clone(),
            slot: None,
        }
    }

    /// Acquires one unit, holds it for `d`, then releases — the common
    /// "charge service time on this resource" idiom.
    pub async fn hold(&self, d: Dur) {
        let guard = self.acquire().await;
        guard.delay(d).await;
        drop(guard);
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

    fn now(&self) -> SimTime {
        self.core.borrow().now()
    }

    fn release_one(&self) {
        let now = self.now();
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
            .field("name", &self.name)
            .field("capacity", &s.capacity)
            .field("in_use", &s.in_use)
            .field("queued", &s.queue.len())
            .finish()
    }
}

/// Future returned by [`Resource::acquire`].
pub struct Acquire {
    res: Resource,
    slot: Option<Rc<RefCell<WaitSlot>>>,
}

impl Future for Acquire {
    type Output = ResourceGuard;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<ResourceGuard> {
        // Fast path / re-poll path.
        if let Some(slot) = &self.slot {
            let granted = slot.borrow().granted;
            if granted {
                self.res.state.borrow_mut().acquisitions += 1;
                self.slot = None;
                return Poll::Ready(ResourceGuard {
                    res: self.res.clone(),
                    released: false,
                });
            }
            slot.borrow_mut().waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let now = self.res.now();
        let mut s = self.res.state.borrow_mut();
        if s.queue.is_empty() && s.in_use < s.capacity {
            s.in_use += 1;
            s.acquisitions += 1;
            s.note(now);
            drop(s);
            Poll::Ready(ResourceGuard {
                res: self.res.clone(),
                released: false,
            })
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

impl Drop for Acquire {
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
pub struct ResourceGuard {
    res: Resource,
    released: bool,
}

impl ResourceGuard {
    /// Sleeps for `d` while continuing to hold the unit.
    pub fn delay(&self, d: Dur) -> crate::executor::Delay {
        let ctx = SimCtx::from_core(Rc::clone(&self.res.core));
        ctx.delay(d)
    }

    /// Releases explicitly (equivalent to dropping the guard).
    pub fn release(mut self) {
        self.released = true;
        self.res.release_one();
    }
}

impl Drop for ResourceGuard {
    fn drop(&mut self) {
        if !self.released {
            self.res.release_one();
        }
    }
}

impl fmt::Debug for ResourceGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResourceGuard")
            .field("resource", &self.res.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use std::cell::Cell;

    #[test]
    fn serializes_on_single_unit_fifo() {
        let sim = Simulation::new();
        let ctx = sim.ctx();
        let r = Resource::new(&ctx, "srv", 1);
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
        let r = Resource::new(&ctx, "srv", 2);
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
        let r = Resource::new(&ctx, "srv", 1);
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
        let r = Resource::new(&ctx, "srv", 1);
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

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_rejected() {
        let sim = Simulation::new();
        let _ = Resource::new(&sim.ctx(), "bad", 0);
    }
}
