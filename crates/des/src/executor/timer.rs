//! Cancellable timers: [`SimCtx::timer`](crate::SimCtx::timer) and the
//! handle that disarms one (see the executor's "Hot-path design" for how
//! cancelled entries leave the calendar).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use super::Core;
use crate::time::Dur;

/// Lifecycle of a [`Timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TimerState {
    /// Created, not yet polled: no calendar entry exists.
    Idle,
    /// In the calendar, waiting to fire.
    Scheduled,
    /// Reached its deadline and woke its task.
    Fired,
    /// Disarmed via [`TimerHandle::cancel`]; its calendar entry (if any)
    /// will be discarded lazily.
    Cancelled,
}

/// Shared state between a [`Timer`] future, its [`TimerHandle`], and the
/// calendar entry.
pub(super) struct TimerCell {
    pub(super) state: Cell<TimerState>,
    pub(super) waker: RefCell<Option<Waker>>,
}

/// How a [`Timer`] completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerOutcome {
    /// The deadline was reached.
    Fired,
    /// [`TimerHandle::cancel`] disarmed the timer first.
    Cancelled,
}

/// A cancellable timer future, created by [`crate::SimCtx::timer`].
///
/// Resolves to [`TimerOutcome::Fired`] when the deadline passes, or to
/// [`TimerOutcome::Cancelled`] — immediately — if the timer is disarmed
/// through its [`TimerHandle`] first. The calendar entry of a cancelled
/// timer is discarded lazily and never advances simulated time, so
/// cancelling timers cannot perturb the event order of anything else.
pub struct Timer {
    core: Rc<RefCell<Core>>,
    cell: Rc<TimerCell>,
    dur: Dur,
}

impl Timer {
    pub(super) fn new(core: Rc<RefCell<Core>>, dur: Dur) -> Self {
        Timer {
            core,
            cell: Rc::new(TimerCell {
                state: Cell::new(TimerState::Idle),
                waker: RefCell::new(None),
            }),
            dur,
        }
    }

    /// Returns a handle that can disarm this timer from another process.
    #[must_use]
    pub fn handle(&self) -> TimerHandle {
        TimerHandle {
            core: Rc::clone(&self.core),
            cell: Rc::clone(&self.cell),
        }
    }
}

impl std::fmt::Debug for Timer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timer")
            .field("dur", &self.dur)
            .field("state", &self.cell.state.get())
            .finish()
    }
}

impl Future for Timer {
    type Output = TimerOutcome;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<TimerOutcome> {
        match self.cell.state.get() {
            TimerState::Fired => Poll::Ready(TimerOutcome::Fired),
            TimerState::Cancelled => Poll::Ready(TimerOutcome::Cancelled),
            TimerState::Idle => {
                let mut core = self.core.borrow_mut();
                core.timers_armed += 1;
                let at = core.now + self.dur;
                if core.now >= at {
                    core.timers_fired += 1;
                    self.cell.state.set(TimerState::Fired);
                    return Poll::Ready(TimerOutcome::Fired);
                }
                self.cell.state.set(TimerState::Scheduled);
                *self.cell.waker.borrow_mut() = Some(cx.waker().clone());
                core.schedule_timer(at, Rc::clone(&self.cell));
                Poll::Pending
            }
            TimerState::Scheduled => {
                *self.cell.waker.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Disarms a [`Timer`] from outside the process awaiting it.
///
/// Cancelling is idempotent: once the timer has fired or been cancelled,
/// further [`cancel`](TimerHandle::cancel) calls are no-ops.
#[derive(Clone)]
pub struct TimerHandle {
    core: Rc<RefCell<Core>>,
    cell: Rc<TimerCell>,
}

impl TimerHandle {
    /// Disarms the timer. The process awaiting it is woken at the current
    /// instant and observes [`TimerOutcome::Cancelled`]; the calendar entry
    /// is discarded lazily without firing.
    pub fn cancel(&self) {
        match self.cell.state.get() {
            TimerState::Fired | TimerState::Cancelled => {}
            TimerState::Idle | TimerState::Scheduled => {
                self.cell.state.set(TimerState::Cancelled);
                self.core.borrow_mut().timers_cancelled += 1;
                if let Some(w) = self.cell.waker.borrow_mut().take() {
                    w.wake();
                }
            }
        }
    }
}

impl std::fmt::Debug for TimerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerHandle")
            .field("state", &self.cell.state.get())
            .finish()
    }
}
