//! The simulated-time async executor.
//!
//! Simulation *processes* (the user programs, message proxies, network
//! adapters, DMA engines, ... of the paper's execution-driven simulator) are
//! plain Rust futures. Awaiting a [`SimCtx::delay`] advances the process to
//! a later simulated instant; awaiting a channel, signal or resource from
//! [`crate::sync`] / [`crate::resource`] blocks it until another process
//! acts. The executor is strictly deterministic: events fire in
//! `(time, creation sequence)` order and ready tasks are polled FIFO.
//!
//! # Hot-path design
//!
//! The engine is single-threaded, so nothing on the critical path takes a
//! lock. Tasks live in a *slab* — a `Vec` of slots indexed by the low bits
//! of [`TaskId`], with a generation counter in the high bits so a stale
//! wake for a completed (and recycled) slot is rejected instead of polling
//! an unrelated task. Each task gets exactly one [`Waker`], created at
//! spawn and reused for every poll. The ready queue is a plain
//! `Rc<RefCell<VecDeque<TaskId>>>`; because the `Wake` trait demands
//! `Send + Sync`, wakers reach it through a thread-local registry of weak
//! queue references keyed by a globally unique epoch (see
//! [`TaskWaker`]) rather than owning an `Arc<Mutex<…>>`.
//!
//! The calendar is a binary heap of 16-byte `(instant, sequence | slot)`
//! keys over a slab of wake actions (`calendar.rs`), so a sift moves two
//! words, not a waker or a boxed callback. It is cancellation-aware: a
//! [`Timer`] can be disarmed through its [`TimerHandle`] (the reliable
//! link layer does this for every acknowledged retransmit timer), and
//! cancelled entries are discarded lazily when they surface at the top of
//! the heap — without advancing simulated time or counting as events, so
//! reproductions stay byte-identical whether or not timers were cancelled.
//!
//! A polling process costs events only when something could have changed
//! what it sees. A task spinning in [`crate::Resource::spin_until`] whose
//! probe missed registers as a *clean spinner* (`spin.rs`) instead of
//! pushing its next wake; the wakes it would have run are pure misses
//! until its [`Watch`] is touched. The executor *materialises* it — pushes
//! its wake at its first grid point at or after now, in the calendar
//! position its per-miss chain would have reached — only on a touch of
//! that watch, or on a calendar push for exactly that instant, which the
//! per-miss wake must precede. A pop and a ready-queue poll never look at
//! the spinners, and a push with none clean pays one branch. A
//! materialised wake whose watch was not touched since the spinner's last
//! real probe is skipped: the spinner is clean again at that instant, its
//! task not polled. Times, tie order and resource accounting come out
//! bit-identical to the per-miss loop; [`RunReport::events`] counts the
//! entries that ran, and `events + polls_elided` is the per-miss count.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::time::{Dur, SimTime};

mod calendar;
mod spin;
mod timer;
mod waker;
use calendar::Calendar;
pub(crate) use spin::next_wake;
pub use spin::Watch;
use spin::{Spinners, WatchCell};
pub use timer::{Timer, TimerHandle, TimerOutcome};
use timer::{TimerCell, TimerState};
use waker::{register_ready_queue, ReadyQueue, TaskWaker};

/// Identifier of a spawned simulation task: slab index in the low 32 bits,
/// slot generation in the high 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(u64);

impl TaskId {
    fn from_parts(index: usize, generation: u32) -> Self {
        TaskId((u64::from(generation) << 32) | index as u64)
    }

    fn index(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

enum WakeKind {
    /// Wake a task directly (plain [`Delay`]).
    Task(Waker),
    /// Fire a cancellable [`Timer`].
    Timer(Rc<TimerCell>),
    /// Run a one-shot callback ([`SimCtx::call_after`]).
    Call(Box<dyn FnOnce()>),
    /// Poll a task directly — the fast path for a [`Delay`] awaited by
    /// the task itself (no waker round trip; stale ids are rejected by
    /// the slab generation check).
    Poll(TaskId),
    /// A materialised spinner's wake, by its slot in [`Spinners`]: polls
    /// the task if its watch was touched, or skips the wake.
    Spin(u32),
}

impl WakeKind {
    fn is_cancelled(&self) -> bool {
        matches!(self, WakeKind::Timer(cell) if cell.state.get() == TimerState::Cancelled)
    }
}

/// One slab slot. `generation` is bumped when the occupying task completes,
/// invalidating any [`TaskId`] (and queued wakes) that still point here.
#[derive(Default)]
struct TaskSlot {
    generation: u32,
    fut: Option<BoxFuture>,
    /// The task's one reusable waker; behind `Rc` so each poll borrows it
    /// without touching the `Waker`'s atomic reference count.
    waker: Option<Rc<Waker>>,
}

struct Core {
    now: SimTime,
    calendar: Calendar,
    spinners: Spinners,
    ready: ReadyQueue,
    registry_slot: usize,
    registry_epoch: u64,
    slab: Vec<TaskSlot>,
    free: Vec<usize>,
    /// Task currently inside [`Simulation::poll_task`], if any — lets
    /// `Delay` schedule a direct poll instead of a waker round trip.
    current: Option<TaskId>,
    spawned: u64,
    completed: u64,
    events: u64,
    polls_elided: u64,
    timers_armed: u64,
    timers_cancelled: u64,
    timers_fired: u64,
}

impl Core {
    fn new() -> Self {
        let ready: ReadyQueue = Rc::new(RefCell::new(VecDeque::new()));
        let (registry_slot, registry_epoch) = register_ready_queue(&ready);
        Core {
            now: SimTime::ZERO,
            calendar: Calendar::new(),
            spinners: Spinners::default(),
            ready,
            registry_slot,
            registry_epoch,
            slab: Vec::new(),
            free: Vec::new(),
            spawned: 0,
            completed: 0,
            current: None,
            events: 0,
            polls_elided: 0,
            timers_armed: 0,
            timers_cancelled: 0,
            timers_fired: 0,
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    /// Registers a wakeup at `at` (clamped to be no earlier than now).
    ///
    /// When `waker` is the cached waker of the task currently being
    /// polled — every ordinary `delay(..).await` — the calendar entry
    /// records the task id itself and the fire skips the waker, ready
    /// queue, and registry machinery entirely.
    fn schedule(&mut self, at: SimTime, waker: &Waker) {
        match self.awaiting_task(waker) {
            Some(id) => self.push_calendar(at, WakeKind::Poll(id)),
            None => self.push_calendar(at, WakeKind::Task(waker.clone())),
        }
    }

    /// The id of the task being polled, if `w` is that task's own waker.
    fn awaiting_task(&self, w: &Waker) -> Option<TaskId> {
        let id = self.current?;
        let slot = self.slab.get(id.index())?;
        if slot.generation != id.generation() {
            return None;
        }
        match &slot.waker {
            Some(tw) if w.will_wake(tw) => Some(id),
            _ => None,
        }
    }

    fn schedule_timer(&mut self, at: SimTime, cell: Rc<TimerCell>) {
        self.push_calendar(at, WakeKind::Timer(cell));
    }

    fn schedule_call(&mut self, at: SimTime, f: Box<dyn FnOnce()>) {
        self.push_calendar(at, WakeKind::Call(f));
    }

    /// Queues `kind` at `at`, after the wakes of any clean spinners whose
    /// next wake is exactly `at`.
    fn push_calendar(&mut self, at: SimTime, kind: WakeKind) {
        let at = at.max(self.now);
        if !self.spinners.is_empty() {
            self.coincide(at);
        }
        self.calendar.push(at, kind);
    }

    /// Materialises the clean spinners whose next wake is `at`: the
    /// per-miss loop pushed those wakes a period ago, so they come first.
    /// Out of line, so `push_calendar` stays small enough to inline into
    /// every delay and hold: inlined, it slowed a one-entry delay chain by
    /// about 5 %.
    #[inline(never)]
    fn coincide(&mut self, at: SimTime) {
        let calendar = &mut self.calendar;
        self.polls_elided += self.spinners.materialise_at(self.now, at, &mut |at, slot| {
            calendar.push(at, WakeKind::Spin(slot));
        });
    }

    /// A watch with clean spinners on it was touched: materialises them.
    fn touched(&mut self, watch: &WatchCell) {
        let calendar = &mut self.calendar;
        self.polls_elided += self
            .spinners
            .materialise_watch(self.now, watch, &mut |at, slot| {
                calendar.push(at, WakeKind::Spin(slot));
            });
    }

    fn spawn(&mut self, fut: BoxFuture) -> TaskId {
        self.spawned += 1;
        let index = self.free.pop().unwrap_or_else(|| {
            self.slab.push(TaskSlot::default());
            self.slab.len() - 1
        });
        let id = TaskId::from_parts(index, self.slab[index].generation);
        let waker = Rc::new(Waker::from(Arc::new(TaskWaker {
            slot: self.registry_slot,
            epoch: self.registry_epoch,
            id,
        })));
        let slot = &mut self.slab[index];
        slot.fut = Some(fut);
        slot.waker = Some(waker);
        self.ready.borrow_mut().push_back(id);
        id
    }
}

/// A cloneable handle onto the running simulation, passed into every process.
///
/// `SimCtx` is how a process reads the clock, sleeps, and spawns further
/// processes. It is cheap to clone and not `Send` (the engine is
/// single-threaded and deterministic).
///
/// # Examples
///
/// ```
/// use mproxy_des::{Dur, Simulation};
///
/// let sim = Simulation::new();
/// let ctx = sim.ctx();
/// sim.spawn(async move {
///     ctx.delay(Dur::from_us(10.0)).await;
///     assert_eq!(ctx.now().as_us(), 10.0);
/// });
/// let report = sim.run();
/// assert!(report.completed_cleanly());
/// ```
#[derive(Clone)]
pub struct SimCtx {
    core: Rc<RefCell<Core>>,
}

impl SimCtx {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.borrow().now()
    }

    /// Returns a future that completes `d` later in simulated time.
    #[must_use]
    pub fn delay(&self, d: Dur) -> Delay {
        Delay {
            core: Rc::clone(&self.core),
            at: None,
            dur: d,
            scheduled: false,
        }
    }

    /// Returns a future that completes at instant `at` (immediately if in
    /// the past).
    #[must_use]
    pub fn delay_until(&self, at: SimTime) -> Delay {
        Delay {
            core: Rc::clone(&self.core),
            at: Some(at),
            dur: Dur::ZERO,
            scheduled: false,
        }
    }

    /// Returns a cancellable timer that fires `d` later in simulated time.
    ///
    /// Unlike [`SimCtx::delay`], the timer exposes a [`TimerHandle`]
    /// (via [`Timer::handle`]) that any other process can use to disarm
    /// it — the waiting process then completes immediately with
    /// [`TimerOutcome::Cancelled`] instead of sleeping out the full
    /// interval. The reliable link layer uses this to retire retransmit
    /// timers the moment an acknowledgment arrives.
    #[must_use]
    pub fn timer(&self, d: Dur) -> Timer {
        Timer::new(Rc::clone(&self.core), d)
    }

    /// Spawns a new simulation process.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) -> TaskId {
        self.core.borrow_mut().spawn(Box::pin(fut))
    }

    /// Schedules `waker` `d` from now, exactly as the first poll of an
    /// awaited [`Delay`] would, and returns that instant; `None` for a zero
    /// span, which needs no event. Lets another future sleep without a
    /// `Delay` of its own.
    pub(crate) fn wake_after(&self, d: Dur, waker: &Waker) -> Option<SimTime> {
        if d.is_zero() {
            return None;
        }
        let mut core = self.core.borrow_mut();
        let at = core.now + d;
        core.schedule(at, waker);
        Some(at)
    }

    /// Wakes a spinner `d` from now, for a hold begun by a probe of the
    /// state behind `watch` that missed in this same poll: when `waker` is
    /// the polled task's own, the task registers as a clean spinner and no
    /// calendar entry is pushed.
    ///
    /// # Panics
    ///
    /// Panics if `watch` belongs to another simulation.
    pub(crate) fn spin_after(&self, d: Dur, waker: &Waker, watch: &Watch) {
        assert!(
            watch.belongs_to(self),
            "spinning on another simulation's watch"
        );
        let mut core = self.core.borrow_mut();
        let now = core.now;
        match core.awaiting_task(waker) {
            Some(id) => core.spinners.register(id, now, d, watch),
            None => core.push_calendar(now + d, WakeKind::Task(waker.clone())),
        }
    }

    /// Runs `f` once, `d` later in simulated time.
    ///
    /// A scheduled callback is a single calendar entry — no task slot, no
    /// boxed future, no waker round trip — so it is the cheap way to model
    /// fire-and-forget hardware actions ("this packet lands on the remote
    /// FIFO in 0.8 µs"). The callback runs while the calendar is drained,
    /// before any process woken at the same instant is polled.
    pub fn call_after(&self, d: Dur, f: impl FnOnce() + 'static) {
        let mut core = self.core.borrow_mut();
        let at = core.now + d;
        core.schedule_call(at, Box::new(f));
    }

    /// Yields to any other ready process at the same instant.
    ///
    /// Useful for modelling an agent that re-checks state in the same cycle
    /// after letting concurrent events land.
    #[must_use]
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }
}

impl std::fmt::Debug for SimCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCtx").field("now", &self.now()).finish()
    }
}

/// Future returned by [`SimCtx::delay`] and [`SimCtx::delay_until`].
pub struct Delay {
    core: Rc<RefCell<Core>>,
    /// Resolved absolute deadline; computed on first poll for `delay`.
    at: Option<SimTime>,
    dur: Dur,
    /// Whether the calendar wake-up has been registered.
    scheduled: bool,
}

impl std::fmt::Debug for Delay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Delay")
            .field("at", &self.at)
            .field("dur", &self.dur)
            .finish()
    }
}

impl Future for Delay {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = Pin::into_inner(self);
        let mut core = this.core.borrow_mut();
        let now = core.now;
        match this.at {
            Some(at) if now >= at => Poll::Ready(()),
            Some(at) => {
                // An absolute deadline ([`SimCtx::delay_until`]) arrives
                // here on its first poll: the wake-up must be scheduled
                // just like a relative delay's, or the task sleeps forever.
                if !this.scheduled {
                    this.scheduled = true;
                    core.schedule(at, cx.waker());
                }
                Poll::Pending
            }
            None => {
                let at = now + this.dur;
                this.at = Some(at);
                if now >= at {
                    return Poll::Ready(());
                }
                this.scheduled = true;
                core.schedule(at, cx.waker());
                Poll::Pending
            }
        }
    }
}

/// Future returned by [`SimCtx::yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Summary of a completed [`Simulation::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Simulated time when the run stopped.
    pub end: SimTime,
    /// Total processes spawned over the run.
    pub spawned: u64,
    /// Processes that ran to completion.
    pub completed: u64,
    /// Processes still pending when the run stopped (blocked forever).
    pub pending: u64,
    /// Calendar events processed. Cancelled timers do not count: their
    /// entries are discarded without firing. Neither do the wakes of clean
    /// spinners that were skipped, in the calendar or out of it
    /// (`polls_elided`).
    pub events: u64,
    /// Spinner wakes skipped because they could only have missed — never
    /// pushed, or popped with the spinner's watch untouched: each would
    /// have been one more empty poll, one event of a per-miss loop.
    /// `events + polls_elided` is the count that loop would have run.
    pub polls_elided: u64,
    /// Cancellable timers armed (scheduled into the calendar).
    pub timers_armed: u64,
    /// Timers disarmed via [`TimerHandle::cancel`] before firing.
    pub timers_cancelled: u64,
    /// Timers that reached their deadline and fired.
    pub timers_fired: u64,
    /// Peak simultaneous calendar occupancy over the run.
    pub calendar_peak: u64,
}

impl RunReport {
    /// True if every spawned process ran to completion.
    #[must_use]
    pub fn completed_cleanly(&self) -> bool {
        self.pending == 0
    }
}

/// A deterministic discrete-event simulation.
///
/// # Examples
///
/// Two processes handing a token back and forth through a channel:
///
/// ```
/// use mproxy_des::{Channel, Dur, Simulation};
///
/// let sim = Simulation::new();
/// let ctx = sim.ctx();
/// let ch: Channel<u32> = Channel::unbounded();
///
/// let (tx, rx) = (ch.clone(), ch);
/// let ctx2 = ctx.clone();
/// sim.spawn(async move {
///     ctx2.delay(Dur::from_us(5.0)).await;
///     tx.try_send(42).unwrap();
/// });
/// sim.spawn(async move {
///     let v = rx.recv().await.unwrap();
///     assert_eq!(v, 42);
///     assert_eq!(ctx.now().as_us(), 5.0);
/// });
/// assert!(sim.run().completed_cleanly());
/// ```
pub struct Simulation {
    core: Rc<RefCell<Core>>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at time zero.
    #[must_use]
    pub fn new() -> Self {
        Simulation {
            core: Rc::new(RefCell::new(Core::new())),
        }
    }

    /// Returns a handle for spawning processes and reading the clock.
    #[must_use]
    pub fn ctx(&self) -> SimCtx {
        SimCtx {
            core: Rc::clone(&self.core),
        }
    }

    /// Spawns a root process.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) -> TaskId {
        self.core.borrow_mut().spawn(Box::pin(fut))
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.borrow().now()
    }

    /// Runs until no process can make further progress.
    pub fn run(&self) -> RunReport {
        let ready = Rc::clone(&self.core.borrow().ready);
        loop {
            // Drain every task that is ready at the current instant. The
            // borrow is released before polling: the task re-enters the
            // queue through its `SimCtx` and wakers.
            loop {
                let next = ready.borrow_mut().pop_front();
                match next {
                    Some(id) => self.poll_task(id),
                    None => break,
                }
            }
            // Advance the clock to the next calendar event, lazily
            // discarding cancelled timers: they neither advance time nor
            // count as events, so cancellation is invisible to everything
            // that still runs. A spinner's wake that nothing touched is
            // skipped the same way, but at its instant, and counted as
            // elided. With the calendar empty, clean spinners would miss
            // forever: the run ends with them pending.
            let wake = {
                let mut core = self.core.borrow_mut();
                loop {
                    let Some((at, kind)) = core.calendar.pop() else {
                        break None;
                    };
                    if kind.is_cancelled() {
                        continue;
                    }
                    core.now = at;
                    if let WakeKind::Spin(slot) = kind {
                        let Some(id) = core.spinners.fire(slot, at) else {
                            core.polls_elided += 1;
                            continue;
                        };
                        core.events += 1;
                        break Some(WakeKind::Poll(id));
                    }
                    core.events += 1;
                    if let WakeKind::Timer(_) = &kind {
                        core.timers_fired += 1;
                    }
                    break Some(kind);
                }
            };
            match wake {
                Some(WakeKind::Task(w)) => w.wake(),
                Some(WakeKind::Poll(id)) => self.poll_task(id),
                Some(WakeKind::Spin(_)) => unreachable!("a spinner's wake becomes a poll"),
                Some(WakeKind::Call(f)) => f(),
                Some(WakeKind::Timer(cell)) => {
                    cell.state.set(TimerState::Fired);
                    if let Some(w) = cell.waker.borrow_mut().take() {
                        w.wake();
                    }
                }
                None => break,
            }
        }
        let core = self.core.borrow();
        RunReport {
            end: core.now,
            spawned: core.spawned,
            completed: core.completed,
            pending: core.spawned - core.completed,
            events: core.events,
            polls_elided: core.polls_elided,
            timers_armed: core.timers_armed,
            timers_cancelled: core.timers_cancelled,
            timers_fired: core.timers_fired,
            calendar_peak: core.calendar.peak() as u64,
        }
    }

    /// Polls task `id`.
    fn poll_task(&self, id: TaskId) {
        // Take the future out of its slot so the core is not borrowed while
        // polling (the task will re-borrow it through its `SimCtx`). The
        // generation check rejects wakes for slots that have been recycled.
        let (mut fut, waker) = {
            let mut core = self.core.borrow_mut();
            let index = id.index();
            let Some(slot) = core.slab.get_mut(index) else {
                return;
            };
            if slot.generation != id.generation() {
                // Stale wake: the task completed and its slot was reused.
                return;
            }
            let Some(fut) = slot.fut.take() else {
                // Duplicate wake in the same drain, or (impossible
                // single-threaded) already being polled; ignore.
                return;
            };
            let waker = Rc::clone(slot.waker.as_ref().expect("live task has a waker"));
            core.current = Some(id);
            (fut, waker)
        };
        let mut cx = Context::from_waker(&waker);
        let poll = fut.as_mut().poll(&mut cx);
        let mut core = self.core.borrow_mut();
        core.current = None;
        match poll {
            Poll::Ready(()) => {
                let index = id.index();
                let slot = &mut core.slab[index];
                slot.generation = slot.generation.wrapping_add(1);
                slot.waker = None;
                core.free.push(index);
                core.completed += 1;
            }
            Poll::Pending => {
                core.slab[id.index()].fut = Some(fut);
            }
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests;
