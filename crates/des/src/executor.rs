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
//! The calendar is cancellation-aware: a [`Timer`] can be disarmed through
//! its [`TimerHandle`] (the reliable link layer does this for every
//! acknowledged retransmit timer), and cancelled entries are discarded
//! lazily when they surface at the top of the heap — without advancing
//! simulated time or counting as events, so reproductions stay
//! byte-identical whether or not timers were cancelled.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::time::{Dur, SimTime};

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

/// FIFO of tasks that are ready to be polled. Single-threaded: wakers reach
/// it through the thread-local registry below, never across threads.
type ReadyQueue = Rc<RefCell<VecDeque<TaskId>>>;

/// A registry entry: the epoch the slot was (re)assigned under, plus a weak
/// handle to the simulation's ready queue.
type RegistryEntry = (u64, Weak<RefCell<VecDeque<TaskId>>>);

/// Monotonic source of registry epochs. Process-wide so an epoch value is
/// never reused — a waker that outlives its simulation (or crosses threads,
/// where a different registry lives) can only ever no-op.
static NEXT_REGISTRY_EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread table of live ready queues: `(epoch, queue)`. Slots of
    /// dropped simulations are recycled for new ones under a fresh epoch.
    static READY_REGISTRY: RefCell<Vec<RegistryEntry>> = const { RefCell::new(Vec::new()) };
}

/// Registers `ready` in this thread's registry, returning its slot and epoch.
fn register_ready_queue(ready: &ReadyQueue) -> (usize, u64) {
    let epoch = NEXT_REGISTRY_EPOCH.fetch_add(1, Ordering::Relaxed);
    READY_REGISTRY.with(|reg| {
        let mut reg = reg.borrow_mut();
        let weak = Rc::downgrade(ready);
        for (slot, entry) in reg.iter_mut().enumerate() {
            if entry.1.strong_count() == 0 {
                *entry = (epoch, weak);
                return (slot, epoch);
            }
        }
        reg.push((epoch, weak));
        (reg.len() - 1, epoch)
    })
}

/// The one waker a task ever gets, created at spawn and reused for every
/// poll. It carries no owning pointer — only the registry coordinates of
/// its simulation's ready queue — so it satisfies the `Send + Sync`
/// contract of [`Wake`] while the queue itself stays single-threaded. A
/// wake after the simulation is gone (epoch mismatch or dead weak) is a
/// silent no-op, and a wake for a completed task is rejected by the slab's
/// generation check when it is popped.
struct TaskWaker {
    slot: usize,
    epoch: u64,
    id: TaskId,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        READY_REGISTRY.with(|reg| {
            let reg = reg.borrow();
            if let Some((epoch, queue)) = reg.get(self.slot) {
                if *epoch == self.epoch {
                    if let Some(queue) = queue.upgrade() {
                        queue.borrow_mut().push_back(self.id);
                    }
                }
            }
        });
    }
}

/// Lifecycle of a [`Timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerState {
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
struct TimerCell {
    state: Cell<TimerState>,
    waker: RefCell<Option<Waker>>,
}

/// How a [`Timer`] completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerOutcome {
    /// The deadline was reached.
    Fired,
    /// [`TimerHandle::cancel`] disarmed the timer first.
    Cancelled,
}

/// An entry in the event calendar, ordered by `(at, seq)`.
struct TimedWake {
    at: SimTime,
    seq: u64,
    kind: WakeKind,
}

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
}

impl TimedWake {
    fn is_cancelled(&self) -> bool {
        match &self.kind {
            WakeKind::Task(_) | WakeKind::Call(_) | WakeKind::Poll(_) => false,
            WakeKind::Timer(cell) => cell.state.get() == TimerState::Cancelled,
        }
    }
}

impl PartialEq for TimedWake {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimedWake {}
impl PartialOrd for TimedWake {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimedWake {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
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

pub(crate) struct Core {
    now: SimTime,
    next_seq: u64,
    calendar: BinaryHeap<Reverse<TimedWake>>,
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
    timers_armed: u64,
    timers_cancelled: u64,
    timers_fired: u64,
    calendar_peak: u64,
}

impl Core {
    fn new() -> Self {
        let ready: ReadyQueue = Rc::new(RefCell::new(VecDeque::new()));
        let (registry_slot, registry_epoch) = register_ready_queue(&ready);
        Core {
            now: SimTime::ZERO,
            next_seq: 0,
            calendar: BinaryHeap::new(),
            ready,
            registry_slot,
            registry_epoch,
            slab: Vec::new(),
            free: Vec::new(),
            spawned: 0,
            completed: 0,
            current: None,
            events: 0,
            timers_armed: 0,
            timers_cancelled: 0,
            timers_fired: 0,
            calendar_peak: 0,
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Registers a wakeup at `at` (clamped to be no earlier than now).
    ///
    /// When `waker` is the cached waker of the task currently being
    /// polled — every ordinary `delay(..).await` — the calendar entry
    /// records the task id itself and the fire skips the waker, ready
    /// queue, and registry machinery entirely.
    pub(crate) fn schedule(&mut self, at: SimTime, waker: &Waker) {
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

    fn push_calendar(&mut self, at: SimTime, kind: WakeKind) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.calendar.push(Reverse(TimedWake { at, seq, kind }));
        self.calendar_peak = self.calendar_peak.max(self.calendar.len() as u64);
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
        Timer {
            core: Rc::clone(&self.core),
            cell: Rc::new(TimerCell {
                state: Cell::new(TimerState::Idle),
                waker: RefCell::new(None),
            }),
            dur: d,
        }
    }

    /// Spawns a new simulation process.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) -> TaskId {
        self.core.borrow_mut().spawn(Box::pin(fut))
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

    pub(crate) fn core(&self) -> &Rc<RefCell<Core>> {
        &self.core
    }

    pub(crate) fn from_core(core: Rc<RefCell<Core>>) -> Self {
        SimCtx { core }
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

/// A cancellable timer future, created by [`SimCtx::timer`].
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
    /// entries are discarded without firing.
    pub events: u64,
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
            // that still runs.
            let wake = {
                let mut core = self.core.borrow_mut();
                loop {
                    let Some(Reverse(tw)) = core.calendar.pop() else {
                        break None;
                    };
                    if tw.is_cancelled() {
                        continue;
                    }
                    core.now = tw.at;
                    core.events += 1;
                    if let WakeKind::Timer(_) = &tw.kind {
                        core.timers_fired += 1;
                    }
                    break Some(tw.kind);
                }
            };
            match wake {
                Some(WakeKind::Task(w)) => w.wake(),
                Some(WakeKind::Poll(id)) => self.poll_task(id),
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
            timers_armed: core.timers_armed,
            timers_cancelled: core.timers_cancelled,
            timers_fired: core.timers_fired,
            calendar_peak: core.calendar_peak,
        }
    }

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
mod tests {
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
}
