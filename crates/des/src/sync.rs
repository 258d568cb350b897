//! Inter-process synchronisation primitives for simulation tasks.
//!
//! These mirror the shared-memory structures of the paper: [`Channel`]
//! models FIFO queues (command queues, network FIFOs), and [`Counter`]
//! models the lsync/rsync-style synchronisation flags and Split-C
//! split-phase counters.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Error returned by [`Channel::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is bounded and at capacity.
    Full(T),
    /// The channel has been closed.
    Closed(T),
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "channel is full"),
            TrySendError::Closed(_) => write!(f, "channel is closed"),
        }
    }
}

/// A parked waiter: the registration key of its future plus the waker to
/// call. Keys let a dropped future remove (or hand over) exactly its own
/// entry — see [`WaiterQueue`].
type Waiter = (u64, Waker);

/// FIFO of parked waiters. Each waiting future owns a unique key; dropping
/// the future unregisters it, so abandoned waits can neither leak wakers
/// nor swallow a wake meant for a live waiter.
#[derive(Default)]
struct WaiterQueue {
    q: VecDeque<Waiter>,
}

impl WaiterQueue {
    /// Parks (or re-parks) waiter `key`. A waiter that is still queued has
    /// its waker refreshed in place, keeping its FIFO position; one that
    /// was popped by a wake re-registers at the back, as a fresh wait.
    fn park(&mut self, key: u64, waker: &Waker) {
        match self.q.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1.clone_from(waker),
            None => self.q.push_back((key, waker.clone())),
        }
    }

    /// Wakes the longest-parked waiter, if any.
    fn wake_one(&mut self) {
        if let Some((_, w)) = self.q.pop_front() {
            w.wake();
        }
    }

    fn wake_all(&mut self) {
        for (_, w) in self.q.drain(..) {
            w.wake();
        }
    }

    /// Removes waiter `key`. Returns false if it was not queued — meaning
    /// a wake was already consumed on its behalf.
    fn unpark(&mut self, key: u64) -> bool {
        let before = self.q.len();
        self.q.retain(|(k, _)| *k != key);
        self.q.len() != before
    }
}

struct ChanState<T> {
    buf: VecDeque<T>,
    capacity: Option<usize>,
    closed: bool,
    recv_wakers: WaiterQueue,
    send_wakers: WaiterQueue,
    /// Source of registration keys for both waiter queues.
    next_waiter: u64,
    /// High-water mark of queue occupancy, for contention statistics.
    max_len: usize,
}

impl<T> ChanState<T> {
    fn wake_one_receiver(&mut self) {
        self.recv_wakers.wake_one();
    }
    fn wake_one_sender(&mut self) {
        self.send_wakers.wake_one();
    }
    fn wake_all(&mut self) {
        self.recv_wakers.wake_all();
        self.send_wakers.wake_all();
    }
}

/// A deterministic FIFO channel between simulation processes.
///
/// Cloning yields another handle to the same channel; the channel closes
/// when [`Channel::close`] is called (all handles observe it).
///
/// # Examples
///
/// ```
/// use mproxy_des::{Channel, Simulation};
///
/// let sim = Simulation::new();
/// let ch = Channel::unbounded();
/// let rx = ch.clone();
/// sim.spawn(async move {
///     ch.try_send("hello").unwrap();
///     ch.close();
/// });
/// sim.spawn(async move {
///     assert_eq!(rx.recv().await, Some("hello"));
///     assert_eq!(rx.recv().await, None);
/// });
/// assert!(sim.run().completed_cleanly());
/// ```
pub struct Channel<T> {
    state: Rc<RefCell<ChanState<T>>>,
}

impl<T> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel {
            state: Rc::clone(&self.state),
        }
    }
}

impl<T> Default for Channel<T> {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl<T> Channel<T> {
    /// Creates a channel with no capacity limit.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::with_state(None)
    }

    /// Creates a channel that holds at most `capacity` queued items;
    /// [`Channel::send`] blocks while full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (rendezvous channels are not supported).
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "bounded channel capacity must be > 0");
        Self::with_state(Some(capacity))
    }

    fn with_state(capacity: Option<usize>) -> Self {
        Channel {
            state: Rc::new(RefCell::new(ChanState {
                buf: VecDeque::new(),
                capacity,
                closed: false,
                recv_wakers: WaiterQueue::default(),
                send_wakers: WaiterQueue::default(),
                next_waiter: 0,
                max_len: 0,
            })),
        }
    }

    /// Attempts to enqueue without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`TrySendError::Full`] if bounded and at capacity, or
    /// [`TrySendError::Closed`] if the channel is closed.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut s = self.state.borrow_mut();
        if s.closed {
            return Err(TrySendError::Closed(value));
        }
        if let Some(cap) = s.capacity {
            if s.buf.len() >= cap {
                return Err(TrySendError::Full(value));
            }
        }
        s.buf.push_back(value);
        s.max_len = s.max_len.max(s.buf.len());
        s.wake_one_receiver();
        Ok(())
    }

    /// Enqueues, waiting for space if the channel is bounded and full.
    ///
    /// Resolves to `false` if the channel closed before the value could be
    /// enqueued (the value is dropped in that case).
    pub fn send(&self, value: T) -> Send<'_, T> {
        Send {
            chan: self,
            value: Some(value),
            key: None,
        }
    }

    /// Dequeues, waiting until an item is available.
    ///
    /// Resolves to `None` once the channel is closed *and* drained.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv {
            chan: self,
            key: None,
        }
    }

    /// Attempts to dequeue without blocking.
    pub fn try_recv(&self) -> Option<T> {
        let mut s = self.state.borrow_mut();
        let v = s.buf.pop_front();
        if v.is_some() {
            s.wake_one_sender();
        }
        v
    }

    /// Closes the channel, waking all blocked processes.
    pub fn close(&self) {
        let mut s = self.state.borrow_mut();
        s.closed = true;
        s.wake_all();
    }

    /// Number of queued items.
    #[must_use]
    fn len(&self) -> usize {
        self.state.borrow().buf.len()
    }

    /// True if [`Channel::close`] has been called.
    #[must_use]
    fn is_closed(&self) -> bool {
        self.state.borrow().closed
    }

    /// Largest queue occupancy observed so far.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.state.borrow().max_len
    }
}

impl<T> fmt::Debug for Channel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Channel")
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// Future returned by [`Channel::send`].
pub struct Send<'a, T> {
    chan: &'a Channel<T>,
    value: Option<T>,
    key: Option<u64>,
}

impl<T> Unpin for Send<'_, T> {}

impl<T> Future for Send<'_, T> {
    type Output = bool;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let this = self.get_mut();
        let value = this.value.take().expect("polled Send after completion");
        match this.chan.try_send(value) {
            Ok(()) => {
                this.finish();
                Poll::Ready(true)
            }
            Err(TrySendError::Closed(_)) => {
                this.finish();
                Poll::Ready(false)
            }
            Err(TrySendError::Full(v)) => {
                this.value = Some(v);
                let mut s = this.chan.state.borrow_mut();
                let key = *this.key.get_or_insert_with(|| {
                    let k = s.next_waiter;
                    s.next_waiter += 1;
                    k
                });
                s.send_wakers.park(key, cx.waker());
                Poll::Pending
            }
        }
    }
}

impl<T> Send<'_, T> {
    /// Retires this future's registration on completion, so its `Drop`
    /// does not mistake the consumed wake for an abandoned one.
    fn finish(&mut self) {
        if let Some(k) = self.key.take() {
            self.chan.state.borrow_mut().send_wakers.unpark(k);
        }
    }
}

impl<T> Drop for Send<'_, T> {
    fn drop(&mut self) {
        let Some(k) = self.key.take() else { return };
        let mut s = self.chan.state.borrow_mut();
        if !s.send_wakers.unpark(k) {
            // A wake was consumed for this future but never acted on. If
            // there is still room (or the channel closed), hand the wake
            // to the next parked sender so it is not stranded.
            let has_room = s.capacity.is_none_or(|cap| s.buf.len() < cap);
            if has_room || s.closed {
                s.wake_one_sender();
            }
        }
    }
}

/// Future returned by [`Channel::recv`].
pub struct Recv<'a, T> {
    chan: &'a Channel<T>,
    key: Option<u64>,
}

impl<T> Unpin for Recv<'_, T> {}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let this = self.get_mut();
        let mut s = this.chan.state.borrow_mut();
        if let Some(v) = s.buf.pop_front() {
            s.wake_one_sender();
            if let Some(k) = this.key.take() {
                s.recv_wakers.unpark(k);
            }
            return Poll::Ready(Some(v));
        }
        if s.closed {
            if let Some(k) = this.key.take() {
                s.recv_wakers.unpark(k);
            }
            return Poll::Ready(None);
        }
        let key = *this.key.get_or_insert_with(|| {
            let k = s.next_waiter;
            s.next_waiter += 1;
            k
        });
        s.recv_wakers.park(key, cx.waker());
        Poll::Pending
    }
}

impl<T> Drop for Recv<'_, T> {
    fn drop(&mut self) {
        let Some(k) = self.key.take() else { return };
        let mut s = self.chan.state.borrow_mut();
        if !s.recv_wakers.unpark(k) {
            // A wake was consumed for this future but never acted on. If
            // an item (or the close) is still there to observe, hand the
            // wake to the next parked receiver so it is not stranded.
            if !s.buf.is_empty() || s.closed {
                s.wake_one_receiver();
            }
        }
    }
}

struct CounterState {
    count: u64,
    /// `(key, target, waker)` per parked waiter.
    waiters: Vec<(u64, u64, Waker)>,
    next_waiter: u64,
}

/// A monotonically increasing counter with threshold waits.
///
/// This is the shape of the paper's synchronisation flags: an agent
/// (proxy, adapter, interrupt handler) *increments*; user code *waits* for
/// a target count, which supports split-phase operation batches.
///
/// # Examples
///
/// ```
/// use mproxy_des::{Counter, Simulation};
///
/// let sim = Simulation::new();
/// let done = Counter::new();
/// let waiter = done.clone();
/// sim.spawn(async move {
///     waiter.wait_for(2).await;
/// });
/// sim.spawn(async move {
///     done.add(1);
///     done.add(1);
/// });
/// assert!(sim.run().completed_cleanly());
/// ```
#[derive(Clone)]
pub struct Counter {
    state: Rc<RefCell<CounterState>>,
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter {
            state: Rc::new(RefCell::new(CounterState {
                count: 0,
                waiters: Vec::new(),
                next_waiter: 0,
            })),
        }
    }

    /// Adds `n`, waking any waiter whose threshold is now met.
    pub fn add(&self, n: u64) {
        let mut s = self.state.borrow_mut();
        s.count += n;
        let count = s.count;
        let mut i = 0;
        while i < s.waiters.len() {
            if s.waiters[i].1 <= count {
                let (_, _, w) = s.waiters.swap_remove(i);
                w.wake();
            } else {
                i += 1;
            }
        }
    }

    /// Increments by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.state.borrow().count
    }

    /// Waits until the counter reaches at least `target`.
    pub fn wait_for(&self, target: u64) -> CounterWait {
        CounterWait {
            state: Rc::clone(&self.state),
            target,
            key: None,
        }
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter")
            .field("count", &self.get())
            .finish()
    }
}

/// Future returned by [`Counter::wait_for`].
pub struct CounterWait {
    state: Rc<RefCell<CounterState>>,
    target: u64,
    key: Option<u64>,
}

impl Unpin for CounterWait {}

impl Future for CounterWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut s = this.state.borrow_mut();
        if s.count >= this.target {
            if let Some(k) = this.key.take() {
                s.waiters.retain(|(id, _, _)| *id != k);
            }
            Poll::Ready(())
        } else {
            let key = match this.key {
                Some(k) => k,
                None => {
                    let k = s.next_waiter;
                    s.next_waiter += 1;
                    this.key = Some(k);
                    k
                }
            };
            match s.waiters.iter_mut().find(|(k, _, _)| *k == key) {
                Some(slot) => slot.2.clone_from(cx.waker()),
                None => s.waiters.push((key, this.target, cx.waker().clone())),
            }
            Poll::Pending
        }
    }
}

impl Drop for CounterWait {
    fn drop(&mut self) {
        // The counter is monotonic and a met threshold stays met, so an
        // abandoned wait only has to remove its own parked waker.
        if let Some(k) = self.key.take() {
            self.state
                .borrow_mut()
                .waiters
                .retain(|(id, _, _)| *id != k);
        }
    }
}

#[cfg(test)]
mod tests;
