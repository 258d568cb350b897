//! The shared idle policy: yield → park.
//!
//! * [`Backoff`] — a per-wait escalation counter: `yield_now` (an
//!   oversubscribed host must let the producer run), and after
//!   16 fruitless yields the wait reports itself
//!   [`Backoff::is_parkable`];
//! * [`Parker`] — an explicit sleep/wake cell for waits that *have* a
//!   waker (the proxy thread: every enqueue onto one of its queues calls
//!   [`Parker::wake`]). Waits without a waker — user flag waits, whose
//!   flags are bumped by a proxy that does not know who is watching —
//!   simply stay in the yield phase.
//!
//! No wait spins: on a host where proxies share processors with user
//! threads, a spinning waiter holds the processor the thread it waits
//! for needs (EXPERIMENTS.md "The proxy's spin phase, deleted" and "No
//! waiter spins"). Untested: a processor per proxy, the paper's §4.1
//! setting, where spinning is what polling means.
//!
//! Parking keeps each proxy's own §5.4 busy-fraction sampling meaningful:
//! a parked proxy accrues no busy time *and* no longer burns a host CPU
//! converting idleness into scheduler noise.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Chunk length for [`sleep_unless`] — the longest an interruptible
/// sleeper can overshoot the abort signal.
const SLEEP_CHUNK: Duration = Duration::from_micros(200);

/// Sleeps for `dur` in small chunks, aborting early once `abort` reads
/// true. Returns `true` if the full duration elapsed, `false` on abort.
/// Used by every long runtime sleep that must still honour the cluster
/// stop signal: a dead proxy's restart backoff and interruptible injected
/// stalls — so neither can wedge shutdown for longer than one chunk.
pub fn sleep_unless(dur: Duration, abort: &AtomicBool) -> bool {
    let deadline = Instant::now() + dur;
    loop {
        if abort.load(Ordering::Relaxed) {
            return false;
        }
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            return true;
        };
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(SLEEP_CHUNK));
    }
}

/// Yields before a wait is parkable.
const YIELD_LIMIT: u32 = 16;

/// Escalating backoff for a single wait. Create one per wait (or
/// [`Backoff::reset`] after progress) and call [`Backoff::snooze`] each
/// time the awaited condition is still false.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// A fresh backoff, 16 yields from parkable.
    #[must_use]
    pub fn new() -> Backoff {
        Backoff { step: 0 }
    }

    /// Restarts the escalation (call after the wait made progress).
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Waits a little: one `yield_now`.
    pub fn snooze(&mut self) {
        std::thread::yield_now();
        self.step = self.step.saturating_add(1);
    }

    /// True once the yield phase is exhausted; a wait with a waker
    /// should now park instead of yielding forever.
    #[must_use]
    pub fn is_parkable(&self) -> bool {
        self.step >= YIELD_LIMIT
    }
}

/// Consumer states of a [`Parker`].
const AWAKE: u32 = 0;
const PARKED: u32 = 1;

/// A sleep/wake cell binding one sleeping consumer to many producers.
///
/// The consumer calls [`Parker::register`] once from its own thread,
/// then brackets each sleep with [`Parker::prepare_park`] → *re-check
/// the queues* → [`Parker::park`] (or [`Parker::cancel`] if the re-check
/// found work). Producers call [`Parker::wake`] after every enqueue; the
/// fast path when the consumer is running is a single atomic load.
///
/// The prepare/re-check/park order makes the handoff race-free: the
/// producer's enqueue precedes its wake-check of the state flag, and the
/// consumer publishes `PARKED` before re-checking the queues — whichever
/// side acts second sees the other (both accesses are `SeqCst`, so the
/// store and the opposing load cannot reorder). `std::thread`'s unpark
/// token is sticky, so a wake landing between the re-check and the
/// actual `park` just makes the park return immediately. A bounded park
/// timeout backstops the (impossible, but cheap to insure against)
/// missed wake.
#[derive(Debug, Default)]
pub struct Parker {
    state: AtomicU32,
    sleeper: Mutex<Option<Thread>>,
}

impl Parker {
    /// A new parker with no registered consumer.
    #[must_use]
    pub fn new() -> Parker {
        Parker::default()
    }

    /// Binds the calling thread as the consumer.
    pub fn register(&self) {
        *self
            .sleeper
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(std::thread::current());
    }

    /// Announces intent to sleep. Re-check every input queue *after*
    /// this, then call [`Parker::park`] or [`Parker::cancel`].
    pub fn prepare_park(&self) {
        self.state.store(PARKED, Ordering::SeqCst);
    }

    /// Abandons a prepared sleep (the re-check found work).
    pub fn cancel(&self) {
        self.state.store(AWAKE, Ordering::SeqCst);
    }

    /// Sleeps until woken or `timeout` elapses. Only the registered
    /// consumer thread may call this, after [`Parker::prepare_park`].
    pub fn park(&self, timeout: Duration) {
        std::thread::park_timeout(timeout);
        self.state.store(AWAKE, Ordering::SeqCst);
    }

    /// Wakes the consumer if it is parked (or about to park). Producers
    /// call this after enqueuing; when the consumer is awake this is one
    /// atomic load.
    pub fn wake(&self) {
        if self.state.load(Ordering::SeqCst) == PARKED {
            if let Some(t) = self
                .sleeper
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .as_ref()
            {
                t.unpark();
            }
        }
    }
}

#[cfg(test)]
impl Parker {
    /// True while the consumer is parked (or about to park).
    pub(crate) fn is_parked(&self) -> bool {
        self.state.load(Ordering::SeqCst) == PARKED
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Pressed exactly `YIELD_LIMIT` times, a backoff turns parkable, and
    /// not a snooze earlier; after `reset`, the same again.
    #[test]
    fn backoff_escalates_to_parkable() {
        let mut b = Backoff::new();
        for round in 0..2 {
            for _ in 0..YIELD_LIMIT - 1 {
                b.snooze();
            }
            assert!(!b.is_parkable(), "parkable a snooze early in round {round}");
            b.snooze();
            assert!(b.is_parkable(), "not parkable on time in round {round}");
            b.reset();
            assert!(!b.is_parkable(), "reset left it parkable");
        }
    }

    #[test]
    fn wake_interrupts_park() {
        let parker = Arc::new(Parker::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (p2, f2) = (Arc::clone(&parker), Arc::clone(&flag));
        let consumer = std::thread::spawn(move || {
            p2.register();
            loop {
                p2.prepare_park();
                if f2.load(Ordering::SeqCst) {
                    p2.cancel();
                    break;
                }
                p2.park(Duration::from_secs(60));
            }
        });
        // Give the consumer time to park, then hand it the flag.
        std::thread::sleep(Duration::from_millis(50));
        flag.store(true, Ordering::SeqCst);
        parker.wake();
        consumer.join().unwrap();
    }

    #[test]
    fn sleep_unless_completes_and_aborts() {
        let abort = AtomicBool::new(false);
        assert!(sleep_unless(Duration::from_millis(1), &abort));
        abort.store(true, Ordering::Relaxed);
        let t0 = Instant::now();
        assert!(!sleep_unless(Duration::from_secs(30), &abort));
        assert!(t0.elapsed() < Duration::from_secs(5), "abort ignored");
    }

    #[test]
    fn wake_before_park_is_not_lost() {
        let parker = Arc::new(Parker::new());
        parker.register();
        parker.prepare_park();
        parker.wake(); // sticky token
        let t0 = std::time::Instant::now();
        parker.park(Duration::from_secs(10));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "sticky unpark token must make park return immediately"
        );
    }
}
