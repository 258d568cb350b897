//! Clean spinners: polling processes kept out of the calendar while
//! nothing could change what they see (see the executor's "Hot-path
//! design").
//!
//! A spinner is a task in [`crate::Resource::spin_until`]: it holds a unit
//! in back-to-back periods and runs a pure probe at the end of each. When
//! a probe misses and the unit is granted at once, the task registers here
//! instead of pushing its next wake: it is *clean*. While it stays clean,
//! no other code runs and no sequence number is issued, so every wake it
//! skips would have run the same probe on the same state and missed.
//!
//! The executor *materialises* the clean spinners just before any other
//! activity: each one's wake is pushed at its first grid point
//! (`since + k·period`, `k ≥ 1`) at or after now. Spinners that share that
//! instant are pushed in order of their virtual push instant (the grid
//! point one period earlier, when the per-miss loop would have pushed the
//! wake), then latest registration instant first, then registration order.
//! Every calendar entry was pushed before the spinner registered, so a
//! fresh sequence number gives each wake the very position its per-miss
//! chain would have reached.

use std::cmp::Reverse;

use super::TaskId;
use crate::time::{Dur, SimTime};

/// The first wake of a spinner that last probed at `since`, at or after
/// `now`: `since + k·period` with the smallest `k ≥ 1`. Returns the
/// instant and `k`; the `k − 1` wakes before it were elided.
pub(crate) fn next_wake(since: SimTime, period: Dur, now: SimTime) -> (SimTime, u64) {
    let p = period.as_ns();
    let k = now.since(since).as_ns().div_ceil(p).max(1);
    (since + Dur::from_ns(k * p), k)
}

struct Spinner {
    task: TaskId,
    since: SimTime,
    period: Dur,
}

/// The clean spinners, in registration order.
#[derive(Default)]
pub(super) struct Spinners {
    clean: Vec<Spinner>,
}

impl Spinners {
    pub(super) fn is_empty(&self) -> bool {
        self.clean.is_empty()
    }

    /// Registers `task`, which probed and missed at `since` and now holds
    /// its unit for `period`.
    pub(super) fn register(&mut self, task: TaskId, since: SimTime, period: Dur) {
        self.clean.push(Spinner {
            task,
            since,
            period,
        });
    }

    /// Hands every clean spinner's wake to `push`, in calendar order, and
    /// returns the number of wakes elided.
    pub(super) fn materialise(
        &mut self,
        now: SimTime,
        mut push: impl FnMut(SimTime, TaskId),
    ) -> u64 {
        // Only ties at one instant matter to the calendar, and spinners
        // tie on the push instant only with one period and phase. Of those,
        // the latest to register pushed first: its wake at its registration
        // instant really ran, while the others' wakes there were virtual,
        // and virtual wakes follow every real entry at their instant. The
        // sort is stable, so spinners that registered at one instant keep
        // registration order.
        if self.clean.len() > 1 {
            self.clean.sort_by_key(|s| {
                let push = next_wake(s.since, s.period, now).0 - s.period;
                (push, Reverse(s.since))
            });
        }
        let mut elided = 0;
        for s in self.clean.drain(..) {
            let (at, k) = next_wake(s.since, s.period, now);
            elided += k - 1;
            push(at, s.task);
        }
        elided
    }
}

#[cfg(test)]
mod tests;
