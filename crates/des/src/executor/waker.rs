//! The ready-queue registry and the one waker each task gets (see the
//! executor's "Hot-path design").

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Wake;

use super::TaskId;

/// FIFO of tasks that are ready to be polled. Single-threaded: wakers reach
/// it through the thread-local registry below, never across threads.
pub(super) type ReadyQueue = Rc<RefCell<VecDeque<TaskId>>>;

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
pub(super) fn register_ready_queue(ready: &ReadyQueue) -> (usize, u64) {
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
pub(super) struct TaskWaker {
    pub(super) slot: usize,
    pub(super) epoch: u64,
    pub(super) id: TaskId,
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
