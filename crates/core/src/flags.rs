//! Synchronisation flags (Section 3).
//!
//! RMA and RQ operations are asynchronous; completion is signalled through
//! flags. `lsync` names a flag in the caller's space, `rsync` a flag in
//! the target space. Flags are monotone counters, so a batch of `n`
//! operations completes when the flag reaches `n` — the idiom every
//! split-phase layer (Split-C, CRL, collectives) builds on.

use mproxy_des::Counter;

use crate::addr::{FlagId, ProcId};

/// A completion flag owned by one process.
///
/// Created with [`crate::Proc::new_flag`]; flag slots are allocated in
/// deterministic order, so SPMD peers can name each other's flags by index
/// via [`crate::Proc::remote_flag`].
#[derive(Debug, Clone)]
pub struct SyncFlag {
    pub(crate) proc: ProcId,
    pub(crate) id: FlagId,
    pub(crate) counter: Counter,
}

impl SyncFlag {
    /// The flag slot within the owner's address space.
    #[must_use]
    pub fn id(&self) -> FlagId {
        self.id
    }

    /// Current completion count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counter.get()
    }
}
