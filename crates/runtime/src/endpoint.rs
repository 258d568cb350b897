//! The user-process side: an [`Endpoint`] submits commands to its
//! node's proxy, reads and writes its own segment, and observes
//! flags and remote queues. Also the command encoding both ends share
//! (opcodes, the packed sync descriptor).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mproxy_obs::{Ctr, EventKind};

use crate::cluster::{sampled, ProcShared, Shared, NUM_FLAGS};
use crate::idle::Backoff;
use crate::mem::Segment;
use crate::spsc::{self, Entry};

pub(crate) const OP_PUT: u32 = 1;
pub(crate) const OP_GET: u32 = 2;
pub(crate) const OP_ENQ: u32 = 3;

/// A synchronisation-flag slot (monotone counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagId(pub u32);

/// A remote-queue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RqId(pub u32);

/// A recoverable runtime communication failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// A bounded wait expired before the flag reached its target.
    Timeout {
        /// The flag waited on.
        flag: u32,
        /// The value waited for.
        target: u64,
        /// The value observed when the wait gave up.
        observed: u64,
    },
    /// A proxy thread died for good (condemned: it panicked and will not
    /// be — or can no longer be — respawned); the node is unreachable.
    ProxyDown {
        /// The node whose proxy is gone.
        node: usize,
        /// The panic payload, when it was a string.
        reason: Option<String>,
    },
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::Timeout {
                flag,
                target,
                observed,
            } => write!(f, "wait on flag {flag} timed out at {observed}/{target}"),
            RtError::ProxyDown {
                node,
                reason: Some(r),
            } => write!(f, "proxy thread for node {node} has died: {r}"),
            RtError::ProxyDown { node, reason: None } => {
                write!(f, "proxy thread for node {node} has died")
            }
        }
    }
}

impl std::error::Error for RtError {}

/// A user process's handle: submits commands, reads/writes its own
/// segment, observes flags and queues. Not `Clone` — a command queue has
/// exactly one producer.
pub struct Endpoint {
    pub(crate) me: Arc<ProcShared>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) cmd: spsc::Producer,
    pub(crate) qbit: u32,
    pub(crate) next_alloc: u64,
    /// Decimation tick for the sampled `Enqueue` trace (see
    /// [`sampled`]).
    pub(crate) obs_tick: u64,
}

impl Endpoint {
    /// This process's address-space id.
    #[must_use]
    pub fn asid(&self) -> u32 {
        self.me.asid
    }

    /// The node this process runs on.
    #[must_use]
    pub fn node(&self) -> usize {
        self.me.node
    }

    /// Bump-allocates `n` bytes in this process's segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment is exhausted.
    pub fn alloc(&mut self, n: u64) -> u64 {
        let addr = self.next_alloc.next_multiple_of(64);
        assert!(
            self.me.seg.check(addr, n as usize),
            "segment exhausted: need {n} at {addr} of {}",
            self.me.seg.size()
        );
        self.next_alloc = addr + n;
        addr
    }

    /// Local segment accessor.
    #[must_use]
    pub fn seg(&self) -> &Segment {
        &self.me.seg
    }

    /// Protection faults charged to this process.
    #[must_use]
    pub fn faults(&self) -> u64 {
        self.me.faults.load(Ordering::Relaxed)
    }

    /// Bounded waits that expired (or aborted on a dead proxy) for this
    /// process.
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.me.timeouts.load(Ordering::Relaxed)
    }

    /// Current value of one of this process's flags.
    #[must_use]
    pub fn flag(&self, f: FlagId) -> u64 {
        self.me.flags[f.0 as usize].load(Ordering::Acquire)
    }

    /// Waits until flag `f` reaches `target` through the shared adaptive
    /// backoff (spin, then yield so oversubscribed hosts still make
    /// progress).
    pub fn wait_flag(&self, f: FlagId, target: u64) {
        let mut backoff = Backoff::new();
        while self.flag(f) < target {
            backoff.snooze();
        }
    }

    /// Bounded [`Endpoint::wait_flag`]: gives up after `timeout`, and
    /// aborts early if a proxy has been condemned *and* the flag has
    /// stopped advancing — the wait could otherwise never complete. A
    /// wait does not know which node its flag depends on (a flag may be
    /// bumped by operations towards several destinations), so a
    /// condemned node alone proves nothing: aborting at once would fail
    /// every bounded wait on every healthy node the moment an unrelated
    /// node died. Only a flag that has also sat still for a grace period
    /// is taken to depend on the dead node. A proxy that merely died
    /// *under supervision* does not abort the wait either way: its
    /// respawn may still complete the operation within the timeout.
    ///
    /// # Errors
    ///
    /// [`RtError::Timeout`] when the deadline passes,
    /// [`RtError::ProxyDown`] when a proxy is permanently gone. Both bump
    /// [`Endpoint::timeouts`].
    pub fn wait_flag_timeout(
        &self,
        f: FlagId,
        target: u64,
        timeout: Duration,
    ) -> Result<(), RtError> {
        /// How long a wait may sit without flag progress while some node
        /// is condemned before concluding it depends on the dead node.
        const CONDEMNED_GRACE: Duration = Duration::from_millis(250);
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::new();
        let mut grace: Option<(Instant, u64)> = None;
        loop {
            let observed = self.flag(f);
            if observed >= target {
                return Ok(());
            }
            if let Some(node) = self.shared.condemned_node() {
                let now = Instant::now();
                let stalled = match &mut grace {
                    None => {
                        grace = Some((now, observed));
                        false
                    }
                    Some((since, seen)) if observed > *seen => {
                        (*since, *seen) = (now, observed);
                        false
                    }
                    Some((since, _)) => now.duration_since(*since) >= CONDEMNED_GRACE,
                };
                if stalled {
                    self.me.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(RtError::ProxyDown {
                        node,
                        reason: self.shared.panic_reason(node),
                    });
                }
            }
            if Instant::now() >= deadline {
                self.me.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(RtError::Timeout {
                    flag: f.0,
                    target,
                    observed,
                });
            }
            backoff.snooze();
        }
    }

    /// Non-blocking dequeue from one of this process's own remote queues.
    /// The payload is a shared buffer: it was snapshotted once at the
    /// sender's proxy and travelled the wire without further copies.
    #[must_use]
    pub fn rq_try_recv(&self, rq: RqId) -> Option<Bytes> {
        self.me.queues[rq.0 as usize].try_pop()
    }

    fn submit(&mut self, mut e: Entry) {
        let node = self.me.node;
        let obs = &self.shared.obs[node];
        obs.inc(Ctr::OpsSubmitted);
        if sampled(&mut self.obs_tick) && obs.recording() {
            // Stamp for the command-queue-wait and lsync-RTT histograms.
            // The clock read itself is the dominant recording-on cost on
            // this path (kvm-clock reads are slow inside VMs), so the
            // stamp is taken on sampled submissions only; downstream
            // recorders key off `t_ns != 0` and inherit the decimation.
            e.t_ns = self.shared.rel_ns(Instant::now());
            obs.trace_at(e.t_ns, EventKind::Enqueue, self.me.asid as u16, e.op);
        }
        if !self.cmd.try_send(e) {
            // Queue full: the bounded ring is backpressuring us. Count
            // the stall, then wait for room — unless nobody will ever
            // make any: a condemned node or a stopped cluster drains
            // nothing, so the op is dropped, exactly as `send_data` drops
            // one towards a condemned destination (`lsync` never fires;
            // bounded waits report it). A proxy that merely panicked under
            // supervision is worth waiting for: its respawn resumes the
            // drain.
            obs.inc(Ctr::CreditStalls);
            obs.trace_at(
                self.shared.rel_ns(Instant::now()),
                EventKind::CreditStall,
                self.me.asid as u16,
                e.op,
            );
            let mut backoff = Backoff::new();
            while !self.cmd.try_send(e) {
                if self.shared.condemned[node].load(Ordering::Acquire)
                    || self.shared.stop.load(Ordering::Relaxed)
                {
                    return;
                }
                backoff.snooze();
            }
        }
        // §4.1: flip the shared ready bit so the proxy's idle scan probes
        // one word instead of every queue head — then wake the proxy in
        // case it parked.
        self.shared.ready_masks[node].fetch_or(1 << self.qbit, Ordering::Release);
        self.shared.parkers[node].wake();
    }

    fn pack_sync(lsync: Option<FlagId>, rsync: Option<FlagId>) -> u64 {
        let l = lsync.map_or(0, |f| u64::from(f.0) + 1);
        let r = rsync.map_or(0, |f| u64::from(f.0) + 1);
        (l << 32) | r
    }

    /// `PUT`: copy `nbytes` from local `laddr` to `raddr` in `dst`'s
    /// space. `lsync` increments on remote acknowledgement; `rsync` (a
    /// flag of `dst`) increments on delivery.
    pub fn put(
        &mut self,
        laddr: u64,
        dst: u32,
        raddr: u64,
        nbytes: u32,
        lsync: Option<FlagId>,
        rsync: Option<FlagId>,
    ) {
        self.submit(Entry {
            op: OP_PUT,
            args: [
                laddr,
                raddr,
                (u64::from(dst) << 32) | u64::from(nbytes),
                Self::pack_sync(lsync, rsync),
            ],
            t_ns: 0,
        });
    }

    /// `GET`: copy `nbytes` from `raddr` in `dst`'s space to local
    /// `laddr`; `lsync` increments when the data has landed.
    pub fn get(&mut self, laddr: u64, dst: u32, raddr: u64, nbytes: u32, lsync: Option<FlagId>) {
        self.submit(Entry {
            op: OP_GET,
            args: [
                laddr,
                raddr,
                (u64::from(dst) << 32) | u64::from(nbytes),
                Self::pack_sync(lsync, None),
            ],
            t_ns: 0,
        });
    }

    /// Blocking GET convenience: issues the get on flag 63 and waits
    /// (adaptive backoff) for completion.
    pub fn get_blocking(&mut self, laddr: u64, dst: u32, raddr: u64, nbytes: u32) {
        let f = FlagId((NUM_FLAGS - 1) as u32);
        let target = self.flag(f) + 1;
        self.get(laddr, dst, raddr, nbytes, Some(f));
        self.wait_flag(f, target);
    }

    /// Bounded [`Endpoint::get_blocking`].
    ///
    /// # Errors
    ///
    /// See [`Endpoint::wait_flag_timeout`]; on error the fetched data must
    /// be treated as absent (it may still land later).
    pub fn get_blocking_timeout(
        &mut self,
        laddr: u64,
        dst: u32,
        raddr: u64,
        nbytes: u32,
        timeout: Duration,
    ) -> Result<(), RtError> {
        let f = FlagId((NUM_FLAGS - 1) as u32);
        let target = self.flag(f) + 1;
        self.get(laddr, dst, raddr, nbytes, Some(f));
        self.wait_flag_timeout(f, target, timeout)
    }

    /// `ENQ`: append `nbytes` from local `laddr` to queue `rq` of `dst`.
    pub fn enq(
        &mut self,
        laddr: u64,
        dst: u32,
        rq: RqId,
        nbytes: u32,
        lsync: Option<FlagId>,
        rsync: Option<FlagId>,
    ) {
        self.submit(Entry {
            op: OP_ENQ,
            args: [
                laddr,
                u64::from(rq.0),
                (u64::from(dst) << 32) | u64::from(nbytes),
                Self::pack_sync(lsync, rsync),
            ],
            t_ns: 0,
        });
    }
}

pub(crate) fn unpack_sync(v: u64) -> (Option<u32>, Option<u32>) {
    let l = (v >> 32) as u32;
    let r = v as u32;
    ((l != 0).then(|| l - 1), (r != 0).then(|| r - 1))
}
