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

    /// Operations of this process its proxy rejected, one each: an asid
    /// it holds no grant for, or an operand out of range — an address
    /// range outside a segment (wrapping included), zero bytes, a flag or
    /// queue index past the last. A rejected operation does nothing, and
    /// its flags never fire.
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

    /// Waits until flag `f` reaches `target`, yielding between reads so
    /// the proxy that bumps it gets the processor.
    pub fn wait_flag(&self, f: FlagId, target: u64) {
        let mut backoff = Backoff::new();
        while self.flag(f) < target {
            backoff.snooze();
        }
    }

    /// Bounded [`Endpoint::wait_flag`]: gives up after `timeout` (the
    /// clock is read once per 16 yields, so up to 16 yields late), and
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
        /// The clock is read on the first pass and then once per this
        /// many snoozes, so the deadline and the grace are overshot by
        /// at most as many yields.
        const CLOCK_EVERY: u32 = 16;
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::new();
        let mut grace: Option<(Instant, u64)> = None;
        let mut pass = 0u32;
        loop {
            let observed = self.flag(f);
            if observed >= target {
                return Ok(());
            }
            if pass.is_multiple_of(CLOCK_EVERY) {
                let now = Instant::now();
                if let Some(node) = self.shared.condemned_node() {
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
                if now >= deadline {
                    self.me.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(RtError::Timeout {
                        flag: f.0,
                        target,
                        observed,
                    });
                }
            }
            pass = pass.wrapping_add(1);
            backoff.snooze();
        }
    }

    /// Non-blocking dequeue from one of this process's own remote queues;
    /// `None` when it is empty or no ENQ ever reached it. The payload is
    /// a buffer of its own, copied out of its wire frame as it was
    /// applied. Dequeuing frees a place for the next ENQ
    /// ([`Endpoint::enq`]).
    #[must_use]
    pub fn rq_try_recv(&self, rq: RqId) -> Option<Bytes> {
        let data = self.me.queues[rq.0 as usize].get()?.try_pop()?;
        self.me.give_back(rq.0 as usize);
        Some(data)
    }

    fn submit(&mut self, mut e: Entry) {
        let node = self.me.node;
        let obs = &self.shared.obs[node];
        obs.inc(Ctr::OpsSubmitted);
        if sampled(&mut self.obs_tick) {
            // Stamp for the command-queue-wait and lsync-RTT histograms.
            // The clock read itself is the dominant recording cost on
            // this path (kvm-clock reads are slow inside VMs), so the
            // stamp is taken on sampled submissions only; downstream
            // recorders key off `t_ns != 0` and inherit the decimation.
            e.t_ns = self.shared.now_ns();
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
                self.shared.now_ns(),
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

    /// Packs both flags into one word, a half each, 0 meaning none and
    /// `i + 1` flag `i`. An index past the last flag saturates at
    /// [`NUM_FLAGS`], which the proxy rejects: it must fault, never carry
    /// into the other half or become another flag.
    fn pack_sync(lsync: Option<FlagId>, rsync: Option<FlagId>) -> u64 {
        let half = |f: Option<FlagId>| f.map_or(0, |f| u64::from(f.0.min(NUM_FLAGS as u32)) + 1);
        (half(lsync) << 32) | half(rsync)
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

    /// `ENQ`: append `nbytes` from local `laddr` to queue `rq` of `dst`.
    /// `lsync` increments once the payload is in the queue. An ENQ to a
    /// full queue ([`crate::RQ_DEPTH`] payloads) waits at the head of
    /// this process's command queue, with the commands behind it, until
    /// the owner dequeues.
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
