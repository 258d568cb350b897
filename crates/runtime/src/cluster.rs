//! The threaded message-proxy cluster.
//!
//! One proxy thread per node runs the Figure 5 loop for real: it polls the
//! registered per-user command queues and the node's network input, using
//! the §4.1 *shared bit vector* optimisation — producers set a per-queue
//! ready bit, so an idle proxy probes one word instead of scanning every
//! queue head. Protection checks (asid permission, bounds) run in the
//! proxy, never in user code; violations are counted as faults and the
//! operation is dropped, the runtime analogue of "the system faults a
//! process".
//!
//! The data plane is lock-free end to end (see DESIGN.md "Runtime data
//! plane"): user→proxy command queues are the paper's full/empty-flag
//! SPSC rings ([`crate::spsc`]), proxy↔proxy traffic flows through one
//! bounded MPSC wire ring per node, and remote-queue payloads return to
//! user processes over bounded SPSC reply rings (both
//! [`crate::ring::Ring`]). The pre-ring `Mutex<VecDeque>` data plane is
//! kept selectable ([`RtClusterBuilder::locked_data_plane`]) as the A/B
//! baseline for the `rt_throughput` bench.
//!
//! # The sequenced wire layer
//!
//! Inter-proxy traffic is *reliable* over a transport that is allowed to
//! misbehave (the seeded injector of [`crate::fault`], or a proxy dying
//! mid-conversation). Every data packet from node `s` to node `d`
//! carries a per-pair monotone sequence number; the sender retains a
//! clone of each unacknowledged packet (payloads are [`Bytes`], so a
//! clone is a refcount, not a copy). The receiver delivers strictly in
//! order, answers each drain batch with one cumulative
//! [`WireMsg::AckUpto`] watermark, NACKs on a gap or a corrupt frame,
//! and drops duplicates (re-acking so the sender converges). A
//! retransmit timer backstops lost NACKs. Control frames (acks, nacks,
//! hellos) are never judged by the injector and never dropped: the model
//! is a lossy transport under a reliable protocol, not a broken
//! protocol.
//!
//! The invariant bought by all this: **an operation whose `lsync` flag
//! fired was applied at the destination exactly once** — under drops,
//! duplicates, corruption, overload shedding, and proxy respawns.
//! Overload shedding rides the same machinery: a saturated proxy *rejects*
//! excess requests by advancing its delivered watermark and reporting the
//! rejected sequence numbers on the ack, so the sender drops them from
//! retention without firing `lsync`.
//!
//! # Supervision and recovery
//!
//! A proxy is a shared, trusted agent; a node must survive its failure.
//! Each proxy body runs under `catch_unwind`: on panic the thread returns
//! its *seat* (the node's command-queue consumers), records the panic
//! payload, and raises the node's `panicked` bit. All protocol state
//! lives in a per-node [`NodeState`] owned by `Shared` and locked by the
//! proxy for its lifetime — so a respawned proxy resumes with the exact
//! watermarks, retention buffers and CCBs its predecessor held, and no
//! acknowledged operation can be lost or re-applied. With supervision
//! enabled ([`RtClusterBuilder::supervise`]) a supervisor thread respawns
//! dead proxies on a fresh epoch (bounded restarts, exponential backoff);
//! the newcomer broadcasts [`WireMsg::Hello`] so peers re-ack and
//! retransmit immediately instead of waiting out their timers. A node
//! that exhausts its restart budget — or dies without supervision — is
//! *condemned*: peers purge traffic towards it, bounded waits report
//! [`RtError::ProxyDown`] with the panic reason, and shutdown completes.
//! [`RtCluster::shutdown`] is deadline-bounded and reports wedged proxies
//! instead of joining them forever.
//!
//! # Sharded proxies
//!
//! A node may run several proxy *shard lanes*
//! ([`RtClusterBuilder::shards`] / [`RtClusterBuilder::elastic_shards`]):
//! every per-node structure above — wire ring, parker, [`NodeState`],
//! seat, epoch, health, telemetry scope — is really per *lane*
//! (`lane = node · shards + shard`), and the sequenced wire layer runs
//! per (sender-lane, destination-lane) stream, so the exactly-once
//! invariant is untouched by sharding. A per-node [`ShardTable`] maps
//! each local asid to its serving shard (stable jump-consistent hash of
//! the asid over the active shard count); senders route on the
//! *receive side's* table and pin a per-asid route until their in-flight
//! frames toward the old lane drain, which preserves per-(sender, asid)
//! FIFO across rebalancing. Asids migrate between lanes with a
//! quiesce → drain → retarget handoff (see `process_migrations`); an
//! elastic controller riding the watchdog scales the active shard count
//! within `[min, max]` off the per-shard busy-fraction signal. The
//! default is one shard per node, which is bit-for-bit the pre-sharding
//! topology.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mproxy_model::contention::STABLE_UTILIZATION;
use mproxy_obs::{Ctr, EventKind, HistId, ObsHub, Scope as ObsScope, Snapshot, TraceEvent};

use crate::fault::{RtFaultCounts, RtFaultPlan, RtFaultState};
use crate::idle::{Backoff, Parker};
use crate::mem::Segment;
use crate::ring::Ring;
use crate::spsc::{self, Entry};
use crate::supervisor::SupervisorCfg;

/// One command-queue consumer held by a proxy lane, tagged with the
/// owning asid and the §4.1 ready bit it arms. Qbits are assigned per
/// *node* and stable for the process's lifetime, so a queue keeps its
/// bit when it migrates between the node's shard lanes.
pub(crate) struct SeatEntry {
    pub(crate) asid: u32,
    pub(crate) qbit: u32,
    pub(crate) q: spsc::Consumer,
}

/// A lane's command-queue consumers.
pub(crate) type Seat = Vec<SeatEntry>;

/// Synchronisation flags per process.
pub const NUM_FLAGS: usize = 64;
/// Remote queues per process.
pub const NUM_QUEUES: usize = 8;
/// Command queue depth per process.
pub const CMDQ_DEPTH: usize = 128;
/// Wire ring depth per node (packets queued by peer proxies).
pub const WIRE_DEPTH: usize = 512;
/// Reply ring depth per remote queue (payloads queued for a user process).
pub const RQ_DEPTH: usize = 256;

/// Utilisation below which a saturated proxy is considered recovered.
/// Sits under [`STABLE_UTILIZATION`] so the flag doesn't flap when load
/// hovers at the §5.4 bound.
pub const RECOVERY_UTILIZATION: f64 = 0.4;

/// Wire backlog (packets) past which a saturated, shedding-enabled proxy
/// starts rejecting request traffic.
pub const SHED_BACKLOG: usize = CMDQ_DEPTH;

/// Most entries a proxy drains from one queue per loop iteration. When the
/// arrival rate exceeds the service rate a drain would otherwise never
/// terminate, and iteration boundaries are where busy-time accounting and
/// the shedding check run — an overloaded proxy must keep reaching them.
const SERVICE_BURST: usize = 2 * CMDQ_DEPTH;

/// Outbound packets a proxy holds privately (its wire rings to peers all
/// full) before it stops draining command queues; the bounded command
/// rings then backpressure the user processes, so total occupancy per
/// node stays bounded by `CMDQ_DEPTH·procs + WIRE_DEPTH + PENDING_CAP`
/// (plus retention, which drains as fast as peers acknowledge).
const PENDING_CAP: usize = 2 * WIRE_DEPTH;

/// Retransmit timeout: a sender with unacknowledged packets and no ack
/// progress for this long re-sends from its retention buffer. Generous
/// against ack coalescing latency, tight enough that a dropped packet
/// costs milliseconds, not a stalled test.
const RTO: Duration = Duration::from_millis(2);

/// Most retained packets re-sent from the retention head per destination
/// per resync pass (RTO expiry or a peer's Hello); bounds the burst a
/// recovering receiver takes all at once. NACK-driven recovery never
/// bursts: it re-sends exactly the sequences the receiver named.
const RESEND_BURST: usize = 128;

/// Most out-of-order frames a receiver parks per source stream while it
/// waits for a gap to fill (the reorder window). A frame further ahead of
/// the in-order watermark than this is dropped and recovered later, like
/// any lost frame.
const HOLD_WINDOW: usize = PENDING_CAP;

/// Longest a parked proxy sleeps before re-probing its queues (a missed
/// wake is designed out, this is insurance — see [`crate::idle::Parker`]).
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// The locked baseline's fixed idle budget: spin this many times, then
/// `yield_now` (the pre-adaptive-policy hand-rolled loop, preserved for
/// the A/B ablation).
const LEGACY_IDLE_SPINS: u32 = 500;

/// Loop passes a stopping proxy keeps waiting for undeliverable or
/// unacknowledged outbound packets (a peer's ring full, or a peer dead
/// but not yet condemned) before giving up on them — in-flight traffic
/// at shutdown is lossy by contract.
const STOP_FLUSH_TRIES: u32 = 10_000;

/// Default deadline for [`RtCluster::shutdown`] (and `Drop`): a wedged
/// proxy thread is reported and detached rather than joined past this.
const DEFAULT_SHUTDOWN_DEADLINE: Duration = Duration::from_secs(10);

/// Most shard lanes a node may be configured with (the qbit word is the
/// binding limit for processes; this bounds thread count and the
/// per-lane stream tables).
pub const MAX_SHARDS: usize = 8;

/// Consecutive watchdog ticks every active lane of a node must sit
/// under [`RECOVERY_UTILIZATION`] before the elastic controller shrinks
/// the node by one shard (hysteresis against load dips).
const SHRINK_IDLE_TICKS: u32 = 8;

/// Watchdog ticks the elastic controller stays hands-off on a node
/// after any scaling action, letting migrations complete and the
/// utilisation signal re-settle before the next decision.
const SCALE_COOLDOWN_TICKS: u32 = 8;

const OP_PUT: u32 = 1;
const OP_GET: u32 = 2;
const OP_ENQ: u32 = 3;

/// Jump consistent hash (Lamping & Veach): maps `key` to a bucket in
/// `0..buckets` such that growing `buckets` by one moves only
/// `~1/(buckets+1)` of the keys and shrinking moves only the keys of
/// the removed bucket — the "stable hash" behind the shard table, so
/// elastic scaling migrates the minimum number of asids.
fn jump_hash(mut key: u64, buckets: u32) -> u32 {
    debug_assert!(buckets > 0);
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        {
            j = (((b + 1) as f64) * (f64::from(1u32 << 31) / (((key >> 33) + 1) as f64))) as i64;
        }
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    {
        b as u32
    }
}

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

/// One dead proxy in a [`ShutdownReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyPanic {
    /// The node whose proxy was dead when the cluster shut down.
    pub node: usize,
    /// The shard lane on that node (0 on an unsharded cluster).
    pub shard: usize,
    /// Its panic payload, when it was a string.
    pub reason: Option<String>,
}

/// What [`RtCluster::shutdown`] observed while joining the proxies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Nodes whose proxy was dead (panicked, not respawned) at shutdown,
    /// with the captured panic payloads. A node whose proxy died but was
    /// respawned by supervision and exited cleanly is *not* listed.
    pub panicked_nodes: Vec<ProxyPanic>,
    /// Nodes whose proxy failed to exit within the shutdown deadline and
    /// was detached still running (e.g. stuck in foreign code).
    pub wedged_nodes: Vec<usize>,
    /// Total proxy respawns performed by supervision over the cluster's
    /// lifetime.
    pub restarts: u64,
}

impl ShutdownReport {
    /// True if every proxy exited cleanly at shutdown (recovered-then-
    /// clean nodes count as clean; see [`ShutdownReport::restarts`]).
    #[must_use]
    pub fn clean(&self) -> bool {
        self.panicked_nodes.is_empty() && self.wedged_nodes.is_empty()
    }

    /// Stable single-line JSON serialization (the shape `rt_chaos`
    /// embeds per scenario in `BENCH_chaos.json`):
    /// `{"clean":bool,"restarts":n,"panicked":[{"node":n,"shard":s,
    /// "reason":s?}],"wedged":[n]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64);
        let _ = write!(
            s,
            "{{\"clean\":{},\"restarts\":{},\"panicked\":[",
            self.clean(),
            self.restarts
        );
        for (i, p) in self.panicked_nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"node\":{},\"shard\":{}", p.node, p.shard);
            if let Some(r) = &p.reason {
                let _ = write!(s, ",\"reason\":\"{}\"", mproxy_obs::json::esc(r));
            }
            s.push('}');
        }
        s.push_str("],\"wedged\":[");
        for (i, n) in self.wedged_nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{n}");
        }
        s.push_str("]}");
        s
    }
}

/// A multi-producer FIFO with poison recovery — the locked-baseline
/// remote-queue store and inter-node wire. A panicked proxy can never
/// wedge it.
#[derive(Debug)]
struct PolledFifo<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> Default for PolledFifo<T> {
    fn default() -> Self {
        PolledFifo {
            items: Mutex::new(VecDeque::new()),
        }
    }
}

impl<T> PolledFifo<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.items.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, v: T) {
        self.lock().push_back(v);
    }

    fn pop(&self) -> Option<T> {
        self.lock().pop_front()
    }

    fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn len(&self) -> usize {
        self.lock().len()
    }
}

/// A node's wire input: peer proxies produce, the node's proxy consumes.
/// The ring variant is the lock-free data plane; the locked variant is
/// the pre-ring `Mutex<VecDeque>` baseline kept for A/B measurement.
#[derive(Debug)]
enum Wire {
    Locked(PolledFifo<WireMsg>),
    // Boxed: a Ring inlines two cache-padded counters (384 bytes), and
    // adjacent nodes' rings must not share lines anyway.
    Ring(Box<Ring<WireMsg>>),
}

impl Wire {
    fn new(locked: bool) -> Wire {
        if locked {
            Wire::Locked(PolledFifo::default())
        } else {
            Wire::Ring(Box::new(Ring::new(WIRE_DEPTH)))
        }
    }

    /// Enqueues a packet; the locked baseline is unbounded and always
    /// accepts, the ring hands the packet back when full.
    fn try_push(&self, m: WireMsg) -> Result<(), WireMsg> {
        match self {
            Wire::Locked(f) => {
                f.push(m);
                Ok(())
            }
            Wire::Ring(r) => r.try_push(m),
        }
    }

    fn pop(&self) -> Option<WireMsg> {
        match self {
            Wire::Locked(f) => f.pop(),
            Wire::Ring(r) => r.try_pop(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Wire::Locked(f) => f.is_empty(),
            Wire::Ring(r) => r.is_empty(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Wire::Locked(f) => f.len(),
            Wire::Ring(r) => r.len(),
        }
    }
}

/// One remote queue: the local proxy produces, the owning user process
/// consumes. Ring = lock-free reply ring, Locked = baseline.
#[derive(Debug)]
enum RqStore {
    Locked(PolledFifo<Bytes>),
    // Boxed for the same reason as [`Wire::Ring`].
    Ring(Box<Ring<Bytes>>),
}

impl RqStore {
    fn new(locked: bool) -> RqStore {
        if locked {
            RqStore::Locked(PolledFifo::default())
        } else {
            RqStore::Ring(Box::new(Ring::new(RQ_DEPTH)))
        }
    }

    fn try_push(&self, data: Bytes) -> Result<(), Bytes> {
        match self {
            RqStore::Locked(f) => {
                f.push(data);
                Ok(())
            }
            RqStore::Ring(r) => r.try_push(data),
        }
    }

    fn pop(&self) -> Option<Bytes> {
        match self {
            RqStore::Locked(f) => f.pop(),
            RqStore::Ring(r) => r.try_pop(),
        }
    }
}

/// Per-node map from local asid to serving shard slot, plus the node's
/// active shard count. The table is *load-balancing*, not correctness:
/// any lane of a node can apply inbound operations for any local asid
/// (segments, flags and reply rings live in [`ProcShared`], shared by
/// all lanes); the slot decides which lane drains the asid's command
/// queue and which lane new inbound frames are routed to. Slots are
/// indexed by global asid and only meaningful for asids homed on this
/// node. Slot stores are `Release` (by the lane completing a handoff)
/// and loads `Acquire`, pairing with the seat-install in the new lane.
pub(crate) struct ShardTable {
    slots: Vec<AtomicU32>,
    active: AtomicU32,
}

impl ShardTable {
    fn new(procs: usize, active: u32) -> ShardTable {
        ShardTable {
            slots: (0..procs).map(|_| AtomicU32::new(0)).collect(),
            active: AtomicU32::new(active),
        }
    }

    #[inline]
    fn slot(&self, asid: u32) -> u32 {
        self.slots[asid as usize].load(Ordering::Acquire)
    }

    fn set_slot(&self, asid: u32, shard: u32) {
        self.slots[asid as usize].store(shard, Ordering::Release);
    }

    fn active(&self) -> u32 {
        self.active.load(Ordering::Acquire)
    }

    fn set_active(&self, n: u32) {
        self.active.store(n, Ordering::Release);
    }
}

/// A migration request mailed to an owning lane by the elastic
/// controller (or [`RtCluster::migrate_asid`]); lives in `Shared` so it
/// survives proxy incarnations.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MigrOrder {
    asid: u32,
    dst_lane: usize,
}

/// An in-progress handoff held by the owning lane. `marks[d]` is the
/// highest sequence this lane had sent toward lane `d` when the quiesce
/// began; once `acked >= marks[d]` for every live `d`, all frames the
/// migrating asid could have contributed are applied at their
/// destinations, so re-sourcing its commands from another lane cannot
/// reorder. Lives in [`NodeState`], so a mid-handoff proxy death
/// resumes the drain in the next incarnation.
struct Migration {
    asid: u32,
    qbit: u32,
    dst_lane: usize,
    marks: Vec<u64>,
}

/// Elastic scaling bounds ([`RtClusterBuilder::elastic_shards`]).
#[derive(Debug, Clone, Copy)]
struct ElasticRange {
    min: u32,
    max: u32,
}

/// Per-node load and overload state, written by the proxy and the
/// watchdog, read by anyone.
#[derive(Debug, Default)]
struct ProxyHealth {
    /// Nanoseconds the proxy has spent servicing work (not idle-spinning).
    busy_ns: AtomicU64,
    /// Bits of the watchdog's last utilisation sample (an `f64`).
    util_bits: AtomicU64,
    /// Set while the sampled utilisation sits above [`STABLE_UTILIZATION`];
    /// cleared once it falls back under [`RECOVERY_UTILIZATION`].
    saturated: AtomicBool,
    /// Times the proxy has crossed into saturation.
    saturation_events: AtomicU64,
    /// Request packets rejected by overload shedding.
    shed: AtomicU64,
}

struct ProcShared {
    asid: u32,
    node: usize,
    seg: Segment,
    flags: Vec<Arc<AtomicU64>>,
    queues: Vec<RqStore>,
    faults: Arc<AtomicU64>,
    timeouts: Arc<AtomicU64>,
}

/// An operation travelling the wire (the content of a sequenced
/// [`WireMsg::Data`] frame).
#[derive(Debug, Clone)]
enum Payload {
    Put {
        dst: u32,
        raddr: u64,
        data: Bytes,
        rsync: Option<u32>,
    },
    GetReq {
        src_asid: u32,
        dst: u32,
        raddr: u64,
        nbytes: u32,
        token: u64,
    },
    GetReply {
        token: u64,
        data: Option<Bytes>,
    },
    Enq {
        dst: u32,
        rq: u32,
        data: Bytes,
        rsync: Option<u32>,
    },
}

impl Payload {
    /// Requests may be rejected under overload; responses may not — each
    /// one resolves a CCB that has already been paid for, and rejecting
    /// it would strand the waiter.
    fn is_request(&self) -> bool {
        !matches!(self, Payload::GetReply { .. })
    }

    /// Application bytes carried (the bytes_in/bytes_out accounting
    /// unit; headers and control frames count zero).
    fn wire_bytes(&self) -> u64 {
        match self {
            Payload::Put { data, .. } | Payload::Enq { data, .. } => data.len() as u64,
            Payload::GetReq { .. } => 0,
            Payload::GetReply { data, .. } => data.as_ref().map_or(0, |d| d.len() as u64),
        }
    }
}

/// One frame on the inter-proxy wire. `Data` frames are sequenced per
/// (sender, destination) pair and subject to fault injection; the control
/// frames are the reliability layer itself and are never judged or lost.
#[derive(Debug)]
enum WireMsg {
    /// A sequenced operation. `corrupt` models payload damage in flight —
    /// set by the injector, detected "by checksum" at the receiver, which
    /// NACKs instead of delivering.
    Data {
        from: usize,
        seq: u64,
        corrupt: bool,
        body: Payload,
    },
    /// Cumulative acknowledgement: every `Data` frame from the receiver's
    /// peer with `seq <= upto` has been accounted for. Sequences listed in
    /// `rejected` were *shed* under overload: the sender must drop them
    /// from retention without firing their `lsync`.
    AckUpto {
        from: usize,
        upto: u64,
        rejected: Vec<u64>,
    },
    /// The receiver's in-order watermark is stuck at `since` behind a gap
    /// or a corrupt frame: `missing` names every sequence it still lacks
    /// up to the highest one it has seen (ascending, starting at
    /// `since + 1`). The sender re-sends exactly those frames now rather
    /// than waiting out the RTO.
    Nack {
        from: usize,
        since: u64,
        missing: Vec<u64>,
    },
    /// A respawned proxy announcing itself: peers re-ack their watermark
    /// (so the newcomer's retention drains) and retransmit their own
    /// retained traffic immediately.
    Hello {
        from: usize,
        #[allow(dead_code)]
        epoch: u64,
    },
}

/// An outstanding GET command control block (lives in [`NodeState`] so a
/// respawned proxy can still complete or cancel it).
struct CcbGet {
    proc: u32,
    laddr: u64,
    nbytes: u32,
    lsync: Option<u32>,
}

/// A retained (sent, unacknowledged) data frame.
struct Retained {
    seq: u64,
    body: Payload,
    /// `(proc, flag)` to bump when the frame is acknowledged un-rejected.
    lsync: Option<(u32, u32)>,
    /// First-transmission time (cluster-relative ns) — the wire-RTT
    /// histogram measures from here to the releasing ack.
    sent_ns: u64,
    /// The originating command's submit stamp ([`Entry::t_ns`]; 0 when
    /// recording was off or the frame is proxy-originated) — the
    /// lsync-RTT histogram measures from here.
    submit_ns: u64,
}

/// Sender-side state towards one destination node.
struct TxPeer {
    /// Sequence number the next new frame will carry (first frame is 1).
    next_seq: u64,
    /// Highest acknowledged sequence.
    acked: u64,
    /// Sent-but-unacknowledged frames, in sequence order. Unbounded by
    /// type, bounded in practice by the receiver's ack cadence — even a
    /// *saturated* receiver advances its watermark (shed-reject), so
    /// retention drains at wire speed.
    retained: VecDeque<Retained>,
    /// Last time the ack watermark moved (or retention went non-empty);
    /// the RTO measures from here.
    last_progress: Instant,
    /// A resync (a peer's Hello, or this lane's own respawn) asked for an
    /// immediate re-send from the retention head.
    resync_hint: bool,
    /// Sequences the peer's latest NACK named as missing, re-sent (and
    /// cleared) by the next [`retransmit`] pass.
    nacked: Vec<u64>,
}

impl TxPeer {
    fn new(now: Instant) -> TxPeer {
        TxPeer {
            next_seq: 1,
            acked: 0,
            retained: VecDeque::new(),
            last_progress: now,
            resync_hint: false,
            nacked: Vec::new(),
        }
    }
}

/// Receiver-side state from one source node.
#[derive(Default)]
struct RxPeer {
    /// Highest sequence delivered (or rejected) in order.
    delivered: u64,
    /// An ack should go out this pass.
    ack_pending: bool,
    /// A nack should go out this pass.
    nack_pending: bool,
    /// Sequences shed since the last ack, to ride out on it.
    rejected_new: Vec<u64>,
    /// The reorder buffer: slot `i` is sequence `delivered + 1 + i`,
    /// `Some` when that frame arrived intact ahead of a gap and is parked
    /// until the gap fills, `None` while it is still missing. Spans the
    /// watermark to the highest sequence seen, so it is empty on an
    /// in-order stream, slot 0 is always a hole, and it never grows past
    /// [`HOLD_WINDOW`]. Lives here — in [`NodeState`] — so parked frames
    /// survive a proxy respawn; they stay in the sender's retention (the
    /// cumulative ack does not cover them) until applied.
    held: VecDeque<Option<Payload>>,
}

/// What [`RxPeer::park`] did with a frame that is ahead of the watermark.
#[derive(Debug, PartialEq, Eq)]
enum Parked {
    /// Parked until the gap in front of it fills.
    Held,
    /// An intact copy of this sequence is already parked.
    Duplicate,
    /// Beyond the reorder window, or corrupt (its sequence, if inside
    /// the window, is noted as a hole): discarded.
    Dropped,
}

impl RxPeer {
    /// Files a frame whose `seq` is ahead of the watermark (`seq >
    /// delivered`) and cannot be applied yet: an intact body is parked in
    /// its slot; a corrupt one only widens the buffer to cover `seq`, so
    /// the next NACK names it.
    fn park(&mut self, seq: u64, body: Option<Payload>) -> Parked {
        debug_assert!(seq > self.delivered);
        let idx = match usize::try_from(seq - self.delivered - 1) {
            Ok(idx) if idx < HOLD_WINDOW => idx,
            _ => return Parked::Dropped,
        };
        if self.held.len() <= idx {
            self.held.resize_with(idx + 1, || None);
        }
        match (&self.held[idx], body) {
            (Some(_), _) => Parked::Duplicate,
            (None, None) => Parked::Dropped,
            (None, body) => {
                self.held[idx] = body;
                Parked::Held
            }
        }
    }

    /// Moves the watermark one sequence forward (that frame was just
    /// applied or shed), keeping the reorder buffer aligned with it.
    fn advance(&mut self) {
        self.delivered += 1;
        self.held.pop_front();
    }

    /// Takes the parked frame that is next in order, if the gap in front
    /// of it has closed; the caller applies it.
    fn next_ready(&mut self) -> Option<Payload> {
        let body = self.held.front_mut()?.take()?;
        self.advance();
        Some(body)
    }

    /// Every sequence still missing between the watermark and the highest
    /// one seen, ascending — what a NACK names.
    fn missing(&self) -> Vec<u64> {
        let first = self.delivered + 1;
        let slots = self.held.iter().enumerate();
        slots
            .filter_map(|(i, slot)| slot.is_none().then_some(first + i as u64))
            .collect()
    }

    /// Discards every parked frame (their sender is gone, or this proxy
    /// is exiting); returns how many there were so the caller can count
    /// them as dropped.
    fn abandon_held(&mut self) -> u64 {
        let parked = self.held.iter().filter(|s| s.is_some()).count();
        self.held.clear();
        parked as u64
    }
}

/// An accepted ENQ whose reply ring was full; delivery is owed (the
/// frame was already acknowledged), so this queue must survive a proxy
/// crash — it does, inside [`NodeState`].
struct PendingEnq {
    dst: u32,
    rq: u32,
    data: Bytes,
    rsync: Option<u32>,
}

/// Everything a node's proxy knows that must survive the proxy thread:
/// protocol watermarks, retention buffers, CCBs, stashed undeliverable
/// output. Owned by `Shared`, locked by the serving proxy for its
/// lifetime; the supervisor locks it briefly between incarnations to
/// bump the epoch.
/// Per-message hot-path telemetry — the `Send`/`Enqueue` trace events
/// and the cmd-wait / wire-RTT / lsync-RTT histogram samples — is
/// recorded one-in-32 (`tick & MASK == 0`). A histogram's shape survives
/// deterministic decimation, and sampling keeps the recording-armed cost
/// on the proxy's critical path inside the `rt_obs` 5% gate. Rare events
/// (kills, respawns, hellos, acks, sheds, faults) are never sampled, and
/// counters are always exact.
const OBS_SAMPLE_MASK: u64 = 31;

pub(crate) struct NodeState {
    /// Incarnation number; bumped by the supervisor on each respawn.
    pub(crate) epoch: u64,
    /// Respawn announcement owed to peers (set by the supervisor, cleared
    /// by the new incarnation once the Hellos are queued).
    pub(crate) hello_pending: bool,
    next_token: u64,
    ccbs: HashMap<u64, CcbGet>,
    tx: Vec<TxPeer>,
    rx: Vec<RxPeer>,
    /// Outbound frames whose destination ring was full, per node.
    /// Flushed in FIFO order before anything new is pushed, so per-pair
    /// wire order is preserved. Holds control frames too — an ack
    /// carrying rejections must never be lost.
    pending_wire: Vec<VecDeque<WireMsg>>,
    /// Accepted local deliveries whose reply ring was full.
    pending_rq: VecDeque<PendingEnq>,
    /// In-progress shard handoffs (quiescing/draining asids owned by
    /// this lane). Empty on an unsharded cluster.
    migr: Vec<Migration>,
    /// Sharded-send route pinning, keyed by destination asid:
    /// `(dst_lane, in_flight)`. A route is re-read from the destination
    /// node's shard table only when `in_flight == 0`, so all frames
    /// toward an asid drain through the old lane before the first frame
    /// takes the new one — per-(sender, asid) FIFO survives the asid
    /// migrating. Untouched (empty) when the cluster is unsharded.
    routes: HashMap<u32, (usize, u32)>,
    /// Decimation tick for sampled telemetry (see [`OBS_SAMPLE_MASK`]).
    obs_tick: u64,
}

impl NodeState {
    fn new(lanes: usize, now: Instant) -> NodeState {
        NodeState {
            epoch: 0,
            hello_pending: false,
            next_token: 0,
            ccbs: HashMap::new(),
            tx: (0..lanes).map(|_| TxPeer::new(now)).collect(),
            rx: (0..lanes).map(|_| RxPeer::default()).collect(),
            pending_wire: (0..lanes).map(|_| VecDeque::new()).collect(),
            pending_rq: VecDeque::new(),
            migr: Vec::new(),
            routes: HashMap::new(),
            obs_tick: 0,
        }
    }

    /// Outbound frames stashed because their destination rings were full.
    fn backlogged(&self) -> usize {
        self.pending_wire.iter().map(VecDeque::len).sum::<usize>() + self.pending_rq.len()
    }

    fn outbox_empty(&self) -> bool {
        self.pending_rq.is_empty() && self.pending_wire.iter().all(VecDeque::is_empty)
    }
}

pub(crate) struct Shared {
    procs: Vec<Arc<ProcShared>>,
    perms: RwLock<HashSet<(u32, u32)>>,
    allow_all: AtomicBool,
    pub(crate) stop: AtomicBool,
    /// Shard lanes per node (the *maximum*; lanes past a node's active
    /// count idle until the elastic controller grows into them). Every
    /// `Vec` below commented "per lane" is indexed by
    /// `lane = node · shards + shard`; at `shards == 1` a lane is a node.
    pub(crate) shards: usize,
    /// Elastic scaling bounds; `None` means the shard count is fixed.
    elastic: Option<ElasticRange>,
    /// Per node: the asid → shard map and active shard count.
    pub(crate) tables: Vec<ShardTable>,
    /// Per node: qbit → asid (the reverse of each seat entry's mapping;
    /// lets a lane forward a ready bit for a queue it no longer owns).
    node_qbits: Vec<Vec<u32>>,
    /// Per lane: migration orders mailed by the controller, taken by the
    /// owning lane at the top of its loop.
    migr_orders: Vec<Mutex<Vec<MigrOrder>>>,
    /// Per lane: cheap flag for the order mailbox.
    migr_pending: Vec<AtomicBool>,
    /// Per lane: consumers handed over by a completed migration, waiting
    /// for the destination lane to install them in its seat.
    shard_inbox: Vec<Mutex<Vec<SeatEntry>>>,
    /// Per lane: cheap flag for the handoff inbox.
    inbox_ready: Vec<AtomicBool>,
    /// Per node: migrations issued but not yet completed or aborted
    /// (the controller defers scaling while any are in flight).
    migr_outstanding: Vec<AtomicU64>,
    /// Completed shard migrations, cluster-wide.
    migrations_total: AtomicU64,
    wires: Vec<Wire>,                  // per lane
    pub(crate) parkers: Vec<Parker>,   // per lane, wakes the proxy thread
    ops_serviced: Vec<Arc<AtomicU64>>, // per lane
    /// Per lane: the proxy is currently dead (set after unwinding, after
    /// the seat and panic reason are back; cleared by a respawn).
    pub(crate) panicked: Vec<AtomicBool>,
    /// Per lane: permanently dead — no respawn will come. Peers purge
    /// traffic towards condemned lanes; waits abort against them.
    pub(crate) condemned: Vec<AtomicBool>,
    /// Cheap gate for the per-loop condemnation scan.
    any_condemned: AtomicBool,
    /// Mirror of each lane's epoch for lock-free queries.
    pub(crate) epochs: Vec<AtomicU64>,
    /// Times each lane's proxy has panicked.
    deaths: Vec<AtomicU64>,
    /// Total supervisor respawns.
    pub(crate) restarts_total: AtomicU64,
    /// Last panic payload per lane, when it was a string.
    pub(crate) panic_reasons: Vec<Mutex<Option<String>>>,
    /// The per-lane protocol state (see [`NodeState`]).
    pub(crate) node_state: Vec<Mutex<NodeState>>,
    /// Each lane's command-queue consumers, parked here whenever no
    /// proxy incarnation is running; each incarnation takes the seat and
    /// returns it on the way out (even by panic).
    pub(crate) seats: Vec<Mutex<Option<Seat>>>,
    /// The §4.1 ready-bit word per lane (shared with the endpoints).
    /// Bit positions are per-*node* qbits, so a queue's bit is stable
    /// across shard migrations; each lane only drains bits for queues
    /// its seat holds and forwards strays to the owning lane.
    ready_masks: Vec<Arc<AtomicU64>>,
    /// Proxy thread handles, replaced by the supervisor on respawn.
    pub(crate) handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    health: Vec<Arc<ProxyHealth>>, // per lane
    shed_enabled: AtomicBool,
    /// The installed fault injector, if any.
    faults: Option<RtFaultState>,
    /// Supervision policy; `None` means a dead proxy is condemned at once.
    pub(crate) supervision: Option<SupervisorCfg>,
    /// Cluster start time (stall windows are relative to this).
    started: Instant,
    /// True when running the locked `Mutex<VecDeque>` baseline plane.
    locked_plane: bool,
    /// Telemetry registry (see `mproxy-obs`): counters are always on;
    /// histograms and flight recorders follow the hub's recording flag.
    obs_hub: Arc<ObsHub>,
    /// One telemetry scope per lane, indexed like `wires`.
    pub(crate) obs: Vec<Arc<ObsScope>>,
}

impl Shared {
    /// Total shard lanes (`nodes · shards`).
    #[inline]
    pub(crate) fn lanes(&self) -> usize {
        self.wires.len()
    }

    /// The node a lane belongs to.
    #[inline]
    pub(crate) fn lane_node(&self, lane: usize) -> usize {
        lane / self.shards
    }

    /// True when more than one shard lane per node exists.
    #[inline]
    pub(crate) fn sharded(&self) -> bool {
        self.shards > 1
    }

    /// The lane for `(node, shard)`.
    #[inline]
    pub(crate) fn lane_of(&self, node: usize, shard: usize) -> usize {
        node * self.shards + shard
    }

    /// The lane currently assigned to serve `asid`'s command queue,
    /// per its node's shard table.
    #[inline]
    pub(crate) fn lane_of_asid(&self, asid: u32) -> usize {
        let node = self.procs[asid as usize].node;
        if self.shards == 1 {
            node
        } else {
            self.lane_of(node, self.tables[node].slot(asid) as usize)
        }
    }

    fn allowed(&self, src: u32, dst: u32) -> bool {
        src == dst
            || self.allow_all.load(Ordering::Relaxed)
            || self
                .perms
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .contains(&(src, dst))
    }

    fn fault(&self, src: u32) {
        self.procs[src as usize]
            .faults
            .fetch_add(1, Ordering::Relaxed);
    }

    fn set_flag(&self, proc: u32, flag: u32) {
        self.procs[proc as usize].flags[flag as usize].fetch_add(1, Ordering::Release);
    }

    /// First condemned node, if any (maps the condemned lane back to
    /// its node for error reporting).
    fn condemned_lane(&self) -> Option<usize> {
        if !self.any_condemned.load(Ordering::Acquire) {
            return None;
        }
        self.condemned.iter().position(|c| c.load(Ordering::Acquire))
    }

    fn panic_reason(&self, node: usize) -> Option<String> {
        self.panic_reasons[node]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Nanoseconds from cluster start to `now` — the telemetry timebase
    /// shared by every histogram sample and flight-recorder event (plain
    /// `Instant` arithmetic, no clock read).
    #[inline]
    pub(crate) fn rel_ns(&self, now: Instant) -> u64 {
        u64::try_from(now.duration_since(self.started).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Marks `lane` permanently dead and wakes everything that might be
/// waiting on it (peer proxies purge their traffic towards it on their
/// next pass; bounded endpoint waits abort).
pub(crate) fn condemn(shared: &Shared, lane: usize) {
    shared.condemned[lane].store(true, Ordering::Release);
    shared.any_condemned.store(true, Ordering::Release);
    for p in &shared.parkers {
        p.wake();
    }
}

/// [`condemn`] for a lane whose proxy has already died (so its state
/// lock is free): the frames it had parked behind gaps will never be
/// applied, and are counted as dropped before the lane is written off.
pub(crate) fn condemn_dead(shared: &Shared, lane: usize) {
    let mut st = shared.node_state[lane]
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    abandon_all_held(shared, &mut st, lane);
    drop(st);
    condemn(shared, lane);
}

/// Discards every frame lane `lane` has parked, from every source,
/// counting each as a damaged drop.
fn abandon_all_held(shared: &Shared, st: &mut NodeState, lane: usize) {
    let parked: u64 = st.rx.iter_mut().map(RxPeer::abandon_held).sum();
    shared.obs[lane].add(Ctr::DamagedDrops, parked);
}

/// Builds an [`RtCluster`]: declare nodes and processes, then
/// [`RtClusterBuilder::start`].
pub struct RtClusterBuilder {
    nodes: usize,
    procs: Vec<(usize, usize)>, // (node, segment bytes)
    shed: bool,
    locked: bool,
    watchdog_interval: Duration,
    fault_plan: Option<RtFaultPlan>,
    supervision: Option<SupervisorCfg>,
    telemetry: bool,
    shards: usize,
    elastic: Option<ElasticRange>,
}

impl RtClusterBuilder {
    /// A cluster of `nodes` SMP nodes (each gets one dedicated proxy
    /// thread).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        RtClusterBuilder {
            nodes,
            procs: Vec::new(),
            shed: false,
            locked: false,
            watchdog_interval: Duration::from_millis(1),
            fault_plan: None,
            supervision: None,
            telemetry: true,
            shards: 1,
            elastic: None,
        }
    }

    /// Runs `n` proxy shard threads per node, each owning a disjoint
    /// slice of the node's command queues (partitioned by a per-node
    /// shard table). `shards(1)` — the default — is the classic one
    /// proxy per node.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`MAX_SHARDS`].
    pub fn shards(&mut self, n: usize) -> &mut Self {
        assert!(
            (1..=MAX_SHARDS).contains(&n),
            "shards must be in 1..={MAX_SHARDS}"
        );
        self.shards = n;
        self.elastic = None;
        self
    }

    /// Enables elastic shard scaling: each node starts with `min`
    /// active shards and the watchdog-driven controller grows towards
    /// `max` under saturation / shrinks back when idle, migrating asids
    /// between shard lanes with a quiesce → drain → retarget handoff.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= min <= max <= MAX_SHARDS`.
    pub fn elastic_shards(&mut self, min: usize, max: usize) -> &mut Self {
        assert!(
            min >= 1 && min <= max && max <= MAX_SHARDS,
            "need 1 <= min <= max <= {MAX_SHARDS}"
        );
        self.shards = max;
        self.elastic = Some(ElasticRange {
            min: min as u32,
            max: max as u32,
        });
        self
    }

    /// Arms or disarms telemetry *recording* (histograms and the
    /// flight-recorder rings). Counters are always on either way — they
    /// are a handful of relaxed adds per operation. On by default; the
    /// `rt_obs` bench gates the recording-on overhead at ≤5% and uses
    /// `telemetry(false)` as its uninstrumented baseline.
    pub fn telemetry(&mut self, on: bool) -> &mut Self {
        self.telemetry = on;
        self
    }

    /// Enables overload shedding: while a proxy is saturated, its wire
    /// backlog is capped at [`SHED_BACKLOG`] by *rejecting* the oldest
    /// request frames (puts, gets, enqueues). Responses are never shed —
    /// they resolve waits already charged to a client. A rejected request
    /// simply never happens: its sequence number is acknowledged as
    /// rejected, so the sender drops it from retention *without* firing
    /// `lsync`, and the submitter observes the loss through a bounded
    /// wait ([`Endpoint::wait_flag_timeout`]). Off by default: an
    /// unsaturated cluster behaves identically either way.
    pub fn enable_shedding(&mut self) -> &mut Self {
        self.shed = true;
        self
    }

    /// Selects the pre-ring **locked** data plane: `Mutex<VecDeque>`
    /// wire and reply queues and the legacy fixed idle loop (500 spins,
    /// then `yield_now`, never parking) instead of the lock-free rings
    /// with the adaptive idle policy. This is the `--baseline-locked`
    /// ablation of the `rt_throughput` bench; the sequenced wire
    /// protocol and every observable behaviour are identical, only the
    /// data-plane mechanics differ. Off by default.
    pub fn locked_data_plane(&mut self) -> &mut Self {
        self.locked = true;
        self
    }

    /// Sets the watchdog's sampling period (default 1 ms). Shorter
    /// periods make saturation detection snappier at the cost of one
    /// extra wake-up per period.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn watchdog_interval(&mut self, interval: Duration) -> &mut Self {
        assert!(!interval.is_zero(), "watchdog interval must be positive");
        self.watchdog_interval = interval;
        self
    }

    /// Installs a seeded fault plan ([`RtFaultPlan`]): per-packet drop /
    /// duplication / corruption on data frames, plus proxy stalls and
    /// kills. With no plan installed the wire layer pays one never-taken
    /// branch per packet.
    ///
    /// # Panics
    ///
    /// [`RtClusterBuilder::start`] panics if the plan references a node
    /// outside the cluster.
    pub fn fault_plan(&mut self, plan: RtFaultPlan) -> &mut Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables proxy supervision: a dead proxy is respawned on a fresh
    /// epoch after an exponential backoff (`backoff · 2^restarts_so_far`),
    /// up to `max_restarts` times per node; past the budget the node is
    /// condemned (fail-fast on crash loops). Without supervision any
    /// proxy death condemns its node immediately.
    pub fn supervise(&mut self, max_restarts: u32, backoff: Duration) -> &mut Self {
        self.supervision = Some(SupervisorCfg {
            max_restarts,
            backoff,
        });
        self
    }

    /// Adds a user process on `node` with a segment of `mem_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn add_process(&mut self, node: usize, mem_bytes: usize) -> u32 {
        assert!(node < self.nodes, "node {node} out of range");
        self.procs.push((node, mem_bytes));
        (self.procs.len() - 1) as u32
    }

    /// Starts the proxy threads and returns the cluster handle plus one
    /// [`Endpoint`] per declared process (in declaration order).
    #[must_use]
    pub fn start(self) -> (RtCluster, Vec<Endpoint>) {
        let nodes = self.nodes;
        let shards = self.shards;
        let lanes = nodes * shards;
        let active0 = self.elastic.map_or(shards as u32, |e| e.min);
        let now = Instant::now();
        let obs_hub = ObsHub::new_at(self.telemetry, now);
        // Scope names stay `node{n}` in the classic one-proxy-per-node
        // configuration so existing dashboards / tests are unaffected;
        // sharded lanes get `node{n}s{s}` (merge with `merged_by`).
        let obs: Vec<Arc<ObsScope>> = (0..lanes)
            .map(|l| {
                let (n, s) = (l / shards, l % shards);
                let name = if shards == 1 {
                    format!("node{n}")
                } else {
                    format!("node{n}s{s}")
                };
                obs_hub.register(name, mproxy_obs::DEFAULT_RING_CAP)
            })
            .collect();
        let wires: Vec<Wire> = (0..lanes).map(|_| Wire::new(self.locked)).collect();
        let procs: Vec<Arc<ProcShared>> = self
            .procs
            .iter()
            .enumerate()
            .map(|(i, &(node, bytes))| {
                Arc::new(ProcShared {
                    asid: i as u32,
                    node,
                    seg: Segment::new(bytes),
                    flags: (0..NUM_FLAGS)
                        .map(|_| Arc::new(AtomicU64::new(0)))
                        .collect(),
                    queues: (0..NUM_QUEUES).map(|_| RqStore::new(self.locked)).collect(),
                    faults: Arc::new(AtomicU64::new(0)),
                    timeouts: Arc::new(AtomicU64::new(0)),
                })
            })
            .collect();

        // Per-node asid → shard tables; each asid's initial slot comes
        // from the jump consistent hash over the initially active count.
        let tables: Vec<ShardTable> = (0..nodes)
            .map(|_| ShardTable::new(self.procs.len(), active0))
            .collect();

        // Per-process command queues, grouped by the serving lane, plus
        // the §4.1 ready-bit vector per lane. Qbits are assigned per
        // *node*, so a queue's ready bit is stable across migrations.
        let mut per_lane: Vec<Seat> = (0..lanes).map(|_| Vec::new()).collect();
        let mut node_qbits: Vec<Vec<u32>> = (0..nodes).map(|_| Vec::new()).collect();
        let masks: Vec<Arc<AtomicU64>> =
            (0..lanes).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let mut cmd_txs = Vec::with_capacity(self.procs.len());
        for &(node, _) in &self.procs {
            let (tx, rx) = spsc::channel(CMDQ_DEPTH);
            let asid = cmd_txs.len() as u32;
            let qbit = node_qbits[node].len() as u32;
            assert!(qbit < 64, "at most 64 processes per node");
            node_qbits[node].push(asid);
            let shard = jump_hash(u64::from(asid), active0) as usize;
            tables[node].set_slot(asid, shard as u32);
            per_lane[node * shards + shard].push(SeatEntry { asid, qbit, q: rx });
            cmd_txs.push((tx, node, qbit));
        }

        let shared = Arc::new(Shared {
            procs,
            perms: RwLock::new(HashSet::new()),
            allow_all: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            shards,
            elastic: self.elastic,
            tables,
            node_qbits,
            migr_orders: (0..lanes).map(|_| Mutex::new(Vec::new())).collect(),
            migr_pending: (0..lanes).map(|_| AtomicBool::new(false)).collect(),
            shard_inbox: (0..lanes).map(|_| Mutex::new(Vec::new())).collect(),
            inbox_ready: (0..lanes).map(|_| AtomicBool::new(false)).collect(),
            migr_outstanding: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            migrations_total: AtomicU64::new(0),
            wires,
            parkers: (0..lanes).map(|_| Parker::new()).collect(),
            ops_serviced: (0..lanes)
                .map(|_| Arc::new(AtomicU64::new(0)))
                .collect(),
            panicked: (0..lanes).map(|_| AtomicBool::new(false)).collect(),
            condemned: (0..lanes).map(|_| AtomicBool::new(false)).collect(),
            any_condemned: AtomicBool::new(false),
            epochs: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            deaths: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            restarts_total: AtomicU64::new(0),
            panic_reasons: (0..lanes).map(|_| Mutex::new(None)).collect(),
            node_state: (0..lanes)
                .map(|_| Mutex::new(NodeState::new(lanes, now)))
                .collect(),
            seats: per_lane
                .into_iter()
                .map(|s| Mutex::new(Some(s)))
                .collect(),
            ready_masks: masks,
            handles: Mutex::new((0..lanes).map(|_| None).collect()),
            health: (0..lanes)
                .map(|_| Arc::new(ProxyHealth::default()))
                .collect(),
            shed_enabled: AtomicBool::new(self.shed),
            faults: self
                .fault_plan
                .map(|plan| RtFaultState::new(plan, nodes, shards)),
            supervision: self.supervision,
            started: now,
            locked_plane: self.locked,
            obs_hub,
            obs,
        });

        let endpoints = cmd_txs
            .into_iter()
            .enumerate()
            .map(|(i, (tx, _node, qbit))| Endpoint {
                me: Arc::clone(&shared.procs[i]),
                shared: Arc::clone(&shared),
                cmd: tx,
                qbit,
                next_alloc: 0,
                obs_tick: 0,
            })
            .collect();

        {
            let mut handles = shared.handles.lock().unwrap_or_else(|e| e.into_inner());
            for (lane, slot) in handles.iter_mut().enumerate() {
                let sh = Arc::clone(&shared);
                let name = if shards == 1 {
                    format!("mproxy-{lane}")
                } else {
                    format!("mproxy-{}s{}", lane / shards, lane % shards)
                };
                *slot = Some(
                    std::thread::Builder::new()
                        .name(name)
                        .spawn(move || run_proxy(lane, sh))
                        .expect("spawn proxy thread"),
                );
            }
        }

        let watchdog = {
            let sh = Arc::clone(&shared);
            let interval = self.watchdog_interval;
            std::thread::Builder::new()
                .name("mproxy-watchdog".into())
                .spawn(move || watchdog_main(&sh, interval))
                .expect("spawn watchdog thread")
        };

        let supervisor = shared.supervision.map(|_| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mproxy-supervisor".into())
                .spawn(move || crate::supervisor::supervisor_main(&sh))
                .expect("spawn supervisor thread")
        });

        (
            RtCluster {
                shared,
                watchdog: Some(watchdog),
                supervisor,
            },
            endpoints,
        )
    }
}

/// A running cluster of proxy threads.
pub struct RtCluster {
    shared: Arc<Shared>,
    watchdog: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl RtCluster {
    /// The shard lanes belonging to `node`.
    fn lanes_of(&self, node: usize) -> std::ops::Range<usize> {
        let s = self.shared.shards;
        node * s..(node + 1) * s
    }

    /// Disables allow-all: only explicit grants pass the protection check.
    pub fn restrict(&self) {
        self.shared.allow_all.store(false, Ordering::Relaxed);
    }

    /// Grants `src` access to address space `dst`.
    pub fn grant(&self, src: u32, dst: u32) {
        self.shared
            .perms
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert((src, dst));
    }

    /// Revokes a grant.
    pub fn revoke(&self, src: u32, dst: u32) {
        self.shared
            .perms
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&(src, dst));
    }

    /// Total commands + packets serviced by node `node`'s proxy lanes
    /// (cumulative across respawns, summed over shards).
    #[must_use]
    pub fn ops_serviced(&self, node: usize) -> u64 {
        self.lanes_of(node)
            .map(|l| self.shared.ops_serviced[l].load(Ordering::Relaxed))
            .sum()
    }

    /// The watchdog's last utilisation sample for node `node`: fraction
    /// of the sampling period spent servicing work rather than
    /// idle-polling, in `[0, 1]`. Zero until the first sample lands.
    /// With multiple shards this is the **max** over the node's lanes —
    /// the §5.4 stability bound binds per proxy, and an average would
    /// hide one saturated shard behind idle siblings.
    #[must_use]
    pub fn utilization(&self, node: usize) -> f64 {
        self.lanes_of(node)
            .map(|l| f64::from_bits(self.shared.health[l].util_bits.load(Ordering::Relaxed)))
            .fold(0.0, f64::max)
    }

    /// One shard lane's last utilisation sample (see
    /// [`RtCluster::utilization`]).
    #[must_use]
    pub fn shard_utilization(&self, node: usize, shard: usize) -> f64 {
        let lane = self.shared.lane_of(node, shard);
        f64::from_bits(self.shared.health[lane].util_bits.load(Ordering::Relaxed))
    }

    /// True while **any** of node `node`'s proxy lanes sits above the
    /// paper's stable utilisation bound (§5.4: past 50% the M/M/1
    /// queueing delay grows without bound). Clears once utilisation
    /// falls back under [`RECOVERY_UTILIZATION`].
    #[must_use]
    pub fn saturated(&self, node: usize) -> bool {
        self.lanes_of(node)
            .any(|l| self.shared.health[l].saturated.load(Ordering::Acquire))
    }

    /// Number of times node `node`'s proxy lanes have crossed into
    /// saturation (summed over shards).
    #[must_use]
    pub fn saturation_events(&self, node: usize) -> u64 {
        self.lanes_of(node)
            .map(|l| {
                self.shared.health[l]
                    .saturation_events
                    .load(Ordering::Relaxed)
            })
            .sum()
    }

    /// Request packets rejected on node `node` by overload shedding
    /// ([`RtClusterBuilder::enable_shedding`]).
    #[must_use]
    pub fn shed_count(&self, node: usize) -> u64 {
        self.lanes_of(node)
            .map(|l| self.shared.health[l].shed.load(Ordering::Relaxed))
            .sum()
    }

    /// Nodes with at least one proxy lane dead *right now* (panicked and
    /// not yet respawned; a live query).
    #[must_use]
    pub fn panicked_nodes(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .shared
            .panicked
            .iter()
            .enumerate()
            .filter(|(_, p)| p.load(Ordering::Acquire))
            .map(|(l, _)| self.shared.lane_node(l))
            .collect();
        out.dedup();
        out
    }

    /// Nodes with at least one lane condemned as permanently dead
    /// (crash-looped past the restart budget, or died without
    /// supervision).
    #[must_use]
    pub fn condemned_nodes(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .shared
            .condemned
            .iter()
            .enumerate()
            .filter(|(_, c)| c.load(Ordering::Acquire))
            .map(|(l, _)| self.shared.lane_node(l))
            .collect();
        out.dedup();
        out
    }

    /// Node `node`'s current proxy incarnation (0 until the first
    /// respawn; the max over its shard lanes).
    #[must_use]
    pub fn epoch(&self, node: usize) -> u64 {
        self.lanes_of(node)
            .map(|l| self.shared.epochs[l].load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Times node `node`'s proxy lanes have died by panic (summed over
    /// shards).
    #[must_use]
    pub fn deaths(&self, node: usize) -> u64 {
        self.lanes_of(node)
            .map(|l| self.shared.deaths[l].load(Ordering::Relaxed))
            .sum()
    }

    /// Total proxy respawns performed by supervision.
    #[must_use]
    pub fn restarts_total(&self) -> u64 {
        self.shared.restarts_total.load(Ordering::Relaxed)
    }

    /// The last panic payload recorded for node `node`'s proxy lanes,
    /// when it was a string (first lane with one recorded).
    #[must_use]
    pub fn panic_reason(&self, node: usize) -> Option<String> {
        self.lanes_of(node).find_map(|l| self.shared.panic_reason(l))
    }

    /// Shard lanes node `node` is currently serving commands on.
    #[must_use]
    pub fn active_shards(&self, node: usize) -> usize {
        self.shared.tables[node].active() as usize
    }

    /// The shard slot currently assigned to serve `asid`'s command
    /// queue on its home node.
    #[must_use]
    pub fn shard_of(&self, asid: u32) -> usize {
        let node = self.shared.procs[asid as usize].node;
        self.shared.tables[node].slot(asid) as usize
    }

    /// Completed shard migrations, cluster-wide. The owning lane bumps
    /// the count (`Release`) *before* it flips the shard-table slot, and
    /// this load is `Acquire`, so a caller that has watched
    /// [`RtCluster::shard_of`] change `n` times reads at least `n` here.
    #[must_use]
    pub fn migrations_total(&self) -> u64 {
        self.shared.migrations_total.load(Ordering::Acquire)
    }

    /// Requests a handoff of `asid`'s command queue to `shard` on its
    /// home node (quiesce → drain → retarget, executed by the owning
    /// lane). Returns `false` if the order was rejected up front — the
    /// asid already sits on `shard`, the shard is out of range, or
    /// either lane involved is condemned. A `true` return means the
    /// order was mailed; completion is observable through
    /// [`RtCluster::migrations_total`] / [`RtCluster::shard_of`].
    pub fn migrate_asid(&self, asid: u32, shard: usize) -> bool {
        issue_migration(&self.shared, asid, shard)
    }

    /// Injection counters of the installed fault plan, if any.
    #[must_use]
    pub fn fault_counts(&self) -> Option<RtFaultCounts> {
        self.shared.faults.as_ref().map(RtFaultState::counts)
    }

    /// Arms or disarms telemetry recording at runtime (histograms and
    /// flight recorders; counters are always on).
    pub fn set_telemetry(&self, on: bool) {
        self.shared.obs_hub.set_recording(on);
    }

    /// Whether telemetry recording is armed.
    #[must_use]
    pub fn telemetry(&self) -> bool {
        self.shared.obs_hub.recording()
    }

    /// Point-in-time telemetry snapshot of every node scope — counters
    /// and histograms, taken without stopping the proxies. Cross-node
    /// counter invariants (e.g. `msgs_out == ops_applied + sheds`) only
    /// hold on a quiesced cluster.
    #[must_use]
    pub fn obs_snapshot(&self, label: &str) -> Snapshot {
        self.shared.obs_hub.snapshot(label)
    }

    /// Like [`RtCluster::obs_snapshot`], but with each node's shard
    /// scopes (`node{n}s{s}`) merged into one `node{n}` scope —
    /// counters summed, histograms merged bucket-wise. At one shard per
    /// node this is identical to `obs_snapshot`.
    #[must_use]
    pub fn obs_snapshot_by_node(&self, label: &str) -> Snapshot {
        self.shared.obs_hub.snapshot(label).merged_by(|name| {
            match name.rfind('s') {
                Some(i) if i > 0 && name.starts_with("node") => name[..i].to_string(),
                _ => name.to_string(),
            }
        })
    }

    /// A handle on the telemetry hub that outlives the cluster — take it
    /// before [`RtCluster::shutdown`] to snapshot or dump traces *after*
    /// shutdown, when every proxy has exited and the cross-node counter
    /// invariants are exact.
    #[must_use]
    pub fn obs_handle(&self) -> Arc<ObsHub> {
        Arc::clone(&self.shared.obs_hub)
    }

    /// Dump every node's flight-recorder ring (oldest event first).
    #[must_use]
    pub fn trace_dump(&self) -> Vec<(String, Vec<TraceEvent>)> {
        self.shared.obs_hub.trace_dump()
    }

    /// Surviving flight-recorder events for one node (all of its shard
    /// lanes, merged in timestamp order).
    #[must_use]
    pub fn flight_events(&self, node: usize) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self
            .lanes_of(node)
            .flat_map(|l| self.shared.obs[l].events())
            .collect();
        out.sort_by_key(|e| e.t_ns);
        out
    }

    /// Render every node's flight recorder as a Chrome `trace_event`
    /// (Perfetto) JSON document.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        mproxy_obs::chrome::chrome_trace(&self.trace_dump())
    }

    /// Stops the proxy threads, waits for them to exit, and reports what
    /// it saw: proxies dead by panic, proxies wedged past the default
    /// 10 s deadline (detached, not joined), and the respawn total.
    /// Completes even with endpoint operations still in flight: surviving
    /// proxies drain their queues and retention buffers before exiting.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.stop_and_join(DEFAULT_SHUTDOWN_DEADLINE)
    }

    /// [`RtCluster::shutdown`] with an explicit deadline for the
    /// slowest proxy.
    pub fn shutdown_with_deadline(mut self, deadline: Duration) -> ShutdownReport {
        self.stop_and_join(deadline)
    }

    fn stop_and_join(&mut self, deadline: Duration) -> ShutdownReport {
        self.shared.stop.store(true, Ordering::Relaxed);
        for p in &self.shared.parkers {
            p.wake();
        }
        // The supervisor first: it observes stop promptly, condemns any
        // node that is dead right now (so surviving proxies stop waiting
        // for its acknowledgements), and exits.
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        let handles: Vec<Option<JoinHandle<()>>> = {
            let mut guard = self.shared.handles.lock().unwrap_or_else(|e| e.into_inner());
            guard.iter_mut().map(Option::take).collect()
        };
        let limit = Instant::now() + deadline;
        let mut report = ShutdownReport {
            restarts: self.shared.restarts_total.load(Ordering::Relaxed),
            ..ShutdownReport::default()
        };
        for (lane, handle) in handles.into_iter().enumerate() {
            let Some(handle) = handle else { continue };
            loop {
                if handle.is_finished() {
                    let _ = handle.join();
                    break;
                }
                if Instant::now() >= limit {
                    // Wedged (e.g. stuck in foreign code): report it,
                    // condemn it so nobody waits on it, detach the
                    // handle rather than hanging the shutdown.
                    let node = self.shared.lane_node(lane);
                    if report.wedged_nodes.last() != Some(&node) {
                        report.wedged_nodes.push(node);
                    }
                    condemn(&self.shared, lane);
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        for (lane, p) in self.shared.panicked.iter().enumerate() {
            if p.load(Ordering::Acquire) {
                report.panicked_nodes.push(ProxyPanic {
                    node: self.shared.lane_node(lane),
                    shard: lane % self.shared.shards,
                    reason: self.shared.panic_reason(lane),
                });
            }
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        report
    }
}

impl Drop for RtCluster {
    fn drop(&mut self) {
        let _ = self.stop_and_join(DEFAULT_SHUTDOWN_DEADLINE);
    }
}

/// A user process's handle: submits commands, reads/writes its own
/// segment, observes flags and queues. Not `Clone` — a command queue has
/// exactly one producer.
pub struct Endpoint {
    me: Arc<ProcShared>,
    shared: Arc<Shared>,
    cmd: spsc::Producer,
    qbit: u32,
    next_alloc: u64,
    /// Decimation tick for the sampled `Enqueue` trace (see
    /// [`OBS_SAMPLE_MASK`]).
    obs_tick: u64,
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
    /// stopped advancing — the wait could otherwise never complete. The
    /// progress grace matters on a sharded node: one condemned shard
    /// lane must not abort waits that a live sibling lane is still
    /// serving. A proxy that merely died *under supervision* does not
    /// abort the wait either way: its respawn may still complete the
    /// operation within the timeout.
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
        /// How long a wait may sit without flag progress while some lane
        /// is condemned before concluding it depends on the dead lane.
        const CONDEMNED_GRACE: Duration = Duration::from_millis(250);
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::new();
        let mut grace: Option<(Instant, u64)> = None;
        loop {
            let observed = self.flag(f);
            if observed >= target {
                return Ok(());
            }
            if let Some(lane) = self.shared.condemned_lane() {
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
                        node: self.shared.lane_node(lane),
                        reason: self.shared.panic_reason(lane),
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
        self.me.queues[rq.0 as usize].pop()
    }

    fn submit(&mut self, mut e: Entry) {
        // Route to the lane currently serving this asid's queue. The
        // table read can race a migration — a bit flipped on the old
        // lane's mask is forwarded by that lane's stray-bit scan, so a
        // stale read costs one extra hop, never a lost wakeup.
        let lane = self.shared.lane_of_asid(self.me.asid);
        let obs = &self.shared.obs[lane];
        obs.inc(Ctr::OpsSubmitted);
        self.obs_tick = self.obs_tick.wrapping_add(1);
        if obs.recording() && self.obs_tick & OBS_SAMPLE_MASK == 0 {
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
            // the stall, then fall back to the blocking send.
            obs.inc(Ctr::CreditStalls);
            obs.trace_at(
                self.shared.rel_ns(Instant::now()),
                EventKind::CreditStall,
                self.me.asid as u16,
                e.op,
            );
            self.cmd.send(e);
        }
        // §4.1: flip the shared ready bit so the proxy's idle scan probes
        // one word instead of every queue head — then wake the proxy in
        // case it parked.
        self.shared.ready_masks[lane].fetch_or(1 << self.qbit, Ordering::Release);
        self.shared.parkers[lane].wake();
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

fn unpack_sync(v: u64) -> (Option<u32>, Option<u32>) {
    let l = (v >> 32) as u32;
    let r = v as u32;
    ((l != 0).then(|| l - 1), (r != 0).then(|| r - 1))
}

/// Pushes one wire frame towards `dst`, stashing it in the caller's
/// pending queue if the ring is full or earlier frames are already
/// stashed (FIFO per destination).
fn push_wire(shared: &Shared, pending: &mut VecDeque<WireMsg>, dst: usize, msg: WireMsg) {
    if !pending.is_empty() {
        pending.push_back(msg);
        return;
    }
    match shared.wires[dst].try_push(msg) {
        Ok(()) => shared.parkers[dst].wake(),
        Err(back) => pending.push_back(back),
    }
}

/// Retries stashed outbound frames and owed local deliveries; true if
/// any progress was made. Pending output towards a condemned node is
/// discarded — nobody will ever drain that ring.
fn flush_pending(shared: &Shared, st: &mut NodeState) -> bool {
    let mut progressed = false;
    for (dst, q) in st.pending_wire.iter_mut().enumerate() {
        if q.is_empty() {
            continue;
        }
        if shared.condemned[dst].load(Ordering::Relaxed) {
            q.clear();
            continue;
        }
        let mut pushed = false;
        while let Some(m) = q.pop_front() {
            match shared.wires[dst].try_push(m) {
                Ok(()) => pushed = true,
                Err(back) => {
                    q.push_front(back);
                    break;
                }
            }
        }
        if pushed {
            shared.parkers[dst].wake();
            progressed = true;
        }
    }
    while let Some(p) = st.pending_rq.pop_front() {
        let PendingEnq {
            dst,
            rq,
            data,
            rsync,
        } = p;
        match shared.procs[dst as usize].queues[rq as usize].try_push(data) {
            Ok(()) => {
                if let Some(f) = rsync {
                    shared.set_flag(dst, f);
                }
                progressed = true;
            }
            Err(data) => {
                st.pending_rq.push_front(PendingEnq {
                    dst,
                    rq,
                    data,
                    rsync,
                });
                break;
            }
        }
    }
    progressed
}

/// Sequences, retains, and transmits one data frame from `node` towards
/// `dst_node`, applying the fault injector's verdict (drop / duplicate /
/// corrupt) to the transmission — never to the retained copy, which is
/// what retransmission re-sends.
#[allow(clippy::too_many_arguments)]
fn send_data(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    dst_node: usize,
    body: Payload,
    lsync: Option<(u32, u32)>,
    submit_ns: u64,
) {
    if shared.condemned[dst_node].load(Ordering::Relaxed) {
        // The destination is permanently gone: the op is lost, its lsync
        // never fires (clients observe that through bounded waits), and
        // a GET's CCB is cancelled so the token can't dangle.
        if let Payload::GetReq { token, .. } = body {
            st.ccbs.remove(&token);
        }
        return;
    }
    let obs = &shared.obs[node];
    obs.inc(Ctr::MsgsOut);
    obs.add(Ctr::BytesOut, body.wire_bytes());
    let tx = &mut st.tx[dst_node];
    let seq = tx.next_seq;
    tx.next_seq += 1;
    if tx.retained.is_empty() {
        tx.last_progress = now;
    }
    tx.retained.push_back(Retained {
        seq,
        body: body.clone(),
        lsync,
        // The loop's `now` re-expressed on the shared epoch: pure
        // arithmetic, no extra clock read on the proxy's hot path.
        sent_ns: shared.rel_ns(now),
        submit_ns,
    });
    if shared.sharded() {
        // Route pinning: another frame for this destination asid is now
        // in flight on this stream (released by [`process_ack`]).
        if let Some(a) = route_asid(&body) {
            if let Some(e) = st.routes.get_mut(&a) {
                e.1 += 1;
            }
        }
    }
    let mut corrupt = false;
    let mut duplicate = false;
    if let Some(faults) = &shared.faults {
        if faults.packet_faults_possible() {
            let fate = faults.judge(node);
            if fate.drop || fate.corrupt || fate.duplicate {
                obs.inc(Ctr::FaultsInjected);
                let kind = if fate.drop {
                    EventKind::FaultDrop
                } else if fate.corrupt {
                    EventKind::FaultCorrupt
                } else {
                    EventKind::FaultDup
                };
                obs.trace_at(shared.rel_ns(now), kind, dst_node as u16, seq as u32);
            }
            if fate.drop {
                return; // retention + RTO recover it
            }
            corrupt = fate.corrupt;
            duplicate = fate.duplicate;
        }
    }
    st.obs_tick = st.obs_tick.wrapping_add(1);
    if st.obs_tick & OBS_SAMPLE_MASK == 0 {
        obs.trace_at(
            shared.rel_ns(now),
            EventKind::Send,
            dst_node as u16,
            seq as u32,
        );
    }
    // Retention holds one (refcount) clone; the original moves into the
    // last wire copy.
    let frame = |body| WireMsg::Data {
        from: node,
        seq,
        corrupt,
        body,
    };
    let pending = &mut st.pending_wire[dst_node];
    if duplicate {
        push_wire(shared, pending, dst_node, frame(body.clone()));
    }
    push_wire(shared, pending, dst_node, frame(body));
}

/// Consumes one cumulative acknowledgement from `from`: advances the
/// watermark, releases retention, fires `lsync` flags for accepted
/// frames, and cancels the CCBs of rejected GETs.
fn process_ack(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    from: usize,
    upto: u64,
    rejected: &[u64],
) {
    let NodeState {
        tx,
        ccbs,
        obs_tick,
        routes,
        ..
    } = st;
    let tx = &mut tx[from];
    if upto <= tx.acked {
        return;
    }
    tx.acked = upto;
    tx.last_progress = now;
    let obs = &shared.obs[node];
    let now_ns = shared.rel_ns(now);
    // Cursor into `rejected`: the receiver sheds in sequence order, so
    // the list ascends just as the released frames do.
    let mut shed = 0;
    while tx.retained.front().is_some_and(|r| r.seq <= upto) {
        let r = tx.retained.pop_front().expect("front checked above");
        *obs_tick = obs_tick.wrapping_add(1);
        let sampled = *obs_tick & OBS_SAMPLE_MASK == 0;
        // Wire RTT: first transmission → the releasing cumulative ack.
        if sampled {
            obs.record(HistId::WireRttNs, now_ns.saturating_sub(r.sent_ns));
        }
        if shared.sharded() {
            // Release the route pin taken in [`send_data`] — rejected
            // frames release too; the op is gone either way.
            if let Some(a) = route_asid(&r.body) {
                if let Some(e) = routes.get_mut(&a) {
                    if e.0 == from && e.1 > 0 {
                        e.1 -= 1;
                    }
                }
            }
        }
        while rejected.get(shed).is_some_and(|&s| s < r.seq) {
            shed += 1;
        }
        if rejected.get(shed) == Some(&r.seq) {
            // Shed at the receiver: the op never happened. No lsync; a
            // rejected GET's CCB is cancelled.
            if let Payload::GetReq { token, .. } = r.body {
                ccbs.remove(&token);
            }
        } else if let Some((proc, flag)) = r.lsync {
            // Lsync round trip: user submit stamp → the ack that fires
            // the flag (0 means the stamp predates recording — skip).
            if r.submit_ns != 0 {
                obs.record(HistId::LsyncRttNs, now_ns.saturating_sub(r.submit_ns));
            }
            shared.set_flag(proc, flag);
        }
    }
}

/// Applies one in-order, uncorrupted data frame from node `from`.
fn apply_data(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    from: usize,
    body: Payload,
) {
    match body {
        Payload::Put {
            dst,
            raddr,
            data,
            rsync,
        } => {
            let dp = &shared.procs[dst as usize];
            if dp.seg.check(raddr, data.len()) {
                dp.seg.write(raddr, &data);
                if let Some(f) = rsync {
                    shared.set_flag(dst, f);
                }
            }
        }
        Payload::GetReq {
            src_asid,
            dst,
            raddr,
            nbytes,
            token,
        } => {
            let dp = &shared.procs[dst as usize];
            let data = if dp.seg.check(raddr, nbytes as usize) {
                Some(dp.seg.read(raddr, nbytes as usize))
            } else {
                shared.fault(src_asid);
                None
            };
            send_data(
                shared,
                st,
                node,
                now,
                from,
                Payload::GetReply { token, data },
                None,
                0,
            );
        }
        Payload::GetReply { token, data } => {
            if let Some(ccb) = st.ccbs.remove(&token) {
                if let Some(data) = data {
                    let take = (ccb.nbytes as usize).min(data.len());
                    shared.procs[ccb.proc as usize]
                        .seg
                        .write(ccb.laddr, &data[..take]);
                }
                if let Some(f) = ccb.lsync {
                    shared.set_flag(ccb.proc, f);
                }
            }
        }
        Payload::Enq {
            dst,
            rq,
            data,
            rsync,
        } => {
            // FIFO per queue: anything already owed goes first.
            if !st.pending_rq.is_empty() {
                st.pending_rq.push_back(PendingEnq {
                    dst,
                    rq,
                    data,
                    rsync,
                });
                return;
            }
            match shared.procs[dst as usize].queues[rq as usize].try_push(data) {
                Ok(()) => {
                    if let Some(f) = rsync {
                        shared.set_flag(dst, f);
                    }
                }
                Err(data) => st.pending_rq.push_back(PendingEnq {
                    dst,
                    rq,
                    data,
                    rsync,
                }),
            }
        }
    }
}

/// Handles one inbound wire frame on node `node`.
///
/// A data frame at or below the sender's in-order watermark is a
/// duplicate; the frame right after the watermark is applied, followed by
/// every parked frame the advance makes contiguous; an intact frame
/// further ahead is parked in the reorder buffer; a corrupt frame, or one
/// beyond the reorder window, is dropped. Every arrival that leaves the
/// watermark stuck behind a gap owes the sender a NACK.
///
/// With `shed` set (overload control) an in-order *request* is rejected
/// instead of applied: the watermark still advances, the sequence rides
/// out on the next ack, and the sender unretains it without firing
/// `lsync`. Responses and control frames are handled as always.
fn handle_packet(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    msg: WireMsg,
    shed: bool,
) {
    let obs = &shared.obs[node];
    match msg {
        WireMsg::Data {
            from,
            seq,
            corrupt,
            body,
        } => {
            obs.inc(Ctr::MsgsIn);
            obs.add(Ctr::BytesIn, body.wire_bytes());
            let rx = &mut st.rx[from];
            if seq <= rx.delivered {
                // Duplicate (injected, or a retransmission racing the
                // ack): drop it, re-ack so the sender converges.
                obs.inc(Ctr::DedupDrops);
                obs.trace_at(
                    shared.rel_ns(now),
                    EventKind::DedupDrop,
                    from as u16,
                    seq as u32,
                );
                rx.ack_pending = true;
                return;
            }
            if corrupt || seq != rx.delivered + 1 {
                // Damaged, or ahead of a gap (an earlier frame was lost):
                // park what is intact, and name what is missing on the
                // next NACK.
                match rx.park(seq, (!corrupt).then_some(body)) {
                    Parked::Held => {}
                    Parked::Duplicate => obs.inc(Ctr::DedupDrops),
                    Parked::Dropped => obs.inc(Ctr::DamagedDrops),
                }
                rx.nack_pending = true;
                return;
            }
            rx.advance();
            rx.ack_pending = true;
            let mut ready = if shed && body.is_request() {
                rx.rejected_new.push(seq);
                obs.inc(Ctr::Sheds);
                shared.health[node].shed.fetch_add(1, Ordering::Relaxed);
                obs.trace_at(shared.rel_ns(now), EventKind::Shed, from as u16, seq as u32);
                rx.next_ready()
            } else {
                Some(body)
            };
            // The frame itself, then — the gap (if there was one) having
            // just closed — everything parked behind it that is now
            // contiguous, in order. Parked frames were accepted before
            // any overload verdict, so they are never shed.
            while let Some(body) = ready {
                obs.inc(Ctr::OpsApplied);
                apply_data(shared, st, node, now, from, body);
                ready = st.rx[from].next_ready();
            }
        }
        WireMsg::AckUpto {
            from,
            upto,
            rejected,
        } => {
            obs.inc(Ctr::AcksIn);
            // Acks arrive roughly per service batch under load, so this
            // trace is decimated like the other hot-path events. The
            // resync span in the Chrome exporter tolerates a missed ack:
            // it falls back to the (never-sampled) Hello event.
            st.obs_tick = st.obs_tick.wrapping_add(1);
            if st.obs_tick & OBS_SAMPLE_MASK == 0 {
                obs.trace_at(
                    shared.rel_ns(now),
                    EventKind::AckIn,
                    from as u16,
                    upto as u32,
                );
            }
            process_ack(shared, st, node, now, from, upto, &rejected);
        }
        WireMsg::Nack {
            from,
            since,
            mut missing,
        } => {
            obs.inc(Ctr::NacksIn);
            obs.trace_at(
                shared.rel_ns(now),
                EventKind::NackIn,
                from as u16,
                since as u32,
            );
            let tx = &mut st.tx[from];
            if since < tx.acked {
                // Stale: a later ack overtook it. What it names at or
                // below the watermark has since arrived.
                missing.retain(|&s| s > tx.acked);
            }
            // The latest NACK supersedes any not yet served: it reflects
            // the receiver's newest view of the same gaps.
            tx.nacked = missing;
        }
        WireMsg::Hello { from, epoch } => {
            // A peer's proxy respawned. Re-ack our watermark so its
            // retention drains, and retransmit ours immediately — its
            // wire ring may hold our frames from before the crash, but
            // timers would cover any gap slowly; the hello bounds the
            // resync to one round trip.
            obs.trace_at(
                shared.rel_ns(now),
                EventKind::Hello,
                from as u16,
                epoch as u32,
            );
            st.rx[from].ack_pending = true;
            st.tx[from].resync_hint = true;
        }
    }
}

/// Re-sends `frames` (retained copies) from `node` straight into `dst`'s
/// ring, each transmission judged by the fault injector like a first
/// one; stops early when the ring fills (what is left is recovered by a
/// later NACK or the RTO). Counts and traces what it re-sent.
fn resend<'a>(
    shared: &Shared,
    node: usize,
    now: Instant,
    dst: usize,
    frames: impl Iterator<Item = &'a Retained>,
) {
    let obs = &shared.obs[node];
    let mut pushed = false;
    let mut resent = 0u32;
    'frames: for r in frames {
        let mut corrupt = false;
        let mut copies = 1;
        if let Some(faults) = &shared.faults {
            if faults.packet_faults_possible() {
                let fate = faults.judge(node);
                if fate.drop || fate.corrupt || fate.duplicate {
                    obs.inc(Ctr::FaultsInjected);
                }
                if fate.drop {
                    continue; // the *retransmit* was dropped; a later pass retries
                }
                corrupt = fate.corrupt;
                if fate.duplicate {
                    copies = 2;
                }
            }
        }
        for _ in 0..copies {
            let frame = WireMsg::Data {
                from: node,
                seq: r.seq,
                corrupt,
                body: r.body.clone(),
            };
            if shared.wires[dst].try_push(frame).is_err() {
                break 'frames;
            }
            pushed = true;
        }
        resent += 1;
    }
    if resent > 0 {
        obs.add(Ctr::Retransmits, u64::from(resent));
        obs.trace_at(
            shared.rel_ns(now),
            EventKind::Retransmit,
            dst as u16,
            resent,
        );
    }
    if pushed {
        shared.parkers[dst].wake();
    }
}

/// Retransmission pass, per destination with unacknowledged retention.
/// A resync — the RTO expired with no ack progress, a peer said Hello, or
/// this lane respawned — re-sends a burst from the retention head: the
/// receiver's state is unknown, so assume nothing arrived. Otherwise the
/// frames the receiver's latest NACK named are re-sent, and only those:
/// everything else in flight is parked at the receiver, waiting for
/// them. Frames go straight to the destination ring (never the pending
/// stash — retransmits are redundant by design; the stash must stay
/// FIFO-clean for new traffic).
fn retransmit(shared: &Shared, st: &mut NodeState, node: usize, now: Instant) {
    let NodeState {
        tx, pending_wire, ..
    } = st;
    for (dst, tx) in tx.iter_mut().enumerate() {
        let Some(front) = tx.retained.front().map(|r| r.seq) else {
            tx.resync_hint = false;
            tx.nacked.clear();
            continue;
        };
        if !pending_wire[dst].is_empty() || shared.condemned[dst].load(Ordering::Relaxed) {
            continue;
        }
        if tx.resync_hint || now.duration_since(tx.last_progress) >= RTO {
            tx.resync_hint = false;
            tx.nacked.clear();
            tx.last_progress = now;
            resend(
                shared,
                node,
                now,
                dst,
                tx.retained.iter().take(RESEND_BURST),
            );
        } else if !tx.nacked.is_empty() {
            // Retention is contiguous in sequence, so a named frame sits
            // at `seq - front`; one already acknowledged is simply gone.
            let named = tx.nacked.iter().filter_map(|&seq| {
                let r = tx
                    .retained
                    .get(usize::try_from(seq.checked_sub(front)?).ok()?)?;
                debug_assert_eq!(r.seq, seq);
                Some(r)
            });
            resend(shared, node, now, dst, named);
            tx.nacked.clear();
        }
    }
}

/// Emits the acknowledgement state accumulated this pass: one cumulative
/// [`WireMsg::AckUpto`] per source that delivered (or was shed) anything,
/// one [`WireMsg::Nack`] per source whose watermark is stuck behind a gap
/// or a corrupt frame and that sent anything this pass, naming exactly
/// the sequences still missing.
fn flush_acks(shared: &Shared, st: &mut NodeState, node: usize) {
    let NodeState {
        rx, pending_wire, ..
    } = st;
    let obs = &shared.obs[node];
    for (src, rx) in rx.iter_mut().enumerate() {
        if rx.ack_pending || !rx.rejected_new.is_empty() {
            rx.ack_pending = false;
            let rejected = std::mem::take(&mut rx.rejected_new);
            obs.inc(Ctr::AcksOut);
            push_wire(
                shared,
                &mut pending_wire[src],
                src,
                WireMsg::AckUpto {
                    from: node,
                    upto: rx.delivered,
                    rejected,
                },
            );
        }
        // A gap that closed later in the same pass owes nothing.
        if std::mem::take(&mut rx.nack_pending) && !rx.held.is_empty() {
            obs.inc(Ctr::NacksOut);
            push_wire(
                shared,
                &mut pending_wire[src],
                src,
                WireMsg::Nack {
                    from: node,
                    since: rx.delivered,
                    missing: rx.missing(),
                },
            );
        }
    }
}

/// The destination asid a request payload is routed by, if any.
/// Replies are not routed — they return on the requester's stream.
fn route_asid(body: &Payload) -> Option<u32> {
    match body {
        Payload::Put { dst, .. } | Payload::Enq { dst, .. } | Payload::GetReq { dst, .. } => {
            Some(*dst)
        }
        Payload::GetReply { .. } => None,
    }
}

/// Picks the destination lane for a request towards `dst`. Unsharded,
/// that is simply the destination's node. Sharded, it is the lane the
/// destination node's shard table names — *pinned* while this sender
/// still has frames for `dst` in flight on a previous lane, so one
/// sender's operations on one asid stay on one sequenced stream across
/// a migration (adopting the new lane mid-stream would let the two
/// streams race and reorder). The pin lifts as soon as `in_flight`
/// drains to zero ([`process_ack`]).
fn route_request(shared: &Shared, st: &mut NodeState, dst: u32) -> usize {
    let node = shared.procs[dst as usize].node;
    if !shared.sharded() {
        return node;
    }
    let table_lane = shared.lane_of(node, shared.tables[node].slot(dst) as usize);
    let e = st.routes.entry(dst).or_insert((table_lane, 0));
    if e.1 == 0 {
        e.0 = table_lane;
    }
    e.0
}

/// Decodes and executes one user command on node `node` (protection and
/// bounds checks, then a sequenced transmission towards the destination).
fn handle_command(
    shared: &Shared,
    st: &mut NodeState,
    node: usize,
    now: Instant,
    src: u32,
    e: Entry,
) {
    let laddr = e.args[0];
    let dst = (e.args[2] >> 32) as u32;
    let nbytes = e.args[2] as u32;
    let (lsync, rsync) = unpack_sync(e.args[3]);
    if dst as usize >= shared.procs.len() || !shared.allowed(src, dst) {
        shared.fault(src);
        return;
    }
    let src_proc = &shared.procs[src as usize];
    match e.op {
        OP_PUT => {
            if !src_proc.seg.check(laddr, nbytes as usize) {
                shared.fault(src);
                return;
            }
            let data = src_proc.seg.read(laddr, nbytes as usize);
            let raddr = e.args[1];
            let dst_lane = route_request(shared, st, dst);
            send_data(
                shared,
                st,
                node,
                now,
                dst_lane,
                Payload::Put {
                    dst,
                    raddr,
                    data,
                    rsync,
                },
                lsync.map(|l| (src, l)),
                e.t_ns,
            );
        }
        OP_GET => {
            if !src_proc.seg.check(laddr, nbytes as usize) {
                shared.fault(src);
                return;
            }
            let token = st.next_token;
            st.next_token += 1;
            st.ccbs.insert(
                token,
                CcbGet {
                    proc: src,
                    laddr,
                    nbytes,
                    lsync,
                },
            );
            let dst_lane = route_request(shared, st, dst);
            send_data(
                shared,
                st,
                node,
                now,
                dst_lane,
                Payload::GetReq {
                    src_asid: src,
                    dst,
                    raddr: e.args[1],
                    nbytes,
                    token,
                },
                None,
                e.t_ns,
            );
        }
        OP_ENQ => {
            if !src_proc.seg.check(laddr, nbytes as usize) {
                shared.fault(src);
                return;
            }
            let rq = e.args[1] as u32;
            if rq as usize >= NUM_QUEUES {
                shared.fault(src);
                return;
            }
            let data = src_proc.seg.read(laddr, nbytes as usize);
            let dst_lane = route_request(shared, st, dst);
            send_data(
                shared,
                st,
                node,
                now,
                dst_lane,
                Payload::Enq {
                    dst,
                    rq,
                    data,
                    rsync,
                },
                lsync.map(|l| (src, l)),
                e.t_ns,
            );
        }
        _ => shared.fault(src),
    }
}

/// Mails a migration order for `asid` towards shard `shard` of its
/// home node. Returns `false` when rejected up front: the cluster is
/// unsharded, the shard is out of range, the move is a no-op, or either
/// lane involved is condemned. Acceptance means the order reaches the
/// owning lane's mailbox; the lane itself re-validates on intake.
fn issue_migration(shared: &Shared, asid: u32, shard: usize) -> bool {
    if !shared.sharded() || asid as usize >= shared.procs.len() || shard >= shared.shards {
        return false;
    }
    let node = shared.procs[asid as usize].node;
    let src_lane = shared.lane_of(node, shared.tables[node].slot(asid) as usize);
    let dst_lane = shared.lane_of(node, shard);
    if src_lane == dst_lane
        || shared.condemned[src_lane].load(Ordering::Relaxed)
        || shared.condemned[dst_lane].load(Ordering::Relaxed)
    {
        return false;
    }
    shared.migr_outstanding[node].fetch_add(1, Ordering::Relaxed);
    shared.migr_orders[src_lane]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(MigrOrder { asid, dst_lane });
    shared.migr_pending[src_lane].store(true, Ordering::Release);
    shared.parkers[src_lane].wake();
    true
}

/// The ready bits a seat's queues answer to.
fn seat_mask(seat: &[SeatEntry]) -> u64 {
    seat.iter().fold(0, |m, e| m | (1 << e.qbit))
}

/// The ready bits of queues quiesced by an in-progress handoff.
fn quiesce_mask_of(st: &NodeState) -> u64 {
    st.migr.iter().fold(0, |m, g| m | (1 << g.qbit))
}

/// Takes mailed migration orders and begins the quiesce for each
/// accepted one: snapshot the per-destination send high-water marks;
/// the handoff completes once every mark is acknowledged
/// ([`progress_migrations`]). Invalid or stale orders are dropped.
fn intake_migrations(shared: &Shared, st: &mut NodeState, lane: usize, seat: &[SeatEntry]) {
    let orders: Vec<MigrOrder> = {
        let mut g = shared.migr_orders[lane]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        shared.migr_pending[lane].store(false, Ordering::Release);
        std::mem::take(&mut *g)
    };
    let node = shared.lane_node(lane);
    for o in orders {
        let entry = seat.iter().find(|e| e.asid == o.asid);
        let valid = entry.is_some()
            && o.dst_lane != lane
            && o.dst_lane < shared.lanes()
            && shared.lane_node(o.dst_lane) == node
            && !shared.condemned[o.dst_lane].load(Ordering::Relaxed)
            && st.migr.iter().all(|m| m.asid != o.asid);
        if !valid {
            shared.migr_outstanding[node].fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        let qbit = entry.expect("validated above").qbit;
        // Quiesce begins here: the asid's queue is no longer drained by
        // this lane, and everything it already contributed is bounded
        // by these marks.
        let marks = st.tx.iter().map(|t| t.next_seq.saturating_sub(1)).collect();
        st.migr.push(Migration {
            asid: o.asid,
            qbit,
            dst_lane: o.dst_lane,
            marks,
        });
    }
}

/// Advances in-progress handoffs: aborts ones whose destination lane
/// was condemned; completes ones whose drain finished (every mark
/// acknowledged by a live peer) by moving the seat entry into the
/// destination's inbox and flipping the shard-table slot. Returns true
/// if the seat or the migration set changed.
fn progress_migrations(
    shared: &Shared,
    st: &mut NodeState,
    lane: usize,
    seat: &mut Vec<SeatEntry>,
    now: Instant,
) -> bool {
    let node = shared.lane_node(lane);
    let mut changed = false;
    let mut i = 0;
    while i < st.migr.len() {
        if shared.condemned[st.migr[i].dst_lane].load(Ordering::Relaxed) {
            st.migr.swap_remove(i);
            shared.migr_outstanding[node].fetch_sub(1, Ordering::Relaxed);
            changed = true;
            continue;
        }
        let drained = {
            let m = &st.migr[i];
            st.tx
                .iter()
                .zip(&m.marks)
                .enumerate()
                .all(|(d, (tx, &mark))| {
                    tx.acked >= mark || shared.condemned[d].load(Ordering::Relaxed)
                })
        };
        if !drained {
            i += 1;
            continue;
        }
        let m = st.migr.swap_remove(i);
        changed = true;
        let Some(pos) = seat.iter().position(|e| e.asid == m.asid) else {
            // The entry left the seat since intake (stale state from a
            // previous incarnation): nothing to hand over.
            shared.migr_outstanding[node].fetch_sub(1, Ordering::Relaxed);
            continue;
        };
        let entry = seat.swap_remove(pos);
        // Retarget: inbox first, then the table flip (`Release`), so a
        // submitter reading the new slot finds the consumer already in
        // (or on its way into) the destination's hands.
        shared.shard_inbox[m.dst_lane]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(entry);
        // Counted before the flip: whoever sees the new slot also sees
        // this handoff in `migrations_total`.
        shared.migrations_total.fetch_add(1, Ordering::Release);
        shared.tables[node].set_slot(m.asid, (m.dst_lane % shared.shards) as u32);
        shared.inbox_ready[m.dst_lane].store(true, Ordering::Release);
        // Hand the ready bit over armed: commands may be pending.
        shared.ready_masks[m.dst_lane].fetch_or(1 << m.qbit, Ordering::Release);
        shared.parkers[m.dst_lane].wake();
        shared.migr_outstanding[node].fetch_sub(1, Ordering::Relaxed);
        let obs = &shared.obs[lane];
        obs.inc(Ctr::Migrations);
        obs.trace_at(
            shared.rel_ns(now),
            EventKind::MigrateOut,
            m.asid as u16,
            m.dst_lane as u32,
        );
    }
    changed
}

/// One incarnation of a lane's proxy: takes the lane's seat (command
/// consumers) and protocol state, runs the service loop under
/// `catch_unwind`, and on panic returns the seat, records the payload,
/// and raises the panic bit — so a supervisor can respawn a successor
/// that resumes from the exact same state.
pub(crate) fn run_proxy(lane: usize, shared: Arc<Shared>) {
    let Some(mut seat) = shared.seats[lane]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
    else {
        return; // a racing incarnation holds the seat; let it serve
    };
    let mut guard = shared.node_state[lane]
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        proxy_main(lane, &mut seat, &mut guard, &shared);
    }));
    // The guard is dropped here, *outside* any unwinding — the node-state
    // mutex is never poisoned by a proxy death.
    drop(guard);
    *shared.seats[lane].lock().unwrap_or_else(|e| e.into_inner()) = Some(seat);
    if let Err(payload) = result {
        let reason = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        let obs = &shared.obs[lane];
        obs.inc(Ctr::Kills);
        obs.trace(EventKind::Kill, lane as u16, 0);
        if std::env::var_os("MPROXY_OBS_DUMP_ON_PANIC").is_some() {
            eprintln!(
                "mproxy-rt: {} flight recorder at death:\n{}",
                obs.name(),
                obs.events()
                    .iter()
                    .map(|e| format!(
                        "  t={}ns {} a={} b={}",
                        e.t_ns,
                        e.kind.name(),
                        e.a,
                        e.b
                    ))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        shared.deaths[lane].fetch_add(1, Ordering::Relaxed);
        *shared.panic_reasons[lane]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(reason);
        if shared.supervision.is_none() || shared.stop.load(Ordering::Relaxed) {
            // Nobody will respawn this lane (no supervisor, or it is
            // already shutting down): condemn so waits and drains abort.
            condemn_dead(&shared, lane);
        }
        // Last: the panic bit is what the supervisor polls, and every
        // observer must already see the seat, the reason and (possibly)
        // the condemnation when it flips.
        shared.panicked[lane].store(true, Ordering::Release);
    }
}

/// The proxy service loop: the Figure 5 loop over real queues and wires,
/// plus the reliability layer (retention, acks, retransmission), the
/// fault injector's time-domain hooks, condemned-peer purging, and —
/// when sharded — handoff intake, drain tracking, and stray ready-bit
/// forwarding.
#[allow(clippy::too_many_lines)]
fn proxy_main(lane: usize, seat: &mut Vec<SeatEntry>, st: &mut NodeState, shared: &Shared) {
    let node = shared.lane_node(lane);
    let parker = &shared.parkers[lane];
    parker.register();
    let ready = &*shared.ready_masks[lane];
    let wire_rx = &shared.wires[lane];
    let health = &shared.health[lane];
    let mut batch: Vec<Entry> = Vec::with_capacity(SERVICE_BURST);
    let mut backoff = Backoff::new();
    let mut legacy_idle_spins = 0u32;
    let mut stop_flush_tries = 0u32;
    // Which of this node's ready bits the seat answers to, and which are
    // frozen by an in-progress handoff. Both the seat and `st.migr`
    // survive incarnations, so recompute on entry.
    let mut owned_mask = seat_mask(seat);
    let mut quiesce_mask = quiesce_mask_of(st);
    // Bits actually assigned to queues on this node (the stop path
    // re-arms all 64; unassigned ones must not be "forwarded").
    let qbits = shared.node_qbits[node].len();
    let valid_mask = if qbits >= 64 { u64::MAX } else { (1u64 << qbits) - 1 };
    loop {
        let now = Instant::now();
        // Injected time-domain faults: kills panic right here (the
        // catch_unwind in run_proxy turns that into a death the
        // supervisor can see); stalls freeze the loop wholesale.
        if let Some(faults) = &shared.faults {
            if faults.has_timed_faults() {
                let ops = shared.ops_serviced[lane].load(Ordering::Relaxed);
                if let Some(threshold) = faults.kill_due(lane, ops) {
                    if shared.sharded() {
                        panic!(
                            "injected kill: node {node} shard {shard} after {threshold} ops",
                            shard = lane % shared.shards
                        );
                    }
                    panic!("injected kill: node {node} after {threshold} ops");
                }
                if let Some(order) = faults.stall_due(lane, now.duration_since(shared.started)) {
                    if order.interruptible {
                        let _ = crate::idle::sleep_unless(order.remaining, &shared.stop);
                    } else {
                        // A wedge: models a proxy stuck in foreign code,
                        // deaf even to the stop signal.
                        std::thread::sleep(order.remaining);
                    }
                    continue;
                }
            }
        }
        // Purge traffic to and from condemned peers: their rings will
        // never drain, their acks and retransmissions will never come.
        // Retained GETs cancel their CCBs; lsyncs never fire (the op is
        // lost, and bounded waits report it). Route pins towards a dead
        // lane are lifted so senders re-read the shard table.
        if shared.any_condemned.load(Ordering::Acquire) {
            for dst in 0..shared.lanes() {
                if dst == lane || !shared.condemned[dst].load(Ordering::Relaxed) {
                    continue;
                }
                st.pending_wire[dst].clear();
                let NodeState {
                    tx,
                    rx,
                    ccbs,
                    routes,
                    ..
                } = &mut *st;
                for r in tx[dst].retained.drain(..) {
                    if let Payload::GetReq { token, .. } = r.body {
                        ccbs.remove(&token);
                    }
                }
                tx[dst].resync_hint = false;
                routes.retain(|_, e| e.0 != dst);
                // Frames parked behind a gap the dead lane will never
                // fill are abandoned — counted, so the receiver's
                // `msgs_in` identity stays exact.
                shared.obs[lane].add(Ctr::DamagedDrops, rx[dst].abandon_held());
            }
        }
        // A fresh incarnation owes its peers a Hello (and owes itself a
        // retransmission pass — peers may have acked frames the wire
        // lost while the lane was down).
        if st.hello_pending {
            st.hello_pending = false;
            let epoch = st.epoch;
            let obs = &shared.obs[lane];
            obs.trace_at(shared.rel_ns(now), EventKind::Hello, lane as u16, epoch as u32);
            for dst in 0..shared.lanes() {
                if dst == lane {
                    continue;
                }
                st.tx[dst].resync_hint = true;
                if shared.condemned[dst].load(Ordering::Relaxed) {
                    continue;
                }
                obs.inc(Ctr::HellosOut);
                push_wire(
                    shared,
                    &mut st.pending_wire[dst],
                    dst,
                    WireMsg::Hello { from: lane, epoch },
                );
            }
        }
        // Shard bookkeeping: adopt queues handed over by a sibling,
        // then accept mailed orders and advance in-progress handoffs.
        if shared.sharded() {
            if shared.inbox_ready[lane].load(Ordering::Acquire) {
                let incoming: Vec<SeatEntry> = {
                    let mut g = shared.shard_inbox[lane]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    shared.inbox_ready[lane].store(false, Ordering::Release);
                    std::mem::take(&mut *g)
                };
                if !incoming.is_empty() {
                    let obs = &shared.obs[lane];
                    for e in incoming {
                        obs.trace_at(
                            shared.rel_ns(now),
                            EventKind::MigrateIn,
                            e.asid as u16,
                            e.qbit,
                        );
                        ready.fetch_or(1 << e.qbit, Ordering::Release);
                        seat.push(e);
                    }
                    owned_mask = seat_mask(seat);
                }
            }
            if !shared.stop.load(Ordering::Relaxed) {
                if shared.migr_pending[lane].load(Ordering::Acquire) {
                    intake_migrations(shared, st, lane, seat);
                    quiesce_mask = quiesce_mask_of(st);
                }
                if !st.migr.is_empty() && progress_migrations(shared, st, lane, seat, now) {
                    owned_mask = seat_mask(seat);
                    quiesce_mask = quiesce_mask_of(st);
                }
            }
        }
        let mut progressed = false;
        // Stashed outbound packets go first: per-destination FIFO.
        progressed |= flush_pending(shared, st);
        // User command queues: consult the ready-bit vector, then drain a
        // burst per queue. While the outbound stash is deep the drain
        // pauses (bits stay set), so the bounded command rings
        // backpressure users and per-lane occupancy stays bounded.
        if st.backlogged() < PENDING_CAP {
            let mask = ready.swap(0, Ordering::Acquire);
            if mask != 0 {
                // Bits for queues this lane does not own (a submitter
                // raced a migration, or a handoff arrived with its bit
                // already set): forward each to the serving lane.
                let strays = mask & !owned_mask & valid_mask;
                if strays != 0 && shared.sharded() {
                    for (qb, &asid) in shared.node_qbits[node].iter().enumerate() {
                        if strays & (1 << qb) == 0 {
                            continue;
                        }
                        let tgt = shared.lane_of_asid(asid);
                        if tgt == lane {
                            // Mid-handoff towards us: the seat entry is
                            // still in flight; re-arm, resolve next pass.
                            ready.fetch_or(1 << qb, Ordering::Release);
                        } else {
                            shared.ready_masks[tgt].fetch_or(1 << qb, Ordering::Release);
                            shared.parkers[tgt].wake();
                        }
                    }
                }
                let mut m = mask & owned_mask;
                if quiesce_mask != 0 {
                    // Quiesced queues wait out the handoff; keep their
                    // bits armed for the next owner.
                    ready.fetch_or(m & quiesce_mask, Ordering::Release);
                    m &= !quiesce_mask;
                }
                if m != 0 {
                    for e in seat.iter_mut() {
                        let bit = 1u64 << e.qbit;
                        if m & bit == 0 {
                            continue;
                        }
                        let taken = e.q.pop_burst(&mut batch, SERVICE_BURST);
                        let src = e.asid;
                        let obs = &shared.obs[lane];
                        let drain_ns = shared.rel_ns(now);
                        for entry in batch.drain(..) {
                            // Command-queue wait: submit stamp → this
                            // drain. `t_ns == 0` means the entry was
                            // unstamped (recording off at submit time).
                            if entry.t_ns != 0 {
                                obs.record(HistId::CmdWaitNs, drain_ns.saturating_sub(entry.t_ns));
                            }
                            handle_command(shared, st, lane, now, src, entry);
                        }
                        if taken > 0 {
                            st.obs_tick = st.obs_tick.wrapping_add(1);
                            if st.obs_tick & OBS_SAMPLE_MASK == 0 {
                                obs.trace_at(drain_ns, EventKind::Drain, src as u16, taken as u32);
                            }
                            shared.ops_serviced[lane].fetch_add(taken as u64, Ordering::Relaxed);
                            progressed = true;
                        }
                        if e.q.is_ready() {
                            // Entries remain past the burst; re-arm the
                            // bit so the next scan comes back.
                            ready.fetch_or(bit, Ordering::Release);
                        }
                    }
                }
            }
        }
        // Overload control: a saturated proxy rejects the oldest request
        // frames over the backlog cap. Rejection *advances the delivered
        // watermark* and reports the sequence on the next ack, so the
        // sender unretains without firing lsync — "acked ⇒ applied
        // exactly once" survives shedding. Control frames and responses
        // are serviced normally even over the cap.
        if shared.shed_enabled.load(Ordering::Relaxed) && health.saturated.load(Ordering::Acquire)
        {
            while wire_rx.len() > SHED_BACKLOG {
                let Some(msg) = wire_rx.pop() else { break };
                handle_packet(shared, st, lane, now, msg, true);
                shared.ops_serviced[lane].fetch_add(1, Ordering::Relaxed);
                progressed = true;
            }
        }
        // Network input (burst-bounded like the command queues: a flooded
        // wire refills faster than it drains, and this loop must not
        // become the whole iteration).
        let mut burst = 0;
        while burst < SERVICE_BURST {
            let Some(msg) = wire_rx.pop() else { break };
            handle_packet(shared, st, lane, now, msg, false);
            shared.ops_serviced[lane].fetch_add(1, Ordering::Relaxed);
            progressed = true;
            burst += 1;
        }
        // Reliability upkeep: retransmit overdue retention, then emit the
        // acks and nacks this pass accumulated. Neither counts as
        // progress — an idle-but-unacked sender must still reach the
        // park below (its 1 ms timeout doubles as the retransmit clock).
        retransmit(shared, st, lane, now);
        flush_acks(shared, st, lane);
        if progressed {
            // Busy time feeds the watchdog's utilisation samples; idle
            // polling scans are charged to nobody, exactly like the
            // simulator's per-node busy counter.
            health.busy_ns.fetch_add(
                u64::try_from(now.elapsed().as_nanos()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
            backoff.reset();
            legacy_idle_spins = 0;
            stop_flush_tries = 0;
            continue;
        }
        if shared.stop.load(Ordering::Relaxed) {
            // Abort handoffs in flight — nothing will complete them now;
            // the queues stay (and drain) where they are.
            if shared.sharded() {
                let aborted = {
                    let mut g = shared.migr_orders[lane]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    shared.migr_pending[lane].store(false, Ordering::Release);
                    g.drain(..).count() + st.migr.drain(..).count()
                };
                if aborted > 0 {
                    shared.migr_outstanding[node].fetch_sub(aborted as u64, Ordering::Relaxed);
                    quiesce_mask = 0;
                }
                // A sibling may have completed a handoff towards us just
                // now: adopt it (at the loop top) before deciding we are
                // drained.
                if shared.inbox_ready[lane].load(Ordering::Acquire) {
                    continue;
                }
            }
            // Final drain pass (ready bits may have raced with stop).
            let drained = seat.iter_mut().all(|e| !e.q.is_ready());
            if drained && wire_rx.is_empty() {
                // Exit only once nothing is owed: no stashed output, and
                // no unacknowledged frames towards live peers (their
                // acks are what release our retention — and our lsyncs).
                let unacked = st
                    .tx
                    .iter()
                    .enumerate()
                    .any(|(d, tx)| {
                        !tx.retained.is_empty() && !shared.condemned[d].load(Ordering::Relaxed)
                    });
                if st.outbox_empty() && !unacked {
                    break;
                }
                // A peer may be gone without condemnation (or its ring
                // is full forever): bounded retries, then in-flight
                // traffic is abandoned — lossy at shutdown by contract.
                stop_flush_tries += 1;
                if stop_flush_tries > STOP_FLUSH_TRIES {
                    break;
                }
            }
            // Re-arm all bits so the next pass scans everything.
            ready.fetch_or(u64::MAX, Ordering::Release);
            std::thread::yield_now();
            continue;
        }
        if shared.locked_plane {
            // The baseline's idle loop, kept verbatim for the A/B: a
            // fixed spin budget, then yield forever — never parks, so an
            // idle proxy keeps taxing the host scheduler.
            if legacy_idle_spins < LEGACY_IDLE_SPINS {
                legacy_idle_spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            continue;
        }
        // Idle: escalate spin → yield → park. Parking is gated on an
        // empty outbound stash (stashed packets wait on a peer's ring,
        // which sends no wake when space frees up). Unacknowledged
        // retention does *not* block parking: the bounded park timeout
        // re-probes often enough to serve as the RTO clock.
        if backoff.is_parkable() && st.outbox_empty() {
            parker.prepare_park();
            if ready.load(Ordering::SeqCst) != 0
                || !wire_rx.is_empty()
                || shared.stop.load(Ordering::Relaxed)
            {
                parker.cancel();
            } else {
                parker.park(PARK_TIMEOUT);
            }
            backoff.reset();
        } else {
            backoff.snooze();
        }
    }
    // A clean exit: whatever is still parked behind a gap is in-flight
    // traffic lost to the shutdown. Count it, so every frame this lane
    // ever popped sits in exactly one outcome bucket.
    abandon_all_held(shared, st, lane);
}

/// The overload watchdog: every `interval` it turns each proxy lane's
/// busy-time delta into a utilisation sample and applies the paper's
/// §5.4 stability rule *per lane* — a proxy above [`STABLE_UTILIZATION`]
/// has unbounded expected queueing delay, so it is flagged saturated
/// (with a one-time warning per lane) until the load falls back under
/// [`RECOVERY_UTILIZATION`]. The node-level view takes the max over
/// lanes ([`RtCluster::utilization`]): the bound binds per proxy
/// thread, and averaging would hide a hot shard behind idle siblings.
/// With elastic scaling enabled, the same samples drive the shard
/// controller ([`elastic_tick`]).
fn watchdog_main(shared: &Shared, interval: Duration) {
    let lanes = shared.lanes();
    let mut prev_busy = vec![0u64; lanes];
    let mut warned = vec![false; lanes];
    let mut utils = vec![0f64; lanes];
    let nodes = shared.tables.len();
    let mut cooldown = vec![0u32; nodes];
    let mut idle_ticks = vec![0u32; nodes];
    let mut prev_t = Instant::now();
    while crate::idle::sleep_unless(interval, &shared.stop) {
        let now = Instant::now();
        let wall_ns = now.duration_since(prev_t).as_nanos();
        if wall_ns == 0 {
            continue;
        }
        prev_t = now;
        for (lane, h) in shared.health.iter().enumerate() {
            let busy = h.busy_ns.load(Ordering::Relaxed);
            let delta = busy.saturating_sub(prev_busy[lane]);
            prev_busy[lane] = busy;
            let util = (u128::from(delta) as f64 / wall_ns as f64).min(1.0);
            utils[lane] = util;
            h.util_bits.store(util.to_bits(), Ordering::Relaxed);
            let obs = &shared.obs[lane];
            // Busy fraction as permille, one sample per watchdog tick.
            obs.record(HistId::BusyPermille, (util * 1000.0) as u64);
            // Two overload signals. Utilisation is the paper's §5.4 rule,
            // but it is a time-domain measure: on an oversubscribed host
            // the proxy thread may be descheduled and sample low even as
            // its input queue grows without bound. Backlog is the
            // space-domain symptom of the same instability and is immune
            // to scheduler noise, so either one trips the flag.
            let backlog = shared.wires[lane].len();
            let was = h.saturated.load(Ordering::Acquire);
            if !was && (util > STABLE_UTILIZATION || backlog > SHED_BACKLOG) {
                h.saturation_events.fetch_add(1, Ordering::Relaxed);
                obs.inc(Ctr::SaturationEvents);
                obs.trace(EventKind::SatEnter, lane as u16, backlog as u32);
                h.saturated.store(true, Ordering::Release);
                // A shedding proxy may be parked with its wire already
                // over the cap; make sure it sees the flag.
                shared.parkers[lane].wake();
                if !warned[lane] {
                    warned[lane] = true;
                    let who = if shared.sharded() {
                        format!(
                            "node {} shard {} proxy",
                            shared.lane_node(lane),
                            lane % shared.shards
                        )
                    } else {
                        format!("node {lane} proxy")
                    };
                    eprintln!(
                        "mproxy-rt: {who} overloaded ({:.0}% utilisation, \
                         {backlog} queued) — past the 50% stability bound, queueing \
                         delay is now unbounded",
                        util * 100.0
                    );
                }
            } else if was && util < RECOVERY_UTILIZATION && backlog < SHED_BACKLOG / 2 {
                obs.trace(EventKind::SatExit, lane as u16, backlog as u32);
                h.saturated.store(false, Ordering::Release);
            }
        }
        if let Some(range) = shared.elastic {
            elastic_tick(shared, range, &utils, &mut cooldown, &mut idle_ticks);
        }
    }
}

/// One elastic-controller decision pass, piggybacked on the watchdog
/// tick. Per node: grow by one shard when any active lane is saturated
/// (§5.4 — a single overloaded proxy already has unbounded delay);
/// shrink by one when *every* active lane has sat under
/// [`RECOVERY_UTILIZATION`] for [`SHRINK_IDLE_TICKS`] consecutive
/// ticks. Decisions wait out [`SCALE_COOLDOWN_TICKS`] after each scale
/// and defer entirely while any migration is outstanding, so the
/// controller never chases its own transients.
fn elastic_tick(
    shared: &Shared,
    range: ElasticRange,
    utils: &[f64],
    cooldown: &mut [u32],
    idle_ticks: &mut [u32],
) {
    for node in 0..shared.tables.len() {
        if cooldown[node] > 0 {
            cooldown[node] -= 1;
        }
        if shared.migr_outstanding[node].load(Ordering::Relaxed) > 0 {
            continue;
        }
        let active = shared.tables[node].active();
        let any_sat = (0..active as usize).any(|s| {
            shared.health[shared.lane_of(node, s)]
                .saturated
                .load(Ordering::Acquire)
        });
        if any_sat {
            idle_ticks[node] = 0;
            if active < range.max && cooldown[node] == 0 && rebalance(shared, node, active + 1)
            {
                cooldown[node] = SCALE_COOLDOWN_TICKS;
                let obs = &shared.obs[shared.lane_of(node, 0)];
                obs.inc(Ctr::ShardGrows);
                obs.trace(EventKind::ShardScale, node as u16, active + 1);
            }
            continue;
        }
        let all_idle =
            (0..active as usize).all(|s| utils[shared.lane_of(node, s)] < RECOVERY_UTILIZATION);
        if !all_idle || active <= range.min {
            idle_ticks[node] = 0;
            continue;
        }
        idle_ticks[node] += 1;
        if idle_ticks[node] >= SHRINK_IDLE_TICKS
            && cooldown[node] == 0
            && rebalance(shared, node, active - 1)
        {
            idle_ticks[node] = 0;
            cooldown[node] = SCALE_COOLDOWN_TICKS;
            let obs = &shared.obs[shared.lane_of(node, 0)];
            obs.inc(Ctr::ShardShrinks);
            obs.trace(EventKind::ShardScale, node as u16, active - 1);
        }
    }
}

/// Re-partitions `node`'s asids over `new_active` shards with the jump
/// consistent hash (minimal movement: only keys whose bucket changes
/// migrate) and flips the active count. Returns false — changing
/// nothing — if any target lane is condemned.
fn rebalance(shared: &Shared, node: usize, new_active: u32) -> bool {
    for s in 0..new_active as usize {
        if shared.condemned[shared.lane_of(node, s)].load(Ordering::Relaxed) {
            return false;
        }
    }
    shared.tables[node].set_active(new_active);
    for asid in 0..shared.procs.len() as u32 {
        if shared.procs[asid as usize].node != node {
            continue;
        }
        let want = jump_hash(u64::from(asid), new_active);
        if want != shared.tables[node].slot(asid) {
            let _ = issue_migration(shared, asid, want as usize);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distinguishable intact frame body.
    fn body(tag: u64) -> Payload {
        Payload::GetReply {
            token: tag,
            data: None,
        }
    }

    fn tag(p: &Payload) -> u64 {
        match p {
            Payload::GetReply { token, .. } => *token,
            other => panic!("unexpected payload {other:?}"),
        }
    }

    /// Everything the buffer releases right now, in release order.
    fn ready(rx: &mut RxPeer) -> Vec<u64> {
        std::iter::from_fn(|| rx.next_ready())
            .map(|p| tag(&p))
            .collect()
    }

    #[test]
    fn parked_frames_release_in_order_once_the_gap_fills() {
        let mut rx = RxPeer::default();
        // 1 and 4 are lost; 2, 3, 5 arrive (3 twice).
        assert_eq!(rx.park(3, Some(body(3))), Parked::Held);
        assert_eq!(rx.park(2, Some(body(2))), Parked::Held);
        assert_eq!(rx.park(3, Some(body(33))), Parked::Duplicate);
        assert_eq!(rx.park(5, Some(body(5))), Parked::Held);
        assert_eq!(rx.missing(), vec![1, 4]);
        assert!(ready(&mut rx).is_empty(), "slot 0 is still a hole");
        // 1 arrives in order: the caller applies it and advances.
        rx.advance();
        assert_eq!(ready(&mut rx), vec![2, 3]);
        assert_eq!(rx.delivered, 3);
        assert_eq!(rx.missing(), vec![4]);
        rx.advance();
        assert_eq!(ready(&mut rx), vec![5]);
        assert_eq!(rx.delivered, 5);
        assert!(rx.held.is_empty() && rx.missing().is_empty());
    }

    #[test]
    fn corrupt_frame_is_dropped_but_named_by_the_next_nack() {
        let mut rx = RxPeer {
            delivered: 9,
            ..RxPeer::default()
        };
        assert_eq!(rx.park(10, None), Parked::Dropped);
        assert_eq!(rx.missing(), vec![10]);
        assert_eq!(rx.park(12, None), Parked::Dropped);
        assert_eq!(rx.missing(), vec![10, 11, 12]);
        // A corrupt copy never displaces an intact parked one.
        assert_eq!(rx.park(11, Some(body(11))), Parked::Held);
        assert_eq!(rx.park(11, None), Parked::Duplicate);
        assert_eq!(rx.missing(), vec![10, 12]);
        assert_eq!(rx.abandon_held(), 1);
        assert!(rx.held.is_empty());
    }

    #[test]
    fn hold_buffer_never_exceeds_its_window() {
        let mut rx = RxPeer::default();
        let cap = HOLD_WINDOW as u64;
        // Sequence 1 is missing; everything up to 3× the window arrives.
        for seq in 2..=3 * cap {
            let want = if seq <= cap {
                Parked::Held
            } else {
                Parked::Dropped
            };
            assert_eq!(rx.park(seq, Some(body(seq))), want, "seq {seq}");
            assert!(rx.held.len() <= HOLD_WINDOW);
        }
        assert_eq!(rx.park(u64::MAX, Some(body(0))), Parked::Dropped);
        assert_eq!(rx.missing(), vec![1]);
        // The gap fills: the whole window is released in order, and the
        // frames dropped beyond it are what is missing next.
        rx.advance();
        assert_eq!(ready(&mut rx), (2..=cap).collect::<Vec<_>>());
        assert_eq!(rx.delivered, cap);
        assert_eq!(rx.park(cap + 2, Some(body(cap + 2))), Parked::Held);
        assert_eq!(rx.missing(), vec![cap + 1]);
    }
}
