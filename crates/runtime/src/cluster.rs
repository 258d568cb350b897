//! The threaded message-proxy cluster: the state every thread shares
//! ([`Shared`]) and the handle that owns it ([`RtCluster`]).
//!
//! One proxy thread per node runs the Figure 5 loop for real
//! ([`crate::proxy`]): it polls the registered per-user command queues and
//! the node's network input, using the §4.1 *shared bit vector*
//! optimisation — producers set a per-queue ready bit, so an idle proxy
//! probes one word instead of scanning every queue head. Protection
//! checks (asid permission, bounds) run in the proxy, never in user code;
//! violations are counted as faults and the operation is dropped, the
//! runtime analogue of "the system faults a process".
//!
//! The data plane is lock-free end to end (see DESIGN.md "Runtime data
//! plane"): user→proxy command queues are the paper's full/empty-flag
//! SPSC rings ([`crate::spsc`]), proxy↔proxy traffic flows through one
//! bounded MPSC wire ring per node, and remote-queue payloads return to
//! user processes over bounded SPSC reply rings (both
//! [`crate::ring::Ring`]). Between proxies the traffic is sequenced,
//! acknowledged and retransmitted ([`crate::wire`]), which is what makes
//! "an operation whose `lsync` flag fired was applied at the destination
//! exactly once" hold under loss, shedding and proxy respawns.
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
//! enabled ([`crate::RtClusterBuilder::supervise`]) a supervisor thread respawns
//! dead proxies on a fresh epoch (bounded restarts, exponential backoff);
//! the newcomer broadcasts a Hello so peers re-ack and retransmit
//! immediately instead of waiting out their timers. A node that exhausts
//! its restart budget — or dies without supervision — is *condemned*:
//! peers purge traffic towards it, bounded waits report
//! [`crate::RtError::ProxyDown`] with the panic reason, and shutdown completes.
//! [`RtCluster::shutdown`] is deadline-bounded and reports wedged proxies
//! instead of joining them forever.
//!
//! # One proxy per node
//!
//! How many proxies a machine gets is decided before the run, by how
//! many nodes are declared ([`crate::RtClusterBuilder::new`]): the proxy
//! of node `n` drains the command queues of the processes declared on
//! `n`, and peers address requests for those processes to it. Every
//! `Vec` in [`Shared`] other than `procs` is indexed by that node
//! number. Segments, flags and reply rings live in `ProcShared`, shared
//! by every proxy, so spreading processes over more nodes is load
//! balancing, not ownership of memory.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mproxy_obs::{ObsHub, Scope as ObsScope, Snapshot, TraceEvent};

use crate::fault::{RtFaultCounts, RtFaultState};
use crate::idle::Parker;
use crate::mem::Segment;
use crate::proxy::Seat;
use crate::ring::Ring;
use crate::state::NodeState;
use crate::supervisor::SupervisorCfg;
use crate::watchdog::ProxyHealth;
use crate::wire::{abandon_all_held, WireMsg};

/// Synchronisation flags per process.
pub const NUM_FLAGS: usize = 64;
/// Remote queues per process.
pub const NUM_QUEUES: usize = 8;
/// Command queue depth per process.
pub const CMDQ_DEPTH: usize = 128;
/// Wire ring depth per node (frames queued by peer proxies).
pub const WIRE_DEPTH: usize = 512;
/// Reply ring depth per remote queue (payloads queued for a user process).
pub const RQ_DEPTH: usize = 256;

/// Utilisation below which a saturated proxy is considered recovered.
/// Sits under [`mproxy_model::contention::STABLE_UTILIZATION`] so the flag doesn't flap when load
/// hovers at the §5.4 bound.
pub const RECOVERY_UTILIZATION: f64 = 0.4;

/// Wire backlog (frames) past which a saturated, shedding-enabled proxy
/// starts rejecting request traffic.
pub const SHED_BACKLOG: usize = CMDQ_DEPTH;

/// Default deadline for [`RtCluster::shutdown`] (and `Drop`): a wedged
/// proxy thread is reported and detached rather than joined past this.
const DEFAULT_SHUTDOWN_DEADLINE: Duration = Duration::from_secs(10);

/// One dead proxy in a [`ShutdownReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyPanic {
    /// The node whose proxy was dead when the cluster shut down.
    pub node: usize,
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

    /// Stable single-line JSON serialization (the chaos scenarios return
    /// it and `tests/tests/obs.rs::telemetry_soak` validates it):
    /// `{"clean":bool,"restarts":n,"panicked":[{"node":n,"reason":s?}],
    /// "wedged":[n]}`.
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
            let _ = write!(s, "{{\"node\":{}", p.node);
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

/// One user process, as every proxy and its own [`crate::Endpoint`] see
/// it.
pub(crate) struct ProcShared {
    pub(crate) asid: u32,
    /// The node whose proxy drains this process's command queue and that
    /// peers address its inbound requests to.
    pub(crate) node: usize,
    pub(crate) seg: Segment,
    pub(crate) flags: Vec<Arc<AtomicU64>>,
    /// Reply rings, one per remote queue: the serving proxies produce,
    /// the owning user process consumes.
    pub(crate) queues: Vec<Ring<Bytes>>,
    pub(crate) faults: Arc<AtomicU64>,
    pub(crate) timeouts: Arc<AtomicU64>,
}

/// Hot-path telemetry — the `Enqueue`/`Drain`/`Send`/`AckIn` trace
/// events and the cmd-wait / wire-RTT / lsync-RTT histogram samples — is
/// recorded one-in-32, each site counting its own events on its own tick
/// ([`sampled`]). A histogram's shape survives deterministic decimation,
/// and sampling keeps the recording-armed cost on the proxy's critical
/// path at a percent or two of an operation;
/// `tests/tests/obs.rs::counters_match_ground_truth_on_clean_fan_in`
/// bounds every site's sample count from above, so stamping every event
/// fails a test. Rare events (kills, respawns, hellos, sheds, faults) are
/// never sampled, and counters are always exact.
const OBS_SAMPLE_MASK: u64 = 31;

/// Steps one telemetry site's decimation tick; true on every 32nd call.
#[inline]
pub(crate) fn sampled(tick: &mut u64) -> bool {
    *tick = tick.wrapping_add(1);
    *tick & OBS_SAMPLE_MASK == 0
}

pub(crate) struct Shared {
    pub(crate) procs: Vec<Arc<ProcShared>>,
    pub(crate) perms: RwLock<HashSet<(u32, u32)>>,
    pub(crate) allow_all: AtomicBool,
    pub(crate) stop: AtomicBool,
    /// Per node: the wire input — peer proxies produce, the node's
    /// proxy consumes.
    pub(crate) wires: Vec<Ring<WireMsg>>,
    pub(crate) parkers: Vec<Parker>, // per node, wakes the proxy thread
    pub(crate) ops_serviced: Vec<Arc<AtomicU64>>, // per node
    /// Per node: the proxy is currently dead (set after unwinding, after
    /// the seat and panic reason are back; cleared by a respawn).
    pub(crate) panicked: Vec<AtomicBool>,
    /// Per node: permanently dead — no respawn will come. Peers purge
    /// traffic towards condemned nodes; waits abort against them.
    pub(crate) condemned: Vec<AtomicBool>,
    /// Cheap gate for the per-loop condemnation scan.
    pub(crate) any_condemned: AtomicBool,
    /// Mirror of each node's epoch for lock-free queries.
    pub(crate) epochs: Vec<AtomicU64>,
    /// Times each node's proxy has panicked.
    pub(crate) deaths: Vec<AtomicU64>,
    /// Total supervisor respawns.
    pub(crate) restarts_total: AtomicU64,
    /// Last panic payload per node, when it was a string.
    pub(crate) panic_reasons: Vec<Mutex<Option<String>>>,
    /// The per-node protocol state (see [`NodeState`]).
    pub(crate) node_state: Vec<Mutex<NodeState>>,
    /// Each node's command-queue consumers, parked here whenever no
    /// proxy incarnation is running; each incarnation takes the seat and
    /// returns it on the way out (even by panic).
    pub(crate) seats: Vec<Mutex<Option<Seat>>>,
    /// The §4.1 ready-bit word per node (shared with the endpoints). A
    /// queue's bit is its index among its node's queues.
    pub(crate) ready_masks: Vec<Arc<AtomicU64>>,
    /// Proxy thread handles, replaced by the supervisor on respawn.
    pub(crate) handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    pub(crate) health: Vec<Arc<ProxyHealth>>, // per node
    pub(crate) shed_enabled: AtomicBool,
    /// The installed fault injector, if any.
    pub(crate) faults: Option<RtFaultState>,
    /// Supervision policy; `None` means a dead proxy is condemned at once.
    pub(crate) supervision: Option<SupervisorCfg>,
    /// Cluster start time (stall windows are relative to this).
    pub(crate) started: Instant,
    /// Telemetry registry (see `mproxy-obs`): counters are always on;
    /// histograms and flight recorders follow the hub's recording flag.
    pub(crate) obs_hub: Arc<ObsHub>,
    /// One telemetry scope per node (`node{n}`), indexed like `wires`.
    pub(crate) obs: Vec<Arc<ObsScope>>,
}

impl Shared {
    pub(crate) fn allowed(&self, src: u32, dst: u32) -> bool {
        src == dst
            || self.allow_all.load(Ordering::Relaxed)
            || self
                .perms
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .contains(&(src, dst))
    }

    pub(crate) fn fault(&self, src: u32) {
        self.procs[src as usize]
            .faults
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_flag(&self, proc: u32, flag: u32) {
        self.add_flag(proc, flag, 1);
    }

    /// `n` completions at once: flags are monotone counters and waiters
    /// compare with `>=`, so one add of `n` is `n` adds of one.
    pub(crate) fn add_flag(&self, proc: u32, flag: u32, n: u64) {
        self.procs[proc as usize].flags[flag as usize].fetch_add(n, Ordering::Release);
    }

    /// First condemned node, if any.
    pub(crate) fn condemned_node(&self) -> Option<usize> {
        if !self.any_condemned.load(Ordering::Acquire) {
            return None;
        }
        self.condemned.iter().position(|c| c.load(Ordering::Acquire))
    }

    pub(crate) fn panic_reason(&self, node: usize) -> Option<String> {
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

/// Marks `node` permanently dead and wakes everything that might be
/// waiting on it (peer proxies purge their traffic towards it on their
/// next pass; bounded endpoint waits abort).
pub(crate) fn condemn(shared: &Shared, node: usize) {
    shared.condemned[node].store(true, Ordering::Release);
    shared.any_condemned.store(true, Ordering::Release);
    for p in &shared.parkers {
        p.wake();
    }
}

/// [`condemn`] for a node whose proxy has already died (so its state
/// lock is free): the frames it had parked behind gaps will never be
/// applied, and are counted as dropped before the node is written off.
pub(crate) fn condemn_dead(shared: &Shared, node: usize) {
    let mut st = shared.node_state[node]
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    abandon_all_held(shared, &mut st, node);
    drop(st);
    condemn(shared, node);
}

/// Indices of the per-node bits that are set.
fn raised(bits: &[AtomicBool]) -> Vec<usize> {
    (0..bits.len())
        .filter(|&n| bits[n].load(Ordering::Acquire))
        .collect()
}

/// A running cluster of proxy threads.
pub struct RtCluster {
    pub(crate) shared: Arc<Shared>,
    pub(crate) watchdog: Option<JoinHandle<()>>,
    pub(crate) supervisor: Option<JoinHandle<()>>,
}

impl RtCluster {
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

    /// Total operations serviced by node `node`'s proxy, cumulative
    /// across respawns: local commands drained, plus the operations of
    /// every data frame popped off the wire (a frame of `n` counts `n`),
    /// plus one per control frame.
    #[must_use]
    pub fn ops_serviced(&self, node: usize) -> u64 {
        self.shared.ops_serviced[node].load(Ordering::Relaxed)
    }

    /// The watchdog's last utilisation sample for node `node`: fraction
    /// of the sampling period spent servicing work rather than
    /// idle-polling, in `[0, 1]`. Zero until the first sample lands.
    #[must_use]
    pub fn utilization(&self, node: usize) -> f64 {
        f64::from_bits(self.shared.health[node].util_bits.load(Ordering::Relaxed))
    }

    /// True while node `node`'s proxy sits above the paper's stable
    /// utilisation bound (§5.4: past 50% the M/M/1 queueing delay grows
    /// without bound). Clears once utilisation falls back under
    /// [`RECOVERY_UTILIZATION`].
    #[must_use]
    pub fn saturated(&self, node: usize) -> bool {
        self.shared.health[node].saturated.load(Ordering::Acquire)
    }

    /// Number of times node `node`'s proxy has crossed into saturation.
    #[must_use]
    pub fn saturation_events(&self, node: usize) -> u64 {
        self.shared.health[node]
            .saturation_events
            .load(Ordering::Relaxed)
    }

    /// Request operations rejected on node `node` by overload shedding
    /// ([`crate::RtClusterBuilder::enable_shedding`]).
    #[must_use]
    pub fn shed_count(&self, node: usize) -> u64 {
        self.shared.health[node].shed.load(Ordering::Relaxed)
    }

    /// Nodes whose proxy is dead *right now* (panicked and not yet
    /// respawned; a live query).
    #[must_use]
    pub fn panicked_nodes(&self) -> Vec<usize> {
        raised(&self.shared.panicked)
    }

    /// Nodes condemned as permanently dead (crash-looped past the
    /// restart budget, or died without supervision).
    #[must_use]
    pub fn condemned_nodes(&self) -> Vec<usize> {
        raised(&self.shared.condemned)
    }

    /// Node `node`'s current proxy incarnation (0 until the first
    /// respawn).
    #[must_use]
    pub fn epoch(&self, node: usize) -> u64 {
        self.shared.epochs[node].load(Ordering::Relaxed)
    }

    /// Times node `node`'s proxy has died by panic.
    #[must_use]
    pub fn deaths(&self, node: usize) -> u64 {
        self.shared.deaths[node].load(Ordering::Relaxed)
    }

    /// Total proxy respawns performed by supervision.
    #[must_use]
    pub fn restarts_total(&self) -> u64 {
        self.shared.restarts_total.load(Ordering::Relaxed)
    }

    /// The last panic payload recorded for node `node`'s proxy, when it
    /// was a string.
    #[must_use]
    pub fn panic_reason(&self, node: usize) -> Option<String> {
        self.shared.panic_reason(node)
    }

    /// Injection counters of the installed fault plan, if any.
    #[must_use]
    pub fn fault_counts(&self) -> Option<RtFaultCounts> {
        self.shared.faults.as_ref().map(RtFaultState::counts)
    }

    /// Point-in-time telemetry snapshot of every node scope — counters
    /// and histograms, taken without stopping the proxies. Cross-node
    /// counter invariants (e.g. `msgs_out == ops_applied + sheds`) only
    /// hold on a quiesced cluster.
    #[must_use]
    pub fn obs_snapshot(&self, label: &str) -> Snapshot {
        self.shared.obs_hub.snapshot(label)
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
        for (node, handle) in handles.into_iter().enumerate() {
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
                    report.wedged_nodes.push(node);
                    condemn(&self.shared, node);
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        for node in raised(&self.shared.panicked) {
            report.panicked_nodes.push(ProxyPanic {
                node,
                reason: self.shared.panic_reason(node),
            });
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
