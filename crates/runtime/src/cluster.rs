//! The threaded message-proxy cluster: the state every thread shares
//! ([`Shared`]) and the handle that owns it ([`RtCluster`]).
//!
//! One proxy thread per node runs the Figure 5 loop for real
//! ([`crate::proxy`]): it polls the registered per-user command queues and
//! the node's network input, using the §4.1 *shared bit vector*
//! optimisation — producers set a per-queue ready bit, so an idle proxy
//! probes one word instead of scanning every queue head. Protection
//! checks (asid permission, address ranges, flag and queue indices) run
//! in the sending proxy as it decodes each command, never in user code;
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
//! exactly once" hold under loss and proxy respawns. Overload is
//! backpressure: every one of those rings is bounded, so a sink that
//! cannot keep up slows its sources down to its own rate rather than
//! losing anything.
//!
//! # Supervision and recovery
//!
//! A proxy is a shared, trusted agent; a node must survive its failure.
//! Each node has exactly one thread, its proxy, which runs its service
//! loop under `catch_unwind` and is its own supervisor: on panic it
//! records the payload and raises the node's `panicked` bit. All protocol
//! state lives in a per-node [`NodeState`] the thread owns
//! outside the unwind — so a restarted loop resumes with the exact
//! watermarks, retention buffers and CCBs the dead one held, and no
//! acknowledged operation can be lost or re-applied. With supervision
//! enabled ([`crate::RtClusterBuilder::supervise`]) the thread restarts
//! the loop in place (bounded restarts, exponential backoff) and sends
//! nothing: to its peers a kill is a pause, and a frame it really lost is
//! recovered by a NACK or the RTO like any other drop. A node that exhausts
//! its restart budget — or dies without supervision, or while stopping —
//! is *condemned*: peers purge traffic towards it, bounded waits report
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mproxy_obs::{Ctr, ObsHub, Scope as ObsScope, Snapshot, TraceEvent};

use crate::fault::RtFaultCounts;
use crate::idle::Parker;
use crate::mem::Segment;
use crate::proxy::SupervisorCfg;
use crate::ring::{CachePadded, Ring};
use crate::state::NodeState;
use crate::wire::{abandon_all_held, give_back_unsent, WireMsg};

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

    /// Stable single-line JSON serialization (every fault test's run ends
    /// in `tests/src/rt.rs`'s `finish`, which validates it):
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
    /// Reply rings, one per remote queue: the serving proxy produces,
    /// the owning user process consumes. A ring is made by the first
    /// ENQ applied to its queue (`proxy::apply_data`): most processes
    /// never receive one, and a ring is 12 KiB, all written as it is made.
    pub(crate) queues: Vec<OnceLock<Ring<Bytes>>>,
    /// Places taken in each queue, never above [`RQ_DEPTH`]: a sending
    /// proxy claims one as it admits an ENQ (`proxy::held`) and the
    /// owner's dequeue gives it back, so a reply ring never refuses an
    /// ENQ that reaches it.
    pub(crate) claimed: Vec<AtomicUsize>,
    pub(crate) faults: Arc<AtomicU64>,
    pub(crate) timeouts: Arc<AtomicU64>,
}

impl ProcShared {
    /// False when all [`RQ_DEPTH`] places of queue `rq` are taken.
    /// Acquire pairs with [`ProcShared::give_back`]: a dequeue retires its
    /// slot before its place can be claimed again, and the wire ring
    /// carries that on to the proxy that pushes.
    pub(crate) fn claim(&self, rq: usize) -> bool {
        let room = |n: usize| (n < RQ_DEPTH).then_some(n + 1);
        self.claimed[rq]
            .fetch_update(Ordering::Acquire, Ordering::Relaxed, room)
            .is_ok()
    }

    pub(crate) fn give_back(&self, rq: usize) {
        self.claimed[rq].fetch_sub(1, Ordering::Release);
    }
}

/// Hot-path telemetry — the `Enqueue`/`Drain`/`Send`/`AckIn` trace
/// events and the cmd-wait / wire-RTT / lsync-RTT histogram samples — is
/// recorded one-in-32, each site counting its own events on its own tick
/// ([`sampled`]). A histogram's shape survives deterministic decimation,
/// and sampling keeps the recording-armed cost on the proxy's critical
/// path at a percent or two of an operation;
/// `tests/tests/obs.rs::counters_match_ground_truth_on_clean_fan_in`
/// bounds every site's sample count from above, so stamping every event
/// fails a test. Rare events (kills, respawns, stalls, faults) are
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
    /// Per node: wakes the proxy thread.
    pub(crate) parkers: Vec<CachePadded<Parker>>,
    /// Per node: operations the proxy served.
    pub(crate) ops_serviced: Vec<CachePadded<AtomicU64>>,
    /// Per node: the proxy is currently dead (set after unwinding, after
    /// the panic reason is recorded; cleared by a restart).
    pub(crate) panicked: Vec<AtomicBool>,
    /// Per node: permanently dead — no respawn will come. Peers purge
    /// traffic towards condemned nodes; waits abort against them.
    pub(crate) condemned: Vec<AtomicBool>,
    /// Cheap gate for the per-loop condemnation scan.
    pub(crate) any_condemned: AtomicBool,
    /// Last panic payload per node, when it was a string.
    pub(crate) panic_reasons: Vec<Mutex<Option<String>>>,
    /// The §4.1 ready-bit word per node (shared with the endpoints). A
    /// queue's bit is its index among its node's queues.
    ///
    /// These three per-node words are polled or bumped on every pass and
    /// every submission; each sits on lines of its own, so one node's
    /// traffic does not bounce another's.
    pub(crate) ready_masks: Vec<CachePadded<AtomicU64>>,
    /// Per node: bits of the proxy's last utilisation sample (an `f64`).
    pub(crate) util_bits: Vec<AtomicU64>,
    /// A fault plan was installed (each node's `NodeState` holds its share).
    pub(crate) fault_plan: bool,
    /// Supervision policy; `None` means a dead proxy is condemned at once.
    pub(crate) supervision: Option<SupervisorCfg>,
    /// Cluster start: the zero of [`Shared::now_ns`], and of the
    /// telemetry hub's trace epoch (both are built from one `Instant`).
    pub(crate) started: Instant,
    /// Telemetry registry (see `mproxy-obs`): counters, histograms and
    /// flight recorders, always recording.
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
        self.condemned
            .iter()
            .position(|c| c.load(Ordering::Acquire))
    }

    pub(crate) fn panic_reason(&self, node: usize) -> Option<String> {
        self.panic_reasons[node]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Nanoseconds since cluster start, read off the wall clock: the
    /// runtime's one timebase. A proxy reads it once per pass and hands
    /// the reading to every phase, so every stamp, timer, stall window
    /// and load sample of that pass is on it — as is every histogram
    /// sample and flight-recorder event, whoever takes them.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
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

/// [`condemn`] for a node whose proxy has died for good, called by its
/// thread with the state it holds. What will never be applied is settled
/// first: its parked frames count as dropped, and their ENQs, and those
/// of its frames no peer's ring took (unsent, or open), give places back.
pub(crate) fn condemn_dead(shared: &Shared, st: &mut NodeState, node: usize) {
    abandon_all_held(shared, st, node);
    st.tx.iter().for_each(|tx| give_back_unsent(shared, tx));
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
    /// One proxy thread per node, in node order; emptied by the join.
    pub(crate) handles: Vec<JoinHandle<()>>,
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

    /// Node `node`'s proxy's last sample of its own utilisation: fraction
    /// of the sampling window (about 1 ms) spent servicing work rather
    /// than idle-polling, in `[0, 1]`. Zero until the first sample lands.
    #[must_use]
    pub fn utilization(&self, node: usize) -> f64 {
        f64::from_bits(self.shared.util_bits[node].load(Ordering::Relaxed))
    }

    /// Number of times node `node`'s proxy has crossed into saturation
    /// (past the §5.4 stable utilisation bound, or its wire backing up).
    #[must_use]
    pub fn saturation_events(&self, node: usize) -> u64 {
        self.shared.obs[node].get(Ctr::SaturationEvents)
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

    /// Times node `node`'s proxy has died by panic.
    #[must_use]
    pub fn deaths(&self, node: usize) -> u64 {
        self.shared.obs[node].get(Ctr::Kills)
    }

    /// Total proxy respawns performed by supervision.
    #[must_use]
    pub fn restarts_total(&self) -> u64 {
        self.shared.obs.iter().map(|o| o.get(Ctr::Respawns)).sum()
    }

    /// Injection counters of the installed fault plan, if any: what
    /// every node's injector counted, summed over the nodes.
    #[must_use]
    pub fn fault_counts(&self) -> Option<RtFaultCounts> {
        let sum = |c: Ctr| self.shared.obs.iter().map(|o| o.get(c)).sum();
        self.shared.fault_plan.then(|| RtFaultCounts {
            packets: sum(Ctr::FaultsJudged),
            dropped: sum(Ctr::FaultsDropped),
            duplicated: sum(Ctr::FaultsDuplicated),
            corrupted: sum(Ctr::FaultsCorrupted),
            stalls: sum(Ctr::Stalls),
        })
    }

    /// Point-in-time telemetry snapshot of every node scope — counters
    /// and histograms, taken without stopping the proxies. Cross-node
    /// counter invariants (e.g. `msgs_in == ops_applied + dedup_drops +
    /// damaged_drops` per receiver) only hold on a quiesced cluster.
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
        // A proxy dead at this moment sees the stop within one
        // `sleep_unless` chunk of its restart backoff and condemns its
        // node, so the survivors stop waiting for its acknowledgements.
        let limit = Instant::now() + deadline;
        let mut report = ShutdownReport::default();
        for (node, handle) in std::mem::take(&mut self.handles).into_iter().enumerate() {
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
        report.restarts = self.restarts_total();
        report
    }
}

impl Drop for RtCluster {
    fn drop(&mut self) {
        let _ = self.stop_and_join(DEFAULT_SHUTDOWN_DEADLINE);
    }
}
