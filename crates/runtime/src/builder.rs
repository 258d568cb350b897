//! Building a cluster: declare nodes, processes and policies, then
//! [`RtClusterBuilder::start`] lays out the per-node structures, hands
//! each node's proxy its command queues, and spawns the proxy, watchdog
//! and supervisor threads.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mproxy_obs::{ObsHub, Scope as ObsScope};

use crate::cluster::{
    ProcShared, RtCluster, Shared, CMDQ_DEPTH, NUM_FLAGS, NUM_QUEUES, RQ_DEPTH, WIRE_DEPTH,
};
use crate::endpoint::Endpoint;
use crate::fault::{RtFaultPlan, RtFaultState};
use crate::idle::Parker;
use crate::mem::Segment;
use crate::proxy::{run_proxy, Seat, SeatEntry};
use crate::ring::Ring;
use crate::spsc;
use crate::state::NodeState;
use crate::supervisor::SupervisorCfg;
use crate::watchdog::{watchdog_main, ProxyHealth};

/// Builds an [`RtCluster`]: declare nodes and processes, then
/// [`RtClusterBuilder::start`].
pub struct RtClusterBuilder {
    nodes: usize,
    procs: Vec<(usize, usize)>, // (node, segment bytes)
    shed: bool,
    watchdog_interval: Duration,
    fault_plan: Option<RtFaultPlan>,
    supervision: Option<SupervisorCfg>,
    telemetry: bool,
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
            watchdog_interval: Duration::from_millis(1),
            fault_plan: None,
            supervision: None,
            telemetry: true,
        }
    }

    /// Arms or disarms telemetry *recording* (histograms and the
    /// flight-recorder rings). Counters are always on either way — they
    /// are a handful of relaxed adds per operation. On by default:
    /// recording is decimated to one stamped submission in 32 (see
    /// `cluster::sampled`), which keeps its cost at a percent or two of an operation.
    /// `telemetry(false)` is the uninstrumented side of an on/off
    /// comparison.
    pub fn telemetry(&mut self, on: bool) -> &mut Self {
        self.telemetry = on;
        self
    }

    /// Enables overload shedding: while a proxy is saturated, its wire
    /// backlog is capped at [`crate::SHED_BACKLOG`] by *rejecting* the oldest
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
        let now = Instant::now();
        let obs_hub = ObsHub::new_at(self.telemetry, now);
        let obs: Vec<Arc<ObsScope>> = (0..nodes)
            .map(|n| obs_hub.register(format!("node{n}"), mproxy_obs::DEFAULT_RING_CAP))
            .collect();

        // Allocated ahead of the per-process segments: over repeated
        // cluster create/destroy cycles the other order holds ~0.4 MB
        // more peak RSS (EXPERIMENTS.md "A lane is a node").
        let wires: Vec<_> = (0..nodes).map(|_| Ring::new(WIRE_DEPTH)).collect();

        // The i-th process declared on a node takes the node's §4.1
        // ready bit `i`; its command queue is drained by that node's
        // proxy.
        let mut seats: Vec<Seat> = (0..nodes).map(|_| Vec::new()).collect();
        let mut procs = Vec::with_capacity(self.procs.len());
        let mut cmd_txs = Vec::with_capacity(self.procs.len());
        for (i, &(node, bytes)) in self.procs.iter().enumerate() {
            let asid = i as u32;
            let qbit = seats[node].len() as u32;
            assert!(qbit < 64, "at most 64 processes per node");
            let (tx, rx) = spsc::channel(CMDQ_DEPTH);
            seats[node].push(SeatEntry { asid, qbit, q: rx });
            cmd_txs.push((tx, qbit));
            procs.push(Arc::new(ProcShared {
                asid,
                node,
                seg: Segment::new(bytes),
                flags: (0..NUM_FLAGS)
                    .map(|_| Arc::new(AtomicU64::new(0)))
                    .collect(),
                queues: (0..NUM_QUEUES).map(|_| Ring::new(RQ_DEPTH)).collect(),
                faults: Arc::new(AtomicU64::new(0)),
                timeouts: Arc::new(AtomicU64::new(0)),
            }));
        }

        let shared = Arc::new(Shared {
            procs,
            perms: RwLock::new(HashSet::new()),
            allow_all: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            wires,
            parkers: (0..nodes).map(|_| Parker::new()).collect(),
            ops_serviced: (0..nodes)
                .map(|_| Arc::new(AtomicU64::new(0)))
                .collect(),
            panicked: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            condemned: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            any_condemned: AtomicBool::new(false),
            epochs: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            deaths: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            restarts_total: AtomicU64::new(0),
            panic_reasons: (0..nodes).map(|_| Mutex::new(None)).collect(),
            // `started` (below) is the zero of the cluster-relative ns
            // timebase the sender halves keep their RTO in.
            node_state: (0..nodes)
                .map(|_| Mutex::new(NodeState::new(nodes, 0)))
                .collect(),
            seats: seats.into_iter().map(|s| Mutex::new(Some(s))).collect(),
            ready_masks: (0..nodes).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            handles: Mutex::new((0..nodes).map(|_| None).collect()),
            health: (0..nodes)
                .map(|_| Arc::new(ProxyHealth::default()))
                .collect(),
            shed_enabled: AtomicBool::new(self.shed),
            faults: self.fault_plan.map(|plan| RtFaultState::new(plan, nodes)),
            supervision: self.supervision,
            started: now,
            obs_hub,
            obs,
        });

        let endpoints = cmd_txs
            .into_iter()
            .enumerate()
            .map(|(i, (tx, qbit))| Endpoint {
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
            for (node, slot) in handles.iter_mut().enumerate() {
                let sh = Arc::clone(&shared);
                *slot = Some(
                    std::thread::Builder::new()
                        .name(format!("mproxy-{node}"))
                        .spawn(move || run_proxy(node, sh))
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
