//! Building a cluster: declare nodes, processes and policies, then
//! [`RtClusterBuilder::start`] lays out the per-node structures and
//! spawns one thread per node — its proxy, handed the node's command
//! queues and protocol state to own for the cluster's lifetime — and no
//! other thread.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use mproxy_obs::{ObsHub, Scope as ObsScope};

use crate::cluster::{
    ProcShared, RtCluster, Shared, CMDQ_DEPTH, NUM_FLAGS, NUM_QUEUES, WIRE_DEPTH,
};
use crate::endpoint::Endpoint;
use crate::fault::RtFaultPlan;
use crate::idle::Parker;
use crate::mem::Segment;
use crate::proxy::{run_proxy, Seat, SeatEntry, SupervisorCfg};
use crate::ring::{CachePadded, Ring};
use crate::spsc;
use crate::state::NodeState;

/// Builds an [`RtCluster`]: declare nodes and processes, then
/// [`RtClusterBuilder::start`].
pub struct RtClusterBuilder {
    nodes: usize,
    procs: Vec<(usize, usize)>, // (node, segment bytes)
    fault_plan: Option<RtFaultPlan>,
    supervision: Option<SupervisorCfg>,
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
            fault_plan: None,
            supervision: None,
        }
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

    /// Enables proxy supervision: a dead proxy restarts itself in place,
    /// on the node's surviving protocol state and with nothing sent to its
    /// peers, after an exponential backoff (`backoff · 2^restarts_so_far`),
    /// up to `max_restarts` times per node; past the budget the node is
    /// condemned (fail-fast on crash loops). Without supervision any proxy
    /// death condemns its node immediately.
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

    /// Starts one proxy thread per node and returns the cluster handle
    /// plus one [`Endpoint`] per declared process (in declaration order).
    #[must_use]
    pub fn start(self) -> (RtCluster, Vec<Endpoint>) {
        let nodes = self.nodes;
        let now = Instant::now();
        // Telemetry always records: hot-path sites are decimated to one
        // event in 32 (`cluster::sampled`), a percent or two of an
        // operation.
        let obs_hub = ObsHub::new_at(true, now);
        let obs: Vec<Arc<ObsScope>> = (0..nodes)
            .map(|n| obs_hub.register(format!("node{n}"), mproxy_obs::DEFAULT_RING_CAP))
            .collect();

        // Allocating these before or after the per-process segments does
        // not move peak RSS (measured: EXPERIMENTS.md "Segments come
        // zeroed").
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
                queues: (0..NUM_QUEUES).map(|_| OnceLock::new()).collect(),
                claimed: (0..NUM_QUEUES).map(|_| AtomicUsize::new(0)).collect(),
                faults: Arc::new(AtomicU64::new(0)),
                timeouts: Arc::new(AtomicU64::new(0)),
            }));
        }

        // `started` (below) is the zero of the cluster-relative ns
        // timebase the sender halves keep their RTO in.
        let mut faults = self.fault_plan.as_ref().map(|p| p.split(nodes).into_iter());
        let states: Vec<NodeState> = (0..nodes)
            .map(|_| NodeState::new(nodes, 0, faults.as_mut().and_then(Iterator::next)))
            .collect();
        let shared = Arc::new(Shared {
            procs,
            perms: RwLock::new(HashSet::new()),
            allow_all: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            wires,
            parkers: (0..nodes).map(|_| CachePadded(Parker::new())).collect(),
            ops_serviced: (0..nodes).map(|_| CachePadded(AtomicU64::new(0))).collect(),
            panicked: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            condemned: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            any_condemned: AtomicBool::new(false),
            panic_reasons: (0..nodes).map(|_| Mutex::new(None)).collect(),
            ready_masks: (0..nodes).map(|_| CachePadded(AtomicU64::new(0))).collect(),
            util_bits: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            fault_plan: self.fault_plan.is_some(),
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

        let handles = seats
            .into_iter()
            .zip(states)
            .enumerate()
            .map(|(node, (seat, st))| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mproxy-{node}"))
                    .spawn(move || run_proxy(node, &sh, seat, st))
                    .expect("spawn proxy thread")
            })
            .collect();

        (RtCluster { shared, handles }, endpoints)
    }
}
