//! The SMP cluster fabric: nodes, processes, engines, permissions, stats.
//!
//! A [`Cluster`] wires `nodes` SMP nodes — each with `procs_per_node`
//! compute processors, a network adapter, and a DMA engine — to a switch,
//! prices the protocol's steps for the chosen [`DesignPoint`] and starts
//! the driver it calls for: a serial agent per node (message proxy or
//! custom-hardware adapter), or per-node interrupt dispatch behind the
//! system-call send path.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::future::Future;
use std::rc::Rc;

use mproxy_des::{Channel, Counter, Dur, Resource, SimCtx, SimTime, Tally};
use mproxy_model::{Arch, DesignPoint};
use mproxy_simnet::{
    DmaEngine, DmaParams, FaultCounts, FaultPlan, FaultState, LinkParams, NetPort, Network, NodeId,
};

use crate::addr::{Asid, ProcId};
use crate::engine::costs::StepCosts;
use crate::engine::reliable::{LinkLayer, LinkSnapshot, LinkStats};
use crate::engine::{self, ProxyInput, WireMsg};
use crate::error::CommError;
use crate::mem::Memory;
use crate::process::Proc;
use crate::retry::RetryPolicy;

/// Shape and technology of a simulated cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Technology design point (HW0 ... SW1).
    pub design: DesignPoint,
    /// Number of SMP nodes.
    pub nodes: usize,
    /// Compute processors per node (the proxy processor, where present, is
    /// in addition to these).
    pub procs_per_node: usize,
    /// If true (default), every process may access every address space;
    /// protection tests set this false and grant selectively.
    pub allow_all: bool,
    /// Nanoseconds of compute time per application work unit, calibrating
    /// the deterministic compute model (stands in for the paper's POWER2
    /// real-time-clock measurement).
    pub work_unit_ns: u64,
    /// Re-probe schedule for DEQ operations that find the remote queue
    /// empty.
    pub deq_retry: RetryPolicy,
    /// Retransmission schedule of the reliable link layer (used only when
    /// the cluster is built with a fault plan).
    pub xmit_retry: RetryPolicy,
    /// Per-process command-queue credit limit: each process may have at
    /// most this many commands submitted-but-not-yet-serviced at its
    /// node's engine. 0 (the default) disables flow control entirely.
    pub cmd_credits: u32,
    /// When credits are exhausted, fail the submission with
    /// [`CommError::CreditsExhausted`] instead of blocking for a free
    /// slot (only meaningful with `cmd_credits > 0`).
    pub credit_fail_fast: bool,
    /// Retransmit-buffer cap per destination of the reliable link layer;
    /// overflow parks in a FIFO backlog, keeping link-layer memory
    /// O(window) under sustained loss (used only with a fault plan).
    pub link_window: usize,
}

impl ClusterSpec {
    /// A spec with the defaults used throughout the evaluation: allow-all
    /// protection and 20 ns per work unit.
    #[must_use]
    pub fn new(design: DesignPoint, nodes: usize, procs_per_node: usize) -> Self {
        ClusterSpec {
            design,
            nodes,
            procs_per_node,
            allow_all: true,
            work_unit_ns: 20,
            deq_retry: RetryPolicy::deq_default(),
            xmit_retry: RetryPolicy::xmit_default(),
            cmd_credits: 0,
            credit_fail_fast: false,
            link_window: 64,
        }
    }

    /// Total user processes.
    #[must_use]
    pub fn nprocs(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster needs at least one node".into());
        }
        if self.procs_per_node == 0 {
            return Err("nodes need at least one compute processor".into());
        }
        if self.link_window == 0 {
            return Err("link window must be at least 1".into());
        }
        self.design.machine.validate()
    }
}

/// Per-process traffic statistics (inputs to Table 6).
#[derive(Debug, Default, Clone)]
pub struct ProcStats {
    /// RMA/RQ operations submitted.
    pub ops: u64,
    /// Payload bytes moved by submitted operations.
    pub bytes: u64,
    /// Distribution of operation payload sizes.
    pub msg_sizes: Tally,
    /// Protection faults observed (denied submissions).
    pub faults: u64,
}

pub(crate) struct ProcState {
    #[allow(dead_code)]
    pub(crate) id: ProcId,
    pub(crate) node: NodeId,
    pub(crate) mem: RefCell<Memory>,
    pub(crate) flags: RefCell<Vec<Counter>>,
    pub(crate) queues: RefCell<Vec<Channel<bytes::Bytes>>>,
    pub(crate) next_flag: Cell<u32>,
    pub(crate) next_queue: Cell<u32>,
    pub(crate) cpu: Resource,
    pub(crate) stats: RefCell<ProcStats>,
    /// First communication failure that poisoned this process (see
    /// [`crate::engine::reliable::poison_proc`]).
    pub(crate) comm_error: RefCell<Option<CommError>>,
    /// Command-queue credit tokens, present when the spec enables flow
    /// control: a submission takes one, the engine returns it when it
    /// starts servicing the command. Closed when the process is poisoned
    /// so blocked submitters wake.
    pub(crate) credits: Option<Channel<()>>,
}

pub(crate) struct NodeState {
    pub(crate) id: NodeId,
    /// Merged engine input: user commands and arriving packets (the proxy
    /// and the custom-hardware adapter logic both poll this).
    pub(crate) proxy_input: Channel<ProxyInput>,
    pub(crate) dma: DmaEngine,
    pub(crate) port: NetPort<WireMsg>,
    /// Busy time of the node's communication agent (proxy or adapter
    /// protocol logic) — numerator of Table 6's interface utilisation.
    pub(crate) engine_busy: Cell<Dur>,
    pub(crate) engine_ops: Cell<u64>,
    /// Queueing delay of user commands, submission to engine service
    /// start — the measured counterpart of the §5.4 contention model.
    pub(crate) cmd_wait: RefCell<Tally>,
    /// The same delays as a log-linear histogram (ns), exported under the
    /// engines' shared telemetry ids.
    pub(crate) cmd_wait_hist: RefCell<mproxy_obs::Histogram>,
    /// Submissions that found the credit pool empty and had to block.
    pub(crate) credit_stalls: Cell<u64>,
    pub(crate) ccbs: RefCell<crate::fxhash::FxHashMap<u64, engine::Ccb>>,
    pub(crate) next_token: Cell<u64>,
    /// Reliable-delivery state, present only when the cluster was built
    /// with a fault plan.
    pub(crate) link: Option<Rc<LinkLayer>>,
}

impl NodeState {
    pub(crate) fn new_token(&self) -> u64 {
        let t = self.next_token.get();
        self.next_token.set(t + 1);
        t
    }

    pub(crate) fn add_busy(&self, d: Dur) {
        self.engine_busy.set(self.engine_busy.get() + d);
        self.engine_ops.set(self.engine_ops.get() + 1);
    }

    pub(crate) fn record_cmd_wait(&self, d: Dur) {
        self.cmd_wait.borrow_mut().add(d.as_us());
        self.cmd_wait_hist
            .borrow_mut()
            .record((d.as_us() * 1000.0) as u64);
    }
}

pub(crate) struct ClusterState {
    pub(crate) spec: ClusterSpec,
    /// What each protocol step costs at `spec.design`.
    pub(crate) costs: StepCosts,
    pub(crate) ctx: SimCtx,
    pub(crate) procs: Vec<Rc<ProcState>>,
    pub(crate) nodes: Vec<Rc<NodeState>>,
    pub(crate) perms: RefCell<HashSet<(ProcId, Asid)>>,
    pub(crate) allow_all: Cell<bool>,
    pub(crate) app_done: Counter,
    pub(crate) started: SimTime,
    /// Fault-injection state shared with the network, when installed.
    pub(crate) faults: Option<Rc<FaultState>>,
    /// True when the fault plan schedules at least one proxy crash (gates
    /// debug assertions that orphaned replies are impossible).
    pub(crate) crashes_possible: bool,
}

impl ClusterState {
    pub(crate) fn design(&self) -> &DesignPoint {
        &self.spec.design
    }

    pub(crate) fn allowed(&self, src: ProcId, target: Asid) -> bool {
        if src == ProcId::from(target) {
            return true;
        }
        self.allow_all.get() || self.perms.borrow().contains(&(src, target))
    }

    pub(crate) fn proc(&self, id: ProcId) -> &Rc<ProcState> {
        &self.procs[id.0 as usize]
    }

    pub(crate) fn node_of(&self, id: ProcId) -> &Rc<NodeState> {
        &self.nodes[self.procs[id.0 as usize].node]
    }
}

/// Aggregate traffic and utilisation report (Table 6).
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Total RMA/RQ operations across all processes.
    pub total_ops: u64,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// Average message (payload) size, bytes.
    pub avg_msg_bytes: f64,
    /// Per-processor message rate, operations per millisecond.
    pub msg_rate_per_ms: f64,
    /// Mean utilisation of the per-node communication agent (message proxy
    /// for MP points, adapter message logic for HW points, n/a-as-zero for
    /// SW points' inline kernel path).
    pub interface_utilization: f64,
    /// Elapsed simulated time the report covers.
    pub elapsed: Dur,
}

/// Fault-injection and recovery summary of a run on a faulty network:
/// what the plan injected, and what the reliable link layer did about it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults injected by the network (per the [`FaultPlan`]).
    pub injected: FaultCounts,
    /// Link-layer protocol activity, summed over all nodes.
    pub link: LinkStats,
}

/// A simulated SMP cluster at one design point.
///
/// # Examples
///
/// ```
/// use mproxy::{Cluster, ClusterSpec};
/// use mproxy_des::Simulation;
/// use mproxy_model::MP1;
///
/// let sim = Simulation::new();
/// let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
/// cluster.spawn_spmd(|p| async move {
///     let a = p.alloc(8);
///     p.ctx().yield_now().await; // all ranks allocate first
///     if p.rank().0 == 0 {
///         p.write_u64(a, 42);
///         let f = p.new_flag();
///         p.put(a, mproxy::Asid(1), a, 8, Some(&f), None).await.unwrap();
///         p.wait_flag(&f, 1).await;
///     }
/// });
/// let report = cluster.run(&sim);
/// assert!(report.completed_cleanly());
/// ```
pub struct Cluster {
    state: Rc<ClusterState>,
}

impl Cluster {
    /// Builds the cluster and starts its engine tasks.
    ///
    /// # Errors
    ///
    /// Returns the [`ClusterSpec::validate`] message if the spec is
    /// invalid.
    pub fn new(ctx: &SimCtx, spec: ClusterSpec) -> Result<Cluster, String> {
        Cluster::build(ctx, spec, None)
    }

    /// Builds the cluster on a faulty network: packets are dropped,
    /// duplicated, reordered, or corrupted per `plan`, and every engine
    /// sends through the reliable link layer ([`crate::engine::reliable`])
    /// so application-visible semantics stay exactly-once, in-order.
    ///
    /// # Errors
    ///
    /// Returns the [`ClusterSpec::validate`] message if the spec is
    /// invalid.
    pub fn new_with_faults(
        ctx: &SimCtx,
        spec: ClusterSpec,
        plan: FaultPlan,
    ) -> Result<Cluster, String> {
        Cluster::build(ctx, spec, Some(plan))
    }

    fn build(ctx: &SimCtx, spec: ClusterSpec, plan: Option<FaultPlan>) -> Result<Cluster, String> {
        spec.validate()?;
        let d = spec.design;
        let link = LinkParams::new(d.machine.net_latency_us, d.net_bw_mbs);
        let network: Network<WireMsg> = match plan {
            Some(plan) => Network::with_faults(ctx, spec.nodes, link, plan),
            None => Network::new(ctx, spec.nodes, link),
        };
        let faults = network.fault_state();
        let dma_params = DmaParams::new(d.dma_bw_mbs, d.pin_us, d.unpin_us, d.page_bytes);

        let procs: Vec<Rc<ProcState>> = (0..spec.nprocs())
            .map(|r| {
                let node = r / spec.procs_per_node;
                let credits = (spec.cmd_credits > 0).then(|| {
                    let ch = Channel::bounded(spec.cmd_credits as usize);
                    for _ in 0..spec.cmd_credits {
                        ch.try_send(()).expect("credit channel sized to limit");
                    }
                    ch
                });
                Rc::new(ProcState {
                    id: ProcId(r as u32),
                    node,
                    mem: RefCell::new(Memory::new()),
                    flags: RefCell::new(Vec::new()),
                    queues: RefCell::new(Vec::new()),
                    next_flag: Cell::new(0),
                    next_queue: Cell::new(0),
                    cpu: Resource::new(ctx, format!("cpu[{r}]"), 1),
                    stats: RefCell::new(ProcStats::default()),
                    comm_error: RefCell::new(None),
                    credits,
                })
            })
            .collect();

        let nodes: Vec<Rc<NodeState>> = (0..spec.nodes)
            .map(|n| {
                let port = network.adapter(n);
                let link = faults.as_ref().map(|_| {
                    LinkLayer::new(
                        ctx.clone(),
                        n,
                        port.clone(),
                        spec.xmit_retry,
                        procs.clone(),
                        spec.link_window,
                    )
                });
                Rc::new(NodeState {
                    id: n,
                    proxy_input: Channel::unbounded(),
                    dma: DmaEngine::new(ctx, n, dma_params),
                    port,
                    engine_busy: Cell::new(Dur::ZERO),
                    engine_ops: Cell::new(0),
                    cmd_wait: RefCell::new(Tally::new()),
                    cmd_wait_hist: RefCell::new(mproxy_obs::Histogram::new()),
                    credit_stalls: Cell::new(0),
                    ccbs: RefCell::new(crate::fxhash::FxHashMap::default()),
                    next_token: Cell::new(0),
                    link,
                })
            })
            .collect();

        let crashes_possible = faults.as_ref().is_some_and(|f| {
            (0..spec.nodes).any(|n| f.plan().crashes_on(n).next().is_some())
        });

        let state = Rc::new(ClusterState {
            allow_all: Cell::new(spec.allow_all),
            costs: StepCosts::new(&spec.design),
            spec,
            ctx: ctx.clone(),
            procs,
            nodes,
            perms: RefCell::new(HashSet::new()),
            app_done: Counter::new(),
            started: ctx.now(),
            faults,
            crashes_possible,
        });

        // Drive the fault plan's crash windows: one task per crashing node
        // wipes its volatile proxy state at each window and restarts the
        // link layer into a new epoch afterwards.
        if let Some(f) = &state.faults {
            for n in 0..state.spec.nodes {
                let mut windows: Vec<_> = f.plan().crashes_on(n).collect();
                if windows.is_empty() {
                    continue;
                }
                windows.sort_by(|a, b| a.at_us.total_cmp(&b.at_us));
                ctx.spawn(engine::drivers::crash_driver(
                    Rc::clone(&state),
                    n,
                    windows,
                ));
            }
        }

        // Start the per-node driver: a serial agent fed by commands and
        // arriving packets, or interrupt dispatch straight off the port.
        for node in &state.nodes {
            match d.arch {
                Arch::MessageProxy | Arch::CustomHardware => {
                    ctx.spawn(engine::drivers::agent_main(
                        Rc::clone(node),
                        Rc::clone(&state),
                    ));
                    ctx.spawn(engine::forward_rx(
                        node.port.clone(),
                        node.proxy_input.clone(),
                    ));
                }
                Arch::SystemCall => {
                    ctx.spawn(engine::drivers::interrupt_main(
                        Rc::clone(node),
                        Rc::clone(&state),
                    ));
                }
            }
        }

        Ok(Cluster { state })
    }

    /// Number of user processes.
    #[must_use]
    pub fn nprocs(&self) -> usize {
        self.state.spec.nprocs()
    }

    /// The spec this cluster was built from.
    #[must_use]
    pub fn spec(&self) -> ClusterSpec {
        self.state.spec
    }

    /// A handle to process `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn proc(&self, rank: ProcId) -> Proc {
        assert!(
            (rank.0 as usize) < self.nprocs(),
            "rank {rank} out of range"
        );
        Proc::new(Rc::clone(&self.state), rank)
    }

    /// Spawns the same async body on every process (SPMD style). The
    /// cluster tracks completion; [`Cluster::run`] shuts the engines down
    /// once every body finishes.
    pub fn spawn_spmd<F, Fut>(&self, body: F)
    where
        F: Fn(Proc) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        for r in 0..self.nprocs() {
            self.spawn_on(ProcId(r as u32), &body);
        }
    }

    /// Spawns an async body on one process.
    pub fn spawn_on<F, Fut>(&self, rank: ProcId, body: F)
    where
        F: Fn(Proc) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let p = self.proc(rank);
        let done = self.state.app_done.clone();
        let fut = body(p);
        self.state.ctx.spawn(async move {
            fut.await;
            done.incr();
        });
    }

    /// Runs the simulation until every spawned process body has finished,
    /// then shuts down the engine tasks and drains remaining events.
    ///
    /// Returns the underlying [`mproxy_des::RunReport`].
    pub fn run(&self, sim: &mproxy_des::Simulation) -> mproxy_des::RunReport {
        let state = Rc::clone(&self.state);
        let expected = self.nprocs() as u64;
        self.state.ctx.spawn(async move {
            state.app_done.wait_for(expected).await;
            for node in &state.nodes {
                node.proxy_input.close();
                node.port.rx_fifo().close();
                // Linger: all results have arrived by now, so drop any
                // still-unacknowledged link-layer state rather than
                // retransmitting into engines that just shut down.
                if let Some(link) = &node.link {
                    link.quiesce();
                }
            }
        });
        sim.run()
    }

    /// Grants `src` access to address space `target` (used with
    /// `allow_all = false`).
    pub fn grant(&self, src: ProcId, target: Asid) {
        self.state.perms.borrow_mut().insert((src, target));
    }

    /// Revokes a grant.
    pub fn revoke(&self, src: ProcId, target: Asid) {
        self.state.perms.borrow_mut().remove(&(src, target));
    }

    /// Busy time (µs) of the compute processor running `rank`, from the
    /// start of the simulation. With no explicit compute phases this is
    /// pure communication overhead.
    #[must_use]
    pub fn cpu_busy_us(&self, rank: ProcId) -> f64 {
        let ps = &self.state.procs[rank.0 as usize];
        ps.cpu.busy_us(self.state.ctx.now())
    }

    /// Per-process statistics snapshot.
    #[must_use]
    pub fn proc_stats(&self, rank: ProcId) -> ProcStats {
        self.state.procs[rank.0 as usize].stats.borrow().clone()
    }

    /// The communication failure that poisoned `rank`, if any.
    #[must_use]
    pub fn comm_error(&self, rank: ProcId) -> Option<crate::CommError> {
        self.state.procs[rank.0 as usize].comm_error.borrow().clone()
    }

    /// Injected-fault and link-layer counters. All-zero when the cluster
    /// was built without a fault plan.
    #[must_use]
    pub fn fault_report(&self) -> FaultReport {
        let injected = self
            .state
            .faults
            .as_ref()
            .map(|f| f.counts())
            .unwrap_or_default();
        let mut link = LinkStats::default();
        for node in &self.state.nodes {
            if let Some(l) = &node.link {
                let s = l.stats();
                link.retransmits += s.retransmits;
                link.acks_sent += s.acks_sent;
                link.nacks_sent += s.nacks_sent;
                link.dups_discarded += s.dups_discarded;
                link.held_out_of_order += s.held_out_of_order;
                link.unreachable += s.unreachable;
                // Worst single-destination occupancy across nodes (a sum
                // would be meaningless against the per-destination window).
                link.peak_pending = link.peak_pending.max(s.peak_pending);
                link.backlogged += s.backlogged;
                link.hellos_sent += s.hellos_sent;
                link.replayed += s.replayed;
                link.stale_discarded += s.stale_discarded;
                link.epoch_resyncs += s.epoch_resyncs;
            }
        }
        FaultReport { injected, link }
    }

    /// Telemetry snapshot under the engines' shared metric ids (see
    /// `mproxy-obs`): one scope per node carrying the link-layer
    /// counters, per-node traffic totals, credit stalls, and the
    /// command-wait histogram, plus — when `report` is given — a `sim`
    /// scope mapping the DES executor's accounting (events, timers,
    /// calendar peak, spawned/completed tasks and injected faults).
    ///
    /// The sim is single-threaded, so this is an import of its existing
    /// accounting rather than live atomics; ids and JSON shape are
    /// identical to the runtime's `RtCluster::obs_snapshot`, letting
    /// sim/runtime exports line up column for column.
    #[must_use]
    pub fn obs_snapshot(
        &self,
        label: &str,
        report: Option<&mproxy_des::RunReport>,
    ) -> mproxy_obs::Snapshot {
        use mproxy_obs::{Ctr, HistId, ScopeSnapshot};
        let mut scopes = Vec::with_capacity(self.state.nodes.len() + 1);
        for (n, node) in self.state.nodes.iter().enumerate() {
            let mut sc = ScopeSnapshot::empty(format!("node{n}"));
            let (ops, bytes) = self
                .state
                .procs
                .iter()
                .filter(|p| p.node == n)
                .map(|p| {
                    let s = p.stats.borrow();
                    (s.ops, s.bytes)
                })
                .fold((0u64, 0u64), |(a, b), (o, y)| (a + o, b + y));
            sc.set_counter(Ctr::OpsSubmitted, ops);
            sc.set_counter(Ctr::BytesOut, bytes);
            sc.set_counter(Ctr::OpsApplied, node.engine_ops.get());
            sc.set_counter(Ctr::CreditStalls, node.credit_stalls.get());
            if let Some(l) = &node.link {
                let s = l.stats();
                sc.set_counter(Ctr::Retransmits, s.retransmits);
                sc.set_counter(Ctr::AcksOut, s.acks_sent);
                sc.set_counter(Ctr::NacksOut, s.nacks_sent);
                sc.set_counter(Ctr::DedupDrops, s.dups_discarded);
                sc.set_counter(Ctr::HellosOut, s.hellos_sent);
                sc.set_counter(Ctr::Replayed, s.replayed);
                sc.set_counter(Ctr::StaleDrops, s.stale_discarded);
                sc.set_counter(Ctr::EpochBumps, s.epoch_resyncs);
            }
            sc.set_hist(HistId::CmdWaitNs, node.cmd_wait_hist.borrow().clone());
            scopes.push(sc);
        }
        let mut sim = ScopeSnapshot::empty("sim");
        if let Some(r) = report {
            sim.set_counter(Ctr::Events, r.events);
            sim.set_counter(Ctr::TimersArmed, r.timers_armed);
            sim.set_counter(Ctr::TimersCancelled, r.timers_cancelled);
            sim.set_counter(Ctr::TimersFired, r.timers_fired);
            sim.set_counter(Ctr::CalendarPeak, r.calendar_peak);
            sim.set_counter(Ctr::TasksSpawned, r.spawned);
            sim.set_counter(Ctr::TasksCompleted, r.completed);
        }
        if let Some(f) = &self.state.faults {
            let c = f.counts();
            sim.set_counter(
                Ctr::FaultsInjected,
                c.dropped + c.duplicated + c.reordered + c.corrupted,
            );
        }
        scopes.push(sim);
        mproxy_obs::Snapshot {
            label: label.to_string(),
            scopes,
        }
    }

    /// Number and mean (µs) of command queueing delays observed at
    /// `node`'s engine: submission instant to service start, the measured
    /// counterpart of the Section 5.4 contention model.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn cmd_wait_us(&self, node: usize) -> (u64, f64) {
        let t = self.state.nodes[node].cmd_wait.borrow();
        (t.count(), t.mean())
    }

    /// Peak occupancy of `node`'s merged engine input queue over the run
    /// (commands and packets); with credits enabled the command share is
    /// bounded by `procs_per_node * cmd_credits`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn engine_queue_peak(&self, node: usize) -> usize {
        self.state.nodes[node].proxy_input.max_len()
    }

    /// Busy time (µs) and serviced-operation count of `node`'s
    /// communication agent.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn engine_busy_us(&self, node: usize) -> (f64, u64) {
        let n = &self.state.nodes[node];
        (n.engine_busy.get().as_us(), n.engine_ops.get())
    }

    /// Reliable-link snapshot of `node`: its current epoch plus, per peer,
    /// the last sequence sent and next expected — sorted by peer, for
    /// byte-stable determinism checks. `None` without a fault plan.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn link_snapshot(&self, node: usize) -> Option<LinkSnapshot> {
        self.state.nodes[node].link.as_ref().map(|l| l.snapshot())
    }

    /// Aggregate Table 6-style traffic report over the elapsed run.
    #[must_use]
    pub fn traffic_report(&self) -> TrafficReport {
        let now = self.state.ctx.now();
        let elapsed = now.since(self.state.started);
        let mut total_ops = 0;
        let mut total_bytes = 0;
        let mut sizes = Tally::new();
        for p in &self.state.procs {
            let s = p.stats.borrow();
            total_ops += s.ops;
            total_bytes += s.bytes;
            sizes.merge(&s.msg_sizes);
        }
        let elapsed_ms = elapsed.as_us() / 1_000.0;
        let per_proc_rate = if elapsed_ms > 0.0 {
            total_ops as f64 / elapsed_ms / self.nprocs() as f64
        } else {
            0.0
        };
        let util = if elapsed.is_zero() {
            0.0
        } else {
            let busy: f64 = self
                .state
                .nodes
                .iter()
                .map(|n| n.engine_busy.get().as_us())
                .sum();
            busy / elapsed.as_us() / self.state.nodes.len() as f64
        };
        TrafficReport {
            total_ops,
            total_bytes,
            avg_msg_bytes: sizes.mean(),
            msg_rate_per_ms: per_proc_rate,
            interface_utilization: util,
            elapsed,
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("design", &self.state.spec.design.name)
            .field("nodes", &self.state.spec.nodes)
            .field("procs_per_node", &self.state.spec.procs_per_node)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mproxy_model::{MP1, MP2};

    #[test]
    fn spec_validation_rejects_degenerate_shapes() {
        assert!(ClusterSpec::new(MP1, 0, 1).validate().is_err());
        assert!(ClusterSpec::new(MP1, 1, 0).validate().is_err());
        assert!(ClusterSpec::new(MP1, 2, 2).validate().is_ok());
        let sim = mproxy_des::Simulation::new();
        assert!(Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 0, 1)).is_err());
    }

    #[test]
    fn nprocs_and_spec_accessors() {
        let sim = mproxy_des::Simulation::new();
        let c = Cluster::new(&sim.ctx(), ClusterSpec::new(MP2, 3, 2)).unwrap();
        assert_eq!(c.nprocs(), 6);
        assert_eq!(c.spec().design.name, "MP2");
        assert_eq!(c.proc(crate::ProcId(5)).node(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn proc_handle_bounds_checked() {
        let sim = mproxy_des::Simulation::new();
        let c = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 1, 1)).unwrap();
        let _ = c.proc(crate::ProcId(7));
    }

    #[test]
    fn traffic_report_empty_run_is_zeroes() {
        let sim = mproxy_des::Simulation::new();
        let c = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
        c.spawn_spmd(|_| async {});
        let _ = c.run(&sim);
        let t = c.traffic_report();
        assert_eq!(t.total_ops, 0);
        assert_eq!(t.avg_msg_bytes, 0.0);
    }
}
