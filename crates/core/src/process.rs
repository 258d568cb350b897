//! The user-process API: RMA (PUT/GET) and RQ (ENQ/DEQ) primitives.
//!
//! A [`Proc`] is a handle held by the application code of one simulated
//! user process. Its communication methods implement the Section 3 model:
//!
//! ```text
//! PUT(laddr, raddr, asid, nbytes, lsync, rsync)
//! GET(laddr, raddr, asid, nbytes, lsync, rsync)
//! ENQ(laddr, rq, asid, nbytes, lsync, rsync)
//! DEQ(laddr, rq, asid, nbytes, lsync)
//! ```
//!
//! All four are asynchronous: the call returns once the command is
//! *submitted* (charging only the submission overhead — three cache misses
//! under a message proxy) and completion is observed through
//! synchronisation flags, letting programs overlap communication with
//! computation.

use std::rc::Rc;

use bytes::Bytes;
use mproxy_des::{Dur, SimCtx, SimTime};
use mproxy_model::Arch;

use crate::addr::{Addr, Asid, FlagId, ProcId, RemoteQueue, RqId};
use crate::cluster::{ClusterState, ProcState, WORK_UNIT_NS};
use crate::engine::costs::StepCost;
use crate::engine::{self, flag_counter, lines, queue_channel, Command, ProxyInput, DEQ_REPROBE};
use crate::error::CommError;
use crate::flags::SyncFlag;
use crate::mem::Memory;

/// A handle to one simulated user process.
///
/// Cheap to clone; all clones refer to the same process.
#[derive(Clone)]
pub struct Proc {
    cs: Rc<ClusterState>,
    id: ProcId,
}

impl Proc {
    pub(crate) fn new(cs: Rc<ClusterState>, id: ProcId) -> Proc {
        Proc { cs, id }
    }

    fn state(&self) -> &Rc<ProcState> {
        self.cs.proc(self.id)
    }

    /// This process's global rank.
    #[must_use]
    pub fn rank(&self) -> ProcId {
        self.id
    }

    /// This process's address-space id.
    #[must_use]
    fn asid(&self) -> Asid {
        Asid::from(self.id)
    }

    /// The SMP node this process runs on.
    #[must_use]
    fn node(&self) -> usize {
        self.state().node
    }

    /// Total processes in the cluster.
    #[must_use]
    pub fn nprocs(&self) -> usize {
        self.cs.procs.len()
    }

    /// The simulation context (clock, spawning).
    #[must_use]
    pub fn ctx(&self) -> &SimCtx {
        &self.cs.ctx
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.cs.ctx.now()
    }

    /// The design point this cluster runs at.
    #[must_use]
    pub fn design(&self) -> mproxy_model::DesignPoint {
        *self.cs.design()
    }

    // ----- memory -------------------------------------------------------

    /// Allocates `nbytes` in this process's address space.
    #[must_use]
    pub fn alloc(&self, nbytes: u64) -> Addr {
        self.state().mem.borrow_mut().alloc(nbytes)
    }

    /// Runs `f` with exclusive access to this process's memory.
    pub fn with_mem_mut<R>(&self, f: impl FnOnce(&mut Memory) -> R) -> R {
        f(&mut self.state().mem.borrow_mut())
    }

    /// Reads a `u64` from local memory.
    #[must_use]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        self.state().mem.borrow().read_u64(addr)
    }

    /// Writes a `u64` to local memory.
    pub fn write_u64(&self, addr: Addr, v: u64) {
        self.state().mem.borrow_mut().write_u64(addr, v);
    }

    /// Reads an `f64` from local memory.
    #[must_use]
    pub fn read_f64(&self, addr: Addr) -> f64 {
        self.state().mem.borrow().read_f64(addr)
    }

    /// Writes an `f64` to local memory.
    pub fn write_f64(&self, addr: Addr, v: f64) {
        self.state().mem.borrow_mut().write_f64(addr, v);
    }

    /// Reads raw bytes from local memory.
    #[must_use]
    pub fn read_bytes(&self, addr: Addr, nbytes: u32) -> Bytes {
        self.state().mem.borrow().read(addr, nbytes)
    }

    /// Writes raw bytes to local memory.
    pub fn write_bytes(&self, addr: Addr, data: &[u8]) {
        self.state().mem.borrow_mut().write(addr, data);
    }

    /// Reads consecutive `f64`s from local memory.
    #[must_use]
    pub fn read_f64_slice(&self, addr: Addr, count: usize) -> Vec<f64> {
        self.state().mem.borrow().read_f64_slice(addr, count)
    }

    /// Writes consecutive `f64`s to local memory.
    pub fn write_f64_slice(&self, addr: Addr, values: &[f64]) {
        self.state().mem.borrow_mut().write_f64_slice(addr, values);
    }

    // ----- flags and queues ----------------------------------------------

    /// Allocates the next flag slot. Allocation order is deterministic, so
    /// SPMD peers allocating flags in lockstep can refer to each other's
    /// slots by index.
    #[must_use]
    pub fn new_flag(&self) -> SyncFlag {
        let ps = self.state();
        let id = FlagId(ps.next_flag.get());
        ps.next_flag.set(id.0 + 1);
        SyncFlag {
            proc: self.id,
            id,
            counter: flag_counter(ps, id),
        }
    }

    /// A reference to flag slot `id` of process `proc` (for `rsync`).
    #[must_use]
    pub fn remote_flag(&self, proc: ProcId, id: FlagId) -> crate::addr::RemoteFlag {
        crate::addr::RemoteFlag { proc, flag: id }
    }

    /// Allocates the next remote-queue slot (deterministic order, like
    /// flags).
    #[must_use]
    pub fn new_queue(&self) -> RqId {
        let ps = self.state();
        let id = RqId(ps.next_queue.get());
        ps.next_queue.set(id.0 + 1);
        let _ = queue_channel(ps, id);
        id
    }

    /// Waits until `flag` reaches `target`, then charges the cost of the
    /// completing read of the flag line.
    ///
    /// # Panics
    ///
    /// Panics with the failure message if the process was failed by the
    /// communication layer while waiting (e.g. destination unreachable
    /// under fault injection); use [`Proc::wait_flag_result`] to observe
    /// the failure as an error instead.
    pub async fn wait_flag(&self, flag: &SyncFlag, target: u64) {
        if let Err(e) = self.wait_flag_result(flag, target).await {
            panic!("wait_flag on rank {}: {e}", self.id);
        }
    }

    /// Like [`Proc::wait_flag`], but surfaces communication failures: if
    /// the process is poisoned (its operation's destination became
    /// unreachable) while waiting, returns the recorded [`CommError`]
    /// instead of blocking forever.
    ///
    /// # Errors
    ///
    /// The first [`CommError`] recorded against this process.
    pub async fn wait_flag_result(&self, flag: &SyncFlag, target: u64) -> Result<(), CommError> {
        assert_eq!(flag.proc, self.id, "wait_flag on a foreign flag");
        flag.counter.wait_for(target).await;
        if let Some(e) = self.comm_error() {
            return Err(e);
        }
        self.hold_step(self.cs.costs.flag_read, 0).await;
        Ok(())
    }

    /// The communication failure that poisoned this process, if any.
    #[must_use]
    fn comm_error(&self) -> Option<CommError> {
        self.state().comm_error.borrow().clone()
    }

    /// Blocking local dequeue from one of this process's own queues: waits
    /// for data, charges the dequeue cost, returns the payload.
    pub async fn rq_recv(&self, rq: RqId) -> Option<Bytes> {
        let ch = queue_channel(self.state(), rq);
        let data = ch.recv().await?;
        self.hold_step(self.cs.costs.rq_take, 0).await;
        Some(data)
    }

    /// Non-blocking local poll of one of this process's own queues,
    /// charging a probe (hit if empty, two misses if an item is taken).
    pub async fn rq_poll(&self, rq: RqId) -> Option<Bytes> {
        match self.rq_probe(rq) {
            Some(data) => {
                self.hold_step(self.cs.costs.rq_take, 0).await;
                Some(data)
            }
            None => {
                self.hold_cpu(self.cs.costs.rq_poll_miss).await;
                None
            }
        }
    }

    /// Polls one of this process's own queues until it yields an item, or
    /// returns `None` once `done()` holds; `done` is checked before each
    /// poll. Charges each poll as [`Proc::rq_poll`] does, but a run of
    /// empty polls costs no simulator event until something writes what
    /// they read (see `mproxy_des::Resource::spin_until`). So `done` may
    /// read only two kinds of state:
    ///
    /// - state the polling task itself writes, which changes only in code
    ///   it runs after a poll returns, such as a count of handled messages
    ///   or a wake-up counter its own handlers bump;
    /// - this process's flags, memory and queues as other tasks write them:
    ///   every delivery, flag set and memory write the engines and the
    ///   shared-memory path make wakes the poll, and so does poisoning.
    pub async fn poll_rq_until(&self, rq: RqId, done: impl Fn() -> bool) -> Option<Bytes> {
        let probe = || {
            if done() {
                Some(None)
            } else {
                self.rq_probe(rq).map(Some)
            }
        };
        let ps = self.state();
        let data = ps
            .cpu
            .spin_until(self.cs.costs.rq_poll_miss, &ps.watch, probe)
            .await?;
        self.hold_step(self.cs.costs.rq_take, 0).await;
        Some(data)
    }

    /// Takes the head of a local queue, if any, charging nothing.
    fn rq_probe(&self, rq: RqId) -> Option<Bytes> {
        // An empty poll is the applications' most frequent step: probe the
        // queue's channel through a borrow, and leave `queue_channel` (a
        // clone and a poison check) to the first poll of a new queue.
        let ps = self.state();
        let existing = ps
            .queues
            .borrow()
            .get(rq.0 as usize)
            .map(|ch| ch.try_recv());
        match existing {
            Some(polled) => polled,
            None => queue_channel(ps, rq).try_recv(),
        }
    }

    // ----- compute model --------------------------------------------------

    /// Charges `units` work units of computation on this process's
    /// processor, [`WORK_UNIT_NS`] each (the deterministic stand-in for the
    /// paper's real-time clock measurement).
    ///
    /// Long computations are split into 100 µs quanta so that interrupt
    /// handlers (system-call architecture) get service slots at realistic
    /// preemption latency instead of queueing behind a whole compute
    /// phase.
    pub async fn compute(&self, units: u64) {
        let d = Dur::from_ns(units * WORK_UNIT_NS);
        self.compute_dur(d).await;
    }

    /// Charges `us` microseconds of computation (quantised like
    /// [`Proc::compute`]).
    pub async fn compute_us(&self, us: f64) {
        self.compute_dur(Dur::from_us(us)).await;
    }

    async fn compute_dur(&self, d: Dur) {
        const QUANTUM: Dur = Dur::from_ns(100_000);
        let mut left = d;
        while left > QUANTUM {
            self.hold_cpu(QUANTUM).await;
            left -= QUANTUM;
        }
        self.hold_cpu(left).await;
    }

    async fn hold_cpu(&self, d: Dur) {
        if d.is_zero() {
            return;
        }
        self.state().cpu.hold(d).await;
    }

    /// Holds this process's processor for one cost-table step over
    /// `units` lines.
    async fn hold_step(&self, cost: StepCost, units: u32) {
        self.hold_cpu(Dur::from_us(cost.us(units))).await;
    }

    // ----- RMA / RQ primitives --------------------------------------------

    /// `PUT`: copies `nbytes` from local `laddr` to `raddr` in address
    /// space `asid`. `lsync` (a local flag) increments when the data has
    /// been delivered and acknowledged; `rsync` (a flag in the target
    /// space) increments at delivery.
    ///
    /// # Errors
    ///
    /// [`CommError::PermissionDenied`] if this process has not been granted
    /// access to `asid`; [`CommError::OutOfBounds`] /
    /// [`CommError::UnknownAsid`] / [`CommError::EmptyTransfer`] on invalid
    /// arguments.
    pub async fn put(
        &self,
        laddr: Addr,
        asid: Asid,
        raddr: Addr,
        nbytes: u32,
        lsync: Option<&SyncFlag>,
        rsync: Option<crate::addr::RemoteFlag>,
    ) -> Result<(), CommError> {
        self.validate(asid, laddr, raddr, nbytes)?;
        self.record(nbytes);
        let dst = ProcId::from(asid);
        let cmd = Command::Put {
            src: self.id,
            dst,
            laddr,
            raddr,
            nbytes,
            lsync: lsync.map(|f| self.own_flag(f)),
            rsync: rsync.map(|r| self.check_rsync(dst, r)),
            inline: self.capture_inline(laddr, nbytes),
        };
        self.dispatch(cmd, dst).await
    }

    /// `GET`: copies `nbytes` from `raddr` in `asid` to local `laddr`.
    /// `lsync` increments when the data has landed locally; `rsync`
    /// increments in the target space when the data has been read.
    ///
    /// # Errors
    ///
    /// As for [`Proc::put`].
    pub async fn get(
        &self,
        laddr: Addr,
        asid: Asid,
        raddr: Addr,
        nbytes: u32,
        lsync: Option<&SyncFlag>,
        rsync: Option<crate::addr::RemoteFlag>,
    ) -> Result<(), CommError> {
        self.validate(asid, laddr, raddr, nbytes)?;
        self.record(nbytes);
        let dst = ProcId::from(asid);
        let cmd = Command::Get {
            src: self.id,
            dst,
            laddr,
            raddr,
            nbytes,
            lsync: lsync.map(|f| self.own_flag(f)),
            rsync: rsync.map(|r| self.check_rsync(dst, r)),
        };
        self.dispatch(cmd, dst).await
    }

    /// `ENQ`: atomically appends `nbytes` from local `laddr` to remote
    /// queue `rq`.
    ///
    /// # Errors
    ///
    /// As for [`Proc::put`].
    pub async fn enq(
        &self,
        laddr: Addr,
        rq: RemoteQueue,
        nbytes: u32,
        lsync: Option<&SyncFlag>,
        rsync: Option<crate::addr::RemoteFlag>,
    ) -> Result<(), CommError> {
        let asid = Asid::from(rq.proc);
        self.validate_src_perm(asid, laddr, nbytes)?;
        self.record(nbytes);
        let cmd = Command::Enq {
            src: self.id,
            dst: rq.proc,
            rq: rq.rq,
            laddr,
            nbytes,
            lsync: lsync.map(|f| self.own_flag(f)),
            rsync: rsync.map(|r| self.check_rsync(rq.proc, r)),
            inline: self.capture_inline(laddr, nbytes),
        };
        self.dispatch(cmd, rq.proc).await
    }

    /// `DEQ`: removes the head of remote queue `rq` into local `laddr`
    /// (at most `nbytes`). If the queue is empty the operation keeps
    /// probing until data arrives; `lsync` increments on delivery.
    ///
    /// # Errors
    ///
    /// As for [`Proc::put`].
    pub async fn deq(
        &self,
        laddr: Addr,
        rq: RemoteQueue,
        nbytes: u32,
        lsync: Option<&SyncFlag>,
    ) -> Result<(), CommError> {
        self.validate_src_perm(Asid::from(rq.proc), laddr, nbytes)?;
        self.record(nbytes);
        let cmd = Command::Deq {
            src: self.id,
            dst: rq.proc,
            rq: rq.rq,
            laddr,
            nbytes,
            lsync: lsync.map(|f| self.own_flag(f)),
        };
        self.dispatch(cmd, rq.proc).await
    }

    // ----- internals -------------------------------------------------------

    /// Captures small payloads into the command entry at submission, so
    /// the caller may immediately reuse its buffer (larger transfers stay
    /// zero-copy and require the source to remain stable until serviced).
    fn capture_inline(&self, laddr: Addr, nbytes: u32) -> Option<bytes::Bytes> {
        (nbytes <= engine::INLINE_BYTES).then(|| self.state().mem.borrow().read(laddr, nbytes))
    }

    fn own_flag(&self, f: &SyncFlag) -> FlagId {
        assert_eq!(f.proc, self.id, "lsync flag must belong to the caller");
        f.id
    }

    fn check_rsync(&self, dst: ProcId, r: crate::addr::RemoteFlag) -> FlagId {
        assert_eq!(r.proc, dst, "rsync flag must live in the target space");
        r.flag
    }

    fn check_target(&self, asid: Asid) -> Result<(), CommError> {
        if (asid.0 as usize) >= self.cs.procs.len() {
            return Err(CommError::UnknownAsid(asid));
        }
        if !self.cs.allowed(self.id, asid) {
            self.state().stats.borrow_mut().faults += 1;
            return Err(CommError::PermissionDenied {
                src: self.id,
                target: asid,
            });
        }
        Ok(())
    }

    /// Rejects new submissions from a process already failed by the
    /// communication layer.
    fn check_poisoned(&self) -> Result<(), CommError> {
        match self.comm_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn validate_src_perm(&self, asid: Asid, laddr: Addr, nbytes: u32) -> Result<(), CommError> {
        self.check_poisoned()?;
        if nbytes == 0 {
            return Err(CommError::EmptyTransfer);
        }
        self.state()
            .mem
            .borrow()
            .check(self.asid(), laddr, nbytes)?;
        self.check_target(asid)
    }

    fn validate(&self, asid: Asid, laddr: Addr, raddr: Addr, nbytes: u32) -> Result<(), CommError> {
        self.validate_src_perm(asid, laddr, nbytes)?;
        let dst = ProcId::from(asid);
        self.cs.proc(dst).mem.borrow().check(asid, raddr, nbytes)?;
        Ok(())
    }

    fn record(&self, nbytes: u32) {
        let ps = self.state();
        let mut s = ps.stats.borrow_mut();
        s.ops += 1;
        s.bytes += u64::from(nbytes);
    }

    /// Takes one command-queue credit when the spec enables flow control,
    /// blocking for a free slot; the engine returns the credit at service
    /// start.
    ///
    /// # Errors
    ///
    /// The process's [`CommError`], if it is poisoned while waiting.
    async fn acquire_credit(&self) -> Result<(), CommError> {
        let Some(ch) = self.state().credits.clone() else {
            return Ok(());
        };
        match ch.recv().await {
            Some(()) => Ok(()),
            // Closed while waiting: only poisoning closes the pool.
            None => Err(self.comm_error().expect("credit pool closed by poisoning")),
        }
    }

    /// Routes a validated command: same-node operations run directly
    /// through shared memory; remote ones go to the node's engine.
    async fn dispatch(&self, cmd: Command, dst: ProcId) -> Result<(), CommError> {
        if self.cs.proc(dst).node == self.state().node {
            return self.run_intra_node(cmd).await;
        }
        match self.cs.design().arch {
            Arch::MessageProxy | Arch::CustomHardware => {
                self.acquire_credit().await?;
                // Submission: write the command into the agent's queue.
                if let Some(submit) = self.cs.costs.user_submit {
                    self.hold_step(submit, 0).await;
                }
                let node = self.cs.node_of(self.id);
                let _ = node
                    .proxy_input
                    .try_send(ProxyInput::Cmd(cmd, self.cs.ctx.now()));
            }
            Arch::SystemCall => engine::drivers::trap(&self.cs, self.id, cmd).await,
        }
        Ok(())
    }

    /// Same-node PUT, GET or ENQ: holds the processor for the submission
    /// plus the per-line copy, moves the data, then sets `rsync` (in
    /// `dst`) and `lsync` (here).
    async fn shared_memory_op(
        &self,
        nbytes: u32,
        dst: ProcId,
        rsync: Option<FlagId>,
        lsync: Option<FlagId>,
        move_data: impl FnOnce(&ClusterState),
    ) {
        self.hold_step(self.cs.costs.intra_node, lines(nbytes))
            .await;
        move_data(&self.cs);
        if let Some(f) = rsync {
            engine::set_flag(&self.cs, dst, f);
        }
        if let Some(f) = lsync {
            engine::set_flag(&self.cs, self.id, f);
        }
    }

    /// Intra-node communication: processes on the same SMP share memory,
    /// so data moves without involving the proxy/adapter — the effect
    /// behind Figure 9's "intra-node communication reduces the load on the
    /// message proxy".
    async fn run_intra_node(&self, cmd: Command) -> Result<(), CommError> {
        match cmd {
            Command::Put {
                src,
                dst,
                laddr,
                raddr,
                nbytes,
                lsync,
                rsync,
                inline,
            } => {
                self.shared_memory_op(nbytes, dst, rsync, lsync, |cs| {
                    let data = inline.unwrap_or_else(|| engine::read_mem(cs, src, laddr, nbytes));
                    engine::write_mem(cs, dst, raddr, &data);
                })
                .await;
            }
            Command::Get {
                src,
                dst,
                laddr,
                raddr,
                nbytes,
                lsync,
                rsync,
            } => {
                self.shared_memory_op(nbytes, dst, rsync, lsync, |cs| {
                    let data = engine::read_mem(cs, dst, raddr, nbytes);
                    engine::write_mem(cs, src, laddr, &data);
                })
                .await;
            }
            Command::Enq {
                src,
                dst,
                rq,
                laddr,
                nbytes,
                lsync,
                rsync,
                inline,
            } => {
                self.shared_memory_op(nbytes, dst, rsync, lsync, |cs| {
                    let data = inline.unwrap_or_else(|| engine::read_mem(cs, src, laddr, nbytes));
                    engine::enqueue(cs, dst, rq, data);
                })
                .await;
            }
            Command::Deq {
                src,
                dst,
                rq,
                laddr,
                nbytes,
                lsync,
            } => {
                let cost = self.cs.costs.intra_node;
                self.hold_cpu(Dur::from_us(cost.fixed)).await;
                let ch = queue_channel(self.cs.proc(dst), rq);
                // Probe until data arrives (shared-memory polling), giving
                // up if the process is poisoned mid-wait.
                let data = loop {
                    match ch.try_recv() {
                        Some(d) => break d,
                        None => {
                            if let Some(e) = self.comm_error() {
                                return Err(e);
                            }
                            self.cs.ctx.delay(DEQ_REPROBE).await;
                        }
                    }
                };
                let take = nbytes.min(data.len() as u32);
                self.hold_cpu(Dur::from_us(f64::from(lines(take)) * cost.per_line))
                    .await;
                engine::write_mem(&self.cs, src, laddr, &data[..take as usize]);
                if let Some(f) = lsync {
                    engine::set_flag(&self.cs, src, f);
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc")
            .field("rank", &self.id)
            .field("node", &self.node())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cluster, ClusterSpec};
    use mproxy_des::{Dur, Simulation};
    use mproxy_model::{HW1, MP1, SW1};
    use std::cell::Cell;
    use std::rc::Rc;

    /// A poll of one's own empty queue holds the poller's processor for
    /// exactly the table's poll-miss entry, and nothing else.
    #[test]
    fn empty_rq_poll_advances_the_clock_by_the_poll_miss_entry() {
        for design in [HW1, MP1, SW1] {
            let sim = Simulation::new();
            let c = Cluster::new(&sim.ctx(), ClusterSpec::new(design, 1, 1)).unwrap();
            let took = Rc::new(Cell::new((Dur::ZERO, Dur::ZERO)));
            let out = Rc::clone(&took);
            c.spawn_spmd(move |p| {
                let out = Rc::clone(&out);
                async move {
                    let q = p.new_queue();
                    let before = p.now();
                    assert!(p.rq_poll(q).await.is_none());
                    out.set((p.now() - before, p.cs.costs.rq_poll_miss));
                }
            });
            assert!(c.run(&sim).completed_cleanly());
            let (elapsed, entry) = took.get();
            assert!(entry > Dur::ZERO, "{}", design.name);
            assert_eq!(elapsed, entry, "{}", design.name);
        }
    }
}
