//! The home-directory MSI protocol.
//!
//! Every region has a *home*; the home's directory entry tracks the
//! sharer set and the exclusive owner, and serialises requests per region
//! (busy flag + pending queue). Handlers are event-driven and never wait
//! for other protocol messages, so a process always makes progress while
//! polling — including a home node with its own request outstanding.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::rc::{Rc, Weak};

use mproxy::{Addr, Proc, ProcId};
use mproxy_am::{Am, AmMsg, HandlerId};
use mproxy_des::Counter;

/// Globally unique name of a region: its home process and a per-home
/// creation index (deterministic under SPMD creation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId {
    /// The process whose directory manages this region.
    pub home: ProcId,
    /// Creation index at the home.
    pub idx: u32,
}

/// A mapped region: local buffer plus identity.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    rid: RegionId,
    size: u32,
    addr: Addr,
}

impl Region {
    /// The region's identity.
    #[must_use]
    pub fn rid(&self) -> RegionId {
        self.rid
    }

    /// Region size in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Local buffer address — valid application data between `start_*`
    /// and `end_*`.
    #[must_use]
    pub fn addr(&self) -> Addr {
        self.addr
    }
}

/// Coherence statistics for one process (misses drive Table 6's traffic).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CrlStats {
    /// `start_*` calls satisfied from the valid local copy.
    pub hits: u64,
    /// `start_*` calls that required the home directory.
    pub misses: u64,
    /// Invalidation messages sent by this home.
    pub invalidations: u64,
    /// Writeback requests sent by this home.
    pub writebacks: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Invalid,
    Shared,
    Exclusive,
}

struct LocalEntry {
    state: State,
    addr: Addr,
    size: u32,
    wake: Counter,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Read,
    Write,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    kind: ReqKind,
    requester: u32,
    buf: Addr,
}

struct DirEntry {
    size: u32,
    master: Addr,
    copyset: BTreeSet<u32>,
    owner: Option<u32>,
    busy: bool,
    acks: u32,
    cur: Option<Pending>,
    queue: VecDeque<Pending>,
}

struct Inner {
    p: Proc,
    am: Am,
    me: u32,
    local: RefCell<HashMap<RegionId, LocalEntry>>,
    dir: RefCell<HashMap<u32, DirEntry>>,
    next_idx: Cell<u32>,
    stats: RefCell<CrlStats>,
    h_read: HandlerId,
    h_write: HandlerId,
    h_inv: HandlerId,
    h_inv_ack: HandlerId,
    h_wb: HandlerId,
    h_wb_done: HandlerId,
    h_data: HandlerId,
}

/// The CRL endpoint of one process. See the crate docs for an example.
#[derive(Clone)]
pub struct Crl {
    inner: Rc<Inner>,
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("u32"))
}
fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("u64"))
}

/// Boxed handler future (the shape `Am::register` expects).
type HandlerFut = std::pin::Pin<Box<dyn std::future::Future<Output = ()>>>;

impl Crl {
    /// Creates the endpoint and registers its protocol handlers on `am`
    /// (all ranks must do this in the same order).
    #[must_use]
    pub fn new(p: &Proc, am: &Am) -> Crl {
        // Reserve handler slots first so ids are fixed, then fill them via
        // a weak back-reference.
        let cell: Rc<RefCell<Weak<Inner>>> = Rc::new(RefCell::new(Weak::new()));
        let mk = |f: fn(Crl, AmMsg) -> HandlerFut| {
            let cell = Rc::clone(&cell);
            move |_am: Am, msg: AmMsg| -> HandlerFut {
                let inner = cell.borrow().upgrade().expect("CRL endpoint dropped");
                f(Crl { inner }, msg)
            }
        };
        let h_read = am.register(mk(|c, m| Box::pin(async move { c.on_read_req(m).await })));
        let h_write = am.register(mk(|c, m| Box::pin(async move { c.on_write_req(m).await })));
        let h_inv = am.register(mk(|c, m| Box::pin(async move { c.on_inv(m).await })));
        let h_inv_ack = am.register(mk(|c, m| Box::pin(async move { c.on_ack(m).await })));
        let h_wb = am.register(mk(|c, m| Box::pin(async move { c.on_wb_req(m).await })));
        let h_wb_done = am.register(mk(|c, m| Box::pin(async move { c.on_ack(m).await })));
        let h_data = am.register(mk(|c, m| Box::pin(async move { c.on_data(m) })));
        let inner = Rc::new(Inner {
            p: p.clone(),
            am: am.clone(),
            me: p.rank().0,
            local: RefCell::new(HashMap::new()),
            dir: RefCell::new(HashMap::new()),
            next_idx: Cell::new(0),
            stats: RefCell::new(CrlStats::default()),
            h_read,
            h_write,
            h_inv,
            h_inv_ack,
            h_wb,
            h_wb_done,
            h_data,
        });
        *cell.borrow_mut() = Rc::downgrade(&inner);
        Crl { inner }
    }

    /// The owning process.
    #[must_use]
    pub fn proc(&self) -> &Proc {
        &self.inner.p
    }

    /// Coherence statistics so far.
    #[must_use]
    pub fn stats(&self) -> CrlStats {
        *self.inner.stats.borrow()
    }

    /// Creates a region of `size` bytes homed at this process. Returns its
    /// global id (`idx` increments per creation, so SPMD peers can name it
    /// deterministically).
    pub fn create(&self, size: u32) -> RegionId {
        let i = &self.inner;
        let idx = i.next_idx.get();
        i.next_idx.set(idx + 1);
        let master = i.p.alloc(u64::from(size));
        i.dir.borrow_mut().insert(
            idx,
            DirEntry {
                size,
                master,
                copyset: BTreeSet::new(),
                owner: None,
                busy: false,
                acks: 0,
                cur: None,
                queue: VecDeque::new(),
            },
        );
        RegionId {
            home: i.p.rank(),
            idx,
        }
    }

    /// Maps a region into this process: allocates the local buffer (the
    /// home maps the master copy itself). `size` must match the creation
    /// size.
    #[must_use]
    pub fn map(&self, rid: RegionId, size: u32) -> Region {
        let i = &self.inner;
        let addr = if rid.home.0 == i.me {
            let dir = i.dir.borrow();
            let e = dir.get(&rid.idx).expect("mapping an uncreated region");
            assert_eq!(e.size, size, "map size mismatch");
            e.master
        } else {
            i.p.alloc(u64::from(size))
        };
        i.local.borrow_mut().insert(
            rid,
            LocalEntry {
                state: State::Invalid,
                addr,
                size,
                wake: Counter::new(),
            },
        );
        Region { rid, size, addr }
    }

    fn local_state(&self, rid: RegionId) -> State {
        self.inner.local.borrow()[&rid].state
    }

    /// Begins a read: returns once a coherent copy is valid locally.
    pub async fn start_read(&self, rgn: &Region) {
        match self.local_state(rgn.rid) {
            State::Shared | State::Exclusive => {
                self.inner.stats.borrow_mut().hits += 1;
                self.inner.p.compute_us(0.3).await; // library hit path
            }
            State::Invalid => {
                self.inner.stats.borrow_mut().misses += 1;
                self.request(rgn, ReqKind::Read).await;
            }
        }
    }

    /// Ends a read (the copy stays cached until invalidated).
    pub async fn end_read(&self, _rgn: &Region) {
        self.inner.p.compute_us(0.2).await;
    }

    /// Begins a write: returns once this process holds the region
    /// exclusively.
    pub async fn start_write(&self, rgn: &Region) {
        match self.local_state(rgn.rid) {
            State::Exclusive => {
                self.inner.stats.borrow_mut().hits += 1;
                self.inner.p.compute_us(0.3).await;
            }
            _ => {
                self.inner.stats.borrow_mut().misses += 1;
                self.request(rgn, ReqKind::Write).await;
            }
        }
    }

    /// Ends a write (modifications stay local until the protocol fetches
    /// them).
    pub async fn end_write(&self, _rgn: &Region) {
        self.inner.p.compute_us(0.2).await;
    }

    async fn request(&self, rgn: &Region, kind: ReqKind) {
        let i = &self.inner;
        let target = {
            let local = i.local.borrow();
            local[&rgn.rid].wake.get() + 1
        };
        let req = Pending {
            kind,
            requester: i.me,
            buf: rgn.addr,
        };
        if rgn.rid.home.0 == i.me {
            self.dir_request(rgn.rid.idx, req).await;
        } else {
            let mut args = [0u8; 16];
            args[0..4].copy_from_slice(&rgn.rid.idx.to_le_bytes());
            args[4..8].copy_from_slice(&i.me.to_le_bytes());
            args[8..16].copy_from_slice(&rgn.addr.0.to_le_bytes());
            let h = match kind {
                ReqKind::Read => i.h_read,
                ReqKind::Write => i.h_write,
            };
            i.am.request(rgn.rid.home, h, &args).await;
        }
        let wake = i.local.borrow()[&rgn.rid].wake.clone();
        i.am.poll_while(|| wake.get() >= target).await;
    }

    // ---- home directory ---------------------------------------------------

    async fn on_read_req(&self, m: AmMsg) {
        let idx = u32_at(&m.args, 0);
        let requester = u32_at(&m.args, 4);
        let buf = Addr(u64_at(&m.args, 8));
        self.dir_request(
            idx,
            Pending {
                kind: ReqKind::Read,
                requester,
                buf,
            },
        )
        .await;
    }

    async fn on_write_req(&self, m: AmMsg) {
        let idx = u32_at(&m.args, 0);
        let requester = u32_at(&m.args, 4);
        let buf = Addr(u64_at(&m.args, 8));
        self.dir_request(
            idx,
            Pending {
                kind: ReqKind::Write,
                requester,
                buf,
            },
        )
        .await;
    }

    async fn dir_request(&self, idx: u32, req: Pending) {
        let start = {
            let mut dir = self.inner.dir.borrow_mut();
            let e = dir.get_mut(&idx).expect("directory entry");
            e.queue.push_back(req);
            if e.busy {
                false
            } else {
                e.busy = true;
                true
            }
        };
        if start {
            self.dir_advance(idx).await;
        }
    }

    /// Services queued requests until one is left waiting for acks or the
    /// queue drains.
    async fn dir_advance(&self, idx: u32) {
        loop {
            enum Step {
                Grant,
                Wait(Vec<Msg>),
            }
            enum Msg {
                Inv(u32),
                Wb(u32, u8),
            }
            let step = {
                let i = &self.inner;
                let mut dir = i.dir.borrow_mut();
                let e = dir.get_mut(&idx).expect("directory entry");
                debug_assert!(e.busy && e.cur.is_none());
                let Some(req) = e.queue.pop_front() else {
                    e.busy = false;
                    break;
                };
                e.cur = Some(req);
                let mut msgs = Vec::new();
                match req.kind {
                    ReqKind::Read => {
                        if let Some(o) = e.owner.take() {
                            if o == req.requester {
                                // Reading its own exclusive copy — treat as
                                // a grant refresh.
                                e.owner = Some(o);
                            } else if o == i.me {
                                // Home is owner: master is current.
                                self.downgrade_self(idx, State::Shared);
                                e.copyset.insert(o);
                            } else {
                                msgs.push(Msg::Wb(o, 1)); // downgrade to shared
                                e.copyset.insert(o);
                            }
                        }
                    }
                    ReqKind::Write => {
                        if let Some(o) = e.owner.take() {
                            if o != req.requester {
                                if o == i.me {
                                    self.downgrade_self(idx, State::Invalid);
                                } else {
                                    msgs.push(Msg::Wb(o, 0)); // invalidate
                                }
                            }
                        }
                        let sharers: Vec<u32> = e
                            .copyset
                            .iter()
                            .copied()
                            .filter(|&s| s != req.requester)
                            .collect();
                        for s in sharers {
                            if s == i.me {
                                self.downgrade_self(idx, State::Invalid);
                                e.copyset.remove(&i.me);
                            } else {
                                msgs.push(Msg::Inv(s));
                            }
                        }
                    }
                }
                e.acks = msgs.len() as u32;
                if msgs.is_empty() {
                    Step::Grant
                } else {
                    Step::Wait(msgs)
                }
            };
            match step {
                Step::Grant => {
                    self.dir_grant(idx).await;
                    // Loop to service the next queued request, if any.
                }
                Step::Wait(msgs) => {
                    let i = &self.inner;
                    let (master, size) = {
                        let dir = i.dir.borrow();
                        let e = &dir[&idx];
                        (e.master, e.size)
                    };
                    let _ = size;
                    for msg in msgs {
                        match msg {
                            Msg::Inv(s) => {
                                i.stats.borrow_mut().invalidations += 1;
                                let mut args = [0u8; 8];
                                args[0..4].copy_from_slice(&idx.to_le_bytes());
                                args[4..8].copy_from_slice(&i.me.to_le_bytes());
                                i.am.request(ProcId(s), i.h_inv, &args).await;
                            }
                            Msg::Wb(o, downgrade) => {
                                i.stats.borrow_mut().writebacks += 1;
                                let mut args = [0u8; 17];
                                args[0..4].copy_from_slice(&idx.to_le_bytes());
                                args[4..8].copy_from_slice(&i.me.to_le_bytes());
                                args[8..16].copy_from_slice(&master.0.to_le_bytes());
                                args[16] = downgrade;
                                i.am.request(ProcId(o), i.h_wb, &args).await;
                            }
                        }
                    }
                    break; // resume from on_ack when all acks arrive
                }
            }
        }
    }

    fn downgrade_self(&self, idx: u32, to: State) {
        let i = &self.inner;
        let rid = RegionId {
            home: ProcId(i.me),
            idx,
        };
        if let Some(entry) = i.local.borrow_mut().get_mut(&rid) {
            entry.state = to;
        }
    }

    async fn dir_grant(&self, idx: u32) {
        let i = &self.inner;
        let (req, master, size) = {
            let mut dir = i.dir.borrow_mut();
            let e = dir.get_mut(&idx).expect("directory entry");
            let req = e.cur.take().expect("grant without request");
            match req.kind {
                ReqKind::Read => {
                    e.copyset.insert(req.requester);
                }
                ReqKind::Write => {
                    e.copyset.clear();
                    e.owner = Some(req.requester);
                }
            }
            (req, e.master, e.size)
        };
        let state = match req.kind {
            ReqKind::Read => State::Shared,
            ReqKind::Write => State::Exclusive,
        };
        if req.requester == i.me {
            let rid = RegionId {
                home: ProcId(i.me),
                idx,
            };
            let mut local = i.local.borrow_mut();
            let entry = local.get_mut(&rid).expect("home maps its regions");
            entry.state = state;
            entry.wake.incr();
        } else {
            let mut args = [0u8; 9];
            args[0..4].copy_from_slice(&idx.to_le_bytes());
            args[4..8].copy_from_slice(&i.me.to_le_bytes());
            args[8] = match state {
                State::Shared => 1,
                State::Exclusive => 2,
                State::Invalid => unreachable!("never grant Invalid"),
            };
            i.am.store(
                ProcId(req.requester),
                master,
                req.buf,
                size,
                i.h_data,
                &args,
            )
            .await;
        }
    }

    /// Handles both invalidation acks and writeback completions at the
    /// home.
    async fn on_ack(&self, m: AmMsg) {
        let idx = u32_at(&m.args, 0);
        let granted = {
            let mut dir = self.inner.dir.borrow_mut();
            let e = dir.get_mut(&idx).expect("directory entry");
            debug_assert!(e.acks > 0, "spurious ack");
            e.acks -= 1;
            e.acks == 0 && e.cur.is_some()
        };
        if granted {
            self.dir_grant(idx).await;
            self.dir_advance(idx).await;
        }
    }

    // ---- remote-side handlers ----------------------------------------------

    async fn on_inv(&self, m: AmMsg) {
        let i = &self.inner;
        let idx = u32_at(&m.args, 0);
        let home = u32_at(&m.args, 4);
        let rid = RegionId {
            home: ProcId(home),
            idx,
        };
        if let Some(entry) = i.local.borrow_mut().get_mut(&rid) {
            entry.state = State::Invalid;
        }
        let args = idx.to_le_bytes();
        i.am.reply(ProcId(home), i.h_inv_ack, &args).await;
    }

    async fn on_wb_req(&self, m: AmMsg) {
        let i = &self.inner;
        let idx = u32_at(&m.args, 0);
        let home = u32_at(&m.args, 4);
        let master = Addr(u64_at(&m.args, 8));
        let downgrade_shared = m.args[16] == 1;
        let rid = RegionId {
            home: ProcId(home),
            idx,
        };
        let (addr, size) = {
            let mut local = i.local.borrow_mut();
            let entry = local.get_mut(&rid).expect("writeback for unmapped region");
            entry.state = if downgrade_shared {
                State::Shared
            } else {
                State::Invalid
            };
            (entry.addr, entry.size)
        };
        // Flush the dirty copy into the home's master, then signal.
        let args = idx.to_le_bytes();
        i.am.store(ProcId(home), addr, master, size, i.h_wb_done, &args)
            .await;
    }

    fn on_data(&self, m: AmMsg) {
        let i = &self.inner;
        let idx = u32_at(&m.args, 0);
        let home = u32_at(&m.args, 4);
        let state = if m.args[8] == 2 {
            State::Exclusive
        } else {
            State::Shared
        };
        let rid = RegionId {
            home: ProcId(home),
            idx,
        };
        let mut local = i.local.borrow_mut();
        let entry = local.get_mut(&rid).expect("data for unmapped region");
        entry.state = state;
        entry.wake.incr();
    }
}

impl std::fmt::Debug for Crl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crl")
            .field("proc", &self.inner.p.rank())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests;
