//! The Active Message endpoint.
//!
//! Requests and replies are ENQ operations into the peer's request queue;
//! handlers run on the *compute* processor when the application polls —
//! "message handlers are naturally atomic since there are no
//! interrupt-driven handlers that may execute at arbitrary instances"
//! (Section 4). Bulk store is a PUT followed by an ENQ whose handler fires
//! after the data has landed (ordering is preserved per source→destination
//! path); bulk get is a GET polled to completion.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use bytes::Bytes;
use mproxy::{Addr, Proc, ProcId, RemoteQueue, RqId};
use mproxy_model::Arch;

/// Per-message AM-library costs on the compute processor, beyond the raw
/// ENQ/DEQ primitives: request/reply matching, credit management and
/// handler scheduling on send; queue scan and handler upcall on receive.
/// Under system-call communication the receive path costs an extra pair of
/// kernel crossings (the user cannot touch the kernel's queue directly).
/// Values are calibrated against Table 4's AM-latency row; see
/// EXPERIMENTS.md.
fn am_layer_costs(arch: Arch) -> (f64, f64) {
    match arch {
        Arch::MessageProxy => (4.2, 5.6),
        Arch::CustomHardware => (2.8, 3.9),
        Arch::SystemCall => (11.5, 17.2),
    }
}

/// Identifies a registered handler. Registration order is deterministic,
/// so SPMD processes registering the same handlers in the same order can
/// name each other's handlers by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandlerId(pub u16);

const NO_REPLY: u16 = u16::MAX;

/// A received active message.
#[derive(Debug, Clone)]
pub struct AmMsg {
    /// The requesting process.
    pub src: ProcId,
    /// Handler the sender asked to be invoked on the reply, if any.
    pub reply_to: Option<HandlerId>,
    /// Argument bytes.
    pub args: Bytes,
}

type HandlerFut = Pin<Box<dyn Future<Output = ()>>>;
type HandlerFn = Box<dyn Fn(Am, AmMsg) -> HandlerFut>;

/// Slots in the outgoing staging ring (bounds concurrent in-flight
/// requests whose payload has not yet been read by the proxy).
const STAGING_SLOTS: u64 = 64;
/// Maximum argument bytes per active message.
pub(crate) const MAX_ARGS: u64 = 240;
const HDR: u64 = 8;

struct AmState {
    rq: RqId,
    handlers: RefCell<Vec<HandlerFn>>,
    staging: Addr,
    next_slot: Cell<u64>,
    handled: Cell<u64>,
    sent: Cell<u64>,
}

/// A per-process Active Message endpoint.
///
/// Cheap to clone; clones share the endpoint. See the crate docs for an
/// example.
#[derive(Clone)]
pub struct Am {
    p: Proc,
    st: Rc<AmState>,
}

impl Am {
    /// Creates the endpoint: allocates the request queue and staging ring
    /// (deterministic allocation order across SPMD ranks).
    #[must_use]
    pub fn new(p: &Proc) -> Am {
        let rq = p.new_queue();
        let staging = p.alloc(STAGING_SLOTS * (HDR + MAX_ARGS));
        Am {
            p: p.clone(),
            st: Rc::new(AmState {
                rq,
                handlers: RefCell::new(Vec::new()),
                staging,
                next_slot: Cell::new(0),
                handled: Cell::new(0),
                sent: Cell::new(0),
            }),
        }
    }

    /// Registers a handler; ids are assigned in registration order.
    pub fn register(&self, f: impl Fn(Am, AmMsg) -> HandlerFut + 'static) -> HandlerId {
        let mut hs = self.st.handlers.borrow_mut();
        let id = HandlerId(u16::try_from(hs.len()).expect("too many handlers"));
        hs.push(Box::new(f));
        id
    }

    /// Messages handled so far by this endpoint.
    #[must_use]
    fn handled(&self) -> u64 {
        self.st.handled.get()
    }

    /// `am_request`: invoke `handler` at `dst` with `args`.
    ///
    /// # Panics
    ///
    /// Panics if `args` exceeds the per-message maximum (240 bytes) or the
    /// destination is invalid.
    pub async fn request(&self, dst: ProcId, handler: HandlerId, args: &[u8]) {
        self.send(dst, handler, None, args).await;
    }

    /// `am_request` that also names the handler the callee should invoke
    /// on its reply.
    pub async fn request_with_reply(
        &self,
        dst: ProcId,
        handler: HandlerId,
        reply_handler: HandlerId,
        args: &[u8],
    ) {
        self.send(dst, handler, Some(reply_handler), args).await;
    }

    /// `am_reply`: invoke `handler` at the requester with `args`.
    pub async fn reply(&self, dst: ProcId, handler: HandlerId, args: &[u8]) {
        self.send(dst, handler, None, args).await;
    }

    async fn send(
        &self,
        dst: ProcId,
        handler: HandlerId,
        reply_to: Option<HandlerId>,
        args: &[u8],
    ) {
        assert!(
            args.len() as u64 <= MAX_ARGS,
            "active-message args exceed {MAX_ARGS} bytes"
        );
        let slot = self.st.next_slot.get();
        self.st.next_slot.set((slot + 1) % STAGING_SLOTS);
        let base = self.st.staging.offset(slot * (HDR + MAX_ARGS));
        let mut buf = Vec::with_capacity(HDR as usize + args.len());
        buf.extend_from_slice(&handler.0.to_le_bytes());
        buf.extend_from_slice(&reply_to.map_or(NO_REPLY, |h| h.0).to_le_bytes());
        buf.extend_from_slice(&self.p.rank().0.to_le_bytes());
        buf.extend_from_slice(args);
        self.p.write_bytes(base, &buf);
        self.st.sent.set(self.st.sent.get() + 1);
        let (send_us, _) = am_layer_costs(self.p.design().arch);
        self.p.compute_us(send_us).await;
        self.p
            .enq(
                base,
                RemoteQueue {
                    proc: dst,
                    rq: self.st.rq,
                },
                buf.len() as u32,
                None,
                None,
            )
            .await
            .expect("am send failed");
    }

    /// Polls the request queue once; if a message is present, dispatches
    /// its handler (charging the dispatch cost on this processor).
    /// Returns true if a message was handled.
    pub async fn poll(&self) -> bool {
        let Some(raw) = self.p.rq_poll(self.st.rq).await else {
            return false;
        };
        self.dispatch(raw).await;
        true
    }

    /// Polls until this endpoint has handled at least `target` messages in
    /// total.
    pub async fn poll_until_messages(&self, target: u64) {
        self.poll_while(|| self.st.handled.get() >= target).await;
    }

    /// Polls while `done` stays false — the generic "wait for something,
    /// keep servicing requests" loop every higher layer uses to stay
    /// deadlock-free. Each turn is one [`Am::poll`], but a run of empty
    /// polls costs no simulator event (see `Proc::poll_rq_until`), so
    /// `done` may read only state this endpoint's own handlers write, or
    /// this process's flags, memory and queues.
    pub async fn poll_while(&self, done: impl Fn() -> bool) {
        while let Some(raw) = self.p.poll_rq_until(self.st.rq, &done).await {
            self.dispatch(raw).await;
        }
    }

    async fn dispatch(&self, raw: Bytes) {
        assert!(raw.len() >= HDR as usize, "malformed active message");
        let handler = u16::from_le_bytes([raw[0], raw[1]]);
        let reply = u16::from_le_bytes([raw[2], raw[3]]);
        let src = ProcId(u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]));
        let msg = AmMsg {
            src,
            reply_to: (reply != NO_REPLY).then_some(HandlerId(reply)),
            args: raw.slice(HDR as usize..),
        };
        // Queue scan, handler-table lookup, argument marshalling (and the
        // kernel upcall under system-call communication).
        let (_, recv_us) = am_layer_costs(self.p.design().arch);
        self.p.compute_us(recv_us).await;
        let fut = {
            let hs = self.st.handlers.borrow();
            let f = hs
                .get(handler as usize)
                .unwrap_or_else(|| panic!("no handler {handler} registered"));
            f(self.clone(), msg)
        };
        fut.await;
        self.st.handled.set(self.st.handled.get() + 1);
    }

    /// `am_store`: PUT `nbytes` from `laddr` into `raddr` at `dst`, then
    /// invoke `handler` there with `args` once the data has landed
    /// (delivery order is preserved along one source→destination path).
    pub async fn store(
        &self,
        dst: ProcId,
        laddr: Addr,
        raddr: Addr,
        nbytes: u32,
        handler: HandlerId,
        args: &[u8],
    ) {
        self.p
            .put(laddr, dst.into(), raddr, nbytes, None, None)
            .await
            .expect("am_store put failed");
        self.send(dst, handler, None, args).await;
    }

    /// `am_get`: GET `nbytes` from `raddr` at `dst` into `laddr`, polling
    /// (and servicing incoming requests) until the data has landed.
    pub async fn get_bulk(&self, dst: ProcId, laddr: Addr, raddr: Addr, nbytes: u32) {
        let flag = self.p.new_flag();
        self.p
            .get(laddr, dst.into(), raddr, nbytes, Some(&flag), None)
            .await
            .expect("am_get failed");
        let counter = flag.clone();
        self.poll_while(|| counter.count() >= 1).await;
    }
}

impl std::fmt::Debug for Am {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Am")
            .field("proc", &self.p.rank())
            .field("handled", &self.handled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mproxy::{Cluster, ClusterSpec};
    use mproxy_des::Simulation;
    use mproxy_model::MP1;
    use std::cell::RefCell;

    fn run_pair(body: impl Fn(Am) -> HandlerFut + 'static) {
        let sim = Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
        let body = Rc::new(body);
        cluster.spawn_spmd(move |p| {
            let body = Rc::clone(&body);
            async move {
                let am = Am::new(&p);
                p.ctx().yield_now().await;
                if p.rank().0 == 0 {
                    body(am).await;
                }
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
    }

    #[test]
    fn self_request_is_delivered_through_own_queue() {
        run_pair(|am| {
            Box::pin(async move {
                let count = Rc::new(std::cell::Cell::new(0u32));
                let probe = Rc::clone(&count);
                let h = am.register(move |_, msg| {
                    let probe = Rc::clone(&probe);
                    Box::pin(async move {
                        assert_eq!(&msg.args[..], b"self");
                        probe.set(probe.get() + 1);
                    })
                });
                let me = am.p.rank();
                am.request(me, h, b"self").await;
                am.poll_until_messages(1).await;
                assert_eq!(count.get(), 1);
            })
        });
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversized_args_panic() {
        run_pair(|am| {
            Box::pin(async move {
                let h = am.register(|_, _| Box::pin(async {}));
                let big = vec![0u8; 500];
                let me = am.p.rank();
                am.request(me, h, &big).await;
            })
        });
    }

    #[test]
    fn sent_and_handled_counters_advance() {
        let sim = Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
        let counts = Rc::new(RefCell::new((0u64, 0u64)));
        let probe = Rc::clone(&counts);
        cluster.spawn_spmd(move |p| {
            let probe = Rc::clone(&probe);
            async move {
                let am = Am::new(&p);
                let h = am.register(|_, _| Box::pin(async {}));
                p.ctx().yield_now().await;
                if p.rank().0 == 0 {
                    for _ in 0..5 {
                        am.request(ProcId(1), h, &[1, 2, 3]).await;
                    }
                    *probe.borrow_mut() = (am.st.sent.get(), am.handled());
                } else {
                    am.poll_until_messages(5).await;
                    assert_eq!(am.handled(), 5);
                }
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
        assert_eq!(counts.borrow().0, 5);
    }

    #[test]
    fn store_orders_data_before_handler() {
        // am_store's handler must observe the PUT data already in place.
        let sim = Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
        cluster.spawn_spmd(move |p| async move {
            let am = Am::new(&p);
            let buf = p.alloc(256);
            let me = p.clone();
            let h = am.register(move |_, _| {
                let me = me.clone();
                let buf = buf;
                Box::pin(async move {
                    // Data landed before the notification fired.
                    assert_eq!(me.read_u64(buf), 0x1122_3344);
                })
            });
            p.ctx().yield_now().await;
            if p.rank().0 == 0 {
                p.write_u64(buf.offset(128), 0x1122_3344);
                am.store(ProcId(1), buf.offset(128), buf, 8, h, &[]).await;
            } else {
                am.poll_until_messages(1).await;
            }
        });
        assert!(cluster.run(&sim).completed_cleanly());
    }
}
