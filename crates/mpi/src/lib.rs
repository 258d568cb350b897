//! # mproxy-mpi — two-sided message passing over RMA/RQ
//!
//! Section 3 of the paper argues that remote memory access and remote
//! queues "form an efficient and convenient layer for implementing
//! higher-level communication protocols such as Active Messages and MPI".
//! `mproxy-am` is the first; this crate is the second: a miniature MPI-like
//! layer with tagged, matched, ordered two-sided `send`/`recv`, built the
//! way real MPIs sit on RDMA transports:
//!
//! * **eager protocol** for small messages — the payload rides inside the
//!   request active message and is buffered at the receiver until a
//!   matching `recv` is posted;
//! * **rendezvous protocol** for large messages — the sender publishes a
//!   ready-to-send descriptor, the matching receiver pulls the payload
//!   with a zero-copy `GET` straight from the sender's buffer, then
//!   releases the sender.
//!
//! Matching follows MPI rules: `(source, tag)` with wildcards, FIFO order
//! per (source, tag) pair.
//!
//! # Examples
//!
//! ```
//! use mproxy::{Cluster, ClusterSpec, ProcId};
//! use mproxy_am::Am;
//! use mproxy_des::Simulation;
//! use mproxy_mpi::Mpi;
//!
//! let sim = Simulation::new();
//! let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(mproxy_model::MP1, 2, 1)).unwrap();
//! cluster.spawn_spmd(|p| async move {
//!     let am = Am::new(&p);
//!     let mpi = Mpi::new(&p, &am);
//!     let buf = p.alloc(64);
//!     p.ctx().yield_now().await;
//!     if p.rank() == ProcId(0) {
//!         p.write_u64(buf, 424242);
//!         mpi.send(ProcId(1), 7, buf, 8).await;
//!     } else {
//!         let (src, tag, len) = mpi.recv(None, None, buf, 64).await;
//!         assert_eq!((src, tag, len), (ProcId(0), 7, 8));
//!         assert_eq!(p.read_u64(buf), 424242);
//!     }
//! });
//! assert!(cluster.run(&sim).completed_cleanly());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use mproxy::{Addr, Proc, ProcId};
use mproxy_am::{Am, HandlerId};
use mproxy_des::Counter;

/// Messages at or below this payload size use the eager protocol.
pub const EAGER_MAX: u32 = 192;

enum Payload {
    /// Eager: the data arrived with the envelope.
    Eager(Bytes),
    /// Rendezvous: the data still sits in the sender's buffer.
    Rts { addr: Addr, len: u32, seq: u64 },
}

struct Envelope {
    src: ProcId,
    tag: u32,
    payload: Payload,
}

struct MpiState {
    /// Arrived-but-unmatched messages, in arrival order (which preserves
    /// per-(source, tag) FIFO ordering thanks to in-order delivery).
    unexpected: RefCell<VecDeque<Envelope>>,
    /// Completed rendezvous sends, by sequence number.
    released: Counter,
    next_seq: Cell<u64>,
    h_eager: Cell<HandlerId>,
    h_rts: Cell<HandlerId>,
    h_done: Cell<HandlerId>,
    sends: Cell<u64>,
    recvs: Cell<u64>,
}

/// A per-process message-passing endpoint.
///
/// Cheap to clone; clones share the endpoint state.
#[derive(Clone)]
pub struct Mpi {
    p: Proc,
    am: Am,
    st: Rc<MpiState>,
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("u32"))
}
fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("u64"))
}

impl Mpi {
    /// Creates the endpoint and registers its three protocol handlers on
    /// `am` (all SPMD ranks must construct in the same order).
    #[must_use]
    pub fn new(p: &Proc, am: &Am) -> Mpi {
        let st = Rc::new(MpiState {
            unexpected: RefCell::new(VecDeque::new()),
            released: Counter::new(),
            next_seq: Cell::new(0),
            h_eager: Cell::new(HandlerId(0)),
            h_rts: Cell::new(HandlerId(0)),
            h_done: Cell::new(HandlerId(0)),
            sends: Cell::new(0),
            recvs: Cell::new(0),
        });
        // Eager data: args = [tag u32][payload...].
        let s1 = Rc::clone(&st);
        let h_eager = am.register(move |_, msg| {
            let s = Rc::clone(&s1);
            Box::pin(async move {
                let tag = u32_at(&msg.args, 0);
                s.unexpected.borrow_mut().push_back(Envelope {
                    src: msg.src,
                    tag,
                    payload: Payload::Eager(msg.args.slice(4..)),
                });
            })
        });
        // Ready-to-send: args = [tag u32][len u32][addr u64][seq u64].
        let s2 = Rc::clone(&st);
        let h_rts = am.register(move |_, msg| {
            let s = Rc::clone(&s2);
            Box::pin(async move {
                let tag = u32_at(&msg.args, 0);
                let len = u32_at(&msg.args, 4);
                let addr = Addr(u64_at(&msg.args, 8));
                let seq = u64_at(&msg.args, 16);
                s.unexpected.borrow_mut().push_back(Envelope {
                    src: msg.src,
                    tag,
                    payload: Payload::Rts { addr, len, seq },
                });
            })
        });
        // Rendezvous completion: args = [seq u64]; wakes the sender. The
        // sequence check relies on FIFO release order per peer — simple
        // and sufficient because a sender blocks per message.
        let s3 = Rc::clone(&st);
        let h_done = am.register(move |_, msg| {
            let s = Rc::clone(&s3);
            Box::pin(async move {
                let _seq = u64_at(&msg.args, 0);
                s.released.incr();
            })
        });
        st.h_eager.set(h_eager);
        st.h_rts.set(h_rts);
        st.h_done.set(h_done);
        Mpi {
            p: p.clone(),
            am: am.clone(),
            st,
        }
    }

    /// Messages sent / received so far.
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        (self.st.sends.get(), self.st.recvs.get())
    }

    /// Blocking tagged send of `nbytes` at `laddr` to `dst`.
    ///
    /// Small messages return once buffered at the receiver (eager); large
    /// ones return when the receiver has pulled the data (rendezvous), so
    /// `laddr` may be reused immediately after the call in both cases.
    pub async fn send(&self, dst: ProcId, tag: u32, laddr: Addr, nbytes: u32) {
        self.st.sends.set(self.st.sends.get() + 1);
        if nbytes <= EAGER_MAX {
            let mut args = Vec::with_capacity(4 + nbytes as usize);
            args.extend_from_slice(&tag.to_le_bytes());
            args.extend_from_slice(&self.p.read_bytes(laddr, nbytes));
            self.am.request(dst, self.st.h_eager.get(), &args).await;
            return;
        }
        let seq = self.st.next_seq.get();
        self.st.next_seq.set(seq + 1);
        let mut args = [0u8; 24];
        args[0..4].copy_from_slice(&tag.to_le_bytes());
        args[4..8].copy_from_slice(&nbytes.to_le_bytes());
        args[8..16].copy_from_slice(&laddr.0.to_le_bytes());
        args[16..24].copy_from_slice(&seq.to_le_bytes());
        self.am.request(dst, self.st.h_rts.get(), &args).await;
        // Keep servicing requests while the receiver pulls our buffer.
        let released = self.st.released.clone();
        let target = seq + 1;
        self.am.poll_while(|| released.get() >= target).await;
    }

    /// Blocking tagged receive into `laddr` (at most `max_bytes`).
    /// `src = None` and `tag = None` are wildcards. Returns the matched
    /// source, tag, and length.
    ///
    /// # Panics
    ///
    /// Panics if the matched message exceeds `max_bytes` (truncation is an
    /// application error in this miniature MPI).
    pub async fn recv(
        &self,
        src: Option<ProcId>,
        tag: Option<u32>,
        laddr: Addr,
        max_bytes: u32,
    ) -> (ProcId, u32, u32) {
        loop {
            let matched = {
                let mut q = self.st.unexpected.borrow_mut();
                let pos = q
                    .iter()
                    .position(|e| src.is_none_or(|s| s == e.src) && tag.is_none_or(|t| t == e.tag));
                pos.and_then(|i| q.remove(i))
            };
            if let Some(env) = matched {
                self.st.recvs.set(self.st.recvs.get() + 1);
                match env.payload {
                    Payload::Eager(data) => {
                        assert!(
                            data.len() as u32 <= max_bytes,
                            "message of {} bytes exceeds recv buffer of {max_bytes}",
                            data.len()
                        );
                        self.p.write_bytes(laddr, &data);
                        return (env.src, env.tag, data.len() as u32);
                    }
                    Payload::Rts { addr, len, seq } => {
                        assert!(
                            len <= max_bytes,
                            "message of {len} bytes exceeds recv buffer of {max_bytes}"
                        );
                        // Zero-copy pull straight from the sender's buffer,
                        // then release the sender.
                        self.am.get_bulk(env.src, laddr, addr, len).await;
                        self.am
                            .request(env.src, self.st.h_done.get(), &seq.to_le_bytes())
                            .await;
                        return (env.src, env.tag, len);
                    }
                }
            }
            self.am.poll().await;
        }
    }
}

impl std::fmt::Debug for Mpi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (s, r) = self.counts();
        f.debug_struct("Mpi")
            .field("proc", &self.p.rank())
            .field("sent", &s)
            .field("received", &r)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mproxy::{Cluster, ClusterSpec};
    use mproxy_des::Simulation;
    use mproxy_model::{ALL_DESIGN_POINTS, MP1};
    use std::future::Future;

    fn run_mpi<F, Fut>(design: mproxy_model::DesignPoint, n: usize, body: F)
    where
        F: Fn(Proc, Mpi) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let sim = Simulation::new();
        let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(design, n, 1)).unwrap();
        cluster.spawn_spmd(move |p| {
            let am = Am::new(&p);
            let mpi = Mpi::new(&p, &am);
            body(p, mpi)
        });
        let report = cluster.run(&sim);
        assert!(report.completed_cleanly(), "mpi test deadlocked");
    }

    #[test]
    fn eager_pingpong_on_every_architecture() {
        for d in ALL_DESIGN_POINTS {
            run_mpi(d, 2, |p, mpi| async move {
                let buf = p.alloc(64);
                p.ctx().yield_now().await;
                if p.rank().0 == 0 {
                    p.write_u64(buf, 5);
                    mpi.send(ProcId(1), 1, buf, 8).await;
                    let (src, tag, len) = mpi.recv(None, None, buf, 64).await;
                    assert_eq!((src, tag, len), (ProcId(1), 2, 8));
                    assert_eq!(p.read_u64(buf), 6);
                } else {
                    let _ = mpi.recv(Some(ProcId(0)), Some(1), buf, 64).await;
                    p.write_u64(buf, p.read_u64(buf) + 1);
                    mpi.send(ProcId(0), 2, buf, 8).await;
                }
            });
        }
    }

    #[test]
    fn rendezvous_moves_large_payloads() {
        run_mpi(MP1, 2, |p, mpi| async move {
            let n = 8192u32;
            let buf = p.alloc(u64::from(n));
            p.ctx().yield_now().await;
            if p.rank().0 == 0 {
                for i in 0..(n / 8) as u64 {
                    p.write_u64(buf.index(i, 8), i * 3 + 1);
                }
                mpi.send(ProcId(1), 9, buf, n).await;
                // Buffer reusable immediately after a rendezvous send.
                p.write_u64(buf, 0);
            } else {
                let (src, tag, len) = mpi.recv(None, None, buf, n).await;
                assert_eq!((src, tag, len), (ProcId(0), 9, n));
                for i in 0..(n / 8) as u64 {
                    assert_eq!(p.read_u64(buf.index(i, 8)), i * 3 + 1);
                }
            }
        });
    }

    #[test]
    fn tag_and_source_matching_with_wildcards() {
        run_mpi(MP1, 3, |p, mpi| async move {
            let buf = p.alloc(64);
            p.ctx().yield_now().await;
            match p.rank().0 {
                1 | 2 => {
                    p.write_u64(buf, 100 + u64::from(p.rank().0));
                    mpi.send(ProcId(0), p.rank().0, buf, 8).await;
                }
                _ => {
                    // Receive tag 2 first even though tag 1 may arrive
                    // earlier; then wildcard for the rest.
                    let (src, tag, _) = mpi.recv(None, Some(2), buf, 64).await;
                    assert_eq!((src, tag), (ProcId(2), 2));
                    assert_eq!(p.read_u64(buf), 102);
                    let (src, tag, _) = mpi.recv(None, None, buf, 64).await;
                    assert_eq!((src, tag), (ProcId(1), 1));
                    assert_eq!(p.read_u64(buf), 101);
                }
            }
        });
    }

    #[test]
    fn per_source_ordering_is_fifo() {
        run_mpi(MP1, 2, |p, mpi| async move {
            let buf = p.alloc(64);
            p.ctx().yield_now().await;
            if p.rank().0 == 0 {
                for i in 0..10u64 {
                    p.write_u64(buf, i);
                    mpi.send(ProcId(1), 5, buf, 8).await;
                }
            } else {
                for i in 0..10u64 {
                    let _ = mpi.recv(Some(ProcId(0)), Some(5), buf, 64).await;
                    assert_eq!(p.read_u64(buf), i, "messages reordered");
                }
            }
        });
    }

    #[test]
    fn mixed_eager_and_rendezvous_interleave() {
        run_mpi(MP1, 2, |p, mpi| async move {
            let small = p.alloc(64);
            let big = p.alloc(4096);
            p.ctx().yield_now().await;
            if p.rank().0 == 0 {
                p.write_u64(small, 7);
                p.write_u64(big, 8);
                mpi.send(ProcId(1), 1, small, 8).await;
                // Rendezvous send blocks until the receiver pulls, so the
                // receiver must match tag 2 before it can see tag 3 (the
                // reverse order would be an unsafe MPI program).
                mpi.send(ProcId(1), 2, big, 4096).await;
                mpi.send(ProcId(1), 3, small, 8).await;
            } else {
                // Receive out of order among *arrived* messages: tag 2
                // (releasing the sender), then 3, then 1.
                let _ = mpi.recv(None, Some(2), big, 4096).await;
                assert_eq!(p.read_u64(big), 8);
                let _ = mpi.recv(None, Some(3), small, 64).await;
                let _ = mpi.recv(None, Some(1), small, 64).await;
                assert_eq!(p.read_u64(small), 7);
                assert_eq!(mpi.counts().1, 3);
            }
        });
    }

    #[test]
    #[should_panic(expected = "exceeds recv buffer")]
    fn oversized_message_panics_at_receiver() {
        run_mpi(MP1, 2, |p, mpi| async move {
            let buf = p.alloc(64);
            p.ctx().yield_now().await;
            if p.rank().0 == 0 {
                mpi.send(ProcId(1), 1, buf, 64).await;
            } else {
                let _ = mpi.recv(None, None, buf, 8).await;
            }
        });
    }
}
