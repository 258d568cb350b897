//! # mproxy — message proxies for efficient, protected communication on SMP clusters
//!
//! A reproduction of Lim, Heidelberger, Pattnaik & Snir (HPCA 1997). The
//! *message proxy* is a trusted communication process pinned to one
//! processor of an SMP node; it polls per-user shared-memory command
//! queues and the network input FIFO, giving mutually-untrusting user
//! processes atomic, protected, lock-free, interrupt-free access to a
//! shared network interface using only commodity parts.
//!
//! This crate provides:
//!
//! * the Section 3 communication model — [`Proc::put`], [`Proc::get`],
//!   [`Proc::enq`], [`Proc::deq`] with `asid` protection and lsync/rsync
//!   completion flags;
//! * the three protected-communication architectures of Section 2 —
//!   message proxy, custom hardware, system call — as one protocol
//!   implementation priced from a per-design-point step-cost table and
//!   run by the driver that architecture calls for, selected by the
//!   [`mproxy_model::DesignPoint`] in the [`ClusterSpec`];
//! * a cluster fabric ([`Cluster`]) running on the `mproxy-des`
//!   simulated-time executor over `mproxy-simnet` hardware;
//! * micro-benchmarks ([`micro`]) reproducing Table 4 and Figure 7.
//!
//! # Examples
//!
//! Two SMP nodes, one compute processor each, message-proxy protection:
//!
//! ```
//! use mproxy::{Asid, Cluster, ClusterSpec, ProcId};
//! use mproxy_des::Simulation;
//! use mproxy_model::MP1;
//!
//! let sim = Simulation::new();
//! let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
//! cluster.spawn_spmd(|p| async move {
//!     let buf = p.alloc(8);
//!     let flag = p.new_flag();
//!     // Let every rank allocate before anyone communicates.
//!     p.ctx().yield_now().await;
//!     if p.rank() == ProcId(0) {
//!         p.write_u64(buf, 7);
//!         // PUT our word into rank 1's space and wait for the ack.
//!         p.put(buf, Asid(1), buf, 8, Some(&flag), None).await.unwrap();
//!         p.wait_flag(&flag, 1).await;
//!     }
//! });
//! let report = cluster.run(&sim);
//! assert!(report.completed_cleanly());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cluster;
mod engine;
mod error;
mod fxhash;
mod flags;
mod mem;
pub mod micro;
mod process;
mod retry;

pub use addr::{Addr, Asid, FlagId, ProcId, RemoteFlag, RemoteQueue, RqId};
pub use cluster::{Cluster, ClusterSpec, FaultReport, ProcStats, TrafficReport};
pub use engine::reliable::{LinkSnapshot, LinkStats};
pub use error::CommError;
pub use flags::SyncFlag;
pub use mem::{Memory, CACHE_LINE_BYTES};
pub use process::Proc;
pub use retry::RetryPolicy;

// Convenience re-exports so fault-injection users need only this crate.
pub use mproxy_simnet::{CrashWindow, FaultCounts, FaultPlan, StallWindow};
