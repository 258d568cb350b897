//! # mproxy-crl — all-software region-based distributed shared memory
//!
//! A reimplementation of the CRL programming model the paper uses for LU,
//! Barnes-Hut and Water (Johnson, Kaashoek & Wallach, SOSP'95): an
//! "all-software shared-memory programming system that relies on explicit
//! library calls to trigger coherency management operations", providing
//! "a global address space for shared data \[and\] coherent caching of
//! data".
//!
//! Shared data lives in *regions*. Each region has a *home* process whose
//! directory runs an MSI protocol over Active Messages:
//!
//! * [`Crl::start_read`] — acquire a coherent shared copy (cache hit if
//!   the local copy is still valid).
//! * [`Crl::start_write`] — acquire exclusive ownership (invalidating
//!   other copies via the home directory).
//! * [`Crl::end_read`] / [`Crl::end_write`] — release; data stays cached
//!   until the protocol invalidates it.
//!
//! The directory is event-driven (handlers never block), so a home node
//! services coherence traffic even while one of its own requests is
//! outstanding — processes poll their AM endpoint whenever they wait.
//!
//! # Examples
//!
//! A shared counter region, home at rank 0, incremented by everyone:
//!
//! ```
//! use mproxy::{Cluster, ClusterSpec, ProcId};
//! use mproxy_am::{Am, Coll};
//! use mproxy_crl::{Crl, RegionId};
//! use mproxy_des::Simulation;
//! use mproxy_model::MP1;
//!
//! let sim = Simulation::new();
//! let cluster = Cluster::new(&sim.ctx(), ClusterSpec::new(MP1, 2, 1)).unwrap();
//! cluster.spawn_spmd(|p| async move {
//!     let am = Am::new(&p);
//!     let crl = Crl::new(&p, &am);
//!     let coll = Coll::new(&p, Some(am));
//!     let rid = RegionId { home: ProcId(0), idx: 0 };
//!     if p.rank() == rid.home {
//!         crl.create(8);
//!     }
//!     let rgn = crl.map(rid, 8);
//!     // Let every rank finish setup before communicating.
//!     p.ctx().yield_now().await;
//!     coll.barrier().await;
//!     for turn in 0..p.nprocs() as u32 {
//!         if turn == p.rank().0 {
//!             crl.start_write(&rgn).await;
//!             let v = p.read_u64(rgn.addr());
//!             p.write_u64(rgn.addr(), v + 1);
//!             crl.end_write(&rgn).await;
//!         }
//!         coll.barrier().await;
//!     }
//!     crl.start_read(&rgn).await;
//!     assert_eq!(p.read_u64(rgn.addr()), 2);
//!     crl.end_read(&rgn).await;
//!     coll.barrier().await;
//! });
//! assert!(cluster.run(&sim).completed_cleanly());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod protocol;

pub use protocol::{Crl, Region, RegionId};
