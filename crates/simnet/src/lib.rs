//! # mproxy-simnet — simulated SMP-cluster hardware
//!
//! The hardware substrate under the paper's evaluation: commodity SMP nodes
//! joined by a switch, each with a network adapter exposing input/output
//! FIFOs and a DMA engine. Mirrors the paper's modelling assumptions:
//!
//! * "aggressive network interfaces that sit on the memory bus";
//! * per-node contention for the adapter's transmit port and the DMA
//!   engine is modelled (FIFO resources);
//! * memory-bus and switch contention are *not* modelled ("for simplicity
//!   and efficiency, the models do not model memory bus and network switch
//!   contention") — the switch is a pure latency pipe;
//! * small transfers use programmed I/O, large transfers use DMA with
//!   dynamic per-page pinning (except custom hardware, which pre-pins).
//!
//! The crate is generic over the message type `M` carried in packets, so
//! the protocol layer above defines its own wire format.
//!
//! # Examples
//!
//! ```
//! use mproxy_des::Simulation;
//! use mproxy_simnet::{LinkParams, Network};
//!
//! let sim = Simulation::new();
//! let ctx = sim.ctx();
//! let net: Network<&'static str> = Network::new(&ctx, 2, LinkParams::new(1.0, 175.0));
//! let tx = net.adapter(0);
//! let rx = net.adapter(1);
//! sim.spawn(async move { tx.send(1, "ping", 32).await; });
//! sim.spawn(async move {
//!     let pkt = rx.recv().await.unwrap();
//!     assert_eq!(pkt.message, "ping");
//! });
//! assert!(sim.run().completed_cleanly());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dma;
mod fault;
mod network;

pub use dma::{DmaEngine, DmaParams};
pub use fault::{CrashWindow, Fate, FaultCounts, FaultPlan, FaultState, StallWindow};
pub use network::{LinkParams, NetPort, Network, NodeId, Packet};

/// Bytes of network header prepended to every packet (opcode, addresses,
/// sizes, sync descriptors).
pub const HEADER_BYTES: u32 = 16;

/// Transfer time in microseconds of `nbytes` at `mbs` MB/s (1 MB/s = 1
/// byte/µs, the convention the paper's bandwidth numbers use).
///
/// # Examples
///
/// ```
/// assert_eq!(mproxy_simnet::wire_us(4096, 25.0), 163.84);
/// ```
#[must_use]
pub fn wire_us(nbytes: u32, mbs: f64) -> f64 {
    assert!(mbs > 0.0, "bandwidth must be positive");
    f64::from(nbytes) / mbs
}
