//! # mproxy-des — deterministic discrete-event simulation engine
//!
//! The simulation substrate for the HPCA'97 *message proxies* reproduction.
//! The paper builds its comparative evaluation on CSIM, a process-oriented
//! discrete-event library; this crate is the equivalent in safe Rust:
//!
//! * [`Simulation`] — an event calendar plus a **simulated-time async
//!   executor**: every simulated agent (user process, message proxy,
//!   network adapter, DMA engine, switch) is an ordinary Rust future.
//! * [`SimCtx::delay`] — advance a process through simulated time.
//! * [`Channel`], [`Counter`] — deterministic FIFO queues and threshold
//!   counters connecting processes.
//! * [`Resource`] — capacity-limited servers with FIFO queueing and
//!   utilisation statistics (node-internal contention, Table 6); a
//!   [`Watch`] lets a process spinning on one cost events only when what
//!   it polls is written.
//! * [`Tally`] — a statistics accumulator.
//!
//! Runs are strictly deterministic: events fire in `(time, sequence)`
//! order, ready tasks poll FIFO, and no wall-clock or OS randomness is
//! consulted anywhere.
//!
//! # Examples
//!
//! An M/D/1-ish station: jobs arrive every 4 µs and need 3 µs of service.
//!
//! ```
//! use mproxy_des::{Dur, Resource, Simulation};
//!
//! let sim = Simulation::new();
//! let ctx = sim.ctx();
//! let server = Resource::new(&ctx, 1);
//! for i in 0..10 {
//!     let ctx = ctx.clone();
//!     let server = server.clone();
//!     sim.spawn(async move {
//!         ctx.delay(Dur::from_us(4.0 * i as f64)).await; // arrival
//!         server.hold(Dur::from_us(3.0)).await;          // service
//!     });
//! }
//! let report = sim.run();
//! assert!(report.completed_cleanly());
//! assert_eq!(report.end.as_us(), 39.0);
//! assert_eq!(server.busy_us(sim.now()), 30.0); // busy 30 of the 39 µs
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod resource;
mod stats;
mod sync;
mod time;

pub use executor::{
    Delay, RunReport, SimCtx, Simulation, TaskId, Timer, TimerHandle, TimerOutcome, Watch, YieldNow,
};
pub use resource::{Acquire, Hold, Resource, ResourceGuard, SpinUntil};
pub use stats::Tally;
pub use sync::{Channel, Counter, CounterWait, Recv, Send, TrySendError};
pub use time::{Dur, SimTime};
