//! # mproxy-model — the analytic performance model of HPCA'97 message proxies
//!
//! This crate is the paper's pencil-and-paper machinery, independent of any
//! simulator:
//!
//! * [`MachineParams`] — the Table 1 primitives (cache miss `C`, uncached
//!   access `U`, `vm_att` `V`, polling delay `P`, speed `S`, network `L`)
//!   with the measured IBM G30 values.
//! * [`Cost`] — symbolic linear combinations of the primitives.
//! * [`get_trace`] / [`put_trace`] — the Table 2 critical-path traces; their
//!   sums *are* the §4.1 equations [`get_latency`] and
//!   [`put_oneway_latency`] (`GET = 10C + 6U + 3V + 3.6/S + 3P + 2L`,
//!   `PUT = 7C + 4U + 2V + 2.2/S + 2P + L`).
//! * [`DesignPoint`] — the six Table 3 configurations (HW0, HW1, MP0, MP1,
//!   MP2, SW1) with analytic Table 4 predictions and the paper's measured
//!   values as calibration targets.
//! * [`contention`] — the §5.4 queueing analysis (50% stability rule,
//!   processors-per-proxy, the `P/(P−1)` compute-or-communicate rule).
//!
//! Beside the model sit the two pure cores both engines (the simulator
//! and the threaded runtime) are built on, so each is written once:
//! [`fate`] (seeded fault decisions) and [`link`] (sequencing, retention
//! and the reorder buffer of the reliable link layers).
//!
//! # Examples
//!
//! Predict message-proxy GET latency on a hypothetical 4×-speed SMP with
//! 0.8 µs cache misses:
//!
//! ```
//! use mproxy_model::{get_latency, MachineParams};
//!
//! let machine = MachineParams::G30.with_speed(4.0).with_cache_miss(0.8);
//! let us = get_latency().eval_uniform(&machine);
//! assert!(us < 25.0 && us > 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contention;
mod cost;
mod design;
pub mod fate;
mod latency;
pub mod link;
mod params;
mod trace;

pub use cost::Cost;
pub use design::{
    paper_table4, Arch, DesignPoint, Table4Row, ALL_DESIGN_POINTS, HW0, HW1, MP0, MP1, MP2,
    PAPER_TABLE4, SW1,
};
pub use latency::{
    get_latency, protection_cost_get, protection_cost_put, put_oneway_latency,
    put_roundtrip_latency, rma_overhead,
};
pub use params::MachineParams;
pub use trace::{format_trace, get_trace, put_trace, Agent, TraceStep};
