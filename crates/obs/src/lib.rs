//! `mproxy-obs` — always-on telemetry for the threaded runtime.
//!
//! The paper's argument (§5.4) is quantitative: proxy occupancy must
//! stay under the 50% stability bound or the fabric collapses. This
//! crate makes that observable as a first-class layer of the threaded
//! runtime (`mproxy-rt`):
//!
//! * [`Ctr`] / [`CounterSet`] — static metric ids backed by
//!   cache-padded relaxed atomics, snapshot-able without stopping the
//!   world. Counters are *always on*.
//! * [`HistId`] / [`AtomicHistogram`] — HDR-style log-linear
//!   histograms (fixed 1920 buckets, ≤3.1% relative error),
//!   merge-able by bucket addition across proxy snapshots.
//! * [`FlightRecorder`] — a per-proxy lock-free ring of compact 16-byte
//!   [`TraceEvent`]s (enqueue/drain/retransmit/kill/respawn/...),
//!   zero-cost when disabled, dumpable on panic or on demand.
//! * [`Snapshot`] — the JSON export unit the benchmark and the fault
//!   tests read, and [`chrome::chrome_trace`] — a Chrome
//!   `trace_event` (Perfetto) exporter rendering kills, the pauses they
//!   cause and RTO storms on a timeline.
//!
//! The runtime registers one [`Scope`] per node on an [`ObsHub`]. The
//! discrete-event simulator (`mproxy` / `mproxy-des`) exports nothing
//! here: it keeps its own accounting (`RunReport`, `FaultReport`,
//! `TrafficReport`), and gets an export under these ids when something
//! reads one. The overhead budget (≤5% with recording enabled, ~0%
//! disabled) is held by decimation in the runtime — one stamped
//! submission in 32, bounded from above by
//! `tests/tests/obs.rs::counters_match_ground_truth_on_clean_fan_in` —
//! and the per-call costs are the `obs.*_ns` probes of `perfbench/`.

#![forbid(unsafe_code)]

pub mod chrome;
mod counters;
mod hist;
pub mod json;
mod ring;
mod snapshot;

pub use counters::{CounterSet, Ctr};
pub use hist::{AtomicHistogram, HistId, Histogram, BUCKETS};
pub use ring::{EventKind, FlightRecorder, TraceEvent};
pub use snapshot::{ObsHub, Scope, ScopeSnapshot, Snapshot, DEFAULT_RING_CAP};
