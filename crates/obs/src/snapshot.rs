//! The registry ([`ObsHub`]), per-proxy handles ([`Scope`]), and the
//! stop-the-world-free snapshot model ([`Snapshot`]) with its JSON
//! serializer.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::counters::{CounterSet, Ctr};
use crate::hist::{AtomicHistogram, HistId, Histogram};
use crate::json;
use crate::ring::{EventKind, FlightRecorder, TraceEvent};

/// Default flight-recorder capacity per scope (events).
pub const DEFAULT_RING_CAP: usize = 4096;

/// Telemetry registry: owns the recording flag and every registered
/// [`Scope`]. Counters are always on (cheap relaxed adds); histograms
/// and the flight recorder only record when the hub was created with
/// `recording` set, so a disabled hub costs one branch per call site.
pub struct ObsHub {
    // Fixed at construction and copied into every scope, so scopes hold
    // no back-pointer to the hub and no `Arc` cycle forms.
    recording: bool,
    started: Instant,
    scopes: Mutex<Vec<Arc<Scope>>>,
}

impl ObsHub {
    /// A fresh hub. `recording` arms histograms + flight recorders.
    pub fn new(recording: bool) -> Arc<ObsHub> {
        Self::new_at(recording, Instant::now())
    }

    /// A fresh hub whose trace epoch is `started` — engines pass their
    /// own start instant so hub stamps and engine-relative stamps agree.
    pub fn new_at(recording: bool, started: Instant) -> Arc<ObsHub> {
        Arc::new(ObsHub {
            recording,
            started,
            scopes: Mutex::new(Vec::new()),
        })
    }

    /// Register a named scope (one per proxy/node, or one per engine).
    pub fn register(self: &Arc<Self>, name: impl Into<String>, ring_cap: usize) -> Arc<Scope> {
        let scope = Arc::new(Scope {
            name: name.into(),
            recording: self.recording,
            started: self.started,
            counters: CounterSet::new(),
            hists: std::array::from_fn(|_| AtomicHistogram::new()),
            ring: FlightRecorder::new(ring_cap),
        });
        self.scopes.lock().unwrap().push(Arc::clone(&scope));
        scope
    }

    /// Point-in-time snapshot of every scope, without stopping writers.
    pub fn snapshot(&self, label: &str) -> Snapshot {
        let scopes = self.scopes.lock().unwrap();
        Snapshot {
            label: label.to_string(),
            scopes: scopes.iter().map(|s| s.snapshot()).collect(),
        }
    }

    /// Dump every scope's flight recorder, oldest event first.
    pub fn trace_dump(&self) -> Vec<(String, Vec<TraceEvent>)> {
        let scopes = self.scopes.lock().unwrap();
        scopes
            .iter()
            .map(|s| (s.name.clone(), s.events()))
            .collect()
    }
}

/// A named telemetry handle: one counter set, one histogram per
/// [`HistId`], one flight-recorder ring.
pub struct Scope {
    name: String,
    recording: bool,
    started: Instant,
    counters: CounterSet,
    hists: [AtomicHistogram; HistId::COUNT],
    ring: FlightRecorder,
}

impl Scope {
    /// Whether histograms + traces are recording (hub-wide flag).
    #[inline]
    fn recording(&self) -> bool {
        self.recording
    }

    /// Nanoseconds since the owning hub was created.
    #[inline]
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Add `n` to counter `c` (always on).
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        self.counters.add(c, n);
    }

    /// Increment counter `c` (always on).
    #[inline]
    pub fn inc(&self, c: Ctr) {
        self.counters.inc(c);
    }

    /// Current counter value.
    #[inline]
    pub fn get(&self, c: Ctr) -> u64 {
        self.counters.get(c)
    }

    /// Record `v` into histogram `h` if recording is armed.
    #[inline]
    pub fn record(&self, h: HistId, v: u64) {
        if self.recording() {
            self.hists[h as usize].record(v);
        }
    }

    /// Trace an event stamped with the hub clock, if recording.
    #[inline]
    pub fn trace(&self, kind: EventKind, a: u16, b: u32) {
        if self.recording() {
            self.ring.record(self.now_ns(), kind, a, b);
        }
    }

    /// Trace an event with a caller-supplied timestamp (the proxy passes
    /// its pass's clock reading), if recording.
    #[inline]
    pub fn trace_at(&self, t_ns: u64, kind: EventKind, a: u16, b: u32) {
        if self.recording() {
            self.ring.record(t_ns, kind, a, b);
        }
    }

    /// Dump this scope's surviving trace events, oldest first.
    fn events(&self) -> Vec<TraceEvent> {
        self.ring.dump()
    }

    /// Point-in-time copy of counters + histograms.
    fn snapshot(&self) -> ScopeSnapshot {
        ScopeSnapshot {
            name: self.name.clone(),
            counters: self.counters.values(),
            hists: self.hists.iter().map(|h| h.snapshot()).collect(),
        }
    }
}

/// Plain copy of one scope's counters and histograms.
#[derive(Debug, Clone)]
pub struct ScopeSnapshot {
    /// Scope name.
    pub name: String,
    counters: [u64; Ctr::COUNT],
    hists: Vec<Histogram>,
}

impl ScopeSnapshot {
    /// Counter value.
    pub fn counter(&self, c: Ctr) -> u64 {
        self.counters[c as usize]
    }

    /// Histogram for `h`.
    pub fn hist(&self, h: HistId) -> &Histogram {
        &self.hists[h as usize]
    }

    fn json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"counters\":{{",
            json::esc(&self.name)
        );
        let mut first = true;
        for c in Ctr::ALL {
            let v = self.counter(c);
            if v != 0 {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", c.name(), v);
                first = false;
            }
        }
        out.push_str("},\"hists\":{");
        let mut first = true;
        for h in HistId::ALL {
            let hist = self.hist(h);
            if hist.count() == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"mean\":{},\"min\":{},\"p50\":{},\"p90\":{},\
                 \"p99\":{},\"max\":{}}}",
                h.name(),
                hist.count(),
                json::num(hist.mean()),
                hist.min(),
                hist.quantile(0.5),
                hist.quantile(0.9),
                hist.quantile(0.99),
                hist.max(),
            );
            first = false;
        }
        out.push_str("}}");
    }
}

/// A labeled collection of scope snapshots — the JSON export unit fed
/// to bench bins and `ShutdownReport`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Free-form label (bench name, scenario name, ...).
    pub label: String,
    /// Per-scope snapshots, in registration order.
    pub scopes: Vec<ScopeSnapshot>,
}

impl Snapshot {
    /// Sum of counter `c` across all scopes.
    pub fn total(&self, c: Ctr) -> u64 {
        self.scopes.iter().map(|s| s.counter(c)).sum()
    }

    /// Merge histogram `h` across all scopes (bucket-wise addition).
    pub fn merged_hist(&self, h: HistId) -> Histogram {
        let mut out = Histogram::new();
        for s in &self.scopes {
            out.merge(s.hist(h));
        }
        out
    }

    /// Compact (single-line) JSON document:
    /// `{"label":...,"scopes":[{"name":...,"counters":{...},"hists":{...}}]}`.
    /// Counters are emitted only when non-zero, histograms only when
    /// non-empty; absent keys read as zero/empty.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"label\":\"");
        out.push_str(&json::esc(&self.label));
        out.push_str("\",\"scopes\":[");
        for (i, s) in self.scopes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            s.json_into(&mut out);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_snapshot_and_json() {
        let hub = ObsHub::new(true);
        let a = hub.register("node0", 64);
        let b = hub.register("node1", 64);
        a.inc(Ctr::MsgsOut);
        a.add(Ctr::BytesOut, 320);
        a.record(HistId::WireRttNs, 1500);
        b.inc(Ctr::MsgsIn);
        b.trace(EventKind::Respawn, 0, 7);

        let snap = hub.snapshot("test");
        assert_eq!(snap.total(Ctr::MsgsOut), 1);
        assert_eq!(snap.total(Ctr::MsgsIn), 1);
        assert_eq!(snap.scopes[0].counter(Ctr::BytesOut), 320);
        assert_eq!(snap.merged_hist(HistId::WireRttNs).count(), 1);

        let json = snap.to_json();
        assert!(json.contains("\"label\":\"test\""));
        assert!(json.contains("\"msgs_out\":1"));
        assert!(json.contains("\"wire_rtt_ns\""));

        let dumps = hub.trace_dump();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[1].1.len(), 1);
        assert_eq!(dumps[1].1[0].kind, EventKind::Respawn);
    }

    #[test]
    fn disabled_hub_records_counters_but_not_hists_or_traces() {
        let hub = ObsHub::new(false);
        let s = hub.register("n", 64);
        s.inc(Ctr::Kills);
        s.record(HistId::CmdWaitNs, 10);
        s.trace(EventKind::Kill, 0, 0);
        let snap = s.snapshot();
        assert_eq!(snap.counter(Ctr::Kills), 1);
        assert_eq!(snap.hist(HistId::CmdWaitNs).count(), 0);
        assert!(s.events().is_empty());
    }
}
