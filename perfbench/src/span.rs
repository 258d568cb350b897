//! The benchmark's own in-memory span recorder: one span around each call
//! into a layer's public API, written out as Chrome-trace JSON at exit.
//! Spans *inside* the proxy loop are a later change to the runtime and are
//! meant to reuse these names.

use std::fmt::Write as _;
use std::time::Instant;

/// Span names, one per public call the workloads make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One operation of the workload; parent of the spans below.
    Op,
    EndpointPut,
    EndpointGet,
    EndpointEnq,
    EndpointWait,
    SegRead,
    SegWrite,
    ClusterStart,
    ClusterShutdown,
    SimPingpongVerified,
    SimRunApp,
}

impl Name {
    pub const ALL: [Name; 11] = [
        Name::Op,
        Name::EndpointPut,
        Name::EndpointGet,
        Name::EndpointEnq,
        Name::EndpointWait,
        Name::SegRead,
        Name::SegWrite,
        Name::ClusterStart,
        Name::ClusterShutdown,
        Name::SimPingpongVerified,
        Name::SimRunApp,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::EndpointPut => "endpoint.put",
            Name::EndpointGet => "endpoint.get",
            Name::EndpointEnq => "endpoint.enq",
            Name::EndpointWait => "endpoint.wait",
            Name::SegRead => "seg.read",
            Name::SegWrite => "seg.write",
            Name::ClusterStart => "cluster.start",
            Name::ClusterShutdown => "cluster.shutdown",
            Name::SimPingpongVerified => "sim.pingpong_verified",
            Name::SimRunApp => "sim.run_app",
        }
    }
}

/// Spans kept for the trace file; later ones still count in the totals.
pub const KEEP: usize = 20_000;

/// Id of the span that caused a span; `NO_PARENT` for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    /// Spans of one operation share this id.
    pub op: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    totals: [Total; Name::ALL.len()],
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(KEEP),
            totals: [Total::default(); Name::ALL.len()],
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was made.
    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id for use as a parent
    /// (`NO_PARENT` once the file quota is used up).
    pub fn record(
        &mut self,
        name: Name,
        op: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        let total = &mut self.totals[name as usize];
        total.count += 1;
        total.ns += end_ns - start_ns;
        if self.spans.len() < KEEP {
            self.spans.push(Span {
                name,
                op,
                parent,
                start_ns,
                end_ns,
            });
            (self.spans.len() - 1) as SpanId
        } else {
            NO_PARENT
        }
    }

    /// Reserves the id a parent span will get, so that children which end
    /// first can name it; fill it in with [`Recorder::finish`].
    pub fn open(&mut self, name: Name, op: u64, start: Instant) -> SpanId {
        if self.spans.len() < KEEP {
            let start_ns = self.at(start);
            self.spans.push(Span {
                name,
                op,
                parent: NO_PARENT,
                start_ns,
                end_ns: start_ns,
            });
            (self.spans.len() - 1) as SpanId
        } else {
            NO_PARENT
        }
    }

    /// Ends a span begun with [`Recorder::open`].
    pub fn finish(&mut self, id: SpanId, name: Name, start: Instant, end: Instant) {
        let total = &mut self.totals[name as usize];
        total.count += 1;
        total.ns += (end - start).as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = span.start_ns + (end - start).as_nanos() as u64;
        }
    }

    pub fn total(&self, name: Name) -> Total {
        self.totals[name as usize]
    }

    pub fn recorded(&self) -> u64 {
        self.totals.iter().map(|t| t.count).sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time in `Op` spans not covered by their child spans: the
    /// generator's own share of an operation.
    pub fn op_self_ns(&self) -> u64 {
        let children: u64 = Name::ALL
            .iter()
            .filter(|n| !matches!(n, Name::Op | Name::ClusterStart | Name::ClusterShutdown))
            .map(|&n| self.total(n).ns)
            .sum();
        self.total(Name::Op).ns.saturating_sub(children)
    }

    /// Chrome `trace_event` array of complete (`X`) events, timestamps in
    /// microseconds, with the op id and the parent span in `args`.
    pub fn chrome_events(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{id},\"op\":{},\"parent\":{}}}}}",
                s.name.label(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::time::Duration;

    #[test]
    fn children_share_the_op_id_and_name_their_parent() {
        let mut rec = Recorder::default();
        let t0 = Instant::now();
        let (t1, t2) = (
            t0 + Duration::from_nanos(400),
            t0 + Duration::from_nanos(1_000),
        );
        let parent = rec.open(Name::Op, 7, t0);
        rec.record(Name::EndpointPut, 7, parent, t0, t1);
        rec.record(Name::EndpointWait, 7, parent, t1, t2);
        rec.finish(parent, Name::Op, t0, t2 + Duration::from_nanos(100));
        assert_eq!(rec.recorded(), 3);
        assert_eq!(rec.total(Name::EndpointWait).ns, 600);
        assert_eq!(rec.op_self_ns(), 100);
        let spans = rec.spans();
        assert_eq!(spans[0].end_ns - spans[0].start_ns, 1_100);
        assert!(spans[1..].iter().all(|s| s.op == 7 && s.parent == parent));

        let doc = json::parse(&format!("[{}]", rec.chrome_events())).expect("valid JSON");
        let events = doc.as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[1].get("name").and_then(|v| v.as_str()),
            Some("endpoint.put")
        );
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(json::Value::as_f64), Some(0.0));
        assert_eq!(args.get("op").and_then(json::Value::as_f64), Some(7.0));
    }

    #[test]
    fn spans_past_the_file_quota_still_count() {
        let mut rec = Recorder::default();
        let t = Instant::now();
        for op in 0..KEEP as u64 + 5 {
            rec.record(Name::SegRead, op, NO_PARENT, t, t);
        }
        assert_eq!(rec.spans().len(), KEEP);
        assert_eq!(rec.total(Name::SegRead).count, KEEP as u64 + 5);
        assert_eq!(rec.open(Name::Op, 0, t), NO_PARENT);
    }
}
