//! Chrome `trace_event` (about://tracing / Perfetto) exporter.
//!
//! Renders flight-recorder dumps as a JSON object with a
//! `traceEvents` array: one *process* per scope (pid = registration
//! index, named via `process_name` metadata), instant events (`ph:"i"`)
//! for every ring event, and a synthesized duration span (`ph:"X"`)
//! named `proxy-dead` for each `kill → respawn` — so a chaos run's kills,
//! the pauses they cause and the RTO storms read directly off the
//! timeline. Timestamps are microseconds (the trace_event
//! unit); ring timestamps are nanoseconds, so sub-µs precision is kept
//! as fractional `ts`.

use crate::json;
use crate::ring::{EventKind, TraceEvent};

fn push_event(out: &mut String, first: &mut bool, body: &str) {
    if !*first {
        out.push(',');
    }
    out.push_str("\n    ");
    out.push_str(body);
    *first = false;
}

/// Serialize scope dumps (from [`crate::ObsHub::trace_dump`]) into a
/// Chrome `trace_event` JSON document.
pub fn chrome_trace(scopes: &[(String, Vec<TraceEvent>)]) -> String {
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
    let mut first = true;
    for (pid, (name, events)) in scopes.iter().enumerate() {
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json::esc(name)
            ),
        );
        for e in events {
            let ts = e.t_ns as f64 / 1000.0;
            push_event(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\
                     \"tid\":0,\"args\":{{\"a\":{},\"b\":{}}}}}",
                    e.kind.name(),
                    json::num(ts),
                    e.a,
                    e.b
                ),
            );
        }
        for (start_ns, end_ns) in dead_spans(events) {
            let ts = start_ns as f64 / 1000.0;
            let dur = end_ns.saturating_sub(start_ns) as f64 / 1000.0;
            push_event(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"proxy-dead\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\
                     \"tid\":0,\"args\":{{}}}}",
                    json::num(ts),
                    json::num(dur)
                ),
            );
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The `(kill, respawn)` timestamps of every kill in a scope's event
/// stream that a respawn followed: the spans its proxy was dead.
fn dead_spans(events: &[TraceEvent]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let kills = events.iter().enumerate();
    kills
        .filter(|(_, e)| e.kind == EventKind::Kill)
        .filter_map(|(i, kill)| {
            let respawn = events[i + 1..]
                .iter()
                .find(|n| n.kind == EventKind::Respawn)?;
            Some((kill.t_ns, respawn.t_ns))
        })
}

/// `true` if the document contains at least one kill → respawn
/// sequence and its `proxy-dead` span (used by the acceptance smoke
/// test).
pub fn has_recovery_span(trace_json: &str) -> bool {
    trace_json.contains("\"name\":\"kill\"")
        && trace_json.contains("\"name\":\"respawn\"")
        && trace_json.contains("\"name\":\"proxy-dead\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            t_ns,
            kind,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn emits_valid_json_with_spans() {
        let scopes = vec![(
            "node0".to_string(),
            vec![
                ev(100, EventKind::Send),
                ev(1_000, EventKind::Kill),
                ev(5_000, EventKind::Respawn),
                ev(9_000, EventKind::AckIn),
            ],
        )];
        let doc = chrome_trace(&scopes);
        json::validate(&doc).expect("valid trace JSON");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"process_name\""));
        assert!(doc.contains("\"proxy-dead\""));
        assert!(has_recovery_span(&doc));
    }

    #[test]
    fn empty_dump_is_still_valid() {
        let doc = chrome_trace(&[]);
        json::validate(&doc).expect("valid empty trace");
        assert!(!has_recovery_span(&doc));
    }
}
