//! Per-proxy flight recorder: a fixed-size lock-free ring of compact
//! (16-byte) trace events, overwriting oldest-first, dumpable at any
//! time without stopping the writer.
//!
//! Each slot is two `AtomicU64` words:
//!
//! ```text
//! w0: event timestamp, ns since cluster start
//! w1: kind(8) | a(16) | b(32) | lap_tag(8)
//! ```
//!
//! Writers claim an absolute slot number with `head.fetch_add` (so
//! multiple writers — the node's proxy thread and the endpoints of its
//! processes — may share a node's ring), tombstone the slot, write the timestamp, then publish
//! `w1` with `Release`. `lap_tag` is the low byte of the claim's lap
//! count (`claim >> log2(cap)`); a reader that observes a stale or
//! tombstoned tag skips the slot. Readers double-read `w1` around the
//! `w0` read (seqlock-style) so a concurrent overwrite can only cause a
//! dropped event, never a torn one. See DESIGN.md §Observability for
//! the full memory-ordering contract.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! event_kinds {
    ($($variant:ident = $val:literal => $name:literal,)+) => {
        /// Compact trace event kinds. Discriminants are the on-ring
        /// byte encoding; `0` is reserved as the tombstone.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum EventKind {
            $(
                #[allow(missing_docs)]
                $variant = $val,
            )+
        }

        impl EventKind {
            /// Stable name used by the Chrome-trace exporter.
            pub const fn name(self) -> &'static str {
                match self {
                    $(EventKind::$variant => $name,)+
                }
            }

            fn from_u8(v: u8) -> Option<EventKind> {
                match v {
                    $($val => Some(EventKind::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

event_kinds! {
    Enqueue = 1 => "enqueue",
    Drain = 2 => "drain",
    Send = 3 => "send",
    Retransmit = 4 => "retransmit",
    AckIn = 5 => "ack_in",
    NackIn = 6 => "nack_in",
    DedupDrop = 7 => "dedup_drop",
    Kill = 11 => "kill",
    Respawn = 12 => "respawn",
    SatEnter = 13 => "saturation_enter",
    SatExit = 14 => "saturation_exit",
    CreditStall = 15 => "credit_stall",
    Stall = 16 => "stall",
    FaultDrop = 17 => "fault_drop",
    FaultDup = 18 => "fault_dup",
    FaultCorrupt = 19 => "fault_corrupt",
}

/// A decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanosecond timestamp (engine-defined epoch).
    pub t_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Small argument (peer id, restart count, ...).
    pub a: u16,
    /// Large argument (sequence number, count, ...).
    pub b: u32,
}

struct Slot {
    w0: AtomicU64,
    w1: AtomicU64,
}

/// Fixed-capacity lossy trace ring. See module docs.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
    cap_bits: u32,
}

impl FlightRecorder {
    /// A ring holding the last `cap` events (rounded up to a power of
    /// two, minimum 16).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(16).next_power_of_two();
        FlightRecorder {
            slots: (0..cap)
                .map(|_| Slot {
                    w0: AtomicU64::new(0),
                    w1: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            cap_bits: cap.trailing_zeros(),
        }
    }

    #[inline]
    fn tag_for(&self, claim: u64) -> u64 {
        // Lap count, low byte; +1 so lap 0 never collides with the
        // zero-initialised (tombstone) slots.
        ((claim >> self.cap_bits) + 1) & 0xff
    }

    /// Record one event. Lock-free; ~3 atomic stores + 1 fetch_add.
    #[inline]
    pub fn record(&self, t_ns: u64, kind: EventKind, a: u16, b: u32) {
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (claim & ((1u64 << self.cap_bits) - 1)) as usize;
        let slot = &self.slots[idx];
        // Tombstone first so a racing reader never pairs the new
        // timestamp with the previous lap's payload.
        slot.w1.store(0, Ordering::Release);
        slot.w0.store(t_ns, Ordering::Relaxed);
        let w1 =
            ((kind as u64) << 56) | ((a as u64) << 40) | ((b as u64) << 8) | self.tag_for(claim);
        slot.w1.store(w1, Ordering::Release);
    }

    /// Dump the surviving events, oldest first. Safe to call while
    /// writers are active: events overwritten (or mid-write) during the
    /// scan are skipped, never torn.
    pub fn dump(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for claim in start..head {
            let idx = (claim & (cap - 1)) as usize;
            let slot = &self.slots[idx];
            let v1 = slot.w1.load(Ordering::Acquire);
            if v1 & 0xff != self.tag_for(claim) {
                continue; // stale lap, tombstone, or mid-write
            }
            let t_ns = slot.w0.load(Ordering::Relaxed);
            // Seqlock-style validation: if w1 changed while we read w0,
            // the pair may be torn — drop it.
            if slot.w1.load(Ordering::Acquire) != v1 {
                continue;
            }
            let Some(kind) = EventKind::from_u8((v1 >> 56) as u8) else {
                continue;
            };
            out.push(TraceEvent {
                t_ns,
                kind,
                a: (v1 >> 40) as u16,
                b: (v1 >> 8) as u32,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_dumps_in_order() {
        let r = FlightRecorder::new(16);
        for i in 0..10u32 {
            r.record(i as u64 * 100, EventKind::Send, 1, i);
        }
        let ev = r.dump();
        assert_eq!(ev.len(), 10);
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.kind, EventKind::Send);
            assert_eq!(e.b, i as u32);
            assert_eq!(e.t_ns, i as u64 * 100);
        }
    }

    #[test]
    fn wraps_keeping_newest() {
        let r = FlightRecorder::new(16);
        for i in 0..100u32 {
            r.record(i as u64, EventKind::Drain, 0, i);
        }
        let ev = r.dump();
        assert_eq!(ev.len(), 16);
        assert_eq!(ev.first().unwrap().b, 84);
        assert_eq!(ev.last().unwrap().b, 99);
    }

    #[test]
    fn concurrent_writers_never_tear() {
        use std::sync::Arc;
        let r = Arc::new(FlightRecorder::new(64));
        let writers: Vec<_> = (0..4u16)
            .map(|w| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..20_000u32 {
                        r.record(u64::from(i), EventKind::Retransmit, w, i);
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for e in r.dump() {
                // A torn event would pair a timestamp with another
                // event's payload; every valid event has t_ns == b.
                assert_eq!(e.t_ns, u64::from(e.b), "torn event {e:?}");
                assert!(e.a < 4);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(r.head.load(Ordering::Relaxed), 80_000);
    }
}
