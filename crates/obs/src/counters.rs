//! Static metric ids and cache-padded atomic counter sets.
//!
//! The [`Ctr`] ids are the threaded runtime's (`mproxy-rt`). The
//! simulator exports none of them: it keeps its own accounting, so a
//! comparison of the two engines compares their state, and the simulator
//! gets an export under these ids when something reads one.
//!
//! A [`CounterSet`] is a fixed array of `AtomicU64` cells, one per id,
//! each padded to its own cache line so two proxies (or a proxy and a
//! snapshot reader) never false-share. All increments are `Relaxed`;
//! snapshots are `Relaxed` reads and therefore never stop the world.
//! The contract is monotonicity per cell, not cross-cell atomicity: a
//! snapshot taken mid-flight may observe `msgs_in` from after an
//! `ops_applied` it does not yet include. Invariant checks must only
//! be applied to quiesced clusters (after `shutdown()` / `run()`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Pad to 128 bytes: two 64-byte lines, covering adjacent-line
/// prefetchers on common x86 parts.
#[repr(align(128))]
struct CachePadded<T>(T);

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// Static counter ids of the runtime's telemetry.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Ctr {
            $(
                $(#[$doc])*
                #[allow(missing_docs)]
                $variant,
            )+
        }

        impl Ctr {
            /// Number of counter ids.
            pub const COUNT: usize = [$(Ctr::$variant),+].len();
            /// Every id, in declaration order (== index order).
            pub const ALL: [Ctr; Ctr::COUNT] = [$(Ctr::$variant),+];

            /// Stable wire name used in JSON snapshots.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Ctr::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    // Data-plane traffic, in *operations* (a PUT, a GET request or reply,
    // an ENQ): first transmissions out, every arrival — duplicates and
    // retransmissions included — in. So are `DedupDrops`, `DamagedDrops`
    // and `OpsApplied`, and per receiver
    // `msgs_in == ops_applied + dedup_drops + damaged_drops` (+ `sheds`,
    // always zero).
    MsgsOut => "msgs_out",
    MsgsIn => "msgs_in",
    BytesOut => "bytes_out",
    BytesIn => "bytes_in",
    // The same traffic in sequenced wire *frames* (the runtime coalesces
    // a burst of operations under one sequence number):
    // `msgs_out / frames_out` is operations per frame. `Retransmits`
    // counts frames (one re-sent packet each), as do the runtime's `Send`
    // events and wire-RTT samples.
    FramesOut => "frames_out",
    FramesIn => "frames_in",
    // Reliability control plane.
    AcksOut => "acks_out",
    AcksIn => "acks_in",
    NacksOut => "nacks_out",
    NacksIn => "nacks_in",
    Retransmits => "retransmits",
    DedupDrops => "dedup_drops",
    DamagedDrops => "damaged_drops",
    // Overload / flow control.
    /// Always zero: neither engine sheds load — an overloaded proxy
    /// backpressures its submitters instead. The id stays because the
    /// benchmark harness names it in its receiver identity.
    Sheds => "sheds",
    CreditStalls => "credit_stalls",
    SaturationEvents => "saturation_events",
    // Application progress.
    OpsSubmitted => "ops_submitted",
    OpsApplied => "ops_applied",
    // Fault / supervision lifecycle: the runtime's one ledger of what its
    // injector did, kept by each node for its own transmissions. It
    // judges one per operation first sent (an operation that draws a
    // fault travels in a frame of its own) and one per frame re-sent,
    // counting a re-send only if it was dropped or reached the ring.
    // `FaultsInjected` counts the judged transmissions that drew any
    // fault, and the three kinds split them: a dropped one counts only
    // as dropped, one both duplicated and corrupt counts in both.
    FaultsJudged => "faults_judged",
    FaultsInjected => "faults_injected",
    FaultsDropped => "faults_dropped",
    FaultsDuplicated => "faults_duplicated",
    FaultsCorrupted => "faults_corrupted",
    Stalls => "stalls",
    Kills => "kills",
    Respawns => "respawns",
}

/// One cache-padded `AtomicU64` per [`Ctr`] id.
pub struct CounterSet {
    cells: Box<[CachePadded<AtomicU64>]>,
}

impl Default for CounterSet {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterSet {
    /// A zeroed set covering every [`Ctr`] id.
    pub fn new() -> Self {
        let cells = (0..Ctr::COUNT)
            .map(|_| CachePadded(AtomicU64::new(0)))
            .collect();
        CounterSet { cells }
    }

    /// Add `n` to `c` (relaxed; safe from any thread).
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        self.cells[c as usize].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment `c` by one.
    #[inline]
    pub fn inc(&self, c: Ctr) {
        self.add(c, 1);
    }

    /// Current value of `c` (relaxed read).
    #[inline]
    pub fn get(&self, c: Ctr) -> u64 {
        self.cells[c as usize].0.load(Ordering::Relaxed)
    }

    /// Relaxed point-in-time copy of every cell.
    pub fn values(&self) -> [u64; Ctr::COUNT] {
        let mut out = [0u64; Ctr::COUNT];
        for (i, cell) in self.cells.iter().enumerate() {
            out[i] = cell.0.load(Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_indexed() {
        let mut seen = std::collections::HashSet::new();
        for (i, c) in Ctr::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
            assert!(seen.insert(c.name()), "duplicate name {}", c.name());
        }
    }

    #[test]
    fn add_and_get() {
        let s = CounterSet::new();
        s.inc(Ctr::MsgsOut);
        s.add(Ctr::MsgsOut, 4);
        assert_eq!(s.get(Ctr::MsgsOut), 5);
        assert_eq!(s.get(Ctr::MsgsIn), 0);
        assert_eq!(s.values()[Ctr::MsgsOut as usize], 5);
    }
}
