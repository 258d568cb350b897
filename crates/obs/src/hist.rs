//! HDR-style log-linear histograms: fixed-size, lock-free to record,
//! merge-able by plain bucket addition.
//!
//! Layout: values below 2^5 land in unit-width buckets; above that,
//! each power-of-two octave is split into 32 linear sub-buckets, so the
//! relative quantization error is bounded by 1/32 ≈ 3.1% across the
//! whole `u64` range. The recorder's bucket array is a fixed 1920 slots
//! (~15 KiB of `u64`s), which keeps it embeddable per proxy without
//! allocation on the record path; a plain [`Histogram`] stores buckets
//! only up to the highest one recorded.
//!
//! [`AtomicHistogram`] is the recorder (relaxed `fetch_add`s, safe to
//! share across threads); [`Histogram`] is the plain snapshot/merge
//! type. Merging is bucket-wise addition, hence associative and
//! commutative — asserted by `tests/obs.rs` across per-proxy snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Bucket index for a recorded value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = ((v >> shift) - SUB) as usize;
        ((shift as usize + 1) << SUB_BITS) + sub
    }
}

/// Inclusive lower bound of a bucket.
#[inline]
fn bucket_lo(idx: usize) -> u64 {
    if idx < SUB as usize {
        idx as u64
    } else {
        let shift = (idx >> SUB_BITS) as u32 - 1;
        let sub = (idx as u64) & (SUB - 1);
        (SUB + sub) << shift
    }
}

/// Representative (midpoint) value of a bucket, used for quantiles.
#[inline]
fn bucket_mid(idx: usize) -> u64 {
    if idx < SUB as usize {
        idx as u64
    } else {
        let shift = (idx >> SUB_BITS) as u32 - 1;
        bucket_lo(idx) + (1u64 << shift) / 2
    }
}

macro_rules! hists {
    ($($variant:ident => $name:literal,)+) => {
        /// Static histogram ids of the runtime's telemetry.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum HistId {
            $(
                #[allow(missing_docs)]
                $variant,
            )+
        }

        impl HistId {
            /// Number of histogram ids.
            pub const COUNT: usize = [$(HistId::$variant),+].len();
            /// Every id, in declaration order (== index order).
            pub const ALL: [HistId; HistId::COUNT] = [$(HistId::$variant),+];

            /// Stable wire name used in JSON snapshots.
            pub const fn name(self) -> &'static str {
                match self {
                    $(HistId::$variant => $name,)+
                }
            }
        }
    };
}

hists! {
    // Time a command sat in the SPSC queue before the proxy drained it.
    CmdWaitNs => "cmd_wait_ns",
    // Submit -> lsync-fired round trip (send overhead + gap + wire + ack).
    LsyncRttNs => "lsync_rtt_ns",
    // Wire frame send -> cumulative-ack release (wire-layer RTT).
    WireRttNs => "wire_rtt_ns",
    // Proxy busy-fraction self-samples, in permille (0..=1000).
    BusyPermille => "busy_permille",
}

/// Plain (non-atomic) histogram: the snapshot and merge type.
///
/// Buckets are stored up to the highest one recorded, not all
/// [`BUCKETS`] up front: nanosecond waits of up to a millisecond fit in
/// the first 510.
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    /// Compact summary — dumping 1920 raw buckets helps nobody.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = bucket_of(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Recorded sample count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`), accurate to the bucket
    /// resolution (≤ ~3.1% relative error).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(idx).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, for exporters.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_lo(i), n))
            .collect()
    }
}

/// Lock-free recorder: relaxed atomic `fetch_add` per sample, shared
/// across threads, snapshot without stopping the writer.
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty recorder.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (relaxed; ~4 uncontended atomic adds).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time copy. Relaxed per-cell reads: a snapshot racing
    /// the recorder may be off by in-flight samples but each cell is
    /// itself consistent, and a quiesced recorder snapshots exactly.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        h.buckets = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = h.buckets.iter().sum();
        // Derive `count` from the buckets so count == Σ buckets holds
        // even mid-flight.
        h.count = count;
        h.sum = self.sum.load(Ordering::Relaxed);
        h.min = self.min.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_bounds() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1 << 20, u64::MAX] {
            let idx = bucket_of(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            let lo = bucket_lo(idx);
            assert!(lo <= v, "v={v} lo={lo}");
            if idx + 1 < BUCKETS {
                assert!(
                    bucket_lo(idx + 1) > v,
                    "v={v} next_lo={}",
                    bucket_lo(idx + 1)
                );
            }
        }
    }

    #[test]
    fn quantile_error_bounded() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        let p50 = h.quantile(0.5) as f64;
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.04, "p50={p50}");
        let p99 = h.quantile(0.99) as f64;
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.04, "p99={p99}");
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [3u64, 70, 900, 44_000] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 70, 123_456_789] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.nonzero_buckets(), both.nonzero_buckets());
    }

    #[test]
    fn buckets_are_stored_up_to_the_highest_recorded() {
        let mut short = Histogram::new();
        assert!(short.buckets.is_empty());
        short.record(1_000);
        assert_eq!(short.buckets.len(), bucket_of(1_000) + 1);
        let mut long = Histogram::new();
        long.record(1 << 40);
        // Either way round, a merge covers both ranges.
        let mut a = short.clone();
        a.merge(&long);
        let mut b = long.clone();
        b.merge(&short);
        assert_eq!(a.nonzero_buckets(), b.nonzero_buckets());
        assert_eq!(a.nonzero_buckets().len(), 2);
        assert_eq!(a.quantile(1.0), 1 << 40);
    }

    #[test]
    fn atomic_snapshot_matches_plain() {
        let ah = AtomicHistogram::new();
        let mut h = Histogram::new();
        for v in [0u64, 5, 31, 32, 1000, 1 << 40] {
            ah.record(v);
            h.record(v);
        }
        let snap = ah.snapshot();
        assert_eq!(snap.count(), h.count());
        assert_eq!(snap.nonzero_buckets(), h.nonzero_buckets());
        assert_eq!(snap.max(), h.max());
    }
}
