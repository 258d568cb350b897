//! Order statistics: medians and quartiles of per-rep values, and
//! percentiles of latency samples.

/// Median and quartiles of a set of values, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread the regression bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive), so `--compare` computes the spread the way the driver
/// does. One value is its own median and quartiles; none gives zeros.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    match m {
        0 => Summary {
            n: 0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
        },
        1 => Summary {
            n: 1,
            q1: v[0],
            median: v[0],
            q3: v[0],
        },
        _ => {
            let cut = |i: usize| {
                let j = (i * (m + 1) / 4).clamp(1, m - 1);
                let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Summary {
                n: m,
                q1: cut(1),
                median: cut(2),
                q3: cut(3),
            }
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The mean of the better quarter of `values` (of the better one when there
/// are fewer than four): the ten best of forty per-rep values. 0 for none.
///
/// Each processor of the shared host this was written on runs a third to a
/// half slower for spells of seconds to minutes, when its neighbours are
/// busy, and each on its own schedule. The median of the per-rep values
/// follows whichever state held for most of the run and jumps between
/// them from one run to the next; one order statistic from the better end
/// is steadier but coarse. The better quarter needs only a quarter of the
/// run undisturbed, and its mean moves smoothly when there is less. Over
/// ten runs of each workload it spread a quarter less than the median on
/// average (README.md, "Steadiness").
pub fn better_quarter_mean(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let kept = &v[..(v.len() / 4).max(1).min(v.len())];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Percentiles a latency figure may be reported at, in permille (whole
/// numbers, so that ranks are exact). Nothing beyond p99: with three or four
/// busy threads on two processors, what lies beyond is the host's scheduler.
pub const LADDER: [usize; 4] = [500, 750, 900, 990];

/// Index of the nearest-rank `q`-permille quantile among `n` sorted samples.
fn rank(n: usize, q: usize) -> usize {
    (n * q).div_ceil(1000).clamp(1, n) - 1
}

/// The highest percentile of [`LADDER`] that has at least ten of `n`
/// samples beyond it; the median when even that has fewer.
pub fn pick_tail(n: usize) -> usize {
    LADDER
        .into_iter()
        .rev()
        .find(|&q| n > 0 && n - 1 - rank(n, q) >= 10)
        .unwrap_or(LADDER[0])
}

/// Nearest-rank `q`-permille percentile of sorted samples; 0 for none.
pub fn percentile(sorted: &[u64], q: usize) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[rank(sorted.len(), q)]
    }
}

/// Sorts `samples` (nanoseconds) and returns (p50, `tail_q`-permille
/// percentile) in microseconds.
pub fn p50_and_tail_us(samples: &mut [u64], tail_q: usize) -> (f64, f64) {
    samples.sort_unstable();
    (
        percentile(samples, 500) as f64 / 1e3,
        percentile(samples, tail_q) as f64 / 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        for (n, want) in [
            (100_000, 990),
            (1_000, 990),
            (999, 900),
            (100, 900),
            (99, 750),
            (40, 750),
            (39, 500),
            (30, 500),
            (3, 500),
            (0, 500),
        ] {
            assert_eq!(pick_tail(n), want, "n = {n}");
        }
    }

    #[test]
    fn better_quarter_mean_averages_the_better_end() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(better_quarter_mean(&v, true), 35.5, "31..=40");
        assert_eq!(better_quarter_mean(&v, false), 5.5, "1..=10");
        assert_eq!(better_quarter_mean(&v[..9], true), 39.5, "two of nine");
        assert_eq!(better_quarter_mean(&[3.0, 7.0, 5.0], false), 3.0);
        assert_eq!(better_quarter_mean(&[7.0], false), 7.0);
        assert_eq!(better_quarter_mean(&[], false), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 1000), 100);
        assert_eq!(percentile(&[7], 990), 7);
        assert_eq!(percentile(&[], 500), 0);
        let mut ns = vec![3_000, 1_000, 2_000];
        assert_eq!(p50_and_tail_us(&mut ns, 990), (2.0, 3.0));
    }
    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        assert_eq!(summarize(&[4.0]).median, 4.0);
        assert_eq!(summarize(&[]).n, 0);
        assert!((summarize(&v).spread() - 1.0).abs() < 1e-12);
    }
}
