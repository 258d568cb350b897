//! Lightweight statistics accumulators used across the simulator
//! (service times, queue lengths — the numbers the paper reports in
//! Table 6; a [`crate::Resource`] integrates its own utilisation).

use crate::time::Dur;

/// Accumulates count / mean / min / max of a stream of samples.
///
/// # Examples
///
/// ```
/// use mproxy_des::Tally;
///
/// let mut t = Tally::new();
/// t.add(2.0);
/// t.add(4.0);
/// assert_eq!(t.mean(), 3.0);
/// assert_eq!(t.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// Creates an empty tally.
    #[must_use]
    pub fn new() -> Self {
        Tally::default()
    }

    /// Records a sample.
    pub fn add(&mut self, x: f64) {
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
        self.sum += x;
    }

    /// Records a duration sample in microseconds.
    pub fn add_dur(&mut self, d: Dur) {
        self.add(d.as_us());
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of samples, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Smallest sample, or 0.0 if empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0.0 if empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_basic_moments() {
        let mut t = Tally::new();
        for x in [5.0, 1.0, 3.0] {
            t.add(x);
        }
        assert_eq!(t.count(), 3);
        assert_eq!(t.mean(), 3.0);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 5.0);
        assert_eq!(t.sum(), 9.0);
    }

    #[test]
    fn empty_tally_is_zeroes() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.min(), 0.0);
        assert_eq!(t.max(), 0.0);
    }

    #[test]
    fn tally_merge() {
        let mut a = Tally::new();
        a.add(1.0);
        let mut b = Tally::new();
        b.add(9.0);
        b.add(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 9.0);
        assert_eq!(a.min(), 1.0);
        let mut empty = Tally::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }
}
