//! Simulated time.
//!
//! The engine keeps time as an integer number of *nanoseconds* since the
//! start of the simulation. Nanosecond resolution comfortably covers the
//! paper's microsecond-scale primitive costs (the finest constant in the
//! HPCA'97 model is 0.1 µs) while keeping arithmetic exact and ordering
//! total, which the deterministic event calendar relies on.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, measured from the start of the simulation.
///
/// # Examples
///
/// ```
/// use mproxy_des::{SimTime, Dur};
///
/// let t = SimTime::ZERO + Dur::from_us(2.5);
/// assert_eq!(t.as_us(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time.
///
/// # Examples
///
/// ```
/// use mproxy_des::Dur;
///
/// let d = Dur::from_us(1.5) + Dur::from_ns(500);
/// assert_eq!(d.as_ns(), 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from nanoseconds since simulation start.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the instant as integer nanoseconds.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the instant as (possibly fractional) microseconds.
    #[must_use]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant as (possibly fractional) seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);

    /// Creates a span from integer nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        Dur(ns)
    }

    /// Creates a span from (possibly fractional) microseconds.
    ///
    /// Negative or non-finite values are clamped to zero.
    #[must_use]
    pub fn from_us(us: f64) -> Self {
        if us.is_finite() && us > 0.0 {
            Dur((us * 1_000.0).round() as u64)
        } else {
            Dur(0)
        }
    }

    /// Returns the span as integer nanoseconds.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the span as (possibly fractional) microseconds.
    #[must_use]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the span as (possibly fractional) seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns true if the span is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a non-negative float, rounding to nanoseconds.
    #[must_use]
    pub fn mul_f64(self, k: f64) -> Dur {
        debug_assert!(k.is_finite() && k >= 0.0, "scale factor must be >= 0");
        Dur((self.0 as f64 * k).round() as u64)
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for SimTime {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Dur) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    fn sub(self, rhs: SimTime) -> Dur {
        self.since(rhs)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_ns(1_500);
        assert_eq!(t.as_us(), 1.5);
        assert_eq!(t + Dur::from_us(0.5), SimTime::from_ns(2_000));
        assert_eq!((t - SimTime::from_ns(500)).as_ns(), 1_000);
    }

    #[test]
    fn subtraction_saturates() {
        assert_eq!(SimTime::from_ns(5).since(SimTime::from_ns(9)), Dur::ZERO);
        assert_eq!(Dur::from_ns(3) - Dur::from_ns(10), Dur::ZERO);
    }

    #[test]
    fn from_us_clamps_garbage() {
        assert_eq!(Dur::from_us(-1.0), Dur::ZERO);
        assert_eq!(Dur::from_us(f64::NAN), Dur::ZERO);
        assert_eq!(Dur::from_us(f64::INFINITY), Dur::ZERO);
    }

    #[test]
    fn mul_div_scale() {
        assert_eq!(Dur::from_ns(100) * 3, Dur::from_ns(300));
        assert_eq!(Dur::from_ns(100) / 4, Dur::from_ns(25));
        assert_eq!(Dur::from_ns(100).mul_f64(2.5), Dur::from_ns(250));
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", Dur::from_us(3.25)), "3.250us");
        assert_eq!(format!("{}", SimTime::from_ns(750)), "0.750us");
    }

    #[test]
    fn sum_of_durations() {
        let total: Dur = [Dur::from_ns(1), Dur::from_ns(2), Dur::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Dur::from_ns(6));
    }
}
