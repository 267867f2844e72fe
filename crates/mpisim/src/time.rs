//! Virtual simulation time.
//!
//! All times in the simulator are expressed as [`SimTime`], a thin newtype over `f64`
//! seconds of *virtual* time. Virtual time is advanced exclusively by the machine model
//! (see [`crate::machine::MachineModel`]); it never reads the host clock, which keeps
//! every experiment deterministic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) virtual time, in seconds.
///
/// `SimTime` is deliberately a plain value type: it is `Copy`, totally ordered (ties are
/// broken by the IEEE total order via [`SimTime::max`]), and supports the arithmetic the
/// simulator needs.
///
/// ```
/// use mpisim::SimTime;
/// let a = SimTime::from_secs(1.5);
/// let b = SimTime::from_millis(500.0);
/// assert_eq!((a + b).as_secs(), 2.0);
/// assert!(a > b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The zero time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite (a corrupted virtual clock would
    /// silently poison every downstream measurement).
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime: {secs}");
        SimTime(secs)
    }

    /// Creates a time from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// Returns the time in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// Returns the smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// Returns the difference `self - earlier`, clamped at zero.
    ///
    /// Useful when subtracting two clock readings that are expected to be ordered but
    /// might be equal.
    pub fn saturating_sub(self, earlier: SimTime) -> SimTime {
        SimTime((self.0 - earlier.0).max(0.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 = (self.0 - rhs.0).max(0.0);
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(SimTime::from_secs(0.25).as_secs(), 0.25);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(2.0);
        let b = SimTime::from_secs(0.5);
        assert_eq!((a + b).as_secs(), 2.5);
        assert_eq!((a - b).as_secs(), 1.5);
        // Subtraction clamps at zero instead of going negative.
        assert_eq!((b - a).as_secs(), 0.0);
        assert_eq!((a * 3.0).as_secs(), 6.0);
        assert_eq!((a / 4.0).as_secs(), 0.5);
        let mut c = a;
        c += b;
        assert_eq!(c.as_secs(), 2.5);
        c -= SimTime::from_secs(10.0);
        assert_eq!(c.as_secs(), 0.0);
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.saturating_sub(a).as_secs(), 1.0);
        assert_eq!(a.saturating_sub(b).as_secs(), 0.0);
    }

    #[test]
    fn sum_iterator() {
        let total: SimTime = (0..4).map(|i| SimTime::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 6.0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500s");
        assert_eq!(format!("{}", SimTime::from_millis(2.0)), "2.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(3e-6)), "3.000us");
    }

    #[test]
    #[should_panic]
    fn negative_time_panics() {
        let _ = SimTime::from_secs(-1.0);
    }
}
