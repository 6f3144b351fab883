//! Measurement units shared across the workspace.
//!
//! Traffic volumes, latencies and compute loads appear throughout the
//! network model (Table 1). Keeping them as documented type aliases (rather
//! than bare `f64`s at every call site) makes signatures self-describing
//! while staying zero-cost; the few places where confusing two quantities
//! would be catastrophic use full newtypes in their own crates.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A traffic rate in abstract units per second (the paper's `w_cz`, `v_cz`,
/// link bandwidths `b_e`, and background traffic `g_e` are all rates).
pub type Rate = f64;

/// A compute load in abstract units (the paper's `l_f · traffic` products and
/// capacities `m_s`, `m_sf`).
pub type LoadUnits = f64;

/// A byte count.
pub type Bytes = u64;

/// Millions of packets per second: the headline unit of Figure 8.
///
/// # Examples
///
/// ```
/// use sb_types::Mpps;
/// let per_core = Mpps::new(7.0);
/// let six_cores = per_core * 3.0;
/// assert!((six_cores.value() - 21.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Mpps(f64);

impl Mpps {
    /// Creates a rate in millions of packets per second.
    #[must_use]
    pub const fn new(value: f64) -> Self {
        Self(value)
    }

    /// Builds the rate from a raw packets-per-second count.
    #[must_use]
    pub fn from_pps(pps: f64) -> Self {
        Self(pps / 1e6)
    }

    /// Returns the value in millions of packets per second.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns the value in packets per second.
    #[must_use]
    pub fn as_pps(self) -> f64 {
        self.0 * 1e6
    }
}

impl fmt::Display for Mpps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} Mpps", self.0)
    }
}

impl Add for Mpps {
    type Output = Mpps;
    fn add(self, rhs: Mpps) -> Mpps {
        Mpps(self.0 + rhs.0)
    }
}

impl AddAssign for Mpps {
    fn add_assign(&mut self, rhs: Mpps) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Mpps {
    type Output = Mpps;
    fn mul(self, rhs: f64) -> Mpps {
        Mpps(self.0 * rhs)
    }
}

/// A duration in milliseconds with sub-millisecond precision; the unit of
/// every latency the paper reports (Table 2, Figures 9-12).
///
/// # Examples
///
/// ```
/// use sb_types::Millis;
/// let rtt = Millis::new(80.0);
/// assert_eq!((rtt / 2.0).value(), 40.0);
/// assert_eq!(rtt.as_micros(), 80_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Millis(f64);

impl Millis {
    /// Zero duration.
    pub const ZERO: Millis = Millis(0.0);

    /// Creates a duration in milliseconds.
    #[must_use]
    pub const fn new(value: f64) -> Self {
        Self(value)
    }

    /// Builds a duration from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Self(us / 1000.0)
    }

    /// Builds a duration from seconds.
    #[must_use]
    pub fn from_secs(s: f64) -> Self {
        Self(s * 1000.0)
    }

    /// Builds a duration from integer nanoseconds (the simulator clock unit).
    #[must_use]
    pub fn from_nanos(ns: u64) -> Self {
        #[allow(clippy::cast_precision_loss)]
        Self(ns as f64 / 1e6)
    }

    /// Returns the value in milliseconds.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns the value in microseconds.
    #[must_use]
    pub fn as_micros(self) -> f64 {
        self.0 * 1000.0
    }

    /// Returns the value in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 / 1000.0
    }

    /// Returns the value in whole nanoseconds, saturating at `u64::MAX` and
    /// clamping negatives to zero (the simulator clock is unsigned).
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        let ns = self.0 * 1e6;
        if ns <= 0.0 {
            0
        } else if ns >= u64::MAX as f64 {
            u64::MAX
        } else {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                ns as u64
            }
        }
    }
}

impl fmt::Display for Millis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.0} us", self.as_micros())
        } else {
            write!(f, "{:.1} ms", self.0)
        }
    }
}

impl Add for Millis {
    type Output = Millis;
    fn add(self, rhs: Millis) -> Millis {
        Millis(self.0 + rhs.0)
    }
}

impl AddAssign for Millis {
    fn add_assign(&mut self, rhs: Millis) {
        self.0 += rhs.0;
    }
}

impl Sub for Millis {
    type Output = Millis;
    fn sub(self, rhs: Millis) -> Millis {
        Millis(self.0 - rhs.0)
    }
}

impl Mul<f64> for Millis {
    type Output = Millis;
    fn mul(self, rhs: f64) -> Millis {
        Millis(self.0 * rhs)
    }
}

impl Div<f64> for Millis {
    type Output = Millis;
    fn div(self, rhs: f64) -> Millis {
        Millis(self.0 / rhs)
    }
}

impl std::iter::Sum for Millis {
    fn sum<I: Iterator<Item = Millis>>(iter: I) -> Millis {
        iter.fold(Millis::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpps_arithmetic() {
        let mut t = Mpps::new(3.0) + Mpps::new(4.0);
        t += Mpps::new(1.0);
        assert!((t.value() - 8.0).abs() < 1e-12);
        assert!((Mpps::from_pps(2_000_000.0).value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn millis_conversions_round_trip() {
        let m = Millis::from_secs(1.5);
        assert!((m.value() - 1500.0).abs() < 1e-9);
        assert!((m.as_secs() - 1.5).abs() < 1e-12);
        assert_eq!(m.as_nanos(), 1_500_000_000);
        assert!((Millis::from_nanos(250_000).as_micros() - 250.0).abs() < 1e-9);
        assert!((Millis::from_micros(80.0).value() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn millis_as_nanos_clamps() {
        assert_eq!(Millis::new(-5.0).as_nanos(), 0);
        assert_eq!(Millis::new(f64::INFINITY).as_nanos(), u64::MAX);
    }

    #[test]
    fn millis_arithmetic_and_sum() {
        let parts = [Millis::new(63.0), Millis::new(93.0), Millis::new(74.0)];
        let total: Millis = parts.iter().copied().sum();
        assert!((total.value() - 230.0).abs() < 1e-9);
        assert!(((Millis::new(100.0) - Millis::new(40.0)).value() - 60.0).abs() < 1e-12);
        assert!(((Millis::new(10.0) * 2.0).value() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn display_switches_units() {
        assert_eq!(Millis::new(0.05).to_string(), "50 us");
        assert_eq!(Millis::new(12.34).to_string(), "12.3 ms");
        assert_eq!(Mpps::new(7.0).to_string(), "7.00 Mpps");
    }
}
