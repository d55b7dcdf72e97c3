//! Integer simulation time.
//!
//! All simulated clocks in the workspace count microseconds from the start
//! of the simulation. Using integers keeps event ordering total (no float
//! ties) and makes runs bit-for-bit reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant on the simulated clock, in microseconds since simulation start.
///
/// `SimTime` is an absolute point in time; the corresponding span type is
/// [`SimDuration`]. The arithmetic mirrors `std::time::Instant` /
/// `std::time::Duration`: instants differ by durations, durations add to
/// instants.
///
/// # Example
///
/// ```
/// use simnet::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_micros(), 2_000_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_secs(2));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Example
///
/// ```
/// use simnet::SimDuration;
///
/// let d = SimDuration::from_millis(500);
/// assert_eq!(d.as_secs_f64(), 0.5);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time far beyond any realistic experiment horizon, usable as a
    /// sentinel for "never".
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX / 4);

    /// Creates a time from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time in milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed duration since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] when `earlier` is actually later, making
    /// the subtraction total (useful for defensive monitor code).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond (halves away from zero, like `f64::round`). Negative and
    /// non-finite inputs clamp to zero; values beyond `u64::MAX` µs
    /// saturate.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_to_u64(secs * 1e6))
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// `true` when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative factor, rounding to the
    /// nearest microsecond. Negative and non-finite factors clamp to zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if !factor.is_finite() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

/// `x.round() as u64` for `x >= 0`, without the libm `round` call: rounds
/// to nearest with halves away from zero, saturating at `u64::MAX`.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    // At or above 2^52 every f64 is an integer: nothing to round.
    if x >= 4_503_599_627_370_496.0 {
        return x as u64;
    }
    // Below 2^52 the fractional part `x - whole` is exact, so comparing it
    // with one half rounds exactly.
    let whole = x as u64;
    whole + u64::from(x - whole as f64 >= 0.5)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_units() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(3).as_micros(), 3);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn duration_roundtrips_units() {
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimDuration::from_millis(250).as_secs_f64(), 0.25);
        assert_eq!(SimDuration::from_secs_f64(0.0005).as_micros(), 500);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::from_secs_f64(-0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-1e-9), SimDuration::ZERO);
    }

    #[test]
    fn round_to_u64_matches_f64_round() {
        let mut cases: Vec<f64> = vec![
            0.0,
            0.49999999999999994,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            4_503_599_627_370_495.5,      // 2^52 - 0.5
            4_503_599_627_370_496.0,      // 2^52
            9_007_199_254_740_993.0,      // 2^53 + 1 (rounds to 2^53 as f64)
            18_446_744_073_709_551_616.0, // 2^64: saturates
            1e300,
            f64::MAX,
        ];
        // n + 0.5 halves, small and large.
        cases.extend((0..1_000).map(|n| n as f64 + 0.5));
        cases.extend((0..1_000u64).map(|n| (n << 40) as f64 + 0.5));
        for x in cases {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x}");
        }
        assert_eq!(round_to_u64(1e300), u64::MAX);
    }

    #[test]
    fn from_secs_f64_rounds_like_f64_round() {
        let secs: [f64; 9] = [
            1e-7, 4.9999e-7, 5e-7, 2.5e-6, 0.00025, 0.0035, 1.2345675, 7.5e9, 1e300,
        ];
        for s in secs {
            let want = (s * 1e6).round() as u64;
            assert_eq!(SimDuration::from_secs_f64(s).as_micros(), want, "{s}");
        }
    }

    #[test]
    fn arithmetic_is_consistent() {
        let t0 = SimTime::from_millis(100);
        let d = SimDuration::from_millis(40);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1 - d, t0);
        assert_eq!(d * 3, SimDuration::from_millis(120));
        assert_eq!(d / 2, SimDuration::from_millis(20));
    }

    #[test]
    fn saturating_since_is_total() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(9);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(8));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds_and_clamps() {
        let d = SimDuration::from_micros(1_000);
        assert_eq!(d.mul_f64(1.5).as_micros(), 1_500);
        assert_eq!(d.mul_f64(-2.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000s");
    }

    #[test]
    fn min_max_order_correctly() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let ta = SimTime::from_millis(1);
        let tb = SimTime::from_millis(2);
        assert_eq!(ta.max(tb), tb);
        assert_eq!(ta.min(tb), ta);
    }
}
