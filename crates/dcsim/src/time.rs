//! Simulated time, durations, and bandwidth math.
//!
//! The simulator uses integer **picoseconds**: at 100 Gbps one bit lasts
//! 10 ps, so picosecond resolution keeps serialization times exact for every
//! packet size and link rate used in the paper. A `u64` of picoseconds
//! covers ~213 days of simulated time — far beyond any experiment here.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute simulated timestamp (picoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (picoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const PS_PER_NS: u64 = 1_000;
pub const PS_PER_US: u64 = 1_000_000;
pub const PS_PER_MS: u64 = 1_000_000_000;
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    /// Duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_SEC)
    }

    /// Duration from fractional seconds (rounded to the nearest picosecond).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        SimDuration((s * PS_PER_SEC as f64).round() as u64)
    }

    /// This duration in fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Saturating multiply by an integer factor (used for RTO backoff).
    pub fn saturating_mul(&self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "time went backwards");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// This timestamp in fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(d.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps < PS_PER_NS {
            write!(f, "{ps}ps")
        } else if ps < PS_PER_US {
            write!(f, "{:.2}ns", ps as f64 / PS_PER_NS as f64)
        } else if ps < PS_PER_MS {
            write!(f, "{:.2}us", ps as f64 / PS_PER_US as f64)
        } else if ps < PS_PER_SEC {
            write!(f, "{:.2}ms", ps as f64 / PS_PER_MS as f64)
        } else {
            write!(f, "{:.3}s", ps as f64 / PS_PER_SEC as f64)
        }
    }
}

/// A link bandwidth in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Bandwidth from gigabits per second.
    pub const fn gbps(g: u64) -> Self {
        Bandwidth(g * 1_000_000_000)
    }

    /// Bandwidth from megabits per second.
    pub const fn mbps(m: u64) -> Self {
        Bandwidth(m * 1_000_000)
    }

    /// Bits per second.
    pub const fn bps(&self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` onto a link of this bandwidth, exact in
    /// picoseconds (rounded up so back-to-back packets never overlap).
    ///
    /// # Panics
    /// Panics if the bandwidth is zero.
    pub fn serialize_time(&self, bytes: u64) -> SimDuration {
        assert!(self.0 > 0, "zero bandwidth");
        let bits = bytes as u128 * 8;
        let ps = (bits * PS_PER_SEC as u128).div_ceil(self.0 as u128);
        SimDuration(ps as u64)
    }

    /// Bandwidth-delay product in bytes for a given round-trip time,
    /// rounded up to whole bytes.
    pub fn bdp_bytes(&self, rtt: SimDuration) -> u64 {
        let bits = self.0 as u128 * rtt.0 as u128 / PS_PER_SEC as u128;
        (bits.div_ceil(8)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_time_100g_1500b() {
        // 1500 B = 12000 bits at 100 Gbps = 120 ns exactly.
        let d = Bandwidth::gbps(100).serialize_time(1500);
        assert_eq!(d, SimDuration::from_nanos(120));
    }

    #[test]
    fn serialize_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s -> ceil in ps.
        let d = Bandwidth(3).serialize_time(1);
        assert_eq!(d.0, (8u128 * PS_PER_SEC as u128).div_ceil(3) as u64);
    }

    #[test]
    fn bdp_matches_paper_scale() {
        // 100 Gbps x 2 ms RTT = 25 MB.
        let bdp = Bandwidth::gbps(100).bdp_bytes(SimDuration::from_millis(2));
        assert_eq!(bdp, 25_000_000);
    }

    #[test]
    fn bdp_small_rtt() {
        // 100 Gbps x 8 us = 100 KB.
        let bdp = Bandwidth::gbps(100).bdp_bytes(SimDuration::from_micros(8));
        assert_eq!(bdp, 100_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_micros(5));
        let mut t2 = t;
        t2 += SimDuration::from_micros(5);
        assert_eq!(t2.since(t), SimDuration::from_micros(5));
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(format!("{}", SimDuration(500)), "500ps");
        assert_eq!(format!("{}", SimDuration::from_nanos(120)), "120.00ns");
        assert_eq!(format!("{}", SimDuration::from_micros(359)), "359.00us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.00ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn secs_f64_roundtrip() {
        let d = SimDuration::from_secs_f64(0.001234);
        assert!((d.as_secs_f64() - 0.001234).abs() < 1e-15);
    }

    #[test]
    fn duration_sub_saturates() {
        let a = SimDuration::from_nanos(5);
        let b = SimDuration::from_nanos(10);
        assert_eq!(a - b, SimDuration::ZERO);
    }
}
