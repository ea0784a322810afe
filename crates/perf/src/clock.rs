//! Host time, read here and nowhere else in the crate, and the speed
//! meter every timing is scaled by.
//!
//! The workspace's simulation code must never read the host clock
//! (simlint's `wall-clock` rule); a benchmark measures real elapsed time,
//! and takes it at the one site below.
//!
//! Two clocks, never mixed into one number: wall time, which a user of the
//! system sees and which `ops_per_s`, latencies and `setup_s` are taken
//! over; and the CPU time of a thread (`sys::thread_cpu_ns`), which does
//! not count time the thread waited or was pre-empted and which
//! `cpu_ns_per_op` is taken over.
//!
//! **Why a meter.** The box this benchmark is judged on is a two-vCPU
//! guest whose speed changes under it: the clock runs at one of several
//! discrete levels, 1.00 to 1.27 times the fastest time, for a fraction of
//! a second to half a minute at a time, and the host's other tenants
//! crowd its caches and its cores for minutes. Ten 15 s runs per workload,
//! timings as measured and the median slice reported, spread 12-50 % from
//! first to third quartile (`survey/raw-medians.txt`); no bound the driver
//! allows holds that. So every timed slice carries two readings of one
//! meter — a short fixed loop timed just before and just after it — and
//! its time is multiplied by [`NOMINAL_BURST_NS`] over their mean: the
//! time the slice would have taken on a box on which the meter's burst
//! takes 35 us. What is left after that is interference that only ever
//! slows a slice down, which the best-decile rule of [`crate::stats`]
//! removes.
//!
//! The loop is a multiply-add chain whose high bits pick words out of a
//! 128 KB table, summed, with a branch on what was loaded: like real code
//! it slows with the clock, with a busy sibling thread and with crowded
//! caches. Tried against a register-only chain and four independent
//! chains, six interleaved runs each of four workloads, it gave the
//! narrowest spread of `ops_per_s` on all four and half the range or less
//! on three (`survey/meter-candidates.txt`).
//!
//! The nominal box is a unit, not a calibration: the scaling has to be
//! the same in every run for two runs to compare, so it cannot be taken
//! from the run itself (the fastest reading of a 15 s run misses the
//! box's fastest level in one run in five, `survey/meter-levels.txt`).
//! On the recording box the fastest level reads 35.0 us, so its numbers
//! are true nanoseconds at full speed; every run prints its own fastest
//! reading, and times on that host at its own full speed are the reported
//! ones times that reading over 35 us.

use crate::sys;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The host's monotonic clock.
pub fn now() -> Instant {
    // simlint: allow(wall-clock) — a benchmark measures real elapsed time
    Instant::now()
}

/// Iterations of one meter burst.
const BURST_ITERS: u64 = 30_000;

/// Words in the meter's table: 128 KB, more than a first-level cache holds
/// and well inside a second-level one.
const TABLE_WORDS: usize = 16 * 1024;

/// What one burst takes on the nominal box, ns.
pub const NOMINAL_BURST_NS: f64 = 35_000.0;

/// The fastest meter reading of this process so far, ns (printed with the
/// results; nothing is scaled by it).
static FASTEST_NS: AtomicU64 = AtomicU64::new(u64::MAX);

fn burst_ns() -> u64 {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..TABLE_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 3)
            .collect()
    });
    let mask = TABLE_WORDS as u64 - 1;
    let t = now();
    let (mut a, mut b) = (black_box(1u64), black_box(7u64));
    for i in 0..BURST_ITERS {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        let word = table[((a >> 33) & mask) as usize];
        b = b.wrapping_add(word ^ i);
        if word & 1 == 1 {
            b = b.rotate_left(5);
        }
    }
    black_box(a ^ b);
    t.elapsed().as_nanos() as u64
}

/// One reading of the meter: ns the burst takes now. Best of three, so an
/// interrupt landing in one does not read as a slow box (and the first
/// brings the table back into the cache).
pub fn read_meter() -> f64 {
    let ns = (0..3).map(|_| burst_ns()).min().expect("three bursts");
    // ordering: a statistic that publishes no other data
    FASTEST_NS.fetch_min(ns, Ordering::Relaxed);
    ns as f64
}

/// The fastest reading so far, ns.
pub fn fastest_reading() -> f64 {
    // ordering: a statistic that publishes no other data
    FASTEST_NS.load(Ordering::Relaxed) as f64
}

/// Wall ns and calling-thread CPU ns of one timed stretch, with the meter
/// read just before and just after it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    pub wall_ns: u64,
    /// CPU ns of the thread that timed the stretch; equal to `wall_ns`
    /// where the platform has no per-thread CPU clock to read.
    pub cpu_ns: u64,
    pub meter_before: f64,
    pub meter_after: f64,
}

/// Two readings further apart than this mean the box's speed changed
/// during the stretch between them.
const STEADY_WITHIN: f64 = 0.02;

impl Lap {
    /// Factor that turns a time measured in the stretch into the time at
    /// the nominal clock.
    pub fn factor(&self) -> f64 {
        NOMINAL_BURST_NS / ((self.meter_before + self.meter_after) / 2.0)
    }

    /// Whether the box's speed held still over the stretch.
    pub fn steady(&self) -> bool {
        (self.meter_before - self.meter_after).abs()
            <= STEADY_WITHIN * self.meter_before.max(self.meter_after)
    }

    pub fn wall(&self) -> Scaled {
        (self.wall_ns as f64 * self.factor(), self.steady())
    }

    pub fn cpu(&self) -> Scaled {
        (self.cpu_ns as f64 * self.factor(), self.steady())
    }
}

/// A scaled time and whether the box's speed held still while it was taken.
pub type Scaled = (f64, bool);

#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    meter_before: f64,
    wall0: Instant,
    cpu0: Option<u64>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch::start_after(read_meter())
    }

    /// Starts a stretch that begins where another ended: `lap`'s closing
    /// reading serves both.
    pub fn start_after(meter_before: f64) -> Stopwatch {
        Stopwatch {
            meter_before,
            cpu0: sys::thread_cpu_ns(),
            wall0: now(),
        }
    }

    pub fn lap(&self) -> Lap {
        let wall_ns = self.wall0.elapsed().as_nanos() as u64;
        let cpu_ns = match (self.cpu0, sys::thread_cpu_ns()) {
            (Some(then), Some(now)) => now.saturating_sub(then),
            _ => wall_ns,
        };
        Lap {
            wall_ns,
            cpu_ns,
            meter_before: self.meter_before,
            meter_after: read_meter(),
        }
    }
}

/// Cuts a stretch of work into consecutive pieces: each [`Laps::lap`]
/// closes the piece begun at the previous one. A meter reading taken at a
/// boundary serves both pieces it separates; the time it takes belongs to
/// neither.
pub struct Laps {
    watch: Stopwatch,
    pub pieces: Vec<Lap>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            watch: Stopwatch::start(),
            pieces: Vec::new(),
        }
    }

    pub fn lap(&mut self) {
        let lap = self.watch.lap();
        self.watch = Stopwatch::start_after(lap.meter_after);
        self.pieces.push(lap);
    }
}

/// Times `f` on both clocks, metered.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Lap) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.lap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_busy_stretch_shows_on_both_clocks() {
        let (sum, lap) = timed(|| (0..2_000_000u64).fold(0u64, |a, i| a.wrapping_add(i * i)));
        black_box(sum);
        assert!(lap.wall_ns > 0 && lap.cpu_ns > 0, "{lap:?}");
        // An unoptimised build runs the meter many times slower; any
        // positive finite factor is a factor.
        assert!(lap.factor() > 0.0 && lap.factor().is_finite(), "{lap:?}");
        assert!(fastest_reading() <= lap.meter_before.min(lap.meter_after));
    }

    #[test]
    fn a_clock_change_under_a_stretch_is_noticed() {
        let lap = |before, after| Lap {
            meter_before: before,
            meter_after: after,
            ..Lap::default()
        };
        assert!(lap(35_000.0, 35_300.0).steady());
        assert!(!lap(35_000.0, 43_750.0).steady());
        assert!((lap(43_750.0, 43_750.0).factor() - 0.8).abs() < 1e-12);
    }
}
