//! Order statistics for the benchmark's own samples.
//!
//! A run's measured section is cut into slices of identical work (relay:
//! 125 ms of the closed loop; sim: one run of one case, the same seed
//! every round; ctrl: one repetition). Every timing is computed per slice,
//! scaled to the run's fastest clock (see `clock`), and the value reported
//! is the *best decile* of the slices — the value one slice in ten beats;
//! the median, quartiles and count of the slices are printed beside it.
//! One rule for every timing of every workload; `setup_s` alone is the
//! median of its fifteen set-ups, as the driver's contract asks.
//!
//! Why not the median: once the clock rate is divided out, what is left on
//! the judging box is interference from the host's other tenants — cache
//! and memory contention, the hypervisor taking the CPU away — which only
//! ever slows a slice down and at times covers most of a 15 s run, so the
//! median moves with it (`survey/`). Why not the single best slice: it is
//! the luckiest of a hundred, and the luck has a cause — a slice during
//! which the clock briefly ran faster than both readings around it is
//! scaled too far. One slice in ten beating the reported value leaves room
//! for those; nine in ten being allowed to be disturbed leaves room for
//! the interference. Slices whose two meter readings disagree (the clock
//! changed under them) are set aside first, unless none agree.

use crate::clock::{Lap, Scaled};
use crate::spec::Better;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN — both are bugs in the harness.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
    v
}

/// The best decile of `values`: the 10th percentile when lower is better,
/// the 90th when higher is (interpolated between ranks). Values whose
/// clock did not hold still are set aside, unless none did.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn best_decile(values: &[Scaled], better: Better) -> f64 {
    let mut pool = sorted(values.iter().filter(|v| v.1).map(|v| v.0));
    if pool.is_empty() {
        pool = sorted(values.iter().map(|v| v.0));
    }
    let p = match better {
        Better::Lower => 10.0,
        Better::Higher => 90.0,
    };
    trace::percentile_of_sorted(&pool, p)
}

/// The time of pieces `which` of a stretch of work that was repeated, each
/// repetition timed in the same consecutive pieces: every piece at its
/// best decile over `reps`, summed. Pieces of one kind of work are
/// repetitions of one slice even when the whole stretch is not.
pub fn best_sum(
    reps: &[&[Lap]],
    which: impl Iterator<Item = usize>,
    pick: fn(&Lap) -> Scaled,
) -> f64 {
    which
        .map(|i| {
            let piece: Vec<Scaled> = reps.iter().map(|r| pick(&r[i])).collect();
            best_decile(&piece, Better::Lower)
        })
        .sum()
}

/// A reported metric: the value the driver judges, with the median,
/// quartiles and count of the per-slice values behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stat {
    /// `value` with the median and quartiles of `slices`. Quartiles are
    /// linear interpolations at ranks 0.25 and 0.75 of the sorted samples
    /// (`trace::percentile_of_sorted`); with one sample all three agree.
    pub fn over(value: f64, slices: impl Iterator<Item = f64>) -> Stat {
        let sorted = sorted(slices);
        Stat {
            value,
            median: median(&sorted),
            q1: trace::percentile_of_sorted(&sorted, 25.0),
            q3: trace::percentile_of_sorted(&sorted, 75.0),
            n: sorted.len(),
        }
    }

    /// The best decile of the slices.
    pub fn best(slices: &[Scaled], better: Better) -> Stat {
        Stat::over(best_decile(slices, better), slices.iter().map(|s| s.0))
    }

    /// The median of the values (`setup_s`).
    pub fn median(values: &[f64]) -> Stat {
        Stat::over(median(values), values.iter().copied())
    }

    /// A single exact value (counts, peak memory).
    pub fn exact(value: f64) -> Stat {
        Stat::over(value, [value].into_iter())
    }

    pub fn scaled(self, k: f64) -> Stat {
        Stat {
            value: self.value * k,
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            n: self.n,
        }
    }
}

/// The `q`-quantile of integer samples as a continuous value: the
/// sample at rank `q·n`, interpolated within its group of ties (the
/// grouped-data quantile). Samples are whole nanoseconds, so a plain
/// quantile of a sharp distribution reads the same integer run after
/// run; this one moves when the distribution around it moves. Reorders
/// `samples`.
///
/// # Panics
/// Panics on an empty slice.
pub fn grouped_quantile(samples: &mut [u32], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let n = samples.len();
    let target = (q * n as f64).clamp(0.0, n as f64);
    let rank = (target.ceil() as usize).clamp(1, n) - 1;
    let (_, &mut v, _) = samples.select_nth_unstable(rank);
    let below = samples.iter().filter(|&&x| x < v).count() as f64;
    let equal = samples.iter().filter(|&&x| x == v).count() as f64;
    // `v` stands for the interval [v - 0.5, v + 0.5) holding `equal` samples.
    v as f64 - 0.5 + ((target - below) / equal).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn stat_carries_median_and_quartiles() {
        let s = Stat::median(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(
            (s.q1, s.value, s.median, s.q3, s.n),
            (2.0, 3.0, 3.0, 4.0, 5)
        );
        assert_eq!(Stat::exact(3.5).q3, 3.5);
        assert_eq!(Stat::median(&[2.0, 4.0]).scaled(0.5).value, 1.5);
    }

    #[test]
    fn best_decile_follows_direction() {
        let v: Vec<Scaled> = (0..=10).map(|i| (f64::from(i), true)).collect();
        assert_eq!(best_decile(&v, Better::Lower), 1.0);
        assert_eq!(best_decile(&v, Better::Higher), 9.0);
        assert_eq!(best_decile(&[(7.0, true)], Better::Lower), 7.0);
        let s = Stat::best(&v, Better::Lower);
        assert_eq!((s.value, s.median, s.n), (1.0, 5.0, 11));
    }

    #[test]
    fn unsteady_slices_are_set_aside() {
        let v = [(5.0, true), (1.0, false), (4.0, true), (6.0, true)];
        assert!((best_decile(&v, Better::Lower) - 4.2).abs() < 1e-12);
        assert_eq!(Stat::best(&v, Better::Lower).n, 4);
        let none_steady = [(5.0, false), (2.0, false)];
        assert!((best_decile(&none_steady, Better::Lower) - 2.3).abs() < 1e-12);
    }

    #[test]
    fn neither_lucky_nor_disturbed_slices_set_the_reported_value() {
        // Twenty slices: one reads impossibly well (the clock blipped
        // under it), fifteen are disturbed, four are honest.
        let mut per_slice = vec![50.0, 100.0, 100.5, 101.0, 99.5];
        per_slice.extend((0..15).map(|i| 5000.0 + f64::from(i)));
        let v: Vec<Scaled> = per_slice.into_iter().map(|x| (x, true)).collect();
        let q = best_decile(&v, Better::Lower);
        assert!((99.5..=101.0).contains(&q), "{q}");
    }

    #[test]
    fn best_sum_takes_each_piece_at_its_own_best() {
        use crate::clock::NOMINAL_BURST_NS;
        let lap = |wall_ns| Lap {
            wall_ns,
            cpu_ns: wall_ns,
            meter_before: NOMINAL_BURST_NS,
            meter_after: NOMINAL_BURST_NS,
        };
        // Two pieces, three repetitions; each repetition had one piece
        // disturbed or none, never the same one.
        let reps = [
            vec![lap(100), lap(900)],
            vec![lap(500), lap(200)],
            vec![lap(100), lap(200)],
        ];
        let reps: Vec<&[Lap]> = reps.iter().map(Vec::as_slice).collect();
        assert_eq!(best_sum(&reps, 0..2, Lap::wall), 300.0);
        assert_eq!(best_sum(&reps, 1..2, Lap::cpu), 200.0);
    }

    #[test]
    fn grouped_quantile_interpolates_within_ties() {
        // 10 samples: 3 x 100, 4 x 101, 3 x 102. The median falls in the
        // 101 group, half way through it: 100.5 + (5 - 3) / 4 = 101.0.
        let mut s = [100, 100, 100, 101, 101, 101, 101, 102, 102, 102];
        assert!((grouped_quantile(&mut s, 0.5) - 101.0).abs() < 1e-12);
        // One more 100 shifts it down by a fraction of a nanosecond.
        let mut t = [100, 100, 100, 100, 101, 101, 101, 101, 102, 102, 102];
        let q = grouped_quantile(&mut t, 0.5);
        assert!(q < 101.0 && q > 100.5, "{q}");
        // Extremes stay within the outermost groups.
        let mut u = [7, 9];
        assert!((grouped_quantile(&mut u, 0.0) - 6.5).abs() < 1e-12);
        assert!((grouped_quantile(&mut u, 1.0) - 9.5).abs() < 1e-12);
        let mut one = [42];
        assert!((grouped_quantile(&mut one, 0.99) - 42.49).abs() < 1e-9);
    }
}
