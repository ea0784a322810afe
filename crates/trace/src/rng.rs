//! Deterministic seed derivation.
//!
//! Every experiment in this repository takes a single base seed; all
//! randomness (workload start jitter, packet spraying, marking ramps, run
//! repetition) is derived from it through [`derive_seed`] so that runs are
//! bit-for-bit reproducible regardless of thread scheduling or iteration
//! order.

/// A tiny, fast, well-mixed 64-bit PRNG (Vigna's SplitMix64).
///
/// The workspace's only generator (workload jitter, packet spraying, the
/// fuzzers, the property tests through [`cases`]) and the mixer behind
/// [`derive_seed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed is fine, including 0.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// Uses the widening-multiply technique (Lemire); bias is at most
    /// 2⁻⁶⁴·bound which is negligible for the bounds used here (≤ 2¹⁶ ports).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_bounded requires bound > 0");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Derives an independent sub-seed from a base seed and a stream label.
///
/// Mixing is done by running SplitMix64 over the concatenation, so
/// `derive_seed(s, a) != derive_seed(s, b)` for `a != b` with overwhelming
/// probability, and nearby labels produce unrelated streams.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut mixer =
        SplitMix64::new(base ^ stream.rotate_left(17).wrapping_mul(0xA24B_AED4_963E_E407));
    // A couple of extra rounds so that low-entropy (base, stream) pairs such
    // as (0, 0) and (0, 1) still land far apart.
    mixer.next_u64();
    mixer.next_u64()
}

/// Runs `body` on `n` seeded cases: case `i` draws from
/// `SplitMix64::new(derive_seed(seed, i))`, so the cases are a pure function
/// of `(seed, n)` and any one of them can be replayed alone.
///
/// # Panics
/// Re-raises a panic of `body` with the failing case and its replay seed
/// in front of the original message.
pub fn cases(seed: u64, n: u64, mut body: impl FnMut(u64, &mut SplitMix64)) {
    for case in 0..n {
        let mut rng = SplitMix64::new(derive_seed(seed, case));
        let run = std::panic::AssertUnwindSafe(|| body(case, &mut rng));
        if let Err(cause) = std::panic::catch_unwind(run) {
            let why = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("case {case} of {n}, replay with SplitMix64::new(derive_seed({seed}, {case})): {why}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_differs_across_seeds() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn bounded_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 8, 1000] {
            for _ in 0..1000 {
                assert!(rng.next_bounded(bound) < bound);
            }
        }
    }

    #[test]
    fn bounded_covers_all_values() {
        let mut rng = SplitMix64::new(9);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[rng.next_bounded(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 outcomes should appear");
    }

    #[test]
    #[should_panic(expected = "bound > 0")]
    fn bounded_zero_panics() {
        SplitMix64::new(0).next_bounded(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn derive_seed_distinguishes_streams() {
        let base = 123;
        let seeds: Vec<u64> = (0..100).map(|s| derive_seed(base, s)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "collision among derived seeds");
    }

    #[test]
    fn derive_seed_distinguishes_low_entropy_pairs() {
        assert_ne!(derive_seed(0, 0), derive_seed(0, 1));
        assert_ne!(derive_seed(0, 0), derive_seed(1, 0));
    }

    #[test]
    fn cases_are_a_pure_function_of_seed_and_count() {
        let draw = |seed, n| {
            let mut seen = Vec::new();
            cases(seed, n, |case, rng| {
                seen.push((case, rng.next_u64(), rng.next_u64()))
            });
            seen
        };
        let a = draw(5, 40);
        assert_eq!(a, draw(5, 40));
        assert_eq!(a[..10], draw(5, 10)[..]);
        assert_ne!(a, draw(6, 40));
        for (i, &(case, first, _)) in a.iter().enumerate() {
            assert_eq!(case, i as u64);
            assert_eq!(first, SplitMix64::new(derive_seed(5, case)).next_u64());
        }
    }

    #[test]
    fn a_panicking_case_is_named_with_its_replay_seed() {
        let mut ran = 0;
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cases(7, 10, |case, _| {
                ran += 1;
                assert!(case != 3, "boom at {case}");
            })
        }));
        let cause = failed.expect_err("case 3 panics");
        let message = cause.downcast_ref::<String>().expect("formatted panic");
        assert!(message.starts_with("case 3 of 10,"), "{message}");
        assert!(message.contains("derive_seed(7, 3)"), "{message}");
        assert!(message.ends_with("boom at 3"), "{message}");
        assert_eq!(ran, 4, "cases after the failing one must not run");
    }
}
