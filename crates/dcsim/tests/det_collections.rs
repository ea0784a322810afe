//! Property tests for sim-state ordering (`dcsim::det`).
//!
//! Iteration order over ordered sim state must be a pure function of the
//! key set, independent of insertion history — the invariant the
//! simulator's replay identity rests on, and the reason sim state is a
//! `BTreeMap`. `IdMap` is model-checked against a `BTreeMap` under random
//! insert/remove interleavings, over the key shapes a hash table is
//! weakest on.

use dcsim::det::IdMap;
use std::collections::BTreeMap;
use std::ops::Range;
use trace::{cases, SplitMix64};

/// Between `len.start` and `len.end - 1` fuzzed words.
fn words(rng: &mut SplitMix64, len: Range<u64>) -> Vec<u64> {
    let n = len.start + rng.next_bounded(len.end - len.start);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Iteration order is a pure function of the key set: inserting the
/// same pairs in forward, reverse, or interleaved order yields the
/// identical key sequence. (This is exactly the property HashMap
/// lacks, and the reason the NACK scheduler can iterate a BTreeMap
/// without a sort step.)
#[test]
fn btreemap_iteration_order_ignores_insertion_history() {
    cases(203, 256, |_, rng| {
        let keys: Vec<u32> = words(rng, 1..200)
            .iter()
            .map(|w| (w % 10_000) as u32)
            .collect();
        let forward: BTreeMap<u32, u32> = keys.iter().map(|&k| (k, k)).collect();
        let reverse: BTreeMap<u32, u32> = keys.iter().rev().map(|&k| (k, k)).collect();
        let mut interleaved: BTreeMap<u32, u32> = BTreeMap::new();
        for (i, &k) in keys.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            interleaved.insert(k, i as u32);
        }
        for (i, &k) in keys.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            interleaved.insert(k, i as u32);
        }
        for (i, &k) in keys.iter().enumerate() {
            interleaved.insert(k, i as u32); // restore k -> k via overwrite order
            interleaved.insert(k, k);
        }
        let a: Vec<u32> = forward.keys().copied().collect();
        let b: Vec<u32> = reverse.keys().copied().collect();
        let c: Vec<u32> = interleaved.keys().copied().collect();
        assert_eq!(&a, &b);
        assert_eq!(&a, &c);
        let mut sorted: Vec<u32> = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(a, sorted);
    });
}

/// The key pools `IdMap` is checked over: the extremes, sequential ids,
/// ids strided by a power of two (they differ only in high bits, or only
/// in low ones), and random ids.
fn id_pool(rng: &mut SplitMix64) -> Vec<u64> {
    let n = 1 + rng.next_bounded(48);
    let base = rng.next_u64() >> 1;
    match rng.next_bounded(4) {
        0 => vec![0, 1, 2, u64::MAX, u64::MAX - 1, 1 << 63, u64::MAX >> 1],
        1 => (base..base + n).collect(),
        2 => {
            let stride = rng.next_bounded(64);
            (0..n).map(|k| k.wrapping_shl(stride as u32)).collect()
        }
        _ => (0..n).map(|_| rng.next_u64()).collect(),
    }
}

/// IdMap agrees with a BTreeMap model after every operation of a random
/// insert / overwrite / update / remove interleaving, and every view it
/// has comes out exactly as the model's key-ordered one.
#[test]
fn idmap_matches_btreemap_model() {
    cases(205, 256, |_, rng| {
        let pool = id_pool(rng);
        let mut map: IdMap<u64, u64> = IdMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for word in words(rng, 1..400) {
            let key = pool[(word % pool.len() as u64) as usize];
            let val = word >> 32;
            match (word >> 8) % 4 {
                0 | 1 => assert_eq!(map.insert(key, val), model.insert(key, val)),
                2 => assert_eq!(map.remove(&key), model.remove(&key)),
                _ => {
                    if let Some(v) = map.get_mut(&key) {
                        *v += 1;
                    }
                    if let Some(v) = model.get_mut(&key) {
                        *v += 1;
                    }
                }
            }
            assert_eq!(map.len(), model.len());
            assert_eq!(map.is_empty(), model.is_empty());
            assert_eq!(map.get(&key), model.get(&key));
        }
        for key in &pool {
            assert_eq!(map.get(key), model.get(key));
        }
        let sorted: Vec<(u64, u64)> = map.sorted().into_iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(sorted, want);
        let odd: Vec<u64> = model
            .iter()
            .filter(|(_, v)| *v % 2 == 1)
            .map(|(&k, _)| k)
            .collect();
        assert_eq!(map.sorted_keys_where(|v| v % 2 == 1), odd);
        assert_eq!(map.min_of(|&v| Some(v)), model.values().min().copied());
        assert_eq!(map.min_of(|_| None::<u64>), None);
        assert_eq!(
            format!("{map:?}"),
            format!("{model:?}"),
            "Debug prints in key order"
        );
    });
}
