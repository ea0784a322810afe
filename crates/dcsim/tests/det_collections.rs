//! Property tests for the deterministic collections (`dcsim::det`).
//!
//! `DetMap`/`DetSet` are model-checked against `std::collections::BTreeMap`
//! / `BTreeSet` under random insert/remove interleavings: after every
//! operation the wrapper must agree with the model on length, membership,
//! and full iteration contents. A second family of properties checks the
//! *determinism* contract itself — iteration order is a pure function of
//! the key set, independent of insertion history — which is the invariant
//! the simulator's replay identity rests on. `IdMap` is model-checked the
//! same way, over the key shapes a hash table is weakest on.

use dcsim::det::{DetMap, DetSet, IdMap, SeqMap};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use trace::{cases, SplitMix64};

/// Between `len.start` and `len.end - 1` fuzzed words.
fn words(rng: &mut SplitMix64, len: Range<u64>) -> Vec<u64> {
    let n = len.start + rng.next_bounded(len.end - len.start);
    (0..n).map(|_| rng.next_u64()).collect()
}
/// Decodes one fuzzed word into (op, key, value). Keys live in a small
/// space (0..16) so inserts, overwrites, and removes of the *same* key
/// actually collide.
fn decode(word: u64) -> (u64, u16, u64) {
    (word % 4, ((word >> 2) % 16) as u16, word >> 8)
}

/// DetMap agrees with a BTreeMap model after every operation of a
/// random insert / overwrite / remove / entry-or-insert interleaving.
#[test]
fn detmap_matches_btreemap_model() {
    cases(201, 256, |_, rng| {
        let ops = words(rng, 1..400);
        let mut map: DetMap<u16, u64> = DetMap::new();
        let mut model: BTreeMap<u16, u64> = BTreeMap::new();
        for &word in &ops {
            let (op, key, val) = decode(word);
            match op {
                0 | 1 => {
                    assert_eq!(map.insert(key, val), model.insert(key, val));
                }
                2 => {
                    assert_eq!(map.remove(&key), model.remove(&key));
                }
                _ => {
                    let got = *map.entry(key).or_insert(val);
                    let want = *model.entry(key).or_insert(val);
                    assert_eq!(got, want);
                }
            }
            assert_eq!(map.len(), model.len());
            assert_eq!(map.get(&key).copied(), model.get(&key).copied());
        }
        let got: Vec<(u16, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u16, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
    });
}

/// DetSet agrees with a BTreeSet model under random insert/remove.
#[test]
fn detset_matches_btreeset_model() {
    cases(202, 256, |_, rng| {
        let ops = words(rng, 1..400);
        let mut set: DetSet<u16> = DetSet::new();
        let mut model: BTreeSet<u16> = BTreeSet::new();
        for &word in &ops {
            let (op, key, _) = decode(word);
            if op < 3 {
                assert_eq!(set.insert(key), model.insert(key));
            } else {
                assert_eq!(set.remove(&key), model.remove(&key));
            }
            assert_eq!(set.len(), model.len());
            assert_eq!(set.contains(&key), model.contains(&key));
        }
        let got: Vec<u16> = set.iter().copied().collect();
        let want: Vec<u16> = model.iter().copied().collect();
        assert_eq!(got, want);
    });
}

/// Iteration order is a pure function of the key set: inserting the
/// same pairs in forward, reverse, or interleaved order yields the
/// identical key sequence. (This is exactly the property HashMap
/// lacks, and the reason the NACK scheduler can iterate a DetMap
/// without a sort step.)
#[test]
fn detmap_iteration_order_ignores_insertion_history() {
    cases(203, 256, |_, rng| {
        let keys: Vec<u32> = words(rng, 1..200)
            .iter()
            .map(|w| (w % 10_000) as u32)
            .collect();
        let forward: DetMap<u32, u32> = keys.iter().map(|&k| (k, k)).collect();
        let reverse: DetMap<u32, u32> = keys.iter().rev().map(|&k| (k, k)).collect();
        let mut interleaved: DetMap<u32, u32> = DetMap::new();
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

/// SeqMap iterates in first-insertion order, matching a Vec model
/// under random insert / overwrite / remove: overwrites keep the
/// original position, removals shift, re-inserts go to the back.
#[test]
fn seqmap_preserves_insertion_order() {
    cases(204, 256, |_, rng| {
        let ops = words(rng, 1..300);
        let mut map: SeqMap<u16, u64> = SeqMap::new();
        let mut model: Vec<(u16, u64)> = Vec::new();
        for &word in &ops {
            let (op, key, val) = decode(word);
            match op {
                0 | 1 => {
                    map.insert(key, val);
                    match model.iter_mut().find(|(k, _)| *k == key) {
                        Some(slot) => slot.1 = val,
                        None => model.push((key, val)),
                    }
                }
                2 => {
                    let expect = model.iter().position(|(k, _)| *k == key);
                    let removed = map.remove(&key);
                    match expect {
                        Some(pos) => {
                            let (_, v) = model.remove(pos);
                            assert_eq!(removed, Some(v));
                        }
                        None => assert_eq!(removed, None),
                    }
                }
                _ => {
                    let got = *map.get_or_insert_with(key, || val);
                    match model.iter().find(|(k, _)| *k == key) {
                        Some(&(_, v)) => assert_eq!(got, v),
                        None => {
                            model.push((key, val));
                            assert_eq!(got, val);
                        }
                    }
                }
            }
            assert_eq!(map.len(), model.len());
        }
        let got: Vec<(u16, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, model);
    });
}

/// Entry-API smoke test: or_insert, or_insert_with, and_modify, and the
/// occupied/vacant split all behave like BTreeMap's (they *are*
/// BTreeMap's — the type is re-exported — but the wrapper must route to
/// it correctly).
#[test]
fn detmap_entry_api_smoke() {
    let mut map: DetMap<&str, u64> = DetMap::new();
    *map.entry("a").or_insert(1) += 10;
    assert_eq!(map.get("a"), Some(&11));
    map.entry("a").and_modify(|v| *v *= 2).or_insert(0);
    assert_eq!(map.get("a"), Some(&22));
    map.entry("b").and_modify(|v| *v *= 2).or_insert(7);
    assert_eq!(map.get("b"), Some(&7));
    let v = map.entry("c").or_insert_with(|| 3);
    assert_eq!(*v, 3);
    assert_eq!(map.len(), 3);
    assert_eq!(
        map.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
        vec![("a", 22), ("b", 7), ("c", 3)]
    );
}
