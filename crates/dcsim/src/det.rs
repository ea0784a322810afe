//! Deterministic sim-state collections.
//!
//! The simulator's reproducibility guarantee — same seed, bit-identical
//! run — holds only if every iteration a simulation makes over its own
//! state visits elements in an order that is a pure function of the data,
//! never of hasher seeds or allocation history. `std::collections::HashMap`
//! breaks that: its iteration order varies per process, and two latent
//! nondeterminism bugs (NACK emission order in the detecting proxy,
//! congestion-point trace clipping) have already shipped through it.
//!
//! This module is the sanctioned replacement, enforced by the `simlint`
//! workspace linter (see `crates/simlint`): simulation-path crates store
//! keyed state in [`DetMap`]/[`DetSet`] — thin [`BTreeMap`]/[`BTreeSet`]
//! wrappers with a `HashMap`-shaped API whose iteration order is the key
//! order — or, when arrival order is the meaningful order, in [`SeqMap`],
//! which iterates in insertion order while staying exactly as
//! deterministic.
//!
//! The wrappers are intentionally thin: the point is a *named* type that
//! documents the determinism contract at the field declaration and gives
//! the linter an unambiguous whitelist, not a new data structure. Lookup
//! is `O(log n)` instead of `O(1)`, which the simulator's own maps (flows
//! through one proxy, destinations per epoch) do not feel. The lease
//! plane did: with its leases and loads in B-trees, tree walks were about
//! 80 % of the CPU of every select, release and renew.
//!
//! For state like that there is [`IdMap`], a hash table keyed by integer
//! ids. Its rule: it answers lookups (`get`, `get_mut`, `insert`,
//! `remove`) and nothing hands out its hash order. Every view over more
//! than one entry — [`IdMap::sorted`], [`IdMap::sorted_keys_where`] —
//! comes out in key order, and [`IdMap::min_of`] returns a minimum, which
//! is the same whatever order the entries were visited in. Keys hash
//! through SplitMix64's output function, not a secret-keyed hasher: the
//! ids it holds are the operator's incast and host ids, never bytes read
//! off a socket, so there is no adversary to flood one bucket.

use std::borrow::Borrow;
use std::collections::{btree_map, btree_set, BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Index;
use trace::SplitMix64;

/// Re-exported entry type of [`DetMap::entry`]: the full `BTreeMap` entry
/// API (`or_insert`, `or_default`, `or_insert_with`, `and_modify`, ...),
/// which is a drop-in for `HashMap`'s.
pub use std::collections::btree_map::Entry;

/// An order-deterministic map: `HashMap`-shaped API, iteration in key
/// order. The default sim-state map.
#[derive(Clone, PartialEq, Eq)]
pub struct DetMap<K, V> {
    inner: BTreeMap<K, V>,
}

impl<K: Ord, V> DetMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DetMap {
            inner: BTreeMap::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts a key-value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    /// Looks up a key.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.inner.get(key)
    }

    /// Looks up a key, mutably.
    pub fn get_mut<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.inner.get_mut(key)
    }

    /// True when the key is present.
    pub fn contains_key<Q: Ord + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.inner.contains_key(key)
    }

    /// Removes a key, returning its value if it was present.
    pub fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.inner.remove(key)
    }

    /// The in-place entry API (identical semantics to `HashMap::entry`).
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.inner.entry(key)
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> btree_map::Iter<'_, K, V> {
        self.inner.iter()
    }

    /// Iterates entries in key order with mutable values.
    pub fn iter_mut(&mut self) -> btree_map::IterMut<'_, K, V> {
        self.inner.iter_mut()
    }

    /// Iterates keys in order.
    pub fn keys(&self) -> btree_map::Keys<'_, K, V> {
        self.inner.keys()
    }

    /// Iterates values in key order.
    pub fn values(&self) -> btree_map::Values<'_, K, V> {
        self.inner.values()
    }

    /// Iterates values in key order, mutably.
    pub fn values_mut(&mut self) -> btree_map::ValuesMut<'_, K, V> {
        self.inner.values_mut()
    }

    /// Keeps only the entries the predicate approves.
    pub fn retain(&mut self, f: impl FnMut(&K, &mut V) -> bool) {
        self.inner.retain(f);
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Empties the map, yielding the entries in key order (the
    /// deterministic analogue of `HashMap::drain`).
    pub fn drain(&mut self) -> btree_map::IntoIter<K, V> {
        std::mem::take(&mut self.inner).into_iter()
    }
}

impl<K: Ord, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<K: Ord + Borrow<Q>, Q: Ord + ?Sized, V> Index<&Q> for DetMap<K, V> {
    type Output = V;

    fn index(&self, key: &Q) -> &V {
        self.inner.get(key).expect("no entry found for key")
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        DetMap {
            inner: BTreeMap::from_iter(iter),
        }
    }
}

impl<K: Ord, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        self.inner.extend(iter);
    }
}

impl<K: Ord, V, const N: usize> From<[(K, V); N]> for DetMap<K, V> {
    fn from(entries: [(K, V); N]) -> Self {
        entries.into_iter().collect()
    }
}

impl<K: Ord, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = btree_map::IntoIter<K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = btree_map::Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a mut DetMap<K, V> {
    type Item = (&'a K, &'a mut V);
    type IntoIter = btree_map::IterMut<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter_mut()
    }
}

/// An order-deterministic set: `HashSet`-shaped API, iteration in element
/// order.
#[derive(Clone, PartialEq, Eq)]
pub struct DetSet<T> {
    inner: BTreeSet<T>,
}

impl<T: Ord> DetSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        DetSet {
            inner: BTreeSet::new(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no elements are held.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts an element; returns true if it was new.
    pub fn insert(&mut self, value: T) -> bool {
        self.inner.insert(value)
    }

    /// True when the element is present.
    pub fn contains<Q: Ord + ?Sized>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        self.inner.contains(value)
    }

    /// Removes an element; returns true if it was present.
    pub fn remove<Q: Ord + ?Sized>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        self.inner.remove(value)
    }

    /// Iterates elements in order.
    pub fn iter(&self) -> btree_set::Iter<'_, T> {
        self.inner.iter()
    }

    /// Keeps only the elements the predicate approves.
    pub fn retain(&mut self, f: impl FnMut(&T) -> bool) {
        self.inner.retain(f);
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

impl<T: Ord> Default for DetSet<T> {
    fn default() -> Self {
        DetSet::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for DetSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: Ord> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        DetSet {
            inner: BTreeSet::from_iter(iter),
        }
    }
}

impl<T: Ord> Extend<T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.inner.extend(iter);
    }
}

impl<T: Ord> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter = btree_set::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

impl<'a, T: Ord> IntoIterator for &'a DetSet<T> {
    type Item = &'a T;
    type IntoIter = btree_set::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

/// Hashes each integer written through SplitMix64's output function, so
/// a lone `u64` key `k` hashes to `SplitMix64::new(k).next_u64()`, and
/// a `u32` (or a newtype over one, like `HostId`) to the same of its
/// widened value. Sequential ids and ids strided by powers of two spread
/// over every bit, which the table's bucket index and tag both read.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = SplitMix64::new(self.0 ^ n).next_u64();
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// simlint: allow(hash-collections) — IdMap is the only door to this table, and none of its methods yields entries in hash order: lookups, key-sorted views and an order-free minimum
type IdTable<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A lookup-only hash table keyed by integer ids: `O(1)` `get`, `get_mut`,
/// `insert` and `remove`, and no iteration in hash order. Views over many
/// entries come out in key order ([`IdMap::sorted`],
/// [`IdMap::sorted_keys_where`]) and cost a sort, so they belong at
/// crash, expiry and audit time, not on a per-decision path. `Debug`
/// prints in key order too.
#[derive(Clone)]
pub struct IdMap<K, V> {
    inner: IdTable<K, V>,
}

impl<K: Copy + Ord + Hash, V> IdMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        IdMap {
            inner: IdTable::default(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.inner.get(key)
    }

    /// Looks up a key, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.inner.get_mut(key)
    }

    /// Inserts a key-value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    /// Removes a key, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.inner.remove(key)
    }

    /// Every entry, in key order.
    pub fn sorted(&self) -> Vec<(K, &V)> {
        let mut entries: Vec<(K, &V)> = self.inner.iter().map(|(&k, v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }

    /// The keys whose values `select` approves, in key order. `select`
    /// cannot mutate what it captures, so the order it is called in
    /// cannot leak out.
    pub fn sorted_keys_where(&self, select: impl Fn(&V) -> bool) -> Vec<K> {
        let mut keys: Vec<K> = self
            .inner
            .iter()
            .filter(|(_, v)| select(v))
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The least `measure` over the entries it returns `Some` for. A
    /// minimum of totally ordered values does not depend on the order the
    /// entries were visited in.
    pub fn min_of<T: Ord>(&self, measure: impl Fn(&V) -> Option<T>) -> Option<T> {
        self.inner.values().filter_map(measure).min()
    }
}

impl<K: Copy + Ord + Hash, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap::new()
    }
}

impl<K: Copy + Ord + Hash + fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.sorted()).finish()
    }
}

/// The insertion-order option: a deterministic map that iterates in the
/// order keys were *first inserted* (re-inserting an existing key updates
/// the value in place and keeps its original position, like `HashMap`).
///
/// Use this instead of [`DetMap`] when arrival order is the semantically
/// meaningful order — e.g. "the first sender observed decides the
/// datacenter of an incast". Removal is `O(n)` (order-preserving shift),
/// which is fine for the small, rarely-removed maps it is meant for.
#[derive(Clone)]
pub struct SeqMap<K, V> {
    /// Entries in insertion order.
    entries: Vec<(K, V)>,
    /// Key → position in `entries`.
    index: BTreeMap<K, usize>,
}

impl<K: Ord + Clone, V> SeqMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SeqMap {
            entries: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a key-value pair, returning the previous value if any. An
    /// existing key keeps its insertion position.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.index.entry(key.clone()) {
            btree_map::Entry::Occupied(slot) => {
                let old = std::mem::replace(&mut self.entries[*slot.get()].1, value);
                Some(old)
            }
            btree_map::Entry::Vacant(slot) => {
                slot.insert(self.entries.len());
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&pos| &self.entries[pos].1)
    }

    /// Looks up a key, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.index.get(key).map(|&pos| &mut self.entries[pos].1)
    }

    /// True when the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Returns the value for `key`, inserting `default()` first if absent
    /// (the one entry-API shape the sim code uses on arrival-ordered maps).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let pos = match self.index.entry(key.clone()) {
            btree_map::Entry::Occupied(slot) => *slot.get(),
            btree_map::Entry::Vacant(slot) => {
                let pos = self.entries.len();
                slot.insert(pos);
                self.entries.push((key, default()));
                pos
            }
        };
        &mut self.entries[pos].1
    }

    /// Removes a key, returning its value if it was present. Later entries
    /// keep their relative order.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let pos = self.index.remove(key)?;
        let (_, value) = self.entries.remove(pos);
        for slot in self.index.values_mut() {
            if *slot > pos {
                *slot -= 1;
            }
        }
        Some(value)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }
}

impl<K: Ord + Clone, V> Default for SeqMap<K, V> {
    fn default() -> Self {
        SeqMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for SeqMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<K: Ord + Clone, V> FromIterator<(K, V)> for SeqMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = SeqMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Ord + Clone, V> IntoIterator for SeqMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detmap_iterates_in_key_order_regardless_of_insertion() {
        let mut a = DetMap::new();
        for k in [5, 1, 9, 3] {
            a.insert(k, k * 10);
        }
        let mut b = DetMap::new();
        for k in [3, 9, 1, 5] {
            b.insert(k, k * 10);
        }
        let ka: Vec<i32> = a.keys().copied().collect();
        let kb: Vec<i32> = b.keys().copied().collect();
        assert_eq!(ka, vec![1, 3, 5, 9]);
        assert_eq!(ka, kb, "iteration order is a pure function of the keys");
    }

    #[test]
    fn detmap_entry_matches_hashmap_semantics() {
        let mut m: DetMap<&str, u64> = DetMap::new();
        *m.entry("a").or_insert(0) += 1;
        *m.entry("a").or_insert(0) += 1;
        m.entry("b").or_default();
        assert_eq!(m.get(&"a"), Some(&2));
        assert_eq!(m.get(&"b"), Some(&0));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn detmap_drain_empties_in_key_order() {
        let mut m: DetMap<u32, &str> = [(2, "b"), (1, "a")].into();
        let drained: Vec<(u32, &str)> = m.drain().collect();
        assert_eq!(drained, vec![(1, "a"), (2, "b")]);
        assert!(m.is_empty());
    }

    #[test]
    fn detset_orders_elements() {
        let s: DetSet<u32> = [3, 1, 2].into_iter().collect();
        let v: Vec<u32> = s.iter().copied().collect();
        assert_eq!(v, vec![1, 2, 3]);
        assert!(s.contains(&2));
    }

    #[test]
    fn idmap_hashes_an_id_through_splitmix() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        for k in [0u64, 1, 7, u64::MAX] {
            assert_eq!(build.hash_one(k), SplitMix64::new(k).next_u64());
        }
        assert_eq!(
            build.hash_one(7u32),
            SplitMix64::new(7).next_u64(),
            "a u32 id widens"
        );
    }

    #[test]
    fn seqmap_preserves_insertion_order() {
        let mut m = SeqMap::new();
        m.insert("c", 1);
        m.insert("a", 2);
        m.insert("b", 3);
        m.insert("a", 20); // update keeps position
        let keys: Vec<&str> = m.keys().copied().collect();
        assert_eq!(keys, vec!["c", "a", "b"]);
        assert_eq!(m.get(&"a"), Some(&20));
    }

    #[test]
    fn seqmap_remove_shifts_without_reordering() {
        let mut m: SeqMap<u32, u32> = (0..5).map(|k| (k, k)).collect();
        assert_eq!(m.remove(&2), Some(2));
        assert_eq!(m.remove(&2), None);
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![0, 1, 3, 4]);
        assert_eq!(m.get(&4), Some(&4), "indices repaired after the shift");
        m.insert(2, 99);
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![0, 1, 3, 4, 2], "re-insert goes to the back");
    }

    #[test]
    fn seqmap_get_or_insert_with() {
        let mut m: SeqMap<u32, Vec<u32>> = SeqMap::new();
        m.get_or_insert_with(7, Vec::new).push(1);
        m.get_or_insert_with(7, Vec::new).push(2);
        assert_eq!(m.get(&7), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }
}
