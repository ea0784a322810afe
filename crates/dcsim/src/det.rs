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
//! The rule, enforced by the `simlint` workspace linter (see
//! `crates/simlint`): ordered sim state is a `BTreeMap` or `BTreeSet`, and
//! the one hash table is [`IdMap`].
//!
//! A B-tree lookup is `O(log n)`, which the simulator's own maps (flows
//! through one proxy, destinations per epoch) do not feel. The lease
//! plane did: with its leases and loads in B-trees, tree walks were about
//! 80 % of the CPU of every select, release and renew. For state like
//! that there is [`IdMap`], a hash table keyed by integer ids. Its rule:
//! it answers lookups (`get`, `get_mut`, `insert`, `remove`) and nothing
//! hands out its hash order. Every view over more than one entry —
//! [`IdMap::sorted`], [`IdMap::sorted_keys_where`] — comes out in key
//! order, and [`IdMap::min_of`] returns a minimum, which is the same
//! whatever order the entries were visited in. Keys hash through
//! SplitMix64's output function, not a secret-keyed hasher: the ids it
//! holds are the operator's incast and host ids, never bytes read off a
//! socket, so there is no adversary to flood one bucket.

use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use trace::SplitMix64;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
