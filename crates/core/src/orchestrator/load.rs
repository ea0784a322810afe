//! The load book: per-candidate load, kept in load order.
//!
//! Every selector answers the same question — *which eligible, healthy
//! candidate carries the least load?* — and a scan answers it with one map
//! lookup per candidate per request. [`LoadBook`] keeps the answer
//! standing: each candidate has a [`Slot`] (its index in the candidate
//! list), and the slots sit in an indexed 4-ary min-heap ordered by one
//! integer per entry, `(load as u128) << 32 | host`. That key sorts
//! exactly as the tuple `(load, HostId)`: the load fills the high 64 bits,
//! the 32-bit host id the low 32, and neither reaches into the other. A
//! load change is a position lookup and one sift with explicit child
//! loops, at most ⌈log₄ candidates⌉ levels.
//!
//! [`LoadBook::least_loaded`] returns the root when the request admits it,
//! and otherwise scans the heap's flat array for the smallest admissible
//! key. It hands back the pick's slot along with its host when the caller
//! asks for `(HostId, Slot)`, so a grant refiles the proxy it was just
//! given with [`LoadBook::add_at`], without looking the host up again.
//! [`LoadBook::add`] / [`LoadBook::sub`] by [`HostId`] serve the paths
//! that know only the host (release, a crash's write-off, adoption, the
//! decentralized rung): one [`IdMap`] lookup, then the same refile. `add`
//! panics rather than wrap; `sub` saturates at zero.
//!
//! Candidates are distinct, so keys are too: the answer is the minimum of
//! `(load, HostId)` a linear scan would find, not merely a minimum. Every
//! placement, and every result file downstream of one, is unchanged.

use super::{eligible, IncastRequest};
use dcsim::det::IdMap;
use dcsim::packet::HostId;

/// Children per heap node.
const ARITY: usize = 4;

/// A candidate's index in the candidate list of the [`LoadBook`] that
/// handed it out; only that book's [`LoadBook::add_at`] takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

/// What [`LoadBook::least_loaded`] hands back, chosen by the caller's
/// type: the host alone, or the host with its [`Slot`].
pub trait Pick {
    /// The pick of `host`, filed at `slot`.
    fn pick(host: HostId, slot: Slot) -> Self;
}

impl Pick for HostId {
    fn pick(host: HostId, _: Slot) -> Self {
        host
    }
}

impl Pick for (HostId, Slot) {
    fn pick(host: HostId, slot: Slot) -> Self {
        (host, slot)
    }
}

/// One heap entry: a candidate's load, the candidate, and its slot.
#[derive(Debug, Clone, Copy)]
struct Entry {
    load: u64,
    host: HostId,
    slot: u32,
}

/// `(load, host)` as one integer that sorts exactly as the tuple does.
fn key(load: u64, host: HostId) -> u128 {
    (u128::from(load) << 32) | u128::from(host.0)
}

impl Entry {
    fn key(&self) -> u128 {
        key(self.load, self.host)
    }
}

/// Load per proxy candidate in a load-ordered heap, and the candidates
/// currently reported unhealthy.
#[derive(Debug, Clone)]
pub struct LoadBook {
    /// The candidate set, in the order it was given; a candidate's index
    /// here is its slot.
    candidates: Vec<HostId>,
    /// Candidate → slot.
    slot_of: IdMap<HostId, u32>,
    /// Indexed 4-ary min-heap over [`Entry::key`], one entry per
    /// candidate.
    heap: Vec<Entry>,
    /// Slot → the entry's position in `heap`.
    at: Vec<u32>,
    /// Slot → excluded from [`LoadBook::least_loaded`] until reported
    /// healthy.
    unhealthy: Vec<bool>,
}

impl LoadBook {
    /// A book over `candidates`, all idle and healthy.
    ///
    /// # Panics
    /// Panics on an empty candidate set or duplicates.
    pub fn new(candidates: Vec<HostId>) -> Self {
        assert!(!candidates.is_empty(), "no proxy candidates");
        let mut slot_of = IdMap::new();
        let mut heap: Vec<Entry> = Vec::with_capacity(candidates.len());
        for (slot, &host) in candidates.iter().enumerate() {
            let slot = slot as u32;
            let prior = slot_of.insert(host, slot);
            assert!(prior.is_none(), "duplicate candidates: {host} given twice");
            heap.push(Entry {
                load: 0,
                host,
                slot,
            });
        }
        // All idle: sorted by candidate is heap-ordered.
        heap.sort_unstable_by_key(Entry::key);
        let mut at = vec![0; candidates.len()];
        for (pos, e) in heap.iter().enumerate() {
            at[e.slot as usize] = pos as u32;
        }
        LoadBook {
            unhealthy: vec![false; candidates.len()],
            candidates,
            slot_of,
            heap,
            at,
        }
    }

    /// The candidates, in the order they were given.
    pub fn candidates(&self) -> &[HostId] {
        &self.candidates
    }

    /// Current load on `proxy`; 0 for a host that is not a candidate.
    pub fn load_of(&self, proxy: HostId) -> u64 {
        self.slot_of
            .get(&proxy)
            .map_or(0, |&slot| self.heap[self.at[slot as usize] as usize].load)
    }

    fn slot(&self, proxy: HostId) -> Slot {
        Slot(*self.slot_of.get(&proxy).expect("known candidate"))
    }

    /// Pins `bytes` more load on `proxy`.
    ///
    /// # Panics
    /// Panics if `proxy` is not a candidate, or if its load would pass
    /// `u64::MAX`.
    pub fn add(&mut self, proxy: HostId, bytes: u64) {
        self.add_at(self.slot(proxy), bytes);
    }

    /// Pins `bytes` more load on the candidate filed at `slot`, as
    /// [`LoadBook::least_loaded`] handed it out.
    ///
    /// # Panics
    /// Panics if its load would pass `u64::MAX`: a wrapped load would read
    /// as idle and break the heap order.
    pub fn add_at(&mut self, slot: Slot, bytes: u64) {
        let pos = self.at[slot.0 as usize] as usize;
        let Entry { load, host, .. } = self.heap[pos];
        let Some(new) = load.checked_add(bytes) else {
            panic!("load on {host} overflows: {load} + {bytes} bytes passes u64::MAX");
        };
        self.heap[pos].load = new;
        self.sift_down(pos);
    }

    /// Takes `bytes` of load off `proxy`, saturating at zero.
    pub fn sub(&mut self, proxy: HostId, bytes: u64) {
        let pos = self.at[self.slot(proxy).0 as usize] as usize;
        self.heap[pos].load = self.heap[pos].load.saturating_sub(bytes);
        self.sift_up(pos);
    }

    /// Places `entry` at `pos`, keeping `at` in step.
    fn put(&mut self, pos: usize, entry: Entry) {
        self.heap[pos] = entry;
        self.at[entry.slot as usize] = pos as u32;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        let key = entry.key();
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.heap[parent].key() <= key {
                break;
            }
            self.put(pos, self.heap[parent]);
            pos = parent;
        }
        self.put(pos, entry);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        let key = entry.key();
        let len = self.heap.len();
        loop {
            let first = ARITY * pos + 1;
            if first >= len {
                break;
            }
            let mut least = first;
            let mut least_key = self.heap[first].key();
            for child in first + 1..(first + ARITY).min(len) {
                let child_key = self.heap[child].key();
                if child_key < least_key {
                    least = child;
                    least_key = child_key;
                }
            }
            if key <= least_key {
                break;
            }
            self.put(pos, self.heap[least]);
            pos = least;
        }
        self.put(pos, entry);
    }

    fn admits(&self, entry: &Entry, request: &IncastRequest) -> bool {
        !self.unhealthy[entry.slot as usize] && eligible(entry.host, request)
    }

    /// The eligible, healthy candidate with the smallest `(load, HostId)`,
    /// or `None` when the request admits no candidate: its [`HostId`], or
    /// `(HostId, Slot)` for a caller that refiles it with
    /// [`LoadBook::add_at`].
    pub fn least_loaded<P: Pick>(&self, request: &IncastRequest) -> Option<P> {
        let root = &self.heap[0];
        let best = if self.admits(root, request) {
            root
        } else {
            self.heap
                .iter()
                .filter(|e| self.admits(e, request))
                .min_by_key(|e| e.key())?
        };
        Some(P::pick(best.host, Slot(best.slot)))
    }

    /// The healthy candidates `request` admits, in the order given.
    pub fn admitted<'a>(&'a self, request: &'a IncastRequest) -> impl Iterator<Item = HostId> + 'a {
        self.candidates
            .iter()
            .zip(&self.unhealthy)
            .filter(move |&(&c, &sick)| !sick && eligible(c, request))
            .map(|(&c, _)| c)
    }

    /// Excludes `proxy` from selection until reported healthy (idempotent;
    /// a host that is not a candidate is never selected anyway).
    pub fn report_unhealthy(&mut self, proxy: HostId) {
        self.mark(proxy, true);
    }

    /// Clears an unhealthy mark.
    pub fn report_healthy(&mut self, proxy: HostId) {
        self.mark(proxy, false);
    }

    fn mark(&mut self, proxy: HostId, sick: bool) {
        if let Some(&slot) = self.slot_of.get(&proxy) {
            self.unhealthy[slot as usize] = sick;
        }
    }

    /// Candidates currently marked unhealthy.
    pub fn unhealthy_count(&self) -> usize {
        self.unhealthy.iter().filter(|&&sick| sick).count()
    }

    /// Checks the heap against itself and the slots: one entry per
    /// candidate, each filed where `at` says, and no entry keyed below its
    /// parent.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.candidates.len();
        if self.heap.len() != n || self.at.len() != n || self.slot_of.len() != n {
            return Err(format!(
                "{n} candidates, {} heap entries, {} positions, {} slots",
                self.heap.len(),
                self.at.len(),
                self.slot_of.len()
            ));
        }
        for (pos, e) in self.heap.iter().enumerate() {
            let slot = e.slot as usize;
            if self.candidates.get(slot) != Some(&e.host)
                || self.slot_of.get(&e.host) != Some(&e.slot)
                || self.at[slot] as usize != pos
            {
                return Err(format!("{} at heap position {pos} is misfiled", e.host));
            }
            let parent = &self.heap[pos.saturating_sub(1) / ARITY];
            if parent.key() > e.key() {
                return Err(format!(
                    "{} carries {} but sits below {} carrying {}",
                    e.host, e.load, parent.host, parent.load
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book(ids: &[u32]) -> LoadBook {
        LoadBook::new(ids.iter().map(|&i| HostId(i)).collect())
    }

    fn request(senders: &[u32], receiver: u32) -> IncastRequest {
        IncastRequest {
            id: 0,
            senders: senders.iter().map(|&s| HostId(s)).collect(),
            receiver: HostId(receiver),
            expected_bytes: 1,
        }
    }

    #[test]
    fn ties_break_by_host_id_whatever_the_given_order() {
        let mut b = book(&[9, 3, 7]);
        let anyone = request(&[], 100);
        assert_eq!(b.least_loaded(&anyone), Some(HostId(3)));
        b.add(HostId(3), 10);
        assert_eq!(b.least_loaded(&anyone), Some(HostId(7)));
        b.add(HostId(7), 10);
        b.add(HostId(9), 10);
        assert_eq!(b.least_loaded(&anyone), Some(HostId(3)), "all tied again");
        b.add(HostId(3), 1);
        assert_eq!(b.least_loaded(&anyone), Some(HostId(7)));
        b.check_invariants().unwrap();
    }

    #[test]
    fn senders_receiver_and_unhealthy_are_skipped() {
        let mut b = book(&[1, 2, 3, 4]);
        assert_eq!(b.least_loaded(&request(&[1], 2)), Some(HostId(3)));
        b.report_unhealthy(HostId(3));
        b.report_unhealthy(HostId(3)); // Idempotent.
        assert_eq!(b.unhealthy_count(), 1);
        assert_eq!(b.least_loaded(&request(&[1], 2)), Some(HostId(4)));
        let admitted: Vec<HostId> = b.admitted(&request(&[1], 2)).collect();
        assert_eq!(admitted, vec![HostId(4)]);
        b.report_healthy(HostId(3));
        assert_eq!(b.least_loaded(&request(&[1], 2)), Some(HostId(3)));
        // A heavier eligible candidate still beats a lighter ineligible one.
        b.add(HostId(3), 50);
        b.add(HostId(4), 60);
        assert_eq!(b.least_loaded(&request(&[1], 2)), Some(HostId(3)));
    }

    #[test]
    fn none_when_every_candidate_is_ineligible() {
        let mut b = book(&[1, 2, 3]);
        assert_eq!(b.least_loaded(&request(&[1, 2], 3)), None::<HostId>);
        b.report_unhealthy(HostId(3));
        assert_eq!(b.least_loaded(&request(&[1, 2], 100)), None::<HostId>);
    }

    #[test]
    fn sub_saturates_and_refiles_the_entry() {
        let mut b = book(&[1, 2]);
        b.add(HostId(1), 5);
        b.add(HostId(2), 3);
        assert_eq!(b.least_loaded(&request(&[], 100)), Some(HostId(2)));
        b.sub(HostId(1), 9); // More than it carries.
        assert_eq!(b.load_of(HostId(1)), 0);
        assert_eq!(b.least_loaded(&request(&[], 100)), Some(HostId(1)));
        b.check_invariants().unwrap();
        b.sub(HostId(1), 1); // Already idle: nothing to re-file.
        b.check_invariants().unwrap();
        assert_eq!(b.load_of(HostId(99)), 0, "not a candidate");
    }

    #[test]
    fn the_key_sorts_as_the_tuple_at_the_corners() {
        let loads = [0, 1, u64::from(u32::MAX), 1 << 32, u64::MAX - 1, u64::MAX];
        let hosts = [0, 1, (1 << 31) - 1, 1 << 31, u32::MAX - 1, u32::MAX];
        let corners: Vec<(u64, HostId)> = loads
            .iter()
            .flat_map(|&l| hosts.iter().map(move |&h| (l, HostId(h))))
            .collect();
        for &(la, ha) in &corners {
            for &(lb, hb) in &corners {
                assert_eq!(
                    key(la, ha).cmp(&key(lb, hb)),
                    (la, ha).cmp(&(lb, hb)),
                    "({la}, {ha}) vs ({lb}, {hb})"
                );
            }
        }
    }

    #[test]
    fn a_pick_refiles_by_its_slot() {
        let mut b = book(&[9, 3, 7]);
        let anyone = request(&[], 100);
        let (host, slot): (HostId, Slot) = b.least_loaded(&anyone).unwrap();
        assert_eq!(host, HostId(3));
        b.add_at(slot, 10);
        assert_eq!(b.load_of(HostId(3)), 10);
        assert_eq!(b.least_loaded(&anyone), Some(HostId(7)));
        b.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "load on HostId(3) overflows: 18446744073709551615 + 1 bytes")]
    fn add_panics_rather_than_wrap() {
        let mut b = book(&[3, 4]);
        let (_, slot): (HostId, Slot) = b.least_loaded(&request(&[], 100)).unwrap();
        b.add_at(slot, u64::MAX);
        b.add(HostId(3), 1);
    }
}
