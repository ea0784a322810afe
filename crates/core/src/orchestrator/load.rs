//! The load book: per-candidate load, kept in load order.
//!
//! Every selector answers the same question — *which eligible, healthy
//! candidate carries the least load?* — and a scan answers it with one map
//! lookup per candidate per request. [`LoadBook`] keeps the answer
//! standing: beside `load: DetMap<HostId, u64>` it holds the same pairs as
//! an ordered index `DetSet<(u64, HostId)>`, re-filed by the one
//! [`LoadBook::add`] / [`LoadBook::sub`] every load change goes through.
//! [`LoadBook::least_loaded`] walks the index from its minimum and stops at
//! the first candidate the request admits: O(log candidates) to reach the
//! minimum plus one step per inadmissible candidate skipped.
//!
//! The index orders by `(load, HostId)` — exactly the key the scan it
//! replaced minimised — and candidates are distinct, so keys are too: the
//! first admissible entry *is* the scan's minimum, not merely a minimum.
//! Every placement, and every result file downstream of one, is unchanged.

use super::{eligible, IncastRequest};
use dcsim::det::{DetMap, DetSet};
use dcsim::packet::HostId;

/// Load per proxy candidate, the load-ordered index over it, and the
/// candidates currently reported unhealthy.
#[derive(Debug, Clone)]
pub struct LoadBook {
    /// The candidate set, in the order it was given.
    candidates: Vec<HostId>,
    load: DetMap<HostId, u64>,
    /// One `(load, candidate)` entry per candidate, mirroring `load`.
    by_load: DetSet<(u64, HostId)>,
    /// Excluded from [`LoadBook::least_loaded`] until reported healthy.
    unhealthy: Vec<HostId>,
}

impl LoadBook {
    /// A book over `candidates`, all idle and healthy.
    ///
    /// # Panics
    /// Panics on an empty candidate set or duplicates.
    pub fn new(candidates: Vec<HostId>) -> Self {
        assert!(!candidates.is_empty(), "no proxy candidates");
        let load: DetMap<HostId, u64> = candidates.iter().map(|&c| (c, 0)).collect();
        assert_eq!(load.len(), candidates.len(), "duplicate candidates");
        LoadBook {
            by_load: candidates.iter().map(|&c| (0, c)).collect(),
            candidates,
            load,
            unhealthy: Vec::new(),
        }
    }

    /// The candidates, in the order they were given.
    pub fn candidates(&self) -> &[HostId] {
        &self.candidates
    }

    /// Current load on `proxy`; 0 for a host that is not a candidate.
    pub fn load_of(&self, proxy: HostId) -> u64 {
        self.load.get(&proxy).copied().unwrap_or(0)
    }

    /// Pins `bytes` more load on `proxy`.
    pub fn add(&mut self, proxy: HostId, bytes: u64) {
        self.refile(proxy, |load| load + bytes);
    }

    /// Takes `bytes` of load off `proxy`, saturating at zero.
    pub fn sub(&mut self, proxy: HostId, bytes: u64) {
        self.refile(proxy, |load| load.saturating_sub(bytes));
    }

    fn refile(&mut self, proxy: HostId, change: impl FnOnce(u64) -> u64) {
        let load = self.load.get_mut(&proxy).expect("known candidate");
        let new = change(*load);
        if new != *load {
            self.by_load.remove(&(*load, proxy));
            self.by_load.insert((new, proxy));
            *load = new;
        }
    }

    /// The eligible, healthy candidate with the smallest `(load, HostId)`,
    /// or `None` when the request admits no candidate.
    pub fn least_loaded(&self, request: &IncastRequest) -> Option<HostId> {
        self.by_load
            .iter()
            .map(|&(_, c)| c)
            .find(|&c| eligible(c, request) && !self.unhealthy.contains(&c))
    }

    /// Excludes `proxy` from selection (idempotent).
    pub fn report_unhealthy(&mut self, proxy: HostId) {
        if !self.unhealthy.contains(&proxy) {
            self.unhealthy.push(proxy);
        }
    }

    /// Clears an unhealthy mark.
    pub fn report_healthy(&mut self, proxy: HostId) {
        self.unhealthy.retain(|&p| p != proxy);
    }

    /// Candidates currently marked unhealthy.
    pub fn unhealthy_count(&self) -> usize {
        self.unhealthy.len()
    }

    /// Checks that the index mirrors the map: one entry per candidate,
    /// filed under that candidate's current load.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.load.len() != self.candidates.len() || self.by_load.len() != self.load.len() {
            return Err(format!(
                "{} candidates, {} loads, {} index entries",
                self.candidates.len(),
                self.load.len(),
                self.by_load.len()
            ));
        }
        for (&c, &load) in &self.load {
            if !self.by_load.contains(&(load, c)) {
                return Err(format!("{c} carries {load} but is not filed under it"));
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
        assert_eq!(b.least_loaded(&request(&[1, 2], 3)), None);
        b.report_unhealthy(HostId(3));
        assert_eq!(b.least_loaded(&request(&[1, 2], 100)), None);
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
}
