//! The rule registry: every rule simlint knows, with the crate scope it
//! applies to.
//!
//! PR 4's linter had one global exemption list (`netproxy`/`trace` were
//! skipped wholesale, because the determinism rules are about the
//! simulation path and those crates' *job* is wall-clock I/O). That
//! shape broke down the moment rules with different blast radii
//! arrived: the unsafety and atomic-ordering rules apply *most* of all
//! to `netproxy`, and the FFI rule applies *only* there. So scoping is
//! now per rule, and a file is always scanned — each registered rule
//! individually decides whether it runs on that file's crate.

use crate::rules::Rule;

/// Which crates a rule runs on.
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Every file in the repository.
    All,
    /// Only files under `crates/<name>/` for the listed names.
    Crates(&'static [&'static str]),
    /// Every file except those under `crates/<name>/` for the listed
    /// names. Files outside `crates/` (the root package's `src/`,
    /// `tests/`, `examples/`) are always included.
    ExceptCrates(&'static [&'static str]),
}

impl Scope {
    /// Whether a rule with this scope runs on a file of `krate`
    /// (`None` = the root package / outside `crates/`).
    pub fn applies(&self, krate: Option<&str>) -> bool {
        match self {
            Scope::All => true,
            Scope::Crates(list) => krate.is_some_and(|c| list.contains(&c)),
            Scope::ExceptCrates(list) => !krate.is_some_and(|c| list.contains(&c)),
        }
    }
}

/// One registered rule.
#[derive(Debug, Clone, Copy)]
pub struct Registration {
    /// The rule.
    pub rule: Rule,
    /// Where it runs.
    pub scope: Scope,
}

/// The full registry, in reporting order.
///
/// * `hash-collections` and `wall-clock` skip the two crates whose job
///   is wall-clock I/O (the live datapath and the measurement tooling) —
///   the original PR 4 exemption, now scoped to exactly those rules.
/// * `ambient-rng` exempts only `trace` (it hosts the seed plumbing
///   itself). `netproxy` lost its exemption in PR 10: the fault shim
///   and the load generator both derive their streams from the run
///   seed via `trace::SplitMix64`, so ambient randomness in the live
///   datapath is a bug there like anywhere else.
/// * `unsafe-without-safety` is workspace-wide: only `netproxy` may
///   contain `unsafe` at all (every other crate carries
///   `#![forbid(unsafe_code)]`), but the rule watches everywhere so a
///   future forbid regression still gets a SAFETY-comment demand.
/// * `unjustified-atomic-ordering` is workspace-wide except the
///   vendored `loom` model checker, where `Ordering` arguments are
///   accepted-but-inert by design (every operation executes SeqCst;
///   per-site justification would be vacuous — the crate docs carry
///   the one real justification).
/// * `ffi-unchecked-return` runs only on `netproxy`, the one crate
///   allowed to speak libc.
pub const REGISTRY: [Registration; 6] = [
    Registration {
        rule: Rule::HashCollections,
        scope: Scope::ExceptCrates(&["netproxy", "trace"]),
    },
    Registration {
        rule: Rule::WallClock,
        scope: Scope::ExceptCrates(&["netproxy", "trace"]),
    },
    Registration {
        rule: Rule::AmbientRng,
        scope: Scope::ExceptCrates(&["trace"]),
    },
    Registration {
        rule: Rule::UnsafeWithoutSafety,
        scope: Scope::All,
    },
    Registration {
        rule: Rule::UnjustifiedAtomicOrdering,
        scope: Scope::ExceptCrates(&["loom"]),
    },
    Registration {
        rule: Rule::FfiUncheckedReturn,
        scope: Scope::Crates(&["netproxy"]),
    },
];

/// The crate a workspace-relative path belongs to (`None` for files
/// outside `crates/`, i.e. the root package).
pub fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// The active rule set for a file, per the registry.
pub fn active_rules(rel: &str) -> Vec<Rule> {
    let krate = crate_of(rel);
    REGISTRY
        .iter()
        .filter(|r| r.scope.applies(krate))
        .map(|r| r.rule)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_parses_workspace_paths() {
        assert_eq!(crate_of("crates/netproxy/src/batch.rs"), Some("netproxy"));
        assert_eq!(crate_of("crates/core/src/lib.rs"), Some("core"));
        assert_eq!(crate_of("src/lib.rs"), None);
        assert_eq!(crate_of("tests/live_proxies.rs"), None);
    }

    #[test]
    fn registry_covers_every_rule_exactly_once() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|r| r.rule.id()).collect();
        ids.sort_unstable();
        let mut all: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        all.sort_unstable();
        assert_eq!(ids, all);
    }

    #[test]
    fn determinism_rules_skip_wall_clock_crates_only() {
        assert!(!active_rules("crates/netproxy/src/shard.rs").contains(&Rule::WallClock));
        assert!(!active_rules("crates/trace/src/lib.rs").contains(&Rule::HashCollections));
        assert!(active_rules("crates/dcsim/src/sim.rs").contains(&Rule::WallClock));
        // The relay core netproxy runs is clock-free: the shard passes time in.
        assert!(active_rules("crates/core/src/relay.rs").contains(&Rule::WallClock));
        assert!(active_rules("src/lib.rs").contains(&Rule::AmbientRng));
    }

    #[test]
    fn ambient_rng_covers_netproxy_but_not_trace() {
        // PR 10: the fault shim is seed-derived, so netproxy is back
        // under the ambient-rng rule; only trace keeps the exemption.
        assert!(active_rules("crates/netproxy/src/fault.rs").contains(&Rule::AmbientRng));
        assert!(active_rules("crates/netproxy/src/loadgen.rs").contains(&Rule::AmbientRng));
        assert!(!active_rules("crates/trace/src/lib.rs").contains(&Rule::AmbientRng));
    }

    #[test]
    fn new_rules_scope_as_registered() {
        let netproxy = active_rules("crates/netproxy/src/batch.rs");
        assert!(netproxy.contains(&Rule::UnsafeWithoutSafety));
        assert!(netproxy.contains(&Rule::UnjustifiedAtomicOrdering));
        assert!(netproxy.contains(&Rule::FfiUncheckedReturn));

        let dcsim = active_rules("crates/dcsim/src/sim.rs");
        assert!(dcsim.contains(&Rule::UnsafeWithoutSafety));
        assert!(dcsim.contains(&Rule::UnjustifiedAtomicOrdering));
        assert!(!dcsim.contains(&Rule::FfiUncheckedReturn));

        let loom = active_rules("crates/loom/src/lib.rs");
        assert!(loom.contains(&Rule::UnsafeWithoutSafety));
        assert!(!loom.contains(&Rule::UnjustifiedAtomicOrdering));
    }
}
