//! The rule implementations, the allow-directive grammar, and the
//! multi-pass per-file scan.
//!
//! Six rules in two families (the registry in `registry.rs` scopes each
//! to the crates it applies to):
//!
//! **Determinism** (DESIGN.md "Determinism rules", PR 4):
//!
//! * `hash-collections` — no hash-ordered collections as sim state. The
//!   std hash map/set iterate in a per-process random order; one stray
//!   iteration turns bit-identical replay into per-run noise. Use
//!   `BTreeMap`/`BTreeSet` (key order) or `dcsim::det::IdMap` (lookups
//!   by id).
//! * `wall-clock` — no reading the host clock: `Instant::now`,
//!   `SystemTime`, `UNIX_EPOCH`. Simulation time is `SimTime`, advanced
//!   by the event loop only.
//! * `ambient-rng` — no ambient randomness: `thread_rng`, `rand::random`,
//!   `from_entropy`, `OsRng`, `getrandom`. Every random stream must be
//!   derived from the run's seed.
//!
//! **Unsafety & concurrency audit** (DESIGN.md §14, PR 9):
//!
//! * `unsafe-without-safety` — every `unsafe` keyword (block, fn, impl)
//!   must carry a `// SAFETY:` comment: trailing on the same line, or
//!   in the run of standalone comment lines directly above.
//! * `unjustified-atomic-ordering` — every `Ordering::{Relaxed,
//!   Acquire, Release, AcqRel, SeqCst}` use must carry an
//!   `// ordering:` comment. One comment covers a contiguous block: the
//!   justification walk from a use climbs through comment lines, other
//!   ordering-use lines, and statement-continuation lines (lines whose
//!   last token is not `;`/`{`/`}`), so one comment can head a flush of
//!   eight counters or a multi-line builder chain.
//! * `ffi-unchecked-return` — a call to a declared `extern "C"`
//!   function must not discard its result: bare statement position
//!   (including the `unsafe { call(...) };` wrapper) and `let _ =` are
//!   violations. libc reports failure in-band; a dropped return value
//!   is a swallowed error.
//!
//! The scan is multi-pass: pass 1 lexes and builds per-line facts plus
//! the file's `extern "C"` function inventory; pass 2 runs each active
//! rule over the token stream against those facts. A violation is
//! suppressed only by a scoped line comment
//!
//! ```text
//! // simlint: allow(wall-clock) — measures real datapath latency
//! ```
//!
//! (a trailing comment covers its own line; a standalone comment covers
//! the next code line). The reason is mandatory; the linter prints every
//! allow as an inventory so exceptions stay visible. A malformed or
//! unused directive is itself an error — stale suppressions don't
//! accumulate.

use crate::lexer::{lex, Spanned, Tok};
use std::fmt;

/// The enforced rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash-ordered collections as sim state.
    HashCollections,
    /// Wall-clock reads.
    WallClock,
    /// Ambient (non-seeded) randomness.
    AmbientRng,
    /// `unsafe` without a `// SAFETY:` justification.
    UnsafeWithoutSafety,
    /// Atomic `Ordering` use without an `// ordering:` justification.
    UnjustifiedAtomicOrdering,
    /// Discarded result of an `extern "C"` call.
    FfiUncheckedReturn,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 6] = [
        Rule::HashCollections,
        Rule::WallClock,
        Rule::AmbientRng,
        Rule::UnsafeWithoutSafety,
        Rule::UnjustifiedAtomicOrdering,
        Rule::FfiUncheckedReturn,
    ];

    /// The id used in `allow(...)` directives and diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashCollections => "hash-collections",
            Rule::WallClock => "wall-clock",
            Rule::AmbientRng => "ambient-rng",
            Rule::UnsafeWithoutSafety => "unsafe-without-safety",
            Rule::UnjustifiedAtomicOrdering => "unjustified-atomic-ordering",
            Rule::FfiUncheckedReturn => "ffi-unchecked-return",
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    fn advice(self) -> &'static str {
        match self {
            Rule::HashCollections => {
                "hash iteration order is per-process random; use BTreeMap/BTreeSet \
                 (key order) or dcsim::det::IdMap (lookups by id)"
            }
            Rule::WallClock => {
                "simulation code must read SimTime, never the host clock; wall-clock I/O \
                 belongs in the netproxy/trace crates or behind an allow"
            }
            Rule::AmbientRng => {
                "derive randomness from the run seed (trace::SplitMix64 or a seeded SmallRng), \
                 never from the environment"
            }
            Rule::UnsafeWithoutSafety => {
                "every unsafe block/fn/impl must state its invariant in a `// SAFETY:` comment \
                 directly above (or trailing on the same line)"
            }
            Rule::UnjustifiedAtomicOrdering => {
                "every atomic Ordering choice must be justified by an `// ordering:` comment \
                 covering it (same line, directly above, or heading its contiguous block)"
            }
            Rule::FfiUncheckedReturn => {
                "libc reports failure in-band; bind the result and check it (or allow with a \
                 reason why the error is unactionable)"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Identifiers flagged by `hash-collections` wherever they appear in code.
const HASH_IDENTS: [&str; 7] = [
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "AHashMap",
    "AHashSet",
    "RandomState",
];

/// Identifiers flagged by `wall-clock` wherever they appear in code.
const CLOCK_IDENTS: [&str; 2] = ["SystemTime", "UNIX_EPOCH"];

/// Identifiers flagged by `ambient-rng` wherever they appear in code.
const RNG_IDENTS: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// The atomic orderings `unjustified-atomic-ordering` watches (the
/// `std::cmp::Ordering` variants are not in this list, so comparison
/// code never trips it).
const ORDERING_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// A rule violation (or a broken/unused allow directive).
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// `Some(rule)` for rule hits; `None` for directive problems.
    pub rule: Option<Rule>,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = self.rule.map_or("allow-directive", Rule::id);
        write!(
            f,
            "{}:{}:{}: simlint({label}): {}",
            self.file, self.line, self.col, self.message
        )
    }
}

/// A used allow directive, reported in the inventory.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub file: String,
    pub line: u32,
    pub rule: Rule,
    pub reason: String,
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub violations: Vec<Violation>,
    pub allows: Vec<AllowEntry>,
}

#[derive(Debug)]
struct Directive {
    rule: Rule,
    reason: String,
    comment_line: u32,
    /// Line whose violations this directive suppresses.
    target_line: u32,
    used: bool,
}

/// Parses a line comment body as an allow directive.
///
/// Returns `None` for ordinary comments, `Some(Ok(...))` for a
/// well-formed directive, and `Some(Err(message))` for a comment that
/// clearly tries to be one but is malformed.
fn parse_directive(text: &str) -> Option<Result<(Rule, String), String>> {
    let t = text.trim();
    let rest = t.strip_prefix("simlint:")?.trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        return Some(Err(format!(
            "unrecognized simlint directive {t:?}; expected `simlint: allow(<rule>) — <reason>`"
        )));
    };
    let Some(close) = args.find(')') else {
        return Some(Err("unclosed `allow(` in simlint directive".into()));
    };
    let id = args[..close].trim();
    let Some(rule) = Rule::from_id(id) else {
        let known: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        return Some(Err(format!(
            "unknown rule {id:?} in allow directive; known rules: {}",
            known.join(", ")
        )));
    };
    // Reason: everything after the closing paren, minus a separator.
    let mut reason = args[close + 1..].trim_start();
    for sep in ["—", "--", "-", ":"] {
        if let Some(r) = reason.strip_prefix(sep) {
            reason = r;
            break;
        }
    }
    let reason = reason.trim();
    if reason.is_empty() {
        return Some(Err(format!(
            "allow({id}) has no reason; every exception must say why \
             (`simlint: allow({id}) — <reason>`)"
        )));
    }
    Some(Ok((rule, reason.to_string())))
}

/// Per-line facts built in pass 1, consumed by the justification walks.
#[derive(Debug, Clone, Copy, Default)]
struct LineFact<'a> {
    /// Text of the `//` comment on this line, if any (untrimmed).
    comment: Option<&'a str>,
    /// Any code token on this line.
    has_code: bool,
    /// A flagged `Ordering::<variant>` use on this line.
    has_ordering_use: bool,
    /// The line's last code token is `;`, `{` or `}` (a statement
    /// boundary — the continuation walk stops here).
    ends_stmt: bool,
}

/// Everything pass 2 rules need about one file: the token stream, the
/// per-line fact index, and the `extern "C"` function inventory.
struct FileCtx<'a> {
    toks: &'a [Spanned<'a>],
    lines: Vec<LineFact<'a>>,
    extern_fns: Vec<&'a str>,
}

impl<'a> FileCtx<'a> {
    fn fact(&self, line: u32) -> LineFact<'a> {
        self.lines.get(line as usize).copied().unwrap_or_default()
    }

    /// Does a comment whose text starts with `tag` cover `line`?
    ///
    /// Coverage: a comment on the line itself (trailing form), or a
    /// standalone comment reached by walking upward. The walk always
    /// climbs through standalone comment lines; with `through_code` it
    /// additionally climbs through lines that themselves carry a
    /// flagged ordering use and through statement continuations (lines
    /// whose last token is not `;`/`{`/`}`), so one comment can head a
    /// contiguous block. A *trailing* comment on some other code line
    /// covers only that line — it never justifies lines below it.
    fn tagged_comment_covers(&self, line: u32, tag: &str, through_code: bool) -> bool {
        let starts = |f: LineFact<'_>| f.comment.is_some_and(|c| c.trim_start().starts_with(tag));
        if starts(self.fact(line)) {
            return true;
        }
        let mut p = line.saturating_sub(1);
        while p >= 1 {
            let f = self.fact(p);
            let comment_only = f.comment.is_some() && !f.has_code;
            if comment_only && starts(f) {
                return true;
            }
            let chains = comment_only
                || (through_code && f.has_ordering_use)
                || (through_code && f.has_code && !f.ends_stmt);
            if !chains {
                return false;
            }
            p -= 1;
        }
        false
    }
}

/// Pass 1: lex, build the line-fact index and the extern-fn inventory.
fn build_ctx<'a>(
    toks: &'a [Spanned<'a>],
    comments: &[crate::lexer::LineComment<'a>],
) -> FileCtx<'a> {
    let max_line = toks
        .iter()
        .map(|t| t.line)
        .chain(comments.iter().map(|c| c.line))
        .max()
        .unwrap_or(0) as usize;
    let mut lines: Vec<LineFact<'a>> = vec![LineFact::default(); max_line + 1];
    for c in comments {
        lines[c.line as usize].comment = Some(c.text);
    }
    for t in toks {
        let f = &mut lines[t.line as usize];
        f.has_code = true;
        // Tokens arrive in source order, so the last writer wins.
        f.ends_stmt = matches!(t.tok, Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}'));
    }
    for (i, t) in toks.iter().enumerate() {
        if t.tok == Tok::Ident("Ordering") && ordering_variant(toks, i).is_some() {
            lines[t.line as usize].has_ordering_use = true;
        }
    }
    FileCtx {
        toks,
        lines,
        extern_fns: collect_extern_fns(toks),
    }
}

/// The names declared inside `extern "C" { ... }` blocks. (The lexer
/// drops the `"C"` string literal, so the block opens right after the
/// `extern` keyword.)
fn collect_extern_fns<'a>(toks: &'a [Spanned<'a>]) -> Vec<&'a str> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].tok == Tok::Ident("extern")
            && toks.get(i + 1).is_some_and(|t| t.tok == Tok::Punct('{'))
        {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < toks.len() && depth > 0 {
                match toks[j].tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => depth -= 1,
                    Tok::Ident("fn") => {
                        if let Some(Spanned {
                            tok: Tok::Ident(name),
                            ..
                        }) = toks.get(j + 1)
                        {
                            fns.push(*name);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    fns
}

/// `toks[i]` is `Ordering`; returns the flagged variant that follows
/// (`Ordering::Relaxed` etc.), if any.
fn ordering_variant<'a>(toks: &[Spanned<'a>], i: usize) -> Option<&'a str> {
    match (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3)) {
        (Some(a), Some(b), Some(c)) if a.tok == Tok::Punct(':') && b.tok == Tok::Punct(':') => {
            match c.tok {
                Tok::Ident(v) if ORDERING_VARIANTS.contains(&v) => Some(v),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Scans one file's source against `active` (the registry-scoped rule
/// set for its crate — see `registry::active_rules`).
pub fn scan_source(file: &str, src: &str, active: &[Rule]) -> FileReport {
    let mut report = FileReport::default();
    let lexed = lex(src);
    let ctx = build_ctx(&lexed.tokens, &lexed.comments);

    // Directives first, so a hit can look up its suppressor.
    let mut directives: Vec<Directive> = Vec::new();
    for comment in &lexed.comments {
        match parse_directive(comment.text) {
            None => {}
            Some(Err(message)) => report.violations.push(Violation {
                file: file.to_string(),
                line: comment.line,
                col: 1,
                rule: None,
                message,
            }),
            Some(Ok((rule, reason))) => {
                let target_line = if comment.trailing {
                    comment.line
                } else {
                    // Standalone: covers the next line that has code.
                    lexed
                        .tokens
                        .iter()
                        .map(|t| t.line)
                        .find(|&l| l > comment.line)
                        .unwrap_or(comment.line)
                };
                directives.push(Directive {
                    rule,
                    reason,
                    comment_line: comment.line,
                    target_line,
                    used: false,
                });
            }
        }
    }

    let mut flag =
        |rule: Rule, line: u32, col: u32, message: String, directives: &mut [Directive]| {
            if let Some(d) = directives
                .iter_mut()
                .find(|d| d.rule == rule && d.target_line == line)
            {
                d.used = true;
                return;
            }
            report.violations.push(Violation {
                file: file.to_string(),
                line,
                col,
                rule: Some(rule),
                message,
            });
        };
    let on = |rule: Rule| active.contains(&rule);

    // Pass 2a: determinism rules (ident patterns).
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = t.tok else { continue };
        let hit = if on(Rule::HashCollections) && HASH_IDENTS.contains(&name) {
            Some((Rule::HashCollections, name))
        } else if on(Rule::WallClock) && CLOCK_IDENTS.contains(&name) {
            Some((Rule::WallClock, name))
        } else if on(Rule::AmbientRng) && RNG_IDENTS.contains(&name) {
            Some((Rule::AmbientRng, name))
        } else if on(Rule::WallClock) && name == "Instant" && followed_by(toks, i, "now") {
            Some((Rule::WallClock, "Instant::now"))
        } else if on(Rule::AmbientRng) && name == "rand" && followed_by(toks, i, "random") {
            Some((Rule::AmbientRng, "rand::random"))
        } else {
            None
        };
        if let Some((rule, what)) = hit {
            let message = format!("`{what}`: {}", rule.advice());
            flag(rule, t.line, t.col, message, &mut directives);
        }
    }

    // Pass 2b: unsafe-without-safety (keyword + SAFETY-comment walk).
    if on(Rule::UnsafeWithoutSafety) {
        for t in toks {
            if t.tok != Tok::Ident("unsafe") {
                continue;
            }
            if ctx.tagged_comment_covers(t.line, "SAFETY:", false) {
                continue;
            }
            let message = format!("`unsafe`: {}", Rule::UnsafeWithoutSafety.advice());
            flag(
                Rule::UnsafeWithoutSafety,
                t.line,
                t.col,
                message,
                &mut directives,
            );
        }
    }

    // Pass 2c: unjustified-atomic-ordering (path pattern + block walk).
    if on(Rule::UnjustifiedAtomicOrdering) {
        for (i, t) in toks.iter().enumerate() {
            if t.tok != Tok::Ident("Ordering") {
                continue;
            }
            let Some(variant) = ordering_variant(toks, i) else {
                continue;
            };
            if ctx.tagged_comment_covers(t.line, "ordering:", true) {
                continue;
            }
            let message = format!(
                "`Ordering::{variant}`: {}",
                Rule::UnjustifiedAtomicOrdering.advice()
            );
            flag(
                Rule::UnjustifiedAtomicOrdering,
                t.line,
                t.col,
                message,
                &mut directives,
            );
        }
    }

    // Pass 2d: ffi-unchecked-return (extern-fn inventory + use/discard
    // classification).
    if on(Rule::FfiUncheckedReturn) && !ctx.extern_fns.is_empty() {
        for (i, t) in toks.iter().enumerate() {
            let Tok::Ident(name) = t.tok else { continue };
            if !ctx.extern_fns.contains(&name)
                || !toks.get(i + 1).is_some_and(|n| n.tok == Tok::Punct('('))
                || toks
                    .get(i.wrapping_sub(1))
                    .is_some_and(|p| p.tok == Tok::Ident("fn"))
            {
                continue;
            }
            if call_result_discarded(toks, i) {
                let message = format!("`{name}(...)`: {}", Rule::FfiUncheckedReturn.advice());
                flag(
                    Rule::FfiUncheckedReturn,
                    t.line,
                    t.col,
                    message,
                    &mut directives,
                );
            }
        }
    }

    for d in directives {
        if d.used {
            report.allows.push(AllowEntry {
                file: file.to_string(),
                line: d.comment_line,
                rule: d.rule,
                reason: d.reason,
            });
        } else {
            report.violations.push(Violation {
                file: file.to_string(),
                line: d.comment_line,
                col: 1,
                rule: None,
                message: format!(
                    "unused allow({}) — nothing on line {} trips the rule; delete the stale \
                     suppression",
                    d.rule, d.target_line
                ),
            });
        }
    }
    report
}

/// Is the extern call at `toks[i]` (the callee ident) in a
/// result-discarding position?
///
/// Discarded means *both*:
/// * backward: statement position (`;`/`{`/`}` before it, optionally
///   through an `unsafe {` wrapper, or start of file) or an explicit
///   `let _ =`, and
/// * forward: the statement ends right after the call — `;` follows the
///   matching close paren (through the wrapper's `}` if present).
///
/// Anything else (`let rc = ...`, an `if`/`match` scrutinee, a nested
/// argument, a tail expression feeding a return value) uses the result.
fn call_result_discarded(toks: &[Spanned<'_>], i: usize) -> bool {
    // Backward: skip the `unsafe {` wrapper if present.
    let wrapped =
        i >= 2 && toks[i - 1].tok == Tok::Punct('{') && toks[i - 2].tok == Tok::Ident("unsafe");
    let pred_idx = if wrapped {
        i.checked_sub(3)
    } else {
        i.checked_sub(1)
    };
    let backward_discard = match pred_idx {
        None => true, // call starts the file: statement position
        Some(p) => match toks[p].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => true,
            Tok::Punct('=') => {
                // `let _ = [unsafe {] call(...)`: explicit discard.
                p >= 2 && toks[p - 1].tok == Tok::Ident("_") && toks[p - 2].tok == Tok::Ident("let")
            }
            _ => false,
        },
    };
    if !backward_discard {
        return false;
    }
    // Forward: find the call's matching close paren.
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let mut after = j + 1;
    if wrapped && toks.get(after).is_some_and(|t| t.tok == Tok::Punct('}')) {
        after += 1;
    }
    match toks.get(after) {
        None => true,
        Some(t) => t.tok == Tok::Punct(';'),
    }
}

/// True when `toks[i]` is followed by `::` and then the identifier `next`.
fn followed_by(toks: &[Spanned<'_>], i: usize, next: &str) -> bool {
    matches!(
        (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3)),
        (
            Some(a),
            Some(b),
            Some(c)
        ) if a.tok == Tok::Punct(':')
            && b.tok == Tok::Punct(':')
            && c.tok == Tok::Ident(next)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The embedded determinism fixture: every rule with a hit, a miss,
    /// and a suppressed hit, plus directive error cases.
    pub(crate) const FIXTURE: &str = r####"
use std::collections::HashMap;                       // hit: hash-collections
use std::collections::BTreeMap;                      // miss: deterministic
struct S {
    a: HashSet<u32>,
    b: DetMap<u32, u32>,
}
// simlint: allow(hash-collections) — eBPF map mirror needs hash semantics
type Mirror = HashMap<u32, u32>;
fn clocks() {
    let t = Instant::now();                          // hit: wall-clock
    let d = Instant::from_ticks(3);                  // miss: not ::now
    let e = SystemTime::now();                       // hit: wall-clock
    let f = now();                                   // miss: bare now()
    // simlint: allow(wall-clock) — measures host latency for the bench table
    let g = Instant::now();
}
fn rngs() {
    let r = thread_rng();                            // hit: ambient-rng
    let s = rand::random::<u64>();                   // hit: ambient-rng
    let t = SmallRng::seed_from_u64(7);              // miss: seeded
    let u = rand::rngs::SmallRng::from_seed([0; 32]); // miss: seeded
    let v = from_entropy_like();                     // miss: different ident
    let w = OsRng.next_u64(); // simlint: allow(ambient-rng) - trailing form
}
fn hidden() {
    let s = "HashMap in a string is fine";
    let r = r#"thread_rng in a raw string too"#;
    // HashMap in a comment is fine
    /* Instant::now in a block comment is fine */
}
"####;

    /// The audit fixture: the three PR 9 rules, hit/miss/suppressed.
    pub(crate) const AUDIT_FIXTURE: &str = r####"
extern "C" {
    fn close(fd: i32) -> i32;
    fn socket(domain: i32, ty: i32, proto: i32) -> i32;
}
fn unsafety() {
    let a = unsafe { danger() };                     // hit: no SAFETY
    // SAFETY: the invariant is stated right here.
    let b = unsafe { danger() };                     // miss: covered above
    // SAFETY: a multi-line justification —
    // continued on a second comment line.
    let c = unsafe { danger() };                     // miss: covered above
    let d = unsafe { danger() }; // SAFETY: trailing form
    // simlint: allow(unsafe-without-safety) — fixture exercises the allow path
    let e = unsafe { danger() };
}
fn orderings(x: &AtomicU64, stop: &AtomicBool) {
    let a = x.load(Ordering::Relaxed);               // hit: no comment
    // ordering: Relaxed — counter, no data published through it.
    let b = x.load(Ordering::Relaxed);               // miss: covered
    // ordering: Relaxed — one comment heads the whole flush block.
    x.fetch_add(1, Ordering::Relaxed);
    x.fetch_add(2, Ordering::Relaxed);               // miss: chains up
    x
        .fetch_add(3, Ordering::Relaxed);            // miss: continuation
    let c = cmp(a, b) == Ordering::Less;             // miss: cmp::Ordering
    stop.store(true, Ordering::Release); // ordering: Release — trailing form
    // simlint: allow(unjustified-atomic-ordering) — fixture allow path
    stop.store(false, Ordering::Release);
}
fn ffi() {
    unsafe { close(3) };                             // SAFETY: fixture (hit: discarded)
    let _ = unsafe { close(3) };                     // SAFETY: fixture (hit: explicit discard)
    let rc = unsafe { close(3) };                    // SAFETY: fixture (miss: bound)
    if unsafe { close(3) } < 0 {}                    // SAFETY: fixture (miss: checked)
    take(unsafe { socket(1, 2, 3) });                // SAFETY: fixture (miss: argument)
    close_like(3);                                   // miss: not extern
    // simlint: allow(ffi-unchecked-return) — error unactionable in fixture
    unsafe { close(4) }; // SAFETY: fixture
}
"####;

    fn scan(src: &str) -> FileReport {
        scan_source("fixture.rs", src, &Rule::ALL)
    }

    fn hit_ids(report: &FileReport) -> Vec<&'static str> {
        report
            .violations
            .iter()
            .map(|v| v.rule.map_or("allow-directive", Rule::id))
            .collect()
    }

    #[test]
    fn fixture_hits_every_determinism_rule_and_respects_suppressions() {
        let report = scan(FIXTURE);
        // Unsuppressed hits only: HashMap use, HashSet field, Instant::now,
        // SystemTime, thread_rng, rand::random.
        assert_eq!(
            hit_ids(&report),
            vec![
                "hash-collections",
                "hash-collections",
                "wall-clock",
                "wall-clock",
                "ambient-rng",
                "ambient-rng"
            ],
            "{:#?}",
            report.violations
        );
        // All three directives were consumed and inventoried.
        let allowed: Vec<&str> = report.allows.iter().map(|a| a.rule.id()).collect();
        assert_eq!(
            allowed,
            vec!["hash-collections", "wall-clock", "ambient-rng"]
        );
        assert!(report.allows.iter().all(|a| !a.reason.is_empty()));
    }

    #[test]
    fn audit_fixture_hits_each_new_rule_exactly_where_expected() {
        let report = scan(AUDIT_FIXTURE);
        assert_eq!(
            hit_ids(&report),
            vec![
                "unsafe-without-safety",
                "unjustified-atomic-ordering",
                "ffi-unchecked-return",
                "ffi-unchecked-return"
            ],
            "{:#?}",
            report.violations
        );
        let allowed: Vec<&str> = report.allows.iter().map(|a| a.rule.id()).collect();
        assert_eq!(
            allowed,
            vec![
                "unsafe-without-safety",
                "unjustified-atomic-ordering",
                "ffi-unchecked-return"
            ]
        );
    }

    #[test]
    fn fixture_line_numbers_point_at_the_hit() {
        let report = scan(FIXTURE);
        let first = &report.violations[0];
        assert_eq!(first.line, 2, "HashMap import is on line 2");
        assert!(first.message.contains("HashMap"));
    }

    #[test]
    fn string_and_comment_identifiers_never_flag() {
        let report =
            scan("fn f() {\n  let a = \"HashMap\";\n  // SystemTime\n  /* thread_rng */\n}\n");
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }

    #[test]
    fn unsafe_in_string_or_comment_never_flags() {
        let report = scan("fn f() {\n  let a = \"unsafe { }\";\n  // unsafe in prose\n}\n");
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }

    #[test]
    fn safety_comment_must_be_adjacent() {
        // A blank line between the SAFETY comment and the unsafe block
        // breaks coverage: the walk only climbs contiguous comments.
        let report = scan("// SAFETY: too far away\n\nfn f() {\n  unsafe { g() };\n}\n");
        assert_eq!(hit_ids(&report), vec!["unsafe-without-safety"]);
    }

    #[test]
    fn ordering_comment_does_not_leak_past_statement_boundary() {
        // The covered statement ends (`;`); an uncommented use after a
        // non-ordering statement must flag.
        let report = scan(
            "fn f(x: &AtomicU64) {\n// ordering: Relaxed — one counter\nx.fetch_add(1, \
             Ordering::Relaxed);\nreset();\nx.fetch_add(2, Ordering::Relaxed);\n}\n",
        );
        assert_eq!(hit_ids(&report), vec!["unjustified-atomic-ordering"]);
        assert_eq!(report.violations[0].line, 5);
    }

    #[test]
    fn ordering_import_of_a_variant_is_flagged_too() {
        // `use ...Ordering::SeqCst` smuggles a bare variant into scope;
        // the import site itself must carry the justification.
        let report = scan("use std::sync::atomic::Ordering::SeqCst;\n");
        assert_eq!(hit_ids(&report), vec!["unjustified-atomic-ordering"]);
        let ok = scan("// ordering: SeqCst — model checker runs everything SC.\nuse std::sync::atomic::Ordering::SeqCst;\n");
        assert!(ok.violations.is_empty(), "{:#?}", ok.violations);
    }

    #[test]
    fn ffi_declaration_itself_never_flags() {
        let report = scan("extern \"C\" {\n    fn close(fd: i32) -> i32;\n}\n");
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }

    #[test]
    fn ffi_nested_call_arguments_count_as_used() {
        // Scanned with only the FFI rule active so the bare `unsafe`
        // (deliberately uncommented) doesn't muddy the assertion.
        let report = scan_source(
            "fixture.rs",
            "extern \"C\" {\n    fn socket(d: i32) -> i32;\n}\nfn f() {\n    let s = \
             wrap(unsafe { socket(pick(1)) });\n}\n",
            &[Rule::FfiUncheckedReturn],
        );
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }

    #[test]
    fn allow_without_reason_is_an_error() {
        let report = scan("// simlint: allow(wall-clock)\nlet t = Instant::now();\n");
        assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
        assert!(report.violations[0].message.contains("no reason"));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.rule == Some(Rule::WallClock)),
            "a reasonless allow must not suppress"
        );
    }

    #[test]
    fn unknown_rule_in_allow_is_an_error() {
        let report = scan("// simlint: allow(hashmaps) — wrong id\nlet x = 1;\n");
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("unknown rule"));
    }

    #[test]
    fn unused_allow_is_an_error() {
        let report = scan("// simlint: allow(wall-clock) — stale\nlet x = 1;\n");
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("unused allow"));
        assert!(report.allows.is_empty());
    }

    #[test]
    fn allow_only_covers_its_own_rule() {
        let report =
            scan("// simlint: allow(ambient-rng) — wrong rule\nlet m: HashMap<u8, u8> = x();\n");
        // The hash hit stands AND the rng allow is unused.
        assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
    }

    #[test]
    fn a_custom_hasher_does_not_launder_a_hash_map() {
        // `dcsim::det::IdMap` is the one sanctioned hash table; a map over
        // any other hasher, outside `det.rs`, is still a hit.
        let file = "crates/core/src/orchestrator/lease.rs";
        let src = "use std::hash::BuildHasherDefault;\nstruct Leases {\n    \
                   ids: HashMap<u64, u64, BuildHasherDefault<IdHasher>>,\n}\n";
        let report = scan_source(file, src, &crate::registry::active_rules(file));
        assert_eq!(hit_ids(&report), vec!["hash-collections"]);
        assert_eq!(report.violations[0].line, 3);
    }

    #[test]
    fn standalone_allow_skips_blank_and_comment_lines() {
        let report = scan(
            "// simlint: allow(wall-clock) — covers next code line\n\n// interleaved comment\nlet t = Instant::now();\n",
        );
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        assert_eq!(report.allows.len(), 1);
    }

    #[test]
    fn inactive_rules_do_not_run() {
        // The old whole-file exemption, reborn as per-rule scoping: a
        // wall-clock hit with only the hash rule active is clean.
        let report = scan_source(
            "netproxy.rs",
            "let t = Instant::now();",
            &[Rule::HashCollections],
        );
        assert!(report.violations.is_empty());
    }

    #[test]
    fn one_allow_covers_repeated_hits_on_its_line_only_once_each_rule() {
        // Two hits of the same rule on the covered line: both suppressed
        // (the directive marks the line, not a single token).
        let report = scan(
            "// simlint: allow(hash-collections) — both on one line\nfn f(a: HashMap<u8,u8>, b: HashSet<u8>) {}\n",
        );
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }
}
