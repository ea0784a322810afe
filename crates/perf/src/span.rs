//! Spans recorded from the benchmark's side of every layer boundary.
//!
//! A span is one call the harness makes into a layer's public function
//! (or one probe loop over it): name, start, end, the span that caused
//! it, and the workload run it belongs to. Spans are kept in memory and
//! written as JSON lines when the run ends. A layer's self time is its
//! span minus the part of that interval its child spans cover. Spans
//! inside `netproxy`/`dcsim`/`incast-core` are a later change; here the
//! products are measured from outside only.

use crate::clock;
use crate::json;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; past this the tracer counts instead of storing, so
/// a long traced run cannot grow without bound.
const MAX_SPANS: usize = 2_000_000;

/// One recorded span. Times are ns since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Slice / round / repetition the span belongs to.
    pub run: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be exited"]
pub struct SpanId(Option<u32>);

/// In-memory span recorder. When disabled, `enter`/`exit` cost one branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: clock::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            dropped: 0,
        }
    }

    /// Switches recording on or off between slices (a traced run
    /// alternates traced and untraced slices to measure its own cost).
    /// Must not be called with a span open.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    /// Tags subsequent spans with a slice / round / repetition number.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        self.spans[id as usize].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not stored because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-name totals (see [`summarize`]).
    pub fn summary(&self) -> BTreeMap<&'static str, NameTotals> {
        summarize(&self.spans)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"workload\":{},\"run\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
                json::quote(workload),
                s.run,
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
            )?;
        }
        // BufWriter's drop would swallow a write error.
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its direct children (their union, clipped to the parent, so
/// overlapping or overhanging children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Count, total time and self time per span name, names sorted.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 160, Some(0)), // overlaps x by 10
            span("z", 190, 250, Some(0)), // overhangs the parent by 50
            span("w", 50, 90, Some(0)),   // entirely outside: ignored
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn summary_groups_by_name() {
        let spans = vec![
            span("run", 0, 50, None),
            span("run", 60, 100, None),
            span("call", 10, 20, Some(0)),
        ];
        let s = summarize(&spans);
        assert_eq!(
            s["run"],
            NameTotals {
                count: 2,
                total_ns: 90,
                self_ns: 80
            }
        );
        assert_eq!(s["call"].self_ns, 10);
    }

    #[test]
    fn tracer_nests_and_disables() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        t.set_enabled(false);
        let off = t.enter("ignored");
        t.exit(off);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
