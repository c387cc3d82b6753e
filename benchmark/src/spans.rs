//! Spans recorded around the benchmark's own calls into each crate.
//!
//! A span is a name (`<layer>.<call>`), a start and end in nanoseconds
//! since the tracer was created, the span that caused it, and the id of
//! the segment, op or request it belongs to. Spans stay in memory during
//! the run and are written out as JSON lines when it ends. A span's self
//! time is its duration minus the part of that interval covered by its
//! children.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Open spans nest: a span entered while
/// another is open becomes its child. A tracer made with [`Tracer::off`]
/// records nothing, so one code path serves traced and untraced runs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { on: true, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// A tracer that records nothing: `enter` and `exit` return at once.
    pub fn off() -> Self {
        Tracer { on: false, ..Tracer::default() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span; returns its index.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Add an already-timed span.
    #[cfg(test)]
    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Summed self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_default() += t;
        }
        out
    }

    /// Summed self time of the spans called `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_time_by_name().get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Durations of the spans called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.push(span("root", 0, 100, None));
        t.push(span("a", 10, 30, Some(root)));
        t.push(span("b", 40, 70, Some(root)));
        assert_eq!(t.self_times_ns(), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut t = Tracer::default();
        let root = t.push(span("root", 0, 100, None));
        t.push(span("a", 10, 30, Some(root)));
        t.push(span("a", 20, 50, Some(root)));
        t.push(span("b", 90, 120, Some(root)));
        // Covered: [10, 50) and [90, 100) = 50 of the root's 100.
        assert_eq!(t.self_times_ns()[0], 50);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["root"], 50);
        assert_eq!(by_name["a"], 20 + 30);
        assert_eq!(by_name["b"], 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let mut t = Tracer::default();
        let root = t.push(span("root", 0, 100, None));
        let mid = t.push(span("mid", 10, 90, Some(root)));
        t.push(span("leaf", 20, 60, Some(mid)));
        assert_eq!(t.self_times_ns(), vec![20, 40, 40]);
        // Self times partition the root's interval exactly.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn live_spans_nest_and_partition_wall_time() {
        let mut t = Tracer::default();
        let root = t.enter("root", 7);
        let x = t.span("leaf", 7, || (0..10_000u64).sum::<u64>());
        assert_eq!(x, 49_995_000);
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        let total: u64 = t.self_times_ns().iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let root = t.enter("root", 1);
        assert_eq!(t.span("leaf", 1, || 5), 5);
        t.exit(root);
        assert!(t.spans().is_empty());
    }
}
