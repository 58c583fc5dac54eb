//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every public call it makes into a layer in a span
//! (name, start, end, parent, request id). Spans stay in memory until the
//! run ends, then go to a JSONL file. Nothing inside the program is
//! instrumented: a span measures the call as seen from the caller.

use crate::stats::json_str;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans; the innermost open span is the parent of the
/// next one.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Runs one request as a root span named `request` under a fresh
    /// request id; returns the root span's index and `f`'s result.
    pub fn request<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (usize, R) {
        self.request += 1;
        let id = self.spans.len();
        let out = self.span("request", f);
        (id, out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per request rooted at `roots`: milliseconds in spans named `name`.
    pub fn ms_in(&self, roots: &[usize], name: &str) -> Vec<f64> {
        roots
            .iter()
            .map(|&root| total_ns(&self.spans, self.spans[root].request, name) as f64 / 1e6)
            .collect()
    }

    /// Per request rooted at `roots`: the share its direct children cover.
    pub fn coverages(&self, roots: &[usize]) -> Vec<f64> {
        roots
            .iter()
            .map(|&root| coverage(&self.spans, root))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"request\": {}, \"name\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.request,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Indices of the direct children of span `id`.
pub fn children(spans: &[Span], id: usize) -> impl Iterator<Item = usize> + '_ {
    (id + 1..spans.len()).filter(move |&c| spans[c].parent == Some(id))
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`
/// (clipped to the window).
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Share of span `id`'s duration covered by its direct children.
pub fn coverage(spans: &[Span], id: usize) -> f64 {
    let root = &spans[id];
    if root.nanos() == 0 {
        return 1.0;
    }
    let kids = children(spans, id)
        .map(|c| (spans[c].start_ns, spans[c].end_ns))
        .collect();
    covered_ns(root.start_ns, root.end_ns, kids) as f64 / root.nanos() as f64
}

/// Self time of span `id`: its duration minus the part its direct
/// children cover.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let root = &spans[id];
    let kids = children(spans, id)
        .map(|c| (spans[c].start_ns, spans[c].end_ns))
        .collect();
    root.nanos() - covered_ns(root.start_ns, root.end_ns, kids)
}

/// Total nanoseconds of every span named `name` in request `request`.
pub fn total_ns(spans: &[Span], request: u64, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.request == request && s.name == name)
        .map(Span::nanos)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    /// request [0, 100) with children load [0, 30), solve [40, 90) and
    /// grandchildren inside solve that must not count towards the root.
    fn tree() -> Vec<Span> {
        vec![
            span("request", 0, 100, None),
            span("load", 0, 30, Some(0)),
            span("solve", 40, 90, Some(0)),
            span("generate", 40, 60, Some(2)),
            span("game", 60, 85, Some(2)),
        ]
    }

    #[test]
    fn coverage_counts_direct_children_only() {
        let spans = tree();
        assert!((coverage(&spans, 0) - 0.8).abs() < 1e-12);
        assert!((coverage(&spans, 2) - 0.9).abs() < 1e-12);
        assert!((coverage(&spans, 1) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = tree();
        assert_eq!(self_ns(&spans, 0), 20);
        assert_eq!(self_ns(&spans, 2), 5);
        assert_eq!(self_ns(&spans, 3), 20);
        // Self times of the whole tree add up to the root's duration.
        let total: u64 = (0..spans.len()).map(|i| self_ns(&spans, i)).sum();
        assert_eq!(total, spans[0].nanos());
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Union: [10, 70) + [90, 100) = 70 ns.
        assert!((coverage(&spans, 0) - 0.7).abs() < 1e-12);
        assert_eq!(self_ns(&spans, 0), 30);
    }

    #[test]
    fn totals_sum_by_name_within_a_request() {
        let mut spans = tree();
        spans.push(Span {
            request: 2,
            ..span("game", 0, 1000, None)
        });
        assert_eq!(total_ns(&spans, 1, "game"), 25);
        assert_eq!(total_ns(&spans, 2, "game"), 1000);
    }

    #[test]
    fn tracer_links_parents_and_requests() {
        let mut t = Tracer::default();
        let (root, x) = t.request(|t| {
            t.span("a", |t| t.span("b", |_| ()));
            t.span("c", |_| 7)
        });
        assert_eq!(x, 7);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[root].name, "request");
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(root));
        assert!(s.iter().all(|x| x.request == 1 && x.end_ns >= x.start_ns));
        assert_eq!(children(s, root).collect::<Vec<_>>(), vec![1, 3]);
        assert!(coverage(s, root) <= 1.0);
    }
}
