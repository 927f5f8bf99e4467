//! In-memory spans for the traced replay: one span around every call into
//! a layer, written out once when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call: its layer name, interval (ns since the recorder's
/// origin), the span that caused it and the request it served.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let span = self.open(name, Some(parent), request);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Children of every span, by index.
fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut parts: Vec<(u64, u64)> = kids[i]
                .iter()
                .map(|&c| (spans[c].start_ns.max(s.start_ns), spans[c].end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            parts.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in parts {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// What the consistency check of a replay found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Consistency {
    /// Spans that stick out of their parent or belong to another request.
    pub misnested: usize,
    /// Root spans whose subtree self times do not add up to their
    /// duration within the allowed slack.
    pub unbalanced: usize,
    /// Root spans checked.
    pub roots: usize,
}

impl Consistency {
    pub fn ok(&self) -> bool {
        self.misnested == 0 && self.unbalanced == 0
    }
}

/// Checks that every span nests inside its parent (same request), and that
/// under every root span the self times of the subtree add up to the
/// root's duration within `resolution_ns` per span.
pub fn check(spans: &[Span], resolution_ns: u64) -> Consistency {
    let selfs = self_times(spans);
    let mut out = Consistency::default();
    // Sum of self times per root, walking parents up to the root.
    let mut sums: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start_ns < parent.start_ns
                || s.end_ns > parent.end_ns
                || s.request != parent.request
            {
                out.misnested += 1;
            }
        }
        let mut root = i;
        while let Some(p) = spans[root].parent {
            root = p;
        }
        let entry = sums.entry(root).or_default();
        entry.0 += selfs[i];
        entry.1 += 1;
    }
    for (root, (sum, count)) in sums {
        out.roots += 1;
        let slack = resolution_ns * count;
        if sum.abs_diff(spans[root].duration_ns()) > slack {
            out.unbalanced += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // request [0, 100): decode [10, 20), race [20, 70) with two
        // overlapping kernel spans [25, 50) and [40, 60), encode [80, 90).
        let spans = vec![
            span("request", 0, 100, None),
            span("decode", 10, 20, Some(0)),
            span("race", 20, 70, Some(0)),
            span("kernel", 25, 50, Some(2)),
            span("kernel", 40, 60, Some(2)),
            span("encode", 80, 90, Some(0)),
        ];
        let selfs = self_times(&spans);
        // Root: 100 - (10 + 50 + 10) = 30 unassigned.
        assert_eq!(selfs, vec![30, 10, 15, 25, 20, 10]);
        // The overlapping kernels make the subtree sum exceed the root by
        // their 10 ns overlap; everything else adds up exactly.
        assert_eq!(selfs.iter().sum::<u64>(), 110);
        let c = check(&spans, 0);
        assert_eq!((c.misnested, c.unbalanced, c.roots), (0, 1, 1));
    }

    #[test]
    fn a_sequential_tree_balances_and_a_stray_child_is_caught() {
        let mut spans = vec![
            span("request", 0, 100, None),
            span("decode", 0, 30, Some(0)),
            span("race", 30, 90, Some(0)),
            span("kernel", 40, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![10, 30, 20, 40]);
        assert!(check(&spans, 0).ok());
        spans[3].end_ns = 95; // ends after its parent
        assert_eq!(check(&spans, 0).misnested, 1);
    }

    #[test]
    fn recorder_spans_nest_and_balance() {
        let mut rec = Recorder::new();
        let root = rec.open("request", None, 9);
        rec.time("decode", root, || std::hint::black_box((0..1000).sum::<u64>()));
        rec.time("encode", root, || ());
        rec.close(root);
        assert_eq!(rec.spans().len(), 3);
        assert!(rec.spans().iter().all(|s| s.request == 9));
        assert!(check(rec.spans(), 0).ok());
    }
}
