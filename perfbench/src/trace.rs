//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a layer of the program. A span has a name, a start and end
//! (nanoseconds since the recorder was made), the span that was open
//! when it began, a request id shared by every span of one request
//! (one query, frame, pipeline round or epoch), and an optional count of
//! items the span covered. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `brokerset.index.apply_delta`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
    /// Items covered (queries in a block, say); 1 by default.
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` inside when recording is off.
#[must_use]
#[derive(Debug)]
pub struct Token(Option<usize>);

/// The recorder. With `enabled = false` (untraced runs) every call is a
/// branch and nothing is stored. In a traced run recording can be
/// paused per unit of work, so that traced and untraced units of the
/// same run give the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    active: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    requests: u64,
}

impl Tracer {
    /// A recorder; `enabled` is the run's `--trace` flag.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            active: enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            requests: 0,
        }
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pause or resume recording for the next unit of work. Must not be
    /// called while a span is open.
    pub fn set_active(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "recording toggled inside a span");
        self.active = self.enabled && on;
    }

    /// Whether spans are being recorded right now.
    pub fn active(&self) -> bool {
        self.active
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Token {
        if !self.active {
            return Token(None);
        }
        let i = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
            count: 1,
        });
        self.stack.push(i);
        Token(Some(i))
    }

    /// Close a span.
    pub fn end(&mut self, token: Token) {
        self.end_count(token, 1);
    }

    /// Close a span that covered `count` items.
    pub fn end_count(&mut self, token: Token, count: u64) {
        let Some(i) = token.0 else { return };
        let now = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(i), "spans closed out of order");
        let span = &mut self.spans[i];
        span.end_ns = now;
        span.count = count;
    }

    /// Run `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let t = self.begin(name, request);
        let out = f();
        self.end(t);
        out
    }

    /// Every closed span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest\tcount")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.request, s.count
            )?;
        }
        out.flush()
    }
}

/// Aggregate time of one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub calls: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the part covered by child spans, ns.
    pub self_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its child spans cover, summed by name.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        let e = by_name.entry(s.name).or_insert(SelfTime {
            name: s.name,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns() - covered;
    }
    by_name.into_values().collect()
}

/// Durations (seconds) of every span called `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .collect()
}

/// For every span called `root`, the summed durations (seconds) of its
/// direct children called `child`; roots without such a child are left
/// out.
pub fn child_sums_s(spans: &[Span], root: &str, child: &str) -> Vec<f64> {
    let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans {
        if s.name != child {
            continue;
        }
        if let Some(p) = s.parent.filter(|&p| spans[p].name == root) {
            *sums.entry(p).or_insert(0) += s.dur_ns();
        }
    }
    sums.into_values().map(|ns| ns as f64 * 1e-9).collect()
}

/// Summed duration (ns) and summed count of every span called `name`.
pub fn totals(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, c), s| (ns + s.dur_ns(), c + s.count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            count: 1,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50), (0, 5)];
        // [10,30] + [40,45] inside [2,45]; (0,5) clips to [2,5].
        assert_eq!(covered_ns(&mut iv, 2, 45), 3 + 20 + 5);
        assert_eq!(covered_ns(&mut [], 0, 100), 0);
        let mut nested = vec![(10, 40), (20, 30)];
        assert_eq!(covered_ns(&mut nested, 0, 100), 30);
    }

    #[test]
    fn self_time_subtracts_children_only_once() {
        // root [0,100] with children a [10,40], b [50,60]; a has its own
        // child c [20,30]. Self: root 60, a 20, b 10, c 10.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 20, 30, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        let st = self_times(&spans);
        let get = |n: &str| st.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!((get("root").total_ns, get("root").self_ns), (100, 60));
        assert_eq!((get("a").total_ns, get("a").self_ns), (30, 20));
        assert_eq!((get("b").total_ns, get("b").self_ns), (10, 10));
        assert_eq!((get("c").total_ns, get("c").self_ns), (10, 10));
        let self_sum: u64 = st.iter().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root");
    }

    #[test]
    fn self_time_aggregates_by_name() {
        let spans = vec![
            span("epoch", 0, 10, None),
            span("apply", 2, 6, Some(0)),
            span("epoch", 20, 40, None),
            span("apply", 25, 35, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0].name, "apply");
        assert_eq!((st[0].calls, st[0].total_ns, st[0].self_ns), (2, 14, 14));
        assert_eq!((st[1].calls, st[1].total_ns, st[1].self_ns), (2, 30, 16));
    }

    #[test]
    fn child_sums_group_by_root() {
        let spans = vec![
            span("round", 0, 100, None),
            span("select", 0, 10, Some(0)),
            span("select", 10, 30, Some(0)),
            span("round", 100, 200, None),
            span("select", 100, 105, Some(3)),
            span("select", 300, 301, None),
        ];
        let ns: Vec<u64> = child_sums_s(&spans, "round", "select")
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(ns, vec![30, 5]);
        assert_eq!(durations_s(&spans, "round").len(), 2);
        assert_eq!(totals(&spans, "select"), (36, 4));
    }

    #[test]
    fn recorder_links_parents_and_pauses() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end_count(inner, 512);
        t.end(outer);
        t.set_active(false);
        let skipped = t.begin("skipped", 8);
        t.end(skipped);
        t.set_active(true);
        t.leaf("leaf", 9, || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[1].request, s[1].count), (Some(0), 7, 512));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!((s[2].name, s[2].parent), ("leaf", None));

        let mut off = Tracer::new(false);
        off.set_active(true);
        let tok = off.begin("x", 0);
        off.end(tok);
        assert!(off.spans().is_empty() && !off.active());
    }
}
