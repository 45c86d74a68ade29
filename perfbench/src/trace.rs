//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (the layer entry point), a start and an end in
//! nanoseconds since the tracer was created, the span that caused it, and
//! a request id shared by every span of one request. Spans are kept in
//! memory while the benchmark runs and written out when it ends; nothing
//! is recorded unless the tracer is on, so the untraced run pays one
//! branch per call site.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span plus one; [`NONE`] when nothing was recorded.
pub type SpanId = u32;
pub const NONE: SpanId = 0;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// The causing span, or [`NONE`] for a root.
    pub parent: SpanId,
    pub req: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer that keeps at most `cap` spans (later ones are counted as
    /// dropped, so memory stays bounded).
    pub fn new(on: bool, cap: usize) -> Self {
        Self { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), cap, dropped: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NONE;
        }
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start = self.now_ns();
        self.spans.push(Span { name, start, end: start, parent, req });
        let id = self.spans.len() as SpanId;
        self.open.push(id);
        id
    }

    /// Closes `id` (a no-op for [`NONE`]). Spans close innermost first.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end = self.now_ns();
        self.spans[id as usize - 1].end = end;
        debug_assert_eq!(self.open.last(), Some(&id), "spans must close innermost first");
        self.open.pop();
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    /// Sum of the durations of every span called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// The spans as CSV: `id,name,start_ns,end_ns,parent,req`.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("id,name,start_ns,end_ns,parent,req\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = writeln!(
                s,
                "{},{},{},{},{},{}",
                i + 1,
                sp.name,
                sp.start,
                sp.end,
                sp.parent,
                sp.req
            );
        }
        s
    }
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (children are clipped to the parent
/// and overlapping children are counted once). Rows are sorted by self
/// time, largest first.
pub fn self_times(spans: &[Span]) -> Vec<LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            children[s.parent as usize - 1].push((s.start, s.end));
        }
    }
    let mut rows: HashMap<&'static str, LayerTime> = HashMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(s.start, s.end, kids);
        let row = rows.entry(s.name).or_insert(LayerTime {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.end - s.start;
        row.self_ns += (s.end - s.start) - covered;
    }
    let mut out: Vec<LayerTime> = rows.into_values().collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span { name, start, end, parent, req: 0 }
    }

    fn row<'a>(rows: &'a [LayerTime], name: &str) -> &'a LayerTime {
        rows.iter().find(|r| r.name == name).expect("row present")
    }

    #[test]
    fn self_time_subtracts_children() {
        // request [0,100) with read [10,20) and query [30,90) inside it,
        // and the query's own child fetch [40,50).
        let spans = [
            span("request", 0, 100, NONE),
            span("read", 10, 20, 1),
            span("query", 30, 90, 1),
            span("fetch", 40, 50, 3),
        ];
        let rows = self_times(&spans);
        assert_eq!(row(&rows, "request").self_ns, 100 - 10 - 60);
        assert_eq!(row(&rows, "query").self_ns, 60 - 10);
        assert_eq!(row(&rows, "read").self_ns, 10);
        assert_eq!(row(&rows, "fetch").self_ns, 10);
        let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(self_sum, 100, "self times of a tree sum to its root's duration");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other and one sticks out past the parent.
        let spans = [
            span("parent", 100, 200, NONE),
            span("a", 110, 150, 1),
            span("b", 140, 160, 1),
            span("c", 190, 230, 1),
        ];
        let rows = self_times(&spans);
        // Union inside the parent: [110,160) + [190,200) = 60.
        assert_eq!(row(&rows, "parent").self_ns, 40);
        assert_eq!(row(&rows, "parent").total_ns, 100);
    }

    #[test]
    fn rows_aggregate_by_name_and_sort_by_self_time() {
        let spans = [span("q", 0, 10, NONE), span("q", 20, 25, NONE), span("r", 30, 60, NONE)];
        let rows = self_times(&spans);
        assert_eq!(rows[0], LayerTime { name: "r", count: 1, total_ns: 30, self_ns: 30 });
        assert_eq!(rows[1], LayerTime { name: "q", count: 2, total_ns: 15, self_ns: 15 });
    }

    #[test]
    fn tracer_links_parents_and_stays_silent_when_off() {
        let mut t = Tracer::new(true, 16);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(outer);
        let after = t.span("after", 8, || 42);
        assert_eq!(after, 42);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NONE, 1, NONE));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert_eq!(s[1].req, 7);

        let mut off = Tracer::new(false, 16);
        let id = off.begin("x", 0);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut full = Tracer::new(true, 1);
        let a = full.begin("a", 0);
        full.end(a);
        let b = full.begin("b", 0);
        full.end(b);
        assert_eq!((full.spans().len(), full.dropped()), (1, 1));
    }
}
