//! In-memory spans recorded by the benchmark around its calls into the
//! workspace's public functions.
//!
//! A span has a name, a start, an end, the span that caused it and an
//! operation id shared by every span of one request or session. Spans
//! stay in memory and are written out once the run ends, with each
//! name's self time: a span's duration minus the part its children
//! cover. Children run in parallel may overlap (the sweep points of
//! the K sweep), so that part is the union of their intervals.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

use crate::json::{number, quote};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in its tracer.
    pub id: usize,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// Operation (session or request) the span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `mining.DecisionTree::fit`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. A disabled tracer runs the same
/// closures and records nothing, which is what the untraced side of the
/// overhead measurement uses.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The operation id stamped on spans opened now.
    pub fn op(&self) -> u64 {
        self.op
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `work` inside a span named `name`, nested under the
    /// innermost open span.
    pub fn span<T>(&mut self, name: &str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return work(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere (an observer callback, a
    /// client thread) under `parent`; returns its id (meaningless on a
    /// disabled tracer).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let id = self.spans.len();
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                op: self.op,
                name: name.to_owned(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
        id
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this tracer (re-numbered, parents
    /// preserved, `other`'s top-level spans placed under `parent`);
    /// used to merge per-thread tracers.
    pub fn absorb(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map_or(parent, |p| Some(p + base));
            s
        }));
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub count: usize,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

impl NameStats {
    /// Mean duration in milliseconds (0 without spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Each span's self time: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Totals per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += self_ns;
    }
    out
}

/// The span dump written at the end of a traced run: every span, the
/// self-time table per name, and the run's layer metrics and notes.
pub fn dump(spans: &[Span], layer: &[(String, f64, String)], notes: &[(String, String)]) -> String {
    let mut out = String::from("{\n  \"notes\": {");
    for (i, (k, v)) in notes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}\n    {}: {}", quote(k), quote(v)).expect("String write");
    }
    out.push_str("\n  },\n  \"layer_metrics\": {");
    for (i, (name, value, unit)) in layer.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\n    {}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            number(*value),
            quote(unit)
        )
        .expect("String write");
    }
    out.push_str("\n  },\n  \"self_time\": [");
    for (i, (name, st)) in by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\n    {{\"name\": {}, \"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
            quote(name),
            st.count,
            number(st.total_ns as f64 / 1e6),
            number(st.self_ns as f64 / 1e6)
        )
        .expect("String write");
    }
    out.push_str("\n  ],\n  \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        write!(
            out,
            "{sep}\n    {{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.op,
            quote(&s.name),
            s.start_ns,
            s.end_ns
        )
        .expect("String write");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let stats = by_name(t.spans());
        let outer = stats["outer"];
        let inner = stats["inner"];
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn overlapping_children_count_once() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            op: 0,
            name: String::new(),
            start_ns,
            end_ns,
        };
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 80, 90),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60 - 10, 40, 40, 10]);
    }

    #[test]
    fn absorbed_roots_hang_under_the_parent() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        main.span("outer", |_| ());
        let mut worker = Tracer::new(true, epoch);
        worker.span("a", |t| t.span("b", |_| ()));
        main.absorb(worker, Some(0));
        let parents: Vec<Option<usize>> = main.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
    }

    #[test]
    fn disabled_tracer_runs_work_and_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn dump_is_valid_json() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("a\"b", |_| ());
        let text = dump(
            t.spans(),
            &[("m".into(), 1.5, "ms".into())],
            &[("k".into(), "v".into())],
        );
        let v = crate::json::parse(&text).expect("dump parses");
        assert_eq!(
            v.get("spans").and_then(|s| s.as_array()).map(<[_]>::len),
            Some(1)
        );
    }
}
