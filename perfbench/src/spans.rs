//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer: its name, the operation it
//! served, the span that caused it, wall start and end, and the heap
//! allocations made inside it. Every span is timed; those of the
//! operations chosen with [`Spans::keep`] stay in memory (in a
//! [`QuietVec`], so recording them allocates nothing the counters see)
//! and are written once, as Chrome trace-event JSON, when the run ends.

use crate::alloc::QuietVec;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `service.submit`.
    pub name: &'static str,
    /// The operation this call served.
    pub op: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Heap allocations made inside the span (while open: the counter
    /// reading at the start).
    pub allocs: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: QuietVec<Span>,
    /// Operations whose spans are kept.
    keep: std::ops::Range<u64>,
    /// Spans timed, kept or not.
    timed: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: QuietVec::new(), keep: 0..0, timed: 0 }
    }
}

impl Spans {
    /// Keeps the spans of operations in `ops` from now on (spans kept
    /// before stay).
    pub fn keep(&mut self, ops: std::ops::Range<u64>) {
        self.keep = ops;
    }

    /// How many spans were timed, kept or not.
    pub fn timed(&self) -> u64 {
        self.timed
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span { name, op, parent, start_ns: 0, end_ns: 0, allocs: 0 });
        self.spans[id].allocs = crate::alloc::allocs();
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    /// Closes span `id` (the latest span still open) and returns it.
    pub fn close(&mut self, id: usize) -> Span {
        let end = self.origin.elapsed().as_nanos() as u64;
        let allocs = crate::alloc::allocs();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = allocs - span.allocs;
        let span = *span;
        self.timed += 1;
        // Spans close innermost first, so an unkept span is the last one
        // stored when it closes.
        if !self.keep.contains(&span.op) && id + 1 == self.spans.len() {
            self.spans.pop();
        }
        span
    }

    /// Times `f` as a span and returns its result with the span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Span) {
        let id = self.open(name, op, parent);
        let r = f();
        (r, self.close(id))
    }

    /// The kept spans.
    pub fn kept(&self) -> &[Span] {
        &self.spans
    }

    /// The kept spans as Chrome trace-event JSON (complete `X` events,
    /// µs), which Perfetto and `chrome://tracing` open. Span ids and
    /// parents are indices into [`Spans::kept`].
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"op\":{},\"parent\":{},\"allocs\":{}}}}}",
                if std::mem::take(&mut first) { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() / 1e3,
                i,
                s.op,
                parent,
                s.allocs
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut spans = Spans::default();
        spans.keep(7..8);
        let root = spans.open("op", 7, None);
        let (v, child) = spans.time("leaf", 7, Some(root), || vec![41u8; 3].len());
        let root_span = spans.close(root);
        assert_eq!(v, 3);
        assert_eq!(child.parent, Some(root));
        assert!(root_span.start_ns <= child.start_ns && child.end_ns <= root_span.end_ns);
        let json = spans.chrome_json();
        assert!(json.contains("\"name\":\"leaf\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn unkept_spans_are_timed_but_not_stored() {
        let mut spans = Spans::default();
        spans.keep(1..2);
        let root = spans.open("op", 2, None);
        let (_, child) = spans.time("leaf", 2, Some(root), || ());
        spans.close(root);
        assert!(child.end_ns >= child.start_ns);
        assert_eq!((spans.kept().len(), spans.timed()), (0, 2));
    }
}
