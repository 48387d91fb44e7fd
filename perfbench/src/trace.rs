//! In-memory span recorder for the traced run.
//!
//! The benchmark times calls into each layer's public functions from its
//! own code: a span per call, with its parent and the cell it belongs to.
//! Spans are timed on the process CPU clock, kept in memory and written
//! out once the run ends. A layer's self time is its spans' durations
//! minus the parts covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::process_cpu_s;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`des`, `churn`, `exp.fig3`, ...).
    pub name: &'static str,
    /// Process CPU clock at entry, seconds.
    pub start: f64,
    /// Process CPU clock at exit, seconds.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The (mix, architecture) cell, experiment or serving sweep this
    /// call belongs to.
    pub cell: u32,
}

/// Span handle returned by [`Tracer::enter`].
#[must_use = "close the span with Tracer::exit"]
#[derive(Debug)]
pub struct Open(usize);

/// Records spans and named work counters.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: u32) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: process_cpu_s(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            cell,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes a span; spans close innermost first.
    ///
    /// # Panics
    ///
    /// Panics when `open` is not the innermost open span.
    pub fn exit(&mut self, open: Open) {
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        self.spans[open.0].end = process_cpu_s();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, cell: u32, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, cell);
        let out = f();
        self.exit(open);
        out
    }

    /// Adds `by` to the work counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_insert(0.0) += by;
    }

    /// A work counter's total (zero when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time per span name, seconds: each span's duration minus the
    /// durations of its direct children.
    ///
    /// # Panics
    ///
    /// Panics while a span is still open.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        assert!(self.stack.is_empty(), "self times need every span closed");
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - children;
        }
        out
    }

    /// The spans as a JSON array of `{name, start, end, parent, cell}`
    /// objects, times in seconds on the process CPU clock.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"parent\":{parent},\"cell\":{}}}{sep}",
                s.name, s.start, s.end, s.cell
            )
            .expect("write to String");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 0);
        let inner = t.enter("inner", 0);
        let leaf = t.enter("leaf", 0);
        t.exit(leaf);
        t.exit(inner);
        t.exit(outer);
        // Pin the clock readings so the arithmetic is exact.
        for (s, (a, b)) in t
            .spans
            .iter_mut()
            .zip([(0.0, 10.0), (1.0, 5.0), (2.0, 3.0)])
        {
            s.start = a;
            s.end = b;
        }
        let st = t.self_times();
        assert_eq!(st["outer"], 6.0);
        assert_eq!(st["inner"], 3.0);
        assert_eq!(st["leaf"], 1.0);
        assert!(t.spans_json().contains("\"parent\":1"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_must_nest() {
        let mut t = Tracer::new();
        let a = t.enter("a", 0);
        let _b = t.enter("b", 0);
        t.exit(a);
    }
}
