//! In-memory spans around the calls into each layer, and the self time
//! each layer accounts for.
//!
//! A span records a name, a start, an end and the span that was open when
//! it began. Layer calls are named `layer.operation` (`lsh.query_hash`,
//! `candgen.probe`, ...); the harness opens one bare-named root span per
//! replayed operation (`setup`, `join`, `query`, `topk`, `sharded`). A
//! span's self time is its duration minus the part its direct children
//! cover, so summing self times by layer splits the roots' wall without
//! counting anything twice.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    /// `layer.operation` for a layer call; a bare name for a harness root.
    name: &'static str,
    start: Instant,
    end: Instant,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Calls, total and self seconds of the spans sharing one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStats {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Span recorder for one thread.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = Instant::now();
        out
    }

    /// Per span name, over the spans whose root is named `root` (all
    /// spans when `None`).
    pub fn summary(&self, root: Option<&str>) -> BTreeMap<&'static str, SpanStats> {
        let mut covered = vec![0.0f64; self.spans.len()];
        let mut root_of = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            // Parents open before their children, so their roots are known.
            root_of[i] = s.parent.map_or(i, |p| root_of[p]);
            if let Some(p) = s.parent {
                covered[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if root.is_some_and(|r| self.spans[root_of[i]].name != r) {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_s += s.secs();
            e.self_s += s.secs() - covered[i];
        }
        out
    }

    /// Summed duration of the root spans, seconds: the traced wall.
    pub fn root_wall(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Summed self time of every span that belongs to a program layer.
    pub fn layer_self(&self) -> f64 {
        self.summary(None)
            .iter()
            .filter(|(name, _)| layer_of(name).is_some())
            .map(|(_, s)| s.self_s)
            .sum()
    }
}

/// The layer a span name belongs to (`lsh` for `lsh.query_hash`), or
/// `None` for a harness root.
pub fn layer_of(name: &str) -> Option<&str> {
    name.split_once('.').map(|(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_filter() {
        let mut tr = Tracer::default();
        tr.span("query", |tr| {
            tr.span("lsh.query_hash", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("verify.query", |_| ());
        });
        tr.span("topk", |tr| tr.span("lsh.query_hash", |_| ()));
        let all = tr.summary(None);
        assert_eq!(all["lsh.query_hash"].calls, 2);
        let q = tr.summary(Some("query"));
        assert_eq!(q["lsh.query_hash"].calls, 1);
        assert!(q["query"].self_s < q["query"].total_s);
        assert!(q["lsh.query_hash"].self_s >= 0.002);
        let parts: f64 = all.values().map(|s| s.self_s).sum();
        assert!((parts - tr.root_wall()).abs() < 1e-9);
        assert!(tr.layer_self() <= tr.root_wall());
    }
}
