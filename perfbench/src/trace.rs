//! In-memory span recorder for the traced run.
//!
//! A span is named after the metric it feeds, `<layer>.<what>` (for
//! example `gates.fault_sim_s.stuck_at`); its layer is the name up to the
//! first dot. Spans carry their parent, are kept in memory while the
//! workload runs and are written out once at the end. A span's self time
//! is its duration minus the part of it its children cover, so the self
//! times of all spans sum to the root's duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Metric name; the layer is the part before the first `.`.
    pub name: String,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records a tree of spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &str) -> usize {
        let start = self.at(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed().as_secs_f64();
        span.end - span.start
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Records an already finished interval under span `parent` (or under
    /// the innermost open span when `None`).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, parent: Option<usize>) {
        let span = Span {
            name: name.to_owned(),
            start: self.at(start),
            end: self.at(end),
            parent: parent.or_else(|| self.open.last().copied()),
        };
        self.spans.push(span);
    }

    /// Records a child of `parent` lasting `seconds` and ending where the
    /// parent ends — for time a callee reports about itself (PODEM wall
    /// time from ATPG telemetry) rather than time the benchmark observed.
    pub fn record_reported(&mut self, name: &str, parent: usize, seconds: f64) {
        let end = self.spans[parent].end;
        let start = (end - seconds).max(self.spans[parent].start);
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end,
            parent: Some(parent),
        });
    }

    /// All spans, in the order they were opened or recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`.
    pub fn inclusive_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| self_time((span.start, span.end), kids))
            .collect()
    }

    /// Self time summed per layer.
    pub fn layer_self_s(&self) -> BTreeMap<String, f64> {
        let mut layers = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *layers.entry(span.layer().to_owned()).or_insert(0.0) += own;
        }
        layers
    }

    /// Writes every span as a tab-separated line:
    /// `id  parent  name  start_s  end_s  self_s`.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tname\tstart_s\tend_s\tself_s")?;
        for (id, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{:.9}\t{:.9}\t{:.9}",
                span.name, span.start, span.end, own
            )?;
        }
        Ok(())
    }
}

/// `span`'s duration minus the union of `children` clipped to it:
/// overlapping children are counted once.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (lo, hi) = span;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once() {
        // [0,10] with children [1,4] and [3,6] overlapping, [8,9] apart.
        let own = self_time((0.0, 10.0), &[(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]);
        assert!((own - 4.0).abs() < 1e-12);
        // A child nested inside another adds nothing.
        let own = self_time((0.0, 10.0), &[(2.0, 8.0), (3.0, 4.0)]);
        assert!((own - 4.0).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let own = self_time((2.0, 6.0), &[(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]);
        assert!((own - 2.0).abs() < 1e-12);
        assert_eq!(self_time((0.0, 5.0), &[]), 5.0);
    }

    #[test]
    fn layer_self_times_sum_to_the_root() {
        let mut t = Tracer::new();
        let root = t.open("root");
        t.span("gates.sim_s", |t| {
            t.span("gates.inner_s", |_| {
                std::hint::black_box((0..10_000).sum::<u64>())
            });
        });
        let atpg = t.open("tpg.atpg_s");
        t.close(atpg);
        t.record_reported("tpg.podem_s", atpg, 1.0e9);
        let total = t.close(root);
        let sum: f64 = t.layer_self_s().values().sum();
        assert!((sum - total).abs() < 1e-9, "{sum} vs {total}");
        // The reported child is clipped to its parent, so tpg has no self
        // time left and nothing is double counted.
        assert!(t.spans()[4].start >= t.spans()[3].start);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].layer(), "gates");
    }
}
