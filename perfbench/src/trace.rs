//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span carries a name, start and end (nanoseconds since the tracer
//! was created), the span open around it when it began, and an op id
//! shared by every span of one iteration or edit. Spans stay in memory
//! and are written out once, when the run ends. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// The span recorder. While disabled it records nothing, so an untraced
/// run pays one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// A handle to an open span; `None` when the tracer was disabled.
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new op: spans recorded from now on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn open(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` and every span opened inside it that is still open.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval measured elsewhere (another thread saw its
    /// end) as a child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op: self.op,
        });
    }

    /// Summed duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / 1e6
    }

    /// How many spans are called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of span `id` in nanoseconds.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        self_time((span.start_ns, span.end_ns), &children)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self.self_ns(id) as f64 / 1e3,
            )?;
        }
        out.flush()
    }
}

/// A span's duration minus the part of it covered by `children`, with
/// each child clipped to the parent interval and overlaps counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
    }

    #[test]
    fn self_time_counts_overlaps_once() {
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50), (45, 50)]), 60);
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn self_time_clips_children_to_parent() {
        // A child measured on another thread may run past its parent.
        assert_eq!(self_time((100, 200), &[(50, 150), (180, 400)]), 30);
        assert_eq!(self_time((100, 200), &[(0, 50), (300, 400)]), 100);
        assert_eq!(self_time((0, 100), &[(0, 100)]), 0);
    }

    #[test]
    fn tracer_nests_and_shares_op_ids() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.open("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].op, t.spans[1].op);
        let inner = t.spans[1].end_ns - t.spans[1].start_ns;
        let outer_ns = t.spans[0].end_ns - t.spans[0].start_ns;
        assert_eq!(t.self_ns(0), outer_ns - inner);
        assert!(t.total_ms("inner") >= 2.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x");
        t.close(id);
        t.record("y", Instant::now(), Instant::now());
        assert_eq!(t.count("x") + t.count("y"), 0);
    }
}
