//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. The program itself is not instrumented here:
//! every span starts and ends in this crate.
//!
//! Spans carry a name, start, end, parent and op id. They stay in memory
//! until the run ends and are then written as JSONL.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `tables.build`.
    pub name: &'static str,
    /// The op (plan, replan step, request) this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (`0` while open).
    pub end_ns: u64,
}

impl SpanRec {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; [`Tracer::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// A span recorder for one thread. Disabled tracers record nothing, so
/// untraced runs share the traced runs' code path at the cost of a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    /// The id a disabled tracer hands out.
    pub const NONE: SpanId = SpanId(usize::MAX);

    /// Spans reserved up front: growing the buffer inside an op would be
    /// time no layer span covers.
    const RESERVE: usize = 1 << 16;

    /// A tracer whose timestamps count from `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::with_capacity(if enabled { Self::RESERVE } else { 0 }),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return Self::NONE;
        }
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if id == Self::NONE {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Duration of a closed span in milliseconds (`0` when disabled).
    pub fn ms(&self, id: SpanId) -> f64 {
        if id == Self::NONE {
            return 0.0;
        }
        self.spans[id.0].dur_ns() as f64 / 1e6
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Appends another thread's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Per span, the nanoseconds its direct children cover (children never
    /// overlap: one thread, properly nested).
    fn covered_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        covered
    }

    /// Self time of every span: its duration minus the part covered by
    /// its direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.covered_ns())
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time summed per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// For every span named `root`: its duration and the part of it its
    /// direct children cover, in nanoseconds.
    pub fn coverage(&self, root: &str) -> Vec<(u64, u64)> {
        let covered = self.covered_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| (s.dur_ns(), covered[i]))
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((i, s), self_ns) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_sees_gaps() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.begin("op", 0);
        let child = t.begin("child", 0);
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.end(child);
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.end(root);
        let selfs = t.self_ns();
        assert_eq!(selfs[0], t.spans()[0].dur_ns() - t.spans()[1].dur_ns());
        assert_eq!(selfs[1], t.spans()[1].dur_ns());
        let (dur, covered) = t.coverage("op")[0];
        let share = covered as f64 / dur as f64;
        assert!(share > 0.2 && share < 0.8, "{share}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("op", 0);
        t.end(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.ms(id), 0.0);
    }
}
