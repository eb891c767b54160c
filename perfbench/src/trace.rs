//! In-memory spans recorded around calls into each layer, and the
//! self-time arithmetic that turns them into per-layer figures.
//!
//! Spans live in a `Vec` until the benchmark ends; nothing is written
//! while the traced passes run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) interval of host time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `compiler.sched`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Sweep cell index the span belongs to.
    pub cell: usize,
}

impl Span {
    /// Inclusive duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, cell: usize) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, cell: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, cell);
        let out = f();
        self.close(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals` (half-open `[start, end)`).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0u64;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            children[p].push((s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| s.duration_ns() - union_len(kids).min(s.duration_ns()))
        .collect()
}

/// Per-name totals: `(spans, Σ self ns)`, by name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    out
}

/// Writes one JSON object per span (`name`, `start_ns`, `end_ns`,
/// `parent`, `cell`), creating parent directories.
///
/// # Errors
/// I/O errors creating or writing the file.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{}}}",
            s.name, s.start_ns, s.end_ns, s.cell
        )?;
    }
    w.flush()
}
