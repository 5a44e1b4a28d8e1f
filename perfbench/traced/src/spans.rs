//! In-memory span recorder: name, start, end, parent and op id per span,
//! self times by name, and a JSON-lines dump written once at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u32,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Records nested spans around calls. A disabled tracer runs the call
/// and records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    op: u32,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name self times and the unattributed rest of the op wall.
#[derive(Debug)]
pub struct Summary {
    /// Seconds of each span name not covered by its child spans.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Op wall minus the time the root spans cover.
    pub other_s: f64,
}

impl Tracer {
    /// A tracer whose spans carry op id `op`.
    pub fn new(on: bool, op: u32) -> Tracer {
        Tracer { on, op, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, op: self.op, parent, start, end: start });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Folds the spans of an op that took `op_wall_s` seconds from this
    /// tracer's creation.
    pub fn summary(&self, op_wall_s: f64) -> Summary {
        let dur = |s: &Span| (s.end - s.start).as_secs_f64();
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += dur(s);
            }
        }
        let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut root_s = 0.0;
        for (s, covered) in self.spans.iter().zip(&child_s) {
            *self_s.entry(s.name).or_default() += dur(s) - covered;
            if s.parent.is_none() {
                root_s += dur(s);
            }
        }
        Summary { self_s, other_s: op_wall_s - root_s }
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        w.flush()
    }
}
