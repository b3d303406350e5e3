//! In-memory spans around calls into the workspace's layers, written out as
//! JSONL when the traced run ends.
//!
//! A span records its name, its parent (the span open when it began), and
//! its start and end relative to the tracer's creation. Spans stay in memory
//! until [`Tracer::write_jsonl`]; the untraced run never creates a tracer.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::Metric;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans opened before the matching [`Tracer::end`] become
    /// its children.
    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration in
    /// seconds.
    fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let closed = self.open.pop();
        assert_eq!(closed, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its result and duration in seconds.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let result = f();
        (result, self.end(id))
    }

    /// Runs `f` inside a span that becomes the parent of the spans `f` opens.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.begin(name);
        let result = f(self);
        self.end(id);
        result
    }

    /// Writes a header line, one line per span and one per metric to `path`.
    pub fn write_jsonl(&self, path: &Path, header: &str, metrics: &[Metric]) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        let file = fs::File::create(path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
        let mut out = BufWriter::new(file);
        let mut lines = vec![header.to_string()];
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            lines.push(format!(
                "{{\"type\":\"span\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start_ns, span.end_ns
            ));
        }
        for metric in metrics {
            lines.push(format!(
                "{{\"type\":\"metric\",\"name\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
                metric.name,
                crate::json_number(metric.value),
                metric.unit
            ));
        }
        for line in lines {
            writeln!(out, "{line}").map_err(|e| format!("cannot write {path:?}: {e}"))?;
        }
        out.flush()
            .map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}
