//! In-memory spans for the traced run.
//!
//! A span records a name, a start and an end (nanoseconds since the
//! tracer was created), the span that caused it and the request it
//! belongs to.  Spans are kept in memory while the run measures and are
//! written out once, as JSON lines, when the run ends.  Spans are taken
//! around public calls from the benchmark's own code; the program under
//! test records nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
// lint:allow(no-wallclock-in-decisions): the benchmark harness measures wall time
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// The enclosing span, `None` for a request's root span.
    pub parent: Option<u64>,
    /// The request every span of one operation shares.
    pub request: u64,
    /// Layer boundary the span was taken at.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    // lint:allow(no-wallclock-in-decisions): the benchmark harness measures wall time
    origin: Instant,
    next_id: AtomicU64,
    next_request: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            // lint:allow(no-wallclock-in-decisions): the benchmark harness measures wall time
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            next_request: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh request id.
    pub fn request(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// it can open child spans under it.
    pub fn span<R>(
        &self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the span list")
            .push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = self
            .spans
            .lock()
            .expect("a span recorder panicked while holding the span list")
            .clone();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Write every span as one JSON object per line to `path`, creating
    /// its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_parent() {
        let t = Tracer::new();
        let rid = t.request();
        t.span(rid, None, "root", |root| {
            t.span(rid, Some(root), "child", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (root, child) = (&spans[0], &spans[1]);
        assert_eq!(child.parent, Some(root.id));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(t.durations_ms("child").len(), 1);
    }
}
