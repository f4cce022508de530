//! In-memory spans around every call the benchmark makes into the
//! program's public API.  Spans are only recorded when tracing is on; they
//! are written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer started.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Batch, round or repetition the span belongs to.
    pub id: u64,
}

/// Span recorder.  When disabled every call is a no-op.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        Open(Some(index))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        self.spans[index].end_ns = self.now_ns();
        if let Some(pos) = self.open.iter().rposition(|&i| i == index) {
            self.open.truncate(pos);
        }
    }

    /// Record a span measured on another thread, from two instants.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            id,
        });
    }

    /// Total seconds spent in spans called `name` whose id is in `ids`.
    pub fn total_in_s(&self, name: &str, ids: std::ops::Range<u64>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && ids.contains(&s.id))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}
