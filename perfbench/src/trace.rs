//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span carries a name, start and end (nanoseconds since the run's
//! clock origin), the index of its parent span and the id of the request
//! it belongs to. Spans are appended to a vector while the run goes and
//! written out as tab-separated lines when it ends.

use std::io::Write;
use std::time::Instant;

/// Marks a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.prune`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request (operation) id shared by a span tree.
    pub request: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`; returns its duration in ns.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end = end;
        s.ns()
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, parent, request);
        let r = f();
        (r, self.close(id))
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total ns of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Durations (ns) of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Writes every span as `request name start end parent` lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end, parent
            )?;
        }
        out.flush()
    }
}
