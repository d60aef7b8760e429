//! In-memory span recorder for the traced run.
//!
//! A span is (name, start, end, parent, request id). The recorder is a
//! `Option`: with tracing off every call is a branch on `None`, so the
//! end-to-end run executes the same request loop without recording anything.
//! Spans are written out only when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Sentinel id returned while tracing is off.
const OFF: usize = usize::MAX;

pub struct Recorder(Option<Spans>);

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder(on.then(|| Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }))
    }

    /// Opens a span and returns its id (pass it to [`Recorder::end`] and as
    /// the `parent` of child spans).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let Some(s) = self.0.as_mut() else {
            return OFF;
        };
        let now = s.origin.elapsed().as_nanos() as u64;
        s.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.filter(|&p| p != OFF),
            request,
        });
        s.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if let Some(s) = self.0.as_mut() {
            let now = s.origin.elapsed().as_nanos() as u64;
            if let Some(span) = s.spans.get_mut(id) {
                span.end_ns = now;
            }
        }
    }

    /// Durations in milliseconds of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.0.as_ref().map_or_else(Vec::new, |s| {
            s.spans
                .iter()
                .filter(|sp| sp.name == name)
                .map(|sp| (sp.end_ns - sp.start_ns) as f64 / 1e6)
                .collect()
        })
    }

    /// For every root span with this name (one per request), the share of
    /// its wall time that its direct children cover.
    pub fn coverage(&self, root: &str) -> Vec<f64> {
        let Some(s) = self.0.as_ref() else {
            return Vec::new();
        };
        let mut covered = vec![0u64; s.spans.len()];
        for sp in &s.spans {
            if let Some(p) = sp.parent {
                covered[p] += sp.end_ns - sp.start_ns;
            }
        }
        s.spans
            .iter()
            .enumerate()
            .filter(|(_, sp)| sp.parent.is_none() && sp.name == root && sp.end_ns > sp.start_ns)
            .map(|(i, sp)| covered[i] as f64 / (sp.end_ns - sp.start_ns) as f64)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |s| s.spans.len())
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let Some(s) = self.0.as_ref() else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, sp) in s.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                sp.end_ns as f64 / 1e3,
                sp.request
            )?;
        }
        out.flush()
    }
}
