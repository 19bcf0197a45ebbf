//! Spans recorded by the benchmark around its own calls into each layer.
//! They stay in memory during the run and are written out as JSON lines
//! when it ends, so writing them costs the measured path nothing.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Upper bound on kept spans; later spans are counted but dropped.
const MAX_SPANS: usize = 400_000;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u32,
    /// Id of the span that caused this one, or 0.
    pub parent: u32,
    /// Layer boundary the span covers, e.g. `proxy.request`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// hands out id 0.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: if enabled {
                Vec::with_capacity(MAX_SPANS)
            } else {
                Vec::new()
            },
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span from `start` to `end` under `parent`; returns its id.
    pub fn record(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        if !self.enabled {
            return 0;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let ns = |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Sets the end of span `id`, recorded earlier as a parent with a
    /// provisional end.
    pub fn finish(&mut self, id: u32, end: Instant) {
        if id == 0 {
            return;
        }
        let end_ns = u64::try_from(end.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and the span id.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, u32) {
        let t0 = Instant::now();
        let out = f();
        let id = self.record(name, parent, t0, Instant::now());
        (out, id)
    }

    /// Spans recorded plus spans dropped past the cap.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Writes the spans as JSON lines, one span each, after a header line
    /// holding `meta` (a JSON object).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path, meta: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        writeln!(out, "{{\"meta\": {meta}, \"dropped\": {}}}", self.dropped)?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn finish_sets_the_end_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let parent = t.record("outer", 0, t0, t0);
        let child = t.record("inner", parent, t0, t0 + Duration::from_micros(4));
        t.finish(parent, t0 + Duration::from_micros(10));
        assert_eq!((parent, child, t.total()), (1, 2, 2));
        assert_eq!(t.spans[0].end_ns - t.spans[0].start_ns, 10_000);
        assert_eq!(t.spans[1].parent, parent);

        let mut off = Tracer::new(false);
        assert_eq!(off.record("outer", 0, t0, t0), 0);
        assert_eq!(off.total(), 0);
    }
}
