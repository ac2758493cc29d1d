//! In-memory span recording for the traced run, written out at exit as a
//! Chrome-trace (`chrome://tracing` / Perfetto) file in the same
//! complete-event layout as the Fig. 4 model timeline
//! (`mas_io::export_chrome_trace`), with the span's group id and parent
//! in `args`.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `mhd.pcg.solve_viscosity`.
    pub name: String,
    /// Layer the call belongs to (`stdpar`, `mhd`, `serve`, …).
    pub cat: &'static str,
    /// Start, µs since the tracer's origin.
    pub t0: f64,
    /// End, µs since the tracer's origin.
    pub t1: f64,
    /// Shared by every span of one step, job or probe repetition.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Lane in the viewer (client connection or rank).
    pub lane: usize,
}

/// Collects spans in memory; cheap enough to leave on for a whole run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose time origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its index for use as a parent.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        start: Instant,
        end: Instant,
        group: u64,
        parent: Option<usize>,
        lane: usize,
    ) -> usize {
        let span = Span {
            name: name.into(),
            cat,
            t0: self.us(start),
            t1: self.us(end),
            group,
            parent,
            lane,
        };
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicked thread");
        spans.push(span);
        spans.len() - 1
    }

    /// Open a span whose end is not known yet (it starts and ends at
    /// `start` until [`Tracer::end`] closes it); returns its index.
    pub fn begin(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        start: Instant,
        group: u64,
        parent: Option<usize>,
        lane: usize,
    ) -> usize {
        self.record(name, cat, start, start, group, parent, lane)
    }

    /// Close span `index` at `end`.
    pub fn end(&self, index: usize, end: Instant) {
        let t1 = self.us(end);
        self.spans
            .lock()
            .expect("span list poisoned by a panicked thread")[index]
            .t1 = t1;
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned by a panicked thread")
            .len()
    }

    /// Write every span as one Chrome-trace complete event.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_trace_json())
    }

    fn chrome_trace_json(&self) -> String {
        let spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicked thread");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let comma = if i + 1 == spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"span\":{i},\"group\":{},\"parent\":{parent}}}}}{comma}",
                s.name,
                s.cat,
                s.t0,
                s.t1 - s.t0,
                s.lane,
                s.group,
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_file_lists_spans_with_parents() {
        let t = Tracer::new();
        let a = Instant::now();
        let job = t.begin("job", "serve", a, 7, None, 0);
        t.record("submit", "serve", a, a, 7, Some(job), 0);
        t.end(job, a + std::time::Duration::from_millis(2));
        assert_eq!(t.len(), 2);
        let text = t.chrome_trace_json();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"parent\":0"));
        assert!(text.contains("\"group\":7"));
        assert!(text.contains("\"dur\":2000.000"));
        assert!(!text.contains(",\n]"));
    }
}
