//! In-memory spans around each call into a layer.
//!
//! Every measured call goes through [`Tracer::leaf`], which always
//! returns the call's duration (the metrics are built from those) and,
//! when tracing is on, also keeps a span record: name, start, duration,
//! and the enclosing span. Spans stay in memory and are written out once,
//! at the end of the run, as Chrome trace-event JSON.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::json_str;

struct SpanRec {
    name: String,
    start: Duration,
    dur: Duration,
    parent: Option<usize>,
    tid: usize,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    /// Total duration of every leaf span so far (kept with tracing off
    /// too), so a pass can tell how much of its wall time its layer calls
    /// cover.
    covered: Duration,
}

/// An open span; [`Tracer::close`] ends it.
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            covered: Duration::ZERO,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn covered(&self) -> Duration {
        self.covered
    }

    /// Opens a span that encloses the spans recorded until it closes.
    pub fn open(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            self.push(name, start, Duration::ZERO, 0);
            let idx = self.spans.len() - 1;
            self.stack.push(idx);
            idx
        });
        Open { start, idx }
    }

    pub fn close(&mut self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        if let Some(idx) = open.idx {
            self.stack.pop();
            self.spans[idx].dur = dur;
        }
        dur
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// its wall-clock duration.
    pub fn leaf<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let r = f();
        let dur = start.elapsed();
        self.covered += dur;
        self.record(name, start, dur, 0);
        (r, dur)
    }

    /// Records a span measured elsewhere (e.g. on a client thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, dur: Duration, tid: usize) {
        if self.on {
            self.push(name, start, dur, tid);
        }
    }

    fn push(&mut self, name: &str, start: Instant, dur: Duration, tid: usize) {
        self.spans.push(SpanRec {
            name: name.to_string(),
            start: start.saturating_duration_since(self.t0),
            dur,
            parent: self.stack.last().copied(),
            tid,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto). Does nothing when tracing is off.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.on {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                json_str(&s.name),
                s.tid,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}
