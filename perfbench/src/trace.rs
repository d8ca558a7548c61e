//! Spans recorded by the traced run, around the benchmark's own calls
//! into each layer (nothing is instrumented inside the program).
//!
//! Spans stay in memory and are written once, at the end, as Chrome
//! trace-event JSON (load it in `chrome://tracing` or Perfetto). Each
//! span carries its own id and its parent's id; spans of one request
//! or one experiment share the parent.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    lane: u64,
    start_us: f64,
    dur_us: f64,
}

/// In-memory span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id (0 means "no parent").
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span that ran from `start` to `end`.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        lane: u64,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            lane,
            start_us: start.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a span, returning its result and its duration in
    /// seconds. The duration is measured whether or not tracing is on.
    pub fn span<R>(&self, name: &str, parent: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(id, parent, 0, name, start, end);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Writes every span as Chrome trace-event JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                json_string(&s.name),
                s.lane,
                s.start_us,
                s.dur_us,
                s.id,
                s.parent
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
