//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and written out once, at exit, as Chrome Trace Event JSON that
//! Perfetto and `chrome://tracing` open directly.

use std::fmt::Write as _;
use std::time::Instant;

/// One span: a named interval with the span that caused it and the
/// counters attached to it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `engine.run`.
    pub name: String,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created (equal to
    /// `start_ns` while the span is still open).
    pub end_ns: u64,
    /// Counters recorded at this boundary.
    pub args: Vec<(String, f64)>,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A stack-shaped span recorder: a span opened while another is open is
/// its child.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            args: Vec::new(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span, and
    /// returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// If `id` is not the innermost open span: spans nest strictly.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.seconds()
    }

    /// Attaches a counter to span `id`.
    pub fn arg(&mut self, id: usize, key: &str, value: f64) {
        self.spans[id].args.push((key.to_owned(), value));
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders every span as a Chrome Trace Event JSON document of
    /// complete (`"ph": "X"`) events, microsecond timestamps. Each event
    /// carries its own `id` and its `parent` in `args`; `metadata` goes
    /// into the top-level `otherData` object.
    #[must_use]
    pub fn chrome_json(&self, metadata: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"otherData\": {");
        for (i, (k, v)) in metadata.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {}", json_str(k), json_str(v));
        }
        out.push_str("}, \"traceEvents\": [");
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "\n" } else { ",\n" };
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\": {}, \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \
                 \"parent\": {parent}",
                json_str(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
            for (k, v) in &s.args {
                let _ = write!(out, ", {}: {}", json_str(k), json_num(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `s` as a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number (`null` when not finite, which JSON cannot hold).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
