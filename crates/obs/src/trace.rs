//! The span-based self-tracer.
//!
//! A [`SpanGuard`] times a scope. Every finished span feeds the global
//! metrics registry (histogram `span.<name>`, in microseconds) so
//! aggregate timings are always available; when the [`Tracer`] is
//! enabled the span is additionally kept as an event and can be exported
//! as Chrome-tracing JSON (`chrome://tracing`, Perfetto).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The tid every thread reports until it registers a lane of its own.
pub const MAIN_TID: u64 = 1;

/// Next tid handed out by [`register_thread_lane`].
static NEXT_TID: AtomicU64 = AtomicU64::new(MAIN_TID + 1);

thread_local! {
    /// The Chrome-trace tid spans from this thread are attributed to.
    static CURRENT_TID: Cell<u64> = const { Cell::new(MAIN_TID) };
}

/// Registers the calling thread as its own span lane in the Chrome trace:
/// allocates a fresh tid, attributes every subsequent span from this
/// thread to it, and names the lane `label` via a `thread_name` metadata
/// event in the export. Returns the tid (idempotent per thread: a second
/// call keeps the first tid and only updates the label).
pub fn register_thread_lane(label: &str) -> u64 {
    let tid = CURRENT_TID.with(|cell| {
        if cell.get() == MAIN_TID {
            cell.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        cell.get()
    });
    crate::tracer().name_lane(tid, label);
    tid
}

/// The tid spans from the calling thread are attributed to.
pub fn current_tid() -> u64 {
    CURRENT_TID.with(Cell::get)
}

/// A span argument value; rendered into the trace's `args` object.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// Floating-point argument.
    F64(f64),
    /// String argument.
    Str(String),
    /// Boolean argument.
    Bool(bool),
}

macro_rules! arg_from {
    ($($t:ty => $variant:ident via $conv:expr),* $(,)?) => {$(
        impl From<$t> for ArgValue {
            fn from(v: $t) -> ArgValue {
                #[allow(clippy::redundant_closure_call)]
                ArgValue::$variant(($conv)(v))
            }
        }
    )*};
}
arg_from! {
    u64 => U64 via |v| v,
    u32 => U64 via u64::from,
    usize => U64 via |v| v as u64,
    i64 => I64 via |v| v,
    i32 => I64 via i64::from,
    f64 => F64 via |v| v,
    bool => Bool via |v| v,
    &str => Str via str::to_owned,
    String => Str via |v| v,
}

impl ArgValue {
    fn to_json(&self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::I64(v) => v.to_string(),
            ArgValue::F64(v) if v.is_finite() => v.to_string(),
            ArgValue::F64(_) => "null".to_owned(),
            ArgValue::Bool(v) => v.to_string(),
            ArgValue::Str(s) => json_string(s),
        }
    }
}

/// One completed span, in the vocabulary of the Chrome tracing format.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name, e.g. `analyzer.kmeans`.
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub ts_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Lane of the recording thread ([`MAIN_TID`] unless the thread
    /// called [`register_thread_lane`]).
    pub tid: u64,
    /// Key/value arguments attached at the span site.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl SpanEvent {
    /// Category shown in the trace viewer: the name's first
    /// dot-separated segment (`analyzer.kmeans` → `analyzer`).
    pub fn category(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans while enabled; exports them as Chrome-tracing JSON.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
    /// `(tid, label)` pairs for named lanes, in registration order.
    lanes: Mutex<Vec<(u64, String)>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh, disabled tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            lanes: Mutex::new(Vec::new()),
        }
    }

    /// Names (or renames) the lane `tid` for the Chrome export.
    pub fn name_lane(&self, tid: u64, label: &str) {
        let mut lanes = self.lanes.lock().expect("lane table");
        match lanes.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, existing)) => *existing = label.to_owned(),
            None => lanes.push((tid, label.to_owned())),
        }
    }

    /// Starts collecting span events.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops collecting. Already collected events are retained.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether spans are currently collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Removes and returns all collected events.
    pub fn drain(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace buffer"))
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace buffer").len()
    }

    /// True when no events have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, event: SpanEvent) {
        self.events.lock().expect("trace buffer").push(event);
    }

    /// Renders the collected events (without draining them) as a Chrome
    /// tracing document: `{"displayTimeUnit": "ms", "traceEvents": [..]}`
    /// with one complete (`"ph": "X"`) event per span.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events.lock().expect("trace buffer");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{MAIN_TID},\
             \"args\":{{\"name\":\"main\"}}}}"
        ));
        for (tid, label) in self.lanes.lock().expect("lane table").iter() {
            out.push_str(&format!(
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json_string(label)
            ));
        }
        for event in events.iter() {
            out.push(',');
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{}",
                json_string(event.name),
                json_string(event.category()),
                event.tid,
                event.ts_us,
                event.dur_us,
            ));
            if !event.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (key, value)) in event.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(key));
                    out.push(':');
                    out.push_str(&value.to_json());
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Active span; created by the [`crate::span!`] macro. Records on drop.
pub struct SpanGuard {
    name: &'static str,
    args: Vec<(&'static str, ArgValue)>,
    start: Instant,
}

impl SpanGuard {
    /// Starts a span. Prefer the [`crate::span!`] macro.
    pub fn enter(name: &'static str, args: Vec<(&'static str, ArgValue)>) -> SpanGuard {
        SpanGuard {
            name,
            args,
            start: Instant::now(),
        }
    }

    /// Adds an argument known only once the span's work is done, such as
    /// a count of what it did.
    pub fn record(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        self.args.push((key, value.into()));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        let dur_us = dur.as_micros().min(u128::from(u64::MAX)) as u64;
        crate::metrics()
            .histogram(&format!("span.{}", self.name))
            .record(dur_us);
        let tracer = crate::tracer();
        if tracer.is_enabled() {
            let ts_us = self
                .start
                .duration_since(tracer.epoch)
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            tracer.push(SpanEvent {
                name: self.name,
                ts_us,
                dur_us,
                tid: current_tid(),
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_has_complete_events_with_args() {
        let tracer = Tracer::new();
        tracer.enable();
        tracer.push(SpanEvent {
            name: "analyzer.kmeans",
            ts_us: 10,
            dur_us: 250,
            tid: MAIN_TID,
            args: vec![
                ("k", ArgValue::U64(4)),
                ("label", ArgValue::Str("a\"b".into())),
            ],
        });
        tracer.push(SpanEvent {
            name: "profiler.seal",
            ts_us: 400,
            dur_us: 3,
            tid: 7,
            args: vec![],
        });
        let json = tracer.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"analyzer.kmeans\""));
        assert!(json.contains("\"cat\":\"analyzer\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"k\":4,\"label\":\"a\\\"b\"}"));
        assert!(json.contains("\"cat\":\"profiler\""));
        // Each span carries its recording thread's lane.
        assert!(json.contains("\"tid\":7"));
        // The main lane is always named.
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("{\"name\":\"main\"}"));
    }

    #[test]
    fn registered_lanes_get_named_metadata_and_fresh_tids() {
        let handle = std::thread::spawn(|| {
            let first = register_thread_lane("worker-a");
            let second = register_thread_lane("worker-a-renamed");
            assert_eq!(first, second, "registration is idempotent per thread");
            assert_eq!(current_tid(), first);
            first
        });
        let tid = handle.join().expect("lane thread");
        assert!(tid > MAIN_TID);
        assert_eq!(current_tid(), MAIN_TID, "main thread lane is untouched");
        let json = crate::tracer().to_chrome_json();
        assert!(json.contains(&format!("\"tid\":{tid}")), "{json}");
        assert!(json.contains("worker-a-renamed"), "{json}");
        assert!(!json.contains("\"worker-a\""), "rename replaces the label");
    }

    #[test]
    fn disabled_tracer_collects_nothing_but_metrics_still_record() {
        // Uses the crate-global tracer/metrics: the tracer starts
        // disabled, so the span must not leak into the event buffer.
        let before_len = crate::tracer().len();
        {
            let _span = crate::span!("test.disabled_span");
        }
        assert_eq!(crate::tracer().len(), before_len);
        let snap = crate::metrics().snapshot();
        assert!(snap.histograms.contains_key("span.test.disabled_span"));
    }

    #[test]
    fn drain_empties_the_buffer() {
        let tracer = Tracer::new();
        tracer.push(SpanEvent {
            name: "x",
            ts_us: 0,
            dur_us: 1,
            tid: MAIN_TID,
            args: vec![],
        });
        assert_eq!(tracer.len(), 1);
        assert_eq!(tracer.drain().len(), 1);
        assert!(tracer.is_empty());
    }

    #[test]
    fn arg_conversions_cover_common_types() {
        assert_eq!(ArgValue::from(3u32), ArgValue::U64(3));
        assert_eq!(ArgValue::from(-2i32), ArgValue::I64(-2));
        assert_eq!(ArgValue::from(1.5), ArgValue::F64(1.5));
        assert_eq!(ArgValue::from(true), ArgValue::Bool(true));
        assert_eq!(ArgValue::from("s"), ArgValue::Str("s".into()));
        assert_eq!(ArgValue::F64(f64::NAN).to_json(), "null");
    }
}
