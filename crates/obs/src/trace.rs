//! Structured tracing: point events and scoped spans with key–value
//! fields, serialized as one JSON object per line (JSONL).
//!
//! # Sinks
//!
//! Tracing is off until a sink is installed. Binaries call
//! [`init_from_env`], which honors:
//!
//! - `RD_TRACE=<path>` — append-free overwrite of `<path>` with JSONL
//!   (`RD_TRACE=stderr` or `RD_TRACE=-` selects stderr instead);
//! - `RD_TRACE_ZERO=1` — zero every `ts_us`/`dur_us` at serialization
//!   time, making runs byte-comparable across machines and thread counts.
//!
//! Tests install an in-process [`install_memory_sink`] and read lines back
//! with [`take_memory`].
//!
//! # Determinism
//!
//! Events are timestamped in microseconds since process start. Worker
//! threads never write to the sink directly: `rd_par::par_map` wraps each
//! work item in [`scoped`], which collects the item's events into a
//! per-item buffer, and flushes the buffers in **input order** via
//! [`emit_events`] — nested fan-outs compose, because a flush on a worker
//! thread lands in that worker's own enclosing item buffer. With
//! timestamps zeroed the emitted byte stream is therefore identical at any
//! `RD_THREADS` setting.
//!
//! # Event schema
//!
//! ```text
//! {"ev":"event","name":"parse.file","ts_us":1201,"fields":{"file":"config1","lines":42}}
//! {"ev":"span_open","name":"analyze","ts_us":1890,"fields":{"routers":79}}
//! {"ev":"span_close","name":"analyze","ts_us":2544,"dur_us":654,"fields":{"routers":79}}
//! ```

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::escape;

/// Environment variable selecting the trace sink (`<path>`, `stderr`, `-`).
pub const TRACE_ENV: &str = "RD_TRACE";
/// Environment variable zeroing timestamps (`1`): byte-stable output.
pub const TRACE_ZERO_ENV: &str = "RD_TRACE_ZERO";

/// A field value. Only types with an exact, locale-free rendering are
/// offered, so serialized traces are byte-stable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A string field.
    Str(String),
    /// An integer field.
    Int(i64),
    /// A boolean field.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// What an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A point event.
    Event,
    /// A span opening.
    SpanOpen,
    /// A span closing (carries `dur_us`).
    SpanClose,
}

impl EventKind {
    fn label(self) -> &'static str {
        match self {
            EventKind::Event => "event",
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
        }
    }
}

/// One trace record, held structured until serialization so buffered
/// events can be re-emitted in input order by the parallel layer.
#[derive(Clone, Debug)]
pub struct Event {
    /// Point event or span boundary.
    pub kind: EventKind,
    /// Event name (dotted lowercase by convention, e.g. `parse.file`).
    pub name: String,
    /// Microseconds since process start (zeroed under `RD_TRACE_ZERO`).
    pub ts_us: u64,
    /// Span duration in microseconds (span closes only).
    pub dur_us: Option<u64>,
    /// Key–value fields, in insertion order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Serializes to one JSONL line (no trailing newline). `zero_ts`
    /// rewrites `ts_us`/`dur_us` to 0 for byte-stable comparisons.
    pub fn render(&self, zero_ts: bool) -> String {
        let mut out = String::with_capacity(64);
        let ts = if zero_ts { 0 } else { self.ts_us };
        write!(
            out,
            "{{\"ev\":\"{}\",\"name\":\"{}\",\"ts_us\":{ts}",
            self.kind.label(),
            escape(&self.name)
        )
        .expect("string write");
        if let Some(dur) = self.dur_us {
            let dur = if zero_ts { 0 } else { dur };
            write!(out, ",\"dur_us\":{dur}").expect("string write");
        }
        out.push_str(",\"fields\":{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{}\":", escape(key)).expect("string write");
            match value {
                Value::Str(s) => write!(out, "\"{}\"", escape(s)).expect("string write"),
                Value::Int(n) => write!(out, "{n}").expect("string write"),
                Value::Bool(b) => write!(out, "{b}").expect("string write"),
            }
        }
        out.push_str("}}");
        out
    }
}

enum SinkKind {
    Stderr,
    File(std::io::BufWriter<std::fs::File>),
    Memory(Vec<String>),
}

struct SinkState {
    kind: SinkKind,
    zero_ts: bool,
}

static SINK: Mutex<Option<SinkState>> = Mutex::new(None);
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static BUFFERS: RefCell<Vec<Vec<Event>>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// True when a sink is installed. Cheap (one relaxed atomic load); callers
/// on hot paths should guard field construction with it.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn install(state: Option<SinkState>) {
    let mut sink = SINK.lock().expect("trace sink poisoned");
    if let Some(SinkState { kind: SinkKind::File(w), .. }) = sink.as_mut() {
        let _ = w.flush();
    }
    ENABLED.store(state.is_some(), Ordering::Relaxed);
    *sink = state;
}

fn zero_from_env() -> bool {
    std::env::var(TRACE_ZERO_ENV).is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Installs the sink named by `RD_TRACE` (no-op when unset): a file path,
/// or `stderr`/`-` for stderr. `RD_TRACE_ZERO=1` zeroes timestamps.
pub fn init_from_env() -> Result<(), std::io::Error> {
    let Ok(target) = std::env::var(TRACE_ENV) else {
        return Ok(());
    };
    if target == "stderr" || target == "-" {
        set_stderr_sink();
        Ok(())
    } else {
        set_file_sink(&target)
    }
}

/// Traces to stderr (timestamp zeroing still honors `RD_TRACE_ZERO`).
pub fn set_stderr_sink() {
    install(Some(SinkState { kind: SinkKind::Stderr, zero_ts: zero_from_env() }));
}

/// Traces to `path`, truncating any previous contents.
pub fn set_file_sink(path: &str) -> Result<(), std::io::Error> {
    let file = std::fs::File::create(path)?;
    install(Some(SinkState {
        kind: SinkKind::File(std::io::BufWriter::new(file)),
        zero_ts: zero_from_env(),
    }));
    Ok(())
}

/// Traces into an in-process buffer, for tests; read back with
/// [`take_memory`]. `zero_timestamps` forces byte-stable lines.
pub fn install_memory_sink(zero_timestamps: bool) {
    install(Some(SinkState { kind: SinkKind::Memory(Vec::new()), zero_ts: zero_timestamps }));
}

/// Drains the memory sink's lines (empty for other sink kinds).
pub fn take_memory() -> Vec<String> {
    let mut sink = SINK.lock().expect("trace sink poisoned");
    match sink.as_mut() {
        Some(SinkState { kind: SinkKind::Memory(lines), .. }) => std::mem::take(lines),
        _ => Vec::new(),
    }
}

/// Uninstalls the sink (flushing file sinks); tracing becomes a no-op.
pub fn clear_sink() {
    install(None);
}

/// Flushes buffered sink output (file sinks buffer aggressively). Binaries
/// call this before exiting.
pub fn flush() {
    let mut sink = SINK.lock().expect("trace sink poisoned");
    if let Some(SinkState { kind: SinkKind::File(w), .. }) = sink.as_mut() {
        let _ = w.flush();
    }
}

fn write_to_sink(events: &[Event]) {
    let mut sink = SINK.lock().expect("trace sink poisoned");
    let Some(state) = sink.as_mut() else {
        return;
    };
    match &mut state.kind {
        SinkKind::Stderr => {
            let err = std::io::stderr();
            let mut lock = err.lock();
            for e in events {
                let _ = writeln!(lock, "{}", e.render(state.zero_ts));
            }
        }
        SinkKind::File(w) => {
            for e in events {
                let _ = writeln!(w, "{}", e.render(state.zero_ts));
            }
        }
        SinkKind::Memory(lines) => {
            for e in events {
                lines.push(e.render(state.zero_ts));
            }
        }
    }
}

fn emit(event: Event) {
    if !enabled() {
        return;
    }
    let buffered = BUFFERS.with(|b| {
        let mut stack = b.borrow_mut();
        match stack.last_mut() {
            Some(top) => {
                top.push(event.clone());
                true
            }
            None => false,
        }
    });
    if !buffered {
        write_to_sink(std::slice::from_ref(&event));
    }
}

fn owned_fields(fields: &[(&str, Value)]) -> Vec<(String, Value)> {
    fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
}

/// Records a point event (no-op without a sink).
pub fn event(name: &str, fields: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    emit(Event {
        kind: EventKind::Event,
        name: name.to_string(),
        ts_us: now_us(),
        dur_us: None,
        fields: owned_fields(fields),
    });
}

/// Opens a span: emits `span_open` now and `span_close` (with `dur_us`)
/// when the returned guard drops. Inert without a sink.
pub fn span(name: &str, fields: &[(&str, Value)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let fields = owned_fields(fields);
    emit(Event {
        kind: EventKind::SpanOpen,
        name: name.to_string(),
        ts_us: now_us(),
        dur_us: None,
        fields: fields.clone(),
    });
    SpanGuard { inner: Some((name.to_string(), fields, Instant::now())) }
}

/// Guard returned by [`span`]; closes the span on drop.
pub struct SpanGuard {
    inner: Option<(String, Vec<(String, Value)>, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((name, fields, started)) = self.inner.take() else {
            return;
        };
        emit(Event {
            kind: EventKind::SpanClose,
            name,
            ts_us: now_us(),
            dur_us: Some(started.elapsed().as_micros() as u64),
            fields,
        });
    }
}

/// Runs `f` with a fresh event buffer on this thread's stack and returns
/// the events it raised alongside its result. The parallel layer uses this
/// to capture one work item's events; flush them with [`emit_events`] in
/// input order. Free (empty buffer, no allocation) when tracing is off.
pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    if !enabled() {
        return (f(), Vec::new());
    }
    BUFFERS.with(|b| b.borrow_mut().push(Vec::new()));
    // Pop the buffer even if `f` panics, so a caught panic (e.g. in tests)
    // cannot leave a stale buffer swallowing later events.
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            BUFFERS.with(|b| {
                b.borrow_mut().pop();
            });
        }
    }
    let events = {
        let _guard = PopOnDrop;
        let result = f();
        let events =
            BUFFERS.with(|b| std::mem::take(b.borrow_mut().last_mut().expect("buffer pushed")));
        (result, events)
    };
    events
}

/// Re-emits previously captured events: into the current thread's active
/// buffer if one exists (nested fan-out), else straight to the sink.
pub fn emit_events(events: Vec<Event>) {
    if events.is_empty() || !enabled() {
        return;
    }
    let buffered = BUFFERS.with(|b| {
        let mut stack = b.borrow_mut();
        match stack.last_mut() {
            Some(top) => {
                top.extend(events.iter().cloned());
                true
            }
            None => false,
        }
    });
    if !buffered {
        write_to_sink(&events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test function: the sink is process-global state.
    #[test]
    fn sink_buffering_and_rendering() {
        let _obs = crate::tests::obs_lock();
        // Rendering is exact and zeroable.
        let e = Event {
            kind: EventKind::SpanClose,
            name: "analyze".into(),
            ts_us: 123,
            dur_us: Some(45),
            fields: vec![("net".into(), "net5".into()), ("routers".into(), 881usize.into())],
        };
        assert_eq!(
            e.render(false),
            r#"{"ev":"span_close","name":"analyze","ts_us":123,"dur_us":45,"fields":{"net":"net5","routers":881}}"#
        );
        assert_eq!(
            e.render(true),
            r#"{"ev":"span_close","name":"analyze","ts_us":0,"dur_us":0,"fields":{"net":"net5","routers":881}}"#
        );

        // Disabled: everything is a no-op.
        clear_sink();
        assert!(!enabled());
        event("ignored", &[]);
        assert!(take_memory().is_empty());

        // Memory sink captures in order; spans open and close.
        install_memory_sink(true);
        assert!(enabled());
        {
            let _span = span("outer", &[("k", Value::Int(1))]);
            event("inner", &[("s", "x".into())]);
        }
        let lines = take_memory();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"span_open\"") && lines[0].contains("\"outer\""));
        assert!(lines[1].contains("\"inner\""));
        assert!(lines[2].contains("\"span_close\"") && lines[2].contains("\"dur_us\":0"));
        for line in &lines {
            crate::json::validate_event_line(line).unwrap();
        }

        // Scoped capture holds events back; emit_events releases them.
        let ((), captured) = scoped(|| event("buffered", &[]));
        assert_eq!(captured.len(), 1);
        assert!(take_memory().is_empty(), "scoped events must not hit the sink");
        emit_events(captured);
        assert_eq!(take_memory().len(), 1);

        // Nested scopes: the inner flush lands in the outer buffer.
        let ((), outer) = scoped(|| {
            let ((), inner) = scoped(|| event("deep", &[]));
            emit_events(inner);
            event("after", &[]);
        });
        assert_eq!(outer.len(), 2);
        assert_eq!(outer[0].name, "deep");
        assert_eq!(outer[1].name, "after");

        clear_sink();
    }
}
