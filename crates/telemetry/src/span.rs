//! Low-overhead span recording.
//!
//! A [`SpanRecorder`] collects timestamped, thread-tagged spans that the
//! Chrome-trace exporter turns into a navigable timeline. The recorder is
//! cheap to clone (it is a handle to shared state) and has a disabled
//! mode — [`SpanRecorder::disabled`] — whose `span()` call is a single
//! branch with no clock read and no allocation, so engines can keep the
//! instrumentation in place on hot paths unconditionally.

use crate::trace::SpanContext;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A typed span/event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Integer argument (counts, ids, byte totals).
    Int(i64),
    /// Floating-point argument (ratios, deltas).
    Float(f64),
    /// String argument.
    Str(String),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::Int(v as i64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::Int(i64::from(v))
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::Int(v as i64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Int(i64::from(v))
    }
}

/// One completed span (a Chrome trace "complete" / `X` event) or an
/// instant marker (`dur_us == None`).
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name (e.g. `"map-task"`).
    pub name: &'static str,
    /// Category — by convention the subsystem (e.g. `"mapreduce"`).
    pub cat: &'static str,
    /// Start timestamp in microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in microseconds; `None` marks an instant event.
    pub dur_us: Option<u64>,
    /// Recording thread, as a small dense id.
    pub tid: u64,
    /// The span's place in a traced request, if it belongs to one.
    pub ctx: Option<SpanContext>,
    /// Span arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl SpanEvent {
    /// The first integer argument named `key`.
    pub fn int_arg(&self, key: &str) -> Option<i64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::Int(i) if *k == key => Some(*i),
            _ => None,
        })
    }

    /// The first string argument named `key`.
    pub fn str_arg(&self, key: &str) -> Option<&str> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::Str(s) if *k == key => Some(s.as_str()),
            _ => None,
        })
    }
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// A small dense id for the current thread, stable for its lifetime.
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
    dropped: AtomicU64,
    capacity: usize,
}

/// Default cap on buffered events, to bound memory on runaway loops.
const DEFAULT_CAPACITY: usize = 4 << 20;

/// Handle for recording spans; clone freely, share across threads.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    inner: Option<Arc<Inner>>,
}

impl SpanRecorder {
    /// A recorder that collects events (epoch = now).
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled recorder holding at most `capacity` events; further
    /// events are counted in [`SpanRecorder::dropped_events`] and
    /// discarded.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
                capacity,
            })),
        }
    }

    /// The no-op recorder: `span()` costs one branch, records nothing.
    #[inline]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether spans are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; it is recorded when the returned guard drops.
    #[inline]
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        match &self.inner {
            None => SpanGuard { inner: None, cat, name, start_us: 0, args: Vec::new() },
            Some(inner) => SpanGuard {
                inner: Some(inner),
                cat,
                name,
                start_us: inner.epoch.elapsed().as_micros() as u64,
                args: Vec::new(),
            },
        }
    }

    /// Opens a span with arguments built lazily — `args()` only runs when
    /// the recorder is enabled, so disabled-mode callers pay nothing.
    #[inline]
    pub fn span_args<F>(&self, cat: &'static str, name: &'static str, args: F) -> SpanGuard<'_>
    where
        F: FnOnce() -> Vec<(&'static str, ArgValue)>,
    {
        match &self.inner {
            None => SpanGuard { inner: None, cat, name, start_us: 0, args: Vec::new() },
            Some(inner) => SpanGuard {
                inner: Some(inner),
                cat,
                name,
                start_us: inner.epoch.elapsed().as_micros() as u64,
                args: args(),
            },
        }
    }

    /// Records an instant event (a point on the timeline).
    pub fn instant(&self, cat: &'static str, name: &'static str) {
        if let Some(inner) = &self.inner {
            let now = inner.epoch.elapsed().as_micros() as u64;
            inner.push(SpanEvent {
                name,
                cat,
                start_us: now,
                dur_us: None,
                tid: current_thread_id(),
                ctx: None,
                args: Vec::new(),
            });
        }
    }

    /// Snapshot of the events recorded so far, sorted by start time.
    pub fn events(&self) -> Vec<SpanEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let mut v = inner.events.lock().expect("span buffer poisoned").clone();
                v.sort_by_key(|e| e.start_us);
                v
            }
        }
    }

    /// Events discarded because the buffer was full.
    pub fn dropped_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }
}

impl Inner {
    fn push(&self, event: SpanEvent) {
        let mut events = self.events.lock().expect("span buffer poisoned");
        if events.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            events.push(event);
        }
    }
}

/// RAII guard: records the span from construction to drop.
#[derive(Debug)]
#[must_use = "the span is recorded when this guard drops"]
pub struct SpanGuard<'a> {
    inner: Option<&'a Arc<Inner>>,
    cat: &'static str,
    name: &'static str,
    start_us: u64,
    args: Vec<(&'static str, ArgValue)>,
}

impl SpanGuard<'_> {
    /// Attaches an argument (no-op when the recorder is disabled).
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.inner.is_some() {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner {
            let end = inner.epoch.elapsed().as_micros() as u64;
            inner.push(SpanEvent {
                name: self.name,
                cat: self.cat,
                start_us: self.start_us,
                dur_us: Some(end.saturating_sub(self.start_us)),
                tid: current_thread_id(),
                ctx: None,
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

/// Opens a span on a [`SpanRecorder`]: `span!(rec, "cat", "name")` or
/// `span!(rec, "cat", "name", key = value, ...)`. Bind the result —
/// `let _s = span!(...)` — so the span covers the enclosing scope.
/// Argument expressions are only evaluated when the recorder is enabled.
#[macro_export]
macro_rules! span {
    ($rec:expr, $cat:expr, $name:expr $(,)?) => {
        $rec.span($cat, $name)
    };
    ($rec:expr, $cat:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $rec.span_args($cat, $name, || {
            vec![$((stringify!($key), $crate::ArgValue::from($value))),+]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_records_nothing() {
        let rec = SpanRecorder::disabled();
        {
            let mut s = rec.span("t", "noop");
            s.arg("k", 1u64);
        }
        rec.instant("t", "mark");
        assert!(!rec.is_enabled());
        assert!(rec.events().is_empty());
    }

    #[test]
    fn spans_nest_and_are_ordered() {
        let rec = SpanRecorder::enabled();
        {
            let _outer = rec.span("t", "outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = rec.span("t", "inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let events = rec.events();
        assert_eq!(events.len(), 2);
        // Sorted by start: outer first, and it encloses inner.
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[1].name, "inner");
        let (o, i) = (&events[0], &events[1]);
        assert!(o.start_us <= i.start_us);
        assert!(
            o.start_us + o.dur_us.unwrap() >= i.start_us + i.dur_us.unwrap(),
            "outer encloses inner"
        );
    }

    #[test]
    fn macro_args_are_lazy() {
        let rec = SpanRecorder::disabled();
        let mut evaluated = false;
        {
            let _s = span!(
                rec,
                "t",
                "s",
                flag = {
                    evaluated = true;
                    1u64
                }
            );
        }
        assert!(!evaluated, "disabled recorder must not evaluate args");

        let rec = SpanRecorder::enabled();
        {
            let _s = span!(rec, "t", "s", items = 3usize, label = "x");
        }
        let events = rec.events();
        assert_eq!(events[0].args.len(), 2);
        assert_eq!(events[0].args[0], ("items", ArgValue::Int(3)));
        assert_eq!(events[0].args[1], ("label", ArgValue::Str("x".into())));
        assert_eq!(events[0].int_arg("items"), Some(3));
        assert_eq!(events[0].str_arg("label"), Some("x"));
        assert_eq!(events[0].int_arg("label"), None, "typed: a string is not an int");
        assert_eq!(events[0].str_arg("missing"), None);
        assert_eq!(events[0].ctx, None, "recorded spans carry no trace context");
    }

    #[test]
    fn threads_get_distinct_ids() {
        let rec = SpanRecorder::enabled();
        let r2 = rec.clone();
        let handle = std::thread::spawn(move || {
            let _s = r2.span("t", "worker");
        });
        {
            let _s = rec.span("t", "main");
        }
        handle.join().unwrap();
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].tid, events[1].tid, "threads tag distinct ids");
    }

    #[test]
    fn capacity_bounds_memory() {
        let rec = SpanRecorder::with_capacity(2);
        for _ in 0..5 {
            let _s = rec.span("t", "s");
        }
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.dropped_events(), 3);
    }

    #[test]
    fn instants_have_no_duration() {
        let rec = SpanRecorder::enabled();
        rec.instant("t", "mark");
        let events = rec.events();
        assert_eq!(events[0].dur_us, None);
    }
}
