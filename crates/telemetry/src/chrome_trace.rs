//! Chrome trace-event-format export.
//!
//! Produces a JSON array of trace events loadable in `chrome://tracing`
//! and in the Perfetto UI (<https://ui.perfetto.dev> — "Open trace
//! file"). Spans become complete (`"ph":"X"`) events, instants become
//! `"ph":"i"`, counters become `"ph":"C"` samples, and process/thread
//! names are attached via `"ph":"M"` metadata events. Only this module
//! names a [`SpanContext`]'s args: `trace_id`, `span_id`, `parent_span_id`.

use crate::json::ObjectWriter;
use crate::metrics::MetricsRegistry;
use crate::span::{ArgValue, SpanEvent, SpanRecorder};
use crate::trace::SpanContext;
use std::collections::BTreeSet;

/// Process id used for all exported events (the suite is one process).
const PID: u64 = 1;

fn write_args(out: &mut String, ctx: Option<SpanContext>, args: &[(&'static str, ArgValue)]) {
    let mut o = ObjectWriter::new(out);
    if let Some(c) = ctx {
        o.field_str("trace_id", &c.trace.hex()).field_u64("span_id", c.span);
        if let Some(parent) = c.parent {
            o.field_u64("parent_span_id", parent);
        }
    }
    for (k, v) in args {
        match v {
            ArgValue::Int(i) => o.field_i64(k, *i),
            ArgValue::Float(f) => o.field_f64(k, *f),
            ArgValue::Str(s) => o.field_str(k, s),
        };
    }
    o.finish();
}

fn write_event(out: &mut String, e: &SpanEvent) {
    let mut o = ObjectWriter::new(out);
    o.field_str("name", e.name)
        .field_str("cat", e.cat)
        .field_str("ph", if e.dur_us.is_some() { "X" } else { "i" })
        .field_u64("ts", e.start_us)
        .field_u64("pid", PID)
        .field_u64("tid", e.tid);
    if let Some(dur) = e.dur_us {
        o.field_u64("dur", dur);
    } else {
        o.field_str("s", "t"); // instant scope: thread
    }
    if e.ctx.is_some() || !e.args.is_empty() {
        write_args(o.field_raw("args"), e.ctx, &e.args);
    }
    o.finish();
}

fn write_metadata(out: &mut String, name: &str, tid: Option<u64>, value: &str) {
    let mut o = ObjectWriter::new(out);
    o.field_str("name", name).field_str("ph", "M").field_u64("ts", 0).field_u64("pid", PID);
    if let Some(tid) = tid {
        o.field_u64("tid", tid);
    }
    {
        let args = o.field_raw("args");
        let mut a = ObjectWriter::new(args);
        a.field_str("name", value);
        a.finish();
    }
    o.finish();
}

fn write_counter_sample(out: &mut String, ts: u64, name: &str, value: u64) {
    let mut o = ObjectWriter::new(out);
    o.field_str("name", name).field_str("ph", "C").field_u64("ts", ts).field_u64("pid", PID);
    {
        let args = o.field_raw("args");
        let mut a = ObjectWriter::new(args);
        a.field_u64("value", value);
        a.finish();
    }
    o.finish();
}

/// A named series of `(ts_us, value)` counter samples to render as a
/// `"ph":"C"` track — e.g. the busy-worker count a profiler derives
/// post hoc. Unlike span args, track names are runtime strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterTrack {
    /// Counter name shown in the trace viewer.
    pub name: String,
    /// `(timestamp µs, value)` samples, ascending by timestamp.
    pub samples: Vec<(u64, u64)>,
}

/// Renders `events` (plus optional final counter samples from
/// `metrics`) as a Chrome trace-event JSON array.
pub fn chrome_trace_json(
    process_name: &str,
    events: &[SpanEvent],
    metrics: Option<&MetricsRegistry>,
) -> String {
    chrome_trace_json_with_tracks(process_name, events, metrics, &[])
}

/// [`chrome_trace_json`] plus derived [`CounterTrack`] sample series.
pub fn chrome_trace_json_with_tracks(
    process_name: &str,
    events: &[SpanEvent],
    metrics: Option<&MetricsRegistry>,
    tracks: &[CounterTrack],
) -> String {
    let mut out = String::with_capacity(128 + events.len() * 96);
    out.push('[');
    let mut first = true;
    let mut emit = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
    };

    emit(&mut out);
    write_metadata(&mut out, "process_name", None, process_name);
    let tids: BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    for tid in tids {
        emit(&mut out);
        write_metadata(&mut out, "thread_name", Some(tid), &format!("worker-{tid}"));
    }
    for e in events {
        emit(&mut out);
        write_event(&mut out, e);
        // Span args keyed `counter.*` are performance-counter deltas
        // (see `CounterSnapshot::named_counters` in bdb-archsim): also
        // emit each as a "ph":"C" sample at the span's end so Perfetto
        // renders counter tracks over time, not just one final value.
        let sample_ts = e.start_us + e.dur_us.unwrap_or(0);
        for (k, v) in &e.args {
            if let (true, ArgValue::Int(i)) = (k.starts_with("counter."), v) {
                emit(&mut out);
                write_counter_sample(&mut out, sample_ts, k, (*i).max(0) as u64);
            }
        }
    }
    for track in tracks {
        for &(ts, value) in &track.samples {
            emit(&mut out);
            write_counter_sample(&mut out, ts, &track.name, value);
        }
    }
    if let Some(metrics) = metrics {
        let end_ts = events.iter().map(|e| e.start_us + e.dur_us.unwrap_or(0)).max().unwrap_or(0);
        for (name, value) in metrics.counter_values() {
            emit(&mut out);
            write_counter_sample(&mut out, end_ts, &name, value);
        }
    }
    out.push_str("\n]\n");
    out
}

/// A bundle of recorder + registry for one workload run, rendering the
/// bodies of `<name>.trace.json` and `<name>.metrics.txt`.
#[derive(Debug, Clone)]
pub struct TraceSession {
    /// Workload name; becomes the process name and the file stem.
    pub name: String,
    /// Span sink; attach to engines.
    pub recorder: SpanRecorder,
    /// Metric sink; attach to engines.
    pub metrics: MetricsRegistry,
}

impl TraceSession {
    /// A collecting session.
    pub fn enabled(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            recorder: SpanRecorder::enabled(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The session's trace as Chrome trace-event JSON, with extra
    /// derived counter tracks appended (e.g. a profiler's busy-worker
    /// series).
    pub fn trace_json_with_tracks(&self, tracks: &[CounterTrack]) -> String {
        chrome_trace_json_with_tracks(
            &self.name,
            &self.recorder.events(),
            Some(&self.metrics),
            tracks,
        )
    }

    /// The session's metrics as plain text.
    pub fn metrics_summary(&self) -> String {
        format!("== metrics: {} ==\n{}", self.name, self.metrics.summary())
    }
}

/// Lowercases `name` and maps every non-alphanumeric character to `-`,
/// collapsing runs and trimming the ends, so any workload name — e.g.
/// `"OLTP: read/write 50%"` — yields a safe, tidy file stem. Exposed so
/// sibling artifacts (profiles, reports) can sit next to the trace
/// under the same stem.
pub fn file_stem(name: &str) -> String {
    let mut stem = String::with_capacity(name.len());
    for c in name.to_lowercase().chars() {
        if c.is_alphanumeric() {
            stem.push(c);
        } else if !stem.ends_with('-') && !stem.is_empty() {
            stem.push('-');
        }
    }
    let stem = stem.trim_end_matches('-').to_owned();
    if stem.is_empty() {
        "trace".to_owned()
    } else {
        stem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, start: u64, dur: u64, tid: u64) -> SpanEvent {
        SpanEvent {
            name,
            cat: "test",
            start_us: start,
            dur_us: Some(dur),
            tid,
            ctx: None,
            args: Vec::new(),
        }
    }

    #[test]
    fn empty_trace_is_an_array() {
        let json = chrome_trace_json("empty", &[], None);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("process_name"));
    }

    #[test]
    fn events_become_complete_x_events() {
        let events = vec![event("a", 0, 10, 1), event("b", 5, 2, 2)];
        let json = chrome_trace_json("t", &events, None);
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":10"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn counters_appended_from_registry() {
        let reg = MetricsRegistry::new();
        reg.counter("ops").add(42);
        let json = chrome_trace_json("t", &[event("a", 0, 3, 1)], Some(&reg));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":42"));
        // Counter sampled at the end of the timeline.
        assert!(json.contains("\"ts\":3"));
    }

    #[test]
    fn counter_args_become_intermediate_samples() {
        // Two spans carrying the same counter key → two "C" samples at
        // the spans' end timestamps, plus the end-of-run registry
        // sample for backward compatibility.
        let mut a = event("map", 0, 10, 1);
        a.args.push(("counter.l1d_misses", ArgValue::Int(100)));
        a.args.push(("rows", ArgValue::Int(5))); // not a counter: no sample
        let mut b = event("reduce", 10, 7, 1);
        b.args.push(("counter.l1d_misses", ArgValue::Int(40)));
        let reg = MetricsRegistry::new();
        reg.counter("ops").add(1);
        let json = chrome_trace_json("t", &[a, b], Some(&reg));
        let samples = json
            .lines()
            .filter(|l| l.contains("\"ph\":\"C\"") && l.contains("counter.l1d_misses"))
            .count();
        assert_eq!(samples, 2, "one sample per span carrying the counter");
        assert!(json.contains("\"name\":\"counter.l1d_misses\",\"ph\":\"C\",\"ts\":10"));
        assert!(json.contains("\"name\":\"counter.l1d_misses\",\"ph\":\"C\",\"ts\":17"));
        assert!(!json.contains("\"name\":\"rows\",\"ph\":\"C\""));
        // End-of-run registry sample still present at the timeline end.
        assert!(json.contains("\"name\":\"ops\",\"ph\":\"C\",\"ts\":17"));
    }

    #[test]
    fn file_stems_sanitize_all_non_alphanumerics() {
        assert_eq!(file_stem("OLTP: read/write 50%"), "oltp-read-write-50");
        assert_eq!(file_stem("Unit Test"), "unit-test");
        assert_eq!(file_stem("a***b"), "a-b");
        assert_eq!(file_stem("///"), "trace");
    }

    #[test]
    fn counter_tracks_render_as_c_samples() {
        let track = CounterTrack {
            name: "busy workers".to_owned(),
            samples: vec![(0, 2), (40, 1), (100, 0)],
        };
        let json = chrome_trace_json_with_tracks("t", &[event("a", 0, 100, 1)], None, &[track]);
        assert!(json.contains("\"name\":\"busy workers\",\"ph\":\"C\",\"ts\":0"));
        assert!(json.contains("\"name\":\"busy workers\",\"ph\":\"C\",\"ts\":40"));
        assert!(json.contains("\"name\":\"busy workers\",\"ph\":\"C\",\"ts\":100"));
        let samples = json
            .lines()
            .filter(|l| l.contains("busy workers") && l.contains("\"ph\":\"C\""))
            .count();
        assert_eq!(samples, 3);
    }

    #[test]
    fn args_are_serialized() {
        let mut e = event("a", 0, 1, 1);
        e.args.push(("n", ArgValue::Int(5)));
        e.args.push(("ratio", ArgValue::Float(0.5)));
        e.args.push(("tag", ArgValue::Str("x\"y".into())));
        let json = chrome_trace_json("t", &[e], None);
        assert!(json.contains("\"args\":{\"n\":5,\"ratio\":0.5,\"tag\":\"x\\\"y\"}"));
    }

    #[test]
    fn span_context_leads_the_args() {
        use crate::json::{parse, Json};
        use crate::trace::TraceId;
        let ctx = |span, parent| Some(SpanContext { trace: TraceId(0xabc), span, parent });
        let mut root = event("request", 0, 10, 1);
        root.ctx = ctx(1, None);
        root.args.push(("outcome", ArgValue::Str("completed".into())));
        let mut queue = event("queue", 0, 4, 1);
        queue.ctx = ctx(2, Some(1));
        let mut handle = event("handle", 4, 6, 1);
        handle.ctx = ctx(3, Some(2));
        handle.args.push(("worker", ArgValue::Int(0)));
        let json = chrome_trace_json("t", &[root, queue, handle, event("untraced", 0, 1, 1)], None);
        // Exact key order: context first, parent only below the root,
        // then the span's own args.
        assert!(json.contains(
            "\"args\":{\"trace_id\":\"0000000000000abc\",\"span_id\":1,\"outcome\":\"completed\"}"
        ));
        assert!(json.contains(
            "\"args\":{\"trace_id\":\"0000000000000abc\",\"span_id\":2,\"parent_span_id\":1}"
        ));
        assert!(json.contains(
            "\"args\":{\"trace_id\":\"0000000000000abc\",\"span_id\":3,\"parent_span_id\":2,\"worker\":0}"
        ));

        let parsed = parse(&json).expect("exporter writes valid JSON");
        let find = |name: &str| {
            parsed
                .as_array()
                .unwrap()
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("no {name} event"))
        };
        let args = find("queue").get("args").expect("a context-only span still has args");
        let keys: Vec<&str> = match args {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("args is not an object: {other:?}"),
        };
        assert_eq!(keys, ["trace_id", "span_id", "parent_span_id"]);
        assert_eq!(args.get("trace_id").and_then(Json::as_str), Some("0000000000000abc"));
        assert_eq!(args.get("span_id").and_then(Json::as_u64), Some(2));
        assert_eq!(args.get("parent_span_id").and_then(Json::as_u64), Some(1));
        assert!(find("request").get("args").unwrap().get("parent_span_id").is_none());
        assert!(find("untraced").get("args").is_none(), "no context, no args: no args key");
    }

    #[test]
    fn session_roundtrip_to_files() {
        let session = TraceSession::enabled("Unit Test");
        {
            let _s = session.recorder.span("test", "work");
        }
        session.metrics.counter("done").inc();
        assert!(session.trace_json_with_tracks(&[]).contains("\"work\""));
        assert!(session.metrics_summary().contains("done"));
    }
}
