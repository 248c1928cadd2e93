//! Golden test: the Chrome trace-event JSON emitted by the telemetry
//! layer must be a valid trace-event array — parseable by the JSON reader
//! and structurally loadable by `chrome://tracing` / Perfetto.

use bdb_mapreduce::jobs::WordCount;
use bdb_mapreduce::Engine;
use bdb_telemetry::json::{parse, Json};
use bdb_telemetry::TraceSession;
use std::collections::HashMap;

/// Produces a trace from a real multi-threaded engine run.
fn traced_session() -> TraceSession {
    let session = TraceSession::enabled("Golden WordCount");
    let engine = Engine::builder()
        .threads(3)
        .reducers(2)
        .map_buffer_bytes(1024) // force spill spans into the trace
        .telemetry(session.recorder.clone())
        .metrics(session.metrics.clone())
        .build();
    let lines: Vec<String> =
        (0..300).map(|i| format!("alpha beta gamma delta-{} epsilon", i % 17)).collect();
    let (out, _) = engine.run(&WordCount, &lines);
    assert!(!out.is_empty());
    session
}

#[test]
fn emitted_json_is_a_valid_chrome_trace_event_array() {
    let session = traced_session();
    let json = session.trace_json_with_tracks(&[]);
    let parsed = parse(&json).expect("trace must be valid JSON");
    let events = parsed.as_array().expect("trace-event format is a JSON array");
    assert!(!events.is_empty(), "an instrumented run produces events");

    let mut span_count = 0;
    let mut saw_process_name = false;
    let mut last_ts_per_tid: HashMap<u64, u64> = HashMap::new();
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("every event has a ph");
        assert!(
            matches!(ph, "X" | "i" | "M" | "C"),
            "only complete/instant/metadata/counter events are emitted, got {ph:?}"
        );
        assert!(e.get("pid").and_then(Json::as_u64).is_some());
        assert!(e.get("ts").and_then(Json::as_u64).is_some());
        assert!(e.get("name").and_then(|v| v.as_str()).is_some());
        match ph {
            "X" => {
                span_count += 1;
                let ts = e.get("ts").and_then(Json::as_u64).unwrap();
                let tid = e.get("tid").and_then(Json::as_u64).expect("X has tid");
                assert!(e.get("dur").and_then(Json::as_u64).is_some(), "X has dur");
                // Complete events must be ordered by start time per thread
                // (the recorder sorts globally, which implies per-tid order).
                let last = last_ts_per_tid.entry(tid).or_insert(0);
                assert!(ts >= *last, "ts monotonic per tid {tid}: {ts} < {last}");
                *last = ts;
            }
            "M" if e.get("name").and_then(|v| v.as_str()) == Some("process_name") => {
                saw_process_name = true;
            }
            _ => {}
        }
    }
    assert!(saw_process_name, "process_name metadata present");
    assert!(span_count >= 5, "job + phases + tasks all become spans: {span_count}");

    // The engine's metrics flow into counter samples.
    let counters: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("C"))
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    assert!(
        counters.iter().any(|n| n.starts_with("mapreduce.")),
        "mapreduce counters exported: {counters:?}"
    );
}

#[test]
fn balanced_span_names_cover_all_engine_phases() {
    let session = traced_session();
    let json = session.trace_json_with_tracks(&[]);
    let parsed = parse(&json).expect("valid JSON");
    let names: Vec<String> = parsed
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()).map(str::to_owned))
        .collect();
    for expected in ["job", "map-phase", "map-task", "reduce-phase", "reduce-partition", "spill"] {
        assert!(names.iter().any(|n| n == expected), "missing {expected} in {names:?}");
    }
}

#[test]
fn traced_run_trace_has_counter_tracks_with_multiple_samples() {
    use bdb_archsim::{CounterSnapshot, MachineConfig, SimProbe};
    use std::collections::HashMap;

    // A traced (simulated-counter) run: spans carry `counter.*` deltas,
    // each rendered as a "ph":"C" sample. Perfetto needs at least two
    // samples per counter to draw a track over time.
    let session = TraceSession::enabled("Counter Tracks");
    let engine = Engine::builder()
        .reducers(2)
        .map_buffer_bytes(2048) // force spill spans into the trace
        .telemetry(session.recorder.clone())
        .metrics(session.metrics.clone())
        .build();
    let lines: Vec<String> =
        (0..400).map(|i| format!("alpha beta gamma delta-{} epsilon", i % 17)).collect();
    let mut probe = SimProbe::new(MachineConfig::xeon_e5645());
    let (out, _) = engine.run_traced(&WordCount, &lines, &mut probe);
    assert!(!out.is_empty());
    // The spills and the final in-memory run of a partition merge into
    // one group per key.
    let mut keys: Vec<&str> = out.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    let distinct = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), distinct, "traced output repeats a key");

    let json = session.trace_json_with_tracks(&[]);
    let parsed = parse(&json).expect("valid JSON");
    let mut samples: HashMap<String, usize> = HashMap::new();
    for e in parsed.as_array().expect("array") {
        if e.get("ph").and_then(|v| v.as_str()) != Some("C") {
            continue;
        }
        let name = e.get("name").and_then(|v| v.as_str()).expect("counter name");
        if name.starts_with("counter.") {
            assert!(
                e.get("args").and_then(|a| a.get("value")).and_then(Json::as_u64).is_some(),
                "counter sample carries a numeric value"
            );
            *samples.entry(name.to_owned()).or_insert(0) += 1;
        }
    }
    // Every tracked counter appears, and with enough samples for a track.
    for (key, _) in CounterSnapshot::default().named_counters() {
        let n = samples.get(key).copied().unwrap_or(0);
        assert!(n >= 2, "{key}: need >= 2 samples for a counter track, got {n}");
    }
}

#[test]
fn metrics_summary_is_plain_text_with_counters() {
    let session = traced_session();
    let summary = session.metrics_summary();
    assert!(summary.contains("== metrics: Golden WordCount =="));
    assert!(summary.contains("mapreduce.map_records"));
    assert!(summary.contains("counter"));
}
