//! Cross-crate integration tests for the profiling pipeline: span
//! stream → `bdb-profile` → folded stacks / critical path / worker
//! utilization, including the profiles of real instrumented MapReduce
//! runs.

use bdb_profile::Profile;
use bdb_telemetry::{ArgValue, SpanEvent};

fn span(name: &'static str, tid: u64, start_us: u64, dur_us: u64) -> SpanEvent {
    SpanEvent {
        name,
        cat: "test",
        start_us,
        dur_us: Some(dur_us),
        tid,
        ctx: None,
        args: Vec::new(),
    }
}

/// A deterministic two-worker MapReduce timeline used by the golden
/// tests: coordinator on thread 1, one straggling map task on thread 2.
fn fixture_events() -> Vec<SpanEvent> {
    vec![
        span("job", 1, 0, 200),
        span("map-phase", 1, 0, 120),
        span("reduce-phase", 1, 120, 80),
        span("reduce-partition", 1, 125, 70),
        span("map-task", 2, 10, 100),
        span("spill", 2, 40, 20),
    ]
}

#[test]
fn golden_folded_stacks_for_a_deterministic_run() {
    let profile = Profile::from_events(&fixture_events());
    // Weights are self time: the phases tile `job` exactly (zero self,
    // omitted), `reduce-phase` keeps the 10 us outside its partition,
    // `map-task` keeps 100 − 20 spill = 80. Lines sort lexically.
    assert_eq!(
        profile.folded(),
        "worker-1;job;map-phase 120\n\
         worker-1;job;reduce-phase 10\n\
         worker-1;job;reduce-phase;reduce-partition 70\n\
         worker-2;map-task 80\n\
         worker-2;map-task;spill 20\n",
    );
}

#[test]
fn blame_table_partitions_the_critical_path_exactly() {
    let profile = Profile::from_events(&fixture_events());
    let cp = &profile.critical;
    assert_eq!(cp.wall_us, 200);
    assert_eq!(cp.path_us + cp.idle_us, cp.wall_us);
    let blamed: u64 = cp.blame.iter().map(|(_, us)| *us).sum();
    assert_eq!(blamed, cp.path_us, "phase blame sums exactly to the path length");
    // The straggler's lone stretch ([60,110): map-task after the spill)
    // is on the path under the map phase.
    let blame: std::collections::BTreeMap<_, _> = cp.blame.iter().cloned().collect();
    assert_eq!(blame["map"] + blame["spill"], 120, "map phase time splits map/spill");
    assert_eq!(blame["reduce"], 80);
}

#[test]
fn analyzer_tolerates_unclosed_spans_and_instants() {
    // A crash can leave spans without a duration; the analyzer must
    // skip them (never unwrap `dur_us`) and still profile the rest.
    let mut events = fixture_events();
    let mut unclosed = span("map-task", 3, 50, 0);
    unclosed.dur_us = None;
    events.push(unclosed);
    let mut marker = span("checkpoint", 1, 100, 0);
    marker.dur_us = None;
    events.push(marker);

    let profile = Profile::from_events(&events);
    assert_eq!(profile.forest.skipped, 2);
    assert_eq!(profile.forest.nodes.len(), 6, "closed spans all survive");
    assert!(profile.critical.path_us > 0);
    let report = profile.critpath_text();
    assert!(report.contains("2 skipped without duration"), "{report}");
}

#[test]
fn iteration_spans_blame_per_iteration() {
    let mut events = Vec::new();
    for (i, (start, dur)) in [(0u64, 30u64), (30, 50), (80, 20)].iter().enumerate() {
        let mut e = span("pagerank-iteration", 1, *start, *dur);
        e.args.push(("iter", ArgValue::Int(i as i64 + 1)));
        events.push(e);
    }
    let profile = Profile::from_events(&events);
    assert_eq!(profile.critical.blame[0], ("iter-2".to_owned(), 50));
    let total: u64 = profile.critical.blame.iter().map(|(_, us)| *us).sum();
    assert_eq!(total, 100);
}

#[test]
fn utilization_reports_per_worker_busy_and_concurrency() {
    let profile = Profile::from_events(&fixture_events());
    let u = &profile.utilization;
    assert_eq!(u.workers.len(), 2);
    assert_eq!(u.workers[0].busy_us, 200, "worker 1 busy the whole run");
    assert_eq!(u.workers[1].busy_us, 100, "worker 2 busy only during its task");
    assert_eq!(u.concurrency.iter().sum::<u64>(), u.wall_us());
    assert_eq!(u.concurrency[2], 100, "both busy while the map task runs");
    let text = profile.util_text();
    assert!(text.contains("workers 2"), "{text}");
    assert!(text.contains("worker-2"), "{text}");
    // The counter track closes at zero busy workers.
    assert_eq!(profile.concurrency_track().samples.last(), Some(&(200, 0)));
}

#[test]
fn instrumented_engine_run_profiles_end_to_end() {
    use bdb_mapreduce::jobs::WordCount;
    use bdb_mapreduce::Engine;

    let telemetry = bdb_telemetry::SpanRecorder::enabled();
    let engine = Engine::builder().threads(2).reducers(2).telemetry(telemetry.clone()).build();
    let lines: Vec<String> =
        (0..500).map(|i| format!("alpha beta gamma delta-{}", i % 17)).collect();
    let (out, _) = engine.run(&WordCount, &lines);
    assert!(!out.is_empty());

    // The job span covers ≥90% of wall.
    let profile = Profile::from_events(&telemetry.events());
    let cp = profile.critical_summary();
    assert!(cp.coverage >= 0.9, "{cp:?}");

    // All three artifacts render non-empty for a real run.
    assert!(profile.folded().contains("map-task"));
    assert!(profile.critpath_text().contains("blame"));
    assert!(profile.util_text().contains("utilization"));
    // And the blame table partitions the path within 1%.
    let blamed: u64 = profile.critical.blame.iter().map(|(_, us)| *us).sum();
    assert!(
        blamed.abs_diff(profile.critical.path_us) * 100 <= profile.critical.path_us,
        "blamed {blamed} vs path {}",
        profile.critical.path_us
    );
}

#[test]
fn traced_engine_run_profiles_end_to_end() {
    use bdb_archsim::NullProbe;
    use bdb_mapreduce::jobs::Sort;
    use bdb_mapreduce::Engine;

    // Traced runs are single-threaded: the job span still encloses the
    // whole run, so the path covers the wall.
    let telemetry = bdb_telemetry::SpanRecorder::enabled();
    let engine = Engine::builder().reducers(2).telemetry(telemetry.clone()).build();
    let inputs: Vec<String> = (0..2000).rev().map(|i| format!("line-{i:05}")).collect();
    let (out, _) = engine.run_traced(&Sort, &inputs, &mut NullProbe);
    assert_eq!(out.len(), inputs.len());

    let cp = Profile::from_events(&telemetry.events()).critical_summary();
    assert!(cp.path_us > 0 && cp.path_us <= cp.wall_us, "{cp:?}");
    assert!(cp.coverage > 0.9, "{cp:?}");
    assert!(!cp.dominant_phase.is_empty());
}

#[test]
fn run_with_a_panicked_retry_profiles_end_to_end() {
    use bdb_faults::FaultPlan;
    use bdb_mapreduce::jobs::WordCount;
    use bdb_mapreduce::{sites, Engine};

    // The analyzer skips instants instead of unwrapping `dur_us`, and
    // a panicked map attempt leaves a closed span behind, so the run
    // still profiles end to end.
    let telemetry = bdb_telemetry::SpanRecorder::enabled();
    telemetry.instant("test", "job-submitted");
    let plan = FaultPlan::builder(11).panic_nth(sites::MAP_TASK, 0).build();
    let engine =
        Engine::builder().threads(2).reducers(2).faults(plan).telemetry(telemetry.clone()).build();
    let lines: Vec<String> =
        (0..60).map(|i| format!("alpha beta-{} gamma delta epsilon", i % 23)).collect();
    let (out, stats) = engine.run(&WordCount, &lines);
    assert!(!out.is_empty());
    assert!(stats.map_retries >= 1, "the panic forced a retry: {stats:?}");

    let profile = Profile::from_events(&telemetry.events());
    assert_eq!(profile.forest.skipped, 1, "the instant is skipped, not fatal");
    let cp = profile.critical_summary();
    assert!(cp.coverage > 0.9, "{cp:?}");
}
