//! Fault-injection integration tests: with injected spill-write
//! errors, task panics, and stragglers, the engine must still produce
//! output byte-identical to a fault-free run, reporting its retries and
//! speculation in `JobStats` — the Hadoop recovery story end to end.

use bdb_faults::FaultPlan;
use bdb_mapreduce::{sites, Emitter, Engine, Job, JobError};
use bdb_telemetry::MetricsRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

struct WordCount;
impl Job for WordCount {
    type Input = String;
    type Key = String;
    type Value = u64;
    type Output = (String, u64);
    fn map<P: bdb_archsim::Probe + ?Sized>(
        &self,
        line: &String,
        emit: &mut Emitter<String, u64>,
        _p: &mut P,
    ) {
        for w in line.split_whitespace() {
            emit.emit(w.to_owned(), 1);
        }
    }
    fn combine(&self, _k: &String, values: Vec<u64>) -> Vec<u64> {
        vec![values.into_iter().sum()]
    }
    fn reduce<P: bdb_archsim::Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<u64>,
        out: &mut Vec<(String, u64)>,
        _p: &mut P,
    ) {
        out.push((key, values.into_iter().sum()));
    }
}

fn lines(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("alpha beta-{} gamma delta epsilon", i % 23)).collect()
}

/// Four map tasks, spill-heavy, three reducers.
fn engine(faults: FaultPlan) -> Engine {
    Engine::builder().threads(4).reducers(3).map_buffer_bytes(1024).faults(faults).build()
}

#[test]
fn wordcount_survives_spill_error_panic_and_straggler() {
    // A synthetic fixture and real generated text.
    let wikipedia = bdb_datagen::text::TextGenerator::wikipedia(42).corpus(96 << 10);
    for input in [lines(400), wikipedia.lines().map(str::to_owned).collect()] {
        let (clean, clean_stats) = engine(FaultPlan::disabled()).run(&WordCount, &input);
        assert!(clean_stats.spills > 0, "fixture must exercise the spill path");
        assert_eq!(clean_stats.map_retries, 0);

        let fault_metrics = MetricsRegistry::new();
        // The straggler is the first straggle check: that always belongs
        // to a first attempt. A later check can land on a retried
        // attempt, which the engine never speculates, when a fast
        // failure retries before the last task starts.
        let plan = FaultPlan::builder(42)
            .io_error_nth(sites::SPILL_WRITE, 0)
            .panic_nth(sites::MAP_TASK, 1)
            .straggle_nth(sites::MAP_STRAGGLER, 0, Duration::from_millis(500))
            .metrics(fault_metrics.clone())
            .build();
        let engine_metrics = MetricsRegistry::new();
        let faulty_engine = Engine::builder()
            .threads(4)
            .reducers(3)
            .map_buffer_bytes(1024)
            .faults(plan.clone())
            .metrics(engine_metrics.clone())
            .build();
        let (faulty, stats) = faulty_engine.run(&WordCount, &input);

        assert_eq!(faulty, clean, "recovered run must be byte-identical to the fault-free run");
        assert!(stats.map_retries >= 2, "io error + panic each force a retry: {stats:?}");
        assert!(stats.speculative_tasks >= 1, "the straggler must be speculated: {stats:?}");
        assert!(stats.speculative_wins >= 1, "the fast copy must win: {stats:?}");
        assert!(stats.retry_backoff > Duration::ZERO, "virtual backoff accrued");
        assert!(plan.injected() >= 3, "all three rules fired: {}", plan.injected());
        assert!(plan.recovered() >= 2, "retries and the speculative win recovered");
        for site in [sites::SPILL_WRITE, sites::MAP_TASK, sites::MAP_STRAGGLER] {
            let injected = fault_metrics.counter(&format!("fault.injected.{site}")).get();
            assert!(injected >= 1, "injections counted per site: {site}");
        }
        assert!(engine_metrics.counter("mapreduce.map_retries").get() >= 2);
        assert!(engine_metrics.counter("mapreduce.speculative_tasks").get() >= 1);
    }
}

#[test]
fn reduce_retries_on_spill_read_error_and_panic() {
    let input = lines(300);
    let (clean, _) = engine(FaultPlan::disabled()).run(&WordCount, &input);

    let plan = FaultPlan::builder(7)
        .io_error_nth(sites::SPILL_READ, 0)
        .panic_nth(sites::REDUCE_TASK, 1)
        .build();
    let (faulty, stats) = engine(plan.clone()).run(&WordCount, &input);
    assert_eq!(faulty, clean);
    assert!(stats.reduce_retries >= 2, "read error + panic each force a retry: {stats:?}");
    assert_eq!(plan.recovered(), plan.injected(), "every injection was recovered from");
}

#[test]
fn unrecoverable_panic_surfaces_as_structured_error() {
    let plan = FaultPlan::builder(9).panic_p(sites::MAP_TASK, 1.0).build();
    let e = Engine::builder().threads(2).reducers(2).max_task_attempts(2).faults(plan).build();
    let err = e.try_run(&WordCount, &lines(40)).unwrap_err();
    match err {
        JobError::TaskPanicked { attempt, ref message, .. } => {
            assert_eq!(attempt, 1, "budget of 2 ⇒ the final attempt is #1");
            assert!(message.contains("injected fault"), "payload preserved: {message}");
        }
        ref other => panic!("expected TaskPanicked, got {other}"),
    }
}

#[test]
fn user_code_panic_propagates_as_task_panicked() {
    struct Faulty;
    impl Job for Faulty {
        type Input = u64;
        type Key = u64;
        type Value = ();
        type Output = u64;
        fn map<P: bdb_archsim::Probe + ?Sized>(
            &self,
            x: &u64,
            emit: &mut Emitter<u64, ()>,
            _p: &mut P,
        ) {
            assert!(*x != 13, "unlucky record");
            emit.emit(*x, ());
        }
        fn reduce<P: bdb_archsim::Probe + ?Sized>(
            &self,
            key: u64,
            _v: Vec<()>,
            out: &mut Vec<u64>,
            _p: &mut P,
        ) {
            out.push(key);
        }
    }
    let e = Engine::builder().threads(2).reducers(1).max_task_attempts(2).build();
    let inputs: Vec<u64> = (0..40).collect();
    let err = e.try_run(&Faulty, &inputs).unwrap_err();
    assert!(
        matches!(err, JobError::TaskPanicked { .. }),
        "user panics become structured errors, not poisoned joins: {err}"
    );
}

#[test]
fn run_panics_with_the_structured_message() {
    let plan = FaultPlan::builder(3).panic_p(sites::MAP_TASK, 1.0).build();
    let e = Engine::builder().threads(2).reducers(1).max_task_attempts(1).faults(plan).build();
    let input = lines(10);
    let payload = catch_unwind(AssertUnwindSafe(|| e.run(&WordCount, &input))).unwrap_err();
    let message = payload.downcast_ref::<String>().expect("panic carries a message");
    assert!(message.contains("mapreduce job failed"), "got: {message}");
    assert!(message.contains("panicked on attempt 0"), "got: {message}");
}

#[test]
fn unrecoverable_spill_error_reports_task_io() {
    // Every spill write fails: the spill-heavy engine cannot finish.
    let plan = FaultPlan::builder(5).io_error_p(sites::SPILL_WRITE, 1.0).build();
    let e = Engine::builder()
        .threads(2)
        .reducers(2)
        .map_buffer_bytes(1024)
        .max_task_attempts(2)
        .faults(plan)
        .build();
    let err = e.try_run(&WordCount, &lines(200)).unwrap_err();
    match err {
        JobError::TaskIo { ref source, .. } => assert!(bdb_faults::is_injected(source)),
        ref other => panic!("expected TaskIo, got {other}"),
    }
}

#[test]
fn panicking_tasks_leave_well_formed_spans() {
    // A map task that panics unwinds through its SpanGuard, which must
    // still record a closed span (with a duration) rather than leaving
    // the stream ill-formed, and the profiler must tolerate whatever
    // instants the stream contains without unwrapping `dur_us`.
    let telemetry = bdb_telemetry::SpanRecorder::enabled();
    telemetry.instant("test", "job-submitted"); // instant: dur_us = None
    let plan = FaultPlan::builder(11).panic_nth(sites::MAP_TASK, 0).build();
    let e =
        Engine::builder().threads(2).reducers(2).faults(plan).telemetry(telemetry.clone()).build();
    let input = lines(60);
    let (out, stats) = e.run(&WordCount, &input);
    assert!(!out.is_empty());
    assert!(stats.map_retries >= 1, "the panic forced a retry: {stats:?}");

    let events = telemetry.events();
    let map_tasks: Vec<_> = events.iter().filter(|ev| ev.name == "map-task").collect();
    assert!(map_tasks.len() >= 3, "retry adds an attempt: {}", map_tasks.len());
    for ev in &map_tasks {
        assert!(ev.dur_us.is_some(), "panicked attempts still close their span: {ev:?}");
    }

    // The analyzer skips the instant instead of unwrapping it, and the
    // run still profiles end to end.
    let profile = bdb_profile::Profile::from_events(&events);
    assert_eq!(profile.forest.skipped, 1, "the instant is skipped, not fatal");
    let cp = stats.critical_path.expect("telemetry attached");
    assert!(cp.coverage > 0.9, "{cp:?}");
}

#[test]
fn disabled_plan_changes_nothing() {
    let input = lines(100);
    let (a, sa) = engine(FaultPlan::disabled()).run(&WordCount, &input);
    let (b, sb) = engine(FaultPlan::builder(1).build()).run(&WordCount, &input);
    assert_eq!(a, b);
    assert_eq!(sa.map_records, sb.map_records);
    assert_eq!(sb.map_retries, 0);
    assert_eq!(sb.speculative_tasks, 0);
}
