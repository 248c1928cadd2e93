//! Fault-injection integration tests: with injected spill-write
//! errors, task panics, and stragglers, the engine must still produce
//! output byte-identical to a fault-free run, reporting its retries and
//! speculation in `JobStats` — the Hadoop recovery story end to end.

use bdb_faults::FaultPlan;
use bdb_mapreduce::jobs::WordCount;
use bdb_mapreduce::{sites, Emitter, Engine, Job, JobError};
use bdb_telemetry::MetricsRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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

/// WordCount that counts its reduce calls and, on [`DAMAGE_MARKER`],
/// damages every spill file its map task has written so far: disk
/// corruption between map and reduce.
struct Damaging {
    spill_dir: PathBuf,
    damage: Damage,
    reduces: AtomicU64,
}

const DAMAGE_MARKER: &str = "<damage the spills>";

/// Rewrites a spill file's bytes.
type Damage = fn(&mut Vec<u8>);

impl Job for Damaging {
    type Input = String;
    type Key = String;
    type Value = u64;
    type Output = (String, u64);
    fn map<P: bdb_archsim::Probe + ?Sized>(
        &self,
        line: &String,
        emit: &mut Emitter<String, u64>,
        p: &mut P,
    ) {
        if line == DAMAGE_MARKER {
            for entry in std::fs::read_dir(&self.spill_dir).expect("spill dir") {
                let path = entry.expect("dir entry").path();
                let mut bytes = std::fs::read(&path).expect("spill file");
                (self.damage)(&mut bytes);
                std::fs::write(&path, bytes).expect("damaged spill file");
            }
            return;
        }
        WordCount.map(line, emit, p);
    }
    fn combine(&self, k: &String, values: Vec<u64>) -> Vec<u64> {
        WordCount.combine(k, values)
    }
    fn reduce<P: bdb_archsim::Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<u64>,
        out: &mut Vec<(String, u64)>,
        p: &mut P,
    ) {
        self.reduces.fetch_add(1, Ordering::Relaxed);
        WordCount.reduce(key, values, out, p);
    }
}

impl Damaging {
    /// A job with a private spill directory, created empty.
    fn new(name: &str, damage: Damage) -> Self {
        let spill_dir =
            std::env::temp_dir().join(format!("bdb-faults-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spill_dir);
        std::fs::create_dir_all(&spill_dir).expect("spill dir");
        Self { spill_dir, damage, reduces: AtomicU64::new(0) }
    }

    /// One map task and one reducer, so every spill feeds one merge and
    /// the order of spill reads is fixed.
    fn engine(&self, faults: FaultPlan, attempts: u32) -> Engine {
        Engine::builder()
            .threads(1)
            .reducers(1)
            .map_buffer_bytes(1024)
            .spill_dir(self.spill_dir.clone())
            .max_task_attempts(attempts)
            .faults(faults)
            .build()
    }
}

impl Drop for Damaging {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.spill_dir);
    }
}

#[test]
fn damaged_spill_fails_every_reduce_attempt_with_invalid_data() {
    let damages: [(&str, Damage); 2] =
        [("truncated", |b| b.truncate(b.len() / 2)), ("corrupt", |b| b.fill(0xFF))];
    for (name, damage) in damages {
        let job = Damaging::new(name, damage);
        let mut input = lines(300);
        input.push(DAMAGE_MARKER.to_owned());
        let err = job.engine(FaultPlan::disabled(), 3).try_run(&job, &input).unwrap_err();
        match err {
            JobError::TaskIo { task_id: 0, attempt: 2, ref source } => {
                assert_eq!(source.kind(), std::io::ErrorKind::InvalidData, "{name}: {source}");
            }
            ref other => panic!("{name}: expected TaskIo on the third attempt, got {other}"),
        }
    }
}

#[test]
fn spill_read_error_partway_through_the_merge_is_retried() {
    let job = Damaging::new("partway", |_| unreachable!("no marker in the input"));
    // Hundreds of distinct words: the merge reduces groups in batches,
    // so the failure must come after the first batches.
    let input: Vec<String> =
        (0..300).map(|i| format!("w{i} w{} w{}", i * 7 % 300, i % 13)).collect();
    let (clean, clean_stats) = job.engine(FaultPlan::disabled(), 4).run(&job, &input);
    assert!(clean_stats.spills > 1, "fixture must spill: {clean_stats:?}");
    job.reduces.store(0, Ordering::Relaxed);

    // Starting the merge reads each (small) spill once; the next read
    // finds the end of a spill, after some groups were reduced.
    let plan = FaultPlan::builder(3).io_error_nth(sites::SPILL_READ, clean_stats.spills).build();
    let (faulty, stats) = job.engine(plan.clone(), 4).run(&job, &input);
    assert_eq!(faulty, clean);
    assert_eq!(stats.reduce_retries, 1, "{stats:?}");
    assert_eq!(plan.injected(), 1);
    let reduces = job.reduces.load(Ordering::Relaxed);
    assert!(
        reduces > clean_stats.reduce_groups,
        "the failed attempt reduced groups before the read failed: {reduces} calls"
    );
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
    // the stream ill-formed. `profile_artifacts` profiles the same run.
    let telemetry = bdb_telemetry::SpanRecorder::enabled();
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
