//! The execution engine: parallel native runs and traced runs.
//!
//! The parallel path executes tasks through a small Hadoop-style
//! scheduler: failed attempts (panics, spill I/O errors) are retried up
//! to a bounded attempt budget with exponential backoff accounted in
//! *virtual* time, and straggling map tasks get a speculative second
//! attempt — the first copy to finish wins, exactly as in Hadoop's
//! speculative execution. Fault-injection sites (see [`crate::sites`])
//! are consulted only on this path; traced runs stay fault-free.

use crate::codec::Datum;
use crate::error::JobError;
use crate::job::{Emitter, Job};
use crate::spill::{GroupMerge, SpillFile};
use crate::trace::FrameworkModel;
use bdb_archsim::{CounterSnapshot, NullProbe, Probe};
use bdb_faults::FaultPlan;
use bdb_telemetry::{span, MetricsRegistry, SpanGuard, SpanRecorder};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Counters and timings for one executed job.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Input records consumed by map.
    pub map_records: u64,
    /// Intermediate pairs produced by map (before combine).
    pub map_output_pairs: u64,
    /// Intermediate pairs after map-side combine.
    pub combined_pairs: u64,
    /// Bytes of intermediate data moved through the shuffle, each pair
    /// counted once: a spilled pair as its file bytes, an in-memory pair
    /// at its encoded size.
    pub shuffle_bytes: u64,
    /// Number of spill files written.
    pub spills: u64,
    /// Bytes written to spill files.
    pub spill_bytes: u64,
    /// Distinct key groups reduced.
    pub reduce_groups: u64,
    /// Output records produced.
    pub output_records: u64,
    /// Wall-clock time in the map phase.
    pub map_time: Duration,
    /// Wall-clock time in shuffle + reduce.
    pub reduce_time: Duration,
    /// Map-side sort + combine time, summed across tasks (within
    /// `map_time`; parallel tasks may sum past wall-clock).
    pub sort_time: Duration,
    /// Spill-file write time, summed across tasks (within `map_time`).
    pub spill_time: Duration,
    /// Shuffle-merge time, summed across partitions (within
    /// `reduce_time`): opening and reading spills, decoding them and
    /// running the merge, excluding `Job::reduce`.
    pub merge_time: Duration,
    /// Largest per-reducer key-group count (skew indicator).
    pub max_reduce_groups: u64,
    /// Smallest per-reducer key-group count (skew indicator).
    pub min_reduce_groups: u64,
    /// Map-task attempts relaunched after a failure (panic or I/O).
    pub map_retries: u64,
    /// Reduce-task attempts relaunched after a failure.
    pub reduce_retries: u64,
    /// Map tasks that received a speculative second attempt.
    pub speculative_tasks: u64,
    /// Speculative attempts that finished before the original copy.
    pub speculative_wins: u64,
    /// Exponential retry backoff accrued across all relaunches, in
    /// virtual time (recorded, never slept, so fault runs stay fast).
    pub retry_backoff: Duration,
}

impl JobStats {
    /// Total wall-clock time.
    pub fn total_time(&self) -> Duration {
        self.map_time + self.reduce_time
    }

    /// Data processed per second — the paper's DPS metric for analytics
    /// workloads (input bytes / total processing time).
    pub fn dps(&self, input_bytes: u64) -> f64 {
        let secs = self.total_time().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            input_bytes as f64 / secs
        }
    }

    /// Ratio of the most- to least-loaded reducer's key-group count
    /// (1.0 = perfectly balanced; 0 groups anywhere reports `inf`
    /// unless all reducers are empty, which reports 1.0).
    pub fn reduce_skew(&self) -> f64 {
        if self.max_reduce_groups == 0 {
            1.0
        } else {
            self.max_reduce_groups as f64 / self.min_reduce_groups as f64
        }
    }

    /// Multi-line per-phase breakdown (sort/spill/merge, reducer skew)
    /// for text reports.
    pub fn phase_breakdown(&self) -> String {
        format!(
            "map {:.3}s (sort {:.3}s, spill {:.3}s) | reduce {:.3}s (merge {:.3}s) | \
             groups/reducer max {} min {} (skew {:.2})",
            self.map_time.as_secs_f64(),
            self.sort_time.as_secs_f64(),
            self.spill_time.as_secs_f64(),
            self.reduce_time.as_secs_f64(),
            self.merge_time.as_secs_f64(),
            self.max_reduce_groups,
            self.min_reduce_groups,
            self.reduce_skew(),
        )
    }
}

/// Result of one map task, per partition.
/// Per-partition reduce inputs: in-memory sorted runs plus spill files.
type PartitionInputs<K, V> = Vec<(Vec<Vec<(K, V)>>, Vec<SpillFile>)>;

struct MapTaskResult<K, V> {
    /// In-memory sorted runs, indexed by partition.
    memory_runs: Vec<Vec<(K, V)>>,
    /// Spilled sorted runs, indexed by partition.
    spill_runs: Vec<Vec<SpillFile>>,
    records: u64,
    output_pairs: u64,
    combined_pairs: u64,
    spills: u64,
    spill_bytes: u64,
    sort_time: Duration,
    spill_time: Duration,
}

/// Result of reducing one partition.
struct ReduceOutcome<O> {
    outputs: Vec<O>,
    groups: u64,
    shuffle_bytes: u64,
    merge_time: Duration,
}

/// Base delay for the first retry; doubled per subsequent failure of
/// the same task and accrued in [`JobStats::retry_backoff`] as virtual
/// time.
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(10);
/// A running task is never speculated before this much wall-clock.
const SPECULATION_FLOOR: Duration = Duration::from_millis(25);
/// ... nor before it is this many times slower than the median
/// completed task.
const SPECULATION_FACTOR: u32 = 4;
/// Speculation needs a population to judge stragglers against.
const SPECULATION_MIN_TASKS: usize = 4;
/// Key groups a reduce task merges between runs of `Job::reduce`.
const MERGE_BATCH: usize = 32;

/// Which phase the scheduler is executing; controls speculation and the
/// recovery-metric site.
#[derive(Debug, Clone, Copy)]
enum TaskPhase {
    Map,
    Reduce,
}

impl TaskPhase {
    /// Only map tasks are speculated (Hadoop speculates reduces too,
    /// but our reduce inputs live in the map tasks' spill files — one
    /// partition per reducer keeps the model simple).
    fn speculates(self) -> bool {
        matches!(self, Self::Map)
    }

    fn site(self) -> &'static str {
        match self {
            Self::Map => crate::sites::MAP_TASK,
            Self::Reduce => crate::sites::REDUCE_TASK,
        }
    }
}

/// Per-task scheduler state.
#[derive(Debug, Default)]
struct TaskState {
    /// Attempts started (first attempt, retries, speculation).
    attempts: u32,
    /// Failed attempts so far.
    failures: u32,
    /// Attempts currently executing.
    running: u32,
    /// When the first attempt started (straggler clock).
    first_start: Option<Instant>,
    /// The attempt number launched speculatively, if any.
    speculative_attempt: Option<u32>,
    /// Whether a winning result has been recorded.
    done: bool,
}

/// Retry/speculation counters reported back into [`JobStats`].
#[derive(Debug, Default, Clone, Copy)]
struct SchedStats {
    retries: u64,
    speculative_tasks: u64,
    speculative_wins: u64,
    backoff: Duration,
}

/// Shared scheduler state: one lock per task transition, never on the
/// data path.
struct Board<T> {
    pending: VecDeque<usize>,
    tasks: Vec<TaskState>,
    results: Vec<Option<T>>,
    /// Wall-clock of completed tasks, for the straggler median.
    durations: Vec<Duration>,
    completed: usize,
    fatal: Option<JobError>,
    stats: SchedStats,
}

/// How one attempt failed.
enum AttemptError {
    Panicked(String),
    Io(std::io::Error),
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_owned()
    }
}

/// Picks a straggling task worth a speculative attempt: running, never
/// speculated, never failed (a retried task's straggler clock is
/// stale), and slow relative to both an absolute floor and the median
/// completed-task duration — Hadoop's heuristic in miniature.
fn speculation_candidate<T>(board: &Board<T>, ntasks: usize) -> Option<usize> {
    if ntasks < SPECULATION_MIN_TASKS || board.completed < ntasks / 2 {
        return None;
    }
    let mut durs = board.durations.clone();
    durs.sort_unstable();
    let median = durs.get(durs.len() / 2).copied().unwrap_or(Duration::ZERO);
    let threshold = SPECULATION_FLOOR.max(median * SPECULATION_FACTOR);
    board.tasks.iter().enumerate().find_map(|(tid, t)| {
        let straggling = !t.done
            && t.running > 0
            && t.speculative_attempt.is_none()
            && t.failures == 0
            && t.first_start.is_some_and(|s| s.elapsed() > threshold);
        straggling.then_some(tid)
    })
}

/// The MapReduce engine. Configure with [`Engine::builder`].
#[derive(Debug, Clone)]
pub struct Engine {
    threads: usize,
    reducers: usize,
    map_buffer_bytes: usize,
    spill_dir: PathBuf,
    telemetry: SpanRecorder,
    metrics: Option<MetricsRegistry>,
    faults: FaultPlan,
    max_task_attempts: u32,
}

/// Builder for [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    threads: usize,
    reducers: usize,
    map_buffer_bytes: usize,
    spill_dir: PathBuf,
    telemetry: SpanRecorder,
    metrics: Option<MetricsRegistry>,
    faults: FaultPlan,
    max_task_attempts: u32,
}

impl EngineBuilder {
    /// Number of parallel map/reduce worker threads (default: available
    /// parallelism).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Number of reduce partitions (default: threads).
    pub fn reducers(mut self, n: usize) -> Self {
        self.reducers = n.max(1);
        self
    }

    /// Map-side sort-buffer budget in bytes per task; when a task's
    /// buffered intermediate data exceeds this, it spills to disk
    /// (default: 64 MiB, large enough that small jobs never spill).
    pub fn map_buffer_bytes(mut self, bytes: usize) -> Self {
        self.map_buffer_bytes = bytes.max(1024);
        self
    }

    /// Directory for spill files (default: the system temp dir).
    pub fn spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = dir;
        self
    }

    /// Span recorder for per-task/per-phase spans (default: disabled —
    /// a disabled recorder costs one branch per task boundary).
    pub fn telemetry(mut self, recorder: SpanRecorder) -> Self {
        self.telemetry = recorder;
        self
    }

    /// Metrics registry fed with job counters after each run (default:
    /// none).
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Fault plan consulted at the parallel path's injection sites
    /// (default: disabled — one branch per site check).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attempt budget per task, counting the first attempt (default: 4,
    /// Hadoop's `mapred.map.max.attempts`). A task failing this many
    /// times fails the job with a [`JobError`].
    pub fn max_task_attempts(mut self, n: u32) -> Self {
        self.max_task_attempts = n.max(1);
        self
    }

    /// Finishes the engine.
    pub fn build(self) -> Engine {
        Engine {
            threads: self.threads,
            reducers: if self.reducers == 0 { self.threads } else { self.reducers },
            map_buffer_bytes: self.map_buffer_bytes,
            spill_dir: self.spill_dir,
            telemetry: self.telemetry,
            metrics: self.metrics,
            faults: self.faults,
            max_task_attempts: self.max_task_attempts,
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
        EngineBuilder {
            threads,
            reducers: 0,
            map_buffer_bytes: 64 << 20,
            spill_dir: std::env::temp_dir(),
            telemetry: SpanRecorder::disabled(),
            metrics: None,
            faults: FaultPlan::disabled(),
            max_task_attempts: 4,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of reduce partitions.
    pub fn reducers(&self) -> usize {
        self.reducers
    }

    /// Runs `job` over `inputs` in parallel at native speed (no
    /// instrumentation). Returns outputs (ordered by partition, then by
    /// key) and statistics.
    ///
    /// # Panics
    ///
    /// Panics with the structured [`JobError`] message when a task
    /// exhausts its retry budget; use [`Engine::try_run`] to handle that
    /// as a value instead.
    pub fn run<J: Job>(&self, job: &J, inputs: &[J::Input]) -> (Vec<J::Output>, JobStats) {
        self.try_run(job, inputs).unwrap_or_else(|e| panic!("mapreduce job failed: {e}"))
    }

    /// Fault-tolerant [`Engine::run`]: task panics and spill I/O errors
    /// are retried up to the attempt budget, straggling map tasks are
    /// speculatively re-executed, and only a task with no attempts left
    /// fails the job.
    ///
    /// # Errors
    ///
    /// Returns a [`JobError`] identifying the task and final attempt
    /// when retries are exhausted.
    pub fn try_run<J: Job>(
        &self,
        job: &J,
        inputs: &[J::Input],
    ) -> Result<(Vec<J::Output>, JobStats), JobError> {
        let mut stats = JobStats::default();
        let job_span = span!(self.telemetry, "mapreduce", "job", inputs = inputs.len());
        let map_start = Instant::now();
        let chunk = inputs.len().div_ceil(self.threads).max(1);
        let chunks: Vec<&[J::Input]> = inputs.chunks(chunk).collect();
        let (task_results, map_sched) = {
            let _map_span = span!(self.telemetry, "mapreduce", "map-phase");
            self.run_tasks(chunks.len(), TaskPhase::Map, |task_id, attempt| {
                let records = chunks[task_id];
                let mut task_span = span!(
                    self.telemetry,
                    "mapreduce",
                    "map-task",
                    task = task_id,
                    attempt = attempt,
                    records = records.len()
                );
                if let Some(delay) = self.faults.straggle(crate::sites::MAP_STRAGGLER) {
                    std::thread::sleep(delay);
                }
                self.faults.maybe_panic(crate::sites::MAP_TASK);
                let mut probe = NullProbe;
                let r =
                    self.map_task(job, records, task_id, &self.faults, &mut probe, &mut None)?;
                task_span.arg("output_pairs", r.output_pairs);
                task_span.arg("spills", r.spills);
                Ok(r)
            })?
        };
        stats.map_retries = map_sched.retries;
        stats.speculative_tasks = map_sched.speculative_tasks;
        stats.speculative_wins = map_sched.speculative_wins;
        stats.retry_backoff = map_sched.backoff;
        stats.map_time = map_start.elapsed();

        let reduce_start = Instant::now();
        let reduce_span = span!(self.telemetry, "mapreduce", "reduce-phase");
        let partitions = self.fold_map(&mut stats, task_results);
        let (reduced, reduce_sched) =
            self.run_tasks(partitions.len(), TaskPhase::Reduce, |p, attempt| {
                let (runs, spills) = &partitions[p];
                let mut part_span = span!(
                    self.telemetry,
                    "mapreduce",
                    "reduce-partition",
                    partition = p,
                    attempt = attempt
                );
                self.faults.maybe_panic(crate::sites::REDUCE_TASK);
                let mut probe = NullProbe;
                let r =
                    self.reduce_partition(job, runs, spills, &self.faults, &mut probe, &mut None)?;
                part_span.arg("groups", r.groups);
                part_span.arg("shuffle_bytes", r.shuffle_bytes);
                Ok(r)
            })?;
        stats.reduce_retries = reduce_sched.retries;
        stats.retry_backoff += reduce_sched.backoff;
        let outputs = fold_reduce(&mut stats, reduced);
        stats.reduce_time = reduce_start.elapsed();
        drop(reduce_span);
        drop(job_span);
        self.record_metrics(&stats);
        Ok((outputs, stats))
    }

    /// Executes `ntasks` independent tasks on the worker pool with
    /// bounded retries and (for map phases) speculative execution.
    /// Results come back indexed by task id, so output order never
    /// depends on scheduling.
    fn run_tasks<T, F>(
        &self,
        ntasks: usize,
        phase: TaskPhase,
        run_attempt: F,
    ) -> Result<(Vec<T>, SchedStats), JobError>
    where
        T: Send,
        F: Fn(usize, u32) -> std::io::Result<T> + Sync,
    {
        if ntasks == 0 {
            return Ok((Vec::new(), SchedStats::default()));
        }
        let board = Mutex::new(Board {
            pending: (0..ntasks).collect(),
            tasks: (0..ntasks).map(|_| TaskState::default()).collect(),
            results: (0..ntasks).map(|_| None).collect(),
            durations: Vec::new(),
            completed: 0,
            fatal: None,
            stats: SchedStats::default(),
        });
        let idle = Condvar::new();
        let workers = self.threads.clamp(1, ntasks);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| self.worker_loop(&board, &idle, ntasks, phase, &run_attempt));
            }
        });
        let board = board.into_inner().expect("board lock");
        if let Some(err) = board.fatal {
            return Err(err);
        }
        let results =
            board.results.into_iter().map(|r| r.expect("completed task has a result")).collect();
        Ok((results, board.stats))
    }

    /// One scheduler worker: claim pending (or speculation-eligible)
    /// tasks, execute attempts under `catch_unwind`, and settle the
    /// outcome on the shared board.
    fn worker_loop<T, F>(
        &self,
        board: &Mutex<Board<T>>,
        idle: &Condvar,
        ntasks: usize,
        phase: TaskPhase,
        run_attempt: &F,
    ) where
        T: Send,
        F: Fn(usize, u32) -> std::io::Result<T> + Sync,
    {
        let mut guard = board.lock().expect("board lock");
        loop {
            if guard.fatal.is_some() || guard.completed == ntasks {
                return;
            }
            let claim = match guard.pending.pop_front() {
                Some(tid) => Some((tid, false)),
                None if phase.speculates() => {
                    speculation_candidate(&guard, ntasks).map(|tid| (tid, true))
                }
                None => None,
            };
            let Some((tid, speculative)) = claim else {
                // Idle: wake on completions/failures, or after a short
                // timeout to re-check straggler speculation eligibility.
                guard = idle.wait_timeout(guard, Duration::from_millis(2)).expect("board lock").0;
                continue;
            };
            let attempt = guard.tasks[tid].attempts;
            guard.tasks[tid].attempts += 1;
            guard.tasks[tid].running += 1;
            if guard.tasks[tid].first_start.is_none() {
                guard.tasks[tid].first_start = Some(Instant::now());
            }
            if speculative {
                guard.tasks[tid].speculative_attempt = Some(attempt);
                guard.stats.speculative_tasks += 1;
            }
            drop(guard);

            let outcome = match catch_unwind(AssertUnwindSafe(|| run_attempt(tid, attempt))) {
                Ok(Ok(value)) => Ok(value),
                Ok(Err(e)) => Err(AttemptError::Io(e)),
                Err(payload) => Err(AttemptError::Panicked(panic_message(payload.as_ref()))),
            };

            guard = board.lock().expect("board lock");
            guard.tasks[tid].running -= 1;
            if guard.tasks[tid].done {
                // A lost speculative twin (or a failure after the task
                // already completed) is moot.
                continue;
            }
            match outcome {
                Ok(value) => {
                    let won_speculatively = guard.tasks[tid].speculative_attempt == Some(attempt);
                    let recovered = guard.tasks[tid].failures > 0 || won_speculatively;
                    guard.tasks[tid].done = true;
                    let dur = guard.tasks[tid].first_start.map_or(Duration::ZERO, |s| s.elapsed());
                    guard.results[tid] = Some(value);
                    guard.durations.push(dur);
                    guard.completed += 1;
                    if won_speculatively {
                        guard.stats.speculative_wins += 1;
                    }
                    if recovered {
                        self.faults.note_recovered(phase.site());
                    }
                }
                Err(e) => {
                    guard.tasks[tid].failures += 1;
                    let failures = guard.tasks[tid].failures;
                    if failures >= self.max_task_attempts {
                        guard.fatal.get_or_insert(match e {
                            AttemptError::Panicked(message) => {
                                JobError::TaskPanicked { task_id: tid, attempt, message }
                            }
                            AttemptError::Io(source) => {
                                JobError::TaskIo { task_id: tid, attempt, source }
                            }
                        });
                    } else {
                        guard.stats.retries += 1;
                        guard.stats.backoff +=
                            RETRY_BACKOFF_BASE * 2u32.saturating_pow((failures - 1).min(16));
                        guard.pending.push_back(tid);
                    }
                }
            }
            idle.notify_all();
        }
    }

    /// Publishes one run's counters into the attached metrics registry
    /// (no-op without one; called once per run, never on the hot path).
    fn record_metrics(&self, stats: &JobStats) {
        let Some(metrics) = &self.metrics else { return };
        metrics.counter("mapreduce.map_records").add(stats.map_records);
        metrics.counter("mapreduce.map_output_pairs").add(stats.map_output_pairs);
        metrics.counter("mapreduce.combined_pairs").add(stats.combined_pairs);
        metrics.counter("mapreduce.shuffle_bytes").add(stats.shuffle_bytes);
        metrics.counter("mapreduce.spills").add(stats.spills);
        metrics.counter("mapreduce.spill_bytes").add(stats.spill_bytes);
        metrics.counter("mapreduce.reduce_groups").add(stats.reduce_groups);
        metrics.counter("mapreduce.output_records").add(stats.output_records);
        metrics.counter("mapreduce.map_retries").add(stats.map_retries);
        metrics.counter("mapreduce.reduce_retries").add(stats.reduce_retries);
        metrics.counter("mapreduce.speculative_tasks").add(stats.speculative_tasks);
        metrics.counter("mapreduce.speculative_wins").add(stats.speculative_wins);
        metrics.histogram("mapreduce.map_phase_us").record(stats.map_time);
        metrics.histogram("mapreduce.reduce_phase_us").record(stats.reduce_time);
    }

    /// Runs `job` single-threaded against an instrumentation probe,
    /// additionally modeling the framework's own code footprint and
    /// buffer traffic via a fresh [`FrameworkModel`].
    pub fn run_traced<J: Job, P: Probe + ?Sized>(
        &self,
        job: &J,
        inputs: &[J::Input],
        probe: &mut P,
    ) -> (Vec<J::Output>, JobStats) {
        let mut fw = FrameworkModel::new();
        self.run_traced_with(job, inputs, probe, &mut fw)
    }

    /// [`Engine::run_traced`] with a caller-owned framework model, so
    /// warm-up and measured runs share cursors and code addresses (the
    /// input stream stays cold across the ramp-up boundary).
    pub fn run_traced_with<J: Job, P: Probe + ?Sized>(
        &self,
        job: &J,
        inputs: &[J::Input],
        probe: &mut P,
        fw: &mut FrameworkModel,
    ) -> (Vec<J::Output>, JobStats) {
        let mut stats = JobStats::default();
        let job_span = span!(self.telemetry, "mapreduce", "job", inputs = inputs.len());
        let caller_fw = fw;
        let mut fw = Some(std::mem::take(caller_fw));
        // Traced runs are single-threaded and fault-free: injection and
        // recovery belong to the parallel path only.
        let no_faults = FaultPlan::disabled();
        let map_start = Instant::now();
        probe.phase("map");
        let task = {
            let before = probe.counters();
            let mut map_span = span!(self.telemetry, "mapreduce", "map-phase");
            let task = self
                .map_task(job, inputs, 0, &no_faults, probe, &mut fw)
                .expect("spill write failed (traced runs are fault-free)");
            attach_counter_delta(&mut map_span, before.as_ref(), probe);
            task
        };
        stats.map_time = map_start.elapsed();

        // Each partition's in-memory run and spills merge in one call,
        // as on the parallel path, so a key in both is one group.
        let reduce_start = Instant::now();
        let partitions = self.fold_map(&mut stats, vec![task]);
        let mut reduced = Vec::with_capacity(partitions.len());
        for (p, (runs, spills)) in partitions.iter().enumerate() {
            let before = probe.counters();
            let mut part_span =
                span!(self.telemetry, "mapreduce", "reduce-partition", partition = p);
            let r = self
                .reduce_partition(job, runs, spills, &no_faults, probe, &mut fw)
                .expect("spill read failed (traced runs are fault-free)");
            attach_counter_delta(&mut part_span, before.as_ref(), probe);
            reduced.push(r);
        }
        let outputs = fold_reduce(&mut stats, reduced);
        stats.reduce_time = reduce_start.elapsed();
        drop(job_span);
        self.record_metrics(&stats);
        *caller_fw = fw.take().expect("framework model present throughout");
        (outputs, stats)
    }

    /// Adds the map tasks' counters to `stats` and regroups their runs
    /// by partition: each partition's in-memory runs and spill files.
    fn fold_map<K, V>(
        &self,
        stats: &mut JobStats,
        tasks: Vec<MapTaskResult<K, V>>,
    ) -> PartitionInputs<K, V> {
        let mut partitions: PartitionInputs<K, V> =
            (0..self.reducers).map(|_| (Vec::new(), Vec::new())).collect();
        for task in tasks {
            stats.map_records += task.records;
            stats.map_output_pairs += task.output_pairs;
            stats.combined_pairs += task.combined_pairs;
            stats.spills += task.spills;
            stats.spill_bytes += task.spill_bytes;
            stats.sort_time += task.sort_time;
            stats.spill_time += task.spill_time;
            for (p, run) in task.memory_runs.into_iter().enumerate() {
                if !run.is_empty() {
                    partitions[p].0.push(run);
                }
            }
            for (p, spills) in task.spill_runs.into_iter().enumerate() {
                partitions[p].1.extend(spills);
            }
        }
        partitions
    }

    /// One map task attempt over a slice of records. Spill I/O errors
    /// (real or injected) propagate so the scheduler can retry the
    /// attempt; partially written spill files are cleaned up on the way
    /// out (the result's `SpillFile`s delete themselves on drop).
    fn map_task<J: Job, P: Probe + ?Sized>(
        &self,
        job: &J,
        records: &[J::Input],
        task_id: usize,
        faults: &FaultPlan,
        probe: &mut P,
        fw: &mut Option<FrameworkModel>,
    ) -> std::io::Result<MapTaskResult<J::Key, J::Value>> {
        let mut result = MapTaskResult {
            memory_runs: (0..self.reducers).map(|_| Vec::new()).collect(),
            spill_runs: (0..self.reducers).map(|_| Vec::new()).collect(),
            records: 0,
            output_pairs: 0,
            combined_pairs: 0,
            spills: 0,
            spill_bytes: 0,
            sort_time: Duration::ZERO,
            spill_time: Duration::ZERO,
        };
        let mut buffers: Vec<SortBuffer<J::Key, J::Value>> =
            (0..self.reducers).map(|_| SortBuffer::default()).collect();
        let mut buffered_bytes = 0usize;
        let mut emitter = Emitter::new();
        let mut scratch = Vec::new();

        for record in records {
            result.records += 1;
            if let Some(fw) = fw.as_mut() {
                fw.on_map_record(probe, job.input_size(record));
            }
            job.map(record, &mut emitter, probe);
            buffered_bytes += emitter.bytes();
            for (k, v) in emitter.drain() {
                if let Some(fw) = fw.as_mut() {
                    fw.on_emit(probe, k.size_hint() + v.size_hint());
                }
                result.output_pairs += 1;
                let hash = k.encoded_hash(&mut scratch);
                buffers[partition(hash, self.reducers)].push(hash, k, v);
            }
            if buffered_bytes > self.map_buffer_bytes {
                self.spill(job, &mut buffers, &mut result, task_id, faults, probe, fw)?;
                buffered_bytes = 0;
            }
        }
        // Final in-memory runs: sort + combine, keep in memory.
        let sort_start = Instant::now();
        for (p, buf) in buffers.iter_mut().enumerate() {
            let run = buf.sort_and_combine(job);
            result.combined_pairs += run.len() as u64;
            result.memory_runs[p] = run;
        }
        result.sort_time += sort_start.elapsed();
        Ok(result)
    }

    /// Sorts, combines and spills all current buffers to disk.
    #[allow(clippy::too_many_arguments)]
    fn spill<J: Job, P: Probe + ?Sized>(
        &self,
        job: &J,
        buffers: &mut [SortBuffer<J::Key, J::Value>],
        result: &mut MapTaskResult<J::Key, J::Value>,
        task_id: usize,
        faults: &FaultPlan,
        probe: &mut P,
        fw: &mut Option<FrameworkModel>,
    ) -> std::io::Result<()> {
        probe.phase("spill");
        let before = probe.counters();
        let mut spill_span = span!(self.telemetry, "mapreduce", "spill", task = task_id);
        let mut spilled_bytes = 0u64;
        for (p, buf) in buffers.iter_mut().enumerate() {
            if buf.pairs == 0 {
                continue;
            }
            let n = buf.pairs;
            let sort_start = Instant::now();
            let run = buf.sort_and_combine(job);
            result.sort_time += sort_start.elapsed();
            result.combined_pairs += run.len() as u64;
            if let Some(fw) = fw.as_mut() {
                let bytes: usize = run.iter().map(|(k, v)| k.size_hint() + v.size_hint()).sum();
                fw.on_spill(probe, n, bytes);
            }
            let write_start = Instant::now();
            let file = SpillFile::write_with(&self.spill_dir, &run, faults)?;
            result.spill_time += write_start.elapsed();
            result.spills += 1;
            result.spill_bytes += file.bytes;
            spilled_bytes += file.bytes;
            result.spill_runs[p].push(file);
        }
        spill_span.arg("bytes", spilled_bytes);
        attach_counter_delta(&mut spill_span, before.as_ref(), probe);
        drop(spill_span);
        // Spills interrupt the map loop; attribution returns to "map"
        // for the records that follow.
        probe.phase("map");
        Ok(())
    }

    /// Shuffle-merge and reduce one partition, streaming: the merge
    /// hands `Job::reduce` one key group at a time. Inputs are borrowed
    /// so a retried attempt can merge the same runs again.
    fn reduce_partition<J: Job, P: Probe + ?Sized>(
        &self,
        job: &J,
        runs: &[Vec<(J::Key, J::Value)>],
        spills: &[SpillFile],
        faults: &FaultPlan,
        probe: &mut P,
        fw: &mut Option<FrameworkModel>,
    ) -> std::io::Result<ReduceOutcome<J::Output>> {
        let open_start = Instant::now();
        probe.phase("shuffle");
        let mut merge = {
            let before = probe.counters();
            let mut merge_span =
                span!(self.telemetry, "mapreduce", "shuffle-merge", runs = runs.len());
            merge_span.arg("spills", spills.len());
            let merge = GroupMerge::new(runs.iter().map(Vec::as_slice), spills, faults)?;
            attach_counter_delta(&mut merge_span, before.as_ref(), probe);
            merge
        };
        let mut merge_time = open_start.elapsed();
        // Each pair crosses the shuffle once: a spilled pair as its file
        // bytes, an in-memory one at its encoded size.
        let shuffle_bytes = spills.iter().map(|s| s.bytes).sum::<u64>()
            + runs
                .iter()
                .flatten()
                .map(|(k, v)| (k.size_hint() + v.size_hint()) as u64)
                .sum::<u64>();
        probe.phase("reduce");
        let mut out = Vec::new();
        let mut groups = 0u64;
        // Groups are merged a batch at a time, so timing the merge apart
        // from `Job::reduce` reads the clock twice per batch, not per
        // group.
        let mut batch = Vec::with_capacity(MERGE_BATCH);
        loop {
            let merge_start = Instant::now();
            for group in merge.by_ref().take(MERGE_BATCH) {
                batch.push(group?);
            }
            merge_time += merge_start.elapsed();
            if batch.is_empty() {
                break;
            }
            for (key, values) in batch.drain(..) {
                groups += 1;
                if let Some(fw) = fw.as_mut() {
                    fw.on_reduce_group(probe, values.len());
                }
                job.reduce(key, values, &mut out, probe);
            }
        }
        Ok(ReduceOutcome { outputs: out, groups, shuffle_bytes, merge_time })
    }
}

/// Adds the partitions' reduce outcomes to `stats`, returning their
/// outputs in partition order.
fn fold_reduce<O>(stats: &mut JobStats, reduced: Vec<ReduceOutcome<O>>) -> Vec<O> {
    let mut outputs = Vec::new();
    stats.min_reduce_groups = u64::MAX;
    for r in reduced {
        stats.reduce_groups += r.groups;
        stats.shuffle_bytes += r.shuffle_bytes;
        stats.merge_time += r.merge_time;
        stats.max_reduce_groups = stats.max_reduce_groups.max(r.groups);
        stats.min_reduce_groups = stats.min_reduce_groups.min(r.groups);
        stats.output_records += r.outputs.len() as u64;
        outputs.extend(r.outputs);
    }
    if stats.min_reduce_groups == u64::MAX {
        stats.min_reduce_groups = 0;
    }
    outputs
}

/// Copies the counter deltas accumulated since `before` onto `span` as
/// `counter.*` args, when the probe exposes simulated counters. The
/// Chrome exporter additionally renders such args as `"ph":"C"`
/// samples, giving per-phase counter tracks over the run timeline.
fn attach_counter_delta<P: Probe + ?Sized>(
    span: &mut SpanGuard<'_>,
    before: Option<&CounterSnapshot>,
    probe: &P,
) {
    let (Some(before), Some(after)) = (before, probe.counters()) else {
        return;
    };
    for (key, value) in after.delta_since(before).named_counters() {
        span.arg(key, value);
    }
}

/// The reduce partition of a key with hash `hash`.
fn partition(hash: u64, reducers: usize) -> usize {
    (hash % reducers as u64) as usize
}

/// A key with its [`Datum::encoded_hash`], so the sort buffer's table
/// reuses the hash the partitioner already computed.
struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K: PartialEq> PartialEq for Hashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Hashed<K> {}

impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands [`Hashed::hash`] to the table unchanged. Unlike std's keyed
/// default this gives no protection against keys crafted to collide:
/// such keys slow a map task down (never change its output), which is
/// acceptable for intermediate keys produced by the job's own `map`.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("only Hashed keys, which write one u64, use this hasher")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// One partition's map-side sort buffer. Pairs are grouped by key as
/// they arrive, each key's values kept in emission order, so a flush
/// sorts only the distinct keys instead of every buffered pair. The
/// runs it yields equal a stable sort of the pairs grouped per key.
struct SortBuffer<K, V> {
    groups: HashMap<Hashed<K>, Vec<V>, BuildHasherDefault<PassThrough>>,
    /// Pairs pushed since the last flush.
    pairs: usize,
}

impl<K, V> Default for SortBuffer<K, V> {
    fn default() -> Self {
        Self { groups: HashMap::default(), pairs: 0 }
    }
}

impl<K: Datum + Ord, V: Datum> SortBuffer<K, V> {
    /// Buffers one pair; `hash` is the key's [`Datum::encoded_hash`].
    fn push(&mut self, hash: u64, key: K, value: V) {
        self.pairs += 1;
        self.groups.entry(Hashed { hash, key }).or_default().push(value);
    }

    /// Empties the buffer into one run sorted by key, calling the job's
    /// combiner once per key on that key's values in emission order.
    fn sort_and_combine<J: Job<Key = K, Value = V>>(&mut self, job: &J) -> Vec<(K, V)> {
        self.pairs = 0;
        // Keys in the table are distinct, so an unstable sort is exact.
        let mut groups: Vec<_> = self.groups.drain().collect();
        groups.sort_unstable_by(|a, b| a.0.key.cmp(&b.0.key));
        let mut run = Vec::with_capacity(groups.len());
        for (Hashed { key, .. }, values) in groups {
            let mut combined = job.combine(&key, values).into_iter();
            let Some(mut last) = combined.next() else { continue };
            for v in combined {
                run.push((key.clone(), std::mem::replace(&mut last, v)));
            }
            run.push((key, last));
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::WordCount;
    use bdb_archsim::{CountingProbe, MachineConfig, SimProbe};

    /// Identity sort job over u64 keys.
    struct SortJob;
    impl Job for SortJob {
        type Input = u64;
        type Key = u64;
        type Value = ();
        type Output = u64;
        fn map<P: Probe + ?Sized>(&self, x: &u64, emit: &mut Emitter<u64, ()>, _p: &mut P) {
            emit.emit(*x, ());
        }
        fn reduce<P: Probe + ?Sized>(
            &self,
            key: u64,
            values: Vec<()>,
            out: &mut Vec<u64>,
            _p: &mut P,
        ) {
            for _ in values {
                out.push(key);
            }
        }
    }

    fn lines() -> Vec<String> {
        vec![
            "the quick brown fox".to_owned(),
            "the lazy dog".to_owned(),
            "the quick dog".to_owned(),
        ]
    }

    #[test]
    fn wordcount_matches_naive() {
        let engine = Engine::builder().threads(3).reducers(2).build();
        let (mut out, stats) = engine.run(&WordCount, &lines());
        out.sort();
        let expect = vec![
            ("brown".to_owned(), 1),
            ("dog".to_owned(), 2),
            ("fox".to_owned(), 1),
            ("lazy".to_owned(), 1),
            ("quick".to_owned(), 2),
            ("the".to_owned(), 3),
        ];
        assert_eq!(out, expect);
        assert_eq!(stats.map_records, 3);
        assert_eq!(stats.map_output_pairs, 10);
        assert_eq!(stats.reduce_groups, 6);
        assert_eq!(stats.output_records, 6);
    }

    #[test]
    fn sort_outputs_sorted_within_partition_and_complete() {
        let engine = Engine::builder().threads(4).reducers(1).build();
        let inputs: Vec<u64> = (0..10_000).map(|i| (i * 2_654_435_761u64) % 100_000).collect();
        let (out, stats) = engine.run(&SortJob, &inputs);
        assert_eq!(out.len(), inputs.len());
        assert!(out.windows(2).all(|w| w[0] <= w[1]), "single partition ⇒ totally sorted");
        assert_eq!(stats.map_records, 10_000);
        let mut expect = inputs.clone();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn spilling_engine_still_correct() {
        // Tiny buffer forces many spills.
        let engine = Engine::builder().threads(2).reducers(2).map_buffer_bytes(1024).build();
        let inputs: Vec<u64> = (0..5000).rev().collect();
        let (mut out, stats) = engine.run(&SortJob, &inputs);
        assert!(stats.spills > 0, "should have spilled");
        assert!(stats.spill_bytes > 0);
        out.sort_unstable();
        let expect: Vec<u64> = (0..5000).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn combiner_reduces_shuffle_volume() {
        let engine_c = Engine::builder().threads(1).reducers(1).build();
        let input: Vec<String> = vec!["a a a a a a a a".to_owned(); 100];
        let (_, with_combiner) = engine_c.run(&WordCount, &input);
        // combined_pairs: one per (buffer, key) — here 1; without combine
        // it would equal map_output_pairs (800).
        assert_eq!(with_combiner.map_output_pairs, 800);
        assert_eq!(with_combiner.combined_pairs, 1);
        assert!(with_combiner.shuffle_bytes < 100);
    }

    #[test]
    fn traced_run_matches_native_output() {
        let engine = Engine::builder().reducers(2).build();
        let mut probe = SimProbe::new(MachineConfig::xeon_e5645());
        let (mut traced, _) = engine.run_traced(&WordCount, &lines(), &mut probe);
        let (mut native, _) = engine.run(&WordCount, &lines());
        traced.sort();
        native.sort();
        assert_eq!(traced, native);
        let report = probe.finish();
        assert!(report.mix.other > 0, "framework instructions recorded");
        assert!(report.l1i.stats.accesses > 0);
    }

    #[test]
    fn traced_run_with_spills_matches_native_output() {
        // A 2 KiB buffer spills every few records, so most words sit in
        // both a partition's spills and its final in-memory run; each
        // must still reduce as one group.
        let engine = Engine::builder().reducers(2).map_buffer_bytes(2048).build();
        let lines: Vec<String> =
            (0..400).map(|i| format!("alpha beta gamma delta-{} epsilon", i % 17)).collect();
        let (mut traced, stats) = engine.run_traced(&WordCount, &lines, &mut NullProbe);
        assert!(stats.spills > 0, "the fixture must spill");
        let (mut native, _) = engine.run(&WordCount, &lines);
        traced.sort();
        native.sort();
        assert_eq!(traced, native);
        assert_eq!(stats.reduce_groups, native.len() as u64);
    }

    #[test]
    fn traced_run_counts_framework_events() {
        let engine = Engine::builder().reducers(1).build();
        let mut probe = CountingProbe::default();
        let inputs: Vec<u64> = (0..100).collect();
        let (_, stats) = engine.run_traced(&SortJob, &inputs, &mut probe);
        assert_eq!(stats.map_records, 100);
        assert!(probe.mix().total() > 100, "at least one instruction per record");
    }

    #[test]
    fn empty_input_is_fine() {
        let engine = Engine::default();
        let (out, stats) = engine.run(&SortJob, &[]);
        assert!(out.is_empty());
        assert_eq!(stats.map_records, 0);
        assert_eq!(stats.reduce_groups, 0);
    }

    #[test]
    fn dps_metric() {
        let stats = JobStats {
            map_time: Duration::from_millis(500),
            reduce_time: Duration::from_millis(500),
            ..Default::default()
        };
        assert!((stats.dps(1_000_000) - 1_000_000.0).abs() < 1.0);
        assert_eq!(JobStats::default().dps(100), 0.0);
    }

    #[test]
    fn instrumented_run_emits_task_spans_and_phase_stats() {
        let telemetry = SpanRecorder::enabled();
        let metrics = MetricsRegistry::new();
        let engine = Engine::builder()
            .threads(2)
            .reducers(3)
            .map_buffer_bytes(1024) // force spills so spill spans appear
            .telemetry(telemetry.clone())
            .metrics(metrics.clone())
            .build();
        let inputs: Vec<u64> = (0..4000).rev().collect();
        let (out, stats) = engine.run(&SortJob, &inputs);
        assert_eq!(out.len(), 4000);

        let events = telemetry.events();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("job"), 1);
        assert_eq!(count("map-phase"), 1);
        assert_eq!(count("reduce-phase"), 1);
        assert_eq!(count("map-task"), 2, "one span per map task");
        assert_eq!(count("reduce-partition"), 3, "one span per partition");
        assert!(count("spill") > 0, "tiny buffer must spill");
        assert_eq!(count("shuffle-merge"), 3);

        // Per-phase breakdown populated and internally consistent.
        assert!(stats.spills > 0);
        assert!(stats.sort_time > Duration::ZERO);
        assert!(stats.spill_time > Duration::ZERO);
        assert!(stats.max_reduce_groups >= stats.min_reduce_groups);
        assert!(stats.reduce_skew() >= 1.0);
        let breakdown = stats.phase_breakdown();
        assert!(breakdown.contains("skew"), "breakdown: {breakdown}");

        // Counters flowed into the registry.
        assert_eq!(metrics.counter("mapreduce.map_records").get(), 4000);
        assert_eq!(metrics.counter("mapreduce.reduce_groups").get(), stats.reduce_groups);
        assert_eq!(metrics.histogram("mapreduce.map_phase_us").snapshot().count(), 1);
    }

    #[test]
    fn traced_run_attributes_counters_to_phases_and_spans() {
        let telemetry = SpanRecorder::enabled();
        let engine = Engine::builder().reducers(2).telemetry(telemetry.clone()).build();
        let mut probe = SimProbe::new(MachineConfig::xeon_e5645());
        engine.run_traced(&WordCount, &lines(), &mut probe);
        let report = probe.finish();

        // Phase attribution: map/shuffle/reduce named, sums to totals.
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["map", "shuffle", "reduce"], "phases in first-appearance order");
        let summed: u64 = report.phases.iter().map(|p| p.counters.instructions()).sum();
        assert_eq!(summed, report.mix.total(), "phase counters sum to whole-run totals");

        // The map-phase span and each reduce-partition span carry the
        // full fixed counter-delta key set.
        let events = telemetry.events();
        let carrying: Vec<_> = events
            .iter()
            .filter(|e| e.args.iter().any(|(k, _)| k.starts_with("counter.")))
            .collect();
        assert!(carrying.len() >= 2, "counter deltas on ≥2 spans, got {}", carrying.len());
        assert!(carrying.iter().any(|e| e.name == "map-phase"));
        assert!(carrying.iter().any(|e| e.name == "reduce-partition"));
        let keys = CounterSnapshot::default().named_counters().len();
        for e in &carrying {
            let n = e.args.iter().filter(|(k, _)| k.starts_with("counter.")).count();
            assert_eq!(n, keys, "span {} carries the full key set", e.name);
        }
    }

    #[test]
    fn uninstrumented_run_records_no_spans() {
        let engine = Engine::builder().threads(2).reducers(2).build();
        let (_, stats) = engine.run(&SortJob, &(0..100u64).collect::<Vec<_>>());
        assert_eq!(stats.map_records, 100);
        // Disabled recorder: skew fields still populated from outcomes.
        assert!(stats.max_reduce_groups >= stats.min_reduce_groups);
    }

    #[test]
    fn partitioner_is_deterministic_and_bounded() {
        let mut scratch = Vec::new();
        for k in 0u64..1000 {
            let p = partition(k.encoded_hash(&mut scratch), 7);
            assert!(p < 7);
            assert_eq!(p, partition(k.encoded_hash(&mut scratch), 7));
        }
    }

    /// The partition of a key decides which reducer and output position
    /// it lands in, so outputs and wall-clock artifacts depend on these
    /// exact `fnv1a_words` values. Keys under 8 encoded bytes hash as
    /// FNV-1a did, so their partitions never moved.
    #[test]
    fn partitioner_golden_values() {
        let mut scratch = Vec::new();
        let strings = [
            // Under one word (4-byte length prefix + up to 3 bytes).
            ("", (1, 5)),
            ("a", (1, 2)),
            ("ab", (0, 3)),
            ("the", (1, 3)),
            ("dog", (0, 0)),
            ("fox", (1, 0)),
            // One word and a tail; two words (16 bytes); two words and
            // a tail; three words (24 bytes).
            ("brown", (0, 0)),
            ("BigDataBench", (1, 0)),
            ("héllo wörld", (0, 2)),
            ("internet services", (1, 2)),
            ("a big data benchmark", (0, 3)),
        ];
        for (key, expect) in strings {
            let h = key.to_owned().encoded_hash(&mut scratch);
            assert_eq!((partition(h, 2), partition(h, 7)), expect, "{key:?}");
        }
        let ints = [
            (0u64, (1, 3)),
            (1, (1, 5)),
            (42, (0, 4)),
            (1 << 32, (0, 2)),
            (0xdead_beef, (0, 3)),
            (u64::MAX, (0, 5)),
        ];
        for (key, expect) in ints {
            let h = key.encoded_hash(&mut scratch);
            assert_eq!((partition(h, 2), partition(h, 7)), expect, "{key}");
        }
    }

    /// Partitions of sequential integers and of a Zipf text vocabulary
    /// each stay within four binomial standard deviations of the mean.
    #[test]
    fn partitions_are_balanced() {
        let mut scratch = Vec::new();
        let ints: Vec<u64> = (0..10_000u64).map(|k| k.encoded_hash(&mut scratch)).collect();
        let text = bdb_datagen::text::TextGenerator::wikipedia(1);
        let vocab = text.vocabulary();
        let mut words: Vec<String> = (0..vocab.len()).map(|r| vocab.word(r).to_owned()).collect();
        words.sort_unstable();
        words.dedup();
        let words: Vec<u64> = words.iter().map(|w| w.encoded_hash(&mut scratch)).collect();
        for (what, hashes) in [("u64", ints), ("words", words)] {
            let n = hashes.len() as f64;
            for reducers in [2, 3, 7] {
                let mut counts = vec![0usize; reducers];
                for &h in &hashes {
                    counts[partition(h, reducers)] += 1;
                }
                let p = 1.0 / reducers as f64;
                let bound = 4.0 * (n * p * (1.0 - p)).sqrt();
                for (part, &c) in counts.iter().enumerate() {
                    let dev = (c as f64 - n * p).abs();
                    assert!(
                        dev <= bound,
                        "{what}, {reducers} reducers: partition {part} {counts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sort_buffer_keeps_colliding_keys_apart() {
        let mut buf = SortBuffer::default();
        // Same forced hash, distinct keys: two groups, each combined.
        buf.push(7, "b".to_owned(), 1);
        buf.push(7, "a".to_owned(), 2);
        buf.push(7, "b".to_owned(), 3);
        assert_eq!(buf.pairs, 3);
        let run = buf.sort_and_combine(&WordCount);
        assert_eq!(run, [("a".to_owned(), 2), ("b".to_owned(), 4)]);
        assert_eq!(buf.pairs, 0);
        assert!(buf.sort_and_combine(&WordCount).is_empty());
    }
}
