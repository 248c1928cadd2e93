//! The MapReduce workloads: paper WordCount and paper Sort over
//! generated Wikipedia-style text, through `Engine::run`.

use crate::report::Report;
use crate::stats::{median_of, tail_percentile, Samples};
use crate::{drive, finish, peak_rss_mb, setup, Ctx, Phase, Unit};
use bdb_archsim::Probe;
use bdb_datagen::text::TextGenerator;
use bdb_mapreduce::{Emitter, Engine, Job, JobStats};
use std::collections::HashMap;

/// WordCount input: a job lasts about a fifth of a second, so a run
/// samples many jobs.
const WORDCOUNT_BYTES: usize = 4 << 20;
/// Sort input: each of the two map tasks holds 2.5 sort buffers, so it
/// spills twice and keeps half a buffer in memory, away from the
/// threshold where a slightly different input would spill once more.
const SORT_BYTES: usize = 20 << 20;
/// The Sort sort-buffer budget the core suite uses (paper Figure 3-2).
const SORT_BUFFER_BYTES: usize = 4 << 20;
/// Untimed jobs before sampling: the first jobs in a process run slow.
const WARMUP_JOBS: usize = 2;
/// Timed jobs at least, whatever `--seconds` says.
const MIN_JOBS: usize = 5;

/// Paper WordCount: split on whitespace, trim `.`, sum combiner and
/// reducer.
struct WordCount;

impl Job for WordCount {
    type Input = String;
    type Key = String;
    type Value = u64;
    type Output = (String, u64);

    fn map<P: Probe + ?Sized>(&self, line: &String, emit: &mut Emitter<String, u64>, _: &mut P) {
        for w in line.split_whitespace() {
            emit.emit(w.trim_matches('.').to_owned(), 1);
        }
    }

    fn combine(&self, _: &String, values: Vec<u64>) -> Vec<u64> {
        vec![values.into_iter().sum()]
    }

    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<u64>,
        out: &mut Vec<(String, u64)>,
        _: &mut P,
    ) {
        out.push((key, values.into_iter().sum()));
    }
}

/// Paper Sort: identity map, no combiner, one output per record.
struct Sort;

impl Job for Sort {
    type Input = String;
    type Key = String;
    type Value = ();
    type Output = String;

    fn map<P: Probe + ?Sized>(&self, line: &String, emit: &mut Emitter<String, ()>, _: &mut P) {
        emit.emit(line.clone(), ());
    }

    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<()>,
        out: &mut Vec<String>,
        _: &mut P,
    ) {
        out.extend(values.iter().map(|()| key.clone()));
    }
}

/// Generated input text: one record per line.
struct Corpus {
    lines: Vec<String>,
    bytes: u64,
}

/// Generates the corpus (the set-up) and reports its times.
fn corpus(ctx: &mut Ctx, bytes: usize, report: &mut Report) -> Corpus {
    let seed = ctx.seed;
    let mut gen_ms = Samples::default();
    let (lines, setup_s, reps) = setup(ctx, |t, _| {
        let (lines, d) = t.time("datagen.text", |_| {
            let text = TextGenerator::wikipedia(seed).corpus(bytes);
            text.lines().map(str::to_owned).collect::<Vec<_>>()
        });
        gen_ms.push(d.as_secs_f64() * 1e3);
        lines
    });
    report.set("setup_s", setup_s, reps);
    report.set("datagen.text_ms", gen_ms.median(), reps);
    let bytes = lines.iter().map(|l| l.len() as u64 + 1).sum();
    Corpus { lines, bytes }
}

/// Per-job figures from traced jobs, as medians.
#[derive(Default)]
struct JobFigures {
    run_ms: Vec<f64>,
    coverage: Vec<f64>,
    stats: Vec<JobStats>,
}

impl JobFigures {
    fn median(&self, f: impl Fn(&JobStats) -> f64) -> f64 {
        median_of(&self.stats.iter().map(f).collect::<Vec<_>>())
    }

    fn report(&self, report: &mut Report) {
        let n = self.stats.len();
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let mb = |b: u64| b as f64 / 1e6;
        report.set("mapreduce.run_ms", median_of(&self.run_ms), n);
        report.set("mapreduce.phase_coverage", median_of(&self.coverage), n);
        report.set("mapreduce.map_ms", self.median(|s| ms(s.map_time)), n);
        report.set("mapreduce.sort_ms", self.median(|s| ms(s.sort_time)), n);
        report.set("mapreduce.spill_ms", self.median(|s| ms(s.spill_time)), n);
        report.set("mapreduce.reduce_ms", self.median(|s| ms(s.reduce_time)), n);
        report.set("mapreduce.merge_ms", self.median(|s| ms(s.merge_time)), n);
        report.set("mapreduce.map_output_pairs", self.median(|s| s.map_output_pairs as f64), n);
        report.set("mapreduce.combined_pairs", self.median(|s| s.combined_pairs as f64), n);
        report.set(
            "mapreduce.combine_ratio",
            self.median(|s| s.combined_pairs as f64 / s.map_output_pairs.max(1) as f64),
            n,
        );
        report.set("mapreduce.reduce_skew", self.median(JobStats::reduce_skew), n);
        report.set("mapreduce.spills", self.median(|s| s.spills as f64), n);
        report.set("mapreduce.spill_mb", self.median(|s| mb(s.spill_bytes)), n);
        report.set("mapreduce.shuffle_mb", self.median(|s| mb(s.shuffle_bytes)), n);
    }
}

/// Runs `job` over the corpus repeatedly; `check` judges each output.
fn run_jobs<J: Job<Input = String>>(
    ctx: &mut Ctx,
    corpus: &Corpus,
    engine: &Engine,
    job: &J,
    mut check: impl FnMut(&[J::Output]) -> bool,
    report: &mut Report,
) {
    let mut figures = JobFigures::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut timing = drive(ctx, WARMUP_JOBS, MIN_JOBS, |t, phase| {
        let (result, wall) = t.time("mapreduce.run", |_| engine.try_run(job, &corpus.lines));
        let peak_mb = peak_rss_mb();
        let ok = match &result {
            Ok((out, stats)) => {
                if phase == Phase::Traced {
                    figures.run_ms.push(wall.as_secs_f64() * 1e3);
                    figures.coverage.push(stats.total_time().as_secs_f64() / wall.as_secs_f64());
                    figures.stats.push(stats.clone());
                }
                check(out)
            }
            Err(e) => {
                eprintln!("wallbench: job failed: {e}");
                false
            }
        };
        if phase != Phase::Warmup {
            attempted += 1;
            failed += u64::from(!ok);
        }
        Unit {
            secs: wall.as_secs_f64(),
            peak_mb,
            bytes: corpus.bytes as f64,
            ops: corpus.lines.len() as f64,
        }
    });
    report.attempted = attempted;
    report.failed = failed;
    let jobs = &mut timing.untraced;
    let n = jobs.len();
    report.set("latency_ms_p50", jobs.median() * 1e3, n);
    if let Some(p) = tail_percentile(n).filter(|&p| p > 50.0) {
        report.detail(format!("job_ms_p{p}"), jobs.percentile(p) * 1e3, "ms", n);
    }
    figures.report(report);
    finish(ctx, &mut timing, report);
}

fn context(report: &mut Report, corpus: &Corpus, engine: &Engine, buffer: usize) {
    report.context.push(format!(
        "input {} bytes in {} lines; {} threads, {} reducers, {} MiB map buffer",
        corpus.bytes,
        corpus.lines.len(),
        engine.threads(),
        engine.reducers(),
        buffer >> 20
    ));
}

fn engine(ctx: &Ctx, buffer: usize) -> Engine {
    Engine::builder()
        .threads(ctx.threads)
        .map_buffer_bytes(buffer)
        .spill_dir(ctx.dir.clone())
        .build()
}

/// The `wordcount` workload.
pub fn wordcount(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let corpus = corpus(ctx, WORDCOUNT_BYTES, &mut report);
    // The reference counts, built once outside every timing.
    let mut expected: HashMap<&str, u64> = HashMap::new();
    let mut tokens = 0u64;
    for w in corpus.lines.iter().flat_map(|l| l.split_whitespace()) {
        *expected.entry(w.trim_matches('.')).or_default() += 1;
        tokens += 1;
    }
    let buffer = 64 << 20;
    let engine = engine(ctx, buffer);
    context(&mut report, &corpus, &engine, buffer);
    report.context.push(format!("{tokens} tokens, {} distinct words", expected.len()));
    let check = |out: &[(String, u64)]| {
        out.len() == expected.len()
            && out.iter().map(|(_, c)| c).sum::<u64>() == tokens
            && out.iter().all(|(w, c)| expected.get(w.as_str()) == Some(c))
    };
    run_jobs(ctx, &corpus, &engine, &WordCount, check, &mut report);
    report
}

/// The `sort-spill` workload.
pub fn sort_spill(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let corpus = corpus(ctx, SORT_BYTES, &mut report);
    let mut expected = corpus.lines.clone();
    expected.sort_unstable();
    let engine = engine(ctx, SORT_BUFFER_BYTES);
    context(&mut report, &corpus, &engine, SORT_BUFFER_BYTES);
    let reducers = engine.reducers();
    // Output comes partition by partition, each in key order: at most
    // one descent between partitions, and the same multiset of lines.
    let check = |out: &[String]| {
        let descents = out.windows(2).filter(|w| w[1] < w[0]).count();
        let mut sorted = out.to_vec();
        sorted.sort_unstable();
        descents < reducers && sorted == expected
    };
    run_jobs(ctx, &corpus, &engine, &Sort, check, &mut report);
    report
}
