//! Wall-clock benchmark of the MapReduce, LSM-store and columnar-query
//! engines. See `README.md` next to this crate for the workloads and
//! metrics.
//!
//! ```text
//! wallbench --workload <wordcount|sort-spill|oltp-mixed|query> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric, then the result as one JSON line.

mod mr;
mod oltp;
mod query;
mod report;
mod stats;
mod trace;

use report::Report;
use stats::Samples;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str = "usage: wallbench --workload <wordcount|sort-spill|oltp-mixed|query> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Root of everything a run writes, relative to the working directory.
const OUT_DIR: &str = ".wallbench";

/// One run's settings and shared state.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Wall time to sample for, after set-up and warm-up.
    pub seconds: Duration,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
    /// This run's private working directory (spill files, the store).
    pub dir: PathBuf,
    /// Span recorder around every call into an engine.
    pub tracer: Tracer,
    /// Worker threads the engines may use.
    pub threads: usize,
}

/// Where a measured unit runs in the sampling schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untimed, before sampling.
    Warmup,
    /// Timed with span recording off.
    Untraced,
    /// Timed with span recording on (traced runs only).
    Traced,
}

/// What one measured unit reports back to [`drive`].
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// The unit's measured time in seconds, excluding its output checks.
    pub secs: f64,
    /// Peak resident memory during the unit's engine calls, in MB.
    pub peak_mb: f64,
    /// Input bytes the unit processed (or moved, for store operations).
    pub bytes: f64,
    /// User operations the unit completed (records, queries, store
    /// operations).
    pub ops: f64,
}

/// Unit samples collected by [`drive`]: raw wall times of the units
/// that ran without hypervisor steal (see [`drive`]).
#[derive(Debug, Default)]
pub struct Timing {
    /// Times of units run with tracing off, in seconds.
    pub untraced: Samples,
    /// Times of units run with tracing on, in seconds.
    pub traced: Samples,
    /// Peak resident memory of units run with tracing off, in MB.
    pub peak_mb: Samples,
    /// Throughput of units run with tracing off, in MB/s.
    pub mb_s: Samples,
    /// Operations per second of units run with tracing off.
    pub ops_s: Samples,
    /// Share of the machine's CPU time the hypervisor stole while units
    /// ran.
    pub steal_share: f64,
    /// Timed units left out of the samples because of steal.
    pub discarded: usize,
}

/// The system's stolen CPU time so far, in clock ticks, and its CPU
/// count, from `/proc/stat` (zeros where there is none).
fn steal_ticks() -> (u64, usize) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7)?.parse().ok())
        .unwrap_or(0);
    let cpus = stat.lines().filter(|l| l.starts_with("cpu") && !l.starts_with("cpu ")).count();
    (steal, cpus)
}

/// Clock ticks per second in `/proc/stat` (`USER_HZ`).
const TICKS_PER_SEC: f64 = 100.0;

/// A unit is left out of the samples when the hypervisor stole more
/// than this many CPU-seconds per second of its wall time.
const STEAL_LIMIT: f64 = 0.1;

/// Runs `warmup` untimed units, then timed units until `ctx.seconds`
/// of wall time have passed (and at least `min_units` ran). In a traced
/// run every second timed unit is traced, so both halves see the same
/// drift. Before each unit the heap is trimmed and the peak-memory mark
/// reset.
///
/// On a virtual machine the hypervisor may take CPU time away from the
/// guest ("steal"); on a shared 2-vCPU host this slowed whole runs by a
/// third for a minute at a time. Times are never rescaled: a unit during
/// which more than one clock tick and more than [`STEAL_LIMIT`] was
/// stolen (`/proc/stat`, all CPUs) is left out of the samples, unless
/// fewer than `min_units` units ran without, in which case every unit is
/// kept.
pub fn drive(
    ctx: &mut Ctx,
    warmup: usize,
    min_units: usize,
    mut unit: impl FnMut(&mut Tracer, Phase) -> Unit,
) -> Timing {
    for _ in 0..warmup {
        unit(&mut ctx.tracer, Phase::Warmup);
    }
    let (mut stolen, mut capacity) = (0.0, 0.0);
    let mut units = Vec::new();
    let mut clean = 0usize;
    let start = Instant::now();
    let mut i = 0usize;
    while i < min_units || start.elapsed() < ctx.seconds {
        let phase = if ctx.traced && i % 2 == 1 { Phase::Traced } else { Phase::Untraced };
        ctx.tracer.set_enabled(phase == Phase::Traced);
        trim_heap();
        reset_peak_rss();
        let (steal0, cpus) = steal_ticks();
        let (u, wall) = ctx.tracer.time("bench.unit", |t| unit(t, phase));
        let ticks = steal_ticks().0.saturating_sub(steal0);
        ctx.tracer.set_enabled(false);
        let unit_stolen = ticks as f64 / TICKS_PER_SEC;
        stolen += unit_stolen;
        capacity += wall.as_secs_f64() * cpus.max(1) as f64;
        // The counter moves in whole ticks, so one tick may be rounding.
        let ok = ticks <= 1 || unit_stolen <= STEAL_LIMIT * wall.as_secs_f64();
        clean += usize::from(ok);
        units.push((phase, u, ok));
        i += 1;
    }
    let keep_all = clean < min_units;
    let mut timing = Timing::default();
    for (phase, u, ok) in units {
        if !(ok || keep_all) {
            timing.discarded += 1;
        } else if phase == Phase::Traced {
            timing.traced.push(u.secs);
        } else {
            timing.untraced.push(u.secs);
            timing.peak_mb.push(u.peak_mb);
            timing.mb_s.push(u.bytes / 1e6 / u.secs);
            timing.ops_s.push(u.ops / u.secs);
        }
    }
    timing.steal_share = if capacity > 0.0 { stolen / capacity } else { 0.0 };
    timing
}

/// Runs `f` once per set-up repetition with span recording on in traced
/// runs, and returns the last result with the median set-up time.
pub fn setup<T>(ctx: &mut Ctx, mut f: impl FnMut(&mut Tracer, usize) -> T) -> (T, f64, usize) {
    let mut times = Samples::default();
    let mut last = None;
    ctx.tracer.set_enabled(ctx.traced);
    for rep in 0..SETUP_REPS {
        // Drop the previous inputs first so repetitions do not stack up
        // in peak memory.
        drop(last.take());
        let (v, d) = ctx.tracer.time("bench.setup", |t| f(t, rep));
        times.push(d.as_secs_f64());
        last = Some(v);
    }
    ctx.tracer.set_enabled(false);
    (last.expect("at least one set-up"), times.median(), times.len())
}

/// Adds the metrics every workload reports the same way: peak memory,
/// throughput (medians over units), the steal share and the units left
/// out for it, and in traced runs the harness metrics.
pub fn finish(ctx: &Ctx, timing: &mut Timing, report: &mut Report) {
    let n = timing.untraced.len();
    report.set("peak_rss_mb", timing.peak_mb.median(), n);
    report.set("dps_mb_s", timing.mb_s.median(), n);
    report.set("ops_s", timing.ops_s.median(), n);
    let all = n + timing.traced.len() + timing.discarded;
    report.detail("steal_share", timing.steal_share, "ratio", all);
    report.detail("steal_discarded_units", timing.discarded as f64, "count", all);
    if !ctx.traced {
        return;
    }
    let untraced = timing.untraced.median();
    if untraced > 0.0 {
        report.set(
            "bench.trace_overhead",
            timing.traced.median() / untraced,
            timing.traced.len() + timing.untraced.len(),
        );
    }
    let unit = ctx.tracer.totals("bench.unit");
    report.set("bench.unit_self_ms", unit.mean_self_ms(), unit.count as usize);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A directory owned by this run alone: created fresh (never reused,
/// even if another run picked the same name) and removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create(parent: &Path, stem: &str) -> std::io::Result<Self> {
        std::fs::create_dir_all(parent)?;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        for n in 0.. {
            let dir = parent.join(format!("{stem}-{nanos}-{n}"));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(Self(dir)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        unreachable!("an unused directory name exists")
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`], in MB (`VmHWM`; 0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Resets the peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mb`] reads the peak of what runs in between. This writes
/// only this process's own `/proc/self/clear_refs`; where that is
/// refused the mark keeps the whole-process peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Fixes glibc's mmap threshold at its 128 KiB default, which turns off
/// its dynamic threshold. With the dynamic threshold on, whether large
/// buffers are reused from the heap or mapped afresh for every job
/// depends on the order of the first frees, and a process settled into
/// either mode: `sort-spill` then ran at about 400 or about 550 MB/s,
/// and peak memory moved with it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_malloc_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only adjusts allocator parameters; it is called
    // before this process starts any other thread, and the value is a
    // valid threshold.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_malloc_mmap_threshold() {}

/// Returns the heap's free memory to the system, so a unit starts with
/// only live data resident. Without it, how much freed memory glibc
/// kept after a unit depended on where the last small allocations
/// landed: `query` then peaked at 167 to 266 MB per process, and ran
/// faster when more was kept, since the next round took fewer page
/// faults.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases free heap memory; it takes the
    // allocator's own locks.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// The commit being measured: the working directory's `.git/HEAD` when
/// it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| "unknown".to_owned(), |c| c.trim().to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let run_fn: fn(&mut Ctx) -> Report = match args.workload.as_str() {
        "wordcount" => mr::wordcount,
        "sort-spill" => mr::sort_spill,
        "oltp-mixed" => oltp::run,
        "query" => query::run,
        other => return Err(format!("unknown workload {other}")),
    };
    let out = Path::new(OUT_DIR);
    let dir = RunDir::create(&out.join("runs"), &format!("{}-{}", args.workload, args.seed))
        .map_err(|e| format!("cannot create a run directory under {OUT_DIR}: {e}"))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        traced: args.trace,
        dir: dir.0.clone(),
        tracer: Tracer::new(),
        threads,
    };
    let mut report = run_fn(&mut ctx);
    report.context.insert(
        0,
        format!(
            "wallbench workload={} seed={} seconds={} trace={} nproc={threads} commit={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            commit()
        ),
    );
    if args.trace {
        let path = out.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        ctx.tracer
            .write_chrome_trace(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report.context.push(format!("spans written to {}", path.display()));
    }
    drop(dir);
    Ok(report)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    fix_malloc_mmap_threshold();
    match run(&args) {
        Ok(report) => {
            print!("{}", report.render_text(args.trace));
            println!("{}", report.render_json(args.trace));
        }
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(1);
        }
    }
}
