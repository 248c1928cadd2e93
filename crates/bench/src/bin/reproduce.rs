//! Regenerates every table and figure of the BigDataBench paper's
//! evaluation section.
//!
//! ```text
//! reproduce [--all] [--table2] [--table3] [--table4] [--table5] [--table6]
//!           [--fig2] [--fig3] [--fig4] [--fig5] [--fig6] [--checks]
//!           [--fraction F] [--json DIR] [--trace DIR] [--profile DIR]
//!           [--charmap DIR] [--charmap-baseline PATH]
//! ```
//!
//! `--fraction` shrinks the library-scale inputs (default 0.25 — a full
//! `--all` run finishes in a few minutes). `--json DIR` additionally
//! dumps each artifact as JSON for EXPERIMENTS.md bookkeeping.
//! `--trace DIR` runs an instrumented pass of representative workloads
//! and writes one Chrome trace-event JSON (loadable in the Perfetto UI
//! / `chrome://tracing`) plus a plain-text metrics summary per workload.
//! `--profile DIR` analyzes that same pass post hoc, writing per
//! workload a collapsed-stack flamegraph (`.folded`), a critical-path
//! report with per-phase blame (`.critpath.txt`) and a worker
//! utilization timeline (`.util.txt`). `--slo DIR` runs the serving
//! workloads through the online observability pipeline (steady plus
//! shaped overload) and writes `slo_report.json` plus per-service
//! dashboards, Prometheus expositions and chain traces.

use bdb_archsim::Probe;
use bdb_bench::paper;
use bdb_bench::table::{fnum, TextTable};
use bdb_mapreduce::{Emitter, Job};
use bdb_telemetry::json::ObjectWriter;
use bdb_telemetry::TraceSession;
use bigdatabench::characterize::{self, Fig3Row};
use bigdatabench::{MachineConfig, Suite, WorkloadId};

#[derive(Debug, Default)]
struct Args {
    table2: bool,
    table3: bool,
    table4: bool,
    table5: bool,
    table6: bool,
    fig2: bool,
    fig3: bool,
    fig4: bool,
    fig5: bool,
    fig6: bool,
    checks: bool,
    fraction: f64,
    json_dir: Option<std::path::PathBuf>,
    trace_dir: Option<std::path::PathBuf>,
    profile_dir: Option<std::path::PathBuf>,
    bench_json: Option<std::path::PathBuf>,
    bench_baseline: Option<std::path::PathBuf>,
    bench_tolerance: f64,
    bench_subset: Option<std::path::PathBuf>,
    charmap_dir: Option<std::path::PathBuf>,
    charmap_baseline: Option<std::path::PathBuf>,
    faults_seed: Option<u64>,
    slo_dir: Option<std::path::PathBuf>,
    chaos_seed: Option<u64>,
    chaos_dir: Option<std::path::PathBuf>,
    tsdb_dir: Option<std::path::PathBuf>,
}

const USAGE: &str = "\
reproduce — regenerate the BigDataBench paper's tables and figures

usage: reproduce [SELECTION...] [OPTIONS...]

selection (default: everything):
  --all                  every table, figure and shape check
  --table2..--table6     individual tables
  --fig2..--fig6         individual figures
  --checks               shape checks vs the paper's headline claims

options:
  --fraction F           scale library inputs by F (default 0.25)
  --json DIR             dump each artifact as JSON into DIR
  --trace DIR            instrumented pass: Chrome trace + metrics +
                         Prometheus text exposition per workload
  --profile DIR          profile the instrumented pass: per workload,
                         write <w>.folded (collapsed stacks for
                         inferno/flamegraph.pl/speedscope),
                         <w>.critpath.txt (critical path + phase blame)
                         and <w>.util.txt (worker utilization), and add
                         a busy-workers counter track to the trace;
                         traces land in --trace DIR when given, else DIR
  --bench-json PATH      write the versioned BENCH_RESULTS.json
                         performance artifact to PATH
  --bench-baseline PATH  compare this run against a committed
                         BENCH_RESULTS.json; exit 1 on regression
  --bench-tolerance PCT  allowed drift per gated metric (default 2.0)
  --bench-subset PATH    with --bench-baseline: gate only the
                         representative workloads listed in the
                         committed charmap.json at PATH (the ci.sh
                         --subset fast tier)
  --charmap DIR          workload characterization map: metric vectors
                         -> PCA -> clustered subset; writes DIR/
                         charmap.txt and DIR/charmap.json, exit 1 if
                         the retained variance misses the target
  --charmap-baseline PATH  validate this run's map against a committed
                         charmap.json under the subset stability rule
                         (same k, exactly one committed representative
                         per fresh cluster); exit 1 on drift
  --faults SEED          fault-injection smoke: run WordCount with an
                         injected spill-write error, map-task panic and
                         straggler; exit 1 unless the output is
                         byte-identical to the fault-free run
  --slo DIR              online observability pass over the serving
                         workloads: steady + shaped-overload phases
                         through the SLO/error-budget engine; writes
                         DIR/slo_report.json plus per service
                         <w>.dash.txt, <w>.slo.prom.txt (Prometheus
                         text with exemplar trace ids) and
                         <w>.slo.trace.json (linked request chains +
                         window counter tracks); the overload phase
                         must fire exactly one page burn-rate alert,
                         deterministically. With --bench-subset, only
                         the representative serving workload runs.
  --chaos SEED DIR       deterministic chaos campaigns: the replicated
                         Cloud-OLTP store (lost ships, torn WAL writes,
                         virtual-time node kills -> failover, read
                         repair, anti-entropy), WordCount under
                         rotating fault mixes, and an overloaded
                         serving tier — each judged by invariant
                         checkers (history safety, replica convergence,
                         byte-identical output, tail-sampled failures);
                         writes DIR/chaos_report.json (byte-identical
                         across runs for a seed) and a Chrome trace of
                         lifecycle instants per campaign
                         (<c>.chaos.trace.json); exit 1 on any checker
                         failure or if the Cloud-OLTP campaign forced
                         no failover or no read-repair.
                         With --bench-subset, runs shortened campaigns.
  --tsdb DIR             embedded time-series pass: run an OLTP chaos
                         round with traced writes plus a shaped serving
                         overload, scrape every node's metrics registry
                         into the bdb-tsdb store throughout, replay the
                         stored series through the burn-rate rules and
                         cross-check quantiles against the live window
                         ring; writes DIR/tsdb_snapshot.bin (byte-
                         deterministic for a seed), per node
                         node-<n>.dash.txt sparkline dashboards and
                         timeline.txt (failover events + reconstructed
                         write span chains); exit 1 if any traced chain
                         is causally incomplete, the stored p99 drifts
                         more than one histogram bucket from the live
                         value, or replayed alerts diverge. With
                         --bench-subset, runs a shortened scrape.
  -h, --help             this text

`--trace`/`--profile`/`--bench-json`/`--bench-baseline`/`--charmap`/
`--charmap-baseline`/`--faults`/`--slo`/`--chaos`/`--tsdb` without a
selection run only that pass.";

/// What the next raw argument is expected to be. The parser is a
/// two-state machine: flags, or the value owed to the previous flag.
enum Expecting {
    Flag,
    Value(&'static str),
    /// The seed owed to `--chaos` (which takes two values).
    ChaosSeed,
    /// The directory owed to `--chaos SEED`.
    ChaosDir,
}

fn parse_args() -> Args {
    let mut args = Args { fraction: 0.25, bench_tolerance: 2.0, ..Default::default() };
    let mut selected = false;
    let mut state = Expecting::Flag;
    for raw in std::env::args().skip(1) {
        match state {
            Expecting::Value(flag) => {
                apply_value(&mut args, flag, &raw);
                state = Expecting::Flag;
            }
            Expecting::ChaosSeed => {
                args.chaos_seed = Some(
                    raw.parse().unwrap_or_else(|_| usage_error("--chaos needs an integer seed")),
                );
                state = Expecting::ChaosDir;
            }
            Expecting::ChaosDir => {
                args.chaos_dir = Some(raw.into());
                state = Expecting::Flag;
            }
            Expecting::Flag => match raw.as_str() {
                "--all" => {
                    select_everything(&mut args);
                    selected = true;
                }
                "--table2" => (args.table2, selected) = (true, true),
                "--table3" => (args.table3, selected) = (true, true),
                "--table4" => (args.table4, selected) = (true, true),
                "--table5" => (args.table5, selected) = (true, true),
                "--table6" => (args.table6, selected) = (true, true),
                "--fig2" => (args.fig2, selected) = (true, true),
                "--fig3" => (args.fig3, selected) = (true, true),
                "--fig4" => (args.fig4, selected) = (true, true),
                "--fig5" => (args.fig5, selected) = (true, true),
                "--fig6" => (args.fig6, selected) = (true, true),
                "--checks" => (args.checks, selected) = (true, true),
                "--fraction" => state = Expecting::Value("--fraction"),
                "--json" => state = Expecting::Value("--json"),
                "--trace" => state = Expecting::Value("--trace"),
                "--profile" => state = Expecting::Value("--profile"),
                "--bench-json" => state = Expecting::Value("--bench-json"),
                "--bench-baseline" => state = Expecting::Value("--bench-baseline"),
                "--bench-tolerance" => state = Expecting::Value("--bench-tolerance"),
                "--bench-subset" => state = Expecting::Value("--bench-subset"),
                "--charmap" => state = Expecting::Value("--charmap"),
                "--charmap-baseline" => state = Expecting::Value("--charmap-baseline"),
                "--faults" => state = Expecting::Value("--faults"),
                "--slo" => state = Expecting::Value("--slo"),
                "--chaos" => state = Expecting::ChaosSeed,
                "--tsdb" => state = Expecting::Value("--tsdb"),
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => usage_error(&format!("unknown argument `{other}`")),
            },
        }
    }
    match state {
        Expecting::Flag => {}
        Expecting::Value(flag) => usage_error(&format!("{flag} needs a value")),
        Expecting::ChaosSeed | Expecting::ChaosDir => {
            usage_error("--chaos needs a seed and a directory (`--chaos SEED DIR`)")
        }
    }
    if args.bench_subset.is_some() && args.bench_baseline.is_none() {
        usage_error("--bench-subset requires --bench-baseline");
    }
    let side_pass = args.trace_dir.is_some()
        || args.profile_dir.is_some()
        || args.bench_json.is_some()
        || args.bench_baseline.is_some()
        || args.charmap_dir.is_some()
        || args.charmap_baseline.is_some()
        || args.faults_seed.is_some()
        || args.slo_dir.is_some()
        || args.chaos_seed.is_some()
        || args.tsdb_dir.is_some();
    if !selected && !side_pass {
        select_everything(&mut args);
    }
    args
}

fn apply_value(args: &mut Args, flag: &str, value: &str) {
    match flag {
        "--fraction" => {
            args.fraction = value
                .parse()
                .ok()
                .filter(|f| *f > 0.0)
                .unwrap_or_else(|| usage_error("--fraction needs a positive number"));
        }
        "--json" => args.json_dir = Some(value.into()),
        "--trace" => args.trace_dir = Some(value.into()),
        "--profile" => args.profile_dir = Some(value.into()),
        "--bench-json" => args.bench_json = Some(value.into()),
        "--bench-baseline" => args.bench_baseline = Some(value.into()),
        "--bench-tolerance" => {
            args.bench_tolerance = value
                .parse()
                .ok()
                .filter(|t| *t >= 0.0)
                .unwrap_or_else(|| usage_error("--bench-tolerance needs a percentage >= 0"));
        }
        "--bench-subset" => args.bench_subset = Some(value.into()),
        "--charmap" => args.charmap_dir = Some(value.into()),
        "--charmap-baseline" => args.charmap_baseline = Some(value.into()),
        "--faults" => {
            args.faults_seed = Some(
                value.parse().unwrap_or_else(|_| usage_error("--faults needs an integer seed")),
            );
        }
        "--slo" => args.slo_dir = Some(value.into()),
        "--tsdb" => args.tsdb_dir = Some(value.into()),
        _ => unreachable!("values are only owed to known flags"),
    }
}

fn select_everything(args: &mut Args) {
    args.table2 = true;
    args.table3 = true;
    args.table4 = true;
    args.table5 = true;
    args.table6 = true;
    args.fig2 = true;
    args.fig3 = true;
    args.fig4 = true;
    args.fig5 = true;
    args.fig6 = true;
    args.checks = true;
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Writes `rows` to `DIR/NAME.json` as an array of objects, one per
/// row, with `fields` filling each object.
fn save_json<T>(
    dir: &Option<std::path::PathBuf>,
    name: &str,
    rows: &[T],
    fields: impl Fn(&mut ObjectWriter<'_>, &T),
) {
    if let Some(dir) = dir {
        let mut out = String::from("[");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            let mut o = ObjectWriter::new(&mut out);
            fields(&mut o, row);
            o.finish();
        }
        out.push_str("\n]\n");
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, out).expect("write json");
        eprintln!("  wrote {}", path.display());
    }
}

/// Writes a figure value; JSON has no literal for `inf`/`NaN` (Figure
/// 4's int:fp ratio without FP work), so those become `null`.
fn field_num(o: &mut ObjectWriter<'_>, key: &str, v: f64) {
    if v.is_finite() {
        o.field_f64(key, v);
    } else {
        o.field_raw(key).push_str("null");
    }
}

fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

fn table2() {
    section("Table 2 — real-world seed data sets");
    let mut t = TextTable::new(&["No", "data set", "type", "source", "size", "used by"]);
    for (i, s) in bdb_datagen::SEED_DATASETS.iter().enumerate() {
        t.row(&[
            (i + 1).to_string(),
            s.kind.to_string(),
            format!("{:?}", s.data_type),
            format!("{:?}", s.source),
            s.size_description.to_owned(),
            s.used_by.join(", "),
        ]);
    }
    println!("{}", t.render());
}

fn table3() {
    section("Table 3 — e-commerce transaction schema (live from generator)");
    let suite = Suite::quick();
    let (orders, items) = bigdatabench::workloads::query::build_tables(&suite.scale(1), 100);
    for table in [&orders, &items] {
        println!("{}:", table.name().to_uppercase());
        for name in table.schema().names() {
            let (idx, ty) = table.schema().resolve(name).expect("own column");
            println!("  {name:<14} {:?} (col {idx})", ty);
        }
        println!("  [{} rows generated at demo scale]\n", table.len());
    }
}

fn table4() {
    section("Table 4 — the BigDataBench suite");
    let mut t = TextTable::new(&["scenario", "workload", "type", "paper stack", "our substrate"]);
    for id in WorkloadId::ALL {
        let substrate = match id.paper_stack() {
            "Hadoop (Nutch)" => "bdb-serving (search)",
            "Hadoop" => "bdb-mapreduce",
            "MPI" => "bdb-graph (partitioned)",
            "HBase" => "bdb-kvstore (LSM)",
            "Hive" => "bdb-sql",
            "MySQL" => "bdb-serving",
            other => other,
        };
        t.row(&[
            id.scenario(),
            id.name(),
            &id.application_type().to_string(),
            id.paper_stack(),
            substrate,
        ]);
    }
    println!("{}", t.render());
}

fn table5() {
    section("Tables 5 & 7 — simulated processor configurations");
    for cfg in [MachineConfig::xeon_e5645(), MachineConfig::xeon_e5310()] {
        println!("{}: {} cores @ {:.2} GHz", cfg.name, cfg.cores, cfg.freq_mhz as f64 / 1000.0);
        println!(
            "  L1I/L1D {} KiB {}-way | L2 {} KiB {}-way | L3 {}",
            cfg.l1i.capacity / 1024,
            cfg.l1i.associativity,
            cfg.l2.capacity / 1024,
            cfg.l2.associativity,
            cfg.l3
                .as_ref()
                .map(|l3| format!("{} MiB {}-way", l3.capacity / (1024 * 1024), l3.associativity))
                .unwrap_or_else(|| "none".to_owned()),
        );
        println!(
            "  ITLB {}x{}-way, DTLB {}x{}-way, 4 KiB pages\n",
            cfg.itlb.entries, cfg.itlb.associativity, cfg.dtlb.entries, cfg.dtlb.associativity
        );
    }
}

fn table6() {
    section("Table 6 — workloads and inputs");
    let mut t = TextTable::new(&["ID", "workload", "stack", "paper input", "library baseline"]);
    for (i, id) in WorkloadId::ALL.iter().enumerate() {
        let lib = match id {
            WorkloadId::Sort | WorkloadId::Grep | WorkloadId::WordCount => "1 MiB text x (1..32)",
            WorkloadId::Bfs => "2^15 vertices x (1..32)",
            WorkloadId::Read | WorkloadId::Write | WorkloadId::Scan => "20k ops x (1..32)",
            WorkloadId::SelectQuery | WorkloadId::AggregateQuery | WorkloadId::JoinQuery => {
                "8k orders x (1..32)"
            }
            WorkloadId::NutchServer | WorkloadId::OlioServer | WorkloadId::RubisServer => {
                "100 req/s x (1..32)"
            }
            WorkloadId::PageRank | WorkloadId::Index => "4000 pages x (1..32)",
            WorkloadId::KMeans => "40k points x (1..32)",
            WorkloadId::ConnectedComponents => "2^15 vertices x (1..32)",
            WorkloadId::CollaborativeFiltering | WorkloadId::NaiveBayes => "4k reviews x (1..32)",
        };
        t.row(&[
            (i + 1).to_string(),
            id.name().to_owned(),
            id.paper_stack().to_owned(),
            id.paper_input().to_owned(),
            lib.to_owned(),
        ]);
    }
    println!("{}", t.render());
}

fn print_fig3(rows: &[Fig3Row]) {
    section("Figure 3-1 — MIPS with data scale (timing model)");
    let mut t = TextTable::new(&["workload", "Baseline", "4X", "8X", "16X", "32X"]);
    for id in WorkloadId::ALL {
        let vals: Vec<String> =
            rows.iter().filter(|r| r.workload == id.name()).map(|r| fnum(r.mips)).collect();
        let mut cells = vec![id.name().to_owned()];
        cells.extend(vals);
        t.row(&cells);
    }
    println!("{}", t.render());

    section("Figure 3-2 — speedup with data scale (native, normalized)");
    let mut t = TextTable::new(&["workload", "Baseline", "4X", "8X", "16X", "32X"]);
    for id in WorkloadId::ALL {
        let vals: Vec<String> = rows
            .iter()
            .filter(|r| r.workload == id.name())
            .map(|r| format!("{:.2}", r.speedup))
            .collect();
        let mut cells = vec![id.name().to_owned()];
        cells.extend(vals);
        t.row(&cells);
    }
    println!("{}", t.render());
}

/// WordCount job for the instrumented `--trace` pass.
struct TraceWordCount;
impl Job for TraceWordCount {
    type Input = String;
    type Key = String;
    type Value = u64;
    type Output = (String, u64);
    fn input_size(&self, line: &String) -> usize {
        line.len()
    }
    fn map<P: Probe + ?Sized>(&self, line: &String, emit: &mut Emitter<String, u64>, _p: &mut P) {
        for w in line.split_whitespace() {
            emit.emit(w.to_owned(), 1);
        }
    }
    fn combine(&self, _k: &String, values: Vec<u64>) -> Vec<u64> {
        vec![values.into_iter().sum()]
    }
    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<u64>,
        out: &mut Vec<(String, u64)>,
        _p: &mut P,
    ) {
        out.push((key, values.into_iter().sum()));
    }
}

/// TeraSort-style sort job for the instrumented `--trace` pass.
struct TraceSort;
impl Job for TraceSort {
    type Input = String;
    type Key = String;
    type Value = ();
    type Output = String;
    fn input_size(&self, line: &String) -> usize {
        line.len()
    }
    fn map<P: Probe + ?Sized>(&self, line: &String, emit: &mut Emitter<String, ()>, _p: &mut P) {
        emit.emit(line.clone(), ());
    }
    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<()>,
        out: &mut Vec<String>,
        _p: &mut P,
    ) {
        for _ in values {
            out.push(key.clone());
        }
    }
}

/// Writes one workload's profiling artifacts — `<stem>.folded`,
/// `<stem>.critpath.txt`, `<stem>.util.txt` — next to its trace.
fn write_profile(
    session: &TraceSession,
    dir: &std::path::Path,
) -> std::io::Result<bdb_profile::Profile> {
    std::fs::create_dir_all(dir)?;
    let profile = bdb_profile::Profile::from_events(&session.recorder.events());
    let stem = bdb_telemetry::file_stem(&session.name);
    std::fs::write(dir.join(format!("{stem}.folded")), profile.folded())?;
    std::fs::write(dir.join(format!("{stem}.critpath.txt")), profile.critpath_text())?;
    std::fs::write(dir.join(format!("{stem}.util.txt")), profile.util_text())?;
    Ok(profile)
}

/// Runs an instrumented pass of representative workloads, writing a
/// Chrome trace-event JSON + plain-text metrics summary per workload
/// into `trace_dir` (loadable at <https://ui.perfetto.dev>). With
/// `profile_dir`, each workload additionally gets profiling artifacts
/// (see [`write_profile`]) and a busy-workers counter track in its
/// trace; traces fall back to `profile_dir` when `--trace` was not
/// given.
fn trace_exports(
    suite: &Suite,
    fraction: f64,
    trace_dir: Option<&std::path::Path>,
    profile_dir: Option<&std::path::Path>,
) {
    use bdb_archsim::SimProbe;
    use bdb_graph::{label_propagation_instrumented, pagerank_instrumented, PageRankConfig};
    use bdb_kvstore::{Store, StoreConfig};
    use bdb_mapreduce::Engine;
    use bdb_mlkit::KMeans;
    use bdb_serving::loadgen::{run_closed_loop_sampled, PrometheusSampler};
    use bdb_serving::search::SearchServer;
    use bdb_sql::expr::{col, lit};
    use bdb_sql::kernel::{hash_join_instrumented, select_instrumented};
    use bdb_sql::ColumnarTable;

    section("Telemetry traces — Chrome trace JSON + metrics per workload");
    let dir = trace_dir.or(profile_dir).expect("trace_exports needs a destination");
    let f = fraction.max(0.05);
    // Exports one workload's trace (and, when profiling, its artifacts
    // + busy-workers counter track); returns the profile for callers
    // that gate on it.
    let export = |session: &TraceSession, detail: &str| -> Option<bdb_profile::Profile> {
        let profile = profile_dir.map(|pdir| {
            write_profile(session, pdir)
                .unwrap_or_else(|e| die(&format!("{}: profile export failed: {e}", session.name)))
        });
        let tracks: Vec<bdb_telemetry::CounterTrack> =
            profile.iter().map(bdb_profile::Profile::concurrency_track).collect();
        match session.write_with_tracks(dir, &tracks) {
            Ok((trace, _metrics)) => {
                println!("  {:<20} {detail}", session.name);
                println!("  {:<20} -> {}", "", trace.display());
            }
            Err(e) => eprintln!("  {}: trace export failed: {e}", session.name),
        }
        if let Some(p) = &profile {
            println!("  {:<20} {}", "", p.critical_summary().render());
        }
        profile
    };

    // MapReduce micro benchmarks: WordCount and Sort.
    let text_bytes = ((1_u64 << 20) as f64 * f) as usize;
    let mut text = bdb_datagen::text::TextGenerator::wikipedia(42);
    let lines: Vec<String> = text.corpus(text_bytes).lines().map(str::to_owned).collect();

    // Traced (simulated-counter) runs: the spans carry `counter.*`
    // deltas, which the Chrome exporter renders as counter tracks.
    let machine = MachineConfig::xeon_e5645();
    let session = TraceSession::enabled("WordCount");
    let engine = Engine::builder()
        .telemetry(session.recorder.clone())
        .metrics(session.metrics.clone())
        .build();
    let mut probe = SimProbe::new(machine.clone());
    let (_, stats) = engine.run_traced(&TraceWordCount, &lines, &mut probe);
    if let Some(cp) = &stats.critical_path {
        println!("  {:<20} job: {}", "", cp.render());
    }
    if let Some(profile) = export(&session, &stats.phase_breakdown()) {
        // Profiling contract, enforced in-binary so CI catches span
        // coverage regressions: the WordCount critical path must cover
        // ≥90% of wall-clock, and the blame table must partition it.
        let s = profile.critical_summary();
        if s.coverage < 0.90 {
            die(&format!(
                "WordCount critical path covers only {:.1}% of wall (need >= 90%): \
                 span coverage regressed",
                s.coverage * 100.0
            ));
        }
        let blamed: u64 = profile.critical.blame.iter().map(|(_, us)| *us).sum();
        let drift = blamed.abs_diff(profile.critical.path_us);
        if drift * 100 > profile.critical.path_us {
            die(&format!(
                "WordCount blame table sums to {blamed} us but the critical path is {} us",
                profile.critical.path_us
            ));
        }
    }

    let session = TraceSession::enabled("Sort");
    let engine = Engine::builder()
        .map_buffer_bytes(64 << 10) // spill so the trace shows the disk path
        .telemetry(session.recorder.clone())
        .metrics(session.metrics.clone())
        .build();
    let mut probe = SimProbe::new(machine);
    let (_, stats) = engine.run_traced(&TraceSort, &lines, &mut probe);
    if let Some(cp) = &stats.critical_path {
        println!("  {:<20} job: {}", "", cp.render());
    }
    export(&session, &stats.phase_breakdown());

    // Graph analytics: PageRank and Connected Components.
    let nodes = (((4_000_f64) * f) as u32).max(256);
    let g =
        bdb_datagen::GraphGenerator::new(bdb_datagen::RmatParams::google_web(), 11).generate(nodes);
    let graph = bdb_graph::CsrGraph::from_edges(g.nodes, &g.edges);

    let session = TraceSession::enabled("PageRank");
    let (_, iters) = pagerank_instrumented(&graph, PageRankConfig::default(), &session.recorder);
    session.metrics.counter("graph.pagerank_iterations").add(u64::from(iters));
    export(&session, &format!("{} nodes | {iters} iterations", graph.nodes()));

    let session = TraceSession::enabled("ConnectedComponents");
    let (_, iters) = label_propagation_instrumented(&graph, &session.recorder);
    session.metrics.counter("graph.cc_iterations").add(u64::from(iters));
    export(&session, &format!("{} nodes | {iters} rounds", graph.nodes()));

    // Machine learning: K-means over synthetic blobs.
    let points: Vec<Vec<f64>> = (0..((20_000.0 * f) as usize).max(1_000))
        .map(|i| {
            let blob = (i % 8) as f64;
            let jitter = ((i as u64).wrapping_mul(2_654_435_761) % 1_000) as f64 / 1_000.0;
            vec![blob * 10.0 + jitter, blob * -5.0 + jitter * 0.5, jitter]
        })
        .collect();
    let session = TraceSession::enabled("KMeans");
    let model = KMeans::new(8).fit_instrumented(&points, 7, &session.recorder);
    session.metrics.counter("mlkit.kmeans_iterations").add(u64::from(model.iterations));
    export(&session, &format!("{} points | {} iterations", points.len(), model.iterations));

    // Online services: the Nutch-style search tier plus the Olio
    // social and RuBiS auction tiers, each closed loop with periodic
    // Prometheus scrapes written next to the trace.
    fn serve_with_scrapes<S: bdb_serving::Server>(
        session: &TraceSession,
        server: &mut S,
        requests: usize,
    ) -> (bdb_serving::loadgen::ServiceReport, Vec<String>) {
        let mut sampler = PrometheusSampler::every((requests / 4).max(1));
        let report = run_closed_loop_sampled(
            server,
            requests,
            7,
            &session.recorder,
            &session.metrics,
            &mut sampler,
        );
        let scrapes = sampler.finish(&session.metrics);
        (report, scrapes)
    }
    let requests = ((1_000.0 * f) as usize).max(200);
    let mut serving_runs: Vec<(TraceSession, bdb_serving::loadgen::ServiceReport, Vec<String>)> =
        Vec::new();
    {
        let session = TraceSession::enabled("NutchServer");
        let mut server = SearchServer::build(((400.0 * f) as u32).max(100), 42);
        let (report, scrapes) = serve_with_scrapes(&session, &mut server, requests);
        serving_runs.push((session, report, scrapes));
    }
    {
        let session = TraceSession::enabled("OlioServer");
        let mut server = bdb_serving::social::SocialServer::build(200, 8, 42);
        let (report, scrapes) = serve_with_scrapes(&session, &mut server, requests);
        serving_runs.push((session, report, scrapes));
    }
    {
        let session = TraceSession::enabled("RubisServer");
        let mut server = bdb_serving::auction::AuctionServer::build(200, 10, 100, 42);
        let (report, scrapes) = serve_with_scrapes(&session, &mut server, requests);
        serving_runs.push((session, report, scrapes));
    }
    for (session, report, scrapes) in &serving_runs {
        export(session, &format!("{requests} requests | {:.0} req/s", report.achieved_rps));
        let prom_path = dir.join(format!("{}.prom.txt", session.name.to_lowercase()));
        let body: String =
            scrapes.iter().enumerate().map(|(i, s)| format!("# scrape {i}\n{s}\n")).collect();
        match std::fs::write(&prom_path, body) {
            Ok(()) => println!("  {:<20} -> {}", "", prom_path.display()),
            Err(e) => eprintln!("  {}: prometheus export failed: {e}", session.name),
        }
    }

    // Cloud OLTP: LSM store write + read mix with flushes/compactions.
    let session = TraceSession::enabled("CloudOLTP");
    let kv_dir = std::env::temp_dir().join(format!("bdb-trace-kv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&kv_dir);
    let config =
        StoreConfig { memtable_flush_bytes: 64 << 10, max_tables: 4, ..Default::default() };
    match Store::open_with(&kv_dir, config) {
        Ok(mut store) => {
            store.set_telemetry(session.recorder.clone());
            store.set_metrics(&session.metrics);
            let ops = ((20_000.0 * f) as u32).max(2_000);
            let mut failed = false;
            {
                // Top-level phase spans so the profiler attributes the
                // run to load vs read instead of leaving idle gaps.
                let _load = session.recorder.span("kvstore", "oltp-load");
                for i in 0..ops {
                    let key = format!("row{i:08}").into_bytes();
                    if store.put(key, vec![b'v'; 100]).is_err() {
                        failed = true;
                        break;
                    }
                }
            }
            {
                let _read = session.recorder.span("kvstore", "oltp-read");
                for i in 0..ops {
                    // Half present, half absent — exercises the bloom filters.
                    let probe_key = format!("row{:08}", u64::from(i) * 2).into_bytes();
                    if store.get(&probe_key).is_err() {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                eprintln!("  CloudOLTP: store I/O failed; exporting partial trace");
            }
            let s = store.stats();
            export(
                &session,
                &format!(
                    "{ops} puts + {ops} gets | {} flushes, {} compactions, {} bloom skips",
                    s.flushes, s.compactions, s.bloom_skips
                ),
            );
        }
        Err(e) => eprintln!("  CloudOLTP: store open failed: {e}"),
    }
    let _ = std::fs::remove_dir_all(&kv_dir);

    // Relational query: select + hash join over e-commerce tables.
    let session = TraceSession::enabled("JoinQuery");
    let orders_n = ((8_000.0 * f) as u64).max(500);
    let (orders, items) = bigdatabench::workloads::query::build_tables(&suite.scale(1), orders_n);
    let orders_c = ColumnarTable::from_table(&orders);
    let items_c = ColumnarTable::from_table(&items);
    let query_span = session.recorder.span("sql", "query-session");
    let sel = select_instrumented(
        &orders_c,
        &col("BUYER_ID").gt(lit(0)),
        &["ORDER_ID"],
        &session.recorder,
    );
    let joined =
        hash_join_instrumented(&orders_c, "ORDER_ID", &items_c, "ORDER_ID", &session.recorder);
    drop(query_span);
    match (sel, joined) {
        (Ok(sel), Ok(joined)) => {
            session.metrics.counter("sql.select_rows").add(sel.len() as u64);
            session.metrics.counter("sql.joined_rows").add(joined.len() as u64);
            export(&session, &format!("{} orders | {} joined rows", orders.len(), joined.len()));
        }
        _ => eprintln!("  JoinQuery: query failed; trace not exported"),
    }
}

fn main() {
    let args = parse_args();
    let suite = Suite::with_fraction(args.fraction);
    let machine = MachineConfig::xeon_e5645();
    eprintln!(
        "reproduce: fraction {} on simulated {} (paper testbed: 14 nodes)",
        args.fraction, machine.name
    );

    if args.table2 {
        table2();
    }
    if args.table3 {
        table3();
    }
    if args.table4 {
        table4();
    }
    if args.table5 {
        table5();
    }
    if args.table6 {
        table6();
    }

    let mut fig2_rows = Vec::new();
    let mut fig3_rows = Vec::new();
    let mut fig4_rows = Vec::new();
    let mut fig5_rows = Vec::new();
    let mut fig6_rows = Vec::new();

    let need_baseline = args.fig4 || args.fig6;
    let baseline = if need_baseline {
        eprintln!("characterizing all 19 workloads at baseline on {}...", machine.name);
        characterize::baseline_reports(&suite, &machine)
    } else {
        Vec::new()
    };

    if args.fig2 {
        eprintln!("figure 2: native sweeps + small/large characterization...");
        fig2_rows = characterize::figure2(&suite, &machine);
        section("Figure 2 — L3 MPKI: small vs large input");
        let mut t = TextTable::new(&["workload", "small (baseline)", "large (best)", "large mult"]);
        for r in &fig2_rows {
            t.row(&[
                r.workload.clone(),
                fnum(r.small_l3_mpki),
                fnum(r.large_l3_mpki),
                format!("{}X", r.large_multiplier),
            ]);
        }
        println!("{}", t.render());
        save_json(&args.json_dir, "fig2", &fig2_rows, |o, r| {
            o.field_str("workload", &r.workload);
            field_num(o, "small_l3_mpki", r.small_l3_mpki);
            field_num(o, "large_l3_mpki", r.large_l3_mpki);
            o.field_u64("large_multiplier", r.large_multiplier.into());
        });
    }

    if args.fig3 {
        eprintln!("figure 3: native + traced sweeps over 5 multipliers x 19 workloads...");
        fig3_rows = characterize::figure3(&suite, &machine);
        print_fig3(&fig3_rows);
        save_json(&args.json_dir, "fig3", &fig3_rows, |o, r| {
            o.field_str("workload", &r.workload).field_u64("multiplier", r.multiplier.into());
            field_num(o, "mips", r.mips);
            field_num(o, "speedup", r.speedup);
            field_num(o, "l3_mpki", r.l3_mpki);
        });
    }

    if args.fig4 {
        fig4_rows = characterize::figure4(&baseline, &machine);
        section("Figure 4 — instruction breakdown");
        let mut t = TextTable::new(&["name", "load", "store", "branch", "int", "fp", "int:fp"]);
        for r in &fig4_rows {
            t.row(&[
                r.name.clone(),
                format!("{:.1}%", r.load * 100.0),
                format!("{:.1}%", r.store * 100.0),
                format!("{:.1}%", r.branch * 100.0),
                format!("{:.1}%", r.int * 100.0),
                format!("{:.1}%", r.fp * 100.0),
                if r.int_fp_ratio.is_finite() { fnum(r.int_fp_ratio) } else { "inf".into() },
            ]);
        }
        println!("{}", t.render());
        save_json(&args.json_dir, "fig4", &fig4_rows, |o, r| {
            o.field_str("name", &r.name);
            field_num(o, "load", r.load);
            field_num(o, "store", r.store);
            field_num(o, "branch", r.branch);
            field_num(o, "int", r.int);
            field_num(o, "fp", r.fp);
            field_num(o, "int_fp_ratio", r.int_fp_ratio);
        });
    }

    if args.fig5 {
        eprintln!("figure 5: characterizing on both E5645 and E5310...");
        fig5_rows = characterize::figure5(&suite);
        section("Figure 5 — operation intensity (ops per DRAM byte)");
        let mut t = TextTable::new(&["name", "FP E5310", "FP E5645", "INT E5310", "INT E5645"]);
        for r in &fig5_rows {
            t.row(&[
                r.name.clone(),
                fnum(r.fp_e5310),
                fnum(r.fp_e5645),
                fnum(r.int_e5310),
                fnum(r.int_e5645),
            ]);
        }
        println!("{}", t.render());
        save_json(&args.json_dir, "fig5", &fig5_rows, |o, r| {
            o.field_str("name", &r.name);
            field_num(o, "fp_e5310", r.fp_e5310);
            field_num(o, "fp_e5645", r.fp_e5645);
            field_num(o, "int_e5310", r.int_e5310);
            field_num(o, "int_e5645", r.int_e5645);
        });
    }

    if args.fig6 {
        fig6_rows = characterize::figure6(&baseline, &machine);
        section("Figure 6 — memory hierarchy MPKI");
        let mut t = TextTable::new(&["name", "L1I", "L2", "L3", "ITLB", "DTLB"]);
        for r in &fig6_rows {
            t.row(&[
                r.name.clone(),
                fnum(r.l1i_mpki),
                fnum(r.l2_mpki),
                fnum(r.l3_mpki),
                fnum(r.itlb_mpki),
                fnum(r.dtlb_mpki),
            ]);
        }
        println!("{}", t.render());
        save_json(&args.json_dir, "fig6", &fig6_rows, |o, r| {
            o.field_str("name", &r.name);
            field_num(o, "l1i_mpki", r.l1i_mpki);
            field_num(o, "l2_mpki", r.l2_mpki);
            field_num(o, "l3_mpki", r.l3_mpki);
            field_num(o, "itlb_mpki", r.itlb_mpki);
            field_num(o, "dtlb_mpki", r.dtlb_mpki);
        });
    }

    if args.checks {
        let checks =
            paper::shape_checks(&fig2_rows, &fig3_rows, &fig4_rows, &fig5_rows, &fig6_rows);
        section("Shape checks vs the paper's headline claims");
        let mut t = TextTable::new(&["check", "claim", "measured", "verdict"]);
        let mut pass = 0;
        for c in &checks {
            if c.pass {
                pass += 1;
            }
            t.row(&[c.id, c.claim, &c.measured, if c.pass { "PASS" } else { "FAIL" }]);
        }
        println!("{}", t.render());
        println!("{pass}/{} shape checks passed", checks.len());
    }

    if args.trace_dir.is_some() || args.profile_dir.is_some() {
        trace_exports(
            &suite,
            args.fraction,
            args.trace_dir.as_deref(),
            args.profile_dir.as_deref(),
        );
    }

    if args.bench_json.is_some() || args.bench_baseline.is_some() {
        bench_results(&args);
    }

    if args.charmap_dir.is_some() || args.charmap_baseline.is_some() {
        charmap_pass(&args);
    }

    if let Some(seed) = args.faults_seed {
        faults_smoke(seed);
    }

    if args.slo_dir.is_some() {
        slo_pass(&args);
    }

    if args.chaos_seed.is_some() {
        chaos_pass(&args);
    }

    if args.tsdb_dir.is_some() {
        tsdb_pass(&args);
    }
}

/// Fault-injection smoke pass: the Hadoop recovery story end to end.
/// WordCount with an injected spill-write error, a map-task panic and
/// an artificial straggler must finish with output byte-identical to
/// the fault-free run, recovering via retries and speculation. Exits 1
/// if any recovery mechanism failed to engage.
fn faults_smoke(seed: u64) {
    use bdb_faults::FaultPlan;
    use bdb_mapreduce::{sites, Engine};
    use bdb_telemetry::MetricsRegistry;
    use std::time::Duration;

    section(&format!("Fault-injection smoke — seed {seed}"));
    let mut text = bdb_datagen::text::TextGenerator::wikipedia(seed);
    let input: Vec<String> = text.corpus(96 << 10).lines().map(str::to_owned).collect();

    // Spill-heavy engine shape: four map tasks so the straggler can be
    // speculated, a tiny sort buffer so the spill path runs.
    let build = |faults: FaultPlan| {
        Engine::builder().threads(4).reducers(3).map_buffer_bytes(1024).faults(faults).build()
    };
    let (clean, clean_stats) = build(FaultPlan::disabled()).run(&TraceWordCount, &input);
    if clean_stats.spills == 0 {
        die("faults smoke: fault-free run never spilled; the spill site would not fire");
    }

    let metrics = MetricsRegistry::new();
    // The first straggle check always belongs to a first attempt; a
    // retried attempt is never speculated.
    let plan = FaultPlan::builder(seed)
        .io_error_nth(sites::SPILL_WRITE, 0)
        .panic_nth(sites::MAP_TASK, 1)
        .straggle_nth(sites::MAP_STRAGGLER, 0, Duration::from_millis(400))
        .metrics(metrics.clone())
        .build();
    let (faulty, stats) = build(plan.clone()).run(&TraceWordCount, &input);

    let mut t = TextTable::new(&["check", "expectation", "measured", "verdict"]);
    let mut failed = false;
    let mut check = |name: &str, want: &str, got: String, pass: bool| {
        failed |= !pass;
        t.row(&[name, want, &got, if pass { "PASS" } else { "FAIL" }]);
    };
    check(
        "output",
        "byte-identical to fault-free run",
        format!("{} keys", faulty.len()),
        faulty == clean,
    );
    check("injected", ">= 3 (spill error, panic, straggler)", plan.injected().to_string(), {
        plan.injected() >= 3
    });
    check("recovered", ">= 2", plan.recovered().to_string(), plan.recovered() >= 2);
    check("map retries", ">= 2", stats.map_retries.to_string(), stats.map_retries >= 2);
    check(
        "speculative wins",
        ">= 1",
        format!("{} of {} launched", stats.speculative_wins, stats.speculative_tasks),
        stats.speculative_wins >= 1,
    );
    check(
        "retry backoff",
        "> 0 (virtual time)",
        format!("{:?}", stats.retry_backoff),
        stats.retry_backoff > Duration::ZERO,
    );
    println!("{}", t.render());
    for site in [sites::SPILL_WRITE, sites::MAP_TASK, sites::MAP_STRAGGLER] {
        println!(
            "  fault.injected.{site} = {}",
            metrics.counter(&format!("fault.injected.{site}")).get()
        );
    }
    if failed {
        die("faults smoke: a recovery mechanism failed to engage (see FAIL rows above)");
    }
    println!("\nfaults smoke PASS: all injected faults recovered, output unchanged");
}

/// Online observability pass over the serving tier. Every selected
/// serving workload runs a steady phase and a shaped overload phase
/// through the `bdb-obs` pipeline (per-request trace context,
/// sliding-window tails, SLO/error-budget engine with burn-rate
/// alerts), then writes per service a plain-text dashboard
/// (`<w>.dash.txt`), a Prometheus exposition with exemplar trace ids
/// (`<w>.slo.prom.txt`) and a Chrome trace of sampled request chains
/// plus window counter tracks (`<w>.slo.trace.json`), and one
/// machine-readable `slo_report.json` for the whole run.
///
/// The pass gates itself (exit 1 on violation): the steady phase must
/// stay alert-free with rolling tails agreeing with the whole-run
/// histogram within one log bucket; the shaped overload must fire
/// exactly one page burn-rate alert, inside the overload phase; every
/// sampled request must reconstruct to a complete linked chain
/// (loadgen → queue → handler → store); and the exposition must parse
/// under the strict Prometheus grammar. Everything runs in virtual
/// time off a fixed seed, so the report is byte-identical across runs
/// and hosts. With `--bench-subset`, only the serving workloads in the
/// committed representative subset run (falling back to Nutch when the
/// subset holds none) — the fast per-PR tier.
fn slo_pass(args: &Args) {
    use bdb_obs::{dash, report, ObsConfig, ObsPipeline, Severity};
    use bdb_serving::{QueuePolicy, QueueSim, ServiceTimeModel};
    use std::time::Duration;

    const SLO_SEED: u64 = 42;
    const WORKERS: u32 = 4;
    const THRESHOLD: Duration = Duration::from_millis(50);
    // Steady horizon = rolling span (8 × 2 s windows) so the
    // rolling-vs-whole-run gate compares the same stationary stretch.
    const STEADY: Duration = Duration::from_secs(16);
    const OVERLOAD: Duration = Duration::from_secs(8);

    section("SLO — online observability over the serving tier");
    let dir = args.slo_dir.as_ref().expect("slo_pass called without --slo");
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| die(&format!("creating {}: {e}", dir.display())));

    let serving = [WorkloadId::NutchServer, WorkloadId::OlioServer, WorkloadId::RubisServer];
    let selected: Vec<WorkloadId> = match args.bench_subset.as_deref().map(load_subset) {
        Some((_, ids)) => {
            let mut in_subset: Vec<WorkloadId> =
                serving.iter().copied().filter(|id| ids.contains(id)).collect();
            if in_subset.is_empty() {
                // The committed representative subset may hold no
                // serving workload; the fast tier still needs one.
                in_subset.push(WorkloadId::NutchServer);
            }
            eprintln!(
                "subset tier: observing {}",
                in_subset.iter().map(|id| id.name()).collect::<Vec<_>>().join(", ")
            );
            in_subset
        }
        None => serving.to_vec(),
    };

    // The modeled service-time distributions come from the real server
    // implementations so the observability pass tracks their shapes.
    let model_for = |id: WorkloadId| -> ServiceTimeModel {
        match id {
            WorkloadId::NutchServer => {
                bdb_serving::search::SearchServer::build(200, SLO_SEED).service_model()
            }
            WorkloadId::OlioServer => {
                bdb_serving::social::SocialServer::build(200, 8, SLO_SEED).service_model()
            }
            WorkloadId::RubisServer => {
                bdb_serving::auction::AuctionServer::build(200, 10, 100, SLO_SEED).service_model()
            }
            other => die(&format!("{} is not a serving workload", other.name())),
        }
    };

    let mut t = TextTable::new(&[
        "service",
        "offered",
        "done",
        "shed",
        "t/out",
        "roll p99",
        "budget left",
        "alerts",
    ]);
    let mut observations = Vec::new();
    for id in selected {
        let name = id.name();
        let model = model_for(id);
        let svc_seed = SLO_SEED ^ bdb_obs::phase_salt(name);
        let times = model.sample_times(2048, svc_seed);

        let steady = QueueSim::new(WORKERS).run(400.0, STEADY, &times, svc_seed);
        let policy =
            QueuePolicy { queue_capacity: Some(64), deadline: Some(Duration::from_millis(80)) };
        let overload = QueueSim::new(WORKERS).with_policy(policy).run(
            3200.0,
            OVERLOAD,
            &times,
            svc_seed ^ 0xBEEF,
        );

        // Gate: the steady phase alone stays quiet and its rolling
        // tails agree with the whole-run histogram.
        let mut quiet = ObsPipeline::new(name, ObsConfig::default_for(THRESHOLD, svc_seed));
        quiet.ingest_phase("steady", 0, &steady.records, &model);
        let quiet = quiet.finish();
        if !quiet.alerts.is_empty() {
            die(&format!("{name}: steady phase fired {} alert(s)", quiet.alerts.len()));
        }
        for q in [0.99, 0.999] {
            let roll = quiet.rolling.percentile(q).as_micros() as u64;
            let whole = quiet.whole.percentile(q).as_micros() as u64;
            let (ri, wi) = (bdb_telemetry::bucket_index(roll), bdb_telemetry::bucket_index(whole));
            if ri.abs_diff(wi) > 1 {
                die(&format!(
                    "{name}: steady-state rolling q{q} ({roll}us) disagrees with the \
                     whole-run histogram ({whole}us) by more than one bucket"
                ));
            }
        }

        // The artifact run: steady then shaped overload on one timeline.
        let mut pipe = ObsPipeline::new(name, ObsConfig::default_for(THRESHOLD, svc_seed));
        pipe.ingest_phase("steady", 0, &steady.records, &model);
        pipe.ingest_phase("overload", STEADY.as_nanos() as u64, &overload.records, &model);
        let obs = pipe.finish();

        // Gate: the shaped overload fires exactly one page alert, and
        // it lands inside the overload phase.
        let pages: Vec<_> = obs.alerts.iter().filter(|a| a.severity == Severity::Page).collect();
        if pages.len() != 1 {
            die(&format!("{name}: expected exactly one page alert, got {:?}", obs.alerts));
        }
        if obs.alerts.iter().any(|a| a.at_ns <= STEADY.as_nanos() as u64) {
            die(&format!("{name}: an alert fired before the overload phase: {:?}", obs.alerts));
        }
        // Gate: every sampled request reconstructs to a complete,
        // correctly linked chain from the flat span stream alone.
        if obs.chains_total == 0 || obs.chains_total != obs.chains_complete {
            die(&format!(
                "{name}: only {}/{} sampled chains reconstruct completely",
                obs.chains_complete, obs.chains_total
            ));
        }
        // Gate: the exposition parses under the strict grammar.
        bdb_telemetry::assert_prometheus_grammar(&obs.prometheus);

        let stem = bdb_telemetry::file_stem(name);
        let writes = [
            (format!("{stem}.dash.txt"), dash::render(&obs)),
            (format!("{stem}.slo.prom.txt"), obs.prometheus.clone()),
            (
                format!("{stem}.slo.trace.json"),
                bdb_telemetry::chrome_trace_json_with_tracks(name, &obs.spans, None, &obs.tracks),
            ),
        ];
        for (file, text) in writes {
            let path = dir.join(&file);
            std::fs::write(&path, text)
                .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
            eprintln!("wrote {}", path.display());
        }

        t.row(&[
            name.to_owned(),
            obs.totals.offered.to_string(),
            obs.totals.completed.to_string(),
            obs.totals.shed.to_string(),
            obs.totals.timed_out.to_string(),
            format!("{:.1} ms", obs.rolling.p99().as_secs_f64() * 1e3),
            format!("{:.0}%", obs.budget.remaining() * 100.0),
            obs.alerts.len().to_string(),
        ]);
        observations.push(obs);
    }
    println!("{}", t.render());

    let path = dir.join("slo_report.json");
    std::fs::write(&path, report::render_report(SLO_SEED, &observations))
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
    println!("slo pass PASS: wrote {} ({} services observed)", path.display(), observations.len());
}

/// Deterministic chaos-campaign pass: three workload tiers under
/// seeded fault schedules, each judged by invariant checkers.
///
/// * **cloud-oltp** — the replicated sharded store: lost replication
///   ships, torn WAL appends, and virtual-time node kills that take
///   down shard primaries mid-write; checked for history safety (no
///   acknowledged write lost, no invented or stale reads), exact
///   replica convergence after full repair, and fault coverage (the
///   campaign must actually have forced failovers, read-repairs, lost
///   ships, kills and rejoins).
/// * **wordcount** — MapReduce under rotating spill errors, task
///   panics and speculated stragglers; output must stay
///   byte-identical to the fault-free baseline every round.
/// * **nutch-serving** — an overloaded service with injected
///   stragglers; fault-failed requests must always be tail-sampled,
///   exposed as exemplars, and the SLO arithmetic must stay
///   consistent.
///
/// Writes `DIR/chaos_report.json` (byte-identical across runs for a
/// given seed — CI diffs two runs directly) and one Chrome trace of
/// lifecycle instants per campaign. Exits 1 if any checker fails or
/// the Cloud-OLTP campaign did not force at least one failover and one
/// read-repair. With `--bench-subset`, runs shortened campaigns (the
/// fast per-PR tier).
fn chaos_pass(args: &Args) {
    use bdb_chaos::{oltp_campaign, serving_campaign, wordcount_campaign, OltpCampaignConfig};

    let seed = args.chaos_seed.expect("chaos_pass called without --chaos");
    let dir = args.chaos_dir.as_ref().expect("--chaos always parses its directory");
    section(&format!("Chaos campaigns — seed {seed}"));
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| die(&format!("creating {}: {e}", dir.display())));

    let short = args.bench_subset.is_some();
    let (oltp_config, rounds) = if short {
        eprintln!("subset tier: shortened campaigns");
        (OltpCampaignConfig::short(), 2)
    } else {
        (OltpCampaignConfig::default(), 3)
    };

    // Injected task panics are the campaign's business (the engine
    // catches and retries them); keep their backtraces off the console.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("injected fault:") {
            default_hook(info);
        }
    }));

    let scratch = dir.join("cluster-scratch");
    let _ = std::fs::remove_dir_all(&scratch);
    let oltp = oltp_campaign(seed, &scratch, oltp_config)
        .unwrap_or_else(|e| die(&format!("cloud-oltp campaign: {e}")));
    std::fs::remove_dir_all(&scratch).ok();
    let wordcount = wordcount_campaign(seed, rounds);
    let serving = serving_campaign(seed, rounds);
    let _ = std::panic::take_hook();
    let reports = [&oltp, &wordcount, &serving];

    let mut t = TextTable::new(&["campaign", "checker", "verdict", "details"]);
    let mut failed = false;
    for r in reports {
        for c in &r.checkers {
            failed |= !c.pass;
            let details =
                c.details.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ");
            t.row(&[r.campaign, c.name, if c.pass { "PASS" } else { "FAIL" }, &details]);
        }
    }
    println!("{}", t.render());

    for r in reports {
        let stem = bdb_telemetry::file_stem(r.campaign);
        let path = dir.join(format!("{stem}.chaos.trace.json"));
        std::fs::write(&path, bdb_telemetry::chrome_trace_json(r.campaign, &r.spans, None))
            .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
        eprintln!("wrote {}", path.display());
    }

    // The combined machine-readable report: byte-deterministic, so two
    // runs of the same seed diff clean.
    let mut out = String::new();
    {
        let mut o = ObjectWriter::new(&mut out);
        o.field_str("schema", "bdb-chaos-run-v1").field_u64("seed", seed);
        o.field_u64("campaigns_run", reports.len() as u64);
        let buf = o.field_raw("campaigns");
        buf.push('[');
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push_str(r.render_json().trim_end());
        }
        buf.push(']');
        o.finish();
    }
    out.push('\n');
    let path = dir.join("chaos_report.json");
    std::fs::write(&path, out).unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
    eprintln!("wrote {}", path.display());

    // In-binary acceptance: the Cloud-OLTP campaign must actually have
    // exercised the recovery machinery, not merely avoided breaking.
    if oltp.stat("failovers").unwrap_or(0) < 1 || oltp.stat("read_repairs").unwrap_or(0) < 1 {
        eprintln!(
            "chaos FAIL: cloud-oltp forced {} failover(s) and {} read-repair(s); need >= 1 of each",
            oltp.stat("failovers").unwrap_or(0),
            oltp.stat("read_repairs").unwrap_or(0)
        );
        std::process::exit(1);
    }
    if failed {
        eprintln!("chaos FAIL: an invariant checker failed (see FAIL rows above)");
        std::process::exit(1);
    }
    println!(
        "chaos PASS: {} campaigns, {} checkers, report {}",
        reports.len(),
        reports.iter().map(|r| r.checkers.len()).sum::<usize>(),
        dir.join("chaos_report.json").display()
    );
}

/// Embedded time-series pass: the cluster and the serving tier run
/// under scrape, every sample lands in the `bdb-tsdb` store, and the
/// stored series must reproduce what the live engines saw.
///
/// * **Cluster half** — a replicated store takes traced client writes
///   (`put_traced`) through a seeded fault schedule (a lost
///   replication ship, a mid-run primary kill, a later rejoin). Every
///   node's metrics registry is scraped each virtual tick, so
///   `cluster.replication_lag_bytes` and `cluster.quorum_ack_us`
///   become stored series. The flat span stream is rebuilt into
///   per-write chains (route → WAL append → ship → quorum ack) and
///   rendered with the membership events as `timeline.txt`.
/// * **Serving half** — the Nutch search tier runs a steady phase and
///   a shaped overload through a live [`bdb_obs::ObsPipeline`] while a
///   parallel metrics registry replays the same terminal events as
///   cumulative counters plus a latency histogram, scraped on every
///   window boundary. The stored series then answer for the live run:
///   `histogram_quantile` must land within one log bucket of the live
///   whole-run p99, and replaying the burn-rate rules over the stored
///   counters must fire exactly the live alerts.
///
/// Writes `DIR/tsdb_snapshot.bin` (byte-deterministic for a seed —
/// the snapshot of a reloaded snapshot is gated to be identical),
/// `node-<n>.dash.txt` + `serving.dash.txt` sparkline dashboards, and
/// `timeline.txt`. Exits 1 on any gate. With `--bench-subset`, the
/// scrape is shortened (the fast per-PR tier).
fn tsdb_pass(args: &Args) {
    use bdb_obs::{derive_trace_id, phase_salt, ObsConfig, ObsPipeline};
    use bdb_serving::queue::RequestOutcome;
    use bdb_serving::{QueuePolicy, QueueSim};
    use bdb_telemetry::MetricsRegistry;
    use bdb_tsdb::{
        histogram_quantile, reconstruct_writes, render_node_dashboard, render_timeline,
        replay_burn_rules, select, Scraper, TimelineEvent, Tsdb, TsdbConfig,
    };
    use std::time::Duration;

    const TSDB_SEED: u64 = 42;
    const THRESHOLD: Duration = Duration::from_millis(50);
    const STEP_US: u64 = 500;
    const SCRAPE_US: u64 = 500_000;
    const DASH_WIDTH: usize = 40;

    section("TSDB — time-series store + cluster-wide tracing");
    let dir = args.tsdb_dir.as_ref().expect("tsdb_pass called without --tsdb");
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| die(&format!("creating {}: {e}", dir.display())));

    let short = args.bench_subset.is_some();
    let (writes, steady, overload) = if short {
        eprintln!("subset tier: shortened scrape");
        (24u64, Duration::from_secs(8), Duration::from_secs(4))
    } else {
        (48u64, Duration::from_secs(16), Duration::from_secs(8))
    };

    let mut db = Tsdb::new(TsdbConfig::default());

    // --- Cluster half: traced writes under faults, scraped per tick.
    const NODES: usize = 4;
    let scratch = dir.join("cluster-scratch");
    let _ = std::fs::remove_dir_all(&scratch);
    let plan = bdb_faults::FaultPlan::builder(TSDB_SEED)
        .io_error_nth(bdb_cluster::sites::SHIP_WRITE, 2)
        .build();
    let mut cluster =
        bdb_cluster::Cluster::open(&scratch, bdb_cluster::ClusterConfig::default(), plan)
            .unwrap_or_else(|e| die(&format!("opening cluster: {e}")));
    let mut scraper = Scraper::new();
    let node_names: Vec<String> = (0..NODES).map(|n| n.to_string()).collect();
    for (n, name) in node_names.iter().enumerate() {
        scraper.add_target(&[("workload", "CloudOLTP"), ("node", name)], cluster.node_metrics(n));
    }
    let salt = phase_salt("cluster-write");
    let mut t_us = 0u64;
    for i in 0..writes {
        t_us += STEP_US;
        cluster.advance(Duration::from_micros(t_us));
        // Mid-run, the primary of the shard being written dies: the
        // write itself forces the failover and a retried span chain.
        let key = format!("row{:06}", i % 16).into_bytes();
        if i == writes / 3 {
            cluster.kill_node(cluster.primary_of_shard(cluster.shard_of(&key)));
        }
        if i == 2 * writes / 3 {
            for n in 0..NODES {
                if !cluster.alive(n) {
                    cluster
                        .rejoin_node(n)
                        .unwrap_or_else(|e| die(&format!("rejoining node {n}: {e}")));
                }
            }
        }
        let value = format!("v{i}-t{t_us}").into_bytes();
        cluster
            .put_traced(&key, &value, derive_trace_id(TSDB_SEED, salt, i))
            .unwrap_or_else(|e| die(&format!("traced write {i}: {e}")));
        scraper.scrape_at(&mut db, t_us);
    }
    cluster.reconcile_all().unwrap_or_else(|e| die(&format!("final repair: {e}")));
    scraper.scrape_at(&mut db, t_us + STEP_US);

    let spans = cluster.take_trace_spans();
    let chains = reconstruct_writes(&spans);
    if chains.len() != writes as usize {
        die(&format!("tsdb: {} of {writes} traced writes left a span chain", chains.len()));
    }
    let incomplete = chains.iter().filter(|c| !c.complete).count();
    if incomplete > 0 {
        die(&format!("tsdb: {incomplete} of {writes} span chains are causally incomplete"));
    }
    let events: Vec<TimelineEvent> = cluster
        .take_events()
        .into_iter()
        .map(|e| TimelineEvent {
            at_us: e.at_us,
            kind: e.kind.to_owned(),
            node: e.node,
            shard: if e.shard == usize::MAX { -1 } else { e.shard as i64 },
        })
        .collect();
    if !events.iter().any(|e| e.kind == "failover") {
        die("tsdb: the cluster run forced no failover; the timeline would be empty of interest");
    }
    std::fs::remove_dir_all(&scratch).ok();

    // The scraped store must hold the replication telemetry the chains
    // imply: a lag gauge per node and the primary's quorum-ack
    // histogram (as expanded _bucket/_count/_sum series).
    for required in ["cluster.replication_lag_bytes", "cluster.quorum_ack_us_count"] {
        if select(&db, required, &[], 0, u64::MAX).is_empty() {
            die(&format!("tsdb: required series {required} was never scraped"));
        }
    }

    // --- Serving half: live pipeline and scraped registry in parallel.
    let svc_seed = TSDB_SEED ^ phase_salt("NutchServer");
    let model = bdb_serving::search::SearchServer::build(200, TSDB_SEED).service_model();
    let times = model.sample_times(2048, svc_seed);
    let steady_run = QueueSim::new(4).run(400.0, steady, &times, svc_seed);
    let policy =
        QueuePolicy { queue_capacity: Some(64), deadline: Some(Duration::from_millis(80)) };
    let overload_run =
        QueueSim::new(4).with_policy(policy).run(3200.0, overload, &times, svc_seed ^ 0xBEEF);

    let obs_config = ObsConfig::default_for(THRESHOLD, svc_seed);
    let (spec, rules, window_us) =
        (obs_config.spec.clone(), obs_config.rules.clone(), obs_config.window.as_micros() as u64);
    let mut pipe = ObsPipeline::new("NutchServer", obs_config);
    pipe.ingest_phase("steady", 0, &steady_run.records, &model);
    pipe.ingest_phase("overload", steady.as_nanos() as u64, &overload_run.records, &model);
    let obs = pipe.finish();

    // Replay the same terminal events into a registry, scraping on
    // every window boundary (plus a finer cadence between them), so
    // the stored cumulative counters can answer for the live run.
    // Terminal times mirror `ObsPipeline::ingest_phase`: shed at
    // arrival, timed-out at abandonment, completed at finish.
    let threshold_us = THRESHOLD.as_micros() as u64;
    // (t_ns, bad, completed latency µs) per terminal event.
    let mut terminal: Vec<(u64, bool, Option<u64>)> = Vec::new();
    for (offset_ns, records) in
        [(0u64, &steady_run.records), (steady.as_nanos() as u64, &overload_run.records)]
    {
        for r in records {
            let (t, bad, latency_us) = match r.outcome {
                RequestOutcome::Shed => (Some(r.arrival_ns), true, None),
                RequestOutcome::TimedOut => (r.start_ns, true, None),
                RequestOutcome::Completed => {
                    let us = r.latency_ns() / 1_000;
                    (r.finish_ns, us >= threshold_us, Some(us))
                }
                RequestOutcome::Unfinished => (None, false, None),
            };
            if let Some(t) = t {
                terminal.push((offset_ns + t, bad, latency_us));
            }
        }
    }
    terminal.sort_unstable();

    let serving_metrics = MetricsRegistry::new();
    let mut serving_scraper = Scraper::new();
    serving_scraper
        .add_target(&[("workload", "NutchServer"), ("node", "serving")], &serving_metrics);
    let last_t_ns = terminal.last().map_or(0, |&(t, ..)| t);
    let horizon_us = (last_t_ns / 1_000).div_ceil(window_us) * window_us;
    let mut next = terminal.iter().peekable();
    let mut scrape_t = 0u64;
    while scrape_t <= horizon_us {
        // Events exactly on a boundary belong to the next window, so
        // the boundary scrape must not see them yet.
        while let Some(&&(t_ns, bad, latency_us)) = next.peek() {
            if t_ns >= scrape_t * 1_000 {
                break;
            }
            next.next();
            serving_metrics.counter("serving.requests_total").inc();
            if bad {
                serving_metrics.counter("serving.bad_total").inc();
            }
            if let Some(us) = latency_us {
                serving_metrics.histogram("serving.request_us").record_micros(us);
            }
        }
        serving_scraper.scrape_at(&mut db, scrape_t);
        scrape_t += SCRAPE_US;
    }

    // Gate: the stored histogram answers the live whole-run p99
    // within one log bucket.
    let matchers = [("workload", "NutchServer")];
    let stored_p99 = histogram_quantile(&db, "serving.request_us", &matchers, 0.99, horizon_us)
        .unwrap_or_else(|| die("tsdb: stored serving histogram is empty"));
    let live_p99 = obs.whole.percentile(0.99).as_micros() as u64;
    let (si, li) = (bdb_telemetry::bucket_index(stored_p99), bdb_telemetry::bucket_index(live_p99));
    if si.abs_diff(li) > 1 {
        die(&format!(
            "tsdb: stored p99 ({stored_p99}us) disagrees with the live window ring \
             ({live_p99}us) by more than one histogram bucket"
        ));
    }

    // Gate: replaying the burn-rate rules over the stored counters
    // fires exactly the live alerts.
    let series_of = |name: &str| -> Vec<(u64, f64)> {
        select(&db, name, &matchers, 0, u64::MAX).into_iter().next().map_or(Vec::new(), |(_, s)| s)
    };
    let n_windows = obs.window_table.last().map_or(0, |w| w.index + 1);
    let replayed = replay_burn_rules(
        spec,
        rules,
        window_us,
        &series_of("serving.bad_total"),
        &series_of("serving.requests_total"),
        n_windows,
    );
    if replayed.len() != obs.alerts.len()
        || replayed.iter().zip(&obs.alerts).any(|(r, l)| {
            r.rule != l.rule || r.window_index != l.window_index || r.at_ns != l.at_ns
        })
    {
        die(&format!(
            "tsdb: recording-rule replay fired {:?}, the live engine fired {:?}",
            replayed.iter().map(|a| (&a.rule, a.window_index)).collect::<Vec<_>>(),
            obs.alerts.iter().map(|a| (&a.rule, a.window_index)).collect::<Vec<_>>(),
        ));
    }

    // Gate + artifact: the snapshot is self-describing — reloading it
    // and snapshotting again must reproduce the bytes exactly.
    let bytes = db.snapshot_bytes();
    let reloaded = Tsdb::from_snapshot_bytes(&bytes, TsdbConfig::default())
        .unwrap_or_else(|e| die(&format!("tsdb: snapshot does not reload: {e}")));
    if reloaded.snapshot_bytes() != bytes {
        die("tsdb: snapshot round-trip is not byte-identical");
    }
    let snap_path = dir.join("tsdb_snapshot.bin");
    std::fs::write(&snap_path, &bytes)
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", snap_path.display())));
    eprintln!(
        "wrote {} ({} series, {} bytes)",
        snap_path.display(),
        db.series_count(),
        bytes.len()
    );

    for node in node_names.iter().map(String::as_str).chain(["serving"]) {
        let path = dir.join(if node == "serving" {
            "serving.dash.txt".to_owned()
        } else {
            format!("node-{node}.dash.txt")
        });
        std::fs::write(&path, render_node_dashboard(&db, node, DASH_WIDTH))
            .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
        eprintln!("wrote {}", path.display());
    }
    let timeline_path = dir.join("timeline.txt");
    std::fs::write(&timeline_path, render_timeline(&events, &chains))
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", timeline_path.display())));
    eprintln!("wrote {}", timeline_path.display());

    let acked = chains.iter().filter(|c| c.acked).count();
    let scrapes = series_of("serving.requests_total").len();
    println!(
        "tsdb pass PASS: {} series, {scrapes} serving scrapes, {}/{writes} chains acked, \
         stored p99 {stored_p99}us vs live {live_p99}us, {} alert(s) replayed exactly",
        db.series_count(),
        acked,
        replayed.len(),
    );
}

/// Resolves the representative subset committed in a `charmap.json`
/// into workload ids, preserving the artifact's (sorted) order.
fn load_subset(path: &std::path::Path) -> (Vec<String>, Vec<WorkloadId>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("reading subset {}: {e}", path.display())));
    let baseline = bdb_charmap::report::Baseline::parse(&text)
        .unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
    let ids = baseline
        .subset
        .iter()
        .map(|name| {
            WorkloadId::ALL
                .iter()
                .copied()
                .find(|id| id.name() == name)
                .unwrap_or_else(|| die(&format!("subset names unknown workload {name:?}")))
        })
        .collect();
    (baseline.subset, ids)
}

/// Collects the BENCH_RESULTS.json artifact and, when a baseline is
/// given, gates the run on it (exit 1 on drift beyond tolerance).
/// With `--bench-subset`, only the representative workloads from the
/// committed charmap are run and gated — the fast per-PR tier.
fn bench_results(args: &Args) {
    use bdb_bench::results::{collect, compare_json, compare_json_subset, DEFAULT_WORKLOADS};

    section("BENCH_RESULTS — simulated performance artifact");
    let subset = args.bench_subset.as_deref().map(load_subset);
    let ids: Vec<WorkloadId> = match &subset {
        Some((names, ids)) => {
            eprintln!("representative subset: {}", names.join(", "));
            ids.clone()
        }
        None => DEFAULT_WORKLOADS.to_vec(),
    };
    eprintln!("collecting {} workloads at fraction {}...", ids.len(), args.fraction);
    let results = collect(args.fraction, &ids);
    let current = results.to_json();
    let mut t = TextTable::new(&["workload", "metric", "MIPS", "L1I", "L2", "L3 MPKI", "phases"]);
    for w in &results.workloads {
        t.row(&[
            w.name.clone(),
            format!("{} {}", fnum(w.metric_value), w.metric_unit),
            fnum(w.mips),
            fnum(w.mpki[0]),
            fnum(w.mpki[2]),
            fnum(w.mpki[3]),
            w.phases.len().to_string(),
        ]);
    }
    println!("{}", t.render());

    if let Some(path) = &args.bench_json {
        match results.write(path) {
            Ok(()) => eprintln!("  wrote {}", path.display()),
            Err(e) => die(&format!("writing {}: {e}", path.display())),
        }
    }
    if let Some(path) = &args.bench_baseline {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("reading baseline {}: {e}", path.display())));
        let compared = match &subset {
            Some((names, _)) => {
                compare_json_subset(&baseline, &current, args.bench_tolerance, names)
            }
            None => compare_json(&baseline, &current, args.bench_tolerance),
        };
        match compared {
            Ok(drifts) if drifts.is_empty() => {
                println!(
                    "bench-check PASS: all gated metrics within {}% of {}{}",
                    args.bench_tolerance,
                    path.display(),
                    if subset.is_some() { " (representative subset)" } else { "" }
                );
            }
            Ok(drifts) => {
                eprintln!(
                    "bench-check FAIL: {} metric(s) drifted beyond {}% of {}:",
                    drifts.len(),
                    args.bench_tolerance,
                    path.display()
                );
                for d in &drifts {
                    eprintln!("  {d}");
                }
                std::process::exit(1);
            }
            Err(e) => die(&format!("bench-check: {e}")),
        }
    }
}

/// Workload characterization pass: metric vectors over the default
/// workload set -> PCA -> clustering -> representative subset, written
/// as `charmap.txt` + `charmap.json` into `--charmap DIR`. Gated
/// in-binary (mirroring the `--profile` contract checks) so CI catches
/// regressions without parsing the artifacts:
///
/// * the retained components must cover the variance target;
/// * the subset must be non-empty and smaller than the full set;
/// * with `--charmap-baseline`, the fresh map must satisfy the subset
///   stability rule against the committed artifact (exit 1 otherwise).
fn charmap_pass(args: &Args) {
    use bdb_bench::results::DEFAULT_WORKLOADS;
    use bdb_charmap::{analyze, validate_baseline, DEFAULT_SEED, VARIANCE_TARGET};

    section("Workload characterization map — PCA + clustering + subset");
    // Read the committed baseline up front so an unreadable path fails
    // before the expensive characterization pass, not after.
    let committed = args.charmap_baseline.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("reading charmap baseline {}: {e}", path.display())));
        (path, text)
    });
    eprintln!(
        "characterizing {} workloads at fraction {} (seed {DEFAULT_SEED})...",
        DEFAULT_WORKLOADS.len(),
        args.fraction
    );
    let input = bdb_bench::charmap::analysis_input(args.fraction, &DEFAULT_WORKLOADS);
    let map = analyze(&input, DEFAULT_SEED).unwrap_or_else(|e| die(&format!("charmap: {e}")));

    let mut t = TextTable::new(&["cluster", "members", "representative"]);
    for (i, c) in map.clusters.iter().enumerate() {
        t.row(&[i.to_string(), c.members.join(", "), c.representative.clone()]);
    }
    println!("{}", t.render());
    println!(
        "PCA: {} of {} components retain {:.1}% of variance | k = {} \
         (silhouette {:.3}, hierarchical agreement {:.3})",
        map.retained,
        map.eigenvalues.len(),
        map.variance_retained * 100.0,
        map.k,
        map.silhouette,
        map.hier_agreement
    );

    if map.variance_retained < VARIANCE_TARGET {
        die(&format!(
            "charmap retains only {:.2}% variance (target {:.0}%)",
            map.variance_retained * 100.0,
            VARIANCE_TARGET * 100.0
        ));
    }
    if map.subset.is_empty() || map.subset.len() >= map.workloads.len() {
        die(&format!(
            "charmap subset degenerate: {} representatives for {} workloads",
            map.subset.len(),
            map.workloads.len()
        ));
    }

    if let Some(dir) = &args.charmap_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("creating {}: {e}", dir.display()));
        }
        for (name, body) in [("charmap.txt", map.to_text()), ("charmap.json", map.to_json())] {
            let path = dir.join(name);
            match std::fs::write(&path, body) {
                Ok(()) => eprintln!("  wrote {}", path.display()),
                Err(e) => die(&format!("writing {}: {e}", path.display())),
            }
        }
    }

    if let Some((path, committed)) = &committed {
        match validate_baseline(&map, committed) {
            Ok(()) => println!(
                "charmap-check PASS: subset stable against {} (k = {}, subset: {})",
                path.display(),
                map.k,
                map.subset.join(", ")
            ),
            Err(e) => {
                eprintln!("charmap-check FAIL: {e}");
                std::process::exit(1);
            }
        }
    }
}
