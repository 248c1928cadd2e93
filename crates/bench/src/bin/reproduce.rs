//! Regenerates every table and figure of the BigDataBench paper's
//! evaluation section, and runs the suite's artifact passes: telemetry
//! traces and profiles, the BENCH_RESULTS.json performance artifact, the
//! workload characterization map, and the SLO, chaos and time-series
//! passes.
//!
//! Every flag is a row of [`PASSES`]; `reproduce --help` prints the usage
//! generated from it. Exit status: 0 on success, 1 when a pass's gate
//! rejects the run, 2 on a usage or I/O error.

use bdb_bench::paper;
use bdb_bench::table::{fnum, TextTable};
use bdb_telemetry::json::ObjectWriter;
use bdb_telemetry::TraceSession;
use bigdatabench::characterize::{self, Fig3Row};
use bigdatabench::{MachineConfig, Suite, WorkloadId};
use std::path::{Path, PathBuf};

/// Runs a pass, pushing every artifact it makes onto the vector.
type Run = fn(&Args, &mut Vec<Artifact>) -> Result<(), Failure>;

/// One row of the pass table.
struct Pass {
    /// `(usage, help)` per flag; the usage is the flag's name followed by
    /// one placeholder per value it takes (`--chaos SEED DIR`).
    flags: &'static [(&'static str, &'static str)],
    /// The files the pass writes; `<w>`, `<c>` and `<n>` stand for a
    /// workload, campaign or node.
    artifacts: &'static [&'static str],
    /// Whether the same arguments always write byte-identical artifacts.
    seed_fixed: bool,
    /// `None` for the options row, whose flags only configure other rows.
    run: Option<Run>,
}

/// Every flag `reproduce` takes, grouped by the pass it drives. Giving
/// any flag of a row runs that row's pass, in table order; when no pass
/// is given, every paper section runs.
const PASSES: &[Pass] = &[
    Pass {
        flags: &[
            ("--all", "every table, figure and shape check"),
            ("--table2", "Table 2: the real-world seed data sets"),
            ("--table3", "Table 3: the e-commerce transaction schema"),
            ("--table4", "Table 4: the BigDataBench suite"),
            ("--table5", "Tables 5 and 7: the simulated processors"),
            ("--table6", "Table 6: workloads and inputs"),
            ("--fig2", "Figure 2: L3 MPKI, small vs large input"),
            ("--fig3", "Figure 3: MIPS and speedup with data scale"),
            ("--fig4", "Figure 4: instruction breakdown"),
            ("--fig5", "Figure 5: operation intensity"),
            ("--fig6", "Figure 6: memory hierarchy MPKI"),
            ("--checks", "shape checks vs the paper's headline claims"),
        ],
        // Figures 2 and 3 pick their multipliers from native wall time.
        artifacts: &["fig2.json", "fig3.json", "fig4.json", "fig5.json", "fig6.json"],
        seed_fixed: false,
        run: Some(paper_sections),
    },
    Pass {
        flags: &[
            ("--fraction F", "scale library inputs by F (default 0.25)"),
            ("--json DIR", "write the paper figures as JSON into DIR"),
            ("--help", "this text (also -h)"),
        ],
        artifacts: &[],
        seed_fixed: false,
        run: None,
    },
    Pass {
        flags: &[
            ("--trace DIR", "instrumented run of eight representative workloads"),
            (
                "--profile DIR",
                "profile that run: flamegraph stacks, critical path and worker utilization; \
                 traces go to --trace DIR when given; fails if the WordCount critical path \
                 covers less than 90% of wall time",
            ),
        ],
        artifacts: &[
            "<w>.trace.json",
            "<w>.metrics.txt",
            "<w>.prom.txt",
            "<w>.folded",
            "<w>.critpath.txt",
            "<w>.util.txt",
        ],
        seed_fixed: false,
        run: Some(trace_pass),
    },
    Pass {
        flags: &[
            ("--bench-json PATH", "write the versioned performance artifact to PATH"),
            ("--bench-baseline PATH", "fail if a gated metric drifts over 2% from PATH"),
            (
                "--bench-subset PATH",
                "gate only the representative workloads of the charmap.json at PATH; also \
                 shortens the --slo, --chaos and --tsdb runs",
            ),
        ],
        artifacts: &["BENCH_RESULTS.json"],
        seed_fixed: true,
        run: Some(bench_results),
    },
    Pass {
        flags: &[
            ("--charmap DIR", "characterization map: metric vectors -> PCA -> clusters"),
            ("--charmap-baseline PATH", "fail unless the map keeps PATH's subset"),
        ],
        artifacts: &["charmap.txt", "charmap.json"],
        seed_fixed: true,
        run: Some(charmap_pass),
    },
    Pass {
        flags: &[(
            "--slo DIR",
            "steady then shaped-overload load through the serving SLO engine; fails unless \
             exactly one page alert fires, in the overload",
        )],
        artifacts: &["slo_report.json", "<w>.dash.txt", "<w>.slo.prom.txt", "<w>.slo.trace.json"],
        seed_fixed: true,
        run: Some(slo_pass),
    },
    Pass {
        flags: &[(
            "--chaos SEED DIR",
            "seeded fault campaigns on the replicated OLTP store, WordCount and the serving \
             tier; fails if an invariant checker fails or no failover and read-repair happened",
        )],
        artifacts: &["chaos_report.json", "<c>.chaos.trace.json"],
        seed_fixed: true,
        run: Some(chaos_pass),
    },
    Pass {
        flags: &[(
            "--tsdb DIR",
            "scrape a faulty cluster and a serving overload into the time-series store; fails \
             on an incomplete write chain, p99 drift or diverging replayed alerts",
        )],
        artifacts: &["tsdb_snapshot.bin", "node-<n>.dash.txt", "serving.dash.txt", "timeline.txt"],
        seed_fixed: true,
        run: Some(tsdb_pass),
    },
];

fn flag_name(usage: &'static str) -> &'static str {
    usage.split_once(' ').map_or(usage, |(name, _)| name)
}

/// The usage text, generated from [`PASSES`].
fn usage() -> String {
    let mut out = String::from(
        "reproduce — regenerate the BigDataBench paper's tables and figures\n\n\
         usage: reproduce [FLAG [VALUE...]]...\n\n\
         Flags are grouped by the pass they drive; giving any flag of a group runs\n\
         that pass (the options group only configures). With no pass given, every\n\
         paper section runs. Exit status: 0 on success, 1 when a pass's gate fails,\n\
         2 on a usage or I/O error.\n",
    );
    for pass in PASSES {
        out.push('\n');
        for (usage, help) in pass.flags {
            push_entry(&mut out, usage, help);
        }
        if !pass.artifacts.is_empty() {
            let fixed =
                if pass.seed_fixed { ", byte-identical for the same arguments" } else { "" };
            push_entry(&mut out, "", &format!("writes {}{fixed}", pass.artifacts.join(" ")));
        }
    }
    out
}

/// Appends one usage entry: `head`, then `text` word-wrapped to 79
/// columns from column 25.
fn push_entry(out: &mut String, head: &str, text: &str) {
    let mut line = format!("  {head:<22}");
    for word in text.split_whitespace() {
        if line.len() > 25 && line.len() + 1 + word.len() > 79 {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(24);
        }
        line.push(' ');
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

/// The parsed command line: each flag given, with its checked values.
struct Args {
    given: Vec<(&'static str, Vec<String>)>,
    help: bool,
}

impl Args {
    /// The values of the last `flag` given.
    fn values(&self, flag: &str) -> Option<&[String]> {
        self.given.iter().rev().find(|(name, _)| *name == flag).map(|(_, v)| v.as_slice())
    }

    fn has(&self, flag: &str) -> bool {
        self.values(flag).is_some()
    }

    /// The flag's last value as a path.
    fn path(&self, flag: &str) -> Option<&Path> {
        self.values(flag).and_then(<[String]>::last).map(Path::new)
    }

    /// The flag's first value as a seed (checked when parsed).
    fn seed(&self, flag: &str) -> Option<u64> {
        self.values(flag).and_then(|v| v[0].parse().ok())
    }

    fn fraction(&self) -> f64 {
        self.values("--fraction").and_then(|v| v[0].parse().ok()).unwrap_or(0.25)
    }
}

/// Parses the command line by looking each flag up in [`PASSES`].
fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, Failure> {
    let mut args = Args { given: Vec::new(), help: false };
    while let Some(arg) = raw.next() {
        let wanted = if arg == "-h" { "--help" } else { arg.as_str() };
        let (usage, _) = PASSES
            .iter()
            .flat_map(|pass| pass.flags)
            .find(|(usage, _)| flag_name(usage) == wanted)
            .ok_or_else(|| Failure::Usage(format!("unknown argument `{arg}`")))?;
        let name = flag_name(usage);
        if name == "--help" {
            args.help = true;
            return Ok(args);
        }
        let mut values = Vec::new();
        for placeholder in usage.split(' ').skip(1) {
            let value = raw.next().ok_or_else(|| Failure::Usage(missing_value(usage)))?;
            check_value(name, placeholder, &value)?;
            values.push(value);
        }
        args.given.push((name, values));
    }
    if args.has("--bench-subset") && !args.has("--bench-baseline") {
        return Err(Failure::Usage("--bench-subset requires --bench-baseline".into()));
    }
    Ok(args)
}

/// Rejects a malformed value: a `SEED` is an integer, an `F` a positive
/// number.
fn check_value(flag: &str, placeholder: &str, raw: &str) -> Result<(), Failure> {
    let want = match placeholder {
        "SEED" if raw.parse::<u64>().is_err() => "an integer seed",
        "F" if !raw.parse::<f64>().is_ok_and(|f| f > 0.0) => "a positive number",
        _ => return Ok(()),
    };
    Err(Failure::Usage(format!("{flag} needs {want}")))
}

fn missing_value(usage: &str) -> String {
    let (name, shape) = usage.split_once(' ').expect("only a flag that takes values misses one");
    if !shape.contains(' ') {
        return format!("{name} needs a value");
    }
    let nouns: Vec<&str> =
        shape.split(' ').map(|v| if v == "SEED" { "a seed" } else { "a directory" }).collect();
    format!("{name} needs {} (`{usage}`)", nouns.join(" and "))
}

/// Why a run stopped; `main` maps each kind to its exit status.
enum Failure {
    /// A pass's gate rejected the run (exit 1).
    Gate(String),
    /// A malformed command line (exit 2, with the usage text).
    Usage(String),
    /// Reading an input or writing an artifact failed (exit 2).
    Io(String),
}

/// Maps an error to a [`Failure::Io`] that says what was being done.
fn io_err<E: std::fmt::Display>(doing: impl std::fmt::Display) -> impl FnOnce(E) -> Failure {
    move |e| Failure::Io(format!("{doing}: {e}"))
}

fn gate<T>(msg: impl Into<String>) -> Result<T, Failure> {
    Err(Failure::Gate(msg.into()))
}

/// One file a pass writes.
struct Artifact {
    path: PathBuf,
    bytes: Vec<u8>,
}

impl Artifact {
    fn new(path: PathBuf, bytes: impl Into<Vec<u8>>) -> Self {
        Self { path, bytes: bytes.into() }
    }

    /// Writes the file, creating its directory. An empty artifact is a
    /// failed pass, not a file to leave behind.
    fn write(&self) -> Result<(), Failure> {
        if self.bytes.is_empty() {
            return gate(format!("{}: refusing to write an empty artifact", self.path.display()));
        }
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir).map_err(io_err(format!("creating {}", dir.display())))?;
        }
        std::fs::write(&self.path, &self.bytes)
            .map_err(io_err(format!("writing {}", self.path.display())))?;
        eprintln!("wrote {}", self.path.display());
        Ok(())
    }
}

fn main() {
    quiet_injected_panics();
    let status = match run_selected() {
        Ok(()) => return,
        Err(Failure::Gate(msg)) => {
            eprintln!("{msg}");
            1
        }
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{}", usage());
            2
        }
        Err(Failure::Io(msg)) => {
            eprintln!("error: {msg}");
            2
        }
    };
    std::process::exit(status);
}

/// Runs each selected pass in table order and writes the artifacts it
/// made, those made before a failing gate included, so the failure can
/// be inspected.
fn run_selected() -> Result<(), Failure> {
    let args = parse(std::env::args().skip(1))?;
    if args.help {
        println!("{}", usage());
        return Ok(());
    }
    eprintln!(
        "reproduce: fraction {} on simulated {} (paper testbed: 14 nodes)",
        args.fraction(),
        MachineConfig::xeon_e5645().name
    );
    let mut runs: Vec<Run> = PASSES
        .iter()
        .filter(|pass| pass.flags.iter().any(|(usage, _)| args.has(flag_name(usage))))
        .filter_map(|pass| pass.run)
        .collect();
    if runs.is_empty() {
        runs.push(paper_sections);
    }
    for run in runs {
        let mut artifacts = Vec::new();
        let verdict = run(&args, &mut artifacts);
        for artifact in &artifacts {
            artifact.write()?;
        }
        verdict?;
    }
    Ok(())
}

/// Keeps injected-fault panics off the console: the engine catches and
/// retries them, and the chaos campaigns inject them on purpose. Every
/// other panic reaches the default hook.
fn quiet_injected_panics() {
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
}

/// Pushes `DIR/NAME.json` when `dir` is given: an array of objects, one
/// per row, with `fields` filling each object.
fn save_json<T>(
    out: &mut Vec<Artifact>,
    dir: Option<&Path>,
    name: &str,
    rows: &[T],
    fields: impl Fn(&mut ObjectWriter<'_>, &T),
) {
    if let Some(dir) = dir {
        let mut json = String::from("[");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str("\n  ");
            let mut o = ObjectWriter::new(&mut json);
            fields(&mut o, row);
            o.finish();
        }
        json.push_str("\n]\n");
        out.push(Artifact::new(dir.join(format!("{name}.json")), json));
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

/// Pushes one traced workload's artifacts: its Chrome trace and metrics
/// summary into `dir`, and with `profile_dir` its profile (`.folded`,
/// `.critpath.txt`, `.util.txt`) plus a busy-workers counter track in
/// the trace. Returns the profile for callers that gate on it.
fn export_session(
    out: &mut Vec<Artifact>,
    session: &TraceSession,
    detail: &str,
    dir: &Path,
    profile_dir: Option<&Path>,
) -> Option<bdb_profile::Profile> {
    let stem = bdb_telemetry::file_stem(&session.name);
    let profile = profile_dir.map(|pdir| {
        let profile = bdb_profile::Profile::from_events(&session.recorder.events());
        out.push(Artifact::new(pdir.join(format!("{stem}.folded")), profile.folded()));
        out.push(Artifact::new(pdir.join(format!("{stem}.critpath.txt")), profile.critpath_text()));
        out.push(Artifact::new(pdir.join(format!("{stem}.util.txt")), profile.util_text()));
        profile
    });
    let tracks: Vec<bdb_telemetry::CounterTrack> =
        profile.iter().map(bdb_profile::Profile::concurrency_track).collect();
    out.push(Artifact::new(
        dir.join(format!("{stem}.trace.json")),
        session.trace_json_with_tracks(&tracks),
    ));
    out.push(Artifact::new(dir.join(format!("{stem}.metrics.txt")), session.metrics_summary()));
    println!("  {:<20} {detail}", session.name);
    if let Some(p) = &profile {
        println!("  {:<20} {}", "", p.critical_summary().render());
    }
    profile
}

/// Runs an instrumented pass of representative workloads, pushing a
/// Chrome trace-event JSON (loadable at <https://ui.perfetto.dev>) and a
/// plain-text metrics summary per workload into `--trace DIR`. With
/// `--profile DIR`, each workload also gets profiling artifacts (see
/// [`export_session`]); traces fall back to that directory when
/// `--trace` was not given.
fn trace_pass(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    use bdb_archsim::SimProbe;
    use bdb_graph::{label_propagation_instrumented, pagerank_instrumented, PageRankConfig};
    use bdb_kvstore::{Store, StoreConfig};
    use bdb_mapreduce::jobs::{Sort, WordCount};
    use bdb_mapreduce::Engine;
    use bdb_mlkit::KMeans;
    use bdb_serving::loadgen::{run_closed_loop_sampled, PrometheusSampler};
    use bdb_serving::search::SearchServer;
    use bdb_sql::expr::{col, lit};
    use bdb_sql::kernel::{hash_join_instrumented, select_instrumented};
    use bdb_sql::ColumnarTable;

    section("Telemetry traces — Chrome trace JSON + metrics per workload");
    let profile_dir = args.path("--profile");
    let dir =
        args.path("--trace").or(profile_dir).expect("the trace row runs only with a directory");
    let f = args.fraction().max(0.05);
    let export = |out: &mut Vec<Artifact>, session: &TraceSession, detail: &str| {
        export_session(out, session, detail, dir, profile_dir)
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
    let (_, stats) = engine.run_traced(&WordCount, &lines, &mut probe);
    if let Some(cp) = &stats.critical_path {
        println!("  {:<20} job: {}", "", cp.render());
    }
    if let Some(profile) = export(out, &session, &stats.phase_breakdown()) {
        // Profiling contract, enforced in-binary so CI catches span
        // coverage regressions: the WordCount critical path must cover
        // ≥90% of wall-clock, and the blame table must partition it.
        let s = profile.critical_summary();
        if s.coverage < 0.90 {
            return gate(format!(
                "profile FAIL: WordCount critical path covers only {:.1}% of wall \
                 (need >= 90%): span coverage regressed",
                s.coverage * 100.0
            ));
        }
        let blamed: u64 = profile.critical.blame.iter().map(|(_, us)| *us).sum();
        let drift = blamed.abs_diff(profile.critical.path_us);
        if drift * 100 > profile.critical.path_us {
            return gate(format!(
                "profile FAIL: WordCount blame table sums to {blamed} us but the critical \
                 path is {} us",
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
    let (_, stats) = engine.run_traced(&Sort, &lines, &mut probe);
    if let Some(cp) = &stats.critical_path {
        println!("  {:<20} job: {}", "", cp.render());
    }
    export(out, &session, &stats.phase_breakdown());

    // Graph analytics: PageRank and Connected Components.
    let nodes = (((4_000_f64) * f) as u32).max(256);
    let g =
        bdb_datagen::GraphGenerator::new(bdb_datagen::RmatParams::google_web(), 11).generate(nodes);
    let graph = bdb_graph::CsrGraph::from_edges(g.nodes, &g.edges);

    let session = TraceSession::enabled("PageRank");
    let (_, iters) = pagerank_instrumented(&graph, PageRankConfig::default(), &session.recorder);
    session.metrics.counter("graph.pagerank_iterations").add(u64::from(iters));
    export(out, &session, &format!("{} nodes | {iters} iterations", graph.nodes()));

    let session = TraceSession::enabled("ConnectedComponents");
    let (_, iters) = label_propagation_instrumented(&graph, &session.recorder);
    session.metrics.counter("graph.cc_iterations").add(u64::from(iters));
    export(out, &session, &format!("{} nodes | {iters} rounds", graph.nodes()));

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
    export(out, &session, &format!("{} points | {} iterations", points.len(), model.iterations));

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
        export(out, session, &format!("{requests} requests | {:.0} req/s", report.achieved_rps));
        let body: String =
            scrapes.iter().enumerate().map(|(i, s)| format!("# scrape {i}\n{s}\n")).collect();
        out.push(Artifact::new(
            dir.join(format!("{}.prom.txt", session.name.to_lowercase())),
            body,
        ));
    }

    // Cloud OLTP: LSM store write + read mix with flushes/compactions,
    // in scratch space under the pass's own directory.
    let session = TraceSession::enabled("CloudOLTP");
    let kv_dir = dir.join("oltp-scratch");
    let _ = std::fs::remove_dir_all(&kv_dir);
    let config =
        StoreConfig { memtable_flush_bytes: 64 << 10, max_tables: 4, ..Default::default() };
    let mut store = Store::open_with(&kv_dir, config)
        .map_err(io_err(format!("opening the CloudOLTP store in {}", kv_dir.display())))?;
    store.set_telemetry(session.recorder.clone());
    store.set_metrics(&session.metrics);
    let ops = ((20_000.0 * f) as u32).max(2_000);
    {
        // Top-level phase spans so the profiler attributes the run to
        // load vs read instead of leaving idle gaps.
        let _load = session.recorder.span("kvstore", "oltp-load");
        for i in 0..ops {
            let key = format!("row{i:08}").into_bytes();
            store.put(key, vec![b'v'; 100]).map_err(io_err("CloudOLTP put"))?;
        }
    }
    {
        let _read = session.recorder.span("kvstore", "oltp-read");
        for i in 0..ops {
            // Half present, half absent — exercises the bloom filters.
            let probe_key = format!("row{:08}", u64::from(i) * 2).into_bytes();
            store.get(&probe_key).map_err(io_err("CloudOLTP get"))?;
        }
    }
    let s = store.stats();
    export(
        out,
        &session,
        &format!(
            "{ops} puts + {ops} gets | {} flushes, {} compactions, {} bloom skips",
            s.flushes, s.compactions, s.bloom_skips
        ),
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&kv_dir);

    // Relational query: select + hash join over e-commerce tables.
    let session = TraceSession::enabled("JoinQuery");
    let orders_n = ((8_000.0 * f) as u64).max(500);
    let suite = Suite::with_fraction(args.fraction());
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
            let detail = format!("{} orders | {} joined rows", orders.len(), joined.len());
            export(out, &session, &detail);
            Ok(())
        }
        (Err(e), _) | (_, Err(e)) => gate(format!("trace FAIL: JoinQuery failed: {e}")),
    }
}

/// The paper's tables, figures and shape checks: those given, or all of
/// them under `--all` or when no section is given.
fn paper_sections(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    let all =
        args.has("--all") || !PASSES[0].flags.iter().any(|(usage, _)| args.has(flag_name(usage)));
    let on = |section: &str| all || args.has(section);
    let suite = Suite::with_fraction(args.fraction());
    let machine = MachineConfig::xeon_e5645();
    let json_dir = args.path("--json");

    for (section, print) in [
        ("--table2", table2 as fn()),
        ("--table3", table3),
        ("--table4", table4),
        ("--table5", table5),
        ("--table6", table6),
    ] {
        if on(section) {
            print();
        }
    }

    let mut fig2_rows = Vec::new();
    let mut fig3_rows = Vec::new();
    let mut fig4_rows = Vec::new();
    let mut fig5_rows = Vec::new();
    let mut fig6_rows = Vec::new();

    let need_baseline = on("--fig4") || on("--fig6");
    let baseline = if need_baseline {
        eprintln!("characterizing all 19 workloads at baseline on {}...", machine.name);
        characterize::baseline_reports(&suite, &machine)
    } else {
        Vec::new()
    };

    if on("--fig2") {
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
        save_json(out, json_dir, "fig2", &fig2_rows, |o, r| {
            o.field_str("workload", &r.workload);
            field_num(o, "small_l3_mpki", r.small_l3_mpki);
            field_num(o, "large_l3_mpki", r.large_l3_mpki);
            o.field_u64("large_multiplier", r.large_multiplier.into());
        });
    }

    if on("--fig3") {
        eprintln!("figure 3: native + traced sweeps over 5 multipliers x 19 workloads...");
        fig3_rows = characterize::figure3(&suite, &machine);
        print_fig3(&fig3_rows);
        save_json(out, json_dir, "fig3", &fig3_rows, |o, r| {
            o.field_str("workload", &r.workload).field_u64("multiplier", r.multiplier.into());
            field_num(o, "mips", r.mips);
            field_num(o, "speedup", r.speedup);
            field_num(o, "l3_mpki", r.l3_mpki);
        });
    }

    if on("--fig4") {
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
        save_json(out, json_dir, "fig4", &fig4_rows, |o, r| {
            o.field_str("name", &r.name);
            field_num(o, "load", r.load);
            field_num(o, "store", r.store);
            field_num(o, "branch", r.branch);
            field_num(o, "int", r.int);
            field_num(o, "fp", r.fp);
            field_num(o, "int_fp_ratio", r.int_fp_ratio);
        });
    }

    if on("--fig5") {
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
        save_json(out, json_dir, "fig5", &fig5_rows, |o, r| {
            o.field_str("name", &r.name);
            field_num(o, "fp_e5310", r.fp_e5310);
            field_num(o, "fp_e5645", r.fp_e5645);
            field_num(o, "int_e5310", r.int_e5310);
            field_num(o, "int_e5645", r.int_e5645);
        });
    }

    if on("--fig6") {
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
        save_json(out, json_dir, "fig6", &fig6_rows, |o, r| {
            o.field_str("name", &r.name);
            field_num(o, "l1i_mpki", r.l1i_mpki);
            field_num(o, "l2_mpki", r.l2_mpki);
            field_num(o, "l3_mpki", r.l3_mpki);
            field_num(o, "itlb_mpki", r.itlb_mpki);
            field_num(o, "dtlb_mpki", r.dtlb_mpki);
        });
    }

    if on("--checks") {
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
    Ok(())
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
/// The pass gates itself: the steady phase must
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
fn slo_pass(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    use bdb_obs::{dash, report, ObsConfig, ObsPipeline, Severity, SteadyThenOverload};
    use bdb_serving::ServiceTimeModel;
    use std::time::Duration;

    const SLO_SEED: u64 = 42;
    const THRESHOLD: Duration = Duration::from_millis(50);
    // Steady horizon = rolling span (8 × 2 s windows) so the
    // rolling-vs-whole-run gate compares the same stationary stretch.
    const STEADY: Duration = Duration::from_secs(16);
    const OVERLOAD: Duration = Duration::from_secs(8);

    section("SLO — online observability over the serving tier");
    let dir = args.path("--slo").expect("the slo row runs only with a directory");

    let serving = [WorkloadId::NutchServer, WorkloadId::OlioServer, WorkloadId::RubisServer];
    let selected: Vec<WorkloadId> =
        match args.path("--bench-subset").map(load_subset).transpose()? {
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
            other => unreachable!("{} is not a serving workload", other.name()),
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

        let load = SteadyThenOverload::run(&times, (400.0, STEADY), (3200.0, OVERLOAD), svc_seed);

        // Gate: the steady phase alone stays quiet and its rolling
        // tails agree with the whole-run histogram.
        let mut quiet = ObsPipeline::new(name, ObsConfig::default_for(THRESHOLD, svc_seed));
        quiet.ingest_phase("steady", 0, &load.steady.records, &model);
        let quiet = quiet.finish();
        if !quiet.alerts.is_empty() {
            return gate(format!(
                "slo FAIL: {name}: steady phase fired {} alert(s)",
                quiet.alerts.len()
            ));
        }
        for q in [0.99, 0.999] {
            let roll = quiet.rolling.percentile(q).as_micros() as u64;
            let whole = quiet.whole.percentile(q).as_micros() as u64;
            let (ri, wi) = (bdb_telemetry::bucket_index(roll), bdb_telemetry::bucket_index(whole));
            if ri.abs_diff(wi) > 1 {
                return gate(format!(
                    "slo FAIL: {name}: steady-state rolling q{q} ({roll}us) disagrees with the \
                     whole-run histogram ({whole}us) by more than one bucket"
                ));
            }
        }

        // The artifact run: steady then shaped overload on one timeline.
        let mut pipe = ObsPipeline::new(name, ObsConfig::default_for(THRESHOLD, svc_seed));
        load.ingest(&mut pipe, &model);
        let obs = pipe.finish();

        // Gate: the shaped overload fires exactly one page alert, and
        // it lands inside the overload phase.
        let pages: Vec<_> = obs.alerts.iter().filter(|a| a.severity == Severity::Page).collect();
        if pages.len() != 1 {
            return gate(format!(
                "slo FAIL: {name}: expected exactly one page alert, got {:?}",
                obs.alerts
            ));
        }
        if obs.alerts.iter().any(|a| a.at_ns <= load.overload_at_ns) {
            return gate(format!(
                "slo FAIL: {name}: an alert fired before the overload phase: {:?}",
                obs.alerts
            ));
        }
        // Gate: every sampled request reconstructs to a complete,
        // correctly linked chain from the flat span stream alone.
        if obs.chains_total == 0 || obs.chains_total != obs.chains_complete {
            return gate(format!(
                "slo FAIL: {name}: only {}/{} sampled chains reconstruct completely",
                obs.chains_complete, obs.chains_total
            ));
        }
        // Gate: the exposition parses under the strict grammar.
        bdb_telemetry::assert_prometheus_grammar(&obs.prometheus);

        let stem = bdb_telemetry::file_stem(name);
        out.push(Artifact::new(dir.join(format!("{stem}.dash.txt")), dash::render(&obs)));
        out.push(Artifact::new(dir.join(format!("{stem}.slo.prom.txt")), obs.prometheus.clone()));
        out.push(Artifact::new(
            dir.join(format!("{stem}.slo.trace.json")),
            bdb_telemetry::chrome_trace_json_with_tracks(name, &obs.spans, None, &obs.tracks),
        ));

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
    println!("slo pass PASS: {} ({} services observed)", path.display(), observations.len());
    out.push(Artifact::new(path, report::render_report(SLO_SEED, &observations)));
    Ok(())
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
/// given seed) and one Chrome trace of lifecycle instants per campaign.
/// Fails if any checker fails or the Cloud-OLTP campaign did not force
/// at least one failover and one read-repair. With `--bench-subset`,
/// runs shortened campaigns (the fast per-PR tier).
fn chaos_pass(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    use bdb_chaos::{oltp_campaign, serving_campaign, wordcount_campaign, OltpCampaignConfig};

    let seed = args.seed("--chaos").expect("the chaos row runs only with a seed");
    let dir = args.path("--chaos").expect("the chaos row runs only with a directory");
    section(&format!("Chaos campaigns — seed {seed}"));

    let short = args.has("--bench-subset");
    let (oltp_config, rounds) = if short {
        eprintln!("subset tier: shortened campaigns");
        (OltpCampaignConfig::short(), 2)
    } else {
        (OltpCampaignConfig::default(), 3)
    };

    let scratch = dir.join("cluster-scratch");
    let _ = std::fs::remove_dir_all(&scratch);
    let oltp = oltp_campaign(seed, &scratch, oltp_config).map_err(io_err("cloud-oltp campaign"))?;
    std::fs::remove_dir_all(&scratch).ok();
    let wordcount = wordcount_campaign(seed, rounds);
    let serving = serving_campaign(seed, rounds);
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
        out.push(Artifact::new(
            dir.join(format!("{stem}.chaos.trace.json")),
            bdb_telemetry::chrome_trace_json(r.campaign, &r.spans, None),
        ));
    }

    // The combined machine-readable report: byte-deterministic, so two
    // runs of the same seed diff clean.
    let mut report = String::new();
    {
        let mut o = ObjectWriter::new(&mut report);
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
    report.push('\n');
    let path = dir.join("chaos_report.json");
    out.push(Artifact::new(path.clone(), report));

    // In-binary acceptance: the Cloud-OLTP campaign must actually have
    // exercised the recovery machinery, not merely avoided breaking.
    if oltp.stat("failovers").unwrap_or(0) < 1 || oltp.stat("read_repairs").unwrap_or(0) < 1 {
        return gate(format!(
            "chaos FAIL: cloud-oltp forced {} failover(s) and {} read-repair(s); need >= 1 of each",
            oltp.stat("failovers").unwrap_or(0),
            oltp.stat("read_repairs").unwrap_or(0)
        ));
    }
    if failed {
        return gate("chaos FAIL: an invariant checker failed (see FAIL rows above)");
    }
    println!(
        "chaos PASS: {} campaigns, {} checkers, report {}",
        reports.len(),
        reports.iter().map(|r| r.checkers.len()).sum::<usize>(),
        path.display()
    );
    Ok(())
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
/// `timeline.txt`. Fails on any gate. With `--bench-subset`, the
/// scrape is shortened (the fast per-PR tier).
fn tsdb_pass(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    use bdb_obs::{derive_trace_id, phase_salt, ObsConfig, ObsPipeline, SteadyThenOverload};
    use bdb_serving::queue::RequestOutcome;
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
    let dir = args.path("--tsdb").expect("the tsdb row runs only with a directory");

    let short = args.has("--bench-subset");
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
            .map_err(io_err("opening cluster"))?;
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
                    cluster.rejoin_node(n).map_err(io_err(format!("rejoining node {n}")))?;
                }
            }
        }
        let value = format!("v{i}-t{t_us}").into_bytes();
        cluster
            .put_traced(&key, &value, derive_trace_id(TSDB_SEED, salt, i))
            .map_err(io_err(format!("traced write {i}")))?;
        scraper.scrape_at(&mut db, t_us);
    }
    cluster.reconcile_all().map_err(io_err("final repair"))?;
    scraper.scrape_at(&mut db, t_us + STEP_US);

    let spans = cluster.take_trace_spans();
    let chains = reconstruct_writes(&spans);
    if chains.len() != writes as usize {
        return gate(format!(
            "tsdb FAIL: {} of {writes} traced writes left a span chain",
            chains.len()
        ));
    }
    let incomplete = chains.iter().filter(|c| !c.complete).count();
    if incomplete > 0 {
        return gate(format!(
            "tsdb FAIL: {incomplete} of {writes} span chains are causally incomplete"
        ));
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
        return gate("tsdb FAIL: the cluster run forced no failover");
    }
    std::fs::remove_dir_all(&scratch).ok();

    // The scraped store must hold the replication telemetry the chains
    // imply: a lag gauge per node and the primary's quorum-ack
    // histogram (as expanded _bucket/_count/_sum series).
    for required in ["cluster.replication_lag_bytes", "cluster.quorum_ack_us_count"] {
        if select(&db, required, &[], 0, u64::MAX).is_empty() {
            return gate(format!("tsdb FAIL: required series {required} was never scraped"));
        }
    }

    // --- Serving half: live pipeline and scraped registry in parallel.
    let svc_seed = TSDB_SEED ^ phase_salt("NutchServer");
    let model = bdb_serving::search::SearchServer::build(200, TSDB_SEED).service_model();
    let times = model.sample_times(2048, svc_seed);
    let load = SteadyThenOverload::run(&times, (400.0, steady), (3200.0, overload), svc_seed);

    let obs_config = ObsConfig::default_for(THRESHOLD, svc_seed);
    let (spec, rules, window_us) =
        (obs_config.spec.clone(), obs_config.rules.clone(), obs_config.window.as_micros() as u64);
    let mut pipe = ObsPipeline::new("NutchServer", obs_config);
    load.ingest(&mut pipe, &model);
    let obs = pipe.finish();

    // Replay the same terminal events into a registry, scraping on
    // every window boundary (plus a finer cadence between them), so
    // the stored cumulative counters can answer for the live run.
    let threshold_us = THRESHOLD.as_micros() as u64;
    // (t_ns, bad, completed latency µs) per terminal event.
    let mut terminal: Vec<(u64, bool, Option<u64>)> = Vec::new();
    for (offset_ns, records) in
        [(0, &load.steady.records), (load.overload_at_ns, &load.overload.records)]
    {
        for r in records {
            let Some(t) = r.terminal_ns() else { continue };
            let (bad, latency_us) = match r.outcome {
                RequestOutcome::Completed => {
                    let us = r.latency_ns() / 1_000;
                    (us >= threshold_us, Some(us))
                }
                // Shed or timed out.
                _ => (true, None),
            };
            terminal.push((offset_ns + t, bad, latency_us));
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
        .ok_or_else(|| Failure::Gate("tsdb FAIL: stored serving histogram is empty".into()))?;
    let live_p99 = obs.whole.percentile(0.99).as_micros() as u64;
    let (si, li) = (bdb_telemetry::bucket_index(stored_p99), bdb_telemetry::bucket_index(live_p99));
    if si.abs_diff(li) > 1 {
        return gate(format!(
            "tsdb FAIL: stored p99 ({stored_p99}us) disagrees with the live window ring \
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
        return gate(format!(
            "tsdb FAIL: recording-rule replay fired {:?}, the live engine fired {:?}",
            replayed.iter().map(|a| (&a.rule, a.window_index)).collect::<Vec<_>>(),
            obs.alerts.iter().map(|a| (&a.rule, a.window_index)).collect::<Vec<_>>(),
        ));
    }

    // Gate + artifact: the snapshot is self-describing — reloading it
    // and snapshotting again must reproduce the bytes exactly.
    let bytes = db.snapshot_bytes();
    let reloaded = Tsdb::from_snapshot_bytes(&bytes, TsdbConfig::default())
        .map_err(|e| Failure::Gate(format!("tsdb FAIL: snapshot does not reload: {e}")))?;
    if reloaded.snapshot_bytes() != bytes {
        return gate("tsdb FAIL: snapshot round-trip is not byte-identical");
    }
    let bytes_len = bytes.len();
    out.push(Artifact::new(dir.join("tsdb_snapshot.bin"), bytes));

    for node in node_names.iter().map(String::as_str).chain(["serving"]) {
        let path = dir.join(if node == "serving" {
            "serving.dash.txt".to_owned()
        } else {
            format!("node-{node}.dash.txt")
        });
        out.push(Artifact::new(path, render_node_dashboard(&db, node, DASH_WIDTH)));
    }
    out.push(Artifact::new(dir.join("timeline.txt"), render_timeline(&events, &chains)));

    let acked = chains.iter().filter(|c| c.acked).count();
    let scrapes = series_of("serving.requests_total").len();
    println!(
        "tsdb pass PASS: {} series in {bytes_len} bytes, {scrapes} serving scrapes, \
         {acked}/{writes} chains acked, stored p99 {stored_p99}us vs live {live_p99}us, \
         {} alert(s) replayed exactly",
        db.series_count(),
        replayed.len(),
    );
    Ok(())
}

/// Resolves the representative subset committed in a `charmap.json`
/// into workload ids, preserving the artifact's (sorted) order.
fn load_subset(path: &Path) -> Result<(Vec<String>, Vec<WorkloadId>), Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(io_err(format!("reading subset {}", path.display())))?;
    let baseline = bdb_charmap::report::Baseline::parse(&text).map_err(io_err(path.display()))?;
    let ids = baseline
        .subset
        .iter()
        .map(|name| {
            WorkloadId::ALL.iter().copied().find(|id| id.name() == name).ok_or_else(|| {
                Failure::Io(format!("{}: subset names unknown workload {name:?}", path.display()))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok((baseline.subset, ids))
}

/// Collects the BENCH_RESULTS.json artifact and, when a baseline is
/// given, gates the run on it (drift beyond [`TOLERANCE_PCT`] fails).
/// With `--bench-subset`, only the representative workloads from the
/// committed charmap are run and gated — the fast per-PR tier.
fn bench_results(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    use bdb_bench::results::{
        collect, compare_json, compare_json_subset, DEFAULT_WORKLOADS, TOLERANCE_PCT,
    };

    section("BENCH_RESULTS — simulated performance artifact");
    let subset = args.path("--bench-subset").map(load_subset).transpose()?;
    let ids: Vec<WorkloadId> = match &subset {
        Some((names, ids)) => {
            eprintln!("representative subset: {}", names.join(", "));
            ids.clone()
        }
        None => DEFAULT_WORKLOADS.to_vec(),
    };
    eprintln!("collecting {} workloads at fraction {}...", ids.len(), args.fraction());
    let results = collect(args.fraction(), &ids);
    let current = results.to_json();
    let mut t = TextTable::new(&["workload", "MIPS", "L1I", "L2", "L3 MPKI", "phases"]);
    for w in &results.workloads {
        t.row(&[
            w.name.clone(),
            fnum(w.mips),
            fnum(w.mpki[0]),
            fnum(w.mpki[2]),
            fnum(w.mpki[3]),
            w.phases.len().to_string(),
        ]);
    }
    println!("{}", t.render());

    if let Some(path) = args.path("--bench-json") {
        out.push(Artifact::new(path.to_owned(), current.clone()));
    }
    if let Some(path) = args.path("--bench-baseline") {
        let baseline = std::fs::read_to_string(path)
            .map_err(io_err(format!("reading baseline {}", path.display())))?;
        let drifts = match &subset {
            Some((names, _)) => compare_json_subset(&baseline, &current, TOLERANCE_PCT, names),
            None => compare_json(&baseline, &current, TOLERANCE_PCT),
        }
        .map_err(io_err("bench-check"))?;
        if !drifts.is_empty() {
            let listed: String = drifts.iter().map(|d| format!("\n  {d}")).collect();
            return gate(format!(
                "bench-check FAIL: {} metric(s) drifted beyond {TOLERANCE_PCT}% of {}:{listed}",
                drifts.len(),
                path.display()
            ));
        }
        println!(
            "bench-check PASS: all gated metrics within {TOLERANCE_PCT}% of {}{}",
            path.display(),
            if subset.is_some() { " (representative subset)" } else { "" }
        );
    }
    Ok(())
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
///   stability rule against the committed artifact.
fn charmap_pass(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    use bdb_bench::results::DEFAULT_WORKLOADS;
    use bdb_charmap::{analyze, validate_baseline, DEFAULT_SEED, VARIANCE_TARGET};

    section("Workload characterization map — PCA + clustering + subset");
    // Read the committed baseline up front so an unreadable path fails
    // before the expensive characterization pass, not after.
    let committed = match args.path("--charmap-baseline") {
        Some(path) => Some((
            path,
            std::fs::read_to_string(path)
                .map_err(io_err(format!("reading charmap baseline {}", path.display())))?,
        )),
        None => None,
    };
    eprintln!(
        "characterizing {} workloads at fraction {} (seed {DEFAULT_SEED})...",
        DEFAULT_WORKLOADS.len(),
        args.fraction()
    );
    let input = bdb_bench::charmap::analysis_input(args.fraction(), &DEFAULT_WORKLOADS);
    let map =
        analyze(&input, DEFAULT_SEED).map_err(|e| Failure::Gate(format!("charmap FAIL: {e}")))?;

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
        return gate(format!(
            "charmap FAIL: retains only {:.2}% variance (target {:.0}%)",
            map.variance_retained * 100.0,
            VARIANCE_TARGET * 100.0
        ));
    }
    if map.subset.is_empty() || map.subset.len() >= map.workloads.len() {
        return gate(format!(
            "charmap FAIL: subset degenerate: {} representatives for {} workloads",
            map.subset.len(),
            map.workloads.len()
        ));
    }

    if let Some(dir) = args.path("--charmap") {
        out.push(Artifact::new(dir.join("charmap.txt"), map.to_text()));
        out.push(Artifact::new(dir.join("charmap.json"), map.to_json()));
    }

    if let Some((path, committed)) = &committed {
        validate_baseline(&map, committed)
            .map_err(|e| Failure::Gate(format!("charmap-check FAIL: {e}")))?;
        println!(
            "charmap-check PASS: subset stable against {} (k = {}, subset: {})",
            path.display(),
            map.k,
            map.subset.join(", ")
        );
    }
    Ok(())
}
