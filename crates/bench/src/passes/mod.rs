//! The passes of the `reproduce` binary: the paper's tables and figures,
//! telemetry traces and profiles, the BENCH_RESULTS.json performance
//! artifact, the workload characterization map, and the SLO, chaos and
//! time-series passes, one module each.
//!
//! Every flag is a row of `PASSES`; [`usage`] prints the text generated
//! from it and [`run`] parses a command line and runs the passes it
//! selects. A pass never exits: it returns a [`Failure`], whose
//! [`Failure::exit_code`] is the binary's exit status.

use bigdatabench::MachineConfig;
use std::path::{Path, PathBuf};

mod bench;
mod chaos;
mod charmap;
mod paper;
mod slo;
mod trace;
mod tsdb;

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
        run: Some(paper::run),
    },
    Pass {
        flags: &[
            ("--fraction F", "scale library inputs by F (default 0.25, at most 100)"),
            ("--json DIR", "write the paper figures as JSON into DIR"),
            ("--help", "this text (also -h)"),
        ],
        artifacts: &[],
        seed_fixed: false,
        run: None,
    },
    Pass {
        flags: &[
            ("--trace DIR", "instrumented run of ten representative workloads"),
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
        run: Some(trace::run),
    },
    Pass {
        flags: &[("--bench-json PATH", "write the versioned performance artifact to PATH")],
        artifacts: &["BENCH_RESULTS.json"],
        seed_fixed: true,
        run: Some(bench::run),
    },
    Pass {
        flags: &[("--charmap DIR", "characterization map: metric vectors -> PCA -> clusters")],
        artifacts: &["charmap.txt", "charmap.json"],
        seed_fixed: true,
        run: Some(charmap::run),
    },
    Pass {
        flags: &[(
            "--slo DIR",
            "steady then shaped-overload load through the serving SLO engine; fails unless \
             exactly one page alert fires, in the overload",
        )],
        artifacts: &["slo_report.json", "<w>.dash.txt", "<w>.slo.prom.txt", "<w>.slo.trace.json"],
        seed_fixed: true,
        run: Some(slo::run),
    },
    Pass {
        flags: &[(
            "--chaos SEED DIR",
            "seeded fault campaigns on the replicated OLTP store, WordCount and the serving \
             tier; fails if an invariant checker fails or no failover and read-repair happened",
        )],
        artifacts: &["chaos_report.json", "<c>.chaos.trace.json"],
        seed_fixed: true,
        run: Some(chaos::run),
    },
    Pass {
        flags: &[(
            "--tsdb DIR",
            "scrape a faulty cluster and a serving overload into the time-series store; fails \
             on an incomplete write chain, p99 drift or diverging replayed alerts",
        )],
        artifacts: &["tsdb_snapshot.bin", "node-<n>.dash.txt", "serving.dash.txt", "timeline.txt"],
        seed_fixed: true,
        run: Some(tsdb::run),
    },
];

fn flag_name(usage: &'static str) -> &'static str {
    usage.split_once(' ').map_or(usage, |(name, _)| name)
}

/// The usage text, generated from `PASSES`.
#[must_use]
pub fn usage() -> String {
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
    Ok(args)
}

/// The largest `--fraction`. Workload baselines stay far below 2^32
/// units, so `baseline × MAX_FRACTION × 32` (the largest multiplier)
/// stays inside `u64`.
pub const MAX_FRACTION: f64 = 100.0;

/// Rejects a malformed value: a `SEED` is an integer, an `F` a positive
/// number no larger than [`MAX_FRACTION`].
fn check_value(flag: &str, placeholder: &str, raw: &str) -> Result<(), Failure> {
    let want = match placeholder {
        "SEED" if raw.parse::<u64>().is_err() => "an integer seed".to_owned(),
        "F" if !raw.parse::<f64>().is_ok_and(|f| f.is_finite() && f > 0.0 && f <= MAX_FRACTION) => {
            format!("a finite positive number no larger than {MAX_FRACTION}")
        }
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

/// Why a run stopped; [`Failure::exit_code`] maps each kind to the
/// binary's exit status.
pub enum Failure {
    /// A pass's gate rejected the run (exit 1).
    Gate(String),
    /// A malformed command line (exit 2, with the usage text).
    Usage(String),
    /// Reading an input or writing an artifact failed (exit 2).
    Io(String),
}

impl Failure {
    /// The exit status `reproduce` ends with: 1 for a failed gate, 2
    /// for a usage or I/O error.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            Failure::Gate(_) => 1,
            Failure::Usage(_) | Failure::Io(_) => 2,
        }
    }
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

/// Parses the command line `raw` (without the program name), then runs
/// each selected pass in table order and writes the artifacts it made,
/// those made before a failing gate included, so the failure can be
/// inspected. `--help` prints [`usage`] and runs nothing.
///
/// # Errors
///
/// The first [`Failure`]: a malformed command line, a failed gate, or
/// an input or artifact that could not be read or written.
pub fn run(raw: impl Iterator<Item = String>) -> Result<(), Failure> {
    let args = parse(raw)?;
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
        runs.push(paper::run);
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

fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_gate_exits_1_and_a_usage_or_io_error_2() {
        assert_eq!(Failure::Gate("charmap FAIL".into()).exit_code(), 1);
        assert_eq!(Failure::Usage("unknown argument".into()).exit_code(), 2);
        assert_eq!(Failure::Io("writing d".into()).exit_code(), 2);
    }
}
