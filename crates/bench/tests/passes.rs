//! Every artifact pass of `reproduce`, run the way the tier-1 gate needs
//! it. Each row is one invocation of the built binary: it must exit 0
//! (its in-binary gates hold), print its PASS line and leave every
//! listed artifact non-empty in its directory. A row fixed by the seed
//! runs twice, in two processes, and every file of the two directories
//! must be byte-identical.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::Path;
use std::process::Command;

const CHARMAP: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../charmap.json");
const BENCH_RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_RESULTS.json");

struct Row {
    /// Arguments; `DIR` stands for the row's output directory, and a
    /// `DIR/` prefix for a file in it.
    args: &'static [&'static str],
    /// Files the run must leave non-empty in `DIR`.
    artifacts: Vec<String>,
    /// Run twice and require byte-identical directories.
    seed_fixed: bool,
    /// A line stdout must contain.
    pass_line: &'static str,
    /// Checks on the artifacts' content beyond being non-empty.
    check: fn(&Path),
}

fn names(stems: &[&str], suffixes: &[&str]) -> Vec<String> {
    stems.iter().flat_map(|stem| suffixes.iter().map(move |s| format!("{stem}.{s}"))).collect()
}

fn rows() -> Vec<Row> {
    let chaos = |args: &'static [&'static str]| Row {
        args,
        artifacts: names(&["cloud-oltp", "wordcount", "nutch-serving"], &["chaos.trace.json"])
            .into_iter()
            .chain(["chaos_report.json".to_owned()])
            .collect(),
        seed_fixed: false,
        pass_line: "chaos PASS",
        check: |_| {},
    };
    vec![
        // The binary also gates WordCount's critical-path coverage (>= 90%).
        Row {
            args: &["--fraction", "0.1", "--profile", "DIR"],
            artifacts: names(
                &[
                    "wordcount",
                    "sort",
                    "pagerank",
                    "connectedcomponents",
                    "kmeans",
                    "nutchserver",
                    "cloudoltp",
                    "joinquery",
                ],
                &["folded", "critpath.txt", "util.txt"],
            ),
            seed_fixed: false,
            pass_line: "Telemetry traces",
            check: |_| {},
        },
        Row {
            args: &["--fraction", "0.02", "--charmap", "DIR", "--charmap-baseline", CHARMAP],
            artifacts: vec!["charmap.txt".into(), "charmap.json".into()],
            seed_fixed: true,
            pass_line: "charmap-check PASS",
            check: |_| {},
        },
        Row {
            args: &["--slo", "DIR"],
            artifacts: names(
                &["nutch-server", "olio-server", "rubis-server"],
                &["dash.txt", "slo.prom.txt", "slo.trace.json"],
            )
            .into_iter()
            .chain(["slo_report.json".to_owned()])
            .collect(),
            seed_fixed: true,
            pass_line: "slo pass PASS",
            check: |dir| {
                // The overload phase fires the page rule for every service.
                for stem in ["nutch-server", "olio-server", "rubis-server"] {
                    let dash = std::fs::read_to_string(dir.join(format!("{stem}.dash.txt")))
                        .expect("dashboard written");
                    assert!(dash.contains("[page] fast-burn"), "{stem} dashboard shows the page");
                }
                pin(dir, "slo_report.json", 2_648, 0xfb2a_7b69_f782_5cbd);
            },
        },
        Row {
            args: &[
                "--fraction",
                "0.02",
                "--bench-json",
                "DIR/BENCH_RESULTS.json",
                "--bench-baseline",
                BENCH_RESULTS,
            ],
            artifacts: vec!["BENCH_RESULTS.json".into()],
            seed_fixed: true,
            pass_line: "bench-check PASS",
            check: |_| {},
        },
        Row { seed_fixed: true, ..chaos(&["--chaos", "7", "DIR"]) },
        chaos(&["--chaos", "21", "DIR"]),
        chaos(&["--chaos", "1337", "DIR"]),
        Row {
            args: &["--tsdb", "DIR"],
            artifacts: names(&["node-0", "node-1", "node-2", "node-3", "serving"], &["dash.txt"])
                .into_iter()
                .chain(["tsdb_snapshot.bin".into(), "timeline.txt".into()])
                .collect(),
            seed_fixed: true,
            pass_line: "tsdb pass PASS",
            check: |dir| {
                let timeline = std::fs::read_to_string(dir.join("timeline.txt")).expect("timeline");
                assert!(timeline.contains("failover"), "the run forced a failover: {timeline}");
                assert!(timeline.contains("48 of 48 chains causally complete"), "{timeline}");
                let snapshot = std::fs::read(dir.join("tsdb_snapshot.bin")).expect("snapshot");
                assert_eq!(&snapshot[..8], b"BDBTSDB1", "the snapshot header is the contract");
                pin(dir, "tsdb_snapshot.bin", 25_598, 0x30f2_4367_87fc_27f0);
            },
        },
    ]
}

/// Asserts that `dir/name` has `len` bytes whose 64-bit FNV-1a is
/// `hash`: the seed fixes the artifact, so it must match on every host,
/// not only between two runs of one build.
fn pin(dir: &Path, name: &str, len: usize, hash: u64) {
    let bytes = std::fs::read(dir.join(name)).expect("pinned artifact written");
    let got = bdb_archsim::layout::fnv1a(&bytes);
    assert_eq!(
        (bytes.len(), got),
        (len, hash),
        "{name} is {} bytes, FNV-1a {got:#018x}",
        bytes.len()
    );
}

/// Runs `row` with its output in `dir` and checks what it wrote.
fn run(row: &Row, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let args = row.args.iter().map(|a| match a.strip_prefix("DIR") {
        Some(file) => {
            let mut path = dir.as_os_str().to_owned();
            path.push(file);
            path
        }
        None => OsString::from(a),
    });
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{:?} exited {:?}:\n{stdout}\n{}",
        row.args,
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(row.pass_line), "{:?} prints {:?}:\n{stdout}", row.args, row.pass_line);
    for name in &row.artifacts {
        let len = std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
        assert!(len > 0, "{:?} leaves {name} non-empty", row.args);
    }
    (row.check)(dir);
}

/// Every file in `dir` with its bytes, by name.
fn files(dir: &Path) -> BTreeMap<OsString, Vec<u8>> {
    let entries = std::fs::read_dir(dir).expect("output directory");
    let entries = entries.map(|entry| entry.expect("directory entry"));
    entries.map(|e| (e.file_name(), std::fs::read(e.path()).expect("artifact readable"))).collect()
}

#[test]
fn every_pass_row_gates_and_writes_its_artifacts() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("reproduce-passes-{}", std::process::id()));
    for (i, row) in rows().iter().enumerate() {
        let dir = base.join(format!("row-{i}"));
        run(row, &dir);
        if row.seed_fixed {
            let again = base.join(format!("row-{i}-again"));
            run(row, &again);
            let (first, second) = (files(&dir), files(&again));
            assert!(first.keys().eq(second.keys()), "{:?} writes the same files", row.args);
            for (name, bytes) in &first {
                assert!(second[name] == *bytes, "{:?}: {name:?} differs between runs", row.args);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
