//! Every artifact pass of `reproduce`, run the way the tier-1 gate needs
//! it. Each row is one invocation of the built binary: it must exit 0
//! (its in-binary gates hold), print its line and pass its content
//! checks. A row whose output varies between runs must leave each
//! listed file non-empty. A row fixed by the seed runs twice, in two
//! processes, and each run must write exactly the files [`PINS`] lists
//! for it, each matching its pin.
//!
//! A failing pin prints the table line that matches the new bytes, to
//! paste in when the change is intended. A committed artifact is
//! regenerated instead, with the recipe in the README.

use bdb_archsim::layout::fnv1a;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::Path;
use std::process::Command;

/// The repository root, where the committed artifacts live.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// What one seed-fixed file must equal.
enum Pin {
    /// The committed file of the same name at the repository root,
    /// byte for byte.
    Committed,
    /// A length and a 64-bit FNV-1a. The seed fixes the file, so they
    /// hold on every host, not only between two runs of one build.
    Fnv(usize, u64),
}

/// Every file a seed-fixed row writes: the row's name, the file, its pin.
const PINS: &[(&str, &str, Pin)] = &[
    ("charmap", "charmap.json", Pin::Committed),
    ("charmap", "charmap.txt", Pin::Fnv(4_308, 0x7631_7fd2_cc58_fba0)),
    ("slo", "slo_report.json", Pin::Fnv(2_648, 0xfb2a_7b69_f782_5cbd)),
    ("slo", "nutch-server.dash.txt", Pin::Fnv(1_625, 0x8264_719e_2f61_6f1e)),
    ("slo", "nutch-server.slo.prom.txt", Pin::Fnv(9_365, 0x75b9_bcc1_0ab3_e54d)),
    ("slo", "nutch-server.slo.trace.json", Pin::Fnv(8_779_177, 0xd079_0972_269b_6af0)),
    ("slo", "olio-server.dash.txt", Pin::Fnv(1_624, 0xf971_87cb_9d74_c317)),
    ("slo", "olio-server.slo.prom.txt", Pin::Fnv(10_524, 0xeb9b_d47b_cb09_b599)),
    ("slo", "olio-server.slo.trace.json", Pin::Fnv(4_750_922, 0x0ba1_f396_e18f_fda7)),
    ("slo", "rubis-server.dash.txt", Pin::Fnv(1_625, 0x5a39_ed4b_1261_e389)),
    ("slo", "rubis-server.slo.prom.txt", Pin::Fnv(10_956, 0x9dc4_b6bc_a39e_0f83)),
    ("slo", "rubis-server.slo.trace.json", Pin::Fnv(7_885_990, 0xcf8b_1569_511d_aeaa)),
    ("bench", "BENCH_RESULTS.json", Pin::Committed),
    ("chaos 7", "chaos_report.json", Pin::Fnv(2_184, 0xb80a_7326_d401_317d)),
    ("chaos 7", "cloud-oltp.chaos.trace.json", Pin::Fnv(6_670, 0xb7f0_dffb_d499_519e)),
    ("chaos 7", "nutch-serving.chaos.trace.json", Pin::Fnv(4_086_923, 0x95da_a4f2_4bd9_cb31)),
    ("chaos 7", "wordcount.chaos.trace.json", Pin::Fnv(559, 0xdce4_5c7d_313a_d51e)),
    ("chaos 21", "chaos_report.json", Pin::Fnv(2_163, 0x8caa_9f0b_3949_5b3c)),
    ("chaos 21", "cloud-oltp.chaos.trace.json", Pin::Fnv(6_012, 0x0cd5_b9d9_be21_8f58)),
    ("chaos 21", "nutch-serving.chaos.trace.json", Pin::Fnv(4_042_838, 0xabd4_66cf_5e4e_49d5)),
    ("chaos 21", "wordcount.chaos.trace.json", Pin::Fnv(559, 0xdce4_5c7d_313a_d51e)),
    ("chaos 1337", "chaos_report.json", Pin::Fnv(2_194, 0x93ec_239d_d75b_8009)),
    ("chaos 1337", "cloud-oltp.chaos.trace.json", Pin::Fnv(5_879, 0xb2da_b6aa_8438_f7cc)),
    ("chaos 1337", "nutch-serving.chaos.trace.json", Pin::Fnv(4_058_917, 0x8c41_bb98_5a28_c8b9)),
    ("chaos 1337", "wordcount.chaos.trace.json", Pin::Fnv(559, 0xdce4_5c7d_313a_d51e)),
    ("tsdb", "tsdb_snapshot.bin", Pin::Fnv(25_598, 0x30f2_4367_87fc_27f0)),
    ("tsdb", "node-0.dash.txt", Pin::Fnv(509, 0xaeed_73e4_81cd_2dc7)),
    ("tsdb", "node-1.dash.txt", Pin::Fnv(628, 0x81e5_46cc_6b92_9ad1)),
    ("tsdb", "node-2.dash.txt", Pin::Fnv(508, 0xa7bd_c6d7_0936_4ae7)),
    ("tsdb", "node-3.dash.txt", Pin::Fnv(509, 0x1612_e221_2a55_5ed3)),
    ("tsdb", "serving.dash.txt", Pin::Fnv(553, 0xf960_20f1_b30b_d690)),
    ("tsdb", "timeline.txt", Pin::Fnv(5_891, 0xa715_60c5_6b8c_c9b8)),
];

/// What a row's files are checked against.
enum Files {
    /// Output that varies between runs: each named file must be
    /// non-empty.
    NonEmpty(Vec<String>),
    /// Output fixed by the seed: the row's name in [`PINS`].
    Pinned(&'static str),
}

struct Row {
    /// Arguments; `DIR` stands for the row's output directory, and a
    /// `DIR/` prefix for a file in it.
    args: &'static [&'static str],
    files: Files,
    /// A line stdout must contain.
    pass_line: &'static str,
    /// Checks on the artifacts' content that a pin cannot make: a
    /// regenerated pin must still describe a correct run.
    check: fn(&Path),
}

fn names(stems: &[&str], suffixes: &[&str]) -> Vec<String> {
    stems.iter().flat_map(|stem| suffixes.iter().map(move |s| format!("{stem}.{s}"))).collect()
}

fn rows() -> Vec<Row> {
    let chaos = |args, name| Row {
        args,
        files: Files::Pinned(name),
        pass_line: "chaos PASS",
        check: |_| {},
    };
    vec![
        // The binary also gates WordCount's critical-path coverage (>= 90%).
        Row {
            args: &["--fraction", "0.1", "--profile", "DIR"],
            files: Files::NonEmpty(names(
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
            )),
            pass_line: "Telemetry traces",
            check: |_| {},
        },
        // The binary also gates the map's retained variance (>= 85%) and
        // a non-degenerate subset.
        Row {
            args: &["--fraction", "0.02", "--charmap", "DIR"],
            files: Files::Pinned("charmap"),
            pass_line: "charmap PASS",
            check: |_| {},
        },
        Row {
            args: &["--slo", "DIR"],
            files: Files::Pinned("slo"),
            pass_line: "slo pass PASS",
            check: |dir| {
                // The overload phase fires the page rule for every service.
                for stem in ["nutch-server", "olio-server", "rubis-server"] {
                    let dash = std::fs::read_to_string(dir.join(format!("{stem}.dash.txt")))
                        .expect("dashboard written");
                    assert!(dash.contains("[page] fast-burn"), "{stem} dashboard shows the page");
                }
            },
        },
        Row {
            args: &["--fraction", "0.02", "--bench-json", "DIR/BENCH_RESULTS.json"],
            files: Files::Pinned("bench"),
            pass_line: "BENCH_RESULTS",
            check: |_| {},
        },
        chaos(&["--chaos", "7", "DIR"], "chaos 7"),
        chaos(&["--chaos", "21", "DIR"], "chaos 21"),
        chaos(&["--chaos", "1337", "DIR"], "chaos 1337"),
        Row {
            args: &["--tsdb", "DIR"],
            files: Files::Pinned("tsdb"),
            pass_line: "tsdb pass PASS",
            check: |dir| {
                let timeline = std::fs::read_to_string(dir.join("timeline.txt")).expect("timeline");
                assert!(timeline.contains("failover"), "the run forced a failover: {timeline}");
                assert!(timeline.contains("48 of 48 chains causally complete"), "{timeline}");
                let snapshot = std::fs::read(dir.join("tsdb_snapshot.bin")).expect("snapshot");
                assert_eq!(&snapshot[..8], b"BDBTSDB1", "the snapshot header is the contract");
            },
        },
    ]
}

/// Runs `row` with its output in `dir` and checks what it wrote; a
/// mismatched pin adds a message to `failures`.
fn run(row: &Row, dir: &Path, failures: &mut Vec<String>) {
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
    match &row.files {
        Files::NonEmpty(names) => {
            for name in names {
                let len = std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
                assert!(len > 0, "{:?} leaves {name} non-empty", row.args);
            }
        }
        Files::Pinned(row_name) => check_pins(row_name, dir, failures),
    }
    (row.check)(dir);
}

/// Checks the files in `dir` against the pins of row `row`: each listed
/// file must be written and match, and no other file may be written.
fn check_pins(row: &str, dir: &Path, failures: &mut Vec<String>) {
    let mut fail = |msg: String| {
        if !failures.contains(&msg) {
            failures.push(msg);
        }
    };
    let written = files(dir);
    let pins: Vec<_> = PINS.iter().filter(|(r, ..)| *r == row).collect();
    for (_, file, _) in &pins {
        if !written.contains_key(*file) {
            fail(format!("{row}: {file} was not written"));
        }
    }
    for (file, bytes) in &written {
        match pins.iter().find(|(_, f, _)| f == file).map(|(.., pin)| pin) {
            Some(Pin::Committed) => {
                let committed = std::fs::read(Path::new(ROOT).join(file)).expect("committed file");
                if *bytes != committed {
                    fail(format!(
                        "{row}: {file} differs from the committed {file}; if intended, \
                         regenerate it as the README says"
                    ));
                }
            }
            Some(Pin::Fnv(len, hash)) if (bytes.len(), fnv1a(bytes)) == (*len, *hash) => {}
            // Unpinned, or the bytes moved: the line that pins them.
            _ => fail(format!(
                "    (\"{row}\", \"{file}\", Pin::Fnv({}, 0x{})),",
                grouped(&bytes.len().to_string(), 3),
                grouped(&format!("{:016x}", fnv1a(bytes)), 4)
            )),
        }
    }
}

/// `digits` with a `_` between groups of `width`, counted from the
/// right, as the table spells its numbers.
fn grouped(digits: &str, width: usize) -> String {
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(width) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// Every file in `dir` with its bytes, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let entries = std::fs::read_dir(dir).expect("output directory");
    let entries = entries.map(|entry| entry.expect("directory entry"));
    entries
        .map(|e| {
            let name = e.file_name().into_string().expect("UTF-8 artifact name");
            (name, std::fs::read(e.path()).expect("artifact readable"))
        })
        .collect()
}

#[test]
fn every_pass_row_gates_and_writes_its_artifacts() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("reproduce-passes-{}", std::process::id()));
    let mut failures = Vec::new();
    for (i, row) in rows().iter().enumerate() {
        run(row, &base.join(format!("row-{i}")), &mut failures);
        if matches!(row.files, Files::Pinned(_)) {
            run(row, &base.join(format!("row-{i}-again")), &mut failures);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    assert!(
        failures.is_empty(),
        "seed-fixed artifacts differ from their pins; where the change is intended, \
         paste each table line into PINS:\n{}",
        failures.join("\n")
    );
}

#[test]
fn pins_name_each_file_of_a_row_once() {
    for (i, (row, file, _)) in PINS.iter().enumerate() {
        let again = PINS[i + 1..].iter().any(|(r, f, _)| (r, f) == (row, file));
        assert!(!again, "{row}: {file} is pinned twice");
    }
}

#[test]
fn grouped_spells_numbers_as_the_table_does() {
    assert_eq!(grouped("25598", 3), "25_598");
    assert_eq!(grouped("512", 3), "512");
    assert_eq!(grouped("30f2436787fc27f0", 4), "30f2_4367_87fc_27f0");
}
