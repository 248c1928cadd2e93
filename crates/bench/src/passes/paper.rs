//! The paper's evaluation: Tables 2–7, Figures 2–6 and the shape
//! checks against its headline claims. Each figure is one column list
//! that drives both its text table and its `figN.json`.

use super::{section, Args, Artifact, Failure, PASSES};
use crate::table::{fnum, TextTable};
use bdb_archsim::metrics::InstClass;
use bdb_archsim::{CacheConfig, CharacterizationReport};
use bdb_telemetry::json::ObjectWriter;
use bigdatabench::characterize::{self, Fig2Row, Fig3Row};
use bigdatabench::{MachineConfig, Suite, WorkloadId};
use std::path::Path;

/// How a figure column reads in the text table; its JSON field holds
/// the plain value.
enum Show {
    /// Adaptive precision ([`fnum`]).
    Num,
    /// Two decimals.
    Fixed2,
    /// A fraction as a percentage with one decimal.
    Pct,
    /// A data-scale multiplier: `4X` in the table, an integer in JSON.
    Mult,
}

/// One figure column: its text-table header, its JSON key, how it reads
/// and its value.
struct Col<R> {
    head: &'static str,
    key: &'static str,
    show: Show,
    value: fn(&R) -> f64,
}

/// A figure's columns after the row label.
struct Figure<R: 'static> {
    /// `figN`: the JSON file is `figN.json`.
    id: &'static str,
    /// The row label's header and JSON key.
    label: &'static str,
    name: fn(&R) -> &str,
    cols: &'static [Col<R>],
}

impl<R> Figure<R> {
    /// Prints `rows` under `title`, one line per row.
    fn print(&self, title: &str, rows: &[R]) {
        section(title);
        let heads: Vec<&str> =
            std::iter::once(self.label).chain(self.cols.iter().map(|c| c.head)).collect();
        let mut t = TextTable::new(&heads);
        for r in rows {
            let mut cells = vec![(self.name)(r).to_owned()];
            cells.extend(self.cols.iter().map(|c| c.text(r)));
            t.row(&cells);
        }
        println!("{}", t.render());
    }

    /// Pushes `DIR/figN.json` when `dir` is given: an array of objects,
    /// one per row.
    fn save(&self, out: &mut Vec<Artifact>, dir: Option<&Path>, rows: &[R]) {
        let Some(dir) = dir else { return };
        let mut json = String::from("[");
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str("\n  ");
            let mut o = ObjectWriter::new(&mut json);
            o.field_str(self.label, (self.name)(r));
            for c in self.cols {
                let v = (c.value)(r);
                match c.show {
                    Show::Mult => {
                        o.field_u64(c.key, v as u64);
                    }
                    // JSON has no literal for `inf`/`NaN` (Figure 4's
                    // int:fp ratio without FP work): they become `null`.
                    _ if !v.is_finite() => o.field_raw(c.key).push_str("null"),
                    _ => {
                        o.field_f64(c.key, v);
                    }
                }
            }
            o.finish();
        }
        json.push_str("\n]\n");
        out.push(Artifact::new(dir.join(format!("{}.json", self.id)), json));
    }
}

const fn col<R>(head: &'static str, key: &'static str, show: Show, value: fn(&R) -> f64) -> Col<R> {
    Col { head, key, show, value }
}

impl<R> Col<R> {
    fn text(&self, r: &R) -> String {
        let v = (self.value)(r);
        match self.show {
            Show::Num => fnum(v),
            Show::Fixed2 => format!("{v:.2}"),
            Show::Pct => format!("{:.1}%", v * 100.0),
            Show::Mult => format!("{}X", v as u64),
        }
    }
}

const FIG2: Figure<Fig2Row> = Figure {
    id: "fig2",
    label: "workload",
    name: |r| &r.workload,
    cols: &[
        col("small (baseline)", "small_l3_mpki", Show::Num, |r| r.small_l3_mpki),
        col("large (best)", "large_l3_mpki", Show::Num, |r| r.large_l3_mpki),
        col("large mult", "large_multiplier", Show::Mult, |r| r.large_multiplier.into()),
    ],
};

const FIG3: Figure<Fig3Row> = Figure {
    id: "fig3",
    label: "workload",
    name: |r| &r.workload,
    cols: &[
        col("multiplier", "multiplier", Show::Mult, |r| r.multiplier.into()),
        col("MIPS", "mips", Show::Num, |r| r.mips),
        col("speedup", "speedup", Show::Fixed2, |r| r.speedup),
        col("L3 MPKI", "l3_mpki", Show::Num, |r| r.l3_mpki),
    ],
};

/// A row of Figures 4 and 6: a name and its E5645 report.
type Named = (&'static str, CharacterizationReport);

const FIG4: Figure<Named> = Figure {
    id: "fig4",
    label: "name",
    name: |r| r.0,
    cols: &[
        col("load", "load", Show::Pct, |(_, r)| r.counters.mix.fraction(InstClass::Load)),
        col("store", "store", Show::Pct, |(_, r)| r.counters.mix.fraction(InstClass::Store)),
        col("branch", "branch", Show::Pct, |(_, r)| r.counters.mix.fraction(InstClass::Branch)),
        col("int", "int", Show::Pct, |(_, r)| r.counters.mix.fraction(InstClass::Int)),
        col("fp", "fp", Show::Pct, |(_, r)| r.counters.mix.fraction(InstClass::Fp)),
        col("int:fp", "int_fp_ratio", Show::Num, |(_, r)| r.counters.mix.int_to_fp_ratio()),
    ],
};

/// Figure 5's columns read each name's E5310 and E5645 reports.
const FIG5: Figure<(&'static str, [CharacterizationReport; 2])> = Figure {
    id: "fig5",
    label: "name",
    name: |r| r.0,
    cols: &[
        col("FP E5310", "fp_e5310", Show::Num, |(_, [r, _])| r.fp_intensity()),
        col("FP E5645", "fp_e5645", Show::Num, |(_, [_, r])| r.fp_intensity()),
        col("INT E5310", "int_e5310", Show::Num, |(_, [r, _])| r.int_intensity()),
        col("INT E5645", "int_e5645", Show::Num, |(_, [_, r])| r.int_intensity()),
    ],
};

const FIG6: Figure<Named> = Figure {
    id: "fig6",
    label: "name",
    name: |r| r.0,
    cols: &[
        col("L1I", "l1i_mpki", Show::Num, |(_, r)| r.l1i_mpki()),
        col("L2", "l2_mpki", Show::Num, |(_, r)| r.l2_mpki()),
        col("L3", "l3_mpki", Show::Num, |(_, r)| r.l3_mpki()),
        col("ITLB", "itlb_mpki", Show::Num, |(_, r)| r.itlb_mpki()),
        col("DTLB", "dtlb_mpki", Show::Num, |(_, r)| r.dtlb_mpki()),
    ],
};

/// Prints Figure 3's column `key` pivoted by data scale: one line per
/// workload, one cell per multiplier.
fn print_fig3_pivot(title: &str, rows: &[Fig3Row], key: &str) {
    section(title);
    let col = FIG3.cols.iter().find(|c| c.key == key).expect("Figure 3 has the column");
    let labels = characterize::multiplier_labels();
    let heads: Vec<&str> =
        std::iter::once("workload").chain(labels.iter().map(String::as_str)).collect();
    let mut t = TextTable::new(&heads);
    for id in WorkloadId::ALL {
        let mut cells = vec![id.name().to_owned()];
        cells.extend(rows.iter().filter(|r| r.workload == id.name()).map(|r| col.text(r)));
        t.row(&cells);
    }
    println!("{}", t.render());
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
        let entries = |tlb: &CacheConfig| tlb.capacity / tlb.line_size;
        println!(
            "  ITLB {}x{}-way, DTLB {}x{}-way, 4 KiB pages\n",
            entries(&cfg.itlb),
            cfg.itlb.associativity,
            entries(&cfg.dtlb),
            cfg.dtlb.associativity
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

/// The paper's tables, figures and shape checks: those given, or all of
/// them under `--all` or when no section is given.
pub(super) fn run(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    let all = args.has("--all")
        || !PASSES[0].flags.iter().any(|(usage, _)| args.has(super::flag_name(usage)));
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
    let mut fig5_rows = Vec::new();

    // Figures 4, 5 and 6 read one characterization per machine.
    let e5645_rows = if on("--fig4") || on("--fig5") || on("--fig6") {
        eprintln!(
            "characterizing all 19 workloads and 4 suites at baseline on {}...",
            machine.name
        );
        characterize::figure_rows(&suite, &machine)
    } else {
        Vec::new()
    };
    // The E5645 rows when `section` is shown, so a check is judged only
    // with its figure.
    let shown = |section: &str| if on(section) { e5645_rows.as_slice() } else { &[] };

    if on("--fig2") {
        eprintln!("figure 2: native sweeps + small/large characterization...");
        fig2_rows = characterize::figure2(&suite, &machine);
        FIG2.print("Figure 2 — L3 MPKI: small vs large input", &fig2_rows);
        FIG2.save(out, json_dir, &fig2_rows);
    }

    if on("--fig3") {
        eprintln!("figure 3: native + traced sweeps over 5 multipliers x 19 workloads...");
        fig3_rows = characterize::figure3(&suite, &machine);
        print_fig3_pivot("Figure 3-1 — MIPS with data scale (timing model)", &fig3_rows, "mips");
        print_fig3_pivot(
            "Figure 3-2 — speedup with data scale (native, normalized)",
            &fig3_rows,
            "speedup",
        );
        FIG3.save(out, json_dir, &fig3_rows);
    }

    if on("--fig4") {
        FIG4.print("Figure 4 — instruction breakdown", &e5645_rows);
        FIG4.save(out, json_dir, &e5645_rows);
    }

    if on("--fig5") {
        let e5310 = MachineConfig::xeon_e5310();
        eprintln!("figure 5: characterizing again on {}...", e5310.name);
        fig5_rows = characterize::figure_rows(&suite, &e5310)
            .into_iter()
            .zip(&e5645_rows)
            .map(|((name, r10), (_, r45))| (name, [r10, r45.clone()]))
            .collect();
        FIG5.print("Figure 5 — operation intensity (ops per DRAM byte)", &fig5_rows);
        FIG5.save(out, json_dir, &fig5_rows);
    }

    if on("--fig6") {
        FIG6.print("Figure 6 — memory hierarchy MPKI", &e5645_rows);
        FIG6.save(out, json_dir, &e5645_rows);
    }

    if on("--checks") {
        let checks = crate::paper::shape_checks(
            &fig2_rows,
            &fig3_rows,
            shown("--fig4"),
            &fig5_rows,
            shown("--fig6"),
        );
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_column_list_drives_table_cells_and_json() {
        use bdb_archsim::{metrics::InstructionMix, CounterSnapshot};
        let mix =
            InstructionMix { loads: 2, stores: 4, branches: 1, int_ops: 1, ..Default::default() };
        let counters = CounterSnapshot { mix, ..Default::default() };
        let row = ("Grep", CharacterizationReport { counters, ..Default::default() });
        let cells: Vec<String> = FIG4.cols.iter().map(|c| c.text(&row)).collect();
        assert_eq!(cells, ["25.0%", "50.0%", "12.5%", "12.5%", "0.0%", "inf"]);
        let mut out = Vec::new();
        FIG4.save(&mut out, Some(Path::new("d")), &[row.clone(), row]);
        let object = "{\"name\":\"Grep\",\"load\":0.25,\"store\":0.5,\"branch\":0.125,\
                      \"int\":0.125,\"fp\":0.0,\"int_fp_ratio\":null}";
        assert_eq!(out[0].path, Path::new("d/fig4.json"));
        assert_eq!(out[0].bytes, format!("[\n  {object},\n  {object}\n]\n").into_bytes());
    }

    /// The 19 workload rows and `Avg_BigData` of Figures 4–6 at
    /// fraction 0.02, pinned by length and 64-bit FNV-1a. The four
    /// reference-suite rows are left out: their fixed kernel scale makes
    /// them most of a debug run's time.
    #[test]
    fn figure_workload_rows_hold_their_pins() {
        use bdb_archsim::layout::fnv1a;
        let suite = Suite::with_fraction(0.02);
        let rows = |machine: MachineConfig| {
            let mut rows: Vec<Named> = WorkloadId::ALL
                .iter()
                .map(|&id| (id.name(), suite.run_traced(id, 1, machine.clone())))
                .collect();
            rows.push(("Avg_BigData", characterize::average_report(&rows)));
            rows
        };
        let e5645 = rows(MachineConfig::xeon_e5645());
        let fig5: Vec<_> = rows(MachineConfig::xeon_e5310())
            .into_iter()
            .zip(&e5645)
            .map(|((name, r10), (_, r45))| (name, [r10, r45.clone()]))
            .collect();
        let dir = Some(Path::new("d"));
        let mut out = Vec::new();
        FIG4.save(&mut out, dir, &e5645);
        FIG5.save(&mut out, dir, &fig5);
        FIG6.save(&mut out, dir, &e5645);
        let pins: Vec<_> = out
            .iter()
            .map(|a| (a.path.display().to_string(), a.bytes.len(), fnv1a(&a.bytes)))
            .collect();
        let want = [
            ("d/fig4.json".to_owned(), 3_789, 0xee07_956f_32b7_162c),
            ("d/fig5.json".to_owned(), 2_887, 0xdd62_33ad_7f8e_8b98),
            ("d/fig6.json".to_owned(), 3_437, 0xc7e7_d528_e29a_ba82),
        ];
        assert_eq!(pins, want, "Figures 4-6's workload rows moved; got {pins:#x?}");
    }
}
