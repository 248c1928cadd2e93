//! Artifact emitters (`charmap.txt`, `charmap.json`).
//!
//! The JSON artifact is schema-versioned and written with a stable key
//! order and shortest-round-trip floats, so re-running the pipeline on
//! unchanged inputs reproduces it byte-for-byte, and the committed copy
//! is checked byte for byte. The text artifact is
//! the human-readable companion: variance and loadings tables, cluster
//! membership, the chosen subset, and a pairwise-distance heatmap.
//!
//! The heatmap labels rows and columns by workload *index* and prints
//! a legend below, so column widths are fixed regardless of how long
//! or hostile (embedded spaces, unicode, quotes) workload names get.

use crate::{Charmap, SCHEMA_VERSION, VARIANCE_TARGET};
use bdb_telemetry::json::{write_escaped, write_f64, write_f64_array, write_str_array};
use std::fmt::Write as _;

impl Charmap {
    /// Renders the schema-versioned JSON artifact with stable key
    /// order; a pure function of the analysis result.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push('{');
        let _ = write!(out, "\"schema_version\":{SCHEMA_VERSION},");
        out.push_str("\"machine\":");
        write_escaped(&mut out, &self.machine);
        out.push_str(",\"fraction\":");
        write_f64(&mut out, self.fraction);
        let _ = write!(out, ",\"seed\":{},", self.seed);
        out.push_str("\"variance_target\":");
        write_f64(&mut out, VARIANCE_TARGET);
        out.push_str(",\"features\":");
        write_str_array(&mut out, &self.features);
        out.push_str(",\"workloads\":");
        write_str_array(&mut out, &self.workloads);
        out.push_str(",\"pca\":{\"eigenvalues\":");
        write_f64_array(&mut out, &self.eigenvalues);
        out.push_str(",\"variance_shares\":");
        write_f64_array(&mut out, &self.variance_shares);
        let _ = write!(out, ",\"retained\":{},", self.retained);
        out.push_str("\"variance_retained\":");
        write_f64(&mut out, self.variance_retained);
        out.push_str(",\"loadings\":");
        write_matrix(&mut out, &self.loadings);
        out.push_str("},\"scores\":");
        write_matrix(&mut out, &self.scores);
        let _ = write!(out, ",\"clustering\":{{\"k\":{},", self.k);
        out.push_str("\"silhouette\":");
        write_f64(&mut out, self.silhouette);
        out.push_str(",\"silhouette_by_k\":[");
        for (i, (k, s)) in self.silhouette_by_k.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{k},");
            write_f64(&mut out, *s);
            out.push(']');
        }
        out.push_str("],\"hier_agreement\":");
        write_f64(&mut out, self.hier_agreement);
        out.push_str(",\"assignments\":[");
        for (i, a) in self.assignments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{a}");
        }
        out.push_str("],\"clusters\":[");
        for (i, c) in self.clusters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"members\":");
            write_str_array(&mut out, &c.members);
            out.push_str(",\"representative\":");
            write_escaped(&mut out, &c.representative);
            out.push('}');
        }
        out.push_str("]},\"subset\":");
        write_str_array(&mut out, &self.subset);
        out.push_str(",\"distances\":");
        write_matrix(&mut out, &self.distances);
        out.push_str("}\n");
        out
    }

    /// Renders the human-readable `charmap.txt` companion report.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "BigDataBench workload characterization map");
        let _ = writeln!(out, "==========================================");
        let _ = writeln!(out, "machine:   {}", self.machine);
        let _ = writeln!(out, "fraction:  {}", self.fraction);
        let _ = writeln!(out, "seed:      {}", self.seed);
        let _ = writeln!(
            out,
            "workloads: {}   features: {}",
            self.workloads.len(),
            self.features.len()
        );
        out.push('\n');

        let _ = writeln!(out, "PCA variance (target {:.0}%)", VARIANCE_TARGET * 100.0);
        let _ = writeln!(out, "  comp  eigenvalue     share  cumulative  kept");
        let mut cumulative = 0.0;
        for (i, (ev, share)) in self.eigenvalues.iter().zip(&self.variance_shares).enumerate() {
            cumulative += share;
            let _ = writeln!(
                out,
                "  PC{:<3} {:>10.4}  {:>7.2}%  {:>9.2}%  {}",
                i + 1,
                ev,
                share * 100.0,
                cumulative * 100.0,
                if i < self.retained { "*" } else { " " }
            );
        }
        let _ = writeln!(
            out,
            "  retained {} of {} components covering {:.2}% of variance",
            self.retained,
            self.eigenvalues.len(),
            self.variance_retained * 100.0
        );
        out.push('\n');

        let feat_width = self.features.iter().map(String::len).max().unwrap_or(7).max(7);
        let _ = writeln!(out, "Component loadings (feature weight per retained component)");
        let mut header = format!("  {:<feat_width$}", "feature");
        for c in 0..self.retained {
            let _ = write!(header, "  {:>8}", format!("PC{}", c + 1));
        }
        let _ = writeln!(out, "{header}");
        for (f, name) in self.features.iter().enumerate() {
            let mut row = format!("  {name:<feat_width$}");
            for comp in &self.loadings {
                let _ = write!(row, "  {:>8.4}", comp[f]);
            }
            let _ = writeln!(out, "{row}");
        }
        out.push('\n');

        let _ = writeln!(out, "Silhouette sweep (chosen k = {})", self.k);
        for (k, s) in &self.silhouette_by_k {
            let marker = if *k == self.k { "  <- chosen" } else { "" };
            let _ = writeln!(out, "  k={k}: {s:.4}{marker}");
        }
        let _ = writeln!(
            out,
            "  single-linkage cross-check agreement (Rand index): {:.4}",
            self.hier_agreement
        );
        out.push('\n');

        let _ = writeln!(out, "Clusters and representatives");
        for (i, c) in self.clusters.iter().enumerate() {
            let _ = writeln!(out, "  cluster {i} (representative: {})", c.representative);
            for m in &c.members {
                let mark = if *m == c.representative { "*" } else { " " };
                let _ = writeln!(out, "    {mark} {m}");
            }
        }
        out.push('\n');

        let _ = writeln!(
            out,
            "Representative subset ({} of {} workloads)",
            self.subset.len(),
            self.workloads.len()
        );
        for name in &self.subset {
            let _ = writeln!(out, "  - {name}");
        }
        out.push('\n');

        // Index-labeled heatmap: widths depend only on workload count.
        let _ = writeln!(out, "Pairwise distance heatmap (PCA space)");
        let idx_width = format!("[{}]", self.workloads.len().saturating_sub(1)).len();
        let mut header = format!("  {:>idx_width$}", "");
        for i in 0..self.workloads.len() {
            let _ = write!(header, " {:>6}", format!("[{i}]"));
        }
        let _ = writeln!(out, "{header}");
        for (i, row) in self.distances.iter().enumerate() {
            let mut line = format!("  {:>idx_width$}", format!("[{i}]"));
            for v in row {
                let _ = write!(line, " {v:>6.2}");
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "  legend:");
        for (i, name) in self.workloads.iter().enumerate() {
            let _ = writeln!(out, "    [{i}] {name}");
        }
        out
    }
}

fn write_matrix(out: &mut String, rows: &[Vec<f64>]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64_array(out, row);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, tests::fixture, DEFAULT_SEED};
    use bdb_telemetry::json::{parse, Json};

    #[test]
    fn json_artifact_round_trips_and_is_stable() {
        let map = analyze(&fixture(), DEFAULT_SEED).unwrap();
        let doc = map.to_json();
        assert_eq!(doc, map.to_json(), "emission is pure");
        let v = parse(&doc).expect("parses back");
        let num = |value: Option<&Json>| value.and_then(Json::as_u64);
        let strs = |key: &str| -> Vec<String> {
            let items = v.get(key).and_then(Json::as_array).expect("string array");
            items.iter().map(|s| s.as_str().expect("string").to_owned()).collect()
        };
        assert_eq!(num(v.get("schema_version")), Some(SCHEMA_VERSION));
        assert_eq!(num(v.get("seed")), Some(DEFAULT_SEED));
        assert_eq!(num(v.get("clustering").and_then(|c| c.get("k"))), Some(map.k as u64));
        assert_eq!(strs("subset"), map.subset);
        assert_eq!(strs("workloads"), map.workloads);
    }

    #[test]
    fn text_report_lists_every_section_with_indexed_heatmap() {
        let mut input = fixture();
        // Hostile names must not disturb the heatmap grid.
        input.vectors[0].name = "Word Count \"v2\" — extremely long hostile name".into();
        let map = analyze(&input, DEFAULT_SEED).unwrap();
        let text = map.to_text();
        for section in [
            "PCA variance",
            "Component loadings",
            "Silhouette sweep",
            "Clusters and representatives",
            "Representative subset",
            "Pairwise distance heatmap",
            "legend:",
        ] {
            assert!(text.contains(section), "missing section {section:?}\n{text}");
        }
        // Heatmap rows all share one width, independent of names.
        let rows: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.contains("heatmap"))
            .skip(1)
            .take_while(|l| !l.contains("legend"))
            .collect();
        assert_eq!(rows.len(), map.workloads.len() + 1, "header + n rows");
        let widths: std::collections::HashSet<usize> = rows.iter().map(|r| r.len()).collect();
        assert_eq!(widths.len(), 1, "uniform heatmap widths, got {widths:?}");
    }
}
