//! The paper's published reference numbers, and shape checks comparing
//! our measurements against them.
//!
//! Absolute values cannot transfer (the paper measured a 14-node Xeon
//! E5645 cluster with perf counters; we run a scaled-down simulator),
//! so EXPERIMENTS.md compares *shapes*: orderings, ratios and
//! crossovers. [`shape_checks`] encodes every headline claim as a
//! pass/fail predicate over our measured figures.

use bigdatabench::characterize::{Fig2Row, Fig3Row, Fig4Row, Fig5Row, Fig6Row};
use bigdatabench::WorkloadId;

/// Paper values quoted in Section 6 (Figure 4 discussion).
pub mod fig4 {
    /// Average integer-to-FP instruction ratio of BigDataBench.
    pub const BIGDATA_INT_FP_AVG: f64 = 75.0;
    /// Maximum (Grep).
    pub const BIGDATA_INT_FP_MAX: f64 = 179.0;
    /// Minimum (Naive Bayes).
    pub const BIGDATA_INT_FP_MIN: f64 = 10.0;
    /// PARSEC / HPCC / SPECFP / SPECINT averages.
    pub const PARSEC: f64 = 1.4;
    /// HPCC average.
    pub const HPCC: f64 = 1.0;
    /// SPECFP average.
    pub const SPECFP: f64 = 0.67;
    /// SPECINT average.
    pub const SPECINT: f64 = 409.0;
}

/// Paper values for Figure 5 (operation intensity).
pub mod fig5 {
    /// BigDataBench FP intensity on E5310 / E5645.
    pub const BIGDATA_FP: (f64, f64) = (0.007, 0.05);
    /// PARSEC FP intensity on E5310 / E5645.
    pub const PARSEC_FP: (f64, f64) = (1.1, 1.2);
    /// HPCC FP intensity on E5310 / E5645.
    pub const HPCC_FP: (f64, f64) = (0.37, 3.3);
    /// SPECFP intensity on E5310 / E5645.
    pub const SPECFP_FP: (f64, f64) = (0.34, 1.4);
    /// BigDataBench integer intensity on E5310 / E5645.
    pub const BIGDATA_INT: (f64, f64) = (0.5, 1.8);
}

/// Paper values for Figure 6 (memory hierarchy MPKI averages).
pub mod fig6 {
    /// Average L1I MPKI: BigDataBench vs HPCC/PARSEC/SPECFP/SPECINT.
    pub const L1I: [(f64, &str); 5] =
        [(23.0, "BigDataBench"), (0.3, "HPCC"), (2.9, "PARSEC"), (3.1, "SPECFP"), (5.4, "SPECINT")];
    /// Average L2 MPKI per suite, same order.
    pub const L2: [(f64, &str); 5] = [
        (21.0, "BigDataBench"),
        (4.8, "HPCC"),
        (5.1, "PARSEC"),
        (14.0, "SPECFP"),
        (16.0, "SPECINT"),
    ];
    /// Average L3 MPKI per suite, same order.
    pub const L3: [(f64, &str); 5] =
        [(1.5, "BigDataBench"), (2.4, "HPCC"), (2.3, "PARSEC"), (1.4, "SPECFP"), (1.9, "SPECINT")];
    /// ITLB / DTLB averages for BigDataBench.
    pub const BIGDATA_ITLB: f64 = 0.54;
    /// DTLB average for BigDataBench.
    pub const BIGDATA_DTLB: f64 = 2.5;
    /// BFS's outlier L2 MPKI.
    pub const BFS_L2: f64 = 56.0;
    /// BFS's outlier DTLB MPKI.
    pub const BFS_DTLB: f64 = 14.0;
}

/// Paper values for the volume-sensitivity findings (Section 6.2).
pub mod volume {
    /// Grep's MIPS gap between baseline and 32X.
    pub const GREP_MIPS_GAP: f64 = 2.9;
    /// K-means' L3 MPKI gap between small and large inputs.
    pub const KMEANS_L3_GAP: f64 = 2.5;
}

/// One shape claim evaluated against our measurements.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// Short identifier, e.g. `"S1-fp-intensity-gap"`.
    pub id: &'static str,
    /// Human-readable description of the paper's claim.
    pub claim: &'static str,
    /// What we measured, formatted.
    pub measured: String,
    /// Whether the shape holds in our reproduction.
    pub pass: bool,
}

fn find<'a>(rows: &'a [Fig4Row], name: &str) -> Option<&'a Fig4Row> {
    rows.iter().find(|r| r.name == name)
}

fn find5<'a>(rows: &'a [Fig5Row], name: &str) -> Option<&'a Fig5Row> {
    rows.iter().find(|r| r.name == name)
}

fn find6<'a>(rows: &'a [Fig6Row], name: &str) -> Option<&'a Fig6Row> {
    rows.iter().find(|r| r.name == name)
}

/// Evaluates every headline shape claim against the computed figures.
pub fn shape_checks(
    fig2: &[Fig2Row],
    fig3: &[Fig3Row],
    fig4: &[Fig4Row],
    fig5: &[Fig5Row],
    fig6: &[Fig6Row],
) -> Vec<ShapeCheck> {
    let mut checks = Vec::new();

    // S1: FP operation intensity of BigDataBench far below HPCC/PARSEC/
    // SPECFP on the E5645 (paper: two orders of magnitude).
    if let (Some(bd), Some(hpcc), Some(parsec), Some(specfp)) = (
        find5(fig5, "Avg_BigData"),
        find5(fig5, "Avg_HPCC"),
        find5(fig5, "Avg_Parsec"),
        find5(fig5, "SPECFP"),
    ) {
        let traditional_min = hpcc.fp_e5645.min(parsec.fp_e5645).min(specfp.fp_e5645);
        checks.push(ShapeCheck {
            id: "S1-fp-intensity-gap",
            claim: "BigDataBench FP intensity ≪ traditional suites (E5645)",
            measured: format!(
                "BigData {:.4} vs traditional min {:.3} ({}x gap)",
                bd.fp_e5645,
                traditional_min,
                (traditional_min / bd.fp_e5645.max(1e-12)) as u64
            ),
            // The paper reports a two-order gap; at library scale the
            // compute-to-DRAM proportions compress, so we require a
            // clear (>3x) gap and record the measured factor.
            pass: bd.fp_e5645 * 3.0 < traditional_min,
        });
    }

    // S2: int:fp ratio of BigDataBench ≫ HPCC/PARSEC/SPECFP, but below
    // SPECINT; Grep near the top, Bayes near the bottom of the suite.
    if let (Some(bd), Some(parsec), Some(specint), Some(grep), Some(bayes)) = (
        find(fig4, "Avg_BigData"),
        find(fig4, "Avg_Parsec"),
        find(fig4, "SPECINT"),
        find(fig4, "Grep"),
        find(fig4, "Naive Bayes"),
    ) {
        checks.push(ShapeCheck {
            id: "S2-int-fp-ratio",
            claim: "int:fp ratio BigData ≫ PARSEC; SPECINT highest; Grep > Bayes",
            measured: format!(
                "BigData {:.0}, PARSEC {:.1}, SPECINT {:.0}, Grep {:.0}, Bayes {:.0}",
                bd.int_fp_ratio,
                parsec.int_fp_ratio,
                specint.int_fp_ratio,
                grep.int_fp_ratio,
                bayes.int_fp_ratio
            ),
            pass: bd.int_fp_ratio > parsec.int_fp_ratio * 10.0
                && specint.int_fp_ratio > bd.int_fp_ratio
                && grep.int_fp_ratio > bayes.int_fp_ratio,
        });
    }

    // S3: L1I MPKI of BigDataBench ≥ 4x every traditional suite.
    if let Some(bd) = find6(fig6, "Avg_BigData") {
        let max_trad = ["Avg_HPCC", "Avg_Parsec", "SPECFP", "SPECINT"]
            .iter()
            .filter_map(|n| find6(fig6, n))
            .map(|r| r.l1i_mpki)
            .fold(0.0f64, f64::max);
        checks.push(ShapeCheck {
            id: "S3-l1i-mpki",
            claim: "avg L1I MPKI of BigDataBench ≥ 4x traditional suites",
            measured: format!("BigData {:.1} vs max traditional {:.2}", bd.l1i_mpki, max_trad),
            pass: bd.l1i_mpki >= 4.0 * max_trad && bd.l1i_mpki > 5.0,
        });
    }

    // S4: L3 caches are effective — BigDataBench avg L3 MPKI below
    // HPCC and PARSEC (paper: 1.5 vs 2.4 / 2.3).
    if let (Some(bd), Some(hpcc), Some(parsec)) =
        (find6(fig6, "Avg_BigData"), find6(fig6, "Avg_HPCC"), find6(fig6, "Avg_Parsec"))
    {
        checks.push(ShapeCheck {
            id: "S4-l3-effective",
            claim: "avg L3 MPKI of BigDataBench below HPCC and PARSEC",
            measured: format!(
                "BigData {:.2} vs HPCC {:.2}, PARSEC {:.2}",
                bd.l3_mpki, hpcc.l3_mpki, parsec.l3_mpki
            ),
            pass: bd.l3_mpki < hpcc.l3_mpki && bd.l3_mpki < parsec.l3_mpki,
        });
    }

    // S5: volume sensitivity — MIPS and L3 MPKI shift materially across
    // the sweep for at least some workloads (paper: Grep 2.9x MIPS gap,
    // K-means 2.5x L3 gap).
    if !fig3.is_empty() {
        let max_mips_gap =
            WorkloadId::ALL.iter().filter_map(|w| mips_gap(fig3, w.name())).fold(0.0f64, f64::max);
        // K-means L3 gap across the full sweep (fig3 supporting data),
        // falling back to the fig2 small/large pair; a +0.05 MPKI floor
        // avoids 0/0 when both ends are cache-resident.
        let kmeans_l3: Vec<f64> = fig3
            .iter()
            .filter(|r| r.workload == "K-means")
            .map(|r| r.l3_mpki)
            .chain(
                fig2.iter()
                    .filter(|r| r.workload == "K-means")
                    .flat_map(|r| [r.small_l3_mpki, r.large_l3_mpki]),
            )
            .collect();
        let kmeans_gap = if kmeans_l3.is_empty() {
            0.0
        } else {
            let max = kmeans_l3.iter().cloned().fold(f64::MIN, f64::max);
            let min = kmeans_l3.iter().cloned().fold(f64::MAX, f64::min);
            (max + 0.05) / (min + 0.05)
        };
        checks.push(ShapeCheck {
            id: "S5-volume-sensitivity",
            claim: "data volume shifts micro-arch metrics (≥2x gaps exist)",
            measured: format!(
                "max MIPS gap {:.1}x, K-means L3 MPKI gap {:.1}x",
                max_mips_gap, kmeans_gap
            ),
            pass: max_mips_gap >= 1.5 && kmeans_gap >= 1.5,
        });
    }

    // S6: Sort's user-perceivable performance degrades at large inputs
    // (spill-to-disk): its speedup at 32X falls below the sweep's peak.
    let sort: Vec<(u32, f64)> =
        fig3.iter().filter(|r| r.workload == "Sort").map(|r| (r.multiplier, r.speedup)).collect();
    if !sort.is_empty() {
        let sort_32 = sort.iter().find(|(m, _)| *m == 32).map(|(_, s)| *s).unwrap_or(f64::INFINITY);
        let peak = sort.iter().map(|(_, s)| *s).fold(0.0f64, f64::max);
        checks.push(ShapeCheck {
            id: "S6-sort-degrades",
            claim: "Sort DPS degrades once inputs exceed the sort buffer",
            measured: format!("Sort speedup at 32X = {sort_32:.2} vs sweep peak {peak:.2}"),
            pass: sort_32 < peak * 0.95 && peak.is_finite(),
        });
    }

    // S7: BFS is the data-side outlier (highest L2 MPKI and DTLB MPKI
    // among analytics workloads, paper: 56 and 14).
    if let Some(bfs) = find6(fig6, "BFS") {
        let analytics_median = median(
            fig6.iter()
                .filter(|r| {
                    ["Sort", "Grep", "WordCount", "K-means", "PageRank"].contains(&r.name.as_str())
                })
                .map(|r| r.dtlb_mpki)
                .collect(),
        );
        checks.push(ShapeCheck {
            id: "S7-bfs-outlier",
            claim: "BFS has outlier data-side misses (DTLB ≫ other analytics)",
            measured: format!(
                "BFS DTLB {:.2} vs analytics median {:.2}",
                bfs.dtlb_mpki, analytics_median
            ),
            pass: bfs.dtlb_mpki > analytics_median * 2.0,
        });
    }

    // S8: FP intensity is higher on the E5645 than the E5310 for
    // BigDataBench (L3 absorbs traffic; paper 0.007 → 0.05).
    if let Some(bd) = find5(fig5, "Avg_BigData") {
        checks.push(ShapeCheck {
            id: "S8-l3-raises-intensity",
            claim: "BigDataBench FP intensity higher on E5645 than E5310",
            measured: format!("E5310 {:.5} vs E5645 {:.5}", bd.fp_e5310, bd.fp_e5645),
            pass: bd.fp_e5645 > bd.fp_e5310,
        });
    }

    // S9: integer intensity same order of magnitude across suites.
    if let (Some(bd), Some(hpcc)) = (find5(fig5, "Avg_BigData"), find5(fig5, "Avg_HPCC")) {
        let ratio = bd.int_e5645 / hpcc.int_e5645.max(1e-12);
        checks.push(ShapeCheck {
            id: "S9-int-intensity-same-order",
            claim: "integer intensity of BigData within ~10x of HPCC",
            measured: format!("BigData {:.3} vs HPCC {:.3}", bd.int_e5645, hpcc.int_e5645),
            pass: (0.1..=10.0).contains(&ratio),
        });
    }

    checks
}

fn mips_gap(fig3: &[Fig3Row], workload: &str) -> Option<f64> {
    let vals: Vec<f64> = fig3.iter().filter(|r| r.workload == workload).map(|r| r.mips).collect();
    let max = vals.iter().cloned().fold(f64::MIN, f64::max);
    let min = vals.iter().cloned().fold(f64::MAX, f64::min);
    if vals.is_empty() || min <= 0.0 {
        None
    } else {
        Some(max / min)
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper_quotes() {
        assert_eq!(fig4::BIGDATA_INT_FP_AVG, 75.0);
        assert_eq!(fig6::L1I[0].0, 23.0);
        assert_eq!(volume::GREP_MIPS_GAP, 2.9);
    }

    #[test]
    fn checks_on_empty_inputs_are_empty() {
        // Every check needs figure rows; with none it is not judged.
        let checks = shape_checks(&[], &[], &[], &[], &[]);
        assert!(checks.is_empty(), "{checks:?}");
    }

    #[test]
    fn median_and_gap_helpers() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![]), 0.0);
        let rows = vec![
            Fig3Row {
                workload: "X".into(),
                multiplier: 1,
                mips: 100.0,
                speedup: 1.0,
                l3_mpki: 0.0,
            },
            Fig3Row {
                workload: "X".into(),
                multiplier: 32,
                mips: 300.0,
                speedup: 2.0,
                l3_mpki: 0.0,
            },
        ];
        assert_eq!(mips_gap(&rows, "X"), Some(3.0));
        assert_eq!(mips_gap(&rows, "Y"), None);
    }
}
