//! Shape checks comparing our measurements against the paper's
//! headline claims. Each check's comment quotes the paper's numbers;
//! EXPERIMENTS.md tabulates them beside ours.
//!
//! Absolute values cannot transfer (the paper measured a 14-node Xeon
//! E5645 cluster with perf counters; we run a scaled-down simulator),
//! so EXPERIMENTS.md compares *shapes*: orderings, ratios and
//! crossovers. [`shape_checks`] encodes every headline claim as a
//! pass/fail predicate over our measured figures.

use bdb_archsim::CharacterizationReport;
use bigdatabench::characterize::{Fig2Row, Fig3Row};
use bigdatabench::WorkloadId;

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

/// The row named `name`: a figure row is a name and what was measured
/// under it (one report, or Figure 5's E5310 and E5645 pair).
fn find<'a, R>(rows: &'a [(&str, R)], name: &str) -> Option<&'a R> {
    rows.iter().find(|(n, _)| *n == name).map(|(_, r)| r)
}

/// Evaluates every headline shape claim against the computed figures.
/// Figures 4 and 6 are named E5645 reports; Figure 5 pairs each name's
/// E5310 and E5645 reports. A check whose figure is empty is not judged.
pub fn shape_checks(
    fig2: &[Fig2Row],
    fig3: &[Fig3Row],
    fig4: &[(&str, CharacterizationReport)],
    fig5: &[(&str, [CharacterizationReport; 2])],
    fig6: &[(&str, CharacterizationReport)],
) -> Vec<ShapeCheck> {
    let mut checks = Vec::new();

    // S1: FP operation intensity of BigDataBench far below HPCC/PARSEC/
    // SPECFP on the E5645 (paper: two orders of magnitude, 0.05 vs
    // HPCC 3.3, PARSEC 1.2 and SPECFP 1.4).
    if let (Some([_, bd]), Some([_, hpcc]), Some([_, parsec]), Some([_, specfp])) = (
        find(fig5, "Avg_BigData"),
        find(fig5, "Avg_HPCC"),
        find(fig5, "Avg_Parsec"),
        find(fig5, "SPECFP"),
    ) {
        let bd_fp = bd.fp_intensity();
        let traditional_min =
            hpcc.fp_intensity().min(parsec.fp_intensity()).min(specfp.fp_intensity());
        checks.push(ShapeCheck {
            id: "S1-fp-intensity-gap",
            claim: "BigDataBench FP intensity ≪ traditional suites (E5645)",
            measured: format!(
                "BigData {:.4} vs traditional min {:.3} ({}x gap)",
                bd_fp,
                traditional_min,
                (traditional_min / bd_fp.max(1e-12)) as u64
            ),
            // The paper reports a two-order gap; at library scale the
            // compute-to-DRAM proportions compress, so we require a
            // clear (>3x) gap and record the measured factor.
            pass: bd_fp * 3.0 < traditional_min,
        });
    }

    // S2: int:fp ratio of BigDataBench ≫ HPCC/PARSEC/SPECFP, but below
    // SPECINT; Grep near the top, Bayes near the bottom of the suite
    // (paper: BigData 75, Grep 179, Bayes 10, PARSEC 1.4, HPCC 1.0,
    // SPECFP 0.67, SPECINT 409).
    if let (Some(bd), Some(parsec), Some(specint), Some(grep), Some(bayes)) = (
        find(fig4, "Avg_BigData"),
        find(fig4, "Avg_Parsec"),
        find(fig4, "SPECINT"),
        find(fig4, "Grep"),
        find(fig4, "Naive Bayes"),
    ) {
        let [bd, parsec, specint, grep, bayes] =
            [bd, parsec, specint, grep, bayes].map(|r| r.counters.mix.int_to_fp_ratio());
        checks.push(ShapeCheck {
            id: "S2-int-fp-ratio",
            claim: "int:fp ratio BigData ≫ PARSEC; SPECINT highest; Grep > Bayes",
            measured: format!(
                "BigData {bd:.0}, PARSEC {parsec:.1}, SPECINT {specint:.0}, Grep {grep:.0}, \
                 Bayes {bayes:.0}"
            ),
            pass: bd > parsec * 10.0 && specint > bd && grep > bayes,
        });
    }

    // S3: L1I MPKI of BigDataBench ≥ 4x every traditional suite (paper:
    // 23 vs HPCC 0.3, PARSEC 2.9, SPECFP 3.1 and SPECINT 5.4).
    if let Some(bd) = find(fig6, "Avg_BigData") {
        let max_trad = ["Avg_HPCC", "Avg_Parsec", "SPECFP", "SPECINT"]
            .iter()
            .filter_map(|n| find(fig6, n))
            .map(|r| r.l1i_mpki())
            .fold(0.0f64, f64::max);
        checks.push(ShapeCheck {
            id: "S3-l1i-mpki",
            claim: "avg L1I MPKI of BigDataBench ≥ 4x traditional suites",
            measured: format!("BigData {:.1} vs max traditional {:.2}", bd.l1i_mpki(), max_trad),
            pass: bd.l1i_mpki() >= 4.0 * max_trad && bd.l1i_mpki() > 5.0,
        });
    }

    // S4: L3 caches are effective — BigDataBench avg L3 MPKI below
    // HPCC and PARSEC (paper: 1.5 vs 2.4 / 2.3).
    if let (Some(bd), Some(hpcc), Some(parsec)) =
        (find(fig6, "Avg_BigData"), find(fig6, "Avg_HPCC"), find(fig6, "Avg_Parsec"))
    {
        let [bd, hpcc, parsec] = [bd, hpcc, parsec].map(CharacterizationReport::l3_mpki);
        checks.push(ShapeCheck {
            id: "S4-l3-effective",
            claim: "avg L3 MPKI of BigDataBench below HPCC and PARSEC",
            measured: format!("BigData {bd:.2} vs HPCC {hpcc:.2}, PARSEC {parsec:.2}"),
            pass: bd < hpcc && bd < parsec,
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
    if let Some(bfs) = find(fig6, "BFS") {
        let analytics_median = median(
            fig6.iter()
                .filter(|(name, _)| {
                    ["Sort", "Grep", "WordCount", "K-means", "PageRank"].contains(name)
                })
                .map(|(_, r)| r.dtlb_mpki())
                .collect(),
        );
        checks.push(ShapeCheck {
            id: "S7-bfs-outlier",
            claim: "BFS has outlier data-side misses (DTLB ≫ other analytics)",
            measured: format!(
                "BFS DTLB {:.2} vs analytics median {:.2}",
                bfs.dtlb_mpki(),
                analytics_median
            ),
            pass: bfs.dtlb_mpki() > analytics_median * 2.0,
        });
    }

    // S8: FP intensity is higher on the E5645 than the E5310 for
    // BigDataBench (L3 absorbs traffic; paper 0.007 → 0.05).
    if let Some([e5310, e5645]) = find(fig5, "Avg_BigData") {
        let [e5310, e5645] = [e5310, e5645].map(CharacterizationReport::fp_intensity);
        checks.push(ShapeCheck {
            id: "S8-l3-raises-intensity",
            claim: "BigDataBench FP intensity higher on E5645 than E5310",
            measured: format!("E5310 {e5310:.5} vs E5645 {e5645:.5}"),
            pass: e5645 > e5310,
        });
    }

    // S9: integer intensity same order of magnitude across suites
    // (paper: BigDataBench 1.8 on the E5645).
    if let (Some([_, bd]), Some([_, hpcc])) = (find(fig5, "Avg_BigData"), find(fig5, "Avg_HPCC")) {
        let [bd, hpcc] = [bd, hpcc].map(CharacterizationReport::int_intensity);
        let ratio = bd / hpcc.max(1e-12);
        checks.push(ShapeCheck {
            id: "S9-int-intensity-same-order",
            claim: "integer intensity of BigData within ~10x of HPCC",
            measured: format!("BigData {bd:.3} vs HPCC {hpcc:.3}"),
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
    fn checks_on_empty_inputs_are_empty() {
        // Every check needs figure rows; with none it is not judged.
        let checks = shape_checks(&[], &[], &[], &[], &[]);
        assert!(checks.is_empty(), "{checks:?}");
    }

    /// The named rows of Figures 4 and 6: the 19 workloads,
    /// `Avg_BigData` and the four reference suites. The checks judged
    /// depend on which names are present, not on the counters.
    fn named_rows() -> Vec<(&'static str, CharacterizationReport)> {
        let names = WorkloadId::ALL.iter().map(|id| id.name());
        names
            .chain(["Avg_BigData", "Avg_HPCC", "Avg_Parsec", "SPECINT", "SPECFP"])
            .map(|name| (name, CharacterizationReport::default()))
            .collect()
    }

    fn judged(checks: &[ShapeCheck]) -> Vec<&str> {
        checks.iter().map(|c| &c.id[..2]).collect()
    }

    #[test]
    fn each_figure_judges_its_own_checks() {
        let rows = named_rows();
        let pairs: Vec<_> = rows.iter().map(|(n, r)| (*n, [r.clone(), r.clone()])).collect();
        assert_eq!(judged(&shape_checks(&[], &[], &rows, &[], &[])), ["S2"]);
        assert_eq!(judged(&shape_checks(&[], &[], &[], &[], &rows)), ["S3", "S4", "S7"]);
        assert_eq!(judged(&shape_checks(&[], &[], &[], &pairs, &[])), ["S1", "S8", "S9"]);
        let all = shape_checks(&[], &[], &rows, &pairs, &rows);
        assert_eq!(judged(&all), ["S1", "S2", "S3", "S4", "S7", "S8", "S9"]);
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
