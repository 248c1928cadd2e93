//! Metric-vector extraction for the workload characterization map.
//!
//! Bridges the suite to `bdb-charmap`: each named report of
//! [`bigdatabench::characterize::baseline`] (by default over
//! [`crate::results::DEFAULT_WORKLOADS`], the rows `BENCH_RESULTS.json`
//! renders) is summarized as one fixed vector — the 16 base features
//! of [`bdb_archsim::BASE_FEATURES`] (rates, MPKIs, instruction mix,
//! operation intensity) plus the [`DERIVED_FEATURES`] computed from
//! the per-phase breakdown. Phase-weighted features distinguish
//! workloads whose *aggregate* counters look alike but whose time is
//! concentrated in very different phases (e.g. a shuffle-bound sort
//! vs. a map-bound scan with similar whole-run MPKI).

use bdb_charmap::{AnalysisInput, MetricVector};
use bigdatabench::CharacterizationReport;

/// Features derived from the per-phase counter breakdown, appended
/// after [`bdb_archsim::BASE_FEATURES`] in every vector:
///
/// * `dominant_phase_cycle_share` — the largest single phase's share
///   of modeled cycles (1.0 for single-phase runs);
/// * `phase_weighted_mips` — per-phase MIPS weighted by cycle share;
/// * `phase_weighted_l2_mpki` / `phase_weighted_l3_mpki` — per-phase
///   MPKI weighted by *instruction* share, emphasizing the phases that
///   actually retire the work.
pub const DERIVED_FEATURES: [&str; 4] = [
    "dominant_phase_cycle_share",
    "phase_weighted_mips",
    "phase_weighted_l2_mpki",
    "phase_weighted_l3_mpki",
];

/// The full feature list, in vector order.
pub fn feature_names() -> Vec<String> {
    bdb_archsim::BASE_FEATURES
        .iter()
        .chain(DERIVED_FEATURES.iter())
        .map(|s| (*s).to_owned())
        .collect()
}

/// Builds one workload's metric vector from its traced report.
pub fn metric_vector(name: &str, report: &CharacterizationReport) -> MetricVector {
    let mut values: Vec<f64> = report.feature_vector().into_iter().map(|(_, v)| v).collect();
    let phases = report.phase_reports();
    if phases.is_empty() {
        // No phase marks: the whole run is one phase, so the derived
        // features degrade continuously to their aggregate values.
        values.extend([1.0, report.mips(), report.l2_mpki(), report.l3_mpki()]);
    } else {
        let instructions = report.instructions().max(1) as f64;
        let cycles = report.counters.cycles.max(1) as f64;
        let inst_share = |r: &CharacterizationReport| r.instructions() as f64 / instructions;
        let cycle_share = |r: &CharacterizationReport| r.counters.cycles as f64 / cycles;
        let dominant = phases.iter().map(|(_, r)| cycle_share(r)).fold(0.0, f64::max);
        let mips: f64 = phases.iter().map(|(_, r)| cycle_share(r) * r.mips()).sum();
        let l2: f64 = phases.iter().map(|(_, r)| inst_share(r) * r.l2_mpki()).sum();
        let l3: f64 = phases.iter().map(|(_, r)| inst_share(r) * r.l3_mpki()).sum();
        values.extend([dominant, mips, l2, l3]);
    }
    MetricVector { name: name.to_owned(), values }
}

/// Assembles the [`AnalysisInput`] for `bdb_charmap::analyze` from
/// `rows` (the [`baseline`] of its workloads) at `fraction`, the
/// machine named by the first row.
///
/// [`baseline`]: bigdatabench::characterize::baseline
pub fn analysis_input(fraction: f64, rows: &[(&str, CharacterizationReport)]) -> AnalysisInput {
    AnalysisInput {
        machine: rows.first().map(|(_, r)| r.machine.clone()).unwrap_or_default(),
        fraction,
        features: feature_names(),
        vectors: rows.iter().map(|(name, r)| metric_vector(name, r)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdatabench::characterize::baseline;
    use bigdatabench::{MachineConfig, Suite, WorkloadId};

    fn tiny_input(ids: &[WorkloadId]) -> AnalysisInput {
        let suite = Suite::with_fraction(1.0 / 64.0);
        analysis_input(1.0 / 64.0, &baseline(&suite, ids, &MachineConfig::xeon_e5645()))
    }

    #[test]
    fn vectors_match_the_feature_list_and_are_deterministic() {
        let input = tiny_input(&[WorkloadId::WordCount, WorkloadId::Sort]);
        assert_eq!(input.features, feature_names());
        assert_eq!(input.features.len(), bdb_archsim::BASE_FEATURES.len() + 4);
        for v in &input.vectors {
            assert_eq!(v.values.len(), input.features.len(), "{}", v.name);
            assert!(v.values.iter().all(|x| x.is_finite()), "{}: {:?}", v.name, v.values);
        }
        // Dominant phase share is a share; weighted MIPS is positive.
        let dom = input.features.iter().position(|f| f == "dominant_phase_cycle_share").unwrap();
        let wmips = input.features.iter().position(|f| f == "phase_weighted_mips").unwrap();
        for v in &input.vectors {
            assert!(v.values[dom] > 0.0 && v.values[dom] <= 1.0, "{}: {}", v.name, v.values[dom]);
            assert!(v.values[wmips] > 0.0, "{}: {}", v.name, v.values[wmips]);
        }
        let again = tiny_input(&[WorkloadId::WordCount, WorkloadId::Sort]);
        for (a, b) in input.vectors.iter().zip(&again.vectors) {
            assert_eq!(a, b, "traced vectors are bit-deterministic");
        }
    }

    #[test]
    fn full_default_set_analyzes_above_the_variance_target() {
        let input = tiny_input(&crate::results::DEFAULT_WORKLOADS);
        assert_eq!(input.vectors.len(), 10);
        let map = bdb_charmap::analyze(&input, bdb_charmap::DEFAULT_SEED).expect("analyzes");
        assert!(map.variance_retained >= bdb_charmap::VARIANCE_TARGET);
        assert!(map.k >= 2 && map.k < 10);
        assert_eq!(map.subset.len(), map.k);
    }
}
