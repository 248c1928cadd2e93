//! The suite facade: run and sweep workloads.

use crate::report::WorkloadReport;
use crate::scale::RunScale;
use crate::workload::WorkloadId;
use crate::workloads;
use bdb_archsim::{CharacterizationReport, MachineConfig};

/// Entry point for running BigDataBench-RS workloads.
///
/// A `Suite` fixes the global shrink fraction (the seed is always
/// [`RunScale::SEED`]); each run method takes the paper's
/// data-volume multiplier.
///
/// # Example
///
/// ```
/// use bigdatabench::{Suite, WorkloadId};
///
/// let suite = Suite::quick();
/// let report = suite.run_native(WorkloadId::Grep, 1);
/// assert_eq!(report.workload, "Grep");
/// assert!(report.metric.value() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Suite {
    fraction: f64,
}

impl Suite {
    /// Full library-scale inputs (baseline ≈ 1 MiB of text, 2^12
    /// vertices, ...; a full 19-workload native run takes seconds).
    pub fn new() -> Self {
        Self { fraction: 1.0 }
    }

    /// Tiny inputs (1/16 of library scale) for tests and smoke runs.
    pub fn quick() -> Self {
        Self { fraction: 1.0 / 16.0 }
    }

    /// A suite with an explicit shrink fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not positive.
    pub fn with_fraction(fraction: f64) -> Self {
        assert!(fraction > 0.0, "fraction must be positive");
        Self { fraction }
    }

    /// The [`RunScale`] this suite uses at `multiplier`.
    pub fn scale(&self, multiplier: u32) -> RunScale {
        RunScale { multiplier, fraction: self.fraction }
    }

    /// Runs one workload natively (parallel, uninstrumented) at
    /// `multiplier` × baseline and reports its user-perceivable metric.
    pub fn run_native(&self, id: WorkloadId, multiplier: u32) -> WorkloadReport {
        workloads::run_native(id, &self.scale(multiplier))
    }

    /// Runs one workload single-threaded on the simulated `machine` at
    /// `multiplier` and reports its micro-architectural
    /// characterization. Traced inputs are smaller than native inputs
    /// (see [`RunScale::traced_units`]) so simulation stays tractable,
    /// but still scale with the multiplier.
    pub fn run_traced(
        &self,
        id: WorkloadId,
        multiplier: u32,
        machine: MachineConfig,
    ) -> CharacterizationReport {
        workloads::run_traced(id, &self.scale(multiplier), machine)
    }

    /// Native sweep over the paper's multipliers for one workload.
    pub fn sweep_native(&self, id: WorkloadId) -> Vec<WorkloadReport> {
        RunScale::MULTIPLIERS.iter().map(|&m| self.run_native(id, m)).collect()
    }

    /// Traced sweep over the paper's multipliers for one workload.
    pub fn sweep_traced(
        &self,
        id: WorkloadId,
        machine: &MachineConfig,
    ) -> Vec<CharacterizationReport> {
        RunScale::MULTIPLIERS.iter().map(|&m| self.run_traced(id, m, machine.clone())).collect()
    }
}

impl Default for Suite {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_runs_a_workload() {
        let suite = Suite::quick();
        let r = suite.run_native(WorkloadId::WordCount, 1);
        assert_eq!(r.multiplier, 1);
        assert!(r.metric.value() > 0.0);
    }

    #[test]
    fn scale_carries_fraction_and_seed() {
        let s = Suite::with_fraction(0.5).scale(8);
        assert_eq!(s.multiplier, 8);
        assert_eq!(s.fraction, 0.5);
        assert_eq!(s.seed_for(7), RunScale::at(8).seed_for(7));
    }

    #[test]
    fn traced_run_reports_instructions() {
        let suite = Suite::quick();
        let r = suite.run_traced(WorkloadId::Grep, 1, MachineConfig::xeon_e5645());
        assert!(r.instructions() > 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_fraction_panics() {
        Suite::with_fraction(-1.0);
    }
}
