//! Instrumented traditional-benchmark kernels: the comparison points of
//! the paper's characterization.
//!
//! Figures 4–6 of the paper compare BigDataBench against **HPCC 1.4**
//! (HPL, STREAM, PTRANS, RandomAccess, DGEMM, FFT, COMM), **PARSEC 3.0**
//! and **SPEC CPU2006** (SPECINT / SPECFP averages). To place our
//! simulated workloads on the same axes we re-implement each suite's
//! characteristic kernels under the same [`bdb_archsim::Probe`]
//! instrumentation model:
//!
//! * compute kernels emit genuine FP/integer operation counts and
//!   genuine data addresses (blocked matmul really blocks, RandomAccess
//!   really scatters);
//! * code footprints are *small* — one hot loop body per kernel —
//!   which is exactly why the traditional suites show near-zero L1I
//!   MPKI next to the big-data workloads' deep stacks.
//!
//! # Example
//!
//! ```
//! use bdb_refbench::{RefSuite, kernels_for, characterize_suite};
//! use bdb_archsim::MachineConfig;
//!
//! let kernels = kernels_for(RefSuite::Hpcc);
//! assert_eq!(kernels.len(), 7);
//! let report = characterize_suite(RefSuite::SpecInt, 1 << 14, MachineConfig::xeon_e5645());
//! assert!(report.counters.mix.fp_ops < report.counters.mix.int_ops);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hpcc;
pub mod parsec;
pub mod spec;

use bdb_archsim::{CharacterizationReport, MachineConfig, Probe, SimProbe};

/// Which traditional suite a kernel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefSuite {
    /// HPCC 1.4 (HPC kernels).
    Hpcc,
    /// PARSEC 3.0 (multithreaded desktop/server kernels).
    Parsec,
    /// SPEC CPU2006 integer benchmarks.
    SpecInt,
    /// SPEC CPU2006 floating-point benchmarks.
    SpecFp,
}

impl RefSuite {
    /// All four suites.
    pub const ALL: [RefSuite; 4] =
        [RefSuite::Hpcc, RefSuite::Parsec, RefSuite::SpecInt, RefSuite::SpecFp];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            RefSuite::Hpcc => "Avg_HPCC",
            RefSuite::Parsec => "Avg_Parsec",
            RefSuite::SpecInt => "SPECINT",
            RefSuite::SpecFp => "SPECFP",
        }
    }
}

/// One instrumented kernel.
pub struct RefKernel {
    /// Kernel name (e.g. `"DGEMM"`).
    pub name: &'static str,
    /// Owning suite.
    pub suite: RefSuite,
    /// Runs the kernel at `scale` (elements / options / bytes — kernel
    /// specific), reporting events to `probe`. Returns a checksum so the
    /// work cannot be optimized away.
    pub run: fn(scale: usize, probe: &mut dyn Probe) -> u64,
}

impl std::fmt::Debug for RefKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RefKernel({} / {:?})", self.name, self.suite)
    }
}

/// The kernels of one suite.
pub fn kernels_for(suite: RefSuite) -> Vec<RefKernel> {
    match suite {
        RefSuite::Hpcc => hpcc::kernels(),
        RefSuite::Parsec => parsec::kernels(),
        RefSuite::SpecInt => spec::int_kernels(),
        RefSuite::SpecFp => spec::fp_kernels(),
    }
}

/// Runs every kernel of `suite` at `scale` on a fresh machine and
/// returns the merged characterization report (the per-suite averages
/// the paper plots).
pub fn characterize_suite(
    suite: RefSuite,
    scale: usize,
    machine: MachineConfig,
) -> CharacterizationReport {
    let mut probe = SimProbe::new(machine);
    // Ramp-up protocol: run everything once to warm caches, measure the
    // second pass.
    for kernel in kernels_for(suite) {
        (kernel.run)(scale, &mut probe);
    }
    probe.reset_stats();
    for kernel in kernels_for(suite) {
        (kernel.run)(scale, &mut probe);
    }
    probe.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_suite_has_kernels() {
        for suite in RefSuite::ALL {
            assert!(!kernels_for(suite).is_empty(), "{suite:?}");
        }
    }

    #[test]
    fn suite_labels_match_paper() {
        assert_eq!(RefSuite::Hpcc.label(), "Avg_HPCC");
        assert_eq!(RefSuite::SpecFp.label(), "SPECFP");
    }

    #[test]
    fn specint_is_integer_dominated_specfp_is_not() {
        let int = characterize_suite(RefSuite::SpecInt, 1 << 14, MachineConfig::xeon_e5645());
        let fp = characterize_suite(RefSuite::SpecFp, 1 << 14, MachineConfig::xeon_e5645());
        let (int, fp) = (int.counters.mix, fp.counters.mix);
        assert!(int.int_to_fp_ratio() > 50.0, "SPECINT ratio {}", int.int_to_fp_ratio());
        assert!(fp.int_to_fp_ratio() < 3.0, "SPECFP ratio {}", fp.int_to_fp_ratio());
    }

    #[test]
    fn traditional_kernels_have_tiny_instruction_footprints() {
        for suite in RefSuite::ALL {
            let r = characterize_suite(suite, 1 << 14, MachineConfig::xeon_e5645());
            assert!(
                r.l1i_mpki() < 1.0,
                "{suite:?} L1I MPKI should be near zero, got {}",
                r.l1i_mpki()
            );
        }
    }

    #[test]
    fn hpcc_is_fp_intense() {
        // Large enough that RandomAccess/STREAM exceed the LLC and
        // produce DRAM traffic; below that everything cache-resides and
        // intensity is undefined (0/0).
        let r = characterize_suite(RefSuite::Hpcc, 1 << 20, MachineConfig::xeon_e5645());
        assert!(r.counters.mix.fp_ops > 0);
        assert!(r.counters.dram_bytes > 0, "streaming kernels must reach DRAM");
        assert!(r.fp_intensity() > 0.01, "HPCC fp intensity {}", r.fp_intensity());
    }
}
