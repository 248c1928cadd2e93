//! Characterization metrics mirroring the paper's Section 6.
//!
//! A [`CharacterizationReport`] carries everything needed to regenerate
//! Figures 2–6: the dynamic instruction breakdown (Figure 4), per-level
//! cache and TLB statistics (Figures 2 and 6), operation intensities
//! (Figure 5), and the timing-model MIPS estimate (Figure 3-1).

use crate::cache::CacheStats;
use std::fmt;

/// Dynamic instruction breakdown by class (paper Figure 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstructionMix {
    /// Memory loads.
    pub loads: u64,
    /// Memory stores.
    pub stores: u64,
    /// Branch instructions.
    pub branches: u64,
    /// Integer ALU instructions.
    pub int_ops: u64,
    /// Floating-point instructions.
    pub fp_ops: u64,
    /// Other instructions attributed by code-region fetch (framework
    /// overhead, address generation, moves) — counted as integer-class
    /// when computing ratios, matching how `perf` buckets them.
    pub other: u64,
}

impl InstructionMix {
    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.loads + self.stores + self.branches + self.int_ops + self.fp_ops + self.other
    }

    /// Integer instructions including framework/other overhead.
    pub fn integer_class(&self) -> u64 {
        self.int_ops + self.other
    }

    /// Ratio of integer-class to floating-point instructions.
    ///
    /// Returns `f64::INFINITY` when no FP instructions were executed.
    pub fn int_to_fp_ratio(&self) -> f64 {
        if self.fp_ops == 0 {
            f64::INFINITY
        } else {
            self.integer_class() as f64 / self.fp_ops as f64
        }
    }

    /// Fraction of `class` out of the total, in `[0, 1]`.
    pub fn fraction(&self, class: InstClass) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        let n = match class {
            InstClass::Load => self.loads,
            InstClass::Store => self.stores,
            InstClass::Branch => self.branches,
            InstClass::Int => self.integer_class(),
            InstClass::Fp => self.fp_ops,
        };
        n as f64 / t as f64
    }

    /// Credits `insts` instructions of framework/library code fetched
    /// via [`crate::CodeRegion`], decomposed statistically into classes
    /// (x86-64 server-code averages: 22% loads, 8% stores, 17% branches,
    /// 0.6% FP, the rest integer/move). Framework loads/stores counted
    /// here do not generate data-cache traffic — substrate trace models
    /// emit explicit data accesses for the structures that matter.
    pub fn credit_code(&mut self, insts: u64) {
        let loads = insts * 22 / 100;
        let stores = insts * 8 / 100;
        let branches = insts * 17 / 100;
        let fp = insts * 6 / 1000;
        self.loads += loads;
        self.stores += stores;
        self.branches += branches;
        self.fp_ops += fp;
        self.other += insts - loads - stores - branches - fp;
    }

    /// Adds another mix into this one.
    pub fn merge(&mut self, other: &InstructionMix) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.branches += other.branches;
        self.int_ops += other.int_ops;
        self.fp_ops += other.fp_ops;
        self.other += other.other;
    }

    /// Counter increase since `earlier` (field-wise, saturating at zero).
    pub fn delta_since(&self, earlier: &InstructionMix) -> InstructionMix {
        InstructionMix {
            loads: self.loads.saturating_sub(earlier.loads),
            stores: self.stores.saturating_sub(earlier.stores),
            branches: self.branches.saturating_sub(earlier.branches),
            int_ops: self.int_ops.saturating_sub(earlier.int_ops),
            fp_ops: self.fp_ops.saturating_sub(earlier.fp_ops),
            other: self.other.saturating_sub(earlier.other),
        }
    }
}

/// Instruction classes used for breakdown reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Branch.
    Branch,
    /// Integer ALU (incl. framework overhead instructions).
    Int,
    /// Floating point.
    Fp,
}

/// Per-level cache/TLB statistics in a finished report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Raw access counters.
    pub stats: CacheStats,
}

impl LevelStats {
    /// Misses per kilo-instruction at this level.
    pub fn mpki(&self, instructions: u64) -> f64 {
        self.stats.mpki(instructions)
    }
}

impl From<CacheStats> for LevelStats {
    fn from(stats: CacheStats) -> Self {
        Self { stats }
    }
}

/// A point-in-time copy of every counter a [`crate::MachineSim`] keeps.
///
/// Snapshots are cheap (a handful of integers, no cache contents) and
/// support exact attribution: because every field is a monotone running
/// total, `later.delta_since(&earlier)` yields the events of the
/// interval, and deltas over consecutive snapshots telescope — summing
/// them reproduces the whole-run totals exactly, including `cycles`
/// (each snapshot's cycle count is rounded the same way, so consecutive
/// differences cancel).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSnapshot {
    /// Dynamic instruction breakdown so far.
    pub mix: InstructionMix,
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
    /// Unified L3 counters, if the machine has an L3.
    pub l3: Option<CacheStats>,
    /// Instruction TLB counters.
    pub itlb: CacheStats,
    /// Data TLB counters.
    pub dtlb: CacheStats,
    /// Bytes requested by loads and stores (pre-hierarchy).
    pub requested_bytes: u64,
    /// Misses that went all the way to DRAM.
    pub llc_misses: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Bytes transferred from DRAM (LLC misses × line size).
    pub dram_bytes: u64,
    /// Cycles estimated by the timing model.
    pub cycles: u64,
}

impl CounterSnapshot {
    /// Total dynamic instructions.
    pub fn instructions(&self) -> u64 {
        self.mix.total()
    }

    /// Counter increase since `earlier` (field-wise, saturating at zero).
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            mix: self.mix.delta_since(&earlier.mix),
            l1i: self.l1i.delta_since(&earlier.l1i),
            l1d: self.l1d.delta_since(&earlier.l1d),
            l2: self.l2.delta_since(&earlier.l2),
            l3: self.l3.map(|s| s.delta_since(&earlier.l3.unwrap_or_default())),
            itlb: self.itlb.delta_since(&earlier.itlb),
            dtlb: self.dtlb.delta_since(&earlier.dtlb),
            requested_bytes: self.requested_bytes.saturating_sub(earlier.requested_bytes),
            llc_misses: self.llc_misses.saturating_sub(earlier.llc_misses),
            mispredicts: self.mispredicts.saturating_sub(earlier.mispredicts),
            dram_bytes: self.dram_bytes.saturating_sub(earlier.dram_bytes),
            cycles: self.cycles.saturating_sub(earlier.cycles),
        }
    }

    /// Adds another snapshot's counters into this one.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        self.mix.merge(&other.mix);
        self.l1i.merge(&other.l1i);
        self.l1d.merge(&other.l1d);
        self.l2.merge(&other.l2);
        match (&mut self.l3, &other.l3) {
            (Some(a), Some(b)) => a.merge(b),
            (l3 @ None, Some(b)) => *l3 = Some(*b),
            _ => {}
        }
        self.itlb.merge(&other.itlb);
        self.dtlb.merge(&other.dtlb);
        self.requested_bytes += other.requested_bytes;
        self.llc_misses += other.llc_misses;
        self.mispredicts += other.mispredicts;
        self.dram_bytes += other.dram_bytes;
        self.cycles += other.cycles;
    }

    /// The snapshot as `("counter.<name>", value)` pairs with a fixed,
    /// `'static` key set — the bridge format consumed by telemetry span
    /// args and the Chrome-trace counter tracks. Every snapshot emits
    /// the same keys (an absent L3 reports zero misses) so counter
    /// tracks line up across spans.
    pub fn named_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("counter.instructions", self.mix.total()),
            ("counter.loads", self.mix.loads),
            ("counter.stores", self.mix.stores),
            ("counter.branches", self.mix.branches),
            ("counter.int_ops", self.mix.int_ops),
            ("counter.fp_ops", self.mix.fp_ops),
            ("counter.l1i_misses", self.l1i.misses),
            ("counter.l1d_misses", self.l1d.misses),
            ("counter.l2_misses", self.l2.misses),
            ("counter.l3_misses", self.l3.map_or(0, |s| s.misses)),
            ("counter.itlb_misses", self.itlb.misses),
            ("counter.dtlb_misses", self.dtlb.misses),
            ("counter.llc_misses", self.llc_misses),
            ("counter.branch_mispredicts", self.mispredicts),
            ("counter.dram_bytes", self.dram_bytes),
            ("counter.cycles", self.cycles),
        ]
    }

    /// Expands the snapshot into a full [`CharacterizationReport`] (with
    /// no phases of its own) so per-phase counters can reuse every
    /// derived metric — MPKI, MIPS, operation intensity.
    pub fn to_report(&self, machine: &str, freq_mhz: u64) -> CharacterizationReport {
        CharacterizationReport {
            machine: machine.to_owned(),
            mix: self.mix,
            l1i: self.l1i.into(),
            l1d: self.l1d.into(),
            l2: self.l2.into(),
            l3: self.l3.map(Into::into),
            itlb: self.itlb.into(),
            dtlb: self.dtlb.into(),
            dram_bytes: self.dram_bytes,
            requested_bytes: self.requested_bytes,
            mispredicts: self.mispredicts,
            cycles: self.cycles,
            freq_mhz,
            phases: Vec::new(),
        }
    }
}

/// Counter deltas attributed to one named phase of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseCounters {
    /// Phase name, e.g. `"map"`, `"shuffle"`, `"iter-3"`.
    pub name: String,
    /// Events credited to this phase.
    pub counters: CounterSnapshot,
}

/// The names of [`CharacterizationReport::feature_vector`]'s entries,
/// in emission order: rate metrics, the memory-hierarchy MPKI ladder,
/// the dynamic instruction mix, and the roofline operation intensities.
pub const BASE_FEATURES: [&str; 16] = [
    "ipc",
    "mips",
    "l1i_mpki",
    "l1d_mpki",
    "l2_mpki",
    "l3_mpki",
    "itlb_mpki",
    "dtlb_mpki",
    "branch_mpki",
    "load_frac",
    "store_frac",
    "branch_frac",
    "int_frac",
    "fp_frac",
    "int_per_dram_byte",
    "fp_per_dram_byte",
];

/// Everything the simulator learned from one characterized run.
#[derive(Debug, Clone, Default)]
pub struct CharacterizationReport {
    /// Machine configuration name (e.g. `"Xeon E5645"`).
    pub machine: String,
    /// Dynamic instruction breakdown.
    pub mix: InstructionMix,
    /// L1 instruction cache.
    pub l1i: LevelStats,
    /// L1 data cache.
    pub l1d: LevelStats,
    /// Unified L2.
    pub l2: LevelStats,
    /// Unified L3 (zero stats when the machine has no L3, e.g. E5310).
    pub l3: Option<LevelStats>,
    /// Instruction TLB.
    pub itlb: LevelStats,
    /// Data TLB.
    pub dtlb: LevelStats,
    /// Bytes transferred from DRAM (last-level misses × line size).
    pub dram_bytes: u64,
    /// Total bytes requested by loads and stores (pre-hierarchy).
    pub requested_bytes: u64,
    /// Branch mispredictions from the 2-bit/gshare predictor.
    pub mispredicts: u64,
    /// Cycles estimated by the timing model.
    pub cycles: u64,
    /// Core frequency in MHz used for the MIPS estimate.
    pub freq_mhz: u64,
    /// Per-phase counter deltas in first-appearance order; empty when
    /// the probe saw no phase marks. Integer counters sum exactly to
    /// the whole-run totals above (deltas telescope).
    pub phases: Vec<PhaseCounters>,
}

impl CharacterizationReport {
    /// Total dynamic instructions.
    pub fn instructions(&self) -> u64 {
        self.mix.total()
    }

    /// Million instructions per second from the timing model
    /// (paper Figure 3-1).
    pub fn mips(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mix.total() as f64 * self.freq_mhz as f64 / self.cycles as f64
        }
    }

    /// Instructions per cycle from the timing model.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mix.total() as f64 / self.cycles as f64
        }
    }

    /// Floating-point operation intensity: FP instructions per byte of
    /// DRAM traffic (paper Figure 5-1, after Williams et al.'s roofline).
    pub fn fp_intensity(&self) -> f64 {
        if self.dram_bytes == 0 {
            0.0
        } else {
            self.mix.fp_ops as f64 / self.dram_bytes as f64
        }
    }

    /// Integer operation intensity: integer-class instructions per byte
    /// of DRAM traffic (paper Figure 5-2).
    pub fn int_intensity(&self) -> f64 {
        if self.dram_bytes == 0 {
            0.0
        } else {
            self.mix.integer_class() as f64 / self.dram_bytes as f64
        }
    }

    /// L1I misses per kilo-instruction.
    pub fn l1i_mpki(&self) -> f64 {
        self.l1i.mpki(self.instructions())
    }

    /// L2 misses per kilo-instruction.
    pub fn l2_mpki(&self) -> f64 {
        self.l2.mpki(self.instructions())
    }

    /// L3 misses per kilo-instruction; zero for machines without L3.
    pub fn l3_mpki(&self) -> f64 {
        self.l3.map_or(0.0, |l| l.mpki(self.instructions()))
    }

    /// ITLB misses per kilo-instruction.
    pub fn itlb_mpki(&self) -> f64 {
        self.itlb.mpki(self.instructions())
    }

    /// DTLB misses per kilo-instruction.
    pub fn dtlb_mpki(&self) -> f64 {
        self.dtlb.mpki(self.instructions())
    }

    /// Branch mispredictions per kilo-instruction.
    pub fn branch_mpki(&self) -> f64 {
        let instructions = self.instructions();
        if instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / instructions as f64
        }
    }

    /// The fixed micro-architectural feature vector of this report, as
    /// `(name, value)` pairs in [`BASE_FEATURES`] order — the raw input
    /// to the workload-subsetting pipeline (`bdb-charmap`), after Jia et
    /// al., "Characterizing and Subsetting Big Data Workloads". Every
    /// report emits the same names in the same order so vectors from
    /// different workloads are directly comparable.
    pub fn feature_vector(&self) -> Vec<(&'static str, f64)> {
        let v = vec![
            ("ipc", self.ipc()),
            ("mips", self.mips()),
            ("l1i_mpki", self.l1i_mpki()),
            ("l1d_mpki", self.l1d.mpki(self.instructions())),
            ("l2_mpki", self.l2_mpki()),
            ("l3_mpki", self.l3_mpki()),
            ("itlb_mpki", self.itlb_mpki()),
            ("dtlb_mpki", self.dtlb_mpki()),
            ("branch_mpki", self.branch_mpki()),
            ("load_frac", self.mix.fraction(InstClass::Load)),
            ("store_frac", self.mix.fraction(InstClass::Store)),
            ("branch_frac", self.mix.fraction(InstClass::Branch)),
            ("int_frac", self.mix.fraction(InstClass::Int)),
            ("fp_frac", self.mix.fraction(InstClass::Fp)),
            ("int_per_dram_byte", self.int_intensity()),
            ("fp_per_dram_byte", self.fp_intensity()),
        ];
        debug_assert_eq!(v.len(), BASE_FEATURES.len());
        debug_assert!(v.iter().map(|(n, _)| *n).eq(BASE_FEATURES.iter().copied()));
        v
    }

    /// Expands each phase into its own report (machine name and core
    /// frequency inherited from the whole-run report) so every derived
    /// metric — MPKI, MIPS, operation intensity — is available per
    /// phase. Order matches [`CharacterizationReport::phases`].
    pub fn phase_reports(&self) -> Vec<(String, CharacterizationReport)> {
        self.phases
            .iter()
            .map(|p| (p.name.clone(), p.counters.to_report(&self.machine, self.freq_mhz)))
            .collect()
    }
}

impl fmt::Display for CharacterizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "machine: {}", self.machine)?;
        writeln!(f, "instructions: {}", self.instructions())?;
        writeln!(f, "MIPS: {:.0}  IPC: {:.2}", self.mips(), self.ipc())?;
        writeln!(
            f,
            "MPKI  L1I {:.2}  L2 {:.2}  L3 {:.2}  ITLB {:.3}  DTLB {:.3}",
            self.l1i_mpki(),
            self.l2_mpki(),
            self.l3_mpki(),
            self.itlb_mpki(),
            self.dtlb_mpki()
        )?;
        write!(
            f,
            "intensity  fp {:.4}  int {:.3}  int:fp {:.1}",
            self.fp_intensity(),
            self.int_intensity(),
            self.mix.int_to_fp_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> InstructionMix {
        InstructionMix {
            loads: 100,
            stores: 50,
            branches: 30,
            int_ops: 200,
            fp_ops: 20,
            other: 100,
        }
    }

    #[test]
    fn totals_and_ratios() {
        let m = mix();
        assert_eq!(m.total(), 500);
        assert_eq!(m.integer_class(), 300);
        assert!((m.int_to_fp_ratio() - 15.0).abs() < 1e-12);
        assert!((m.fraction(InstClass::Load) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn infinite_ratio_without_fp() {
        let m = InstructionMix { int_ops: 10, ..Default::default() };
        assert!(m.int_to_fp_ratio().is_infinite());
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = mix();
        a.merge(&mix());
        assert_eq!(a.total(), 1000);
    }

    #[test]
    fn report_derived_metrics() {
        let r = CharacterizationReport {
            machine: "t".into(),
            mix: mix(),
            cycles: 1000,
            freq_mhz: 2400,
            dram_bytes: 1000,
            ..Default::default()
        };
        // 500 inst / 1000 cycles * 2400 MHz = 1200 MIPS
        assert!((r.mips() - 1200.0).abs() < 1e-9);
        assert!((r.ipc() - 0.5).abs() < 1e-12);
        assert!((r.fp_intensity() - 0.02).abs() < 1e-12);
        assert!((r.int_intensity() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let r = CharacterizationReport::default();
        assert_eq!(r.mips(), 0.0);
        assert_eq!(r.fp_intensity(), 0.0);
        assert_eq!(r.l3_mpki(), 0.0);
    }

    fn snap(scale: u64) -> CounterSnapshot {
        CounterSnapshot {
            mix: InstructionMix { loads: 10 * scale, int_ops: 5 * scale, ..Default::default() },
            l1d: CacheStats { accesses: 10 * scale, misses: scale },
            l3: Some(CacheStats { accesses: scale, misses: scale / 2 }),
            requested_bytes: 80 * scale,
            llc_misses: scale / 2,
            dram_bytes: 32 * scale,
            cycles: 100 * scale,
            ..Default::default()
        }
    }

    #[test]
    fn snapshot_delta_and_merge_roundtrip() {
        let earlier = snap(2);
        let later = snap(5);
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.mix.loads, 30);
        assert_eq!(delta.l1d.misses, 3);
        assert_eq!(delta.l3.unwrap().misses, 1);
        assert_eq!(delta.cycles, 300);
        let mut acc = earlier.clone();
        acc.merge(&delta);
        assert_eq!(acc, later);
        // Reversed delta saturates to zeros rather than wrapping.
        assert_eq!(
            earlier.delta_since(&later),
            CounterSnapshot { l3: Some(CacheStats::default()), ..Default::default() }
        );
    }

    #[test]
    fn named_counters_have_fixed_static_keys() {
        let with_l3 = snap(1);
        let without_l3 = CounterSnapshot { l3: None, ..snap(1) };
        let a = with_l3.named_counters();
        let b = without_l3.named_counters();
        assert_eq!(a.len(), b.len(), "key set must not depend on the machine");
        for ((ka, _), (kb, _)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert!(ka.starts_with("counter."));
        }
        let insts = a.iter().find(|(k, _)| *k == "counter.instructions").unwrap().1;
        assert_eq!(insts, with_l3.instructions());
    }

    #[test]
    fn snapshot_to_report_carries_derived_metrics() {
        let s = snap(4);
        let r = s.to_report("Xeon E5645", 2400);
        assert_eq!(r.machine, "Xeon E5645");
        assert_eq!(r.instructions(), s.instructions());
        assert_eq!(r.cycles, s.cycles);
        assert!(r.mips() > 0.0);
        assert!(r.phases.is_empty());
    }

    #[test]
    fn feature_vector_matches_base_features_and_derived_metrics() {
        let mut s = snap(4);
        s.mispredicts = 3;
        let r = s.to_report("Xeon E5645", 2400);
        let v = r.feature_vector();
        assert_eq!(v.len(), BASE_FEATURES.len());
        let names: Vec<&str> = v.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, BASE_FEATURES.to_vec());
        let get = |name: &str| v.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!((get("ipc") - r.ipc()).abs() < 1e-12);
        assert!((get("branch_mpki") - 3.0 * 1000.0 / r.instructions() as f64).abs() < 1e-12);
        assert!(v.iter().all(|(_, x)| x.is_finite()), "features must be finite: {v:?}");
        // A report with no instructions emits all-zero rates, not NaN.
        let empty = CharacterizationReport::default();
        assert!(empty.feature_vector().iter().all(|(_, x)| *x == 0.0));
    }

    #[test]
    fn phase_reports_inherit_machine_and_frequency() {
        let r = CharacterizationReport {
            machine: "m".into(),
            freq_mhz: 1600,
            phases: vec![
                PhaseCounters { name: "map".into(), counters: snap(1) },
                PhaseCounters { name: "reduce".into(), counters: snap(2) },
            ],
            ..Default::default()
        };
        let per_phase = r.phase_reports();
        assert_eq!(per_phase.len(), 2);
        assert_eq!(per_phase[0].0, "map");
        assert_eq!(per_phase[1].1.machine, "m");
        assert_eq!(per_phase[1].1.freq_mhz, 1600);
        assert_eq!(per_phase[1].1.instructions(), snap(2).instructions());
    }
}
