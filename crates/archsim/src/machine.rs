//! The machine model: cache/TLB hierarchy plus event accounting.
//!
//! [`MachineConfig`] captures the two processors from the paper's Tables
//! 5 and 7; [`MachineSim`] routes data accesses and instruction fetches
//! through the hierarchy and produces a
//! [`CharacterizationReport`].

use crate::cache::{Cache, CacheConfig};
use crate::layout::CodeRegion;
use crate::metrics::{CharacterizationReport, CounterSnapshot, InstructionMix};
use crate::timing::TimingModel;
use crate::tlb::{Tlb, TlbConfig};

/// Full machine description: hierarchy geometry plus timing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Marketing name, e.g. `"Xeon E5645"`.
    pub name: String,
    /// Core frequency in MHz.
    pub freq_mhz: u64,
    /// Core count (informational; the simulator models one core).
    pub cores: u32,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Unified L3 geometry, if the machine has one.
    pub l3: Option<CacheConfig>,
    /// Instruction TLB geometry.
    pub itlb: TlbConfig,
    /// Data TLB geometry.
    pub dtlb: TlbConfig,
    /// Pipeline timing parameters.
    pub timing: TimingModel,
}

impl MachineConfig {
    /// The Intel Xeon E5645 of the paper's Table 5: 6 cores @ 2.40 GHz,
    /// 32 KiB L1I/L1D, 256 KiB L2 per core, 12 MiB shared L3.
    pub fn xeon_e5645() -> Self {
        Self {
            name: "Xeon E5645".to_owned(),
            freq_mhz: 2400,
            cores: 6,
            l1i: CacheConfig::new("L1I", 32 * 1024, 8, 64),
            l1d: CacheConfig::new("L1D", 32 * 1024, 8, 64),
            l2: CacheConfig::new("L2", 256 * 1024, 8, 64),
            l3: Some(CacheConfig::new("L3", 12 * 1024 * 1024, 16, 64)),
            itlb: TlbConfig::new("ITLB", 128, 4, 4096),
            dtlb: TlbConfig::new("DTLB", 64, 4, 4096),
            timing: TimingModel::westmere(),
        }
    }

    /// The Intel Xeon E5310 of the paper's Table 7: 4 cores @ 1.60 GHz,
    /// 32 KiB L1s, 4 MiB L2, **no L3**.
    pub fn xeon_e5310() -> Self {
        Self {
            name: "Xeon E5310".to_owned(),
            freq_mhz: 1600,
            cores: 4,
            l1i: CacheConfig::new("L1I", 32 * 1024, 8, 64),
            l1d: CacheConfig::new("L1D", 32 * 1024, 8, 64),
            l2: CacheConfig::new("L2", 4 * 1024 * 1024, 16, 64),
            l3: None,
            itlb: TlbConfig::new("ITLB", 128, 4, 4096),
            dtlb: TlbConfig::new("DTLB", 256, 4, 4096),
            timing: TimingModel::clovertown(),
        }
    }
}

/// A two-bit-saturating-counter branch predictor with a small global
/// history table (gshare without per-branch PCs: history-indexed).
#[derive(Debug, Clone)]
struct BranchPredictor {
    counters: Vec<u8>,
    history: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    fn new() -> Self {
        Self { counters: vec![2; 4096], history: 0, mispredicts: 0 }
    }

    fn predict_and_update(&mut self, taken: bool) {
        let idx = (self.history & 0xFFF) as usize;
        let c = &mut self.counters[idx];
        let predicted_taken = *c >= 2;
        if predicted_taken != taken {
            self.mispredicts += 1;
        }
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = (self.history << 1) | taken as u64;
    }
}

/// Single-core machine simulator: routes events through the hierarchy.
#[derive(Debug, Clone)]
pub struct MachineSim {
    config: MachineConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    itlb: Tlb,
    dtlb: Tlb,
    predictor: BranchPredictor,
    mix: InstructionMix,
    requested_bytes: u64,
    l2_hits_from_l1: u64,
    l3_hits_from_l2: u64,
    llc_misses: u64,
}

impl MachineSim {
    /// Builds a cold machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            l1i: Cache::new(config.l1i.clone()),
            l1d: Cache::new(config.l1d.clone()),
            l2: Cache::new(config.l2.clone()),
            l3: config.l3.clone().map(Cache::new),
            itlb: Tlb::new(config.itlb.clone()),
            dtlb: Tlb::new(config.dtlb.clone()),
            predictor: BranchPredictor::new(),
            mix: InstructionMix::default(),
            requested_bytes: 0,
            l2_hits_from_l1: 0,
            l3_hits_from_l2: 0,
            llc_misses: 0,
            config,
        }
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Processes a data access (load if `is_store` is false).
    pub fn data_access(&mut self, addr: u64, bytes: u32, is_store: bool) {
        let bytes = bytes.max(1);
        if is_store {
            self.mix.stores += 1;
        } else {
            self.mix.loads += 1;
        }
        self.requested_bytes += bytes as u64;
        self.dtlb.access_range(addr, bytes as u64);
        self.walk_lines(addr, bytes as u64, false);
    }

    /// Processes an instruction fetch of one function body, crediting
    /// its dynamic instructions decomposed into classes (see
    /// [`InstructionMix::credit_code`]).
    pub fn ifetch(&mut self, region: CodeRegion) {
        self.mix.credit_code(region.instructions as u64);
        self.itlb.access_range(region.base, region.bytes as u64);
        self.walk_lines(region.base, region.bytes as u64, true);
    }

    /// Records `n` integer ALU instructions.
    pub fn int_ops(&mut self, n: u64) {
        self.mix.int_ops += n;
    }

    /// Records `n` floating-point instructions.
    pub fn fp_ops(&mut self, n: u64) {
        self.mix.fp_ops += n;
    }

    /// Records a branch and runs it through the predictor.
    pub fn branch(&mut self, taken: bool) {
        self.mix.branches += 1;
        self.predictor.predict_and_update(taken);
    }

    /// Walks each line of `[addr, addr+bytes)` through L1→L2→L3.
    fn walk_lines(&mut self, addr: u64, bytes: u64, instruction: bool) {
        let line = self.l2.line_size() as u64;
        let first = addr & !(line - 1);
        let last = (addr + bytes - 1) & !(line - 1);
        let mut a = first;
        loop {
            let l1 = if instruction { &mut self.l1i } else { &mut self.l1d };
            if !l1.access(a) {
                if self.l2.access(a) {
                    self.l2_hits_from_l1 += 1;
                } else if let Some(l3) = self.l3.as_mut() {
                    if l3.access(a) {
                        self.l3_hits_from_l2 += 1;
                    } else {
                        self.llc_misses += 1;
                    }
                } else {
                    self.llc_misses += 1;
                }
            }
            if a == last {
                break;
            }
            a += line;
        }
    }

    /// Zeroes all statistics (instruction mix, cache/TLB counters,
    /// predictor outcomes) while keeping cache and TLB contents — the
    /// paper's "collect after a ramp-up period" protocol.
    pub fn reset_stats(&mut self) {
        self.mix = InstructionMix::default();
        self.requested_bytes = 0;
        self.l2_hits_from_l1 = 0;
        self.l3_hits_from_l2 = 0;
        self.llc_misses = 0;
        self.predictor.mispredicts = 0;
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        if let Some(l3) = self.l3.as_mut() {
            l3.reset_stats();
        }
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
    }

    /// Misses that went all the way to DRAM.
    pub fn llc_misses(&self) -> u64 {
        self.llc_misses
    }

    /// Takes a cheap point-in-time copy of every counter — a handful of
    /// integers, no cache contents. Pair two snapshots with
    /// [`CounterSnapshot::delta_since`] to attribute the interval's
    /// events to a span or phase.
    pub fn snapshot_counters(&self) -> CounterSnapshot {
        let tlb_misses = self.itlb.stats().misses + self.dtlb.stats().misses;
        let cycles = self.config.timing.cycles(
            self.mix.total(),
            self.l2_hits_from_l1,
            self.l3_hits_from_l2,
            self.llc_misses,
            tlb_misses,
            self.predictor.mispredicts,
        );
        CounterSnapshot {
            mix: self.mix,
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3: self.l3.as_ref().map(|c| c.stats()),
            itlb: self.itlb.stats(),
            dtlb: self.dtlb.stats(),
            requested_bytes: self.requested_bytes,
            llc_misses: self.llc_misses,
            mispredicts: self.predictor.mispredicts,
            dram_bytes: self.llc_misses * self.l2.line_size() as u64,
            cycles,
        }
    }

    /// Builds the characterization report for events so far.
    pub fn report(&self) -> CharacterizationReport {
        self.snapshot_counters().to_report(&self.config.name, self.config.freq_mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5645_matches_table5() {
        let c = MachineConfig::xeon_e5645();
        assert_eq!(c.l1i.capacity, 32 * 1024);
        assert_eq!(c.l2.capacity, 256 * 1024);
        assert_eq!(c.l3.as_ref().unwrap().capacity, 12 * 1024 * 1024);
        assert_eq!(c.freq_mhz, 2400);
        assert_eq!(c.cores, 6);
    }

    #[test]
    fn e5310_matches_table7() {
        let c = MachineConfig::xeon_e5310();
        assert!(c.l3.is_none());
        assert_eq!(c.l2.capacity, 4 * 1024 * 1024);
        assert_eq!(c.freq_mhz, 1600);
    }

    #[test]
    fn streaming_misses_go_to_dram() {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        // Stream 64 MiB: far beyond L3, every new line should reach DRAM.
        for i in 0..(1u64 << 20) {
            m.data_access(i * 64, 8, false);
        }
        let r = m.report();
        assert_eq!(r.mix.loads, 1 << 20);
        // Each access touches a fresh line: all should miss every level.
        assert_eq!(r.l1d.stats.misses, 1 << 20);
        assert_eq!(m.llc_misses(), 1 << 20);
        assert_eq!(r.dram_bytes, (1u64 << 20) * 64);
    }

    #[test]
    fn small_working_set_stays_in_l1() {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        for _ in 0..100 {
            for i in 0..128u64 {
                m.data_access(i * 64, 8, false);
            }
        }
        let r = m.report();
        assert_eq!(r.l1d.stats.misses, 128); // cold misses only
        assert_eq!(m.llc_misses(), 128);
    }

    #[test]
    fn l3_absorbs_l2_overflow_on_e5645() {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        // Working set 1 MiB: fits L3 (12 MiB), exceeds L2 (256 KiB).
        let lines = (1u64 << 20) / 64;
        for _ in 0..4 {
            for i in 0..lines {
                m.data_access(i * 64, 8, false);
            }
        }
        let r = m.report();
        // After the cold pass, L2 thrashes but L3 holds everything.
        assert_eq!(m.llc_misses(), lines);
        assert!(r.l2.stats.misses > lines, "L2 should keep missing");
    }

    #[test]
    fn same_working_set_hits_dram_more_on_e5310() {
        // 1 MiB working set: E5310's 4MiB L2 holds it; but 8 MiB exceeds
        // E5310 LLC while fitting E5645's L3.
        let run = |cfg: MachineConfig| {
            let mut m = MachineSim::new(cfg);
            let lines = (8u64 << 20) / 64;
            for _ in 0..3 {
                for i in 0..lines {
                    m.data_access(i * 64, 8, false);
                }
            }
            m.report()
        };
        let big = run(MachineConfig::xeon_e5645());
        let small = run(MachineConfig::xeon_e5310());
        assert!(small.dram_bytes > big.dram_bytes);
        // Which is exactly why FP intensity is higher on E5645 (paper §6.3.1).
    }

    #[test]
    fn ifetch_credits_instructions_and_itlb() {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        m.ifetch(CodeRegion::new(0x400000, 8192, 2000));
        let r = m.report();
        assert_eq!(r.instructions(), 2000);
        assert!(r.mix.other > 1000, "majority is integer-class framework code");
        assert!(r.mix.fp_ops > 0, "code decomposition includes a sliver of FP");
        assert!(r.itlb.stats.accesses >= 2);
        assert!(r.l1i.stats.misses > 0);
    }

    #[test]
    fn branch_predictor_learns_bias() {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        for _ in 0..10_000 {
            m.branch(true);
        }
        // A fully biased branch should be almost always predicted.
        assert!(m.predictor.mispredicts < 20);
    }

    #[test]
    fn report_mips_positive_under_load() {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        for i in 0..1000u64 {
            m.data_access(i * 8, 8, i % 2 == 0);
            m.int_ops(3);
        }
        let r = m.report();
        assert!(r.mips() > 0.0);
        assert!(r.ipc() > 0.0 && r.ipc() < 4.0);
    }
}
