//! The machine model: cache/TLB hierarchy plus event accounting.
//!
//! [`MachineConfig`] captures the two processors from the paper's Tables
//! 5 and 7; [`MachineSim`] routes data accesses and instruction fetches
//! through the hierarchy and produces a
//! [`CharacterizationReport`]. Every level is a [`Cache`]: a TLB is one
//! whose lines are 4 KiB pages, so its capacity is entries × page.

use crate::cache::{lines, Cache, CacheConfig};
use crate::layout::CodeRegion;
use crate::metrics::{CharacterizationReport, CounterSnapshot, InstructionMix};
use crate::timing::TimingModel;

/// Page size of both machines; the TLBs' line size.
const PAGE: usize = 4096;

/// Full machine description: hierarchy geometry plus timing parameters.
///
/// # Example
///
/// A TLB is a [`Cache`] over 4 KiB pages:
///
/// ```
/// use bdb_archsim::{Cache, MachineConfig};
/// let mut dtlb = Cache::new(MachineConfig::xeon_e5645().dtlb);
/// assert!(!dtlb.access(0)); // cold miss
/// assert!(dtlb.access(100)); // same page: hit
/// assert!(!dtlb.access(4096)); // next page: miss
/// ```
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
    /// Instruction TLB geometry: lines are pages, capacity is entries ×
    /// page.
    pub itlb: CacheConfig,
    /// Data TLB geometry, as for `itlb`.
    pub dtlb: CacheConfig,
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
            itlb: CacheConfig::new("ITLB", 128 * PAGE, 4, PAGE),
            dtlb: CacheConfig::new("DTLB", 64 * PAGE, 4, PAGE),
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
            itlb: CacheConfig::new("ITLB", 128 * PAGE, 4, PAGE),
            dtlb: CacheConfig::new("DTLB", 256 * PAGE, 4, PAGE),
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
    itlb: Cache,
    dtlb: Cache,
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
            itlb: Cache::new(config.itlb.clone()),
            dtlb: Cache::new(config.dtlb.clone()),
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
        for a in lines(addr, bytes, self.l2.line_size() as u64) {
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
        CharacterizationReport {
            machine: self.config.name.clone(),
            freq_mhz: self.config.freq_mhz,
            counters: self.snapshot_counters(),
            phases: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;

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

    /// The E5645's DTLB: 16 sets of 4 pages.
    fn dtlb() -> Cache {
        Cache::new(MachineConfig::xeon_e5645().dtlb)
    }

    #[test]
    fn tlb_hits_within_a_page_and_misses_on_the_next() {
        let mut t = dtlb();
        assert!(!t.access(0));
        assert!(t.access(4095));
        assert!(!t.access(4096));
        assert_eq!(t.stats(), CacheStats { accesses: 3, misses: 2 });
    }

    #[test]
    fn tlb_range_spans_pages() {
        assert_eq!(dtlb().access_range(4090, 10), 2);
    }

    #[test]
    fn tlb_evicts_the_least_recently_used_page() {
        let mut t = dtlb();
        // Pages 0, 16, 32, 48 and 64 share set 0.
        let page = |n: u64| n * 4096;
        for n in [0, 16, 32, 48] {
            t.access(page(n));
        }
        t.access(page(0)); // page 16 becomes LRU
        t.access(page(64)); // evicts page 16
        assert!(t.access(page(0)));
        assert!(!t.access(page(16)));
    }

    #[test]
    fn tlb_reset_restores_cold_state() {
        let mut t = dtlb();
        t.access(0);
        t.reset();
        assert!(!t.access(0));
        assert_eq!(t.stats().accesses, 1);
    }

    #[test]
    fn streaming_misses_go_to_dram() {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        // Stream 64 MiB: far beyond L3, every new line should reach DRAM.
        for i in 0..(1u64 << 20) {
            m.data_access(i * 64, 8, false);
        }
        let r = m.report();
        assert_eq!(r.counters.mix.loads, 1 << 20);
        // Each access touches a fresh line: all should miss every level.
        assert_eq!(r.counters.l1d.misses, 1 << 20);
        assert_eq!(m.llc_misses(), 1 << 20);
        assert_eq!(r.counters.dram_bytes, (1u64 << 20) * 64);
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
        assert_eq!(r.counters.l1d.misses, 128); // cold misses only
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
        assert!(r.counters.l2.misses > lines, "L2 should keep missing");
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
        assert!(small.counters.dram_bytes > big.counters.dram_bytes);
        // Which is exactly why FP intensity is higher on E5645 (paper §6.3.1).
    }

    #[test]
    fn ifetch_credits_instructions_and_itlb() {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        m.ifetch(CodeRegion::new(0x400000, 8192, 2000));
        let r = m.report();
        assert_eq!(r.instructions(), 2000);
        assert!(r.counters.mix.other > 1000, "majority is integer-class framework code");
        assert!(r.counters.mix.fp_ops > 0, "code decomposition includes a sliver of FP");
        assert!(r.counters.itlb.accesses >= 2);
        assert!(r.counters.l1i.misses > 0);
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

    /// A fixed event stream: strided loads and stores over working sets
    /// of 48, 160 and 640 pages (within both DTLBs, within the E5310's
    /// only, within neither), accesses that cross a page boundary, three
    /// code regions (one of 256 pages, more than the ITLB maps), and
    /// xorshift-driven branches.
    fn drive_golden_stream(m: &mut MachineSim) {
        let code = [
            CodeRegion::new(0x40_0000, 256, 60),
            CodeRegion::new(0x40_0f80, 8192, 2000),
            CodeRegion::new(0x60_0000, 1 << 20, 50_000),
        ];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for (set, pages) in [48u64, 160, 640].into_iter().enumerate() {
            let base = (set as u64 + 1) << 32;
            for round in 0..3 {
                m.ifetch(code[0]);
                m.ifetch(code[1]);
                for p in 0..pages {
                    let page = base + p * 4096;
                    m.data_access(page + (p * 200) % 4096, 8, p % 3 == 0);
                    if p % 8 == 7 {
                        m.data_access(page + 4092, 8, true);
                    }
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    m.branch(x & 3 != 0);
                    m.int_ops(2);
                }
                m.fp_ops(round * 10 + 1);
            }
            m.ifetch(code[2]);
        }
    }

    /// Every counter of [`drive_golden_stream`] on both machines. These
    /// values pin the cache and TLB model: a change of data structure
    /// must leave them untouched.
    #[test]
    fn counters_golden() {
        let stats = |accesses, misses| CacheStats { accesses, misses };
        let mix = InstructionMix {
            loads: 38769,
            stores: 14646,
            branches: 31194,
            int_ops: 5088,
            fp_ops: 1107,
            other: 88329,
        };
        let e5645 = CounterSnapshot {
            mix,
            l1i: stats(50340, 49548),
            l1d: stats(3180, 2550),
            l2: stats(52098, 51010),
            l3: Some(stats(51010, 17574)),
            itlb: stats(804, 777),
            dtlb: stats(3180, 2455),
            requested_bytes: 22896,
            llc_misses: 17574,
            mispredicts: 756,
            dram_bytes: 1124736,
            cycles: 4515457,
        };
        let e5310 = CounterSnapshot {
            mix,
            l1i: stats(50340, 49548),
            l1d: stats(3180, 2550),
            l2: stats(52098, 17574),
            l3: None,
            itlb: stats(804, 777),
            dtlb: stats(3180, 2133),
            requested_bytes: 22896,
            llc_misses: 17574,
            mispredicts: 756,
            dram_bytes: 1124736,
            cycles: 4550861,
        };
        for (config, golden) in
            [(MachineConfig::xeon_e5645(), e5645), (MachineConfig::xeon_e5310(), e5310)]
        {
            let mut m = MachineSim::new(config);
            drive_golden_stream(&mut m);
            assert_eq!(m.snapshot_counters(), golden, "{}", m.config().name);
        }
    }

    #[test]
    fn report_carries_the_snapshot_machine_and_frequency() {
        let mut m = MachineSim::new(MachineConfig::xeon_e5310());
        drive_golden_stream(&mut m);
        let r = m.report();
        assert_eq!(r.machine, "Xeon E5310");
        assert_eq!(r.freq_mhz, 1600);
        assert_eq!(r.counters, m.snapshot_counters());
        assert!(r.mips() > 0.0);
        assert!(r.phases.is_empty());
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
