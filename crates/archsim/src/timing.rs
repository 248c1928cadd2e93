//! A simple additive pipeline timing model.
//!
//! `cycles = instructions × CPI_base + Σ level_misses × level_penalty`.
//! This is the standard first-order model; it is sufficient to reproduce
//! the *trends* in the paper's Figure 3-1 (MIPS versus data volume),
//! where MIPS moves because the miss profile moves.

/// Latency parameters for the additive timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Base cycles per instruction with a perfect memory system.
    pub cpi_base: f64,
    /// Extra cycles for an L1 (I or D) miss that hits in L2.
    pub l2_hit_penalty: f64,
    /// Extra cycles for an L2 miss that hits in L3.
    pub l3_hit_penalty: f64,
    /// Extra cycles for a last-level-cache miss (DRAM access).
    pub dram_penalty: f64,
    /// Extra cycles for a TLB miss (page walk).
    pub tlb_penalty: f64,
    /// Extra cycles for a mispredicted branch.
    pub branch_mispredict_penalty: f64,
}

impl TimingModel {
    /// Parameters approximating a Nehalem/Westmere-class core
    /// (the Xeon E5645 of the paper).
    pub fn westmere() -> Self {
        Self {
            cpi_base: 0.35,
            l2_hit_penalty: 10.0,
            l3_hit_penalty: 35.0,
            dram_penalty: 180.0,
            tlb_penalty: 30.0,
            branch_mispredict_penalty: 15.0,
        }
    }

    /// Parameters approximating a Core-class machine without L3
    /// (the Xeon E5310): L2 is the last level.
    pub fn clovertown() -> Self {
        Self {
            cpi_base: 0.5,
            l2_hit_penalty: 14.0,
            l3_hit_penalty: 0.0,
            dram_penalty: 220.0,
            tlb_penalty: 35.0,
            branch_mispredict_penalty: 13.0,
        }
    }

    /// Estimates total cycles from event counts.
    #[allow(clippy::too_many_arguments)]
    pub fn cycles(
        &self,
        instructions: u64,
        l1_misses_hitting_l2: u64,
        l2_misses_hitting_l3: u64,
        llc_misses: u64,
        tlb_misses: u64,
        branch_mispredicts: u64,
    ) -> u64 {
        let c = instructions as f64 * self.cpi_base
            + l1_misses_hitting_l2 as f64 * self.l2_hit_penalty
            + l2_misses_hitting_l3 as f64 * self.l3_hit_penalty
            + llc_misses as f64 * self.dram_penalty
            + tlb_misses as f64 * self.tlb_penalty
            + branch_mispredicts as f64 * self.branch_mispredict_penalty;
        c.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_memory_is_base_cpi() {
        let t = TimingModel::westmere();
        let cycles = t.cycles(1_000_000, 0, 0, 0, 0, 0);
        assert_eq!(cycles, 350_000);
    }

    #[test]
    fn misses_add_cycles() {
        let t = TimingModel::westmere();
        let base = t.cycles(1000, 0, 0, 0, 0, 0);
        let with_misses = t.cycles(1000, 10, 5, 2, 1, 3);
        let expected_extra = 10.0 * 10.0 + 5.0 * 35.0 + 2.0 * 180.0 + 30.0 + 3.0 * 15.0;
        assert_eq!(with_misses - base, expected_extra as u64);
    }

    #[test]
    fn clovertown_has_no_l3_penalty() {
        let t = TimingModel::clovertown();
        assert_eq!(t.l3_hit_penalty, 0.0);
        assert!(t.dram_penalty > TimingModel::westmere().dram_penalty);
    }
}
