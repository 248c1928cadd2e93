//! Property-based invariants of the cache/TLB/machine simulators.

use bdb_archsim::{Cache, CacheConfig, MachineConfig, MachineSim};
use proptest::prelude::*;

fn small_cache() -> Cache {
    Cache::new(CacheConfig::new("t", 4096, 4, 64))
}

proptest! {
    /// Misses never exceed accesses, and stats add up.
    #[test]
    fn misses_bounded_by_accesses(addrs in proptest::collection::vec(0u64..1_000_000, 1..500)) {
        let mut c = small_cache();
        for a in &addrs {
            c.access(*a);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert!(s.misses <= s.accesses);
        prop_assert_eq!(s.hits() + s.misses, s.accesses);
    }

    /// Resident lines never exceed the configured capacity.
    #[test]
    fn capacity_is_respected(addrs in proptest::collection::vec(0u64..10_000_000, 1..2000)) {
        let mut c = small_cache();
        for a in &addrs {
            c.access(*a);
        }
        prop_assert!(c.resident_lines() <= 4096 / 64);
    }

    /// An address accessed twice in a row always hits the second time.
    #[test]
    fn immediate_rehit(addr in 0u64..u64::MAX / 2) {
        let mut c = small_cache();
        c.access(addr);
        prop_assert!(c.access(addr));
    }

    /// Replaying the same trace yields identical statistics.
    #[test]
    fn deterministic_replay(addrs in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let run = |addrs: &[u64]| {
            let mut c = small_cache();
            for a in addrs {
                c.access(*a);
            }
            c.stats()
        };
        prop_assert_eq!(run(&addrs), run(&addrs));
    }

    /// A working set no bigger than the cache has only cold misses.
    #[test]
    fn small_working_set_only_cold_misses(
        lines in proptest::collection::vec(0u64..64, 1..64),
        rounds in 1usize..6,
    ) {
        let mut c = small_cache();
        let distinct: std::collections::HashSet<u64> = lines.iter().copied().collect();
        for _ in 0..rounds {
            for &l in &lines {
                c.access(l * 64);
            }
        }
        prop_assert_eq!(c.stats().misses, distinct.len() as u64);
    }

    /// TLB: misses bounded, page-granular hits, and no more pages
    /// resident than entries, on both shipped DTLB geometries.
    #[test]
    fn tlb_invariants(pages in proptest::collection::vec(0u64..1000, 1..400)) {
        for config in [MachineConfig::xeon_e5645().dtlb, MachineConfig::xeon_e5310().dtlb] {
            let entries = config.capacity / config.line_size;
            let mut t = Cache::new(config);
            for &p in &pages {
                t.access(p * 4096);
                // Same page again: must hit.
                prop_assert!(t.access(p * 4096 + 123));
            }
            let s = t.stats();
            prop_assert_eq!(s.accesses, pages.len() as u64 * 2);
            prop_assert!(s.misses <= pages.len() as u64);
            prop_assert!(t.resident_lines() <= entries);
        }
    }

    /// MachineSim: a random event stream keeps the report internally
    /// consistent (per-level monotonicity, cycles > 0 for nonempty runs).
    #[test]
    fn machine_report_consistent(
        ops in proptest::collection::vec((0u64..10_000_000, 1u32..128, any::<bool>()), 1..300),
    ) {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        for (addr, bytes, store) in &ops {
            m.data_access(*addr, *bytes, *store);
        }
        let r = m.report();
        prop_assert_eq!(r.counters.mix.loads + r.counters.mix.stores, ops.len() as u64);
        // The hierarchy filters: L2 sees at most L1D misses, L3 at most L2 misses.
        prop_assert!(r.counters.l2.accesses <= r.counters.l1d.misses + r.counters.l1i.misses);
        let l3 = r.counters.l3.expect("E5645 has L3");
        prop_assert!(l3.accesses <= r.counters.l2.misses);
        prop_assert!(r.counters.cycles > 0);
        prop_assert!(r.counters.dram_bytes.is_multiple_of(64), "DRAM traffic is line-granular");
    }

    /// reset_stats zeroes counters but preserves cache warmth.
    #[test]
    fn reset_preserves_warmth(addrs in proptest::collection::vec(0u64..100_000, 1..200)) {
        let mut m = MachineSim::new(MachineConfig::xeon_e5310());
        for a in &addrs {
            m.data_access(*a, 8, false);
        }
        m.reset_stats();
        let zero = m.report();
        prop_assert_eq!(zero.instructions(), 0);
        // Re-access the last address: it must be warm (L1 hit, no DRAM).
        m.data_access(*addrs.last().expect("nonempty"), 8, false);
        let r = m.report();
        prop_assert_eq!(r.counters.l1d.misses, 0);
    }
}
