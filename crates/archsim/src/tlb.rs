//! Translation-lookaside-buffer simulation.
//!
//! TLBs are modeled like small set-associative caches over page numbers.
//! The paper reports ITLB and DTLB misses per kilo-instruction (Figure
//! 6-2); both are instances of [`Tlb`] inside [`crate::MachineSim`].

use crate::cache::CacheStats;

/// Geometry of a TLB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbConfig {
    /// Human-readable name, e.g. `"DTLB"`.
    pub name: String,
    /// Total number of entries.
    pub entries: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Page size in bytes; must be a power of two.
    pub page_size: usize,
}

impl TlbConfig {
    /// Creates a TLB geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible by `associativity`, the
    /// resulting set count is not a power of two, or `page_size` is not a
    /// power of two.
    pub fn new(name: &str, entries: usize, associativity: usize, page_size: usize) -> Self {
        assert!(entries > 0 && associativity > 0);
        assert_eq!(entries % associativity, 0, "entries must divide by ways");
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        Self { name: name.to_owned(), entries, associativity, page_size }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.associativity
    }
}

/// A set-associative, true-LRU TLB.
///
/// # Example
///
/// ```
/// use bdb_archsim::{Tlb, TlbConfig};
/// let mut tlb = Tlb::new(TlbConfig::new("DTLB", 64, 4, 4096));
/// assert!(!tlb.access(0));          // cold miss
/// assert!(tlb.access(100));         // same page: hit
/// assert!(!tlb.access(4096));       // next page: miss
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
    num_sets: u64,
    page_shift: u32,
}

impl Tlb {
    /// Builds an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        let sets = config.sets();
        Self {
            num_sets: sets as u64,
            page_shift: config.page_size.trailing_zeros(),
            sets: vec![Vec::new(); sets],
            stats: CacheStats::default(),
            config,
        }
    }

    /// The geometry this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Access counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Translates the page containing byte address `addr`, returning
    /// `true` on a TLB hit and updating LRU state.
    pub fn access(&mut self, addr: u64) -> bool {
        let vpn = addr >> self.page_shift;
        let set_idx = (vpn % self.num_sets) as usize;
        let tag = vpn / self.num_sets;
        self.stats.accesses += 1;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.insert(0, t);
            true
        } else {
            self.stats.misses += 1;
            set.insert(0, tag);
            if set.len() > self.config.associativity {
                set.pop();
            }
            false
        }
    }

    /// Translates every page overlapped by `[addr, addr + bytes)`,
    /// returning the number of pages that missed.
    pub fn access_range(&mut self, addr: u64, bytes: u64) -> u64 {
        debug_assert!(bytes > 0);
        let page = self.config.page_size as u64;
        let first = addr & !(page - 1);
        let last = (addr + bytes - 1) & !(page - 1);
        let mut misses = 0;
        let mut a = first;
        loop {
            if !self.access(a) {
                misses += 1;
            }
            if a == last {
                break;
            }
            a += page;
        }
        misses
    }

    /// Zeroes the statistics while keeping TLB contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates all entries and zeroes the statistics.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig::new("T", 8, 2, 4096))
    }

    #[test]
    fn same_page_hits() {
        let mut t = tiny();
        assert!(!t.access(0));
        assert!(t.access(4095));
        assert!(!t.access(4096));
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn capacity_eviction() {
        let mut t = tiny();
        // 4 sets x 2 ways; pages p and p+4 and p+8 collide in a set.
        let page = 4096u64;
        t.access(0);
        t.access(4 * page);
        t.access(0); // refresh LRU
        t.access(8 * page); // evicts page 4
        assert!(t.access(0));
        assert!(!t.access(4 * page));
    }

    #[test]
    fn range_spans_pages() {
        let mut t = tiny();
        let misses = t.access_range(4090, 10);
        assert_eq!(misses, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size() {
        TlbConfig::new("bad", 8, 2, 1000);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut t = tiny();
        t.access(0);
        t.reset();
        assert!(!t.access(0));
        assert_eq!(t.stats().accesses, 1);
    }
}
