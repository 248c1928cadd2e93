//! Set-associative cache simulation with true-LRU replacement.
//!
//! The model is deliberately simple — physically indexed, tag-only (no
//! data array), write-allocate, and with statistics sufficient to compute
//! the misses-per-kilo-instruction (MPKI) numbers the paper reports. A
//! single [`Cache`] simulates one level; [`crate::MachineSim`] wires
//! levels into a hierarchy.

use std::fmt;

/// Geometry of one cache level.
///
/// # Example
///
/// ```
/// use bdb_archsim::CacheConfig;
/// let l1 = CacheConfig::new("L1D", 32 * 1024, 8, 64);
/// assert_eq!(l1.sets(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable level name, e.g. `"L1D"`.
    pub name: String,
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Cache line size in bytes; must be a power of two.
    pub line_size: usize,
}

impl CacheConfig {
    /// Creates a new cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not divisible by `associativity *
    /// line_size`, or if `line_size` is not a power of two, or any
    /// argument is zero.
    pub fn new(name: &str, capacity: usize, associativity: usize, line_size: usize) -> Self {
        assert!(capacity > 0 && associativity > 0 && line_size > 0);
        assert!(line_size.is_power_of_two(), "line size must be a power of two");
        assert_eq!(
            capacity % (associativity * line_size),
            0,
            "capacity must be divisible by associativity * line_size"
        );
        Self { name: name.to_owned(), capacity, associativity, line_size }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.capacity / (self.associativity * self.line_size)
    }
}

/// Access counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Lookups that hit. Saturates at zero if `misses` somehow exceeds
    /// `accesses` (e.g. stats assembled by hand or from a delta), rather
    /// than panicking in release-mode wraparound.
    pub fn hits(&self) -> u64 {
        self.accesses.saturating_sub(self.misses)
    }

    /// Counter increase since `earlier` (field-wise, saturating at zero).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses.saturating_sub(earlier.accesses),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }

    /// Adds another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Misses per 1000 instructions, given a total instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%)",
            self.accesses,
            self.misses,
            self.miss_ratio() * 100.0
        )
    }
}

/// One set: tags ordered most-recently-used first.
#[derive(Debug, Clone, Default)]
struct Set {
    /// MRU-first tag list, length ≤ associativity.
    lru: Vec<u64>,
}

/// A single set-associative, true-LRU cache level.
///
/// Addresses are byte addresses; the cache operates on aligned lines.
///
/// # Example
///
/// ```
/// use bdb_archsim::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new("L1D", 1024, 2, 64));
/// assert!(!c.access(0));      // cold miss
/// assert!(c.access(8));       // same line: hit
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Set>,
    stats: CacheStats,
    num_sets: u64,
    line_shift: u32,
}

impl Cache {
    /// Builds an empty (all-invalid) cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            num_sets: sets as u64,
            line_shift: config.line_size.trailing_zeros(),
            sets: vec![Set::default(); sets],
            stats: CacheStats::default(),
            config,
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        self.config.line_size
    }

    /// Looks up the line containing `addr`, updating LRU state and
    /// statistics. Returns `true` on a hit. On a miss the line is filled
    /// (write-allocate), evicting the LRU way if the set is full.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = (line % self.num_sets) as usize;
        let tag = line / self.num_sets;
        self.stats.accesses += 1;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.lru.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.lru.remove(pos);
            set.lru.insert(0, t);
            true
        } else {
            self.stats.misses += 1;
            set.lru.insert(0, tag);
            if set.lru.len() > self.config.associativity {
                set.lru.pop();
            }
            false
        }
    }

    /// Accesses every line overlapped by `[addr, addr + bytes)`, returning
    /// the number of lines that missed.
    pub fn access_range(&mut self, addr: u64, bytes: u64) -> u64 {
        debug_assert!(bytes > 0);
        let line = self.config.line_size as u64;
        let first = addr & !(line - 1);
        let last = (addr + bytes - 1) & !(line - 1);
        let mut misses = 0;
        let mut a = first;
        loop {
            if !self.access(a) {
                misses += 1;
            }
            if a == last {
                break;
            }
            a += line;
        }
        misses
    }

    /// Zeroes the statistics while keeping cache contents (for
    /// ramp-up/warm-measurement protocols).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates all lines and zeroes the statistics.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.lru.clear();
        }
        self.stats = CacheStats::default();
    }

    /// Number of currently valid lines (for tests and debugging).
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| s.lru.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B
        Cache::new(CacheConfig::new("T", 512, 2, 64))
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 4);
        assert_eq!(c.line_size(), 64);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn bad_geometry_panics() {
        CacheConfig::new("bad", 1000, 3, 64);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert!(c.access(0x7f)); // same line
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines whose line-index % 4 == 0: addresses 0, 1024, 2048...
        let a = 0u64;
        let b = 4 * 64; // set 0, different tag
        let d = 8 * 64; // set 0, third tag
        assert!(!c.access(a));
        assert!(!c.access(b));
        // Touch a again so b becomes LRU.
        assert!(c.access(a));
        // Insert d: evicts b.
        assert!(!c.access(d));
        assert!(c.access(a), "a should survive");
        assert!(!c.access(b), "b was evicted");
    }

    #[test]
    fn access_range_spans_lines() {
        let mut c = tiny();
        let misses = c.access_range(60, 8); // crosses the 64B boundary
        assert_eq!(misses, 2);
        assert_eq!(c.stats().accesses, 2);
    }

    #[test]
    fn working_set_within_capacity_has_no_capacity_misses() {
        let mut c = Cache::new(CacheConfig::new("L", 4096, 4, 64));
        // 32 lines working set < 64-line capacity.
        for round in 0..10 {
            for i in 0..32u64 {
                let hit = c.access(i * 64);
                if round > 0 {
                    assert!(hit);
                }
            }
        }
        assert_eq!(c.stats().misses, 32);
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes() {
        // Direct-ish: 2-way, 4 sets = 8 lines; stream 16 distinct lines repeatedly.
        let mut c = tiny();
        for _ in 0..4 {
            for i in 0..16u64 {
                c.access(i * 64);
            }
        }
        // Cyclic access over a working set 2x capacity with LRU => ~100% miss.
        assert_eq!(c.stats().misses, c.stats().accesses);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0));
    }

    #[test]
    fn stats_arithmetic() {
        let s = CacheStats { accesses: 1000, misses: 25 };
        assert_eq!(s.hits(), 975);
        assert!((s.miss_ratio() - 0.025).abs() < 1e-12);
        assert!((s.mpki(10_000) - 2.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().mpki(0), 0.0);
    }

    #[test]
    fn hits_saturate_instead_of_wrapping() {
        // Inconsistent by construction — hits() must not underflow.
        let s = CacheStats { accesses: 10, misses: 25 };
        assert_eq!(s.hits(), 0);
    }

    #[test]
    fn stats_edge_cases() {
        let empty = CacheStats::default();
        assert_eq!(empty.hits(), 0);
        assert_eq!(empty.miss_ratio(), 0.0);
        assert_eq!(empty.mpki(0), 0.0);
        assert_eq!(empty.mpki(1_000_000), 0.0);
        let all_miss = CacheStats { accesses: 7, misses: 7 };
        assert_eq!(all_miss.hits(), 0);
        assert!((all_miss.miss_ratio() - 1.0).abs() < 1e-12);
        // mpki with zero instructions must stay zero even with misses.
        assert_eq!(all_miss.mpki(0), 0.0);
    }

    #[test]
    fn stats_delta_and_merge() {
        let earlier = CacheStats { accesses: 100, misses: 10 };
        let later = CacheStats { accesses: 150, misses: 12 };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta, CacheStats { accesses: 50, misses: 2 });
        // Reversed order saturates to zero instead of wrapping.
        assert_eq!(earlier.delta_since(&later), CacheStats::default());
        let mut acc = earlier;
        acc.merge(&delta);
        assert_eq!(acc, later);
    }
}
