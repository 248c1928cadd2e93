//! Synthetic address-space layout: heap allocation for data structures
//! and code-region modeling for instruction fetch.
//!
//! Characterized kernels do not read real process memory; instead they
//! allocate *synthetic* regions from an [`AddressSpace`] and derive the
//! addresses they touch from genuine indices and hash values, so spatial
//! and temporal locality are real even though no bytes are stored.
//!
//! Instruction-side behaviour is modeled with [`CodeRegion`]s — address
//! ranges standing for compiled function bodies — grouped into a
//! [`SoftwareStack`]. Each stack layer has a small **hot** pool (the
//! functions on the per-record fast path, which stay cache-resident) and
//! a large **cold** pool (error paths, type dispatch, GC, logging —
//! touched every `cold_period` records). Deep stacks with large cold
//! footprints produce the high L1I-cache and ITLB miss rates the paper
//! measures for big-data workloads; shallow compute kernels stay
//! resident. The hot/cold ratio is the model's calibration knob.

use crate::probe::Probe;

/// Base virtual address of the synthetic code segment.
pub const CODE_BASE: u64 = 0x0040_0000;
/// Base virtual address of the synthetic heap.
pub const HEAP_BASE: u64 = 0x1000_0000_0000;

/// Bytes of machine code per dynamic instruction (x86-64 averages ≈4).
pub const BYTES_PER_INSTRUCTION: u32 = 4;

/// Reserved, non-overlapping sub-spaces of the synthetic address space.
///
/// Substrate crates (the MapReduce engine, the LSM store, the query
/// engine, the servers) allocate their framework state from their own
/// region so their addresses never alias the workload's data when both
/// feed the same [`crate::MachineSim`].
pub mod regions {
    /// Workload data (the default for [`super::AddressSpace::new`]).
    pub const WORKLOAD_HEAP: u64 = super::HEAP_BASE;
    /// MapReduce engine buffers and framework code.
    pub const MAPREDUCE_HEAP: u64 = 0x2000_0000_0000;
    /// MapReduce framework code segment.
    pub const MAPREDUCE_CODE: u64 = 0x0100_0000;
    /// LSM key-value store state.
    pub const KVSTORE_HEAP: u64 = 0x3000_0000_0000;
    /// LSM store code segment.
    pub const KVSTORE_CODE: u64 = 0x0200_0000;
    /// Relational engine state.
    pub const SQL_HEAP: u64 = 0x4000_0000_0000;
    /// Relational engine code segment.
    pub const SQL_CODE: u64 = 0x0300_0000;
    /// Online-service server state.
    pub const SERVING_HEAP: u64 = 0x5000_0000_0000;
    /// Server code segment.
    pub const SERVING_CODE: u64 = 0x0400_0000;
    /// Graph-processing runtime state.
    pub const GRAPH_HEAP: u64 = 0x6000_0000_0000;
    /// Graph runtime code segment.
    pub const GRAPH_CODE: u64 = 0x0500_0000;
}

/// A contiguous range of the synthetic code segment standing for one
/// compiled function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeRegion {
    /// First byte of the function body.
    pub base: u64,
    /// Size of the body in bytes.
    pub bytes: u32,
    /// Number of dynamic instructions executed per invocation.
    pub instructions: u32,
}

impl CodeRegion {
    /// A function body of `bytes` bytes executing `instructions`
    /// instructions per call.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn new(base: u64, bytes: u32, instructions: u32) -> Self {
        assert!(bytes > 0, "code region must be non-empty");
        Self { base, bytes, instructions }
    }

    /// A function body whose instruction count follows from its size
    /// (`bytes / 4`): executing the body touches all of it.
    pub fn sized(base: u64, bytes: u32) -> Self {
        Self::new(base, bytes, (bytes / BYTES_PER_INSTRUCTION).max(1))
    }
}

/// Bump allocator handing out non-overlapping synthetic heap ranges.
///
/// # Example
///
/// ```
/// use bdb_archsim::AddressSpace;
/// let mut asp = AddressSpace::new();
/// let a = asp.alloc(4096, "hash table");
/// let b = asp.alloc(4096, "records");
/// assert!(b >= a + 4096);
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    next_heap: u64,
    next_code: u64,
    allocations: Vec<(u64, u64, String)>,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// An empty address space rooted at the default workload region.
    pub fn new() -> Self {
        Self::with_bases(HEAP_BASE, CODE_BASE)
    }

    /// An empty address space rooted at custom heap/code bases — use a
    /// pair from [`regions`] so substrate allocations never alias
    /// workload data in a shared machine simulation.
    pub fn with_bases(heap_base: u64, code_base: u64) -> Self {
        Self { next_heap: heap_base, next_code: code_base, allocations: Vec::new() }
    }

    /// Allocates `bytes` of synthetic heap, aligned to 64 bytes, returning
    /// the base address. `label` is kept for debugging.
    pub fn alloc(&mut self, bytes: u64, label: &str) -> u64 {
        let base = self.next_heap;
        let padded = (bytes.max(1) + 63) & !63;
        self.next_heap += padded;
        self.allocations.push((base, bytes, label.to_owned()));
        base
    }

    /// Allocates a code region of `bytes` bytes whose instruction count
    /// follows from its size.
    pub fn alloc_code(&mut self, bytes: u32) -> CodeRegion {
        let base = self.next_code;
        self.next_code += ((bytes as u64).max(1) + 63) & !63;
        CodeRegion::sized(base, bytes)
    }

    /// The allocation log: `(base, requested_bytes, label)` tuples.
    pub fn allocations(&self) -> &[(u64, u64, String)] {
        &self.allocations
    }
}

/// One layer of a software stack.
#[derive(Debug, Clone)]
pub struct StackLayer {
    /// Layer label (e.g. `"mapreduce-runtime"`).
    pub name: String,
    /// The per-record fast path: small functions called every invoke.
    pub hot: Vec<CodeRegion>,
    /// The occasional path: large bodies touched every `cold_period`
    /// invokes (dispatch misses, allocation slow paths, logging, GC).
    pub cold: Vec<CodeRegion>,
    /// Hot functions called per invoke (rotating through the pool).
    pub hot_calls: u32,
    /// One cold function is fetched every this-many invokes (0 = never).
    pub cold_period: u32,
}

/// A multi-layer code-footprint model for one workload.
///
/// Each [`SoftwareStack::invoke`] models pushing one record/request
/// through every layer: `hot_calls` small resident functions plus —
/// every `cold_period` records — one hash-selected large cold body.
/// The resulting instruction-fetch stream reproduces the paper's
/// observation that deep stacks (Hadoop, app servers) suffer high L1I
/// and ITLB misses while thin runtimes (MPI) do not.
///
/// # Example
///
/// ```
/// use bdb_archsim::{AddressSpace, SoftwareStack, NullProbe};
/// let mut asp = AddressSpace::new();
/// let stack = SoftwareStack::builder("wordcount")
///     .layer(&mut asp, "user-kernel", 2, 512, 4, 4096, 1, 16)
///     .layer(&mut asp, "framework", 6, 512, 128, 4096, 2, 4)
///     .build();
/// let mut probe = NullProbe;
/// stack.invoke(&mut probe, 42);
/// assert!(stack.footprint_bytes() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SoftwareStack {
    name: String,
    layers: Vec<StackLayer>,
}

impl SoftwareStack {
    /// Starts building a stack with the given workload name.
    pub fn builder(name: &str) -> SoftwareStackBuilder {
        SoftwareStackBuilder { stack: SoftwareStack { name: name.to_owned(), layers: Vec::new() } }
    }

    /// The workload name this stack models.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers, outermost first.
    pub fn layers(&self) -> &[StackLayer] {
        &self.layers
    }

    /// Total static code footprint in bytes across all layers.
    pub fn footprint_bytes(&self) -> u64 {
        self.layers
            .iter()
            .flat_map(|l| l.hot.iter().chain(l.cold.iter()))
            .map(|f| f.bytes as u64)
            .sum()
    }

    /// Pushes one record through the stack (see type docs).
    pub fn invoke<P: Probe + ?Sized>(&self, probe: &mut P, seed: u64) {
        for (li, layer) in self.layers.iter().enumerate() {
            let salt = splitmix64(li as u64 + 1);
            if !layer.hot.is_empty() {
                for c in 0..layer.hot_calls as u64 {
                    let idx = (seed.wrapping_add(c) ^ salt) % layer.hot.len() as u64;
                    probe.call(layer.hot[idx as usize]);
                }
            }
            if layer.cold_period > 0
                && !layer.cold.is_empty()
                && seed % layer.cold_period as u64 == salt % layer.cold_period as u64
            {
                let idx = splitmix64(seed ^ salt) % layer.cold.len() as u64;
                probe.call(layer.cold[idx as usize]);
            }
        }
    }

    /// Fetches every function once — models a cold start / JIT warm-up.
    pub fn warm<P: Probe + ?Sized>(&self, probe: &mut P) {
        for layer in &self.layers {
            for f in layer.hot.iter().chain(layer.cold.iter()) {
                probe.call(*f);
            }
        }
    }
}

/// Builder for [`SoftwareStack`].
#[derive(Debug)]
pub struct SoftwareStackBuilder {
    stack: SoftwareStack,
}

impl SoftwareStackBuilder {
    /// Adds a layer:
    ///
    /// * `hot_count` functions of `hot_bytes` each form the fast path;
    /// * `cold_count` functions of `cold_bytes` each form the occasional
    ///   path;
    /// * per invoke, `hot_calls` hot functions run, and every
    ///   `cold_period`-th invoke additionally fetches one cold body
    ///   (`cold_period = 0` disables cold calls).
    #[allow(clippy::too_many_arguments)]
    pub fn layer(
        mut self,
        asp: &mut AddressSpace,
        name: &str,
        hot_count: u32,
        hot_bytes: u32,
        cold_count: u32,
        cold_bytes: u32,
        hot_calls: u32,
        cold_period: u32,
    ) -> Self {
        let hot = (0..hot_count).map(|_| asp.alloc_code(hot_bytes)).collect();
        let cold = (0..cold_count).map(|_| asp.alloc_code(cold_bytes)).collect();
        self.stack.layers.push(StackLayer {
            name: name.to_owned(),
            hot,
            cold,
            hot_calls,
            cold_period,
        });
        self
    }

    /// Finishes the stack.
    pub fn build(self) -> SoftwareStack {
        self.stack
    }
}

/// SplitMix64 — deterministic 64-bit mixing used for function selection
/// and synthetic address hashing throughout the simulator.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a's 64-bit offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// 64-bit FNV-1a over `bytes` — the workspace's stable byte-string hash
/// for store and SQL key hashes and trace salts. Its value is part of
/// committed artifacts: never change it.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_BASIS, |h, &b| fnv1a_step(h, b))
}

#[inline]
fn fnv1a_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

/// Odd multiplier of [`fnv1a_words`]' word step (SplitMix64's first).
const WORD_MUL: u64 = 0xBF58_476D_1CE4_E5B9;

/// A byte-string hash that reads 8 bytes at a time — MapReduce's
/// partitioning hash. From FNV-1a's offset basis, each full
/// little-endian word `w` folds in as `h = (h ^ w) * K; h ^= h >> 32`,
/// and the `len % 8` tail bytes fold in with FNV-1a's byte step. There
/// is no finalizer, so an input shorter than 8 bytes hashes exactly as
/// [`fnv1a`]. Partitions, and so output order, depend on its value:
/// never change it.
#[inline]
pub fn fnv1a_words(bytes: &[u8]) -> u64 {
    fold_words(FNV_BASIS, bytes)
}

/// [`fnv1a_words`] of `prefix` followed by `bytes`, without joining
/// them: a length-prefixed encoding hashed from the bytes it frames.
#[inline]
pub fn fnv1a_words_prefixed(prefix: [u8; 4], bytes: &[u8]) -> u64 {
    match bytes.split_first_chunk::<4>() {
        Some((head, rest)) => {
            let w =
                u64::from(u32::from_le_bytes(prefix)) | u64::from(u32::from_le_bytes(*head)) << 32;
            fold_words(word_step(FNV_BASIS, w), rest)
        }
        // Under one word in all: FNV-1a's byte steps only.
        None => prefix.iter().chain(bytes).fold(FNV_BASIS, |h, &b| fnv1a_step(h, b)),
    }
}

#[inline]
fn word_step(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(WORD_MUL);
    h ^ h >> 32
}

/// Folds `bytes` into `h`: whole words, then the tail bytes.
#[inline]
fn fold_words(h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let h = words
        .by_ref()
        .fold(h, |h, w| word_step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk"))));
    words.remainder().iter().fold(h, |h, &b| fnv1a_step(h, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::CountingProbe;

    #[test]
    fn alloc_is_disjoint_and_aligned() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(100, "a");
        let b = asp.alloc(1, "b");
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
        assert_eq!(asp.allocations().len(), 2);
    }

    #[test]
    fn code_and_heap_do_not_overlap() {
        let mut asp = AddressSpace::new();
        let heap = asp.alloc(1 << 20, "heap");
        let code = asp.alloc_code(1 << 20);
        assert!(code.base + code.bytes as u64 <= heap);
    }

    #[test]
    fn sized_region_instruction_density() {
        let r = CodeRegion::sized(0x1000, 4096);
        assert_eq!(r.instructions, 1024);
        assert_eq!(CodeRegion::sized(0x1000, 2).instructions, 1);
    }

    #[test]
    fn hot_calls_fire_every_invoke() {
        let mut asp = AddressSpace::new();
        let stack = SoftwareStack::builder("t").layer(&mut asp, "a", 4, 400, 0, 400, 2, 0).build();
        let mut probe = CountingProbe::default();
        stack.invoke(&mut probe, 7);
        // 2 hot calls x (400/4 = 100 insts).
        assert_eq!(probe.mix().total(), 200);
    }

    #[test]
    fn cold_calls_fire_periodically() {
        let mut asp = AddressSpace::new();
        let stack = SoftwareStack::builder("t").layer(&mut asp, "a", 1, 400, 8, 4000, 1, 4).build();
        let mut with_cold = 0u32;
        for seed in 0..64u64 {
            let mut probe = CountingProbe::default();
            stack.invoke(&mut probe, seed);
            if probe.mix().total() > 100 {
                with_cold += 1;
            }
        }
        assert_eq!(with_cold, 16, "one in four invokes hits a cold body");
    }

    #[test]
    fn invoke_is_deterministic() {
        let mut asp = AddressSpace::new();
        let stack =
            SoftwareStack::builder("t").layer(&mut asp, "a", 8, 512, 16, 2048, 3, 5).build();
        let mut p1 = CountingProbe::default();
        let mut p2 = CountingProbe::default();
        stack.invoke(&mut p1, 123);
        stack.invoke(&mut p2, 123);
        assert_eq!(p1.mix(), p2.mix());
    }

    #[test]
    fn footprint_sums_hot_and_cold() {
        let mut asp = AddressSpace::new();
        let stack = SoftwareStack::builder("t").layer(&mut asp, "a", 2, 100, 3, 1000, 1, 4).build();
        assert_eq!(stack.footprint_bytes(), 2 * 100 + 3 * 1000);
    }

    #[test]
    fn warm_touches_every_function() {
        let mut asp = AddressSpace::new();
        let stack = SoftwareStack::builder("t").layer(&mut asp, "a", 3, 400, 2, 400, 1, 2).build();
        let mut probe = CountingProbe::default();
        stack.warm(&mut probe);
        assert_eq!(probe.mix().total(), 5 * 100);
    }

    #[test]
    fn splitmix_spreads_bits() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a, 1);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_words_reference_vectors() {
        // Under one word it is FNV-1a exactly.
        for s in [&b""[..], b"a", b"foobar", b"1234567"] {
            assert_eq!(fnv1a_words(s), fnv1a(s), "{s:?}");
        }
        // One word, one word plus a tail, two words plus a tail.
        assert_eq!(fnv1a_words(b"12345678"), 0x8b89_829c_6de5_b9e8);
        assert_eq!(fnv1a_words(b"123456789"), 0x0062_c0ce_bd5a_be23);
        assert_eq!(fnv1a_words(b"BigDataBench: a suite"), 0xe7aa_c6e0_a5a6_eea3);
        // Prefixed hashing equals hashing the joined bytes, on every
        // split of the data into head word, whole words and tail.
        let data = b"the data behind a 4-byte prefix";
        for n in 0..=data.len() {
            let joined = [&[7, 0, 0, 0][..], &data[..n]].concat();
            assert_eq!(fnv1a_words_prefixed([7, 0, 0, 0], &data[..n]), fnv1a_words(&joined));
        }
        // Each word step is a bijection, so one-word inputs never collide.
        let a = fnv1a_words(&1u64.to_le_bytes());
        let b = fnv1a_words(&2u64.to_le_bytes());
        assert_ne!(a, b);
    }
}
