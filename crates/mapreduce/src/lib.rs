//! An in-process, multi-threaded MapReduce engine — the Hadoop stand-in
//! of BigDataBench-RS.
//!
//! The paper runs most of its offline-analytics workloads (Sort, Grep,
//! WordCount, Index, PageRank, K-means, Connected Components,
//! Collaborative Filtering, Naive Bayes) on Hadoop 1.0.2. This crate
//! implements the same execution model from scratch:
//!
//! * **map** — user function over input records, emitting `(key, value)`
//!   pairs into per-partition sort buffers. A pair's partition is the
//!   [`bdb_archsim::layout::fnv1a_words`] hash of its encoded key modulo
//!   the reducer count; the buffer groups values under their key as they
//!   arrive, reusing that hash;
//! * **combine** — optional map-side pre-aggregation, applied when a
//!   buffer is flushed (at each spill and at task end): the buffer sorts
//!   its distinct keys and combines each key's values in emission order,
//!   exactly as a stable sort of every buffered pair would group them;
//! * **spill** — when a map task's buffer exceeds its memory budget the
//!   sorted run is serialized to a temporary file, exactly the mechanism
//!   that makes Sort degrade once inputs exceed memory (paper Figure 3-2);
//! * **shuffle / merge-sort** — each partition's in-memory runs and
//!   spilled runs are k-way merged as a stream ([`spill::GroupMerge`]):
//!   spills are read in chunks and decoded pair by pair, and groups come
//!   out one key at a time;
//! * **reduce** — user function over each key group, as the merge
//!   yields it.
//!
//! Kernels are written once, generically over [`bdb_archsim::Probe`]:
//! [`Engine::run`] executes in parallel with [`bdb_archsim::NullProbe`]
//! for throughput measurements, while [`Engine::run_traced`] executes
//! single-threaded against a machine simulator, additionally modeling the
//! framework's own instruction footprint (the "deep software stack" the
//! paper blames for big-data workloads' high L1I miss rates).
//!
//! The paper's text micro benchmarks (Sort, Grep, WordCount) live in
//! [`jobs`], written once for every caller.
//!
//! # Example
//!
//! ```
//! use bdb_mapreduce::{jobs::WordCount, Engine};
//!
//! let engine = Engine::builder().threads(2).build();
//! let input = vec!["a b a.".to_owned(), "b a".to_owned()];
//! let (mut out, stats) = engine.run(&WordCount, &input);
//! out.sort();
//! assert_eq!(out, vec![("a".to_owned(), 3), ("b".to_owned(), 2)]);
//! assert_eq!(stats.map_records, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod engine;
pub mod error;
pub mod job;
pub mod jobs;
pub mod spill;
pub mod trace;

pub use codec::Datum;
pub use engine::{Engine, EngineBuilder, JobStats};
pub use error::JobError;
pub use job::{Emitter, Job};
pub use trace::FrameworkModel;

/// Fault-injection site names consulted by the engine's parallel path
/// (traced runs are always fault-free). Pass these to a
/// [`bdb_faults::FaultPlan`] to target the matching crash point.
pub mod sites {
    /// Panic site checked at the start of every map-task attempt.
    pub const MAP_TASK: &str = "mapreduce.map.task";
    /// Straggle site checked at the start of every map-task attempt;
    /// a firing rule delays the attempt, inviting speculation.
    pub const MAP_STRAGGLER: &str = "mapreduce.map.straggler";
    /// Panic site checked at the start of every reduce-task attempt.
    pub const REDUCE_TASK: &str = "mapreduce.reduce.task";
    /// I/O site covering every spill-file write.
    pub const SPILL_WRITE: &str = "mapreduce.spill.write";
    /// I/O site covering every spill-file read during the shuffle.
    pub const SPILL_READ: &str = "mapreduce.spill.read";
}
