//! Shared formatting and experiment plumbing for the BigDataBench-RS
//! benchmark harness.
//!
//! The `reproduce` binary regenerates every table and figure of the
//! paper's evaluation and runs the suite's artifact passes, all of which
//! live in [`passes`]; wall-clock performance of the native engines is
//! measured by `wallbench/` at the repository root. This library also
//! holds the text-table formatter, the paper's reference values used for
//! side-by-side reporting, the BENCH_RESULTS.json artifact and the
//! characterization-map input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod charmap;
pub mod paper;
pub mod passes;
pub mod results;
pub mod table;

pub use table::TextTable;
