//! Shared formatting and experiment plumbing for the BigDataBench-RS
//! benchmark harness.
//!
//! The `reproduce` binary (see `src/bin/reproduce.rs`) regenerates every
//! table and figure of the paper's evaluation; wall-clock performance
//! of the native engines is measured by `wallbench/` at the repository
//! root. This library holds the text-table formatter and the paper's
//! reference values used for side-by-side reporting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod charmap;
pub mod paper;
pub mod results;
pub mod table;

pub use results::{collect, compare_json, compare_json_subset, BenchResults, Drift};
pub use table::TextTable;
