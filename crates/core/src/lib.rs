//! # BigDataBench-RS
//!
//! A Rust reproduction of *BigDataBench: a Big Data Benchmark Suite from
//! Internet Services* (Wang, Zhan, et al., HPCA 2014): nineteen
//! workloads across online services, offline analytics and realtime
//! analytics, the BDGS synthetic data generators, and a trace-driven
//! micro-architectural characterization harness that regenerates the
//! paper's figures on simulated Xeon E5645/E5310 machines.
//!
//! ## Architecture
//!
//! Every workload runs in two modes through one code path:
//!
//! * **native** — parallel, uninstrumented, measuring the paper's
//!   user-perceivable metrics (DPS for analytics, OPS for Cloud OLTP,
//!   RPS + latency for services);
//! * **traced** — single-threaded against [`bdb_archsim`]'s machine
//!   model, producing cache/TLB MPKI, instruction mix, and operation
//!   intensity, with each workload's software stack (Hadoop-like
//!   MapReduce runtime, LSM store, query engine, app server) modeled by
//!   its substrate crate.
//!
//! The 19 workloads of the paper's Table 4 are enumerated by
//! [`WorkloadId`], the suite's one list of them; [`Suite`] runs any of
//! them in either mode.
//!
//! ## Quick start
//!
//! ```
//! use bigdatabench::{Suite, WorkloadId};
//!
//! let suite = Suite::quick(); // tiny inputs, suitable for tests/CI
//! let report = suite.run_native(WorkloadId::WordCount, 1);
//! assert!(report.metric.value() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod report;
pub mod scale;
pub mod suite;
pub mod workload;
pub mod workloads;

pub use bdb_archsim::{CharacterizationReport, MachineConfig};
pub use report::{MetricKind, UserMetric, WorkloadReport};
pub use scale::RunScale;
pub use suite::Suite;
pub use workload::{ApplicationType, WorkloadId};
