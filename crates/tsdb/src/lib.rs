//! `bdb-tsdb` — embedded time-series database and cluster
//! observability plane for BigDataBench-RS.
//!
//! The paper treats internet-service workloads as *long-running*
//! services whose behavior must be judged over time — tails, overload
//! episodes, failover and recovery — not from point-in-time counter
//! dumps. This crate supplies the missing timeline:
//!
//! - [`gorilla`]: Gorilla-style block compression — delta-of-delta
//!   varint timestamps (virtual time) and XOR-compressed f64 values,
//!   bit-exact for every finite float.
//! - [`store`]: labeled series ([`SeriesKey`]) in append-only blocks
//!   of [`BLOCK_SAMPLES`] samples, kept for the store's life, and a
//!   byte-deterministic snapshot format ([`Tsdb::snapshot_bytes`]).
//! - [`scrape`]: a virtual-time [`Scraper`] sampling every registered
//!   [`bdb_telemetry::MetricsRegistry`] into series.
//! - [`query`]: range selects by label matchers with [`query::rate`],
//!   [`query::sum_by`], and [`query::histogram_quantile`] re-derived
//!   from scraped bucket series.
//! - [`rules`]: a recording-rule evaluator that replays the live
//!   [`bdb_obs::SloEngine`] burn-rate rules over stored series.
//! - [`dash`]: ASCII sparkline dashboards per node.
//! - [`timeline`]: Dapper-style write-chain reconstruction (route →
//!   WAL append → replica ship → quorum ack) from a flat span stream,
//!   rendered as a failover timeline.
//!
//! Everything is deterministic in virtual time: the same seed
//! produces byte-identical snapshots, dashboards, and timelines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dash;
pub mod gorilla;
pub mod query;
pub mod rules;
pub mod scrape;
pub mod store;
pub mod timeline;

pub use dash::{render_node_dashboard, sparkline};
pub use query::{histogram_quantile, rate, select, sum_by, value_at};
pub use rules::replay_burn_rules;
pub use scrape::Scraper;
pub use store::{Block, SeriesKey, Tsdb, BLOCK_SAMPLES};
pub use timeline::{reconstruct_writes, render_timeline, TimelineEvent, WriteChain};
