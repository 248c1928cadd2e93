//! Online-service framework and servers for BigDataBench-RS.
//!
//! The paper's three online-service workloads (Table 4) are full web
//! applications: **Nutch Server** (search engine front-end), **Olio
//! Server** (a social-event site on Apache+MySQL) and **Rubis Server**
//! (an auction site on Apache+JBoss+MySQL). Their characterization
//! signature — requests per second as the user-perceivable metric, very
//! high L2 MPKI from large resident state plus a deep server software
//! stack — comes from the request loop, not from any one framework, so
//! this crate rebuilds exactly that:
//!
//! * [`Server`] — the request/handler abstraction, instrumented via
//!   [`bdb_archsim::Probe`];
//! * [`search::SearchServer`] — inverted-index lookup + ranking (Nutch);
//! * [`social::SocialServer`] — friend-feed reads and event writes
//!   (Olio);
//! * [`auction::AuctionServer`] — browse/view/bid over relational state
//!   (Rubis);
//! * [`loadgen`] — closed-loop native measurement plus an event-driven
//!   queueing simulator ([`queue`]) that converts measured service times
//!   into achieved-RPS/latency curves under the paper's offered loads
//!   (100×(1..32) requests/s, Table 6). Latencies go into the
//!   suite-wide [`bdb_telemetry::LatencyHistogram`], and
//!   [`loadgen::run_closed_loop_sampled`] also emits per-request spans
//!   through a [`bdb_telemetry::SpanRecorder`] and scrapes its metrics
//!   periodically.
//!
//! # Example
//!
//! ```
//! use bdb_serving::search::SearchServer;
//! use bdb_serving::loadgen::run_closed_loop;
//!
//! let mut server = SearchServer::build(200, 42);
//! let report = run_closed_loop(&mut server, 500, 7);
//! assert_eq!(report.completed, 500);
//! assert!(report.achieved_rps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auction;
pub mod loadgen;
pub mod model;
pub mod queue;
pub mod search;
pub mod server;
pub mod social;
pub mod trace;

pub use loadgen::{
    run_closed_loop, run_closed_loop_sampled, run_offered_load, PrometheusSampler, ServiceReport,
};
pub use model::ServiceTimeModel;
pub use queue::{QueuePolicy, QueueSim, RequestOutcome, RequestRecord};
pub use server::Server;
pub use trace::ServingTraceModel;
