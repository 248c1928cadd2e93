//! Deterministic chaos campaigns for the BigDataBench-RS suite.
//!
//! The paper's workloads are judged on throughput and latency; this
//! crate judges them on *survival*. A campaign composes a
//! seeded [`bdb_faults::FaultPlan`] schedule — node kills at virtual
//! deadlines, torn WAL writes mid-ship, lost replication ships, task
//! panics, stragglers — over multiple rounds of a workload, records
//! what happened on a linear virtual timeline, and then runs
//! *invariant checkers* over the observed behaviour:
//!
//! * [`oltp`] — the replicated Cloud-OLTP store ([`bdb_cluster`]):
//!   a linearizable-style history checker over acknowledged writes and
//!   quorum reads, exact replica convergence after full repair, and a
//!   fault-coverage gate (the campaign must actually have forced
//!   failovers, read-repairs, lost ships, kills and rejoins);
//! * [`wordcount`] — the MapReduce engine ([`bdb_mapreduce`]): output
//!   byte-identical to a fault-free run despite injected spill errors,
//!   task panics and speculated stragglers, every round;
//! * [`serving`] — the online tier ([`bdb_obs`]): fault-failed
//!   requests (shed, timed out) are always tail-sampled and accounted,
//!   and the SLO arithmetic stays consistent under overload.
//!
//! Everything is deterministic from `(seed, campaign)`: the same seed
//! produces the same fault schedule, the same history, the same
//! verdicts and a byte-identical [`CampaignReport::render_json`] on
//! any host — so CI can diff two runs directly, and a failing seed is
//! a reproducer, not an anecdote.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oltp;
pub mod report;
pub mod serving;
pub mod wordcount;

pub use oltp::oltp_campaign;
pub use report::{CampaignReport, CheckerVerdict};
pub use serving::serving_campaign;
pub use wordcount::wordcount_campaign;

/// Fault rounds every campaign runs.
const ROUNDS: u32 = 3;

/// Fault-injection sites owned by the campaign driver itself (the
/// workload-internal sites live in their own crates' `sites` modules).
pub mod sites {
    /// Straggle site consulted once per generated service time in the
    /// serving campaign; fired rules stretch that request's latency.
    pub const SERVING_STRAGGLE: &str = "chaos.serving.straggle";
}
