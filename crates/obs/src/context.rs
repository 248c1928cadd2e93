//! Per-request trace context and sampling policy.
//!
//! Every simulated request gets a 64-bit [`TraceId`] derived
//! deterministically from the run seed and the request's arrival
//! sequence, so the same seed reproduces the same ids — and therefore
//! the same sampling decisions and the same kept traces — on any host.
//! Within a trace, spans carry small fixed span ids forming the causal
//! chain loadgen → queue → handler → store.

use crate::slo::THRESHOLD;
use bdb_archsim::layout::{fnv1a, splitmix64};
use bdb_serving::queue::{RequestOutcome, RequestRecord};
use bdb_telemetry::TraceId;

/// Derives the trace id for request `seq` of phase `phase_salt` under
/// `seed`. Pure; collision-free in practice for one run's volumes.
pub fn derive_trace_id(seed: u64, phase_salt: u64, seq: u64) -> TraceId {
    TraceId(splitmix64(seed ^ splitmix64(phase_salt) ^ seq.wrapping_mul(0x9E37_79B9)))
}

/// Stable salt for a phase name (FNV-1a), so distinct load phases of
/// one run draw from disjoint trace-id streams.
pub fn phase_salt(phase: &str) -> u64 {
    fnv1a(phase.as_bytes())
}

/// Why a trace was kept (or that it was not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleDecision {
    /// Not sampled; only aggregates observe this request.
    Drop,
    /// Kept by the seeded head sampler (decided at admission).
    Head,
    /// Kept by the tail sampler: latency crossed the slow threshold.
    TailSlow,
    /// Kept by the tail sampler: the request was shed or timed out.
    TailError,
}

impl SampleDecision {
    /// Whether the trace is retained.
    pub fn keep(self) -> bool {
        self != SampleDecision::Drop
    }

    /// Stable label for span args and reports.
    pub fn label(self) -> &'static str {
        match self {
            SampleDecision::Drop => "drop",
            SampleDecision::Head => "head",
            SampleDecision::TailSlow => "tail_slow",
            SampleDecision::TailError => "tail_error",
        }
    }
}

/// Head + tail sampling policy.
///
/// Head sampling is decided from the trace id alone (deterministic,
/// decidable at admission before the outcome is known, exactly like a
/// front-end propagating a sampled flag). Tail sampling overrides the
/// head decision after the fact for the requests worth keeping even at
/// a low head rate: anything at or over the SLO's [`THRESHOLD`] and
/// anything the service dropped.
#[derive(Debug, Clone, Copy)]
pub struct SamplingPolicy {
    /// Fraction of traces kept by the head sampler, in `[0, 1]`.
    pub head_rate: f64,
}

impl SamplingPolicy {
    /// Head decision for `trace`: a seeded hash coin-flip.
    pub fn head_sampled(&self, trace: TraceId) -> bool {
        let u = (splitmix64(trace.0 ^ 0x5A4D_11E5) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.head_rate
    }

    /// Final decision once the request's outcome is known. Tail
    /// reasons win over head so reports attribute keeps precisely.
    pub fn decide(&self, trace: TraceId, record: &RequestRecord) -> SampleDecision {
        match record.outcome {
            RequestOutcome::Shed | RequestOutcome::TimedOut => SampleDecision::TailError,
            RequestOutcome::Completed | RequestOutcome::Unfinished => {
                if record.latency_ns() >= THRESHOLD.as_nanos() as u64 {
                    SampleDecision::TailSlow
                } else if self.head_sampled(trace) {
                    SampleDecision::Head
                } else {
                    SampleDecision::Drop
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(outcome: RequestOutcome, latency_ms: u64) -> RequestRecord {
        let (start_ns, finish_ns, service_ns) = match outcome {
            RequestOutcome::Shed => (None, None, 0),
            RequestOutcome::TimedOut => (Some(latency_ms * 1_000_000), None, 0),
            _ => (Some(0), Some(latency_ms * 1_000_000), latency_ms * 1_000_000),
        };
        RequestRecord {
            seq: 0,
            arrival_ns: 0,
            start_ns,
            finish_ns,
            service_ns,
            worker: start_ns.map(|_| 0),
            outcome,
        }
    }

    #[test]
    fn trace_ids_are_stable_and_distinct() {
        let a = derive_trace_id(1, phase_salt("steady"), 0);
        assert_eq!(a, derive_trace_id(1, phase_salt("steady"), 0));
        assert_ne!(a, derive_trace_id(1, phase_salt("steady"), 1));
        assert_ne!(a, derive_trace_id(1, phase_salt("overload"), 0));
        assert_ne!(a, derive_trace_id(2, phase_salt("steady"), 0));
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn head_rate_is_roughly_honored() {
        let policy = SamplingPolicy { head_rate: 0.1 };
        let kept =
            (0..10_000u64).filter(|&i| policy.head_sampled(derive_trace_id(7, 0, i))).count();
        assert!((800..1200).contains(&kept), "kept {kept} of 10k at 10%");
        // Deterministic: same ids, same decisions.
        let again =
            (0..10_000u64).filter(|&i| policy.head_sampled(derive_trace_id(7, 0, i))).count();
        assert_eq!(kept, again);
    }

    #[test]
    fn tail_sampling_always_keeps_slow_and_dropped() {
        let policy = SamplingPolicy { head_rate: 0.0 };
        let t = TraceId(42);
        assert_eq!(
            policy.decide(t, &record(RequestOutcome::Completed, 60)),
            SampleDecision::TailSlow
        );
        assert_eq!(policy.decide(t, &record(RequestOutcome::Completed, 10)), SampleDecision::Drop);
        assert_eq!(policy.decide(t, &record(RequestOutcome::Shed, 0)), SampleDecision::TailError);
        assert_eq!(
            policy.decide(t, &record(RequestOutcome::TimedOut, 70)),
            SampleDecision::TailError
        );
        let all = SamplingPolicy { head_rate: 1.0 };
        assert_eq!(all.decide(t, &record(RequestOutcome::Completed, 10)), SampleDecision::Head);
    }
}
