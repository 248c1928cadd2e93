//! Fault-failed requests are never invisible: a request the service
//! shed at admission or abandoned past its deadline must ALWAYS be
//! tail-sampled — regardless of the head sampler's coin flip — and the
//! Prometheus exposition must carry an exemplar trace id on the
//! corresponding failure counter so an operator can jump from the
//! counter straight to a concrete failed trace.

use bdb_obs::{
    derive_trace_id, phase_salt, ObsPipeline, SampleDecision, SamplingPolicy, HEAD_RATE,
};
use bdb_serving::queue::QueueResult;
use bdb_serving::{QueuePolicy, QueueSim, RequestOutcome, ServiceTimeModel};
use bdb_telemetry::assert_prometheus_grammar;
use std::time::Duration;

const SEED: u64 = 1337;

fn model() -> ServiceTimeModel {
    ServiceTimeModel {
        base_us: 2000.0,
        sigma: 0.3,
        tail_weight: 0.02,
        tail_mult: 5.0,
        store_share: (0.4, 0.6),
    }
}

/// An overloaded run: 2 workers at ~2 ms per request saturate near
/// 1000 rps, so offering 2500 rps against a short queue forces sheds,
/// and a deadline below the queue's worst-case wait (8 slots × ~2 ms)
/// forces timeouts too.
fn overloaded_run() -> QueueResult {
    let times = model().sample_times(4096, SEED);
    QueueSim::new(2)
        .with_policy(QueuePolicy {
            queue_capacity: Some(8),
            deadline: Some(Duration::from_millis(10)),
        })
        .run(2500.0, Duration::from_secs(4), &times, SEED)
}

#[test]
fn fault_failed_requests_are_always_tail_sampled() {
    let result = overloaded_run();
    let failures: Vec<_> = result
        .records
        .iter()
        .filter(|r| matches!(r.outcome, RequestOutcome::Shed | RequestOutcome::TimedOut))
        .collect();
    assert!(result.shed > 0, "overload must shed");
    assert!(result.timed_out > 0, "overload must time out");

    // Zero head rate: the only way a failure survives is the tail
    // sampler, and the policy guarantees it does.
    let policy = SamplingPolicy { head_rate: 0.0 };
    let salt = phase_salt("overload");
    for r in &failures {
        let trace = derive_trace_id(SEED, salt, r.seq);
        assert_eq!(
            policy.decide(trace, r),
            SampleDecision::TailError,
            "failed request {} must be tail-sampled",
            r.seq
        );
    }

    let mut pipe = ObsPipeline::new("Nutch Server", SEED, policy.head_rate);
    pipe.ingest_phase("overload", 0, &result.records, &model());
    let obs = pipe.finish();
    assert_eq!(obs.totals.shed, result.shed);
    assert_eq!(obs.totals.timed_out, result.timed_out);
    assert_eq!(
        obs.sampling.tail_error,
        failures.len() as u64,
        "every fault-failed request is kept, none by the (disabled) head sampler"
    );
    assert_eq!(obs.sampling.head, 0);
}

#[test]
fn failure_counters_carry_exemplar_trace_ids() {
    let result = overloaded_run();
    let mut pipe = ObsPipeline::new("Nutch Server", SEED, HEAD_RATE);
    pipe.ingest_phase("overload", 0, &result.records, &model());
    let obs = pipe.finish();
    assert_prometheus_grammar(&obs.prometheus);

    // Both failure counter lines expose a non-zero value and an
    // exemplar whose trace id belongs to a request that actually
    // failed that way.
    let salt = phase_salt("overload");
    for (label, outcome) in
        [("shed", RequestOutcome::Shed), ("timed_out", RequestOutcome::TimedOut)]
    {
        let line = obs
            .prometheus
            .lines()
            .find(|l| {
                l.starts_with(&format!(
                    "obs_requests_total{{service=\"Nutch Server\",outcome=\"{label}\"}}"
                ))
            })
            .unwrap_or_else(|| panic!("missing {label} counter line"));
        let (sample, exemplar) =
            line.split_once(" # ").unwrap_or_else(|| panic!("{label} line lacks an exemplar"));
        let value: u64 = sample.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(value > 0, "{label} counter observed failures");
        let hex = exemplar
            .split("trace_id=\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("exemplar carries a trace_id label");
        let failed_ids: Vec<String> = result
            .records
            .iter()
            .filter(|r| r.outcome == outcome)
            .map(|r| derive_trace_id(SEED, salt, r.seq).hex())
            .collect();
        assert!(
            failed_ids.iter().any(|id| id == hex),
            "{label} exemplar {hex} is one of that outcome's failed traces"
        );
    }
}
