//! The online-serving chaos campaign: an overloaded Nutch-style
//! service whose fault-failed requests (shed at admission, abandoned
//! past deadline) must always be tail-sampled, with exemplars in the
//! exposition and consistent SLO arithmetic.

use crate::report::{CampaignReport, CheckerVerdict};
use crate::sites;
use crate::ROUNDS;
use bdb_faults::FaultPlan;
use bdb_obs::ObsPipeline;
use bdb_serving::{QueuePolicy, QueueSim, ServiceTimeModel};
use std::time::Duration;

fn model() -> ServiceTimeModel {
    ServiceTimeModel {
        base_us: 2000.0,
        sigma: 0.3,
        tail_weight: 0.02,
        tail_mult: 5.0,
        store_share: (0.4, 0.6),
    }
}

/// Runs the serving chaos campaign: three overload phases of rising
/// intensity, with injected stragglers stretching a slice of service
/// times, fed through the full observability pipeline.
#[must_use]
pub fn serving_campaign(seed: u64) -> CampaignReport {
    let m = model();
    let plan = FaultPlan::builder(seed)
        .straggle_p(sites::SERVING_STRAGGLE, 0.01, Duration::from_millis(40))
        .build();

    // A low head rate makes the invariant sharp: failures survive only
    // through the tail sampler.
    let mut pipe = ObsPipeline::new("Nutch Server", seed, 0.02);

    let phase_len = Duration::from_secs(3);
    let mut offered = 0u64;
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut timed_out = 0u64;
    let mut straggled = 0u64;
    for round in 0..ROUNDS {
        // Rising overload: 2 workers saturate near 1000 rps.
        let rate = 1500.0 + 500.0 * f64::from(round);
        let mut times = m.sample_times(2048, seed.wrapping_add(u64::from(round)));
        for t in &mut times {
            if let Some(extra) = plan.straggle(sites::SERVING_STRAGGLE) {
                *t += extra;
                straggled += 1;
            }
        }
        let result = QueueSim::new(2)
            .with_policy(QueuePolicy {
                queue_capacity: Some(8),
                deadline: Some(Duration::from_millis(10)),
            })
            .run(rate, phase_len, &times, seed.wrapping_add(u64::from(round)));
        offered += result.records.len() as u64;
        completed += result.completed;
        shed += result.shed;
        timed_out += result.timed_out;
        let phase_offset = u64::from(round) * phase_len.as_nanos() as u64;
        let phase = match round % 3 {
            0 => "overload-a",
            1 => "overload-b",
            _ => "overload-c",
        };
        pipe.ingest_phase(phase, phase_offset, &result.records, &m);
    }
    let obs = pipe.finish();

    // Every fault-failed request is kept by the tail sampler, exactly
    // accounted, and never attributed to the head sampler.
    let failures = shed + timed_out;
    let tail_sampling = CheckerVerdict::new(
        "fault_failures_tail_sampled",
        failures > 0
            && obs.sampling.tail_error == failures
            && obs.totals.shed == shed
            && obs.totals.timed_out == timed_out,
    )
    .detail("failures", failures)
    .detail("tail_error_sampled", obs.sampling.tail_error)
    .detail("head_sampled", obs.sampling.head)
    .detail("tail_slow_sampled", obs.sampling.tail_slow);

    // The exposition parses and carries failure exemplars to pivot from
    // counter to concrete trace.
    let grammar_ok = std::panic::catch_unwind(|| {
        bdb_telemetry::assert_prometheus_grammar(&obs.prometheus);
    })
    .is_ok();
    let shed_exemplar =
        obs.prometheus.lines().any(|l| l.contains("outcome=\"shed\"") && l.contains("trace_id="));
    let timeout_exemplar = obs
        .prometheus
        .lines()
        .any(|l| l.contains("outcome=\"timed_out\"") && l.contains("trace_id="));
    let exposition = CheckerVerdict::new(
        "failure_exemplars_exposed",
        grammar_ok && shed_exemplar && timeout_exemplar,
    )
    .detail("grammar_ok", grammar_ok)
    .detail("shed_exemplar", shed_exemplar)
    .detail("timed_out_exemplar", timeout_exemplar);

    // SLO arithmetic stays consistent under faults: totals add up and
    // every bad event is on the books.
    let unfinished = offered - completed - failures;
    let slo = CheckerVerdict::new(
        "slo_accounting",
        obs.totals.offered == offered
            && obs.totals.completed == completed
            && obs.totals.bad >= failures
            && obs.budget.bad == obs.totals.bad
            && obs.totals.completed + failures + unfinished == obs.totals.offered,
    )
    .detail("offered", offered)
    .detail("completed", completed)
    .detail("bad", obs.totals.bad)
    .detail("budget_bad", obs.budget.bad)
    .detail("unfinished", unfinished)
    .detail("alerts", obs.alerts.len());

    CampaignReport {
        campaign: "nutch-serving",
        seed,
        rounds: ROUNDS,
        checkers: vec![tail_sampling, exposition, slo],
        injected: plan.injected_by_site(),
        recovered: plan.recovered_by_site(),
        stats: vec![
            ("alerts".into(), obs.alerts.len() as u64),
            ("completed".into(), completed),
            ("offered".into(), offered),
            ("shed".into(), shed),
            ("straggled".into(), straggled),
            ("tail_error_sampled".into(), obs.sampling.tail_error),
            ("timed_out".into(), timed_out),
        ],
        spans: obs.spans,
    }
}
