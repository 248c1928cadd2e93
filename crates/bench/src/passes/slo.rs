//! `--slo DIR`: online observability over the serving tier, and the
//! steady-then-overload load it shares with the time-series pass.

use super::{gate, section, Args, Artifact, Failure};
use crate::table::TextTable;
use bdb_obs::{dash, phase_salt, report, ObsPipeline, Severity, SteadyThenOverload, HEAD_RATE};
use bdb_serving::ServiceTimeModel;
use bigdatabench::WorkloadId;

/// The seed of the serving passes' load.
const SEED: u64 = 42;

/// One serving workload under the load the SLO and time-series passes
/// drive: [`bdb_obs::STEADY`], then a shaped [`bdb_obs::OVERLOAD`].
pub(super) struct ServingLoad {
    /// The service-time distribution, modeled on the real server so the
    /// passes track its shape.
    pub(super) model: ServiceTimeModel,
    /// The service's seed: the pass's seed salted with `salt`.
    pub(super) seed: u64,
    /// Both phases, simulated.
    pub(super) load: SteadyThenOverload,
}

impl ServingLoad {
    /// Runs the load for serving workload `id`; `salt` names the service
    /// in its seed (each pass keeps its own, so its artifacts do not
    /// change).
    pub(super) fn new(id: WorkloadId, salt: &str) -> Self {
        let model = match id {
            WorkloadId::NutchServer => bdb_serving::search::SearchServer::SERVICE_MODEL,
            WorkloadId::OlioServer => bdb_serving::social::SocialServer::SERVICE_MODEL,
            WorkloadId::RubisServer => bdb_serving::auction::AuctionServer::SERVICE_MODEL,
            other => unreachable!("{} is not a serving workload", other.name()),
        };
        let seed = SEED ^ phase_salt(salt);
        let times = model.sample_times(2048, seed);
        let load = SteadyThenOverload::run(&times, seed);
        Self { model, seed, load }
    }

    /// A pipeline observing the service as `name`, seeded with the
    /// service's seed.
    pub(super) fn pipeline(&self, name: &str) -> ObsPipeline {
        ObsPipeline::new(name, self.seed, HEAD_RATE)
    }
}

/// Online observability pass over the serving tier. Every serving
/// workload runs a steady phase and a shaped overload phase
/// through the `bdb-obs` pipeline (per-request trace context,
/// sliding-window tails, SLO/error-budget engine with burn-rate
/// alerts), then writes per service a plain-text dashboard
/// (`<w>.dash.txt`), a Prometheus exposition with exemplar trace ids
/// (`<w>.slo.prom.txt`) and a Chrome trace of sampled request chains
/// plus window counter tracks (`<w>.slo.trace.json`), and one
/// machine-readable `slo_report.json` for the whole run.
///
/// The pass gates itself: the steady phase must
/// stay alert-free with rolling tails agreeing with the whole-run
/// histogram within one log bucket; the shaped overload must fire
/// exactly one page burn-rate alert, inside the overload phase; every
/// sampled request must reconstruct to a complete linked chain
/// (loadgen → queue → handler → store); and the exposition must parse
/// under the strict Prometheus grammar. Everything runs in virtual
/// time off a fixed seed, so the report is byte-identical across runs
/// and hosts.
pub(super) fn run(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    section("SLO — online observability over the serving tier");
    let dir = args.path("--slo").expect("the slo row runs only with a directory");

    let mut t = TextTable::new(&[
        "service",
        "offered",
        "done",
        "shed",
        "t/out",
        "roll p99",
        "budget left",
        "alerts",
    ]);
    let mut observations = Vec::new();
    for id in [WorkloadId::NutchServer, WorkloadId::OlioServer, WorkloadId::RubisServer] {
        let name = id.name();
        let serving = ServingLoad::new(id, name);
        let (model, load) = (&serving.model, &serving.load);

        // Gate: the steady phase alone stays quiet and its rolling
        // tails agree with the whole-run histogram.
        let mut quiet = serving.pipeline(name);
        quiet.ingest_phase("steady", 0, &load.steady.records, model);
        let quiet = quiet.finish();
        if !quiet.alerts.is_empty() {
            return gate(format!(
                "slo FAIL: {name}: steady phase fired {} alert(s)",
                quiet.alerts.len()
            ));
        }
        for q in [0.99, 0.999] {
            let roll = quiet.rolling.percentile(q).as_micros() as u64;
            let whole = quiet.whole.percentile(q).as_micros() as u64;
            let (ri, wi) = (bdb_telemetry::bucket_index(roll), bdb_telemetry::bucket_index(whole));
            if ri.abs_diff(wi) > 1 {
                return gate(format!(
                    "slo FAIL: {name}: steady-state rolling q{q} ({roll}us) disagrees with the \
                     whole-run histogram ({whole}us) by more than one bucket"
                ));
            }
        }

        // The artifact run: steady then shaped overload on one timeline.
        let mut pipe = serving.pipeline(name);
        load.ingest(&mut pipe, model);
        let obs = pipe.finish();

        // Gate: the shaped overload fires exactly one page alert, and
        // it lands inside the overload phase.
        let pages: Vec<_> = obs.alerts.iter().filter(|a| a.severity == Severity::Page).collect();
        if pages.len() != 1 {
            return gate(format!(
                "slo FAIL: {name}: expected exactly one page alert, got {:?}",
                obs.alerts
            ));
        }
        if obs.alerts.iter().any(|a| a.at_ns <= load.overload_at_ns) {
            return gate(format!(
                "slo FAIL: {name}: an alert fired before the overload phase: {:?}",
                obs.alerts
            ));
        }
        // Gate: every sampled request reconstructs to a complete,
        // correctly linked chain from the flat span stream alone.
        if obs.chains_total == 0 || obs.chains_total != obs.chains_complete {
            return gate(format!(
                "slo FAIL: {name}: only {}/{} sampled chains reconstruct completely",
                obs.chains_complete, obs.chains_total
            ));
        }
        // Gate: the exposition parses under the strict grammar.
        bdb_telemetry::assert_prometheus_grammar(&obs.prometheus);

        let stem = bdb_telemetry::file_stem(name);
        out.push(Artifact::new(dir.join(format!("{stem}.dash.txt")), dash::render(&obs)));
        out.push(Artifact::new(dir.join(format!("{stem}.slo.prom.txt")), obs.prometheus.clone()));
        out.push(Artifact::new(
            dir.join(format!("{stem}.slo.trace.json")),
            bdb_telemetry::chrome_trace_json_with_tracks(name, &obs.spans, None, &obs.tracks),
        ));

        t.row(&[
            name.to_owned(),
            obs.totals.offered.to_string(),
            obs.totals.completed.to_string(),
            obs.totals.shed.to_string(),
            obs.totals.timed_out.to_string(),
            format!("{:.1} ms", obs.rolling.p99().as_secs_f64() * 1e3),
            format!("{:.0}%", obs.budget.remaining() * 100.0),
            obs.alerts.len().to_string(),
        ]);
        observations.push(obs);
    }
    println!("{}", t.render());

    let path = dir.join("slo_report.json");
    println!("slo pass PASS: {} ({} services observed)", path.display(), observations.len());
    out.push(Artifact::new(path, report::render_report(SEED, &observations)));
    Ok(())
}
