//! The machine-readable `slo_report.json`.
//!
//! One document per `--slo` run covering every observed service:
//! objective, totals, budget, rolling and whole-run tails, sampler
//! accounting, chain-verification counts, and the fired alerts.
//! Written through the suite's hand-rolled JSON writer and
//! byte-deterministic for a given seed — the reproduce gate diffs two
//! runs directly.

use crate::slo::{OBJECTIVE, SLO_NAME, THRESHOLD, WINDOW};
use crate::ServiceObservation;
use bdb_telemetry::json::ObjectWriter;

fn service_json(out: &mut String, obs: &ServiceObservation) {
    let mut o = ObjectWriter::new(out);
    o.field_str("service", &obs.service);
    {
        let buf = o.field_raw("slo");
        let mut slo = ObjectWriter::new(buf);
        slo.field_str("name", SLO_NAME)
            .field_f64("objective", OBJECTIVE)
            .field_u64("threshold_us", THRESHOLD.as_micros() as u64)
            .field_u64("window_ms", WINDOW.as_millis() as u64);
        slo.finish();
    }
    {
        let buf = o.field_raw("totals");
        let mut t = ObjectWriter::new(buf);
        t.field_u64("offered", obs.totals.offered)
            .field_u64("completed", obs.totals.completed)
            .field_u64("shed", obs.totals.shed)
            .field_u64("timed_out", obs.totals.timed_out)
            .field_u64("bad", obs.totals.bad);
        t.finish();
    }
    {
        let buf = o.field_raw("budget");
        let mut b = ObjectWriter::new(buf);
        b.field_u64("total", obs.budget.total)
            .field_u64("bad", obs.budget.bad)
            .field_f64("allowed", obs.budget.allowed)
            .field_f64("consumed", obs.budget.consumed)
            .field_f64("remaining", obs.budget.remaining());
        b.finish();
    }
    for (key, hist) in [("rolling_us", &obs.rolling), ("whole_run_us", &obs.whole)] {
        let buf = o.field_raw(key);
        let mut h = ObjectWriter::new(buf);
        h.field_u64("count", hist.count())
            .field_u64("p50", hist.p50().as_micros() as u64)
            .field_u64("p99", hist.p99().as_micros() as u64)
            .field_u64("p999", hist.p999().as_micros() as u64)
            .field_u64("max", hist.max().as_micros() as u64);
        h.finish();
    }
    {
        let buf = o.field_raw("sampling");
        let mut s = ObjectWriter::new(buf);
        s.field_u64("kept", obs.sampling.kept)
            .field_u64("head", obs.sampling.head)
            .field_u64("tail_slow", obs.sampling.tail_slow)
            .field_u64("tail_error", obs.sampling.tail_error);
        s.finish();
    }
    {
        let buf = o.field_raw("chains");
        let mut c = ObjectWriter::new(buf);
        c.field_u64("reconstructed", obs.chains_total).field_u64("complete", obs.chains_complete);
        c.finish();
    }
    {
        let buf = o.field_raw("alerts");
        buf.push('[');
        for (i, a) in obs.alerts.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let mut al = ObjectWriter::new(buf);
            al.field_str("rule", a.rule)
                .field_str("severity", a.severity.label())
                .field_str("slo", SLO_NAME)
                .field_u64("window", a.window_index)
                .field_u64("at_ms", a.at_ns / 1_000_000)
                .field_f64("long_burn", round4(a.long_burn))
                .field_f64("short_burn", round4(a.short_burn));
            al.finish();
        }
        buf.push(']');
    }
    o.finish();
}

/// Rounds to 4 decimals so float noise cannot leak into the report.
fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

/// Renders the full `slo_report.json` for a run over `observations`.
pub fn render_report(seed: u64, observations: &[ServiceObservation]) -> String {
    let mut out = String::new();
    let mut o = ObjectWriter::new(&mut out);
    o.field_str("schema", "bdb-slo-report-v1").field_u64("seed", seed);
    o.field_u64("services_observed", observations.len() as u64);
    {
        let buf = o.field_raw("services");
        buf.push('[');
        for (i, obs) in observations.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            service_json(buf, obs);
        }
        buf.push(']');
    }
    o.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use crate::{ObsPipeline, HEAD_RATE};
    use bdb_serving::QueueSim;
    use std::time::Duration;

    fn observe(seed: u64) -> crate::ServiceObservation {
        let m = crate::tests::model();
        let times = m.sample_times(512, seed);
        let qr = QueueSim::new(4).run(400.0, Duration::from_secs(6), &times, seed);
        let mut pipe = ObsPipeline::new("svc", seed, HEAD_RATE);
        pipe.ingest_phase("steady", 0, &qr.records, &m);
        pipe.finish()
    }

    #[test]
    fn report_is_byte_deterministic_and_well_formed() {
        let a = super::render_report(7, &[observe(7)]);
        let b = super::render_report(7, &[observe(7)]);
        assert_eq!(a, b, "same seed must render byte-identical reports");
        assert_ne!(a, super::render_report(8, &[observe(8)]));
        assert!(a.starts_with("{\"schema\":\"bdb-slo-report-v1\""));
        assert!(a.contains("\"services_observed\":1"));
        assert!(a.contains("\"alerts\":["));
        assert!(a.contains("\"p999\":"));
        assert!(a.trim_end().ends_with('}'));
        // Balanced braces/brackets — cheap structural sanity.
        let open = a.matches('{').count();
        let close = a.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }
}
