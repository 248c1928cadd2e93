//! The plain-text dashboard: what an operator would see on a wall
//! monitor, rendered once at end of run from the same windowed state
//! the SLO engine evaluated. Deterministic for a given observation.

use crate::slo::{OBJECTIVE, ROLLING_WINDOWS, SLO_NAME, THRESHOLD, WINDOW};
use crate::ServiceObservation;

fn ms(us: u64) -> f64 {
    us as f64 / 1_000.0
}

/// Renders `<service>.dash.txt` content.
pub fn render(obs: &ServiceObservation) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} · SLO dashboard ==\n", obs.service));
    out.push_str(&format!(
        "SLO {}: {:.1}% of requests < {}ms over {}s windows\n",
        SLO_NAME,
        OBJECTIVE * 100.0,
        THRESHOLD.as_millis(),
        WINDOW.as_secs_f64(),
    ));
    let t = obs.totals;
    out.push_str(&format!(
        "traffic: {} offered · {} completed · {} shed · {} timed out · {} slow-or-dropped\n",
        t.offered, t.completed, t.shed, t.timed_out, t.bad
    ));
    out.push_str(&format!(
        "error budget: {} bad of {:.0} allowed — {:.1}% consumed, {:.1}% remaining\n",
        obs.budget.bad,
        obs.budget.allowed,
        obs.budget.consumed * 100.0,
        obs.budget.remaining() * 100.0
    ));
    out.push_str(&format!(
        "rolling tails (last {} windows): p50 {:.1}ms · p99 {:.1}ms · p99.9 {:.1}ms\n",
        ROLLING_WINDOWS,
        ms(obs.rolling.p50().as_micros() as u64),
        ms(obs.rolling.p99().as_micros() as u64),
        ms(obs.rolling.p999().as_micros() as u64),
    ));
    out.push_str(&format!(
        "whole run:                 p50 {:.1}ms · p99 {:.1}ms · p99.9 {:.1}ms\n",
        ms(obs.whole.p50().as_micros() as u64),
        ms(obs.whole.p99().as_micros() as u64),
        ms(obs.whole.p999().as_micros() as u64),
    ));
    out.push_str(&format!(
        "sampling: {} traces kept ({} head, {} tail-slow, {} tail-error); {} of {} chains complete\n",
        obs.sampling.kept,
        obs.sampling.head,
        obs.sampling.tail_slow,
        obs.sampling.tail_error,
        obs.chains_complete,
        obs.chains_total,
    ));
    out.push('\n');
    out.push_str("  win    end(s)  offered   done   shed  t/out   slow  p99(ms)    burn\n");
    for w in &obs.window_table {
        out.push_str(&format!(
            "{:>5}  {:>8.1}  {:>7}  {:>5}  {:>5}  {:>5}  {:>5}  {:>7.1}  {:>6.1}\n",
            w.index,
            w.end_s,
            w.offered,
            w.completed,
            w.shed,
            w.timed_out,
            w.slow,
            ms(w.p99_us),
            w.burn
        ));
    }
    out.push('\n');
    if obs.alerts.is_empty() {
        out.push_str("alerts: none\n");
    } else {
        out.push_str(&format!("alerts ({}):\n", obs.alerts.len()));
        for a in &obs.alerts {
            out.push_str(&format!(
                "  [{}] {} on {} at {:.1}s (window {}, long burn {:.1}x, short burn {:.1}x)\n",
                a.severity.label(),
                a.rule,
                SLO_NAME,
                a.at_ns as f64 / 1e9,
                a.window_index,
                a.long_burn,
                a.short_burn,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{ObsPipeline, SteadyThenOverload, HEAD_RATE};

    #[test]
    fn dashboard_shows_tails_budget_and_alerts() {
        let m = crate::tests::model();
        let times = m.sample_times(512, 4);
        let load = SteadyThenOverload::run(&times, 4);
        let mut pipe = ObsPipeline::new("Nutch Server", 4, HEAD_RATE);
        load.ingest(&mut pipe, &m);
        let obs = pipe.finish();
        let text = super::render(&obs);
        assert!(text.contains("== Nutch Server · SLO dashboard =="));
        assert!(text.contains("error budget:"));
        assert!(text.contains("rolling tails"));
        assert!(text.contains("p99(ms)"));
        assert!(text.contains("[page]"), "overload must surface a page alert:\n{text}");
        // One table row per retained window.
        let rows = text.lines().filter(|l| l.starts_with("    ")).count();
        assert!(rows >= obs.window_table.len().min(4), "table renders windows");
    }
}
