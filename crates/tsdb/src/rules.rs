//! Recording rules: re-evaluates the SLO's burn-rate
//! [`RULES`](bdb_obs::slo::RULES) over *stored* series instead of the
//! live window stream.
//!
//! The evaluator reconstructs per-window `(bad, total)` increments
//! from two scraped cumulative counters and feeds them through a real
//! [`SloEngine`] — the burn arithmetic, rising-edge latching, and
//! multi-window gating are the production code paths, not a copy. As
//! long as the counters were scraped at (at least) every window
//! boundary, the replay fires the same alerts at the same window
//! indices as the engine that watched the run live.

use crate::query::value_at;
use bdb_obs::slo::WINDOW;
use bdb_obs::{AlertEvent, SloEngine, WindowStats};
use bdb_telemetry::LatencyHistogram;

/// Replays the SLO's burn-rate rules over stored cumulative counters.
///
/// `bad` and `total` are scraped samples of the cumulative bad-event
/// and total-event counters; [`WINDOW`]-wide windows tile
/// `[0, n_windows * WINDOW)`.
/// The counter value at each boundary is the last sample at or before
/// it (0 before the first sample), so scrapes must land on every
/// boundary for an exact replay.
#[must_use]
pub fn replay_burn_rules(
    bad: &[(u64, f64)],
    total: &[(u64, f64)],
    n_windows: u64,
) -> Vec<AlertEvent> {
    let width_us = WINDOW.as_micros() as u64;
    let mut engine = SloEngine::new();
    let counter_at = |samples: &[(u64, f64)], t: u64| value_at(samples, t).unwrap_or(0.0) as u64;
    for index in 0..n_windows {
        let (t0, t1) = (index * width_us, (index + 1) * width_us);
        let bad_inc = counter_at(bad, t1).saturating_sub(counter_at(bad, t0));
        let total_inc = counter_at(total, t1).saturating_sub(counter_at(total, t0));
        // A synthetic window whose bad()/total() equal the increments:
        // sheds are always bad, completions under threshold are good.
        let window = WindowStats {
            index,
            offered: total_inc,
            completed: total_inc.saturating_sub(bad_inc),
            shed: bad_inc.min(total_inc),
            timed_out: 0,
            slow: 0,
            hist: LatencyHistogram::new(),
        };
        engine.on_window_close(&window);
    }
    engine.alerts().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_obs::Severity;

    /// A live engine and the stored-series replay must agree on every
    /// alert when counters are scraped on the window boundaries.
    #[test]
    fn replay_matches_a_live_engine() {
        const WINDOWS: u64 = 40;
        let width_us = WINDOW.as_micros() as u64;
        // Per-window traffic: clean, then a 25%-bad incident, then
        // clean again (so rules latch, reset, and could re-arm).
        let traffic: Vec<(u64, u64)> = (0..WINDOWS)
            .map(|i| if (12..20).contains(&i) { (25, 100) } else { (0, 100) })
            .collect();

        let mut live = SloEngine::new();
        let (mut bad_series, mut total_series) = (Vec::new(), Vec::new());
        let (mut bad_c, mut total_c) = (0u64, 0u64);
        for (i, &(bad, total)) in traffic.iter().enumerate() {
            live.on_window_close(&WindowStats {
                index: i as u64,
                offered: total,
                completed: total - bad,
                shed: bad,
                timed_out: 0,
                slow: 0,
                hist: LatencyHistogram::new(),
            });
            bad_c += bad;
            total_c += total;
            // Scrape lands exactly on the close boundary (plus an
            // off-boundary extra scrape the replay must ignore).
            let t = (i as u64 + 1) * width_us;
            bad_series.push((t, bad_c as f64));
            total_series.push((t, total_c as f64));
            bad_series.push((t + width_us / 4, bad_c as f64));
            total_series.push((t + width_us / 4, total_c as f64));
        }

        let replayed = replay_burn_rules(&bad_series, &total_series, WINDOWS);
        let live_alerts = live.alerts();
        assert!(!live_alerts.is_empty(), "the incident must fire at least one rule");
        assert_eq!(replayed.len(), live_alerts.len());
        for (r, l) in replayed.iter().zip(live_alerts) {
            assert_eq!(r.rule, l.rule);
            assert_eq!(r.window_index, l.window_index);
            assert_eq!(r.at_ns, l.at_ns);
            assert!((r.long_burn - l.long_burn).abs() < 1e-12);
            assert!((r.short_burn - l.short_burn).abs() < 1e-12);
        }
        assert!(replayed.iter().any(|a| a.severity == Severity::Page));
    }

    #[test]
    fn empty_series_replay_quietly() {
        assert!(replay_burn_rules(&[], &[], 20).is_empty());
    }
}
