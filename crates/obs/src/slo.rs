//! The suite's one SLO, its error budget, and multi-window burn-rate
//! alerts.
//!
//! The SLO is fixed: [`OBJECTIVE`] of requests must finish under
//! [`THRESHOLD`], judged over [`WINDOW`]-wide windows, and shed or
//! timed-out requests always count as bad. The [`SloEngine`] consumes
//! closed windows from the [`crate::window::WindowRing`] and maintains
//! (a) cumulative error-budget accounting and (b) the SRE-workbook
//! multi-window burn-rate [`RULES`]: an alert fires when the budget
//! burn rate measured over a *long* trailing window AND a *short*
//! trailing window both exceed the rule's factor — the long window
//! keeps alerts from flapping on blips, the short window makes them
//! reset quickly once the incident ends. Rules fire on the rising edge
//! only, so one sustained overload produces exactly one alert event per
//! rule.

use crate::window::WindowStats;
use std::collections::VecDeque;
use std::time::Duration;

/// Width of one SLO window.
pub const WINDOW: Duration = Duration::from_secs(2);
/// Closed windows the pipeline's ring retains.
pub const RING_WINDOWS: usize = 32;
/// Windows merged for the rolling tails and the exposition.
pub const ROLLING_WINDOWS: usize = 8;
/// Latency threshold: a completion at or over it is bad.
pub const THRESHOLD: Duration = Duration::from_millis(50);
/// Target good fraction.
pub const OBJECTIVE: f64 = 0.99;
/// The SLO's name in reports, dashboards and alert instants.
pub const SLO_NAME: &str = "p99-under-50ms";

/// The SRE-workbook fast/slow pair, in window counts: a page rule
/// (factor 14 over 8 windows, gated by the last 2) and a ticket rule
/// (factor 3 over 24 windows, gated by the last 6).
pub const RULES: [BurnRateRule; 2] = [
    BurnRateRule {
        name: "fast-burn",
        severity: Severity::Page,
        long_windows: 8,
        short_windows: 2,
        factor: 14.0,
    },
    BurnRateRule {
        name: "slow-burn",
        severity: Severity::Ticket,
        long_windows: 24,
        short_windows: 6,
        factor: 3.0,
    },
];

/// The allowed bad fraction.
pub(crate) const BUDGET: f64 = 1.0 - OBJECTIVE;

/// Closed windows the engine keeps: the longest rule window.
const DEPTH: usize = RULES[1].long_windows;

const _: () = {
    assert!(OBJECTIVE > 0.0 && OBJECTIVE < 1.0, "objective in (0,1)");
    let mut i = 0;
    while i < RULES.len() {
        let r = &RULES[i];
        assert!(r.short_windows >= 1 && r.short_windows <= r.long_windows, "short within long");
        assert!(r.long_windows <= DEPTH, "the engine keeps every rule's long window");
        i += 1;
    }
};

/// Alert severity, ordered by urgency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Wake a human now.
    Page,
    /// File it for working hours.
    Ticket,
}

impl Severity {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Page => "page",
            Severity::Ticket => "ticket",
        }
    }
}

/// One multi-window burn-rate rule.
#[derive(Debug, Clone)]
pub struct BurnRateRule {
    /// Rule name, e.g. `"fast-burn"`.
    pub name: &'static str,
    /// What firing means.
    pub severity: Severity,
    /// Trailing window count for the long (flap-damping) condition.
    pub long_windows: usize,
    /// Trailing window count for the short (fast-reset) condition.
    pub short_windows: usize,
    /// Both burns must reach this multiple of budget-neutral burn.
    pub factor: f64,
}

/// A structured alert: one rising edge of one rule.
#[derive(Debug, Clone)]
pub struct AlertEvent {
    /// The rule that fired.
    pub rule: &'static str,
    /// Its severity.
    pub severity: Severity,
    /// Index of the window whose close fired the rule.
    pub window_index: u64,
    /// Virtual time of that window's close, nanoseconds.
    pub at_ns: u64,
    /// Burn over the rule's long trailing window when it fired.
    pub long_burn: f64,
    /// Burn over the rule's short trailing window when it fired.
    pub short_burn: f64,
}

/// Cumulative error-budget state.
#[derive(Debug, Clone, Copy)]
pub struct BudgetStatus {
    /// Terminal events observed.
    pub total: u64,
    /// Bad events observed (slow + shed + timed out).
    pub bad: u64,
    /// Bad events the objective permits for `total` events.
    pub allowed: f64,
    /// `bad / allowed` (0 when nothing observed); > 1 means the
    /// budget is spent.
    pub consumed: f64,
}

impl BudgetStatus {
    /// Fraction of budget left, clamped at zero.
    pub fn remaining(&self) -> f64 {
        (1.0 - self.consumed).max(0.0)
    }
}

/// Online evaluator of [`RULES`] over a stream of closed windows.
#[derive(Debug, Default)]
pub struct SloEngine {
    /// Trailing (bad, total) per closed window, bounded by the longest
    /// rule window.
    history: VecDeque<(u64, u64)>,
    active: [bool; RULES.len()],
    alerts: Vec<AlertEvent>,
    total: u64,
    bad: u64,
}

impl SloEngine {
    /// An engine that has seen no window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Budget burn rate over the last `n` closed windows: the observed
    /// bad fraction divided by the allowed bad fraction. 1.0 means
    /// burning exactly the budget; 0 when the trailing windows saw no
    /// traffic.
    pub fn burn_over(&self, n: usize) -> f64 {
        let (mut bad, mut total) = (0u64, 0u64);
        for &(b, t) in self.history.iter().rev().take(n) {
            bad += b;
            total += t;
        }
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / BUDGET
    }

    /// Feeds one closed window; returns the alerts that fired on this
    /// close (rising edges only).
    pub fn on_window_close(&mut self, w: &WindowStats) -> Vec<AlertEvent> {
        self.history.push_back((w.bad(), w.total()));
        if self.history.len() > DEPTH {
            self.history.pop_front();
        }
        self.total += w.total();
        self.bad += w.bad();
        let mut fired = Vec::new();
        for (i, rule) in RULES.iter().enumerate() {
            let long_burn = self.burn_over(rule.long_windows);
            let short_burn = self.burn_over(rule.short_windows);
            let firing = long_burn >= rule.factor && short_burn >= rule.factor;
            if firing && !self.active[i] {
                let ev = AlertEvent {
                    rule: rule.name,
                    severity: rule.severity,
                    window_index: w.index,
                    at_ns: (w.index + 1) * WINDOW.as_nanos() as u64,
                    long_burn,
                    short_burn,
                };
                fired.push(ev.clone());
                self.alerts.push(ev);
            }
            self.active[i] = firing;
        }
        fired
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> &[AlertEvent] {
        &self.alerts
    }

    /// Cumulative budget accounting over everything observed.
    pub fn budget(&self) -> BudgetStatus {
        let allowed = self.total as f64 * BUDGET;
        BudgetStatus {
            total: self.total,
            bad: self.bad,
            allowed,
            consumed: if allowed > 0.0 { self.bad as f64 / allowed } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_telemetry::LatencyHistogram;

    fn window(index: u64, completed: u64, slow: u64, shed: u64) -> WindowStats {
        let mut hist = LatencyHistogram::new();
        for _ in 0..completed {
            hist.record_micros(1_000);
        }
        WindowStats { index, offered: completed + shed, completed, shed, timed_out: 0, slow, hist }
    }

    #[test]
    fn clean_windows_never_alert_and_keep_budget() {
        let mut e = SloEngine::new();
        for i in 0..50 {
            let fired = e.on_window_close(&window(i, 100, 0, 0));
            assert!(fired.is_empty());
        }
        let b = e.budget();
        assert_eq!(b.bad, 0);
        assert!(b.remaining() > 0.999);
        assert_eq!(e.alerts().len(), 0);
    }

    #[test]
    fn sustained_burn_fires_once_per_rule_on_the_rising_edge() {
        let mut e = SloEngine::new();
        for i in 0..10 {
            assert!(e.on_window_close(&window(i, 100, 0, 0)).is_empty());
        }
        // 30% bad is a 30× burn against a 1% budget: both rules must
        // fire exactly once across the sustained incident.
        let mut fired = Vec::new();
        for i in 10..30 {
            fired.extend(e.on_window_close(&window(i, 70, 0, 30)));
        }
        let pages = fired.iter().filter(|a| a.severity == Severity::Page).count();
        let tickets = fired.iter().filter(|a| a.severity == Severity::Ticket).count();
        assert_eq!(pages, 1, "one rising edge for the page rule");
        assert_eq!(tickets, 1);
        assert!(fired.iter().all(|a| a.long_burn >= 3.0 && a.short_burn >= 3.0));
        // Recovery then a second incident re-fires.
        for i in 30..80 {
            assert!(e.on_window_close(&window(i, 100, 0, 0)).is_empty());
        }
        let mut again = Vec::new();
        for i in 80..100 {
            again.extend(e.on_window_close(&window(i, 70, 0, 30)));
        }
        assert!(again.iter().any(|a| a.severity == Severity::Page), "re-arms after recovery");
    }

    #[test]
    fn short_window_gates_stale_long_burn() {
        // The page rule has a long memory but must not fire on history
        // alone once its short window is clean.
        let page = &RULES[0];
        let mut e = SloEngine::new();
        let pages = |fired: Vec<AlertEvent>| fired.iter().filter(|a| a.rule == page.name).count();
        // Two very bad windows, then clean ones: long burn stays high
        // for a while but the short window clears immediately.
        assert_eq!(pages(e.on_window_close(&window(0, 0, 0, 100))), 1, "incident fires");
        assert_eq!(pages(e.on_window_close(&window(1, 0, 0, 100))), 0, "still active, no re-fire");
        for i in 2..6 {
            let fired = e.on_window_close(&window(i, 100, 0, 0));
            assert!(fired.is_empty(), "clean short window suppresses re-fire at {i}");
            assert!(e.burn_over(page.long_windows) >= page.factor, "long burn still high at {i}");
        }
    }

    #[test]
    fn burn_math_matches_definition() {
        let mut e = SloEngine::new();
        e.on_window_close(&window(0, 98, 0, 2));
        // 2 bad of 100 at 1% budget = 2× burn.
        assert!((e.burn_over(1) - 2.0).abs() < 1e-9);
        let b = e.budget();
        assert_eq!((b.total, b.bad), (100, 2));
        assert!((b.consumed - 2.0).abs() < 1e-9);
        assert_eq!(b.remaining(), 0.0);
    }

    #[test]
    fn slow_completions_count_as_bad() {
        let mut e = SloEngine::new();
        e.on_window_close(&window(0, 100, 5, 0));
        assert_eq!(e.budget().bad, 5);
    }
}
