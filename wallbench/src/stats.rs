//! Sample statistics: nearest-rank percentiles, medians, and the rule
//! that decides which tail percentile a sample count can support.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// 0-based nearest-rank index of percentile `p` among `n` sorted samples.
/// The epsilon keeps float error in `p` (99.9 is inexact) from moving
/// the rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Number of samples that lie beyond percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p) - 1
    }
}

/// The highest percentile of the ladder (99.9, 99, 95, 90, 75, 50) that
/// has at least [`MIN_BEYOND`] of `n` samples beyond it, or `None` when
/// not even the median does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A set of timing samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The samples, in insertion order unless a percentile sorted them.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Nearest-rank percentile `p` (0 when there are no samples).
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        self.values[rank(self.values.len(), p)]
    }

    /// The median (nearest rank).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }
}

/// The median of a few values (0 when empty).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    values.iter().for_each(|&v| s.push(v));
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None, "median of 19 has only 9 beyond");
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(1, 50.0), 0);
        // Every percentile the rule picks really has that many beyond.
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[]), 0.0);
    }
}
