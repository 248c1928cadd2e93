//! User-perceivable metrics and run reports (paper Section 6.1.2).

use crate::workload::WorkloadId;
use std::time::Duration;

/// Which of the paper's three metric families a value belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Data processed per second (analytics workloads).
    Dps,
    /// Operations per second (Cloud OLTP workloads).
    Ops,
    /// Requests per second (online services).
    Rps,
}

/// A user-perceivable measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum UserMetric {
    /// Bytes of input processed per second.
    Dps {
        /// Input bytes.
        input_bytes: u64,
        /// Total processing seconds.
        seconds: f64,
    },
    /// Store operations per second.
    Ops {
        /// Operations completed.
        operations: u64,
        /// Total seconds.
        seconds: f64,
    },
    /// Service throughput and latency under offered load.
    Rps {
        /// Offered load (requests/s).
        offered: f64,
        /// Achieved throughput (requests/s).
        achieved: f64,
        /// 99th-percentile sojourn latency.
        p99: Duration,
    },
}

impl UserMetric {
    /// The metric family.
    pub fn kind(&self) -> MetricKind {
        match self {
            UserMetric::Dps { .. } => MetricKind::Dps,
            UserMetric::Ops { .. } => MetricKind::Ops,
            UserMetric::Rps { .. } => MetricKind::Rps,
        }
    }

    /// The headline scalar: DPS in bytes/s, OPS in ops/s, RPS achieved.
    pub fn value(&self) -> f64 {
        match self {
            UserMetric::Dps { input_bytes, seconds } => {
                if *seconds > 0.0 {
                    *input_bytes as f64 / seconds
                } else {
                    0.0
                }
            }
            UserMetric::Ops { operations, seconds } => {
                if *seconds > 0.0 {
                    *operations as f64 / seconds
                } else {
                    0.0
                }
            }
            UserMetric::Rps { achieved, .. } => *achieved,
        }
    }

    /// Unit label for display.
    pub fn unit(&self) -> &'static str {
        match self.kind() {
            MetricKind::Dps => "B/s",
            MetricKind::Ops => "ops/s",
            MetricKind::Rps => "req/s",
        }
    }
}

/// The result of one native workload run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name, Table 6 spelling.
    pub workload: String,
    /// Data-volume multiplier the run used.
    pub multiplier: u32,
    /// The measured user-perceivable metric.
    pub metric: UserMetric,
    /// Bytes of input consumed (0 where not meaningful).
    pub input_bytes: u64,
    /// Free-form detail (records, hits, groups...).
    pub detail: String,
}

impl WorkloadReport {
    /// Builds a report for `id`.
    pub fn new(id: WorkloadId, multiplier: u32, metric: UserMetric, input_bytes: u64) -> Self {
        Self {
            workload: id.name().to_owned(),
            multiplier,
            metric,
            input_bytes,
            detail: String::new(),
        }
    }

    /// Attaches free-form detail.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dps_value() {
        let m = UserMetric::Dps { input_bytes: 1000, seconds: 2.0 };
        assert_eq!(m.value(), 500.0);
        assert_eq!(m.kind(), MetricKind::Dps);
        assert_eq!(m.unit(), "B/s");
    }

    #[test]
    fn ops_and_rps_values() {
        let o = UserMetric::Ops { operations: 300, seconds: 3.0 };
        assert_eq!(o.value(), 100.0);
        let r = UserMetric::Rps { offered: 100.0, achieved: 80.0, p99: Duration::from_millis(5) };
        assert_eq!(r.value(), 80.0);
        assert_eq!(r.unit(), "req/s");
    }

    #[test]
    fn zero_time_guard() {
        let m = UserMetric::Dps { input_bytes: 10, seconds: 0.0 };
        assert_eq!(m.value(), 0.0);
    }
}
