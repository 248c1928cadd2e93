//! Virtual-time scraping: periodically samples every registered
//! [`MetricsRegistry`] into labeled series.
//!
//! Counters and gauges become one series each; histograms expand to
//! `{name}_bucket` series per occupied cumulative bucket (labeled
//! `le="<bound>"`), plus `{name}_count` and `{name}_sum` — the same
//! shape Prometheus stores, so histogram quantiles can be re-derived
//! from the stored series alone.

use crate::store::{SeriesKey, Tsdb};
use bdb_telemetry::MetricsRegistry;

/// One scrape target: a shared registry plus the identity labels its
/// series carry (`workload`, `node`, `phase`, ...).
#[derive(Debug)]
struct Target {
    labels: Vec<(String, String)>,
    registry: MetricsRegistry,
}

/// Samples registries into a [`Tsdb`] at caller-chosen virtual times.
#[derive(Debug, Default)]
pub struct Scraper {
    targets: Vec<Target>,
}

impl Scraper {
    /// An empty scraper.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `registry` (shared handle; live values are read at
    /// each scrape) under identity `labels`.
    pub fn add_target(&mut self, labels: &[(&str, &str)], registry: &MetricsRegistry) {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
        labels.sort();
        self.targets.push(Target { labels, registry: registry.clone() });
    }

    /// Registered targets.
    #[must_use]
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Scrapes every target once at virtual time `t_us`, appending one
    /// sample per live metric into `store`.
    pub fn scrape_at(&self, store: &mut Tsdb, t_us: u64) {
        for target in &self.targets {
            let key = |name: &str, extra: Option<(&str, String)>| {
                let mut labels = target.labels.clone();
                if let Some((k, v)) = extra {
                    labels.push((k.to_owned(), v));
                }
                labels.sort();
                SeriesKey { name: name.to_owned(), labels }
            };
            for (name, value) in target.registry.counter_values() {
                store.append(&key(&name, None), t_us, value as f64);
            }
            for (name, value) in target.registry.gauge_values() {
                store.append(&key(&name, None), t_us, value as f64);
            }
            for (name, hist) in target.registry.histogram_snapshots() {
                for (bound, cumulative) in hist.cumulative_buckets() {
                    let k = key(&format!("{name}_bucket"), Some(("le", bound.to_string())));
                    store.append(&k, t_us, cumulative as f64);
                }
                store.append(&key(&format!("{name}_count"), None), t_us, hist.count() as f64);
                store.append(&key(&format!("{name}_sum"), None), t_us, hist.sum_micros() as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrapes_counters_gauges_and_histograms_into_labeled_series() {
        let registry = MetricsRegistry::new();
        registry.counter("reqs.total").add(5);
        registry.gauge("lag.bytes").set(-7);
        let hist = registry.histogram("req_us");
        hist.record_micros(120);
        hist.record_micros(90_000);

        let mut scraper = Scraper::new();
        scraper.add_target(&[("workload", "oltp"), ("node", "node-2")], &registry);
        assert_eq!(scraper.target_count(), 1);

        let mut db = Tsdb::new();
        scraper.scrape_at(&mut db, 1_000);
        registry.counter("reqs.total").add(3);
        scraper.scrape_at(&mut db, 2_000);

        let base = [("workload", "oltp"), ("node", "node-2")];
        let counter = db.samples(&SeriesKey::new("reqs.total", &base), 0, u64::MAX);
        assert_eq!(counter, vec![(1_000, 5.0), (2_000, 8.0)]);
        let gauge = db.samples(&SeriesKey::new("lag.bytes", &base), 0, u64::MAX);
        assert_eq!(gauge, vec![(1_000, -7.0), (2_000, -7.0)]);
        let count = db.samples(&SeriesKey::new("req_us_count", &base), 0, u64::MAX);
        assert_eq!(count, vec![(1_000, 2.0), (2_000, 2.0)]);
        let sum = db.samples(&SeriesKey::new("req_us_sum", &base), 0, u64::MAX);
        assert_eq!(sum, vec![(1_000, 90_120.0), (2_000, 90_120.0)]);

        // Bucket series carry the `le` label and cumulate correctly:
        // the last (largest) occupied bound covers both recordings.
        let buckets: Vec<&SeriesKey> = db.keys().filter(|k| k.name == "req_us_bucket").collect();
        assert!(!buckets.is_empty(), "histogram expanded to bucket series");
        for k in &buckets {
            assert!(k.label("le").is_some(), "bucket series missing le: {}", k.render());
        }
        let top =
            buckets.iter().max_by_key(|k| k.label("le").unwrap().parse::<u64>().unwrap()).unwrap();
        let top_samples = db.samples(top, 0, u64::MAX);
        assert_eq!(top_samples.last(), Some(&(2_000, 2.0)));
    }
}
