//! Range queries over stored series: label-matcher selects, counter
//! rates, `sum by(label)` aggregation, and histogram-series quantiles.

use crate::store::{SeriesKey, Tsdb};
use std::collections::BTreeMap;

/// Selects every series named `name` whose labels include all of
/// `matchers` (equality matches), returning `(key, samples in
/// [t0, t1])` pairs in deterministic key order.
#[must_use]
pub fn select(
    db: &Tsdb,
    name: &str,
    matchers: &[(&str, &str)],
    t0: u64,
    t1: u64,
) -> Vec<(SeriesKey, Vec<(u64, f64)>)> {
    let keys: Vec<SeriesKey> = db
        .keys()
        .filter(|k| k.name == name && matchers.iter().all(|&(mk, mv)| k.label(mk) == Some(mv)))
        .cloned()
        .collect();
    keys.into_iter()
        .map(|k| {
            let samples = db.samples(&k, t0, t1);
            (k, samples)
        })
        .collect()
}

/// The value of the last sample at or before `t_us`, if any.
#[must_use]
pub fn value_at(samples: &[(u64, f64)], t_us: u64) -> Option<f64> {
    samples.iter().rev().find(|&&(t, _)| t <= t_us).map(|&(_, v)| v)
}

/// Per-second increase rate between consecutive samples of a counter
/// series. Decreases (counter resets) and zero-width intervals clamp
/// to a rate of 0. Output has one fewer point than the input, stamped
/// at each interval's end.
#[must_use]
pub fn rate(samples: &[(u64, f64)]) -> Vec<(u64, f64)> {
    samples
        .windows(2)
        .map(|w| {
            let (t0, v0) = w[0];
            let (t1, v1) = w[1];
            let dt_s = (t1.saturating_sub(t0)) as f64 / 1_000_000.0;
            let r = if v1 >= v0 && dt_s > 0.0 { (v1 - v0) / dt_s } else { 0.0 };
            (t1, r)
        })
        .collect()
}

/// `sum by(label)` over every series named `name` matching `matchers`:
/// series sharing a value of `label` are summed pointwise at aligned
/// timestamps (every timestamp any member has; absent members
/// contribute their last known value, or 0 before their first sample).
#[must_use]
pub fn sum_by(
    db: &Tsdb,
    name: &str,
    label: &str,
    matchers: &[(&str, &str)],
    t0: u64,
    t1: u64,
) -> Vec<(String, Vec<(u64, f64)>)> {
    let mut groups: BTreeMap<String, Vec<Vec<(u64, f64)>>> = BTreeMap::new();
    for (key, samples) in select(db, name, matchers, t0, t1) {
        let group = key.label(label).unwrap_or("").to_owned();
        groups.entry(group).or_default().push(samples);
    }
    groups
        .into_iter()
        .map(|(group, members)| {
            let mut times: Vec<u64> = members.iter().flatten().map(|&(t, _)| t).collect();
            times.sort_unstable();
            times.dedup();
            let summed = times
                .iter()
                .map(|&t| {
                    let total: f64 = members.iter().filter_map(|m| value_at(m, t)).sum();
                    (t, total)
                })
                .collect();
            (group, summed)
        })
        .collect()
}

/// Quantile of a scraped histogram at virtual time `t_us`, re-derived
/// purely from stored `{name}_bucket` series (one per `le` bound) the
/// way [`bdb_telemetry::LatencyHistogram::percentile`] walks its
/// buckets: the answer is the upper bound (in microseconds) of the
/// bucket containing the target rank. Returns `None` when no bucket
/// series match or the histogram is empty at `t_us`.
#[must_use]
pub fn histogram_quantile(
    db: &Tsdb,
    name: &str,
    matchers: &[(&str, &str)],
    q: f64,
    t_us: u64,
) -> Option<u64> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let bucket_name = format!("{name}_bucket");
    let mut bounds: Vec<(u64, f64)> = select(db, &bucket_name, matchers, 0, t_us)
        .into_iter()
        .filter_map(|(key, samples)| {
            let bound: u64 = key.label("le")?.parse().ok()?;
            Some((bound, value_at(&samples, t_us)?))
        })
        .collect();
    bounds.sort_by_key(|&(b, _)| b);
    let total = bounds.last().map(|&(_, c)| c)?;
    if total <= 0.0 {
        return None;
    }
    let target = (q * total).ceil().max(1.0);
    bounds.iter().find(|&&(_, c)| c >= target).map(|&(b, _)| b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrape::Scraper;
    use bdb_telemetry::MetricsRegistry;

    type SeriesSpec<'a> = (&'a str, &'a [(&'a str, &'a str)], &'a [(u64, f64)]);

    fn db_with(series: &[SeriesSpec]) -> Tsdb {
        let mut db = Tsdb::new();
        for (name, labels, samples) in series {
            let key = SeriesKey::new(name, labels);
            for &(t, v) in *samples {
                db.append(&key, t, v);
            }
        }
        db
    }

    #[test]
    fn select_matches_on_name_and_labels() {
        let db = db_with(&[
            ("m", &[("node", "a"), ("phase", "x")], &[(1, 1.0)]),
            ("m", &[("node", "b"), ("phase", "x")], &[(1, 2.0)]),
            ("other", &[("node", "a")], &[(1, 3.0)]),
        ]);
        assert_eq!(select(&db, "m", &[], 0, 10).len(), 2);
        let only_a = select(&db, "m", &[("node", "a")], 0, 10);
        assert_eq!(only_a.len(), 1);
        assert_eq!(only_a[0].1, vec![(1, 1.0)]);
        assert!(select(&db, "m", &[("node", "z")], 0, 10).is_empty());
    }

    #[test]
    fn value_at_takes_the_last_sample_not_after_t() {
        let samples = [(10, 1.0), (20, 2.0), (30, 3.0)];
        assert_eq!(value_at(&samples, 5), None);
        assert_eq!(value_at(&samples, 10), Some(1.0));
        assert_eq!(value_at(&samples, 29), Some(2.0));
        assert_eq!(value_at(&samples, 1_000), Some(3.0));
    }

    #[test]
    fn rate_is_per_second_and_clamps_resets() {
        let samples = [
            (0, 0.0),
            (1_000_000, 10.0), // +10 over 1s
            (3_000_000, 14.0), // +4 over 2s
            (4_000_000, 2.0),  // reset
        ];
        assert_eq!(rate(&samples), vec![(1_000_000, 10.0), (3_000_000, 2.0), (4_000_000, 0.0),]);
    }

    #[test]
    fn sum_by_groups_and_aligns_timestamps() {
        let db = db_with(&[
            ("w", &[("node", "a"), ("shard", "0")], &[(10, 1.0), (20, 2.0)]),
            ("w", &[("node", "a"), ("shard", "1")], &[(20, 5.0)]),
            ("w", &[("node", "b"), ("shard", "2")], &[(10, 7.0)]),
        ]);
        let grouped = sum_by(&db, "w", "node", &[], 0, 100);
        assert_eq!(grouped.len(), 2);
        // node a: at t=10 only shard 0 exists (1.0); at t=20 both (2+5).
        assert_eq!(grouped[0], ("a".to_owned(), vec![(10, 1.0), (20, 7.0)]));
        assert_eq!(grouped[1], ("b".to_owned(), vec![(10, 7.0)]));
    }

    #[test]
    fn histogram_quantile_matches_the_live_histogram_bucket() {
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("req_us");
        for us in [100, 200, 300, 400, 90_000] {
            hist.record_micros(us);
        }
        let mut scraper = Scraper::new();
        scraper.add_target(&[("node", "n0")], &registry);
        let mut db = Tsdb::new();
        scraper.scrape_at(&mut db, 1_000);

        let snapshot = registry.histogram_snapshots().remove(0).1;
        for q in [0.5, 0.9, 0.99] {
            let stored = histogram_quantile(&db, "req_us", &[], q, 1_000)
                .expect("quantile answerable from stored buckets");
            let live = snapshot.percentile(q).as_micros() as u64;
            // The stored answer is a bucket's upper edge; the live
            // percentile clamps to the observed max — agreement within
            // one log bucket is the contract.
            let (si, li) = (bdb_telemetry::bucket_index(stored), bdb_telemetry::bucket_index(live));
            assert!(si.abs_diff(li) <= 1, "q={q}: stored bound {stored} vs live {live}");
        }
        assert_eq!(histogram_quantile(&db, "req_us", &[], 0.5, 5), None, "before first scrape");
        assert_eq!(histogram_quantile(&db, "missing", &[], 0.5, 1_000), None);
    }
}
