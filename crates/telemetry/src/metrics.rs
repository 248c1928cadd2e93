//! Named metrics: counters, gauges and log-bucketed histograms.
//!
//! A [`MetricsRegistry`] hands out cheap atomic handles keyed by name;
//! the registry renders a plain-text summary next to each exported
//! trace. [`LatencyHistogram`] lives here (promoted out of
//! `bdb-serving`, which re-exports it) so every engine can share one
//! histogram implementation.

use crate::trace::TraceId;
use std::collections::BTreeMap;
use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

const BUCKETS: usize = 400;
const GROWTH: f64 = 1.05;

/// Geometric bucket upper bounds, computed once. Bucket `i`'s upper
/// bound is `ceil(GROWTH^i)` microseconds; precomputing keeps
/// `percentile()` queries from re-deriving powers on every call.
fn bounds() -> &'static [u64; BUCKETS] {
    static BOUNDS: OnceLock<[u64; BUCKETS]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut b = [0u64; BUCKETS];
        for (i, slot) in b.iter_mut().enumerate() {
            *slot = GROWTH.powi(i as i32).ceil() as u64;
        }
        b
    })
}

fn bucket_for(micros: u64) -> usize {
    if micros == 0 {
        return 0;
    }
    let b = (micros as f64).ln() / GROWTH.ln();
    (b.ceil() as usize).min(BUCKETS - 1)
}

fn bucket_upper(i: usize) -> u64 {
    bounds()[i.min(BUCKETS - 1)]
}

/// The index of the log bucket a `micros` sample lands in. Exposed so
/// observability layers can reason about bucket-level agreement (e.g.
/// "rolling p99 matches the whole-run histogram within one bucket").
pub fn bucket_index(micros: u64) -> usize {
    bucket_for(micros)
}

/// The upper bound (in microseconds) of the bucket a `micros` sample
/// lands in — the `le` bound its `_bucket` series line would carry.
pub fn bucket_bound(micros: u64) -> u64 {
    bucket_upper(bucket_for(micros))
}

/// A log-bucketed latency histogram (1 µs granularity at the low end,
/// ~2% relative error overall), cheap enough to update per request.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Bucket `i` covers `[bound(i-1), bound(i))` where bounds grow
    /// geometrically from 1 µs.
    counts: Vec<u64>,
    total: u64,
    sum_micros: u128,
    max_micros: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { counts: vec![0; BUCKETS], total: 0, sum_micros: 0, max_micros: 0 }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.record_micros(micros);
    }

    /// Records one sample given directly in microseconds.
    pub fn record_micros(&mut self, micros: u64) {
        self.counts[bucket_for(micros)] += 1;
        self.total += 1;
        self.sum_micros += micros as u128;
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency; zero when empty.
    pub fn mean(&self) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros((self.sum_micros / self.total as u128) as u64)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros)
    }

    /// The latency at quantile `q` in `[0, 1]` (upper bucket bound, so
    /// within ~5% above the true value). Zero when empty. The reported
    /// value is clamped to [`LatencyHistogram::max`], so the final
    /// bucket never over-reports: `percentile(1.0)` equals the recorded
    /// maximum exactly.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return Duration::ZERO;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Duration::from_micros(bucket_upper(i).min(self.max_micros));
            }
        }
        self.max()
    }

    /// Median latency — `percentile(0.5)`.
    pub fn p50(&self) -> Duration {
        self.percentile(0.5)
    }

    /// 99th-percentile latency — `percentile(0.99)`.
    pub fn p99(&self) -> Duration {
        self.percentile(0.99)
    }

    /// 99.9th-percentile latency — `percentile(0.999)`, the tail the
    /// online-services scenario is judged by.
    pub fn p999(&self) -> Duration {
        self.percentile(0.999)
    }

    /// Sum of all recorded samples in microseconds.
    pub fn sum_micros(&self) -> u128 {
        self.sum_micros
    }

    /// Cumulative distribution over the non-empty buckets: for each
    /// bucket that holds at least one sample, its upper bound in
    /// microseconds and the number of samples at or below that bound.
    /// Bounds and counts are both strictly increasing — the shape the
    /// Prometheus `_bucket{le="..."}` series requires.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cumulative += c;
                out.push((bucket_upper(i), cumulative));
            }
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_micros += other.sum_micros;
        self.max_micros = self.max_micros.max(other.max_micros);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A named monotonic counter; clone of a registry slot.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge (last-write-wins signed value).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared histogram slot from a registry.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<Mutex<LatencyHistogram>>);

impl HistogramHandle {
    /// Records one sample.
    pub fn record(&self, latency: Duration) {
        self.0.lock().expect("histogram poisoned").record(latency);
    }

    /// Records one sample in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.0.lock().expect("histogram poisoned").record_micros(micros);
    }

    /// A copy of the current distribution.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.lock().expect("histogram poisoned").clone()
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<LatencyHistogram>>>>,
}

/// A registry of named metrics. Cloning shares the underlying slots, so
/// engines can hold a clone and the exporter another.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("registry poisoned");
        Counter(Arc::clone(
            map.entry(name.to_owned()).or_insert_with(|| Arc::new(AtomicU64::new(0))),
        ))
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("registry poisoned");
        Gauge(Arc::clone(map.entry(name.to_owned()).or_insert_with(|| Arc::new(AtomicI64::new(0)))))
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut map = self.inner.histograms.lock().expect("registry poisoned");
        HistogramHandle(Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Mutex::new(LatencyHistogram::new()))),
        ))
    }

    /// Current counter values, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Current gauge values, sorted by name.
    pub fn gauge_values(&self) -> Vec<(String, i64)> {
        self.inner
            .gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Snapshots of every histogram, sorted by name.
    pub fn histogram_snapshots(&self) -> Vec<(String, LatencyHistogram)> {
        self.inner
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.lock().expect("histogram poisoned").clone()))
            .collect()
    }

    /// Renders every metric as aligned plain text, one per line.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counter_values() {
            out.push_str(&format!("counter  {name:<40} {v}\n"));
        }
        for (name, v) in self.gauge_values() {
            out.push_str(&format!("gauge    {name:<40} {v}\n"));
        }
        for (name, h) in self.histogram_snapshots() {
            out.push_str(&format!(
                "hist     {name:<40} count={} mean={}us p50={}us p95={}us p99={}us max={}us\n",
                h.count(),
                h.mean().as_micros(),
                h.percentile(0.50).as_micros(),
                h.percentile(0.95).as_micros(),
                h.percentile(0.99).as_micros(),
                h.max().as_micros(),
            ));
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4, the `text/plain` scrape format).
    ///
    /// Metric names are sanitized to `[a-zA-Z0-9_:]`. Counters and
    /// gauges render as single samples; histograms render through
    /// [`write_histogram`] in microseconds.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counter_values() {
            let (n, help) = (prometheus_name(&name), Some("Monotonic counter."));
            write_family(&mut out, &n, "counter", help, [Sample::new(&[], v)]);
        }
        for (name, v) in self.gauge_values() {
            let (n, help) = (prometheus_name(&name), Some("Gauge."));
            write_family(&mut out, &n, "gauge", help, [Sample::new(&[], v)]);
        }
        for (name, h) in self.histogram_snapshots() {
            let (n, help) = (prometheus_name(&name), Some("Latency histogram (microseconds)."));
            write_histogram(&mut out, &n, help, &[], &h, |_| None);
        }
        out
    }
}

/// One sample line of a Prometheus family.
#[derive(Debug, Clone)]
pub struct Sample<'a, V> {
    /// Label pairs in output order; values are escaped when written.
    pub labels: Vec<(&'a str, &'a str)>,
    /// The sample value.
    pub value: V,
    /// An OpenMetrics-style exemplar: a kept trace and its value.
    pub exemplar: Option<(TraceId, u64)>,
}

impl<'a, V> Sample<'a, V> {
    /// A sample without an exemplar.
    pub fn new(labels: &[(&'a str, &'a str)], value: V) -> Self {
        Self { labels: labels.to_vec(), value, exemplar: None }
    }
}

/// Appends one family to `out` in the text exposition format: its
/// optional `# HELP` line, its `# TYPE` line and one line per sample.
pub fn write_family<'a, V: Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: Option<&str>,
    samples: impl IntoIterator<Item = Sample<'a, V>>,
) {
    write_header(out, name, kind, help);
    for s in samples {
        write_sample(out, name, &s.labels, s.value, s.exemplar);
    }
}

/// Appends `hist` to `out` as a histogram family: cumulative
/// `_bucket` samples over the non-empty buckets, the mandatory
/// `le="+Inf"` bucket, `_sum` and `_count`. Every sample carries
/// `labels`; `exemplar` maps a bucket's upper bound to the exemplar
/// that bucket line carries, if any.
pub fn write_histogram(
    out: &mut String,
    name: &str,
    help: Option<&str>,
    labels: &[(&str, &str)],
    hist: &LatencyHistogram,
    exemplar: impl Fn(u64) -> Option<(TraceId, u64)>,
) {
    write_header(out, name, "histogram", help);
    let bucket = format!("{name}_bucket");
    let bounds =
        hist.cumulative_buckets().into_iter().map(|(b, n)| (b.to_string(), n, exemplar(b)));
    for (le, n, ex) in bounds.chain([("+Inf".to_owned(), hist.count(), None)]) {
        let mut l = labels.to_vec();
        l.push(("le", &le));
        write_sample(out, &bucket, &l, n, ex);
    }
    write_sample(out, &format!("{name}_sum"), labels, hist.sum_micros(), None);
    write_sample(out, &format!("{name}_count"), labels, hist.count(), None);
}

fn write_header(out: &mut String, name: &str, kind: &str, help: Option<&str>) {
    if let Some(help) = help {
        let _ = writeln!(out, "# HELP {name} {help}");
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn write_sample(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    value: impl Display,
    exemplar: Option<(TraceId, u64)>,
) {
    out.push_str(name);
    for (i, (k, v)) in labels.iter().enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if !labels.is_empty() {
        out.push('}');
    }
    let _ = write!(out, " {value}");
    if let Some((trace, v)) = exemplar {
        let _ = write!(out, " # {{trace_id=\"{}\"}} {v}", trace.hex());
    }
    out.push('\n');
}

/// Maps a registry metric name onto the Prometheus name charset
/// `[a-zA-Z0-9_:]`, e.g. `serving.request_us` → `serving_request_us`.
/// A leading digit is prefixed with `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escapes a string for use inside a Prometheus label value.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn valid_prometheus_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || "_:".contains(c))
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_:".contains(c))
}

/// Scans a `{label="value",...}` block starting at `s[0] == '{'`,
/// asserting every pair is well-formed. Label values may use the text
/// format's escape sequences (`\\`, `\"`, `\n`); a raw quote or an
/// unknown escape is a grammar violation. Returns the byte index just
/// past the closing `}`.
fn scan_label_block(s: &str, line: &str) -> usize {
    let b = s.as_bytes();
    debug_assert_eq!(b.first(), Some(&b'{'));
    let mut i = 1;
    if b.get(i) == Some(&b'}') {
        return i + 1;
    }
    loop {
        let name_start = i;
        while i < b.len() && b[i] != b'=' {
            i += 1;
        }
        assert!(i < b.len(), "label pair has an '=': {line}");
        assert!(valid_prometheus_identifier(&s[name_start..i]), "label name valid: {line}");
        i += 1;
        assert!(b.get(i) == Some(&b'"'), "label value quoted: {line}");
        i += 1;
        loop {
            assert!(i < b.len(), "label value closes its quote: {line}");
            match b[i] {
                b'"' => {
                    i += 1;
                    break;
                }
                b'\\' => {
                    assert!(
                        matches!(b.get(i + 1), Some(b'\\' | b'"' | b'n')),
                        "label value escape must be \\\\, \\\" or \\n: {line}"
                    );
                    i += 2;
                }
                _ => i += 1,
            }
        }
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return i + 1,
            _ => panic!("label pairs separated by ',' and closed by '}}': {line}"),
        }
    }
}

/// Asserts `text` follows the Prometheus text exposition 0.0.4 grammar
/// rules this suite's exporters must honor: `# HELP`/`# TYPE` comments,
/// metric names in `[a-zA-Z_:][a-zA-Z0-9_:]*`, optional
/// `{label="value"}` pairs with escape-aware values, a parseable sample
/// value (`+Inf` allowed), every sample preceded by its family's TYPE
/// comment — plus OpenMetrics-style exemplar suffixes
/// (`... # {trace_id="..."} value [timestamp]`) on sample lines.
///
/// Test support shared across crates: the telemetry exporter tests and
/// the observability layer's exemplar exposition tests both validate
/// through this one grammar.
///
/// # Panics
///
/// Panics (with the offending line) on the first grammar violation.
pub fn assert_prometheus_grammar(text: &str) {
    let mut typed: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap();
            let name = parts.next().unwrap_or("");
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "only HELP/TYPE comments are meaningful: {line}"
            );
            assert!(valid_prometheus_identifier(name), "comment names a valid metric: {line}");
            if keyword == "TYPE" {
                let ty = parts.next().unwrap_or("");
                assert!(
                    ["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty),
                    "TYPE must name a known type: {line}"
                );
                assert!(!typed.contains(&name.to_owned()), "one TYPE per family: {line}");
                typed.push(name.to_owned());
            }
            continue;
        }
        // Sample line: name[{labels}] value [# {labels} value [ts]]
        let (sample, exemplar) = match line.split_once(" # ") {
            Some((s, e)) => (s, Some(e)),
            None => (line, None),
        };
        let name_end = sample
            .find(|c: char| !(c.is_ascii_alphanumeric() || "_:".contains(c)))
            .unwrap_or(sample.len());
        let name = &sample[..name_end];
        assert!(valid_prometheus_identifier(name), "sample names a valid metric: {line}");
        let mut rest = &sample[name_end..];
        if rest.starts_with('{') {
            rest = &rest[scan_label_block(rest, line)..];
        }
        let value = rest.strip_prefix(' ').unwrap_or_else(|| panic!("sample has a value: {line}"));
        assert!(value == "+Inf" || value.parse::<f64>().is_ok(), "value must parse: {line}");
        if let Some(exemplar) = exemplar {
            assert!(exemplar.starts_with('{'), "exemplar starts with a label set: {line}");
            let rest = &exemplar[scan_label_block(exemplar, line)..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            assert!(
                (1..=2).contains(&fields.len()),
                "exemplar carries a value and optional timestamp: {line}"
            );
            for f in fields {
                assert!(f.parse::<f64>().is_ok(), "exemplar fields must parse: {line}");
            }
        }
        // Samples of a family follow its TYPE comment.
        let family = typed.iter().any(|t| {
            name == t
                || name
                    .strip_prefix(t.as_str())
                    .is_some_and(|suffix| ["_bucket", "_sum", "_count"].contains(&suffix))
        });
        assert!(family, "sample {name} preceded by its TYPE comment: {line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.percentile(0.0), Duration::ZERO);
        assert_eq!(h.percentile(0.99), Duration::ZERO);
        assert_eq!(h.percentile(1.0), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn single_sample_all_quantiles() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(777));
        for q in [0.0, 0.5, 0.99, 1.0] {
            let p = h.percentile(q).as_micros() as f64;
            assert!((p - 777.0).abs() / 777.0 < 0.06, "q={q} p={p}");
        }
        assert_eq!(h.mean(), Duration::from_micros(777));
        assert_eq!(h.max(), Duration::from_micros(777));
    }

    #[test]
    fn max_bucket_clamps() {
        let mut h = LatencyHistogram::new();
        // Far beyond the last bucket bound: must clamp to BUCKETS - 1,
        // not index out of bounds.
        h.record(Duration::from_secs(1_000_000));
        assert_eq!(h.count(), 1);
        assert_eq!(bucket_for(u64::MAX), BUCKETS - 1);
        // The reported percentile is the last bucket's bound, capped by
        // the observed max.
        let p = h.percentile(0.99);
        assert_eq!(p, Duration::from_micros(bucket_upper(BUCKETS - 1)));
        assert!(p <= h.max());
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i));
        }
        let p50 = h.percentile(0.5);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 >= Duration::from_micros(450) && p50 <= Duration::from_micros(600));
        assert!(p99 >= Duration::from_micros(900));
    }

    #[test]
    fn bucket_bound_roundtrip() {
        // Regression: a value at bucket i's upper bound must never be
        // classified into an earlier bucket, or percentile() would
        // under-report.
        for i in 0..BUCKETS {
            assert!(bucket_for(bucket_upper(i)) >= i, "bucket {i}");
        }
        // And bounds are non-decreasing.
        for i in 1..BUCKETS {
            assert!(bucket_upper(i) >= bucket_upper(i - 1));
        }
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Duration::from_micros(1000));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        LatencyHistogram::new().percentile(1.5);
    }

    #[test]
    fn merge_percentile_roundtrip_across_bucket_boundaries() {
        // Split a sample set across two histograms with values landing
        // exactly on, just below and just above bucket bounds; the
        // merge must be indistinguishable from recording the union
        // directly — same distribution, same percentiles, same
        // exposition buckets.
        let boundary_values: Vec<u64> = (0..BUCKETS)
            .step_by(25)
            .map(bucket_upper)
            .flat_map(|b| [b.saturating_sub(1), b, b + 1])
            .collect();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut union = LatencyHistogram::new();
        for (i, &us) in boundary_values.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.record_micros(us);
            union.record_micros(us);
        }

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), union.count());
        assert_eq!(merged.sum_micros(), union.sum_micros());
        assert_eq!(merged.max(), union.max());
        assert_eq!(
            merged.cumulative_buckets(),
            union.cumulative_buckets(),
            "merge lands every sample in the same bucket as direct recording"
        );
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(merged.percentile(q), union.percentile(q), "q={q}");
        }
        // Merging in the other order is equivalent too.
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(flipped.cumulative_buckets(), merged.cumulative_buckets());
        assert_eq!(flipped.percentile(0.5), merged.percentile(0.5));
    }

    #[test]
    fn registry_slots_are_shared() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("x.ops");
        let c2 = reg.counter("x.ops");
        c1.add(3);
        c2.inc();
        assert_eq!(reg.counter("x.ops").get(), 4);

        reg.gauge("x.level").set(-7);
        assert_eq!(reg.gauge("x.level").get(), -7);

        reg.histogram("x.lat").record(Duration::from_micros(100));
        assert_eq!(reg.histogram("x.lat").snapshot().count(), 1);
    }

    #[test]
    fn registry_clone_shares_state() {
        let reg = MetricsRegistry::new();
        let clone = reg.clone();
        clone.counter("shared").add(5);
        assert_eq!(reg.counter("shared").get(), 5);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_complete() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 1, 50, 50, 50, 4000, 123_456] {
            h.record_micros(us);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds strictly increase");
            assert!(w[0].1 < w[1].1, "cumulative counts strictly increase");
        }
        assert_eq!(buckets.last().unwrap().1, h.count(), "last bucket covers all samples");
        assert_eq!(h.sum_micros(), (1 + 1 + 50 + 50 + 50 + 4000 + 123_456) as u128);
    }

    #[test]
    fn prometheus_text_format_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("serving.requests").add(7);
        reg.gauge("queue.depth").set(-2);
        let h = reg.histogram("serving.request_us");
        for us in [3u64, 3, 90, 90, 1500, 88_000] {
            h.record_micros(us);
        }
        let text = reg.prometheus_text();

        // Names are sanitized and HELP/TYPE precede each family.
        assert!(text.contains("# HELP serving_requests "));
        assert!(text.contains("# TYPE serving_requests counter\n"));
        assert!(text.contains("serving_requests 7\n"));
        assert!(text.contains("# TYPE queue_depth gauge\n"));
        assert!(text.contains("queue_depth -2\n"));
        assert!(text.contains("# TYPE serving_request_us histogram\n"));
        assert!(!text.contains("serving.request"), "dots must be sanitized away");

        // Bucket series: cumulative counts are monotone non-decreasing
        // and end at the +Inf bucket, which equals _count.
        let mut last = 0u64;
        let mut inf = None;
        for line in text.lines().filter(|l| l.starts_with("serving_request_us_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative bucket counts must not decrease: {line}");
            last = v;
            if line.contains("le=\"+Inf\"") {
                inf = Some(v);
            }
        }
        let snapshot = h.snapshot();
        assert_eq!(inf, Some(snapshot.count()), "+Inf bucket equals sample count");
        assert!(text.contains(&format!("serving_request_us_count {}\n", snapshot.count())));
        assert!(text.contains(&format!("serving_request_us_sum {}\n", snapshot.sum_micros())));
        assert!(MetricsRegistry::new().prometheus_text().is_empty());
    }

    #[test]
    fn prometheus_text_golden() {
        let reg = MetricsRegistry::new();
        reg.counter("serving.requests").add(7);
        reg.counter("2-fast 2.furious").inc();
        reg.gauge("queue.depth").set(-2);
        let h = reg.histogram("serving.request_us");
        for us in [3u64, 3, 90, 1500] {
            h.record_micros(us);
        }
        reg.histogram("idle.latency_us");
        let golden = r#"# HELP _2_fast_2_furious Monotonic counter.
# TYPE _2_fast_2_furious counter
_2_fast_2_furious 1
# HELP serving_requests Monotonic counter.
# TYPE serving_requests counter
serving_requests 7
# HELP queue_depth Gauge.
# TYPE queue_depth gauge
queue_depth -2
# HELP idle_latency_us Latency histogram (microseconds).
# TYPE idle_latency_us histogram
idle_latency_us_bucket{le="+Inf"} 0
idle_latency_us_sum 0
idle_latency_us_count 0
# HELP serving_request_us Latency histogram (microseconds).
# TYPE serving_request_us histogram
serving_request_us_bucket{le="4"} 2
serving_request_us_bucket{le="94"} 3
serving_request_us_bucket{le="1508"} 4
serving_request_us_bucket{le="+Inf"} 4
serving_request_us_sum 1596
serving_request_us_count 4
"#;
        assert_eq!(reg.prometheus_text(), golden);
    }

    #[test]
    fn prometheus_name_charset() {
        assert_eq!(prometheus_name("a.b-c/d e"), "a_b_c_d_e");
        assert_eq!(prometheus_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(prometheus_name("9lives"), "_9lives");
    }

    #[test]
    fn prometheus_text_is_grammatical() {
        let reg = MetricsRegistry::new();
        reg.counter("serving.requests").add(7);
        reg.gauge("queue.depth").set(-2);
        let h = reg.histogram("serving.request_us");
        for us in [3u64, 90, 1500] {
            h.record_micros(us);
        }
        assert_prometheus_grammar(&reg.prometheus_text());
    }

    #[test]
    fn prometheus_zero_sample_histogram_renders_complete_family() {
        // A histogram that was registered but never recorded must still
        // expose the mandatory +Inf bucket and _sum/_count at zero —
        // scrapers reject a TYPE'd family with no samples.
        let reg = MetricsRegistry::new();
        reg.histogram("idle.latency_us");
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE idle_latency_us histogram\n"), "{text}");
        assert!(text.contains("idle_latency_us_bucket{le=\"+Inf\"} 0\n"), "{text}");
        assert!(text.contains("idle_latency_us_sum 0\n"), "{text}");
        assert!(text.contains("idle_latency_us_count 0\n"), "{text}");
        assert_prometheus_grammar(&text);
    }

    #[test]
    fn prometheus_hostile_names_escape_and_stay_grammatical() {
        let reg = MetricsRegistry::new();
        reg.counter("2-fast 2.furious").inc();
        reg.counter("sørt/älloc bytes").add(3);
        reg.gauge("a{b}=\"c\"").set(1);
        reg.histogram("p99 (µs)").record_micros(5);
        let text = reg.prometheus_text();
        assert!(text.contains("_2_fast_2_furious 1\n"), "{text}");
        assert!(text.contains("s_rt__lloc_bytes 3\n"), "{text}");
        assert_prometheus_grammar(&text);
    }

    #[test]
    fn p999_convenience_tracks_percentile() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record_micros(i);
        }
        assert_eq!(h.p50(), h.percentile(0.5));
        assert_eq!(h.p99(), h.percentile(0.99));
        assert_eq!(h.p999(), h.percentile(0.999));
        assert!(h.p50() <= h.p99() && h.p99() <= h.p999());
        let p999 = h.p999().as_micros() as f64;
        assert!((p999 - 9990.0).abs() / 9990.0 < 0.06, "p999={p999}");
    }

    #[test]
    fn final_bucket_percentile_never_exceeds_recorded_max() {
        // A single sample: every quantile is exactly that sample, not
        // its bucket's upper bound.
        let mut h = LatencyHistogram::new();
        h.record_micros(777);
        assert_eq!(h.percentile(1.0), Duration::from_micros(777));
        assert_eq!(h.p999(), Duration::from_micros(777));

        // All-zero samples: bucket 0's upper bound is 1 µs, but the
        // recorded max is 0 — percentile(1.0) must not invent latency.
        let mut h = LatencyHistogram::new();
        for _ in 0..5 {
            h.record_micros(0);
        }
        assert_eq!(h.percentile(1.0), Duration::ZERO);

        // A spread distribution: no quantile exceeds the max.
        let mut h = LatencyHistogram::new();
        for us in [3u64, 90, 1500, 88_000, 123_456] {
            h.record_micros(us);
        }
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert!(h.percentile(q) <= h.max(), "q={q}");
        }
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    fn bucket_bound_covers_its_sample() {
        for us in [0u64, 1, 2, 50, 777, 88_000] {
            assert!(bucket_bound(us) >= us, "{us}");
            assert_eq!(bucket_bound(us), bucket_upper(bucket_index(us)));
        }
    }

    #[test]
    fn exemplar_suffixes_are_grammatical() {
        let text = "\
# HELP svc_request_us Latency histogram (microseconds).\n\
# TYPE svc_request_us histogram\n\
svc_request_us_bucket{le=\"128\"} 40 # {trace_id=\"00c0ffee5eed1234\"} 117 1.500\n\
svc_request_us_bucket{le=\"+Inf\"} 41 # {trace_id=\"deadbeef00000001\"} 90210\n\
svc_request_us_sum 52710\n\
svc_request_us_count 41\n";
        assert_prometheus_grammar(text);
    }

    #[test]
    fn hostile_exemplar_trace_ids_escape_and_validate() {
        // Escaped quote/backslash/newline in the exemplar label value
        // are legal text-format escapes and must be accepted.
        let escaped = "\
# TYPE svc_request_us histogram\n\
svc_request_us_bucket{le=\"+Inf\"} 1 # {trace_id=\"a\\\"b\\\\c\\nd\"} 5\n\
svc_request_us_sum 5\n\
svc_request_us_count 1\n";
        assert_prometheus_grammar(escaped);

        // A raw, unescaped quote inside the value is a violation.
        let raw_quote = "\
# TYPE svc_request_us histogram\n\
svc_request_us_bucket{le=\"+Inf\"} 1 # {trace_id=\"a\"b\"} 5\n";
        assert!(std::panic::catch_unwind(|| assert_prometheus_grammar(raw_quote)).is_err());

        // An unknown escape (\q) is a violation too.
        let bad_escape = "\
# TYPE svc_request_us histogram\n\
svc_request_us_bucket{le=\"+Inf\"} 1 # {trace_id=\"a\\qb\"} 5\n";
        assert!(std::panic::catch_unwind(|| assert_prometheus_grammar(bad_escape)).is_err());

        // Exemplars need a parseable value...
        let no_value = "\
# TYPE svc_request_us histogram\n\
svc_request_us_bucket{le=\"+Inf\"} 1 # {trace_id=\"ab\"} nope\n";
        assert!(std::panic::catch_unwind(|| assert_prometheus_grammar(no_value)).is_err());

        // ...and at most a value plus one timestamp.
        let extra = "\
# TYPE svc_request_us histogram\n\
svc_request_us_bucket{le=\"+Inf\"} 1 # {trace_id=\"ab\"} 5 6 7\n";
        assert!(std::panic::catch_unwind(|| assert_prometheus_grammar(extra)).is_err());
    }

    #[test]
    fn summary_lists_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(2);
        reg.gauge("b.gauge").set(1);
        reg.histogram("c.hist").record(Duration::from_micros(50));
        let s = reg.summary();
        assert!(s.contains("counter  a.count"));
        assert!(s.contains("gauge    b.gauge"));
        assert!(s.contains("hist     c.hist"));
        assert!(s.contains("count=1"));
        assert_eq!(MetricsRegistry::new().summary(), "(no metrics recorded)\n");
    }
}
