//! The metrics a run reports, and the two ways it prints them: one
//! human-readable line per metric, then the result as one JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (name, unit), printed by untraced runs. Every
/// workload reports every one of them; `BENCHMARK.json` lists the same.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("dps_mb_s", "MB/s"),
    ("ops_s", "1/s"),
    ("latency_ms_p50", "ms"),
];

/// Per-layer metrics (name, unit), printed by traced runs; the last two
/// describe the harness itself. A layer a workload does not run reports
/// 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("mapreduce.run_ms", "ms"),
    ("mapreduce.map_ms", "ms"),
    ("mapreduce.sort_ms", "ms"),
    ("mapreduce.spill_ms", "ms"),
    ("mapreduce.reduce_ms", "ms"),
    ("mapreduce.merge_ms", "ms"),
    ("mapreduce.phase_coverage", "ratio"),
    ("mapreduce.map_output_pairs", "count"),
    ("mapreduce.combined_pairs", "count"),
    ("mapreduce.combine_ratio", "ratio"),
    ("mapreduce.reduce_skew", "ratio"),
    ("mapreduce.spills", "count"),
    ("mapreduce.spill_mb", "MB"),
    ("mapreduce.shuffle_mb", "MB"),
    ("kvstore.get_ms", "ms"),
    ("kvstore.gets", "count"),
    ("kvstore.get_hit_share", "ratio"),
    ("kvstore.bloom_skips_per_get", "ratio"),
    ("kvstore.tables", "count"),
    ("kvstore.put_ms", "ms"),
    ("kvstore.puts", "count"),
    ("kvstore.wal_mb", "MB"),
    ("kvstore.flushes", "count"),
    ("kvstore.compactions", "count"),
    ("kvstore.flush_put_ms", "ms"),
    ("kvstore.compaction_put_ms", "ms"),
    ("kvstore.scan_ms", "ms"),
    ("kvstore.scans", "count"),
    ("kvstore.write_amp", "ratio"),
    ("kvstore.space_amp", "ratio"),
    ("sql.select_ms", "ms"),
    ("sql.aggregate_ms", "ms"),
    ("sql.join_ms", "ms"),
    ("sql.select_rows", "count"),
    ("sql.selectivity", "ratio"),
    ("sql.agg_groups", "count"),
    ("sql.join_rows", "count"),
    ("sql.columnar_build_ms", "ms"),
    ("datagen.text_ms", "ms"),
    ("datagen.resume_ms", "ms"),
    ("datagen.ecommerce_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unit_self_ms", "ms"),
];

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples (jobs, rounds, operations, set-ups) it summarizes.
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (jobs, query rounds or store operations).
    pub attempted: u64,
    /// Operations whose output was wrong or which failed.
    pub failed: u64,
    metrics: BTreeMap<&'static str, Value>,
    /// Workload-specific figures printed for reading only: (name, value,
    /// unit, samples).
    details: Vec<(String, f64, &'static str, usize)>,
    /// Free-form context lines (input sizes, seed, machine).
    pub context: Vec<String>,
}

fn declared(name: &str) -> bool {
    END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name)
}

impl Report {
    /// Sets a named metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(declared(name), "undeclared metric {name}");
        self.metrics.insert(name, Value { value, samples });
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.metrics.get(name).copied()
    }

    /// Adds a workload-specific figure that is printed but not gated.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.details.push((name.into(), value, unit, n));
    }

    /// The metrics a run prints: end-to-end when untraced, per-layer and
    /// harness when traced. Unset per-layer metrics read 0.
    fn printed(&self, traced: bool) -> Vec<(&'static str, &'static str, Value)> {
        let zero = Value { value: 0.0, samples: 0 };
        if traced {
            PER_LAYER.iter().map(|&(n, u)| (n, u, self.get(n).unwrap_or(zero))).collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n, u, self.get(n).expect("every end-to-end metric is set")))
                .collect()
        }
    }

    /// Whether the run saw no failure.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable lines: context, every printed metric with its unit
    /// and sample count, the details, and the correctness verdict.
    pub fn render_text(&self, traced: bool) -> String {
        let mut out = String::new();
        for c in &self.context {
            let _ = writeln!(out, "# {c}");
        }
        for (name, unit, v) in self.printed(traced) {
            let _ = writeln!(out, "metric {name} = {} {unit} (n={})", v.value, v.samples);
        }
        for (name, value, unit, n) in &self.details {
            let _ = writeln!(out, "detail {name} = {value} {unit} (n={n})");
        }
        let share =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        let _ = writeln!(
            out,
            "verdict correct={} failed_share={share} ({} of {} operations failed)",
            self.correct(),
            self.failed,
            self.attempted
        );
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn render_json(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, v)) in self.printed(traced).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader, enough to read back the result line and
    /// `BENCHMARK.json`.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => {
                    &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
                }
                _ => panic!("not an object"),
            }
        }
    }

    fn parse(text: &str) -> Json {
        let (v, rest) = value(text.trim_start());
        assert!(rest.trim().is_empty(), "trailing text: {rest}");
        v
    }

    fn value(s: &str) -> (Json, &str) {
        let s = s.trim_start();
        if let Some(r) = s.strip_prefix("null") {
            (Json::Null, r)
        } else if let Some(r) = s.strip_prefix("true") {
            (Json::Bool(true), r)
        } else if let Some(r) = s.strip_prefix("false") {
            (Json::Bool(false), r)
        } else if let Some(r) = s.strip_prefix('"') {
            let end = r.find('"').expect("closed string");
            (Json::Str(r[..end].to_owned()), &r[end + 1..])
        } else if let Some(mut r) = s.strip_prefix('[') {
            let mut items = Vec::new();
            loop {
                r = r.trim_start();
                if let Some(rest) = r.strip_prefix(']') {
                    return (Json::Arr(items), rest);
                }
                let (v, rest) = value(r.strip_prefix(',').unwrap_or(r));
                items.push(v);
                r = rest;
            }
        } else if let Some(mut r) = s.strip_prefix('{') {
            let mut fields = Vec::new();
            loop {
                r = r.trim_start();
                if let Some(rest) = r.strip_prefix('}') {
                    return (Json::Obj(fields), rest);
                }
                let (k, rest) = value(r.strip_prefix(',').unwrap_or(r));
                let Json::Str(k) = k else { panic!("key is not a string") };
                let rest = rest.trim_start().strip_prefix(':').expect("colon");
                let (v, rest) = value(rest);
                fields.push((k, v));
                r = rest;
            }
        } else {
            let end = s.find(|c: char| !"+-.eE0123456789".contains(c)).unwrap_or(s.len());
            (Json::Num(s[..end].parse().expect("number")), &s[end..])
        }
    }

    fn names(list: &Json) -> Vec<(String, String)> {
        let Json::Arr(items) = list else { panic!("not a list") };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Json::Str(n), Json::Str(u)) => (n.clone(), u.clone()),
                _ => panic!("bad metric entry"),
            })
            .collect()
    }

    fn sample_report() -> Report {
        let mut r = Report { attempted: 7, failed: 0, ..Report::default() };
        let all = END_TO_END.iter().chain(&PER_LAYER);
        for (i, &(name, _)) in all.enumerate() {
            // Awkward values: many digits, tiny, huge.
            r.set(name, (i as f64 + 1.0) * std::f64::consts::PI * 10f64.powi(i as i32 % 9 - 4), i);
        }
        r
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let bench = parse(text);
        let declared: Vec<_> =
            END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
        assert_eq!(names(bench.get("end_to_end")), declared);
        let declared: Vec<_> =
            PER_LAYER.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
        assert_eq!(names(bench.get("per_layer")), declared);
    }

    #[test]
    fn every_metric_round_trips_through_the_result_line() {
        let report = sample_report();
        for traced in [false, true] {
            let line = report.render_json(traced);
            assert!(!line.contains('\n'));
            let parsed = parse(&line);
            assert_eq!(parsed.get("correct"), &Json::Bool(true));
            assert_eq!(parsed.get("attempted"), &Json::Num(7.0));
            assert_eq!(parsed.get("failed"), &Json::Num(0.0));
            let Json::Obj(metrics) = parsed.get("metrics") else { panic!("metrics object") };
            let expected = report.printed(traced);
            assert_eq!(metrics.len(), expected.len());
            for ((name, m), (want_name, want_unit, want)) in metrics.iter().zip(expected) {
                assert_eq!(name, want_name);
                assert_eq!(m.get("unit"), &Json::Str(want_unit.to_owned()));
                assert_eq!(m.get("value"), &Json::Num(want.value), "{name} lost digits");
            }
        }
    }

    #[test]
    fn text_lists_every_printed_metric_with_samples() {
        let report = sample_report();
        let text = report.render_text(false);
        for (name, unit, v) in report.printed(false) {
            assert!(text.contains(&format!("metric {name} = {} {unit} (n={})", v.value, v.samples)));
        }
        assert!(text.contains("verdict correct=true failed_share=0 (0 of 7"));
    }

    #[test]
    fn unset_layer_metrics_read_zero_and_failures_flip_correct() {
        let mut r = Report { attempted: 3, failed: 1, ..Report::default() };
        r.set("kvstore.gets", 5.0, 1);
        assert!(!r.correct());
        let parsed = parse(&r.render_json(true));
        assert_eq!(parsed.get("correct"), &Json::Bool(false));
        let metrics = parsed.get("metrics");
        assert_eq!(metrics.get("kvstore.gets").get("value"), &Json::Num(5.0));
        assert_eq!(metrics.get("mapreduce.spills").get("value"), &Json::Num(0.0));
    }
}
