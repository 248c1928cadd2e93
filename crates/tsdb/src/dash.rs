//! ASCII sparkline dashboards rendered from stored series — one
//! `node-N.dash.txt` per cluster node, entirely from the tsdb (no
//! live state), so the same snapshot always renders the same wall.

use crate::query::{rate, select};
use crate::store::Tsdb;
use std::fmt::Write as _;

/// Density ramp from quiet to loud.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders `values` as a fixed-`width` sparkline: values are bucketed
/// into `width` columns (column mean; empty columns repeat the last
/// seen level) and scaled min..max onto the ASCII ramp.
#[must_use]
pub fn sparkline(values: &[f64], width: usize) -> String {
    if width == 0 {
        return String::new();
    }
    if values.is_empty() {
        return " ".repeat(width);
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    let mut out = String::with_capacity(width);
    for col in 0..width {
        // Columns partition the sample index range; every column maps
        // to at least one sample (repeating samples when width > len).
        let a = (col * values.len() / width).min(values.len() - 1);
        let b = (((col + 1) * values.len()).div_ceil(width)).clamp(a + 1, values.len());
        let slice = &values[a..b];
        let v = slice.iter().sum::<f64>() / slice.len() as f64;
        let level = if span > 0.0 {
            (((v - lo) / span) * (RAMP.len() - 1) as f64).round() as usize
        } else {
            RAMP.len() / 2
        };
        out.push(RAMP[level.min(RAMP.len() - 1)] as char);
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

/// Renders the dashboard for one node: every non-bucket series
/// carrying `node="<node>"`, with counters (`*_total`) shown as
/// per-second rates and everything else shown raw. `width` is the
/// sparkline width in columns.
#[must_use]
pub fn render_node_dashboard(db: &Tsdb, node: &str, width: usize) -> String {
    let mut out = format!("== {node} · tsdb dashboard ==\n");
    let names: Vec<String> = {
        let mut names: Vec<String> = db
            .keys()
            .filter(|k| k.label("node") == Some(node) && !k.name.ends_with("_bucket"))
            .map(|k| k.name.clone())
            .collect();
        names.dedup();
        names
    };
    for name in names {
        for (key, samples) in select(db, &name, &[("node", node)], 0, u64::MAX) {
            if samples.is_empty() {
                continue;
            }
            let (kind, values): (&str, Vec<f64>) = if name.ends_with("_total") {
                ("rate/s", rate(&samples).into_iter().map(|(_, v)| v).collect())
            } else {
                ("value", samples.iter().map(|&(_, v)| v).collect())
            };
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| (l.min(v), h.max(v)));
            let (lo, hi) = if values.is_empty() { (0.0, 0.0) } else { (lo, hi) };
            let _ = writeln!(
                out,
                "{:<44} |{}| {} min {} max {}",
                key.render(),
                sparkline(&values, width),
                kind,
                fmt_value(lo),
                fmt_value(hi),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SeriesKey;

    #[test]
    fn sparkline_scales_and_pads() {
        assert_eq!(sparkline(&[], 8), "        ");
        assert_eq!(sparkline(&[5.0], 4).len(), 4);
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], 10);
        assert_eq!(ramp, " .:-=+*#%@", "monotone data walks the whole ramp");
        // Constant series sit mid-ramp rather than at an extreme.
        let flat = sparkline(&[3.0; 6], 6);
        assert!(flat.chars().all(|c| c == RAMP[RAMP.len() / 2] as char));
        assert_eq!(sparkline(&[1.0, 2.0], 0), "");
    }

    #[test]
    fn dashboard_lists_only_the_nodes_series() {
        let mut db = Tsdb::new();
        let mine = SeriesKey::new("cluster.applies_total", &[("node", "node-0")]);
        let gauge = SeriesKey::new("cluster.replication_lag_bytes", &[("node", "node-0")]);
        let theirs = SeriesKey::new("cluster.applies_total", &[("node", "node-1")]);
        let bucket = SeriesKey::new("req_us_bucket", &[("node", "node-0"), ("le", "100")]);
        for i in 0..20u64 {
            db.append(&mine, i * 1_000_000, (i * 5) as f64);
            db.append(&gauge, i * 1_000_000, (i % 4) as f64 * 64.0);
            db.append(&theirs, i * 1_000_000, (i * 2) as f64);
            db.append(&bucket, i * 1_000_000, i as f64);
        }
        let dash = render_node_dashboard(&db, "node-0", 24);
        assert!(dash.contains("node-0 · tsdb dashboard"));
        assert!(dash.contains("cluster.applies_total"));
        assert!(dash.contains("rate/s"), "counter rendered as a rate");
        assert!(dash.contains("cluster.replication_lag_bytes"));
        assert!(!dash.contains("node-1"), "other nodes' series excluded");
        assert!(!dash.contains("_bucket"), "bucket series excluded");
        // Deterministic: same store renders the same text.
        assert_eq!(dash, render_node_dashboard(&db, "node-0", 24));
    }
}
