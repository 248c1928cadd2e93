//! Spans the benchmark records around its own calls into each layer.
//!
//! Every call goes through [`Tracer::time`], which always measures the
//! call's wall time (the end-to-end samples come from it) and, when
//! tracing is on, also records a span: name, start, end and the
//! enclosing span. Per-name totals (count, total time, self time) are
//! kept for the whole run; raw spans are kept up to a cap and written
//! as a Chrome trace-event file when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Raw spans kept for the trace file; later spans only feed the totals.
const KEEP_SPANS: usize = 20_000;

/// A closed interval of benchmark time, in nanoseconds since the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start.
    pub start_ns: u64,
    /// End (not before `start_ns`).
    pub end_ns: u64,
}

/// Self time of `span`: its length minus the part of it that `children`
/// cover. Overlapping children count once; parts of a child outside the
/// span count not at all.
pub fn self_time_ns(span: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    span.end_ns - span.start_ns - covered
}

/// Per-name span totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean span duration in milliseconds (0 without spans).
    pub fn mean_ms(&self) -> f64 {
        per(self.total_ns as f64 / 1e6, self.count)
    }

    /// Mean self time in milliseconds (0 without spans).
    pub fn mean_self_ms(&self) -> f64 {
        per(self.self_ns as f64 / 1e6, self.count)
    }
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[derive(Debug)]
struct Frame {
    id: u32,
    name: &'static str,
    start_ns: u64,
    children: Vec<Interval>,
}

#[derive(Debug)]
struct Record {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    span: Interval,
}

/// The benchmark's span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    stack: Vec<Frame>,
    totals: BTreeMap<&'static str, SpanTotals>,
    kept: Vec<Record>,
}

impl Tracer {
    /// A recorder that starts with tracing off.
    pub fn new() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            totals: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    /// Turns span recording on or off (only between top-level spans).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    /// Runs `f`, returning its result and wall time; records a span named
    /// `name` around it when tracing is on.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let r = f(self);
            return (r, start.elapsed());
        }
        let start = Instant::now();
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(Frame { id, name, start_ns: self.ns(start), children: Vec::new() });
        let r = f(self);
        let end = Instant::now();
        let frame = self.stack.pop().expect("span stack balanced");
        let span = Interval { start_ns: frame.start_ns, end_ns: self.ns(end) };
        let totals = self.totals.entry(frame.name).or_default();
        totals.count += 1;
        totals.total_ns += span.end_ns - span.start_ns;
        totals.self_ns += self_time_ns(span, &frame.children);
        let parent = self.stack.last_mut().map(|p| {
            p.children.push(span);
            p.id
        });
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(Record { id: frame.id, parent, name: frame.name, span });
        }
        (r, end - start)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Totals for spans named `name` (zero if none closed).
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes the kept spans as a Chrome trace-event array (load it in
    /// Perfetto or `chrome://tracing`).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, r) in self.kept.iter().enumerate() {
            let sep = if i + 1 == self.kept.len() { "" } else { "," };
            let parent = r.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}{sep}",
                r.name,
                r.name.split('.').next().unwrap_or(r.name),
                r.span.start_ns as f64 / 1e3,
                (r.span.end_ns - r.span.start_ns) as f64 / 1e3,
                r.id,
                parent,
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start_ns: u64, end_ns: u64) -> Interval {
        Interval { start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let span = iv(100, 200);
        assert_eq!(self_time_ns(span, &[]), 100);
        assert_eq!(self_time_ns(span, &[iv(110, 130), iv(150, 160)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time_ns(span, &[iv(110, 150), iv(140, 170)]), 40);
        // Children sticking out of the span only cover their inside part.
        assert_eq!(self_time_ns(span, &[iv(50, 120), iv(190, 300)]), 70);
        // Children fully outside, or empty, cover nothing.
        assert_eq!(self_time_ns(span, &[iv(0, 90), iv(250, 260), iv(150, 150)]), 100);
        // A child covering everything leaves no self time.
        assert_eq!(self_time_ns(span, &[iv(0, 1000)]), 0);
    }

    #[test]
    fn nested_spans_record_self_time_and_parents() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let (v, outer) = t.time("outer", |t| {
            let (a, _) = t.time("inner", |_| 2);
            std::thread::sleep(Duration::from_millis(2));
            let (b, _) = t.time("inner", |_| {
                std::thread::sleep(Duration::from_millis(1));
                3
            });
            a + b
        });
        assert_eq!(v, 5);
        let o = t.totals("outer");
        let i = t.totals("inner");
        assert_eq!((o.count, i.count), (1, 2));
        assert_eq!(o.self_ns, o.total_ns - i.total_ns, "sequential children");
        assert!(o.total_ns <= outer.as_nanos() as u64);
        assert!(o.self_ns >= 2_000_000);
        assert_eq!(i.self_ns, i.total_ns, "leaves are all self time");
        let parents: Vec<_> = t.kept.iter().map(|r| (r.name, r.parent)).collect();
        assert_eq!(parents, vec![("inner", Some(0)), ("inner", Some(0)), ("outer", None)]);
    }

    #[test]
    fn disabled_tracer_still_times_but_records_nothing() {
        let mut t = Tracer::new();
        let (_, d) = t.time("x", |_| std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert_eq!(t.totals("x"), SpanTotals::default());
        assert!(t.kept.is_empty());
    }
}
