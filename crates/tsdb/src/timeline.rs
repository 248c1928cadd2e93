//! Cross-node write-chain reconstruction and failover timelines.
//!
//! `bdb-cluster` emits each traced client write as a flat stream of
//! Dapper-style spans — `cluster.route` (root) → `cluster.wal_append`
//! → one `cluster.ship` per replica → `cluster.quorum_ack` — linked
//! only by their typed [`SpanContext`](bdb_telemetry::SpanContext)
//! (the same context `bdb-obs::chain` uses for service traces). This
//! module regroups that stream with [`bdb_telemetry::trace::chains`],
//! checks the write path's own rules, and renders the chains against
//! the cluster's membership events as a plain-text failover timeline.

use bdb_telemetry::trace::{chains, Chain};
use bdb_telemetry::{SpanEvent, TraceId};
use std::fmt::Write as _;

/// A cluster membership/recovery event on the timeline (converted by
/// the caller from its event source, e.g. `bdb-cluster`'s event log).
#[derive(Debug, Clone)]
pub struct TimelineEvent {
    /// Virtual time, microseconds.
    pub at_us: u64,
    /// Event kind (`failover`, `node_down`, `rejoin`, ...).
    pub kind: String,
    /// Node involved.
    pub node: usize,
    /// Shard involved, or -1.
    pub shard: i64,
}

/// One reconstructed client write: its spans in causal order plus the
/// facts recovered from them.
#[derive(Debug, Clone)]
pub struct WriteChain {
    /// Trace id.
    pub trace: TraceId,
    /// Shard the write routed to (-1 if unrecoverable).
    pub shard: i64,
    /// Whether the write reached quorum.
    pub acked: bool,
    /// Spans sorted by span id (root first).
    pub spans: Vec<SpanEvent>,
    /// Whether the chain is causally complete: a root route span, a
    /// WAL append under it, every span's parent present and started
    /// no later than the child, and a quorum-ack span iff acked.
    pub complete: bool,
    /// Route-to-quorum latency recovered from the ack span, µs.
    pub quorum_ack_us: Option<u64>,
}

/// Rebuilds every `cluster.*` write chain from a flat span stream
/// (non-cluster spans are ignored). Chains come back in trace-id
/// order, deterministically.
#[must_use]
pub fn reconstruct_writes(spans: &[SpanEvent]) -> Vec<WriteChain> {
    chains(spans.iter().filter(|s| s.cat == "cluster"))
        .into_iter()
        .map(|chain| {
            let root = chain.spans.iter().find(|s| s.name == "cluster.route");
            let shard = root.and_then(|s| s.int_arg("shard")).unwrap_or(-1);
            let acked = root.and_then(|s| s.int_arg("acked")) == Some(1);
            let ack_span = chain.spans.iter().find(|s| s.name == "cluster.quorum_ack");
            let quorum_ack_us =
                ack_span.zip(root).map(|(ack, root)| ack.start_us.saturating_sub(root.start_us));
            let complete = chain_is_complete(&chain, acked);
            let spans = chain.spans.into_iter().cloned().collect();
            WriteChain { trace: chain.trace, shard, acked, spans, complete, quorum_ack_us }
        })
        .collect()
}

fn chain_is_complete(chain: &Chain<'_>, acked: bool) -> bool {
    let has = |name: &str| chain.spans.iter().any(|s| s.name == name);
    // Causal links: only the route span is a root, and every other
    // span's parent exists and starts no later than its child.
    has("cluster.route")
        && has("cluster.wal_append")
        && acked == has("cluster.quorum_ack")
        && chain.spans.iter().all(|span| match span.ctx.and_then(|c| c.parent) {
            None => span.name == "cluster.route",
            Some(_) => chain.parent(span).is_some_and(|p| p.start_us <= span.start_us),
        })
}

/// Renders the failover timeline: cluster events interleaved
/// chronologically, then a per-chain write ledger and a completeness
/// summary. Pure function of its inputs.
#[must_use]
pub fn render_timeline(events: &[TimelineEvent], chains: &[WriteChain]) -> String {
    let mut out = String::from("== cluster timeline (reconstructed from trace stream) ==\n");
    let mut events: Vec<&TimelineEvent> = events.iter().collect();
    events.sort_by_key(|e| (e.at_us, e.node, e.shard));
    for e in &events {
        let _ = write!(out, "{:>12}us  {:<14} node-{}", e.at_us, e.kind, e.node);
        if e.shard >= 0 {
            let _ = write!(out, " shard {}", e.shard);
        }
        out.push('\n');
    }
    let _ = writeln!(out, "\n-- traced writes: {} --", chains.len());
    for c in chains {
        let hops: Vec<String> = c
            .spans
            .iter()
            .map(|s| {
                let node = s.int_arg("node").map_or(String::new(), |n| format!("@n{n}"));
                let lost = if s.str_arg("outcome") == Some("lost") { "!" } else { "" };
                format!("{}{node}{lost}", s.name.trim_start_matches("cluster."))
            })
            .collect();
        let _ = writeln!(
            out,
            "trace {}  shard {}  {}  {}  [{}]",
            c.trace.hex(),
            c.shard,
            if c.acked { "acked" } else { "UNACKED" },
            c.quorum_ack_us.map_or("-".to_owned(), |us| format!("{us}us")),
            hops.join(" -> "),
        );
    }
    let complete = chains.iter().filter(|c| c.complete).count();
    let _ = writeln!(out, "\n{complete} of {} chains causally complete", chains.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_telemetry::{ArgValue, SpanContext};

    fn span(
        name: &'static str,
        start_us: u64,
        trace: u64,
        span: u64,
        parent: Option<u64>,
        extra: &[(&'static str, i64)],
    ) -> SpanEvent {
        SpanEvent {
            name,
            cat: "cluster",
            start_us,
            dur_us: Some(10),
            tid: 0,
            ctx: Some(SpanContext { trace: TraceId(trace), span, parent }),
            args: extra.iter().map(|&(k, v)| (k, ArgValue::Int(v))).collect(),
        }
    }

    fn full_chain(trace: u64, t0: u64) -> Vec<SpanEvent> {
        vec![
            span("cluster.route", t0, trace, 1, None, &[("shard", 3), ("acked", 1)]),
            span("cluster.wal_append", t0 + 10, trace, 2, Some(1), &[("node", 1)]),
            span("cluster.ship", t0 + 40, trace, 3, Some(2), &[("node", 2)]),
            span("cluster.ship", t0 + 70, trace, 4, Some(2), &[("node", 3)]),
            span("cluster.quorum_ack", t0 + 60, trace, 5, Some(1), &[]),
        ]
    }

    #[test]
    fn reconstructs_a_complete_acked_chain() {
        // Interleave two writes to prove grouping by trace id works on
        // a flat, time-ordered stream.
        let mut stream = full_chain(0xbb, 100);
        stream.extend(full_chain(0xaa, 130));
        stream.sort_by_key(|s| s.start_us);

        let chains = reconstruct_writes(&stream);
        assert_eq!(chains.len(), 2);
        for c in &chains {
            assert!(c.complete, "chain {} must be causally complete", c.trace.hex());
            assert!(c.acked);
            assert_eq!(c.shard, 3);
            assert_eq!(c.quorum_ack_us, Some(60));
            assert_eq!(c.spans.len(), 5);
            assert_eq!(c.spans[0].name, "cluster.route");
        }
        assert_eq!(chains[0].trace, TraceId(0xaa), "trace order is deterministic");
    }

    #[test]
    fn broken_chains_are_flagged_not_dropped() {
        // Missing WAL append: incomplete.
        let mut spans = full_chain(0xcc, 0);
        spans.remove(1);
        // wal_append's children now dangle on parent 2.
        let chains = reconstruct_writes(&spans);
        assert_eq!(chains.len(), 1);
        assert!(!chains[0].complete);

        // Acked chain without a quorum-ack span: incomplete.
        let mut spans = full_chain(0xdd, 0);
        spans.retain(|s| s.name != "cluster.quorum_ack");
        assert!(!reconstruct_writes(&spans)[0].complete);

        // A second root: incomplete.
        let mut spans = full_chain(0xde, 0);
        spans[2].ctx.as_mut().unwrap().parent = None;
        assert!(!reconstruct_writes(&spans)[0].complete);

        // A parent that starts after its child: incomplete.
        let mut spans = full_chain(0xdf, 0);
        spans[1].start_us = 50;
        assert!(!reconstruct_writes(&spans)[0].complete);

        // Unacked chain without an ack span: complete as-is.
        let spans = vec![
            span("cluster.route", 0, 0xee, 1, None, &[("shard", 1), ("acked", 0)]),
            span("cluster.wal_append", 10, 0xee, 2, Some(1), &[("node", 0)]),
        ];
        let c = &reconstruct_writes(&spans)[0];
        assert!(c.complete);
        assert!(!c.acked);
        assert_eq!(c.quorum_ack_us, None);
    }

    #[test]
    fn non_cluster_spans_are_ignored() {
        let mut spans = full_chain(0xff, 0);
        spans.push(SpanEvent {
            name: "serve",
            cat: "serving",
            start_us: 5,
            dur_us: Some(1),
            tid: 0,
            ctx: Some(SpanContext { trace: TraceId(0xff), span: 6, parent: Some(1) }),
            args: Vec::new(),
        });
        let chains = reconstruct_writes(&spans);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].spans.len(), 5);
    }

    #[test]
    fn timeline_renders_events_and_chains_deterministically() {
        let events = vec![
            TimelineEvent { at_us: 5_000, kind: "node_down".into(), node: 2, shard: -1 },
            TimelineEvent { at_us: 5_500, kind: "failover".into(), node: 3, shard: 4 },
            TimelineEvent { at_us: 1_000, kind: "rejoin".into(), node: 1, shard: -1 },
        ];
        let chains = reconstruct_writes(&full_chain(1, 100));
        let text = render_timeline(&events, &chains);
        assert!(text.contains("node_down"));
        assert!(text.contains("failover"));
        assert!(text.contains("shard 4"));
        assert!(text.contains("trace 0000000000000001"));
        assert!(text.contains("wal_append@n1"), "hop rendering includes nodes");
        assert!(text.contains("1 of 1 chains causally complete"));
        let rejoin = text.find("rejoin").unwrap();
        let down = text.find("node_down").unwrap();
        assert!(rejoin < down, "events sort by time");
        assert_eq!(text, render_timeline(&events, &chains));
    }
}
