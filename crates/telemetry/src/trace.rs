//! Typed trace context on spans, and the one walker that regroups a
//! flat span stream into per-trace chains. Producers set
//! [`SpanEvent::ctx`]; only the Chrome exporter turns it into
//! `trace_id` / `span_id` / `parent_span_id` args. Consumers call
//! [`chains`] and keep only their own rules (which spans a chain
//! needs, which must nest).

use crate::span::SpanEvent;
use std::collections::BTreeMap;

/// A 64-bit trace identifier, rendered as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The canonical 16-hex-digit rendering.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A span's place in its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The request the span belongs to.
    pub trace: TraceId,
    /// The span's id, unique within its trace.
    pub span: u64,
    /// The parent span's id; `None` for the trace's root.
    pub parent: Option<u64>,
}

/// One trace's spans, sorted by span id.
#[derive(Debug, Clone)]
pub struct Chain<'a> {
    /// The trace all spans share.
    pub trace: TraceId,
    /// Its spans, ascending by span id (stable for repeated ids).
    pub spans: Vec<&'a SpanEvent>,
}

impl<'a> Chain<'a> {
    /// The span with id `id`, if present (the first, if ids repeat).
    pub fn span(&self, id: u64) -> Option<&'a SpanEvent> {
        self.spans.iter().copied().find(|s| s.ctx.is_some_and(|c| c.span == id))
    }

    /// `span`'s parent in this chain: `None` for a root, or when the
    /// parent id names no span of the chain.
    pub fn parent(&self, span: &SpanEvent) -> Option<&'a SpanEvent> {
        self.span(span.ctx?.parent?)
    }
}

/// Groups the spans that carry a [`SpanContext`] by trace, in
/// ascending numeric [`TraceId`] order (the order of their fixed-width
/// hex renderings), each sorted by span id. Spans without a context
/// are ignored.
pub fn chains<'a>(spans: impl IntoIterator<Item = &'a SpanEvent>) -> Vec<Chain<'a>> {
    let mut by_trace: BTreeMap<TraceId, Vec<&'a SpanEvent>> = BTreeMap::new();
    for s in spans {
        if let Some(ctx) = s.ctx {
            by_trace.entry(ctx.trace).or_default().push(s);
        }
    }
    by_trace
        .into_iter()
        .map(|(trace, mut spans)| {
            spans.sort_by_key(|s| s.ctx.map(|c| c.span));
            Chain { trace, spans }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, trace: u64, span: u64, parent: Option<u64>) -> SpanEvent {
        SpanEvent {
            name,
            cat: "test",
            start_us: 0,
            dur_us: Some(1),
            tid: 0,
            ctx: Some(SpanContext { trace: TraceId(trace), span, parent }),
            args: Vec::new(),
        }
    }

    #[test]
    fn hex_is_fixed_width_lowercase() {
        assert_eq!(TraceId(0xABC).hex(), "0000000000000abc");
        assert_eq!(TraceId(u64::MAX).hex(), "ffffffffffffffff");
        // Numeric order equals the order of the renderings.
        assert!(TraceId(9) < TraceId(0x10));
        assert!(TraceId(9).hex() < TraceId(0x10).hex());
    }

    #[test]
    fn interleaved_traces_are_grouped_and_ordered() {
        let stream = vec![
            span("b-child", 0x20, 2, Some(1)),
            span("a-leaf", 0x10, 3, Some(2)),
            span("b-root", 0x20, 1, None),
            span("a-root", 0x10, 1, None),
            span("a-mid", 0x10, 2, Some(1)),
        ];
        let found = chains(&stream);
        let traces: Vec<TraceId> = found.iter().map(|c| c.trace).collect();
        assert_eq!(traces, [TraceId(0x10), TraceId(0x20)]);
        let names = |c: &Chain<'_>| c.spans.iter().map(|s| s.name).collect::<Vec<_>>();
        assert_eq!(names(&found[0]), ["a-root", "a-mid", "a-leaf"]);
        assert_eq!(names(&found[1]), ["b-root", "b-child"]);
        let leaf = found[0].span(3).unwrap();
        assert_eq!(found[0].parent(leaf).map(|p| p.name), Some("a-mid"));
        assert!(found[0].parent(found[0].span(1).unwrap()).is_none(), "a root has no parent");
    }

    #[test]
    fn spans_without_context_are_ignored() {
        let mut untraced = span("plain", 7, 2, Some(1));
        untraced.ctx = None;
        let stream = vec![untraced, span("root", 7, 1, None)];
        let found = chains(&stream);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].spans.len(), 1);
        assert_eq!(found[0].spans[0].name, "root");
        assert!(chains(&[]).is_empty());
    }

    #[test]
    fn missing_parent_resolves_to_none() {
        // Span 3 names parent 2, which is not in the stream.
        let stream = vec![span("root", 1, 1, None), span("orphan", 1, 3, Some(2))];
        let found = chains(&stream);
        let orphan = found[0].span(3).unwrap();
        assert!(found[0].span(2).is_none());
        assert!(found[0].parent(orphan).is_none());
        // A same-id span of another trace never resolves as a parent.
        let stream = vec![span("root", 1, 1, None), span("child", 2, 2, Some(1))];
        for c in chains(&stream) {
            assert!(c.spans.iter().all(|s| c.parent(s).is_none()));
        }
    }
}
