//! Collapsed-stack ("folded") flamegraph export.
//!
//! One line per distinct span stack, `frame;frame;... weight`, the
//! format `inferno-flamegraph`, `flamegraph.pl` and speedscope all
//! consume. Frames are span names rooted at a `worker-<tid>` frame so
//! each thread renders as its own tower; weights are **self** time in
//! µs, so a stack's total width equals its spans' wall time without
//! double-counting children.

use crate::forest::SpanForest;
use std::collections::BTreeMap;

/// Renders the forest as folded stacks, lines sorted lexicographically
/// (deterministic for golden tests). Zero-self-time stacks are
/// omitted; the result ends with a newline unless empty.
pub fn folded_stacks(forest: &SpanForest) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for (&tid, roots) in &forest.roots_by_tid {
        let mut frames = vec![format!("worker-{tid}")];
        for &root in roots {
            fold(forest, root, &mut frames, &mut weights);
        }
    }
    let mut out = String::new();
    for (stack, weight) in weights {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

fn fold(
    forest: &SpanForest,
    node: usize,
    frames: &mut Vec<String>,
    weights: &mut BTreeMap<String, u64>,
) {
    let n = &forest.nodes[node];
    frames.push(n.name.to_owned());
    if n.self_us > 0 {
        *weights.entry(frames.join(";")).or_default() += n.self_us;
    }
    for &c in &n.children {
        fold(forest, c, frames, weights);
    }
    frames.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::span;

    #[test]
    fn folded_output_is_deterministic_and_self_weighted() {
        let f = SpanForest::build(&[
            span("job", 1, 0, 100),
            span("map-phase", 1, 0, 60),
            span("reduce-phase", 1, 60, 40),
            span("map-task", 2, 5, 45),
            span("spill", 2, 20, 10),
        ]);
        let folded = folded_stacks(&f);
        assert_eq!(
            folded,
            "worker-1;job;map-phase 60\n\
             worker-1;job;reduce-phase 40\n\
             worker-2;map-task 35\n\
             worker-2;map-task;spill 10\n",
            "job has zero self time and is omitted"
        );
        // Every line parses as `stack weight`.
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            weight.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn repeated_stacks_aggregate() {
        let f = SpanForest::build(&[
            span("iter", 1, 0, 10),
            span("iter", 1, 10, 15),
            span("iter", 1, 25, 5),
        ]);
        assert_eq!(folded_stacks(&f), "worker-1;iter 30\n");
    }

    #[test]
    fn empty_forest_folds_to_nothing() {
        assert_eq!(folded_stacks(&SpanForest::build(&[])), "");
    }
}
