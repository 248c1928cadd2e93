//! The paper's three text micro benchmarks as MapReduce jobs — Hadoop's
//! examples jar in miniature. Sort, Grep and WordCount are written once
//! here; the suite's workloads, the `reproduce` and `ablation` passes,
//! the chaos campaign and the tests all run these same jobs, so every
//! artifact that names one of them describes the same code.
//!
//! Map and reduce charge their per-record work to the [`Probe`], so a
//! traced run of these jobs is what the committed characterization
//! numbers measure.

use crate::job::{Emitter, Job};
use bdb_archsim::Probe;

/// The words of one line of text: its whitespace-separated tokens, each
/// with leading and trailing `'.'` trimmed. [`WordCount`] counts these,
/// and the in-memory dataflow stack tokenizes with it too.
pub fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split_whitespace().map(|token| token.trim_matches('.'))
}

/// Sorts text lines by content (the TeraSort-style micro benchmark).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sort;

impl Job for Sort {
    type Input = String;
    type Key = String;
    type Value = ();
    type Output = String;
    fn input_size(&self, line: &String) -> usize {
        line.len()
    }
    fn map<P: Probe + ?Sized>(&self, line: &String, emit: &mut Emitter<String, ()>, probe: &mut P) {
        probe.int_ops(line.len() as u64 / 8);
        emit.emit(line.clone(), ());
    }
    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<()>,
        out: &mut Vec<String>,
        probe: &mut P,
    ) {
        probe.int_ops(values.len() as u64);
        for _ in values {
            out.push(key.clone());
        }
    }
}

/// Keeps the lines that contain `pattern` (`grep` for a frequent term).
#[derive(Debug, Clone, Copy)]
pub struct Grep {
    /// The substring a line must contain.
    pub pattern: &'static str,
}

impl Job for Grep {
    type Input = String;
    type Key = u64;
    type Value = String;
    type Output = String;
    fn input_size(&self, line: &String) -> usize {
        line.len()
    }
    fn map<P: Probe + ?Sized>(
        &self,
        line: &String,
        emit: &mut Emitter<u64, String>,
        probe: &mut P,
    ) {
        // Byte scan: the real work of grep.
        probe.int_ops(line.len() as u64);
        probe.branch(line.len().is_multiple_of(2));
        if line.contains(self.pattern) {
            emit.emit(1, line.clone());
        }
    }
    fn reduce<P: Probe + ?Sized>(
        &self,
        _key: u64,
        values: Vec<String>,
        out: &mut Vec<String>,
        probe: &mut P,
    ) {
        probe.int_ops(values.len() as u64);
        out.extend(values);
    }
}

/// Word frequency counting with a summing combiner: one `(word, count)`
/// per distinct entry of [`words`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WordCount;

impl Job for WordCount {
    type Input = String;
    type Key = String;
    type Value = u64;
    type Output = (String, u64);
    fn input_size(&self, line: &String) -> usize {
        line.len()
    }
    fn map<P: Probe + ?Sized>(
        &self,
        line: &String,
        emit: &mut Emitter<String, u64>,
        probe: &mut P,
    ) {
        if probe.is_active() {
            // Tokenizing reads every byte of every token, trimmed dots
            // included.
            probe.int_ops(line.split_whitespace().map(str::len).sum::<usize>() as u64);
        }
        for w in words(line) {
            emit.emit(w.to_owned(), 1);
        }
    }
    fn combine(&self, _k: &String, values: Vec<u64>) -> Vec<u64> {
        vec![values.into_iter().sum()]
    }
    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<u64>,
        out: &mut Vec<(String, u64)>,
        probe: &mut P,
    ) {
        probe.int_ops(values.len() as u64);
        out.push((key, values.into_iter().sum()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use bdb_archsim::{CountingProbe, InstructionMix};

    #[test]
    fn words_trims_dots_and_splits_on_any_whitespace() {
        let got: Vec<&str> = words(" The end.\tof\u{a0}it...\n\n..x.y.. . ").collect();
        assert_eq!(got, ["The", "end", "of", "it", "x.y", ""]);
        assert_eq!(words(" \t\n").count(), 0);
    }

    /// Sixty lines with trailing and leading dots, repeated words and
    /// the Grep pattern in every third line.
    fn text() -> Vec<String> {
        (0..60)
            .map(|i| {
                let when = if i % 3 == 0 { "time" } else { "tide" };
                format!("It was the {when} of word-{}. ..the age of wisdom... end.", i % 11)
            })
            .collect()
    }

    /// Runs `job` traced over [`text`] on a fresh framework model and
    /// checks it returns the native output (sorted).
    fn traced<J>(job: &J) -> CountingProbe
    where
        J: Job<Input = String>,
        J::Output: Ord + std::fmt::Debug,
    {
        let engine = Engine::builder().reducers(2).build();
        let mut probe = CountingProbe::default();
        let (mut traced, _) = engine.run_traced(job, &text(), &mut probe);
        let (mut native, _) = engine.run(job, &text());
        traced.sort();
        native.sort();
        assert_eq!(traced, native);
        probe
    }

    fn mix([loads, stores, branches, int_ops, fp_ops, other]: [u64; 6]) -> InstructionMix {
        InstructionMix { loads, stores, branches, int_ops, fp_ops, other }
    }

    /// The counts a traced run of each job charges, equal to those of
    /// the jobs the committed `BENCH_RESULTS.json` and `charmap.json`
    /// were generated with. A change to a job's probe calls, input size
    /// or tokenization moves these first.
    #[test]
    fn traced_jobs_pin_the_simulated_counts() {
        let probe = traced(&WordCount);
        assert_eq!(probe.mix(), mix([165800, 59964, 125256, 7125, 1104, 405352]));
        assert_eq!(probe.requested_bytes(), 13710);

        let probe = traced(&Sort);
        assert_eq!(probe.mix(), mix([30463, 10929, 22938, 2112, 174, 74390]));
        assert_eq!(probe.requested_bytes(), 7690);

        let probe = traced(&Grep { pattern: "time" });
        assert_eq!(probe.mix(), mix([17044, 6095, 12876, 4371, 90, 41604]));
        assert_eq!(probe.requested_bytes(), 4887);
    }
}
