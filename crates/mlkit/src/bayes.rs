//! Multinomial Naive Bayes for text classification.
//!
//! The paper's Naive Bayes workload classifies Amazon movie reviews by
//! sentiment. This is the standard multinomial formulation with Laplace
//! smoothing over a bag-of-words model.

use bdb_archsim::layout::{fnv1a, splitmix64, HEAP_BASE};
use bdb_archsim::{NullProbe, Probe};
use std::collections::HashMap;

/// A trained multinomial Naive Bayes model.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    vocab: HashMap<String, usize>,
    class_log_prior: Vec<f64>,
    /// `feature_log_prob[class][word]`.
    feature_log_prob: Vec<Vec<f64>>,
    /// Smoothed log-probability for unseen words, per class.
    unseen_log_prob: Vec<f64>,
}

impl NaiveBayes {
    /// Trains on `(class, text)` pairs over `classes` classes with
    /// Laplace smoothing.
    ///
    /// # Panics
    ///
    /// Panics if `docs` is empty, `classes` is zero, or any label is out
    /// of range.
    pub fn train(docs: &[(usize, String)], classes: usize) -> Self {
        Self::train_traced(docs, classes, &mut NullProbe)
    }

    /// Instrumented [`NaiveBayes::train`]: per-token hash lookups into
    /// the count tables plus log-space FP arithmetic at the end.
    ///
    /// # Panics
    ///
    /// Panics if `docs` is empty, `classes` is zero, or any label is out
    /// of range.
    pub fn train_traced<P: Probe + ?Sized>(
        docs: &[(usize, String)],
        classes: usize,
        probe: &mut P,
    ) -> Self {
        assert!(!docs.is_empty(), "need training documents");
        assert!(classes > 0, "need at least one class");
        let counts_base = HEAP_BASE;
        let mut vocab: HashMap<String, usize> = HashMap::new();
        let mut class_docs = vec![0u64; classes];
        let mut word_counts: Vec<HashMap<usize, u64>> = vec![HashMap::new(); classes];
        let mut class_tokens = vec![0u64; classes];
        for (label, text) in docs {
            assert!(*label < classes, "label {label} out of range");
            class_docs[*label] += 1;
            for token in text.split_whitespace() {
                let next_id = vocab.len();
                let id = *vocab.entry(token.to_owned()).or_insert(next_id);
                // Count-table spans follow the (growing) vocabulary, so
                // locality reflects the real structure sizes.
                let span = ((vocab.len() as u64 + 1) * 48).clamp(1 << 16, 8 << 20);
                probe.load(counts_base + splitmix64(id as u64) % span, 16);
                probe.store(counts_base + (8 << 20) + (id as u64 * 8) % span, 8);
                probe.int_ops(12);
                probe.branch(id.is_multiple_of(4));
                *word_counts[*label].entry(id).or_insert(0) += 1;
                class_tokens[*label] += 1;
            }
        }
        let v = vocab.len() as f64;
        let total_docs: u64 = class_docs.iter().sum();
        let mut class_log_prior = Vec::with_capacity(classes);
        let mut feature_log_prob = Vec::with_capacity(classes);
        let mut unseen_log_prob = Vec::with_capacity(classes);
        for c in 0..classes {
            class_log_prior.push(((class_docs[c].max(1)) as f64 / total_docs as f64).ln());
            let denom = class_tokens[c] as f64 + v;
            let mut probs = vec![0.0f64; vocab.len()];
            for (&w, &n) in &word_counts[c] {
                probs[w] = ((n as f64 + 1.0) / denom).ln();
                probe.fp_ops(3);
            }
            for (w, p) in probs.iter_mut().enumerate() {
                if *p == 0.0 && !word_counts[c].contains_key(&w) {
                    *p = (1.0 / denom).ln();
                }
            }
            unseen_log_prob.push((1.0 / denom).ln());
            probe.fp_ops(vocab.len() as u64);
            feature_log_prob.push(probs);
        }
        Self { vocab, class_log_prior, feature_log_prob, unseen_log_prob }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.class_log_prior.len()
    }

    /// Predicts the most likely class for `text`.
    pub fn predict(&self, text: &str) -> usize {
        self.predict_traced(text, &mut NullProbe)
    }

    /// Instrumented [`NaiveBayes::predict`].
    pub fn predict_traced<P: Probe + ?Sized>(&self, text: &str, probe: &mut P) -> usize {
        let mut scores = self.class_log_prior.clone();
        let table_base = HEAP_BASE + (256 << 20);
        let span = ((self.vocab.len() as u64 + 1) * 48).clamp(1 << 16, 8 << 20);
        for token in text.split_whitespace() {
            let id = self.vocab.get(token).copied();
            probe.load(table_base + splitmix64(fnv1a(token.as_bytes())) % span, 8);
            probe.int_ops(8);
            for (c, score) in scores.iter_mut().enumerate() {
                *score += match id {
                    Some(w) => self.feature_log_prob[c][w],
                    None => self.unseen_log_prob[c],
                };
                probe.fp_ops(1);
            }
        }
        scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(c, _)| c).unwrap_or(0)
    }

    /// Classification accuracy on labeled data.
    pub fn accuracy(&self, docs: &[(usize, String)]) -> f64 {
        if docs.is_empty() {
            return 0.0;
        }
        let correct = docs.iter().filter(|(l, t)| self.predict(t) == *l).count();
        correct as f64 / docs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<(usize, String)> {
        vec![
            (1, "great movie loved it".into()),
            (1, "wonderful amazing film great".into()),
            (1, "loved the acting great story".into()),
            (0, "terrible boring waste of time".into()),
            (0, "awful film boring plot".into()),
            (0, "worst movie terrible acting".into()),
        ]
    }

    #[test]
    fn classifies_held_out_sentiment() {
        let model = NaiveBayes::train(&docs(), 2);
        assert_eq!(model.predict("great wonderful story"), 1);
        assert_eq!(model.predict("boring terrible waste"), 0);
    }

    #[test]
    fn training_accuracy_is_high() {
        let model = NaiveBayes::train(&docs(), 2);
        assert!(model.accuracy(&docs()) >= 0.99);
    }

    #[test]
    fn unseen_words_fall_back_to_prior() {
        let model = NaiveBayes::train(&docs(), 2);
        // Entirely unseen text: decision driven by priors (equal here),
        // must not panic and must return a valid class.
        let c = model.predict("xyzzy plugh");
        assert!(c < 2);
    }

    #[test]
    fn vocab_and_classes_reported() {
        let model = NaiveBayes::train(&docs(), 2);
        assert_eq!(model.classes(), 2);
        assert!(model.vocab_size() >= 15);
    }

    #[test]
    fn traced_counts_fp_work() {
        use bdb_archsim::CountingProbe;
        let mut probe = CountingProbe::default();
        let model = NaiveBayes::train_traced(&docs(), 2, &mut probe);
        let before = probe.mix().fp_ops;
        assert!(before > 0, "training does log arithmetic");
        model.predict_traced("great boring", &mut probe);
        assert!(probe.mix().fp_ops > before, "prediction adds FP");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        NaiveBayes::train(&[(5, "x".into())], 2);
    }

    #[test]
    #[should_panic(expected = "training documents")]
    fn empty_docs_panic() {
        NaiveBayes::train(&[], 2);
    }
}
