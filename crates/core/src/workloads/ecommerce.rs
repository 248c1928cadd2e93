//! E-commerce offline analytics: Collaborative Filtering and Naive
//! Bayes over Amazon-movie-review-style data (paper Table 4).

use crate::report::{UserMetric, WorkloadReport};
use crate::scale::RunScale;
use crate::workload::WorkloadId;
use bdb_archsim::{CharacterizationReport, MachineConfig, SimProbe};
use bdb_datagen::convert::{reviews_to_labeled, reviews_to_ratings};
use bdb_datagen::ReviewGenerator;
use bdb_mapreduce::FrameworkModel;
use bdb_mlkit::{ItemCf, NaiveBayes};
use std::time::Instant;

/// Library-scale baseline review count (the paper: 2^15 vertices for CF
/// and 32 GB text for Bayes — both derived from the review seed).
pub const REVIEWS_BASELINE: u64 = 4_000;

fn reviews(scale: &RunScale, n: u64) -> Vec<bdb_datagen::Review> {
    ReviewGenerator::new(scale.seed_for(60)).generate(n)
}

/// Item-based collaborative filtering over the rating matrix.
pub(crate) fn cf_native(scale: &RunScale) -> WorkloadReport {
    let n = scale.native_units(REVIEWS_BASELINE);
    let revs = reviews(scale, n);
    let ratings = reviews_to_ratings(&revs);
    let bytes = n * 20;
    let start = Instant::now();
    let model = ItemCf::train(&ratings, 20);
    // A recommendation pass for the most active users.
    let mut recs = 0usize;
    for user in 1..=50u64 {
        recs += model.recommend(user, 10).len();
    }
    let seconds = start.elapsed().as_secs_f64();
    WorkloadReport::new(
        WorkloadId::CollaborativeFiltering,
        scale.multiplier,
        UserMetric::Dps { input_bytes: bytes, seconds },
        bytes,
    )
    .with_detail(format!("{} items, {recs} recommendations", model.item_count()))
}

pub(crate) fn cf_traced(scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
    let n = scale.traced_units(REVIEWS_BASELINE).max(200);
    let revs = reviews(scale, n);
    let ratings = reviews_to_ratings(&revs);
    let mut probe = SimProbe::new(machine);
    let mut fw = FrameworkModel::new();
    ItemCf::train_traced(&ratings[..ratings.len() / 5 + 1], 20, &mut probe);
    fw.warm(&mut probe);
    probe.reset_stats();
    let model = ItemCf::train_traced(&ratings, 20, &mut probe);
    for (i, &(u, it, _)) in ratings.iter().enumerate() {
        fw.on_map_record(&mut probe, 20);
        if i % 4 == 0 {
            fw.on_emit(&mut probe, 16);
        }
        if i % 64 == 0 {
            model.predict_traced(u, it, &mut probe);
        }
    }
    probe.finish()
}

/// Naive Bayes sentiment classification over review text.
pub(crate) fn bayes_native(scale: &RunScale) -> WorkloadReport {
    let n = scale.native_units(REVIEWS_BASELINE);
    let revs = reviews(scale, n);
    let labeled = reviews_to_labeled(&revs);
    let docs: Vec<(usize, String)> = labeled
        .lines()
        .map(|l| {
            let (label, text) = l.split_once('\t').expect("labeled format");
            ((label == "pos") as usize, text.to_owned())
        })
        .collect();
    let bytes: u64 = docs.iter().map(|(_, t)| t.len() as u64).sum();
    let split = docs.len() * 9 / 10;
    let start = Instant::now();
    let model = NaiveBayes::train(&docs[..split], 2);
    let accuracy = model.accuracy(&docs[split..]);
    let seconds = start.elapsed().as_secs_f64();
    WorkloadReport::new(
        WorkloadId::NaiveBayes,
        scale.multiplier,
        UserMetric::Dps { input_bytes: bytes, seconds },
        bytes,
    )
    .with_detail(format!("{} vocab, held-out accuracy {accuracy:.2}", model.vocab_size()))
}

pub(crate) fn bayes_traced(scale: &RunScale, machine: MachineConfig) -> CharacterizationReport {
    let n = scale.traced_units(REVIEWS_BASELINE).max(100);
    let revs = reviews(scale, n);
    let labeled = reviews_to_labeled(&revs);
    let docs: Vec<(usize, String)> = labeled
        .lines()
        .map(|l| {
            let (label, text) = l.split_once('\t').expect("labeled format");
            ((label == "pos") as usize, text.to_owned())
        })
        .collect();
    let mut probe = SimProbe::new(machine);
    let mut fw = FrameworkModel::new();
    NaiveBayes::train_traced(&docs[..docs.len() / 5 + 1], 2, &mut probe);
    fw.warm(&mut probe);
    probe.reset_stats();
    let model = NaiveBayes::train_traced(&docs, 2, &mut probe);
    for (i, (_, text)) in docs.iter().enumerate() {
        fw.on_map_record(&mut probe, text.len());
        if i % 16 == 0 {
            model.predict_traced(text, &mut probe);
        }
    }
    probe.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cf_trains_and_recommends() {
        let r = cf_native(&RunScale::quick());
        assert!(r.detail.contains("items"));
        assert!(r.metric.value() > 0.0);
    }

    #[test]
    fn bayes_learns_sentiment() {
        let r = bayes_native(&RunScale::quick());
        let accuracy: f64 =
            r.detail.rsplit(' ').next().and_then(|s| s.parse().ok()).expect("accuracy in detail");
        assert!(accuracy > 0.7, "sentiment signal should be learnable: {accuracy}");
    }

    #[test]
    fn bayes_has_lowest_int_fp_ratio_shape() {
        // Paper Figure 4: Bayes has the suite's minimum int:fp ratio.
        let bayes = bayes_traced(&RunScale::quick(), MachineConfig::xeon_e5645());
        let ratio = bayes.counters.mix.int_to_fp_ratio();
        assert!(ratio.is_finite(), "Bayes does FP (log-space)");
        assert!(bayes.counters.mix.fp_ops > 0);
    }

    #[test]
    fn cf_traced_includes_framework() {
        let r = cf_traced(&RunScale::quick(), MachineConfig::xeon_e5645());
        assert!(r.counters.mix.other > 0);
        assert!(r.instructions() > 1000);
    }
}
