//! Item-based collaborative filtering with cosine similarity.
//!
//! The paper's CF workload is a recommendation algorithm over the Amazon
//! movie-review ratings. This is the classic item-item formulation
//! (Sarwar et al.): represent each item as its vector of user ratings,
//! compute cosine similarities between co-rated items, and predict a
//! user's rating of an unseen item as the similarity-weighted average of
//! their ratings of similar items.

use bdb_archsim::layout::{splitmix64, HEAP_BASE};
use bdb_archsim::{NullProbe, Probe};
use std::collections::HashMap;

/// A trained item-item CF model.
#[derive(Debug, Clone)]
pub struct ItemCf {
    /// user -> (item, rating) list.
    user_ratings: HashMap<u64, Vec<(u64, f32)>>,
    /// item -> (other item, similarity) list, sorted descending.
    similarities: HashMap<u64, Vec<(u64, f32)>>,
    /// Global mean rating (cold-start fallback).
    global_mean: f32,
}

impl ItemCf {
    /// Trains on `(user, item, rating)` triples, keeping the top
    /// `neighbors` most similar items per item.
    ///
    /// # Panics
    ///
    /// Panics if `ratings` is empty or `neighbors` is zero.
    pub fn train(ratings: &[(u64, u64, f32)], neighbors: usize) -> Self {
        Self::train_traced(ratings, neighbors, &mut NullProbe)
    }

    /// Instrumented [`ItemCf::train`]: the co-rating accumulation is a
    /// scatter into an item×item sparse map (hash traffic), the cosine
    /// normalization is FP.
    ///
    /// # Panics
    ///
    /// Panics if `ratings` is empty or `neighbors` is zero.
    pub fn train_traced<P: Probe + ?Sized>(
        ratings: &[(u64, u64, f32)],
        neighbors: usize,
        probe: &mut P,
    ) -> Self {
        assert!(!ratings.is_empty(), "need ratings");
        assert!(neighbors > 0, "need at least one neighbor");
        let pairs_base = HEAP_BASE;
        let span = ((ratings.len() as u64) * 64).clamp(1 << 16, 8 << 20);
        let mut user_ratings: HashMap<u64, Vec<(u64, f32)>> = HashMap::new();
        let mut norms: HashMap<u64, f64> = HashMap::new();
        for &(u, i, r) in ratings {
            user_ratings.entry(u).or_default().push((i, r));
            *norms.entry(i).or_insert(0.0) += (r as f64) * (r as f64);
            probe.fp_ops(2);
            probe.load(pairs_base + splitmix64(u) % span, 16);
        }
        let global_mean =
            ratings.iter().map(|&(_, _, r)| r as f64).sum::<f64>() as f32 / ratings.len() as f32;

        // Co-rating dot products: for each user, every pair of their
        // rated items contributes r_a * r_b. Users, and below the item
        // pairs, go in key order, so the float sums, the probe's access
        // order and the neighbour lists repeat exactly across runs.
        let mut users: Vec<_> = user_ratings.iter().collect();
        users.sort_unstable_by_key(|&(&u, _)| u);
        let mut dots: HashMap<(u64, u64), f64> = HashMap::new();
        for (_, items) in users {
            for (a_idx, &(ia, ra)) in items.iter().enumerate() {
                for &(ib, rb) in &items[a_idx + 1..] {
                    let key = if ia < ib { (ia, ib) } else { (ib, ia) };
                    *dots.entry(key).or_insert(0.0) += (ra as f64) * (rb as f64);
                    probe.fp_ops(2);
                    probe.store(
                        pairs_base + (16 << 20) + splitmix64(key.0 ^ (key.1 << 20)) % span,
                        16,
                    );
                    probe.int_ops(6);
                }
            }
        }
        // Normalize to cosine and keep top-k per item.
        let mut dots: Vec<_> = dots.into_iter().collect();
        dots.sort_unstable_by_key(|&(pair, _)| pair);
        let mut similarities: HashMap<u64, Vec<(u64, f32)>> = HashMap::new();
        for ((a, b), dot) in dots {
            let sim = dot / (norms[&a].sqrt() * norms[&b].sqrt());
            probe.fp_ops(4);
            let sim = sim as f32;
            similarities.entry(a).or_default().push((b, sim));
            similarities.entry(b).or_default().push((a, sim));
        }
        for list in similarities.values_mut() {
            list.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            list.truncate(neighbors);
        }
        Self { user_ratings, similarities, global_mean }
    }

    /// Number of items with at least one similarity edge.
    pub fn item_count(&self) -> usize {
        self.similarities.len()
    }

    /// The global mean rating.
    pub fn global_mean(&self) -> f32 {
        self.global_mean
    }

    /// Predicts `user`'s rating of `item`.
    pub fn predict(&self, user: u64, item: u64) -> f32 {
        self.predict_traced(user, item, &mut NullProbe)
    }

    /// Instrumented [`ItemCf::predict`]: walks the user's rated items
    /// against the target item's neighbor list.
    pub fn predict_traced<P: Probe + ?Sized>(&self, user: u64, item: u64, probe: &mut P) -> f32 {
        let Some(rated) = self.user_ratings.get(&user) else {
            return self.global_mean;
        };
        let Some(neighbors) = self.similarities.get(&item) else {
            return self.global_mean;
        };
        let sims: HashMap<u64, f32> = neighbors.iter().copied().collect();
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        let span = ((self.user_ratings.len() as u64 + 1) * 512).clamp(1 << 16, 8 << 20);
        for &(rated_item, rating) in rated {
            probe.load(HEAP_BASE + (64 << 20) + splitmix64(rated_item) % span, 8);
            probe.int_ops(4);
            if let Some(&sim) = sims.get(&rated_item) {
                if sim > 0.0 {
                    num += sim as f64 * rating as f64;
                    den += sim as f64;
                    probe.fp_ops(3);
                }
            }
        }
        if den == 0.0 {
            self.global_mean
        } else {
            (num / den) as f32
        }
    }

    /// Top-`n` recommendations for `user` among items they have not
    /// rated, ranked by predicted rating.
    pub fn recommend(&self, user: u64, n: usize) -> Vec<(u64, f32)> {
        let rated: std::collections::HashSet<u64> = self
            .user_ratings
            .get(&user)
            .map(|v| v.iter().map(|&(i, _)| i).collect())
            .unwrap_or_default();
        let mut candidates: Vec<(u64, f32)> = self
            .similarities
            .keys()
            .filter(|i| !rated.contains(i))
            .map(|&i| (i, self.predict(user, i)))
            .collect();
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates.truncate(n);
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Users 1-2 love items 10/11 (and hate 20); users 3-4 the reverse.
    fn ratings() -> Vec<(u64, u64, f32)> {
        vec![
            (1, 10, 5.0),
            (1, 11, 5.0),
            (1, 20, 1.0),
            (2, 10, 5.0),
            (2, 11, 4.0),
            (3, 20, 5.0),
            (3, 21, 5.0),
            (3, 10, 1.0),
            (4, 20, 4.0),
            (4, 21, 5.0),
        ]
    }

    #[test]
    fn predicts_within_scale() {
        let model = ItemCf::train(&ratings(), 10);
        let p = model.predict(2, 20);
        assert!((1.0..=5.0).contains(&p));
    }

    #[test]
    fn similar_item_prediction_tracks_taste() {
        let model = ItemCf::train(&ratings(), 10);
        // User 2 loves 10 & 11; item 11's closest neighbour is 10.
        let p_like = model.predict(2, 11);
        assert!(p_like > 3.5, "predicted {p_like}");
        // User 4 (loves 20/21) should predict high for 21's neighbour 20.
        let p4 = model.predict(4, 20);
        assert!(p4 > 3.5);
    }

    #[test]
    fn cold_start_falls_back_to_global_mean() {
        let model = ItemCf::train(&ratings(), 10);
        assert_eq!(model.predict(999, 10), model.global_mean());
        assert_eq!(model.predict(1, 999), model.global_mean());
    }

    #[test]
    fn recommend_excludes_rated_items() {
        let model = ItemCf::train(&ratings(), 10);
        let recs = model.recommend(1, 5);
        let rec_items: Vec<u64> = recs.iter().map(|&(i, _)| i).collect();
        assert!(!rec_items.contains(&10));
        assert!(!rec_items.contains(&11));
        assert!(!rec_items.contains(&20));
        assert!(rec_items.contains(&21), "21 is the only unrated item");
    }

    #[test]
    fn neighbor_truncation_respected() {
        let model = ItemCf::train(&ratings(), 1);
        for list in model.similarities.values() {
            assert!(list.len() <= 1);
        }
    }

    #[test]
    fn traced_counts_work() {
        use bdb_archsim::CountingProbe;
        let mut probe = CountingProbe::default();
        let model = ItemCf::train_traced(&ratings(), 10, &mut probe);
        assert!(probe.mix().fp_ops > 0);
        assert!(probe.mix().stores > 0, "co-rating scatter recorded");
        let before = probe.mix().loads;
        model.predict_traced(1, 21, &mut probe);
        assert!(probe.mix().loads > before);
    }

    /// Two trainings on one input give the same neighbour lists and the
    /// same simulated trace, whatever order the hash maps iterate in.
    #[test]
    fn traced_training_is_deterministic() {
        use bdb_archsim::{MachineConfig, SimProbe};
        // Integer ratings over few items: many users co-rate the same
        // pairs, and many similarities tie at the truncation boundary.
        let ratings: Vec<(u64, u64, f32)> = (0..400u64)
            .map(|i| {
                let r = 1 + splitmix64(i ^ 0x5EED) % 5;
                (splitmix64(i) % 60, splitmix64(i ^ 0xABCD) % 25, r as f32)
            })
            .collect();
        let train = || {
            let mut probe = SimProbe::new(MachineConfig::xeon_e5645());
            let model = ItemCf::train_traced(&ratings, 3, &mut probe);
            let mut sims: Vec<_> = model.similarities.into_iter().collect();
            sims.sort_by_key(|(item, _)| *item);
            (sims, format!("{:?}", probe.finish()))
        };
        let first = train();
        for _ in 0..4 {
            assert!(train() == first, "a retraining differed");
        }
    }

    #[test]
    #[should_panic(expected = "need ratings")]
    fn empty_ratings_panic() {
        ItemCf::train(&[], 5);
    }
}
