//! Lloyd's K-means.

use bdb_archsim::layout::HEAP_BASE;
use bdb_archsim::{NullProbe, Probe};
use bdb_telemetry::{span, SpanRecorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// K-means configuration and entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Iteration cap.
    pub max_iterations: u32,
    /// Stop when total centroid movement falls below this.
    pub tolerance: f64,
}

/// A fitted model.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansModel {
    /// Final centroids, `k × dim`.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Iterations actually run.
    pub iterations: u32,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
}

impl KMeans {
    /// K-means with `k` clusters and default limits.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self { k, max_iterations: 50, tolerance: 1e-6 }
    }

    /// Fits on `points` (all the same dimension), seeding centroid
    /// choice with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or dimensions are inconsistent.
    pub fn fit(&self, points: &[Vec<f64>], seed: u64) -> KMeansModel {
        self.fit_traced(points, seed, &mut NullProbe)
    }

    /// [`KMeans::fit`] with per-iteration spans on `telemetry` (one
    /// `kmeans-iteration` span per Lloyd round, carrying the round's
    /// total centroid movement).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or dimensions are inconsistent.
    pub fn fit_instrumented(
        &self,
        points: &[Vec<f64>],
        seed: u64,
        telemetry: &SpanRecorder,
    ) -> KMeansModel {
        self.fit_impl(points, seed, &mut NullProbe, telemetry)
    }

    /// Instrumented [`KMeans::fit`]: points stream sequentially, the
    /// centroid block stays resident — the access pattern whose
    /// cache behaviour shifts with data volume in the paper's Figure 2
    /// (K-means had the largest small-vs-large L3 MPKI gap).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or dimensions are inconsistent.
    pub fn fit_traced<P: Probe + ?Sized>(
        &self,
        points: &[Vec<f64>],
        seed: u64,
        probe: &mut P,
    ) -> KMeansModel {
        self.fit_impl(points, seed, probe, &SpanRecorder::disabled())
    }

    fn fit_impl<P: Probe + ?Sized>(
        &self,
        points: &[Vec<f64>],
        seed: u64,
        probe: &mut P,
        telemetry: &SpanRecorder,
    ) -> KMeansModel {
        assert!(!points.is_empty(), "need at least one point");
        let _run_span = span!(telemetry, "mlkit", "kmeans-fit", points = points.len());
        let dim = points[0].len();
        assert!(points.iter().all(|p| p.len() == dim), "inconsistent dimensions");
        let k = self.k.min(points.len());
        let mut rng = StdRng::seed_from_u64(seed);

        // Synthetic layout: points then centroids.
        let points_base = HEAP_BASE;
        let point_bytes = (dim * 8) as u64;
        let centroids_base = points_base + points.len() as u64 * point_bytes + 4096;

        // k-means++-lite init: distinct random points.
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut chosen = std::collections::HashSet::new();
        while centroids.len() < k {
            let idx = rng.gen_range(0..points.len());
            if chosen.insert(idx) || chosen.len() >= points.len() {
                centroids.push(points[idx].clone());
            }
        }

        let mut assignments = vec![0usize; points.len()];
        let mut iterations = 0;
        let mut inertia = 0.0;
        for _ in 0..self.max_iterations {
            iterations += 1;
            if probe.is_active() {
                probe.phase(&format!("iter-{iterations}"));
            }
            let mut iter_span = span!(telemetry, "mlkit", "kmeans-iteration", iter = iterations);
            inertia = 0.0;
            // Assign.
            for (i, p) in points.iter().enumerate() {
                probe.load(points_base + i as u64 * point_bytes, point_bytes as u32);
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    probe.load(centroids_base + (c * dim * 8) as u64, (dim * 8) as u32);
                    let d = sq_dist(p, centroid);
                    probe.fp_ops((3 * dim) as u64);
                    probe.branch(d < best_d);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                assignments[i] = best;
                inertia += best_d;
            }
            // Update.
            let mut sums = vec![vec![0.0f64; dim]; k];
            let mut counts = vec![0usize; k];
            for (i, p) in points.iter().enumerate() {
                let c = assignments[i];
                counts[c] += 1;
                for (s, x) in sums[c].iter_mut().zip(p) {
                    *s += x;
                }
                probe.fp_ops(dim as u64);
            }
            let mut movement = 0.0;
            for c in 0..k {
                if counts[c] == 0 {
                    continue; // keep empty centroid in place
                }
                let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
                movement += sq_dist(&new, &centroids[c]).sqrt();
                probe.fp_ops((2 * dim) as u64);
                probe.store(centroids_base + (c * dim * 8) as u64, (dim * 8) as u32);
                centroids[c] = new;
            }
            iter_span.arg("movement", movement);
            if movement < self.tolerance {
                break;
            }
        }
        KMeansModel { centroids, assignments, iterations, inertia }
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(vec![0.0 + i as f64 * 0.01, 1.0]);
            pts.push(vec![50.0 + i as f64 * 0.01, -1.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let model = KMeans::new(2).fit(&two_blobs(), 7);
        // Points alternate blob A / blob B; assignments must alternate too.
        let a = model.assignments[0];
        let b = model.assignments[1];
        assert_ne!(a, b);
        for (i, &c) in model.assignments.iter().enumerate() {
            assert_eq!(c, if i % 2 == 0 { a } else { b });
        }
        assert!(model.inertia < 1.0, "tight blobs: inertia {}", model.inertia);
    }

    #[test]
    fn centroids_near_blob_means() {
        let model = KMeans::new(2).fit(&two_blobs(), 3);
        let mut xs: Vec<f64> = model.centroids.iter().map(|c| c[0]).collect();
        xs.sort_by(f64::total_cmp);
        assert!((xs[0] - 0.095).abs() < 0.5);
        assert!((xs[1] - 50.095).abs() < 0.5);
    }

    #[test]
    fn k_larger_than_points_is_clamped() {
        let pts = vec![vec![0.0], vec![1.0]];
        let model = KMeans::new(10).fit(&pts, 1);
        assert!(model.centroids.len() <= 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = KMeans::new(3).fit(&two_blobs(), 11);
        let b = KMeans::new(3).fit(&two_blobs(), 11);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn traced_matches_native_and_counts_fp() {
        use bdb_archsim::CountingProbe;
        let mut probe = CountingProbe::default();
        let traced = KMeans::new(2).fit_traced(&two_blobs(), 7, &mut probe);
        let native = KMeans::new(2).fit(&two_blobs(), 7);
        assert_eq!(traced.assignments, native.assignments);
        assert!(probe.mix().fp_ops > 1000, "distance math is FP");
        assert!(probe.mix().loads > 0);
    }

    #[test]
    fn instrumented_emits_one_span_per_iteration() {
        let telemetry = SpanRecorder::enabled();
        let model = KMeans::new(2).fit_instrumented(&two_blobs(), 7, &telemetry);
        let native = KMeans::new(2).fit(&two_blobs(), 7);
        assert_eq!(model.assignments, native.assignments);
        let spans = telemetry.events().iter().filter(|e| e.name == "kmeans-iteration").count();
        assert_eq!(spans as u32, model.iterations);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_input_panics() {
        KMeans::new(2).fit(&[], 0);
    }

    #[test]
    #[should_panic(expected = "inconsistent dimensions")]
    fn ragged_input_panics() {
        KMeans::new(1).fit(&[vec![1.0], vec![1.0, 2.0]], 0);
    }
}
