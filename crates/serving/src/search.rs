//! The search-engine front-end (Nutch Server stand-in).
//!
//! Nutch serves queries from an inverted index built over crawled
//! pages. The stand-in builds an inverted index over synthetic
//! documents with a Zipfian term distribution, and serves ranked
//! conjunctive queries: postings lookup, intersection, tf scoring,
//! top-k selection — the per-request work a search front-end does.

use crate::server::Server;
use crate::trace::ServingTraceModel;
use bdb_archsim::Probe;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A search query of 1–3 term ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRequest {
    /// Terms to AND together.
    pub terms: Vec<u32>,
    /// Results requested.
    pub top_k: usize,
}

/// The inverted-index server.
#[derive(Debug)]
pub struct SearchServer {
    /// term -> postings (doc id, term frequency), sorted by doc id.
    index: HashMap<u32, Vec<(u32, u16)>>,
    vocab_size: u32,
    docs: u32,
    trace: Option<ServingTraceModel>,
    queries_served: u64,
}

impl SearchServer {
    /// Builds an index over `docs` synthetic documents (Zipfian terms,
    /// ~120 terms per document, 5000-term vocabulary scaled with corpus
    /// size).
    pub fn build(docs: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab_size = (docs * 8).clamp(512, 200_000);
        let mut index: HashMap<u32, Vec<(u32, u16)>> = HashMap::new();
        for doc in 0..docs {
            let terms = rng.gen_range(60..180);
            let mut tf: HashMap<u32, u16> = HashMap::new();
            for _ in 0..terms {
                let term = zipf_term(&mut rng, vocab_size);
                *tf.entry(term).or_insert(0) += 1;
            }
            for (term, freq) in tf {
                index.entry(term).or_default().push((doc, freq));
            }
        }
        for postings in index.values_mut() {
            postings.sort_unstable_by_key(|&(d, _)| d);
        }
        Self { index, vocab_size, docs, trace: None, queries_served: 0 }
    }

    /// Enables request-path instrumentation.
    pub fn enable_tracing(&mut self) {
        self.trace = Some(ServingTraceModel::new());
    }

    /// Pre-touches the modeled server code (ramp-up); no-op without
    /// tracing.
    pub fn warm_trace<P: Probe + ?Sized>(&mut self, probe: &mut P) {
        if let Some(t) = self.trace.as_mut() {
            t.warm(probe);
        }
    }

    /// The modeled service-time distribution for deterministic
    /// (host-independent) runs: moderate body spread, occasional long
    /// postings-intersection outliers, index lookups roughly half the
    /// request.
    pub const SERVICE_MODEL: crate::model::ServiceTimeModel = crate::model::ServiceTimeModel {
        base_us: 2500.0,
        sigma: 0.35,
        tail_weight: 0.02,
        tail_mult: 6.0,
        store_share: (0.35, 0.55),
    };

    /// Number of indexed documents.
    pub fn doc_count(&self) -> u32 {
        self.docs
    }

    /// Number of distinct indexed terms.
    pub fn term_count(&self) -> usize {
        self.index.len()
    }

    /// Queries served so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Executes a query, returning ranked `(doc, score)` hits.
    pub fn search<P: Probe + ?Sized>(
        &mut self,
        request: &SearchRequest,
        probe: &mut P,
    ) -> Vec<(u32, u32)> {
        self.queries_served += 1;
        if let Some(t) = self.trace.as_mut() {
            t.on_request(probe, self.queries_served);
        }
        // Gather postings, shortest first for cheap intersection.
        let mut lists: Vec<&[(u32, u16)]> = Vec::with_capacity(request.terms.len());
        for &term in &request.terms {
            let postings = self.index.get(&term).map(Vec::as_slice).unwrap_or(&[]);
            if let Some(t) = self.trace.as_mut() {
                t.data_access(probe, term as u64, (postings.len() * 6).min(65_535) as u32, false);
            }
            probe.int_ops(4);
            lists.push(postings);
        }
        if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
            if let Some(t) = self.trace.as_mut() {
                t.render(probe, 256);
            }
            return Vec::new();
        }
        lists.sort_by_key(|l| l.len());
        // Intersect by galloping through the shortest list.
        let mut hits: Vec<(u32, u32)> = Vec::new();
        'docs: for &(doc, tf0) in lists[0] {
            let mut score = tf0 as u32;
            for other in &lists[1..] {
                probe.int_ops(8);
                probe.branch(doc % 2 == 0);
                match other.binary_search_by_key(&doc, |&(d, _)| d) {
                    Ok(pos) => score += other[pos].1 as u32,
                    Err(_) => continue 'docs,
                }
            }
            hits.push((doc, score));
        }
        // Rank.
        hits.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(request.top_k);
        if let Some(t) = self.trace.as_mut() {
            t.render(probe, 64 + hits.len() * 64);
        }
        hits
    }
}

/// Zipf-ish term sampler (head terms common, long tail).
fn zipf_term(rng: &mut StdRng, vocab: u32) -> u32 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    // Inverse-CDF power law with exponent ~1.
    ((vocab as f64).powf(u) as u32).min(vocab - 1)
}

impl Server for SearchServer {
    type Request = SearchRequest;

    fn name(&self) -> &str {
        "Nutch Server"
    }

    fn sample_request(&self, rng: &mut StdRng) -> SearchRequest {
        let n = rng.gen_range(1..=3);
        let terms = (0..n).map(|_| zipf_term(rng, self.vocab_size)).collect();
        SearchRequest { terms, top_k: 10 }
    }

    fn handle<P: Probe + ?Sized>(&mut self, request: &SearchRequest, probe: &mut P) -> usize {
        self.search(request, probe).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_archsim::NullProbe;

    #[test]
    fn index_covers_vocabulary_head() {
        let s = SearchServer::build(200, 1);
        assert_eq!(s.doc_count(), 200);
        assert!(s.term_count() > 100);
    }

    #[test]
    fn single_common_term_finds_many_docs() {
        let mut s = SearchServer::build(500, 2);
        // Term 1 is near the head of the Zipf distribution.
        let hits = s.search(&SearchRequest { terms: vec![1], top_k: 1000 }, &mut NullProbe);
        assert!(hits.len() > 50, "common term hits {} docs", hits.len());
    }

    #[test]
    fn results_are_ranked_descending() {
        let mut s = SearchServer::build(500, 3);
        let hits = s.search(&SearchRequest { terms: vec![2], top_k: 50 }, &mut NullProbe);
        assert!(hits.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn intersection_is_subset() {
        let mut s = SearchServer::build(500, 4);
        let a = s.search(&SearchRequest { terms: vec![1], top_k: 10_000 }, &mut NullProbe);
        let ab = s.search(&SearchRequest { terms: vec![1, 2], top_k: 10_000 }, &mut NullProbe);
        let a_docs: std::collections::HashSet<u32> = a.iter().map(|&(d, _)| d).collect();
        assert!(ab.iter().all(|&(d, _)| a_docs.contains(&d)));
        assert!(ab.len() <= a.len());
    }

    #[test]
    fn missing_term_returns_empty() {
        let mut s = SearchServer::build(50, 5);
        let hits = s.search(&SearchRequest { terms: vec![999_999], top_k: 10 }, &mut NullProbe);
        assert!(hits.is_empty());
    }

    #[test]
    fn top_k_truncates() {
        let mut s = SearchServer::build(500, 6);
        let hits = s.search(&SearchRequest { terms: vec![0], top_k: 5 }, &mut NullProbe);
        assert!(hits.len() <= 5);
    }

    #[test]
    fn served_as_a_server() {
        let mut s = SearchServer::build(100, 7);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let req = s.sample_request(&mut rng);
            s.handle(&req, &mut NullProbe);
        }
        assert_eq!(s.queries_served(), 20);
    }

    #[test]
    fn traced_search_records_events() {
        use bdb_archsim::CountingProbe;
        let mut s = SearchServer::build(100, 9);
        s.enable_tracing();
        let mut probe = CountingProbe::default();
        s.search(&SearchRequest { terms: vec![1, 2], top_k: 10 }, &mut probe);
        assert!(probe.mix().other > 0, "server stack recorded");
        assert!(probe.mix().loads > 0);
    }
}
