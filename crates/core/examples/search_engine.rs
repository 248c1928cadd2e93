//! The search-engine scenario end to end — the paper's motivating
//! internet-service domain (Table 4, "Search Engine" rows).
//!
//! 1. Generate a synthetic web corpus with BDGS text generation.
//! 2. Build the inverted index as a MapReduce job (the Index workload).
//! 3. Rank the synthetic web graph with PageRank.
//! 4. Serve queries from the index under increasing offered load and
//!    watch the Nutch-style front-end saturate.
//!
//! ```text
//! cargo run --release -p bigdatabench --example search_engine
//! ```

use bdb_datagen::text::TextGenerator;
use bdb_datagen::{GraphGenerator, RmatParams};
use bdb_graph::{pagerank, CsrGraph};
use bdb_serving::loadgen::run_offered_load;
use bdb_serving::search::SearchServer;
use std::time::Duration;

fn main() {
    // 1. Corpus.
    let mut gen = TextGenerator::wikipedia(2026);
    let mut docs = Vec::new();
    gen.documents(2_000, |d| docs.push(d));
    let corpus_bytes: usize = docs.iter().map(String::len).sum();
    println!("generated {} documents ({} KiB)", docs.len(), corpus_bytes / 1024);

    // 2. Index them through the search server (same structure the Index
    //    workload builds via MapReduce).
    let mut server = SearchServer::build(docs.len() as u32, 7);
    println!("inverted index: {} terms over {} documents", server.term_count(), server.doc_count());

    // 3. PageRank over a Google-web-fitted synthetic graph.
    let edges = GraphGenerator::new(RmatParams::google_web(), 99).generate(4096);
    let graph = CsrGraph::from_edges(edges.nodes, &edges.edges);
    let (ranks, iters) = pagerank::pagerank(&graph, 100);
    let mut top: Vec<(usize, f64)> = ranks.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nPageRank converged in {iters} iterations; top pages:");
    for (page, rank) in top.iter().take(5) {
        println!("  page {page:>5}  rank {rank:.5}");
    }

    // 4. Drive the front-end at the paper's offered loads.
    println!("\nNutch-style front-end under offered load (queueing simulation):");
    println!("{:>10} {:>12} {:>10} {:>10}", "offered", "achieved", "p50", "p99");
    for multiplier in [1u32, 4, 8, 16, 32] {
        let offered = 100.0 * multiplier as f64;
        let report = run_offered_load(&mut server, offered, Duration::from_secs(10), 6, 300, 11);
        println!(
            "{:>10.0} {:>12.1} {:>9.2?} {:>9.2?}{}",
            offered,
            report.achieved_rps,
            report.latency.percentile(0.5),
            report.latency.percentile(0.99),
            if report.saturated() { "  <- saturated" } else { "" }
        );
    }
}
