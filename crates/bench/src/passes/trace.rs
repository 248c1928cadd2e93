//! `--trace DIR` / `--profile DIR`: an instrumented run of ten
//! representative workloads, exported as Chrome traces, metrics
//! summaries, Prometheus scrapes and profiles.

use super::{gate, io_err, section, Args, Artifact, Failure};
use bdb_telemetry::TraceSession;
use bigdatabench::{MachineConfig, Suite};
use std::path::Path;

/// Pushes one traced workload's artifacts: its Chrome trace and metrics
/// summary into `dir`, and with `profile_dir` its profile (`.folded`,
/// `.critpath.txt`, `.util.txt`) plus a busy-workers counter track in
/// the trace. Returns the profile for callers that gate on it.
fn export_session(
    out: &mut Vec<Artifact>,
    session: &TraceSession,
    detail: &str,
    dir: &Path,
    profile_dir: Option<&Path>,
) -> Option<bdb_profile::Profile> {
    let stem = bdb_telemetry::file_stem(&session.name);
    let profile = profile_dir.map(|pdir| {
        let profile = bdb_profile::Profile::from_events(&session.recorder.events());
        out.push(Artifact::new(pdir.join(format!("{stem}.folded")), profile.folded()));
        out.push(Artifact::new(pdir.join(format!("{stem}.critpath.txt")), profile.critpath_text()));
        out.push(Artifact::new(pdir.join(format!("{stem}.util.txt")), profile.util_text()));
        profile
    });
    let tracks: Vec<bdb_telemetry::CounterTrack> =
        profile.iter().map(bdb_profile::Profile::concurrency_track).collect();
    out.push(Artifact::new(
        dir.join(format!("{stem}.trace.json")),
        session.trace_json_with_tracks(&tracks),
    ));
    out.push(Artifact::new(dir.join(format!("{stem}.metrics.txt")), session.metrics_summary()));
    println!("  {:<20} {detail}", session.name);
    if let Some(p) = &profile {
        println!("  {:<20} {}", "", p.critical_summary().render());
    }
    profile
}

/// Runs an instrumented pass of representative workloads, pushing a
/// Chrome trace-event JSON (loadable at <https://ui.perfetto.dev>) and a
/// plain-text metrics summary per workload into `--trace DIR`. With
/// `--profile DIR`, each workload also gets profiling artifacts (see
/// [`export_session`]); traces fall back to that directory when
/// `--trace` was not given.
pub(super) fn run(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    use bdb_archsim::SimProbe;
    use bdb_graph::{label_propagation_instrumented, pagerank_instrumented, PageRankConfig};
    use bdb_kvstore::{Store, StoreConfig};
    use bdb_mapreduce::jobs::{Sort, WordCount};
    use bdb_mapreduce::Engine;
    use bdb_mlkit::KMeans;
    use bdb_serving::auction::AuctionServer;
    use bdb_serving::loadgen::{run_closed_loop_sampled, PrometheusSampler};
    use bdb_serving::search::SearchServer;
    use bdb_serving::social::SocialServer;
    use bdb_sql::expr::{col, lit};
    use bdb_sql::kernel::{hash_join_instrumented, select_instrumented};
    use bdb_sql::ColumnarTable;

    section("Telemetry traces — Chrome trace JSON + metrics per workload");
    let profile_dir = args.path("--profile");
    let dir =
        args.path("--trace").or(profile_dir).expect("the trace row runs only with a directory");
    let f = args.fraction().max(0.05);
    let export = |out: &mut Vec<Artifact>, session: &TraceSession, detail: &str| {
        export_session(out, session, detail, dir, profile_dir)
    };

    // MapReduce micro benchmarks: WordCount and Sort.
    let text_bytes = ((1_u64 << 20) as f64 * f) as usize;
    let mut text = bdb_datagen::text::TextGenerator::wikipedia(42);
    let lines: Vec<String> = text.corpus(text_bytes).lines().map(str::to_owned).collect();

    // Traced (simulated-counter) runs: the spans carry `counter.*`
    // deltas, which the Chrome exporter renders as counter tracks.
    let machine = MachineConfig::xeon_e5645();
    let session = TraceSession::enabled("WordCount");
    let engine = Engine::builder()
        .telemetry(session.recorder.clone())
        .metrics(session.metrics.clone())
        .build();
    let mut probe = SimProbe::new(machine.clone());
    let (_, stats) = engine.run_traced(&WordCount, &lines, &mut probe);
    if let Some(profile) = export(out, &session, &stats.phase_breakdown()) {
        // Profiling contract, enforced in-binary so CI catches span
        // coverage regressions: the WordCount critical path must cover
        // ≥90% of wall-clock, and the blame table must partition it.
        let s = profile.critical_summary();
        if s.coverage < 0.90 {
            return gate(format!(
                "profile FAIL: WordCount critical path covers only {:.1}% of wall \
                 (need >= 90%): span coverage regressed",
                s.coverage * 100.0
            ));
        }
        let blamed: u64 = profile.critical.blame.iter().map(|(_, us)| *us).sum();
        let drift = blamed.abs_diff(profile.critical.path_us);
        if drift * 100 > profile.critical.path_us {
            return gate(format!(
                "profile FAIL: WordCount blame table sums to {blamed} us but the critical \
                 path is {} us",
                profile.critical.path_us
            ));
        }
    }

    let session = TraceSession::enabled("Sort");
    let engine = Engine::builder()
        .map_buffer_bytes(64 << 10) // spill so the trace shows the disk path
        .telemetry(session.recorder.clone())
        .metrics(session.metrics.clone())
        .build();
    let mut probe = SimProbe::new(machine);
    let (_, stats) = engine.run_traced(&Sort, &lines, &mut probe);
    export(out, &session, &stats.phase_breakdown());

    // Graph analytics: PageRank and Connected Components.
    let nodes = (((4_000_f64) * f) as u32).max(256);
    let g =
        bdb_datagen::GraphGenerator::new(bdb_datagen::RmatParams::google_web(), 11).generate(nodes);
    let graph = bdb_graph::CsrGraph::from_edges(g.nodes, &g.edges);

    let session = TraceSession::enabled("PageRank");
    let (_, iters) = pagerank_instrumented(&graph, PageRankConfig::default(), &session.recorder);
    session.metrics.counter("graph.pagerank_iterations").add(u64::from(iters));
    export(out, &session, &format!("{} nodes | {iters} iterations", graph.nodes()));

    let session = TraceSession::enabled("ConnectedComponents");
    let (_, iters) = label_propagation_instrumented(&graph, &session.recorder);
    session.metrics.counter("graph.cc_iterations").add(u64::from(iters));
    export(out, &session, &format!("{} nodes | {iters} rounds", graph.nodes()));

    // Machine learning: K-means over synthetic blobs.
    let points: Vec<Vec<f64>> = (0..((20_000.0 * f) as usize).max(1_000))
        .map(|i| {
            let blob = (i % 8) as f64;
            let jitter = ((i as u64).wrapping_mul(2_654_435_761) % 1_000) as f64 / 1_000.0;
            vec![blob * 10.0 + jitter, blob * -5.0 + jitter * 0.5, jitter]
        })
        .collect();
    let session = TraceSession::enabled("KMeans");
    let model = KMeans::new(8).fit_instrumented(&points, 7, &session.recorder);
    session.metrics.counter("mlkit.kmeans_iterations").add(u64::from(model.iterations));
    export(out, &session, &format!("{} points | {} iterations", points.len(), model.iterations));

    // Online services: the Nutch-style search tier plus the Olio
    // social and RuBiS auction tiers, each closed loop with periodic
    // Prometheus scrapes written next to the trace.
    fn serve<S: bdb_serving::Server>(
        name: &str,
        mut server: S,
        requests: usize,
    ) -> (TraceSession, f64, String) {
        let session = TraceSession::enabled(name);
        let mut sampler = PrometheusSampler::every((requests / 4).max(1));
        let report = run_closed_loop_sampled(
            &mut server,
            requests,
            7,
            &session.recorder,
            &session.metrics,
            &mut sampler,
        );
        let scrapes = sampler.finish(&session.metrics);
        let body =
            scrapes.iter().enumerate().map(|(i, s)| format!("# scrape {i}\n{s}\n")).collect();
        (session, report.achieved_rps, body)
    }
    let requests = ((1_000.0 * f) as usize).max(200);
    for (session, rps, scrapes) in [
        serve("NutchServer", SearchServer::build(((400.0 * f) as u32).max(100), 42), requests),
        serve("OlioServer", SocialServer::build(200, 8, 42), requests),
        serve("RubisServer", AuctionServer::build(200, 10, 100, 42), requests),
    ] {
        export(out, &session, &format!("{requests} requests | {rps:.0} req/s"));
        let path = dir.join(format!("{}.prom.txt", session.name.to_lowercase()));
        out.push(Artifact::new(path, scrapes));
    }

    // Cloud OLTP: LSM store write + read mix with flushes/compactions,
    // in scratch space under the pass's own directory.
    let session = TraceSession::enabled("CloudOLTP");
    let kv_dir = dir.join("oltp-scratch");
    let _ = std::fs::remove_dir_all(&kv_dir);
    let config =
        StoreConfig { memtable_flush_bytes: 64 << 10, max_tables: 4, ..Default::default() };
    let mut store = Store::open_with(&kv_dir, config)
        .map_err(io_err(format!("opening the CloudOLTP store in {}", kv_dir.display())))?;
    store.set_telemetry(session.recorder.clone());
    store.set_metrics(&session.metrics);
    let ops = ((20_000.0 * f) as u32).max(2_000);
    {
        // Top-level phase spans so the profiler attributes the run to
        // load vs read instead of leaving idle gaps.
        let _load = session.recorder.span("kvstore", "oltp-load");
        for i in 0..ops {
            let key = format!("row{i:08}").into_bytes();
            store.put(key, vec![b'v'; 100]).map_err(io_err("CloudOLTP put"))?;
        }
    }
    {
        let _read = session.recorder.span("kvstore", "oltp-read");
        for i in 0..ops {
            // Half present, half absent — exercises the bloom filters.
            let probe_key = format!("row{:08}", u64::from(i) * 2).into_bytes();
            store.get(&probe_key).map_err(io_err("CloudOLTP get"))?;
        }
    }
    let s = store.stats();
    export(
        out,
        &session,
        &format!(
            "{ops} puts + {ops} gets | {} flushes, {} compactions, {} bloom skips",
            s.flushes, s.compactions, s.bloom_skips
        ),
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&kv_dir);

    // Relational query: select + hash join over e-commerce tables.
    let session = TraceSession::enabled("JoinQuery");
    let orders_n = ((8_000.0 * f) as u64).max(500);
    let suite = Suite::with_fraction(args.fraction());
    let (orders, items) = bigdatabench::workloads::query::build_tables(&suite.scale(1), orders_n);
    let orders_c = ColumnarTable::from_table(&orders);
    let items_c = ColumnarTable::from_table(&items);
    let query_span = session.recorder.span("sql", "query-session");
    let sel = select_instrumented(
        &orders_c,
        &col("BUYER_ID").gt(lit(0)),
        &["ORDER_ID"],
        &session.recorder,
    );
    let joined =
        hash_join_instrumented(&orders_c, "ORDER_ID", &items_c, "ORDER_ID", &session.recorder);
    drop(query_span);
    match (sel, joined) {
        (Ok(sel), Ok(joined)) => {
            session.metrics.counter("sql.select_rows").add(sel.len() as u64);
            session.metrics.counter("sql.joined_rows").add(joined.len() as u64);
            let detail = format!("{} orders | {} joined rows", orders.len(), joined.len());
            export(out, &session, &detail);
            Ok(())
        }
        (Err(e), _) | (_, Err(e)) => gate(format!("trace FAIL: JoinQuery failed: {e}")),
    }
}
