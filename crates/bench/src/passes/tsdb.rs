//! `--tsdb DIR`: a faulty cluster and a serving overload scraped into
//! the embedded time-series store, which must answer for both runs.

use super::slo::ServingLoad;
use super::{gate, io_err, section, Args, Artifact, Failure};
use bdb_cluster::{Cluster, NODES};
use bdb_obs::slo::{THRESHOLD, WINDOW};
use bdb_obs::{derive_trace_id, phase_salt};
use bdb_serving::queue::RequestOutcome;
use bdb_telemetry::MetricsRegistry;
use bdb_tsdb::{
    histogram_quantile, reconstruct_writes, render_node_dashboard, render_timeline,
    replay_burn_rules, select, Scraper, TimelineEvent, Tsdb,
};
use bigdatabench::WorkloadId;
use std::time::Duration;

/// Seeds the cluster half's fault plan and write trace ids.
const TSDB_SEED: u64 = 42;
/// Traced client writes in the cluster half.
const WRITES: u64 = 48;
const STEP_US: u64 = 500;
const SCRAPE_US: u64 = 500_000;

/// Embedded time-series pass: the cluster and the serving tier run
/// under scrape, every sample lands in the `bdb-tsdb` store, and the
/// stored series must reproduce what the live engines saw.
///
/// * **Cluster half** — a replicated store takes traced client writes
///   (`put_traced`) through a seeded fault schedule (a lost
///   replication ship, a mid-run primary kill, a later rejoin). Every
///   node's metrics registry is scraped each virtual tick, so
///   `cluster.replication_lag_bytes` and `cluster.quorum_ack_us`
///   become stored series. The flat span stream is rebuilt into
///   per-write chains (route → WAL append → ship → quorum ack) and
///   rendered with the membership events as `timeline.txt`.
/// * **Serving half** — the Nutch search tier runs a steady phase and
///   a shaped overload through a live [`bdb_obs::ObsPipeline`] while a
///   parallel metrics registry replays the same terminal events as
///   cumulative counters plus a latency histogram, scraped on every
///   window boundary. The stored series then answer for the live run:
///   `histogram_quantile` must land within one log bucket of the live
///   whole-run p99, and replaying the burn-rate rules over the stored
///   counters must fire exactly the live alerts.
///
/// Writes `DIR/tsdb_snapshot.bin` (byte-deterministic for a seed —
/// the snapshot of a reloaded snapshot is gated to be identical),
/// `node-<n>.dash.txt` + `serving.dash.txt` sparkline dashboards, and
/// `timeline.txt`. Fails on any gate.
pub(super) fn run(args: &Args, out: &mut Vec<Artifact>) -> Result<(), Failure> {
    section("TSDB — time-series store + cluster-wide tracing");
    let dir = args.path("--tsdb").expect("the tsdb row runs only with a directory");

    let mut db = Tsdb::new();

    // --- Cluster half: traced writes under faults, scraped per tick.
    let scratch = dir.join("cluster-scratch");
    let _ = std::fs::remove_dir_all(&scratch);
    let plan = bdb_faults::FaultPlan::builder(TSDB_SEED)
        .io_error_nth(bdb_cluster::sites::SHIP_WRITE, 2)
        .build();
    let mut cluster = Cluster::open(&scratch, bdb_kvstore::StoreConfig::default(), plan)
        .map_err(io_err("opening cluster"))?;
    let mut scraper = Scraper::new();
    let node_names: Vec<String> = (0..NODES).map(|n| n.to_string()).collect();
    for (n, name) in node_names.iter().enumerate() {
        scraper.add_target(&[("workload", "CloudOLTP"), ("node", name)], cluster.node_metrics(n));
    }
    let salt = phase_salt("cluster-write");
    let mut t_us = 0u64;
    for i in 0..WRITES {
        t_us += STEP_US;
        cluster.advance(Duration::from_micros(t_us));
        // Mid-run, the primary of the shard being written dies: the
        // write itself forces the failover and a retried span chain.
        let key = format!("row{:06}", i % 16).into_bytes();
        if i == WRITES / 3 {
            cluster.kill_node(cluster.primary_of_shard(cluster.shard_of(&key)));
        }
        if i == 2 * WRITES / 3 {
            for n in 0..NODES {
                if !cluster.alive(n) {
                    cluster.rejoin_node(n).map_err(io_err(format!("rejoining node {n}")))?;
                }
            }
        }
        let value = format!("v{i}-t{t_us}").into_bytes();
        cluster
            .put_traced(&key, &value, derive_trace_id(TSDB_SEED, salt, i))
            .map_err(io_err(format!("traced write {i}")))?;
        scraper.scrape_at(&mut db, t_us);
    }
    cluster.reconcile_all().map_err(io_err("final repair"))?;
    scraper.scrape_at(&mut db, t_us + STEP_US);

    let spans = cluster.take_trace_spans();
    let chains = reconstruct_writes(&spans);
    if chains.len() != WRITES as usize {
        return gate(format!(
            "tsdb FAIL: {} of {WRITES} traced writes left a span chain",
            chains.len()
        ));
    }
    let incomplete = chains.iter().filter(|c| !c.complete).count();
    if incomplete > 0 {
        return gate(format!(
            "tsdb FAIL: {incomplete} of {WRITES} span chains are causally incomplete"
        ));
    }
    let events: Vec<TimelineEvent> = cluster
        .take_events()
        .into_iter()
        .map(|e| TimelineEvent {
            at_us: e.at_us,
            kind: e.kind.to_owned(),
            node: e.node,
            shard: if e.shard == usize::MAX { -1 } else { e.shard as i64 },
        })
        .collect();
    if !events.iter().any(|e| e.kind == "failover") {
        return gate("tsdb FAIL: the cluster run forced no failover");
    }
    std::fs::remove_dir_all(&scratch).ok();

    // The scraped store must hold the replication telemetry the chains
    // imply: a lag gauge per node and the primary's quorum-ack
    // histogram (as expanded _bucket/_count/_sum series).
    for required in ["cluster.replication_lag_bytes", "cluster.quorum_ack_us_count"] {
        if select(&db, required, &[], 0, u64::MAX).is_empty() {
            return gate(format!("tsdb FAIL: required series {required} was never scraped"));
        }
    }

    // --- Serving half: live pipeline and scraped registry in parallel.
    let serving = ServingLoad::new(WorkloadId::NutchServer, "NutchServer");
    let load = &serving.load;
    let window_us = WINDOW.as_micros() as u64;
    let mut pipe = serving.pipeline("NutchServer");
    load.ingest(&mut pipe, &serving.model);
    let obs = pipe.finish();

    // Replay the same terminal events into a registry, scraping on
    // every window boundary (plus a finer cadence between them), so
    // the stored cumulative counters can answer for the live run.
    let threshold_us = THRESHOLD.as_micros() as u64;
    // (t_ns, bad, completed latency µs) per terminal event.
    let mut terminal: Vec<(u64, bool, Option<u64>)> = Vec::new();
    for (offset_ns, records) in
        [(0, &load.steady.records), (load.overload_at_ns, &load.overload.records)]
    {
        for r in records {
            let Some(t) = r.terminal_ns() else { continue };
            let (bad, latency_us) = match r.outcome {
                RequestOutcome::Completed => {
                    let us = r.latency_ns() / 1_000;
                    (us >= threshold_us, Some(us))
                }
                // Shed or timed out.
                _ => (true, None),
            };
            terminal.push((offset_ns + t, bad, latency_us));
        }
    }
    terminal.sort_unstable();

    let serving_metrics = MetricsRegistry::new();
    let mut serving_scraper = Scraper::new();
    serving_scraper
        .add_target(&[("workload", "NutchServer"), ("node", "serving")], &serving_metrics);
    let last_t_ns = terminal.last().map_or(0, |&(t, ..)| t);
    let horizon_us = (last_t_ns / 1_000).div_ceil(window_us) * window_us;
    let mut next = terminal.iter().peekable();
    let mut scrape_t = 0u64;
    while scrape_t <= horizon_us {
        // Events exactly on a boundary belong to the next window, so
        // the boundary scrape must not see them yet.
        while let Some(&&(t_ns, bad, latency_us)) = next.peek() {
            if t_ns >= scrape_t * 1_000 {
                break;
            }
            next.next();
            serving_metrics.counter("serving.requests_total").inc();
            if bad {
                serving_metrics.counter("serving.bad_total").inc();
            }
            if let Some(us) = latency_us {
                serving_metrics.histogram("serving.request_us").record_micros(us);
            }
        }
        serving_scraper.scrape_at(&mut db, scrape_t);
        scrape_t += SCRAPE_US;
    }

    // Gate: the stored histogram answers the live whole-run p99
    // within one log bucket.
    let matchers = [("workload", "NutchServer")];
    let stored_p99 = histogram_quantile(&db, "serving.request_us", &matchers, 0.99, horizon_us)
        .ok_or_else(|| Failure::Gate("tsdb FAIL: stored serving histogram is empty".into()))?;
    let live_p99 = obs.whole.percentile(0.99).as_micros() as u64;
    let (si, li) = (bdb_telemetry::bucket_index(stored_p99), bdb_telemetry::bucket_index(live_p99));
    if si.abs_diff(li) > 1 {
        return gate(format!(
            "tsdb FAIL: stored p99 ({stored_p99}us) disagrees with the live window ring \
             ({live_p99}us) by more than one histogram bucket"
        ));
    }

    // Gate: replaying the burn-rate rules over the stored counters
    // fires exactly the live alerts.
    let series_of = |name: &str| -> Vec<(u64, f64)> {
        select(&db, name, &matchers, 0, u64::MAX).into_iter().next().map_or(Vec::new(), |(_, s)| s)
    };
    let n_windows = obs.window_table.last().map_or(0, |w| w.index + 1);
    let replayed = replay_burn_rules(
        &series_of("serving.bad_total"),
        &series_of("serving.requests_total"),
        n_windows,
    );
    if replayed.len() != obs.alerts.len()
        || replayed.iter().zip(&obs.alerts).any(|(r, l)| {
            r.rule != l.rule || r.window_index != l.window_index || r.at_ns != l.at_ns
        })
    {
        return gate(format!(
            "tsdb FAIL: recording-rule replay fired {:?}, the live engine fired {:?}",
            replayed.iter().map(|a| (&a.rule, a.window_index)).collect::<Vec<_>>(),
            obs.alerts.iter().map(|a| (&a.rule, a.window_index)).collect::<Vec<_>>(),
        ));
    }

    // Gate + artifact: the snapshot is self-describing — reloading it
    // and snapshotting again must reproduce the bytes exactly.
    let bytes = db.snapshot_bytes();
    let reloaded = Tsdb::from_snapshot_bytes(&bytes)
        .map_err(|e| Failure::Gate(format!("tsdb FAIL: snapshot does not reload: {e}")))?;
    if reloaded.snapshot_bytes() != bytes {
        return gate("tsdb FAIL: snapshot round-trip is not byte-identical");
    }
    let bytes_len = bytes.len();
    out.push(Artifact::new(dir.join("tsdb_snapshot.bin"), bytes));

    let node_files = node_names.iter().map(|n| (n.as_str(), format!("node-{n}.dash.txt")));
    for (node, file) in node_files.chain([("serving", "serving.dash.txt".to_owned())]) {
        out.push(Artifact::new(dir.join(file), render_node_dashboard(&db, node)));
    }
    out.push(Artifact::new(dir.join("timeline.txt"), render_timeline(&events, &chains)));

    let acked = chains.iter().filter(|c| c.acked).count();
    let scrapes = series_of("serving.requests_total").len();
    println!(
        "tsdb pass PASS: {} series in {bytes_len} bytes, {scrapes} serving scrapes, \
         {acked}/{WRITES} chains acked, stored p99 {stored_p99}us vs live {live_p99}us, \
         {} alert(s) replayed exactly",
        db.series_count(),
        replayed.len(),
    );
    Ok(())
}
