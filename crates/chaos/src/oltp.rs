//! The Cloud-OLTP chaos campaign: a replicated [`bdb_cluster`] store
//! under a seeded schedule of lost ships, torn WAL writes and node
//! kills, checked for history safety, replica convergence and actual
//! fault coverage.

use crate::report::{CampaignReport, CheckerVerdict};
use crate::ROUNDS;
use bdb_cluster::{check_history, sites, Cluster, History, Op, NODES, SHARDS};
use bdb_faults::FaultPlan;
use bdb_kvstore::StoreConfig;
use bdb_telemetry::{ArgValue, SpanEvent};
use std::path::Path;
use std::time::Duration;

/// Distinct user keys.
const KEYS: u32 = 24;

/// Writes per round, cycling over the key space.
const WRITES_PER_ROUND: u32 = 60;

/// Virtual microseconds per cluster operation.
const STEP_US: u64 = 500;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:06}").into_bytes()
}

fn val(i: u32, tick: u64) -> Vec<u8> {
    format!("profile-{i}-t{tick}").into_bytes()
}

/// Runs the Cloud-OLTP campaign for `seed` with the cluster rooted at
/// `root` (one subdirectory per node; the caller owns cleanup).
///
/// Every round writes across the key space while the fault schedule
/// loses replication ships, tears WAL appends and — once per round, at
/// a virtual-time deadline — kills the primary of the shard being
/// written, forcing a failover on the very next operation. Dead nodes
/// rejoin at each round boundary (stray-tmp cleanup, WAL prefix
/// replay, anti-entropy). A final full repair precedes the
/// convergence check.
///
/// # Errors
///
/// Propagates real (non-injected) I/O errors only; everything injected
/// is absorbed into the report.
pub fn oltp_campaign(seed: u64, root: &Path) -> std::io::Result<CampaignReport> {
    let ops_per_round = u64::from(WRITES_PER_ROUND + 2 * KEYS) + 8;
    let round_us = ops_per_round * STEP_US;
    let mut builder = FaultPlan::builder(seed)
        // One guaranteed lost ship early: deterministic read-repair bait.
        .io_error_nth(sites::SHIP_WRITE, 2)
        .io_error_p(sites::SHIP_WRITE, 0.02)
        // Rare torn WAL appends anywhere in the cluster: the node that
        // tears crashes and rejoins with a prefix of its log.
        .torn_write_p(bdb_kvstore::sites::WAL_APPEND, 0.003);
    for r in 0..ROUNDS {
        // Mid-round, one primary dies at a virtual-time deadline.
        let at = Duration::from_micros(u64::from(r) * round_us + round_us / 3);
        builder = builder.node_kill_at(sites::NODE_KILL, at);
    }
    let plan = builder.build();

    let store =
        StoreConfig { memtable_flush_bytes: 1 << 30, max_tables: 100, ..Default::default() };
    let mut c = Cluster::open(root, store, plan.clone())?;

    let mut h = History::new();
    let mut t_us = 0u64;
    let mut unavailable = 0u64;
    // Max replication lag (bytes) observed on any node's gauge at any
    // round boundary — the summary the chaos report publishes.
    let mut max_lag = 0u64;

    let tick = |c: &mut Cluster, t_us: &mut u64| {
        *t_us += STEP_US;
        c.advance(Duration::from_micros(*t_us));
    };

    for round in 0..ROUNDS {
        for i in 0..WRITES_PER_ROUND {
            tick(&mut c, &mut t_us);
            let ki = i % KEYS;
            let k = key(ki);
            // The virtual-time kill rule fires here: take down the
            // primary of the shard we are about to write, so the write
            // itself forces the failover.
            if plan.node_killed(sites::NODE_KILL) {
                let shard = c.shard_of(&k);
                c.kill_node(c.primary_of_shard(shard));
            }
            match c.put(&k, &val(ki, t_us)) {
                Ok(out) => {
                    h.record(t_us, Op::Put { key: k, seq: out.seq, acked: out.acked });
                }
                Err(e) if !bdb_faults::is_injected(&e) && e.to_string().contains("unavailable") => {
                    // Too many replicas down at once: the operator
                    // restarts the dead nodes and retries.
                    unavailable += 1;
                    rejoin_dead(&mut c, &mut unavailable);
                    let out = c.put(&k, &val(ki, t_us))?;
                    h.record(t_us, Op::Put { key: k, seq: out.seq, acked: out.acked });
                }
                Err(e) => return Err(e),
            }
        }
        // Sweep every key twice: the rotating read quorum consults both
        // non-primary replicas, repairing any stale copy in place.
        for sweep in 0..2 {
            let _ = sweep;
            for i in 0..KEYS {
                tick(&mut c, &mut t_us);
                let k = key(i);
                match c.get(&k) {
                    Ok(got) => {
                        h.record(t_us, Op::Get { key: k, observed: got.map(|(s, _)| s) });
                    }
                    Err(e)
                        if !bdb_faults::is_injected(&e)
                            && e.to_string().contains("unavailable") =>
                    {
                        unavailable += 1;
                        rejoin_dead(&mut c, &mut unavailable);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        // Round boundary: poll every node's replication-lag gauge
        // while divergence from the round's faults is still visible.
        for node in 0..NODES {
            let lag = c.node_metrics(node).gauge("cluster.replication_lag_bytes").get();
            max_lag = max_lag.max(u64::try_from(lag).unwrap_or(0));
        }
        // Every dead node rejoins (tmp cleanup, WAL replay,
        // anti-entropy) and diverged pairs resync.
        rejoin_dead(&mut c, &mut unavailable);
        if c.resync().is_err() {
            unavailable += 1;
        }
        let _ = round;
    }

    // Full repair, twice: first pass accumulates each shard's union
    // onto its primary, second ships the union back out.
    rejoin_dead(&mut c, &mut unavailable);
    c.reconcile_all()?;
    c.reconcile_all()?;

    // Final sweep: after repair, every read must observe the newest
    // acknowledged version.
    for i in 0..KEYS {
        tick(&mut c, &mut t_us);
        let k = key(i);
        let got = c.get(&k)?;
        h.record(t_us, Op::Get { key: k, observed: got.map(|(s, _)| s) });
    }

    // --- Checkers ---
    let hist = check_history(&h);
    let mut history_checker = CheckerVerdict::new("linearizable_history", hist.ok)
        .detail("writes", hist.writes)
        .detail("reads", hist.reads)
        .detail("unacked_reads", hist.unacked_reads)
        .detail("violations", hist.violations.len());
    if let Some(first) = hist.violations.first() {
        history_checker = history_checker.detail("first_violation", first);
    }

    let stats = c.stats();
    let mut mismatches = 0u64;
    let mut replicas_checked = 0u64;
    for shard in 0..SHARDS {
        let primary = c.primary_of_shard(shard);
        let primary_state = c.shard_snapshot(shard, primary)?;
        for node in 0..NODES {
            if node == primary || !c.alive(node) {
                continue;
            }
            let state = c.shard_snapshot(shard, node)?;
            // Only replicas of this shard hold its keys.
            if state.is_empty() && primary_state.is_empty() {
                continue;
            }
            if !state.is_empty() {
                replicas_checked += 1;
                if state != primary_state {
                    mismatches += 1;
                }
            }
        }
    }
    let convergence = CheckerVerdict::new("replica_convergence", mismatches == 0)
        .detail("replicas_checked", replicas_checked)
        .detail("mismatches", mismatches);

    let coverage = CheckerVerdict::new(
        "fault_coverage",
        stats.failovers >= 1
            && stats.read_repairs >= 1
            && stats.lost_ships >= 1
            && stats.node_kills >= 1
            && stats.rejoins >= 1
            && stats.anti_entropy_repairs >= 1,
    )
    .detail("failovers", stats.failovers)
    .detail("read_repairs", stats.read_repairs)
    .detail("lost_ships", stats.lost_ships)
    .detail("node_kills", stats.node_kills)
    .detail("rejoins", stats.rejoins)
    .detail("anti_entropy_repairs", stats.anti_entropy_repairs);

    let spans = c
        .take_events()
        .into_iter()
        .map(|ev| SpanEvent {
            name: ev.kind,
            cat: "chaos",
            start_us: ev.at_us,
            dur_us: None,
            tid: ev.node as u64,
            ctx: None,
            args: vec![
                ("node", ArgValue::Int(ev.node as i64)),
                ("shard", ArgValue::Int(if ev.shard == usize::MAX { -1 } else { ev.shard as i64 })),
            ],
        })
        .collect();

    Ok(CampaignReport {
        campaign: "cloud-oltp",
        seed,
        rounds: ROUNDS,
        checkers: vec![history_checker, convergence, coverage],
        injected: plan.injected_by_site(),
        recovered: plan.recovered_by_site(),
        stats: vec![
            ("acked_writes".into(), stats.acked_writes),
            ("anti_entropy_repairs".into(), stats.anti_entropy_repairs),
            ("failed_writes".into(), stats.failed_writes),
            ("failovers".into(), stats.failovers),
            ("lost_ships".into(), stats.lost_ships),
            ("node_kills".into(), stats.node_kills),
            ("read_repairs".into(), stats.read_repairs),
            ("reads".into(), stats.reads),
            ("rejoins".into(), stats.rejoins),
            ("replication_lag".into(), max_lag),
            ("unavailable_retries".into(), unavailable),
        ],
        spans,
    })
}

/// Brings every dead node back; a failed rejoin counts and is retried
/// on the next boundary.
fn rejoin_dead(c: &mut Cluster, unavailable: &mut u64) {
    for node in 0..NODES {
        if !c.alive(node) && c.rejoin_node(node).is_err() {
            *unavailable += 1;
        }
    }
}
