//! End-to-end replication tests: acknowledged writes survive forced
//! failover, quorum reads repair stale replicas, and anti-entropy
//! reconciles a rejoined node — all deterministic from the fault seed.

use bdb_cluster::{check_history, sites, Cluster, History, Op, NODES};
use bdb_faults::FaultPlan;
use bdb_kvstore::StoreConfig;
use bdb_telemetry::TraceId;
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

fn tmproot(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdb-cluster-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(i: u32) -> Vec<u8> {
    format!("user{i:06}").into_bytes()
}

fn val(i: u32, round: u32) -> Vec<u8> {
    format!("profile-{i}-v{round}").into_bytes()
}

fn store_config() -> StoreConfig {
    StoreConfig { memtable_flush_bytes: 1 << 30, max_tables: 100, ..Default::default() }
}

#[test]
fn acked_writes_survive_primary_failover() {
    let root = tmproot("failover");
    let mut c = Cluster::open(&root, store_config(), FaultPlan::disabled()).unwrap();
    for i in 0..40 {
        let out = c.put(&key(i), &val(i, 0)).unwrap();
        assert!(out.acked, "no faults: every write acks");
    }

    // Kill the primary of key 0's shard; its acked state must survive
    // promotion.
    let shard = c.shard_of(&key(0));
    let old_primary = c.primary_of_shard(shard);
    let old_state = c.shard_snapshot(shard, old_primary).unwrap();
    c.kill_node(old_primary);

    for i in 0..40 {
        let (seq, payload) = c.get(&key(i)).unwrap().expect("acked write visible after kill");
        assert_eq!(payload, val(i, 0), "key {i}");
        assert!(seq >= 1);
    }
    let stats = c.stats();
    assert!(stats.failovers >= 1, "the dead primary forced at least one promotion");

    let new_primary = c.primary_of_shard(shard);
    assert_ne!(new_primary, old_primary);
    let new_state = c.shard_snapshot(shard, new_primary).unwrap();
    for (k, (seq, payload)) in &old_state {
        let (nseq, npayload) = new_state.get(k).expect("promoted primary holds every acked key");
        assert!(nseq >= seq, "promoted version at least as new");
        if nseq == seq {
            assert_eq!(npayload, payload);
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn lost_ship_is_read_repaired() {
    let root = tmproot("read-repair");
    // Lose exactly the first ship: one replica misses one record.
    let plan = FaultPlan::builder(11).io_error_nth(sites::SHIP_WRITE, 0).build();
    let mut c = Cluster::open(&root, store_config(), plan).unwrap();
    let out = c.put(&key(7), &val(7, 0)).unwrap();
    assert!(out.acked, "W=2 of 3 still reached with one lost ship");
    assert_eq!(c.stats().lost_ships, 1);

    // The read rotation eventually consults the stale replica and
    // repairs it in place.
    for _ in 0..c.stats().lost_ships + 4 {
        let (_, payload) = c.get(&key(7)).unwrap().unwrap();
        assert_eq!(payload, val(7, 0));
    }
    assert!(c.stats().read_repairs >= 1, "stale replica repaired by a quorum read");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn rejoined_node_is_reconciled_by_anti_entropy() {
    let root = tmproot("anti-entropy");
    let mut c = Cluster::open(&root, store_config(), FaultPlan::disabled()).unwrap();
    for i in 0..30 {
        assert!(c.put(&key(i), &val(i, 0)).unwrap().acked);
    }
    // Kill node 2, keep writing: every shard it replicates diverges.
    c.kill_node(2);
    for i in 0..30 {
        assert!(c.put(&key(i), &val(i, 1)).unwrap().acked, "key {i} still acks with 1 node down");
    }
    c.rejoin_node(2).unwrap();
    let stats = c.stats();
    assert!(stats.rejoins == 1);
    assert!(stats.anti_entropy_repairs > 0, "the rejoined node had diverged");

    // After reconcile the rejoined node's versions match its shard
    // primaries' exactly.
    for shard in 0..8 {
        let primary = c.primary_of_shard(shard);
        if primary == 2 {
            continue;
        }
        let primary_state = c.shard_snapshot(shard, primary).unwrap();
        let node_state = c.shard_snapshot(shard, 2).unwrap();
        // Only shards node 2 replicates hold data on it.
        if !node_state.is_empty() {
            assert_eq!(node_state, primary_state, "shard {shard} reconciled");
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn node_kill_trigger_fires_from_virtual_time() {
    let root = tmproot("vt-kill");
    let plan =
        FaultPlan::builder(5).node_kill_at(sites::NODE_KILL, Duration::from_millis(10)).build();
    let mut c = Cluster::open(&root, store_config(), plan.clone()).unwrap();
    c.advance(Duration::from_millis(5));
    assert!(!plan.node_killed(sites::NODE_KILL), "before the deadline");
    c.advance(Duration::from_millis(12));
    assert!(plan.node_killed(sites::NODE_KILL), "due after advancing past it");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn traced_writes_chain_and_feed_node_metrics() {
    let root = tmproot("traced");
    // Lose exactly the second ship so one replica diverges mid-run.
    let plan = FaultPlan::builder(5).io_error_nth(sites::SHIP_WRITE, 1).build();
    let mut c = Cluster::open(&root, store_config(), plan).unwrap();
    for i in 0..20u32 {
        c.advance(Duration::from_micros(u64::from(i + 1) * 500));
        let out = c.put_traced(&key(i), &val(i, 0), TraceId(0x1000 + u64::from(i))).unwrap();
        assert!(out.acked, "W=2 of 3 reached even with one lost ship");
    }

    // Every write's span chain (route → WAL append → ship → quorum
    // ack) reconstructs from the flat stream.
    let spans = c.take_trace_spans();
    let chains = bdb_tsdb::reconstruct_writes(&spans);
    assert_eq!(chains.len(), 20);
    let traces: Vec<TraceId> = chains.iter().map(|ch| ch.trace).collect();
    assert_eq!(traces, (0..20).map(|i| TraceId(0x1000 + i)).collect::<Vec<_>>());
    for ch in &chains {
        assert!(ch.complete, "chain {} causally complete", ch.trace.hex());
        assert!(ch.spans.iter().all(|s| s.ctx.is_some_and(|x| x.trace == ch.trace)));
        assert!(ch.shard >= 0);
        assert!(ch.acked);
        assert!(ch.quorum_ack_us.is_some());
        assert!(ch.spans.iter().any(|s| s.name == "cluster.wal_append"));
        assert!(ch.spans.iter().any(|s| s.name == "cluster.ship"));
    }
    assert!(c.take_trace_spans().is_empty(), "drained");

    // The lost ship surfaces in the per-node metrics and as a nonzero
    // replication-lag gauge on the diverged replica...
    assert_eq!(c.stats().lost_ships, 1);
    let nodes = 0..NODES;
    let lost: u64 =
        nodes.clone().map(|n| c.node_metrics(n).counter("cluster.ships_lost_total").get()).sum();
    assert_eq!(lost, 1);
    let max_lag = nodes
        .clone()
        .map(|n| c.node_metrics(n).gauge("cluster.replication_lag_bytes").get())
        .max()
        .unwrap();
    assert!(max_lag > 0, "the diverged replica lags the primary");
    let acks: u64 = nodes
        .clone()
        .map(|n| {
            c.node_metrics(n)
                .histogram_snapshots()
                .iter()
                .find(|(name, _)| name == "cluster.quorum_ack_us")
                .map_or(0, |(_, h)| h.count())
        })
        .sum();
    assert_eq!(acks, c.stats().acked_writes, "one ack latency recorded per acked write");

    // ...and anti-entropy repairs it back to zero lag everywhere.
    c.reconcile_all().unwrap();
    let max_lag = nodes
        .map(|n| c.node_metrics(n).gauge("cluster.replication_lag_bytes").get())
        .max()
        .unwrap();
    assert_eq!(max_lag, 0, "reconciled replicas no longer lag");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn history_checker_accepts_a_faulty_but_correct_run() {
    let root = tmproot("history");
    let plan = FaultPlan::builder(3).io_error_nth(sites::SHIP_WRITE, 2).build();
    let mut c = Cluster::open(&root, store_config(), plan).unwrap();
    let mut h = History::new();
    let mut t = 0u64;
    for round in 0..3u32 {
        for i in 0..10 {
            t += 1000;
            let out = c.put(&key(i), &val(i, round)).unwrap();
            h.record(t, Op::Put { key: key(i), seq: out.seq, acked: out.acked });
        }
        for i in 0..10 {
            t += 1000;
            let got = c.get(&key(i)).unwrap();
            h.record(t, Op::Get { key: key(i), observed: got.map(|(s, _)| s) });
        }
    }
    let report = check_history(&h);
    assert!(report.ok, "violations: {:?}", report.violations);
    assert_eq!(report.reads, 30);
    assert_eq!(report.writes, 30);
    std::fs::remove_dir_all(&root).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any seeded mini-campaign (probabilistic ship loss and WAL
    /// tears, a forced primary kill at an arbitrary point), the
    /// promoted primary's state covers the old primary's acknowledged
    /// state key-by-key: every acknowledged version is present at an
    /// equal-or-newer sequence number, and the full operation history
    /// passes the quorum-read checker.
    #[test]
    fn promoted_primary_covers_acknowledged_state(
        seed in any::<u64>(),
        kill_after in 5u32..35,
    ) {
        let root = std::env::temp_dir().join(format!(
            "bdb-cluster-prop-{}-{seed:x}-{kill_after}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let plan = FaultPlan::builder(seed)
            .io_error_p(sites::SHIP_WRITE, 0.05)
            .build();
        let mut c = Cluster::open(&root, store_config(), plan).unwrap();
        let mut h = History::new();
        let mut acked: std::collections::BTreeMap<Vec<u8>, u64> = Default::default();
        let mut killed = false;
        let mut t = 0u64;
        for i in 0..40u32 {
            t += 1000;
            let k = key(i % 12);
            let out = c.put(&k, &val(i % 12, i)).unwrap();
            h.record(t, Op::Put { key: k.clone(), seq: out.seq, acked: out.acked });
            if out.acked {
                acked.insert(k.clone(), out.seq);
            }
            if i == kill_after && !killed {
                killed = true;
                // Snapshot the dying primary's shard, kill it, and
                // compare against whoever gets promoted.
                let shard = c.shard_of(&k);
                let old_primary = c.primary_of_shard(shard);
                let old_state = c.shard_snapshot(shard, old_primary).unwrap();
                c.kill_node(old_primary);
                t += 1000;
                let got = c.get(&k).unwrap();
                h.record(t, Op::Get { key: k.clone(), observed: got.map(|(s, _)| s) });
                let new_primary = c.primary_of_shard(shard);
                prop_assert!(new_primary != old_primary, "a replica was promoted");
                let new_state = c.shard_snapshot(shard, new_primary).unwrap();
                for (kk, seq) in &acked {
                    if c.shard_of(kk) != shard { continue; }
                    let old_seq = old_state.get(kk).map(|(s, _)| *s).unwrap_or(0);
                    if old_seq == 0 { continue; }
                    let new_seq = new_state.get(kk).map(|(s, _)| *s).unwrap_or(0);
                    prop_assert!(
                        new_seq >= *seq.min(&old_seq),
                        "promoted primary lost acked key {:?}: old seq {}, new seq {}, acked {}",
                        String::from_utf8_lossy(kk), old_seq, new_seq, seq
                    );
                }
                let _ = c.rejoin_node(old_primary);
            }
        }
        for i in 0..12u32 {
            t += 1000;
            let k = key(i);
            let got = c.get(&k).unwrap();
            h.record(t, Op::Get { key: k.clone(), observed: got.map(|(s, _)| s) });
        }
        let report = check_history(&h);
        prop_assert!(report.ok, "history violations: {:?}", report.violations);
        std::fs::remove_dir_all(&root).ok();
    }
}
