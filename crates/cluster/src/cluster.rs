//! The cluster coordinator: replicated writes, quorum reads,
//! failover, read-repair and anti-entropy over per-node stores.

use crate::shard::ShardMap;
use crate::{decode_value, encode_value, sites};
use bdb_faults::FaultPlan;
use bdb_kvstore::{Store, StoreConfig};
use bdb_telemetry::{ArgValue, MetricsRegistry, SpanContext, SpanEvent, TraceId};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Upper bound for full-range scans during anti-entropy; user keys must
/// sort strictly below it (any printable-ASCII key does).
const MAX_KEY: [u8; 32] = [0xFF; 32];

/// A replicated version: `(sequence number, payload)`.
pub type Version = (u64, Vec<u8>);

/// One node's view of one shard: key → version.
pub type ShardState = BTreeMap<Vec<u8>, Version>;

/// Sizing and quorum parameters for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Simulated nodes (each an independent `Store` directory).
    pub nodes: usize,
    /// Hash shards.
    pub shards: usize,
    /// Replicas per shard.
    pub replication: usize,
    /// Nodes that must apply a write before it is acknowledged.
    pub write_quorum: usize,
    /// Replicas consulted by a read.
    pub read_quorum: usize,
    /// Per-node store configuration.
    pub store: StoreConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 4,
            shards: 8,
            replication: 3,
            write_quorum: 2,
            read_quorum: 2,
            store: StoreConfig::default(),
        }
    }
}

/// Outcome of a replicated put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// The sequence number assigned to the write (per shard,
    /// monotonic).
    pub seq: u64,
    /// Whether the write reached the write quorum. An unacknowledged
    /// write may still surface on some replica — the history checker
    /// accounts for that.
    pub acked: bool,
}

/// Counters the chaos report renders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Primary promotions performed.
    pub failovers: u64,
    /// Stale replica versions overwritten during quorum reads.
    pub read_repairs: u64,
    /// Keys copied during anti-entropy reconciliation.
    pub anti_entropy_repairs: u64,
    /// WAL ships lost to injected I/O errors.
    pub lost_ships: u64,
    /// Nodes taken offline (injected kills + crashed write paths).
    pub node_kills: u64,
    /// Nodes brought back online.
    pub rejoins: u64,
    /// Writes that reached the write quorum.
    pub acked_writes: u64,
    /// Writes that did not.
    pub failed_writes: u64,
    /// Quorum reads served.
    pub reads: u64,
}

/// A timestamped cluster-lifecycle event, for Chrome-trace instants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterEvent {
    /// Virtual time of the event, microseconds.
    pub at_us: u64,
    /// Event kind (`failover`, `node_down`, `rejoin`, `read_repair`,
    /// `anti_entropy`, `ship_lost`).
    pub kind: &'static str,
    /// Node involved.
    pub node: usize,
    /// Shard involved (`usize::MAX` for node-wide events).
    pub shard: usize,
}

#[derive(Debug)]
struct Node {
    dir: PathBuf,
    store: Option<Store>,
    /// Logical WAL position carried across restarts: `base` is the
    /// position at the last (re)open, the live store adds its own
    /// monotonic offset on top.
    base_offset: u64,
}

impl Node {
    fn wal_pos(&self) -> u64 {
        self.base_offset + self.store.as_ref().map_or(0, Store::wal_offset)
    }
}

/// A deterministic simulated cluster: N nodes, each an independent
/// [`Store`], coordinated by this in-process "master" (which models
/// HBase's meta/ZooKeeper control plane and therefore survives node
/// kills).
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    map: ShardMap,
    nodes: Vec<Node>,
    /// Per shard: current primary node id.
    primaries: Vec<usize>,
    /// Per shard: last assigned sequence number.
    next_seq: Vec<u64>,
    /// Per shard: highest acknowledged sequence number.
    acked_seq: Vec<u64>,
    /// Per shard, per replica: bytes of this shard's log the replica
    /// has applied — the "replicated WAL offset" failover compares.
    applied: Vec<BTreeMap<usize, u64>>,
    /// (shard, node) pairs that missed a ship and await anti-entropy.
    dirty: BTreeSet<(usize, usize)>,
    stats: ClusterStats,
    events: Vec<ClusterEvent>,
    faults: FaultPlan,
    now: Duration,
    /// Rotates the non-primary member of read quorums so every replica
    /// is eventually consulted (and repaired).
    read_rotation: u64,
    /// One metrics registry per node (scrape targets for `bdb-tsdb`).
    metrics: Vec<MetricsRegistry>,
    /// Dapper-style spans emitted by traced writes, in virtual time.
    trace_spans: Vec<SpanEvent>,
}

impl Cluster {
    /// Opens (or creates) a cluster rooted at `root`: node `i` lives in
    /// `root/node-<i>/`.
    ///
    /// # Errors
    ///
    /// Propagates store recovery errors.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero sizes, `replication >
    /// nodes`, quorums wider than the replica set).
    pub fn open(root: &Path, config: ClusterConfig, faults: FaultPlan) -> std::io::Result<Self> {
        assert!(
            config.write_quorum >= 1 && config.write_quorum <= config.replication,
            "write quorum must fit the replica set"
        );
        assert!(
            config.read_quorum >= 1 && config.read_quorum <= config.replication,
            "read quorum must fit the replica set"
        );
        let map = ShardMap::new(config.shards, config.nodes, config.replication);
        let mut nodes = Vec::with_capacity(config.nodes);
        for i in 0..config.nodes {
            let dir = root.join(format!("node-{i}"));
            let store = Store::open_with_faults(&dir, config.store.clone(), faults.clone())?;
            nodes.push(Node { dir, store: Some(store), base_offset: 0 });
        }
        let primaries = (0..config.shards).map(|s| map.replicas(s)[0]).collect();
        let applied = (0..config.shards)
            .map(|s| map.replicas(s).into_iter().map(|n| (n, 0)).collect())
            .collect();
        let metrics = (0..config.nodes).map(|_| MetricsRegistry::new()).collect();
        Ok(Self {
            primaries,
            next_seq: vec![0; config.shards],
            acked_seq: vec![0; config.shards],
            applied,
            dirty: BTreeSet::new(),
            stats: ClusterStats::default(),
            events: Vec::new(),
            map,
            nodes,
            config,
            faults,
            now: Duration::ZERO,
            read_rotation: 0,
            metrics,
            trace_spans: Vec::new(),
        })
    }

    /// Advances the cluster's virtual clock (and the fault plan's, so
    /// `AtVirtualTime` rules become eligible).
    pub fn advance(&mut self, now: Duration) {
        self.now = self.now.max(now);
        self.faults.set_virtual_time(self.now);
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Drains recorded lifecycle events.
    pub fn take_events(&mut self) -> Vec<ClusterEvent> {
        std::mem::take(&mut self.events)
    }

    /// Node `id`'s metrics registry — the per-node scrape target.
    /// Registries are shared handles; clone freely.
    #[must_use]
    pub fn node_metrics(&self, id: usize) -> &MetricsRegistry {
        &self.metrics[id]
    }

    /// Drains the spans emitted by [`Cluster::put_traced`] calls, in
    /// emission order. Timestamps are virtual (the cluster clock), so
    /// the stream is deterministic for a given seed.
    pub fn take_trace_spans(&mut self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.trace_spans)
    }

    /// Whether node `id` is online.
    #[must_use]
    pub fn alive(&self, id: usize) -> bool {
        self.nodes[id].store.is_some()
    }

    /// The shard owning `key`.
    #[must_use]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.map.shard_of(key)
    }

    /// The current primary of `shard` (without triggering failover).
    #[must_use]
    pub fn primary_of_shard(&self, shard: usize) -> usize {
        self.primaries[shard]
    }

    /// The highest acknowledged sequence number of `shard`.
    #[must_use]
    pub fn acked_seq(&self, shard: usize) -> u64 {
        self.acked_seq[shard]
    }

    fn event(&mut self, kind: &'static str, node: usize, shard: usize) {
        let at_us = u64::try_from(self.now.as_micros()).unwrap_or(u64::MAX);
        self.events.push(ClusterEvent { at_us, kind, node, shard });
    }

    /// Takes node `id` offline, modeling a crash: the store handle is
    /// dropped mid-flight (its buffered state is lost exactly as a real
    /// crash would lose it) and every shard it replicates is marked for
    /// anti-entropy on rejoin.
    pub fn kill_node(&mut self, id: usize) {
        if self.nodes[id].store.is_none() {
            return;
        }
        self.nodes[id].base_offset = self.nodes[id].wal_pos();
        self.nodes[id].store = None;
        self.stats.node_kills += 1;
        self.event("node_down", id, usize::MAX);
        for shard in 0..self.config.shards {
            if self.map.replicas(shard).contains(&id) {
                self.dirty.insert((shard, id));
            }
        }
    }

    /// Brings node `id` back online: removes stray `.tmp` files its
    /// crash left behind, reopens the store (WAL prefix replay), then
    /// runs anti-entropy for every shard the node replicates.
    ///
    /// # Errors
    ///
    /// Propagates store recovery errors (injected copy errors during
    /// anti-entropy are absorbed: the pair simply stays diverged).
    pub fn rejoin_node(&mut self, id: usize) -> std::io::Result<()> {
        if self.nodes[id].store.is_some() {
            return Ok(());
        }
        Store::remove_stray_tmp(&self.nodes[id].dir)?;
        let store = Store::open_with_faults(
            &self.nodes[id].dir,
            self.config.store.clone(),
            self.faults.clone(),
        )?;
        self.nodes[id].store = Some(store);
        self.stats.rejoins += 1;
        self.event("rejoin", id, usize::MAX);
        for shard in 0..self.config.shards {
            if self.map.replicas(shard).contains(&id) {
                self.ensure_primary(shard)?;
                if self.primaries[shard] != id {
                    self.anti_entropy(shard, id)?;
                }
            }
        }
        Ok(())
    }

    /// Runs anti-entropy for every diverged (shard, replica) pair whose
    /// replica is online — the periodic reconcile pass.
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors (injected ones leave the pair
    /// diverged for the next pass).
    pub fn resync(&mut self) -> std::io::Result<()> {
        let pairs: Vec<(usize, usize)> = self.dirty.iter().copied().collect();
        for (shard, node) in pairs {
            if self.nodes[node].store.is_some() && self.primaries[shard] != node {
                self.anti_entropy(shard, node)?;
            }
        }
        Ok(())
    }

    /// Full-repair pass (Cassandra's `nodetool repair` flattened): runs
    /// anti-entropy between every shard primary and every alive
    /// replica, diverged or not. Two consecutive passes make all alive
    /// replicas of a shard byte-identical — the first accumulates the
    /// union onto each primary, the second ships it back out.
    ///
    /// # Errors
    ///
    /// Returns an error when a shard has no live replica; propagates
    /// real I/O errors.
    pub fn reconcile_all(&mut self) -> std::io::Result<()> {
        for shard in 0..self.config.shards {
            let primary = self.ensure_primary(shard)?;
            for node in self.map.replicas(shard) {
                if node != primary && self.nodes[node].store.is_some() {
                    self.anti_entropy(shard, node)?;
                }
            }
        }
        Ok(())
    }

    /// Replicated put: applies on the shard primary, ships to in-sync
    /// replicas, acknowledges at `W` applies. An injected failure on
    /// the primary kills that node, fails the shard over and retries
    /// once on the new primary.
    ///
    /// # Errors
    ///
    /// Returns an error when the shard has no promotable replica;
    /// injected per-node faults are absorbed into the outcome.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> std::io::Result<PutOutcome> {
        self.put_impl(key, value, None)
    }

    /// [`Cluster::put`] carrying a Dapper-style trace id: the write's
    /// hop through shard routing → primary WAL append → replica ship →
    /// quorum ack is emitted as [`SpanEvent`]s (drained via
    /// [`Cluster::take_trace_spans`]) linked by their typed
    /// [`SpanContext`], the same context `bdb-obs` service traces
    /// carry. Span times are virtual, modeled on a fixed per-hop cost,
    /// so the stream is deterministic.
    ///
    /// # Errors
    ///
    /// As [`Cluster::put`].
    pub fn put_traced(
        &mut self,
        key: &[u8],
        value: &[u8],
        trace: TraceId,
    ) -> std::io::Result<PutOutcome> {
        self.put_impl(key, value, Some(trace))
    }

    /// Modeled per-hop costs for traced writes, microseconds: the WAL
    /// append starts after routing, each replica ship is pipelined
    /// behind it, and an ack arrives one network hop after the apply.
    const ROUTE_US: u64 = 10;
    const APPEND_US: u64 = 30;
    const SHIP_US: u64 = 30;
    const ACK_HOP_US: u64 = 20;

    fn put_impl(
        &mut self,
        key: &[u8],
        value: &[u8],
        trace: Option<TraceId>,
    ) -> std::io::Result<PutOutcome> {
        let shard = self.map.shard_of(key);
        self.next_seq[shard] += 1;
        let seq = self.next_seq[shard];
        let enc = encode_value(seq, value);
        let rec_len = 10 + key.len() as u64 + enc.len() as u64;
        let t0 = u64::try_from(self.now.as_micros()).unwrap_or(u64::MAX);
        // A span of this write's trace; `None` for an untraced put.
        let span = |name: &'static str,
                    start: u64,
                    dur: Option<u64>,
                    id: u64,
                    parent: Option<u64>,
                    node: usize,
                    extra: &[(&'static str, ArgValue)]| {
            trace.map(|trace| {
                let mut args = vec![("node", ArgValue::Int(node as i64))];
                args.extend_from_slice(extra);
                SpanEvent {
                    name,
                    cat: "cluster",
                    start_us: start,
                    dur_us: dur,
                    tid: node as u64,
                    ctx: Some(SpanContext { trace, span: id, parent }),
                    args,
                }
            })
        };

        let mut spans: Vec<SpanEvent> = Vec::new();
        let mut retried = false;
        let mut acks = 0usize;
        let mut ack_at: Option<u64> = None;
        let mut next_id: u64 = 3;
        let mut primary_used = 0usize;
        for _attempt in 0..2 {
            let primary = self.ensure_primary(shard)?;
            primary_used = primary;
            match self.apply_to_node(primary, key, &enc) {
                Ok(()) => {
                    *self.applied[shard].entry(primary).or_insert(0) += rec_len;
                    acks = 1;
                    if acks >= self.config.write_quorum {
                        ack_at = Some(Self::ROUTE_US + Self::APPEND_US);
                    }
                    spans.extend(span(
                        "cluster.wal_append",
                        t0 + Self::ROUTE_US,
                        Some(Self::APPEND_US),
                        2,
                        Some(1),
                        primary,
                        &[("rec_len", ArgValue::Int(rec_len as i64))],
                    ));
                }
                Err(e) if bdb_faults::is_injected(&e) => {
                    self.kill_node(primary);
                    // The whole pipeline restarts on the new primary.
                    retried = true;
                    spans.clear();
                    acks = 0;
                    ack_at = None;
                    next_id = 3;
                    continue; // retry on the promoted primary
                }
                Err(e) => return Err(e),
            }
            // Ship to the other in-sync, alive replicas.
            let mut ship_slot = 0u64;
            for replica in self.map.replicas(shard) {
                if replica == primary
                    || self.nodes[replica].store.is_none()
                    || self.dirty.contains(&(shard, replica))
                {
                    continue;
                }
                let ship_start = t0 + Self::ROUTE_US + Self::APPEND_US + Self::SHIP_US * ship_slot;
                ship_slot += 1;
                let ship_id = next_id;
                next_id += 1;
                if let Err(e) = self.faults.fail_io(sites::SHIP_WRITE) {
                    debug_assert!(bdb_faults::is_injected(&e));
                    self.stats.lost_ships += 1;
                    self.metrics[replica].counter("cluster.ships_lost_total").inc();
                    self.dirty.insert((shard, replica));
                    self.event("ship_lost", replica, shard);
                    spans.extend(span(
                        "cluster.ship",
                        ship_start,
                        Some(5),
                        ship_id,
                        Some(2),
                        replica,
                        &[("outcome", ArgValue::Str("lost".into()))],
                    ));
                    continue;
                }
                match self.apply_to_node(replica, key, &enc) {
                    Ok(()) => {
                        *self.applied[shard].entry(replica).or_insert(0) += rec_len;
                        acks += 1;
                        if acks == self.config.write_quorum {
                            ack_at = Some(ship_start - t0 + Self::ACK_HOP_US);
                        }
                        spans.extend(span(
                            "cluster.ship",
                            ship_start,
                            Some(Self::ACK_HOP_US),
                            ship_id,
                            Some(2),
                            replica,
                            &[],
                        ));
                    }
                    Err(e) if bdb_faults::is_injected(&e) => {
                        // The replica crashed mid-apply (possibly a torn
                        // WAL record); it rejoins via anti-entropy.
                        self.kill_node(replica);
                        spans.extend(span(
                            "cluster.ship",
                            ship_start,
                            Some(8),
                            ship_id,
                            Some(2),
                            replica,
                            &[("outcome", ArgValue::Str("crashed".into()))],
                        ));
                    }
                    Err(e) => return Err(e),
                }
            }
            break;
        }

        let acked = acks >= self.config.write_quorum;
        if acked {
            self.acked_seq[shard] = seq;
            self.stats.acked_writes += 1;
            let ack_us = ack_at.unwrap_or(Self::ROUTE_US + Self::APPEND_US);
            self.metrics[primary_used].histogram("cluster.quorum_ack_us").record_micros(ack_us);
            spans.extend(span(
                "cluster.quorum_ack",
                t0 + ack_us,
                None,
                next_id,
                Some(1),
                primary_used,
                &[],
            ));
        } else {
            self.stats.failed_writes += 1;
        }
        if trace.is_some() {
            let children_end = spans
                .iter()
                .map(|s| s.start_us + s.dur_us.unwrap_or(0))
                .max()
                .unwrap_or(t0 + Self::ROUTE_US);
            let mut extra = vec![
                ("shard", ArgValue::Int(shard as i64)),
                ("rec_len", ArgValue::Int(rec_len as i64)),
                ("acked", ArgValue::Int(i64::from(acked))),
            ];
            if retried {
                extra.push(("retried", ArgValue::Int(1)));
            }
            self.trace_spans.extend(span(
                "cluster.route",
                t0,
                Some(children_end.saturating_sub(t0) + Self::ROUTE_US),
                1,
                None,
                primary_used,
                &extra,
            ));
            self.trace_spans.append(&mut spans);
        }
        self.refresh_lag_gauges();
        Ok(PutOutcome { seq, acked })
    }

    /// Recomputes every node's `cluster.replication_lag_bytes` gauge:
    /// the worst (max) byte gap, across the shards the node
    /// replicates, between the shard primary's replicated WAL offset
    /// and the node's own.
    fn refresh_lag_gauges(&self) {
        for node in 0..self.config.nodes {
            let mut lag = 0u64;
            for shard in 0..self.config.shards {
                let applied = &self.applied[shard];
                let Some(node_off) = applied.get(&node).copied() else {
                    continue; // node does not replicate this shard
                };
                let primary_off = applied.get(&self.primaries[shard]).copied().unwrap_or(0);
                lag = lag.max(primary_off.saturating_sub(node_off));
            }
            self.metrics[node].gauge("cluster.replication_lag_bytes").set(lag as i64);
        }
    }

    /// Quorum read: consults `R` replicas (primary plus a rotating
    /// in-ring member), returns the newest version and repairs stale
    /// consulted replicas in place.
    ///
    /// # Errors
    ///
    /// Returns an error when the shard has no promotable replica.
    pub fn get(&mut self, key: &[u8]) -> std::io::Result<Option<(u64, Vec<u8>)>> {
        let shard = self.map.shard_of(key);
        let primary = self.ensure_primary(shard)?;
        self.read_rotation += 1;

        // Read set: primary first, then alive replicas in ring order
        // starting at a rotating offset.
        let replicas = self.map.replicas(shard);
        let others: Vec<usize> = (0..replicas.len())
            .map(|i| replicas[(self.read_rotation as usize + i) % replicas.len()])
            .filter(|&n| n != primary && self.nodes[n].store.is_some())
            .collect();
        let mut read_set = vec![primary];
        read_set.extend(others.into_iter().take(self.config.read_quorum - 1));

        let mut versions: Vec<(usize, Option<Version>)> = Vec::new();
        for node in read_set {
            match self.read_from_node(node, key) {
                Ok(v) => versions.push((node, v)),
                Err(e) if bdb_faults::is_injected(&e) => self.kill_node(node),
                Err(e) => return Err(e),
            }
        }
        self.stats.reads += 1;

        let winner = versions.iter().filter_map(|(_, v)| v.clone()).max_by_key(|(seq, _)| *seq);
        let Some((win_seq, payload)) = winner else {
            return Ok(None);
        };

        // Read-repair consulted replicas that returned an older (or no)
        // version.
        let enc = encode_value(win_seq, &payload);
        for (node, version) in versions {
            let stale = version.as_ref().is_none_or(|(seq, _)| *seq < win_seq);
            if !stale || self.nodes[node].store.is_none() {
                continue;
            }
            match self.apply_to_node(node, key, &enc) {
                Ok(()) => {
                    self.stats.read_repairs += 1;
                    self.event("read_repair", node, shard);
                }
                Err(e) if bdb_faults::is_injected(&e) => self.kill_node(node),
                Err(e) => return Err(e),
            }
        }
        Ok(Some((win_seq, payload)))
    }

    /// Snapshot of one node's versions for `shard` keys, for state
    /// comparison in tests and checkers: key → (seq, payload).
    ///
    /// # Errors
    ///
    /// Propagates scan errors; an offline node snapshots empty.
    pub fn shard_snapshot(&mut self, shard: usize, node: usize) -> std::io::Result<ShardState> {
        let mut out = ShardState::new();
        let Some(store) = self.nodes[node].store.as_mut() else {
            return Ok(out);
        };
        for (key, value) in store.scan(&[], &MAX_KEY)? {
            if self.map.shard_of(&key) != shard {
                continue;
            }
            if let Some((seq, payload)) = decode_value(&value) {
                out.insert(key, (seq, payload.to_vec()));
            }
        }
        Ok(out)
    }

    /// An offline node behaves like an injected fault: callers absorb
    /// it through the same kill-and-recover path.
    fn offline_error() -> std::io::Error {
        std::io::Error::other("injected fault: node offline")
    }

    fn apply_to_node(&mut self, node: usize, key: &[u8], enc: &[u8]) -> std::io::Result<()> {
        let Some(store) = self.nodes[node].store.as_mut() else {
            return Err(Self::offline_error());
        };
        store.put(key.to_vec(), enc.to_vec())?;
        self.metrics[node].counter("cluster.applies_total").inc();
        Ok(())
    }

    fn read_from_node(
        &mut self,
        node: usize,
        key: &[u8],
    ) -> std::io::Result<Option<(u64, Vec<u8>)>> {
        let Some(store) = self.nodes[node].store.as_mut() else {
            return Err(Self::offline_error());
        };
        Ok(store.get(key)?.and_then(|v| decode_value(&v).map(|(seq, p)| (seq, p.to_vec()))))
    }

    /// Ensures `shard` has an online primary, promoting if necessary:
    /// the alive replica with the highest replicated WAL offset wins,
    /// ties break to the lowest node id; in-sync replicas are preferred
    /// over diverged ones.
    fn ensure_primary(&mut self, shard: usize) -> std::io::Result<usize> {
        let current = self.primaries[shard];
        if self.nodes[current].store.is_some() {
            return Ok(current);
        }
        let candidates: Vec<usize> = self
            .map
            .replicas(shard)
            .into_iter()
            .filter(|&n| self.nodes[n].store.is_some())
            .collect();
        let pick = |pool: &[usize], applied: &BTreeMap<usize, u64>| -> Option<usize> {
            pool.iter().copied().max_by(|&a, &b| {
                let (oa, ob) =
                    (applied.get(&a).copied().unwrap_or(0), applied.get(&b).copied().unwrap_or(0));
                oa.cmp(&ob).then(b.cmp(&a)) // higher offset, then lower id
            })
        };
        let in_sync: Vec<usize> =
            candidates.iter().copied().filter(|&n| !self.dirty.contains(&(shard, n))).collect();
        let promoted = pick(&in_sync, &self.applied[shard])
            .or_else(|| pick(&candidates, &self.applied[shard]))
            .ok_or_else(|| {
                std::io::Error::other(format!(
                    "cluster: shard {shard} unavailable (no live replica)"
                ))
            })?;
        self.primaries[shard] = promoted;
        self.stats.failovers += 1;
        self.event("failover", promoted, shard);
        Ok(promoted)
    }

    /// Bidirectional max-sequence merge between the shard primary and a
    /// diverged replica; on success the replica is back in sync.
    fn anti_entropy(&mut self, shard: usize, node: usize) -> std::io::Result<()> {
        if let Err(e) = self.faults.fail_io(sites::ANTI_ENTROPY) {
            debug_assert!(bdb_faults::is_injected(&e));
            return Ok(()); // pair stays diverged until the next pass
        }
        let primary = self.primaries[shard];
        let primary_state = self.shard_snapshot(shard, primary)?;
        let replica_state = self.shard_snapshot(shard, node)?;

        let mut repairs = 0u64;
        for (key, (seq, payload)) in &primary_state {
            let behind = replica_state.get(key).is_none_or(|(rs, _)| rs < seq);
            if behind {
                self.apply_direct(node, key, *seq, payload)?;
                repairs += 1;
            }
        }
        for (key, (seq, payload)) in &replica_state {
            let ahead = primary_state.get(key).is_none_or(|(ps, _)| ps < seq);
            if ahead {
                self.apply_direct(primary, key, *seq, payload)?;
                repairs += 1;
            }
        }
        // The replica now holds the primary's full prefix: same
        // replicated offset, back in the in-sync set. If either side
        // crashed mid-merge the pair stays diverged for the next pass.
        if self.nodes[node].store.is_some() && self.nodes[primary].store.is_some() {
            let primary_offset = self.applied[shard].get(&primary).copied().unwrap_or(0);
            self.applied[shard].insert(node, primary_offset);
            if self.dirty.remove(&(shard, node)) {
                self.faults.note_recovered(sites::ANTI_ENTROPY);
            }
        }
        self.stats.anti_entropy_repairs += repairs;
        if repairs > 0 {
            self.event("anti_entropy", node, shard);
        }
        self.refresh_lag_gauges();
        Ok(())
    }

    fn apply_direct(
        &mut self,
        node: usize,
        key: &[u8],
        seq: u64,
        payload: &[u8],
    ) -> std::io::Result<()> {
        let enc = encode_value(seq, payload);
        match self.apply_to_node(node, key, &enc) {
            Ok(()) => Ok(()),
            Err(e) if bdb_faults::is_injected(&e) => {
                self.kill_node(node);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}
