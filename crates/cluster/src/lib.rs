//! Replicated, sharded cluster layer over `bdb-kvstore`.
//!
//! The paper runs Cloud OLTP on a 14-node HBase cluster where node
//! loss and recovery are the normal case. This crate simulates that
//! deployment shape deterministically, in one process, at one fixed
//! size: keys hash-partition across [`SHARDS`] shards on [`NODES`]
//! simulated nodes, each node an independent [`bdb_kvstore::Store`]
//! with its own WAL and SSTable directory, and a [`Cluster`]
//! coordinator replicates every write to [`REPLICATION`] nodes.
//!
//! The protocol (DESIGN §8):
//!
//! * **Acknowledged replication.** A put is applied on the shard's
//!   primary and shipped to the in-sync replicas through their normal
//!   WAL-first write path; the write is *acknowledged* once
//!   [`WRITE_QUORUM`] nodes (2 of 3) applied it. A replica whose ship
//!   fails — lost in transit or torn mid-record on the replica's WAL —
//!   drops out of the in-sync set and receives no further ships until
//!   an anti-entropy pass reconciles it, so in-sync replicas always
//!   hold an exact prefix of the shard's log.
//! * **Deterministic failover.** When a node dies, each shard it led
//!   promotes, on next access, the alive replica with the highest
//!   replicated WAL offset (ties break to the lowest node id).
//! * **Read-repair.** Quorum reads consult [`READ_QUORUM`] replicas (2),
//!   return the highest sequence number, and write that version back
//!   to any consulted replica that returned a stale one.
//! * **Anti-entropy.** A rejoining (or ship-lossy) replica is
//!   reconciled against the shard primary by a bidirectional
//!   max-sequence merge, after stray `.tmp` files from its crash are
//!   removed.
//!
//! Everything is driven by the caller's virtual clock and a shared
//! [`bdb_faults::FaultPlan`], so campaigns over the cluster are
//! byte-reproducible from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod history;
mod shard;

pub use cluster::{Cluster, ClusterEvent, ClusterStats, PutOutcome};
pub use history::{check_history, CheckReport, History, Op};

/// Simulated nodes, each an independent `Store` directory.
pub const NODES: usize = 4;
/// Hash shards.
pub const SHARDS: usize = 8;
/// Replicas per shard, on distinct consecutive nodes of the ring.
pub const REPLICATION: usize = 3;
/// Nodes that must apply a write before it is acknowledged.
pub const WRITE_QUORUM: usize = 2;
/// Replicas consulted by a read.
pub const READ_QUORUM: usize = 2;

// Replicas must land on distinct nodes, and both quorums must fit the
// replica set.
const _: () = assert!(
    SHARDS > 0
        && REPLICATION > 0
        && REPLICATION <= NODES
        && WRITE_QUORUM >= 1
        && WRITE_QUORUM <= REPLICATION
        && READ_QUORUM >= 1
        && READ_QUORUM <= REPLICATION
);

/// Named fault-injection sites the cluster layer consults.
pub mod sites {
    /// One occurrence per WAL ship of a record from a primary to one
    /// replica; an injected I/O error loses the ship (the replica
    /// diverges until anti-entropy).
    pub const SHIP_WRITE: &str = "cluster.ship.write";
    /// Node-lifecycle site campaigns poll for [`bdb_faults::FaultKind::NodeKill`]
    /// rules (typically with `Trigger::AtVirtualTime`).
    pub const NODE_KILL: &str = "cluster.node.kill";
    /// One occurrence per anti-entropy reconciliation of one (shard,
    /// replica) pair; an injected error skips the pair (it stays
    /// diverged until the next pass).
    pub const ANTI_ENTROPY: &str = "cluster.anti_entropy.copy";
}

/// Encodes a replicated value: `seq(8 LE) || payload`. The sequence
/// number makes replica versions comparable for read-repair and
/// anti-entropy.
#[must_use]
pub fn encode_value(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(8 + payload.len());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(payload);
    v
}

/// Decodes a replicated value into `(seq, payload)`; `None` if the
/// bytes are too short to carry a sequence number.
#[must_use]
pub fn decode_value(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let seq = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);
    Some((seq, &bytes[8..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let enc = encode_value(42, b"payload");
        assert_eq!(decode_value(&enc), Some((42, b"payload".as_slice())));
        assert_eq!(decode_value(b"short"), None);
    }
}
