//! Key → shard → replica-set placement over the fixed cluster shape.
//!
//! Keys hash-partition across [`SHARDS`] shards, and each shard's
//! replicas sit on consecutive nodes of the ring (HBase region
//! assignment flattened to a static map — deterministic and
//! balance-friendly).

use crate::{NODES, REPLICATION, SHARDS};
use bdb_archsim::layout::fnv1a;

/// The shard owning `key` (FNV-1a of the key, mod [`SHARDS`]).
#[must_use]
pub(crate) fn shard_of(key: &[u8]) -> usize {
    (fnv1a(key) % SHARDS as u64) as usize
}

/// The replica set of `shard`: [`REPLICATION`] consecutive nodes
/// starting at `shard % NODES`. The first entry is the shard's initial
/// primary.
#[must_use]
pub(crate) fn replicas(shard: usize) -> [usize; REPLICATION] {
    std::array::from_fn(|i| (shard + i) % NODES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_distinct() {
        for shard in 0..8 {
            let reps = replicas(shard);
            assert_eq!(reps.len(), 3);
            let mut uniq = reps.to_vec();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas land on distinct nodes");
            assert_eq!(reps, replicas(shard));
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for i in 0..100u32 {
            let key = format!("user{i:06}").into_bytes();
            let s = shard_of(&key);
            assert!(s < 8);
            assert_eq!(s, shard_of(&key));
        }
    }

    #[test]
    fn keys_spread_over_all_shards() {
        let mut seen = [false; 8];
        for i in 0..200u32 {
            seen[shard_of(format!("user{i:06}").as_bytes())] = true;
        }
        assert!(seen.iter().all(|&s| s), "200 keys cover all 8 shards");
    }

    /// Placement of fixed keys and the replica set of every shard. A
    /// key that moves shard changes every replicated campaign's
    /// history, so these values must never change.
    #[test]
    fn placement_golden() {
        let golden: [(&[u8], usize); 20] = [
            (&b""[..], 5),
            (&b"a"[..], 4),
            (&b"foobar"[..], 0),
            (&b"user000000"[..], 2),
            (&b"user000001"[..], 5),
            (&b"user000002"[..], 4),
            (&b"user000003"[..], 7),
            (&b"user000017"[..], 2),
            (&b"user000042"[..], 0),
            (&b"user000099"[..], 0),
            (&b"user000199"[..], 7),
            (&b"row000000"[..], 3),
            (&b"row000001"[..], 0),
            (&b"row000007"[..], 2),
            (&b"row000015"[..], 1),
            (&b"profile-3-t9"[..], 2),
            (&b"BigDataBench"[..], 5),
            (&b"\x00"[..], 7),
            (&b"\xff\xff"[..], 3),
            (&b"k"[..], 2),
        ];
        for (key, shard) in golden {
            assert_eq!(shard_of(key), shard, "{key:?}");
        }
        let sets: Vec<[usize; 3]> = (0..8).map(replicas).collect();
        assert_eq!(
            sets,
            [
                [0, 1, 2],
                [1, 2, 3],
                [2, 3, 0],
                [3, 0, 1],
                [0, 1, 2],
                [1, 2, 3],
                [2, 3, 0],
                [3, 0, 1]
            ]
        );
    }
}
