//! Consistent-hash placement of agents onto verifier shards.
//!
//! A federation (see [`crate::federation`]) needs a placement function
//! `AgentId → shard` that is **stable** (the same fleet always lands
//! the same way — replay depends on it) and **minimal-movement** (when
//! a shard joins or leaves, only the agents that must move do; the
//! rest stay put, keeping their verifier records, health streaks and
//! nonce counters exactly where they are).
//!
//! [`HashRing`] is the classic construction: each shard contributes
//! [`DEFAULT_REPLICAS`] virtual points on a `u64` ring; an agent hashes
//! to a point on the ring and belongs to the first shard point at or
//! after it (wrapping). Removing a shard deletes only its points, so
//! only agents whose successor point belonged to the removed shard move
//! — on average `K/N` of `K` agents across `N` shards — and everyone
//! else's placement is untouched.
//!
//! Hashing is FNV-1a over the id bytes finished with a SplitMix64
//! mixer — the same zero-dependency recipe [`crate::chaos`] uses for
//! fault decisions — so placement is a pure function of (id, shard
//! set) with no process-local state.

use std::collections::BTreeSet;

use crate::ids::AgentId;

/// Virtual points each shard contributes to the ring. 64 keeps the
/// worst shard within a few percent of the mean at fleet sizes the
/// bench exercises, while `add`/`remove` stay cheap.
pub const DEFAULT_REPLICAS: u32 = 64;

/// SplitMix64 finalizer: diffuses FNV's weak low bits.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over arbitrary bytes, mixed.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// A consistent-hash ring mapping [`AgentId`]s to shard indices.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// Sorted virtual points: (ring position, shard index).
    points: Vec<(u64, u32)>,
    /// The live shard set.
    shards: BTreeSet<u32>,
}

impl HashRing {
    /// An empty ring with [`DEFAULT_REPLICAS`] points per shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a shard's virtual points. Idempotent.
    pub fn add_shard(&mut self, shard: u32) {
        if !self.shards.insert(shard) {
            return;
        }
        for replica in 0..DEFAULT_REPLICAS {
            let point = mix64((u64::from(shard) << 32) | u64::from(replica));
            self.points.push((point, shard));
        }
        self.points.sort_unstable();
    }

    /// Removes a shard's virtual points; agents that hashed to them fall
    /// through to their next live successor. No other agent moves.
    pub fn remove_shard(&mut self, shard: u32) {
        if self.shards.remove(&shard) {
            self.points.retain(|&(_, s)| s != shard);
        }
    }

    /// The shard owning `id`: the first virtual point at or after the
    /// id's ring position, wrapping past the top. `None` on an empty
    /// ring.
    pub fn place(&self, id: &AgentId) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = hash_bytes(id.as_str().as_bytes());
        let at = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[at % self.points.len()];
        Some(shard)
    }

    /// True when `shard` is on the ring.
    pub fn contains(&self, shard: u32) -> bool {
        self.shards.contains(&shard)
    }

    /// The live shard indices, ascending.
    pub fn shards(&self) -> impl Iterator<Item = u32> + '_ {
        self.shards.iter().copied()
    }

    /// Number of live shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no shard is on the ring.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<AgentId> {
        (0..n)
            .map(|i| AgentId::from(format!("agent-{i:05}")))
            .collect()
    }

    fn ring_of(shards: u32) -> HashRing {
        let mut ring = HashRing::new();
        for s in 0..shards {
            ring.add_shard(s);
        }
        ring
    }

    #[test]
    fn empty_ring_places_nothing() {
        let ring = HashRing::new();
        assert!(ring.is_empty());
        assert_eq!(ring.place(&AgentId::from("a")), None);
    }

    #[test]
    fn placement_is_stable_and_order_independent() {
        let agents = fleet(500);
        let forward = ring_of(4);
        let mut backward = HashRing::new();
        for s in (0..4).rev() {
            backward.add_shard(s);
        }
        for id in &agents {
            let a = forward.place(id).unwrap();
            assert_eq!(forward.place(id).unwrap(), a, "same ring, same answer");
            assert_eq!(
                backward.place(id).unwrap(),
                a,
                "insertion order must not matter"
            );
            assert!(a < 4);
        }
    }

    #[test]
    fn every_shard_gets_a_reasonable_share() {
        let agents = fleet(4000);
        let ring = ring_of(4);
        let mut counts = [0usize; 4];
        for id in &agents {
            counts[ring.place(id).unwrap() as usize] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count > 400,
                "shard {shard} got {count}/4000 — virtual points too clumped"
            );
        }
    }

    /// The tentpole property: removing one of N shards moves *only* the
    /// agents that lived on it (~K/N of them), never reshuffling the
    /// rest.
    #[test]
    fn removal_moves_only_the_dead_shards_agents() {
        let agents = fleet(2000);
        let mut ring = ring_of(5);
        let before: Vec<u32> = agents.iter().map(|id| ring.place(id).unwrap()).collect();

        ring.remove_shard(2);
        let mut moved = 0usize;
        for (id, &was) in agents.iter().zip(&before) {
            let now = ring.place(id).unwrap();
            if was == 2 {
                assert_ne!(now, 2, "dead shard must not be chosen");
                moved += 1;
            } else {
                assert_eq!(now, was, "{id:?} was not on the dead shard but moved");
            }
        }
        // Expected share is K/N = 400; assert the bound with headroom
        // for virtual-point variance, and that *something* lived there.
        assert!(moved > 0, "shard 2 owned part of the fleet");
        assert!(
            moved < 2 * 2000 / 5,
            "removal of 1-of-5 moved {moved}/2000 agents — more than 2×K/N"
        );
    }

    #[test]
    fn re_adding_a_shard_restores_the_original_placement() {
        let agents = fleet(1000);
        let mut ring = ring_of(3);
        let before: Vec<u32> = agents.iter().map(|id| ring.place(id).unwrap()).collect();
        ring.remove_shard(1);
        ring.add_shard(1);
        for (id, &was) in agents.iter().zip(&before) {
            assert_eq!(
                ring.place(id).unwrap(),
                was,
                "placement is a pure function of the shard set"
            );
        }
    }

    #[test]
    fn add_is_idempotent_and_len_tracks() {
        let mut ring = ring_of(2);
        assert_eq!(ring.len(), 2);
        ring.add_shard(1);
        assert_eq!(ring.len(), 2, "re-add is a no-op");
        let points_before = ring.points.len();
        ring.add_shard(1);
        assert_eq!(ring.points.len(), points_before, "no duplicate points");
        ring.remove_shard(0);
        assert_eq!(ring.len(), 1);
        assert!(!ring.contains(0));
        assert!(ring.contains(1));
        assert_eq!(ring.shards().collect::<Vec<_>>(), vec![1]);
    }
}
