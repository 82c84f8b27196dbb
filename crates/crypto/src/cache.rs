//! [`DigestCache`]: a content-addressed cache of rendered file digests.
//!
//! The policy generator hashes the same mirror files day after day; the
//! cache keys each by its content identity so an unchanged file is hashed
//! once. (The verifier's own memo of ima-ng template hashes is
//! `cia_ima::TemplateHashMemo`, keyed by the template's inputs.)

use std::collections::BTreeMap;
use std::fmt;

/// A content-addressed digest cache.
///
/// Keys are *content identities* — any `u64` that uniquely determines the
/// bytes being hashed (the simulated mirror derives file bytes purely from
/// a content seed, so the seed is the identity). Values are rendered hex
/// digests. Unchanged files across daily policy regenerations hit the
/// cache and skip the SHA-256 entirely; hit/miss counters let callers
/// assert cache effectiveness without timing.
///
/// Plain owned state: a hashing worker pool returns its digests to the
/// cache's owner, which [`DigestCache::insert`]s them after the join.
#[derive(Default)]
pub struct DigestCache {
    map: BTreeMap<u64, String>,
    hits: u64,
    misses: u64,
}

impl DigestCache {
    /// An empty cache.
    pub fn new() -> Self {
        DigestCache::default()
    }

    /// Whether `key` is already cached (does not count as a hit).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Stores a digest computed for `key`, counting it as a miss.
    pub fn insert(&mut self, key: u64, digest: String) {
        self.misses += 1;
        self.map.insert(key, digest);
    }

    /// Returns the cached digest for `key`, counting a hit, or computes
    /// and stores it, counting a miss.
    pub fn get_or_compute(&mut self, key: u64, compute: impl FnOnce() -> String) -> String {
        if let Some(found) = self.map.get(&key) {
            self.hits += 1;
            return found.clone();
        }
        let digest = compute();
        self.insert(key, digest.clone());
        digest
    }

    /// Number of cached digests.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from the cache.
    pub fn hit_count(&self) -> u64 {
        self.hits
    }

    /// Digests computed.
    pub fn miss_count(&self) -> u64 {
        self.misses
    }
}

impl fmt::Debug for DigestCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DigestCache")
            .field("len", &self.len())
            .field("hits", &self.hit_count())
            .field("misses", &self.miss_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_cache_counts_hits_and_misses() {
        let mut cache = DigestCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.get_or_compute(7, || "aa".into()), "aa");
        assert_eq!(cache.get_or_compute(7, || "bb".into()), "aa");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
        assert!(cache.contains(7));
        assert!(!cache.contains(8));
        // `contains` probes do not disturb the counters.
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
    }
}
