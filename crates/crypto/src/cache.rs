//! [`Derived`]: a memoization slot for values derivable from their
//! containing struct.
//!
//! The attestation hot path memoizes expensive derived values (template
//! hashes) directly inside the structs they belong to. Those caches must
//! never travel on the wire — a peer-supplied cache would be an integrity
//! hole — so `Derived<T>` has no serde impls: a struct holding one writes
//! its codec by hand, without the cache, and the receiver recomputes from
//! the authoritative fields. Equality likewise ignores cache state: two
//! structs differing only in what they have memoized are equal.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// A write-once memoization slot (see the module docs).
///
/// Thin wrapper over [`OnceLock`]; `&self` callers fill it via
/// [`Derived::get_or_init`], `&mut self` callers invalidate it with
/// [`Derived::clear`] after mutating the fields it was derived from.
///
/// # Examples
///
/// ```
/// use cia_crypto::cache::Derived;
///
/// let slot: Derived<u64> = Derived::new();
/// assert_eq!(slot.get(), None);
/// assert_eq!(*slot.get_or_init(|| 42), 42);
/// assert_eq!(*slot.get_or_init(|| 7), 42, "initialized once");
/// ```
pub struct Derived<T>(OnceLock<T>);

impl<T> Derived<T> {
    /// An empty slot.
    pub fn new() -> Self {
        Derived(OnceLock::new())
    }

    /// The cached value, if one was computed.
    pub fn get(&self) -> Option<&T> {
        self.0.get()
    }

    /// Returns the cached value, computing and storing it on first use.
    pub fn get_or_init(&self, init: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(init)
    }

    /// Drops the cached value; the next [`Derived::get_or_init`]
    /// recomputes. Call after mutating the fields the value derives from.
    pub fn clear(&mut self) {
        self.0 = OnceLock::new();
    }
}

impl<T> Default for Derived<T> {
    fn default() -> Self {
        Derived::new()
    }
}

impl<T: Clone> Clone for Derived<T> {
    fn clone(&self) -> Self {
        Derived(self.0.clone())
    }
}

impl<T: fmt::Debug> fmt::Debug for Derived<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.get() {
            Some(v) => write!(f, "Derived({v:?})"),
            None => f.write_str("Derived(<empty>)"),
        }
    }
}

/// Cache state never participates in equality: the derived value is a
/// function of the semantic fields, which are compared by the container.
impl<T> PartialEq for Derived<T> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl<T> Eq for Derived<T> {}

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
    fn init_once_and_clear() {
        let mut slot: Derived<String> = Derived::new();
        assert_eq!(slot.get(), None);
        assert_eq!(slot.get_or_init(|| "a".into()), "a");
        assert_eq!(slot.get_or_init(|| "b".into()), "a");
        slot.clear();
        assert_eq!(slot.get_or_init(|| "b".into()), "b");
    }

    #[test]
    fn clone_carries_the_cache() {
        let slot: Derived<u32> = Derived::new();
        slot.get_or_init(|| 9);
        assert_eq!(slot.clone().get(), Some(&9));
    }

    #[test]
    fn equality_ignores_cache_state() {
        let full: Derived<u32> = Derived::new();
        full.get_or_init(|| 3);
        let empty: Derived<u32> = Derived::new();
        assert_eq!(full, empty);
    }

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
