//! [`Derived`]: a memoization slot for values derivable from their
//! containing struct.
//!
//! The attestation hot path memoizes expensive derived values (template
//! hashes, policy size totals) directly inside the structs they belong to.
//! Those caches must never travel on the wire — a peer-supplied cache
//! would be an integrity hole, and the wire format should not change
//! shape with cache state — so `Derived<T>` serializes to `null` and
//! deserializes to an empty slot regardless of input, forcing the
//! receiver to recompute from the authoritative fields. Equality likewise
//! ignores cache state: two structs differing only in what they have
//! memoized are equal.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use serde::{DeError, Deserialize, Serialize, Value};

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

    /// Mutable access to the cached value, if one was computed.
    pub fn get_mut(&mut self) -> Option<&mut T> {
        self.0.get_mut()
    }

    /// Pre-populates an empty slot (e.g. with a value that was computed
    /// as a by-product of construction). A no-op when already filled.
    pub fn prime(&self, value: T) {
        let _ = self.0.set(value);
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

/// Always `null` on the wire — caches are recomputed, never trusted.
impl<T> Serialize for Derived<T> {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

/// Always deserializes to an empty slot, whatever the input holds.
impl<T> Deserialize for Derived<T> {
    fn from_value(_value: &Value) -> Result<Self, DeError> {
        Ok(Derived::new())
    }
}

/// A content-addressed digest cache shared across hashing workers.
///
/// Keys are *content identities* — any `u64` that uniquely determines the
/// bytes being hashed (the simulated mirror derives file bytes purely from
/// a content seed, so the seed is the identity). Values are rendered hex
/// digests. Unchanged files across daily policy regenerations hit the
/// cache and skip the SHA-256 entirely; hit/miss counters let callers
/// assert cache effectiveness without timing.
///
/// Interior mutability (`RwLock`) so a worker pool can consult and fill
/// the cache through a shared `&DigestCache`.
#[derive(Default)]
pub struct DigestCache {
    map: RwLock<HashMap<u64, String>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DigestCache {
    /// An empty cache.
    pub fn new() -> Self {
        DigestCache::default()
    }

    /// Whether `key` is already cached (does not count as a hit).
    pub fn contains(&self, key: u64) -> bool {
        self.map
            .read()
            .expect("digest cache poisoned")
            .contains_key(&key)
    }

    /// The cached digest for `key`, counting a hit or miss.
    pub fn get(&self, key: u64) -> Option<String> {
        let found = self
            .map
            .read()
            .expect("digest cache poisoned")
            .get(&key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a computed digest (last writer wins; workers racing on the
    /// same content identity compute identical digests).
    pub fn insert(&self, key: u64, digest: String) {
        self.map
            .write()
            .expect("digest cache poisoned")
            .insert(key, digest);
    }

    /// Returns the cached digest for `key`, computing and storing it on a
    /// miss. Hit/miss counters are updated either way.
    pub fn get_or_compute(&self, key: u64, compute: impl FnOnce() -> String) -> String {
        if let Some(found) = self.get(key) {
            return found;
        }
        let digest = compute();
        self.insert(key, digest.clone());
        digest
    }

    /// Number of cached digests.
    pub fn len(&self) -> usize {
        self.map.read().expect("digest cache poisoned").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found a cached digest.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
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
    fn prime_fills_only_empty_slots() {
        let slot: Derived<u32> = Derived::new();
        slot.prime(1);
        slot.prime(2);
        assert_eq!(slot.get(), Some(&1));
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
    fn serializes_to_null_and_deserializes_empty() {
        let full: Derived<u32> = Derived::new();
        full.get_or_init(|| 3);
        assert_eq!(full.to_value(), Value::Null);
        let back = Derived::<u32>::from_value(&Value::U64(99)).unwrap();
        assert_eq!(back.get(), None);
    }

    #[test]
    fn digest_cache_counts_hits_and_misses() {
        let cache = DigestCache::new();
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

    #[test]
    fn digest_cache_shared_across_threads() {
        let cache = DigestCache::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for key in 0..32 {
                        cache.get_or_compute(key, || format!("digest-{key}-{t}"));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 32);
        // Racing writers on the same identity compute the same bytes in
        // real use; here we only assert one value per key survived.
        for key in 0..32 {
            assert!(cache.contains(key));
        }
    }
}
