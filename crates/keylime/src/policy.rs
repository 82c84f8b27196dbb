//! Keylime runtime policies: the allowlist the verifier checks IMA
//! entries against.
//!
//! A policy maps file paths to sets of acceptable SHA-256 digests and
//! carries an *exclude list* of path prefixes the verifier skips. The
//! studied policy excluded `/tmp` and friends — **P1** — which is why the
//! exclude list is explicit and queryable here.
//!
//! Multiple digests per path are intentional: during an update window the
//! dynamic generator appends the new digest while *retaining* the old one
//! so that a machine mid-upgrade stays in policy (§III-C "Handling
//! Policy-File Consistency During Update"); after the update, outdated
//! digests are dropped ([`RuntimePolicy::dedup_retain`]).
//!
//! The `path → {hex digest}` map is the policy's only representation: range
//! chunks of a few hundred paths, shared by `Arc`. A clone copies only the
//! chunk index and a mutator copies only the chunk it edits, so a delta
//! costs O(delta), not O(policy), and an older epoch still pinned shares
//! every chunk the delta left alone.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound::{Included, Unbounded};
use std::sync::Arc;

use cia_crypto::{hex, Derived, Digest};
use serde::{DeError, Deserialize, JsonReader, JsonWriter, Serialize};

use crate::error::KeylimeError;

/// Most paths one chunk holds: an insert past it splits the chunk in two.
const CHUNK_PATHS: usize = 256;

thread_local! {
    /// See [`RuntimePolicy::chunk_copy_count`].
    static CHUNK_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// One path range of a policy's digest map, shared by every policy that has
/// not edited it; the first edit copies it ([`Arc::make_mut`]), counted.
#[derive(Default)]
struct Chunk(BTreeMap<String, BTreeSet<String>>);

impl Clone for Chunk {
    fn clone(&self) -> Self {
        CHUNK_COPIES.with(|n| n.set(n.get() + 1));
        Chunk(self.0.clone())
    }
}

/// The digest map as non-empty chunks, each holding the paths from its
/// bound (fixed when it is created) up to the next chunk's. Equality,
/// `Debug` and the JSON document see entries, never chunk boundaries.
#[derive(Clone, Default)]
struct Digests(BTreeMap<Arc<str>, Arc<Chunk>>);

impl Digests {
    /// The chunk whose range holds `path`, under its bound (none below all).
    fn chunk_of(&self, path: &str) -> Option<(&Arc<str>, &Arc<Chunk>)> {
        self.0
            .range::<str, _>((Unbounded, Included(path)))
            .next_back()
    }

    fn get(&self, path: &str) -> Option<&BTreeSet<String>> {
        self.chunk_of(path)?.1 .0.get(path)
    }

    fn iter(&self) -> impl Iterator<Item = (&String, &BTreeSet<String>)> {
        self.0.values().flat_map(|c| c.0.iter())
    }

    /// [`Digests::chunk_of`] for editing through [`Arc::make_mut`].
    fn slot(&mut self, path: &str) -> Option<(&Arc<str>, &mut Arc<Chunk>)> {
        // Appends, the generator's common edit, need no search.
        let last = self.0.last_key_value();
        if last.is_some_and(|(bound, _)| **bound <= *path) {
            return self.0.iter_mut().next_back();
        }
        self.0
            .range_mut::<str, _>((Unbounded, Included(path)))
            .next_back()
    }

    /// Adds `digest` to `path`'s set (false if there), halving a full chunk.
    fn insert(&mut self, path: String, digest: String) -> bool {
        let Some((_, slot)) = self.slot(&path) else {
            let chunk = Chunk(BTreeMap::from([(path.clone(), BTreeSet::from([digest]))]));
            self.0.insert(path.into(), Arc::new(chunk));
            return true;
        };
        // Look before editing only when the edit would copy the chunk.
        if Arc::get_mut(slot).is_none() && slot.0.get(&path).is_some_and(|d| d.contains(&digest)) {
            return false;
        }
        let chunk = &mut Arc::make_mut(slot).0;
        if !chunk.entry(path).or_default().insert(digest) {
            return false;
        }
        if chunk.len() > CHUNK_PATHS {
            if let Some(mid) = chunk.keys().nth(chunk.len() / 2).cloned() {
                let upper = Chunk(chunk.split_off(&mid));
                self.0.insert(mid.into(), Arc::new(upper));
            }
        }
        true
    }

    /// Removes `path` and returns how many digests went; an emptied chunk
    /// goes too, and the chunk below takes over its range.
    fn remove(&mut self, path: &str) -> Option<usize> {
        let (bound, slot) = self.slot(path).filter(|(_, c)| c.0.contains_key(path))?;
        let bound = Arc::clone(bound);
        let chunk = &mut Arc::make_mut(slot).0;
        let removed = chunk.remove(path).map(|set| set.len());
        if chunk.is_empty() {
            self.0.remove(&bound);
        }
        removed
    }

    /// Drops every digest of `path` but `keep`, if `keep` is among them
    /// and there are others; returns how many went.
    fn retain_only(&mut self, path: &str, keep: &str) -> Option<usize> {
        let (_, slot) = self.slot(path)?;
        let others_and_keep = |s: &&BTreeSet<String>| s.len() > 1 && s.contains(keep);
        let removed = slot.0.get(path).filter(others_and_keep)?.len() - 1;
        Arc::make_mut(slot).0.get_mut(path)?.retain(|d| d == keep);
        Some(removed)
    }
}

impl PartialEq for Digests {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Digests {}

impl fmt::Debug for Digests {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The document's `digests` object, exactly as a `BTreeMap` writes it.
impl Serialize for Digests {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (path, set) in self.iter() {
            w.key(path);
            set.write_json(w);
        }
        w.end_object();
    }
}

/// Reads the `digests` object as full chunks cut from the top down.
impl Deserialize for Digests {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let mut rest = BTreeMap::read_json(r)?;
        let mut chunks = BTreeMap::new();
        while let Some(bound) = rest.keys().nth_back(CHUNK_PATHS - 1).cloned() {
            let top = Chunk(rest.split_off(&bound));
            chunks.insert(bound.into(), Arc::new(top));
        }
        if let Some(bound) = rest.keys().next().cloned() {
            chunks.insert(bound.into(), Arc::new(Chunk(rest)));
        }
        Ok(Digests(chunks))
    }
}

/// Policy document metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyMeta {
    /// Monotonic policy version (bumped on every regeneration).
    pub version: u64,
    /// Tool that produced the policy.
    pub generator: String,
    /// Simulation day the policy was generated on.
    pub generated_day: u32,
}

/// Result of checking one measurement against the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyCheck {
    /// The digest matches an allowed digest for the path.
    Allowed,
    /// The path falls under an exclude prefix; not evaluated (P1).
    Excluded,
    /// The path is known but the digest is not allowed
    /// ("hash mismatch" in §III-B).
    HashMismatch {
        /// The allowed digests for the path.
        expected: Vec<String>,
    },
    /// The path is absent from the policy
    /// ("missing file in the policy" in §III-B).
    NotInPolicy,
}

/// What changed between two policy versions (see [`RuntimePolicy::diff`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyDiff {
    /// Paths present only in the newer policy.
    pub added_paths: Vec<String>,
    /// Paths removed by the newer policy.
    pub removed_paths: Vec<String>,
    /// Paths whose digest sets changed.
    pub changed_paths: Vec<String>,
    /// Exclude prefixes the newer policy gained.
    pub added_excludes: Vec<String>,
    /// Exclude prefixes the newer policy dropped.
    pub removed_excludes: Vec<String>,
}

impl PolicyDiff {
    /// True when the two policies are structurally identical.
    pub fn is_empty(&self) -> bool {
        self.added_paths.is_empty()
            && self.removed_paths.is_empty()
            && self.changed_paths.is_empty()
            && self.added_excludes.is_empty()
            && self.removed_excludes.is_empty()
    }
}

/// One update window's worth of policy change, as emitted by the dynamic
/// generator: what travels to the verifier instead of the full document.
///
/// [`RuntimePolicy::apply_delta`] replays a delta in a fixed order —
/// removals, then additions, then retirements — so a path that appears in
/// more than one list (the common case: a digest added during the window
/// and deduplicated at its close, or a kernel path dropped and re-added
/// on reboot) resolves deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyDelta {
    /// `(path, digest)` pairs appended during the window (update-window
    /// retention: existing digests stay allowed).
    pub added: Vec<(String, String)>,
    /// Paths dropped entirely (e.g. modules of the kernel a reboot
    /// retired).
    pub removed_paths: Vec<String>,
    /// `(path, canonical digest)` pairs from post-window deduplication:
    /// every other digest for the path is dropped.
    pub retired: Vec<(String, String)>,
    /// Kernel releases whose entries were staged (not yet active) during
    /// the window; informational for operators and metrics.
    pub staged_kernels: Vec<String>,
    /// Metadata of the policy the delta advances to.
    pub meta: PolicyMeta,
}

impl PolicyDelta {
    /// True when applying the delta would not change any entry (metadata
    /// updates alone do not count).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed_paths.is_empty() && self.retired.is_empty()
    }

    /// Total entry operations carried (adds + removals + retirements) —
    /// the `delta_entries_applied` metric.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed_paths.len() + self.retired.len()
    }
}

/// The verifier-side allowlist for one machine.
///
/// # Examples
///
/// ```
/// use cia_keylime::{PolicyCheck, RuntimePolicy};
///
/// let mut policy = RuntimePolicy::new();
/// policy.allow("/usr/bin/ls", "aa11");
/// policy.exclude("/tmp");
///
/// assert_eq!(policy.check("/usr/bin/ls", "aa11"), PolicyCheck::Allowed);
/// assert_eq!(policy.check("/tmp/anything", "??"), PolicyCheck::Excluded);
/// assert_eq!(policy.check("/usr/bin/xz", "bb"), PolicyCheck::NotInPolicy);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimePolicy {
    /// Path → allowed SHA-256 digests (lowercase hex).
    digests: Digests,
    /// Path prefixes the verifier does not evaluate.
    excludes: Vec<String>,
    /// Document metadata.
    pub meta: PolicyMeta,
    /// Cached line total (see [`RuntimePolicy::line_count`]); maintained
    /// incrementally by [`RuntimePolicy::allow`]/
    /// [`RuntimePolicy::remove_path`]/[`RuntimePolicy::dedup_retain`]
    /// once first computed.
    totals: Derived<u64>,
}

impl RuntimePolicy {
    /// An empty policy (everything unexpected will alert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the cached line total, once computed, by `lines`.
    fn count(&mut self, lines: i64) {
        if let Some(total) = self.totals.get_mut() {
            *total = total.wrapping_add_signed(lines);
        }
    }

    /// Adds `digest` to the allowed set for `path` (existing digests are
    /// retained — the update-window consistency rule).
    pub fn allow(&mut self, path: impl Into<String>, digest: impl Into<String>) {
        if self.digests.insert(path.into(), digest.into()) {
            self.count(1);
        }
    }

    /// Adds an exclude prefix (e.g. `/tmp`). Paths equal to it or below
    /// it are skipped during verification.
    pub fn exclude(&mut self, prefix: impl Into<String>) {
        let prefix = prefix.into();
        if !self.excludes.contains(&prefix) {
            self.excludes.push(prefix);
        }
    }

    /// The exclude prefixes.
    pub fn excludes(&self) -> &[String] {
        &self.excludes
    }

    /// Removes an exclude prefix (the §IV-C "enrich the policy" fix),
    /// returning whether it was present.
    pub fn remove_exclude(&mut self, prefix: &str) -> bool {
        let before = self.excludes.len();
        self.excludes.retain(|e| e != prefix);
        self.excludes.len() != before
    }

    /// True when `path` is covered by an exclude prefix: `e` covers
    /// `path` iff `path == e` or `path` continues with `/` right after
    /// `e` (`/tmp` covers `/tmp` and `/tmp/a`, never `/tmpfile`). A scan —
    /// policies carry a handful of prefixes.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.excludes.iter().any(|e| {
            path.strip_prefix(e.as_str())
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        })
    }

    /// Checks one measured `(path, digest)` pair given as hex text.
    /// Zero heap allocations on the `Allowed`/`Excluded`/`NotInPolicy`
    /// outcomes; `HashMismatch` allocates its diagnostic `expected` list
    /// — that is the alert path, not the steady state.
    pub fn check(&self, path: &str, digest_hex: &str) -> PolicyCheck {
        if self.is_excluded(path) {
            return PolicyCheck::Excluded;
        }
        self.lookup(path, digest_hex)
    }

    /// [`RuntimePolicy::check`] for a measured [`Digest`] — the
    /// verifier's hot path. The digest is rendered to lowercase hex in a
    /// stack buffer (no `String`), so a policy entry matches exactly when
    /// it is that rendering: upper-case, odd-length and non-hex entries
    /// never do. Exclusion is tested first so a skipped path costs no
    /// rendering.
    pub fn check_digest(&self, path: &str, digest: &Digest) -> PolicyCheck {
        if self.is_excluded(path) {
            return PolicyCheck::Excluded;
        }
        // A digest is at most 32 bytes, and hex digits are ASCII: the
        // buffer always fits and the rendering is always valid UTF-8.
        let mut buf = [0u8; 64];
        let len = hex::encode_to_slice(digest.as_bytes(), &mut buf);
        self.lookup(path, std::str::from_utf8(&buf[..len]).unwrap_or_default())
    }

    /// The one map lookup behind both checks, for a path already known
    /// not to be excluded.
    fn lookup(&self, path: &str, digest_hex: &str) -> PolicyCheck {
        match self.digests.get(path) {
            Some(allowed) if allowed.contains(digest_hex) => PolicyCheck::Allowed,
            Some(allowed) => PolicyCheck::HashMismatch {
                expected: allowed.iter().cloned().collect(),
            },
            None => PolicyCheck::NotInPolicy,
        }
    }

    /// Iterates over `(path, digests)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (&String, &BTreeSet<String>)> {
        self.digests.iter()
    }

    /// The allowed digest set for `path`.
    pub fn digests_for(&self, path: &str) -> Option<&BTreeSet<String>> {
        self.digests.get(path)
    }

    /// Number of distinct paths.
    pub fn path_count(&self) -> usize {
        self.digests.0.values().map(|c| c.0.len()).sum()
    }

    /// Number of `(path, digest)` pairs — the paper's "lines". Served
    /// from the cached total (computed once, then maintained by the
    /// mutators) instead of a full traversal.
    pub fn line_count(&self) -> usize {
        let total = self
            .totals
            .get_or_init(|| self.digests.iter().map(|(_, s)| s.len() as u64).sum());
        *total as usize
    }

    /// Drops every digest for `path` except `keep` (post-update
    /// deduplication).
    pub fn dedup_retain(&mut self, path: &str, keep: &str) {
        let removed = self.digests.retain_only(path, keep).unwrap_or(0);
        self.count(-(removed as i64));
    }

    /// Removes a path entirely (e.g. disallowing outdated kernel modules).
    pub fn remove_path(&mut self, path: &str) -> bool {
        let removed = self.digests.remove(path);
        self.count(-(removed.unwrap_or(0) as i64));
        removed.is_some()
    }

    /// Structural difference against an older policy — what an operator
    /// reviews before approving a generated update.
    pub fn diff(&self, older: &RuntimePolicy) -> PolicyDiff {
        let mut diff = PolicyDiff::default();
        for (path, digests) in self.digests.iter() {
            match older.digests.get(path) {
                None => diff.added_paths.push(path.clone()),
                Some(old) if old != digests => diff.changed_paths.push(path.clone()),
                Some(_) => {}
            }
        }
        for (path, _) in older.digests.iter() {
            if self.digests.get(path).is_none() {
                diff.removed_paths.push(path.clone());
            }
        }
        for e in &self.excludes {
            if !older.excludes.contains(e) {
                diff.added_excludes.push(e.clone());
            }
        }
        for e in &older.excludes {
            if !self.excludes.contains(e) {
                diff.removed_excludes.push(e.clone());
            }
        }
        diff
    }

    /// Serializes to the Keylime-style JSON document.
    pub fn to_json(&self) -> String {
        // lint:allow(panic-path): Policy is a closed struct of strings,
        // maps, and ints — every value is wire-representable by
        // construction, so this encode is infallible in practice and a
        // Result would push unreachable error arms onto every caller.
        serde_json::to_string(self).expect("policy serialization cannot fail")
    }

    /// Parses a policy from JSON.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::PolicyFormat`] on malformed documents.
    pub fn from_json(text: &str) -> Result<Self, KeylimeError> {
        serde_json::from_str(text).map_err(|e| KeylimeError::PolicyFormat {
            reason: e.to_string(),
        })
    }

    /// Applies one generator-emitted delta in order — removals, then
    /// additions, then retirements — and adopts the delta's metadata.
    /// Returns the number of entry operations applied. In place,
    /// O(delta · log policy): nothing is laid out again.
    pub fn apply_delta(&mut self, delta: &PolicyDelta) -> usize {
        for path in &delta.removed_paths {
            self.remove_path(path);
        }
        for (path, digest) in &delta.added {
            self.allow(path.clone(), digest.clone());
        }
        for (path, keep) in &delta.retired {
            self.dedup_retain(path, keep);
        }
        self.meta = delta.meta.clone();
        delta.len()
    }

    /// How many of this policy's chunks `delta`'s paths fall in: the most it
    /// copies, unless its adds land in a chunk its removals emptied.
    pub fn chunks_touched(&self, delta: &PolicyDelta) -> usize {
        let paths = (delta.removed_paths.iter())
            .chain(delta.added.iter().map(|(path, _)| path))
            .chain(delta.retired.iter().map(|(path, _)| path));
        let chunks: BTreeSet<_> = paths
            .map(|p| self.digests.chunk_of(p).map(|c| c.0))
            .collect();
        chunks.len()
    }

    /// Digest-map chunks the calling thread has copied so far: the first
    /// edit of a chunk that another policy (an older epoch) still shares.
    /// `tests/hot_path_gates.rs` bounds a publish's copies with this.
    pub fn chunk_copy_count() -> u64 {
        CHUNK_COPIES.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_and_check() {
        let mut p = RuntimePolicy::new();
        p.allow("/usr/bin/ls", "aa");
        assert_eq!(p.check("/usr/bin/ls", "aa"), PolicyCheck::Allowed);
        assert_eq!(
            p.check("/usr/bin/ls", "bb"),
            PolicyCheck::HashMismatch {
                expected: vec!["aa".to_string()]
            }
        );
        assert_eq!(p.check("/usr/bin/cat", "aa"), PolicyCheck::NotInPolicy);
    }

    #[test]
    fn multiple_digests_during_update_window() {
        let mut p = RuntimePolicy::new();
        p.allow("/usr/bin/curl", "old");
        p.allow("/usr/bin/curl", "new");
        // Both versions pass mid-update.
        assert_eq!(p.check("/usr/bin/curl", "old"), PolicyCheck::Allowed);
        assert_eq!(p.check("/usr/bin/curl", "new"), PolicyCheck::Allowed);
        assert_eq!(p.line_count(), 2);
        // Post-update dedup drops the outdated digest.
        p.dedup_retain("/usr/bin/curl", "new");
        assert_eq!(
            p.check("/usr/bin/curl", "old"),
            PolicyCheck::HashMismatch {
                expected: vec!["new".to_string()]
            }
        );
        assert_eq!(p.line_count(), 1);
    }

    #[test]
    fn dedup_keeps_all_when_keep_absent() {
        let mut p = RuntimePolicy::new();
        p.allow("/x", "a");
        p.dedup_retain("/x", "zz");
        assert_eq!(p.check("/x", "a"), PolicyCheck::Allowed);
    }

    #[test]
    fn exclude_prefix_boundaries() {
        let mut p = RuntimePolicy::new();
        p.exclude("/tmp");
        assert!(p.is_excluded("/tmp"));
        assert!(p.is_excluded("/tmp/a/b"));
        assert!(!p.is_excluded("/tmpfile"));
        assert_eq!(p.check("/tmp/evil", "whatever"), PolicyCheck::Excluded);
    }

    #[test]
    fn remove_exclude_enriches() {
        let mut p = RuntimePolicy::new();
        p.exclude("/tmp");
        assert!(p.remove_exclude("/tmp"));
        assert!(!p.remove_exclude("/tmp"));
        assert_eq!(p.check("/tmp/evil", "x"), PolicyCheck::NotInPolicy);
    }

    #[test]
    fn json_roundtrip() {
        let mut p = RuntimePolicy::new();
        p.allow("/usr/bin/ls", "aa");
        p.exclude("/tmp");
        p.meta.version = 7;
        p.meta.generator = "dynamic-policy-generator".into();
        let parsed = RuntimePolicy::from_json(&p.to_json()).unwrap();
        assert_eq!(parsed, p);
        assert!(RuntimePolicy::from_json("{not json").is_err());
    }

    #[test]
    fn size_accounting() {
        let mut p = RuntimePolicy::new();
        p.allow("/usr/bin/ls", "a".repeat(64));
        assert_eq!(p.line_count(), 1);
        assert_eq!(p.path_count(), 1);
    }

    #[test]
    fn diff_classifies_changes() {
        let mut old = RuntimePolicy::new();
        old.allow("/usr/bin/stays", "aa");
        old.allow("/usr/bin/changes", "aa");
        old.allow("/usr/bin/goes", "aa");
        old.exclude("/tmp");

        let mut new = RuntimePolicy::new();
        new.allow("/usr/bin/stays", "aa");
        new.allow("/usr/bin/changes", "bb");
        new.allow("/usr/bin/arrives", "cc");
        new.exclude("/var/tmp");

        let diff = new.diff(&old);
        assert_eq!(diff.added_paths, vec!["/usr/bin/arrives".to_string()]);
        assert_eq!(diff.removed_paths, vec!["/usr/bin/goes".to_string()]);
        assert_eq!(diff.changed_paths, vec!["/usr/bin/changes".to_string()]);
        assert_eq!(diff.added_excludes, vec!["/var/tmp".to_string()]);
        assert_eq!(diff.removed_excludes, vec!["/tmp".to_string()]);
        assert!(!diff.is_empty());
    }

    #[test]
    fn diff_of_identical_policies_is_empty() {
        let mut p = RuntimePolicy::new();
        p.allow("/a", "aa");
        p.exclude("/tmp");
        assert!(p.diff(&p.clone()).is_empty());
        assert!(RuntimePolicy::new().diff(&RuntimePolicy::new()).is_empty());
    }

    fn assert_totals_match(p: &RuntimePolicy) {
        let lines: usize = p.entries().map(|(_, s)| s.len()).sum();
        assert_eq!(p.line_count(), lines);
    }

    #[test]
    fn cached_totals_track_every_mutator() {
        let mut p = RuntimePolicy::new();
        assert_totals_match(&p); // warms the cache; increments from here on
        p.allow("/usr/bin/a", "aa");
        p.allow("/usr/bin/a", "bb");
        p.allow("/usr/bin/bb", "cc");
        p.allow("/usr/bin/a", "aa"); // duplicate: no change
        assert_totals_match(&p);
        p.dedup_retain("/usr/bin/a", "aa");
        assert_totals_match(&p);
        p.dedup_retain("/usr/bin/a", "zz"); // keep absent: no change
        assert_totals_match(&p);
        assert!(p.remove_path("/usr/bin/bb"));
        assert!(!p.remove_path("/usr/bin/bb"));
        assert_totals_match(&p);
        assert_eq!(p.line_count(), 1);
    }

    #[test]
    fn check_digest_agrees_with_legacy_check() {
        use cia_crypto::HashAlgorithm;
        let mut p = RuntimePolicy::new();
        let good = HashAlgorithm::Sha256.digest(b"good");
        let bad = HashAlgorithm::Sha256.digest(b"bad");
        p.allow("/usr/bin/ls", good.to_hex());
        p.exclude("/tmp");
        for (path, digest) in [
            ("/usr/bin/ls", &good),
            ("/usr/bin/ls", &bad),
            ("/usr/bin/unknown", &good),
            ("/tmp/scratch", &bad),
            ("/tmp", &bad),
        ] {
            assert_eq!(
                p.check_digest(path, digest),
                p.check(path, &digest.to_hex()),
                "divergence at {path}"
            );
        }
    }

    #[test]
    fn check_digest_ignores_noncanonical_entries() {
        use cia_crypto::HashAlgorithm;
        let d = HashAlgorithm::Sha256.digest(b"content");
        let mut p = RuntimePolicy::new();
        // Uppercase, odd-length and non-hex entries can never equal the
        // lowercase hex a measured digest renders to.
        p.allow("/x", d.to_hex().to_uppercase());
        p.allow("/x", "abc");
        p.allow("/x", "not-hex!");
        assert!(matches!(
            p.check_digest("/x", &d),
            PolicyCheck::HashMismatch { .. }
        ));
        assert_eq!(p.check_digest("/x", &d), p.check("/x", &d.to_hex()));
        // The canonical entry still matches alongside the junk.
        p.allow("/x", d.to_hex());
        assert_eq!(p.check_digest("/x", &d), PolicyCheck::Allowed);
    }

    #[test]
    fn check_digest_distinguishes_sha1_from_sha256_prefix() {
        use cia_crypto::HashAlgorithm;
        let sha1 = HashAlgorithm::Sha1.digest(b"content");
        let mut p = RuntimePolicy::new();
        // A 64-char entry whose first 40 chars equal the sha1 hex must
        // not match the 20-byte digest.
        p.allow("/y", format!("{}{}", sha1.to_hex(), "0".repeat(24)));
        assert!(matches!(
            p.check_digest("/y", &sha1),
            PolicyCheck::HashMismatch { .. }
        ));
        p.allow("/y", sha1.to_hex());
        assert_eq!(p.check_digest("/y", &sha1), PolicyCheck::Allowed);
    }

    #[test]
    fn exclusion_semantics_survive_many_prefixes() {
        let mut p = RuntimePolicy::new();
        for prefix in ["/var/tmp", "/tmp", "/run", "/var", "/opt/scratch"] {
            p.exclude(prefix);
        }
        assert!(p.is_excluded("/tmp"));
        assert!(p.is_excluded("/tmp/a/b/c"));
        assert!(p.is_excluded("/var"));
        assert!(p.is_excluded("/var/tmp/x"));
        assert!(p.is_excluded("/var/lib/x"), "/var covers /var/lib");
        assert!(!p.is_excluded("/tmpfile"));
        assert!(!p.is_excluded("/varnish"));
        assert!(!p.is_excluded("/opt"));
        assert!(p.is_excluded("/opt/scratch/f"));
        // Removing one prefix re-admits only its subtree.
        assert!(p.remove_exclude("/var"));
        assert!(!p.is_excluded("/var/lib/x"));
        assert!(!p.is_excluded("/var"));
        assert!(p.is_excluded("/var/tmp/x"), "/var/tmp still excluded");

        // A prefix covers a path iff the path equals it or continues with
        // `/` right after it — one row per edge of that rule.
        let table: [(&str, &[&str], &[&str]); 4] = [
            ("/tmp", &["/tmp", "/tmp/a/b"], &["/tmpfile", "/tm", "/"]),
            ("", &["/", "/usr/bin/ls", ""], &["relative"]),
            ("/", &["/", "//x"], &["/x", "/tmp", ""]),
            ("/tmp/", &["/tmp/", "/tmp//x"], &["/tmp/x", "/tmp"]),
        ];
        for (prefix, covered, not_covered) in table {
            let mut p = RuntimePolicy::new();
            p.exclude(prefix);
            for path in covered {
                assert!(p.is_excluded(path), "{prefix:?} must cover {path:?}");
            }
            for path in not_covered {
                assert!(!p.is_excluded(path), "{prefix:?} must not cover {path:?}");
            }
        }
    }

    #[test]
    fn remove_path() {
        let mut p = RuntimePolicy::new();
        p.allow("/lib/modules/old/x.ko", "aa");
        assert!(p.remove_path("/lib/modules/old/x.ko"));
        assert!(!p.remove_path("/lib/modules/old/x.ko"));
        assert_eq!(
            p.check("/lib/modules/old/x.ko", "aa"),
            PolicyCheck::NotInPolicy
        );
    }

    fn hex_digest(tag: &str) -> String {
        use cia_crypto::HashAlgorithm;
        HashAlgorithm::Sha256.digest(tag.as_bytes()).to_hex()
    }

    /// Applies `delta` in place and checks the result — cached totals
    /// included — against the same policy rebuilt from its JSON document.
    fn assert_delta_matches_rebuild(base: &RuntimePolicy, delta: &PolicyDelta) {
        let mut incremental = base.clone();
        assert_totals_match(&incremental); // warm: the delta must maintain them
        incremental.apply_delta(delta);

        let rebuilt = RuntimePolicy::from_json(&incremental.to_json()).unwrap();
        assert!(incremental.diff(&rebuilt).is_empty());
        assert_eq!(incremental.meta, delta.meta);
        assert_totals_match(&incremental);
    }

    #[test]
    fn apply_delta_adds_removes_and_retires() {
        let mut base = RuntimePolicy::new();
        base.exclude("/tmp");
        for i in 0..50 {
            base.allow(
                format!("/usr/bin/tool-{i:02}"),
                hex_digest(&format!("v1-{i}")),
            );
        }
        base.allow("/lib/modules/5.15.0-1/a.ko", hex_digest("mod-a"));
        base.allow("/usr/bin/updated", hex_digest("old"));

        let delta = PolicyDelta {
            added: vec![
                ("/usr/bin/updated".into(), hex_digest("new")),
                ("/usr/bin/brand-new".into(), hex_digest("fresh")),
                ("/lib/modules/5.15.0-2/a.ko".into(), hex_digest("mod-a2")),
            ],
            removed_paths: vec!["/lib/modules/5.15.0-1/a.ko".into()],
            retired: vec![("/usr/bin/updated".into(), hex_digest("new"))],
            staged_kernels: vec![],
            meta: PolicyMeta {
                version: 9,
                generator: "dynamic-policy-generator".into(),
                generated_day: 3,
            },
        };
        assert_eq!(delta.len(), 5);
        assert!(!delta.is_empty());
        assert_delta_matches_rebuild(&base, &delta);

        let mut p = base.clone();
        p.apply_delta(&delta);
        use cia_crypto::HashAlgorithm;
        let new = HashAlgorithm::Sha256.digest(b"new");
        assert_eq!(
            p.check_digest("/usr/bin/updated", &new),
            PolicyCheck::Allowed
        );
        let old = HashAlgorithm::Sha256.digest(b"old");
        assert!(matches!(
            p.check_digest("/usr/bin/updated", &old),
            PolicyCheck::HashMismatch { .. }
        ));
        assert_eq!(
            p.check_digest("/lib/modules/5.15.0-1/a.ko", &new),
            PolicyCheck::NotInPolicy
        );
        assert_eq!(p.meta.version, 9);
    }

    #[test]
    fn apply_delta_remove_then_readd_keeps_only_new_digests() {
        let mut base = RuntimePolicy::new();
        base.allow("/lib/modules/5.15/x.ko", hex_digest("old-build"));
        base.allow("/keep", hex_digest("keep"));
        let delta = PolicyDelta {
            added: vec![("/lib/modules/5.15/x.ko".into(), hex_digest("new-build"))],
            removed_paths: vec!["/lib/modules/5.15/x.ko".into()],
            ..PolicyDelta::default()
        };
        assert_delta_matches_rebuild(&base, &delta);
        let mut p = base.clone();
        p.apply_delta(&delta);
        let set = p.digests_for("/lib/modules/5.15/x.ko").unwrap();
        assert_eq!(set.len(), 1);
        assert!(set.contains(&hex_digest("new-build")));
    }

    #[test]
    fn apply_delta_handles_noncanonical_and_empty_cases() {
        let mut base = RuntimePolicy::new();
        base.allow("/a", hex_digest("a"));
        // Non-canonical digests are kept in the document; they just never
        // match a measured digest.
        let delta = PolicyDelta {
            added: vec![
                ("/junk-only".into(), "NOT-HEX".into()),
                ("/a".into(), "ABCDEF".into()),
            ],
            ..PolicyDelta::default()
        };
        assert_delta_matches_rebuild(&base, &delta);
        // An empty delta is a metadata-only no-op.
        let empty = PolicyDelta::default();
        assert!(empty.is_empty());
        assert_delta_matches_rebuild(&base, &empty);
    }

    /// The copy counter counts chunk copies: a clone copies none, and an
    /// edit copies only the one chunk it touches.
    #[test]
    fn clone_counter_counts_deep_copies() {
        let mut p = RuntimePolicy::new();
        for i in 0..4 * CHUNK_PATHS {
            p.allow(format!("/usr/bin/tool-{i:05}"), hex_digest("v1"));
        }
        assert!(p.digests.0.len() >= 4, "{} chunks", p.digests.0.len());
        // The counter is per thread, so the counts here are exact.
        let before = RuntimePolicy::chunk_copy_count();
        let mut edited = p.clone();
        assert_eq!(
            RuntimePolicy::chunk_copy_count(),
            before,
            "a clone copies no chunk"
        );
        let delta = PolicyDelta {
            added: vec![("/usr/bin/tool-00001".into(), hex_digest("v2"))],
            retired: vec![("/usr/bin/tool-00002".into(), hex_digest("v1"))],
            ..PolicyDelta::default()
        };
        assert_eq!(p.chunks_touched(&delta), 1);
        edited.apply_delta(&delta);
        assert_eq!(RuntimePolicy::chunk_copy_count() - before, 1);
        // Idempotent edits copy nothing: the digest is there already, and
        // the retirement keeps the only digest.
        let mut again = p.clone();
        again.allow("/usr/bin/tool-00003", hex_digest("v1"));
        again.dedup_retain("/usr/bin/tool-00003", &hex_digest("v1"));
        assert!(!again.remove_path("/usr/bin/absent"));
        assert_eq!(RuntimePolicy::chunk_copy_count() - before, 1);
        assert_eq!(again, p);
        assert_eq!(p.digests_for("/usr/bin/tool-00001").unwrap().len(), 1);
        assert_eq!(edited.digests_for("/usr/bin/tool-00001").unwrap().len(), 2);
    }

    #[test]
    fn equality_and_debug_ignore_chunk_boundaries() {
        let mut forward = RuntimePolicy::new();
        let mut backward = RuntimePolicy::new();
        let paths: Vec<String> = (0..3 * CHUNK_PATHS).map(|i| format!("/p/{i:05}")).collect();
        for path in &paths {
            forward.allow(path.clone(), "aa");
        }
        for path in paths.iter().rev() {
            backward.allow(path.clone(), "aa");
        }
        let parsed = RuntimePolicy::from_json(&forward.to_json()).unwrap();
        assert_ne!(
            forward.digests.0.len(),
            parsed.digests.0.len(),
            "built and parsed policies cut their chunks differently"
        );
        for other in [&backward, &parsed] {
            assert_eq!(&forward, other);
            assert_eq!(format!("{forward:?}"), format!("{other:?}"));
            assert_eq!(forward.to_json(), other.to_json());
        }
        // Emptying a chunk drops it, and lookups still route.
        for path in &paths[..CHUNK_PATHS] {
            assert!(forward.remove_path(path));
        }
        assert_eq!(forward.path_count(), 2 * CHUNK_PATHS);
        assert!(forward.digests.0.values().all(|c| !c.0.is_empty()));
        for path in &paths[CHUNK_PATHS..] {
            assert_eq!(forward.check(path, "aa"), PolicyCheck::Allowed);
        }
        assert_eq!(forward.check(&paths[0], "aa"), PolicyCheck::NotInPolicy);
    }
}
