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
//! The `path → {hex digest}` map is the policy's only representation:
//! [`RuntimePolicy::check_digest`] answers from it (the measured digest
//! is rendered to hex on the stack) and [`RuntimePolicy::apply_delta`]
//! edits it in place, so a daily delta costs O(delta), not O(policy).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use cia_crypto::{hex, Derived, Digest};
use serde::{Deserialize, Serialize};

use crate::error::KeylimeError;

/// Deep copies of [`RuntimePolicy`] performed since process start; the
/// delta-push benchmark gates fleet distribution on this staying flat
/// (analogous to the zero-alloc gate on the appraisal hot path).
static POLICY_DEEP_CLONES: AtomicU64 = AtomicU64::new(0);

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
#[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimePolicy {
    /// Path → allowed SHA-256 digests (lowercase hex).
    digests: BTreeMap<String, BTreeSet<String>>,
    /// Path prefixes the verifier does not evaluate.
    excludes: Vec<String>,
    /// Document metadata.
    pub meta: PolicyMeta,
    /// Cached `(line, byte)` totals; maintained incrementally by
    /// [`RuntimePolicy::allow`]/[`RuntimePolicy::remove_path`]/
    /// [`RuntimePolicy::dedup_retain`] once first computed.
    totals: Derived<PolicyTotals>,
}

/// Every clone of a policy is a *deep* copy of the full digest map and is
/// counted, so benches can prove that fleet-wide distribution through the
/// shared store performs none (agents swap `Arc` handles instead).
impl Clone for RuntimePolicy {
    fn clone(&self) -> Self {
        POLICY_DEEP_CLONES.fetch_add(1, Ordering::Relaxed);
        RuntimePolicy {
            digests: self.digests.clone(),
            excludes: self.excludes.clone(),
            meta: self.meta.clone(),
            totals: self.totals.clone(),
        }
    }
}

/// Rendered-size accounting for one policy: the paper's "lines" (one per
/// `(path, digest)` pair) and the approximate rendered byte size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PolicyTotals {
    lines: u64,
    bytes: u64,
}

/// Bytes a `(path, digest)` pair contributes to the rendered size: one
/// `sha256-hex  path\n` line (64 hex chars + two spaces + newline).
fn line_bytes(path: &str) -> u64 {
    path.len() as u64 + 64 + 2 + 1
}

impl RuntimePolicy {
    /// An empty policy (everything unexpected will alert).
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached size totals, computed by full traversal once and then
    /// maintained incrementally by the mutators.
    fn totals(&self) -> PolicyTotals {
        *self.totals.get_or_init(|| PolicyTotals {
            lines: self.digests.values().map(|s| s.len() as u64).sum(),
            bytes: self
                .digests
                .iter()
                .map(|(path, set)| set.len() as u64 * line_bytes(path))
                .sum(),
        })
    }

    /// Adds `digest` to the allowed set for `path` (existing digests are
    /// retained — the update-window consistency rule).
    pub fn allow(&mut self, path: impl Into<String>, digest: impl Into<String>) {
        let path = path.into();
        let added_bytes = line_bytes(&path);
        if self.digests.entry(path).or_default().insert(digest.into()) {
            if let Some(t) = self.totals.get_mut() {
                t.lines += 1;
                t.bytes += added_bytes;
            }
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
        self.digests.len()
    }

    /// Number of `(path, digest)` pairs — the paper's "lines". Served
    /// from the cached totals (computed once, then maintained by the
    /// mutators) instead of a full traversal.
    pub fn line_count(&self) -> usize {
        self.totals().lines as usize
    }

    /// Approximate rendered size in bytes (one `sha256-hex  path` line per
    /// pair), matching how the paper reports policy size in MB. Cached
    /// like [`RuntimePolicy::line_count`].
    pub fn rendered_size_bytes(&self) -> u64 {
        self.totals().bytes
    }

    /// Drops every digest for `path` except `keep` (post-update
    /// deduplication).
    pub fn dedup_retain(&mut self, path: &str, keep: &str) {
        if let Some(set) = self.digests.get_mut(path) {
            if set.contains(keep) {
                let before = set.len();
                set.retain(|d| d == keep);
                let removed = (before - set.len()) as u64;
                if removed > 0 {
                    if let Some(t) = self.totals.get_mut() {
                        t.lines -= removed;
                        t.bytes -= removed * line_bytes(path);
                    }
                }
            }
        }
    }

    /// Removes a path entirely (e.g. disallowing outdated kernel modules).
    pub fn remove_path(&mut self, path: &str) -> bool {
        match self.digests.remove(path) {
            Some(set) => {
                if let Some(t) = self.totals.get_mut() {
                    t.lines -= set.len() as u64;
                    t.bytes -= set.len() as u64 * line_bytes(path);
                }
                true
            }
            None => false,
        }
    }

    /// Structural difference against an older policy — what an operator
    /// reviews before approving a generated update.
    pub fn diff(&self, older: &RuntimePolicy) -> PolicyDiff {
        let mut diff = PolicyDiff::default();
        for (path, digests) in &self.digests {
            match older.digests.get(path) {
                None => diff.added_paths.push(path.clone()),
                Some(old) if old != digests => diff.changed_paths.push(path.clone()),
                Some(_) => {}
            }
        }
        for path in older.digests.keys() {
            if !self.digests.contains_key(path) {
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

    /// Deep copies of any `RuntimePolicy` since process start (see the
    /// `Clone` impl). Benchmarks gate fleet-wide distribution on this.
    pub fn deep_clone_count() -> u64 {
        POLICY_DEEP_CLONES.load(Ordering::Relaxed)
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
        // 11 (path) + 64 + 3 = 78
        assert_eq!(p.rendered_size_bytes(), 78);
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

    fn recomputed_totals(p: &RuntimePolicy) -> (usize, u64) {
        let lines = p.entries().map(|(_, s)| s.len()).sum();
        let bytes = p
            .entries()
            .map(|(path, set)| set.len() as u64 * (path.len() as u64 + 64 + 2 + 1))
            .sum();
        (lines, bytes)
    }

    fn assert_totals_match(p: &RuntimePolicy) {
        let (lines, bytes) = recomputed_totals(p);
        assert_eq!(p.line_count(), lines);
        assert_eq!(p.rendered_size_bytes(), bytes);
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

    #[test]
    fn clone_counter_counts_deep_copies() {
        // Global counters are shared across concurrently running tests,
        // so only lower bounds are assertable here; the delta-push bench
        // gate asserts the exact zero single-threaded.
        let mut p = RuntimePolicy::new();
        p.allow("/a", "aa");
        let before = RuntimePolicy::deep_clone_count();
        let _c = p.clone();
        let _d = p.clone();
        assert!(RuntimePolicy::deep_clone_count() >= before + 2);
    }
}
