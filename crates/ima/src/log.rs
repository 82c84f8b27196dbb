//! The IMA measurement list (`ascii_runtime_measurements`), and the
//! verifier's memo of the template hashes it folds.

use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

use cia_crypto::{Digest, HashAlgorithm};
use cia_tpm::pcr::extend_digest;
use cia_tpm::Tpm;
use serde::{Deserialize, Serialize};

use crate::error::ImaError;

/// The PCR IMA extends (PC-client convention).
pub const IMA_PCR: u8 = 10;

/// Pseudo-path of the first measurement list entry.
pub const BOOT_AGGREGATE_NAME: &str = "boot_aggregate";

/// One `ima-ng` measurement entry.
///
/// Canonical ASCII form (what `/sys/kernel/security/ima/
/// ascii_runtime_measurements` prints):
///
/// ```text
/// 10 <sha1 template hash> ima-ng sha256:<filedata hash> <path>
/// ```
///
/// An entry is its three fields and nothing else: its template hash is
/// computed from them ([`ImaLogEntry::template_hash`]), never carried.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImaLogEntry {
    /// PCR the entry was extended into (always 10 here).
    pub pcr: u8,
    /// Digest of the file content.
    pub filedata_hash: Digest,
    /// Path the kernel recorded for the access. For SNAP/chroot
    /// executions this is the *inside-the-sandbox* path — the truncation
    /// that causes the paper's SNAP false positives.
    pub path: String,
}

impl ImaLogEntry {
    /// Creates an entry for PCR 10.
    pub fn new(filedata_hash: Digest, path: impl Into<String>) -> Self {
        ImaLogEntry {
            pcr: IMA_PCR,
            filedata_hash,
            path: path.into(),
        }
    }

    /// Creates an entry recorded in an arbitrary PCR (parser use; IMA
    /// proper always extends PCR 10 — see [`ImaLogEntry::new`]).
    pub fn new_in_pcr(pcr: u8, filedata_hash: Digest, path: impl Into<String>) -> Self {
        ImaLogEntry {
            pcr,
            ..ImaLogEntry::new(filedata_hash, path)
        }
    }

    /// The template data bytes the template hash is computed over
    /// (`ima-ng` packs the digest and pathname; we use the canonical text
    /// rendering, which is stable and unambiguous).
    pub fn template_data(&self) -> Vec<u8> {
        let prefixed = self.filedata_hash.to_prefixed_hex();
        let mut out = Vec::with_capacity("ima-ng  ".len() + prefixed.len() + self.path.len());
        out.extend_from_slice(b"ima-ng ");
        out.extend_from_slice(prefixed.as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.path.as_bytes());
        out
    }

    /// The template hash in `bank` (the digest PCR 10 is extended with):
    /// the one definition of it, computed afresh on every call.
    ///
    /// Streams the template parts straight into the hasher — the same
    /// bytes as [`ImaLogEntry::template_data`], with no allocation. A
    /// verifier that folds entries it may have seen before asks a
    /// [`TemplateHashMemo`] instead, which calls this on a miss.
    pub fn template_hash(&self, bank: HashAlgorithm) -> Digest {
        let mut prefixed = [0u8; Digest::MAX_PREFIXED_HEX];
        let n = self.filedata_hash.write_prefixed_hex(&mut prefixed);
        bank.digest_parts(&[b"ima-ng ", &prefixed[..n], b" ", self.path.as_bytes()])
    }

    /// Renders the canonical ASCII line.
    pub fn render(&self) -> String {
        format!(
            "{} {} ima-ng {} {}",
            self.pcr,
            self.template_hash(HashAlgorithm::Sha1).to_hex(),
            self.filedata_hash.to_prefixed_hex(),
            self.path
        )
    }

    /// Parses one canonical ASCII line.
    ///
    /// # Errors
    ///
    /// [`ImaError::LogParse`] when the line is malformed or the recorded
    /// template hash does not match the entry contents.
    pub fn parse(line: &str, line_no: usize) -> Result<Self, ImaError> {
        let fields: Vec<&str> = line.split(' ').collect();
        if fields.len() < 5 {
            return Err(ImaError::LogParse {
                line: line_no,
                reason: format!("expected 5 fields, got {}", fields.len()),
            });
        }
        let pcr: u8 = fields[0].parse().map_err(|_| ImaError::LogParse {
            line: line_no,
            reason: format!("bad PCR `{}`", fields[0]),
        })?;
        if fields[2] != "ima-ng" {
            return Err(ImaError::LogParse {
                line: line_no,
                reason: format!("unsupported template `{}`", fields[2]),
            });
        }
        let filedata_hash: Digest = fields[3].parse().map_err(|_| ImaError::LogParse {
            line: line_no,
            reason: format!("bad file digest `{}`", fields[3]),
        })?;
        // Paths may contain spaces; everything after field 3 is the path.
        let path = fields[4..].join(" ");
        let entry = ImaLogEntry::new_in_pcr(pcr, filedata_hash, path);
        let recorded =
            Digest::parse_hex(HashAlgorithm::Sha1, fields[1]).map_err(|_| ImaError::LogParse {
                line: line_no,
                reason: format!("bad template hash `{}`", fields[1]),
            })?;
        if recorded != entry.template_hash(HashAlgorithm::Sha1) {
            return Err(ImaError::LogParse {
                line: line_no,
                reason: "template hash does not match entry".to_string(),
            });
        }
        Ok(entry)
    }
}

/// A bounded, content-addressed memo of SHA-256 template hashes: what a
/// verifier folds, so an entry a fleet peer (or this agent, before a
/// re-sync from entry 0) already sent is not hashed again.
///
/// The key is exactly the template's inputs, the filedata [`Digest`]
/// (algorithm and bytes) and the path, compared in full on every hit; the
/// value is the hash [`ImaLogEntry::template_hash`] computed for that key
/// on a miss. So a hit returns exactly what recomputing would, and an
/// entry rewritten in flight still folds to a PCR mismatch. The table is
/// reserved for [`TemplateHashMemo::CAPACITY`] entries when the memo is
/// made and cleared when it is full: a hit allocates nothing, a miss at
/// most one boxed path. Paths longer than 256 bytes are hashed and not
/// held, so a memo holds at most about 5 MiB (DESIGN.md §8).
///
/// Plain owned state: a verifier gives each round worker its own memo.
/// Nothing reads its contents except a lookup, so the fixed hasher is
/// never seen in any output; `Debug` prints only the counts.
///
/// # Examples
///
/// ```
/// use cia_crypto::HashAlgorithm;
/// use cia_ima::{ImaLogEntry, TemplateHashMemo};
///
/// let entry = ImaLogEntry::new(HashAlgorithm::Sha256.digest(b"ls"), "/usr/bin/ls");
/// let mut memo = TemplateHashMemo::new();
/// let first = memo.template_hash(&entry);
/// assert_eq!(memo.template_hash(&entry), first);
/// assert_eq!(first, entry.template_hash(HashAlgorithm::Sha256));
/// assert_eq!((memo.hits(), memo.misses()), (1, 1));
/// ```
pub struct TemplateHashMemo {
    slots: Slots,
    hits: u64,
    misses: u64,
}

/// One memoized template: its full key and the hash computed for it.
struct Slot {
    filedata_hash: Digest,
    path: Box<str>,
    template_hash: Digest,
}

/// Slots by a fingerprint of their key. A fingerprint collision only
/// costs a recomputation: a hit also compares the full key.
#[expect(
    clippy::disallowed_types,
    reason = "never iterated: lookups only, under a fixed (unseeded) hasher, so no output \
              depends on its order"
)]
type Slots = std::collections::HashMap<u64, Slot, BuildHasherDefault<DefaultHasher>>;

impl TemplateHashMemo {
    /// The most entries a memo holds; the next new one clears it first.
    /// Room for a 10,000-entry log re-sent from entry 0.
    pub const CAPACITY: usize = 14_336;

    /// Paths longer than this are hashed but not held.
    const MAX_PATH_LEN: usize = 256;

    /// An empty memo, its table reserved for [`Self::CAPACITY`] entries.
    pub fn new() -> Self {
        TemplateHashMemo {
            slots: Slots::with_capacity_and_hasher(Self::CAPACITY, Default::default()),
            hits: 0,
            misses: 0,
        }
    }

    /// `entry`'s SHA-256 template hash: from the memo when its digest and
    /// path were seen before, else computed and remembered.
    pub fn template_hash(&mut self, entry: &ImaLogEntry) -> Digest {
        let (digest, path) = (&entry.filedata_hash, entry.path.as_str());
        let key = self.slots.hasher().hash_one((digest, path));
        if let Some(slot) = self.slots.get(&key) {
            if slot.filedata_hash == *digest && *slot.path == *path {
                self.hits += 1;
                return slot.template_hash;
            }
        }
        self.misses += 1;
        let template_hash = entry.template_hash(HashAlgorithm::Sha256);
        if path.len() <= Self::MAX_PATH_LEN {
            if self.slots.len() >= Self::CAPACITY && !self.slots.contains_key(&key) {
                self.slots.clear();
            }
            let slot = Slot {
                filedata_hash: *digest,
                path: path.into(),
                template_hash,
            };
            self.slots.insert(key, slot);
        }
        template_hash
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Template hashes computed.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl Default for TemplateHashMemo {
    fn default() -> Self {
        TemplateHashMemo::new()
    }
}

impl fmt::Debug for TemplateHashMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TemplateHashMemo")
            .field("len", &self.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// The append-only measurement list.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeasurementLog {
    entries: Vec<ImaLogEntry>,
}

impl MeasurementLog {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry and extends PCR 10 in both of `tpm`'s banks.
    ///
    /// # Errors
    ///
    /// Propagates TPM extension failures.
    pub fn append(&mut self, entry: ImaLogEntry, tpm: &mut Tpm) -> Result<(), ImaError> {
        tpm.pcr_extend(
            HashAlgorithm::Sha1,
            IMA_PCR,
            entry.template_hash(HashAlgorithm::Sha1),
        )?;
        tpm.pcr_extend(
            HashAlgorithm::Sha256,
            IMA_PCR,
            entry.template_hash(HashAlgorithm::Sha256),
        )?;
        self.entries.push(entry);
        Ok(())
    }

    /// All entries in measurement order.
    pub fn entries(&self) -> &[ImaLogEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no measurement has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Recomputes the PCR 10 value this list implies, by folding every
    /// template hash from the reset value — the verifier's step ② check.
    pub fn replay(&self, bank: HashAlgorithm) -> Digest {
        let mut acc = bank.zero_digest();
        for entry in &self.entries {
            acc = extend_digest(bank, acc, entry.template_hash(bank));
        }
        acc
    }

    /// Replays only the first `count` entries.
    pub fn replay_prefix(&self, bank: HashAlgorithm, count: usize) -> Digest {
        let mut acc = bank.zero_digest();
        for entry in self.entries.iter().take(count) {
            acc = extend_digest(bank, acc, entry.template_hash(bank));
        }
        acc
    }

    /// Renders the full canonical ASCII list.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Parses a canonical ASCII list.
    ///
    /// # Errors
    ///
    /// [`ImaError::LogParse`] with the offending line.
    pub fn parse(text: &str) -> Result<Self, ImaError> {
        let mut entries = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            entries.push(ImaLogEntry::parse(line, idx + 1)?);
        }
        Ok(MeasurementLog { entries })
    }

    /// Clears the list (reboot).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_tpm::Manufacturer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tpm() -> Tpm {
        let mut rng = StdRng::seed_from_u64(2);
        let m = Manufacturer::generate(&mut rng);
        Tpm::manufacture(&m, &mut rng)
    }

    fn entry(content: &[u8], path: &str) -> ImaLogEntry {
        ImaLogEntry::new(HashAlgorithm::Sha256.digest(content), path)
    }

    #[test]
    fn append_extends_both_banks_and_replays() {
        let mut tpm = tpm();
        let mut log = MeasurementLog::new();
        log.append(entry(b"a", "/usr/bin/a"), &mut tpm).unwrap();
        log.append(entry(b"b", "/usr/bin/b"), &mut tpm).unwrap();

        for bank in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            assert_eq!(log.replay(bank), tpm.pcr_read(bank, IMA_PCR).unwrap());
        }
    }

    #[test]
    fn replay_prefix() {
        let mut tpm = tpm();
        let mut log = MeasurementLog::new();
        log.append(entry(b"a", "/a"), &mut tpm).unwrap();
        let after_one = tpm.pcr_read(HashAlgorithm::Sha256, IMA_PCR).unwrap();
        log.append(entry(b"b", "/b"), &mut tpm).unwrap();
        assert_eq!(log.replay_prefix(HashAlgorithm::Sha256, 1), after_one);
        assert_eq!(
            log.replay_prefix(HashAlgorithm::Sha256, 0),
            HashAlgorithm::Sha256.zero_digest()
        );
    }

    #[test]
    fn render_format() {
        let e = entry(b"content", "/usr/bin/tool");
        let line = e.render();
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields[0], "10");
        assert_eq!(fields[1].len(), 40, "sha1 template hash");
        assert_eq!(fields[2], "ima-ng");
        assert!(fields[3].starts_with("sha256:"));
        assert_eq!(fields[4], "/usr/bin/tool");
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut tpm = tpm();
        let mut log = MeasurementLog::new();
        log.append(entry(b"x", BOOT_AGGREGATE_NAME), &mut tpm)
            .unwrap();
        log.append(entry(b"y", "/usr/bin/with space"), &mut tpm)
            .unwrap();
        let text = log.render();
        let parsed = MeasurementLog::parse(&text).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn parse_rejects_tampered_template_hash() {
        let e = entry(b"x", "/usr/bin/x");
        let line = e.render();
        // Flip the path without recomputing the template hash: detected.
        let tampered = line.replace("/usr/bin/x", "/usr/bin/y");
        let err = ImaLogEntry::parse(&tampered, 1).unwrap_err();
        assert!(matches!(err, ImaError::LogParse { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(ImaLogEntry::parse("10 abc ima-ng", 1).is_err());
        assert!(ImaLogEntry::parse("xx h ima-ng sha256:00 /p", 1).is_err());
        assert!(MeasurementLog::parse("10 zz ima-sig sha256:00 /p\n").is_err());
    }

    #[test]
    fn template_hash_is_memoized_and_stable() {
        let e = entry(b"memo", "/usr/bin/memo");
        let mut memo = TemplateHashMemo::new();
        let first = memo.template_hash(&e);
        assert_eq!(memo.len(), 1, "held after first use");
        assert_eq!(memo.template_hash(&e), first);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // The memoized value equals a from-scratch recomputation.
        assert_eq!(first, e.template_hash(HashAlgorithm::Sha256));
        assert_eq!(
            first,
            HashAlgorithm::Sha256.digest(&e.template_data()),
            "memoized value matches recomputation"
        );
    }

    #[test]
    fn serde_drops_the_cache_but_preserves_equality() {
        let e = entry(b"wire", "/usr/bin/wire");
        let wire = serde_json::to_string(&e).unwrap();
        assert!(
            !wire.contains("tpl"),
            "only the three fields travel: {wire}"
        );
        let back: ImaLogEntry = serde_json::from_str(&wire).unwrap();
        assert_eq!(back, e);
        assert_eq!(
            back.template_hash(HashAlgorithm::Sha256),
            e.template_hash(HashAlgorithm::Sha256)
        );
    }

    /// The memo's key is the whole template input: one digest under two
    /// paths, or one path under two digests, are four templates.
    #[test]
    fn the_memo_keys_on_both_the_digest_and_the_path() {
        let digest = HashAlgorithm::Sha256.digest(b"same");
        let entries = [
            ImaLogEntry::new(digest, "/usr/bin/a"),
            ImaLogEntry::new(digest, "/usr/bin/b"),
            entry(b"one", "/usr/bin/c"),
            entry(b"two", "/usr/bin/c"),
            // The same bytes under the other algorithm.
            ImaLogEntry::new(HashAlgorithm::Sha1.digest(b"same"), "/usr/bin/a"),
        ];
        let mut memo = TemplateHashMemo::new();
        for round in 0..2 {
            for e in &entries {
                assert_eq!(
                    memo.template_hash(e),
                    e.template_hash(HashAlgorithm::Sha256),
                    "round {round}: {e:?}"
                );
            }
        }
        assert_eq!(memo.len(), entries.len());
        assert_eq!((memo.hits(), memo.misses()), (5, 5));
    }

    /// Past its capacity the memo clears and starts over: it never holds
    /// more, and every answer stays the recomputed one.
    #[test]
    fn the_memo_stays_within_its_bound() {
        let mut memo = TemplateHashMemo::new();
        let total = TemplateHashMemo::CAPACITY + 10;
        for i in 0..total {
            let e = entry(&i.to_le_bytes(), &format!("/usr/bin/t{i}"));
            assert_eq!(
                memo.template_hash(&e),
                e.template_hash(HashAlgorithm::Sha256)
            );
            assert!(memo.len() <= TemplateHashMemo::CAPACITY);
        }
        assert_eq!(
            memo.len(),
            10,
            "cleared once, at the first entry past the bound"
        );
        let long = entry(b"long", &"/p".repeat(200));
        assert_eq!(
            memo.template_hash(&long),
            long.template_hash(HashAlgorithm::Sha256)
        );
        assert_eq!(memo.len(), 10, "an over-long path is hashed, not held");
        assert_eq!(
            format!("{memo:?}"),
            format!(
                "TemplateHashMemo {{ len: 10, hits: 0, misses: {} }}",
                total + 1
            )
        );
    }

    #[test]
    fn clear_resets() {
        let mut tpm = tpm();
        let mut log = MeasurementLog::new();
        log.append(entry(b"a", "/a"), &mut tpm).unwrap();
        log.clear();
        assert!(log.is_empty());
        assert_eq!(
            log.replay(HashAlgorithm::Sha256),
            HashAlgorithm::Sha256.zero_digest()
        );
    }
}
