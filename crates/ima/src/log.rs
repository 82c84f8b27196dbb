//! The IMA measurement list (`ascii_runtime_measurements`).

use cia_crypto::{Derived, Digest, HashAlgorithm};
use cia_tpm::pcr::extend_digest;
use cia_tpm::Tpm;
use serde::{DeError, Deserialize, JsonReader, JsonWriter, Serialize};

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImaLogEntry {
    /// PCR the entry was extended into (always 10 here).
    pub pcr: u8,
    /// Digest of the file content.
    pub filedata_hash: Digest,
    /// Path the kernel recorded for the access. For SNAP/chroot
    /// executions this is the *inside-the-sandbox* path — the truncation
    /// that causes the paper's SNAP false positives.
    pub path: String,
    /// Memoized SHA-1 template hash. Never trusted from the wire
    /// (hand-written serde below omits it entirely); recomputed on
    /// first use.
    tpl_sha1: Derived<Digest>,
    /// Memoized SHA-256 template hash.
    tpl_sha256: Derived<Digest>,
}

// Hand-written wire form: only the three semantic fields travel. The
// memoized template hashes are derived state — shipping them would both
// bloat the excerpt by ~40% and invite a verifier to trust
// attacker-controlled caches, so they are omitted and recomputed.
impl Serialize for ImaLogEntry {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("pcr");
        self.pcr.write_json(w);
        w.key("filedata_hash");
        self.filedata_hash.write_json(w);
        w.key("path");
        w.str(&self.path);
        w.end_object();
    }
}

/// Reads like a derived impl: unknown keys are skipped, the first of
/// duplicate keys wins, and a missing field is an error.
impl Deserialize for ImaLogEntry {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let (mut pcr, mut filedata_hash, mut path) = (None, None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "pcr" if pcr.is_none() => pcr = Some(u8::read_json(r)?),
                "filedata_hash" if filedata_hash.is_none() => {
                    filedata_hash = Some(Digest::read_json(r)?);
                }
                "path" if path.is_none() => path = Some(String::read_json(r)?),
                _ => r.skip_value()?,
            }
        }
        let missing = |name: &str| DeError::new(format!("missing field `{name}`"));
        Ok(ImaLogEntry {
            pcr: pcr.ok_or_else(|| missing("pcr"))?,
            filedata_hash: filedata_hash.ok_or_else(|| missing("filedata_hash"))?,
            path: path.ok_or_else(|| missing("path"))?,
            tpl_sha1: Derived::new(),
            tpl_sha256: Derived::new(),
        })
    }
}

impl ImaLogEntry {
    /// Creates an entry for PCR 10.
    pub fn new(filedata_hash: Digest, path: impl Into<String>) -> Self {
        ImaLogEntry {
            pcr: IMA_PCR,
            filedata_hash,
            path: path.into(),
            tpl_sha1: Derived::new(),
            tpl_sha256: Derived::new(),
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

    /// The template hash in `bank` (the digest PCR 10 is extended with).
    ///
    /// Memoized: computed once per entry per bank (at append or parse
    /// time in practice), then served from the cache — the verifier's
    /// fold loop hits this for every entry of every round. The cached
    /// value is dropped rather than sent when an entry crosses the wire,
    /// so a peer can never supply a forged template hash.
    pub fn template_hash(&self, bank: HashAlgorithm) -> Digest {
        let slot = match bank {
            HashAlgorithm::Sha1 => &self.tpl_sha1,
            HashAlgorithm::Sha256 => &self.tpl_sha256,
        };
        *slot.get_or_init(|| {
            // Stream the template parts straight into the hasher — same
            // bytes as `template_data`, but no per-entry allocations.
            let mut prefixed = [0u8; Digest::MAX_PREFIXED_HEX];
            let n = self.filedata_hash.write_prefixed_hex(&mut prefixed);
            bank.digest_parts(&[b"ima-ng ", &prefixed[..n], b" ", self.path.as_bytes()])
        })
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
        let first = e.template_hash(HashAlgorithm::Sha256);
        assert_eq!(e.tpl_sha256.get(), Some(&first), "cached after first use");
        assert_eq!(e.template_hash(HashAlgorithm::Sha256), first);
        // The cache equals a from-scratch recomputation.
        assert_eq!(
            first,
            HashAlgorithm::Sha256.digest(&e.template_data()),
            "memoized value matches recomputation"
        );
    }

    #[test]
    fn serde_drops_the_cache_but_preserves_equality() {
        let e = entry(b"wire", "/usr/bin/wire");
        let warm = e.template_hash(HashAlgorithm::Sha256);
        let wire = serde_json::to_string(&e).unwrap();
        let back: ImaLogEntry = serde_json::from_str(&wire).unwrap();
        assert_eq!(back, e, "equality ignores cache state");
        assert_eq!(back.tpl_sha256.get(), None, "cache never travels");
        assert_eq!(back.template_hash(HashAlgorithm::Sha256), warm);
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
