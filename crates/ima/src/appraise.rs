//! IMA-appraisal: signature *enforcement*, not just measurement.
//!
//! Everything the paper studies is IMA's *measurement* mode — the kernel
//! records what ran and a remote verifier judges it after the fact. The
//! kernel also supports **appraisal** (`ima_appraise=enforce`): each file
//! carries a signature in its `security.ima` extended attribute, and the
//! kernel *refuses to execute* files whose signature is missing or does
//! not verify against a trusted key. Appraisal is the preventive
//! counterpart the paper's §V "signed by the package maintainers"
//! discussion points toward, and it changes the attack calculus: a
//! dropped payload does not merely go unmeasured — it does not run.
//!
//! This module provides the xattr format, signing helper, trust store,
//! and the appraisal check; `cia-os`'s machine enforces it when
//! configured.

use std::collections::BTreeMap;

use cia_crypto::{HashAlgorithm, Signature, SigningKey, VerifyingKey};
use cia_vfs::{Vfs, VfsPath};
use serde::{Deserialize, Serialize};

use crate::error::ImaError;

/// The xattr name appraisal signatures live under.
pub const IMA_XATTR: &str = "security.ima";

/// The signed blob stored in `security.ima`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImaSignature {
    /// Identifies the signing key (fingerprint) for trust-store lookup.
    pub key_id: String,
    /// Signature over the file's SHA-256 digest.
    pub signature: Signature,
}

/// Result of appraising one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppraisalResult {
    /// A trusted key's signature verifies over the current content.
    Pass,
    /// No `security.ima` xattr present.
    NoSignature,
    /// The xattr is malformed or the signature does not verify (e.g. the
    /// content was modified after signing).
    BadSignature,
    /// The signing key is not in the trust store.
    UntrustedKey,
}

/// Signs `content` and returns the xattr bytes to store in
/// `security.ima` (what `evmctl ima_sign` produces).
///
/// # Errors
///
/// [`ImaError::SignatureEncode`] when the signature blob is not
/// wire-representable.
pub fn sign_content(key: &SigningKey, content: &[u8]) -> Result<Vec<u8>, ImaError> {
    let digest = HashAlgorithm::Sha256.digest(content);
    let signature = key.sign(digest.as_bytes());
    let blob = ImaSignature {
        key_id: key.verifying_key().fingerprint(),
        signature,
    };
    serde_json::to_vec(&blob).map_err(|e| ImaError::SignatureEncode {
        reason: e.to_string(),
    })
}

/// Convenience: signs the file at `path` in place.
///
/// # Errors
///
/// Filesystem lookup errors, or [`ImaError::SignatureEncode`] when the
/// signature blob cannot be encoded.
pub fn sign_file(vfs: &mut Vfs, path: &VfsPath, key: &SigningKey) -> Result<(), ImaError> {
    let blob = sign_content(key, vfs.read(path)?)?;
    vfs.set_xattr(path, IMA_XATTR, blob)?;
    Ok(())
}

/// The kernel's appraisal trust store (`.ima` keyring).
///
/// Keys are indexed by fingerprint at [`AppraisalKeyring::trust`] time,
/// so [`AppraisalKeyring::appraise`] resolves a signature's `key_id`
/// with one map lookup instead of recomputing every trusted key's
/// fingerprint per appraisal.
#[derive(Debug, Clone, Default)]
pub struct AppraisalKeyring {
    by_fingerprint: BTreeMap<String, VerifyingKey>,
}

impl AppraisalKeyring {
    /// An empty keyring (everything fails appraisal).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a trusted signing key. Re-trusting a key already in the
    /// store is idempotent: the keyring is a set keyed by fingerprint.
    pub fn trust(&mut self, key: VerifyingKey) {
        self.by_fingerprint.insert(key.fingerprint(), key);
    }

    /// Number of trusted keys (distinct fingerprints).
    pub fn len(&self) -> usize {
        self.by_fingerprint.len()
    }

    /// True when no key is trusted.
    pub fn is_empty(&self) -> bool {
        self.by_fingerprint.is_empty()
    }

    /// Appraises the file at `path`: reads `security.ima` and verifies
    /// the signature over the file's current digest against the keyring.
    ///
    /// # Errors
    ///
    /// Filesystem lookup errors.
    pub fn appraise(&self, vfs: &Vfs, path: &VfsPath) -> Result<AppraisalResult, ImaError> {
        let Some(raw) = vfs.get_xattr(path, IMA_XATTR)? else {
            return Ok(AppraisalResult::NoSignature);
        };
        let Ok(blob) = serde_json::from_slice::<ImaSignature>(raw) else {
            return Ok(AppraisalResult::BadSignature);
        };
        let Some(key) = self.by_fingerprint.get(&blob.key_id) else {
            return Ok(AppraisalResult::UntrustedKey);
        };
        let digest = vfs.file_digest(path, HashAlgorithm::Sha256)?;
        if key.verify(digest.as_bytes(), &blob.signature) {
            Ok(AppraisalResult::Pass)
        } else {
            Ok(AppraisalResult::BadSignature)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_crypto::KeyPair;
    use cia_vfs::Mode;

    fn setup() -> (Vfs, KeyPair, AppraisalKeyring, VfsPath) {
        let mut vfs = Vfs::with_standard_layout();
        let kp = KeyPair::from_material([3u8; 32]);
        let mut keyring = AppraisalKeyring::new();
        keyring.trust(kp.verifying.clone());
        let path = VfsPath::new("/usr/bin/signed-tool").unwrap();
        vfs.create_file(&path, b"trusted tool v1".to_vec(), Mode::EXEC)
            .unwrap();
        (vfs, kp, keyring, path)
    }

    #[test]
    fn signed_file_passes() {
        let (mut vfs, kp, keyring, path) = setup();
        sign_file(&mut vfs, &path, &kp.signing).unwrap();
        assert_eq!(
            keyring.appraise(&vfs, &path).unwrap(),
            AppraisalResult::Pass
        );
    }

    #[test]
    fn unsigned_file_fails() {
        let (vfs, _, keyring, path) = setup();
        assert_eq!(
            keyring.appraise(&vfs, &path).unwrap(),
            AppraisalResult::NoSignature
        );
    }

    #[test]
    fn tampered_content_fails() {
        let (mut vfs, kp, keyring, path) = setup();
        sign_file(&mut vfs, &path, &kp.signing).unwrap();
        vfs.write_file(&path, b"TROJANED".to_vec(), Mode::EXEC)
            .unwrap();
        assert_eq!(
            keyring.appraise(&vfs, &path).unwrap(),
            AppraisalResult::BadSignature
        );
    }

    #[test]
    fn untrusted_key_fails() {
        let (mut vfs, _, keyring, path) = setup();
        let rogue = KeyPair::from_material([9u8; 32]);
        sign_file(&mut vfs, &path, &rogue.signing).unwrap();
        assert_eq!(
            keyring.appraise(&vfs, &path).unwrap(),
            AppraisalResult::UntrustedKey
        );
    }

    #[test]
    fn garbage_xattr_fails_closed() {
        let (mut vfs, _, keyring, path) = setup();
        vfs.set_xattr(&path, IMA_XATTR, b"not json".to_vec())
            .unwrap();
        assert_eq!(
            keyring.appraise(&vfs, &path).unwrap(),
            AppraisalResult::BadSignature
        );
    }

    #[test]
    fn retrusting_the_same_key_is_idempotent() {
        let (mut vfs, kp, mut keyring, path) = setup();
        assert_eq!(keyring.len(), 1);
        keyring.trust(kp.verifying.clone());
        keyring.trust(kp.verifying.clone());
        assert_eq!(keyring.len(), 1, "one fingerprint, one entry");
        sign_file(&mut vfs, &path, &kp.signing).unwrap();
        assert_eq!(
            keyring.appraise(&vfs, &path).unwrap(),
            AppraisalResult::Pass
        );
        let other = KeyPair::from_material([7u8; 32]);
        keyring.trust(other.verifying);
        assert_eq!(keyring.len(), 2);
        assert!(!keyring.is_empty());
    }

    #[test]
    fn resigning_after_update_restores_pass() {
        let (mut vfs, kp, keyring, path) = setup();
        sign_file(&mut vfs, &path, &kp.signing).unwrap();
        vfs.write_file(&path, b"trusted tool v2".to_vec(), Mode::EXEC)
            .unwrap();
        assert_eq!(
            keyring.appraise(&vfs, &path).unwrap(),
            AppraisalResult::BadSignature
        );
        sign_file(&mut vfs, &path, &kp.signing).unwrap();
        assert_eq!(
            keyring.appraise(&vfs, &path).unwrap(),
            AppraisalResult::Pass
        );
    }
}
