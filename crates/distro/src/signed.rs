//! Maintainer-signed package manifests — the paper's §V improvement.
//!
//! > "This can be substantially improved if file hashes in packages are
//! > generated and then signed by the package maintainers (similar to
//! > ostree). This would allow operators to know that what they are
//! > running is indeed trusted."
//!
//! A [`PackageManifest`] lists a package's executable paths and SHA-256
//! digests; a maintainer signs it ([`SignedManifest`]); operators hold a
//! trust store of maintainer keys ([`ManifestAuthority`]). The dynamic
//! policy generator can then ingest *verified manifests* instead of
//! downloading and hashing every package itself — removing both the
//! dominant cost of policy updates and the trust gap of operator-side
//! hashing.

use std::collections::BTreeMap;
use std::fmt;

use cia_crypto::{HashAlgorithm, KeyPair, Signature, VerifyingKey};
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::package::{Package, Version};

/// The hash list a maintainer publishes for one package version.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackageManifest {
    /// Package name.
    pub package: String,
    /// Manifested version.
    pub version: Version,
    /// `(install path, sha256 hex)` for every executable file. Kernel
    /// packages use the *template* paths (`/lib/modules/kernel/...`), as
    /// in the archive.
    pub entries: Vec<(String, String)>,
    /// Whether this is a kernel package (staging rules apply).
    pub is_kernel: bool,
}

impl PackageManifest {
    /// Computes the manifest for a package (what the maintainer's build
    /// infrastructure would do at publish time).
    pub fn compute(pkg: &Package) -> Self {
        PackageManifest {
            package: pkg.name.clone(),
            version: pkg.version.clone(),
            entries: pkg
                .executable_files()
                .map(|f| {
                    (
                        f.install_path.clone(),
                        HashAlgorithm::Sha256.digest(&f.content()).to_hex(),
                    )
                })
                .collect(),
            is_kernel: pkg.is_kernel,
        }
    }

    /// The canonical bytes the maintainer signs.
    pub fn message_bytes(&self) -> Vec<u8> {
        let mut msg = Vec::new();
        msg.extend_from_slice(b"PKG_MANIFEST:");
        msg.extend_from_slice(self.package.as_bytes());
        msg.push(0);
        msg.extend_from_slice(self.version.to_string().as_bytes());
        msg.push(0);
        msg.push(self.is_kernel as u8);
        for (path, digest) in &self.entries {
            msg.extend_from_slice(path.as_bytes());
            msg.push(0);
            msg.extend_from_slice(digest.as_bytes());
            msg.push(0);
        }
        msg
    }
}

/// A manifest plus the maintainer's signature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignedManifest {
    /// The signed manifest.
    pub manifest: PackageManifest,
    /// Name of the signing maintainer (trust-store lookup key).
    pub maintainer: String,
    /// Signature over [`PackageManifest::message_bytes`].
    pub signature: Signature,
}

/// A package maintainer able to sign manifests.
#[derive(Debug, Clone)]
pub struct Maintainer {
    name: String,
    keys: KeyPair,
}

impl Maintainer {
    /// Generates a maintainer identity.
    pub fn generate<R: RngCore + ?Sized>(name: impl Into<String>, rng: &mut R) -> Self {
        Maintainer {
            name: name.into(),
            keys: KeyPair::generate(rng),
        }
    }

    /// The maintainer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The public key operators add to their trust store.
    pub fn public_key(&self) -> &VerifyingKey {
        &self.keys.verifying
    }

    /// Publishes a signed manifest for `pkg`.
    pub fn sign_package(&self, pkg: &Package) -> SignedManifest {
        let manifest = PackageManifest::compute(pkg);
        let signature = self.keys.signing.sign(&manifest.message_bytes());
        SignedManifest {
            manifest,
            maintainer: self.name.clone(),
            signature,
        }
    }
}

/// Error verifying a signed manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The signing maintainer is not in the trust store.
    UnknownMaintainer {
        /// The claimed maintainer name.
        name: String,
    },
    /// The signature does not verify.
    BadSignature {
        /// The package whose manifest failed.
        package: String,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::UnknownMaintainer { name } => {
                write!(f, "maintainer `{name}` is not trusted")
            }
            ManifestError::BadSignature { package } => {
                write!(f, "manifest signature for `{package}` is invalid")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// The operator's trust store of maintainer keys.
#[derive(Debug, Clone, Default)]
pub struct ManifestAuthority {
    keys: BTreeMap<String, VerifyingKey>,
}

impl ManifestAuthority {
    /// An empty trust store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trusts a maintainer.
    pub fn trust(&mut self, maintainer: &Maintainer) {
        self.keys.insert(
            maintainer.name().to_string(),
            maintainer.public_key().clone(),
        );
    }

    /// Verifies a signed manifest against the trust store.
    ///
    /// # Errors
    ///
    /// [`ManifestError::UnknownMaintainer`] or
    /// [`ManifestError::BadSignature`].
    pub fn verify<'a>(
        &self,
        signed: &'a SignedManifest,
    ) -> Result<&'a PackageManifest, ManifestError> {
        let key =
            self.keys
                .get(&signed.maintainer)
                .ok_or_else(|| ManifestError::UnknownMaintainer {
                    name: signed.maintainer.clone(),
                })?;
        if !key.verify(&signed.manifest.message_bytes(), &signed.signature) {
            return Err(ManifestError::BadSignature {
                package: signed.manifest.package.clone(),
            });
        }
        Ok(&signed.manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{PackageFile, Pocket, Priority};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pkg(rev: u32) -> Package {
        Package {
            name: "curl".into(),
            version: Version {
                upstream: "7.81".into(),
                revision: rev,
            },
            priority: Priority::Optional,
            pocket: Pocket::Security,
            files: vec![
                PackageFile {
                    install_path: "/usr/bin/curl".into(),
                    executable: true,
                    nominal_size: 100,
                    content_seed: rev as u64,
                },
                PackageFile {
                    install_path: "/usr/share/doc/curl".into(),
                    executable: false,
                    nominal_size: 10,
                    content_seed: rev as u64 + 1,
                },
            ],
            is_kernel: false,
        }
    }

    #[test]
    fn manifest_covers_executables_only() {
        let m = PackageManifest::compute(&pkg(1));
        assert_eq!(m.entries.len(), 1);
        assert_eq!(m.entries[0].0, "/usr/bin/curl");
        // The digest matches what the generator would compute itself.
        let expected = HashAlgorithm::Sha256
            .digest(&pkg(1).files[0].content())
            .to_hex();
        assert_eq!(m.entries[0].1, expected);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let maintainer = Maintainer::generate("canonical", &mut rng);
        let mut authority = ManifestAuthority::new();
        authority.trust(&maintainer);

        let signed = maintainer.sign_package(&pkg(1));
        let manifest = authority.verify(&signed).unwrap();
        assert_eq!(manifest.package, "curl");
    }

    #[test]
    fn untrusted_maintainer_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let rogue = Maintainer::generate("rogue", &mut rng);
        let authority = ManifestAuthority::new();
        let signed = rogue.sign_package(&pkg(1));
        assert!(matches!(
            authority.verify(&signed),
            Err(ManifestError::UnknownMaintainer { .. })
        ));
    }

    #[test]
    fn tampered_manifest_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let maintainer = Maintainer::generate("canonical", &mut rng);
        let mut authority = ManifestAuthority::new();
        authority.trust(&maintainer);

        let mut signed = maintainer.sign_package(&pkg(1));
        // Supply-chain attack: swap the digest for a backdoored build.
        signed.manifest.entries[0].1 = "ff".repeat(32);
        assert!(matches!(
            authority.verify(&signed),
            Err(ManifestError::BadSignature { .. })
        ));
    }

    #[test]
    fn manifest_binds_version() {
        let mut rng = StdRng::seed_from_u64(4);
        let maintainer = Maintainer::generate("canonical", &mut rng);
        let mut authority = ManifestAuthority::new();
        authority.trust(&maintainer);

        let mut signed = maintainer.sign_package(&pkg(1));
        // Downgrade attack: claim the manifest is for a newer version.
        signed.manifest.version = signed.manifest.version.bump();
        assert!(authority.verify(&signed).is_err());
    }
}
