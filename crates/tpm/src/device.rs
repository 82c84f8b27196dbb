//! The TPM device: banks, keys, quote generation, reboot semantics.

use cia_crypto::{Digest, HashAlgorithm, KeyPair, VerifyingKey};
use rand::RngCore;

use crate::error::TpmError;
use crate::identity::{AkBinding, EkCertificate, Manufacturer};
use crate::pcr::{PcrBank, PcrSelection};
use crate::quote::Quote;

/// A simulated TPM 2.0 with SHA-1 and SHA-256 PCR banks, an endorsement
/// key burned in at manufacture time, and an on-demand attestation key.
#[derive(Debug, Clone)]
pub struct Tpm {
    sha1_bank: PcrBank,
    sha256_bank: PcrBank,
    ek: KeyPair,
    ek_certificate: EkCertificate,
    ak: Option<KeyPair>,
    boot_count: u64,
    clock: u64,
}

impl Tpm {
    /// "Manufactures" a TPM: generates its EK and has `manufacturer`
    /// endorse it.
    pub fn manufacture<R: RngCore + ?Sized>(manufacturer: &Manufacturer, rng: &mut R) -> Self {
        let ek = KeyPair::generate(rng);
        let ek_certificate = manufacturer.endorse(&ek.verifying);
        Tpm {
            sha1_bank: PcrBank::new(HashAlgorithm::Sha1),
            sha256_bank: PcrBank::new(HashAlgorithm::Sha256),
            ek,
            ek_certificate,
            ak: None,
            boot_count: 0,
            clock: 0,
        }
    }

    /// The endorsement certificate shipped with this TPM.
    pub fn ek_certificate(&self) -> &EkCertificate {
        &self.ek_certificate
    }

    /// Creates (or replaces) the attestation key, returning its public half.
    pub fn create_ak<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> VerifyingKey {
        let ak = KeyPair::generate(rng);
        let public = ak.verifying.clone();
        self.ak = Some(ak);
        public
    }

    /// The AK public key, if one has been created.
    pub fn ak_public(&self) -> Option<&VerifyingKey> {
        self.ak.as_ref().map(|k| &k.verifying)
    }

    /// Answers a registrar challenge, proving the AK lives alongside the
    /// endorsed EK (activate-credential analogue).
    ///
    /// # Errors
    ///
    /// [`TpmError::NoAttestationKey`] when no AK exists.
    pub fn certify_ak(&self, challenge: &[u8]) -> Result<AkBinding, TpmError> {
        let ak = self.ak.as_ref().ok_or(TpmError::NoAttestationKey)?;
        let msg = AkBinding::message_bytes(challenge, &ak.verifying);
        Ok(AkBinding {
            ak_public: ak.verifying.clone(),
            challenge: challenge.to_vec(),
            signature: self.ek.signing.sign(&msg),
        })
    }

    fn bank(&self, algorithm: HashAlgorithm) -> &PcrBank {
        match algorithm {
            HashAlgorithm::Sha1 => &self.sha1_bank,
            HashAlgorithm::Sha256 => &self.sha256_bank,
        }
    }

    fn bank_mut(&mut self, algorithm: HashAlgorithm) -> &mut PcrBank {
        match algorithm {
            HashAlgorithm::Sha1 => &mut self.sha1_bank,
            HashAlgorithm::Sha256 => &mut self.sha256_bank,
        }
    }

    /// Extends a PCR in the bank matching `algorithm`.
    ///
    /// # Errors
    ///
    /// See [`PcrBank::extend`].
    pub fn pcr_extend(
        &mut self,
        algorithm: HashAlgorithm,
        index: u8,
        digest: Digest,
    ) -> Result<Digest, TpmError> {
        self.clock += 1;
        self.bank_mut(algorithm).extend(index, digest)
    }

    /// Reads a PCR from the bank matching `algorithm`.
    ///
    /// # Errors
    ///
    /// See [`PcrBank::read`].
    pub fn pcr_read(&self, algorithm: HashAlgorithm, index: u8) -> Result<Digest, TpmError> {
        self.bank(algorithm).read(index)
    }

    /// Produces a signed quote over the selected PCRs.
    ///
    /// # Errors
    ///
    /// [`TpmError::NoAttestationKey`] when no AK exists;
    /// [`TpmError::EmptySelection`] for an empty selection.
    pub fn quote(
        &mut self,
        nonce: &[u8],
        selection: &PcrSelection,
        bank: HashAlgorithm,
    ) -> Result<Quote, TpmError> {
        if selection.is_empty() {
            return Err(TpmError::EmptySelection);
        }
        let ak = self.ak.as_ref().ok_or(TpmError::NoAttestationKey)?;
        self.clock += 1;
        let pcr_values: Vec<Digest> = selection
            .indices()
            .map(|i| self.bank(bank).read(i))
            .collect::<Result<_, _>>()?;
        let pcr_digest = Quote::digest_pcrs(&pcr_values);
        let msg = Quote::message_bytes(
            nonce,
            selection,
            bank,
            &pcr_digest,
            self.boot_count,
            self.clock,
        );
        Ok(Quote {
            nonce: nonce.to_vec(),
            selection: *selection,
            bank,
            pcr_values,
            pcr_digest,
            boot_count: self.boot_count,
            clock: self.clock,
            signature: ak.signing.sign(&msg),
        })
    }

    /// Number of TPM resets (reboots) so far.
    pub fn boot_count(&self) -> u64 {
        self.boot_count
    }

    /// Power-cycles the TPM: PCRs reset, the reset counter increments, the
    /// per-boot clock restarts. Keys survive (they live in NV storage).
    pub fn reboot(&mut self) {
        self.sha1_bank.reset();
        self.sha256_bank.reset();
        self.boot_count += 1;
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn new_tpm(seed: u64) -> Tpm {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Manufacturer::generate(&mut rng);
        let mut t = Tpm::manufacture(&m, &mut rng);
        t.create_ak(&mut rng);
        t
    }

    #[test]
    fn quote_without_ak_fails() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = Manufacturer::generate(&mut rng);
        let mut tpm = Tpm::manufacture(&m, &mut rng);
        assert_eq!(
            tpm.quote(b"n", &PcrSelection::single(10), HashAlgorithm::Sha256)
                .unwrap_err(),
            TpmError::NoAttestationKey
        );
    }

    #[test]
    fn empty_selection_fails() {
        let mut tpm = new_tpm(11);
        assert_eq!(
            tpm.quote(b"n", &PcrSelection::of(&[]), HashAlgorithm::Sha256)
                .unwrap_err(),
            TpmError::EmptySelection
        );
    }

    #[test]
    fn reboot_resets_pcrs_and_bumps_counter() {
        let mut tpm = new_tpm(12);
        tpm.pcr_extend(
            HashAlgorithm::Sha256,
            10,
            HashAlgorithm::Sha256.digest(b"x"),
        )
        .unwrap();
        assert!(!tpm.pcr_read(HashAlgorithm::Sha256, 10).unwrap().is_zero());
        let ak_before = tpm.ak_public().unwrap().clone();
        tpm.reboot();
        assert!(tpm.pcr_read(HashAlgorithm::Sha256, 10).unwrap().is_zero());
        assert_eq!(tpm.boot_count(), 1);
        assert_eq!(tpm.ak_public().unwrap(), &ak_before, "keys survive reboot");
    }

    #[test]
    fn banks_are_independent() {
        let mut tpm = new_tpm(13);
        tpm.pcr_extend(
            HashAlgorithm::Sha256,
            10,
            HashAlgorithm::Sha256.digest(b"x"),
        )
        .unwrap();
        assert!(tpm.pcr_read(HashAlgorithm::Sha1, 10).unwrap().is_zero());
    }

    #[test]
    fn clock_is_monotonic_within_boot() {
        let mut tpm = new_tpm(14);
        let q1 = tpm
            .quote(b"a", &PcrSelection::single(10), HashAlgorithm::Sha256)
            .unwrap();
        let q2 = tpm
            .quote(b"b", &PcrSelection::single(10), HashAlgorithm::Sha256)
            .unwrap();
        assert!(q2.clock > q1.clock);
        tpm.reboot();
        let q3 = tpm
            .quote(b"c", &PcrSelection::single(10), HashAlgorithm::Sha256)
            .unwrap();
        assert_eq!(q3.boot_count, 1);
        assert!(q3.clock < q2.clock);
    }
}
