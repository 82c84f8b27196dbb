//! TPM identity: manufacturer endorsement and AK binding.
//!
//! The registrar's job in Keylime is to guard against spoofed TPMs: it
//! validates the endorsement-key certificate chain and runs a
//! make/activate-credential exchange proving the attestation key lives in
//! the same TPM as the endorsed EK. This module provides both halves in
//! simulator form.

use cia_crypto::{KeyPair, Signature, VerifyingKey};
use cia_wire::Wire;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// A TPM manufacturer: the root of the endorsement trust chain.
#[derive(Debug, Clone)]
pub struct Manufacturer {
    name: String,
    keys: KeyPair,
}

impl Manufacturer {
    /// Generates a manufacturer root key.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Manufacturer {
            name: "Simulated TPM Works".to_string(),
            keys: KeyPair::generate(rng),
        }
    }

    /// The manufacturer's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The public key verifiers use to validate EK certificates.
    pub fn public_key(&self) -> &VerifyingKey {
        &self.keys.verifying
    }

    /// Issues an endorsement certificate over `ek_public`.
    pub fn endorse(&self, ek_public: &VerifyingKey) -> EkCertificate {
        let msg = ek_cert_message(&self.name, ek_public);
        EkCertificate {
            manufacturer: self.name.clone(),
            ek_public: ek_public.clone(),
            signature: self.keys.signing.sign(&msg),
        }
    }
}

fn ek_cert_message(manufacturer: &str, ek_public: &VerifyingKey) -> Vec<u8> {
    let mut msg = Vec::new();
    msg.extend_from_slice(b"EK_CERT:");
    msg.extend_from_slice(manufacturer.as_bytes());
    msg.push(0);
    msg.extend_from_slice(ek_public.fingerprint().as_bytes());
    msg
}

/// An endorsement-key certificate: the manufacturer's signature binding an
/// EK public key to a genuine TPM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub struct EkCertificate {
    /// Issuing manufacturer's name.
    pub manufacturer: String,
    /// The endorsed EK public key.
    pub ek_public: VerifyingKey,
    /// Manufacturer signature.
    pub signature: Signature,
}

impl EkCertificate {
    /// Validates the certificate against a trusted manufacturer key.
    pub fn verify(&self, manufacturer_key: &VerifyingKey) -> bool {
        let msg = ek_cert_message(&self.manufacturer, &self.ek_public);
        manufacturer_key.verify(&msg, &self.signature)
    }
}

/// Proof that an attestation key lives in the TPM holding a given EK —
/// the simulator's analogue of the make/activate-credential exchange.
///
/// The registrar sends a fresh challenge; the TPM answers with its AK
/// public key and an EK signature over `(challenge, AK fingerprint)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub struct AkBinding {
    /// The AK being introduced.
    pub ak_public: VerifyingKey,
    /// Registrar challenge this binding answers.
    pub challenge: Vec<u8>,
    /// EK signature over the binding message.
    pub signature: Signature,
}

impl AkBinding {
    /// The byte string the EK signs.
    pub fn message_bytes(challenge: &[u8], ak_public: &VerifyingKey) -> Vec<u8> {
        let mut msg = Vec::new();
        msg.extend_from_slice(b"AK_BINDING:");
        msg.extend_from_slice(&(challenge.len() as u32).to_be_bytes());
        msg.extend_from_slice(challenge);
        msg.extend_from_slice(ak_public.fingerprint().as_bytes());
        msg
    }

    /// Verifies the binding against the endorsed EK public key and the
    /// registrar's own challenge.
    pub fn verify(&self, ek_public: &VerifyingKey, expected_challenge: &[u8]) -> bool {
        if self.challenge != expected_challenge {
            return false;
        }
        let msg = Self::message_bytes(&self.challenge, &self.ak_public);
        ek_public.verify(&msg, &self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Tpm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ek_certificate_chain() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Manufacturer::generate(&mut rng);
        let tpm = Tpm::manufacture(&m, &mut rng);
        assert!(tpm.ek_certificate().verify(m.public_key()));

        let impostor = Manufacturer::generate(&mut rng);
        assert!(!tpm.ek_certificate().verify(impostor.public_key()));
    }

    #[test]
    fn forged_certificate_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = Manufacturer::generate(&mut rng);
        let tpm = Tpm::manufacture(&m, &mut rng);
        let mut cert = tpm.ek_certificate().clone();
        // Swap in a different EK public key: signature no longer matches.
        let other = KeyPair::generate(&mut rng);
        cert.ek_public = other.verifying;
        assert!(!cert.verify(m.public_key()));
    }

    #[test]
    fn ak_binding_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Manufacturer::generate(&mut rng);
        let mut tpm = Tpm::manufacture(&m, &mut rng);
        tpm.create_ak(&mut rng);
        let binding = tpm.certify_ak(b"challenge-123").unwrap();
        assert!(binding.verify(&tpm.ek_certificate().ek_public, b"challenge-123"));
        assert!(!binding.verify(&tpm.ek_certificate().ek_public, b"other"));
    }

    #[test]
    fn ak_binding_wrong_ek_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = Manufacturer::generate(&mut rng);
        let mut tpm_a = Tpm::manufacture(&m, &mut rng);
        let tpm_b = Tpm::manufacture(&m, &mut rng);
        tpm_a.create_ak(&mut rng);
        let binding = tpm_a.certify_ak(b"c").unwrap();
        // TPM B's EK did not sign this binding.
        assert!(!binding.verify(&tpm_b.ek_certificate().ek_public, b"c"));
    }
}
