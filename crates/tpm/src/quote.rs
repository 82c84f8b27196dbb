//! TPM quotes: signed attestations over PCR values.

use cia_crypto::{Digest, HashAlgorithm, Sha256, Signature, VerifyingKey};
use cia_wire::Wire;
use serde::{Deserialize, Serialize};

use crate::pcr::PcrSelection;

/// A signed attestation of PCR state, the TPM2_Quote analogue.
///
/// The signed message covers the verifier's nonce (freshness), the PCR
/// selection, a digest over the selected PCR values, and the boot counter,
/// mirroring the `TPMS_ATTEST` structure. The selected PCR values
/// themselves ride along so the verifier can both check their authenticity
/// (via `pcr_digest`) and use them (e.g. replay an IMA log against PCR 10).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub struct Quote {
    /// Verifier-supplied anti-replay nonce ("qualifying data").
    pub nonce: Vec<u8>,
    /// Which PCRs are attested.
    pub selection: PcrSelection,
    /// Bank algorithm the PCRs were read from.
    pub bank: HashAlgorithm,
    /// The selected PCR values, ascending by index.
    pub pcr_values: Vec<Digest>,
    /// Digest over the concatenated selected PCR values.
    pub pcr_digest: Digest,
    /// TPM reset counter — lets the verifier notice reboots.
    pub boot_count: u64,
    /// Monotonic per-boot counter.
    pub clock: u64,
    /// AK signature over the canonical message.
    pub signature: Signature,
}

impl Quote {
    /// Computes the digest over selected PCR values as it appears in
    /// `pcr_digest`.
    pub fn digest_pcrs(values: &[Digest]) -> Digest {
        let mut h = Sha256::new();
        for v in values {
            h.update(v.as_bytes());
        }
        h.finalize()
    }

    /// The canonical byte string that the AK signs.
    pub fn message_bytes(
        nonce: &[u8],
        selection: &PcrSelection,
        bank: HashAlgorithm,
        pcr_digest: &Digest,
        boot_count: u64,
        clock: u64,
    ) -> Vec<u8> {
        const TAG: &[u8] = b"TPM2_QUOTE:";
        let bank = bank.name().as_bytes();
        let pcr_digest = pcr_digest.as_bytes();
        // Sized exactly, so the message is built without a regrowth.
        let pcrs = selection.indices().count();
        let len = TAG.len() + 4 + nonce.len() + pcrs + 1 + bank.len() + pcr_digest.len() + 16;
        let mut msg = Vec::with_capacity(len);
        msg.extend_from_slice(TAG);
        msg.extend_from_slice(&(nonce.len() as u32).to_be_bytes());
        msg.extend_from_slice(nonce);
        for idx in selection.indices() {
            msg.push(idx);
        }
        msg.push(0xff);
        msg.extend_from_slice(bank);
        msg.extend_from_slice(pcr_digest);
        msg.extend_from_slice(&boot_count.to_be_bytes());
        msg.extend_from_slice(&clock.to_be_bytes());
        msg
    }

    /// Verifies the quote: signature over the canonical message, nonce
    /// freshness, and consistency of `pcr_values` with `pcr_digest`.
    ///
    /// The checks run cheapest first, so a value count that disagrees
    /// with the selection is rejected before any value is hashed.
    pub fn verify(&self, ak_public: &VerifyingKey, expected_nonce: &[u8]) -> bool {
        if self.nonce != expected_nonce {
            return false;
        }
        if self.pcr_values.len() != self.selection.indices().count() {
            return false;
        }
        if Self::digest_pcrs(&self.pcr_values) != self.pcr_digest {
            return false;
        }
        let msg = Self::message_bytes(
            &self.nonce,
            &self.selection,
            self.bank,
            &self.pcr_digest,
            self.boot_count,
            self.clock,
        );
        ak_public.verify(&msg, &self.signature)
    }

    /// The attested value of `pcr_index`, if it was part of the selection.
    pub fn pcr_value(&self, pcr_index: u8) -> Option<Digest> {
        self.selection
            .indices()
            .position(|i| i == pcr_index)
            .and_then(|pos| self.pcr_values.get(pos).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Tpm;
    use crate::identity::Manufacturer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tpm_with_ak() -> Tpm {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Manufacturer::generate(&mut rng);
        let mut tpm = Tpm::manufacture(&m, &mut rng);
        tpm.create_ak(&mut rng);
        tpm
    }

    #[test]
    fn quote_roundtrip() {
        let mut tpm = tpm_with_ak();
        tpm.pcr_extend(
            HashAlgorithm::Sha256,
            10,
            HashAlgorithm::Sha256.digest(b"m"),
        )
        .unwrap();
        let q = tpm
            .quote(b"nonce-1", &PcrSelection::single(10), HashAlgorithm::Sha256)
            .unwrap();
        assert!(q.verify(tpm.ak_public().unwrap(), b"nonce-1"));
        assert_eq!(
            q.pcr_value(10).unwrap(),
            tpm.pcr_read(HashAlgorithm::Sha256, 10).unwrap()
        );
        assert!(q.pcr_value(11).is_none());
    }

    /// The signed message is built in one allocation of its exact size,
    /// for any selection, bank and nonce length.
    #[test]
    fn the_message_is_reserved_exactly() {
        let digest = HashAlgorithm::Sha256.digest(b"pcrs");
        for (nonce, pcrs) in [(&[7u8; 32][..], &[10u8][..]), (b"n", &[0, 1, 2, 10])] {
            for bank in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
                let msg = Quote::message_bytes(nonce, &PcrSelection::of(pcrs), bank, &digest, 3, 9);
                assert_eq!(msg.len(), msg.capacity(), "{nonce:?} {pcrs:?} {bank:?}");
            }
        }
    }

    #[test]
    fn stale_nonce_rejected() {
        let mut tpm = tpm_with_ak();
        let q = tpm
            .quote(b"old", &PcrSelection::single(10), HashAlgorithm::Sha256)
            .unwrap();
        assert!(!q.verify(tpm.ak_public().unwrap(), b"new"));
    }

    #[test]
    fn tampered_pcr_values_rejected() {
        let mut tpm = tpm_with_ak();
        tpm.pcr_extend(
            HashAlgorithm::Sha256,
            10,
            HashAlgorithm::Sha256.digest(b"real"),
        )
        .unwrap();
        let mut q = tpm
            .quote(b"n", &PcrSelection::single(10), HashAlgorithm::Sha256)
            .unwrap();
        // An attacker rewriting the attested PCR list is caught by pcr_digest.
        q.pcr_values[0] = HashAlgorithm::Sha256.digest(b"forged");
        assert!(!q.verify(tpm.ak_public().unwrap(), b"n"));
        // Rewriting the digest too breaks the signature.
        q.pcr_digest = Quote::digest_pcrs(&q.pcr_values);
        assert!(!q.verify(tpm.ak_public().unwrap(), b"n"));
    }

    #[test]
    fn padded_pcr_values_rejected() {
        let mut tpm = tpm_with_ak();
        let mut q = tpm
            .quote(b"n", &PcrSelection::single(10), HashAlgorithm::Sha256)
            .unwrap();
        // Extra values the selection does not name, with a digest that
        // agrees with them: the count check rejects the quote.
        q.pcr_values.push(HashAlgorithm::Sha256.digest(b"padding"));
        q.pcr_digest = Quote::digest_pcrs(&q.pcr_values);
        assert!(!q.verify(tpm.ak_public().unwrap(), b"n"));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut tpm = tpm_with_ak();
        let q = tpm
            .quote(b"n", &PcrSelection::single(10), HashAlgorithm::Sha256)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let other = cia_crypto::KeyPair::generate(&mut rng);
        assert!(!q.verify(&other.verifying, b"n"));
    }

    #[test]
    fn multi_pcr_selection_order() {
        let mut tpm = tpm_with_ak();
        for i in [0u8, 7, 10] {
            tpm.pcr_extend(HashAlgorithm::Sha256, i, HashAlgorithm::Sha256.digest(&[i]))
                .unwrap();
        }
        let q = tpm
            .quote(b"n", &PcrSelection::of(&[10, 0, 7]), HashAlgorithm::Sha256)
            .unwrap();
        assert_eq!(q.pcr_values.len(), 3);
        // Ascending index order regardless of how the selection was built.
        assert_eq!(
            q.pcr_value(0).unwrap(),
            tpm.pcr_read(HashAlgorithm::Sha256, 0).unwrap()
        );
        assert_eq!(
            q.pcr_value(7).unwrap(),
            tpm.pcr_read(HashAlgorithm::Sha256, 7).unwrap()
        );
        assert_eq!(
            q.pcr_value(10).unwrap(),
            tpm.pcr_read(HashAlgorithm::Sha256, 10).unwrap()
        );
        assert!(q.verify(tpm.ak_public().unwrap(), b"n"));
    }
}
