//! Binary wire codec impls for quotes, PCR selections and TPM identity.
//!
//! A [`PcrSelection`] travels as its selected indices (one byte each —
//! at most 24), rebuilt through [`PcrSelection::of`] so the private
//! mask never crosses the crate boundary raw. A [`Quote`] is a plain
//! field-by-field record; its digests decode zero-copy through the
//! `cia-crypto` impls. So are the registration messages, an
//! [`EkCertificate`] and an [`AkBinding`].

use cia_crypto::{Digest, HashAlgorithm, Signature, VerifyingKey};
use cia_wire::{Reader, Wire, WireError, Writer};

use crate::identity::{AkBinding, EkCertificate};
use crate::pcr::{PcrSelection, PCR_COUNT};
use crate::quote::Quote;

impl Wire for PcrSelection {
    /// The bytes `put_bytes` would write for the index list, without
    /// collecting it first.
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.indices().count() as u64);
        for index in self.indices() {
            w.put_u8(index);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = r.bytes()?;
        if raw.len() > PCR_COUNT {
            return Err(WireError::BadLength {
                len: raw.len(),
                remaining: PCR_COUNT,
            });
        }
        for &index in raw {
            if usize::from(index) >= PCR_COUNT {
                return Err(WireError::BadTag {
                    what: "pcr index",
                    tag: u64::from(index),
                });
            }
        }
        Ok(PcrSelection::of(raw))
    }
}

impl Wire for Quote {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.nonce);
        self.selection.encode(w);
        self.bank.encode(w);
        self.pcr_values.encode(w);
        self.pcr_digest.encode(w);
        w.put_varint(self.boot_count);
        w.put_varint(self.clock);
        self.signature.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Quote {
            nonce: r.bytes()?.to_vec(),
            selection: PcrSelection::decode(r)?,
            bank: HashAlgorithm::decode(r)?,
            pcr_values: Vec::<Digest>::decode(r)?,
            pcr_digest: Digest::decode(r)?,
            boot_count: r.varint()?,
            clock: r.varint()?,
            signature: Signature::decode(r)?,
        })
    }
}

impl Wire for EkCertificate {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.manufacturer);
        self.ek_public.encode(w);
        self.signature.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EkCertificate {
            manufacturer: r.str()?.to_string(),
            ek_public: VerifyingKey::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

impl Wire for AkBinding {
    fn encode(&self, w: &mut Writer) {
        self.ak_public.encode(w);
        w.put_bytes(&self.challenge);
        self.signature.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AkBinding {
            ak_public: VerifyingKey::decode(r)?,
            challenge: r.bytes()?.to_vec(),
            signature: Signature::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Tpm;
    use crate::identity::Manufacturer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pcr_selection_roundtrips() {
        for sel in [
            PcrSelection::of(&[]),
            PcrSelection::single(10),
            PcrSelection::of(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            PcrSelection::of(&[23]),
        ] {
            assert_eq!(PcrSelection::from_wire(&sel.to_wire()).unwrap(), sel);
            // The encoding is the length-prefixed index list.
            let mut w = Writer::new();
            w.put_bytes(&sel.indices().collect::<Vec<u8>>());
            assert_eq!(sel.to_wire(), w.into_vec());
        }
    }

    #[test]
    fn out_of_range_pcr_index_is_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[3, 99]);
        assert!(PcrSelection::from_wire(w.as_slice()).is_err());
    }

    #[test]
    fn quote_roundtrips_bit_identically() {
        let mut rng = StdRng::seed_from_u64(42);
        let manufacturer = Manufacturer::generate(&mut rng);
        let mut tpm = Tpm::manufacture(&manufacturer, &mut rng);
        tpm.create_ak(&mut rng);
        let sel = PcrSelection::of(&[0, 1, 10]);
        let quote = tpm
            .quote(b"fresh-nonce", &sel, HashAlgorithm::Sha256)
            .unwrap();
        let bytes = quote.to_wire();
        let back = Quote::from_wire(&bytes).unwrap();
        assert_eq!(back, quote);
        // Truncations never panic, always error.
        for cut in 0..bytes.len() {
            assert!(Quote::from_wire(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn tpm_identity_roundtrips_and_truncations_error() {
        let mut rng = StdRng::seed_from_u64(43);
        let manufacturer = Manufacturer::generate(&mut rng);
        let mut tpm = Tpm::manufacture(&manufacturer, &mut rng);
        tpm.create_ak(&mut rng);
        let cert = tpm.ek_certificate().clone();
        let binding = tpm.certify_ak(b"registrar-challenge").unwrap();
        let cert_bytes = cert.to_wire();
        let binding_bytes = binding.to_wire();
        let back = EkCertificate::from_wire(&cert_bytes).unwrap();
        assert!(back.verify(manufacturer.public_key()));
        assert_eq!(back, cert);
        let back = AkBinding::from_wire(&binding_bytes).unwrap();
        assert!(back.verify(&cert.ek_public, b"registrar-challenge"));
        assert_eq!(back, binding);
        for cut in 0..cert_bytes.len() {
            assert!(EkCertificate::from_wire(&cert_bytes[..cut]).is_err());
        }
        for cut in 0..binding_bytes.len() {
            assert!(AkBinding::from_wire(&binding_bytes[..cut]).is_err());
        }
    }
}
