//! The hand-written wire codec impls of the crypto primitives
//! ([`HashAlgorithm`] and [`Signature`](crate::Signature) derive
//! theirs).
//!
//! [`Digest`] and [`VerifyingKey`] keep their bytes private and
//! length-checked, so only this crate can rebuild them from validated
//! bytes. Digest bytes decode through [`cia_wire::Reader::bytes`],
//! borrowing from the frame buffer and copying once into the digest's
//! fixed inline array: no heap allocation on the hot path.

use cia_wire::{Reader, Wire, WireError, Writer};

use crate::digest::{Digest, HashAlgorithm};
use crate::keys::VerifyingKey;

/// By hand: length-checked private material.
impl Wire for Digest {
    /// An algorithm byte, a one-byte length and the shortest digest
    /// (SHA-1's 20 bytes).
    const MIN_WIRE_LEN: usize = 2 + 20;

    fn encode(&self, w: &mut Writer) {
        self.algorithm().encode(w);
        w.put_bytes(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let algorithm = HashAlgorithm::decode(r)?;
        let raw = r.bytes()?;
        Digest::from_bytes(algorithm, raw).map_err(|_| WireError::BadLength {
            len: raw.len(),
            remaining: algorithm.output_len(),
        })
    }
}

/// By hand: length-checked private material.
impl Wire for VerifyingKey {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.material);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = r.bytes()?;
        let material = <[u8; 32]>::try_from(raw).map_err(|_| WireError::BadLength {
            len: raw.len(),
            remaining: 32,
        })?;
        Ok(VerifyingKey { material })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sha256, Signature};

    #[test]
    fn digest_roundtrips_both_algorithms() {
        let d256 = Sha256::digest(b"evidence");
        let d1 = crate::Sha1::digest(b"evidence");
        for d in [d256, d1] {
            let bytes = d.to_wire();
            assert_eq!(Digest::from_wire(&bytes).unwrap(), d);
        }
    }

    #[test]
    fn wrong_length_digest_is_rejected() {
        let d = Sha256::digest(b"x");
        let mut w = Writer::new();
        HashAlgorithm::Sha1.encode(&mut w); // claim sha1 (20 bytes)...
        w.put_bytes(d.as_bytes()); // ...but carry 32
        assert!(Digest::from_wire(w.as_slice()).is_err());
    }

    #[test]
    fn signature_roundtrips() {
        let pair = crate::KeyPair::from_material([7u8; 32]);
        let sig = pair.signing.sign(b"quote");
        let back = Signature::from_wire(&sig.to_wire()).unwrap();
        assert_eq!(back, sig);
        assert!(pair.verifying.verify(b"quote", &back));
    }

    #[test]
    fn verifying_key_roundtrips_and_is_32_bytes() {
        let key = crate::KeyPair::from_material([9u8; 32]).verifying;
        let bytes = key.to_wire();
        assert_eq!(bytes.len(), 33, "a length byte and the material");
        assert_eq!(VerifyingKey::from_wire(&bytes).unwrap(), key);
        for cut in 0..bytes.len() {
            assert!(VerifyingKey::from_wire(&bytes[..cut]).is_err());
        }
        for len in [0usize, 31, 33, 64] {
            let mut w = Writer::new();
            w.put_bytes(&vec![9u8; len]);
            assert!(
                matches!(
                    VerifyingKey::from_wire(w.as_slice()),
                    Err(WireError::BadLength { .. })
                ),
                "{len}-byte key"
            );
        }
    }
}
