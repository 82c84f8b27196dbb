//! Platform Configuration Registers.

use cia_crypto::{Digest, HashAlgorithm, Sha1, Sha256};
use serde::{Deserialize, Serialize};

use crate::error::TpmError;

/// Number of PCRs per bank (TPM 2.0 PC-client profile).
pub const PCR_COUNT: usize = 24;

/// One bank of PCRs, all using the same hash algorithm.
///
/// `extend` is the only way to change a PCR between resets, which is what
/// makes the final value a commitment to the full measurement sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PcrBank {
    algorithm: HashAlgorithm,
    values: Vec<Digest>,
}

impl PcrBank {
    /// Creates a bank with every PCR at its reset value (all zeroes; PCRs
    /// 17–22 would be all-ones on a real part, a detail the simulators do
    /// not need).
    pub fn new(algorithm: HashAlgorithm) -> Self {
        PcrBank {
            algorithm,
            values: vec![algorithm.zero_digest(); PCR_COUNT],
        }
    }

    /// The bank's hash algorithm.
    pub fn algorithm(&self) -> HashAlgorithm {
        self.algorithm
    }

    /// Reads a PCR value.
    ///
    /// # Errors
    ///
    /// [`TpmError::InvalidPcrIndex`] when `index >= PCR_COUNT`.
    pub fn read(&self, index: u8) -> Result<Digest, TpmError> {
        self.values
            .get(index as usize)
            .copied()
            .ok_or(TpmError::InvalidPcrIndex { index })
    }

    /// Extends a PCR: `PCR[i] <- H(PCR[i] || digest)`.
    ///
    /// # Errors
    ///
    /// [`TpmError::InvalidPcrIndex`] for a bad index,
    /// [`TpmError::AlgorithmMismatch`] when `digest` was produced by a
    /// different algorithm than the bank's.
    pub fn extend(&mut self, index: u8, digest: Digest) -> Result<Digest, TpmError> {
        if digest.algorithm() != self.algorithm {
            return Err(TpmError::AlgorithmMismatch {
                bank: self.algorithm.name(),
                digest: digest.algorithm().name(),
            });
        }
        let slot = self
            .values
            .get_mut(index as usize)
            .ok_or(TpmError::InvalidPcrIndex { index })?;
        *slot = extend_digest(self.algorithm, *slot, digest);
        Ok(*slot)
    }

    /// Resets every PCR to the power-on value.
    pub fn reset(&mut self) {
        for v in &mut self.values {
            *v = self.algorithm.zero_digest();
        }
    }

    /// All 24 PCR values in order.
    pub fn values(&self) -> &[Digest] {
        &self.values
    }
}

/// Computes one extend step outside a bank (used by verifiers replaying a
/// measurement log).
pub fn extend_digest(algorithm: HashAlgorithm, current: Digest, new: Digest) -> Digest {
    match algorithm {
        HashAlgorithm::Sha1 => {
            let mut h = Sha1::new();
            h.update(current.as_bytes());
            h.update(new.as_bytes());
            h.finalize()
        }
        HashAlgorithm::Sha256 => {
            let mut h = Sha256::new();
            h.update(current.as_bytes());
            h.update(new.as_bytes());
            h.finalize()
        }
    }
}

/// A set of PCR indices selected for a quote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PcrSelection {
    mask: u32,
}

impl PcrSelection {
    /// Selects exactly one PCR.
    pub fn single(index: u8) -> Self {
        PcrSelection {
            mask: 1u32 << (index as u32 % PCR_COUNT as u32),
        }
    }

    /// Selects several PCRs (indices taken modulo [`PCR_COUNT`]).
    pub fn of(indices: &[u8]) -> Self {
        let mut mask = 0u32;
        for &i in indices {
            mask |= 1u32 << (i as u32 % PCR_COUNT as u32);
        }
        PcrSelection { mask }
    }

    /// True when `index` is selected.
    pub fn contains(&self, index: u8) -> bool {
        (index as usize) < PCR_COUNT && self.mask & (1u32 << index as u32) != 0
    }

    /// Iterates over selected indices in ascending order.
    pub fn indices(&self) -> impl Iterator<Item = u8> + '_ {
        (0..PCR_COUNT as u8).filter(move |&i| self.contains(i))
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Every index selected here or in `other`.
    #[must_use]
    pub fn union(self, other: PcrSelection) -> Self {
        PcrSelection {
            mask: self.mask | other.mask,
        }
    }

    /// True when every index `other` selects is selected here too.
    pub fn covers(&self, other: &PcrSelection) -> bool {
        self.mask & other.mask == other.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_value_is_zero() {
        let bank = PcrBank::new(HashAlgorithm::Sha256);
        assert!(bank.read(0).unwrap().is_zero());
        assert!(bank.read(23).unwrap().is_zero());
        assert!(bank.read(24).is_err());
    }

    #[test]
    fn extend_matches_manual_computation() {
        let mut bank = PcrBank::new(HashAlgorithm::Sha256);
        let d = HashAlgorithm::Sha256.digest(b"event");
        let after = bank.extend(10, d).unwrap();

        let mut h = Sha256::new();
        h.update(HashAlgorithm::Sha256.zero_digest().as_bytes());
        h.update(d.as_bytes());
        assert_eq!(after, h.finalize());
        assert_eq!(bank.read(10).unwrap(), after);
    }

    #[test]
    fn extend_order_matters() {
        let a = HashAlgorithm::Sha256.digest(b"a");
        let b = HashAlgorithm::Sha256.digest(b"b");
        let mut bank1 = PcrBank::new(HashAlgorithm::Sha256);
        bank1.extend(10, a).unwrap();
        bank1.extend(10, b).unwrap();
        let mut bank2 = PcrBank::new(HashAlgorithm::Sha256);
        bank2.extend(10, b).unwrap();
        bank2.extend(10, a).unwrap();
        assert_ne!(bank1.read(10).unwrap(), bank2.read(10).unwrap());
    }

    #[test]
    fn algorithm_mismatch_rejected() {
        let mut bank = PcrBank::new(HashAlgorithm::Sha256);
        let sha1_digest = HashAlgorithm::Sha1.digest(b"x");
        assert!(matches!(
            bank.extend(10, sha1_digest),
            Err(TpmError::AlgorithmMismatch { .. })
        ));
    }

    #[test]
    fn reset_clears() {
        let mut bank = PcrBank::new(HashAlgorithm::Sha1);
        bank.extend(0, HashAlgorithm::Sha1.digest(b"boot")).unwrap();
        assert!(!bank.read(0).unwrap().is_zero());
        bank.reset();
        assert!(bank.read(0).unwrap().is_zero());
    }

    #[test]
    fn selection() {
        let sel = PcrSelection::of(&[0, 10, 23]);
        assert!(sel.contains(0));
        assert!(sel.contains(10));
        assert!(sel.contains(23));
        assert!(!sel.contains(1));
        assert_eq!(sel.indices().collect::<Vec<_>>(), vec![0, 10, 23]);
        assert!(!sel.is_empty());
        assert!(PcrSelection::of(&[]).is_empty());
    }

    #[test]
    fn union_and_cover() {
        let boot = PcrSelection::of(&[0, 9]);
        let both = boot.union(PcrSelection::single(10));
        assert_eq!(both, PcrSelection::of(&[0, 9, 10]));
        assert!(both.covers(&boot));
        assert!(both.covers(&both));
        assert!(!boot.covers(&both));
        assert!(boot.covers(&PcrSelection::of(&[])));
    }

    #[test]
    fn replay_with_extend_digest_matches_bank() {
        let mut bank = PcrBank::new(HashAlgorithm::Sha256);
        let events: Vec<Digest> = (0..5)
            .map(|i| HashAlgorithm::Sha256.digest(format!("e{i}").as_bytes()))
            .collect();
        let mut replay = HashAlgorithm::Sha256.zero_digest();
        for e in &events {
            bank.extend(10, *e).unwrap();
            replay = extend_digest(HashAlgorithm::Sha256, replay, *e);
        }
        assert_eq!(bank.read(10).unwrap(), replay);
    }
}
