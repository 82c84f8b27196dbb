//! Durable attestation: a tamper-evident audit trail.
//!
//! Production Keylime deployments pair the verifier with *durable
//! attestation*: every attestation outcome is persisted to an append-only
//! store so that auditors can later prove what the verifier saw and when
//! — even if the verifier host is itself compromised afterwards. This
//! module provides the core of that feature: an [`AuditLog`] of one
//! [`AuditSeal`] per round, each holding the round's result rows, chained
//! to its predecessor by hash and signed once, whose integrity can be
//! re-verified offline from the head hash alone.

use cia_crypto::{Digest, HashAlgorithm, KeyPair, Sha256, Signature, VerifyingKey};
use cia_wire::{Wire, Writer};
use serde::{Deserialize, Serialize};

use crate::scheduler::AgentRoundResult;

/// One sealed round in the audit chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditSeal {
    /// Position in the chain (0-based).
    pub sequence: u64,
    /// The round's result rows, in the report's sorted-id order.
    pub rows: Vec<AgentRoundResult>,
    /// Hash of the previous seal (zero digest for the first).
    pub prev_hash: Digest,
    /// Hash over this seal's contents, chaining it to its predecessor.
    pub hash: Digest,
    /// Auditor-key signature over `hash`.
    pub signature: Signature,
}

impl AuditSeal {
    /// One streaming SHA-256 over the sequence, the previous hash, the
    /// row count and each row's length-prefixed `cia_wire` encoding, so
    /// every field of every row is covered. `scratch` is the reusable
    /// encode buffer.
    fn compute_hash(
        sequence: u64,
        prev_hash: &Digest,
        rows: &[AgentRoundResult],
        scratch: &mut Writer,
    ) -> Digest {
        let mut h = Sha256::new();
        h.update(b"AUDIT-SEAL:");
        h.update(&sequence.to_be_bytes());
        h.update(prev_hash.as_bytes());
        h.update(&(rows.len() as u64).to_be_bytes());
        for row in rows {
            scratch.clear();
            row.encode(scratch);
            h.update(&(scratch.len() as u64).to_be_bytes());
            h.update(scratch.as_slice());
        }
        h.finalize()
    }
}

/// An append-only, hash-chained attestation history: one seal per round.
#[derive(Debug)]
pub struct AuditLog {
    seals: Vec<AuditSeal>,
    keys: KeyPair,
    scratch: Writer,
}

impl AuditLog {
    /// Creates an empty log with a fresh auditor key.
    pub fn new<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        AuditLog {
            seals: Vec::new(),
            keys: KeyPair::generate(rng),
            scratch: Writer::new(),
        }
    }

    /// The key auditors use to verify the chain's signatures.
    pub fn public_key(&self) -> &VerifyingKey {
        &self.keys.verifying
    }

    /// Seals one round's result rows as the next link, returning the new
    /// head hash.
    pub fn seal(&mut self, rows: Vec<AgentRoundResult>) -> Digest {
        let sequence = self.seals.len() as u64;
        let prev_hash = self
            .head()
            .unwrap_or_else(|| HashAlgorithm::Sha256.zero_digest());
        let hash = AuditSeal::compute_hash(sequence, &prev_hash, &rows, &mut self.scratch);
        let signature = self.keys.signing.sign(hash.as_bytes());
        self.seals.push(AuditSeal {
            sequence,
            rows,
            prev_hash,
            hash,
            signature,
        });
        hash
    }

    /// All seals in order.
    pub fn seals(&self) -> &[AuditSeal] {
        &self.seals
    }

    /// The chain head (None when empty).
    pub fn head(&self) -> Option<Digest> {
        self.seals.last().map(|s| s.hash)
    }

    /// Number of seals (rounds).
    pub fn len(&self) -> usize {
        self.seals.len()
    }

    /// True when nothing has been sealed.
    pub fn is_empty(&self) -> bool {
        self.seals.is_empty()
    }

    /// Offline verification: checks the full chain (hashes, linkage,
    /// sequence numbers, signatures) against `auditor_key` and, if given,
    /// an externally-anchored `expected_head`.
    ///
    /// # Errors
    ///
    /// The index of the first seal that fails verification (or
    /// `seals.len()` when only the head anchor mismatches).
    pub fn verify_chain(
        seals: &[AuditSeal],
        auditor_key: &VerifyingKey,
        expected_head: Option<&Digest>,
    ) -> Result<(), usize> {
        let mut scratch = Writer::new();
        let mut prev = HashAlgorithm::Sha256.zero_digest();
        for (i, seal) in seals.iter().enumerate() {
            if seal.sequence != i as u64 || seal.prev_hash != prev {
                return Err(i);
            }
            let expected =
                AuditSeal::compute_hash(seal.sequence, &seal.prev_hash, &seal.rows, &mut scratch);
            if seal.hash != expected || !auditor_key.verify(seal.hash.as_bytes(), &seal.signature) {
                return Err(i);
            }
            prev = seal.hash;
        }
        if let Some(head) = expected_head {
            if seals.last().map(|s| &s.hash) != Some(head) {
                return Err(seals.len());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::ids::AgentId;
    use crate::scheduler::RoundOutcome;
    use crate::store::PolicyEpoch;
    use crate::verifier::{Alert, FailureKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn log() -> AuditLog {
        let mut rng = StdRng::seed_from_u64(9);
        AuditLog::new(&mut rng)
    }

    fn row(id: &str, day: u32, outcome: RoundOutcome) -> AgentRoundResult {
        AgentRoundResult {
            id: AgentId::from(id),
            backend: BackendKind::TpmIma,
            day,
            attempts: 1,
            backoff_ms: 0,
            policy_epoch: PolicyEpoch::ZERO.next(),
            shared_policy: true,
            outcome,
        }
    }

    fn verified(id: &str, day: u32) -> AgentRoundResult {
        row(id, day, RoundOutcome::Verified { new_entries: 3 })
    }

    fn failed(id: &str, day: u32) -> AgentRoundResult {
        let alert = Alert {
            agent: AgentId::from(id),
            day,
            kind: FailureKind::PcrMismatch,
        };
        row(
            id,
            day,
            RoundOutcome::Failed {
                alerts: vec![alert],
            },
        )
    }

    /// Three sealed rounds: a failure among two rows, then two clean
    /// rounds.
    fn three_rounds() -> AuditLog {
        let mut log = log();
        log.seal(vec![verified("node-0", 1), failed("node-1", 1)]);
        log.seal(vec![verified("node-0", 2), verified("node-1", 2)]);
        log.seal(vec![verified("node-0", 3)]);
        log
    }

    /// One way an attacker who owns the verifier host might rewrite
    /// history — the seals or the key an auditor is handed — and the
    /// index of the first seal it breaks.
    struct Tamper {
        what: &'static str,
        forge: fn(&mut Vec<AuditSeal>, &mut VerifyingKey),
        first_bad: usize,
    }

    /// Each forgery of [`three_rounds`] fails verification against the
    /// externally-anchored head at exactly its first bad seal.
    fn assert_caught(table: &[Tamper]) {
        let log = three_rounds();
        let head = log.head().unwrap();
        for tamper in table {
            let mut seals = log.seals().to_vec();
            let mut key = log.public_key().clone();
            (tamper.forge)(&mut seals, &mut key);
            assert_eq!(
                AuditLog::verify_chain(&seals, &key, Some(&head)),
                Err(tamper.first_bad),
                "{}",
                tamper.what
            );
        }
    }

    #[test]
    fn chain_builds_and_verifies() {
        let log = three_rounds();
        let head = log.head().unwrap();
        assert_eq!(log.len(), 3, "one seal per round");
        assert_eq!(log.seals()[0].rows.len(), 2);
        AuditLog::verify_chain(log.seals(), log.public_key(), Some(&head)).unwrap();
    }

    #[test]
    fn empty_chain_verifies() {
        let log = log();
        AuditLog::verify_chain(log.seals(), log.public_key(), None).unwrap();
        assert!(log.is_empty());
    }

    /// The seal covers every field of every row, and the row set itself.
    #[test]
    fn record_tampering_detected() {
        assert_caught(&[
            Tamper {
                what: "flipped outcome: the failure becomes a success",
                forge: |s, _| s[0].rows[1].outcome = RoundOutcome::Verified { new_entries: 3 },
                first_bad: 0,
            },
            Tamper {
                what: "swapped rows",
                forge: |s, _| s[1].rows.swap(0, 1),
                first_bad: 1,
            },
            Tamper {
                what: "dropped row",
                forge: |s, _| {
                    s[0].rows.remove(1);
                },
                first_bad: 0,
            },
            Tamper {
                what: "row spliced in from another seal",
                forge: |s, _| {
                    let spliced = s[0].rows[1].clone();
                    s[2].rows.push(spliced);
                },
                first_bad: 2,
            },
        ]);
    }

    #[test]
    fn truncation_detected_by_head_anchor() {
        // Dropping the embarrassing tail still chains correctly...
        let log = three_rounds();
        AuditLog::verify_chain(&log.seals()[..2], log.public_key(), None).unwrap();
        // ...but not against the externally-anchored head.
        assert_caught(&[Tamper {
            what: "truncated tail",
            forge: |s, _| s.truncate(2),
            first_bad: 2,
        }]);
    }

    #[test]
    fn reordering_detected() {
        assert_caught(&[Tamper {
            what: "reordered seals",
            forge: |s, _| s.swap(1, 2),
            first_bad: 1,
        }]);
    }

    #[test]
    fn foreign_signature_detected() {
        assert_caught(&[Tamper {
            what: "foreign key",
            forge: |_, key| {
                *key = AuditLog::new(&mut StdRng::seed_from_u64(10))
                    .public_key()
                    .clone()
            },
            first_bad: 0,
        }]);
    }
}
