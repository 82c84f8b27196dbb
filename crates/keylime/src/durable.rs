//! Durable, crash-recoverable verifier state.
//!
//! Every fact the verifier cannot afford to lose — policy epochs,
//! enrolments, per-agent attestation state, round progress — is
//! journaled into a [`cia_storage::LogStore`] as it is produced. After
//! a crash, [`VerifierJournal::recover`] replays the log and rebuilds a
//! verifier whose observable state is bit-identical to the one that
//! died: the same policy store epoch and content, the same per-agent
//! health machines, nonce counters, replayed PCR folds and alert
//! histories. A round that was in flight resumes from its last acked
//! agent instead of re-attesting the fleet — closing the paper's
//! restart gap (the re-attestation storm plus the missed-detection
//! window while the fleet re-enrols).
//!
//! # Key schema
//!
//! | key                     | value                                   |
//! |-------------------------|-----------------------------------------|
//! | `policy/base`           | founding store checkpoint (epoch 0)     |
//! | `policy/pub/<epoch>`    | one publish: full policy or delta       |
//! | `enrol/<agent id>`      | enrolment constants (AK, backend, …)    |
//! | `agent/<agent id>`      | latest ack: round result + state        |
//! | `meta/started`          | highest round ever started              |
//! | `meta/committed`        | highest round fully committed           |
//!
//! Keys are last-write-wins, so the journal compacts safely: each
//! agent's latest ack, each epoch's publish, and the round marks all
//! survive a [`VerifierJournal::compact`].
//!
//! # Round protocol
//!
//! `begin_round` stamps `meta/started = R`; the round engine runs; the
//! cluster then walks the round's result rows — **sorted by agent id**,
//! so the journal's bytes are identical for any worker count — and
//! appends one ack per row from the agent's record, read in place
//! (nothing touches a record between its row and the engine's return,
//! so the post-round record is the state that produced the row);
//! `meta/committed = R` seals the round. A crash between any two
//! appends leaves `started > committed` and a prefix of the acks —
//! exactly what [`ResumePlan`] reports.
//!
//! # When an ack embeds the policy document
//!
//! Recovery resolves a shared agent's policy from the journaled
//! publishes (base checkpoint + every later epoch) and reads an ack's
//! embedded document only when that fails. So an ack embeds the
//! document iff the agent is an override, or is pinned on an epoch
//! older than the base checkpoint — one rule, in
//! [`VerifierJournal::record_agent_ack`]. Embedding more writes the
//! fleet policy once per agent; embedding less loses a pre-checkpoint
//! laggard's policy on its next (last-write-wins) ack.

use std::collections::BTreeMap;
use std::sync::Arc;

use cia_storage::{LogStore, RecoveryReport, StorageError};
use cia_vfs::{Vfs, VfsPath};
use serde::{Deserialize, Serialize};

use crate::backend::BackendIdentity;
use crate::ids::AgentId;
use crate::policy::{PolicyDelta, RuntimePolicy};
use crate::scheduler::AgentRoundResult;
use crate::store::PolicyEpoch;
use crate::verifier::{AgentRecord, AgentStateSnapshot, Verifier, VerifierConfig};

/// Where a cluster's journal lives inside its virtual filesystem.
pub const DEFAULT_JOURNAL_DIR: &str = "/var/lib/keylime/journal";

const KEY_BASE: &[u8] = b"policy/base";
const KEY_STARTED: &[u8] = b"meta/started";
const KEY_COMMITTED: &[u8] = b"meta/committed";
const PREFIX_PUB: &str = "policy/pub/";
const PREFIX_ENROL: &str = "enrol/";
const PREFIX_ACK: &str = "agent/";

fn pub_key(epoch: PolicyEpoch) -> Vec<u8> {
    // Zero-padded so lexicographic key order is epoch order.
    format!("{PREFIX_PUB}{:020}", epoch.as_u64()).into_bytes()
}

fn enrol_key(id: &AgentId) -> Vec<u8> {
    format!("{PREFIX_ENROL}{id}").into_bytes()
}

fn ack_key(id: &AgentId) -> Vec<u8> {
    format!("{PREFIX_ACK}{id}").into_bytes()
}

fn encode<T: Serialize>(what: &str, value: &T) -> Result<Vec<u8>, StorageError> {
    serde_json::to_vec(value).map_err(|e| StorageError::Codec {
        what: what.to_string(),
        reason: e.to_string(),
    })
}

fn decode<T: serde::de::DeserializeOwned>(what: &str, bytes: &[u8]) -> Result<T, StorageError> {
    serde_json::from_slice(bytes).map_err(|e| StorageError::Codec {
        what: what.to_string(),
        reason: e.to_string(),
    })
}

/// The founding policy-store checkpoint, written once at journal
/// creation: the store content and epoch every later publish builds on.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BaseCheckpoint {
    epoch: u64,
    policy_json: String,
}

/// One shared-store publish, keyed by the epoch it produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum PolicyPub {
    /// A full replacement policy.
    Full { policy_json: String },
    /// A generator delta applied to the previous epoch.
    Delta { delta: PolicyDelta },
}

/// The enrolment-time constants of one agent.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EnrolmentRecord {
    ak: cia_crypto::VerifyingKey,
    identity: BackendIdentity,
    shared: bool,
    /// The store epoch current at enrolment (what a never-acked
    /// override agent's `policy_epoch` stays pinned to).
    epoch: u64,
    /// The override policy document, for agents not on the shared store.
    override_policy: Option<String>,
}

/// One agent's latest acknowledged round: the result the operator saw
/// and the exact record state that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AckRecord {
    round: u64,
    result: AgentRoundResult,
    state: AgentStateSnapshot,
    /// The agent's policy document when it cannot be resolved from the
    /// journaled publishes (see the module docs for the rule).
    policy_json: Option<String>,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct RoundMark {
    round: u64,
}

/// What a recovered journal says about a round that was in flight when
/// the verifier died.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumePlan {
    /// The crashed round's number.
    pub round: u64,
    /// The results already durably acked for that round, sorted by
    /// agent id. These agents must not be re-attested; the round
    /// resumes over everyone else.
    pub acked: Vec<AgentRoundResult>,
}

impl ResumePlan {
    /// The acked agent ids — what a resumed round's command list leaves
    /// out.
    pub fn acked_ids(&self) -> std::collections::BTreeSet<AgentId> {
        self.acked.iter().map(|r| r.id.clone()).collect()
    }
}

/// A recovered verifier plus everything the recovery learned.
#[derive(Debug)]
pub struct Recovered {
    /// The rebuilt verifier, state bit-identical to the crashed one.
    pub verifier: Verifier,
    /// The reopened journal, ready to continue appending.
    pub journal: VerifierJournal,
    /// In-flight round to resume, if the crash interrupted one.
    pub resume: Option<ResumePlan>,
    /// What the storage layer repaired (torn tails truncated, etc.).
    pub storage_report: RecoveryReport,
}

/// The verifier's durability journal over an append-only record log.
/// See the module docs for the key schema and round protocol.
#[derive(Debug, Clone)]
pub struct VerifierJournal {
    log: LogStore,
    started: u64,
    committed: u64,
    /// The epoch of the `policy/base` checkpoint: publishes at or below
    /// it are folded into the checkpoint and cannot be resolved singly.
    base_epoch: u64,
}

impl VerifierJournal {
    /// Creates (or reopens) a journal at `dir`. A fresh journal writes
    /// the founding policy checkpoint so recovery always has a base.
    ///
    /// # Errors
    ///
    /// [`StorageError`] on filesystem or codec failures.
    pub fn create(vfs: Vfs, dir: &VfsPath) -> Result<Self, StorageError> {
        let (mut log, _) = LogStore::open(vfs, dir)?;
        let base_epoch = match log.get(KEY_BASE)? {
            Some(bytes) => decode::<BaseCheckpoint>("policy/base", &bytes)?.epoch,
            None => {
                let base = BaseCheckpoint {
                    epoch: PolicyEpoch::ZERO.as_u64(),
                    policy_json: RuntimePolicy::new().to_json(),
                };
                log.put(KEY_BASE, &encode("policy/base", &base)?)?;
                base.epoch
            }
        };
        let started = Self::round_mark(&log, KEY_STARTED)?;
        let committed = Self::round_mark(&log, KEY_COMMITTED)?;
        Ok(VerifierJournal {
            log,
            started,
            committed,
            base_epoch,
        })
    }

    fn round_mark(log: &LogStore, key: &[u8]) -> Result<u64, StorageError> {
        Ok(match log.get(key)? {
            Some(bytes) => decode::<RoundMark>("round mark", &bytes)?.round,
            None => 0,
        })
    }

    /// Re-checkpoints the founding store state. Used when durability is
    /// enabled on a cluster that already published epochs: the journal
    /// has no history for them, so the current store becomes the new
    /// base and only *later* publishes are replayed individually.
    ///
    /// # Errors
    ///
    /// [`StorageError`].
    pub fn checkpoint_base(
        &mut self,
        epoch: PolicyEpoch,
        policy: &RuntimePolicy,
    ) -> Result<(), StorageError> {
        let base = BaseCheckpoint {
            epoch: epoch.as_u64(),
            policy_json: policy.to_json(),
        };
        self.log.put(KEY_BASE, &encode("policy/base", &base)?)?;
        self.base_epoch = base.epoch;
        Ok(())
    }

    /// The backing log (for crash imaging and inspection).
    pub fn log(&self) -> &LogStore {
        &self.log
    }

    /// The highest round ever started.
    pub fn last_started(&self) -> u64 {
        self.started
    }

    /// The highest round fully committed.
    pub fn last_committed(&self) -> u64 {
        self.committed
    }

    /// The round number the next [`VerifierJournal::begin_round`] will
    /// stamp.
    pub fn next_round(&self) -> u64 {
        self.started + 1
    }

    /// Journals the enrolment of `id` as `verifier` holds it: the
    /// record's constants, and its policy document if it is an override.
    ///
    /// # Errors
    ///
    /// [`StorageError`]; `id` not being enrolled is reported as one.
    pub fn record_enrolment(
        &mut self,
        verifier: &Verifier,
        id: &AgentId,
    ) -> Result<(), StorageError> {
        let record = verifier.record(id).map_err(|e| StorageError::Codec {
            what: format!("enrol/{id}"),
            reason: e.to_string(),
        })?;
        let state = record.state();
        let enrolment = EnrolmentRecord {
            ak: record.ak().clone(),
            identity: record.backend_identity(),
            shared: state.shared_policy,
            epoch: state.policy_epoch.as_u64(),
            override_policy: (!state.shared_policy).then(|| record.policy().to_json()),
        };
        let bytes = encode("enrolment", &enrolment)?;
        self.log.put(&enrol_key(id), &bytes)?;
        Ok(())
    }

    /// Journals a full-policy publish under the epoch it produced.
    ///
    /// # Errors
    ///
    /// [`StorageError`].
    pub fn record_publish_full(
        &mut self,
        epoch: PolicyEpoch,
        policy: &RuntimePolicy,
    ) -> Result<(), StorageError> {
        let entry = PolicyPub::Full {
            policy_json: policy.to_json(),
        };
        let bytes = encode("policy publish", &entry)?;
        self.log.put(&pub_key(epoch), &bytes)?;
        Ok(())
    }

    /// Journals a delta publish under the epoch it produced.
    ///
    /// # Errors
    ///
    /// [`StorageError`].
    pub fn record_publish_delta(
        &mut self,
        epoch: PolicyEpoch,
        delta: &PolicyDelta,
    ) -> Result<(), StorageError> {
        let entry = PolicyPub::Delta {
            delta: delta.clone(),
        };
        let bytes = encode("policy delta", &entry)?;
        self.log.put(&pub_key(epoch), &bytes)?;
        Ok(())
    }

    /// Stamps the start of round `round` (`meta/started`).
    ///
    /// # Errors
    ///
    /// [`StorageError`].
    pub fn begin_round(&mut self, round: u64) -> Result<(), StorageError> {
        let bytes = encode("round start", &RoundMark { round })?;
        self.log.put(KEY_STARTED, &bytes)?;
        self.started = self.started.max(round);
        Ok(())
    }

    /// Journals one agent's ack for `round`: its result and the record
    /// state that produced it. `policy_json` carries the agent's policy
    /// document when recovery could not resolve it from the journaled
    /// publishes; [`VerifierJournal::record_agent_ack`] decides that.
    ///
    /// # Errors
    ///
    /// [`StorageError`].
    pub fn record_ack(
        &mut self,
        round: u64,
        result: &AgentRoundResult,
        state: &AgentStateSnapshot,
        policy_json: Option<String>,
    ) -> Result<(), StorageError> {
        let ack = AckRecord {
            round,
            result: result.clone(),
            state: state.clone(),
            policy_json,
        };
        let bytes = encode("agent ack", &ack)?;
        self.log.put(&ack_key(&result.id), &bytes)?;
        Ok(())
    }

    /// Journals `record`'s ack for `round`. The one place that decides
    /// whether an ack embeds the policy document (see the module docs):
    /// iff the agent is an override, or is pinned on an epoch older than
    /// the base checkpoint.
    ///
    /// # Errors
    ///
    /// [`StorageError`].
    pub(crate) fn record_agent_ack(
        &mut self,
        round: u64,
        result: &AgentRoundResult,
        record: &AgentRecord,
    ) -> Result<(), StorageError> {
        let state = record.state();
        let unresolvable = !state.shared_policy || state.policy_epoch.as_u64() < self.base_epoch;
        let policy_json = unresolvable.then(|| record.policy().to_json());
        self.record_ack(round, result, state, policy_json)
    }

    /// Seals round `round` (`meta/committed`).
    ///
    /// # Errors
    ///
    /// [`StorageError`].
    pub fn commit_round(&mut self, round: u64) -> Result<(), StorageError> {
        let bytes = encode("round commit", &RoundMark { round })?;
        self.log.put(KEY_COMMITTED, &bytes)?;
        self.committed = self.committed.max(round);
        Ok(())
    }

    /// Compacts the journal: superseded acks, re-published epochs and
    /// stale round marks drop; the live view survives verbatim.
    ///
    /// # Errors
    ///
    /// [`StorageError`].
    pub fn compact(&mut self) -> Result<u64, StorageError> {
        self.log.compact()
    }

    /// Rebuilds a verifier from the journal at `dir` inside `vfs`,
    /// truncating any torn tail first. The returned verifier's
    /// observable state — store epoch and content, every agent's
    /// health/PCR/nonce/alert state — is bit-identical to the one that
    /// wrote the journal. `config` supplies the runtime configuration,
    /// which is deliberately not journaled (it is deployment input, not
    /// runtime state).
    ///
    /// # Errors
    ///
    /// [`StorageError`] on filesystem/codec failures — *not* on torn
    /// frames, which recovery truncates silently (see the storage
    /// report in the result).
    pub fn recover(
        vfs: Vfs,
        dir: &VfsPath,
        config: VerifierConfig,
    ) -> Result<Recovered, StorageError> {
        let (log, storage_report) = LogStore::open(vfs, dir)?;
        let mut verifier = Verifier::new(config);

        // ① The policy store: base checkpoint, then every publish in
        // epoch order. The epoch→snapshot map lets lagging agents
        // (quarantine skew) restore the exact content they appraised
        // against.
        let mut epoch_policies: BTreeMap<u64, Arc<RuntimePolicy>> = BTreeMap::new();
        let mut base_epoch = 0u64;
        if let Some(bytes) = log.get(KEY_BASE)? {
            let base: BaseCheckpoint = decode("policy/base", &bytes)?;
            base_epoch = base.epoch;
            let policy = Arc::new(RuntimePolicy::from_json(&base.policy_json).map_err(|e| {
                StorageError::Codec {
                    what: "policy/base".to_string(),
                    reason: e.to_string(),
                }
            })?);
            verifier.restore_store(Arc::clone(&policy), PolicyEpoch::from_raw(base.epoch));
            epoch_policies.insert(base.epoch, policy);
        }
        for (key, bytes) in log.scan_prefix(PREFIX_PUB.as_bytes())? {
            let what = String::from_utf8_lossy(&key).into_owned();
            // Publishes at or below the base epoch are already folded
            // into the checkpoint (a late `checkpoint_base` supersedes
            // the individual records it summarizes).
            let keyed_epoch: u64 =
                what.trim_start_matches(PREFIX_PUB)
                    .parse()
                    .map_err(|_| StorageError::Codec {
                        what: what.clone(),
                        reason: "publish key is not a zero-padded epoch".to_string(),
                    })?;
            if keyed_epoch <= base_epoch {
                continue;
            }
            let entry: PolicyPub = decode(&what, &bytes)?;
            let produced = match entry {
                PolicyPub::Full { policy_json } => {
                    let policy = RuntimePolicy::from_json(&policy_json).map_err(|e| {
                        StorageError::Codec {
                            what: what.clone(),
                            reason: e.to_string(),
                        }
                    })?;
                    verifier.publish_policy(policy)
                }
                PolicyPub::Delta { delta } => verifier.publish_delta(&delta).0,
            };
            epoch_policies.insert(
                produced.as_u64(),
                Arc::clone(verifier.policy_store().snapshot()),
            );
            // Keys are zero-padded epoch numbers replayed in order, so
            // each publish must land on exactly the epoch it is keyed
            // by; anything else means the journal and the store's
            // epoch arithmetic disagree.
            assert_eq!(
                format!("{PREFIX_PUB}{:020}", produced.as_u64()).into_bytes(),
                key,
                "journal epoch key out of step with the replayed store"
            );
        }

        // ② Enrolments and per-agent state. An agent with an ack is
        // restored to its exact journaled state; one without is
        // re-enrolled fresh (it had no attested state to lose). The same
        // pass over the acks picks out the rows of a started-but-
        // uncommitted round — the agents a resume must not re-attest.
        let started = Self::round_mark(&log, KEY_STARTED)?;
        let committed = Self::round_mark(&log, KEY_COMMITTED)?;
        let mut acks: BTreeMap<AgentId, AckRecord> = BTreeMap::new();
        let mut in_flight: Vec<AgentRoundResult> = Vec::new();
        for (key, bytes) in log.scan_prefix(PREFIX_ACK.as_bytes())? {
            let what = String::from_utf8_lossy(&key).into_owned();
            let id = AgentId::new(what.trim_start_matches(PREFIX_ACK));
            let ack: AckRecord = decode(&what, &bytes)?;
            if started > committed && ack.round == started {
                in_flight.push(ack.result.clone());
            }
            acks.insert(id, ack);
        }
        let current = verifier.policy_store().shared();
        for (key, bytes) in log.scan_prefix(PREFIX_ENROL.as_bytes())? {
            let what = String::from_utf8_lossy(&key).into_owned();
            let id = AgentId::new(what.trim_start_matches(PREFIX_ENROL));
            let enrol: EnrolmentRecord = decode(&what, &bytes)?;
            let (state, ack_policy_json) = match acks.remove(&id) {
                Some(ack) => (ack.state, ack.policy_json),
                None => {
                    // Never acked: reconstruct the fresh-enrolment
                    // state. A shared agent eagerly adopts every
                    // publish, so it sits at the current epoch; an
                    // override stays pinned to its enrolment epoch.
                    let epoch = if enrol.shared {
                        current.epoch
                    } else {
                        PolicyEpoch::from_raw(enrol.epoch)
                    };
                    (AgentStateSnapshot::fresh(epoch, enrol.shared), None)
                }
            };
            let policy_json = ack_policy_json.or_else(|| enrol.override_policy.clone());
            // Resolution order: a shared agent's epoch history first (so
            // current-epoch agents share one Arc), then an embedded
            // document (override agents, and shared laggards pinned on
            // an epoch older than the base checkpoint), then the current
            // snapshot.
            let from_history = if state.shared_policy {
                epoch_policies
                    .get(&state.policy_epoch.as_u64())
                    .map(Arc::clone)
            } else {
                None
            };
            let policy = match (from_history, policy_json) {
                (Some(p), _) => p,
                (None, Some(json)) => {
                    Arc::new(
                        RuntimePolicy::from_json(&json).map_err(|e| StorageError::Codec {
                            what: what.clone(),
                            reason: e.to_string(),
                        })?,
                    )
                }
                (None, None) => Arc::clone(&current.snapshot),
            };
            verifier.restore_agent(id, enrol.ak, enrol.identity, policy, state);
        }

        // ③ Round progress: a started-but-uncommitted round resumes.
        let resume = (started > committed).then(|| {
            in_flight.sort_by(|a, b| a.id.cmp(&b.id));
            ResumePlan {
                round: started,
                acked: in_flight,
            }
        });

        Ok(Recovered {
            verifier,
            journal: VerifierJournal {
                log,
                started,
                committed,
                base_epoch,
            },
            resume,
            storage_report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn journal_dir() -> VfsPath {
        // Test-only helper; the path literal is valid by construction.
        VfsPath::new(DEFAULT_JOURNAL_DIR).unwrap()
    }

    fn ak(seed: u64) -> cia_crypto::VerifyingKey {
        let mut rng = StdRng::seed_from_u64(seed);
        cia_crypto::KeyPair::generate(&mut rng).verifying
    }

    fn policy_with(paths: &[&str]) -> RuntimePolicy {
        let mut p = RuntimePolicy::new();
        for path in paths {
            p.allow(*path, "aa");
        }
        p
    }

    /// A journal built alongside a live verifier recovers to the same
    /// store epoch, policy content, and agent states.
    #[test]
    fn recover_reproduces_verifier_state() {
        let dir = journal_dir();
        let mut journal = VerifierJournal::create(Vfs::with_standard_layout(), &dir).unwrap();
        let mut verifier = Verifier::new(VerifierConfig::default());

        // Shared fleet with one override straggler.
        for i in 0..3u64 {
            let id = AgentId::numbered("node", i);
            let key = ak(i);
            verifier.add_agent_shared(id.clone(), key.clone());
            journal.record_enrolment(&verifier, &id).unwrap();
        }
        let override_policy = policy_with(&["/special"]);
        let oid = AgentId::new("override-node");
        let okey = ak(99);
        verifier.add_agent(oid.clone(), okey.clone(), override_policy.clone());
        journal.record_enrolment(&verifier, &oid).unwrap();

        // Two publishes: one full, one delta.
        let p1 = policy_with(&["/a"]);
        let e1 = verifier.publish_policy(p1.clone());
        journal.record_publish_full(e1, &p1).unwrap();
        let delta = PolicyDelta {
            added: vec![("/b".into(), "bb".into())],
            ..PolicyDelta::default()
        };
        let (e2, _) = verifier.publish_delta(&delta);
        journal.record_publish_delta(e2, &delta).unwrap();

        let recovered =
            VerifierJournal::recover(journal.log().vfs().clone(), &dir, verifier.config()).unwrap();
        assert!(recovered.resume.is_none());
        assert_eq!(recovered.verifier.current_epoch(), verifier.current_epoch());
        assert_eq!(
            recovered.verifier.policy_store().policy().to_json(),
            verifier.policy_store().policy().to_json()
        );
        for id in verifier.agent_ids() {
            assert_eq!(
                recovered.verifier.export_agent_state(&id).unwrap(),
                verifier.export_agent_state(&id).unwrap(),
                "agent {id} state diverged"
            );
            assert_eq!(
                recovered.verifier.policy(&id).unwrap().to_json(),
                verifier.policy(&id).unwrap().to_json(),
                "agent {id} policy diverged"
            );
        }
    }

    /// started > committed surfaces a resume plan carrying exactly the
    /// durably acked results.
    #[test]
    fn uncommitted_round_yields_resume_plan() {
        let dir = journal_dir();
        let mut journal = VerifierJournal::create(Vfs::with_standard_layout(), &dir).unwrap();
        let mut verifier = Verifier::new(VerifierConfig::default());
        let id = AgentId::new("solo");
        let key = ak(7);
        verifier.add_agent_shared(id.clone(), key.clone());
        journal.record_enrolment(&verifier, &id).unwrap();

        journal.begin_round(1).unwrap();
        let result = AgentRoundResult {
            id: id.clone(),
            backend: crate::backend::BackendKind::TpmIma,
            day: 0,
            attempts: 1,
            backoff_ms: 0,
            policy_epoch: verifier.current_epoch(),
            shared_policy: true,
            outcome: crate::scheduler::RoundOutcome::Verified { new_entries: 0 },
        };
        let state = verifier.export_agent_state(&id).unwrap();
        journal.record_ack(1, &result, &state, None).unwrap();
        // No commit: the crash happens here.

        let recovered =
            VerifierJournal::recover(journal.log().vfs().clone(), &dir, verifier.config()).unwrap();
        let plan = recovered.resume.expect("round 1 was in flight");
        assert_eq!(plan.round, 1);
        assert_eq!(plan.acked, vec![result]);
        assert_eq!(plan.acked_ids().len(), 1);
        assert_eq!(recovered.journal.next_round(), 2, "resume, then round 2");
    }

    /// Journal compaction must not change what recovery rebuilds.
    #[test]
    fn compaction_preserves_recovery() {
        let dir = journal_dir();
        let mut journal = VerifierJournal::create(Vfs::with_standard_layout(), &dir).unwrap();
        let mut verifier = Verifier::new(VerifierConfig::default());
        let id = AgentId::new("node");
        let key = ak(3);
        verifier.add_agent_shared(id.clone(), key.clone());
        journal.record_enrolment(&verifier, &id).unwrap();
        for i in 0..5 {
            let p = policy_with(&[&format!("/gen{i}")]);
            let e = verifier.publish_policy(p.clone());
            journal.record_publish_full(e, &p).unwrap();
            // Empty rounds: each overwrites the round marks, leaving
            // garbage frames for compaction to reclaim.
            let round = journal.next_round();
            journal.begin_round(round).unwrap();
            journal.commit_round(round).unwrap();
        }
        let before =
            VerifierJournal::recover(journal.log().vfs().clone(), &dir, verifier.config()).unwrap();
        let dropped = journal.compact().unwrap();
        assert!(dropped > 0, "repeated round marks are garbage");
        let after =
            VerifierJournal::recover(journal.log().vfs().clone(), &dir, verifier.config()).unwrap();
        assert_eq!(
            after.verifier.current_epoch(),
            before.verifier.current_epoch()
        );
        assert_eq!(
            after.verifier.export_agent_state(&id).unwrap(),
            before.verifier.export_agent_state(&id).unwrap()
        );
    }
}
