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
//! Every value is one [`cia_wire`] record, the binary codec the agent
//! RPC and the shard protocol speak; a full policy document travels as
//! its JSON text inside its record.
//!
//! | key                  | value                               | encoding                                    |
//! |----------------------|-------------------------------------|---------------------------------------------|
//! | `policy/base`        | founding store checkpoint (epoch 0) | epoch, policy JSON text                     |
//! | `policy/pub/<epoch>` | one publish: full policy or delta   | tag 0 + policy JSON text, or tag 1 + delta  |
//! | `enrol/<agent id>`   | enrolment constants (AK, backend, …)| AK, identity, shared, epoch, override JSON? |
//! | `agent/<agent id>`   | latest ack: round result + state    | round, result row, state, policy JSON?      |
//! | `meta/started`       | highest round ever started          | round                                       |
//! | `meta/committed`     | highest round fully committed       | round                                       |
//!
//! A value that does not decode — cut short, garbage, or with bytes left
//! over — fails recovery with [`StorageError::Codec`] naming its key.
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

use cia_crypto::{Digest, VerifyingKey};
use cia_storage::{LogStore, RecoveryReport, StorageError};
use cia_vfs::{Vfs, VfsPath};
use cia_wire::{Reader, Wire, WireError, Writer};

use crate::backend::BackendIdentity;
use crate::ids::AgentId;
use crate::policy::{PolicyDelta, PolicyMeta, RuntimePolicy};
use crate::scheduler::AgentRoundResult;
use crate::store::PolicyEpoch;
use crate::verifier::{
    AgentHealth, AgentRecord, AgentStateSnapshot, AgentStatus, Verifier, VerifierConfig,
};

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

/// What a journal key names after its family prefix, stripped exactly
/// once: an agent called `agent/x` has the ack key `agent/agent/x`.
fn key_suffix<'k>(what: &'k str, prefix: &str) -> Result<&'k str, StorageError> {
    what.strip_prefix(prefix)
        .ok_or_else(|| StorageError::Codec {
            what: what.to_string(),
            reason: format!("journal key lacks its `{prefix}` prefix"),
        })
}

/// Decodes the record stored under `key`; a value that does not
/// decode is a codec error naming the key.
fn decode_record<T: Wire>(key: &[u8], bytes: &[u8]) -> Result<T, StorageError> {
    T::from_wire(bytes).map_err(|e| StorageError::Codec {
        what: String::from_utf8_lossy(key).into_owned(),
        reason: e.to_string(),
    })
}

/// Encodes one record into `value`, a buffer reused across appends, and
/// appends it under `key`.
fn put_record(
    log: &mut LogStore,
    value: &mut Writer,
    key: &[u8],
    encode: impl FnOnce(&mut Writer),
) -> Result<(), StorageError> {
    value.clear();
    encode(value);
    log.put(key, value.as_slice())?;
    Ok(())
}

/// The founding policy-store checkpoint, written once at journal
/// creation: the store content and epoch every later publish builds on.
#[derive(Debug, Clone, PartialEq)]
struct BaseCheckpoint {
    epoch: u64,
    policy_json: String,
}

impl Wire for BaseCheckpoint {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.epoch);
        w.put_str(&self.policy_json);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BaseCheckpoint {
            epoch: r.varint()?,
            policy_json: String::decode(r)?,
        })
    }
}

/// One shared-store publish, keyed by the epoch it produced.
#[derive(Debug, Clone, PartialEq)]
enum PolicyPub {
    /// A full replacement policy.
    Full { policy_json: String },
    /// A generator delta applied to the previous epoch.
    Delta { delta: PolicyDelta },
}

impl PolicyPub {
    /// Encodes a full publish from the borrowed document.
    fn encode_full(w: &mut Writer, policy_json: &str) {
        w.put_u8(0);
        w.put_str(policy_json);
    }

    /// Encodes a delta publish from the borrowed delta.
    fn encode_delta(w: &mut Writer, delta: &PolicyDelta) {
        w.put_u8(1);
        delta.encode(w);
    }
}

impl Wire for PolicyPub {
    fn encode(&self, w: &mut Writer) {
        match self {
            PolicyPub::Full { policy_json } => PolicyPub::encode_full(w, policy_json),
            PolicyPub::Delta { delta } => PolicyPub::encode_delta(w, delta),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(PolicyPub::Full {
                policy_json: String::decode(r)?,
            }),
            1 => Ok(PolicyPub::Delta {
                delta: PolicyDelta::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "policy publish",
                tag: u64::from(tag),
            }),
        }
    }
}

/// The enrolment-time constants of one agent.
#[derive(Debug, Clone, PartialEq)]
struct EnrolmentRecord {
    ak: VerifyingKey,
    identity: BackendIdentity,
    shared: bool,
    /// The store epoch current at enrolment (what a never-acked
    /// override agent's `policy_epoch` stays pinned to).
    epoch: u64,
    /// The override policy document, for agents not on the shared store.
    override_policy: Option<String>,
}

impl Wire for EnrolmentRecord {
    fn encode(&self, w: &mut Writer) {
        self.ak.encode(w);
        self.identity.encode(w);
        w.put_bool(self.shared);
        w.put_varint(self.epoch);
        self.override_policy.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EnrolmentRecord {
            ak: VerifyingKey::decode(r)?,
            identity: BackendIdentity::decode(r)?,
            shared: r.bool()?,
            epoch: r.varint()?,
            override_policy: Option::<String>::decode(r)?,
        })
    }
}

/// One agent's latest acknowledged round: the result the operator saw
/// and the exact record state that produced it.
#[derive(Debug, Clone, PartialEq)]
struct AckRecord {
    round: u64,
    result: AgentRoundResult,
    state: AgentStateSnapshot,
    /// The agent's policy document when it cannot be resolved from the
    /// journaled publishes (see the module docs for the rule).
    policy_json: Option<String>,
}

impl AckRecord {
    /// Encodes an ack from borrowed parts: the journal's hot path, which
    /// copies no result row to write one.
    fn encode_parts(
        w: &mut Writer,
        round: u64,
        result: &AgentRoundResult,
        state: &AgentStateSnapshot,
        policy_json: Option<&str>,
    ) {
        w.put_varint(round);
        result.encode(w);
        state.encode(w);
        match policy_json {
            None => w.put_u8(0),
            Some(json) => {
                w.put_u8(1);
                w.put_str(json);
            }
        }
    }
}

impl Wire for AckRecord {
    fn encode(&self, w: &mut Writer) {
        AckRecord::encode_parts(
            w,
            self.round,
            &self.result,
            &self.state,
            self.policy_json.as_deref(),
        );
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AckRecord {
            round: r.varint()?,
            result: AgentRoundResult::decode(r)?,
            state: AgentStateSnapshot::decode(r)?,
            policy_json: Option::<String>::decode(r)?,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct RoundMark {
    round: u64,
}

impl Wire for RoundMark {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.round);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RoundMark { round: r.varint()? })
    }
}

impl Wire for AgentStatus {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            AgentStatus::Trusted => 0,
            AgentStatus::Paused => 1,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(AgentStatus::Trusted),
            1 => Ok(AgentStatus::Paused),
            tag => Err(WireError::BadTag {
                what: "agent status",
                tag: u64::from(tag),
            }),
        }
    }
}

impl Wire for AgentHealth {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            AgentHealth::Healthy => 0,
            AgentHealth::Degraded => 1,
            AgentHealth::Quarantined => 2,
            AgentHealth::Recovering => 3,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(AgentHealth::Healthy),
            1 => Ok(AgentHealth::Degraded),
            2 => Ok(AgentHealth::Quarantined),
            3 => Ok(AgentHealth::Recovering),
            tag => Err(WireError::BadTag {
                what: "agent health",
                tag: u64::from(tag),
            }),
        }
    }
}

impl Wire for AgentStateSnapshot {
    fn encode(&self, w: &mut Writer) {
        self.policy_epoch.encode(w);
        w.put_bool(self.shared_policy);
        w.put_varint(self.next_entry as u64);
        self.replayed_pcr.encode(w);
        self.last_boot_count.encode(w);
        self.status.encode(w);
        w.put_varint(self.attestations);
        w.put_varint(self.nonce_counter);
        self.health.encode(w);
        self.consecutive_unreachable.encode(w);
        self.reprobe_in.encode(w);
        self.reprobe_backoff.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AgentStateSnapshot {
            policy_epoch: PolicyEpoch::decode(r)?,
            shared_policy: r.bool()?,
            next_entry: usize::decode(r)?,
            replayed_pcr: Digest::decode(r)?,
            last_boot_count: Option::<u64>::decode(r)?,
            status: AgentStatus::decode(r)?,
            attestations: r.varint()?,
            nonce_counter: r.varint()?,
            health: AgentHealth::decode(r)?,
            consecutive_unreachable: u32::decode(r)?,
            reprobe_in: u32::decode(r)?,
            reprobe_backoff: u32::decode(r)?,
        })
    }
}

impl Wire for PolicyMeta {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.version);
        w.put_str(&self.generator);
        self.generated_day.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PolicyMeta {
            version: r.varint()?,
            generator: String::decode(r)?,
            generated_day: u32::decode(r)?,
        })
    }
}

impl Wire for PolicyDelta {
    fn encode(&self, w: &mut Writer) {
        self.added.encode(w);
        self.removed_paths.encode(w);
        self.retired.encode(w);
        self.staged_kernels.encode(w);
        self.meta.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PolicyDelta {
            added: Vec::decode(r)?,
            removed_paths: Vec::decode(r)?,
            retired: Vec::decode(r)?,
            staged_kernels: Vec::decode(r)?,
            meta: PolicyMeta::decode(r)?,
        })
    }
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
    /// The ack key and the encoded value of the record being appended,
    /// reused across appends so a warm ack allocates nothing of its own.
    key: Vec<u8>,
    value: Writer,
}

impl VerifierJournal {
    /// Creates (or reopens) a journal at `dir`. A fresh journal writes
    /// the founding policy checkpoint so recovery always has a base.
    ///
    /// # Errors
    ///
    /// [`StorageError`] on filesystem or codec failures.
    pub fn create(vfs: Vfs, dir: &VfsPath) -> Result<Self, StorageError> {
        let (log, _) = LogStore::open(vfs, dir)?;
        let base = log
            .get(KEY_BASE)?
            .map(|bytes| decode_record::<BaseCheckpoint>(KEY_BASE, &bytes))
            .transpose()?;
        let started = Self::round_mark(&log, KEY_STARTED)?;
        let committed = Self::round_mark(&log, KEY_COMMITTED)?;
        let mut journal = VerifierJournal::reopened(log, started, committed, 0);
        match base {
            Some(base) => journal.base_epoch = base.epoch,
            None => journal.checkpoint_base(PolicyEpoch::ZERO, &RuntimePolicy::new())?,
        }
        Ok(journal)
    }

    fn reopened(log: LogStore, started: u64, committed: u64, base_epoch: u64) -> Self {
        VerifierJournal {
            log,
            started,
            committed,
            base_epoch,
            key: Vec::new(),
            value: Writer::new(),
        }
    }

    fn round_mark(log: &LogStore, key: &[u8]) -> Result<u64, StorageError> {
        Ok(match log.get(key)? {
            Some(bytes) => decode_record::<RoundMark>(key, &bytes)?.round,
            None => 0,
        })
    }

    /// Encodes one record into the reused value buffer and appends it
    /// under `key`.
    fn put(&mut self, key: &[u8], record: &impl Wire) -> Result<(), StorageError> {
        put_record(&mut self.log, &mut self.value, key, |w| record.encode(w))
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
        self.put(KEY_BASE, &base)?;
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
        let state = &record.state;
        let enrolment = EnrolmentRecord {
            ak: record.ak().clone(),
            identity: record.backend_identity(),
            shared: state.shared_policy,
            epoch: state.policy_epoch.as_u64(),
            override_policy: (!state.shared_policy).then(|| record.policy().to_json()),
        };
        self.put(&enrol_key(id), &enrolment)
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
        let policy_json = policy.to_json();
        put_record(&mut self.log, &mut self.value, &pub_key(epoch), |w| {
            PolicyPub::encode_full(w, &policy_json);
        })
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
        put_record(&mut self.log, &mut self.value, &pub_key(epoch), |w| {
            PolicyPub::encode_delta(w, delta);
        })
    }

    /// Stamps the start of round `round` (`meta/started`).
    ///
    /// # Errors
    ///
    /// [`StorageError`].
    pub fn begin_round(&mut self, round: u64) -> Result<(), StorageError> {
        self.put(KEY_STARTED, &RoundMark { round })?;
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
        self.put_ack(round, result, state, policy_json.as_deref())
    }

    /// Appends one ack, encoded from its borrowed parts under a key built
    /// in the reused key buffer.
    fn put_ack(
        &mut self,
        round: u64,
        result: &AgentRoundResult,
        state: &AgentStateSnapshot,
        policy_json: Option<&str>,
    ) -> Result<(), StorageError> {
        self.key.clear();
        self.key.extend_from_slice(PREFIX_ACK.as_bytes());
        self.key.extend_from_slice(result.id.as_str().as_bytes());
        put_record(&mut self.log, &mut self.value, &self.key, |w| {
            AckRecord::encode_parts(w, round, result, state, policy_json);
        })
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
        let state = &record.state;
        let unresolvable = !state.shared_policy || state.policy_epoch.as_u64() < self.base_epoch;
        let policy_json = unresolvable.then(|| record.policy().to_json());
        self.put_ack(round, result, state, policy_json.as_deref())
    }

    /// Seals round `round` (`meta/committed`).
    ///
    /// # Errors
    ///
    /// [`StorageError`].
    pub fn commit_round(&mut self, round: u64) -> Result<(), StorageError> {
        self.put(KEY_COMMITTED, &RoundMark { round })?;
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
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
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
            let base: BaseCheckpoint = decode_record(KEY_BASE, &bytes)?;
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
                key_suffix(&what, PREFIX_PUB)?
                    .parse()
                    .map_err(|_| StorageError::Codec {
                        what: what.clone(),
                        reason: "publish key is not a zero-padded epoch".to_string(),
                    })?;
            if keyed_epoch <= base_epoch {
                continue;
            }
            let entry: PolicyPub = decode_record(&key, &bytes)?;
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
            if pub_key(produced) != key {
                return Err(StorageError::Codec {
                    what,
                    reason: format!(
                        "journal epoch key out of step with the replayed store (replay produced epoch {})",
                        produced.as_u64()
                    ),
                });
            }
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
            let id = AgentId::new(key_suffix(&what, PREFIX_ACK)?);
            let ack: AckRecord = decode_record(&key, &bytes)?;
            if started > committed && ack.round == started {
                in_flight.push(ack.result.clone());
            }
            acks.insert(id, ack);
        }
        let current = verifier.policy_store().clone();
        for (key, bytes) in log.scan_prefix(PREFIX_ENROL.as_bytes())? {
            let what = String::from_utf8_lossy(&key).into_owned();
            let id = AgentId::new(key_suffix(&what, PREFIX_ENROL)?);
            let enrol: EnrolmentRecord = decode_record(&key, &bytes)?;
            let (state, ack_policy_json) = match acks.remove(&id) {
                Some(ack) => (ack.state, ack.policy_json),
                None => {
                    // Never acked: reconstruct the fresh-enrolment
                    // state. A shared agent eagerly adopts every
                    // publish, so it sits at the current epoch; an
                    // override stays pinned to its enrolment epoch.
                    let epoch = if enrol.shared {
                        current.epoch()
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
                (None, None) => Arc::clone(current.snapshot()),
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
            journal: VerifierJournal::reopened(log, started, committed, base_epoch),
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

    /// A publish keyed by an epoch the replay cannot reach — here epoch 3
    /// on a fresh journal, where replay produces epoch 1 — is a typed
    /// error, not an abort of the recovering process.
    #[test]
    fn a_publish_keyed_out_of_step_with_the_store_is_a_codec_error() {
        let dir = journal_dir();
        let mut journal = VerifierJournal::create(Vfs::with_standard_layout(), &dir).unwrap();
        let delta = PolicyDelta {
            added: vec![("/b".into(), "bb".into())],
            ..PolicyDelta::default()
        };
        journal
            .record_publish_delta(PolicyEpoch::ZERO.next().next().next(), &delta)
            .unwrap();
        let err =
            VerifierJournal::recover(journal.log().vfs().clone(), &dir, VerifierConfig::default())
                .unwrap_err();
        assert!(matches!(err, StorageError::Codec { .. }), "{err:?}");
    }

    /// Round-trips `value`, and checks that every strict prefix of its
    /// encoding fails and that one byte past it is `TrailingBytes`.
    fn assert_codec<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = value.to_wire();
        assert_eq!(T::from_wire(&bytes).as_ref(), Ok(value));
        for cut in 0..bytes.len() {
            assert!(
                T::from_wire(&bytes[..cut]).is_err(),
                "{value:?}: a {cut}-byte prefix decoded"
            );
        }
        let mut long = bytes;
        long.push(0);
        assert_eq!(
            T::from_wire(&long),
            Err(WireError::TrailingBytes { remaining: 1 }),
            "{value:?}"
        );
    }

    fn steady_result(id: &str) -> AgentRoundResult {
        AgentRoundResult {
            id: AgentId::new(id),
            backend: crate::backend::BackendKind::TpmIma,
            day: 3,
            attempts: 1,
            backoff_ms: 0,
            policy_epoch: PolicyEpoch::from_raw(2),
            shared_policy: true,
            outcome: crate::scheduler::RoundOutcome::Verified { new_entries: 4 },
        }
    }

    fn busy_state(health: AgentHealth) -> AgentStateSnapshot {
        AgentStateSnapshot {
            next_entry: 1_001,
            replayed_pcr: cia_crypto::HashAlgorithm::Sha256.digest(b"fold"),
            last_boot_count: Some(3),
            status: AgentStatus::Paused,
            attestations: 200,
            nonce_counter: 70_000,
            health,
            consecutive_unreachable: 2,
            reprobe_in: 1,
            reprobe_backoff: 4,
            ..AgentStateSnapshot::fresh(PolicyEpoch::from_raw(9), false)
        }
    }

    fn sample_delta() -> PolicyDelta {
        PolicyDelta {
            added: vec![("/usr/bin/a".into(), "aa".into())],
            removed_paths: vec!["/lib/modules/old".into()],
            retired: vec![("/usr/bin/b".into(), "bb".into())],
            staged_kernels: vec!["6.1.0-13".into()],
            meta: PolicyMeta {
                version: 7,
                generator: "keylime-policy".into(),
                generated_day: 12,
            },
        }
    }

    #[test]
    fn every_agent_state_round_trips_in_every_health_state() {
        for health in [
            AgentHealth::Healthy,
            AgentHealth::Degraded,
            AgentHealth::Quarantined,
            AgentHealth::Recovering,
        ] {
            assert_codec(&health);
            assert_codec(&busy_state(health));
        }
        assert_codec(&AgentStateSnapshot::fresh(PolicyEpoch::ZERO, true));
        assert_codec(&AgentStatus::Trusted);
        assert_codec(&AgentStatus::Paused);
        assert!(matches!(
            AgentHealth::from_wire(&[4]),
            Err(WireError::BadTag { .. })
        ));
        assert!(matches!(
            AgentStatus::from_wire(&[2]),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn every_journal_record_round_trips() {
        assert_codec(&BaseCheckpoint {
            epoch: 300,
            policy_json: policy_with(&["/a"]).to_json(),
        });
        assert_codec(&PolicyPub::Full {
            policy_json: policy_with(&["/b"]).to_json(),
        });
        assert_codec(&PolicyPub::Delta {
            delta: sample_delta(),
        });
        assert_codec(&sample_delta());
        assert_codec(&PolicyDelta::default());
        assert_codec(&sample_delta().meta);
        for override_policy in [None, Some(policy_with(&["/special"]).to_json())] {
            assert_codec(&EnrolmentRecord {
                ak: ak(1),
                identity: BackendIdentity::confidential_vm(
                    cia_crypto::HashAlgorithm::Sha256.digest(b"image"),
                ),
                shared: override_policy.is_none(),
                epoch: 5,
                override_policy,
            });
        }
        let failed = AgentRoundResult {
            outcome: crate::scheduler::RoundOutcome::Failed {
                alerts: vec![crate::verifier::Alert {
                    agent: AgentId::new("node-1"),
                    day: 3,
                    kind: crate::verifier::FailureKind::NotInPolicy {
                        path: "/opt/rogue".into(),
                        digest: "ee".into(),
                    },
                }],
            },
            ..steady_result("node-1")
        };
        for (result, policy_json) in [
            (steady_result("node-0"), None),
            (failed, None),
            (
                steady_result("override"),
                Some(policy_with(&["/o"]).to_json()),
            ),
        ] {
            assert_codec(&AckRecord {
                round: 130,
                result,
                state: busy_state(AgentHealth::Recovering),
                policy_json,
            });
        }
        assert_codec(&RoundMark { round: 0 });
        assert_codec(&RoundMark { round: u64::MAX });
        assert!(matches!(
            PolicyPub::from_wire(&[2]),
            Err(WireError::BadTag { .. })
        ));
    }

    /// CRC-valid frames whose values are cut short, garbage, or carry a
    /// byte too many fail recovery as a codec error naming their key.
    #[test]
    fn an_undecodable_value_fails_recovery_naming_its_key() {
        let dir = journal_dir();
        let mut journal = VerifierJournal::create(Vfs::with_standard_layout(), &dir).unwrap();
        let mut verifier = Verifier::new(VerifierConfig::default());
        let id = AgentId::new("solo");
        verifier.add_agent_shared(id.clone(), ak(4));
        journal.record_enrolment(&verifier, &id).unwrap();
        let delta = sample_delta();
        let (epoch, _) = verifier.publish_delta(&delta);
        journal.record_publish_delta(epoch, &delta).unwrap();
        journal.begin_round(1).unwrap();
        let state = verifier.export_agent_state(&id).unwrap();
        journal
            .record_ack(1, &steady_result("solo"), &state, None)
            .unwrap();
        journal.commit_round(1).unwrap();
        let config = verifier.config();
        assert!(VerifierJournal::recover(journal.log().vfs().clone(), &dir, config).is_ok());

        let keys: Vec<Vec<u8>> = vec![
            b"agent/solo".to_vec(),
            b"enrol/solo".to_vec(),
            pub_key(epoch),
            KEY_STARTED.to_vec(),
            KEY_COMMITTED.to_vec(),
            KEY_BASE.to_vec(),
        ];
        for key in keys {
            let good = journal.log().get(&key).unwrap().unwrap();
            let mut long = good.clone();
            long.push(0);
            let bad_values = [
                good[..good.len() - 1].to_vec(),
                vec![0xFF; 12],
                Vec::new(),
                long,
            ];
            for bad in bad_values {
                let (mut log, _) = LogStore::open(journal.log().vfs().clone(), &dir).unwrap();
                log.put(&key, &bad).unwrap();
                let err = VerifierJournal::recover(log.vfs().clone(), &dir, config).unwrap_err();
                let name = String::from_utf8_lossy(&key).into_owned();
                assert!(
                    matches!(&err, StorageError::Codec { what, .. } if *what == name),
                    "{name} holding {bad:?}: {err:?}"
                );
            }
        }
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
