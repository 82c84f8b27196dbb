//! The Keylime verifier: polls agents and issues trust verdicts.
//!
//! One attestation is two halves. The request half
//! (`Verifier::fetch_evidence`) talks to the agent and writes the
//! record: each quote request spends a nonce, and a reboot restarts the
//! cursor and fold before the re-quote. The appraisal half
//! (`Verifier::appraise`) is a function of values: record and evidence
//! in, verdict and next state out. Its caller applies the next state.
//! The record holds no alert history; an alert lives in the row of the
//! round that raised it. Appraisal folds entries through a
//! [`TemplateHashMemo`] the verifier owns, one per round worker beside its
//! wire buffer: caches, not agent state, so a new verifier starts cold.

use std::collections::BTreeMap;
use std::sync::Arc;

use cia_crypto::{Digest, HashAlgorithm, Sha256};
use cia_ima::{ImaLogEntry, TemplateHashMemo, BOOT_AGGREGATE_NAME};
use cia_tpm::pcr::extend_digest;
use cia_wire::Wire;
use serde::{Deserialize, Serialize};

use crate::agent::{Agent, AgentRequest, AgentResponse, QuoteResponse};
use crate::backend::{
    required_registers, BackendIdentity, BackendKind, BOOT_AGGREGATE_PCRS, CVM_LAUNCH_REGISTER,
};
use crate::error::KeylimeError;
use crate::ids::AgentId;
use crate::policy::{PolicyCheck, PolicyDelta, RuntimePolicy};
use crate::store::{PolicyEpoch, PolicyStore};
use crate::transport::{Transport, WireBuffer};

pub use crate::config::VerifierConfig;

/// Why an attestation failed.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub enum FailureKind {
    /// Quote signature or nonce check failed.
    QuoteInvalid,
    /// The measurement list does not replay to the quoted evidence
    /// register (PCR 10 on the TPM+IMA backend).
    PcrMismatch,
    /// The log shrank without a TPM reset — rewind tampering.
    LogRewound,
    /// `boot_aggregate` does not match the quoted PCRs 0–9.
    BootAggregateMismatch,
    /// A measured file hashed to a value not in the policy
    /// (§III-B "hash mismatch").
    HashMismatch {
        /// The measured path.
        path: String,
        /// The measured digest (hex).
        digest: String,
    },
    /// A measured file is absent from the policy
    /// (§III-B "missing file in the policy").
    NotInPolicy {
        /// The measured path.
        path: String,
        /// The measured digest (hex).
        digest: String,
    },
    /// Evidence arrived from a backend outside
    /// [`VerifierConfig::allowed_backends`].
    BackendNotAllowed {
        /// The enrolled backend the config rejects.
        backend: BackendKind,
    },
    /// The evidence claims a different backend than the agent enrolled
    /// with — a cross-backend substitution attempt.
    BackendMismatch {
        /// The backend the registrar record proves.
        expected: BackendKind,
        /// The backend the evidence claims.
        reported: BackendKind,
    },
    /// The quoted launch register diverges from the platform-certified
    /// launch measurement the agent enrolled with (confidential-VM
    /// backends only) — the guest was relaunched from a different image.
    LaunchMeasurementMismatch,
}

/// One attestation failure event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub struct Alert {
    /// The agent that failed.
    pub agent: AgentId,
    /// Simulation day of the failure.
    pub day: u32,
    /// What went wrong.
    pub kind: FailureKind,
}

/// Verifier-side state of one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub enum AgentStatus {
    /// Attesting cleanly; polling continues.
    Trusted,
    /// A failure occurred and (under stop-on-failure) polling is paused
    /// until the operator resolves it.
    Paused,
}

/// Reachability health of one agent, as tracked by the verifier.
///
/// Orthogonal to [`AgentStatus`] (which is about *attestation verdicts*):
/// health is about whether the evidence channel works at all. The legal
/// transitions form a small machine:
///
/// ```text
///  Healthy ──unreachable×degraded_after──▶ Degraded
///  Degraded ─unreachable×quarantine_after─▶ Quarantined
///  Quarantined ──successful re-probe──▶ Recovering
///  Recovering ──verified round──▶ Healthy
///  Recovering ──unreachable again──▶ Quarantined
///  Degraded/Recovering ──any reachable round──▶ (towards) Healthy
/// ```
///
/// With [`VerifierConfig::quarantine_enabled`] the scheduler skips
/// Quarantined agents on a decaying re-probe backoff instead of burning
/// the full retry budget every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Wire)]
pub enum AgentHealth {
    /// Reachable and attesting.
    Healthy,
    /// Some consecutive unreachable rounds; still polled normally.
    Degraded,
    /// Persistently unreachable; polled only on the re-probe schedule.
    Quarantined,
    /// A probe got through; full trust requires a verified attestation
    /// (policy re-validation) to complete the recovery.
    Recovering,
}

/// Per-state agent counts for one point in time (or one round).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub struct HealthCounts {
    /// Agents in [`AgentHealth::Healthy`].
    pub healthy: usize,
    /// Agents in [`AgentHealth::Degraded`].
    pub degraded: usize,
    /// Agents in [`AgentHealth::Quarantined`].
    pub quarantined: usize,
    /// Agents in [`AgentHealth::Recovering`].
    pub recovering: usize,
}

impl HealthCounts {
    /// Total agents across all states.
    pub fn total(&self) -> usize {
        self.healthy + self.degraded + self.quarantined + self.recovering
    }

    /// Registers one agent's state.
    pub fn count(&mut self, health: AgentHealth) {
        match health {
            AgentHealth::Healthy => self.healthy += 1,
            AgentHealth::Degraded => self.degraded += 1,
            AgentHealth::Quarantined => self.quarantined += 1,
            AgentHealth::Recovering => self.recovering += 1,
        }
    }
}

/// How a round ended for one agent, from the health machine's viewpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReachClass {
    /// The agent was reached and the attestation verified.
    Verified,
    /// The agent was reached but attestation failed or was skipped while
    /// paused — the channel works, the verdict does not recover trust.
    ReachedNotVerified,
    /// The agent could not be reached (retries exhausted or a
    /// non-retryable transport error).
    Unreachable,
}

/// Result of one poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestationOutcome {
    /// All new entries verified.
    Verified {
        /// Entries processed this round.
        new_entries: usize,
    },
    /// One or more failures (see the alerts).
    Failed {
        /// The failures raised this round.
        alerts: Vec<Alert>,
    },
    /// Polling is paused on an unresolved failure (P2); nothing was
    /// requested from the agent.
    SkippedPaused,
}

impl AttestationOutcome {
    /// True for [`AttestationOutcome::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, AttestationOutcome::Verified { .. })
    }
}

/// What [`Verifier::appraise`] decides about one piece of evidence: the
/// verdict, the agent state it leaves behind, and how many log entries
/// it held against the policy. The caller applies `next`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Appraisal {
    /// The verdict.
    pub outcome: AttestationOutcome,
    /// The agent's state after this appraisal.
    pub next: AgentStateSnapshot,
    /// Log entries evaluated against the policy, the failing entry
    /// included.
    pub entries_evaluated: u64,
}

impl Appraisal {
    /// A failed appraisal raising `alerts`, with `next` paused.
    fn failed(mut next: AgentStateSnapshot, alerts: Vec<Alert>, entries_evaluated: u64) -> Self {
        next.status = AgentStatus::Paused;
        let outcome = AttestationOutcome::Failed { alerts };
        Appraisal {
            outcome,
            next,
            entries_evaluated,
        }
    }
}

/// Evidence pulled from one agent by [`Verifier::fetch_evidence`],
/// before appraisal has touched it.
#[derive(Debug, Clone)]
pub(crate) enum FetchedEvidence {
    /// The agent is paused under stop-on-failure; no quote was
    /// requested.
    Paused,
    /// A quote response, plus the nonce it must bind (the re-quote
    /// nonce if reboot detection triggered a second fetch).
    Quote {
        /// The agent's quote response, boxed so the paused variant is
        /// not penalised with the quote's full inline size.
        resp: Box<QuoteResponse>,
        /// The nonce the quote signature must cover.
        nonce: Vec<u8>,
    },
}

/// The mutable, serializable core of one [`AgentRecord`]: everything a
/// round can change, and nothing a round cannot. The enrolment-time
/// constants (AK, backend identity) and the policy handle live outside
/// the snapshot — the journal persists those separately (enrolment
/// records and policy epochs), so a snapshot plus the enrolment record
/// plus the epoch map reconstructs the full record bit-for-bit.
///
/// It holds no history: its size does not grow with the agent's
/// lifetime. Alerts live in the round rows that raised them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub struct AgentStateSnapshot {
    /// The store epoch the agent last acknowledged (adopted). A
    /// quarantined agent keeps appraising against this epoch until it
    /// recovers, which is exactly the skew the chaos tests exercise.
    pub policy_epoch: PolicyEpoch,
    /// Whether the agent follows the shared store. False for agents
    /// enrolled with a per-agent override policy (the heterogeneous-fleet
    /// case, e.g. the snap-scrubbed subset); such agents never adopt
    /// store snapshots.
    pub shared_policy: bool,
    /// Index of the first unprocessed log entry.
    pub next_entry: usize,
    /// Fold of the template hashes of all processed entries.
    pub replayed_pcr: Digest,
    /// TPM boot counter at last contact.
    pub last_boot_count: Option<u64>,
    /// Trusted/Paused verdict state.
    pub status: AgentStatus,
    /// Successful attestation count.
    pub attestations: u64,
    /// Next nonce sequence number.
    pub nonce_counter: u64,
    /// Reachability health.
    pub health: AgentHealth,
    /// Current unreachable streak.
    pub consecutive_unreachable: u32,
    /// Rounds until the next quarantine probe.
    pub reprobe_in: u32,
    /// Current re-probe interval.
    pub reprobe_backoff: u32,
}

impl AgentStateSnapshot {
    /// The state of a just-enrolled agent at `policy_epoch`: nothing
    /// attested, nothing alerted, fully healthy. Recovery uses this for
    /// agents that enrolled but never completed a round before the
    /// crash (they have an enrolment record in the journal but no ack).
    pub fn fresh(policy_epoch: PolicyEpoch, shared_policy: bool) -> Self {
        AgentStateSnapshot {
            policy_epoch,
            shared_policy,
            next_entry: 0,
            replayed_pcr: HashAlgorithm::Sha256.zero_digest(),
            last_boot_count: None,
            status: AgentStatus::Trusted,
            attestations: 0,
            nonce_counter: 0,
            health: AgentHealth::Healthy,
            consecutive_unreachable: 0,
            reprobe_in: 0,
            reprobe_backoff: 0,
        }
    }

    fn enter_quarantine(&mut self, config: &VerifierConfig) {
        self.health = AgentHealth::Quarantined;
        self.reprobe_backoff = config.reprobe_backoff_rounds.max(1);
        self.reprobe_in = self.reprobe_backoff;
    }

    fn escalate_reprobe(&mut self, config: &VerifierConfig) {
        self.reprobe_backoff = self
            .reprobe_backoff
            .max(1)
            .saturating_mul(2)
            .min(config.reprobe_backoff_max_rounds.max(1));
        self.reprobe_in = self.reprobe_backoff;
    }
}

/// Everything the verifier holds about one agent: the enrolment-time
/// constants, the policy handle, and — once, in `state` — everything a
/// round can change. The journal, the federation and the round engine
/// all move or borrow this value; none of them re-lists its fields.
#[derive(Debug, Clone)]
pub(crate) struct AgentRecord {
    ak: cia_crypto::VerifyingKey,
    /// The backend identity the registrar proved at enrolment — the
    /// appraisal ground truth (never the evidence's own claim).
    backend: BackendIdentity,
    /// Handle to the policy this agent appraises against. Shared agents
    /// hold an `Arc` clone of a [`PolicyStore`] snapshot (a fleet-wide
    /// push is a handle swap, never a policy copy); override agents hold
    /// their own privately published snapshot.
    policy: Arc<RuntimePolicy>,
    /// Everything a round can change — what the journal acks and what a
    /// migration carries.
    pub(crate) state: AgentStateSnapshot,
}

impl AgentRecord {
    /// The enrolled AK public key.
    pub(crate) fn ak(&self) -> &cia_crypto::VerifyingKey {
        &self.ak
    }

    /// The enrolled backend identity.
    pub(crate) fn backend_identity(&self) -> BackendIdentity {
        self.backend
    }

    /// The current policy handle.
    pub(crate) fn policy(&self) -> &Arc<RuntimePolicy> {
        &self.policy
    }

    /// Swaps in the published snapshot — one `Arc` clone, zero policy
    /// copies — if this agent follows the shared store, is behind, and is
    /// not quarantined (a quarantined agent cannot acknowledge a push; it
    /// keeps appraising against the epoch it last adopted until its
    /// recovery round).
    pub(crate) fn adopt_shared(&mut self, store: &PolicyStore) {
        if self.state.shared_policy
            && self.state.policy_epoch != store.epoch()
            && self.state.health != AgentHealth::Quarantined
        {
            self.policy = Arc::clone(store.snapshot());
            self.state.policy_epoch = store.epoch();
        }
    }

    /// Quarantine scheduling: decides whether this round probes the
    /// agent. Returns `Some(rounds_until_probe)` when the round should be
    /// skipped (the counter has been decremented), `None` when a probe is
    /// due now. Only meaningful while Quarantined.
    pub(crate) fn tick_reprobe(&mut self) -> Option<u32> {
        if self.state.reprobe_in == 0 {
            return None;
        }
        self.state.reprobe_in -= 1;
        Some(self.state.reprobe_in)
    }

    /// Advances the health machine after a round's terminal outcome.
    /// Returns the new health.
    pub(crate) fn apply_health(
        &mut self,
        class: ReachClass,
        config: &VerifierConfig,
    ) -> AgentHealth {
        let state = &mut self.state;
        match class {
            ReachClass::Verified => {
                state.consecutive_unreachable = 0;
                state.health = match state.health {
                    // A verified *probe* starts recovery; a verified round
                    // while Recovering completes it. Full trust is never
                    // restored in one step from Quarantined.
                    AgentHealth::Quarantined => {
                        state.reprobe_in = 0;
                        state.reprobe_backoff = 0;
                        AgentHealth::Recovering
                    }
                    AgentHealth::Recovering => AgentHealth::Healthy,
                    _ => AgentHealth::Healthy,
                };
            }
            ReachClass::ReachedNotVerified => {
                // The channel works, so unreachable streaks reset, but an
                // unverified verdict cannot progress recovery.
                state.consecutive_unreachable = 0;
                match state.health {
                    AgentHealth::Degraded => state.health = AgentHealth::Healthy,
                    AgentHealth::Quarantined => state.escalate_reprobe(config),
                    AgentHealth::Healthy | AgentHealth::Recovering => {}
                }
            }
            ReachClass::Unreachable => {
                state.consecutive_unreachable = state.consecutive_unreachable.saturating_add(1);
                match state.health {
                    AgentHealth::Healthy | AgentHealth::Degraded => {
                        if state.consecutive_unreachable >= config.quarantine_after {
                            state.enter_quarantine(config);
                        } else if state.consecutive_unreachable >= config.degraded_after {
                            state.health = AgentHealth::Degraded;
                        }
                    }
                    AgentHealth::Recovering => state.enter_quarantine(config),
                    AgentHealth::Quarantined => state.escalate_reprobe(config),
                }
            }
        }
        state.health
    }
}

/// The verifier service.
#[derive(Debug)]
pub struct Verifier {
    config: VerifierConfig,
    agents: BTreeMap<AgentId, AgentRecord>,
    /// The shared policy store: one epoch-tagged snapshot all shared
    /// agents appraise against.
    store: PolicyStore,
    /// The first round worker's scratch, whose memo sequential attests use.
    worker: WorkerScratch,
    /// One more scratch for each further round worker
    /// (`config.worker_count - 1`).
    helpers: Vec<WorkerScratch>,
}

impl Verifier {
    /// Creates a verifier.
    pub fn new(config: VerifierConfig) -> Self {
        let mut verifier = Verifier {
            config,
            agents: BTreeMap::new(),
            store: PolicyStore::new(),
            worker: WorkerScratch::default(),
            helpers: Vec::new(),
        };
        verifier.size_workers();
        verifier
    }

    /// The active configuration.
    pub fn config(&self) -> VerifierConfig {
        self.config
    }

    /// Replaces the active configuration (e.g. to widen the retry budget
    /// when the transport degrades). Takes effect from the next round.
    pub fn set_config(&mut self, config: VerifierConfig) {
        self.config = config;
        self.size_workers();
    }

    /// One scratch per round worker.
    fn size_workers(&mut self) {
        let helpers = self.config.worker_count.saturating_sub(1);
        self.helpers.resize_with(helpers, WorkerScratch::default);
    }

    /// Enrols an agent with a per-agent *override* policy: its AK public
    /// key (from the registrar) and its own runtime policy. Override
    /// agents never adopt shared-store snapshots — the heterogeneous
    /// fleet case. For homogeneous fleets prefer
    /// [`Verifier::add_agent_shared`].
    pub fn add_agent(
        &mut self,
        id: impl Into<AgentId>,
        ak: cia_crypto::VerifyingKey,
        policy: RuntimePolicy,
    ) {
        self.add_agent_with_identity(id, ak, BackendIdentity::tpm_ima(), policy);
    }

    /// [`Verifier::add_agent`] with an explicit backend identity (from the
    /// registrar record) — required for non-TPM backends.
    pub fn add_agent_with_identity(
        &mut self,
        id: impl Into<AgentId>,
        ak: cia_crypto::VerifyingKey,
        identity: BackendIdentity,
        policy: RuntimePolicy,
    ) {
        let record = AgentRecord {
            ak,
            backend: identity,
            policy: Arc::new(policy),
            state: AgentStateSnapshot::fresh(self.store.epoch(), false),
        };
        self.agents.insert(id.into(), record);
    }

    /// Enrols an agent that follows the shared policy store: it starts on
    /// the current snapshot (one `Arc` clone) and adopts every future
    /// published epoch.
    pub fn add_agent_shared(&mut self, id: impl Into<AgentId>, ak: cia_crypto::VerifyingKey) {
        self.add_agent_shared_with_identity(id, ak, BackendIdentity::tpm_ima());
    }

    /// [`Verifier::add_agent_shared`] with an explicit backend identity
    /// (from the registrar record) — required for non-TPM backends.
    pub fn add_agent_shared_with_identity(
        &mut self,
        id: impl Into<AgentId>,
        ak: cia_crypto::VerifyingKey,
        identity: BackendIdentity,
    ) {
        let record = AgentRecord {
            ak,
            backend: identity,
            policy: Arc::clone(self.store.snapshot()),
            state: AgentStateSnapshot::fresh(self.store.epoch(), true),
        };
        self.agents.insert(id.into(), record);
    }

    /// The enrolled agent ids, in order.
    pub fn agent_ids(&self) -> Vec<AgentId> {
        self.agents.keys().cloned().collect()
    }

    /// Replaces one agent's policy with a per-agent *override* (a
    /// targeted dynamic policy push). The agent stops following the
    /// shared store until [`Verifier::use_shared_policy`] re-attaches it.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn update_policy(
        &mut self,
        id: &AgentId,
        policy: RuntimePolicy,
    ) -> Result<(), KeylimeError> {
        let epoch = self.store.epoch();
        let record = self.record_mut(id)?;
        record.policy = Arc::new(policy);
        record.state.policy_epoch = epoch;
        record.state.shared_policy = false;
        Ok(())
    }

    /// Re-attaches an agent to the shared store, adopting the current
    /// snapshot unless the agent is quarantined (it will converge on
    /// recovery).
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn use_shared_policy(&mut self, id: &AgentId) -> Result<(), KeylimeError> {
        let store = self.store.clone();
        let record = self.record_mut(id)?;
        record.state.shared_policy = true;
        record.adopt_shared(&store);
        Ok(())
    }

    /// Publishes a full policy (or an already-shared snapshot) as a new
    /// shared-store epoch and hands it to every non-quarantined shared
    /// agent: one `Arc` clone each, zero policy copies at any fleet size.
    pub fn publish_policy(&mut self, policy: impl Into<Arc<RuntimePolicy>>) -> PolicyEpoch {
        let epoch = self.store.publish(policy);
        self.adopt_all();
        epoch
    }

    /// Applies a generator delta to the shared snapshot copy-on-write and
    /// distributes the new epoch ([`PolicyStore::publish_delta`]: it copies
    /// only the policy chunks the delta touches, whatever the fleet size).
    /// Returns the new epoch and the number of entry operations applied.
    pub fn publish_delta(&mut self, delta: &PolicyDelta) -> (PolicyEpoch, usize) {
        let (epoch, applied) = self.store.publish_delta(delta);
        self.adopt_all();
        (epoch, applied)
    }

    fn adopt_all(&mut self) {
        for record in self.agents.values_mut() {
            record.adopt_shared(&self.store);
        }
    }

    /// The shared policy store.
    pub fn policy_store(&self) -> &PolicyStore {
        &self.store
    }

    /// The active shared-store epoch.
    pub fn current_epoch(&self) -> PolicyEpoch {
        self.store.epoch()
    }

    /// The store epoch `id` last acknowledged (adopted). For override
    /// agents this is the epoch current when their override was set.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn agent_policy_epoch(&self, id: &AgentId) -> Result<PolicyEpoch, KeylimeError> {
        Ok(self.record(id)?.state.policy_epoch)
    }

    /// The agent's current policy.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn policy(&self, id: &AgentId) -> Result<&RuntimePolicy, KeylimeError> {
        Ok(self.record(id)?.policy.as_ref())
    }

    /// The agent's status.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn status(&self, id: &AgentId) -> Result<AgentStatus, KeylimeError> {
        Ok(self.record(id)?.state.status)
    }

    /// Number of successful attestations for an agent.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn attestation_count(&self, id: &AgentId) -> Result<u64, KeylimeError> {
        Ok(self.record(id)?.state.attestations)
    }

    /// The agent's reachability health.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn health(&self, id: &AgentId) -> Result<AgentHealth, KeylimeError> {
        Ok(self.record(id)?.state.health)
    }

    /// The backend identity the agent enrolled with.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn backend_identity(&self, id: &AgentId) -> Result<BackendIdentity, KeylimeError> {
        Ok(self.record(id)?.backend)
    }

    /// The PCR 10 value replayed from every entry processed so far — the
    /// verifier's ground truth for the agent's measurement history.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn replayed_pcr(&self, id: &AgentId) -> Result<Digest, KeylimeError> {
        Ok(self.record(id)?.state.replayed_pcr)
    }

    /// Per-state counts over every enrolled agent.
    pub fn health_counts(&self) -> HealthCounts {
        let mut counts = HealthCounts::default();
        for record in self.agents.values() {
            counts.count(record.state.health);
        }
        counts
    }

    /// Operator action: resume polling after investigating a failure.
    /// Does not advance past the failing entry — if the cause is still
    /// present (e.g. the policy was not fixed), the next poll fails again,
    /// exactly as the paper describes for P2.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn resume(&mut self, id: &AgentId) -> Result<(), KeylimeError> {
        self.record_mut(id)?.state.status = AgentStatus::Trusted;
        Ok(())
    }

    /// Operator action: resolve a failure by *skipping* the offending
    /// entries — advances past everything currently in the agent's log
    /// without evaluating it, then resumes. This models the manual
    /// clean-up the paper warns takes time (the attacker's window). If
    /// the agent rebooted while paused, it is the new boot's log that is
    /// skipped, from entry 0.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`] / transport errors.
    pub fn resolve_by_skipping<T: Transport>(
        &mut self,
        transport: &mut T,
        agent: &mut Agent,
    ) -> Result<(), KeylimeError> {
        let id = agent.id().clone();
        let (record, memo) = self.record_and_memo(&id)?;
        match Self::fetch_tail(record, &id, transport, agent) {
            Ok((q, _nonce)) => {
                record.state.replayed_pcr = fold(record.state.replayed_pcr, &q.entries, memo);
                record.state.next_entry = q.total_entries;
                record.state.last_boot_count = Some(q.quote.boot_count);
            }
            // The operator resumes the agent whatever it answered; only
            // a transport failure aborts the resolve.
            Err(KeylimeError::Agent { .. }) => {}
            Err(e) => return Err(e),
        }
        record.state.status = AgentStatus::Trusted;
        Ok(())
    }

    /// Polls `agent` once: quote, incremental log, policy evaluation.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`] or transport failures. Attestation
    /// *failures* are not `Err`s — they come back as
    /// [`AttestationOutcome::Failed`].
    pub fn attest<T: Transport>(
        &mut self,
        transport: &mut T,
        agent: &mut Agent,
        day: u32,
    ) -> Result<AttestationOutcome, KeylimeError> {
        let id = agent.id().clone();
        let config = self.config;
        let store = self.store.clone();
        let (record, memo) = self.record_and_memo(&id)?;
        // The same two halves the fleet scheduler wraps its retry loop
        // and latency metering around, so direct and fleet-round
        // verdicts agree by construction.
        match Self::fetch_evidence(&config, &store, record, &id, transport, agent)? {
            FetchedEvidence::Paused => Ok(AttestationOutcome::SkippedPaused),
            FetchedEvidence::Quote { resp, nonce } => {
                let appraisal = Self::appraise(&config, record, &resp, &nonce, &id, day, memo);
                record.state = appraisal.next;
                Ok(appraisal.outcome)
            }
        }
    }

    /// One quote RPC: asks `agent` for a quote over `nonce` plus its
    /// measurement list from `from_entry` on.
    fn request_quote<T: Transport>(
        transport: &mut T,
        agent: &mut Agent,
        nonce: &[u8],
        from_entry: usize,
    ) -> Result<QuoteResponse, KeylimeError> {
        let request = AgentRequest::Quote {
            nonce: nonce.to_vec(),
            from_entry,
            structured: true,
        };
        match transport.call(&request, |req| agent.handle(req))? {
            AgentResponse::Quote(q) => Ok(q),
            AgentResponse::Error { reason } => Err(KeylimeError::Agent { reason }),
            other => Err(KeylimeError::Agent {
                reason: format!("unexpected response {other:?}"),
            }),
        }
    }

    /// The transport half of one attestation: shared-policy adoption,
    /// the paused check and [`Self::fetch_tail`]. Returns the evidence
    /// still unappraised: the scheduler meters and retries this half
    /// alone.
    pub(crate) fn fetch_evidence<T: Transport>(
        config: &VerifierConfig,
        store: &PolicyStore,
        record: &mut AgentRecord,
        id: &AgentId,
        transport: &mut T,
        agent: &mut Agent,
    ) -> Result<FetchedEvidence, KeylimeError> {
        // Lazy adoption backstop: a shared agent that missed the eager
        // push (enrolled later, or just recovered from quarantine) picks
        // up the current epoch here. No-op for overrides and while
        // quarantined.
        record.adopt_shared(store);

        if record.state.status == AgentStatus::Paused && !config.continue_on_failure {
            return Ok(FetchedEvidence::Paused);
        }

        let (resp, nonce) = Self::fetch_tail(record, id, transport, agent)?;
        Ok(FetchedEvidence::Quote {
            resp: Box::new(resp),
            nonce,
        })
    }

    /// The log tail since the last contact, quoted under a fresh nonce
    /// (returned with it) — or, when the TPM reset counter says the
    /// agent rebooted since, the new boot's whole log: the record's
    /// cursor and fold restart from zero and the quote is taken again
    /// from entry 0 under a second nonce.
    fn fetch_tail<T: Transport>(
        record: &mut AgentRecord,
        id: &AgentId,
        transport: &mut T,
        agent: &mut Agent,
    ) -> Result<(QuoteResponse, Vec<u8>), KeylimeError> {
        let mut nonce = Self::make_nonce(id, record.state.nonce_counter);
        record.state.nonce_counter += 1;
        let mut resp = Self::request_quote(transport, agent, &nonce, record.state.next_entry)?;
        if record
            .state
            .last_boot_count
            .is_some_and(|last| last != resp.quote.boot_count)
        {
            record.state.next_entry = 0;
            record.state.replayed_pcr = HashAlgorithm::Sha256.zero_digest();
            nonce = Self::make_nonce(id, record.state.nonce_counter);
            record.state.nonce_counter += 1;
            resp = Self::request_quote(transport, agent, &nonce, 0)?;
        }
        Ok((resp, nonce))
    }

    /// The CPU half of one attestation: appraises `resp`, quoted under
    /// `nonce`, against `record`, and returns the verdict with the state
    /// it leaves. It writes nothing but `memo` and reads no clock, so
    /// anyone holding the same record and evidence derives the same
    /// [`Appraisal`], whatever their memo holds; the caller applies
    /// `next`.
    ///
    /// P2 is a property of this function: under stop-on-failure the first
    /// failing entry ends the appraisal, `next.next_entry` stays on it,
    /// and `next.replayed_pcr` folds only the accepted prefix before it.
    /// Every stop pauses `next`; only a clean appraisal makes it trusted.
    pub(crate) fn appraise(
        config: &VerifierConfig,
        record: &AgentRecord,
        resp: &QuoteResponse,
        nonce: &[u8],
        id: &AgentId,
        day: u32,
        memo: &mut TemplateHashMemo,
    ) -> Appraisal {
        let alert = |kind| Alert {
            agent: id.clone(),
            day,
            kind,
        };
        let state = record.state;
        let identity = record.backend;
        let backend = identity.kind();
        let quote = &resp.quote;
        let boot_aggregate_due = backend.has_boot_aggregate() && state.next_entry == 0;

        // ⓪ Backend gating. The enrolled identity — not the evidence's
        // own tag — decides how this agent is appraised; a tag that
        // disagrees with the record is a substitution attempt.
        // ① Quote authenticity and freshness. Whatever the agent chose
        // to send, the selection must cover `required_registers` for
        // this poll: PCRs 0–9 when a boot aggregate is due (or ③ would
        // hash only the registers the agent chose to show), the
        // evidence register and a confidential VM's launch register
        // always.
        // The log cannot rewind within one boot.
        // Launch-rooted identity (confidential VMs): the quoted launch
        // register must equal the platform-certified measurement the
        // agent enrolled with. Checked after ① so only a signed register
        // is trusted.
        let rejected = if !config.allowed_backends.contains(backend) {
            Some(FailureKind::BackendNotAllowed { backend })
        } else if resp.backend != backend {
            Some(FailureKind::BackendMismatch {
                expected: backend,
                reported: resp.backend,
            })
        } else if !quote.verify(&record.ak, nonce)
            || !(quote.selection).covers(&required_registers(backend, state.next_entry))
        {
            Some(FailureKind::QuoteInvalid)
        } else if resp.total_entries < state.next_entry {
            Some(FailureKind::LogRewound)
        } else if identity
            .launch_measurement()
            .is_some_and(|launch| quote.pcr_value(CVM_LAUNCH_REGISTER) != Some(launch))
        {
            Some(FailureKind::LaunchMeasurementMismatch)
        } else {
            None
        };
        if let Some(kind) = rejected {
            return Appraisal::failed(state, vec![alert(kind)], 0);
        }

        // ② The excerpt must replay to the quoted evidence register
        // (PCR 10 on TPM+IMA). Template hashes never travel: the fold
        // takes each from the entry's own fields (the memo is keyed by
        // all of them), so any tampering lands here as a PCR mismatch.
        let entries = &resp.entries;
        let full_fold = fold(state.replayed_pcr, entries, memo);
        if quote.pcr_value(backend.evidence_register()) != Some(full_fold) {
            return Appraisal::failed(state, vec![alert(FailureKind::PcrMismatch)], 0);
        }

        // ③ Policy evaluation, entry by entry. The fast paths (allowed /
        // excluded) run entirely on borrowed data — no per-entry heap
        // allocation; hex rendering happens only when building an alert.
        // The happy path adopts the full fold from ②; only a
        // stop-on-failure exit re-folds the accepted prefix.
        let mut next = state;
        next.last_boot_count = Some(quote.boot_count);
        let mut alerts = Vec::new();
        for (offset, entry) in entries.iter().enumerate() {
            let verdict = if boot_aggregate_due && offset == 0 && entry.path == BOOT_AGGREGATE_NAME
            {
                // boot_aggregate must match the quoted PCRs 0–9.
                let mut h = Sha256::new();
                for pcr in BOOT_AGGREGATE_PCRS {
                    if let Some(v) = quote.pcr_value(pcr) {
                        h.update(v.as_bytes());
                    }
                }
                (h.finalize() != entry.filedata_hash).then_some(FailureKind::BootAggregateMismatch)
            } else {
                match record
                    .policy
                    .check_digest(&entry.path, &entry.filedata_hash)
                {
                    PolicyCheck::Allowed | PolicyCheck::Excluded => None,
                    PolicyCheck::HashMismatch { .. } => Some(FailureKind::HashMismatch {
                        path: entry.path.clone(),
                        digest: entry.filedata_hash.to_hex(),
                    }),
                    PolicyCheck::NotInPolicy => Some(FailureKind::NotInPolicy {
                        path: entry.path.clone(),
                        digest: entry.filedata_hash.to_hex(),
                    }),
                }
            };
            if let Some(kind) = verdict {
                alerts.push(alert(kind));
                if !config.continue_on_failure {
                    // P2: stop here. Everything after this entry goes
                    // unevaluated.
                    next.replayed_pcr = fold(state.replayed_pcr, &entries[..offset], memo);
                    next.next_entry += offset;
                    return Appraisal::failed(next, alerts, offset as u64 + 1);
                }
                // Continue-on-failure: evaluate everything; the entry
                // still advances the fold so later PCR checks align.
            }
        }

        next.replayed_pcr = full_fold;
        next.next_entry += entries.len();
        next.attestations += 1;
        let outcome = if alerts.is_empty() {
            next.status = AgentStatus::Trusted;
            AttestationOutcome::Verified {
                new_entries: entries.len(),
            }
        } else {
            // Continue-on-failure: the status stands, polling continues.
            AttestationOutcome::Failed { alerts }
        };
        Appraisal {
            outcome,
            next,
            entries_evaluated: entries.len() as u64,
        }
    }

    /// Hands the scheduler the per-agent records alongside the config, a
    /// clone of the store (one `Arc` bump) and the worker scratch — the
    /// calling thread's, then one per helper worker — so each worker can
    /// own its `&mut AgentRecord`s, memo and wire buffer while all of them
    /// read the same epoch.
    pub(crate) fn scheduler_view(
        &mut self,
    ) -> (
        VerifierConfig,
        PolicyStore,
        &mut BTreeMap<AgentId, AgentRecord>,
        Workers<'_>,
    ) {
        let workers = (&mut self.worker, &mut self.helpers[..]);
        (self.config, self.store.clone(), &mut self.agents, workers)
    }

    /// Copies out one agent's mutable state.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn export_agent_state(&self, id: &AgentId) -> Result<AgentStateSnapshot, KeylimeError> {
        Ok(self.record(id)?.state)
    }

    /// Recovery path: re-creates one agent record from its journaled
    /// enrolment constants, resolved policy handle, and mutable state
    /// snapshot. The result is bit-identical to the record the crashed
    /// verifier held.
    pub fn restore_agent(
        &mut self,
        id: impl Into<AgentId>,
        ak: cia_crypto::VerifyingKey,
        identity: BackendIdentity,
        policy: Arc<RuntimePolicy>,
        state: AgentStateSnapshot,
    ) {
        let record = AgentRecord {
            ak,
            backend: identity,
            policy,
            state,
        };
        self.agents.insert(id.into(), record);
    }

    /// Recovery path: resets the shared store to a journaled snapshot
    /// and epoch (see [`PolicyStore::restore`]).
    pub fn restore_store(&mut self, snapshot: Arc<RuntimePolicy>, epoch: PolicyEpoch) {
        self.store = PolicyStore::restore(snapshot, epoch);
    }

    /// One agent's record, read in place.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub(crate) fn record(&self, id: &AgentId) -> Result<&AgentRecord, KeylimeError> {
        self.agents
            .get(id)
            .ok_or_else(|| KeylimeError::UnknownAgent { id: id.clone() })
    }

    /// Every record, in id order.
    pub(crate) fn records(&self) -> impl Iterator<Item = (&AgentId, &AgentRecord)> {
        self.agents.iter()
    }

    /// Withdraws one agent's record — the outward half of a federation
    /// migration; [`Verifier::put_record`] on the target shard is the
    /// other half.
    pub(crate) fn take_record(&mut self, id: &AgentId) -> Option<AgentRecord> {
        self.agents.remove(id)
    }

    /// Installs a record as-is: constants, state and the exact policy
    /// handle it held.
    pub(crate) fn put_record(&mut self, id: AgentId, record: AgentRecord) {
        self.agents.insert(id, record);
    }

    fn make_nonce(id: &AgentId, counter: u64) -> Vec<u8> {
        let mut h = Sha256::new();
        h.update(id.as_str().as_bytes());
        h.update(&counter.to_be_bytes());
        h.finalize().as_bytes().to_vec()
    }

    fn record_mut(&mut self, id: &AgentId) -> Result<&mut AgentRecord, KeylimeError> {
        Ok(self.record_and_memo(id)?.0)
    }

    /// One agent's record and the sequential paths' memo.
    fn record_and_memo(
        &mut self,
        id: &AgentId,
    ) -> Result<(&mut AgentRecord, &mut TemplateHashMemo), KeylimeError> {
        let record = (self.agents.get_mut(id))
            .ok_or_else(|| KeylimeError::UnknownAgent { id: id.clone() })?;
        Ok((record, &mut self.worker.memo))
    }
}

/// What one round worker keeps across rounds.
#[derive(Debug, Default)]
pub(crate) struct WorkerScratch {
    pub(crate) memo: TemplateHashMemo,
    pub(crate) wire: WireBuffer,
}

/// A round's worker scratch: the calling thread's, then the helpers'.
pub(crate) type Workers<'v> = (&'v mut WorkerScratch, &'v mut [WorkerScratch]);

/// `pcr` extended by each entry's SHA-256 template hash, in order: the
/// verifier's replay of the evidence register.
fn fold(pcr: Digest, entries: &[ImaLogEntry], memo: &mut TemplateHashMemo) -> Digest {
    entries.iter().fold(pcr, |pcr, entry| {
        extend_digest(HashAlgorithm::Sha256, pcr, memo.template_hash(entry))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_ima::MeasurementLog;
    use cia_tpm::{PcrSelection, Quote};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn record() -> AgentRecord {
        let mut rng = StdRng::seed_from_u64(11);
        AgentRecord {
            ak: cia_crypto::KeyPair::generate(&mut rng).verifying,
            backend: BackendIdentity::tpm_ima(),
            policy: Arc::new(RuntimePolicy::new()),
            state: AgentStateSnapshot::fresh(PolicyEpoch::ZERO, true),
        }
    }

    fn config() -> VerifierConfig {
        VerifierConfig::builder()
            .degraded_after(2)
            .quarantine_after(4)
            .reprobe_backoff_rounds(2)
            .reprobe_backoff_max_rounds(8)
            .build()
            .unwrap()
    }

    #[test]
    fn unreachable_streak_degrades_then_quarantines() {
        let c = config();
        let mut r = record();
        assert_eq!(
            r.apply_health(ReachClass::Unreachable, &c),
            AgentHealth::Healthy
        );
        assert_eq!(
            r.apply_health(ReachClass::Unreachable, &c),
            AgentHealth::Degraded
        );
        assert_eq!(
            r.apply_health(ReachClass::Unreachable, &c),
            AgentHealth::Degraded
        );
        assert_eq!(
            r.apply_health(ReachClass::Unreachable, &c),
            AgentHealth::Quarantined
        );
        assert_eq!(r.state.consecutive_unreachable, 4);
        assert_eq!(r.state.reprobe_backoff, 2, "enters at the base interval");
    }

    #[test]
    fn recovery_needs_two_verified_rounds() {
        let c = config();
        let mut r = record();
        for _ in 0..4 {
            r.apply_health(ReachClass::Unreachable, &c);
        }
        assert_eq!(r.state.health, AgentHealth::Quarantined);
        assert_eq!(
            r.apply_health(ReachClass::Verified, &c),
            AgentHealth::Recovering,
            "a verified probe starts recovery, not full trust"
        );
        assert_eq!(
            r.apply_health(ReachClass::Verified, &c),
            AgentHealth::Healthy
        );
        assert_eq!(r.state.consecutive_unreachable, 0);
    }

    #[test]
    fn recovering_relapse_requarantines() {
        let c = config();
        let mut r = record();
        for _ in 0..4 {
            r.apply_health(ReachClass::Unreachable, &c);
        }
        r.apply_health(ReachClass::Verified, &c);
        assert_eq!(r.state.health, AgentHealth::Recovering);
        assert_eq!(
            r.apply_health(ReachClass::Unreachable, &c),
            AgentHealth::Quarantined,
            "one more miss while recovering goes straight back"
        );
    }

    #[test]
    fn reached_but_failed_resets_streak_without_recovery() {
        let c = config();
        let mut r = record();
        r.apply_health(ReachClass::Unreachable, &c);
        r.apply_health(ReachClass::Unreachable, &c);
        assert_eq!(r.state.health, AgentHealth::Degraded);
        assert_eq!(
            r.apply_health(ReachClass::ReachedNotVerified, &c),
            AgentHealth::Healthy,
            "the channel works again"
        );
        assert_eq!(r.state.consecutive_unreachable, 0);

        // But while Quarantined, a failing (reachable) agent stays put.
        for _ in 0..4 {
            r.apply_health(ReachClass::Unreachable, &c);
        }
        assert_eq!(
            r.apply_health(ReachClass::ReachedNotVerified, &c),
            AgentHealth::Quarantined,
            "recovery demands a verified attestation"
        );
    }

    #[test]
    fn reprobe_backoff_decays_and_caps() {
        let c = config();
        let mut r = record();
        for _ in 0..4 {
            r.apply_health(ReachClass::Unreachable, &c);
        }
        // Entered with backoff 2: skip, skip, probe.
        assert_eq!(r.tick_reprobe(), Some(1));
        assert_eq!(r.tick_reprobe(), Some(0));
        assert_eq!(r.tick_reprobe(), None, "probe due");
        // The probe fails: backoff doubles (2 → 4).
        r.apply_health(ReachClass::Unreachable, &c);
        assert_eq!(r.state.reprobe_backoff, 4);
        for expected in [3, 2, 1, 0] {
            assert_eq!(r.tick_reprobe(), Some(expected));
        }
        assert_eq!(r.tick_reprobe(), None);
        // Failed probes keep doubling but cap at 8.
        r.apply_health(ReachClass::Unreachable, &c);
        assert_eq!(r.state.reprobe_backoff, 8);
        r.apply_health(ReachClass::Unreachable, &c);
        assert_eq!(r.state.reprobe_backoff, 8, "capped");
    }

    #[test]
    fn verifier_health_accessors() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut verifier = Verifier::new(VerifierConfig::default());
        let ak = cia_crypto::KeyPair::generate(&mut rng).verifying;
        verifier.add_agent("node-a", ak.clone(), RuntimePolicy::new());
        verifier.add_agent("node-b", ak, RuntimePolicy::new());
        assert_eq!(
            verifier.health(&AgentId::from("node-a")).unwrap(),
            AgentHealth::Healthy
        );
        assert!(verifier.health(&AgentId::from("ghost")).is_err());
        let counts = verifier.health_counts();
        assert_eq!(counts.healthy, 2);
        assert_eq!(counts.total(), 2);
    }

    fn test_ak(seed: u64) -> cia_crypto::VerifyingKey {
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

    #[test]
    fn publish_swaps_handles_for_shared_agents_only() {
        let mut verifier = Verifier::new(VerifierConfig::default());
        verifier.add_agent_shared("shared-a", test_ak(1));
        verifier.add_agent_shared("shared-b", test_ak(2));
        verifier.add_agent("override", test_ak(3), policy_with(&["/snap-scrubbed"]));

        let epoch = verifier.publish_policy(policy_with(&["/a", "/b"]));
        assert_eq!(epoch, verifier.current_epoch());
        let a = AgentId::from("shared-a");
        let b = AgentId::from("shared-b");
        let o = AgentId::from("override");
        assert_eq!(verifier.agent_policy_epoch(&a).unwrap(), epoch);
        assert_eq!(verifier.agent_policy_epoch(&b).unwrap(), epoch);
        assert_eq!(verifier.policy(&a).unwrap().path_count(), 2);
        // Both shared agents hold the *same* snapshot.
        assert!(Arc::ptr_eq(
            &verifier.record(&a).unwrap().policy,
            &verifier.record(&b).unwrap().policy
        ));
        // The override agent keeps its own policy and stale epoch.
        assert_eq!(verifier.policy(&o).unwrap().path_count(), 1);
        assert!(verifier.agent_policy_epoch(&o).unwrap() < epoch);
    }

    #[test]
    fn publish_delta_distributes_incrementally() {
        let mut verifier = Verifier::new(VerifierConfig::default());
        verifier.add_agent_shared("node", test_ak(4));
        verifier.publish_policy(policy_with(&["/a"]));
        let (epoch, applied) = verifier.publish_delta(&PolicyDelta {
            added: vec![("/b".into(), "bb".into())],
            ..PolicyDelta::default()
        });
        assert_eq!(applied, 1);
        let id = AgentId::from("node");
        assert_eq!(verifier.agent_policy_epoch(&id).unwrap(), epoch);
        assert_eq!(verifier.policy(&id).unwrap().path_count(), 2);
    }

    #[test]
    fn quarantined_agent_keeps_acknowledged_epoch_until_recovery() {
        let config = config();
        let mut verifier = Verifier::new(config);
        verifier.add_agent_shared("node", test_ak(5));
        let old_epoch = verifier.publish_policy(policy_with(&["/old"]));
        let id = AgentId::from("node");

        // Drive the agent into quarantine.
        for _ in 0..4 {
            verifier
                .record_mut(&id)
                .unwrap()
                .apply_health(ReachClass::Unreachable, &config);
        }
        assert_eq!(verifier.health(&id).unwrap(), AgentHealth::Quarantined);

        // A push lands while the agent is partitioned: the fleet moves
        // on, the quarantined agent still holds what it acknowledged.
        let new_epoch = verifier.publish_policy(policy_with(&["/old", "/new"]));
        assert_eq!(verifier.agent_policy_epoch(&id).unwrap(), old_epoch);
        assert_eq!(verifier.policy(&id).unwrap().path_count(), 1);

        // A successful probe moves it to Recovering; the next adoption
        // pass (eager or lazy) converges it to the latest epoch.
        verifier
            .record_mut(&id)
            .unwrap()
            .apply_health(ReachClass::Verified, &config);
        assert_eq!(verifier.health(&id).unwrap(), AgentHealth::Recovering);
        let store = verifier.store.clone();
        verifier.record_mut(&id).unwrap().adopt_shared(&store);
        assert_eq!(verifier.agent_policy_epoch(&id).unwrap(), new_epoch);
        assert_eq!(verifier.policy(&id).unwrap().path_count(), 2);
    }

    #[test]
    fn use_shared_policy_reattaches_an_override() {
        let mut verifier = Verifier::new(VerifierConfig::default());
        verifier.add_agent_shared("node", test_ak(6));
        let epoch = verifier.publish_policy(policy_with(&["/a"]));
        let id = AgentId::from("node");

        verifier
            .update_policy(&id, policy_with(&["/mine"]))
            .unwrap();
        assert_eq!(verifier.policy(&id).unwrap().path_count(), 1);
        // Publishing now skips the override...
        verifier.publish_policy(policy_with(&["/a", "/b"]));
        assert!(verifier.policy(&id).unwrap().digests_for("/mine").is_some());
        let _ = epoch;
        // ...until the agent is re-attached.
        verifier.use_shared_policy(&id).unwrap();
        assert_eq!(
            verifier.agent_policy_epoch(&id).unwrap(),
            verifier.current_epoch()
        );
        assert_eq!(verifier.policy(&id).unwrap().path_count(), 2);
    }

    /// A quote covering entry 0 on TPM+IMA must select PCRs 0–9. The
    /// `boot_aggregate` check hashes the quoted PCRs 0–9, so a quote that
    /// selected only PCR 10 would make the expected aggregate the SHA-256
    /// of empty input, a value a tampered boot chain can simply log.
    /// Past entry 0 the same PCR 10 alone is a complete reply.
    #[test]
    fn a_quote_at_entry_zero_must_select_the_boot_registers() {
        use cia_ima::IMA_PCR;
        use cia_tpm::{Manufacturer, Tpm};

        let mut rng = StdRng::seed_from_u64(13);
        let mut tpm = Tpm::manufacture(&Manufacturer::generate(&mut rng), &mut rng);
        let ak = tpm.create_ak(&mut rng);
        let mut log = MeasurementLog::new();
        let empty = HashAlgorithm::Sha256.digest(b"");
        let entry = ImaLogEntry::new(empty, BOOT_AGGREGATE_NAME);
        log.append(entry, &mut tpm).unwrap();
        let nonce = b"fresh".to_vec();
        let selection = PcrSelection::single(IMA_PCR);
        let resp = QuoteResponse {
            backend: BackendKind::TpmIma,
            quote: tpm
                .quote(&nonce, &selection, HashAlgorithm::Sha256)
                .unwrap(),
            entries: log.entries().to_vec(),
            total_entries: log.len(),
        };
        let record = AgentRecord { ak, ..record() };
        let id = AgentId::from("node");

        let memo = &mut TemplateHashMemo::new();
        let appraisal = Verifier::appraise(&config(), &record, &resp, &nonce, &id, 0, memo);
        let alert = Alert {
            agent: id.clone(),
            day: 0,
            kind: FailureKind::QuoteInvalid,
        };
        assert_eq!(
            appraisal.outcome,
            AttestationOutcome::Failed {
                alerts: vec![alert]
            }
        );
        let paused = AgentStateSnapshot {
            status: AgentStatus::Paused,
            ..record.state
        };
        assert_eq!(
            appraisal.next, paused,
            "nothing advances past a rejected quote"
        );
        assert_eq!(appraisal.entries_evaluated, 0);

        let past_zero = AgentRecord {
            state: AgentStateSnapshot {
                next_entry: 1,
                replayed_pcr: log.replay(HashAlgorithm::Sha256),
                ..record.state
            },
            ..record
        };
        let resp = QuoteResponse {
            entries: Vec::new(),
            ..resp
        };
        let appraisal = Verifier::appraise(&config(), &past_zero, &resp, &nonce, &id, 0, memo);
        assert_eq!(
            appraisal.outcome,
            AttestationOutcome::Verified { new_entries: 0 }
        );
    }

    /// A quote signed by `keys` over `register` alone, at its reset value.
    fn signed_quote(keys: &cia_crypto::KeyPair, nonce: &[u8], register: u8) -> Quote {
        let selection = PcrSelection::single(register);
        let pcr_values = vec![HashAlgorithm::Sha256.zero_digest()];
        let pcr_digest = Quote::digest_pcrs(&pcr_values);
        let bank = HashAlgorithm::Sha256;
        let msg = Quote::message_bytes(nonce, &selection, bank, &pcr_digest, 0, 1);
        Quote {
            nonce: nonce.to_vec(),
            selection,
            bank,
            pcr_values,
            pcr_digest,
            boot_count: 0,
            clock: 1,
            signature: keys.signing.sign(&msg),
        }
    }

    /// A signed quote whose selection omits a register `required_registers`
    /// names is `QuoteInvalid`, past entry 0 too: a TPM+IMA reply without
    /// PCR 10, and a confidential VM's without its launch register.
    #[test]
    fn a_quote_must_select_the_registers_the_verifier_reads() {
        use crate::backend::CVM_RUNTIME_REGISTER;

        let keys = cia_crypto::KeyPair::generate(&mut StdRng::seed_from_u64(17));
        let nonce = b"fresh".to_vec();
        let id = AgentId::from("node");
        let launch = HashAlgorithm::Sha256.digest(b"launch");
        // (enrolled backend, poll cursor, the one register quoted)
        let cases = [
            (BackendIdentity::tpm_ima(), 1, 0),
            (
                BackendIdentity::confidential_vm(launch),
                0,
                CVM_RUNTIME_REGISTER,
            ),
        ];
        for (backend, next_entry, register) in cases {
            let record = AgentRecord {
                ak: keys.verifying.clone(),
                backend,
                state: AgentStateSnapshot {
                    next_entry,
                    ..record().state
                },
                ..record()
            };
            let resp = QuoteResponse {
                backend: backend.kind(),
                quote: signed_quote(&keys, &nonce, register),
                entries: Vec::new(),
                total_entries: next_entry,
            };
            assert!(resp.quote.verify(&keys.verifying, &nonce), "signed");
            let memo = &mut TemplateHashMemo::new();
            let appraisal = Verifier::appraise(&config(), &record, &resp, &nonce, &id, 0, memo);
            let alert = Alert {
                agent: id.clone(),
                day: 0,
                kind: FailureKind::QuoteInvalid,
            };
            assert_eq!(
                appraisal.outcome,
                AttestationOutcome::Failed {
                    alerts: vec![alert]
                },
                "{}",
                backend.kind()
            );
        }
    }

    /// A transport that sends every quote response it delivers down a
    /// channel, so a test can hand a round's evidence to a second
    /// appraiser. Each lane sends through its own clone of the sender.
    #[derive(Debug)]
    struct Recorder {
        inner: crate::chaos::ChaosTransport<crate::transport::ReliableTransport>,
        quotes: std::sync::mpsc::Sender<QuoteResponse>,
    }

    impl Transport for Recorder {
        fn call<Req, Resp>(
            &mut self,
            request: &Req,
            serve: impl FnOnce(Req) -> Resp,
        ) -> Result<Resp, crate::transport::TransportError>
        where
            Req: Serialize + serde::de::DeserializeOwned,
            Resp: Serialize + serde::de::DeserializeOwned,
        {
            let response = self.inner.call(request, serve)?;
            let json = serde_json::to_string(&response).unwrap();
            if let Ok(AgentResponse::Quote(quote)) = serde_json::from_str(&json) {
                self.quotes.send(quote).unwrap();
            }
            Ok(response)
        }

        fn requests(&self) -> u64 {
            self.inner.requests()
        }

        fn drops(&self) -> u64 {
            self.inner.drops()
        }

        fn wire_bytes(&self) -> u64 {
            self.inner.wire_bytes()
        }

        fn fork(&self, lane: u64) -> Self {
            Recorder {
                inner: self.inner.fork(lane),
                quotes: self.quotes.clone(),
            }
        }
    }

    /// The witness check, on honest evidence: over seeded lossy rounds
    /// with one tampered agent and one reboot, a second party holding
    /// each agent's record from before the round and the evidence the
    /// round appraised re-derives every appraised row's verdict and the
    /// state the engine applied, under both failure postures — with a
    /// memo warmed by every earlier appraisal and with a cold one alike.
    ///
    /// The record the engine appraised against is the record before the
    /// round plus the request half's writes, re-derived from the
    /// evidence: shared-policy adoption, one nonce spent per quote
    /// request (the last one is the one the quote binds), and on a
    /// reboot a cursor and fold restarted from zero.
    #[test]
    fn a_second_party_re_derives_every_appraisal_from_the_evidence() {
        use crate::chaos::{ChaosTransport, FaultPlan, FaultTarget};
        use crate::scheduler::RoundOutcome;
        use crate::tenant::Cluster;
        use crate::transport::ReliableTransport;
        use cia_os::{ExecMethod, MachineConfig};
        use cia_vfs::VfsPath;

        let tool: &[u8] = b"fleet tool";
        let tool_path = |round: u64| VfsPath::new(&format!("/usr/bin/tool-{round}")).unwrap();
        let rogue = VfsPath::new("/usr/local/bin/rogue").unwrap();
        for continue_on_failure in [false, true] {
            let config = VerifierConfig {
                continue_on_failure,
                worker_count: 2,
                ..VerifierConfig::engine_default()
            };
            let plan = FaultPlan::new(46).loss(0..u64::MAX, FaultTarget::AllAgents, 0.3);
            let (sender, quotes) = std::sync::mpsc::channel();
            let transport = Recorder {
                inner: ChaosTransport::new(ReliableTransport::new(), plan),
                quotes: sender,
            };
            let mut cluster = Cluster::with_transport(46, config, transport);
            let mut policy = RuntimePolicy::new();
            let digest = HashAlgorithm::Sha256.digest(tool).to_hex();
            for round in 0..8 {
                policy.allow(tool_path(round).as_str(), digest.clone());
            }
            cluster.publish_policy(policy);
            let ids: Vec<AgentId> = (0..4u64)
                .map(|i| {
                    let machine = MachineConfig {
                        hostname: format!("node-{i:02}"),
                        seed: 460 + i,
                        ..MachineConfig::default()
                    };
                    cluster.add_machine_shared(machine).unwrap()
                })
                .collect();
            let (tampered, rebooted) = (&ids[1], &ids[2]);

            let (mut appraised, mut failed, mut restarted) = (0, 0, 0);
            let mut warm = TemplateHashMemo::new();
            for round in 0..8u64 {
                for id in &ids {
                    let agent = cluster.agent_mut(id).unwrap();
                    if id == rebooted && round == 4 {
                        agent.restart().unwrap();
                    }
                    let machine = agent.machine_mut();
                    if id == tampered && round == 2 {
                        machine.write_executable(&rogue, b"not in policy").unwrap();
                        machine.exec(&rogue, ExecMethod::Direct).unwrap();
                    }
                    machine.write_executable(&tool_path(round), tool).unwrap();
                    machine.exec(&tool_path(round), ExecMethod::Direct).unwrap();
                }
                let before: BTreeMap<AgentId, AgentRecord> = (cluster.verifier.records())
                    .map(|(id, record)| (id.clone(), record.clone()))
                    .collect();
                cluster.transport.inner.set_round(round);
                let report = cluster.attest_fleet();
                let delivered: Vec<QuoteResponse> = quotes.try_iter().collect();

                for row in &report.results {
                    let class = match &row.outcome {
                        RoundOutcome::Verified { .. } => ReachClass::Verified,
                        RoundOutcome::Failed { .. } => ReachClass::ReachedNotVerified,
                        _ => continue,
                    };
                    let mut record = before[&row.id].clone();
                    record.adopt_shared(cluster.verifier.policy_store());
                    let spent = record.state.nonce_counter;
                    // The agent's last delivered quote is the appraised one.
                    let (counter, resp) = (delivered.iter().rev())
                        .find_map(|resp| {
                            (spent..spent + 64)
                                .find(|&k| Verifier::make_nonce(&row.id, k) == resp.quote.nonce)
                                .map(|k| (k, resp))
                        })
                        .expect("an appraised row had its quote delivered");
                    record.state.nonce_counter = counter + 1;
                    if (record.state.last_boot_count)
                        .is_some_and(|boot| boot != resp.quote.boot_count)
                    {
                        record.state.next_entry = 0;
                        record.state.replayed_pcr = HashAlgorithm::Sha256.zero_digest();
                        restarted += 1;
                    }

                    let nonce = Verifier::make_nonce(&row.id, counter);
                    let appraise = |memo: &mut TemplateHashMemo| {
                        Verifier::appraise(&config, &record, resp, &nonce, &row.id, row.day, memo)
                    };
                    let appraisal = appraise(&mut warm);
                    assert_eq!(
                        appraise(&mut TemplateHashMemo::new()),
                        appraisal,
                        "round {round}: {} cold and warm",
                        row.id
                    );
                    let verdict = match appraisal.outcome {
                        AttestationOutcome::Verified { new_entries } => {
                            RoundOutcome::Verified { new_entries }
                        }
                        AttestationOutcome::Failed { alerts } => RoundOutcome::Failed { alerts },
                        AttestationOutcome::SkippedPaused => RoundOutcome::SkippedPaused,
                    };
                    assert_eq!(verdict, row.outcome, "round {round}: {} verdict", row.id);
                    record.state = appraisal.next;
                    record.apply_health(class, &config);
                    let live = cluster.verifier.record(&row.id).unwrap();
                    assert_eq!(record.state, live.state, "round {round}: {} state", row.id);
                    appraised += 1;
                    failed += usize::from(class == ReachClass::ReachedNotVerified);
                }
            }
            let metrics = cluster.scheduler.snapshot();
            let posture = if continue_on_failure {
                "continue"
            } else {
                "stop"
            };
            assert!(metrics.retries > 0, "{posture}: the link lost calls");
            assert!(appraised >= 24, "{posture}: {appraised} rows re-derived");
            assert!(failed > 0, "{posture}: the tampered agent failed");
            assert_eq!(restarted, 1, "{posture}: the reboot was re-quoted once");
            assert!(warm.hits() > 0, "{posture}: the fleet's entries repeat");
        }
    }

    /// A TPM that has measured `boot_aggregate` and then `files`, its AK,
    /// and its log.
    fn measured(
        files: &[(String, Vec<u8>)],
    ) -> (cia_tpm::Tpm, cia_crypto::VerifyingKey, MeasurementLog) {
        let mut rng = StdRng::seed_from_u64(19);
        let mut tpm =
            cia_tpm::Tpm::manufacture(&cia_tpm::Manufacturer::generate(&mut rng), &mut rng);
        let ak = tpm.create_ak(&mut rng);
        let mut log = MeasurementLog::new();
        let boot = ImaLogEntry::new(HashAlgorithm::Sha256.digest(b"boot"), BOOT_AGGREGATE_NAME);
        log.append(boot, &mut tpm).unwrap();
        for (path, content) in files {
            measure(&mut tpm, &mut log, path, content);
        }
        (tpm, ak, log)
    }

    fn measure(tpm: &mut cia_tpm::Tpm, log: &mut MeasurementLog, path: &str, content: &[u8]) {
        let entry = ImaLogEntry::new(HashAlgorithm::Sha256.digest(content), path);
        log.append(entry, tpm).unwrap();
    }

    /// The poll from entry `from` on: PCR 10 quoted under `nonce`.
    fn poll(
        tpm: &mut cia_tpm::Tpm,
        log: &MeasurementLog,
        from: usize,
        nonce: &[u8],
    ) -> QuoteResponse {
        let selection = PcrSelection::single(cia_ima::IMA_PCR);
        QuoteResponse {
            backend: BackendKind::TpmIma,
            quote: tpm.quote(nonce, &selection, HashAlgorithm::Sha256).unwrap(),
            entries: log.entries()[from..].to_vec(),
            total_entries: log.len(),
        }
    }

    /// A record that has appraised the `boot_aggregate` and trusts
    /// `policy`.
    fn past_boot(
        ak: cia_crypto::VerifyingKey,
        log: &MeasurementLog,
        policy: RuntimePolicy,
    ) -> AgentRecord {
        AgentRecord {
            ak,
            policy: Arc::new(policy),
            state: AgentStateSnapshot {
                next_entry: 1,
                replayed_pcr: log.replay_prefix(HashAlgorithm::Sha256, 1),
                ..record().state
            },
            ..record()
        }
    }

    fn pcr_mismatch(id: &AgentId) -> AttestationOutcome {
        let kind = FailureKind::PcrMismatch;
        let alert = Alert {
            agent: id.clone(),
            day: 0,
            kind,
        };
        AttestationOutcome::Failed {
            alerts: vec![alert],
        }
    }

    /// A memo warmed with honest entries — the tampered pairs included,
    /// each honestly measured elsewhere — still folds a response whose
    /// path or digest was rewritten in flight to a PCR mismatch: a hit
    /// answers for the rewritten fields, never for the original entry.
    #[test]
    fn a_warm_memo_still_catches_evidence_rewritten_in_flight() {
        let files = [("/usr/bin/a", b"a"), ("/usr/bin/b", b"b")];
        let files: Vec<(String, Vec<u8>)> = (files.iter())
            .map(|(path, content)| (path.to_string(), content.to_vec()))
            .collect();
        let (mut tpm, ak, log) = measured(&files);
        let mut policy = RuntimePolicy::new();
        policy.exclude("/usr/bin");
        let record = past_boot(ak, &log, policy);
        let (id, nonce) = (AgentId::from("node"), b"fresh".to_vec());
        let honest = poll(&mut tpm, &log, 1, &nonce);

        let mut memo = TemplateHashMemo::new();
        let config = config();
        let appraisal = Verifier::appraise(&config, &record, &honest, &nonce, &id, 0, &mut memo);
        assert_eq!(
            appraisal.outcome,
            AttestationOutcome::Verified { new_entries: 2 }
        );

        let (a, b) = (&honest.entries[0], &honest.entries[1]);
        let rewrites = [
            ImaLogEntry::new(a.filedata_hash, b.path.clone()),
            ImaLogEntry::new(b.filedata_hash, a.path.clone()),
        ];
        for forged in rewrites {
            // The forged pair is one the fleet measured honestly too.
            memo.template_hash(&forged);
            let mut tampered = honest.clone();
            tampered.entries[0] = forged.clone();
            let hits = memo.hits();
            let appraisal =
                Verifier::appraise(&config, &record, &tampered, &nonce, &id, 0, &mut memo);
            assert_eq!(appraisal.outcome, pcr_mismatch(&id), "{forged:?}");
            assert!(memo.hits() >= hits + 2, "both entries were memo hits");
        }
    }

    /// An agent whose log holds more distinct entries than the memo's
    /// capacity leaves the memo within its bound, and the polls after it
    /// still verify, and still catch a rewrite.
    #[test]
    fn an_agent_past_the_memo_capacity_leaves_it_bounded_and_correct() {
        let files: Vec<(String, Vec<u8>)> = (0..TemplateHashMemo::CAPACITY + 100)
            .map(|i| (format!("/srv/app/f{i}"), i.to_le_bytes().to_vec()))
            .collect();
        let (mut tpm, ak, mut log) = measured(&files);
        let mut policy = RuntimePolicy::new();
        policy.exclude("/srv/app");
        let mut record = past_boot(ak, &log, policy);
        let (id, config) = (AgentId::from("node"), config());
        let mut memo = TemplateHashMemo::new();

        let nonce = b"backlog".to_vec();
        let resp = poll(&mut tpm, &log, 1, &nonce);
        let appraisal = Verifier::appraise(&config, &record, &resp, &nonce, &id, 0, &mut memo);
        let new_entries = files.len();
        assert_eq!(
            appraisal.outcome,
            AttestationOutcome::Verified { new_entries }
        );
        assert!(memo.len() <= TemplateHashMemo::CAPACITY, "{memo:?}");
        record.state = appraisal.next;

        // The next poll re-sends entries the memo dropped and held, and
        // one it never saw.
        let repeats = [&files[0], &files[files.len() - 1]];
        for (path, content) in repeats {
            measure(&mut tpm, &mut log, path, content);
        }
        measure(&mut tpm, &mut log, "/srv/app/new", b"new");
        let nonce = b"steady".to_vec();
        let from = record.state.next_entry;
        let resp = poll(&mut tpm, &log, from, &nonce);
        let appraisal = Verifier::appraise(&config, &record, &resp, &nonce, &id, 0, &mut memo);
        assert_eq!(
            appraisal.outcome,
            AttestationOutcome::Verified { new_entries: 3 }
        );
        assert_eq!(
            appraisal.next.replayed_pcr,
            log.replay(HashAlgorithm::Sha256)
        );
        assert!(memo.len() <= TemplateHashMemo::CAPACITY, "{memo:?}");

        let mut tampered = resp.clone();
        tampered.entries[1].path = files[1].0.clone();
        let appraisal = Verifier::appraise(&config, &record, &tampered, &nonce, &id, 0, &mut memo);
        assert_eq!(appraisal.outcome, pcr_mismatch(&id));
    }
}
