//! The Keylime verifier: polls agents and issues trust verdicts.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cia_crypto::{Digest, HashAlgorithm, Sha256};
use cia_ima::BOOT_AGGREGATE_NAME;
use cia_tpm::pcr::extend_digest;
use serde::{Deserialize, Serialize};

use crate::agent::{Agent, AgentRequest, AgentResponse, QuoteResponse};
use crate::backend::{BackendIdentity, BackendKind, CVM_LAUNCH_REGISTER};
use crate::error::KeylimeError;
use crate::ids::AgentId;
use crate::policy::{PolicyCheck, PolicyDelta, RuntimePolicy};
use crate::store::{PolicyEpoch, PolicyStore};
use crate::transport::Transport;

pub use crate::config::VerifierConfig;

/// Why an attestation failed.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alert {
    /// The agent that failed.
    pub agent: AgentId,
    /// Simulation day of the failure.
    pub day: u32,
    /// What went wrong.
    pub kind: FailureKind,
}

/// Verifier-side state of one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// Hot-path throughput counters for one or more attestation rounds:
/// what the fold-and-check loop actually did, as opposed to the
/// scheduler's call accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HotStats {
    /// Log entries evaluated against the policy (including entries that
    /// failed and, under stop-on-failure, the failing entry itself).
    pub entries_evaluated: u64,
    /// Wall-clock nanoseconds spent in the policy-evaluation loop.
    pub policy_check_ns: u64,
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Every alert raised so far.
    pub alerts: Vec<Alert>,
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
            alerts: Vec::new(),
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
    state: AgentStateSnapshot,
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

    /// The mutable state, read in place — what the journal acks and what
    /// a migration carries.
    pub(crate) fn state(&self) -> &AgentStateSnapshot {
        &self.state
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
}

impl Verifier {
    /// Creates a verifier.
    pub fn new(config: VerifierConfig) -> Self {
        Verifier {
            config,
            agents: BTreeMap::new(),
            store: PolicyStore::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> VerifierConfig {
        self.config
    }

    /// Replaces the active configuration (e.g. to widen the retry budget
    /// when the transport degrades). Takes effect from the next round.
    pub fn set_config(&mut self, config: VerifierConfig) {
        self.config = config;
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

    /// All alerts raised for an agent so far.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn alerts(&self, id: &AgentId) -> Result<&[Alert], KeylimeError> {
        Ok(&self.record(id)?.state.alerts)
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
        let record = self.record_mut(&id)?;
        match Self::fetch_tail(record, &id, transport, agent) {
            Ok((q, _nonce)) => {
                for entry in &q.entries {
                    record.state.replayed_pcr = extend_digest(
                        HashAlgorithm::Sha256,
                        record.state.replayed_pcr,
                        entry.template_hash(HashAlgorithm::Sha256),
                    );
                }
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
        let record = self.record_mut(&id)?;
        // The same two halves the fleet scheduler wraps its retry loop
        // and latency metering around, so direct and fleet-round
        // verdicts agree by construction.
        match Self::fetch_evidence(&config, &store, record, &id, transport, agent)? {
            FetchedEvidence::Paused => Ok(AttestationOutcome::SkippedPaused),
            FetchedEvidence::Quote { resp, nonce } => Ok(Self::appraise_evidence(
                &config,
                record,
                &id,
                *resp,
                &nonce,
                day,
                &mut HotStats::default(),
            )),
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

    /// The CPU half of one attestation: appraises fetched evidence
    /// against the record's policy. Pure of transport.
    pub(crate) fn appraise_evidence(
        config: &VerifierConfig,
        record: &mut AgentRecord,
        id: &AgentId,
        resp: QuoteResponse,
        nonce: &[u8],
        day: u32,
        stats: &mut HotStats,
    ) -> AttestationOutcome {
        let mut alerts: Vec<Alert> = Vec::new();
        let fail = |record: &mut AgentRecord, alerts: Vec<Alert>| {
            record.state.status = AgentStatus::Paused;
            record.state.alerts.extend(alerts.iter().cloned());
            AttestationOutcome::Failed { alerts }
        };

        // ⓪ Backend gating. The enrolled identity — not the evidence's
        // own tag — decides how this agent is appraised; a tag that
        // disagrees with the record is a substitution attempt.
        let identity = record.backend;
        if !config.allowed_backends.contains(identity.kind()) {
            alerts.push(Alert {
                agent: id.clone(),
                day,
                kind: FailureKind::BackendNotAllowed {
                    backend: identity.kind(),
                },
            });
            return fail(record, alerts);
        }
        if resp.backend != identity.kind() {
            alerts.push(Alert {
                agent: id.clone(),
                day,
                kind: FailureKind::BackendMismatch {
                    expected: identity.kind(),
                    reported: resp.backend,
                },
            });
            return fail(record, alerts);
        }

        // ① Quote authenticity and freshness.
        if !resp.quote.verify(&record.ak, nonce) {
            alerts.push(Alert {
                agent: id.clone(),
                day,
                kind: FailureKind::QuoteInvalid,
            });
            return fail(record, alerts);
        }

        // Log cannot rewind within one boot.
        if resp.total_entries < record.state.next_entry {
            alerts.push(Alert {
                agent: id.clone(),
                day,
                kind: FailureKind::LogRewound,
            });
            return fail(record, alerts);
        }

        // Launch-rooted identity (confidential VMs): the quoted launch
        // register must equal the platform-certified measurement the
        // agent enrolled with. Checked after ① so only a signed register
        // is trusted.
        if let Some(enrolled_launch) = identity.launch_measurement() {
            if resp.quote.pcr_value(CVM_LAUNCH_REGISTER) != Some(enrolled_launch) {
                alerts.push(Alert {
                    agent: id.clone(),
                    day,
                    kind: FailureKind::LaunchMeasurementMismatch,
                });
                return fail(record, alerts);
            }
        }

        // ② The excerpt must replay to the quoted evidence register
        // (PCR 10 on TPM+IMA). Template-hash caches never travel, so the
        // fold below recomputes them from the entry fields and any
        // tampering lands here as a PCR mismatch.
        let entries = &resp.entries;
        let mut full_fold = record.state.replayed_pcr;
        for entry in entries {
            full_fold = extend_digest(
                HashAlgorithm::Sha256,
                full_fold,
                entry.template_hash(HashAlgorithm::Sha256),
            );
        }
        let quoted_evidence = resp.quote.pcr_value(identity.kind().evidence_register());
        if quoted_evidence != Some(full_fold) {
            alerts.push(Alert {
                agent: id.clone(),
                day,
                kind: FailureKind::PcrMismatch,
            });
            return fail(record, alerts);
        }

        // ③ Policy evaluation, entry by entry. The fast paths (allowed /
        // excluded) run entirely on borrowed data — no per-entry heap
        // allocation; hex rendering happens only when building an alert.
        // Each entry extends the fold exactly once: the full fold was
        // already computed in ②, so the happy path adopts it wholesale
        // and only a stop-on-failure exit re-folds the accepted prefix.
        #[expect(
            clippy::disallowed_methods,
            reason = "policy-check latency metering only: feeds HotStats::policy_check_ns, \
                      never an appraisal verdict"
        )]
        let check_started = Instant::now();
        let has_boot_aggregate = identity.kind().has_boot_aggregate();
        let mut processed = 0usize;
        for (offset, entry) in entries.iter().enumerate() {
            let absolute_index = record.state.next_entry + offset;
            let verdict =
                if has_boot_aggregate && absolute_index == 0 && entry.path == BOOT_AGGREGATE_NAME {
                    // boot_aggregate must match the quoted PCRs 0–9.
                    let mut h = Sha256::new();
                    for pcr in 0..=9u8 {
                        if let Some(v) = resp.quote.pcr_value(pcr) {
                            h.update(v.as_bytes());
                        }
                    }
                    if h.finalize() == entry.filedata_hash {
                        None
                    } else {
                        Some(FailureKind::BootAggregateMismatch)
                    }
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
                alerts.push(Alert {
                    agent: id.clone(),
                    day,
                    kind,
                });
                if !config.continue_on_failure {
                    // P2: stop here. `next_entry` stays at the failing
                    // entry; everything after it goes unevaluated. Only
                    // the accepted prefix enters the replayed fold.
                    for accepted in &entries[..processed] {
                        record.state.replayed_pcr = extend_digest(
                            HashAlgorithm::Sha256,
                            record.state.replayed_pcr,
                            accepted.template_hash(HashAlgorithm::Sha256),
                        );
                    }
                    record.state.next_entry += processed;
                    record.state.last_boot_count = Some(resp.quote.boot_count);
                    stats.entries_evaluated += processed as u64 + 1;
                    stats.policy_check_ns += check_started.elapsed().as_nanos() as u64;
                    return fail(record, alerts);
                }
                // Continue-on-failure: evaluate everything; the entry
                // still advances the fold so later PCR checks align.
            }
            processed += 1;
        }

        stats.entries_evaluated += processed as u64;
        stats.policy_check_ns += check_started.elapsed().as_nanos() as u64;
        // Every entry was processed, so the replayed fold is exactly the
        // full fold verified against the quote in ②.
        record.state.replayed_pcr = full_fold;
        record.state.next_entry += processed;
        record.state.last_boot_count = Some(resp.quote.boot_count);
        record.state.attestations += 1;

        if alerts.is_empty() {
            record.state.status = AgentStatus::Trusted;
            AttestationOutcome::Verified {
                new_entries: processed,
            }
        } else {
            // continue_on_failure: alerts recorded, polling continues.
            record.state.alerts.extend(alerts.iter().cloned());
            AttestationOutcome::Failed { alerts }
        }
    }

    /// Hands the scheduler the per-agent records alongside the config and
    /// a clone of the store (one `Arc` bump), so each worker can own one
    /// `&mut AgentRecord` while all of them read the same epoch.
    pub(crate) fn scheduler_view(
        &mut self,
    ) -> (
        VerifierConfig,
        PolicyStore,
        &mut BTreeMap<AgentId, AgentRecord>,
    ) {
        (self.config, self.store.clone(), &mut self.agents)
    }

    /// Copies out one agent's mutable state.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn export_agent_state(&self, id: &AgentId) -> Result<AgentStateSnapshot, KeylimeError> {
        Ok(self.record(id)?.state.clone())
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
        self.agents
            .get_mut(id)
            .ok_or_else(|| KeylimeError::UnknownAgent { id: id.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
