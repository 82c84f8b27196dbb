//! The tenant: operator-facing orchestration, plus a one-process
//! [`Cluster`] bundling all components for experiments.

use cia_os::{Machine, MachineConfig};
use cia_tpm::Manufacturer;
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::collections::BTreeMap;

use cia_storage::StorageError;
use cia_vfs::{Vfs, VfsPath};

use crate::agent::Agent;
use crate::audit::AuditLog;
use crate::backend::{
    BackendRoot, ConfidentialVmBackend, ConfidentialVmConfig, SecureWorldBackend, SecureWorldConfig,
};
use crate::durable::{ResumePlan, VerifierJournal, DEFAULT_JOURNAL_DIR};
use crate::error::KeylimeError;
use crate::federation::{FederatedRoundReport, Federation};
use crate::ids::AgentId;
use crate::payload::{KeyShare, PayloadBundle};
use crate::policy::{PolicyDelta, RuntimePolicy};
use crate::registrar::{Registrar, RegistrationRecord};
use crate::revocation::{RevocationBus, RevocationEmitter};
use crate::scheduler::{self, AgentRoundResult, FleetScheduler, RoundOutcome, RoundReport};
use crate::store::PolicyEpoch;
use crate::transport::{ReliableTransport, Transport};
use crate::verifier::{AgentStatus, Alert, AttestationOutcome, Verifier, VerifierConfig};

/// Everything needed to run attestation experiments in one process: a TPM
/// manufacturer, a registrar trusting it, a verifier, a transport, the
/// fleet scheduler, and the enrolled agents.
///
/// Generic over the [`Transport`]: `Cluster::new` gives the reliable
/// default, [`Cluster::with_transport`] accepts any implementation (e.g.
/// a [`ChaosTransport`](crate::chaos::ChaosTransport) under
/// [`FaultPlan::lossy`](crate::chaos::FaultPlan::lossy) for loss
/// experiments). One-agent operations ([`Cluster::attest`],
/// [`Cluster::resolve`]) and registration use the transport as-is; fleet
/// rounds fork one lane off it per agent.
#[derive(Debug)]
pub struct Cluster<T: Transport = ReliableTransport> {
    /// The TPM manufacturer all machines' TPMs chain to.
    pub manufacturer: Manufacturer,
    /// The TEE vendor root all secure-world device certificates chain to.
    pub tee_root: BackendRoot,
    /// The confidential-computing platform root all CVM guest
    /// certificates chain to.
    pub vm_platform: BackendRoot,
    /// The registrar.
    pub registrar: Registrar,
    /// The verifier.
    pub verifier: Verifier,
    /// The message transport. Fleet rounds fork one deterministic lane
    /// off it per agent; direct operations use it as-is.
    pub transport: T,
    /// Signs revocation notices on attestation failures.
    pub revocation: RevocationEmitter,
    /// Fans revocation notices out to subscribers.
    pub revocation_bus: RevocationBus,
    /// Durable attestation: the tamper-evident outcome history, one
    /// sealed record per round.
    pub audit: AuditLog,
    /// The concurrent fleet attestation engine (metrics accumulate here).
    pub scheduler: FleetScheduler,
    /// Secure payloads awaiting release (V share held until the agent's
    /// first clean attestation).
    payloads: BTreeMap<AgentId, PayloadBundle>,
    rng: StdRng,
    agents: Vec<Agent>,
    /// When set, every enrolment, policy publish and attestation round
    /// is journaled for crash recovery (see [`crate::durable`]).
    journal: Option<VerifierJournal>,
}

impl Cluster<ReliableTransport> {
    /// Creates an empty cluster over a reliable transport.
    pub fn new(seed: u64, config: VerifierConfig) -> Self {
        Cluster::with_transport(seed, config, ReliableTransport::new())
    }
}

impl<T: Transport> Cluster<T> {
    /// Creates an empty cluster over the given transport.
    pub fn with_transport(seed: u64, config: VerifierConfig, transport: T) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let manufacturer = Manufacturer::generate(&mut rng);
        // The TEE and platform roots come from their own seeded stream:
        // adding backend families must not shift the draw order (and
        // therefore the keys) of pre-existing clusters.
        let mut backend_rng = StdRng::seed_from_u64(seed ^ 0x7ee5);
        let tee_root = BackendRoot::generate("TEE Vendor", &mut backend_rng);
        let vm_platform = BackendRoot::generate("CC Platform", &mut backend_rng);
        let mut registrar = Registrar::new(vec![manufacturer.public_key().clone()], seed ^ 0x5ead);
        registrar.trust_tee_root(tee_root.public_key().clone());
        registrar.trust_platform_root(vm_platform.public_key().clone());
        Cluster {
            manufacturer,
            tee_root,
            vm_platform,
            registrar,
            verifier: Verifier::new(config),
            transport,
            revocation: RevocationEmitter::new(&mut rng),
            revocation_bus: RevocationBus::new(),
            audit: AuditLog::new(&mut rng),
            scheduler: FleetScheduler::new(),
            payloads: BTreeMap::new(),
            rng,
            agents: Vec::new(),
            journal: None,
        }
    }

    /// Tenant operation: seal a secret payload for `id`. The U share and
    /// ciphertext go to the agent immediately; the V share is released
    /// only after a clean attestation (see [`Cluster::collect_payload`]).
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn provision_payload(
        &mut self,
        id: &AgentId,
        plaintext: &[u8],
    ) -> Result<(), KeylimeError> {
        if self.agent(id).is_none() {
            return Err(KeylimeError::UnknownAgent { id: id.clone() });
        }
        let bundle = PayloadBundle::seal(plaintext, &mut self.rng);
        self.payloads.insert(id.clone(), bundle);
        Ok(())
    }

    /// Agent-side payload retrieval: succeeds only once the verifier has
    /// seen at least one clean attestation and the agent is currently
    /// trusted — the verifier then releases the V share and the agent can
    /// combine and decrypt.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`] when no payload was provisioned.
    pub fn collect_payload(&mut self, id: &AgentId) -> Result<Option<Vec<u8>>, KeylimeError> {
        let bundle = self
            .payloads
            .get(id)
            .ok_or_else(|| KeylimeError::UnknownAgent { id: id.clone() })?;
        let trusted = self.verifier.status(id)? == AgentStatus::Trusted
            && self.verifier.attestation_count(id)? > 0;
        if !trusted {
            return Ok(None);
        }
        let key: KeyShare = bundle.u_share.combine(&bundle.v_share);
        Ok(bundle.payload.open(&key))
    }

    /// Builds, registers and enrols a machine; returns its agent id.
    ///
    /// # Errors
    ///
    /// Registration/transport failures.
    pub fn add_machine(
        &mut self,
        config: MachineConfig,
        policy: RuntimePolicy,
    ) -> Result<AgentId, KeylimeError> {
        let machine = Machine::new(&self.manufacturer, config);
        self.add_agent(Agent::new(machine), policy)
    }

    /// Registers and enrols an existing agent. Dropped registration calls
    /// are retried within the verifier's retry budget, so enrolment works
    /// over lossy transports too.
    ///
    /// # Errors
    ///
    /// Registration failures, or transport failures persisting past the
    /// retry budget.
    pub fn add_agent(
        &mut self,
        agent: Agent,
        policy: RuntimePolicy,
    ) -> Result<AgentId, KeylimeError> {
        let (id, record) = self.register_with_retry(agent)?;
        self.verifier
            .add_agent_with_identity(id.clone(), record.ak, record.identity, policy);
        must_journal(self.journal_agent_snapshot(&id), "journal enrolment append");
        Ok(id)
    }

    /// Provisions a secure-world (TrustZone-style) backend under this
    /// cluster's TEE vendor root, then registers and enrols it with
    /// `policy`. The verifier appraises it against its measurement
    /// register instead of an IMA PCR.
    ///
    /// # Errors
    ///
    /// Registration/transport failures.
    pub fn add_secure_world(
        &mut self,
        config: SecureWorldConfig,
        policy: RuntimePolicy,
    ) -> Result<AgentId, KeylimeError> {
        let backend = SecureWorldBackend::provision(config, &self.tee_root);
        self.add_agent(Agent::with_backend(backend), policy)
    }

    /// Provisions a confidential-VM backend under this cluster's
    /// platform root, then registers and enrols it with `policy`. The
    /// registrar pins the platform-certified launch measurement; the
    /// verifier checks every quote's launch register against that pin.
    ///
    /// # Errors
    ///
    /// Registration/transport failures.
    pub fn add_confidential_vm(
        &mut self,
        config: ConfidentialVmConfig,
        policy: RuntimePolicy,
    ) -> Result<AgentId, KeylimeError> {
        let backend = ConfidentialVmBackend::provision(config, &self.vm_platform);
        self.add_agent(Agent::with_backend(backend), policy)
    }

    /// Builds, registers and enrols a machine attached to the verifier's
    /// shared policy store: the agent appraises against the store's
    /// current snapshot and tracks every published epoch. Prefer this
    /// over [`Cluster::add_machine`] for homogeneous fleets — enrolment
    /// costs one `Arc` clone instead of a full policy copy.
    ///
    /// # Errors
    ///
    /// Registration/transport failures.
    pub fn add_machine_shared(&mut self, config: MachineConfig) -> Result<AgentId, KeylimeError> {
        let machine = Machine::new(&self.manufacturer, config);
        self.add_agent_shared(Agent::new(machine))
    }

    /// Registers and enrols an existing agent attached to the shared
    /// policy store (see [`Cluster::add_machine_shared`]).
    ///
    /// # Errors
    ///
    /// Registration failures, or transport failures persisting past the
    /// retry budget.
    pub fn add_agent_shared(&mut self, agent: Agent) -> Result<AgentId, KeylimeError> {
        let (id, record) = self.register_with_retry(agent)?;
        self.verifier
            .add_agent_shared_with_identity(id.clone(), record.ak, record.identity);
        must_journal(self.journal_agent_snapshot(&id), "journal enrolment append");
        Ok(id)
    }

    /// Turns on crash-durable state journaling: every enrolment, policy
    /// publish and attestation round from here on is recorded in an
    /// append-only log (see [`crate::durable`]), and
    /// [`Cluster::recover_from_image`] can rebuild the verifier from any
    /// crash-truncated image of it. State that already exists — the
    /// current store epoch and every enrolled agent — is checkpointed
    /// immediately, so enabling late loses nothing.
    ///
    /// # Errors
    ///
    /// [`StorageError`] on journal-filesystem failures.
    pub fn enable_durability(&mut self) -> Result<(), StorageError> {
        let dir = Self::journal_dir();
        let mut journal = VerifierJournal::create(Vfs::with_standard_layout(), &dir)?;
        journal.checkpoint_base(
            self.verifier.current_epoch(),
            self.verifier.policy_store().policy(),
        )?;
        self.journal = Some(journal);
        for id in self.verifier.agent_ids() {
            self.journal_agent_snapshot(&id)?;
        }
        Ok(())
    }

    /// True when [`Cluster::enable_durability`] has been called.
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// The durability journal, when enabled — e.g. to take a crash image
    /// of its log ([`cia_storage::LogStore::crash_image`]).
    pub fn journal(&self) -> Option<&VerifierJournal> {
        self.journal.as_ref()
    }

    /// Where the cluster keeps its journal inside the journal filesystem.
    #[expect(clippy::expect_used, reason = "the path is a valid constant")]
    pub fn journal_dir() -> VfsPath {
        VfsPath::new(DEFAULT_JOURNAL_DIR).expect("constant journal path is valid")
    }

    /// Simulates the restart after a crash: rebuilds the verifier from
    /// `image` — a (possibly crash-truncated) journal filesystem — and
    /// swaps it in, replacing the journal with the reopened one. The
    /// scheduler, transport and agent processes are untouched (they model
    /// the *fleet*, which does not restart when the verifier does).
    /// Returns the in-flight round to resume, if the crash interrupted
    /// one — hand it to [`Cluster::attest_fleet_resume`].
    ///
    /// # Errors
    ///
    /// [`StorageError`] on unreadable journal records (torn tails are
    /// repaired, not errors).
    pub fn recover_from_image(&mut self, image: Vfs) -> Result<Option<ResumePlan>, StorageError> {
        let recovered =
            VerifierJournal::recover(image, &Self::journal_dir(), self.verifier.config())?;
        self.verifier = recovered.verifier;
        self.journal = Some(recovered.journal);
        Ok(recovered.resume)
    }

    /// Resumes a crashed round from its [`ResumePlan`]: agents acked
    /// before the crash are *not* re-attested — their persisted results
    /// are merged with the fresh results of everyone else, yielding the
    /// same report shape an uncrashed round would have produced. The
    /// round's audit seal and revocations cover only the freshly attested
    /// agents (the acked ones were recorded before the crash).
    pub fn attest_fleet_resume(&mut self, plan: &ResumePlan) -> RoundReport
    where
        T: Sync,
    {
        assert!(self.is_durable(), "attest_fleet_resume requires durability");
        // The resumed round is the full command list minus the acked
        // agents. Lanes still come from each agent's position in the
        // *full* enrolment order, so everyone left is re-polled over
        // exactly the lane the uncrashed round would have used.
        let acked = plan.acked_ids();
        let mut commands = scheduler::full_round(&self.verifier);
        commands.retain(|(id, _)| !acked.contains(id));
        let partial = self.run_commands(Some(plan.round), commands);
        let mut results = plan.acked.clone();
        results.extend(partial.results.iter().cloned());
        results.sort_by(|a, b| a.id.cmp(&b.id));
        RoundReport {
            results,
            // Health was counted over *every* enrolled record after the
            // resumed round — acked agents included — so it already
            // matches what the uncrashed round would have reported.
            health: partial.health,
            policy_epoch: partial.policy_epoch,
        }
    }

    /// Sim invariant: recovering from the journal right now must yield a
    /// verifier observably identical to the live one. Only meaningful
    /// between rounds (no round in flight). No-op when durability is off.
    ///
    /// # Errors
    ///
    /// A description of the first divergence found.
    pub fn check_durable_equivalence(&self) -> Result<(), String> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        if journal.last_started() != journal.last_committed() {
            return Err("durable-equivalence checked with a round in flight".to_string());
        }
        let recovered = VerifierJournal::recover(
            journal.log().vfs().clone(),
            journal.log().dir(),
            self.verifier.config(),
        )
        .map_err(|e| format!("journal recovery failed: {e:?}"))?;
        let twin = recovered.verifier;
        if twin.current_epoch() != self.verifier.current_epoch() {
            return Err(format!(
                "store epoch diverged: live {:?}, recovered {:?}",
                self.verifier.current_epoch(),
                twin.current_epoch()
            ));
        }
        if twin.policy_store().policy() != self.verifier.policy_store().policy() {
            return Err("shared policy content diverged after recovery".to_string());
        }
        if twin.agent_ids() != self.verifier.agent_ids() {
            return Err("enrolled agent set diverged after recovery".to_string());
        }
        for ((id, live), (_, rec)) in self.verifier.records().zip(twin.records()) {
            if live.state() != rec.state() {
                return Err(format!(
                    "agent {id} state diverged after recovery:\n live {:?}\n rec  {:?}",
                    live.state(),
                    rec.state()
                ));
            }
            if live.policy() != rec.policy() {
                return Err(format!("agent {id} policy content diverged after recovery"));
            }
        }
        Ok(())
    }

    /// Journals one agent's enrolment constants and current state — the
    /// write point for enrolments, durability enablement, and per-agent
    /// override pushes.
    fn journal_agent_snapshot(&mut self, id: &AgentId) -> Result<(), StorageError> {
        if let Some(journal) = self.journal.as_mut() {
            journal.record_enrolment(&self.verifier, id)?;
        }
        self.journal_agent_ack(id)
    }

    /// Journals one agent's current state outside any round — the write
    /// point for everything that moves a record sequentially
    /// ([`Cluster::attest`], [`Cluster::resolve`]). The ack is written
    /// under the last *committed* round, so it never masquerades as
    /// progress of an in-flight one.
    fn journal_agent_ack(&mut self, id: &AgentId) -> Result<(), StorageError> {
        let (Some(journal), Ok(record)) = (self.journal.as_mut(), self.verifier.record(id)) else {
            return Ok(());
        };
        // A synthetic ack carries the agent's current mutable state; its
        // result row is filler (round 0 / last-committed acks are never
        // part of a resume plan).
        let outcome = RoundOutcome::Verified { new_entries: 0 };
        let result = AgentRoundResult::new(id.clone(), record, 0, 0, 0, outcome);
        journal.record_agent_ack(journal.last_committed(), &result, record)
    }

    /// Appends the journal acks for one completed round: one per result
    /// row — the rows are sorted by agent id, so the journal's bytes are
    /// identical for any worker count — each from the agent's record as
    /// the round left it.
    #[expect(
        clippy::expect_used,
        reason = "the engine only reports enrolled agents"
    )]
    fn write_acks(
        journal: &mut VerifierJournal,
        verifier: &Verifier,
        round: u64,
        results: &[AgentRoundResult],
    ) {
        for result in results {
            let record = verifier
                .record(&result.id)
                .expect("the engine only reports enrolled agents");
            must_journal(
                journal.record_agent_ack(round, result, record),
                "journal ack append",
            );
        }
    }

    /// Sequential post-round bookkeeping. Durable attestation: the
    /// round's rows (already sorted by id) enter the audit chain as one
    /// seal, and each failed row's first alert is published on the
    /// revocation bus, so subscribed systems can react (drop
    /// connections, cordon, ...).
    fn commit_round_side_effects(&mut self, rows: Vec<AgentRoundResult>) {
        for row in &rows {
            if let RoundOutcome::Failed { alerts } = &row.outcome {
                if let Some(first) = alerts.first() {
                    let notice = self.revocation.emit(&row.id, row.day, first.kind.clone());
                    let key = self.revocation.public_key().clone();
                    self.revocation_bus.publish(&notice, &key);
                }
            }
        }
        self.audit.seal(rows);
    }

    /// Registers an agent with the verifier's retry budget and stores it;
    /// returns its id and registration record (AK plus proven backend
    /// identity) for enrolment. An id that is already enrolled is refused
    /// before the registrar sees it: ids derive from host names, and a
    /// second machine under one name would overwrite the first one's
    /// registrar and verifier records while both stayed in the fleet.
    fn register_with_retry(
        &mut self,
        mut agent: Agent,
    ) -> Result<(AgentId, RegistrationRecord), KeylimeError> {
        if self.registrar.record_for(agent.id()).is_some() {
            return Err(KeylimeError::Registration {
                reason: format!("agent `{}` is already enrolled", agent.id()),
            });
        }
        let max_retries = self.verifier.config().max_retries;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.registrar.register(&mut self.transport, &mut agent) {
                Ok(()) => break,
                Err(KeylimeError::Transport(e)) if e.is_retryable() && attempts <= max_retries => {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
        let id = agent.id().clone();
        let record = self
            .registrar
            .record_for(&id)
            .ok_or_else(|| KeylimeError::Registration {
                reason: format!("registrar lost the record for `{id}` right after registering it"),
            })?
            .clone();
        self.agents.push(agent);
        Ok((id, record))
    }

    /// Publishes a full replacement policy fleet-wide as a new epoch and
    /// swaps every shared agent's handle onto it (one `Arc` clone per
    /// agent, no policy copies). Records the push in the scheduler's
    /// metrics.
    pub fn publish_policy(&mut self, policy: RuntimePolicy) -> PolicyEpoch {
        #[expect(
            clippy::disallowed_methods,
            reason = "push-duration metering only: feeds FleetScheduler::record_policy_push, \
                      never control flow"
        )]
        let start = std::time::Instant::now();
        let epoch = self.verifier.publish_policy(policy);
        // A full publish applies no *delta* entries — the counter tracks
        // incremental merge work only.
        self.scheduler
            .record_policy_push(epoch, start.elapsed().as_nanos() as u64, 0);
        if let Some(journal) = self.journal.as_mut() {
            must_journal(
                journal.record_publish_full(epoch, self.verifier.policy_store().policy()),
                "journal policy publish",
            );
        }
        epoch
    }

    /// Publishes a generator delta fleet-wide as a new epoch: the store's
    /// snapshot is updated copy-on-write and every shared agent's handle
    /// swapped — total cost is O(delta), independent of fleet size.
    /// Records the push (duration and entry count) in the scheduler's
    /// metrics.
    pub fn publish_delta(&mut self, delta: &PolicyDelta) -> (PolicyEpoch, usize) {
        #[expect(
            clippy::disallowed_methods,
            reason = "push-duration metering only: feeds FleetScheduler::record_policy_push, \
                      never control flow"
        )]
        let start = std::time::Instant::now();
        let (epoch, applied) = self.verifier.publish_delta(delta);
        self.scheduler
            .record_policy_push(epoch, start.elapsed().as_nanos() as u64, applied as u64);
        if let Some(journal) = self.journal.as_mut() {
            must_journal(
                journal.record_publish_delta(epoch, delta),
                "journal delta publish",
            );
        }
        (epoch, applied)
    }

    /// The wire bytes one policy push costs: the serialized delta.
    pub fn policy_push_wire_bytes(&self, delta: &PolicyDelta) -> u64 {
        serde_json::to_string(delta).map_or(0, |s| s.len() as u64)
    }

    /// The shared policy store's active epoch.
    pub fn policy_epoch(&self) -> PolicyEpoch {
        self.verifier.current_epoch()
    }

    /// The enrolled agent ids, in enrolment order.
    pub fn agent_ids(&self) -> Vec<AgentId> {
        self.agents.iter().map(|a| a.id().clone()).collect()
    }

    /// Borrows an agent by id.
    pub fn agent(&self, id: &AgentId) -> Option<&Agent> {
        self.agents.iter().find(|a| a.id() == id)
    }

    /// Mutably borrows an agent by id (to act on its machine).
    pub fn agent_mut(&mut self, id: &AgentId) -> Option<&mut Agent> {
        self.agents.iter_mut().find(|a| a.id() == id)
    }

    /// Mutably borrows the whole agent pool, in enrolment order — how a
    /// [`crate::Federation`] built via
    /// [`crate::Federation::from_verifier`] keeps driving the machines
    /// this cluster enrolled.
    pub fn agents_mut(&mut self) -> &mut [Agent] {
        &mut self.agents
    }

    /// Splits the cluster into the two halves a federated round needs —
    /// the agent pool and the transport — in one call, so the borrows
    /// coexist: `fed.run_round(agents, transport)`.
    pub fn federation_parts(&mut self) -> (&mut [Agent], &T) {
        (&mut self.agents, &self.transport)
    }

    /// Polls one agent at its backend's current day.
    ///
    /// # Errors
    ///
    /// Unknown agent or transport failures.
    pub fn attest(&mut self, id: &AgentId) -> Result<AttestationOutcome, KeylimeError> {
        let idx = self
            .agents
            .iter()
            .position(|a| a.id() == id)
            .ok_or_else(|| KeylimeError::UnknownAgent { id: id.clone() })?;
        let agent = &mut self.agents[idx];
        let day = agent.day();
        let outcome = self.verifier.attest(&mut self.transport, agent, day);
        // Journaled before the error is looked at: a call the transport
        // dropped has still spent a nonce.
        must_journal(self.journal_agent_ack(id), "journal sequential ack");
        let outcome = outcome?;
        // One direct poll is a one-row round: one attempt, no backoff.
        let row_outcome = match outcome.clone() {
            AttestationOutcome::Verified { new_entries } => RoundOutcome::Verified { new_entries },
            AttestationOutcome::Failed { alerts } => RoundOutcome::Failed { alerts },
            AttestationOutcome::SkippedPaused => RoundOutcome::SkippedPaused,
        };
        let record = self.verifier.record(id)?;
        let row = AgentRoundResult::new(id.clone(), record, day, 1, 0, row_outcome);
        self.commit_round_side_effects(vec![row]);
        Ok(outcome)
    }

    /// Pushes a new runtime policy to one enrolled agent, making it a
    /// per-agent override.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn push_policy(&mut self, id: &AgentId, policy: RuntimePolicy) -> Result<(), KeylimeError> {
        self.verifier.update_policy(id, policy)?;
        // The agent is now an override: re-journal its enrolment (with
        // the new policy document embedded) and its current state, so a
        // recovery lands on the post-push view.
        must_journal(self.journal_agent_snapshot(id), "journal override push");
        Ok(())
    }

    /// One concurrent fleet round: every enrolled agent is attested by
    /// the scheduler's worker pool, with per-agent transport lanes,
    /// retry-with-backoff on dropped calls, and no early abort. After the
    /// parallel phase, the round is sealed into the audit chain and
    /// failures go to the revocation bus, sequentially in id order, so
    /// the durable record is deterministic regardless of worker
    /// interleaving.
    pub fn attest_fleet(&mut self) -> RoundReport
    where
        T: Sync,
    {
        let round = self.journal.as_ref().map(VerifierJournal::next_round);
        let commands = scheduler::full_round(&self.verifier);
        self.run_commands(round, commands)
    }

    /// The one fleet-round body: the round engine over `commands`, then
    /// the sequential side effects. With durability on, `round` is the
    /// journal round the run is recorded under, by the durable round
    /// protocol: stamp the start, run the engine, append one ack per
    /// result row from the post-round records, seal with the commit
    /// mark. A crash between any two appends leaves a clean resumable
    /// prefix.
    fn run_commands(&mut self, round: Option<u64>, commands: Vec<(AgentId, u64)>) -> RoundReport
    where
        T: Sync,
    {
        let mut journaled = self.journal.as_mut().zip(round);
        if let Some((journal, round)) = &mut journaled {
            must_journal(journal.begin_round(*round), "journal round start");
        }
        let report = self.scheduler.run_round_streamed(
            &mut self.verifier,
            self.agents.iter_mut(),
            &self.transport,
            std::iter::once(commands),
            |_| {},
        );
        if let Some((journal, round)) = journaled {
            Self::write_acks(journal, &self.verifier, round, &report.results);
            must_journal(journal.commit_round(round), "journal round commit");
        }
        self.commit_round_side_effects(report.results.clone());
        report
    }

    /// One federated fleet round: the cluster lends its agents and
    /// transport to `federation` (see [`Federation::run_round`]), then
    /// seals the merged fleet results into the audit chain and publishes
    /// failures on the revocation bus exactly as [`Cluster::attest_fleet`]
    /// would.
    ///
    /// The federation's shards — not this cluster's verifier — hold the
    /// live per-agent verifier state once rounds run through them, so a
    /// caller that federates should publish policy through the
    /// federation and read health from its reports. The cluster keeps
    /// owning the agents, machines, audit chain, and revocation bus.
    /// Federated rounds bypass the durability journal.
    pub fn attest_fleet_federated(&mut self, federation: &mut Federation) -> FederatedRoundReport
    where
        T: Sync,
    {
        let report = {
            let (agents, transport) = self.federation_parts();
            federation.run_round(agents, transport)
        };
        self.commit_round_side_effects(report.fleet.results.clone());
        report
    }

    /// Operator action: resolve a paused agent by skipping the offending
    /// entries (see [`Verifier::resolve_by_skipping`]).
    ///
    /// # Errors
    ///
    /// Unknown agent or transport failures.
    pub fn resolve(&mut self, id: &AgentId) -> Result<(), KeylimeError> {
        let idx = self
            .agents
            .iter()
            .position(|a| a.id() == id)
            .ok_or_else(|| KeylimeError::UnknownAgent { id: id.clone() })?;
        let resolved = self
            .verifier
            .resolve_by_skipping(&mut self.transport, &mut self.agents[idx]);
        must_journal(self.journal_agent_ack(id), "journal sequential ack");
        resolved
    }

    /// Status shortcut.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn status(&self, id: &AgentId) -> Result<AgentStatus, KeylimeError> {
        self.verifier.status(id)
    }

    /// Reachability-health shortcut.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn health(&self, id: &AgentId) -> Result<crate::verifier::AgentHealth, KeylimeError> {
        self.verifier.health(id)
    }

    /// Alerts shortcut.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::UnknownAgent`].
    pub fn alerts(&self, id: &AgentId) -> Result<&[Alert], KeylimeError> {
        self.verifier.alerts(id)
    }
}

/// Unwraps a journal append. The journal lives on the cluster's own
/// filesystem, so a failed append is a bug rather than an operational
/// condition: the cluster stops loudly instead of running on with a
/// journal that no longer replays to its state.
#[expect(
    clippy::panic,
    reason = "a cluster whose journal cannot be appended to must stop; see the doc comment"
)]
fn must_journal(res: Result<(), StorageError>, what: &str) {
    if let Err(err) = res {
        panic!("{what}: {err}");
    }
}
