//! The concurrent fleet attestation engine.
//!
//! One verifier polling a large fleet sequentially is the scalability
//! wall the paper's case study runs into: a slow or lossy agent stalls
//! everyone behind it, and a stop-on-failure pause (P2) silently starves
//! the rest of the round. [`FleetScheduler`] replaces the sequential
//! sweep with a worker pool:
//!
//! - a round is a list of poll commands, in batches; the calling thread
//!   matches each command of a batch to its verifier record and agent
//!   process, then deals the batch's jobs round-robin into one owned
//!   share per worker (`worker_count` of them, the calling thread among
//!   them) — no lock sits between the batch and the workers;
//! - each job gets its own deterministic transport *lane*
//!   ([`Transport::fork`]), so the faults an agent sees depend only on
//!   the fault plan, the round and the agent's lane
//!   ([`crate::chaos`]) — never on thread interleaving;
//! - dropped calls are retried with bounded exponential backoff
//!   ([`VerifierConfig::max_retries`], [`VerifierConfig::retry_backoff_ms`]);
//!   backoff is *recorded*, not slept, keeping rounds fast and
//!   reproducible;
//! - a round never aborts early: every agent produces exactly one
//!   [`AgentRoundResult`] — verified, failed, skipped or unreachable —
//!   so nothing is ever silently skipped;
//! - counters and latency histograms are one [`MetricsSnapshot`]: each
//!   worker counts into its own and returns it, with its result rows,
//!   through its join handle; the calling thread folds them into the
//!   engine's totals ([`FleetScheduler::snapshot`]) once per round.
//!
//! Combined with [`VerifierConfig::engine_default`] (continue-on-failure
//! on), this is the paper's §IV-C recommendation operationalised: the
//! fleet keeps attesting through failures instead of pausing on them.

use std::collections::BTreeMap;
use std::sync::{MutexGuard, PoisonError};
use std::time::Instant;

use cia_ima::TemplateHashMemo;
use cia_wire::Wire;
use serde::{Deserialize, Serialize};

use crate::agent::Agent;
use crate::backend::BackendKind;
use crate::error::KeylimeError;
use crate::ids::AgentId;
use crate::store::{PolicyEpoch, PolicyStore};
use crate::transport::Transport;
use crate::verifier::{
    AgentHealth, AgentRecord, Alert, AttestationOutcome, FetchedEvidence, HealthCounts, ReachClass,
    Verifier, VerifierConfig, WorkerScratch, Workers,
};

/// Number of log2 latency buckets (bucket i counts calls in
/// `[2^i, 2^(i+1))` nanoseconds; the last bucket is open-ended).
pub const LATENCY_BUCKETS: usize = 32;

/// Outcome counters for one backend family — a refinement of the
/// aggregate `verified`/`failed`/`unreachable` counters, never a
/// separate accounting (see [`MetricsSnapshot::backends_consistent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BackendCounts {
    /// Polls on this backend that verified cleanly.
    pub verified: u64,
    /// Polls on this backend that completed with alerts.
    pub failed: u64,
    /// Agents on this backend the engine could not reach (orphaned
    /// enrolments included).
    pub unreachable: u64,
}

impl BackendCounts {
    fn total(&self) -> u64 {
        self.verified + self.failed + self.unreachable
    }
}

/// Per-backend outcome splits for a heterogeneous fleet, keyed by
/// [`BackendKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PerBackendCounts {
    /// Agents attesting through the TPM+IMA backend.
    pub tpm_ima: BackendCounts,
    /// Agents attesting through the secure-world (TrustZone) backend.
    pub secure_world: BackendCounts,
    /// Agents attesting through the confidential-VM backend.
    pub confidential_vm: BackendCounts,
}

impl PerBackendCounts {
    fn for_kind_mut(&mut self, kind: BackendKind) -> &mut BackendCounts {
        match kind {
            BackendKind::TpmIma => &mut self.tpm_ima,
            BackendKind::SecureWorld => &mut self.secure_world,
            BackendKind::ConfidentialVm => &mut self.confidential_vm,
        }
    }

    /// The counters for one backend family.
    pub fn for_kind(&self, kind: BackendKind) -> BackendCounts {
        match kind {
            BackendKind::TpmIma => self.tpm_ima,
            BackendKind::SecureWorld => self.secure_world,
            BackendKind::ConfidentialVm => self.confidential_vm,
        }
    }
}

/// The fleet engine's counters: a point-in-time, wire-serializable
/// value ([`FleetScheduler::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Completed scheduler rounds.
    pub rounds: u64,
    /// Transport attempts, including retries.
    pub calls: u64,
    /// Retries performed after dropped calls.
    pub retries: u64,
    /// Calls that failed with a dropped request/response.
    pub drops: u64,
    /// Agents whose poll verified cleanly.
    pub verified: u64,
    /// Agents whose poll raised alerts.
    pub failed: u64,
    /// Agents skipped because stop-on-failure paused them.
    pub skipped_paused: u64,
    /// Agents the engine could not reach within the retry budget.
    pub unreachable: u64,
    /// Total alerts raised.
    pub alerts: u64,
    /// Enrolled ids with no agent process supplied; counted in
    /// `unreachable` too, but these consumed zero transport calls.
    pub orphaned: u64,
    /// Total (virtual) backoff scheduled, in milliseconds.
    pub backoff_ms: u64,
    /// Quarantined agents skipped without any transport call.
    pub quarantine_skips: u64,
    /// Quarantine re-probes issued (single-attempt polls).
    pub probes: u64,
    /// Health transitions into [`AgentHealth::Degraded`].
    pub to_degraded: u64,
    /// Health transitions into [`AgentHealth::Quarantined`].
    pub to_quarantined: u64,
    /// Health transitions into [`AgentHealth::Recovering`].
    pub to_recovering: u64,
    /// Health transitions into [`AgentHealth::Healthy`] — recoveries and
    /// degradations healed.
    pub to_healthy: u64,
    /// Log entries evaluated against runtime policies — the hot-path
    /// throughput numerator (`entries_evaluated / rounds` is per-round
    /// verification throughput).
    pub entries_evaluated: u64,
    /// Serialized bytes that crossed the transport, both directions,
    /// summed over every lane of every round.
    pub wire_bytes: u64,
    /// The active shared-store epoch at the last round or push — a gauge,
    /// not a counter, so it stays outside the conservation identity.
    pub policy_epoch: u64,
    /// Nanoseconds spent publishing policies/deltas fleet-wide. With the
    /// shared store this is flat in fleet size (one snapshot swap plus
    /// one `Arc` clone per agent).
    pub policy_push_ns: u64,
    /// Entry operations (adds, removals, retirements) applied through
    /// [`crate::PolicyDelta`]s — the O(changed entries) distribution
    /// numerator the full-document push never had.
    pub delta_entries_applied: u64,
    /// Per-backend splits of `verified`/`failed`/`unreachable`. Absent
    /// in snapshots serialized before heterogeneous fleets existed, so
    /// deserialization defaults it to all-zero.
    #[serde(default)]
    pub per_backend: PerBackendCounts,
    /// Log2 call-latency histogram: bucket i counts calls taking
    /// `[2^i, 2^(i+1))` nanoseconds.
    pub latency_ns_buckets: Vec<u64>,
}

impl MetricsSnapshot {
    fn record_latency_ns(&mut self, nanos: u64) {
        let bucket = (63 - nanos.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        if self.latency_ns_buckets.len() < LATENCY_BUCKETS {
            self.latency_ns_buckets.resize(LATENCY_BUCKETS, 0);
        }
        self.latency_ns_buckets[bucket] += 1;
    }

    /// Approximate p-th latency percentile (0–100) in nanoseconds, from
    /// the histogram's bucket upper bounds. `None` when no samples.
    pub fn latency_percentile_ns(&self, p: f64) -> Option<u64> {
        let total: u64 = self.latency_ns_buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * total as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0u64;
        for (i, count) in self.latency_ns_buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(1u64.checked_shl(i as u32 + 1).unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Fraction of calls that were retries (0 when no calls).
    pub fn retry_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.retries as f64 / self.calls as f64
        }
    }

    /// The engine's conservation invariant: every transport call is
    /// accounted for by exactly one terminal outcome or one retry, and
    /// orphaned enrolments (unreachable with zero calls) balance out.
    ///
    /// ```text
    /// calls + orphaned == verified + failed + skipped_paused
    ///                   + unreachable + retries
    /// ```
    ///
    /// Quarantine skips consume no calls and are tracked separately, so
    /// they do not appear in the identity; likewise the policy-push
    /// telemetry (`policy_epoch` gauge, `policy_push_ns`,
    /// `delta_entries_applied`), which never spends transport calls.
    /// Holds across any number of rounds and any drop interleaving.
    pub fn is_conserved(&self) -> bool {
        self.calls + self.orphaned
            == self.verified + self.failed + self.skipped_paused + self.unreachable + self.retries
    }

    /// True when the per-backend splits sum back to the aggregate
    /// outcome counters they refine. The splits deliberately stay
    /// outside [`MetricsSnapshot::is_conserved`] — they are a breakdown
    /// of existing terms, not new ones — so this is the companion check
    /// that the breakdown itself lost nothing. Trivially true for
    /// snapshots deserialized from before the splits existed only when
    /// the aggregates are zero too, which is the honest answer.
    pub fn backends_consistent(&self) -> bool {
        let kinds = [
            self.per_backend.tpm_ima,
            self.per_backend.secure_world,
            self.per_backend.confidential_vm,
        ];
        kinds.iter().map(|c| c.verified).sum::<u64>() == self.verified
            && kinds.iter().map(|c| c.failed).sum::<u64>() == self.failed
            && kinds.iter().map(|c| c.unreachable).sum::<u64>() == self.unreachable
            && kinds.iter().map(|c| c.total()).sum::<u64>()
                == self.verified + self.failed + self.unreachable
    }

    /// Component-wise sum of two snapshots — how a federation folds
    /// per-shard registries into the fleet-level view. Every counter
    /// adds (so a federated fleet's `rounds` counts *shard* rounds);
    /// latency buckets add element-wise; the `policy_epoch` gauge takes
    /// the max, since all shards adopt from one store and the freshest
    /// gauge is the store's epoch. The conservation identity is linear
    /// in every term it mentions, so merging conserved snapshots yields
    /// a conserved snapshot; [`MetricsSnapshot::backends_consistent`]
    /// is preserved the same way.
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let merge_backend = |a: BackendCounts, b: BackendCounts| BackendCounts {
            verified: a.verified + b.verified,
            failed: a.failed + b.failed,
            unreachable: a.unreachable + b.unreachable,
        };
        let buckets = self
            .latency_ns_buckets
            .len()
            .max(other.latency_ns_buckets.len());
        let latency_ns_buckets = (0..buckets)
            .map(|i| {
                self.latency_ns_buckets.get(i).copied().unwrap_or(0)
                    + other.latency_ns_buckets.get(i).copied().unwrap_or(0)
            })
            .collect();
        MetricsSnapshot {
            rounds: self.rounds + other.rounds,
            calls: self.calls + other.calls,
            retries: self.retries + other.retries,
            drops: self.drops + other.drops,
            verified: self.verified + other.verified,
            failed: self.failed + other.failed,
            skipped_paused: self.skipped_paused + other.skipped_paused,
            unreachable: self.unreachable + other.unreachable,
            alerts: self.alerts + other.alerts,
            orphaned: self.orphaned + other.orphaned,
            backoff_ms: self.backoff_ms + other.backoff_ms,
            quarantine_skips: self.quarantine_skips + other.quarantine_skips,
            probes: self.probes + other.probes,
            to_degraded: self.to_degraded + other.to_degraded,
            to_quarantined: self.to_quarantined + other.to_quarantined,
            to_recovering: self.to_recovering + other.to_recovering,
            to_healthy: self.to_healthy + other.to_healthy,
            entries_evaluated: self.entries_evaluated + other.entries_evaluated,
            wire_bytes: self.wire_bytes + other.wire_bytes,
            policy_epoch: self.policy_epoch.max(other.policy_epoch),
            policy_push_ns: self.policy_push_ns + other.policy_push_ns,
            delta_entries_applied: self.delta_entries_applied + other.delta_entries_applied,
            per_backend: PerBackendCounts {
                tpm_ima: merge_backend(self.per_backend.tpm_ima, other.per_backend.tpm_ima),
                secure_world: merge_backend(
                    self.per_backend.secure_world,
                    other.per_backend.secure_world,
                ),
                confidential_vm: merge_backend(
                    self.per_backend.confidential_vm,
                    other.per_backend.confidential_vm,
                ),
            },
            latency_ns_buckets,
        }
    }
}

/// The terminal outcome of one agent's slot in a round. Serializable:
/// the durability journal persists each agent's result as its ack
/// record, and a recovered verifier replays them verbatim.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub enum RoundOutcome {
    /// The poll verified cleanly.
    Verified {
        /// Log entries processed.
        new_entries: usize,
    },
    /// The poll completed and raised alerts.
    Failed {
        /// The alerts raised.
        alerts: Vec<Alert>,
    },
    /// Stop-on-failure has the agent paused; nothing was requested.
    SkippedPaused,
    /// The agent is quarantined and its re-probe is not due yet; no
    /// transport call was spent ([`VerifierConfig::quarantine_enabled`]).
    SkippedQuarantined {
        /// Rounds until the next re-probe.
        next_probe_in: u32,
    },
    /// The agent could not be reached within the retry budget, or
    /// returned a non-retryable error.
    Unreachable {
        /// Description of the final error.
        reason: String,
    },
}

/// One agent's result in a scheduler round. Every enrolled agent gets
/// exactly one — unreachable agents are reported, never dropped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub struct AgentRoundResult {
    /// The agent.
    pub id: AgentId,
    /// The attestation backend the verifier appraised this agent
    /// against (the registrar-proven family, not what the evidence
    /// claimed).
    pub backend: BackendKind,
    /// The simulation day the poll ran at (the agent's backend clock).
    pub day: u32,
    /// Transport attempts spent on this agent (1 = no retries).
    pub attempts: u32,
    /// Total backoff scheduled for this agent, in milliseconds.
    pub backoff_ms: u64,
    /// The shared-store epoch the agent held when its slot finished —
    /// the epoch it appraised against (stale for quarantined agents
    /// pinned on what they last acknowledged). For override agents this
    /// is only the epoch current when the override was set — they never
    /// appraise against store snapshots, which `shared_policy` records.
    pub policy_epoch: PolicyEpoch,
    /// True when the agent follows the shared store; false for per-agent
    /// overrides, which [`RoundReport::epoch_converged`] excludes.
    pub shared_policy: bool,
    /// What happened.
    pub outcome: RoundOutcome,
}

impl AgentRoundResult {
    /// The row for `id`'s record as it stands: its enrolment-proven
    /// backend (not whatever the wire tag claimed), and the epoch and
    /// store membership the record holds now.
    pub(crate) fn new(
        id: AgentId,
        record: &AgentRecord,
        day: u32,
        attempts: u32,
        backoff_ms: u64,
        outcome: RoundOutcome,
    ) -> Self {
        AgentRoundResult {
            id,
            backend: record.backend_identity().kind(),
            day,
            attempts,
            backoff_ms,
            policy_epoch: record.state.policy_epoch,
            shared_policy: record.state.shared_policy,
            outcome,
        }
    }
}

/// The outcome of one concurrent fleet round, ordered by agent id.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundReport {
    /// One entry per enrolled agent, sorted by id.
    pub results: Vec<AgentRoundResult>,
    /// Per-state health counts over every enrolled agent, taken after
    /// the round's transitions were applied.
    pub health: HealthCounts,
    /// The shared-store epoch that was active for this round.
    pub policy_epoch: PolicyEpoch,
}

impl RoundReport {
    /// Number of cleanly verified agents.
    pub fn verified_count(&self) -> usize {
        self.count(|o| matches!(o, RoundOutcome::Verified { .. }))
    }

    /// Number of agents that completed with alerts.
    pub fn failed_count(&self) -> usize {
        self.count(|o| matches!(o, RoundOutcome::Failed { .. }))
    }

    /// Number of quarantined agents skipped on the re-probe schedule.
    pub fn quarantine_skipped_count(&self) -> usize {
        self.count(|o| matches!(o, RoundOutcome::SkippedQuarantined { .. }))
    }

    /// Number of agents the engine could not reach.
    pub fn unreachable_count(&self) -> usize {
        self.count(|o| matches!(o, RoundOutcome::Unreachable { .. }))
    }

    /// Number of enrolled agents appraised against `kind` this round.
    pub fn backend_count(&self, kind: BackendKind) -> usize {
        self.results.iter().filter(|r| r.backend == kind).count()
    }

    /// Number of cleanly verified agents on `kind`.
    pub fn verified_count_for(&self, kind: BackendKind) -> usize {
        self.results
            .iter()
            .filter(|r| r.backend == kind)
            .filter(|r| matches!(r.outcome, RoundOutcome::Verified { .. }))
            .count()
    }

    /// Number of agents on `kind` that completed with alerts.
    pub fn failed_count_for(&self, kind: BackendKind) -> usize {
        self.results
            .iter()
            .filter(|r| r.backend == kind)
            .filter(|r| matches!(r.outcome, RoundOutcome::Failed { .. }))
            .count()
    }

    /// Total retries spent this round.
    pub fn total_retries(&self) -> u64 {
        self.results
            .iter()
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum()
    }

    /// True when every agent's poll actually completed (nobody was
    /// unreachable). Skipped-paused agents count as reached: the engine
    /// made the decision, it did not lose the agent.
    pub fn all_reached(&self) -> bool {
        self.unreachable_count() == 0
    }

    /// True when every *shared-store* agent finished the round holding
    /// the round's active epoch. Override agents are excluded — they
    /// never appraise against store snapshots, so their stamped epoch
    /// says nothing about adoption. A quarantined shared agent pinned on
    /// an older epoch legitimately reports `false` here.
    pub fn epoch_converged(&self) -> bool {
        self.results
            .iter()
            .filter(|r| r.shared_policy)
            .all(|r| r.policy_epoch == self.policy_epoch)
    }

    fn count(&self, pred: impl Fn(&RoundOutcome) -> bool) -> usize {
        self.results.iter().filter(|r| pred(&r.outcome)).count()
    }
}

/// One unit of work: a command matched to its verifier record and,
/// unless it is orphaned, its agent process.
struct Job<'a> {
    id: AgentId,
    lane: u64,
    record: &'a mut AgentRecord,
    agent: Option<&'a mut Agent>,
}

/// The engine's counters, the workspace's one lock: the benchmark's
/// probes share a scheduler by `&` with `serve_round` on a scoped thread,
/// and `&mut self` waits on the benchmark's contract (ROADMAP item 2).
#[expect(
    clippy::disallowed_types,
    reason = "merged once per round or push, off the hot path; no guard outlives the method \
              that takes it, and none is held across another lock or a call (ROADMAP item 2)"
)]
type Totals = std::sync::Mutex<MetricsSnapshot>;

/// The concurrent fleet attestation engine. See the module docs.
#[derive(Debug)]
pub struct FleetScheduler {
    /// The engine's counters, accumulated across rounds. The hot path
    /// never touches them — every worker counts into a snapshot of its
    /// own, and the thread that ran the round merges them in, with
    /// [`MetricsSnapshot::merged`], when the round ends.
    totals: Totals,
}

impl Default for FleetScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetScheduler {
    /// Creates an engine with zeroed counters.
    pub fn new() -> Self {
        let zeroed = MetricsSnapshot {
            latency_ns_buckets: vec![0; LATENCY_BUCKETS],
            ..MetricsSnapshot::default()
        };
        FleetScheduler {
            totals: Totals::new(zeroed),
        }
    }

    /// The counters, poison recovered: the conserved ones change only by
    /// one assignment of a merged snapshot, so a panic cannot unbalance them.
    fn totals(&self) -> MutexGuard<'_, MetricsSnapshot> {
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Merges one finished round's counts into the totals and moves the
    /// epoch gauge to the epoch the round ran under.
    fn fold_round(&self, counts: &MetricsSnapshot, epoch: PolicyEpoch) {
        let mut totals = self.totals();
        *totals = totals.merged(counts);
        totals.rounds += 1;
        totals.policy_epoch = epoch.as_u64();
    }

    /// Records one fleet-wide policy push: the epoch gauge moves to
    /// `epoch`, and the push duration and delta entry operations (0 for a
    /// full publish) accumulate.
    pub fn record_policy_push(&self, epoch: PolicyEpoch, push_ns: u64, delta_entries: u64) {
        let mut totals = self.totals();
        totals.policy_epoch = epoch.as_u64();
        totals.policy_push_ns += push_ns;
        totals.delta_entries_applied += delta_entries;
    }

    /// The counters so far, as a serializable value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.totals().clone()
    }

    /// Runs one concurrent attestation round over every enrolled agent.
    ///
    /// `agents` supplies the agent processes; each is matched to its
    /// verifier record by id. Enrolled agents without a matching process
    /// are reported [`RoundOutcome::Unreachable`] — never silently
    /// skipped. Agent processes that are not enrolled are ignored.
    ///
    /// Concurrency is bounded by [`VerifierConfig::worker_count`]; the
    /// per-agent verdicts are independent of worker interleaving because
    /// every agent's transport lane and verifier record are its own.
    pub fn run_round<T>(
        &self,
        verifier: &mut Verifier,
        agents: &mut [Agent],
        transport: &T,
    ) -> RoundReport
    where
        T: Transport + Sync,
    {
        let commands = full_round(verifier);
        self.run_round_streamed(
            verifier,
            agents.iter_mut(),
            transport,
            std::iter::once(commands),
            |_| {},
        )
    }

    /// The round engine: every way of running a round — a full round, a
    /// resumed one, a shard's slice of a federated round, a wire round —
    /// is this function fed a different list of `(agent id, lane)` poll
    /// commands, in batches.
    ///
    /// - `batches` defines the round's extent. The calling thread takes
    ///   one batch at a time, matches each command to its record and
    ///   agent process, and attests the batch on the worker pool before
    ///   it takes the next, so a wire server can hand in the live
    ///   `Poll` stream. Enrolled records that receive no command produce
    ///   no row and are not touched; commands naming un-enrolled ids, and
    ///   repeats of an id claimed earlier in the round (in any batch),
    ///   are ignored. An in-process round is one batch.
    /// - The *lane* is the transport lane ([`Transport::fork`]) the agent
    ///   is polled over. It is the caller's to choose because it must not
    ///   depend on the list: every builder takes it from the agent's
    ///   position in the full sorted enrolment order, so the fault stream
    ///   an agent sees is the same whichever list it arrives in.
    /// - `agents` is any iterator of agent processes, so a shard can run
    ///   over the subset of a fleet the ring placed on it.
    /// - `on_batch` is called on the calling thread once per batch, with
    ///   that batch's rows, once they are all attested — the write point
    ///   for wire result frames. The rows include orphaned commands (an
    ///   enrolled record whose agent process is missing): their row
    ///   reports [`RoundOutcome::Unreachable`] and their record is
    ///   unchanged. Nothing touches a record between its row and the
    ///   engine's return, so a caller that wants the post-round state
    ///   (the journal) reads the record itself afterwards.
    pub(crate) fn run_round_streamed<'e, T>(
        &self,
        verifier: &mut Verifier,
        agents: impl Iterator<Item = &'e mut Agent>,
        transport: &T,
        batches: impl IntoIterator<Item = Vec<(AgentId, u64)>>,
        mut on_batch: impl FnMut(&[AgentRoundResult]),
    ) -> RoundReport
    where
        T: Transport + Sync,
    {
        let (config, store, records, (own, helpers)) = verifier.scheduler_view();
        let mut results = Vec::new();
        let mut round_counts = MetricsSnapshot::default();
        {
            // A command claims its record and — unless it is orphaned —
            // its agent process for the rest of the round. Commands for
            // un-enrolled ids and repeats of a claimed id find no record
            // and fall out here.
            let mut unclaimed: BTreeMap<&AgentId, (&mut AgentRecord, Option<&mut Agent>)> = records
                .iter_mut()
                .map(|(id, record)| (id, (record, None)))
                .collect();
            for agent in agents {
                if let Some((_, process)) = unclaimed.get_mut(agent.id()) {
                    *process = Some(agent);
                }
            }
            for batch in batches {
                let jobs = batch.into_iter().filter_map(|(id, lane)| {
                    let (record, agent) = unclaimed.remove(&id)?;
                    Some(Job {
                        id,
                        lane,
                        record,
                        agent,
                    })
                });
                let workers = (&mut *own, &mut *helpers);
                let (rows, counts) =
                    attest_batch(&config, &store, transport, jobs.collect(), workers);
                on_batch(&rows);
                results.extend(rows);
                round_counts = round_counts.merged(&counts);
            }
        }
        results.sort_by(|a, b| a.id.cmp(&b.id));
        self.fold_round(&round_counts, store.epoch());

        let mut health = HealthCounts::default();
        for record in records.values() {
            health.count(record.state.health);
        }
        RoundReport {
            results,
            health,
            policy_epoch: store.epoch(),
        }
    }
}

/// Attests one batch of claimed jobs on `worker_count` workers — the
/// calling thread and scoped helper threads, never more than there are
/// jobs or helper scratch — and returns the batch's rows, in completion
/// order, and counts. The jobs are dealt into one owned share per worker
/// before any worker starts ([`deal`]), so which worker sees which agent
/// depends only on the command list. Each worker folds through its own
/// template-hash memo and encodes through its own wire buffer: `workers`
/// is the calling thread's scratch, then the helpers'.
fn attest_batch<T: Transport + Sync>(
    config: &VerifierConfig,
    store: &PolicyStore,
    transport: &T,
    jobs: Vec<Job<'_>>,
    (own, helpers): Workers<'_>,
) -> (Vec<AgentRoundResult>, MetricsSnapshot) {
    let workers = config.worker_count.min(jobs.len()).min(helpers.len() + 1);
    let work = |share: Vec<Job<'_>>, scratch: &mut WorkerScratch| {
        let mut counts = MetricsSnapshot::default();
        let memo = &mut scratch.memo;
        let attest = |job| attest_with_retry(config, store, transport, job, &mut counts, memo);
        let rows: Vec<_> = scratch
            .wire
            .lend(|| share.into_iter().map(attest).collect());
        (rows, counts)
    };
    let mut shares = deal(jobs, workers).into_iter();
    let own_share = shares.next().unwrap_or_default();
    std::thread::scope(|scope| {
        let work = &work;
        // `deal` made at most one share per helper, so the zip drops none.
        let spawned: Vec<_> = (shares.zip(helpers))
            .map(|(share, scratch)| scope.spawn(move || work(share, scratch)))
            .collect();
        let (mut rows, mut counts) = work(own_share, own);
        for worker in spawned {
            match worker.join() {
                Ok((more, more_counts)) => {
                    rows.extend(more);
                    counts = counts.merged(&more_counts);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        (rows, counts)
    })
}

/// Deals `jobs` round-robin into `shares` owned shares (at least one):
/// job `i` goes to share `i % shares`, in order. Every job lands in
/// exactly one share.
fn deal<J>(jobs: Vec<J>, shares: usize) -> Vec<Vec<J>> {
    let shares = shares.max(1);
    let per_share = jobs.len().div_ceil(shares);
    let mut dealt: Vec<Vec<J>> = (0..shares).map(|_| Vec::with_capacity(per_share)).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        dealt[i % shares].push(job);
    }
    dealt
}

/// The command list of a full round: every enrolled id, its lane its
/// position in the sorted enrolment order — so a round's fault pattern
/// is a pure function of (fault plan, round, membership).
pub(crate) fn full_round(verifier: &Verifier) -> Vec<(AgentId, u64)> {
    verifier.agent_ids().into_iter().zip(0u64..).collect()
}

/// The row for an orphaned command — an enrolled record whose agent
/// process is missing: unreachable at zero transport calls, the record
/// left exactly as it was.
fn orphan_row(id: AgentId, record: &AgentRecord, counts: &mut MetricsSnapshot) -> AgentRoundResult {
    let backend = record.backend_identity().kind();
    counts.unreachable += 1;
    counts.per_backend.for_kind_mut(backend).unreachable += 1;
    counts.orphaned += 1;
    let reason = "no agent process supplied for enrolled id".to_string();
    AgentRoundResult::new(id, record, 0, 0, 0, RoundOutcome::Unreachable { reason })
}

/// Drives one agent's poll to a terminal outcome over its own transport
/// lane: quarantine gating, the quote fetch with bounded exponential
/// backoff around dropped calls, then appraisal of whatever evidence
/// came back. An orphaned job gets its [`orphan_row`]. Never panics,
/// never loses the agent. Latency metering covers the fetch — the wire
/// round-trip — not the appraisal CPU time.
fn attest_with_retry<T: Transport>(
    config: &VerifierConfig,
    store: &PolicyStore,
    transport: &T,
    mut job: Job<'_>,
    counts: &mut MetricsSnapshot,
    memo: &mut TemplateHashMemo,
) -> AgentRoundResult {
    let Some(agent) = job.agent.take() else {
        return orphan_row(job.id, job.record, counts);
    };
    let transport = &mut transport.fork(job.lane);
    let day = agent.day();
    let backend = job.record.backend_identity().kind();
    let mut attempts = 0u32;
    let mut backoff_ms = 0u64;

    // Quarantine gate: a quarantined agent is polled only when its
    // re-probe is due; otherwise the round costs zero transport calls.
    // The probe itself gets a single attempt — no retry budget — so a
    // still-dead agent costs one call instead of 1 + max_retries.
    let mut retry_budget = config.max_retries;
    if config.quarantine_enabled && job.record.state.health == AgentHealth::Quarantined {
        if let Some(next_probe_in) = job.record.tick_reprobe() {
            counts.quarantine_skips += 1;
            let outcome = RoundOutcome::SkippedQuarantined { next_probe_in };
            return AgentRoundResult::new(job.id.clone(), job.record, day, 0, 0, outcome);
        }
        counts.probes += 1;
        retry_budget = 0;
    }

    let outcome = loop {
        attempts += 1;
        counts.calls += 1;
        #[expect(
            clippy::disallowed_methods,
            reason = "latency metering only: feeds MetricsSnapshot histograms, never a verdict \
                      or anything the sim replays"
        )]
        let start = Instant::now();
        let result = Verifier::fetch_evidence(config, store, job.record, &job.id, transport, agent);
        counts.record_latency_ns(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);

        let error = match result {
            Ok(FetchedEvidence::Paused) => {
                counts.skipped_paused += 1;
                // Nothing was requested: no reachability evidence, so
                // health stays as it was.
                break RoundOutcome::SkippedPaused;
            }
            Ok(FetchedEvidence::Quote { resp, nonce }) => {
                break appraise_fetched(config, counts, &mut job, &resp, &nonce, day, memo);
            }
            Err(e) => e,
        };

        let retryable = matches!(&error, KeylimeError::Transport(t) if t.is_retryable());
        if retryable {
            counts.drops += 1;
        }
        if !retryable || attempts > retry_budget {
            counts.unreachable += 1;
            counts.per_backend.for_kind_mut(backend).unreachable += 1;
            update_health(job.record, ReachClass::Unreachable, config, counts);
            let reason = error.to_string();
            break RoundOutcome::Unreachable { reason };
        }
        counts.retries += 1;
        // Backoff is recorded, not slept: the schedule is part of the
        // engine's observable behaviour (and tested), but simulated
        // rounds should not wait out wall-clock time.
        let backoff = config.backoff_for_attempt(attempts).as_millis() as u64;
        backoff_ms += backoff;
        counts.backoff_ms += backoff;
    };
    // The lane is fresh per job, so its byte total is exactly this
    // agent's round traffic.
    counts.wire_bytes += transport.wire_bytes();
    AgentRoundResult::new(job.id, job.record, day, attempts, backoff_ms, outcome)
}

/// Appraises fetched evidence, applies the state it leaves, counts the
/// verdict, and applies the health transition.
fn appraise_fetched(
    config: &VerifierConfig,
    counts: &mut MetricsSnapshot,
    job: &mut Job<'_>,
    resp: &crate::agent::QuoteResponse,
    nonce: &[u8],
    day: u32,
    memo: &mut TemplateHashMemo,
) -> RoundOutcome {
    let backend = job.record.backend_identity().kind();
    let appraisal = Verifier::appraise(config, job.record, resp, nonce, &job.id, day, memo);
    job.record.state = appraisal.next;
    counts.entries_evaluated += appraisal.entries_evaluated;
    match appraisal.outcome {
        AttestationOutcome::Verified { new_entries } => {
            counts.verified += 1;
            counts.per_backend.for_kind_mut(backend).verified += 1;
            update_health(job.record, ReachClass::Verified, config, counts);
            RoundOutcome::Verified { new_entries }
        }
        AttestationOutcome::Failed { alerts } => {
            counts.failed += 1;
            counts.per_backend.for_kind_mut(backend).failed += 1;
            counts.alerts += alerts.len() as u64;
            update_health(job.record, ReachClass::ReachedNotVerified, config, counts);
            RoundOutcome::Failed { alerts }
        }
        // Appraisal never pauses — the paused check lives in the fetch
        // half — but the match stays total.
        AttestationOutcome::SkippedPaused => {
            counts.skipped_paused += 1;
            RoundOutcome::SkippedPaused
        }
    }
}

/// Applies one round's terminal outcome to the agent's health machine
/// and counts the transition, if any.
fn update_health(
    record: &mut AgentRecord,
    class: ReachClass,
    config: &VerifierConfig,
    counts: &mut MetricsSnapshot,
) {
    let before = record.state.health;
    let after = record.apply_health(class, config);
    if before != after {
        *match after {
            AgentHealth::Healthy => &mut counts.to_healthy,
            AgentHealth::Degraded => &mut counts.to_degraded,
            AgentHealth::Quarantined => &mut counts.to_quarantined,
            AgentHealth::Recovering => &mut counts.to_recovering,
        } += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_result(id: &str, epoch: PolicyEpoch, shared_policy: bool) -> AgentRoundResult {
        AgentRoundResult {
            id: AgentId::from(id),
            backend: BackendKind::TpmIma,
            day: 0,
            attempts: 1,
            backoff_ms: 0,
            policy_epoch: epoch,
            shared_policy,
            outcome: RoundOutcome::Verified { new_entries: 0 },
        }
    }

    /// Regression (review finding): an override agent stamped with the
    /// active epoch must not count as converged — it never appraises
    /// against the shared snapshot. A lagging shared agent still breaks
    /// convergence.
    #[test]
    fn epoch_converged_reflects_shared_store_adoption_only() {
        let active = PolicyEpoch::ZERO.next().next();
        let stale = PolicyEpoch::ZERO.next();
        let mut report = RoundReport {
            results: vec![
                round_result("shared-current", active, true),
                round_result("override-at-active-epoch", active, false),
                round_result("override-stale", stale, false),
            ],
            health: HealthCounts::default(),
            policy_epoch: active,
        };
        assert!(
            report.epoch_converged(),
            "override epochs must not enter the convergence signal"
        );
        report
            .results
            .push(round_result("shared-lagging", stale, true));
        assert!(
            !report.epoch_converged(),
            "a lagging shared agent breaks it"
        );
    }

    /// The engine's orphan contract: a command for an enrolled id with
    /// no agent process yields one `Unreachable` row, handed to the batch
    /// callback exactly once, and the record is left exactly as it was —
    /// whichever worker pulls it, and however often the list names the
    /// id. The repeat arrives in a later batch than the first command, so
    /// the claim has to outlive the batch that made it.
    #[test]
    fn orphaned_command_is_observed_once_and_its_record_is_unchanged() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let ak = cia_crypto::KeyPair::generate(&mut rng).verifying;
        let id = AgentId::from("orphan");
        for worker_count in [1usize, 4] {
            let config = VerifierConfig {
                worker_count,
                ..VerifierConfig::engine_default()
            };
            let mut verifier = Verifier::new(config);
            verifier.add_agent_shared(id.clone(), ak.clone());
            let before = verifier.export_agent_state(&id).unwrap();

            let scheduler = FleetScheduler::new();
            let mut observed = Vec::new();
            let report = scheduler.run_round_streamed(
                &mut verifier,
                std::iter::empty(),
                &crate::transport::ReliableTransport::new(),
                [
                    vec![(id.clone(), 0), (AgentId::from("not-enrolled"), 1)],
                    vec![(id.clone(), 2)],
                ],
                |rows| observed.push(rows.to_vec()),
            );

            assert_eq!(
                report.results.len(),
                1,
                "{worker_count} workers: un-enrolled and duplicate commands are ignored"
            );
            assert!(matches!(
                report.results[0].outcome,
                RoundOutcome::Unreachable { .. }
            ));
            assert_eq!(report.results[0].attempts, 0, "an orphan spends no call");
            assert_eq!(
                observed,
                [report.results.clone(), Vec::new()],
                "{worker_count} workers: one callback per batch, the repeat answered by none"
            );
            assert_eq!(verifier.export_agent_state(&id).unwrap(), before);
            let snap = scheduler.snapshot();
            assert_eq!((snap.orphaned, snap.unreachable, snap.calls), (1, 1, 0));
            assert_eq!(snap.rounds, 1);
            assert!(snap.is_conserved());
        }
    }

    /// The split deals every command to exactly one worker: one row per
    /// command, whatever the worker count, orphans included. As many
    /// workers run as there are shares, never more than there are jobs,
    /// and each running worker's wire buffer comes back to the verifier
    /// at the capacity it grew to, so the next round's workers start warm.
    #[test]
    fn the_split_gives_every_job_one_row_and_every_share_a_worker() {
        use cia_os::{Machine, MachineConfig};
        use cia_tpm::Manufacturer;
        use rand::SeedableRng;

        let manufacturer = Manufacturer::generate(&mut rand::rngs::StdRng::seed_from_u64(23));
        // (commands, workers, commands with no agent process)
        for (jobs, worker_count, orphans) in [(5, 2, 0), (5, 3, 0), (1, 4, 0), (5, 3, 2)] {
            let config = VerifierConfig {
                worker_count,
                ..VerifierConfig::engine_default()
            };
            let mut verifier = Verifier::new(config);
            let mut agents: Vec<Agent> = (0..jobs as u64)
                .map(|i| {
                    let machine = MachineConfig {
                        hostname: format!("node-{i}"),
                        seed: 230 + i,
                        ..MachineConfig::default()
                    };
                    let agent = Agent::new(Machine::new(&manufacturer, machine));
                    let ak = agent.machine().tpm.ak_public().unwrap().clone();
                    verifier.add_agent_shared(agent.id().clone(), ak);
                    agent
                })
                .collect();
            agents.truncate(jobs - orphans);
            let case = format!("{jobs} jobs, {worker_count} workers, {orphans} orphaned");

            let scheduler = FleetScheduler::new();
            let transport = crate::transport::ReliableTransport::new();
            let capacities = |verifier: &mut Verifier| -> Vec<usize> {
                let (own, helpers) = verifier.scheduler_view().3;
                let workers = std::iter::once(&*own).chain(helpers.iter());
                workers.map(|worker| worker.wire.capacity()).collect()
            };
            let report = scheduler.run_round(&mut verifier, &mut agents, &transport);
            let ids: BTreeMap<&AgentId, usize> = report
                .results
                .iter()
                .map(|row| (&row.id, row.attempts as usize))
                .collect();
            assert_eq!((report.results.len(), ids.len()), (jobs, jobs), "{case}");
            let unpolled = ids.values().filter(|&&attempts| attempts == 0).count();
            assert_eq!(unpolled, orphans, "{case}");

            let grown = capacities(&mut verifier);
            let running = worker_count.min(jobs);
            assert_eq!(grown.len(), worker_count, "{case}");
            for (worker, capacity) in grown.iter().enumerate() {
                assert_eq!(*capacity > 0, worker < running, "{case}: worker {worker}");
            }
            // A steady poll's messages fit the buffers the first poll grew.
            scheduler.run_round(&mut verifier, &mut agents, &transport);
            assert_eq!(capacities(&mut verifier), grown, "{case}");
        }
    }

    #[test]
    fn the_deal_keeps_every_job_in_order() {
        assert_eq!(deal((0..5).collect(), 2), [vec![0, 2, 4], vec![1, 3]]);
        assert_eq!(deal((0..5).collect(), 3), [vec![0, 3], vec![1, 4], vec![2]]);
        assert_eq!(deal(vec![7], 4), [vec![7], vec![], vec![], vec![]]);
        assert_eq!(deal(Vec::<u8>::new(), 0), [Vec::<u8>::new()]);
    }

    #[test]
    fn latency_histogram_buckets() {
        let mut snap = MetricsSnapshot::default();
        snap.record_latency_ns(1); // bucket 0
        snap.record_latency_ns(2); // bucket 1
        snap.record_latency_ns(3); // bucket 1
        snap.record_latency_ns(1024); // bucket 10
        assert_eq!(snap.latency_ns_buckets[0], 1);
        assert_eq!(snap.latency_ns_buckets[1], 2);
        assert_eq!(snap.latency_ns_buckets[10], 1);
        assert_eq!(snap.latency_ns_buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn percentile_from_histogram() {
        let mut snap = MetricsSnapshot::default();
        for _ in 0..99 {
            snap.record_latency_ns(100); // bucket 6 → upper bound 128
        }
        snap.record_latency_ns(1 << 20); // one slow call
        assert_eq!(snap.latency_percentile_ns(50.0), Some(128));
        assert!(snap.latency_percentile_ns(99.9).unwrap() > 1 << 20);
        assert_eq!(MetricsSnapshot::default().latency_percentile_ns(50.0), None);
    }

    #[test]
    fn snapshot_serializes() {
        let m = FleetScheduler::new();
        m.fold_round(
            &MetricsSnapshot {
                retries: 7,
                ..MetricsSnapshot::default()
            },
            PolicyEpoch::ZERO,
        );
        let snap = m.snapshot();
        assert_eq!(snap.latency_ns_buckets, vec![0; LATENCY_BUCKETS]);
        let wire = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&wire).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.retries, 7);
    }

    #[test]
    fn conservation_identity() {
        let mut snap = MetricsSnapshot {
            calls: 10,
            verified: 5,
            failed: 1,
            skipped_paused: 1,
            unreachable: 1,
            retries: 2,
            ..MetricsSnapshot::default()
        };
        assert!(snap.is_conserved());
        // An orphaned enrolment adds an unreachable outcome with no call.
        snap.orphaned = 1;
        snap.unreachable = 2;
        assert!(snap.is_conserved());
        // Losing a retry from the books breaks the identity.
        snap.retries = 1;
        assert!(!snap.is_conserved());
        // Quarantine skips don't enter the identity at all.
        snap.retries = 2;
        snap.quarantine_skips = 99;
        assert!(snap.is_conserved());
        // Neither does the policy-push telemetry: gauge and push costs
        // spend no transport calls.
        snap.policy_epoch = 17;
        snap.policy_push_ns = 123_456;
        snap.delta_entries_applied = 42;
        assert!(snap.is_conserved());
        assert!(
            MetricsSnapshot::default().is_conserved(),
            "empty is conserved"
        );
    }

    #[test]
    fn merged_sums_counters_and_preserves_the_identity() {
        let a = MetricsSnapshot {
            rounds: 2,
            calls: 10,
            verified: 5,
            failed: 1,
            skipped_paused: 1,
            unreachable: 2,
            orphaned: 1,
            retries: 2,
            alerts: 3,
            wire_bytes: 1000,
            entries_evaluated: 40,
            policy_epoch: 3,
            latency_ns_buckets: vec![1, 2],
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            rounds: 1,
            calls: 6,
            verified: 4,
            unreachable: 1,
            orphaned: 1,
            retries: 2,
            wire_bytes: 500,
            entries_evaluated: 25,
            policy_epoch: 5,
            latency_ns_buckets: vec![0, 1, 7],
            ..MetricsSnapshot::default()
        };
        assert!(a.is_conserved() && b.is_conserved());
        let fleet = a.merged(&b);
        assert!(fleet.is_conserved(), "merge must preserve the identity");
        assert_eq!(fleet.rounds, 3, "shard rounds add");
        assert_eq!(fleet.calls, 16);
        assert_eq!(fleet.verified, 9);
        assert_eq!(fleet.unreachable, 3);
        assert_eq!(fleet.wire_bytes, 1500);
        assert_eq!(fleet.entries_evaluated, 65);
        assert_eq!(fleet.policy_epoch, 5, "gauge takes the max, never sums");
        assert_eq!(
            fleet.latency_ns_buckets,
            vec![1, 3, 7],
            "histograms add element-wise, padded to the longer"
        );
        assert_eq!(a.merged(&b), b.merged(&a), "merge is commutative");
        assert_eq!(
            a.merged(&MetricsSnapshot::default()),
            a,
            "empty snapshot is the identity element"
        );
    }

    #[test]
    fn per_backend_splits_refine_aggregates() {
        let mut snap = MetricsSnapshot {
            verified: 2,
            failed: 1,
            unreachable: 1,
            ..MetricsSnapshot::default()
        };
        snap.per_backend.for_kind_mut(BackendKind::TpmIma).verified += 1;
        snap.per_backend
            .for_kind_mut(BackendKind::SecureWorld)
            .verified += 1;
        snap.per_backend
            .for_kind_mut(BackendKind::ConfidentialVm)
            .failed += 1;
        snap.per_backend
            .for_kind_mut(BackendKind::TpmIma)
            .unreachable += 1;
        assert!(snap.backends_consistent());
        assert_eq!(snap.per_backend.for_kind(BackendKind::TpmIma).verified, 1);
        assert_eq!(
            snap.per_backend.for_kind(BackendKind::SecureWorld).verified,
            1
        );
        assert_eq!(
            snap.per_backend
                .for_kind(BackendKind::ConfidentialVm)
                .failed,
            1
        );
        assert_eq!(
            snap.per_backend.for_kind(BackendKind::TpmIma).unreachable,
            1
        );
    }

    #[test]
    fn backends_consistent_catches_lost_split() {
        let mut snap = MetricsSnapshot {
            verified: 2,
            per_backend: PerBackendCounts {
                tpm_ima: BackendCounts {
                    verified: 1,
                    ..BackendCounts::default()
                },
                ..PerBackendCounts::default()
            },
            ..MetricsSnapshot::default()
        };
        assert!(!snap.backends_consistent(), "one verified poll unsplit");
        snap.per_backend.secure_world.verified = 1;
        assert!(snap.backends_consistent());
    }

    /// Old snapshots serialized before per-backend splits existed must
    /// still deserialize (the splits default to zero).
    #[test]
    fn snapshot_deserializes_without_per_backend_field() {
        let snap = MetricsSnapshot::default();
        let wire = serde_json::to_string(&snap).unwrap();
        let field = format!(
            "\"per_backend\":{}",
            serde_json::to_string(&PerBackendCounts::default()).unwrap()
        );
        let stripped = wire
            .replace(&format!("{field},"), "")
            .replace(&format!(",{field}"), "");
        assert_ne!(stripped, wire, "field must be present before stripping");
        let back: MetricsSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn policy_push_recording() {
        let m = FleetScheduler::new();
        m.record_policy_push(PolicyEpoch::ZERO.next(), 500, 3);
        m.record_policy_push(PolicyEpoch::ZERO.next().next(), 700, 4);
        let snap = m.snapshot();
        assert_eq!(snap.policy_epoch, 2, "gauge holds the latest epoch");
        assert_eq!(snap.policy_push_ns, 1200, "push time accumulates");
        assert_eq!(snap.delta_entries_applied, 7);
        assert!(snap.is_conserved());
    }

    #[test]
    fn retry_rate() {
        let snap = MetricsSnapshot {
            calls: 10,
            retries: 2,
            ..MetricsSnapshot::default()
        };
        assert!((snap.retry_rate() - 0.2).abs() < 1e-12);
        assert_eq!(MetricsSnapshot::default().retry_rate(), 0.0);
    }
}
