//! Deterministic chaos simulation for the attestation fleet.
//!
//! [`SimRunner`] executes a [`FaultPlan`] against a [`Cluster`] for N
//! rounds and checks engine invariants after every round:
//!
//! - **no silent skips** — every enrolled agent produces exactly one
//!   result per round;
//! - **metrics conservation** — `calls + orphaned == verified + failed +
//!   skipped_paused + unreachable + retries`, with `retry_rate ∈ [0, 1]`;
//! - **health-machine legality** — per-agent transitions follow the
//!   `Healthy → Degraded → Quarantined → Recovering` machine (no jumps
//!   like `Quarantined → Healthy` in one round);
//! - **no state corruption** — quarantine skips only ever happen to
//!   agents that were quarantined going into the round, and per-round
//!   health counts always total the fleet size.
//!
//! Because every fault decision is a pure function of
//! `(plan seed, round, lane, attempt)` and every agent owns its verifier
//! record and transport lane, a whole run is reproducible from
//! `(SimConfig, FaultPlan)` alone — the same trace replays bit-identically
//! under any `workers` count. That property is what turns a flaky fleet
//! failure into a replayable unit test: capture the plan, re-run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use cia_keylime::{
    AgentHealth, AgentId, ChaosTransport, Cluster, FaultPlan, KeylimeError, MetricsSnapshot,
    ReliableTransport, RoundOutcome, RoundReport, RuntimePolicy, VerifierConfig,
};
use cia_os::MachineConfig;

/// The transport a simulation runs over: scripted faults on a reliable
/// inner channel, so *all* loss is the plan's doing.
pub type SimTransport = ChaosTransport<ReliableTransport>;

/// Parameters of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Fleet size.
    pub nodes: usize,
    /// Rounds to execute.
    pub rounds: u64,
    /// Scheduler worker threads. The resulting trace must not depend on
    /// this — that is the determinism contract under test.
    pub workers: usize,
    /// Seed for machines and cluster key material.
    pub seed: u64,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Enable the quarantine cheap-skip path.
    pub quarantine: bool,
    /// The paper's P2 fix (continue past failing log entries).
    pub continue_on_failure: bool,
    /// Retry budget for dropped calls.
    pub max_retries: u32,
    /// Journal verifier state durably and assert, after every round,
    /// that a verifier recovered from the journal would be observably
    /// identical to the live one.
    pub durable: bool,
}

impl SimConfig {
    /// A baseline config: quarantine on, P2 fix on, 3 retries, 2 workers.
    pub fn new(nodes: usize, rounds: u64, plan: FaultPlan) -> Self {
        SimConfig {
            nodes,
            rounds,
            workers: 2,
            seed: plan.seed(),
            plan,
            quarantine: true,
            continue_on_failure: true,
            max_retries: 3,
            durable: false,
        }
    }

    /// Sets the worker count (chainable).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the quarantine toggle (chainable).
    pub fn quarantine(mut self, on: bool) -> Self {
        self.quarantine = on;
        self
    }

    /// Sets the durability toggle (chainable): journal verifier state
    /// and check the durable-equivalence invariant every round.
    pub fn durable(mut self, on: bool) -> Self {
        self.durable = on;
        self
    }

    fn verifier_config(&self) -> VerifierConfig {
        VerifierConfig::builder()
            .continue_on_failure(self.continue_on_failure)
            .max_retries(self.max_retries)
            .worker_count(self.workers)
            .quarantine_enabled(self.quarantine)
            .build()
            .expect("sim config must be valid")
    }
}

/// The replayable outcome of a finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// One report per executed round, in order.
    pub rounds: Vec<RoundReport>,
    /// Final per-agent health, keyed by id.
    pub final_health: BTreeMap<AgentId, AgentHealth>,
    /// The deterministic (wall-clock-free) metrics at the end of the run:
    /// the policy-check time and the latency histogram are zeroed,
    /// everything else is the scheduler's cumulative counters.
    pub metrics: MetricsSnapshot,
}

impl SimReport {
    /// Total transport calls spent over the whole run.
    pub fn total_calls(&self) -> u64 {
        self.metrics.calls
    }
}

/// Strips the wall-clock-dependent fields from a snapshot so the rest can
/// be compared across runs (timings legitimately vary with machine load;
/// every other counter is deterministic).
pub fn deterministic_metrics(snapshot: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        policy_check_ns: 0,
        latency_ns_buckets: Vec::new(),
        ..snapshot.clone()
    }
}

/// Executes a [`FaultPlan`] against a fleet, checking invariants each
/// round. See the crate docs.
#[derive(Debug)]
pub struct SimRunner {
    config: SimConfig,
    cluster: Cluster<SimTransport>,
    ids: Vec<AgentId>,
    round: u64,
    prev_health: BTreeMap<AgentId, AgentHealth>,
    rounds: Vec<RoundReport>,
}

impl SimRunner {
    /// Builds the fleet and enrols every node. Enrolment happens at the
    /// plan's round 0, so a registrar outage scheduled there makes this
    /// fail — which is itself a scenario worth scripting.
    ///
    /// # Errors
    ///
    /// Enrolment failures (e.g. a scripted registrar outage outlasting
    /// the retry budget).
    pub fn new(config: SimConfig) -> Result<Self, KeylimeError> {
        let transport = ChaosTransport::new(ReliableTransport::new(), config.plan.clone());
        let mut cluster = Cluster::with_transport(config.seed, config.verifier_config(), transport);
        if config.durable {
            cluster
                .enable_durability()
                .expect("in-memory journal filesystem cannot fail to initialize");
        }
        let mut ids = Vec::with_capacity(config.nodes);
        for i in 0..config.nodes {
            let machine = MachineConfig {
                hostname: AgentId::numbered("sim", i as u64).into_string(),
                seed: config.seed ^ (i as u64).wrapping_mul(0x9e37_79b9),
                ..MachineConfig::default()
            };
            ids.push(cluster.add_machine(machine, RuntimePolicy::new())?);
        }
        // AgentId::numbered zero-pads, so enrolment order == sorted order
        // == scheduler lane order: lane i is exactly ids[i].
        ids.sort();
        let prev_health = ids
            .iter()
            .map(|id| (id.clone(), AgentHealth::Healthy))
            .collect();
        Ok(SimRunner {
            config,
            cluster,
            ids,
            round: 0,
            prev_health,
            rounds: Vec::new(),
        })
    }

    /// The cluster under simulation (e.g. to inspect policies or inject
    /// scenario-specific state between rounds).
    pub fn cluster(&self) -> &Cluster<SimTransport> {
        &self.cluster
    }

    /// The enrolled ids in lane order (lane i ↔ `ids()[i]`).
    pub fn ids(&self) -> &[AgentId] {
        &self.ids
    }

    /// Executes one round: applies scheduled crashes, advances the chaos
    /// clock, runs a fleet round, and asserts every invariant.
    ///
    /// # Panics
    ///
    /// On any invariant violation — the panic message names the round,
    /// the agent and the violated rule, and the run is reproducible from
    /// the config alone.
    pub fn step(&mut self) -> RoundReport {
        let round = self.round;
        // Scripted agent crashes: reboot resets the TPM counter and
        // clears the IMA log, which the verifier must absorb.
        for lane in self.config.plan.crashes_at(round, self.ids.len() as u64) {
            let id = self.ids[lane as usize].clone();
            let agent = self
                .cluster
                .agent_mut(&id)
                .expect("enrolled agent has a process");
            agent.restart().expect("scripted reboot succeeds");
        }

        self.cluster.transport.set_round(round);
        let report = self.cluster.attest_fleet();
        self.check_invariants(round, &report);
        self.round += 1;
        self.rounds.push(report.clone());
        report
    }

    /// Runs every remaining round and returns the replayable report.
    pub fn run(mut self) -> SimReport {
        while self.round < self.config.rounds {
            self.step();
        }
        self.finish()
    }

    /// Finalizes without running remaining rounds.
    pub fn finish(self) -> SimReport {
        let final_health = self
            .ids
            .iter()
            .map(|id| {
                let h = self.cluster.health(id).expect("enrolled");
                (id.clone(), h)
            })
            .collect();
        SimReport {
            rounds: self.rounds,
            final_health,
            metrics: deterministic_metrics(&self.cluster.scheduler.snapshot()),
        }
    }

    fn check_invariants(&mut self, round: u64, report: &RoundReport) {
        // No silent skips: exactly one result per enrolled agent.
        assert_eq!(
            report.results.len(),
            self.ids.len(),
            "round {round}: {} results for {} agents",
            report.results.len(),
            self.ids.len()
        );
        assert_eq!(
            report.health.total(),
            self.ids.len(),
            "round {round}: health counts do not cover the fleet"
        );

        // Metrics conservation, cumulatively over all rounds so far.
        let snapshot = self.cluster.scheduler.snapshot();
        assert!(
            snapshot.is_conserved(),
            "round {round}: metrics identity violated: {snapshot:?}"
        );
        let rate = snapshot.retry_rate();
        assert!(
            (0.0..=1.0).contains(&rate),
            "round {round}: retry_rate {rate} outside [0, 1]"
        );

        // Health transitions are legal, and quarantine skips only happen
        // to agents that entered the round quarantined.
        for result in &report.results {
            let before = self.prev_health[&result.id];
            let after = self
                .cluster
                .health(&result.id)
                .expect("enrolled agent has health");
            assert!(
                legal_transition(before, after),
                "round {round}: agent {} made illegal transition {before:?} -> {after:?}",
                result.id
            );
            if matches!(result.outcome, RoundOutcome::SkippedQuarantined { .. }) {
                assert_eq!(
                    before,
                    AgentHealth::Quarantined,
                    "round {round}: agent {} skipped-as-quarantined from {before:?}",
                    result.id
                );
                assert!(
                    self.config.quarantine,
                    "round {round}: quarantine skip with quarantine disabled"
                );
                assert_eq!(
                    result.attempts, 0,
                    "round {round}: quarantine skip spent transport attempts"
                );
            }
            self.prev_health.insert(result.id.clone(), after);
        }

        // Durable state matches in-memory state: a verifier recovered
        // from the journal right now would be observably identical to
        // the live one — same store epoch and content, same per-agent
        // state machines and policies.
        if self.config.durable {
            if let Err(divergence) = self.cluster.check_durable_equivalence() {
                panic!("round {round}: durable state diverged from memory: {divergence}");
            }
        }
    }
}

/// The health machine's legal per-round transitions (self-loops always
/// allowed; recovery is monotonic: Quarantined can only leave via
/// Recovering, never jump straight to Healthy).
pub fn legal_transition(from: AgentHealth, to: AgentHealth) -> bool {
    use AgentHealth::{Degraded, Healthy, Quarantined, Recovering};
    matches!(
        (from, to),
        (Healthy, Healthy | Degraded | Quarantined)
            | (Degraded, Degraded | Healthy | Quarantined)
            | (Quarantined, Quarantined | Recovering)
            | (Recovering, Recovering | Healthy | Quarantined)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_keylime::FaultTarget;

    #[test]
    fn clean_plan_verifies_everyone() {
        let report = SimRunner::new(SimConfig::new(4, 5, FaultPlan::new(1)))
            .expect("enrolment")
            .run();
        assert_eq!(report.rounds.len(), 5);
        for round in &report.rounds {
            assert_eq!(round.verified_count(), 4);
            assert_eq!(round.health.healthy, 4);
        }
        assert!(report
            .final_health
            .values()
            .all(|&h| h == AgentHealth::Healthy));
        assert_eq!(report.metrics.retries, 0);
    }

    #[test]
    fn sustained_partition_quarantines_then_recovers() {
        // Lane 1 is partitioned for rounds 0..8 of 16; with
        // quarantine_after=4 it must quarantine during the window and be
        // Healthy again by the end.
        let plan = FaultPlan::new(7).partition(0..8, FaultTarget::lanes([1]));
        let config = SimConfig::new(3, 16, plan);
        let runner = SimRunner::new(config).expect("enrolment");
        let victim = runner.ids()[1].clone();
        let report = runner.run();
        assert_eq!(report.final_health[&victim], AgentHealth::Healthy);
        let quarantined_rounds = report
            .rounds
            .iter()
            .filter(|r| r.health.quarantined > 0)
            .count();
        assert!(quarantined_rounds > 0, "victim must quarantine");
        assert!(report.metrics.quarantine_skips > 0, "skips must be cheap");
        assert!(report.metrics.to_quarantined >= 1);
        assert!(report.metrics.to_healthy >= 1, "recovery completed");
    }

    #[test]
    fn quarantine_off_still_tracks_health() {
        let plan = FaultPlan::new(9).partition(0..6, FaultTarget::lanes([0]));
        let config = SimConfig::new(2, 6, plan).quarantine(false);
        let runner = SimRunner::new(config).expect("enrolment");
        let victim = runner.ids()[0].clone();
        let report = runner.run();
        assert_eq!(report.final_health[&victim], AgentHealth::Quarantined);
        assert_eq!(
            report.metrics.quarantine_skips, 0,
            "no cheap skips when disabled"
        );
        // Every round burns the full budget: 1 + max_retries attempts.
        let last = report.rounds.last().unwrap();
        let victim_result = last.results.iter().find(|r| r.id == victim).unwrap();
        assert_eq!(victim_result.attempts, 4);
    }

    #[test]
    fn durable_runs_hold_the_equivalence_invariant_under_faults() {
        // Partition + loss + a scripted reboot: the journal must track
        // every state machine through all of it (check_invariants
        // panics on the first round where recovery would diverge).
        let plan = FaultPlan::new(41)
            .partition(1..5, FaultTarget::lanes([1]))
            .loss(0..8, FaultTarget::AllAgents, 0.25)
            .crash(3, 2);
        let config = SimConfig::new(4, 8, plan).durable(true);
        let report = SimRunner::new(config).expect("enrolment").run();
        assert_eq!(report.rounds.len(), 8);
    }

    #[test]
    fn durable_toggle_does_not_change_the_trace() {
        let plan = || {
            FaultPlan::new(17)
                .partition(0..4, FaultTarget::lanes([0]))
                .loss(0..10, FaultTarget::AllAgents, 0.3)
        };
        let plain = SimRunner::new(SimConfig::new(3, 10, plan()))
            .expect("enrolment")
            .run();
        let durable = SimRunner::new(SimConfig::new(3, 10, plan()).durable(true))
            .expect("enrolment")
            .run();
        assert_eq!(plain, durable, "journaling must be observation-free");
    }

    #[test]
    fn legal_transitions_table() {
        use AgentHealth::*;
        assert!(legal_transition(Healthy, Degraded));
        assert!(legal_transition(Quarantined, Recovering));
        assert!(legal_transition(Recovering, Healthy));
        assert!(!legal_transition(Quarantined, Healthy), "monotone recovery");
        assert!(!legal_transition(Healthy, Recovering));
        assert!(!legal_transition(Degraded, Recovering));
    }
}
