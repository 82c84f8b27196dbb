//! Fleet-engine integration tests: a lossy concurrent round reaches
//! every agent, retries are visible in the metrics, the whole
//! retry/backoff schedule is deterministic under a fixed seed, and a
//! round is nothing but its command list.

use cia_keylime::{
    drive_round, serve_round, Agent, AgentId, AgentRoundResult, AgentStateSnapshot, ChaosTransport,
    Cluster, FaultPlan, FaultTarget, FleetScheduler, MetricsSnapshot, Registrar, ReliableTransport,
    RoundOutcome, RoundReport, RuntimePolicy, Verifier, VerifierConfig, DEFAULT_WIRE_WINDOW,
};
use cia_os::{Machine, MachineConfig};
use cia_tpm::Manufacturer;
use cia_wire::DuplexShardTransport;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A link losing each direction of every call with probability
/// `drop_rate`.
fn link(drop_rate: f64, seed: u64) -> ChaosTransport<ReliableTransport> {
    ChaosTransport::new(ReliableTransport::new(), FaultPlan::lossy(seed, drop_rate))
}

fn lossy_fleet(
    size: u64,
    drop_rate: f64,
    seed: u64,
    config: VerifierConfig,
) -> Cluster<ChaosTransport<ReliableTransport>> {
    let transport = link(drop_rate, seed);
    let mut cluster = Cluster::with_transport(seed ^ 0xf1ee7, config, transport);
    for i in 0..size {
        let machine = MachineConfig {
            hostname: format!("fleet-{i:04}"),
            seed: i,
            ..MachineConfig::default()
        };
        cluster
            .add_machine(machine, RuntimePolicy::new())
            .expect("enrolment retries through the lossy transport");
    }
    cluster
}

fn engine_config() -> VerifierConfig {
    VerifierConfig::builder()
        .continue_on_failure(true)
        .max_retries(16)
        .retry_backoff_ms(10)
        .max_backoff_ms(1_000)
        .worker_count(4)
        .build()
        .unwrap()
}

#[test]
fn lossy_round_reaches_every_agent_with_retries_in_metrics() {
    let mut cluster = lossy_fleet(40, 0.10, 11, engine_config());
    let report = cluster.attest_fleet();

    // Zero silent skips: one result per enrolled agent, all reached.
    assert_eq!(report.results.len(), 40);
    assert!(report.all_reached(), "{report:?}");
    for result in &report.results {
        assert!(
            matches!(result.outcome, RoundOutcome::Verified { .. }),
            "clean machine must verify: {result:?}"
        );
        assert!(result.attempts >= 1);
    }

    // 10% loss over ~40 calls makes retries overwhelmingly likely, and
    // every retry must surface in both the report and the registry.
    let snapshot = cluster.scheduler.snapshot();
    assert_eq!(snapshot.rounds, 1);
    assert_eq!(snapshot.verified, 40);
    assert_eq!(snapshot.unreachable, 0);
    assert!(
        snapshot.retries > 0,
        "no retries at 10% loss is implausible"
    );
    assert_eq!(snapshot.retries, report.total_retries());
    assert!(snapshot.calls >= 40 + snapshot.retries);
    assert!(snapshot.drops >= snapshot.retries);
    assert!(snapshot.backoff_ms > 0);
    assert!(snapshot.latency_ns_buckets.iter().sum::<u64>() >= snapshot.calls);

    // The audit chain durably records the whole round, in id order.
    assert_eq!(cluster.audit.len(), 40);
    let ids: Vec<&AgentId> = cluster.audit.records().iter().map(|r| &r.agent).collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(ids, sorted);
}

#[test]
fn exhausted_retry_budget_reports_unreachable_not_silence() {
    // A transport that always drops: every agent must still be reported.
    let config = VerifierConfig::builder().max_retries(2).build().unwrap();
    let mut cluster = lossy_fleet(5, 0.0, 3, config);
    // Swap in a fully lossy transport after enrolment.
    cluster.transport = link(1.0, 3);
    let report = cluster.attest_fleet();

    assert_eq!(report.results.len(), 5);
    assert_eq!(report.unreachable_count(), 5);
    for result in &report.results {
        assert!(matches!(result.outcome, RoundOutcome::Unreachable { .. }));
        // Budget fully spent: the first attempt plus max_retries.
        assert_eq!(result.attempts, 3);
    }
    let snapshot = cluster.scheduler.snapshot();
    assert_eq!(snapshot.unreachable, 5);
    assert_eq!(snapshot.verified, 0);
    // The audit chain records the unreachable outcomes too.
    assert_eq!(cluster.audit.len(), 5);
}

fn round_fingerprint(report: &RoundReport) -> Vec<(AgentId, u32, u64, bool)> {
    report
        .results
        .iter()
        .map(|r| {
            (
                r.id.clone(),
                r.attempts,
                r.backoff_ms,
                matches!(r.outcome, RoundOutcome::Verified { .. }),
            )
        })
        .collect()
}

/// Regression: loss seeded from `(seed, lane)` alone deals every round
/// the same drop stream, so the same unlucky agents are the only ones
/// that ever degrade. Loss is a function of the round too — and of
/// nothing else, so the whole trace replays from `(seed, plan)`.
#[test]
fn a_lossy_link_draws_fresh_loss_every_round() {
    let config = VerifierConfig::builder()
        .continue_on_failure(true)
        .max_retries(3)
        .worker_count(4)
        .build()
        .unwrap();
    let trace = || -> Vec<_> {
        let mut cluster = lossy_fleet(40, 0.0, 99, config);
        cluster.transport = link(0.30, 99);
        (1..=5u64)
            .map(|round| {
                cluster.transport.set_round(round);
                round_fingerprint(&cluster.attest_fleet())
            })
            .collect()
    };
    let first = trace();
    for pair in first.windows(2) {
        assert_ne!(pair[0], pair[1], "consecutive rounds drew the same loss");
    }
    assert_eq!(trace(), first, "the trace replays from (seed, plan)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Retry/backoff behaviour is a pure function of the transport seed:
    /// two identical fleets under the same seed and drop rate produce
    /// byte-identical per-agent attempt counts and backoff schedules,
    /// regardless of worker interleaving — and the schedule matches the
    /// config's exponential-doubling formula exactly.
    #[test]
    fn retry_backoff_is_deterministic_under_fixed_seed(
        seed in any::<u64>(),
        drop_pct in 0u32..45,
        workers in 1usize..6,
    ) {
        let config = VerifierConfig::builder()
            .continue_on_failure(true)
            .max_retries(24)
            .retry_backoff_ms(10)
            .max_backoff_ms(160)
            .worker_count(workers)
            .build()
            .unwrap();
        let drop_rate = f64::from(drop_pct) / 100.0;

        let mut first = lossy_fleet(6, drop_rate, seed, config);
        let mut second = lossy_fleet(6, drop_rate, seed, config);
        let report_a = first.attest_fleet();
        let report_b = second.attest_fleet();

        prop_assert_eq!(round_fingerprint(&report_a), round_fingerprint(&report_b));

        // The recorded backoff is exactly the configured schedule folded
        // over the attempts that failed.
        for result in &report_a.results {
            let expected: u64 = (1..result.attempts)
                .map(|a| config.backoff_for_attempt(a).as_millis() as u64)
                .sum();
            prop_assert_eq!(result.backoff_ms, expected);
        }

        // Aggregate metrics agree between the twin runs.
        let snap_a = first.scheduler.snapshot();
        let snap_b = second.scheduler.snapshot();
        prop_assert_eq!(snap_a.retries, snap_b.retries);
        prop_assert_eq!(snap_a.drops, snap_b.drops);
        prop_assert_eq!(snap_a.backoff_ms, snap_b.backoff_ms);
        prop_assert_eq!(snap_a.verified, snap_b.verified);
    }
}

/// A verifier, its scheduler and its fleet owned directly — no
/// `Cluster` — so rounds can be driven one command list at a time.
struct Rig {
    verifier: Verifier,
    scheduler: FleetScheduler,
    agents: Vec<Agent>,
    transport: ChaosTransport<ReliableTransport>,
}

fn rig(seed: u64, nodes: u64, workers: usize, plan: FaultPlan) -> Rig {
    let config = VerifierConfig::builder()
        .continue_on_failure(true)
        .quarantine_enabled(true)
        .degraded_after(1)
        .quarantine_after(2)
        .reprobe_backoff_rounds(1)
        .reprobe_backoff_max_rounds(4)
        .max_retries(2)
        .worker_count(workers)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let manufacturer = Manufacturer::generate(&mut rng);
    let mut registrar = Registrar::new(vec![manufacturer.public_key().clone()], seed);
    let mut enrolment = ReliableTransport::new();
    let mut verifier = Verifier::new(config);
    verifier.publish_policy(RuntimePolicy::new());
    let mut agents = Vec::new();
    for i in 0..nodes {
        let machine = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: 300 + i,
            ..MachineConfig::default()
        };
        let mut agent = Agent::new(Machine::new(&manufacturer, machine));
        registrar.register(&mut enrolment, &mut agent).unwrap();
        let record = registrar.record_for(agent.id()).unwrap().clone();
        verifier.add_agent_shared_with_identity(agent.id().clone(), record.ak, record.identity);
        agents.push(agent);
    }
    Rig {
        verifier,
        scheduler: FleetScheduler::new(),
        agents,
        transport: ChaosTransport::new(ReliableTransport::new(), plan),
    }
}

impl Rig {
    /// Runs one command list through the public wire entry points and
    /// returns the rows the driver decoded.
    fn run_commands(&mut self, commands: &[(AgentId, u64)]) -> Vec<AgentRoundResult> {
        let (server, driver) = DuplexShardTransport::pair();
        std::thread::scope(|scope| {
            let served = scope.spawn(|| {
                serve_round(
                    &self.scheduler,
                    &mut self.verifier,
                    self.agents.iter_mut(),
                    &self.transport,
                    server,
                )
            });
            let driven = drive_round(driver, commands, 0, DEFAULT_WIRE_WINDOW);
            served.join().unwrap().unwrap();
            driven.unwrap().rows
        })
    }

    fn states(&self) -> Vec<AgentStateSnapshot> {
        let ids = self.verifier.agent_ids();
        ids.iter()
            .map(|id| self.verifier.export_agent_state(id).unwrap())
            .collect()
    }

    /// Every counter that is a function of the trace alone — and not
    /// `rounds`, which counts engine runs rather than agent work.
    fn counters(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            rounds: 0,
            timeouts: 0,
            policy_check_ns: 0,
            latency_ns_buckets: Vec::new(),
            ..self.scheduler.snapshot()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A round is its command list: splitting the sorted enrolment list
    /// any way into two lists, run back to back in the same chaos round,
    /// leaves the same rows, the same per-agent state and the same
    /// counters as one `FleetScheduler::run_round`. Resume (the full
    /// list minus the acked agents) and shard-kill catch-up (the
    /// migrated agents at their pre-kill lanes) both rest on this.
    #[test]
    fn a_round_is_its_command_list(
        seed in 0u64..500,
        nodes in 4u64..13,
        workers in prop_oneof![Just(1usize), Just(4usize)],
        split in any::<u16>(),
        loss in prop_oneof![Just(None), Just(Some(0.3)), Just(Some(0.6))],
        partition_lane in prop_oneof![Just(None), (0u64..4).prop_map(Some)],
    ) {
        const ROUNDS: u64 = 4;
        let make_plan = || {
            let mut plan = FaultPlan::new(seed ^ 0x11575);
            if let Some(rate) = loss {
                plan = plan.loss(0..ROUNDS, FaultTarget::AllAgents, rate);
            }
            if let Some(lane) = partition_lane {
                plan = plan.partition(1..3, FaultTarget::lanes([lane]));
            }
            plan
        };
        let mut whole = rig(seed, nodes, workers, make_plan());
        let mut halves = rig(seed, nodes, workers, make_plan());
        let full: Vec<(AgentId, u64)> = halves.verifier.agent_ids().into_iter().zip(0u64..).collect();
        let (first, second): (Vec<_>, Vec<_>) =
            full.iter().cloned().partition(|(_, lane)| split >> lane & 1 == 1);

        for round in 0..ROUNDS {
            whole.transport.set_round(round);
            halves.transport.set_round(round);
            let expected =
                whole.scheduler.run_round(&mut whole.verifier, &mut whole.agents, &whole.transport);
            let mut rows = halves.run_commands(&first);
            rows.extend(halves.run_commands(&second));
            rows.sort_by(|a, b| a.id.cmp(&b.id));
            prop_assert_eq!(rows, expected.results, "round {} rows diverged", round);
        }
        prop_assert_eq!(halves.states(), whole.states());
        prop_assert_eq!(halves.counters(), whole.counters());
    }
}
