//! Fleet-engine integration tests: a lossy concurrent round reaches
//! every agent, retries are visible in the metrics, the whole
//! retry/backoff schedule is deterministic under a fixed seed, a round
//! is nothing but its command list (however the wire batches and
//! windows it), and a second machine under an enrolled host name is
//! refused rather than silently shadowing it.

use cia_keylime::{
    drive_round, serve_round, Agent, AgentId, AgentRoundResult, AgentStateSnapshot, ChaosTransport,
    Cluster, FaultPlan, FaultTarget, FleetScheduler, KeylimeError, MetricsSnapshot, Registrar,
    ReliableTransport, RoundOutcome, RoundReport, RuntimePolicy, Verifier, VerifierConfig,
    DEFAULT_WIRE_WINDOW,
};
use cia_os::{ExecMethod, Machine, MachineConfig};
use cia_tpm::Manufacturer;
use cia_vfs::VfsPath;
use cia_wire::{DuplexShardTransport, WireError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

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

    // The audit chain durably records the whole round as one seal of
    // its rows, in id order.
    assert_eq!(cluster.audit.len(), 1);
    let rows = &cluster.audit.seals()[0].rows;
    assert_eq!(rows, &report.results);
    let ids: Vec<&AgentId> = rows.iter().map(|r| &r.id).collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(ids.len(), 40);
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
    // The round's seal records the unreachable outcomes too.
    assert_eq!(cluster.audit.len(), 1);
    let rows = &cluster.audit.seals()[0].rows;
    assert_eq!(rows.len(), 5);
    assert!(rows
        .iter()
        .all(|r| matches!(r.outcome, RoundOutcome::Unreachable { .. })));
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
        self.run_commands_framed(commands, 0, DEFAULT_WIRE_WINDOW)
    }

    /// [`Rig::run_commands`] with `batch` commands per `Poll` frame (`0`
    /// is the default batch) and `window` batches in flight.
    fn run_commands_framed(
        &mut self,
        commands: &[(AgentId, u64)],
        batch: usize,
        window: usize,
    ) -> Vec<AgentRoundResult> {
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
            let driven = drive_round(driver, commands, batch, window);
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
    /// list minus the acked agents) rests on this.
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

/// Command batch and in-flight window shape only the frames, and the
/// shard's worker count shapes only who attests what: one command per
/// frame, a window of one, and a batch larger than the fleet, each at
/// one worker and at four, all give the rows of the default batch and
/// window, round after round under loss and a partition. The (1, 1) and
/// (3, 1) cells hold command 2 back until row 1 returns, so they fail if
/// the server keeps a finished row from the wire while it waits for
/// commands. Each cell runs on a detached thread under a watchdog: a
/// server that stops flushing fails the test naming the cell instead of
/// hanging the suite.
#[test]
fn batch_and_window_do_not_change_the_rows() {
    const ROUNDS: u64 = 4;
    const WATCHDOG: Duration = Duration::from_secs(120);
    fn trace(batch: usize, window: usize, workers: usize) -> Vec<Vec<AgentRoundResult>> {
        let plan = FaultPlan::new(0xba7c)
            .loss(0..ROUNDS, FaultTarget::AllAgents, 0.3)
            .partition(1..3, FaultTarget::lanes([2]));
        let mut rig = rig(21, 10, workers, plan);
        let commands: Vec<(AgentId, u64)> =
            rig.verifier.agent_ids().into_iter().zip(0u64..).collect();
        (0..ROUNDS)
            .map(|round| {
                rig.transport.set_round(round);
                let mut rows = rig.run_commands_framed(&commands, batch, window);
                rows.sort_by(|a, b| a.id.cmp(&b.id));
                rows
            })
            .collect()
    }
    let watched = |batch: usize, window: usize, workers: usize| {
        let cell = format!("batch={batch} window={window} workers={workers}");
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || done_tx.send(trace(batch, window, workers)));
        match done_rx.recv_timeout(WATCHDOG) {
            Ok(rows) => rows,
            Err(RecvTimeoutError::Timeout) => {
                panic!("{cell}: the wire rounds did not finish within {WATCHDOG:?}")
            }
            Err(RecvTimeoutError::Disconnected) => panic!("{cell}: the wire rounds panicked"),
        }
    };
    let baseline = watched(0, DEFAULT_WIRE_WINDOW, 4);
    assert!(
        baseline.iter().flatten().any(|r| r.attempts > 1),
        "the loss made agents retry"
    );
    for workers in [1, 4] {
        for (batch, window) in [(0, DEFAULT_WIRE_WINDOW), (1, 1), (3, 1), (3, 8), (1024, 2)] {
            assert_eq!(
                watched(batch, window, workers),
                baseline,
                "batch={batch} window={window} workers={workers} diverged"
            );
        }
    }
}

/// A command the shard answers with no row must not stall the driver's
/// window. With one command per frame and a window of one, a command for
/// an un-enrolled id used to leave the driver waiting for a row that
/// never came, so it never sent `End` and the shard never sent `Done`.
/// Each `Poll` frame now gets its `Results` frame, empty or not, and
/// `Done` names the command left unanswered. A list that repeats an
/// enrolled id is refused before `Start`, and the server, whose driver
/// hung up, returns an error instead of waiting. Both run under the
/// watchdog of `batch_and_window_do_not_change_the_rows`.
#[test]
fn a_command_answered_with_no_row_fails_the_round_instead_of_stalling_it() {
    const WATCHDOG: Duration = Duration::from_secs(120);
    fn drive(commands: fn(Vec<AgentId>) -> Vec<(AgentId, u64)>) -> (String, bool) {
        let mut rig = rig(7, 4, 1, FaultPlan::new(7));
        let commands = commands(rig.verifier.agent_ids());
        let (server, driver) = DuplexShardTransport::pair();
        std::thread::scope(|scope| {
            let served = scope.spawn(|| {
                serve_round(
                    &rig.scheduler,
                    &mut rig.verifier,
                    rig.agents.iter_mut(),
                    &rig.transport,
                    server,
                )
            });
            let driven = drive_round(driver, &commands, 1, 1);
            let served = served.join().unwrap();
            match driven {
                Err(WireError::Protocol { reason }) => (reason, served.is_err()),
                other => panic!("expected a protocol error, got {other:?}"),
            }
        })
    }
    let watched = |case: &'static str, commands: fn(Vec<AgentId>) -> Vec<(AgentId, u64)>| {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || done_tx.send(drive(commands)));
        match done_rx.recv_timeout(WATCHDOG) {
            Ok(outcome) => outcome,
            Err(RecvTimeoutError::Timeout) => {
                panic!("{case}: the wire round did not finish within {WATCHDOG:?}")
            }
            Err(RecvTimeoutError::Disconnected) => panic!("{case}: the wire round panicked"),
        }
    };

    let (reason, server_failed) = watched("unknown id first", |ids| {
        let mut commands = vec![(AgentId::from("not-enrolled"), 99)];
        commands.extend(ids.into_iter().zip(0u64..));
        commands
    });
    assert!(reason.contains("1 of 5 commands unanswered"), "{reason}");
    assert!(!server_failed, "the shard kept to the protocol");

    let (reason, server_failed) = watched("enrolled id repeated", |ids| {
        let first = ids[0].clone();
        let mut commands: Vec<(AgentId, u64)> = ids.into_iter().zip(0u64..).collect();
        commands.push((first, 0));
        commands
    });
    assert!(reason.contains("twice"), "{reason}");
    assert!(server_failed, "the server saw its driver hang up");
}

/// Agent ids derive from host names. A second machine enrolled under a
/// taken name used to replace the first one's registrar and verifier
/// records while both stayed in the fleet: the first machine was never
/// attested again, and its state and alerts were gone.
#[test]
fn a_duplicate_hostname_is_refused_and_the_enrolled_agent_keeps_its_record() {
    let node = |hostname: &str, seed| MachineConfig {
        hostname: hostname.to_string(),
        seed,
        ..MachineConfig::default()
    };
    let mut cluster = Cluster::new(5, engine_config());
    let first = cluster
        .add_machine(node("node-0001", 1), RuntimePolicy::new())
        .unwrap();
    cluster
        .add_machine(node("node-0002", 2), RuntimePolicy::new())
        .unwrap();
    // Give the first agent state worth losing: an attested prefix and an
    // alert for a binary outside its (empty) policy.
    let rogue = VfsPath::new("/usr/local/bin/rogue").unwrap();
    let machine = cluster.agent_mut(&first).unwrap().machine_mut();
    machine.write_executable(&rogue, b"rogue").unwrap();
    machine.exec(&rogue, ExecMethod::Direct).unwrap();
    cluster.attest_fleet();
    let before = cluster.verifier.export_agent_state(&first).unwrap();
    assert!(!cluster.alerts(&first).unwrap().is_empty());

    let err = cluster
        .add_machine(node("node-0001", 3), RuntimePolicy::new())
        .unwrap_err();
    assert!(matches!(err, KeylimeError::Registration { .. }), "{err:?}");

    let ids = cluster.agent_ids();
    assert_eq!(ids, [first.clone(), AgentId::from("node-0002")]);
    assert_eq!(cluster.verifier.export_agent_state(&first).unwrap(), before);

    let report = cluster.attest_fleet();
    let rows: Vec<AgentId> = report.results.iter().map(|r| r.id.clone()).collect();
    assert_eq!(rows, ids, "one row per enrolled process");
}
