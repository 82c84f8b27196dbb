//! The chaos scenario corpus: scripted operational faults the paper's
//! 66-day deployment actually hit (§III-D), each replayable
//! bit-identically from its `(seed, FaultPlan)` alone.
//!
//! - partition during an update window → quarantine, then clean recovery
//!   with the backlog verified and zero alerts;
//! - registrar outage ("flap") blocking enrolment until it lifts;
//! - agent crash/restart mid-run with a TPM quote-counter reset;
//! - the March-27 shape: a misconfigured policy push raising fleet-wide
//!   false positives until the corrected policy lands;
//! - the acceptance check: a failing trace replays identically under a
//!   different worker count;
//! - quarantine economics: sustained partitions cost measurably fewer
//!   transport calls with the cheap-skip path on;
//! - a heterogeneous fleet (TPM+IMA, secure world, confidential VM in
//!   one round) under partition and attack, replay-equal across worker
//!   counts with consistent per-backend accounting;
//! - an env-gated 500-round long simulation (`CHAOS_LONG=1`).

use cia_sim::{SimConfig, SimRunner};
use continuous_attestation::crypto::Sha256;
use continuous_attestation::keylime::{Agent, Verifier};
use continuous_attestation::prelude::*;

type ChaosCluster = Cluster<ChaosTransport<ReliableTransport>>;

/// Engine posture for the corpus: P2 fix on, quick quarantine thresholds
/// so scenarios play out in few rounds.
fn corpus_config(workers: usize) -> VerifierConfig {
    VerifierConfig::builder()
        .continue_on_failure(true)
        .quarantine_enabled(true)
        .degraded_after(1)
        .quarantine_after(2)
        .reprobe_backoff_rounds(1)
        .reprobe_backoff_max_rounds(4)
        .max_retries(2)
        .worker_count(workers)
        .build()
        .unwrap()
}

fn chaos_cluster(seed: u64, plan: FaultPlan, workers: usize) -> ChaosCluster {
    Cluster::with_transport(
        seed,
        corpus_config(workers),
        ChaosTransport::new(ReliableTransport::new(), plan),
    )
}

fn sha256_hex(content: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(content);
    h.finalize().to_hex()
}

/// §III-D shape 1: an agent subset partitions across an update window.
/// The verifier must quarantine the unreachable agent (cheap skips, not
/// full retry burns), then — once the partition heals — verify the
/// update's measurement backlog with zero alerts and walk the agent back
/// to Healthy through Recovering.
#[test]
fn partition_during_update_quarantines_then_recovers_clean() {
    let tool = VfsPath::new("/usr/bin/service").unwrap();
    let v1: &[u8] = b"fleet service v1";
    let v2: &[u8] = b"fleet service v2 (update)";
    let plan = FaultPlan::new(27).partition(2..6, FaultTarget::lanes([1]));
    let mut cluster = chaos_cluster(27, plan, 3);

    let mut ids = Vec::new();
    for i in 0..4u64 {
        let config = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: 100 + i,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&cluster.manufacturer, config);
        machine.write_executable(&tool, v1).unwrap();
        let mut policy = RuntimePolicy::new();
        policy.allow(tool.as_str(), sha256_hex(v1));
        policy.allow(tool.as_str(), sha256_hex(v2));
        policy.exclude("/tmp");
        ids.push(cluster.add_agent(Agent::new(machine), policy).unwrap());
    }
    let victim = ids[1].clone(); // lane 1 == sorted index 1

    for id in &ids {
        let m = cluster.agent_mut(id).unwrap().machine_mut();
        m.exec(&tool, ExecMethod::Direct).unwrap();
    }

    let mut reports = Vec::new();
    for round in 0..12u64 {
        if round == 3 {
            // The update lands *while the victim is partitioned*: the new
            // binary is measured locally, unseen by the verifier.
            let m = cluster.agent_mut(&victim).unwrap().machine_mut();
            m.write_executable(&tool, v2).unwrap();
            m.exec(&tool, ExecMethod::Direct).unwrap();
        }
        cluster.transport.set_round(round);
        reports.push(cluster.attest_fleet());
    }

    // The victim quarantined during the window and was skipped cheaply.
    let victim_outcomes: Vec<&RoundOutcome> = reports
        .iter()
        .map(|r| &r.results.iter().find(|x| x.id == victim).unwrap().outcome)
        .collect();
    assert!(
        victim_outcomes
            .iter()
            .any(|o| matches!(o, RoundOutcome::Unreachable { .. })),
        "partition must show as unreachable rounds"
    );
    assert!(
        victim_outcomes
            .iter()
            .any(|o| matches!(o, RoundOutcome::SkippedQuarantined { .. })),
        "quarantine must skip at least one round cheaply"
    );
    assert!(
        reports.iter().any(|r| r.health.quarantined == 1),
        "health counts must show the quarantine"
    );

    // Nobody else was disturbed, and the victim never *failed*: a
    // partition is a reachability event, not an integrity event.
    assert!(
        victim_outcomes
            .iter()
            .all(|o| !matches!(o, RoundOutcome::Failed { .. })),
        "no false integrity failures from the partition"
    );
    assert!(cluster.alerts(&victim).unwrap().is_empty());

    // Recovery: quarantine lifted through Recovering, backlog verified.
    assert_eq!(cluster.health(&victim).unwrap(), AgentHealth::Healthy);
    assert_eq!(cluster.status(&victim).unwrap(), AgentStatus::Trusted);
    let last = reports.last().unwrap();
    assert_eq!(last.verified_count(), 4);
    assert_eq!(last.health.healthy, 4);
    let metrics = cluster.scheduler.snapshot();
    assert!(metrics.is_conserved());
    assert!(metrics.to_quarantined >= 1 && metrics.to_recovering >= 1);
}

/// §III-D shape 2: the registrar flaps. Enrolment during the outage
/// fails (retries exhausted against a partitioned service) but succeeds
/// as soon as the window lifts — and the late joiner attests cleanly.
#[test]
fn registrar_flap_blocks_enrolment_until_window_lifts() {
    let plan = FaultPlan::new(3).registrar_outage(0..1);
    let mut cluster = chaos_cluster(3, plan, 2);

    let machine_config = |hostname: &str, seed: u64| MachineConfig {
        hostname: hostname.to_string(),
        seed,
        ..MachineConfig::default()
    };

    // Round 0: the registrar is down; enrolment fails after retries.
    cluster.transport.set_round(0);
    let err = cluster
        .add_machine(machine_config("node-00", 1), RuntimePolicy::new())
        .unwrap_err();
    assert!(
        err.to_string().contains("dropped"),
        "outage surfaces as dropped registration calls: {err}"
    );

    // Round 1: window lifted; the same enrolment goes through.
    cluster.transport.set_round(1);
    let id = cluster
        .add_machine(machine_config("node-00", 1), RuntimePolicy::new())
        .unwrap();
    let report = cluster.attest_fleet();
    assert_eq!(report.verified_count(), 1);
    assert_eq!(cluster.health(&id).unwrap(), AgentHealth::Healthy);
}

/// §III-D shape 3: a node crashes and restarts mid-run. The TPM reset
/// counter bumps and the IMA log restarts; the verifier must detect the
/// reboot, re-quote from entry zero, and verify — no false alert, no
/// quarantine, no stuck state.
#[test]
fn crash_restart_mid_round_resets_quote_counter_cleanly() {
    let plan = FaultPlan::new(11).crash(3, 1);
    let runner = SimRunner::new(SimConfig::new(3, 7, plan)).unwrap();
    let victim = runner.ids()[1].clone();
    let report = runner.run();

    for (round, round_report) in report.rounds.iter().enumerate() {
        let result = round_report
            .results
            .iter()
            .find(|r| r.id == victim)
            .unwrap();
        assert!(
            matches!(result.outcome, RoundOutcome::Verified { .. }),
            "round {round}: crash/restart must not break attestation: {:?}",
            result.outcome
        );
    }
    // The crash round re-measured boot: the verifier processed a fresh
    // log (boot_aggregate again), not an incremental empty poll.
    let crash_round = &report.rounds[3];
    let result = crash_round.results.iter().find(|r| r.id == victim).unwrap();
    assert!(
        matches!(result.outcome, RoundOutcome::Verified { new_entries } if new_entries > 0),
        "reboot must re-process the restarted log: {:?}",
        result.outcome
    );
    assert_eq!(report.final_health[&victim], AgentHealth::Healthy);
}

/// Builds the durable crash-restart fleet: three agents on the shared
/// store, one on a per-agent override, each having run one measured
/// tool. Used by the verifier-crash scenarios below.
fn durable_fleet(seed: u64, plan: FaultPlan, workers: usize) -> (ChaosCluster, Vec<AgentId>) {
    let tool = VfsPath::new("/usr/bin/service").unwrap();
    let content: &[u8] = b"fleet service v1";
    let mut policy = RuntimePolicy::new();
    policy.allow(tool.as_str(), sha256_hex(content));
    policy.exclude("/tmp");

    let mut cluster = chaos_cluster(seed, plan, workers);
    let mut ids = Vec::new();
    for i in 0..4u64 {
        let config = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: 900 + i,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&cluster.manufacturer, config);
        machine.write_executable(&tool, content).unwrap();
        machine.exec(&tool, ExecMethod::Direct).unwrap();
        ids.push(if i == 3 {
            cluster
                .add_agent(Agent::new(machine), policy.clone())
                .unwrap()
        } else {
            cluster.add_agent_shared(Agent::new(machine)).unwrap()
        });
    }
    cluster.publish_policy(policy);
    (cluster, ids)
}

/// §III-D shape 3, verifier-side: the *verifier* crashes mid-round with
/// one agent's result already durably acked. Restart replays the journal,
/// resumes the interrupted round past the acked agent, and the merged
/// report is identical to a twin verifier that never crashed. The acked
/// agent is provably *not* re-attested: its machine is tampered between
/// crash and restart, and the resumed round still reports it Verified —
/// the tamper only surfaces one round later, when attestation genuinely
/// runs again.
#[test]
fn verifier_crash_mid_round_replays_journal_and_resumes() {
    let plan = || {
        FaultPlan::new(73)
            .loss(0..2, FaultTarget::AllAgents, 0.3)
            .partition(1..2, FaultTarget::lanes([2]))
    };
    let (mut twin, _) = durable_fleet(73, plan(), 3);
    let (mut subject, ids) = durable_fleet(73, plan(), 3);
    subject.enable_durability().unwrap();

    // Warm-up under faults: journaling must be observation-free.
    for round in 0..2u64 {
        twin.transport.set_round(round);
        subject.transport.set_round(round);
        assert_eq!(subject.attest_fleet(), twin.attest_fleet());
    }

    // The crash round. The twin completes it; the subject completes it
    // too, but its journal is then truncated to `started + one ack` (plus
    // a torn half-frame) — the crash landed mid-round, after exactly one
    // agent was durably acknowledged.
    twin.transport.set_round(2);
    let twin_report = twin.attest_fleet();
    let frames_before = subject.journal().unwrap().log().frame_count();
    subject.transport.set_round(2);
    let _lost = subject.attest_fleet();
    let image = subject
        .journal()
        .unwrap()
        .log()
        .crash_image(frames_before + 2, 3);

    // Between crash and restart, the acked agent's machine runs an
    // unapproved binary. If recovery re-attested it, this would fail it.
    let acked_agent = ids[0].clone();
    let rogue = VfsPath::new("/usr/local/bin/rogue").unwrap();
    let m = subject.agent_mut(&acked_agent).unwrap().machine_mut();
    m.write_executable(&rogue, b"not in any policy").unwrap();
    m.exec(&rogue, ExecMethod::Direct).unwrap();

    // Restart: replay the log, resume mid-round past the acked agent.
    let resume = subject.recover_from_image(image).unwrap();
    let plan = resume.expect("started mark and one ack survived the crash");
    assert_eq!(
        plan.acked_ids().into_iter().collect::<Vec<_>>(),
        vec![acked_agent.clone()],
        "exactly the first ack was durable"
    );
    subject.transport.set_round(2);
    let resumed_report = subject.attest_fleet_resume(&plan);

    // The merged report is what the never-crashed twin produced, the
    // acked agent's row came from the journal (no re-attestation, so no
    // alert despite the tamper), and the journal agrees with memory.
    assert_eq!(resumed_report, twin_report);
    assert!(subject.alerts(&acked_agent).unwrap().is_empty());
    subject.check_durable_equivalence().unwrap();
    assert!(subject.scheduler.snapshot().is_conserved());

    // One round later the skip is over: attestation genuinely runs again
    // and the tamper surfaces as a real integrity failure.
    subject.transport.set_round(3);
    let next = subject.attest_fleet();
    let row = next.results.iter().find(|r| r.id == acked_agent).unwrap();
    assert!(
        matches!(row.outcome, RoundOutcome::Failed { .. }),
        "post-resume rounds must re-attest: {:?}",
        row.outcome
    );
}

/// Acceptance criterion for the journal itself: the bytes on disk — not
/// just the reports — are identical whatever the worker count. Acks are
/// sequenced by agent id before appending, so the segment files of a
/// 1-worker, 4-worker and 8-worker run of the same fleet are equal.
#[test]
fn durable_journal_bytes_are_identical_across_worker_counts() {
    let run = |workers: usize| -> Vec<(String, Vec<u8>)> {
        let plan = FaultPlan::new(88)
            .loss(0..4, FaultTarget::AllAgents, 0.25)
            .partition(1..3, FaultTarget::lanes([1]));
        let (mut cluster, _) = durable_fleet(88, plan, workers);
        cluster.enable_durability().unwrap();
        for round in 0..4u64 {
            cluster.transport.set_round(round);
            cluster.attest_fleet();
        }
        let log = cluster.journal().unwrap().log();
        let mut files = log.vfs().list_dir(log.dir()).unwrap();
        files.sort();
        files
            .into_iter()
            .map(|p| {
                let bytes = log.vfs().read(&p).unwrap().to_vec();
                (p.as_str().to_string(), bytes)
            })
            .collect()
    };

    let sequential = run(1);
    assert!(!sequential.is_empty(), "journal must have segments");
    assert_eq!(sequential, run(4), "4 workers diverged from sequential");
    assert_eq!(sequential, run(8), "8 workers diverged from sequential");
}

/// A durable enrolment journals the agent, not the fleet policy: with a
/// 10,000-entry policy published, enrolling shared agents appends a few
/// hundred bytes each — the store's epoch history already holds the
/// document they appraise against.
#[test]
fn durable_enrolment_bytes_do_not_grow_with_the_policy() {
    const AGENTS: u64 = 4;
    let mut cluster = chaos_cluster(5, FaultPlan::new(5), 2);
    let mut policy = RuntimePolicy::new();
    for i in 0..10_000 {
        policy.allow(format!("/usr/bin/tool-{i:05}"), format!("{i:064x}"));
    }
    cluster.publish_policy(policy);
    cluster.enable_durability().unwrap();

    let journal_bytes = |c: &ChaosCluster| c.journal().unwrap().log().vfs().total_bytes();
    let before = journal_bytes(&cluster);
    for i in 0..AGENTS {
        let config = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: 40 + i,
            ..MachineConfig::default()
        };
        cluster.add_machine_shared(config).unwrap();
    }
    let per_enrolment = (journal_bytes(&cluster) - before) / AGENTS;
    assert!(
        per_enrolment < 4096,
        "{per_enrolment} journal bytes per enrolment"
    );
    cluster.check_durable_equivalence().unwrap();
}

/// A failing agent's record is bounded. One durable agent, under
/// continue-on-failure, runs 50 new out-of-policy binaries every round
/// for 20 rounds. What each round adds to the journal (its marks and the
/// agent's one ack) stays flat, and so does the agent's serialized
/// state: the record keeps no alert history, so an ack carries only the
/// alerts of its own round's row.
#[test]
fn a_failing_agents_journal_acks_stay_flat() {
    let config = VerifierConfig::builder()
        .continue_on_failure(true)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(17, config);
    let id = cluster
        .add_machine_shared(MachineConfig::default())
        .unwrap();
    cluster.enable_durability().unwrap();

    let journal_bytes = |c: &Cluster| c.journal().unwrap().log().vfs().total_bytes();
    let (mut round_bytes, mut state_bytes) = (Vec::new(), Vec::new());
    for round in 0..20u64 {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        for i in 0..50 {
            let rogue = VfsPath::new(&format!("/opt/rogue/r{round:02}-{i:02}")).unwrap();
            m.write_executable(&rogue, format!("rogue {round:02} {i:02}").as_bytes())
                .unwrap();
            m.exec(&rogue, ExecMethod::Direct).unwrap();
        }
        let before = journal_bytes(&cluster);
        let report = cluster.attest_fleet();
        assert!(
            matches!(&report.results[0].outcome, RoundOutcome::Failed { alerts } if alerts.len() == 50),
            "round {round}: {:?}",
            report.results[0].outcome
        );
        round_bytes.push(journal_bytes(&cluster) - before);
        let state = cluster.verifier.export_agent_state(&id).unwrap();
        state_bytes.push(serde_json::to_string(&state).unwrap().len() as u64);
    }
    // Counters gain digits over 20 rounds (the cursor goes 51 → 1001);
    // an alert history would add about 7.7k bytes per round.
    let spread = |v: &[u64]| v.iter().max().unwrap() - v.iter().min().unwrap();
    assert!(
        spread(&round_bytes) <= 32,
        "journal bytes per round grew: {round_bytes:?}"
    );
    assert!(
        spread(&state_bytes) <= 8,
        "serialized agent state grew: {state_bytes:?}"
    );
    cluster.check_durable_equivalence().unwrap();
}

/// The sequential path journals too. `Cluster::attest` and
/// `Cluster::resolve` move an agent's record (nonce counter, log cursor,
/// alerts, status) outside any round, so each writes the agent's ack;
/// without it a crash rewinds the nonce counter — a recorded quote for
/// the reused nonce replays — and forgets a `Paused` verdict.
#[test]
fn sequential_attest_and_resolve_are_journaled() {
    let tool = VfsPath::new("/usr/bin/service").unwrap();
    let mut policy = RuntimePolicy::new();
    policy.allow(tool.as_str(), sha256_hex(b"service v1"));
    // Stock posture: the first failure pauses the agent.
    let mut cluster = Cluster::new(61, VerifierConfig::default());
    let mut ids = Vec::new();
    for i in 0..2u64 {
        let config = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: 610 + i,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&cluster.manufacturer, config);
        machine.write_executable(&tool, b"service v1").unwrap();
        machine.exec(&tool, ExecMethod::Direct).unwrap();
        ids.push(cluster.add_agent_shared(Agent::new(machine)).unwrap());
    }
    cluster.publish_policy(policy);
    cluster.enable_durability().unwrap();
    let (clean, tampered) = (ids[0].clone(), ids[1].clone());

    let nonce_counter =
        |verifier: &Verifier, id: &AgentId| verifier.export_agent_state(id).unwrap().nonce_counter;
    let assert_journaled = |cluster: &Cluster<ReliableTransport>, id: &AgentId, step: &str| {
        cluster
            .check_durable_equivalence()
            .unwrap_or_else(|e| panic!("{step}: {e}"));
        let log = cluster.journal().unwrap().log();
        let recovered =
            VerifierJournal::recover(log.vfs().clone(), log.dir(), cluster.verifier.config())
                .unwrap();
        assert_eq!(
            nonce_counter(&recovered.verifier, id),
            nonce_counter(&cluster.verifier, id),
            "{step}: recovery rewound the nonce counter"
        );
    };

    let outcome = cluster.attest(&clean).unwrap();
    assert!(matches!(outcome, AttestationOutcome::Verified { .. }));
    assert_eq!(nonce_counter(&cluster.verifier, &clean), 1);
    assert_journaled(&cluster, &clean, "clean attest");

    let rogue = VfsPath::new("/usr/local/bin/rogue").unwrap();
    let m = cluster.agent_mut(&tampered).unwrap().machine_mut();
    m.write_executable(&rogue, b"not in any policy").unwrap();
    m.exec(&rogue, ExecMethod::Direct).unwrap();
    let outcome = cluster.attest(&tampered).unwrap();
    assert!(matches!(outcome, AttestationOutcome::Failed { .. }));
    assert_eq!(cluster.status(&tampered).unwrap(), AgentStatus::Paused);
    assert_journaled(&cluster, &tampered, "tampered attest");

    cluster.resolve(&tampered).unwrap();
    assert_eq!(cluster.status(&tampered).unwrap(), AgentStatus::Trusted);
    assert_eq!(nonce_counter(&cluster.verifier, &tampered), 2);
    assert_journaled(&cluster, &tampered, "resolve");
}

/// The two agents whose policy recovery cannot resolve from the
/// journaled publishes, on one cluster that turns durability on late:
/// an override agent, and a quarantined shared agent pinned on an epoch
/// older than the journal's base checkpoint. Every ack of either must
/// carry its policy document — through skipped rounds, a compaction,
/// and the laggard's recovery — or the recovered verifier appraises
/// them against the wrong policy.
#[test]
fn late_durability_keeps_override_and_pre_checkpoint_laggard_recoverable() {
    let tool = VfsPath::new("/usr/bin/service").unwrap();
    let plan = FaultPlan::new(41).partition(2..7, FaultTarget::lanes([1]));
    let mut cluster = chaos_cluster(41, plan, 3);

    let mut base = RuntimePolicy::new();
    base.exclude("/tmp");
    base.allow(tool.as_str(), sha256_hex(b"service v1"));
    cluster.publish_policy(base.clone());

    let mut ids = Vec::new();
    for i in 0..4u64 {
        let config = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: 700 + i,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&cluster.manufacturer, config);
        machine.write_executable(&tool, b"service v1").unwrap();
        machine.exec(&tool, ExecMethod::Direct).unwrap();
        ids.push(if i == 3 {
            cluster
                .add_agent(Agent::new(machine), base.clone())
                .unwrap()
        } else {
            cluster.add_agent_shared(Agent::new(machine)).unwrap()
        });
    }
    let laggard = ids[1].clone(); // lane 1 == sorted index 1

    for round in 0..12u64 {
        if round == 4 || round == 5 {
            // Two pushes land while the laggard is quarantined.
            cluster.publish_delta(&PolicyDelta {
                added: vec![(format!("/usr/local/bin/maint-{round}"), "aa".repeat(32))],
                ..PolicyDelta::default()
            });
        }
        if round == 6 {
            // Durability comes on at store epoch 3 with the laggard
            // still pinned on epoch 1 — older than the base checkpoint.
            assert_eq!(cluster.health(&laggard).unwrap(), AgentHealth::Quarantined);
            assert_eq!(
                cluster
                    .verifier
                    .agent_policy_epoch(&laggard)
                    .unwrap()
                    .as_u64(),
                1
            );
            assert_eq!(cluster.policy_epoch().as_u64(), 3);
            cluster.enable_durability().unwrap();
            cluster.check_durable_equivalence().unwrap();
        }
        if round == 8 {
            // Restart from a compacted copy of the journal: only each
            // agent's latest ack survives, so that ack must be enough.
            let log = cluster.journal().unwrap().log();
            let mut copy = VerifierJournal::create(log.vfs().clone(), log.dir()).unwrap();
            assert!(copy.compact().unwrap() > 0);
            let resume = cluster.recover_from_image(copy.log().vfs().clone());
            assert_eq!(resume.unwrap(), None, "no round was in flight");
        }
        cluster.transport.set_round(round);
        cluster.attest_fleet();
        cluster
            .check_durable_equivalence()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }

    // The partition healed at round 7: the laggard probed clean on its
    // pinned epoch, then converged.
    assert_eq!(cluster.health(&laggard).unwrap(), AgentHealth::Healthy);
    assert_eq!(
        cluster.verifier.agent_policy_epoch(&laggard).unwrap(),
        cluster.policy_epoch()
    );
    for id in &ids {
        assert!(cluster.alerts(id).unwrap().is_empty(), "{id} raised alerts");
    }
}

/// The paper's March-27 incident shape: a policy update omits entries
/// for tooling that runs fleet-wide, so *every* agent raises a false
/// positive the same day; the corrected policy restores the fleet the
/// next round. With continue-on-failure on (the paper's P2 fix), the
/// fleet keeps attesting throughout — and revocation notices published
/// to a subscriber that is offline during the incident are queued, not
/// lost.
#[test]
fn march_27_misconfigured_policy_push_alerts_fleet_wide_then_restores() {
    const NODES: u64 = 3;
    const MISCONFIG_ROUND: u64 = 4;
    let mut cluster = chaos_cluster(327, FaultPlan::new(327), 3);

    let maint_path = |round: u64| format!("/usr/local/bin/maint-{round}");
    let maint_content = |round: u64| format!("maintenance job {round}").into_bytes();
    // The operator's policy for a given round: every maintenance tool up
    // to and including `through` is allowed — except that the misconfig
    // push forgets the current round's tool.
    let policy_through = |through: u64, forget: Option<u64>| {
        let mut policy = RuntimePolicy::new();
        policy.exclude("/tmp");
        for r in 0..=through {
            if forget == Some(r) {
                continue;
            }
            policy.allow(maint_path(r), sha256_hex(&maint_content(r)));
        }
        policy
    };

    let mut ids = Vec::new();
    for i in 0..NODES {
        let config = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: 500 + i,
            ..MachineConfig::default()
        };
        let machine = Machine::new(&cluster.manufacturer, config);
        ids.push(
            cluster
                .add_agent(Agent::new(machine), policy_through(0, None))
                .unwrap(),
        );
    }

    // A peer system subscribes to revocations but goes offline just
    // before the incident (e.g. it sits behind the same maintenance).
    let subscriber = cluster.revocation_bus.subscribe();

    let mut reports = Vec::new();
    for round in 0..7u64 {
        // The operator pushes this round's policy; on the misconfig
        // round it forgets the very tool the fleet is about to run.
        let forget = (round == MISCONFIG_ROUND).then_some(MISCONFIG_ROUND);
        for id in &ids {
            cluster
                .push_policy(id, policy_through(round, forget))
                .unwrap();
        }
        if round == MISCONFIG_ROUND {
            cluster.revocation_bus.set_online(subscriber, false);
        }
        // Fleet-wide maintenance runs every round on every node.
        for id in &ids {
            let m = cluster.agent_mut(id).unwrap().machine_mut();
            let path = VfsPath::new(&maint_path(round)).unwrap();
            m.write_executable(&path, &maint_content(round)).unwrap();
            m.exec(&path, ExecMethod::Direct).unwrap();
        }
        cluster.transport.set_round(round);
        reports.push(cluster.attest_fleet());
    }

    // The misconfig round: every agent false-positives at once.
    let incident = &reports[MISCONFIG_ROUND as usize];
    assert_eq!(incident.failed_count(), NODES as usize, "fleet-wide FP");
    for result in &incident.results {
        match &result.outcome {
            RoundOutcome::Failed { alerts } => {
                assert!(alerts.iter().any(|a| matches!(
                    &a.kind,
                    continuous_attestation::keylime::FailureKind::NotInPolicy { path, .. }
                        if path == &maint_path(MISCONFIG_ROUND)
                )));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    // Every round before and after the misconfig verifies cleanly: P2's
    // continue-on-failure means the incident never pauses the fleet.
    for (round, report) in reports.iter().enumerate() {
        if round as u64 != MISCONFIG_ROUND {
            assert_eq!(
                report.verified_count(),
                NODES as usize,
                "round {round} should be clean"
            );
        }
    }
    for id in &ids {
        assert_eq!(cluster.status(id).unwrap(), AgentStatus::Trusted);
    }

    // The offline subscriber missed nothing: the incident's notices were
    // queued and flush on reconnect.
    assert_eq!(
        cluster.revocation_bus.pending_count(subscriber),
        Some(NODES as usize)
    );
    cluster.revocation_bus.set_online(subscriber, true);
    let view = cluster.revocation_bus.subscriber(subscriber).unwrap();
    for id in &ids {
        assert!(view.is_revoked(id), "queued revocation for {id} delivered");
    }
}

/// Acceptance criterion: a *failing* chaos trace replays bit-identically
/// from `(seed, FaultPlan)` alone. Capture the full RoundReport trace
/// under one worker count, re-run under another, assert equality.
#[test]
fn failing_trace_replays_bit_identically_across_worker_counts() {
    let plan = FaultPlan::new(0xDEAD)
        .partition(1..9, FaultTarget::lanes([0, 3]))
        .loss(0..10, FaultTarget::AllAgents, 0.25)
        .crash(5, 2);

    let captured = SimRunner::new(SimConfig::new(5, 10, plan.clone()).workers(1))
        .unwrap()
        .run();
    let replayed = SimRunner::new(SimConfig::new(5, 10, plan).workers(6))
        .unwrap()
        .run();

    // The trace is genuinely a failure trace...
    assert!(
        captured
            .rounds
            .iter()
            .any(|r| r.unreachable_count() > 0 || r.quarantine_skipped_count() > 0),
        "plan must actually produce failures"
    );
    // ...and replays exactly: reports, health, and protocol metrics.
    assert_eq!(captured.rounds, replayed.rounds);
    assert_eq!(captured.final_health, replayed.final_health);
    assert_eq!(captured.metrics, replayed.metrics);
}

/// Acceptance criterion: under a sustained partition, the quarantine
/// path spends measurably fewer transport calls than burning the full
/// retry budget on the same dead agents every round.
#[test]
fn quarantine_is_cheaper_than_full_retry_under_sustained_partition() {
    let plan = || FaultPlan::new(99).partition(0..20, FaultTarget::lanes([1, 4]));
    let with_quarantine = SimRunner::new(SimConfig::new(6, 20, plan()).quarantine(true))
        .unwrap()
        .run();
    let without = SimRunner::new(SimConfig::new(6, 20, plan()).quarantine(false))
        .unwrap()
        .run();

    assert!(
        with_quarantine.total_calls() < without.total_calls(),
        "quarantine on: {} calls, off: {} calls",
        with_quarantine.total_calls(),
        without.total_calls()
    );
    assert!(with_quarantine.metrics.quarantine_skips > 0);
    assert_eq!(without.metrics.quarantine_skips, 0);
    // The savings come from skipped rounds, not from losing track of the
    // agents: both runs report every agent every round.
    for report in with_quarantine.rounds.iter().chain(without.rounds.iter()) {
        assert_eq!(report.results.len(), 6);
    }
}

/// Nightly-style long simulation: 500 rounds of composite chaos with the
/// full invariant suite checked every round. Gated behind `CHAOS_LONG=1`
/// so the default test run stays fast; CI runs it in the chaos job.
#[test]
fn long_sim_500_rounds_env_gated() {
    if std::env::var("CHAOS_LONG").map(|v| v == "1") != Ok(true) {
        eprintln!("skipping long sim (set CHAOS_LONG=1 to run)");
        return;
    }
    // All fault windows end by round 440: the 60 clean tail rounds exceed
    // the maximum reprobe backoff (32), so every quarantined agent is
    // guaranteed a successful probe and full recovery before the run ends.
    let mut plan = FaultPlan::new(66)
        .loss(0..440, FaultTarget::AllAgents, 0.10)
        .partition(50..90, FaultTarget::lanes([0, 1]))
        .partition(200..260, FaultTarget::lanes([3]))
        .corrupt(300..310, FaultTarget::lanes([2]))
        .crash(120, 4)
        .crash(350, 0);
    // A rolling maintenance partition: one lane at a time, 25 rounds each.
    for (i, start) in (360..435).step_by(25).enumerate() {
        plan = plan.partition(start..start + 25, FaultTarget::lanes([i as u64]));
    }

    let report = SimRunner::new(SimConfig::new(5, 500, plan)).unwrap().run();
    assert_eq!(report.rounds.len(), 500);
    assert!(report.metrics.is_conserved());
    assert!(report.metrics.quarantine_skips > 0);
    assert!(report.metrics.to_healthy > 0, "recoveries happened");
    // The steady-state fleet ends reachable: the last partitions healed.
    assert!(report
        .final_health
        .values()
        .all(|&h| h == AgentHealth::Healthy));
}

/// Epoch skew under partition: policy pushes land *while an agent is
/// quarantined*. The shared-store contract says the quarantined agent
/// keeps appraising the last epoch it acknowledged — stale, but
/// observable in every round result — and converges to the newest epoch
/// on its first post-recovery round. This run makes one of the skipped
/// epochs a March-27-style misconfigured push (it forgets a fleet-wide
/// tool), so the reachable agents false-positive on that epoch while the
/// pinned victim, still appraising the pre-incident policy, stays clean.
///
/// Timeline (quarantine_after = 2 unreachable rounds): the partition
/// opens at round 2, so the victim is Degraded after round 2 and
/// Quarantined after round 3 — both pushes (rounds 4 and 5) land while
/// the victim is quarantined and therefore skipped by eager *and* lazy
/// adoption.
#[test]
fn partition_during_policy_push_pins_acked_epoch_then_converges() {
    const NODES: u64 = 4;
    let tool_v1 = VfsPath::new("/usr/bin/service").unwrap();
    let maint = VfsPath::new("/usr/local/bin/maint").unwrap();
    let maint_content: &[u8] = b"fleet-wide maintenance";
    let plan = FaultPlan::new(41).partition(2..7, FaultTarget::lanes([1]));
    let mut cluster = chaos_cluster(41, plan, 3);

    // One shared policy for everybody, published once at epoch 1.
    let mut base = RuntimePolicy::new();
    base.exclude("/tmp");
    base.allow(tool_v1.as_str(), sha256_hex(b"service v1"));
    cluster.publish_policy(base);

    let mut ids = Vec::new();
    for i in 0..NODES {
        let config = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: 700 + i,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&cluster.manufacturer, config);
        machine.write_executable(&tool_v1, b"service v1").unwrap();
        machine.exec(&tool_v1, ExecMethod::Direct).unwrap();
        ids.push(cluster.add_agent_shared(Agent::new(machine)).unwrap());
    }
    let victim = ids[1].clone(); // lane 1 == sorted index 1
    let enrolment_epoch = cluster.policy_epoch();
    assert_eq!(enrolment_epoch.as_u64(), 1);

    let mut reports = Vec::new();
    for round in 0..12u64 {
        if round == 4 {
            // Misconfigured push lands mid-partition, after the victim
            // is quarantined: the operator's delta *forgets* the
            // maintenance tool the fleet runs.
            cluster.publish_delta(&PolicyDelta::default());
            // Reachable agents execute the tool the bad epoch omitted.
            for id in &ids {
                if id != &victim {
                    let m = cluster.agent_mut(id).unwrap().machine_mut();
                    m.write_executable(&maint, maint_content).unwrap();
                    m.exec(&maint, ExecMethod::Direct).unwrap();
                }
            }
        }
        if round == 5 {
            // The corrected delta allows the tool.
            cluster.publish_delta(&PolicyDelta {
                added: vec![(maint.as_str().to_string(), sha256_hex(maint_content))],
                ..PolicyDelta::default()
            });
        }
        cluster.transport.set_round(round);
        reports.push(cluster.attest_fleet());
    }

    // Pre-partition rounds: everyone converged on the enrolment epoch.
    assert!(reports[0].epoch_converged());
    assert_eq!(reports[0].policy_epoch, enrolment_epoch);

    // The misconfig epoch (round 4): every *reachable* agent FPs at
    // once; the partitioned victim is unreachable/quarantined, not
    // failed — and its result still carries the pre-incident epoch.
    let incident = &reports[4];
    assert_eq!(incident.policy_epoch.as_u64(), 2);
    let victim_result =
        |r: &RoundReport| r.results.iter().find(|x| x.id == victim).cloned().unwrap();
    for result in &incident.results {
        if result.id == victim {
            assert!(
                !matches!(result.outcome, RoundOutcome::Failed { .. }),
                "the pinned victim never saw the bad epoch"
            );
            assert_eq!(result.policy_epoch, enrolment_epoch, "stale, as acked");
        } else {
            assert!(
                matches!(result.outcome, RoundOutcome::Failed { .. }),
                "reachable agents FP on the misconfigured epoch: {:?}",
                result.outcome
            );
            assert_eq!(result.policy_epoch, incident.policy_epoch);
        }
    }
    assert!(!incident.epoch_converged(), "skew must be observable");

    // While quarantined, every skipped round still reports the victim
    // pinned to the epoch it last acknowledged.
    let skipped: Vec<_> = reports
        .iter()
        .map(victim_result)
        .filter(|r| matches!(r.outcome, RoundOutcome::SkippedQuarantined { .. }))
        .collect();
    assert!(!skipped.is_empty(), "quarantine must skip cheaply");
    for r in &skipped {
        assert_eq!(r.policy_epoch, enrolment_epoch);
    }

    // Recovery: the partition heals at round 7; the victim's first
    // post-heal rounds adopt the corrected epoch and verify cleanly.
    let last = reports.last().unwrap();
    assert_eq!(last.policy_epoch.as_u64(), 3);
    assert!(last.epoch_converged(), "fleet reconverges after the heal");
    assert_eq!(last.verified_count(), NODES as usize);
    assert_eq!(cluster.health(&victim).unwrap(), AgentHealth::Healthy);
    assert!(
        cluster.alerts(&victim).unwrap().is_empty(),
        "no FP on the victim"
    );
    assert_eq!(
        cluster.verifier.agent_policy_epoch(&victim).unwrap(),
        cluster.policy_epoch()
    );

    // The scheduler metrics carry the push telemetry and stay conserved.
    let metrics = cluster.scheduler.snapshot();
    assert_eq!(metrics.policy_epoch, 3);
    assert_eq!(metrics.delta_entries_applied, 1, "one corrective entry");
    assert!(metrics.is_conserved());
}

/// Runs the heterogeneous chaos scenario: one fleet mixing all three
/// backend families, a partition window over the secure-world device's
/// lane, and a confidential-VM launch-image substitution mid-corpus.
fn run_hetero_chaos(workers: usize) -> (Vec<RoundReport>, MetricsSnapshot) {
    use continuous_attestation::keylime::BackendKind;

    let tool = VfsPath::new("/usr/bin/service").unwrap();
    let tool_bytes: &[u8] = b"fleet service v1";
    let ta_bytes: &[u8] = b"approved keymaster applet";
    let svc_bytes: &[u8] = b"confidential service daemon";

    let plan = FaultPlan::new(51).partition(2..6, FaultTarget::lanes([1]));
    let mut cluster = chaos_cluster(51, plan, workers);

    // Hostnames sort the lanes deterministically: the TPM machine is
    // lane 0, the secure-world device lane 1 (the partition target),
    // the confidential VM lane 2.
    let mut machine = Machine::new(
        &cluster.manufacturer,
        MachineConfig {
            hostname: "a-node-00".into(),
            seed: 510,
            ..MachineConfig::default()
        },
    );
    machine.write_executable(&tool, tool_bytes).unwrap();
    let mut tpm_policy = RuntimePolicy::new();
    tpm_policy.allow(tool.as_str(), sha256_hex(tool_bytes));
    tpm_policy.exclude("/tmp");
    let tpm_id = cluster.add_agent(Agent::new(machine), tpm_policy).unwrap();

    let mut sw_policy = RuntimePolicy::new();
    sw_policy.allow("/ta/keymaster", sha256_hex(ta_bytes));
    let sw_id = cluster
        .add_secure_world(SecureWorldConfig::new("b-edge-00", 511), sw_policy)
        .unwrap();

    let mut cvm_policy = RuntimePolicy::new();
    cvm_policy.allow("/opt/svc/agentd", sha256_hex(svc_bytes));
    let cvm_id = cluster
        .add_confidential_vm(ConfidentialVmConfig::new("c-cvm-00", 512), cvm_policy)
        .unwrap();

    let mut reports = Vec::new();
    for round in 0..12u64 {
        if round == 3 {
            // Backlog accumulates on the partitioned secure-world device:
            // an approved TA load the verifier cannot see yet.
            let sw = cluster
                .agent_mut(&sw_id)
                .unwrap()
                .backend_mut()
                .as_secure_world_mut()
                .unwrap();
            assert!(sw.load_trusted_app("/ta/keymaster", ta_bytes));
        }
        if round == 5 {
            // Attacks land while the fleet is degraded: benign activity
            // on the TPM machine, a launch-image substitution on the VM.
            let m = cluster.agent_mut(&tpm_id).unwrap().machine_mut();
            m.exec(&tool, ExecMethod::Direct).unwrap();
            let cvm = cluster
                .agent_mut(&cvm_id)
                .unwrap()
                .backend_mut()
                .as_confidential_vm_mut()
                .unwrap();
            cvm.exec_measured("/opt/svc/agentd", svc_bytes);
            cvm.relaunch_with_image(b"attacker image");
        }
        cluster.transport.set_round(round);
        reports.push(cluster.attest_fleet());
    }

    // The partition quarantined only the secure-world device, and its
    // backlog verified clean once the window lifted.
    assert_eq!(cluster.health(&sw_id).unwrap(), AgentHealth::Healthy);
    assert_eq!(cluster.status(&sw_id).unwrap(), AgentStatus::Trusted);
    assert!(cluster.alerts(&sw_id).unwrap().is_empty());

    // The launch substitution was detected and only the VM holds alerts.
    assert!(cluster
        .alerts(&cvm_id)
        .unwrap()
        .iter()
        .any(|a| matches!(a.kind, FailureKind::LaunchMeasurementMismatch)));
    assert!(cluster.alerts(&tpm_id).unwrap().is_empty());

    // Per-backend accounting stayed consistent with the aggregates.
    let metrics = cluster.scheduler.snapshot();
    assert!(metrics.is_conserved());
    assert!(metrics.backends_consistent());
    assert!(
        metrics
            .per_backend
            .for_kind(BackendKind::ConfidentialVm)
            .failed
            > 0
    );
    assert!(
        metrics
            .per_backend
            .for_kind(BackendKind::SecureWorld)
            .unreachable
            > 0
    );
    assert_eq!(metrics.per_backend.for_kind(BackendKind::TpmIma).failed, 0);

    (reports, metrics)
}

/// Scenario: all three backend families in one round, under partition
/// and attack. The trace — including which family failed, which
/// quarantined, and every per-backend counter — replays bit-identically
/// under a different worker count.
#[test]
fn heterogeneous_fleet_chaos_replays_across_worker_counts() {
    let (reports_seq, metrics_seq) = run_hetero_chaos(1);
    let (reports_par, metrics_par) = run_hetero_chaos(3);
    assert_eq!(reports_seq, reports_par);
    assert_eq!(metrics_seq.per_backend, metrics_par.per_backend);
    // The corpus is non-trivial: failures and unreachable rounds exist.
    assert!(reports_seq.iter().any(|r| r.failed_count() > 0));
    assert!(reports_seq.iter().any(|r| r.unreachable_count() > 0));
}
