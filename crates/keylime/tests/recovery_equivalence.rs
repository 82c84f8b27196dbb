//! The durability tentpole: recovery equivalence.
//!
//! Property: crash the verifier at an *arbitrary* journal record
//! boundary mid-round (plus an arbitrary torn tail), under an arbitrary
//! fault plan, rebuild it from the truncated journal, and resume — the
//! resumed round's report, the fleet's health, and every subsequent
//! round must be bit-identical to a twin verifier that never crashed.
//! Worker counts are drawn independently for the two verifiers, so the
//! property also pins journal/report determinism across {1, 4, 8}.

use cia_crypto::Sha256;
use cia_keylime::{
    Agent, ChaosTransport, Cluster, FaultPlan, FaultTarget, ReliableTransport, RuntimePolicy,
    VerifierConfig,
};
use cia_os::{ExecMethod, Machine, MachineConfig};
use cia_vfs::VfsPath;
use proptest::prelude::*;

type TestCluster = Cluster<ChaosTransport<ReliableTransport>>;

fn sha256_hex(content: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(content);
    h.finalize().to_hex()
}

fn config(workers: usize) -> VerifierConfig {
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

/// A fleet of `nodes` machines — all but the last on the shared store,
/// the last on a per-agent override — each having executed one measured
/// tool, with the shared policy published after enrolment.
fn build(seed: u64, plan: FaultPlan, workers: usize, nodes: u64) -> TestCluster {
    let tool = VfsPath::new("/usr/bin/service").unwrap();
    let content: &[u8] = b"fleet service v1";
    let mut policy = RuntimePolicy::new();
    policy.allow(tool.as_str(), sha256_hex(content));
    policy.exclude("/tmp");

    let mut cluster = Cluster::with_transport(
        seed,
        config(workers),
        ChaosTransport::new(ReliableTransport::new(), plan),
    );
    for i in 0..nodes {
        let machine_config = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: 100 + i,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&cluster.manufacturer, machine_config);
        machine.write_executable(&tool, content).unwrap();
        machine.exec(&tool, ExecMethod::Direct).unwrap();
        let id = if i == nodes - 1 {
            cluster
                .add_agent(Agent::new(machine), policy.clone())
                .unwrap()
        } else {
            cluster.add_agent_shared(Agent::new(machine)).unwrap()
        };
        let _ = id;
    }
    cluster.publish_policy(policy);
    cluster
}

/// Hostnames that begin with a journal key family's prefix: each key
/// loses its prefix exactly once on recovery, so every agent comes back
/// under its own name with its acked nonce counter and log cursor.
#[test]
fn a_hostname_with_a_journal_key_prefix_recovers_under_its_own_name() {
    let mut cluster = Cluster::with_transport(
        9,
        config(2),
        ChaosTransport::new(ReliableTransport::new(), FaultPlan::new(9)),
    );
    cluster.enable_durability().unwrap();
    for (seed, hostname) in (300u64..).zip(["agent/x", "agent/agent/y", "enrol/x"]) {
        let machine = MachineConfig {
            hostname: hostname.to_string(),
            seed,
            ..MachineConfig::default()
        };
        cluster.add_machine_shared(machine).unwrap();
    }
    cluster.publish_policy(RuntimePolicy::new());
    for round in 0..2 {
        cluster.transport.set_round(round);
        assert!(cluster.attest_fleet().all_reached());
    }
    cluster.check_durable_equivalence().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn crash_at_any_record_boundary_recovers_equivalently(
        seed in 0u64..500,
        nodes in 3u64..6,
        rounds_before in 0u64..3,
        subject_workers in prop_oneof![Just(1usize), Just(4usize), Just(8usize)],
        twin_workers in prop_oneof![Just(1usize), Just(4usize), Just(8usize)],
        cut_sel in any::<u64>(),
        torn in 0usize..5,
        loss in prop_oneof![Just(None), Just(Some(0.3)), Just(Some(0.6))],
        partition_lane in prop_oneof![Just(None), (0u64..3).prop_map(Some)],
    ) {
        let make_plan = || {
            let mut p = FaultPlan::new(seed ^ 0xc4a5);
            if let Some(rate) = loss {
                p = p.loss(0..rounds_before + 3, FaultTarget::AllAgents, rate);
            }
            if let Some(lane) = partition_lane {
                p = p.partition(1..rounds_before + 2, FaultTarget::lanes([lane]));
            }
            p
        };

        // The twin never crashes and never journals; the subject
        // journals everything and will crash mid-round.
        let mut twin = build(seed, make_plan(), twin_workers, nodes);
        let mut subject = build(seed, make_plan(), subject_workers, nodes);
        subject.enable_durability().unwrap();

        // Warm-up rounds: the durable run must already be report-equal.
        for round in 0..rounds_before {
            twin.transport.set_round(round);
            subject.transport.set_round(round);
            let expected = twin.attest_fleet();
            let got = subject.attest_fleet();
            prop_assert_eq!(got, expected, "durable round {} diverged pre-crash", round);
        }

        // The round that crashes. The twin completes it normally.
        let crash_round = rounds_before;
        twin.transport.set_round(crash_round);
        let twin_report = twin.attest_fleet();

        // The subject completes it too — then the crash image truncates
        // its journal at an arbitrary record boundary inside the round
        // (possibly before the round even started), plus a torn tail.
        let frames_before = subject.journal().unwrap().log().frame_count();
        subject.transport.set_round(crash_round);
        let _lost_with_the_crash = subject.attest_fleet();
        let frames_after = subject.journal().unwrap().log().frame_count();
        prop_assert!(frames_after > frames_before);
        let cut = frames_before + cut_sel % (frames_after - frames_before);
        let image = subject.journal().unwrap().log().crash_image(cut, torn);

        // Restart: rebuild the verifier from the truncated journal and
        // finish the round — resuming past the durably acked agents, or
        // rerunning it whole if the crash predates the start mark.
        let resume = subject.recover_from_image(image).unwrap();
        subject.transport.set_round(crash_round);
        let subject_report = match &resume {
            Some(plan) => subject.attest_fleet_resume(plan),
            None => subject.attest_fleet(),
        };
        prop_assert_eq!(
            subject_report,
            twin_report,
            "resumed round diverged (cut {} of {}..{}, resume: {})",
            cut,
            frames_before,
            frames_after,
            resume.is_some()
        );

        // No agent acked before the crash was re-attested: the resumed
        // report must carry the acked rows verbatim (checked above via
        // report equality) and the journal must now agree with memory.
        let equiv = subject.check_durable_equivalence();
        prop_assert!(
            equiv.is_ok(),
            "post-resume durable equivalence: {}",
            equiv.err().unwrap_or_default()
        );

        // The engine's conservation identity survives the partial
        // double-run (the crashed attempt's calls are real calls).
        prop_assert!(subject.scheduler.snapshot().is_conserved());

        // And the fleet keeps evolving identically after the recovery.
        twin.transport.set_round(crash_round + 1);
        subject.transport.set_round(crash_round + 1);
        let expected_next = twin.attest_fleet();
        let got_next = subject.attest_fleet();
        prop_assert_eq!(got_next, expected_next, "round after recovery diverged");
    }
}
