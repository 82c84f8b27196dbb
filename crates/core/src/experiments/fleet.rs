//! Fleet operation: the paper's target deployment shape.
//!
//! The point of dynamic policy generation is that *one* mirror-derived
//! policy serves an entire fleet: every machine installs from the same
//! mirror, so one generator pass covers all of them. This experiment runs
//! N machines under a shared policy with daily updates and verifies the
//! properties a cloud operator needs simultaneously:
//!
//! 1. **no false positives anywhere** in the fleet under benign churn;
//! 2. **a compromised node is detected and revoked** without disturbing
//!    the others;
//! 3. **nobody is silently skipped**, even when the transport drops a
//!    fraction of all calls — the fleet engine retries with backoff and
//!    reports unreachable agents explicitly.
//!
//! The daily attestation sweep runs through the concurrent
//! [`cia_keylime::FleetScheduler`] worker pool (via
//! [`Cluster::attest_fleet`]), so this experiment also exercises the
//! engine at deployment scale.

use cia_distro::{Mirror, ReleaseStream, StreamProfile};
use cia_keylime::{
    Agent, AgentId, AgentStatus, Alert, ChaosTransport, Cluster, FaultPlan, Federation,
    FederationConfig, HealthCounts, MetricsSnapshot, ReliableTransport, RoundOutcome,
    ShardTransportKind, VerifierConfig,
};
use cia_os::{ExecMethod, Machine, MachineConfig};
use cia_vfs::VfsPath;

use crate::generator::{DynamicPolicyGenerator, GeneratorConfig};

/// Configuration of the fleet experiment.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of machines.
    pub nodes: usize,
    /// Days to run.
    pub days: u32,
    /// Release-stream profile.
    pub stream_profile: StreamProfile,
    /// Install every Nth mirrored package on each machine.
    pub install_every: usize,
    /// `(node index, day)` on which an implant lands, if any.
    pub compromise: Option<(usize, u32)>,
    /// Cluster seed.
    pub seed: u64,
    /// Fraction of transport calls dropped (0.0 = reliable).
    pub drop_rate: f64,
    /// Fleet-scheduler worker threads.
    pub workers: usize,
    /// The paper's P2 fix: evaluate everything, never pause polling.
    pub continue_on_failure: bool,
    /// Quarantine cheap-skip for persistently unreachable agents (the
    /// health state machine always *tracks*; this gates the skip path).
    pub quarantine: bool,
    /// Verifier shards the daily sweep is federated across (1 = a
    /// single verifier, the classic shape). With more, the fleet is
    /// split by consistent-hash placement, each shard runs its own
    /// worker pool, and policy publishes go through the shared store
    /// exactly once — detections, verification counts, and reachability
    /// are identical to the single-verifier run.
    pub shards: u32,
    /// The coordinator↔shard transport federated sweeps run over:
    /// in-proc (the classic shape), an in-memory duplex wire, or a TCP
    /// loopback socket. Ignored when `shards == 1`.
    pub shard_transport: ShardTransportKind,
    /// Result rows per RPC frame on wire transports (0 = the wire
    /// layer's default batch). Ignored in-proc.
    pub wire_batch: usize,
}

impl FleetConfig {
    /// A test-scale fleet over a reliable transport, with stock
    /// (stop-on-failure) verifier semantics.
    pub fn small(seed: u64) -> Self {
        FleetConfig {
            nodes: 5,
            days: 8,
            stream_profile: StreamProfile::small(seed),
            install_every: 3,
            compromise: Some((2, 4)),
            seed,
            drop_rate: 0.0,
            workers: 4,
            continue_on_failure: false,
            quarantine: false,
            shards: 1,
            shard_transport: ShardTransportKind::InProc,
            wire_batch: 0,
        }
    }

    /// A lossy variant of [`FleetConfig::small`] running the engine
    /// posture: 10% message loss, continue-on-failure on.
    pub fn small_lossy(seed: u64) -> Self {
        FleetConfig {
            drop_rate: 0.10,
            continue_on_failure: true,
            ..FleetConfig::small(seed)
        }
    }
}

/// The experiment's outcome.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Alerts not attributable to the implant (must be empty).
    pub false_positives: Vec<Alert>,
    /// `(node, day)` pairs where the implant was alerted on.
    pub detections: Vec<(AgentId, u32)>,
    /// Per-node revocation views: how many of the other nodes learned of
    /// each revocation.
    pub revocations_seen: usize,
    /// Total polls (one per enrolled agent per day — nothing skipped).
    pub attestations: u64,
    /// Clean polls.
    pub verified: u64,
    /// Polls the engine could not complete within the retry budget.
    pub unreachable: u64,
    /// Rounds skipped cheaply because the agent sat in quarantine.
    pub quarantine_skips: u64,
    /// Per-state fleet health counts at the end of the run.
    pub health: HealthCounts,
    /// The fleet engine's accumulated metrics (retries, drops, backoff,
    /// latency histogram) across all sweeps.
    pub metrics: MetricsSnapshot,
}

/// Runs the fleet experiment.
///
/// # Panics
///
/// Panics on internal simulator errors (deterministic by construction).
pub fn run_fleet(config: FleetConfig) -> FleetReport {
    let (mut stream, mut repo) = ReleaseStream::new(config.stream_profile.clone());
    let mut mirror = Mirror::new();
    mirror.sync(&repo, 0);

    let (mut generator, _) = DynamicPolicyGenerator::generate_initial(
        &mirror,
        "5.15.0-76",
        0,
        GeneratorConfig::paper_default(),
    );

    let verifier_config = VerifierConfig::builder()
        .continue_on_failure(config.continue_on_failure)
        .quarantine_enabled(config.quarantine)
        .max_retries(16)
        .retry_backoff_ms(5)
        .worker_count(config.workers.max(1))
        .wire_batch(config.wire_batch)
        .build()
        .expect("fleet verifier config is valid");
    let transport = ChaosTransport::new(
        ReliableTransport::new(),
        FaultPlan::lossy(config.seed ^ 0x10a11, config.drop_rate),
    );
    let mut cluster = Cluster::with_transport(config.seed, verifier_config, transport);
    // One shared policy serves the whole fleet: publish it once, then
    // every enrolment is an `Arc` handle onto the same snapshot.
    cluster.publish_policy(generator.policy().clone());
    // One revocation subscriber per node (each node watches the bus).
    let subscribers: Vec<usize> = (0..config.nodes)
        .map(|_| cluster.revocation_bus.subscribe())
        .collect();

    let mut ids = Vec::new();
    for n in 0..config.nodes {
        let mut machine = Machine::new(
            &cluster.manufacturer,
            MachineConfig {
                hostname: format!("fleet-{n:02}"),
                seed: config.seed ^ n as u64,
                ..MachineConfig::default()
            },
        );
        let installed: Vec<_> = mirror
            .packages()
            .enumerate()
            .filter(|(i, p)| i % config.install_every == 0 && !p.is_kernel)
            .map(|(_, p)| p.clone())
            .collect();
        for pkg in &installed {
            machine.apt.install(&mut machine.vfs, pkg).unwrap();
        }
        let id = cluster.add_agent_shared(Agent::new(machine)).unwrap();
        ids.push(id);
    }

    // Federated shape: re-shard the enrolled verifier across
    // `config.shards` instances sharing one policy store. From here on,
    // policy publishes and sweeps go through the federation; the cluster
    // keeps owning the machines, audit chain, and revocation bus.
    let mut federation = (config.shards > 1).then(|| {
        Federation::from_verifier(
            &cluster.verifier,
            FederationConfig::new(config.shards, verifier_config)
                .with_transport(config.shard_transport),
        )
    });

    let implant_path = "/usr/sbin/implant";
    let mut report = FleetReport::default();

    for day in 1..=config.days {
        // Each day's sweep is its own round of the fault plan, so it
        // draws its own loss.
        cluster.transport.set_round(u64::from(day));
        // Shared mirror sync + one generator pass for the whole fleet;
        // distribution is one delta publish — O(changed entries), not
        // O(fleet × policy).
        repo.apply_release(&stream.next_day());
        let diff = mirror.sync(&repo, day);
        generator.apply_diff(&diff, day);
        let delta = generator.take_delta();
        match federation.as_mut() {
            // One store epoch fleet-wide; every shard adopts the same
            // snapshot Arc.
            Some(fed) => {
                fed.publish_delta(&delta);
            }
            None => {
                cluster.publish_delta(&delta);
            }
        }

        // Every node updates and works.
        for (n, id) in ids.iter().enumerate() {
            let upgraded: Vec<String> = {
                let m = cluster.agent_mut(id).unwrap().machine_mut();
                let packages: Vec<_> = mirror.packages().cloned().collect();
                let upgrade = m.run_updates(packages.iter()).unwrap();
                upgrade
                    .upgraded
                    .iter()
                    .map(|(name, _)| name.clone())
                    .collect()
            };
            let m = cluster.agent_mut(id).unwrap().machine_mut();
            for name in upgraded.iter().take(4) {
                if let Some(pkg) = repo.get(name) {
                    let path = VfsPath::new(&pkg.files[0].install_path).unwrap();
                    if m.vfs.is_file(&path) {
                        m.exec(&path, ExecMethod::Direct).unwrap();
                    }
                }
            }
            m.clock.next_day();

            // The compromise lands on its scheduled node and day.
            if config.compromise == Some((n, day)) {
                let implant = VfsPath::new(implant_path).unwrap();
                m.write_executable(&implant, b"c2 implant").unwrap();
                m.exec(&implant, ExecMethod::Direct).unwrap();
            }
        }
        generator.finish_update_window();

        // Concurrent attestation sweep: the whole fleet in one engine
        // round, retries and all. Every agent yields exactly one result.
        // Federated, each shard's round runs concurrently and the merged
        // report below is the fleet-level view.
        let round = match federation.as_mut() {
            Some(fed) => cluster.attest_fleet_federated(fed).fleet,
            None => cluster.attest_fleet(),
        };
        assert_eq!(round.results.len(), ids.len(), "no agent may go missing");
        // Every reachable agent must have adopted the day's epoch (only
        // quarantined agents legitimately pin the last one they acked).
        if round.health.quarantined == 0 {
            assert!(
                round.epoch_converged(),
                "fleet must converge to epoch {}",
                round.policy_epoch
            );
        }
        for result in &round.results {
            report.attestations += 1;
            match &result.outcome {
                RoundOutcome::Verified { .. } => report.verified += 1,
                RoundOutcome::Failed { alerts } => {
                    for alert in alerts {
                        let is_implant = format!("{:?}", alert.kind).contains(implant_path);
                        if is_implant {
                            report.detections.push((result.id.clone(), day));
                        } else {
                            report.false_positives.push(alert.clone());
                        }
                    }
                }
                RoundOutcome::SkippedPaused => {}
                RoundOutcome::SkippedQuarantined { .. } => report.quarantine_skips += 1,
                RoundOutcome::Unreachable { .. } => report.unreachable += 1,
                _ => {}
            }
        }
        report.health = round.health;

        // Only benign pauses get operator-resolved; a detected implant
        // keeps its node quarantined. (Resolution itself rides the lossy
        // transport, so give it the same retry budget the engine has.)
        for id in &ids {
            if cluster.status(id).unwrap() == AgentStatus::Paused
                && !report.detections.iter().any(|(d, _)| d == id)
            {
                let resolved = (0..=16).any(|_| cluster.resolve(id).is_ok());
                assert!(resolved, "resolution failed past the retry budget");
            }
        }
    }

    // How widely did the revocation propagate?
    if let Some((victim, _)) = config.compromise {
        let victim_id = &ids[victim];
        report.revocations_seen = subscribers
            .iter()
            .filter(|&&s| {
                cluster
                    .revocation_bus
                    .subscriber(s)
                    .map(|sub| sub.is_revoked(victim_id))
                    .unwrap_or(false)
            })
            .count();
    }
    report.metrics = match &federation {
        Some(fed) => fed.fleet_metrics(),
        None => cluster.scheduler.snapshot(),
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_detects_compromise_without_fps() {
        let report = run_fleet(FleetConfig::small(31));
        assert!(
            report.false_positives.is_empty(),
            "fleet must be FP-free: {:?}",
            report.false_positives
        );
        assert!(
            !report.detections.is_empty(),
            "the implant must be detected"
        );
        let (node, day) = &report.detections[0];
        assert_eq!(node, "fleet-02");
        assert_eq!(*day, 4);
        // Every node's subscriber learned about the revocation.
        assert_eq!(report.revocations_seen, 5);
        assert!(report.verified > 0);
        assert_eq!(report.unreachable, 0);
        // The engine ran one round per day.
        assert_eq!(
            report.metrics.rounds,
            u64::from(FleetConfig::small(31).days)
        );
        // Initial publish is epoch 1; one delta push per day follows.
        assert_eq!(
            report.metrics.policy_epoch,
            1 + u64::from(FleetConfig::small(31).days)
        );
        assert!(report.metrics.delta_entries_applied > 0);
    }

    #[test]
    fn clean_fleet_stays_green() {
        let mut config = FleetConfig::small(32);
        config.compromise = None;
        let report = run_fleet(config);
        assert!(report.false_positives.is_empty());
        assert!(report.detections.is_empty());
        assert_eq!(report.revocations_seen, 0);
        assert_eq!(report.attestations, report.verified);
    }

    #[test]
    fn compromised_node_stays_quarantined() {
        let report = run_fleet(FleetConfig::small(33));
        // The victim is detected exactly once and then paused for good —
        // quarantine means no repeated detections.
        assert_eq!(report.detections.len(), 1);
    }

    #[test]
    fn lossy_fleet_skips_nobody_and_retries_show_in_metrics() {
        let config = FleetConfig::small_lossy(34);
        let expected_polls = (config.nodes as u64) * u64::from(config.days);
        let report = run_fleet(config);

        // 10% loss, but the retry budget absorbs it completely: every
        // agent is attested every day, nothing silently skipped.
        assert_eq!(report.attestations, expected_polls);
        assert_eq!(report.unreachable, 0);
        assert!(report.false_positives.is_empty());
        assert!(
            !report.detections.is_empty(),
            "loss must not mask detection"
        );

        // The engine's work is visible in the registry.
        assert!(report.metrics.retries > 0, "10% loss must force retries");
        assert!(report.metrics.drops >= report.metrics.retries);
        assert!(report.metrics.backoff_ms > 0);
        assert!(report.metrics.calls >= expected_polls);
    }

    #[test]
    fn lossy_fleet_with_quarantine_keeps_everyone_healthy_and_conserved() {
        let mut config = FleetConfig::small_lossy(36);
        config.quarantine = true;
        let report = run_fleet(config);

        // 10% loss never exhausts a 16-retry budget, so nobody actually
        // quarantines — but the tracking runs and the books balance.
        assert_eq!(report.unreachable, 0);
        assert_eq!(report.quarantine_skips, 0);
        assert_eq!(report.health.healthy, report.health.total());
        assert_eq!(report.health.total(), 5);
        assert!(report.metrics.is_conserved(), "{:?}", report.metrics);
    }

    #[test]
    fn federated_fleet_matches_the_single_verifier_run() {
        let days = u64::from(FleetConfig::small(37).days);
        let base = run_fleet(FleetConfig::small_lossy(37));
        for shards in [2u32, 4] {
            let mut config = FleetConfig::small_lossy(37);
            config.shards = shards;
            let fed = run_fleet(config);

            // The sweep's observable outcome is shard-count independent:
            // same detections on the same days, same verification and
            // reachability counts, same revocation fan-out.
            assert_eq!(fed.detections, base.detections);
            assert_eq!(fed.verified, base.verified);
            assert_eq!(fed.attestations, base.attestations);
            assert_eq!(fed.unreachable, base.unreachable);
            assert_eq!(fed.revocations_seen, base.revocations_seen);
            assert!(fed.false_positives.is_empty());

            // The engine's work splits across shards but its total is
            // conserved: lane-deterministic faults mean the same calls,
            // retries, and drops as the single-verifier sweep.
            assert!(fed.metrics.is_conserved(), "{:?}", fed.metrics);
            assert_eq!(fed.metrics.calls, base.metrics.calls);
            assert_eq!(fed.metrics.retries, base.metrics.retries);
            assert_eq!(fed.metrics.drops, base.metrics.drops);
            // `rounds` counts shard rounds: one per shard per day.
            assert_eq!(fed.metrics.rounds, days * u64::from(shards));
        }
    }

    #[test]
    fn wire_transports_match_the_in_proc_federated_run() {
        let mut base_config = FleetConfig::small_lossy(38);
        base_config.shards = 2;
        let base = run_fleet(base_config);
        for transport in [ShardTransportKind::Duplex, ShardTransportKind::Tcp] {
            let mut config = FleetConfig::small_lossy(38);
            config.shards = 2;
            config.shard_transport = transport;
            config.wire_batch = 3; // force multi-frame result streams
            let wired = run_fleet(config);

            // Putting a codec + socket between coordinator and shard
            // changes *nothing observable*: every detection, count, and
            // metric matches the in-proc federated sweep bit-for-bit.
            assert_eq!(wired.detections, base.detections, "{transport:?}");
            assert_eq!(wired.verified, base.verified, "{transport:?}");
            assert_eq!(wired.attestations, base.attestations);
            assert_eq!(wired.unreachable, base.unreachable);
            assert!(wired.false_positives.is_empty());
            assert!(wired.metrics.is_conserved(), "{:?}", wired.metrics);
            assert_eq!(wired.metrics.calls, base.metrics.calls);
            assert_eq!(wired.metrics.retries, base.metrics.retries);
            assert_eq!(wired.metrics.drops, base.metrics.drops);
        }
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let a = run_fleet(FleetConfig::small_lossy(35));
        let b = run_fleet(FleetConfig::small_lossy(35));
        assert_eq!(a.detections, b.detections);
        assert_eq!(a.verified, b.verified);
        assert_eq!(a.metrics.retries, b.metrics.retries);
        assert_eq!(a.metrics.drops, b.metrics.drops);
    }
}
