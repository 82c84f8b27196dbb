//! Federation scenario corpus: sharded verifier rounds must be an
//! *observationally invisible* deployment choice.
//!
//! - a one-shard federation reproduces the plain cluster trace bit for
//!   bit;
//! - the fleet trace is identical across worker counts {1, 4, 8} ×
//!   shard counts {1, 2, 4} under chaos;
//! - a shard killed at round start rebalances onto the survivors
//!   (consistent hashing moves only its agents) before the round runs,
//!   the merged report conserves every enrolled agent, and the whole
//!   kill trace equals the no-kill trace;
//! - all shards adopt policy from one shared store: a delta publishes
//!   once fleet-wide and every shard converges on the same epoch, while
//!   a quarantined agent shows up as the one row on the older epoch.

use continuous_attestation::crypto::Sha256;
use continuous_attestation::keylime::Agent;
use continuous_attestation::prelude::*;

type ChaosCluster = Cluster<ChaosTransport<ReliableTransport>>;

const NODES: u64 = 12;
const ROUNDS: u64 = 8;

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

fn sha256_hex(content: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(content);
    h.finalize().to_hex()
}

/// The corpus plan: a lane partition window plus background loss —
/// enough chaos that retries, quarantines and recoveries all happen.
fn corpus_plan() -> FaultPlan {
    FaultPlan::new(0xFED)
        .partition(2..5, FaultTarget::lanes([1, 7]))
        .loss(0..ROUNDS, FaultTarget::AllAgents, 0.2)
}

/// A fleet of [`NODES`] shared-store agents, each having run one
/// policy-approved tool, with the policy published at epoch 1.
fn fleet_cluster(workers: usize) -> (ChaosCluster, Vec<AgentId>) {
    let tool = VfsPath::new("/usr/bin/service").unwrap();
    let content: &[u8] = b"federated service v1";
    let mut policy = RuntimePolicy::new();
    policy.allow(tool.as_str(), sha256_hex(content));
    policy.exclude("/tmp");

    let mut cluster = Cluster::with_transport(
        0xFED,
        corpus_config(workers),
        ChaosTransport::new(ReliableTransport::new(), corpus_plan()),
    );
    cluster.publish_policy(policy);
    let mut ids = Vec::new();
    for i in 0..NODES {
        let config = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: 800 + i,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&cluster.manufacturer, config);
        machine.write_executable(&tool, content).unwrap();
        machine.exec(&tool, ExecMethod::Direct).unwrap();
        ids.push(cluster.add_agent_shared(Agent::new(machine)).unwrap());
    }
    ids.sort();
    (cluster, ids)
}

/// Runs the corpus federated: `shards` shards over the same fleet, with
/// shard `kill` (if any) dying at the start of its round. Returns the
/// fleet-level trace and the merged fleet metrics.
fn run_federated(
    workers: usize,
    shards: u32,
    kill: Option<(u64, u32)>,
) -> (Vec<RoundReport>, MetricsSnapshot) {
    let (mut cluster, ids) = fleet_cluster(workers);
    let mut fed = Federation::from_verifier(
        &cluster.verifier,
        FederationConfig::new(shards, corpus_config(workers)),
    );
    assert_eq!(fed.agent_count(), ids.len());

    let mut trace = Vec::new();
    for round in 0..ROUNDS {
        cluster.transport.set_round(round);
        if let Some((_, sid)) = kill.filter(|&(at, _)| at == round) {
            let migrated = fed.kill_shard(sid);
            assert!(!migrated.is_empty(), "the dead shard owned agents");
            assert!(!fed.shard_ids().contains(&sid), "dead shard left the ring");
            for id in &migrated {
                assert_ne!(fed.placement(id), Some(sid), "migrated off the corpse");
            }
        }
        let (agents, transport) = cluster.federation_parts();
        let report = fed.run_round(agents, transport);
        // Conservation: one result per enrolled agent, every round —
        // through the kill round included.
        assert_eq!(
            report.fleet.results.len(),
            ids.len(),
            "round {round}: fleet report lost agents"
        );
        let per_shard_total: usize = report.per_shard.iter().map(|(_, r)| r.results.len()).sum();
        assert_eq!(
            per_shard_total,
            ids.len(),
            "round {round}: shard split lost agents"
        );
        assert_eq!(report.fleet.health.total(), ids.len());
        trace.push(report.fleet);
    }

    let fleet = fed.fleet_metrics();
    assert!(fleet.is_conserved(), "fleet metrics identity: {fleet:?}");
    assert!(fleet.backends_consistent());
    (trace, strip_wall_clock(&fleet))
}

/// Runs the corpus on the plain (un-federated) cluster.
fn run_plain(workers: usize) -> (Vec<RoundReport>, MetricsSnapshot) {
    let (mut cluster, _ids) = fleet_cluster(workers);
    let mut trace = Vec::new();
    for round in 0..ROUNDS {
        cluster.transport.set_round(round);
        trace.push(cluster.attest_fleet());
    }
    let snap = cluster.scheduler.snapshot();
    assert!(snap.is_conserved());
    (trace, strip_wall_clock(&snap))
}

/// Zeroes the wall-clock-dependent fields (the contract of
/// `cia_sim::deterministic_metrics`, plus `policy_push_ns`: the corpus
/// publishes through the cluster before federating, so only the plain
/// run's scheduler ever meters a push).
fn strip_wall_clock(snapshot: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        policy_push_ns: 0,
        latency_ns_buckets: Vec::new(),
        ..snapshot.clone()
    }
}

/// A one-shard federation is the plain cluster, observationally: same
/// per-round reports, same conserved counters.
#[test]
fn one_shard_federation_equals_plain_cluster_trace() {
    let (plain_trace, plain_metrics) = run_plain(4);
    let (fed_trace, fed_metrics) = run_federated(4, 1, None);
    assert_eq!(fed_trace, plain_trace);
    assert_eq!(fed_metrics, plain_metrics);
    // The corpus is non-trivial: the partition actually bit.
    assert!(plain_trace.iter().any(|r| r.unreachable_count() > 0));
    assert!(plain_trace.iter().any(|r| r.quarantine_skipped_count() > 0));
}

/// Acceptance criterion: the fleet trace is a pure function of
/// `(seed, plan, membership)` — bit-identical across every worker count
/// × shard count combination — and so are the merged fleet metrics,
/// except `rounds`, which counts one round per shard per fleet round.
#[test]
fn fleet_trace_is_identical_across_worker_and_shard_counts() {
    let (baseline, baseline_metrics) = run_federated(1, 1, None);
    for workers in [1usize, 4, 8] {
        for shards in [1u32, 2, 4] {
            if (workers, shards) == (1, 1) {
                continue;
            }
            let (trace, metrics) = run_federated(workers, shards, None);
            assert_eq!(
                trace, baseline,
                "trace diverged at workers={workers} shards={shards}"
            );
            assert_eq!(
                metrics.rounds,
                baseline_metrics.rounds * u64::from(shards),
                "shard rounds at workers={workers} shards={shards}"
            );
            assert_eq!(
                MetricsSnapshot {
                    rounds: 0,
                    ..metrics
                },
                MetricsSnapshot {
                    rounds: 0,
                    ..baseline_metrics.clone()
                },
                "fleet metrics diverged at workers={workers} shards={shards}"
            );
        }
    }
}

/// Acceptance criterion: a shard killed at round start rebalances onto
/// the survivors and the merged trace — kill round included — equals
/// the no-kill trace, across worker counts {1,4,8} × shard counts {2,4}.
#[test]
fn shard_kill_trace_equals_no_kill_trace_across_the_matrix() {
    const KILL_ROUND: u64 = 3;
    let (baseline, _) = run_federated(1, 1, None);
    for workers in [1usize, 4, 8] {
        for shards in [2u32, 4] {
            let (trace, _) = run_federated(workers, shards, Some((KILL_ROUND, 0)));
            assert_eq!(
                trace, baseline,
                "kill trace diverged at workers={workers} shards={shards}"
            );
        }
    }
}

/// The kill moves *only* the dead shard's agents: everyone else keeps
/// their placement, and the survivors between them hold the whole fleet.
#[test]
fn shard_kill_moves_only_the_dead_shards_agents() {
    let (cluster, ids) = fleet_cluster(2);
    let mut fed = Federation::from_verifier(
        &cluster.verifier,
        FederationConfig::new(4, corpus_config(2)),
    );
    let before: Vec<(AgentId, u32)> = ids
        .iter()
        .map(|id| (id.clone(), fed.placement(id).unwrap()))
        .collect();
    let dead = before[0].1;
    let migrated = fed.kill_shard(dead);
    for (id, was) in &before {
        let now = fed.placement(id).expect("still placed");
        if *was == dead {
            assert!(migrated.contains(id), "{id} lived on the dead shard");
            assert_ne!(now, dead);
        } else {
            assert_eq!(now, *was, "{id} moved without living on the dead shard");
            assert!(!migrated.contains(id));
        }
    }
    assert_eq!(fed.shard_count(), 3);
    assert_eq!(fed.agent_count(), ids.len(), "no record lost in migration");
}

/// All shards adopt from the federation's one [`PolicyStore`]: a delta
/// publishes exactly once fleet-wide, every shard lands on the same
/// epoch, and after one round the whole fleet reports it.
#[test]
fn federation_publishes_policy_once_and_every_shard_converges() {
    let maint = VfsPath::new("/usr/local/bin/maint").unwrap();
    let maint_content: &[u8] = b"federated maintenance";
    let (mut cluster, ids) = fleet_cluster(2);
    let mut fed = Federation::from_verifier(
        &cluster.verifier,
        FederationConfig::new(3, corpus_config(2)),
    );
    assert_eq!(
        fed.store().epoch().as_u64(),
        1,
        "seeded from the source epoch"
    );

    // Rounds 0-1 clean, then the operator lands a delta once.
    for round in 0..2u64 {
        cluster.transport.set_round(round);
        let (agents, transport) = cluster.federation_parts();
        fed.run_round(agents, transport);
    }
    let (epoch, applied) = fed.publish_delta(&PolicyDelta {
        added: vec![(maint.as_str().to_string(), sha256_hex(maint_content))],
        ..PolicyDelta::default()
    });
    assert_eq!(epoch.as_u64(), 2);
    assert_eq!(applied, 1, "the delta applied once, not once per shard");

    // The fleet runs the newly-approved tool; every shard appraises it
    // against the same adopted snapshot and verifies.
    for id in &ids {
        let m = cluster.agent_mut(id).unwrap().machine_mut();
        m.write_executable(&maint, maint_content).unwrap();
        m.exec(&maint, ExecMethod::Direct).unwrap();
    }
    cluster.transport.set_round(6); // past every fault window
    let (agents, transport) = cluster.federation_parts();
    let report = fed.run_round(agents, transport);
    assert_eq!(report.fleet.policy_epoch, epoch);
    for (sid, shard_report) in &report.per_shard {
        assert_eq!(
            shard_report.policy_epoch, epoch,
            "shard {sid} diverged from the store epoch"
        );
    }
    assert_eq!(report.fleet.verified_count(), ids.len());
    assert!(report.fleet.epoch_converged());
}

/// A quarantined agent is not handed a push: after a federated delta it
/// is the one row still stamped with the epoch it last acknowledged, so
/// the round report alone shows who lags — and once its partition heals,
/// a round reconverges the whole fleet on the pushed epoch.
#[test]
fn a_quarantined_shard_agent_is_a_visible_laggard_after_a_federated_push() {
    const VICTIM_LANE: u64 = 5;
    let (mut cluster, ids) = fleet_cluster(2);
    // Lanes follow the sorted enrolment order; only the victim's lane is
    // faulted, partitioned for rounds 0-3.
    cluster.transport = ChaosTransport::new(
        ReliableTransport::new(),
        FaultPlan::new(0xFED).partition(0..4, FaultTarget::lanes([VICTIM_LANE])),
    );
    let victim = ids[VICTIM_LANE as usize].clone();
    let mut fed = Federation::from_verifier(
        &cluster.verifier,
        FederationConfig::new(3, corpus_config(2)),
    );
    let enrolment_epoch = fed.store().epoch();

    for round in 0..2u64 {
        cluster.transport.set_round(round);
        let (agents, transport) = cluster.federation_parts();
        fed.run_round(agents, transport);
    }
    assert_eq!(fed.fleet_health().quarantined, 1, "only the victim");

    let (epoch, _) = fed.publish_delta(&PolicyDelta {
        added: vec![("/usr/local/bin/maint".to_string(), sha256_hex(b"maint"))],
        ..PolicyDelta::default()
    });
    cluster.transport.set_round(2);
    let (agents, transport) = cluster.federation_parts();
    let report = fed.run_round(agents, transport);
    assert_eq!(report.fleet.policy_epoch, epoch);
    assert!(!report.fleet.epoch_converged(), "the skew is visible");
    let lagging: Vec<(&AgentId, PolicyEpoch)> = report
        .fleet
        .results
        .iter()
        .filter(|r| r.shared_policy && r.policy_epoch != epoch)
        .map(|r| (&r.id, r.policy_epoch))
        .collect();
    assert_eq!(lagging, vec![(&victim, enrolment_epoch)]);

    // The partition lifts at round 4; the victim's re-probe adopts the
    // pushed epoch and the fleet converges again.
    let mut healed = false;
    for round in 4..12u64 {
        cluster.transport.set_round(round);
        let (agents, transport) = cluster.federation_parts();
        if fed.run_round(agents, transport).fleet.epoch_converged() {
            healed = true;
            break;
        }
    }
    assert!(healed, "a healed round reconverges the fleet");
}
