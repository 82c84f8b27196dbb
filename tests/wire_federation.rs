//! Wire-transport scenario corpus: putting the binary RPC protocol —
//! codec, frames, batching, windowing, sockets — between the
//! federation coordinator and its shards must be an *observationally
//! invisible* deployment choice.
//!
//! - the federated trace, and the audit chain the cluster seals from
//!   it, are bit-identical across transports {in-proc, duplex channel,
//!   TCP loopback} × worker counts {1, 4, 8} × shard counts {1, 2, 4}
//!   under chaos;
//! - a shard killed at round start is `kill_shard` followed by an
//!   ordinary round over the same wire transport, and the kill trace and
//!   audit head equal the no-kill ones;
//! - a shard *added* to a live federation takes over exactly the agents
//!   consistent hashing assigns it, nobody else moves, and the
//!   before/after traces agree wherever placement is irrelevant.

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

/// The same chaos plan as the sharding corpus: a partition window plus
/// background loss, so retries, quarantines and recoveries all cross
/// the wire.
fn corpus_plan() -> FaultPlan {
    FaultPlan::new(0xFED)
        .partition(2..5, FaultTarget::lanes([1, 7]))
        .loss(0..ROUNDS, FaultTarget::AllAgents, 0.2)
}

fn fleet_cluster(config: VerifierConfig) -> (ChaosCluster, Vec<AgentId>) {
    let tool = VfsPath::new("/usr/bin/service").unwrap();
    let content: &[u8] = b"federated service v1";
    let mut policy = RuntimePolicy::new();
    policy.allow(tool.as_str(), sha256_hex(content));
    policy.exclude("/tmp");

    let mut cluster = Cluster::with_transport(
        0xFED,
        config,
        ChaosTransport::new(ReliableTransport::new(), corpus_plan()),
    );
    cluster.publish_policy(policy);
    let mut ids = Vec::new();
    for i in 0..NODES {
        let machine_config = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: 800 + i,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&cluster.manufacturer, machine_config);
        machine.write_executable(&tool, content).unwrap();
        machine.exec(&tool, ExecMethod::Direct).unwrap();
        ids.push(cluster.add_agent_shared(Agent::new(machine)).unwrap());
    }
    ids.sort();
    (cluster, ids)
}

/// Runs the chaos corpus federated over the given transport, returning
/// the full per-round reports (fleet *and* per-shard) and the cluster's
/// audit head after the last round.
fn run_wired(
    workers: usize,
    shards: u32,
    transport_kind: ShardTransportKind,
) -> (Vec<FederatedRoundReport>, Option<Digest>) {
    run_wired_killing(workers, shards, transport_kind, None)
}

/// [`run_wired`] with shard `kill.1` (if any) dying at the start of
/// round `kill.0`: the shard is killed, then the round runs as usual.
/// Every round goes through [`Cluster::attest_fleet_federated`], which
/// seals it into the audit chain.
fn run_wired_killing(
    workers: usize,
    shards: u32,
    transport_kind: ShardTransportKind,
    kill: Option<(u64, u32)>,
) -> (Vec<FederatedRoundReport>, Option<Digest>) {
    let config = corpus_config(workers);
    let (mut cluster, ids) = fleet_cluster(config);
    let mut fed = Federation::from_verifier(
        &cluster.verifier,
        FederationConfig::new(shards, config).with_transport(transport_kind),
    );

    let mut trace = Vec::new();
    for round in 0..ROUNDS {
        cluster.transport.set_round(round);
        if let Some((_, sid)) = kill.filter(|&(at, _)| at == round) {
            let migrated = fed.kill_shard(sid);
            assert!(!migrated.is_empty(), "the dead shard owned agents");
        }
        let report = cluster.attest_fleet_federated(&mut fed);
        assert_eq!(
            report.fleet.results.len(),
            ids.len(),
            "round {round}: the wire lost agents"
        );
        trace.push(report);
    }
    let fleet = fed.fleet_metrics();
    assert!(fleet.is_conserved(), "fleet metrics identity: {fleet:?}");
    (trace, cluster.audit.head())
}

/// Tentpole acceptance: Duplex and TCP federated rounds return
/// bit-identical [`FederatedRoundReport`]s to the in-proc path, across
/// worker counts {1, 4, 8} × shard counts {1, 2, 4}, and the audit
/// chain sealed from them has the same head in every cell.
#[test]
fn wire_transports_are_invisible_across_the_matrix() {
    let (baseline, head) = run_wired(1, 1, ShardTransportKind::InProc);
    assert!(head.is_some(), "every round is sealed");
    for workers in [1usize, 4, 8] {
        for shards in [1u32, 2, 4] {
            let (inproc, inproc_head) = run_wired(workers, shards, ShardTransportKind::InProc);
            assert_eq!(
                fleet_of(&inproc),
                fleet_of(&baseline),
                "in-proc drifted at workers={workers} shards={shards}"
            );
            assert_eq!(
                inproc_head, head,
                "in-proc audit head drifted at workers={workers} shards={shards}"
            );
            for kind in [ShardTransportKind::Duplex, ShardTransportKind::Tcp] {
                let (wired, wired_head) = run_wired(workers, shards, kind);
                assert_eq!(
                    wired, inproc,
                    "{kind:?} diverged at workers={workers} shards={shards}"
                );
                assert_eq!(
                    wired_head, head,
                    "{kind:?} audit head diverged at workers={workers} shards={shards}"
                );
            }
        }
    }
}

fn fleet_of(trace: &[FederatedRoundReport]) -> Vec<&RoundReport> {
    trace.iter().map(|r| &r.fleet).collect()
}

/// A shard kill honours the configured transport: the round after the
/// kill crosses the wire to the survivors, which now hold the migrated
/// agents, and the fleet trace and audit head — kill round included —
/// equal the in-proc no-kill ones.
#[test]
fn shard_kill_over_the_wire_equals_the_no_kill_trace() {
    const KILL: Option<(u64, u32)> = Some((3, 0));
    let (baseline, head) = run_wired(1, 1, ShardTransportKind::InProc);
    for workers in [1usize, 4] {
        for shards in [2u32, 4] {
            for kind in [
                ShardTransportKind::InProc,
                ShardTransportKind::Duplex,
                ShardTransportKind::Tcp,
            ] {
                let (killed, killed_head) = run_wired_killing(workers, shards, kind, KILL);
                assert_eq!(
                    fleet_of(&killed),
                    fleet_of(&baseline),
                    "{kind:?} kill trace diverged at workers={workers} shards={shards}"
                );
                assert_eq!(
                    killed_head, head,
                    "{kind:?} kill audit head diverged at workers={workers} shards={shards}"
                );
            }
        }
    }
}

/// Satellite: a shard added to a live federation receives exactly the
/// agents whose ring placement now maps to it — everyone else stays
/// put — and the fleet stays whole.
#[test]
fn add_shard_moves_only_the_agents_the_ring_assigns_it() {
    let config = corpus_config(2);
    let (cluster, ids) = fleet_cluster(config);
    let mut fed = Federation::from_verifier(&cluster.verifier, FederationConfig::new(2, config));
    let before: Vec<(AgentId, u32)> = ids
        .iter()
        .map(|id| (id.clone(), fed.placement(id).unwrap()))
        .collect();

    let joined = 7u32;
    let migrated = fed.add_shard(joined);
    assert!(!migrated.is_empty(), "a joining shard takes over agents");
    assert!(fed.shard_ids().contains(&joined));
    assert_eq!(fed.shard_count(), 3);
    assert_eq!(fed.agent_count(), ids.len(), "no record lost joining");

    for (id, was) in &before {
        let now = fed.placement(id).expect("still placed");
        if migrated.contains(id) {
            assert_eq!(now, joined, "{id} migrated to the joining shard");
        } else {
            assert_eq!(now, *was, "{id} moved without being assigned");
        }
    }

    // Adding an already-live shard is a no-op.
    assert!(fed.add_shard(joined).is_empty());
    assert_eq!(fed.shard_count(), 3);
}

/// Satellite: rounds keep working — and metrics stay conserved — after
/// a shard joins mid-run, on the in-proc path and over the wire.
#[test]
fn rounds_stay_conserved_after_a_shard_joins_mid_run() {
    for kind in [
        ShardTransportKind::InProc,
        ShardTransportKind::Duplex,
        ShardTransportKind::Tcp,
    ] {
        let config = corpus_config(4);
        let (mut cluster, ids) = fleet_cluster(config);
        let mut fed = Federation::from_verifier(
            &cluster.verifier,
            FederationConfig::new(2, config).with_transport(kind),
        );

        for round in 0..ROUNDS {
            if round == 3 {
                let migrated = fed.add_shard(9);
                assert!(!migrated.is_empty(), "{kind:?}: the join was a no-op");
            }
            cluster.transport.set_round(round);
            let (agents, transport) = cluster.federation_parts();
            let report = fed.run_round(agents, transport);
            assert_eq!(
                report.fleet.results.len(),
                ids.len(),
                "{kind:?} round {round}: fleet report lost agents"
            );
            assert_eq!(report.fleet.health.total(), ids.len());
            if round >= 3 {
                assert!(
                    report.per_shard.iter().any(|(sid, _)| *sid == 9),
                    "{kind:?}: the joined shard reports rounds"
                );
            }
        }
        let fleet = fed.fleet_metrics();
        assert!(fleet.is_conserved(), "{kind:?}: {fleet:?}");
        assert!(fleet.backends_consistent());
    }
}
