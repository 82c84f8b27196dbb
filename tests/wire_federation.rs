//! Wire-transport scenario corpus: putting the binary RPC protocol —
//! codec, frames, batching, windowing, sockets — between the
//! federation coordinator and its shards must be an *observationally
//! invisible* deployment choice.
//!
//! - the federated trace is bit-identical across transports {in-proc,
//!   duplex channel, TCP loopback} × worker counts {1, 4, 8} × shard
//!   counts {1, 2, 4} under chaos;
//! - batching and windowing knobs (`wire_batch`, `wire_window`) are
//!   pure performance levers: any setting produces the same trace;
//! - a shard killed at round start is caught up over the same wire
//!   transport, and the kill trace equals the no-kill trace;
//! - a shard *added* to a live federation takes over exactly the agents
//!   consistent hashing assigns it, nobody else moves, and the
//!   before/after traces agree wherever placement is irrelevant.

use continuous_attestation::crypto::Sha256;
use continuous_attestation::keylime::Agent;
use continuous_attestation::prelude::*;

type ChaosCluster = Cluster<ChaosTransport<ReliableTransport>>;

const NODES: u64 = 12;
const ROUNDS: u64 = 8;

fn corpus_config(workers: usize, wire_batch: usize) -> VerifierConfig {
    VerifierConfig::builder()
        .continue_on_failure(true)
        .quarantine_enabled(true)
        .degraded_after(1)
        .quarantine_after(2)
        .reprobe_backoff_rounds(1)
        .reprobe_backoff_max_rounds(4)
        .max_retries(2)
        .worker_count(workers)
        .wire_batch(wire_batch)
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

/// Runs the chaos corpus federated over the given transport and knobs,
/// returning the full per-round reports (fleet *and* per-shard).
fn run_wired(
    workers: usize,
    shards: u32,
    transport_kind: ShardTransportKind,
    wire_batch: usize,
    wire_window: usize,
) -> Vec<FederatedRoundReport> {
    run_wired_killing(
        workers,
        shards,
        transport_kind,
        wire_batch,
        wire_window,
        None,
    )
}

/// [`run_wired`] with shard `kill.1` (if any) dying at the start of
/// round `kill.0`.
fn run_wired_killing(
    workers: usize,
    shards: u32,
    transport_kind: ShardTransportKind,
    wire_batch: usize,
    wire_window: usize,
    kill: Option<(u64, u32)>,
) -> Vec<FederatedRoundReport> {
    let config = corpus_config(workers, wire_batch);
    let (mut cluster, ids) = fleet_cluster(config);
    let mut fed = Federation::from_verifier(
        &cluster.verifier,
        FederationConfig::new(shards, config)
            .with_transport(transport_kind)
            .with_wire_window(wire_window),
    );

    let mut trace = Vec::new();
    for round in 0..ROUNDS {
        cluster.transport.set_round(round);
        let (agents, transport) = cluster.federation_parts();
        let report = match kill {
            Some((kill_round, sid)) if kill_round == round => {
                let (report, migrated) = fed.run_round_with_kill(agents, transport, sid);
                assert!(!migrated.is_empty(), "the dead shard owned agents");
                report
            }
            _ => fed.run_round(agents, transport),
        };
        assert_eq!(
            report.fleet.results.len(),
            ids.len(),
            "round {round}: the wire lost agents"
        );
        trace.push(report);
    }
    let fleet = fed.fleet_metrics();
    assert!(fleet.is_conserved(), "fleet metrics identity: {fleet:?}");
    trace
}

/// Tentpole acceptance: Duplex and TCP federated rounds return
/// bit-identical [`FederatedRoundReport`]s to the in-proc path, across
/// worker counts {1, 4, 8} × shard counts {1, 2, 4}.
#[test]
fn wire_transports_are_invisible_across_the_matrix() {
    let baseline = run_wired(1, 1, ShardTransportKind::InProc, 0, 2);
    for workers in [1usize, 4, 8] {
        for shards in [1u32, 2, 4] {
            let inproc = run_wired(workers, shards, ShardTransportKind::InProc, 0, 2);
            assert_eq!(
                fleet_of(&inproc),
                fleet_of(&baseline),
                "in-proc drifted at workers={workers} shards={shards}"
            );
            for kind in [ShardTransportKind::Duplex, ShardTransportKind::Tcp] {
                let wired = run_wired(workers, shards, kind, 0, 2);
                assert_eq!(
                    wired, inproc,
                    "{kind:?} diverged at workers={workers} shards={shards}"
                );
            }
        }
    }
}

fn fleet_of(trace: &[FederatedRoundReport]) -> Vec<&RoundReport> {
    trace.iter().map(|r| &r.fleet).collect()
}

/// `wire_batch` and `wire_window` are pure performance levers: frame
/// shapes change, observable behaviour does not. Batch 1 (one row per
/// frame), a tiny window, and a batch larger than the whole shard all
/// reproduce the default trace.
#[test]
fn batching_and_windowing_do_not_change_the_trace() {
    let baseline = run_wired(4, 2, ShardTransportKind::Duplex, 0, 2);
    for (batch, window) in [(1, 1), (3, 1), (3, 8), (1024, 2)] {
        let trace = run_wired(4, 2, ShardTransportKind::Duplex, batch, window);
        assert_eq!(trace, baseline, "batch={batch} window={window} diverged");
    }
    // And over real sockets.
    let tcp = run_wired(4, 2, ShardTransportKind::Tcp, 3, 2);
    assert_eq!(tcp, baseline);
}

/// A shard kill honours the configured transport: survivors' rounds
/// and the catch-up over the migrated agents both cross the wire, and
/// the fleet trace — kill round included — equals the in-proc kill
/// trace and the in-proc no-kill trace.
#[test]
fn shard_kill_over_the_wire_equals_the_no_kill_trace() {
    const KILL: Option<(u64, u32)> = Some((3, 0));
    let baseline = run_wired(1, 1, ShardTransportKind::InProc, 0, 2);
    for workers in [1usize, 4] {
        for shards in [2u32, 4] {
            for kind in [
                ShardTransportKind::InProc,
                ShardTransportKind::Duplex,
                ShardTransportKind::Tcp,
            ] {
                let killed = run_wired_killing(workers, shards, kind, 0, 2, KILL);
                assert_eq!(
                    fleet_of(&killed),
                    fleet_of(&baseline),
                    "{kind:?} kill trace diverged at workers={workers} shards={shards}"
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
    let config = corpus_config(2, 0);
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
        let config = corpus_config(4, 3);
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
