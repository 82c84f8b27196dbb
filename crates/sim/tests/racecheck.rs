//! Happens-before race-detector scenarios (compiled only with
//! `--features lock-sanitizer`).
//!
//! Two layers:
//!
//! 1. The sim invariant suite stays green across worker counts — the
//!    per-round invariant check inside `SimRunner` asserts both a
//!    cycle-free lock graph *and* an empty race list after every round,
//!    so a single run here covers every audited access the round made.
//! 2. A two-shard federated round (including a mid-run shard kill that
//!    folds the dead shard's metrics into the coordinator's audited
//!    `retired` accumulator) records no unordered access: every
//!    `RaceCell` touch is ordered through instrumented locks or the
//!    scoped fork/join edges of the shard threads (an in-process round
//!    has no channel to carry an edge).
//!
//! Detector state is process-global, so tests serialize on a file-local
//! mutex and reset both recorders before driving traffic.

#![cfg(feature = "lock-sanitizer")]

use std::sync::{Mutex, MutexGuard, OnceLock};

use cia_keylime::{
    racecheck, sanitizer, AgentId, ChaosTransport, Cluster, FaultPlan, Federation,
    FederationConfig, ReliableTransport, RuntimePolicy, ShardTransportKind, VerifierConfig,
};
use cia_os::MachineConfig;
use cia_sim::{SimConfig, SimRunner, SimTransport};

fn serial() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Enrols four agents and federates them into two shards, with
/// `workers` appraisal workers per shard.
fn two_shard_fleet(workers: usize) -> (Cluster<SimTransport>, Federation, Vec<AgentId>) {
    let seed = 0x5eed_c10c;
    let config = VerifierConfig::builder()
        .continue_on_failure(true)
        .quarantine_enabled(true)
        .max_retries(3)
        .worker_count(workers)
        .build()
        .expect("valid config");
    let transport = ChaosTransport::new(ReliableTransport::new(), FaultPlan::new(seed));
    let mut cluster = Cluster::with_transport(seed, config, transport);
    let mut ids = Vec::new();
    for i in 0..4u64 {
        let machine = MachineConfig {
            hostname: AgentId::numbered("hb", i).into_string(),
            seed: seed ^ i.wrapping_mul(0x9e37_79b9),
            ..MachineConfig::default()
        };
        ids.push(
            cluster
                .add_machine(machine, RuntimePolicy::new())
                .expect("enrolment over a clean registrar channel"),
        );
    }
    ids.sort();
    let fed = Federation::from_verifier(
        &cluster.verifier,
        FederationConfig::new(2, config).with_transport(ShardTransportKind::InProc),
    );
    (cluster, fed, ids)
}

/// Layer 1: the full sim invariant suite — which asserts an empty race
/// list and a cycle-free lock graph after *every* round — passes at
/// each worker count. One worker serializes the round; four and eight
/// exercise real contention on the instrumented locks — the engine's
/// round queue among them — from the scoped worker threads.
#[test]
fn sim_invariants_hold_across_worker_counts() {
    let _s = serial();
    for workers in [1usize, 4, 8] {
        racecheck::reset();
        sanitizer::reset();
        let runner = SimRunner::new(SimConfig::new(4, 5, FaultPlan::new(17)).workers(workers))
            .expect("enrolment over a clean registrar channel");
        let report = runner.run();
        assert_eq!(report.rounds.len(), 5, "{workers} workers");
        let races = racecheck::races();
        assert!(races.is_empty(), "{workers} workers: {races:?}");
    }
}

/// Layer 2: a two-shard federated fleet drives rounds on scoped shard
/// threads, then kills a shard — folding its metrics into the audited
/// `retired` accumulator — and keeps going. No access to the pin
/// ledger or the accumulator may be unordered, at any worker count.
#[test]
fn two_shard_federated_round_is_race_and_cycle_free() {
    let _s = serial();
    for workers in [1usize, 4, 8] {
        racecheck::reset();
        sanitizer::reset();
        let (mut cluster, mut fed, _ids) = two_shard_fleet(workers);
        for round in 0..4u64 {
            cluster.transport.set_round(round);
            let (agents, transport) = cluster.federation_parts();
            let report = if round == 2 {
                // Kill shard 0 mid-run: survivors round + migration +
                // catch-up sub-round, and the dead shard's snapshot is
                // folded into the coordinator's RaceCell accumulator.
                let victim = fed.shard_ids()[0];
                fed.run_round_with_kill(agents, transport, victim).0
            } else {
                fed.run_round(agents, transport)
            };
            assert_eq!(report.fleet.results.len(), 4, "{workers} workers");
        }
        // Reading fleet metrics touches the audited accumulator once
        // more from the coordinator thread.
        let snap = fed.fleet_metrics();
        assert!(snap.rounds > 0);
        let cycles = sanitizer::cycles();
        assert!(cycles.is_empty(), "{workers} workers: {cycles:?}");
        let races = racecheck::races();
        assert!(races.is_empty(), "{workers} workers: {races:?}");
    }
}
