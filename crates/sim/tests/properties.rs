//! Property tests for the chaos harness: the simulation's determinism
//! and the scheduler's accounting hold for *arbitrary* seeded fault
//! plans, not just the hand-picked scenarios in the corpus.

use cia_sim::{deterministic_metrics, SimConfig, SimRunner, SimTransport};
use proptest::prelude::*;

use cia_keylime::{
    AgentId, ChaosTransport, Cluster, FaultEvent, FaultKind, FaultPlan, FaultTarget, Federation,
    FederationConfig, MetricsSnapshot, ReliableTransport, RuntimePolicy, ShardTransportKind,
    VerifierConfig,
};
use cia_os::MachineConfig;

const NODES: u64 = 4;
const ROUNDS: u64 = 8;

/// One arbitrary agent-targeted fault event inside the run window.
fn arb_event() -> impl Strategy<Value = FaultEvent> {
    let window = (0u64..ROUNDS, 1u64..4).prop_map(|(from, len)| (from, from + len));
    let target = prop_oneof![
        Just(FaultTarget::AllAgents),
        proptest::collection::vec(0..NODES, 1..3).prop_map(FaultTarget::lanes),
    ];
    let kind = prop_oneof![
        Just(FaultKind::Partition),
        (1u32..90).prop_map(|pct| FaultKind::Loss {
            rate: f64::from(pct) / 100.0,
        }),
        Just(FaultKind::Corrupt),
        Just(FaultKind::CrashRestart),
    ];
    (window, target, kind).prop_map(|((from_round, until_round), target, kind)| FaultEvent {
        from_round,
        until_round,
        target,
        kind,
    })
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), proptest::collection::vec(arb_event(), 0..5)).prop_map(|(seed, events)| {
        events
            .into_iter()
            .fold(FaultPlan::new(seed), |plan, e| plan.push(e))
    })
}

/// Enrols [`NODES`] agents on a chaos cluster and federates them into
/// `shards` shards sharing one policy store, driving shard rounds over
/// `transport_kind`.
fn federated_fleet(
    plan: FaultPlan,
    shards: u32,
    transport_kind: ShardTransportKind,
) -> (Cluster<SimTransport>, Federation, Vec<AgentId>) {
    let seed = plan.seed();
    let config = VerifierConfig::builder()
        .continue_on_failure(true)
        .quarantine_enabled(true)
        .max_retries(3)
        .worker_count(2)
        .build()
        .expect("valid config");
    let transport = ChaosTransport::new(ReliableTransport::new(), plan);
    let mut cluster = Cluster::with_transport(seed, config, transport);
    let mut ids = Vec::new();
    for i in 0..NODES {
        let machine = MachineConfig {
            hostname: AgentId::numbered("fed", i).into_string(),
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
        FederationConfig::new(shards, config).with_transport(transport_kind),
    );
    (cluster, fed, ids)
}

/// Drives [`ROUNDS`] federated rounds, killing one shard mid-run when
/// asked (and possible). Returns the fleet trace.
fn run_federation(
    cluster: &mut Cluster<SimTransport>,
    fed: &mut Federation,
    ids: &[AgentId],
    kill: bool,
) -> Vec<cia_keylime::RoundReport> {
    let mut trace = Vec::new();
    for round in 0..ROUNDS {
        let crashes = cluster.transport.plan().crashes_at(round, ids.len() as u64);
        for lane in crashes {
            cluster
                .agent_mut(&ids[lane as usize])
                .expect("enrolled")
                .restart()
                .expect("scripted reboot succeeds");
        }
        cluster.transport.set_round(round);
        if kill && round == ROUNDS / 2 && fed.shard_count() > 1 {
            fed.kill_shard(fed.shard_ids()[0]);
        }
        let (agents, transport) = cluster.federation_parts();
        trace.push(fed.run_round(agents, transport).fleet);
    }
    trace
}

/// Independent field-by-field addition of snapshots — deliberately NOT
/// [`MetricsSnapshot::merged`], so the proptest checks `merged` (which
/// `fleet_metrics` is built on) against plain arithmetic.
fn manual_sum(parts: &[MetricsSnapshot]) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    for s in parts {
        out.rounds += s.rounds;
        out.calls += s.calls;
        out.retries += s.retries;
        out.drops += s.drops;
        out.verified += s.verified;
        out.failed += s.failed;
        out.skipped_paused += s.skipped_paused;
        out.unreachable += s.unreachable;
        out.alerts += s.alerts;
        out.orphaned += s.orphaned;
        out.backoff_ms += s.backoff_ms;
        out.quarantine_skips += s.quarantine_skips;
        out.probes += s.probes;
        out.to_degraded += s.to_degraded;
        out.to_quarantined += s.to_quarantined;
        out.to_recovering += s.to_recovering;
        out.to_healthy += s.to_healthy;
        out.entries_evaluated += s.entries_evaluated;
        out.wire_bytes += s.wire_bytes;
        out.policy_check_ns += s.policy_check_ns;
        out.policy_epoch = out.policy_epoch.max(s.policy_epoch);
        out.policy_push_ns += s.policy_push_ns;
        out.delta_entries_applied += s.delta_entries_applied;
        out.per_backend.tpm_ima.verified += s.per_backend.tpm_ima.verified;
        out.per_backend.tpm_ima.failed += s.per_backend.tpm_ima.failed;
        out.per_backend.tpm_ima.unreachable += s.per_backend.tpm_ima.unreachable;
        out.per_backend.secure_world.verified += s.per_backend.secure_world.verified;
        out.per_backend.secure_world.failed += s.per_backend.secure_world.failed;
        out.per_backend.secure_world.unreachable += s.per_backend.secure_world.unreachable;
        out.per_backend.confidential_vm.verified += s.per_backend.confidential_vm.verified;
        out.per_backend.confidential_vm.failed += s.per_backend.confidential_vm.failed;
        out.per_backend.confidential_vm.unreachable += s.per_backend.confidential_vm.unreachable;
        for (i, &count) in s.latency_ns_buckets.iter().enumerate() {
            if out.latency_ns_buckets.len() <= i {
                out.latency_ns_buckets.resize(i + 1, 0);
            }
            out.latency_ns_buckets[i] += count;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite: for any seeded FaultPlan, two executions with
    /// different worker counts produce identical RoundReport sequences
    /// and identical final verifier health state — the failure trace is
    /// a pure function of (seed, plan), never of thread scheduling.
    #[test]
    fn trace_is_worker_count_invariant(
        plan in arb_plan(),
        quarantine in any::<bool>(),
    ) {
        let solo = SimRunner::new(
            SimConfig::new(NODES as usize, ROUNDS, plan.clone())
                .workers(1)
                .quarantine(quarantine),
        )
        .expect("enrolment over a clean registrar channel")
        .run();
        let pooled = SimRunner::new(
            SimConfig::new(NODES as usize, ROUNDS, plan)
                .workers(5)
                .quarantine(quarantine),
        )
        .expect("enrolment over a clean registrar channel")
        .run();

        prop_assert_eq!(&solo.rounds, &pooled.rounds);
        prop_assert_eq!(&solo.final_health, &pooled.final_health);
        prop_assert_eq!(&solo.metrics, &pooled.metrics);
    }

    /// Satellite: the MetricsSnapshot conservation identity holds under
    /// arbitrary drop/corruption interleavings — every transport call is
    /// accounted for by exactly one terminal outcome or one retry, and
    /// retry_rate stays in [0, 1]. (SimRunner::step also asserts this
    /// after every round; this test drives it across arbitrary plans and
    /// re-checks the final cumulative snapshot.)
    #[test]
    fn metrics_conservation_under_arbitrary_faults(
        plan in arb_plan(),
        quarantine in any::<bool>(),
        retries in 0u32..6,
    ) {
        let mut config = SimConfig::new(NODES as usize, ROUNDS, plan).quarantine(quarantine);
        config.max_retries = retries;
        let report = SimRunner::new(config)
            .expect("enrolment over a clean registrar channel")
            .run();

        let m = &report.metrics;
        prop_assert!(m.is_conserved(), "identity violated: {:?}", m);
        let rate = m.retry_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
        prop_assert!(m.retries <= m.calls, "a retry is itself a call");
        // Outcome totals match what the rounds reported.
        let verified: usize = report.rounds.iter().map(|r| r.verified_count()).sum();
        let unreachable: usize = report.rounds.iter().map(|r| r.unreachable_count()).sum();
        let q_skips: usize = report
            .rounds
            .iter()
            .map(|r| r.quarantine_skipped_count())
            .sum();
        prop_assert_eq!(m.verified as usize, verified);
        prop_assert_eq!(m.unreachable as usize, unreachable);
        prop_assert_eq!(m.quarantine_skips as usize, q_skips);
        // Stripping wall-clock fields is idempotent.
        prop_assert_eq!(&deterministic_metrics(m), m);
    }

    /// Satellite: for any seeded FaultPlan and shard count, the
    /// federation's fleet-level MetricsSnapshot is exactly the
    /// component-wise sum of the per-shard snapshots (checked against
    /// independent field-by-field arithmetic, not `merged` itself),
    /// every per-shard snapshot is conserved, and so is their sum —
    /// including across a mid-run shard kill, where the dead shard's
    /// counters must fold into the fleet view instead of vanishing.
    #[test]
    fn fleet_metrics_are_the_conserved_sum_of_shard_metrics(
        plan in arb_plan(),
        shards in 1u32..=4,
        kill in any::<bool>(),
    ) {
        let (mut cluster, mut fed, ids) =
            federated_fleet(plan.clone(), shards, ShardTransportKind::InProc);
        let trace = run_federation(&mut cluster, &mut fed, &ids, kill);
        for (round, report) in trace.iter().enumerate() {
            prop_assert_eq!(
                report.results.len(),
                ids.len(),
                "round {}: a shard round lost agents",
                round
            );
        }

        let per_shard: Vec<MetricsSnapshot> =
            fed.shard_metrics().into_iter().map(|(_, s)| s).collect();
        for snap in &per_shard {
            prop_assert!(snap.is_conserved(), "shard identity violated: {:?}", snap);
            prop_assert!(snap.backends_consistent());
        }
        let fleet = fed.fleet_metrics();
        prop_assert!(fleet.is_conserved(), "fleet identity violated: {:?}", fleet);
        prop_assert!(fleet.backends_consistent());

        let killed = kill && shards > 1;
        if !killed {
            // No kill: the fleet view is exactly the live shards' sum.
            prop_assert_eq!(&fleet, &manual_sum(&per_shard));
        } else {
            // With a kill the fleet view additionally carries the dead
            // shard's pre-kill counters: componentwise >= the live sum,
            // and the surplus itself satisfies the conservation identity
            // (it is the dead shard's own conserved snapshot).
            let live = manual_sum(&per_shard);
            prop_assert!(fleet.calls >= live.calls);
            prop_assert!(fleet.verified >= live.verified);
            prop_assert!(fleet.rounds >= live.rounds);
            let surplus_calls = fleet.calls + fleet.orphaned - live.calls - live.orphaned;
            let surplus_outcomes = (fleet.verified + fleet.failed + fleet.skipped_paused
                + fleet.unreachable + fleet.retries)
                - (live.verified + live.failed + live.skipped_paused
                    + live.unreachable + live.retries);
            prop_assert_eq!(surplus_calls, surplus_outcomes, "retired fold not conserved");
        }

        // And the fleet trace itself is shard-count invariant: the same
        // plan over one shard produces the identical per-round reports.
        let (mut solo_cluster, mut solo_fed, solo_ids) =
            federated_fleet(plan, 1, ShardTransportKind::InProc);
        let solo_trace = run_federation(&mut solo_cluster, &mut solo_fed, &solo_ids, false);
        prop_assert_eq!(trace, solo_trace);
    }

    /// Satellite: running shard rounds over the wire — binary codec,
    /// framed RPC, batched results over a duplex channel or a real TCP
    /// loopback socket — changes *nothing* in the accounting. For any
    /// seeded FaultPlan and shard count: the wired fleet
    /// trace is bit-identical to the in-proc trace, every shard snapshot
    /// stays conserved, and the fleet view is still the exact
    /// component-wise sum (frame bytes never leak into `wire_bytes`,
    /// which meters agent-facing quote payloads only).
    #[test]
    fn wire_transport_preserves_trace_and_conservation(
        plan in arb_plan(),
        shards in 1u32..=4,
        duplex in any::<bool>(),
    ) {
        let kind = if duplex {
            ShardTransportKind::Duplex
        } else {
            ShardTransportKind::Tcp
        };
        let (mut cluster, mut fed, ids) =
            federated_fleet(plan.clone(), shards, kind);
        let trace = run_federation(&mut cluster, &mut fed, &ids, false);

        let per_shard: Vec<MetricsSnapshot> =
            fed.shard_metrics().into_iter().map(|(_, s)| s).collect();
        for snap in &per_shard {
            prop_assert!(snap.is_conserved(), "shard identity violated: {:?}", snap);
            prop_assert!(snap.backends_consistent());
        }
        let fleet = fed.fleet_metrics();
        prop_assert!(fleet.is_conserved(), "fleet identity violated: {:?}", fleet);
        prop_assert_eq!(&fleet, &manual_sum(&per_shard));

        let (mut base_cluster, mut base_fed, base_ids) =
            federated_fleet(plan, shards, ShardTransportKind::InProc);
        let base_trace = run_federation(&mut base_cluster, &mut base_fed, &base_ids, false);
        prop_assert_eq!(trace, base_trace);
        // Wall-clock fields (policy timing, latency buckets) legitimately
        // differ run to run; every deterministic counter must not.
        prop_assert_eq!(
            deterministic_metrics(&fleet),
            deterministic_metrics(&base_fed.fleet_metrics())
        );
    }
}
