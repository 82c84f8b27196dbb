//! Fleet operation demo, in three acts:
//!
//! 1. the paper's deployment shape — one mirror-derived dynamic policy
//!    serving a small fleet with a mid-run compromise, detection, and
//!    revocation fan-out;
//! 2. the fleet engine at scale — 1,000 agents attested concurrently
//!    over a transport dropping 10% of all calls, with the retry,
//!    backoff and latency metrics printed from the scheduler's counters,
//!    then the same fleet re-sharded across a 4-shard verifier
//!    federation for a merged fleet-level round;
//! 3. chaos under a scripted FaultPlan — a quarter of the fleet
//!    partitions mid-run, the health state machine walks the victims
//!    through Degraded → Quarantined → Recovering → Healthy, and the
//!    quarantine cheap-skip's savings are printed against the same plan
//!    with the skip path off.
//!
//! Run: `cargo run --release -p cia-bench --bin fleet_demo`

use cia_core::experiments::{run_fleet, FleetConfig};
use cia_distro::StreamProfile;
use cia_keylime::{
    ChaosTransport, Cluster, FaultPlan, FaultTarget, Federation, FederationConfig, MetricsSnapshot,
    ReliableTransport, RuntimePolicy, VerifierConfig,
};
use cia_os::MachineConfig;
use std::time::Instant;

fn policy_fleet_act() {
    let config = FleetConfig {
        nodes: 12,
        days: 14,
        stream_profile: StreamProfile::small(99),
        install_every: 3,
        compromise: Some((7, 9)),
        seed: 99,
        drop_rate: 0.0,
        workers: 4,
        continue_on_failure: false,
        quarantine: false,
        shards: 1,
        shard_transport: cia_keylime::ShardTransportKind::InProc,
        wire_batch: 0,
    };
    println!(
        "== fleet: {} nodes, {} days, daily updates from one mirror ==\n",
        config.nodes, config.days
    );
    let report = run_fleet(config);

    println!(
        "attestations: {} ({} verified)",
        report.attestations, report.verified
    );
    println!(
        "false positives across the fleet: {}",
        report.false_positives.len()
    );
    for (node, day) in &report.detections {
        println!("compromise detected: {node} on day {day}");
    }
    println!(
        "revocation propagated to {}/12 subscribed nodes",
        report.revocations_seen
    );

    assert!(report.false_positives.is_empty());
    assert_eq!(report.detections.len(), 1);
    assert_eq!(report.revocations_seen, 12);
    println!("\none generator pass per day covered the whole fleet: zero FPs,");
    println!("the implanted node was caught on its compromise day and quarantined.");
}

fn engine_at_scale_act() {
    const FLEET: u64 = 1_000;
    const DROP_RATE: f64 = 0.10;
    const SHARDS: u32 = 4;

    let config = VerifierConfig::builder()
        .continue_on_failure(true) // the engine default posture (P2 fix)
        .max_retries(16)
        .retry_backoff_ms(10)
        .max_backoff_ms(1_000)
        .worker_count(
            // Floor at 4 so the pool is exercised even on single-core hosts.
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(4),
        )
        .build()
        .expect("demo config is valid");
    println!(
        "\n== fleet engine: {FLEET} agents, {:.0}% message loss, {} workers ==\n",
        DROP_RATE * 100.0,
        config.worker_count
    );

    let transport =
        ChaosTransport::new(ReliableTransport::new(), FaultPlan::lossy(2026, DROP_RATE));
    let mut cluster = Cluster::with_transport(7, config, transport);
    // One shared policy snapshot serves the whole fleet: enrolment takes
    // an Arc handle per agent instead of a policy copy, and a later
    // publish reaches all 1,000 agents as one epoch bump.
    cluster.publish_policy(RuntimePolicy::new());
    let enroll_start = Instant::now();
    for i in 0..FLEET {
        let machine = MachineConfig {
            hostname: format!("node-{i:04}"),
            seed: i,
            ..MachineConfig::default()
        };
        cluster
            .add_machine_shared(machine)
            .expect("enrolment retries through the loss");
    }
    println!("enrolled {FLEET} agents in {:?}", enroll_start.elapsed());

    let round_start = Instant::now();
    let report = cluster.attest_fleet();
    let elapsed = round_start.elapsed();

    assert_eq!(report.results.len() as u64, FLEET);
    assert!(report.all_reached(), "zero agents silently skipped");
    assert!(
        report.epoch_converged(),
        "every agent appraised the published epoch"
    );
    println!(
        "round complete in {elapsed:?}: {} verified, {} failed, {} unreachable (policy {})",
        report.verified_count(),
        report.failed_count(),
        report.unreachable_count(),
        report.policy_epoch
    );

    let metrics = cluster.scheduler.snapshot();
    println!("\nscheduler metrics:");
    println!("  calls:        {}", metrics.calls);
    println!("  drops:        {}", metrics.drops);
    println!("  retries:      {}", metrics.retries);
    println!("  retry rate:   {:.2}%", metrics.retry_rate() * 100.0);
    println!("  backoff (ms): {} (virtual)", metrics.backoff_ms);
    for p in [50.0, 90.0, 99.0] {
        if let Some(ns) = metrics.latency_percentile_ns(p) {
            println!("  p{p:.0} latency:  < {:.2} ms", ns as f64 / 1e6);
        }
    }
    assert!(metrics.retries > 0, "10% loss must be visible as retries");
    println!(
        "\nserialized snapshot: {}",
        serde_json::to_string(&metrics).expect("snapshot serializes")
    );

    // The same fleet, federated: re-shard the verifier across SHARDS
    // instances sharing one policy store and run the next round through
    // the coordinator. Lanes come from the fleet-wide sorted order, so
    // the drop pattern each agent sees is the one the single verifier
    // would have dealt it — in round 1: a new round draws new loss.
    println!("\n== federated: the same {FLEET} agents across {SHARDS} verifier shards ==\n");
    cluster.transport.set_round(1);
    let mut fed =
        Federation::from_verifier(&cluster.verifier, FederationConfig::new(SHARDS, config));
    let round_start = Instant::now();
    let report = cluster.attest_fleet_federated(&mut fed);
    let elapsed = round_start.elapsed();

    assert_eq!(report.fleet.results.len() as u64, FLEET);
    assert!(report.fleet.all_reached(), "zero agents silently skipped");
    let fleet_metrics = fed.fleet_metrics();
    assert!(fleet_metrics.is_conserved(), "{fleet_metrics:?}");
    println!(
        "federated round complete in {elapsed:?}: {} verified across {} shards",
        report.fleet.verified_count(),
        report.shard_count()
    );
    for (sid, shard_report) in &report.per_shard {
        println!(
            "  shard {sid}: {:>3} agents, {:>3} verified",
            shard_report.results.len(),
            shard_report.verified_count()
        );
    }
    println!(
        "fleet metrics (merged): {} calls, {} retries, {} drops — conserved",
        fleet_metrics.calls, fleet_metrics.retries, fleet_metrics.drops
    );
}

/// Runs the chaos plan for `rounds` rounds; returns the scheduler
/// metrics, printing a per-round health timeline when asked.
fn run_chaos_fleet(quarantine: bool, print_timeline: bool) -> MetricsSnapshot {
    const FLEET: u64 = 64;
    const ROUNDS: u64 = 24;
    const PARTITIONED: u64 = 16;

    let config = VerifierConfig::builder()
        .continue_on_failure(true)
        .max_retries(4)
        .retry_backoff_ms(10)
        .worker_count(4)
        .quarantine_enabled(quarantine)
        .degraded_after(1)
        .quarantine_after(2)
        .reprobe_backoff_rounds(2)
        .reprobe_backoff_max_rounds(8)
        .build()
        .expect("chaos demo config is valid");
    // A quarter of the fleet partitions for rounds 4..16; everything
    // replays exactly from this (seed, plan) pair.
    let plan = FaultPlan::new(27).partition(
        4..16,
        FaultTarget::lanes((0..PARTITIONED).collect::<Vec<_>>()),
    );
    let mut cluster = Cluster::with_transport(
        27,
        config,
        ChaosTransport::new(ReliableTransport::new(), plan),
    );
    cluster.publish_policy(RuntimePolicy::new());
    for i in 0..FLEET {
        let machine = MachineConfig {
            hostname: format!("node-{i:04}"),
            seed: i,
            ..MachineConfig::default()
        };
        cluster
            .add_machine_shared(machine)
            .expect("enrolment rides the clean pre-chaos rounds");
    }

    if print_timeline {
        println!("round  healthy degraded quarantined recovering  skips");
    }
    for round in 0..ROUNDS {
        cluster.transport.set_round(round);
        let report = cluster.attest_fleet();
        if print_timeline {
            println!(
                "{round:>5}  {:>7} {:>8} {:>11} {:>10}  {:>5}",
                report.health.healthy,
                report.health.degraded,
                report.health.quarantined,
                report.health.recovering,
                report.quarantine_skipped_count()
            );
        }
    }
    cluster.scheduler.snapshot()
}

fn chaos_act() {
    println!("\n== chaos: 64 agents, lanes 0-15 partitioned rounds 4..16 ==\n");
    let with_quarantine = run_chaos_fleet(true, true);
    let without = run_chaos_fleet(false, false);

    println!("\nquarantine cheap-skip vs full retry burn (same FaultPlan):");
    println!(
        "  calls:   {:>6} with quarantine, {:>6} without",
        with_quarantine.calls, without.calls
    );
    println!(
        "  skips:   {:>6} cheap quarantine skips, {:>6} probe polls",
        with_quarantine.quarantine_skips, with_quarantine.probes
    );
    println!(
        "  health:  {} quarantine entries, {} full recoveries",
        with_quarantine.to_quarantined, with_quarantine.to_healthy
    );
    assert!(with_quarantine.is_conserved() && without.is_conserved());
    assert!(
        with_quarantine.calls < without.calls,
        "the skip path must be cheaper"
    );
    println!("\nevery fault above replays bit-identically from seed 27 + the plan.");
}

fn main() {
    policy_fleet_act();
    engine_at_scale_act();
    chaos_act();
}
