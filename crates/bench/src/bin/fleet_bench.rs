//! Federated fleet benchmark: federation scaling from 10k to 1M
//! simulated agents. Prints the `BENCH_fleet.json` document archived at
//! the repo root.
//!
//! `fleet_scaling` — confidential-VM fleets of 10k, 100k and 1M agents,
//! enrolled on one shared policy store and attested in a single
//! federated round across consistent-hash shards. Structural gates:
//! every agent appears in the merged report, every agent verifies, and
//! the fleet metrics snapshot is conserved.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cia-bench --bin fleet_bench [-- max_fleet]
//! ```
//!
//! `max_fleet` caps the scaling ladder (handy for smoke runs; the
//! archived document uses the full 1M rung).

use std::time::Instant;

use cia_keylime::{
    Cluster, ConfidentialVmConfig, Federation, FederationConfig, RuntimePolicy, VerifierConfig,
};

/// Fleet sizes for the scaling ladder, each with the shard counts it is
/// federated across. The 10k rung sweeps shard counts to show placement
/// cost; the big rungs use the 4-shard shape from the federation tests.
const LADDER: [(usize, &[u32]); 3] = [(10_000, &[1, 2, 4]), (100_000, &[4]), (1_000_000, &[4])];

/// One scaling rung: enrol `agents` confidential VMs on the shared
/// store, federate across `shards`, run one round, and report wall
/// times plus the structural gates.
fn fleet_rung(agents: usize, shards: u32) -> (f64, f64, f64) {
    let config = VerifierConfig::builder()
        .continue_on_failure(true)
        .build()
        .expect("bench config is valid");
    let mut cluster = Cluster::new(0xF1EE7, config);
    cluster.publish_policy(RuntimePolicy::new());

    let enroll_start = Instant::now();
    for i in 0..agents {
        cluster
            .add_confidential_vm_shared(ConfidentialVmConfig::new(format!("vm-{i:07}"), i as u64))
            .expect("enrolment over the reliable transport");
    }
    let enroll_s = enroll_start.elapsed().as_secs_f64();

    let mut fed =
        Federation::from_verifier(&cluster.verifier, FederationConfig::new(shards, config));
    assert_eq!(fed.agent_count(), agents);
    let (pool, transport) = cluster.federation_parts();

    let round_start = Instant::now();
    let report = fed.run_round(pool, transport);
    let round_s = round_start.elapsed().as_secs_f64();

    assert_eq!(
        report.fleet.results.len(),
        agents,
        "merged report conserves every agent"
    );
    assert_eq!(report.fleet.verified_count(), agents, "every VM verifies");
    assert_eq!(report.shard_count(), shards as usize);
    let metrics = fed.fleet_metrics();
    assert!(metrics.is_conserved(), "fleet counters conserve");

    (enroll_s, round_s * 1e3, agents as f64 / round_s)
}

fn main() {
    let max_fleet: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX);

    println!("{{");
    println!("  \"bench\": \"fleet_federation\",");
    println!("  \"machine\": \"container, scalar sha256 (forbid-unsafe, no SHA-NI)\",");
    println!("  \"fleet_scaling\": [");

    let rungs: Vec<(usize, u32)> = LADDER
        .iter()
        .filter(|(agents, _)| *agents <= max_fleet)
        .flat_map(|(agents, shards)| shards.iter().map(move |s| (*agents, *s)))
        .collect();
    for (ri, (agents, shards)) in rungs.iter().copied().enumerate() {
        let (enroll_s, round_ms, agents_per_s) = fleet_rung(agents, shards);
        let comma = if ri + 1 < rungs.len() { "," } else { "" };
        println!("    {{");
        println!("      \"agents\": {agents},");
        println!("      \"shards\": {shards},");
        println!("      \"enroll_s\": {enroll_s:.1},");
        println!("      \"round_ms\": {round_ms:.0},");
        println!("      \"agents_per_s\": {agents_per_s:.0},");
        println!("      \"all_verified\": true,");
        println!("      \"metrics_conserved\": true");
        println!("    }}{comma}");
    }

    println!("  ]");
    println!("}}");
}
