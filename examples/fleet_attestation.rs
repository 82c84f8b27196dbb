//! A small cloud fleet under one verifier: ten machines attesting in
//! lockstep against one epoch-shared policy snapshot, one of them
//! compromised, secure payload bootstrap gated on attestation,
//! revocation fan-out, a fleet-wide delta push, a tamper-evident audit
//! trail, and a lossy network between the components.
//!
//! Run: `cargo run --example fleet_attestation`

use continuous_attestation::keylime::{Agent, MAX_RETRIES_LIMIT};
use continuous_attestation::prelude::*;

/// A link losing each direction of every call with probability `rate`.
fn link(rate: f64, seed: u64) -> ChaosTransport<ReliableTransport> {
    ChaosTransport::new(ReliableTransport::new(), FaultPlan::lossy(seed, rate))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A zero-loss link: reliable now, loss dialled in later.
    let mut cluster = Cluster::with_transport(1234, VerifierConfig::default(), link(0.0, 1234));

    // One baseline policy, published once into the shared store. Every
    // node enrolled below holds an `Arc` handle to this epoch-1 snapshot
    // — no per-agent policy copies.
    let baseline = VfsPath::new("/usr/bin/service")?;
    let service_v1: &[u8] = b"fleet service v1";
    let mut policy = RuntimePolicy::new();
    policy.allow(
        baseline.as_str(),
        HashAlgorithm::Sha256.digest(service_v1).to_hex(),
    );
    policy.exclude("/tmp");
    let epoch = cluster.publish_policy(policy);
    println!("published baseline policy as {epoch}");

    // Enrol ten identical nodes against the shared snapshot.
    let mut ids = Vec::new();
    for i in 0..10 {
        let config = MachineConfig {
            hostname: format!("node-{i:02}"),
            seed: i,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(&cluster.manufacturer, config);
        machine.write_executable(&baseline, service_v1)?;
        let id = cluster.add_agent_shared(Agent::new(machine))?;
        ids.push(id);
    }
    println!("enrolled {} nodes on {epoch}", ids.len());

    // Subscribe a peer system (e.g. a load balancer) to revocations, and
    // provision each node's bootstrap credentials — released only after a
    // clean attestation.
    let lb = cluster.revocation_bus.subscribe();
    for id in &ids {
        cluster.provision_payload(id, format!("creds-for-{id}").as_bytes())?;
    }

    // Every node runs its service; node-03 also runs something it should not.
    for id in &ids {
        let machine = cluster.agent_mut(id).unwrap().machine_mut();
        machine.exec(&baseline, ExecMethod::Direct)?;
    }
    {
        let machine = cluster.agent_mut(&ids[3]).unwrap().machine_mut();
        let implant = VfsPath::new("/usr/sbin/implant")?;
        machine.write_executable(&implant, b"c2 implant")?;
        machine.exec(&implant, ExecMethod::Direct)?;
    }

    // One concurrent engine round across the fleet: every node polled by
    // the scheduler's worker pool, nobody silently skipped.
    println!("\nattestation sweep (concurrent engine round):");
    let round = cluster.attest_fleet();
    for result in &round.results {
        let status = match &result.outcome {
            RoundOutcome::Verified { new_entries } => {
                format!("trusted ({new_entries} new entries)")
            }
            RoundOutcome::Failed { alerts } => {
                format!("FAILED: {:?}", alerts[0].kind)
            }
            RoundOutcome::SkippedPaused => "paused".to_string(),
            RoundOutcome::SkippedQuarantined { next_probe_in } => {
                format!("quarantined (reprobe in {next_probe_in} rounds)")
            }
            RoundOutcome::Unreachable { reason } => format!("UNREACHABLE: {reason}"),
            _ => "unknown outcome".to_string(),
        };
        println!("  {}: {status}", result.id);
    }
    assert!(round.all_reached());
    assert_eq!(cluster.status(&ids[3])?, AgentStatus::Paused);
    assert_eq!(cluster.status(&ids[4])?, AgentStatus::Trusted);

    // Payload gating: trusted nodes get their credentials, node-03 does not.
    assert!(cluster.collect_payload(&ids[4])?.is_some());
    assert!(cluster.collect_payload(&ids[3])?.is_none());
    println!("\npayloads released to trusted nodes only (node-03 withheld)");

    // The load balancer learned about the revocation...
    assert!(cluster
        .revocation_bus
        .subscriber(lb)
        .unwrap()
        .is_revoked(&ids[3]));
    println!("revocation for node-03 propagated to subscribers");

    // Day-2 operations: the mirror ships service v2. Distribution is one
    // typed delta — O(changed entries), not O(fleet × policy): the store
    // merges it into the shared snapshot once and every agent adopts the
    // new epoch as an Arc swap.
    let service_v2: &[u8] = b"fleet service v2";
    let delta = PolicyDelta {
        added: vec![(
            baseline.as_str().to_string(),
            HashAlgorithm::Sha256.digest(service_v2).to_hex(),
        )],
        ..PolicyDelta::default()
    };
    println!(
        "\ndelta push: {} bytes on the wire (the full document is {} bytes)",
        cluster.policy_push_wire_bytes(&delta),
        cluster.verifier.policy_store().policy().to_json().len()
    );
    let (epoch, applied) = cluster.publish_delta(&delta);
    println!("applied {applied} entry -> {epoch}, fleet-wide");

    // node-06 takes the update immediately; both service versions verify
    // during the update window.
    {
        let machine = cluster.agent_mut(&ids[6]).unwrap().machine_mut();
        machine.write_executable(&baseline, service_v2)?;
        machine.exec(&baseline, ExecMethod::Direct)?;
    }
    assert!(cluster.attest(&ids[6])?.is_verified());
    assert!(cluster.attest(&ids[7])?.is_verified());
    println!("node-06 on v2 and node-07 on v1 both verify under {epoch}");

    // ...and the audit chain holds the whole history, tamper-evidently.
    let head = cluster.audit.head().unwrap();
    continuous_attestation::keylime::AuditLog::verify_chain(
        cluster.audit.records(),
        cluster.audit.public_key(),
        Some(&head),
    )
    .expect("audit chain intact");
    println!("audit chain verified: {} records", cluster.audit.len());

    // The transport is a real boundary: under heavy loss, polls error out
    // and the verifier simply retries later — no state corruption.
    println!("\nsimulating 60% message loss...");
    cluster.transport = link(0.6, 99);
    let mut delivered = 0;
    let mut dropped = 0;
    for _ in 0..10 {
        match cluster.attest(&ids[0]) {
            Ok(_) => delivered += 1,
            Err(_) => dropped += 1,
        }
    }
    println!("polls delivered: {delivered}, dropped: {dropped}");
    assert!(delivered > 0, "some polls get through");
    assert_eq!(cluster.status(&ids[0])?, AgentStatus::Trusted);

    // The engine, by contrast, absorbs that loss with retries — the
    // scheduler's counters show the work it did. The default 3-retry
    // budget is sized for mild loss; at 60% per direction only one
    // attempt in six gets through, so the round gets the widest one.
    cluster.verifier.set_config(
        VerifierConfig::builder()
            .max_retries(MAX_RETRIES_LIMIT)
            .retry_backoff_ms(5)
            .worker_count(4)
            .continue_on_failure(true)
            .build()?,
    );
    let round = cluster.attest_fleet();
    assert!(round.all_reached(), "retries cover 60% loss");
    let metrics = cluster.scheduler.snapshot();
    println!(
        "engine round under 60% loss: {} calls, {} retries (all {} nodes reached)",
        metrics.calls,
        metrics.retries,
        round.results.len()
    );
    Ok(())
}
