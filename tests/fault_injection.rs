//! Fault injection: the attestation pipeline under message loss and
//! operational churn. Transport failures must never corrupt verifier
//! state — a dropped poll is indistinguishable from no poll.

use continuous_attestation::prelude::*;

/// A link losing each direction of every call with probability `rate`.
fn link(rate: f64, seed: u64) -> ChaosTransport<ReliableTransport> {
    ChaosTransport::new(ReliableTransport::new(), FaultPlan::lossy(seed, rate))
}

fn one_node(seed: u64) -> (Cluster<ChaosTransport<ReliableTransport>>, AgentId) {
    // A zero-loss link behaves like the reliable one while letting each
    // test dial the drop rate up and down mid-run.
    let mut cluster = Cluster::with_transport(seed, VerifierConfig::default(), link(0.0, seed));
    let id = cluster
        .add_machine(MachineConfig::default(), RuntimePolicy::new())
        .unwrap();
    (cluster, id)
}

#[test]
fn lossy_transport_never_corrupts_state() {
    let (mut cluster, id) = one_node(21);
    cluster.transport = link(0.5, 7);

    let mut verified = 0;
    let mut transport_errors = 0;
    for round in 0..50 {
        // Keep the machine busy so there are always new entries in flight.
        if round % 5 == 0 {
            let m = cluster.agent_mut(&id).unwrap().machine_mut();
            let path = VfsPath::new(&format!("/usr/local/bin/job-{round}")).unwrap();
            m.write_executable(&path, format!("job {round}").as_bytes())
                .unwrap();
            // Not in policy: but /usr/local/bin jobs are intentionally
            // not executed — only written. Writes alone are unmeasured.
        }
        match cluster.attest(&id) {
            Ok(outcome) => {
                assert!(
                    outcome.is_verified(),
                    "clean machine must verify whenever the poll gets through: {outcome:?}"
                );
                verified += 1;
            }
            Err(_) => transport_errors += 1,
        }
    }
    assert!(verified > 5, "some polls must succeed ({verified})");
    assert!(
        transport_errors > 5,
        "loss must actually occur ({transport_errors})"
    );
    assert_eq!(cluster.status(&id).unwrap(), AgentStatus::Trusted);

    // Back on a reliable network, everything is consistent.
    cluster.transport = link(0.0, 9);
    assert!(cluster.attest(&id).unwrap().is_verified());
}

#[test]
fn loss_during_incident_does_not_lose_the_alert() {
    let (mut cluster, id) = one_node(22);
    // The incident happens while the network is bad...
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        let mal = VfsPath::new("/usr/sbin/backdoor").unwrap();
        m.write_executable(&mal, b"backdoor").unwrap();
        m.exec(&mal, ExecMethod::Direct).unwrap();
    }
    cluster.transport = link(1.0, 3);
    for _ in 0..5 {
        assert!(cluster.attest(&id).is_err(), "total loss: no poll succeeds");
    }
    // ...the log is append-only, so the first successful poll sees it.
    cluster.transport = link(0.0, 9);
    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Failed { alerts } => {
            assert!(alerts
                .iter()
                .any(|a| format!("{:?}", a.kind).contains("backdoor")));
        }
        other => panic!("expected detection, got {other:?}"),
    }
}

#[test]
fn reboot_during_outage_is_handled_on_reconnect() {
    let (mut cluster, id) = one_node(23);
    assert!(cluster.attest(&id).unwrap().is_verified());

    // Network partition; the machine reboots and does fresh work.
    cluster.transport = link(1.0, 5);
    assert!(cluster.attest(&id).is_err());
    cluster
        .agent_mut(&id)
        .unwrap()
        .machine_mut()
        .reboot()
        .unwrap();
    assert!(cluster.attest(&id).is_err());

    // On reconnect the verifier sees the boot-count change, resets its
    // log cursor, and re-verifies the fresh log from scratch.
    cluster.transport = link(0.0, 9);
    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Verified { new_entries } => assert_eq!(new_entries, 1),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn double_reboot_between_polls() {
    let (mut cluster, id) = one_node(24);
    assert!(cluster.attest(&id).unwrap().is_verified());
    // Two reboots with activity in between; the verifier only ever sees
    // the final boot's log and must still replay it exactly.
    for round in 0..2 {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.reboot().unwrap();
        let path = VfsPath::new(&format!("/usr/bin/boot-{round}")).unwrap();
        m.write_executable(&path, format!("tool {round}").as_bytes())
            .unwrap();
        // Unexecuted: nothing beyond boot_aggregate gets measured.
    }
    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Verified { new_entries } => assert_eq!(new_entries, 1),
        other => panic!("unexpected {other:?}"),
    }
}

/// The paper's recovery path for a paused agent is "reboot, then a fresh
/// attestation". Resolving after the reboot must skip the *new* boot's
/// log from entry 0 — not fold it onto the previous boot's PCR and then
/// record the new boot counter, which hides the reboot from every later
/// poll and leaves the agent failing `PcrMismatch` forever.
#[test]
fn resolve_after_a_reboot_reverifies_the_new_boot() {
    let tools = ["/usr/bin/tool-a", "/usr/bin/tool-b"];
    let mut policy = RuntimePolicy::new();
    for tool in tools {
        policy.allow(tool, HashAlgorithm::Sha256.digest(tool.as_bytes()).to_hex());
    }
    let mut cluster = Cluster::with_transport(25, VerifierConfig::default(), link(0.0, 25));
    let id = cluster
        .add_machine(MachineConfig::default(), policy)
        .unwrap();
    let run = |cluster: &mut Cluster<ChaosTransport<ReliableTransport>>, path: &str| {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        let path = VfsPath::new(path).unwrap();
        m.write_executable(&path, path.as_str().as_bytes()).unwrap();
        m.exec(&path, ExecMethod::Direct).unwrap();
    };

    run(&mut cluster, tools[0]);
    assert!(cluster.attest(&id).unwrap().is_verified());
    run(&mut cluster, "/usr/bin/unknown");
    assert!(!cluster.attest(&id).unwrap().is_verified());
    assert_eq!(cluster.status(&id).unwrap(), AgentStatus::Paused);

    // The operator reboots the machine, it does fresh (allowed) work,
    // and only then is the pause resolved.
    let machine = cluster.agent_mut(&id).unwrap().machine_mut();
    machine.reboot().unwrap();
    run(&mut cluster, tools[1]);
    cluster.resolve(&id).unwrap();
    assert_eq!(cluster.status(&id).unwrap(), AgentStatus::Trusted);

    // The new boot's log so far was skipped; what is appended to it
    // from here on verifies.
    run(&mut cluster, tools[0]);
    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Verified { new_entries } => assert_eq!(new_entries, 1),
        other => panic!("unexpected {other:?}"),
    }
}
