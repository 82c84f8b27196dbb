//! End-to-end attestation flows through registrar, verifier, transport
//! and agent, including the P2 stop-on-failure semantics.

use cia_crypto::HashAlgorithm;
use cia_keylime::{
    AgentId, AgentStatus, AttestationOutcome, Cluster, FailureKind, KeylimeError, RuntimePolicy,
    Transport, TransportError, VerifierConfig,
};
use cia_os::{ExecMethod, MachineConfig};
use cia_vfs::VfsPath;
use serde::de::DeserializeOwned;
use serde::Serialize;

fn p(s: &str) -> VfsPath {
    VfsPath::new(s).unwrap()
}

/// A cluster with one machine and a policy covering `/usr/bin/good`.
fn one_node(config: VerifierConfig) -> (Cluster, AgentId, RuntimePolicy) {
    let mut cluster = Cluster::new(7, config);
    let mut policy = RuntimePolicy::new();
    policy.exclude("/tmp");

    let id = cluster
        .add_machine(MachineConfig::default(), RuntimePolicy::new())
        .unwrap();
    // Create the known-good binary and record its digest in the policy.
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.write_executable(&p("/usr/bin/good"), b"known good binary")
            .unwrap();
        let digest = m
            .vfs
            .file_digest(&p("/usr/bin/good"), HashAlgorithm::Sha256)
            .unwrap();
        policy.allow("/usr/bin/good", digest.to_hex());
    }
    cluster.verifier.update_policy(&id, policy.clone()).unwrap();
    (cluster, id, policy)
}

#[test]
fn clean_machine_attests_repeatedly() {
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    for _ in 0..5 {
        assert!(cluster.attest(&id).unwrap().is_verified());
    }
    assert_eq!(cluster.verifier.attestation_count(&id).unwrap(), 5);
}

#[test]
fn allowed_execution_passes() {
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    cluster
        .agent_mut(&id)
        .unwrap()
        .machine_mut()
        .exec(&p("/usr/bin/good"), ExecMethod::Direct)
        .unwrap();
    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Verified { new_entries } => {
            // boot_aggregate + the good binary.
            assert_eq!(new_entries, 2);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn unknown_executable_raises_not_in_policy() {
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    let m = cluster.agent_mut(&id).unwrap().machine_mut();
    m.write_executable(&p("/usr/bin/surprise"), b"not in policy")
        .unwrap();
    m.exec(&p("/usr/bin/surprise"), ExecMethod::Direct).unwrap();

    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Failed { alerts } => {
            assert!(matches!(
                &alerts[0].kind,
                FailureKind::NotInPolicy { path, .. } if path == "/usr/bin/surprise"
            ));
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(cluster.status(&id).unwrap(), AgentStatus::Paused);
}

#[test]
fn modified_binary_raises_hash_mismatch() {
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    let m = cluster.agent_mut(&id).unwrap().machine_mut();
    m.vfs
        .write_file(
            &p("/usr/bin/good"),
            b"TROJANED".to_vec(),
            cia_vfs::Mode::EXEC,
        )
        .unwrap();
    m.exec(&p("/usr/bin/good"), ExecMethod::Direct).unwrap();

    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Failed { alerts } => {
            assert!(matches!(
                &alerts[0].kind,
                FailureKind::HashMismatch { path, .. } if path == "/usr/bin/good"
            ));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn excluded_directory_never_alerts_p1() {
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    // /tmp is on ext4, so IMA measures it — but the policy excludes it.
    let m = cluster.agent_mut(&id).unwrap().machine_mut();
    m.write_executable(&p("/tmp/dropper"), b"malicious dropper")
        .unwrap();
    let report = m.exec(&p("/tmp/dropper"), ExecMethod::Direct).unwrap();
    assert!(!report.measured_paths.is_empty(), "IMA did measure it");

    assert!(
        cluster.attest(&id).unwrap().is_verified(),
        "Keylime skipped it (P1)"
    );
}

#[test]
fn p2_stop_on_failure_hides_later_entries() {
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        // Step 1: attacker triggers a benign false positive.
        m.write_executable(&p("/usr/bin/benign-unknown"), b"benign not in policy")
            .unwrap();
        m.exec(&p("/usr/bin/benign-unknown"), ExecMethod::Direct)
            .unwrap();
    }
    // Verifier pauses on the FP.
    assert!(matches!(
        cluster.attest(&id).unwrap(),
        AttestationOutcome::Failed { .. }
    ));
    assert_eq!(cluster.status(&id).unwrap(), AgentStatus::Paused);

    // Step 2: the actual attack runs while polling is paused.
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.write_executable(&p("/usr/bin/rootkit"), b"actual attack")
            .unwrap();
        m.exec(&p("/usr/bin/rootkit"), ExecMethod::Direct).unwrap();
    }
    // Polling is paused: nothing is even requested.
    assert_eq!(
        cluster.attest(&id).unwrap(),
        AttestationOutcome::SkippedPaused
    );

    // Operator resumes without fixing the policy: the same FP re-fires,
    // the rootkit entry behind it still unevaluated.
    cluster.verifier.resume(&id).unwrap();
    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Failed { alerts } => {
            assert_eq!(alerts.len(), 1, "only the first failing entry is seen");
            assert!(matches!(
                &alerts[0].kind,
                FailureKind::NotInPolicy { path, .. } if path == "/usr/bin/benign-unknown"
            ));
        }
        other => panic!("unexpected {other:?}"),
    }
    // No alert ever mentioned the rootkit.
    assert!(cluster
        .alerts(&id)
        .unwrap()
        .iter()
        .all(|a| !format!("{:?}", a.kind).contains("rootkit")));
}

#[test]
fn continue_on_failure_sees_everything() {
    let (mut cluster, id, _) = one_node(VerifierConfig {
        continue_on_failure: true,
        ..Default::default()
    });
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.write_executable(&p("/usr/bin/benign-unknown"), b"benign not in policy")
            .unwrap();
        m.exec(&p("/usr/bin/benign-unknown"), ExecMethod::Direct)
            .unwrap();
        m.write_executable(&p("/usr/bin/rootkit"), b"actual attack")
            .unwrap();
        m.exec(&p("/usr/bin/rootkit"), ExecMethod::Direct).unwrap();
    }
    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Failed { alerts } => {
            // BOTH the FP and the attack are reported (the P2 fix).
            assert_eq!(alerts.len(), 2);
            assert!(alerts.iter().any(
                |a| matches!(&a.kind, FailureKind::NotInPolicy { path, .. } if path == "/usr/bin/rootkit")
            ));
        }
        other => panic!("unexpected {other:?}"),
    }
    // Polling continues despite failures.
    assert!(matches!(
        cluster.attest(&id).unwrap(),
        AttestationOutcome::Verified { .. }
    ));
}

#[test]
fn reboot_restarts_attestation_cleanly() {
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    cluster
        .agent_mut(&id)
        .unwrap()
        .machine_mut()
        .exec(&p("/usr/bin/good"), ExecMethod::Direct)
        .unwrap();
    assert!(cluster.attest(&id).unwrap().is_verified());

    cluster
        .agent_mut(&id)
        .unwrap()
        .machine_mut()
        .reboot()
        .unwrap();
    // After reboot the log restarts; the verifier notices via boot_count
    // and re-verifies from scratch.
    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Verified { new_entries } => assert_eq!(new_entries, 1),
        other => panic!("unexpected {other:?}"),
    }
}

/// A transport whose far side answers one chosen call with an agent
/// error — a TPM too busy to quote.
struct BusyTpmTransport {
    requests: u64,
    /// The call, by its `requests` count, that gets the error.
    busy_at: Option<u64>,
}

impl Transport for BusyTpmTransport {
    fn call<Req, Resp>(
        &mut self,
        request: &Req,
        serve: impl FnOnce(Req) -> Resp,
    ) -> Result<Resp, TransportError>
    where
        Req: Serialize + DeserializeOwned,
        Resp: Serialize + DeserializeOwned,
    {
        let codec = |e: serde_json::Error| TransportError::Codec {
            reason: e.to_string(),
        };
        self.requests += 1;
        let wire_req = serde_json::to_string(request).map_err(codec)?;
        let decoded: Req = serde_json::from_str(&wire_req).map_err(codec)?;
        let mut wire_resp = serde_json::to_string(&serve(decoded)).map_err(codec)?;
        if self.busy_at == Some(self.requests) {
            wire_resp = r#"{"Error":{"reason":"tpm busy"}}"#.to_string();
        }
        serde_json::from_str(&wire_resp).map_err(codec)
    }

    fn requests(&self) -> u64 {
        self.requests
    }

    fn drops(&self) -> u64 {
        0
    }

    fn wire_bytes(&self) -> u64 {
        0
    }

    fn fork(&self, _lane: u64) -> Self {
        BusyTpmTransport {
            requests: 0,
            busy_at: None,
        }
    }
}

/// An agent's error answer surfaces with its reason whichever of a
/// poll's calls it answers: the quote, or the re-quote after a reboot.
#[test]
fn agent_error_keeps_its_reason_on_the_quote_and_the_requote() {
    let transport = BusyTpmTransport {
        requests: 0,
        busy_at: None,
    };
    let mut cluster = Cluster::with_transport(7, VerifierConfig::default(), transport);
    let id = cluster
        .add_machine(MachineConfig::default(), RuntimePolicy::new())
        .unwrap();
    assert!(cluster.attest(&id).unwrap().is_verified());
    let busy = KeylimeError::Agent {
        reason: "tpm busy".to_string(),
    };

    cluster.transport.busy_at = Some(cluster.transport.requests + 1);
    assert_eq!(cluster.attest(&id).unwrap_err(), busy);

    // A reboot makes the next poll two calls; the second one fails.
    cluster
        .agent_mut(&id)
        .unwrap()
        .machine_mut()
        .reboot()
        .unwrap();
    let requote = cluster.transport.requests + 2;
    cluster.transport.busy_at = Some(requote);
    assert_eq!(cluster.attest(&id).unwrap_err(), busy);
    assert_eq!(cluster.transport.requests, requote, "the re-quote was sent");

    // The poll after that re-quotes again and verifies from entry zero.
    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Verified { new_entries } => assert_eq!(new_entries, 1),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn resolve_by_skipping_gives_the_attacker_a_window() {
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.write_executable(&p("/usr/bin/benign-unknown"), b"fp trigger")
            .unwrap();
        m.exec(&p("/usr/bin/benign-unknown"), ExecMethod::Direct)
            .unwrap();
    }
    assert!(matches!(
        cluster.attest(&id).unwrap(),
        AttestationOutcome::Failed { .. }
    ));
    // Attack executes while the operator is still investigating.
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.write_executable(&p("/usr/bin/backdoor"), b"attack")
            .unwrap();
        m.exec(&p("/usr/bin/backdoor"), ExecMethod::Direct).unwrap();
    }
    // Operator "resolves" by skipping everything accumulated so far —
    // the backdoor execution is swallowed along with the FP.
    cluster.resolve(&id).unwrap();
    assert!(cluster.attest(&id).unwrap().is_verified());
    assert!(cluster
        .alerts(&id)
        .unwrap()
        .iter()
        .all(|a| !format!("{:?}", a.kind).contains("backdoor")));
}

#[test]
fn quote_forgery_detected() {
    // An agent whose TPM was re-keyed after registration (simulating AK
    // substitution) fails quote verification.
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1234);
        m.tpm.create_ak(&mut rng);
    }
    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Failed { alerts } => {
            assert!(matches!(alerts[0].kind, FailureKind::QuoteInvalid));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn multi_agent_cluster_attests_independently() {
    let mut cluster = Cluster::new(9, VerifierConfig::default());
    let mut ids = Vec::new();
    for i in 0..3 {
        let config = MachineConfig {
            hostname: format!("node-{i}"),
            seed: i as u64,
            ..MachineConfig::default()
        };
        ids.push(cluster.add_machine(config, RuntimePolicy::new()).unwrap());
    }
    // Compromise only node-1.
    {
        let m = cluster.agent_mut(&ids[1]).unwrap().machine_mut();
        m.write_executable(&p("/usr/bin/evil"), b"evil").unwrap();
        m.exec(&p("/usr/bin/evil"), ExecMethod::Direct).unwrap();
    }
    let outcomes: Vec<AttestationOutcome> =
        ids.iter().map(|id| cluster.attest(id).unwrap()).collect();
    assert!(outcomes[0].is_verified());
    assert!(matches!(outcomes[1], AttestationOutcome::Failed { .. }));
    assert!(outcomes[2].is_verified());
}

#[test]
fn direct_pcr_tamper_is_a_pcr_mismatch() {
    // An attacker with kernel access extends PCR 10 directly (or the TPM
    // glitches): the log no longer replays to the quoted value.
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.tpm
            .pcr_extend(
                HashAlgorithm::Sha256,
                10,
                HashAlgorithm::Sha256.digest(b"out-of-band extend"),
            )
            .unwrap();
    }
    match cluster.attest(&id).unwrap() {
        AttestationOutcome::Failed { alerts } => {
            assert!(matches!(alerts[0].kind, FailureKind::PcrMismatch));
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(cluster.status(&id).unwrap(), AgentStatus::Paused);
}

#[test]
fn policy_update_mid_stream_takes_effect() {
    // The dynamic-policy flow: a new binary alerts, the operator pushes a
    // policy containing it, the next poll passes.
    let (mut cluster, id, mut policy) = one_node(VerifierConfig::default());
    let new_tool = p("/usr/bin/new-tool");
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.write_executable(&new_tool, b"new tool v1").unwrap();
        m.exec(&new_tool, ExecMethod::Direct).unwrap();
    }
    assert!(matches!(
        cluster.attest(&id).unwrap(),
        AttestationOutcome::Failed { .. }
    ));

    // Push the updated policy; resume; the pending entry now passes.
    let digest = cluster
        .agent(&id)
        .unwrap()
        .machine()
        .vfs
        .file_digest(&new_tool, HashAlgorithm::Sha256)
        .unwrap();
    policy.allow(new_tool.as_str(), digest.to_hex());
    cluster.verifier.update_policy(&id, policy).unwrap();
    cluster.verifier.resume(&id).unwrap();
    assert!(cluster.attest(&id).unwrap().is_verified());
}

#[test]
fn update_window_retains_both_digests() {
    // §III-C consistency: during the update window both the old and the
    // new digest of a rewritten binary are in policy, so a machine that
    // executes either version stays trusted.
    let (mut cluster, id, mut policy) = one_node(VerifierConfig::default());
    let good = p("/usr/bin/good");

    // Execute v1 (already in policy).
    cluster
        .agent_mut(&id)
        .unwrap()
        .machine_mut()
        .exec(&good, ExecMethod::Direct)
        .unwrap();
    assert!(cluster.attest(&id).unwrap().is_verified());

    // The generator appends v2's digest while RETAINING v1's.
    let v2 = b"known good binary v2".to_vec();
    policy.allow("/usr/bin/good", HashAlgorithm::Sha256.digest(&v2).to_hex());
    cluster.verifier.update_policy(&id, policy.clone()).unwrap();

    // The machine upgrades and re-runs the tool: v2 passes too.
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.vfs.write_file(&good, v2, cia_vfs::Mode::EXEC).unwrap();
        m.exec(&good, ExecMethod::Direct).unwrap();
    }
    assert!(cluster.attest(&id).unwrap().is_verified());

    // Post-update dedup: only v2 remains; running a stale v1 now alerts.
    policy.dedup_retain(
        "/usr/bin/good",
        &HashAlgorithm::Sha256
            .digest(b"known good binary v2")
            .to_hex(),
    );
    cluster.verifier.update_policy(&id, policy).unwrap();
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.vfs
            .write_file(&good, b"known good binary".to_vec(), cia_vfs::Mode::EXEC)
            .unwrap();
        m.exec(&good, ExecMethod::Direct).unwrap();
    }
    assert!(matches!(
        cluster.attest(&id).unwrap(),
        AttestationOutcome::Failed { .. }
    ));
}

#[test]
fn audit_chain_records_every_outcome() {
    use cia_keylime::{AuditLog, AuditOutcome};

    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    assert!(cluster.attest(&id).unwrap().is_verified());
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.write_executable(&p("/usr/bin/rogue"), b"rogue").unwrap();
        m.exec(&p("/usr/bin/rogue"), ExecMethod::Direct).unwrap();
    }
    let _ = cluster.attest(&id).unwrap(); // Failed
    let _ = cluster.attest(&id).unwrap(); // SkippedPaused

    let outcomes: Vec<AuditOutcome> = cluster.audit.records().iter().map(|r| r.outcome).collect();
    assert_eq!(
        outcomes,
        vec![
            AuditOutcome::Verified,
            AuditOutcome::Failed,
            AuditOutcome::Skipped
        ]
    );
    // The chain verifies offline against the anchored head.
    let head = cluster.audit.head().unwrap();
    AuditLog::verify_chain(
        cluster.audit.records(),
        cluster.audit.public_key(),
        Some(&head),
    )
    .unwrap();
}

#[test]
fn payload_released_only_after_clean_attestation() {
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    cluster
        .provision_payload(&id, b"bootstrap-credentials")
        .unwrap();

    // Before any attestation: no payload.
    assert_eq!(cluster.collect_payload(&id).unwrap(), None);

    // After a clean attestation: released and decryptable.
    assert!(cluster.attest(&id).unwrap().is_verified());
    assert_eq!(
        cluster.collect_payload(&id).unwrap().as_deref(),
        Some(&b"bootstrap-credentials"[..])
    );
}

#[test]
fn payload_withheld_from_failing_machine() {
    let (mut cluster, id, _) = one_node(VerifierConfig::default());
    cluster
        .provision_payload(&id, b"bootstrap-credentials")
        .unwrap();
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.write_executable(&p("/usr/bin/implant"), b"implant")
            .unwrap();
        m.exec(&p("/usr/bin/implant"), ExecMethod::Direct).unwrap();
    }
    assert!(!cluster.attest(&id).unwrap().is_verified());
    // Compromised at first contact: the V share is never released.
    assert_eq!(cluster.collect_payload(&id).unwrap(), None);
}
