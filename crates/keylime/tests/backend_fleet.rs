//! Heterogeneous-fleet integration tests for the pluggable attestation
//! backends.
//!
//! One scheduler round mixes TPM+IMA machines, secure-world (TrustZone
//! shape) devices and confidential VMs; the verifier appraises each
//! against its registrar-proven backend family. The suite covers:
//!
//! - a mixed fleet verifying cleanly with per-backend report and metric
//!   splits that refine the aggregates;
//! - worker-count invariance and chaos-corpus replay equality for mixed
//!   fleets;
//! - a per-backend attack/evasion corpus (implants, unapproved trusted
//!   apps, the measured-prefix coverage gap, normal-world tampering,
//!   launch-image substitution, history rewrites, backend-tag
//!   substitution, disallowed families);
//! - a golden-model property test pinning the TPM+IMA appraisal to the
//!   documented pre-refactor semantics, step by step.

use cia_crypto::{Digest, HashAlgorithm, Sha256, VerifyingKey};
use cia_ima::BOOT_AGGREGATE_NAME;
use cia_keylime::{
    Agent, AgentId, AgentRequest, AgentResponse, AgentStatus, AttestationOutcome, BackendError,
    BackendKind, ChaosTransport, Cluster, ConfidentialVmConfig, FailureKind, FaultPlan,
    FaultTarget, MetricsSnapshot, PolicyCheck, ReliableTransport, RoundReport, RuntimePolicy,
    SecureWorldConfig, Transport, TransportError, VerifierConfig,
};
use cia_os::{ExecMethod, MachineConfig};
use cia_tpm::pcr::extend_digest;
use cia_vfs::VfsPath;
use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::Serialize;

fn p(s: &str) -> VfsPath {
    VfsPath::new(s).unwrap()
}

const TA_PATH: &str = "/ta/keymaster";
const TA_CONTENT: &[u8] = b"trusted keymaster applet";
const CVM_SVC_PATH: &str = "/opt/svc/agentd";
const CVM_SVC_CONTENT: &[u8] = b"confidential service daemon";
const TPM_TOOL_PATH: &str = "/usr/bin/tool";
const TPM_TOOL_CONTENT: &[u8] = b"fleet-approved tool";

/// Agent ids of one mixed fleet, by backend family.
struct MixedFleet {
    tpm: Vec<AgentId>,
    sw: Vec<AgentId>,
    cvm: Vec<AgentId>,
}

impl MixedFleet {
    fn all(&self) -> impl Iterator<Item = &AgentId> {
        self.tpm.iter().chain(self.sw.iter()).chain(self.cvm.iter())
    }
}

/// Enrols `n` agents of each backend family with per-family policies
/// that cover the clean workload below.
fn enroll_mixed<T: Transport>(cluster: &mut Cluster<T>, n: usize) -> MixedFleet {
    let mut fleet = MixedFleet {
        tpm: Vec::new(),
        sw: Vec::new(),
        cvm: Vec::new(),
    };

    let mut sw_policy = RuntimePolicy::new();
    sw_policy.allow(TA_PATH, HashAlgorithm::Sha256.digest(TA_CONTENT).to_hex());
    let mut cvm_policy = RuntimePolicy::new();
    cvm_policy.allow(
        CVM_SVC_PATH,
        HashAlgorithm::Sha256.digest(CVM_SVC_CONTENT).to_hex(),
    );

    for i in 0..n {
        let machine = MachineConfig {
            hostname: format!("tpm-{i:02}"),
            seed: 100 + i as u64,
            ..MachineConfig::default()
        };
        let id = cluster.add_machine(machine, RuntimePolicy::new()).unwrap();
        let mut policy = RuntimePolicy::new();
        policy.exclude("/tmp");
        {
            let m = cluster.agent_mut(&id).unwrap().machine_mut();
            m.write_executable(&p(TPM_TOOL_PATH), TPM_TOOL_CONTENT)
                .unwrap();
            let digest = m
                .vfs
                .file_digest(&p(TPM_TOOL_PATH), HashAlgorithm::Sha256)
                .unwrap();
            policy.allow(TPM_TOOL_PATH, digest.to_hex());
        }
        cluster.verifier.update_policy(&id, policy).unwrap();
        fleet.tpm.push(id);

        let id = cluster
            .add_secure_world(
                SecureWorldConfig::new(format!("sw-{i:02}"), 200 + i as u64),
                sw_policy.clone(),
            )
            .unwrap();
        fleet.sw.push(id);

        let id = cluster
            .add_confidential_vm(
                ConfidentialVmConfig::new(format!("cvm-{i:02}"), 300 + i as u64),
                cvm_policy.clone(),
            )
            .unwrap();
        fleet.cvm.push(id);
    }
    fleet
}

/// Clean activity on every agent: the approved binary, trusted app and
/// measured service each family's policy covers.
fn run_clean_workload<T: Transport>(cluster: &mut Cluster<T>, fleet: &MixedFleet) {
    for id in &fleet.tpm {
        let m = cluster.agent_mut(id).unwrap().machine_mut();
        m.exec(&p(TPM_TOOL_PATH), ExecMethod::Direct).unwrap();
    }
    for id in &fleet.sw {
        let sw = cluster
            .agent_mut(id)
            .unwrap()
            .backend_mut()
            .as_secure_world_mut()
            .unwrap();
        assert!(sw.load_trusted_app(TA_PATH, TA_CONTENT), "covered load");
    }
    for id in &fleet.cvm {
        let cvm = cluster
            .agent_mut(id)
            .unwrap()
            .backend_mut()
            .as_confidential_vm_mut()
            .unwrap();
        cvm.exec_measured(CVM_SVC_PATH, CVM_SVC_CONTENT);
    }
}

fn alert_kinds(outcome: &AttestationOutcome) -> Vec<FailureKind> {
    match outcome {
        AttestationOutcome::Failed { alerts } => alerts.iter().map(|a| a.kind.clone()).collect(),
        _ => Vec::new(),
    }
}

/// A clean mixed round: every backend family verifies, and both the
/// round report and the metrics snapshot split correctly per backend.
#[test]
fn mixed_fleet_round_verifies_every_backend() {
    let config = VerifierConfig::builder().worker_count(3).build().unwrap();
    let mut cluster = Cluster::new(71, config);
    let fleet = enroll_mixed(&mut cluster, 2);
    run_clean_workload(&mut cluster, &fleet);

    let report = cluster.attest_fleet();
    assert_eq!(report.results.len(), 6);
    assert!(report.all_reached());
    assert_eq!(report.verified_count(), 6);
    for kind in BackendKind::ALL {
        assert_eq!(report.backend_count(kind), 2, "{kind:?} population");
        assert_eq!(report.verified_count_for(kind), 2, "{kind:?} verified");
        assert_eq!(report.failed_count_for(kind), 0, "{kind:?} failed");
    }
    // Each result carries the registrar-proven family.
    for id in &fleet.sw {
        let result = report.results.iter().find(|r| &r.id == id).unwrap();
        assert_eq!(result.backend, BackendKind::SecureWorld);
    }
    for id in &fleet.cvm {
        let result = report.results.iter().find(|r| &r.id == id).unwrap();
        assert_eq!(result.backend, BackendKind::ConfidentialVm);
    }

    let snapshot = cluster.scheduler.snapshot();
    assert!(snapshot.is_conserved());
    assert!(snapshot.backends_consistent());
    for kind in BackendKind::ALL {
        let counts = snapshot.per_backend.for_kind(kind);
        assert_eq!(counts.verified, 2, "{kind:?} verified split");
        assert_eq!(counts.failed, 0, "{kind:?} failed split");
        assert_eq!(counts.unreachable, 0, "{kind:?} unreachable split");
    }

    // The snapshot round-trips the per-backend split through the wire.
    let wire = serde_json::to_string(&snapshot).unwrap();
    let back: MetricsSnapshot = serde_json::from_str(&wire).unwrap();
    assert_eq!(back.per_backend, snapshot.per_backend);
}

/// Three mixed rounds (clean, attack, aftermath) under a given worker
/// count.
fn run_mixed_rounds(worker_count: usize) -> Vec<RoundReport> {
    let config = VerifierConfig::builder()
        .worker_count(worker_count)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(73, config);
    let fleet = enroll_mixed(&mut cluster, 2);

    let mut reports = Vec::new();
    run_clean_workload(&mut cluster, &fleet);
    reports.push(cluster.attest_fleet());

    // Round 2: one confidential VM relaunches from a tampered image.
    {
        let cvm = cluster
            .agent_mut(&fleet.cvm[0])
            .unwrap()
            .backend_mut()
            .as_confidential_vm_mut()
            .unwrap();
        cvm.relaunch_with_image(b"tampered guest image");
    }
    reports.push(cluster.attest_fleet());
    reports.push(cluster.attest_fleet());
    reports
}

/// The mixed-fleet round reports — outcomes, per-backend tags, attempt
/// counts — are identical under any worker count, and the mid-corpus
/// launch-substitution attack is detected in all of them.
#[test]
fn mixed_fleet_reports_are_worker_count_invariant() {
    let baseline = run_mixed_rounds(1);
    for workers in [2, 4, 8] {
        assert_eq!(baseline, run_mixed_rounds(workers), "workers={workers}");
    }
    assert_eq!(baseline[0].verified_count(), 6);
    assert_eq!(baseline[1].failed_count_for(BackendKind::ConfidentialVm), 1);
    assert_eq!(baseline[1].verified_count_for(BackendKind::TpmIma), 2);
    assert_eq!(baseline[1].verified_count_for(BackendKind::SecureWorld), 2);
}

/// TPM+IMA family: an implant executed on one machine is flagged as
/// NotInPolicy; the rest of the mixed fleet stays trusted.
#[test]
fn tpm_ima_implant_exec_is_detected() {
    let mut cluster = Cluster::new(77, VerifierConfig::default());
    let fleet = enroll_mixed(&mut cluster, 1);
    run_clean_workload(&mut cluster, &fleet);
    {
        let m = cluster.agent_mut(&fleet.tpm[0]).unwrap().machine_mut();
        m.write_executable(&p("/usr/bin/implant"), b"dropped implant")
            .unwrap();
        m.exec(&p("/usr/bin/implant"), ExecMethod::Direct).unwrap();
    }
    let outcome = cluster.attest(&fleet.tpm[0]).unwrap();
    assert!(
        alert_kinds(&outcome).iter().any(
            |k| matches!(k, FailureKind::NotInPolicy { path, .. } if path == "/usr/bin/implant")
        ),
        "implant must surface as NotInPolicy: {outcome:?}"
    );
    assert!(cluster.attest(&fleet.sw[0]).unwrap().is_verified());
    assert!(cluster.attest(&fleet.cvm[0]).unwrap().is_verified());
}

/// Secure world: an unapproved trusted app lands inside the measured
/// prefix, so the in-world agent measures it and the verifier flags it.
#[test]
fn secure_world_unapproved_app_is_detected() {
    let mut cluster = Cluster::new(79, VerifierConfig::default());
    let fleet = enroll_mixed(&mut cluster, 1);
    let id = &fleet.sw[0];
    {
        let sw = cluster
            .agent_mut(id)
            .unwrap()
            .backend_mut()
            .as_secure_world_mut()
            .unwrap();
        assert!(sw.load_trusted_app("/ta/evil", b"rogue applet"));
    }
    let outcome = cluster.attest(id).unwrap();
    assert!(
        alert_kinds(&outcome)
            .iter()
            .any(|k| matches!(k, FailureKind::NotInPolicy { path, .. } if path == "/ta/evil")),
        "unapproved TA must surface as NotInPolicy: {outcome:?}"
    );
    assert_eq!(cluster.status(id).unwrap(), AgentStatus::Paused);
}

/// Secure world, the paper's policy-coverage gap: a load outside the
/// measured prefixes produces no measurement at all, so attestation
/// keeps verifying — the evasion surface is the measurement policy, not
/// the appraisal.
#[test]
fn secure_world_unmeasured_load_evades_attestation() {
    let mut cluster = Cluster::new(83, VerifierConfig::default());
    let fleet = enroll_mixed(&mut cluster, 1);
    let id = &fleet.sw[0];
    {
        let sw = cluster
            .agent_mut(id)
            .unwrap()
            .backend_mut()
            .as_secure_world_mut()
            .unwrap();
        assert!(sw.load_trusted_app(TA_PATH, TA_CONTENT));
        let before = sw.measured_count();
        assert!(
            !sw.load_trusted_app("/vendor/firmware/blob", b"unmeasured payload"),
            "load outside the measured prefixes is not covered"
        );
        assert_eq!(sw.measured_count(), before, "no measurement recorded");
    }
    // The verifier has nothing to appraise: the agent stays trusted.
    assert!(cluster.attest(id).unwrap().is_verified());
    assert_eq!(cluster.status(id).unwrap(), AgentStatus::Trusted);
}

/// Secure world: the normal world cannot reach the measurement state —
/// the world-switch gate only exposes typed entry points.
#[test]
fn secure_world_state_is_gated_from_normal_world() {
    let mut cluster = Cluster::new(89, VerifierConfig::default());
    let fleet = enroll_mixed(&mut cluster, 1);
    let id = &fleet.sw[0];
    {
        let sw = cluster
            .agent_mut(id)
            .unwrap()
            .backend_mut()
            .as_secure_world_mut()
            .unwrap();
        assert!(sw.load_trusted_app(TA_PATH, TA_CONTENT));
        assert!(matches!(
            sw.tamper_from_normal_world(),
            Err(BackendError::Protected { .. })
        ));
    }
    assert!(cluster.attest(id).unwrap().is_verified());
}

/// Confidential VM: relaunching from a different image moves the quoted
/// launch register away from the enrolled pin — caught on the next poll.
#[test]
fn confidential_vm_relaunch_is_detected() {
    let mut cluster = Cluster::new(97, VerifierConfig::default());
    let fleet = enroll_mixed(&mut cluster, 1);
    let id = &fleet.cvm[0];
    assert!(cluster.attest(id).unwrap().is_verified());
    {
        let cvm = cluster
            .agent_mut(id)
            .unwrap()
            .backend_mut()
            .as_confidential_vm_mut()
            .unwrap();
        cvm.relaunch_with_image(b"attacker image");
    }
    let outcome = cluster.attest(id).unwrap();
    assert!(
        alert_kinds(&outcome)
            .iter()
            .any(|k| matches!(k, FailureKind::LaunchMeasurementMismatch)),
        "image substitution must surface as a launch mismatch: {outcome:?}"
    );
    assert_eq!(cluster.status(id).unwrap(), AgentStatus::Paused);
}

/// Confidential VM: the workload cannot rewrite the enforcement agent's
/// history — the privilege separation holds and attestation continues.
#[test]
fn confidential_vm_history_rewrite_is_blocked() {
    let mut cluster = Cluster::new(101, VerifierConfig::default());
    let fleet = enroll_mixed(&mut cluster, 1);
    let id = &fleet.cvm[0];
    {
        let cvm = cluster
            .agent_mut(id)
            .unwrap()
            .backend_mut()
            .as_confidential_vm_mut()
            .unwrap();
        cvm.exec_measured(CVM_SVC_PATH, CVM_SVC_CONTENT);
        assert!(matches!(
            cvm.try_rewrite_history(),
            Err(BackendError::Protected { .. })
        ));
    }
    assert!(cluster.attest(id).unwrap().is_verified());
    assert!(cluster.attest(id).unwrap().is_verified());
}

/// A transport that rewrites the evidence's backend tag in flight — the
/// substitution the verifier must catch against its enrolment record.
struct BackendRewritingTransport;

impl Transport for BackendRewritingTransport {
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
        let wire_req = serde_json::to_string(request).map_err(codec)?;
        let decoded: Req = serde_json::from_str(&wire_req).map_err(codec)?;
        let response = serve(decoded);
        let wire_resp = serde_json::to_string(&response).map_err(codec)?;
        let tampered = wire_resp.replace("\"backend\":\"TpmIma\"", "\"backend\":\"SecureWorld\"");
        serde_json::from_str(&tampered).map_err(codec)
    }

    fn requests(&self) -> u64 {
        0
    }

    fn drops(&self) -> u64 {
        0
    }

    fn wire_bytes(&self) -> u64 {
        0
    }

    fn fork(&self, _lane: u64) -> Self {
        BackendRewritingTransport
    }
}

/// The backend tag on the wire is untrusted metadata: when it disagrees
/// with the registrar-proven family, the verifier rejects the evidence
/// as a substitution attempt.
#[test]
fn backend_tag_substitution_is_detected() {
    let mut cluster =
        Cluster::with_transport(103, VerifierConfig::default(), BackendRewritingTransport);
    let id = cluster
        .add_machine(MachineConfig::default(), RuntimePolicy::new())
        .unwrap();
    let outcome = cluster.attest(&id).unwrap();
    assert!(
        alert_kinds(&outcome).iter().any(|k| matches!(
            k,
            FailureKind::BackendMismatch {
                expected: BackendKind::TpmIma,
                reported: BackendKind::SecureWorld,
            }
        )),
        "tag rewrite must surface as BackendMismatch: {outcome:?}"
    );
    assert_eq!(cluster.status(&id).unwrap(), AgentStatus::Paused);
}

/// Narrowing `allowed_backends` rejects whole families at appraisal
/// time, before any evidence is trusted.
#[test]
fn disallowed_backend_family_is_rejected() {
    let config = VerifierConfig::builder()
        .only_backend(BackendKind::TpmIma)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(107, config);
    let fleet = enroll_mixed(&mut cluster, 1);

    assert!(cluster.attest(&fleet.tpm[0]).unwrap().is_verified());
    let outcome = cluster.attest(&fleet.sw[0]).unwrap();
    assert!(
        alert_kinds(&outcome).iter().any(|k| matches!(
            k,
            FailureKind::BackendNotAllowed {
                backend: BackendKind::SecureWorld,
            }
        )),
        "disallowed family must surface as BackendNotAllowed: {outcome:?}"
    );
    assert_eq!(cluster.status(&fleet.sw[0]).unwrap(), AgentStatus::Paused);
}

/// Runs a six-round mixed-backend chaos corpus (loss + partition, a
/// mid-corpus attack on each family's surface, a secure-world restart)
/// and returns the reports plus the final per-agent replayed registers.
fn run_mixed_chaos(
    worker_count: usize,
) -> (Vec<RoundReport>, Vec<(AgentId, Digest)>, MetricsSnapshot) {
    let config = VerifierConfig::builder()
        .continue_on_failure(true)
        .max_retries(6)
        .retry_backoff_ms(5)
        .worker_count(worker_count)
        .build()
        .unwrap();
    let plan = FaultPlan::new(31)
        .loss(1..3, FaultTarget::AllAgents, 0.3)
        .partition(3..4, FaultTarget::lanes([2]));
    let transport = ChaosTransport::new(ReliableTransport::new(), plan);
    let mut cluster = Cluster::with_transport(113, config, transport);
    let fleet = enroll_mixed(&mut cluster, 2);

    let mut reports = Vec::new();
    for round in 0..6u64 {
        cluster.transport.set_round(round);
        if round == 2 {
            // One attack per family surface, plus clean activity.
            run_clean_workload(&mut cluster, &fleet);
            let sw = cluster
                .agent_mut(&fleet.sw[1])
                .unwrap()
                .backend_mut()
                .as_secure_world_mut()
                .unwrap();
            assert!(sw.load_trusted_app("/ta/backdoor", b"rogue applet"));
            let cvm = cluster
                .agent_mut(&fleet.cvm[1])
                .unwrap()
                .backend_mut()
                .as_confidential_vm_mut()
                .unwrap();
            cvm.relaunch_with_image(b"attacker image");
        }
        if round == 4 {
            // A secure-world device restarts: its measurement register
            // resets and the verifier re-appraises from entry zero.
            cluster.agent_mut(&fleet.sw[0]).unwrap().restart().unwrap();
        }
        reports.push(cluster.attest_fleet());
    }

    let pcrs = fleet
        .all()
        .map(|id| (id.clone(), cluster.verifier.replayed_pcr(id).unwrap()))
        .collect();
    let snapshot = cluster.scheduler.snapshot();
    (reports, pcrs, snapshot)
}

/// The mixed-backend chaos corpus replays bit-identically under any
/// worker count: reports, final replayed registers, and the per-backend
/// metric splits all agree, the splits stay consistent with the
/// aggregates, and both injected attacks are detected.
#[test]
fn mixed_backend_chaos_corpus_is_replay_equal() {
    let (reports, pcrs, snapshot) = run_mixed_chaos(1);
    for workers in [3, 8] {
        let (r, p, s) = run_mixed_chaos(workers);
        assert_eq!(reports, r, "reports diverged at workers={workers}");
        assert_eq!(pcrs, p, "replayed registers diverged at workers={workers}");
        assert_eq!(
            snapshot.per_backend, s.per_backend,
            "per-backend splits diverged at workers={workers}"
        );
    }
    assert!(snapshot.is_conserved());
    assert!(snapshot.backends_consistent());
    // Both injected attacks surfaced in some round's per-backend split.
    assert!(reports
        .iter()
        .any(|r| r.failed_count_for(BackendKind::SecureWorld) >= 1));
    assert!(reports
        .iter()
        .any(|r| r.failed_count_for(BackendKind::ConfidentialVm) >= 1));
    // Faults actually fired: somebody was unreachable at some point.
    assert!(reports.iter().any(|r| r.unreachable_count() > 0));
}

// ---------------------------------------------------------------------------
// Golden-model equivalence: the TPM+IMA appraisal behind the backend
// trait is bit-identical to the documented pre-refactor pipeline.
// ---------------------------------------------------------------------------

/// A from-scratch reimplementation of the pre-refactor TPM+IMA
/// appraisal: quote signature and nonce, rewind detection, PCR-10
/// replay, boot_aggregate against quoted PCRs 0–9, then
/// the per-entry policy walk with stop-on-failure prefix semantics.
/// Kept deliberately independent of the verifier's code paths.
struct ReferenceVerifier {
    ak: VerifyingKey,
    policy: RuntimePolicy,
    next_entry: usize,
    replayed_pcr: Digest,
    last_boot_count: Option<u64>,
    status: AgentStatus,
    nonce_counter: u64,
    continue_on_failure: bool,
}

#[derive(Debug, PartialEq)]
enum ReferenceOutcome {
    Skipped,
    Verified { new_entries: usize },
    Failed { kinds: Vec<FailureKind> },
}

impl ReferenceVerifier {
    fn new(ak: VerifyingKey, policy: RuntimePolicy, continue_on_failure: bool) -> Self {
        ReferenceVerifier {
            ak,
            policy,
            next_entry: 0,
            replayed_pcr: HashAlgorithm::Sha256.zero_digest(),
            last_boot_count: None,
            status: AgentStatus::Trusted,
            nonce_counter: 0,
            continue_on_failure,
        }
    }

    fn fail(&mut self, kinds: Vec<FailureKind>) -> ReferenceOutcome {
        self.status = AgentStatus::Paused;
        ReferenceOutcome::Failed { kinds }
    }

    fn attest(&mut self, agent: &mut Agent) -> ReferenceOutcome {
        if self.status == AgentStatus::Paused && !self.continue_on_failure {
            return ReferenceOutcome::Skipped;
        }
        let mut nonce = vec![0xabu8; 24];
        nonce.extend_from_slice(&self.nonce_counter.to_be_bytes());
        self.nonce_counter += 1;

        let resp = match agent.handle(AgentRequest::Quote {
            nonce: nonce.clone(),
            from_entry: self.next_entry,
            structured: true,
        }) {
            AgentResponse::Quote(q) => q,
            other => panic!("unexpected response {other:?}"),
        };

        // The scripted workload never reboots, so the reboot path (fresh
        // re-quote from entry zero) must never trigger.
        if let Some(last) = self.last_boot_count {
            assert_eq!(last, resp.boot_count(), "no reboots in the script");
        }

        if !resp.quote().verify(&self.ak, &nonce) {
            return self.fail(vec![FailureKind::QuoteInvalid]);
        }
        if resp.total_entries() < self.next_entry {
            return self.fail(vec![FailureKind::LogRewound]);
        }

        let entries = resp.entries();
        let mut full_fold = self.replayed_pcr;
        for entry in entries {
            full_fold = extend_digest(
                HashAlgorithm::Sha256,
                full_fold,
                entry.template_hash(HashAlgorithm::Sha256),
            );
        }
        if resp.quote().pcr_value(10) != Some(full_fold) {
            return self.fail(vec![FailureKind::PcrMismatch]);
        }

        let mut kinds = Vec::new();
        let mut processed = 0usize;
        for (offset, entry) in entries.iter().enumerate() {
            let absolute_index = self.next_entry + offset;
            let verdict = if absolute_index == 0 && entry.path == BOOT_AGGREGATE_NAME {
                let mut h = Sha256::new();
                for pcr in 0..=9u8 {
                    if let Some(v) = resp.quote().pcr_value(pcr) {
                        h.update(v.as_bytes());
                    }
                }
                if h.finalize() == entry.filedata_hash {
                    None
                } else {
                    Some(FailureKind::BootAggregateMismatch)
                }
            } else {
                match self.policy.check_digest(&entry.path, &entry.filedata_hash) {
                    PolicyCheck::Allowed | PolicyCheck::Excluded => None,
                    PolicyCheck::HashMismatch { .. } => Some(FailureKind::HashMismatch {
                        path: entry.path.clone(),
                        digest: entry.filedata_hash.to_hex(),
                    }),
                    PolicyCheck::NotInPolicy => Some(FailureKind::NotInPolicy {
                        path: entry.path.clone(),
                        digest: entry.filedata_hash.to_hex(),
                    }),
                }
            };

            if let Some(kind) = verdict {
                kinds.push(kind);
                if !self.continue_on_failure {
                    for accepted in &entries[..processed] {
                        self.replayed_pcr = extend_digest(
                            HashAlgorithm::Sha256,
                            self.replayed_pcr,
                            accepted.template_hash(HashAlgorithm::Sha256),
                        );
                    }
                    self.next_entry += processed;
                    self.last_boot_count = Some(resp.boot_count());
                    return self.fail(kinds);
                }
            }
            processed += 1;
        }

        self.replayed_pcr = full_fold;
        self.next_entry += processed;
        self.last_boot_count = Some(resp.boot_count());
        if kinds.is_empty() {
            self.status = AgentStatus::Trusted;
            ReferenceOutcome::Verified {
                new_entries: processed,
            }
        } else {
            ReferenceOutcome::Failed { kinds }
        }
    }
}

/// One scripted action on the TPM+IMA machine between polls.
#[derive(Debug, Clone)]
enum Op {
    /// Execute one of the pre-approved binaries.
    ExecAllowed(usize),
    /// Drop and execute a binary the policy does not know.
    ExecUnknown,
    /// Drop and execute a scratch file under the excluded /tmp.
    ExecExcluded,
    /// Write a file without executing it (no measurement).
    WriteOnly,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3).prop_map(Op::ExecAllowed),
        Just(Op::ExecUnknown),
        Just(Op::ExecExcluded),
        Just(Op::WriteOnly),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any scripted workload and both failure policies: the
    /// production verifier's outcome kinds, agent status,
    /// and replayed PCR agree round by round with the independent
    /// reference model — the backend refactor changed no appraisal bit.
    #[test]
    fn tpm_ima_appraisal_matches_reference_model(
        script in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 0..4),
            1..5,
        ),
        seed in 0u64..1_000,
        continue_sel in 0u8..2,
    ) {
        let continue_on_failure = continue_sel == 1;
        let config = VerifierConfig::builder()
            .continue_on_failure(continue_on_failure)
            .build()
            .unwrap();
        let mut cluster = Cluster::new(seed, config);
        let id = cluster
            .add_machine(MachineConfig::default(), RuntimePolicy::new())
            .unwrap();

        let mut policy = RuntimePolicy::new();
        policy.exclude("/tmp");
        let mut allowed = Vec::new();
        {
            let m = cluster.agent_mut(&id).unwrap().machine_mut();
            for i in 0..3 {
                let path = format!("/usr/bin/approved{i}");
                m.write_executable(&p(&path), format!("approved binary {i}").as_bytes())
                    .unwrap();
                let digest = m.vfs.file_digest(&p(&path), HashAlgorithm::Sha256).unwrap();
                policy.allow(path.clone(), digest.to_hex());
                allowed.push(path);
            }
        }
        cluster.verifier.update_policy(&id, policy.clone()).unwrap();

        let ak = cluster.registrar.record_for(&id).unwrap().ak.clone();
        let mut reference = ReferenceVerifier::new(ak, policy, continue_on_failure);

        let mut unique = 0usize;
        for round_ops in &script {
            for op in round_ops {
                let m = cluster.agent_mut(&id).unwrap().machine_mut();
                match op {
                    Op::ExecAllowed(i) => {
                        m.exec(&p(&allowed[*i]), ExecMethod::Direct).unwrap();
                    }
                    Op::ExecUnknown => {
                        let path = format!("/usr/bin/rogue{unique}");
                        unique += 1;
                        m.write_executable(&p(&path), b"unknown payload").unwrap();
                        m.exec(&p(&path), ExecMethod::Direct).unwrap();
                    }
                    Op::ExecExcluded => {
                        let path = format!("/tmp/scratch{unique}");
                        unique += 1;
                        m.write_executable(&p(&path), b"scratch job").unwrap();
                        m.exec(&p(&path), ExecMethod::Direct).unwrap();
                    }
                    Op::WriteOnly => {
                        let path = format!("/var/data/file{unique}");
                        unique += 1;
                        m.write_executable(&p(&path), b"inert data").unwrap();
                    }
                }
            }

            let outcome = cluster.attest(&id).unwrap();
            let expected = reference.attest(cluster.agent_mut(&id).unwrap());
            match (&outcome, &expected) {
                (AttestationOutcome::SkippedPaused, ReferenceOutcome::Skipped) => {}
                (
                    AttestationOutcome::Verified { new_entries },
                    ReferenceOutcome::Verified { new_entries: expected_new },
                ) => prop_assert_eq!(new_entries, expected_new),
                (AttestationOutcome::Failed { .. }, ReferenceOutcome::Failed { kinds }) => {
                    prop_assert_eq!(&alert_kinds(&outcome), kinds);
                }
                (got, want) => prop_assert!(false, "outcome mismatch: got {got:?}, want {want:?}"),
            }
            prop_assert_eq!(cluster.status(&id).unwrap(), reference.status);
            prop_assert_eq!(
                cluster.verifier.replayed_pcr(&id).unwrap(),
                reference.replayed_pcr
            );
        }
    }
}
