//! Heterogeneous fleet: mixed attestation backends in one deployment.
//!
//! Real fleets are not all TPM-backed servers. This experiment runs one
//! verifier over three backend families at once — TPM+IMA machines,
//! secure-world (TrustZone-style) edge devices, and confidential VMs —
//! and checks the operator-facing properties the backend abstraction
//! must preserve:
//!
//! 1. **every family verifies cleanly** under benign daily activity, and
//!    the per-backend metric splits refine the fleet aggregates exactly;
//! 2. **each family's characteristic compromise is detected** — a
//!    dropped implant (TPM+IMA), an unapproved trusted application
//!    (secure world), and a launch-image substitution (confidential
//!    VM) — without cross-family false positives;
//! 3. **the sweep stays deterministic** per seed, with or without
//!    transport loss, regardless of worker count.

use cia_crypto::HashAlgorithm;
use cia_keylime::{
    AgentId, Alert, BackendKind, ChaosTransport, Cluster, ConfidentialVmConfig, FaultPlan,
    MetricsSnapshot, PerBackendCounts, ReliableTransport, RoundOutcome, RuntimePolicy,
    SecureWorldConfig, VerifierConfig,
};
use cia_os::{ExecMethod, MachineConfig};
use cia_vfs::VfsPath;

const TPM_TOOL: &str = "/usr/bin/fleet-tool";
const TPM_TOOL_CONTENT: &[u8] = b"approved fleet tool";
const TPM_IMPLANT: &str = "/usr/sbin/implant";
const SW_TA: &str = "/ta/keymaster";
const SW_TA_CONTENT: &[u8] = b"approved keymaster applet";
const SW_BACKDOOR: &str = "/ta/backdoor";
const CVM_SVC: &str = "/opt/svc/agentd";
const CVM_SVC_CONTENT: &[u8] = b"confidential service daemon";

/// Configuration of the heterogeneous-fleet experiment.
#[derive(Debug, Clone)]
pub struct HeteroConfig {
    /// TPM+IMA machines.
    pub tpm_nodes: usize,
    /// Secure-world devices.
    pub secure_world_nodes: usize,
    /// Confidential VMs.
    pub confidential_vm_nodes: usize,
    /// Days to run (one fleet sweep per day).
    pub days: u32,
    /// Day the implant lands on the first TPM node, if any.
    pub tpm_compromise: Option<u32>,
    /// Day a rogue trusted app loads on the first secure-world device.
    pub secure_world_compromise: Option<u32>,
    /// Day the first confidential VM relaunches from a tampered image.
    pub confidential_vm_compromise: Option<u32>,
    /// Cluster seed.
    pub seed: u64,
    /// Fraction of transport calls dropped (0.0 = reliable).
    pub drop_rate: f64,
    /// Fleet-scheduler worker threads.
    pub workers: usize,
}

impl HeteroConfig {
    /// A test-scale mixed fleet with one compromise per family.
    pub fn small(seed: u64) -> Self {
        HeteroConfig {
            tpm_nodes: 2,
            secure_world_nodes: 2,
            confidential_vm_nodes: 2,
            days: 6,
            tpm_compromise: Some(2),
            secure_world_compromise: Some(3),
            confidential_vm_compromise: Some(4),
            seed,
            drop_rate: 0.0,
            workers: 3,
        }
    }

    /// A lossy variant of [`HeteroConfig::small`]: 10% message loss.
    pub fn small_lossy(seed: u64) -> Self {
        HeteroConfig {
            drop_rate: 0.10,
            ..HeteroConfig::small(seed)
        }
    }
}

/// The experiment's outcome.
#[derive(Debug, Clone, Default)]
pub struct HeteroReport {
    /// Alerts not attributable to a scheduled compromise (must be empty).
    pub false_positives: Vec<Alert>,
    /// First detection of each scheduled compromise:
    /// `(family, agent, day)`.
    pub detections: Vec<(BackendKind, AgentId, u32)>,
    /// Total polls across all sweeps.
    pub attestations: u64,
    /// Clean polls.
    pub verified: u64,
    /// Polls the engine could not complete within the retry budget.
    pub unreachable: u64,
    /// Final per-backend verified/failed/unreachable splits.
    pub per_backend: PerBackendCounts,
    /// The fleet engine's accumulated metrics.
    pub metrics: MetricsSnapshot,
}

/// Runs the heterogeneous-fleet experiment.
///
/// # Panics
///
/// Panics on internal simulator errors (deterministic by construction).
pub fn run_hetero(config: HeteroConfig) -> HeteroReport {
    let verifier_config = VerifierConfig::builder()
        .continue_on_failure(true)
        .max_retries(16)
        .retry_backoff_ms(5)
        .worker_count(config.workers.max(1))
        .build()
        .expect("hetero verifier config is valid");
    let transport = ChaosTransport::new(
        ReliableTransport::new(),
        FaultPlan::lossy(config.seed ^ 0xbe7e, config.drop_rate),
    );
    let mut cluster = Cluster::with_transport(config.seed, verifier_config, transport);

    let mut sw_policy = RuntimePolicy::new();
    sw_policy.allow(SW_TA, HashAlgorithm::Sha256.digest(SW_TA_CONTENT).to_hex());
    let mut cvm_policy = RuntimePolicy::new();
    cvm_policy.allow(
        CVM_SVC,
        HashAlgorithm::Sha256.digest(CVM_SVC_CONTENT).to_hex(),
    );

    let mut tpm_ids = Vec::new();
    for n in 0..config.tpm_nodes {
        let machine = MachineConfig {
            hostname: format!("tpm-{n:02}"),
            seed: config.seed ^ (0x100 + n as u64),
            ..MachineConfig::default()
        };
        let id = cluster
            .add_machine(machine, RuntimePolicy::new())
            .expect("tpm enrolment");
        let mut policy = RuntimePolicy::new();
        policy.exclude("/tmp");
        {
            let m = cluster.agent_mut(&id).unwrap().machine_mut();
            m.write_executable(&VfsPath::new(TPM_TOOL).unwrap(), TPM_TOOL_CONTENT)
                .unwrap();
            let digest = m
                .vfs
                .file_digest(&VfsPath::new(TPM_TOOL).unwrap(), HashAlgorithm::Sha256)
                .unwrap();
            policy.allow(TPM_TOOL, digest.to_hex());
        }
        cluster.verifier.update_policy(&id, policy).unwrap();
        tpm_ids.push(id);
    }
    let mut sw_ids = Vec::new();
    for n in 0..config.secure_world_nodes {
        let id = cluster
            .add_secure_world(
                SecureWorldConfig::new(format!("edge-{n:02}"), config.seed ^ (0x200 + n as u64)),
                sw_policy.clone(),
            )
            .expect("secure-world enrolment");
        sw_ids.push(id);
    }
    let mut cvm_ids = Vec::new();
    for n in 0..config.confidential_vm_nodes {
        let id = cluster
            .add_confidential_vm(
                ConfidentialVmConfig::new(format!("cvm-{n:02}"), config.seed ^ (0x300 + n as u64)),
                cvm_policy.clone(),
            )
            .expect("confidential-vm enrolment");
        cvm_ids.push(id);
    }

    let mut report = HeteroReport::default();
    for day in 1..=config.days {
        // Each day's sweep draws its own loss from the fault plan.
        cluster.transport.set_round(u64::from(day));
        // Benign daily activity on every family.
        for id in &tpm_ids {
            let m = cluster.agent_mut(id).unwrap().machine_mut();
            m.exec(&VfsPath::new(TPM_TOOL).unwrap(), ExecMethod::Direct)
                .unwrap();
            m.clock.next_day();
        }
        for id in &sw_ids {
            let sw = cluster
                .agent_mut(id)
                .unwrap()
                .backend_mut()
                .as_secure_world_mut()
                .unwrap();
            assert!(sw.load_trusted_app(SW_TA, SW_TA_CONTENT));
            sw.advance_days(1);
        }
        for id in &cvm_ids {
            let cvm = cluster
                .agent_mut(id)
                .unwrap()
                .backend_mut()
                .as_confidential_vm_mut()
                .unwrap();
            cvm.exec_measured(CVM_SVC, CVM_SVC_CONTENT);
            cvm.advance_days(1);
        }

        // Scheduled compromises, one per family surface.
        if config.tpm_compromise == Some(day) {
            let m = cluster.agent_mut(&tpm_ids[0]).unwrap().machine_mut();
            m.write_executable(&VfsPath::new(TPM_IMPLANT).unwrap(), b"c2 implant")
                .unwrap();
            m.exec(&VfsPath::new(TPM_IMPLANT).unwrap(), ExecMethod::Direct)
                .unwrap();
        }
        if config.secure_world_compromise == Some(day) {
            let sw = cluster
                .agent_mut(&sw_ids[0])
                .unwrap()
                .backend_mut()
                .as_secure_world_mut()
                .unwrap();
            assert!(sw.load_trusted_app(SW_BACKDOOR, b"rogue applet"));
        }
        if config.confidential_vm_compromise == Some(day) {
            let cvm = cluster
                .agent_mut(&cvm_ids[0])
                .unwrap()
                .backend_mut()
                .as_confidential_vm_mut()
                .unwrap();
            cvm.relaunch_with_image(b"attacker image");
        }

        let round = cluster.attest_fleet();
        assert_eq!(
            round.results.len(),
            tpm_ids.len() + sw_ids.len() + cvm_ids.len(),
            "no agent may go missing"
        );
        for result in &round.results {
            report.attestations += 1;
            match &result.outcome {
                RoundOutcome::Verified { .. } => report.verified += 1,
                RoundOutcome::Failed { alerts } => {
                    for alert in alerts {
                        let rendered = format!("{:?}", alert.kind);
                        let expected = match result.backend {
                            BackendKind::TpmIma => rendered.contains(TPM_IMPLANT),
                            BackendKind::SecureWorld => rendered.contains(SW_BACKDOOR),
                            BackendKind::ConfidentialVm => {
                                rendered.contains("LaunchMeasurementMismatch")
                            }
                            _ => false,
                        };
                        let already = report.detections.iter().any(|(_, id, _)| id == &result.id);
                        if expected {
                            if !already {
                                report
                                    .detections
                                    .push((result.backend, result.id.clone(), day));
                            }
                        } else {
                            report.false_positives.push(alert.clone());
                        }
                    }
                }
                RoundOutcome::Unreachable { .. } => report.unreachable += 1,
                _ => {}
            }
        }
    }

    report.metrics = cluster.scheduler.snapshot();
    report.per_backend = report.metrics.per_backend;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_fleet_detects_every_family_compromise() {
        let report = run_hetero(HeteroConfig::small(41));
        assert!(
            report.false_positives.is_empty(),
            "mixed fleet must be FP-free: {:?}",
            report.false_positives
        );
        assert_eq!(report.detections.len(), 3, "{:?}", report.detections);
        let day_of = |kind: BackendKind| {
            report
                .detections
                .iter()
                .find(|(k, _, _)| *k == kind)
                .map(|(_, _, d)| *d)
        };
        assert_eq!(day_of(BackendKind::TpmIma), Some(2));
        assert_eq!(day_of(BackendKind::SecureWorld), Some(3));
        assert_eq!(day_of(BackendKind::ConfidentialVm), Some(4));
        assert_eq!(report.unreachable, 0);
    }

    #[test]
    fn per_backend_splits_refine_the_fleet_aggregates() {
        let report = run_hetero(HeteroConfig::small(42));
        assert!(report.metrics.is_conserved(), "{:?}", report.metrics);
        assert!(report.metrics.backends_consistent(), "{:?}", report.metrics);
        // Every family produced clean rounds, and the splits add up.
        for kind in BackendKind::ALL {
            assert!(
                report.per_backend.for_kind(kind).verified > 0,
                "{kind:?} never verified"
            );
        }
        let split_verified: u64 = BackendKind::ALL
            .iter()
            .map(|&k| report.per_backend.for_kind(k).verified)
            .sum();
        assert_eq!(split_verified, report.verified);
    }

    #[test]
    fn clean_mixed_fleet_stays_green() {
        let mut config = HeteroConfig::small(43);
        config.tpm_compromise = None;
        config.secure_world_compromise = None;
        config.confidential_vm_compromise = None;
        let report = run_hetero(config);
        assert!(report.false_positives.is_empty());
        assert!(report.detections.is_empty());
        assert_eq!(report.attestations, report.verified);
    }

    #[test]
    fn lossy_mixed_fleet_is_deterministic_per_seed() {
        let a = run_hetero(HeteroConfig::small_lossy(46));
        let b = run_hetero(HeteroConfig::small_lossy(46));
        assert_eq!(a.detections, b.detections);
        assert_eq!(a.verified, b.verified);
        assert_eq!(a.per_backend, b.per_backend);
        assert_eq!(a.metrics.retries, b.metrics.retries);
        // Loss forced retries but masked nothing.
        assert!(a.metrics.retries > 0);
        assert_eq!(a.unreachable, 0);
        assert_eq!(a.detections.len(), 3);
    }
}
