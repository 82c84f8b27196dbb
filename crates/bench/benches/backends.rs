//! Criterion: per-backend quote/appraise cost and mixed-fleet rounds.
//!
//! Measures one attestation (quote + appraisal) per backend family —
//! TPM+IMA, secure world, confidential VM — so the trait dispatch and
//! the family-specific evidence paths can be compared directly, plus a
//! full scheduler round over a fleet mixing all three families.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cia_crypto::HashAlgorithm;
use cia_keylime::{
    Cluster, ConfidentialVmConfig, ReliableTransport, RuntimePolicy, SecureWorldConfig,
    VerifierConfig,
};
use cia_os::{ExecMethod, MachineConfig};
use cia_vfs::VfsPath;

const SW_TA: &str = "/ta/keymaster";
const SW_TA_CONTENT: &[u8] = b"approved keymaster applet";
const CVM_SVC: &str = "/opt/svc/agentd";
const CVM_SVC_CONTENT: &[u8] = b"confidential service daemon";
const TPM_TOOL: &str = "/usr/bin/fleet-tool";
const TPM_TOOL_CONTENT: &[u8] = b"approved fleet tool";

/// One cluster with `n` agents of each family, policies covering the
/// benign workload below, and `entries` measured events pre-loaded per
/// agent so the appraisal has a realistic log to replay.
fn mixed_cluster(n: usize, entries: usize, workers: usize) -> Cluster<ReliableTransport> {
    let config = VerifierConfig::builder()
        .continue_on_failure(true)
        .worker_count(workers)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(9, config);

    let mut sw_policy = RuntimePolicy::new();
    sw_policy.allow(SW_TA, HashAlgorithm::Sha256.digest(SW_TA_CONTENT).to_hex());
    let mut cvm_policy = RuntimePolicy::new();
    cvm_policy.allow(
        CVM_SVC,
        HashAlgorithm::Sha256.digest(CVM_SVC_CONTENT).to_hex(),
    );

    for i in 0..n {
        let machine = MachineConfig {
            hostname: format!("tpm-{i:04}"),
            seed: i as u64,
            ..MachineConfig::default()
        };
        let id = cluster.add_machine(machine, RuntimePolicy::new()).unwrap();
        let mut policy = RuntimePolicy::new();
        {
            let m = cluster.agent_mut(&id).unwrap().machine_mut();
            m.write_executable(&VfsPath::new(TPM_TOOL).unwrap(), TPM_TOOL_CONTENT)
                .unwrap();
            let digest = m
                .vfs
                .file_digest(&VfsPath::new(TPM_TOOL).unwrap(), HashAlgorithm::Sha256)
                .unwrap();
            policy.allow(TPM_TOOL, digest.to_hex());
            for _ in 0..entries {
                m.exec(&VfsPath::new(TPM_TOOL).unwrap(), ExecMethod::Direct)
                    .unwrap();
            }
        }
        cluster.verifier.update_policy(&id, policy).unwrap();

        let id = cluster
            .add_secure_world(
                SecureWorldConfig::new(format!("sw-{i:04}"), 0x1000 + i as u64),
                sw_policy.clone(),
            )
            .unwrap();
        let sw = cluster
            .agent_mut(&id)
            .unwrap()
            .backend_mut()
            .as_secure_world_mut()
            .unwrap();
        for _ in 0..entries {
            assert!(sw.load_trusted_app(SW_TA, SW_TA_CONTENT));
        }

        let id = cluster
            .add_confidential_vm(
                ConfidentialVmConfig::new(format!("cvm-{i:04}"), 0x2000 + i as u64),
                cvm_policy.clone(),
            )
            .unwrap();
        let cvm = cluster
            .agent_mut(&id)
            .unwrap()
            .backend_mut()
            .as_confidential_vm_mut()
            .unwrap();
        for _ in 0..entries {
            cvm.exec_measured(CVM_SVC, CVM_SVC_CONTENT);
        }
    }
    cluster
}

/// One quote + appraisal per backend family, on a log of 64 measured
/// events (appraised incrementally, so steady-state polls are cheap).
fn bench_single_attestation(c: &mut Criterion) {
    let mut group = c.benchmark_group("backends/attest_one");
    let mut cluster = mixed_cluster(1, 64, 1);
    let ids = cluster.agent_ids();
    for id in ids {
        let label = cluster.agent(&id).unwrap().backend_kind().name();
        group.bench_with_input(BenchmarkId::from_parameter(label), &id, |b, id| {
            b.iter(|| {
                let outcome = cluster.attest(id).unwrap();
                assert!(outcome.is_verified());
                outcome
            });
        });
    }
    group.finish();
}

/// A full scheduler round over a mixed fleet, sweeping the worker pool.
fn bench_mixed_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("backends/mixed_round");
    const PER_FAMILY: usize = 32;
    group.throughput(Throughput::Elements(3 * PER_FAMILY as u64));
    for workers in [1usize, 4] {
        let mut cluster = mixed_cluster(PER_FAMILY, 8, workers);
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| {
                let report = cluster.attest_fleet();
                assert!(report.all_reached());
                report.verified_count()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_attestation, bench_mixed_round);
criterion_main!(benches);
