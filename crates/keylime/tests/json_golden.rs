//! Golden JSON bytes for what crosses the transport and lands in the
//! journal.
//!
//! Every literal below is the exact text the serde shims produced before
//! the codec began writing JSON straight from each type. A byte that moves
//! changes `wire_bytes_*`, invalidates journals already on disk and breaks
//! digest pinning, so each value must render to its literal and parse back
//! from it to an equal value.

use std::fmt::Debug;

use cia_crypto::HashAlgorithm;
use cia_keylime::{
    Agent, AgentHealth, AgentId, AgentRequest, AgentResponse, AgentRoundResult, AgentStateSnapshot,
    AgentStatus, Alert, BackendKind, FailureKind, FaultPlan, HealthCounts, MetricsSnapshot,
    PolicyDelta, PolicyEpoch, PolicyMeta, RoundOutcome, RoundReport, RuntimePolicy, VerifierConfig,
};
use cia_os::{Machine, MachineConfig};
use cia_tpm::Manufacturer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Asserts `value` renders to exactly `expected` and parses back from it.
fn golden<T>(value: &T, expected: &str)
where
    T: Serialize + DeserializeOwned + PartialEq + Debug,
{
    assert_eq!(serde_json::to_string(value).unwrap(), expected);
    let back: T = serde_json::from_str(expected).unwrap();
    assert_eq!(&back, value);
}

fn agent() -> Agent {
    let mut rng = StdRng::seed_from_u64(5);
    let m = Manufacturer::generate(&mut rng);
    Agent::new(Machine::new(&m, MachineConfig::default()))
}

fn alert(day: u32) -> Alert {
    Alert {
        agent: AgentId::new("host-07"),
        day,
        kind: FailureKind::HashMismatch {
            path: "/usr/bin/x\"y".into(),
            digest: "ab12".into(),
        },
    }
}

#[test]
fn agent_requests() {
    golden(
        &AgentRequest::Identity {
            challenge: b"c1".to_vec(),
        },
        GOLDEN_REQUEST_IDENTITY,
    );
    golden(
        &AgentRequest::Quote {
            nonce: vec![0, 7, 255],
            from_entry: 3,
            structured: true,
        },
        GOLDEN_REQUEST_QUOTE,
    );
}

#[test]
fn agent_responses() {
    let mut a = agent();
    let identity = a.handle(AgentRequest::Identity {
        challenge: b"c1".to_vec(),
    });
    assert!(matches!(identity, AgentResponse::Identity(_)));
    golden(&identity, GOLDEN_RESPONSE_IDENTITY);
    let quote = a.handle(AgentRequest::Quote {
        nonce: b"n1".to_vec(),
        from_entry: 0,
        structured: true,
    });
    assert!(matches!(quote, AgentResponse::Quote(_)));
    golden(&quote, GOLDEN_RESPONSE_QUOTE);
    golden(
        &AgentResponse::Error {
            reason: "tpm \"busy\"\n\tretry \\ later \u{1} é →".into(),
        },
        GOLDEN_RESPONSE_ERROR,
    );
}

#[test]
fn round_report_with_every_outcome() {
    let epoch = PolicyEpoch::ZERO.next().next();
    let outcomes = [
        RoundOutcome::Verified { new_entries: 5 },
        RoundOutcome::Failed {
            alerts: vec![alert(3)],
        },
        RoundOutcome::SkippedPaused,
        RoundOutcome::SkippedQuarantined { next_probe_in: 2 },
        RoundOutcome::Unreachable {
            reason: "request dropped".into(),
        },
    ];
    let report = RoundReport {
        results: outcomes
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| AgentRoundResult {
                id: AgentId::new(format!("host-{i:02}")),
                backend: BackendKind::TpmIma,
                day: 3,
                attempts: i as u32 + 1,
                backoff_ms: 50 * i as u64,
                policy_epoch: epoch,
                shared_policy: i != 1,
                outcome,
            })
            .collect(),
        health: HealthCounts {
            healthy: 3,
            degraded: 1,
            quarantined: 1,
            recovering: 0,
        },
        policy_epoch: epoch,
    };
    golden(&report, GOLDEN_ROUND_REPORT);
}

#[test]
fn agent_state_snapshot() {
    let snapshot = AgentStateSnapshot {
        policy_epoch: PolicyEpoch::ZERO.next(),
        shared_policy: true,
        next_entry: 42,
        replayed_pcr: HashAlgorithm::Sha256.digest(b"pcr"),
        last_boot_count: Some(2),
        status: AgentStatus::Paused,
        attestations: 9,
        nonce_counter: 10,
        health: AgentHealth::Degraded,
        consecutive_unreachable: 1,
        reprobe_in: 0,
        reprobe_backoff: 4,
    };
    golden(&snapshot, GOLDEN_AGENT_STATE_SNAPSHOT);
}

/// Journals written before the snapshot lost its alert history still
/// load: the removed `alerts` member is ignored, and so is a metrics
/// snapshot's removed `policy_check_ns`.
#[test]
fn old_journal_values_with_removed_members_still_deserialize() {
    let stale = GOLDEN_AGENT_STATE_SNAPSHOT.replacen(
        r#""attestations""#,
        r#""alerts":[{"agent":"host-07","day":1,"kind":{"HashMismatch":{"path":"/usr/bin/x\"y","digest":"ab12"}}}],"attestations""#,
        1,
    );
    assert_ne!(stale, GOLDEN_AGENT_STATE_SNAPSHOT);
    let old: AgentStateSnapshot = serde_json::from_str(&stale).unwrap();
    let current: AgentStateSnapshot = serde_json::from_str(GOLDEN_AGENT_STATE_SNAPSHOT).unwrap();
    assert_eq!(old, current);

    let stale = GOLDEN_METRICS_SNAPSHOT.replacen(
        r#""policy_epoch""#,
        r#""policy_check_ns":77,"policy_epoch""#,
        1,
    );
    assert_ne!(stale, GOLDEN_METRICS_SNAPSHOT);
    let old: MetricsSnapshot = serde_json::from_str(&stale).unwrap();
    let current: MetricsSnapshot = serde_json::from_str(GOLDEN_METRICS_SNAPSHOT).unwrap();
    assert_eq!(old, current);
}

fn meta() -> PolicyMeta {
    PolicyMeta {
        version: 3,
        generator: "keylime-policy-gen".into(),
        generated_day: 12,
    }
}

#[test]
fn policy_delta() {
    let delta = PolicyDelta {
        added: vec![("/usr/bin/a".into(), "aa".into())],
        removed_paths: vec!["/lib/modules/6.1/x.ko".into()],
        retired: vec![("/usr/bin/b".into(), "bb".into())],
        staged_kernels: vec!["6.2.0".into()],
        meta: meta(),
    };
    golden(&delta, GOLDEN_POLICY_DELTA);
}

#[test]
fn runtime_policy() {
    let mut policy = RuntimePolicy::new();
    policy.allow("/usr/bin/ls", "aa11");
    policy.allow("/usr/bin/cat", "cc33");
    policy.allow("/usr/bin/cat", "bb22");
    policy.exclude("/tmp");
    policy.exclude("/var/log");
    policy.meta = meta();
    golden(&policy, GOLDEN_RUNTIME_POLICY);
}

#[test]
fn configs_plans_and_metrics() {
    golden(&VerifierConfig::default(), GOLDEN_VERIFIER_CONFIG);
    golden(&FaultPlan::lossy(7, 0.25), GOLDEN_FAULT_PLAN_LOSSY);
    // An integral float keeps its `.0`.
    golden(&FaultPlan::lossy(7, 1.0), GOLDEN_FAULT_PLAN_DEAD);
    let metrics = MetricsSnapshot {
        rounds: 4,
        calls: 17,
        retries: 1,
        drops: 1,
        verified: 15,
        failed: 1,
        alerts: 2,
        backoff_ms: 50,
        entries_evaluated: 1234,
        wire_bytes: 98765,
        ..MetricsSnapshot::default()
    };
    golden(&metrics, GOLDEN_METRICS_SNAPSHOT);
}

// ---------------------------------------------------------------------
// The pinned bytes
// ---------------------------------------------------------------------

const GOLDEN_REQUEST_IDENTITY: &str = r#"{"Identity":{"challenge":[99,49]}}"#;

const GOLDEN_REQUEST_QUOTE: &str =
    r#"{"Quote":{"nonce":[0,7,255],"from_entry":3,"structured":true}}"#;

const GOLDEN_RESPONSE_IDENTITY: &str = r#"{"Identity":{"TpmEk":{"ek_certificate":{"manufacturer":"Simulated TPM Works","ek_public":{"material":[223,35,11,73,97,93,23,83,7,213,128,195,61,111,218,97,252,123,154,236,145,223,15,92,26,94,190,59,140,191,238,2]},"signature":"sha256:bb81ff5dcb45a582f797fa3b76de6726a9ad7c4e15aa34386c76df67dd10dd88"},"binding":{"ak_public":{"material":[234,94,74,175,235,4,202,126,154,141,240,87,119,195,67,5,110,2,181,90,199,144,116,219,89,201,75,70,230,67,115,216]},"challenge":[99,49],"signature":"sha256:ee32a667d2491f2eb2c51c87892a9b45b16044e72fd726f44f7f0bd0b20fc478"}}}}"#;

const GOLDEN_RESPONSE_QUOTE: &str = r#"{"Quote":{"backend":"TpmIma","quote":{"nonce":[110,49],"selection":{"mask":2047},"bank":"Sha256","pcr_values":["sha256:be490e5794f59ab7712a28a1352147fabf59e5b69a885ce51301b4603120486e","sha256:0000000000000000000000000000000000000000000000000000000000000000","sha256:a215b849dd06496f9c619b0509119f1da52b7d26fc14076081811da8d9ef5214","sha256:0000000000000000000000000000000000000000000000000000000000000000","sha256:3128d58bc8bc5be0bf82a8f36edb3866c6dbe2123985f3eea3b5140f0406e29b","sha256:0000000000000000000000000000000000000000000000000000000000000000","sha256:0000000000000000000000000000000000000000000000000000000000000000","sha256:0000000000000000000000000000000000000000000000000000000000000000","sha256:0000000000000000000000000000000000000000000000000000000000000000","sha256:0000000000000000000000000000000000000000000000000000000000000000","sha256:b862b7a2e946283eb35c785259a58d701d78fd4131317164ddc8e6c644f4dfc1"],"pcr_digest":"sha256:2afa1536905f45cb5531901d885fc01369503119272d843c473d4aa523fb2140","boot_count":0,"clock":6,"signature":"sha256:ed308a77c1d666e86c2c81f3549b419e5a32629c2d976ada549ab50569318a9a"},"entries":[{"pcr":10,"filedata_hash":"sha256:e15bf37fd8539d0e2bac8e6b8e647246e75050af43c0bcd6d1c0959161c6543d","path":"boot_aggregate"}],"total_entries":1}}"#;

const GOLDEN_RESPONSE_ERROR: &str =
    r#"{"Error":{"reason":"tpm \"busy\"\n\tretry \\ later \u0001 é →"}}"#;

const GOLDEN_AGENT_STATE_SNAPSHOT: &str = r#"{"policy_epoch":1,"shared_policy":true,"next_entry":42,"replayed_pcr":"sha256:a7c0720ae236c7be1a6fa79bd8730b8acdf60a1f9be7e502d9b6b10319e8edd7","last_boot_count":2,"status":"Paused","attestations":9,"nonce_counter":10,"health":"Degraded","consecutive_unreachable":1,"reprobe_in":0,"reprobe_backoff":4}"#;

const GOLDEN_VERIFIER_CONFIG: &str = r#"{"continue_on_failure":false,"max_retries":3,"retry_backoff_ms":10,"max_backoff_ms":1000,"worker_count":4,"quarantine_enabled":false,"degraded_after":2,"quarantine_after":4,"reprobe_backoff_rounds":2,"reprobe_backoff_max_rounds":32,"allowed_backends":7}"#;

const GOLDEN_FAULT_PLAN_LOSSY: &str = r#"{"seed":7,"events":[{"from_round":0,"until_round":18446744073709551615,"target":"AllAgents","kind":{"Loss":{"rate":0.25}}},{"from_round":0,"until_round":18446744073709551615,"target":"Registrar","kind":{"Loss":{"rate":0.25}}}]}"#;

const GOLDEN_FAULT_PLAN_DEAD: &str = r#"{"seed":7,"events":[{"from_round":0,"until_round":18446744073709551615,"target":"AllAgents","kind":{"Loss":{"rate":1.0}}},{"from_round":0,"until_round":18446744073709551615,"target":"Registrar","kind":{"Loss":{"rate":1.0}}}]}"#;

const GOLDEN_METRICS_SNAPSHOT: &str = r#"{"rounds":4,"calls":17,"retries":1,"drops":1,"verified":15,"failed":1,"skipped_paused":0,"unreachable":0,"alerts":2,"orphaned":0,"backoff_ms":50,"quarantine_skips":0,"probes":0,"to_degraded":0,"to_quarantined":0,"to_recovering":0,"to_healthy":0,"entries_evaluated":1234,"wire_bytes":98765,"policy_epoch":0,"policy_push_ns":0,"delta_entries_applied":0,"per_backend":{"tpm_ima":{"verified":0,"failed":0,"unreachable":0},"secure_world":{"verified":0,"failed":0,"unreachable":0},"confidential_vm":{"verified":0,"failed":0,"unreachable":0}},"latency_ns_buckets":[]}"#;

const GOLDEN_POLICY_DELTA: &str = r#"{"added":[["/usr/bin/a","aa"]],"removed_paths":["/lib/modules/6.1/x.ko"],"retired":[["/usr/bin/b","bb"]],"staged_kernels":["6.2.0"],"meta":{"version":3,"generator":"keylime-policy-gen","generated_day":12}}"#;

const GOLDEN_ROUND_REPORT: &str = r#"{"results":[{"id":"host-00","backend":"TpmIma","day":3,"attempts":1,"backoff_ms":0,"policy_epoch":2,"shared_policy":true,"outcome":{"Verified":{"new_entries":5}}},{"id":"host-01","backend":"TpmIma","day":3,"attempts":2,"backoff_ms":50,"policy_epoch":2,"shared_policy":false,"outcome":{"Failed":{"alerts":[{"agent":"host-07","day":3,"kind":{"HashMismatch":{"path":"/usr/bin/x\"y","digest":"ab12"}}}]}}},{"id":"host-02","backend":"TpmIma","day":3,"attempts":3,"backoff_ms":100,"policy_epoch":2,"shared_policy":true,"outcome":"SkippedPaused"},{"id":"host-03","backend":"TpmIma","day":3,"attempts":4,"backoff_ms":150,"policy_epoch":2,"shared_policy":true,"outcome":{"SkippedQuarantined":{"next_probe_in":2}}},{"id":"host-04","backend":"TpmIma","day":3,"attempts":5,"backoff_ms":200,"policy_epoch":2,"shared_policy":true,"outcome":{"Unreachable":{"reason":"request dropped"}}}],"health":{"healthy":3,"degraded":1,"quarantined":1,"recovering":0},"policy_epoch":2}"#;

const GOLDEN_RUNTIME_POLICY: &str = r#"{"digests":{"/usr/bin/cat":["bb22","cc33"],"/usr/bin/ls":["aa11"]},"excludes":["/tmp","/var/log"],"meta":{"version":3,"generator":"keylime-policy-gen","generated_day":12}}"#;
