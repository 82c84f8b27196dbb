//! Criterion: epoch-shared policy distribution.
//!
//! Three things measured here, all against a 10,000-entry policy:
//!
//! 1. `apply_delta` (a ~1% delta applied in place) against a full
//!    `from_json` parse of the merged document;
//! 2. pushing a new epoch to a 1,000-agent shared fleet performs **zero**
//!    `RuntimePolicy` deep copies — the push is an Arc swap per record
//!    plus an O(delta) map edit, independent of fleet size;
//! 3. the legacy per-agent override push (`update_policy` per id, one
//!    deep copy each) is the O(fleet × policy) baseline those gates
//!    retire — measured at 100 agents (its cost is linear in the fleet).
//!
//! The fixture delta is idempotent (re-adding present digests and
//! re-retiring single-digest paths are no-ops), so steady-state pushes
//! are measured on one persistent store without per-iteration clone or
//! teardown noise. Committed numbers for the same operations come from
//! the end-to-end benchmark (`policy.apply_delta_us_per_entry`,
//! `store.publish_delta_ms`, `policy_push_ms_p50`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cia_crypto::KeyPair;
use cia_keylime::{AgentId, PolicyDelta, RuntimePolicy, Verifier, VerifierConfig};

const POLICY_ENTRIES: usize = 10_000;
const DELTA_TOUCHES: usize = 100;
const FLEET: usize = 1_000;
const OVERRIDE_FLEET: usize = 100;

/// A 10k-entry policy plus an idempotent delta touching ~1% of it.
fn fixture() -> (RuntimePolicy, PolicyDelta) {
    let mut policy = RuntimePolicy::new();
    for i in 0..POLICY_ENTRIES {
        policy.allow(format!("/usr/bin/tool-{i:05}"), format!("{i:064x}"));
    }
    policy.exclude("/tmp");

    let mut delta = PolicyDelta::default();
    for i in 0..DELTA_TOUCHES {
        // An update: the path gains a new digest and retires the old one.
        let path = format!("/usr/bin/tool-{i:05}");
        delta
            .added
            .push((path.clone(), format!("{:064x}", i + POLICY_ENTRIES)));
        delta
            .retired
            .push((path, format!("{:064x}", i + POLICY_ENTRIES)));
    }
    delta.meta = policy.meta.clone();
    delta.meta.version += 1;
    (policy, delta)
}

fn bench_apply_delta_vs_rebuild(c: &mut Criterion) {
    let (policy, delta) = fixture();
    let mut group = c.benchmark_group("delta/10k_policy");

    // Steady state: the same buffer absorbs delta after delta.
    let mut live = policy.clone();
    group.bench_function("apply_delta", |b| {
        b.iter(|| live.apply_delta(black_box(&delta)));
    });

    // The pre-store distribution cost: re-parse the merged document.
    let json = live.to_json();
    group.bench_function("from_json", |b| {
        b.iter(|| RuntimePolicy::from_json(black_box(&json)).unwrap());
    });
    group.finish();
}

fn bench_fleet_push(c: &mut Criterion) {
    let (policy, delta) = fixture();
    let ak = KeyPair::from_material([7u8; 32]).verifying;

    let mut group = c.benchmark_group("delta/fleet_push");

    let mut verifier = Verifier::new(VerifierConfig::default());
    verifier.publish_policy(policy.clone());
    for i in 0..FLEET {
        verifier.add_agent_shared(format!("agent-{i:04}"), ak.clone());
    }
    // One warm-up epoch pays the cold copy-on-write and seeds the store's
    // reclaimable spare buffer — steady state from here on.
    verifier.publish_delta(&PolicyDelta::default());
    group.bench_function("shared_store_delta_1000", |b| {
        b.iter(|| {
            let clones_before = RuntimePolicy::deep_clone_count();
            let pushed = verifier.publish_delta(black_box(&delta));
            // The zero-copy gate, enforced on every iteration: a
            // steady-state fleet push deep-copies nothing.
            assert_eq!(
                RuntimePolicy::deep_clone_count() - clones_before,
                0,
                "fleet push must not deep-copy the policy"
            );
            pushed
        });
    });

    // Baseline: the pre-store shape — one deep copy per agent. 100
    // agents, not 1,000: the cost is linear in the fleet and a full-size
    // run would dominate the suite's wall clock.
    let mut merged = policy.clone();
    merged.apply_delta(&delta);
    let mut baseline = Verifier::new(VerifierConfig::default());
    let ids: Vec<AgentId> = (0..OVERRIDE_FLEET)
        .map(|i| AgentId::from(format!("agent-{i:04}")))
        .collect();
    for id in &ids {
        baseline.add_agent(id.clone(), ak.clone(), policy.clone());
    }
    group.bench_function("per_agent_override_100", |b| {
        b.iter(|| {
            for id in &ids {
                baseline.update_policy(id, merged.clone()).unwrap();
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_apply_delta_vs_rebuild, bench_fleet_push);
criterion_main!(benches);
