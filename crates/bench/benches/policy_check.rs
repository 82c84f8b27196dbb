//! Criterion: the policy-check hot path.
//!
//! Times `check_digest` on allowed, excluded and not-in-policy probes,
//! and — via a counting global allocator — *proves* the zero-copy claim:
//! the allowed, excluded and not-in-policy outcomes perform zero heap
//! allocations per check (the digest is rendered to hex on the stack).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use cia_crypto::{Digest, HashAlgorithm};
use cia_keylime::{PolicyCheck, RuntimePolicy};

/// Counts every heap allocation so benchmarks can assert on allocation
/// behaviour, not just wall-clock time.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const ENTRIES: usize = 10_000;
const CHECKS: u64 = 10_000;

/// A policy with `ENTRIES` allowed paths and a handful of excludes,
/// plus representative probes for each verdict.
struct Fixture {
    policy: RuntimePolicy,
    allowed_path: String,
    allowed_digest: Digest,
    excluded_path: String,
    unknown_path: String,
}

fn fixture() -> Fixture {
    let mut policy = RuntimePolicy::new();
    let mut allowed_digest = None;
    for i in 0..ENTRIES {
        let path = format!("/usr/bin/tool-{i:05}");
        let digest = HashAlgorithm::Sha256.digest(path.as_bytes());
        policy.allow(path, digest.to_hex());
        if i == ENTRIES / 2 {
            allowed_digest = Some(digest);
        }
    }
    policy.exclude("/tmp");
    policy.exclude("/var/log");
    policy.exclude("/run");
    let allowed_digest = allowed_digest.unwrap();
    Fixture {
        policy,
        allowed_path: format!("/usr/bin/tool-{:05}", ENTRIES / 2),
        allowed_digest,
        excluded_path: "/tmp/scratch/build-output.o".to_string(),
        unknown_path: "/usr/bin/never-seen".to_string(),
    }
}

/// The acceptance gate: zero heap allocations per check on the allowed,
/// excluded and not-in-policy outcomes.
fn assert_zero_alloc_fast_paths(fx: &Fixture) {
    let before = allocations();
    for _ in 0..CHECKS {
        assert_eq!(
            black_box(&fx.policy)
                .check_digest(black_box(&fx.allowed_path), black_box(&fx.allowed_digest)),
            PolicyCheck::Allowed
        );
        assert_eq!(
            black_box(&fx.policy)
                .check_digest(black_box(&fx.excluded_path), black_box(&fx.allowed_digest)),
            PolicyCheck::Excluded
        );
        assert_eq!(
            black_box(&fx.policy)
                .check_digest(black_box(&fx.unknown_path), black_box(&fx.allowed_digest)),
            PolicyCheck::NotInPolicy
        );
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated,
        0,
        "fast paths must not touch the heap: {allocated} allocations over {} checks",
        3 * CHECKS
    );
    println!(
        "policy_check/zero_alloc: 0 allocations over {} warm checks (allowed/excluded/unknown)",
        3 * CHECKS
    );
}

fn bench_check_digest(c: &mut Criterion) {
    let fx = fixture();
    assert_zero_alloc_fast_paths(&fx);

    let mut group = c.benchmark_group("policy_check/check_digest");
    group.throughput(Throughput::Elements(1));
    group.bench_function("allowed", |b| {
        b.iter(|| {
            fx.policy
                .check_digest(black_box(&fx.allowed_path), &fx.allowed_digest)
        })
    });
    group.bench_function("excluded", |b| {
        b.iter(|| {
            fx.policy
                .check_digest(black_box(&fx.excluded_path), &fx.allowed_digest)
        })
    });
    group.bench_function("not_in_policy", |b| {
        b.iter(|| {
            fx.policy
                .check_digest(black_box(&fx.unknown_path), &fx.allowed_digest)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_check_digest);
criterion_main!(benches);
