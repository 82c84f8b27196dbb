//! The two hot-path gates: a warm `RuntimePolicy::check_digest` touches
//! no heap, and a steady-state `Verifier::publish_delta` to a shared fleet
//! deep-copies no policy.
//!
//! Allocations are counted per thread, by a const-initialised
//! thread-local inside the counting global allocator, so tests running in
//! parallel in this binary cannot perturb the count. The deep-clone
//! counter is process-wide; the push gate is the only test here that
//! clones a policy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use cia_crypto::{HashAlgorithm, KeyPair};
use cia_keylime::{PolicyCheck, PolicyDelta, RuntimePolicy, Verifier, VerifierConfig};

/// Counts every heap allocation the calling thread makes.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread that is being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is exactly the one `System` needs.
// Counting only bumps a const-initialised thread-local `Cell` that has no
// destructor: it never allocates and never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const POLICY_ENTRIES: usize = 10_000;

#[test]
fn a_warm_check_digest_makes_no_heap_allocation() {
    const ROUNDS: u64 = 10_000;
    let mut policy = RuntimePolicy::new();
    for i in 0..POLICY_ENTRIES {
        let path = format!("/usr/bin/tool-{i:05}");
        let digest = HashAlgorithm::Sha256.digest(path.as_bytes());
        policy.allow(path, digest.to_hex());
    }
    for prefix in ["/tmp", "/var/log", "/run"] {
        policy.exclude(prefix);
    }
    let allowed = format!("/usr/bin/tool-{:05}", POLICY_ENTRIES / 2);
    let digest = HashAlgorithm::Sha256.digest(allowed.as_bytes());
    let probes = [
        (allowed.as_str(), PolicyCheck::Allowed),
        ("/tmp/build/output.o", PolicyCheck::Excluded),
        ("/usr/bin/never-seen", PolicyCheck::NotInPolicy),
    ];

    let before = allocations();
    for _ in 0..ROUNDS {
        for (path, expected) in &probes {
            let verdict = black_box(&policy).check_digest(black_box(path), black_box(&digest));
            assert_eq!(verdict, *expected);
        }
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated,
        0,
        "{allocated} allocations over {} allowed/excluded/not-in-policy checks",
        ROUNDS * probes.len() as u64
    );
}

#[test]
fn a_steady_state_delta_push_deep_copies_no_policy() {
    const FLEET: usize = 1_000;
    const DELTA_TOUCHES: usize = 100;
    const PUSHES: usize = 20;
    let mut policy = RuntimePolicy::new();
    for i in 0..POLICY_ENTRIES {
        policy.allow(format!("/usr/bin/tool-{i:05}"), format!("{i:064x}"));
    }
    policy.exclude("/tmp");
    // An idempotent update touching 1 % of the policy: each path gains a
    // digest and retires the old one, so every push applies it in full.
    let mut delta = PolicyDelta::default();
    for i in 0..DELTA_TOUCHES {
        let path = format!("/usr/bin/tool-{i:05}");
        let digest = format!("{:064x}", i + POLICY_ENTRIES);
        delta.added.push((path.clone(), digest.clone()));
        delta.retired.push((path, digest));
    }
    delta.meta = policy.meta.clone();
    delta.meta.version += 1;

    let ak = KeyPair::from_material([7u8; 32]).verifying;
    let mut verifier = Verifier::new(VerifierConfig::default());
    verifier.publish_policy(policy);
    for i in 0..FLEET {
        verifier.add_agent_shared(format!("agent-{i:04}"), ak.clone());
    }
    // The first push pays the cold copy-on-write and seeds the store's
    // spare buffer; every push after it is steady state.
    verifier.publish_delta(&PolicyDelta::default());

    for push in 0..PUSHES {
        let before = RuntimePolicy::deep_clone_count();
        let (_, applied) = verifier.publish_delta(black_box(&delta));
        assert_eq!(applied, delta.len());
        assert_eq!(
            RuntimePolicy::deep_clone_count() - before,
            0,
            "steady-state push {push} to {FLEET} shared agents deep-copied the policy"
        );
    }
}
