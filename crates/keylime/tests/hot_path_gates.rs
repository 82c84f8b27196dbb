//! The hot-path gates: a warm `RuntimePolicy::check_digest` touches no
//! heap, a policy holds a bounded number of bytes per (path, digest) pair,
//! a `Verifier::publish_delta` to a shared fleet — or the replay of a
//! long journal of them — copies only the policy chunks its deltas touch,
//! never the policy, each copy for a few allocations, a warm agent
//! RPC call makes a pinned number of allocations, so does the appraisal
//! of a steady poll whatever its entries (with one more per entry the
//! template-hash memo has not seen), and a warm journal ack at most one.
//!
//! Allocations and live heap bytes are counted per thread, by
//! const-initialised thread-locals inside the counting global allocator,
//! and chunk copies by a thread-local inside `cia_keylime`, so tests
//! running in parallel in this binary cannot perturb any count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use cia_crypto::{HashAlgorithm, KeyPair};
use cia_keylime::{
    Agent, AgentId, AgentRequest, AgentResponse, AgentRoundResult, AgentStateSnapshot,
    AttestationOutcome, BackendKind, PolicyCheck, PolicyDelta, PolicyEpoch, ReliableTransport,
    RoundOutcome, RuntimePolicy, Transport, TransportError, Verifier, VerifierConfig,
    VerifierJournal, DEFAULT_JOURNAL_DIR,
};
use cia_os::{ExecMethod, Machine, MachineConfig};
use cia_tpm::Manufacturer;
use cia_vfs::{Vfs, VfsPath};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts every heap allocation the calling thread makes, and the bytes
/// it has allocated and not yet freed.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread that is being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_bytes(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is exactly the one `System` needs.
// Counting only bumps const-initialised thread-local `Cell`s that have no
// destructor: it never allocates and never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        count_bytes(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        count_bytes(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Heap bytes this thread has allocated and not freed (a thread that
/// frees another's memory can go negative).
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
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
fn a_policy_holds_at_most_96_bytes_per_pair() {
    const BYTES_PER_PAIR: i64 = 96;
    let before = live_bytes();
    let mut policy = RuntimePolicy::new();
    for i in 0..POLICY_ENTRIES {
        let path = format!("/usr/bin/tool-{i:05}");
        let digest = HashAlgorithm::Sha256.digest(path.as_bytes());
        policy.allow(path, digest.to_hex());
    }
    let held = live_bytes() - before;
    assert_eq!(black_box(&policy).line_count(), POLICY_ENTRIES);
    let per_pair = held / POLICY_ENTRIES as i64;
    assert!(
        per_pair <= BYTES_PER_PAIR,
        "a {POLICY_ENTRIES}-entry policy holds {held} bytes, {per_pair} per (path, digest) pair"
    );
}

#[test]
fn the_first_edit_of_a_shared_chunk_costs_at_most_four_allocations() {
    const ALLOCATIONS_PER_COPY: u64 = 4;
    // One chunk of 1 to 256 paths: the copy's cost must not grow with them.
    for paths in [1, 16, 128, 256] {
        let mut policy = RuntimePolicy::new();
        for i in 0..paths {
            policy.allow(format!("/usr/bin/tool-{i:05}"), format!("{i:064x}"));
        }
        let path = format!("/usr/bin/tool-{:05}", paths / 2);
        let digest = format!("{:064x}", paths + 1);
        let mut edited = policy.clone();
        let copies = RuntimePolicy::chunk_copy_count();
        let before = allocations();
        edited.allow(path.as_str(), digest.as_str());
        let allocated = allocations() - before;
        assert_eq!(RuntimePolicy::chunk_copy_count() - copies, 1);
        assert!(
            allocated <= ALLOCATIONS_PER_COPY,
            "adding a digest to a shared {paths}-path chunk made {allocated} allocations"
        );
        assert_ne!(black_box(&edited), black_box(&policy));
    }
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

    let ak = KeyPair::from_material([7u8; 32]).verifying;
    let mut verifier = Verifier::new(VerifierConfig::default());
    verifier.publish_policy(policy);
    for i in 0..FLEET {
        verifier.add_agent_shared(format!("agent-{i:04}"), ak.clone());
    }

    for push in 0..PUSHES {
        // Each push moves 1 % of the policy, spread over its range, to a
        // new digest and retires the old one: every agent still pins the
        // previous epoch, so every chunk the delta lands in is shared.
        let mut delta = PolicyDelta::default();
        for i in 0..DELTA_TOUCHES {
            let path = format!("/usr/bin/tool-{:05}", i * 37 + push);
            let digest = format!("{:064x}", POLICY_ENTRIES * (push + 1) + i);
            delta.added.push((path.clone(), digest.clone()));
            delta.retired.push((path, digest));
        }
        let touched = verifier.policy_store().policy().chunks_touched(&delta);
        let before = RuntimePolicy::chunk_copy_count();
        let (_, applied) = verifier.publish_delta(black_box(&delta));
        let copied = RuntimePolicy::chunk_copy_count() - before;
        assert_eq!(applied, delta.len());
        assert!(
            copied <= touched as u64,
            "push {push} to {FLEET} shared agents copied {copied} chunks; its paths fall in {touched}"
        );
        assert!(
            copied > 0,
            "push {push} edited shared chunks without copying them"
        );
    }
}

#[test]
fn recovering_a_long_journal_copies_only_the_chunks_its_deltas_touched() {
    const ENTRIES: usize = 50_000;
    const DELTAS: usize = 60;
    let mut policy = RuntimePolicy::new();
    for i in 0..ENTRIES {
        policy.allow(format!("/usr/lib/pkg-{i:06}"), format!("{i:064x}"));
    }
    // Recovery parses the full publish from its document; publishing the
    // parsed policy gives the live store the same chunk layout, so the
    // chunks each delta touches are counted against that layout.
    let policy = RuntimePolicy::from_json(&policy.to_json()).unwrap();

    let dir = VfsPath::new(DEFAULT_JOURNAL_DIR).unwrap();
    let mut journal = VerifierJournal::create(Vfs::with_standard_layout(), &dir).unwrap();
    let mut verifier = Verifier::new(VerifierConfig::default());
    let epoch = verifier.publish_policy(policy);
    journal
        .record_publish_full(epoch, verifier.policy_store().policy())
        .unwrap();
    let mut touched = 0;
    for day in 0..DELTAS {
        // A day's delta: new binaries, which sort after every base path,
        // plus a few base packages moved to a new digest.
        let mut delta = PolicyDelta::default();
        for k in 0..20 {
            let path = format!("/usr/local/bin/d{day:06}-{k:04}");
            delta.added.push((path, format!("{:064x}", day * 100 + k)));
        }
        for k in 0..5 {
            let path = format!("/usr/lib/pkg-{:06}", (day * 811 + k * 7_919) % ENTRIES);
            let digest = format!("{:064x}", ENTRIES + day * 100 + k);
            delta.added.push((path.clone(), digest.clone()));
            delta.retired.push((path, digest));
        }
        touched += verifier.policy_store().policy().chunks_touched(&delta);
        let (epoch, _) = verifier.publish_delta(&delta);
        journal.record_publish_delta(epoch, &delta).unwrap();
    }

    // Recovery keeps every replayed epoch alive (quarantined agents may
    // appraise against any of them), so each delta's chunks are shared
    // when it is replayed.
    let before = RuntimePolicy::chunk_copy_count();
    let recovered =
        VerifierJournal::recover(journal.log().vfs().clone(), &dir, verifier.config()).unwrap();
    let copied = RuntimePolicy::chunk_copy_count() - before;
    assert_eq!(
        recovered.verifier.policy_store().policy(),
        verifier.policy_store().policy()
    );
    assert!(
        copied > 0,
        "replayed deltas edited shared chunks without copying them"
    );
    assert!(
        copied <= touched as u64,
        "recovering {DELTAS} deltas copied {copied} chunks; their paths fall in {touched}"
    );
}

/// A warm `ReliableTransport::call` of a steady TPM+IMA poll — a quote
/// request from entry 1 and a response with four new entries — makes at
/// most this many heap allocations: the decoded copies' own buffers (the
/// request's nonce; the quote's nonce and register values, the entry
/// list and each entry's path). The entry list is reserved for exactly
/// once, from the entry's declared shortest encoding, so it never
/// regrows. The agent's work is outside the count. A codec that parses
/// text again, a buffer that is not reused, or a list that regrows
/// while it decodes fails here.
#[test]
fn a_warm_steady_poll_call_makes_a_pinned_number_of_allocations() {
    const ALLOCATIONS_PER_CALL: u64 = 8;
    let mut rng = StdRng::seed_from_u64(5);
    let manufacturer = Manufacturer::generate(&mut rng);
    let mut agent = Agent::new(Machine::new(&manufacturer, MachineConfig::default()));
    let machine = agent.machine_mut();
    for i in 0..4 {
        let path = VfsPath::new(&format!("/usr/bin/tool-{i}")).unwrap();
        machine.write_executable(&path, b"tool").unwrap();
        machine.exec(&path, ExecMethod::Direct).unwrap();
    }
    let request = AgentRequest::Quote {
        nonce: HashAlgorithm::Sha256.digest(b"poll").as_bytes().to_vec(),
        from_entry: 1,
        structured: true,
    };
    let response = agent.handle(request.clone());
    let AgentResponse::Quote(quote) = &response else {
        panic!("a quote request yields a quote, got {response:?}");
    };
    assert_eq!(quote.entries().len(), 4);

    let mut transport = ReliableTransport::new();
    let mut allocated = Vec::new();
    for _ in 0..4 {
        let served = response.clone();
        let before = allocations();
        let back: AgentResponse = transport.call(&request, move |_| served).unwrap();
        allocated.push(allocations() - before);
        assert_eq!(black_box(back), response);
    }
    // The first call grows this thread's wire buffer; the rest are warm.
    let warm = allocated[1..].iter().max().copied().unwrap_or_default();
    assert!(
        warm <= ALLOCATIONS_PER_CALL,
        "a warm steady poll call made {warm} allocations (calls: {allocated:?})"
    );
}

/// A [`ReliableTransport`] that notes this thread's allocation count as
/// each call hands its response back: a poll's allocations after that
/// mark are the verifier's own, once the evidence has arrived.
#[derive(Debug)]
struct MarkedTransport {
    inner: ReliableTransport,
    mark: u64,
}

impl Transport for MarkedTransport {
    fn call<Req, Resp>(
        &mut self,
        request: &Req,
        serve: impl FnOnce(Req) -> Resp,
    ) -> Result<Resp, TransportError>
    where
        Req: serde::Serialize + serde::de::DeserializeOwned,
        Resp: serde::Serialize + serde::de::DeserializeOwned,
    {
        let response = self.inner.call(request, serve);
        self.mark = allocations();
        response
    }

    fn requests(&self) -> u64 {
        self.inner.requests()
    }

    fn drops(&self) -> u64 {
        self.inner.drops()
    }

    fn wire_bytes(&self) -> u64 {
        self.inner.wire_bytes()
    }

    fn fork(&self, lane: u64) -> Self {
        MarkedTransport {
            inner: self.inner.fork(lane),
            mark: 0,
        }
    }
}

/// Heap allocations the verifier makes in one sequential poll of `agent`
/// after the response arrives: boxing the evidence, then the appraisal
/// (quote verification, the log fold, the policy checks, the verdict).
fn appraisal_allocations(verifier: &mut Verifier, agent: &mut Agent, new_entries: usize) -> u64 {
    let mut transport = MarkedTransport {
        inner: ReliableTransport::new(),
        mark: 0,
    };
    let outcome = verifier.attest(&mut transport, agent, 0).unwrap();
    let allocated = allocations() - transport.mark;
    assert_eq!(outcome, AttestationOutcome::Verified { new_entries });
    allocated
}

/// The appraisal of a steady poll makes a pinned number of heap
/// allocations when the verifier's template-hash memo holds its entries
/// (a fleet peer sent them first), the same number as a poll with no new
/// entries: the fold and the policy checks add none. The two are the
/// evidence's box and the quote check's signed message, reserved at its
/// exact length. With a cold memo each new entry costs at most one
/// more, the memo's copy of its path.
#[test]
fn a_warm_appraisal_makes_a_pinned_number_of_allocations() {
    const ALLOCATIONS_PER_APPRAISAL: u64 = 2;
    let mut rng = StdRng::seed_from_u64(5);
    let manufacturer = Manufacturer::generate(&mut rng);
    let mut verifier = Verifier::new(VerifierConfig::default());
    let mut policy = RuntimePolicy::new();
    let digest = HashAlgorithm::Sha256.digest(b"tool").to_hex();
    for i in 0..4 {
        policy.allow(format!("/usr/bin/tool-{i}"), &digest);
    }
    verifier.publish_policy(policy);
    let mut enrol = |i: u64| {
        let config = MachineConfig {
            hostname: format!("node-{i}"),
            seed: 50 + i,
            ..MachineConfig::default()
        };
        let agent = Agent::new(Machine::new(&manufacturer, config));
        let ak = agent.machine().tpm.ak_public().unwrap().clone();
        verifier.add_agent_shared(agent.id().clone(), ak);
        agent
    };
    let (first, peer) = (&mut enrol(0), &mut enrol(1));
    let run_tools = |agent: &mut Agent| {
        let machine = agent.machine_mut();
        for i in 0..4 {
            let path = VfsPath::new(&format!("/usr/bin/tool-{i}")).unwrap();
            machine.write_executable(&path, b"tool").unwrap();
            machine.exec(&path, ExecMethod::Direct).unwrap();
        }
    };

    appraisal_allocations(&mut verifier, first, 1);
    appraisal_allocations(&mut verifier, peer, 1);
    let nothing_new = appraisal_allocations(&mut verifier, first, 0);
    run_tools(first);
    let cold = appraisal_allocations(&mut verifier, first, 4);
    run_tools(peer);
    let warm = appraisal_allocations(&mut verifier, peer, 4);

    assert_eq!(
        warm, ALLOCATIONS_PER_APPRAISAL,
        "a warm steady appraisal's allocations"
    );
    assert_eq!(
        warm, nothing_new,
        "the fold of four known entries allocated"
    );
    assert!(
        cold <= warm + 4,
        "a cold appraisal of four new entries made {cold} allocations (warm: {warm})"
    );
    // The memo held the boot_aggregate and the four tools, each hashed
    // once and then answered once; its `Debug` prints only the counts.
    let memo = "TemplateHashMemo { len: 5, hits: 5, misses: 5 }";
    assert!(format!("{verifier:?}").contains(memo), "{verifier:?}");
}

/// A warm journal ack — `VerifierJournal::record_ack` of a shared agent's
/// steady row, the record `Cluster` appends per agent per round — makes at
/// most one heap allocation. The key, the encoded value and the frame go
/// through buffers the journal and its log reuse, and a rewritten key's
/// keydir entry is updated in place; what is left is the segment growing
/// its one buffer, which amortised doubling makes rare. An ack that
/// copies its result row, re-joins the segment path, or encodes into a
/// fresh buffer fails here.
#[test]
fn a_warm_journal_ack_makes_at_most_one_allocation() {
    const ALLOCATIONS_PER_ACK: u64 = 1;
    let dir = VfsPath::new(DEFAULT_JOURNAL_DIR).unwrap();
    let mut journal = VerifierJournal::create(Vfs::with_standard_layout(), &dir).unwrap();
    let epoch = PolicyEpoch::ZERO.next();
    let rows: Vec<AgentRoundResult> = (0..64u64)
        .map(|i| AgentRoundResult {
            id: AgentId::new(format!("node-{i:012x}")),
            backend: BackendKind::TpmIma,
            day: 0,
            attempts: 1,
            backoff_ms: 0,
            policy_epoch: epoch,
            shared_policy: true,
            outcome: RoundOutcome::Verified { new_entries: 4 },
        })
        .collect();
    let state = AgentStateSnapshot::fresh(epoch, true);
    // Round 1 enters every key in the keydir and grows the buffers.
    for row in &rows {
        journal.record_ack(1, row, &state, None).unwrap();
    }
    let mut allocated = Vec::new();
    for round in 2..6 {
        for row in &rows {
            let before = allocations();
            journal.record_ack(round, row, &state, None).unwrap();
            allocated.push(allocations() - before);
        }
    }
    let warm = allocated.iter().max().copied().unwrap_or_default();
    assert!(
        warm <= ALLOCATIONS_PER_ACK,
        "a warm journal ack made {warm} allocations"
    );
    // The per-ack bound alone would pass an ack that allocates once
    // every time. The segment doubles as it grows, so 256 acks of 122
    // bytes regrow it a few times in all.
    let total: u64 = allocated.iter().sum();
    assert!(
        total <= 8,
        "{} warm acks made {total} allocations: more than the segment's growth",
        allocated.len()
    );
}
