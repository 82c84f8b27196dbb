//! Exact, machine-independent costs, pinned.
//!
//! Each figure here is a count, not a time: the same on every machine and
//! every run. A change that moves one re-pins it and says why, so a cost
//! that grows back fails here rather than only in a benchmark.

use cia_crypto::{HashAlgorithm, KeyPair};
use cia_keylime::{
    Agent, AgentId, AgentRequest, AgentResponse, AgentRoundResult, AgentStateSnapshot, Alert,
    BackendKind, FailureKind, PolicyEpoch, ReliableTransport, RoundOutcome, RuntimePolicy,
    Transport, Verifier, VerifierConfig, VerifierJournal, DEFAULT_JOURNAL_DIR,
};
use cia_os::{ExecMethod, Machine, MachineConfig};
use cia_tpm::Manufacturer;
use cia_vfs::{Vfs, VfsPath};
use cia_wire::Wire;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A verifier's quote request from `from_entry`.
fn quote_request(from_entry: usize) -> AgentRequest {
    AgentRequest::Quote {
        // A verifier nonce is a SHA-256 digest; a fixed one keeps the
        // count exact.
        nonce: HashAlgorithm::Sha256.digest(b"ledger").as_bytes().to_vec(),
        from_entry,
        structured: true,
    }
}

/// The bytes of `request` as a [`ReliableTransport`] meters them: half of
/// a call that echoes it back.
fn request_bytes(request: &AgentRequest) -> u64 {
    let mut transport = ReliableTransport::new();
    let echoed: AgentRequest = transport.call(request, |request| request).unwrap();
    assert_eq!(&echoed, request);
    transport.wire_bytes() / 2
}

/// The bytes of one quote response from `agent`, polled from
/// `from_entry`, as a [`ReliableTransport`] meters them: the call's wire
/// bytes less the request's.
fn response_bytes(agent: &mut Agent, from_entry: usize) -> u64 {
    let request = quote_request(from_entry);
    let mut transport = ReliableTransport::new();
    let response: AgentResponse = transport
        .call(&request, |request| agent.handle(request))
        .unwrap();
    assert!(matches!(response, AgentResponse::Quote(_)));
    transport.wire_bytes() - request_bytes(&request)
}

/// A steady poll's request: the tag, the 32-byte nonce with its length,
/// `from_entry` and the inert `structured` flag.
#[test]
fn a_quote_request_has_a_pinned_size() {
    assert_eq!(request_bytes(&quote_request(0)), REQUEST);
    assert_eq!(request_bytes(&quote_request(1)), REQUEST);
}

/// A TPM+IMA quote response at the three points of a steady poll: from
/// entry 0 (the `boot_aggregate` and PCRs 0–10), past entry 0 with no new
/// entries, and past entry 0 with four new entries (PCR 10 alone for
/// both). The entry-0 count is the enrolment poll's and a reboot's; the
/// other two are what every later poll costs.
#[test]
fn a_tpm_ima_quote_response_has_a_pinned_size() {
    let mut rng = StdRng::seed_from_u64(5);
    let manufacturer = Manufacturer::generate(&mut rng);
    let mut agent = Agent::new(Machine::new(&manufacturer, MachineConfig::default()));

    assert_eq!(response_bytes(&mut agent, 0), AT_ENTRY_ZERO);
    assert_eq!(response_bytes(&mut agent, 1), PAST_ENTRY_ZERO);

    let machine = agent.machine_mut();
    for i in 0..4 {
        let path = VfsPath::new(&format!("/usr/bin/tool-{i}")).unwrap();
        machine.write_executable(&path, b"tool").unwrap();
        machine.exec(&path, ExecMethod::Direct).unwrap();
    }
    assert_eq!(response_bytes(&mut agent, 1), PAST_ENTRY_ZERO_FOUR_NEW);
}

// The counts are of the binary `cia_wire` encoding the agent RPC moves.

/// A quote request, from any entry below 128 (`from_entry` is a varint).
const REQUEST: u64 = 36;
/// From entry 0: PCRs 0–10 and the `boot_aggregate` entry.
const AT_ENTRY_ZERO: u64 = 545;
/// Past entry 0, nothing new: PCR 10 alone. Each further register costs
/// 35 bytes (its index in the selection, then an algorithm byte, a length
/// byte and the digest).
const PAST_ENTRY_ZERO: u64 = 145;
/// Past entry 0, four new entries.
const PAST_ENTRY_ZERO_FOUR_NEW: u64 = 349;

/// A fresh journal, the verifier it journals, and a benchmark-shaped
/// agent id: 17 bytes, as `node-{index:012x}` names an agent.
fn journal() -> (VerifierJournal, Verifier, AgentId) {
    let dir = VfsPath::new(DEFAULT_JOURNAL_DIR).unwrap();
    let journal = VerifierJournal::create(Vfs::with_standard_layout(), &dir).unwrap();
    let mut verifier = Verifier::new(VerifierConfig::default());
    let id = AgentId::new(format!("node-{:012x}", 0));
    let mut rng = StdRng::seed_from_u64(5);
    verifier.add_agent_shared(id.clone(), KeyPair::generate(&mut rng).verifying);
    (journal, verifier, id)
}

/// The bytes `write` grows the journal by: frame header, key and value.
fn journal_growth(journal: &mut VerifierJournal, write: impl FnOnce(&mut VerifierJournal)) -> u64 {
    let before = journal.log().vfs().total_bytes();
    write(journal);
    journal.log().vfs().total_bytes() - before
}

/// A steady round's row for `id`: verified, four new entries, on epoch 1.
fn steady_row(id: &AgentId) -> AgentRoundResult {
    AgentRoundResult {
        id: id.clone(),
        backend: BackendKind::TpmIma,
        day: 0,
        attempts: 1,
        backoff_ms: 0,
        policy_epoch: PolicyEpoch::ZERO.next(),
        shared_policy: true,
        outcome: RoundOutcome::Verified { new_entries: 4 },
    }
}

/// A steady round's result row, as a shard's `Results` frame carries it
/// per agent and a journal ack embeds it.
#[test]
fn a_steady_result_row_has_a_pinned_size() {
    let id = AgentId::new(format!("node-{:012x}", 0));
    assert_eq!(steady_row(&id).to_wire().len() as u64, STEADY_ROW);
}

/// A steady row: the 18-byte id with its length, then one byte each for
/// the backend, the day, the attempt count, the backoff, the epoch, the
/// shared flag, and two for the outcome (its tag and the new-entry
/// count). Every integer is a varint.
const STEADY_ROW: u64 = 26;

/// What the journal appends per agent and per round, in the binary
/// `cia_wire` records it writes.
#[test]
fn journal_records_have_pinned_sizes() {
    let (mut journal, verifier, id) = journal();
    let state = AgentStateSnapshot::fresh(PolicyEpoch::ZERO.next(), true);

    let steady = steady_row(&id);
    let bytes = journal_growth(&mut journal, |j| {
        j.record_ack(1, &steady, &state, None).unwrap();
    });
    assert_eq!(bytes, STEADY_ACK);

    let failed = AgentRoundResult {
        outcome: RoundOutcome::Failed {
            alerts: vec![Alert {
                agent: id.clone(),
                day: 0,
                kind: FailureKind::NotInPolicy {
                    path: "/opt/rogue/r00-00".to_string(),
                    digest: HashAlgorithm::Sha256.digest(b"rogue").to_hex(),
                },
            }],
        },
        ..steady.clone()
    };
    let bytes = journal_growth(&mut journal, |j| {
        j.record_ack(1, &failed, &state, None).unwrap();
    });
    assert_eq!(bytes, FAILED_ACK_ONE_ALERT);

    let mut policy = RuntimePolicy::new();
    policy.allow(
        "/usr/bin/tool",
        HashAlgorithm::Sha256.digest(b"tool").to_hex(),
    );
    let override_state = AgentStateSnapshot::fresh(PolicyEpoch::ZERO, false);
    let override_row = AgentRoundResult {
        shared_policy: false,
        policy_epoch: PolicyEpoch::ZERO,
        ..steady.clone()
    };
    let policy_json = policy.to_json();
    let embedded = policy_json.len() as u64;
    let bytes = journal_growth(&mut journal, |j| {
        j.record_ack(1, &override_row, &override_state, Some(policy_json))
            .unwrap();
    });
    assert_eq!(bytes - embedded, OVERRIDE_ACK_LESS_ITS_POLICY);

    let bytes = journal_growth(&mut journal, |j| {
        j.record_enrolment(&verifier, &id).unwrap();
    });
    assert_eq!(bytes, ENROLMENT);

    let bytes = journal_growth(&mut journal, |j| {
        j.begin_round(2).unwrap();
        j.commit_round(2).unwrap();
    });
    assert_eq!(bytes, ROUND_MARKS);
}

// Every journal frame is a 20-byte header (CRC, timestamp, key and value
// lengths), the key, and the record.

/// A shared agent's verified steady ack: 20, then 23 for `agent/` and
/// the id, then 73 for the record (the round; the 26-byte result row;
/// the 45-byte state, 34 of them the PCR fold; no policy).
/// `durable.bytes_per_ack` in the benchmark is this frame.
const STEADY_ACK: u64 = 116;
/// A failed ack carrying one not-in-policy alert: the steady ack with its
/// 2-byte outcome replaced by 105 (the list, and the alert's agent id,
/// day, 17-byte path and 64-character hex digest).
const FAILED_ACK_ONE_ALERT: u64 = 219;
/// An override agent's ack, less the policy document it embeds: the
/// steady ack plus the document's two-byte length prefix.
const OVERRIDE_ACK_LESS_ITS_POLICY: u64 = 118;
/// A shared TPM+IMA agent's enrolment: 20, then 23 for `enrol/` and the
/// id, then 38 for the record (the 32-byte AK with its length, the
/// identity, the shared flag, the epoch and no override policy).
const ENROLMENT: u64 = 81;
/// One round's marks: 20 + 12 (`meta/started`) + 1 and 20 + 14
/// (`meta/committed`) + 1; the round is a one-byte varint.
const ROUND_MARKS: u64 = 68;
