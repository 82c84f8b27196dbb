//! Exact, machine-independent costs, pinned.
//!
//! Each figure here is a count, not a time: the same on every machine and
//! every run. A change that moves one re-pins it and says why, so a cost
//! that grows back fails here rather than only in a benchmark.

use cia_crypto::HashAlgorithm;
use cia_keylime::{Agent, AgentRequest, AgentResponse, ReliableTransport, Transport};
use cia_os::{ExecMethod, Machine, MachineConfig};
use cia_tpm::Manufacturer;
use cia_vfs::VfsPath;
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
