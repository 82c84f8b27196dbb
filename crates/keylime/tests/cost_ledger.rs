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

/// The JSON bytes of one quote response from `agent`, polled from
/// `from_entry`, as a [`ReliableTransport`] meters them: the call's wire
/// bytes less the request's.
fn response_bytes(agent: &mut Agent, from_entry: usize) -> u64 {
    let request = AgentRequest::Quote {
        // A verifier nonce is a SHA-256 digest; a fixed one keeps the
        // count exact.
        nonce: HashAlgorithm::Sha256.digest(b"ledger").as_bytes().to_vec(),
        from_entry,
        structured: true,
    };
    let request_bytes = serde_json::to_string(&request).unwrap().len() as u64;
    let mut transport = ReliableTransport::new();
    let response: AgentResponse = transport
        .call(&request, |request| agent.handle(request))
        .unwrap();
    assert!(matches!(response, AgentResponse::Quote(_)));
    transport.wire_bytes() - request_bytes
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

/// From entry 0: PCRs 0–10 and the `boot_aggregate` entry.
const AT_ENTRY_ZERO: u64 = 1386;
/// Past entry 0, nothing new: PCR 10 alone. Each further register costs
/// 74 bytes, so quoting PCRs 0–10 here would read 1,262.
const PAST_ENTRY_ZERO: u64 = 522;
/// Past entry 0, four new entries.
const PAST_ENTRY_ZERO_FOUR_NEW: u64 = 1026;
