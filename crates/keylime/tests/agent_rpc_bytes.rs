//! The agent RPC's bytes, pinned.
//!
//! `cost_ledger.rs` pins the sizes of the agent RPC's messages and
//! `json_golden.rs` their JSON; this pins the binary `cia_wire` bytes
//! themselves. Every request and response shape an agent exchanges, for
//! all three backends and from fixed seeds, is encoded back to back and
//! hashed: a codec change that moves, reorders or re-widths one byte of
//! the agent RPC changes the digest.

use cia_crypto::HashAlgorithm;
use cia_keylime::{
    Agent, AgentRequest, AgentResponse, BackendKind, BackendRoot, ConfidentialVmBackend,
    ConfidentialVmConfig, SecureWorldBackend, SecureWorldConfig,
};
use cia_os::{ExecMethod, Machine, MachineConfig};
use cia_tpm::Manufacturer;
use cia_vfs::VfsPath;
use cia_wire::{Wire, Writer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quote_request(from_entry: usize) -> AgentRequest {
    AgentRequest::Quote {
        nonce: HashAlgorithm::Sha256.digest(b"corpus").as_bytes().to_vec(),
        from_entry,
        structured: true,
    }
}

/// Four new measurements on `agent`, whatever its backend, named by
/// `batch`.
fn measure_four(agent: &mut Agent, batch: u32) {
    let backend = agent.backend_mut();
    for i in 0..4 {
        let path = format!("/ta/tool-{batch}-{i}");
        if let Some(machine) = backend.as_machine_mut() {
            let path = VfsPath::new(&format!("/usr/bin/tool-{batch}-{i}")).unwrap();
            machine.write_executable(&path, b"tool").unwrap();
            machine.exec(&path, ExecMethod::Direct).unwrap();
        } else if let Some(world) = backend.as_secure_world_mut() {
            assert!(world.load_trusted_app(&path, b"tool"));
        } else if let Some(vm) = backend.as_confidential_vm_mut() {
            vm.exec_measured(&path, b"tool");
        }
    }
}

/// Every request shape, then every response shape: an error, and for
/// each backend its identity, a quote from entry 0 (after four
/// measurements, so every backend's excerpt has entries), a quote past
/// entry 0 with nothing new and one past entry 0 with four new entries.
fn corpus() -> (Vec<AgentRequest>, Vec<AgentResponse>) {
    let mut rng = StdRng::seed_from_u64(8);
    let manufacturer = Manufacturer::generate(&mut rng);
    let root = BackendRoot::generate("Platform", &mut rng);
    let mut agents = [
        Agent::new(Machine::new(&manufacturer, MachineConfig::default())),
        Agent::with_backend(SecureWorldBackend::provision(
            SecureWorldConfig::new("sw", 3),
            &root,
        )),
        Agent::with_backend(ConfidentialVmBackend::provision(
            ConfidentialVmConfig::new("cvm", 4),
            &root,
        )),
    ];
    let identity = AgentRequest::Identity {
        challenge: b"registrar-challenge".to_vec(),
    };
    let requests = vec![
        identity.clone(),
        quote_request(0),
        quote_request(1),
        AgentRequest::Quote {
            nonce: Vec::new(),
            from_entry: 300_000,
            structured: false,
        },
    ];
    let mut responses = vec![AgentResponse::Error {
        reason: "backend unavailable".into(),
    }];
    for agent in &mut agents {
        responses.push(agent.handle(identity.clone()));
        measure_four(agent, 0);
        let from_zero = agent.handle(quote_request(0));
        let past = match &from_zero {
            AgentResponse::Quote(quote) => quote.total_entries(),
            other => panic!("{other:?}"),
        };
        responses.push(from_zero);
        responses.push(agent.handle(quote_request(past)));
        measure_four(agent, 1);
        responses.push(agent.handle(quote_request(past)));
    }
    (requests, responses)
}

#[test]
fn the_agent_rpc_corpus_has_pinned_bytes() {
    let (requests, responses) = corpus();
    let identities: Vec<BackendKind> = responses
        .iter()
        .filter_map(|r| match r {
            AgentResponse::Identity(identity) => Some(identity.backend()),
            _ => None,
        })
        .collect();
    assert_eq!(identities, BackendKind::ALL);
    let new_entries: Vec<usize> = responses
        .iter()
        .filter_map(|r| match r {
            AgentResponse::Quote(quote) => Some(quote.entries().len()),
            _ => None,
        })
        .collect();
    assert!(
        new_entries
            .chunks(3)
            .all(|c| c[0] > 0 && c[1] == 0 && c[2] == 4),
        "{new_entries:?}"
    );

    let mut w = Writer::new();
    for request in &requests {
        request.encode(&mut w);
    }
    for response in &responses {
        response.encode(&mut w);
    }
    let bytes = w.into_vec();
    assert_eq!(
        (bytes.len(), HashAlgorithm::Sha256.digest(&bytes).to_hex()),
        (CORPUS_LEN, CORPUS_SHA256.to_string())
    );
}

/// The corpus's encoded length in bytes.
const CORPUS_LEN: usize = 3694;
/// The SHA-256 of the corpus's encodings, back to back.
const CORPUS_SHA256: &str = "f91318458c093748d03b5b5d7df0221b298b0d83131fe6e71d780fb0f40a2a7c";
