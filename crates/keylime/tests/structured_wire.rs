//! Wire tests for the quote excerpt — the typed [`ImaLogEntry`] list a
//! [`QuoteResponse`] carries, the only form an excerpt has.
//!
//! What crosses the wire is each entry's three semantic fields; the
//! memoized template hashes never travel. The verifier recomputes them
//! from what arrived, so the excerpt survives a JSON roundtrip with its
//! register fold intact, and an entry rewritten in flight no longer
//! replays to the quoted evidence register — whichever backend family
//! produced it.
//!
//! [`ImaLogEntry`]: cia_ima::ImaLogEntry

use cia_crypto::HashAlgorithm;
use cia_keylime::{
    Agent, AgentRequest, AgentResponse, AgentStatus, AttestationOutcome, BackendKind, Cluster,
    ConfidentialVmConfig, FailureKind, QuoteResponse, RuntimePolicy, SecureWorldConfig, Transport,
    TransportError, VerifierConfig,
};
use cia_os::{ExecMethod, MachineConfig};
use cia_tpm::pcr::extend_digest;
use cia_vfs::VfsPath;
use serde::de::DeserializeOwned;
use serde::Serialize;

fn p(s: &str) -> VfsPath {
    VfsPath::new(s).unwrap()
}

/// Pulls one quote straight from an agent.
fn structured_quote(agent: &mut Agent) -> QuoteResponse {
    let response = agent.handle(AgentRequest::Quote {
        nonce: vec![7; 32],
        from_entry: 0,
        structured: true,
    });
    match response {
        AgentResponse::Quote(q) => q,
        other => panic!("unexpected response {other:?}"),
    }
}

/// The typed entry list survives a JSON wire roundtrip: paths, digests,
/// renderings and recomputed template hashes are preserved, and the
/// memoized hash caches never travel.
#[test]
fn structured_excerpt_roundtrips_through_the_wire() {
    let mut cluster = Cluster::new(43, VerifierConfig::default());
    let id = cluster
        .add_machine(MachineConfig::default(), RuntimePolicy::new())
        .unwrap();
    {
        let m = cluster.agent_mut(&id).unwrap().machine_mut();
        m.write_executable(&p("/usr/bin/tool"), b"some tool")
            .unwrap();
        m.exec(&p("/usr/bin/tool"), ExecMethod::Direct).unwrap();
    }
    let resp = structured_quote(cluster.agent_mut(&id).unwrap());
    let entries = resp.entries();
    assert_eq!(entries.len(), resp.total_entries());

    let wire = serde_json::to_string(&resp).unwrap();
    let back: QuoteResponse = serde_json::from_str(&wire).unwrap();
    let back_entries = back.entries();
    assert_eq!(back_entries.len(), entries.len());

    let mut sent_fold = HashAlgorithm::Sha256.zero_digest();
    let mut received_fold = HashAlgorithm::Sha256.zero_digest();
    for (sent, received) in entries.iter().zip(back_entries) {
        assert_eq!(sent.path, received.path);
        assert_eq!(sent.filedata_hash, received.filedata_hash);
        assert_eq!(sent.render(), received.render());
        // Template hashes recompute to the same value on the far side.
        for bank in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            assert_eq!(sent.template_hash(bank), received.template_hash(bank));
        }
        sent_fold = extend_digest(
            HashAlgorithm::Sha256,
            sent_fold,
            sent.template_hash(HashAlgorithm::Sha256),
        );
        received_fold = extend_digest(
            HashAlgorithm::Sha256,
            received_fold,
            received.template_hash(HashAlgorithm::Sha256),
        );
    }
    assert_eq!(sent_fold, received_fold, "PCR folds agree across the wire");
    assert_eq!(resp.quote().pcr_value(10), Some(sent_fold));
}

/// One measured path per backend family.
const TPM_PATH: &str = "/usr/bin/good";
const TA_PATH: &str = "/ta/keymaster";
const CVM_PATH: &str = "/opt/svc/agentd";

/// A transport that rewrites those paths inside the serialized response
/// — the man-in-the-middle an excerpt must not survive.
struct TamperingTransport {
    requests: u64,
}

impl Transport for TamperingTransport {
    fn call<Req, Resp>(
        &mut self,
        request: &Req,
        serve: impl FnOnce(Req) -> Resp,
    ) -> Result<Resp, TransportError>
    where
        Req: Serialize + DeserializeOwned,
        Resp: Serialize + DeserializeOwned,
    {
        let codec = |e: serde_json::Error| TransportError::Codec {
            reason: e.to_string(),
        };
        self.requests += 1;
        let wire_req = serde_json::to_string(request).map_err(codec)?;
        let decoded: Req = serde_json::from_str(&wire_req).map_err(codec)?;
        let response = serve(decoded);
        let wire_resp = serde_json::to_string(&response).map_err(codec)?;
        let tampered = [TPM_PATH, TA_PATH, CVM_PATH]
            .iter()
            .fold(wire_resp, |wire, path| {
                wire.replace(path, &format!("{path}.evil"))
            });
        serde_json::from_str(&tampered).map_err(codec)
    }

    fn requests(&self) -> u64 {
        self.requests
    }

    fn drops(&self) -> u64 {
        0
    }

    fn wire_bytes(&self) -> u64 {
        0
    }

    fn fork(&self, _lane: u64) -> Self {
        TamperingTransport { requests: 0 }
    }
}

/// Tampering with an entry in flight lands as a PCR mismatch on every
/// backend family: the verifier recomputes template hashes from the
/// entry fields (the memoized caches serialize to null), so the fold no
/// longer matches the quoted evidence register.
#[test]
fn tampered_structured_excerpt_is_rejected() {
    let transport = TamperingTransport { requests: 0 };
    let mut cluster = Cluster::with_transport(47, VerifierConfig::default(), transport);

    let tpm = cluster
        .add_machine(MachineConfig::default(), RuntimePolicy::new())
        .unwrap();
    {
        let m = cluster.agent_mut(&tpm).unwrap().machine_mut();
        m.write_executable(&p(TPM_PATH), b"known good binary")
            .unwrap();
        m.exec(&p(TPM_PATH), ExecMethod::Direct).unwrap();
    }
    let sw = cluster
        .add_secure_world(SecureWorldConfig::new("sw-00", 1), RuntimePolicy::new())
        .unwrap();
    let world = cluster.agent_mut(&sw).unwrap().backend_mut();
    assert!(world
        .as_secure_world_mut()
        .unwrap()
        .load_trusted_app(TA_PATH, b"trusted keymaster applet"));
    let cvm = cluster
        .add_confidential_vm(ConfidentialVmConfig::new("cvm-00", 2), RuntimePolicy::new())
        .unwrap();
    let guest = cluster.agent_mut(&cvm).unwrap().backend_mut();
    guest
        .as_confidential_vm_mut()
        .unwrap()
        .exec_measured(CVM_PATH, b"confidential service daemon");

    for (kind, id) in [
        (BackendKind::TpmIma, tpm),
        (BackendKind::SecureWorld, sw),
        (BackendKind::ConfidentialVm, cvm),
    ] {
        match cluster.attest(&id).unwrap() {
            AttestationOutcome::Failed { alerts } => {
                assert!(
                    alerts
                        .iter()
                        .any(|a| matches!(a.kind, FailureKind::PcrMismatch)),
                    "{kind}: tampering must surface as a PCR mismatch: {alerts:?}"
                );
            }
            other => panic!("{kind}: tampered excerpt must not verify: {other:?}"),
        }
        assert_eq!(cluster.status(&id).unwrap(), AgentStatus::Paused);
    }
}
