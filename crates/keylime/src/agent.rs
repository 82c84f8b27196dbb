//! The Keylime agent: the only component on the untrusted machine.
//!
//! The agent is a thin protocol adapter: requests arrive over the
//! transport, evidence production is delegated to the agent's
//! [`Backend`]. Which backend an agent runs is fixed at
//! provisioning time; the verifier learns it from the registrar record
//! and appraises accordingly.

use cia_ima::ImaLogEntry;
use cia_os::Machine;
use cia_tpm::{AkBinding, EkCertificate, Quote};
use serde::{Deserialize, Serialize};

use crate::backend::{Backend, BackendCert, BackendKind, ChallengeBinding};
use crate::ids::AgentId;

/// Requests an agent answers.
///
/// A transport carries it in its binary `cia_wire` encoding
/// (`#[serde(wire)]`; the `Wire` impl is in `remote.rs`); its JSON form
/// stays for everything else.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(wire)]
pub enum AgentRequest {
    /// Prove platform identity (registration protocol).
    Identity {
        /// Registrar challenge for the identity binding.
        challenge: Vec<u8>,
    },
    /// Produce a quote plus the measurement-list tail.
    Quote {
        /// Verifier anti-replay nonce.
        nonce: Vec<u8>,
        /// Send measurement-list entries starting at this index.
        from_entry: usize,
        /// Inert: the agent ignores it and the verifier always sends
        /// `true`. Still here because `benchmark/src/probes.rs` builds
        /// this request by field name.
        structured: bool,
    },
}

/// Identity material returned during registration — shaped by the
/// backend's root of trust.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IdentityResponse {
    /// TPM identity: manufacturer-endorsed EK plus AK binding.
    TpmEk {
        /// The manufacturer-signed EK certificate.
        ek_certificate: EkCertificate,
        /// Proof the AK lives beside the endorsed EK.
        binding: AkBinding,
    },
    /// Secure-world identity: TEE-vendor device certificate plus proof of
    /// possession.
    SecureWorld {
        /// Vendor certificate over the device attestation key (context:
        /// the measurement-policy digest).
        certificate: BackendCert,
        /// Proof of possession bound to the registrar challenge.
        binding: ChallengeBinding,
    },
    /// Confidential-VM identity: platform certificate rooted in the
    /// launch measurement plus proof of possession.
    ConfidentialVm {
        /// Platform certificate over the guest attestation key (context:
        /// the launch measurement, the only copy the registrar reads).
        certificate: BackendCert,
        /// Proof of possession bound to the registrar challenge.
        binding: ChallengeBinding,
    },
}

impl IdentityResponse {
    /// Which backend family produced this identity material.
    pub fn backend(&self) -> BackendKind {
        match self {
            IdentityResponse::TpmEk { .. } => BackendKind::TpmIma,
            IdentityResponse::SecureWorld { .. } => BackendKind::SecureWorld,
            IdentityResponse::ConfidentialVm { .. } => BackendKind::ConfidentialVm,
        }
    }
}

/// Quote plus incremental measurement list.
///
/// Fields are private so new backends can reshape the payload without a
/// breaking change; read access goes through the accessors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuoteResponse {
    /// Which backend produced this evidence. Unsigned wire metadata: the
    /// verifier trusts its own enrolment record, not this tag, and
    /// rejects evidence whose tag disagrees with the record.
    #[serde(default)]
    pub(crate) backend: BackendKind,
    /// Signed quote over the backend's registers.
    pub(crate) quote: Quote,
    /// The excerpt: the measurement-list entries from `from_entry` on.
    /// Memoized template hashes never travel inside the entries; the
    /// verifier recomputes them from the entry fields, so an entry
    /// altered in flight is caught by the register replay.
    pub(crate) entries: Vec<ImaLogEntry>,
    /// Total entries currently in the measurement list.
    pub(crate) total_entries: usize,
}

impl QuoteResponse {
    /// Assembles a response.
    pub fn new(
        backend: BackendKind,
        quote: Quote,
        entries: Vec<ImaLogEntry>,
        total_entries: usize,
    ) -> Self {
        QuoteResponse {
            backend,
            quote,
            entries,
            total_entries,
        }
    }

    /// Which backend claims to have produced this evidence (unsigned —
    /// see the field docs).
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The signed quote.
    pub fn quote(&self) -> &Quote {
        &self.quote
    }

    /// The excerpt: the entries from the requested `from_entry` on.
    pub fn entries(&self) -> &[ImaLogEntry] {
        &self.entries
    }

    /// Total entries in the agent's measurement list.
    pub fn total_entries(&self) -> usize {
        self.total_entries
    }

    /// Platform reset counter, read from the signed quote so the
    /// verifier can detect reboots.
    pub fn boot_count(&self) -> u64 {
        self.quote.boot_count
    }
}

/// Responses an agent produces, carried as [`AgentRequest`] is.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(wire)]
pub enum AgentResponse {
    /// Answer to [`AgentRequest::Identity`].
    Identity(IdentityResponse),
    /// Answer to [`AgentRequest::Quote`].
    Quote(QuoteResponse),
    /// The agent could not fulfil the request.
    Error {
        /// Description of the failure.
        reason: String,
    },
}

/// The agent process wrapping one attestation backend.
#[derive(Debug)]
pub struct Agent {
    id: AgentId,
    backend: Backend,
}

impl Agent {
    /// Wraps a machine in the classic TPM+IMA backend.
    pub fn new(machine: Machine) -> Self {
        Agent::with_backend(Backend::from(machine))
    }

    /// Wraps an arbitrary backend; the agent identity derives from the
    /// backend's host name.
    pub fn with_backend(backend: impl Into<Backend>) -> Self {
        let backend = backend.into();
        Agent {
            id: AgentId::new(backend.hostname()),
            backend,
        }
    }

    /// The agent identity (the platform's host name).
    pub fn id(&self) -> &AgentId {
        &self.id
    }

    /// Which backend this agent runs.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Read access to the backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Mutable access to the backend — used by experiments (and
    /// attackers) to act on the platform.
    pub fn backend_mut(&mut self) -> &mut Backend {
        &mut self.backend
    }

    /// The platform's notion of the current simulated day.
    pub fn day(&self) -> u32 {
        self.backend.day()
    }

    /// Crash/restarts the platform, whatever the backend: TPM machines
    /// reboot (reset counter bumps, IMA log clears), secure worlds and
    /// confidential VMs reset their measurement state.
    ///
    /// # Errors
    ///
    /// [`crate::BackendError::Platform`] when the platform refuses.
    pub fn restart(&mut self) -> Result<(), crate::backend::BackendError> {
        self.backend.restart()
    }

    /// Read access to the underlying machine.
    ///
    /// # Panics
    ///
    /// When the agent does not run the TPM+IMA backend; heterogeneous
    /// call sites should use [`Agent::try_machine`].
    #[expect(clippy::expect_used, reason = "documented panic; see # Panics")]
    pub fn machine(&self) -> &Machine {
        self.backend
            .as_machine()
            .expect("agent does not run the TPM+IMA backend")
    }

    /// Mutable access to the underlying machine.
    ///
    /// # Panics
    ///
    /// When the agent does not run the TPM+IMA backend; heterogeneous
    /// call sites should go through [`Agent::backend_mut`].
    #[expect(clippy::expect_used, reason = "documented panic; see # Panics")]
    pub fn machine_mut(&mut self) -> &mut Machine {
        self.backend
            .as_machine_mut()
            .expect("agent does not run the TPM+IMA backend")
    }

    /// The underlying machine, when this agent runs TPM+IMA.
    pub fn try_machine(&self) -> Option<&Machine> {
        self.backend.as_machine()
    }

    /// Serves one request.
    pub fn handle(&mut self, request: AgentRequest) -> AgentResponse {
        match request {
            AgentRequest::Identity { challenge } => match self.backend.identity(&challenge) {
                Ok(identity) => AgentResponse::Identity(identity),
                Err(e) => AgentResponse::Error {
                    reason: e.to_string(),
                },
            },
            AgentRequest::Quote {
                nonce, from_entry, ..
            } => match self.backend.quote(&nonce, from_entry) {
                Ok(resp) => AgentResponse::Quote(resp),
                Err(e) => AgentResponse::Error {
                    reason: e.to_string(),
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        required_registers, BackendRoot, ConfidentialVmBackend, ConfidentialVmConfig,
        SecureWorldBackend, SecureWorldConfig,
    };
    use cia_os::MachineConfig;
    use cia_tpm::{Manufacturer, PcrSelection};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn agent() -> Agent {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Manufacturer::generate(&mut rng);
        Agent::new(Machine::new(&m, MachineConfig::default()))
    }

    #[test]
    fn identity_response_is_bound() {
        let mut a = agent();
        match a.handle(AgentRequest::Identity {
            challenge: b"c1".to_vec(),
        }) {
            AgentResponse::Identity(IdentityResponse::TpmEk {
                ek_certificate,
                binding,
            }) => {
                assert!(binding.verify(&ek_certificate.ek_public, b"c1"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn quote(a: &mut Agent, from_entry: usize) -> QuoteResponse {
        match a.handle(AgentRequest::Quote {
            nonce: b"n1".to_vec(),
            from_entry,
            structured: true,
        }) {
            AgentResponse::Quote(q) => q,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quote_covers_log() {
        let mut a = agent();
        assert_eq!(a.backend_kind(), BackendKind::TpmIma);
        let q = quote(&mut a, 0);
        assert_eq!(q.backend(), BackendKind::TpmIma);
        assert_eq!(q.total_entries(), 1, "boot_aggregate only");
        assert_eq!(q.entries().len(), 1);
        assert_eq!(q.entries()[0].path, "boot_aggregate");
        let ak = a.machine().tpm.ak_public().unwrap();
        assert!(q.quote().verify(ak, b"n1"));
        assert!(q.quote().pcr_value(10).is_some());
        assert!(q.quote().pcr_value(0).is_some());
    }

    /// The reset counter is read from the signed quote: a JSON response
    /// claiming another one decodes to the quote's.
    #[test]
    fn json_boot_count_comes_from_the_signed_quote() {
        let mut a = agent();
        a.restart().unwrap();
        let q = quote(&mut a, 0);
        assert_eq!(q.quote().boot_count, 1);
        let json = serde_json::to_string(&q).unwrap();
        let forged = json.replacen('{', r#"{"boot_count":99,"#, 1);
        let back: QuoteResponse = serde_json::from_str(&forged).unwrap();
        assert_eq!(back.boot_count(), 1);
        assert_eq!(back, q);
    }

    /// Every backend quotes exactly `required_registers` for the poll:
    /// TPM+IMA PCRs 0–10 from entry 0 and PCR 10 alone past it; the
    /// secure world its one register and the confidential VM its launch
    /// and runtime registers, wherever the poll starts.
    #[test]
    fn each_backend_quotes_the_required_registers() {
        let mut rng = StdRng::seed_from_u64(6);
        let root = BackendRoot::generate("Platform", &mut rng);
        let sw = SecureWorldBackend::provision(SecureWorldConfig::new("sw", 3), &root);
        let vm = ConfidentialVmBackend::provision(ConfidentialVmConfig::new("cvm", 4), &root);
        let mut agents = [agent(), Agent::with_backend(sw), Agent::with_backend(vm)];
        let boot_and_ima: Vec<u8> = (0..=10).collect();
        for a in &mut agents {
            let kind = a.backend_kind();
            for from_entry in [0, 1, 7] {
                let expected = match (kind, from_entry) {
                    (BackendKind::TpmIma, 0) => PcrSelection::of(&boot_and_ima),
                    (BackendKind::TpmIma, _) => PcrSelection::single(10),
                    (BackendKind::SecureWorld, _) => PcrSelection::single(0),
                    _ => PcrSelection::of(&[0, 1]),
                };
                let q = quote(a, from_entry);
                let selection = q.quote().selection;
                assert_eq!(selection, expected, "{kind} from entry {from_entry}");
                assert_eq!(selection, required_registers(kind, from_entry));
                assert_eq!(q.quote().pcr_values.len(), selection.indices().count());
            }
        }
    }

    #[test]
    fn incremental_excerpt() {
        let mut a = agent();
        let q = quote(&mut a, 1);
        assert!(q.entries().is_empty());
        assert_eq!(q.total_entries(), 1);
        // Out-of-range offsets clamp instead of panicking.
        let q = quote(&mut a, 99);
        assert!(q.entries().is_empty());
        assert_eq!(q.total_entries(), 1);
    }

    /// The excerpt is the kernel's ASCII list, typed: rendering it with
    /// `cia-ima` and parsing that back yields the same entries.
    #[test]
    fn structured_excerpt_matches_text_rendering() {
        let mut a = agent();
        let q = quote(&mut a, 0);
        assert_eq!(q.entries().len(), q.total_entries());
        let rendered: String = q.entries().iter().map(|e| e.render() + "\n").collect();
        let parsed = cia_ima::MeasurementLog::parse(&rendered).expect("own rendering parses");
        assert_eq!(parsed.entries(), q.entries());
    }

    #[test]
    fn secure_world_agent_serves_protocol() {
        let mut rng = StdRng::seed_from_u64(6);
        let root = BackendRoot::generate("TEE Vendor", &mut rng);
        let sw = SecureWorldBackend::provision(SecureWorldConfig::new("sw-agent", 3), &root);
        let mut a = Agent::with_backend(sw);
        assert_eq!(a.backend_kind(), BackendKind::SecureWorld);
        assert_eq!(a.id().to_string(), "sw-agent");
        assert!(a.try_machine().is_none());
        match a.handle(AgentRequest::Identity {
            challenge: b"c".to_vec(),
        }) {
            AgentResponse::Identity(IdentityResponse::SecureWorld {
                certificate,
                binding,
            }) => {
                assert!(certificate.verify(root.public_key()));
                assert!(binding.verify(&certificate.subject, b"c"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let q = quote(&mut a, 0);
        assert_eq!(q.backend(), BackendKind::SecureWorld);
        assert!(q.entries().is_empty(), "nothing loaded yet");
    }
}
