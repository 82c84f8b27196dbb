//! The Keylime registrar: guards against spoofed or compromised platforms.
//!
//! Every backend family chains to its own root of trust: TPMs to the
//! manufacturer EK roots, secure worlds to TEE vendor roots, confidential
//! VMs to the confidential-computing platform roots. Registration
//! validates the family-appropriate chain plus a challenge binding and
//! records the backend identity alongside the attestation key — the
//! verifier appraises against that record, never against what evidence
//! later claims about itself.

use std::collections::BTreeMap;

use cia_crypto::VerifyingKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::agent::{Agent, AgentRequest, AgentResponse, IdentityResponse};
use crate::backend::BackendIdentity;
use crate::error::KeylimeError;
use crate::ids::AgentId;
#[cfg(test)]
use crate::transport::ReliableTransport;
use crate::transport::Transport;

/// What the registrar stores per enrolled agent: the attestation key and
/// the validated backend identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrationRecord {
    /// The agent's attestation public key.
    pub ak: VerifyingKey,
    /// The backend family (and launch measurement, when rooted in one)
    /// the identity chain proved.
    pub identity: BackendIdentity,
}

/// Registrar state: per-family trusted roots plus the registered agents'
/// records.
#[derive(Debug)]
pub struct Registrar {
    trusted_roots: Vec<VerifyingKey>,
    tee_roots: Vec<VerifyingKey>,
    platform_roots: Vec<VerifyingKey>,
    registered: BTreeMap<AgentId, RegistrationRecord>,
    rng: StdRng,
}

impl Registrar {
    /// Creates a registrar trusting the given TPM manufacturer root keys.
    /// TEE and confidential-VM roots start empty; add them with
    /// [`Registrar::trust_tee_root`] / [`Registrar::trust_platform_root`].
    pub fn new(trusted_roots: Vec<VerifyingKey>, seed: u64) -> Self {
        Registrar {
            trusted_roots,
            tee_roots: Vec::new(),
            platform_roots: Vec::new(),
            registered: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Trusts a TEE vendor root for secure-world registrations.
    pub fn trust_tee_root(&mut self, root: VerifyingKey) {
        self.tee_roots.push(root);
    }

    /// Trusts a confidential-computing platform root for CVM
    /// registrations.
    pub fn trust_platform_root(&mut self, root: VerifyingKey) {
        self.platform_roots.push(root);
    }

    /// Runs the registration protocol against `agent`: fresh challenge,
    /// identity-chain validation against the family's trusted roots,
    /// challenge-binding verification. On success the attestation key and
    /// backend identity are stored.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::Registration`] when the certificate chain or
    /// binding fails; transport/agent errors otherwise.
    pub fn register<T: Transport>(
        &mut self,
        transport: &mut T,
        agent: &mut Agent,
    ) -> Result<(), KeylimeError> {
        let mut challenge = vec![0u8; 20];
        self.rng.fill(&mut challenge[..]);

        let request = AgentRequest::Identity {
            challenge: challenge.clone(),
        };
        let response: AgentResponse = transport.call(&request, |req| agent.handle(req))?;
        let identity = match response {
            AgentResponse::Identity(id) => id,
            AgentResponse::Error { reason } => return Err(KeylimeError::Agent { reason }),
            other => {
                return Err(KeylimeError::Agent {
                    reason: format!("unexpected response {other:?}"),
                })
            }
        };

        let record = self.validate(identity, &challenge)?;
        self.registered.insert(agent.id().clone(), record);
        Ok(())
    }

    /// Validates one identity response against the family's roots and the
    /// fresh challenge, producing the record to store.
    fn validate(
        &self,
        identity: IdentityResponse,
        challenge: &[u8],
    ) -> Result<RegistrationRecord, KeylimeError> {
        match identity {
            IdentityResponse::TpmEk {
                ek_certificate,
                binding,
            } => {
                if !self
                    .trusted_roots
                    .iter()
                    .any(|root| ek_certificate.verify(root))
                {
                    return Err(KeylimeError::Registration {
                        reason: "EK certificate does not chain to a trusted manufacturer"
                            .to_string(),
                    });
                }
                if !binding.verify(&ek_certificate.ek_public, challenge) {
                    return Err(KeylimeError::Registration {
                        reason: "AK binding failed credential activation".to_string(),
                    });
                }
                Ok(RegistrationRecord {
                    ak: binding.ak_public,
                    identity: BackendIdentity::tpm_ima(),
                })
            }
            IdentityResponse::SecureWorld {
                certificate,
                binding,
            } => {
                if !self.tee_roots.iter().any(|root| certificate.verify(root)) {
                    return Err(KeylimeError::Registration {
                        reason: "device certificate does not chain to a trusted TEE vendor"
                            .to_string(),
                    });
                }
                if !binding.verify(&certificate.subject, challenge) {
                    return Err(KeylimeError::Registration {
                        reason: "secure-world binding failed proof of possession".to_string(),
                    });
                }
                Ok(RegistrationRecord {
                    ak: certificate.subject,
                    identity: BackendIdentity::secure_world(),
                })
            }
            IdentityResponse::ConfidentialVm {
                certificate,
                launch_measurement,
                binding,
            } => {
                if !self
                    .platform_roots
                    .iter()
                    .any(|root| certificate.verify(root))
                {
                    return Err(KeylimeError::Registration {
                        reason: "guest certificate does not chain to a trusted platform"
                            .to_string(),
                    });
                }
                // The platform certified the launch measurement inside
                // the certificate context; the response's copy must be
                // the certified one, not whatever the guest claims.
                if certificate.context != launch_measurement.as_bytes() {
                    return Err(KeylimeError::Registration {
                        reason: "launch measurement is not the platform-certified one".to_string(),
                    });
                }
                if !binding.verify(&certificate.subject, challenge) {
                    return Err(KeylimeError::Registration {
                        reason: "confidential-VM binding failed proof of possession".to_string(),
                    });
                }
                Ok(RegistrationRecord {
                    ak: certificate.subject,
                    identity: BackendIdentity::confidential_vm(launch_measurement),
                })
            }
        }
    }

    /// The registered attestation public key for `id`.
    pub fn ak_for(&self, id: &AgentId) -> Option<&VerifyingKey> {
        self.registered.get(id).map(|r| &r.ak)
    }

    /// The full registration record for `id`.
    pub fn record_for(&self, id: &AgentId) -> Option<&RegistrationRecord> {
        self.registered.get(id)
    }

    /// Number of registered agents.
    pub fn registered_count(&self) -> usize {
        self.registered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        BackendKind, BackendRoot, ConfidentialVmBackend, ConfidentialVmConfig, SecureWorldBackend,
        SecureWorldConfig,
    };
    use crate::chaos::{ChaosTransport, FaultPlan};
    use cia_os::{Machine, MachineConfig};
    use cia_tpm::Manufacturer;

    fn setup() -> (Manufacturer, Agent) {
        let mut rng = StdRng::seed_from_u64(8);
        let m = Manufacturer::generate(&mut rng);
        let agent = Agent::new(Machine::new(&m, MachineConfig::default()));
        (m, agent)
    }

    #[test]
    fn registration_succeeds_for_genuine_tpm() {
        let (m, mut agent) = setup();
        let mut registrar = Registrar::new(vec![m.public_key().clone()], 1);
        let mut transport = ReliableTransport::new();
        registrar.register(&mut transport, &mut agent).unwrap();
        assert_eq!(registrar.registered_count(), 1);
        assert_eq!(
            registrar.ak_for(agent.id()),
            agent.machine().tpm.ak_public()
        );
        assert_eq!(
            registrar.record_for(agent.id()).unwrap().identity.kind(),
            BackendKind::TpmIma
        );
    }

    #[test]
    fn registration_rejects_unknown_manufacturer() {
        let (_victim_mfr, mut agent) = setup();
        let mut rng = StdRng::seed_from_u64(99);
        let other = Manufacturer::generate(&mut rng);
        let mut registrar = Registrar::new(vec![other.public_key().clone()], 1);
        let mut transport = ReliableTransport::new();
        let err = registrar.register(&mut transport, &mut agent).unwrap_err();
        assert!(matches!(err, KeylimeError::Registration { .. }));
        assert!(registrar.ak_for(agent.id()).is_none());
    }

    #[test]
    fn registration_survives_retry_after_drop() {
        let (m, mut agent) = setup();
        let mut registrar = Registrar::new(vec![m.public_key().clone()], 1);
        let mut transport = ChaosTransport::new(ReliableTransport::new(), FaultPlan::lossy(2, 1.0));
        assert!(matches!(
            registrar.register(&mut transport, &mut agent),
            Err(KeylimeError::Transport(_))
        ));
        let mut reliable = ReliableTransport::new();
        registrar.register(&mut reliable, &mut agent).unwrap();
        assert_eq!(registrar.registered_count(), 1);
    }

    #[test]
    fn secure_world_registration_needs_trusted_tee_root() {
        let mut rng = StdRng::seed_from_u64(21);
        let root = BackendRoot::generate("TEE Vendor", &mut rng);
        let sw = SecureWorldBackend::provision(SecureWorldConfig::new("sw-0", 4), &root);
        let mut agent = Agent::with_backend(sw);
        let mut registrar = Registrar::new(vec![], 1);
        let mut transport = ReliableTransport::new();

        // Untrusted vendor: rejected.
        let err = registrar.register(&mut transport, &mut agent).unwrap_err();
        assert!(matches!(err, KeylimeError::Registration { .. }));

        registrar.trust_tee_root(root.public_key().clone());
        registrar.register(&mut transport, &mut agent).unwrap();
        let record = registrar.record_for(agent.id()).unwrap();
        assert_eq!(record.identity.kind(), BackendKind::SecureWorld);
        assert!(record.identity.launch_measurement().is_none());
    }

    #[test]
    fn cvm_registration_pins_certified_launch_measurement() {
        let mut rng = StdRng::seed_from_u64(22);
        let platform = BackendRoot::generate("CC Platform", &mut rng);
        let vm = ConfidentialVmBackend::provision(ConfidentialVmConfig::new("cvm-0", 5), &platform);
        let enrolled = vm.enrolled_launch_measurement();
        let mut agent = Agent::with_backend(vm);
        let mut registrar = Registrar::new(vec![], 1);
        registrar.trust_platform_root(platform.public_key().clone());
        let mut transport = ReliableTransport::new();
        registrar.register(&mut transport, &mut agent).unwrap();
        let record = registrar.record_for(agent.id()).unwrap();
        assert_eq!(record.identity.kind(), BackendKind::ConfidentialVm);
        assert_eq!(record.identity.launch_measurement(), Some(enrolled));
    }
}
