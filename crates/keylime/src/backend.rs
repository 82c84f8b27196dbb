//! Pluggable attestation backends: evidence production behind a trait.
//!
//! The engine originally attested exactly one workload shape — the
//! simulated TPM+IMA Linux box. This module extracts that path behind
//! [`AttestationBackend`] and adds two further deterministic backends so a
//! single fleet round can mix workload shapes:
//!
//! * [`TpmImaBackend`] — the classic Keylime path: TPM quote over PCRs
//!   0–10 plus the IMA measurement list (evidence register: PCR 10).
//! * [`SecureWorldBackend`] — a TrustZone-style secure world running its
//!   own policy-driven measurement agent (the PDRIMA shape). Measurement
//!   state lives behind a world-switch gate the normal world cannot
//!   reach (evidence register 0).
//! * [`ConfidentialVmBackend`] — privilege-separated user-space integrity
//!   enforcement inside a confidential VM (the PS-UIE shape). Identity is
//!   rooted in the platform-certified launch measurement (register 0);
//!   runtime measurements extend register 1.
//!
//! All three produce the same [`Quote`](cia_tpm::Quote) evidence shape
//! and the same excerpt (the [`ImaLogEntry`] tail), so the verifier's
//! replay/appraisal core is shared; [`BackendKind`] (evidence register,
//! boot-aggregate handling) and [`BackendIdentity`] (launch-measurement
//! pinning) drive the appraisal dispatch differences.

use cia_crypto::{Digest, HashAlgorithm, KeyPair, Sha256, Signature, VerifyingKey};
use cia_ima::{ImaLogEntry, IMA_PCR};
use cia_os::Machine;
use cia_tpm::pcr::extend_digest;
use cia_tpm::{PcrSelection, Quote};
use parking_lot::Mutex;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::agent::{IdentityResponse, QuoteResponse};

/// Register the secure world's measurement agent extends (its single
/// "PCR"): the TrustZone shape has no TPM, so register numbering restarts
/// at 0.
pub const SECURE_WORLD_REGISTER: u8 = 0;

/// Register carrying the confidential VM's launch measurement.
pub const CVM_LAUNCH_REGISTER: u8 = 0;

/// Register the confidential VM's in-guest enforcement agent extends at
/// runtime.
pub const CVM_RUNTIME_REGISTER: u8 = 1;

/// Which attestation backend produced (or is expected to produce) a piece
/// of evidence.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum BackendKind {
    /// TPM quote + IMA measurement list (the classic Keylime path).
    TpmIma,
    /// TrustZone-style secure-world measurement agent (PDRIMA shape).
    SecureWorld,
    /// Confidential VM with launch-measurement-rooted identity (PS-UIE
    /// shape).
    ConfidentialVm,
}

impl Default for BackendKind {
    /// Pre-backend wire messages carried no tag; they were all TPM+IMA.
    fn default() -> Self {
        BackendKind::TpmIma
    }
}

impl BackendKind {
    /// Every backend the engine knows about, in stable order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::TpmIma,
        BackendKind::SecureWorld,
        BackendKind::ConfidentialVm,
    ];

    /// Stable dense index (used for per-backend metric slots).
    pub(crate) fn index(self) -> usize {
        match self {
            BackendKind::TpmIma => 0,
            BackendKind::SecureWorld => 1,
            BackendKind::ConfidentialVm => 2,
        }
    }

    /// Stable display name (also the serde rendering).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::TpmIma => "tpm-ima",
            BackendKind::SecureWorld => "secure-world",
            BackendKind::ConfidentialVm => "confidential-vm",
        }
    }

    /// The register the verifier replays the measurement list against.
    pub fn evidence_register(self) -> u8 {
        match self {
            BackendKind::TpmIma => IMA_PCR,
            BackendKind::SecureWorld => SECURE_WORLD_REGISTER,
            BackendKind::ConfidentialVm => CVM_RUNTIME_REGISTER,
        }
    }

    /// Whether entry 0 of the measurement list is a `boot_aggregate`
    /// folding the static-boot registers.
    pub fn has_boot_aggregate(self) -> bool {
        self == BackendKind::TpmIma
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors a backend can produce while serving a request.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// Quote production failed.
    Quote {
        /// Underlying platform error.
        reason: String,
    },
    /// Identity material could not be produced.
    Identity {
        /// Underlying platform error.
        reason: String,
    },
    /// The operation would cross a privilege boundary the backend
    /// enforces (secure-world isolation, CVM privilege separation).
    Protected {
        /// Which boundary stopped the operation.
        reason: String,
    },
    /// A platform operation (restart, provisioning) failed.
    Platform {
        /// Underlying platform error.
        reason: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Quote/identity reasons pass through verbatim: the agent
            // surfaces them as `AgentResponse::Error`, and the TPM path
            // must keep its pre-refactor error strings.
            BackendError::Quote { reason } | BackendError::Identity { reason } => {
                f.write_str(reason)
            }
            BackendError::Protected { reason } => write!(f, "protected: {reason}"),
            BackendError::Platform { reason } => f.write_str(reason),
        }
    }
}

impl std::error::Error for BackendError {}

/// A set of [`BackendKind`]s, used for `VerifierConfig::allowed_backends`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct BackendSet(u8);

impl BackendSet {
    /// The set containing every known backend.
    pub fn all() -> Self {
        let mut bits = 0u8;
        for kind in BackendKind::ALL {
            bits |= 1 << kind.index();
        }
        BackendSet(bits)
    }

    /// The empty set (rejected by config validation).
    pub fn none() -> Self {
        BackendSet(0)
    }

    /// The singleton set.
    pub fn only(kind: BackendKind) -> Self {
        BackendSet(1 << kind.index())
    }

    /// This set plus `kind`.
    #[must_use]
    pub fn with(self, kind: BackendKind) -> Self {
        BackendSet(self.0 | (1 << kind.index()))
    }

    /// This set minus `kind`.
    #[must_use]
    pub fn without(self, kind: BackendKind) -> Self {
        BackendSet(self.0 & !(1 << kind.index()))
    }

    /// Whether `kind` is a member.
    pub fn contains(self, kind: BackendKind) -> bool {
        self.0 & (1 << kind.index()) != 0
    }

    /// Whether no backend is allowed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Members in stable order.
    pub fn iter(self) -> impl Iterator<Item = BackendKind> {
        BackendKind::ALL
            .into_iter()
            .filter(move |k| self.contains(*k))
    }
}

impl Default for BackendSet {
    /// Heterogeneous fleets are first-class: every backend is allowed
    /// unless the operator narrows the set.
    fn default() -> Self {
        BackendSet::all()
    }
}

/// What the registrar learned about an agent's platform at enrolment; the
/// verifier treats this as ground truth when appraising evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendIdentity {
    kind: BackendKind,
    launch_measurement: Option<Digest>,
}

impl BackendIdentity {
    /// Identity for the classic TPM+IMA path.
    pub fn tpm_ima() -> Self {
        BackendIdentity {
            kind: BackendKind::TpmIma,
            launch_measurement: None,
        }
    }

    /// Identity for a secure-world agent.
    pub fn secure_world() -> Self {
        BackendIdentity {
            kind: BackendKind::SecureWorld,
            launch_measurement: None,
        }
    }

    /// Identity for a confidential VM launched from the certified image
    /// measurement.
    pub fn confidential_vm(launch_measurement: Digest) -> Self {
        BackendIdentity {
            kind: BackendKind::ConfidentialVm,
            launch_measurement: Some(launch_measurement),
        }
    }

    /// The backend kind.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// The enrolled launch measurement, when the backend has one.
    pub fn launch_measurement(&self) -> Option<Digest> {
        self.launch_measurement
    }
}

/// A platform root of trust for non-TPM backends: the TEE device vendor
/// (secure world) or the confidential-computing platform (CVM). Plays the
/// role [`Manufacturer`](cia_tpm::Manufacturer) plays for TPMs.
#[derive(Debug, Clone)]
pub struct BackendRoot {
    name: String,
    keys: KeyPair,
}

impl BackendRoot {
    /// Generates a root key under `name`.
    pub fn generate<R: RngCore + ?Sized>(name: impl Into<String>, rng: &mut R) -> Self {
        BackendRoot {
            name: name.into(),
            keys: KeyPair::generate(rng),
        }
    }

    /// The root's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The public key registrars trust.
    pub fn public_key(&self) -> &VerifyingKey {
        &self.keys.verifying
    }

    /// Issues a certificate binding `subject` (an attestation public key)
    /// plus opaque `context` bytes (e.g. a launch measurement or a
    /// measurement-policy digest) to this root.
    pub fn issue(&self, subject: &VerifyingKey, context: &[u8]) -> BackendCert {
        let msg = backend_cert_message(&self.name, subject, context);
        BackendCert {
            authority: self.name.clone(),
            subject: subject.clone(),
            context: context.to_vec(),
            signature: self.keys.signing.sign(&msg),
        }
    }
}

fn backend_cert_message(authority: &str, subject: &VerifyingKey, context: &[u8]) -> Vec<u8> {
    let mut msg = Vec::new();
    msg.extend_from_slice(b"BACKEND_CERT:");
    msg.extend_from_slice(authority.as_bytes());
    msg.push(0);
    msg.extend_from_slice(subject.fingerprint().as_bytes());
    msg.extend_from_slice(&(context.len() as u32).to_be_bytes());
    msg.extend_from_slice(context);
    msg
}

/// A platform certificate over a backend's attestation key — the non-TPM
/// analogue of the EK certificate chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendCert {
    /// Issuing root's name.
    pub authority: String,
    /// The certified attestation public key.
    pub subject: VerifyingKey,
    /// Root-attested context bytes (launch measurement for CVMs,
    /// measurement-policy digest for secure worlds).
    pub context: Vec<u8>,
    /// Root signature.
    pub signature: Signature,
}

impl BackendCert {
    /// Validates the certificate against a trusted root key.
    pub fn verify(&self, root_key: &VerifyingKey) -> bool {
        let msg = backend_cert_message(&self.authority, &self.subject, &self.context);
        root_key.verify(&msg, &self.signature)
    }
}

/// Proof of possession of a certified attestation key, bound to the
/// registrar's challenge — the non-TPM analogue of the AK binding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChallengeBinding {
    /// The key answering the challenge.
    pub public: VerifyingKey,
    /// Registrar challenge this binding answers.
    pub challenge: Vec<u8>,
    /// Signature by the certified key over the binding message.
    pub signature: Signature,
}

impl ChallengeBinding {
    /// The byte string the attestation key signs.
    pub fn message_bytes(challenge: &[u8], public: &VerifyingKey) -> Vec<u8> {
        let mut msg = Vec::new();
        msg.extend_from_slice(b"BACKEND_BINDING:");
        msg.extend_from_slice(&(challenge.len() as u32).to_be_bytes());
        msg.extend_from_slice(challenge);
        msg.extend_from_slice(public.fingerprint().as_bytes());
        msg
    }

    /// Signs `challenge` with `keys`, producing the binding.
    pub fn sign(keys: &KeyPair, challenge: &[u8]) -> Self {
        let public = keys.verifying.clone();
        let msg = Self::message_bytes(challenge, &public);
        ChallengeBinding {
            signature: keys.signing.sign(&msg),
            public,
            challenge: challenge.to_vec(),
        }
    }

    /// Verifies the binding against the certified key and the registrar's
    /// own challenge.
    pub fn verify(&self, certified: &VerifyingKey, expected_challenge: &[u8]) -> bool {
        if &self.public != certified || self.challenge != expected_challenge {
            return false;
        }
        let msg = Self::message_bytes(&self.challenge, &self.public);
        certified.verify(&msg, &self.signature)
    }
}

/// The agent-side evidence-production contract.
///
/// A backend owns the platform state (registers, measurement list,
/// attestation key) and answers the two protocol requests: identity
/// material at registration and quotes during continuous attestation.
/// Everything the verifier needs to appraise heterogeneously — evidence
/// register, boot aggregate, launch pinning — is exposed through
/// [`BackendKind`] and [`BackendIdentity`] rather than through downcasts.
pub trait AttestationBackend {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// The host name the agent identity derives from.
    fn hostname(&self) -> &str;

    /// The platform's notion of the current simulated day (used for alert
    /// timestamps).
    fn day(&self) -> u32;

    /// Produces identity material answering the registrar `challenge`.
    ///
    /// # Errors
    ///
    /// [`BackendError::Identity`] when the platform cannot produce it.
    fn identity(&mut self, challenge: &[u8]) -> Result<IdentityResponse, BackendError>;

    /// Produces a quote plus the measurement-list excerpt: the entries
    /// from `from_entry` on (an offset past the end yields none).
    ///
    /// # Errors
    ///
    /// [`BackendError::Quote`] on platform failure.
    fn quote(&mut self, nonce: &[u8], from_entry: usize) -> Result<QuoteResponse, BackendError>;

    /// Restarts the platform (reboot / world reset / VM relaunch).
    ///
    /// # Errors
    ///
    /// [`BackendError::Platform`] when the platform refuses.
    fn restart(&mut self) -> Result<(), BackendError>;
}

// ---------------------------------------------------------------------------
// TPM + IMA (the classic path, moved verbatim out of `Agent::handle`)
// ---------------------------------------------------------------------------

/// The classic Keylime backend: TPM quote over PCRs 0–10 plus the IMA
/// measurement list of the wrapped [`Machine`].
#[derive(Debug)]
pub struct TpmImaBackend {
    machine: Machine,
}

impl TpmImaBackend {
    /// Wraps a machine.
    pub fn new(machine: Machine) -> Self {
        TpmImaBackend { machine }
    }

    /// Read access to the underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access — used by experiments (and attackers) to act on the
    /// host.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Consumes the backend, returning the machine.
    pub fn into_machine(self) -> Machine {
        self.machine
    }
}

impl AttestationBackend for TpmImaBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::TpmIma
    }

    fn hostname(&self) -> &str {
        self.machine.hostname()
    }

    fn day(&self) -> u32 {
        self.machine.clock.day()
    }

    fn identity(&mut self, challenge: &[u8]) -> Result<IdentityResponse, BackendError> {
        match self.machine.tpm.certify_ak(challenge) {
            Ok(binding) => Ok(IdentityResponse::TpmEk {
                ek_certificate: self.machine.tpm.ek_certificate().clone(),
                binding,
            }),
            Err(e) => Err(BackendError::Identity {
                reason: e.to_string(),
            }),
        }
    }

    fn quote(&mut self, nonce: &[u8], from_entry: usize) -> Result<QuoteResponse, BackendError> {
        let selection = PcrSelection::of(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let quote = self
            .machine
            .tpm
            .quote(nonce, &selection, HashAlgorithm::Sha256)
            .map_err(|e| BackendError::Quote {
                reason: e.to_string(),
            })?;
        let all = self.machine.ima.log().entries();
        let from = from_entry.min(all.len());
        Ok(QuoteResponse::new(
            BackendKind::TpmIma,
            quote,
            all[from..].to_vec(),
            all.len(),
        ))
    }

    fn restart(&mut self) -> Result<(), BackendError> {
        self.machine.reboot().map_err(|e| BackendError::Platform {
            reason: e.to_string(),
        })
    }
}

// ---------------------------------------------------------------------------
// Secure world (PDRIMA shape)
// ---------------------------------------------------------------------------

/// Provisioning parameters for a [`SecureWorldBackend`].
#[derive(Debug, Clone)]
pub struct SecureWorldConfig {
    /// Host name the agent identity derives from.
    pub hostname: String,
    /// Seed for the device attestation key.
    pub seed: u64,
    /// Path prefixes the in-world measurement agent measures; loads
    /// outside these prefixes are the policy-coverage evasion surface.
    pub measured_prefixes: Vec<String>,
}

impl SecureWorldConfig {
    /// A device measuring trusted-application loads under `/ta/`.
    pub fn new(hostname: impl Into<String>, seed: u64) -> Self {
        SecureWorldConfig {
            hostname: hostname.into(),
            seed,
            measured_prefixes: vec!["/ta/".to_string()],
        }
    }
}

/// State living inside the secure world, reachable only through the
/// world-switch gate.
#[derive(Debug)]
struct SecureWorldState {
    measured_prefixes: Vec<String>,
    entries: Vec<ImaLogEntry>,
    register: Digest,
    restarts: u64,
    clock: u64,
}

/// A TrustZone-style backend: a policy-driven measurement agent running
/// inside a simulated secure world (PDRIMA shape).
///
/// Measurement state sits behind `world`, a mutex modelling the SMC
/// world-switch gate: every normal-world entry into the secure world
/// serializes on it, and nothing in the normal world can reach the
/// measurement list except through the gated entry points.
#[derive(Debug)]
pub struct SecureWorldBackend {
    hostname: String,
    keys: KeyPair,
    certificate: BackendCert,
    world: Mutex<SecureWorldState>,
    day: u32,
}

impl SecureWorldBackend {
    /// Provisions a device: derives the attestation key from the config
    /// seed and has the TEE vendor `root` certify it over the
    /// measurement-policy digest.
    pub fn provision(config: SecureWorldConfig, root: &BackendRoot) -> Self {
        let keys = derive_keys(b"SW_DEVICE_KEY:", &config.hostname, config.seed);
        let mut policy = Sha256::new();
        policy.update(b"SW_MEASUREMENT_POLICY:");
        for prefix in &config.measured_prefixes {
            policy.update(prefix.as_bytes());
            policy.update(&[0]);
        }
        let certificate = root.issue(&keys.verifying, policy.finalize().as_bytes());
        SecureWorldBackend {
            hostname: config.hostname,
            keys,
            certificate,
            world: Mutex::new(SecureWorldState {
                measured_prefixes: config.measured_prefixes,
                entries: Vec::new(),
                register: HashAlgorithm::Sha256.zero_digest(),
                restarts: 0,
                clock: 0,
            })
            .named("world"),
            day: 0,
        }
    }

    /// The device attestation public key (what the registrar stores).
    pub fn public_key(&self) -> &VerifyingKey {
        &self.keys.verifying
    }

    /// Loads a trusted application into the secure world. Returns `true`
    /// when the measurement agent's policy covered the load (and the
    /// register was extended); `false` for an unmeasured load — the
    /// policy-coverage gap an attacker hides in.
    pub fn load_trusted_app(&mut self, path: &str, content: &[u8]) -> bool {
        let mut world = self.world.lock();
        if !world
            .measured_prefixes
            .iter()
            .any(|p| path.starts_with(p.as_str()))
        {
            return false;
        }
        let entry = ImaLogEntry::new_in_pcr(
            SECURE_WORLD_REGISTER,
            HashAlgorithm::Sha256.digest(content),
            path,
        );
        let tpl = entry.template_hash(HashAlgorithm::Sha256);
        world.register = extend_digest(HashAlgorithm::Sha256, world.register, tpl);
        world.entries.push(entry);
        true
    }

    /// What the normal world gets when it tries to touch the measurement
    /// list directly: nothing — the gate only exposes typed entry points.
    ///
    /// # Errors
    ///
    /// Always [`BackendError::Protected`].
    pub fn tamper_from_normal_world(&mut self) -> Result<(), BackendError> {
        Err(BackendError::Protected {
            reason: "measurement state lives in the secure world".to_string(),
        })
    }

    /// Number of measured loads so far.
    pub fn measured_count(&self) -> usize {
        self.world.lock().entries.len()
    }

    /// Advances the device's notion of the simulated day.
    pub fn advance_days(&mut self, days: u32) {
        self.day += days;
    }
}

impl AttestationBackend for SecureWorldBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::SecureWorld
    }

    fn hostname(&self) -> &str {
        &self.hostname
    }

    fn day(&self) -> u32 {
        self.day
    }

    fn identity(&mut self, challenge: &[u8]) -> Result<IdentityResponse, BackendError> {
        Ok(IdentityResponse::SecureWorld {
            certificate: self.certificate.clone(),
            binding: ChallengeBinding::sign(&self.keys, challenge),
        })
    }

    fn quote(&mut self, nonce: &[u8], from_entry: usize) -> Result<QuoteResponse, BackendError> {
        let mut world = self.world.lock();
        world.clock += 1;
        let values = vec![world.register];
        let quote = sign_quote(
            &self.keys,
            nonce,
            PcrSelection::single(SECURE_WORLD_REGISTER),
            values,
            world.restarts,
            world.clock,
        );
        let from = from_entry.min(world.entries.len());
        Ok(QuoteResponse::new(
            BackendKind::SecureWorld,
            quote,
            world.entries[from..].to_vec(),
            world.entries.len(),
        ))
    }

    fn restart(&mut self) -> Result<(), BackendError> {
        let mut world = self.world.lock();
        world.entries.clear();
        world.register = HashAlgorithm::Sha256.zero_digest();
        world.restarts += 1;
        world.clock = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Confidential VM (PS-UIE shape)
// ---------------------------------------------------------------------------

/// Provisioning parameters for a [`ConfidentialVmBackend`].
#[derive(Debug, Clone)]
pub struct ConfidentialVmConfig {
    /// Host name the agent identity derives from.
    pub hostname: String,
    /// Seed for the guest attestation key.
    pub seed: u64,
    /// The launched guest image (its digest roots the launch
    /// measurement).
    pub image: Vec<u8>,
}

impl ConfidentialVmConfig {
    /// A VM launched from the golden image.
    pub fn new(hostname: impl Into<String>, seed: u64) -> Self {
        ConfidentialVmConfig {
            hostname: hostname.into(),
            seed,
            image: b"cvm-golden-image".to_vec(),
        }
    }
}

/// Computes the platform launch measurement of a guest image.
pub fn launch_measurement_of(image: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"CVM_LAUNCH:");
    h.update(image);
    h.finalize()
}

/// A confidential-VM backend: user-space integrity enforcement running at
/// a higher privilege than the workload (PS-UIE shape).
///
/// Register 0 carries the platform launch measurement the identity is
/// rooted in; register 1 is extended by the in-guest enforcement agent
/// for every measured execution. The workload cannot rewrite either — the
/// enforcement agent's state is privilege-separated.
#[derive(Debug)]
pub struct ConfidentialVmBackend {
    hostname: String,
    keys: KeyPair,
    certificate: BackendCert,
    enrolled_launch: Digest,
    launch_measurement: Digest,
    entries: Vec<ImaLogEntry>,
    runtime_register: Digest,
    restarts: u64,
    clock: u64,
    day: u32,
}

impl ConfidentialVmBackend {
    /// Provisions a guest: derives the attestation key from the config
    /// seed and has the `platform` certify it over the image's launch
    /// measurement.
    pub fn provision(config: ConfidentialVmConfig, platform: &BackendRoot) -> Self {
        let keys = derive_keys(b"CVM_GUEST_KEY:", &config.hostname, config.seed);
        let launch = launch_measurement_of(&config.image);
        let certificate = platform.issue(&keys.verifying, launch.as_bytes());
        ConfidentialVmBackend {
            hostname: config.hostname,
            keys,
            certificate,
            enrolled_launch: launch,
            launch_measurement: launch,
            entries: Vec::new(),
            runtime_register: HashAlgorithm::Sha256.zero_digest(),
            restarts: 0,
            clock: 0,
            day: 0,
        }
    }

    /// The guest attestation public key (what the registrar stores).
    pub fn public_key(&self) -> &VerifyingKey {
        &self.keys.verifying
    }

    /// The launch measurement the platform certified at provisioning.
    pub fn enrolled_launch_measurement(&self) -> Digest {
        self.enrolled_launch
    }

    /// The enforcement agent measures and records an execution.
    pub fn exec_measured(&mut self, path: &str, content: &[u8]) {
        let entry = ImaLogEntry::new_in_pcr(
            CVM_RUNTIME_REGISTER,
            HashAlgorithm::Sha256.digest(content),
            path,
        );
        let tpl = entry.template_hash(HashAlgorithm::Sha256);
        self.runtime_register = extend_digest(HashAlgorithm::Sha256, self.runtime_register, tpl);
        self.entries.push(entry);
    }

    /// What the workload gets when it tries to rewrite the enforcement
    /// agent's history: nothing — the agent runs privilege-separated.
    ///
    /// # Errors
    ///
    /// Always [`BackendError::Protected`].
    pub fn try_rewrite_history(&mut self) -> Result<(), BackendError> {
        Err(BackendError::Protected {
            reason: "enforcement state is privilege-separated from the workload".to_string(),
        })
    }

    /// Relaunches the VM from a different image. The platform measures
    /// whatever actually launched, so register 0 now carries the new
    /// image's measurement — while the certified identity still names the
    /// enrolled one. The verifier catches the divergence.
    pub fn relaunch_with_image(&mut self, image: &[u8]) {
        self.launch_measurement = launch_measurement_of(image);
        self.reset_runtime();
    }

    /// Advances the guest's notion of the simulated day.
    pub fn advance_days(&mut self, days: u32) {
        self.day += days;
    }

    fn reset_runtime(&mut self) {
        self.entries.clear();
        self.runtime_register = HashAlgorithm::Sha256.zero_digest();
        self.restarts += 1;
        self.clock = 0;
    }
}

impl AttestationBackend for ConfidentialVmBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::ConfidentialVm
    }

    fn hostname(&self) -> &str {
        &self.hostname
    }

    fn day(&self) -> u32 {
        self.day
    }

    fn identity(&mut self, challenge: &[u8]) -> Result<IdentityResponse, BackendError> {
        Ok(IdentityResponse::ConfidentialVm {
            certificate: self.certificate.clone(),
            launch_measurement: self.enrolled_launch,
            binding: ChallengeBinding::sign(&self.keys, challenge),
        })
    }

    fn quote(&mut self, nonce: &[u8], from_entry: usize) -> Result<QuoteResponse, BackendError> {
        self.clock += 1;
        let values = vec![self.launch_measurement, self.runtime_register];
        let quote = sign_quote(
            &self.keys,
            nonce,
            PcrSelection::of(&[CVM_LAUNCH_REGISTER, CVM_RUNTIME_REGISTER]),
            values,
            self.restarts,
            self.clock,
        );
        let from = from_entry.min(self.entries.len());
        Ok(QuoteResponse::new(
            BackendKind::ConfidentialVm,
            quote,
            self.entries[from..].to_vec(),
            self.entries.len(),
        ))
    }

    fn restart(&mut self) -> Result<(), BackendError> {
        // A clean restart relaunches the enrolled image: register 0 keeps
        // the certified launch measurement.
        self.launch_measurement = self.enrolled_launch;
        self.reset_runtime();
        Ok(())
    }
}

/// Deterministically derives a backend attestation key pair from a
/// provisioning seed (no ambient entropy: replay-equal provisioning).
fn derive_keys(tag: &[u8], hostname: &str, seed: u64) -> KeyPair {
    let mut h = Sha256::new();
    h.update(tag);
    h.update(hostname.as_bytes());
    h.update(&seed.to_be_bytes());
    let digest = h.finalize();
    let mut material = [0u8; 32];
    material.copy_from_slice(digest.as_bytes());
    KeyPair::from_material(material)
}

/// Signs a quote over `values` with a backend attestation key — the same
/// canonical message the TPM signs, so the verifier's quote check is
/// backend-agnostic.
fn sign_quote(
    keys: &KeyPair,
    nonce: &[u8],
    selection: PcrSelection,
    values: Vec<Digest>,
    boot_count: u64,
    clock: u64,
) -> Quote {
    let pcr_digest = Quote::digest_pcrs(&values);
    let msg = Quote::message_bytes(
        nonce,
        &selection,
        HashAlgorithm::Sha256,
        &pcr_digest,
        boot_count,
        clock,
    );
    Quote {
        nonce: nonce.to_vec(),
        selection,
        bank: HashAlgorithm::Sha256,
        pcr_values: values,
        pcr_digest,
        boot_count,
        clock,
        signature: keys.signing.sign(&msg),
    }
}

// ---------------------------------------------------------------------------
// The backend sum type agents hold
// ---------------------------------------------------------------------------

/// The backends an [`Agent`](crate::Agent) can run — a closed sum so
/// agents stay `Send` without boxing.
#[non_exhaustive]
#[derive(Debug)]
// One `Backend` lives per agent; the TPM+IMA variant's size is dominated by
// the simulated machine it owns, which boxing would only move, not shrink.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// TPM + IMA.
    TpmIma(TpmImaBackend),
    /// TrustZone-style secure world.
    SecureWorld(SecureWorldBackend),
    /// Confidential VM.
    ConfidentialVm(ConfidentialVmBackend),
}

impl Backend {
    /// The wrapped machine, when this is the TPM+IMA backend.
    pub fn as_machine(&self) -> Option<&Machine> {
        match self {
            Backend::TpmIma(b) => Some(b.machine()),
            _ => None,
        }
    }

    /// Mutable access to the wrapped machine, when TPM+IMA.
    pub fn as_machine_mut(&mut self) -> Option<&mut Machine> {
        match self {
            Backend::TpmIma(b) => Some(b.machine_mut()),
            _ => None,
        }
    }

    /// The secure-world backend, when that is what this is.
    pub fn as_secure_world_mut(&mut self) -> Option<&mut SecureWorldBackend> {
        match self {
            Backend::SecureWorld(b) => Some(b),
            _ => None,
        }
    }

    /// The confidential-VM backend, when that is what this is.
    pub fn as_confidential_vm_mut(&mut self) -> Option<&mut ConfidentialVmBackend> {
        match self {
            Backend::ConfidentialVm(b) => Some(b),
            _ => None,
        }
    }
}

impl From<Machine> for Backend {
    fn from(machine: Machine) -> Self {
        Backend::TpmIma(TpmImaBackend::new(machine))
    }
}

impl From<TpmImaBackend> for Backend {
    fn from(b: TpmImaBackend) -> Self {
        Backend::TpmIma(b)
    }
}

impl From<SecureWorldBackend> for Backend {
    fn from(b: SecureWorldBackend) -> Self {
        Backend::SecureWorld(b)
    }
}

impl From<ConfidentialVmBackend> for Backend {
    fn from(b: ConfidentialVmBackend) -> Self {
        Backend::ConfidentialVm(b)
    }
}

impl AttestationBackend for Backend {
    fn kind(&self) -> BackendKind {
        match self {
            Backend::TpmIma(b) => b.kind(),
            Backend::SecureWorld(b) => b.kind(),
            Backend::ConfidentialVm(b) => b.kind(),
        }
    }

    fn hostname(&self) -> &str {
        match self {
            Backend::TpmIma(b) => b.hostname(),
            Backend::SecureWorld(b) => b.hostname(),
            Backend::ConfidentialVm(b) => b.hostname(),
        }
    }

    fn day(&self) -> u32 {
        match self {
            Backend::TpmIma(b) => b.day(),
            Backend::SecureWorld(b) => b.day(),
            Backend::ConfidentialVm(b) => b.day(),
        }
    }

    fn identity(&mut self, challenge: &[u8]) -> Result<IdentityResponse, BackendError> {
        match self {
            Backend::TpmIma(b) => b.identity(challenge),
            Backend::SecureWorld(b) => b.identity(challenge),
            Backend::ConfidentialVm(b) => b.identity(challenge),
        }
    }

    fn quote(&mut self, nonce: &[u8], from_entry: usize) -> Result<QuoteResponse, BackendError> {
        match self {
            Backend::TpmIma(b) => b.quote(nonce, from_entry),
            Backend::SecureWorld(b) => b.quote(nonce, from_entry),
            Backend::ConfidentialVm(b) => b.quote(nonce, from_entry),
        }
    }

    fn restart(&mut self) -> Result<(), BackendError> {
        match self {
            Backend::TpmIma(b) => b.restart(),
            Backend::SecureWorld(b) => b.restart(),
            Backend::ConfidentialVm(b) => b.restart(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tee_root() -> BackendRoot {
        let mut rng = StdRng::seed_from_u64(11);
        BackendRoot::generate("TEE Vendor", &mut rng)
    }

    #[test]
    fn backend_set_membership() {
        let all = BackendSet::all();
        for kind in BackendKind::ALL {
            assert!(all.contains(kind));
        }
        let one = BackendSet::only(BackendKind::SecureWorld);
        assert!(one.contains(BackendKind::SecureWorld));
        assert!(!one.contains(BackendKind::TpmIma));
        assert!(one.without(BackendKind::SecureWorld).is_empty());
        assert_eq!(
            all.iter().collect::<Vec<_>>(),
            BackendKind::ALL.to_vec(),
            "stable iteration order"
        );
    }

    #[test]
    fn challenge_binding_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let keys = KeyPair::generate(&mut rng);
        let binding = ChallengeBinding::sign(&keys, b"c1");
        assert!(binding.verify(&keys.verifying, b"c1"));
        assert!(!binding.verify(&keys.verifying, b"c2"));
        let other = KeyPair::generate(&mut rng);
        assert!(!binding.verify(&other.verifying, b"c1"));
    }

    #[test]
    fn backend_cert_chains_to_root() {
        let root = tee_root();
        let mut rng = StdRng::seed_from_u64(8);
        let keys = KeyPair::generate(&mut rng);
        let cert = root.issue(&keys.verifying, b"ctx");
        assert!(cert.verify(root.public_key()));
        let impostor = BackendRoot::generate("Impostor", &mut StdRng::seed_from_u64(9));
        assert!(!cert.verify(impostor.public_key()));
        let mut forged = cert.clone();
        forged.context = b"other".to_vec();
        assert!(!forged.verify(root.public_key()));
    }

    #[test]
    fn secure_world_measures_only_policy_covered_loads() {
        let root = tee_root();
        let mut sw = SecureWorldBackend::provision(SecureWorldConfig::new("sw-0", 1), &root);
        assert!(sw.load_trusted_app("/ta/keymaster", b"bin-1"));
        assert!(
            !sw.load_trusted_app("/vendor/blob", b"bin-2"),
            "outside the measurement policy"
        );
        assert_eq!(sw.measured_count(), 1);
        let resp = sw.quote(b"n", 0).unwrap();
        assert_eq!(resp.total_entries(), 1);
        assert_eq!(resp.entries()[0].path, "/ta/keymaster");
        assert!(resp.quote().verify(sw.public_key(), b"n"));
        assert!(resp.quote().pcr_value(SECURE_WORLD_REGISTER).is_some());
    }

    #[test]
    fn secure_world_isolation_holds() {
        let root = tee_root();
        let mut sw = SecureWorldBackend::provision(SecureWorldConfig::new("sw-0", 1), &root);
        assert!(matches!(
            sw.tamper_from_normal_world(),
            Err(BackendError::Protected { .. })
        ));
    }

    #[test]
    fn cvm_quote_pins_launch_measurement() {
        let mut rng = StdRng::seed_from_u64(12);
        let platform = BackendRoot::generate("CC Platform", &mut rng);
        let mut vm =
            ConfidentialVmBackend::provision(ConfidentialVmConfig::new("cvm-0", 2), &platform);
        vm.exec_measured("/usr/bin/svc", b"svc-bin");
        let resp = vm.quote(b"n", 0).unwrap();
        assert_eq!(
            resp.quote().pcr_value(CVM_LAUNCH_REGISTER).unwrap(),
            vm.enrolled_launch_measurement()
        );
        assert_eq!(resp.entries().len(), 1);
        assert!(resp.quote().verify(vm.public_key(), b"n"));
    }

    #[test]
    fn cvm_tampered_relaunch_diverges_from_enrolled_launch() {
        let mut rng = StdRng::seed_from_u64(13);
        let platform = BackendRoot::generate("CC Platform", &mut rng);
        let mut vm =
            ConfidentialVmBackend::provision(ConfidentialVmConfig::new("cvm-0", 2), &platform);
        vm.relaunch_with_image(b"trojaned-image");
        let resp = vm.quote(b"n", 0).unwrap();
        assert_ne!(
            resp.quote().pcr_value(CVM_LAUNCH_REGISTER).unwrap(),
            vm.enrolled_launch_measurement(),
            "platform measures what actually launched"
        );
        vm.restart().unwrap();
        let resp = vm.quote(b"n2", 0).unwrap();
        assert_eq!(
            resp.quote().pcr_value(CVM_LAUNCH_REGISTER).unwrap(),
            vm.enrolled_launch_measurement(),
            "clean restart relaunches the enrolled image"
        );
    }

    #[test]
    fn cvm_privilege_separation_holds() {
        let mut rng = StdRng::seed_from_u64(14);
        let platform = BackendRoot::generate("CC Platform", &mut rng);
        let mut vm =
            ConfidentialVmBackend::provision(ConfidentialVmConfig::new("cvm-0", 2), &platform);
        assert!(matches!(
            vm.try_rewrite_history(),
            Err(BackendError::Protected { .. })
        ));
    }

    #[test]
    fn secure_world_restart_resets_register() {
        let root = tee_root();
        let mut sw = SecureWorldBackend::provision(SecureWorldConfig::new("sw-0", 1), &root);
        sw.load_trusted_app("/ta/a", b"a");
        let before = sw.quote(b"n", 0).unwrap();
        sw.restart().unwrap();
        let after = sw.quote(b"n", 0).unwrap();
        assert_eq!(after.total_entries(), 0);
        assert_eq!(after.boot_count(), before.boot_count() + 1);
        assert_ne!(
            after.quote().pcr_value(SECURE_WORLD_REGISTER),
            before.quote().pcr_value(SECURE_WORLD_REGISTER)
        );
    }

    #[test]
    fn provisioning_is_deterministic() {
        let root = tee_root();
        let a = SecureWorldBackend::provision(SecureWorldConfig::new("sw-0", 1), &root);
        let b = SecureWorldBackend::provision(SecureWorldConfig::new("sw-0", 1), &root);
        assert_eq!(a.public_key(), b.public_key());
        let c = SecureWorldBackend::provision(SecureWorldConfig::new("sw-1", 1), &root);
        assert_ne!(a.public_key(), c.public_key());
    }
}
