//! Attestation backends: evidence production for three workload shapes.
//!
//! The engine originally attested exactly one workload shape — the
//! simulated TPM+IMA Linux box. [`Backend`] is the closed set of shapes
//! an agent can run, so a single fleet round can mix them:
//!
//! * [`Backend::TpmIma`] — the classic Keylime path: TPM quote plus the
//!   IMA measurement list of a [`Machine`] (evidence register: PCR 10;
//!   PCRs 0–9 too when the excerpt starts at entry 0).
//! * [`SecureWorldBackend`] — a TrustZone-style secure world running its
//!   own policy-driven measurement agent (the PDRIMA shape): only loads
//!   under its measured prefixes are measured (evidence register 0).
//! * [`ConfidentialVmBackend`] — privilege-separated user-space integrity
//!   enforcement inside a confidential VM (the PS-UIE shape). Identity is
//!   rooted in the platform-certified launch measurement (register 0);
//!   runtime measurements extend register 1.
//!
//! The two non-TPM shapes are one measured device core — derived key,
//! platform certificate, measurement list, runtime register, signed quote
//! and reset — plus what each adds. Their isolation from the workload is
//! that core's private fields.
//!
//! All three produce the same [`Quote`](cia_tpm::Quote) evidence shape
//! and the same excerpt (the [`ImaLogEntry`] tail), so the verifier's
//! replay/appraisal core is shared; [`BackendKind`] (evidence register,
//! boot-aggregate handling) and [`BackendIdentity`] (launch-measurement
//! pinning) drive the appraisal dispatch differences.
//!
//! Which registers a quote selects is one rule, [`required_registers`]:
//! every agent quotes exactly that set, and the verifier rejects a quote
//! whose selection does not cover it.

use cia_crypto::{Digest, HashAlgorithm, KeyPair, Sha256, Signature, VerifyingKey};
use cia_ima::{ImaLogEntry, IMA_PCR};
use cia_os::Machine;
use cia_tpm::pcr::extend_digest;
use cia_tpm::{PcrSelection, Quote};
use cia_wire::Wire;
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
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Wire,
)]
#[serde(rename_all = "kebab-case")]
pub enum BackendKind {
    /// TPM quote + IMA measurement list (the classic Keylime path); the
    /// default, as pre-backend wire messages carried no tag.
    #[default]
    TpmIma,
    /// TrustZone-style secure-world measurement agent (PDRIMA shape).
    SecureWorld,
    /// Confidential VM with launch-measurement-rooted identity (PS-UIE
    /// shape).
    ConfidentialVm,
}

impl BackendKind {
    /// Every backend the engine knows about, in stable order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::TpmIma,
        BackendKind::SecureWorld,
        BackendKind::ConfidentialVm,
    ];

    /// Stable dense index: the position in [`BackendKind::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
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

/// The static-boot registers a `boot_aggregate` folds: PCRs 0–9.
pub(crate) const BOOT_AGGREGATE_PCRS: [u8; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];

/// The registers a quote answering a poll from `from_entry` must select
/// on `kind`, and the ones an agent quotes:
///
/// * the evidence register, which the excerpt replays to, always;
/// * PCRs 0–9 when `from_entry` is 0 on a backend with a boot aggregate,
///   because the `boot_aggregate` entry is checked against them;
/// * the launch register on a confidential VM, which pins the launched
///   image every poll.
///
/// A poll past entry 0 on TPM+IMA therefore quotes PCR 10 alone.
pub fn required_registers(kind: BackendKind, from_entry: usize) -> PcrSelection {
    let mut registers = PcrSelection::single(kind.evidence_register());
    if kind.has_boot_aggregate() && from_entry == 0 {
        registers = registers.union(PcrSelection::of(&BOOT_AGGREGATE_PCRS));
    }
    if kind == BackendKind::ConfidentialVm {
        registers = registers.union(PcrSelection::single(CVM_LAUNCH_REGISTER));
    }
    registers
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
    /// A platform operation (restart, provisioning) failed.
    Platform {
        /// Underlying platform error.
        reason: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Reasons pass through verbatim: the agent surfaces them as
        // `AgentResponse::Error`, and the TPM path must keep its
        // pre-refactor error strings.
        match self {
            BackendError::Quote { reason }
            | BackendError::Identity { reason }
            | BackendError::Platform { reason } => f.write_str(reason),
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
        BackendSet((1 << BackendKind::ALL.len()) - 1)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Wire)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
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

// ---------------------------------------------------------------------------
// The measured device both non-TPM backends are
// ---------------------------------------------------------------------------

/// The measured device both non-TPM backends are: a key derived from its
/// provisioning seed and certified by a platform root, one measurement
/// list extending one runtime register, a restart counter and a quote
/// clock. Its fields are private, and that is the isolation both shapes
/// model: the workload reaches them only through the typed entry points.
#[derive(Debug)]
struct Device {
    kind: BackendKind,
    hostname: String,
    keys: KeyPair,
    certificate: BackendCert,
    entries: Vec<ImaLogEntry>,
    register: Digest,
    restarts: u64,
    clock: u64,
    day: u32,
}

impl Device {
    /// Derives the attestation key from `tag`, the host name and the seed
    /// (no ambient entropy: replay-equal provisioning) and has `root`
    /// certify it over `context`.
    fn provision(
        kind: BackendKind,
        tag: &[u8],
        hostname: String,
        seed: u64,
        root: &BackendRoot,
        context: &[u8],
    ) -> Self {
        let seed = seed.to_be_bytes();
        let derived = HashAlgorithm::Sha256.digest_parts(&[tag, hostname.as_bytes(), &seed]);
        let mut material = [0u8; 32];
        material.copy_from_slice(derived.as_bytes());
        let keys = KeyPair::from_material(material);
        Device {
            kind,
            certificate: root.issue(&keys.verifying, context),
            hostname,
            keys,
            entries: Vec::new(),
            register: HashAlgorithm::Sha256.zero_digest(),
            restarts: 0,
            clock: 0,
            day: 0,
        }
    }

    /// Records `content` loaded at `path` as measured, extending the
    /// runtime register (the kind's evidence register).
    fn measure(&mut self, path: &str, content: &[u8]) {
        let pcr = self.kind.evidence_register();
        let entry = ImaLogEntry::new_in_pcr(pcr, HashAlgorithm::Sha256.digest(content), path);
        let tpl = entry.template_hash(HashAlgorithm::Sha256);
        self.register = extend_digest(HashAlgorithm::Sha256, self.register, tpl);
        self.entries.push(entry);
    }

    /// The certificate plus proof of possession answering the registrar
    /// `challenge`.
    fn identity(&self, challenge: &[u8]) -> IdentityResponse {
        let certificate = self.certificate.clone();
        let binding = ChallengeBinding::sign(&self.keys, challenge);
        match self.kind {
            BackendKind::SecureWorld => IdentityResponse::SecureWorld {
                certificate,
                binding,
            },
            _ => IdentityResponse::ConfidentialVm {
                certificate,
                binding,
            },
        }
    }

    /// A quote over [`required_registers`] for this poll, each value
    /// taken from `read`, in register order, plus the measurement list
    /// from `from_entry` on (an offset past the end yields none). It signs
    /// the same canonical message a TPM signs, so the verifier's quote
    /// check is backend-agnostic.
    fn quote(
        &mut self,
        nonce: &[u8],
        from_entry: usize,
        read: impl Fn(u8) -> Digest,
    ) -> QuoteResponse {
        self.clock += 1;
        let (bank, boot_count, clock) = (HashAlgorithm::Sha256, self.restarts, self.clock);
        let selection = required_registers(self.kind, from_entry);
        let pcr_values: Vec<Digest> = selection.indices().map(read).collect();
        let pcr_digest = Quote::digest_pcrs(&pcr_values);
        let msg = Quote::message_bytes(nonce, &selection, bank, &pcr_digest, boot_count, clock);
        let quote = Quote {
            nonce: nonce.to_vec(),
            selection,
            bank,
            pcr_values,
            pcr_digest,
            boot_count,
            clock,
            signature: self.keys.signing.sign(&msg),
        };
        let excerpt = self.entries[from_entry.min(self.entries.len())..].to_vec();
        QuoteResponse::new(self.kind, quote, excerpt, self.entries.len())
    }

    /// Clears the measurement list and register, bumps the restart
    /// counter and restarts the quote clock.
    fn reset(&mut self) {
        self.entries.clear();
        self.register = HashAlgorithm::Sha256.zero_digest();
        self.restarts += 1;
        self.clock = 0;
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

/// A TrustZone-style backend: a policy-driven measurement agent running
/// inside a simulated secure world (PDRIMA shape). It measures only loads
/// under its measured prefixes, into register 0, and the TEE vendor
/// certifies its key over the prefixes' digest.
#[derive(Debug)]
pub struct SecureWorldBackend {
    device: Device,
    measured_prefixes: Vec<String>,
}

impl SecureWorldBackend {
    /// Provisions a device: derives the attestation key from the config
    /// seed and has the TEE vendor `root` certify it over the
    /// measurement-policy digest.
    pub fn provision(config: SecureWorldConfig, root: &BackendRoot) -> Self {
        let mut policy = Sha256::new();
        policy.update(b"SW_MEASUREMENT_POLICY:");
        for prefix in &config.measured_prefixes {
            policy.update(prefix.as_bytes());
            policy.update(&[0]);
        }
        let context = policy.finalize();
        SecureWorldBackend {
            device: Device::provision(
                BackendKind::SecureWorld,
                b"SW_DEVICE_KEY:",
                config.hostname,
                config.seed,
                root,
                context.as_bytes(),
            ),
            measured_prefixes: config.measured_prefixes,
        }
    }

    /// The device attestation public key (what the registrar stores).
    pub fn public_key(&self) -> &VerifyingKey {
        &self.device.keys.verifying
    }

    /// Loads a trusted application into the secure world. Returns `true`
    /// when the measurement agent's policy covered the load (and the
    /// register was extended); `false` for an unmeasured load — the
    /// policy-coverage gap an attacker hides in.
    pub fn load_trusted_app(&mut self, path: &str, content: &[u8]) -> bool {
        let covered = (self.measured_prefixes.iter()).any(|p| path.starts_with(p.as_str()));
        if covered {
            self.device.measure(path, content);
        }
        covered
    }

    /// Number of measured loads so far.
    pub fn measured_count(&self) -> usize {
        self.device.entries.len()
    }

    /// Advances the device's notion of the simulated day.
    pub fn advance_days(&mut self, days: u32) {
        self.device.day += days;
    }

    /// A quote over the world's register plus the measured loads from
    /// `from_entry` on (an offset past the end yields none).
    pub(crate) fn quote(&mut self, nonce: &[u8], from_entry: usize) -> QuoteResponse {
        let register = self.device.register;
        self.device.quote(nonce, from_entry, |_| register)
    }

    /// Resets the world: the measurement list and register clear and the
    /// restart counter bumps.
    pub(crate) fn restart(&mut self) {
        self.device.reset();
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
    HashAlgorithm::Sha256.digest_parts(&[b"CVM_LAUNCH:", image])
}

/// A confidential-VM backend: user-space integrity enforcement running at
/// a higher privilege than the workload (PS-UIE shape).
///
/// Register 0 carries the launch measurement of whatever image actually
/// launched; the platform certifies the key over the enrolled one.
/// Register 1 is extended by the in-guest enforcement agent for every
/// measured execution.
#[derive(Debug)]
pub struct ConfidentialVmBackend {
    device: Device,
    enrolled_launch: Digest,
    launch_measurement: Digest,
}

impl ConfidentialVmBackend {
    /// Provisions a guest: derives the attestation key from the config
    /// seed and has the `platform` certify it over the image's launch
    /// measurement.
    pub fn provision(config: ConfidentialVmConfig, platform: &BackendRoot) -> Self {
        let launch = launch_measurement_of(&config.image);
        ConfidentialVmBackend {
            device: Device::provision(
                BackendKind::ConfidentialVm,
                b"CVM_GUEST_KEY:",
                config.hostname,
                config.seed,
                platform,
                launch.as_bytes(),
            ),
            enrolled_launch: launch,
            launch_measurement: launch,
        }
    }

    /// The guest attestation public key (what the registrar stores).
    pub fn public_key(&self) -> &VerifyingKey {
        &self.device.keys.verifying
    }

    /// The launch measurement the platform certified at provisioning.
    pub fn enrolled_launch_measurement(&self) -> Digest {
        self.enrolled_launch
    }

    /// The enforcement agent measures and records an execution.
    pub fn exec_measured(&mut self, path: &str, content: &[u8]) {
        self.device.measure(path, content);
    }

    /// Relaunches the VM from a different image. The platform measures
    /// whatever actually launched, so register 0 now carries the new
    /// image's measurement — while the certified identity still names the
    /// enrolled one. The verifier catches the divergence.
    pub fn relaunch_with_image(&mut self, image: &[u8]) {
        self.launch_measurement = launch_measurement_of(image);
        self.device.reset();
    }

    /// Advances the guest's notion of the simulated day.
    pub fn advance_days(&mut self, days: u32) {
        self.device.day += days;
    }

    /// A quote over the launch and runtime registers plus the measured
    /// executions from `from_entry` on (an offset past the end yields
    /// none).
    pub(crate) fn quote(&mut self, nonce: &[u8], from_entry: usize) -> QuoteResponse {
        let (launch, runtime) = (self.launch_measurement, self.device.register);
        self.device.quote(nonce, from_entry, |register| {
            if register == CVM_LAUNCH_REGISTER {
                launch
            } else {
                runtime
            }
        })
    }

    /// A clean restart relaunches the enrolled image: register 0 keeps
    /// the certified launch measurement.
    pub(crate) fn restart(&mut self) {
        self.launch_measurement = self.enrolled_launch;
        self.device.reset();
    }
}

// ---------------------------------------------------------------------------
// The backend sum type agents hold
// ---------------------------------------------------------------------------

/// The backends an [`Agent`](crate::Agent) can run — a closed sum so
/// agents stay `Send` without boxing.
#[non_exhaustive]
#[derive(Debug)]
#[expect(
    clippy::large_enum_variant,
    reason = "one Backend lives per agent; the TPM+IMA variant's size is the simulated \
              machine it owns, which boxing would only move, not shrink"
)]
pub enum Backend {
    /// TPM + IMA: a TPM quote over [`required_registers`] (PCR 10, plus
    /// PCRs 0–9 from entry 0) and the machine's IMA measurement list (the
    /// classic Keylime path).
    TpmIma(Machine),
    /// TrustZone-style secure world.
    SecureWorld(SecureWorldBackend),
    /// Confidential VM.
    ConfidentialVm(ConfidentialVmBackend),
}

impl Backend {
    /// Which backend this is.
    pub(crate) fn kind(&self) -> BackendKind {
        match self {
            Backend::TpmIma(_) => BackendKind::TpmIma,
            Backend::SecureWorld(_) => BackendKind::SecureWorld,
            Backend::ConfidentialVm(_) => BackendKind::ConfidentialVm,
        }
    }

    /// The host name the agent identity derives from.
    pub(crate) fn hostname(&self) -> &str {
        match self {
            Backend::TpmIma(machine) => machine.hostname(),
            Backend::SecureWorld(b) => &b.device.hostname,
            Backend::ConfidentialVm(b) => &b.device.hostname,
        }
    }

    /// The platform's notion of the current simulated day (used for alert
    /// timestamps).
    pub(crate) fn day(&self) -> u32 {
        match self {
            Backend::TpmIma(machine) => machine.clock.day(),
            Backend::SecureWorld(b) => b.device.day,
            Backend::ConfidentialVm(b) => b.device.day,
        }
    }

    /// Produces identity material answering the registrar `challenge`.
    ///
    /// # Errors
    ///
    /// [`BackendError::Identity`] when the TPM cannot certify its AK.
    pub(crate) fn identity(&mut self, challenge: &[u8]) -> Result<IdentityResponse, BackendError> {
        match self {
            Backend::TpmIma(machine) => match machine.tpm.certify_ak(challenge) {
                Ok(binding) => Ok(IdentityResponse::TpmEk {
                    ek_certificate: machine.tpm.ek_certificate().clone(),
                    binding,
                }),
                Err(e) => Err(BackendError::Identity {
                    reason: e.to_string(),
                }),
            },
            Backend::SecureWorld(b) => Ok(b.device.identity(challenge)),
            Backend::ConfidentialVm(b) => Ok(b.device.identity(challenge)),
        }
    }

    /// Produces a quote over [`required_registers`] plus the
    /// measurement-list excerpt: the entries from `from_entry` on (an
    /// offset past the end yields none).
    ///
    /// # Errors
    ///
    /// [`BackendError::Quote`] when the TPM refuses to quote.
    pub(crate) fn quote(
        &mut self,
        nonce: &[u8],
        from_entry: usize,
    ) -> Result<QuoteResponse, BackendError> {
        match self {
            Backend::TpmIma(machine) => {
                let selection = required_registers(BackendKind::TpmIma, from_entry);
                let quote = machine
                    .tpm
                    .quote(nonce, &selection, HashAlgorithm::Sha256)
                    .map_err(|e| BackendError::Quote {
                        reason: e.to_string(),
                    })?;
                let all = machine.ima.log().entries();
                let from = from_entry.min(all.len());
                Ok(QuoteResponse::new(
                    BackendKind::TpmIma,
                    quote,
                    all[from..].to_vec(),
                    all.len(),
                ))
            }
            Backend::SecureWorld(b) => Ok(b.quote(nonce, from_entry)),
            Backend::ConfidentialVm(b) => Ok(b.quote(nonce, from_entry)),
        }
    }

    /// Restarts the platform (reboot / world reset / VM relaunch).
    ///
    /// # Errors
    ///
    /// [`BackendError::Platform`] when the machine refuses to reboot.
    pub(crate) fn restart(&mut self) -> Result<(), BackendError> {
        match self {
            Backend::TpmIma(machine) => machine.reboot().map_err(|e| BackendError::Platform {
                reason: e.to_string(),
            })?,
            Backend::SecureWorld(b) => b.restart(),
            Backend::ConfidentialVm(b) => b.restart(),
        }
        Ok(())
    }

    /// The wrapped machine, when this is the TPM+IMA backend.
    pub fn as_machine(&self) -> Option<&Machine> {
        match self {
            Backend::TpmIma(machine) => Some(machine),
            _ => None,
        }
    }

    /// Mutable access to the wrapped machine, when TPM+IMA.
    pub fn as_machine_mut(&mut self) -> Option<&mut Machine> {
        match self {
            Backend::TpmIma(machine) => Some(machine),
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
        Backend::TpmIma(machine)
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

#[cfg(test)]
mod tests {
    use super::*;
    use cia_wire::WireError;
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
    fn backend_identity_wire_roundtrip() {
        let measurement = HashAlgorithm::Sha256.digest(b"launch image");
        for identity in [
            BackendIdentity::tpm_ima(),
            BackendIdentity::secure_world(),
            BackendIdentity::confidential_vm(measurement),
        ] {
            let bytes = identity.to_wire();
            assert_eq!(BackendIdentity::from_wire(&bytes), Ok(identity));
            for cut in 0..bytes.len() {
                assert!(BackendIdentity::from_wire(&bytes[..cut]).is_err());
            }
            let mut long = bytes.clone();
            long.push(0);
            assert_eq!(
                BackendIdentity::from_wire(&long),
                Err(WireError::TrailingBytes { remaining: 1 })
            );
        }
        assert!(matches!(
            BackendIdentity::from_wire(&[3, 0]),
            Err(WireError::BadTag { .. })
        ));
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
        let resp = sw.quote(b"n", 0);
        assert_eq!(resp.total_entries(), 1);
        assert_eq!(resp.entries()[0].path, "/ta/keymaster");
        assert!(resp.quote().verify(sw.public_key(), b"n"));
        assert!(resp.quote().pcr_value(SECURE_WORLD_REGISTER).is_some());
    }

    #[test]
    fn cvm_quote_pins_launch_measurement() {
        let mut rng = StdRng::seed_from_u64(12);
        let platform = BackendRoot::generate("CC Platform", &mut rng);
        let mut vm =
            ConfidentialVmBackend::provision(ConfidentialVmConfig::new("cvm-0", 2), &platform);
        vm.exec_measured("/usr/bin/svc", b"svc-bin");
        let resp = vm.quote(b"n", 0);
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
        let resp = vm.quote(b"n", 0);
        assert_ne!(
            resp.quote().pcr_value(CVM_LAUNCH_REGISTER).unwrap(),
            vm.enrolled_launch_measurement(),
            "platform measures what actually launched"
        );
        vm.restart();
        let resp = vm.quote(b"n2", 0);
        assert_eq!(
            resp.quote().pcr_value(CVM_LAUNCH_REGISTER).unwrap(),
            vm.enrolled_launch_measurement(),
            "clean restart relaunches the enrolled image"
        );
    }

    #[test]
    fn secure_world_restart_resets_register() {
        let root = tee_root();
        let mut sw = SecureWorldBackend::provision(SecureWorldConfig::new("sw-0", 1), &root);
        sw.load_trusted_app("/ta/a", b"a");
        let before = sw.quote(b"n", 0);
        sw.restart();
        let after = sw.quote(b"n", 0);
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
