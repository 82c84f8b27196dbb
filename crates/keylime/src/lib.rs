//! A reimplementation of Keylime's continuous integrity attestation.
//!
//! Mirrors the four components of Fig. 1 of the paper:
//!
//! - [`Agent`] — runs on the untrusted machine; answers identity and
//!   quote requests by reading the machine's TPM and IMA log.
//! - [`Registrar`] — validates the EK certificate chain and the AK
//!   binding, guarding against spoofed TPMs.
//! - [`Verifier`] — polls agents: checks quote signatures and nonces,
//!   replays the IMA log against quoted PCR 10, validates
//!   `boot_aggregate` against quoted PCRs 0–9 (a quote selects them only
//!   when its excerpt starts at entry 0: [`required_registers`]), and
//!   evaluates every new log entry against the agent's [`RuntimePolicy`].
//! - [`Cluster`] — the tenant: the operator-facing orchestration layer
//!   (enroll machines, push policies, resolve failures).
//!
//! On top of the single-agent protocol sits the **fleet engine**
//! ([`FleetScheduler`], driven through [`Cluster::attest_fleet`]): a
//! worker pool that attests every enrolled agent concurrently, retries
//! dropped calls with bounded exponential backoff, reports unreachable
//! agents instead of skipping them, and accumulates counters and latency
//! histograms in a serializable [`MetricsSnapshot`].
//!
//! Two design points of the paper are first-class here:
//!
//! - **P2, stop-on-failure**: by default the verifier *stops processing at
//!   the first failing log entry and pauses polling*, exactly the
//!   behaviour adaptive attackers exploit. The
//!   [`VerifierConfig::continue_on_failure`] toggle implements the
//!   paper's recommended fix (always complete the full attestation), and
//!   [`VerifierConfig::engine_default`] turns it on as the fleet engine's
//!   default posture.
//! - **P1, excluded directories**: [`RuntimePolicy`] carries the exclude
//!   list (e.g. `/tmp`) that the studied policy shipped with.
//!
//! Requests and responses cross an explicit [`Transport`] — a trait over
//! request/response calls that encode both messages to bytes (the agent
//! RPC in the binary `cia-wire` codec). [`ReliableTransport`] always
//! delivers, and [`Transport::fork`] derives independent deterministic
//! lanes so concurrent fleet rounds stay reproducible.
//!
//! Agents are named by the typed [`AgentId`] — no public API takes a
//! bare `&str` id, so mixing up hostnames and other strings is a compile
//! error, not an incident.
//!
//! Every fault is injected one way: [`ChaosTransport`] applies a seeded
//! [`FaultPlan`] — a uniformly lossy link ([`FaultPlan::lossy`]),
//! scripted partitions, loss windows, response corruption, registrar
//! outages, crash/restarts — decided purely by `(round, lane, attempt)`
//! so any failure trace replays bit-identically from the plan alone and
//! every round draws fresh loss. The verifier tracks a per-agent
//! health state machine ([`AgentHealth`]: Healthy → Degraded →
//! Quarantined → Recovering); with quarantine enabled the scheduler
//! skips quarantined agents cheaply on a decaying re-probe backoff
//! instead of burning full retry budgets every round.
//!
//! # Examples
//!
//! Single-agent flow:
//!
//! ```
//! use cia_keylime::{Cluster, RuntimePolicy, VerifierConfig};
//! use cia_os::{ExecMethod, MachineConfig};
//! use cia_vfs::VfsPath;
//!
//! let mut cluster = Cluster::new(42, VerifierConfig::default());
//! let policy = RuntimePolicy::new();
//! let id = cluster.add_machine(MachineConfig::default(), policy)?;
//!
//! // The enrolled agent attests cleanly while nothing unexpected runs.
//! let outcome = cluster.attest(&id)?;
//! assert!(outcome.is_verified());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Validated configuration and a concurrent fleet round over a lossy
//! link:
//!
//! ```
//! use cia_keylime::{
//!     ChaosTransport, Cluster, FaultPlan, ReliableTransport, RuntimePolicy, VerifierConfig,
//! };
//! use cia_os::MachineConfig;
//!
//! let config = VerifierConfig::builder()
//!     .continue_on_failure(true) // the paper's P2 fix
//!     .max_retries(8)
//!     .retry_backoff_ms(5)
//!     .worker_count(4)
//!     .build()?;
//!
//! // 10% loss per direction, decided from seed 7.
//! let transport = ChaosTransport::new(ReliableTransport::new(), FaultPlan::lossy(7, 0.10));
//! let mut cluster = Cluster::with_transport(42, config, transport);
//! for i in 0..8u64 {
//!     let machine = MachineConfig {
//!         hostname: format!("node-{i:02}"),
//!         seed: i,
//!         ..MachineConfig::default()
//!     };
//!     cluster.add_machine(machine, RuntimePolicy::new())?;
//! }
//!
//! let report = cluster.attest_fleet();
//! assert_eq!(report.results.len(), 8);
//! assert!(report.all_reached(), "nobody silently skipped");
//! let metrics = cluster.scheduler.snapshot();
//! assert_eq!(metrics.rounds, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A hot-path crate: its library code surfaces typed errors, never a
// panic (DESIGN.md §10). An escape is a reasoned `#[expect]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod agent;
pub mod audit;
pub mod backend;
pub mod chaos;
pub mod config;
pub mod durable;
pub mod error;
pub mod federation;
pub mod ids;
pub mod payload;
pub mod policy;
pub mod registrar;
pub mod remote;
pub mod revocation;
pub mod ring;
pub mod scheduler;
pub mod store;
pub mod tenant;
pub mod transport;
pub mod verifier;

pub use agent::{Agent, AgentRequest, AgentResponse, IdentityResponse, QuoteResponse};
pub use audit::{AuditLog, AuditSeal};
pub use backend::{
    required_registers, Backend, BackendCert, BackendError, BackendIdentity, BackendKind,
    BackendRoot, BackendSet, ChallengeBinding, ConfidentialVmBackend, ConfidentialVmConfig,
    SecureWorldBackend, SecureWorldConfig,
};
pub use chaos::{ChaosTransport, FaultDecision, FaultEvent, FaultKind, FaultPlan, FaultTarget};
pub use config::{ConfigError, VerifierConfigBuilder, MAX_RETRIES_LIMIT};
pub use durable::{Recovered, ResumePlan, VerifierJournal, DEFAULT_JOURNAL_DIR};
pub use error::KeylimeError;
pub use federation::{FederatedRoundReport, Federation, FederationConfig, ShardTransportKind};
pub use ids::AgentId;
pub use payload::{EncryptedPayload, KeyShare, PayloadBundle};
pub use policy::{PolicyCheck, PolicyDelta, PolicyDiff, PolicyMeta, RuntimePolicy};
pub use registrar::{Registrar, RegistrationRecord};
pub use remote::{drive_round, serve_round, DrivenRound, DEFAULT_WIRE_BATCH, DEFAULT_WIRE_WINDOW};
pub use revocation::{RevocationBus, RevocationEmitter, RevocationNotice, RevocationSubscriber};
pub use ring::HashRing;
pub use scheduler::{
    AgentRoundResult, BackendCounts, FleetScheduler, MetricsSnapshot, PerBackendCounts,
    RoundOutcome, RoundReport,
};
pub use store::{PolicyEpoch, PolicyStore};
pub use tenant::Cluster;
pub use transport::{ReliableTransport, Transport, TransportError};
pub use verifier::{
    AgentHealth, AgentStateSnapshot, AgentStatus, Alert, AttestationOutcome, FailureKind,
    HealthCounts, Verifier, VerifierConfig,
};
