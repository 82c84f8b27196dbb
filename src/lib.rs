//! # continuous-attestation
//!
//! A from-scratch Rust reproduction of *Towards Continuous Integrity
//! Attestation and Its Challenges in Practice: A Case Study of Keylime*
//! (DSN 2025): the Keylime attestation stack, its substrates (TPM 2.0,
//! Linux IMA, a virtual filesystem, an Ubuntu-like distribution), the
//! paper's **dynamic policy generation** contribution, the §IV attack
//! corpus, and the harnesses regenerating every table and figure.
//!
//! This crate is a façade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`crypto`] | `cia-crypto` | SHA-1/SHA-256/HMAC, signing keys |
//! | [`vfs`] | `cia-vfs` | mounts, inodes, POSIX rename semantics |
//! | [`tpm`] | `cia-tpm` | PCR banks, quotes, EK/AK identity |
//! | [`ima`] | `cia-ima` | measurement policy/log/cache (P3–P5) |
//! | [`distro`] | `cia-distro` | packages, mirror, apt, SNAPs |
//! | [`os`] | `cia-os` | the machine simulator |
//! | [`keylime`] | `cia-keylime` | agent, registrar, verifier, tenant |
//! | [`policy`] | `cia-core` | dynamic policy generation + experiments |
//! | [`attacks`] | `cia-attacks` | Table II corpus and harness |
//!
//! # Quickstart
//!
//! ```
//! use continuous_attestation::prelude::*;
//!
//! // A one-machine Keylime deployment.
//! let mut cluster = Cluster::new(7, VerifierConfig::default());
//! let id = cluster.add_machine(MachineConfig::default(), RuntimePolicy::new())?;
//! assert!(cluster.attest(&id)?.is_verified());
//!
//! // An unexpected executable breaks attestation...
//! let machine = cluster.agent_mut(&id).unwrap().machine_mut();
//! let rogue = VfsPath::new("/usr/local/bin/rogue")?;
//! machine.write_executable(&rogue, b"unexpected")?;
//! machine.exec(&rogue, ExecMethod::Direct)?;
//! assert!(!cluster.attest(&id)?.is_verified());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for larger scenarios and `crates/bench/src/bin/` for
//! the per-figure reproduction binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cia_attacks as attacks;
pub use cia_core as policy;
pub use cia_crypto as crypto;
pub use cia_distro as distro;
pub use cia_ima as ima;
pub use cia_keylime as keylime;
pub use cia_os as os;
pub use cia_tpm as tpm;
pub use cia_vfs as vfs;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use cia_attacks::{attack_corpus, evaluate, DefenseConfig, PlanMode};
    pub use cia_core::experiments::{
        run_fleet, run_fp_week, run_hetero, run_longrun, FleetConfig, FpWeekConfig, HeteroConfig,
        LongRunConfig, UpdateCadence,
    };
    pub use cia_core::{CostModel, DynamicPolicyGenerator, GeneratorConfig};
    pub use cia_crypto::{Digest, HashAlgorithm};
    pub use cia_distro::{Mirror, ReleaseStream, Snap, StreamProfile};
    pub use cia_ima::{Ima, ImaConfig, ImaPolicy};
    pub use cia_keylime::{
        AgentHealth, AgentId, AgentStatus, AttestationOutcome, BackendKind, BackendSet,
        ChaosTransport, Cluster, ConfidentialVmConfig, FailureKind, FaultPlan, FaultTarget,
        FederatedRoundReport, Federation, FederationConfig, FleetScheduler, HashRing, HealthCounts,
        MetricsSnapshot, PolicyDelta, PolicyEpoch, PolicyStore, ReliableTransport, ResumePlan,
        RoundOutcome, RoundReport, RuntimePolicy, SecureWorldConfig, ShardTransportKind, Transport,
        VerifierConfig, VerifierJournal,
    };
    pub use cia_os::{ExecMethod, Machine, MachineConfig, SimClock};
    pub use cia_tpm::{Manufacturer, Tpm};
    pub use cia_vfs::{Mode, Vfs, VfsPath};
}
