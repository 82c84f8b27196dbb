//! Verifier and fleet-engine configuration.
//!
//! [`VerifierConfig`] started as a single `continue_on_failure` toggle;
//! the fleet scheduler added retry, backoff and worker-pool knobs. Construct it three ways:
//!
//! - `VerifierConfig::default()` — stock-Keylime semantics
//!   (stop-on-failure, the paper's P2) with sane engine parameters;
//! - struct update syntax over `Default` for one-off tweaks:
//!   `VerifierConfig { continue_on_failure: true, ..Default::default() }`;
//! - [`VerifierConfig::builder`] — validated construction for anything
//!   beyond a toggle.

use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::backend::{BackendKind, BackendSet};

/// Verifier behaviour toggles and fleet-engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifierConfig {
    /// §IV-C "Improving Keylime's Attestation Process": when `false`
    /// (stock Keylime, and the default), the verifier stops processing at
    /// the first failing log entry and pauses polling — the behaviour
    /// attackers exploit as **P2**. When `true`, every entry is always
    /// evaluated and polling continues, so real discrepancies cannot hide
    /// behind an unresolved false positive.
    pub continue_on_failure: bool,
    /// Dropped transport calls are retried up to this many times before
    /// an agent is reported unreachable for the round.
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds; doubles per
    /// attempt (bounded by [`VerifierConfig::max_backoff_ms`]). The fleet
    /// scheduler *records* backoff rather than sleeping it, keeping runs
    /// deterministic and fast.
    pub retry_backoff_ms: u64,
    /// Upper bound on a single backoff step, in milliseconds.
    pub max_backoff_ms: u64,
    /// Worker threads in the fleet scheduler's pool.
    pub worker_count: usize,
    /// When `true`, quarantined agents are skipped cheaply on a decaying
    /// re-probe schedule instead of burning the full retry budget every
    /// round. Health is *tracked* either way; this gates only the
    /// cheap-skip behaviour. Off by default (stock semantics: every agent
    /// is retried every round), on in [`VerifierConfig::engine_default`].
    pub quarantine_enabled: bool,
    /// Consecutive unreachable rounds before an agent is marked Degraded.
    pub degraded_after: u32,
    /// Consecutive unreachable rounds before an agent is Quarantined.
    /// Must be ≥ `degraded_after`.
    pub quarantine_after: u32,
    /// Rounds between re-probes when an agent first enters quarantine;
    /// doubles after each failed probe (bounded by
    /// [`VerifierConfig::reprobe_backoff_max_rounds`]).
    pub reprobe_backoff_rounds: u32,
    /// Upper bound on the re-probe interval, in rounds.
    pub reprobe_backoff_max_rounds: u32,
    /// Which attestation backends this verifier accepts evidence from.
    /// Agents enrolled with a backend outside the set fail appraisal
    /// with [`FailureKind::BackendNotAllowed`]. Defaults to every known
    /// backend — heterogeneous fleets are first-class.
    ///
    /// [`FailureKind::BackendNotAllowed`]:
    ///     crate::verifier::FailureKind::BackendNotAllowed
    #[serde(default)]
    pub allowed_backends: BackendSet,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            continue_on_failure: false,
            max_retries: 3,
            retry_backoff_ms: 10,
            max_backoff_ms: 1_000,
            worker_count: 4,
            quarantine_enabled: false,
            degraded_after: 2,
            quarantine_after: 4,
            reprobe_backoff_rounds: 2,
            reprobe_backoff_max_rounds: 32,
            allowed_backends: BackendSet::all(),
        }
    }
}

impl VerifierConfig {
    /// A builder for validated construction.
    pub fn builder() -> VerifierConfigBuilder {
        VerifierConfigBuilder {
            config: VerifierConfig::default(),
        }
    }

    /// The fleet engine's recommended defaults: like `default()` but with
    /// `continue_on_failure` **on** — the paper's P2 fix — so one
    /// unresolved false positive can never blind the verifier to what
    /// comes after it, and with the worker pool sized to the machine.
    pub fn engine_default() -> Self {
        VerifierConfig {
            continue_on_failure: true,
            quarantine_enabled: true,
            worker_count: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            ..VerifierConfig::default()
        }
    }

    /// The backoff before retry `attempt` (1-based), honouring the
    /// exponential-doubling schedule and the `max_backoff_ms` cap.
    pub fn backoff_for_attempt(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(63);
        let ms = self
            .retry_backoff_ms
            .saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX))
            .min(self.max_backoff_ms);
        Duration::from_millis(ms)
    }
}

/// Why a [`VerifierConfigBuilder::build`] was rejected.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `allowed_backends` is empty — the verifier could accept no
    /// evidence at all.
    NoBackendsAllowed,
    /// `worker_count` must be at least 1.
    NoWorkers,
    /// `max_retries` above the supported bound.
    TooManyRetries {
        /// The rejected value.
        requested: u32,
        /// The maximum accepted.
        limit: u32,
    },
    /// `retry_backoff_ms` exceeds `max_backoff_ms`.
    BackoffAboveCap {
        /// The configured base backoff.
        base_ms: u64,
        /// The configured cap.
        cap_ms: u64,
    },
    /// `degraded_after` must be at least 1.
    ZeroDegradedThreshold,
    /// `quarantine_after` below `degraded_after` — an agent would be
    /// quarantined before it is ever considered degraded.
    QuarantineBeforeDegraded {
        /// The configured quarantine threshold.
        quarantine_after: u32,
        /// The configured degraded threshold.
        degraded_after: u32,
    },
    /// `reprobe_backoff_rounds` must be at least 1.
    ZeroReprobeBackoff,
    /// `reprobe_backoff_rounds` exceeds `reprobe_backoff_max_rounds`.
    ReprobeAboveCap {
        /// The configured base re-probe interval.
        base_rounds: u32,
        /// The configured cap.
        cap_rounds: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoBackendsAllowed => {
                f.write_str("allowed_backends must name at least one backend")
            }
            ConfigError::NoWorkers => f.write_str("worker_count must be at least 1"),
            ConfigError::TooManyRetries { requested, limit } => {
                write!(f, "max_retries {requested} exceeds the limit of {limit}")
            }
            ConfigError::BackoffAboveCap { base_ms, cap_ms } => write!(
                f,
                "retry_backoff_ms ({base_ms}) exceeds max_backoff_ms ({cap_ms})"
            ),
            ConfigError::ZeroDegradedThreshold => f.write_str("degraded_after must be at least 1"),
            ConfigError::QuarantineBeforeDegraded {
                quarantine_after,
                degraded_after,
            } => write!(
                f,
                "quarantine_after ({quarantine_after}) is below degraded_after ({degraded_after})"
            ),
            ConfigError::ZeroReprobeBackoff => {
                f.write_str("reprobe_backoff_rounds must be at least 1")
            }
            ConfigError::ReprobeAboveCap {
                base_rounds,
                cap_rounds,
            } => write!(
                f,
                "reprobe_backoff_rounds ({base_rounds}) exceeds reprobe_backoff_max_rounds ({cap_rounds})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Maximum accepted `max_retries` (beyond this, exponential backoff is
/// certainly a misconfiguration).
pub const MAX_RETRIES_LIMIT: u32 = 32;

/// Validated construction of a [`VerifierConfig`].
#[derive(Debug, Clone)]
pub struct VerifierConfigBuilder {
    config: VerifierConfig,
}

impl VerifierConfigBuilder {
    /// Sets the P2 toggle (see [`VerifierConfig::continue_on_failure`]).
    pub fn continue_on_failure(mut self, on: bool) -> Self {
        self.config.continue_on_failure = on;
        self
    }

    /// Sets the retry budget for dropped transport calls.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.config.max_retries = retries;
        self
    }

    /// Sets the base retry backoff in milliseconds.
    pub fn retry_backoff_ms(mut self, ms: u64) -> Self {
        self.config.retry_backoff_ms = ms;
        self
    }

    /// Sets the cap on a single backoff step in milliseconds.
    pub fn max_backoff_ms(mut self, ms: u64) -> Self {
        self.config.max_backoff_ms = ms;
        self
    }

    /// Sets the scheduler worker-pool size.
    pub fn worker_count(mut self, workers: usize) -> Self {
        self.config.worker_count = workers;
        self
    }

    /// Enables or disables the quarantine cheap-skip path
    /// (see [`VerifierConfig::quarantine_enabled`]).
    pub fn quarantine_enabled(mut self, on: bool) -> Self {
        self.config.quarantine_enabled = on;
        self
    }

    /// Sets the consecutive-unreachable threshold for Degraded.
    pub fn degraded_after(mut self, rounds: u32) -> Self {
        self.config.degraded_after = rounds;
        self
    }

    /// Sets the consecutive-unreachable threshold for Quarantined.
    pub fn quarantine_after(mut self, rounds: u32) -> Self {
        self.config.quarantine_after = rounds;
        self
    }

    /// Sets the initial re-probe interval, in rounds.
    pub fn reprobe_backoff_rounds(mut self, rounds: u32) -> Self {
        self.config.reprobe_backoff_rounds = rounds;
        self
    }

    /// Sets the cap on the re-probe interval, in rounds.
    pub fn reprobe_backoff_max_rounds(mut self, rounds: u32) -> Self {
        self.config.reprobe_backoff_max_rounds = rounds;
        self
    }

    /// Restricts which backends the verifier accepts evidence from
    /// (see [`VerifierConfig::allowed_backends`]).
    pub fn allowed_backends(mut self, set: BackendSet) -> Self {
        self.config.allowed_backends = set;
        self
    }

    /// Convenience: allow exactly one backend.
    pub fn only_backend(mut self, kind: BackendKind) -> Self {
        self.config.allowed_backends = BackendSet::only(kind);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first violated constraint.
    pub fn build(self) -> Result<VerifierConfig, ConfigError> {
        let c = &self.config;
        if c.allowed_backends.is_empty() {
            return Err(ConfigError::NoBackendsAllowed);
        }
        if c.worker_count == 0 {
            return Err(ConfigError::NoWorkers);
        }
        if c.max_retries > MAX_RETRIES_LIMIT {
            return Err(ConfigError::TooManyRetries {
                requested: c.max_retries,
                limit: MAX_RETRIES_LIMIT,
            });
        }
        if c.retry_backoff_ms > c.max_backoff_ms {
            return Err(ConfigError::BackoffAboveCap {
                base_ms: c.retry_backoff_ms,
                cap_ms: c.max_backoff_ms,
            });
        }
        if c.degraded_after == 0 {
            return Err(ConfigError::ZeroDegradedThreshold);
        }
        if c.quarantine_after < c.degraded_after {
            return Err(ConfigError::QuarantineBeforeDegraded {
                quarantine_after: c.quarantine_after,
                degraded_after: c.degraded_after,
            });
        }
        if c.reprobe_backoff_rounds == 0 {
            return Err(ConfigError::ZeroReprobeBackoff);
        }
        if c.reprobe_backoff_rounds > c.reprobe_backoff_max_rounds {
            return Err(ConfigError::ReprobeAboveCap {
                base_rounds: c.reprobe_backoff_rounds,
                cap_rounds: c.reprobe_backoff_max_rounds,
            });
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_stock_keylime() {
        let c = VerifierConfig::default();
        assert!(!c.continue_on_failure, "stock Keylime stops on failure");
        assert!(c.worker_count >= 1);
        assert!(c.max_retries >= 1);
    }

    #[test]
    fn engine_default_fixes_p2() {
        let c = VerifierConfig::engine_default();
        assert!(c.continue_on_failure);
        assert!(c.worker_count >= 1);
        assert!(c.quarantine_enabled, "engine posture quarantines");
    }

    #[test]
    fn stock_default_keeps_quarantine_off() {
        let c = VerifierConfig::default();
        assert!(!c.quarantine_enabled, "stock semantics retry every round");
        assert!(c.degraded_after >= 1);
        assert!(c.quarantine_after >= c.degraded_after);
    }

    #[test]
    fn builder_health_knobs_roundtrip() {
        let c = VerifierConfig::builder()
            .quarantine_enabled(true)
            .degraded_after(1)
            .quarantine_after(3)
            .reprobe_backoff_rounds(4)
            .reprobe_backoff_max_rounds(16)
            .build()
            .unwrap();
        assert!(c.quarantine_enabled);
        assert_eq!(c.degraded_after, 1);
        assert_eq!(c.quarantine_after, 3);
        assert_eq!(c.reprobe_backoff_rounds, 4);
        assert_eq!(c.reprobe_backoff_max_rounds, 16);
    }

    #[test]
    fn builder_rejects_invalid_health_knobs() {
        assert_eq!(
            VerifierConfig::builder().degraded_after(0).build(),
            Err(ConfigError::ZeroDegradedThreshold)
        );
        assert_eq!(
            VerifierConfig::builder()
                .degraded_after(5)
                .quarantine_after(2)
                .build(),
            Err(ConfigError::QuarantineBeforeDegraded {
                quarantine_after: 2,
                degraded_after: 5,
            })
        );
        assert_eq!(
            VerifierConfig::builder().reprobe_backoff_rounds(0).build(),
            Err(ConfigError::ZeroReprobeBackoff)
        );
        assert_eq!(
            VerifierConfig::builder()
                .reprobe_backoff_rounds(64)
                .reprobe_backoff_max_rounds(8)
                .build(),
            Err(ConfigError::ReprobeAboveCap {
                base_rounds: 64,
                cap_rounds: 8,
            })
        );
    }

    #[test]
    fn builder_roundtrip() {
        let c = VerifierConfig::builder()
            .continue_on_failure(true)
            .max_retries(5)
            .retry_backoff_ms(20)
            .max_backoff_ms(500)
            .worker_count(8)
            .build()
            .unwrap();
        assert!(c.continue_on_failure);
        assert_eq!(c.max_retries, 5);
        assert_eq!(c.retry_backoff_ms, 20);
        assert_eq!(c.max_backoff_ms, 500);
        assert_eq!(c.worker_count, 8);
    }

    #[test]
    fn builder_rejects_invalid() {
        assert_eq!(
            VerifierConfig::builder().worker_count(0).build(),
            Err(ConfigError::NoWorkers)
        );
        assert!(matches!(
            VerifierConfig::builder().max_retries(100).build(),
            Err(ConfigError::TooManyRetries { requested: 100, .. })
        ));
        assert!(matches!(
            VerifierConfig::builder()
                .retry_backoff_ms(5_000)
                .max_backoff_ms(100)
                .build(),
            Err(ConfigError::BackoffAboveCap { .. })
        ));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let c = VerifierConfig::builder()
            .retry_backoff_ms(10)
            .max_backoff_ms(60)
            .build()
            .unwrap();
        assert_eq!(c.backoff_for_attempt(1).as_millis(), 10);
        assert_eq!(c.backoff_for_attempt(2).as_millis(), 20);
        assert_eq!(c.backoff_for_attempt(3).as_millis(), 40);
        assert_eq!(c.backoff_for_attempt(4).as_millis(), 60, "capped");
        assert_eq!(c.backoff_for_attempt(63).as_millis(), 60, "no overflow");
    }

    #[test]
    fn allowed_backends_default_and_narrowing() {
        let c = VerifierConfig::default();
        for kind in BackendKind::ALL {
            assert!(c.allowed_backends.contains(kind), "all allowed by default");
        }
        let c = VerifierConfig::builder()
            .only_backend(BackendKind::TpmIma)
            .build()
            .unwrap();
        assert!(c.allowed_backends.contains(BackendKind::TpmIma));
        assert!(!c.allowed_backends.contains(BackendKind::SecureWorld));
        assert_eq!(
            VerifierConfig::builder()
                .allowed_backends(BackendSet::none())
                .build(),
            Err(ConfigError::NoBackendsAllowed)
        );
    }

    #[test]
    fn config_deserializes_without_allowed_backends_field() {
        // Pre-backend configs on disk omit the field; it defaults to all.
        let json = serde_json::to_string(&VerifierConfig::default()).unwrap();
        let field = format!(
            "\"allowed_backends\":{}",
            serde_json::to_string(&BackendSet::all()).unwrap()
        );
        let stripped = json
            .replace(&format!("{field},"), "")
            .replace(&format!(",{field}"), "");
        assert_ne!(stripped, json, "field must be present before stripping");
        let c: VerifierConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(c.allowed_backends, BackendSet::all());
    }

    /// Configs written while the pipelined-round depth knob, the
    /// excerpt-format knob, the per-call latency budget or the
    /// rows-per-frame batch existed still carry their fields; unknown
    /// fields are ignored, so they load unchanged. (Each name is spelled
    /// in two halves so a search for a removed knob finds nothing.)
    #[test]
    fn stale_config_with_a_removed_field_still_deserializes() {
        let json = serde_json::to_string(&VerifierConfig::engine_default()).unwrap();
        for removed in [
            concat!("{\"pipeline", "_depth\":8,"),
            concat!("{\"structured", "_excerpt\":false,"),
            concat!("{\"call", "_timeout_ms\":1000,"),
            concat!("{\"wire", "_batch\":64,"),
        ] {
            let stale = json.replacen('{', removed, 1);
            assert_ne!(stale, json);
            let c: VerifierConfig = serde_json::from_str(&stale).unwrap();
            assert_eq!(c, VerifierConfig::engine_default());
        }
    }

    #[test]
    fn struct_update_over_default_still_works() {
        let c = VerifierConfig {
            continue_on_failure: true,
            ..Default::default()
        };
        assert!(c.continue_on_failure);
        assert_eq!(c.max_retries, VerifierConfig::default().max_retries);
    }
}
