//! Cross-process shard RPC: the wire protocol between a federation
//! coordinator and a remote verifier shard.
//!
//! The in-process [`Federation`](crate::Federation) drives each shard
//! by calling straight into its scheduler. This module puts a **wire
//! boundary** in that path: the coordinator speaks a compact binary
//! protocol (see [`cia_wire`]) over any splittable
//! [`ShardTransport`] — an in-memory duplex channel or a real TCP
//! socket — and the shard runs a small event loop that turns incoming
//! poll commands into scheduler work and streams result rows back.
//!
//! ## Protocol
//!
//! One round is one conversation, driver → server:
//!
//! ```text
//! driver                              server
//!   │  Start                            │
//!   │  Poll [(id, lane); ≤ batch]  ───▶ │  (workers pull as it lands)
//!   │  Poll …                      ───▶ │
//!   │  ◀───  Results [row; ≤ batch]     │  (streams as rows finish)
//!   │  Poll …                      ───▶ │
//!   │  End                         ───▶ │
//!   │  ◀───  Results …                  │
//!   │  ◀───  Done {health, epoch}       │
//! ```
//!
//! Two levers make the boundary cheap:
//!
//! - **Batching** ([`VerifierConfig::wire_batch`]): commands and result
//!   rows are coalesced into frames of up to `wire_batch` messages, so
//!   framing + CRC + syscall cost is amortised across a batch instead
//!   of paid per agent.
//! - **Windowing** ([`drive_round`]'s `window`): the driver keeps up
//!   to `window` command batches unacknowledged in flight, so the
//!   shard's workers never run dry while the next commands cross the
//!   wire.
//!
//! The server hands the decoded command stream to
//! [`FleetScheduler::run_round_streamed`] — the one round engine every
//! in-process round runs on too — as its command iterator, which the
//! engine's workers pull from one command at a time, so the first agents
//! are fetching while later `Poll` frames are still in flight and a
//! wire round's [`RoundReport`] is **bit-identical** to the in-process
//! report for the same commands and seed. Deadlock freedom comes from
//! the server's reader draining commands eagerly into an unbounded
//! channel (the *driver* bounds in-flight work), so neither side ever
//! blocks on a peer that is blocked on it.
//!
//! [`VerifierConfig::wire_batch`]: crate::VerifierConfig::wire_batch
//! [`FleetScheduler::run_round_streamed`]: FleetScheduler

use cia_wire::{FrameReceiver, FrameSender, Reader, ShardTransport, Wire, WireError, Writer};

use crate::agent::{Agent, QuoteResponse};
use crate::backend::BackendKind;
use crate::ids::AgentId;
use crate::scheduler::{AgentRoundResult, FleetScheduler, RoundOutcome, RoundReport};
use crate::store::PolicyEpoch;
use crate::transport::Transport;
use crate::verifier::{Alert, FailureKind, HealthCounts, Verifier};

/// Result rows (and poll commands) per frame when
/// [`VerifierConfig::wire_batch`](crate::VerifierConfig::wire_batch)
/// is `0`.
pub const DEFAULT_WIRE_BATCH: usize = 64;

/// Command batches a driver keeps in flight per shard when no explicit
/// window is configured.
pub const DEFAULT_WIRE_WINDOW: usize = 4;

/// Normalises the configured batch size: `0` means the default.
pub(crate) fn effective_batch(wire_batch: usize) -> usize {
    if wire_batch == 0 {
        DEFAULT_WIRE_BATCH
    } else {
        wire_batch
    }
}

// ---------------------------------------------------------------------------
// Wire impls for the message vocabulary.

impl Wire for AgentId {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self.as_str());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AgentId::new(r.str()?))
    }
}

impl Wire for BackendKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            BackendKind::TpmIma => 0,
            BackendKind::SecureWorld => 1,
            BackendKind::ConfidentialVm => 2,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(BackendKind::TpmIma),
            1 => Ok(BackendKind::SecureWorld),
            2 => Ok(BackendKind::ConfidentialVm),
            tag => Err(WireError::BadTag {
                what: "backend kind",
                tag: u64::from(tag),
            }),
        }
    }
}

impl Wire for PolicyEpoch {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.as_u64());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PolicyEpoch::from_raw(r.varint()?))
    }
}

impl Wire for FailureKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            FailureKind::QuoteInvalid => w.put_u8(0),
            FailureKind::PcrMismatch => w.put_u8(1),
            FailureKind::LogRewound => w.put_u8(2),
            FailureKind::BootAggregateMismatch => w.put_u8(3),
            // Tag 4 (an unparseable text excerpt) is retired.
            FailureKind::HashMismatch { path, digest } => {
                w.put_u8(5);
                w.put_str(path);
                w.put_str(digest);
            }
            FailureKind::NotInPolicy { path, digest } => {
                w.put_u8(6);
                w.put_str(path);
                w.put_str(digest);
            }
            FailureKind::BackendNotAllowed { backend } => {
                w.put_u8(7);
                backend.encode(w);
            }
            FailureKind::BackendMismatch { expected, reported } => {
                w.put_u8(8);
                expected.encode(w);
                reported.encode(w);
            }
            FailureKind::LaunchMeasurementMismatch => w.put_u8(9),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => FailureKind::QuoteInvalid,
            1 => FailureKind::PcrMismatch,
            2 => FailureKind::LogRewound,
            3 => FailureKind::BootAggregateMismatch,
            5 => FailureKind::HashMismatch {
                path: r.str()?.to_string(),
                digest: r.str()?.to_string(),
            },
            6 => FailureKind::NotInPolicy {
                path: r.str()?.to_string(),
                digest: r.str()?.to_string(),
            },
            7 => FailureKind::BackendNotAllowed {
                backend: BackendKind::decode(r)?,
            },
            8 => FailureKind::BackendMismatch {
                expected: BackendKind::decode(r)?,
                reported: BackendKind::decode(r)?,
            },
            9 => FailureKind::LaunchMeasurementMismatch,
            tag => {
                return Err(WireError::BadTag {
                    what: "failure kind",
                    tag: u64::from(tag),
                })
            }
        })
    }
}

impl Wire for Alert {
    fn encode(&self, w: &mut Writer) {
        self.agent.encode(w);
        w.put_u32(self.day);
        self.kind.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Alert {
            agent: AgentId::decode(r)?,
            day: r.u32()?,
            kind: FailureKind::decode(r)?,
        })
    }
}

impl Wire for RoundOutcome {
    fn encode(&self, w: &mut Writer) {
        match self {
            RoundOutcome::Verified { new_entries } => {
                w.put_u8(0);
                w.put_varint(*new_entries as u64);
            }
            RoundOutcome::Failed { alerts } => {
                w.put_u8(1);
                alerts.encode(w);
            }
            RoundOutcome::SkippedPaused => w.put_u8(2),
            RoundOutcome::SkippedQuarantined { next_probe_in } => {
                w.put_u8(3);
                w.put_u32(*next_probe_in);
            }
            RoundOutcome::Unreachable { reason } => {
                w.put_u8(4);
                w.put_str(reason);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => RoundOutcome::Verified {
                new_entries: usize::decode(r)?,
            },
            1 => RoundOutcome::Failed {
                alerts: Vec::<Alert>::decode(r)?,
            },
            2 => RoundOutcome::SkippedPaused,
            3 => RoundOutcome::SkippedQuarantined {
                next_probe_in: r.u32()?,
            },
            4 => RoundOutcome::Unreachable {
                reason: r.str()?.to_string(),
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "round outcome",
                    tag: u64::from(tag),
                })
            }
        })
    }
}

impl Wire for AgentRoundResult {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        self.backend.encode(w);
        w.put_u32(self.day);
        w.put_u32(self.attempts);
        w.put_varint(self.backoff_ms);
        self.policy_epoch.encode(w);
        w.put_bool(self.shared_policy);
        self.outcome.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AgentRoundResult {
            id: AgentId::decode(r)?,
            backend: BackendKind::decode(r)?,
            day: r.u32()?,
            attempts: r.u32()?,
            backoff_ms: r.varint()?,
            policy_epoch: PolicyEpoch::decode(r)?,
            shared_policy: r.bool()?,
            outcome: RoundOutcome::decode(r)?,
        })
    }
}

impl Wire for HealthCounts {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.healthy as u64);
        w.put_varint(self.degraded as u64);
        w.put_varint(self.quarantined as u64);
        w.put_varint(self.recovering as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HealthCounts {
            healthy: usize::decode(r)?,
            degraded: usize::decode(r)?,
            quarantined: usize::decode(r)?,
            recovering: usize::decode(r)?,
        })
    }
}

impl Wire for QuoteResponse {
    fn encode(&self, w: &mut Writer) {
        self.backend.encode(w);
        self.quote.encode(w);
        self.entries.encode(w);
        w.put_varint(self.total_entries as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let backend = BackendKind::decode(r)?;
        let quote = cia_tpm::quote::Quote::decode(r)?;
        let entries = Vec::<cia_ima::log::ImaLogEntry>::decode(r)?;
        let total_entries = usize::decode(r)?;
        // `new` re-syncs the boot counter from the signed quote, so the
        // unsigned wire image cannot smuggle a divergent one.
        Ok(QuoteResponse::new(backend, quote, entries, total_entries))
    }
}

// ---------------------------------------------------------------------------
// Protocol messages.

/// Driver → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ShardCommand {
    /// Opens the round.
    Start,
    /// A batch of agents to poll, each with its fleet-wide lane.
    Poll(Vec<(AgentId, u64)>),
    /// No more commands; finish and report.
    End,
}

impl Wire for ShardCommand {
    fn encode(&self, w: &mut Writer) {
        match self {
            ShardCommand::Start => w.put_u8(0),
            ShardCommand::Poll(batch) => {
                w.put_u8(1);
                batch.encode(w);
            }
            ShardCommand::End => w.put_u8(2),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => ShardCommand::Start,
            1 => ShardCommand::Poll(Vec::<(AgentId, u64)>::decode(r)?),
            2 => ShardCommand::End,
            tag => {
                return Err(WireError::BadTag {
                    what: "shard command",
                    tag: u64::from(tag),
                })
            }
        })
    }
}

/// Server → driver message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ShardReply {
    /// A batch of finished result rows, streamed in completion order.
    Results(Vec<AgentRoundResult>),
    /// The round is complete: post-round health and the active epoch.
    Done {
        /// Health counts over every record the shard holds.
        health: HealthCounts,
        /// The shared-store epoch the round ran under.
        epoch: PolicyEpoch,
    },
}

impl Wire for ShardReply {
    fn encode(&self, w: &mut Writer) {
        match self {
            ShardReply::Results(rows) => {
                w.put_u8(0);
                rows.encode(w);
            }
            ShardReply::Done { health, epoch } => {
                w.put_u8(1);
                health.encode(w);
                epoch.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => ShardReply::Results(Vec::<AgentRoundResult>::decode(r)?),
            1 => ShardReply::Done {
                health: HealthCounts::decode(r)?,
                epoch: PolicyEpoch::decode(r)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "shard reply",
                    tag: u64::from(tag),
                })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Server.

/// Runs one shard round as the server side of the wire protocol.
///
/// Splits `conn`, then puts the two halves of the wire around the
/// round engine until the driver sends `End`:
///
/// - a reader thread decodes incoming [`ShardCommand`] frames and
///   forwards poll batches — eagerly, into an unbounded queue, so the
///   socket is always drained and the driver can never deadlock
///   against a full send buffer;
/// - a writer thread coalesces finished result rows into
///   [`ShardReply::Results`] frames of up to
///   [`VerifierConfig::wire_batch`](crate::VerifierConfig::wire_batch)
///   rows.
///
/// Between them the calling thread runs
/// [`FleetScheduler::run_round_streamed`] exactly as an in-process
/// round would: its command iterator reads the reader's queue, so the
/// engine's workers pull each command as it arrives, and its observer
/// hands each finished row — the row is all the observer gets — to
/// the writer.
///
/// After the round completes the server sends
/// [`ShardReply::Done`] and returns the same [`RoundReport`] an
/// in-process round over the same commands would have produced.
///
/// # Errors
///
/// Any [`WireError`] from the connection: corrupt frames, an
/// unexpected message, or the driver disappearing mid-round. The
/// scheduler work that already completed is still reflected in the
/// shard's scheduler totals.
pub fn serve_round<'e, T, C>(
    scheduler: &FleetScheduler,
    verifier: &mut Verifier,
    agents: impl Iterator<Item = &'e mut Agent>,
    agent_transport: &T,
    conn: C,
) -> Result<RoundReport, WireError>
where
    T: Transport + Sync,
    C: ShardTransport,
{
    let wire_batch = effective_batch(verifier.config().wire_batch);
    let (tx, mut rx) = conn.split();
    let (cmd_tx, cmd_rx) = crossbeam::channel::unbounded::<Vec<(AgentId, u64)>>();
    let (row_tx, row_rx) = crossbeam::channel::unbounded::<AgentRoundResult>();

    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> Result<(), WireError> {
            loop {
                let payload = rx.recv_frame()?;
                match ShardCommand::from_wire(&payload)? {
                    ShardCommand::Start => {}
                    ShardCommand::Poll(batch) => {
                        if cmd_tx.send(batch).is_err() {
                            // The round ended underneath us; treat the
                            // stray command as a peer protocol fault.
                            return Err(WireError::Protocol {
                                reason: "poll after round completion".to_string(),
                            });
                        }
                    }
                    ShardCommand::End => return Ok(()),
                }
            }
        });
        let writer = scope.spawn(move || -> Result<C::Tx, WireError> {
            let mut tx = tx;
            let mut batch: Vec<AgentRoundResult> = Vec::with_capacity(wire_batch);
            while let Ok(first) = row_rx.recv() {
                batch.push(first);
                // Greedily coalesce whatever else is already finished,
                // up to the frame budget — batching without waiting.
                while batch.len() < wire_batch {
                    match row_rx.try_recv() {
                        Ok(row) => batch.push(row),
                        Err(_) => break,
                    }
                }
                let frame = ShardReply::Results(std::mem::take(&mut batch)).to_wire();
                tx.send_frame(&frame)?;
            }
            Ok(tx)
        });

        let report = scheduler.run_round_streamed(
            verifier,
            agents,
            agent_transport,
            std::iter::from_fn(move || cmd_rx.recv().ok()).flatten(),
            |result: &AgentRoundResult| {
                let _ = row_tx.send(result.clone());
            },
        );
        // Disconnect the row stream so the writer drains and hands the
        // sender back for the Done frame.
        drop(row_tx);
        let mut tx = match writer.join() {
            Ok(tx) => tx?,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        tx.send_frame(
            &ShardReply::Done {
                health: report.health,
                epoch: report.policy_epoch,
            }
            .to_wire(),
        )?;
        match reader.join() {
            Ok(res) => res?,
            Err(payload) => std::panic::resume_unwind(payload),
        }
        Ok(report)
    })
}

// ---------------------------------------------------------------------------
// Driver.

/// Everything the coordinator learns from one shard's wire round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrivenRound {
    /// One row per command sent, in wire arrival order (unsorted).
    pub rows: Vec<AgentRoundResult>,
    /// The shard's post-round health counts.
    pub health: HealthCounts,
    /// The shared-store epoch the shard ran under.
    pub epoch: PolicyEpoch,
}

/// Drives one shard round as the client side of the wire protocol.
///
/// Sends `Start`, then the `(agent, lane)` commands chunked into
/// [`ShardCommand::Poll`] frames of `wire_batch` (`0` means
/// [`DEFAULT_WIRE_BATCH`]), keeping at most `window` batches
/// unacknowledged in flight — the pipelining lever: the shard always
/// has the next commands queued while it works, without the driver
/// buffering the whole fleet. `End` closes the stream; the call
/// returns when [`ShardReply::Done`] arrives.
///
/// # Errors
///
/// Any [`WireError`] from the connection, or
/// [`WireError::Protocol`] when the shard's replies do not add up to
/// exactly one row per command.
pub fn drive_round<C: ShardTransport>(
    conn: C,
    commands: &[(AgentId, u64)],
    wire_batch: usize,
    window: usize,
) -> Result<DrivenRound, WireError> {
    let wire_batch = effective_batch(wire_batch);
    let window = window.max(1);
    let (mut tx, mut rx) = conn.split();

    tx.send_frame(&ShardCommand::Start.to_wire())?;
    let mut rows: Vec<AgentRoundResult> = Vec::with_capacity(commands.len());
    let mut sent = 0usize;
    for chunk in commands.chunks(wire_batch) {
        // In-flight bound: wait for result rows once `window` batches
        // of commands are outstanding.
        while sent - rows.len() >= window * wire_batch {
            recv_results(&mut rx, &mut rows)?;
        }
        tx.send_frame(&ShardCommand::Poll(chunk.to_vec()).to_wire())?;
        sent += chunk.len();
    }
    tx.send_frame(&ShardCommand::End.to_wire())?;

    loop {
        match ShardReply::from_wire(&rx.recv_frame()?)? {
            ShardReply::Results(batch) => rows.extend(batch),
            ShardReply::Done { health, epoch } => {
                if rows.len() != commands.len() {
                    return Err(WireError::Protocol {
                        reason: format!(
                            "shard reported {} rows for {} commands",
                            rows.len(),
                            commands.len()
                        ),
                    });
                }
                return Ok(DrivenRound {
                    rows,
                    health,
                    epoch,
                });
            }
        }
    }
}

/// Receives one reply frame that must carry result rows (the in-flight
/// window is only drained before `End`, when `Done` would be a
/// protocol violation).
fn recv_results<R: FrameReceiver>(
    rx: &mut R,
    rows: &mut Vec<AgentRoundResult>,
) -> Result<(), WireError> {
    match ShardReply::from_wire(&rx.recv_frame()?)? {
        ShardReply::Results(batch) => {
            rows.extend(batch);
            Ok(())
        }
        ShardReply::Done { .. } => Err(WireError::Protocol {
            reason: "done before end of commands".to_string(),
        }),
    }
}

/// Unwraps a wire-round result the federation cannot recover from.
///
/// The in-process federation runs both protocol ends over loopback
/// transports it constructed itself, so a wire failure there is a bug,
/// not an operational condition — it must stop the round loudly rather
/// than fabricate result rows for a shard that never answered.
pub(crate) fn require<V>(res: Result<V, WireError>, what: &str) -> V {
    match res {
        Ok(v) => v,
        // lint:allow(panic-path): unrecoverable by design — see the doc
        // comment; every fallible wire call outside the federation
        // surfaces WireError instead of unwrapping.
        Err(err) => panic!("{what}: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row(id: &str, outcome: RoundOutcome) -> AgentRoundResult {
        AgentRoundResult {
            id: AgentId::from(id),
            backend: BackendKind::SecureWorld,
            day: 7,
            attempts: 2,
            backoff_ms: 30,
            policy_epoch: PolicyEpoch::ZERO.next(),
            shared_policy: true,
            outcome,
        }
    }

    #[test]
    fn agent_round_result_roundtrips_every_outcome() {
        let outcomes = vec![
            RoundOutcome::Verified { new_entries: 12 },
            RoundOutcome::Failed {
                alerts: vec![Alert {
                    agent: AgentId::from("a-1"),
                    day: 3,
                    kind: FailureKind::HashMismatch {
                        path: "/usr/bin/nc".to_string(),
                        digest: "deadbeef".to_string(),
                    },
                }],
            },
            RoundOutcome::SkippedPaused,
            RoundOutcome::SkippedQuarantined { next_probe_in: 4 },
            RoundOutcome::Unreachable {
                reason: "request dropped".to_string(),
            },
        ];
        for outcome in outcomes {
            let row = sample_row("agent-0001", outcome);
            assert_eq!(AgentRoundResult::from_wire(&row.to_wire()).unwrap(), row);
        }
    }

    #[test]
    fn failure_kinds_roundtrip() {
        let kinds = vec![
            FailureKind::QuoteInvalid,
            FailureKind::PcrMismatch,
            FailureKind::LogRewound,
            FailureKind::BootAggregateMismatch,
            FailureKind::NotInPolicy {
                path: "/tmp/x".to_string(),
                digest: "00".to_string(),
            },
            FailureKind::BackendNotAllowed {
                backend: BackendKind::ConfidentialVm,
            },
            FailureKind::BackendMismatch {
                expected: BackendKind::TpmIma,
                reported: BackendKind::SecureWorld,
            },
            FailureKind::LaunchMeasurementMismatch,
        ];
        for kind in kinds {
            assert_eq!(FailureKind::from_wire(&kind.to_wire()).unwrap(), kind);
        }
    }

    #[test]
    fn shard_messages_roundtrip() {
        let cmds = vec![
            ShardCommand::Start,
            ShardCommand::Poll(vec![(AgentId::from("a"), 0), (AgentId::from("b"), 17)]),
            ShardCommand::End,
        ];
        for cmd in cmds {
            assert_eq!(ShardCommand::from_wire(&cmd.to_wire()).unwrap(), cmd);
        }
        let replies = vec![
            ShardReply::Results(vec![sample_row(
                "c",
                RoundOutcome::Verified { new_entries: 0 },
            )]),
            ShardReply::Done {
                health: HealthCounts {
                    healthy: 3,
                    degraded: 1,
                    quarantined: 0,
                    recovering: 2,
                },
                epoch: PolicyEpoch::ZERO.next().next(),
            },
        ];
        for reply in replies {
            assert_eq!(ShardReply::from_wire(&reply.to_wire()).unwrap(), reply);
        }
    }

    #[test]
    fn truncated_messages_error_never_panic() {
        let bytes = ShardReply::Results(vec![sample_row(
            "agent-x",
            RoundOutcome::Failed {
                alerts: vec![Alert {
                    agent: AgentId::from("agent-x"),
                    day: 1,
                    kind: FailureKind::PcrMismatch,
                }],
            },
        )])
        .to_wire();
        for cut in 0..bytes.len() {
            assert!(ShardReply::from_wire(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut w = Writer::new();
        w.put_u8(9);
        assert!(matches!(
            ShardCommand::from_wire(w.as_slice()),
            Err(WireError::BadTag {
                what: "shard command",
                ..
            })
        ));
        let mut w = Writer::new();
        w.put_u8(3);
        assert!(ShardReply::from_wire(w.as_slice()).is_err());
    }

    #[test]
    fn effective_batch_normalises_zero() {
        assert_eq!(effective_batch(0), DEFAULT_WIRE_BATCH);
        assert_eq!(effective_batch(7), 7);
    }
}
