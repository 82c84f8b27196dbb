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
//! - **Batching** ([`DEFAULT_WIRE_BATCH`]): commands and result rows
//!   travel in frames of up to 64 messages, so framing + CRC + syscall
//!   cost is amortised across a batch instead of paid per agent. On the
//!   server, finished rows wait in a pending batch, and its writer
//!   thread is woken once per batch rather than once per row: when 64
//!   rows are pending, when a worker is about to block on the command
//!   stream, and after each row while a worker is blocked there (see
//!   [`serve_round`]).
//! - **Windowing** ([`DEFAULT_WIRE_WINDOW`]): the driver keeps up to
//!   4 command batches unacknowledged in flight, so the shard's workers
//!   never run dry while the next commands cross the wire.
//!
//! Both are constants; [`drive_round`] still takes a command batch and
//! a window (`0` meaning the default batch), which only tests and
//! probes vary.
//!
//! The server hands the decoded command stream to
//! [`FleetScheduler::run_round_streamed`] — the one round engine every
//! in-process round runs on too — as its command iterator, which the
//! engine's workers pull from one command at a time, so the first agents
//! are fetching while later `Poll` frames are still in flight and a
//! wire round's [`RoundReport`] is **bit-identical** to the in-process
//! report for the same commands and seed. Deadlock freedom comes from
//! the server's reader draining commands eagerly into an unbounded
//! channel (the *driver* bounds in-flight work), and from the writer's
//! flush rule, which sends every finished row before the server waits
//! for a command, so neither side ever blocks on a peer that is blocked
//! on it.
//!
//! [`FleetScheduler::run_round_streamed`]: FleetScheduler

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

use parking_lot::Mutex;

use cia_wire::{FrameReceiver, FrameSender, Reader, ShardTransport, Wire, WireError, Writer};

use crate::agent::{Agent, QuoteResponse};
use crate::backend::BackendKind;
use crate::ids::AgentId;
use crate::scheduler::{AgentRoundResult, FleetScheduler, RoundOutcome, RoundReport};
use crate::store::PolicyEpoch;
use crate::transport::Transport;
use crate::verifier::{Alert, FailureKind, HealthCounts, Verifier};

/// Result rows per frame a shard server sends, and poll commands per
/// frame a federation's driver sends.
pub const DEFAULT_WIRE_BATCH: usize = 64;

/// Command batches a federation's driver keeps in flight per shard.
pub const DEFAULT_WIRE_WINDOW: usize = 4;

/// Normalises [`drive_round`]'s batch size: `0` means the default.
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
/// - a writer thread sends each batch of finished rows it is handed as
///   one [`ShardReply::Results`] frame of at most [`DEFAULT_WIRE_BATCH`]
///   rows.
///
/// Between them the calling thread runs
/// [`FleetScheduler::run_round_streamed`] exactly as an in-process
/// round would: its command iterator reads the reader's queue, so the
/// engine's workers pull each command as it arrives, and its observer
/// adds each finished row — the row is all the observer gets — to the
/// pending batch. The writer is woken once per batch, not once per
/// row, by the flush rule next to the code.
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
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
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
    let (tx, mut rx) = conn.split();
    let (cmd_tx, cmd_rx) = mpsc::channel::<Vec<(AgentId, u64)>>();
    let (batch_tx, batch_rx) = mpsc::channel::<Vec<AgentRoundResult>>();
    let flush_tx = batch_tx.clone();
    // Finished rows not yet handed to the writer.
    let pending = Mutex::new(Vec::<AgentRoundResult>::with_capacity(DEFAULT_WIRE_BATCH));
    // Set while a worker is blocked on the command stream.
    let waiting = AtomicBool::new(false);
    let (pending, waiting) = (&pending, &waiting);

    // The flush rule. The pending batch goes to the writer when it holds
    // `DEFAULT_WIRE_BATCH` rows, when a worker is about to block on the
    // command stream, and after every row while a worker is blocked
    // there. It is live for every batch, window and worker count, with
    // no timer. The driver withholds commands only until rows come back,
    // and the server waits on the driver only while a worker is blocked
    // in the command iterator. That worker first sets `waiting`, then
    // asks the writer (with an empty batch) to take the pending rows: it
    // runs under the engine's queue lock, so it must not take `pending`
    // itself. A row pushed before the writer takes the batch leaves with
    // it. A row pushed after sees `waiting`, because the flag was set
    // before the request was sent, and leaves at once. So no finished
    // row stays pending while a worker is blocked, and every command the
    // driver still counts is queued or being attested. Rows collect in
    // one batch, not one per worker, because a worker holding rows of
    // its own could wait behind the queue lock for a command that the
    // driver sends only once those rows are back. The batch-1 / window-1
    // driver, which holds back command 2 until row 1 is back, is that
    // case.
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> Result<(), WireError> {
            loop {
                match rx.recv::<ShardCommand>()? {
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
            let mut send = |rows: Vec<AgentRoundResult>| {
                if rows.is_empty() {
                    return Ok(());
                }
                tx.send_frame(&ShardReply::Results(rows).to_wire())
            };
            for batch in batch_rx {
                if batch.is_empty() {
                    // A worker is about to block: hand over what is pending.
                    send(std::mem::take(&mut *pending.lock()))?;
                } else {
                    send(batch)?;
                }
            }
            // The engine has returned, so no row can join the last batch.
            send(std::mem::take(&mut *pending.lock()))?;
            Ok(tx)
        });

        let commands = std::iter::from_fn(move || match cmd_rx.try_recv() {
            Ok(batch) => Some(batch),
            Err(mpsc::TryRecvError::Disconnected) => None,
            Err(mpsc::TryRecvError::Empty) => {
                waiting.store(true, Ordering::SeqCst);
                let _ = flush_tx.send(Vec::new());
                let batch = cmd_rx.recv().ok();
                waiting.store(false, Ordering::SeqCst);
                batch
            }
        });
        let report = scheduler.run_round_streamed(
            verifier,
            agents,
            agent_transport,
            commands.flatten(),
            move |result: &AgentRoundResult| {
                let full = {
                    let mut rows = pending.lock();
                    rows.push(result.clone());
                    (rows.len() >= DEFAULT_WIRE_BATCH || waiting.load(Ordering::SeqCst)).then(
                        || std::mem::replace(&mut *rows, Vec::with_capacity(DEFAULT_WIRE_BATCH)),
                    )
                };
                if let Some(rows) = full {
                    let _ = batch_tx.send(rows);
                }
            },
        );
        // The engine dropped both senders, so the writer sends the last
        // batch and hands the sender back for the Done frame.
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
/// [`WireError::Protocol`] when the shard's replies are not exactly one
/// row per command sent — as soon as a row names an agent that was never
/// sent or was already answered, or when `Done` leaves a command
/// unanswered.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
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
    // The ids sent and not yet answered.
    let mut pending: BTreeSet<&AgentId> = BTreeSet::new();
    for chunk in commands.chunks(wire_batch) {
        // In-flight bound: wait for result rows once `window` batches
        // of commands are outstanding.
        while pending.len() >= window.saturating_mul(wire_batch) {
            recv_results(&mut rx, &mut rows, &mut pending)?;
        }
        tx.send_frame(&ShardCommand::Poll(chunk.to_vec()).to_wire())?;
        pending.extend(chunk.iter().map(|(id, _)| id));
    }
    tx.send_frame(&ShardCommand::End.to_wire())?;

    loop {
        match rx.recv::<ShardReply>()? {
            ShardReply::Results(batch) => extend_rows(&mut rows, batch, &mut pending)?,
            ShardReply::Done { health, epoch } => {
                if !pending.is_empty() {
                    return Err(WireError::Protocol {
                        reason: format!(
                            "shard finished with {} of {} commands unanswered",
                            pending.len(),
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
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn recv_results<R: FrameReceiver>(
    rx: &mut R,
    rows: &mut Vec<AgentRoundResult>,
    pending: &mut BTreeSet<&AgentId>,
) -> Result<(), WireError> {
    match rx.recv::<ShardReply>()? {
        ShardReply::Results(batch) => extend_rows(rows, batch, pending),
        ShardReply::Done { .. } => Err(WireError::Protocol {
            reason: "done before end of commands".to_string(),
        }),
    }
}

/// Appends a batch of result rows, each of which must answer one
/// `pending` command — a row for an agent that was never sent, or was
/// already answered, is a protocol error, not a window to wait out.
fn extend_rows(
    rows: &mut Vec<AgentRoundResult>,
    batch: Vec<AgentRoundResult>,
    pending: &mut BTreeSet<&AgentId>,
) -> Result<(), WireError> {
    for row in batch {
        if !pending.remove(&row.id) {
            return Err(WireError::Protocol {
                reason: format!("shard answered `{}`, which has no pending command", row.id),
            });
        }
        rows.push(row);
    }
    Ok(())
}

/// Unwraps a wire-round result the federation cannot recover from.
///
/// The in-process federation runs both protocol ends over loopback
/// transports it constructed itself, so a wire failure there is a bug,
/// not an operational condition — it must stop the round loudly rather
/// than fabricate result rows for a shard that never answered.
#[expect(
    clippy::panic,
    reason = "unrecoverable by design, see the doc comment; every fallible wire call \
              outside the federation surfaces WireError instead"
)]
pub(crate) fn require<V>(res: Result<V, WireError>, what: &str) -> V {
    match res {
        Ok(v) => v,
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

    /// The evidence every agent sends: a non-TPM backend, several
    /// entries, and a total that differs from the excerpt's length.
    #[test]
    fn quote_response_roundtrips_and_truncations_error() {
        use cia_crypto::{HashAlgorithm, KeyPair, Sha256};
        use cia_ima::ImaLogEntry;
        use cia_tpm::{PcrSelection, Quote};

        let values = vec![Sha256::digest(b"pcr-0"), Sha256::digest(b"pcr-10")];
        let quote = Quote {
            nonce: b"fresh-nonce".to_vec(),
            selection: PcrSelection::of(&[0, 10]),
            bank: HashAlgorithm::Sha256,
            pcr_digest: Quote::digest_pcrs(&values),
            pcr_values: values,
            boot_count: 3,
            clock: 41,
            signature: KeyPair::from_material([7u8; 32]).signing.sign(b"quote"),
        };
        let entries = vec![
            ImaLogEntry::new(Sha256::digest(b"sshd"), "/usr/bin/sshd"),
            ImaLogEntry::new_in_pcr(12, Sha256::digest(b"nc"), "/usr/bin/nc"),
        ];
        let q = QuoteResponse::new(BackendKind::ConfidentialVm, quote, entries, 9);
        let bytes = q.to_wire();
        assert_eq!(QuoteResponse::from_wire(&bytes).unwrap(), q);
        for cut in 0..bytes.len() {
            assert!(QuoteResponse::from_wire(&bytes[..cut]).is_err());
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

        // Hostile frames at either receiver: an empty payload, a lone
        // tag whose body is missing, and an unknown tag each arrive as a
        // typed error for both message kinds.
        fn hostile_frames<C: ShardTransport>(a: C, b: C) {
            let (mut tx, _a_rx) = a.split();
            let (_b_tx, mut rx) = b.split();
            for payload in [&[][..], &[1], &[9]] {
                tx.send_frame(payload).unwrap();
                assert!(rx.recv::<ShardCommand>().is_err(), "{payload:?}");
                tx.send_frame(payload).unwrap();
                assert!(rx.recv::<ShardReply>().is_err(), "{payload:?}");
            }
            assert_eq!(rx.frames_received(), 6);
        }
        let (a, b) = cia_wire::DuplexShardTransport::pair();
        hostile_frames(a, b);
        let (a, b) = cia_wire::TcpShardTransport::loopback_pair().unwrap();
        hostile_frames(a, b);
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

    /// A hostile shard answers the first one-command `Poll` with three
    /// rows and then keeps the connection open: the driver must reject
    /// the round at once instead of underflowing its in-flight count.
    #[test]
    fn a_shard_that_over_delivers_rows_is_a_protocol_error() {
        let (driver_conn, shard_conn) = cia_wire::DuplexShardTransport::pair();
        let shard = std::thread::spawn(move || {
            let (mut tx, mut rx) = shard_conn.split();
            assert_eq!(rx.recv::<ShardCommand>().unwrap(), ShardCommand::Start);
            assert!(matches!(
                rx.recv::<ShardCommand>().unwrap(),
                ShardCommand::Poll(_)
            ));
            let rows = ["a", "b", "c"]
                .map(|id| sample_row(id, RoundOutcome::Verified { new_entries: 0 }))
                .to_vec();
            tx.send_frame(&ShardReply::Results(rows).to_wire()).unwrap();
            // Hold the connection open until the driver hangs up.
            while rx.recv::<ShardCommand>().is_ok() {}
        });
        let commands: Vec<(AgentId, u64)> = (0..4u64)
            .map(|lane| (AgentId::numbered("agent", lane), lane))
            .collect();
        let err = drive_round(driver_conn, &commands, 1, 1).unwrap_err();
        assert!(matches!(err, WireError::Protocol { .. }), "{err:?}");
        shard.join().unwrap();
    }

    /// A hostile shard answers `Poll[a, b]` with rows for `a, a` or
    /// `a, z` and then reports the round done: the row counts add up,
    /// but the driver must refuse the round instead of losing `b`.
    #[test]
    fn a_shard_that_answers_the_wrong_agent_is_a_protocol_error() {
        for answered in [["a", "a"], ["a", "z"]] {
            let (driver_conn, shard_conn) = cia_wire::DuplexShardTransport::pair();
            let shard = std::thread::spawn(move || {
                let (mut tx, mut rx) = shard_conn.split();
                assert_eq!(rx.recv::<ShardCommand>().unwrap(), ShardCommand::Start);
                assert!(matches!(
                    rx.recv::<ShardCommand>().unwrap(),
                    ShardCommand::Poll(_)
                ));
                let rows = answered
                    .map(|id| sample_row(id, RoundOutcome::Verified { new_entries: 0 }))
                    .to_vec();
                tx.send_frame(&ShardReply::Results(rows).to_wire()).unwrap();
                let done = ShardReply::Done {
                    health: HealthCounts::default(),
                    epoch: PolicyEpoch::ZERO,
                };
                // The driver may already have hung up on the bad row.
                let _ = tx.send_frame(&done.to_wire());
                // Hold the connection open until the driver hangs up.
                while rx.recv::<ShardCommand>().is_ok() {}
            });
            let commands = vec![(AgentId::from("a"), 0), (AgentId::from("b"), 1)];
            let err = drive_round(driver_conn, &commands, 2, 1).unwrap_err();
            assert!(
                matches!(err, WireError::Protocol { .. }),
                "{answered:?}: {err:?}"
            );
            shard.join().unwrap();
        }
    }

    #[test]
    fn effective_batch_normalises_zero() {
        assert_eq!(effective_batch(0), DEFAULT_WIRE_BATCH);
        assert_eq!(effective_batch(7), 7);
    }

    /// The in-flight bound `window × batch` saturates: the largest batch
    /// and window send every command in one `Poll` frame instead of
    /// overflowing before the first frame leaves.
    #[test]
    fn a_maximal_batch_and_window_saturate_the_in_flight_bound() {
        let (driver_conn, shard_conn) = cia_wire::DuplexShardTransport::pair();
        let shard = std::thread::spawn(move || {
            let (mut tx, mut rx) = shard_conn.split();
            let mut polls = Vec::new();
            loop {
                match rx.recv::<ShardCommand>().unwrap() {
                    ShardCommand::Start => {}
                    ShardCommand::Poll(batch) => polls.push(batch),
                    ShardCommand::End => break,
                }
            }
            let rows = polls
                .concat()
                .iter()
                .map(|(id, _)| sample_row(id.as_str(), RoundOutcome::Verified { new_entries: 0 }))
                .collect();
            tx.send_frame(&ShardReply::Results(rows).to_wire()).unwrap();
            let done = ShardReply::Done {
                health: HealthCounts::default(),
                epoch: PolicyEpoch::ZERO,
            };
            tx.send_frame(&done.to_wire()).unwrap();
            polls.len()
        });
        let commands: Vec<(AgentId, u64)> = (0..3u64)
            .map(|lane| (AgentId::numbered("agent", lane), lane))
            .collect();
        let driven = drive_round(driver_conn, &commands, usize::MAX, usize::MAX).unwrap();
        assert_eq!(driven.rows.len(), commands.len());
        assert_eq!(shard.join().unwrap(), 1, "every command in one frame");
    }
}
