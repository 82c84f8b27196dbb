//! Cross-process shard RPC: the wire protocol between a federation
//! coordinator and a remote verifier shard.
//!
//! The in-process [`Federation`](crate::Federation) drives each shard
//! by calling straight into its scheduler. This module puts a **wire
//! boundary** in that path: the coordinator speaks a compact binary
//! protocol (see [`cia_wire`]) over any splittable
//! [`ShardTransport`] — an in-memory duplex channel or a real TCP
//! socket — and the shard runs a small event loop that turns each
//! incoming frame of poll commands into scheduler work and answers it
//! with one frame of result rows.
//!
//! ## Protocol
//!
//! One round is one conversation, driver → server. Every `Poll` frame
//! is answered by exactly one `Results` frame, sent once all of that
//! frame's commands are attested:
//!
//! ```text
//! driver                              server
//!   │  Start                            │
//!   │  Poll [(id, lane); ≤ batch]  ───▶ │  (queued as it lands)
//!   │  Poll …                      ───▶ │
//!   │  ◀───  Results [rows of Poll 1]   │  (one per Poll, in order)
//!   │  Poll …                      ───▶ │
//!   │  End                         ───▶ │
//!   │  ◀───  Results …                  │
//!   │  ◀───  Done {health, epoch}       │
//! ```
//!
//! Two levers make the boundary cheap:
//!
//! - **Batching** ([`DEFAULT_WIRE_BATCH`]): commands travel in frames of
//!   up to 64, and each frame's rows come back as one frame, so framing +
//!   CRC + syscall cost is amortised across a batch instead of paid per
//!   agent.
//! - **Windowing** ([`DEFAULT_WIRE_WINDOW`]): the driver keeps up to 4
//!   `Poll` frames without their `Results` frame in flight, so the
//!   shard's workers never run dry while the next commands cross the
//!   wire.
//!
//! Both are constants; [`drive_round`] still takes a command batch and
//! a window (`0` meaning the default batch), which only tests and
//! probes vary.
//!
//! The server hands the decoded `Poll` stream to
//! [`FleetScheduler::run_round_streamed`] — the one round engine every
//! in-process round runs on too — one frame per batch, so a wire round's
//! [`RoundReport`] is **bit-identical** to the in-process report for the
//! same commands and seed. Neither side can block on a peer that is
//! blocked on it: the server's reader drains commands eagerly into an
//! unbounded channel (the *driver* bounds in-flight work), so the
//! driver's `Poll` sends always complete, and the driver waits for a
//! `Results` frame only while a `Poll` frame is unanswered, which the
//! server answers without waiting for any later command.
//!
//! [`FleetScheduler::run_round_streamed`]: FleetScheduler

use std::collections::BTreeSet;
use std::sync::mpsc;

use cia_wire::{FrameReceiver, FrameSender, ShardTransport, Wire, WireError};

use crate::agent::Agent;
use crate::ids::AgentId;
use crate::scheduler::{AgentRoundResult, FleetScheduler, RoundReport};
use crate::store::PolicyEpoch;
use crate::transport::Transport;
use crate::verifier::{HealthCounts, Verifier};

/// Poll commands per frame a federation's driver sends, and so the most
/// result rows a shard server sends back in one frame.
pub const DEFAULT_WIRE_BATCH: usize = 64;

/// `Poll` frames a federation's driver keeps in flight per shard without
/// their `Results` frame.
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
// Protocol messages.

/// Driver → server message.
#[derive(Debug, Clone, PartialEq, Eq, Wire)]
pub(crate) enum ShardCommand {
    /// Opens the round.
    Start,
    /// A batch of agents to poll, each with its fleet-wide lane.
    Poll(Vec<(AgentId, u64)>),
    /// No more commands; finish and report.
    End,
}

/// Server → driver message.
#[derive(Debug, Clone, PartialEq, Eq, Wire)]
pub(crate) enum ShardReply {
    /// The rows of one `Poll` frame's commands, in completion order:
    /// none for a command naming an un-enrolled or already claimed id.
    Results(Vec<AgentRoundResult>),
    /// The round is complete: post-round health and the active epoch.
    Done {
        /// Health counts over every record the shard holds.
        health: HealthCounts,
        /// The shared-store epoch the round ran under.
        epoch: PolicyEpoch,
    },
}

// ---------------------------------------------------------------------------
// Server.

/// Runs one shard round as the server side of the wire protocol.
///
/// Splits `conn` and spawns a reader thread that decodes incoming
/// [`ShardCommand`] frames and forwards each `Poll` batch — eagerly, into
/// an unbounded queue, so the socket is always drained and the driver can
/// never deadlock against a full send buffer. The calling thread runs
/// [`FleetScheduler::run_round_streamed`] over that queue, one `Poll`
/// frame's commands per batch, exactly as an in-process round would, and
/// sends each batch's rows back as one [`ShardReply::Results`] frame once
/// they are all attested: every `Poll` frame gets exactly one `Results`
/// frame, empty when none of its commands names an enrolled, unclaimed
/// id.
///
/// When the driver sends `End` the server sends [`ShardReply::Done`]
/// and returns the same [`RoundReport`] an in-process round over the same
/// commands would have produced.
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
    let (mut tx, mut rx) = conn.split();
    let (cmd_tx, cmd_rx) = mpsc::channel::<Vec<(AgentId, u64)>>();
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
        // After a failed send the round still runs to the end of the
        // command stream, which the reader closes when the driver hangs up.
        let mut sent = Ok(());
        let report =
            scheduler.run_round_streamed(verifier, agents, agent_transport, cmd_rx, |rows| {
                if sent.is_ok() {
                    sent = tx.send_frame(&ShardReply::Results(rows.to_vec()).to_wire());
                }
            });
        sent?;
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
/// [`DEFAULT_WIRE_BATCH`]), keeping at most `window` `Poll` frames
/// without their `Results` frame — the pipelining lever: the shard always
/// has the next commands queued while it works, without the driver
/// buffering the whole fleet. `End` closes the stream; the call
/// returns when [`ShardReply::Done`] arrives.
///
/// # Errors
///
/// Any [`WireError`] from the connection, or [`WireError::Protocol`]
/// when `commands` names an id twice (before anything is sent), or when
/// the shard's replies are not one `Results` frame per `Poll` frame and
/// exactly one row per command sent — as soon as a row names an agent
/// that was never sent or was already answered, or a `Results` frame
/// arrives with no `Poll` frame outstanding, or when `Done` leaves a
/// command or a frame unanswered.
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
    let mut named = BTreeSet::new();
    if let Some((id, _)) = commands.iter().find(|(id, _)| !named.insert(id)) {
        return Err(WireError::Protocol {
            reason: format!("the command list names `{id}` twice"),
        });
    }
    let wire_batch = effective_batch(wire_batch);
    let window = window.max(1);
    let (mut tx, mut rx) = conn.split();

    tx.send_frame(&ShardCommand::Start.to_wire())?;
    let mut rows: Vec<AgentRoundResult> = Vec::with_capacity(commands.len());
    // The ids sent and not yet answered, and the `Poll` frames sent
    // without their `Results` frame.
    let mut pending: BTreeSet<&AgentId> = BTreeSet::new();
    let mut unanswered = 0usize;
    for chunk in commands.chunks(wire_batch) {
        while unanswered >= window {
            recv_results(&mut rx, &mut rows, &mut pending, &mut unanswered)?;
        }
        tx.send_frame(&ShardCommand::Poll(chunk.to_vec()).to_wire())?;
        pending.extend(chunk.iter().map(|(id, _)| id));
        unanswered += 1;
    }
    tx.send_frame(&ShardCommand::End.to_wire())?;
    while unanswered > 0 {
        recv_results(&mut rx, &mut rows, &mut pending, &mut unanswered)?;
    }
    match rx.recv::<ShardReply>()? {
        ShardReply::Results(_) => Err(WireError::Protocol {
            reason: "shard sent a Results frame with no Poll frame outstanding".to_string(),
        }),
        ShardReply::Done { .. } if !pending.is_empty() => Err(WireError::Protocol {
            reason: format!(
                "shard finished with {} of {} commands unanswered",
                pending.len(),
                commands.len()
            ),
        }),
        ShardReply::Done { health, epoch } => Ok(DrivenRound {
            rows,
            health,
            epoch,
        }),
    }
}

/// Receives the `Results` frame of an unanswered `Poll` frame, each of
/// whose rows must answer one `pending` command — a row for an agent
/// that was never sent, or was already answered, is a protocol error, not
/// a window to wait out. `Done` while a frame is unanswered is one too.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn recv_results<R: FrameReceiver>(
    rx: &mut R,
    rows: &mut Vec<AgentRoundResult>,
    pending: &mut BTreeSet<&AgentId>,
    unanswered: &mut usize,
) -> Result<(), WireError> {
    let batch = match rx.recv::<ShardReply>()? {
        ShardReply::Results(batch) => batch,
        ShardReply::Done { .. } => {
            return Err(WireError::Protocol {
                reason: format!("shard finished with {unanswered} Poll frames unanswered"),
            })
        }
    };
    *unanswered -= 1;
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
    use crate::agent::{AgentRequest, AgentResponse, QuoteResponse};
    use crate::backend::BackendKind;
    use crate::scheduler::RoundOutcome;
    use crate::verifier::{Alert, FailureKind};
    use cia_wire::Writer;

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

    /// Every agent RPC message a fleet sends: both requests (the inert
    /// `structured` flag either way), every response kind, and the
    /// identity of each backend.
    fn agent_messages() -> (Vec<AgentRequest>, Vec<AgentResponse>) {
        use crate::backend::{
            BackendRoot, ConfidentialVmBackend, ConfidentialVmConfig, SecureWorldBackend,
            SecureWorldConfig,
        };
        use cia_os::{Machine, MachineConfig};
        use cia_tpm::Manufacturer;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(8);
        let manufacturer = Manufacturer::generate(&mut rng);
        let root = BackendRoot::generate("Platform", &mut rng);
        let mut agents = [
            Agent::new(Machine::new(&manufacturer, MachineConfig::default())),
            Agent::with_backend(SecureWorldBackend::provision(
                SecureWorldConfig::new("sw", 3),
                &root,
            )),
            Agent::with_backend(ConfidentialVmBackend::provision(
                ConfidentialVmConfig::new("cvm", 4),
                &root,
            )),
        ];
        let requests = vec![
            AgentRequest::Identity {
                challenge: b"registrar-challenge".to_vec(),
            },
            AgentRequest::Quote {
                nonce: vec![0xA5; 32],
                from_entry: 0,
                structured: true,
            },
            AgentRequest::Quote {
                nonce: Vec::new(),
                from_entry: 300_000,
                structured: false,
            },
        ];
        let mut responses = vec![AgentResponse::Error {
            reason: "backend unavailable".into(),
        }];
        for agent in &mut agents {
            for request in &requests[..2] {
                responses.push(agent.handle(request.clone()));
            }
        }
        (requests, responses)
    }

    #[test]
    fn agent_messages_roundtrip_and_truncations_error() {
        let (requests, responses) = agent_messages();
        let identities = responses
            .iter()
            .filter_map(|r| match r {
                AgentResponse::Identity(identity) => Some(identity.backend()),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(
            identities,
            [
                BackendKind::TpmIma,
                BackendKind::SecureWorld,
                BackendKind::ConfidentialVm
            ]
        );
        assert_eq!(
            responses
                .iter()
                .filter(|r| matches!(r, AgentResponse::Quote(_)))
                .count(),
            3
        );
        for request in requests {
            let bytes = request.to_wire();
            assert_eq!(AgentRequest::from_wire(&bytes).unwrap(), request);
            for cut in 0..bytes.len() {
                assert!(AgentRequest::from_wire(&bytes[..cut]).is_err(), "{cut}");
            }
        }
        for response in responses {
            let bytes = response.to_wire();
            assert_eq!(AgentResponse::from_wire(&bytes).unwrap(), response);
            for cut in 0..bytes.len() {
                assert!(AgentResponse::from_wire(&bytes[..cut]).is_err(), "{cut}");
            }
        }
    }

    #[test]
    fn agent_messages_reject_unknown_tags() {
        let (_, responses) = agent_messages();
        assert!(matches!(
            AgentRequest::from_wire(&[2]),
            Err(WireError::BadTag {
                what: "agent request",
                tag: 2
            })
        ));
        assert!(matches!(
            AgentResponse::from_wire(&[3]),
            Err(WireError::BadTag {
                what: "agent response",
                tag: 3
            })
        ));
        // An identity response whose backend tag names no backend.
        let identity = responses
            .iter()
            .find(|r| matches!(r, AgentResponse::Identity(_)))
            .unwrap();
        let mut bytes = identity.to_wire();
        bytes[1] = 7;
        assert!(matches!(
            AgentResponse::from_wire(&bytes),
            Err(WireError::BadTag {
                what: "identity response",
                tag: 7
            })
        ));
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

    /// A hostile shard answers the one `Poll` frame it was sent, then
    /// sends a second, empty `Results` frame before `Done`: every row
    /// checks out, but the shard replied to a frame that was never sent.
    #[test]
    fn a_shard_that_answers_more_frames_than_were_sent_is_a_protocol_error() {
        let (driver_conn, shard_conn) = cia_wire::DuplexShardTransport::pair();
        let shard = std::thread::spawn(move || {
            let (mut tx, mut rx) = shard_conn.split();
            assert_eq!(rx.recv::<ShardCommand>().unwrap(), ShardCommand::Start);
            let ShardCommand::Poll(batch) = rx.recv::<ShardCommand>().unwrap() else {
                panic!("expected a Poll frame");
            };
            let rows = batch
                .iter()
                .map(|(id, _)| sample_row(id.as_str(), RoundOutcome::Verified { new_entries: 0 }))
                .collect();
            tx.send_frame(&ShardReply::Results(rows).to_wire()).unwrap();
            tx.send_frame(&ShardReply::Results(Vec::new()).to_wire())
                .unwrap();
            let done = ShardReply::Done {
                health: HealthCounts::default(),
                epoch: PolicyEpoch::ZERO,
            };
            // The driver may already have hung up on the extra frame.
            let _ = tx.send_frame(&done.to_wire());
            // Hold the connection open until the driver hangs up.
            while rx.recv::<ShardCommand>().is_ok() {}
        });
        let commands = vec![(AgentId::from("a"), 0)];
        let err = drive_round(driver_conn, &commands, 1, 1).unwrap_err();
        assert!(
            matches!(&err, WireError::Protocol { reason } if reason.contains("no Poll frame")),
            "{err:?}"
        );
        shard.join().unwrap();
    }

    /// A command list naming an id twice would merge into one pending
    /// command and come back one row short: the driver refuses it before
    /// the shard sees a single frame.
    #[test]
    fn a_command_list_that_names_an_id_twice_is_refused_before_start() {
        let (driver_conn, shard_conn) = cia_wire::DuplexShardTransport::pair();
        let commands = vec![
            (AgentId::from("a"), 0),
            (AgentId::from("b"), 1),
            (AgentId::from("a"), 2),
        ];
        let err = drive_round(driver_conn, &commands, 0, 1).unwrap_err();
        assert!(
            matches!(&err, WireError::Protocol { reason } if reason.contains("`a` twice")),
            "{err:?}"
        );
        let (_tx, mut rx) = shard_conn.split();
        assert!(
            matches!(rx.recv::<ShardCommand>(), Err(WireError::Closed)),
            "the driver hung up without sending Start"
        );
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

    /// The largest batch and window send every command in one `Poll`
    /// frame, answered by one `Results` frame.
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
