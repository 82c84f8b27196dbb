//! The message transport between Keylime components.
//!
//! The real deployment runs agent, registrar and verifier as separate
//! networked services. The simulator keeps them in one process but forces
//! every request/response through a [`Transport`], which encodes both
//! directions to bytes and decodes them back — so nothing non-wire-safe
//! can leak between components.
//!
//! The bytes are each message's [`Serialize::write_message`]: the binary
//! `cia_wire` encoding for the agent RPC's [`AgentRequest`] and
//! [`AgentResponse`] (both derive with `#[serde(wire)]`), the JSON text
//! for any other type. There is one codec path; the type picks the
//! encoding.
//!
//! [`AgentRequest`]: crate::AgentRequest
//! [`AgentResponse`]: crate::AgentResponse
//!
//! `Transport` is a trait so the verifier, registrar and the fleet
//! [`scheduler`](crate::scheduler) are generic over the channel:
//! [`ReliableTransport`] is the channel itself and never drops a message;
//! every fault — loss, partitions, latency, corruption — is injected by
//! wrapping it in [`ChaosTransport`](crate::chaos::ChaosTransport) with a
//! [`FaultPlan`](crate::chaos::FaultPlan) (a lossy link is
//! [`FaultPlan::lossy`](crate::chaos::FaultPlan::lossy)).
//!
//! [`Transport::fork`] derives an independent per-agent *lane* from a
//! base transport. Lanes are keyed by a caller-chosen number, so the
//! faults an agent experiences depend only on the plan, the round and its
//! lane — never on which worker thread serviced it or in what order.
//! That is what makes concurrent fleet rounds reproducible.

use std::cell::Cell;
use std::fmt;

use serde::de::DeserializeOwned;
use serde::Serialize;

/// Transport failures.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The request never reached the peer (injected loss or timeout).
    RequestDropped,
    /// The response was lost on the way back.
    ResponseDropped,
    /// A message failed to serialize/deserialize.
    Codec {
        /// Description of the codec failure.
        reason: String,
    },
}

impl TransportError {
    /// True for failures a retry can plausibly fix (lost messages);
    /// false for codec bugs, which are deterministic.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            TransportError::RequestDropped | TransportError::ResponseDropped
        )
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::RequestDropped => f.write_str("request dropped"),
            TransportError::ResponseDropped => f.write_str("response dropped"),
            TransportError::Codec { reason } => write!(f, "codec error: {reason}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A request/response channel between two components that carries each
/// message as bytes.
///
/// Implementations decide *delivery* (always, or under a fault plan);
/// the serialization contract is shared: both the request and the response
/// must round-trip through their message encoding
/// ([`Serialize::write_message`] /
/// [`read_message`](serde::Deserialize::read_message): binary for the
/// agent RPC, JSON otherwise), exactly as they would on a network.
pub trait Transport: Send {
    /// Performs one RPC: serializes `request`, lets `serve` compute the
    /// response on the far side, and deserializes the reply.
    ///
    /// # Errors
    ///
    /// [`TransportError::RequestDropped`]/[`TransportError::ResponseDropped`]
    /// under injected loss; [`TransportError::Codec`] when either message
    /// is not wire-representable.
    fn call<Req, Resp>(
        &mut self,
        request: &Req,
        serve: impl FnOnce(Req) -> Resp,
    ) -> Result<Resp, TransportError>
    where
        Req: Serialize + DeserializeOwned,
        Resp: Serialize + DeserializeOwned;

    /// Total RPCs attempted on this transport.
    fn requests(&self) -> u64;

    /// Messages lost to injected faults on this transport.
    fn drops(&self) -> u64;

    /// Total encoded bytes that crossed this transport, both directions
    /// (requests count even when the response was lost): the binary
    /// length of an agent message, the JSON length of any other.
    fn wire_bytes(&self) -> u64;

    /// Inert: nothing calls it. Still here because
    /// `benchmark/src/trace.rs` overrides it by name.
    #[doc(hidden)]
    fn supports_structured_excerpt(&self) -> bool {
        true
    }

    /// Inert: nothing calls it. Still here because
    /// `benchmark/src/trace.rs` overrides it by name.
    #[doc(hidden)]
    fn supports_delta_push(&self) -> bool {
        true
    }

    /// Derives an independent transport *lane* for concurrent use.
    ///
    /// The derived transport has fresh counters and — under a fault
    /// plan — decisions determined solely by the plan, the current round
    /// and `lane`, so per-lane fault patterns are stable regardless of
    /// thread scheduling.
    fn fork(&self, lane: u64) -> Self
    where
        Self: Sized;
}

thread_local! {
    /// This thread's wire buffer. Every message is encoded into it and
    /// decoded from it, so once it has grown to the largest message the
    /// codec allocates nothing for the bytes. (Growing a fresh buffer per
    /// message costs a `realloc` chain each time, and two workers doing
    /// that contend on the allocator's locks.)
    static WIRE: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// A wire buffer that outlives the threads it is lent to. Each round
/// worker owns one in the verifier, so the next round's scoped workers
/// start with the buffers this round's grew.
#[derive(Default)]
pub(crate) struct WireBuffer(Vec<u8>);

impl WireBuffer {
    /// Runs `f` with this buffer as the calling thread's wire buffer and
    /// takes it back, grown, afterwards. The thread's own buffer is
    /// restored, so nothing else on the thread sees the swap.
    pub(crate) fn lend<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let own = Cell::from_mut(&mut self.0);
        WIRE.with(|slot| slot.swap(own));
        let out = f();
        WIRE.with(|slot| slot.swap(own));
        out
    }

    /// The bytes the buffer holds room for.
    pub(crate) fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

impl fmt::Debug for WireBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WireBuffer {{ capacity: {} }}", self.capacity())
    }
}

/// Encodes `message` into this thread's wire buffer and decodes a copy
/// from it, as the far side of a network would, with the message's own
/// codec pair. Returns the copy and the bytes the message took on the
/// wire.
///
/// The buffer is taken out of its slot for the duration, so a nested
/// call (a `serve` that makes calls of its own) works on a buffer of
/// its own.
fn cross_wire<M: Serialize + DeserializeOwned>(message: &M) -> Result<(M, u64), TransportError> {
    let mut wire = WIRE.with(Cell::take);
    wire.clear();
    let crossed = message
        .write_message(&mut wire)
        .and_then(|()| M::read_message(&wire))
        .map(|copy| (copy, wire.len() as u64))
        .map_err(|e| TransportError::Codec {
            reason: e.to_string(),
        });
    WIRE.with(|slot| slot.set(wire));
    crossed
}

/// A transport that always delivers: it serializes each request across
/// the wire, serves it, and brings the response back the same way. A
/// fault plan wraps it ([`ChaosTransport`](crate::chaos::ChaosTransport)).
#[derive(Debug, Default, Clone)]
pub struct ReliableTransport {
    requests: u64,
    wire_bytes: u64,
}

impl ReliableTransport {
    /// Creates a reliable transport.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for ReliableTransport {
    fn call<Req, Resp>(
        &mut self,
        request: &Req,
        serve: impl FnOnce(Req) -> Resp,
    ) -> Result<Resp, TransportError>
    where
        Req: Serialize + DeserializeOwned,
        Resp: Serialize + DeserializeOwned,
    {
        self.requests += 1;
        let (decoded, request_bytes) = cross_wire(request)?;
        let (response, response_bytes) = cross_wire(&serve(decoded))?;
        self.wire_bytes += request_bytes + response_bytes;
        Ok(response)
    }

    fn requests(&self) -> u64 {
        self.requests
    }

    fn drops(&self) -> u64 {
        0
    }

    fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    fn fork(&self, _lane: u64) -> Self {
        ReliableTransport::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_roundtrip() {
        let mut t = ReliableTransport::new();
        let out: i32 = t.call(&21i32, |x: i32| x * 2).unwrap();
        assert_eq!(out, 42);
        assert_eq!(t.requests(), 1);
        assert_eq!(t.drops(), 0);
        assert_eq!(t.wire_bytes(), 4, "\"21\" out, \"42\" back");
    }

    #[test]
    fn wire_bytes_accumulate_and_count_half_delivered_calls() {
        use crate::chaos::{ChaosTransport, FaultPlan};

        let mut t = ReliableTransport::new();
        let _: String = t.call(&"abcd".to_string(), |s: String| s).unwrap();
        // "abcd" serializes to 6 quoted bytes, each direction.
        assert_eq!(t.wire_bytes(), 12);
        let _: String = t.call(&"ab".to_string(), |s: String| s).unwrap();
        assert_eq!(t.wire_bytes(), 12 + 8);

        // A response drop happens *after* both messages were serialized,
        // so the bytes still count; a request drop spends nothing.
        let mut lossy = ChaosTransport::new(ReliableTransport::new(), FaultPlan::lossy(3, 0.5));
        let (mut request_drops, mut response_drops) = (0, 0);
        for _ in 0..40 {
            let before = lossy.wire_bytes();
            match lossy.call(&1u8, |x: u8| x) {
                Err(TransportError::RequestDropped) => {
                    request_drops += 1;
                    assert_eq!(lossy.wire_bytes(), before);
                }
                Err(TransportError::ResponseDropped) => {
                    response_drops += 1;
                    assert_eq!(lossy.wire_bytes(), before + 2, "\"1\" out, \"1\" back");
                }
                Ok(_) => assert_eq!(lossy.wire_bytes(), before + 2),
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(request_drops > 0 && response_drops > 0);
        // Forked lanes start from zero.
        assert_eq!(lossy.fork(1).wire_bytes(), 0);
    }

    #[test]
    fn structured_payloads_roundtrip() {
        #[derive(serde::Serialize, serde::Deserialize)]
        struct Ping {
            nonce: Vec<u8>,
            label: String,
        }
        let mut t = ReliableTransport::new();
        let reply: String = t
            .call(
                &Ping {
                    nonce: vec![1, 2, 3],
                    label: "hello".into(),
                },
                |p: Ping| format!("{}:{}", p.label, p.nonce.len()),
            )
            .unwrap();
        assert_eq!(reply, "hello:3");
    }

    #[test]
    fn nested_calls_and_fresh_threads_each_get_a_wire() {
        let mut outer = ReliableTransport::new();
        let reply: String = outer
            .call(&"ping".to_string(), |s: String| {
                let mut inner = ReliableTransport::new();
                let echoed: String = inner.call(&s, |s: String| s + "!").unwrap();
                assert_eq!(inner.wire_bytes(), 6 + 7);
                echoed
            })
            .unwrap();
        assert_eq!(reply, "ping!");
        assert_eq!(outer.wire_bytes(), 6 + 7);
        // Threads that exit hand their buffers on; later threads still
        // encode from a cleared buffer.
        for n in [3000usize, 10] {
            let out = std::thread::spawn(move || {
                ReliableTransport::new()
                    .call(&vec![7u8; n], |v: Vec<u8>| v.len())
                    .unwrap()
            })
            .join()
            .unwrap();
            assert_eq!(out, n);
        }
    }

    /// An agent message crosses as its `cia_wire` encoding, and the
    /// transport meters its binary length.
    #[test]
    fn agent_messages_cross_in_binary() {
        use crate::agent::{AgentRequest, AgentResponse};
        use cia_wire::Wire;

        let request = AgentRequest::Quote {
            nonce: vec![7; 32],
            from_entry: 1,
            structured: true,
        };
        let response = AgentResponse::Error {
            reason: "busy".into(),
        };
        let mut t = ReliableTransport::new();
        let back: AgentResponse = t
            .call(&request, |served| {
                assert_eq!(served, request);
                response.clone()
            })
            .unwrap();
        assert_eq!(back, response);
        // A tag, the nonce's length and 32 bytes, `from_entry`, the flag;
        // a tag, the reason's length and 4 bytes.
        assert_eq!(t.wire_bytes(), 36 + 6);
        assert_eq!(
            t.wire_bytes(),
            (request.to_wire().len() + response.to_wire().len()) as u64
        );
    }

    /// Bytes on the wire that claim to be an agent response: they decode
    /// only if `AgentResponse` decodes them.
    #[derive(Debug)]
    struct Raw(Vec<u8>);

    impl Serialize for Raw {
        fn write_json(&self, w: &mut serde::JsonWriter) {
            self.0.write_json(w);
        }

        fn write_message(&self, out: &mut Vec<u8>) -> Result<(), serde::DeError> {
            out.extend_from_slice(&self.0);
            Ok(())
        }
    }

    impl serde::Deserialize for Raw {
        fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::DeError> {
            Vec::read_json(r).map(Raw)
        }

        fn read_message(bytes: &[u8]) -> Result<Self, serde::DeError> {
            crate::agent::AgentResponse::read_message(bytes).map(|_| Raw(bytes.to_vec()))
        }
    }

    /// Bytes that do not decode as an agent response, whatever they are,
    /// are a `Codec` error from the call, never a panic.
    #[test]
    fn undecodable_agent_bytes_are_a_codec_error() {
        use crate::agent::AgentResponse;
        use cia_wire::Wire;

        let whole = AgentResponse::Error {
            reason: "a reason long enough to cut".into(),
        }
        .to_wire();
        let mut t = ReliableTransport::new();
        let mut deliver = |bytes: &[u8]| t.call(&0u8, |_: u8| Raw(bytes.to_vec()));
        assert!(deliver(&whole).is_ok());
        let mut hostile: Vec<Vec<u8>> = (0..whole.len()).map(|cut| whole[..cut].to_vec()).collect();
        hostile.push(vec![9]);
        hostile.push([&whole[..], &[0]].concat());
        hostile.push(vec![0xFF; 64]);
        for bytes in hostile {
            match deliver(&bytes) {
                Err(TransportError::Codec { reason }) => {
                    assert!(reason.starts_with("AgentResponse: "), "{reason}")
                }
                other => panic!("{bytes:?} delivered {other:?}"),
            }
        }
    }

    #[test]
    fn fork_of_reliable_is_reliable() {
        let base = ReliableTransport::new();
        let mut lane = base.fork(9);
        for i in 0..10 {
            assert!(lane.call(&i, |x: i32| x).is_ok());
        }
        assert_eq!(lane.drops(), 0);
    }
}
