//! The message transport between Keylime components.
//!
//! The real deployment runs agent, registrar and verifier as separate
//! networked services. The simulator keeps them in one process but forces
//! every request/response through a [`Transport`], which serializes both
//! directions to JSON — so nothing non-wire-safe can leak between
//! components.
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

/// A JSON-serializing request/response channel between two components.
///
/// Implementations decide *delivery* (always, or under a fault plan);
/// the serialization contract is shared: both the request and the response
/// must round-trip through JSON, exactly as they would on a network.
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

    /// Total serialized bytes that crossed this transport, both
    /// directions (requests count even when the response was lost).
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

/// Serializes `request` across the wire, serves it, and brings the
/// response back — the delivery-independent half of every [`Transport`].
/// Returns the response together with the total bytes serialized in both
/// directions, so implementations can meter wire traffic.
fn codec_roundtrip<Req, Resp>(
    request: &Req,
    serve: impl FnOnce(Req) -> Resp,
) -> Result<(Resp, u64), TransportError>
where
    Req: Serialize + DeserializeOwned,
    Resp: Serialize + DeserializeOwned,
{
    let wire_req = serde_json::to_string(request).map_err(|e| TransportError::Codec {
        reason: e.to_string(),
    })?;
    let decoded: Req = serde_json::from_str(&wire_req).map_err(|e| TransportError::Codec {
        reason: e.to_string(),
    })?;
    let response = serve(decoded);
    let wire_resp = serde_json::to_string(&response).map_err(|e| TransportError::Codec {
        reason: e.to_string(),
    })?;
    let bytes = wire_req.len() as u64 + wire_resp.len() as u64;
    serde_json::from_str(&wire_resp)
        .map(|resp| (resp, bytes))
        .map_err(|e| TransportError::Codec {
            reason: e.to_string(),
        })
}

/// A transport that always delivers.
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
        let (response, bytes) = codec_roundtrip(request, serve)?;
        self.wire_bytes += bytes;
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
    fn fork_of_reliable_is_reliable() {
        let base = ReliableTransport::new();
        let mut lane = base.fork(9);
        for i in 0..10 {
            assert!(lane.call(&i, |x: i32| x).is_ok());
        }
        assert_eq!(lane.drops(), 0);
    }
}
