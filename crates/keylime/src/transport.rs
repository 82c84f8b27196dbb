//! The message transport between Keylime components.
//!
//! The real deployment runs agent, registrar and verifier as separate
//! networked services. The simulator keeps them in one process but forces
//! every request/response through a [`Transport`], which (a) serializes
//! both directions to JSON — so nothing non-wire-safe can leak between
//! components — and (b) can inject message loss for fault testing.
//!
//! `Transport` is a trait so the verifier, registrar and the fleet
//! [`scheduler`](crate::scheduler) are generic over the channel quality:
//!
//! - [`ReliableTransport`] never drops a message (unit tests, baselines);
//! - [`LossyTransport`] drops each direction with a configured
//!   probability from a seeded RNG, deterministically.
//!
//! [`Transport::fork`] derives an independent per-agent *lane* from a
//! base transport. Lanes are keyed by a caller-chosen number, so the drop
//! pattern an agent experiences depends only on the base seed and its
//! lane — never on which worker thread serviced it or in what order.
//! That is what makes concurrent fleet rounds reproducible.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
/// Implementations decide *delivery* (always, lossy, ...); the
/// serialization contract is shared: both the request and the response
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
    /// The derived transport has fresh counters and — for lossy
    /// transports — an RNG stream determined solely by the base seed and
    /// `lane`, so per-lane drop patterns are stable regardless of thread
    /// scheduling.
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

/// Mixes a lane number into a seed (SplitMix64 finalizer), so forked
/// lanes get well-separated RNG streams even for adjacent lane numbers.
fn mix_lane(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A transport dropping each direction with a configured probability,
/// deterministically from a seed.
#[derive(Debug)]
pub struct LossyTransport {
    drop_rate: f64,
    seed: u64,
    rng: StdRng,
    requests: u64,
    drops: u64,
    wire_bytes: u64,
}

impl LossyTransport {
    /// A transport dropping each direction with probability `drop_rate`.
    pub fn new(drop_rate: f64, seed: u64) -> Self {
        LossyTransport {
            drop_rate: drop_rate.clamp(0.0, 1.0),
            seed,
            rng: StdRng::seed_from_u64(seed),
            requests: 0,
            drops: 0,
            wire_bytes: 0,
        }
    }

    /// The configured per-direction drop probability.
    pub fn drop_rate(&self) -> f64 {
        self.drop_rate
    }
}

impl Transport for LossyTransport {
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
        if self.drop_rate > 0.0 && self.rng.random::<f64>() < self.drop_rate {
            self.drops += 1;
            return Err(TransportError::RequestDropped);
        }
        // A dropped request consumes one RNG draw, a delivered one two —
        // the stream stays deterministic per lane either way.
        let (response, bytes) = codec_roundtrip(request, serve)?;
        self.wire_bytes += bytes;
        if self.drop_rate > 0.0 && self.rng.random::<f64>() < self.drop_rate {
            self.drops += 1;
            return Err(TransportError::ResponseDropped);
        }
        Ok(response)
    }

    fn requests(&self) -> u64 {
        self.requests
    }

    fn drops(&self) -> u64 {
        self.drops
    }

    fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    fn fork(&self, lane: u64) -> Self {
        LossyTransport::new(self.drop_rate, mix_lane(self.seed, lane))
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
        let mut t = ReliableTransport::new();
        let _: String = t.call(&"abcd".to_string(), |s: String| s).unwrap();
        // "abcd" serializes to 6 quoted bytes, each direction.
        assert_eq!(t.wire_bytes(), 12);
        let _: String = t.call(&"ab".to_string(), |s: String| s).unwrap();
        assert_eq!(t.wire_bytes(), 12 + 8);

        // A response drop happens *after* both messages were serialized,
        // so the bytes still count; a request drop spends nothing.
        let mut lossy = LossyTransport::new(1.0, 3);
        assert_eq!(
            lossy.call(&1u8, |x: u8| x).unwrap_err(),
            TransportError::RequestDropped
        );
        assert_eq!(lossy.wire_bytes(), 0);
        // Forked lanes start from zero.
        assert_eq!(lossy.fork(1).wire_bytes(), 0);
    }

    #[test]
    fn lossy_drops_sometimes() {
        let mut t = LossyTransport::new(0.5, 7);
        let mut ok = 0;
        let mut err = 0;
        for i in 0..200 {
            match t.call(&i, |x: i32| x) {
                Ok(_) => ok += 1,
                Err(TransportError::RequestDropped | TransportError::ResponseDropped) => err += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(ok > 20, "some calls must succeed ({ok})");
        assert!(err > 20, "some calls must drop ({err})");
        assert_eq!(t.drops() as i32, err);
    }

    #[test]
    fn full_loss_never_delivers() {
        let mut t = LossyTransport::new(1.0, 1);
        assert_eq!(
            t.call(&0, |x: i32| x).unwrap_err(),
            TransportError::RequestDropped
        );
        assert!(TransportError::RequestDropped.is_retryable());
        assert!(!TransportError::Codec { reason: "x".into() }.is_retryable());
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
    fn forked_lanes_are_deterministic_and_independent() {
        let base = LossyTransport::new(0.3, 42);
        let pattern = |t: &mut LossyTransport| -> Vec<bool> {
            (0..50).map(|i| t.call(&i, |x: i32| x).is_ok()).collect()
        };
        // Same lane twice: identical drop pattern.
        let a1 = pattern(&mut base.fork(5));
        let a2 = pattern(&mut base.fork(5));
        assert_eq!(a1, a2);
        // Different lanes: different patterns (with overwhelming odds).
        let b = pattern(&mut base.fork(6));
        assert_ne!(a1, b);
        // Forking never disturbs the base transport's own stream.
        assert_eq!(base.requests(), 0);
    }

    /// Regression: lane derivation must not alias. A naive `seed + lane`
    /// (or xor) mix would give `fork(seed, lane+1)` the same stream as
    /// `fork(seed+1, lane)`, so two agents in *different* fleets — or one
    /// agent after a seed bump — would replay each other's fault pattern.
    /// The SplitMix64 finalizer keeps every (seed, lane) pair distinct.
    #[test]
    fn lane_mixing_does_not_alias_adjacent_seeds_and_lanes() {
        let mut derived = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            for lane in 0..8u64 {
                assert!(
                    derived.insert(mix_lane(seed, lane)),
                    "collision at seed {seed}, lane {lane}"
                );
            }
        }
        // The specific aliasing a plain additive mix would produce:
        assert_ne!(mix_lane(10, 3), mix_lane(11, 2));
        assert_ne!(mix_lane(10, 3), mix_lane(9, 4));
        assert_ne!(mix_lane(10, 3), mix_lane(3, 10), "not symmetric either");
    }

    /// Regression: a lane's attempt-level draws depend only on
    /// (base seed, lane) — never on which worker got the lane or how many
    /// calls *other* lanes made first. Drives the same lanes under two
    /// different worker-assignment interleavings and pins equality.
    #[test]
    fn lane_fault_pattern_is_independent_of_worker_assignment() {
        let base = LossyTransport::new(0.35, 1234);
        let attempts_per_lane = 40; // covers multi-retry rounds
        let drive = |t: &mut LossyTransport| -> Vec<bool> {
            (0..attempts_per_lane)
                .map(|i| t.call(&i, |x: i32| x).is_ok())
                .collect()
        };

        // Assignment A: workers process lanes 0,1,2,3 in order, each
        // lane's attempts run back to back.
        let in_order: Vec<Vec<bool>> = (0..4).map(|l| drive(&mut base.fork(l))).collect();

        // Assignment B: lanes forked in reverse and attempts interleaved
        // round-robin across all lanes, as a racing pool would.
        let mut rev_lanes: Vec<(u64, LossyTransport)> =
            (0..4u64).rev().map(|l| (l, base.fork(l))).collect();
        let mut results: std::collections::BTreeMap<u64, Vec<bool>> =
            (0..4u64).map(|l| (l, Vec::new())).collect();
        for i in 0..attempts_per_lane {
            for (lane_no, t) in rev_lanes.iter_mut() {
                let entry = results.get_mut(lane_no).unwrap();
                entry.push(t.call(&i, |x: i32| x).is_ok());
            }
        }
        for (lane_no, pattern) in results {
            assert_eq!(
                pattern, in_order[lane_no as usize],
                "lane {lane_no} pattern changed with worker assignment"
            );
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
