//! Deterministic fault injection: scripted fault plans over any transport.
//!
//! This is the tree's one fault injector. Real outages have *shape*: a
//! link loses a fraction of its messages, an agent subset partitions for
//! a few rounds, the registrar flaps during a maintenance window, a
//! response arrives corrupted, a node crashes and comes back with a reset
//! TPM counter. [`FaultPlan`] scripts exactly those shapes as a schedule
//! of [`FaultEvent`]s — a uniformly lossy link is the two-event plan
//! [`FaultPlan::lossy`] — and [`ChaosTransport`] applies the plan as a
//! decorator over any inner [`Transport`].
//!
//! Every fault decision is a **pure function** of
//! `(plan seed, round, lane, attempt)` — no RNG stream is consumed, so
//! the decision for one call can never be perturbed by the order other
//! calls happen to be made in. Two runs of the same `(seed, FaultPlan)`
//! replay bit-identically regardless of worker count or thread
//! interleaving; a failure trace is reproduced from the plan alone.
//!
//! Lane mapping: the fleet scheduler forks one lane per enrolled agent in
//! sorted-id order ([`Transport::fork`]), so `lane` here is the agent's
//! index in that order. Calls on the *base* (un-forked) transport —
//! registration, and the one-agent operations `Cluster::attest` and
//! `Cluster::resolve` — carry no lane and are targeted with
//! [`FaultTarget::Registrar`].
//!
//! Agent-side faults ([`FaultKind::CrashRestart`]) cannot be expressed at
//! the transport layer; the simulation harness reads them back out with
//! [`FaultPlan::crashes_at`] and reboots the machine, which resets the
//! TPM quote counter and clears the IMA log.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::transport::{Transport, TransportError};

/// Who a fault event applies to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// Every agent lane (not the registrar channel).
    AllAgents,
    /// A specific set of agent lanes (indices in sorted-id order).
    Lanes(Vec<u64>),
    /// The base (un-forked) transport: registration traffic, and the
    /// one-agent operations that use the base channel directly
    /// (`Cluster::attest`, `Cluster::resolve`).
    Registrar,
}

impl FaultTarget {
    /// A lane-set target from any iterator of lane numbers.
    pub fn lanes(lanes: impl IntoIterator<Item = u64>) -> Self {
        let mut v: Vec<u64> = lanes.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        FaultTarget::Lanes(v)
    }

    /// Does this target cover a call on `lane` (`None` = base transport)?
    fn matches(&self, lane: Option<u64>) -> bool {
        match (self, lane) {
            (FaultTarget::AllAgents, Some(_)) => true,
            (FaultTarget::Lanes(set), Some(l)) => set.binary_search(&l).is_ok(),
            (FaultTarget::Registrar, None) => true,
            _ => false,
        }
    }
}

/// What a fault event does to matching calls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Drop every matching call (network partition / service outage).
    Partition,
    /// Drop each direction independently with this probability,
    /// decided per `(round, lane, attempt)` from the plan seed.
    Loss {
        /// Per-direction drop probability in `[0, 1]`.
        rate: f64,
    },
    /// The response arrives but fails to decode — the evidence channel is
    /// degraded. Surfaces as a non-retryable [`TransportError::Codec`].
    Corrupt,
    /// The agent crashes and restarts at the window start: TPM reset
    /// counter bumps, the IMA log restarts. Applied by the simulation
    /// harness (see [`FaultPlan::crashes_at`]), ignored by the transport.
    CrashRestart,
}

/// One scheduled fault: a kind, a target, and a half-open round window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// First round (inclusive) the fault is active.
    pub from_round: u64,
    /// First round (exclusive) the fault is no longer active.
    pub until_round: u64,
    /// Who the fault applies to.
    pub target: FaultTarget,
    /// What the fault does.
    pub kind: FaultKind,
}

impl FaultEvent {
    fn active(&self, round: u64) -> bool {
        self.from_round <= round && round < self.until_round
    }
}

/// The per-call verdict of a plan: which faults apply to this attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// Drop the request before it reaches the peer.
    pub drop_request: bool,
    /// Deliver the request but lose the response.
    pub drop_response: bool,
    /// Deliver both ways but corrupt the response beyond decoding.
    pub corrupt_response: bool,
}

/// SplitMix64 finalizer, applied to hash fault coordinates (no RNG is
/// seeded): adjacent seeds, rounds, lanes and attempts land far apart.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, scriptable schedule of fault events. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// A uniformly lossy link: every call, on every agent lane and on the
    /// base channel, in every round, loses each direction independently
    /// with probability `rate` (0.0 is a reliable link).
    pub fn lossy(seed: u64, rate: f64) -> Self {
        FaultPlan::new(seed)
            .loss(0..u64::MAX, FaultTarget::AllAgents, rate)
            .loss(0..u64::MAX, FaultTarget::Registrar, rate)
    }

    /// The seed probabilistic faults are decided from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Appends an arbitrary event.
    pub fn push(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Schedules a partition: every matching call in `rounds` is dropped.
    pub fn partition(self, rounds: Range<u64>, target: FaultTarget) -> Self {
        self.push(FaultEvent {
            from_round: rounds.start,
            until_round: rounds.end,
            target,
            kind: FaultKind::Partition,
        })
    }

    /// Schedules probabilistic loss on matching calls in `rounds`.
    pub fn loss(self, rounds: Range<u64>, target: FaultTarget, rate: f64) -> Self {
        self.push(FaultEvent {
            from_round: rounds.start,
            until_round: rounds.end,
            target,
            kind: FaultKind::Loss {
                rate: rate.clamp(0.0, 1.0),
            },
        })
    }

    /// Schedules response corruption on matching calls in `rounds`.
    pub fn corrupt(self, rounds: Range<u64>, target: FaultTarget) -> Self {
        self.push(FaultEvent {
            from_round: rounds.start,
            until_round: rounds.end,
            target,
            kind: FaultKind::Corrupt,
        })
    }

    /// Schedules a registrar outage: enrolment traffic drops in `rounds`.
    pub fn registrar_outage(self, rounds: Range<u64>) -> Self {
        self.partition(rounds, FaultTarget::Registrar)
    }

    /// Schedules an agent crash/restart at the start of `round`.
    pub fn crash(self, round: u64, lane: u64) -> Self {
        self.push(FaultEvent {
            from_round: round,
            until_round: round + 1,
            target: FaultTarget::lanes([lane]),
            kind: FaultKind::CrashRestart,
        })
    }

    /// The lanes whose agents crash at the start of `round`, for a fleet
    /// of `fleet_size` lanes ([`FaultTarget::AllAgents`] expands to all).
    pub fn crashes_at(&self, round: u64, fleet_size: u64) -> Vec<u64> {
        let mut lanes: Vec<u64> = Vec::new();
        for event in &self.events {
            if event.kind != FaultKind::CrashRestart || event.from_round != round {
                continue;
            }
            match &event.target {
                FaultTarget::AllAgents => lanes.extend(0..fleet_size),
                FaultTarget::Lanes(set) => lanes.extend(set.iter().copied()),
                FaultTarget::Registrar => {}
            }
        }
        lanes.sort_unstable();
        lanes.dedup();
        lanes.retain(|&l| l < fleet_size);
        lanes
    }

    /// A uniform draw in `[0, 1)` that depends only on the plan seed and
    /// the given coordinates — never on call order.
    fn draw(&self, round: u64, lane: u64, attempt: u64, salt: u64) -> f64 {
        let mut h = self.seed ^ 0xc1a0_5eed_0dd5_ba11;
        for (i, part) in [round, lane, attempt, salt].into_iter().enumerate() {
            h = mix64(
                h ^ part
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64),
            );
        }
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Resolves the plan for one call attempt. `lane` is `None` for calls
    /// on the base (registrar) transport.
    pub fn decide(&self, round: u64, lane: Option<u64>, attempt: u64) -> FaultDecision {
        let mut decision = FaultDecision::default();
        let lane_coord = lane.unwrap_or(u64::MAX);
        for (index, event) in self.events.iter().enumerate() {
            if !event.active(round) || !event.target.matches(lane) {
                continue;
            }
            match event.kind {
                FaultKind::Partition => decision.drop_request = true,
                FaultKind::Loss { rate } => {
                    // Two independent draws per event: request direction,
                    // then response direction. Salted by the event index
                    // so overlapping loss events stay independent.
                    let salt = (index as u64) << 1;
                    if self.draw(round, lane_coord, attempt, salt) < rate {
                        decision.drop_request = true;
                    } else if self.draw(round, lane_coord, attempt, salt + 1) < rate {
                        decision.drop_response = true;
                    }
                }
                FaultKind::Corrupt => decision.corrupt_response = true,
                FaultKind::CrashRestart => {}
            }
        }
        decision
    }
}

/// A [`Transport`] decorator applying a [`FaultPlan`] deterministically.
///
/// The current round is shared across every forked lane (an
/// `Arc<AtomicU64>`), so the harness advances it once per round with
/// [`ChaosTransport::set_round`] and all lanes observe it. Each fork gets
/// a fresh per-fork attempt counter; the fleet scheduler forks one lane
/// per agent per round, so the attempt counter is exactly the agent's
/// call attempt within the round.
#[derive(Debug)]
pub struct ChaosTransport<T: Transport> {
    inner: T,
    plan: Arc<FaultPlan>,
    round: Arc<AtomicU64>,
    lane: Option<u64>,
    attempt: u64,
    requests: u64,
    chaos_drops: u64,
    corrupted: u64,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner`, applying `plan` from round 0.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        ChaosTransport {
            inner,
            plan: Arc::new(plan),
            round: Arc::new(AtomicU64::new(0)),
            lane: None,
            attempt: 0,
            requests: 0,
            chaos_drops: 0,
            corrupted: 0,
        }
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The current round, as seen by every lane.
    pub fn current_round(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// Sets the current round (shared with every forked lane).
    pub fn set_round(&self, round: u64) {
        self.round.store(round, Ordering::Relaxed);
    }

    /// Advances to the next round; returns the new round number.
    pub fn advance_round(&self) -> u64 {
        self.round.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Responses corrupted by the plan on this transport.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
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
        let attempt = self.attempt;
        self.attempt += 1;
        let round = self.round.load(Ordering::Relaxed);
        let decision = self.plan.decide(round, self.lane, attempt);

        if decision.drop_request {
            self.chaos_drops += 1;
            return Err(TransportError::RequestDropped);
        }
        // The peer serves the request either way; faults past this point
        // hit the response in flight, after the agent acted on it.
        let response = self.inner.call(request, serve)?;
        if decision.corrupt_response {
            self.corrupted += 1;
            return Err(TransportError::Codec {
                reason: format!("chaos: response corrupted (round {round}, attempt {attempt})"),
            });
        }
        if decision.drop_response {
            self.chaos_drops += 1;
            return Err(TransportError::ResponseDropped);
        }
        Ok(response)
    }

    fn requests(&self) -> u64 {
        self.requests
    }

    fn drops(&self) -> u64 {
        self.chaos_drops + self.inner.drops()
    }

    fn wire_bytes(&self) -> u64 {
        self.inner.wire_bytes()
    }

    fn fork(&self, lane: u64) -> Self {
        ChaosTransport {
            inner: self.inner.fork(lane),
            plan: Arc::clone(&self.plan),
            round: Arc::clone(&self.round),
            lane: Some(lane),
            attempt: 0,
            requests: 0,
            chaos_drops: 0,
            corrupted: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ReliableTransport;

    fn chaos(plan: FaultPlan) -> ChaosTransport<ReliableTransport> {
        ChaosTransport::new(ReliableTransport::new(), plan)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut t = chaos(FaultPlan::new(1));
        for i in 0..10 {
            assert_eq!(t.call(&i, |x: i32| x + 1).unwrap(), i + 1);
        }
        assert_eq!(t.requests(), 10);
        assert_eq!(t.drops(), 0);
        assert_eq!(t.corrupted(), 0);
    }

    #[test]
    fn partition_drops_only_matching_lanes_in_window() {
        let plan = FaultPlan::new(2).partition(3..5, FaultTarget::lanes([7]));
        let base = chaos(plan);
        let mut hit = base.fork(7);
        let mut miss = base.fork(8);

        for round in 0..8u64 {
            base.set_round(round);
            let in_window = (3..5).contains(&round);
            assert_eq!(
                hit.call(&1, |x: i32| x).is_err(),
                in_window,
                "round {round}"
            );
            assert!(miss.call(&1, |x: i32| x).is_ok(), "round {round}");
        }
        assert_eq!(hit.drops(), 2);
        assert_eq!(miss.drops(), 0);
    }

    #[test]
    fn registrar_outage_hits_base_not_lanes() {
        let plan = FaultPlan::new(3).registrar_outage(1..2);
        let mut base = chaos(plan);
        base.set_round(1);
        assert_eq!(
            base.call(&1, |x: i32| x).unwrap_err(),
            TransportError::RequestDropped
        );
        let mut lane = base.fork(0);
        assert!(lane.call(&1, |x: i32| x).is_ok());
        base.set_round(2);
        assert!(base.call(&1, |x: i32| x).is_ok());
    }

    #[test]
    fn corruption_is_a_codec_error_after_serving() {
        let plan = FaultPlan::new(4).corrupt(0..1, FaultTarget::AllAgents);
        let base = chaos(plan);
        let mut lane = base.fork(0);
        let mut served = false;
        let err = lane
            .call(&1, |x: i32| {
                served = true;
                x
            })
            .unwrap_err();
        assert!(matches!(err, TransportError::Codec { .. }));
        assert!(!err.is_retryable(), "corruption is not fixed by retrying");
        assert!(served, "corruption happens after the peer served");
        assert_eq!(lane.corrupted(), 1);
    }

    #[test]
    fn loss_decisions_are_order_independent() {
        let plan = FaultPlan::new(5).loss(0..100, FaultTarget::AllAgents, 0.4);
        // Forward and reverse attempt order give identical per-attempt
        // verdicts: decisions are hashed, not drawn from a stream.
        let forward: Vec<FaultDecision> = (0..50).map(|a| plan.decide(7, Some(3), a)).collect();
        let reverse: Vec<FaultDecision> =
            (0..50).rev().map(|a| plan.decide(7, Some(3), a)).collect();
        let reversed_back: Vec<FaultDecision> = reverse.into_iter().rev().collect();
        assert_eq!(forward, reversed_back);
        let dropped = forward
            .iter()
            .filter(|d| d.drop_request || d.drop_response)
            .count();
        assert!(
            dropped > 5 && dropped < 45,
            "rate ~0.4 must show ({dropped})"
        );
    }

    #[test]
    fn crash_schedule_reads_back() {
        let plan = FaultPlan::new(7)
            .crash(5, 2)
            .crash(5, 0)
            .crash(6, 1)
            .push(FaultEvent {
                from_round: 9,
                until_round: 10,
                target: FaultTarget::AllAgents,
                kind: FaultKind::CrashRestart,
            });
        assert_eq!(plan.crashes_at(5, 4), vec![0, 2]);
        assert_eq!(plan.crashes_at(6, 4), vec![1]);
        assert_eq!(plan.crashes_at(7, 4), Vec::<u64>::new());
        assert_eq!(plan.crashes_at(9, 3), vec![0, 1, 2]);
        // Out-of-fleet lanes are clipped.
        assert_eq!(plan.crashes_at(6, 1), Vec::<u64>::new());
    }

    #[test]
    fn plan_serializes_for_replay() {
        let plan = FaultPlan::new(8)
            .partition(2..4, FaultTarget::lanes([1, 3]))
            .loss(0..10, FaultTarget::AllAgents, 0.25)
            .registrar_outage(5..6);
        let wire = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&wire).unwrap();
        assert_eq!(back, plan);
        // Identical decisions after the round trip: replay-from-seed.
        for round in 0..10 {
            for lane in [None, Some(0), Some(1), Some(3)] {
                for attempt in 0..5 {
                    assert_eq!(
                        back.decide(round, lane, attempt),
                        plan.decide(round, lane, attempt)
                    );
                }
            }
        }
    }

    #[test]
    fn shared_round_counter_spans_forks() {
        let base = chaos(FaultPlan::new(9).partition(4..5, FaultTarget::AllAgents));
        let lane = base.fork(0);
        base.advance_round();
        assert_eq!(lane.current_round(), 1);
        base.set_round(4);
        let mut fresh = base.fork(1);
        assert!(fresh.call(&1, |x: i32| x).is_err(), "sees round 4");
    }

    #[test]
    fn lossy_drops_sometimes() {
        let mut t = chaos(FaultPlan::lossy(7, 0.5));
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
        let mut base = chaos(FaultPlan::lossy(1, 1.0));
        let mut lane = base.fork(0);
        for round in [0, 1, u64::MAX - 1] {
            base.set_round(round);
            for t in [&mut base, &mut lane] {
                assert_eq!(
                    t.call(&0, |x: i32| x).unwrap_err(),
                    TransportError::RequestDropped
                );
            }
        }
        assert!(TransportError::RequestDropped.is_retryable());
        assert!(!TransportError::Codec { reason: "x".into() }.is_retryable());
        // ...and rate 0.0 is a reliable link, base channel and lanes.
        let mut base = chaos(FaultPlan::lossy(1, 0.0));
        let mut lane = base.fork(0);
        for i in 0..50 {
            assert!(base.call(&i, |x: i32| x).is_ok());
            assert!(lane.call(&i, |x: i32| x).is_ok());
        }
    }

    #[test]
    fn forked_lanes_are_deterministic_and_independent() {
        let base = chaos(FaultPlan::lossy(42, 0.3));
        let pattern = |t: &mut ChaosTransport<ReliableTransport>| -> Vec<bool> {
            (0..50).map(|i| t.call(&i, |x: i32| x).is_ok()).collect()
        };
        // The same (round, lane) forked twice: identical drop pattern.
        let a1 = pattern(&mut base.fork(5));
        let a2 = pattern(&mut base.fork(5));
        assert_eq!(a1, a2);
        // A different lane: a different pattern (with overwhelming odds).
        let b = pattern(&mut base.fork(6));
        assert_ne!(a1, b);
        // A different round: the lane draws fresh loss...
        base.set_round(1);
        let c = pattern(&mut base.fork(5));
        assert_ne!(a1, c);
        // ...and going back replays the first round's.
        base.set_round(0);
        assert_eq!(pattern(&mut base.fork(5)), a1);
        // Forking never disturbs the base transport's own counters.
        assert_eq!(base.requests(), 0);
    }

    /// Regression: fault coordinates must not alias. A naive `seed + lane`
    /// (or xor) mix would give `(seed, lane + 1)` the decisions of
    /// `(seed + 1, lane)`, so two agents in *different* fleets — or one
    /// agent after a seed bump — would replay each other's fault pattern.
    /// Hashing every coordinate through the SplitMix64 finalizer keeps
    /// every (seed, lane) pair distinct.
    #[test]
    fn lane_mixing_does_not_alias_adjacent_seeds_and_lanes() {
        let decisions = |seed: u64, lane: u64| -> Vec<FaultDecision> {
            let plan = FaultPlan::lossy(seed, 0.5);
            (0..64).map(|a| plan.decide(0, Some(lane), a)).collect()
        };
        let mut derived = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            for lane in 0..8u64 {
                let bits: Vec<(bool, bool)> = decisions(seed, lane)
                    .iter()
                    .map(|d| (d.drop_request, d.drop_response))
                    .collect();
                assert!(
                    derived.insert(bits),
                    "collision at seed {seed}, lane {lane}"
                );
            }
        }
        // The specific aliasing a plain additive mix would produce:
        assert_ne!(decisions(10, 3), decisions(11, 2));
        assert_ne!(decisions(10, 3), decisions(9, 4));
        assert_ne!(decisions(10, 3), decisions(3, 10), "not symmetric either");
    }

    /// Regression: a lane's attempt-level decisions depend only on
    /// (plan, round, lane) — never on which worker got the lane or how
    /// many calls *other* lanes made first. Drives the same lanes under
    /// two different worker-assignment interleavings and pins equality.
    #[test]
    fn lane_fault_pattern_is_independent_of_worker_assignment() {
        let base = chaos(FaultPlan::lossy(1234, 0.35));
        let attempts_per_lane = 40; // covers multi-retry rounds
        let drive = |t: &mut ChaosTransport<ReliableTransport>| -> Vec<bool> {
            (0..attempts_per_lane)
                .map(|i| t.call(&i, |x: i32| x).is_ok())
                .collect()
        };

        // Assignment A: workers process lanes 0,1,2,3 in order, each
        // lane's attempts run back to back.
        let in_order: Vec<Vec<bool>> = (0..4).map(|l| drive(&mut base.fork(l))).collect();

        // Assignment B: lanes forked in reverse and attempts interleaved
        // round-robin across all lanes, as a racing pool would.
        let mut rev_lanes: Vec<(u64, ChaosTransport<ReliableTransport>)> =
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
}
