//! The epoch-tagged shared policy store.
//!
//! Fleet-wide policy distribution used to be O(fleet × policy): every
//! agent record owned a full [`RuntimePolicy`] clone. [`PolicyStore`]
//! holds one `Arc<RuntimePolicy>` snapshot tagged with a monotonically
//! increasing [`PolicyEpoch`]; a fleet-wide push is one `Arc` swap per
//! agent. Per-agent *overrides* remain possible for heterogeneous
//! fleets — e.g. the snap-scrubbed subset from §III-B keeps its own
//! policy and simply opts out of the shared snapshot.
//!
//! Deltas compose with the store: [`PolicyStore::publish_delta`] applies a
//! [`PolicyDelta`] to an owned buffer and swaps the published `Arc`, so a
//! daily update is O(delta) — independent of fleet size — and in steady
//! state performs **zero** policy deep copies: the previous epoch's
//! snapshot is *retired* at publish time and, once every agent has
//! adopted the newer epoch (dropping its handle), *reclaimed* as the
//! spare buffer the next epoch is built into. The spare sits some number
//! of recorded deltas behind the published snapshot (one per epoch it
//! missed), so a publish replays the catch-up deltas in order and then
//! the new one — O(delta) map edits in place, no copy.
//! Only a cold start (first delta after a full publish) or a straggler
//! pinning the old snapshot across an epoch falls back to one
//! copy-on-write clone.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::{Mutex, RaceCell, RwLock};
use serde::{Deserialize, Serialize};

use crate::ids::AgentId;
use crate::policy::{PolicyDelta, RuntimePolicy};

/// Monotonically increasing label for one published policy snapshot.
///
/// Epoch 0 is the store's empty founding policy; every publish bumps the
/// epoch by one. Agents record the epoch they last adopted, which is how
/// the scheduler proves fleet-wide convergence (and how a quarantined
/// agent's skew — it appraises against the epoch it last acknowledged —
/// stays observable).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct PolicyEpoch(u64);

impl PolicyEpoch {
    /// The founding epoch (empty policy).
    pub const ZERO: PolicyEpoch = PolicyEpoch(0);

    /// The raw counter value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The next epoch.
    pub fn next(self) -> PolicyEpoch {
        PolicyEpoch(self.0 + 1)
    }

    /// Rebuilds an epoch from its raw counter — the constructor of the
    /// wire decoder and of journal recovery. Kept crate-private so epochs
    /// still cannot be minted outside the store/wire/journal machinery.
    pub(crate) fn from_raw(raw: u64) -> PolicyEpoch {
        PolicyEpoch(raw)
    }
}

impl fmt::Display for PolicyEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An immutable view of the store's current snapshot, cheap to clone and
/// hand to scheduler workers: the `Arc` handle plus its epoch.
#[derive(Debug, Clone)]
pub struct SharedPolicy {
    /// The published policy snapshot.
    pub snapshot: Arc<RuntimePolicy>,
    /// The epoch the snapshot was published as.
    pub epoch: PolicyEpoch,
}

/// The verifier-side shared policy store (see the module docs).
#[derive(Debug, Clone)]
pub struct PolicyStore {
    snapshot: Arc<RuntimePolicy>,
    epoch: PolicyEpoch,
    /// The previous retired snapshot plus the ordered deltas that
    /// superseded it (every epoch published since it was retired — the
    /// in-place fast path appends here too), held until every agent
    /// adopts a newer epoch and the handle becomes uniquely ours again
    /// ([`PolicyStore::reclaim`]).
    retiring: Option<(Arc<RuntimePolicy>, Vec<PolicyDelta>)>,
    /// An owned buffer sitting `lag.len()` recorded deltas behind
    /// `snapshot` — fuel for the zero-copy publish fast path.
    spare: Option<(RuntimePolicy, Vec<PolicyDelta>)>,
}

impl Default for PolicyStore {
    fn default() -> Self {
        PolicyStore::new()
    }
}

impl PolicyStore {
    /// A store holding the empty policy at epoch 0.
    pub fn new() -> Self {
        PolicyStore {
            snapshot: Arc::new(RuntimePolicy::new()),
            epoch: PolicyEpoch::ZERO,
            retiring: None,
            spare: None,
        }
    }

    /// Recovery path: a store holding a journaled snapshot at a
    /// journaled epoch. The retiring/spare buffers start empty — they
    /// are pure publish-time performance state, invisible to appraisal,
    /// so a restored store is observationally identical to the one that
    /// crashed.
    pub fn restore(snapshot: Arc<RuntimePolicy>, epoch: PolicyEpoch) -> Self {
        PolicyStore {
            snapshot,
            epoch,
            retiring: None,
            spare: None,
        }
    }

    /// The active epoch.
    pub fn epoch(&self) -> PolicyEpoch {
        self.epoch
    }

    /// The active snapshot handle (an `Arc` clone of this is what agent
    /// records hold).
    pub fn snapshot(&self) -> &Arc<RuntimePolicy> {
        &self.snapshot
    }

    /// The active policy.
    pub fn policy(&self) -> &RuntimePolicy {
        &self.snapshot
    }

    /// A cheap `(snapshot, epoch)` view for the scheduler.
    pub fn shared(&self) -> SharedPolicy {
        SharedPolicy {
            snapshot: Arc::clone(&self.snapshot),
            epoch: self.epoch,
        }
    }

    /// Publishes a full replacement policy as a new epoch.
    pub fn publish(&mut self, policy: RuntimePolicy) -> PolicyEpoch {
        self.publish_arc(Arc::new(policy))
    }

    /// Publishes an already-shared snapshot as a new epoch without any
    /// policy copy at all. A full replacement invalidates the spare
    /// buffer (its catch-up delta no longer composes to the new content).
    pub fn publish_arc(&mut self, policy: Arc<RuntimePolicy>) -> PolicyEpoch {
        self.snapshot = policy;
        self.epoch = self.epoch.next();
        self.retiring = None;
        self.spare = None;
        self.epoch
    }

    /// Applies a generator delta and publishes the result as a new epoch.
    ///
    /// Steady state (spare buffer available): replay the spare's recorded
    /// catch-up deltas plus `delta` into the owned buffer and swap the
    /// published `Arc` — **zero** policy deep copies. Cold start or
    /// straggler-pinned: one copy-on-write clone. Returns the new epoch
    /// and the number of entry operations applied.
    pub fn publish_delta(&mut self, delta: &PolicyDelta) -> (PolicyEpoch, usize) {
        self.reclaim();
        let applied;
        if let Some((mut buf, lag)) = self.spare.take() {
            for catchup in &lag {
                buf.apply_delta(catchup);
            }
            applied = buf.apply_delta(delta);
            let old = std::mem::replace(&mut self.snapshot, Arc::new(buf));
            self.retiring = Some((old, vec![delta.clone()]));
        } else if let Some(sole) = Arc::get_mut(&mut self.snapshot) {
            // Sole current handle (nobody holds this epoch): mutate in
            // place. A straggler may still pin an *older* retired
            // snapshot, though — its catch-up lag must grow by this
            // delta or a later reclaim would replay a stale lag and
            // publish a policy missing these entries (or resurrecting
            // digests they revoked).
            applied = sole.apply_delta(delta);
            if let Some((_, lag)) = &mut self.retiring {
                lag.push(delta.clone());
            }
        } else {
            let old = Arc::clone(&self.snapshot);
            applied = Arc::make_mut(&mut self.snapshot).apply_delta(delta);
            self.retiring = Some((old, vec![delta.clone()]));
        }
        self.epoch = self.epoch.next();
        (self.epoch, applied)
    }

    /// Harvests the retired snapshot as the spare buffer if the fleet has
    /// dropped every handle to it (runs automatically at the top of each
    /// [`PolicyStore::publish_delta`]; a still-pinned handle is simply
    /// kept for a later attempt).
    pub fn reclaim(&mut self) {
        if self.spare.is_some() {
            return;
        }
        if let Some((arc, lag)) = self.retiring.take() {
            match Arc::try_unwrap(arc) {
                Ok(policy) => self.spare = Some((policy, lag)),
                Err(arc) => self.retiring = Some((arc, lag)),
            }
        }
    }
}

/// A [`PolicyStore`] shared across scheduler threads, plus a *pin
/// ledger* recording the epoch each agent last adopted.
///
/// Two locks, with a declared total order (see `cia-lint.manifest`):
///
/// 1. `inner` — `RwLock` around the store. Publishes take the write
///    lock; adopt/convergence reads take the read lock.
/// 2. `pins`  — `Mutex` around the per-agent epoch ledger.
///
/// Every method acquires `inner` **before** `pins` (or only one of
/// them). [`ConcurrentPolicyStore::adopt`] deliberately stamps the pin
/// while still holding the `inner` read guard: releasing `inner` first
/// would let a publish slip between snapshot and stamp, recording an
/// adoption of an epoch the agent never saw. That nesting is exactly
/// what the lock order exists to make safe.
///
/// `cia-lint` enforces the order statically where its heuristics can
/// see; the `lock-sanitizer` feature records the runtime acquisition
/// graph and proves it cycle-free across real interleavings.
#[derive(Debug)]
pub struct ConcurrentPolicyStore {
    /// The shared store. Lock order: acquired first.
    inner: RwLock<PolicyStore>,
    /// Agent → last adopted epoch. Lock order: acquired second. The
    /// ledger itself is a [`RaceCell`] so the race detector audits that
    /// every access really is ordered through the `pins` mutex (or
    /// another instrumented edge) — a hand-rolled fast path that peeked
    /// at the map without the lock would be convicted, not missed.
    pins: Mutex<RaceCell<BTreeMap<AgentId, PolicyEpoch>>>,
}

impl Default for ConcurrentPolicyStore {
    fn default() -> Self {
        ConcurrentPolicyStore::new()
    }
}

impl ConcurrentPolicyStore {
    /// A store holding the empty policy at epoch 0, no agents pinned.
    pub fn new() -> Self {
        ConcurrentPolicyStore {
            inner: RwLock::new(PolicyStore::new()).named("inner"),
            pins: Mutex::new(RaceCell::new(BTreeMap::new()).named("pin-ledger")).named("pins"),
        }
    }

    /// A store seeded from an existing snapshot and epoch — how a
    /// federation adopts a single verifier's store as the fleet-wide
    /// one (see [`PolicyStore::restore`]). No agents pinned.
    pub fn restore(snapshot: Arc<RuntimePolicy>, epoch: PolicyEpoch) -> Self {
        ConcurrentPolicyStore {
            inner: RwLock::new(PolicyStore::restore(snapshot, epoch)).named("inner"),
            pins: Mutex::new(RaceCell::new(BTreeMap::new()).named("pin-ledger")).named("pins"),
        }
    }

    /// Publishes a full replacement policy as a new epoch.
    pub fn publish(&self, policy: RuntimePolicy) -> PolicyEpoch {
        self.inner.write().publish(policy)
    }

    /// Publishes a delta (copy-on-write / zero-copy fast path — see
    /// [`PolicyStore::publish_delta`]). Returns the new epoch and the
    /// number of delta entries applied.
    pub fn publish_delta(&self, delta: &PolicyDelta) -> (PolicyEpoch, usize) {
        self.inner.write().publish_delta(delta)
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> PolicyEpoch {
        self.inner.read().epoch()
    }

    /// A cheap handle to the current snapshot (one `Arc` clone).
    pub fn shared(&self) -> SharedPolicy {
        self.inner.read().shared()
    }

    /// Adopts the current snapshot for `agent`: returns the shared
    /// handle and stamps the agent's pin with its epoch, atomically with
    /// respect to publishes (the `inner` read guard is held across the
    /// pin write, so no new epoch can be published in between).
    pub fn adopt(&self, agent: &AgentId) -> SharedPolicy {
        let inner = self.inner.read();
        let shared = inner.shared();
        self.pins
            .lock()
            .get_mut()
            .insert(agent.clone(), shared.epoch);
        shared
    }

    /// The epoch `agent` last adopted, if it ever adopted one.
    pub fn pin_of(&self, agent: &AgentId) -> Option<PolicyEpoch> {
        self.pins.lock().get().get(agent).copied()
    }

    /// Stamps `agent`'s pin at an *observed* epoch — the federation's
    /// post-round sync point, where each shard reports what its agents
    /// actually appraised against (a quarantined agent stays pinned on
    /// the older epoch it acknowledged, unlike [`adopt`], which always
    /// stamps the current one).
    ///
    /// [`adopt`]: ConcurrentPolicyStore::adopt
    pub fn record_pin(&self, agent: &AgentId, epoch: PolicyEpoch) {
        self.pins.lock().get_mut().insert(agent.clone(), epoch);
    }

    /// Removes `agent`'s pin (deregistration), returning it.
    pub fn unpin(&self, agent: &AgentId) -> Option<PolicyEpoch> {
        self.pins.lock().get_mut().remove(agent)
    }

    /// True when every pinned agent has adopted the current epoch.
    /// Both locks are held (in order) so the answer is a consistent cut:
    /// no publish or adoption can land between reading the epoch and
    /// reading the pins.
    pub fn converged(&self) -> bool {
        let inner = self.inner.read();
        let epoch = inner.epoch();
        let pins = self.pins.lock();
        pins.get().values().all(|&pinned| pinned == epoch)
    }

    /// Agents pinned strictly behind the current epoch, oldest first.
    pub fn laggards(&self) -> Vec<(AgentId, PolicyEpoch)> {
        let inner = self.inner.read();
        let epoch = inner.epoch();
        let pins = self.pins.lock();
        let mut out: Vec<(AgentId, PolicyEpoch)> = pins
            .get()
            .iter()
            .filter(|(_, &pinned)| pinned < epoch)
            .map(|(id, &pinned)| (id.clone(), pinned))
            .collect();
        out.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Attempts to reclaim the retired snapshot as the spare buffer
    /// (see [`PolicyStore::reclaim`]).
    pub fn reclaim(&self) {
        self.inner.write().reclaim();
    }

    /// **Deliberately wrong** adoption path: acquires `pins` *before*
    /// `inner`, inverting the declared lock order. Exists only to prove
    /// the `lock-sanitizer` detects inversions — compiled solely under
    /// that feature, and statically suppressed for the same reason.
    #[cfg(feature = "lock-sanitizer")]
    pub fn adopt_inverted(&self, agent: &AgentId) -> SharedPolicy {
        let mut pins = self.pins.lock();
        // lint:allow(lock-order): intentional inversion — this is the
        // seeded violation the sanitizer detection test must flag.
        let inner = self.inner.read();
        let shared = inner.shared();
        pins.get_mut().insert(agent.clone(), shared.epoch);
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy_with(paths: &[&str]) -> RuntimePolicy {
        let mut p = RuntimePolicy::new();
        for path in paths {
            p.allow(*path, "aa");
        }
        p
    }

    #[test]
    fn epochs_are_monotonic() {
        let mut store = PolicyStore::new();
        assert_eq!(store.epoch(), PolicyEpoch::ZERO);
        let e1 = store.publish(policy_with(&["/a"]));
        let e2 = store.publish(policy_with(&["/a", "/b"]));
        assert!(e1 < e2);
        assert_eq!(e2, store.epoch());
        assert_eq!(e1.next(), e2);
        assert_eq!(format!("{e2}"), "e2");
        assert_eq!(store.policy().path_count(), 2);
    }

    #[test]
    fn publish_arc_is_zero_copy() {
        let mut store = PolicyStore::new();
        let snapshot = Arc::new(policy_with(&["/a"]));
        store.publish_arc(Arc::clone(&snapshot));
        // Pointer identity proves no copy was taken (the exact deep-clone
        // counter is asserted single-threaded by the delta-push bench).
        assert!(Arc::ptr_eq(store.snapshot(), &snapshot));
    }

    #[test]
    fn publish_delta_is_copy_on_write() {
        let mut store = PolicyStore::new();
        store.publish(policy_with(&["/a"]));
        // Sole handle: the delta mutates the snapshot in place.
        let in_place = Arc::as_ptr(store.snapshot());
        let (epoch, applied) = store.publish_delta(&PolicyDelta {
            added: vec![("/b".into(), "bb".into())],
            ..PolicyDelta::default()
        });
        assert_eq!(Arc::as_ptr(store.snapshot()), in_place);
        assert_eq!(applied, 1);
        assert_eq!(epoch.as_u64(), 2);
        assert_eq!(store.policy().path_count(), 2);

        // A pinned old snapshot forces one copy-on-write clone — and the
        // pinned handle keeps observing the old epoch's content.
        let pinned = Arc::clone(store.snapshot());
        store.publish_delta(&PolicyDelta {
            added: vec![("/c".into(), "cc".into())],
            ..PolicyDelta::default()
        });
        assert!(!Arc::ptr_eq(&pinned, store.snapshot()));
        assert_eq!(pinned.path_count(), 2, "pinned snapshot is immutable");
        assert_eq!(store.policy().path_count(), 3);
    }

    fn delta_adding(path: &str) -> PolicyDelta {
        PolicyDelta {
            added: vec![(path.into(), "aa".into())],
            ..PolicyDelta::default()
        }
    }

    /// The spare-buffer fast path: once the fleet drops the retired
    /// snapshot, publishes reuse it via the recorded catch-up delta —
    /// and the content stays exactly what sequential application yields.
    #[test]
    fn reclaimed_spare_replays_the_catchup_delta_faithfully() {
        let mut store = PolicyStore::new();
        store.publish(policy_with(&["/a"]));

        // An enrolled fleet: external handles pin the snapshot.
        let fleet = Arc::clone(store.snapshot());
        store.publish_delta(&delta_adding("/b")); // cold: one CoW copy
        drop(fleet); // fleet adopts the new epoch

        // Fast path: the retired epoch-1 buffer ("/a") is reclaimed and
        // must be caught up with the "/b" delta before "/c" lands.
        let fleet = Arc::clone(store.snapshot());
        store.publish_delta(&delta_adding("/c"));
        drop(fleet);
        assert_eq!(store.policy().path_count(), 3);
        for p in ["/a", "/b", "/c"] {
            assert!(store.policy().digests_for(p).is_some(), "{p} missing");
        }

        // And again, one more generation deep.
        let fleet = Arc::clone(store.snapshot());
        store.publish_delta(&delta_adding("/d"));
        drop(fleet);
        assert_eq!(store.policy().path_count(), 4);
        assert_eq!(store.epoch().as_u64(), 4);
    }

    /// Regression (review finding): an in-place publish while a straggler
    /// pins an *older* retired snapshot must extend that snapshot's
    /// catch-up lag. Sequence: publish /a, pin straggler, delta +b (CoW
    /// retires /a), delta +c (current snapshot solely held → in-place),
    /// drop straggler, delta +d (reclaims /a as the spare and replays the
    /// lag). The stale-lag bug silently published a policy missing /c.
    #[test]
    fn in_place_publish_extends_the_pinned_stragglers_catchup_lag() {
        let mut store = PolicyStore::new();
        store.publish(policy_with(&["/a"]));
        let straggler = Arc::clone(store.snapshot());
        store.publish_delta(&delta_adding("/b")); // CoW; /a retires
        store.publish_delta(&delta_adding("/c")); // sole handle: in-place
        drop(straggler);
        store.publish_delta(&delta_adding("/d")); // spare replays lag
        assert_eq!(store.policy().path_count(), 4);
        for p in ["/a", "/b", "/c", "/d"] {
            assert!(store.policy().digests_for(p).is_some(), "{p} missing");
        }
    }

    /// Same shape, but the in-place delta *revokes* a path: the replayed
    /// spare must not resurrect it.
    #[test]
    fn in_place_revocation_survives_spare_reclaim() {
        let mut store = PolicyStore::new();
        store.publish(policy_with(&["/a", "/evil"]));
        let straggler = Arc::clone(store.snapshot());
        store.publish_delta(&delta_adding("/b")); // CoW; old snapshot retires
        store.publish_delta(&PolicyDelta {
            removed_paths: vec!["/evil".into()],
            ..PolicyDelta::default()
        }); // in-place revocation
        drop(straggler);
        store.publish_delta(&delta_adding("/c")); // spare replays lag
        assert!(
            store.policy().digests_for("/evil").is_none(),
            "revoked path resurrected by a stale catch-up lag"
        );
        assert_eq!(store.policy().path_count(), 3);
    }

    /// A straggler pinning the retired snapshot across an epoch degrades
    /// to copy-on-write — never blocks, never corrupts.
    #[test]
    fn straggler_pin_degrades_to_copy_on_write() {
        let mut store = PolicyStore::new();
        store.publish(policy_with(&["/a"]));
        let straggler = Arc::clone(store.snapshot());
        store.publish_delta(&delta_adding("/b"));
        store.publish_delta(&delta_adding("/c")); // straggler still pinned
        store.publish_delta(&delta_adding("/d"));
        assert_eq!(straggler.path_count(), 1, "straggler view frozen");
        assert_eq!(store.policy().path_count(), 4);
    }
}

#[cfg(test)]
mod concurrent_tests {
    use super::*;
    use std::sync::Arc as StdArc;

    fn policy_with(paths: &[&str]) -> RuntimePolicy {
        let mut p = RuntimePolicy::new();
        for path in paths {
            p.allow(*path, "aa");
        }
        p
    }

    fn agent(n: u32) -> AgentId {
        AgentId::new(format!("agent-{n}"))
    }

    #[test]
    fn adopt_pins_the_adopted_epoch() {
        let store = ConcurrentPolicyStore::new();
        store.publish(policy_with(&["/a"]));
        let a = agent(1);
        let shared = store.adopt(&a);
        assert_eq!(shared.epoch, store.epoch());
        assert_eq!(store.pin_of(&a), Some(shared.epoch));
        assert!(store.converged());
    }

    #[test]
    fn publish_after_adopt_breaks_convergence() {
        let store = ConcurrentPolicyStore::new();
        store.publish(policy_with(&["/a"]));
        let (a, b) = (agent(1), agent(2));
        store.adopt(&a);
        store.adopt(&b);
        store.publish(policy_with(&["/a", "/b"]));
        assert!(!store.converged());
        let lag = store.laggards();
        assert_eq!(lag.len(), 2);
        store.adopt(&a);
        store.adopt(&b);
        assert!(store.converged());
        assert!(store.laggards().is_empty());
    }

    #[test]
    fn unpin_removes_the_agent_from_convergence() {
        let store = ConcurrentPolicyStore::new();
        store.publish(policy_with(&["/a"]));
        let a = agent(1);
        store.adopt(&a);
        store.publish(policy_with(&["/a", "/b"]));
        assert!(!store.converged());
        assert_eq!(store.unpin(&a), Some(PolicyEpoch::ZERO.next()));
        assert!(store.converged(), "no pins left, trivially converged");
    }

    #[test]
    fn concurrent_adopt_and_publish_never_skews_pins() {
        // Every recorded pin must be an epoch that was really published,
        // and adopt's snapshot/pin stamp must agree — under contention.
        let store = StdArc::new(ConcurrentPolicyStore::new());
        store.publish(policy_with(&["/seed"]));
        let publisher = {
            let store = StdArc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..50u32 {
                    store.publish(policy_with(&["/seed", &format!("/p{i}")]));
                }
            })
        };
        let adopters: Vec<_> = (0..4)
            .map(|t| {
                let store = StdArc::clone(&store);
                std::thread::spawn(move || {
                    let id = agent(t);
                    for _ in 0..50 {
                        let shared = store.adopt(&id);
                        let pinned = store.pin_of(&id).expect("just adopted");
                        assert!(
                            pinned >= shared.epoch,
                            "pin {pinned} older than adopted {}",
                            shared.epoch
                        );
                    }
                })
            })
            .collect();
        publisher.join().expect("publisher");
        for t in adopters {
            t.join().expect("adopter");
        }
        // Final catch-up converges the fleet.
        for t in 0..4 {
            store.adopt(&agent(t));
        }
        assert!(store.converged());
        assert_eq!(store.epoch().as_u64(), 51);
    }
}
