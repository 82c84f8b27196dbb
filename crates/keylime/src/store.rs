//! The epoch-tagged shared policy store.
//!
//! [`PolicyStore`] holds one `Arc<RuntimePolicy>` snapshot tagged with a
//! monotonically increasing [`PolicyEpoch`]: a fleet-wide push is one
//! `Arc` swap per agent, and [`PolicyStore::publish_delta`] applies a
//! [`PolicyDelta`] copy-on-write, copying only the policy chunks it
//! touches while agents still pin the previous epoch. Per-agent
//! *overrides* remain possible — e.g. the snap-scrubbed subset from
//! §III-B keeps its own policy and opts out of the shared snapshot.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

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

/// The verifier-side shared policy store (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct PolicyStore {
    snapshot: Arc<RuntimePolicy>,
    epoch: PolicyEpoch,
}

impl PolicyStore {
    /// A store holding the empty policy at epoch 0.
    pub fn new() -> Self {
        PolicyStore::default()
    }

    /// Recovery path: a store holding a journaled snapshot at a journaled
    /// epoch — observationally identical to the one that crashed.
    pub fn restore(snapshot: Arc<RuntimePolicy>, epoch: PolicyEpoch) -> Self {
        PolicyStore { snapshot, epoch }
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

    /// Publishes a full replacement policy (or shared snapshot) as a new epoch.
    pub fn publish(&mut self, policy: impl Into<Arc<RuntimePolicy>>) -> PolicyEpoch {
        self.snapshot = policy.into();
        self.epoch = self.epoch.next();
        self.epoch
    }

    /// Applies a generator delta copy-on-write as a new epoch: handles that
    /// pin the previous epoch keep it, sharing every chunk the delta left
    /// alone. Returns the new epoch and the entry operations applied.
    pub fn publish_delta(&mut self, delta: &PolicyDelta) -> (PolicyEpoch, usize) {
        let applied = Arc::make_mut(&mut self.snapshot).apply_delta(delta);
        self.epoch = self.epoch.next();
        (self.epoch, applied)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

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
        store.publish(Arc::clone(&snapshot));
        // Pointer identity proves no copy was taken (the chunk-copy
        // counter is asserted by the delta-push gate in
        // `tests/hot_path_gates.rs`).
        assert!(Arc::ptr_eq(store.snapshot(), &snapshot));
    }

    #[test]
    fn publish_delta_is_copy_on_write() {
        let mut store = PolicyStore::new();
        store.publish(policy_with(&["/a"]));
        // Sole handle: the delta mutates the snapshot in place.
        let in_place = Arc::as_ptr(store.snapshot());
        let (epoch, applied) = store.publish_delta(&delta_adding("/b"));
        assert_eq!(Arc::as_ptr(store.snapshot()), in_place);
        assert_eq!(applied, 1);
        assert_eq!(epoch.as_u64(), 2);
        assert_eq!(store.policy().path_count(), 2);

        // A pinned old snapshot gets a copy-on-write successor — and the
        // pinned handle keeps observing the old epoch's content.
        let pinned = Arc::clone(store.snapshot());
        store.publish_delta(&delta_adding("/c"));
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

    /// One step of a store's life, as the pin-pattern model replays it.
    #[derive(Debug, Clone)]
    enum Op {
        Full(RuntimePolicy),
        Delta(PolicyDelta),
        Pin,
        /// Drops the pin at this index (modulo the pins held).
        Unpin(usize),
    }

    type Model = BTreeMap<String, BTreeSet<String>>;

    fn entries(policy: &RuntimePolicy) -> Model {
        policy
            .entries()
            .map(|(path, set)| (path.to_owned(), set))
            .collect()
    }

    /// What a delta does, spelled out on a plain map.
    fn apply(model: &mut Model, delta: &PolicyDelta) {
        for path in &delta.removed_paths {
            model.remove(path);
        }
        for (path, digest) in &delta.added {
            model
                .entry(path.clone())
                .or_default()
                .insert(digest.clone());
        }
        for (path, keep) in &delta.retired {
            if let Some(set) = model.get_mut(path).filter(|s| s.contains(keep)) {
                set.retain(|d| d == keep);
            }
        }
    }

    /// Replays `ops` against a store and a per-epoch model: after every
    /// step the store equals sequential application of every publish, and
    /// every pinned snapshot still equals the model of its epoch.
    fn check_pin_pattern(ops: &[Op]) {
        let mut store = PolicyStore::new();
        let mut models: Vec<Model> = vec![Model::new()];
        let mut pins: Vec<(usize, Arc<RuntimePolicy>)> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Full(policy) => {
                    models.push(entries(policy));
                    store.publish(policy.clone());
                }
                Op::Delta(delta) => {
                    let mut next = models.last().cloned().unwrap_or_default();
                    apply(&mut next, delta);
                    models.push(next);
                    store.publish_delta(delta);
                }
                Op::Pin => pins.push((models.len() - 1, Arc::clone(store.snapshot()))),
                Op::Unpin(i) if !pins.is_empty() => {
                    pins.remove(i % pins.len());
                }
                Op::Unpin(_) => {}
            }
            assert_eq!(store.epoch().as_u64() as usize, models.len() - 1);
            assert!(
                entries(store.policy()) == models[models.len() - 1],
                "store diverged at step {step} ({op:?})"
            );
            for (epoch, pinned) in &pins {
                assert!(
                    entries(pinned) == models[*epoch],
                    "pin of epoch {epoch} changed at step {step} ({op:?})"
                );
            }
        }
    }

    /// These four sequences each broke the store's old spare/retiring
    /// double buffer (a stale catch-up lag published a policy missing a
    /// path, or resurrected a revoked one); they stay as fixed cases.
    #[test]
    fn reclaimed_spare_replays_the_catchup_delta_faithfully() {
        use Op::*;
        check_pin_pattern(&[
            Full(policy_with(&["/a"])),
            Pin,
            Delta(delta_adding("/b")),
            Unpin(0),
            Pin,
            Delta(delta_adding("/c")),
            Unpin(0),
            Pin,
            Delta(delta_adding("/d")),
            Unpin(0),
        ]);
    }

    #[test]
    fn in_place_publish_extends_the_pinned_stragglers_catchup_lag() {
        use Op::*;
        check_pin_pattern(&[
            Full(policy_with(&["/a"])),
            Pin,
            Delta(delta_adding("/b")),
            Delta(delta_adding("/c")),
            Unpin(0),
            Delta(delta_adding("/d")),
        ]);
    }

    #[test]
    fn in_place_revocation_survives_spare_reclaim() {
        use Op::*;
        check_pin_pattern(&[
            Full(policy_with(&["/a", "/evil"])),
            Pin,
            Delta(delta_adding("/b")),
            Delta(PolicyDelta {
                removed_paths: vec!["/evil".into()],
                ..PolicyDelta::default()
            }),
            Unpin(0),
            Delta(delta_adding("/c")),
        ]);
    }

    #[test]
    fn straggler_pin_degrades_to_copy_on_write() {
        use Op::*;
        check_pin_pattern(&[
            Full(policy_with(&["/a"])),
            Pin,
            Delta(delta_adding("/b")),
            Delta(delta_adding("/c")),
            Delta(delta_adding("/d")),
        ]);
    }

    /// Paths `/p/0000`..: a full publish holds the even ones, so deltas
    /// both edit existing paths and insert between them.
    fn paths(start: u16, len: u16) -> impl Iterator<Item = String> {
        (start..start.saturating_add(len)).map(|i| format!("/p/{i:04}"))
    }

    fn digest(d: u8) -> String {
        format!("{d:064x}")
    }

    /// A full publish of 1,000 paths, parsed from its document so its
    /// chunks are full and the next insert into any of them splits it.
    fn full(d: u8) -> RuntimePolicy {
        let mut policy = RuntimePolicy::new();
        for path in paths(0, 2_000).step_by(2) {
            policy.allow(path, digest(d));
        }
        RuntimePolicy::from_json(&policy.to_json()).unwrap_or_default()
    }

    fn op((kind, start, len, d): (u8, u16, u16, u8)) -> Op {
        let pairs = |start, len| paths(start, len).map(|p| (p, digest(d))).collect();
        match kind {
            0 => Op::Delta(PolicyDelta {
                added: pairs(start, len),
                ..PolicyDelta::default()
            }),
            // Removing a long run empties whole chunks; re-adding part of
            // it lands in whatever chunk took the range over.
            1 => Op::Delta(PolicyDelta {
                removed_paths: paths(start, len).collect(),
                added: pairs(start + len / 2, 20),
                ..PolicyDelta::default()
            }),
            2 => Op::Delta(PolicyDelta {
                added: pairs(start, len / 4),
                retired: pairs(start, len),
                ..PolicyDelta::default()
            }),
            3 => Op::Full(full(d)),
            4 => Op::Pin,
            _ => Op::Unpin(usize::from(start)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any interleaving of delta publishes, full publishes, pins and
        /// unpins: no pinned epoch ever changes, and the store is always
        /// the sequential application of every publish.
        #[test]
        fn any_pin_pattern_keeps_every_epoch_intact(
            steps in proptest::collection::vec((0u8..6, 0u16..2_000, 0u16..600, 0u8..3), 1..24),
        ) {
            let mut ops = vec![Op::Full(full(0)), Op::Pin];
            ops.extend(steps.into_iter().map(op));
            check_pin_pattern(&ops);
        }
    }
}
