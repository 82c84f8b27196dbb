//! Property-based tests for runtime policies and the transport codec.

use cia_crypto::{Digest, HashAlgorithm};
use cia_keylime::{PolicyCheck, PolicyDelta, ReliableTransport, RuntimePolicy, Transport};
use proptest::prelude::*;

fn path() -> impl Strategy<Value = String> {
    "[a-z0-9._/-]{1,30}".prop_map(|s| format!("/{}", s.trim_start_matches('/')))
}

fn digest_hex() -> impl Strategy<Value = String> {
    "[0-9a-f]{64}"
}

proptest! {
    /// Policy JSON serialization round-trips arbitrary contents.
    #[test]
    fn policy_json_roundtrip(
        entries in proptest::collection::vec((path(), digest_hex()), 0..20),
        excludes in proptest::collection::vec(path(), 0..5),
        version in any::<u64>(),
    ) {
        let mut policy = RuntimePolicy::new();
        for (p, d) in &entries {
            policy.allow(p.clone(), d.clone());
        }
        for e in &excludes {
            policy.exclude(e.clone());
        }
        policy.meta.version = version;
        let parsed = RuntimePolicy::from_json(&policy.to_json()).unwrap();
        prop_assert_eq!(parsed, policy);
    }

    /// Every allowed (path, digest) pair checks as Allowed unless an
    /// exclude shadows it; unknown digests are HashMismatch; unknown
    /// paths are NotInPolicy.
    #[test]
    fn check_is_consistent(
        entries in proptest::collection::vec((path(), digest_hex()), 1..20),
        probe_digest in digest_hex(),
    ) {
        let mut policy = RuntimePolicy::new();
        for (p, d) in &entries {
            policy.allow(p.clone(), d.clone());
        }
        for (p, d) in &entries {
            match policy.check(p, d) {
                PolicyCheck::Allowed | PolicyCheck::Excluded => {}
                other => prop_assert!(false, "expected allowed for {p}, got {other:?}"),
            }
            if !entries.iter().any(|(q, e)| q == p && e == &probe_digest) {
                match policy.check(p, &probe_digest) {
                    PolicyCheck::HashMismatch { expected } => {
                        prop_assert!(expected.contains(d));
                    }
                    PolicyCheck::Excluded => {}
                    other => prop_assert!(false, "expected mismatch for {p}, got {other:?}"),
                }
            }
        }
        prop_assert_eq!(policy.line_count(), policy.entries().map(|(_, s)| s.len()).sum::<usize>());
    }

    /// Excluding a prefix excludes the whole subtree and nothing outside
    /// the component boundary.
    #[test]
    fn exclusion_prefix_semantics(prefix in path(), child in "[a-z0-9]{1,8}") {
        let mut policy = RuntimePolicy::new();
        policy.exclude(prefix.clone());
        let under = format!("{}/{}", prefix, child);
        let sibling = format!("{}{}", prefix, child);
        prop_assert!(policy.is_excluded(&prefix));
        prop_assert!(policy.is_excluded(&under));
        prop_assert!(!policy.is_excluded(&sibling));
        // Removing restores visibility.
        policy.remove_exclude(&prefix);
        prop_assert!(!policy.is_excluded(&under));
    }

    /// Dedup keeps exactly the retained digest when it is present.
    #[test]
    fn dedup_retains_exactly_one(
        target in path(),
        digests in proptest::collection::vec(digest_hex(), 1..6),
    ) {
        let mut policy = RuntimePolicy::new();
        for d in &digests {
            policy.allow(target.clone(), d.clone());
        }
        let keep = digests.last().unwrap().clone();
        policy.dedup_retain(&target, &keep);
        let set = policy.digests_for(&target).unwrap();
        prop_assert_eq!(set.len(), 1);
        prop_assert!(set.contains(&keep));
    }

    /// The typed digest check agrees with the hex-string check on
    /// arbitrary policies, probes and exclude prefixes — rendering the
    /// digest on the stack is never a semantic change.
    #[test]
    fn check_digest_agrees_with_legacy_check(
        entries in proptest::collection::vec((path(), digest_hex()), 0..20),
        excludes in proptest::collection::vec(path(), 0..5),
        probe_path in path(),
        probe_digest in digest_hex(),
    ) {
        let mut policy = RuntimePolicy::new();
        for (p, d) in &entries {
            policy.allow(p.clone(), d.clone());
        }
        for e in &excludes {
            policy.exclude(e.clone());
        }
        // Probe an arbitrary path, every allowed path, and every exclude
        // prefix, with both an arbitrary digest and each allowed digest.
        let mut probes: Vec<(&str, &str)> = vec![(&probe_path, &probe_digest)];
        for (p, d) in &entries {
            probes.push((p, &probe_digest));
            probes.push((p, d));
            probes.push((&probe_path, d));
        }
        for e in &excludes {
            probes.push((e, &probe_digest));
        }
        for (p, d) in probes {
            let typed = Digest::parse_hex(HashAlgorithm::Sha256, d).unwrap();
            prop_assert_eq!(
                policy.check_digest(p, &typed),
                policy.check(p, d),
                "divergence at path {} digest {}", p, d
            );
        }
    }

    /// The transport codec is lossless for arbitrary JSON-serializable
    /// payloads.
    #[test]
    fn transport_codec_lossless(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut transport = ReliableTransport::new();
        let echoed: Vec<u8> = transport.call(&payload, |p: Vec<u8>| p).unwrap();
        prop_assert_eq!(echoed, payload);
    }
}

// --- Delta application ---------------------------------------------------

/// A small pool of paths/digests so random deltas actually collide with
/// prior policy state (re-add after removal, retire, additions to an
/// existing path, brand-new paths).
fn pool_path() -> impl Strategy<Value = String> {
    (0u8..8).prop_map(|i| format!("/bin/p{i}"))
}

fn pool_digest() -> impl Strategy<Value = String> {
    // Mostly canonical digests from a 6-value pool; roughly one in seven
    // is non-canonical — those keep their policy slot but can never
    // match a measured digest (HashMismatch, not NotInPolicy).
    (0u8..7).prop_map(|i| {
        if i < 6 {
            format!("{i:064x}")
        } else {
            "NOT-CANONICAL-HEX".to_string()
        }
    })
}

fn arb_delta() -> impl Strategy<Value = PolicyDelta> {
    (
        proptest::collection::vec((pool_path(), pool_digest()), 0..6),
        proptest::collection::vec(pool_path(), 0..3),
        proptest::collection::vec((pool_path(), pool_digest()), 0..3),
        0u8..3,
    )
        .prop_map(|(added, removed_paths, retired, staged)| PolicyDelta {
            added,
            removed_paths,
            retired,
            staged_kernels: (0..staged).map(|i| format!("6.1.0-{i}")).collect(),
            ..PolicyDelta::default()
        })
}

proptest! {
    /// Incremental delta application is indistinguishable from
    /// rebuilding the policy from the merged JSON: structurally
    /// (`PolicyDiff` empty) and bit-for-bit (JSON), for arbitrary delta
    /// sequences.
    #[test]
    fn apply_delta_equals_rebuild_from_merged_json(
        base in proptest::collection::vec((pool_path(), pool_digest()), 0..10),
        deltas in proptest::collection::vec(arb_delta(), 1..6),
    ) {
        let mut incremental = RuntimePolicy::new();
        for (p, d) in &base {
            incremental.allow(p.clone(), d.clone());
        }
        let mut reference = RuntimePolicy::from_json(&incremental.to_json()).unwrap();

        for (i, delta) in deltas.iter().enumerate() {
            let mut delta = delta.clone();
            delta.meta.version = i as u64 + 1;
            incremental.apply_delta(&delta);

            // Reference path: same mutations, then a full JSON round-trip
            // so nothing but the document carries over.
            for path in &delta.removed_paths {
                reference.remove_path(path);
            }
            for (path, digest) in &delta.added {
                reference.allow(path.clone(), digest.clone());
            }
            for (path, keep) in &delta.retired {
                reference.dedup_retain(path, keep);
            }
            reference.meta = delta.meta.clone();
            reference = RuntimePolicy::from_json(&reference.to_json()).unwrap();

            prop_assert!(
                incremental.diff(&reference).is_empty(),
                "delta {i} diverged: {:?}", incremental.diff(&reference)
            );
            prop_assert_eq!(incremental.to_json(), reference.to_json());
        }
    }
}
