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

/// Filler paths `/bin/f000`.. that sort before every pool path; a base
/// with a few hundred of them spans several policy chunks.
fn filler(start: u16, len: u16) -> impl Iterator<Item = String> {
    (start..start + len).map(|i| format!("/bin/f{i:03}"))
}

proptest! {
    /// Incremental delta application is indistinguishable from
    /// rebuilding the policy from the merged JSON: structurally
    /// (`PolicyDiff` empty) and bit-for-bit (JSON), for arbitrary delta
    /// sequences. A large base spans several chunks, and each delta can
    /// remove a run of filler paths (emptying whole chunks) and add a run
    /// back (splitting the chunk that takes them).
    #[test]
    fn apply_delta_equals_rebuild_from_merged_json(
        base in proptest::collection::vec((pool_path(), pool_digest()), 0..10),
        bulk in prop_oneof![Just(0u16), 0u16..900],
        deltas in proptest::collection::vec((arb_delta(), 0u16..900, 0u16..300, 0u16..300), 1..6),
    ) {
        let mut incremental = RuntimePolicy::new();
        for path in filler(0, bulk) {
            incremental.allow(path, format!("{:064x}", 0));
        }
        for (p, d) in &base {
            incremental.allow(p.clone(), d.clone());
        }
        let mut reference = RuntimePolicy::from_json(&incremental.to_json()).unwrap();

        for (i, (delta, start, cut, grow)) in deltas.iter().enumerate() {
            let mut delta = delta.clone();
            delta.meta.version = i as u64 + 1;
            delta.removed_paths.extend(filler(*start, *cut));
            delta.added.extend(filler(start + cut / 2, *grow).map(|p| (p, format!("{i:064x}"))));
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

// --- Model equivalence over every digest shape ---------------------------

/// Digest text of every shape a policy document can carry: canonical
/// 64-, 40- and 2-digit hex, which a policy holds as raw bytes, and the
/// upper-case, odd-length, non-hex, empty and 66-digit text it keeps
/// verbatim. A few fixed values per shape make sets collide.
fn digest_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[0-9a-f]{64}",
        "[0-9a-f]{40}",
        "[0-9a-f]{2}",
        "[0-9A-F]{64}",
        "[0-9a-f]{1,5}",
        "[g-z!.-]{1,8}",
        "[0-9a-f]{66}",
        (0u8..12).prop_map(|i| match i % 6 {
            0 => format!("{i:064x}"),
            1 => format!("{i:040x}"),
            2 => format!("{i:02x}"),
            3 => format!("{i:064X}"),
            4 => format!("{i:03x}"),
            _ => String::new(),
        }),
    ]
}

/// Paths a model test edits and probes (the last is never added). Past
/// the prefix a chunk's paths share, some differ only after 8 more bytes.
const MODEL_PATHS: [&str; 9] = [
    "/m/p0",
    "/m/p1",
    "/m/p2",
    "/m/p3/lib/modules/a.ko",
    "/m/p3/lib/modules/b.ko",
    "/m/p3/lib/modules/b.ko.xz",
    "/m/p3/lib/mod",
    "/m",
    "/m/p9",
];

fn model_path() -> impl Strategy<Value = String> {
    (0..MODEL_PATHS.len() - 1).prop_map(|i| MODEL_PATHS[i].to_string())
}

#[derive(Debug, Clone)]
enum ModelOp {
    Allow(String, String),
    RemovePath(String),
    DedupRetain(String, String),
    ApplyDelta(PolicyDelta),
}

fn model_op() -> impl Strategy<Value = ModelOp> {
    let allow = || (model_path(), digest_text()).prop_map(|(p, d)| ModelOp::Allow(p, d));
    prop_oneof![
        allow(),
        allow(),
        allow(),
        model_path().prop_map(ModelOp::RemovePath),
        (model_path(), digest_text()).prop_map(|(p, d)| ModelOp::DedupRetain(p, d)),
        // Retire a digest the path most likely holds: one of the fixed ones.
        (model_path(), 0u8..12).prop_map(|(p, i)| ModelOp::DedupRetain(p, format!("{i:02x}"))),
        (
            proptest::collection::vec((model_path(), digest_text()), 0..4),
            proptest::collection::vec(model_path(), 0..2),
            proptest::collection::vec((model_path(), digest_text()), 0..2),
        )
            .prop_map(|(added, removed_paths, retired)| {
                ModelOp::ApplyDelta(PolicyDelta {
                    added,
                    removed_paths,
                    retired,
                    ..PolicyDelta::default()
                })
            }),
    ]
}

type Model = std::collections::BTreeMap<String, std::collections::BTreeSet<String>>;

fn model_dedup(model: &mut Model, path: &str, keep: &str) {
    if let Some(set) = model.get_mut(path) {
        if set.len() > 1 && set.contains(keep) {
            set.retain(|d| d == keep);
        }
    }
}

fn model_check(model: &Model, path: &str, digest: &str) -> PolicyCheck {
    match model.get(path) {
        None => PolicyCheck::NotInPolicy,
        Some(set) if set.contains(digest) => PolicyCheck::Allowed,
        Some(set) => PolicyCheck::HashMismatch {
            expected: set.iter().cloned().collect(),
        },
    }
}

fn model_document(model: &Model) -> String {
    format!(
        r#"{{"digests":{},"excludes":[],"meta":{{"version":0,"generator":"","generated_day":0}}}}"#,
        serde_json::to_string(model).unwrap()
    )
}

proptest! {
    /// A policy behaves as a plain map of digest strings under every
    /// mutator, whatever shape its digests take: raw or verbatim storage
    /// is never visible in a check, a rendered set, a count or the
    /// document. The start is a parsed document, so empty sets occur.
    #[test]
    fn policy_equals_a_string_map_model(
        start in proptest::collection::vec(
            (model_path(), proptest::collection::vec(digest_text(), 0..3)),
            0..5,
        ),
        ops in proptest::collection::vec(model_op(), 1..24),
        probes in proptest::collection::vec(digest_text(), 0..4),
    ) {
        let mut model: Model = start
            .into_iter()
            .map(|(path, digests)| (path, digests.into_iter().collect()))
            .collect();
        let mut policy = RuntimePolicy::from_json(&model_document(&model)).unwrap();
        let mut probes = probes;
        for op in &ops {
            match op {
                ModelOp::Allow(path, digest) => {
                    policy.allow(path, digest);
                    model.entry(path.clone()).or_default().insert(digest.clone());
                }
                ModelOp::RemovePath(path) => {
                    prop_assert_eq!(policy.remove_path(path), model.remove(path).is_some());
                }
                ModelOp::DedupRetain(path, keep) => {
                    policy.dedup_retain(path, keep);
                    model_dedup(&mut model, path, keep);
                }
                ModelOp::ApplyDelta(delta) => {
                    prop_assert_eq!(policy.apply_delta(delta), delta.len());
                    for path in &delta.removed_paths {
                        model.remove(path);
                    }
                    for (path, digest) in &delta.added {
                        model.entry(path.clone()).or_default().insert(digest.clone());
                    }
                    for (path, keep) in &delta.retired {
                        model_dedup(&mut model, path, keep);
                    }
                }
            }

            probes.extend(model.values().flatten().cloned());
            for path in MODEL_PATHS {
                prop_assert_eq!(policy.digests_for(path), model.get(path).cloned());
                for digest in &probes {
                    let expected = model_check(&model, path, digest);
                    prop_assert_eq!(policy.check(path, digest), expected.clone(), "{} {:?}", path, digest);
                    let algorithm = match digest.len() {
                        64 => HashAlgorithm::Sha256,
                        40 => HashAlgorithm::Sha1,
                        _ => continue,
                    };
                    if digest.bytes().all(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f')) {
                        let typed = Digest::parse_hex(algorithm, digest).unwrap();
                        prop_assert_eq!(policy.check_digest(path, &typed), expected);
                    }
                }
            }
            let entries: Model = policy.entries().map(|(p, s)| (p.to_owned(), s)).collect();
            prop_assert_eq!(&entries, &model);
            prop_assert_eq!(policy.line_count(), model.values().map(|s| s.len()).sum::<usize>());
            prop_assert_eq!(policy.path_count(), model.len());
            prop_assert_eq!(policy.to_json(), model_document(&model));
            probes.truncate(4);
        }
    }
}
