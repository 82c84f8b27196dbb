//! The workspace's clippy gates, each proven to bite.
//!
//! Determinism, panic-path and the lock ban are clippy's: the fixture
//! crate `tests/fixtures/clippy` is linted by `cargo clippy` under the
//! workspace `clippy.toml`, and its findings are asserted by file and
//! line. A configuration entry that stops biting fails here, not
//! silently in the clippy gate. The fixture crate has a `[workspace]` of
//! its own, so the workspace's clippy gate never sees the deliberately
//! broken corpus.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn fixtures() -> PathBuf {
    workspace_root().join("tests/fixtures")
}

/// One clippy finding in the fixture crate: file under `src/`, line,
/// message.
type Diagnostic = (String, u32, String);

/// Runs `cargo clippy --all-targets` once over the fixture crate with
/// the workspace `clippy.toml` and returns its findings, sorted and
/// deduplicated (the lib and its test build report shared lines twice).
fn clippy_findings() -> &'static [Diagnostic] {
    static FINDINGS: OnceLock<Vec<Diagnostic>> = OnceLock::new();
    FINDINGS.get_or_init(|| {
        let output = Command::new(env!("CARGO"))
            .args(["clippy", "--offline", "--quiet", "--all-targets"])
            .args(["--message-format=short", "--target-dir"])
            .arg(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixture"))
            .current_dir(fixtures().join("clippy"))
            .env("CLIPPY_CONF_DIR", workspace_root())
            .output()
            .expect("cargo runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let mut found: Vec<Diagnostic> = stderr
            .lines()
            .filter_map(|line| {
                // `src/<file>:<line>:<col>: <level>: <message>`
                let (file, rest) = line.strip_prefix("src/")?.split_once(':')?;
                let (line, rest) = rest.split_once(':')?;
                let (_col, rest) = rest.split_once(": ")?;
                let (_level, message) = rest.split_once(": ")?;
                Some((file.to_string(), line.parse().ok()?, message.to_string()))
            })
            .collect();
        assert!(
            !found.is_empty(),
            "cargo clippy reported nothing on a fixture built to fail:\n{stderr}"
        );
        found.sort();
        found.dedup();
        found
    })
}

/// Clippy's findings in one fixture file, in line order.
fn clippy_fixture(file: &str) -> Vec<&'static Diagnostic> {
    clippy_findings()
        .iter()
        .filter(|(f, ..)| f == file)
        .collect()
}

fn lines(found: &[&Diagnostic]) -> Vec<u32> {
    found.iter().map(|(_, line, _)| *line).collect()
}

#[test]
fn determinism_fires_at_exact_lines() {
    let found = clippy_fixture("bad_determinism.rs");
    assert_eq!(
        lines(&found),
        vec![4, 4, 5, 10, 14, 18, 25, 34, 39, 40],
        "{found:#?}"
    );
    let methods: Vec<u32> = found
        .iter()
        .filter(|(_, _, m)| m.starts_with("use of a disallowed method"))
        .map(|(_, line, _)| *line)
        .collect();
    assert_eq!(methods, vec![10, 14, 18], "{found:#?}");
}

#[test]
fn determinism_stays_silent_on_good() {
    let found = clippy_fixture("good_determinism.rs");
    assert!(found.is_empty(), "{found:#?}");
}

/// The shapes the retired `wire-hygiene` rule guarded — a hash-seeded
/// container whose order reaches a serializer — fire as disallowed
/// types wherever the type is named.
#[test]
fn wire_hygiene_fires_at_exact_lines() {
    let seeded: Vec<u32> = clippy_fixture("bad_determinism.rs")
        .iter()
        .filter(|(_, _, m)| m.starts_with("use of a disallowed type"))
        .map(|(_, line, _)| *line)
        .collect();
    assert_eq!(seeded, vec![4, 4, 5, 25, 34, 39, 40]);
}

/// An ordered map on the wire is silent on its own merits; the hash map
/// beside it is silent only because of its reasoned expectation — were
/// the type not flagged, the expectation would be unfulfilled and
/// reported.
#[test]
fn wire_hygiene_stays_silent_on_good() {
    let source = fs::read_to_string(fixtures().join("clippy/src/good_determinism.rs"))
        .expect("fixture readable");
    assert!(
        source.contains("clippy::disallowed_types")
            && source.contains("index: std::collections::HashMap"),
        "fixture keeps its expectation on the hash map"
    );
    let found = clippy_fixture("good_determinism.rs");
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn panic_path_fires_at_exact_lines() {
    let found = clippy_fixture("bad_panic.rs");
    assert_eq!(
        lines(&found),
        vec![10, 11, 13, 15, 18, 19, 20],
        "{found:#?}"
    );
}

#[test]
fn panic_path_stays_silent_on_good() {
    let found = clippy_fixture("good_panic.rs");
    assert!(found.is_empty(), "{found:#?}");
}

/// A reasonless expectation is a finding of its own but still silences
/// its lint (one finding, not two); a stale one is a finding too.
#[test]
fn reasonless_suppressions_are_flagged_but_still_suppress() {
    let found = clippy_fixture("bad_allow.rs");
    assert_eq!(lines(&found), vec![6, 11], "{found:#?}");
    assert!(
        found[0].2.contains("without specifying a reason"),
        "{found:#?}"
    );
    assert!(
        found[1].2.contains("expectation is unfulfilled"),
        "{found:#?}"
    );
}

#[test]
fn allow_above_attributes_suppresses_the_item() {
    let found = clippy_fixture("allow_attr.rs");
    assert!(found.is_empty(), "{found:#?}");
}

/// `Mutex` and `RwLock` are flagged wherever they are named, by import,
/// type or constructor path; a channel is not, and neither is a lock
/// declared once under a reasoned expectation — were the alias not
/// flagged, its expectation would be unfulfilled and reported.
#[test]
fn lock_ban_fires_at_exact_lines() {
    let found = clippy_fixture("bad_lock.rs");
    assert_eq!(lines(&found), vec![4, 4, 7, 8, 13, 14], "{found:#?}");
    assert!(
        (found.iter()).all(|(_, _, m)| m.starts_with("use of a disallowed type")),
        "{found:#?}"
    );
}

/// The panic-family lints a hot-path crate denies at its root, as the
/// fixture crate does.
const PANIC_LINTS: [&str; 7] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::allow_attributes_without_reason",
];

/// Drift guard: a crate under `crates/` with a `wire.rs`, `remote.rs`,
/// `durable.rs` or `transport.rs` owns a hot path, so its `lib.rs` must
/// deny every panic-family lint. A new wire or durability surface cannot
/// dodge the panic-free rule just by being new.
#[test]
fn every_wire_surface_is_a_declared_hot_path() {
    let mut missing = Vec::new();
    for entry in fs::read_dir(workspace_root().join("crates")).expect("crates/ readable") {
        let src = entry.expect("dir entry").path().join("src");
        let surfaces = ["wire.rs", "remote.rs", "durable.rs", "transport.rs"];
        if !surfaces.iter().any(|name| src.join(name).is_file()) {
            continue;
        }
        let root = fs::read_to_string(src.join("lib.rs")).unwrap_or_default();
        let denied = root
            .split_once("#![deny(")
            .and_then(|(_, rest)| rest.split_once(")]"))
            .map_or("", |(list, _)| list);
        for lint in PANIC_LINTS {
            if !denied.contains(lint) {
                missing.push(format!("{}: {lint}", src.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "hot-path crate roots missing a panic-lint deny: {missing:#?}"
    );
}
