//! Fixture corpus self-test: every rule fires at exactly the expected
//! `file:line` pairs on the known-bad fixtures and stays completely
//! silent on the known-good ones.
//!
//! The fixtures live in `tests/fixtures/` — a directory the workspace
//! walker deliberately skips, so the deliberately-broken corpus never
//! pollutes a real `cia-lint --check` run.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use cia_lint::rules::lock_order;
use cia_lint::{lint_source, lint_sources, walk, FileContext, Finding, Manifest};

/// The manifest fixtures are linted under: both panic fixtures are
/// declared hot paths; the lock order mirrors the real workspace.
fn manifest() -> Manifest {
    Manifest::parse(
        "hot-path crates/fixture/src/bad_panic.rs\n\
         hot-path crates/fixture/src/good_panic.rs\n\
         lock-order inner pins map\n\
         lock-ignore stdout\n",
    )
    .expect("fixture manifest parses")
}

/// Reads one fixture file.
fn fixture_source(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lints one fixture file under a pipeline-shaped pseudo path.
fn lint_fixture(name: &str) -> Vec<Finding> {
    lint_fixture_with(name, &manifest())
}

/// Same, with a caller-supplied manifest (the taint fixtures declare
/// their own `[taint]` inputs so they don't cross-contaminate the
/// file-local fixture runs).
fn lint_fixture_with(name: &str, manifest: &Manifest) -> Vec<Finding> {
    lint_source(
        &format!("crates/fixture/src/{name}"),
        &fixture_source(name),
        manifest,
    )
}

/// `(rule, line)` pairs, sorted, for exact comparison.
fn fired(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    let mut pairs: Vec<(&'static str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    pairs.sort_unstable();
    pairs
}

#[test]
fn determinism_fires_at_exact_lines() {
    let findings = lint_fixture("bad_determinism.rs");
    assert_eq!(
        fired(&findings),
        vec![
            ("determinism", 7),
            ("determinism", 11),
            ("determinism", 15),
            ("determinism", 16),
            ("determinism", 17),
        ],
        "{findings:#?}"
    );
}

#[test]
fn determinism_stays_silent_on_good() {
    let findings = lint_fixture("good_determinism.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn panic_path_fires_at_exact_lines() {
    let findings = lint_fixture("bad_panic.rs");
    assert_eq!(
        fired(&findings),
        vec![
            ("panic-path", 4),
            ("panic-path", 5),
            ("panic-path", 7),
            ("panic-path", 11),
            ("panic-path", 12),
            ("panic-path", 13),
        ],
        "{findings:#?}"
    );
}

#[test]
fn panic_path_stays_silent_on_good() {
    let findings = lint_fixture("good_panic.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn lock_order_fires_at_exact_lines() {
    let findings = lint_fixture("bad_lock_order.rs");
    assert_eq!(
        fired(&findings),
        vec![
            ("lock-order", 5),
            ("lock-order", 12),
            ("lock-order", 16),
            ("lock-order", 21),
        ],
        "{findings:#?}"
    );
    // The four failure modes are distinguishable in the messages.
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages[0].contains("inverts"), "{messages:?}");
    assert!(messages[1].contains("self-deadlocks"), "{messages:?}");
    assert!(
        messages[2].contains("not in the lock-order manifest"),
        "{messages:?}"
    );
    assert!(messages[3].contains("transport"), "{messages:?}");
}

#[test]
fn lock_order_stays_silent_on_good() {
    let findings = lint_fixture("good_lock_order.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn wire_hygiene_fires_at_exact_lines() {
    let findings = lint_fixture("bad_wire.rs");
    assert_eq!(
        fired(&findings),
        vec![
            ("wire-hygiene", 10),
            ("wire-hygiene", 18),
            ("wire-hygiene", 30)
        ],
        "{findings:#?}"
    );
}

#[test]
fn wire_hygiene_stays_silent_on_good() {
    let findings = lint_fixture("good_wire.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn reasonless_suppressions_are_flagged_but_still_suppress() {
    let findings = lint_fixture("bad_allow.rs");
    assert_eq!(
        fired(&findings),
        vec![("allow-syntax", 5), ("allow-syntax", 11)],
        "suppressed rules must not double-report: {findings:#?}"
    );
}

#[test]
fn allow_above_attributes_suppresses_the_item() {
    let findings = lint_fixture("allow_attr.rs");
    assert!(
        findings.is_empty(),
        "suppression must skip #[…] lines and land on the item: {findings:#?}"
    );
}

/// Taint config the taint fixtures are linted under.
fn taint_manifest() -> Manifest {
    Manifest::parse(
        "[taint]\nsource recv_frame\nsource read_frame\n\
         sanitizer from_wire\nsanitizer check_crc\nsanitizer decode\n",
    )
    .unwrap()
}

#[test]
fn taint_fires_on_unsanitized_index() {
    let findings = lint_fixture_with("bad_taint.rs", &taint_manifest());
    assert_eq!(fired(&findings), vec![("taint", 7)], "{findings:#?}");
    assert!(
        findings[0].message.contains("raw transport bytes"),
        "{findings:#?}"
    );
}

#[test]
fn taint_stays_silent_on_good() {
    let findings = lint_fixture_with("good_taint.rs", &taint_manifest());
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn taint_propagates_across_files_into_bytes_params() {
    // `serve` forwards raw frame bytes into `peek`, defined in another
    // file; the violation surfaces at peek's indexing line.
    let a = "pub fn serve(rx: &mut Conn) -> Result<u8, E> {\n    let payload = rx.recv_frame()?;\n    let k = peek(&payload);\n    let cmd = Command::from_wire(&payload)?;\n    Ok(k)\n}\n";
    let b = "pub fn peek(buf: &[u8]) -> u8 {\n    buf[0]\n}\n";
    let findings = lint_sources(
        &[
            ("crates/fixture/src/xfile_a.rs", a),
            ("crates/fixture/src/xfile_b.rs", b),
        ],
        &taint_manifest(),
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].path, "crates/fixture/src/xfile_b.rs");
    assert_eq!(findings[0].line, 2, "{findings:#?}");
}

#[test]
fn taint_respects_trusted_prefixes() {
    let m = Manifest::parse(
        "[taint]\nsource recv_frame\nsanitizer from_wire\ntrusted crates/fixture/\n",
    )
    .unwrap();
    let findings = lint_fixture_with("bad_taint.rs", &m);
    assert!(findings.is_empty(), "{findings:#?}");
}

/// The workspace itself lints clean against its own manifest: this is the
/// `cia-lint --check` gate, run by a plain `cargo test`.
#[test]
fn the_workspace_has_no_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = cia_lint::lint_workspace(&root, &root.join("cia-lint.manifest"))
        .expect("workspace manifest and sources readable");
    assert!(
        findings.is_empty(),
        "{}",
        cia_lint::report::human(&findings)
    );
}

/// The real workspace manifest parses and declares what the docs say it
/// declares — a drift guard between `cia-lint.manifest` and the rules.
#[test]
fn workspace_manifest_is_coherent() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../cia-lint.manifest");
    let text = fs::read_to_string(&path).expect("workspace manifest exists");
    let m = Manifest::parse(&text).expect("workspace manifest parses");
    assert!(m.is_hot_path("crates/ima/src/appraise.rs"));
    assert!(m.is_hot_path("crates/keylime/src/verifier.rs"));
    assert!(m.is_hot_path("crates/keylime/src/scheduler.rs"));
    assert!(m.is_hot_path("crates/keylime/src/store.rs"));
    let rank = |name: &str| {
        m.lock_rank(name)
            .unwrap_or_else(|| panic!("`{name}` missing from lock-order"))
    };
    assert_eq!(rank("map"), 0);
    assert!(rank("map") < rank("totals"), "map before totals");
    assert!(
        rank("queue") < rank("SPARE_WIRES"),
        "queue before SPARE_WIRES"
    );
    assert!(m.determinism_allowed("crates/bench/src/main.rs"));
    assert!(m.taint.sources.iter().any(|s| s == "recv_frame"));
    assert!(m.taint.sanitizers.iter().any(|s| s == "from_wire"));
    assert!(m.taint_trusted("crates/wire/src/codec.rs"));
}

/// Drift guard v2: a crate under `crates/` that gains a `wire.rs`,
/// `remote.rs`, `durable.rs` or `transport.rs` must declare it as a hot
/// path in `cia-lint.manifest` — new wire/durability surfaces cannot
/// silently dodge the panic-free rule (and the reviewer's eye) just by
/// being new.
#[test]
fn every_wire_surface_is_a_declared_hot_path() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = fs::read_to_string(root.join("cia-lint.manifest")).expect("manifest exists");
    let m = Manifest::parse(&text).expect("workspace manifest parses");

    let crates_dir = root.join("crates");
    let mut missing = Vec::new();
    for entry in fs::read_dir(&crates_dir).expect("crates/ readable") {
        let entry = entry.expect("dir entry");
        let src = entry.path().join("src");
        if !src.is_dir() {
            continue;
        }
        for name in ["wire.rs", "remote.rs", "durable.rs", "transport.rs"] {
            if src.join(name).is_file() {
                let rel = format!("crates/{}/src/{name}", entry.file_name().to_string_lossy());
                if !m.is_hot_path(&rel) {
                    missing.push(rel);
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "wire/remote/durable/transport files missing a `hot-path` manifest entry: {missing:?}"
    );
}

/// Declared locks that no pipeline source among `sources` acquires. A
/// rank for a lock the code no longer takes is manifest drift: it would
/// keep describing an order nothing follows.
fn unacquired_locks(m: &Manifest, sources: &[(String, String)]) -> Vec<String> {
    let acquired: BTreeSet<String> = sources
        .iter()
        .filter(|(path, _)| path.starts_with("crates/") || path.starts_with("src/"))
        .flat_map(|(path, source)| lock_order::acquired_locks(&FileContext::new(path, source)))
        .collect();
    m.lock_order
        .keys()
        .filter(|name| !acquired.contains(*name))
        .cloned()
        .collect()
}

/// Drift guard, the other direction: every lock `cia-lint.manifest`
/// ranks still has at least one acquisition site in the workspace.
#[test]
fn every_declared_lock_is_acquired_somewhere() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = fs::read_to_string(root.join("cia-lint.manifest")).expect("manifest exists");
    let m = Manifest::parse(&text).expect("workspace manifest parses");
    let sources: Vec<(String, String)> = walk::rust_sources(&root)
        .expect("workspace walkable")
        .into_iter()
        .map(|rel| {
            let source = fs::read_to_string(root.join(&rel)).expect("source readable");
            (rel, source)
        })
        .collect();
    let stale = unacquired_locks(&m, &sources);
    assert!(
        stale.is_empty(),
        "lock-order names locks nothing acquires: {stale:?}"
    );
}

#[test]
fn a_declared_lock_without_an_acquisition_site_is_drift() {
    let m = Manifest::parse("lock-order map world\n").expect("parses");
    let source = "fn f(c: &C) {\n    let m = c.map.read();\n}\n\
                  #[cfg(test)]\nmod tests {\n    fn g(b: &B) { b.world.lock(); }\n}\n";
    let sources = [("crates/x/src/lib.rs".to_string(), source.to_string())];
    assert_eq!(unacquired_locks(&m, &sources), ["world"]);
}
