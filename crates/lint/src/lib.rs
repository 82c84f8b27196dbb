//! `cia-lint` — the workspace's own static-analysis pass.
//!
//! A dependency-free linter (pure `std`, its own token scanner) that
//! enforces the attestation pipeline's load-bearing invariants, the
//! ones `rustc` and clippy cannot see because they are *this repo's*
//! contracts, not the language's:
//!
//! * **`determinism`** — no ambient wall-clock or entropy outside
//!   manifest-allowlisted modules; chaos replay must be bit-identical.
//! * **`panic-path`** — no `unwrap`/`expect`/`panic!`-family calls in
//!   declared hot paths outside `#[cfg(test)]`.
//! * **`lock-order`** — every named lock is ranked in a manifest;
//!   nested acquisitions must follow the declared total order, and no
//!   guard may be held across a `Transport::call`.
//! * **`wire-hygiene`** — no `HashMap`/`HashSet` iteration feeding
//!   serialized output.
//! * **`allow-syntax`** — every `lint:allow` suppression must carry a
//!   `: reason` clause.
//!
//! On top of the file-local rules, a **two-pass cross-file engine**
//! (pass 1: [`facts`] extraction per file over the [`parse`] item tree;
//! pass 2: workspace-wide joins in [`rules::lint_semantic`]) enforces:
//!
//! * **`taint`** — raw bytes from `[taint]` sources (`recv_frame`) may
//!   not be indexed/sliced/`from_utf8`-unwrapped before a sanitizer
//!   (`from_wire`, `check_crc`) runs, across function and file
//!   boundaries.
//!
//! Contracts the compiler or the test suites already hold are not
//! re-checked here: every `Wire` impl has a round-trip test next to it,
//! and the journal-recovery and shard-protocol consumers deny wildcard
//! arms through clippy.
//!
//! See `cia-lint.manifest` at the workspace root for the declared hot
//! paths, determinism allowlist, lock order and taint configuration.

pub mod facts;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod report;
pub mod rules;
pub mod source;
pub mod walk;

use std::fmt;
use std::fs;
use std::path::Path;

pub use manifest::Manifest;
pub use rules::{lint_file, lint_semantic, Finding};
pub use source::FileContext;

/// A failure of the lint run itself (not a finding).
#[derive(Debug)]
pub enum LintError {
    /// Manifest missing or unparseable.
    Manifest(String),
    /// Traversal or file-read failure.
    Io(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Manifest(m) => write!(f, "manifest error: {m}"),
            LintError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Lints every production source file under `root` against the
/// manifest at `manifest_path`. Findings come back sorted by path,
/// then line.
///
/// # Errors
///
/// [`LintError`] when the manifest is missing/invalid or traversal
/// fails; per-file findings are never errors.
pub fn lint_workspace(root: &Path, manifest_path: &Path) -> Result<Vec<Finding>, LintError> {
    let text = fs::read_to_string(manifest_path)
        .map_err(|e| LintError::Manifest(format!("{}: {e}", manifest_path.display())))?;
    let manifest = Manifest::parse(&text).map_err(|e| LintError::Manifest(e.to_string()))?;

    let files = walk::rust_sources(root).map_err(|e| LintError::Io(e.to_string()))?;
    let mut ctxs = Vec::with_capacity(files.len());
    for rel in &files {
        let source =
            fs::read_to_string(root.join(rel)).map_err(|e| LintError::Io(format!("{rel}: {e}")))?;
        ctxs.push(FileContext::new(rel, &source));
    }
    Ok(lint_contexts(&ctxs, &manifest))
}

/// Lints a set of already-built contexts: the per-file rules on each,
/// then the cross-file semantic pass over all of them together.
/// Findings come back sorted by path, then line, then rule.
pub fn lint_contexts(ctxs: &[FileContext], manifest: &Manifest) -> Vec<Finding> {
    let mut findings = Vec::new();
    for ctx in ctxs {
        findings.extend(lint_file(ctx, manifest));
    }
    findings.extend(lint_semantic(ctxs, manifest));
    findings.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    findings
}

/// Lints a single source string — the entry point fixture tests use.
/// Semantic rules run too, scoped to this one file.
pub fn lint_source(path: &str, source: &str, manifest: &Manifest) -> Vec<Finding> {
    let ctxs = [FileContext::new(path, source)];
    lint_contexts(&ctxs, manifest)
}

/// Lints several in-memory sources together — for cross-file semantic
/// tests without touching the filesystem.
pub fn lint_sources(files: &[(&str, &str)], manifest: &Manifest) -> Vec<Finding> {
    let ctxs: Vec<FileContext> = files
        .iter()
        .map(|(path, source)| FileContext::new(path, source))
        .collect();
    lint_contexts(&ctxs, manifest)
}
