//! `cia-lint` — the workspace's own static-analysis pass.
//!
//! A dependency-free linter (pure `std`, its own token scanner) that
//! enforces the attestation pipeline's load-bearing invariants, the
//! ones `rustc` and clippy cannot see because they are *this repo's*
//! contracts, not the language's:
//!
//! * **`determinism`** — no ambient wall-clock or entropy outside
//!   manifest-allowlisted modules; chaos replay must be bit-identical.
//!   A `HashMap`, `HashSet` or `RandomState` counts as entropy: its
//!   iteration order is seeded per process, so it may not appear in
//!   pipeline code at all.
//! * **`panic-path`** — no `unwrap`/`expect`/`panic!`-family calls in
//!   declared hot paths outside `#[cfg(test)]`.
//! * **`lock-order`** — every named lock is ranked in a manifest;
//!   nested acquisitions must follow the declared total order, and no
//!   guard may be held across a `Transport::call`.
//! * **`allow-syntax`** — every `lint:allow` suppression must carry a
//!   `: reason` clause.
//!
//! Contracts the compiler or the test suites already hold are not
//! re-checked here: every `Wire` impl has a round-trip test next to it,
//! the journal-recovery and shard-protocol consumers deny wildcard arms
//! through clippy, and a received shard frame is decoded inside
//! `cia-wire` (its receivers return messages, never payload bytes), so
//! no caller can index raw wire bytes.
//!
//! See `cia-lint.manifest` at the workspace root for the declared hot
//! paths, determinism allowlist and lock order.

pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod source;
pub mod walk;

use std::fmt;
use std::fs;
use std::path::Path;

pub use manifest::Manifest;
pub use rules::{lint_file, Finding};
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
/// manifest at `manifest_path`. Findings come back sorted by path (the
/// walk's order), then line, then rule (each file's order).
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
    let mut findings = Vec::new();
    for rel in &files {
        let source =
            fs::read_to_string(root.join(rel)).map_err(|e| LintError::Io(format!("{rel}: {e}")))?;
        findings.extend(lint_file(&FileContext::new(rel, &source), &manifest));
    }
    Ok(findings)
}
