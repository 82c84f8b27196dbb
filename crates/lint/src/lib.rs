//! `cia-lint` — the workspace's lock-discipline check.
//!
//! A dependency-free linter (pure `std`, its own token scanner) for the
//! one pipeline invariant that neither `rustc` nor clippy can see,
//! because it is about guard lifetimes:
//!
//! * **`lock-order`** — every lock is a leaf: no lock is acquired, and
//!   no `Transport::call` made, while another guard is live. With no
//!   nesting there is no order to declare, so the rule takes no
//!   configuration.
//!
//! The other load-bearing invariants are clippy's, enforced by the
//! workspace `cargo clippy --all-targets -- -D warnings` gate:
//! determinism through `clippy.toml`'s `disallowed-methods` and
//! `disallowed-types`, panic-free hot paths through the panic-family
//! lints each hot-path crate denies at its root, and every escape as a
//! reasoned `#[expect]` that fails the gate once it goes stale.
//! `tests/rules.rs` runs clippy over a fixture crate under the
//! workspace `clippy.toml`, so a configuration that stops biting fails
//! the tests.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

pub use rules::{lint_file, Finding};
pub use source::FileContext;

/// Lints every production source file under `root`. Findings come back
/// sorted by path (the walk's order), then line (each file's order).
///
/// # Errors
///
/// Traversal or file-read failures; per-file findings are never errors.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in walk::rust_sources(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        findings.extend(lint_file(&FileContext::new(&rel, &source)));
    }
    Ok(findings)
}
