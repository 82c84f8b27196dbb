//! The rule engine: which rules run where, and suppression filtering.
//!
//! Each *file-local* rule is a pure function from a [`FileContext`]
//! (plus the [`Manifest`]) to raw findings. The engine scopes rules to
//! the paths they guard, then drops findings covered by an inline
//! `// lint:allow(rule): reason` comment. A suppression without a
//! reason is itself reported (`allow-syntax`) — silencing a rule is
//! allowed, silencing it without saying why is not.
//!
//! The cross-file `taint` rule runs as a second pass over the whole file
//! set at once: pass 1 extracts per-file facts ([`crate::facts`]), pass 2
//! joins them across the workspace here in [`lint_semantic`].

pub mod determinism;
pub mod lock_order;
pub mod panic_path;
pub mod taint;
pub mod wire_hygiene;

use std::collections::BTreeMap;

use crate::facts::{self, FileFacts};
use crate::manifest::Manifest;
use crate::source::FileContext;

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`determinism`, `panic-path`, `lock-order`,
    /// `wire-hygiene`, `allow-syntax`, `taint`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What went wrong and why it matters.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// True when `path` is first-party pipeline source the scoped rules
/// apply to (crate or root-package `src/` trees; shims mimic external
/// APIs and are not part of the pipeline).
fn pipeline_source(path: &str) -> bool {
    (path.starts_with("crates/") || path.starts_with("src/")) && path.contains("src/")
}

/// Runs every applicable rule over one file and filters suppressions.
pub fn lint_file(ctx: &FileContext, manifest: &Manifest) -> Vec<Finding> {
    let mut raw = Vec::new();

    if pipeline_source(&ctx.path) {
        if !manifest.determinism_allowed(&ctx.path) {
            determinism::check(ctx, &mut raw);
        }
        lock_order::check(ctx, manifest, &mut raw);
        wire_hygiene::check(ctx, &mut raw);
    }
    if manifest.is_hot_path(&ctx.path) {
        panic_path::check(ctx, &mut raw);
    }

    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| !ctx.is_suppressed(f.rule, f.line))
        .collect();

    // Reason-less suppressions are findings everywhere, even in files no
    // scoped rule covers — the comment only exists to silence this tool.
    // (A standalone suppression is indexed both at its own line and at
    // the code line it covers; report only the former.)
    for (&at, list) in &ctx.suppressions {
        for s in list {
            if !s.has_reason && at == s.line {
                findings.push(Finding {
                    rule: "allow-syntax",
                    path: ctx.path.clone(),
                    line: s.line,
                    message: format!(
                        "lint:allow({}) without a `: reason` clause — say why",
                        s.rules.join(", ")
                    ),
                    snippet: ctx.snippet(s.line).to_string(),
                });
            }
        }
    }

    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    findings
}

/// Runs the cross-file taint rule over the whole file set: extracts
/// facts from every context, follows the manifest's `[taint]` sources
/// through them, fills snippets, and filters suppressions.
pub fn lint_semantic(ctxs: &[FileContext], manifest: &Manifest) -> Vec<Finding> {
    if manifest.taint.sources.is_empty() {
        return Vec::new();
    }
    let ctx_by_path: BTreeMap<String, &FileContext> =
        ctxs.iter().map(|c| (c.path.clone(), c)).collect();
    let extracted: Vec<FileFacts> = ctxs.iter().map(facts::extract).collect();
    let facts_by_path: BTreeMap<String, &FileFacts> =
        extracted.iter().map(|f| (f.path.clone(), f)).collect();

    let mut raw = Vec::new();
    taint::check(&ctx_by_path, &facts_by_path, manifest, &mut raw);

    raw.iter_mut().for_each(|f| {
        if let Some(ctx) = ctx_by_path.get(&f.path) {
            if f.snippet.is_empty() {
                f.snippet = ctx.snippet(f.line).to_string();
            }
        }
    });
    raw.retain(|f| {
        ctx_by_path
            .get(&f.path)
            .is_none_or(|ctx| !ctx.is_suppressed(f.rule, f.line))
    });
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::parse(
            "hot-path crates/keylime/src/store.rs\n\
             determinism-allow crates/bench/\n\
             lock-order inner pins\n",
        )
        .unwrap()
    }

    #[test]
    fn suppressed_findings_are_dropped() {
        let src = "fn f() {\n    // lint:allow(determinism): metrics only\n    let t = Instant::now();\n}\n";
        let ctx = FileContext::new("crates/keylime/src/scheduler.rs", src);
        let findings = lint_file(&ctx, &manifest());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn reasonless_suppression_is_flagged() {
        let src = "fn f() {\n    // lint:allow(determinism)\n    let t = Instant::now();\n}\n";
        let ctx = FileContext::new("crates/keylime/src/scheduler.rs", src);
        let findings = lint_file(&ctx, &manifest());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "allow-syntax");
    }

    #[test]
    fn determinism_allow_prefix_exempts() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let ctx = FileContext::new("crates/bench/src/main.rs", src);
        assert!(lint_file(&ctx, &manifest()).is_empty());
    }

    #[test]
    fn non_pipeline_paths_are_ignored() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let ctx = FileContext::new("shims/rand/src/lib.rs", src);
        assert!(lint_file(&ctx, &manifest()).is_empty());
    }
}
