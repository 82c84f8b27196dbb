//! The rule engine: which files the `lock-order` rule runs on.
//!
//! A rule is a pure function from a [`FileContext`] to raw findings.

pub mod lock_order;

use crate::source::FileContext;

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`lock-order`).
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

/// True when `path` is first-party pipeline source the rule applies to
/// (crate or root-package `src/` trees; shims mimic external APIs and
/// are not part of the pipeline).
fn pipeline_source(path: &str) -> bool {
    (path.starts_with("crates/") || path.starts_with("src/")) && path.contains("src/")
}

/// Runs the rule over one file; findings come in line order.
pub fn lint_file(ctx: &FileContext) -> Vec<Finding> {
    let mut findings = Vec::new();
    if pipeline_source(&ctx.path) {
        lock_order::check(ctx, &mut findings);
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_pipeline_paths_are_ignored() {
        let src = "fn f(s: &S) {\n    let a = s.a.lock();\n    let b = s.b.lock();\n}\n";
        let ctx = FileContext::new("shims/rand/src/lib.rs", src);
        assert!(lint_file(&ctx).is_empty());
        let ctx = FileContext::new("crates/keylime/src/store.rs", src);
        assert_eq!(lint_file(&ctx).len(), 1);
    }
}
