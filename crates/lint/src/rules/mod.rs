//! The rule engine: which rules run where, and suppression filtering.
//!
//! Each rule is a pure function from a [`FileContext`] (plus the
//! [`Manifest`]) to raw findings. The engine scopes rules to the paths
//! they guard, then drops findings covered by an inline
//! `// lint:allow(rule): reason` comment. A suppression without a
//! reason is itself reported (`allow-syntax`) — silencing a rule is
//! allowed, silencing it without saying why is not.

pub mod determinism;
pub mod lock_order;
pub mod panic_path;

use crate::manifest::Manifest;
use crate::source::FileContext;

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`determinism`, `panic-path`, `lock-order`,
    /// `allow-syntax`).
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
        lock_order::check(ctx, &mut raw);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::parse(
            "hot-path crates/keylime/src/store.rs\n\
             determinism-allow crates/bench/\n",
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

/// The shapes the retired `wire-hygiene` rule guarded: hash-seeded
/// iteration feeding a serializer. `determinism` now flags the container
/// where it is named, so each shape fires at its declaration.
#[cfg(test)]
mod wire_hygiene {
    mod tests {
        use crate::rules::{determinism, Finding};
        use crate::source::FileContext;

        fn run(src: &str) -> Vec<Finding> {
            let ctx = FileContext::new("crates/x/src/lib.rs", src);
            let mut out = Vec::new();
            determinism::check(&ctx, &mut out);
            out
        }

        #[test]
        fn flags_iteration_in_serializing_fn() {
            let src = "struct W { counts: HashMap<String, u64> }\nimpl W {\n    fn encode(&self) -> String {\n        let mut s = String::new();\n        for (k, v) in self.counts.iter() {\n            s.push_str(k);\n        }\n        serde_json::to_string(&s).unwrap_or_default()\n    }\n}\n";
            let out = run(src);
            assert_eq!(out.len(), 1, "{out:?}");
            assert_eq!(out[0].line, 1);
            assert!(out[0].message.contains("`HashMap`"), "{out:?}");
            assert!(out[0].snippet.contains("counts"), "{out:?}");
        }

        #[test]
        fn btreemap_is_always_fine() {
            let src = "struct W { counts: BTreeMap<String, u64> }\nimpl W {\n    fn encode(&self) -> String {\n        let _ = self.counts.iter();\n        serde_json::to_string(&1).unwrap_or_default()\n    }\n}\n";
            assert!(run(src).is_empty());
        }

        #[test]
        fn for_in_over_map_is_flagged() {
            let src = "fn encode(seen: HashSet<u64>) -> String {\n    let mut out = String::new();\n    for v in seen {\n        out.push('x');\n    }\n    serde_json::to_string(&out).unwrap_or_default()\n}\n";
            let out = run(src);
            assert_eq!(out.len(), 1, "{out:?}");
            assert_eq!(out[0].line, 1);
            assert!(out[0].message.contains("`HashSet`"), "{out:?}");
        }
    }
}
