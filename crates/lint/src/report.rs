//! The finding renderer: human diff-style text.

use std::fmt::Write as _;

use crate::rules::Finding;

/// Human-readable report, one block per finding:
///
/// ```text
/// crates/keylime/src/store.rs:41: [lock-order] `pins` acquired while holding `inner` …
///     |     let pins = self.pins.lock();
/// ```
pub fn human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        if !f.snippet.is_empty() {
            let _ = writeln!(out, "    |     {}", f.snippet);
        }
    }
    let _ = writeln!(
        out,
        "{} finding{}",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "lock-order",
            path: "crates/x/src/lib.rs".to_string(),
            line: 7,
            message: "`b` acquired while holding `a` (line 6)".to_string(),
            snippet: "let b = s.b.lock();".to_string(),
        }]
    }

    #[test]
    fn human_names_file_line_and_rule() {
        let text = human(&sample());
        assert!(text.contains("crates/x/src/lib.rs:7: [lock-order]"));
        assert!(text.contains("1 finding\n"));
    }

    #[test]
    fn empty_report() {
        assert!(human(&[]).contains("0 findings"));
    }
}
