//! Per-file analysis context: tokens, `#[cfg(test)]` regions, and inline
//! `// lint:allow(rule): reason` suppressions.

use std::collections::BTreeMap;

use crate::lexer::{tokenize, Tok, TokKind};

/// One parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rules it silences (`lint:allow(a, b)` lists two).
    pub rules: Vec<String>,
    /// Whether a `: reason` clause was present.
    pub has_reason: bool,
    /// Line the comment sits on.
    pub line: u32,
}

/// Everything a rule needs to analyse one file.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The full token stream, comments included.
    pub tokens: Vec<Tok>,
    /// Indices into `tokens` of non-comment tokens — what rules match on.
    pub code: Vec<usize>,
    /// Source lines, for snippets (index 0 = line 1).
    pub lines: Vec<String>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// Suppressions keyed by every line they apply to: the comment's own
    /// line and, for standalone comments, the next code line below it
    /// (continuation comment lines are skipped, so justifications can
    /// wrap). `Suppression::line` stays the comment's own line.
    pub suppressions: BTreeMap<u32, Vec<Suppression>>,
}

impl FileContext {
    /// Tokenizes and indexes one file.
    pub fn new(path: &str, source: &str) -> Self {
        let tokens = tokenize(source);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokKind::Comment)
            .map(|(i, _)| i)
            .collect();
        let lines: Vec<String> = source.lines().map(str::to_string).collect();
        let test_regions = find_test_regions(&tokens, &code);
        let suppressions = find_suppressions(&tokens);
        FileContext {
            path: path.to_string(),
            tokens,
            code,
            lines,
            test_regions,
            suppressions,
        }
    }

    /// True when `line` is inside a `#[cfg(test)]` item.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// True when `rule` is suppressed at `line` by a `lint:allow`
    /// comment (inline on that line, or standalone above it).
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions.get(&line).is_some_and(|list| {
            list.iter()
                .any(|s| s.rules.iter().any(|r| r == rule || r == "all"))
        })
    }

    /// The trimmed source line, for diagnostics.
    pub fn snippet(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|s| s.trim())
            .unwrap_or("")
    }
}

/// Finds line spans of items annotated `#[cfg(test)]` (or any `cfg(...)`
/// attribute mentioning `test`, e.g. `cfg(all(test, feature = "x"))`).
fn find_test_regions(tokens: &[Tok], code: &[usize]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        let t = &tokens[code[k]];
        if !t.is_punct('#') {
            k += 1;
            continue;
        }
        // Parse one attribute: `#` `[` … `]` with bracket matching.
        let attr_line = t.line;
        let Some(open) = code.get(k + 1) else { break };
        if !tokens[*open].is_punct('[') {
            k += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut j = k + 1;
        let mut mentions_cfg = false;
        let mut mentions_test = false;
        while j < code.len() {
            let tok = &tokens[code[j]];
            if tok.is_punct('[') {
                depth += 1;
            } else if tok.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tok.is_ident("cfg") {
                mentions_cfg = true;
            } else if tok.is_ident("test") {
                mentions_test = true;
            }
            j += 1;
        }
        if !(mentions_cfg && mentions_test) {
            k = j + 1;
            continue;
        }
        // Skip any further attributes, then find the item's extent: the
        // first `{` at bracket/paren depth 0 opens the body (brace-match
        // it); a `;` first means a braceless item.
        let mut m = j + 1;
        while m + 1 < code.len()
            && tokens[code[m]].is_punct('#')
            && tokens[code[m + 1]].is_punct('[')
        {
            let mut d = 0i32;
            m += 1;
            while m < code.len() {
                if tokens[code[m]].is_punct('[') {
                    d += 1;
                } else if tokens[code[m]].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                m += 1;
            }
            m += 1;
        }
        let mut paren = 0i32;
        let mut end_line = attr_line;
        while m < code.len() {
            let tok = &tokens[code[m]];
            if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('<') {
                paren += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('>') {
                paren -= 1;
            } else if tok.is_punct(';') && paren <= 0 {
                end_line = tok.line;
                break;
            } else if tok.is_punct('{') && paren <= 0 {
                // Brace-match the body.
                let mut braces = 0i32;
                while m < code.len() {
                    let b = &tokens[code[m]];
                    if b.is_punct('{') {
                        braces += 1;
                    } else if b.is_punct('}') {
                        braces -= 1;
                        if braces == 0 {
                            end_line = b.line;
                            break;
                        }
                    }
                    m += 1;
                }
                break;
            }
            end_line = tok.line;
            m += 1;
        }
        regions.push((attr_line, end_line));
        k = m + 1;
    }
    regions
}

/// Parses `lint:allow(rule[, rule…])[: reason]` comments.
///
/// An *inline* suppression (trailing a code line) covers that line. A
/// *standalone* suppression covers the next code line below it, however
/// many continuation comment lines sit in between — so a justification
/// can wrap without losing its target.
fn find_suppressions(tokens: &[Tok]) -> BTreeMap<u32, Vec<Suppression>> {
    let mut out: BTreeMap<u32, Vec<Suppression>> = BTreeMap::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        // Doc comments are documentation *about* suppressions, never
        // suppressions themselves.
        if t.text.starts_with("///") || t.text.starts_with("//!") || t.text.starts_with("/**") {
            continue;
        }
        let Some(pos) = t.text.find("lint:allow(") else {
            continue;
        };
        let rest = &t.text[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = rest[close + 1..].trim_start();
        let has_reason = tail
            .strip_prefix(':')
            .is_some_and(|reason| !reason.trim().is_empty());
        let s = Suppression {
            rules,
            has_reason,
            line: t.line,
        };
        out.entry(t.line).or_default().push(s.clone());
        // Standalone (nothing before it on its own line): also cover the
        // next code line, skipping over any `#[…]` / `#![…]` attribute
        // groups so the suppression lands on the item itself, not its
        // attributes.
        let standalone = i == 0 || tokens[i - 1].line < t.line;
        if standalone {
            if let Some(next) = next_code_line_after(tokens, i) {
                if next != t.line {
                    out.entry(next).or_default().push(s);
                }
            }
        }
    }
    out
}

/// The line of the first code token after token `i`, skipping comments
/// and whole attribute groups (`#` `[` … `]`, with an optional `!`). A
/// standalone `// lint:allow` above `#[derive(…)]` should silence the
/// item the attribute decorates, not the attribute line itself.
fn next_code_line_after(tokens: &[Tok], i: usize) -> Option<u32> {
    let mut j = i + 1;
    loop {
        while j < tokens.len() && tokens[j].kind == TokKind::Comment {
            j += 1;
        }
        if j >= tokens.len() {
            return None;
        }
        if !tokens[j].is_punct('#') {
            return Some(tokens[j].line);
        }
        // Attribute group: `#` [`!`] `[` … `]` — bracket-match past it.
        let mut m = j + 1;
        while m < tokens.len() && tokens[m].kind == TokKind::Comment {
            m += 1;
        }
        if m < tokens.len() && tokens[m].is_punct('!') {
            m += 1;
        }
        if m >= tokens.len() || !tokens[m].is_punct('[') {
            // A bare `#` that is not an attribute: treat as code.
            return Some(tokens[j].line);
        }
        let mut depth = 0i32;
        while m < tokens.len() {
            if tokens[m].is_punct('[') {
                depth += 1;
            } else if tokens[m].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            m += 1;
        }
        j = m + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_covers_the_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let ctx = FileContext::new("x.rs", src);
        assert!(!ctx.in_test_region(1));
        assert!(ctx.in_test_region(2));
        assert!(ctx.in_test_region(4));
        assert!(ctx.in_test_region(5));
        assert!(!ctx.in_test_region(6));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nfn probe() {}\n";
        let ctx = FileContext::new("x.rs", src);
        assert!(ctx.in_test_region(2));
    }

    #[test]
    fn cfg_feature_alone_does_not() {
        let src = "#[cfg(feature = \"x\")]\nfn live() {}\n";
        let ctx = FileContext::new("x.rs", src);
        assert!(!ctx.in_test_region(2));
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "// lint:allow(determinism): metrics only\nlet t = Instant::now();\nlet u = Instant::now(); // lint:allow(determinism): also fine\n";
        let ctx = FileContext::new("x.rs", src);
        assert!(ctx.is_suppressed("determinism", 2));
        assert!(ctx.is_suppressed("determinism", 3));
        assert!(!ctx.is_suppressed("panic-path", 2));
        assert!(!ctx.is_suppressed("determinism", 5));
    }

    #[test]
    fn suppression_without_reason_is_recorded_as_such() {
        let src = "// lint:allow(lock-order)\nlet x = 1;\n";
        let ctx = FileContext::new("x.rs", src);
        let s = &ctx.suppressions[&1][0];
        assert_eq!(s.rules, vec!["lock-order"]);
        assert!(!s.has_reason);
    }

    #[test]
    fn wrapped_suppression_reaches_the_code_line() {
        let src = "// lint:allow(determinism): a justification that\n// wraps across several comment\n// lines before the code.\nlet t = Instant::now();\nlet u = 1;\n";
        let ctx = FileContext::new("x.rs", src);
        assert!(ctx.is_suppressed("determinism", 4));
        assert!(!ctx.is_suppressed("determinism", 5));
    }

    #[test]
    fn inline_suppression_does_not_leak_downward() {
        let src = "let t = Instant::now(); // lint:allow(determinism): here only\nlet u = Instant::now();\n";
        let ctx = FileContext::new("x.rs", src);
        assert!(ctx.is_suppressed("determinism", 1));
        assert!(!ctx.is_suppressed("determinism", 2));
    }

    #[test]
    fn suppression_skips_attributes_to_reach_the_item() {
        let src = "// lint:allow(determinism): seeded helper\n#[derive(Debug)]\n#[allow(dead_code)]\nfn seeded() { Instant::now(); }\n";
        let ctx = FileContext::new("x.rs", src);
        assert!(ctx.is_suppressed("determinism", 4));
    }

    #[test]
    fn doc_comments_are_not_suppressions() {
        let src = "/// Mentions `lint:allow(determinism)` in prose.\nlet t = Instant::now();\n";
        let ctx = FileContext::new("x.rs", src);
        assert!(!ctx.is_suppressed("determinism", 2));
        assert!(ctx.suppressions.is_empty());
    }

    #[test]
    fn multi_rule_suppression() {
        let src = "// lint:allow(lock-order, determinism): proof injector\nx();\n";
        let ctx = FileContext::new("x.rs", src);
        assert!(ctx.is_suppressed("lock-order", 2));
        assert!(ctx.is_suppressed("determinism", 2));
    }
}
