//! Per-file analysis context: tokens and `#[cfg(test)]` regions.

use crate::lexer::{tokenize, Tok, TokKind};

/// Everything a rule needs to analyse one file.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The token stream without comments — what rules match on.
    pub tokens: Vec<Tok>,
    /// Source lines, for snippets (index 0 = line 1).
    pub lines: Vec<String>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
}

impl FileContext {
    /// Tokenizes and indexes one file.
    pub fn new(path: &str, source: &str) -> Self {
        let mut tokens = tokenize(source);
        tokens.retain(|t| t.kind != TokKind::Comment);
        let lines: Vec<String> = source.lines().map(str::to_string).collect();
        let test_regions = find_test_regions(&tokens);
        FileContext {
            path: path.to_string(),
            tokens,
            lines,
            test_regions,
        }
    }

    /// True when `line` is inside a `#[cfg(test)]` item.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
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
fn find_test_regions(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut k = 0usize;
    while k < tokens.len() {
        let t = &tokens[k];
        if !t.is_punct('#') {
            k += 1;
            continue;
        }
        // Parse one attribute: `#` `[` … `]` with bracket matching.
        let attr_line = t.line;
        let Some(open) = tokens.get(k + 1) else { break };
        if !open.is_punct('[') {
            k += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut j = k + 1;
        let mut mentions_cfg = false;
        let mut mentions_test = false;
        while j < tokens.len() {
            let tok = &tokens[j];
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
        while m + 1 < tokens.len() && tokens[m].is_punct('#') && tokens[m + 1].is_punct('[') {
            let mut d = 0i32;
            m += 1;
            while m < tokens.len() {
                if tokens[m].is_punct('[') {
                    d += 1;
                } else if tokens[m].is_punct(']') {
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
        while m < tokens.len() {
            let tok = &tokens[m];
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
                while m < tokens.len() {
                    let b = &tokens[m];
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
}
