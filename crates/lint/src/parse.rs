//! Pass 1 of the taint engine: a lightweight item tree.
//!
//! The taint rule needs more structure than a flat token stream but far
//! less than a real AST: which `fn` a token belongs to and which `impl`
//! block qualifies it. This module recovers exactly that by brace
//! matching over the comment-free token stream — no external parser,
//! same philosophy as the lexer: precise about nesting, indifferent to
//! everything else.
//!
//! All ranges in this module are **indices into `FileContext::code`**
//! (the comment-free index vector), half-open `[start, end)`, so rules
//! can slice bodies without re-filtering comments.

use crate::lexer::TokKind;
use crate::source::FileContext;

/// One `fn` item (free or associated, at any nesting level).
#[derive(Debug, Clone)]
pub struct Item {
    /// Simple name, e.g. `decode`.
    pub name: String,
    /// Qualified name: `Type::decode` when declared inside `impl Type`
    /// (or `impl Trait for Type`), otherwise the simple name.
    pub qual: String,
    /// Body range in `ctx.code` indices, half-open, excluding the outer
    /// braces.
    pub body: (usize, usize),
}

/// Finds the `ctx.code` index of the brace matching the `{` at `open`.
/// Returns `ctx.code.len()` if unbalanced (unterminated file).
fn match_brace(ctx: &FileContext, open: usize) -> usize {
    let mut depth = 0i32;
    for k in open..ctx.code.len() {
        let t = &ctx.tokens[ctx.code[k]];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    ctx.code.len()
}

/// Finds the body-opening `{` for an item starting at code index `k`
/// (just past the `fn name` tokens). Uses the tolerant
/// angle-aware depth count from the wire-hygiene rule: `<([` raise,
/// `>)]` lower, and the body opens at the first `{` at depth <= 0.
/// Returns `None` if a `;` terminates the item first (no body).
fn find_body_open(ctx: &FileContext, k: usize) -> Option<usize> {
    let mut depth = 0i32;
    for j in k..ctx.code.len() {
        let t = &ctx.tokens[ctx.code[j]];
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_bytes().first().copied() {
            Some(b'<') | Some(b'(') | Some(b'[') => depth += 1,
            Some(b'>') | Some(b')') | Some(b']') => depth -= 1,
            Some(b'{') => {
                if depth <= 0 {
                    return Some(j);
                }
                // A brace at positive depth is a const-generic block or
                // similar; skip its contents wholesale.
                let close = match_brace(ctx, j);
                return if close < ctx.code.len() {
                    find_body_open(ctx, close + 1)
                } else {
                    None
                };
            }
            Some(b';') if depth <= 0 => return None,
            _ => {}
        }
    }
    None
}

/// An `impl` region: the self-type name and the body's code-index span.
struct ImplRegion {
    type_name: String,
    body: (usize, usize),
}

/// Collects `impl [Trait for] Type { … }` regions so fns can be
/// qualified. The self-type is the first ident after `for` when present,
/// otherwise the first ident after `impl` that is not inside the generic
/// parameter list.
fn impl_regions(ctx: &FileContext) -> Vec<ImplRegion> {
    let mut regions = Vec::new();
    let mut k = 0usize;
    while k < ctx.code.len() {
        let t = &ctx.tokens[ctx.code[k]];
        if !t.is_ident("impl") {
            k += 1;
            continue;
        }
        // Scan forward to the body `{`, remembering candidate type names.
        let mut angle = 0i32;
        let mut saw_for = false;
        let mut name_no_for: Option<String> = None;
        let mut name_for: Option<String> = None;
        let mut open = None;
        for j in k + 1..ctx.code.len() {
            let tj = &ctx.tokens[ctx.code[j]];
            match tj.kind {
                TokKind::Punct => match tj.text.as_bytes().first().copied() {
                    Some(b'<') => angle += 1,
                    Some(b'>') => angle -= 1,
                    Some(b'{') if angle <= 0 => {
                        open = Some(j);
                        break;
                    }
                    Some(b';') => break,
                    _ => {}
                },
                TokKind::Ident => {
                    if tj.text == "for" {
                        saw_for = true;
                    } else if angle <= 0 && tj.text != "where" {
                        if saw_for {
                            if name_for.is_none() {
                                name_for = Some(tj.text.clone());
                            }
                        } else if name_no_for.is_none() {
                            name_no_for = Some(tj.text.clone());
                        }
                    }
                }
                _ => {}
            }
        }
        let Some(open) = open else {
            k += 1;
            continue;
        };
        let close = match_brace(ctx, open);
        if let Some(name) = name_for.or(name_no_for) {
            regions.push(ImplRegion {
                type_name: name,
                body: (open + 1, close),
            });
        }
        k = open + 1;
    }
    regions
}

/// Parses every `fn` item in the file.
pub fn items(ctx: &FileContext) -> Vec<Item> {
    let impls = impl_regions(ctx);
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < ctx.code.len() {
        if !ctx.tokens[ctx.code[k]].is_ident("fn") {
            k += 1;
            continue;
        }
        // The name must directly follow; `fn(` in a fn-pointer type or
        // `Fn()` bounds fail this test and are skipped.
        let Some(&name_idx) = ctx.code.get(k + 1) else {
            break;
        };
        let name_tok = &ctx.tokens[name_idx];
        if name_tok.kind != TokKind::Ident {
            k += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let Some(open) = find_body_open(ctx, k + 2) else {
            k += 2;
            continue;
        };
        let qual = impls
            .iter()
            .rev()
            .find(|r| r.body.0 <= k && k < r.body.1)
            .map(|r| format!("{}::{}", r.type_name, name))
            .unwrap_or_else(|| name.clone());
        out.push(Item {
            name,
            qual,
            body: (open + 1, match_brace(ctx, open)),
        });
        k = open + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileContext;

    #[test]
    fn finds_fns_with_impl_qualification() {
        let c = FileContext::new("crates/x/src/lib.rs", "impl Wire for Digest {\n    fn encode(&self, w: &mut Writer) {\n        w.put_u8(1);\n    }\n}\nfn free() -> Result<u8, E> { Ok(0) }\n");
        let quals: Vec<_> = items(&c).into_iter().map(|i| i.qual).collect();
        assert_eq!(quals, ["Digest::encode", "free"]);
    }
}
