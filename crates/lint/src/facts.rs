//! Pass 1 output: per-file function facts for the taint rule.
//!
//! For every file the engine records, per function, its qualified name,
//! its body range and its `&[u8]` parameters. Pass 2
//! (`rules/taint.rs`) joins these across the workspace to follow raw
//! bytes from one function into another.

use std::collections::BTreeMap;

use crate::lexer::TokKind;
use crate::parse;
use crate::source::FileContext;

/// Everything recorded about one function.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Simple name (`decode`).
    pub name: String,
    /// Qualified name (`Quote::decode`).
    pub qual: String,
    /// Names of `&[u8]` parameters, in order.
    pub bytes_params: Vec<String>,
    /// Body range in `ctx.code` indices (for the taint scanner).
    pub body: (usize, usize),
}

/// Facts for one file.
#[derive(Debug)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub path: String,
    /// Qualified fn name → fact.
    pub fns: BTreeMap<String, FnFact>,
}

/// Extracts the names of `&[u8]` parameters from a fn signature: the
/// token range between the fn name and the body-opening brace.
fn bytes_params(ctx: &FileContext, sig: (usize, usize)) -> Vec<String> {
    let mut out = Vec::new();
    let tok = |k: usize| &ctx.tokens[ctx.code[k]];
    for k in sig.0..sig.1 {
        let t = tok(k);
        if t.kind != TokKind::Ident || k + 1 >= sig.1 || !tok(k + 1).is_punct(':') {
            continue;
        }
        // Double colon = path, not a parameter annotation.
        if k + 2 < sig.1 && tok(k + 2).is_punct(':') {
            continue;
        }
        // Expect `& [lifetime] [mut] [ u8 ]`.
        let mut j = k + 2;
        if j < sig.1 && tok(j).is_punct('&') {
            j += 1;
            if j < sig.1 && tok(j).kind == TokKind::Lifetime {
                j += 1;
            }
            if j < sig.1 && tok(j).is_ident("mut") {
                j += 1;
            }
            if j + 2 < sig.1
                && tok(j).is_punct('[')
                && tok(j + 1).is_ident("u8")
                && tok(j + 2).is_punct(']')
            {
                out.push(t.text.clone());
            }
        }
    }
    out
}

/// Runs pass 1 over one file.
pub fn extract(ctx: &FileContext) -> FileFacts {
    let mut fns = BTreeMap::new();
    for item in parse::items(ctx) {
        // Signature: tokens between the fn name and the `{` that opens
        // the body. The name is the token right after `fn`; find the
        // `fn` by scanning back from the body for the keyword.
        let open = item.body.0.saturating_sub(1);
        let mut start = open;
        while start > 0 {
            if ctx.tokens[ctx.code[start]].is_ident("fn") {
                start += 2; // past `fn name`
                break;
            }
            start -= 1;
        }
        let fact = FnFact {
            bytes_params: bytes_params(ctx, (start, open)),
            name: item.name,
            qual: item.qual,
            body: item.body,
        };
        fns.insert(fact.qual.clone(), fact);
    }
    FileFacts {
        path: ctx.path.clone(),
        fns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileContext;

    #[test]
    fn bytes_params_found() {
        let f = extract(&FileContext::new(
            "crates/x/src/wire.rs",
            "fn peek(buf: &[u8], n: usize) -> u8 {\n    buf[n]\n}\n",
        ));
        assert_eq!(f.fns["peek"].bytes_params, ["buf"]);
    }
}
