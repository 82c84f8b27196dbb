//! `wire-hygiene`: no `HashMap`/`HashSet` iteration feeding the wire.
//!
//! Hash-map iteration order is randomized per process. If it feeds
//! serialized output — a quote, a policy digest, a wire frame — two
//! verifiers serialize the same state to different bytes, and every
//! byte-compare (digest pinning, golden files, chaos replay) breaks
//! intermittently. Inside any function that touches serialization
//! (`serde_json`, `serialize`, `to_json`, `write_json`, `JsonWriter`,
//! `to_writer`, `Serializer`), iterating an identifier declared as `HashMap`/
//! `HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain(`, or
//! `for … in name`) is flagged. The fix is a `BTreeMap` or an explicit
//! sort before encoding.

use std::collections::BTreeSet;

use crate::lexer::{Tok, TokKind};
use crate::source::FileContext;

use super::Finding;

pub const RULE: &str = "wire-hygiene";

const SER_MARKERS: [&str; 7] = [
    "serde_json",
    "serialize",
    "to_json",
    "write_json",
    "JsonWriter",
    "to_writer",
    "Serializer",
];

const ITER_METHODS: [&str; 4] = ["iter", "keys", "values", "drain"];

/// Scans one file for hash-map iteration inside serializing functions.
pub fn check(ctx: &FileContext, out: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    let code = &ctx.code;

    let hashed = hash_declared_names(toks, code);
    if hashed.is_empty() {
        return;
    }

    // Walk function bodies; only serializing functions are interesting.
    let mut k = 0usize;
    while k < code.len() {
        if !toks[code[k]].is_ident("fn") {
            k += 1;
            continue;
        }
        // Find the body: first `{` before a `;` (a `;` first means a
        // trait-method signature with no body).
        let mut b = k + 1;
        let mut open = None;
        while b < code.len() {
            let t = &toks[code[b]];
            if t.is_punct('{') {
                open = Some(b);
                break;
            }
            if t.is_punct(';') {
                break;
            }
            b += 1;
        }
        let Some(open) = open else {
            k = b + 1;
            continue;
        };
        let mut depth = 0i32;
        let mut close = open;
        while close < code.len() {
            let t = &toks[code[close]];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }

        let body = &code[open..=close.min(code.len() - 1)];
        let serializes = body.iter().any(|&i| {
            toks[i].kind == TokKind::Ident && SER_MARKERS.iter().any(|m| toks[i].text == *m)
        });
        if serializes {
            scan_body(ctx, toks, body, &hashed, out);
        }
        k = close + 1;
    }
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type
/// anywhere in the file: struct fields, `let` bindings, and fn params.
/// For each `HashMap` token, scan back to the nearest declaration
/// boundary and take the first identifier after `pub`/`let`/`mut`/`ref`.
fn hash_declared_names(toks: &[Tok], code: &[usize]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (k, &ti) in code.iter().enumerate() {
        let t = &toks[ti];
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        let mut j = k;
        while j > 0 {
            let p = &toks[code[j - 1]];
            if p.is_punct(';')
                || p.is_punct('{')
                || p.is_punct('}')
                || p.is_punct(',')
                || p.is_punct('(')
            {
                break;
            }
            j -= 1;
        }
        let mut n = j;
        while code.get(n).is_some_and(|&i| {
            toks[i].is_ident("pub")
                || toks[i].is_ident("let")
                || toks[i].is_ident("mut")
                || toks[i].is_ident("ref")
        }) {
            n += 1;
        }
        if let Some(&i) = code.get(n) {
            if toks[i].kind == TokKind::Ident && n < k {
                names.insert(toks[i].text.clone());
            }
        }
    }
    names
}

/// Flags iteration over hash-declared names inside one function body.
fn scan_body(
    ctx: &FileContext,
    toks: &[Tok],
    body: &[usize],
    hashed: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    for (k, &ti) in body.iter().enumerate() {
        let t = &toks[ti];
        if ctx.in_test_region(t.line) {
            continue;
        }
        let at = |off: usize| body.get(k + off).map(|&i| &toks[i]);

        // name.iter() / .keys() / .values() / .drain(
        if t.kind == TokKind::Ident
            && hashed.contains(&t.text)
            && at(1).is_some_and(|n| n.is_punct('.'))
            && at(2).is_some_and(|n| {
                n.kind == TokKind::Ident && ITER_METHODS.iter().any(|m| n.text == *m)
            })
            && at(3).is_some_and(|n| n.is_punct('('))
        {
            out.push(finding(
                ctx,
                t.line,
                &t.text,
                &at(2).map(|n| n.text.clone()).unwrap_or_default(),
            ));
            continue;
        }

        // for … in [&[mut]] name
        if t.is_ident("in") {
            let mut n = k + 1;
            while body
                .get(n)
                .is_some_and(|&i| toks[i].is_punct('&') || toks[i].is_ident("mut"))
            {
                n += 1;
            }
            if let Some(&i) = body.get(n) {
                let name = &toks[i];
                // Only a bare `in name {` / `in name.iter…` style loop over
                // the map itself (not `in name.sorted_keys()` etc.).
                let next_opens = body
                    .get(n + 1)
                    .map(|&j| toks[j].is_punct('{'))
                    .unwrap_or(false);
                if name.kind == TokKind::Ident && hashed.contains(&name.text) && next_opens {
                    out.push(finding(ctx, name.line, &name.text, "for-in"));
                }
            }
        }
    }
}

fn finding(ctx: &FileContext, line: u32, name: &str, how: &str) -> Finding {
    Finding {
        rule: RULE,
        path: ctx.path.clone(),
        line,
        message: format!(
            "hash-map `{name}` iterated ({how}) in a serializing function; \
             hash order is per-process random — use BTreeMap or sort before encoding"
        ),
        snippet: ctx.snippet(line).to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let ctx = FileContext::new("crates/x/src/lib.rs", src);
        let mut out = Vec::new();
        check(&ctx, &mut out);
        out
    }

    #[test]
    fn flags_iteration_in_serializing_fn() {
        let src = "struct W { counts: HashMap<String, u64> }\nimpl W {\n    fn encode(&self) -> String {\n        let mut s = String::new();\n        for (k, v) in self.counts.iter() {\n            s.push_str(k);\n        }\n        serde_json::to_string(&s).unwrap_or_default()\n    }\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 5);
        assert!(out[0].message.contains("counts"));
    }

    #[test]
    fn silent_without_serialization() {
        let src = "struct W { counts: HashMap<String, u64> }\nimpl W {\n    fn total(&self) -> u64 {\n        self.counts.values().sum()\n    }\n}\n";
        assert!(run(src).is_empty());
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
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
    }
}
