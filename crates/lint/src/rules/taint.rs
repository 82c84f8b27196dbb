//! `taint` — raw transport bytes must be sanitized before use.
//!
//! The manifest's `[taint]` section names *sources* (calls that yield
//! raw bytes off the wire, e.g. `recv_frame`), *sanitizers* (calls that
//! validate them, e.g. `from_wire`, `check_crc`) and *trusted* path
//! prefixes (the codec crate itself, whose whole job is touching raw
//! bytes behind CRC checks).
//!
//! Within each untrusted function the scanner tracks a tainted-variable
//! set: a `let` whose right-hand side calls a source (with no sanitizer
//! in the same statement) taints its binders; mentioning a tainted
//! variable in a later `let` propagates the taint (aliases, slices);
//! passing one to a sanitizer clears it. Violations are indexing or
//! slicing a tainted variable (`payload[0]`, `&payload[..4]`) and
//! `from_utf8(tainted)` followed by `.unwrap()`/`.expect()`. Passing a
//! tainted variable to another function propagates the analysis into
//! that callee with its `&[u8]` parameters tainted — cross-file, bounded
//! by a visited set.

use std::collections::{BTreeMap, BTreeSet};

use crate::facts::{FileFacts, FnFact};
use crate::lexer::TokKind;
use crate::manifest::{Manifest, TaintConfig};
use crate::rules::Finding;
use crate::source::FileContext;

/// Result of scanning one function body.
struct Scan {
    /// `(line, message)` violations, in source order.
    violations: Vec<(u32, String)>,
    /// Callees that received a tainted argument: `(callee, line)`.
    forwards: Vec<(String, u32)>,
    /// Whether any taint was live at any point (sourced or inherited).
    any_taint: bool,
}

/// True when any ident in `body[from..to]` is in `names`.
fn range_mentions(ctx: &FileContext, from: usize, to: usize, names: &BTreeSet<String>) -> bool {
    (from..to).any(|k| {
        let t = &ctx.tokens[ctx.code[k]];
        t.kind == TokKind::Ident && names.contains(&t.text)
    })
}

/// Finds the code index just past the `)` matching the `(` at `open`.
fn close_paren(ctx: &FileContext, open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for k in open..end {
        let t = &ctx.tokens[ctx.code[k]];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    end
}

/// Scans one fn body with `initial` taint (parameter names, for
/// propagated analysis).
fn scan_fn(
    ctx: &FileContext,
    fact: &FnFact,
    initial: &BTreeSet<String>,
    cfg: &TaintConfig,
) -> Scan {
    let (start, end) = fact.body;
    let tok = |k: usize| &ctx.tokens[ctx.code[k]];
    let mut tainted: BTreeSet<String> = initial.clone();
    let mut scan = Scan {
        violations: Vec::new(),
        forwards: Vec::new(),
        any_taint: !initial.is_empty(),
    };
    let is_call = |k: usize| k + 1 < end && tok(k + 1).is_punct('(');
    let mut k = start;
    while k < end {
        let t = tok(k);
        if t.kind != TokKind::Ident {
            k += 1;
            continue;
        }
        // `let <binders> = <rhs>;` — decide taint for the binders by
        // looking at the whole statement; the main loop still walks the
        // statement's tokens afterwards, so violations inside the RHS
        // against *previously* tainted variables are not skipped.
        if t.text == "let" {
            let mut depth = 0i32;
            let mut eq = None;
            let mut semi = end;
            for j in k + 1..end {
                let tj = tok(j);
                if tj.kind == TokKind::Punct {
                    match tj.text.as_bytes().first().copied() {
                        Some(b'(') | Some(b'[') | Some(b'{') => depth += 1,
                        Some(b')') | Some(b']') | Some(b'}') => depth -= 1,
                        Some(b'=') if depth == 0 && eq.is_none() => {
                            // `=` not part of `==`/`=>`/`>=` etc.
                            let next_arrow = j + 1 < end
                                && (tok(j + 1).is_punct('>') || tok(j + 1).is_punct('='));
                            if !next_arrow {
                                eq = Some(j);
                            }
                        }
                        Some(b';') if depth == 0 => {
                            semi = j;
                            break;
                        }
                        _ => {}
                    }
                }
            }
            if let Some(eq) = eq {
                let sourced = (eq..semi).any(|j| {
                    let tj = tok(j);
                    tj.kind == TokKind::Ident && cfg.sources.contains(&tj.text) && is_call(j)
                });
                let sanitized = (eq..semi).any(|j| {
                    let tj = tok(j);
                    tj.kind == TokKind::Ident && cfg.sanitizers.contains(&tj.text) && is_call(j)
                });
                let aliases = range_mentions(ctx, eq, semi, &tainted);
                if (sourced || aliases) && !sanitized {
                    for j in k + 1..eq {
                        let tj = tok(j);
                        // Binder idents; `mut`/type-path segments are
                        // harmless over-taint (never used as values).
                        if tj.kind == TokKind::Ident && tj.text != "mut" {
                            tainted.insert(tj.text.clone());
                        }
                    }
                    scan.any_taint = true;
                }
            }
            k += 1;
            continue;
        }
        // Sanitizer call: clear every tainted ident in its argument list.
        if cfg.sanitizers.contains(&t.text) && is_call(k) {
            let after = close_paren(ctx, k + 1, end);
            let cleared: Vec<String> = (k + 2..after)
                .filter_map(|j| {
                    let tj = tok(j);
                    (tj.kind == TokKind::Ident && tainted.contains(&tj.text))
                        .then(|| tj.text.clone())
                })
                .collect();
            for name in cleared {
                tainted.remove(&name);
            }
            k = after;
            continue;
        }
        // `from_utf8(tainted)` + `.unwrap()` / `.expect(…)`.
        if t.text == "from_utf8" && is_call(k) {
            let after = close_paren(ctx, k + 1, end);
            if range_mentions(ctx, k + 2, after.saturating_sub(1), &tainted)
                && after + 1 < end
                && tok(after).is_punct('.')
                && (tok(after + 1).is_ident("unwrap") || tok(after + 1).is_ident("expect"))
            {
                scan.violations.push((
                    t.line,
                    format!(
                        "`from_utf8(…).{}()` on unvalidated transport bytes in `{}` — a \
                         malformed frame panics the verifier",
                        tok(after + 1).text,
                        fact.qual
                    ),
                ));
            }
            k += 1;
            continue;
        }
        // Indexing / slicing a tainted variable.
        if tainted.contains(&t.text) && k + 1 < end && tok(k + 1).is_punct('[') {
            scan.violations.push((
                t.line,
                format!(
                    "`{}` holds raw transport bytes in `{}` and is indexed before any \
                     sanitizer (`{}`) runs — a short or corrupt frame panics here",
                    t.text,
                    fact.qual,
                    cfg.sanitizers.join("`/`"),
                ),
            ));
            k += 2;
            continue;
        }
        // Plain call forwarding a tainted ident: propagate analysis.
        if is_call(k) && !cfg.sources.contains(&t.text) && !(k > start && tok(k - 1).is_punct('.'))
        {
            let after = close_paren(ctx, k + 1, end);
            if range_mentions(ctx, k + 2, after.saturating_sub(1), &tainted) {
                scan.forwards.push((t.text.clone(), t.line));
            }
        }
        k += 1;
    }
    scan
}

/// Per-workspace index: simple fn name → every (path, qual) defining it.
fn fn_index<'a>(
    facts: &'a BTreeMap<String, &'a FileFacts>,
) -> BTreeMap<&'a str, Vec<(&'a str, &'a FnFact)>> {
    let mut idx: BTreeMap<&str, Vec<(&str, &FnFact)>> = BTreeMap::new();
    for ff in facts.values() {
        for fact in ff.fns.values() {
            idx.entry(fact.name.as_str())
                .or_default()
                .push((ff.path.as_str(), fact));
        }
    }
    idx
}

/// Checks every untrusted file reachable from a taint source.
pub fn check(
    ctxs: &BTreeMap<String, &FileContext>,
    facts: &BTreeMap<String, &FileFacts>,
    manifest: &Manifest,
    out: &mut Vec<Finding>,
) {
    let cfg = &manifest.taint;
    let idx = fn_index(facts);
    let mut emitted: BTreeSet<(String, u32)> = BTreeSet::new();
    let mut emit = |path: &str, line: u32, message: String, out: &mut Vec<Finding>| {
        let ctx = ctxs.get(path);
        if ctx.is_some_and(|c| c.in_test_region(line)) {
            return;
        }
        if emitted.insert((path.to_string(), line)) {
            out.push(Finding {
                rule: "taint",
                path: path.to_string(),
                line,
                message,
                snippet: String::new(),
            });
        }
    };

    // Worklist of propagated analyses: (path, qual) with params tainted.
    let mut visited: BTreeSet<(String, String)> = BTreeSet::new();
    let mut work: Vec<(String, String)> = Vec::new();

    for ff in facts.values() {
        if manifest.taint_trusted(&ff.path) {
            continue;
        }
        let Some(ctx) = ctxs.get(ff.path.as_str()) else {
            continue;
        };
        for fact in ff.fns.values() {
            let scan = scan_fn(ctx, fact, &BTreeSet::new(), cfg);
            if !scan.any_taint {
                continue;
            }
            for (line, msg) in &scan.violations {
                emit(&ff.path, *line, msg.clone(), out);
            }
            for (callee, _line) in &scan.forwards {
                for (path, target) in idx.get(callee.as_str()).into_iter().flatten() {
                    if !target.bytes_params.is_empty() {
                        work.push((path.to_string(), target.qual.clone()));
                    }
                }
            }
        }
    }

    while let Some((path, qual)) = work.pop() {
        if !visited.insert((path.clone(), qual.clone())) {
            continue;
        }
        if manifest.taint_trusted(&path) {
            continue;
        }
        let (Some(ctx), Some(ff)) = (ctxs.get(path.as_str()), facts.get(path.as_str())) else {
            continue;
        };
        let Some(fact) = ff.fns.get(&qual) else {
            continue;
        };
        let initial: BTreeSet<String> = fact.bytes_params.iter().cloned().collect();
        let scan = scan_fn(ctx, fact, &initial, cfg);
        for (line, msg) in &scan.violations {
            emit(&path, *line, msg.clone(), out);
        }
        for (callee, _line) in &scan.forwards {
            for (cpath, target) in idx.get(callee.as_str()).into_iter().flatten() {
                if !target.bytes_params.is_empty() {
                    work.push((cpath.to_string(), target.qual.clone()));
                }
            }
        }
    }
}
