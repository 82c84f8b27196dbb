//! `lock-order`: static lock-discipline enforcement.
//!
//! The manifest declares a total order over every named lock in the
//! workspace (`lock-order inner pins map` ⇒ `inner` before `pins`
//! before `map`). This rule tracks guard lifetimes over the token
//! stream and reports:
//!
//! 1. **Order violations** — acquiring a lock whose declared rank is
//!    not strictly greater than every lock currently held (equal rank
//!    means re-acquiring the same lock: guaranteed self-deadlock on a
//!    non-reentrant mutex).
//! 2. **Undeclared locks** — a zero-argument `.lock()`/`.read()`/
//!    `.write()` on a receiver the manifest neither ranks nor ignores.
//!    This keeps the manifest honest: new locks must be placed in the
//!    order before they compile past CI.
//! 3. **Guards across transport** — calling `.call(` (the `Transport`
//!    RPC entry point) while any guard is held. An RPC under a lock
//!    stalls every thread behind that lock for a full network round
//!    trip — the convoy the scheduler's round budget cannot absorb.
//!
//! Guard lifetime model (heuristic, by design): a `let`-bound guard
//! lives until `drop(name)` or the close of its binding block; an
//! unbound (temporary) guard lives to the end of its statement. Only
//! zero-argument `.lock()`/`.read()`/`.write()` calls are treated as
//! acquisitions, so `vfs.read(path)` is never confused for one.

use crate::manifest::Manifest;
use crate::source::FileContext;

use super::Finding;

pub const RULE: &str = "lock-order";

#[derive(Debug)]
struct Held {
    /// Lock name from the manifest.
    lock: String,
    /// Declared rank.
    rank: usize,
    /// Binding name when `let`-bound.
    bound: Option<String>,
    /// Brace depth at acquisition; the guard dies when its block closes.
    depth: i32,
    /// True for guards not bound to a name (die at end of statement).
    temp: bool,
    /// Line of acquisition, for the violation message.
    line: u32,
}

/// Scans one file for lock-discipline violations.
pub fn check(ctx: &FileContext, manifest: &Manifest, out: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    let code = &ctx.code;
    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;

    let mut k = 0usize;
    while k < code.len() {
        let t = &toks[code[k]];
        let at = |off: usize| code.get(k + off).map(|&i| &toks[i]);

        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            held.retain(|g| g.depth <= depth);
        } else if t.is_punct(';') {
            held.retain(|g| !(g.temp && g.depth == depth));
        } else if t.is_ident("drop") && at(1).is_some_and(|n| n.is_punct('(')) {
            if let Some(name) = at(2) {
                if name.kind == crate::lexer::TokKind::Ident {
                    let name = name.text.clone();
                    held.retain(|g| g.bound.as_deref() != Some(name.as_str()));
                }
            }
        } else if t.is_ident("call")
            && k > 0
            && toks[code[k - 1]].is_punct('.')
            && at(1).is_some_and(|n| n.is_punct('('))
            && !ctx.in_test_region(t.line)
        {
            for g in &held {
                out.push(Finding {
                    rule: RULE,
                    path: ctx.path.clone(),
                    line: t.line,
                    message: format!(
                        "transport `.call()` while holding `{}` (acquired line {}) — \
                         an RPC round trip under a lock convoys every waiter",
                        g.lock, g.line
                    ),
                    snippet: ctx.snippet(t.line).to_string(),
                });
            }
        } else if is_acquisition(toks, code, k) && !ctx.in_test_region(t.line) {
            if let Some(receiver) = receiver_name(toks, code, k) {
                if !manifest.lock_ignored(&receiver) {
                    match manifest.lock_rank(&receiver) {
                        None => out.push(Finding {
                            rule: RULE,
                            path: ctx.path.clone(),
                            line: t.line,
                            message: format!(
                                "lock `{receiver}` is not in the lock-order manifest; \
                                 declare it with `lock-order` (or `lock-ignore` if it \
                                 is not a lock)"
                            ),
                            snippet: ctx.snippet(t.line).to_string(),
                        }),
                        Some(rank) => {
                            for g in &held {
                                if g.rank >= rank {
                                    let why = if g.rank == rank {
                                        "re-acquiring a non-reentrant lock self-deadlocks"
                                    } else {
                                        "acquisition order inverts the declared manifest order"
                                    };
                                    out.push(Finding {
                                        rule: RULE,
                                        path: ctx.path.clone(),
                                        line: t.line,
                                        message: format!(
                                            "`{receiver}` acquired while holding `{}` \
                                             (line {}): {why}",
                                            g.lock, g.line
                                        ),
                                        snippet: ctx.snippet(t.line).to_string(),
                                    });
                                }
                            }
                            held.push(Held {
                                lock: receiver,
                                rank,
                                bound: binding_name(toks, code, k),
                                depth,
                                temp: binding_name(toks, code, k).is_none(),
                                line: t.line,
                            });
                        }
                    }
                }
            }
        }
        k += 1;
    }
}

/// The receiver of every acquisition outside test regions, in source
/// order: the lock names this file takes, as the rule sees them.
pub fn acquired_locks(ctx: &FileContext) -> Vec<String> {
    let (toks, code) = (&ctx.tokens, &ctx.code);
    (0..code.len())
        .filter(|&k| is_acquisition(toks, code, k) && !ctx.in_test_region(toks[code[k]].line))
        .filter_map(|k| receiver_name(toks, code, k))
        .collect()
}

/// True when `code[k]` starts `.lock()` / `.read()` / `.write()` — the
/// ident itself, preceded by `.`, followed by `(` `)`. Zero-argument
/// only: `vfs.read(path)` is I/O, not an acquisition.
fn is_acquisition(toks: &[crate::lexer::Tok], code: &[usize], k: usize) -> bool {
    let t = &toks[code[k]];
    (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
        && k > 0
        && toks[code[k - 1]].is_punct('.')
        && code.get(k + 1).is_some_and(|&i| toks[i].is_punct('('))
        && code.get(k + 2).is_some_and(|&i| toks[i].is_punct(')'))
}

/// The receiver identifier of the acquisition at `code[k]`: the token
/// before the `.`, back-walking over one balanced `(…)` group so
/// `stdout().lock()` resolves to `stdout`.
fn receiver_name(toks: &[crate::lexer::Tok], code: &[usize], k: usize) -> Option<String> {
    let mut j = k.checked_sub(2)?; // skip the `.`
    if toks[code[j]].is_punct(')') {
        let mut d = 0i32;
        loop {
            let t = &toks[code[j]];
            if t.is_punct(')') {
                d += 1;
            } else if t.is_punct('(') {
                d -= 1;
                if d == 0 {
                    j = j.checked_sub(1)?;
                    break;
                }
            }
            j = j.checked_sub(1)?;
        }
    }
    let t = &toks[code[j]];
    (t.kind == crate::lexer::TokKind::Ident).then(|| t.text.clone())
}

/// When the statement containing `code[k]` is `let [mut] NAME = …`,
/// returns `NAME`. Scans back to the nearest statement boundary.
fn binding_name(toks: &[crate::lexer::Tok], code: &[usize], k: usize) -> Option<String> {
    let mut j = k;
    while j > 0 {
        let t = &toks[code[j - 1]];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    let t = &toks[code[j]];
    if !t.is_ident("let") {
        return None;
    }
    let mut n = j + 1;
    if code.get(n).is_some_and(|&i| toks[i].is_ident("mut")) {
        n += 1;
    }
    let name = &toks[*code.get(n)?];
    (name.kind == crate::lexer::TokKind::Ident).then(|| name.text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let manifest = Manifest::parse("lock-order inner pins map\nlock-ignore stdout\n").unwrap();
        let ctx = FileContext::new("crates/x/src/lib.rs", src);
        let mut out = Vec::new();
        check(&ctx, &manifest, &mut out);
        out
    }

    #[test]
    fn declared_order_is_silent() {
        let src = "fn f(s: &S) {\n    let inner = s.inner.read();\n    let pins = s.pins.lock();\n    let m = s.map.write();\n}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn inversion_is_flagged() {
        let src =
            "fn f(s: &S) {\n    let pins = s.pins.lock();\n    let inner = s.inner.read();\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("inverts"), "{}", out[0].message);
    }

    #[test]
    fn reacquisition_is_flagged() {
        let src = "fn f(s: &S) {\n    let a = s.pins.lock();\n    let b = s.pins.lock();\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("self-deadlocks"));
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "fn f(s: &S) {\n    let pins = s.pins.lock();\n    drop(pins);\n    let inner = s.inner.read();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn block_close_releases_the_guard() {
        let src = "fn f(s: &S) {\n    {\n        let pins = s.pins.lock();\n    }\n    let inner = s.inner.read();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn temporary_dies_at_statement_end() {
        let src = "fn f(s: &S) {\n    s.pins.lock().push(1);\n    let inner = s.inner.read();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn undeclared_lock_is_flagged() {
        let src = "fn f(s: &S) {\n    let g = s.ghost.lock();\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("not in the lock-order manifest"));
    }

    #[test]
    fn ignored_and_arged_receivers_are_silent() {
        let src = "fn f(s: &S, vfs: &V) {\n    let o = stdout().lock();\n    let data = vfs.read(path);\n    vfs.write(path, data);\n}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn guard_across_transport_call() {
        let src =
            "fn f(s: &S, t: &mut T) {\n    let pins = s.pins.lock();\n    t.call(req, serve);\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("transport"), "{}", out[0].message);
    }

    #[test]
    fn transport_call_without_guard_is_fine() {
        let src = "fn f(t: &mut T) {\n    t.call(req, serve);\n}\n";
        assert!(run(src).is_empty());
    }
}
