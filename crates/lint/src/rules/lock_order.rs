//! `lock-order`: every lock is a leaf.
//!
//! No lock in the workspace is acquired while another guard is live,
//! so there is no order to declare: the rule tracks guard lifetimes
//! over the token stream and reports
//!
//! 1. **Nested acquisitions** — a zero-argument `.lock()`/`.read()`/
//!    `.write()` while any guard is live. Re-acquiring the lock a live
//!    guard already holds is named as the self-deadlock it is on a
//!    non-reentrant mutex.
//! 2. **Guards across transport** — calling `.call(` (the `Transport`
//!    RPC entry point) while any guard is live. An RPC under a lock
//!    stalls every thread behind that lock for a full network round
//!    trip — the convoy the scheduler's round budget cannot absorb.
//!
//! A lock that is only ever taken on its own needs no declaration.
//!
//! Guard lifetime model (heuristic, by design): a `let`-bound guard
//! lives until `drop(name)` or the close of its binding block; an
//! unbound (temporary) guard lives to the end of its statement. Only
//! zero-argument `.lock()`/`.read()`/`.write()` calls are treated as
//! acquisitions, so `vfs.read(path)` is never confused for one.

use crate::lexer::{Tok, TokKind};
use crate::source::FileContext;

use super::Finding;

pub const RULE: &str = "lock-order";

#[derive(Debug)]
struct Held {
    /// Receiver the guard was taken from.
    lock: String,
    /// Binding name when `let`-bound.
    bound: Option<String>,
    /// Brace depth at acquisition; the guard dies when its block closes.
    depth: i32,
    /// Line of acquisition, for the finding's message.
    line: u32,
}

/// Scans one file for acquisitions and transport calls under a live
/// guard.
pub fn check(ctx: &FileContext, out: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;
    let finding = |line: u32, message: String| Finding {
        rule: RULE,
        path: ctx.path.clone(),
        line,
        message,
        snippet: ctx.snippet(line).to_string(),
    };

    for (k, t) in toks.iter().enumerate() {
        let at = |off: usize| toks.get(k + off);

        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            held.retain(|g| g.depth <= depth);
        } else if t.is_punct(';') {
            held.retain(|g| g.bound.is_some() || g.depth != depth);
        } else if t.is_ident("drop") && at(1).is_some_and(|n| n.is_punct('(')) {
            if let Some(name) = at(2).filter(|n| n.kind == TokKind::Ident) {
                held.retain(|g| g.bound.as_deref() != Some(name.text.as_str()));
            }
        } else if t.is_ident("call")
            && k > 0
            && toks[k - 1].is_punct('.')
            && at(1).is_some_and(|n| n.is_punct('('))
            && !ctx.in_test_region(t.line)
        {
            if let Some(g) = held.last() {
                out.push(finding(
                    t.line,
                    format!(
                        "transport `.call()` while holding `{}` (acquired line {}) — \
                         an RPC round trip under a lock convoys every waiter",
                        g.lock, g.line
                    ),
                ));
            }
        } else if is_acquisition(toks, k) && !ctx.in_test_region(t.line) {
            // An unnamed receiver (`locks[i].lock()`) is still a guard.
            let lock = receiver_name(toks, k).unwrap_or_else(|| "lock".to_string());
            let same = held.iter().find(|g| g.lock == lock);
            if let Some(g) = same.or(held.last()) {
                let why = if g.lock == lock {
                    "re-acquiring a non-reentrant lock self-deadlocks"
                } else {
                    "every lock is a leaf; release the first guard before taking another"
                };
                out.push(finding(
                    t.line,
                    format!(
                        "`{lock}` acquired while holding `{}` (line {}): {why}",
                        g.lock, g.line
                    ),
                ));
            }
            held.push(Held {
                lock,
                bound: binding_name(toks, k),
                depth,
                line: t.line,
            });
        }
    }
}

/// True when `toks[k]` starts `.lock()` / `.read()` / `.write()` — the
/// ident itself, preceded by `.`, followed by `(` `)`. Zero-argument
/// only: `vfs.read(path)` is I/O, not an acquisition.
fn is_acquisition(toks: &[Tok], k: usize) -> bool {
    let t = &toks[k];
    (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
        && k > 0
        && toks[k - 1].is_punct('.')
        && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
        && toks.get(k + 2).is_some_and(|n| n.is_punct(')'))
}

/// The receiver identifier of the acquisition at `toks[k]`: the token
/// before the `.`, back-walking over one balanced `(…)` group so
/// `stdout().lock()` resolves to `stdout`.
fn receiver_name(toks: &[Tok], k: usize) -> Option<String> {
    let mut j = k.checked_sub(2)?; // skip the `.`
    if toks[j].is_punct(')') {
        let mut d = 0i32;
        loop {
            let t = &toks[j];
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
    let t = &toks[j];
    (t.kind == TokKind::Ident).then(|| t.text.clone())
}

/// When the statement containing `toks[k]` is `let [mut] NAME = …`,
/// returns `NAME`. Scans back to the nearest statement boundary.
fn binding_name(toks: &[Tok], k: usize) -> Option<String> {
    let mut j = k;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    let t = &toks[j];
    if !t.is_ident("let") {
        return None;
    }
    let mut n = j + 1;
    if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
        n += 1;
    }
    let name = toks.get(n)?;
    (name.kind == TokKind::Ident).then(|| name.text.clone())
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
    fn nesting_in_any_order_is_flagged() {
        // Whatever the order, a guard taken under another is a finding.
        let src =
            "fn f(s: &S) {\n    let inner = s.inner.read();\n    let pins = s.pins.lock();\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("leaf"), "{}", out[0].message);
    }

    #[test]
    fn inversion_is_flagged() {
        let src =
            "fn f(s: &S) {\n    let pins = s.pins.lock();\n    let inner = s.inner.read();\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("`pins`"), "{}", out[0].message);
    }

    #[test]
    fn reacquisition_is_flagged() {
        let src = "fn f(s: &S) {\n    let a = s.pins.lock();\n    let b = s.pins.lock();\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("self-deadlocks"));
    }

    #[test]
    fn lone_undeclared_lock_is_silent() {
        let src = "fn f(s: &S) {\n    let g = s.ghost.lock();\n}\n";
        assert!(run(src).is_empty());
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
    fn ignored_and_arged_receivers_are_silent() {
        // `stdout().lock()` is an acquisition like any other, and alone
        // it is a leaf; calls with arguments are I/O, not acquisitions.
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
