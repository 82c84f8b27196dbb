//! `determinism`: no ambient wall-clock or entropy in pipeline code.
//!
//! The chaos harness replays fault plans bit-identically from a seed;
//! one stray `Instant::now()` in appraisal logic silently breaks that
//! replay. Wall-clock reads are only legal in modules the manifest
//! allowlists (benches, the linter itself) or under an explicit
//! `lint:allow(determinism): reason` when the value feeds metrics only.
//!
//! A `HashMap`, `HashSet` or `RandomState` is ambient entropy too: its
//! hasher is seeded per process, so its iteration order differs from
//! run to run. Any iteration that feeds a verdict, a report or an
//! encoder (`Wire::encode`, `to_json`, a hand-written serializer) then
//! yields different bytes for the same state. Rather than guess which
//! functions serialize, the rule flags the type names themselves in
//! pipeline code; `BTreeMap`/`BTreeSet` are the deterministic
//! replacements.
//!
//! Matched patterns: `Instant::now(` / `SystemTime::now(`,
//! `thread_rng(`, `::from_entropy(` / `.from_entropy(`,
//! `rand::random`, and the identifiers `HashMap`, `HashSet` and
//! `RandomState` (once per line).

use crate::source::FileContext;

use super::Finding;

pub const RULE: &str = "determinism";

/// Hash-seeded types: iteration order is random per process.
const SEEDED_TYPES: [&str; 3] = ["HashMap", "HashSet", "RandomState"];

/// Scans one file for ambient time/entropy reads.
pub fn check(ctx: &FileContext, out: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    let code = &ctx.code;
    let mut seeded_line = 0;
    for (k, &ti) in code.iter().enumerate() {
        let t = &toks[ti];
        if ctx.in_test_region(t.line) {
            continue;
        }
        let at = |off: usize| code.get(k + off).map(|&i| &toks[i]);

        // HashMap / HashSet / RandomState, once per line
        if SEEDED_TYPES.iter().any(|name| t.is_ident(name)) {
            if t.line != seeded_line {
                seeded_line = t.line;
                out.push(finding(
                    ctx,
                    t.line,
                    format!(
                        "`{}` iteration order is seeded per process (use BTreeMap/BTreeSet)",
                        t.text
                    ),
                ));
            }
            continue;
        }

        // Instant::now( / SystemTime::now(
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && at(1).is_some_and(|n| n.is_punct(':'))
            && at(2).is_some_and(|n| n.is_punct(':'))
            && at(3).is_some_and(|n| n.is_ident("now"))
            && at(4).is_some_and(|n| n.is_punct('('))
        {
            out.push(finding(
                ctx,
                t.line,
                format!("`{}::now()` reads ambient wall-clock", t.text),
            ));
            continue;
        }

        // thread_rng(
        if t.is_ident("thread_rng") && at(1).is_some_and(|n| n.is_punct('(')) {
            out.push(finding(
                ctx,
                t.line,
                "`thread_rng()` draws ambient entropy".to_string(),
            ));
            continue;
        }

        // ::from_entropy( or .from_entropy(
        if t.is_ident("from_entropy")
            && at(1).is_some_and(|n| n.is_punct('('))
            && k > 0
            && (toks[code[k - 1]].is_punct(':') || toks[code[k - 1]].is_punct('.'))
        {
            out.push(finding(
                ctx,
                t.line,
                "`from_entropy()` seeds from the OS, not the sim seed".to_string(),
            ));
            continue;
        }

        // rand::random
        if t.is_ident("rand")
            && at(1).is_some_and(|n| n.is_punct(':'))
            && at(2).is_some_and(|n| n.is_punct(':'))
            && at(3).is_some_and(|n| n.is_ident("random"))
        {
            out.push(finding(
                ctx,
                t.line,
                "`rand::random()` draws ambient entropy".to_string(),
            ));
        }
    }
}

fn finding(ctx: &FileContext, line: u32, what: String) -> Finding {
    Finding {
        rule: RULE,
        path: ctx.path.clone(),
        line,
        message: format!("{what}; deterministic replay requires seeded time/randomness"),
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
    fn flags_instant_and_systemtime() {
        let out = run("fn f() {\n    let a = Instant::now();\n    let b = SystemTime::now();\n}\n");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].line, 2);
        assert_eq!(out[1].line, 3);
    }

    #[test]
    fn flags_entropy_sources() {
        let out = run(
            "fn f() {\n    let mut rng = thread_rng();\n    let r = StdRng::from_entropy();\n    let v: u8 = rand::random();\n}\n",
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn silent_in_tests_strings_and_comments() {
        let out = run(
            "fn f() { let s = \"Instant::now()\"; } // Instant::now()\n#[cfg(test)]\nmod tests {\n    fn t() { let x = Instant::now(); }\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn flags_hash_seeded_types_once_per_line() {
        let out = run(
            "use std::collections::HashMap;\nstruct S {\n    m: HashMap<u64, HashSet<u64>>,\n    h: RandomState,\n    b: BTreeMap<u64, u64>,\n}\n",
        );
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 3, 4], "{out:?}");
        assert!(out[1].message.contains("`HashMap`"), "{out:?}");
    }

    #[test]
    fn instant_elapsed_is_fine() {
        // Arithmetic on an existing Instant is deterministic-safe; only
        // the ambient read is flagged.
        let out = run("fn f(t: Instant) -> Duration { t.elapsed_since(EPOCH) }\n");
        assert!(out.is_empty());
    }
}
