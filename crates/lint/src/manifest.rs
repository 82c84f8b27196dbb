//! The workspace lint manifest (`cia-lint.manifest`).
//!
//! A deliberately tiny line-based format — one directive per line,
//! whitespace-separated, `#` comments — so the linter stays
//! dependency-free and the manifest diffs cleanly in review:
//!
//! ```text
//! hot-path crates/keylime/src/verifier.rs   # panic-free enforcement
//! determinism-allow crates/bench/           # wall-clock is the point
//! ```
//!
//! The lock rule needs no declarations: every lock is a leaf, so there
//! is no order to write down. The retired `lock-order` and
//! `lock-ignore` directives are errors naming their line.
//!
//! A `[name]` section header is an error: the sections of retired
//! rules (`[taint]`, `[pairs]`, `[exhaustive]`) fail loudly instead of
//! being ignored.

use std::fmt;

/// Parsed manifest contents.
#[derive(Debug, Default, Clone)]
pub struct Manifest {
    /// Files the panic-free rule enforces (workspace-relative).
    pub hot_paths: Vec<String>,
    /// Path prefixes exempt from the determinism rule.
    pub determinism_allow: Vec<String>,
}

/// A manifest line the parser could not understand.
#[derive(Debug)]
pub struct ManifestError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.message)
    }
}

impl Manifest {
    /// Parses manifest text.
    ///
    /// # Errors
    ///
    /// [`ManifestError`] on an unknown directive or section, or a
    /// directive without exactly one argument.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let mut m = Manifest::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = |message: String| -> ManifestError {
                ManifestError {
                    line: line_no,
                    message,
                }
            };
            if line.starts_with('[') {
                return Err(bad(format!("unknown section `{line}`")));
            }
            let mut words = line.split_whitespace();
            let directive = words.next().unwrap_or("");
            let args: Vec<&str> = words.collect();
            let need_one = |args: &[&str]| -> Result<String, ManifestError> {
                match args {
                    [one] => Ok((*one).to_string()),
                    _ => Err(bad(format!("`{directive}` takes exactly one argument"))),
                }
            };
            match directive {
                "hot-path" => m.hot_paths.push(need_one(&args)?),
                "determinism-allow" => m.determinism_allow.push(need_one(&args)?),
                other => return Err(bad(format!("unknown directive `{other}`"))),
            }
        }
        Ok(m)
    }

    /// True when `path` is one of the panic-free hot paths.
    pub fn is_hot_path(&self, path: &str) -> bool {
        self.hot_paths.iter().any(|p| p == path)
    }

    /// True when `path` is exempt from the determinism rule.
    pub fn determinism_allowed(&self, path: &str) -> bool {
        self.determinism_allow.iter().any(|p| path.starts_with(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_directive() {
        let text = "\
# comment\n\
hot-path crates/keylime/src/store.rs\n\
determinism-allow crates/bench/   # trailing comment\n";
        let m = Manifest::parse(text).unwrap();
        assert!(m.is_hot_path("crates/keylime/src/store.rs"));
        assert!(m.determinism_allowed("crates/bench/src/bin/x.rs"));
        assert!(!m.determinism_allowed("crates/keylime/src/store.rs"));
    }

    #[test]
    fn parses_taint_section() {
        // A manifest written for the retired taint rule stops at its
        // `[taint]` header, naming the line, instead of silently parsing.
        let text = "\
hot-path crates/x/src/wire.rs\n\
[taint]\n\
source recv_frame\n\
sanitizer from_wire  # validates\n\
trusted crates/wire/\n";
        let err = Manifest::parse(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(
            err.to_string(),
            "manifest line 2: unknown section `[taint]`"
        );
    }

    #[test]
    fn rejects_bad_sections() {
        // Sections of retired rules are rejected, so a stale manifest
        // fails loudly instead of being ignored.
        for header in ["[frobs]", "[pairs]", "[exhaustive]", "[taint]"] {
            let err = Manifest::parse(&format!("hot-path x\n{header}\n")).unwrap_err();
            assert!(err.to_string().contains("unknown section"), "{err}");
            assert_eq!(err.line, 2);
        }
    }

    #[test]
    fn rejects_unknown_directive() {
        let err = Manifest::parse("frobnicate x\n").unwrap_err();
        assert!(err.to_string().contains("unknown directive"));
        assert_eq!(err.line, 1);
        // The retired lock directives are unknown too, naming their line.
        let err = Manifest::parse("lock-order a b\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "manifest line 1: unknown directive `lock-order`"
        );
        let err = Manifest::parse("hot-path x\n\nlock-ignore stdout\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "manifest line 3: unknown directive `lock-ignore`"
        );
    }

    #[test]
    fn rejects_duplicate_lock() {
        // No lock is declared any more, so a manifest that declares one
        // twice stops at its first declaration.
        let err = Manifest::parse("hot-path x\nlock-order a\nlock-order a\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown directive"), "{err}");
    }

    #[test]
    fn rejects_arity_errors() {
        assert!(Manifest::parse("hot-path a b\n").is_err());
        assert!(Manifest::parse("determinism-allow\n").is_err());
    }
}
