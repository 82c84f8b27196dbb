//! The workspace lint manifest (`cia-lint.manifest`).
//!
//! A deliberately tiny line-based format — one directive per line,
//! whitespace-separated, `#` comments — so the linter stays
//! dependency-free and the manifest diffs cleanly in review:
//!
//! ```text
//! hot-path crates/keylime/src/verifier.rs   # panic-free enforcement
//! determinism-allow crates/bench/           # wall-clock is the point
//! lock-order inner                          # outermost first
//! lock-order pins
//! lock-ignore stdout                        # std handles, not locks
//! ```
//!
//! `lock-order` lines declare the workspace's **total lock order**: a
//! lock may only be acquired while holding locks that appear strictly
//! *earlier* in the list. Every zero-argument `.lock()`/`.read()`/
//! `.write()` receiver must be declared (or explicitly ignored) — an
//! undeclared acquisition is itself a finding, which keeps the manifest
//! honest as the concurrent surface grows.
//!
//! The taint rule's configuration lives in a `[taint]` *section* (the
//! header switches the directive set for the rest of the file; any other
//! `[name]` header is an error):
//!
//! ```text
//! [taint]                         # untrusted-input taint config
//! source recv_frame               # calls that yield raw wire bytes
//! sanitizer from_wire             # calls that validate them
//! trusted crates/wire/            # path prefix exempt from the rule
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// Untrusted-input taint configuration.
#[derive(Debug, Clone, Default)]
pub struct TaintConfig {
    /// Call names whose results are raw untrusted bytes (`recv_frame`).
    pub sources: Vec<String>,
    /// Call names that validate bytes (`from_wire`, `check_crc`).
    pub sanitizers: Vec<String>,
    /// Path prefixes exempt from the rule (the codec crate itself).
    pub trusted: Vec<String>,
}

/// Parsed manifest contents.
#[derive(Debug, Default, Clone)]
pub struct Manifest {
    /// Files the panic-free rule enforces (workspace-relative).
    pub hot_paths: Vec<String>,
    /// Path prefixes exempt from the determinism rule.
    pub determinism_allow: Vec<String>,
    /// Lock name → rank in the declared total order (0 = outermost).
    pub lock_order: BTreeMap<String, usize>,
    /// Receiver identifiers that look like locks but are not
    /// (`stdout().lock()` and friends).
    pub lock_ignore: Vec<String>,
    /// `[taint]` section configuration.
    pub taint: TaintConfig,
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
    /// [`ManifestError`] on an unknown directive, a missing argument, or
    /// a duplicate lock declaration.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        #[derive(PartialEq, Clone, Copy)]
        enum Section {
            Main,
            Taint,
        }
        let mut m = Manifest::default();
        let mut section = Section::Main;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = match header.trim() {
                    "taint" => Section::Taint,
                    other => {
                        return Err(ManifestError {
                            line: line_no,
                            message: format!("unknown section `[{other}]`"),
                        })
                    }
                };
                continue;
            }
            let mut words = line.split_whitespace();
            let directive = words.next().unwrap_or("");
            let args: Vec<&str> = words.collect();
            let need_one = |args: &[&str]| -> Result<String, ManifestError> {
                match args {
                    [one] => Ok((*one).to_string()),
                    _ => Err(ManifestError {
                        line: line_no,
                        message: format!("`{directive}` takes exactly one argument"),
                    }),
                }
            };
            let bad = |message: String| -> ManifestError {
                ManifestError {
                    line: line_no,
                    message,
                }
            };
            match section {
                Section::Main => match directive {
                    "hot-path" => m.hot_paths.push(need_one(&args)?),
                    "determinism-allow" => m.determinism_allow.push(need_one(&args)?),
                    "lock-ignore" => m.lock_ignore.push(need_one(&args)?),
                    "lock-order" => {
                        if args.is_empty() {
                            return Err(bad(
                                "`lock-order` needs at least one lock name".to_string()
                            ));
                        }
                        for name in args {
                            let rank = m.lock_order.len();
                            if m.lock_order.insert(name.to_string(), rank).is_some() {
                                return Err(bad(format!("lock `{name}` declared twice")));
                            }
                        }
                    }
                    other => return Err(bad(format!("unknown directive `{other}`"))),
                },
                Section::Taint => match directive {
                    "source" => m.taint.sources.push(need_one(&args)?),
                    "sanitizer" => m.taint.sanitizers.push(need_one(&args)?),
                    "trusted" => m.taint.trusted.push(need_one(&args)?),
                    other => return Err(bad(format!("unknown `[taint]` directive `{other}`"))),
                },
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

    /// The declared rank of a lock, if declared.
    pub fn lock_rank(&self, name: &str) -> Option<usize> {
        self.lock_order.get(name).copied()
    }

    /// True when `name` was declared not-a-lock.
    pub fn lock_ignored(&self, name: &str) -> bool {
        self.lock_ignore.iter().any(|n| n == name)
    }

    /// True when `path` is under a `[taint] trusted` prefix.
    pub fn taint_trusted(&self, path: &str) -> bool {
        self.taint.trusted.iter().any(|p| path.starts_with(p))
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
determinism-allow crates/bench/   # trailing comment\n\
lock-order inner pins\n\
lock-order map\n\
lock-ignore stdout\n";
        let m = Manifest::parse(text).unwrap();
        assert!(m.is_hot_path("crates/keylime/src/store.rs"));
        assert!(m.determinism_allowed("crates/bench/src/bin/x.rs"));
        assert!(!m.determinism_allowed("crates/keylime/src/store.rs"));
        assert_eq!(m.lock_rank("inner"), Some(0));
        assert_eq!(m.lock_rank("pins"), Some(1));
        assert_eq!(m.lock_rank("map"), Some(2));
        assert_eq!(m.lock_rank("ghost"), None);
        assert!(m.lock_ignored("stdout"));
    }

    #[test]
    fn parses_taint_section() {
        let text = "\
hot-path crates/x/src/wire.rs\n\
[taint]\n\
source recv_frame\n\
sanitizer from_wire  # validates\n\
trusted crates/wire/\n";
        let m = Manifest::parse(text).unwrap();
        assert!(m.is_hot_path("crates/x/src/wire.rs"));
        assert_eq!(m.taint.sources, ["recv_frame"]);
        assert_eq!(m.taint.sanitizers, ["from_wire"]);
        assert!(m.taint_trusted("crates/wire/src/codec.rs"));
        assert!(!m.taint_trusted("crates/keylime/src/remote.rs"));
    }

    #[test]
    fn rejects_bad_sections() {
        // Sections of retired rules are rejected, so a stale manifest
        // fails loudly instead of being ignored.
        for header in ["[frobs]", "[pairs]", "[exhaustive]"] {
            let err = Manifest::parse(&format!("{header}\n")).unwrap_err();
            assert!(err.to_string().contains("unknown section"), "{err}");
        }
        assert!(Manifest::parse("[taint]\nhot-path x\n").is_err());
    }

    #[test]
    fn rejects_unknown_directive() {
        let err = Manifest::parse("frobnicate x\n").unwrap_err();
        assert!(err.to_string().contains("unknown directive"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_duplicate_lock() {
        let err = Manifest::parse("lock-order a\nlock-order a\n").unwrap_err();
        assert!(err.to_string().contains("declared twice"));
    }

    #[test]
    fn rejects_arity_errors() {
        assert!(Manifest::parse("hot-path a b\n").is_err());
        assert!(Manifest::parse("lock-order\n").is_err());
    }
}
