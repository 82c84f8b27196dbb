//! `cia-lint` CLI.
//!
//! ```text
//! cargo run -p cia-lint                 # report findings, exit 0
//! cargo run -p cia-lint -- --check      # CI mode: exit 1 on findings
//! ```
//!
//! Lints the current directory (cargo runs from the workspace root)
//! against its `cia-lint.manifest`.

use std::path::Path;
use std::process::ExitCode;

use cia_lint::{lint_workspace, report};

fn main() -> ExitCode {
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--help" | "-h" => {
                eprintln!("usage: cia-lint [--check]");
                return ExitCode::from(2);
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let findings = match lint_workspace(Path::new("."), Path::new("cia-lint.manifest")) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cia-lint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report::human(&findings));

    if check && !findings.is_empty() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
