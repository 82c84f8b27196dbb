//! Command line of the benchmark.
//!
//! ```text
//! cia-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--sabotage-oracle]
//! cia-benchmark suite [--seed N] [--seconds S] [--smoke] [--out FILE]
//! cia-benchmark compare A.json B.json
//! ```
//!
//! The first form is what the driver calls: it prints one JSON result
//! object as the last line of standard output and exits non-zero when
//! any outcome differed from the oracle.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cia_benchmark::report::{compare, suite, SuiteArgs};
use cia_benchmark::run::{run, RunArgs};
use cia_benchmark::workloads::WORKLOADS;

/// The benchmark's own directory, fixed at build time: results and
/// traces go under it wherever the binary is started from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--name value` pairs and bare `--flags` after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name} {text}: not a valid value")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn main_run(flags: &Flags) -> Result<bool, String> {
    let workload = flags
        .value("--workload")
        .ok_or_else(|| format!("--workload is required: one of {}", WORKLOADS.join(", ")))?;
    let args = RunArgs {
        workload: workload.to_string(),
        seed: flags.parsed("--seed", 1)?,
        seconds: flags.parsed("--seconds", 15.0)?,
        trace: flags.parsed::<u8>("--trace", 0)? != 0,
        smoke: flags.has("--smoke"),
        sabotage: flags.has("--sabotage-oracle"),
        out_dir: Some(out_dir()),
    };
    let result = run(&args)?;
    println!("{}", result.to_json_line());
    Ok(result.correct())
}

fn main_suite(flags: &Flags) -> Result<bool, String> {
    let smoke = flags.has("--smoke");
    let args = SuiteArgs {
        seed: flags.parsed("--seed", 1)?,
        seconds: flags.parsed("--seconds", if smoke { 0 } else { 15 })?,
        smoke,
        out: flags
            .value("--out")
            .map_or_else(|| out_dir().join("results.json"), PathBuf::from),
    };
    suite(&args).map(|()| true)
}

fn main_compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare needs two result files".to_string());
    };
    compare(Path::new(a), Path::new(b))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => main_suite(&Flags(args[1..].to_vec())),
        Some("compare") => main_compare(&args[1..]),
        _ => main_run(&Flags(args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
