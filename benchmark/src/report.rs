//! Result files: the `suite` subcommand that fills one from several
//! fresh-process runs per workload, and the `compare` subcommand that
//! judges one against another with each metric's own bound.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::metrics::{self, Better, Metric};
use crate::stats::{iqr_share, median, min_max};
use crate::workloads::{LANES, WORKLOADS};

/// The result line of one run, as the driver and `suite` read it.
#[derive(Debug, Clone, Deserialize)]
pub struct RunLine {
    /// Every checked outcome matched the oracle.
    pub correct: bool,
    /// Agent-attestations checked.
    pub attempted: u64,
    /// Mismatches among them.
    pub failed: u64,
    /// Metric name → reading.
    pub metrics: BTreeMap<String, Reading>,
}

/// One metric reading in a [`RunLine`].
#[derive(Debug, Clone, Deserialize)]
pub struct Reading {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// One (metric, workload) row of a result file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The metric's unit.
    pub unit: String,
    /// Median of `runs` — the reported value.
    pub median: f64,
    /// Smallest per-run value.
    pub min: f64,
    /// Largest per-run value.
    pub max: f64,
    /// Distance between the runs' first and third quartile as a share
    /// of the median (0 with fewer than two runs).
    pub iqr_share: f64,
    /// The per-run values behind the median, in run order.
    pub runs: Vec<f64>,
}

/// Untraced runs per workload behind every end-to-end median, each in a
/// fresh process.
pub const RUNS: u64 = 3;

/// Everything `suite` records: where and how the numbers were taken,
/// then the numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    /// `--seed` of every run.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: u64,
    /// Whether sizes were cut to smoke scale.
    pub smoke: bool,
    /// Cores the box reported.
    pub nproc: u64,
    /// Lanes the workloads ran on.
    pub lanes: u64,
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub git_head: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Mismatches per workload, summed over its runs. Must all be 0.
    pub failed: BTreeMap<String, u64>,
    /// Agent-attestations checked per workload, summed over its runs.
    pub attempted: BTreeMap<String, u64>,
    /// End-to-end rows (from the untraced runs).
    pub end_to_end: Vec<Row>,
    /// Per-layer rows (from the one traced run per workload).
    pub per_layer: Vec<Row>,
}

impl ResultFile {
    /// Every row, end-to-end first.
    fn rows(&self) -> impl Iterator<Item = &Row> {
        self.end_to_end.iter().chain(&self.per_layer)
    }
}

/// What `suite` should do.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// `--seed` passed to every run.
    pub seed: u64,
    /// `--seconds` passed to every run.
    pub seconds: u64,
    /// Pass `--smoke` to every run.
    pub smoke: bool,
    /// Where to write the result file.
    pub out: PathBuf,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_child(workload: &str, trace: bool, args: &SuiteArgs) -> Result<RunLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        child.arg("--smoke");
    }
    // The child's stderr (layer tables) passes straight through.
    let out = child
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result (exit {})", out.status))?;
    serde_json::from_str(line).map_err(|e| format!("{workload} result line: {e}"))
}

fn row(workload: &str, metric: &str, unit: &str, runs: Vec<f64>) -> Row {
    let (min, max) = min_max(&runs);
    Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        unit: unit.to_string(),
        median: median(&runs),
        min,
        max,
        iqr_share: if runs.len() < 2 {
            0.0
        } else {
            iqr_share(&runs)
        },
        runs,
    }
}

/// Runs every workload [`RUNS`] times untraced — each run a fresh
/// process, interleaved across workloads so a noisy spell hits all of
/// them alike — then once traced; prints every metric and writes the
/// result file.
///
/// # Errors
///
/// A child that could not be started or printed no result, an oracle
/// mismatch in any run, or an unwritable result file.
pub fn suite(args: &SuiteArgs) -> Result<(), String> {
    let mut failed: BTreeMap<String, u64> = BTreeMap::new();
    let mut attempted: BTreeMap<String, u64> = BTreeMap::new();
    let mut samples: BTreeMap<(usize, &str, bool), (String, Vec<f64>)> = BTreeMap::new();
    let passes = (0..RUNS).map(|_| false).chain([true]);
    for trace in passes {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!("suite: {workload} (trace {})", u8::from(trace));
            let line = run_child(workload, trace, args)?;
            *failed.entry(workload.to_string()).or_default() += line.failed;
            *attempted.entry(workload.to_string()).or_default() += line.attempted;
            for (name, reading) in line.metrics {
                let metric = metrics::find(&name)
                    .ok_or_else(|| format!("{workload} printed unknown metric `{name}`"))?;
                samples
                    .entry((w, metric.name, trace))
                    .or_insert_with(|| (reading.unit, Vec::new()))
                    .1
                    .push(reading.value);
            }
        }
    }
    let (mut end_to_end, mut per_layer) = (Vec::new(), Vec::new());
    for ((w, metric, trace), (unit, runs)) in samples {
        let row = row(WORKLOADS[w], metric, &unit, runs);
        println!(
            "{:<14} {:<40} {:>16.4} {:<10} [{:.4} .. {:.4}] n={} iqr {:.2} %",
            row.workload,
            row.metric,
            row.median,
            row.unit,
            row.min,
            row.max,
            row.runs.len(),
            100.0 * row.iqr_share
        );
        if trace {
            &mut per_layer
        } else {
            &mut end_to_end
        }
        .push(row);
    }
    let file = ResultFile {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        lanes: LANES as u64,
        git_head: command_line("git", &["rev-parse", "HEAD"]),
        rustc: command_line("rustc", &["--version"]),
        failed: failed.clone(),
        attempted,
        end_to_end,
        per_layer,
    };
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let body = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    std::fs::write(&args.out, body).map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("results written to {}", args.out.display());
    match failed.iter().find(|(_, &n)| n > 0) {
        Some((workload, n)) => Err(format!("{workload}: {n} outcome(s) differ from the oracle")),
        None => Ok(()),
    }
}

/// How one (metric, workload) pair of the second file reads against the
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the runs are steadier than the bound.
    Same,
    /// Better by more than the bound, or every run beats every run.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// The runs spread wider than the bound and overlap: no call.
    Unresolved,
}

/// Judges `b` against `a` for one metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // Orient so that larger is worse.
    let orient = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .map(|&x| if better == Better::Lower { x } else { -x })
            .collect()
    };
    let (a, b) = (orient(a), orient(b));
    let (med_a, med_b) = (median(&a), median(&b));
    let worse_by = (med_b - med_a) / med_a.abs();
    let ((a_min, a_max), (b_min, b_max)) = (min_max(&a), min_max(&b));
    let spread = ((a_max - a_min) / med_a.abs()).max((b_max - b_min) / med_b.abs());
    if b_max < a_min {
        Verdict::Better
    } else if b_min > a_max {
        if worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Same
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn read_json<T: serde::de::DeserializeOwned>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Judges an exact count: `same` only when every run of both files
/// read one value. A count that does not repeat inside a file is `worse`:
/// it is no longer a count over fixed work.
fn exact_verdict(a: &[f64], b: &[f64], better: Better) -> Verdict {
    let repeats = |runs: &[f64]| runs.iter().all(|v| *v == runs[0]);
    if !repeats(a) || !repeats(b) {
        Verdict::Worse
    } else if a[0] == b[0] {
        Verdict::Same
    } else if (b[0] < a[0]) == (better == Better::Lower) {
        Verdict::Better
    } else {
        Verdict::Worse
    }
}

/// How `row_b` reads against `row_a`, and what to print as the rule that
/// decided it. A timed per-layer metric has no bound: no verdict.
fn judge(spec: &Metric, row_a: &Row, row_b: &Row) -> (Option<Verdict>, String) {
    if spec.exact {
        let verdict = exact_verdict(&row_a.runs, &row_b.runs, spec.better);
        (Some(verdict), "exact".to_string())
    } else if let Some(bound) = spec.bound {
        let verdict = verdict(&row_a.runs, &row_b.runs, spec.better, bound);
        (Some(verdict), format!("bound {:.0} %", 100.0 * bound))
    } else {
        (None, "no bound".to_string())
    }
}

/// Prints one row per (metric, workload) of result file `b` judged
/// against `a`. End-to-end metrics are judged with their bound — the
/// registry's, which `tests/contract.rs` keeps equal to `BENCHMARK.json`'s
/// — exact counts, end-to-end or per-layer, must be equal, and timed
/// per-layer metrics are printed for information. Returns whether `b`
/// holds: no `worse`, no oracle mismatch.
///
/// # Errors
///
/// Unreadable files, files taken with different `--seed`, `--seconds` or
/// `--smoke`, or a row of `a` that `b` lacks.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b): (ResultFile, ResultFile) = (read_json(a)?, read_json(b)?);
    if (a.seed, a.seconds, a.smoke) != (b.seed, b.seconds, b.smoke) {
        return Err(format!(
            "the files were not taken alike: seed {} vs {}, seconds {} vs {}, smoke {} vs {}",
            a.seed, b.seed, a.seconds, b.seconds, a.smoke, b.smoke
        ));
    }
    let mut holds = true;
    for (workload, n) in a.failed.iter().chain(&b.failed) {
        if *n > 0 {
            println!("{workload:<14} failed_share > 0 ({n} mismatches)");
            holds = false;
        }
    }
    for row_a in a.rows() {
        let row_b = b
            .rows()
            .find(|r| r.workload == row_a.workload && r.metric == row_a.metric)
            .ok_or_else(|| format!("{} {} missing from b", row_a.workload, row_a.metric))?;
        let spec = metrics::find(&row_a.metric)
            .ok_or_else(|| format!("{} is not a metric of this benchmark", row_a.metric))?;
        let (verdict, rule) = judge(spec, row_a, row_b);
        holds &= verdict != Some(Verdict::Worse);
        let change = if row_a.median == 0.0 {
            0.0
        } else {
            100.0 * (row_b.median - row_a.median) / row_a.median
        };
        println!(
            "{:<14} {:<40} {:<10} {:>14.4} -> {:>14.4} {:<9} ({change:+.2} %, {rule})",
            row_a.workload,
            row_a.metric,
            verdict.map_or("info".to_string(), |v| format!("{v:?}").to_lowercase()),
            row_a.median,
            row_b.median,
            row_a.unit,
        );
    }
    println!(
        "A bound is the most a metric may worsen before the driver rejects a change; the timed \
         ones are as wide as this box's own run-to-run spread. `same` therefore says that no \
         regression larger than the bound was seen, not that there is none: claim a gain, or \
         the absence of a loss, from alternating pairs of runs."
    );
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        use Better::{Higher, Lower};
        use Verdict::{Better as Improved, Same, Unresolved, Worse};
        // Steady runs, median within the bound.
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[102.0, 100.5, 101.0], Lower, 0.07),
            Same
        );
        // Steady runs, median worse by more than the bound.
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[110.0, 111.0, 109.0], Lower, 0.07),
            Worse
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[110.0, 111.0, 109.0], Higher, 0.07),
            Improved
        );
        // Every run beats every run: better even inside the bound.
        assert_eq!(
            verdict(&[100.0, 101.0], &[98.0, 99.0], Lower, 0.07),
            Improved
        );
        // Every run loses to every run, but by less than the bound.
        assert_eq!(verdict(&[100.0, 101.0], &[102.0, 103.0], Lower, 0.07), Same);
        // Wide, overlapping runs: no call either way.
        assert_eq!(
            verdict(&[100.0, 120.0, 90.0], &[95.0, 125.0, 118.0], Lower, 0.07),
            Unresolved
        );
        // Exact counts with a zero bound.
        assert_eq!(verdict(&[512.0, 512.0], &[512.0, 512.0], Lower, 0.0), Same);
        assert_eq!(verdict(&[512.0, 512.0], &[513.0, 513.0], Lower, 0.0), Worse);
    }

    #[test]
    fn exact_counts_must_be_equal_and_must_repeat() {
        use Better::{Higher, Lower};
        let same = [512.0, 512.0, 512.0];
        assert_eq!(exact_verdict(&same, &same, Lower), Verdict::Same);
        assert_eq!(exact_verdict(&same, &[513.0; 3], Lower), Verdict::Worse);
        assert_eq!(exact_verdict(&same, &[511.0; 3], Lower), Verdict::Better);
        assert_eq!(exact_verdict(&same, &[511.0; 3], Higher), Verdict::Worse);
        // A single traced run per file is enough.
        assert_eq!(exact_verdict(&[1.0], &[1.0], Lower), Verdict::Same);
        // A "count" that differs between runs of one file is broken.
        assert_eq!(
            exact_verdict(&same, &[512.0, 512.0, 512.5], Lower),
            Verdict::Worse
        );
    }
}
