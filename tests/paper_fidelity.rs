//! Paper-fidelity gate: the headline numbers this repository reproduces,
//! pinned through the public experiment API so a refactor of the
//! verifier's internals cannot drift the science unnoticed.
//!
//! - §III-D: 36 system updates (31 daily + 5 weekly) with zero false
//!   positives under the dynamic policy, except on the one injected
//!   operator-misconfiguration day (the paper's March 27);
//! - §III-B: a static policy raises false positives within one benign
//!   week;
//! - Table II: 8/8 basic attacks detected and 8/8 adaptive attacks
//!   evading stock Keylime, 7/8 detected with the §IV-C mitigations on,
//!   Aoyama (pure interpreter, P5) still evading.
//!
//! The 66-day run and Table II are at paper scale. The paper-scale
//! static-policy week is too slow for a debug build (minutes), so it is
//! `#[ignore]`d here and run in release by `scripts/ci.sh`; tier-1 runs
//! the same assertions on the test-scale week.

use continuous_attestation::attacks::{AttackSample, Problem};
use continuous_attestation::prelude::*;

/// §III-D. The daily experiment carries the operator misconfiguration on
/// day 30 (the paper's run started Feb 26, so that is March 27); the
/// weekly experiment is disciplined throughout.
#[test]
fn paper_66_days_36_updates_zero_false_positives_plus_march_27() {
    const MARCH_27: u32 = 30;
    let daily = run_longrun(LongRunConfig {
        misconfig_day: Some(MARCH_27),
        ..LongRunConfig::paper_daily()
    });
    let weekly = run_longrun(LongRunConfig::paper_weekly());

    assert_eq!((daily.updates.len(), weekly.updates.len()), (31, 5));
    assert_eq!(weekly.false_positives(), 0, "disciplined operation: 0 FPs");
    assert_eq!(weekly.verified, weekly.attestations);
    assert!(
        !daily.alerts.is_empty(),
        "the post-sync upstream update must raise false positives"
    );
    assert!(
        daily.alerts.iter().all(|a| a.day >= MARCH_27),
        "every false positive stems from the misconfiguration: {:?}",
        daily.alerts.iter().map(|a| a.day).collect::<Vec<_>>()
    );
}

/// Every alert in a benign week is a false positive; the static
/// snapshot policy must produce some, and every one of them falls in
/// one of the paper's three classes. Returns the count per class:
/// (hash mismatch, missing from policy, SNAP truncation).
fn fp_week_classes(config: FpWeekConfig) -> (usize, usize, usize) {
    let report = run_fp_week(config);
    assert!(report.total_false_positives() > 0, "static policies FP");
    let (hash, missing, snap) = (
        report.hash_mismatches(),
        report.missing_from_policy(),
        report.snap_truncation_errors(),
    );
    assert_eq!(
        hash + missing + snap,
        report.total_false_positives(),
        "an alert outside the paper's taxonomy: {:?}",
        report.by_kind()
    );
    (hash, missing, snap)
}

#[test]
fn static_policy_false_positives_within_a_week() {
    let (hash, missing, snap) = fp_week_classes(FpWeekConfig::small(1));
    assert!(hash + missing > 0, "updates break a static policy");
    assert!(snap > 0, "the SNAP sandbox path is never in the policy");
}

/// The paper reports all three classes over its week, and so does the
/// simulated week at `FpWeekConfig::paper()`: upgraded packages rewrite
/// executables (hash mismatch), two of them ship an executable the
/// snapshot never saw (missing from policy), and the SNAP runs under
/// its in-sandbox path (EXPERIMENTS.md §III-B). Every count is nonzero,
/// so this pins the class set, not just a total.
#[test]
#[ignore = "paper scale: run in release (scripts/ci.sh)"]
fn paper_fp_week_classes() {
    assert_eq!(fp_week_classes(FpWeekConfig::paper()), (27, 2, 1));
}

#[test]
fn table_ii_detection_matrix() {
    let corpus = attack_corpus();
    assert_eq!(corpus.len(), 8);
    let detected = |mode: PlanMode, defense: &DefenseConfig| -> Vec<&AttackSample> {
        corpus
            .iter()
            .filter(|s| evaluate(s, mode, defense).detected_ever())
            .collect()
    };

    let basic = detected(PlanMode::Basic, &DefenseConfig::stock());
    assert_eq!(basic.len(), 8, "8/8 basic attacks detected");
    let adaptive = detected(PlanMode::Adaptive, &DefenseConfig::stock());
    assert!(
        adaptive.is_empty(),
        "8/8 adaptive attacks evade stock Keylime"
    );

    let mitigated = detected(PlanMode::Adaptive, &DefenseConfig::mitigated());
    assert_eq!(mitigated.len(), 7, "7/8 detected with the mitigations on");
    let evaders: Vec<&AttackSample> = corpus
        .iter()
        .filter(|s| !mitigated.iter().any(|d| d.name == s.name))
        .collect();
    assert_eq!(evaders.len(), 1);
    assert_eq!(evaders[0].name, "Aoyama");
    assert!(evaders[0].pure_interpreter);
    assert!(evaders[0].exploits.contains(&Problem::P5), "evades via P5");
}
