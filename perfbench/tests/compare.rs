//! Compare mode: the verdict rules, pairing, failed shares and result
//! digests.

use std::collections::BTreeMap;

use ada_perfbench::compare::{
    compare, compare_metric, Benchmark, Declared, RunResult, Verdict, MIN_PAIRS,
};

fn lower(bound: Option<f64>) -> Declared {
    Declared {
        name: "latency_ms".into(),
        higher_is_better: false,
        bound,
    }
}

fn run(workload: &str, seed: u64, latency: f64, failed: u64, digest: &str) -> RunResult {
    RunResult {
        workload: workload.into(),
        seed,
        trace: false,
        correct: failed == 0,
        attempted: 100,
        failed,
        metrics: BTreeMap::from([("latency_ms".to_owned(), latency)]),
        digests: vec![format!("session-{seed}:{digest}")],
    }
}

fn bench() -> Benchmark {
    Benchmark {
        command: vec!["true".into()],
        run_seconds: 1.0,
        workloads: vec!["w".into()],
        metrics: vec![lower(Some(0.1))],
    }
}

/// Parent runs around 100 with a small spread.
fn parent_values() -> Vec<f64> {
    (0..MIN_PAIRS).map(|i| 100.0 + (i % 3) as f64).collect()
}

#[test]
fn a_consistent_large_win_is_a_gain() {
    let pairs: Vec<(f64, f64)> = parent_values().into_iter().map(|p| (p, p - 20.0)).collect();
    let row = compare_metric(&pairs, &lower(Some(0.1)));
    assert_eq!(row.verdict, Verdict::Improved);
    assert_eq!((row.wins, row.losses), (MIN_PAIRS, 0));
}

#[test]
fn a_win_smaller_than_the_parent_spread_is_no_gain() {
    // Parent spread is ~2; the change is better by 0.5 every time.
    let pairs: Vec<(f64, f64)> = parent_values().into_iter().map(|p| (p, p - 0.5)).collect();
    let row = compare_metric(&pairs, &lower(Some(0.1)));
    assert!(row.parent[2] - row.parent[0] > 0.5);
    assert_eq!(row.verdict, Verdict::Unchanged);
}

#[test]
fn worse_beyond_the_bound_regresses_and_within_it_does_not() {
    let pairs: Vec<(f64, f64)> = parent_values().into_iter().map(|p| (p, p * 1.2)).collect();
    assert_eq!(
        compare_metric(&pairs, &lower(Some(0.1))).verdict,
        Verdict::Regressed
    );
    let pairs: Vec<(f64, f64)> = parent_values().into_iter().map(|p| (p, p * 1.05)).collect();
    assert_eq!(
        compare_metric(&pairs, &lower(Some(0.1))).verdict,
        Verdict::Unchanged
    );
}

#[test]
fn a_parent_spread_wider_than_the_bound_is_unresolved() {
    let parent: Vec<f64> = (0..MIN_PAIRS).map(|i| 50.0 + 10.0 * i as f64).collect();
    let pairs: Vec<(f64, f64)> = parent.iter().map(|&p| (p, p * 1.3)).collect();
    assert_eq!(
        compare_metric(&pairs, &lower(Some(0.1))).verdict,
        Verdict::Unresolved
    );
}

#[test]
fn ties_count_for_neither_side() {
    let mut pairs: Vec<(f64, f64)> = parent_values().into_iter().map(|p| (p, p - 20.0)).collect();
    pairs.extend([(100.0, 100.0); 5]);
    let row = compare_metric(&pairs, &lower(Some(0.1)));
    assert_eq!((row.wins, row.losses), (MIN_PAIRS, 0));
    assert_eq!(row.win_share(), 1.0);
    assert_eq!(row.verdict, Verdict::Improved);
}

#[test]
fn higher_is_better_flips_the_direction() {
    let declared = Declared {
        name: "rps".into(),
        higher_is_better: true,
        bound: Some(0.1),
    };
    let pairs: Vec<(f64, f64)> = parent_values().into_iter().map(|p| (p, p - 30.0)).collect();
    assert_eq!(
        compare_metric(&pairs, &declared).verdict,
        Verdict::Regressed
    );
}

#[test]
fn too_few_pairs_give_no_verdict_and_fail_the_report() {
    let pairs: Vec<(f64, f64)> = (0..MIN_PAIRS - 1).map(|_| (100.0, 50.0)).collect();
    assert_eq!(
        compare_metric(&pairs, &lower(Some(0.1))).verdict,
        Verdict::Unresolved
    );
    let parent: Vec<RunResult> = (0..3).map(|s| run("w", s, 100.0, 0, "a")).collect();
    let report = compare(&bench(), &parent, &parent);
    assert_eq!(report.short, vec!["w".to_owned()]);
    assert!(!report.passed());
}

#[test]
fn runs_pair_by_seed_and_the_report_passes_an_identical_change() {
    let parent: Vec<RunResult> = (0..MIN_PAIRS as u64)
        .map(|s| run("w", s, 100.0 + s as f64, 0, "a"))
        .collect();
    let mut change = parent.clone();
    change.reverse();
    let report = compare(&bench(), &parent, &change);
    assert_eq!(report.rows.len(), 1);
    assert_eq!(report.rows[0].pairs, MIN_PAIRS);
    assert_eq!(report.rows[0].verdict, Verdict::Unchanged);
    assert!(report.passed(), "{}", report.render());
}

#[test]
fn a_larger_failed_share_or_a_changed_digest_fails_the_report() {
    let parent: Vec<RunResult> = (0..MIN_PAIRS as u64)
        .map(|s| run("w", s, 100.0, 0, "a"))
        .collect();
    let failing: Vec<RunResult> = (0..MIN_PAIRS as u64)
        .map(|s| run("w", s, 100.0, 1, "a"))
        .collect();
    let report = compare(&bench(), &parent, &failing);
    assert_eq!(report.failures["w"], (0, 1000, 10, 1000));
    assert!(!report.passed());
    let drifted: Vec<RunResult> = (0..MIN_PAIRS as u64)
        .map(|s| run("w", s, 100.0, 0, "b"))
        .collect();
    let report = compare(&bench(), &parent, &drifted);
    assert_eq!(report.digest_mismatches.len(), MIN_PAIRS);
    assert!(!report.passed());
}

#[test]
fn parses_a_run_output() {
    let stdout = concat!(
        "# paper_session seed 7 seconds 20 trace 0\n",
        "{\"provenance\": {\"nproc\": 2}, \"workload\": \"paper_session\", \"seed\": 7, \"seconds\": 20.0, \"trace\": 0, \"failed_ratio\": 0.0, \"ungated\": {\"read_ms.p99\": 2.5}, \"trace_file\": \"\", \"digests\": [\"paper-7-0:00ff\"]}\n",
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n",
    );
    let r = RunResult::parse(stdout).expect("parses");
    assert_eq!(
        (r.workload.as_str(), r.seed, r.trace, r.correct),
        ("paper_session", 7, false, true)
    );
    assert_eq!((r.attempted, r.failed), (12, 0));
    assert_eq!(r.metrics["setup_s"], 0.5);
    assert_eq!(r.metrics["read_ms.p99"], 2.5);
    assert_eq!(r.digests, vec!["paper-7-0:00ff".to_owned()]);
    assert!(RunResult::parse("no result here\n").is_err());
}
