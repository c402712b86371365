//! Compare mode: judges a change against its parent from two sets of
//! benchmark runs, by the rules of the choosing-metrics method (§6.5,
//! §8):
//!
//! * runs pair up by workload and seed; a verdict needs at least
//!   [`MIN_PAIRS`] pairs, run alternately parent-first and change-first;
//! * each side reports its median and quartiles, and the parent its
//!   inter-quartile distance;
//! * a gain needs the change to win at least nine tenths of the pairs
//!   (ties count for neither side) *and* the medians to differ by more
//!   than the parent's inter-quartile distance;
//! * otherwise a metric whose parent spread exceeds its bound is
//!   *unresolved* (unless every change run beats every parent run); a
//!   change median worse than the parent's by more than the bound is a
//!   *regression*;
//! * failed shares and result digests are compared per workload.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::catalog;
use crate::json::{self, Json};
use crate::stats::{median, quartiles};

/// Pairs needed before any verdict is drawn.
pub const MIN_PAIRS: usize = 10;

/// Share of decided pairs the change must win to claim a gain.
pub const WIN_SHARE: f64 = 0.9;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Allowed relative worsening (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the compare mode uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// The command, relative to a checkout root.
    pub command: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end then per-layer metrics.
    pub metrics: Vec<Declared>,
}

impl Benchmark {
    /// Parses `BENCHMARK.json`.
    ///
    /// # Errors
    /// Malformed JSON or a missing key.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let strings = |key: &str| -> Result<Vec<String>, String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json lacks {key}"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("{key} holds a non-string"))
                })
                .collect()
        };
        let mut metrics = Vec::new();
        for key in ["end_to_end", "per_layer"] {
            for m in doc
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json lacks {key}"))?
            {
                metrics.push(Declared {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("metric without a name")?
                        .to_owned(),
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                });
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json lacks workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or("workload without a name")
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            command: strings("command")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json lacks run_seconds")?,
            workloads,
            metrics,
        })
    }
}

/// One run's output, parsed back.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Whether it was a traced run.
    pub trace: bool,
    /// Whether every output oracle passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values.
    pub metrics: BTreeMap<String, f64>,
    /// `name:digest` result digests.
    pub digests: Vec<String>,
}

impl RunResult {
    /// Parses a run's standard output: the provenance line (which names
    /// the workload and seed) and the result object on the last line.
    ///
    /// # Errors
    /// When either line is missing or malformed.
    pub fn parse(stdout: &str) -> Result<Self, String> {
        let last = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("empty output")?;
        let result = json::parse(last)?;
        let meta_line = stdout
            .lines()
            .find(|l| l.starts_with("{\"provenance\""))
            .ok_or("no provenance line")?;
        let meta = json::parse(meta_line)?;
        let count = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("missing {key}"))
        };
        let mut metrics: BTreeMap<String, f64> = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("result without metrics")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name} has no numeric value"))
            })
            .collect::<Result<_, _>>()?;
        // The ungated latencies ride on the provenance line.
        if let Some(ungated) = meta.get("ungated").and_then(Json::as_object) {
            metrics.extend(
                ungated
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))),
            );
        }
        Ok(Self {
            workload: meta
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("missing workload")?
                .to_owned(),
            seed: count(&meta, "seed")? as u64,
            trace: count(&meta, "trace")? != 0.0,
            correct: result.get("correct") == Some(&Json::Bool(true)),
            attempted: count(&result, "attempted")? as u64,
            failed: count(&result, "failed")? as u64,
            metrics,
            digests: meta
                .get("digests")
                .and_then(Json::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_owned)
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the gain rule.
    Improved,
    /// Within the bound (or, without a bound, no loss by the gain rule
    /// mirrored).
    Unchanged,
    /// Worse than the parent by more than the bound (or, without a
    /// bound, losing by the gain rule mirrored).
    Regressed,
    /// The parent's own spread exceeds the bound, or too few pairs.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Pairs compared.
    pub pairs: usize,
    /// Parent quartiles `[q1, median, q3]`.
    pub parent: [f64; 3],
    /// Change quartiles `[q1, median, q3]`.
    pub change: [f64; 3],
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs the change lost.
    pub losses: usize,
    /// The verdict.
    pub verdict: Verdict,
}

impl Row {
    /// Wins over decided (non-tied) pairs.
    pub fn win_share(&self) -> f64 {
        let decided = self.wins + self.losses;
        if decided == 0 {
            0.0
        } else {
            self.wins as f64 / decided as f64
        }
    }
}

fn spread3(values: &[f64]) -> [f64; 3] {
    if values.len() >= 2 {
        quartiles(values)
    } else {
        let m = median(values);
        [m, m, m]
    }
}

/// Compares paired samples of one metric (`pairs[i] = (parent, change)`).
pub fn compare_metric(pairs: &[(f64, f64)], declared: &Declared) -> Row {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let sign = if declared.higher_is_better { 1.0 } else { -1.0 };
    let (mut wins, mut losses) = (0, 0);
    for &(p, c) in pairs {
        let d = sign * (c - p);
        if d > 0.0 {
            wins += 1;
        } else if d < 0.0 {
            losses += 1;
        }
    }
    let (p3, c3) = (spread3(&parent), spread3(&change));
    let iqr = p3[2] - p3[0];
    let base = p3[1].abs();
    let rel_spread = if base == 0.0 { 0.0 } else { iqr / base };
    let gain = sign * (c3[1] - p3[1]);
    let decided = (wins + losses).max(1) as f64;
    let all_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| sign * (c - p) > 0.0));
    let verdict = if pairs.len() < MIN_PAIRS {
        Verdict::Unresolved
    } else if wins as f64 >= WIN_SHARE * decided && gain > iqr && wins > 0 {
        Verdict::Improved
    } else if let Some(bound) = declared.bound {
        let worse_by = if base == 0.0 { 0.0 } else { -gain / base };
        if rel_spread > bound && !all_better {
            Verdict::Unresolved
        } else if worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        }
    } else if losses as f64 >= WIN_SHARE * decided && -gain > iqr && losses > 0 {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Row {
        workload: String::new(),
        metric: declared.name.clone(),
        pairs: pairs.len(),
        parent: p3,
        change: c3,
        wins,
        losses,
        verdict,
    }
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// One row per (workload, metric) present on both sides.
    pub rows: Vec<Row>,
    /// Per workload: `(parent failed, parent attempted, change failed,
    /// change attempted)`.
    pub failures: BTreeMap<String, (u64, u64, u64, u64)>,
    /// Result digests that differ between parent and change for the
    /// same seed.
    pub digest_mismatches: Vec<String>,
    /// Workloads with fewer than [`MIN_PAIRS`] pairs.
    pub short: Vec<String>,
}

impl Report {
    /// Whether the change passes: no regression, no changed result, no
    /// larger failed share, and enough pairs everywhere.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
            && self.digest_mismatches.is_empty()
            && self.short.is_empty()
            && self.failures.values().all(|&(pf, pa, cf, ca)| {
                cf as f64 / ca.max(1) as f64 <= pf as f64 / pa.max(1) as f64
            })
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{:<14} {:<36} {:>5} {:>12} {:>12} {:>12} {:>12} {:>6}  verdict",
            "workload",
            "metric",
            "pairs",
            "parent p50",
            "parent IQR",
            "change p50",
            "change IQR",
            "wins"
        )
        .expect("String write");
        for r in &self.rows {
            writeln!(
                out,
                "{:<14} {:<36} {:>5} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>5.0}%  {}",
                r.workload,
                r.metric,
                r.pairs,
                r.parent[1],
                r.parent[2] - r.parent[0],
                r.change[1],
                r.change[2] - r.change[0],
                r.win_share() * 100.0,
                r.verdict.label()
            )
            .expect("String write");
        }
        for (w, (pf, pa, cf, ca)) in &self.failures {
            writeln!(out, "failed share {w}: parent {pf}/{pa}, change {cf}/{ca}")
                .expect("String write");
        }
        for w in &self.short {
            writeln!(out, "too few pairs for {w} (need {MIN_PAIRS})").expect("String write");
        }
        for d in &self.digest_mismatches {
            writeln!(out, "result changed: {d}").expect("String write");
        }
        writeln!(out, "{}", if self.passed() { "PASS" } else { "FAIL" }).expect("String write");
        out
    }
}

/// Compares parent and change runs under `bench`'s declarations.
pub fn compare(bench: &Benchmark, parent: &[RunResult], change: &[RunResult]) -> Report {
    let mut rows = Vec::new();
    let mut failures = BTreeMap::new();
    let mut digest_mismatches = Vec::new();
    let mut short = Vec::new();
    let mut workloads: Vec<(&str, bool)> = parent
        .iter()
        .map(|r| (r.workload.as_str(), r.trace))
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    for (workload, trace) in workloads {
        let side = |runs: &[RunResult]| -> BTreeMap<u64, RunResult> {
            runs.iter()
                .filter(|r| r.workload == workload && r.trace == trace)
                .map(|r| (r.seed, r.clone()))
                .collect()
        };
        let (p, c) = (side(parent), side(change));
        let paired: Vec<(&RunResult, &RunResult)> = p
            .iter()
            .filter_map(|(seed, pr)| c.get(seed).map(|cr| (pr, cr)))
            .collect();
        let label = if trace {
            format!("{workload}+trace")
        } else {
            workload.to_owned()
        };
        if paired.len() < MIN_PAIRS {
            short.push(label.clone());
        }
        let total =
            |f: &dyn Fn(&(&RunResult, &RunResult)) -> u64| paired.iter().map(f).sum::<u64>();
        failures.insert(
            label.clone(),
            (
                total(&|x| x.0.failed),
                total(&|x| x.0.attempted),
                total(&|x| x.1.failed),
                total(&|x| x.1.attempted),
            ),
        );
        for (pr, cr) in &paired {
            let theirs: BTreeMap<&str, &str> = cr
                .digests
                .iter()
                .filter_map(|d| d.rsplit_once(':'))
                .collect();
            for (key, value) in pr.digests.iter().filter_map(|d| d.rsplit_once(':')) {
                if theirs.get(key).is_some_and(|v| *v != value) {
                    digest_mismatches.push(format!("{label} seed {}: {key}", pr.seed));
                }
            }
        }
        let ungated = catalog::UNGATED.iter().map(|d| Declared {
            name: d.name.to_owned(),
            higher_is_better: d.better == "higher",
            bound: None,
        });
        for declared in bench.metrics.iter().cloned().chain(ungated) {
            let pairs: Vec<(f64, f64)> = paired
                .iter()
                .filter_map(|(pr, cr)| {
                    Some((
                        *pr.metrics.get(&declared.name)?,
                        *cr.metrics.get(&declared.name)?,
                    ))
                })
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let mut row = compare_metric(&pairs, &declared);
            row.workload = label.clone();
            rows.push(row);
        }
    }
    Report {
        rows,
        failures,
        digest_mismatches,
        short,
    }
}

/// Reads every `*.out` file in `dir` as a run output.
///
/// # Errors
/// Unreadable directories or files, or unparsable outputs.
pub fn load_runs(dir: &Path) -> Result<Vec<RunResult>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "out"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f)
                .map_err(|e| format!("cannot read {}: {e}", f.display()))?;
            RunResult::parse(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// Runs `bench`'s command once in `checkout` and saves its standard
/// output as `<out>/<workload>-<seed>-t<trace>.out`.
///
/// # Errors
/// When the command cannot start, fails, or its output cannot be saved.
pub fn run_once(
    bench: &Benchmark,
    checkout: &Path,
    out: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<(), String> {
    let (program, rest) = bench.command.split_first().ok_or("empty command")?;
    let output = Command::new(program)
        .args(rest)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &bench.run_seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .current_dir(checkout)
        .output()
        .map_err(|e| format!("cannot run the benchmark in {}: {e}", checkout.display()))?;
    if !output.status.success() {
        return Err(format!(
            "benchmark in {} exited with {}: {}",
            checkout.display(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let file = out.join(format!("{workload}-{seed}-t{}.out", u8::from(trace)));
    std::fs::write(&file, &output.stdout)
        .map_err(|e| format!("cannot write {}: {e}", file.display()))
}
