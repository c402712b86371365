//! # ada-perfbench
//!
//! The repository benchmark: three seeded workloads run end to end
//! against the ADA-HEALTH workspace, measured untraced for the
//! end-to-end metrics and in a separate traced run for the per-layer
//! metrics. See `perfbench/README.md` for the workloads, the metric
//! tables and how to run the untraced run, the traced run and the
//! compare mode.

#![warn(missing_docs)]

pub mod catalog;
pub mod clinic;
pub mod compare;
pub mod env;
pub mod feed;
pub mod json;
pub mod paper;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Where runs keep journals and span dumps, relative to the checkout.
pub const OUT_DIR: &str = "perfbench/out";

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// The workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper_session", "clinic_mix", "hospital_feed"];

/// Everything one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced run.
    pub trace: bool,
    /// `clinic_mix` reads per session, per kind; a fractional rate
    /// issues the read on that share of sessions, evenly spaced.
    pub clinic_reads: Vec<(String, f64)>,
    /// `hospital_feed` offered rates, records per second, ascending;
    /// the highest is an overload rate.
    pub feed_ladder: Vec<f64>,
    /// Directory for journals and trace dumps (inside the checkout).
    pub out_dir: PathBuf,
}

impl Args {
    /// Parses `--name value` pairs.
    ///
    /// # Errors
    /// A message naming the missing or malformed argument.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut map: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            if map.insert(name, value).is_some() {
                return Err(format!("--{name} given twice"));
            }
        }
        let get = |name: &str| {
            map.get(name)
                .copied()
                .ok_or_else(|| format!("missing --{name}"))
        };
        let num = |name: &str| -> Result<f64, String> {
            get(name)?
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("--{name} must be a positive number"))
        };
        let workload = get("workload")?.to_owned();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let trace = match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        let clinic_reads = get("clinic-reads")?
            .split(',')
            .map(|part| {
                let (kind, n) = part
                    .split_once('=')
                    .ok_or_else(|| format!("bad --clinic-reads entry {part:?}"))?;
                let n = n
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r >= 0.0)
                    .ok_or_else(|| format!("bad --clinic-reads rate {n:?}"))?;
                if !clinic::READ_KINDS.contains(&kind) {
                    return Err(format!("unknown read kind {kind:?}"));
                }
                Ok((kind.to_owned(), n))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let feed_ladder = get("feed-ladder")?
            .split(',')
            .map(|r| {
                r.parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| format!("bad --feed-ladder rate {r:?}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if feed_ladder.windows(2).any(|w| w[0] >= w[1]) {
            return Err("--feed-ladder must be strictly ascending".to_owned());
        }
        if !feed_ladder.contains(&feed::REFERENCE_RPS)
            || feed_ladder.last() == Some(&feed::REFERENCE_RPS)
        {
            return Err(format!(
                "--feed-ladder must hold the reference rate {} and an overload rate above it",
                feed::REFERENCE_RPS
            ));
        }
        Ok(Self {
            workload,
            seed: get("seed")?
                .parse()
                .map_err(|_| "--seed must be an unsigned integer".to_owned())?,
            seconds: num("seconds")?,
            trace,
            clinic_reads,
            feed_ladder,
            out_dir: PathBuf::from(OUT_DIR),
        })
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sessions, requests, batches, drain checks).
    pub attempted: u64,
    /// Operations that failed: errors, refusals past the retry budget,
    /// timeouts and oracle mismatches.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Metric name → value.
    pub values: BTreeMap<&'static str, f64>,
    /// Metric name → sample description for the printed table.
    pub samples: BTreeMap<&'static str, String>,
    /// Result digests (session reports, stream fingerprints) the
    /// compare mode matches across commits.
    pub digests: Vec<String>,
    /// Free-form facts for the printed table and the trace dump.
    pub notes: Vec<(String, String)>,
    /// The traced run's spans.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Counts one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that failed.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(problem.into());
    }

    /// Marks an already counted operation as failed by an oracle.
    pub fn mismatch(&mut self, problem: impl Into<String>) {
        self.failed = (self.failed + 1).min(self.attempted);
        self.problems.push(problem.into());
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a latency metric pair from a sample in milliseconds: the
    /// median under `p50` and the supported tail under `tail`.
    pub fn latency(&mut self, p50: &'static str, tail: &'static str, sample_ms: &[f64]) {
        if sample_ms.is_empty() {
            return;
        }
        let s = stats::Summary::of(sample_ms);
        self.set(p50, s.p50);
        self.set(tail, s.tail);
        let note = format!("n={} tail=q{:.3}", s.n, s.tail_q);
        self.samples.insert(p50, note.clone());
        self.samples.insert(tail, note);
    }

    /// Records a note.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }
}

/// A SplitMix64 step: derives independent seeds for sessions, cohorts
/// and feeds from the workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a of a string, rendered as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `set_up` [`SETUP_REPS`] times, tearing down every instance but
/// the last with `tear_down`; sets `setup_s` to the median set-up time
/// and returns the last instance.
///
/// # Errors
/// The first set-up error.
pub fn repeated_setup<T>(
    out: &mut Outcome,
    mut set_up: impl FnMut(usize) -> Result<T, String>,
    mut tear_down: impl FnMut(T),
) -> Result<T, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            tear_down(previous);
        }
        let started = std::time::Instant::now();
        kept = Some(set_up(rep)?);
        times.push(started.elapsed().as_secs_f64());
    }
    let sorted = stats::sorted(&times);
    out.set("setup_s", stats::median(&times));
    out.samples.insert(
        "setup_s",
        format!(
            "median of {SETUP_REPS}, {:.4} to {:.4} s",
            sorted[0],
            sorted[SETUP_REPS - 1]
        ),
    );
    Ok(kept.expect("SETUP_REPS > 0"))
}
