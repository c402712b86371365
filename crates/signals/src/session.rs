//! The safety-signal mining session: deterministic table counting
//! (optionally chunk-parallel), shrinkage, combined ranking, K-DB
//! persistence, and the feedback loop.
//!
//! ## Determinism argument
//!
//! Everything downstream of the exam log is a pure function of the log
//! and the [`SignalConfig`]:
//!
//! 1. table counting iterates exposures in exam-id order and outcomes
//!    in config order; concurrent execution splits the exposure list
//!    into *contiguous chunks* whose results are merged in chunk
//!    order, so the pair list is byte-identical to a serial pass;
//! 2. the shrinkage prior is fit serially over the merged pair list
//!    (same floats, same order, same iteration count);
//! 3. ranking sorts by `total_cmp` on the combined score with a
//!    `(outcome, exposure-id)` tie-break — no `partial_cmp` panics, no
//!    ambiguity on equal scores;
//! 4. the feedback loop ranks session-local ordinal item ids (never
//!    K-DB document ids, which depend on concurrent interleaving) with
//!    a physician seeded from the config.
//!
//! Hence identical seed + config yield identical
//! [`SignalSessionReport`]s and identical signal *documents* whether
//! the session runs serially, 8-way concurrently, or remotely.

use ada_core::annotator::SimulatedPhysician;
use ada_core::rank::{KnowledgeItem, KnowledgeRanker};
use ada_core::{PipelineError, PipelineStage, RunControl};
use ada_dataset::taxonomy::ConditionGroup;
use ada_dataset::{ExamLog, ExamTypeId};
use ada_kdb::schema::{self, names};
use ada_kdb::{Document, SharedKdb};

use crate::ror::{self, RorEstimate};
use crate::shrink::{self, ShrinkageFit};
use crate::table::{CohortIndex, ContingencyTable, ExposurePair};

/// Configuration of one safety-signal mining session.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalConfig {
    /// Outcome condition groups to test every exposure against, in
    /// evaluation order.
    pub outcomes: Vec<ConditionGroup>,
    /// Minimum exposed patients for an exam to qualify as an exposure.
    pub min_exposed: usize,
    /// Keep only the top-N signals by combined score.
    pub max_signals: usize,
    /// Simulated-physician feedback budget (top-ranked signals that
    /// receive a label).
    pub feedback_budget: usize,
    /// Table-counting worker threads (1 = serial; results are
    /// byte-identical either way).
    pub threads: usize,
    /// Seed for the simulated physician.
    pub seed: u64,
}

impl Default for SignalConfig {
    /// The complication-surveillance default: every exam tested against
    /// the five complication groups the paper highlights for overt
    /// diabetes.
    fn default() -> Self {
        Self {
            outcomes: vec![
                ConditionGroup::Cardiovascular,
                ConditionGroup::Ophthalmic,
                ConditionGroup::Renal,
                ConditionGroup::Neurological,
                ConditionGroup::Podiatric,
            ],
            min_exposed: 5,
            max_signals: 40,
            feedback_budget: 6,
            threads: 1,
            seed: 42,
        }
    }
}

/// One ranked safety signal.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetySignal {
    /// Raw id of the exposure exam type.
    pub exposure_id: u32,
    /// Display name of the exposure exam type.
    pub exposure: String,
    /// The outcome condition group.
    pub outcome: ConditionGroup,
    /// The counted 2×2 table.
    pub table: ContingencyTable,
    /// Reporting odds ratio with its 95% CI.
    pub ror: RorEstimate,
    /// EBGM-style shrunken reporting ratio.
    pub shrunk: f64,
    /// Exposed-with-outcome fraction of the cohort.
    pub support: f64,
    /// The combined ranking score (CI lower bound + shrunken estimate
    /// + support; see `KnowledgeItem::prior_score` for signals).
    pub score: f64,
    /// Human-readable description.
    pub description: String,
}

impl SafetySignal {
    /// The schema-validated K-DB document of this signal (see
    /// `ada_kdb::schema::validate_signal_doc`). Document ids are not
    /// embedded, so the canonical encodings of a session's signal docs
    /// are interleaving-invariant.
    pub fn to_doc(&self, session: &str) -> Document {
        Document::new()
            .with("session", session)
            .with("kind", "signal")
            .with("exposure", self.exposure.as_str())
            .with("exposure_id", i64::from(self.exposure_id))
            .with("outcome", self.outcome.to_string())
            .with("a", self.table.a as i64)
            .with("b", self.table.b as i64)
            .with("c", self.table.c as i64)
            .with("d", self.table.d as i64)
            .with("ror", self.ror.ror)
            .with("ci_low", self.ror.ci_low)
            .with("ci_high", self.ror.ci_high)
            .with("shrunk", self.shrunk)
            .with("support", self.support)
            .with("score", self.score)
            .with("corrected", self.ror.corrected)
            .with("description", self.description.as_str())
    }
}

/// The raw mining result, before persistence and feedback.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalMiningReport {
    /// Ranked signals, best first, truncated to `max_signals`.
    pub signals: Vec<SafetySignal>,
    /// 2×2 tables built (before truncation).
    pub tables_built: u64,
    /// Tables that needed the Haldane–Anscombe correction.
    pub zero_cell_corrections: u64,
    /// Fixed-point iterations of the shrinkage prior fit.
    pub shrinkage_iterations: u64,
    /// The fitted Gamma prior.
    pub prior: ShrinkageFit,
}

/// The terminal report of a persisted safety-signal session.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalSessionReport {
    /// Session name.
    pub session: String,
    /// Ranked signals, best first.
    pub signals: Vec<SafetySignal>,
    /// Final ranking (descriptions) after the feedback loop.
    pub ranked: Vec<String>,
    /// Feedback labels recorded.
    pub feedback_recorded: usize,
    /// 2×2 tables built.
    pub tables_built: u64,
    /// Tables that needed the zero-cell correction.
    pub zero_cell_corrections: u64,
    /// Shrinkage prior-fit iterations.
    pub shrinkage_iterations: u64,
}

/// Mines ranked safety signals from a cohort (pure compute — no K-DB).
///
/// Honors `control` checkpoints between chunks and emits
/// `tables:chunk=N` / `shrink` / `rank` sub-spans plus the
/// `signals_*` kernel counters.
///
/// # Errors
/// Returns [`PipelineError`] when cancelled or past the deadline.
pub fn mine_signals(
    log: &ExamLog,
    config: &SignalConfig,
    control: &RunControl,
) -> Result<SignalMiningReport, PipelineError> {
    let stage = PipelineStage::SignalMining;
    control.checkpoint(stage)?;
    let index = control.span(stage, "cohort-index", || CohortIndex::build(log));
    let exposures: Vec<ExamTypeId> = log
        .catalog()
        .iter()
        .map(|e| e.id)
        .filter(|e| index.exposed_counts[e.index()] >= config.min_exposed as u64)
        .collect();

    let threads = config.threads.max(1);
    let chunk_size = exposures.len().div_ceil(threads).max(1);
    let chunks: Vec<&[ExamTypeId]> = exposures.chunks(chunk_size).collect();
    let mut pairs: Vec<ExposurePair> = Vec::new();
    if threads <= 1 || chunks.len() <= 1 {
        for (ci, chunk) in chunks.iter().enumerate() {
            control.checkpoint(stage)?;
            let counted = control.span(stage, &format!("tables:chunk={ci}"), || {
                index.count_chunk(chunk, &config.outcomes)
            });
            pairs.extend(counted);
        }
    } else {
        control.checkpoint(stage)?;
        // Contiguous chunks, merged in chunk order: byte-identical to
        // the serial loop above regardless of completion order.
        let results: Vec<Vec<ExposurePair>> = std::thread::scope(|scope| {
            let index = &index;
            let outcomes = &config.outcomes;
            let handles: Vec<_> = chunks
                .iter()
                .enumerate()
                .map(|(ci, chunk)| {
                    scope.spawn(move || {
                        control.span(stage, &format!("tables:chunk={ci}"), || {
                            index.count_chunk(chunk, outcomes)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("table chunk worker panicked"))
                .collect()
        });
        control.checkpoint(stage)?;
        for counted in results {
            pairs.extend(counted);
        }
    }

    let tables: Vec<ContingencyTable> = pairs.iter().map(|p| p.table).collect();
    let tables_built = tables.len() as u64;
    let fit = control.span(stage, "shrink", || shrink::fit_prior(&tables));
    control.checkpoint(stage)?;

    let (signals, zero_cell_corrections) = control.span(stage, "rank", || {
        let mut zero = 0u64;
        let mut signals: Vec<SafetySignal> = pairs
            .iter()
            .map(|p| {
                let est = ror::estimate(&p.table);
                if est.corrected {
                    zero += 1;
                }
                let shrunk = fit.shrunk(&p.table);
                let support = p.table.support();
                let score = KnowledgeItem::signal(0, "", support, est.ci_low, shrunk).prior_score();
                let description = format!(
                    "{} => {} (ROR {:.2} [{:.2}, {:.2}], shrunk {:.2})",
                    p.exposure_name, p.outcome, est.ror, est.ci_low, est.ci_high, shrunk
                );
                SafetySignal {
                    exposure_id: p.exposure.0,
                    exposure: p.exposure_name.clone(),
                    outcome: p.outcome,
                    table: p.table,
                    ror: est,
                    shrunk,
                    support,
                    score,
                    description,
                }
            })
            .collect();
        signals.sort_by(|x, y| {
            y.score.total_cmp(&x.score).then_with(|| {
                (x.outcome.index(), x.exposure_id).cmp(&(y.outcome.index(), y.exposure_id))
            })
        });
        signals.truncate(config.max_signals);
        (signals, zero)
    });

    control.counters(
        stage,
        &[
            ("signals_tables_built", tables_built),
            ("signals_zero_cell_corrections", zero_cell_corrections),
            ("signals_shrinkage_iterations", fit.iterations),
            ("signals_emitted", signals.len() as u64),
        ],
    );
    Ok(SignalMiningReport {
        signals,
        tables_built,
        zero_cell_corrections,
        shrinkage_iterations: fit.iterations,
        prior: fit,
    })
}

/// Runs a full safety-signal session against a shared K-DB: mines,
/// persists every signal as a schema-validated `signal_knowledge`
/// document, then runs the interestingness feedback loop (simulated
/// physician labels on the top-ranked signals, recorded into the
/// `feedback` collection and folded into the ranking).
///
/// # Errors
/// Returns [`PipelineError`] when cancelled or past the deadline; the
/// K-DB then holds no partial signal documents for this session (the
/// stage persists only after mining succeeds).
///
/// # Panics
/// Panics on K-DB journal I/O failures, mirroring the pipeline's
/// persistence contract (the service layer catches and retries).
pub fn run_session(
    session: &str,
    config: &SignalConfig,
    log: &ExamLog,
    kdb: &SharedKdb,
    control: &RunControl,
) -> Result<SignalSessionReport, PipelineError> {
    schema::init_schema(&mut kdb.write()).expect("K-DB schema init failed");
    let control = control.clone().with_session(session);
    control.stage(session, PipelineStage::SignalMining, || {
        let mined = mine_signals(log, config, &control)?;

        // Persist in ranked order under one write lock; document ids
        // are interleaving-dependent, so they stay out of the report.
        let mut doc_ids = Vec::with_capacity(mined.signals.len());
        {
            let mut db = kdb.write();
            for signal in &mined.signals {
                let id = schema::insert_signal_item(&mut db, signal.to_doc(session))
                    .expect("K-DB insert failed");
                doc_ids.push(id);
            }
        }

        // The feedback loop ranks session-local ordinal ids (index into
        // `mined.signals`) so tie-breaks never depend on concurrent
        // document-id allocation.
        let items: Vec<KnowledgeItem> = mined
            .signals
            .iter()
            .enumerate()
            .map(|(ordinal, s)| {
                KnowledgeItem::signal(
                    ordinal as u64,
                    s.description.clone(),
                    s.support,
                    s.ror.ci_low,
                    s.shrunk,
                )
            })
            .collect();
        let mut ranker = KnowledgeRanker::new();
        let mut physician = SimulatedPhysician::new(config.seed, 0.0, None);
        let initial_order = ranker.rank(&items);
        let mut feedback_recorded = 0usize;
        for &item in initial_order.iter().take(config.feedback_budget) {
            let ordinal = item.id as usize;
            let signal = &mined.signals[ordinal];
            let label = physician.label_signal(
                signal.support,
                signal.ror.ci_low,
                signal.shrunk,
                &[signal.outcome],
            );
            schema::insert_feedback(
                &mut kdb.write(),
                session,
                names::SIGNAL_KNOWLEDGE,
                doc_ids[ordinal],
                label,
            )
            .expect("K-DB insert failed");
            ranker.record_feedback(item, label);
            feedback_recorded += 1;
        }
        let ranked: Vec<String> = ranker
            .rank(&items)
            .iter()
            .map(|i| i.description.clone())
            .collect();

        Ok(SignalSessionReport {
            session: session.to_string(),
            signals: mined.signals,
            ranked,
            feedback_recorded,
            tables_built: mined.tables_built,
            zero_cell_corrections: mined.zero_cell_corrections,
            shrinkage_iterations: mined.shrinkage_iterations,
        })
    })
}
