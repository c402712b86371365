//! `paper_session`: one analyst in a closed loop submitting the paper's
//! own job — `AdaHealthConfig::paper` Pipeline sessions — back to back
//! into an in-process `AnalysisService`. Every session gets its own
//! paper-shaped cohort (`SyntheticConfig::paper()` marginals, seeded by
//! the workload seed and the session index), so no cache keyed on one
//! cohort can show a gain real traffic would not.
//!
//! `mining`, `core`, `vsm` and `metrics` do nearly all the work; `net`,
//! `fleet` and `stream` are idle and the K-DB is in memory. Cohort
//! generation is set-up here: it runs between sessions, untimed.
//!
//! The traced run serves one session untraced and the same session with
//! a [`Recorder`] armed on the service's public `PipelineObserver` hook:
//! the stage, rung and sweep-point spans, and the kernel counters, are
//! the service session's own. It then decomposes the session into the
//! public calls the pipeline makes, in pipeline order and on the
//! optimizer's thread schedule, for the leaf-kernel spans, and checks
//! that the decomposition reproduces the service session exactly.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ada_core::annotator::SimulatedPhysician;
use ada_core::compliance::{self, ComplianceReport};
use ada_core::goals::{self, EndGoal, GoalViability};
use ada_core::optimize::{Optimizer, RobustnessClassifier};
use ada_core::partial::PartialMiningReport;
use ada_core::pipeline::ClusterSummary;
use ada_core::rank::{ItemKind, KnowledgeItem, KnowledgeRanker};
use ada_core::transform::TransformReport;
use ada_core::{
    AdaHealthConfig, DatasetDescriptor, KEvaluation, OptimizerReport, PipelineObserver,
    PipelineStage, RunControl, SessionReport,
};
use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_dataset::taxonomy::ConditionGroup;
use ada_dataset::ExamLog;
use ada_kdb::{SharedKdb, Value};
use ada_metrics::{cluster, ConfusionMatrix};
use ada_mining::kmeans::KernelStats;
use ada_mining::patterns::rules::{self, Rule};
use ada_mining::patterns::{fpgrowth, relative_min_support};
use ada_mining::tree::TreeConfig;
use ada_mining::{validate, DecisionTree, KMeans};
use ada_service::{AnalysisService, JobSpec, ServiceConfig, SessionState};
use ada_vsm::{DenseMatrix, VsmBuilder};

use crate::trace::{by_name, Tracer};
use crate::{derive_seed, digest, env, ms, repeated_setup, stats, Args, Outcome};

/// Snapshot refresh interval while a session runs: often enough that
/// the read tail rests on thousands of samples.
const POLL: Duration = Duration::from_millis(5);

/// Sessions whose peak RSS `peak_rss_mb` reports. The count is fixed:
/// a run on a faster host completes more sessions, and the peak over
/// more sessions is higher.
const PEAK_RSS_SESSIONS: usize = 4;

/// A session still running after this long counts as failed.
const SESSION_TIMEOUT: Duration = Duration::from_secs(120);

/// The seven stages, as span names and `core.stage_ms.*` suffixes.
const STAGES: [&str; 7] = [
    "characterize",
    "transform",
    "partial",
    "optimize",
    "extract",
    "goals",
    "navigate",
];

fn cohort(seed: u64, index: u64) -> ExamLog {
    generate(&SyntheticConfig::paper(), derive_seed(seed, index))
}

struct Setup {
    service: AnalysisService,
    first: ExamLog,
    generate_ms: f64,
}

/// Generates the first cohort, starts the service over an in-memory
/// K-DB (with `recorder` on its observer hook, if given) and warms it
/// up with one small quick session.
fn set_up(seed: u64, recorder: Option<&Arc<Recorder>>) -> Result<Setup, String> {
    let started = Instant::now();
    let first = cohort(seed, 0);
    let generate_ms = ms(started.elapsed());
    let service = AnalysisService::new(
        ServiceConfig {
            workers: 1,
            observer: recorder.map(|r| Arc::clone(r) as Arc<dyn PipelineObserver>),
            ..ServiceConfig::default()
        },
        SharedKdb::in_memory(),
    );
    let warm = generate(
        &SyntheticConfig {
            num_patients: 60,
            num_exam_types: 12,
            target_records: 700,
            ..SyntheticConfig::small()
        },
        derive_seed(seed, u64::MAX),
    );
    let id = service
        .submit(JobSpec::new(AdaHealthConfig::quick("warm-up"), warm))
        .map_err(|e| format!("warm-up submit refused: {e}"))?;
    match service.wait(id) {
        Ok(SessionState::Completed(_)) => Ok(Setup {
            service,
            first,
            generate_ms,
        }),
        other => Err(format!("warm-up session did not complete: {other:?}")),
    }
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures (the run cannot measure anything).
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut generate_ms = Vec::new();
    let recorder = args.trace.then(|| Arc::new(Recorder::default()));
    let setup = repeated_setup(
        out,
        |_| {
            let s = set_up(args.seed, recorder.as_ref())?;
            generate_ms.push(s.generate_ms);
            Ok(s)
        },
        |s| drop(s.service.shutdown()),
    )?;
    if let Some(recorder) = recorder {
        traced(args, setup, &recorder, &generate_ms, out)
    } else {
        untraced(args, setup, out);
        Ok(())
    }
}

/// What one service session produced, with its timings.
struct Served {
    report: Option<SessionReport>,
    records: usize,
    ack_ms: f64,
    session_ms: f64,
    /// Submit.
    started: Instant,
    /// Report fetched.
    ended: Instant,
}

/// Submits one paper session, refreshes the service snapshot until the
/// session is terminal, then fetches its report.
fn serve(
    service: &AnalysisService,
    name: &str,
    log: ExamLog,
    reads: &mut Vec<f64>,
    out: &mut Outcome,
) -> Served {
    let records = log.num_records();
    let due = Instant::now();
    let submitted = service.submit(JobSpec::new(AdaHealthConfig::paper(name), log));
    let ack_ms = ms(due.elapsed());
    let mut served = Served {
        report: None,
        records,
        ack_ms,
        session_ms: 0.0,
        started: due,
        ended: due,
    };
    let id = match submitted {
        Ok(id) => id,
        Err(e) => {
            out.fail(format!("{name}: submit refused: {e}"));
            return served;
        }
    };
    // The analyst's dashboard refreshes the service snapshot, whose
    // session list carries every session's state, until this one is
    // terminal; each refresh is a timed read.
    let terminal = loop {
        let t = Instant::now();
        let doc = service.snapshot();
        reads.push(ms(t.elapsed()));
        let label = doc
            .get("sessions")
            .and_then(Value::as_array)
            .and_then(|all| {
                all.iter()
                    .filter_map(Value::as_doc)
                    .find(|s| s.get("id").and_then(Value::as_i64) == i64::try_from(id.0).ok())
            })
            .and_then(|s| s.get("state"))
            .and_then(Value::as_str)
            .map(str::to_owned);
        match label.as_deref() {
            Some("completed" | "failed" | "cancelled") => {
                out.ok();
                break true;
            }
            Some(_) if due.elapsed() <= SESSION_TIMEOUT => out.ok(),
            Some(_) => {
                out.fail(format!("{name}: not terminal after {SESSION_TIMEOUT:?}"));
                break false;
            }
            None => {
                out.fail(format!("{name}: missing from the service snapshot"));
                break false;
            }
        }
        std::thread::sleep(POLL);
    };
    let state = if terminal {
        match service.state(id) {
            Ok(state) => Some(state),
            Err(e) => {
                out.fail(format!("{name}: results read failed: {e}"));
                None
            }
        }
    } else {
        None
    };
    served.ended = Instant::now();
    served.session_ms = ms(served.ended - due);
    match state {
        Some(SessionState::Completed(outcome)) => match outcome.pipeline() {
            Some(report) => {
                out.ok();
                served.report = Some(report.clone());
            }
            None => out.fail(format!("{name}: completed without a pipeline report")),
        },
        Some(other) => out.fail(format!("{name}: ended {}", other.label())),
        None => {}
    }
    served
}

/// The analyst's reads after a session: the metrics snapshot and the
/// past-session records.
fn post_session_reads(service: &AnalysisService, reads: &mut Vec<f64>, out: &mut Outcome) {
    let t = Instant::now();
    let doc = service.snapshot();
    let prometheus = service.snapshot_prometheus();
    reads.push(ms(t.elapsed()));
    if doc.get("metrics").is_some() && !prometheus.is_empty() {
        out.ok();
    } else {
        out.fail("metrics snapshot is missing its counters");
    }
    let t = Instant::now();
    let past = service.past_sessions();
    reads.push(ms(t.elapsed()));
    if past.is_empty() {
        out.fail("past sessions empty after a completed session");
    } else {
        out.ok();
    }
}

fn untraced(args: &Args, setup: Setup, out: &mut Outcome) {
    let Setup { service, first, .. } = setup;
    let (mut session_s, mut session_ms, mut acks, mut reads) = (vec![], vec![], vec![], vec![]);
    let (mut busy_s, mut records_per_s, mut peak_rss_mb) = (0.0f64, vec![], 0.0);
    let mut next = Some(first);
    for i in 0u64.. {
        let log = next.take().unwrap_or_else(|| cohort(args.seed, i));
        let name = format!("paper-{}-{i}", args.seed);
        let started = Instant::now();
        let served = serve(&service, &name, log, &mut reads, out);
        if let Some(report) = &served.report {
            check_report(&name, report, out);
            out.digests
                .push(format!("{name}:{}", digest(&format!("{report:?}"))));
            out.note(
                name.clone(),
                format!(
                    "{:.1} ms, subset {:.2}, K {}",
                    served.session_ms,
                    report.partial.selected_step().fraction,
                    report.optimizer.selected_k
                ),
            );
            session_s.push(served.session_ms / 1e3);
            session_ms.push(served.session_ms);
            acks.push(served.ack_ms);
            records_per_s.push(served.records as f64 / (served.session_ms / 1e3));
            if session_s.len() <= PEAK_RSS_SESSIONS {
                peak_rss_mb = env::peak_rss_mb();
            }
        }
        post_session_reads(&service, &mut reads, out);
        busy_s += started.elapsed().as_secs_f64();
        if busy_s >= args.seconds || served.report.is_none() {
            break;
        }
    }
    service.shutdown();
    if session_s.is_empty() {
        return;
    }
    out.set("session_s.p50", stats::median(&session_s));
    out.samples
        .insert("session_s.p50", format!("n={}", session_s.len()));
    out.latency(
        "clinic_session_ms.p50",
        "clinic_session_ms.p99",
        &session_ms,
    );
    // One analyst in a closed loop completes a session every session
    // time; the throughput figures are taken at the median session, so
    // that one slow cohort among the run's few does not move them.
    out.set("clinic_sessions_per_s", 1.0 / stats::median(&session_s));
    out.latency("read_ms.p50", "read_ms.p99", &reads);
    out.set("max_sustained_rps", stats::median(&records_per_s));
    out.latency("ingest_ack_ms.p50", "ingest_ack_ms.p99", &acks);
    out.set("peak_rss_mb", peak_rss_mb);
    out.samples.insert(
        "peak_rss_mb",
        format!("after {} sessions", session_s.len().min(PEAK_RSS_SESSIONS)),
    );
}

/// The paper's two-stage K selection (`Optimizer::run_with_control`):
/// the SSE elbow opens a window, the best combined classification score
/// inside it wins, ties to the smaller K. Returns `(window start, K)`.
pub fn select_k(evaluations: &[KEvaluation], elbow_tol: f64) -> (usize, usize) {
    let mut sorted: Vec<&KEvaluation> = evaluations.iter().collect();
    sorted.sort_by_key(|e| e.k);
    let mut window = sorted[0].k;
    for pair in sorted.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let per_unit = (a.sse - b.sse) / a.sse / (b.k - a.k) as f64;
        if per_unit < elbow_tol {
            window = a.k;
            break;
        }
        window = b.k;
    }
    let k = sorted
        .iter()
        .filter(|e| e.k >= window)
        .max_by(|a, b| {
            a.classification_score()
                .total_cmp(&b.classification_score())
                .then_with(|| b.k.cmp(&a.k))
        })
        .map_or(window, |e| e.k);
    (window, k)
}

/// Output oracle for one service session: the report must be internally
/// consistent with the paper's selection rules. (Table I's K = 8 is not
/// the oracle: the pipeline sweeps the partial-mining subset, not the
/// full matrix.)
fn check_report(name: &str, report: &SessionReport, out: &mut Outcome) {
    let paper = AdaHealthConfig::paper(name);
    let evals = &report.optimizer.evaluations;
    let ks: Vec<usize> = evals.iter().map(|e| e.k).collect();
    if ks != paper.optimizer.ks {
        return out.mismatch(format!("{name}: sweep covered K {ks:?}"));
    }
    if evals.iter().any(|e| {
        !e.sse.is_finite()
            || [e.accuracy, e.avg_precision, e.avg_recall]
                .iter()
                .any(|v| !(0.0..=100.0).contains(v))
    }) {
        return out.mismatch(format!("{name}: sweep table holds an invalid score"));
    }
    let (window, k) = select_k(evals, paper.optimizer.sse_elbow_tol);
    if (window, k)
        != (
            report.optimizer.sse_window_start,
            report.optimizer.selected_k,
        )
    {
        return out.mismatch(format!(
            "{name}: selected K {} (window {}), the selection rule gives {k} (window {window})",
            report.optimizer.selected_k, report.optimizer.sse_window_start
        ));
    }
    let partial = &report.partial;
    let within =
        (0..partial.steps.len()).find(|&i| partial.difference_vs_full(i) <= partial.epsilon);
    if within.unwrap_or(partial.steps.len() - 1) != partial.selected {
        return out.mismatch(format!(
            "{name}: partial mining selected step {}",
            partial.selected
        ));
    }
    let patients: usize = report.clusters.iter().map(|c| c.size).sum();
    if patients != report.descriptor.summary.num_patients || report.clusters.len() > k {
        return out.mismatch(format!("{name}: clusters do not partition the cohort"));
    }
    if report.ranked_items.len() != report.clusters.len() + report.rules.len() {
        out.mismatch(format!(
            "{name}: ranked items do not cover the knowledge items"
        ));
    }
}

/// Everything a decomposed session computes that the service report
/// also holds.
#[derive(Debug, PartialEq)]
struct Decomposed {
    descriptor: DatasetDescriptor,
    transform: TransformReport,
    partial: PartialMiningReport,
    optimizer: OptimizerReport,
    clusters: Vec<ClusterSummary>,
    rules: Vec<Rule>,
    compliance: Option<ComplianceReport>,
    goals: Vec<(EndGoal, f64, GoalViability)>,
}

impl Decomposed {
    fn matches(&self, r: &SessionReport) -> Result<(), &'static str> {
        let checks = [
            (self.descriptor == r.descriptor, "descriptor"),
            (self.transform == r.transform, "transform ranking"),
            (self.partial == r.partial, "partial-mining selection"),
            (self.optimizer == r.optimizer, "sweep table or selected K"),
            (self.clusters == r.clusters, "final clusters"),
            (self.rules == r.rules, "association rules"),
            (self.compliance == r.compliance, "compliance audit"),
            (self.goals == r.goals, "goal ranking"),
        ];
        checks
            .into_iter()
            .find(|(ok, _)| !ok)
            .map_or(Ok(()), |(_, what)| Err(what))
    }
}

/// What the decomposition counts in its leaf kernels.
#[derive(Debug, Default)]
struct Kernel {
    tree_nodes: Vec<f64>,
    rules_generated: usize,
}

impl Kernel {
    fn merge(&mut self, other: Kernel) {
        self.tree_nodes.extend(other.tree_nodes);
        self.rules_generated += other.rules_generated;
    }
}

/// The span name of a pipeline stage (`core.stage_ms.*` suffix).
fn stage_name(stage: PipelineStage) -> Option<&'static str> {
    let i = match stage {
        PipelineStage::Characterize => 0,
        PipelineStage::Transform => 1,
        PipelineStage::PartialMining => 2,
        PipelineStage::Optimize => 3,
        PipelineStage::KnowledgeExtraction => 4,
        PipelineStage::GoalIdentification => 5,
        PipelineStage::Navigation => 6,
        _ => return None,
    };
    Some(STAGES[i])
}

/// Records one service session's stage spans, sub-spans (partial-mining
/// rungs, sweep points) and kernel counters through the public
/// `PipelineObserver` hook. It records only while armed, and only the
/// events of the session it was armed for; disarmed, each event costs a
/// lock and a comparison.
#[derive(Default)]
struct Recorder {
    session: Mutex<Option<String>>,
    open: Mutex<Vec<(String, Instant)>>,
    done: Mutex<Vec<(String, Instant, Instant)>>,
    stats: Mutex<KernelStats>,
}

impl Recorder {
    fn arm(&self, session: &str) {
        self.done.lock().expect("recorder lock").clear();
        *self.stats.lock().expect("recorder lock") = KernelStats::default();
        *self.session.lock().expect("recorder lock") = Some(session.to_owned());
    }

    /// Stops recording; returns the closed spans and the counters.
    fn disarm(&self) -> (Vec<(String, Instant, Instant)>, KernelStats) {
        *self.session.lock().expect("recorder lock") = None;
        let done = std::mem::take(&mut *self.done.lock().expect("recorder lock"));
        (
            done,
            std::mem::take(&mut *self.stats.lock().expect("recorder lock")),
        )
    }

    fn armed_for(&self, session: &str) -> bool {
        self.session.lock().expect("recorder lock").as_deref() == Some(session)
    }

    fn start(&self, session: &str, name: String) {
        if self.armed_for(session) {
            self.open
                .lock()
                .expect("recorder lock")
                .push((name, Instant::now()));
        }
    }

    /// Closes the open span called `name` (names are unique among the
    /// spans open at once, so sweep points that start and end on
    /// different worker threads pair up).
    fn end(&self, session: &str, name: &str) {
        let end = Instant::now();
        if !self.armed_for(session) {
            return;
        }
        let mut open = self.open.lock().expect("recorder lock");
        if let Some(i) = open.iter().position(|(n, _)| n == name) {
            let (name, start) = open.remove(i);
            self.done
                .lock()
                .expect("recorder lock")
                .push((name, start, end));
        }
    }
}

impl PipelineObserver for Recorder {
    fn on_stage_start(&self, session: &str, stage: PipelineStage) {
        if let Some(name) = stage_name(stage) {
            self.start(session, format!("stage.{name}"));
        }
    }

    fn on_stage_end(&self, session: &str, stage: PipelineStage, _elapsed: Duration) {
        if let Some(name) = stage_name(stage) {
            self.end(session, &format!("stage.{name}"));
        }
    }

    fn on_span_start(&self, session: &str, _stage: PipelineStage, name: &str) {
        self.start(session, name.to_owned());
    }

    fn on_span_end(&self, session: &str, _stage: PipelineStage, name: &str, _elapsed: Duration) {
        self.end(session, name);
    }

    fn on_counters(&self, session: &str, _stage: PipelineStage, counters: &[(&'static str, u64)]) {
        if !self.armed_for(session) {
            return;
        }
        let mut stats = self.stats.lock().expect("recorder lock");
        for &(name, v) in counters {
            match name {
                "iterations" => stats.iterations += v,
                "rows_scanned" => stats.rows_scanned += v,
                "distance_evals" => stats.distance_evals += v,
                "bound_skips" => stats.bound_skips += v,
                "sep_test_hits" => stats.sep_test_hits += v,
                "chunks" => stats.chunks += v,
                _ => {}
            }
        }
    }
}

/// Runs one paper session as the pipeline's public calls, in pipeline
/// order, each inside a span; the sweep points run on the optimizer's
/// schedule (`Optimizer::run_with_control`: with `parallel`, one worker
/// per K, each driving K-means with its share of the thread budget).
/// K-DB writes are left out (the store is in memory and outside this
/// workload's layers).
fn decompose(
    log: &ExamLog,
    config: &AdaHealthConfig,
    t: &mut Tracer,
    kernel: &mut Kernel,
) -> Decomposed {
    t.span("decomposition", |t| {
        let descriptor = t.span("decomposition.characterize", |t| {
            let d = t.span("core.DatasetDescriptor::compute", |_| {
                DatasetDescriptor::compute(log)
            });
            std::hint::black_box(d.feature_vector());
            d
        });
        let transform = t.span("decomposition.transform", |t| {
            t.span("core.TransformSelector::select", |_| {
                config.transform.select(log)
            })
        });
        let weighting = transform.best();
        let partial = t.span("decomposition.partial", |t| {
            let mut miner = config.partial.clone();
            miner.weighting = weighting;
            t.span("core.HorizontalPartialMiner::run_with_control", |_| {
                let control = RunControl::new().with_session(&config.session);
                miner
                    .run_with_control(log, &control)
                    .expect("an uncancellable control never stops the miner")
            })
        });
        let (optimizer, pv) = t.span("decomposition.optimize", |t| {
            let pv = t.span("vsm.VsmBuilder::build", |_| {
                VsmBuilder::new()
                    .weighting(weighting)
                    .top_features(log, partial.selected_step().included)
                    .build(log)
            });
            let opt = &config.optimizer;
            let RobustnessClassifier::DecisionTree(tree) = &opt.classifier else {
                panic!("the paper configuration scores robustness with a decision tree");
            };
            let budget = if opt.thread_budget == 0 {
                env::nproc()
            } else {
                opt.thread_budget
            };
            let point = |t: &mut Tracer, kernel: &mut Kernel, k: usize, threads: usize| {
                t.span(&format!("decomposition.sweep:k={k}"), |t| {
                    evaluate_k(t, &pv.matrix, k, threads, opt, tree, kernel)
                })
            };
            let evaluations: Vec<KEvaluation> = if opt.parallel && opt.ks.len() > 1 {
                let row_threads = (budget / opt.ks.len()).max(1);
                let (enabled, epoch, op) = (t.enabled(), t.epoch(), t.op());
                let done: Vec<(KEvaluation, Tracer, Kernel)> = std::thread::scope(|scope| {
                    let workers: Vec<_> = opt
                        .ks
                        .iter()
                        .map(|&k| {
                            scope.spawn(move || {
                                let mut t = Tracer::new(enabled, epoch);
                                t.set_op(op);
                                let mut kernel = Kernel::default();
                                let e = point(&mut t, &mut kernel, k, row_threads);
                                (e, t, kernel)
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .map(|w| w.join().expect("sweep worker panicked"))
                        .collect()
                });
                let parent = t.current();
                done.into_iter()
                    .map(|(e, worker, k)| {
                        t.absorb(worker, parent);
                        kernel.merge(k);
                        e
                    })
                    .collect()
            } else {
                opt.ks
                    .iter()
                    .map(|&k| point(t, kernel, k, budget))
                    .collect()
            };
            let (sse_window_start, selected_k) = select_k(&evaluations, opt.sse_elbow_tol);
            let report = OptimizerReport {
                evaluations,
                selected_k,
                sse_window_start,
            };
            (report, pv)
        });
        let k = optimizer.selected_k;
        let (clusters, rules, items) = t.span("decomposition.extract", |t| {
            let (fit, _) = t.span("mining.KMeans::fit_with_stats", |_| {
                KMeans::new(k)
                    .seed(config.optimizer.seed)
                    .fit_with_stats(&pv.matrix)
            });
            let taxonomy = log.taxonomy();
            let sizes = fit.cluster_sizes();
            let mut clusters = Vec::new();
            let mut items = Vec::new();
            for (c, &size) in sizes.iter().enumerate() {
                let members: Vec<usize> = (0..pv.matrix.num_rows())
                    .filter(|&i| fit.assignments[i] == c)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let sub = pv.matrix.select_rows(&members);
                let cohesion = t.span("metrics.overall_similarity(cluster)", |_| {
                    cluster::overall_similarity(&sub, &vec![0; members.len()], 1)
                });
                let mut mass = vec![0.0f64; ConditionGroup::ALL.len()];
                for row in sub.rows_iter() {
                    for (col, &v) in row.iter().enumerate() {
                        if let Some(g) = taxonomy.group_of(pv.features[col]) {
                            mass[g.index()] += v;
                        }
                    }
                }
                let mut order: Vec<usize> = (0..mass.len()).collect();
                order.sort_by(|&a, &b| mass[b].partial_cmp(&mass[a]).expect("finite mass"));
                let top_groups: Vec<ConditionGroup> = order
                    .into_iter()
                    .take(3)
                    .map(|i| ConditionGroup::ALL[i])
                    .collect();
                let description = format!("cluster {c}/{k}: {size} patients");
                items.push(KnowledgeItem::cluster(
                    items.len() as u64,
                    description,
                    size as f64 / pv.matrix.num_rows() as f64,
                    cohesion,
                ));
                clusters.push(ClusterSummary {
                    cluster: c,
                    size,
                    cohesion,
                    top_groups,
                });
            }
            let transactions: Vec<Vec<u32>> = log
                .visits()
                .iter()
                .map(|v| v.exams.iter().map(|e| e.0).collect())
                .collect();
            let min_support = relative_min_support(transactions.len(), config.min_support);
            let frequent = t.span("mining.fpgrowth::mine", |_| {
                fpgrowth::mine(&transactions, min_support)
            });
            let mut mined = t.span("mining.rules::generate", |_| {
                rules::generate(&frequent, transactions.len(), config.min_confidence)
            });
            kernel.rules_generated += mined.len();
            mined.truncate(config.max_pattern_items);
            for rule in &mined {
                items.push(KnowledgeItem::pattern(
                    items.len() as u64,
                    format!("{rule:?}"),
                    rule.support(),
                    rule.confidence(),
                    rule.lift(),
                ));
            }
            (clusters, mined, items)
        });
        let (goals, compliance) = t.span("decomposition.goals", |t| {
            let goals = t.span("core.goals::rank_goals", |_| {
                goals::rank_goals(&descriptor, None)
            });
            let viable = goals
                .iter()
                .any(|(g, _, v)| *g == EndGoal::TreatmentCompliance && v.viable);
            let audit = if viable {
                let guidelines = compliance::diabetes_guidelines(log);
                (!guidelines.is_empty()).then(|| {
                    t.span("core.compliance::assess", |_| {
                        compliance::assess(log, &guidelines)
                    })
                })
            } else {
                None
            };
            (goals, audit)
        });
        t.span("decomposition.navigate", |_| {
            let mut ranker = KnowledgeRanker::new();
            let mut physician = SimulatedPhysician::new(
                config.seed,
                config.annotator_noise,
                config.annotator_specialty,
            );
            let first: Vec<KnowledgeItem> = ranker
                .rank(&items)
                .into_iter()
                .take(config.feedback_budget)
                .cloned()
                .collect();
            for item in &first {
                let f = &item.features;
                let label = match item.kind {
                    ItemKind::Cluster => physician.label_cluster(f[5], f[6], &[]),
                    _ => physician.label_pattern(f[2], f[3], f[4] / (1.0 - f[4]).max(1e-9), &[]),
                };
                ranker.record_feedback(item, label);
            }
            std::hint::black_box(ranker.rank(&items).len());
        });
        Decomposed {
            descriptor,
            transform,
            partial,
            optimizer,
            clusters,
            rules,
            compliance,
            goals,
        }
    })
}

/// One sweep point: K-means on `threads` row threads, overall
/// similarity, and stratified k-fold cross-validation of the robustness
/// tree with each fold's fit and predict in its own span
/// (`validate::cross_validate`, unrolled).
fn evaluate_k(
    t: &mut Tracer,
    matrix: &DenseMatrix,
    k: usize,
    threads: usize,
    opt: &Optimizer,
    tree: &TreeConfig,
    kernel: &mut Kernel,
) -> KEvaluation {
    let (seed, folds) = (opt.seed, opt.folds);
    let (fit, _) = t.span("mining.KMeans::fit_with_stats", |_| {
        KMeans::new(k)
            .seed(seed)
            .backend(opt.backend)
            .threads(threads)
            .fit_with_stats(matrix)
    });
    let labels = &fit.assignments;
    let similarity = t.span("metrics.overall_similarity", |_| {
        cluster::overall_similarity(matrix, labels, k)
    });
    let cm = t.span("mining.cross_validate", |t| {
        let folds = t.span("mining.validate::stratified_folds", |_| {
            validate::stratified_folds(labels, folds, seed)
        });
        let mut pooled = ConfusionMatrix::new(k);
        for fold in folds.iter().filter(|f| !f.is_empty()) {
            let mut in_fold = vec![false; labels.len()];
            for &i in fold {
                in_fold[i] = true;
            }
            let train: Vec<usize> = (0..labels.len()).filter(|&i| !in_fold[i]).collect();
            if train.is_empty() {
                continue;
            }
            let train_x = matrix.select_rows(&train);
            let train_y: Vec<usize> = train.iter().map(|&i| labels[i]).collect();
            let test_x = matrix.select_rows(fold);
            let model = t.span("mining.DecisionTree::fit", |_| {
                DecisionTree::fit(&train_x, &train_y, k, tree)
            });
            kernel.tree_nodes.push((2 * model.num_leaves() - 1) as f64);
            let predicted = t.span("mining.DecisionTree::predict", |_| model.predict(&test_x));
            for (&i, &p) in fold.iter().zip(&predicted) {
                pooled.record(labels[i], p);
            }
        }
        pooled
    });
    KEvaluation {
        k,
        sse: fit.sse,
        accuracy: cm.accuracy() * 100.0,
        avg_precision: cm.macro_precision() * 100.0,
        avg_recall: cm.macro_recall() * 100.0,
        overall_similarity: similarity,
    }
}

/// Turns a recorded service session into spans: `core.session` from
/// submit to the fetched report, a `core.stage.<stage>` span per stage
/// under it, and each rung or sweep-point span as `core.<name>` under
/// the stage whose interval holds its start.
fn session_spans(t: &mut Tracer, served: &Served, recorded: &[(String, Instant, Instant)]) {
    let session = t.record("core.session", served.started, served.ended, None);
    let mut stages = Vec::new();
    for (name, start, end) in recorded {
        if let Some(stage) = name.strip_prefix("stage.") {
            let id = t.record(&format!("core.stage.{stage}"), *start, *end, Some(session));
            stages.push((id, *start, *end));
        }
    }
    for (name, start, end) in recorded.iter().filter(|r| !r.0.starts_with("stage.")) {
        let parent = stages
            .iter()
            .find(|(_, s, e)| s <= start && start <= e)
            .map_or(session, |(id, ..)| *id);
        t.record(&format!("core.{name}"), *start, *end, Some(parent));
    }
}

fn traced(
    args: &Args,
    setup: Setup,
    recorder: &Recorder,
    generate_ms: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let Setup { service, first, .. } = setup;
    let config = AdaHealthConfig::paper(format!("paper-{}-0", args.seed));
    let log = Arc::new(first);
    let epoch = Instant::now();

    // The service session the decomposition must reproduce, served
    // untraced and then with the recorder armed: the difference is the
    // recorder's overhead.
    let mut reads = Vec::new();
    let plain = serve(&service, &config.session, (*log).clone(), &mut reads, out);
    recorder.arm(&config.session);
    let served = serve(&service, &config.session, (*log).clone(), &mut reads, out);
    let (recorded, counters) = recorder.disarm();
    let report = served
        .report
        .as_ref()
        .ok_or_else(|| format!("{}: the reference session did not complete", config.session))?;
    out.digests.push(format!(
        "{}:{}",
        config.session,
        digest(&format!("{report:?}"))
    ));
    let metrics = service.metrics();
    out.set("service.queue_wait_ms", ms(metrics.queue_wait.mean));
    out.set("service.busy_rejects", metrics.rejected as f64);
    let expo: Vec<(f64, usize)> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let text = service.snapshot_prometheus();
            (ms(t.elapsed()), text.len())
        })
        .collect();
    out.set(
        "obs.exposition_ms",
        stats::median(&expo.iter().map(|e| e.0).collect::<Vec<_>>()),
    );
    out.set("obs.exposition_bytes", expo[0].1 as f64);
    let kdb = service.kdb();
    let scans: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let snapshot = kdb.read();
            let docs = snapshot
                .collection(ada_kdb::schema::names::SESSIONS)
                .map_or(0, |c| c.iter().count());
            std::hint::black_box(docs);
            ms(t.elapsed())
        })
        .collect();
    out.set("kdb.read_scan_ms", stats::median(&scans));
    service.shutdown();

    let mut tracer = Tracer::new(true, epoch);
    tracer.set_op(1);
    session_spans(&mut tracer, &served, &recorded);

    // Untraced then traced decomposition of the same session; the
    // difference is the tracing overhead.
    let mut kernel = Kernel::default();
    let mut untraced = Tracer::new(false, epoch);
    let started = Instant::now();
    let plain_decomposed = decompose(&log, &config, &mut untraced, &mut kernel);
    let untraced_ms = ms(started.elapsed());
    let mut kernel = Kernel::default();
    tracer.set_op(2);
    let started = Instant::now();
    let decomposed = decompose(&log, &config, &mut tracer, &mut kernel);
    let traced_ms = ms(started.elapsed());
    for (what, d) in [("untraced", &plain_decomposed), ("traced", &decomposed)] {
        out.ok();
        if let Err(field) = d.matches(report) {
            out.mismatch(format!(
                "{what} decomposition differs from the service session in its {field}"
            ));
        }
    }
    out.note(
        "trace.service_session_ms",
        format!("{:.3}", served.session_ms),
    );
    out.note(
        "trace.service_untraced_session_ms",
        format!("{:.3}", plain.session_ms),
    );
    out.note(
        "trace.service_overhead_ms",
        format!("{:.3}", served.session_ms - plain.session_ms),
    );
    out.note(
        "trace.untraced_decomposition_ms",
        format!("{untraced_ms:.3}"),
    );
    out.note("trace.traced_decomposition_ms", format!("{traced_ms:.3}"));
    out.note(
        "trace.decomposition_overhead_ms",
        format!("{:.3}", traced_ms - untraced_ms),
    );

    let spans = tracer.spans().to_vec();
    let names = by_name(&spans);
    let mean = |name: &str| names.get(name).map_or(0.0, |s| s.mean_ms());
    // Coverage gate: the service session's stage spans against its wall
    // time from submit to the fetched report.
    let stage_ns: u64 = STAGES
        .iter()
        .filter_map(|s| names.get(&format!("core.stage.{s}")))
        .map(|s| s.total_ns)
        .sum();
    let coverage = stage_ns as f64 / 1e6 / served.session_ms;
    out.set("core.stage_coverage", coverage);
    if coverage < 0.95 {
        out.mismatch(format!(
            "stage spans cover {:.1}% of the service session, below 95%",
            coverage * 100.0
        ));
    }
    // A stage's self time: its span less the rung or sweep-point spans
    // inside it.
    for stage in STAGES {
        let name = crate::catalog::PER_LAYER
            .iter()
            .map(|d| d.name)
            .find(|n| n.strip_prefix("core.stage_ms.") == Some(stage))
            .expect("every stage has a metric");
        let self_ns = names
            .get(&format!("core.stage.{stage}"))
            .map_or(0, |s| s.self_ns);
        out.set(name, self_ns as f64 / 1e6);
    }
    for (rung, name) in [
        ("0.20", "core.rung_ms.0.20"),
        ("0.40", "core.rung_ms.0.40"),
        ("1.00", "core.rung_ms.1.00"),
    ] {
        out.set(name, mean(&format!("core.rung:{rung}")));
    }
    for k in crate::catalog::SWEEP_KS {
        if let Some(name) = crate::catalog::sweep_name(k) {
            out.set(name, mean(&format!("core.sweep:k={k}")));
        }
    }
    out.set("mining.cv_ms", mean("mining.cross_validate"));
    out.set("mining.tree_fit_ms", mean("mining.DecisionTree::fit"));
    out.set(
        "mining.tree_predict_ms",
        mean("mining.DecisionTree::predict"),
    );
    out.set("mining.tree_nodes", stats::mean(&kernel.tree_nodes));
    out.set("mining.kmeans_ms", mean("mining.KMeans::fit_with_stats"));
    out.set("mining.kmeans_iters", counters.iterations as f64);
    out.set("mining.kmeans_dist_evals", counters.distance_evals as f64);
    let candidates = counters.bound_skips + counters.rows_scanned;
    out.set(
        "mining.kmeans_prune_ratio",
        if candidates == 0 {
            0.0
        } else {
            counters.bound_skips as f64 / candidates as f64
        },
    );
    out.set("mining.fpgrowth_ms", mean("mining.fpgrowth::mine"));
    out.set("mining.rules", kernel.rules_generated as f64);
    out.set("vsm.build_ms", mean("vsm.VsmBuilder::build"));
    out.set("metrics.similarity_ms", mean("metrics.overall_similarity"));
    out.set("dataset.generate_ms", stats::mean(generate_ms));
    let fits = names.get("mining.DecisionTree::fit").map_or(0, |s| s.count);
    out.samples
        .insert("mining.tree_fit_ms", format!("n={fits}"));
    out.spans = spans;
    Ok(())
}
