//! End-to-end service behaviour: concurrent determinism against a shared
//! journaled K-DB, mid-run cancellation, retries, deadlines, and
//! backpressure.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ada_core::{AdaHealth, AdaHealthConfig, PipelineObserver, PipelineStage, SessionReport};
use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_dataset::ExamLog;
use ada_kdb::Kdb;
use ada_service::{AnalysisService, CancelToken, JobSpec, Priority, ServiceConfig, SessionState};

fn cohort_cfg() -> SyntheticConfig {
    SyntheticConfig {
        num_patients: 90,
        num_exam_types: 20,
        target_records: 1_200,
        ..SyntheticConfig::small()
    }
}

fn journal_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ada_svc_{tag}_{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// What a serial, single-threaded run on a fresh store produces.
fn serial_report(config: &AdaHealthConfig, log: &ExamLog) -> SessionReport {
    let mut engine = AdaHealth::with_kdb(config.clone(), Kdb::in_memory());
    engine.run(log)
}

#[test]
fn eight_concurrent_sessions_match_serial_runs() {
    let path = journal_path("fleet");
    let service = AnalysisService::with_kdb(
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
        Kdb::open(&path).unwrap(),
    );

    let priorities = [
        Priority::High,
        Priority::Low,
        Priority::Normal,
        Priority::High,
        Priority::Low,
        Priority::Normal,
        Priority::Normal,
        Priority::High,
    ];
    let jobs: Vec<(AdaHealthConfig, Arc<ExamLog>)> = (0..8)
        .map(|i| {
            (
                AdaHealthConfig::quick(format!("fleet-{i}")),
                Arc::new(generate(&cohort_cfg(), 100 + i as u64)),
            )
        })
        .collect();

    let ids: Vec<_> = jobs
        .iter()
        .zip(priorities)
        .map(|((config, log), priority)| {
            service
                .submit(JobSpec::new(config.clone(), Arc::clone(log)).priority(priority))
                .unwrap()
        })
        .collect();

    for (id, (config, log)) in ids.iter().zip(&jobs) {
        match service.wait(*id).unwrap() {
            SessionState::Completed(outcome) => {
                // Concurrency must not change results: the report equals
                // a serial run of the same config + seed, field by field.
                let report = outcome.pipeline().expect("pipeline workload");
                assert_eq!(*report, serial_report(config, log), "{}", config.session);
            }
            other => panic!("{}: expected Completed, got {other:?}", config.session),
        }
    }

    let metrics = service.shutdown();
    assert_eq!(metrics.submitted, 8);
    assert_eq!(metrics.completed, 8);
    assert_eq!(metrics.failed + metrics.cancelled + metrics.rejected, 0);
    // Every session ran all seven pipeline stages.
    for stage in PipelineStage::PIPELINE {
        assert_eq!(metrics.stages[stage.name()].runs, 8, "{stage}");
    }

    // The shared journal replays: all eight sessions' artifacts are there.
    let reopened = Kdb::open(&path).unwrap();
    let clusters = reopened.collection("cluster_knowledge").unwrap();
    for i in 0..8 {
        let hits = clusters.find(&ada_kdb::Filter::eq("session", format!("fleet-{i}")));
        assert!(!hits.is_empty(), "fleet-{i} left no cluster knowledge");
    }
    std::fs::remove_file(&path).ok();
}

/// Cancels a named session's token the moment its first stage starts, so
/// the next checkpoint observes it — deterministic mid-run cancellation.
struct CancelOnFirstStage {
    target: String,
    token: CancelToken,
}

impl PipelineObserver for CancelOnFirstStage {
    fn on_stage_start(&self, session: &str, _stage: PipelineStage) {
        if session == self.target {
            self.token.cancel();
        }
    }
}

#[test]
fn mid_run_cancel_yields_cancelled_state_and_replayable_journal() {
    let path = journal_path("cancel");
    let token = CancelToken::new();
    let observer = Arc::new(CancelOnFirstStage {
        target: "cancel-me".into(),
        token: token.clone(),
    });
    let service = AnalysisService::with_kdb(
        ServiceConfig {
            workers: 2,
            observer: Some(observer),
            ..ServiceConfig::default()
        },
        Kdb::open(&path).unwrap(),
    );

    let log = Arc::new(generate(&cohort_cfg(), 7));
    let doomed = service
        .submit(
            JobSpec::new(AdaHealthConfig::quick("cancel-me"), Arc::clone(&log)).cancel_token(token),
        )
        .unwrap();
    let survivor = service
        .submit(JobSpec::new(
            AdaHealthConfig::quick("survivor"),
            Arc::clone(&log),
        ))
        .unwrap();

    assert_eq!(service.wait(doomed).unwrap(), SessionState::Cancelled);
    assert!(matches!(
        service.wait(survivor).unwrap(),
        SessionState::Completed(_)
    ));

    let metrics = service.shutdown();
    assert_eq!(metrics.cancelled, 1);
    assert_eq!(metrics.completed, 1);

    // Mid-run cancellation must leave the journal consistent: it replays
    // cleanly, the survivor's artifacts are intact, and the cancelled
    // session left no knowledge items (it stopped before extraction).
    let reopened = Kdb::open(&path).unwrap();
    let clusters = reopened.collection("cluster_knowledge").unwrap();
    assert!(!clusters
        .find(&ada_kdb::Filter::eq("session", "survivor"))
        .is_empty());
    assert!(clusters
        .find(&ada_kdb::Filter::eq("session", "cancel-me"))
        .is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_failures_are_retried_until_success() {
    let service = AnalysisService::with_kdb(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        Kdb::in_memory(),
    );
    let log = Arc::new(generate(&cohort_cfg(), 11));
    let id = service
        .submit(
            JobSpec::new(AdaHealthConfig::quick("flaky"), log)
                .inject_failures(2)
                .max_retries(3),
        )
        .unwrap();
    assert!(matches!(
        service.wait(id).unwrap(),
        SessionState::Completed(_)
    ));
    let metrics = service.shutdown();
    assert_eq!(metrics.retried, 2);
    assert_eq!(metrics.completed, 1);
    assert_eq!(metrics.failed, 0);
}

#[test]
fn exhausted_retries_fail_the_session() {
    let service = AnalysisService::with_kdb(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        Kdb::in_memory(),
    );
    let log = Arc::new(generate(&cohort_cfg(), 12));
    let id = service
        .submit(
            JobSpec::new(AdaHealthConfig::quick("doomed"), log)
                .inject_failures(10)
                .max_retries(1),
        )
        .unwrap();
    match service.wait(id).unwrap() {
        SessionState::Failed { reason } => {
            assert!(reason.contains("2 attempts"), "reason: {reason}");
            assert!(reason.contains("injected"), "reason: {reason}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.retried, 1);
    assert_eq!(metrics.failed, 1);
}

#[test]
fn an_expired_deadline_fails_without_retry() {
    let service = AnalysisService::with_kdb(ServiceConfig::default(), Kdb::in_memory());
    let log = Arc::new(generate(&cohort_cfg(), 13));
    let id = service
        .submit(JobSpec::new(AdaHealthConfig::quick("late"), log).timeout(Duration::ZERO))
        .unwrap();
    match service.wait(id).unwrap() {
        SessionState::Failed { reason } => {
            assert!(reason.contains("deadline"), "reason: {reason}")
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.retried, 0);
    assert_eq!(metrics.failed, 1);
}

/// Blocks the first stage of every session until released, so tests can
/// hold a worker busy while they fill the queue behind it.
#[derive(Default)]
struct GateObserver {
    started: AtomicUsize,
    open: Mutex<bool>,
    bell: Condvar,
}

impl GateObserver {
    fn wait_for_start(&self) {
        while self.started.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
    }
    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.bell.notify_all();
    }
}

impl PipelineObserver for GateObserver {
    fn on_stage_start(&self, _session: &str, stage: PipelineStage) {
        if stage != PipelineStage::Characterize {
            return;
        }
        self.started.fetch_add(1, Ordering::Release);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.bell.wait(open).unwrap();
        }
    }
}

#[test]
fn a_full_queue_applies_backpressure_and_a_queued_job_can_be_cancelled() {
    let gate = Arc::new(GateObserver::default());
    let service = AnalysisService::with_kdb(
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            observer: Some(gate.clone()),
            ..ServiceConfig::default()
        },
        Kdb::in_memory(),
    );
    let log = Arc::new(generate(&cohort_cfg(), 21));

    // First job occupies the single worker (parked at the gate)...
    let running = service
        .submit(JobSpec::new(
            AdaHealthConfig::quick("running"),
            Arc::clone(&log),
        ))
        .unwrap();
    gate.wait_for_start();
    // ...second fills the queue's single slot...
    let queued = service
        .submit(JobSpec::new(
            AdaHealthConfig::quick("queued"),
            Arc::clone(&log),
        ))
        .unwrap();
    // ...and the third submission is refused: backpressure, not buffering.
    let err = service
        .submit(JobSpec::new(
            AdaHealthConfig::quick("rejected"),
            Arc::clone(&log),
        ))
        .unwrap_err();
    match &err {
        ada_service::ServiceError::Busy {
            capacity,
            retry_after_hint,
        } => {
            assert_eq!(*capacity, 1);
            // The hint is typed retry guidance, never zero or absurd.
            assert!(*retry_after_hint >= Duration::from_millis(25));
            assert!(*retry_after_hint <= Duration::from_secs(30));
            assert_eq!(err.retry_after_hint(), Some(*retry_after_hint));
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    // A still-queued job can be cancelled before it ever runs.
    service.cancel(queued).unwrap();
    gate.release();

    assert!(matches!(
        service.wait(running).unwrap(),
        SessionState::Completed(_)
    ));
    assert_eq!(service.wait(queued).unwrap(), SessionState::Cancelled);

    let metrics = service.shutdown();
    assert_eq!(metrics.submitted, 2);
    assert_eq!(metrics.rejected, 1);
    assert_eq!(metrics.cancelled, 1);
    assert_eq!(metrics.max_queue_depth, 1);
}

#[test]
fn shutdown_drains_already_accepted_jobs() {
    let service = AnalysisService::with_kdb(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        Kdb::in_memory(),
    );
    let log = Arc::new(generate(&cohort_cfg(), 31));
    for i in 0..4 {
        service
            .submit(JobSpec::new(
                AdaHealthConfig::quick(format!("drain-{i}")),
                Arc::clone(&log),
            ))
            .unwrap();
    }
    // Shutdown without waiting: graceful drain still completes all four.
    let metrics = service.shutdown();
    assert_eq!(metrics.completed, 4);
    assert_eq!(metrics.failed + metrics.cancelled, 0);
}

#[test]
fn stream_mining_session_matches_a_direct_engine_run() {
    use ada_dataset::StreamOrder;
    use ada_service::Workload;
    use ada_stream::{StreamEngine, StreamMiningSpec};

    let service = AnalysisService::with_kdb(ServiceConfig::default(), Kdb::in_memory());
    let log = Arc::new(generate(&cohort_cfg(), 55));
    let spec = StreamMiningSpec::quick().seed(55);

    let id = service
        .submit(
            JobSpec::new(AdaHealthConfig::quick("ward"), Arc::clone(&log))
                .workload(Workload::StreamMining(spec.clone())),
        )
        .unwrap();
    let report = match service.wait(id).unwrap() {
        SessionState::Completed(outcome) => outcome.stream().unwrap().clone(),
        other => panic!("expected a completed stream session, got {other:?}"),
    };

    // The session is just the engine fed the seeded StreamOrder replay:
    // a direct run (no service, no checkpoint store) must land on the
    // identical fingerprints.
    let mut engine = StreamEngine::new(spec.to_config("direct"));
    let feed: Vec<_> = StreamOrder::new(&log, spec.seed, spec.disorder).collect();
    for batch in feed.chunks(spec.chunk.max(1)) {
        engine.ingest(batch).unwrap();
    }
    engine.seal().unwrap();

    assert!(report.windows_closed > 0);
    assert!(report.has_model);
    assert_eq!(report.vsm_fp, format!("{:016x}", engine.vsm_fingerprint()));
    assert_eq!(
        report.model_fp,
        format!("{:016x}", engine.model_fingerprint().unwrap())
    );
    assert_eq!(report.windows_closed, engine.windows_closed());
    assert_eq!(report.folded, engine.folded());
    assert_eq!(report.refits, engine.refits());
    service.shutdown();
}

#[test]
fn open_ingest_query_seal_round_trip_and_restart_resume() {
    use ada_dataset::StreamOrder;
    use ada_kdb::Value;
    use ada_service::ServiceError;
    use ada_stream::StreamConfig;

    let path = journal_path("stream");
    let log = generate(&cohort_cfg(), 77);
    let feed: Vec<_> = StreamOrder::new(&log, 77, 4).collect();
    let config = StreamConfig::new("icu-feed")
        .lateness_days(7)
        .k(3)
        .min_rows(8)
        .update_iters(3)
        .refit_iters(30);

    let service = AnalysisService::with_kdb(ServiceConfig::default(), Kdb::open(&path).unwrap());
    assert_eq!(service.stream_open(config.clone()).unwrap(), 0);
    // Re-opening the same name is an idempotent no-op.
    assert_eq!(service.stream_open(config.clone()).unwrap(), 0);
    assert_eq!(service.stream_names(), vec!["icu-feed".to_string()]);
    assert!(matches!(
        service.stream_query("nope"),
        Err(ServiceError::UnknownStream(_))
    ));

    for batch in feed.chunks(64) {
        service.stream_ingest("icu-feed", batch.to_vec()).unwrap();
    }
    // Read-your-writes: every accepted batch is reflected.
    let status = service.stream_query("icu-feed").unwrap();
    assert_eq!(
        status.get("ingested").unwrap().as_i64().unwrap() as usize,
        feed.len()
    );
    let sealed = service.stream_seal("icu-feed").unwrap();
    let windows = sealed.get("windows_closed").unwrap().as_i64().unwrap();
    let vsm_fp = sealed.get("vsm_fp").unwrap().as_str().unwrap().to_string();
    assert!(windows > 0);
    let exposition = service.snapshot_prometheus();
    assert!(exposition.contains("ada_stream_windows_closed_total"));
    service.shutdown();

    // A new service over the same journal resumes the stream from its
    // durable checkpoints, byte-identically.
    let service = AnalysisService::with_kdb(ServiceConfig::default(), Kdb::open(&path).unwrap());
    let resumed = service.stream_open(config).unwrap();
    assert_eq!(resumed, windows as u64);
    let status = service.stream_query("icu-feed").unwrap();
    assert_eq!(
        status.get("windows_closed").unwrap().as_i64(),
        Some(windows)
    );
    assert_eq!(
        status.get("vsm_fp").unwrap().as_str().unwrap(),
        vsm_fp,
        "resumed state must match the sealed state"
    );
    assert!(!matches!(status.get("model"), Some(Value::Null) | None));
    service.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_lists_registry_labels_and_counts_past_sessions() {
    let service = AnalysisService::with_kdb(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        Kdb::in_memory(),
    );
    let log = Arc::new(generate(&cohort_cfg(), 31));
    let completed = service
        .submit(JobSpec::new(
            AdaHealthConfig::quick("completed"),
            Arc::clone(&log),
        ))
        .unwrap();
    let failed = service
        .submit(
            JobSpec::new(AdaHealthConfig::quick("failed"), Arc::clone(&log))
                .timeout(Duration::ZERO),
        )
        .unwrap();
    let token = CancelToken::new();
    token.cancel();
    let cancelled = service
        .submit(JobSpec::new(AdaHealthConfig::quick("cancelled"), log).cancel_token(token))
        .unwrap();
    assert!(matches!(
        service.wait(completed).unwrap(),
        SessionState::Completed(_)
    ));
    assert!(matches!(
        service.wait(failed).unwrap(),
        SessionState::Failed { .. }
    ));
    assert_eq!(service.wait(cancelled).unwrap(), SessionState::Cancelled);

    let snapshot = service.snapshot();
    let listed: Vec<(i64, String, String)> = snapshot
        .get("sessions")
        .and_then(|v| v.as_array())
        .expect("sessions array")
        .iter()
        .map(|v| {
            let doc = v.as_doc().expect("session entry");
            let field = |key| doc.get(key).expect("session field");
            (
                field("id").as_i64().expect("id"),
                field("name").as_str().expect("name").to_owned(),
                field("state").as_str().expect("state").to_owned(),
            )
        })
        .collect();
    let expected: Vec<(i64, String, String)> = service
        .sessions()
        .into_iter()
        .map(|(id, name, state)| (id.0 as i64, name, state.label().to_owned()))
        .collect();
    assert_eq!(listed, expected);
    let labels: Vec<&str> = listed.iter().map(|(_, _, label)| label.as_str()).collect();
    assert_eq!(labels, ["completed", "failed", "cancelled"]);

    let past = service.past_sessions().len();
    assert_eq!(past, 3);
    assert_eq!(
        snapshot.get("past_sessions").and_then(|v| v.as_i64()),
        Some(past as i64)
    );
    service.shutdown();
}
