//! `hospital_feed`: one hospital producer on one connection, as an open
//! loop over a ladder of offered rates.
//!
//! For each ladder rate the producer opens its own stream on a journaled
//! node with no standby (`StreamOpen`), sends `Ingest` batches of a
//! paper cohort in `StreamOrder` (seeded bounded disorder within the
//! lateness bound) on a fixed schedule, and seals the stream. Every
//! batch is timed from when it was due, so a stall counts against the
//! batches queued behind it; a `Busy` reply is retried after its hint
//! and the time the generator ran late is recorded.
//!
//! The ladder's highest rate is an overload rate: the producer cannot
//! keep to it and sends batch after batch, so the rate it gets acked is
//! the node's capacity, not the schedule's. That rung feeds the whole
//! cohort [`OVERLOAD_PASSES`] times, each pass into a stream of its
//! own; the capacity, session and throughput figures come from its
//! passes. The lower rungs carry the ack latency at
//! [`REFERENCE_RPS`]. After the ladder, a read phase queries the sealed
//! streams.
//!
//! The stream engine (incremental VSM fold, window close, warm
//! K-means) and the wire ingest path do the work; tree CV, the fleet
//! and signals do none.

use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_dataset::{ExamRecord, StreamOrder};
use ada_kdb::{CommitObserver, CommitRole, DurabilityPolicy, SharedKdb, StoreOptions, Value};
use ada_net::proto::{Request, Response};
use ada_net::{frame_bytes, Client, NetConfig, NetServer};
use ada_service::{AnalysisService, ServiceConfig};
use ada_stream::fingerprint::format_fp;
use ada_stream::{StreamEngine, StreamMiningSpec};

use crate::trace::Tracer;
use crate::{catalog, derive_seed, digest, env, ms, repeated_setup, stats, Args, Outcome};

/// The ladder rate whose ack latency is reported; `--feed-ladder` must
/// hold it below its overload rate.
pub const REFERENCE_RPS: f64 = 20_000.0;

/// Records per `Ingest` batch.
const BATCH: usize = 64;

/// The ack-latency tail, and the generator lateness, a rung must stay
/// within to count as sustained.
const ACK_LIMIT_MS: f64 = 250.0;

/// Whole-cohort passes of the overload rung. The count is fixed, not
/// filled to the run's time: every sealed stream stays resident on the
/// node, so a count that grew with throughput would make `peak_rss_mb`
/// grow with it.
const OVERLOAD_PASSES: usize = 6;

/// `StreamQuery` reads in the read phase after the ladder.
const READS: usize = 400;

/// `Busy` replies retried per batch before it counts as failed.
const BUSY_BUDGET: u32 = 50;

/// How long before a batch is due the producer stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

/// The node under test plus the feed it will receive.
struct Node {
    service: Arc<AnalysisService>,
    server: NetServer,
    kdb: SharedKdb,
    dir: PathBuf,
    spec: StreamMiningSpec,
    feed: Vec<ExamRecord>,
    generate_ms: f64,
}

fn start(args: &Args, dir: &Path) -> Result<Node, String> {
    let t = Instant::now();
    let log = generate(&SyntheticConfig::paper(), derive_seed(args.seed, 0));
    let generate_ms = ms(t.elapsed());
    let spec = StreamMiningSpec::default().seed(derive_seed(args.seed, 1));
    let feed: Vec<ExamRecord> =
        StreamOrder::new(&log, derive_seed(args.seed, 2), spec.disorder).collect();
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("feed.journal");
    let kdb = SharedKdb::open_with(
        &path,
        StoreOptions::default().durability(DurabilityPolicy::Always),
    )
    .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let service = Arc::new(AnalysisService::new(
        ServiceConfig {
            workers: 1,
            durability: Some(DurabilityPolicy::Always),
            ..ServiceConfig::default()
        },
        kdb.clone(),
    ));
    let server = NetServer::start(Arc::clone(&service), NetConfig::default())
        .map_err(|e| format!("node failed to start: {e}"))?;
    let node = Node {
        service,
        server,
        kdb,
        dir: dir.to_owned(),
        spec,
        feed,
        generate_ms,
    };
    let mut client = connect(&node)?;
    let mut producer = Producer::default();
    let warm_records = &node.feed[..node.feed.len().min(4_096)];
    let warm = producer.stream(&mut client, &node, "warm-up", warm_records, None)?;
    if warm.failed > 0 {
        return Err("warm-up stream failed".to_owned());
    }
    Ok(node)
}

fn stop(node: Node) {
    let Node {
        service,
        server,
        kdb,
        dir,
        ..
    } = node;
    drop(server.shutdown());
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
    drop(kdb);
    let _ = std::fs::remove_dir_all(dir);
}

fn connect(node: &Node) -> Result<Client, String> {
    Client::connect(node.server.local_addr())
        .map(Client::without_busy_retry)
        .map_err(|e| format!("cannot connect: {e}"))
}

/// One stream fed at one rate.
#[derive(Debug, Default)]
struct Rung {
    ack_ms: Vec<f64>,
    /// How late the generator sent the last batch.
    final_lateness_ms: f64,
    /// Records acked per second, from the first batch's due time to
    /// the last ack.
    acked_rps: f64,
    session_ms: f64,
    records: usize,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    vsm_fp: String,
    model_fp: String,
}

/// The producer's wire counters across rungs.
#[derive(Debug, Default)]
struct Producer {
    busy: u64,
    ingest_attempts: u64,
    rtt: Vec<(&'static str, f64)>,
    bytes: Vec<(&'static str, f64)>,
    sized: bool,
}

impl Producer {
    fn call(&mut self, client: &mut Client, request: &Request) -> Result<Response, String> {
        let kind = request.kind();
        let started = Instant::now();
        let response = client
            .call(request.clone())
            .map_err(|e| format!("{kind}: {e}"))?;
        self.rtt.push((kind, ms(started.elapsed())));
        if self.sized {
            let size = frame_bytes(&request.encode(1), 0).len()
                + frame_bytes(&response.encode(1), 0).len();
            self.bytes.push((kind, size as f64));
        }
        Ok(response)
    }

    /// Opens `name`, sends `records` in [`BATCH`]-record batches (at
    /// `rate` records per second, or back to back without one), seals,
    /// and returns what the stream measured.
    fn stream(
        &mut self,
        client: &mut Client,
        node: &Node,
        name: &str,
        records: &[ExamRecord],
        rate: Option<f64>,
    ) -> Result<Rung, String> {
        let mut rung = Rung {
            records: records.len(),
            ..Rung::default()
        };
        let opened = Instant::now();
        let open = Request::StreamOpen {
            stream: name.to_owned(),
            spec: node.spec.clone(),
        };
        match self.call(client, &open)? {
            Response::StreamOpened { .. } => rung.attempted += 1,
            other => return Err(format!("{name}: open answered {}", other.kind())),
        }
        let start = Instant::now();
        for (j, chunk) in records.chunks(BATCH).enumerate() {
            let due = rate.map_or_else(Instant::now, |r| {
                start + Duration::from_secs_f64((j * BATCH) as f64 / r)
            });
            // Sleep to just short of the due time, then spin: timed from
            // when it was due, an ack would otherwise carry the timer's
            // slack and the producer's own wake-up.
            let now = Instant::now();
            if due > now + SPIN {
                std::thread::sleep(due - now - SPIN);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            rung.final_lateness_ms = ms(Instant::now().saturating_duration_since(due));
            rung.attempted += 1;
            let request = Request::Ingest {
                stream: name.to_owned(),
                records: chunk.to_vec(),
            };
            let mut acked = false;
            for _ in 0..=BUSY_BUDGET {
                self.ingest_attempts += 1;
                match self.call(client, &request) {
                    Ok(Response::Ingested { accepted, .. }) if accepted as usize == chunk.len() => {
                        rung.ack_ms.push(ms(due.elapsed()));
                        acked = true;
                        break;
                    }
                    Ok(Response::Busy { retry_after }) => {
                        self.busy += 1;
                        std::thread::sleep(retry_after.min(Duration::from_secs(1)));
                    }
                    other => {
                        rung.problems
                            .push(format!("{name}: batch {j} answered {other:?}"));
                        break;
                    }
                }
            }
            if !acked {
                rung.failed += 1;
                if rung.problems.len() < rung.failed as usize {
                    rung.problems
                        .push(format!("{name}: batch {j} busy past the retry budget"));
                }
            }
        }
        rung.acked_rps = records.len() as f64 / start.elapsed().as_secs_f64();
        rung.attempted += 1;
        let seal = Request::StreamSeal {
            stream: name.to_owned(),
        };
        match self.call(client, &seal)? {
            Response::StreamState { doc } => {
                let ingested = doc.get("ingested").and_then(Value::as_i64).unwrap_or(-1);
                if ingested != records.len() as i64 {
                    rung.failed += 1;
                    rung.problems.push(format!(
                        "{name}: sealed with {ingested} of {} records",
                        records.len()
                    ));
                }
                rung.vsm_fp = doc
                    .get("vsm_fp")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned();
                rung.model_fp = doc
                    .get("model")
                    .and_then(Value::as_doc)
                    .and_then(|m| m.get("fingerprint"))
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned();
            }
            other => return Err(format!("{name}: seal answered {}", other.kind())),
        }
        rung.session_ms = ms(opened.elapsed());
        Ok(rung)
    }
}

/// Per-round fsync durations through the store's commit-observer hook.
#[derive(Debug, Default)]
struct FsyncLog {
    rounds: Mutex<Vec<f64>>,
}

impl CommitObserver for FsyncLog {
    fn on_commit_round(
        &self,
        role: CommitRole,
        _batch: u64,
        _wait: Duration,
        fsync: Duration,
        _durable: bool,
    ) {
        if role == CommitRole::Leader {
            self.rounds.lock().expect("fsync log lock").push(ms(fsync));
        }
    }
}

/// A cold in-process engine fed the same records in the same batches:
/// the oracle for a stream's final fingerprints. With a tracer, each
/// batch is a span classified as a fold or a window close.
struct Replay {
    vsm_fp: String,
    model_fp: String,
    wall_ms: f64,
    fold_ns: u64,
    fold_records: usize,
    close_ns: u64,
    windows: u64,
    refits: u64,
}

fn replay(
    node: &Node,
    name: &str,
    records: &[ExamRecord],
    t: &mut Tracer,
) -> Result<Replay, String> {
    let mut engine = StreamEngine::new(node.spec.to_config(name));
    let (mut fold_ns, mut fold_records, mut close_ns) = (0u64, 0usize, 0u64);
    let started = Instant::now();
    for chunk in records.chunks(BATCH) {
        let before = engine.windows_closed();
        let t0 = Instant::now();
        t.span("stream.StreamEngine::ingest", |_| engine.ingest(chunk))
            .map_err(|e| format!("{name}: reference ingest failed: {e}"))?;
        let took = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if engine.windows_closed() > before {
            close_ns += took;
        } else {
            fold_ns += took;
            fold_records += chunk.len();
        }
    }
    t.span("stream.StreamEngine::seal", |_| engine.seal())
        .map_err(|e| format!("{name}: reference seal failed: {e}"))?;
    Ok(Replay {
        vsm_fp: format_fp(engine.vsm_fingerprint()),
        model_fp: engine
            .model_fingerprint()
            .map(format_fp)
            .unwrap_or_default(),
        wall_ms: ms(started.elapsed()),
        fold_ns,
        fold_records,
        close_ns,
        windows: engine.windows_closed(),
        refits: engine.refits(),
    })
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let root = args
        .out_dir
        .join(format!("feed-{}-{}", args.seed, std::process::id()));
    let mut generate_ms = Vec::new();
    let node = repeated_setup(
        out,
        |rep| {
            let node = start(args, &root.join(format!("rep{rep}")))?;
            generate_ms.push(node.generate_ms);
            Ok(node)
        },
        stop,
    )?;
    let result = measure(args, &node, &generate_ms, out);
    stop(node);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn measure(args: &Args, node: &Node, generate_ms: &[f64], out: &mut Outcome) -> Result<(), String> {
    let fsyncs = Arc::new(FsyncLog::default());
    if args.trace {
        node.kdb
            .set_commit_observer(Some(Arc::clone(&fsyncs) as Arc<dyn CommitObserver>));
    }
    let commits_before = node.kdb.group_commit_stats();
    let mut client = connect(node)?;
    let mut producer = Producer {
        sized: args.trace,
        ..Producer::default()
    };
    let budget_s = args.seconds / args.feed_ladder.len() as f64;
    let (&overload, paced) = args
        .feed_ladder
        .split_last()
        .expect("the ladder holds an overload rate");
    let mut rungs = Vec::new();
    for &rate in paced {
        let n = ((rate * budget_s) as usize).clamp(BATCH, node.feed.len());
        let name = format!("feed-{}-{rate}", args.seed);
        let rung = producer.stream(&mut client, node, &name, &node.feed[..n], Some(rate))?;
        rungs.push((rate, name, rung));
    }
    for pass in 0..OVERLOAD_PASSES {
        let name = format!("feed-{}-{overload}-pass{pass}", args.seed);
        let rung = producer.stream(&mut client, node, &name, &node.feed, Some(overload))?;
        rungs.push((overload, name, rung));
    }
    node.kdb.set_commit_observer(None);
    let commits = node.kdb.group_commit_stats();

    // The read phase: the hospital's dashboard queries the sealed
    // streams, round robin.
    let mut read_ms = Vec::with_capacity(READS);
    for i in 0..READS {
        let (.., name, _) = &rungs[i % rungs.len()];
        let t = Instant::now();
        match producer.call(
            &mut client,
            &Request::StreamQuery {
                stream: name.clone(),
            },
        ) {
            Ok(Response::StreamState { .. }) => {
                read_ms.push(ms(t.elapsed()));
                out.ok();
            }
            other => out.fail(format!("{name}: stream query answered {other:?}")),
        }
    }
    drop(client);

    // Oracle: each stream's final fingerprints equal a cold in-process
    // engine over the same records (one replay per distinct feed). The
    // traced run times the reference rung's replay batch by batch.
    let epoch = Instant::now();
    let mut tracer = Tracer::new(args.trace, epoch);
    let mut decomposition = None;
    let mut references: BTreeMap<usize, Replay> = BTreeMap::new();
    for (rate, name, rung) in &mut rungs {
        out.attempted += rung.attempted;
        out.failed += rung.failed;
        out.problems.append(&mut rung.problems);
        let records = &node.feed[..rung.records];
        let reference = match references.entry(rung.records) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                e.insert(replay(node, name, records, &mut Tracer::new(false, epoch))?)
            }
        };
        out.ok();
        if (reference.vsm_fp.as_str(), reference.model_fp.as_str())
            != (rung.vsm_fp.as_str(), rung.model_fp.as_str())
        {
            out.mismatch(format!(
                "{name}: stream fingerprints vsm {} model {} differ from the cold reference's vsm {} model {}",
                rung.vsm_fp, rung.model_fp, reference.vsm_fp, reference.model_fp
            ));
        }
        out.digests.push(format!(
            "{name}:{}",
            digest(&format!("{}/{}", rung.vsm_fp, rung.model_fp))
        ));
        if args.trace && *rate == REFERENCE_RPS {
            tracer.set_op(1);
            let traced = replay(node, name, records, &mut tracer)?;
            decomposition = Some((reference.wall_ms, traced));
        }
    }

    let reference = rungs
        .iter()
        .find(|(rate, ..)| *rate == REFERENCE_RPS)
        .map(|(.., rung)| rung)
        .expect("the reference rate is a ladder rate");
    let sustained = |r: &Rung| {
        !r.ack_ms.is_empty()
            && r.failed == 0
            && stats::Summary::of(&r.ack_ms).tail <= ACK_LIMIT_MS
            && r.final_lateness_ms <= ACK_LIMIT_MS
    };
    let overloaded: Vec<&Rung> = rungs
        .iter()
        .filter(|(rate, ..)| *rate == overload)
        .map(|(.., r)| r)
        .collect();
    // A node that keeps up with the top rate caps the capacity figure
    // at it; that is a finding about the ladder, not a failed operation.
    if overloaded.iter().any(|r| sustained(r)) {
        out.note(
            "warning",
            format!(
                "the node kept up with the overload rate {overload}: raise the ladder's top rate"
            ),
        );
    }
    if !args.trace {
        // Capacity: records acked per second while the producer offers
        // more than the node takes; a pass is one session.
        let records: usize = overloaded.iter().map(|r| r.records).sum();
        let ingest_s: f64 = overloaded
            .iter()
            .map(|r| r.records as f64 / r.acked_rps)
            .sum();
        out.set("max_sustained_rps", records as f64 / ingest_s);
        out.samples
            .insert("max_sustained_rps", format!("{} passes", overloaded.len()));
        out.latency("ingest_ack_ms.p50", "ingest_ack_ms.p99", &reference.ack_ms);
        let sessions: Vec<f64> = overloaded.iter().map(|r| r.session_ms).collect();
        out.set("session_s.p50", stats::median(&sessions) / 1e3);
        out.samples
            .insert("session_s.p50", format!("n={}", sessions.len()));
        out.latency("clinic_session_ms.p50", "clinic_session_ms.p99", &sessions);
        out.set(
            "clinic_sessions_per_s",
            sessions.len() as f64 / (sessions.iter().sum::<f64>() / 1e3),
        );
        out.latency("read_ms.p50", "read_ms.p99", &read_ms);
        out.set("peak_rss_mb", env::peak_rss_mb());
        let within = rungs
            .iter()
            .filter(|(rate, _, r)| *rate != overload && sustained(r))
            .map(|(rate, ..)| *rate)
            .fold(0.0, f64::max);
        out.note("highest paced rate within the ack limit", within);
        for (rate, name, r) in &rungs {
            let tail = if r.ack_ms.is_empty() {
                f64::NAN
            } else {
                stats::Summary::of(&r.ack_ms).tail
            };
            out.note(
                name.clone(),
                format!(
                    "offered {rate}, acked {:.0} records/s, ack tail {tail:.3} ms, final lateness {:.3} ms, {} records",
                    r.acked_rps, r.final_lateness_ms, r.records
                ),
            );
        }
        return Ok(());
    }

    for kind in catalog::NET_KINDS {
        let rtt: Vec<f64> = producer
            .rtt
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|r| r.1)
            .collect();
        let bytes: Vec<f64> = producer
            .bytes
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|r| r.1)
            .collect();
        if let (Some(r), Some(b)) = (catalog::rtt_name(kind), catalog::bytes_name(kind)) {
            out.set(
                r,
                if rtt.is_empty() {
                    0.0
                } else {
                    stats::median(&rtt)
                },
            );
            out.set(b, stats::mean(&bytes));
        }
    }
    let net = node.server.metrics();
    out.set("net.server_ms.p50", ms(net.request_latency_p50));
    out.set("net.server_ms.p99", ms(net.request_latency_p99));
    out.set("net.busy_retries", producer.busy as f64);
    out.set(
        "stream.busy_ratio",
        producer.busy as f64 / producer.ingest_attempts.max(1) as f64,
    );
    let rounds = commits.commits - commits_before.commits;
    let ops = commits.ops - commits_before.ops;
    out.set("kdb.commit_rounds", rounds as f64);
    out.set(
        "kdb.ops_per_commit",
        if rounds == 0 {
            0.0
        } else {
            ops as f64 / rounds as f64
        },
    );
    out.set(
        "kdb.ops_per_session",
        (commits.acked_ops - commits_before.acked_ops) as f64 / rungs.len() as f64,
    );
    let fsync = fsyncs.rounds.lock().expect("fsync log lock").clone();
    out.latency("kdb.fsync_ms.p50", "kdb.fsync_ms.p99", &fsync);
    let expo: Vec<(f64, usize)> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let text = node.service.snapshot_prometheus();
            (ms(t.elapsed()), text.len())
        })
        .collect();
    out.set(
        "obs.exposition_ms",
        stats::median(&expo.iter().map(|e| e.0).collect::<Vec<_>>()),
    );
    out.set("obs.exposition_bytes", expo[0].1 as f64);
    out.set("dataset.generate_ms", stats::mean(generate_ms));
    out.set(
        "service.queue_wait_ms",
        ms(node.service.metrics().queue_wait.mean),
    );
    out.set(
        "service.busy_rejects",
        node.service.metrics().rejected as f64,
    );
    if let Some((plain_ms, traced)) = decomposition {
        out.set(
            "stream.fold_us_per_record",
            traced.fold_ns as f64 / 1e3 / traced.fold_records.max(1) as f64,
        );
        out.set(
            "stream.close_ms",
            traced.close_ns as f64 / 1e6 / traced.windows.max(1) as f64,
        );
        out.set("stream.windows_closed", traced.windows as f64);
        out.set("stream.refits", traced.refits as f64);
        out.note("trace.untraced_session_ms", format!("{plain_ms:.3}"));
        out.note("trace.traced_session_ms", format!("{:.3}", traced.wall_ms));
        out.note(
            "trace.overhead_ms",
            format!("{:.3}", traced.wall_ms - plain_ms),
        );
    }
    out.spans = tracer.spans().to_vec();
    Ok(())
}
