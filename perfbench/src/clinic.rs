//! `clinic_mix`: many clinicians on a replicated deployment, as a
//! closed loop of two clients over ADAN1 loopback.
//!
//! A `FleetNode` primary over a journaled K-DB under
//! `DurabilityPolicy::Always` ships its journal to a warm-standby
//! follower. Each client submits a small wire session (alternating the
//! `Quick` and `Signals` presets over distinct seeded cohorts of the
//! `CohortSpec::small` shape), polls `Status` until it is terminal,
//! fetches `Results` from the primary, then issues the fixed read mix:
//! `Status` on the primary (a session's live state exists only on the
//! node running it), `MetricsSnapshot` and `PastSessions` on the member
//! `Router::route_read` picks.
//!
//! The run is a sequence of shifts of [`SHIFT_SESSIONS`] sessions, each
//! on a freshly started deployment: the service keeps every finished
//! session's state (about half a megabyte each) and the metrics and
//! past-session reads scan the whole history, so one unbroken run would
//! make memory and read cost grow with throughput.
//!
//! Cohorts are small and most requests are reads, so K-DB group-commit
//! rounds, wire framing, service queueing, exposition, journal shipping
//! and cohort generation on the server's connection thread dominate;
//! mining is a small share.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use ada_fleet::{FleetNode, Role, Router};
use ada_kdb::{
    CommitObserver, CommitRole, DurabilityPolicy, MemStorage, SharedKdb, StoreOptions, Value,
};
use ada_net::proto::{CohortSpec, Preset, Request, Response, WireJobSpec};
use ada_net::{frame_bytes, Client, NetConfig, NetMetricsSnapshot};
use ada_obs::{FleetMetrics, ReplMetrics};
use ada_service::{AnalysisService, ServiceConfig};

use crate::trace::Tracer;
use crate::{catalog, derive_seed, digest, env, ms, repeated_setup, stats, Args, Outcome};

/// Read kinds the `--clinic-reads` mix may name.
pub const READ_KINDS: [&str; 3] = ["status", "metrics", "past_sessions"];

/// Client threads (closed loop, one session in flight each).
pub const CLIENTS: usize = 2;

/// `Busy` replies retried per request before it counts as failed.
const BUSY_BUDGET: u32 = 8;

/// Sessions per shift. Each shift runs on a freshly started deployment,
/// so the history every `MetricsSnapshot` and `PastSessions` scans, and
/// the memory the service keeps per finished session, stay the same
/// size whatever the throughput.
pub const SHIFT_SESSIONS: u64 = 100;

/// Deadline for one session to reach a terminal state.
const SESSION_DEADLINE: Duration = Duration::from_secs(60);

/// `Status` poll interval while a session runs. `Client::wait_terminal`
/// polls every 20 ms: a session of a few milliseconds then reads as
/// either one round trip or a full 20 ms poll, and the median flips
/// between the two from run to run.
const WAIT_POLL: Duration = Duration::from_millis(2);

/// The replicated deployment under test.
struct Deployment {
    primary: FleetNode,
    standby: FleetNode,
    primary_kdb: SharedKdb,
    standby_kdb: SharedKdb,
    router: Router,
    dir: PathBuf,
}

/// A journaled store under `Always` whose journal lives in memory: every
/// op still goes through journal framing and group-commit fsync rounds,
/// and the journal still ships, but a round does not wait on the disk.
/// On the virtual disk the benchmark runs on, fsync latency swings two-
/// to threefold from one minute to the next, which would drown every
/// other layer in this fsync-per-op workload; `hospital_feed` keeps a
/// file journal, so real fsync is measured there.
fn open_store(path: &Path) -> Result<SharedKdb, String> {
    let options = StoreOptions::with_storage(Arc::new(MemStorage::new()))
        .durability(DurabilityPolicy::Always);
    SharedKdb::open_with(path, options).map_err(|e| format!("cannot open {}: {e}", path.display()))
}

fn start(dir: &Path) -> Result<Deployment, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let primary_kdb = open_store(&dir.join("primary.journal"))?;
    let standby_kdb = open_store(&dir.join("standby.journal"))?;
    let config = ServiceConfig {
        workers: CLIENTS,
        durability: Some(DurabilityPolicy::Always),
        ..ServiceConfig::default()
    };
    let primary = FleetNode::start_primary(
        "primary",
        config.clone(),
        primary_kdb.clone(),
        NetConfig::default(),
    )
    .map_err(|e| format!("primary failed to start: {e}"))?;
    let repl = primary
        .repl_addr()
        .ok_or("primary has no replication endpoint")?;
    let standby = FleetNode::start_follower(
        "standby",
        config,
        standby_kdb.clone(),
        NetConfig::default(),
        repl,
    )
    .map_err(|e| format!("standby failed to start: {e}"))?;
    let router = Router::new(
        vec![
            ("primary".into(), Role::Primary),
            ("standby".into(), Role::Follower),
        ],
        Arc::new(FleetMetrics::new()),
    );
    Ok(Deployment {
        primary,
        standby,
        primary_kdb,
        standby_kdb,
        router,
        dir: dir.to_owned(),
    })
}

/// Stops both nodes and deletes their journals; returns the primary's
/// final wire counters.
fn stop(d: Deployment) -> NetMetricsSnapshot {
    d.standby.shutdown();
    let net = d.primary.shutdown();
    drop((d.primary_kdb, d.standby_kdb));
    let _ = std::fs::remove_dir_all(&d.dir);
    net
}

/// One client's two connections: the primary and the standby.
struct Conns {
    primary: Client,
    standby: Client,
}

impl Conns {
    fn open(d: &Deployment) -> Result<Self, String> {
        let connect = |node: &FleetNode| {
            Client::connect(node.client_addr())
                .map(Client::without_busy_retry)
                .map_err(|e| format!("cannot connect to {}: {e}", node.name()))
        };
        Ok(Self {
            primary: connect(&d.primary)?,
            standby: connect(&d.standby)?,
        })
    }

    fn to(&mut self, member: &str) -> &mut Client {
        if member == "primary" {
            &mut self.primary
        } else {
            &mut self.standby
        }
    }
}

/// What the traced run samples between operations.
struct Probe {
    service: Arc<AnalysisService>,
    primary_kdb: SharedKdb,
    standby_repl: Arc<ReplMetrics>,
    epoch: Instant,
    /// `(ms since epoch, primary acked ops, standby acked ops)`.
    repl: Mutex<Vec<(f64, u64, u64)>>,
}

impl Probe {
    fn sample(&self) {
        let primary = self.primary_kdb.journal_acked_ops();
        let standby = self.standby_repl.snapshot().follower_acked;
        let at = ms(self.epoch.elapsed());
        self.repl
            .lock()
            .expect("probe lock")
            .push((at, primary, standby));
    }
}

/// Per-round fsync durations, collected through the store's public
/// commit-observer hook.
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

/// One client's measurements.
#[derive(Default)]
struct ClientLog {
    out: Outcome,
    terminal_ms: Vec<f64>,
    session_ms: Vec<f64>,
    /// Session times of the untraced warm phase of a traced run.
    plain_session_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    read_ms: Vec<f64>,
    records: usize,
    sessions: usize,
    busy_retries: u64,
    rtt: Vec<(&'static str, f64)>,
    bytes: Vec<(&'static str, f64)>,
    generate_ms: Vec<f64>,
    signals_ms: Vec<f64>,
    signals_tables: Vec<f64>,
    exposition: Vec<(f64, usize)>,
    scan_ms: Vec<f64>,
    spans: Option<Tracer>,
}

impl ClientLog {
    /// One request with `Busy` retried after its hint; times the
    /// successful exchange (and sizes it in a traced run).
    fn call(
        &mut self,
        client: &mut Client,
        request: Request,
        traced: bool,
    ) -> Result<Response, String> {
        let kind = request.kind();
        for _ in 0..=BUSY_BUDGET {
            let started = Instant::now();
            let response = client
                .call(request.clone())
                .map_err(|e| format!("{kind}: {e}"))?;
            let took = ms(started.elapsed());
            if let Response::Busy { retry_after } = response {
                self.busy_retries += 1;
                std::thread::sleep(retry_after.min(Duration::from_secs(1)));
                continue;
            }
            self.rtt.push((kind, took));
            if traced {
                let size = frame_bytes(&request.encode(1), 0).len()
                    + frame_bytes(&response.encode(1), 0).len();
                self.bytes.push((kind, size as f64));
                if let Some(t) = self.spans.as_mut() {
                    let end = Instant::now();
                    t.record(
                        &format!("net.{kind}"),
                        end - Duration::from_secs_f64(took / 1e3),
                        end,
                        None,
                    );
                }
            }
            return Ok(response);
        }
        Err(format!("{kind}: busy past the retry budget"))
    }
}

struct Shared<'a> {
    args: &'a Args,
    deployment: &'a Deployment,
    probe: Option<&'a Probe>,
    start: &'a Barrier,
    /// Session tickets handed out in this shift.
    tickets: &'a AtomicU64,
    /// The shift's first ticket.
    first_ticket: u64,
    /// A traced run measures untraced until this instant, then traced.
    traced_from: Option<Instant>,
}

/// The wire spec of session `ticket`: its cohort, seed and preset
/// depend only on the workload seed and the ticket, never on which
/// client runs it.
fn spec(seed: u64, ticket: u64) -> WireJobSpec {
    let mut spec = WireJobSpec::quick(
        format!("clinic-{seed}-{ticket}"),
        CohortSpec::small(derive_seed(seed, ticket)),
    );
    spec.seed = derive_seed(seed ^ 0x5eed, ticket);
    if ticket % 2 == 1 {
        spec.preset = Preset::Signals;
    }
    spec
}

/// One clinician session: submit, wait, results, then the read mix.
fn session(shared: &Shared<'_>, conns: &mut Conns, log: &mut ClientLog, ticket: u64, traced: bool) {
    let spec = spec(shared.args.seed, ticket);
    let name = spec.session.clone();
    let preset = spec.preset;
    let records = spec.cohort.records;
    if traced {
        let t = Instant::now();
        std::hint::black_box(spec.materialize());
        log.generate_ms.push(ms(t.elapsed()));
    }
    let due = Instant::now();
    let id = match log.call(&mut conns.primary, Request::Submit(spec), traced) {
        Ok(Response::Submitted { session }) => {
            log.ack_ms.push(ms(due.elapsed()));
            log.out.ok();
            session
        }
        Ok(other) => {
            return log
                .out
                .fail(format!("{name}: submit answered {}", other.kind()))
        }
        Err(e) => return log.out.fail(format!("{name}: {e}")),
    };
    loop {
        match log.call(&mut conns.primary, Request::Status { session: id }, traced) {
            Ok(Response::State { state, .. }) if state == "completed" => {
                log.out.ok();
                break;
            }
            Ok(Response::State { state, reason, .. })
                if matches!(state.as_str(), "failed" | "cancelled") =>
            {
                return log.out.fail(format!("{name}: ended {state}: {reason}"));
            }
            Ok(Response::State { .. }) if due.elapsed() < SESSION_DEADLINE => log.out.ok(),
            Ok(other) => return log.out.fail(format!("{name}: status answered {other:?}")),
            Err(e) => return log.out.fail(format!("{name}: {e}")),
        }
        std::thread::sleep(WAIT_POLL);
    }
    let terminal_ms = ms(due.elapsed());
    let summary = match log.call(&mut conns.primary, Request::Results { session: id }, traced) {
        Ok(Response::ResultSummary { state, summary, .. })
            if state == "completed" && !summary.is_empty() =>
        {
            log.out.ok();
            summary
        }
        Ok(other) => return log.out.fail(format!("{name}: results answered {other:?}")),
        Err(e) => return log.out.fail(format!("{name}: {e}")),
    };
    let session_ms = ms(due.elapsed());
    log.out
        .digests
        .push(format!("{name}:{}", digest(&format!("{summary:?}"))));
    log.records += records;
    log.sessions += 1;
    if shared.traced_from.is_some() && !traced {
        log.plain_session_ms.push(session_ms);
    } else {
        log.terminal_ms.push(terminal_ms);
        log.session_ms.push(session_ms);
    }
    if traced && preset == Preset::Signals {
        log.signals_ms.push(session_ms);
        let tables = summary
            .get("tables_built")
            .and_then(Value::as_i64)
            .unwrap_or(0);
        log.signals_tables.push(tables as f64);
    }
    for (kind, rate) in &shared.args.clinic_reads {
        // Session `ticket` issues the reads its share of the rate brings.
        let due = ((ticket + 1) as f64 * rate).floor() - (ticket as f64 * rate).floor();
        for _ in 0..due as usize {
            read(shared, conns, log, kind, &name, id, traced);
        }
    }
    if let Some(probe) = shared.probe.filter(|_| traced) {
        probe.sample();
        let t = Instant::now();
        let text = probe.service.snapshot_prometheus();
        log.exposition.push((ms(t.elapsed()), text.len()));
        let t = Instant::now();
        let snapshot = probe.primary_kdb.read();
        let docs = snapshot
            .collection(ada_kdb::schema::names::SESSIONS)
            .map_or(0, |c| c.iter().count());
        std::hint::black_box(docs);
        log.scan_ms.push(ms(t.elapsed()));
    }
}

fn read(
    shared: &Shared<'_>,
    conns: &mut Conns,
    log: &mut ClientLog,
    kind: &str,
    name: &str,
    id: u64,
    traced: bool,
) {
    let (member, request) = match kind {
        "status" => ("primary".to_owned(), Request::Status { session: id }),
        _ => {
            let member = shared
                .deployment
                .router
                .route_read(name)
                .unwrap_or_else(|| "primary".into());
            let request = if kind == "metrics" {
                Request::MetricsSnapshot
            } else {
                Request::PastSessions
            };
            (member, request)
        }
    };
    let started = Instant::now();
    let result = log.call(conns.to(&member), request, traced);
    let took = ms(started.elapsed());
    match result {
        Ok(Response::State { .. } | Response::Metrics { .. } | Response::PastSessions { .. }) => {
            log.read_ms.push(took);
            log.out.ok();
        }
        Ok(other) => log
            .out
            .fail(format!("{kind} read on {member} answered {}", other.kind())),
        Err(e) => log.out.fail(format!("{kind} read on {member}: {e}")),
    }
}

/// One client's closed loop over the shift's tickets until they run out
/// or `end` passes.
fn client(shared: &Shared<'_>, c: usize, end: Instant, epoch: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conns = match Conns::open(shared.deployment) {
        Ok(c) => c,
        Err(e) => {
            log.out.fail(e);
            shared.start.wait();
            return log;
        }
    };
    if shared.traced_from.is_some() {
        log.spans = Some(Tracer::new(true, epoch));
    }
    shared.start.wait();
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let taken = shared.tickets.fetch_add(1, Ordering::Relaxed);
        if taken >= SHIFT_SESSIONS {
            break;
        }
        let ticket = shared.first_ticket + taken;
        let traced = shared.traced_from.is_some_and(|from| now >= from);
        if let Some(t) = log.spans.as_mut() {
            t.set_op(((c as u64) << 32) | ticket);
        }
        session(shared, &mut conns, &mut log, ticket, traced);
    }
    log
}

/// Warms one deployment: a session of each preset and one pass of the
/// read mix, on tickets no measured session uses.
fn warm_up(d: &Deployment, args: &Args) -> Result<(), String> {
    let barrier = Barrier::new(1);
    let tickets = AtomicU64::new(0);
    let shared = Shared {
        args,
        deployment: d,
        probe: None,
        start: &barrier,
        tickets: &tickets,
        first_ticket: 0,
        traced_from: None,
    };
    let mut conns = Conns::open(d)?;
    let mut log = ClientLog::default();
    for ticket in [u64::MAX - 1, u64::MAX] {
        session(&shared, &mut conns, &mut log, ticket, false);
    }
    match log.out.problems.first() {
        Some(p) => Err(format!("warm-up failed: {p}")),
        None => Ok(()),
    }
}

/// Waits for the standby to ack the primary's whole journal, then
/// compares the two stores' fingerprints.
fn drain_check(d: &Deployment, out: &mut Outcome) {
    if let Err(e) = d.primary_kdb.sync() {
        return out.fail(format!("primary fsync failed: {e}"));
    }
    let want = d.primary_kdb.journal_acked_ops();
    let deadline = Instant::now() + Duration::from_secs(60);
    while d.standby.acked_ops() < want {
        if Instant::now() >= deadline {
            return out.fail(format!(
                "standby acked {} of {want} ops",
                d.standby.acked_ops()
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let (p, s) = (
        d.primary_kdb.read().fingerprint(),
        d.standby_kdb.read().fingerprint(),
    );
    if p == s {
        out.ok();
    } else {
        out.fail(format!(
            "standby fingerprint {s:016x} differs from the primary's {p:016x}"
        ));
    }
}

/// Counters summed over shifts.
#[derive(Default)]
struct Totals {
    commits: u64,
    commit_ops: u64,
    acked_ops: u64,
    frames_shipped: u64,
    bytes_shipped: u64,
    rejects: u64,
    busy_rejects: u64,
    queue_wait_ms: Vec<f64>,
    server_p50_ms: Vec<f64>,
    server_p99_ms: Vec<f64>,
    repl_lag_ms: Vec<f64>,
    fsync_ms: Vec<f64>,
}

/// Runs the workload: shifts of [`SHIFT_SESSIONS`] sessions, each on a
/// freshly started deployment, until `--seconds` of shift time have
/// passed.
///
/// # Errors
/// Set-up failures.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let root = args
        .out_dir
        .join(format!("clinic-{}-{}", args.seed, std::process::id()));
    let deploy = |name: String| -> Result<Deployment, String> {
        let d = start(&root.join(name))?;
        warm_up(&d, args)?;
        Ok(d)
    };
    let first = repeated_setup(out, |rep| deploy(format!("setup{rep}")), |d| drop(stop(d)))?;

    let epoch = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    // A traced run spends its first third untraced, so the traced minus
    // untraced session time is the tracing overhead.
    let untraced_part = budget / 3;
    let mut measured = Duration::ZERO;
    let mut totals = Totals::default();
    let mut logs = Vec::new();
    let mut deployment = Some(first);
    for shift in 0u64.. {
        let d = match deployment.take() {
            Some(d) => d,
            None => deploy(format!("shift{shift}"))?,
        };
        let began = Instant::now();
        let traced_from = args
            .trace
            .then(|| began + untraced_part.saturating_sub(measured));
        logs.extend(run_shift(
            args,
            &d,
            shift * SHIFT_SESSIONS,
            began + (budget - measured),
            traced_from,
            epoch,
            &mut totals,
        ));
        measured += began.elapsed();
        drain_check(&d, out);
        let net = stop(d);
        if net.protocol_errors != 0 {
            out.fail(format!(
                "{} protocol errors on the primary's wire",
                net.protocol_errors
            ));
        }
        totals.server_p50_ms.push(ms(net.request_latency_p50));
        totals.server_p99_ms.push(ms(net.request_latency_p99));
        if measured >= budget {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    report(args, out, logs, &totals, measured.as_secs_f64(), epoch);
    Ok(())
}

/// One shift: both clients run until the shift's tickets are spent or
/// `end` passes; the deployment's counters are added to `totals`.
fn run_shift(
    args: &Args,
    d: &Deployment,
    first_ticket: u64,
    end: Instant,
    traced_from: Option<Instant>,
    epoch: Instant,
    totals: &mut Totals,
) -> Vec<ClientLog> {
    let fsyncs = Arc::new(FsyncLog::default());
    let probe = Probe {
        service: Arc::clone(d.primary.service()),
        primary_kdb: d.primary_kdb.clone(),
        standby_repl: d.standby.repl_metrics(),
        epoch,
        repl: Mutex::new(Vec::new()),
    };
    if args.trace {
        d.primary_kdb
            .set_commit_observer(Some(Arc::clone(&fsyncs) as Arc<dyn CommitObserver>));
    }
    let commits_before = d.primary_kdb.group_commit_stats();
    let shipped_before = d.primary.repl_metrics().snapshot();
    let barrier = Barrier::new(CLIENTS + 1);
    let tickets = AtomicU64::new(0);
    let shared = Shared {
        args,
        deployment: d,
        probe: args.trace.then_some(&probe),
        start: &barrier,
        tickets: &tickets,
        first_ticket,
        traced_from,
    };
    let logs = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(shared, c, end, epoch)))
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    d.primary_kdb.set_commit_observer(None);
    let commits = d.primary_kdb.group_commit_stats();
    let shipped = d.primary.repl_metrics().snapshot();
    totals.commits += commits.commits - commits_before.commits;
    totals.commit_ops += commits.ops - commits_before.ops;
    totals.acked_ops += commits.acked_ops - commits_before.acked_ops;
    totals.frames_shipped += shipped.frames_shipped - shipped_before.frames_shipped;
    totals.bytes_shipped += shipped.bytes_shipped - shipped_before.bytes_shipped;
    totals.rejects += d.standby.repl_metrics().snapshot().rejects_total();
    let metrics = d.primary.service().metrics();
    totals.busy_rejects += metrics.rejected;
    totals.queue_wait_ms.push(ms(metrics.queue_wait.mean));
    totals
        .repl_lag_ms
        .extend(repl_lags(&probe.repl.lock().expect("probe lock")));
    totals
        .fsync_ms
        .extend(fsyncs.rounds.lock().expect("fsync log lock").iter());
    logs
}

fn report(
    args: &Args,
    out: &mut Outcome,
    logs: Vec<ClientLog>,
    totals: &Totals,
    window_s: f64,
    epoch: Instant,
) {
    let mut all = ClientLog::default();
    let mut tracer = Tracer::new(args.trace, epoch);
    for log in logs {
        let o = log.out;
        out.attempted += o.attempted;
        out.failed += o.failed;
        out.problems.extend(o.problems);
        out.digests.extend(o.digests);
        all.terminal_ms.extend(log.terminal_ms);
        all.session_ms.extend(log.session_ms);
        all.plain_session_ms.extend(log.plain_session_ms);
        all.ack_ms.extend(log.ack_ms);
        all.read_ms.extend(log.read_ms);
        all.records += log.records;
        all.sessions += log.sessions;
        all.busy_retries += log.busy_retries;
        all.rtt.extend(log.rtt);
        all.bytes.extend(log.bytes);
        all.generate_ms.extend(log.generate_ms);
        all.signals_ms.extend(log.signals_ms);
        all.signals_tables.extend(log.signals_tables);
        all.exposition.extend(log.exposition);
        all.scan_ms.extend(log.scan_ms);
        if let Some(t) = log.spans {
            tracer.absorb(t, None);
        }
    }
    out.digests.sort();
    out.note("sessions", all.sessions);
    if all.session_ms.is_empty() {
        return;
    }
    if !args.trace {
        out.set("session_s.p50", stats::median(&all.terminal_ms) / 1e3);
        out.samples
            .insert("session_s.p50", format!("n={}", all.terminal_ms.len()));
        out.latency(
            "clinic_session_ms.p50",
            "clinic_session_ms.p99",
            &all.session_ms,
        );
        out.set("clinic_sessions_per_s", all.sessions as f64 / window_s);
        out.latency("read_ms.p50", "read_ms.p99", &all.read_ms);
        out.set("max_sustained_rps", all.records as f64 / window_s);
        out.latency("ingest_ack_ms.p50", "ingest_ack_ms.p99", &all.ack_ms);
        out.set("peak_rss_mb", env::peak_rss_mb());
        return;
    }
    for kind in catalog::NET_KINDS {
        let rtt: Vec<f64> = all
            .rtt
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|r| r.1)
            .collect();
        let bytes: Vec<f64> = all
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
    out.set("net.busy_retries", all.busy_retries as f64);
    out.set("net.server_ms.p50", stats::median(&totals.server_p50_ms));
    out.set("net.server_ms.p99", stats::median(&totals.server_p99_ms));
    out.set("dataset.generate_ms", stats::mean(&all.generate_ms));
    out.set("signals.session_ms", stats::mean(&all.signals_ms));
    out.set("signals.tables", stats::mean(&all.signals_tables));
    out.set("kdb.commit_rounds", totals.commits as f64);
    out.set(
        "kdb.ops_per_commit",
        if totals.commits == 0 {
            0.0
        } else {
            totals.commit_ops as f64 / totals.commits as f64
        },
    );
    out.set(
        "kdb.ops_per_session",
        totals.acked_ops as f64 / all.sessions as f64,
    );
    out.latency("kdb.fsync_ms.p50", "kdb.fsync_ms.p99", &totals.fsync_ms);
    out.set("kdb.read_scan_ms", stats::median(&all.scan_ms));
    out.set("service.queue_wait_ms", stats::mean(&totals.queue_wait_ms));
    out.set("service.busy_rejects", totals.busy_rejects as f64);
    let expo_ms: Vec<f64> = all.exposition.iter().map(|e| e.0).collect();
    out.set("obs.exposition_ms", stats::median(&expo_ms));
    out.set(
        "obs.exposition_bytes",
        stats::mean(
            &all.exposition
                .iter()
                .map(|e| e.1 as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.latency(
        "fleet.repl_lag_ms.p50",
        "fleet.repl_lag_ms.p99",
        &totals.repl_lag_ms,
    );
    out.set("fleet.frames_shipped", totals.frames_shipped as f64);
    out.set("fleet.bytes_shipped", totals.bytes_shipped as f64);
    out.set("fleet.rejects", totals.rejects as f64);
    let traced = stats::median(&all.session_ms);
    let plain = if all.plain_session_ms.is_empty() {
        traced
    } else {
        stats::median(&all.plain_session_ms)
    };
    out.note("trace.untraced_session_ms", format!("{plain:.3}"));
    out.note("trace.traced_session_ms", format!("{traced:.3}"));
    out.note("trace.overhead_ms", format!("{:.3}", traced - plain));
    out.spans = tracer.spans().to_vec();
}

/// Replication lag per sample: the time from a sample's primary acked
/// watermark to the first later sample whose standby watermark reaches
/// it.
fn repl_lags(samples: &[(f64, u64, u64)]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut lags = Vec::new();
    let mut j = 0;
    for i in 0..s.len() {
        j = j.max(i);
        while j < s.len() && s[j].2 < s[i].1 {
            j += 1;
        }
        if j < s.len() {
            lags.push(s[j].0 - s[i].0);
        }
    }
    lags
}
