//! The six ADA-HEALTH collections and typed access helpers.
//!
//! The paper's data model "consists of six collections, which store (1)
//! the original dataset, (2) the transformed dataset after preprocessing
//! and data transformation, (3) statistical descriptors to model the
//! data distribution, (4-5) interesting and selected knowledge items
//! discovered through different data mining algorithms, and (6) user
//! interaction feedbacks", with knowledge items enriched by a physician
//! with a degree of interestingness in {high, medium, low}.

use crate::collection::DocId;
use crate::document::{Document, Value};
use crate::error::KdbError;
use crate::sharded::KdbWrite;

/// Canonical collection names.
pub mod names {
    /// (1) The original dataset (record documents or dataset metadata).
    pub const RAW_DATA: &str = "raw_data";
    /// (2) The transformed dataset after preprocessing.
    pub const TRANSFORMED_DATA: &str = "transformed_data";
    /// (3) Statistical descriptors of the data distribution.
    pub const DESCRIPTORS: &str = "descriptors";
    /// (4) Knowledge items from clustering algorithms.
    pub const CLUSTER_KNOWLEDGE: &str = "cluster_knowledge";
    /// (5) Knowledge items from pattern-discovery algorithms.
    pub const PATTERN_KNOWLEDGE: &str = "pattern_knowledge";
    /// (6) User interaction feedbacks.
    pub const FEEDBACK: &str = "feedback";
    /// Operational: terminal analysis-session records — span tree,
    /// per-stage latency histograms, kernel counters — persisted by the
    /// flight recorder so a restarted service can answer questions
    /// about past runs. Not one of the paper's six data collections.
    pub const SESSIONS: &str = "sessions";
    /// Safety-signal knowledge items mined by `ada-signals`:
    /// disproportionality findings (2×2 contingency table, reporting
    /// odds ratio with CI, shrunken estimate, combined rank score).
    /// A seventh knowledge collection beyond the paper's six.
    pub const SIGNAL_KNOWLEDGE: &str = "signal_knowledge";
    /// Operational: persisted end-to-end request traces — one document
    /// per *sampled* terminal session, holding the full span tree
    /// (client submit → server decode → queue wait → pipeline stages →
    /// group-commit fsync rounds) in deterministic pre-order, keyed by
    /// a 128-bit wire-propagated trace id. Served remotely via the
    /// `TraceQuery` wire message.
    pub const TRACES: &str = "traces";
    /// Operational: durable streaming-ingestion checkpoints — one
    /// document per *closed* stream window, holding the window's folded
    /// records in canonical order plus the watermark, drift score and
    /// state fingerprints. A restarted ingester (or a promoted
    /// replication follower) replays this collection to rebuild its
    /// incremental VSM and model byte-identically, then resumes from
    /// the last durable watermark. Created lazily by
    /// [`init_stream_schema`](super::init_stream_schema), like
    /// [`TRACES`].
    pub const STREAM_WINDOWS: &str = "stream_windows";

    /// All six, in paper order.
    pub const ALL: [&str; 6] = [
        RAW_DATA,
        TRANSFORMED_DATA,
        DESCRIPTORS,
        CLUSTER_KNOWLEDGE,
        PATTERN_KNOWLEDGE,
        FEEDBACK,
    ];

    /// Every collection [`init_schema`](super::init_schema) manages:
    /// the paper's six plus the signal-knowledge and session-history
    /// operational collections. [`TRACES`] and [`STREAM_WINDOWS`] are
    /// deliberately absent — each is created lazily
    /// ([`init_trace_schema`](super::init_trace_schema),
    /// [`init_stream_schema`](super::init_stream_schema)) only when a
    /// writer is about to use it, so journals from services that never
    /// trace or never stream stay byte-identical to the older write
    /// paths.
    pub const ALL_WITH_OPS: [&str; 8] = [
        RAW_DATA,
        TRANSFORMED_DATA,
        DESCRIPTORS,
        CLUSTER_KNOWLEDGE,
        PATTERN_KNOWLEDGE,
        FEEDBACK,
        SIGNAL_KNOWLEDGE,
        SESSIONS,
    ];
}

/// The physician-assigned degree of interestingness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Interestingness {
    /// Low interest.
    Low,
    /// Medium interest.
    Medium,
    /// High interest.
    High,
}

impl Interestingness {
    /// Canonical string form.
    pub fn as_str(self) -> &'static str {
        match self {
            Interestingness::Low => "low",
            Interestingness::Medium => "medium",
            Interestingness::High => "high",
        }
    }

    /// Parses the canonical string form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "low" => Some(Interestingness::Low),
            "medium" => Some(Interestingness::Medium),
            "high" => Some(Interestingness::High),
            _ => None,
        }
    }

    /// A numeric score in [0, 1] (low = 0, medium = 0.5, high = 1).
    pub fn score(self) -> f64 {
        match self {
            Interestingness::Low => 0.0,
            Interestingness::Medium => 0.5,
            Interestingness::High => 1.0,
        }
    }
}

impl std::fmt::Display for Interestingness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Creates the six collections (idempotent) and the indexes the engine
/// queries against (`session` everywhere; `score` on knowledge items).
/// Generic over [`KdbWrite`], so it serves both an exclusive
/// [`Kdb`](crate::store::Kdb) and the sharded
/// [`SharedKdb`](crate::sharded::SharedKdb) facade — where the
/// ensure-style helpers make concurrent initialization race-safe (a
/// racing creator winning counts as done).
///
/// # Errors
/// Returns journal I/O errors.
pub fn init_schema<W: KdbWrite + ?Sized>(db: &mut W) -> Result<(), KdbError> {
    for name in names::ALL_WITH_OPS {
        db.ensure_collection(name)?;
    }
    for coll in [
        names::CLUSTER_KNOWLEDGE,
        names::PATTERN_KNOWLEDGE,
        names::SIGNAL_KNOWLEDGE,
    ] {
        for path in ["session", "score"] {
            db.ensure_index(coll, path)?;
        }
    }
    for coll in [names::DESCRIPTORS, names::FEEDBACK] {
        db.ensure_index(coll, "session")?;
    }
    for path in ["session", "state"] {
        db.ensure_index(names::SESSIONS, path)?;
    }
    Ok(())
}

/// Creates the `traces` collection and its `session`/`trace_id`
/// indexes (idempotent). Kept out of [`init_schema`] on purpose: the
/// trace store must only come into existence when a sampled session is
/// about to write into it, so a service running with tracing disabled
/// produces a journal byte-identical to one that predates tracing.
///
/// # Errors
/// Returns journal I/O errors.
pub fn init_trace_schema<W: KdbWrite + ?Sized>(db: &mut W) -> Result<(), KdbError> {
    db.ensure_collection(names::TRACES)?;
    for path in ["session", "trace_id"] {
        db.ensure_index(names::TRACES, path)?;
    }
    Ok(())
}

/// Creates the `stream_windows` collection and its `stream`/`window`
/// indexes (idempotent). Kept out of [`init_schema`] for the same
/// reason as [`init_trace_schema`]: the checkpoint store must only come
/// into existence when a stream is about to close its first window, so
/// a service that never ingests a stream produces a journal
/// byte-identical to one that predates streaming.
///
/// # Errors
/// Returns journal I/O errors.
pub fn init_stream_schema<W: KdbWrite + ?Sized>(db: &mut W) -> Result<(), KdbError> {
    db.ensure_collection(names::STREAM_WINDOWS)?;
    for path in ["stream", "window"] {
        db.ensure_index(names::STREAM_WINDOWS, path)?;
    }
    Ok(())
}

/// The states a persisted session record may carry (terminal states of
/// the service lifecycle).
pub const SESSION_TERMINAL_STATES: [&str; 3] = ["completed", "failed", "cancelled"];

/// Validates a session record against the `sessions` collection schema.
///
/// Required shape (see DESIGN.md §9):
///
/// * `session` — non-empty string;
/// * `state` — one of [`SESSION_TERMINAL_STATES`];
/// * `spans` — array of span documents, each with a non-empty string
///   `name`, integer `parent` (−1 for the root, otherwise the index of
///   an *earlier* span in the array), and non-negative integers
///   `start_ns` / `dur_ns`;
/// * `stages` — array of per-stage histogram documents, each with a
///   string `stage` and non-negative integers `count`, `p50_ns`,
///   `p90_ns`, `p99_ns`;
/// * `counters` — nested document whose values are all non-negative
///   integers (the kernel counters).
///
/// # Errors
/// Returns [`KdbError::Schema`] naming the first violated rule.
pub fn validate_session_doc(doc: &Document) -> Result<(), KdbError> {
    let bad = |reason: String| Err(KdbError::Schema(reason));
    match doc.get("session").and_then(Value::as_str) {
        Some(s) if !s.is_empty() => {}
        _ => return bad("sessions: `session` must be a non-empty string".into()),
    }
    match doc.get("state").and_then(Value::as_str) {
        Some(s) if SESSION_TERMINAL_STATES.contains(&s) => {}
        other => {
            return bad(format!(
                "sessions: `state` must be one of {SESSION_TERMINAL_STATES:?}, got {other:?}"
            ))
        }
    }
    validate_span_array("sessions", doc)?;
    let Some(stages) = doc.get("stages").and_then(Value::as_array) else {
        return bad("sessions: `stages` must be an array".into());
    };
    for (i, stage) in stages.iter().enumerate() {
        let Some(stage) = stage.as_doc() else {
            return bad(format!("sessions: stages[{i}] must be a document"));
        };
        if stage.get("stage").and_then(Value::as_str).is_none() {
            return bad(format!("sessions: stages[{i}].stage must be a string"));
        }
        for key in ["count", "p50_ns", "p90_ns", "p99_ns"] {
            match stage.get(key).and_then(Value::as_i64) {
                Some(v) if v >= 0 => {}
                _ => {
                    return bad(format!(
                        "sessions: stages[{i}].{key} must be a non-negative integer"
                    ))
                }
            }
        }
    }
    let Some(counters) = doc.get("counters").and_then(Value::as_doc) else {
        return bad("sessions: `counters` must be a document".into());
    };
    for (key, value) in counters.iter() {
        match value.as_i64() {
            Some(v) if v >= 0 => {}
            _ => {
                return bad(format!(
                    "sessions: counters.{key} must be a non-negative integer"
                ))
            }
        }
    }
    Ok(())
}

/// Validates a `spans` array: pre-ordered span documents whose parents
/// always point at earlier indexes (−1 for the root), with non-negative
/// timings and, optionally, an `attrs` sub-document of non-negative
/// integer attributes (batch sizes, role flags, wait/fsync splits).
/// Shared by the `sessions` and `traces` validators; `coll` labels the
/// error messages.
fn validate_span_array(coll: &str, doc: &Document) -> Result<(), KdbError> {
    let bad = |reason: String| Err(KdbError::Schema(reason));
    let Some(spans) = doc.get("spans").and_then(Value::as_array) else {
        return bad(format!("{coll}: `spans` must be an array"));
    };
    for (i, span) in spans.iter().enumerate() {
        let Some(span) = span.as_doc() else {
            return bad(format!("{coll}: spans[{i}] must be a document"));
        };
        match span.get("name").and_then(Value::as_str) {
            Some(n) if !n.is_empty() => {}
            _ => return bad(format!("{coll}: spans[{i}].name must be non-empty")),
        }
        match span.get("parent").and_then(Value::as_i64) {
            Some(-1) => {}
            Some(p) if p >= 0 && (p as usize) < i => {}
            other => {
                return bad(format!(
                    "{coll}: spans[{i}].parent must be -1 or an earlier index, got {other:?}"
                ))
            }
        }
        for key in ["start_ns", "dur_ns"] {
            match span.get(key).and_then(Value::as_i64) {
                Some(v) if v >= 0 => {}
                _ => {
                    return bad(format!(
                        "{coll}: spans[{i}].{key} must be a non-negative integer"
                    ))
                }
            }
        }
        if let Some(attrs) = span.get("attrs") {
            let Some(attrs) = attrs.as_doc() else {
                return bad(format!("{coll}: spans[{i}].attrs must be a document"));
            };
            for (key, value) in attrs.iter() {
                match value.as_i64() {
                    Some(v) if v >= 0 => {}
                    _ => {
                        return bad(format!(
                            "{coll}: spans[{i}].attrs.{key} must be a non-negative integer"
                        ))
                    }
                }
            }
        }
    }
    Ok(())
}

/// Validates and inserts a terminal session record.
///
/// # Errors
/// Returns [`KdbError::Schema`] on a malformed record, otherwise store
/// errors (missing collection / journal I/O).
pub fn insert_session_record<W: KdbWrite + ?Sized>(
    db: &mut W,
    record: Document,
) -> Result<DocId, KdbError> {
    validate_session_doc(&record)?;
    db.insert(names::SESSIONS, record)
}

/// Validates a persisted request trace against the `traces` collection
/// schema.
///
/// Required shape (see DESIGN.md §14):
///
/// * `session` — non-empty string;
/// * `trace_id` — exactly 32 lowercase hex digits (the 128-bit
///   wire-propagated trace id);
/// * `state` — one of [`SESSION_TERMINAL_STATES`];
/// * `forced` — boolean: whether the slow-session log forced sampling
///   retroactively (vs. the seeded head decision);
/// * `spans` — the same pre-ordered span array the `sessions` schema
///   uses, with optional non-negative integer `attrs` per span;
/// * `events_dropped` — non-negative integer (0 certifies the span
///   tree is complete).
///
/// # Errors
/// Returns [`KdbError::Schema`] naming the first violated rule.
pub fn validate_trace_doc(doc: &Document) -> Result<(), KdbError> {
    let bad = |reason: String| Err(KdbError::Schema(reason));
    match doc.get("session").and_then(Value::as_str) {
        Some(s) if !s.is_empty() => {}
        _ => return bad("traces: `session` must be a non-empty string".into()),
    }
    match doc.get("trace_id").and_then(Value::as_str) {
        Some(id)
            if id.len() == 32
                && id
                    .bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()) => {}
        other => {
            return bad(format!(
                "traces: `trace_id` must be 32 lowercase hex digits, got {other:?}"
            ))
        }
    }
    match doc.get("state").and_then(Value::as_str) {
        Some(s) if SESSION_TERMINAL_STATES.contains(&s) => {}
        other => {
            return bad(format!(
                "traces: `state` must be one of {SESSION_TERMINAL_STATES:?}, got {other:?}"
            ))
        }
    }
    if doc.get("forced").and_then(Value::as_bool).is_none() {
        return bad("traces: `forced` must be a boolean".into());
    }
    validate_span_array("traces", doc)?;
    match doc.get("events_dropped").and_then(Value::as_i64) {
        Some(v) if v >= 0 => Ok(()),
        _ => bad("traces: `events_dropped` must be a non-negative integer".into()),
    }
}

/// Validates and inserts a terminal request trace.
///
/// # Errors
/// Returns [`KdbError::Schema`] on a malformed trace, otherwise store
/// errors (missing collection / journal I/O).
pub fn insert_trace_record<W: KdbWrite + ?Sized>(
    db: &mut W,
    record: Document,
) -> Result<DocId, KdbError> {
    validate_trace_doc(&record)?;
    db.insert(names::TRACES, record)
}

/// Checks a 16-lowercase-hex-digit fingerprint string.
fn is_fp16(s: &str) -> bool {
    s.len() == 16
        && s.bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// Validates a streaming checkpoint against the `stream_windows`
/// collection schema.
///
/// Required shape (see DESIGN.md §16):
/// * `stream` — non-empty string naming the stream;
/// * `window` — integer window id (`day.div_euclid(window_days)`);
/// * `start_day` / `end_day` — the window's day span, `start < end`;
/// * `watermark` — integer day bound; every record folded so far has
///   `day < watermark`, and `watermark >= end_day`;
/// * `records` — non-empty flat integer array of `(day, patient, exam,
///   count)` quads in canonical order, each with `start_day <= day <
///   end_day`, non-negative ids and `count >= 1`;
/// * `folded` / `refits` — cumulative non-negative counters *after*
///   this window;
/// * `refit` — whether this window escalated to a full re-fit;
/// * `drift` — the window's drift score (non-negative float);
/// * `rows` / `vocab` / `vocab_version` — incremental-VSM shape after
///   this window (non-negative integers);
/// * `vsm_fp` — 16 lowercase hex digits (FNV-1a of the VSM state);
/// * `model_fp` — 16 lowercase hex digits, or `""` while the stream
///   has not accumulated enough rows to fit a model.
///
/// # Errors
/// Returns [`KdbError::Schema`] naming the first violated rule.
pub fn validate_stream_window_doc(doc: &Document) -> Result<(), KdbError> {
    let bad = |reason: String| Err(KdbError::Schema(reason));
    match doc.get("stream").and_then(Value::as_str) {
        Some(s) if !s.is_empty() => {}
        _ => return bad("stream_windows: `stream` must be a non-empty string".into()),
    }
    if doc.get("window").and_then(Value::as_i64).is_none() {
        return bad("stream_windows: `window` must be an integer".into());
    }
    let (start, end) = match (
        doc.get("start_day").and_then(Value::as_i64),
        doc.get("end_day").and_then(Value::as_i64),
    ) {
        (Some(s), Some(e)) if s < e => (s, e),
        _ => {
            return bad(
                "stream_windows: `start_day`/`end_day` must be integers with start < end".into(),
            )
        }
    };
    match doc.get("watermark").and_then(Value::as_i64) {
        Some(w) if w >= end => {}
        _ => return bad("stream_windows: `watermark` must be an integer >= `end_day`".into()),
    }
    match doc.get("records").and_then(Value::as_array) {
        Some(vals) if !vals.is_empty() && vals.len() % 4 == 0 => {
            for quad in vals.chunks_exact(4) {
                let nums: Vec<i64> = quad.iter().filter_map(Value::as_i64).collect();
                if nums.len() != 4 {
                    return bad("stream_windows: `records` must hold only integers".into());
                }
                let (day, patient, exam, count) = (nums[0], nums[1], nums[2], nums[3]);
                if day < start || day >= end {
                    return bad(format!(
                        "stream_windows: record day {day} outside window [{start}, {end})"
                    ));
                }
                if patient < 0 || exam < 0 || count < 1 {
                    return bad(
                        "stream_windows: record ids must be non-negative and count >= 1".into(),
                    );
                }
            }
        }
        _ => {
            return bad(
                "stream_windows: `records` must be a non-empty array of (day, patient, exam, \
                 count) quads"
                    .into(),
            )
        }
    }
    for field in ["folded", "refits", "rows", "vocab", "vocab_version"] {
        match doc.get(field).and_then(Value::as_i64) {
            Some(v) if v >= 0 => {}
            _ => {
                return bad(format!(
                    "stream_windows: `{field}` must be a non-negative integer"
                ))
            }
        }
    }
    if doc.get("refit").and_then(Value::as_bool).is_none() {
        return bad("stream_windows: `refit` must be a boolean".into());
    }
    match doc.get("drift").and_then(Value::as_f64) {
        Some(d) if d >= 0.0 => {}
        _ => return bad("stream_windows: `drift` must be a non-negative float".into()),
    }
    match doc.get("vsm_fp").and_then(Value::as_str) {
        Some(fp) if is_fp16(fp) => {}
        other => {
            return bad(format!(
                "stream_windows: `vsm_fp` must be 16 lowercase hex digits, got {other:?}"
            ))
        }
    }
    match doc.get("model_fp").and_then(Value::as_str) {
        Some("") => Ok(()),
        Some(fp) if is_fp16(fp) => Ok(()),
        other => bad(format!(
            "stream_windows: `model_fp` must be empty or 16 lowercase hex digits, got {other:?}"
        )),
    }
}

/// Validates and inserts a streaming window checkpoint.
///
/// # Errors
/// Returns [`KdbError::Schema`] on a malformed checkpoint, otherwise
/// store errors (missing collection / journal I/O).
pub fn insert_stream_window<W: KdbWrite + ?Sized>(
    db: &mut W,
    record: Document,
) -> Result<DocId, KdbError> {
    validate_stream_window_doc(&record)?;
    db.insert(names::STREAM_WINDOWS, record)
}

/// Inserts a clustering knowledge item.
///
/// # Errors
/// Returns store errors (missing collection / journal I/O).
pub fn insert_cluster_item<W: KdbWrite + ?Sized>(
    db: &mut W,
    session: &str,
    k: usize,
    cluster: usize,
    size: usize,
    cohesion: f64,
    description: &str,
) -> Result<DocId, KdbError> {
    db.insert(
        names::CLUSTER_KNOWLEDGE,
        Document::new()
            .with("session", session)
            .with("kind", "cluster")
            .with("k", k as i64)
            .with("cluster", cluster as i64)
            .with("size", size as i64)
            .with("score", cohesion)
            .with("description", description),
    )
}

/// Inserts a pattern knowledge item (an association rule or itemset).
///
/// # Errors
/// Returns store errors (missing collection / journal I/O).
pub fn insert_pattern_item<W: KdbWrite + ?Sized>(
    db: &mut W,
    session: &str,
    items: &[u32],
    support: f64,
    confidence: f64,
    lift: f64,
    description: &str,
) -> Result<DocId, KdbError> {
    db.insert(
        names::PATTERN_KNOWLEDGE,
        Document::new()
            .with("session", session)
            .with("kind", "pattern")
            .with(
                "items",
                Value::Array(items.iter().map(|&i| Value::I64(i as i64)).collect()),
            )
            .with("support", support)
            .with("confidence", confidence)
            .with("lift", lift)
            .with("score", confidence * lift.min(4.0) / 4.0)
            .with("description", description),
    )
}

/// Validates a safety-signal knowledge item against the
/// `signal_knowledge` collection schema.
///
/// Required shape (see DESIGN.md §12):
///
/// * `session`, `exposure`, `outcome`, `description` — non-empty
///   strings; `exposure_id` — non-negative integer;
/// * `kind` — the literal `"signal"`;
/// * `a`, `b`, `c`, `d` — the 2×2 contingency-table cells,
///   non-negative integers;
/// * `ror`, `ci_low`, `ci_high` — finite positive numbers with
///   `ci_low <= ror <= ci_high` (the CI must bracket the estimate);
/// * `shrunk` — finite non-negative number; `support` — number in
///   [0, 1]; `score` — finite number;
/// * `corrected` — boolean (whether the Haldane–Anscombe zero-cell
///   correction was applied).
///
/// # Errors
/// Returns [`KdbError::Schema`] naming the first violated rule.
pub fn validate_signal_doc(doc: &Document) -> Result<(), KdbError> {
    let bad = |reason: String| Err(KdbError::Schema(reason));
    for key in ["session", "exposure", "outcome", "description"] {
        match doc.get(key).and_then(Value::as_str) {
            Some(s) if !s.is_empty() => {}
            _ => {
                return bad(format!(
                    "signal_knowledge: `{key}` must be a non-empty string"
                ))
            }
        }
    }
    match doc.get("kind").and_then(Value::as_str) {
        Some("signal") => {}
        other => {
            return bad(format!(
                "signal_knowledge: `kind` must be \"signal\", got {other:?}"
            ))
        }
    }
    for key in ["exposure_id", "a", "b", "c", "d"] {
        match doc.get(key).and_then(Value::as_i64) {
            Some(v) if v >= 0 => {}
            _ => {
                return bad(format!(
                    "signal_knowledge: `{key}` must be a non-negative integer"
                ))
            }
        }
    }
    let num = |key: &str| doc.get(key).and_then(Value::as_f64);
    for key in ["ror", "ci_low", "ci_high"] {
        match num(key) {
            Some(v) if v.is_finite() && v > 0.0 => {}
            _ => {
                return bad(format!(
                    "signal_knowledge: `{key}` must be a finite positive number"
                ))
            }
        }
    }
    let (ci_low, ror, ci_high) = (
        num("ci_low").expect("checked"),
        num("ror").expect("checked"),
        num("ci_high").expect("checked"),
    );
    if !(ci_low <= ror && ror <= ci_high) {
        return bad(format!(
            "signal_knowledge: CI must bracket the estimate, got [{ci_low}, {ci_high}] around {ror}"
        ));
    }
    match num("shrunk") {
        Some(v) if v.is_finite() && v >= 0.0 => {}
        _ => return bad("signal_knowledge: `shrunk` must be a finite non-negative number".into()),
    }
    match num("support") {
        Some(v) if (0.0..=1.0).contains(&v) => {}
        _ => return bad("signal_knowledge: `support` must be a number in [0, 1]".into()),
    }
    match num("score") {
        Some(v) if v.is_finite() => {}
        _ => return bad("signal_knowledge: `score` must be a finite number".into()),
    }
    if doc.get("corrected").and_then(Value::as_bool).is_none() {
        return bad("signal_knowledge: `corrected` must be a boolean".into());
    }
    Ok(())
}

/// Validates and inserts a safety-signal knowledge item.
///
/// # Errors
/// Returns [`KdbError::Schema`] on a malformed item, otherwise store
/// errors (missing collection / journal I/O).
pub fn insert_signal_item<W: KdbWrite + ?Sized>(
    db: &mut W,
    item: Document,
) -> Result<DocId, KdbError> {
    validate_signal_doc(&item)?;
    db.insert(names::SIGNAL_KNOWLEDGE, item)
}

/// Records physician feedback on a knowledge item.
///
/// # Errors
/// Returns store errors (missing collection / journal I/O).
pub fn insert_feedback<W: KdbWrite + ?Sized>(
    db: &mut W,
    session: &str,
    item_collection: &str,
    item_id: DocId,
    interest: Interestingness,
) -> Result<DocId, KdbError> {
    db.insert(
        names::FEEDBACK,
        Document::new()
            .with("session", session)
            .with("item_collection", item_collection)
            .with("item_id", item_id as i64)
            .with("interest", interest.as_str()),
    )
}

/// Stores a statistical-descriptor document for a session.
///
/// # Errors
/// Returns store errors (missing collection / journal I/O).
pub fn insert_descriptors<W: KdbWrite + ?Sized>(
    db: &mut W,
    session: &str,
    descriptors: Document,
) -> Result<DocId, KdbError> {
    db.insert(names::DESCRIPTORS, descriptors.with("session", session))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Filter;
    use crate::store::Kdb;

    #[test]
    fn init_creates_all_six_collections() {
        let mut db = Kdb::in_memory();
        init_schema(&mut db).unwrap();
        for name in names::ALL {
            assert!(db.collection(name).is_some(), "missing {name}");
        }
        assert!(db
            .collection(names::CLUSTER_KNOWLEDGE)
            .unwrap()
            .has_index("score"));
        // Idempotent.
        init_schema(&mut db).unwrap();
    }

    #[test]
    fn knowledge_items_round_trip() {
        let mut db = Kdb::in_memory();
        init_schema(&mut db).unwrap();
        let cid = insert_cluster_item(&mut db, "s1", 8, 2, 512, 0.73, "cluster 2 of 8").unwrap();
        let pid = insert_pattern_item(&mut db, "s1", &[3, 17], 0.21, 0.88, 2.4, "HbA1c => glucose")
            .unwrap();
        insert_feedback(
            &mut db,
            "s1",
            names::CLUSTER_KNOWLEDGE,
            cid,
            Interestingness::High,
        )
        .unwrap();

        let clusters = db
            .find(names::CLUSTER_KNOWLEDGE, &Filter::eq("session", "s1"))
            .unwrap();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].1.get("k").unwrap().as_i64(), Some(8));

        let patterns = db
            .find(names::PATTERN_KNOWLEDGE, &Filter::eq("session", "s1"))
            .unwrap();
        assert_eq!(
            patterns[0]
                .1
                .get("items")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            2
        );
        assert_eq!(patterns[0].0, pid);

        let feedback = db
            .find(names::FEEDBACK, &Filter::eq("session", "s1"))
            .unwrap();
        assert_eq!(
            feedback[0].1.get("interest").unwrap().as_str(),
            Some("high")
        );
    }

    fn sample_session_doc() -> Document {
        let span = |name: &str, parent: i64, start: i64, dur: i64| {
            Value::Doc(
                Document::new()
                    .with("name", name)
                    .with("parent", parent)
                    .with("start_ns", start)
                    .with("dur_ns", dur),
            )
        };
        let stage = Value::Doc(
            Document::new()
                .with("stage", "optimize")
                .with("count", 1i64)
                .with("p50_ns", 100i64)
                .with("p90_ns", 100i64)
                .with("p99_ns", 100i64),
        );
        Document::new()
            .with("session", "s1")
            .with("state", "completed")
            .with(
                "spans",
                Value::Array(vec![
                    span("session", -1, 0, 500),
                    span("optimize", 0, 10, 200),
                    span("sweep:k=8", 1, 20, 90),
                ]),
            )
            .with("stages", Value::Array(vec![stage]))
            .with(
                "counters",
                Value::Doc(Document::new().with("iterations", 12i64)),
            )
    }

    #[test]
    fn session_records_validate_and_round_trip() {
        let mut db = Kdb::in_memory();
        init_schema(&mut db).unwrap();
        assert!(db.collection(names::SESSIONS).unwrap().has_index("state"));
        let id = insert_session_record(&mut db, sample_session_doc()).unwrap();
        let found = db
            .find(names::SESSIONS, &Filter::eq("session", "s1"))
            .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, id);
        validate_session_doc(&found[0].1).unwrap();
    }

    #[test]
    fn session_validation_rejects_malformed_records() {
        let mut db = Kdb::in_memory();
        init_schema(&mut db).unwrap();
        let rejects = |doc: Document, what: &str| {
            let mut db2 = Kdb::in_memory();
            init_schema(&mut db2).unwrap();
            assert!(
                matches!(
                    insert_session_record(&mut db2, doc),
                    Err(KdbError::Schema(_))
                ),
                "expected rejection: {what}"
            );
        };
        rejects(
            sample_session_doc().with("state", "running"),
            "non-terminal state",
        );
        rejects(sample_session_doc().with("session", ""), "empty session");
        rejects(
            sample_session_doc().with("spans", Value::Null),
            "missing spans",
        );
        rejects(
            sample_session_doc().with(
                "spans",
                Value::Array(vec![Value::Doc(
                    Document::new()
                        .with("name", "x")
                        .with("parent", 5i64) // forward reference
                        .with("start_ns", 0i64)
                        .with("dur_ns", 0i64),
                )]),
            ),
            "forward parent reference",
        );
        rejects(
            sample_session_doc().with(
                "counters",
                Value::Doc(Document::new().with("iterations", -3i64)),
            ),
            "negative counter",
        );
        // The rejected inserts must not have left documents behind.
        assert_eq!(db.collection(names::SESSIONS).unwrap().len(), 0);
    }

    fn sample_trace_doc() -> Document {
        let span = |name: &str, parent: i64, start: i64, dur: i64| {
            Value::Doc(
                Document::new()
                    .with("name", name)
                    .with("parent", parent)
                    .with("start_ns", start)
                    .with("dur_ns", dur),
            )
        };
        let fsync = Value::Doc(
            Document::new()
                .with("name", "fsync_round")
                .with("parent", 0i64)
                .with("start_ns", 300i64)
                .with("dur_ns", 80i64)
                .with(
                    "attrs",
                    Value::Doc(
                        Document::new()
                            .with("batch", 4i64)
                            .with("leader", 1i64)
                            .with("wait_ns", 20i64)
                            .with("fsync_ns", 60i64),
                    ),
                ),
        );
        Document::new()
            .with("session", "s1")
            .with("trace_id", "00112233445566778899aabbccddeeff")
            .with("state", "completed")
            .with("forced", false)
            .with("events_dropped", 0i64)
            .with(
                "spans",
                Value::Array(vec![
                    span("session", -1, 0, 500),
                    span("queue_wait", 0, 5, 40),
                    span("optimize", 0, 50, 200),
                    fsync,
                ]),
            )
    }

    #[test]
    fn trace_records_validate_and_round_trip() {
        let mut db = Kdb::in_memory();
        init_schema(&mut db).unwrap();
        // The base schema must NOT create the trace store: it only
        // appears once a sampled session is about to persist.
        assert!(db.collection(names::TRACES).is_none());
        init_trace_schema(&mut db).unwrap();
        let coll = db.collection(names::TRACES).unwrap();
        assert!(coll.has_index("session"));
        assert!(coll.has_index("trace_id"));
        let id = insert_trace_record(&mut db, sample_trace_doc()).unwrap();
        let found = db
            .find(names::TRACES, &Filter::eq("session", "s1"))
            .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, id);
        validate_trace_doc(&found[0].1).unwrap();
    }

    #[test]
    fn trace_validation_rejects_malformed_records() {
        let rejects = |doc: Document, what: &str| {
            let mut db = Kdb::in_memory();
            init_trace_schema(&mut db).unwrap();
            assert!(
                matches!(insert_trace_record(&mut db, doc), Err(KdbError::Schema(_))),
                "expected rejection: {what}"
            );
            assert_eq!(db.collection(names::TRACES).unwrap().len(), 0);
        };
        rejects(sample_trace_doc().with("session", ""), "empty session");
        rejects(sample_trace_doc().with("trace_id", "xyz"), "short trace id");
        rejects(
            sample_trace_doc().with("trace_id", "00112233445566778899AABBCCDDEEFF"),
            "uppercase trace id",
        );
        rejects(sample_trace_doc().with("state", "running"), "non-terminal");
        rejects(sample_trace_doc().with("forced", 1i64), "non-bool forced");
        rejects(
            sample_trace_doc().with("events_dropped", -1i64),
            "negative drop count",
        );
        rejects(
            sample_trace_doc().with(
                "spans",
                Value::Array(vec![Value::Doc(
                    Document::new()
                        .with("name", "x")
                        .with("parent", 3i64)
                        .with("start_ns", 0i64)
                        .with("dur_ns", 0i64),
                )]),
            ),
            "forward parent reference",
        );
        rejects(
            sample_trace_doc().with(
                "spans",
                Value::Array(vec![Value::Doc(
                    Document::new()
                        .with("name", "x")
                        .with("parent", -1i64)
                        .with("start_ns", 0i64)
                        .with("dur_ns", 0i64)
                        .with("attrs", Value::Doc(Document::new().with("batch", -4i64))),
                )]),
            ),
            "negative span attribute",
        );
    }

    fn sample_window_doc() -> Document {
        Document::new()
            .with("stream", "feed-1")
            .with("window", 2376i64)
            .with("start_day", 16632i64)
            .with("end_day", 16639i64)
            .with("watermark", 16639i64)
            .with(
                "records",
                Value::Array(
                    [16632i64, 4, 11, 2, 16633, 0, 3, 1]
                        .into_iter()
                        .map(Value::I64)
                        .collect(),
                ),
            )
            .with("folded", 3i64)
            .with("refits", 1i64)
            .with("refit", false)
            .with("drift", 1.02f64)
            .with("rows", 2i64)
            .with("vocab", 2i64)
            .with("vocab_version", 2i64)
            .with("vsm_fp", "00f00dcafe123abc")
            .with("model_fp", "deadbeef00112233")
    }

    #[test]
    fn stream_window_records_validate_and_round_trip() {
        let mut db = Kdb::in_memory();
        init_schema(&mut db).unwrap();
        // Like the trace store, the checkpoint store must only appear
        // once a stream actually closes a window.
        assert!(db.collection(names::STREAM_WINDOWS).is_none());
        init_stream_schema(&mut db).unwrap();
        let coll = db.collection(names::STREAM_WINDOWS).unwrap();
        assert!(coll.has_index("stream"));
        assert!(coll.has_index("window"));
        let id = insert_stream_window(&mut db, sample_window_doc()).unwrap();
        // A model-less early window is also valid.
        insert_stream_window(&mut db, sample_window_doc().with("model_fp", "")).unwrap();
        let found = db
            .find(names::STREAM_WINDOWS, &Filter::eq("stream", "feed-1"))
            .unwrap();
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].0, id);
        validate_stream_window_doc(&found[0].1).unwrap();
    }

    #[test]
    fn stream_window_validation_rejects_malformed_records() {
        let rejects = |doc: Document, what: &str| {
            let mut db = Kdb::in_memory();
            init_stream_schema(&mut db).unwrap();
            assert!(
                matches!(insert_stream_window(&mut db, doc), Err(KdbError::Schema(_))),
                "expected rejection: {what}"
            );
            assert_eq!(db.collection(names::STREAM_WINDOWS).unwrap().len(), 0);
        };
        rejects(sample_window_doc().with("stream", ""), "empty stream");
        rejects(sample_window_doc().with("window", "x"), "non-int window");
        rejects(
            sample_window_doc().with("end_day", 16632i64),
            "empty day span",
        );
        rejects(
            sample_window_doc().with("watermark", 16638i64),
            "watermark behind window end",
        );
        rejects(
            sample_window_doc().with("records", Value::Array(vec![])),
            "empty records",
        );
        rejects(
            sample_window_doc().with(
                "records",
                Value::Array(vec![Value::I64(16632), Value::I64(1)]),
            ),
            "ragged quads",
        );
        rejects(
            sample_window_doc().with(
                "records",
                Value::Array([16700i64, 1, 1, 1].into_iter().map(Value::I64).collect()),
            ),
            "record outside window",
        );
        rejects(
            sample_window_doc().with(
                "records",
                Value::Array([16632i64, 1, 1, 0].into_iter().map(Value::I64).collect()),
            ),
            "zero count",
        );
        rejects(sample_window_doc().with("folded", -1i64), "negative folded");
        rejects(sample_window_doc().with("refit", 1i64), "non-bool refit");
        rejects(sample_window_doc().with("drift", -0.5f64), "negative drift");
        rejects(sample_window_doc().with("vsm_fp", "short"), "bad vsm fp");
        rejects(
            sample_window_doc().with("model_fp", "DEADBEEF00112233"),
            "uppercase model fp",
        );
    }

    fn sample_signal_doc() -> Document {
        Document::new()
            .with("session", "sig-1")
            .with("kind", "signal")
            .with("exposure", "fundus-exam")
            .with("exposure_id", 17i64)
            .with("outcome", "ophthalmic")
            .with("a", 40i64)
            .with("b", 60i64)
            .with("c", 120i64)
            .with("d", 480i64)
            .with("ror", 2.67)
            .with("ci_low", 1.70)
            .with("ci_high", 4.18)
            .with("shrunk", 2.1)
            .with("support", 0.057)
            .with("score", 0.62)
            .with("corrected", false)
            .with("description", "fundus-exam => ophthalmic complication")
    }

    #[test]
    fn signal_items_validate_and_round_trip() {
        let mut db = Kdb::in_memory();
        init_schema(&mut db).unwrap();
        let coll = db.collection(names::SIGNAL_KNOWLEDGE).unwrap();
        assert!(coll.has_index("session"));
        assert!(coll.has_index("score"));
        let id = insert_signal_item(&mut db, sample_signal_doc()).unwrap();
        let found = db
            .find(names::SIGNAL_KNOWLEDGE, &Filter::eq("session", "sig-1"))
            .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, id);
        validate_signal_doc(&found[0].1).unwrap();
    }

    #[test]
    fn signal_validation_rejects_malformed_items() {
        let rejects = |doc: Document, what: &str| {
            let mut db = Kdb::in_memory();
            init_schema(&mut db).unwrap();
            assert!(
                matches!(insert_signal_item(&mut db, doc), Err(KdbError::Schema(_))),
                "expected rejection: {what}"
            );
            assert_eq!(db.collection(names::SIGNAL_KNOWLEDGE).unwrap().len(), 0);
        };
        rejects(sample_signal_doc().with("session", ""), "empty session");
        rejects(sample_signal_doc().with("kind", "pattern"), "wrong kind");
        rejects(sample_signal_doc().with("a", -1i64), "negative cell");
        rejects(sample_signal_doc().with("ror", f64::NAN), "NaN ror");
        rejects(
            sample_signal_doc().with("ror", f64::INFINITY),
            "infinite ror",
        );
        rejects(
            sample_signal_doc().with("ci_low", 3.0),
            "CI not bracketing the estimate",
        );
        rejects(sample_signal_doc().with("support", 1.5), "support > 1");
        rejects(sample_signal_doc().with("shrunk", -0.1), "negative shrunk");
        rejects(
            sample_signal_doc().with("corrected", 1i64),
            "non-bool corrected",
        );
    }

    #[test]
    fn interestingness_round_trip() {
        for i in [
            Interestingness::Low,
            Interestingness::Medium,
            Interestingness::High,
        ] {
            assert_eq!(Interestingness::parse(i.as_str()), Some(i));
        }
        assert_eq!(Interestingness::parse("nope"), None);
        assert!(Interestingness::High.score() > Interestingness::Medium.score());
        assert!(Interestingness::High > Interestingness::Low);
    }

    #[test]
    fn descriptors_tagged_with_session() {
        let mut db = Kdb::in_memory();
        init_schema(&mut db).unwrap();
        insert_descriptors(
            &mut db,
            "s2",
            Document::new()
                .with("sparsity", 0.91)
                .with("patients", 6380i64),
        )
        .unwrap();
        let found = db
            .find(names::DESCRIPTORS, &Filter::eq("session", "s2"))
            .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1.get("sparsity").unwrap().as_f64(), Some(0.91));
    }
}
