//! Durability for the session tier: a write-ahead verb journal, per-session
//! snapshots, and crash recovery by replay.
//!
//! The service's sessions (see [`crate::session`]) are the only state the
//! serve protocol accumulates. This module makes them survive a process
//! death. The design is the classic WAL pair:
//!
//! * **Journal** (`<data-dir>/journal.log`): every *accepted*
//!   `create`/`delta`/`close` verb is appended — one line per record,
//!   `<16-hex FNV-1a-64 checksum> <space> <JSON record>` — **before** the
//!   response is written to the client, so an acknowledged verb is never
//!   lost. `solve` is deliberately not journaled: it changes only the
//!   incumbent (an optimization, re-derivable), never the instance.
//! * **Snapshots** (`<data-dir>/sessions/<sid>.snap`): a full session image
//!   — instance, incumbent, cost, proxy — stamped with the journal
//!   sequence number it folds in. Written atomically (temp file + rename)
//!   on spill, periodically every [`DurableStore::snapshot_every`] journaled
//!   verbs, and at graceful shutdown. A snapshot truncates *replay*: only
//!   journal records with `seq` greater than the snapshot's are applied on
//!   recovery.
//!
//! The journal *file* is truncated only at quiescent points — after
//! recovery and at graceful shutdown, once every live session has a fresh
//! snapshot — never concurrently with serving (a concurrent truncation
//! could erase a record appended after the snapshot images were
//! collected).
//!
//! **Recovery** ([`DurableStore::recover`]) loads all snapshots, replays
//! the journal tail in sequence order (create → greedy incumbent, delta →
//! [`crate::model::ModelOps::repair_deltas`], close → drop), and stops at
//! the first torn or corrupt line, keeping the prefix and reporting the
//! dropped suffix — a half-written final line after SIGKILL is data loss
//! of exactly the unacknowledged verb, not a crash loop. Recovered
//! incumbents are clamped by a fresh greedy run, so a recovered session
//! never answers worse than the stateless greedy floor.
//!
//! The fsync policy is a knob ([`Durability`]): `none` buffers in process
//! (fastest, loses the buffered tail on any death), `flush` pushes every
//! record to the OS (survives process death — SIGKILL, abort — the CI
//! kill-and-replay gate), `fsync` additionally syncs the file (survives
//! power loss).
//!
//! **Group commit** ([`DurableStore::with_group_commit`], on by default):
//! appending lanes do not write the file themselves — they encode their
//! record, enqueue it on a bounded batch buffer with the next sequence
//! number, and park until a dedicated *committer* thread has made it
//! durable. The committer drains up to `--journal-batch` records at a
//! time, appends them as **one** coalesced write, pays one flush/fsync
//! for the whole batch, then wakes every waiting lane. The write-ahead
//! contract is unchanged — an appender returns (and the service responds)
//! only after its record is on storage at the configured durability — but
//! the flush/fsync cost is amortized across every lane that joined the
//! batch, which is what makes contended `fsync` traffic scale. Batches
//! form naturally (records pile up while the committer is inside a
//! flush); `--group-commit-us` optionally lets the committer linger for
//! stragglers when a batch is not yet full. The on-disk format and the
//! sequence numbering are byte-identical to the synchronous path
//! (`--journal-batch 1`), so recovery is oblivious to batching — a
//! property pinned by the differential proptests in `proptest_journal.rs`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use sst_core::delta::{delta_to_json, deltas_from_value, InstanceDelta};
use sst_core::io::json::{self, JsonValue};
use sst_core::io::{self as core_io, IoError};
use sst_core::telemetry::{stage, Telemetry, TraceEvent};
use sst_core::wire::{self, fnv1a64, Cursor};

use crate::model::Solution;
use crate::protocol::{
    cost_from_value, instance_from_value, instance_to_json, shares_from_value, write_cost,
    write_solution,
};
use crate::session::SessionEntry;

/// How hard an accepted verb is pushed toward stable storage before the
/// response line is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Buffer in process; flush only at graceful shutdown. Fastest; any
    /// non-graceful death loses the buffered journal tail (snapshots
    /// already on disk still recover).
    None,
    /// Flush every record to the OS (`BufWriter::flush`). Survives process
    /// death — SIGKILL, `abort()` — but not power loss. The default when
    /// `--data-dir` is set.
    #[default]
    Flush,
    /// Flush and `fsync` every record. Survives power loss; slowest.
    Fsync,
}

impl Durability {
    /// Parses the `--durability` flag value.
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "none" => Some(Durability::None),
            "flush" => Some(Durability::Flush),
            "fsync" => Some(Durability::Fsync),
            _ => None,
        }
    }

    /// The flag spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Durability::None => "none",
            Durability::Flush => "flush",
            Durability::Fsync => "fsync",
        }
    }
}

/// One journaled session verb (the accepted mutations; `solve` mutates
/// only the incumbent and is not journaled).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Session `sid` was created (or replaced) with this instance.
    Create {
        /// Session id.
        sid: u64,
        /// The full initial instance.
        instance: crate::solver::ProblemInstance,
    },
    /// A delta batch was accepted (repair succeeded) on session `sid`.
    Delta {
        /// Session id.
        sid: u64,
        /// The edits, in application order.
        deltas: Vec<InstanceDelta>,
    },
    /// Session `sid` was closed.
    Close {
        /// Session id.
        sid: u64,
    },
}

/// Borrowed view of a record for zero-copy encoding on the append path.
enum RecordRef<'a> {
    Create { sid: u64, instance: &'a crate::solver::ProblemInstance },
    Delta { sid: u64, deltas: &'a [InstanceDelta] },
    Close { sid: u64 },
}

impl RecordRef<'_> {
    fn sid(&self) -> u64 {
        match self {
            RecordRef::Create { sid, .. }
            | RecordRef::Delta { sid, .. }
            | RecordRef::Close { sid } => *sid,
        }
    }
}

impl JournalRecord {
    /// The borrowed view the append path encodes from.
    fn as_ref(&self) -> RecordRef<'_> {
        match self {
            JournalRecord::Create { sid, instance } => RecordRef::Create { sid: *sid, instance },
            JournalRecord::Delta { sid, deltas } => RecordRef::Delta { sid: *sid, deltas },
            JournalRecord::Close { sid } => RecordRef::Close { sid: *sid },
        }
    }
}

// The journal line checksum is FNV-1a-64 — not cryptographic; it detects
// torn writes and bit rot, which is all replay needs. The implementation
// is shared with the binary wire format (`sst_core::wire::fnv1a64`): one
// checksum discipline guards journal lines, wire frames and packed
// snapshots.

fn record_payload(seq: u64, rec: &RecordRef<'_>) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"seq\": {seq}, ");
    match rec {
        RecordRef::Create { sid, instance } => {
            let _ = write!(out, "\"create\": {{\"sid\": {sid}, \"instance\": ");
            out.push_str(&instance_to_json(instance));
            out.push('}');
        }
        RecordRef::Delta { sid, deltas } => {
            let _ = write!(out, "\"delta\": {{\"sid\": {sid}, \"deltas\": [");
            for (i, d) in deltas.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&delta_to_json(d));
            }
            out.push_str("]}");
        }
        RecordRef::Close { sid } => {
            let _ = write!(out, "\"close\": {{\"sid\": {sid}}}");
        }
    }
    out.push('}');
    out
}

/// Encodes one journal line (no trailing newline):
/// `<16-hex checksum> <json>`.
pub fn encode_journal_line(seq: u64, rec: &JournalRecord) -> String {
    let view = match rec {
        JournalRecord::Create { sid, instance } => RecordRef::Create { sid: *sid, instance },
        JournalRecord::Delta { sid, deltas } => RecordRef::Delta { sid: *sid, deltas },
        JournalRecord::Close { sid } => RecordRef::Close { sid: *sid },
    };
    let payload = record_payload(seq, &view);
    format!("{:016x} {payload}", fnv1a64(payload.as_bytes()))
}

fn uint_of(map: &BTreeMap<String, JsonValue>, k: &str) -> Result<u64, String> {
    match map.get(k) {
        Some(JsonValue::Uint(v)) => Ok(*v),
        _ => Err(format!("journal record missing uint '{k}'")),
    }
}

/// Parses one journal line back into `(seq, record)`. Errors on a short
/// line, a checksum mismatch, or a malformed record — the conditions that
/// stop replay at a torn tail.
pub fn parse_journal_line(line: &str) -> Result<(u64, JournalRecord), String> {
    let bytes = line.as_bytes();
    if bytes.len() < 18 || bytes[16] != b' ' {
        return Err("short or malformed journal line".into());
    }
    let sum = u64::from_str_radix(&line[..16], 16).map_err(|_| "bad checksum hex".to_string())?;
    let payload = &line[17..];
    if fnv1a64(payload.as_bytes()) != sum {
        return Err("journal checksum mismatch".into());
    }
    let value = json::parse(payload)?;
    let JsonValue::Object(map) = &value else {
        return Err("journal record must be a JSON object".into());
    };
    let seq = uint_of(map, "seq")?;
    let verb_map = |key: &str| -> Result<&BTreeMap<String, JsonValue>, String> {
        match map.get(key) {
            Some(JsonValue::Object(m)) => Ok(m),
            _ => Err(format!("journal '{key}' must be an object")),
        }
    };
    let rec = if map.contains_key("create") {
        let m = verb_map("create")?;
        let inst = m.get("instance").ok_or_else(|| "create missing 'instance'".to_string())?;
        JournalRecord::Create {
            sid: uint_of(m, "sid")?,
            instance: instance_from_value(inst).map_err(|e| e.to_string())?,
        }
    } else if map.contains_key("delta") {
        let m = verb_map("delta")?;
        let deltas = m.get("deltas").ok_or_else(|| "delta missing 'deltas'".to_string())?;
        JournalRecord::Delta {
            sid: uint_of(m, "sid")?,
            deltas: deltas_from_value(deltas).map_err(|e| e.to_string())?,
        }
    } else if map.contains_key("close") {
        JournalRecord::Close { sid: uint_of(verb_map("close")?, "sid")? }
    } else {
        return Err("journal record has no create/delta/close verb".into());
    };
    Ok((seq, rec))
}

/// Why (and how much of) a journal suffix was dropped during a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalTail {
    /// Bytes from the first bad line to end of file.
    pub dropped_bytes: u64,
    /// What stopped the scan.
    pub reason: String,
}

/// Scans a whole journal text, returning every record of the longest
/// well-formed prefix, plus a [`JournalTail`] describing the dropped
/// suffix when the scan stopped early (torn final line after a crash, a
/// corrupted line, …). Never panics on malformed input.
pub fn scan_journal(text: &str) -> (Vec<(u64, JournalRecord)>, Option<JournalTail>) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    for piece in text.split_inclusive('\n') {
        let (body, complete) = match piece.strip_suffix('\n') {
            Some(b) => (b, true),
            None => (piece, false),
        };
        let body = body.strip_suffix('\r').unwrap_or(body);
        if body.is_empty() {
            offset += piece.len();
            continue;
        }
        if !complete {
            let tail = JournalTail {
                dropped_bytes: (text.len() - offset) as u64,
                reason: "torn final line (no newline)".into(),
            };
            return (records, Some(tail));
        }
        match parse_journal_line(body) {
            Ok(rec) => records.push(rec),
            Err(reason) => {
                let tail = JournalTail { dropped_bytes: (text.len() - offset) as u64, reason };
                return (records, Some(tail));
            }
        }
        offset += piece.len();
    }
    (records, None)
}

/// Encodes a session snapshot in the JSON schema: the full session image
/// stamped with the last journal sequence number folded into it. The
/// store writes packed snapshots ([`encode_snapshot_packed`]); this
/// encoder stays for tooling and tests, and [`parse_snapshot_bytes`]
/// still reads its output, so data dirs with JSON snapshots recover.
pub fn encode_snapshot(sid: u64, seq: u64, entry: &SessionEntry) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"v\": 1, \"sid\": {sid}, \"seq\": {seq}, \"instance\": ");
    out.push_str(&instance_to_json(&entry.instance));
    out.push_str(", \"cost\": ");
    write_cost(&mut out, &entry.cost);
    out.push_str(", ");
    write_solution(&mut out, &entry.incumbent);
    if let Some(proxy) = &entry.proxy {
        out.push_str(", \"proxy\": ");
        json::write_usize_array(&mut out, proxy.assignment());
    }
    out.push('}');
    out
}

/// Encodes a session snapshot as a packed [`wire::FT_SNAPSHOT`] frame:
/// `sid u64, seq u64`, the kind-tagged packed instance, the cost, the
/// incumbent solution, and an optional proxy schedule. The frame checksum
/// gives packed snapshots the torn-write detection JSON snapshots get
/// from the atomic rename alone; a corrupt file fails the checksum and
/// recovery falls back to journal replay.
pub fn encode_snapshot_packed(sid: u64, seq: u64, entry: &SessionEntry) -> Vec<u8> {
    let mut payload = Vec::new();
    wire::put_u64(&mut payload, sid);
    wire::put_u64(&mut payload, seq);
    crate::wire::write_problem_instance(&mut payload, &entry.instance);
    crate::wire::write_cost(&mut payload, &entry.cost);
    crate::wire::write_solution(&mut payload, &entry.incumbent);
    match &entry.proxy {
        None => wire::put_u8(&mut payload, 0),
        Some(proxy) => {
            wire::put_u8(&mut payload, 1);
            wire::write_schedule(&mut payload, proxy);
        }
    }
    wire::encode_frame(wire::FT_SNAPSHOT, &payload)
}

/// Parses a packed snapshot frame back into `(sid, seq, entry)`.
pub fn parse_snapshot_packed(bytes: &[u8]) -> Result<(u64, u64, SessionEntry), IoError> {
    let bad = |e: wire::WireError| IoError::Format(format!("packed snapshot: {e}"));
    let (frame_type, payload) = wire::decode_frame(bytes).map_err(bad)?;
    if frame_type != wire::FT_SNAPSHOT {
        return Err(IoError::Format(format!(
            "packed snapshot has frame type 0x{frame_type:02x}, expected 0x{:02x}",
            wire::FT_SNAPSHOT
        )));
    }
    let mut cur = Cursor::new(payload);
    let inner = |cur: &mut Cursor<'_>| -> Result<(u64, u64, SessionEntry), wire::WireError> {
        let sid = cur.u64()?;
        let seq = cur.u64()?;
        let instance = crate::wire::read_problem_instance(cur)?;
        let cost = crate::wire::read_cost(cur)?;
        let incumbent = crate::wire::read_solution(cur)?;
        let proxy = match cur.u8()? {
            0 => None,
            1 => Some(wire::read_schedule(cur)?),
            t => return Err(wire::WireError::Malformed(format!("bad proxy tag {t}"))),
        };
        cur.finish()?;
        Ok((sid, seq, SessionEntry { instance: Arc::new(instance), incumbent, cost, proxy }))
    };
    inner(&mut cur).map_err(bad)
}

/// Parses a snapshot file of either format, sniffing the first byte: JSON
/// snapshots open with `{`, packed ones with the frame magic — the same
/// discipline as the serve socket. Old JSON snapshots stay readable for
/// recovery compatibility.
pub fn parse_snapshot_bytes(bytes: &[u8]) -> Result<(u64, u64, SessionEntry), IoError> {
    if bytes.first() == Some(&b'{') {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| IoError::Format("snapshot is not UTF-8".into()))?;
        parse_snapshot(text)
    } else {
        parse_snapshot_packed(bytes)
    }
}

/// Parses a snapshot file back into `(sid, seq, entry)`.
pub fn parse_snapshot(text: &str) -> Result<(u64, u64, SessionEntry), IoError> {
    let value = json::parse(text).map_err(IoError::Json)?;
    let JsonValue::Object(map) = &value else {
        return Err(IoError::Json("snapshot must be a JSON object".into()));
    };
    let uint = |k: &str| -> Result<u64, IoError> {
        match map.get(k) {
            Some(JsonValue::Uint(v)) => Ok(*v),
            _ => Err(IoError::Json(format!("snapshot missing uint '{k}'"))),
        }
    };
    if uint("v")? != 1 {
        return Err(IoError::Format("unknown snapshot version".into()));
    }
    let sid = uint("sid")?;
    let seq = uint("seq")?;
    let instance = instance_from_value(
        map.get("instance").ok_or_else(|| IoError::Json("snapshot missing 'instance'".into()))?,
    )?;
    let cost = cost_from_value(
        map.get("cost").ok_or_else(|| IoError::Json("snapshot missing 'cost'".into()))?,
    )?;
    let incumbent = if let Some(v) = map.get("assignment") {
        Solution::Assignment(
            core_io::schedule_from_value(v)
                .map_err(|_| IoError::Json("bad snapshot 'assignment'".into()))?,
        )
    } else if let Some(v) = map.get("shares") {
        Solution::Split(shares_from_value(v)?)
    } else {
        return Err(IoError::Json("snapshot missing 'assignment' or 'shares'".into()));
    };
    let proxy = match map.get("proxy") {
        None => None,
        Some(v) => Some(
            core_io::schedule_from_value(v)
                .map_err(|_| IoError::Json("bad snapshot 'proxy'".into()))?,
        ),
    };
    Ok((sid, seq, SessionEntry { instance: Arc::new(instance), incumbent, cost, proxy }))
}

/// A session entry rebuilt with the *claimed* state double-checked: the
/// incumbent is re-evaluated against the instance (fixing a drifted cost)
/// and replaced by a fresh greedy run when it no longer validates; a proxy
/// whose shape no longer matches the instance is dropped. Corrupt-but-
/// parseable state degrades to the greedy floor instead of poisoning
/// later repairs.
fn sanitize(mut entry: SessionEntry) -> SessionEntry {
    if let Some(proxy) = &entry.proxy {
        if proxy.assignment().len() != entry.instance.n() {
            entry.proxy = None;
        }
    }
    match entry.instance.evaluate(&entry.incumbent) {
        Ok(cost) => entry.cost = cost,
        Err(_) => {
            let greedy = entry.instance.greedy();
            entry.incumbent = greedy.solution;
            entry.cost = greedy.cost;
            entry.proxy = None;
        }
    }
    entry
}

/// What [`DurableStore::recover`] rebuilt and what it had to drop.
#[derive(Debug)]
pub struct Recovery {
    /// Every recovered live session: `(sid, seq, entry)`.
    pub sessions: Vec<(u64, u64, SessionEntry)>,
    /// Snapshot files loaded successfully.
    pub snapshots_loaded: u64,
    /// Snapshot files skipped (unparseable or mislabeled).
    pub snapshot_errors: u64,
    /// Journal records applied (newer than their session's snapshot).
    pub replayed: u64,
    /// Journal records whose repair failed (skipped; the session keeps its
    /// pre-record state).
    pub replay_errors: u64,
    /// The dropped journal suffix, when the scan stopped early.
    pub dropped: Option<JournalTail>,
}

/// Cumulative durability counters, merged into
/// [`crate::session::SessionStats`] by the store.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityCounters {
    /// Journal records appended since start.
    pub journal_appends: u64,
    /// Journal bytes written since start.
    pub journal_bytes: u64,
    /// Snapshot files written since start.
    pub snapshots: u64,
    /// Sessions rebuilt by the last recovery.
    pub recovered: u64,
}

struct JournalWriter {
    file: std::io::BufWriter<File>,
    seq: u64,
}

/// An encoded record parked on the group-commit batch buffer.
struct PendingRecord {
    seq: u64,
    line: String,
}

/// Sequence bookkeeping of the group-commit handoff. `durable_seq` and
/// `failed_seq` partition assigned sequence numbers: an appender's record
/// is acknowledged once `durable_seq` covers it and refused once
/// `failed_seq` does (a failed batch write never advances `durable_seq`).
struct CommitState {
    /// Last sequence number handed to an enqueued record.
    assigned_seq: u64,
    /// Last sequence number durably on storage (at the configured
    /// durability level).
    durable_seq: u64,
    /// Highest sequence number covered by a failed batch write.
    failed_seq: u64,
    /// The failed batch's error, repeated to every appender it covers.
    failure: String,
    /// Set by `Drop`; the committer drains `pending` and exits.
    shutdown: bool,
    /// Encoded records awaiting the committer, in sequence order.
    pending: Vec<PendingRecord>,
}

/// State shared between appending lanes and the committer thread.
struct CommitShared {
    /// Guards [`CommitState`]; never held across IO and never nested with
    /// `writer` (the committer drops it before taking the writer lock).
    state: Mutex<CommitState>,
    /// Appenders → committer: records are pending (or shutdown was set).
    work: Condvar,
    /// Committer → appenders: `durable_seq`/`failed_seq` advanced.
    done: Condvar,
    /// The journal file itself. Held by the committer for the coalesced
    /// batch write; by `flush_journal`/`truncate_journal` at quiescent
    /// points; and by the synchronous path when batching is off.
    writer: Mutex<JournalWriter>,
}

/// The on-disk half of the session tier: one append-only journal plus a
/// directory of per-session snapshots under one `--data-dir`.
pub struct DurableStore {
    sessions_dir: PathBuf,
    journal_path: PathBuf,
    durability: Durability,
    snapshot_every: u64,
    /// Records per coalesced commit batch; `<= 1` keeps the synchronous
    /// per-record append path (no committer thread).
    journal_batch: usize,
    /// Extra time the committer may wait for stragglers on a non-full
    /// batch; 0 = natural batching only.
    group_commit_us: u64,
    commit: Arc<CommitShared>,
    /// The committer thread, spawned lazily on the first batched append
    /// (after `set_telemetry` and the builders have run) and joined by
    /// `Drop` once the batch buffer is drained.
    committer: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Fast-path flag mirroring `committer.is_some()`.
    committer_up: std::sync::atomic::AtomicBool,
    journal_appends: AtomicU64,
    journal_bytes: AtomicU64,
    snapshots: AtomicU64,
    /// Snapshot writes started; names each write's temp file.
    snapshot_writes: AtomicU64,
    recovered: AtomicU64,
    telemetry: Telemetry,
}

impl DurableStore {
    /// Opens (creating as needed) `<root>/journal.log` and
    /// `<root>/sessions/`.
    pub fn open(root: impl AsRef<Path>, durability: Durability) -> std::io::Result<DurableStore> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let sessions_dir = root.join("sessions");
        fs::create_dir_all(&sessions_dir)?;
        let journal_path = root.join("journal.log");
        let file = OpenOptions::new().create(true).append(true).open(&journal_path)?;
        Ok(DurableStore {
            sessions_dir,
            journal_path,
            durability,
            snapshot_every: 32,
            journal_batch: 64,
            group_commit_us: 0,
            commit: Arc::new(CommitShared {
                state: Mutex::named(
                    "durable.commit",
                    CommitState {
                        assigned_seq: 0,
                        durable_seq: 0,
                        failed_seq: 0,
                        failure: String::new(),
                        shutdown: false,
                        pending: Vec::new(),
                    },
                ),
                work: Condvar::new(),
                done: Condvar::new(),
                writer: Mutex::named(
                    "durable.journal",
                    JournalWriter { file: std::io::BufWriter::new(file), seq: 0 },
                ),
            }),
            committer: Mutex::named("durable.committer", None),
            committer_up: std::sync::atomic::AtomicBool::new(false),
            journal_appends: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            snapshot_writes: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            telemetry: Telemetry::disabled(),
        })
    }

    /// Configures the group-commit journal writer (builder-style; call
    /// before the first append): lanes enqueue records into batches of at
    /// most `batch` and a committer thread pays one flush/fsync per
    /// batch. `batch <= 1` disables batching — every append writes and
    /// syncs its own record synchronously (the pre-group-commit path,
    /// kept as the bench baseline). `window_us > 0` lets the committer
    /// wait that long for stragglers when a batch is not yet full;
    /// 0 (the default) commits whatever piled up while the previous
    /// batch was being written.
    pub fn with_group_commit(mut self, batch: usize, window_us: u64) -> DurableStore {
        self.journal_batch = batch.max(1);
        self.group_commit_us = window_us;
        self
    }

    /// The configured records-per-batch bound (1 = synchronous appends).
    pub fn journal_batch(&self) -> usize {
        self.journal_batch
    }

    /// Sets the periodic-snapshot threshold (journaled verbs per session
    /// between snapshots); builder-style, mainly for tests.
    pub fn with_snapshot_every(mut self, every: u64) -> DurableStore {
        self.snapshot_every = every.max(1);
        self
    }

    /// Installs the serving process's telemetry: journal appends (with the
    /// fsync portion timed separately), snapshot writes, and recovery then
    /// feed the `stage.journal_*`/`stage.snapshot_us` histograms and emit
    /// trace events.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The periodic-snapshot threshold.
    pub fn snapshot_every(&self) -> u64 {
        self.snapshot_every
    }

    /// The configured fsync policy.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    fn snapshot_path(&self, sid: u64) -> PathBuf {
        self.sessions_dir.join(format!("{sid}.snap"))
    }

    fn append(&self, rec: RecordRef<'_>) -> std::io::Result<u64> {
        if self.journal_batch <= 1 {
            return self.append_direct(rec);
        }
        self.append_grouped(rec)
    }

    /// The synchronous path (`--journal-batch 1`): encode, write, flush
    /// and sync one record under the writer lock.
    fn append_direct(&self, rec: RecordRef<'_>) -> std::io::Result<u64> {
        let sid = rec.sid();
        let t0 = std::time::Instant::now();
        let mut j = self.commit.writer.lock();
        let seq = j.seq + 1;
        let payload = record_payload(seq, &rec);
        let line = format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes()));
        j.file.write_all(line.as_bytes())?;
        // Time the push-to-storage portion separately from encode+write:
        // under `fsync` it dominates, and the gap between the two
        // histograms is exactly the price of the durability level.
        let sync_t0 = std::time::Instant::now();
        match self.durability {
            Durability::None => {}
            Durability::Flush => j.file.flush()?,
            Durability::Fsync => {
                j.file.flush()?;
                j.file.get_ref().sync_data()?;
            }
        }
        // The sequence number advances only once the record is written:
        // a failed append is not acknowledged and must not leave a gap.
        j.seq = seq;
        drop(j);
        let fsync = self.durability == Durability::Fsync;
        let sync_us = sync_t0.elapsed().as_micros() as u64;
        let micros = t0.elapsed().as_micros() as u64;
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
        self.journal_bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
        self.telemetry.record(stage::JOURNAL_APPEND_US, micros);
        if fsync {
            self.telemetry.record(stage::JOURNAL_FSYNC_US, sync_us);
        }
        self.telemetry.emit(TraceEvent::JournalAppend {
            sid,
            bytes: line.len() as u64,
            micros,
            fsync,
        });
        Ok(seq)
    }

    /// The group-commit path: encode + enqueue under the state lock, wake
    /// the committer, park until `durable_seq` (or `failed_seq`) covers
    /// our record. Returns — i.e. the verb gets acknowledged — only once
    /// the record is on storage at the configured durability.
    fn append_grouped(&self, rec: RecordRef<'_>) -> std::io::Result<u64> {
        let sid = rec.sid();
        let t0 = std::time::Instant::now();
        self.ensure_committer();
        let (seq, bytes, wait_us) = {
            let mut st = self.commit.state.lock();
            let seq = st.assigned_seq + 1;
            st.assigned_seq = seq;
            // Encoding under the state lock keeps `pending` in sequence
            // order — the invariant that lets the committer write any
            // prefix of the buffer as one contiguous byte range.
            let payload = record_payload(seq, &rec);
            let line = format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes()));
            let bytes = line.len() as u64;
            st.pending.push(PendingRecord { seq, line });
            self.commit.work.notify_one();
            let wait_t0 = std::time::Instant::now();
            while st.durable_seq < seq {
                if st.failed_seq >= seq {
                    return Err(std::io::Error::other(st.failure.clone()));
                }
                self.commit.done.wait(&mut st);
            }
            (seq, bytes, wait_t0.elapsed().as_micros() as u64)
        };
        let fsync = self.durability == Durability::Fsync;
        let micros = t0.elapsed().as_micros() as u64;
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
        self.journal_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.telemetry.record(stage::JOURNAL_APPEND_US, micros);
        self.telemetry.record(stage::COMMIT_WAIT_US, wait_us);
        self.telemetry.emit(TraceEvent::JournalAppend { sid, bytes, micros, fsync });
        Ok(seq)
    }

    /// Appends several records as one enqueue operation: they receive
    /// consecutive sequence numbers with no interleaved foreign record,
    /// and the call returns once the whole run is durable. With batching
    /// off this degrades to sequential synchronous appends — the journal
    /// bytes are identical either way. Returns the last sequence number
    /// (0 when `recs` is empty).
    pub fn append_coalesced(&self, recs: &[JournalRecord]) -> std::io::Result<u64> {
        let mut last = 0u64;
        if self.journal_batch <= 1 {
            for rec in recs {
                last = self.append_direct(rec.as_ref())?;
            }
            return Ok(last);
        }
        if recs.is_empty() {
            return Ok(0);
        }
        let t0 = std::time::Instant::now();
        self.ensure_committer();
        let mut total_bytes = 0u64;
        let (wait_us, sids_bytes) = {
            let mut st = self.commit.state.lock();
            let mut sids_bytes = Vec::with_capacity(recs.len());
            for rec in recs {
                let rec = rec.as_ref();
                let seq = st.assigned_seq + 1;
                st.assigned_seq = seq;
                let payload = record_payload(seq, &rec);
                let line = format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes()));
                total_bytes += line.len() as u64;
                sids_bytes.push((rec.sid(), line.len() as u64));
                st.pending.push(PendingRecord { seq, line });
                last = seq;
            }
            self.commit.work.notify_one();
            let wait_t0 = std::time::Instant::now();
            while st.durable_seq < last {
                if st.failed_seq >= last {
                    return Err(std::io::Error::other(st.failure.clone()));
                }
                self.commit.done.wait(&mut st);
            }
            (wait_t0.elapsed().as_micros() as u64, sids_bytes)
        };
        let fsync = self.durability == Durability::Fsync;
        let micros = t0.elapsed().as_micros() as u64;
        self.journal_appends.fetch_add(sids_bytes.len() as u64, Ordering::Relaxed);
        self.journal_bytes.fetch_add(total_bytes, Ordering::Relaxed);
        self.telemetry.record(stage::JOURNAL_APPEND_US, micros);
        self.telemetry.record(stage::COMMIT_WAIT_US, wait_us);
        for (sid, bytes) in sids_bytes {
            self.telemetry.emit(TraceEvent::JournalAppend { sid, bytes, micros, fsync });
        }
        Ok(last)
    }

    /// Spawns the committer thread on first use. Lazy so the builders and
    /// `set_telemetry` have run by the time its configuration is cloned.
    fn ensure_committer(&self) {
        // ordering: Acquire pairs with the Release store below so a thread
        // seeing `true` also sees the spawned committer's side effects;
        // the slow path re-checks under the `durable.committer` lock.
        if self.committer_up.load(Ordering::Acquire) {
            return;
        }
        let mut slot = self.committer.lock();
        if slot.is_none() {
            let shared = Arc::clone(&self.commit);
            let durability = self.durability;
            let batch_cap = self.journal_batch;
            let window = std::time::Duration::from_micros(self.group_commit_us);
            let telemetry = self.telemetry.clone();
            *slot = Some(std::thread::spawn(move || {
                committer_loop(&shared, durability, batch_cap, window, &telemetry)
            }));
            // ordering: Release publishes the spawn to Acquire loads above.
            self.committer_up.store(true, Ordering::Release);
        }
    }

    /// Blocks until every enqueued record is resolved (durable or
    /// failed). The flush/truncate/recover quiescent points call this so
    /// the writer lock they take next covers a fully-drained journal.
    fn drain_commits(&self) {
        // ordering: Acquire pairs with the Release in `ensure_committer`;
        // no committer means nothing was ever enqueued.
        if self.journal_batch <= 1 || !self.committer_up.load(Ordering::Acquire) {
            return;
        }
        let mut st = self.commit.state.lock();
        while st.durable_seq.max(st.failed_seq) < st.assigned_seq {
            self.commit.work.notify_one();
            self.commit.done.wait(&mut st);
        }
    }

    /// Journals an accepted `create`. Returns the record's sequence number.
    pub fn append_create(
        &self,
        sid: u64,
        instance: &crate::solver::ProblemInstance,
    ) -> std::io::Result<u64> {
        self.append(RecordRef::Create { sid, instance })
    }

    /// Journals an accepted `delta` batch (call only after the repair
    /// succeeded: a rejected batch is not part of the session's history).
    pub fn append_delta(&self, sid: u64, deltas: &[InstanceDelta]) -> std::io::Result<u64> {
        self.append(RecordRef::Delta { sid, deltas })
    }

    /// Journals an accepted `close`.
    pub fn append_close(&self, sid: u64) -> std::io::Result<u64> {
        self.append(RecordRef::Close { sid })
    }

    /// Writes session `sid`'s snapshot atomically (temp file + rename).
    pub fn write_snapshot(&self, sid: u64, seq: u64, entry: &SessionEntry) -> std::io::Result<()> {
        let t0 = std::time::Instant::now();
        let bytes = encode_snapshot_packed(sid, seq, entry);
        // A temp name per write: a spill and the session's own lane may
        // snapshot the same sid at once, and must not write one file.
        let nonce = self.snapshot_writes.fetch_add(1, Ordering::Relaxed);
        let tmp = self.sessions_dir.join(format!("{sid}.{nonce}.snap.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            if self.durability == Durability::Fsync {
                f.sync_data()?;
            }
        }
        fs::rename(&tmp, self.snapshot_path(sid))?;
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        let micros = t0.elapsed().as_micros() as u64;
        self.telemetry.record(stage::SNAPSHOT_US, micros);
        self.telemetry.emit(TraceEvent::Snapshot { sid, micros });
        Ok(())
    }

    /// Loads (and sanitizes) session `sid`'s snapshot; `None` when absent
    /// or unusable.
    pub fn load_snapshot(&self, sid: u64) -> Option<(SessionEntry, u64)> {
        let bytes = fs::read(self.snapshot_path(sid)).ok()?;
        let (file_sid, seq, entry) = parse_snapshot_bytes(&bytes).ok()?;
        if file_sid != sid {
            return None;
        }
        Some((sanitize(entry), seq))
    }

    /// Removes session `sid`'s snapshot file. Returns whether one existed.
    pub fn remove_snapshot(&self, sid: u64) -> bool {
        fs::remove_file(self.snapshot_path(sid)).is_ok()
    }

    /// Flushes the journal to the OS (and syncs under `fsync`) — the
    /// graceful-shutdown path for `--durability none`. Drains the commit
    /// batch first: an in-flight batch must reach the file before the
    /// final snapshots and the trace `sink_close` are written.
    pub fn flush_journal(&self) -> std::io::Result<()> {
        self.drain_commits();
        let mut j = self.commit.writer.lock();
        j.file.flush()?;
        if self.durability == Durability::Fsync {
            j.file.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Truncates the journal file. Only sound at quiescent points (after
    /// recovery, at graceful shutdown) once every live session has a
    /// snapshot at least as new as every journal record. Drains the
    /// commit batch first so no enqueued record straddles the
    /// truncation. The sequence counter keeps running — snapshot stamps
    /// stay comparable.
    pub fn truncate_journal(&self) -> std::io::Result<()> {
        self.drain_commits();
        let mut j = self.commit.writer.lock();
        j.file.flush()?;
        OpenOptions::new().write(true).truncate(true).open(&self.journal_path)?;
        let file = OpenOptions::new().append(true).open(&self.journal_path)?;
        j.file = std::io::BufWriter::new(file);
        Ok(())
    }

    /// The cumulative counters (for the metrics probe).
    pub fn counters(&self) -> DurabilityCounters {
        DurabilityCounters {
            journal_appends: self.journal_appends.load(Ordering::Relaxed),
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
        }
    }

    /// Rebuilds every live session from snapshots plus the journal tail,
    /// then compacts: fresh snapshots for everything recovered, journal
    /// truncated, sequence counter resumed past everything seen. Torn or
    /// corrupt journal suffixes are dropped (reported in the returned
    /// [`Recovery`]), never fatal.
    pub fn recover(&self) -> std::io::Result<Recovery> {
        // Recovery runs at quiescent points, but drain defensively so the
        // journal read below cannot miss an enqueued record.
        self.drain_commits();
        let mut live: BTreeMap<u64, (u64, SessionEntry)> = BTreeMap::new();
        let mut snapshots_loaded = 0u64;
        let mut snapshot_errors = 0u64;
        for dirent in fs::read_dir(&self.sessions_dir)? {
            let path = dirent?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(stem) = name.strip_suffix(".snap") else {
                // Leftover `.snap.tmp` from a crash mid-write: the rename
                // never happened, so the old `.snap` (if any) is intact.
                if name.ends_with(".snap.tmp") {
                    let _ = fs::remove_file(&path);
                }
                continue;
            };
            let Ok(sid) = stem.parse::<u64>() else {
                snapshot_errors += 1;
                continue;
            };
            match fs::read(&path).ok().and_then(|b| parse_snapshot_bytes(&b).ok()) {
                Some((file_sid, seq, entry)) if file_sid == sid => {
                    live.insert(sid, (seq, sanitize(entry)));
                    snapshots_loaded += 1;
                }
                _ => snapshot_errors += 1,
            }
        }
        let text = fs::read_to_string(&self.journal_path).unwrap_or_default();
        let (records, dropped) = scan_journal(&text);
        let mut replayed = 0u64;
        let mut replay_errors = 0u64;
        let mut max_seq = live.values().map(|(seq, _)| *seq).max().unwrap_or(0);
        for (seq, rec) in records {
            max_seq = max_seq.max(seq);
            match rec {
                JournalRecord::Create { sid, instance } => {
                    // A snapshot at a newer seq already folds this in.
                    if live.get(&sid).is_none_or(|(s, _)| seq > *s) {
                        let greedy = instance.greedy();
                        let entry = SessionEntry {
                            instance: Arc::new(instance),
                            incumbent: greedy.solution,
                            cost: greedy.cost,
                            proxy: None,
                        };
                        live.insert(sid, (seq, entry));
                        replayed += 1;
                    }
                }
                JournalRecord::Delta { sid, deltas } => {
                    // A missing entry means a later `close` already removed
                    // the snapshot — the record is moot, not an error.
                    let Some((snap_seq, entry)) = live.get_mut(&sid) else { continue };
                    if seq <= *snap_seq {
                        continue;
                    }
                    match entry.instance.ops().repair_deltas(
                        &entry.incumbent,
                        entry.proxy.as_ref(),
                        &deltas,
                    ) {
                        Ok(repaired) => {
                            *entry = SessionEntry {
                                instance: Arc::new(repaired.instance),
                                incumbent: repaired.incumbent,
                                cost: repaired.cost,
                                proxy: repaired.proxy,
                            };
                            *snap_seq = seq;
                            replayed += 1;
                        }
                        Err(_) => {
                            *snap_seq = seq;
                            replay_errors += 1;
                        }
                    }
                }
                JournalRecord::Close { sid } => {
                    // A snapshot newer than the close means the session was
                    // re-created afterwards; keep it.
                    if live.get(&sid).is_some_and(|(s, _)| seq > *s) {
                        live.remove(&sid);
                        replayed += 1;
                    }
                }
            }
        }
        // A recovered session must never answer worse than a stateless
        // greedy run on its final instance.
        for (_, (_, entry)) in live.iter_mut() {
            let greedy = entry.instance.greedy();
            if greedy.cost.better_than(&entry.cost) {
                entry.incumbent = greedy.solution;
                entry.cost = greedy.cost;
            }
        }
        // Compact: everything recovered gets a fresh snapshot, the journal
        // restarts empty, and new records continue past every seq seen.
        for (sid, (seq, entry)) in &live {
            self.write_snapshot(*sid, *seq, entry)?;
        }
        self.truncate_journal()?;
        {
            // Never lower the counter: snapshots can carry seqs older than
            // records already appended this run.
            let mut writer = self.commit.writer.lock();
            writer.seq = writer.seq.max(max_seq);
            let resumed = writer.seq;
            drop(writer);
            // Keep the group-commit numbering in step with the writer's:
            // the next enqueued record continues past everything seen.
            let mut st = self.commit.state.lock();
            st.assigned_seq = st.assigned_seq.max(resumed);
            st.durable_seq = st.durable_seq.max(resumed);
        }
        self.recovered.store(live.len() as u64, Ordering::Relaxed);
        Ok(Recovery {
            sessions: live.into_iter().map(|(sid, (seq, entry))| (sid, seq, entry)).collect(),
            snapshots_loaded,
            snapshot_errors,
            replayed,
            replay_errors,
            dropped,
        })
    }
}

impl Drop for DurableStore {
    /// Stops the committer: sets shutdown, wakes it, and joins. The
    /// committer drains the batch buffer before exiting, so a gracefully
    /// dropped store never leaves an enqueued record unwritten.
    fn drop(&mut self) {
        let handle = self.committer.lock().take();
        if let Some(handle) = handle {
            {
                let mut st = self.commit.state.lock();
                st.shutdown = true;
            }
            self.commit.work.notify_all();
            let _ = handle.join();
        }
    }
}

/// The committer thread: drain a batch from the buffer, append it as one
/// coalesced write with one flush/fsync, publish the new durable horizon,
/// wake every waiting lane; repeat. On shutdown the buffer is drained
/// before exiting. The `state` lock is never held across the file IO and
/// never nested with the `writer` lock.
fn committer_loop(
    shared: &CommitShared,
    durability: Durability,
    batch_cap: usize,
    window: std::time::Duration,
    telemetry: &Telemetry,
) {
    loop {
        let batch: Vec<PendingRecord> = {
            let mut st = shared.state.lock();
            while st.pending.is_empty() {
                if st.shutdown {
                    return;
                }
                shared.work.wait(&mut st);
            }
            if !window.is_zero() && st.pending.len() < batch_cap && !st.shutdown {
                // One bounded linger for stragglers; a spurious or early
                // wakeup just commits a smaller batch.
                shared.work.wait_timeout(&mut st, window);
            }
            let take = st.pending.len().min(batch_cap);
            st.pending.drain(..take).collect()
        };
        let Some(last) = batch.last() else { continue };
        let last_seq = last.seq;
        let t0 = std::time::Instant::now();
        let mut buf = String::new();
        for rec in &batch {
            buf.push_str(&rec.line);
        }
        let mut sync_us = 0u64;
        let result: std::io::Result<()> = {
            let mut writer = shared.writer.lock();
            let wrote = (|| {
                writer.file.write_all(buf.as_bytes())?;
                let sync_t0 = std::time::Instant::now();
                match durability {
                    Durability::None => {}
                    Durability::Flush => writer.file.flush()?,
                    Durability::Fsync => {
                        writer.file.flush()?;
                        writer.file.get_ref().sync_data()?;
                    }
                }
                sync_us = sync_t0.elapsed().as_micros() as u64;
                Ok(())
            })();
            if wrote.is_ok() {
                // As in the synchronous path: the writer's counter only
                // advances past records actually on storage.
                writer.seq = last_seq;
            }
            wrote
        };
        let micros = t0.elapsed().as_micros() as u64;
        let fsync = durability == Durability::Fsync;
        {
            let mut st = shared.state.lock();
            match &result {
                Ok(()) => st.durable_seq = last_seq,
                Err(e) => {
                    st.failed_seq = last_seq;
                    st.failure = format!("group commit: {e}");
                }
            }
            shared.done.notify_all();
        }
        telemetry.record(stage::JOURNAL_BATCH_LEN, batch.len() as u64);
        if fsync {
            telemetry.record(stage::JOURNAL_FSYNC_US, sync_us);
        }
        telemetry.emit(TraceEvent::JournalCommit {
            batch: batch.len() as u64,
            bytes: buf.len() as u64,
            micros,
            fsync,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::ProblemInstance;
    use sst_core::instance::{Job, UniformInstance, UnrelatedInstance};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sst-durable-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn uniform_instance(extra: u64) -> ProblemInstance {
        ProblemInstance::Uniform(
            UniformInstance::identical(
                2,
                vec![2],
                (0..5).map(|i| Job::new(0, 1 + (i + extra) % 4)).collect(),
            )
            .unwrap(),
        )
    }

    fn entry_of(instance: ProblemInstance) -> SessionEntry {
        let greedy = instance.greedy();
        SessionEntry {
            instance: Arc::new(instance),
            incumbent: greedy.solution,
            cost: greedy.cost,
            proxy: None,
        }
    }

    #[test]
    fn journal_lines_roundtrip_every_verb() {
        let records = [
            JournalRecord::Create { sid: 7, instance: uniform_instance(0) },
            JournalRecord::Delta {
                sid: 7,
                deltas: vec![
                    InstanceDelta::AddJob { class: 0, times: vec![4] },
                    InstanceDelta::RemoveJob { job: 1 },
                ],
            },
            JournalRecord::Close { sid: 7 },
        ];
        for (i, rec) in records.iter().enumerate() {
            let line = encode_journal_line(i as u64 + 1, rec);
            assert!(!line.contains('\n'));
            let (seq, parsed) = parse_journal_line(&line).unwrap();
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(&parsed, rec, "{line}");
        }
    }

    #[test]
    fn corrupt_and_torn_lines_stop_the_scan_with_the_prefix_kept() {
        let l1 = encode_journal_line(
            1,
            &JournalRecord::Create { sid: 1, instance: uniform_instance(0) },
        );
        let l2 = encode_journal_line(2, &JournalRecord::Close { sid: 1 });
        // Torn tail: second line cut mid-payload, no newline.
        let torn = format!("{l1}\n{}", &l2[..l2.len() / 2]);
        let (records, tail) = scan_journal(&torn);
        assert_eq!(records.len(), 1);
        let tail = tail.expect("torn tail reported");
        assert!(tail.reason.contains("torn"), "{tail:?}");
        assert_eq!(tail.dropped_bytes as usize, l2.len() / 2);
        // Corrupt middle byte: checksum catches it, prefix survives.
        let mut corrupted = format!("{l1}\n{l2}\n").into_bytes();
        let flip = l1.len() + 1 + l2.len() / 2;
        corrupted[flip] = corrupted[flip].wrapping_add(1);
        let (records, tail) = scan_journal(&String::from_utf8_lossy(&corrupted));
        assert_eq!(records.len(), 1);
        assert!(tail.unwrap().reason.contains("checksum"), "corruption must be detected");
        // Clean journal: no tail.
        let (records, tail) = scan_journal(&format!("{l1}\n{l2}\n"));
        assert_eq!((records.len(), tail), (2, None));
    }

    #[test]
    fn snapshot_roundtrips_all_solution_shapes() {
        let integral = entry_of(uniform_instance(1));
        let text = encode_snapshot(9, 42, &integral);
        let (sid, seq, parsed) = parse_snapshot(&text).unwrap();
        assert_eq!((sid, seq), (9, 42));
        assert_eq!(parsed.instance.as_ref(), integral.instance.as_ref());
        assert_eq!(parsed.cost, integral.cost);

        let split_inst = ProblemInstance::Splittable(crate::model::SplittableInstance(
            UnrelatedInstance::new(
                2,
                vec![0, 1],
                vec![vec![3, 5], vec![6, 4]],
                vec![vec![1, 1], vec![2, 2]],
            )
            .unwrap(),
        ));
        let split = entry_of(split_inst);
        let text = encode_snapshot(3, 7, &split);
        let (sid, seq, parsed) = parse_snapshot(&text).unwrap();
        assert_eq!((sid, seq), (3, 7));
        assert!(matches!(parsed.incumbent, Solution::Split(_)));
    }

    #[test]
    fn packed_snapshot_roundtrips_and_sniffs_both_formats() {
        let mut with_proxy = entry_of(uniform_instance(1));
        with_proxy.proxy = Some(sst_core::schedule::Schedule::new(vec![0, 1, 0, 1, 0]));
        let bytes = encode_snapshot_packed(9, 42, &with_proxy);
        let (sid, seq, parsed) = parse_snapshot_bytes(&bytes).unwrap();
        assert_eq!((sid, seq), (9, 42));
        assert_eq!(parsed.instance.as_ref(), with_proxy.instance.as_ref());
        assert_eq!(parsed.cost, with_proxy.cost);
        assert_eq!(parsed.proxy, with_proxy.proxy);

        let split_inst = ProblemInstance::Splittable(crate::model::SplittableInstance(
            UnrelatedInstance::new(
                2,
                vec![0, 1],
                vec![vec![3, 5], vec![6, 4]],
                vec![vec![1, 1], vec![2, 2]],
            )
            .unwrap(),
        ));
        let split = entry_of(split_inst);
        let bytes = encode_snapshot_packed(3, 7, &split);
        let (sid, seq, parsed) = parse_snapshot_bytes(&bytes).unwrap();
        assert_eq!((sid, seq), (3, 7));
        assert!(matches!(parsed.incumbent, Solution::Split(_)));

        // The sniffing reader still takes the PR-6 JSON schema.
        let text = encode_snapshot(5, 11, &with_proxy);
        let (sid, seq, _) = parse_snapshot_bytes(text.as_bytes()).unwrap();
        assert_eq!((sid, seq), (5, 11));
    }

    #[test]
    fn packed_snapshot_rejects_torn_and_corrupt_bytes() {
        let entry = entry_of(uniform_instance(0));
        let bytes = encode_snapshot_packed(1, 2, &entry);
        // Torn tail: every strict prefix must fail, never panic.
        for cut in 0..bytes.len() {
            assert!(parse_snapshot_bytes(&bytes[..cut]).is_err(), "prefix of {cut} accepted");
        }
        // Any single flipped byte is caught by the frame checksum (or the
        // header validators for the first 20 bytes).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(parse_snapshot_bytes(&bad).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn recover_reads_snapshots_of_either_format() {
        let dir = tmp_dir("mixed-format");
        // Write one packed snapshot through the store and one JSON
        // snapshot by hand, then recover with a fresh store: both must
        // come back.
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        store.write_snapshot(1, 0, &entry_of(uniform_instance(0))).unwrap();
        drop(store);
        let json = encode_snapshot(2, 0, &entry_of(uniform_instance(1)));
        fs::write(dir.join("sessions").join("2.snap"), json).unwrap();

        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        let rec = store.recover().unwrap();
        let mut sids: Vec<u64> = rec.sessions.iter().map(|(sid, _, _)| *sid).collect();
        sids.sort_unstable();
        assert_eq!(sids, vec![1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_replays_snapshot_plus_journal_tail() {
        let dir = tmp_dir("replay");
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        // Session 1: snapshot only. Session 2: journal only. Session 3:
        // created then closed — must not be recovered.
        store.write_snapshot(1, 0, &entry_of(uniform_instance(0))).unwrap();
        store.append_create(2, &uniform_instance(1)).unwrap();
        store.append_delta(2, &[InstanceDelta::AddJob { class: 0, times: vec![6] }]).unwrap();
        store.append_create(3, &uniform_instance(2)).unwrap();
        store.append_close(3).unwrap();
        drop(store);

        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        let rec = store.recover().unwrap();
        assert!(rec.dropped.is_none());
        assert_eq!(rec.snapshots_loaded, 1);
        let sids: Vec<u64> = rec.sessions.iter().map(|(sid, _, _)| *sid).collect();
        assert_eq!(sids, vec![1, 2]);
        for (_, _, entry) in &rec.sessions {
            let greedy = entry.instance.greedy();
            assert!(
                !greedy.cost.better_than(&entry.cost),
                "recovered incumbent must hold the greedy floor"
            );
            assert!(entry.instance.evaluate(&entry.incumbent).is_ok());
        }
        // Session 2's delta was applied: 6 jobs, not 5.
        let two = rec.sessions.iter().find(|(sid, _, _)| *sid == 2).unwrap();
        assert_eq!(two.2.instance.n(), 6);
        // Recovery compacted: a second recovery sees snapshots only.
        let rec2 = store.recover().unwrap();
        assert_eq!(rec2.replayed, 0, "journal was truncated after recovery");
        assert_eq!(rec2.sessions.len(), 2);
        // New appends continue past every seq seen before compaction.
        let seq = store.append_close(1).unwrap();
        assert!(seq > 4, "sequence numbers must not repeat after compaction: {seq}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_survives_a_torn_journal_tail() {
        let dir = tmp_dir("torn");
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        store.append_create(5, &uniform_instance(0)).unwrap();
        store.append_delta(5, &[InstanceDelta::AddJob { class: 0, times: vec![9] }]).unwrap();
        store.flush_journal().unwrap();
        drop(store);
        // Cut the final record mid-line, as a crash mid-write would.
        let path = dir.join("journal.log");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();

        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        let rec = store.recover().unwrap();
        let tail = rec.dropped.expect("the torn tail is reported");
        assert!(tail.dropped_bytes > 0);
        assert_eq!(rec.sessions.len(), 1, "the prefix (the create) is kept");
        assert_eq!(rec.sessions[0].2.instance.n(), 5, "the torn delta was dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_beats_stale_snapshot_only_when_newer() {
        let dir = tmp_dir("close-seq");
        let store = DurableStore::open(&dir, Durability::Flush).unwrap();
        // Snapshot at seq 10; a close at seq 3 predates it (the session
        // was re-created and snapshotted afterwards) and must be ignored.
        store.write_snapshot(4, 10, &entry_of(uniform_instance(0))).unwrap();
        let line = encode_journal_line(3, &JournalRecord::Close { sid: 4 });
        fs::write(dir.join("journal.log"), format!("{line}\n")).unwrap();
        let store2 = DurableStore::open(&dir, Durability::Flush).unwrap();
        let rec = store2.recover().unwrap();
        assert_eq!(rec.sessions.len(), 1, "stale close must not drop the newer snapshot");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}
