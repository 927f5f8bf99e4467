//! The serve front end: a work-stealing worker pool speaking the NDJSON
//! protocol over stdin or TCP.
//!
//! Requests flow through the [`crate::pool`] work-stealing pool: dispatch
//! pushes onto one shared injector queue, workers pull from it and steal
//! from each other when idle, so a slow request can no longer head-of-line
//! block the requests queued behind it while other workers sit idle (the
//! PR 2 per-shard round-robin failure mode — still available as
//! [`PoolMode::Sharded`] for benchmarking). Each worker parses, races the
//! portfolio ([`crate::race`]), and writes the response line to the
//! request's origin (stdout, or the originating TCP connection).
//!
//! **No request is ever silently dropped.** When the backlog hits
//! [`ServeConfig::max_queue`] or every worker has died, [`Service::dispatch`]
//! answers the client immediately with an overload error line instead of
//! queueing; jobs already queued when the last worker dies are answered
//! with error lines by the pool's orphan path.
//!
//! **Session verbs run on keyed ordered lanes.** The stealing pool
//! preserves no order for in-flight requests — correct for independent
//! one-shot solves, wrong for stateful create → delta → solve sequences
//! pipelined blindly (stdin batch mode cannot await responses). Dispatch
//! therefore routes session-shaped lines through [`ServeConfig::session_lanes`]
//! dedicated FIFO workers, keyed by a hash of the session id: every verb
//! of one session lands on the same lane (arrival order preserved where
//! it matters), while verbs of distinct sessions run concurrently on
//! different lanes. A session `solve` still parallelizes internally (its
//! race spawns `top_k` solver threads).
//!
//! **Sessions can be durable.** With [`ServeConfig::data_dir`] set, every
//! accepted session verb is appended to a write-ahead journal *before*
//! its response line is written, capacity spills LRU victims to snapshots
//! instead of destroying them, and startup replays snapshots + journal
//! tail to rebuild every live session after a crash (see
//! [`crate::durable`]). `{"crash": true}` (with `--fault-injection true`)
//! aborts the process for real, which is how the kill-and-replay CI gate
//! exercises that path; graceful shutdown (stdin EOF, listener close)
//! checkpoints every hot session first.
//!
//! Selection is **adaptive**: all workers share one
//! [`WinRateTracker`], so portfolio members that never win their feature
//! family are demoted out of the default top-k as evidence accumulates
//! (see [`crate::select::select_adaptive`]).
//!
//! Latency and throughput are tracked in a shared
//! [`sst_core::stats::LatencyHistogram`] (percentiles interpolate within
//! log₂ buckets); the line `{"metrics": true}` returns the running
//! summary, and [`Service::shutdown`] returns it for end-of-stream
//! reporting. `{"kill_worker": true}` is the fault-injection probe
//! (honored only with [`ServeConfig::fault_injection`]).
//!
//! Concurrency shape: `workers` threads each run one race at a time, and a
//! race spawns up to `top_k` solver threads, so peak solver parallelism is
//! `workers × top_k`. Responses can interleave across workers — clients
//! correlate by `id`, which is why the protocol requires one.

use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sst_core::stats::LatencyHistogram;
use sst_core::telemetry::{stage, RegistrySnapshot, Telemetry, TraceEvent, TraceSink};

use crate::durable::{Durability, DurableStore};
use crate::pool::{Directive, Pool, PoolConfig, PoolMode, RejectReason, Rejected};
use crate::protocol::{
    parse_incoming, response_to_json, Incoming, MetricsSummary, Response, SessionRequest,
    SessionVerb, SolverLatencyLine, SolverLine, StageLine, StandingLine,
};
use crate::race::{race_observed, RaceConfig, RaceObserver, RaceResult, WARM_INCUMBENT};
use crate::select::WinRateTracker;
use crate::session::{SessionEntry, SessionStore};

/// Registry counter: requests answered OK.
const REQUESTS_OK: &str = "requests.ok";
/// Registry counter: requests answered with an error line.
const REQUESTS_ERROR: &str = "requests.error";
/// Registry gauge: accepted-but-unstarted requests in the stealing pool.
const POOL_QUEUED: &str = "pool.queued";
/// Registry gauge: pool workers still alive.
const POOL_WORKERS_ALIVE: &str = "pool.workers_alive";

/// Service configuration (CLI flags of `sst serve`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of pool workers (concurrent races).
    pub workers: usize,
    /// Default portfolio members raced per request.
    pub top_k: usize,
    /// Default per-request budget in milliseconds.
    pub budget_ms: u64,
    /// Default seed for the randomized solvers.
    pub seed: u64,
    /// Dispatch shape: work-stealing (default) or the sharded round-robin
    /// baseline.
    pub mode: PoolMode,
    /// Accepted-but-unstarted request cap; beyond it `dispatch` answers
    /// with an overload error line instead of queueing.
    pub max_queue: usize,
    /// Live-session cap of the [`SessionStore`]: creates beyond it evict
    /// the least-recently-used session (visible in the metrics probe — the
    /// backpressure signal to close sessions or raise the cap).
    pub max_sessions: usize,
    /// Honor `{"kill_worker": true}` and `{"crash": true}` fault-injection
    /// probes.
    pub fault_injection: bool,
    /// Durability root (`--data-dir`): when set, session verbs are
    /// journaled, capacity spills to snapshots, and startup recovers every
    /// live session by replay. `None` keeps the in-memory store.
    pub data_dir: Option<PathBuf>,
    /// Fsync policy of the journal (meaningful only with
    /// [`Self::data_dir`]).
    pub durability: Durability,
    /// Ordered session lanes (keyed by session-id hash): per-session verb
    /// order is preserved, distinct sessions run in parallel. The session
    /// store is sharded with the same hash, one shard per lane, so lanes
    /// never contend on a store lock either.
    pub session_lanes: usize,
    /// Group-commit batch bound (`--journal-batch`): journal records from
    /// all lanes coalesce into batches of at most this many records, one
    /// flush/fsync per batch. `1` restores synchronous per-record appends.
    pub journal_batch: usize,
    /// Group-commit linger (`--group-commit-us`): extra time the committer
    /// waits for stragglers on a non-full batch. `0` = natural batching.
    pub group_commit_us: u64,
    /// Structured trace-event sink (`--trace-out`): every request's span
    /// chain (enqueue → dequeue → race → respond), incumbent improvements,
    /// and durability events stream to it as NDJSON. `None` disables
    /// tracing; the metrics registry runs either way.
    pub trace: Option<TraceSink>,
    /// Periodic self-report interval (`--metrics-interval`, milliseconds):
    /// every interval one metrics summary line is printed to stderr. `0`
    /// disables the reporter.
    pub metrics_interval_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            top_k: 3,
            budget_ms: 200,
            seed: 1,
            mode: PoolMode::WorkStealing,
            max_queue: 1024,
            max_sessions: 64,
            fault_injection: false,
            data_dir: None,
            durability: Durability::default(),
            session_lanes: 4,
            journal_batch: 64,
            group_commit_us: 0,
            trace: None,
            metrics_interval_ms: 0,
        }
    }
}

/// Where a response line goes: shared, lockable, flushable.
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

#[doc(hidden)]
pub mod testing {
    //! In-memory [`SharedWriter`]s for tests and benches: capture NDJSON
    //! output in a shared buffer (line order = completion order) without a
    //! real socket. Hidden from docs; not a stable API.

    use std::io::Write;
    use std::sync::Arc;

    use parking_lot::Mutex;

    use super::SharedWriter;

    /// A `Write` appending into a shared byte buffer.
    pub struct BufWriter(Arc<Mutex<Vec<u8>>>);

    impl Write for BufWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A fresh shared buffer plus a writer over it.
    pub fn buffer_writer() -> (Arc<Mutex<Vec<u8>>>, SharedWriter) {
        let buffer = Arc::new(Mutex::named("service.capture.buffer", Vec::new()));
        let out = writer_to(&buffer);
        (buffer, out)
    }

    /// Another writer over an existing shared buffer (per-request writers
    /// feeding one capture).
    pub fn writer_to(buffer: &Arc<Mutex<Vec<u8>>>) -> SharedWriter {
        Arc::new(Mutex::named("service.writer", Box::new(BufWriter(Arc::clone(buffer)))))
    }
}

/// How a request arrived. Responses (including error responses for
/// malformed payloads) always go back in the caller's framing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Codec {
    Json,
    Binary,
}

impl Codec {
    fn name(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "binary",
        }
    }
}

/// A queued request body: one NDJSON line, or one binary frame whose
/// header and checksum the connection driver already verified. Decoding
/// either happens on the worker (`handle_job`), where it is timed as the
/// `stage.decode_us` stage.
enum Payload {
    Line(String),
    Frame { frame_type: u8, payload: Vec<u8> },
}

struct Job {
    payload: Payload,
    out: SharedWriter,
    /// Dispatch time: queue-wait (dequeue − enqueue) and total
    /// (enqueue → respond) latencies are measured from here.
    enqueued: Instant,
}

impl Job {
    fn codec(&self) -> Codec {
        match self.payload {
            Payload::Line(_) => Codec::Json,
            Payload::Frame { .. } => Codec::Binary,
        }
    }

    /// The request id, pulled without a full decode: a substring scan on
    /// JSON lines, a fixed-offset read on frames.
    fn request_id(&self) -> Option<u64> {
        match &self.payload {
            Payload::Line(line) => crate::protocol::extract_request_id(line.trim()),
            Payload::Frame { frame_type, payload } => crate::wire::request_id(*frame_type, payload),
        }
    }
}

/// The service's observability state: the unified telemetry registry (all
/// counters/gauges/histograms live there, lock-cheap and shared by every
/// worker) plus the start instant for uptime/throughput.
struct Metrics {
    telemetry: Telemetry,
    started: Instant,
}

/// The per-stage latency rows of a metrics summary: every `stage.*`
/// histogram of the registry, prefix-stripped and name-sorted.
fn stage_lines(snap: &RegistrySnapshot) -> Vec<StageLine> {
    snap.histograms
        .iter()
        .filter_map(|(name, h)| {
            let stage = name.strip_prefix("stage.")?;
            Some(StageLine {
                stage: stage.to_string(),
                count: h.count(),
                p50_us: h.percentile(0.50),
                p90_us: h.percentile(0.90),
                p99_us: h.percentile(0.99),
                max_us: h.max(),
            })
        })
        .collect()
}

/// The per-solver rows of a metrics summary, joined across the
/// `solver.<name>.{improvements,wins,first_incumbent_us}` registry
/// entries.
fn solver_latency_lines(snap: &RegistrySnapshot) -> Vec<SolverLatencyLine> {
    fn row<'a>(
        by: &'a mut std::collections::BTreeMap<String, SolverLatencyLine>,
        solver: &str,
    ) -> &'a mut SolverLatencyLine {
        by.entry(solver.to_string()).or_insert_with(|| SolverLatencyLine {
            solver: solver.to_string(),
            ..SolverLatencyLine::default()
        })
    }
    let mut by: std::collections::BTreeMap<String, SolverLatencyLine> =
        std::collections::BTreeMap::new();
    for (name, value) in &snap.counters {
        let Some(rest) = name.strip_prefix("solver.") else { continue };
        if let Some(solver) = rest.strip_suffix(".improvements") {
            row(&mut by, solver).improvements = *value;
        } else if let Some(solver) = rest.strip_suffix(".wins") {
            row(&mut by, solver).wins = *value;
        }
    }
    for (name, h) in &snap.histograms {
        let Some(rest) = name.strip_prefix("solver.") else { continue };
        let Some(solver) = rest.strip_suffix(".first_incumbent_us") else { continue };
        let line = row(&mut by, solver);
        line.first_p50_us = h.percentile(0.50);
        line.first_p99_us = h.percentile(0.99);
    }
    by.into_values().collect()
}

impl Metrics {
    fn new(telemetry: Telemetry) -> Metrics {
        Metrics { telemetry, started: Instant::now() }
    }

    fn summary(&self) -> MetricsSummary {
        let snap = self.telemetry.registry().snapshot();
        let ok = snap.counter(REQUESTS_OK);
        let errors = snap.counter(REQUESTS_ERROR);
        let uptime = self.started.elapsed();
        let uptime_ms = uptime.as_millis() as u64;
        let served = ok + errors;
        let rps_x1000 = if uptime.as_secs_f64() > 0.0 {
            (served as f64 / uptime.as_secs_f64() * 1000.0) as u64
        } else {
            0
        };
        // The legacy top-level percentiles keep their historical meaning:
        // handler work time (race or repair), now the `stage.race_us`
        // histogram. Queue-wait and enqueue→respond totals are separate
        // stage rows.
        let race = snap.histogram(stage::RACE_US).cloned().unwrap_or_else(LatencyHistogram::new);
        let batch = snap.histogram(sst_core::telemetry::stage::JOURNAL_BATCH_LEN);
        MetricsSummary {
            journal_batches: batch.map_or(0, |h| h.count()),
            journal_batch_p50: batch.map_or(0, |h| h.percentile(0.50)),
            journal_batch_max: batch.map_or(0, |h| h.max()),
            count: ok,
            errors,
            uptime_ms,
            rps_x1000,
            p50_us: race.percentile(0.50),
            p90_us: race.percentile(0.90),
            p99_us: race.percentile(0.99),
            mean_us: race.mean().round() as u64,
            stages: stage_lines(&snap),
            solver_latency: solver_latency_lines(&snap),
            trace_dropped: self.telemetry.trace_dropped(),
            // Session stats and standings are composed by `full_summary`.
            ..MetricsSummary::default()
        }
    }
}

/// A running worker pool. Dispatch lines in, responses come out on each
/// job's [`SharedWriter`].
pub struct Service {
    pool: Pool<Job>,
    /// The **session lanes**: FIFO workers dedicated to session verbs,
    /// keyed by a hash of the session id. The stealing pool deliberately
    /// preserves no order for in-flight requests, but session verbs are
    /// stateful — `create` → `delta` → `solve` pipelined blindly (stdin
    /// batch mode cannot await responses) must execute in arrival order.
    /// Hashing the sid onto one ordered channel guarantees that per
    /// session while distinct sessions run concurrently on different
    /// lanes; a session `solve` still parallelizes internally (its race
    /// spawns `top_k` solver threads), and one-shot solves keep the full
    /// pool.
    session_lanes: Vec<std::sync::mpsc::SyncSender<Job>>,
    lane_handles: Vec<std::thread::JoinHandle<()>>,
    metrics: Arc<Metrics>,
    tracker: Arc<WinRateTracker>,
    sessions: Arc<SessionStore>,
    /// The periodic stderr self-reporter (`--metrics-interval`): the
    /// sender stops it, the handle joins it at shutdown.
    reporter: Option<(std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>)>,
}

/// Standings rows included in a metrics response (the tracker can hold
/// many `(family, solver)` pairs on diverse traffic; the probe reports the
/// most-raced ones).
const METRICS_STANDINGS_CAP: usize = 16;

/// The full metrics summary: latency/throughput counters plus session
/// stats and the win-rate standings.
fn full_summary(
    metrics: &Metrics,
    sessions: &SessionStore,
    tracker: &WinRateTracker,
) -> MetricsSummary {
    let mut summary = metrics.summary();
    summary.sessions = sessions.stats();
    summary.standings = tracker
        .standings()
        .into_iter()
        .take(METRICS_STANDINGS_CAP)
        .map(|(family, solver, s)| StandingLine {
            family,
            solver: solver.to_string(),
            races: s.races,
            wins: s.wins,
            score_x1000: (s.score * 1000.0).round() as u64,
        })
        .collect();
    summary
}

fn write_line(out: &SharedWriter, line: &str) {
    // One write_all for payload + newline: `writeln!` would issue two
    // write calls, letting concurrently finishing workers interleave
    // bytes when their writers share an underlying sink.
    let mut payload = String::with_capacity(line.len() + 1);
    payload.push_str(line);
    payload.push('\n');
    let mut w = out.lock();
    // A vanished client (closed connection) is not a service error.
    let _ = w.write_all(payload.as_bytes());
    let _ = w.flush();
}

/// Writes one complete binary frame. Like [`write_line`], a single
/// `write_all` so concurrently finishing workers never interleave bytes.
fn write_frame(out: &SharedWriter, frame: &[u8]) {
    let mut w = out.lock();
    // A vanished client (closed connection) is not a service error.
    let _ = w.write_all(frame);
    let _ = w.flush();
}

/// Writes a response in the job's own framing: an NDJSON line for JSON
/// callers, a packed frame for binary ones.
fn write_response(job: &Job, resp: &Response) {
    match job.codec() {
        Codec::Json => write_line(&job.out, &response_to_json(resp)),
        Codec::Binary => write_frame(&job.out, &crate::wire::encode_response(resp)),
    }
}

/// Writes an error response (echoing the id when the payload carried
/// one), counts it, and closes the request's trace span with a failed
/// `respond` event.
fn write_error(metrics: &Metrics, job: &Job, message: String) {
    metrics.telemetry.incr(REQUESTS_ERROR);
    let id = job.request_id();
    let total_us = job.enqueued.elapsed().as_micros() as u64;
    metrics.telemetry.emit(TraceEvent::Respond { id: id.unwrap_or(0), ok: false, total_us });
    write_response(job, &Response::Error { id, message });
}

/// Packages a race result as an OK response line.
fn ok_response(id: u64, kind: &str, micros: u64, result: RaceResult) -> Response {
    Response::Ok {
        id,
        kind: kind.to_string(),
        solver: result.winner.to_string(),
        micros,
        makespan: result.cost,
        solution: result.solution,
        solvers: result
            .reports
            .into_iter()
            .map(|r| SolverLine {
                name: r.name.to_string(),
                makespan: r.cost,
                micros: r.micros,
                completed: r.completed,
            })
            .collect(),
    }
}

/// Counts a served response and records its latencies: the handler work
/// time (race or repair) feeds `stage.race_us` — the histogram behind the
/// legacy top-level percentiles — while the full enqueue→respond time
/// feeds `stage.total_us`; a `respond` event closes the request's span.
/// Verbs with no handler work time (create/close acks) pass `None`.
fn record_ok(metrics: &Metrics, job: &Job, id: u64, race_micros: Option<u64>) {
    let total_us = job.enqueued.elapsed().as_micros() as u64;
    metrics.telemetry.incr(REQUESTS_OK);
    if let Some(micros) = race_micros {
        metrics.telemetry.record(stage::RACE_US, micros);
    }
    metrics.telemetry.record(stage::TOTAL_US, total_us);
    metrics.telemetry.emit(TraceEvent::Respond { id, ok: true, total_us });
}

/// The error line for a session verb whose write-back found the session
/// gone: an in-memory store evicted it while the verb ran, so the verb's
/// result was not stored and must not be acknowledged.
fn evicted_meanwhile(sid: u64) -> String {
    format!("unknown session {sid}: evicted while the verb ran, result not stored")
}

/// The session verbs (see [`crate::protocol::SessionRequest`]): create
/// installs a greedy incumbent, delta repairs it through
/// [`crate::model::ModelOps::repair_deltas`], solve races warm from the
/// repaired floor, close frees the slot. Repairs and races run on a clone
/// of the session entry — the store lock is never held across them.
///
/// Durability discipline (when the store persists): a verb is **validated
/// first, journaled second, applied third, acknowledged last**. The
/// journal append sits before the response line, so an acknowledged verb
/// is always re-derivable by replay; a failed append answers with an error
/// and leaves the session untouched. `solve` only moves the incumbent
/// (re-derivable from the instance), so it is not journaled.
fn handle_session(
    cfg: &ServeConfig,
    metrics: &Metrics,
    tracker: &WinRateTracker,
    sessions: &SessionStore,
    job: &Job,
    req: SessionRequest,
) {
    let t0 = Instant::now();
    let id = req.id;
    match req.verb {
        SessionVerb::Create { sid, instance } => {
            let seq = match sessions.persist() {
                Some(p) => match p.append_create(sid, &instance) {
                    Ok(seq) => seq,
                    Err(e) => {
                        write_error(metrics, job, format!("session {sid} journal append: {e}"));
                        return;
                    }
                },
                None => 0,
            };
            let greedy = instance.greedy();
            let entry = SessionEntry {
                instance: Arc::new(instance),
                incumbent: greedy.solution,
                cost: greedy.cost,
                proxy: None,
            };
            let cost = entry.cost;
            let (live, _displaced) = sessions.create(sid, entry, seq);
            sessions.maybe_snapshot(sid);
            record_ok(metrics, job, id, None);
            let resp = Response::Session {
                id,
                sid,
                verb: "create".into(),
                live: live as u64,
                makespan: Some(cost),
            };
            write_response(job, &resp);
        }
        SessionVerb::Delta { sid, deltas } => {
            let Some(entry) = sessions.snapshot(sid) else {
                write_error(metrics, job, format!("unknown session {sid}"));
                return;
            };
            match entry.instance.ops().repair_deltas(
                &entry.incumbent,
                entry.proxy.as_ref(),
                &deltas,
            ) {
                Err(message) => {
                    write_error(metrics, job, format!("session {sid} delta failed: {message}"))
                }
                Ok(repaired) => {
                    // The repair validated the deltas; only now do they
                    // enter the journal.
                    let seq = match sessions.persist() {
                        Some(p) => match p.append_delta(sid, &deltas) {
                            Ok(seq) => seq,
                            Err(e) => {
                                write_error(
                                    metrics,
                                    job,
                                    format!("session {sid} journal append: {e}"),
                                );
                                return;
                            }
                        },
                        None => 0,
                    };
                    let micros = t0.elapsed().as_micros() as u64;
                    // The repaired incumbent is the response *and* the floor
                    // the next solve must beat.
                    let resp = Response::Ok {
                        id,
                        kind: repaired.instance.kind().to_string(),
                        solver: "delta-repair".to_string(),
                        micros,
                        makespan: repaired.cost,
                        solution: repaired.incumbent.clone(),
                        solvers: Vec::new(),
                    };
                    let stored = sessions.update(
                        sid,
                        SessionEntry {
                            instance: Arc::new(repaired.instance),
                            incumbent: repaired.incumbent,
                            cost: repaired.cost,
                            proxy: repaired.proxy,
                        },
                        seq,
                    );
                    if !stored {
                        write_error(metrics, job, evicted_meanwhile(sid));
                        return;
                    }
                    sessions.maybe_snapshot(sid);
                    record_ok(metrics, job, id, Some(micros));
                    write_response(job, &resp);
                }
            }
        }
        SessionVerb::Solve { sid, budget_ms, top_k, seed } => {
            let Some(entry) = sessions.snapshot(sid) else {
                write_error(metrics, job, format!("unknown session {sid}"));
                return;
            };
            let race_cfg = RaceConfig {
                top_k: top_k.unwrap_or(cfg.top_k),
                budget: Duration::from_millis(budget_ms.unwrap_or(cfg.budget_ms)),
                seed: seed.unwrap_or(cfg.seed),
            };
            let floor = Some((entry.incumbent.clone(), entry.cost));
            let obs = RaceObserver { telemetry: &metrics.telemetry, id };
            let result = race_observed(&entry.instance, &race_cfg, Some(tracker), floor, Some(obs));
            sessions.record_warm(result.winner == WARM_INCUMBENT);
            let micros = t0.elapsed().as_micros() as u64;
            // The race never returns worse than its floor, so the result
            // is the session's new incumbent; the instance is unchanged
            // and stays shared.
            let updated = SessionEntry {
                instance: Arc::clone(&entry.instance),
                incumbent: result.solution.clone(),
                cost: result.cost,
                proxy: entry.proxy.clone(),
            };
            let kind = entry.instance.kind();
            let resp = ok_response(id, kind, micros, result);
            // Incumbent-only move: no journal record, no seq advance — a
            // crash recovers the last durable state and re-clamps to the
            // greedy floor.
            if !sessions.update_incumbent(sid, updated) {
                write_error(metrics, job, evicted_meanwhile(sid));
                return;
            }
            record_ok(metrics, job, id, Some(micros));
            write_response(job, &resp);
        }
        SessionVerb::Close { sid } => {
            if sessions.close(sid) {
                // Journal the close after applying it: even if the append
                // fails, the snapshot file is already gone, so recovery
                // cannot resurrect the session.
                if let Some(p) = sessions.persist() {
                    if let Err(e) = p.append_close(sid) {
                        write_error(metrics, job, format!("session {sid} journal append: {e}"));
                        return;
                    }
                }
                record_ok(metrics, job, id, None);
                let live = sessions.live() as u64;
                let resp =
                    Response::Session { id, sid, verb: "close".into(), live, makespan: None };
                write_response(job, &resp);
            } else {
                write_error(metrics, job, format!("unknown session {sid}"));
            }
        }
    }
}

fn handle_job(
    cfg: &ServeConfig,
    metrics: &Metrics,
    tracker: &WinRateTracker,
    sessions: &SessionStore,
    job: &Job,
    worker: u64,
) -> Directive {
    if let Payload::Line(line) = &job.payload {
        if line.trim().is_empty() {
            return Directive::Continue;
        }
    }
    // The job just left the queue: queue-wait is a first-class stage.
    let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
    metrics.telemetry.record(stage::QUEUE_WAIT_US, queue_wait_us);
    if metrics.telemetry.trace().is_some() {
        let id = job.request_id().unwrap_or(0);
        metrics.telemetry.emit(TraceEvent::Dequeue { id, worker, queue_wait_us });
    }
    // Decode at parse time, timed as its own stage for both codecs: the
    // JSON line parse and the binary frame decode are the ingest cost the
    // packed format exists to shrink, so it must be visible per-stage
    // instead of folded into `total_us`.
    let t_decode = Instant::now();
    let parsed = match &job.payload {
        Payload::Line(line) => parse_incoming(line.trim()).map_err(|e| e.to_string()),
        Payload::Frame { frame_type, payload } => {
            crate::wire::decode_incoming(*frame_type, payload).map_err(|e| e.to_string())
        }
    };
    let decode_us = t_decode.elapsed().as_micros() as u64;
    metrics.telemetry.record(stage::DECODE_US, decode_us);
    if metrics.telemetry.trace().is_some() {
        metrics.telemetry.emit(TraceEvent::Decode {
            id: job.request_id().unwrap_or(0),
            codec: job.codec().name().to_string(),
            micros: decode_us,
        });
    }
    match parsed {
        Ok(Incoming::Metrics) => {
            let summary = full_summary(metrics, sessions, tracker);
            write_response(job, &Response::Metrics(summary));
        }
        Ok(Incoming::KillWorker) => {
            if cfg.fault_injection {
                // The chaos probe: this worker exits. Its queued jobs are
                // re-queued by the pool; no response line for the probe.
                return Directive::Die;
            }
            write_error(metrics, job, "kill_worker requires --fault-injection true".into());
        }
        Ok(Incoming::Crash) => {
            if cfg.fault_injection {
                // A real non-graceful death: no flush, no snapshot, no
                // response — recovery must come from the journal alone.
                // This is the probe the kill-and-replay CI gate uses.
                std::process::abort();
            }
            write_error(metrics, job, "crash requires --fault-injection true".into());
        }
        Ok(Incoming::Session(req)) => handle_session(cfg, metrics, tracker, sessions, job, *req),
        Ok(Incoming::Solve(req)) => {
            let t0 = Instant::now();
            let race_cfg = RaceConfig {
                top_k: req.top_k.unwrap_or(cfg.top_k),
                budget: Duration::from_millis(req.budget_ms.unwrap_or(cfg.budget_ms)),
                seed: req.seed.unwrap_or(cfg.seed),
            };
            let obs = RaceObserver { telemetry: &metrics.telemetry, id: req.id };
            let result = race_observed(&req.instance, &race_cfg, Some(tracker), None, Some(obs));
            let micros = t0.elapsed().as_micros() as u64;
            let resp = ok_response(req.id, req.instance.kind(), micros, result);
            record_ok(metrics, job, req.id, Some(micros));
            write_response(job, &resp);
        }
        Err(e) => write_error(metrics, job, e),
    }
    Directive::Continue
}

impl Service {
    /// Starts `cfg.workers` pool workers. Panics when the durability root
    /// cannot be opened or recovered — use [`Service::try_start`] to
    /// handle that as an error (the CLI does).
    pub fn start(cfg: ServeConfig) -> Service {
        // lint: allow(serve-unwrap) documented panic; try_start is the fallible path
        Service::try_start(cfg).expect("service start failed")
    }

    /// Starts `cfg.workers` pool workers plus `cfg.session_lanes` keyed
    /// session lanes. With [`ServeConfig::data_dir`] set this opens the
    /// durability root and **recovers every live session** (snapshots +
    /// journal replay) before accepting traffic, logging one summary line
    /// to stderr.
    pub fn try_start(cfg: ServeConfig) -> std::io::Result<Service> {
        let telemetry = Telemetry::new(cfg.trace.clone());
        let metrics = Arc::new(Metrics::new(telemetry.clone()));
        let tracker = Arc::new(WinRateTracker::new());
        let sessions = match &cfg.data_dir {
            Some(root) => {
                let mut store = DurableStore::open(root, cfg.durability)?
                    .with_group_commit(cfg.journal_batch, cfg.group_commit_us);
                store.set_telemetry(telemetry.clone());
                let store = Arc::new(store);
                let mut sessions = SessionStore::durable(cfg.max_sessions, Arc::clone(&store))
                    .with_shards(cfg.session_lanes.max(1));
                sessions.set_telemetry(telemetry.clone());
                let sessions = Arc::new(sessions);
                let rec_t0 = Instant::now();
                let recovery = store.recover()?;
                let recovered = recovery.sessions.len();
                for (sid, seq, entry) in recovery.sessions {
                    // Over-capacity recoveries spill back to disk through
                    // the store's own LRU path — nothing is lost.
                    sessions.create(sid, entry, seq);
                }
                let micros = rec_t0.elapsed().as_micros() as u64;
                telemetry.record(stage::RECOVERY_US, micros);
                telemetry.emit(TraceEvent::Recovery {
                    sessions: recovered as u64,
                    snapshots_loaded: recovery.snapshots_loaded,
                    replayed: recovery.replayed,
                    dropped_bytes: recovery.dropped.as_ref().map(|t| t.dropped_bytes).unwrap_or(0),
                    micros,
                });
                if recovered > 0 || recovery.dropped.is_some() || recovery.snapshot_errors > 0 {
                    let tail = match &recovery.dropped {
                        Some(t) => {
                            format!(", dropped {} journal bytes ({})", t.dropped_bytes, t.reason)
                        }
                        None => String::new(),
                    };
                    eprintln!(
                        "sst-serve: recovered {recovered} sessions in {micros} µs \
                         ({} snapshots, {} replayed records, {} snapshot errors, \
                         {} replay errors{tail})",
                        recovery.snapshots_loaded,
                        recovery.replayed,
                        recovery.snapshot_errors,
                        recovery.replay_errors,
                    );
                }
                sessions
            }
            None => {
                let mut sessions =
                    SessionStore::new(cfg.max_sessions).with_shards(cfg.session_lanes.max(1));
                sessions.set_telemetry(telemetry.clone());
                Arc::new(sessions)
            }
        };
        let pool_cfg = PoolConfig {
            workers: cfg.workers.max(1),
            mode: cfg.mode,
            max_queue: cfg.max_queue.max(1),
        };
        let handler = {
            let cfg = cfg.clone();
            let metrics = Arc::clone(&metrics);
            let tracker = Arc::clone(&tracker);
            let sessions = Arc::clone(&sessions);
            move |w: usize, job: Job| {
                // A panicking solver must not strand the in-flight request
                // (the claimed job never reaches the pool's death path) nor
                // cost a worker: answer with an error line and keep
                // serving. handle_job borrows the job, so this path still
                // owns it — no hot-path copies; the id is extracted only
                // if the panic actually happens.
                let run = std::panic::AssertUnwindSafe(|| {
                    handle_job(&cfg, &metrics, &tracker, &sessions, &job, w as u64)
                });
                match std::panic::catch_unwind(run) {
                    Ok(directive) => directive,
                    Err(_) => {
                        write_error(
                            &metrics,
                            &job,
                            "internal error: request handler panicked".into(),
                        );
                        Directive::Continue
                    }
                }
            }
        };
        let orphan = {
            let metrics = Arc::clone(&metrics);
            move |job: Job| {
                write_error(&metrics, &job, "service unavailable: request was never started".into())
            }
        };
        let pool = Pool::start(pool_cfg, handler, orphan);
        // The keyed session lanes (see the `Service` field docs). Each runs
        // the same handler as the pool workers — a misrouted line is
        // still answered correctly, just in FIFO order.
        let lane_count = cfg.session_lanes.max(1);
        let mut session_lanes = Vec::with_capacity(lane_count);
        let mut lane_handles = Vec::with_capacity(lane_count);
        for lane in 0..lane_count {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(cfg.max_queue.max(1));
            // Lanes report as workers above the pool's index range, so
            // dequeue events distinguish pool workers from session lanes.
            let worker = (cfg.workers.max(1) + lane) as u64;
            let cfg = cfg.clone();
            let metrics = Arc::clone(&metrics);
            let tracker = Arc::clone(&tracker);
            let sessions = Arc::clone(&sessions);
            lane_handles.push(std::thread::spawn(move || {
                for job in rx {
                    let run = std::panic::AssertUnwindSafe(|| {
                        handle_job(&cfg, &metrics, &tracker, &sessions, &job, worker)
                    });
                    if std::panic::catch_unwind(run).is_err() {
                        write_error(
                            &metrics,
                            &job,
                            "internal error: request handler panicked".into(),
                        );
                    }
                }
            }));
            session_lanes.push(tx);
        }
        // The periodic self-reporter: one metrics summary line to stderr
        // every interval, stopped (and joined) at shutdown.
        let reporter = (cfg.metrics_interval_ms > 0).then(|| {
            let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
            let metrics = Arc::clone(&metrics);
            let interval = Duration::from_millis(cfg.metrics_interval_ms);
            let handle = std::thread::spawn(move || loop {
                match stop_rx.recv_timeout(interval) {
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        let s = metrics.summary();
                        let snap = metrics.telemetry.registry().snapshot();
                        let queue_p50 = snap
                            .histogram(stage::QUEUE_WAIT_US)
                            .map(|h| h.percentile(0.50))
                            .unwrap_or(0);
                        eprintln!(
                            "sst-serve: metrics ok={} errors={} rps_x1000={} race_p50_us={} \
                             queue_p50_us={} trace_dropped={}",
                            s.count, s.errors, s.rps_x1000, s.p50_us, queue_p50, s.trace_dropped
                        );
                    }
                    _ => return,
                }
            });
            (stop_tx, handle)
        });
        Ok(Service { pool, session_lanes, lane_handles, metrics, tracker, sessions, reporter })
    }

    /// The lane a session id maps to: splitmix64 finalizer mod lane count.
    /// Every verb of one session hashes identically, so per-session order
    /// holds; distinct sessions spread across lanes. Delegates to
    /// [`crate::session::shard_of`] so a lane and its store shard agree:
    /// with `session_lanes == shard_count`, verbs on one lane only ever
    /// take their own shard's lock, and cross-lane contention vanishes.
    fn lane_of(sid: u64, lanes: usize) -> usize {
        crate::session::shard_of(sid, lanes)
    }

    /// Pulls the `"sid"` value out of a raw session line without a full
    /// parse (dispatch must stay cheap). `None` for malformed lines —
    /// they route to lane 0, whose handler answers with the parse error.
    fn extract_sid(line: &str) -> Option<u64> {
        let bytes = line.as_bytes();
        let at = line.find("\"sid\"")?;
        let mut i = at + "\"sid\"".len();
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        line[start..i].parse().ok()
    }

    /// Cheap routing sniff: session verbs go through the ordered lane. A
    /// false positive (the substring inside a string value of a one-shot
    /// request) merely serializes that request — it is still answered
    /// correctly by the same handler.
    fn is_session_line(line: &str) -> bool {
        line.contains("\"session\"")
    }

    /// Enqueues one request line; its response will be written to `out`.
    /// Session verbs route through the ordered lane keyed by their
    /// session id (per-session arrival order preserved, so pipelined
    /// create/delta/solve sequences are safe); everything else goes to
    /// the work-stealing pool. When a queue cannot take the request —
    /// backlog full, or every worker dead — the client gets an immediate
    /// error line instead of a silent drop (the PR 2
    /// `let _ = sender.send(..)` bug left it hanging forever).
    pub fn dispatch(&self, line: String, out: SharedWriter) {
        let telemetry = &self.metrics.telemetry;
        if telemetry.trace().is_some() {
            let id = crate::protocol::extract_request_id(line.trim()).unwrap_or(0);
            telemetry.emit(TraceEvent::Enqueue { id });
        }
        let enqueued = Instant::now();
        if Self::is_session_line(&line) {
            let lane = Self::extract_sid(&line)
                .map(|sid| Self::lane_of(sid, self.session_lanes.len()))
                .unwrap_or(0);
            self.dispatch_to_lane(lane, Job { payload: Payload::Line(line), out, enqueued });
            return;
        }
        self.dispatch_to_pool(Job { payload: Payload::Line(line), out, enqueued });
    }

    /// Enqueues one verified binary frame (header and checksum already
    /// checked by the connection driver); its response frame will be
    /// written to `out`. Session frames route through the ordered lane
    /// keyed by the sid at the frame's fixed offset — binary session
    /// pipelines get the same per-session arrival order as NDJSON ones.
    /// [`crate::wire::FT_JSON`] frames unwrap to their NDJSON line here
    /// so framed JSON verbs share the line path's routing (and are, like
    /// that path, answered in NDJSON).
    pub fn dispatch_frame(&self, frame_type: u8, payload: Vec<u8>, out: SharedWriter) {
        if frame_type == crate::wire::FT_JSON {
            if let Ok(text) = String::from_utf8(payload) {
                return self.dispatch(text, out);
            }
            // Not UTF-8: let the worker answer the decode error in-frame.
            return self.dispatch_to_pool(Job {
                payload: Payload::Frame { frame_type, payload: Vec::new() },
                out,
                enqueued: Instant::now(),
            });
        }
        let telemetry = &self.metrics.telemetry;
        if telemetry.trace().is_some() {
            let id = crate::wire::request_id(frame_type, &payload).unwrap_or(0);
            telemetry.emit(TraceEvent::Enqueue { id });
        }
        let enqueued = Instant::now();
        if frame_type == crate::wire::FT_SESSION {
            // Malformed session frames (too short for a sid) route to lane
            // 0, whose handler answers with the decode error.
            let lane = crate::wire::session_sid(frame_type, &payload)
                .map(|sid| Self::lane_of(sid, self.session_lanes.len()))
                .unwrap_or(0);
            let job = Job { payload: Payload::Frame { frame_type, payload }, out, enqueued };
            self.dispatch_to_lane(lane, job);
            return;
        }
        self.dispatch_to_pool(Job {
            payload: Payload::Frame { frame_type, payload },
            out,
            enqueued,
        });
    }

    fn dispatch_to_lane(&self, lane: usize, job: Job) {
        let tx = &self.session_lanes[lane];
        if let Err(e) = tx.try_send(job) {
            let (job, what) = match e {
                std::sync::mpsc::TrySendError::Full(job) => (job, "backlog full"),
                std::sync::mpsc::TrySendError::Disconnected(job) => (job, "lane closed"),
            };
            write_error(&self.metrics, &job, format!("overloaded: session {what}"));
        }
    }

    fn dispatch_to_pool(&self, job: Job) {
        let telemetry = &self.metrics.telemetry;
        let result = self.pool.dispatch(job);
        telemetry.registry().gauge(POOL_QUEUED).set(self.pool.queued() as u64);
        telemetry.registry().gauge(POOL_WORKERS_ALIVE).set(self.pool.alive() as u64);
        if let Err(Rejected { job, reason, queued }) = result {
            let message = match reason {
                RejectReason::NoWorkers => "overloaded: no live workers".to_string(),
                RejectReason::QueueFull => {
                    format!("overloaded: backlog full ({queued} requests queued)")
                }
            };
            write_error(&self.metrics, &job, message);
        }
    }

    /// Answers a malformed frame with a structured error frame and counts
    /// it. Used by the connection driver for header/checksum failures
    /// that never become jobs.
    fn frame_error(&self, out: &SharedWriter, e: &sst_core::wire::WireError) {
        self.metrics.telemetry.incr(REQUESTS_ERROR);
        let resp = Response::Error { id: None, message: format!("bad frame: {e}") };
        write_frame(out, &crate::wire::encode_response(&resp));
    }

    /// The running metrics summary (latency counters plus session stats
    /// and win-rate standings).
    pub fn metrics(&self) -> MetricsSummary {
        full_summary(&self.metrics, &self.sessions, &self.tracker)
    }

    /// Workers still alive (decreases under fault injection).
    pub fn alive_workers(&self) -> usize {
        self.pool.alive()
    }

    /// The shared adaptive-selection tracker (all workers feed it).
    pub fn win_rate_tracker(&self) -> &WinRateTracker {
        &self.tracker
    }

    /// The shared session store (all workers serve it).
    pub fn session_store(&self) -> &SessionStore {
        &self.sessions
    }

    /// Closes the queues, drains in-flight work, checkpoints every hot
    /// session (durable mode) and returns final metrics.
    pub fn shutdown(mut self) -> MetricsSummary {
        // Close and drain the session lanes first (dropping the senders
        // ends their loops), then the pool, then persist.
        self.session_lanes.clear();
        for lane in self.lane_handles.drain(..) {
            let _ = lane.join();
        }
        self.pool.shutdown();
        flush_durable_store(&self.sessions);
        if let Some((stop, handle)) = self.reporter.take() {
            let _ = stop.send(());
            let _ = handle.join();
        }
        let summary = full_summary(&self.metrics, &self.sessions, &self.tracker);
        // Close the trace sink last: it drains the ring and appends the
        // final `sink_close` event (with the dropped count), making the
        // trace file self-describing for the zero-drop CI gate.
        self.metrics.telemetry.close_trace();
        summary
    }

    /// Graceful persist: snapshots every hot session and flushes the
    /// journal. A no-op without a durability root. Failures are logged,
    /// not fatal — the journal still holds every accepted verb.
    pub fn flush_durable(&self) {
        flush_durable_store(&self.sessions);
    }
}

fn flush_durable_store(sessions: &SessionStore) {
    let Some(persist) = sessions.persist() else { return };
    if let Err(e) = sessions.checkpoint() {
        eprintln!("sst-serve: shutdown checkpoint failed: {e}");
    }
    if let Err(e) = persist.flush_journal() {
        eprintln!("sst-serve: journal flush failed: {e}");
    }
}

/// Drives one connection carrying mixed NDJSON and binary-frame traffic
/// until EOF, sniffing each message by its first byte: `'S'` (the frame
/// magic's first byte, which can never open a JSON value) starts a frame,
/// anything else an NDJSON line. Responses always go back in the
/// framing the request arrived in, so JSON and binary clients share one
/// socket — and one connection may interleave both.
///
/// A JSON line `{"upgrade": "binary"}` is the in-band switch: the driver
/// acks it with `{"upgrade": "binary", "ok": true}` (in order, ahead of
/// nothing — the ack is written by the driver itself) after which the
/// client starts sending frames. Since sniffing is per-message, the verb
/// is a handshake confirming the server speaks the format, not a mode
/// latch: NDJSON lines keep working after it.
///
/// Malformed frames answer a structured [`Response::Error`] frame and the
/// connection stays alive: a bad magic or oversized length consumes only
/// the 20-byte header, a checksum mismatch or unknown type consumes its
/// frame, and a payload truncated by EOF is answered before the driver
/// returns. Nothing panics; nothing hangs the client.
pub fn drive_connection<R: std::io::BufRead>(
    svc: &Service,
    reader: &mut R,
    out: &SharedWriter,
) -> std::io::Result<()> {
    use sst_core::wire::{FrameHeader, WireError, HEADER_LEN, MAGIC};
    loop {
        let first = {
            let Ok(buf) = reader.fill_buf() else { return Ok(()) };
            if buf.is_empty() {
                return Ok(());
            }
            buf[0]
        };
        if first == MAGIC[0] {
            let mut header = [0u8; HEADER_LEN];
            if reader.read_exact(&mut header).is_err() {
                // EOF (or a dead socket) inside a header: answer what can
                // still be answered and end the connection.
                svc.frame_error(out, &WireError::Truncated { needed: HEADER_LEN, got: 0 });
                return Ok(());
            }
            let parsed = match FrameHeader::parse(&header) {
                Ok(h) => h,
                Err(e) => {
                    // Bad magic / oversized length: only the header was
                    // consumed — in particular an absurd claimed length is
                    // never read, so a corrupt frame cannot stall the
                    // connection or drive a huge allocation.
                    svc.frame_error(out, &e);
                    continue;
                }
            };
            let mut payload = vec![0u8; parsed.len as usize];
            if reader.read_exact(&mut payload).is_err() {
                svc.frame_error(out, &WireError::Truncated { needed: parsed.len as usize, got: 0 });
                return Ok(());
            }
            if let Err(e) = parsed.verify(&payload) {
                // Checksum mismatch: the whole frame was consumed, so the
                // stream is still aligned — answer and keep serving.
                svc.frame_error(out, &e);
                continue;
            }
            svc.dispatch_frame(parsed.frame_type, payload, Arc::clone(out));
        } else {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return Ok(()),
                Ok(_) => {}
            }
            let trimmed = line.trim();
            if trimmed.starts_with('{') && trimmed.contains("\"upgrade\"") {
                write_line(out, "{\"upgrade\": \"binary\", \"ok\": true}");
                continue;
            }
            svc.dispatch(line, Arc::clone(out));
        }
    }
}

/// Serves NDJSON and binary-frame requests from stdin to stdout until
/// EOF; returns the final metrics summary. Stdin EOF is the graceful
/// shutdown signal: in-flight work drains and every hot session is
/// checkpointed before the summary returns.
pub fn serve_stdin(cfg: ServeConfig) -> std::io::Result<MetricsSummary> {
    let svc = Service::try_start(cfg)?;
    let out: SharedWriter = Arc::new(Mutex::named("service.writer", Box::new(std::io::stdout())));
    let mut reader = std::io::stdin().lock();
    drive_connection(&svc, &mut reader, &out)?;
    Ok(svc.shutdown())
}

/// Binds `addr` (e.g. `127.0.0.1:0`), announces
/// `sst-serve listening on <addr>` on stdout, then serves every
/// connection's NDJSON lines until the process is killed. All connections
/// share one worker pool, so `workers` bounds concurrent races globally.
pub fn serve_tcp(cfg: ServeConfig, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    println!("sst-serve listening on {local}");
    std::io::stdout().flush()?;
    let svc = Arc::new(Service::try_start(cfg)?);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else { return };
                    let out: SharedWriter =
                        Arc::new(Mutex::named("service.writer", Box::new(stream)));
                    let mut reader = std::io::BufReader::new(read_half);
                    let _ = drive_connection(&svc, &mut reader, &out);
                });
            }
            Err(e) => {
                // Listener gone (shutdown signal, fd limit, interrupt):
                // persist what we hold instead of dying with hot state.
                eprintln!("sst-serve: accept failed ({e}); flushing sessions and exiting");
                svc.flush_durable();
                svc.metrics.telemetry.close_trace();
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{buffer_writer, writer_to};
    use super::*;
    use crate::model::{Solution, SplittableInstance};
    use crate::protocol::{parse_response, request_to_json, Request};
    use crate::solver::{Cost, ProblemInstance};
    use sst_core::instance::{Job as CoreJob, UniformInstance, UnrelatedInstance};

    /// A mixed bag cycling through all three machine models.
    fn requests() -> Vec<Request> {
        (0..9)
            .map(|i| {
                let instance = match i % 3 {
                    0 => ProblemInstance::Uniform(
                        UniformInstance::identical(
                            2,
                            vec![3],
                            (0..6).map(|x| CoreJob::new(0, 1 + (x + i) % 5)).collect(),
                        )
                        .unwrap(),
                    ),
                    1 => ProblemInstance::Unrelated(
                        UnrelatedInstance::new(
                            2,
                            vec![0, 1, 0],
                            vec![vec![4, 2], vec![3, 3], vec![1 + i, 5]],
                            vec![vec![1, 2], vec![2, 1]],
                        )
                        .unwrap(),
                    ),
                    _ => ProblemInstance::Splittable(SplittableInstance(
                        // Class-uniform ptimes → split3 / split-refine apply.
                        UnrelatedInstance::new(
                            2,
                            vec![0, 0, 1],
                            vec![vec![4 + i, 6], vec![4 + i, 6], vec![9, 3]],
                            vec![vec![1, 2], vec![2, 1]],
                        )
                        .unwrap(),
                    )),
                };
                Request { id: i, instance, budget_ms: Some(50), top_k: Some(2), seed: Some(i) }
            })
            .collect()
    }

    #[test]
    fn service_answers_every_request_with_a_valid_schedule() {
        for mode in [PoolMode::WorkStealing, PoolMode::Sharded] {
            let svc = Service::start(ServeConfig { workers: 3, mode, ..Default::default() });
            let (buffer, _) = buffer_writer();
            let reqs = requests();
            for req in &reqs {
                let out = writer_to(&buffer);
                svc.dispatch(request_to_json(req), out);
            }
            let summary = svc.shutdown();
            assert_eq!(summary.count, reqs.len() as u64);
            assert_eq!(summary.errors, 0);
            let text = String::from_utf8(buffer.lock().clone()).unwrap();
            let mut seen = vec![false; reqs.len()];
            for line in text.lines() {
                let resp = parse_response(line).expect("every line parses");
                let Response::Ok { id, kind, makespan, solution, .. } = resp else {
                    panic!("unexpected response: {line}");
                };
                let req = &reqs[id as usize];
                assert_eq!(kind, req.instance.kind(), "request {id}");
                let cost = req.instance.evaluate(&solution).expect("valid solution");
                assert_eq!(cost, makespan, "reported makespan must match the solution");
                // Quality floor: never worse than greedy (split-greedy for
                // the splittable model).
                let greedy = req.instance.greedy();
                assert!(!greedy.cost.better_than(&cost));
                seen[id as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "every request answered ({mode:?}): {seen:?}");
        }
    }

    #[test]
    fn metrics_probe_reports_stage_and_solver_telemetry() {
        let (sink, trace_buf) = TraceSink::to_shared_buffer();
        let svc =
            Service::start(ServeConfig { workers: 2, trace: Some(sink), ..Default::default() });
        let (buffer, _) = buffer_writer();
        let reqs = requests();
        for req in &reqs {
            svc.dispatch(request_to_json(req), writer_to(&buffer));
        }
        let summary = svc.shutdown();
        assert_eq!(summary.errors, 0);
        // Per-stage histograms: queue-wait, race and total are all
        // first-class rows now (satellite: record_ok only recorded race
        // wall time before).
        let stage = |name: &str| summary.stages.iter().find(|s| s.stage == name);
        assert_eq!(stage("queue_wait_us").expect("queue_wait row").count, reqs.len() as u64);
        assert_eq!(stage("race_us").expect("race row").count, reqs.len() as u64);
        let total = stage("total_us").expect("total row");
        assert_eq!(total.count, reqs.len() as u64);
        assert!(
            total.max_us >= stage("race_us").unwrap().max_us,
            "enqueue→respond total includes the race"
        );
        // Per-solver standings: every race crowns exactly one winner.
        let wins: u64 = summary.solver_latency.iter().map(|s| s.wins).sum();
        assert_eq!(wins, reqs.len() as u64, "{:?}", summary.solver_latency);
        let improvements: u64 = summary.solver_latency.iter().map(|s| s.improvements).sum();
        assert!(improvements >= reqs.len() as u64, "baseline publishes alone improve");
        assert_eq!(summary.trace_dropped, 0);
        // The trace carries a complete span chain per request id.
        let text = String::from_utf8(trace_buf.lock().clone()).unwrap();
        for req in &reqs {
            let idtag = format!("\"id\": {}", req.id);
            for kind in ["enqueue", "dequeue", "race_start", "respond"] {
                assert!(
                    text.lines().any(
                        |l| l.contains(&idtag) && l.contains(&format!("\"event\": \"{kind}\""))
                    ),
                    "missing {kind} event for request {}:\n{text}",
                    req.id
                );
            }
        }
    }

    #[test]
    fn bad_lines_produce_error_responses_and_count_as_errors() {
        let svc = Service::start(ServeConfig { workers: 1, ..Default::default() });
        let (buffer, out) = buffer_writer();
        svc.dispatch("this is not json".into(), Arc::clone(&out));
        svc.dispatch(String::new(), Arc::clone(&out)); // blank lines are ignored
                                                       // Parses as JSON with an id, but the instance fails validation
                                                       // (speed 0): the error must echo the id for correlation.
        svc.dispatch(
            "{\"id\": 41, \"instance\": {\"version\": 1, \"kind\": \"uniform\", \
             \"speeds\": [0], \"setups\": [], \"jobs\": []}}"
                .into(),
            Arc::clone(&out),
        );
        svc.dispatch("{\"metrics\": true}".into(), out);
        let summary = svc.shutdown();
        assert_eq!(summary.errors, 2);
        assert_eq!(summary.count, 0);
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        let responses: Vec<Response> = text.lines().map(|l| parse_response(l).unwrap()).collect();
        assert_eq!(responses.len(), 3, "{text}");
        assert!(matches!(responses[0], Response::Error { id: None, .. }));
        assert!(
            matches!(responses[1], Response::Error { id: Some(41), .. }),
            "id must be echoed on semi-parseable requests: {:?}",
            responses[1]
        );
        assert!(matches!(responses[2], Response::Metrics(_)));
    }

    #[test]
    fn per_request_budget_is_respected() {
        // One slow-ish unrelated instance with a tiny budget: the response
        // must come back quickly and still beat-or-tie greedy.
        let inst = ProblemInstance::Unrelated(
            UnrelatedInstance::new(
                4,
                (0..60).map(|j| j % 6).collect(),
                (0..60)
                    .map(|j| (0..4).map(|i| 1 + ((j * 7 + i * 13) % 23) as u64).collect())
                    .collect(),
                (0..6).map(|k| (0..4).map(|i| 1 + ((k + i) % 9) as u64).collect()).collect(),
            )
            .unwrap(),
        );
        let svc = Service::start(ServeConfig { workers: 1, ..Default::default() });
        let (buffer, out) = buffer_writer();
        let req = Request {
            id: 0,
            instance: inst.clone(),
            budget_ms: Some(20),
            top_k: Some(3),
            seed: None,
        };
        let t0 = Instant::now();
        svc.dispatch(request_to_json(&req), out);
        svc.shutdown();
        // Generous overshoot allowance: deadline + check intervals + joins.
        assert!(
            t0.elapsed() < Duration::from_millis(2000),
            "budgeted request took {:?}",
            t0.elapsed()
        );
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        let resp = parse_response(text.lines().next().unwrap()).unwrap();
        let Response::Ok { makespan, solution, .. } = resp else { panic!("{text}") };
        let cost = inst.evaluate(&solution).unwrap();
        assert_eq!(cost, makespan);
        assert!(matches!(cost, Cost::Time(_)));
    }

    /// Regression test for the PR 2 silent-drop bug: `dispatch` did
    /// `let _ = sender.send(..)`, so a dead worker swallowed requests and
    /// clients hung forever. Killing the only worker must instead produce
    /// a JSON error line for every subsequent request.
    #[test]
    fn dead_worker_pool_answers_with_error_lines_instead_of_hanging() {
        let svc =
            Service::start(ServeConfig { workers: 1, fault_injection: true, ..Default::default() });
        let (buffer, out) = buffer_writer();
        svc.dispatch("{\"kill_worker\": true}".into(), Arc::clone(&out));
        // Wait until the pool has observed the death.
        for _ in 0..1000 {
            if svc.alive_workers() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(svc.alive_workers(), 0);
        let req = &requests()[0];
        svc.dispatch(request_to_json(req), Arc::clone(&out));
        // The client must get its error line synchronously — no hang.
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        let responses: Vec<Response> = text.lines().map(|l| parse_response(l).unwrap()).collect();
        assert_eq!(responses.len(), 1, "{text}");
        assert!(
            matches!(&responses[0], Response::Error { id: Some(0), message }
                if message.contains("no live workers")),
            "{responses:?}"
        );
        let summary = svc.shutdown();
        assert_eq!(summary.errors, 1);
    }

    /// With ≥ 2 workers, killing one must not lose capacity for queued
    /// work: the survivor steals the dead worker's backlog.
    #[test]
    fn killed_worker_hands_its_backlog_to_survivors() {
        let svc =
            Service::start(ServeConfig { workers: 2, fault_injection: true, ..Default::default() });
        let (buffer, _) = buffer_writer();
        let reqs = requests();
        svc.dispatch("{\"kill_worker\": true}".into(), {
            let (_, out) = buffer_writer();
            out
        });
        for req in &reqs {
            let out = writer_to(&buffer);
            svc.dispatch(request_to_json(req), out);
        }
        let summary = svc.shutdown();
        assert_eq!(summary.count, reqs.len() as u64, "every request answered");
        assert_eq!(summary.errors, 0);
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        assert_eq!(text.lines().count(), reqs.len());
    }

    #[test]
    fn kill_worker_without_fault_injection_is_rejected() {
        let svc = Service::start(ServeConfig { workers: 1, ..Default::default() });
        let (buffer, out) = buffer_writer();
        svc.dispatch("{\"kill_worker\": true}".into(), out);
        let summary = svc.shutdown();
        assert_eq!(summary.errors, 1);
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        let resp = parse_response(text.lines().next().unwrap()).unwrap();
        assert!(
            matches!(&resp, Response::Error { message, .. } if message.contains("fault-injection")),
            "{resp:?}"
        );
    }

    #[test]
    fn backlog_overflow_answers_with_overload_errors() {
        // One worker, a 2-deep queue, and a 60-request burst: dispatch
        // outruns the worker (a race costs milliseconds, a dispatch
        // microseconds), so some requests must be refused — and every
        // refusal must be an immediate error line, never a silent drop.
        let svc = Service::start(ServeConfig { workers: 1, max_queue: 2, ..Default::default() });
        let (buffer, out) = buffer_writer();
        let template = requests();
        for i in 0..60u64 {
            let mut req = template[(i % 8) as usize].clone();
            req.id = i;
            svc.dispatch(request_to_json(&req), Arc::clone(&out));
        }
        let summary = svc.shutdown();
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        let responses: Vec<Response> = text.lines().map(|l| parse_response(l).unwrap()).collect();
        assert_eq!(responses.len(), 60, "every request answered, served or refused");
        let overloads = responses
            .iter()
            .filter(
                |r| matches!(r, Response::Error { message, .. } if message.contains("overloaded")),
            )
            .count();
        assert!(overloads > 0, "a 2-deep queue cannot absorb a 60-request burst");
        assert_eq!(summary.errors, overloads as u64);
        assert_eq!(summary.count + summary.errors, 60);
    }

    #[test]
    fn session_lifecycle_repairs_and_floors() {
        use crate::protocol::{session_request_to_json, SessionRequest, SessionVerb};
        use sst_core::delta::InstanceDelta;

        // Multiple workers + blind pipelining: the ordered session lane —
        // not client pacing — must keep the lifecycle in arrival order.
        let svc = Service::start(ServeConfig { workers: 3, ..Default::default() });
        let (buffer, _) = buffer_writer();
        let instance = ProblemInstance::Uniform(
            UniformInstance::identical(
                3,
                vec![4, 2],
                (0..18).map(|i| CoreJob::new(i % 2, 1 + (i as u64 * 5) % 9)).collect(),
            )
            .unwrap(),
        );
        let lifecycle = vec![
            SessionRequest { id: 0, verb: SessionVerb::Create { sid: 9, instance } },
            SessionRequest {
                id: 1,
                verb: SessionVerb::Delta {
                    sid: 9,
                    deltas: vec![
                        InstanceDelta::AddJob { class: 0, times: vec![7] },
                        InstanceDelta::AddJob { class: 1, times: vec![3] },
                        InstanceDelta::RemoveJob { job: 2 },
                        InstanceDelta::ResizeSetup { class: 1, times: vec![6] },
                    ],
                },
            },
            SessionRequest {
                id: 2,
                verb: SessionVerb::Solve {
                    sid: 9,
                    budget_ms: Some(40),
                    top_k: Some(2),
                    seed: Some(1),
                },
            },
            SessionRequest { id: 3, verb: SessionVerb::Close { sid: 9 } },
            // Requests against the closed session must error, not hang.
            SessionRequest {
                id: 4,
                verb: SessionVerb::Solve { sid: 9, budget_ms: None, top_k: None, seed: None },
            },
        ];
        for req in &lifecycle {
            svc.dispatch(session_request_to_json(req), writer_to(&buffer));
        }
        let summary = svc.shutdown();
        assert_eq!(summary.errors, 1, "only the post-close solve errors");
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        let responses: Vec<Response> = text.lines().map(|l| parse_response(l).unwrap()).collect();
        assert_eq!(responses.len(), 5, "{text}");
        let Response::Session { sid: 9, verb: ref v0, makespan: Some(created_cost), .. } =
            responses[0]
        else {
            panic!("create ack expected: {:?}", responses[0]);
        };
        assert_eq!(v0, "create");
        let Response::Ok { solver: ref repair_solver, makespan: repaired_cost, .. } = responses[1]
        else {
            panic!("delta must answer with the repaired incumbent: {:?}", responses[1]);
        };
        assert_eq!(repair_solver, "delta-repair");
        let Response::Ok { makespan: solved_cost, .. } = responses[2] else {
            panic!("solve must answer ok: {:?}", responses[2]);
        };
        // The repaired incumbent is the solve's floor: the warm re-solve
        // can only improve on it.
        assert!(
            !repaired_cost.better_than(&solved_cost),
            "solve ({solved_cost:?}) must not lose to the repaired floor ({repaired_cost:?})"
        );
        let _ = created_cost;
        assert!(
            matches!(responses[3], Response::Session { verb: ref v, live: 0, .. } if v == "close")
        );
        assert!(
            matches!(&responses[4], Response::Error { id: Some(4), message } if message.contains("unknown session")),
            "{:?}",
            responses[4]
        );
        // Metrics carried the session counters while it lived (checked via
        // the final summary: one warm decision was recorded).
        assert_eq!(summary.sessions.warm_hits + summary.sessions.warm_misses, 1);
        assert_eq!(summary.sessions.live, 0);
    }

    #[test]
    fn splittable_sessions_repair_on_the_integral_proxy() {
        use crate::protocol::{session_request_to_json, SessionRequest, SessionVerb};
        use sst_core::delta::InstanceDelta;

        let svc = Service::start(ServeConfig { workers: 2, ..Default::default() });
        let (buffer, _) = buffer_writer();
        let inner = UnrelatedInstance::new(
            2,
            vec![0, 0, 1],
            vec![vec![4, 6], vec![4, 6], vec![9, 3]],
            vec![vec![1, 2], vec![2, 1]],
        )
        .unwrap();
        let instance = ProblemInstance::Splittable(SplittableInstance(inner));
        let lifecycle = vec![
            SessionRequest { id: 0, verb: SessionVerb::Create { sid: 1, instance } },
            SessionRequest {
                id: 1,
                verb: SessionVerb::Delta {
                    sid: 1,
                    deltas: vec![
                        InstanceDelta::AddJob { class: 0, times: vec![4, 6] },
                        InstanceDelta::ResizeJob { job: 2, times: vec![9, 5] },
                    ],
                },
            },
            SessionRequest {
                id: 2,
                verb: SessionVerb::Solve {
                    sid: 1,
                    budget_ms: Some(40),
                    top_k: Some(2),
                    seed: Some(3),
                },
            },
        ];
        for req in &lifecycle {
            svc.dispatch(session_request_to_json(req), writer_to(&buffer));
        }
        let summary = svc.shutdown();
        assert_eq!(summary.errors, 0);
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        let responses: Vec<Response> = text.lines().map(|l| parse_response(l).unwrap()).collect();
        let Response::Ok { kind: ref k1, solution: ref repaired, makespan: repaired_cost, .. } =
            responses[1]
        else {
            panic!("{:?}", responses[1]);
        };
        assert_eq!(k1, "splittable");
        assert!(matches!(repaired, Solution::Split(_)), "split incumbent repaired as shares");
        let Response::Ok { makespan: solved_cost, ref solution, .. } = responses[2] else {
            panic!("{:?}", responses[2]);
        };
        assert!(!repaired_cost.better_than(&solved_cost), "floor holds for the split model too");
        assert!(matches!(solution, Solution::Split(_)));
    }

    #[test]
    fn session_store_evictions_surface_in_metrics() {
        use crate::protocol::{session_request_to_json, SessionRequest, SessionVerb};

        let svc = Service::start(ServeConfig { workers: 1, max_sessions: 2, ..Default::default() });
        let (buffer, _) = buffer_writer();
        for sid in 0..4u64 {
            let instance = ProblemInstance::Uniform(
                UniformInstance::identical(2, vec![1], vec![CoreJob::new(0, 1 + sid)]).unwrap(),
            );
            let req = SessionRequest { id: sid, verb: SessionVerb::Create { sid, instance } };
            svc.dispatch(session_request_to_json(&req), writer_to(&buffer));
        }
        let summary = svc.shutdown();
        assert_eq!(summary.sessions.live, 2, "LRU bound holds");
        assert_eq!(summary.sessions.evicted, 2, "evictions are counted");
    }

    #[test]
    fn adaptive_tracker_accumulates_across_requests() {
        let svc = Service::start(ServeConfig { workers: 2, ..Default::default() });
        let (_, out) = buffer_writer();
        let reqs = requests();
        for req in &reqs {
            svc.dispatch(request_to_json(req), Arc::clone(&out));
        }
        // Drain before inspecting the tracker.
        let uniform = crate::features::extract_features(&reqs[0].instance);
        let family = WinRateTracker::family_key(&uniform);
        // Can't inspect after shutdown (tracker moves with the service), so
        // wait for all responses via metrics polling.
        for _ in 0..2000 {
            if svc.metrics().count == reqs.len() as u64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let raced_total: u64 = crate::select::registry()
            .iter()
            .map(|s| svc.win_rate_tracker().stats(&family, s.name()).races)
            .sum();
        // 3 uniform requests with top_k = 2 → 6 slot-races recorded.
        assert_eq!(raced_total, 6, "every uniform race must feed the shared tracker");
        svc.shutdown();
    }

    #[test]
    fn crash_probe_without_fault_injection_is_rejected() {
        let svc = Service::start(ServeConfig { workers: 1, ..Default::default() });
        let (buffer, out) = buffer_writer();
        svc.dispatch("{\"crash\": true}".into(), out);
        let summary = svc.shutdown();
        assert_eq!(summary.errors, 1);
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        let resp = parse_response(text.lines().next().unwrap()).unwrap();
        assert!(
            matches!(&resp, Response::Error { message, .. } if message.contains("fault-injection")),
            "{resp:?}"
        );
    }

    /// A tiny uniform instance whose greedy differs per sid (for traffic).
    fn small_instance(salt: u64) -> ProblemInstance {
        ProblemInstance::Uniform(
            UniformInstance::identical(
                2,
                vec![2],
                (0..4).map(|i| CoreJob::new(0, 1 + (i + salt) % 5)).collect(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn keyed_lanes_preserve_per_session_verb_order() {
        use crate::protocol::{session_request_to_json, SessionRequest, SessionVerb};
        use sst_core::delta::InstanceDelta;

        // Three sessions, five verbs each, dispatched fully interleaved
        // (round-robin by step). Whatever lanes they hash to, each
        // session's responses must come back in its own program order.
        let svc = Service::start(ServeConfig { workers: 2, ..Default::default() });
        let (buffer, _) = buffer_writer();
        let sids = [3u64, 7, 12];
        for step in 0..5u64 {
            for &sid in &sids {
                let id = sid * 100 + step;
                let verb = match step {
                    0 => SessionVerb::Create { sid, instance: small_instance(sid) },
                    4 => SessionVerb::Close { sid },
                    _ => SessionVerb::Delta {
                        sid,
                        deltas: vec![InstanceDelta::AddJob { class: 0, times: vec![2 + step] }],
                    },
                };
                let req = SessionRequest { id, verb };
                svc.dispatch(session_request_to_json(&req), writer_to(&buffer));
            }
        }
        let summary = svc.shutdown();
        assert_eq!(summary.errors, 0);
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        let ids: Vec<u64> = text
            .lines()
            .map(|l| match parse_response(l).unwrap() {
                Response::Ok { id, .. } | Response::Session { id, .. } => id,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(ids.len(), 15, "{text}");
        for &sid in &sids {
            let steps: Vec<u64> =
                ids.iter().filter(|&&id| id / 100 == sid).map(|&id| id % 100).collect();
            assert_eq!(steps, vec![0, 1, 2, 3, 4], "session {sid} verbs ran out of order");
        }
    }

    #[test]
    fn distinct_sessions_run_on_concurrent_lanes() {
        use crate::protocol::{session_request_to_json, SessionRequest, SessionVerb};

        // A slow solve on session A must not delay session B's verbs: they
        // hash to different lanes. With the old single lane, B's close
        // could only answer after A's 250 ms race finished.
        let lanes = 4;
        let sid_a = 0u64;
        let sid_b = (1..64)
            .find(|&s| Service::lane_of(s, lanes) != Service::lane_of(sid_a, lanes))
            .expect("splitmix64 spreads 64 consecutive sids over 4 lanes");
        let big = ProblemInstance::Unrelated(
            UnrelatedInstance::new(
                4,
                (0..60).map(|j| j % 6).collect(),
                (0..60)
                    .map(|j| (0..4).map(|i| 1 + ((j * 7 + i * 13) % 23) as u64).collect())
                    .collect(),
                (0..6).map(|k| (0..4).map(|i| 1 + ((k + i) % 9) as u64).collect()).collect(),
            )
            .unwrap(),
        );
        let svc =
            Service::start(ServeConfig { workers: 1, session_lanes: lanes, ..Default::default() });
        let (buffer, _) = buffer_writer();
        let program = vec![
            SessionRequest { id: 0, verb: SessionVerb::Create { sid: sid_a, instance: big } },
            SessionRequest {
                id: 1,
                verb: SessionVerb::Solve {
                    sid: sid_a,
                    budget_ms: Some(250),
                    top_k: Some(2),
                    seed: Some(1),
                },
            },
            SessionRequest {
                id: 2,
                verb: SessionVerb::Create { sid: sid_b, instance: small_instance(1) },
            },
            SessionRequest { id: 3, verb: SessionVerb::Close { sid: sid_b } },
        ];
        for req in &program {
            svc.dispatch(session_request_to_json(req), writer_to(&buffer));
        }
        let summary = svc.shutdown();
        assert_eq!(summary.errors, 0);
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        let order: Vec<u64> = text
            .lines()
            .map(|l| match parse_response(l).unwrap() {
                Response::Ok { id, .. } | Response::Session { id, .. } => id,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(order.len(), 4, "{text}");
        let pos = |id: u64| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(3) < pos(1), "B's close must answer while A's solve still races: {order:?}");
    }

    #[test]
    fn durable_sessions_survive_graceful_restart() {
        use crate::protocol::{session_request_to_json, SessionRequest, SessionVerb};
        use sst_core::delta::InstanceDelta;

        let root = std::env::temp_dir().join(format!("sst-service-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = ServeConfig {
            workers: 1,
            max_sessions: 2,
            data_dir: Some(root.clone()),
            durability: Durability::Flush,
            ..Default::default()
        };

        let svc = Service::start(cfg.clone());
        let (buffer, _) = buffer_writer();
        for sid in 1..=3u64 {
            let req = SessionRequest {
                id: sid,
                verb: SessionVerb::Create { sid, instance: small_instance(sid) },
            };
            svc.dispatch(session_request_to_json(&req), writer_to(&buffer));
        }
        let req = SessionRequest {
            id: 10,
            verb: SessionVerb::Delta {
                sid: 1,
                deltas: vec![InstanceDelta::AddJob { class: 0, times: vec![4] }],
            },
        };
        svc.dispatch(session_request_to_json(&req), writer_to(&buffer));
        let summary = svc.shutdown();
        assert_eq!(summary.errors, 0);
        assert!(summary.sessions.spills >= 1, "3 creates into a 2-slot store must spill");
        assert!(summary.sessions.journal_appends >= 4);
        // Group commit is on by default: every append above went through
        // the committer, so the batch histogram must surface in metrics.
        assert!(summary.journal_batches >= 1, "committer flushed at least one batch");
        assert!(summary.journal_batch_max >= 1, "batches contain records");

        // Same data dir: every session — hot at shutdown or spilled — must
        // come back and answer a solve.
        let svc = Service::start(cfg);
        let (buffer, _) = buffer_writer();
        for sid in 1..=3u64 {
            let req = SessionRequest {
                id: sid,
                verb: SessionVerb::Solve {
                    sid,
                    budget_ms: Some(30),
                    top_k: Some(2),
                    seed: Some(1),
                },
            };
            svc.dispatch(session_request_to_json(&req), writer_to(&buffer));
        }
        let summary = svc.shutdown();
        assert_eq!(summary.errors, 0, "every recovered session answers its solve");
        assert_eq!(summary.sessions.recovered, 3, "all three sessions recovered");
        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            assert!(matches!(parse_response(line).unwrap(), Response::Ok { .. }), "{line}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
