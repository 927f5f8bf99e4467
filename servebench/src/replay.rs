//! The traced replay: the same seeded messages fed in process through each
//! layer's public functions, in the order the service handles them, with
//! a span around every call. Per-layer numbers come from here; end-to-end
//! numbers never do.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sst_core::cancel::CancelToken;
use sst_core::wire::decode_frame;
use sst_portfolio::durable::{Durability, DurableStore};
use sst_portfolio::protocol::{
    parse_incoming, response_to_json, Incoming, Response, SessionVerb, SolverLine,
};
use sst_portfolio::race::{race_adaptive, race_with_floor, Incumbent, RaceConfig, RaceResult};
use sst_portfolio::select::{registry, WinRateTracker};
use sst_portfolio::session::{SessionEntry, SessionStore};
use sst_portfolio::wire::{decode_incoming, encode_response};
use sst_portfolio::{extract_features, SolveContext};

use crate::spans::Recorder;
use crate::workload::{Message, Pool, MAX_SESSIONS};

/// The race response the service builds from a race result.
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

fn race_config(
    budget_ms: Option<u64>,
    top_k: Option<usize>,
    seed: Option<u64>,
    budget: u64,
) -> RaceConfig {
    RaceConfig {
        top_k: top_k.unwrap_or(3),
        budget: Duration::from_millis(budget_ms.unwrap_or(budget)),
        seed: seed.unwrap_or(1),
    }
}

/// Replays stateless NDJSON solves: decode → race → encode. Stops after
/// `count` requests or at `deadline`; returns how many ran.
pub fn stateless(
    rec: &mut Recorder,
    pool: &Pool,
    count: usize,
    budget_ms: u64,
    deadline: Instant,
) -> Result<usize, String> {
    let tracker = WinRateTracker::new();
    for i in 0..count {
        if Instant::now() >= deadline {
            return Ok(i);
        }
        let id = i as u64;
        let line = pool.line(i, id);
        let root = rec.open("request", None, id);
        let incoming = rec.time("protocol.decode", root, || parse_incoming(line.trim()));
        let Ok(Incoming::Solve(req)) = incoming else {
            return Err(format!("replayed request {id} did not decode as a solve"));
        };
        let cfg = race_config(req.budget_ms, req.top_k, req.seed, budget_ms);
        let t0 = Instant::now();
        let result =
            rec.time("race.race", root, || race_adaptive(&req.instance, &cfg, Some(&tracker)));
        let resp = ok_response(id, req.instance.kind(), t0.elapsed().as_micros() as u64, result);
        let text = rec.time("protocol.encode", root, || response_to_json(&resp));
        black_box(text);
        rec.close(root);
    }
    Ok(count)
}

/// Replays packed session verbs against an in-process durable store in
/// `data_dir`: decode → store read → repair → journal append → store
/// update → encode for a delta, decode → store read → race → store update
/// → encode for a solve. Returns how many verbs ran before `deadline`.
pub fn sessions(
    rec: &mut Recorder,
    messages: &[Message],
    data_dir: &Path,
    budget_ms: u64,
    deadline: Instant,
) -> Result<usize, String> {
    let err = |e: std::io::Error| e.to_string();
    let store = Arc::new(DurableStore::open(data_dir, Durability::Flush).map_err(err)?);
    let sessions = SessionStore::durable(MAX_SESSIONS, Arc::clone(&store)).with_shards(1);
    let tracker = WinRateTracker::new();
    let mut journaled: HashMap<u64, u64> = HashMap::new();
    for (done, msg) in messages.iter().enumerate() {
        if Instant::now() >= deadline {
            return Ok(done);
        }
        let id = msg.id;
        let root = rec.open("request", None, id);
        let incoming = rec.time("wire.decode", root, || {
            decode_frame(&msg.bytes).and_then(|(ft, payload)| decode_incoming(ft, payload))
        });
        let Ok(Incoming::Session(req)) = incoming else {
            return Err(format!("replayed verb {id} did not decode as a session verb"));
        };
        let t0 = Instant::now();
        let missing = |sid| format!("replayed verb {id}: unknown session {sid}");
        let resp = match req.verb {
            SessionVerb::Create { sid, instance } => {
                let seq = rec.time("durable.append", root, || store.append_create(sid, &instance));
                let seq = seq.map_err(err)?;
                let greedy = rec.time("session.greedy", root, || instance.greedy());
                let entry = SessionEntry {
                    instance: Arc::new(instance),
                    incumbent: greedy.solution,
                    cost: greedy.cost,
                    proxy: None,
                };
                let (live, _) =
                    rec.time("session.store_update", root, || sessions.create(sid, entry, seq));
                journaled.insert(sid, 1);
                Response::Session {
                    id,
                    sid,
                    verb: "create".into(),
                    live: live as u64,
                    makespan: Some(greedy.cost),
                }
            }
            SessionVerb::Delta { sid, deltas } => {
                let entry = rec.time("session.store_read", root, || sessions.snapshot(sid));
                let entry = entry.ok_or_else(|| missing(sid))?;
                let repaired = rec.time("session.repair", root, || {
                    entry.instance.ops().repair_deltas(
                        &entry.incumbent,
                        entry.proxy.as_ref(),
                        &deltas,
                    )
                })?;
                let seq = rec.time("durable.append", root, || store.append_delta(sid, &deltas));
                let seq = seq.map_err(err)?;
                let resp = Response::Ok {
                    id,
                    kind: repaired.instance.kind().to_string(),
                    solver: "delta-repair".to_string(),
                    micros: t0.elapsed().as_micros() as u64,
                    makespan: repaired.cost,
                    solution: repaired.incumbent.clone(),
                    solvers: Vec::new(),
                };
                let next = SessionEntry {
                    instance: Arc::new(repaired.instance),
                    incumbent: repaired.incumbent,
                    cost: repaired.cost,
                    proxy: repaired.proxy,
                };
                // Every `snapshot_every` journaled verbs the service writes
                // the session's snapshot, as the store's periodic check does.
                let count = journaled.entry(sid).or_insert(0);
                *count += 1;
                let snapshot = count.is_multiple_of(store.snapshot_every()).then(|| next.clone());
                rec.time("session.store_update", root, || sessions.update(sid, next, seq));
                if let Some(entry) = snapshot {
                    let wrote = rec
                        .time("durable.snapshot", root, || store.write_snapshot(sid, seq, &entry));
                    wrote.map_err(err)?;
                }
                resp
            }
            SessionVerb::Solve { sid, budget_ms: b, top_k, seed } => {
                let entry = rec.time("session.store_read", root, || sessions.snapshot(sid));
                let entry = entry.ok_or_else(|| missing(sid))?;
                let cfg = race_config(b, top_k, seed, budget_ms);
                let floor = Some((entry.incumbent.clone(), entry.cost));
                let result = rec.time("race.race", root, || {
                    race_with_floor(&entry.instance, &cfg, Some(&tracker), floor)
                });
                let updated = SessionEntry {
                    instance: Arc::clone(&entry.instance),
                    incumbent: result.solution.clone(),
                    cost: result.cost,
                    proxy: entry.proxy.clone(),
                };
                rec.time("session.store_update", root, || sessions.update_incumbent(sid, updated));
                ok_response(id, entry.instance.kind(), t0.elapsed().as_micros() as u64, result)
            }
            SessionVerb::Close { sid } => {
                rec.time("session.store_update", root, || sessions.close(sid));
                rec.time("durable.append", root, || store.append_close(sid)).map_err(err)?;
                journaled.remove(&sid);
                Response::Session {
                    id,
                    sid,
                    verb: "close".into(),
                    live: sessions.live() as u64,
                    makespan: None,
                }
            }
        };
        let frame = rec.time("wire.encode", root, || encode_response(&resp));
        black_box(frame);
        rec.close(root);
    }
    Ok(messages.len())
}

/// Times crash recovery over copies of a data directory: each call opens
/// a fresh copy and runs `recover()`, as a restarted server does.
pub fn recover(rec: &mut Recorder, copies: &[std::path::PathBuf]) -> Result<(), String> {
    for (i, dir) in copies.iter().enumerate() {
        let root = rec.open("restart", None, i as u64);
        let recovered = rec.time("durable.recover", root, || {
            DurableStore::open(dir, Durability::Flush).and_then(|store| store.recover())
        });
        recovered.map_err(|e| e.to_string())?;
        rec.close(root);
    }
    Ok(())
}

/// The kernels each run alone, under the workload budget.
pub const KERNELS: [(&str, &str); 6] = [
    ("greedy", "kernels.greedy"),
    ("local-search", "kernels.local_search"),
    ("anneal", "kernels.anneal"),
    ("rounding", "kernels.rounding"),
    ("split3", "kernels.split3"),
    ("split-refine", "kernels.split_refine"),
];

/// Runs every kernel of [`KERNELS`] that supports each of the first
/// `count` pool instances alone, each under its own `budget` deadline.
/// Returns `(rounding runs, rounding runs that completed)`.
pub fn kernels(rec: &mut Recorder, pool: &Pool, count: usize, budget: Duration) -> (u64, u64) {
    let (mut runs, mut done) = (0, 0);
    for index in 0..count.min(pool.len()) {
        let instance = &pool.prepared(index).instance;
        let features = extract_features(instance);
        let root = rec.open("kernel_solo", None, index as u64);
        for (name, span) in KERNELS {
            let Some(solver) = registry().iter().find(|s| s.name() == name) else { continue };
            if !solver.supports(&features) {
                continue;
            }
            let incumbent = Incumbent::new();
            let outcome = rec.time(span, root, || {
                let cancel = CancelToken::with_deadline(budget);
                solver.solve(
                    instance,
                    &SolveContext { cancel: &cancel, seed: 1, incumbent: &incumbent },
                )
            });
            if name == "rounding" {
                runs += 1;
                done += u64::from(outcome.is_some_and(|o| o.complete));
            }
        }
        rec.close(root);
    }
    (runs, done)
}
