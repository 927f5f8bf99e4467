//! The `sst` subcommands, factored as library functions returning their
//! output as a `String` so tests drive them without a subprocess.

use crate::args::{ArgError, Args};
use rayon::prelude::*;
use sst_algos::cupt::solve_class_uniform_ptimes;
use sst_algos::exact::{exact_uniform, exact_unrelated};
use sst_algos::list::{greedy_uniform, greedy_unrelated};
use sst_algos::local_search::{improve_uniform, improve_unrelated};
use sst_algos::lpt::lpt_with_setups_makespan;
use sst_algos::ptas::{ptas_uniform, PtasConfig};
use sst_algos::ra::solve_ra_class_uniform;
use sst_algos::rounding::{solve_unrelated_randomized, RoundingConfig};
use sst_core::bounds::{uniform_lower_bound, unrelated_lower_bound};
use sst_core::io;
use sst_core::schedule::{uniform_makespan, unrelated_makespan, Schedule};
use sst_core::timeline::{render_gantt, render_gantt_svg, Timeline};
use sst_core::wire;
use sst_gen::{SetupWeight, SpeedProfile, UniformParams, UnrelatedParams};

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

impl From<io::IoError> for CliError {
    fn from(e: io::IoError) -> Self {
        CliError(e.to_string())
    }
}

/// Either kind of instance, as loaded from disk.
pub enum AnyInstance {
    /// Uniformly related machines.
    Uniform(sst_core::UniformInstance),
    /// Unrelated machines (including restricted assignment).
    Unrelated(sst_core::UnrelatedInstance),
}

/// Loads an instance file, sniffing its format by the first byte (`S`
/// of the frame magic = packed container, anything else = JSON with a
/// `kind` field). Splittable-kind files share the unrelated payload; the
/// integral commands (solve, evaluate, info, …) treat them as unrelated
/// data — the split *solution space* is served by `sst serve`
/// (`instance.kind: "splittable"`).
pub fn load_instance(path: &str) -> Result<AnyInstance, CliError> {
    let bytes = std::fs::read(path)?;
    if bytes.first() == Some(&wire::MAGIC[0]) {
        return match wire::instance_from_container(&bytes)
            .map_err(|e| CliError(format!("{path}: {e}")))?
        {
            wire::PackedInstance::Uniform(u) => Ok(AnyInstance::Uniform(u)),
            wire::PackedInstance::Unrelated(u) | wire::PackedInstance::Splittable(u) => {
                Ok(AnyInstance::Unrelated(u))
            }
        };
    }
    let text = String::from_utf8(bytes).map_err(|e| CliError(format!("{path}: {e}")))?;
    if text.contains("\"kind\": \"uniform\"") || text.contains("\"kind\":\"uniform\"") {
        Ok(AnyInstance::Uniform(io::uniform_from_json(&text)?))
    } else if text.contains("\"kind\": \"splittable\"") || text.contains("\"kind\":\"splittable\"")
    {
        Ok(AnyInstance::Unrelated(io::splittable_from_json(&text)?))
    } else {
        Ok(AnyInstance::Unrelated(io::unrelated_from_json(&text)?))
    }
}

/// Parses JSON instance text into a kind-preserving [`wire::PackedInstance`].
fn packed_from_json(text: &str) -> Result<wire::PackedInstance, CliError> {
    if text.contains("\"kind\": \"uniform\"") || text.contains("\"kind\":\"uniform\"") {
        Ok(wire::PackedInstance::Uniform(io::uniform_from_json(text)?))
    } else if text.contains("\"kind\": \"splittable\"") || text.contains("\"kind\":\"splittable\"")
    {
        Ok(wire::PackedInstance::Splittable(io::splittable_from_json(text)?))
    } else {
        Ok(wire::PackedInstance::Unrelated(io::unrelated_from_json(text)?))
    }
}

/// `sst pack <in.json> <out.sst>` — converts a JSON instance file to the
/// packed container format, preserving the kind tag.
pub fn pack(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[])?;
    let input = args.pos(0, "instance.json")?;
    let output = args.pos(1, "out.sst")?;
    let text = std::fs::read_to_string(input)?;
    let inst = packed_from_json(&text)?;
    let bytes = wire::instance_to_container(&inst);
    std::fs::write(output, &bytes)?;
    Ok(format!("packed {} instance {input} -> {output} ({} bytes)", inst.kind(), bytes.len()))
}

/// `sst unpack <in.sst> <out.json>` — converts a packed container back to
/// the JSON instance schema, preserving the kind tag.
pub fn unpack(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[])?;
    let input = args.pos(0, "in.sst")?;
    let output = args.pos(1, "instance.json")?;
    let bytes = std::fs::read(input)?;
    let inst =
        wire::instance_from_container(&bytes).map_err(|e| CliError(format!("{input}: {e}")))?;
    let json = match &inst {
        wire::PackedInstance::Uniform(u) => io::uniform_to_json(u),
        wire::PackedInstance::Unrelated(u) => io::unrelated_to_json(u),
        wire::PackedInstance::Splittable(u) => io::splittable_to_json(u),
    };
    std::fs::write(output, &json)?;
    Ok(format!("unpacked {} instance {input} -> {output}", inst.kind()))
}

/// `sst help` — the usage text.
pub fn help() -> String {
    "sst — scheduling with setup times (Jansen, Maack, Mäcker 2019)

USAGE
  sst generate <family> --out FILE [--n N] [--m M] [--k K] [--seed S]
               [--setups light|moderate|heavy] [--format json|packed]
      families: uniform | identical | unrelated | ra | cupt |
                production-line | compute-cluster | print-shop |
                ci-build-farm | cdn-transcode | splittable-stress |
                dynamic-queue
      (cdn-transcode and splittable-stress write kind \"splittable\":
       the split model served by `sst serve`; dynamic-queue writes a
       base instance plus a timed delta trace — the session workload:
       [--base uniform|unrelated] [--steps S] [--deltas-per-step D])
  sst solve <instance.json> --algo ALGO [--q Q] [--seed S] [--out sched.json]
            [--polish steps]
      algos (uniform):   lpt | ptas | greedy | exact
      algos (unrelated): rounding | ra2 | cupt3 | greedy | exact
  sst evaluate <instance.json> <schedule.json>
  sst gantt <instance.json> <schedule.json> [--width W] [--svg FILE]
  sst info <instance.json>
  sst bound <instance.json> [--max-t T]
      lower-bound chain: combinatorial / assignment-LP / configuration-LP
  sst compare <instance.json> [--seed S] [--q Q] [--nodes N]
  sst sweep --family uniform|identical|unrelated|ra|cupt --algo ALGO
            [--n-list 20,40,80] [--m M] [--k K] [--seeds S] [--setups W]
      prints one CSV row per (n, seed), computed in parallel
  sst serve [--tcp HOST:PORT] [--workers N] [--top-k K] [--budget-ms MS]
            [--seed S] [--mode stealing|sharded] [--max-queue N]
            [--max-sessions N] [--fault-injection true]
            [--data-dir DIR] [--durability none|flush|fsync]
            [--session-lanes N] [--journal-batch N] [--group-commit-us US]
            [--trace-out FILE|stderr] [--metrics-interval MS]
      solver-portfolio service speaking NDJSON: one request object per
      line ({\"id\": .., \"instance\": {..}, \"budget_ms\": ..}), one
      response per line; instance.kind is uniform | unrelated |
      splittable (splittable responses carry per-class \"shares\"
      instead of an \"assignment\"); {\"metrics\": true} returns running
      latency percentiles, session-store stats and win-rate standings.
      Stateful sessions ride the same connection:
        {\"id\": 1, \"session\": {\"create\": {\"sid\": 7, \"instance\": {..}}}}
        {\"id\": 2, \"session\": {\"delta\": {\"sid\": 7, \"deltas\":
            [{\"add_job\": {\"class\": 0, \"times\": [..]}},
             {\"remove_job\": 3}]}}}
        {\"id\": 3, \"session\": {\"solve\": {\"sid\": 7, \"budget_ms\": 50}}}
        {\"id\": 4, \"session\": {\"close\": {\"sid\": 7}}}
      delta answers with the repaired incumbent (solver \"delta-repair\");
      solve races warm from that floor and can only improve on it. The
      store is LRU-bounded at --max-sessions. Session verbs run on
      --session-lanes ordered lanes keyed by sid (per-session order
      preserved, distinct sessions concurrent). With --data-dir DIR
      sessions are durable: accepted verbs hit a write-ahead journal
      before the response, capacity spills LRU victims to snapshots
      instead of evicting them, and a restart with the same --data-dir
      recovers every live session by replay (--durability: none buffers
      until graceful exit, flush [default] pushes each append to the OS
      — survives SIGKILL — and fsync also survives power loss). The
      session store is sharded per lane, one lock per shard; journal
      appends from concurrent lanes coalesce into group commits — one
      write and one flush/fsync per batch of up to --journal-batch
      records (default 64; 1 = synchronous appends), with an optional
      --group-commit-us linger window to let a batch fill. Responses
      still wait for their own record to be durable.
      Requests flow through a work-stealing worker pool (adaptive top-k:
      a scored win-rate × recency ranking demotes members whose score
      decays); --mode sharded keeps the round-robin baseline. Beyond
      --max-queue pending requests the service answers with overload
      errors instead of queueing. --fault-injection true honors
      {\"kill_worker\": true} and process-aborting {\"crash\": true}
      chaos probes. --shards N is accepted as an
      alias of --workers. Default reads stdin until EOF; --tcp serves
      every connection concurrently and prints the bound address first.
      --trace-out streams structured NDJSON trace events (enqueue,
      dequeue, race/solver spans, incumbents, journal appends,
      snapshots, recovery) to a file or stderr, non-blocking: under
      backpressure events are dropped and counted, never stalled on.
      --metrics-interval MS prints a one-line metrics digest to stderr
      every MS milliseconds.
  sst pack <instance.json> <out.sst>
  sst unpack <in.sst> <instance.json>
      convert between the JSON instance schema and the packed binary
      container (kind-preserving; every command that reads an instance
      sniffs the format, so packed files work anywhere JSON does —
      `sst serve` additionally speaks packed request frames on the same
      socket as NDJSON, negotiated per message by the first byte)
  sst trace summarize <trace.ndjson>
      aggregates a --trace-out file into per-stage latency percentiles
      (queue-wait, decode, solver, total, journal-append, …), per-solver
      standings (runs, outcomes, incumbent improvements, time to first
      incumbent) and the dropped-event count.
  sst lint [--root DIR] [--allowlist FILE]
      workspace convention lint (CI gate): no raw std::sync locks
      outside crates/compat (all locking funnels through the
      lockdep-instrumented compat parking_lot), every non-Relaxed
      atomic ordering justified by an `ordering:` comment, no
      unwrap/expect in serve-path non-test code, and no sleeping
      outside tests. Suppress with `lint: allow(<rule>)` inline
      comments or entries in lint.allow at the workspace root; stale
      allowlist entries are reported.
  sst help
"
    .to_string()
}

/// `sst serve` — the portfolio service (see `sst_portfolio::service`).
/// Stdin mode returns the final metrics summary as its output; TCP mode
/// runs until killed.
pub fn serve(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[
        "tcp",
        "workers",
        "shards",
        "top-k",
        "budget-ms",
        "seed",
        "mode",
        "max-queue",
        "max-sessions",
        "fault-injection",
        "data-dir",
        "durability",
        "session-lanes",
        "journal-batch",
        "group-commit-us",
        "trace-out",
        "metrics-interval",
    ])?;
    // `--shards` (the PR 2 spelling) stays as an alias of `--workers`.
    let workers = match (args.flag("workers"), args.flag("shards")) {
        (Some(_), Some(_)) => {
            return Err(CliError("--workers and --shards are aliases; give one".into()))
        }
        (None, Some(_)) => args.flag_parse("shards", 4usize)?,
        _ => args.flag_parse("workers", 4usize)?,
    };
    let mode = match args.flag("mode").unwrap_or("stealing") {
        "stealing" => sst_portfolio::PoolMode::WorkStealing,
        "sharded" => sst_portfolio::PoolMode::Sharded,
        other => return Err(CliError(format!("unknown --mode '{other}' (stealing|sharded)"))),
    };
    let data_dir = args.flag("data-dir").map(std::path::PathBuf::from);
    let durability = match args.flag("durability") {
        None => sst_portfolio::Durability::default(),
        Some(_) if data_dir.is_none() => {
            return Err(CliError("--durability requires --data-dir".into()))
        }
        Some(s) => sst_portfolio::Durability::parse(s)
            .ok_or_else(|| CliError(format!("unknown --durability '{s}' (none|flush|fsync)")))?,
    };
    let trace = match args.flag("trace-out") {
        None => None,
        Some("stderr") => Some(sst_core::telemetry::TraceSink::to_stderr()),
        Some(path) => Some(
            sst_core::telemetry::TraceSink::to_file(std::path::Path::new(path))
                .map_err(|e| CliError(format!("--trace-out {path}: {e}")))?,
        ),
    };
    let cfg = sst_portfolio::service::ServeConfig {
        workers: workers.max(1),
        top_k: args.flag_parse("top-k", 3usize)?.max(1),
        budget_ms: args.flag_parse("budget-ms", 200u64)?,
        seed: args.flag_parse("seed", 1u64)?,
        mode,
        max_queue: args.flag_parse("max-queue", 1024usize)?.max(1),
        max_sessions: args.flag_parse("max-sessions", 64usize)?.max(1),
        fault_injection: args.flag_parse("fault-injection", false)?,
        data_dir,
        durability,
        session_lanes: args.flag_parse("session-lanes", 4usize)?.max(1),
        journal_batch: args.flag_parse("journal-batch", 64usize)?.max(1),
        group_commit_us: args.flag_parse("group-commit-us", 0u64)?,
        trace,
        metrics_interval_ms: args.flag_parse("metrics-interval", 0u64)?,
    };
    match args.flag("tcp") {
        Some(addr) => {
            sst_portfolio::service::serve_tcp(cfg, addr)
                .map_err(|e| CliError(format!("serve: {e}")))?;
            Ok(String::new())
        }
        None => {
            let m = sst_portfolio::service::serve_stdin(cfg)
                .map_err(|e| CliError(format!("serve: {e}")))?;
            // Responses stream to stdout as NDJSON; the human-readable
            // summary goes to stderr so stdout stays machine-parseable.
            eprintln!(
                "served {} requests ({} errors) in {} ms — {:.1} req/s, latency µs p50/p90/p99 = {}/{}/{} (mean {})",
                m.count,
                m.errors,
                m.uptime_ms,
                m.rps_x1000 as f64 / 1000.0,
                m.p50_us,
                m.p90_us,
                m.p99_us,
                m.mean_us,
            );
            Ok(String::new())
        }
    }
}

/// `sst trace` — offline analysis of `--trace-out` NDJSON files.
/// `summarize` aggregates events into per-stage latency percentiles and
/// per-solver standings, mirroring the live `{"metrics": true}` probe.
pub fn trace(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[])?;
    match args.pos(0, "subcommand")? {
        "summarize" => trace_summarize(args.pos(1, "trace-file")?),
        other => Err(CliError(format!("unknown trace subcommand '{other}' (try: summarize)"))),
    }
}

/// Per-solver aggregation state for [`trace_summarize`].
#[derive(Default)]
struct SolverAgg {
    runs: sst_core::stats::LatencyHistogram,
    completed: u64,
    cancelled: u64,
    declined: u64,
    improvements: u64,
    /// Time from race start to each *first* incumbent this solver posted
    /// for a request id (later improvements go to `improvements` only).
    first_incumbent: sst_core::stats::LatencyHistogram,
    seen_ids: std::collections::BTreeSet<u64>,
}

fn trace_summarize(path: &str) -> Result<String, CliError> {
    use sst_core::io::json::{self, JsonValue};
    use sst_core::stats::LatencyHistogram;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("trace summarize {path}: {e}")))?;

    let uint = |map: &BTreeMap<String, JsonValue>, k: &str| -> Option<u64> {
        match map.get(k) {
            Some(JsonValue::Uint(v)) => Some(*v),
            _ => None,
        }
    };

    let mut stages: BTreeMap<&'static str, LatencyHistogram> = BTreeMap::new();
    let mut record = |stage: &'static str, us: u64| {
        stages.entry(stage).or_default().record(us);
    };
    let mut solvers: BTreeMap<String, SolverAgg> = BTreeMap::new();
    let mut events = 0u64;
    let mut unparseable = 0u64;
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut recoveries = 0u64;
    let mut recovered_sessions = 0u64;
    let mut spills = 0u64;
    let mut cold_reloads = 0u64;
    let mut commits = 0u64;
    let mut committed_records = 0u64;
    let mut dropped: Option<u64> = None;

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let map = match json::parse(line) {
            Ok(JsonValue::Object(map)) => map,
            _ => {
                unparseable += 1;
                continue;
            }
        };
        let kind = match map.get("event") {
            Some(JsonValue::Str(s)) => s.as_str(),
            _ => {
                unparseable += 1;
                continue;
            }
        };
        events += 1;
        match kind {
            "dequeue" => {
                if let Some(us) = uint(&map, "queue_wait_us") {
                    record("queue_wait", us);
                }
            }
            "respond" => {
                if let Some(us) = uint(&map, "total_us") {
                    record("total", us);
                }
                match map.get("ok") {
                    Some(JsonValue::Bool(true)) => ok += 1,
                    _ => errors += 1,
                }
            }
            "solver_end" => {
                if let (Some(JsonValue::Str(solver)), Some(us)) =
                    (map.get("solver"), uint(&map, "micros"))
                {
                    record("solver", us);
                    let agg = solvers.entry(solver.clone()).or_default();
                    agg.runs.record(us);
                    match map.get("outcome") {
                        Some(JsonValue::Str(o)) if o == "completed" => agg.completed += 1,
                        Some(JsonValue::Str(o)) if o == "cancelled" => agg.cancelled += 1,
                        _ => agg.declined += 1,
                    }
                }
            }
            "incumbent" => {
                if let (Some(JsonValue::Str(solver)), Some(id), Some(at_us)) =
                    (map.get("solver"), uint(&map, "id"), uint(&map, "at_us"))
                {
                    let agg = solvers.entry(solver.clone()).or_default();
                    agg.improvements += 1;
                    if agg.seen_ids.insert(id) {
                        agg.first_incumbent.record(at_us);
                    }
                }
            }
            "cancel" => {
                if let Some(us) = uint(&map, "micros") {
                    record("cancel", us);
                }
            }
            "decode" => {
                if let Some(us) = uint(&map, "micros") {
                    record("decode", us);
                }
            }
            "journal_append" => {
                if let Some(us) = uint(&map, "micros") {
                    record("journal_append", us);
                }
            }
            "journal_commit" => {
                commits += 1;
                committed_records += uint(&map, "batch").unwrap_or(0);
                if let Some(us) = uint(&map, "micros") {
                    record("journal_commit", us);
                }
            }
            "snapshot" => {
                if let Some(us) = uint(&map, "micros") {
                    record("snapshot", us);
                }
            }
            "recovery" => {
                recoveries += 1;
                recovered_sessions += uint(&map, "sessions").unwrap_or(0);
                if let Some(us) = uint(&map, "micros") {
                    record("recovery", us);
                }
            }
            "spill" => spills += 1,
            "cold_reload" => cold_reloads += 1,
            "sink_close" => {
                dropped = Some(dropped.unwrap_or(0) + uint(&map, "dropped").unwrap_or(0));
            }
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "trace summary: {events} events ({unparseable} unparseable lines)");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50_us", "p90_us", "p99_us", "max_us"
    );
    for (stage, hist) in &stages {
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
            stage,
            hist.count(),
            hist.percentile(0.50),
            hist.percentile(0.90),
            hist.percentile(0.99),
            hist.max(),
        );
    }
    if !solvers.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>10} {:>10} {:>9} {:>10} {:>14} {:>14}",
            "solver",
            "runs",
            "completed",
            "cancelled",
            "declined",
            "improves",
            "first_inc_p50",
            "first_inc_p99"
        );
        for (name, agg) in &solvers {
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>10} {:>10} {:>9} {:>10} {:>14} {:>14}",
                name,
                agg.runs.count(),
                agg.completed,
                agg.cancelled,
                agg.declined,
                agg.improvements,
                agg.first_incumbent.percentile(0.50),
                agg.first_incumbent.percentile(0.99),
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "requests: {ok} ok, {errors} errors; recoveries: {recoveries} ({recovered_sessions} sessions); spills: {spills}, cold reloads: {cold_reloads}"
    );
    let _ =
        writeln!(out, "group commits: {commits} batches ({committed_records} records coalesced)");
    let _ = match dropped {
        Some(n) => writeln!(out, "dropped events: {n}"),
        None => writeln!(out, "dropped events: unknown (no sink_close event; truncated trace?)"),
    };
    Ok(out)
}

/// `sst generate` — writes an instance JSON and reports its shape.
pub fn generate(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[
        "out",
        "n",
        "m",
        "k",
        "seed",
        "setups",
        "eligible",
        "base",
        "steps",
        "deltas-per-step",
        "format",
    ])?;
    let family = args.pos(0, "family")?;
    let out = args.flag("out").ok_or_else(|| CliError("--out FILE is required".into()))?;
    let n: usize = args.flag_parse("n", 40)?;
    let m: usize = args.flag_parse("m", 5)?;
    let k: usize = args.flag_parse("k", 6)?;
    let seed: u64 = args.flag_parse("seed", 1)?;
    let setups = match args.flag("setups").unwrap_or("moderate") {
        "light" => SetupWeight::Light,
        "moderate" => SetupWeight::Moderate,
        "heavy" => SetupWeight::Heavy,
        other => return Err(CliError(format!("unknown --setups '{other}'"))),
    };
    let json = match family {
        "uniform" => io::uniform_to_json(&sst_gen::uniform(&UniformParams {
            n,
            m,
            k,
            setups,
            seed,
            ..Default::default()
        })),
        "identical" => io::uniform_to_json(&sst_gen::uniform(&UniformParams {
            n,
            m,
            k,
            setups,
            seed,
            speeds: SpeedProfile::Identical,
            ..Default::default()
        })),
        "unrelated" => io::unrelated_to_json(&sst_gen::unrelated(&UnrelatedParams {
            n,
            m,
            k,
            setups,
            seed,
            ..Default::default()
        })),
        "ra" => {
            let eligible: usize = args.flag_parse("eligible", 3)?;
            io::unrelated_to_json(&sst_gen::ra_class_uniform(
                n,
                m,
                k,
                eligible,
                (1, 40),
                setups,
                seed,
            ))
        }
        "cupt" => {
            io::unrelated_to_json(&sst_gen::class_uniform_ptimes(n, m, k, (1, 40), setups, seed))
        }
        "production-line" => {
            io::uniform_to_json(&sst_gen::scenarios::production_line(n, m, k, seed))
        }
        "compute-cluster" => {
            io::unrelated_to_json(&sst_gen::scenarios::compute_cluster(n, m, k, seed))
        }
        "print-shop" => io::unrelated_to_json(&sst_gen::scenarios::print_shop(n, m, k, seed)),
        "ci-build-farm" => io::unrelated_to_json(&sst_gen::scenarios::ci_build_farm(n, m, k, seed)),
        "cdn-transcode" => {
            io::splittable_to_json(&sst_gen::scenarios::cdn_transcode(n, m, k, seed))
        }
        "splittable-stress" => {
            // n is taken as jobs-per-class × classes via k; keep the CLI
            // contract n ≈ total jobs.
            io::splittable_to_json(&sst_gen::splittable_stress(k, m, n.div_ceil(k.max(1)), seed))
        }
        "dynamic-queue" => {
            let base = match args.flag("base").unwrap_or("unrelated") {
                "uniform" => sst_gen::DynamicBase::Uniform,
                "unrelated" => sst_gen::DynamicBase::Unrelated,
                other => return Err(CliError(format!("unknown --base '{other}'"))),
            };
            let params = sst_gen::DynamicQueueParams {
                base,
                n,
                m,
                k,
                steps: args.flag_parse("steps", 8usize)?,
                deltas_per_step: args.flag_parse("deltas-per-step", 4usize)?,
                setups,
                seed,
            };
            let (inst, trace) = sst_gen::dynamic_queue(&params);
            let base_json = match &inst {
                sst_gen::DynamicInstance::Uniform(u) => io::uniform_to_json_line(u),
                sst_gen::DynamicInstance::Unrelated(r) => io::unrelated_to_json_line(r),
            };
            let mut out = format!(
                "{{\n  \"version\": 1,\n  \"kind\": \"dynamic-queue\",\n  \"base\": {base_json},\n  \"trace\": ["
            );
            for (i, step) in trace.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n    {{\"at_ms\": {}, \"deltas\": {}}}",
                    step.at_ms,
                    sst_core::delta::deltas_to_json(&step.deltas)
                ));
            }
            out.push_str("\n  ]\n}");
            out
        }
        other => return Err(CliError(format!("unknown family '{other}'; see `sst help`"))),
    };
    match args.flag("format").unwrap_or("json") {
        "json" => std::fs::write(out, &json)?,
        "packed" => {
            if family == "dynamic-queue" {
                return Err(CliError(
                    "dynamic-queue writes a delta trace, which has no packed container; \
                     use --format json"
                        .into(),
                ));
            }
            std::fs::write(out, wire::instance_to_container(&packed_from_json(&json)?))?;
        }
        other => return Err(CliError(format!("unknown --format '{other}' (json|packed)"))),
    }
    Ok(format!("wrote {family} instance (n={n}, m={m}, K={k}, seed={seed}) to {out}"))
}

/// `sst solve` — runs an algorithm and reports/persists the schedule.
pub fn solve(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["algo", "q", "seed", "out", "polish", "nodes"])?;
    let path = args.pos(0, "instance.json")?;
    let algo = args.flag("algo").unwrap_or("auto");
    let seed: u64 = args.flag_parse("seed", 1)?;
    let polish: usize = args.flag_parse("polish", 0)?;
    let nodes: u64 = args.flag_parse("nodes", 1 << 24)?;
    let mut out = String::new();
    let schedule: Schedule = match load_instance(path)? {
        AnyInstance::Uniform(inst) => {
            let lb = uniform_lower_bound(&inst);
            let algo = if algo == "auto" { "lpt" } else { algo };
            let (sched, label) = match algo {
                "lpt" => {
                    let (s, _) = lpt_with_setups_makespan(&inst);
                    (s, "LPT (Lemma 2.1, ≤4.74·Opt)".to_string())
                }
                "ptas" => {
                    let q: u64 = args.flag_parse("q", 4)?;
                    let res = ptas_uniform(&inst, &PtasConfig { q, node_limit: nodes });
                    (res.schedule, format!("PTAS (Section 2, ε=1/{q})"))
                }
                "greedy" => (greedy_uniform(&inst), "setup-aware greedy".to_string()),
                "exact" => {
                    let res = exact_uniform(&inst, nodes);
                    let tag =
                        if res.complete { "exact (certified)" } else { "exact (node-capped)" };
                    (res.schedule, tag.to_string())
                }
                other => {
                    return Err(CliError(format!("algo '{other}' not valid for uniform instances")))
                }
            };
            let sched = if polish > 0 {
                let r = improve_uniform(&inst, &sched, polish);
                out.push_str(&format!("local search applied {} moves\n", r.moves));
                r.schedule
            } else {
                sched
            };
            let ms = uniform_makespan(&inst, &sched)
                .map_err(|e| CliError(format!("produced schedule invalid: {e}")))?;
            out.push_str(&format!(
                "{label}\nmakespan: {ms}\nlower bound: {lb}\ncertified ratio ≤ {:.3}\n",
                ms.to_f64() / lb.to_f64().max(f64::MIN_POSITIVE)
            ));
            sched
        }
        AnyInstance::Unrelated(inst) => {
            let lb = unrelated_lower_bound(&inst);
            let algo = if algo == "auto" { "rounding" } else { algo };
            let (sched, label, cert): (Schedule, String, Option<u64>) = match algo {
                "rounding" => {
                    let res = solve_unrelated_randomized(&inst, &RoundingConfig { c: 2.0, seed });
                    (res.schedule, "randomized rounding (Thm 3.3)".into(), Some(res.t_star))
                }
                "ra2" => {
                    let res = solve_ra_class_uniform(&inst);
                    (res.schedule, "RA 2-approximation (Thm 3.10)".into(), Some(res.t_star))
                }
                "cupt3" => {
                    let res = solve_class_uniform_ptimes(&inst);
                    (res.schedule, "CUPT 3-approximation (Thm 3.11)".into(), Some(res.t_star))
                }
                "greedy" => (greedy_unrelated(&inst), "setup-aware greedy".into(), None),
                "exact" => {
                    let res = exact_unrelated(&inst, nodes);
                    let tag =
                        if res.complete { "exact (certified)" } else { "exact (node-capped)" };
                    (res.schedule, tag.into(), None)
                }
                other => {
                    return Err(CliError(format!(
                        "algo '{other}' not valid for unrelated instances"
                    )))
                }
            };
            let sched = if polish > 0 {
                let r = improve_unrelated(&inst, &sched, polish);
                out.push_str(&format!("local search applied {} moves\n", r.moves));
                r.schedule
            } else {
                sched
            };
            let ms = unrelated_makespan(&inst, &sched)
                .map_err(|e| CliError(format!("produced schedule invalid: {e}")))?;
            out.push_str(&format!("{label}\nmakespan: {ms}\nlower bound: {lb}\n"));
            if let Some(t_star) = cert {
                out.push_str(&format!(
                    "LP-certified bound T* = {t_star} → ratio ≤ {:.3}\n",
                    ms as f64 / t_star.max(1) as f64
                ));
            }
            sched
        }
    };
    if let Some(out_path) = args.flag("out") {
        std::fs::write(out_path, io::schedule_to_json(&schedule))?;
        out.push_str(&format!("schedule written to {out_path}\n"));
    }
    Ok(out)
}

/// `sst evaluate` — loads instance + schedule and prints exact loads.
pub fn evaluate(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[])?;
    let inst_path = args.pos(0, "instance.json")?;
    let sched_path = args.pos(1, "schedule.json")?;
    let sched = io::schedule_from_json(&std::fs::read_to_string(sched_path)?)?;
    match load_instance(inst_path)? {
        AnyInstance::Uniform(inst) => {
            let loads = sst_core::schedule::uniform_loads(&inst, &sched)
                .map_err(|e| CliError(format!("invalid schedule: {e}")))?;
            let ms = uniform_makespan(&inst, &sched).expect("loads computed");
            let mut out = format!("makespan: {ms}\n");
            for (i, w) in loads.iter().enumerate() {
                out.push_str(&format!(
                    "machine {i}: work {w}, speed {}, time {}\n",
                    inst.speed(i),
                    sst_core::Ratio::new(*w.max(&0), inst.speed(i))
                ));
            }
            Ok(out)
        }
        AnyInstance::Unrelated(inst) => {
            let loads = sst_core::schedule::unrelated_loads(&inst, &sched)
                .map_err(|e| CliError(format!("invalid schedule: {e}")))?;
            let ms = loads.iter().copied().max().unwrap_or(0);
            let mut out = format!("makespan: {ms}\n");
            for (i, l) in loads.iter().enumerate() {
                out.push_str(&format!("machine {i}: load {l}\n"));
            }
            Ok(out)
        }
    }
}

/// `sst info` — instance statistics and bounds.
pub fn info(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&[])?;
    let path = args.pos(0, "instance.json")?;
    match load_instance(path)? {
        AnyInstance::Uniform(inst) => Ok(format!(
            "kind: uniform\nn: {}\nm: {}\nK: {}\nspeeds: {:?}\ntotal work (jobs+min setups): {}\nlower bound: {}\n{}\n",
            inst.n(),
            inst.m(),
            inst.num_classes(),
            inst.speeds(),
            inst.total_work_with_min_setups(),
            uniform_lower_bound(&inst),
            sst_core::stats::uniform_stats(&inst),
        )),
        AnyInstance::Unrelated(inst) => {
            let mut out = format!(
                "kind: unrelated\nn: {}\nm: {}\nK: {}\nlower bound: {}\n",
                inst.n(),
                inst.m(),
                inst.num_classes(),
                unrelated_lower_bound(&inst),
            );
            out.push_str(&format!(
                "restricted assignment: {}\nclass-uniform restrictions: {}\nclass-uniform ptimes: {}\n",
                inst.is_restricted_assignment(),
                inst.has_class_uniform_restrictions(),
                inst.has_class_uniform_ptimes(),
            ));
            out.push_str(&format!("{}\n", sst_core::stats::unrelated_stats(&inst)));
            Ok(out)
        }
    }
}

/// `sst compare` — runs every algorithm applicable to the instance and
/// prints a ranked comparison (the CLI face of experiment E8).
pub fn compare(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["seed", "q", "nodes"])?;
    let path = args.pos(0, "instance.json")?;
    let seed: u64 = args.flag_parse("seed", 1)?;
    let nodes: u64 = args.flag_parse("nodes", 1 << 22)?;
    let mut rows: Vec<(String, f64, String)> = Vec::new();
    match load_instance(path)? {
        AnyInstance::Uniform(inst) => {
            let lb = uniform_lower_bound(&inst).to_f64();
            let (_, lpt) = lpt_with_setups_makespan(&inst);
            rows.push(("lpt (Lemma 2.1)".into(), lpt.to_f64(), "≤4.74·Opt".into()));
            let q: u64 = args.flag_parse("q", 4)?;
            let p = ptas_uniform(&inst, &PtasConfig { q, node_limit: nodes });
            rows.push((format!("ptas ε=1/{q}"), p.makespan.to_f64(), "≤(1+O(ε))·Opt".into()));
            let grd = uniform_makespan(&inst, &greedy_uniform(&inst)).expect("valid");
            rows.push(("greedy".into(), grd.to_f64(), "no guarantee".into()));
            let mf = sst_algos::multifit::multifit_uniform(&inst, 8);
            rows.push(("multifit/ffd".into(), mf.makespan.to_f64(), "no guarantee".into()));
            if inst.n() <= 14 {
                let e = exact_uniform(&inst, nodes);
                let tag = if e.complete { "optimum" } else { "incumbent" };
                rows.push(("exact b&b".into(), e.makespan.to_f64(), tag.into()));
            }
            rows.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut out = format!(
                "lower bound: {lb:.3}
"
            );
            for (name, ms, tag) in rows {
                out.push_str(&format!(
                    "{name:<16} {ms:>12.3}  ({tag})
"
                ));
            }
            Ok(out)
        }
        AnyInstance::Unrelated(inst) => {
            let lb = unrelated_lower_bound(&inst);
            let rr = solve_unrelated_randomized(&inst, &RoundingConfig { c: 2.0, seed });
            rows.push((
                "rounding (Thm 3.3)".into(),
                rr.makespan as f64,
                format!("T*={}", rr.t_star),
            ));
            if inst.is_restricted_assignment() && inst.has_class_uniform_restrictions() {
                let r = solve_ra_class_uniform(&inst);
                rows.push((
                    "ra2 (Thm 3.10)".into(),
                    r.makespan as f64,
                    format!("≤2·T*={}", 2 * r.t_star),
                ));
            }
            if inst.has_class_uniform_ptimes() {
                let r = solve_class_uniform_ptimes(&inst);
                rows.push((
                    "cupt3 (Thm 3.11)".into(),
                    r.makespan as f64,
                    format!("≤3·T*={}", 3 * r.t_star),
                ));
            }
            let grd = unrelated_makespan(&inst, &greedy_unrelated(&inst)).expect("valid");
            rows.push(("greedy".into(), grd as f64, "no guarantee".into()));
            if inst.n() <= 14 {
                let e = exact_unrelated(&inst, nodes);
                let tag = if e.complete { "optimum" } else { "incumbent" };
                rows.push(("exact b&b".into(), e.makespan as f64, tag.into()));
            }
            rows.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut out = format!(
                "lower bound: {lb}
"
            );
            for (name, ms, tag) in rows {
                out.push_str(&format!(
                    "{name:<20} {ms:>12.0}  ({tag})
"
                ));
            }
            Ok(out)
        }
    }
}

/// `sst gantt` — renders a schedule as an ASCII Gantt chart (setups `#`,
/// jobs by class digit; all rows share one time scale).
pub fn gantt(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["width", "svg"])?;
    let inst_path = args.pos(0, "instance.json")?;
    let sched_path = args.pos(1, "schedule.json")?;
    let width: usize = args.flag_parse("width", 60)?;
    let sched = io::schedule_from_json(&std::fs::read_to_string(sched_path)?)?;
    let (mut out, svg) = match load_instance(inst_path)? {
        AnyInstance::Uniform(inst) => {
            let tl = Timeline::from_uniform(&inst, &sched)
                .map_err(|e| CliError(format!("invalid schedule: {e}")))?;
            tl.validate().map_err(|e| CliError(format!("timeline invariant broken: {e}")))?;
            let chart = render_gantt(&tl, |j| inst.job(j).class, width);
            let svg = render_gantt_svg(&tl, |j| inst.job(j).class, 800);
            (format!("{chart}makespan: {}\n", tl.makespan()), svg)
        }
        AnyInstance::Unrelated(inst) => {
            let tl = Timeline::from_unrelated(&inst, &sched)
                .map_err(|e| CliError(format!("invalid schedule: {e}")))?;
            tl.validate().map_err(|e| CliError(format!("timeline invariant broken: {e}")))?;
            let chart = render_gantt(&tl, |j| inst.class_of(j), width);
            let svg = render_gantt_svg(&tl, |j| inst.class_of(j), 800);
            (format!("{chart}makespan: {}\n", tl.makespan()), svg)
        }
    };
    if let Some(path) = args.flag("svg") {
        std::fs::write(path, svg)?;
        out.push_str(&format!("svg written to {path}\n"));
    }
    Ok(out)
}

/// `sst sweep` — runs one algorithm over an (n × seed) grid of generated
/// instances in parallel (rayon) and prints a CSV of makespans and
/// certified ratios. The rows are sorted, so the output is deterministic
/// regardless of thread scheduling.
pub fn sweep(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["family", "algo", "n-list", "m", "k", "seeds", "setups", "q"])?;
    let family = args.flag("family").unwrap_or("uniform").to_string();
    let algo = args.flag("algo").unwrap_or("auto").to_string();
    let m: usize = args.flag_parse("m", 5)?;
    let k: usize = args.flag_parse("k", 6)?;
    let seeds: u64 = args.flag_parse("seeds", 3)?;
    let q: u64 = args.flag_parse("q", 4)?;
    let setups = match args.flag("setups").unwrap_or("moderate") {
        "light" => SetupWeight::Light,
        "moderate" => SetupWeight::Moderate,
        "heavy" => SetupWeight::Heavy,
        other => return Err(CliError(format!("unknown --setups '{other}'"))),
    };
    let n_list: Vec<usize> = args
        .flag("n-list")
        .unwrap_or("20,40,80")
        .split(',')
        .map(|t| t.trim().parse().map_err(|_| CliError(format!("bad n '{t}'"))))
        .collect::<Result<_, _>>()?;
    let grid: Vec<(usize, u64)> =
        n_list.iter().flat_map(|&n| (0..seeds).map(move |s| (n, s))).collect();

    #[derive(Debug)]
    struct Row {
        n: usize,
        seed: u64,
        makespan: f64,
        bound: f64,
    }
    let run_one = |&(n, seed): &(usize, u64)| -> Result<Row, CliError> {
        match family.as_str() {
            "uniform" | "identical" => {
                let speeds = if family == "identical" {
                    SpeedProfile::Identical
                } else {
                    SpeedProfile::UniformRandom { lo: 1, hi: 8 }
                };
                let inst = sst_gen::uniform(&UniformParams {
                    n,
                    m,
                    k,
                    setups,
                    seed,
                    speeds,
                    ..Default::default()
                });
                let algo = if algo == "auto" { "lpt" } else { algo.as_str() };
                let sched = match algo {
                    "lpt" => lpt_with_setups_makespan(&inst).0,
                    "ptas" => ptas_uniform(&inst, &PtasConfig { q, node_limit: 1 << 22 }).schedule,
                    "greedy" => greedy_uniform(&inst),
                    "wrap" if family == "identical" => sst_algos::identical::wrap_identical(&inst),
                    other => {
                        return Err(CliError(format!("algo '{other}' not valid for {family}")))
                    }
                };
                let ms =
                    uniform_makespan(&inst, &sched).map_err(|e| CliError(e.to_string()))?.to_f64();
                Ok(Row { n, seed, makespan: ms, bound: uniform_lower_bound(&inst).to_f64() })
            }
            "unrelated" | "ra" | "cupt" => {
                let inst = match family.as_str() {
                    "unrelated" => sst_gen::unrelated(&UnrelatedParams {
                        n,
                        m,
                        k,
                        setups,
                        seed,
                        ..Default::default()
                    }),
                    "ra" => {
                        sst_gen::ra_class_uniform(n, m, k, (m / 2).max(2), (1, 40), setups, seed)
                    }
                    _ => sst_gen::class_uniform_ptimes(n, m, k, (1, 40), setups, seed),
                };
                let algo = if algo == "auto" { "rounding" } else { algo.as_str() };
                let (sched, bound) = match algo {
                    "rounding" => {
                        let r = solve_unrelated_randomized(&inst, &RoundingConfig { c: 2.0, seed });
                        (r.schedule, r.t_star as f64)
                    }
                    "ra2" if family == "ra" => {
                        let r = solve_ra_class_uniform(&inst);
                        (r.schedule, r.t_star as f64)
                    }
                    "cupt3" if family == "cupt" => {
                        let r = solve_class_uniform_ptimes(&inst);
                        (r.schedule, r.t_star as f64)
                    }
                    "greedy" => (greedy_unrelated(&inst), unrelated_lower_bound(&inst) as f64),
                    other => {
                        return Err(CliError(format!("algo '{other}' not valid for {family}")))
                    }
                };
                let ms =
                    unrelated_makespan(&inst, &sched).map_err(|e| CliError(e.to_string()))? as f64;
                Ok(Row { n, seed, makespan: ms, bound })
            }
            other => Err(CliError(format!("unknown family '{other}'"))),
        }
    };
    let mut rows: Vec<Row> = grid.par_iter().map(run_one).collect::<Result<Vec<_>, _>>()?;
    rows.sort_by_key(|r| (r.n, r.seed));
    let mut out = String::from("family,algo,n,m,k,seed,makespan,bound,ratio\n");
    for r in rows {
        out.push_str(&format!(
            "{family},{algo},{},{m},{k},{},{:.3},{:.3},{:.3}\n",
            r.n,
            r.seed,
            r.makespan,
            r.bound,
            r.makespan / r.bound.max(f64::MIN_POSITIVE)
        ));
    }
    Ok(out)
}

/// `sst bound` — prints the lower-bound chain for an unrelated instance:
/// combinatorial ≤ assignment-LP `T*` (Section 3.1) ≤ configuration-LP
/// (the stronger relaxation of the restricted-assignment lineage). The
/// configuration LP needs `n ≤ 64`; larger instances report the first two.
pub fn bound(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["max-t"])?;
    let path = args.pos(0, "instance.json")?;
    let max_t: u64 = args.flag_parse("max-t", 1 << 13)?;
    match load_instance(path)? {
        AnyInstance::Uniform(inst) => Ok(format!(
            "kind: uniform\ncombinatorial lower bound: {}\n(LP bounds apply to unrelated instances; uniform bounds are exact rationals)\n",
            uniform_lower_bound(&inst)
        )),
        AnyInstance::Unrelated(inst) => {
            let comb = unrelated_lower_bound(&inst);
            let assign = sst_algos::lp_relax::lp_makespan_lower_bound(&inst);
            let mut out = format!(
                "kind: unrelated\ncombinatorial lower bound: {comb}\nassignment-LP T* (Sec 3.1): {assign}\n"
            );
            if inst.n() <= 64 {
                let limits = sst_algos::configlp::ConfigLpLimits {
                    max_t,
                    ..Default::default()
                };
                let config = sst_algos::configlp::config_lp_lower_bound(&inst, &limits);
                out.push_str(&format!("configuration-LP bound:     {config}\n"));
            } else {
                out.push_str("configuration-LP bound:     skipped (n > 64)\n");
            }
            Ok(out)
        }
    }
}

/// `sst lint` — the workspace convention lint (see `sst_check::lint`):
/// no raw `std::sync` locks outside the compat layer, justified
/// non-`Relaxed` atomic orderings, no `unwrap` in serve-path non-test
/// code, no `thread::sleep` outside tests. Non-empty findings are an
/// error (the CI gate); suppressions live in `lint.allow` at the
/// workspace root or inline `lint: allow(<rule>)` comments.
pub fn lint(args: &Args) -> Result<String, CliError> {
    args.reject_unknown_flags(&["root", "allowlist"])?;
    let root = match args.flag("root") {
        Some(r) => std::path::PathBuf::from(r),
        None => workspace_root()?,
    };
    let allow_path = match args.flag("allowlist") {
        Some(p) => std::path::PathBuf::from(p),
        None => root.join("lint.allow"),
    };
    let allowlist = sst_check::lint::Allowlist::load(&allow_path)?;
    let report = sst_check::lint::run(&root, allowlist)?;
    let mut out = String::new();
    for stale in &report.stale_entries {
        out.push_str(&format!("stale allowlist entry (matched nothing): {stale}\n"));
    }
    if report.clean() {
        out.push_str(&format!(
            "lint clean: {} files scanned, {} finding(s) allowlisted\n",
            report.files_scanned, report.allowed
        ));
        Ok(out)
    } else {
        let mut msg = String::new();
        for finding in &report.findings {
            msg.push_str(&format!("{finding}\n"));
        }
        let rules: Vec<&str> = sst_check::lint::rules_hit(&report.findings).into_iter().collect();
        msg.push_str(&format!(
            "{} finding(s) across rules {:?}; fix them or add entries to {}",
            report.findings.len(),
            rules,
            allow_path.display()
        ));
        Err(CliError(msg))
    }
}

/// Walks up from the current directory to the enclosing Cargo workspace
/// root (the directory whose `Cargo.toml` has a `[workspace]` table).
fn workspace_root() -> Result<std::path::PathBuf, CliError> {
    let mut dir = std::env::current_dir()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(CliError(
                "no Cargo workspace root found above the current directory; pass --root".into(),
            ));
        }
    }
}

/// Dispatches a parsed command line.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "help" | "--help" | "-h" => Ok(help()),
        "generate" => generate(args),
        "solve" => solve(args),
        "evaluate" => evaluate(args),
        "gantt" => gantt(args),
        "info" => info(args),
        "bound" => bound(args),
        "compare" => compare(args),
        "sweep" => sweep(args),
        "serve" => serve(args),
        "trace" => trace(args),
        "pack" => pack(args),
        "unpack" => unpack(args),
        "lint" => lint(args),
        other => Err(CliError(format!("unknown command '{other}'; see `sst help`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("sst-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_solve_evaluate_roundtrip_uniform() {
        let inst_path = tmp("u.json");
        let sched_path = tmp("u_sched.json");
        let g = run(&parse(&toks(&[
            "generate", "uniform", "--out", &inst_path, "--n", "12", "--m", "3", "--seed", "5",
        ]))
        .unwrap())
        .unwrap();
        assert!(g.contains("n=12"));
        let s =
            run(&parse(&toks(&["solve", &inst_path, "--algo", "lpt", "--out", &sched_path]))
                .unwrap())
            .unwrap();
        assert!(s.contains("makespan:"), "{s}");
        let e = run(&parse(&toks(&["evaluate", &inst_path, &sched_path])).unwrap()).unwrap();
        assert!(e.contains("machine 0:"));
    }

    #[test]
    fn packed_generate_pack_unpack_roundtrip() {
        // generate --format packed produces a container every instance
        // command can read directly.
        let packed_path = tmp("p.sst");
        let g = run(&parse(&toks(&[
            "generate",
            "uniform",
            "--out",
            &packed_path,
            "--n",
            "10",
            "--m",
            "3",
            "--format",
            "packed",
        ]))
        .unwrap())
        .unwrap();
        assert!(g.contains("n=10"), "{g}");
        assert_eq!(std::fs::read(&packed_path).unwrap()[..4], sst_core::wire::MAGIC);
        let s = run(&parse(&toks(&["solve", &packed_path, "--algo", "lpt"])).unwrap()).unwrap();
        assert!(s.contains("makespan:"), "{s}");

        // unpack -> pack roundtrips bit-identically and preserves kind.
        let json_path = tmp("p_unpacked.json");
        let u = run(&parse(&toks(&["unpack", &packed_path, &json_path])).unwrap()).unwrap();
        assert!(u.contains("uniform"), "{u}");
        let repacked = tmp("p_repacked.sst");
        run(&parse(&toks(&["pack", &json_path, &repacked])).unwrap()).unwrap();
        assert_eq!(std::fs::read(&packed_path).unwrap(), std::fs::read(&repacked).unwrap());

        // splittable kind survives the conversion cycle.
        let sp_json = tmp("sp.json");
        run(&parse(&toks(&[
            "generate",
            "splittable-stress",
            "--out",
            &sp_json,
            "--n",
            "12",
            "--m",
            "3",
            "--k",
            "4",
        ]))
        .unwrap())
        .unwrap();
        let sp_packed = tmp("sp.sst");
        let p = run(&parse(&toks(&["pack", &sp_json, &sp_packed])).unwrap()).unwrap();
        assert!(p.contains("splittable"), "{p}");
        let sp_back = tmp("sp_back.json");
        run(&parse(&toks(&["unpack", &sp_packed, &sp_back])).unwrap()).unwrap();
        assert!(std::fs::read_to_string(&sp_back).unwrap().contains("\"splittable\""));

        // dynamic-queue has no packed container.
        let err = run(&parse(&toks(&[
            "generate",
            "dynamic-queue",
            "--out",
            &tmp("dq.sst"),
            "--format",
            "packed",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("dynamic-queue"), "{err}");
    }

    #[test]
    fn generate_solve_unrelated_with_certificate() {
        let inst_path = tmp("r.json");
        run(&parse(&toks(&[
            "generate", "ra", "--out", &inst_path, "--n", "16", "--m", "3", "--seed", "2",
        ]))
        .unwrap())
        .unwrap();
        let s = run(&parse(&toks(&["solve", &inst_path, "--algo", "ra2"])).unwrap()).unwrap();
        assert!(s.contains("T* ="), "{s}");
    }

    #[test]
    fn info_reports_model_checks() {
        let inst_path = tmp("c.json");
        run(&parse(&toks(&["generate", "cupt", "--out", &inst_path, "--n", "10"])).unwrap())
            .unwrap();
        let i = run(&parse(&toks(&["info", &inst_path])).unwrap()).unwrap();
        assert!(i.contains("class-uniform ptimes: true"), "{i}");
    }

    #[test]
    fn generate_splittable_kind_and_info_loads_it() {
        let inst_path = tmp("cdn.json");
        run(&parse(&toks(&[
            "generate",
            "cdn-transcode",
            "--out",
            &inst_path,
            "--n",
            "20",
            "--m",
            "4",
            "--k",
            "5",
        ]))
        .unwrap())
        .unwrap();
        let text = std::fs::read_to_string(&inst_path).unwrap();
        assert!(text.contains("\"kind\": \"splittable\""), "{text}");
        // Integral commands read the shared payload as unrelated data.
        let i = run(&parse(&toks(&["info", &inst_path])).unwrap()).unwrap();
        assert!(i.contains("class-uniform ptimes: true"), "{i}");
    }

    #[test]
    fn generate_dynamic_queue_writes_base_and_replayable_trace() {
        use sst_core::io::json::{self, JsonValue};
        use sst_core::model::{MachineModel, Unrelated};

        let path = tmp("dq.json");
        let g = run(&parse(&toks(&[
            "generate",
            "dynamic-queue",
            "--out",
            &path,
            "--n",
            "12",
            "--m",
            "3",
            "--steps",
            "5",
            "--seed",
            "4",
        ]))
        .unwrap())
        .unwrap();
        assert!(g.contains("dynamic-queue"), "{g}");
        let text = std::fs::read_to_string(&path).unwrap();
        let JsonValue::Object(map) = json::parse(&text).unwrap() else { panic!("{text}") };
        assert_eq!(map.get("kind"), Some(&JsonValue::Str("dynamic-queue".into())));
        // The base instance and every trace delta parse back and replay.
        let mut inst = io::unrelated_from_value(map.get("base").unwrap()).unwrap();
        let JsonValue::Array(steps) = map.get("trace").unwrap() else { panic!("{text}") };
        assert_eq!(steps.len(), 5);
        for step in steps {
            let JsonValue::Object(s) = step else { panic!("{text}") };
            assert!(matches!(s.get("at_ms"), Some(JsonValue::Uint(_))));
            let deltas = sst_core::delta::deltas_from_value(s.get("deltas").unwrap()).unwrap();
            for d in &deltas {
                inst = Unrelated::apply_delta(&inst, d).expect("trace replays cleanly");
            }
        }
    }

    #[test]
    fn polish_never_reports_invalid() {
        let inst_path = tmp("p.json");
        run(&parse(&toks(&[
            "generate", "uniform", "--out", &inst_path, "--n", "15", "--setups", "heavy",
        ]))
        .unwrap())
        .unwrap();
        let s =
            run(&parse(&toks(&["solve", &inst_path, "--algo", "greedy", "--polish", "50"]))
                .unwrap())
            .unwrap();
        assert!(s.contains("makespan:"));
    }

    #[test]
    fn compare_ranks_algorithms() {
        let inst_path = tmp("cmp.json");
        run(&parse(&toks(&["generate", "uniform", "--out", &inst_path, "--n", "10", "--m", "3"]))
            .unwrap())
        .unwrap();
        let c = run(&parse(&toks(&["compare", &inst_path])).unwrap()).unwrap();
        assert!(c.contains("lpt"), "{c}");
        assert!(c.contains("optimum") || c.contains("incumbent"), "{c}");
        // Ranked: first listed makespan ≤ last listed.
        let values: Vec<f64> =
            c.lines().skip(1).filter_map(|l| l.split_whitespace().nth(1)?.parse().ok()).collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{c}");
    }

    #[test]
    fn bound_prints_monotone_chain() {
        let inst_path = tmp("b.json");
        run(&parse(&toks(&[
            "generate",
            "unrelated",
            "--out",
            &inst_path,
            "--n",
            "9",
            "--m",
            "3",
            "--seed",
            "6",
        ]))
        .unwrap())
        .unwrap();
        let b = run(&parse(&toks(&["bound", &inst_path])).unwrap()).unwrap();
        let grab = |tag: &str| -> u64 {
            b.lines()
                .find(|l| l.contains(tag))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("missing {tag} in {b}"))
        };
        let comb = grab("combinatorial");
        let assign = grab("assignment-LP");
        let config = grab("configuration-LP");
        assert!(comb <= assign && assign <= config + 1, "{b}");
    }

    #[test]
    fn bound_uniform_reports_combinatorial_only() {
        let inst_path = tmp("b_u.json");
        run(&parse(&toks(&["generate", "uniform", "--out", &inst_path, "--n", "8"])).unwrap())
            .unwrap();
        let b = run(&parse(&toks(&["bound", &inst_path])).unwrap()).unwrap();
        assert!(b.contains("kind: uniform"), "{b}");
    }

    #[test]
    fn gantt_renders_both_kinds() {
        let u_path = tmp("g_u.json");
        let u_sched = tmp("g_u_sched.json");
        run(&parse(&toks(&[
            "generate", "uniform", "--out", &u_path, "--n", "8", "--m", "2", "--seed", "4",
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&toks(&["solve", &u_path, "--algo", "lpt", "--out", &u_sched])).unwrap())
            .unwrap();
        let g =
            run(&parse(&toks(&["gantt", &u_path, &u_sched, "--width", "40"])).unwrap()).unwrap();
        assert!(g.contains("m0"), "{g}");
        assert!(g.contains("makespan:"), "{g}");
        assert!(g.contains('#'), "setups must render: {g}");

        let r_path = tmp("g_r.json");
        let r_sched = tmp("g_r_sched.json");
        run(&parse(&toks(&[
            "generate",
            "unrelated",
            "--out",
            &r_path,
            "--n",
            "10",
            "--m",
            "3",
            "--seed",
            "4",
        ]))
        .unwrap())
        .unwrap();
        run(&parse(&toks(&["solve", &r_path, "--algo", "greedy", "--out", &r_sched])).unwrap())
            .unwrap();
        let g = run(&parse(&toks(&["gantt", &r_path, &r_sched])).unwrap()).unwrap();
        assert!(g.contains("<- makespan"), "{g}");
    }

    #[test]
    fn gantt_rejects_mismatched_schedule() {
        let a_path = tmp("g_a.json");
        let b_path = tmp("g_b.json");
        let b_sched = tmp("g_b_sched.json");
        run(&parse(&toks(&["generate", "uniform", "--out", &a_path, "--n", "6"])).unwrap())
            .unwrap();
        run(&parse(&toks(&["generate", "uniform", "--out", &b_path, "--n", "9"])).unwrap())
            .unwrap();
        run(&parse(&toks(&["solve", &b_path, "--algo", "lpt", "--out", &b_sched])).unwrap())
            .unwrap();
        assert!(run(&parse(&toks(&["gantt", &a_path, &b_sched])).unwrap()).is_err());
    }

    #[test]
    fn sweep_produces_sorted_csv() {
        let c = run(&parse(&toks(&[
            "sweep", "--family", "uniform", "--algo", "lpt", "--n-list", "10,20", "--m", "3",
            "--seeds", "2",
        ]))
        .unwrap())
        .unwrap();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines[0], "family,algo,n,m,k,seed,makespan,bound,ratio");
        assert_eq!(lines.len(), 1 + 2 * 2, "{c}");
        // Deterministic despite parallel execution.
        let c2 = run(&parse(&toks(&[
            "sweep", "--family", "uniform", "--algo", "lpt", "--n-list", "10,20", "--m", "3",
            "--seeds", "2",
        ]))
        .unwrap())
        .unwrap();
        assert_eq!(c, c2);
        // Ratios parse and stay under the Lemma 2.1 guarantee.
        for line in &lines[1..] {
            let ratio: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!(ratio < 4.74, "{line}");
        }
    }

    #[test]
    fn sweep_ra_family_with_certified_bound() {
        let c = run(&parse(&toks(&[
            "sweep", "--family", "ra", "--algo", "ra2", "--n-list", "12", "--m", "3", "--seeds",
            "2",
        ]))
        .unwrap())
        .unwrap();
        for line in c.lines().skip(1) {
            let ratio: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!(ratio <= 2.0 + 1e-9, "Theorem 3.10 bound violated: {line}");
        }
    }

    #[test]
    fn sweep_rejects_bad_input() {
        assert!(run(&parse(&toks(&["sweep", "--family", "nope"])).unwrap()).is_err());
        assert!(run(&parse(&toks(&["sweep", "--family", "uniform", "--n-list", "5,x"])).unwrap())
            .is_err());
        assert!(run(&parse(&toks(&["sweep", "--family", "uniform", "--algo", "cupt3"])).unwrap())
            .is_err());
    }

    #[test]
    fn serve_flag_validation_rejects_bad_combinations() {
        // Error paths only: a valid stdin serve would block on input.
        let err = run(&parse(&toks(&["serve", "--mode", "nope"])).unwrap());
        assert!(err.is_err(), "unknown mode must be rejected");
        let err = run(&parse(&toks(&["serve", "--workers", "2", "--shards", "2"])).unwrap());
        assert!(err.is_err(), "--workers and --shards are aliases, not independent");
        let err = run(&parse(&toks(&["serve", "--fault-injection", "maybe"])).unwrap());
        assert!(err.is_err(), "--fault-injection takes true|false");
        let err = run(&parse(&toks(&["serve", "--typo", "1"])).unwrap());
        assert!(err.is_err(), "unknown flags stay rejected");
        let err = run(&parse(&toks(&["serve", "--durability", "flush"])).unwrap());
        assert!(err.is_err(), "--durability without --data-dir must be rejected");
        let err =
            run(&parse(&toks(&["serve", "--data-dir", "/tmp/x", "--durability", "paranoid"]))
                .unwrap());
        assert!(err.is_err(), "unknown durability tier must be rejected");
    }

    #[test]
    fn trace_summarize_aggregates_stages_solvers_and_drop_count() {
        let path = tmp("trace-summary.ndjson");
        let lines = [
            r#"{"event": "enqueue", "id": 1, "ts_us": 0}"#,
            r#"{"event": "dequeue", "id": 1, "worker": 0, "queue_wait_us": 50, "ts_us": 1}"#,
            r#"{"event": "race_start", "id": 1, "members": 2, "ts_us": 2}"#,
            r#"{"event": "incumbent", "id": 1, "solver": "lpt", "at_us": 120, "makespan": 99.0, "ts_us": 3}"#,
            r#"{"event": "incumbent", "id": 1, "solver": "lpt", "at_us": 200, "makespan": 90.0, "ts_us": 4}"#,
            r#"{"event": "solver_end", "id": 1, "solver": "lpt", "outcome": "completed", "micros": 300, "makespan": 90.0, "ts_us": 5}"#,
            r#"{"event": "solver_end", "id": 1, "solver": "exact-bb", "outcome": "cancelled", "micros": 400, "ts_us": 5}"#,
            r#"{"event": "respond", "id": 1, "ok": true, "total_us": 600, "ts_us": 6}"#,
            r#"{"event": "journal_append", "sid": 7, "bytes": 32, "micros": 80, "fsync": false, "ts_us": 7}"#,
            r#"{"event": "journal_commit", "batch": 5, "bytes": 160, "micros": 240, "fsync": true, "ts_us": 7}"#,
            r#"{"event": "journal_commit", "batch": 2, "bytes": 64, "micros": 150, "fsync": true, "ts_us": 8}"#,
            r#"{"event": "recovery", "sessions": 2, "snapshots_loaded": 1, "replayed": 3, "dropped_bytes": 0, "micros": 900, "ts_us": 8}"#,
            "not json",
            r#"{"event": "sink_close", "dropped": 4, "ts_us": 9}"#,
        ];
        std::fs::write(&path, lines.join("\n")).unwrap();
        let out = run(&parse(&toks(&["trace", "summarize", &path])).unwrap()).unwrap();
        assert!(out.contains("13 events (1 unparseable"), "{out}");
        for stage in
            ["queue_wait", "total", "solver", "journal_append", "journal_commit", "recovery"]
        {
            assert!(out.contains(stage), "missing stage '{stage}' in:\n{out}");
        }
        assert!(out.contains("lpt") && out.contains("exact-bb"), "{out}");
        assert!(out.contains("requests: 1 ok, 0 errors; recoveries: 1 (2 sessions)"), "{out}");
        assert!(out.contains("group commits: 2 batches (7 records coalesced)"), "{out}");
        assert!(out.contains("dropped events: 4"), "{out}");
        // Unknown subcommands and missing files fail cleanly.
        assert!(run(&parse(&toks(&["trace", "tail", &path])).unwrap()).is_err());
        assert!(
            run(&parse(&toks(&["trace", "summarize", "/nonexistent/t.ndjson"])).unwrap()).is_err()
        );
    }

    #[test]
    fn unknown_command_and_bad_algo_error_cleanly() {
        assert!(run(&parse(&toks(&["frobnicate"])).unwrap()).is_err());
        let inst_path = tmp("u2.json");
        run(&parse(&toks(&["generate", "uniform", "--out", &inst_path])).unwrap()).unwrap();
        let err = run(&parse(&toks(&["solve", &inst_path, "--algo", "rounding"])).unwrap());
        assert!(err.is_err(), "rounding must be rejected for uniform instances");
    }
}
