//! `servebench` — the serve benchmark.
//!
//! Spawns the real `sst serve --tcp` binary (built from the checkout it
//! runs in), drives seeded open-loop traffic at it from one sender and one
//! receiver thread, checks every answer, and reports the end-to-end
//! metrics (`--trace 0`). With `--trace 1` it reports the per-layer
//! metrics instead: read off the untraced server's answers, its metrics
//! probe and a capacity search, and from a traced in-process replay of
//! the same messages through each layer's public functions.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload session-churn --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Run it from the repository root. The last line of stdout is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`); a table of the
//! same rows goes to stderr and is appended to
//! `.servebench_work/rows.ndjson`, and the replay's spans are written to
//! `.servebench_work/spans-<workload>-<seed>.ndjson`.

mod loadgen;
mod replay;
mod server;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use loadgen::{Client, Phase, Record};
use server::Server;
use stats::{mean, median, percentile_or_rank, poisson_schedule, Pct};
use workload::{Message, Outcome, Pool, Sessions, Spec, Workload};

const USAGE: &str = "Usage: servebench --workload <solve-mix|session-churn|bulk-ingest> \
--seed <N> [--seconds <S>] [--trace <0|1>]";

/// Server starts timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Requests the warm-up sends at least.
const WARM_UP_REQUESTS: usize = 150;
/// Resolution of the capacity search: the bracket is narrowed until its
/// ends are within this factor.
const SEARCH_STEP: f64 = 1.05;
/// The sender may run this share of the latency limit late (p99) before
/// the run is flagged invalid.
const LAG_TOLERANCE_SHARE: f64 = 0.5;
/// Work directory, inside the checkout.
const WORK_DIR: &str = ".servebench_work";

#[derive(Debug, Clone, PartialEq)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 45;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = s,
                _ => return Err(format!("bad --seconds '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
            },
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Percentile and sample count behind a timing, when it is one.
    pct: Option<(f64, usize)>,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    wrong_answers: usize,
    failures: Vec<(Outcome, usize)>,
    /// Wrong answers and error lines during the capacity search, above
    /// the nominal rate, by cause.
    above_nominal: Vec<(Outcome, usize)>,
    /// What some of those answers said.
    notes: Vec<String>,
    lag_p99_ms: f64,
    /// Set when the sender ran later than its tolerance: the run's
    /// timings are flagged invalid, its answers may still be correct.
    late: Option<String>,
    problems: Vec<String>,
}

impl Report {
    fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value, pct: None });
    }

    fn add_pct(&mut self, name: &'static str, unit: &'static str, p: Pct) {
        self.metrics.push(Metric { name, unit, value: p.value, pct: Some((p.q, p.n)) });
    }

    /// `<name>_p50` and `<name>_p99` of `samples`.
    fn add_p50_p99(
        &mut self,
        p50: &'static str,
        p99: &'static str,
        unit: &'static str,
        samples: &[f64],
    ) {
        self.add_pct(p50, unit, percentile_or_rank(samples, 0.5));
        self.add_pct(p99, unit, percentile_or_rank(samples, 0.99));
    }

    /// Every checked answer was right and the replay was consistent.
    fn correct(&self) -> bool {
        self.wrong_answers == 0 && self.failed == 0 && self.problems.is_empty()
    }

    /// The run measured what it meant to: correct, and the sender kept to
    /// its schedule.
    fn valid(&self) -> bool {
        self.correct() && self.late.is_none()
    }
}

/// What a workload sends: a fixed pool of stateless requests, or a stream
/// of session verbs.
enum Source {
    Pool(Pool),
    Sessions(Sessions),
}

impl Source {
    fn new(workload: Workload, seed: u64) -> Source {
        match workload {
            Workload::SolveMix => Source::Pool(Pool::solve_mix(seed)),
            Workload::BulkIngest => Source::Pool(Pool::bulk_ingest(seed)),
            Workload::SessionChurn => Source::Sessions(Sessions::new(seed, 1)),
        }
    }

    fn messages(&mut self, count: usize, first_id: u64) -> Vec<Message> {
        match self {
            Source::Pool(pool) => pool.messages(count, first_id),
            Source::Sessions(s) => s.messages(count, first_id),
        }
    }
}

/// How long a phase waits for answers after its last send.
const DRAIN: Duration = Duration::from_secs(5);

/// Drives one server: hands out request ids, and keeps a session stream
/// continuous across phases.
struct Driver<'a> {
    client: Client,
    source: &'a mut Source,
    spec: Spec,
    seed: u64,
    next_id: u64,
    /// Session verbs a stopped phase did not send: they open the next
    /// phase, so every session's script stays in order.
    unsent: Vec<Message>,
}

impl Driver<'_> {
    /// `count` messages at `rate` on the seeded schedule.
    fn phase(
        &mut self,
        rate: f64,
        count: usize,
        abort_backlog: Option<usize>,
    ) -> std::io::Result<Phase> {
        let mut messages = std::mem::take(&mut self.unsent);
        let fresh = self.source.messages(count.saturating_sub(messages.len()), self.next_id);
        self.next_id += fresh.len() as u64;
        messages.extend(fresh);
        let schedule = poisson_schedule(self.seed, rate, messages.len());
        let phase = self.client.run_phase(&messages, &schedule, abort_backlog, DRAIN)?;
        if matches!(self.source, Source::Sessions(_)) {
            self.unsent = messages.split_off(phase.records.len());
        }
        Ok(phase)
    }
}

fn failures(records: &[Record], stray: usize) -> Vec<(Outcome, usize)> {
    Outcome::FAILURES
        .iter()
        .map(|&o| {
            let n = records.iter().filter(|r| r.outcome() == o).count();
            (o, n + if o == Outcome::ErrorLine { stray } else { 0 })
        })
        .collect()
}

/// Latencies (ms) of the verbs the workload's limit applies to. A verb
/// that failed, or got no answer, counts as missing any limit: infinite.
fn limited_latencies(workload: Workload, records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| workload != Workload::SessionChurn || r.is_delta)
        .map(|r| match r.outcome() {
            Outcome::Ok => r.latency_ms().unwrap_or(f64::INFINITY),
            _ => f64::INFINITY,
        })
        .collect()
}

/// Whether a phase at some rate met the workload's latency limit: the
/// tail percentile of the limited verbs within the limit, and no growing
/// backlog (the sender never had to stop, and the last quarter's median is
/// still within the limit).
fn meets_limit(workload: Workload, spec: &Spec, phase: &Phase) -> bool {
    if phase.aborted {
        return false;
    }
    let lat = limited_latencies(workload, &phase.records);
    let tail = &lat[lat.len() * 3 / 4..];
    percentile_or_rank(&lat, 0.99).value <= spec.limit_ms && median(tail) <= spec.limit_ms
}

/// The capacity search: bisects (geometrically) between an offered rate
/// that meets the limit and one that does not, until they are within
/// [`SEARCH_STEP`] or `deadline` leaves no room for another step. A rate
/// that misses the limit is tried once more before it counts as missed,
/// so one stall does not decide the search. Returns the highest offered
/// rate that met the limit; failures of the steps are added to `failed`.
fn capacity(
    driver: &mut Driver<'_>,
    workload: Workload,
    deadline: Instant,
    failed: &mut Vec<Record>,
) -> std::io::Result<f64> {
    let spec = driver.spec;
    let nominal = spec.nominal_rps;
    let (mut lo, mut hi) = (nominal, search_ceiling(workload) * nominal);
    let step_secs = step_seconds(workload);
    let step = Duration::from_secs_f64(step_secs + 0.5);
    while hi / lo > SEARCH_STEP && Instant::now() + step <= deadline {
        let rate = (lo * hi).sqrt();
        let count = (rate * step_secs).ceil() as usize;
        let cap = (rate * spec.limit_ms / 1000.0 * 3.0).ceil() as usize + 8;
        let mut met = false;
        for _ in 0..2 {
            if Instant::now() + step > deadline {
                break;
            }
            let phase = driver.phase(rate, count, Some(cap))?;
            failed.extend(
                phase
                    .records
                    .iter()
                    .filter(|r| r.outcome().is_wrong_answer() || r.outcome() == Outcome::ErrorLine)
                    .cloned(),
            );
            met = meets_limit(workload, &spec, &phase);
            if met {
                break;
            }
        }
        if met {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    Ok(lo)
}

/// Where the capacity search starts looking, as a multiple of the nominal
/// rate.
fn search_ceiling(workload: Workload) -> f64 {
    match workload {
        Workload::SolveMix => 4.0,
        Workload::SessionChurn => 30.0,
        Workload::BulkIngest => 8.0,
    }
}

fn step_seconds(workload: Workload) -> f64 {
    match workload {
        Workload::SolveMix => 3.0,
        Workload::SessionChurn => 2.5,
        Workload::BulkIngest => 4.0,
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Leaves a data directory behind the way a crashed session server does:
/// sessions created and edited over a seeded stream of its own, every verb
/// acknowledged, then SIGKILL.
fn session_pre_phase(bin: &Path, spec: &Spec, seed: u64, dir: &Path) -> std::io::Result<()> {
    let server = Server::start(bin, spec, Some(dir), &server_log(dir.parent().unwrap_or(dir)))?;
    let mut client = Client::connect(&server.addr, spec)?;
    let messages = workload::pre_phase_messages(seed, 1 << 40);
    let schedule = poisson_schedule(seed, 1000.0, messages.len());
    let phase = client.run_phase(&messages, &schedule, None, DRAIN)?;
    let failed: Vec<String> = failures(&phase.records, phase.stray_errors)
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(o, n)| format!("{}={n}", o.name()))
        .collect();
    if !failed.is_empty() {
        return Err(std::io::Error::other(format!(
            "the session pre-phase failed: {}",
            failed.join(" ")
        )));
    }
    drop(client);
    server.kill();
    Ok(())
}

/// The server log of a run, next to its work directory: kept after the
/// run, unlike the directory.
fn server_log(dir: &Path) -> PathBuf {
    let name = dir.file_name().map_or("server".into(), |n| n.to_string_lossy().into_owned());
    dir.parent().unwrap_or(dir).join(format!("{name}.server.log"))
}

struct Run<'a> {
    opts: &'a Opts,
    spec: Spec,
    bin: PathBuf,
    dir: PathBuf,
}

impl Run<'_> {
    /// Starts the server [`SETUP_REPEATS`] times (each over a fresh copy
    /// of the pre-phase data dir for the session mix) and keeps the last.
    fn start_servers(&self, report: &mut Report) -> std::io::Result<(Server, Option<PathBuf>)> {
        let pre = self.dir.join("pre");
        if self.spec.durable {
            session_pre_phase(&self.bin, &self.spec, self.opts.seed, &pre)?;
        }
        let mut setups = Vec::new();
        let mut last = None;
        for i in 0..SETUP_REPEATS {
            let data_dir = self.spec.durable.then(|| self.dir.join(format!("data-{i}")));
            if let Some(d) = &data_dir {
                copy_dir(&pre, d)?;
                // Write the copy out first, so the timed start does not
                // share the disk with its writeback.
                std::process::Command::new("sync").status()?;
            }
            let server =
                Server::start(&self.bin, &self.spec, data_dir.as_deref(), &server_log(&self.dir))?;
            setups.push(server.setup.as_secs_f64());
            if let Some((old, _)) = last.replace((server, data_dir)) {
                old.kill();
            }
        }
        report.add("setup_s", "s", median(&setups));
        Ok(last.expect("at least one server start"))
    }

    fn go(&self) -> Result<Report, String> {
        let io = |e: std::io::Error| e.to_string();
        let opts = self.opts;
        let workload = opts.workload;
        let spec = self.spec;
        let budget = Duration::from_secs(opts.seconds);
        let mut report = Report::default();
        let (mut server, data_dir) = self.start_servers(&mut report).map_err(io)?;
        if opts.trace {
            // Set-up is an end-to-end number; the per-layer run drops it.
            report.metrics.clear();
        }
        let t0 = Instant::now();
        let mut source = Source::new(workload, opts.seed);
        let mut driver = Driver {
            client: Client::connect(&server.addr, &spec).map_err(io)?,
            source: &mut source,
            spec,
            seed: opts.seed,
            next_id: 1,
            unsent: Vec::new(),
        };
        let rate = spec.nominal_rps;
        // Warm-up, checked but not timed: long enough for the adaptive
        // selector to leave its learning transient, in which it cycles
        // every portfolio member (slow ones too) through a few races per
        // family before settling.
        let warm_count = (rate * 2.0).max(WARM_UP_REQUESTS as f64).ceil() as usize;
        let warm = driver.phase(rate, warm_count, None).map_err(io)?;
        // The end-to-end run spends most of its time at the nominal rate;
        // the per-layer run also searches capacity and replays.
        let nominal_share = if opts.trace { 0.3 } else { 0.75 };
        let count = (rate * budget.as_secs_f64() * nominal_share).ceil() as usize;
        let nominal = driver.phase(rate, count, None).map_err(io)?;
        let probe = server.metrics().map_err(io)?;
        let peak_rss = server.peak_rss_mb().map_err(io)?;

        // Validity and failures count over the warm-up and nominal phases.
        let checked: Vec<&Record> = warm.records.iter().chain(&nominal.records).collect();
        report.attempted = checked.len();
        let stray = warm.stray_errors + nominal.stray_errors;
        report.failed = checked.iter().filter(|r| r.outcome() != Outcome::Ok).count() + stray;
        report.wrong_answers = checked.iter().filter(|r| r.outcome().is_wrong_answer()).count();
        report.failures = failures(&nominal.records, nominal.stray_errors);
        let mut messages: Vec<&str> =
            checked.iter().filter_map(|r| r.answer.as_ref()?.1.error.as_deref()).collect();
        messages.sort_unstable();
        messages.dedup();
        for m in messages.iter().take(5) {
            report.problems.push(format!("failed answer: {m}"));
        }
        let lag: Vec<f64> = nominal.records.iter().map(Record::lag_ms).collect();
        report.lag_p99_ms = percentile_or_rank(&lag, 0.99).value;
        let tolerance = spec.limit_ms * LAG_TOLERANCE_SHARE;
        if report.lag_p99_ms > tolerance {
            report.late = Some(format!(
                "generator ran late: lag p99 {:.2} ms over the {tolerance:.2} ms tolerance",
                report.lag_p99_ms
            ));
        }

        if !opts.trace {
            let lat = all_latencies(&nominal.records);
            report.add_pct("latency_p50_ms", "ms", percentile_or_rank(&lat, 0.5));
            let gaps: Vec<f64> =
                nominal.records.iter().filter_map(|r| r.answer.as_ref()?.1.gap_pct).collect();
            report.add("gap_pct", "%", mean(&gaps));
            report.add("peak_rss_mb", "MB", peak_rss);
            drop(driver);
            server.kill();
            return Ok(report);
        }

        // Tail latency and capacity are per-layer rows: across seeds they
        // spread too far for any bound an end-to-end metric may have (see
        // README).
        let lat = all_latencies(&nominal.records);
        report.add_pct("latency_p99_ms", "ms", percentile_or_rank(&lat, 0.99));
        serve_layers(&mut report, workload, &nominal, &probe);
        let mut above = Vec::new();
        let search_deadline = t0 + budget.mul_f64(0.65);
        let cap = capacity(&mut driver, workload, search_deadline, &mut above).map_err(io)?;
        report.add("max_rate_rps", "req/s", cap);
        report.above_nominal = failures(&above, 0);
        let mut notes: Vec<&str> =
            above.iter().filter_map(|r| r.answer.as_ref()?.1.error.as_deref()).collect();
        notes.sort_unstable();
        notes.dedup();
        report.notes = notes.iter().take(5).map(|n| n.to_string()).collect();
        drop(driver);
        server.kill();
        let replay_deadline = t0 + budget;
        self.replay_layers(&mut report, data_dir.as_deref(), replay_deadline)?;
        Ok(report)
    }

    /// The traced in-process replay of the same seeded messages, and the
    /// per-layer rows it gives.
    fn replay_layers(
        &self,
        report: &mut Report,
        data_dir: Option<&Path>,
        deadline: Instant,
    ) -> Result<(), String> {
        let workload = self.opts.workload;
        let mut rec = spans::Recorder::new();
        let mut source = Source::new(workload, self.opts.seed);
        // The kernel solo runs come first, on the solve-mix instance pool
        // of this seed whatever the workload: they are their own span tree.
        let budget = Duration::from_millis(self.spec.budget_ms);
        let (runs, done) = replay::kernels(&mut rec, &Pool::solve_mix(self.opts.seed), 10, budget);
        match &mut source {
            Source::Pool(pool) => {
                replay::stateless(&mut rec, pool, 100_000, self.spec.budget_ms, deadline)?;
            }
            Source::Sessions(sessions) => {
                let messages = sessions.messages(4000, 1);
                let dir = self.dir.join("replay");
                replay::sessions(&mut rec, &messages, &dir, self.spec.budget_ms, deadline)?;
                let copies: Vec<PathBuf> =
                    (0..3).map(|i| self.dir.join(format!("recover-{i}"))).collect();
                if let Some(run_dir) = data_dir {
                    for copy in &copies {
                        copy_dir(run_dir, copy).map_err(|e| e.to_string())?;
                    }
                    replay::recover(&mut rec, &copies)?;
                }
            }
        }
        let spans = rec.spans();
        let consistency = spans::check(spans, 1_000);
        if !consistency.ok() {
            report.problems.push(format!("replay spans inconsistent: {consistency:?}"));
        }
        let selfs = spans::self_times(spans);
        let by_name = |name: &str, scale: f64| -> Vec<f64> {
            spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == name)
                .map(|(_, &ns)| ns as f64 / scale)
                .collect()
        };
        let us = 1e3;
        report.add_p50_p99(
            "protocol.decode_us_p50",
            "protocol.decode_us_p99",
            "us",
            &by_name("protocol.decode", us),
        );
        report.add_p50_p99(
            "protocol.encode_us_p50",
            "protocol.encode_us_p99",
            "us",
            &by_name("protocol.encode", us),
        );
        report.add_p50_p99(
            "wire.decode_us_p50",
            "wire.decode_us_p99",
            "us",
            &by_name("wire.decode", us),
        );
        report.add_p50_p99(
            "wire.encode_us_p50",
            "wire.encode_us_p99",
            "us",
            &by_name("wire.encode", us),
        );
        report.add_p50_p99("race.race_us_p50", "race.race_us_p99", "us", &by_name("race.race", us));
        for ((_, span), (p50, p99)) in replay::KERNELS.iter().zip(KERNEL_METRICS) {
            report.add_p50_p99(p50, p99, "us", &by_name(span, us));
        }
        let share = if runs == 0 { 0.0 } else { done as f64 / runs as f64 };
        report.add("kernels.rounding_done_share", "ratio", share);
        report.add_p50_p99(
            "session.repair_us_p50",
            "session.repair_us_p99",
            "us",
            &by_name("session.repair", us),
        );
        report.add_p50_p99(
            "session.store_read_ns_p50",
            "session.store_read_ns_p99",
            "ns",
            &by_name("session.store_read", 1.0),
        );
        report.add_p50_p99(
            "session.store_update_us_p50",
            "session.store_update_us_p99",
            "us",
            &by_name("session.store_update", us),
        );
        report.add_p50_p99(
            "durable.append_us_p50",
            "durable.append_us_p99",
            "us",
            &by_name("durable.append", us),
        );
        report.add_p50_p99(
            "durable.snapshot_us_p50",
            "durable.snapshot_us_p99",
            "us",
            &by_name("durable.snapshot", us),
        );
        report.add_p50_p99(
            "durable.recover_ms_p50",
            "durable.recover_ms_p99",
            "ms",
            &by_name("durable.recover", 1e6),
        );
        // The request spans' own self time: what no layer span covers.
        report.add_p50_p99(
            "replay.unassigned_us_p50",
            "replay.unassigned_us_p99",
            "us",
            &by_name("request", us),
        );
        std::fs::create_dir_all(self.dir.parent().expect("work dir has a parent"))
            .map_err(|e| e.to_string())?;
        let path = self.dir.parent().expect("work dir has a parent").join(format!(
            "spans-{}-{}.ndjson",
            workload.name(),
            self.opts.seed
        ));
        rec.write_ndjson(&path).map_err(|e| e.to_string())?;
        Ok(())
    }
}

const KERNEL_METRICS: [(&str, &str); 6] = [
    ("kernels.greedy_us_p50", "kernels.greedy_us_p99"),
    ("kernels.local_search_us_p50", "kernels.local_search_us_p99"),
    ("kernels.anneal_us_p50", "kernels.anneal_us_p99"),
    ("kernels.rounding_us_p50", "kernels.rounding_us_p99"),
    ("kernels.split3_us_p50", "kernels.split3_us_p99"),
    ("kernels.split_refine_us_p50", "kernels.split_refine_us_p99"),
];

/// Latencies (ms) of every answered request.
fn all_latencies(records: &[Record]) -> Vec<f64> {
    records.iter().filter(|r| r.outcome() == Outcome::Ok).filter_map(Record::latency_ms).collect()
}

/// Per-layer rows read off the untraced server: its answers during the
/// nominal phase and its final metrics probe.
fn serve_layers(
    report: &mut Report,
    workload: Workload,
    nominal: &Phase,
    probe: &sst_portfolio::protocol::MetricsSummary,
) {
    let records = &nominal.records;
    let sent = records.len().max(1) as f64;
    let failed: usize = report.failures.iter().map(|(_, n)| n).sum();
    report.add("error_share", "ratio", failed as f64 / sent);
    let deltas: Vec<f64> = if workload == Workload::SessionChurn {
        limited_latencies(workload, records).into_iter().filter(|l| l.is_finite()).collect()
    } else {
        Vec::new()
    };
    report.add_p50_p99("delta_p50_ms", "delta_p99_ms", "ms", &deltas);
    let overhead: Vec<f64> = records
        .iter()
        .filter_map(|r| {
            let (at, checked) = r.answer.as_ref()?;
            let micros = checked.micros? as f64;
            Some(at.duration_since(r.sent).as_secs_f64() * 1e6 - micros)
        })
        .collect();
    report.add_p50_p99("service.overhead_us_p50", "service.overhead_us_p99", "us", &overhead);
    let stage = |name: &str| probe.stages.iter().find(|s| s.stage == name);
    for (stage_name, p50, p99) in [
        ("queue_wait_us", "server.queue_wait_us_p50", "server.queue_wait_us_p99"),
        ("decode_us", "server.decode_us_p50", "server.decode_us_p99"),
        ("commit_wait_us", "server.commit_wait_us_p50", "server.commit_wait_us_p99"),
    ] {
        let (a, b, n) =
            stage(stage_name).map_or((0, 0, 0), |s| (s.p50_us, s.p99_us, s.count as usize));
        report.add_pct(p50, "us", Pct { value: a as f64, q: 0.5, n });
        report.add_pct(p99, "us", Pct { value: b as f64, q: 0.99, n });
    }
    let races: Vec<&workload::RaceLines> =
        records.iter().filter_map(|r| r.answer.as_ref()?.1.race.as_ref()).collect();
    let members: u32 = races.iter().map(|r| r.members).sum();
    let cut: u32 = races.iter().map(|r| r.cut_off).sum();
    let floor_wins = races.iter().filter(|r| r.floor_won).count();
    report.add(
        "race.cutoff_share",
        "ratio",
        if members == 0 { 0.0 } else { cut as f64 / members as f64 },
    );
    report.add(
        "race.floor_win_share",
        "ratio",
        if races.is_empty() { 0.0 } else { floor_wins as f64 / races.len() as f64 },
    );
    let overruns: Vec<f64> = races.iter().flat_map(|r| r.overrun_us.iter().copied()).collect();
    report.add_p50_p99("race.overrun_us_p50", "race.overrun_us_p99", "us", &overruns);
    report.add("session.spills", "count", probe.sessions.spills as f64);
    report.add("session.cold_reloads", "count", probe.sessions.cold_reloads as f64);
    report.add("durable.batch_len", "count", probe.journal_batch_p50 as f64);
}

/// The code under test: `git rev-parse HEAD` where the checkout is a git
/// repository, else a digest of the sources the server builds from.
fn commit(root: &Path) -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if entry.file_name() != "target" {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("tree-{:016x}", sst_core::wire::fnv1a64(&bytes))
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn emit(opts: &Opts, report: &Report, root: &Path) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = commit(root);
    let valid = report.valid();
    let mut rows = String::new();
    eprintln!(
        "servebench {} seed {} trace {} — nproc {nproc}, commit {commit}, loadgen.lag_p99_ms {:.3}, {}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        report.lag_p99_ms,
        if valid { "valid" } else { "INVALID" },
    );
    for p in report.problems.iter().chain(&report.late) {
        eprintln!("  problem: {p}");
    }
    let causes: Vec<String> =
        report.failures.iter().map(|(o, n)| format!("{}={n}", o.name())).collect();
    eprintln!("  nominal failures by cause: {}", causes.join(" "));
    if report.above_nominal.iter().any(|&(_, n)| n > 0) {
        let causes: Vec<String> =
            report.above_nominal.iter().map(|(o, n)| format!("{}={n}", o.name())).collect();
        eprintln!("  WRONG ANSWERS above the nominal rate, by cause: {}", causes.join(" "));
        for note in &report.notes {
            eprintln!("    {note}");
        }
    }
    let mut metrics: Vec<&Metric> = report.metrics.iter().collect();
    let lag =
        Metric { name: "loadgen.lag_p99_ms", unit: "ms", value: report.lag_p99_ms, pct: None };
    if opts.trace {
        metrics.push(&lag);
    }
    for &&Metric { name, unit, value, pct } in &metrics {
        let detail = pct.map_or(String::new(), |(q, n)| format!("  (q {q:.3}, n {n})"));
        eprintln!("  {name:<32} {value:>14.4} {unit}{detail}");
        let (q, n) = pct.map_or(("null".to_string(), "null".to_string()), |(q, n)| {
            (format!("{q}"), n.to_string())
        });
        let _ = writeln!(
            rows,
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \"commit\": \"{commit}\", \
             \"loadgen.lag_p99_ms\": {}, \"valid\": {valid}, \"metric\": \"{name}\", \"value\": {}, \
             \"unit\": \"{unit}\", \"percentile\": {q}, \"samples\": {n}}}",
            opts.workload.name(),
            opts.seed,
            u8::from(opts.trace),
            json_number(report.lag_p99_ms),
            json_number(value),
        );
    }
    for (outcome, n) in &report.above_nominal {
        let _ = writeln!(
            rows,
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": 1, \"nproc\": {nproc}, \"commit\": \"{commit}\", \
             \"metric\": \"above_nominal.{}\", \"value\": {n}, \"unit\": \"count\"}}",
            opts.workload.name(),
            opts.seed,
            outcome.name(),
        );
    }
    let rows_path = root.join(WORK_DIR).join("rows.ndjson");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&rows_path)
        .and_then(|mut f| f.write_all(rows.as_bytes()));
    if let Err(e) = appended {
        eprintln!("servebench: could not append rows to {}: {e}", rows_path.display());
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
}

fn run(opts: &Opts) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/cli is missing".into());
    }
    let bin = server::build_server(&root).map_err(|e| e.to_string())?;
    // Start from a clean disk: writeback left over from an earlier run
    // would otherwise slow this run's journal and snapshot writes.
    std::process::Command::new("sync").status().map_err(|e| e.to_string())?;
    let dir = root.join(WORK_DIR).join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let run = Run { opts, spec: opts.workload.spec(), bin, dir: dir.clone() };
    let result = run.go();
    let _ = std::fs::remove_dir_all(&dir);
    let report = result?;
    emit(opts, &report, &root);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("servebench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("servebench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_into_options() {
        let opts =
            parse_args(&args("--workload bulk-ingest --seed 4 --seconds 9 --trace 1")).unwrap();
        assert_eq!(opts, Opts { workload: Workload::BulkIngest, seed: 4, seconds: 9, trace: true });
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload solve-mix",
            "--seed 1",
            "--workload solve-mix --seed 1 --trace 2",
            "--workload solve-mix --seed 1 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }
}
