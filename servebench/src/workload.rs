//! The three traffic mixes: what each one sends, generated from the
//! workload seed, and how each answer is checked.

use std::collections::HashMap;
use std::sync::Arc;

use sst_core::bounds::{uniform_lower_bound, unrelated_lower_bound};
use sst_core::delta::{apply_uniform_all, apply_unrelated_all, InstanceDelta};
use sst_core::instance::{UnrelatedInstance, INF};
use sst_gen::dynamic::{dynamic_queue, DynamicBase, DynamicInstance, DynamicQueueParams};
use sst_gen::scenarios::{
    cdn_transcode, ci_build_farm, compute_cluster, print_shop, production_line,
};
use sst_gen::{SetupWeight, UnrelatedParams};
use sst_portfolio::protocol::{request_to_json, Request, Response, SessionRequest, SessionVerb};
use sst_portfolio::wire::encode_session;
use sst_portfolio::{Cost, ProblemInstance, SplittableInstance};

use crate::stats::SplitMix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveMix,
    SessionChurn,
    BulkIngest,
}

/// How a workload drives the server.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Latency limit on the limited verbs' tail percentile.
    pub limit_ms: f64,
    /// Offered rate of the nominal phase.
    pub nominal_rps: f64,
    /// Packed frames instead of NDJSON lines.
    pub packed: bool,
    /// The server's `--budget-ms`.
    pub budget_ms: u64,
    /// Durable sessions (`--data-dir`, `--durability flush`).
    pub durable: bool,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::SolveMix, Workload::SessionChurn, Workload::BulkIngest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveMix => "solve-mix",
            Workload::SessionChurn => "session-churn",
            Workload::BulkIngest => "bulk-ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::SolveMix => Spec {
                limit_ms: 250.0,
                nominal_rps: 12.0,
                packed: false,
                budget_ms: 100,
                durable: false,
            },
            Workload::SessionChurn => Spec {
                limit_ms: 20.0,
                nominal_rps: 200.0,
                packed: true,
                budget_ms: 100,
                durable: true,
            },
            Workload::BulkIngest => Spec {
                limit_ms: 150.0,
                nominal_rps: 150.0,
                packed: false,
                budget_ms: 100,
                durable: false,
            },
        }
    }
}

/// Sessions the server keeps hot (`--max-sessions`); the session mix
/// keeps more live than this, so the store spills and reloads.
pub const MAX_SESSIONS: usize = 32;
/// Sessions live at once in the session mix.
pub const LIVE_SESSIONS: usize = 36;
/// Delta steps per session.
const SESSION_STEPS: usize = 48;
/// A session solve follows every this many delta steps.
const SOLVE_EVERY: usize = 8;
/// Per-request budget and race width of a session solve.
pub const SESSION_SOLVE_BUDGET_MS: u64 = 5;
const SESSION_SOLVE_TOP_K: usize = 2;

/// An instance with what the checker needs to judge answers on it.
#[derive(Debug)]
pub struct Prepared {
    pub instance: ProblemInstance,
    /// Cost of the model's greedy floor.
    pub greedy: Cost,
    /// Certified lower bound on the optimum.
    pub lower_bound: f64,
}

impl Prepared {
    pub fn new(instance: ProblemInstance) -> Prepared {
        let greedy = instance.greedy().cost;
        let lower_bound = lower_bound(&instance);
        Prepared { instance, greedy, lower_bound }
    }
}

/// The area bound `(Σ_j min_i p_ij + Σ_k min_i s_ik) / m` over finite
/// entries and nonempty classes: every job runs somewhere, and every
/// nonempty class pays at least one setup. Valid for the splittable model
/// (a share carries its class's whole workload fraction plus a full
/// setup) and for integral assignments alike.
pub fn area_bound(inst: &UnrelatedInstance) -> f64 {
    let m = inst.m();
    let min_finite = |values: &mut dyn Iterator<Item = u64>| {
        values.filter(|&v| v != INF).min().unwrap_or(0) as f64
    };
    let jobs: f64 = (0..inst.n()).map(|j| min_finite(&mut (0..m).map(|i| inst.ptime(i, j)))).sum();
    let setups: f64 = inst
        .nonempty_classes()
        .iter()
        .map(|&k| min_finite(&mut (0..m).map(|i| inst.setup(i, k))))
        .sum();
    (jobs + setups) / m as f64
}

/// The bound `gap_pct` divides by: `sst_core::bounds` for uniform
/// instances, the larger of `sst_core::bounds`'s single-job bound and the
/// area bound for unrelated ones (the single-job bound alone sits far
/// below the optimum once n ≫ m), the area bound for splittable ones.
pub fn lower_bound(inst: &ProblemInstance) -> f64 {
    match inst {
        ProblemInstance::Uniform(u) => uniform_lower_bound(u).to_f64(),
        ProblemInstance::Unrelated(r) => (unrelated_lower_bound(r) as f64).max(area_bound(r)),
        ProblemInstance::Splittable(s) => area_bound(s.inner()),
    }
}

/// What a sent message expects back.
#[derive(Debug)]
pub enum Expect {
    Solve(Arc<Prepared>),
    Create { sid: u64, base: Arc<Prepared> },
    Delta { sid: u64, deltas: Vec<InstanceDelta> },
    SessionSolve { sid: u64 },
    Close { sid: u64 },
}

impl Expect {
    /// Deltas are the verbs the session mix's latency limit applies to.
    pub fn is_delta(&self) -> bool {
        matches!(self, Expect::Delta { .. })
    }
}

pub struct Message {
    pub id: u64,
    pub bytes: Vec<u8>,
    pub expect: Arc<Expect>,
}

// ---------------------------------------------------------------------------
// Stateless solves
// ---------------------------------------------------------------------------

/// A fixed pool of instances and the order requests cycle through it.
pub struct Pool {
    items: Vec<(Arc<Prepared>, String)>,
}

/// Families of the solve mix, in the order requests cycle through them.
const SOLVE_MIX_FAMILIES: [&str; 5] =
    ["production-line", "compute-cluster", "print-shop", "ci-build-farm", "cdn-transcode"];
const SOLVE_MIX_PER_FAMILY: usize = 8;

fn solve_mix_instance(family: &str, rng: &mut SplitMix) -> ProblemInstance {
    let n = rng.range(55, 65) as usize;
    let m = rng.range(4, 6) as usize;
    let k = rng.range(4, 8) as usize;
    let seed = rng.next_u64();
    match family {
        "production-line" => ProblemInstance::Uniform(production_line(n, m, k, seed)),
        "compute-cluster" => ProblemInstance::Unrelated(compute_cluster(n, m, k, seed)),
        "print-shop" => ProblemInstance::Unrelated(print_shop(n, m, k, seed)),
        "ci-build-farm" => ProblemInstance::Unrelated(ci_build_farm(n, m, k, seed)),
        _ => ProblemInstance::Splittable(SplittableInstance(cdn_transcode(n, m, k, seed))),
    }
}

/// A bulk instance: unrelated and splittable matrices in turn. No uniform
/// ones: once the adaptive selector reaches MULTIFIT on a 2000-job uniform
/// instance, its `Ratio` arithmetic overflows (`ptas::prepare` →
/// `Ratio::mul`) and the handler panics, which fails the request.
fn bulk_instance(slot: usize, rng: &mut SplitMix) -> ProblemInstance {
    let seed = rng.next_u64();
    let (n, m, k) = (2000, 8, 24);
    if slot.is_multiple_of(2) {
        ProblemInstance::Unrelated(sst_gen::unrelated(&UnrelatedParams {
            n,
            m,
            k,
            seed,
            ..Default::default()
        }))
    } else {
        ProblemInstance::Splittable(SplittableInstance(sst_gen::unrelated(&UnrelatedParams {
            n,
            m,
            k,
            seed,
            inf_pct: 0,
            ..Default::default()
        })))
    }
}

/// The JSON of a request after its id: requests differ only in the id, so
/// the instance is encoded once per pool entry.
fn request_suffix(instance: &ProblemInstance, top_k: Option<usize>) -> String {
    let line = request_to_json(&Request {
        id: 0,
        instance: instance.clone(),
        budget_ms: None,
        top_k,
        seed: None,
    });
    let suffix = line.strip_prefix("{\"id\": 0").expect("request lines open with the id");
    format!("{suffix}\n")
}

impl Pool {
    pub fn solve_mix(seed: u64) -> Pool {
        let mut rng = SplitMix::new(seed);
        let mut by_family: Vec<Vec<ProblemInstance>> = SOLVE_MIX_FAMILIES
            .iter()
            .map(|f| (0..SOLVE_MIX_PER_FAMILY).map(|_| solve_mix_instance(f, &mut rng)).collect())
            .collect();
        // Round-robin over the families, so every stretch of five requests
        // carries one of each.
        let mut instances = Vec::new();
        for _ in 0..SOLVE_MIX_PER_FAMILY {
            for family in by_family.iter_mut() {
                instances.push(family.remove(0));
            }
        }
        Pool::from_instances(instances, None)
    }

    pub fn bulk_ingest(seed: u64) -> Pool {
        let mut rng = SplitMix::new(seed);
        let instances = (0..24).map(|slot| bulk_instance(slot, &mut rng)).collect();
        Pool::from_instances(instances, Some(1))
    }

    fn from_instances(instances: Vec<ProblemInstance>, top_k: Option<usize>) -> Pool {
        let items = instances
            .into_iter()
            .map(|inst| {
                let suffix = request_suffix(&inst, top_k);
                (Arc::new(Prepared::new(inst)), suffix)
            })
            .collect();
        Pool { items }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn prepared(&self, index: usize) -> &Arc<Prepared> {
        &self.items[index % self.items.len()].0
    }

    /// The NDJSON line of request `id` on pool entry `index`.
    pub fn line(&self, index: usize, id: u64) -> String {
        format!("{{\"id\": {id}{}", self.items[index % self.items.len()].1)
    }

    /// `count` requests cycling through the pool from its first entry, ids
    /// from `first_id`.
    pub fn messages(&self, count: usize, first_id: u64) -> Vec<Message> {
        (0..count)
            .map(|i| {
                let id = first_id + i as u64;
                let (prepared, _) = &self.items[i % self.items.len()];
                Message {
                    id,
                    bytes: self.line(i, id).into_bytes(),
                    expect: Arc::new(Expect::Solve(Arc::clone(prepared))),
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// One step of a session's script.
#[derive(Debug, Clone)]
pub enum Step {
    Create(Arc<Prepared>),
    Delta(Vec<InstanceDelta>),
    Solve,
    Close,
}

struct Script {
    sid: u64,
    steps: std::vec::IntoIter<Step>,
}

/// Session scripts from `sst-gen`'s `dynamic-queue` traces (n = 2000,
/// m = 8, half uniform-base, half unrelated-base): create, delta batches
/// with a solve every eighth step, close. Keeps [`LIVE_SESSIONS`] sessions
/// open and picks the next verb's session at random.
pub struct Sessions {
    rng: SplitMix,
    live: Vec<Script>,
    next_sid: u64,
}

/// The script of session `sid`, generated from `seed`.
pub fn session_script(sid: u64, seed: u64) -> Vec<Step> {
    let base = if sid.is_multiple_of(2) { DynamicBase::Uniform } else { DynamicBase::Unrelated };
    let (inst, trace) = dynamic_queue(&DynamicQueueParams {
        base,
        n: 2000,
        m: 8,
        k: 16,
        steps: SESSION_STEPS,
        deltas_per_step: 4,
        setups: SetupWeight::Moderate,
        seed,
    });
    let instance = match inst {
        DynamicInstance::Uniform(u) => ProblemInstance::Uniform(u),
        DynamicInstance::Unrelated(r) => ProblemInstance::Unrelated(r),
    };
    // Uniform-base sessions send no solve: a warm race on them can run
    // MULTIFIT, whose `Ratio` arithmetic overflows and panics the handler
    // on these n = 2000 instances (a server defect; the mix must not fail).
    let solves = base == DynamicBase::Unrelated;
    let mut steps = vec![Step::Create(Arc::new(Prepared::new(instance)))];
    for (i, step) in trace.into_iter().enumerate() {
        steps.push(Step::Delta(step.deltas));
        if solves && (i + 1) % SOLVE_EVERY == 0 {
            steps.push(Step::Solve);
        }
    }
    steps.push(Step::Close);
    steps
}

/// Sessions of the pre-phase that leaves a data directory to recover.
/// Fewer than [`MAX_SESSIONS`], so nothing spills, and fewer steps than
/// the store's periodic snapshot interval: a restart replays the whole
/// journal, the same work every time.
const PRE_PHASE_SESSIONS: u64 = 6;
const PRE_PHASE_STEPS: usize = 24;

/// The pre-phase: the first steps of a few session scripts, round-robin,
/// ids from `first_id`.
pub fn pre_phase_messages(seed: u64, first_id: u64) -> Vec<Message> {
    let mut rng = SplitMix::new(seed ^ 0xA11CE);
    let scripts: Vec<(u64, Vec<Step>)> = (0..PRE_PHASE_SESSIONS)
        .map(|i| {
            let sid = 1_000_000 + i;
            let mut steps = session_script(sid, rng.next_u64());
            steps.truncate(PRE_PHASE_STEPS + 1);
            (sid, steps)
        })
        .collect();
    let mut out = Vec::new();
    for step in 0..=PRE_PHASE_STEPS {
        for (sid, steps) in &scripts {
            let Some(verb) = steps.get(step) else { continue };
            let id = first_id + out.len() as u64;
            out.push(Message {
                id,
                bytes: encode_step(id, *sid, verb),
                expect: Arc::new(expect_of(*sid, verb.clone())),
            });
        }
    }
    out
}

pub fn encode_step(id: u64, sid: u64, step: &Step) -> Vec<u8> {
    let verb = match step {
        Step::Create(p) => SessionVerb::Create { sid, instance: p.instance.clone() },
        Step::Delta(deltas) => SessionVerb::Delta { sid, deltas: deltas.clone() },
        Step::Solve => SessionVerb::Solve {
            sid,
            budget_ms: Some(SESSION_SOLVE_BUDGET_MS),
            top_k: Some(SESSION_SOLVE_TOP_K),
            seed: None,
        },
        Step::Close => SessionVerb::Close { sid },
    };
    encode_session(&SessionRequest { id, verb })
}

fn expect_of(sid: u64, step: Step) -> Expect {
    match step {
        Step::Create(base) => Expect::Create { sid, base },
        Step::Delta(deltas) => Expect::Delta { sid, deltas },
        Step::Solve => Expect::SessionSolve { sid },
        Step::Close => Expect::Close { sid },
    }
}

impl Sessions {
    /// Session ids start at `first_sid`, so separate streams on one server
    /// never share a session.
    pub fn new(seed: u64, first_sid: u64) -> Sessions {
        Sessions { rng: SplitMix::new(seed), live: Vec::new(), next_sid: first_sid }
    }

    fn open(&mut self) -> Script {
        let sid = self.next_sid;
        self.next_sid += 1;
        let seed = self.rng.next_u64();
        Script { sid, steps: session_script(sid, seed).into_iter() }
    }

    /// The next `count` verbs, ids from `first_id`.
    pub fn messages(&mut self, count: usize, first_id: u64) -> Vec<Message> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            while self.live.len() < LIVE_SESSIONS {
                let script = self.open();
                self.live.push(script);
            }
            let slot = (self.rng.next_u64() % self.live.len() as u64) as usize;
            let sid = self.live[slot].sid;
            match self.live[slot].steps.next() {
                Some(step) => {
                    let id = first_id + out.len() as u64;
                    out.push(Message {
                        id,
                        bytes: encode_step(id, sid, &step),
                        expect: Arc::new(expect_of(sid, step)),
                    });
                }
                None => {
                    self.live.swap_remove(slot);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Checking answers
// ---------------------------------------------------------------------------

/// Why an answer counts as failed, or that it did not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    Ok,
    ErrorLine,
    Refusal,
    Timeout,
    MakespanMismatch,
    BelowFloor,
}

impl Outcome {
    pub const FAILURES: [Outcome; 5] = [
        Outcome::ErrorLine,
        Outcome::Refusal,
        Outcome::Timeout,
        Outcome::MakespanMismatch,
        Outcome::BelowFloor,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::ErrorLine => "error_line",
            Outcome::Refusal => "refusal",
            Outcome::Timeout => "timeout",
            Outcome::MakespanMismatch => "makespan_mismatch",
            Outcome::BelowFloor => "below_floor",
        }
    }

    /// Failures that mean a wrong answer, not a slow or refused one.
    pub fn is_wrong_answer(self) -> bool {
        matches!(self, Outcome::MakespanMismatch | Outcome::BelowFloor)
    }
}

/// The race summary read off one solve response's solver lines.
#[derive(Debug, Clone, Default)]
pub struct RaceLines {
    /// Members that ran (declined members excluded).
    pub members: u32,
    /// Members the deadline stopped.
    pub cut_off: u32,
    /// The greedy or warm floor won: no member improved on it.
    pub floor_won: bool,
    /// Time each cut-off member ran past the budget (µs).
    pub overrun_us: Vec<f64>,
}

/// The checked form of one answer.
#[derive(Debug, Clone)]
pub struct Checked {
    pub outcome: Outcome,
    /// `makespan / lower bound − 1` in percent, for solve and delta answers.
    pub gap_pct: Option<f64>,
    /// The response's own `micros`.
    pub micros: Option<u64>,
    pub race: Option<RaceLines>,
    /// The server's message for an error answer; what did not match for
    /// a wrong one.
    pub error: Option<String>,
}

impl Checked {
    pub fn bare(outcome: Outcome) -> Checked {
        Checked { outcome, gap_pct: None, micros: None, race: None, error: None }
    }
}

fn same_cost(a: &Cost, b: &Cost) -> bool {
    match (a, b) {
        (Cost::Real(x), Cost::Real(y)) => (x - y).abs() <= 1e-9 * x.abs().max(1.0),
        _ => a == b,
    }
}

fn gap_pct(cost: &Cost, lower_bound: f64) -> Option<f64> {
    (lower_bound > 0.0).then(|| (cost.to_f64() / lower_bound - 1.0) * 100.0)
}

fn race_lines(
    solver: &str,
    lines: &[sst_portfolio::protocol::SolverLine],
    budget_us: u64,
) -> RaceLines {
    let mut out = RaceLines {
        floor_won: solver == "greedy-baseline" || solver == sst_portfolio::WARM_INCUMBENT,
        ..RaceLines::default()
    };
    for line in lines.iter().filter(|l| l.makespan.is_some()) {
        out.members += 1;
        if !line.completed {
            out.cut_off += 1;
            out.overrun_us.push(line.micros.saturating_sub(budget_us) as f64);
        }
    }
    out
}

struct SessionState {
    instance: ProblemInstance,
    /// Cost of the last delta (or create) answer: a session solve may not
    /// lose to it.
    floor: Cost,
}

/// Checks answers against the client's own copy of every instance; keeps
/// each session's copy current by replaying its deltas.
pub struct Checker {
    stateless_budget_us: u64,
    sessions: HashMap<u64, SessionState>,
}

impl Checker {
    pub fn new(spec: &Spec) -> Checker {
        Checker { stateless_budget_us: spec.budget_ms * 1000, sessions: HashMap::new() }
    }

    pub fn check(&mut self, expect: &Expect, resp: Response) -> Checked {
        if let Response::Error { message, .. } = resp {
            let refused = message.starts_with("overloaded");
            let outcome = if refused { Outcome::Refusal } else { Outcome::ErrorLine };
            return Checked { error: Some(message), ..Checked::bare(outcome) };
        }
        match expect {
            Expect::Solve(prepared) => {
                let Response::Ok { makespan, solution, solver, micros, solvers, .. } = resp else {
                    return Checked::bare(Outcome::ErrorLine);
                };
                let race = race_lines(&solver, &solvers, self.stateless_budget_us);
                let outcome = match prepared.instance.evaluate(&solution) {
                    Ok(cost) if same_cost(&cost, &makespan) => {
                        if prepared.greedy.better_than(&makespan) {
                            Outcome::BelowFloor
                        } else {
                            Outcome::Ok
                        }
                    }
                    _ => Outcome::MakespanMismatch,
                };
                Checked {
                    outcome,
                    gap_pct: gap_pct(&makespan, prepared.lower_bound),
                    micros: Some(micros),
                    race: Some(race),
                    error: None,
                }
            }
            Expect::Create { sid, base } => {
                let Response::Session { makespan: Some(cost), .. } = resp else {
                    return Checked::bare(Outcome::ErrorLine);
                };
                let outcome = if same_cost(&cost, &base.greedy) {
                    Outcome::Ok
                } else {
                    Outcome::MakespanMismatch
                };
                self.sessions
                    .insert(*sid, SessionState { instance: base.instance.clone(), floor: cost });
                Checked::bare(outcome)
            }
            Expect::Delta { sid, deltas } => {
                let Response::Ok { makespan, solution, micros, .. } = resp else {
                    return Checked::bare(Outcome::ErrorLine);
                };
                let Some(state) = self.sessions.get_mut(sid) else {
                    return Checked::bare(Outcome::MakespanMismatch);
                };
                let next = match &state.instance {
                    ProblemInstance::Uniform(u) => {
                        apply_uniform_all(u, deltas).map(ProblemInstance::Uniform)
                    }
                    ProblemInstance::Unrelated(r) => {
                        apply_unrelated_all(r, deltas).map(ProblemInstance::Unrelated)
                    }
                    ProblemInstance::Splittable(s) => apply_unrelated_all(s.inner(), deltas)
                        .map(|r| ProblemInstance::Splittable(SplittableInstance(r))),
                };
                let Ok(next) = next else {
                    return Checked::bare(Outcome::MakespanMismatch);
                };
                let evaluated = next.evaluate(&solution);
                let (outcome, error) = match &evaluated {
                    Ok(cost) if same_cost(cost, &makespan) => (Outcome::Ok, None),
                    other => (
                        Outcome::MakespanMismatch,
                        Some(format!(
                            "delta on session {sid}: reported {makespan}, evaluated {other:?}"
                        )),
                    ),
                };
                let gap = gap_pct(&makespan, lower_bound(&next));
                state.instance = next;
                state.floor = makespan;
                Checked { outcome, gap_pct: gap, micros: Some(micros), race: None, error }
            }
            Expect::SessionSolve { sid } => {
                let Response::Ok { makespan, solution, solver, micros, solvers, .. } = resp else {
                    return Checked::bare(Outcome::ErrorLine);
                };
                let Some(state) = self.sessions.get(sid) else {
                    return Checked::bare(Outcome::MakespanMismatch);
                };
                let evaluated = state.instance.evaluate(&solution);
                let (outcome, error) = match &evaluated {
                    Ok(cost) if same_cost(cost, &makespan) => {
                        if state.floor.better_than(&makespan) {
                            let floor = state.floor;
                            (
                                Outcome::BelowFloor,
                                Some(format!(
                                    "solve on session {sid}: {makespan} loses to {floor}"
                                )),
                            )
                        } else {
                            (Outcome::Ok, None)
                        }
                    }
                    other => (
                        Outcome::MakespanMismatch,
                        Some(format!(
                            "solve on session {sid}: reported {makespan}, evaluated {other:?}"
                        )),
                    ),
                };
                let race = race_lines(&solver, &solvers, SESSION_SOLVE_BUDGET_MS * 1000);
                Checked {
                    outcome,
                    gap_pct: gap_pct(&makespan, lower_bound(&state.instance)),
                    micros: Some(micros),
                    race: Some(race),
                    error,
                }
            }
            Expect::Close { sid } => {
                self.sessions.remove(sid);
                let ok = matches!(resp, Response::Session { .. });
                Checked::bare(if ok { Outcome::Ok } else { Outcome::ErrorLine })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_lp::{LpProblem, LpStatus, Relation, Sense};

    /// The splittable optimum by brute force: every nonempty class picks a
    /// nonempty machine subset to carry its shares, and an LP splits the
    /// class workloads over the chosen subsets to minimise the makespan.
    fn splittable_optimum(inst: &UnrelatedInstance) -> f64 {
        let m = inst.m();
        let classes: Vec<usize> = inst.nonempty_classes().to_vec();
        let subsets = (1usize << m) - 1;
        let mut best = f64::INFINITY;
        let total = subsets.pow(classes.len() as u32);
        for code in 0..total {
            let mut rest = code;
            let choice: Vec<usize> = classes
                .iter()
                .map(|_| {
                    let s = rest % subsets + 1;
                    rest /= subsets;
                    s
                })
                .collect();
            let mut lp = LpProblem::new(Sense::Min);
            let t = lp.add_var(1.0, None);
            let mut loads: Vec<Vec<(sst_lp::VarId, f64)>> = vec![vec![(t, -1.0)]; m];
            let mut setup_load = vec![0.0; m];
            for (c, &k) in classes.iter().enumerate() {
                let mut shares = Vec::new();
                for i in (0..m).filter(|i| choice[c] >> i & 1 == 1) {
                    let x = lp.add_var(0.0, Some(1.0));
                    shares.push((x, 1.0));
                    loads[i].push((x, inst.class_workload(i, k) as f64));
                    setup_load[i] += inst.setup(i, k) as f64;
                }
                lp.add_constraint(&shares, Relation::Eq, 1.0);
            }
            for i in 0..m {
                lp.add_constraint(&loads[i], Relation::Le, -setup_load[i]);
            }
            let sol = lp.solve();
            assert_eq!(sol.status, LpStatus::Optimal);
            best = best.min(sol.objective);
        }
        best
    }

    #[test]
    fn area_bound_never_exceeds_the_brute_forced_splittable_optimum() {
        let mut rng = SplitMix::new(11);
        for _ in 0..40 {
            let m = rng.range(2, 3) as usize;
            let n = rng.range(1, 5) as usize;
            let k = rng.range(1, 2) as usize;
            let job_class: Vec<usize> =
                (0..n).map(|_| rng.range(0, k as u64 - 1) as usize).collect();
            let ptimes: Vec<Vec<u64>> =
                (0..n).map(|_| (0..m).map(|_| rng.range(1, 20)).collect()).collect();
            let setups: Vec<Vec<u64>> =
                (0..k).map(|_| (0..m).map(|_| rng.range(0, 15)).collect()).collect();
            let inst = UnrelatedInstance::new(m, job_class, ptimes, setups).unwrap();
            let bound = area_bound(&inst);
            let opt = splittable_optimum(&inst);
            assert!(bound <= opt + 1e-6, "area bound {bound} above the optimum {opt}");
            assert!(bound > 0.0);
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_messages() {
        let a = Pool::solve_mix(3).messages(12, 100);
        let b = Pool::solve_mix(3).messages(12, 100);
        assert!(a.iter().zip(&b).all(|(x, y)| x.bytes == y.bytes && x.id == y.id));
        let c = Pool::solve_mix(4).messages(12, 100);
        assert!(a.iter().zip(&c).any(|(x, y)| x.bytes != y.bytes));
    }

    #[test]
    fn checker_accepts_a_true_answer_and_flags_a_wrong_makespan() {
        let prepared =
            Arc::new(Prepared::new(ProblemInstance::Unrelated(compute_cluster(12, 3, 3, 5))));
        let greedy = prepared.instance.greedy();
        let expect = Expect::Solve(Arc::clone(&prepared));
        let answer = |makespan| Response::Ok {
            id: 1,
            kind: "unrelated".into(),
            solver: "greedy-baseline".into(),
            micros: 10,
            makespan,
            solution: greedy.solution.clone(),
            solvers: Vec::new(),
        };
        let mut checker = Checker::new(&Workload::SolveMix.spec());
        let good = checker.check(&expect, answer(greedy.cost));
        assert_eq!(good.outcome, Outcome::Ok);
        assert!(good.gap_pct.unwrap() >= 0.0);
        let Cost::Time(t) = greedy.cost else { panic!("unrelated costs are integral") };
        let bad = checker.check(&expect, answer(Cost::Time(t - 1)));
        assert_eq!(bad.outcome, Outcome::MakespanMismatch);
        let refused = checker
            .check(&expect, Response::Error { id: Some(1), message: "overloaded: x".into() });
        assert_eq!(refused.outcome, Outcome::Refusal);
    }
}
