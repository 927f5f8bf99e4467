//! Deterministic interleaving models of the five riskiest serve-path
//! protocols, explored with `sst_check::sched` (loom-style). Each model is
//! a few virtual threads with explicit yield points; the exhaustive runs
//! enumerate *every* schedule, so a passing test is a proof over the model,
//! not a lucky run. Each protocol also has a deliberately broken variant
//! that the explorer must catch — that pins *why* the production code is
//! shaped the way it is.

use std::sync::Arc;

use sst_check::sched::{explore, yield_now, FailureKind, Strategy, VCell, VCondvar, VMutex};

// ---------------------------------------------------------------------------
// Model 1: injector / per-worker deque with steal-back-half handoff
// (pool.rs dispatch). A victim claims the whole injector batch; a thief
// finds the injector empty and steals back half of the victim's local
// queue. Property: every task is executed exactly once, no matter how the
// claim and the steal interleave.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PoolDone {
    done: Vec<u32>,
    exits: u32,
}

#[test]
fn pool_steal_back_half_handoff_loses_no_task() {
    let stats = explore(Strategy::Exhaustive { max_executions: 100_000 }, |run| {
        let injector = Arc::new(VMutex::new(vec![1u32, 2, 3]));
        let victim_local = Arc::new(VMutex::new(Vec::<u32>::new()));
        let state = Arc::new(VMutex::new(PoolDone::default()));

        let finish = |state: &Arc<VMutex<PoolDone>>, mine: Vec<u32>| {
            let mut st = state.lock();
            st.done.extend(mine);
            st.exits += 1;
            if st.exits == 2 {
                let mut done = st.done.clone();
                done.sort_unstable();
                assert_eq!(done, vec![1, 2, 3], "each task exactly once");
            }
        };

        {
            let (injector, local, state) =
                (Arc::clone(&injector), Arc::clone(&victim_local), Arc::clone(&state));
            run.spawn("victim", move || {
                // Claim the batch: pop one to run, park the rest in the
                // local deque (pool.rs claim path).
                let mut mine = Vec::new();
                let rest = {
                    let mut inj = injector.lock();
                    if let Some(first) = inj.pop() {
                        mine.push(first);
                    }
                    std::mem::take(&mut *inj)
                };
                victim_locked_extend(&local, rest);
                // Drain whatever the thief left us.
                loop {
                    let next = local.lock().pop();
                    match next {
                        Some(t) => mine.push(t),
                        None => break,
                    }
                }
                finish(&state, mine);
            });
        }
        {
            let (injector, local, state) =
                (Arc::clone(&injector), Arc::clone(&victim_local), Arc::clone(&state));
            run.spawn("thief", move || {
                let mut mine = Vec::new();
                if let Some(t) = injector.lock().pop() {
                    // Beat the victim to the injector: run one task and
                    // leave the rest (the victim claims them).
                    mine.push(t);
                } else {
                    // Injector empty: steal back half of the victim's
                    // local queue (pool.rs steal path).
                    let mut v = local.lock();
                    let keep = v.len() - v.len() / 2;
                    mine = v.split_off(keep);
                }
                finish(&state, mine);
            });
        }
    })
    .expect("no schedule may lose or duplicate a task");
    assert!(stats.complete, "exhaustive space must be fully enumerated");
}

/// Victim-side helper: one lock tenure to deposit the claimed batch.
fn victim_locked_extend(local: &Arc<VMutex<Vec<u32>>>, rest: Vec<u32>) {
    if !rest.is_empty() {
        local.lock().extend(rest);
    }
}

// ---------------------------------------------------------------------------
// Model 2: condvar park vs. wake (pool.rs:330 lost-wakeup comment). The
// fixed protocol keeps the work flag inside the sleep mutex and re-checks
// it before waiting; the buggy variant checks a racy flag outside the lock
// and then parks — the dispatcher's notify can land in the gap and the
// worker sleeps forever. The explorer must find that deadlock.
// ---------------------------------------------------------------------------

#[test]
fn condvar_recheck_under_lock_prevents_lost_wakeup() {
    let stats = explore(Strategy::Exhaustive { max_executions: 100_000 }, |run| {
        let sleep = Arc::new(VMutex::new(false)); // work flag inside the mutex
        let cv = Arc::new(VCondvar::new());
        {
            let (sleep, cv) = (Arc::clone(&sleep), Arc::clone(&cv));
            run.spawn("worker", move || {
                let mut has_work = sleep.lock();
                while !*has_work {
                    cv.wait(&mut has_work);
                }
            });
        }
        {
            let (sleep, cv) = (Arc::clone(&sleep), Arc::clone(&cv));
            run.spawn("dispatcher", move || {
                // Set-and-notify under the same lock (pool.rs dispatch).
                let mut has_work = sleep.lock();
                *has_work = true;
                cv.notify_one();
            });
        }
    })
    .expect("recheck-under-lock never hangs");
    assert!(stats.complete);
}

#[test]
fn racy_flag_check_outside_lock_is_a_lost_wakeup() {
    let result = explore(Strategy::Exhaustive { max_executions: 100_000 }, |run| {
        let flag = Arc::new(VCell::new(false)); // racy: outside the mutex
        let sleep = Arc::new(VMutex::new(()));
        let cv = Arc::new(VCondvar::new());
        {
            let (flag, sleep, cv) = (Arc::clone(&flag), Arc::clone(&sleep), Arc::clone(&cv));
            run.spawn("worker", move || {
                if !flag.get() {
                    // Gap: the dispatcher can set + notify right here.
                    let mut g = sleep.lock();
                    cv.wait(&mut g);
                }
            });
        }
        {
            let (flag, cv) = (Arc::clone(&flag), Arc::clone(&cv));
            run.spawn("dispatcher", move || {
                flag.set(true);
                cv.notify_one(); // lost if the worker has not parked yet
            });
        }
    });
    let failure = result.expect_err("some schedule must lose the wakeup");
    match &failure.kind {
        FailureKind::Deadlock { blocked } => {
            assert_eq!(blocked, &["worker"], "the worker parks forever: {failure}")
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Model 3: SessionStore spill vs. a lane's checkout → repair → write-back
// (session.rs). The spiller snapshots the LRU session, writes the snapshot
// outside the lock, then must revalidate (the stamp check) before evicting
// — a lane may have touched or replaced the session in the gap. The lane
// checks the session out under the lock, repairs outside it (the yield),
// and writes back under the lock; a spill can land between the two, so a
// write-back that finds the session gone must re-insert it (its state is
// newer than the spill image) instead of dropping the write. Property: the
// written version is never lost, whether it lives in memory or on disk.
// ---------------------------------------------------------------------------

struct SpillSt {
    /// `(stamp, version)` of the resident session, `None` when spilled.
    resident: Option<(u64, u32)>,
    /// Version of the on-disk snapshot (0 = none).
    disk: u32,
    /// The LRU clock.
    clock: u64,
    exits: u32,
}

impl SpillSt {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

fn spill_model(
    revalidate: bool,
    reinsert: bool,
) -> Result<sst_check::sched::Stats, Box<sst_check::sched::Failure>> {
    explore(Strategy::Exhaustive { max_executions: 100_000 }, move |run| {
        let st =
            Arc::new(VMutex::new(SpillSt { resident: Some((1, 1)), disk: 0, clock: 1, exits: 0 }));
        let finish = |st: &Arc<VMutex<SpillSt>>| {
            let mut g = st.lock();
            g.exits += 1;
            if g.exits == 2 {
                let visible = g.resident.map(|(_, v)| v).unwrap_or(g.disk);
                assert_eq!(visible, 2, "the write-back must never be lost to a spill");
            }
        };
        {
            let st = Arc::clone(&st);
            run.spawn("spiller", move || {
                let snap = st.lock().resident;
                if let Some((stamp, version)) = snap {
                    yield_now(); // serialize the snapshot outside the lock
                    let mut g = st.lock();
                    if !revalidate || g.resident.map(|(s, _)| s) == Some(stamp) {
                        g.disk = version;
                        g.resident = None; // evict
                    }
                }
                finish(&st);
            });
        }
        {
            let st = Arc::clone(&st);
            run.spawn("lane", move || {
                // Checkout: touch a resident session, or cold-reload it.
                let version = {
                    let mut g = st.lock();
                    let stamp = g.tick();
                    let version = g.resident.map_or(g.disk, |(_, v)| v);
                    g.resident = Some((stamp, version));
                    version
                };
                yield_now(); // repair outside the lock
                let mut g = st.lock();
                let stamp = g.tick();
                if g.resident.is_some() || reinsert {
                    g.resident = Some((stamp, version + 1));
                }
                drop(g);
                finish(&st);
            });
        }
    })
}

#[test]
fn spill_revalidation_preserves_the_update() {
    let stats = spill_model(true, true).expect("the write-back is never lost");
    assert!(stats.complete, "exhaustive space must be fully enumerated");
}

#[test]
fn unconditional_evict_after_snapshot_loses_the_update() {
    let failure = spill_model(false, true).expect_err("stale evict must lose the update somewhere");
    assert!(
        matches!(failure.kind, FailureKind::Panic { .. }),
        "loss surfaces as the model assertion: {failure}"
    );
}

#[test]
fn write_back_dropped_after_a_spill_loses_the_delta() {
    let failure =
        spill_model(true, false).expect_err("a dropped write-back must lose the delta somewhere");
    assert!(
        matches!(failure.kind, FailureKind::Panic { .. }),
        "loss surfaces as the model assertion: {failure}"
    );
}

// ---------------------------------------------------------------------------
// Model 4: TraceSink bounded ring — producer vs. drainer vs. close
// (telemetry.rs). Capacity-1 ring: a full ring drops (counted), close
// wakes the drainer so buffered events still flush. Property: every
// emitted event is either drained or counted as dropped — and the variant
// where close() forgets to notify deadlocks the drainer, which is exactly
// why the real `TraceSink::close` notifies under the state lock.
// ---------------------------------------------------------------------------

struct RingSt {
    buf: Option<u32>, // capacity-1 ring
    closed: bool,
    dropped: u32,
    out: Vec<u32>,
    exits: u32,
}

fn ring_model(
    strategy: Strategy,
    close_notifies: bool,
) -> Result<sst_check::sched::Stats, Box<sst_check::sched::Failure>> {
    explore(strategy, move |run| {
        let st = Arc::new(VMutex::new(RingSt {
            buf: None,
            closed: false,
            dropped: 0,
            out: Vec::new(),
            exits: 0,
        }));
        let cv = Arc::new(VCondvar::new());
        let finish = |st: &Arc<VMutex<RingSt>>| {
            let mut g = st.lock();
            g.exits += 1;
            if g.exits == 3 {
                assert!(g.buf.is_none(), "drainer flushes the ring before exiting");
                assert_eq!(
                    g.out.len() + g.dropped as usize,
                    2,
                    "every event drained or counted as dropped"
                );
            }
        };
        {
            let (st, cv) = (Arc::clone(&st), Arc::clone(&cv));
            run.spawn("producer", move || {
                for event in [1u32, 2] {
                    let mut g = st.lock();
                    if g.closed || g.buf.is_some() {
                        g.dropped += 1; // full or closed ring drops, counted
                    } else {
                        g.buf = Some(event);
                        cv.notify_one();
                    }
                }
                finish(&st);
            });
        }
        {
            let (st, cv) = (Arc::clone(&st), Arc::clone(&cv));
            run.spawn("drainer", move || {
                {
                    let mut g = st.lock();
                    loop {
                        if let Some(event) = g.buf.take() {
                            g.out.push(event);
                            continue;
                        }
                        if g.closed {
                            break;
                        }
                        cv.wait(&mut g);
                    }
                }
                finish(&st);
            });
        }
        {
            let (st, cv) = (Arc::clone(&st), Arc::clone(&cv));
            run.spawn("closer", move || {
                {
                    let mut g = st.lock();
                    g.closed = true;
                    if close_notifies {
                        cv.notify_all();
                    }
                }
                finish(&st);
            });
        }
    })
}

#[test]
fn trace_ring_accounts_for_every_event() {
    let stats = ring_model(Strategy::Exhaustive { max_executions: 500_000 }, true)
        .expect("drain + drop accounting holds in every schedule");
    assert!(stats.complete, "exhaustive space must be fully enumerated");
}

#[test]
fn trace_ring_random_walks_for_ci() {
    // The bounded, seeded sweep CI runs in addition to the exhaustive
    // pass: deterministic per seed, cheap at any model size.
    ring_model(Strategy::Random { seed: 0x5357, walks: 200 }, true)
        .expect("seeded walks agree with the exhaustive pass");
}

#[test]
fn close_without_notify_hangs_the_drainer() {
    let failure = ring_model(Strategy::Exhaustive { max_executions: 500_000 }, false)
        .expect_err("silent close must strand the drainer in some schedule");
    match &failure.kind {
        FailureKind::Deadlock { blocked } => {
            assert!(blocked.contains(&"drainer".to_string()), "{failure}")
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Model 5: group-commit journal handoff (durable.rs DurableStore::append /
// committer_loop), the one path every journal append takes. Appenders
// enqueue a record, wake the committer and wait until their seq is
// resolved; the committer drains a batch, writes it outside the state
// lock, then publishes durable_seq (or failed_seq when the write failed)
// and notifies. Three properties, each pinned by a deliberately broken
// variant:
//   (1) write-ahead — no appender releases its response before its own
//       record is durable (a single `if`-wait instead of the `while` loop
//       releases on a foreign batch's wakeup);
//   (2) shutdown drains — the committer must commit the in-flight batch
//       before exiting (returning on `shutdown` with records still
//       pending strands every waiter);
//   (3) a failed commit resolves its appenders — each one either releases
//       with its record durable or returns an error with failed_seq
//       covering it, and never acknowledges a record of the failed batch
//       (an appender that waits on durable_seq alone waits forever once
//       the failed batch held the last record).
// The last appender to enqueue raises `shutdown` *before* waiting, so the
// flag always races the in-flight batch — the exact graceful-shutdown
// scenario the serve path must survive.
// ---------------------------------------------------------------------------

struct CommitSt {
    assigned: u64,
    durable: u64,
    failed: u64,
    /// Ground truth kept by the model only: the seqs of failed batches.
    lost: Vec<u64>,
    pending: Vec<u64>,
    shutdown: bool,
}

/// The protocol as written, or one of its broken variants.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Commit {
    /// Batch cap 1, every write succeeds.
    Correct,
    /// Broken: a single `if`-wait on `durable`.
    SingleWait,
    /// Broken: the committer returns on `shutdown` with records pending.
    ExitWithoutDrain,
    /// The committer takes every pending record per batch and its first
    /// batch write fails.
    FirstBatchFails,
    /// Broken: as `FirstBatchFails`, but appenders wait on `durable` only.
    FirstBatchFailsDurableWait,
}

fn group_commit_model(
    strategy: Strategy,
    variant: Commit,
) -> Result<sst_check::sched::Stats, Box<sst_check::sched::Failure>> {
    let fails = matches!(variant, Commit::FirstBatchFails | Commit::FirstBatchFailsDurableWait);
    explore(strategy, move |run| {
        let st = Arc::new(VMutex::new(CommitSt {
            assigned: 0,
            durable: 0,
            failed: 0,
            lost: Vec::new(),
            pending: Vec::new(),
            shutdown: false,
        }));
        let work = Arc::new(VCondvar::new()); // appender → committer
        let done = Arc::new(VCondvar::new()); // committer → appenders

        for name in ["appender-a", "appender-b"] {
            let (st, work, done) = (Arc::clone(&st), Arc::clone(&work), Arc::clone(&done));
            run.spawn(name, move || {
                let mut g = st.lock();
                g.assigned += 1;
                let seq = g.assigned;
                g.pending.push(seq);
                if seq == 2 {
                    // Shutdown races the in-flight batch.
                    g.shutdown = true;
                }
                work.notify_all();
                match variant {
                    Commit::SingleWait => {
                        // Broken: a wakeup for someone else's batch releases us.
                        if g.durable < seq {
                            done.wait(&mut g);
                        }
                    }
                    Commit::FirstBatchFailsDurableWait => {
                        // Broken: a failed batch never advances `durable`.
                        while g.durable < seq {
                            done.wait(&mut g);
                        }
                    }
                    _ => {
                        while g.durable.max(g.failed) < seq {
                            done.wait(&mut g);
                        }
                    }
                }
                if g.failed >= seq {
                    // Refused: the appender returns an error and no
                    // response is released.
                    return;
                }
                // The write-ahead contract, checked at response release.
                assert!(g.durable >= seq, "response released before its record is durable");
                assert!(!g.lost.contains(&seq), "a record of a failed batch was acknowledged");
            });
        }
        {
            let (st, work, done) = (Arc::clone(&st), Arc::clone(&work), Arc::clone(&done));
            run.spawn("committer", move || {
                let mut first_batch = true;
                loop {
                    let batch = {
                        let mut g = st.lock();
                        loop {
                            if variant == Commit::ExitWithoutDrain && g.shutdown {
                                // Broken: exit on shutdown with records pending.
                                return;
                            }
                            if !g.pending.is_empty() {
                                break;
                            }
                            if g.shutdown {
                                assert_eq!(
                                    g.durable.max(g.failed),
                                    g.assigned,
                                    "shutdown resolved every record"
                                );
                                return;
                            }
                            work.wait(&mut g);
                        }
                        if fails {
                            // A failed batch may hold the last record, so
                            // nothing after it advances `durable`.
                            std::mem::take(&mut g.pending)
                        } else {
                            // Batch cap 1: each record commits alone, so one
                            // appender's wakeup can precede the other's commit.
                            vec![g.pending.remove(0)]
                        }
                    };
                    yield_now(); // the coalesced write + fsync, outside the lock
                    let mut g = st.lock();
                    let last = *batch.last().unwrap();
                    if fails && first_batch {
                        g.failed = last;
                        g.lost.extend(&batch);
                    } else {
                        g.durable = last;
                    }
                    first_batch = false;
                    done.notify_all();
                }
            });
        }
    })
}

#[test]
fn group_commit_releases_only_durable_responses() {
    let stats =
        group_commit_model(Strategy::Exhaustive { max_executions: 500_000 }, Commit::Correct)
            .expect("write-ahead + drain-on-shutdown hold in every schedule");
    assert!(stats.complete, "exhaustive space must be fully enumerated");
}

#[test]
fn group_commit_random_walks_for_ci() {
    group_commit_model(Strategy::Random { seed: 0x5357, walks: 200 }, Commit::Correct)
        .expect("seeded walks agree with the exhaustive pass");
}

#[test]
fn single_wait_release_breaks_the_durable_contract() {
    let failure =
        group_commit_model(Strategy::Exhaustive { max_executions: 500_000 }, Commit::SingleWait)
            .expect_err("some schedule wakes an appender on a foreign batch");
    assert!(
        matches!(failure.kind, FailureKind::Panic { .. } | FailureKind::Deadlock { .. }),
        "early release trips the release-time assert (or strands a waiter): {failure}"
    );
}

#[test]
fn committer_exit_without_drain_strands_appenders() {
    let failure = group_commit_model(
        Strategy::Exhaustive { max_executions: 500_000 },
        Commit::ExitWithoutDrain,
    )
    .expect_err("exiting with a non-empty batch must deadlock some schedule");
    match &failure.kind {
        FailureKind::Deadlock { blocked } => assert!(
            blocked.iter().any(|t| t.starts_with("appender")),
            "an appender waits forever on its lost record: {failure}"
        ),
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

#[test]
fn failed_commit_refuses_or_acknowledges_every_appender() {
    let stats = group_commit_model(
        Strategy::Exhaustive { max_executions: 500_000 },
        Commit::FirstBatchFails,
    )
    .expect("every appender resolves and shutdown drains after a failed batch");
    assert!(stats.complete, "exhaustive space must be fully enumerated");
}

#[test]
fn waiting_only_on_durable_hangs_after_a_failed_commit() {
    let failure = group_commit_model(
        Strategy::Exhaustive { max_executions: 500_000 },
        Commit::FirstBatchFailsDurableWait,
    )
    .expect_err("a failed batch holding the last record must strand its appenders");
    match &failure.kind {
        FailureKind::Deadlock { blocked } => assert!(
            blocked.iter().any(|t| t.starts_with("appender")),
            "an appender waits forever on a record that failed: {failure}"
        ),
        other => panic!("expected a deadlock, got {other:?}"),
    }
}
