//! Contended-workload benchmarks of the million-session store tier:
//! group-commit journal throughput and the sharded hot store, measured
//! and gated.
//!
//! Section 1 (gated): concurrent lanes appending journal records under
//! `--durability fsync` — the regime group commit exists for. The same
//! workload runs against a synchronous store (`journal_batch = 1`, one
//! write + one fsync per record) and a grouped store (`journal_batch =
//! 128`, the committer coalesces whatever is pending into one write +
//! one fsync per batch). Both sides are best-of-[`TIMING_REPEATS`]; the
//! CI gate requires grouped throughput ≥ 2× the synchronous baseline —
//! conservative, since each blocked appender lets the others enqueue,
//! so real batches form even on a single core.
//!
//! Section 2 (direction gate): a read-heavy session workload against a
//! global store (1 shard) vs a sharded store (8 shards). Every read and
//! write takes its shard's mutex, so the shards pay off when lanes on
//! distinct shards stop queueing on one mutex — a multicore effect. The
//! gate is direction-only (sharded must not be meaningfully slower:
//! ≤ 1.10× the global time) because on a single-core runner the two are
//! an expected tie; the measured ratio is printed for the ROADMAP table.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sst_core::delta::InstanceDelta;
use sst_core::instance::{Job, UniformInstance};
use sst_portfolio::{Durability, DurableStore, ProblemInstance, SessionEntry, SessionStore};

/// Identical timed runs per side; the minimum is kept so a single
/// preemption or fsync outlier cannot flake the gate.
const TIMING_REPEATS: usize = 5;
/// Concurrent appender lanes in section 1.
const APPEND_THREADS: usize = 8;
/// Records each lane appends per timed run.
const APPENDS_PER_THREAD: usize = 25;
/// Concurrent readers in section 2.
const READ_THREADS: usize = 4;
/// Store probes each reader performs per timed run.
const READS_PER_THREAD: usize = 4000;
/// Sessions resident during the read workload.
const SESSIONS: u64 = 128;

fn timed_min(mut work: impl FnMut()) -> f64 {
    let mut best_us = f64::INFINITY;
    for _ in 0..TIMING_REPEATS {
        let t0 = Instant::now();
        work();
        best_us = best_us.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    best_us
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sst-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn entry(seed: u64) -> SessionEntry {
    let inst = ProblemInstance::Uniform(
        UniformInstance::identical(2, vec![1], vec![Job::new(0, 1 + seed % 7)]).unwrap(),
    );
    let greedy = inst.greedy();
    SessionEntry {
        instance: Arc::new(inst),
        incumbent: greedy.solution,
        cost: greedy.cost,
        proxy: None,
    }
}

/// One timed run: [`APPEND_THREADS`] lanes, each appending
/// [`APPENDS_PER_THREAD`] delta records to its own sid, all funneling
/// into one fsync journal with the given batch cap.
fn fsync_append_us(tag: &str, batch: usize) -> f64 {
    let dir = scratch(tag);
    let store = Arc::new(
        DurableStore::open(&dir, Durability::Fsync)
            .expect("open store")
            .with_group_commit(batch, 0),
    );
    let us = timed_min(|| {
        std::thread::scope(|s| {
            for lane in 0..APPEND_THREADS {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let deltas = [InstanceDelta::AddJob { class: 0, times: vec![3 + lane as u64] }];
                    for _ in 0..APPENDS_PER_THREAD {
                        store.append_delta(lane as u64, &deltas).expect("append");
                    }
                });
            }
        });
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    us
}

fn group_commit_table() {
    let records = APPEND_THREADS * APPENDS_PER_THREAD;
    println!(
        "== store: journal append, {APPEND_THREADS} lanes x {APPENDS_PER_THREAD} records, \
         --durability fsync =="
    );
    println!("{:<24} {:>12} {:>14}", "mode", "total-us", "records/s");
    let single_us = fsync_append_us("single", 1);
    let grouped_us = fsync_append_us("grouped", 128);
    for (name, us) in
        [("single-append (batch 1)", single_us), ("group-commit (batch 128)", grouped_us)]
    {
        println!("{:<24} {:>12.0} {:>14.0}", name, us, records as f64 / (us / 1e6));
    }
    println!("group-commit speedup: {:.1}x", single_us / grouped_us);
    // CI gate: one fsync per *batch* must beat one fsync per *record* by
    // at least 2x under 8-way contention. The full measured ratio is
    // tracked in ROADMAP.md; the gate stays conservative so shared
    // runners with fast or slow fsync both hold it.
    assert!(
        grouped_us * 2.0 <= single_us,
        "group commit ({grouped_us:.0}us) must be >= 2x faster than \
         single-append fsync ({single_us:.0}us)"
    );
}

/// One timed run: [`READ_THREADS`] readers sweeping snapshot probes over
/// all sessions, one writer slot per sweep (every 8th op is an incumbent
/// update) so shard mutexes see traffic too.
fn store_read_us(shards: usize) -> f64 {
    let store = Arc::new(SessionStore::new(SESSIONS as usize * 2).with_shards(shards));
    for sid in 0..SESSIONS {
        store.create(sid, entry(sid), 0);
    }
    timed_min(|| {
        std::thread::scope(|s| {
            for t in 0..READ_THREADS {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..READS_PER_THREAD {
                        let sid = ((i * READ_THREADS + t) as u64) % SESSIONS;
                        if i % 8 == 7 {
                            store.update_incumbent(sid, entry(sid + i as u64));
                        } else {
                            black_box(store.snapshot(sid));
                        }
                    }
                });
            }
        });
    })
}

fn sharded_store_table() {
    let probes = READ_THREADS * READS_PER_THREAD;
    println!(
        "== store: {READ_THREADS} readers x {READS_PER_THREAD} probes over {SESSIONS} sessions \
         (7:1 read:write) =="
    );
    println!("{:<24} {:>12} {:>14}", "layout", "total-us", "probes/s");
    let global_us = store_read_us(1);
    let sharded_us = store_read_us(8);
    for (name, us) in [("global (1 shard)", global_us), ("sharded (8 shards)", sharded_us)] {
        println!("{:<24} {:>12.0} {:>14.0}", name, us, probes as f64 / (us / 1e6));
    }
    println!("sharded speedup: {:.2}x", global_us / sharded_us);
    // Direction gate: sharding must never cost read throughput. On a
    // single core the two layouts are an expected tie (one uncontended
    // mutex per probe either way), so the bound only rejects a real
    // regression, with 10% slack for scheduler noise.
    assert!(
        sharded_us <= global_us * 1.10,
        "sharded store ({sharded_us:.0}us) must not be slower than the \
         global store ({global_us:.0}us)"
    );
}

fn bench(c: &mut Criterion) {
    group_commit_table();
    sharded_store_table();
    // Criterion tracking of the store read itself (one shard lock), for
    // run-over-run comparison.
    let store = SessionStore::new(SESSIONS as usize * 2).with_shards(8);
    for sid in 0..SESSIONS {
        store.create(sid, entry(sid), 0);
    }
    let mut g = c.benchmark_group("session_store");
    let mut at = 0u64;
    g.bench_function("snapshot_read_sharded_8", |b| {
        b.iter(|| {
            at = (at + 1) % SESSIONS;
            black_box(store.snapshot(black_box(at)))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
