//! The session store: id → live instance + incumbent solution, the state
//! behind the stateful half of the serve protocol.
//!
//! A *session* keeps an instance alive across requests so dynamic traffic
//! — jobs arriving, finishing, resizing (see [`sst_core::delta`]) — is
//! answered by **repairing** the previous solution instead of recomputing
//! it: the `delta` verb routes through
//! [`ModelOps::repair_deltas`](crate::model::ModelOps::repair_deltas) and
//! the `solve` verb races with the repaired incumbent pre-published as the
//! floor ([`crate::race::race_with_floor`]).
//!
//! The store is **LRU-bounded** at `max_sessions` (the `--max-sessions`
//! flag). What the bound means depends on durability:
//!
//! * **Without a [`DurableStore`]** (no `--data-dir`), creating a session
//!   at capacity *evicts* the least-recently-used one — the evicted
//!   client's next request gets an `unknown session` error line and the
//!   eviction shows up in the `{"metrics": true}` session stats.
//! * **With a [`DurableStore`]**, capacity *spills* instead: the LRU
//!   victim's snapshot is written to disk **before** the hot entry is
//!   dropped, and a later touch of the cold session transparently reloads
//!   it ([`SessionStore::snapshot`]). The LRU bounds memory, not session
//!   lifetime; spills and cold reloads are separate metrics counters.
//!
//! **Sharding:** the map is split into per-lane shards keyed by the same
//! splitmix64 hash ([`shard_of`]) the service uses to pick a session's
//! FIFO lane, so verbs on distinct lanes never contend on a shard lock.
//! Each shard is one `session.shard` mutex over a plain map; every lookup,
//! LRU touch, write-back and spill revalidation of a session happens under
//! its shard's lock, so a spill can never slip between finding a session
//! and stamping it. The LRU bound and every counter stay **global**:
//! victim selection visits the shards one lock at a time for the minimum
//! stamp, claims the victim so no other spill writes its image at the
//! same time, and revalidates under the victim's shard lock. No code path
//! ever holds two shard locks at once, nor a shard lock across journal or
//! snapshot IO.
//!
//! Entries are stored behind `Arc`s, so reads clone a pointer and writes
//! swap one — a shard lock is held for pointer-sized work only; repairs,
//! races and snapshot file writes run outside it on the shared entry. A
//! spill may still take a durable session while its lane works on it; the
//! lane's write-back then re-inserts the session hot, since its state is
//! newer than the spill image (see [`SessionStore::update`]).
//!
//! **Ordering:** session verbs do not ride the work-stealing pool (which
//! preserves no order for in-flight requests) — the service routes them
//! through FIFO lanes keyed by session id, so each session's
//! `create`/`delta`/`solve`/`close` sequence executes in arrival order
//! while distinct sessions run in parallel (see [`crate::service`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sst_core::schedule::Schedule;
use sst_core::telemetry::{Telemetry, TraceEvent};

use crate::durable::DurableStore;
use crate::model::Solution;
use crate::solver::{Cost, ProblemInstance};

/// Default shard count, matching the service's default `--session-lanes`.
pub const DEFAULT_SHARDS: usize = 4;

/// Maps a session id to its shard index — the same splitmix64 mix the
/// service uses to key its FIFO session lanes, so (at equal counts) a
/// lane's sessions all live in one shard and distinct lanes never contend.
pub fn shard_of(sid: u64, shards: usize) -> usize {
    // splitmix64: adjacent sids land on unrelated shards.
    let mut h = sid.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h % shards.max(1) as u64) as usize
}

/// One live session: the current instance, the best-known solution with
/// its exact cost, and the splittable model's integral proxy assignment.
#[derive(Debug, Clone)]
pub struct SessionEntry {
    /// The session's current (post-delta) instance (shared with in-flight
    /// repairs/races; replaced wholesale by deltas).
    pub instance: Arc<ProblemInstance>,
    /// Best-known solution for [`Self::instance`].
    pub incumbent: Solution,
    /// Exact cost of [`Self::incumbent`].
    pub cost: Cost,
    /// Integral proxy assignment (splittable sessions; see
    /// [`crate::model::Repaired::proxy`]).
    pub proxy: Option<Schedule>,
}

/// Counters of the session store, reported by `{"metrics": true}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions currently hot (in memory; spilled sessions stay live on
    /// disk and do not count here).
    pub live: u64,
    /// Sessions destroyed by the LRU bound since start (non-durable mode
    /// only; with a data dir the bound spills instead).
    pub evicted: u64,
    /// Session solves the warm incumbent won outright (no raced member
    /// improved the repaired floor).
    pub warm_hits: u64,
    /// Session solves where a raced member beat the warm floor.
    pub warm_misses: u64,
    /// LRU victims spilled to a snapshot instead of destroyed.
    pub spills: u64,
    /// Cold sessions transparently reloaded from their snapshot.
    pub cold_reloads: u64,
    /// Sessions rebuilt by crash recovery at startup.
    pub recovered: u64,
    /// Journal records appended since start.
    pub journal_appends: u64,
    /// Journal bytes written since start.
    pub journal_bytes: u64,
    /// Snapshot files written since start.
    pub snapshots: u64,
}

/// One member of a shard map.
struct Slot {
    /// LRU recency stamp: a tick of the store-global clock, fresh on every
    /// touch and write-back, so an unchanged stamp proves an untouched slot.
    stamp: u64,
    entry: Arc<SessionEntry>,
    /// Last journal sequence number folded into `entry` (0 = none).
    seq: u64,
    /// Journaled verbs applied since the last on-disk snapshot — the
    /// periodic-snapshot trigger.
    fresh: u64,
    /// A room-maker claimed this session and is writing its spill image.
    /// Other room-makers skip it, so a stale image can never be renamed
    /// over a newer one after the session went cold.
    spilling: bool,
}

/// One shard: its members behind one lock. Every shard's lock shares the
/// `session.shard` lockdep name (one graph node), so the no-two-shard-locks
/// rule is machine-checked: nesting any two would record a self-edge, i.e.
/// a cycle.
type Shard = Mutex<BTreeMap<u64, Slot>>;

fn new_shards(count: usize) -> Vec<Shard> {
    (0..count.max(1)).map(|_| Mutex::named("session.shard", BTreeMap::new())).collect()
}

/// Thread-safe, LRU-bounded session store shared by all pool workers,
/// optionally backed by a [`DurableStore`] (journal + snapshot spill).
/// Sharded per lane, one mutex per shard; see the module docs.
pub struct SessionStore {
    max: usize,
    shards: Vec<Shard>,
    /// Global LRU clock; touches stamp slots with its ticks.
    clock: AtomicU64,
    evicted: AtomicU64,
    warm_hits: AtomicU64,
    warm_misses: AtomicU64,
    spills: AtomicU64,
    cold_reloads: AtomicU64,
    persist: Option<Arc<DurableStore>>,
    telemetry: Telemetry,
}

impl SessionStore {
    /// An empty in-memory store holding at most `max_sessions` live
    /// sessions (floored at 1); capacity evicts.
    pub fn new(max_sessions: usize) -> Self {
        Self::build(max_sessions, None)
    }

    /// An empty store backed by `persist`: capacity spills to snapshots,
    /// touches of cold sessions reload them, and `checkpoint` flushes
    /// everything hot at shutdown.
    pub fn durable(max_sessions: usize, persist: Arc<DurableStore>) -> Self {
        Self::build(max_sessions, Some(persist))
    }

    fn build(max_sessions: usize, persist: Option<Arc<DurableStore>>) -> Self {
        SessionStore {
            max: max_sessions.max(1),
            shards: new_shards(DEFAULT_SHARDS),
            clock: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            warm_misses: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            cold_reloads: AtomicU64::new(0),
            persist,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Reconfigures the shard count — one per session lane is the intended
    /// shape (`--session-lanes`). Only meaningful on an empty store; call
    /// it right after construction.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = new_shards(shards);
        self
    }

    /// The configured shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Installs the serving process's telemetry: capacity spills and cold
    /// reloads emit trace events (`spill`/`cold_reload`) in addition to
    /// the counters already surfaced by [`SessionStore::stats`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configured capacity.
    pub fn max_sessions(&self) -> usize {
        self.max
    }

    /// The backing durable store, when one is configured.
    pub fn persist(&self) -> Option<&Arc<DurableStore>> {
        self.persist.as_ref()
    }

    fn shard(&self, sid: u64) -> &Shard {
        &self.shards[shard_of(sid, self.shards.len())]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn contains(&self, sid: u64) -> bool {
        self.shard(sid).lock().contains_key(&sid)
    }

    /// Global LRU scan: the least-recent session not already being
    /// spilled, and its stamp, taking the shard locks one at a time.
    fn lru_victim(&self) -> Option<(u64, u64)> {
        let mut best: Option<(u64, u64)> = None;
        for shard in &self.shards {
            for (&sid, slot) in shard.lock().iter().filter(|(_, slot)| !slot.spilling) {
                if best.is_none_or(|(_, stamp)| slot.stamp < stamp) {
                    best = Some((sid, slot.stamp));
                }
            }
        }
        best
    }

    /// Makes room for `incoming` at capacity: the LRU victim is spilled to
    /// its snapshot (durable store) or destroyed (in-memory store). The
    /// victim is claimed under its shard lock, so concurrent room-makers
    /// pick other victims; its snapshot is written **outside** any lock,
    /// and it is only removed if its stamp shows it was neither touched
    /// nor written back since the scan. On a persistent snapshot-write
    /// failure the store runs over capacity rather than destroy state.
    /// Returns the displaced session id.
    fn make_room(&self, incoming: u64) -> Option<u64> {
        for _ in 0..8 {
            if self.contains(incoming) || self.live() < self.max {
                return None;
            }
            let (sid, seen) = self.lru_victim()?;
            let (entry, seq) = {
                let mut map = self.shard(sid).lock();
                match map.get_mut(&sid) {
                    Some(slot) if slot.stamp == seen && !slot.spilling => {
                        slot.spilling = true;
                        (Arc::clone(&slot.entry), slot.seq)
                    }
                    // Touched, closed or claimed since the scan: re-pick.
                    _ => continue,
                }
            };
            if let Some(persist) = self.persist.as_ref() {
                if persist.write_snapshot(sid, seq, &entry).is_err() {
                    if let Some(slot) = self.shard(sid).lock().get_mut(&sid) {
                        slot.spilling = false;
                    }
                    return None;
                }
            }
            {
                let mut map = self.shard(sid).lock();
                match map.get_mut(&sid) {
                    Some(slot) if slot.stamp == seen => drop(map.remove(&sid)),
                    // Touched since the scan: release the claim and re-pick.
                    Some(slot) => {
                        slot.spilling = false;
                        continue;
                    }
                    // Closed since the claim.
                    None => continue,
                }
            }
            if self.persist.is_some() {
                self.spills.fetch_add(1, Ordering::Relaxed);
                self.telemetry.emit(TraceEvent::Spill { sid });
            } else {
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            return Some(sid);
        }
        None
    }

    /// Inserts `sid` hot with a fresh stamp, replacing any hot entry. A
    /// claim on the replaced slot carries over: its spill image is still
    /// being written.
    fn insert(&self, sid: u64, entry: Arc<SessionEntry>, seq: u64, fresh: u64) {
        let mut map = self.shard(sid).lock();
        let spilling = map.get(&sid).is_some_and(|slot| slot.spilling);
        map.insert(sid, Slot { stamp: self.tick(), entry, seq, fresh, spilling });
    }

    /// Inserts (or replaces) session `sid`, recording `seq` as the last
    /// journal record folded into it (0 when not journaled). At capacity
    /// the least-recently-used session is evicted (in-memory store) or
    /// spilled to its snapshot (durable store) first. Returns the hot
    /// count and the displaced session id, if any.
    pub fn create(&self, sid: u64, entry: SessionEntry, seq: u64) -> (usize, Option<u64>) {
        let entry = Arc::new(entry);
        let displaced = self.make_room(sid);
        self.insert(sid, entry, seq, u64::from(seq > 0));
        (self.live(), displaced)
    }

    /// Shares session `sid`'s state out (touching its recency) — repairs
    /// and races run on the shared entry, outside any store lock. A cold
    /// (spilled) session is transparently reloaded from its on-disk
    /// snapshot.
    pub fn snapshot(&self, sid: u64) -> Option<Arc<SessionEntry>> {
        let shard = self.shard(sid);
        if let Some(slot) = shard.lock().get_mut(&sid) {
            slot.stamp = self.tick();
            return Some(Arc::clone(&slot.entry));
        }
        // Cold path: reload from disk, then insert hot (which may in turn
        // spill the new LRU victim).
        let persist = self.persist.as_ref()?;
        let (entry, seq) = persist.load_snapshot(sid)?;
        self.make_room(sid);
        self.telemetry.emit(TraceEvent::ColdReload { sid });
        self.cold_reloads.fetch_add(1, Ordering::Relaxed);
        let mut map = shard.lock();
        // A racing reload of the same sid keeps the first entry (both came
        // from the same snapshot).
        let cold = Slot { stamp: 0, entry: Arc::new(entry), seq, fresh: 0, spilling: false };
        let slot = map.entry(sid).or_insert(cold);
        slot.stamp = self.tick();
        Some(Arc::clone(&slot.entry))
    }

    /// Writes a session's state back after a journaled verb, advancing its
    /// sequence number. Returns `false` when the session vanished in
    /// between — closed, or evicted from an in-memory store — and the
    /// write is dropped. A durable session that a spill made cold
    /// meanwhile is re-inserted hot (making room first, as `create`
    /// does): `entry` is newer than the spill image, and a `close` of the
    /// same sid only ever runs on the caller's own lane.
    pub fn update(&self, sid: u64, entry: SessionEntry, seq: u64) -> bool {
        self.write_back(sid, entry, Some(seq))
    }

    /// Writes back an incumbent-only improvement (a session `solve` —
    /// not journaled, so the sequence number stays put). Vanished and
    /// cold sessions are handled as by [`Self::update`].
    pub fn update_incumbent(&self, sid: u64, entry: SessionEntry) -> bool {
        self.write_back(sid, entry, None)
    }

    fn write_back(&self, sid: u64, entry: SessionEntry, seq: Option<u64>) -> bool {
        let entry = Arc::new(entry);
        if let Some(slot) = self.shard(sid).lock().get_mut(&sid) {
            slot.stamp = self.tick();
            if let Some(seq) = seq.filter(|&seq| seq > slot.seq) {
                slot.seq = seq;
                slot.fresh += 1;
            }
            // The caller still holds the entry it checked out, so the
            // replaced one does not deallocate under the lock.
            slot.entry = entry;
            return true;
        }
        // Not hot. Only a spilled session still has a snapshot file;
        // `close` removes it.
        let Some((_, cold_seq)) = self.persist.as_ref().and_then(|p| p.load_snapshot(sid)) else {
            return false;
        };
        let (seq, fresh) = match seq {
            Some(seq) if seq > cold_seq => (seq, 1),
            _ => (cold_seq, 0),
        };
        self.make_room(sid);
        self.insert(sid, entry, seq, fresh);
        true
    }

    /// Writes session `sid`'s periodic snapshot when enough journaled
    /// verbs accumulated since the last one. Purely an optimization —
    /// the journal already covers every accepted verb — so write errors
    /// are swallowed (replay just gets longer).
    pub fn maybe_snapshot(&self, sid: u64) {
        let Some(persist) = self.persist.as_ref() else { return };
        let image = self.shard(sid).lock().get(&sid).and_then(|slot| {
            (slot.fresh >= persist.snapshot_every()).then(|| (Arc::clone(&slot.entry), slot.seq))
        });
        let Some((entry, seq)) = image else { return };
        if persist.write_snapshot(sid, seq, &entry).is_ok() {
            self.reset_fresh(sid, seq);
        }
    }

    /// Zeroes the periodic-snapshot counter of `sid` if its state still
    /// sits at `seq` (no newer journaled verb raced the snapshot write).
    fn reset_fresh(&self, sid: u64, seq: u64) {
        if let Some(slot) = self.shard(sid).lock().get_mut(&sid) {
            if slot.seq == seq {
                slot.fresh = 0;
            }
        }
    }

    /// Snapshots every hot session and truncates the journal — the
    /// graceful-shutdown (and post-recovery) checkpoint. Only sound at
    /// quiescent points: no lane may append concurrently, or a record
    /// newer than the collected images could be truncated away.
    pub fn checkpoint(&self) -> std::io::Result<()> {
        let Some(persist) = self.persist.as_ref() else { return Ok(()) };
        let mut hot: Vec<(u64, Arc<SessionEntry>, u64)> = Vec::new();
        for shard in &self.shards {
            let map = shard.lock();
            hot.extend(map.iter().map(|(&sid, slot)| (sid, Arc::clone(&slot.entry), slot.seq)));
        }
        for (sid, entry, seq) in &hot {
            persist.write_snapshot(*sid, *seq, entry)?;
        }
        persist.truncate_journal()?;
        for (sid, _, seq) in &hot {
            self.reset_fresh(*sid, *seq);
        }
        Ok(())
    }

    /// Closes session `sid` — the hot entry and (in durable mode) its
    /// on-disk snapshot. Returns whether either existed, so closing a
    /// cold (spilled) session works too.
    pub fn close(&self, sid: u64) -> bool {
        let removed = self.shard(sid).lock().remove(&sid);
        let cold = match self.persist.as_ref() {
            Some(persist) => persist.remove_snapshot(sid),
            None => false,
        };
        removed.is_some() || cold
    }

    /// Sessions currently hot, summed over the shards one lock at a time.
    pub fn live(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// Records a warm re-solve outcome: `hit` when the repaired incumbent
    /// survived the race unbeaten.
    pub fn record_warm(&self, hit: bool) {
        if hit {
            self.warm_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.warm_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The running counters, durability counters merged in. Takes each
    /// shard lock once, briefly — safe to call from a metrics probe.
    pub fn stats(&self) -> SessionStats {
        let durable = self.persist.as_ref().map(|p| p.counters()).unwrap_or_default();
        SessionStats {
            live: self.live() as u64,
            evicted: self.evicted.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            warm_misses: self.warm_misses.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            cold_reloads: self.cold_reloads.load(Ordering::Relaxed),
            recovered: durable.recovered,
            journal_appends: durable.journal_appends,
            journal_bytes: durable.journal_bytes,
            snapshots: durable.snapshots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::Durability;
    use sst_core::instance::{Job, UniformInstance};

    fn entry(seed: u64) -> SessionEntry {
        let inst = ProblemInstance::Uniform(
            UniformInstance::identical(2, vec![1], vec![Job::new(0, 1 + seed)]).unwrap(),
        );
        let greedy = inst.greedy();
        SessionEntry {
            instance: Arc::new(inst),
            incumbent: greedy.solution,
            cost: greedy.cost,
            proxy: None,
        }
    }

    fn durable_store(name: &str, max: usize) -> (SessionStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("sst-session-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persist = Arc::new(DurableStore::open(&dir, Durability::Flush).unwrap());
        (SessionStore::durable(max, persist), dir)
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let store = SessionStore::new(2);
        assert_eq!(store.create(1, entry(1), 0), (1, None));
        assert_eq!(store.create(2, entry(2), 0), (2, None));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(store.snapshot(1).is_some());
        let (live, evicted) = store.create(3, entry(3), 0);
        assert_eq!((live, evicted), (2, Some(2)));
        assert!(store.snapshot(2).is_none(), "evicted session is gone");
        assert!(!store.update_incumbent(2, entry(2)), "an evicted session takes no write-back");
        assert!(store.snapshot(1).is_some(), "recently used session survives");
        let stats = store.stats();
        assert_eq!((stats.live, stats.evicted), (2, 1));
    }

    #[test]
    fn recreate_same_id_does_not_evict() {
        let store = SessionStore::new(1);
        store.create(7, entry(1), 0);
        let (live, evicted) = store.create(7, entry(2), 0);
        assert_eq!((live, evicted), (1, None), "replacing in place needs no eviction");
    }

    #[test]
    fn update_after_close_is_dropped() {
        let (durable, dir) = durable_store("closed", 4);
        for store in [SessionStore::new(4), durable] {
            store.create(1, entry(1), 0);
            let snap = store.snapshot(1).unwrap();
            assert!(store.close(1));
            assert!(!store.close(1));
            assert!(
                !store.update(1, (*snap).clone(), 1),
                "stale write-back must not resurrect the session"
            );
            assert!(!store.update_incumbent(1, (*snap).clone()));
            assert_eq!(store.live(), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_counters_accumulate() {
        let store = SessionStore::new(4);
        store.record_warm(true);
        store.record_warm(true);
        store.record_warm(false);
        let stats = store.stats();
        assert_eq!((stats.warm_hits, stats.warm_misses), (2, 1));
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for sid in 0..256u64 {
            let s = shard_of(sid, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(sid, 4), "shard mapping is deterministic");
        }
        assert_eq!(shard_of(7, 1), 0, "single shard takes everything");
        // 256 consecutive sids must spread over all 8 shards — the point
        // of the mix is that adjacent ids do not pile onto one lane.
        let mut seen = [false; 8];
        for sid in 0..256u64 {
            seen[shard_of(sid, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "every shard owns some of 256 consecutive sids");
    }

    #[test]
    fn sharded_membership_counters_and_lru_stay_global() {
        let store = SessionStore::new(64).with_shards(8);
        assert_eq!(store.shard_count(), 8);
        for sid in 0..32 {
            store.create(sid, entry(sid), 0);
        }
        assert_eq!(store.live(), 32);
        for sid in 0..32 {
            assert!(store.snapshot(sid).is_some(), "session {sid} lives in its shard");
        }
        for sid in (0..32).step_by(2) {
            assert!(store.close(sid));
        }
        assert_eq!(store.live(), 16);
        // LRU is global across shards: fill to capacity with 48 more,
        // touching one old session so it survives the next eviction.
        for sid in 100..148 {
            store.create(sid, entry(sid), 0);
        }
        assert_eq!(store.live(), 64);
        assert!(store.snapshot(1).is_some(), "touch keeps 1 recent");
        let (live, displaced) = store.create(200, entry(200), 0);
        assert_eq!(live, 64);
        assert_eq!(displaced, Some(3), "the globally least-recent session is the victim");
        assert!(store.snapshot(1).is_some(), "the touched session survived");
    }

    #[test]
    fn concurrent_lanes_on_distinct_shards_keep_every_write() {
        let store = Arc::new(SessionStore::new(256).with_shards(4));
        let threads: Vec<_> = (0..4u64)
            .map(|lane| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..32u64 {
                        let sid = lane * 1000 + i;
                        store.create(sid, entry(sid), 0);
                        assert!(store.snapshot(sid).is_some());
                        assert!(store.update_incumbent(sid, entry(sid + 1)));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("lane thread");
        }
        assert_eq!(store.live(), 128);
        let stats = store.stats();
        assert_eq!(stats.evicted, 0, "capacity 256 never evicts 128 sessions");
    }

    #[test]
    fn durable_capacity_spills_and_touch_reloads() {
        let (store, dir) = durable_store("spill", 2);
        store.create(1, entry(1), 1);
        store.create(2, entry(2), 2);
        assert!(store.snapshot(1).is_some());
        // 2 is the LRU victim: spilled, not destroyed.
        let (live, displaced) = store.create(3, entry(3), 3);
        assert_eq!((live, displaced), (2, Some(2)));
        let stats = store.stats();
        assert_eq!((stats.evicted, stats.spills), (0, 1));
        // Touching the cold session reloads it (and spills a new victim).
        let reloaded = store.snapshot(2).expect("cold session reloads transparently");
        assert_eq!(reloaded.instance.n(), 1);
        let stats = store.stats();
        assert_eq!(stats.cold_reloads, 1);
        assert!(stats.live <= 2, "the LRU bound holds across reloads");
        assert!(stats.spills >= 2, "the reload displaced another victim");
        // Closing a cold session removes its snapshot file.
        let cold_sid = [1u64, 3].into_iter().find(|s| store.snapshot(*s).is_none());
        if let Some(sid) = cold_sid {
            assert!(store.close(sid), "cold close removes the on-disk snapshot");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A spill that takes a session while its lane works on it must not
    /// lose the lane's write-back: the lane checks session 1 out, touches
    /// and a create make 1 the LRU victim and spill it, and then the
    /// lane's write-back lands. The next read must see the written state,
    /// not reload the older spill image.
    fn spill_mid_verb(name: &str, write_back: impl FnOnce(&SessionStore, SessionEntry) -> bool) {
        let (store, dir) = durable_store(name, 2);
        store.create(1, entry(1), 1);
        store.create(2, entry(2), 2);
        let checked_out = store.snapshot(1).expect("session 1 is hot");
        assert!(store.snapshot(2).is_some());
        let (_, displaced) = store.create(3, entry(3), 3);
        assert_eq!(displaced, Some(1), "session 1 is the LRU victim");
        assert!(checked_out.cost != entry(9).cost, "the written state differs from the image");
        assert!(write_back(&store, entry(9)), "a spilled durable session takes its write-back");
        assert!(store.live() <= 2, "the re-insert made room first");
        let now = store.snapshot(1).expect("session 1 is live");
        assert_eq!(now.cost, entry(9).cost, "the write-back survived the spill");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_after_a_spill_of_the_checked_out_session_is_kept() {
        spill_mid_verb("spill-update", |store, next| store.update(1, next, 4));
    }

    #[test]
    fn incumbent_update_after_a_spill_of_the_checked_out_session_is_kept() {
        spill_mid_verb("spill-incumbent", |store, next| store.update_incumbent(1, next));
    }

    #[test]
    fn reinserted_session_keeps_its_journal_position() {
        let (store, dir) = durable_store("spill-seq", 1);
        let persist = Arc::clone(store.persist().unwrap());
        store.create(1, entry(1), 1);
        store.create(2, entry(2), 2); // spills 1 at seq 1
        assert!(store.update(1, entry(5), 7), "journaled write-back re-inserts at seq 7");
        assert!(store.update_incumbent(2, entry(6)), "solve write-back re-inserts 2");
        store.checkpoint().unwrap();
        let (_, seq) = persist.load_snapshot(1).unwrap();
        assert_eq!(seq, 7, "the journaled write-back advanced the seq");
        let (image, seq) = persist.load_snapshot(2).unwrap();
        assert_eq!((image.cost, seq), (entry(6).cost, 2), "a solve keeps the spill image's seq");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_snapshots_every_hot_session() {
        let (store, dir) = durable_store("checkpoint", 4);
        let persist = Arc::clone(store.persist().unwrap());
        let seq = persist.append_create(1, &entry(1).instance).unwrap();
        store.create(1, entry(1), seq);
        let seq = persist.append_create(2, &entry(2).instance).unwrap();
        store.create(2, entry(2), seq);
        store.checkpoint().unwrap();
        assert!(persist.load_snapshot(1).is_some());
        assert!(persist.load_snapshot(2).is_some());
        let rec = persist.recover().unwrap();
        assert_eq!(rec.sessions.len(), 2);
        assert_eq!(rec.replayed, 0, "checkpoint truncated the journal");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
