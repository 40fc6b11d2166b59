//! The engine's memo cache: every artifact [`QueryEngine`] memoizes, the
//! version stamps that decide when one may be served, commit-side staling
//! and repair, byte-budgeted eviction, and the cache counters.
//!
//! Definition 5 answers over the peers' *current* instances, so an
//! artifact may be served only while its stamp — the versions of the peers
//! it was computed from — describes the data it was built from:
//!
//! * **Stamp before read.** A miss hands out the stamp the new artifact
//!   will carry, read under the cache lock *before* its preparation reads
//!   the store, and checked again when it is inserted: an artifact whose
//!   stamp a commit has moved since may hold pre-commit data, so it is
//!   returned to its caller but not memoized. Every memoized stamp is thus
//!   current when it enters the cache, and each commit moves every stamp
//!   it mentions, so an entry is never served — nor repaired by a later
//!   commit — on a base from before a commit it missed. The global instance
//!   follows the same rule under a stamp over every peer.
//! * **Repair on commit.** [`MemoCache::commit`] refreshes the stamp of an
//!   entry the commit cannot affect, stales (queues the delta on) an entry
//!   whose grounded slice can observe it, and drops the rest. Staled entries
//!   are registered under a [`PatchGuard`] inside the same write section, so
//!   a reader that sees a stale entry waits for the committing thread's
//!   repair ([`MemoCache::wait_for_patch`]) instead of re-preparing it.
//! * **One writer per counter.** [`MemoCache::note`] is the only place a
//!   cache counter changes; [`CacheMetrics`] is a read-only view of it.
//!
//! An ASP entry keeps no specification: a repair reads the engine's one spec
//! per `(mechanism, peer)` by the entry's key.
//!
//! [`QueryEngine`]: crate::engine::QueryEngine

use crate::engine::{CacheMetrics, PreparedWorlds};
use crate::system::PeerId;
use crate::Result;
use datalog::IncrementalGround;
use pdes_obs::Recorder;
use relalg::{ColumnarDatabase, Delta, SymbolTable};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// The mechanism that prepared an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Mechanism {
    Naive,
    Asp,
    Transitive,
}

/// The identity of one memoized artifact: its mechanism, the queried peer
/// and the canonical slice fingerprint
/// ([`datalog::RelevanceAnalysis::fingerprint`]; empty for naive artifacts,
/// which cover the whole peer).
pub(crate) type Key = (Mechanism, PeerId, String);

/// A query shape posed to one peer: the mechanism plus the cheap shape key
/// the engine derives from the query without building any program. Aliases
/// resolve it to the canonical [`Key`] of the artifact it last prepared.
pub(crate) type Shape = (Mechanism, String);

/// The per-peer versions an artifact was computed from.
pub(crate) type VersionStamp = BTreeMap<PeerId, u64>;

/// Net per-peer deltas committed since an artifact's worlds were solved.
/// Composed, not merged: an insert-then-delete cancels.
pub(crate) type Pending = BTreeMap<PeerId, Delta>;

/// The interned global instance (rewriting) and the nanoseconds its
/// materialization cost.
pub(crate) type Global = (Arc<ColumnarDatabase>, u64);

/// What a lookup or a claim found: a servable artifact, or a miss carrying
/// what the caller needs to prepare one.
pub(crate) enum Cached<M> {
    Hit(Arc<PreparedWorlds>),
    Miss(M),
}

/// One cache event, written by [`MemoCache::note`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum CacheEvent {
    Hit,
    Miss,
    Invalidated(u64),
    Commit,
    Patched,
    Evicted(u64),
    StalePatch,
    RepairFailed,
}

/// One memoized artifact: the solved worlds and — for ASP artifacts — the
/// grounding's saturation state and the deltas committed since the worlds
/// were solved. An entry with pending deltas is *stale*: its worlds are not
/// served, but its state lets a repair patch only the affected rules
/// instead of re-grounding the slice.
struct Entry {
    /// The versions the worlds describe. Commits that cannot touch the
    /// slice refresh it in place; commits that can refresh it too and queue
    /// their delta in `pending`.
    stamp: VersionStamp,
    prepared: Arc<PreparedWorlds>,
    /// Retained for ASP artifacts, so the committing thread can repair the
    /// entry without the query that prepared it.
    grounding: Option<IncrementalGround>,
    pending: Pending,
    /// Exact bytes charged against the budget: interned worlds plus the
    /// saturation state.
    bytes: usize,
    /// Clock tick of the last touch (LRU victim selection).
    last_used: AtomicU64,
}

impl Entry {
    fn is_valid(&self) -> bool {
        self.pending.is_empty()
    }
}

/// The state behind the cache lock.
#[derive(Default)]
struct Inner {
    /// Per-peer versions (absent = 0, the construction-time instance).
    versions: BTreeMap<PeerId, u64>,
    /// Outside the byte budget, and maintained in place across commits
    /// rather than invalidated.
    global: Option<Global>,
    entries: BTreeMap<Key, Entry>,
    /// Per peer, query shape → canonical key. Keyed by peer first so a warm
    /// lookup borrows the peer instead of cloning it. Never invalidated: a
    /// dropped target simply misses, and the next claim rewrites the alias.
    aliases: BTreeMap<PeerId, BTreeMap<Shape, Key>>,
}

impl Inner {
    fn stamp_for(&self, peers: impl IntoIterator<Item = PeerId>) -> VersionStamp {
        peers
            .into_iter()
            .map(|p| {
                let v = self.versions.get(&p).copied().unwrap_or(0);
                (p, v)
            })
            .collect()
    }

    /// Does the stamp still describe the current versions? A preparation
    /// that raced a commit carries a stamp from before it, so this check on
    /// insert is what keeps it from being memoized (the race fix); serving
    /// checks it again.
    fn stamp_current(&self, stamp: &VersionStamp) -> bool {
        stamp
            .iter()
            .all(|(p, v)| self.versions.get(p).copied().unwrap_or(0) == *v)
    }

    fn total_bytes(&self) -> usize {
        self.entries.values().map(|e| e.bytes).sum()
    }
}

/// Everything the engine memoizes, behind one `RwLock`: warm lookups take
/// only the read lock, so concurrent batch partitions never serialize on
/// each other's hits.
pub(crate) struct MemoCache {
    inner: RwLock<Inner>,
    /// The lifetime counters behind [`CacheMetrics`], in its field order:
    /// atomics, so concurrent batch partitions count without a lock and
    /// without losing increments.
    counters: [AtomicU64; 6],
    recorder: Arc<dyn Recorder>,
    capacity: Option<usize>,
    /// Monotone tick source for LRU recency.
    clock: AtomicU64,
    /// Keys currently being repaired by a committing thread. Registered
    /// inside the cache write section that staled them; readers only lock
    /// this after releasing the cache lock.
    patching: Mutex<BTreeSet<Key>>,
    /// Signalled whenever a key leaves `patching`.
    patch_done: Condvar,
}

impl MemoCache {
    pub(crate) fn new(capacity: Option<usize>, recorder: Arc<dyn Recorder>) -> Self {
        MemoCache {
            inner: RwLock::default(),
            counters: Default::default(),
            recorder,
            capacity,
            clock: AtomicU64::new(0),
            patching: Mutex::default(),
            patch_done: Condvar::new(),
        }
    }

    /// The byte budget (`None` = unbounded).
    pub(crate) fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Count one event: the only writer of each cache counter. Bumps the
    /// lifetime atomic behind [`CacheMetrics`] (when the event has one) and
    /// forwards one recorder count under the event's `cache.*` name.
    pub(crate) fn note(&self, event: CacheEvent) {
        let (slot, name, delta) = match event {
            CacheEvent::Hit => (Some(0), "cache.hit", 1),
            CacheEvent::Miss => (Some(1), "cache.miss", 1),
            CacheEvent::Invalidated(n) => (Some(2), "cache.invalidated", n),
            CacheEvent::Commit => (Some(3), "cache.commit", 1),
            CacheEvent::Patched => (Some(4), "cache.patched", 1),
            CacheEvent::Evicted(n) => (Some(5), "cache.evict", n),
            CacheEvent::StalePatch => (None, "cache.stale_patch", 1),
            CacheEvent::RepairFailed => (None, "cache.repair_failed", 1),
        };
        if delta == 0 {
            return;
        }
        if let Some(slot) = slot {
            self.counters[slot].fetch_add(delta, Ordering::Relaxed);
        }
        self.recorder.count(name, delta);
    }

    /// A snapshot of the lifetime counters (each exact; cross-counter skew
    /// is bounded by in-flight queries).
    pub(crate) fn metrics(&self) -> CacheMetrics {
        let [hits, misses, invalidated, commits, patched, evictions] = self
            .counters
            .each_ref()
            .map(|counter| counter.load(Ordering::Relaxed));
        CacheMetrics {
            hits,
            misses,
            invalidated,
            commits,
            patched,
            evictions,
        }
    }

    /// Shared access, recovering from poisoning: entries hold immutable
    /// prepared state behind `Arc`s and every write leaves the maps valid,
    /// so a panic elsewhere cannot leave a half-updated entry behind.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access; see [`MemoCache::read`] for the poisoning rationale.
    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn patching(&self) -> MutexGuard<'_, BTreeSet<Key>> {
        self.patching.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The warm path: resolve `shape` for `peer` and serve its artifact
    /// under the read lock alone. A stale entry under repair by a
    /// committing thread is waited for once and then retried, so the read
    /// counts one hit after the patch rather than a miss. On a miss, returns
    /// the stamp — over the `relevant` peers, read now, before anything
    /// reads the store — that the prepared artifact must carry. A miss is
    /// counted by the [`MemoCache::claim`] that follows it.
    pub(crate) fn lookup(
        &self,
        peer: &PeerId,
        shape: &Shape,
        relevant: impl FnOnce() -> BTreeSet<PeerId>,
    ) -> Cached<VersionStamp> {
        let mut waited = false;
        loop {
            let repairing = {
                let inner = self.read();
                let key = inner
                    .aliases
                    .get(peer)
                    .and_then(|aliases| aliases.get(shape));
                if let Some(prepared) = key.and_then(|key| self.serve(&inner, key)) {
                    return Cached::Hit(prepared);
                }
                let entry = key.and_then(|key| inner.entries.get(key));
                match key.filter(|_| !waited && entry.is_some_and(|e| !e.is_valid())) {
                    Some(key) => key.clone(),
                    None => return Cached::Miss(inner.stamp_for(relevant())),
                }
            };
            self.wait_for_patch(&repairing);
            waited = true;
        }
    }

    /// The hit path, written once: the artifact under `key` if it may be
    /// served — valid, and stamped with the current versions — touched for
    /// LRU recency and counted as a hit.
    fn serve(&self, inner: &Inner, key: &Key) -> Option<Arc<PreparedWorlds>> {
        let entry = inner.entries.get(key)?;
        if !entry.is_valid() || !inner.stamp_current(&entry.stamp) {
            return None;
        }
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        self.note(CacheEvent::Hit);
        Some(Arc::clone(&entry.prepared))
    }

    /// The slow path's re-check under the write lock, once the caller has
    /// resolved `shape` to its canonical `slice`: records the alias, then
    /// serves the artifact if another thread made it servable meanwhile.
    /// Otherwise the entry is removed, and a stale one whose stamp is still
    /// current hands back its saturation state and pending deltas for
    /// patching; any other removed entry counts as invalidated. A miss
    /// returns the artifact's key. Counts the hit or the miss.
    pub(crate) fn claim(
        &self,
        peer: &PeerId,
        shape: Shape,
        slice: String,
    ) -> Cached<(Key, Option<(IncrementalGround, Pending)>)> {
        let key = (shape.0, peer.clone(), slice);
        let mut inner = self.write();
        let aliases = inner.aliases.entry(peer.clone()).or_default();
        aliases.insert(shape, key.clone());
        if let Some(prepared) = self.serve(&inner, &key) {
            return Cached::Hit(prepared);
        }
        let mut stale = None;
        let mut invalidated = 0;
        if let Some(entry) = inner.entries.remove(&key) {
            let patchable = !entry.is_valid() && inner.stamp_current(&entry.stamp);
            match entry.grounding.filter(|_| patchable) {
                // Staling it was already counted as an invalidation at
                // commit time.
                Some(state) => stale = Some((state, entry.pending)),
                None => invalidated = 1,
            }
        }
        self.note(CacheEvent::Invalidated(invalidated));
        self.note(CacheEvent::Miss);
        Cached::Miss((key, stale))
    }

    /// Memoize a freshly prepared artifact, stamped with the stamp its
    /// [`MemoCache::lookup`] handed out — unless a commit moved that stamp
    /// since, in which case the artifact may predate the commit and is not
    /// memoized. An entry another thread inserted first is kept. Evicts down
    /// to the byte budget.
    pub(crate) fn insert(
        &self,
        key: Key,
        stamp: VersionStamp,
        prepared: Arc<PreparedWorlds>,
        grounding: Option<IncrementalGround>,
    ) {
        let bytes = prepared.bytes() + grounding.as_ref().map_or(0, IncrementalGround::exact_bytes);
        let mut inner = self.write();
        if !inner.stamp_current(&stamp) {
            return;
        }
        let entry = inner.entries.entry(key).or_insert_with(|| Entry {
            stamp,
            prepared,
            grounding,
            pending: Pending::new(),
            bytes,
            last_used: AtomicU64::new(0),
        });
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        let evicted = self.evict(&mut inner);
        self.note(CacheEvent::Evicted(evicted));
    }

    /// The memoized global instance and its original materialization
    /// nanoseconds — or, on a miss, the stamp over every one of `peers`
    /// (read before the caller reads the store) that a new one must be
    /// inserted under. A hit never walks `peers`. Counts the hit or the
    /// miss.
    pub(crate) fn global(
        &self,
        peers: impl IntoIterator<Item = PeerId>,
    ) -> std::result::Result<Global, VersionStamp> {
        let inner = self.read();
        if let Some((db, nanos)) = &inner.global {
            self.note(CacheEvent::Hit);
            return Ok((Arc::clone(db), *nanos));
        }
        self.note(CacheEvent::Miss);
        Err(inner.stamp_for(peers))
    }

    /// Memoize a materialized global instance under the stamp
    /// [`MemoCache::global`] handed out, unless a commit moved it since: the
    /// instance may then predate the commit.
    pub(crate) fn insert_global(&self, stamp: &VersionStamp, global: Global) {
        let mut inner = self.write();
        if inner.stamp_current(stamp) {
            inner.global.get_or_insert(global);
        }
    }

    /// Bookkeeping for `delta`, just committed at `peer` (now at
    /// `version`): maintain the global instance in place, then refresh,
    /// stale or drop every entry stamped with `peer`. Returns a guard per
    /// staled entry; the caller repairs each ([`MemoCache::take_for_repair`])
    /// and drops its guard to wake the readers waiting on it.
    pub(crate) fn commit(
        &self,
        peer: &PeerId,
        version: u64,
        delta: &Delta,
        symbols: &Arc<SymbolTable>,
    ) -> Result<Vec<PatchGuard<'_>>> {
        let mut inner = self.write();
        inner.versions.insert(peer.clone(), version);
        // Relation names are globally unique (Definition 2(b)), so a
        // peer-local delta applies verbatim to the union of all instances.
        // The blocks are decoded, patched and re-interned: O(|global|).
        if let Some((global, nanos)) = inner.global.take() {
            let patched = delta.apply(&global.to_database())?;
            let db = Arc::new(ColumnarDatabase::from_database(&patched, symbols));
            inner.global = Some((db, nanos));
        }
        let (mut guards, mut invalidated) = (Vec::new(), 0);
        inner.entries.retain(|key, entry| {
            if !entry.stamp.contains_key(peer) {
                return true; // outside the closure: untouched
            }
            let Some(state) = &entry.grounding else {
                // Naive worlds: nothing to patch.
                invalidated += 1;
                return false;
            };
            entry.stamp.insert(peer.clone(), version);
            if delta.relations().iter().any(|r| state.touches(r)) {
                if entry.is_valid() {
                    invalidated += 1;
                }
                let queued = entry.pending.entry(peer.clone()).or_default();
                *queued = queued.compose(delta);
                if queued.is_empty() {
                    entry.pending.remove(peer);
                } else {
                    // Registered inside the write section: a reader that
                    // observes the stale entry is guaranteed to find its key.
                    guards.push(PatchGuard::register(self, key.clone()));
                }
            } // else: the slice provably cannot observe the delta, and the
              // refreshed stamp keeps the entry warm.
            true
        });
        self.note(CacheEvent::Invalidated(invalidated));
        Ok(guards)
    }

    /// Take a staled entry's grounding out for repair, leaving its pending
    /// deltas in place so concurrent lookups still see it stale. `None` when
    /// the entry is gone or valid again. (Only entries with a grounding are
    /// ever staled, and each is repaired once per commit.)
    pub(crate) fn take_for_repair(&self, key: &Key) -> Option<(IncrementalGround, Pending)> {
        let mut inner = self.write();
        let entry = inner.entries.get_mut(key).filter(|e| !e.is_valid())?;
        Some((entry.grounding.take()?, entry.pending.clone()))
    }

    /// Swap a repaired artifact and its patched grounding into its entry,
    /// which becomes valid again — or, when the repair failed, drop the
    /// entry, so the next query prepares it anew.
    pub(crate) fn finish_repair(
        &self,
        key: &Key,
        repaired: Result<(Arc<PreparedWorlds>, IncrementalGround)>,
    ) {
        let Ok((prepared, grounding)) = repaired else {
            self.note(CacheEvent::RepairFailed);
            let removed = self.write().entries.remove(key).is_some();
            self.note(CacheEvent::Invalidated(u64::from(removed)));
            return;
        };
        self.note(CacheEvent::Patched);
        let mut inner = self.write();
        if let Some(entry) = inner.entries.get_mut(key) {
            entry.bytes = prepared.bytes() + grounding.exact_bytes();
            entry.prepared = prepared;
            entry.grounding = Some(grounding);
            entry.pending.clear();
        }
        let evicted = self.evict(&mut inner);
        self.note(CacheEvent::Evicted(evicted));
    }

    /// Drop every entry whose stamp `doomed` selects, plus the global
    /// instance. Returns how many artifacts were dropped.
    pub(crate) fn drop_where(&self, doomed: impl Fn(&VersionStamp) -> bool) -> u64 {
        let mut inner = self.write();
        let before = inner.entries.len();
        inner.entries.retain(|_, entry| !doomed(&entry.stamp));
        let global = u64::from(inner.global.take().is_some());
        let dropped = (before - inner.entries.len()) as u64 + global;
        self.note(CacheEvent::Invalidated(dropped));
        dropped
    }

    /// Evict least-recently-used entries until the cache fits its budget;
    /// returns how many went. The entry just touched has the newest tick,
    /// so it goes only when it alone exceeds the budget.
    fn evict(&self, inner: &mut Inner) -> u64 {
        let Some(capacity) = self.capacity else {
            return 0;
        };
        let mut evicted = 0;
        while inner.total_bytes() > capacity {
            let (victim, _) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .expect("a cache over its budget holds entries");
            let victim = victim.clone();
            inner.entries.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    /// Block until no committing thread is repairing `key`. Returns whether
    /// it was under repair at all. Never called with the cache lock held.
    pub(crate) fn wait_for_patch(&self, key: &Key) -> bool {
        let mut patching = self.patching();
        let repairing = patching.contains(key);
        while patching.contains(key) {
            patching = self
                .patch_done
                .wait(patching)
                .unwrap_or_else(PoisonError::into_inner);
        }
        repairing
    }

    /// The current versions of `peers`.
    pub(crate) fn stamp(&self, peers: impl IntoIterator<Item = PeerId>) -> VersionStamp {
        self.read().stamp_for(peers)
    }

    /// Memoized artifacts, stale ones included (the global instance is not
    /// one).
    pub(crate) fn len(&self) -> usize {
        self.read().entries.len()
    }

    /// Memoized artifacts awaiting a repair.
    pub(crate) fn stale_len(&self) -> usize {
        let inner = self.read();
        inner.entries.values().filter(|e| !e.is_valid()).count()
    }

    /// The exact bytes charged against the budget.
    pub(crate) fn bytes(&self) -> usize {
        self.read().total_bytes()
    }
}

/// A key registered in [`MemoCache::patching`] for the duration of one
/// stale-artifact repair. Dropping the guard unregisters the key and wakes
/// every reader waiting in [`MemoCache::wait_for_patch`] — also when the
/// repair panics, so a failed repair can never leave readers of the slice
/// blocked forever.
pub(crate) struct PatchGuard<'a> {
    cache: &'a MemoCache,
    pub(crate) key: Key,
}

impl<'a> PatchGuard<'a> {
    fn register(cache: &'a MemoCache, key: Key) -> Self {
        cache.patching().insert(key.clone());
        PatchGuard { cache, key }
    }
}

impl Drop for PatchGuard<'_> {
    fn drop(&mut self) {
        self.cache.patching().remove(&self.key);
        self.cache.patch_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdes_obs::NullRecorder;

    #[test]
    fn patch_guard_unregisters_and_wakes_waiters_on_panic() {
        let cache = MemoCache::new(None, Arc::new(NullRecorder));
        let key = (Mechanism::Asp, PeerId::new("P1"), "slice".to_string());
        let registered = |cache: &MemoCache| cache.patching.lock().unwrap().contains(&key);
        let started = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let guard = PatchGuard::register(&cache, key.clone());
            assert!(registered(&cache));
            // A reader of the registered key, racing the failing repair:
            // whether it starts waiting before or after the unwind, it must
            // return (before the guard it would block forever once waiting).
            let waiter = scope.spawn(|| {
                started.wait();
                cache.wait_for_patch(&key)
            });
            started.wait();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _guard = guard;
                panic!("repair failed mid-patch");
            }));
            assert!(unwound.is_err());
            assert!(!registered(&cache), "the unwound guard must unregister");
            waiter.join().expect("the waiter returns");
        });
        // A reader arriving after the failure does not wait at all.
        assert!(!cache.wait_for_patch(&key));
    }
}
