//! The [`Session`] / [`ReadHandle`] / [`Writer`] surface: versioned peers,
//! update commits validated all-or-nothing against local ICs, an update
//! log, and
//! snapshot replay over MVCC epochs.
//!
//! Reads take `&self` and answer against pinned store epochs, so any number
//! of threads can query through cloned [`ReadHandle`]s while the single
//! [`Writer`] commits. See the crate docs for how [`Version`] and
//! [`relalg::Delta`] map back to Definition 1 of the paper.

use crate::error::SessionError;
use crate::Result;
use constraints::ConstraintChecker;
use pdes_core::engine::{CacheMetrics, QueryEngine};
use pdes_core::store::Snapshot;
use pdes_core::system::{P2PSystem, PeerId};
use pdes_core::{Answers, MvccStats, Query, Strategy, VersionMap};
use pdes_exec::Executor;
use relalg::database::GroundAtom;
use relalg::{Delta, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A peer's version: the number of committed updates that touched it.
/// Version 0 is the construction-time instance; each commit containing an
/// effective (non-empty) delta for the peer increments it by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl Version {
    /// The construction-time version.
    pub const ZERO: Version = Version(0);

    /// The raw counter.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One peer's worth of change: a [`Delta`] targeted at a peer. The unit the
/// workload update-stream generator produces and [`Writer::apply`]
/// consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Update {
    /// The peer whose instance changes.
    pub peer: PeerId,
    /// Insertions and deletions of ground atoms over the peer's relations.
    pub delta: Delta,
}

impl Update {
    /// Construct an update.
    pub fn new(peer: PeerId, delta: Delta) -> Self {
        Update { peer, delta }
    }
}

/// A committed transaction in the update log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTx {
    /// 1-based commit sequence number.
    pub seq: u64,
    /// The effective per-peer deltas (normalized: every insertion was
    /// absent before the commit, every deletion present).
    pub changes: BTreeMap<PeerId, Delta>,
    /// The versions the touched peers reached with this commit.
    pub versions: BTreeMap<PeerId, Version>,
}

/// What a successful [`Tx::commit`] reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "inspect the receipt to learn the commit's sequence number and reach"]
pub struct CommitReceipt {
    /// The commit's sequence number (unchanged if the commit was a no-op).
    pub seq: u64,
    /// The peers whose instances actually changed.
    pub touched: BTreeSet<PeerId>,
    /// The relevant-peer closure of the touched peers
    /// ([`P2PSystem::affected_by`]): every peer whose queries may observe
    /// this commit and whose memoized artifacts were eligible for
    /// invalidation.
    pub affected: BTreeSet<PeerId>,
    /// The touched peers' new versions.
    pub versions: BTreeMap<PeerId, Version>,
    /// Memoized engine artifacts invalidated by this commit.
    pub invalidated: u64,
}

/// The shared state behind every [`Session`], [`ReadHandle`] and
/// [`Writer`]: the engine, the version-0 snapshot, the update log, and the
/// writer-claim flag.
struct SessionCore {
    engine: QueryEngine,
    /// The construction-time system, kept for [`ReadHandle::snapshot_at`]
    /// replay and for topology-level staging checks (schemas never change).
    base: P2PSystem,
    log: Mutex<Vec<CommittedTx>>,
    writer_claimed: AtomicBool,
}

impl SessionCore {
    fn lock_log(&self) -> MutexGuard<'_, Vec<CommittedTx>> {
        self.log.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Validate one staged peer delta against the peer's local ICs, over the
/// post-commit instance it would produce — reading the pinned commit-time
/// snapshot, never the live store.
///
/// Only the ICs *touched by the delta* — those mentioning a relation the
/// delta inserts into or deletes from — are re-evaluated: an IC over
/// untouched relations reads exactly the same tuples before and after the
/// commit, so its satisfaction cannot change. This is the relational mirror
/// of the engine's relevance-driven grounding: commit validation cost
/// scales with the delta, not with the peer's whole constraint set.
fn validate_local_ics(snapshot: &Snapshot, peer: &PeerId, delta: &Delta) -> Result<()> {
    let local_ics = &snapshot.topology().peer(peer)?.local_ics;
    let touched: BTreeSet<String> = delta
        .insertions
        .iter()
        .chain(delta.deletions.iter())
        .map(|atom| atom.relation.clone())
        .collect();
    let relevant: Vec<_> = local_ics
        .iter()
        .filter(|ic| ic.relations().iter().any(|rel| touched.contains(rel)))
        .collect();
    if relevant.is_empty() {
        return Ok(());
    }
    let candidate = delta.apply(&snapshot.instance_of(peer)?)?;
    let checker = ConstraintChecker::new(&candidate);
    for ic in relevant {
        let violations = checker.violations(ic)?;
        if !violations.is_empty() {
            return Err(SessionError::IcViolation {
                peer: peer.clone(),
                constraint: ic.name.clone(),
                violations: violations.len(),
            });
        }
    }
    Ok(())
}

/// A live, versioned P2P data exchange system: a [`QueryEngine`] whose
/// system accepts update transactions, with per-peer versions, an update
/// log, and incremental invalidation of the engine's memoized artifacts.
///
/// All reads take `&self` and answer against pinned MVCC epochs: they are
/// the [`ReadHandle`] methods, reached through `Deref`. Mutation goes
/// through the single [`Writer`] handle claimed with [`Session::writer`].
/// Clone cheap [`ReadHandle`]s with [`Session::reader`] to query from other
/// threads.
///
/// ```
/// use pdes_core::system::example1_system;
/// use pdes_core::Query;
/// use pdes_session::Session;
/// use relalg::query::Formula;
///
/// let session = Session::new(example1_system());
/// let query = Query::named("P1", Formula::atom("R1", vec!["X", "Y"]), &["X", "Y"]);
/// assert_eq!(session.query(&query).unwrap().len(), 3);
/// assert_eq!(session.current_seq(), 0); // no commits yet
/// ```
pub struct Session {
    reads: ReadHandle,
}

impl Session {
    /// A session over `system` with a default ([`Strategy::Auto`]) engine.
    pub fn new(system: P2PSystem) -> Self {
        Session::with_engine(QueryEngine::new(system))
    }

    /// A session over `system` answering with a fixed strategy.
    pub fn with_strategy(system: P2PSystem, strategy: Strategy) -> Self {
        Session::with_engine(QueryEngine::builder(system).strategy(strategy).build())
    }

    /// A session over a pre-configured engine (custom solver config,
    /// solution options or strategy). The engine's current system becomes
    /// the version-0 snapshot.
    ///
    /// # Panics
    ///
    /// Panics when the engine's store cannot be snapshotted (a custom
    /// `PeerStore` whose `pin` fails); use [`Session::try_with_engine`] to
    /// handle that case. Over the default in-process store this never
    /// panics.
    pub fn with_engine(engine: QueryEngine) -> Self {
        Session::try_with_engine(engine)
            .unwrap_or_else(|e| panic!("session construction failed: {e}"))
    }

    /// [`Session::with_engine`], surfacing store snapshot failures instead
    /// of panicking.
    pub fn try_with_engine(engine: QueryEngine) -> Result<Self> {
        let base = engine.snapshot_system()?;
        let core = Arc::new(SessionCore {
            engine,
            base,
            log: Mutex::new(Vec::new()),
            writer_claimed: AtomicBool::new(false),
        });
        Ok(Session {
            reads: ReadHandle { core },
        })
    }

    /// A cheap, cloneable handle sharing this session's engine, cache and
    /// log. Hand clones to reader threads; they never block on the writer.
    pub fn reader(&self) -> ReadHandle {
        self.reads.clone()
    }

    /// Claim the session's single [`Writer`]. At most one writer is alive
    /// at a time; a second claim fails with [`SessionError::WriterClaimed`]
    /// until the first is dropped.
    pub fn writer(&self) -> Result<Writer> {
        let core = &self.reads.core;
        if core
            .writer_claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(SessionError::WriterClaimed);
        }
        Ok(Writer {
            core: Arc::clone(core),
        })
    }

    /// The engine answering over the current snapshot.
    pub fn engine(&self) -> &QueryEngine {
        &self.reads.core.engine
    }

    /// The update log, oldest first.
    pub fn log(&self) -> Vec<CommittedTx> {
        self.reads.core.lock_log().clone()
    }
}

impl Deref for Session {
    type Target = ReadHandle;

    fn deref(&self) -> &ReadHandle {
        &self.reads
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("peers", &self.reads.core.base.peer_count())
            .field("seq", &self.current_seq())
            .field("versions", &self.versions())
            .finish()
    }
}

/// A cloneable read-only handle onto a [`Session`]: queries, pins,
/// versions, log replay and metrics, all `&self`. Clones share the engine
/// cache and never block on the writer's commits. A [`Session`] reaches
/// these methods through `Deref`.
#[derive(Clone)]
pub struct ReadHandle {
    core: Arc<SessionCore>,
}

impl ReadHandle {
    /// Answer a [`Query`] against the current snapshot (engine's
    /// strategy).
    pub fn query(&self, query: &Query) -> Result<Answers> {
        let engine = &self.core.engine;
        Ok(engine.answer(&query.peer, &query.query, &query.free_vars)?)
    }

    /// Answer with an explicit strategy, sharing the engine's cache.
    pub fn query_with(&self, strategy: Strategy, query: &Query) -> Result<Answers> {
        let engine = &self.core.engine;
        Ok(engine.answer_with(strategy, &query.peer, &query.query, &query.free_vars)?)
    }

    /// Pin the store's current epoch: an immutable [`Snapshot`] that stays
    /// readable (and bit-stable) while the writer publishes new epochs.
    /// Each committed transaction publishes one epoch, so over a store
    /// that starts at epoch 0 and takes commits only from this session, the
    /// pinned epoch is the sequence number of the last commit it holds.
    pub fn pin(&self) -> Result<Snapshot> {
        Ok(self.core.engine.pin()?)
    }

    /// The current snapshot as an owned system, hydrated from the pinned
    /// epoch.
    pub fn current_system(&self) -> Result<P2PSystem> {
        Ok(self.core.engine.snapshot_system()?)
    }

    /// A peer's current version.
    pub fn version_of(&self, peer: &PeerId) -> Version {
        Version(self.core.engine.version_of(peer))
    }

    /// Every peer's current version.
    pub fn versions(&self) -> BTreeMap<PeerId, Version> {
        let versions = self.core.engine.versions().into_iter();
        versions.map(|(p, v)| (p, Version(v))).collect()
    }

    /// The latest commit sequence number (0 before any commit).
    pub fn current_seq(&self) -> u64 {
        self.core.lock_log().len() as u64
    }

    /// Lifetime cache counters of the underlying engine.
    pub fn metrics(&self) -> CacheMetrics {
        self.core.engine.metrics()
    }

    /// Lifetime MVCC counters of the underlying store (pins, epoch
    /// publications, copied pages).
    pub fn mvcc_stats(&self) -> MvccStats {
        self.core.engine.mvcc_stats()
    }

    /// Reconstruct the system as of commit `seq` by replaying the update
    /// log over the version-0 snapshot, returned as an immutable
    /// [`Snapshot`] whose epoch is `seq` (`seq` 0 is the snapshot itself;
    /// `seq` equal to [`ReadHandle::current_seq`] reproduces the live
    /// system).
    pub fn snapshot_at(&self, seq: u64) -> Result<Snapshot> {
        let prefix: Vec<CommittedTx> = {
            let log = self.core.lock_log();
            let latest = log.len() as u64;
            if seq > latest {
                return Err(SessionError::UnknownSeq { seq, latest });
            }
            log[..seq as usize].to_vec()
        };
        let mut system = self.core.base.clone();
        let mut versions: VersionMap = BTreeMap::new();
        for tx in &prefix {
            for (peer, delta) in &tx.changes {
                system.apply_delta(peer, delta)?;
            }
            for (peer, version) in &tx.versions {
                versions.insert(peer.clone(), version.get());
            }
        }
        Ok(Snapshot::from_system(&system, versions, seq))
    }
}

impl fmt::Debug for ReadHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadHandle")
            .field("seq", &self.current_seq())
            .finish()
    }
}

/// The session's single mutation handle: owns [`Writer::begin`] /
/// [`Tx::commit`]. Claimed with [`Session::writer`]; dropping it releases
/// the claim so a new writer can be taken.
///
/// ```
/// use pdes_core::system::{example1_system, PeerId};
/// use pdes_session::Session;
/// use relalg::Tuple;
///
/// let session = Session::new(example1_system());
/// let mut writer = session.writer().unwrap();
/// assert!(session.writer().is_err()); // single-writer: the claim is held
///
/// let mut tx = writer.begin();
/// tx.insert(&PeerId::new("P2"), "R2", Tuple::strs(["x", "y"])).unwrap();
/// let receipt = tx.commit().unwrap();
/// assert_eq!(receipt.seq, 1);
///
/// drop(writer); // releasing the claim lets a new writer be taken
/// assert!(session.writer().is_ok());
/// ```
pub struct Writer {
    core: Arc<SessionCore>,
}

impl Writer {
    /// Begin a transaction. Updates staged on the [`Tx`] are not visible to
    /// queries (or anyone else) until [`Tx::commit`]. The transaction
    /// borrows the writer exclusively, so at most one is open at a time.
    pub fn begin(&mut self) -> Tx<'_> {
        Tx {
            core: &self.core,
            staged: BTreeMap::new(),
        }
    }

    /// Stage and commit a batch of [`Update`]s as one transaction.
    pub fn apply(&mut self, updates: &[Update]) -> Result<CommitReceipt> {
        let mut tx = self.begin();
        for update in updates {
            tx.stage_delta(&update.peer, update.delta.clone())?;
        }
        tx.commit()
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        self.core.writer_claimed.store(false, Ordering::Release);
    }
}

impl fmt::Debug for Writer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Writer")
            .field("seq", &self.core.lock_log().len())
            .finish()
    }
}

/// An open transaction: staged insertions/deletions per peer. Dropping a
/// `Tx` without committing discards the staged changes.
#[must_use = "a transaction does nothing until `commit` is called"]
pub struct Tx<'w> {
    core: &'w SessionCore,
    staged: BTreeMap<PeerId, Delta>,
}

impl Tx<'_> {
    /// Stage the insertion of one ground atom into a peer's relation. A
    /// staged deletion of the same atom is cancelled instead.
    pub fn insert(&mut self, peer: &PeerId, relation: &str, tuple: Tuple) -> Result<&mut Self> {
        let atom = self.checked_atom(peer, relation, tuple)?;
        let delta = self.staged.entry(peer.clone()).or_default();
        if !delta.deletions.remove(&atom) {
            delta.insertions.insert(atom);
        }
        Ok(self)
    }

    /// Stage the deletion of one ground atom from a peer's relation. A
    /// staged insertion of the same atom is cancelled instead.
    ///
    /// Takes the tuple by reference — deletion identifies an existing tuple
    /// rather than contributing a new one, the same signature as
    /// `P2PSystem::delete`.
    pub fn delete(&mut self, peer: &PeerId, relation: &str, tuple: &Tuple) -> Result<&mut Self> {
        let atom = self.checked_atom(peer, relation, tuple.clone())?;
        let delta = self.staged.entry(peer.clone()).or_default();
        if !delta.insertions.remove(&atom) {
            delta.deletions.insert(atom);
        }
        Ok(self)
    }

    /// Stage a whole delta against a peer (validated atom by atom, with the
    /// same cancellation behaviour as [`Tx::insert`] / [`Tx::delete`]).
    pub fn stage_delta(&mut self, peer: &PeerId, delta: Delta) -> Result<&mut Self> {
        for atom in delta.insertions {
            self.insert(peer, &atom.relation.clone(), atom.tuple)?;
        }
        for atom in delta.deletions {
            self.delete(peer, &atom.relation.clone(), &atom.tuple)?;
        }
        Ok(self)
    }

    /// The peers with staged changes.
    pub fn touched(&self) -> BTreeSet<PeerId> {
        self.staged
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.values().all(Delta::is_empty)
    }

    /// Discard the staged changes (same as dropping the transaction, but
    /// explicit at call sites).
    pub fn rollback(self) {}

    /// Validate the staged changes all-or-nothing, then commit them as one
    /// store epoch.
    ///
    /// 1. The current epoch is pinned; normalization and validation read
    ///    that immutable snapshot, never the live store.
    /// 2. Each staged delta is *normalized* against the peer's pinned
    ///    instance: already-present insertions and already-absent deletions
    ///    are dropped, so the logged delta is exact (`Δ(before, after)`
    ///    restricted to the peer — Definition 1).
    /// 3. Every touched peer's local ICs are checked against the instance
    ///    the commit would produce; the first violation aborts the whole
    ///    commit with [`SessionError::IcViolation`] and nothing is applied.
    /// 4. The deltas are committed through [`QueryEngine::commit`] in one
    ///    call: the store publishes one epoch, which bumps every touched
    ///    peer's version, and the engine invalidates exactly the memoized
    ///    artifacts whose relevant-peer closure contains a touched peer,
    ///    repairing each once. A reader pins the transaction whole or not
    ///    at all, and the receipt's sequence number matches the published
    ///    epoch ([`ReadHandle::pin`]) and [`ReadHandle::snapshot_at`]'s. A
    ///    failed commit (one the store refuses, say) leaves the store, the
    ///    versions and the log untouched.
    ///
    /// A commit whose staged changes normalize to nothing is a no-op: the
    /// log and versions are untouched and the receipt reports no touched
    /// peers.
    pub fn commit(self) -> Result<CommitReceipt> {
        let core = self.core;
        let snapshot = core.engine.pin()?;
        // 1 + 2. Normalize against the pinned epoch.
        let mut effective: BTreeMap<PeerId, Delta> = BTreeMap::new();
        for (peer, staged) in &self.staged {
            let instance = snapshot.instance_of(peer)?;
            let insertions: BTreeSet<GroundAtom> = staged
                .insertions
                .iter()
                .filter(|a| !instance.holds(&a.relation, &a.tuple))
                .cloned()
                .collect();
            let deletions: BTreeSet<GroundAtom> = staged
                .deletions
                .iter()
                .filter(|a| instance.holds(&a.relation, &a.tuple))
                .cloned()
                .collect();
            if !insertions.is_empty() || !deletions.is_empty() {
                effective.insert(
                    peer.clone(),
                    Delta {
                        insertions,
                        deletions,
                    },
                );
            }
        }
        if effective.is_empty() {
            return Ok(CommitReceipt {
                seq: core.lock_log().len() as u64,
                touched: BTreeSet::new(),
                affected: BTreeSet::new(),
                versions: BTreeMap::new(),
                invalidated: 0,
            });
        }
        // 3. Validate all peers before applying anything. Each touched
        // peer's check reads only that peer's pinned instance and ICs, so
        // the checks fan out across the engine's worker pool; `try_map`
        // reports the lowest-indexed (= first in peer order) violation,
        // matching the sequential loop's error exactly.
        let staged_peers: Vec<(&PeerId, &Delta)> = effective.iter().collect();
        let recorder = Arc::clone(core.engine.recorder());
        let validate_span = pdes_obs::Span::enter(recorder.as_ref(), "commit.validate");
        Executor::new(core.engine.exec_config()).try_map(&staged_peers, |(peer, delta)| {
            validate_local_ics(&snapshot, peer, delta)
        })?;
        validate_span.finish();
        // 4. Commit.
        let touched: BTreeSet<PeerId> = effective.keys().cloned().collect();
        let affected = snapshot.topology().affected_by(&touched);
        let (versions, invalidated) = core.engine.commit(&effective)?;
        let versions: BTreeMap<PeerId, Version> =
            versions.into_iter().map(|(p, v)| (p, Version(v))).collect();
        let mut log = core.lock_log();
        let seq = log.len() as u64 + 1;
        log.push(CommittedTx {
            seq,
            changes: effective,
            versions: versions.clone(),
        });
        Ok(CommitReceipt {
            seq,
            touched,
            affected,
            versions,
            invalidated,
        })
    }

    /// Validate peer, relation ownership and arity against the topology
    /// (schemas never change after construction); build the ground atom.
    fn checked_atom(&self, peer: &PeerId, relation: &str, tuple: Tuple) -> Result<GroundAtom> {
        let peer_data = self.core.base.peer(peer)?;
        let schema = peer_data.schema.relation(relation).ok_or_else(|| {
            pdes_core::CoreError::UnknownRelation {
                peer: peer.to_string(),
                relation: relation.to_string(),
            }
        })?;
        if schema.arity() != tuple.arity() {
            return Err(relalg::RelalgError::ArityMismatch {
                relation: relation.to_string(),
                expected: schema.arity(),
                found: tuple.arity(),
            }
            .into());
        }
        Ok(GroundAtom::new(relation, tuple))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdes_core::system::example1_system;
    use relalg::query::Formula;

    fn r1_query() -> Query {
        Query::named("P1", Formula::atom("R1", vec!["X", "Y"]), &["X", "Y"])
    }

    #[test]
    fn commit_applies_changes_and_bumps_versions() {
        let session = Session::new(example1_system());
        let p2 = PeerId::new("P2");
        let mut writer = session.writer().unwrap();
        let mut tx = writer.begin();
        tx.insert(&p2, "R2", Tuple::strs(["x", "y"])).unwrap();
        tx.delete(&p2, "R2", &Tuple::strs(["c", "d"])).unwrap();
        let receipt = tx.commit().unwrap();
        assert_eq!(receipt.seq, 1);
        assert_eq!(receipt.touched, BTreeSet::from([p2.clone()]));
        assert_eq!(receipt.versions[&p2], Version(1));
        assert_eq!(session.version_of(&p2), Version(1));
        assert_eq!(session.version_of(&PeerId::new("P1")), Version::ZERO);
        let inst = session.pin().unwrap().instance_of(&p2).unwrap();
        assert!(inst.holds("R2", &Tuple::strs(["x", "y"])));
        assert!(!inst.holds("R2", &Tuple::strs(["c", "d"])));
        assert_eq!(session.current_seq(), 1);
        assert_eq!(session.log().len(), 1);
    }

    #[test]
    fn writer_claim_is_exclusive_until_dropped() {
        let session = Session::new(example1_system());
        let writer = session.writer().unwrap();
        assert!(matches!(session.writer(), Err(SessionError::WriterClaimed)));
        // Dropping the handle releases the claim.
        drop(writer);
        let mut again = session.writer().unwrap();
        let tx = again.begin();
        tx.rollback();
    }

    #[test]
    fn read_handles_share_the_engine_and_never_need_mut() {
        let session = Session::with_strategy(example1_system(), Strategy::Asp);
        let reader = session.reader();
        let sibling = reader.clone();
        let query = r1_query();
        let cold = reader.query(&query).unwrap();
        assert!(!cold.stats.cache_hit);
        // The clone shares the cache: same query is a warm hit.
        let warm = sibling.query(&query).unwrap();
        assert!(warm.stats.cache_hit);
        assert_eq!(cold.tuples, warm.tuples);
        assert_eq!(reader.current_seq(), 0);
        // Handles are Send + Sync: usable from spawned reader threads.
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        assert_send_sync(&reader);
        assert_send_sync(&session);
    }

    #[test]
    fn staging_cancels_and_normalizes() {
        let session = Session::new(example1_system());
        let p2 = PeerId::new("P2");
        let mut writer = session.writer().unwrap();
        let mut tx = writer.begin();
        // Insert-then-delete cancels out.
        tx.insert(&p2, "R2", Tuple::strs(["x", "y"])).unwrap();
        tx.delete(&p2, "R2", &Tuple::strs(["x", "y"])).unwrap();
        // Inserting an already-present atom normalizes away at commit.
        tx.insert(&p2, "R2", Tuple::strs(["c", "d"])).unwrap();
        assert!(!tx.is_empty());
        let receipt = tx.commit().unwrap();
        assert!(receipt.touched.is_empty());
        assert_eq!(receipt.seq, 0);
        assert_eq!(session.current_seq(), 0);
        assert_eq!(session.version_of(&p2), Version::ZERO);
    }

    #[test]
    fn staging_validates_ownership_and_arity() {
        let session = Session::new(example1_system());
        let p2 = PeerId::new("P2");
        let mut writer = session.writer().unwrap();
        let mut tx = writer.begin();
        // R1 belongs to P1.
        assert!(tx.insert(&p2, "R1", Tuple::strs(["x", "y"])).is_err());
        // Wrong arity.
        assert!(tx.insert(&p2, "R2", Tuple::strs(["x"])).is_err());
        // Unknown peer.
        assert!(tx
            .insert(&PeerId::new("Z"), "R2", Tuple::strs(["x", "y"]))
            .is_err());
        tx.rollback();
    }

    #[test]
    fn ic_violation_rejects_the_whole_commit() {
        let mut system = example1_system();
        let p1 = PeerId::new("P1");
        let p2 = PeerId::new("P2");
        system
            .add_local_ic(
                &p1,
                constraints::builders::key_denial("fd_r1", "R1").unwrap(),
            )
            .unwrap();
        let session = Session::new(system);
        let mut writer = session.writer().unwrap();
        let mut tx = writer.begin();
        // R1 already holds (a, b); (a, z) violates the key denial.
        tx.insert(&p1, "R1", Tuple::strs(["a", "z"])).unwrap();
        tx.insert(&p2, "R2", Tuple::strs(["new", "row"])).unwrap();
        let err = tx.commit().unwrap_err();
        match err {
            SessionError::IcViolation {
                peer, constraint, ..
            } => {
                assert_eq!(peer, p1);
                assert_eq!(constraint, "fd_r1");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Atomicity: neither peer changed, no versions bumped, no log entry.
        assert!(!session
            .pin()
            .unwrap()
            .instance_of(&p2)
            .unwrap()
            .holds("R2", &Tuple::strs(["new", "row"])));
        assert_eq!(session.version_of(&p1), Version::ZERO);
        assert_eq!(session.version_of(&p2), Version::ZERO);
        assert_eq!(session.current_seq(), 0);
    }

    #[test]
    fn untouched_ics_are_not_revalidated() {
        use relalg::RelationSchema;
        // P owns two relations; its key IC on `RK` is *already violated* in
        // the base instance. A commit touching only `RO` must not re-check
        // (and spuriously reject on) the untouched IC — validation scales
        // with the delta, not the peer's whole constraint set.
        let mut system = P2PSystem::new();
        system.add_peer("P").unwrap();
        let p = PeerId::new("P");
        system
            .add_relation(&p, RelationSchema::new("RK", &["k", "v"]))
            .unwrap();
        system
            .add_relation(&p, RelationSchema::new("RO", &["x"]))
            .unwrap();
        system.insert(&p, "RK", Tuple::strs(["a", "1"])).unwrap();
        system.insert(&p, "RK", Tuple::strs(["a", "2"])).unwrap();
        system
            .add_local_ic(
                &p,
                constraints::builders::key_denial("fd_rk", "RK").unwrap(),
            )
            .unwrap();
        let session = Session::new(system);
        let mut writer = session.writer().unwrap();

        // Touching RO commits fine despite the stale RK violation …
        let mut tx = writer.begin();
        tx.insert(&p, "RO", Tuple::strs(["new"])).unwrap();
        let receipt = tx.commit().unwrap();
        assert_eq!(receipt.versions[&p], Version(1));

        // … while touching RK still trips the (now relevant) IC.
        let mut tx = writer.begin();
        tx.insert(&p, "RK", Tuple::strs(["b", "1"])).unwrap();
        assert!(matches!(
            tx.commit(),
            Err(SessionError::IcViolation { constraint, .. }) if constraint == "fd_rk"
        ));
    }

    #[test]
    fn consistent_updates_pass_local_ics() {
        let mut system = example1_system();
        let p1 = PeerId::new("P1");
        system
            .add_local_ic(
                &p1,
                constraints::builders::key_denial("fd_r1", "R1").unwrap(),
            )
            .unwrap();
        let session = Session::new(system);
        let mut writer = session.writer().unwrap();
        let mut tx = writer.begin();
        tx.insert(&p1, "R1", Tuple::strs(["fresh", "value"]))
            .unwrap();
        let receipt = tx.commit().unwrap();
        assert_eq!(receipt.versions[&p1], Version(1));
    }

    #[test]
    fn snapshot_at_replays_the_log() {
        let session = Session::new(example1_system());
        let p2 = PeerId::new("P2");
        let p3 = PeerId::new("P3");
        let base = session.snapshot_at(0).unwrap();
        assert_eq!(base.epoch(), 0);
        assert_eq!(&base.system().unwrap(), &example1_system());

        let mut writer = session.writer().unwrap();
        let mut tx = writer.begin();
        tx.insert(&p2, "R2", Tuple::strs(["x", "y"])).unwrap();
        let _ = tx.commit().unwrap();
        let mut tx = writer.begin();
        tx.delete(&p3, "R3", &Tuple::strs(["a", "f"])).unwrap();
        let _ = tx.commit().unwrap();

        let at1 = session.snapshot_at(1).unwrap();
        assert_eq!(at1.epoch(), 1);
        assert_eq!(at1.version_of(&p2).unwrap(), 1);
        assert!(at1
            .instance_of(&p2)
            .unwrap()
            .holds("R2", &Tuple::strs(["x", "y"])));
        assert!(at1
            .instance_of(&p3)
            .unwrap()
            .holds("R3", &Tuple::strs(["a", "f"])));
        let at2 = session.snapshot_at(2).unwrap();
        assert_eq!(at2.system().unwrap(), session.current_system().unwrap());
        assert!(matches!(
            session.snapshot_at(3),
            Err(SessionError::UnknownSeq { seq: 3, latest: 2 })
        ));
    }

    #[test]
    fn queries_track_commits_and_keep_unrelated_peers_warm() {
        let session = Session::with_strategy(example1_system(), Strategy::Asp);
        let p1 = PeerId::new("P1");
        let p2 = PeerId::new("P2");
        let query = r1_query();
        let q3 = Query::named("P3", Formula::atom("R3", vec!["X", "Y"]), &["X", "Y"]);

        let before = session.query(&query).unwrap();
        let _ = session.query(&q3).unwrap();

        let mut writer = session.writer().unwrap();
        let mut tx = writer.begin();
        tx.insert(&p2, "R2", Tuple::strs(["x", "y"])).unwrap();
        let receipt = tx.commit().unwrap();
        assert!(receipt.invalidated >= 1);
        // The receipt names the closure: P1 (imports from P2) and P2 itself,
        // but not P3.
        assert_eq!(receipt.affected, BTreeSet::from([p1.clone(), p2.clone()]));

        // P3 is outside P2's relevant-peer closure: still warm.
        let warm = session.query(&q3).unwrap();
        assert!(warm.stats.cache_hit);
        // P1 imports from P2: its artifact was repaired on the committing
        // thread, so the post-commit query is served warm and sees the new
        // tuple.
        let after = session.query(&query).unwrap();
        assert_eq!(after.len(), before.len() + 1);
    }

    #[test]
    fn parallel_ic_validation_matches_sequential() {
        use pdes_core::engine::QueryEngine;
        use pdes_exec::ExecConfig;
        // Two peers with key ICs; one staged delta violates P1's. Both the
        // sequential and the 4-worker engine must reject the commit with
        // the same (first-in-peer-order) violation, atomically.
        let build = |workers: usize| {
            let mut system = example1_system();
            let p1 = PeerId::new("P1");
            let p2 = PeerId::new("P2");
            system
                .add_local_ic(
                    &p1,
                    constraints::builders::key_denial("fd_r1", "R1").unwrap(),
                )
                .unwrap();
            system
                .add_local_ic(
                    &p2,
                    constraints::builders::key_denial("fd_r2", "R2").unwrap(),
                )
                .unwrap();
            Session::with_engine(
                QueryEngine::builder(system)
                    .exec(ExecConfig::with_workers(workers))
                    .build(),
            )
        };
        let mut outcomes = Vec::new();
        for workers in [1, 4] {
            let session = build(workers);
            let mut writer = session.writer().unwrap();
            let mut tx = writer.begin();
            // Both staged deltas violate their peer's key IC.
            tx.insert(&PeerId::new("P1"), "R1", Tuple::strs(["a", "zzz"]))
                .unwrap();
            tx.insert(&PeerId::new("P2"), "R2", Tuple::strs(["c", "zzz"]))
                .unwrap();
            let err = tx.commit().unwrap_err();
            match err {
                SessionError::IcViolation {
                    peer, constraint, ..
                } => outcomes.push((peer, constraint)),
                other => panic!("unexpected error {other:?}"),
            }
            assert_eq!(session.current_seq(), 0, "commit must stay atomic");
        }
        assert_eq!(outcomes[0], outcomes[1], "same violation on both paths");
        assert_eq!(outcomes[0].0, PeerId::new("P1"));

        // And a valid multi-peer commit passes under a parallel pool.
        let session = build(4);
        let mut writer = session.writer().unwrap();
        let mut tx = writer.begin();
        tx.insert(&PeerId::new("P1"), "R1", Tuple::strs(["new1", "v"]))
            .unwrap();
        tx.insert(&PeerId::new("P2"), "R2", Tuple::strs(["new2", "v"]))
            .unwrap();
        let receipt = tx.commit().unwrap();
        assert_eq!(receipt.touched.len(), 2);
    }

    #[test]
    fn apply_commits_update_batches() {
        use relalg::database::GroundAtom;
        let session = Session::new(example1_system());
        let p2 = PeerId::new("P2");
        let updates = vec![Update::new(
            p2.clone(),
            Delta::from_changes([GroundAtom::new("R2", Tuple::strs(["u", "v"]))], []),
        )];
        let mut writer = session.writer().unwrap();
        let receipt = writer.apply(&updates).unwrap();
        assert_eq!(receipt.touched, BTreeSet::from([p2.clone()]));
        assert_eq!(session.version_of(&p2), Version(1));
    }

    #[test]
    fn version_displays_compactly() {
        assert_eq!(Version(3).to_string(), "v3");
        assert_eq!(Version::ZERO.get(), 0);
    }
}
