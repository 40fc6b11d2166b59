//! Peer-state access behind one API: the [`PeerStore`] trait.
//!
//! The paper's model is a network of *autonomous* peers. `PeerStore` is the
//! boundary through which the engine, the session layer and the tooling
//! reach peer state, so [`InProcessStore`] and any test double (a pinned
//! [`Snapshot`], a store that slows or refuses commits) are interchangeable
//! behind one API. It has one read path and one write path:
//!
//! * **Topology** — peers, schemas, DECs, the trust relation and local ICs —
//!   is cheap, slow-changing metadata served locally by
//!   [`PeerStore::topology`] (a topology-only [`P2PSystem`], instances
//!   empty). Every closure/ownership/trust question is answered from it.
//! * **Reads** pin an epoch with [`PeerStore::pin`] and go through the
//!   returned [`Snapshot`]'s methods ([`Snapshot::instance_of`],
//!   [`Snapshot::instances`], [`Snapshot::system`],
//!   [`Snapshot::versions`]).
//! * **Writes** commit one transaction — a [`Delta`] per touched peer — with
//!   [`PeerStore::apply_delta`], as one epoch; a single-tuple write is a
//!   one-peer, one-atom transaction.
//!
//! Writes return *version stamps*: every peer carries a monotonically
//! increasing `u64` bumped by each transaction that touches it, and the
//! store is the single authority for it. Cache layers (the engine's memo
//! cache) key their artifacts by these stamps instead of maintaining private
//! counters.
//!
//! # Epochs and snapshot isolation
//!
//! Stores publish their state as a sequence of immutable **epochs**. A
//! reader calls [`PeerStore::pin`] and receives a [`Snapshot`] — a cheap,
//! cloneable handle on one epoch whose relation pages are `Arc`-shared with
//! the store. Writers build the successor epoch *outside* any lock (copying
//! only the relation pages the transaction touches — see
//! [`Database::apply_changes_cow`]) and publish it with a single pointer
//! swap, so a pinned reader never blocks on a concurrent commit and never
//! observes a torn write, not even of a transaction spanning several peers.
//! [`MvccStats`] counts pins, epoch publications and copied pages.
//!
//! # Id rows
//!
//! Every relation page of a published epoch also carries its tuples as the
//! store's symbol ids ([`relalg::Relation::symbol_ids`]): the store interns
//! each value once, when it builds the page — at construction
//! ([`InProcessStore::new`], [`Snapshot::from_system`]) or when a commit
//! copies the page — and readers that work on ids (the ASP fact tables,
//! the engine's world sets) read the rows instead of interning the values
//! again. Untouched pages share their id rows with the previous epoch, as
//! they share their tuples.

use crate::error::CoreError;
use crate::system::{P2PSystem, PeerId};
use crate::Result;
use relalg::{Database, Delta, SymbolTable};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Per-peer version stamps, as returned by [`Snapshot::versions`].
pub type VersionMap = BTreeMap<PeerId, u64>;

/// MVCC observability counters of a store: how many snapshots were pinned,
/// how many epochs were published, and how many shared relation pages the
/// copy-on-write commits had to copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MvccStats {
    /// Snapshots handed out by [`PeerStore::pin`].
    pub pins: u64,
    /// Epochs published by effective mutations.
    pub publishes: u64,
    /// Relation pages copied because they were shared with a live epoch.
    pub cow_pages: u64,
}

/// One published epoch: an immutable map from peers to their (page-shared)
/// instances, plus the version stamps as of this epoch.
#[derive(Debug)]
struct EpochState {
    /// Monotone epoch number: 0 for the initial state, +1 per publication.
    epoch: u64,
    /// Per-peer instances. The `Arc` is per *peer*; pages inside each
    /// [`Database`] are additionally shared per *relation*.
    instances: BTreeMap<PeerId, Arc<Database>>,
    /// Version stamps as of this epoch.
    versions: VersionMap,
}

/// An immutable, cheaply-cloneable handle on one published epoch.
///
/// A `Snapshot` is what [`PeerStore::pin`] returns: all reads against it are
/// lock-free and stable — no concurrent commit can change what a pinned
/// snapshot observes, because commits publish *new* epochs instead of
/// mutating the pinned one. Cloning a snapshot is two `Arc` bumps. Every
/// page it serves carries its tuples as ids of [`Snapshot::symbols`] (see
/// the module docs on id rows).
///
/// `Snapshot` itself implements [`PeerStore`] (mutations fail with
/// [`CoreError::Unsupported`]), so anything that answers queries through a
/// store — including a whole [`QueryEngine`](crate::engine::QueryEngine) —
/// can be pointed at a frozen epoch.
#[derive(Debug, Clone)]
pub struct Snapshot {
    topology: Arc<P2PSystem>,
    state: Arc<EpochState>,
    /// The store's symbol table, shared so ids minted against one epoch stay
    /// valid against every other (the table is append-only).
    symbols: Arc<SymbolTable>,
}

impl Snapshot {
    /// Build a snapshot from a materialized system, version stamps and an
    /// epoch number. Used by stores publishing their first epoch and by the
    /// session log's historical replay (`snapshot_at`).
    pub fn from_system(system: &P2PSystem, mut versions: VersionMap, epoch: u64) -> Snapshot {
        // Normalize: every peer has a stamp (0 until its first mutation), so
        // version maps compare bit-identically across store implementations.
        for peer in system.peer_ids() {
            versions.entry(peer.clone()).or_insert(0);
        }
        let (symbols, instances) = intern_system(system);
        Snapshot {
            topology: Arc::new(system.topology_only()),
            state: Arc::new(EpochState {
                epoch,
                instances,
                versions,
            }),
            symbols: Arc::new(symbols),
        }
    }

    /// The epoch number this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// The topology replica (instances empty) backing this snapshot.
    pub fn topology(&self) -> &P2PSystem {
        &self.topology
    }

    /// The version stamps as of this epoch.
    pub fn versions(&self) -> &VersionMap {
        &self.state.versions
    }

    /// One peer's version stamp as of this epoch (0 until its first
    /// mutation; unknown peers error).
    pub fn version_of(&self, peer: &PeerId) -> Result<u64> {
        let _ = self.topology.peer(peer)?;
        Ok(self.state.versions.get(peer).copied().unwrap_or(0))
    }

    /// One peer's instance as of this epoch. The returned [`Database`] is a
    /// shallow, page-shared copy — no tuple data moves.
    pub fn instance_of(&self, peer: &PeerId) -> Result<Database> {
        self.state
            .instances
            .get(peer)
            .map(|db| db.as_ref().clone())
            .ok_or_else(|| CoreError::UnknownPeer(peer.to_string()))
    }

    /// The instances of `peers` as of this epoch (page-shared copies, like
    /// [`Snapshot::instance_of`]). Unknown peers error.
    pub fn instances(&self, peers: &BTreeSet<PeerId>) -> Result<BTreeMap<PeerId, Database>> {
        peers
            .iter()
            .map(|p| Ok((p.clone(), self.instance_of(p)?)))
            .collect()
    }

    /// The symbol table shared with the originating store (see
    /// [`PeerStore::symbols`]).
    pub fn symbols(&self) -> Arc<SymbolTable> {
        Arc::clone(&self.symbols)
    }

    /// Materialize the full system as of this epoch: the topology replica
    /// with every peer's pinned instance installed.
    pub fn system(&self) -> Result<P2PSystem> {
        let mut system = self.topology.as_ref().clone();
        for (peer, instance) in &self.state.instances {
            system.set_instance(peer, instance.as_ref().clone())?;
        }
        Ok(system)
    }
}

impl PeerStore for Snapshot {
    fn topology(&self) -> &P2PSystem {
        Snapshot::topology(self)
    }

    fn pin(&self) -> Result<Snapshot> {
        Ok(self.clone())
    }

    fn apply_delta(&self, _changes: &BTreeMap<PeerId, Delta>) -> Result<VersionMap> {
        Err(CoreError::Unsupported(
            "a pinned snapshot is immutable; commit through the live store".into(),
        ))
    }

    fn symbols(&self) -> Arc<SymbolTable> {
        Snapshot::symbols(self)
    }
}

/// Build a symbol table covering everything a system mentions — every
/// peer name, every relation and attribute name of every peer's schema, and
/// every constant of every instance — and the instances as epoch pages
/// carrying their id rows. Called once at store construction
/// ([`InProcessStore::new`] and [`Snapshot::from_system`]); commits extend
/// the table as they attach the id rows of the pages they copy.
fn intern_system(system: &P2PSystem) -> (SymbolTable, BTreeMap<PeerId, Arc<Database>>) {
    let table = SymbolTable::new();
    let instances = system
        .peers()
        .map(|peer| {
            table.intern_name(&peer.id.0);
            for schema in peer.schema.relations() {
                table.intern_name(schema.name());
                for attr in schema.attributes() {
                    table.intern_name(attr);
                }
            }
            let mut instance = peer.instance.clone();
            instance.attach_symbols(&table);
            (peer.id.clone(), Arc::new(instance))
        })
        .collect();
    (table, instances)
}

/// The single way engine, session and tooling reach peer state: reads
/// through [`PeerStore::pin`], writes through [`PeerStore::apply_delta`].
///
/// [`InProcessStore`] is the library's implementation; tests swap in their
/// own. Every implementation must serve the same answers and the same
/// version stamps for the same mutation sequence, and a commit it refuses
/// must publish nothing.
pub trait PeerStore: Send + Sync {
    /// The topology-only replica: every peer with its schema, DECs, trust
    /// and local ICs, but *empty* instances. Served without a pin; use it
    /// for closure queries
    /// ([`P2PSystem::dependencies_of`]), ownership lookups, schema checks
    /// and analysis.
    fn topology(&self) -> &P2PSystem;

    /// Pin the current epoch: an immutable [`Snapshot`] whose reads are
    /// lock-free, stable under concurrent commits, and consistent across
    /// peers (no torn multi-peer reads). Pinning must be cheap — a handle on
    /// already-published state, never a data copy — and must never wait for
    /// an in-flight commit to finish.
    ///
    /// ```
    /// use pdes_core::store::{InProcessStore, PeerStore};
    /// use pdes_core::system::{example1_system, PeerId};
    /// use relalg::database::GroundAtom;
    /// use relalg::{Delta, Tuple};
    /// use std::collections::BTreeMap;
    ///
    /// let store = InProcessStore::new(example1_system());
    /// let p1 = PeerId::new("P1");
    /// let snapshot = store.pin().unwrap();
    /// let before = snapshot.instance_of(&p1).unwrap();
    ///
    /// // Commits after the pin do not disturb the snapshot's reads.
    /// let insert = Delta::from_changes([GroundAtom::new("R1", Tuple::strs(["new", "row"]))], []);
    /// store.apply_delta(&BTreeMap::from([(p1.clone(), insert)])).unwrap();
    /// assert_eq!(snapshot.instance_of(&p1).unwrap(), before);
    /// assert_ne!(store.pin().unwrap().instance_of(&p1).unwrap(), before);
    /// ```
    fn pin(&self) -> Result<Snapshot>;

    /// Commit one transaction: apply each peer's delta, bump each touched
    /// peer's version and publish the result as one epoch. Every delta is
    /// validated before any change ([`P2PSystem::validate_delta`]); a failed
    /// call leaves the store untouched. Returns the touched peers' new
    /// version stamps.
    fn apply_delta(&self, changes: &BTreeMap<PeerId, Delta>) -> Result<VersionMap>;

    /// MVCC observability counters. Defaults to zeros, which is what a
    /// store that counts nothing (a [`Snapshot`]) reports.
    fn mvcc_stats(&self) -> MvccStats {
        MvccStats::default()
    }

    /// The store's [`SymbolTable`]: constants and relation/attribute names
    /// interned to dense `u32` ids at store construction and extended
    /// (append-only) by every committed insertion. Snapshots pinned from the
    /// store share the same table, so symbol ids are stable across epochs
    /// and cached columnar artifacts never need re-interning; every page a
    /// pin serves carries its tuples as this table's ids.
    fn symbols(&self) -> Arc<SymbolTable>;
}

/// Shared atomic MVCC counters; snapshot with [`MvccCounters::stats`].
#[derive(Debug, Default)]
pub(crate) struct MvccCounters {
    pins: AtomicU64,
    publishes: AtomicU64,
    cow_pages: AtomicU64,
}

impl MvccCounters {
    pub(crate) fn count_pin(&self) {
        self.pins.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_publish(&self, cow_pages: u64) {
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.cow_pages.fetch_add(cow_pages, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> MvccStats {
        MvccStats {
            pins: self.pins.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            cow_pages: self.cow_pages.load(Ordering::Relaxed),
        }
    }
}

/// The canonical in-process [`PeerStore`]: an epoch-publishing MVCC store.
/// The current epoch lives behind an `RwLock<Arc<…>>` held only for the
/// pointer read/swap; writers serialize on a commit mutex and build the
/// successor epoch outside both locks, so readers (and pinners) never wait
/// for a commit in flight. This is what `QueryEngine::builder(system)`
/// wraps a plain system into.
pub struct InProcessStore {
    /// Immutable topology replica (instances stripped), shared with every
    /// snapshot this store pins.
    topology: Arc<P2PSystem>,
    /// The published epoch. Lock hold times are a pointer clone (readers) or
    /// a pointer swap (the committer) — never the commit work itself.
    current: RwLock<Arc<EpochState>>,
    /// Serializes writers. Readers never take it.
    commit: Mutex<()>,
    counters: MvccCounters,
    /// Append-only intern table fronting the data plane; built at
    /// construction, extended under the writer lock as commits attach the
    /// id rows of the pages they copy.
    symbols: Arc<SymbolTable>,
}

impl InProcessStore {
    /// Take ownership of a system and serve it through the store API,
    /// publishing it as epoch 0.
    pub fn new(system: P2PSystem) -> Self {
        let versions: VersionMap = system.peer_ids().map(|p| (p.clone(), 0)).collect();
        let (symbols, instances) = intern_system(&system);
        let symbols = Arc::new(symbols);
        InProcessStore {
            topology: Arc::new(system.topology_only()),
            current: RwLock::new(Arc::new(EpochState {
                epoch: 0,
                instances,
                versions,
            })),
            commit: Mutex::new(()),
            counters: MvccCounters::default(),
            symbols,
        }
    }

    /// The current epoch pointer. Recovers from poisoning: the epoch behind
    /// the lock is immutable, so a panicked holder cannot have corrupted it.
    fn current(&self) -> Arc<EpochState> {
        Arc::clone(
            &self
                .current
                .read()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// The writer lock; see [`InProcessStore::current`] for the poisoning
    /// rationale.
    fn writer(&self) -> MutexGuard<'_, ()> {
        self.commit
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Publish `next` as the new current epoch (one pointer swap).
    fn publish(&self, next: EpochState, cow_pages: u64) {
        let mut slot = self
            .current
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *slot = Arc::new(next);
        drop(slot);
        self.counters.count_publish(cow_pages);
    }
}

impl From<P2PSystem> for InProcessStore {
    fn from(system: P2PSystem) -> Self {
        InProcessStore::new(system)
    }
}

impl PeerStore for InProcessStore {
    fn topology(&self) -> &P2PSystem {
        &self.topology
    }

    fn pin(&self) -> Result<Snapshot> {
        self.counters.count_pin();
        Ok(Snapshot {
            topology: Arc::clone(&self.topology),
            state: self.current(),
            symbols: Arc::clone(&self.symbols),
        })
    }

    fn apply_delta(&self, changes: &BTreeMap<PeerId, Delta>) -> Result<VersionMap> {
        let _writer = self.writer();
        // Every delta is validated before anything changes, the symbol table
        // included.
        for (peer, delta) in changes {
            self.topology.validate_delta(peer, delta)?;
        }
        // The successor epoch starts as a shallow clone of the current one
        // (per-peer `Arc` bumps); only the touched pages are copied, and
        // only they get new id rows.
        let base = self.current();
        let (mut instances, mut versions) = (base.instances.clone(), base.versions.clone());
        let (mut stamps, mut cow) = (VersionMap::new(), 0);
        for (peer, delta) in changes {
            let slot = instances
                .get_mut(peer)
                .ok_or_else(|| CoreError::UnknownPeer(peer.to_string()))?;
            let mut instance = slot.as_ref().clone();
            cow += instance.apply_changes_cow(delta.insertions.iter(), delta.deletions.iter())?;
            instance.attach_symbols(&self.symbols);
            *slot = Arc::new(instance);
            let version = versions.entry(peer.clone()).or_insert(0);
            *version += 1;
            stamps.insert(peer.clone(), *version);
        }
        self.publish(
            EpochState {
                epoch: base.epoch + 1,
                instances,
                versions,
            },
            cow as u64,
        );
        Ok(stamps)
    }

    fn mvcc_stats(&self) -> MvccStats {
        self.counters.stats()
    }

    fn symbols(&self) -> Arc<SymbolTable> {
        Arc::clone(&self.symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::example1_system;
    use relalg::database::GroundAtom;
    use relalg::Tuple;

    fn insert(relation: &str, tuple: [&str; 2]) -> Delta {
        Delta::from_changes([GroundAtom::new(relation, Tuple::strs(tuple))], [])
    }

    fn delete(relation: &str, tuple: [&str; 2]) -> Delta {
        Delta::from_changes([], [GroundAtom::new(relation, Tuple::strs(tuple))])
    }

    /// A one-peer transaction.
    fn one(peer: &PeerId, delta: Delta) -> BTreeMap<PeerId, Delta> {
        BTreeMap::from([(peer.clone(), delta)])
    }

    #[test]
    fn topology_is_instance_free_but_schema_complete() {
        let store = InProcessStore::new(example1_system());
        let topology = store.topology();
        assert_eq!(topology.peer_count(), 3);
        assert_eq!(topology.decs().len(), 2);
        for peer in topology.peers() {
            assert_eq!(peer.instance.tuple_count(), 0, "peer {}", peer.id);
            // Declared relations survive (empty), so evaluation over the
            // replica fails on unknown relations, not on missing ones.
            for name in peer.schema.relation_names() {
                assert!(peer.instance.contains_relation(name));
            }
        }
        // The authoritative data is still served through a pin.
        let p1 = PeerId::new("P1");
        let pinned = store.pin().unwrap();
        assert_eq!(pinned.instance_of(&p1).unwrap().tuple_count(), 2);
    }

    #[test]
    fn pinned_system_round_trips() {
        let system = example1_system();
        let store = InProcessStore::new(system.clone());
        let pinned = store.pin().unwrap();
        assert_eq!(pinned.system().unwrap(), system);
        // Assembling the topology with the pinned instances agrees.
        let mut assembled = store.topology().clone();
        let all: BTreeSet<PeerId> = assembled.peer_ids().cloned().collect();
        for (peer, instance) in pinned.instances(&all).unwrap() {
            assembled.set_instance(&peer, instance).unwrap();
        }
        assert_eq!(assembled, system);
    }

    #[test]
    fn commits_stamp_versions() {
        let store = InProcessStore::new(example1_system());
        let p1 = PeerId::new("P1");
        let p2 = PeerId::new("P2");
        assert_eq!(store.pin().unwrap().version_of(&p1).unwrap(), 0);
        assert_eq!(
            store
                .apply_delta(&one(&p1, insert("R1", ["x", "y"])))
                .unwrap()[&p1],
            1
        );
        assert_eq!(
            store
                .apply_delta(&one(&p1, delete("R1", ["x", "y"])))
                .unwrap()[&p1],
            2
        );
        let pinned = store.pin().unwrap();
        assert!(!pinned
            .instance_of(&p1)
            .unwrap()
            .holds("R1", &Tuple::strs(["x", "y"])));
        assert_eq!(pinned.version_of(&p1).unwrap(), 2);
        // Other peers are untouched.
        assert_eq!(pinned.version_of(&p2).unwrap(), 0);
        assert_eq!(pinned.versions()[&p1], 2);
        assert_eq!(pinned.versions()[&p2], 0);
    }

    #[test]
    fn pinned_snapshots_are_stable_under_commits() {
        let store = InProcessStore::new(example1_system());
        let p1 = PeerId::new("P1");
        let fresh = Tuple::strs(["fresh", "row"]);
        let snap = store.pin().unwrap();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.version_of(&p1).unwrap(), 0);
        let before = snap.instance_of(&p1).unwrap();

        // Mutate the live store: the pinned epoch must not move.
        store
            .apply_delta(&one(&p1, insert("R1", ["fresh", "row"])))
            .unwrap();
        assert_eq!(snap.version_of(&p1).unwrap(), 0);
        assert_eq!(snap.instance_of(&p1).unwrap(), before);
        assert!(!snap.instance_of(&p1).unwrap().holds("R1", &fresh));

        // A fresh pin observes the commit, on a later epoch.
        let after = store.pin().unwrap();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.version_of(&p1).unwrap(), 1);
        assert!(after.instance_of(&p1).unwrap().holds("R1", &fresh));

        // The pinned epoch materializes the pre-commit system exactly.
        assert_eq!(snap.system().unwrap(), example1_system());
    }

    #[test]
    fn snapshots_are_immutable_peer_stores() {
        let store = InProcessStore::new(example1_system());
        let snap = store.pin().unwrap();
        let p1 = PeerId::new("P1");
        // Pinning a snapshot pins its own epoch…
        let repinned = PeerStore::pin(&snap).unwrap();
        assert_eq!(repinned.epoch(), snap.epoch());
        assert_eq!(repinned.system().unwrap(), example1_system());
        // …and every commit is refused.
        let delta = insert("R1", ["x", "y"]);
        assert!(matches!(
            PeerStore::apply_delta(&snap, &one(&p1, delta)),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn commits_publish_epochs_and_count_cow_pages() {
        let store = InProcessStore::new(example1_system());
        let p1 = PeerId::new("P1");
        assert_eq!(store.mvcc_stats(), MvccStats::default());
        let _pin = store.pin().unwrap();
        store
            .apply_delta(&one(&p1, insert("R1", ["x", "y"])))
            .unwrap();
        let stats = store.mvcc_stats();
        assert_eq!(stats.pins, 1);
        assert_eq!(stats.publishes, 1);
        // R1's page was shared with epoch 0 (held by `_pin`): one copy.
        assert_eq!(stats.cow_pages, 1);
        // A refused delta publishes nothing.
        assert!(store
            .apply_delta(&one(&p1, insert("Nope", ["x", "y"])))
            .is_err());
        assert_eq!(store.mvcc_stats().publishes, 1);
        assert_eq!(store.pin().unwrap().epoch(), 1);
    }

    #[test]
    fn failed_mutations_leave_state_and_versions_alone() {
        let store = InProcessStore::new(example1_system());
        let p1 = PeerId::new("P1");
        let ghost = PeerId::new("ZZ");
        // Foreign relation, unknown relation, wrong arity: all validated
        // before any change.
        let wrong_arity = Delta::from_changes([GroundAtom::new("R1", Tuple::strs(["v"]))], []);
        for bad in [
            insert("R2", ["a", "b"]),
            delete("Nope", ["a", "b"]),
            wrong_arity,
        ] {
            assert!(store.apply_delta(&one(&p1, bad)).is_err());
        }
        assert!(matches!(
            store.apply_delta(&one(&ghost, insert("R1", ["a", "b"]))),
            Err(CoreError::UnknownPeer(_))
        ));
        let pinned = store.pin().unwrap();
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.system().unwrap(), example1_system());
        assert!(pinned.version_of(&ghost).is_err());
        assert!(pinned.instance_of(&ghost).is_err());
    }

    #[test]
    fn two_peer_transactions_publish_one_epoch_or_nothing() {
        let store = InProcessStore::new(example1_system());
        let (p2, p3) = (PeerId::new("P2"), PeerId::new("P3"));
        let tx = BTreeMap::from([
            (p2.clone(), insert("R2", ["x", "y"])),
            (p3.clone(), insert("R3", ["x", "y"])),
        ]);
        let stamps = store.apply_delta(&tx).unwrap();
        assert_eq!(stamps, BTreeMap::from([(p2.clone(), 1), (p3.clone(), 1)]));
        assert_eq!(store.mvcc_stats().publishes, 1);
        let after = store.pin().unwrap();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.version_of(&p2).unwrap(), 1);
        assert_eq!(after.version_of(&p3).unwrap(), 1);
        assert!(after
            .instance_of(&p3)
            .unwrap()
            .holds("R3", &Tuple::strs(["x", "y"])));

        // The second delta names an unknown relation: the first peer's
        // valid delta must not land either.
        let torn = BTreeMap::from([
            (p2.clone(), insert("R2", ["u", "v"])),
            (p3.clone(), insert("Nope", ["u", "v"])),
        ]);
        assert!(store.apply_delta(&torn).is_err());
        assert_eq!(store.mvcc_stats().publishes, 1);
        let pinned = store.pin().unwrap();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.versions(), after.versions());
        assert_eq!(
            pinned.instance_of(&p2).unwrap(),
            after.instance_of(&p2).unwrap()
        );
    }
}
