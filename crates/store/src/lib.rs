//! # pdes-store — the peer-sharded serving runtime
//!
//! The paper models a network of *autonomous* peers; this crate makes the
//! reproduction serve like one. It builds on the [`PeerStore`] trait (defined
//! in `pdes-core`, re-exported here): the single API through which the
//! engine, the session layer and the tooling reach peer state.
//!
//! * [`InProcessStore`] (re-exported) — the canonical single-process
//!   implementation: one epoch-publishing MVCC store.
//! * [`ShardedStore`] — peers partitioned across N worker shards by
//!   *closure-connected components*, each worker holding a write-only copy
//!   of its peers' instances behind an in-process loopback transport
//!   ([`transport`]). The coordinator validates a transaction, sends each
//!   touched shard its part and, once all acknowledge, publishes it as one
//!   epoch of its [`InProcessStore`] mirror, which every read pins.
//!
//! ## Partitioning
//!
//! Two peers belong to the same *closure-connected component* when a chain
//! of DECs links them (direction ignored — the same union-find construction
//! the engine's `answer_batch` uses to split independent queries). A
//! component is the unit of placement, so a query's relevant-peer closure
//! lives on one shard, while a transaction reaches every shard owning one
//! of its peers. Components are assigned round-robin, in order of their
//! lexicographically smallest peer, so the assignment is deterministic and
//! reproducible.
//!
//! ## Observability
//!
//! With a recorder installed ([`ShardedStoreBuilder::recorder`]), every
//! transport round-trip emits a `transport.roundtrip` span tagged with its
//! shard. A pin reaches no shard; a commit makes one round-trip per shard
//! it touches and publishes one epoch. The epoch mirror counts both in
//! [`PeerStore::mvcc_stats`] (`pins` and `publishes`).

#![warn(missing_docs)]

pub use pdes_core::store::{InProcessStore, MvccStats, PeerStore, Snapshot, VersionMap};

use pdes_core::system::{P2PSystem, PeerId};
use pdes_core::{CoreError, Result};
use pdes_obs::{Field, NullRecorder, Recorder, Span};
use relalg::Delta;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

pub mod transport;

use transport::{Envelope, ShardRequest};

/// One worker shard, as seen from the coordinator: its request queue and
/// its thread (joined on drop).
struct ShardHandle {
    sender: Sender<Envelope>,
    thread: Option<JoinHandle<()>>,
}

/// A [`PeerStore`] that partitions peers across worker shards by
/// closure-connected components, served over an in-process loopback
/// transport.
///
/// Construct with [`ShardedStore::builder`]. Observationally equivalent to
/// [`InProcessStore`] over the same system — same answers, same version
/// stamps — apart from [`CoreError::Transport`] surfacing transport
/// failures; the workspace's `tests/sharding.rs` property-checks that
/// equivalence across strategies, shard counts and live commits.
pub struct ShardedStore {
    /// Topology replica served locally (instances empty).
    topology: P2PSystem,
    /// Peer → shard index (total over the system's peers).
    assignment: BTreeMap<PeerId, usize>,
    shards: Vec<ShardHandle>,
    recorder: Arc<dyn Recorder>,
    /// Coordinator-side epoch mirror and the store's only version
    /// authority: an [`InProcessStore`] over the same system, publishing
    /// each transaction once every shard it touches has acknowledged.
    /// [`PeerStore::pin`] serves snapshots from it without a round-trip, and
    /// its epochs and stamps are bit-identical to a single-store oracle's
    /// (checked by `tests/sharding.rs`).
    mirror: InProcessStore,
    /// Serializes commits across shards so the workers apply them in the
    /// mirror's order. Pins never take it.
    commit: Mutex<()>,
}

/// Builder for [`ShardedStore`].
#[must_use = "a builder does nothing until `build` is called"]
pub struct ShardedStoreBuilder {
    system: P2PSystem,
    shards: usize,
    recorder: Option<Arc<dyn Recorder>>,
}

impl ShardedStoreBuilder {
    /// Number of worker shards (clamped to at least 1). Components are
    /// assigned round-robin, so shard counts beyond the component count
    /// leave the extra shards empty (but running).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Install an observability recorder for `transport.roundtrip` spans.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Partition the system and spawn the shard workers.
    pub fn build(self) -> ShardedStore {
        let recorder = self
            .recorder
            .unwrap_or_else(|| Arc::new(NullRecorder) as Arc<dyn Recorder>);
        let topology = self.system.topology_only();
        let assignment = assign_components(&self.system, self.shards);
        let mut shards = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            // Each worker owns the topology replica plus the *real*
            // instances of exactly its peers.
            let mut state = topology.clone();
            for (peer, &owner) in &assignment {
                if owner == shard {
                    let instance = self
                        .system
                        .peer(peer)
                        .expect("assignment only maps existing peers")
                        .instance
                        .clone();
                    state
                        .set_instance(peer, instance)
                        .expect("replica shares the system's peers");
                }
            }
            let (sender, receiver) = std::sync::mpsc::channel::<Envelope>();
            let thread = std::thread::spawn(move || shard_worker(state, receiver));
            shards.push(ShardHandle {
                sender,
                thread: Some(thread),
            });
        }
        ShardedStore {
            topology,
            assignment,
            shards,
            recorder,
            mirror: InProcessStore::new(self.system),
            commit: Mutex::new(()),
        }
    }
}

impl ShardedStore {
    /// Start building a sharded store over `system` (1 shard, no recorder
    /// by default).
    pub fn builder(system: P2PSystem) -> ShardedStoreBuilder {
        ShardedStoreBuilder {
            system,
            shards: 1,
            recorder: None,
        }
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning a peer.
    pub fn shard_of(&self, peer: &PeerId) -> Result<usize> {
        self.assignment
            .get(peer)
            .copied()
            .ok_or_else(|| CoreError::UnknownPeer(peer.to_string()))
    }

    /// The full peer → shard assignment (deterministic for a given system
    /// and shard count).
    pub fn assignment(&self) -> &BTreeMap<PeerId, usize> {
        &self.assignment
    }

    /// Stop one worker, as a crash would: every later commit that reaches
    /// its shard fails with [`CoreError::Transport`]. Pins keep working,
    /// since they never reach a worker.
    pub fn shut_down_shard(&self, shard: usize) {
        // A worker that already died just leaves a closed channel.
        let _ = self.shards[shard].sender.send(Envelope::shutdown());
    }

    /// One send + receive against a shard, wrapped in a
    /// `transport.roundtrip` span. Channel failures (a dead worker) surface
    /// as [`CoreError::Transport`]; the worker's own error is returned as is.
    fn roundtrip(&self, shard: usize, request: ShardRequest) -> Result<()> {
        let span = Span::enter_with(
            self.recorder.as_ref(),
            "transport.roundtrip",
            &[Field::u64("shard", shard as u64)],
        );
        let result = self.roundtrip_inner(shard, request);
        span.finish();
        result
    }

    fn roundtrip_inner(&self, shard: usize, request: ShardRequest) -> Result<()> {
        let handle = &self.shards[shard];
        let (reply, response) = std::sync::mpsc::channel();
        handle
            .sender
            .send(Envelope { request, reply })
            .map_err(|_| CoreError::Transport {
                shard,
                source: "request channel disconnected (worker thread gone)".to_string(),
            })?;
        response.recv().map_err(|_| CoreError::Transport {
            shard,
            source: "reply channel disconnected before a response arrived".to_string(),
        })?
    }
}

impl PeerStore for ShardedStore {
    fn topology(&self) -> &P2PSystem {
        &self.topology
    }

    fn pin(&self) -> Result<Snapshot> {
        // Served from the coordinator's epoch mirror: no transport
        // round-trip, no waiting on an in-flight commit.
        self.mirror.pin()
    }

    fn apply_delta(&self, changes: &BTreeMap<PeerId, Delta>) -> Result<VersionMap> {
        let _commit = self.commit.lock().unwrap_or_else(|p| p.into_inner());
        // Validate the whole transaction before any shard sees a part of it.
        let mut parts: BTreeMap<usize, BTreeMap<PeerId, Delta>> = BTreeMap::new();
        for (peer, delta) in changes {
            self.topology.validate_delta(peer, delta)?;
            let part = parts.entry(self.shard_of(peer)?).or_default();
            part.insert(peer.clone(), delta.clone());
        }
        for (shard, part) in parts {
            self.roundtrip(shard, ShardRequest::ApplyDelta(part))?;
        }
        // Every touched shard acknowledged: publish the one epoch.
        self.mirror.apply_delta(changes)
    }

    fn mvcc_stats(&self) -> MvccStats {
        self.mirror.mvcc_stats()
    }

    fn symbols(&self) -> Arc<relalg::SymbolTable> {
        self.mirror.symbols()
    }
}

impl Drop for ShardedStore {
    fn drop(&mut self) {
        for shard in 0..self.shards.len() {
            self.shut_down_shard(shard);
        }
        for handle in &mut self.shards {
            if let Some(thread) = handle.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Assign every peer to a shard: closure-connected components (union-find
/// over undirected DEC edges), round-robin in order of each component's
/// smallest peer.
fn assign_components(system: &P2PSystem, shards: usize) -> BTreeMap<PeerId, usize> {
    let peers: Vec<PeerId> = system.peer_ids().cloned().collect();
    let index: BTreeMap<&PeerId, usize> = peers.iter().zip(0..).collect();
    let mut parent: Vec<usize> = (0..peers.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut walk = i;
        while parent[walk] != root {
            let next = parent[walk];
            parent[walk] = root;
            walk = next;
        }
        root
    }
    for dec in system.decs() {
        let (Some(&a), Some(&b)) = (index.get(&dec.owner), index.get(&dec.other)) else {
            continue;
        };
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        // Union towards the smaller root, keeping each component labelled
        // by its lexicographically smallest peer.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        parent[hi] = lo;
    }
    // Components in root order = order of their smallest member (peer ids
    // are sorted); round-robin them across the shards.
    let mut component_shard: BTreeMap<usize, usize> = BTreeMap::new();
    let mut assignment = BTreeMap::new();
    for (i, peer) in peers.iter().enumerate() {
        let root = find(&mut parent, i);
        let next = component_shard.len() % shards;
        let shard = *component_shard.entry(root).or_insert(next);
        assignment.insert(peer.clone(), shard);
    }
    assignment
}

/// The shard worker loop: owns the shard's write-only copy of the system
/// (topology replica + its peers' real instances), applies the transaction
/// parts it is sent in queue order, and acknowledges each.
fn shard_worker(mut state: P2PSystem, receiver: Receiver<Envelope>) {
    while let Ok(Envelope { request, reply }) = receiver.recv() {
        let response = match request {
            ShardRequest::ApplyDelta(part) => part
                .iter()
                .try_for_each(|(peer, delta)| state.apply_delta(peer, delta)),
            ShardRequest::Shutdown => break,
        };
        // A dropped reply receiver means the coordinator gave up on this
        // request; the worker keeps serving the queue.
        let _ = reply.send(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdes_core::example1_system;
    use relalg::database::GroundAtom;
    use relalg::{RelationSchema, Tuple};
    use std::collections::BTreeSet;

    /// `n` peers, no DECs: every peer is its own closure-connected
    /// component, so sharding has maximal freedom to spread them out.
    fn disjoint_system(n: usize) -> P2PSystem {
        let mut sys = P2PSystem::new();
        for i in 1..=n {
            let peer = PeerId::new(format!("P{i}"));
            sys.add_peer(peer.clone()).unwrap();
            sys.add_relation(&peer, RelationSchema::new(format!("R{i}"), &["x", "y"]))
                .unwrap();
            sys.insert(
                &peer,
                &format!("R{i}"),
                Tuple::strs([format!("a{i}"), format!("b{i}")]),
            )
            .unwrap();
        }
        sys
    }

    fn peer(name: &str) -> PeerId {
        PeerId::new(name)
    }

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
    fn closure_connected_components_share_a_shard() {
        // Example 1 is one connected component (P1—P2—P3 via DECs), so no
        // shard count may split it.
        let store = ShardedStore::builder(example1_system()).shards(4).build();
        let shards: BTreeSet<usize> = store.assignment().values().copied().collect();
        assert_eq!(shards.len(), 1, "one component must live on one shard");
    }

    #[test]
    fn disjoint_components_round_robin_across_shards() {
        let store = ShardedStore::builder(disjoint_system(4)).shards(2).build();
        assert_eq!(store.shard_count(), 2);
        assert_eq!(store.shard_of(&peer("P1")).unwrap(), 0);
        assert_eq!(store.shard_of(&peer("P2")).unwrap(), 1);
        assert_eq!(store.shard_of(&peer("P3")).unwrap(), 0);
        assert_eq!(store.shard_of(&peer("P4")).unwrap(), 1);
    }

    #[test]
    fn sharded_store_matches_in_process_store() {
        for shards in [1, 2, 4] {
            let oracle = InProcessStore::new(example1_system());
            let sharded = ShardedStore::builder(example1_system())
                .shards(shards)
                .build();
            assert_eq!(sharded.topology(), oracle.topology());
            let (a, b) = (sharded.pin().unwrap(), oracle.pin().unwrap());
            assert_eq!(a.epoch(), b.epoch());
            assert_eq!(a.versions(), b.versions());
            assert_eq!(a.system().unwrap(), b.system().unwrap());
        }
    }

    #[test]
    fn commits_stamp_versions_like_the_in_process_store() {
        for shards in [1, 3] {
            let oracle = InProcessStore::new(disjoint_system(3));
            let sharded = ShardedStore::builder(disjoint_system(3))
                .shards(shards)
                .build();
            let p1 = peer("P1");
            for store in [&sharded as &dyn PeerStore, &oracle] {
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
                assert_eq!(
                    store
                        .apply_delta(&one(&p1, insert("R1", ["c", "d"])))
                        .unwrap()[&p1],
                    3
                );
                // A failing delta leaves the stamp and the state alone.
                assert!(store
                    .apply_delta(&one(&p1, insert("NoSuch", ["c", "d"])))
                    .is_err());
                let pinned = store.pin().unwrap();
                assert_eq!(pinned.version_of(&p1).unwrap(), 3);
                assert_eq!(pinned.epoch(), 3);
            }
            let (a, b) = (sharded.pin().unwrap(), oracle.pin().unwrap());
            assert_eq!(a.versions(), b.versions());
            assert_eq!(a.system().unwrap(), b.system().unwrap());
        }
    }

    #[test]
    fn pinned_epochs_match_the_in_process_oracle() {
        for shards in [1, 2] {
            let oracle = InProcessStore::new(example1_system());
            let sharded = ShardedStore::builder(example1_system())
                .shards(shards)
                .build();
            let p1 = peer("P1");
            let pinned = sharded.pin().unwrap();
            for store in [&sharded as &dyn PeerStore, &oracle] {
                store
                    .apply_delta(&one(&p1, insert("R1", ["x", "y"])))
                    .unwrap();
                store
                    .apply_delta(&one(&p1, delete("R1", ["x", "y"])))
                    .unwrap();
            }
            // The pre-commit pin is stable; fresh pins agree bit-identically
            // with the oracle's epoch, stamps and materialized instances.
            assert_eq!(pinned.epoch(), 0);
            assert_eq!(pinned.system().unwrap(), example1_system());
            let (a, b) = (sharded.pin().unwrap(), oracle.pin().unwrap());
            assert_eq!(a.epoch(), b.epoch());
            assert_eq!(a.versions(), b.versions());
            assert_eq!(a.system().unwrap(), b.system().unwrap());
            assert_eq!(
                sharded.mvcc_stats().publishes,
                oracle.mvcc_stats().publishes
            );
        }
    }

    #[test]
    fn unknown_peers_fail_at_the_coordinator() {
        let store = ShardedStore::builder(example1_system()).shards(2).build();
        let ghost = peer("P9");
        let before = store.mvcc_stats();
        assert!(matches!(
            store.apply_delta(&one(&ghost, insert("R1", ["x", "y"]))),
            Err(CoreError::UnknownPeer(_))
        ));
        // Validation failures never reach the transport or the counters.
        assert_eq!(store.mvcc_stats(), before);
        assert!(store.pin().unwrap().version_of(&ghost).is_err());
    }

    #[test]
    fn dead_worker_surfaces_as_transport_error() {
        let store = ShardedStore::builder(example1_system()).shards(1).build();
        // Kill the worker out from under the coordinator.
        store.shut_down_shard(0);
        // The worker drains the shutdown and exits; whether our request is
        // enqueued before or after that, the round-trip must fail cleanly.
        let err = loop {
            match store.apply_delta(&one(&peer("P1"), insert("R1", ["x", "y"]))) {
                Ok(_) => continue,
                Err(err) => break err,
            }
        };
        match err {
            CoreError::Transport { shard, source } => {
                assert_eq!(shard, 0);
                assert!(source.contains("disconnected"), "source: {source}");
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_spans_reach_the_recorder() {
        let recorder = Arc::new(pdes_obs::TraceRecorder::new());
        let store = ShardedStore::builder(disjoint_system(4))
            .shards(2)
            .recorder(recorder.clone())
            .build();
        store.pin().unwrap();
        store
            .apply_delta(&one(&peer("P2"), insert("R2", ["x", "y"])))
            .unwrap();
        let trace = recorder.trace();
        assert_eq!(trace.spans_labelled("transport.roundtrip").len(), 1);
    }
}
