//! Sharded-serving equivalence: an engine answering through a
//! [`ShardedStore`] must be byte-identical to an engine over the in-process
//! single-store oracle — for all four strategies, at shard counts 1/2/4,
//! across live commits — and engine reads must pin the coordinator's epoch
//! mirror without crossing the transport. A transaction spanning two
//! shards publishes one epoch like the oracle, and a dead shard fails it
//! without publishing anything.
//!
//! The CI shard matrix narrows the shard grid through `PDES_SHARDS` (a
//! comma-separated list), so one matrix leg exercises one cell without
//! rebuilding the suite.

use p2p_data_exchange::core::CoreError;
use p2p_data_exchange::session::SessionError;
use p2p_data_exchange::{
    vars, Formula, InProcessStore, P2PSystem, PeerId, PeerStore, QueryEngine, Session,
    ShardedStore, Strategy, TraceRecorder, Tuple, Update,
};
use relalg::database::GroundAtom;
use relalg::{Delta, RelationSchema};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use workload::generator::GeneratedWorkload;
use workload::{generate, Topology, TrustMix, WorkloadSpec};

const ALL_STRATEGIES: [Strategy; 4] = [
    Strategy::Naive,
    Strategy::Rewriting,
    Strategy::Asp,
    Strategy::TransitiveAsp,
];

/// Shard counts exercised by default; `PDES_SHARDS=2` narrows to one.
fn shard_counts() -> Vec<usize> {
    match std::env::var("PDES_SHARDS") {
        Ok(list) => list
            .split(',')
            .map(|n| n.trim().parse().expect("matrix entries are integers"))
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

/// A star workload (one closure-connected component) plus two isolated
/// peers (components of their own), so shard counts above 1 actually
/// spread peers and closure-spanning queries stay single-shard.
fn sharded_workload() -> GeneratedWorkload {
    let mut w = generate(&WorkloadSpec {
        peers: 3,
        tuples_per_relation: 4,
        violations_per_dec: 1,
        trust_mix: TrustMix::AllLess,
        topology: Topology::Star,
        ..WorkloadSpec::default()
    })
    .expect("valid workload spec");
    for i in 1..=2 {
        let peer = PeerId::new(format!("Q{i}"));
        w.system.add_peer(peer.clone()).expect("fresh peer");
        w.system
            .add_relation(&peer, RelationSchema::new(format!("S{i}"), &["x", "y"]))
            .expect("fresh relation");
        w.system
            .insert(
                &peer,
                &format!("S{i}"),
                Tuple::strs([format!("q{i}"), "v".to_string()]),
            )
            .expect("tuple fits");
    }
    w
}

/// Every peer's canonical `R(X, Y)` query over its first relation.
fn peer_queries(system: &P2PSystem) -> Vec<(PeerId, Formula)> {
    system
        .peers()
        .map(|p| {
            let relation = p
                .schema
                .relation_names()
                .next()
                .expect("every peer owns one relation");
            (p.id.clone(), Formula::atom(relation, vec!["X", "Y"]))
        })
        .collect()
}

/// Answers for every peer query, with unsupported combinations recorded as
/// `None` so both sides must fail alike.
fn all_answers(
    engine: &QueryEngine,
    strategy: Strategy,
    queries: &[(PeerId, Formula)],
) -> Vec<Option<BTreeSet<Tuple>>> {
    let fv = vars(&["X", "Y"]);
    queries
        .iter()
        .map(|(peer, query)| {
            engine
                .answer_with(strategy, peer, query, &fv)
                .ok()
                .map(|a| a.tuples)
        })
        .collect()
}

/// An engine whose store is a `ShardedStore` over `system`.
fn sharded_engine(
    system: &P2PSystem,
    strategy: Strategy,
    shards: usize,
) -> (QueryEngine, Arc<ShardedStore>) {
    let store = Arc::new(ShardedStore::builder(system.clone()).shards(shards).build());
    let engine = QueryEngine::builder(system.clone())
        .store(store.clone() as Arc<dyn PeerStore>)
        .strategy(strategy)
        .build();
    (engine, store)
}

/// The delta committed in round `round`: an insert into a round-robined
/// peer (star peers and isolated peers both get mutated).
fn round_update(system: &P2PSystem, round: usize) -> (PeerId, Delta) {
    let peers: Vec<PeerId> = system.peer_ids().cloned().collect();
    let peer = peers[round % peers.len()].clone();
    let delta = tagged_insert(system, &peer, round);
    (peer, delta)
}

/// An insert of a `round`-tagged tuple into `peer`'s first relation.
fn tagged_insert(system: &P2PSystem, peer: &PeerId, round: usize) -> Delta {
    let relation = system
        .peer(peer)
        .expect("peer exists")
        .schema
        .relation_names()
        .next()
        .expect("one relation per peer")
        .to_string();
    let atom = GroundAtom::new(
        relation,
        Tuple::strs([format!("shard_k_{round}").as_str(), "shard_v"]),
    );
    Delta::from_changes([atom], [])
}

/// A transaction into a star peer and the isolated peer `Q1`, which live
/// on different shards whenever there are two or more.
fn spanning_tx(store: &ShardedStore, system: &P2PSystem, round: usize) -> BTreeMap<PeerId, Delta> {
    let (star, q1) = (PeerId::new("P0"), PeerId::new("Q1"));
    if store.shard_count() > 1 {
        assert_ne!(store.shard_of(&star).unwrap(), store.shard_of(&q1).unwrap());
    }
    [star, q1]
        .into_iter()
        .map(|peer| {
            let delta = tagged_insert(system, &peer, round);
            (peer, delta)
        })
        .collect()
}

#[test]
fn sharded_answers_match_the_single_store_oracle() {
    let w = sharded_workload();
    let queries = peer_queries(&w.system);
    for shards in shard_counts() {
        for strategy in ALL_STRATEGIES {
            let oracle = QueryEngine::builder(w.system.clone())
                .strategy(strategy)
                .build();
            let (sharded, _store) = sharded_engine(&w.system, strategy, shards);
            assert_eq!(
                all_answers(&sharded, strategy, &queries),
                all_answers(&oracle, strategy, &queries),
                "{strategy:?} diverged from the oracle at shards={shards}"
            );
        }
    }
}

#[test]
fn sharded_answers_match_the_oracle_across_live_commits() {
    let w = sharded_workload();
    let queries = peer_queries(&w.system);
    for shards in shard_counts() {
        for strategy in ALL_STRATEGIES {
            let oracle = QueryEngine::builder(w.system.clone())
                .strategy(strategy)
                .build();
            let (sharded, _store) = sharded_engine(&w.system, strategy, shards);
            // Warm both engines, then interleave commits and reads.
            let _ = all_answers(&sharded, strategy, &queries);
            let _ = all_answers(&oracle, strategy, &queries);
            for round in 0..5 {
                let (peer, delta) = round_update(&w.system, round);
                let sharded_stamp = sharded
                    .commit(&BTreeMap::from([(peer.clone(), delta.clone())]))
                    .expect("commit")
                    .0;
                let oracle_stamp = oracle
                    .commit(&BTreeMap::from([(peer.clone(), delta.clone())]))
                    .expect("commit")
                    .0;
                assert_eq!(
                    sharded_stamp, oracle_stamp,
                    "version stamps diverged at round {round}"
                );
                assert_eq!(
                    all_answers(&sharded, strategy, &queries),
                    all_answers(&oracle, strategy, &queries),
                    "{strategy:?} diverged after commit {round} at shards={shards}"
                );
            }
        }
    }
}

/// Answer every peer query through a `shards`-shard store and check that
/// the reads pinned the coordinator's epoch mirror and that none crossed
/// the transport to a worker shard.
fn assert_reads_pin_the_mirror_only(shards: usize) {
    let w = sharded_workload();
    let queries = peer_queries(&w.system);
    let recorder = Arc::new(TraceRecorder::new());
    let store = Arc::new(
        ShardedStore::builder(w.system.clone())
            .shards(shards)
            .recorder(recorder.clone())
            .build(),
    );
    let engine = QueryEngine::builder(w.system.clone())
        .store(store.clone() as Arc<dyn PeerStore>)
        .strategy(Strategy::Asp)
        .build();
    let _ = all_answers(&engine, Strategy::Asp, &queries);
    assert!(store.mvcc_stats().pins > 0, "serving must reach the store");
    let roundtrips = recorder.trace().spans_labelled("transport.roundtrip").len();
    assert_eq!(roundtrips, 0, "a read crossed the transport");
}

#[test]
fn single_shard_serving_is_never_remote() {
    assert_reads_pin_the_mirror_only(1);
}

#[test]
fn closure_local_queries_stay_on_their_shard() {
    // Engine reads pin an epoch from the coordinator's mirror and never
    // reach a worker shard, also when peers spread over two shards.
    assert_reads_pin_the_mirror_only(2);
}

#[test]
fn sharded_epoch_publication_matches_the_single_store_oracle() {
    // The acceptance bar for the MVCC redesign: the epochs a `ShardedStore`
    // publishes (through its coordinator mirror) are bit-identical to the
    // epochs an `InProcessStore` oracle publishes for the same commit
    // sequence — same epoch numbers, same version stamps, same hydrated
    // instances — and pins taken before the commits stay frozen on both
    // sides.
    let w = sharded_workload();
    for shards in shard_counts() {
        let oracle = InProcessStore::new(w.system.clone());
        let store = ShardedStore::builder(w.system.clone())
            .shards(shards)
            .build();
        let pinned_oracle = oracle.pin().expect("oracle pin");
        let pinned_sharded = store.pin().expect("sharded pin");
        assert_eq!(pinned_sharded.epoch(), pinned_oracle.epoch());
        for round in 0..6 {
            let (peer, delta) = round_update(&w.system, round);
            let sharded_stamp = store
                .apply_delta(&BTreeMap::from([(peer.clone(), delta.clone())]))
                .expect("sharded commit");
            let oracle_stamp = oracle
                .apply_delta(&BTreeMap::from([(peer.clone(), delta.clone())]))
                .expect("oracle commit");
            assert_eq!(
                sharded_stamp, oracle_stamp,
                "version stamps diverged at round {round} (shards={shards})"
            );
            let sharded_pin = store.pin().expect("sharded pin");
            let oracle_pin = oracle.pin().expect("oracle pin");
            assert_eq!(
                sharded_pin.epoch(),
                oracle_pin.epoch(),
                "epoch numbers diverged at round {round} (shards={shards})"
            );
            assert_eq!(
                sharded_pin.versions(),
                oracle_pin.versions(),
                "version maps diverged at round {round} (shards={shards})"
            );
            assert_eq!(
                sharded_pin.system().expect("hydrate sharded"),
                oracle_pin.system().expect("hydrate oracle"),
                "hydrated epochs diverged at round {round} (shards={shards})"
            );
        }
        assert_eq!(
            store.mvcc_stats().publishes,
            oracle.mvcc_stats().publishes,
            "publish counts diverged (shards={shards})"
        );
        // The pre-commit pins were isolated from all six commits.
        assert_eq!(pinned_sharded.versions(), pinned_oracle.versions());
        assert_eq!(
            pinned_sharded.system().expect("hydrate sharded pin"),
            pinned_oracle.system().expect("hydrate oracle pin")
        );
        assert_eq!(pinned_sharded.system().expect("hydrate"), w.system);
    }
}

#[test]
fn oracle_and_sharded_store_agree_directly() {
    // Below the engine: one-atom insert-then-delete commits agree between
    // the oracle and every shard count — stamps, epochs and pinned systems
    // (the engine-level tests could in principle mask a store bug the cache
    // papers over). The deletions exercise the workers' deletion path.
    let w = sharded_workload();
    for shards in shard_counts() {
        let oracle = InProcessStore::new(w.system.clone());
        let store = ShardedStore::builder(w.system.clone())
            .shards(shards)
            .build();
        for round in 0..4 {
            let (peer, insert) = round_update(&w.system, round);
            let delete = Delta::from_changes([], insert.insertions.iter().cloned());
            for delta in [insert, delete] {
                assert_eq!(
                    store
                        .apply_delta(&BTreeMap::from([(peer.clone(), delta.clone())]))
                        .expect("sharded commit"),
                    oracle
                        .apply_delta(&BTreeMap::from([(peer.clone(), delta.clone())]))
                        .expect("oracle commit"),
                    "version stamps diverged at round {round} (shards={shards})"
                );
                let (sharded_pin, oracle_pin) = (
                    store.pin().expect("sharded pin"),
                    oracle.pin().expect("oracle pin"),
                );
                assert_eq!(sharded_pin.epoch(), oracle_pin.epoch());
                assert_eq!(sharded_pin.versions(), oracle_pin.versions());
                assert_eq!(
                    sharded_pin.system().expect("hydrate sharded"),
                    oracle_pin.system().expect("hydrate oracle"),
                    "pinned systems diverged at round {round} (shards={shards})"
                );
            }
        }
        // Every insertion was deleted again.
        assert_eq!(
            store.pin().expect("pin").system().expect("hydrate"),
            w.system
        );
    }
}

#[test]
fn a_transaction_spanning_two_shards_matches_the_oracle_epoch_for_epoch() {
    // Each transaction touches two shards and still publishes one epoch,
    // with the stamps, epochs and instances of an `InProcessStore` oracle.
    let w = sharded_workload();
    for shards in shard_counts() {
        let oracle = InProcessStore::new(w.system.clone());
        let store = ShardedStore::builder(w.system.clone())
            .shards(shards)
            .build();
        for round in 0..4 {
            let tx = spanning_tx(&store, &w.system, round);
            assert_eq!(
                store.apply_delta(&tx).expect("sharded commit"),
                oracle.apply_delta(&tx).expect("oracle commit"),
                "version stamps diverged at round {round} (shards={shards})"
            );
            let (sharded_pin, oracle_pin) = (
                store.pin().expect("sharded pin"),
                oracle.pin().expect("oracle pin"),
            );
            assert_eq!(sharded_pin.epoch(), round as u64 + 1);
            assert_eq!(sharded_pin.epoch(), oracle_pin.epoch());
            assert_eq!(sharded_pin.versions(), oracle_pin.versions());
            assert_eq!(
                sharded_pin.system().expect("hydrate sharded"),
                oracle_pin.system().expect("hydrate oracle"),
                "pinned systems diverged at round {round} (shards={shards})"
            );
        }
        assert_eq!(store.mvcc_stats().publishes, oracle.mvcc_stats().publishes);
    }
}

#[test]
fn a_dead_shard_fails_a_spanning_transaction_and_changes_nothing() {
    // With the worker owning `Q1` shut down, a session transaction into a
    // star peer and `Q1` fails with a transport error, also after the
    // star peer's shard has acknowledged its part: no epoch is published,
    // no stamp moves and the session logs nothing.
    let w = sharded_workload();
    for shards in shard_counts() {
        let store = Arc::new(
            ShardedStore::builder(w.system.clone())
                .shards(shards)
                .build(),
        );
        let session = Session::with_engine(
            QueryEngine::builder(w.system.clone())
                .store(store.clone() as Arc<dyn PeerStore>)
                .strategy(Strategy::Asp)
                .build(),
        );
        let mut writer = session.writer().expect("writer");
        let _ = writer
            .apply(&updates(spanning_tx(&store, &w.system, 0)))
            .expect("live commit");
        let before = (
            session.pin().expect("pin"),
            session.versions(),
            session.log(),
        );
        store.shut_down_shard(store.shard_of(&PeerId::new("Q1")).unwrap());

        let err = writer
            .apply(&updates(spanning_tx(&store, &w.system, 1)))
            .expect_err("a dead shard fails the commit");
        assert!(
            matches!(err, SessionError::Core(CoreError::Transport { .. })),
            "expected a transport error, got {err:?} (shards={shards})"
        );
        let pinned = session.pin().expect("pin");
        assert_eq!(pinned.epoch(), before.0.epoch(), "shards={shards}");
        assert_eq!(pinned.versions(), before.0.versions(), "shards={shards}");
        assert_eq!(pinned.system().unwrap(), before.0.system().unwrap());
        assert_eq!(session.versions(), before.1, "shards={shards}");
        assert_eq!(session.log(), before.2, "shards={shards}");
        assert_eq!(store.mvcc_stats().publishes, 1, "shards={shards}");
    }
}

/// A transaction as the session's update batch.
fn updates(tx: BTreeMap<PeerId, Delta>) -> Vec<Update> {
    tx.into_iter()
        .map(|(peer, delta)| Update::new(peer, delta))
        .collect()
}
