//! Incremental-commit equivalence: after any commit, answers served through
//! the engine's stale-artifact repair (delta-driven incremental
//! re-grounding, `datalog::incremental`) must be byte-identical to a fresh
//! engine built over the mutated system — for all four strategies, at pool
//! sizes 1/2/8, across insert-only, delete-only and mixed deltas — and
//! answers must stay correct under cache-eviction thrash (tiny
//! `cache_capacity`).

use p2p_data_exchange::{vars, Formula, PeerId, QueryEngine, Session, Strategy, Tuple, Update};
use relalg::database::GroundAtom;
use relalg::Delta;
use std::collections::{BTreeMap, BTreeSet};
use workload::generator::GeneratedWorkload;
use workload::{generate, Topology, TrustMix, WorkloadSpec};

const ALL_STRATEGIES: [Strategy; 4] = [
    Strategy::Naive,
    Strategy::Rewriting,
    Strategy::Asp,
    Strategy::TransitiveAsp,
];

const POOLS: [usize; 3] = [1, 2, 8];

/// The kinds of update deltas the equivalence is checked across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeltaKind {
    InsertOnly,
    DeleteOnly,
    Mixed,
}

fn star_workload() -> GeneratedWorkload {
    generate(&WorkloadSpec {
        peers: 3,
        tuples_per_relation: 4,
        violations_per_dec: 1,
        trust_mix: TrustMix::AllLess,
        topology: Topology::Star,
        ..WorkloadSpec::default()
    })
    .expect("valid workload spec")
}

/// Every peer's canonical `T<i>(X, Y)` query.
fn peer_queries(w: &GeneratedWorkload) -> Vec<(PeerId, Formula)> {
    w.system
        .peers()
        .map(|p| {
            let relation = p
                .schema
                .relation_names()
                .next()
                .expect("generated peers own one relation");
            (p.id.clone(), Formula::atom(relation, vec!["X", "Y"]))
        })
        .collect()
}

/// An existing tuple of a peer's relation (deterministic: the first in
/// iteration order).
fn existing_atom(w: &GeneratedWorkload, peer: &PeerId) -> GroundAtom {
    let data = w.system.peer(peer).expect("peer exists");
    let relation = data
        .schema
        .relation_names()
        .next()
        .expect("one relation per peer");
    let tuple = data
        .instance
        .relations()
        .find(|r| r.name() == relation)
        .and_then(|r| r.iter().next().cloned())
        .expect("generated relations are non-empty");
    GroundAtom::new(relation, tuple)
}

/// The update batch of one round: round-robins the mutated peer and the
/// delta shape so successive commits hit different slices.
fn round_updates(w: &GeneratedWorkload, kind: DeltaKind, round: usize) -> Vec<Update> {
    let peers: Vec<PeerId> = w.system.peer_ids().cloned().collect();
    let peer = peers[round % peers.len()].clone();
    let relation = w
        .system
        .peer(&peer)
        .expect("peer exists")
        .schema
        .relation_names()
        .next()
        .expect("one relation per peer")
        .to_string();
    let fresh = GroundAtom::new(
        relation,
        Tuple::strs([format!("inc_k_{round}").as_str(), "inc_v"]),
    );
    let delta = match kind {
        DeltaKind::InsertOnly => Delta::from_changes([fresh], []),
        DeltaKind::DeleteOnly => Delta::from_changes([], [existing_atom(w, &peer)]),
        DeltaKind::Mixed => Delta::from_changes([fresh], [existing_atom(w, &peer)]),
    };
    vec![Update::new(peer, delta)]
}

/// Answers of `engine` for every peer query, with unsupported combinations
/// recorded as `None` so both sides must fail alike.
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

#[test]
fn incremental_after_commit_matches_a_fresh_engine() {
    let w = star_workload();
    let queries = peer_queries(&w);
    for kind in [
        DeltaKind::InsertOnly,
        DeltaKind::DeleteOnly,
        DeltaKind::Mixed,
    ] {
        for workers in POOLS {
            for strategy in ALL_STRATEGIES {
                let session = Session::with_engine(
                    QueryEngine::builder(w.system.clone())
                        .strategy(strategy)
                        .workers(workers)
                        .build(),
                );
                // Warm every peer's artifact before the commits.
                let _ = all_answers(session.engine(), strategy, &queries);
                let mut writer = session.writer().expect("writer claim");
                for round in 0..2 {
                    let _ = writer
                        .apply(&round_updates(&w, kind, round))
                        .expect("commit applies");
                    let live = all_answers(session.engine(), strategy, &queries);
                    let fresh_engine = QueryEngine::builder(session.current_system().unwrap())
                        .strategy(strategy)
                        .workers(workers)
                        .build();
                    let fresh = all_answers(&fresh_engine, strategy, &queries);
                    assert_eq!(
                        live, fresh,
                        "{kind:?} round {round}: {strategy:?} workers={workers} \
                         diverged from a fresh engine"
                    );
                }
            }
        }
    }
}

#[test]
fn repeated_commits_keep_patching_the_same_slice() {
    // Many consecutive commits against one peer: every repair must still
    // agree with a fresh engine, and the engine must actually be patching
    // (not silently falling back to full re-grounds).
    let w = star_workload();
    let queries = peer_queries(&w);
    let session = Session::with_engine(
        QueryEngine::builder(w.system.clone())
            .strategy(Strategy::Asp)
            .build(),
    );
    let _ = all_answers(session.engine(), Strategy::Asp, &queries);
    let mut writer = session.writer().expect("writer claim");
    for round in 0..4 {
        let _ = writer
            .apply(&round_updates(&w, DeltaKind::InsertOnly, round))
            .expect("commit applies");
        let live = all_answers(session.engine(), Strategy::Asp, &queries);
        let fresh_engine = QueryEngine::builder(session.current_system().unwrap())
            .strategy(Strategy::Asp)
            .build();
        assert_eq!(live, all_answers(&fresh_engine, Strategy::Asp, &queries));
    }
    let metrics = session.metrics();
    assert!(
        metrics.patched >= 4,
        "expected at least one patch per commit, got {}",
        metrics.patched
    );
}

#[test]
fn disabling_incremental_reground_still_matches_fresh_answers() {
    // The drop-and-re-ground path that remains: a commit patches the
    // warm slices, `invalidate_peers` then drops them, and the re-answer
    // grounds every slice from scratch. It must agree with both the
    // patched answers and a fresh engine.
    let w = star_workload();
    let queries = peer_queries(&w);
    let session = Session::with_engine(
        QueryEngine::builder(w.system.clone())
            .strategy(Strategy::Asp)
            .build(),
    );
    let _ = all_answers(session.engine(), Strategy::Asp, &queries);
    let updates = round_updates(&w, DeltaKind::Mixed, 0);
    let _ = session
        .writer()
        .expect("writer claim")
        .apply(&updates)
        .expect("commit applies");
    let patched = all_answers(session.engine(), Strategy::Asp, &queries);
    assert!(session.metrics().patched > 0, "the commit patched no slice");
    let touched = updates.iter().map(|u| u.peer.clone());
    assert!(session.engine().invalidate_peers(touched) > 0);
    let regrounded = all_answers(session.engine(), Strategy::Asp, &queries);
    assert_eq!(regrounded, patched);
    let fresh_engine = QueryEngine::builder(session.current_system().unwrap())
        .strategy(Strategy::Asp)
        .build();
    assert_eq!(
        regrounded,
        all_answers(&fresh_engine, Strategy::Asp, &queries)
    );
}

#[test]
fn eviction_pressure_keeps_answers_correct() {
    // A deliberately tiny byte budget forces constant eviction; every
    // answer must still match an unbounded engine, before and after a
    // commit, and evictions must actually have happened.
    let w = star_workload();
    let queries = peer_queries(&w);
    let bounded = QueryEngine::builder(w.system.clone())
        .strategy(Strategy::Asp)
        .cache_capacity(6_000)
        .build();
    let unbounded = QueryEngine::builder(w.system.clone())
        .strategy(Strategy::Asp)
        .build();
    for _ in 0..3 {
        assert_eq!(
            all_answers(&bounded, Strategy::Asp, &queries),
            all_answers(&unbounded, Strategy::Asp, &queries),
            "thrashing cache changed answers"
        );
    }
    // Mutate through both engines and keep comparing.
    let update = &round_updates(&w, DeltaKind::InsertOnly, 0)[0];
    bounded
        .commit(&BTreeMap::from([(
            update.peer.clone(),
            update.delta.clone(),
        )]))
        .unwrap();
    unbounded
        .commit(&BTreeMap::from([(
            update.peer.clone(),
            update.delta.clone(),
        )]))
        .unwrap();
    for _ in 0..2 {
        assert_eq!(
            all_answers(&bounded, Strategy::Asp, &queries),
            all_answers(&unbounded, Strategy::Asp, &queries),
            "thrashing cache changed answers after a commit"
        );
    }
    assert!(
        bounded.metrics().evictions > 0,
        "the tiny budget must evict"
    );
    assert_eq!(unbounded.metrics().evictions, 0);
}

#[test]
fn typed_values_inserted_by_a_commit_stay_typed_on_the_repair_path() {
    // A commit that inserts values the engine has never seen must decode
    // them to their typed `Value`s when the committing thread repairs the
    // warm slice, and the repaired slice must keep that mapping for the
    // next commit's repair: answers equal a fresh engine's after each.
    let p1 = PeerId::new("P1");
    let p2 = PeerId::new("P2");
    let query = Formula::atom("R1", vec!["X", "Y"]);
    let fv = vars(&["X", "Y"]);
    for strategy in [Strategy::Asp, Strategy::TransitiveAsp] {
        let engine = QueryEngine::builder(p2p_data_exchange::example1_system())
            .strategy(strategy)
            .build();
        let _ = engine.answer(&p1, &query, &fv).expect("warm answer");
        for (round, (x, y)) in [(7, 8), (9, 10)].into_iter().enumerate() {
            let inserted = GroundAtom::new("R2", Tuple::ints([x, y]));
            engine
                .commit(&BTreeMap::from([(
                    p2.clone(),
                    Delta::from_changes([inserted], []),
                )]))
                .expect("commit applies");
            let live = engine.answer(&p1, &query, &fv).expect("live answer");
            assert!(live.stats.cache_hit, "the commit must repair the slice");
            assert!(
                live.tuples.contains(&Tuple::ints([x, y])),
                "{strategy:?} round {round}: ({x}, {y}) decoded untyped: {:?}",
                live.tuples
            );
            let fresh = QueryEngine::builder(engine.snapshot_system().unwrap())
                .strategy(strategy)
                .build();
            assert_eq!(
                live.tuples,
                fresh.answer(&p1, &query, &fv).expect("fresh answer").tuples,
                "{strategy:?} round {round}: repaired answers diverged from a fresh engine"
            );
        }
    }
}
