//! Live-session integration tests:
//!
//! * the ISSUE acceptance criterion — after a commit touching peer `P`, a
//!   repeat query on a peer outside `P`'s relevant-peer closure is served
//!   from the memoized artifacts (observable via `EngineStats.cache_hit`),
//!   while a query inside the closure is repaired on the committing thread
//!   and agrees with a fresh engine built on the mutated snapshot;
//! * equivalence under mutation — after N random committed update batches,
//!   every strategy's answers equal those of a fresh engine built on the
//!   final snapshot (live invalidation never changes semantics, only work);
//! * one transaction, one commit — a transaction into two peers publishes
//!   one epoch and repairs each warm artifact once.

use p2p_data_exchange::{
    example1_system, Formula, PeerId, Query, QueryEngine, Session, Strategy, Tuple, Update, Version,
};
use proptest::prelude::*;
use workload::{generate, generate_updates, TrustMix, UpdateSpec, WorkloadSpec};

#[test]
fn commits_invalidate_the_closure_and_nothing_else() {
    let engine = QueryEngine::builder(example1_system())
        .strategy(Strategy::Asp)
        .build();
    let session = Session::with_engine(engine);
    let p2 = PeerId::new("P2");
    let q1 = Query::named("P1", Formula::atom("R1", vec!["X", "Y"]), &["X", "Y"]);
    let q3 = Query::named("P3", Formula::atom("R3", vec!["X", "Y"]), &["X", "Y"]);

    // Warm the artifacts of P1 (closure {P1, P2, P3}) and P3 (closure {P3}).
    let cold1 = session.query(&q1).unwrap();
    let cold3 = session.query(&q3).unwrap();
    assert!(!cold1.stats.cache_hit && !cold3.stats.cache_hit);
    let warm3 = session.query(&q3).unwrap();
    assert!(warm3.stats.cache_hit);

    // Commit a change to P2. P3 is outside P2's relevant-peer closure.
    let mut writer = session.writer().unwrap();
    let mut tx = writer.begin();
    tx.insert(&p2, "R2", Tuple::strs(["x", "y"])).unwrap();
    tx.delete(&p2, "R2", &Tuple::strs(["c", "d"])).unwrap();
    let receipt = tx.commit().unwrap();
    assert_eq!(receipt.versions[&p2], Version(1));

    // Outside the closure: still served from the cache, same answers.
    let still_warm = session.query(&q3).unwrap();
    assert!(still_warm.stats.cache_hit, "P3 must stay warm");
    assert_eq!(still_warm.tuples, cold3.tuples);

    // Inside the closure: the artifact was repaired on the committing
    // thread, so the next read is warm AND identical to a fresh engine
    // over the mutated snapshot.
    let repaired = session.query(&q1).unwrap();
    assert!(repaired.stats.cache_hit, "P1 must be repaired on commit");
    let fresh = QueryEngine::builder(session.current_system().unwrap())
        .strategy(Strategy::Asp)
        .build();
    let reference = fresh.answer(&q1.peer, &q1.query, &q1.free_vars).unwrap();
    assert_eq!(repaired.tuples, reference.tuples);
    assert!(repaired.contains(&Tuple::strs(["x", "y"])));
    assert!(!repaired.contains(&Tuple::strs(["c", "d"])));

    // And the cumulative metrics saw the invalidation and the repair.
    let metrics = session.metrics();
    assert!(metrics.commits == 1 && metrics.invalidated >= 1);
    assert!(metrics.patched >= 1, "commit-thread repair must be counted");
}

/// One transaction into two peers of Example 1 is one commit at every
/// layer: the store publishes one epoch, whose number is the receipt's
/// sequence number and the epoch `snapshot_at` replays to, and the warm
/// ASP entry of P1 — whose closure holds both peers — is staled once and
/// repaired once.
#[test]
fn a_two_peer_transaction_publishes_one_epoch_and_repairs_once() {
    let session = Session::with_strategy(example1_system(), Strategy::Asp);
    let (p2, p3) = (PeerId::new("P2"), PeerId::new("P3"));
    let q1 = Query::named("P1", Formula::atom("R1", vec!["X", "Y"]), &["X", "Y"]);
    let _ = session.query(&q1).unwrap();
    let (mvcc, metrics) = (session.mvcc_stats(), session.metrics());

    let mut writer = session.writer().unwrap();
    let mut tx = writer.begin();
    tx.insert(&p2, "R2", Tuple::strs(["x", "y"])).unwrap();
    tx.insert(&p3, "R3", Tuple::strs(["c", "z"])).unwrap();
    let receipt = tx.commit().unwrap();

    assert_eq!(session.mvcc_stats().publishes, mvcc.publishes + 1);
    let pinned = session.pin().unwrap();
    let replayed = session.snapshot_at(receipt.seq).unwrap();
    assert_eq!(pinned.epoch(), receipt.seq);
    assert_eq!(replayed.epoch(), receipt.seq);
    assert_eq!(replayed.system().unwrap(), pinned.system().unwrap());
    let after = session.metrics();
    assert_eq!(after.commits, metrics.commits + 1);
    assert_eq!(after.patched, metrics.patched + 1);
    assert_eq!(receipt.invalidated, 1);
    assert_eq!(session.version_of(&p2), Version(1));
    assert_eq!(session.version_of(&p3), Version(1));
    assert!(session.query(&q1).unwrap().stats.cache_hit);
}

#[test]
fn rewriting_queries_survive_commits_via_incremental_global_maintenance() {
    let engine = QueryEngine::builder(example1_system())
        .strategy(Strategy::Rewriting)
        .build();
    let session = Session::with_engine(engine);
    let p2 = PeerId::new("P2");
    let q1 = Query::named("P1", Formula::atom("R1", vec!["X", "Y"]), &["X", "Y"]);
    let _ = session.query(&q1).unwrap();
    let mut writer = session.writer().unwrap();
    let mut tx = writer.begin();
    tx.insert(&p2, "R2", Tuple::strs(["x", "y"])).unwrap();
    let _ = tx.commit().unwrap();
    // The materialized global instance is maintained in place: warm AND
    // already reflecting the commit.
    let warm = session.query(&q1).unwrap();
    assert!(warm.stats.cache_hit);
    assert!(warm.contains(&Tuple::strs(["x", "y"])));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// After N random committed update batches, each strategy's live answers
    /// equal a fresh engine's answers on the final snapshot — for the
    /// queried peer (inside every mutation's closure) and the hot peer
    /// (whose artifacts the mutations repeatedly invalidate).
    #[test]
    fn live_answers_equal_fresh_engine_on_final_snapshot(
        seed in 0u64..20,
        batches in 1usize..4,
        insert_percent in 0u8..101,
    ) {
        let w = generate(&WorkloadSpec {
            peers: 2,
            tuples_per_relation: 4,
            violations_per_dec: 1,
            trust_mix: TrustMix::AllLess,
            seed,
            ..WorkloadSpec::default()
        }).unwrap();
        let stream = generate_updates(&w, &UpdateSpec {
            batches,
            batch_size: 1,
            insert_percent,
            hot_peer_percent: 100,
            seed,
        }).unwrap();

        let session = Session::new(w.system.clone());
        let mut writer = session.writer().unwrap();
        for batch in &stream {
            let receipt = writer
                .apply(&[Update::new(batch.peer.clone(), batch.delta.clone())])
                .unwrap();
            prop_assert!(!receipt.touched.is_empty());
        }
        prop_assert_eq!(session.current_seq(), stream.len() as u64);

        // Replaying the log reproduces the live system.
        let replayed = session.snapshot_at(session.current_seq()).unwrap();
        prop_assert_eq!(replayed.epoch(), session.current_seq());
        let replayed_system = replayed.system().unwrap();
        prop_assert_eq!(&replayed_system, &session.current_system().unwrap());

        let fresh = QueryEngine::new(replayed_system);
        let live_q = Query::new(w.queried_peer.clone(), w.query.clone(), w.free_vars.clone());
        let hot_q = Query::named("P1", Formula::atom("T1", vec!["X", "Y"]), &["X", "Y"]);
        for strategy in [
            Strategy::Naive,
            Strategy::Rewriting,
            Strategy::Asp,
            Strategy::TransitiveAsp,
        ] {
            let live = session.query_with(strategy, &live_q).unwrap();
            let reference = fresh
                .answer_with(strategy, &w.queried_peer, &w.query, &w.free_vars)
                .unwrap();
            prop_assert_eq!(&live.tuples, &reference.tuples, "strategy {:?}", strategy);
            // The mutated (hot) peer itself.
            let live_hot = session.query_with(strategy, &hot_q).unwrap();
            let reference_hot = fresh
                .answer_with(strategy, &hot_q.peer, &hot_q.query, &hot_q.free_vars)
                .unwrap();
            prop_assert_eq!(&live_hot.tuples, &reference_hot.tuples, "strategy {:?}", strategy);
        }
    }
}
