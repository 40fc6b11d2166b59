//! Cross-strategy consistency: on workloads inside the fragment every
//! mechanism supports, the engine's strategies — the semantic reference
//! (naive solution enumeration), the first-order rewriting and the ASP
//! specification — must return identical answer sets.

use p2p_data_exchange::analysis::{classify_rewritability, RewriteVerdict};
use p2p_data_exchange::constraints::builders::{full_inclusion, key_agreement};
use p2p_data_exchange::core::CoreError;
use p2p_data_exchange::relalg::database::GroundAtom;
use p2p_data_exchange::relalg::{Delta, RelationSchema};
use p2p_data_exchange::{
    example1_system, vars, Formula, P2PSystem, PeerId, QueryEngine, Strategy, StrategyKind,
    TrustLevel, Tuple,
};
use std::collections::{BTreeMap, BTreeSet};
use workload::{generate, Topology, TrustMix, WorkloadSpec};

/// Answer one workload's canonical query under every applicable strategy on
/// a single shared engine and assert the answer sets coincide. Also
/// cross-checks that the static analyzer's rewritability verdict is the
/// engine's `Strategy::Auto` decision on this workload.
fn check_agreement(spec: &WorkloadSpec, include_rewriting: bool) {
    let w = generate(spec).expect("valid workload spec");
    let rewritable = matches!(
        classify_rewritability(&w.system, &w.queried_peer).unwrap(),
        RewriteVerdict::Rewritable
    );
    let engine = QueryEngine::new(w.system);
    let resolved = engine.resolve(Strategy::Auto, &w.queried_peer, &w.query);
    assert_eq!(
        resolved,
        if rewritable {
            StrategyKind::Rewriting
        } else {
            StrategyKind::Asp
        },
        "analyzer verdict and Auto resolution disagree on {spec}"
    );
    let naive = engine
        .answer_with(Strategy::Naive, &w.queried_peer, &w.query, &w.free_vars)
        .unwrap();
    let asp = engine
        .answer_with(Strategy::Asp, &w.queried_peer, &w.query, &w.free_vars)
        .unwrap();
    assert_eq!(naive.tuples, asp.tuples, "spec: {spec}");
    if include_rewriting {
        let rewriting = engine
            .answer_with(Strategy::Rewriting, &w.queried_peer, &w.query, &w.free_vars)
            .unwrap();
        assert_eq!(naive.tuples, rewriting.tuples, "spec: {spec}");
    }
}

#[test]
fn strategies_agree_on_example1() {
    let engine = QueryEngine::new(example1_system());
    let p1 = PeerId::new("P1");
    for (query, fv) in [
        (Formula::atom("R1", vec!["X", "Y"]), vars(&["X", "Y"])),
        (
            Formula::exists(vec!["Y"], Formula::atom("R1", vec!["X", "Y"])),
            vars(&["X"]),
        ),
    ] {
        let mut answer_sets = Vec::new();
        for strategy in [Strategy::Naive, Strategy::Rewriting, Strategy::Asp] {
            answer_sets.push(
                engine
                    .answer_with(strategy, &p1, &query, &fv)
                    .unwrap()
                    .tuples,
            );
        }
        assert!(
            answer_sets.windows(2).all(|w| w[0] == w[1]),
            "strategies disagree on {query}"
        );
    }
}

#[test]
fn inclusion_workloads_agree_across_strategies() {
    for seed in [1, 2, 3] {
        for tuples in [4, 8, 12] {
            let spec = WorkloadSpec {
                peers: 2,
                tuples_per_relation: tuples,
                violations_per_dec: 2,
                trust_mix: TrustMix::AllLess,
                seed,
                ..WorkloadSpec::default()
            };
            check_agreement(&spec, true);
        }
    }
}

#[test]
fn key_conflict_workloads_agree_across_strategies() {
    for seed in [1, 5] {
        let spec = WorkloadSpec {
            peers: 2,
            tuples_per_relation: 6,
            violations_per_dec: 2,
            trust_mix: TrustMix::AllSame,
            key_constraint_percent: 100,
            seed,
            ..WorkloadSpec::default()
        };
        check_agreement(&spec, false);
    }
}

#[test]
fn multi_peer_star_workloads_agree() {
    let spec = WorkloadSpec {
        peers: 4,
        tuples_per_relation: 5,
        violations_per_dec: 1,
        trust_mix: TrustMix::Mixed,
        topology: Topology::Star,
        seed: 9,
        ..WorkloadSpec::default()
    };
    check_agreement(&spec, false);
}

#[test]
fn auto_selects_rewriting_exactly_on_rewritable_workloads() {
    // Pure-inclusion workloads are the Example 2 class: Auto must resolve to
    // the rewriting and still agree with the explicit ASP strategy.
    let rewritable = generate(&WorkloadSpec {
        peers: 2,
        tuples_per_relation: 6,
        violations_per_dec: 2,
        trust_mix: TrustMix::AllLess,
        seed: 3,
        ..WorkloadSpec::default()
    })
    .expect("valid workload spec");
    let engine = QueryEngine::new(rewritable.system);
    assert_eq!(
        engine.resolve(Strategy::Auto, &rewritable.queried_peer, &rewritable.query),
        StrategyKind::Rewriting
    );
    let auto = engine
        .answer(
            &rewritable.queried_peer,
            &rewritable.query,
            &rewritable.free_vars,
        )
        .unwrap();
    assert_eq!(auto.stats.strategy, StrategyKind::Rewriting);
    // Rewritable per the analyzer too, so no fallback reason is attached.
    assert_eq!(auto.stats.auto_reason, None);
    let asp = engine
        .answer_with(
            Strategy::Asp,
            &rewritable.queried_peer,
            &rewritable.query,
            &rewritable.free_vars,
        )
        .unwrap();
    assert_eq!(auto.tuples, asp.tuples);
}

#[test]
fn transitive_answers_are_a_superset_of_direct_answers_on_import_chains() {
    // On pure-import chains, the global semantics can only add imported
    // tuples, never remove direct ones.
    let spec = WorkloadSpec {
        peers: 3,
        tuples_per_relation: 5,
        violations_per_dec: 1,
        trust_mix: TrustMix::AllLess,
        topology: Topology::Chain,
        seed: 4,
        ..WorkloadSpec::default()
    };
    let w = generate(&spec).expect("valid workload spec");
    let engine = QueryEngine::new(w.system);
    let direct = engine
        .answer_with(Strategy::Asp, &w.queried_peer, &w.query, &w.free_vars)
        .unwrap();
    let transitive = engine
        .answer_with(
            Strategy::TransitiveAsp,
            &w.queried_peer,
            &w.query,
            &w.free_vars,
        )
        .unwrap();
    assert!(direct.tuples.is_subset(&transitive.tuples));
}

#[test]
fn every_strategy_reports_the_same_error_for_an_ill_formed_query() {
    let engine = QueryEngine::new(example1_system());
    let p1 = PeerId::new("P1");
    let r1 = Formula::atom("R1", vec!["X", "Y"]);
    let r2 = Formula::atom("R2", vec!["X", "Y"]);
    // (fault, peer, query, answer variables, expected error variant)
    let faults = [
        (
            "foreign relation",
            &p1,
            r2.clone(),
            vars(&["X", "Y"]),
            "UnknownRelation",
        ),
        (
            "unbound answer variable",
            &p1,
            r1.clone(),
            vars(&["Z"]),
            "Unsupported",
        ),
        (
            "foreign relation and unbound variable",
            &p1,
            r2.clone(),
            vars(&["Z"]),
            "UnknownRelation",
        ),
        (
            "negated foreign relation",
            &p1,
            Formula::not(r2),
            vars(&["X", "Y"]),
            "UnknownRelation",
        ),
        (
            "unknown peer",
            &PeerId::new("PX"),
            r1,
            vars(&["X", "Y"]),
            "UnknownPeer",
        ),
    ];
    let variant = |error: CoreError| match error {
        CoreError::UnknownRelation { .. } => "UnknownRelation",
        CoreError::Unsupported(_) => "Unsupported",
        CoreError::UnknownPeer(_) => "UnknownPeer",
        other => panic!("unexpected error {other}"),
    };
    let mut mismatches = Vec::new();
    for (fault, peer, query, fv, expected) in &faults {
        for strategy in [
            Strategy::Naive,
            Strategy::Rewriting,
            Strategy::Asp,
            Strategy::TransitiveAsp,
            Strategy::Auto,
        ] {
            let error = engine
                .answer_with(strategy, peer, query, fv)
                .expect_err("an ill-formed query has no answers");
            let got = variant(error);
            if got != *expected {
                mismatches.push(format!("{fault} under {strategy:?}: {got}, not {expected}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// P1 imports R2 from the more-trusted P2, and P2 shares a key with the
/// same-trusted P3. Only the transitive program of Section 4.3 sees P2's
/// conflict with P3: it makes the imported (s,t) uncertain for P1.
fn chain_system() -> P2PSystem {
    let (p1, p2, p3) = (PeerId::new("P1"), PeerId::new("P2"), PeerId::new("P3"));
    let mut sys = P2PSystem::new();
    for (peer, relation, a, b) in [
        (&p1, "R1", "a", "b"),
        (&p2, "R2", "s", "t"),
        (&p3, "R3", "s", "u"),
    ] {
        sys.add_peer(peer.clone()).unwrap();
        sys.add_relation(peer, RelationSchema::new(relation, &["x", "y"]))
            .unwrap();
        sys.insert(peer, relation, Tuple::strs([a, b])).unwrap();
    }
    sys.add_dec(&p1, &p2, full_inclusion("inc", "R2", "R1", 2).unwrap())
        .unwrap();
    sys.set_trust(&p1, TrustLevel::Less, &p2).unwrap();
    sys.add_dec(&p2, &p3, key_agreement("ka", "R2", "R3").unwrap())
        .unwrap();
    sys.set_trust(&p2, TrustLevel::Same, &p3).unwrap();
    sys
}

#[test]
fn transitive_answers_see_a_conflict_one_peer_further_along_the_chain() {
    let p1 = PeerId::new("P1");
    let query = Formula::atom("R1", vec!["X", "Y"]);
    let fv = vars(&["X", "Y"]);
    let direct = BTreeSet::from([Tuple::strs(["a", "b"]), Tuple::strs(["s", "t"])]);
    for workers in [1, 2] {
        let engine = QueryEngine::builder(chain_system())
            .workers(workers)
            .build();
        for strategy in [Strategy::Naive, Strategy::Asp] {
            let answers = engine.answer_with(strategy, &p1, &query, &fv).unwrap();
            assert_eq!(answers.tuples, direct, "{strategy:?} on {workers} workers");
        }
        let transitive = engine
            .answer_with(Strategy::TransitiveAsp, &p1, &query, &fv)
            .unwrap();
        assert_eq!(
            transitive.tuples,
            BTreeSet::from([Tuple::strs(["a", "b"])]),
            "{workers} workers"
        );
        assert_eq!(transitive.stats.worlds, 2, "{workers} workers");
    }
}

/// P1's DEC towards P2 imports a relation of a third peer, P3 (`R3 ⊆ R1`);
/// the analyzer only warns about that (`PDES-A005`). P3 is therefore in
/// P1's relevant-peer closure: every strategy reads R3's facts, and a
/// commit to P3 reaches P1's memoized answers.
#[test]
fn a_dec_on_a_third_peers_relation_puts_that_peer_in_the_closure() {
    let (p1, p2, p3) = (PeerId::new("P1"), PeerId::new("P2"), PeerId::new("P3"));
    let mut sys = P2PSystem::new();
    for (peer, relation, a, b) in [
        (&p1, "R1", "a", "b"),
        (&p2, "R2", "s", "t"),
        (&p3, "R3", "u", "v"),
    ] {
        sys.add_peer(peer.clone()).unwrap();
        sys.add_relation(peer, RelationSchema::new(relation, &["x", "y"]))
            .unwrap();
        sys.insert(peer, relation, Tuple::strs([a, b])).unwrap();
    }
    sys.add_dec(&p1, &p2, full_inclusion("inc", "R3", "R1", 2).unwrap())
        .unwrap();
    sys.set_trust(&p1, TrustLevel::Less, &p2).unwrap();
    let engine = QueryEngine::new(sys);
    assert_eq!(
        engine.relevant_peers(&p1),
        BTreeSet::from([p1.clone(), p2, p3.clone()])
    );
    let query = Formula::atom("R1", vec!["X", "Y"]);
    let fv = vars(&["X", "Y"]);
    let mut expected = BTreeSet::from([Tuple::strs(["a", "b"]), Tuple::strs(["u", "v"])]);
    let strategies = [
        Strategy::Auto,
        Strategy::Naive,
        Strategy::Asp,
        Strategy::TransitiveAsp,
    ];
    for strategy in strategies {
        let answers = engine.answer_with(strategy, &p1, &query, &fv).unwrap();
        assert_eq!(answers.tuples, expected, "{strategy:?}");
    }
    let delta = Delta::from_changes([GroundAtom::new("R3", Tuple::strs(["w", "x"]))], []);
    engine
        .commit(&BTreeMap::from([(p3.clone(), delta.clone())]))
        .unwrap();
    expected.insert(Tuple::strs(["w", "x"]));
    for strategy in strategies {
        let answers = engine.answer_with(strategy, &p1, &query, &fv).unwrap();
        assert_eq!(answers.tuples, expected, "{strategy:?} after the commit");
    }
}
