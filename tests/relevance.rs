//! Pruned-vs-full grounding equivalence: the engine's relevance-driven
//! grounding (`datalog::relevance`) must yield byte-identical certain
//! answers to the full-program reference (`pdes_bench::reference`, which
//! solves the whole specification program without any relevance analysis)
//! — for all four strategies, at pool sizes 1/2/8, on generated workloads
//! and the paper's Example 1, including queries with bound constants and
//! queries whose relevant slice is empty.

use p2p_data_exchange::{
    example1_system, vars, Formula, P2PSystem, PeerId, QueryEngine, Strategy, Tuple,
};
use pdes_bench::reference::{full_grounding, reference_answers};
use relalg::query::Term;
use relalg::{RelationSchema, Value};
use std::collections::BTreeSet;
use workload::{generate, Topology, TrustMix, WorkloadSpec};

const ALL_STRATEGIES: [Strategy; 4] = [
    Strategy::Naive,
    Strategy::Rewriting,
    Strategy::Asp,
    Strategy::TransitiveAsp,
];

const POOLS: [usize; 3] = [1, 2, 8];

/// Build a pruned engine per pool size and assert every strategy answers
/// every query exactly like the full-program reference, never grounding
/// more rules than the whole program.
fn assert_pruned_matches_full(
    system: &P2PSystem,
    peer: &PeerId,
    queries: &[(Formula, Vec<String>)],
    context: &str,
) {
    // Cross-check: the analyzer's rewritability verdict is the Auto
    // decision on every system this suite exercises.
    let rewritable = matches!(
        p2p_data_exchange::analysis::classify_rewritability(system, peer).unwrap(),
        p2p_data_exchange::analysis::RewriteVerdict::Rewritable
    );
    let full_rules: Vec<Option<usize>> = ALL_STRATEGIES
        .iter()
        .map(|&strategy| full_grounding(system, strategy, peer).map(|g| g.rule_count()))
        .collect();
    let references: Vec<Vec<Option<BTreeSet<Tuple>>>> = queries
        .iter()
        .map(|(query, fv)| {
            ALL_STRATEGIES
                .iter()
                .map(|&strategy| reference_answers(system, strategy, peer, query, fv))
                .collect()
        })
        .collect();
    for workers in POOLS {
        let pruned = QueryEngine::builder(system.clone())
            .workers(workers)
            .build();
        for ((query, fv), references) in queries.iter().zip(&references) {
            if rewritable && p2p_data_exchange::core::rewriting::supports_query(query) {
                assert_eq!(
                    pruned.resolve(Strategy::Auto, peer, query),
                    p2p_data_exchange::StrategyKind::Rewriting,
                    "{context}: Auto disagrees with the analyzer verdict"
                );
            } else {
                assert_eq!(
                    pruned.resolve(Strategy::Auto, peer, query),
                    p2p_data_exchange::StrategyKind::Asp,
                    "{context}: Auto disagrees with the analyzer verdict"
                );
            }
            for ((strategy, reference), full_rules) in
                ALL_STRATEGIES.into_iter().zip(references).zip(&full_rules)
            {
                match (pruned.answer_with(strategy, peer, query, fv), reference) {
                    (Ok(a), Some(reference)) => {
                        assert_eq!(
                            &a.tuples, reference,
                            "{context}: {strategy:?} workers={workers} query {query}"
                        );
                        // The ASP strategies must also never ground *more*
                        // than the full program.
                        if let Some(full_rules) = full_rules {
                            assert!(
                                a.stats.grounded_rules <= *full_rules,
                                "{context}: pruned grounded {} > full {full_rules}",
                                a.stats.grounded_rules,
                            );
                        }
                    }
                    (Err(_), None) => {} // unsupported on both paths alike
                    (a, reference) => panic!(
                        "{context}: {strategy:?} workers={workers} query {query}: \
                         pruned and full disagree on success: {:?} vs {reference:?}",
                        a.map(|x| x.tuples),
                    ),
                }
            }
        }
    }
}

#[test]
fn example1_queries_agree_including_bound_constants() {
    let system = example1_system();
    let p1 = PeerId::new("P1");
    let queries = vec![
        (Formula::atom("R1", vec!["X", "Y"]), vars(&["X", "Y"])),
        (
            Formula::exists(vec!["Y"], Formula::atom("R1", vec!["X", "Y"])),
            vars(&["X"]),
        ),
        // Bound first argument: R1(a, Y).
        (
            Formula::atom_terms("R1", vec![Term::cnst(Value::str("a")), Term::var("Y")]),
            vars(&["Y"]),
        ),
        // Fully bound (boolean-style with one answer variable repeated).
        (
            Formula::atom_terms(
                "R1",
                vec![Term::cnst(Value::str("c")), Term::cnst(Value::str("d"))],
            ),
            vars(&[]),
        ),
        // Join with one bound side: ∃y (R1(a, y) ∧ R1(z, y)).
        (
            Formula::exists(
                vec!["Y"],
                Formula::and(vec![
                    Formula::atom_terms("R1", vec![Term::cnst(Value::str("a")), Term::var("Y")]),
                    Formula::atom("R1", vec!["Z", "Y"]),
                ]),
            ),
            vars(&["Z"]),
        ),
    ];
    assert_pruned_matches_full(&system, &p1, &queries, "example1");
}

#[test]
fn generated_workloads_agree_across_strategies_and_pools() {
    let specs = [
        WorkloadSpec {
            peers: 2,
            tuples_per_relation: 8,
            violations_per_dec: 2,
            trust_mix: TrustMix::AllLess,
            ..WorkloadSpec::default()
        },
        WorkloadSpec {
            peers: 2,
            tuples_per_relation: 8,
            violations_per_dec: 2,
            trust_mix: TrustMix::AllSame,
            key_constraint_percent: 100,
            ..WorkloadSpec::default()
        },
        WorkloadSpec {
            peers: 4,
            tuples_per_relation: 6,
            violations_per_dec: 1,
            trust_mix: TrustMix::AllLess,
            topology: Topology::Star,
            ..WorkloadSpec::default()
        },
        WorkloadSpec {
            peers: 3,
            tuples_per_relation: 6,
            violations_per_dec: 1,
            trust_mix: TrustMix::AllLess,
            topology: Topology::Chain,
            ..WorkloadSpec::default()
        },
    ];
    for spec in specs {
        let w = generate(&spec).expect("valid workload spec");
        let mut queries = vec![
            (w.query.clone(), w.free_vars.clone()),
            (Formula::exists(vec!["Y"], w.query.clone()), vars(&["X"])),
        ];
        // A query with a bound constant drawn from the actual answers.
        let probe = QueryEngine::new(w.system.clone());
        let unbound = probe
            .answer(&w.queried_peer, &w.query, &w.free_vars)
            .expect("asp answers the canonical query");
        if let Some(first) = unbound.iter().next() {
            let constant = first.get(0).unwrap().clone();
            let relation = w.query.relations().into_iter().next().unwrap();
            queries.push((
                Formula::atom_terms(relation, vec![Term::cnst(constant), Term::var("Y")]),
                vars(&["Y"]),
            ));
        }
        assert_pruned_matches_full(&w.system, &w.queried_peer, &queries, &format!("{spec}"));
    }
}

#[test]
fn star_workload_prunes_strictly_on_the_asp_path() {
    // On a multi-peer workload the pruned grounding instantiates strictly
    // fewer rules than the full program, with identical answers (the
    // byte-for-byte case is covered above).
    let w = generate(&WorkloadSpec {
        peers: 6,
        tuples_per_relation: 8,
        violations_per_dec: 1,
        trust_mix: TrustMix::AllLess,
        topology: Topology::Star,
        ..WorkloadSpec::default()
    })
    .expect("valid workload spec");
    let pruned = QueryEngine::builder(w.system.clone())
        .strategy(Strategy::Asp)
        .build();
    let a = pruned
        .answer(&w.queried_peer, &w.query, &w.free_vars)
        .unwrap();
    let reference = reference_answers(
        &w.system,
        Strategy::Asp,
        &w.queried_peer,
        &w.query,
        &w.free_vars,
    );
    assert_eq!(Some(a.tuples), reference);
    let full = full_grounding(&w.system, Strategy::Asp, &w.queried_peer).unwrap();
    assert!(
        a.stats.grounded_rules < full.rule_count(),
        "pruned {} !< full {}",
        a.stats.grounded_rules,
        full.rule_count()
    );
    assert!(a.stats.grounded_atoms < full.atom_count());
}

#[test]
fn empty_relevant_slice_grounds_nothing_and_agrees() {
    // Peer A owns a populated relation and an *empty, unconstrained* one;
    // bystander B only bloats the full grounding. A query on the empty
    // relation has an (essentially) empty relevant slice: nothing is
    // derivable for it, and pruning grounds nothing at all.
    let mut system = P2PSystem::new();
    system.add_peer("A").unwrap();
    system.add_peer("B").unwrap();
    let a = PeerId::new("A");
    let b = PeerId::new("B");
    system
        .add_relation(&a, RelationSchema::new("RA", &["x", "y"]))
        .unwrap();
    system
        .add_relation(&a, RelationSchema::new("REmpty", &["x", "y"]))
        .unwrap();
    system
        .add_relation(&b, RelationSchema::new("RB", &["x", "y"]))
        .unwrap();
    for i in 0..5 {
        system
            .insert(&a, "RA", Tuple::strs([&format!("k{i}"), "v"]))
            .unwrap();
        system
            .insert(&b, "RB", Tuple::strs([&format!("k{i}"), "w"]))
            .unwrap();
    }
    let queries = vec![(Formula::atom("REmpty", vec!["X", "Y"]), vars(&["X", "Y"]))];
    assert_pruned_matches_full(&system, &a, &queries, "empty slice");

    let pruned = QueryEngine::builder(system.clone()).build();
    let answers = pruned
        .answer_with(Strategy::Asp, &a, &queries[0].0, &queries[0].1)
        .unwrap();
    assert!(answers.is_empty());
    assert_eq!(
        answers.stats.grounded_rules, 0,
        "an empty relevant slice must ground nothing"
    );
    let full = full_grounding(&system, Strategy::Asp, &a).unwrap();
    assert!(full.rule_count() > 0);
}

#[test]
fn bound_constant_answers_are_the_restriction_of_unbound_answers() {
    let system = example1_system();
    let p1 = PeerId::new("P1");
    for strategy in ALL_STRATEGIES {
        let engine = QueryEngine::builder(system.clone())
            .strategy(strategy)
            .build();
        let all = engine
            .answer(
                &p1,
                &Formula::atom("R1", vec!["X", "Y"]),
                &vars(&["X", "Y"]),
            )
            .unwrap();
        let bound = engine
            .answer(
                &p1,
                &Formula::atom_terms("R1", vec![Term::cnst(Value::str("a")), Term::var("Y")]),
                &vars(&["Y"]),
            )
            .unwrap();
        let expected: BTreeSet<Tuple> = all
            .iter()
            .filter(|t| t.get(0).unwrap() == &Value::str("a"))
            .map(|t| Tuple::new(vec![t.get(1).unwrap().clone()]))
            .collect();
        assert_eq!(bound.tuples, expected, "strategy {strategy:?}");
    }
}
