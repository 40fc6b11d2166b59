//! End-to-end reproduction of every worked example of the paper (tests
//! `e1`–`e6`, one per example), exercised through the public API of the
//! umbrella crate.

use datalog::{AnswerSets, SolverConfig};
use p2p_data_exchange::core::asp::paper::{
    appendix_lav_program, example4_program, section31_program,
};
use p2p_data_exchange::core::solution::{solutions_for, SolutionOptions};
use p2p_data_exchange::{vars, Formula, PeerId, QueryEngine, Strategy, Tuple};
use std::collections::BTreeSet;

/// E1 — Example 1: peer P1 has exactly the two solutions r′ and r′′.
#[test]
fn e1_example1_solutions() {
    let system = p2p_data_exchange::example1_system();
    let p1 = PeerId::new("P1");
    let solutions = solutions_for(&system, &p1, SolutionOptions::default()).unwrap();
    assert_eq!(solutions.len(), 2);
    for s in &solutions {
        // r' and r'' both drop R3(a, f), keep R2 untouched and import P2's
        // tuples into R1.
        assert!(!s.database.holds("R3", &Tuple::strs(["a", "f"])));
        assert_eq!(s.database.relation("R2").unwrap().len(), 2);
        assert!(s.database.holds("R1", &Tuple::strs(["c", "d"])));
        assert!(s.database.holds("R1", &Tuple::strs(["a", "e"])));
    }
}

/// E2 — Example 2: the PCAs of R1(x, y) at P1 are (a,b), (c,d), (a,e), and
/// every engine strategy produces them.
#[test]
fn e2_example2_peer_consistent_answers() {
    let engine = QueryEngine::new(p2p_data_exchange::example1_system());
    let p1 = PeerId::new("P1");
    let query = Formula::atom("R1", vec!["X", "Y"]);
    let expected = BTreeSet::from([
        Tuple::strs(["a", "b"]),
        Tuple::strs(["c", "d"]),
        Tuple::strs(["a", "e"]),
    ]);

    for strategy in [
        Strategy::Naive,
        Strategy::Rewriting,
        Strategy::Asp,
        Strategy::TransitiveAsp,
        Strategy::Auto,
    ] {
        let answers = engine
            .answer_with(strategy, &p1, &query, &vars(&["X", "Y"]))
            .unwrap();
        assert_eq!(answers.tuples, expected, "strategy {strategy:?}");
    }
}

/// E3 — Section 3.1: the GAV choice program has the expected stable models
/// (three distinct solutions over four models).
#[test]
fn e3_section31_choice_program() {
    let program = section31_program(
        &[Tuple::strs(["a", "b"])],
        &[],
        &[Tuple::strs(["c", "b"])],
        &[Tuple::strs(["c", "e"]), Tuple::strs(["c", "f"])],
    );
    let sets = AnswerSets::compute(&program, SolverConfig::default()).unwrap();
    assert_eq!(sets.len(), 4);
}

/// E4 — Appendix: the LAV program has exactly the four stable models M1–M4.
#[test]
fn e4_appendix_lav_models() {
    let program = appendix_lav_program(
        &[Tuple::strs(["a", "b"])],
        &[],
        &[Tuple::strs(["c", "b"])],
        &[Tuple::strs(["c", "e"]), Tuple::strs(["c", "f"])],
    );
    let sets = AnswerSets::compute(&program, SolverConfig::default()).unwrap();
    assert_eq!(sets.len(), 4);
}

/// E5 — Example 3: shifting the disjunctive rule (9) produces the paper's
/// two normal rules, and shifting preserves the answer sets of the (HCF)
/// Section 3.1 program.
#[test]
fn e5_hcf_shifting() {
    use datalog::graph::is_head_cycle_free;
    use datalog::shift::shift_program;
    use datalog::Grounder;

    let program = section31_program(
        &[Tuple::strs(["a", "b"])],
        &[],
        &[Tuple::strs(["c", "b"])],
        &[Tuple::strs(["c", "e"]), Tuple::strs(["c", "f"])],
    );
    let ground = Grounder::new(&program).ground().unwrap();
    assert!(is_head_cycle_free(&ground));

    let shifted = shift_program(Grounder::new(&program).program());
    assert!(!shifted.is_disjunctive());
    let original_sets = AnswerSets::compute(&program, SolverConfig::default()).unwrap();
    let shifted_sets = AnswerSets::compute(&shifted, SolverConfig::default()).unwrap();
    assert_eq!(original_sets.len(), shifted_sets.len());
    let a: BTreeSet<_> = original_sets.sets.into_iter().collect();
    let b: BTreeSet<_> = shifted_sets.sets.into_iter().collect();
    assert_eq!(a, b);
}

/// E6 — Example 4: the combined program of the transitive case has exactly
/// the three solutions the paper lists.
#[test]
fn e6_example4_transitive() {
    let program = example4_program(
        &[Tuple::strs(["a", "b"])],
        &[],
        &[],
        &[Tuple::strs(["c", "e"]), Tuple::strs(["c", "f"])],
        &[Tuple::strs(["c", "b"])],
    );
    let sets = AnswerSets::compute(&program, SolverConfig::default()).unwrap();
    // Distinct solutions over (r1p, r2p):
    let mut shapes = BTreeSet::new();
    for i in 0..sets.len() {
        shapes.insert((sets.tuples_in(i, "r1p"), sets.tuples_in(i, "r2p")));
    }
    assert_eq!(shapes.len(), 3);
    // Every model imports U's tuple into S1's virtual version.
    for i in 0..sets.len() {
        assert_eq!(sets.tuples_in(i, "s1p").len(), 1);
    }
}
