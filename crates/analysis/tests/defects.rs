//! Defect-injection tests: every diagnostic code fires on a minimal bad
//! specification and stays silent on the shipped examples, and the
//! analyzer's rewritability verdict is the engine's `Strategy::Auto`
//! decision.

use constraints::{AtomPattern, Constraint, ConstraintHead};
use datalog::{Atom, BodyItem, Program, Rule};
use pdes_analyze::{
    check_program, classify_rewritability, codes, lint_source, Location, RewriteVerdict, Severity,
};
use pdes_core::engine::{QueryEngine, Strategy, StrategyKind};
use pdes_core::pca::vars;
use pdes_core::system::{example1_system, PeerId};
use pdes_core::CoreError;
use relalg::query::{Formula, Term};

// ---------------------------------------------------------------------
// Schema & safety defects (PDES-A00x).
// ---------------------------------------------------------------------

#[test]
fn unknown_relation_fires_a001() {
    let report = lint_source(
        "peer A\npeer B\nrelation A R(k, v)\nrelation B S(k, v)\n\
         trust A less B\ndec d A B: Nope(X, Y) -> R(X, Y)\n",
    );
    assert!(
        report.has_code(codes::UNKNOWN_RELATION),
        "{}",
        report.render()
    );
    assert_eq!(report.error_count(), 1);
}

#[test]
fn arity_mismatch_fires_a002() {
    let report = lint_source(
        "peer A\npeer B\nrelation A R(k, v)\nrelation B S(k, v)\n\
         trust A less B\ndec d A B: S(X, Y, Z) -> R(X, Y)\n",
    );
    assert!(
        report.has_code(codes::ARITY_MISMATCH),
        "{}",
        report.render()
    );
}

#[test]
fn unsafe_constraint_fires_a003() {
    // The `Constraint` fields are public, so an ill-formed constraint that
    // `Constraint::new` would refuse can still reach the batch analyzer.
    let mut system = example1_system();
    let unsafe_ic = Constraint {
        name: "unsafe".into(),
        body: vec![AtomPattern::new("R1", vec![Term::var("X"), Term::var("Y")])],
        conditions: vec![],
        head: ConstraintHead::Equality(Term::var("Y"), Term::var("Z")), // Z unbound
    };
    system
        .add_local_ic_unchecked(&PeerId::new("P1"), unsafe_ic)
        .unwrap();
    let report = system.analyze();
    let found = report.with_code(codes::UNSAFE_CONSTRAINT);
    assert_eq!(found.len(), 1, "{}", report.render());
    assert_eq!(found[0].severity, Severity::Error);
    assert!(matches!(&found[0].location, Location::Ic { peer, .. } if peer.to_string() == "P1"));
}

#[test]
fn unsafe_rule_fires_a004() {
    let mut program = Program::new();
    program.add_rule(Rule::new(
        vec![Atom::new("p", &["X", "Y"])],
        vec![BodyItem::Pos(Atom::new("q", &["X"]))], // Y unbound
    ));
    let diags = check_program(&Location::System, &program);
    assert!(diags.iter().any(|d| d.code == codes::UNSAFE_RULE));
}

// ---------------------------------------------------------------------
// Negation defects (PDES-A10x).
// ---------------------------------------------------------------------

#[test]
fn odd_negative_loop_fires_a101_with_witness() {
    let mut program = Program::new();
    // p :- q.  q :- not p.  — an odd loop through a positive edge.
    program.add_rule(Rule::new(
        vec![Atom::new("p", &["a"])],
        vec![BodyItem::Pos(Atom::new("q", &["a"]))],
    ));
    program.add_rule(Rule::new(
        vec![Atom::new("q", &["a"])],
        vec![BodyItem::Naf(Atom::new("p", &["a"]))],
    ));
    let diags = check_program(&Location::System, &program);
    let odd: Vec<_> = diags
        .iter()
        .filter(|d| d.code == codes::ODD_NEGATIVE_LOOP)
        .collect();
    assert_eq!(odd.len(), 1);
    let cycle = odd[0]
        .payload
        .iter()
        .find(|(k, _)| k == "cycle")
        .map(|(_, v)| v.as_str())
        .unwrap();
    assert_eq!(cycle, "p,q");
}

#[test]
fn even_negative_loop_fires_a102_only() {
    let mut program = Program::new();
    // p :- not q.  q :- not p.  — a stable (even) loop.
    program.add_rule(Rule::new(
        vec![Atom::new("p", &["a"])],
        vec![BodyItem::Naf(Atom::new("q", &["a"]))],
    ));
    program.add_rule(Rule::new(
        vec![Atom::new("q", &["a"])],
        vec![BodyItem::Naf(Atom::new("p", &["a"]))],
    ));
    let diags = check_program(&Location::System, &program);
    assert!(diags.iter().any(|d| d.code == codes::UNSTRATIFIED));
    assert!(!diags.iter().any(|d| d.code == codes::ODD_NEGATIVE_LOOP));
}

#[test]
fn complementary_facts_fire_a103() {
    let mut program = Program::new();
    program.add_rule(Rule::fact(Atom::new("p", &["a"])));
    let mut negated = Atom::new("p", &["a"]);
    negated.strong_neg = true;
    program.add_rule(Rule::fact(negated));
    let diags = check_program(&Location::System, &program);
    assert!(diags.iter().any(|d| d.code == codes::CLASSICAL_CLASH));
}

#[test]
fn head_cycle_fires_a104() {
    // a ∨ b.  a :- b.  b :- a.  — the heads share a positive cycle.
    let (a, b) = (
        Atom::new("a", &[] as &[&str]),
        Atom::new("b", &[] as &[&str]),
    );
    let mut program = Program::new();
    program.add_rule(Rule::new(vec![a.clone(), b.clone()], vec![]));
    program.add_rule(Rule::new(vec![a.clone()], vec![BodyItem::Pos(b.clone())]));
    program.add_rule(Rule::new(vec![b], vec![BodyItem::Pos(a)]));
    let diags = check_program(&Location::System, &program);
    let infos: Vec<_> = diags
        .iter()
        .filter(|d| d.code == codes::NOT_HEAD_CYCLE_FREE)
        .collect();
    assert_eq!(infos.len(), 1, "{diags:?}");
    assert_eq!(infos[0].severity, Severity::Info);
}

// ---------------------------------------------------------------------
// Topology defects (PDES-A20x).
// ---------------------------------------------------------------------

#[test]
fn dec_cycle_fires_a201() {
    let report = lint_source(
        "peer A\npeer B\nrelation A R(k, v)\nrelation B S(k, v)\n\
         trust A less B\ntrust B less A\n\
         dec dab A B: S(X, Y) -> R(X, Y)\ndec dba B A: R(X, Y) -> S(X, Y)\n",
    );
    let cycles = report.with_code(codes::DEC_CYCLE);
    assert_eq!(cycles.len(), 1, "{}", report.render());
    let witness = cycles[0]
        .payload
        .iter()
        .find(|(k, _)| k == "cycle")
        .map(|(_, v)| v.as_str())
        .unwrap();
    assert_eq!(witness, "A,B");
    // Mutual `less` is also a trust smell.
    assert!(report.has_code(codes::TRUST_ASYMMETRY));
}

#[test]
fn isolated_peer_fires_a202() {
    let report = lint_source(
        "peer A\npeer B\npeer C\nrelation A R(k, v)\nrelation B S(k, v)\n\
         relation C U(k, v)\ntrust A less B\ndec d A B: S(X, Y) -> R(X, Y)\n",
    );
    let isolated = report.with_code(codes::ISOLATED_PEER);
    assert_eq!(isolated.len(), 1, "{}", report.render());
    assert!(matches!(&isolated[0].location, Location::Peer(p) if p.to_string() == "C"));
}

#[test]
fn empty_schema_fires_a203() {
    let report = lint_source("peer A\npeer B\nrelation B S(k, v)\n");
    assert!(report.has_code(codes::EMPTY_SCHEMA), "{}", report.render());
}

#[test]
fn dangling_trust_fires_a204() {
    let report =
        lint_source("peer A\npeer B\nrelation A R(k, v)\nrelation B S(k, v)\ntrust A less B\n");
    assert!(
        report.has_code(codes::DANGLING_TRUST),
        "{}",
        report.render()
    );
}

#[test]
fn trust_asymmetry_fires_a205() {
    let report = lint_source(
        "peer A\npeer B\nrelation A R(k, v)\nrelation B S(k, v)\n\
         trust A less B\ntrust B same A\ndec d A B: S(X, Y) -> R(X, Y)\n",
    );
    assert!(
        report.has_code(codes::TRUST_ASYMMETRY),
        "{}",
        report.render()
    );
}

#[test]
fn untrusted_dec_fires_a206() {
    let report = lint_source(
        "peer A\npeer B\nrelation A R(k, v)\nrelation B S(k, v)\n\
         dec d A B: S(X, Y) -> R(X, Y)\n",
    );
    assert!(report.has_code(codes::UNTRUSTED_DEC), "{}", report.render());
}

#[test]
fn one_giant_component_fires_a207() {
    // A—B—C chained by DECs: the undirected DEC graph is one component
    // spanning all peers.
    let report = lint_source(
        "peer A\npeer B\npeer C\n\
         relation A R(k, v)\nrelation B S(k, v)\nrelation C T(k, v)\n\
         trust A less B\ntrust B less C\n\
         dec d1 A B: S(X, Y) -> R(X, Y)\ndec d2 B C: T(X, Y) -> S(X, Y)\n",
    );
    assert!(report.has_code(codes::ONE_COMPONENT), "{}", report.render());
}

#[test]
fn split_components_do_not_fire_a207() {
    // Two disjoint DEC pairs: two components.
    let report = lint_source(
        "peer A\npeer B\npeer C\npeer D\n\
         relation A R(k, v)\nrelation B S(k, v)\n\
         relation C T(k, v)\nrelation D U(k, v)\n\
         trust A less B\ntrust C less D\n\
         dec d1 A B: S(X, Y) -> R(X, Y)\ndec d2 C D: U(X, Y) -> T(X, Y)\n",
    );
    assert!(
        !report.has_code(codes::ONE_COMPONENT),
        "{}",
        report.render()
    );
}

// ---------------------------------------------------------------------
// The shipped examples are defect-free.
// ---------------------------------------------------------------------

#[test]
fn shipped_example_specs_are_clean() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "pds"))
        .collect();
    entries.sort();
    for path in entries {
        let source = std::fs::read_to_string(&path).unwrap();
        let report = lint_source(&source);
        assert!(
            report.is_clean(),
            "{} has errors:\n{}",
            path.display(),
            report.render()
        );
        assert_eq!(report.warning_count(), 0, "{}", path.display());
        checked += 1;
    }
    assert!(
        checked >= 4,
        "expected the shipped spec files, found {checked}"
    );
}

// ---------------------------------------------------------------------
// The analyzer IS the Strategy::Auto decision.
// ---------------------------------------------------------------------

#[test]
fn classification_matches_engine_resolution_across_the_matrix() {
    for spec in pdes_analyze::workload_matrix() {
        let generated = workload::generate(&spec).unwrap();
        let engine = QueryEngine::builder(generated.system.clone()).build();
        for peer in generated.system.peer_ids() {
            let verdict = classify_rewritability(&generated.system, peer).unwrap();
            let query = Formula::atom(
                generated
                    .system
                    .peer(peer)
                    .unwrap()
                    .schema
                    .relation_names()
                    .next()
                    .unwrap(),
                vec!["X", "Y"],
            );
            let (kind, reason) = engine.resolve_explained(Strategy::Auto, peer, &query);
            match verdict {
                RewriteVerdict::Rewritable => {
                    assert_eq!(
                        kind,
                        StrategyKind::Rewriting,
                        "workload {spec}, peer {peer}"
                    );
                    assert_eq!(reason, None);
                }
                RewriteVerdict::NotRewritable { code, .. } => {
                    assert_eq!(kind, StrategyKind::Asp, "workload {spec}, peer {peer}");
                    assert_eq!(reason, Some(code));
                }
            }
        }
    }
}

#[test]
fn auto_reason_reaches_the_answer_stats() {
    let source = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/local_fd.pds"),
    )
    .unwrap();
    let parsed = dsl::parse(&source).unwrap();
    let engine = QueryEngine::builder(parsed.system).build();
    let peer = PeerId::new("A");
    let query = Formula::atom("R", vec!["X", "Y"]);
    let answers = engine.answer(&peer, &query, &vars(&["X", "Y"])).unwrap();
    assert_eq!(answers.stats.strategy, StrategyKind::Asp);
    assert_eq!(answers.stats.auto_reason, Some(codes::REWRITE_LOCAL_ICS));

    // A rewritable peer carries no reason.
    let engine = QueryEngine::builder(example1_system()).build();
    let answers = engine
        .answer(
            &PeerId::new("P1"),
            &Formula::atom("R1", vec!["X", "Y"]),
            &vars(&["X", "Y"]),
        )
        .unwrap();
    assert_eq!(answers.stats.strategy, StrategyKind::Rewriting);
    assert_eq!(answers.stats.auto_reason, None);
}

#[test]
fn query_outside_the_positive_fragment_reports_a304() {
    let engine = QueryEngine::builder(example1_system()).build();
    let query = Formula::Not(Box::new(Formula::atom("R1", vec!["X", "Y"])));
    let (kind, reason) = engine.resolve_explained(Strategy::Auto, &PeerId::new("P1"), &query);
    assert_eq!(kind, StrategyKind::Asp);
    assert_eq!(reason, Some(codes::REWRITE_QUERY_FRAGMENT));
}

// ---------------------------------------------------------------------
// Strict analysis gates engine construction.
// ---------------------------------------------------------------------

#[test]
fn strict_analysis_refuses_defective_systems() {
    let mut system = example1_system();
    let bad = Constraint::new(
        "bad",
        vec![AtomPattern::new("Nope", vec![Term::var("X")])],
        vec![],
        ConstraintHead::False,
    )
    .unwrap();
    system
        .add_dec_unchecked(&PeerId::new("P1"), &PeerId::new("P2"), bad)
        .unwrap();

    // Non-strict construction succeeds and keeps the report inspectable.
    let engine = QueryEngine::builder(system.clone()).build();
    assert!(engine.analysis_report().has_code(codes::UNKNOWN_RELATION));

    // Strict construction refuses.
    let err = match QueryEngine::builder(system)
        .strict_analysis(true)
        .try_build()
    {
        Err(e) => e,
        Ok(_) => panic!("strict analysis accepted a defective system"),
    };
    match err {
        CoreError::AnalysisRejected { errors, report } => {
            assert_eq!(errors, 1);
            assert!(report.contains(codes::UNKNOWN_RELATION));
        }
        other => panic!("expected AnalysisRejected, got {other}"),
    }
}

#[test]
fn strict_analysis_accepts_clean_systems() {
    let engine = QueryEngine::builder(example1_system())
        .strict_analysis(true)
        .try_build()
        .unwrap();
    assert!(engine.analysis_report().is_clean());
}
