//! Differential oracle for the columnar plan: on seeded random small
//! databases and random formulas from the plan's fragment — guarded
//! universals with `=`, `≠` and atom consequents, `¬∃` with nested `¬∃`,
//! `¬(A ∨ B)`, negated comparisons, `∧` over `∨`, quantified variables that
//! shadow outer ones, and constants the symbol table never minted — every
//! formula must compile to a `CqPlan` (so the suite cannot pass by falling
//! back) and answer exactly like the general `QueryEvaluator`.

#[path = "support/plan_gen.rs"]
mod plan_gen;

use plan_gen::{random_database, Gen, Rng, Shape, UNSEEN};
use relalg::query::{CompareOp, Formula, QueryEvaluator, Term};
use relalg::{ColumnarDatabase, CqPlan, Database, SymbolTable, Tuple};
use std::collections::BTreeMap;
use std::sync::Arc;

const DATABASES: u64 = 300;
const QUERIES_PER_DATABASE: usize = 4;

/// The plan's answers materialized, or `None` if the query does not compile.
fn plan_answers(
    db: &Database,
    query: &Formula,
    free: &[String],
) -> Option<std::collections::BTreeSet<Tuple>> {
    let plan = CqPlan::compile(query, free)?;
    let symbols = Arc::new(SymbolTable::new());
    let columnar = ColumnarDatabase::from_database(db, &symbols);
    let rows = plan.answers(&columnar).expect("the plan evaluates");
    Some(CqPlan::materialize(&rows, &symbols))
}

#[test]
fn compiled_plans_match_the_evaluator_on_random_formulas() {
    let mut compiled: BTreeMap<Shape, usize> = BTreeMap::new();
    for seed in 0..DATABASES {
        let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let db = random_database(&mut rng);
        for _ in 0..QUERIES_PER_DATABASE {
            let mut gen = Gen {
                rng: &mut rng,
                shapes: Vec::new(),
                fresh: 0,
            };
            let (query, free) = gen.query();
            let want = QueryEvaluator::new(&db)
                .answers(&query, &free)
                .unwrap_or_else(|e| panic!("evaluator failed on {query}: {e}"));
            let got = plan_answers(&db, &query, &free)
                .unwrap_or_else(|| panic!("seed {seed}: {query} is in the fragment"));
            assert_eq!(got, want, "seed {seed}: {query} over {free:?}");
            for shape in gen.shapes {
                *compiled.entry(shape).or_default() += 1;
            }
        }
    }
    for shape in [
        Shape::ForallEq,
        Shape::ForallNeq,
        Shape::ForallAtom,
        Shape::NestedNotExists,
        Shape::NotOr,
        Shape::NotCompare,
        Shape::AndOverOr,
        Shape::Shadowing,
        Shape::UnseenConstant,
    ] {
        let count = compiled.get(&shape).copied().unwrap_or(0);
        assert!(count >= 20, "{shape:?} compiled only {count} times");
    }
}

#[test]
fn every_listed_shape_compiles() {
    let xy = ["X".to_string(), "Y".to_string()];
    let scan = Formula::atom("R", vec!["X", "Y"]);
    let with = |filter: Formula| Formula::and(vec![scan.clone(), filter]);
    let forall = |consequent: Formula| {
        with(Formula::forall(
            vec!["Z"],
            Formula::implies(Formula::atom("S", vec!["Y", "Z"]), consequent),
        ))
    };
    let shapes = [
        forall(Formula::eq(Term::var("Z"), Term::var("X"))),
        forall(Formula::compare(
            CompareOp::Neq,
            Term::var("Z"),
            Term::cnst(UNSEEN),
        )),
        forall(Formula::atom("T", vec!["Z"])),
        // ¬∃Z (S(Y, Z) ∧ ¬∃W R(Z, W)).
        with(Formula::not(Formula::exists(
            vec!["Z"],
            Formula::and(vec![
                Formula::atom("S", vec!["Y", "Z"]),
                Formula::not(Formula::exists(
                    vec!["W"],
                    Formula::atom("R", vec!["Z", "W"]),
                )),
            ]),
        ))),
        with(Formula::not(Formula::Or(vec![
            Formula::atom("S", vec!["Y", "X"]),
            Formula::atom("T", vec!["Y"]),
        ]))),
        with(Formula::not(Formula::compare(
            CompareOp::Lt,
            Term::var("X"),
            Term::var("Y"),
        ))),
        Formula::And(vec![
            Formula::Or(vec![scan.clone(), Formula::atom("S", vec!["X", "Y"])]),
            Formula::Or(vec![
                Formula::atom("T", vec!["X"]),
                Formula::atom("T", vec!["Y"]),
            ]),
        ]),
        // ∀Y (S(X, Y) → ¬∃Y R(Y, Y)): the quantifiers shadow the outer Y.
        with(Formula::forall(
            vec!["Y"],
            Formula::implies(
                Formula::atom("S", vec!["X", "Y"]),
                Formula::not(Formula::exists(
                    vec!["Y"],
                    Formula::atom("R", vec!["Y", "Y"]),
                )),
            ),
        )),
    ];
    let mut rng = Rng(7);
    let databases: Vec<Database> = (0..20).map(|_| random_database(&mut rng)).collect();
    for query in &shapes {
        for db in &databases {
            let got = plan_answers(db, query, &xy).unwrap_or_else(|| panic!("{query} compiles"));
            assert_eq!(
                got,
                QueryEvaluator::new(db).answers(query, &xy).unwrap(),
                "{query}"
            );
        }
    }
}
