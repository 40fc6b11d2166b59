//! Consistent query answering over repairs — the single-database baseline.
//!
//! The per-repair query evaluations are independent of each other (each
//! reads one repaired instance), so [`consistent_answers_with`] fans them
//! out across a [`pdes_exec::Executor`] pool and intersects the per-repair
//! answer sets in repair order — set intersection commutes, so the result is
//! identical to the sequential fold for every pool size.

use crate::engine::{RepairEngine, RepairError, RepairOutcome};
use pdes_exec::Executor;
use relalg::query::{Formula, QueryEvaluator};
use relalg::{ColumnarDatabase, CqPlan, Database, SymbolTable, Tuple};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Result of a consistent-query-answering run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistentAnswers {
    /// Tuples returned by the query in *every* repair.
    pub answers: BTreeSet<Tuple>,
    /// Number of repairs that were enumerated.
    pub repair_count: usize,
    /// Number of search states explored while enumerating repairs.
    pub states_explored: usize,
}

/// Compute the consistent answers of a query: the tuples that are answers in
/// every repair of `db` w.r.t. the engine's constraints.
///
/// When `db` admits no repair (which can only happen when some relations are
/// protected), the answer set is empty: there is no consistent way to read
/// the data.
pub fn consistent_answers(
    engine: &RepairEngine,
    db: &Database,
    query: &Formula,
    free_vars: &[String],
) -> Result<ConsistentAnswers, RepairError> {
    consistent_answers_with(engine, db, query, free_vars, &Executor::sequential())
}

/// [`consistent_answers`], evaluating the query over the enumerated repairs
/// on `exec`'s workers (repair *enumeration* stays sequential — its search
/// shares a dominance-pruning frontier — but the per-repair evaluation is
/// the hot part once repairs multiply).
///
/// Before enumerating, the engine is restricted to the constraints relevant
/// to the query ([`RepairEngine::restrict_to_relevant`]) whenever that is
/// sound: repairs of constraint components the query cannot observe only
/// multiply the repair count without changing the certain answers, so
/// pruning them shrinks the (exponential) enumeration. The reported
/// `repair_count` is accordingly the count over the *relevant* constraint
/// set.
pub fn consistent_answers_with(
    engine: &RepairEngine,
    db: &Database,
    query: &Formula,
    free_vars: &[String],
    exec: &Executor,
) -> Result<ConsistentAnswers, RepairError> {
    consistent_answers_recorded(engine, db, query, free_vars, exec, &pdes_obs::NullRecorder)
}

/// [`consistent_answers_with`] with the repair search and per-repair query
/// evaluation instrumented on `recorder` (`repair.search` and `eval` spans,
/// and one `cq.fallback` count for a query outside [`CqPlan`]'s fragment).
pub fn consistent_answers_recorded(
    engine: &RepairEngine,
    db: &Database,
    query: &Formula,
    free_vars: &[String],
    exec: &Executor,
    recorder: &dyn pdes_obs::Recorder,
) -> Result<ConsistentAnswers, RepairError> {
    let query_relations = query.relations();
    let restricted = engine.restrict_to_relevant(&query_relations);
    let engine = restricted.as_ref().unwrap_or(engine);
    let RepairOutcome {
        repairs,
        states_explored,
    } = engine.repairs_recorded(db, recorder)?;
    let eval_span = pdes_obs::Span::enter(recorder, "eval");
    let relalg_err = |e| RepairError::Constraint(constraints::ConstraintError::Relalg(e));
    // Interned fast path: queries in the plan's fragment compile once and
    // evaluate over per-repair `u32` column blocks against one shared
    // symbol table (every repair is a subset of `db` plus
    // constraint-introduced tuples, so the table is built once from the
    // dirty instance and extended only by what a repair actually adds);
    // only the final certain set materializes strings. Other formulas
    // (unguarded ∀, bare →, unsafe ¬) run the general evaluator on each
    // repair.
    let answers = match CqPlan::compile(query, free_vars) {
        Some(plan) => {
            let symbols = Arc::new(SymbolTable::new());
            symbols.intern_database(db);
            let rows = exec.try_intersect(&repairs, |repair| {
                let columnar = ColumnarDatabase::from_database(&repair.database, &symbols);
                plan.answers(&columnar).map_err(relalg_err)
            })?;
            CqPlan::materialize(&rows, &symbols)
        }
        None => {
            recorder.count("cq.fallback", 1);
            exec.try_intersect(&repairs, |repair| {
                QueryEvaluator::new(&repair.database)
                    .answers(query, free_vars)
                    .map_err(relalg_err)
            })?
        }
    };
    eval_span.finish();
    Ok(ConsistentAnswers {
        answers,
        repair_count: repairs.len(),
        states_explored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use constraints::builders::{full_inclusion, key_denial};
    use relalg::query::Term;
    use relalg::{Relation, RelationSchema};

    fn vars(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// Classic CQA example: a key FD violated by two tuples sharing a key.
    /// The consistent answers keep only the tuples outside the conflict.
    #[test]
    fn cqa_under_key_violation() {
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new(
            "Emp",
            &["name", "salary"],
        )));
        db.insert("Emp", Tuple::strs(["ann", "100"])).unwrap();
        db.insert("Emp", Tuple::strs(["ann", "200"])).unwrap();
        db.insert("Emp", Tuple::strs(["bob", "150"])).unwrap();
        let engine = RepairEngine::new(vec![key_denial("key", "Emp").unwrap()]);
        let q = Formula::atom("Emp", vec!["X", "Y"]);
        let out = consistent_answers(&engine, &db, &q, &vars(&["X", "Y"])).unwrap();
        assert_eq!(out.repair_count, 2);
        assert_eq!(out.answers, BTreeSet::from([Tuple::strs(["bob", "150"])]));
    }

    #[test]
    fn cqa_existential_query_survives_conflicts() {
        // ∃y Emp(x, y): "ann" exists in every repair even though her salary
        // is uncertain.
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new(
            "Emp",
            &["name", "salary"],
        )));
        db.insert("Emp", Tuple::strs(["ann", "100"])).unwrap();
        db.insert("Emp", Tuple::strs(["ann", "200"])).unwrap();
        let engine = RepairEngine::new(vec![key_denial("key", "Emp").unwrap()]);
        let q = Formula::exists(vec!["Y"], Formula::atom("Emp", vec!["X", "Y"]));
        let out = consistent_answers(&engine, &db, &q, &vars(&["X"])).unwrap();
        assert_eq!(out.answers, BTreeSet::from([Tuple::strs(["ann"])]));
    }

    #[test]
    fn consistent_database_returns_plain_answers() {
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new("R", &["x"])));
        db.insert("R", Tuple::strs(["a"])).unwrap();
        let engine = RepairEngine::new(vec![]);
        let q = Formula::atom("R", vec!["X"]);
        let out = consistent_answers(&engine, &db, &q, &vars(&["X"])).unwrap();
        assert_eq!(out.repair_count, 1);
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        use pdes_exec::ExecConfig;
        // Two independent key conflicts → 4 repairs to evaluate in parallel.
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new(
            "Emp",
            &["name", "salary"],
        )));
        for (n, s) in [
            ("ann", "100"),
            ("ann", "200"),
            ("bob", "150"),
            ("bob", "250"),
            ("eve", "300"),
        ] {
            db.insert("Emp", Tuple::strs([n, s])).unwrap();
        }
        let engine = RepairEngine::new(vec![key_denial("key", "Emp").unwrap()]);
        let q = Formula::atom("Emp", vec!["X", "Y"]);
        let sequential = consistent_answers(&engine, &db, &q, &vars(&["X", "Y"])).unwrap();
        assert_eq!(sequential.repair_count, 4);
        for workers in [2, 4, 8] {
            let exec = Executor::new(ExecConfig::with_workers(workers));
            let parallel =
                consistent_answers_with(&engine, &db, &q, &vars(&["X", "Y"]), &exec).unwrap();
            assert_eq!(parallel, sequential, "{workers} workers");
        }
    }

    #[test]
    fn negation_and_guarded_universals_run_on_the_plan() {
        // Safe negation compiles to the columnar plan's anti-join: `bob` is
        // the only tuple satisfying Emp(X, Y) ∧ ¬Emp(X, "200") in *every*
        // repair ("ann" fails it in the repair that keeps her 200 salary).
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new(
            "Emp",
            &["name", "salary"],
        )));
        db.insert("Emp", Tuple::strs(["ann", "100"])).unwrap();
        db.insert("Emp", Tuple::strs(["ann", "200"])).unwrap();
        db.insert("Emp", Tuple::strs(["bob", "150"])).unwrap();
        let engine = RepairEngine::new(vec![key_denial("key", "Emp").unwrap()]);
        let recorder = pdes_obs::TraceRecorder::new();
        let answer = |q: &Formula, free: &[&str]| {
            consistent_answers_recorded(
                &engine,
                &db,
                q,
                &vars(free),
                &Executor::sequential(),
                &recorder,
            )
            .unwrap()
        };
        let fallbacks = || recorder.registry().counter_value("cq.fallback");
        let q = Formula::and(vec![
            Formula::atom("Emp", vec!["X", "Y"]),
            Formula::not(Formula::atom_terms(
                "Emp",
                vec![Term::var("X"), Term::cnst("200")],
            )),
        ]);
        let out = answer(&q, &["X", "Y"]);
        assert_eq!(out.repair_count, 2);
        assert_eq!(out.answers, BTreeSet::from([Tuple::strs(["bob", "150"])]));
        // A guarded universal runs on the plan too, as a correlated
        // anti-join: Emp(X, Y) ∧ ∀Z (Emp(X, Z) → Z = Y) holds for "ann" in
        // both repairs (each keeps one salary), but with different
        // salaries, so only `bob` is certain.
        let q = Formula::and(vec![
            Formula::atom("Emp", vec!["X", "Y"]),
            Formula::forall(
                vec!["Z"],
                Formula::implies(
                    Formula::atom("Emp", vec!["X", "Z"]),
                    Formula::eq(Term::var("Z"), Term::var("Y")),
                ),
            ),
        ]);
        assert!(CqPlan::compile(&q, &vars(&["X", "Y"])).is_some());
        let out = answer(&q, &["X", "Y"]);
        assert_eq!(out.answers, BTreeSet::from([Tuple::strs(["bob", "150"])]));
        let out = answer(&q, &["X"]);
        assert_eq!(
            out.answers,
            BTreeSet::from([Tuple::strs(["ann"]), Tuple::strs(["bob"])])
        );
        assert_eq!(fallbacks(), 0);
        // An unguarded universal leaves the fragment and takes the general
        // evaluator: Emp(X, Y) ∧ ∀Z Emp(X, Z) ranges over the active domain,
        // so no employee has every value as a salary.
        let q = Formula::and(vec![
            Formula::atom("Emp", vec!["X", "Y"]),
            Formula::forall(vec!["Z"], Formula::atom("Emp", vec!["X", "Z"])),
        ]);
        assert!(CqPlan::compile(&q, &vars(&["X", "Y"])).is_none());
        assert!(answer(&q, &["X", "Y"]).answers.is_empty());
        assert_eq!(fallbacks(), 1);
    }

    #[test]
    fn irrelevant_constraint_components_are_pruned() {
        // Key conflicts in Emp and Dept: 2 × 2 = 4 full repairs, but a query
        // on Emp only needs Emp's component — 2 repairs, same answers.
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new(
            "Emp",
            &["name", "salary"],
        )));
        db.add_relation(Relation::new(RelationSchema::new("Dept", &["id", "head"])));
        db.insert("Emp", Tuple::strs(["ann", "100"])).unwrap();
        db.insert("Emp", Tuple::strs(["ann", "200"])).unwrap();
        db.insert("Emp", Tuple::strs(["bob", "150"])).unwrap();
        db.insert("Dept", Tuple::strs(["d1", "x"])).unwrap();
        db.insert("Dept", Tuple::strs(["d1", "y"])).unwrap();
        let engine = RepairEngine::new(vec![
            key_denial("emp_key", "Emp").unwrap(),
            key_denial("dept_key", "Dept").unwrap(),
        ]);
        assert_eq!(engine.repairs(&db).unwrap().repairs.len(), 4);
        let q = Formula::atom("Emp", vec!["X", "Y"]);
        let out = consistent_answers(&engine, &db, &q, &vars(&["X", "Y"])).unwrap();
        assert_eq!(out.repair_count, 2, "only Emp's component is enumerated");
        assert_eq!(out.answers, BTreeSet::from([Tuple::strs(["bob", "150"])]));
    }

    #[test]
    fn protected_relations_block_the_relevance_restriction() {
        // The dropped component would be unrepairable (protected relations):
        // the full system has no repairs, so the query must see none — the
        // restriction is refused and the answers stay empty.
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new("A", &["x"])));
        db.add_relation(Relation::new(RelationSchema::new("B", &["x"])));
        db.add_relation(Relation::new(RelationSchema::new("C", &["x"])));
        db.insert("A", Tuple::strs(["v"])).unwrap();
        db.insert("C", Tuple::strs(["w"])).unwrap();
        let engine = RepairEngine::new(vec![full_inclusion("inc", "A", "B", 1).unwrap()])
            .with_protected(["A", "B"]);
        assert!(engine
            .restrict_to_relevant(&BTreeSet::from(["C".to_string()]))
            .is_none());
        let q = Formula::atom("C", vec!["X"]);
        let out = consistent_answers(&engine, &db, &q, &vars(&["X"])).unwrap();
        assert_eq!(out.repair_count, 0);
        assert!(out.answers.is_empty());
    }

    #[test]
    fn no_repairs_means_no_answers() {
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new("A", &["x"])));
        db.add_relation(Relation::new(RelationSchema::new("B", &["x"])));
        db.insert("A", Tuple::strs(["v"])).unwrap();
        let engine = RepairEngine::new(vec![full_inclusion("inc", "A", "B", 1).unwrap()])
            .with_protected(["A", "B"]);
        let q = Formula::atom("A", vec!["X"]);
        let out = consistent_answers(&engine, &db, &q, &vars(&["X"])).unwrap();
        assert_eq!(out.repair_count, 0);
        assert!(out.answers.is_empty());
    }
}
