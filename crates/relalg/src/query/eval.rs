//! Active-domain evaluation of first-order queries.
//!
//! Two entry points:
//!
//! * [`QueryEvaluator::holds`] — boolean satisfaction `r |= Q` of a sentence
//!   (or of a formula under a given binding of its free variables); used to
//!   check constraints and to test candidate answers;
//! * [`QueryEvaluator::answers`] — the full answer set of a query with free
//!   variables, computed by *safe-range* binding propagation: relational
//!   atoms, conjunctions, disjunctions and existentials produce bindings,
//!   while negation, universals, implications and comparisons act as filters
//!   over bindings that are already complete for their free variables.
//!
//! Quantifiers range over the active domain of the database (all constants
//! appearing in some tuple), which is the standard finite-model reading used
//! by the consistent-query-answering literature the paper builds on.

use crate::database::Database;
use crate::error::RelalgError;
use crate::query::ast::{Binding, Formula, Term};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::collections::BTreeSet;

/// Evaluates first-order formulas against a fixed database instance.
pub struct QueryEvaluator<'a> {
    db: &'a Database,
    domain: Vec<Value>,
}

impl<'a> QueryEvaluator<'a> {
    /// Create an evaluator for the given database. The active domain is
    /// computed once and reused by every quantifier.
    pub fn new(db: &'a Database) -> Self {
        let domain: Vec<Value> = db.active_domain().into_iter().collect();
        QueryEvaluator { db, domain }
    }

    /// Create an evaluator with an explicitly supplied domain (used when a
    /// query must range over the active domain of a *larger* instance, e.g.
    /// the union of several peers).
    pub fn with_domain(db: &'a Database, domain: impl IntoIterator<Item = Value>) -> Self {
        let mut dom: BTreeSet<Value> = db.active_domain();
        dom.extend(domain);
        QueryEvaluator {
            db,
            domain: dom.into_iter().collect(),
        }
    }

    /// The active domain used by quantifiers.
    pub fn domain(&self) -> &[Value] {
        &self.domain
    }

    /// Does the sentence hold in the database? Errors if the formula has
    /// free variables.
    pub fn holds_sentence(&self, formula: &Formula) -> Result<bool> {
        let free = formula.free_variables();
        if let Some(v) = free.into_iter().next() {
            return Err(RelalgError::UnboundVariable(v));
        }
        self.holds(formula, &Binding::new())
    }

    /// Does the formula hold under the given binding? Every free variable of
    /// the formula must be bound.
    pub fn holds(&self, formula: &Formula, binding: &Binding) -> Result<bool> {
        match formula {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Atom { relation, terms } => {
                let tuple = self.resolve_tuple(terms, binding)?;
                Ok(self.db.holds(relation, &tuple))
            }
            Formula::Compare { op, left, right } => {
                let l = Self::resolve_term(left, binding)?;
                let r = Self::resolve_term(right, binding)?;
                Ok(op.apply(&l, &r))
            }
            Formula::Not(inner) => Ok(!self.holds(inner, binding)?),
            Formula::And(parts) => {
                for p in parts {
                    if !self.holds(p, binding)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(parts) => {
                for p in parts {
                    if self.holds(p, binding)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Implies(lhs, rhs) => {
                Ok(!self.holds(lhs, binding)? || self.holds(rhs, binding)?)
            }
            Formula::Exists(vars, inner) => self.quantify(vars, inner, binding, false),
            Formula::Forall(vars, inner) => self.quantify(vars, inner, binding, true),
        }
    }

    /// Evaluate a quantifier block by iterating assignments of `vars` over
    /// the active domain. `universal == true` computes ∀, otherwise ∃.
    fn quantify(
        &self,
        vars: &[String],
        inner: &Formula,
        binding: &Binding,
        universal: bool,
    ) -> Result<bool> {
        // For ∀ with an implication body whose antecedent contains relational
        // atoms we could enumerate only matching bindings, but the general
        // product over the active domain is kept for clarity; constraints are
        // checked through the `constraints` crate which uses the optimized
        // path in `bindings`.
        let mut stack = vec![binding.clone()];
        for v in vars {
            let mut next = Vec::with_capacity(stack.len() * self.domain.len().max(1));
            for b in &stack {
                for value in &self.domain {
                    let mut nb = b.clone();
                    nb.insert(v.clone(), value.clone());
                    next.push(nb);
                }
            }
            stack = next;
        }
        if universal {
            for b in &stack {
                if !self.holds(inner, b)? {
                    return Ok(false);
                }
            }
            Ok(true)
        } else {
            for b in &stack {
                if self.holds(inner, b)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }

    /// Compute the answer set of a query: all tuples of values for
    /// `free_vars` (in the given order) such that the formula holds.
    ///
    /// The evaluation is *safe-range*: bindings are produced by relational
    /// atoms and combined through conjunction / disjunction / existential
    /// quantification; negated subformulas, universals, implications and
    /// comparisons are evaluated as boolean filters once their free variables
    /// are bound. A query whose disjuncts do not bind all requested variables
    /// is rejected with [`RelalgError::UnboundVariable`].
    pub fn answers(&self, formula: &Formula, free_vars: &[String]) -> Result<BTreeSet<Tuple>> {
        let bindings = self.bindings(formula, &Binding::new())?;
        let mut out = BTreeSet::new();
        for b in bindings {
            let mut values = Vec::with_capacity(free_vars.len());
            for v in free_vars {
                match b.get(v) {
                    Some(value) => values.push(value.clone()),
                    None => return Err(RelalgError::UnboundVariable(v.clone())),
                }
            }
            out.insert(Tuple::new(values));
        }
        Ok(out)
    }

    /// Boolean query: true iff the formula (closed or not) has at least one
    /// satisfying binding.
    pub fn any_answer(&self, formula: &Formula) -> Result<bool> {
        Ok(!self.bindings(formula, &Binding::new())?.is_empty())
    }

    /// Produce all extensions of `input` that satisfy the formula.
    ///
    /// Binding-producing cases return one binding per match; filter cases
    /// return the input binding when the formula holds under it.
    pub fn bindings(&self, formula: &Formula, input: &Binding) -> Result<Vec<Binding>> {
        match formula {
            Formula::True => Ok(vec![input.clone()]),
            Formula::False => Ok(vec![]),
            Formula::Atom { relation, terms } => self.match_atom(relation, terms, input),
            Formula::And(parts) => {
                // Process binding producers before filters so that filters see
                // complete bindings (safe-range ordering).
                let mut producers = Vec::new();
                let mut filters = Vec::new();
                for p in parts {
                    if Self::produces_bindings(p) {
                        producers.push(p);
                    } else {
                        filters.push(p);
                    }
                }
                let mut current = vec![input.clone()];
                for p in producers {
                    let mut next = Vec::new();
                    for b in &current {
                        next.extend(self.bindings(p, b)?);
                    }
                    current = next;
                    if current.is_empty() {
                        return Ok(current);
                    }
                }
                let mut out = Vec::new();
                'outer: for b in current {
                    for p in &filters {
                        if !self.holds_or_bind(p, &b)? {
                            continue 'outer;
                        }
                    }
                    out.push(b);
                }
                Ok(out)
            }
            Formula::Or(parts) => {
                let mut out = Vec::new();
                let mut seen = BTreeSet::new();
                for p in parts {
                    for b in self.bindings(p, input)? {
                        if seen.insert(b.clone()) {
                            out.push(b);
                        }
                    }
                }
                Ok(out)
            }
            Formula::Exists(vars, inner) => {
                // The quantified variables are the quantifier's own: an
                // outer binding of the same name is hidden inside.
                let mut scoped = input.clone();
                for v in vars {
                    scoped.remove(v);
                }
                let mut out = Vec::new();
                let mut seen = BTreeSet::new();
                for mut b in self.bindings(inner, &scoped)? {
                    for v in vars {
                        b.remove(v);
                    }
                    // Re-apply the outer binding for quantified variables that
                    // were shadowed.
                    for (k, val) in input {
                        b.entry(k.clone()).or_insert_with(|| val.clone());
                    }
                    if seen.insert(b.clone()) {
                        out.push(b);
                    }
                }
                Ok(out)
            }
            // Filters: evaluate as boolean under the input binding.
            Formula::Compare { .. }
            | Formula::Not(_)
            | Formula::Implies(_, _)
            | Formula::Forall(_, _) => {
                if self.holds_filter(formula, input)? {
                    Ok(vec![input.clone()])
                } else {
                    Ok(vec![])
                }
            }
        }
    }

    /// True for formulas that can *produce* bindings for unbound variables.
    fn produces_bindings(formula: &Formula) -> bool {
        matches!(
            formula,
            Formula::Atom { .. }
                | Formula::And(_)
                | Formula::Or(_)
                | Formula::Exists(_, _)
                | Formula::True
                | Formula::False
        )
    }

    /// Evaluate a filter conjunct: all its free variables must already be
    /// bound by the input binding.
    fn holds_filter(&self, formula: &Formula, binding: &Binding) -> Result<bool> {
        for v in formula.free_variables() {
            if !binding.contains_key(&v) {
                return Err(RelalgError::UnboundVariable(v));
            }
        }
        self.holds(formula, binding)
    }

    /// Used for filter conjuncts inside `And`: if the filter happens to be a
    /// producer (nested Or/Exists already handled), evaluate as existence.
    fn holds_or_bind(&self, formula: &Formula, binding: &Binding) -> Result<bool> {
        if Self::produces_bindings(formula) {
            Ok(!self.bindings(formula, binding)?.is_empty())
        } else {
            self.holds_filter(formula, binding)
        }
    }

    /// Match a relational atom against the database, extending the binding.
    fn match_atom(&self, relation: &str, terms: &[Term], input: &Binding) -> Result<Vec<Binding>> {
        let rel = match self.db.relation(relation) {
            Some(r) => r,
            // A relation that the instance does not declare is simply empty:
            // queries may mention other peers' relations that are not
            // materialized locally.
            None => return Ok(vec![]),
        };
        if rel.arity() != terms.len() {
            return Err(RelalgError::ArityMismatch {
                relation: relation.to_string(),
                expected: rel.arity(),
                found: terms.len(),
            });
        }
        let mut out = Vec::new();
        'tuples: for tuple in rel.iter() {
            let mut binding = input.clone();
            for (term, value) in terms.iter().zip(tuple.iter()) {
                match term {
                    Term::Const(c) => {
                        if c != value {
                            continue 'tuples;
                        }
                    }
                    Term::Var(v) => match binding.get(v) {
                        Some(bound) if bound != value => continue 'tuples,
                        Some(_) => {}
                        None => {
                            binding.insert(v.clone(), value.clone());
                        }
                    },
                }
            }
            out.push(binding);
        }
        Ok(out)
    }

    fn resolve_tuple(&self, terms: &[Term], binding: &Binding) -> Result<Tuple> {
        let mut values = Vec::with_capacity(terms.len());
        for t in terms {
            values.push(Self::resolve_term(t, binding)?);
        }
        Ok(Tuple::new(values))
    }

    fn resolve_term(term: &Term, binding: &Binding) -> Result<Value> {
        term.resolve(binding)
            .cloned()
            .ok_or_else(|| RelalgError::UnboundVariable(term.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ast::CompareOp;
    use crate::relation::Relation;
    use crate::schema::RelationSchema;

    /// Database mirroring Example 1 of the paper.
    fn example1_db() -> Database {
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new("R1", &["x", "y"])));
        db.add_relation(Relation::new(RelationSchema::new("R2", &["x", "y"])));
        db.add_relation(Relation::new(RelationSchema::new("R3", &["x", "y"])));
        for (r, a, b) in [
            ("R1", "a", "b"),
            ("R1", "s", "t"),
            ("R2", "c", "d"),
            ("R2", "a", "e"),
            ("R3", "a", "f"),
            ("R3", "s", "u"),
        ] {
            db.insert(r, Tuple::strs([a, b])).unwrap();
        }
        db
    }

    fn vars(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn atom_answers_enumerate_relation() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        let q = Formula::atom("R1", vec!["X", "Y"]);
        let ans = eval.answers(&q, &vars(&["X", "Y"])).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&Tuple::strs(["a", "b"])));
        assert!(ans.contains(&Tuple::strs(["s", "t"])));
    }

    #[test]
    fn constants_in_atoms_filter_matches() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        let q = Formula::atom("R2", vec!["a", "Y"]);
        let ans = eval.answers(&q, &vars(&["Y"])).unwrap();
        assert_eq!(ans, BTreeSet::from([Tuple::strs(["e"])]));
    }

    #[test]
    fn join_through_shared_variable() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        // R1(X, Y) and R3(X, Z): joins on X = a and X = s.
        let q = Formula::and(vec![
            Formula::atom("R1", vec!["X", "Y"]),
            Formula::atom("R3", vec!["X", "Z"]),
        ]);
        let ans = eval.answers(&q, &vars(&["X", "Y", "Z"])).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&Tuple::strs(["a", "b", "f"])));
        assert!(ans.contains(&Tuple::strs(["s", "t", "u"])));
    }

    #[test]
    fn union_query_brings_in_other_relation() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        // The Example 2 intermediate rewriting Q': R1(x, y) ∨ R2(x, y).
        let q = Formula::or(vec![
            Formula::atom("R1", vec!["X", "Y"]),
            Formula::atom("R2", vec!["X", "Y"]),
        ]);
        let ans = eval.answers(&q, &vars(&["X", "Y"])).unwrap();
        assert_eq!(ans.len(), 4);
        assert!(ans.contains(&Tuple::strs(["c", "d"])));
    }

    #[test]
    fn negation_as_filter() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        // Tuples of R1 whose key does not appear in R3.
        let q = Formula::and(vec![
            Formula::atom("R1", vec!["X", "Y"]),
            Formula::not(Formula::exists(
                vec!["Z"],
                Formula::atom("R3", vec!["X", "Z"]),
            )),
        ]);
        let ans = eval.answers(&q, &vars(&["X", "Y"])).unwrap();
        assert!(ans.is_empty());
        // And of R2: (c, d) has no R3 partner.
        let q2 = Formula::and(vec![
            Formula::atom("R2", vec!["X", "Y"]),
            Formula::not(Formula::exists(
                vec!["Z"],
                Formula::atom("R3", vec!["X", "Z"]),
            )),
        ]);
        let ans2 = eval.answers(&q2, &vars(&["X", "Y"])).unwrap();
        assert_eq!(ans2, BTreeSet::from([Tuple::strs(["c", "d"])]));
    }

    #[test]
    fn universal_filter_inside_conjunction() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        // R1(X, Y) and forall Z (R3(X, Z) -> Z = Y): no R1 tuple agrees with R3.
        let q = Formula::and(vec![
            Formula::atom("R1", vec!["X", "Y"]),
            Formula::forall(
                vec!["Z"],
                Formula::implies(
                    Formula::atom("R3", vec!["X", "Z"]),
                    Formula::eq(Term::var("Z"), Term::var("Y")),
                ),
            ),
        ]);
        let ans = eval.answers(&q, &vars(&["X", "Y"])).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn sentences_constraint_check() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        // Σ(P1, P2): ∀x∀y (R2(x, y) → R1(x, y)) — violated.
        let dec12 = Formula::forall(
            vec!["X", "Y"],
            Formula::implies(
                Formula::atom("R2", vec!["X", "Y"]),
                Formula::atom("R1", vec!["X", "Y"]),
            ),
        );
        assert!(!eval.holds_sentence(&dec12).unwrap());
        // ∀x∀y (R1(x, y) → R1(x, y)) — trivially true.
        let trivial = Formula::forall(
            vec!["X", "Y"],
            Formula::implies(
                Formula::atom("R1", vec!["X", "Y"]),
                Formula::atom("R1", vec!["X", "Y"]),
            ),
        );
        assert!(eval.holds_sentence(&trivial).unwrap());
    }

    #[test]
    fn holds_sentence_rejects_free_variables() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        let open = Formula::atom("R1", vec!["X", "Y"]);
        assert!(matches!(
            eval.holds_sentence(&open),
            Err(RelalgError::UnboundVariable(_))
        ));
    }

    #[test]
    fn answers_error_on_unbound_requested_variable() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        let q = Formula::atom("R1", vec!["X", "Y"]);
        let err = eval.answers(&q, &vars(&["Z"])).unwrap_err();
        assert!(matches!(err, RelalgError::UnboundVariable(v) if v == "Z"));
    }

    #[test]
    fn unknown_relation_is_empty_not_error() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        let q = Formula::atom("Nowhere", vec!["X"]);
        assert!(eval.answers(&q, &vars(&["X"])).unwrap().is_empty());
    }

    #[test]
    fn arity_mismatch_is_detected() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        let q = Formula::atom("R1", vec!["X"]);
        assert!(matches!(
            eval.answers(&q, &vars(&["X"])),
            Err(RelalgError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn comparisons_filter_bindings() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        let q = Formula::and(vec![
            Formula::atom("R1", vec!["X", "Y"]),
            Formula::compare(CompareOp::Neq, Term::var("X"), Term::cnst("a")),
        ]);
        let ans = eval.answers(&q, &vars(&["X", "Y"])).unwrap();
        assert_eq!(ans, BTreeSet::from([Tuple::strs(["s", "t"])]));
    }

    #[test]
    fn example2_final_rewriting_is_evaluable() {
        // Q'' from Example 2, evaluated over the *original* instances:
        // [R1(x,y) ∧ ∀z1 (R3(x,z1) ∧ ¬∃z2 R2(x,z2) → z1 = y)] ∨ R2(x,y)
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        let guard = Formula::forall(
            vec!["Z1"],
            Formula::implies(
                Formula::and(vec![
                    Formula::atom("R3", vec!["X", "Z1"]),
                    Formula::not(Formula::exists(
                        vec!["Z2"],
                        Formula::atom("R2", vec!["X", "Z2"]),
                    )),
                ]),
                Formula::eq(Term::var("Z1"), Term::var("Y")),
            ),
        );
        let q = Formula::or(vec![
            Formula::and(vec![Formula::atom("R1", vec!["X", "Y"]), guard]),
            Formula::atom("R2", vec!["X", "Y"]),
        ]);
        let ans = eval.answers(&q, &vars(&["X", "Y"])).unwrap();
        // The paper's peer consistent answers: (a, b), (c, d), (a, e).
        assert_eq!(
            ans,
            BTreeSet::from([
                Tuple::strs(["a", "b"]),
                Tuple::strs(["c", "d"]),
                Tuple::strs(["a", "e"]),
            ])
        );
    }

    #[test]
    fn existentials_shadow_outer_bindings() {
        let db = example1_db();
        let eval = QueryEvaluator::new(&db);
        // R1(X, Y) ∧ ∃Y R2(X, Y): the existential's Y is not R1's, so
        // (a, b) qualifies through R2(a, e).
        let q = Formula::and(vec![
            Formula::atom("R1", vec!["X", "Y"]),
            Formula::exists(vec!["Y"], Formula::atom("R2", vec!["X", "Y"])),
        ]);
        let ans = eval.answers(&q, &vars(&["X", "Y"])).unwrap();
        assert_eq!(ans, BTreeSet::from([Tuple::strs(["a", "b"])]));
    }

    #[test]
    fn with_domain_extends_quantifier_range() {
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new("R", &["x"])));
        let eval = QueryEvaluator::with_domain(&db, [Value::str("extra")]);
        assert_eq!(eval.domain().len(), 1);
        // exists X (X = extra) holds only because the domain was extended.
        let q = Formula::exists(vec!["X"], Formula::eq(Term::var("X"), Term::cnst("extra")));
        assert!(eval.holds_sentence(&q).unwrap());
    }
}
