//! First-order query rewriting (the Example 2 mechanism).
//!
//! For a restricted — but practically common — class of DECs, peer consistent
//! answers can be obtained by rewriting the original query `Q ∈ L(P)` into a
//! new first-order query `Q''` over the *original* material instances and
//! evaluating it directly, with no repair or answer-set computation at all:
//!
//! * a full inclusion dependency `∀x̄ (R_Q(x̄) → R_P(x̄))` towards a **more
//!   trusted** peer `Q` contributes a *union*: every occurrence of `R_P(t̄)`
//!   in the query becomes `R_P(t̄) ∨ R_Q(t̄)` (the data is virtually imported);
//! * an equality-generating DEC `∀x y z (R_P(x, y) ∧ R_T(x, z) → y = z)`
//!   towards a **same-trusted** peer `T` contributes a *guard* on the
//!   original `R_P` tuples: `R_P(x, y)` survives only if every conflicting
//!   `R_T(x, z)` is itself doomed — i.e. unless the key `x` is "protected" by
//!   a more-trusted import that forces some `R_P(x, ·)` tuple to stay, in
//!   which case the `R_T` tuple must be deleted instead and the guard is
//!   vacuous.
//!
//! Applied to Example 1 this produces exactly the paper's rewriting (1):
//!
//! ```text
//! Q'': [R1(x, y) ∧ ∀z1 (R3(x, z1) ∧ ¬∃z2 R2(x, z2) → z1 = y)] ∨ R2(x, y)
//! ```
//!
//! The engine's rewriting strategy evaluates `Q''` as a
//! [`relalg::CqPlan`] over the global instance interned as columnar id
//! blocks. The guard is a guarded universal, which the plan runs the way
//! the consistent-query-answering literature evaluates it, as a `NOT
//! EXISTS` anti-join: `¬∃z1 (R3(x, z1) ∧ ¬∃z2 R2(x, z2) ∧ z1 ≠ y)`, with
//! the inner `¬∃z2` a nested anti-join. A query joining several rewritten
//! atoms distributes its `∧` over their `∨` into a union of such blocks.
//!
//! The mechanism is *sound but not complete* in general — the paper notes
//! that "a FO query rewriting approach to P2P query answering is bound to
//! have important limitations" (Section 2) — so [`rewrite_query`] refuses
//! queries or DEC configurations outside the supported fragment with
//! [`CoreError::Unsupported`], and callers fall back to the answer-set
//! mechanism.

use crate::error::CoreError;
use crate::system::{P2PSystem, PeerId};
use crate::Result;
use constraints::{Constraint, ConstraintClass, ConstraintHead};
use relalg::query::{Formula, Term};

/// A compiled rewriting for one peer: how each of the peer's relations is
/// expanded with imports and guards.
#[derive(Debug, Clone, Default)]
pub(crate) struct RelationRewrite {
    /// Relations (of more trusted peers) whose full contents are imported.
    imports: Vec<String>,
    /// Conflicting relations (of same-trusted peers) from equality-generating
    /// DECs of the form `R_P(x, y) ∧ R_T(x, z) → y = z`.
    conflicts: Vec<String>,
}

/// Rewrite a query posed to `peer` into a query over the original material
/// instances whose standard answers are the peer consistent answers.
///
/// Errors with [`CoreError::Unsupported`] when the peer's trusted DECs or the
/// query fall outside the supported fragment (see the module docs).
pub fn rewrite_query(system: &P2PSystem, peer: &PeerId, query: &Formula) -> Result<Formula> {
    let peer_data = system.peer(peer)?;
    // Only positive (∧ / ∨ / ∃) queries over the peer's own relations are
    // supported: rewriting under negation is not sound for this recipe.
    for relation in query.relations() {
        if !peer_data.schema.contains(&relation) {
            return Err(CoreError::UnknownRelation {
                peer: peer.to_string(),
                relation,
            });
        }
    }
    ensure_positive(query)?;
    let rewrites = compile_rewrites(system, peer)?;
    Ok(rewrite_formula(query, &rewrites))
}

/// Compile the per-relation rewrites from the peer's trusted DECs, refusing
/// configurations outside the rewritable class (the Example 2 fragment:
/// full inclusion DECs towards more-trusted peers, binary key-agreement DECs
/// towards same-trusted peers, no local ICs).
pub(crate) fn compile_rewrites(
    system: &P2PSystem,
    peer: &PeerId,
) -> Result<std::collections::BTreeMap<String, RelationRewrite>> {
    let peer_data = system.peer(peer)?;
    if !peer_data.local_ics.is_empty() {
        return Err(CoreError::Unsupported(
            "FO rewriting does not handle local integrity constraints; use the ASP mechanism"
                .to_string(),
        ));
    }
    let (less, same) = system.trusted_decs_of(peer);
    let mut rewrites: std::collections::BTreeMap<String, RelationRewrite> =
        std::collections::BTreeMap::new();
    for dec in less {
        let target = inclusion_target(&dec.constraint, peer_data, system, &dec.other)?;
        match target {
            Some((source, target)) => {
                rewrites.entry(target).or_default().imports.push(source);
            }
            None => {
                return Err(CoreError::Unsupported(format!(
                    "DEC `{}` is not a full inclusion dependency into one of the peer's relations",
                    dec.constraint.name
                )))
            }
        }
    }
    for dec in same {
        let conflict = key_agreement_shape(&dec.constraint, peer_data)?;
        match conflict {
            Some((own, other)) => {
                rewrites.entry(own).or_default().conflicts.push(other);
            }
            None => {
                return Err(CoreError::Unsupported(format!(
                    "DEC `{}` is not a binary key-agreement constraint; use the ASP mechanism",
                    dec.constraint.name
                )))
            }
        }
    }
    Ok(rewrites)
}

/// Query-side companion of [`crate::analyze::classify_rewritability`]: is
/// the query in the positive existential fragment the rewriting handles?
pub fn supports_query(query: &Formula) -> bool {
    ensure_positive(query).is_ok()
}

/// Check that a query is built from atoms, conjunction, disjunction and
/// existential quantification only.
fn ensure_positive(query: &Formula) -> Result<()> {
    match query {
        Formula::True | Formula::False | Formula::Atom { .. } | Formula::Compare { .. } => Ok(()),
        Formula::And(parts) | Formula::Or(parts) => parts.iter().try_for_each(ensure_positive),
        Formula::Exists(_, inner) => ensure_positive(inner),
        Formula::Not(_) | Formula::Implies(_, _) | Formula::Forall(_, _) => {
            Err(CoreError::Unsupported(
                "FO rewriting supports positive existential queries only; use the ASP mechanism"
                    .to_string(),
            ))
        }
    }
}

/// Recognize a full inclusion dependency `R_other(x̄) → R_peer(x̄)` and return
/// `(source, target)` relation names.
pub(crate) fn inclusion_target(
    constraint: &Constraint,
    peer: &crate::system::Peer,
    system: &P2PSystem,
    other: &PeerId,
) -> Result<Option<(String, String)>> {
    if constraint.class() != ConstraintClass::Universal
        || constraint.body.len() != 1
        || !constraint.conditions.is_empty()
    {
        return Ok(None);
    }
    let head_atoms = match &constraint.head {
        ConstraintHead::Atoms(atoms) if atoms.len() == 1 => atoms,
        _ => return Ok(None),
    };
    let body = &constraint.body[0];
    let head = &head_atoms[0];
    // The body relation must belong to the other (more trusted) peer and the
    // head relation to the queried peer, with identical variable vectors.
    let other_peer = system.peer(other)?;
    if !other_peer.schema.contains(&body.relation) || !peer.schema.contains(&head.relation) {
        return Ok(None);
    }
    if body.terms != head.terms || body.terms.iter().any(|t| !t.is_var()) {
        return Ok(None);
    }
    Ok(Some((body.relation.clone(), head.relation.clone())))
}

/// Recognize the key-agreement shape `R_peer(x, y) ∧ R_other(x, z) → y = z`
/// and return `(peer_relation, other_relation)`.
pub(crate) fn key_agreement_shape(
    constraint: &Constraint,
    peer: &crate::system::Peer,
) -> Result<Option<(String, String)>> {
    if constraint.class() != ConstraintClass::EqualityGenerating || constraint.body.len() != 2 {
        return Ok(None);
    }
    let (l, r) = match &constraint.head {
        ConstraintHead::Equality(Term::Var(l), Term::Var(r)) => (l.clone(), r.clone()),
        _ => return Ok(None),
    };
    let a = &constraint.body[0];
    let b = &constraint.body[1];
    if a.terms.len() != 2 || b.terms.len() != 2 {
        return Ok(None);
    }
    // Shared key variable in the first position, value variables equated.
    let shared_key = a.terms[0] == b.terms[0] && a.terms[0].is_var();
    let values_equated = (a.terms[1] == Term::Var(l.clone()) && b.terms[1] == Term::Var(r.clone()))
        || (a.terms[1] == Term::Var(r.clone()) && b.terms[1] == Term::Var(l));
    if !shared_key || !values_equated {
        return Ok(None);
    }
    // One side is the peer's relation, the other the same-trusted peer's.
    if peer.schema.contains(&a.relation) && !peer.schema.contains(&b.relation) {
        Ok(Some((a.relation.clone(), b.relation.clone())))
    } else if peer.schema.contains(&b.relation) && !peer.schema.contains(&a.relation) {
        Ok(Some((b.relation.clone(), a.relation.clone())))
    } else {
        Ok(None)
    }
}

/// Apply the per-relation rewrites to every atom of the query.
fn rewrite_formula(
    query: &Formula,
    rewrites: &std::collections::BTreeMap<String, RelationRewrite>,
) -> Formula {
    match query {
        Formula::Atom { relation, terms } => match rewrites.get(relation) {
            None => query.clone(),
            Some(rw) => rewrite_atom(relation, terms, rw),
        },
        Formula::And(parts) => {
            Formula::and(parts.iter().map(|p| rewrite_formula(p, rewrites)).collect())
        }
        Formula::Or(parts) => {
            Formula::or(parts.iter().map(|p| rewrite_formula(p, rewrites)).collect())
        }
        Formula::Exists(vars, inner) => {
            Formula::Exists(vars.clone(), Box::new(rewrite_formula(inner, rewrites)))
        }
        other => other.clone(),
    }
}

/// Rewrite a single atom `R_P(t̄)` according to its imports and guards.
fn rewrite_atom(relation: &str, terms: &[Term], rw: &RelationRewrite) -> Formula {
    // Fresh variable names that cannot clash with user variables.
    let key_term = terms[0].clone();
    let value_term = terms.get(1).cloned().unwrap_or_else(|| key_term.clone());

    // Guarded original atom: R_P(t̄) ∧ for every conflict relation T:
    //   ∀z1 (T(key, z1) ∧ ¬protected(key) → z1 = value)
    // where protected(key) = ∃z2 S(key, z2) for every import source S.
    let mut guarded = vec![Formula::atom_terms(relation.to_string(), terms.to_vec())];
    for (ci, conflict) in rw.conflicts.iter().enumerate() {
        let z1 = format!("_Z1_{ci}");
        let protection = Formula::or(
            rw.imports
                .iter()
                .enumerate()
                .map(|(ii, import)| {
                    let z2 = format!("_Z2_{ci}_{ii}");
                    Formula::exists(
                        vec![z2.clone()],
                        Formula::atom_terms(import.clone(), vec![key_term.clone(), Term::var(z2)]),
                    )
                })
                .collect(),
        );
        let antecedent = Formula::and(vec![
            Formula::atom_terms(
                conflict.clone(),
                vec![key_term.clone(), Term::var(z1.clone())],
            ),
            Formula::not(protection),
        ]);
        guarded.push(Formula::forall(
            vec![z1.clone()],
            Formula::implies(antecedent, Formula::eq(Term::var(z1), value_term.clone())),
        ));
    }

    // Imported disjuncts: the more-trusted sources contribute their tuples
    // unconditionally.
    let mut disjuncts = vec![Formula::and(guarded)];
    for import in &rw.imports {
        disjuncts.push(Formula::atom_terms(import.clone(), terms.to_vec()));
    }
    Formula::or(disjuncts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{QueryEngine, Strategy};
    use crate::pca::vars;
    use crate::system::example1_system;
    use relalg::query::QueryEvaluator;
    use relalg::Tuple;
    use std::collections::BTreeSet;

    /// Evaluate the rewritten query over the global instance (what the
    /// engine's rewriting strategy does, without its cache).
    fn answers_via_rewrite(
        system: &P2PSystem,
        peer: &PeerId,
        query: &Formula,
        free_vars: &[String],
    ) -> BTreeSet<Tuple> {
        let rewritten = rewrite_query(system, peer, query).unwrap();
        let global = system.global_instance().unwrap();
        QueryEvaluator::new(&global)
            .answers(&rewritten, free_vars)
            .unwrap()
    }

    #[test]
    fn example2_rewriting_produces_the_papers_answers() {
        let sys = example1_system();
        let p1 = PeerId::new("P1");
        let q = Formula::atom("R1", vec!["X", "Y"]);
        let rewritten = rewrite_query(&sys, &p1, &q).unwrap();
        assert_eq!(
            answers_via_rewrite(&sys, &p1, &q, &vars(&["X", "Y"])),
            BTreeSet::from([
                Tuple::strs(["a", "b"]),
                Tuple::strs(["c", "d"]),
                Tuple::strs(["a", "e"]),
            ])
        );
        // The rewritten query mentions both other peers' relations.
        let rels = rewritten.relations();
        assert!(rels.contains("R1"));
        assert!(rels.contains("R2"));
        assert!(rels.contains("R3"));
    }

    #[test]
    fn rewriting_agrees_with_solution_semantics_on_example1() {
        let sys = example1_system();
        let p1 = PeerId::new("P1");
        let engine = QueryEngine::builder(sys.clone())
            .strategy(Strategy::Naive)
            .build();
        for (q, fv) in [
            (Formula::atom("R1", vec!["X", "Y"]), vars(&["X", "Y"])),
            (
                Formula::exists(vec!["Y"], Formula::atom("R1", vec!["X", "Y"])),
                vars(&["X"]),
            ),
        ] {
            let semantic = engine.answer(&p1, &q, &fv).unwrap();
            assert_eq!(
                semantic.tuples,
                answers_via_rewrite(&sys, &p1, &q, &fv),
                "query {q}"
            );
        }
    }

    #[test]
    fn negated_queries_are_rejected() {
        let sys = example1_system();
        let p1 = PeerId::new("P1");
        let q = Formula::not(Formula::atom("R1", vec!["X", "Y"]));
        assert!(matches!(
            rewrite_query(&sys, &p1, &q),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn queries_over_foreign_relations_are_rejected() {
        let sys = example1_system();
        let p1 = PeerId::new("P1");
        let q = Formula::atom("R3", vec!["X", "Y"]);
        assert!(matches!(
            rewrite_query(&sys, &p1, &q),
            Err(CoreError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn referential_decs_are_not_supported_by_rewriting() {
        use crate::system::TrustLevel;
        use constraints::builders::mixed_referential;
        use relalg::RelationSchema;

        let mut sys = P2PSystem::new();
        sys.add_peer("P").unwrap();
        sys.add_peer("Q").unwrap();
        let p = PeerId::new("P");
        let q = PeerId::new("Q");
        for (peer, rel) in [(&p, "R1"), (&p, "R2"), (&q, "S1"), (&q, "S2")] {
            sys.add_relation(peer, RelationSchema::new(rel, &["x", "y"]))
                .unwrap();
        }
        sys.add_dec(
            &p,
            &q,
            mixed_referential("sigma3", "R1", "S1", "R2", "S2").unwrap(),
        )
        .unwrap();
        sys.set_trust(&p, TrustLevel::Less, &q).unwrap();
        let query = Formula::atom("R1", vec!["X", "Y"]);
        assert!(matches!(
            rewrite_query(&sys, &p, &query),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn rewriting_without_decs_is_identity() {
        let mut sys = P2PSystem::new();
        sys.add_peer("A").unwrap();
        let a = PeerId::new("A");
        sys.add_relation(&a, relalg::RelationSchema::new("R", &["x"]))
            .unwrap();
        sys.insert(&a, "R", Tuple::strs(["v"])).unwrap();
        let q = Formula::atom("R", vec!["X"]);
        let rewritten = rewrite_query(&sys, &a, &q).unwrap();
        assert_eq!(rewritten, q);
    }

    #[test]
    fn local_ics_disable_rewriting() {
        let mut sys = example1_system();
        let p1 = PeerId::new("P1");
        sys.add_local_ic(&p1, constraints::builders::key_denial("fd", "R1").unwrap())
            .unwrap();
        let q = Formula::atom("R1", vec!["X", "Y"]);
        assert!(matches!(
            rewrite_query(&sys, &p1, &q),
            Err(CoreError::Unsupported(_))
        ));
    }
}
