//! Transitive (global) specification programs — Section 4.3.
//!
//! When a queried peer `A` imports data from `B`, and `B` in turn imports
//! data from `C`, the direct (local) solution semantics of Definition 4 does
//! not see the `B`–`C` exchange. The paper's proposal is to *combine the
//! local specification programs*: the semantics of `A`'s global solutions is
//! defined directly as the answer sets of the union of the programs, where
//! `A`'s rules read `B`'s relations through `B`'s own repaired (solution)
//! versions — exactly the substitution performed in Example 4, where `P`'s
//! rules (10)–(11) use `S′1` instead of `S1` and rules (12)–(13) define `S′1`
//! from `Q`'s exchange with `C`.
//!
//! [`transitive_program`] implements this composition over the annotated
//! encoding: it generates the per-peer [`AnnotatedSpec`]s of every peer
//! reachable from the queried peer through trusted DECs and rewires each
//! program to read a neighbour's flexible relations through that neighbour's
//! `tss` predicates.
//!
//! Every combined peer reads the same facts — the whole system's — so the
//! composition encodes them once, ahead of the rules, and builds one
//! [`ValueDecoder`] for the combined spec; the per-peer specs hold their
//! rules only. The result equals, rule for rule, the composition of each
//! peer's whole [`crate::asp::annotated_program_with`] program with the
//! facts kept once. Cut at the queried peer alone, nothing is rewired and
//! the composition is the direct [`AnnotatedSpec`], which is how the engine
//! builds both ASP mechanisms' rules from one type.

use crate::asp::annotated::{annotated_spec, AnnotatedSpec};
use crate::asp::decode::decode_worlds;
use crate::asp::encode::{facts_for_system, ValueDecoder};
use crate::system::{P2PSystem, PeerId};
use crate::Result;
use datalog::{Atom, BodyItem, Program, Rule, SolveResult};
use relalg::{Database, RelationSchema, SymbolTable, WorldSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The combined (global) specification program for a peer.
#[derive(Debug, Clone)]
pub struct TransitiveSpec {
    /// The queried peer.
    pub peer: PeerId,
    /// The combined program.
    pub program: Program,
    /// The per-peer specifications that were combined, keyed by peer. Each
    /// holds its peer's rules only, before rewiring: no facts (`program`
    /// holds the system's facts, once) and an empty decoder. Crate-private,
    /// so no public value carries a fact-less program that looks complete;
    /// only the peers' flexible and relevant relations are read from them.
    pub(crate) specs: BTreeMap<PeerId, AnnotatedSpec>,
    /// Every relation relevant to some combined peer.
    pub relevant: BTreeSet<String>,
    /// Arities of the relevant relations.
    pub arities: BTreeMap<String, usize>,
    /// Decoder from constant symbols back to values, for the string decode
    /// ([`TransitiveSpec::solution_databases`]).
    pub decoder: ValueDecoder,
}

impl TransitiveSpec {
    /// The predicate holding the global-solution contents of a relation,
    /// seen from the queried peer: the queried peer's `tss` copy when it is
    /// flexible there, otherwise the owning peer's `tss` copy when flexible
    /// there, otherwise the material relation.
    pub fn solution_predicate(&self, system: &P2PSystem, relation: &str) -> String {
        if let Some(spec) = self.specs.get(&self.peer) {
            if spec.flexible.contains(relation) {
                return spec.solution_predicate(relation);
            }
        }
        if let Some(owner) = system.owner_of(relation) {
            if let Some(spec) = self.specs.get(&owner) {
                if spec.flexible.contains(relation) {
                    return spec.solution_predicate(relation);
                }
            }
        }
        relation.to_string()
    }

    /// Decode the models of a solved program (this spec or a slice of it)
    /// straight into the [`WorldSet`] of distinct global-solution worlds —
    /// a shared core plus per-world deltas — mapping constants through the
    /// store's `symbols` (the id-native decode of the `asp::decode` module;
    /// the spec's decoder is not read).
    /// `system` only resolves relation ownership, so the topology suffices.
    /// The same worlds as [`TransitiveSpec::solution_databases`] over the
    /// same models.
    pub fn columnar_worlds(
        &self,
        system: &P2PSystem,
        result: &SolveResult,
        symbols: &Arc<SymbolTable>,
    ) -> Result<WorldSet> {
        decode_worlds(
            result,
            &self.relevant,
            &self.arities,
            |relation| self.solution_predicate(system, relation),
            &[],
            symbols,
        )
    }

    /// Decode the answer sets into distinct global solution databases. The
    /// string reference for [`TransitiveSpec::columnar_worlds`].
    pub fn solution_databases(
        &self,
        system: &P2PSystem,
        sets: &datalog::AnswerSets,
    ) -> Result<Vec<Database>> {
        let mut out: Vec<Database> = Vec::new();
        let mut seen = BTreeSet::new();
        for idx in 0..sets.len() {
            let mut db = Database::new();
            for relation in &self.relevant {
                let arity = *self.arities.get(relation).unwrap_or(&0);
                db.add_relation(relalg::Relation::new(RelationSchema::with_arity(
                    relation.clone(),
                    arity,
                )));
                let pred = self.solution_predicate(system, relation);
                for args in sets.tuples_in(idx, &pred) {
                    db.insert(relation, self.decoder.decode_tuple(&args))?;
                }
            }
            let signature: Vec<relalg::database::GroundAtom> =
                db.ground_atoms().into_iter().collect();
            if seen.insert(signature) {
                out.push(db);
            }
        }
        Ok(out)
    }
}

/// Build the combined specification program for `peer`, including every peer
/// transitively reachable through trusted DECs.
pub fn transitive_program(system: &P2PSystem, peer: &PeerId) -> Result<TransitiveSpec> {
    transitive_program_with(system, peer, None)
}

/// [`transitive_program`] with the per-peer instance facts encoded through
/// the store's symbol table when one is supplied (shared `Arc<str>`
/// constants; see [`crate::asp::encode::encode_value_shared`]).
pub fn transitive_program_with(
    system: &P2PSystem,
    peer: &PeerId,
    symbols: Option<&relalg::SymbolTable>,
) -> Result<TransitiveSpec> {
    // One copy of the system's facts and one decoder for the whole
    // composition; the per-peer specifications carry rules only.
    let mut facts = Program::new();
    facts_for_system(system, &mut facts, symbols);
    Ok(TransitiveSpec {
        decoder: ValueDecoder::for_system(system),
        ..transitive_spec(system, peer, &trusted_closure(system, peer), facts)?
    })
}

/// `peer` and every peer reachable from it through trusted DECs.
pub(crate) fn trusted_closure(system: &P2PSystem, peer: &PeerId) -> BTreeSet<PeerId> {
    let mut reachable = BTreeSet::from([peer.clone()]);
    let mut queue = vec![peer.clone()];
    while let Some(current) = queue.pop() {
        let (less, same) = system.trusted_decs_of(&current);
        for dec in less.into_iter().chain(same) {
            if reachable.insert(dec.other.clone()) {
                queue.push(dec.other.clone());
            }
        }
    }
    reachable
}

/// The combined specification of `peer` over `members` (which hold `peer`;
/// `peer` alone gives its direct spec): each member's rules, rewired,
/// appended to `combined`, which holds whatever facts the caller encoded,
/// with an empty decoder.
pub(crate) fn transitive_spec(
    system: &P2PSystem,
    peer: &PeerId,
    members: &BTreeSet<PeerId>,
    mut combined: Program,
) -> Result<TransitiveSpec> {
    let mut specs: BTreeMap<PeerId, AnnotatedSpec> = BTreeMap::new();
    for p in members {
        specs.insert(p.clone(), annotated_spec(system, p, Program::new())?);
    }
    for (owner_of_program, spec) in &specs {
        let substitution = substitution(system, &specs, owner_of_program, spec);
        for rule in spec.program.rules() {
            combined.add_rule(rewire_rule(rule, &substitution));
        }
    }

    // Relevant relations and arities across all specs.
    let mut relevant = BTreeSet::new();
    let mut arities = BTreeMap::new();
    for spec in specs.values() {
        relevant.extend(spec.relevant.iter().cloned());
        for (rel, arity) in &spec.arities {
            arities.insert(rel.clone(), *arity);
        }
    }

    Ok(TransitiveSpec {
        peer: peer.clone(),
        program: combined,
        specs,
        relevant,
        arities,
        decoder: ValueDecoder::default(),
    })
}

/// The relations `peer`'s program reads through another peer's `tss`
/// predicate: those fixed in `spec` (the peer's own) but flexible in their
/// owner's spec, mapped to the owner's solution predicate.
fn substitution(
    system: &P2PSystem,
    specs: &BTreeMap<PeerId, AnnotatedSpec>,
    peer: &PeerId,
    spec: &AnnotatedSpec,
) -> BTreeMap<String, String> {
    let mut substitution = BTreeMap::new();
    for relation in &spec.relevant {
        if spec.flexible.contains(relation) {
            continue;
        }
        let Some(owner) = system.owner_of(relation).filter(|owner| owner != peer) else {
            continue;
        };
        if let Some(owner_spec) = specs.get(&owner) {
            if owner_spec.flexible.contains(relation) {
                substitution.insert(relation.clone(), owner_spec.solution_predicate(relation));
            }
        }
    }
    substitution
}

/// Replace material relation atoms in a rule's body according to the
/// substitution map. Heads are left untouched: a peer's program only ever
/// derives its own (namespaced) predicates.
fn rewire_rule(rule: &Rule, substitution: &BTreeMap<String, String>) -> Rule {
    let map_atom = |a: &Atom| -> Atom {
        match substitution.get(&a.predicate) {
            Some(new_pred) if !a.strong_neg => Atom {
                predicate: new_pred.clone(),
                strong_neg: false,
                terms: a.terms.clone(),
            },
            _ => a.clone(),
        }
    };
    Rule {
        head: rule.head.clone(),
        body: rule
            .body
            .iter()
            .map(|item| match item {
                BodyItem::Pos(a) => BodyItem::Pos(map_atom(a)),
                BodyItem::Naf(a) => BodyItem::Naf(map_atom(a)),
                other => other.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::TrustLevel;
    use constraints::builders::{full_inclusion, key_agreement, mixed_referential};
    use datalog::{AnswerSets, SolverConfig};
    use relalg::Tuple;

    /// The Example 4 system: peers P, Q, C with
    /// Σ(P, Q) = constraint (3), Σ(Q, C) = U ⊆ S1, (P, less, Q), (Q, less, C),
    /// and the instances r1 = {(a,b)}, s1 = {}, r2 = {}, s2 = {(c,e),(c,f)},
    /// u = {(c,b)}.
    fn example4_system() -> P2PSystem {
        let mut sys = P2PSystem::new();
        for p in ["P", "Q", "C"] {
            sys.add_peer(p).unwrap();
        }
        let p = PeerId::new("P");
        let q = PeerId::new("Q");
        let c = PeerId::new("C");
        for (peer, rel) in [(&p, "R1"), (&p, "R2"), (&q, "S1"), (&q, "S2"), (&c, "U")] {
            sys.add_relation(peer, RelationSchema::new(rel, &["x", "y"]))
                .unwrap();
        }
        sys.insert(&p, "R1", Tuple::strs(["a", "b"])).unwrap();
        sys.insert(&q, "S2", Tuple::strs(["c", "e"])).unwrap();
        sys.insert(&q, "S2", Tuple::strs(["c", "f"])).unwrap();
        sys.insert(&c, "U", Tuple::strs(["c", "b"])).unwrap();
        sys.add_dec(
            &p,
            &q,
            mixed_referential("sigma_p_q", "R1", "S1", "R2", "S2").unwrap(),
        )
        .unwrap();
        sys.add_dec(&q, &c, full_inclusion("sigma_q_c", "U", "S1", 2).unwrap())
            .unwrap();
        sys.set_trust(&p, TrustLevel::Less, &q).unwrap();
        sys.set_trust(&q, TrustLevel::Less, &c).unwrap();
        sys
    }

    /// A system shaped like the workload generator's: peer `P{i}` owns
    /// `T{i}(key, val)` with a few tuples, and each `(owner, other)` edge
    /// carries one DEC, a full inclusion of `T{other}` into `T{owner}`
    /// towards a `less`-trusted peer and a key agreement towards a
    /// `same`-trusted one. (The generator's crate depends on this one, so
    /// its systems cannot be built here.)
    fn generated_shape(peers: usize, edges: &[(usize, usize, TrustLevel)]) -> P2PSystem {
        let mut sys = P2PSystem::new();
        for i in 0..peers {
            let id = PeerId::new(format!("P{i}"));
            sys.add_peer(id.clone()).unwrap();
            let relation = format!("T{i}");
            sys.add_relation(&id, RelationSchema::new(relation.as_str(), &["key", "val"]))
                .unwrap();
            for j in 0..3 {
                let (key, val) = (format!("k_{i}_{j}"), format!("v_{i}_{j}"));
                sys.insert(&id, &relation, Tuple::strs([key.as_str(), val.as_str()]))
                    .unwrap();
            }
        }
        for (edge, &(owner, other, level)) in edges.iter().enumerate() {
            let (owner_id, other_id) = (
                PeerId::new(format!("P{owner}")),
                PeerId::new(format!("P{other}")),
            );
            let (owner_rel, other_rel) = (format!("T{owner}"), format!("T{other}"));
            let name = format!("dec_{edge}");
            let dec = if level == TrustLevel::Same {
                key_agreement(name, &owner_rel, &other_rel)
            } else {
                full_inclusion(name, &other_rel, &owner_rel, 2)
            };
            sys.add_dec(&owner_id, &other_id, dec.unwrap()).unwrap();
            sys.set_trust(&owner_id, level, &other_id).unwrap();
        }
        sys
    }

    #[test]
    fn depth_zero_composition_is_the_direct_spec() {
        use crate::asp::annotated_program;
        use crate::system::example1_system;
        use TrustLevel::{Less, Same};
        let systems = [
            example1_system(),
            example4_system(),
            // A Tiny star, an `AllLess` chain and a `Mixed` chain.
            generated_shape(3, &[(0, 1, Less), (0, 2, Less)]),
            generated_shape(4, &[(0, 1, Less), (1, 2, Less), (2, 3, Less)]),
            generated_shape(4, &[(0, 1, Less), (1, 2, Same), (2, 3, Less)]),
        ];
        let rules = |program: &Program| -> Vec<String> {
            program
                .rules()
                .iter()
                .filter(|rule| !rule.is_fact())
                .map(ToString::to_string)
                .collect()
        };
        for sys in &systems {
            for peer in sys.peer_ids() {
                let direct = annotated_program(sys, peer).unwrap();
                let members = BTreeSet::from([peer.clone()]);
                let cut = transitive_spec(sys, peer, &members, Program::new()).unwrap();
                assert_eq!(
                    rules(&cut.program),
                    rules(&direct.program),
                    "rules of {peer}"
                );
                assert_eq!(
                    cut.relevant, direct.relevant,
                    "relevant relations of {peer}"
                );
                assert_eq!(cut.arities, direct.arities, "arities at {peer}");
                for relation in &direct.relevant {
                    assert_eq!(
                        cut.solution_predicate(sys, relation),
                        direct.solution_predicate(relation),
                        "solution predicate of {relation} at {peer}"
                    );
                }
            }
        }
    }

    #[test]
    fn example4_local_view_sees_no_violation_for_p() {
        // Considered locally, P's DEC is satisfied (S1 is empty), so P's
        // direct solution is the original instance — exactly the paper's
        // observation motivating the transitive case.
        use crate::solution::{solutions_for, SolutionOptions};
        let sys = example4_system();
        let p = PeerId::new("P");
        let local = solutions_for(&sys, &p, SolutionOptions::default()).unwrap();
        assert_eq!(local.len(), 1);
        assert!(local[0].delta.is_empty());
    }

    #[test]
    fn example4_combined_program_has_three_global_solutions() {
        let sys = example4_system();
        let p = PeerId::new("P");
        let spec = transitive_program(&sys, &p).unwrap();
        assert_eq!(spec.specs.len(), 3);
        // The combined program holds the facts once; the per-peer specs
        // hold rules only.
        assert!(spec.specs.values().all(|member| member
            .program
            .rules()
            .iter()
            .all(|r| !r.is_fact())));
        let sets = AnswerSets::compute(&spec.program, SolverConfig::default()).unwrap();
        let solutions = spec.solution_databases(&sys, &sets).unwrap();
        // The paper lists exactly three solutions.
        assert_eq!(solutions.len(), 3);
        for s in &solutions {
            // S1 acquires (c, b) from C's relation U in every solution.
            assert!(s.holds("S1", &Tuple::strs(["c", "b"])));
            assert_eq!(s.relation("S2").unwrap().len(), 2);
            assert!(s.holds("U", &Tuple::strs(["c", "b"])));
        }
        // Two solutions keep R1(a, b) and insert R2(a, e) or R2(a, f); one
        // deletes R1(a, b) and leaves R2 empty.
        let keep: Vec<&Database> = solutions
            .iter()
            .filter(|s| s.holds("R1", &Tuple::strs(["a", "b"])))
            .collect();
        assert_eq!(keep.len(), 2);
        let mut r2_values: Vec<String> = keep
            .iter()
            .map(|s| {
                s.relation("R2")
                    .unwrap()
                    .iter()
                    .next()
                    .unwrap()
                    .get(1)
                    .unwrap()
                    .to_string()
            })
            .collect();
        r2_values.sort();
        assert_eq!(r2_values, vec!["e".to_string(), "f".to_string()]);
        let drop: Vec<&Database> = solutions
            .iter()
            .filter(|s| !s.holds("R1", &Tuple::strs(["a", "b"])))
            .collect();
        assert_eq!(drop.len(), 1);
        assert!(drop[0].relation("R2").unwrap().is_empty());
    }

    #[test]
    fn transitive_spec_for_isolated_peer_is_just_its_own_program() {
        let sys = example4_system();
        let c = PeerId::new("C");
        let spec = transitive_program(&sys, &c).unwrap();
        assert_eq!(spec.specs.len(), 1);
        let sets = AnswerSets::compute(&spec.program, SolverConfig::default()).unwrap();
        let solutions = spec.solution_databases(&sys, &sets).unwrap();
        assert_eq!(solutions.len(), 1);
        assert!(solutions[0].holds("U", &Tuple::strs(["c", "b"])));
    }

    #[test]
    fn chain_of_inclusions_propagates_transitively() {
        // A ← B ← C chain of full inclusions: the transitive program imports
        // C's tuple all the way into A, while A's direct solutions only see B.
        let mut sys = P2PSystem::new();
        for p in ["A", "B", "C"] {
            sys.add_peer(p).unwrap();
        }
        let a = PeerId::new("A");
        let b = PeerId::new("B");
        let c = PeerId::new("C");
        for (peer, rel) in [(&a, "RA"), (&b, "RB"), (&c, "RC")] {
            sys.add_relation(peer, RelationSchema::new(rel, &["x"]))
                .unwrap();
        }
        sys.insert(&c, "RC", Tuple::strs(["v"])).unwrap();
        sys.add_dec(&a, &b, full_inclusion("dab", "RB", "RA", 1).unwrap())
            .unwrap();
        sys.add_dec(&b, &c, full_inclusion("dbc", "RC", "RB", 1).unwrap())
            .unwrap();
        sys.set_trust(&a, TrustLevel::Less, &b).unwrap();
        sys.set_trust(&b, TrustLevel::Less, &c).unwrap();

        let spec = transitive_program(&sys, &a).unwrap();
        let sets = AnswerSets::compute(&spec.program, SolverConfig::default()).unwrap();
        let solutions = spec.solution_databases(&sys, &sets).unwrap();
        assert_eq!(solutions.len(), 1);
        assert!(solutions[0].holds("RA", &Tuple::strs(["v"])));
        assert!(solutions[0].holds("RB", &Tuple::strs(["v"])));

        // Direct (local) semantics for A does not see the C → B → A path.
        use crate::solution::{solutions_for, SolutionOptions};
        let local = solutions_for(&sys, &a, SolutionOptions::default()).unwrap();
        assert_eq!(local.len(), 1);
        assert!(!local[0].database.holds("RA", &Tuple::strs(["v"])));
    }
}
