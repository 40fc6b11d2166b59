//! The annotation-based specification program of a peer's solutions.
//!
//! This is the general-purpose encoding used for peer consistent query
//! answering (the style of Section 4.2 and the appendix, with the annotation
//! constants `td`, `ta`, `fa`, `t*`, `t**` realized as predicate suffixes):
//!
//! * every *flexible* relation `R` — a relation whose contents may change in
//!   a solution, i.e. the peer's own relations and the relations of
//!   same-trusted peers mentioned in its DECs — gets annotated copies
//!   `R__td` (original), `R__ta` (advised insertion), `R__fa` (advised
//!   deletion), `R__ts` (original-or-inserted, the paper's `t*`) and
//!   `R__tss` (true in the solution, the paper's `t**`);
//! * relations of more-trusted peers stay *fixed* and are referenced
//!   directly as material relations;
//! * every trusted DEC and local IC contributes **repair rules** (whose
//!   heads advise deletions of flexible body tuples and/or insertions of the
//!   flexible consequent tuple, with the `choice` operator selecting
//!   existential witnesses among the fixed companion tuples, exactly as in
//!   rule (9) of the paper) and a **final-check denial constraint** over the
//!   `tss` contents that guarantees every answer set denotes a consistent
//!   solution;
//! * the answer sets of the program are in correspondence with the peer's
//!   solutions: the solution contents of a flexible relation are its `tss`
//!   atoms, and fixed relations keep their material contents.
//!
//! Supported constraint classes: universal (the consequent is split atom by
//! atom), referential with at most one flexible consequent atom and witnesses
//! bound by fixed consequent atoms, equality-generating and denial. These
//! cover every constraint used in the paper and the benchmark workloads; the
//! generator rejects anything else with [`CoreError::Unsupported`], mirroring
//! the restrictions the paper itself imposes on the repair layer
//! (Section 4.2: "no cycles and single atom consequents").

use crate::asp::decode::decode_worlds;
use crate::asp::encode::{
    ann, annotated_predicate, copy_rule, encode_value, facts_for_system, positional_vars,
    ValueDecoder,
};
use crate::error::CoreError;
use crate::system::{P2PSystem, PeerId};
use crate::Result;
use constraints::{AtomPattern, Constraint, ConstraintClass, ConstraintHead};
use datalog::{Atom, BodyItem, Builtin, BuiltinOp, ChoiceAtom, Program, Rule, SolveResult, Term};
use relalg::query::{CompareOp, Term as RelTerm};
use relalg::{Database, RelationSchema, SymbolTable, WorldSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The generated specification program for one peer, together with the
/// metadata needed to interpret its answer sets.
#[derive(Debug, Clone)]
pub struct AnnotatedSpec {
    /// The peer the program was generated for.
    pub peer: PeerId,
    /// Namespace prefix used for annotated predicates (the peer's name).
    pub namespace: String,
    /// The specification program (facts included).
    pub program: Program,
    /// Relations with annotated (changeable) copies.
    pub flexible: BTreeSet<String>,
    /// All relations relevant to the peer (own + mentioned in trusted DECs).
    pub relevant: BTreeSet<String>,
    /// Arity of every relevant relation.
    pub arities: BTreeMap<String, usize>,
    /// Decoder from constant symbols back to domain values, for the string
    /// decode ([`AnnotatedSpec::solution_databases`]).
    pub decoder: ValueDecoder,
}

impl AnnotatedSpec {
    /// The predicate holding the *solution* contents of a relation: the `tss`
    /// copy for flexible relations, the material relation itself otherwise.
    pub fn solution_predicate(&self, relation: &str) -> String {
        if self.flexible.contains(relation) {
            annotated_predicate(&self.namespace, relation, ann::TSS)
        } else {
            relation.to_string()
        }
    }

    /// Decode the models of a solved program (this spec or a slice of it)
    /// straight into the [`WorldSet`] of distinct solution worlds over the
    /// relevant relations — a shared core plus per-world deltas — mapping
    /// constants through the store's `symbols` (the id-native decode of
    /// the `asp::decode` module; the spec's decoder is not read). The same
    /// worlds as [`AnnotatedSpec::solution_databases`] over the same
    /// models.
    pub fn columnar_worlds(
        &self,
        result: &SolveResult,
        symbols: &Arc<SymbolTable>,
    ) -> Result<WorldSet> {
        decode_worlds(
            result,
            &self.relevant,
            &self.arities,
            |relation| self.solution_predicate(relation),
            symbols,
        )
    }

    /// Decode the answer sets of this program into solution databases
    /// (deduplicated, over the relevant relations). The string reference
    /// for [`AnnotatedSpec::columnar_worlds`].
    pub fn solution_databases(&self, sets: &datalog::AnswerSets) -> Result<Vec<Database>> {
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
                let pred = self.solution_predicate(relation);
                for args in sets.tuples_in(idx, &pred) {
                    let tuple = self.decoder.decode_tuple(&args);
                    db.insert(relation, tuple)?;
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

/// Generate the annotated specification program for `peer`.
pub fn annotated_program(system: &P2PSystem, peer: &PeerId) -> Result<AnnotatedSpec> {
    annotated_program_with(system, peer, None)
}

/// [`annotated_program`] with the instance facts encoded through the
/// store's symbol table when one is supplied: every occurrence of an
/// interned constant aliases one shared `Arc<str>` instead of re-rendering
/// (the interned data plane's fact encoding).
pub fn annotated_program_with(
    system: &P2PSystem,
    peer: &PeerId,
    symbols: Option<&relalg::SymbolTable>,
) -> Result<AnnotatedSpec> {
    // Facts for every peer instance (only relevant relations are ever read,
    // extra facts are harmless and keep the generator simple).
    let mut facts = Program::new();
    facts_for_system(system, &mut facts, symbols);
    Ok(AnnotatedSpec {
        decoder: ValueDecoder::for_system(system),
        ..annotated_spec(system, peer, facts)?
    })
}

/// The annotated specification of `peer`: its rules appended to `program`,
/// which holds whatever facts the caller encoded, with an empty decoder.
/// [`annotated_program_with`] passes the whole system's facts and sets the
/// system's decoder; the transitive composition and the engine pass no
/// facts.
pub(crate) fn annotated_spec(
    system: &P2PSystem,
    peer: &PeerId,
    program: Program,
) -> Result<AnnotatedSpec> {
    let peer_data = system.peer(peer)?;
    let namespace = peer.name().to_string();
    let (less_decs, same_decs) = system.trusted_decs_of(peer);

    // Flexible relations: the peer's own plus same-trusted peers' relations
    // mentioned in its same-trust DECs.
    let mut flexible: BTreeSet<String> = peer_data.relation_names();
    let same_relations = system.relations_same(peer);
    for dec in &same_decs {
        for rel in dec.constraint.relations() {
            if same_relations.contains(&rel) {
                flexible.insert(rel);
            }
        }
    }

    // Relevant relations: own + everything mentioned in trusted DECs.
    let mut relevant: BTreeSet<String> = peer_data.relation_names();
    for dec in less_decs.iter().chain(same_decs.iter()) {
        relevant.extend(dec.constraint.relations());
    }

    // Arities.
    let mut arities = BTreeMap::new();
    for rel in &relevant {
        let owner = system
            .owner_of(rel)
            .ok_or_else(|| CoreError::UnknownRelation {
                peer: peer.to_string(),
                relation: rel.clone(),
            })?;
        let arity = system
            .peer(&owner)?
            .schema
            .relation(rel)
            .map(RelationSchema::arity)
            .unwrap_or(0);
        arities.insert(rel.clone(), arity);
    }

    let mut gen = Generator {
        namespace: namespace.clone(),
        flexible: flexible.clone(),
        program,
        aux_counter: 0,
    };

    // Annotation scaffolding for flexible relations.
    for rel in &flexible {
        gen.scaffolding(rel, *arities.get(rel).unwrap_or(&0));
    }

    // Repair rules + final checks for DECs and local ICs.
    for dec in less_decs.iter().chain(same_decs.iter()) {
        gen.constraint_rules(&dec.constraint)?;
    }
    for ic in &peer_data.local_ics {
        gen.constraint_rules(ic)?;
    }

    Ok(AnnotatedSpec {
        peer: peer.clone(),
        namespace,
        program: gen.program,
        flexible,
        relevant,
        arities,
        decoder: ValueDecoder::default(),
    })
}

/// Internal rule generator.
struct Generator {
    namespace: String,
    flexible: BTreeSet<String>,
    program: Program,
    aux_counter: usize,
}

impl Generator {
    fn pred(&self, relation: &str, annotation: &str) -> String {
        annotated_predicate(&self.namespace, relation, annotation)
    }

    /// td / ts / tss / coherence scaffolding for one flexible relation.
    fn scaffolding(&mut self, relation: &str, arity: usize) {
        let vars = positional_vars(arity);
        let td = self.pred(relation, ann::TD);
        let ta = self.pred(relation, ann::TA);
        let fa = self.pred(relation, ann::FA);
        let ts = self.pred(relation, ann::TS);
        let tss = self.pred(relation, ann::TSS);

        // R__td(x̄) ← R(x̄).
        self.program.add_rule(copy_rule(&td, relation, arity));
        // R__ts(x̄) ← R__td(x̄).     R__ts(x̄) ← R__ta(x̄).
        self.program.add_rule(Rule::new(
            vec![Atom::from_terms(&ts, vars.clone())],
            vec![BodyItem::Pos(Atom::from_terms(&td, vars.clone()))],
        ));
        self.program.add_rule(Rule::new(
            vec![Atom::from_terms(&ts, vars.clone())],
            vec![BodyItem::Pos(Atom::from_terms(&ta, vars.clone()))],
        ));
        // R__tss(x̄) ← R__td(x̄), not R__fa(x̄).     R__tss(x̄) ← R__ta(x̄).
        self.program.add_rule(Rule::new(
            vec![Atom::from_terms(&tss, vars.clone())],
            vec![
                BodyItem::Pos(Atom::from_terms(&td, vars.clone())),
                BodyItem::Naf(Atom::from_terms(&fa, vars.clone())),
            ],
        ));
        self.program.add_rule(Rule::new(
            vec![Atom::from_terms(&tss, vars.clone())],
            vec![BodyItem::Pos(Atom::from_terms(&ta, vars.clone()))],
        ));
        // ← R__ta(x̄), R__fa(x̄).
        self.program.add_constraint(vec![
            BodyItem::Pos(Atom::from_terms(&ta, vars.clone())),
            BodyItem::Pos(Atom::from_terms(&fa, vars)),
        ]);
    }

    /// Repair rules and final check for one constraint (DEC or local IC).
    fn constraint_rules(&mut self, constraint: &Constraint) -> Result<()> {
        match constraint.class() {
            ConstraintClass::Denial => {
                self.denial_rules(constraint, None);
                Ok(())
            }
            ConstraintClass::EqualityGenerating => {
                let (l, r) = match &constraint.head {
                    ConstraintHead::Equality(l, r) => (l.clone(), r.clone()),
                    _ => unreachable!("classified as EGD"),
                };
                let extra = Builtin::new(BuiltinOp::Neq, convert_term(&l), convert_term(&r));
                self.denial_rules(constraint, Some(extra));
                Ok(())
            }
            ConstraintClass::Universal => {
                for head in constraint.head_atoms().to_vec() {
                    self.universal_rules(constraint, &head);
                }
                Ok(())
            }
            ConstraintClass::Referential => self.referential_rules(constraint),
        }
    }

    /// Denial-style constraints (including EGDs via an extra disequality):
    /// a disjunctive deletion rule over the flexible body atoms plus a final
    /// check over the solution contents.
    fn denial_rules(&mut self, constraint: &Constraint, extra: Option<Builtin>) {
        let mut violation_body = self.body_items(constraint, ann::TS);
        let mut check_body = self.body_items(constraint, ann::TSS);
        if let Some(builtin) = extra {
            violation_body.push(BodyItem::Builtin(builtin.clone()));
            check_body.push(BodyItem::Builtin(builtin));
        }
        let deletions = self.deletion_heads(constraint);
        if !deletions.is_empty() {
            self.program.add_rule(Rule::new(deletions, violation_body));
        } else {
            // Nothing can change: the violation condition itself is a
            // constraint (over the original data, which equals the solution
            // data for fully fixed bodies).
            self.program.add_constraint(violation_body);
        }
        self.program.add_constraint(check_body);
    }

    /// Universal tuple-generating constraints with a single consequent atom
    /// `H`: delete a flexible body tuple or insert the consequent (when `H`
    /// is flexible); plus the final check.
    fn universal_rules(&mut self, constraint: &Constraint, head: &AtomPattern) {
        let head_terms: Vec<Term> = head.terms.iter().map(convert_term).collect();
        let head_flexible = self.flexible.contains(&head.relation);

        // Violation rule: body over ts, consequent not yet present in the
        // original data.
        let mut body = self.body_items(constraint, ann::TS);
        let satisfied_pred = if head_flexible {
            self.pred(&head.relation, ann::TD)
        } else {
            head.relation.clone()
        };
        body.push(BodyItem::Naf(Atom::from_terms(
            &satisfied_pred,
            head_terms.clone(),
        )));
        let mut heads = self.deletion_heads(constraint);
        if head_flexible {
            heads.push(Atom::from_terms(
                self.pred(&head.relation, ann::TA),
                head_terms.clone(),
            ));
        }
        if heads.is_empty() {
            self.program.add_constraint(body);
        } else {
            self.program.add_rule(Rule::new(heads, body));
        }

        // Final check: body over tss implies consequent over tss.
        let mut check = self.body_items(constraint, ann::TSS);
        let check_pred = if head_flexible {
            self.pred(&head.relation, ann::TSS)
        } else {
            head.relation.clone()
        };
        check.push(BodyItem::Naf(Atom::from_terms(&check_pred, head_terms)));
        self.program.add_constraint(check);
    }

    /// Referential constraints (existential consequent): the Section 3.1
    /// pattern with `aux` predicates and the choice operator.
    fn referential_rules(&mut self, constraint: &Constraint) -> Result<()> {
        let head_atoms = constraint.head_atoms().to_vec();
        let flexible_heads: Vec<&AtomPattern> = head_atoms
            .iter()
            .filter(|a| self.flexible.contains(&a.relation))
            .collect();
        let fixed_heads: Vec<&AtomPattern> = head_atoms
            .iter()
            .filter(|a| !self.flexible.contains(&a.relation))
            .collect();
        if flexible_heads.len() > 1 {
            return Err(CoreError::Unsupported(format!(
                "referential constraint `{}` has more than one changeable consequent atom",
                constraint.name
            )));
        }
        let evars: BTreeSet<String> = constraint.existential_variables();
        let body_vars = constraint.universal_variables();

        // Universal variables occurring in the consequent (the paper's (x, z)).
        let head_uvars: Vec<Term> = ordered_vars(&head_atoms, &body_vars);
        // Universal variables occurring in the *fixed* consequent atoms.
        let wit_uvars: Vec<Term> = ordered_vars_refs(&fixed_heads, &body_vars);

        let id = self.aux_counter;
        self.aux_counter += 1;
        let aux_sat = format!("{}__aux_sat_{}_{}", self.namespace, constraint.name, id);
        let aux_sat_tss = format!("{}__aux_sat_tss_{}_{}", self.namespace, constraint.name, id);
        let aux_wit = format!("{}__aux_wit_{}_{}", self.namespace, constraint.name, id);

        // aux_sat(ū) ← consequent atoms over td / material data.
        let sat_body: Vec<BodyItem> = head_atoms
            .iter()
            .map(|a| BodyItem::Pos(self.map_atom(a, ann::TD)))
            .collect();
        self.program.add_rule(Rule::new(
            vec![Atom::from_terms(&aux_sat, head_uvars.clone())],
            sat_body,
        ));
        // aux_sat_tss(ū) ← consequent atoms over the solution contents.
        let sat_tss_body: Vec<BodyItem> = head_atoms
            .iter()
            .map(|a| BodyItem::Pos(self.map_atom(a, ann::TSS)))
            .collect();
        self.program.add_rule(Rule::new(
            vec![Atom::from_terms(&aux_sat_tss, head_uvars.clone())],
            sat_tss_body,
        ));

        let deletions = self.deletion_heads(constraint);

        // Witness availability and the choice-based insertion alternative are
        // only possible when the fixed consequent atoms bind every
        // existential variable (rule (9)'s companion `S2(z, w)`).
        let fixed_bind_all = !fixed_heads.is_empty()
            && evars
                .iter()
                .all(|v| fixed_heads.iter().any(|a| a.variables().contains(v)));

        if fixed_bind_all {
            // aux_wit(ūwit) ← fixed consequent atoms (material data).
            let wit_body: Vec<BodyItem> = fixed_heads
                .iter()
                .map(|a| BodyItem::Pos(self.map_atom(a, ann::TD)))
                .collect();
            self.program.add_rule(Rule::new(
                vec![Atom::from_terms(&aux_wit, wit_uvars.clone())],
                wit_body,
            ));

            // Deletion-only rule when no witness exists (rule (6)).
            let mut no_wit_body = self.body_items(constraint, ann::TS);
            no_wit_body.push(BodyItem::Naf(Atom::from_terms(
                &aux_sat,
                head_uvars.clone(),
            )));
            no_wit_body.push(BodyItem::Naf(Atom::from_terms(&aux_wit, wit_uvars.clone())));
            if deletions.is_empty() {
                self.program.add_constraint(no_wit_body);
            } else {
                self.program
                    .add_rule(Rule::new(deletions.clone(), no_wit_body));
            }

            // Choice rule when a witness exists (rule (9)).
            let mut choice_body = self.body_items(constraint, ann::TS);
            choice_body.push(BodyItem::Naf(Atom::from_terms(
                &aux_sat,
                head_uvars.clone(),
            )));
            for a in &fixed_heads {
                choice_body.push(BodyItem::Pos(self.map_atom(a, ann::TD)));
            }
            let chosen: Vec<Term> = evars.iter().map(|v| Term::var(v.clone())).collect();
            choice_body.push(BodyItem::Choice(ChoiceAtom::new(
                head_uvars.clone(),
                chosen,
            )));
            let mut choice_heads = deletions.clone();
            if let Some(fh) = flexible_heads.first() {
                let terms: Vec<Term> = fh.terms.iter().map(convert_term).collect();
                choice_heads.push(Atom::from_terms(self.pred(&fh.relation, ann::TA), terms));
            }
            if choice_heads.is_empty() {
                // Nothing to change even though a witness exists: the
                // violation (over original data) is then unrepairable.
                let mut body = choice_body;
                body.pop(); // drop the choice atom of an otherwise head-less rule
                self.program.add_constraint(body);
            } else {
                self.program.add_rule(Rule::new(choice_heads, choice_body));
            }
        } else {
            // No usable witness source: only deletions can repair the
            // violation.
            let mut body = self.body_items(constraint, ann::TS);
            body.push(BodyItem::Naf(Atom::from_terms(
                &aux_sat,
                head_uvars.clone(),
            )));
            if deletions.is_empty() {
                self.program.add_constraint(body);
            } else {
                self.program.add_rule(Rule::new(deletions, body));
            }
        }

        // Final check over the solution contents.
        let mut check = self.body_items(constraint, ann::TSS);
        check.push(BodyItem::Naf(Atom::from_terms(&aux_sat_tss, head_uvars)));
        self.program.add_constraint(check);
        Ok(())
    }

    /// The body of a constraint mapped into the program: flexible relations
    /// via the given annotation, fixed relations as material atoms, plus the
    /// built-in conditions.
    fn body_items(&self, constraint: &Constraint, annotation: &str) -> Vec<BodyItem> {
        let mut out: Vec<BodyItem> = constraint
            .body
            .iter()
            .map(|a| BodyItem::Pos(self.map_atom(a, annotation)))
            .collect();
        for cond in &constraint.conditions {
            out.push(BodyItem::Builtin(Builtin::new(
                convert_op(cond.op),
                convert_term(&cond.left),
                convert_term(&cond.right),
            )));
        }
        out
    }

    /// Deletion advisories for the flexible body atoms of a constraint.
    fn deletion_heads(&self, constraint: &Constraint) -> Vec<Atom> {
        constraint
            .body
            .iter()
            .filter(|a| self.flexible.contains(&a.relation))
            .map(|a| {
                let terms: Vec<Term> = a.terms.iter().map(convert_term).collect();
                Atom::from_terms(self.pred(&a.relation, ann::FA), terms)
            })
            .collect()
    }

    /// Map a constraint atom into the program under the given annotation
    /// (flexible relations) or as a material atom (fixed relations).
    fn map_atom(&self, atom: &AtomPattern, annotation: &str) -> Atom {
        let terms: Vec<Term> = atom.terms.iter().map(convert_term).collect();
        if self.flexible.contains(&atom.relation) {
            Atom::from_terms(self.pred(&atom.relation, annotation), terms)
        } else {
            Atom::from_terms(&atom.relation, terms)
        }
    }
}

/// Convert a relational term into a logic-program term.
pub(crate) fn convert_term(term: &RelTerm) -> Term {
    match term {
        RelTerm::Var(v) => Term::var(v.clone()),
        RelTerm::Const(value) => Term::cnst(encode_value(value)),
    }
}

/// Convert a comparison operator.
pub(crate) fn convert_op(op: CompareOp) -> BuiltinOp {
    match op {
        CompareOp::Eq => BuiltinOp::Eq,
        CompareOp::Neq => BuiltinOp::Neq,
        CompareOp::Lt => BuiltinOp::Lt,
        CompareOp::Leq => BuiltinOp::Leq,
        CompareOp::Gt => BuiltinOp::Gt,
        CompareOp::Geq => BuiltinOp::Geq,
    }
}

/// Universal variables occurring in the given atoms, in first-occurrence
/// order, as terms.
fn ordered_vars(atoms: &[AtomPattern], universal: &BTreeSet<String>) -> Vec<Term> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for atom in atoms {
        for term in &atom.terms {
            if let Some(v) = term.as_var() {
                if universal.contains(v) && seen.insert(v.to_string()) {
                    out.push(Term::var(v));
                }
            }
        }
    }
    out
}

fn ordered_vars_refs(atoms: &[&AtomPattern], universal: &BTreeSet<String>) -> Vec<Term> {
    let owned: Vec<AtomPattern> = atoms.iter().map(|a| (*a).clone()).collect();
    ordered_vars(&owned, universal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{example1_system, TrustLevel};
    use datalog::{AnswerSets, SolverConfig};
    use relalg::Tuple;

    #[test]
    fn example1_spec_reproduces_the_two_solutions() {
        let sys = example1_system();
        let p1 = PeerId::new("P1");
        let spec = annotated_program(&sys, &p1).unwrap();
        assert_eq!(
            spec.flexible,
            BTreeSet::from(["R1".to_string(), "R3".to_string()])
        );
        assert!(spec.relevant.contains("R2"));
        let sets = AnswerSets::compute(&spec.program, SolverConfig::default()).unwrap();
        let solutions = spec.solution_databases(&sets).unwrap();
        assert_eq!(solutions.len(), 2);
        for s in &solutions {
            assert!(s.holds("R1", &Tuple::strs(["c", "d"])));
            assert!(s.holds("R1", &Tuple::strs(["a", "e"])));
            assert!(s.holds("R1", &Tuple::strs(["a", "b"])));
            assert!(!s.holds("R3", &Tuple::strs(["a", "f"])));
            assert_eq!(s.relation("R2").unwrap().len(), 2);
        }
        let keeps_st = solutions
            .iter()
            .filter(|s| s.holds("R1", &Tuple::strs(["s", "t"])))
            .count();
        assert_eq!(keeps_st, 1);
    }

    #[test]
    fn spec_agrees_with_definition4_solutions_on_example1() {
        use crate::solution::{solutions_for, SolutionOptions};
        let sys = example1_system();
        let p1 = PeerId::new("P1");
        let spec = annotated_program(&sys, &p1).unwrap();
        let sets = AnswerSets::compute(&spec.program, SolverConfig::default()).unwrap();
        let asp_solutions = spec.solution_databases(&sets).unwrap();
        let def4 = solutions_for(&sys, &p1, SolutionOptions::default()).unwrap();

        let asp_contents: BTreeSet<Vec<relalg::database::GroundAtom>> = asp_solutions
            .iter()
            .map(|db| db.ground_atoms().into_iter().collect())
            .collect();
        let def4_contents: BTreeSet<Vec<relalg::database::GroundAtom>> = def4
            .iter()
            .map(|s| {
                s.database
                    .restrict(["R1", "R2", "R3"])
                    .ground_atoms()
                    .into_iter()
                    .collect()
            })
            .collect();
        assert_eq!(asp_contents, def4_contents);
    }

    #[test]
    fn section31_referential_spec_has_four_answer_sets() {
        // The Section 3.1 / appendix setting under the annotated encoding.
        use constraints::builders::mixed_referential;
        let mut sys = P2PSystem::new();
        sys.add_peer("P").unwrap();
        sys.add_peer("Q").unwrap();
        let p = PeerId::new("P");
        let q = PeerId::new("Q");
        for (peer, rel) in [(&p, "R1"), (&p, "R2"), (&q, "S1"), (&q, "S2")] {
            sys.add_relation(peer, RelationSchema::new(rel, &["x", "y"]))
                .unwrap();
        }
        sys.insert(&p, "R1", Tuple::strs(["a", "b"])).unwrap();
        sys.insert(&q, "S1", Tuple::strs(["c", "b"])).unwrap();
        sys.insert(&q, "S2", Tuple::strs(["c", "e"])).unwrap();
        sys.insert(&q, "S2", Tuple::strs(["c", "f"])).unwrap();
        sys.add_dec(
            &p,
            &q,
            mixed_referential("sigma3", "R1", "S1", "R2", "S2").unwrap(),
        )
        .unwrap();
        sys.set_trust(&p, TrustLevel::Less, &q).unwrap();

        let spec = annotated_program(&sys, &p).unwrap();
        let sets = AnswerSets::compute(&spec.program, SolverConfig::default()).unwrap();
        // The appendix lists four stable models M1–M4.
        assert_eq!(sets.len(), 4);
        let solutions = spec.solution_databases(&sets).unwrap();
        // … corresponding to three distinct solutions: keep R1(a,b) and
        // insert R2(a,e) or R2(a,f), or delete R1(a,b).
        assert_eq!(solutions.len(), 3);
        let with_r1: Vec<&Database> = solutions
            .iter()
            .filter(|s| s.holds("R1", &Tuple::strs(["a", "b"])))
            .collect();
        assert_eq!(with_r1.len(), 2);
        for s in &with_r1 {
            assert_eq!(s.relation("R2").unwrap().len(), 1);
        }
        let without_r1: Vec<&Database> = solutions
            .iter()
            .filter(|s| !s.holds("R1", &Tuple::strs(["a", "b"])))
            .collect();
        assert_eq!(without_r1.len(), 1);
        assert!(without_r1[0].relation("R2").unwrap().is_empty());
    }

    #[test]
    fn referential_without_witness_deletes_the_violating_tuple() {
        use constraints::builders::mixed_referential;
        let mut sys = P2PSystem::new();
        sys.add_peer("P").unwrap();
        sys.add_peer("Q").unwrap();
        let p = PeerId::new("P");
        let q = PeerId::new("Q");
        for (peer, rel) in [(&p, "R1"), (&p, "R2"), (&q, "S1"), (&q, "S2")] {
            sys.add_relation(peer, RelationSchema::new(rel, &["x", "y"]))
                .unwrap();
        }
        sys.insert(&p, "R1", Tuple::strs(["a", "b"])).unwrap();
        sys.insert(&q, "S1", Tuple::strs(["c", "b"])).unwrap();
        // No S2 tuples for key c: rule (6) applies, R1(a, b) must go.
        sys.add_dec(
            &p,
            &q,
            mixed_referential("sigma3", "R1", "S1", "R2", "S2").unwrap(),
        )
        .unwrap();
        sys.set_trust(&p, TrustLevel::Less, &q).unwrap();

        let spec = annotated_program(&sys, &p).unwrap();
        let sets = AnswerSets::compute(&spec.program, SolverConfig::default()).unwrap();
        let solutions = spec.solution_databases(&sets).unwrap();
        assert_eq!(solutions.len(), 1);
        assert!(!solutions[0].holds("R1", &Tuple::strs(["a", "b"])));
    }

    #[test]
    fn local_ic_constraints_are_enforced() {
        let mut sys = example1_system();
        let p1 = PeerId::new("P1");
        sys.add_local_ic(
            &p1,
            constraints::builders::key_denial("fd_r1", "R1").unwrap(),
        )
        .unwrap();
        let spec = annotated_program(&sys, &p1).unwrap();
        let sets = AnswerSets::compute(&spec.program, SolverConfig::default()).unwrap();
        let solutions = spec.solution_databases(&sets).unwrap();
        assert!(!solutions.is_empty());
        for s in &solutions {
            // The FD forbids both (a, b) and (a, e); (a, e) is forced by the
            // more-trusted import, so (a, b) is gone.
            assert!(!s.holds("R1", &Tuple::strs(["a", "b"])));
            assert!(s.holds("R1", &Tuple::strs(["a", "e"])));
        }
    }

    #[test]
    fn consistent_system_yields_single_identity_solution() {
        let mut sys = P2PSystem::new();
        sys.add_peer("A").unwrap();
        sys.add_peer("B").unwrap();
        let a = PeerId::new("A");
        let b = PeerId::new("B");
        sys.add_relation(&a, RelationSchema::new("RA", &["x"]))
            .unwrap();
        sys.add_relation(&b, RelationSchema::new("RB", &["x"]))
            .unwrap();
        sys.insert(&a, "RA", Tuple::strs(["v"])).unwrap();
        sys.insert(&b, "RB", Tuple::strs(["v"])).unwrap();
        sys.add_dec(
            &a,
            &b,
            constraints::builders::full_inclusion("d", "RB", "RA", 1).unwrap(),
        )
        .unwrap();
        sys.set_trust(&a, TrustLevel::Less, &b).unwrap();
        let spec = annotated_program(&sys, &a).unwrap();
        let sets = AnswerSets::compute(&spec.program, SolverConfig::default()).unwrap();
        let solutions = spec.solution_databases(&sets).unwrap();
        assert_eq!(solutions.len(), 1);
        assert!(solutions[0].holds("RA", &Tuple::strs(["v"])));
    }
}
