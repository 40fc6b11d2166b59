//! Grounding: from programs with variables to propositional programs.
//!
//! The grounder performs *intelligent instantiation*: only atoms that can
//! possibly be derived (reading default negation optimistically and
//! disjunctive heads as fully derivable) are instantiated. Default-negated
//! literals whose atom can never be derived are dropped from the
//! instantiated bodies; built-in comparisons are evaluated away.
//!
//! [`Grounder::ground`] and [`crate::incremental::IncrementalGround::new`]
//! share one core: a single semi-naive pass over interned ids.
//!
//! * **Per-grounding symbol table.** Signed predicates and constants are
//!   interned as dense `u32` ids, and ground atoms as `(predicate, argument
//!   ids)`. `=` and `!=` compare ids; `<`, `<=`, `>`, `>=` resolve ids back
//!   to text and keep their lexicographic meaning.
//! * **Slot substitutions.** Each non-fact rule is compiled once into
//!   templates whose variables are numbered slots, so a substitution is a
//!   `Vec<u32>` indexed by slot. Join plans run each built-in as soon as its
//!   slots are bound and look partly bound atoms up in hash indexes keyed on
//!   the bound argument positions; plans and indexes are built per grounding
//!   and dropped with it.
//! * **One pass.** Grounding inserts the facts into an empty state by
//!   semi-naive evaluation: each round joins every rule with one positive
//!   occurrence pinned to the round's new atoms, so every derivation over
//!   the final possible set — every rule instance — is found exactly once.
//!   Headless constraints are matched once against the final possible set.
//! * **Emission order.** Rules are emitted in program order; each rule's
//!   instances are sorted by their tuple of positive-body atoms in
//!   [`GroundAtom`] order — the order of a nested-loop join over sorted
//!   candidate sets — and atoms are numbered in first-use order (heads, then
//!   body literals in source order), so the output does not depend on how
//!   the joins ran.

use crate::choice::unfold_choices;
use crate::error::DatalogError;
use crate::relevance::{QuerySeed, RelevanceAnalysis};
use crate::seminaive::{self, Emitter};
use crate::syntax::Program;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A ground atom: signed predicate plus constant arguments.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroundAtom {
    /// Predicate name.
    pub predicate: String,
    /// Classical negation flag.
    pub strong_neg: bool,
    /// Constant arguments.
    pub args: Vec<Arc<str>>,
}

impl GroundAtom {
    /// Construct a ground atom from string arguments.
    pub fn new<S: AsRef<str>>(predicate: impl Into<String>, args: &[S]) -> Self {
        GroundAtom {
            predicate: predicate.into(),
            strong_neg: false,
            args: args.iter().map(|a| Arc::from(a.as_ref())).collect(),
        }
    }

    /// The classically negated version of this ground atom.
    pub fn strongly_negated(mut self) -> Self {
        self.strong_neg = !self.strong_neg;
        self
    }

    /// The complementary atom (`p` ↔ `¬p`).
    pub fn complement(&self) -> Self {
        self.clone().strongly_negated()
    }
}

impl fmt::Display for GroundAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.strong_neg {
            write!(f, "-")?;
        }
        write!(f, "{}", self.predicate)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Identifier of a ground atom inside a [`GroundProgram`].
pub type AtomId = usize;

/// A ground rule over atom identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundRule {
    /// Head atom ids (disjunction; empty = constraint).
    pub heads: Vec<AtomId>,
    /// Positive body atom ids.
    pub pos: Vec<AtomId>,
    /// Default-negated body atom ids.
    pub neg: Vec<AtomId>,
}

impl GroundRule {
    /// True when the rule has no body.
    pub fn is_fact(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty() && self.heads.len() == 1
    }

    /// True when the rule has an empty head.
    pub fn is_constraint(&self) -> bool {
        self.heads.is_empty()
    }
}

/// A propositional (ground) program with interned atoms.
#[derive(Debug, Clone, Default)]
pub struct GroundProgram {
    atoms: Vec<GroundAtom>,
    index: BTreeMap<GroundAtom, AtomId>,
    rules: Vec<GroundRule>,
}

impl GroundProgram {
    /// Number of distinct ground atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of ground rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The ground rules.
    pub fn rules(&self) -> &[GroundRule] {
        &self.rules
    }

    /// Resolve an atom id.
    pub fn atom(&self, id: AtomId) -> &GroundAtom {
        &self.atoms[id]
    }

    /// Look up an atom's id, if it was interned.
    pub fn atom_id(&self, atom: &GroundAtom) -> Option<AtomId> {
        self.index.get(atom).copied()
    }

    /// Intern an atom, returning its id.
    pub fn intern(&mut self, atom: GroundAtom) -> AtomId {
        if let Some(&id) = self.index.get(&atom) {
            return id;
        }
        let id = self.atoms.len();
        self.atoms.push(atom.clone());
        self.index.insert(atom, id);
        id
    }

    /// Append an atom known not to be interned yet, returning its id.
    pub(crate) fn push_new(&mut self, atom: GroundAtom) -> AtomId {
        let id = self.atoms.len();
        self.atoms.push(atom.clone());
        self.index.insert(atom, id);
        id
    }

    /// Add a ground rule.
    pub fn add_rule(&mut self, rule: GroundRule) {
        self.rules.push(rule);
    }

    /// True when some ground rule has a disjunctive head.
    pub fn is_disjunctive(&self) -> bool {
        self.rules.iter().any(|r| r.heads.len() > 1)
    }

    /// Iterate over all interned atoms with their ids.
    pub fn atoms(&self) -> impl Iterator<Item = (AtomId, &GroundAtom)> {
        self.atoms.iter().enumerate()
    }

    /// Render a set of atom ids as ground atoms (sorted, for stable output).
    pub fn decode(&self, ids: &BTreeSet<AtomId>) -> BTreeSet<GroundAtom> {
        ids.iter().map(|&id| self.atoms[id].clone()).collect()
    }

    /// Exact size accounting for interned ground programs: rules are 24
    /// bytes plus 8 per atom id; each distinct atom charges its predicate
    /// text, 8 bytes per constant-argument reference, and each `Arc<str>`
    /// payload *once per distinct allocation* (shared interned text
    /// deduplicates by pointer identity — the atom `index` shares its
    /// argument allocations with `atoms`, so it adds only fixed per-entry
    /// overhead). Deterministic for a given grounding.
    pub fn exact_bytes(&self) -> usize {
        let mut seen: std::collections::HashSet<*const u8> = std::collections::HashSet::new();
        let atoms: usize = self
            .atoms
            .iter()
            .map(|a| {
                let mut bytes = 24 + a.predicate.len() + 8 * a.args.len();
                for arg in &a.args {
                    if seen.insert(arg.as_ptr()) {
                        bytes += arg.len();
                    }
                }
                bytes
            })
            .sum();
        let index = self.index.len() * 48;
        let rules: usize = self
            .rules
            .iter()
            .map(|r| 24 + 8 * (r.heads.len() + r.pos.len() + r.neg.len()))
            .sum();
        atoms + index + rules
    }
}

impl fmt::Display for GroundProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            for (i, h) in r.heads.iter().enumerate() {
                if i > 0 {
                    write!(f, " v ")?;
                }
                write!(f, "{}", self.atoms[*h])?;
            }
            if !r.pos.is_empty() || !r.neg.is_empty() {
                if !r.heads.is_empty() {
                    write!(f, " ")?;
                }
                write!(f, ":- ")?;
                let mut first = true;
                for p in &r.pos {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", self.atoms[*p])?;
                    first = false;
                }
                for n in &r.neg {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "not {}", self.atoms[*n])?;
                    first = false;
                }
            }
            writeln!(f, ".")?;
        }
        Ok(())
    }
}

/// Ground only the query-relevant slice of a program (the pruning entry
/// point; see [`crate::relevance`] for the analysis and its soundness
/// conditions). Equivalent to `Grounder::new(program).ground_relevant(seeds)`.
pub fn ground_relevant(
    program: &Program,
    seeds: &[QuerySeed],
) -> Result<GroundProgram, DatalogError> {
    Grounder::new(program).ground_relevant(seeds)
}

/// The grounder.
pub struct Grounder {
    program: Program,
}

impl Grounder {
    /// Create a grounder for a program. Choice atoms are automatically
    /// unfolded into their stable version.
    pub fn new(program: &Program) -> Self {
        let program = if program.has_choice() {
            unfold_choices(program)
        } else {
            program.clone()
        };
        Grounder { program }
    }

    /// The (choice-unfolded) program being grounded.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Ground the program: one semi-naive pass over interned ids, then emission in source order — every rule's
    /// instances in program order, each rule's sorted by its positive-body
    /// atoms in [`GroundAtom`] order. Default-negated literals whose atom
    /// can never be derived are dropped; built-ins are evaluated away.
    pub fn ground(&self) -> Result<GroundProgram, DatalogError> {
        if let Some(rule) = self.program.unsafe_rules().first() {
            return Err(DatalogError::UnsafeRule(rule.to_string()));
        }
        let built = seminaive::build(self.program.rules());
        let mut emitter = Emitter::new(&built.core);
        let mut facts = built.fact_atoms.iter();
        let mut compiled = 0;
        for rule in self.program.rules() {
            if rule.is_fact() {
                emitter.fact(*facts.next().expect("one atom per fact rule"));
            } else {
                let matches = &built.matches[compiled];
                for i in 0..matches.len() {
                    emitter.source_instance(compiled, matches, i);
                }
                compiled += 1;
            }
        }
        Ok(emitter.finish())
    }

    /// Ground only the slice of the program relevant to the query seeds
    /// (see [`crate::relevance`]): irrelevant rules are never instantiated,
    /// and the defining rules of binding-restrictable seeds are
    /// pre-instantiated to the query constants, so ground instantiation is
    /// seeded from the query bindings instead of the full active domain.
    ///
    /// Safety is checked against the *full* program (an unsafe rule is a
    /// program bug regardless of the query), and the relevance analysis runs
    /// on the choice-unfolded program, so `chosen`/`diffchoice` scaffolding
    /// is pruned with the rules that use it.
    pub fn ground_relevant(&self, seeds: &[QuerySeed]) -> Result<GroundProgram, DatalogError> {
        if let Some(rule) = self.program.unsafe_rules().first() {
            return Err(DatalogError::UnsafeRule(rule.to_string()));
        }
        let analysis = RelevanceAnalysis::analyze(&self.program, seeds);
        let restricted = analysis.restrict(&self.program);
        Grounder {
            program: restricted,
        }
        .ground()
    }

    /// The relevance analysis of this grounder's (choice-unfolded) program
    /// for the given seeds — exposed so callers can fingerprint the slice
    /// without grounding it.
    pub fn relevance(&self, seeds: &[QuerySeed]) -> RelevanceAnalysis {
        RelevanceAnalysis::analyze(&self.program, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{Atom, BodyItem, Builtin, BuiltinOp, ChoiceAtom, Rule, Term};

    fn atom(p: &str, args: &[&str]) -> Atom {
        Atom::new(p, args)
    }

    #[test]
    fn facts_ground_to_themselves() {
        let mut p = Program::new();
        p.add_fact(atom("r1", &["a", "b"]));
        p.add_fact(atom("r1", &["c", "d"]));
        let g = Grounder::new(&p).ground().unwrap();
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.atom_count(), 2);
        assert!(g.rules().iter().all(GroundRule::is_fact));
    }

    #[test]
    fn simple_rule_instantiates_once_per_matching_fact() {
        let mut p = Program::new();
        p.add_fact(atom("edge", &["a", "b"]));
        p.add_fact(atom("edge", &["b", "c"]));
        p.add_rule(Rule::new(
            vec![atom("reach", &["X", "Y"])],
            vec![BodyItem::Pos(atom("edge", &["X", "Y"]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("reach", &["X", "Z"])],
            vec![
                BodyItem::Pos(atom("reach", &["X", "Y"])),
                BodyItem::Pos(atom("edge", &["Y", "Z"])),
            ],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        // reach facts derivable: (a,b), (b,c), (a,c); transitive rule
        // instantiates for every reach × edge join over the saturated set.
        let preds: BTreeSet<String> = g.atoms().map(|(_, a)| a.predicate.clone()).collect();
        assert!(preds.contains("reach"));
        // 2 facts + 2 base-rule instances + 1 transitive instance (a→b→c).
        assert_eq!(g.rule_count(), 5);
        assert!(g.atom_id(&GroundAtom::new("reach", &["a", "c"])).is_some());
    }

    #[test]
    fn unsafe_rule_is_rejected() {
        let mut p = Program::new();
        p.add_rule(Rule::new(
            vec![atom("p", &["X"])],
            vec![BodyItem::Naf(atom("q", &["X"]))],
        ));
        assert!(matches!(
            Grounder::new(&p).ground(),
            Err(DatalogError::UnsafeRule(_))
        ));
    }

    #[test]
    fn naf_on_underivable_atom_is_dropped() {
        let mut p = Program::new();
        p.add_fact(atom("p", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("q", &["X"])],
            vec![
                BodyItem::Pos(atom("p", &["X"])),
                BodyItem::Naf(atom("never", &["X"])),
            ],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        let rule = g
            .rules()
            .iter()
            .find(|r| !r.is_fact())
            .expect("instantiated rule");
        assert!(rule.neg.is_empty(), "naf on impossible atom should vanish");
    }

    #[test]
    fn naf_on_possible_atom_is_kept() {
        let mut p = Program::new();
        p.add_fact(atom("p", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("q", &["X"])],
            vec![
                BodyItem::Pos(atom("p", &["X"])),
                BodyItem::Naf(atom("r", &["X"])),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("r", &["X"])],
            vec![
                BodyItem::Pos(atom("p", &["X"])),
                BodyItem::Naf(atom("q", &["X"])),
            ],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        let non_facts: Vec<&GroundRule> = g.rules().iter().filter(|r| !r.is_fact()).collect();
        assert_eq!(non_facts.len(), 2);
        assert!(non_facts.iter().all(|r| r.neg.len() == 1));
    }

    #[test]
    fn builtins_are_evaluated_during_instantiation() {
        let mut p = Program::new();
        p.add_fact(atom("num", &["a"]));
        p.add_fact(atom("num", &["b"]));
        p.add_rule(Rule::new(
            vec![atom("pair", &["X", "Y"])],
            vec![
                BodyItem::Pos(atom("num", &["X"])),
                BodyItem::Pos(atom("num", &["Y"])),
                BodyItem::Builtin(Builtin::new(BuiltinOp::Neq, Term::var("X"), Term::var("Y"))),
            ],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        // Only (a,b) and (b,a) pairs survive the X != Y builtin.
        let pair_rules = g.rules().iter().filter(|r| !r.is_fact()).count();
        assert_eq!(pair_rules, 2);
    }

    #[test]
    fn constants_in_rule_heads_and_bodies() {
        let mut p = Program::new();
        p.add_fact(atom("p", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("q", &["a", "marker"])],
            vec![BodyItem::Pos(atom("p", &["a"]))],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        assert!(g.atom_id(&GroundAtom::new("q", &["a", "marker"])).is_some());
    }

    #[test]
    fn constraints_are_grounded() {
        let mut p = Program::new();
        p.add_fact(atom("p", &["a"]));
        p.add_fact(atom("q", &["a"]));
        p.add_constraint(vec![
            BodyItem::Pos(atom("p", &["X"])),
            BodyItem::Pos(atom("q", &["X"])),
        ]);
        let g = Grounder::new(&p).ground().unwrap();
        assert!(g.rules().iter().any(GroundRule::is_constraint));
    }

    #[test]
    fn strong_negation_keeps_predicates_apart() {
        let mut p = Program::new();
        p.add_fact(atom("p", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("p", &["X"]).strongly_negated()],
            vec![BodyItem::Pos(atom("p", &["X"]))],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        assert_eq!(g.atom_count(), 2);
        assert!(g
            .atom_id(&GroundAtom::new("p", &["a"]).strongly_negated())
            .is_some());
    }

    #[test]
    fn choice_rules_are_unfolded_before_grounding() {
        let mut p = Program::new();
        p.add_fact(atom("cand", &["k", "v1"]));
        p.add_fact(atom("cand", &["k", "v2"]));
        p.add_rule(Rule::new(
            vec![atom("pick", &["X", "W"])],
            vec![
                BodyItem::Pos(atom("cand", &["X", "W"])),
                BodyItem::Choice(ChoiceAtom::new(vec![Term::var("X")], vec![Term::var("W")])),
            ],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        let preds: BTreeSet<String> = g.atoms().map(|(_, a)| a.predicate.clone()).collect();
        assert!(preds.contains("chosen_0"));
        assert!(preds.contains("diffchoice_0"));
    }

    #[test]
    fn tautological_instances_are_dropped() {
        let mut p = Program::new();
        p.add_fact(atom("p", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("p", &["X"])],
            vec![BodyItem::Pos(atom("p", &["X"]))],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        assert_eq!(g.rule_count(), 1); // only the fact survives
    }

    #[test]
    fn ground_program_display_is_parsable_text() {
        let mut p = Program::new();
        p.add_fact(atom("p", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("q", &["X"])],
            vec![
                BodyItem::Pos(atom("p", &["X"])),
                BodyItem::Naf(atom("q", &["X"]).strongly_negated()),
            ],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        let text = g.to_string();
        assert!(text.contains("p(a)."));
        assert!(text.contains("q(a) :- p(a)."));
    }

    #[test]
    fn exact_bytes_deduplicates_shared_argument_text() {
        let mut g = GroundProgram::default();
        let shared: std::sync::Arc<str> = std::sync::Arc::from("shared-constant");
        let a = GroundAtom {
            predicate: "p".to_string(),
            strong_neg: false,
            args: vec![std::sync::Arc::clone(&shared)],
        };
        let b = GroundAtom {
            predicate: "q".to_string(),
            strong_neg: false,
            args: vec![std::sync::Arc::clone(&shared)],
        };
        let ha = g.intern(a);
        let hb = g.intern(b);
        g.add_rule(GroundRule {
            heads: vec![hb],
            pos: vec![ha],
            neg: vec![],
        });
        // Two atoms (24 + 1 + 8 each), one shared 15-byte payload charged
        // once, two index entries, one rule with two atom ids.
        let expected = 2 * (24 + 1 + 8) + 15 + 2 * 48 + (24 + 8 * 2);
        assert_eq!(g.exact_bytes(), expected);
    }
}
