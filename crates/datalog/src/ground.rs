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
//! * **Ids out.** The emitted [`GroundProgram`] keeps the grounding's ids:
//!   each atom is a predicate id plus constant ids, over the grounding's
//!   symbol table, which the program shares rather than copies.
//!   [`GroundAtom`] is an owned view of one atom, built on demand
//!   ([`GroundProgram::atom`], [`GroundProgram::decode`], `Display`).
//! * **One flat rule table.** The rules' atom ids sit in one literal buffer,
//!   rule after rule: each rule's heads, positive body, negated body, and
//!   per rule the three offsets where those parts end. Emission, the shift
//!   and drop allocate nothing per rule.

use crate::choice::unfold_choices;
use crate::error::DatalogError;
use crate::relevance::{QuerySeed, RelevanceAnalysis};
use crate::seminaive::{self, Emitter, Symbols};
use crate::syntax::Program;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A ground atom: signed predicate plus constant arguments. A ground
/// program stores its atoms as ids; this is the owned, textual view of one
/// ([`GroundProgram::atom`]), and the form atoms take on the way in
/// ([`GroundProgram::intern`], [`crate::IncrementalGround::apply_delta`]).
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

/// A ground rule over atom identifiers, owned: the form rules take on the
/// way in ([`GroundProgram::add_rule`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundRule {
    /// Head atom ids (disjunction; empty = constraint).
    pub heads: Vec<AtomId>,
    /// Positive body atom ids.
    pub pos: Vec<AtomId>,
    /// Default-negated body atom ids.
    pub neg: Vec<AtomId>,
}

/// One rule of a [`GroundProgram`], borrowed from its rule table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleRef<'a> {
    /// Head atom ids (disjunction; empty = constraint).
    pub heads: &'a [AtomId],
    /// Positive body atom ids.
    pub pos: &'a [AtomId],
    /// Default-negated body atom ids.
    pub neg: &'a [AtomId],
}

impl RuleRef<'_> {
    /// True when the rule has no body.
    pub fn is_fact(self) -> bool {
        self.pos.is_empty() && self.neg.is_empty() && self.heads.len() == 1
    }

    /// True when the rule has an empty head.
    pub fn is_constraint(self) -> bool {
        self.heads.is_empty()
    }
}

/// The rules of a [`GroundProgram`], in order: a view of its rule table.
/// The table's layout is canonical, so two views are equal exactly when
/// their rules are, atom id for atom id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rules<'a> {
    pub(crate) lits: &'a [AtomId],
    pub(crate) ends: &'a [[u32; 3]],
}

impl<'a> Rules<'a> {
    /// Number of rules.
    pub fn len(self) -> usize {
        self.ends.len()
    }

    /// True when there is no rule.
    pub fn is_empty(self) -> bool {
        self.ends.is_empty()
    }

    /// The rules in order, one pass over the end offsets.
    pub fn iter(self) -> RuleIter<'a> {
        RuleIter {
            rest: self.lits,
            start: 0,
            ends: self.ends.iter(),
        }
    }
}

impl<'a> IntoIterator for Rules<'a> {
    type Item = RuleRef<'a>;
    type IntoIter = RuleIter<'a>;

    fn into_iter(self) -> RuleIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Rules`] view: splits the literals not yet visited at
/// each rule's end offsets.
#[derive(Clone)]
pub struct RuleIter<'a> {
    rest: &'a [AtomId],
    /// The literal offset at which `rest` starts.
    start: u32,
    ends: std::slice::Iter<'a, [u32; 3]>,
}

impl<'a> Iterator for RuleIter<'a> {
    type Item = RuleRef<'a>;

    fn next(&mut self) -> Option<RuleRef<'a>> {
        let &[heads_end, pos_end, end] = self.ends.next()?;
        let (rule, rest) = self.rest.split_at((end - self.start) as usize);
        let (heads, body) = rule.split_at((heads_end - self.start) as usize);
        let (pos, neg) = body.split_at((pos_end - heads_end) as usize);
        (self.rest, self.start) = (rest, end);
        Some(RuleRef { heads, pos, neg })
    }
}

/// A propositional (ground) program over interned atoms.
///
/// Each atom is a signed predicate id plus constant ids, resolved through
/// the symbol table of the grounding that produced the program; the table
/// is shared with that grounding (an `Arc`), never copied. Atoms are
/// numbered in first-use order. [`GroundProgram::atom`] and
/// [`GroundProgram::atoms`] build [`GroundAtom`] views on demand;
/// [`GroundProgram::atom_predicate`], [`GroundProgram::atom_args`],
/// [`GroundProgram::predicate`] and [`GroundProgram::constant`] read the
/// ids and their symbols without materializing anything. Grounding and the
/// shift keep no index from atoms to ids; [`GroundProgram::atom_id`] and
/// [`GroundProgram::intern`] build a hash index on first use. The rules are
/// one flat table (see the module docs), lent as [`RuleRef`] slices.
///
/// A program may carry a *tightness certificate*
/// ([`GroundProgram::is_tight`]): its rules have no positive cycle, so the
/// solver may skip its unfounded-set pass. Only a grounding that proved it
/// sets it ([`crate::IncrementalGround::to_ground`] and `to_solver`); the
/// shift keeps it, and [`GroundProgram::add_rule`] drops it.
#[derive(Debug, Clone, Default)]
pub struct GroundProgram {
    symbols: Arc<Symbols>,
    /// Per atom: its signed predicate id.
    preds: Vec<u32>,
    /// Per atom: the end of its constant ids in `args` (each atom's ids
    /// start where the previous atom's end).
    ends: Vec<u32>,
    args: Vec<u32>,
    /// Every rule's literals: its heads, positive body, negated body.
    lits: Vec<AtomId>,
    /// Per rule: the ends of its heads, positive body and negated body in
    /// `lits`.
    rule_ends: Vec<[u32; 3]>,
    /// Whether some rule has two or more heads.
    disjunctive: bool,
    /// Certified free of positive cycles (see [`GroundProgram::is_tight`]).
    tight: bool,
    /// Atom ids keyed by the predicate id followed by the constant ids;
    /// built by the first lookup and kept current by every later append.
    index: OnceLock<HashMap<Box<[u32]>, AtomId>>,
}

impl GroundProgram {
    /// An empty program over a grounding's symbol table.
    pub(crate) fn over(symbols: Arc<Symbols>) -> Self {
        GroundProgram {
            symbols,
            ..GroundProgram::default()
        }
    }

    /// Append an atom given by ids, returning its id. The caller ensures
    /// the atom is not interned yet.
    pub(crate) fn push_atom(&mut self, pred: u32, args: &[u32]) -> AtomId {
        let id = self.preds.len();
        self.preds.push(pred);
        self.args.extend_from_slice(args);
        self.ends.push(self.args.len() as u32);
        if let Some(index) = self.index.get_mut() {
            index.insert(
                std::iter::once(pred).chain(args.iter().copied()).collect(),
                id,
            );
        }
        id
    }

    /// An atom's index key: its predicate id, then its constant ids.
    fn key(&self, id: AtomId) -> Box<[u32]> {
        std::iter::once(self.preds[id])
            .chain(self.atom_args(id).iter().copied())
            .collect()
    }

    /// Number of distinct ground atoms.
    pub fn atom_count(&self) -> usize {
        self.preds.len()
    }

    /// Number of ground rules.
    pub fn rule_count(&self) -> usize {
        self.rule_ends.len()
    }

    /// The ground rules.
    pub fn rules(&self) -> Rules<'_> {
        Rules {
            lits: &self.lits,
            ends: &self.rule_ends,
        }
    }

    /// The signed predicate id of an atom (see [`GroundProgram::predicate`]).
    pub fn atom_predicate(&self, id: AtomId) -> u32 {
        self.preds[id]
    }

    /// The constant ids of an atom's arguments (see
    /// [`GroundProgram::constant`]).
    pub fn atom_args(&self, id: AtomId) -> &[u32] {
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.args[start as usize..self.ends[id] as usize]
    }

    /// Number of predicate ids in the symbol table. Every atom's predicate
    /// id is below it; the table may name predicates no atom uses.
    pub fn predicate_count(&self) -> usize {
        self.symbols.pred_count()
    }

    /// The name and classical-negation flag of a predicate id.
    pub fn predicate(&self, pred: u32) -> (&str, bool) {
        let (name, strong_neg) = self.symbols.pred(pred);
        (name, *strong_neg)
    }

    /// Number of constant ids in the symbol table. Every argument id is
    /// below it; the table may hold constants no atom uses.
    pub fn constant_count(&self) -> usize {
        self.symbols.const_count()
    }

    /// The text of a constant id.
    pub fn constant(&self, constant: u32) -> &Arc<str> {
        self.symbols.const_text(constant)
    }

    /// The id of the predicate with the same name and the other sign
    /// (`p` ↔ `-p`), when the symbol table has it.
    pub(crate) fn complement_predicate(&self, pred: u32) -> Option<u32> {
        let (name, strong_neg) = self.symbols.pred(pred);
        self.symbols.find_predicate(name, !strong_neg)
    }

    /// An atom as an owned [`GroundAtom`].
    pub fn atom(&self, id: AtomId) -> GroundAtom {
        let (name, strong_neg) = self.predicate(self.preds[id]);
        GroundAtom {
            predicate: name.to_string(),
            strong_neg,
            args: self
                .atom_args(id)
                .iter()
                .map(|&c| Arc::clone(self.constant(c)))
                .collect(),
        }
    }

    /// Look up an atom's id, if it was interned. The first lookup builds
    /// the program's atom index.
    pub fn atom_id(&self, atom: &GroundAtom) -> Option<AtomId> {
        let mut key = Vec::with_capacity(1 + atom.args.len());
        key.push(
            self.symbols
                .find_predicate(&atom.predicate, atom.strong_neg)?,
        );
        for arg in &atom.args {
            key.push(self.symbols.find_constant(arg)?);
        }
        let index = self.index.get_or_init(|| {
            (0..self.atom_count())
                .map(|id| (self.key(id), id))
                .collect()
        });
        index.get(key.as_slice()).copied()
    }

    /// Intern an atom, returning its id. Adds its predicate and constants
    /// to the symbol table when new; a table still shared with the
    /// grounding (or another program) is copied first, so their ids never
    /// change.
    pub fn intern(&mut self, atom: GroundAtom) -> AtomId {
        if let Some(id) = self.atom_id(&atom) {
            return id;
        }
        let symbols = Arc::make_mut(&mut self.symbols);
        let pred = symbols.predicate(&atom.predicate, atom.strong_neg);
        let args: Vec<u32> = atom.args.iter().map(|a| symbols.constant(a)).collect();
        self.push_atom(pred, &args)
    }

    /// Add a ground rule. The rule may close a positive cycle, so the
    /// program loses its tightness certificate.
    pub fn add_rule(&mut self, rule: GroundRule) {
        self.tight = false;
        self.push_rule(&rule.heads, &rule.pos, &[&rule.neg]);
    }

    /// Whether the program is certified *tight*: no atom depends on itself
    /// through positive body literals alone. On a tight program every
    /// supported model is stable (Fages 1994), which lets
    /// [`crate::solve::NormalSolver`] skip its unfounded-set pass. `false`
    /// means only "not certified": programs from [`Grounder`] or built by
    /// hand are never certified, tight or not.
    pub fn is_tight(&self) -> bool {
        self.tight
    }

    /// Certify the program tight; the caller has proved it (see
    /// [`GroundProgram::is_tight`]).
    pub(crate) fn certify_tight(&mut self) {
        self.tight = true;
    }

    /// Append the rule `heads :- pos, not neg` to the rule table, its
    /// negated body given as parts to concatenate.
    pub(crate) fn push_rule(&mut self, heads: &[AtomId], pos: &[AtomId], neg: &[&[AtomId]]) {
        self.disjunctive |= heads.len() > 1;
        self.lits.extend_from_slice(heads);
        let heads_end = self.lits.len() as u32;
        self.lits.extend_from_slice(pos);
        let pos_end = self.lits.len() as u32;
        for part in neg {
            self.lits.extend_from_slice(part);
        }
        self.rule_ends
            .push([heads_end, pos_end, self.lits.len() as u32]);
    }

    /// Move the rule table out, as a program without atoms; the atoms keep
    /// their ids.
    pub(crate) fn take_rules(&mut self) -> GroundProgram {
        GroundProgram {
            lits: std::mem::take(&mut self.lits),
            rule_ends: std::mem::take(&mut self.rule_ends),
            disjunctive: std::mem::take(&mut self.disjunctive),
            ..GroundProgram::default()
        }
    }

    /// True when some ground rule has a disjunctive head.
    pub fn is_disjunctive(&self) -> bool {
        self.disjunctive
    }

    /// Iterate over all atoms with their ids, as [`GroundAtom`] views.
    pub fn atoms(&self) -> impl Iterator<Item = (AtomId, GroundAtom)> + '_ {
        (0..self.atom_count()).map(|id| (id, self.atom(id)))
    }

    /// Render atom ids as ground atoms (sorted, for stable output).
    pub fn decode(&self, ids: &[AtomId]) -> BTreeSet<GroundAtom> {
        ids.iter().map(|&id| self.atom(id)).collect()
    }
}

impl fmt::Display for GroundProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.rules() {
            for (i, &h) in r.heads.iter().enumerate() {
                if i > 0 {
                    write!(f, " v ")?;
                }
                write!(f, "{}", self.atom(h))?;
            }
            if !r.pos.is_empty() || !r.neg.is_empty() {
                if !r.heads.is_empty() {
                    write!(f, " ")?;
                }
                write!(f, ":- ")?;
                let mut first = true;
                for &p in r.pos {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", self.atom(p))?;
                    first = false;
                }
                for &n in r.neg {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "not {}", self.atom(n))?;
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

/// The grounder. It borrows a program without choice atoms and owns only
/// a choice-unfolded copy.
pub struct Grounder<'a> {
    program: Cow<'a, Program>,
}

impl<'a> Grounder<'a> {
    /// Create a grounder for a program. Choice atoms are automatically
    /// unfolded into their stable version.
    pub fn new(program: &'a Program) -> Self {
        let program = if program.has_choice() {
            Cow::Owned(unfold_choices(program))
        } else {
            Cow::Borrowed(program)
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
        let (built, order) =
            seminaive::build_program(self.program.rules(), [], &|_| unreachable!());
        let mut emitter = Emitter::new(&built.core);
        let mut facts = order.iter().map(|&row| built.fact_atoms[row]);
        let mut compiled = 0;
        for rule in self.program.rules() {
            if rule.is_fact() {
                emitter.fact(facts.next().expect("one atom per fact rule"));
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
            program: Cow::Owned(restricted),
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
    fn instances_sort_past_the_packed_key() {
        // Twelve body atoms over one fact fill the packed sort key and tie
        // every match; the two atoms after them decide the order.
        let mut p = Program::new();
        p.add_fact(atom("one", &["a"]));
        for c in ["c", "a", "b"] {
            p.add_fact(atom("x", &[c]));
            p.add_fact(atom("y", &[c]));
        }
        let mut body: Vec<BodyItem> = (0..12)
            .map(|_| BodyItem::Pos(atom("one", &["Z"])))
            .collect();
        body.push(BodyItem::Pos(atom("x", &["X"])));
        body.push(BodyItem::Pos(atom("y", &["Y"])));
        p.add_rule(Rule::new(vec![atom("h", &["X", "Y"])], body));
        let g = Grounder::new(&p).ground().unwrap();
        let tails: Vec<(GroundAtom, GroundAtom)> = g
            .rules()
            .iter()
            .filter(|r| r.pos.len() == 14)
            .map(|r| (g.atom(r.pos[12]), g.atom(r.pos[13])))
            .collect();
        assert_eq!(tails.len(), 9);
        assert!(tails.windows(2).all(|w| w[0] < w[1]), "{tails:?}");
    }

    #[test]
    fn facts_ground_to_themselves() {
        let mut p = Program::new();
        p.add_fact(atom("r1", &["a", "b"]));
        p.add_fact(atom("r1", &["c", "d"]));
        let g = Grounder::new(&p).ground().unwrap();
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.atom_count(), 2);
        assert!(g.rules().iter().all(RuleRef::is_fact));
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
        let non_facts: Vec<RuleRef> = g.rules().iter().filter(|r| !r.is_fact()).collect();
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
        assert!(g.rules().iter().any(RuleRef::is_constraint));
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

    /// A program built through `add_rule`: a fact, a disjunctive rule, a
    /// plain rule, a constraint, a headless rule with only a negated body
    /// and a three-way disjunctive fact.
    fn table_program() -> (GroundProgram, Vec<GroundRule>) {
        let mut g = GroundProgram::default();
        let [a, b, c, d] = [("p", "a"), ("q", "b"), ("r", "c"), ("s", "d")]
            .map(|(p, x)| g.intern(GroundAtom::new(p, &[x])));
        let e = g.intern(GroundAtom::new("q", &["b"]).strongly_negated());
        let rule = |heads: &[AtomId], pos: &[AtomId], neg: &[AtomId]| GroundRule {
            heads: heads.to_vec(),
            pos: pos.to_vec(),
            neg: neg.to_vec(),
        };
        let rules = vec![
            rule(&[a], &[], &[]),
            rule(&[b, c], &[a], &[d]),
            rule(&[e], &[a, a], &[b, c]),
            rule(&[], &[b, c], &[]),
            rule(&[], &[], &[d]),
            rule(&[b, c, d], &[], &[]),
        ];
        for r in &rules {
            g.add_rule(r.clone());
        }
        (g, rules)
    }

    #[test]
    fn add_rule_round_trips_through_the_rule_table() {
        let (g, rules) = table_program();
        assert_eq!(g.rule_count(), rules.len());
        assert_eq!(g.rules().len(), rules.len());
        assert!(g.is_disjunctive());
        let back: Vec<GroundRule> = g
            .rules()
            .iter()
            .map(|r| GroundRule {
                heads: r.heads.to_vec(),
                pos: r.pos.to_vec(),
                neg: r.neg.to_vec(),
            })
            .collect();
        assert_eq!(back, rules);
        let kinds = |r: RuleRef| (r.is_fact(), r.is_constraint());
        let kinds: Vec<(bool, bool)> = g.rules().iter().map(kinds).collect();
        assert_eq!(kinds[..2], [(true, false), (false, false)]);
        assert_eq!(kinds[3..5], [(false, true), (false, true)]);
        assert_eq!(g.rules(), g.clone().rules());
        assert!(!GroundProgram::default().is_disjunctive());
    }

    #[test]
    fn display_of_the_rule_table_is_unchanged() {
        // The text the program printed when each rule was its own
        // `GroundRule` of three vectors.
        let (g, _) = table_program();
        assert_eq!(
            g.to_string(),
            "p(a).\n\
             q(b) v r(c) :- p(a), not s(d).\n\
             -q(b) :- p(a), p(a), not q(b), not r(c).\n\
             :- q(b), r(c).\n\
             :- not s(d).\n\
             q(b) v r(c) v s(d).\n"
        );
    }
}
