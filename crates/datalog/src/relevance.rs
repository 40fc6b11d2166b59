//! Relevance analysis: magic-sets-style pruning of a program to the slice
//! that can influence a query.
//!
//! The paper's peer-consistent-answer semantics only ever consults the rules
//! transitively relevant to the query atom through DEC edges and local ICs
//! (Definitions 2–3): a query about `R1` cannot observe the repair
//! scaffolding — or the facts — of relations it is not connected to. The
//! grounder, however, instantiates the *whole* specification program, so
//! every query pays for every peer's data. This module computes, from a set
//! of [`QuerySeed`]s and the rule dependency structure, the subset of rules
//! that can influence the seeds, and [`crate::ground::ground_relevant`]
//! instantiates only that slice.
//!
//! ## Soundness
//!
//! Dropping rules from a program under the answer-set semantics is subtle:
//! an apparently unrelated rule can still veto models. The analysis is
//! conservative about exactly the three mechanisms by which that happens:
//!
//! 1. **Constraints** (empty-head rules) kill candidate models. Every
//!    constraint is kept, and its body predicates are part of the initial
//!    relevant set, so the rules defining them survive too.
//! 2. **Odd negative loops** (a dependency cycle through an odd number of
//!    default-negated edges, e.g. `p ← not p`) can make a program
//!    incoherent. Every predicate on such a loop is treated as relevant.
//! 3. **Classical-negation clashes**: the solver rejects models containing
//!    both `p(ā)` and `¬p(ā)`, which couples the two signed predicates.
//!    Whenever both signs of a predicate occur in rule heads, both are
//!    treated as relevant; and whenever a relevant predicate has a derivable
//!    complement, the complement becomes relevant as well.
//!
//! The rules that remain droppable therefore form a constraint-free,
//! odd-loop-free, clash-free *top layer* that only reads from the kept
//! slice: by the splitting-set theorem it extends every answer set of the
//! kept slice in at least one way and never adds or removes atoms over
//! relevant predicates. Cautious (and brave) consequences over the relevant
//! predicates — in particular the query answers — are identical to the full
//! program's.
//!
//! ## Binding restriction
//!
//! A [`QuerySeed`] may carry *bound constants* from the query (e.g. the `a`
//! of `R1(a, Y)`). When a seed predicate is **restrictable** — it is defined
//! by non-disjunctive kept rules, read by nothing else in the kept slice,
//! and has no derivable complement — instantiation of its defining rules is
//! seeded from the query bindings instead of the full active domain: head
//! variables at bound positions are substituted with the query constants
//! before grounding, and head constants that contradict a binding drop the
//! rule. Because nothing in the kept slice reads a restrictable seed, the
//! other atoms of every answer set are unaffected, and the seed's extension
//! is exactly the binding-compatible subset of its unrestricted extension —
//! which is all a query with those bindings can observe.

use crate::syntax::{Atom, BodyItem, Builtin, Program, Rule, Term};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One query seed: a (signed) predicate the query observes, with optional
/// per-position constant bindings from the query atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySeed {
    /// Signed predicate key (`p`, or `-p` for a classically negated atom),
    /// matching [`Atom::signed_predicate`].
    pub predicate: String,
    /// Per-position bindings: `Some(c)` when every occurrence of the
    /// predicate in the query has the constant `c` at that position. Empty
    /// when the arity is unknown (treated as fully unbound).
    pub bindings: Vec<Option<Arc<str>>>,
}

impl QuerySeed {
    /// An unbound seed (no constant restriction).
    pub fn new(predicate: impl Into<String>) -> Self {
        QuerySeed {
            predicate: predicate.into(),
            bindings: Vec::new(),
        }
    }

    /// A seed with per-position constant bindings.
    pub fn with_bindings(predicate: impl Into<String>, bindings: Vec<Option<Arc<str>>>) -> Self {
        QuerySeed {
            predicate: predicate.into(),
            bindings,
        }
    }

    /// True when no position is bound.
    pub fn is_unbound(&self) -> bool {
        self.bindings.iter().all(Option::is_none)
    }
}

/// The result of a relevance analysis over one program: which rules are
/// kept, which predicates are relevant, and which seeds admit binding
/// restriction.
#[derive(Debug, Clone)]
pub struct RelevanceAnalysis {
    seeds: Vec<QuerySeed>,
    /// Per rule of the analyzed program: survives pruning?
    kept: Vec<bool>,
    /// Signed predicate keys that can influence the seeds.
    relevant: BTreeSet<String>,
    /// Seed predicates whose defining rules may be binding-restricted.
    restrictable: BTreeSet<String>,
    total_rules: usize,
    /// Content hash of the kept *non-fact* rules plus the relevant
    /// predicate set — deliberately fact-insensitive, so a base-fact update
    /// leaves a slice's fingerprint (and therefore its cache key) stable
    /// and the incremental re-grounding can find the stale artifact.
    slice_hash: u64,
    /// Kept / total non-fact rules (the fact-insensitive shape counts shown
    /// in the fingerprint).
    kept_structural: usize,
    total_structural: usize,
}

impl RelevanceAnalysis {
    /// Analyze `program` for the given query seeds.
    ///
    /// The program must not contain choice atoms (unfold them first with
    /// [`crate::choice::unfold_choices`]; [`crate::ground::Grounder`] does
    /// this automatically).
    pub fn analyze(program: &Program, seeds: &[QuerySeed]) -> Self {
        let rules = program.rules();
        // One shape per non-fact rule, and one per distinct fact predicate:
        // a fact adds only its head, so facts of one predicate behave
        // alike. `shape_of[i]` is rule `i`'s shape.
        let mut shapes: Vec<RuleShape> = Vec::new();
        let mut fact_shapes: HashMap<(&str, bool), usize> = HashMap::new();
        // Facts come in runs of one predicate: the previous fact's shape.
        let mut last: Option<((&str, bool), usize)> = None;
        let shape_of: Vec<usize> = rules
            .iter()
            .map(|rule| {
                if !rule.is_fact() {
                    shapes.push(RuleShape::of(rule));
                    return shapes.len() - 1;
                }
                let head = &rule.head[0];
                let key = (head.predicate.as_str(), head.strong_neg);
                let shape = match last {
                    Some((previous, shape)) if previous == key => shape,
                    _ => *fact_shapes.entry(key).or_insert_with(|| {
                        shapes.push(RuleShape::of(rule));
                        shapes.len() - 1
                    }),
                };
                last = Some((key, shape));
                shapes[shape].fact_arities.insert(head.terms.len());
                shape
            })
            .collect();

        // Heads derivable anywhere in the program, for complement coupling.
        let mut derivable: BTreeSet<&str> = BTreeSet::new();
        for shape in &shapes {
            derivable.extend(shape.heads.iter().map(String::as_str));
        }

        // The initial relevant set: the query seeds, every constraint body,
        // every predicate on an odd negative loop, and every predicate whose
        // two signs are both derivable.
        let mut relevant: BTreeSet<String> = seeds.iter().map(|s| s.predicate.clone()).collect();
        for shape in shapes.iter().filter(|s| s.is_constraint) {
            relevant.extend(shape.body.iter().map(|(pred, _)| pred.clone()));
        }
        relevant.extend(odd_loop_predicates(&shapes));
        for pred in &derivable {
            let comp = complement_key(pred);
            if derivable.contains(comp.as_str()) {
                relevant.insert((*pred).to_string());
                relevant.insert(comp);
            }
        }

        // Backward closure: a rule whose head intersects the relevant set
        // contributes all of its predicates; a relevant predicate with a
        // derivable complement contributes the complement (coherence).
        loop {
            let mut changed = false;
            let complements: Vec<String> = relevant
                .iter()
                .map(|p| complement_key(p))
                .filter(|c| derivable.contains(c.as_str()) && !relevant.contains(c))
                .collect();
            for comp in complements {
                relevant.insert(comp);
                changed = true;
            }
            for shape in &shapes {
                // A fact shape adds only its head, which is relevant already.
                if shape.is_constraint
                    || !shape.fact_arities.is_empty()
                    || !shape.heads.iter().any(|h| relevant.contains(h))
                {
                    continue;
                }
                for pred in shape.predicates() {
                    if relevant.insert(pred.clone()) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let kept_shape: Vec<bool> = shapes
            .iter()
            .map(|s| s.is_constraint || s.heads.iter().any(|h| relevant.contains(h)))
            .collect();
        let kept: Vec<bool> = shape_of.iter().map(|&shape| kept_shape[shape]).collect();
        // A representative rule per shape (the first rule that has it).
        let mut shape_rules: Vec<&Rule> = Vec::with_capacity(shapes.len());
        for (rule, &shape) in rules.iter().zip(&shape_of) {
            if shape == shape_rules.len() {
                shape_rules.push(rule);
            }
        }

        // A seed is binding-restrictable when nothing in the kept slice can
        // observe more of it than the query asks for: outside its own
        // defining rules it is read by no kept rule or constraint body, it
        // has no derivable or referenced complement, every kept rule
        // defining it has a single-atom head, and recursion — the seed in
        // the body of its own defining rule — passes every bound position
        // through unchanged (the textbook magic-sets condition: the head
        // variable at a bound position reappears verbatim in each recursive
        // body occurrence, so binding-matching derivations only ever consume
        // binding-matching atoms).
        let mut restrictable = BTreeSet::new();
        'seed: for seed in seeds {
            if seed.is_unbound() {
                continue;
            }
            let comp = complement_key(&seed.predicate);
            for ((shape, rule), keep) in shapes.iter().zip(&shape_rules).zip(&kept_shape) {
                if !keep {
                    continue;
                }
                if shape.heads.contains(&comp) || shape.body.iter().any(|(pred, _)| *pred == comp) {
                    continue 'seed;
                }
                let defines = shape.heads.contains(&seed.predicate);
                let reads = shape.body.iter().any(|(pred, _)| *pred == seed.predicate);
                if defines {
                    // A fact has no body to recurse through; only its arity
                    // can leave the seed's bindings unusable.
                    let preserves = if shape.fact_arities.is_empty() {
                        recursion_preserves_bindings(rule, seed)
                    } else {
                        shape
                            .fact_arities
                            .iter()
                            .all(|&arity| arity == seed.bindings.len())
                    };
                    if shape.heads.len() > 1 || !preserves {
                        continue 'seed;
                    }
                } else if reads {
                    // Read by a rule (or constraint) that does not define
                    // the seed: restricting it would change what that reader
                    // observes.
                    continue 'seed;
                }
            }
            restrictable.insert(seed.predicate.clone());
        }

        // Fact-insensitive slice identity: kept non-fact rule content plus
        // the relevant predicate set (which determines the kept facts).
        let mut slice_hash: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                slice_hash ^= u64::from(b);
                slice_hash = slice_hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        let mut kept_structural = 0;
        let mut total_structural = 0;
        for (rule, keep) in rules.iter().zip(&kept) {
            if rule.is_fact() {
                continue;
            }
            total_structural += 1;
            if *keep {
                kept_structural += 1;
                eat(rule.to_string().as_bytes());
                eat(b"\x00;");
            }
        }
        for pred in &relevant {
            eat(pred.as_bytes());
            eat(b"\x00,");
        }

        RelevanceAnalysis {
            seeds: seeds.to_vec(),
            kept,
            relevant,
            restrictable,
            total_rules: rules.len(),
            slice_hash,
            kept_structural,
            total_structural,
        }
    }

    /// Number of rules surviving the pruning.
    pub fn kept_rule_count(&self) -> usize {
        self.kept.iter().filter(|&&k| k).count()
    }

    /// Number of rules in the analyzed program.
    pub fn total_rule_count(&self) -> usize {
        self.total_rules
    }

    /// Is a signed predicate part of the relevant slice?
    pub fn is_relevant(&self, signed_predicate: &str) -> bool {
        self.relevant.contains(signed_predicate)
    }

    /// The relevant signed predicates.
    pub fn relevant_predicates(&self) -> &BTreeSet<String> {
        &self.relevant
    }

    /// Can the given seed predicate's instantiation be restricted to its
    /// query bindings?
    pub fn is_restrictable(&self, seed_predicate: &str) -> bool {
        self.restrictable.contains(seed_predicate)
    }

    /// A stable fingerprint of the pruned slice (kept structural rules,
    /// relevant predicates and effective bindings), suitable as a
    /// memo-cache key component: two queries share a fingerprint exactly
    /// when they ground the same program slice. Deliberately *fact-
    /// insensitive*: base-fact updates change what the slice grounds to,
    /// not which slice it is, so a stale artifact keeps its key across
    /// commits and the incremental re-grounding can find and repair it.
    pub fn fingerprint(&self) -> String {
        let mut hash: u64 = self.slice_hash;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        for seed in &self.seeds {
            if !self.restrictable.contains(&seed.predicate) {
                continue;
            }
            eat(seed.predicate.as_bytes());
            for binding in &seed.bindings {
                match binding {
                    Some(c) => eat(c.as_bytes()),
                    None => eat(b"\x00*"),
                }
            }
        }
        format!(
            "{:016x}:{}/{}",
            hash, self.kept_structural, self.total_structural
        )
    }

    /// The pruned program: kept rules only, with the defining rules of
    /// restrictable seeds pre-instantiated to the query bindings.
    pub fn restrict(&self, program: &Program) -> Program {
        let bindings: BTreeMap<&str, &QuerySeed> = self
            .seeds
            .iter()
            .filter(|s| self.restrictable.contains(&s.predicate) && !s.is_unbound())
            .map(|s| (s.predicate.as_str(), s))
            .collect();
        let mut out = Program::new();
        for (rule, &keep) in program.rules().iter().zip(&self.kept) {
            if !keep {
                continue;
            }
            let seed = rule
                .head
                .first()
                .filter(|_| rule.head.len() == 1 && !bindings.is_empty())
                .and_then(|h| bindings.get(h.signed_predicate().as_str()));
            match seed {
                Some(seed) => {
                    if let Some(bound) = bind_head(rule, seed) {
                        out.add_rule(bound);
                    }
                }
                None => {
                    out.add_rule(rule.clone());
                }
            }
        }
        out
    }
}

/// Pre-extracted signed-predicate sets of one rule, or of every fact of
/// one signed predicate.
struct RuleShape {
    heads: Vec<String>,
    /// Body predicates with their negation parity (`true` = default-negated).
    body: Vec<(String, bool)>,
    is_constraint: bool,
    /// For a fact shape, the argument counts its facts have; empty for a
    /// rule shape.
    fact_arities: BTreeSet<usize>,
}

impl RuleShape {
    fn of(rule: &Rule) -> Self {
        let heads: Vec<String> = rule.head.iter().map(Atom::signed_predicate).collect();
        let body: Vec<(String, bool)> = rule
            .body
            .iter()
            .filter_map(|item| match item {
                BodyItem::Pos(a) => Some((a.signed_predicate(), false)),
                BodyItem::Naf(a) => Some((a.signed_predicate(), true)),
                _ => None,
            })
            .collect();
        RuleShape {
            is_constraint: heads.is_empty(),
            heads,
            body,
            fact_arities: BTreeSet::new(),
        }
    }

    /// Every predicate of the rule (heads then body).
    fn predicates(&self) -> impl Iterator<Item = &String> {
        self.heads.iter().chain(self.body.iter().map(|(p, _)| p))
    }
}

/// Does a seed-defining rule pass every bound position through its
/// recursive body occurrences unchanged? True when the rule is
/// non-recursive in the seed. Default-negated self-occurrences reject the
/// restriction outright (bindings do not propagate through negation).
fn recursion_preserves_bindings(rule: &Rule, seed: &QuerySeed) -> bool {
    let Some(head) = rule.head.first() else {
        return false;
    };
    if head.terms.len() != seed.bindings.len() {
        // Unknown binding arity: bind_head will leave the rule unrestricted,
        // so recursion through it would observe the full extension.
        return seed.bindings.is_empty();
    }
    let occurrences: Vec<&Atom> = rule
        .body
        .iter()
        .filter_map(|item| match item {
            BodyItem::Pos(a) if a.signed_predicate() == seed.predicate => Some(a),
            _ => None,
        })
        .collect();
    let negated_self = rule
        .body
        .iter()
        .any(|item| matches!(item, BodyItem::Naf(a) if a.signed_predicate() == seed.predicate));
    if negated_self {
        return false;
    }
    if occurrences.is_empty() {
        return true;
    }
    for (position, binding) in seed.bindings.iter().enumerate() {
        if binding.is_none() {
            continue;
        }
        let Some(Term::Var(head_var)) = head.terms.get(position) else {
            return false;
        };
        for occurrence in &occurrences {
            if occurrence.terms.get(position) != Some(&Term::Var(head_var.clone())) {
                return false;
            }
        }
    }
    true
}

/// The signed key of the complementary predicate (`p` ↔ `-p`).
fn complement_key(signed: &str) -> String {
    match signed.strip_prefix('-') {
        Some(positive) => positive.to_string(),
        None => format!("-{signed}"),
    }
}

/// Every predicate lying on a dependency cycle with an odd number of
/// default-negated edges (the incoherence hazard of item 2 in the module
/// docs). Detection: strongly connected components of the body→head
/// dependency graph, then parity 2-coloring of each component over its
/// internal edges — a coloring conflict means some cycle in the component
/// has odd negative parity.
fn odd_loop_predicates(shapes: &[RuleShape]) -> BTreeSet<String> {
    // Intern the signed predicates.
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    let mut names: Vec<&str> = Vec::new();
    for shape in shapes {
        for pred in shape.predicates() {
            index.entry(pred).or_insert_with(|| {
                names.push(pred);
                names.len() - 1
            });
        }
    }
    let n = names.len();
    // Edges body → head, labelled with the negation parity.
    let mut edges: Vec<BTreeSet<(usize, bool)>> = vec![BTreeSet::new(); n];
    for shape in shapes {
        let heads: Vec<usize> = shape.heads.iter().map(|h| index[h.as_str()]).collect();
        for (pred, negated) in &shape.body {
            let from = index[pred.as_str()];
            for &to in &heads {
                edges[from].insert((to, *negated));
            }
        }
    }
    let plain: Vec<Vec<usize>> = edges
        .iter()
        .map(|outs| outs.iter().map(|&(to, _)| to).collect())
        .collect();
    let component = crate::graph::strongly_connected_components(n, &plain);

    // Group members per component, then 2-color each component over its
    // internal edges (a component is strongly connected, so one BFS from
    // any member covers it).
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (node, &comp) in component.iter().enumerate() {
        members.entry(comp).or_default().push(node);
    }
    let mut odd: BTreeSet<String> = BTreeSet::new();
    let mut color: Vec<Option<bool>> = vec![None; n];
    for nodes in members.values() {
        let comp = component[nodes[0]];
        color[nodes[0]] = Some(false);
        let mut queue = vec![nodes[0]];
        let mut conflict = false;
        while let Some(v) = queue.pop() {
            let v_color = color[v].expect("colored before queueing");
            for &(to, negated) in &edges[v] {
                if component[to] != comp {
                    continue;
                }
                let want = v_color ^ negated;
                match color[to] {
                    None => {
                        color[to] = Some(want);
                        queue.push(to);
                    }
                    Some(have) if have != want => conflict = true,
                    Some(_) => {}
                }
            }
        }
        if conflict {
            odd.extend(nodes.iter().map(|&m| names[m].to_string()));
        }
    }
    odd
}

/// Instantiate a restrictable seed rule's head against the seed bindings:
/// head variables at bound positions are substituted throughout the rule,
/// contradicting constants drop the rule.
fn bind_head(rule: &Rule, seed: &QuerySeed) -> Option<Rule> {
    let head = rule.head.first()?;
    if head.terms.len() != seed.bindings.len() {
        // Arity mismatch (unknown binding arity): keep the rule unrestricted.
        return Some(rule.clone());
    }
    let mut subst: BTreeMap<&str, Arc<str>> = BTreeMap::new();
    for (term, binding) in head.terms.iter().zip(&seed.bindings) {
        let Some(constant) = binding else { continue };
        match term {
            Term::Const(c) => {
                if c != constant {
                    return None; // head constant contradicts the binding
                }
            }
            Term::Var(v) => match subst.get(v.as_str()) {
                Some(bound) if bound != constant => return None,
                _ => {
                    subst.insert(v, constant.clone());
                }
            },
        }
    }
    if subst.is_empty() {
        return Some(rule.clone());
    }
    let apply_term = |t: &Term| match t {
        Term::Var(v) => subst
            .get(v.as_str())
            .map(|c| Term::Const(c.clone()))
            .unwrap_or_else(|| t.clone()),
        Term::Const(_) => t.clone(),
    };
    let apply_atom = |atom: &Atom| Atom {
        predicate: atom.predicate.clone(),
        strong_neg: atom.strong_neg,
        terms: atom.terms.iter().map(apply_term).collect(),
    };
    Some(Rule {
        head: rule.head.iter().map(apply_atom).collect(),
        body: rule
            .body
            .iter()
            .map(|item| match item {
                BodyItem::Pos(a) => BodyItem::Pos(apply_atom(a)),
                BodyItem::Naf(a) => BodyItem::Naf(apply_atom(a)),
                BodyItem::Builtin(b) => BodyItem::Builtin(Builtin::new(
                    b.op,
                    apply_term(&b.left),
                    apply_term(&b.right),
                )),
                BodyItem::Choice(c) => BodyItem::Choice(c.clone()),
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::{ground_relevant, GroundAtom, Grounder};
    use crate::reason::AnswerSets;
    use crate::solve::{solve, solve_relevant_with, SolverConfig};
    use pdes_exec::Executor;

    fn atom(p: &str, args: &[&str]) -> Atom {
        Atom::new(p, args)
    }

    /// Two disconnected fact+rule islands; only the queried island is kept.
    fn two_island_program() -> Program {
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
        // The unrelated island.
        p.add_fact(atom("color", &["a", "red"]));
        p.add_fact(atom("color", &["b", "blue"]));
        p.add_rule(Rule::new(
            vec![atom("colored", &["X"])],
            vec![BodyItem::Pos(atom("color", &["X", "C"]))],
        ));
        p
    }

    #[test]
    fn pruning_drops_disconnected_islands() {
        let program = two_island_program();
        let analysis = RelevanceAnalysis::analyze(&program, &[QuerySeed::new("reach")]);
        assert!(analysis.kept_rule_count() < analysis.total_rule_count());
        assert!(analysis.is_relevant("reach"));
        assert!(analysis.is_relevant("edge"));
        assert!(!analysis.is_relevant("colored"));
        assert!(!analysis.is_relevant("color"));

        let full = Grounder::new(&program).ground().unwrap();
        let pruned = ground_relevant(&program, &[QuerySeed::new("reach")]).unwrap();
        assert!(pruned.rule_count() < full.rule_count());
        assert!(pruned.atom_count() < full.atom_count());
        // The kept slice still derives the transitive edge.
        assert!(pruned
            .atom_id(&GroundAtom::new("reach", &["a", "c"]))
            .is_some());
        assert!(pruned
            .atom_id(&GroundAtom::new("colored", &["a"]))
            .is_none());
    }

    #[test]
    fn pruned_cautious_consequences_match_full() {
        let program = two_island_program();
        let full = AnswerSets::compute(&program, SolverConfig::default()).unwrap();
        let result = solve_relevant_with(
            &program,
            &[QuerySeed::new("reach")],
            SolverConfig::default(),
            &Executor::sequential(),
        )
        .unwrap();
        assert_eq!(result.answer_sets.len(), 1);
        let pruned_reach: BTreeSet<GroundAtom> = result.answer_sets[0]
            .iter()
            .map(|&id| result.ground.atom(id))
            .filter(|a| a.predicate == "reach")
            .collect();
        let full_reach: BTreeSet<GroundAtom> = full
            .cautious_consequences()
            .into_iter()
            .filter(|a| a.predicate == "reach")
            .collect();
        assert_eq!(pruned_reach, full_reach);
    }

    #[test]
    fn constraints_are_always_kept_with_their_support() {
        let mut p = two_island_program();
        // A constraint over the unrelated island: its support must survive,
        // because it can veto models globally.
        p.add_constraint(vec![
            BodyItem::Pos(atom("color", &["X", "red"])),
            BodyItem::Pos(atom("colored", &["X"])),
        ]);
        let analysis = RelevanceAnalysis::analyze(&p, &[QuerySeed::new("reach")]);
        assert!(analysis.is_relevant("color"));
        assert!(analysis.is_relevant("colored"));
        assert_eq!(analysis.kept_rule_count(), analysis.total_rule_count());
    }

    #[test]
    fn odd_negative_loops_are_kept() {
        let mut p = two_island_program();
        // p(X) ← color(X, C), not p(X): an incoherence hazard — the full
        // program has no answer set, so the pruned one must not either.
        p.add_rule(Rule::new(
            vec![atom("podd", &["X"])],
            vec![
                BodyItem::Pos(atom("color", &["X", "C"])),
                BodyItem::Naf(atom("podd", &["X"])),
            ],
        ));
        let analysis = RelevanceAnalysis::analyze(&p, &[QuerySeed::new("reach")]);
        assert!(analysis.is_relevant("podd"));
        let full = solve(&p, SolverConfig::default()).unwrap();
        let pruned = solve_relevant_with(
            &p,
            &[QuerySeed::new("reach")],
            SolverConfig::default(),
            &Executor::sequential(),
        )
        .unwrap();
        assert_eq!(full.answer_sets.len(), 0);
        assert_eq!(pruned.answer_sets.len(), 0);
    }

    #[test]
    fn even_negative_loops_outside_the_slice_are_dropped() {
        let mut p = two_island_program();
        // A classic even loop on the unrelated island: total (two stable
        // extensions), hence droppable.
        p.add_rule(Rule::new(
            vec![atom("pick", &["X"])],
            vec![
                BodyItem::Pos(atom("color", &["X", "C"])),
                BodyItem::Naf(atom("skip", &["X"])),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("skip", &["X"])],
            vec![
                BodyItem::Pos(atom("color", &["X", "C"])),
                BodyItem::Naf(atom("pick", &["X"])),
            ],
        ));
        let analysis = RelevanceAnalysis::analyze(&p, &[QuerySeed::new("reach")]);
        assert!(!analysis.is_relevant("pick"));
        assert!(!analysis.is_relevant("skip"));
        // Cautious reach-consequences are unchanged; the pruned program has
        // fewer answer sets (the dropped even loop multiplied them).
        let full = solve(&p, SolverConfig::default()).unwrap();
        let pruned = solve_relevant_with(
            &p,
            &[QuerySeed::new("reach")],
            SolverConfig::default(),
            &Executor::sequential(),
        )
        .unwrap();
        assert!(full.answer_sets.len() > pruned.answer_sets.len());
        let reach_of = |result: &crate::solve::SolveResult| -> Vec<BTreeSet<GroundAtom>> {
            result
                .answer_sets
                .iter()
                .map(|set| {
                    set.iter()
                        .map(|&id| result.ground.atom(id))
                        .filter(|a| a.predicate == "reach")
                        .collect()
                })
                .collect()
        };
        let full_reach: BTreeSet<_> = reach_of(&full).into_iter().collect();
        let pruned_reach: BTreeSet<_> = reach_of(&pruned).into_iter().collect();
        assert_eq!(full_reach, pruned_reach);
    }

    #[test]
    fn complement_clashes_keep_both_signs() {
        let mut p = Program::new();
        p.add_fact(atom("q", &["a"]));
        p.add_fact(atom("seed", &["a"]));
        // Both signs of `clash` are derivable from unrelated facts; the
        // full program is incoherent and pruning must preserve that.
        p.add_rule(Rule::new(
            vec![atom("clash", &["X"])],
            vec![BodyItem::Pos(atom("q", &["X"]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("clash", &["X"]).strongly_negated()],
            vec![BodyItem::Pos(atom("q", &["X"]))],
        ));
        let analysis = RelevanceAnalysis::analyze(&p, &[QuerySeed::new("seed")]);
        assert!(analysis.is_relevant("clash"));
        assert!(analysis.is_relevant("-clash"));
        let full = solve(&p, SolverConfig::default()).unwrap();
        let pruned = solve_relevant_with(
            &p,
            &[QuerySeed::new("seed")],
            SolverConfig::default(),
            &Executor::sequential(),
        )
        .unwrap();
        assert_eq!(full.answer_sets.len(), 0);
        assert_eq!(pruned.answer_sets.len(), 0);
    }

    #[test]
    fn binding_restriction_seeds_instantiation_from_query_constants() {
        let program = two_island_program();
        let seed = QuerySeed::with_bindings(
            "reach",
            vec![Some(Arc::from("a")), None], // reach(a, Y)
        );
        let analysis = RelevanceAnalysis::analyze(&program, std::slice::from_ref(&seed));
        assert!(analysis.is_restrictable("reach"));
        let pruned = ground_relevant(&program, std::slice::from_ref(&seed)).unwrap();
        let unbound = ground_relevant(&program, &[QuerySeed::new("reach")]).unwrap();
        assert!(pruned.rule_count() < unbound.rule_count());
        // Everything derivable from `a` survives …
        assert!(pruned
            .atom_id(&GroundAtom::new("reach", &["a", "c"]))
            .is_some());
        // … while other start points are never instantiated.
        assert!(pruned
            .atom_id(&GroundAtom::new("reach", &["b", "c"]))
            .is_none());
        assert!(unbound
            .atom_id(&GroundAtom::new("reach", &["b", "c"]))
            .is_some());
    }

    #[test]
    fn seeds_read_by_the_kept_slice_are_not_restrictable() {
        let mut p = two_island_program();
        // `reach` is now read by a constraint: restricting it would change
        // which models the constraint kills.
        p.add_constraint(vec![
            BodyItem::Pos(atom("reach", &["X", "X"])),
            BodyItem::Pos(atom("edge", &["X", "X"])),
        ]);
        let seed = QuerySeed::with_bindings("reach", vec![Some(Arc::from("a")), None]);
        let analysis = RelevanceAnalysis::analyze(&p, &[seed]);
        assert!(!analysis.is_restrictable("reach"));
    }

    #[test]
    fn empty_relevant_slice_grounds_to_the_empty_program() {
        let program = two_island_program();
        let pruned = ground_relevant(&program, &[QuerySeed::new("no_such_predicate")]).unwrap();
        assert_eq!(pruned.rule_count(), 0);
        assert_eq!(pruned.atom_count(), 0);
    }

    #[test]
    fn fingerprints_distinguish_slices_and_bindings() {
        let program = two_island_program();
        let reach = RelevanceAnalysis::analyze(&program, &[QuerySeed::new("reach")]);
        let colored = RelevanceAnalysis::analyze(&program, &[QuerySeed::new("colored")]);
        assert_ne!(reach.fingerprint(), colored.fingerprint());
        let bound = RelevanceAnalysis::analyze(
            &program,
            &[QuerySeed::with_bindings(
                "reach",
                vec![Some(Arc::from("a")), None],
            )],
        );
        assert_ne!(reach.fingerprint(), bound.fingerprint());
        // Same seeds, same slice, same fingerprint.
        let again = RelevanceAnalysis::analyze(&program, &[QuerySeed::new("reach")]);
        assert_eq!(reach.fingerprint(), again.fingerprint());
    }

    #[test]
    fn fingerprints_are_fact_insensitive() {
        // A base-fact update changes what the slice grounds to, not which
        // slice it is: the stale-artifact repair of incremental
        // re-grounding depends on the key staying put across commits.
        let mut p = two_island_program();
        let before = RelevanceAnalysis::analyze(&p, &[QuerySeed::new("reach")]).fingerprint();
        p.add_fact(atom("edge", &["c", "d"]));
        p.add_fact(atom("color", &["c", "green"]));
        let after = RelevanceAnalysis::analyze(&p, &[QuerySeed::new("reach")]).fingerprint();
        assert_eq!(before, after);
    }

    #[test]
    fn bindings_on_unrestrictable_seeds_do_not_change_the_fingerprint() {
        let mut p = two_island_program();
        p.add_constraint(vec![
            BodyItem::Pos(atom("reach", &["X", "X"])),
            BodyItem::Pos(atom("edge", &["X", "X"])),
        ]);
        let unbound = RelevanceAnalysis::analyze(&p, &[QuerySeed::new("reach")]);
        let bound = RelevanceAnalysis::analyze(
            &p,
            &[QuerySeed::with_bindings(
                "reach",
                vec![Some(Arc::from("a")), None],
            )],
        );
        // The binding cannot be applied, so both queries ground the same
        // slice and may share one memoized artifact.
        assert_eq!(unbound.fingerprint(), bound.fingerprint());
    }
}
