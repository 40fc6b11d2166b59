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
//!
//! ## Facts by shape
//!
//! A fact adds only its head, so the analysis needs one shape per fact
//! predicate, never the facts themselves. Facts fed to the grounder as
//! [`FactTable`]s enter as `(signed predicate, arity)` pairs
//! ([`RelevanceAnalysis::analyze_with_facts`]), and the fingerprint is the
//! one the same facts give as text.
//!
//! ## Rules once, facts and seeds per analysis
//!
//! Everything the rules alone decide is built once per program, over
//! predicate ids: the defining rules of each predicate, the derivable
//! predicates, each predicate's complement, the relevant set the rules
//! force (constraint bodies, odd negative loops, complementary derivable
//! pairs) and each rule's text for the fingerprint
//! ([`crate::CompiledProgram`] keeps it). An analysis adds the fact
//! tables' shapes and the seeds and closes the relevant set with a
//! worklist. [`RelevanceAnalysis::restrict_facts`]
//! keeps the tables of relevant predicates by reference; a bound
//! restrictable seed on a fact predicate keeps only the agreeing rows, as
//! [`RelevanceAnalysis::restrict`] keeps only the agreeing text facts.

use crate::facts::{ConstantIds, FactTable};
use crate::seminaive::{Arg, CompiledRule, Template, Templates};
use crate::syntax::{Atom, BodyItem, Builtin, Program, Rule, Term};
use std::borrow::Cow;
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
    pub(crate) seeds: Vec<QuerySeed>,
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
    /// The kept non-fact rules by compiled index, in program order, each
    /// with the index of the bound restrictable seed its single head
    /// defines: what a build instantiates
    /// ([`crate::CompiledProgram::ground`]).
    pub(crate) kept_rules: Vec<(u32, Option<u32>)>,
}

impl RelevanceAnalysis {
    /// Analyze `program` for the given query seeds.
    ///
    /// The program must not contain choice atoms (unfold them first with
    /// [`crate::choice::unfold_choices`]; [`crate::ground::Grounder`] does
    /// this automatically).
    pub fn analyze(program: &Program, seeds: &[QuerySeed]) -> Self {
        Self::analyze_with_facts(program, [], seeds)
    }

    /// Analyze `program` (rules, and any facts it holds) together with
    /// facts given by their shape only: one `(signed predicate, arity)`
    /// per non-empty fact table ([`crate::FactTable::signed_predicate`],
    /// [`crate::FactTable::arity`]). A fact adds only its head, so the
    /// analysis never needs the rows; the fingerprint equals the one of
    /// the program holding the same facts as text. The rule counts count
    /// `program`'s rules only. Kept tables come from
    /// [`RelevanceAnalysis::restrict_facts`]. Compiles the program's rule
    /// graph and analyzes over it, as [`crate::CompiledProgram::analyze`]
    /// does over one compiled once.
    pub fn analyze_with_facts<'s>(
        program: &Program,
        fact_shapes: impl IntoIterator<Item = (&'s str, usize)>,
        seeds: &[QuerySeed],
    ) -> Self {
        let templates = Templates::compile(program.rules());
        RuleGraph::new(program.rules(), &templates).analyze(&templates, fact_shapes, seeds)
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

    /// The seeds whose defining rules are pre-instantiated to their
    /// bindings, by predicate.
    fn bound_seeds(&self) -> BTreeMap<&str, &QuerySeed> {
        self.seeds
            .iter()
            .filter(|s| self.restrictable.contains(&s.predicate) && !s.is_unbound())
            .map(|s| (s.predicate.as_str(), s))
            .collect()
    }

    /// The pruned program: kept rules only, with the defining rules of
    /// restrictable seeds pre-instantiated to the query bindings.
    pub fn restrict(&self, program: &Program) -> Program {
        let bindings = self.bound_seeds();
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

    /// The kept fact tables: those of relevant predicates, borrowed. A
    /// table whose predicate is a bound restrictable seed keeps only the
    /// rows that agree with the bindings (an owned copy), as
    /// [`RelevanceAnalysis::restrict`] keeps only the agreeing facts;
    /// `text` gives the constant text of a table id for that comparison.
    pub fn restrict_facts<'t>(
        &self,
        tables: impl IntoIterator<Item = &'t FactTable>,
        text: &dyn Fn(u32) -> Arc<str>,
    ) -> Vec<Cow<'t, FactTable>> {
        self.restrict_rows(tables, Arc::clone, |id, c| *text(id) == **c)
    }

    /// [`RelevanceAnalysis::restrict_facts`] over tables of text-canonical
    /// ids: a row agrees with a binding when it holds the id `constants`
    /// finds for the binding's text, so no row's text is read.
    pub(crate) fn restrict_fact_ids<'t>(
        &self,
        tables: impl IntoIterator<Item = &'t FactTable>,
        constants: &dyn ConstantIds,
    ) -> Vec<Cow<'t, FactTable>> {
        self.restrict_rows(tables, |c| constants.find(c), |id, c| *c == Some(id))
    }

    /// The kept tables, a bound seed's rows filtered by `agrees` on each
    /// binding's `key`.
    fn restrict_rows<'t, K>(
        &self,
        tables: impl IntoIterator<Item = &'t FactTable>,
        key: impl Fn(&Arc<str>) -> K,
        agrees: impl Fn(u32, &K) -> bool,
    ) -> Vec<Cow<'t, FactTable>> {
        let bindings = self.bound_seeds();
        tables
            .into_iter()
            .filter_map(|table| {
                let signed = table.signed_predicate();
                if !self.relevant.contains(&*signed) {
                    return None;
                }
                let bound = match bindings.get(&*signed) {
                    Some(seed) if seed.bindings.len() == table.arity() => &seed.bindings,
                    _ => return Some(Cow::Borrowed(table)),
                };
                let bound: Vec<Option<K>> = bound.iter().map(|b| b.as_ref().map(&key)).collect();
                let mut kept = FactTable::new(table.predicate(), table.arity());
                if table.strong_neg() {
                    kept = kept.strongly_negated();
                }
                for row in table.rows() {
                    let agrees = row
                        .iter()
                        .zip(&bound)
                        .all(|(&id, binding)| binding.as_ref().map_or(true, |c| agrees(id, c)));
                    if agrees {
                        kept.push(row);
                    }
                }
                Some(Cow::Owned(kept))
            })
            .collect()
    }
}

/// One rule of a program, as the relevance graph sees it.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// A non-fact rule: its index among the compiled rules.
    Rule(u32),
    /// A fact: its predicate id.
    Fact(u32),
}

/// The rule side of the relevance analysis, built once per program; an
/// analysis adds only the facts given by table and the seeds. Predicates
/// are ids: the compiled rules' ids, then the predicates only the
/// program's facts have. Per predicate the graph keeps its signed key,
/// its complement, whether a rule head or a fact of the program derives
/// it, and the non-constraint rules whose head holds it; it also keeps
/// the relevant set the rules alone force (every constraint body, every
/// predicate on an odd negative loop, both signs of a predicate whose two
/// signs are derivable) and each compiled rule's text, which the slice
/// fingerprint hashes.
#[derive(Debug, Clone)]
pub(crate) struct RuleGraph {
    /// Signed key (`p`, or `-p` for `¬p`) per predicate id.
    names: Vec<String>,
    ids: HashMap<String, u32>,
    complement: Vec<Option<u32>>,
    derivable: Vec<bool>,
    defines: Vec<Vec<u32>>,
    forced: Vec<u32>,
    /// Per rule of the program.
    entries: Vec<Entry>,
    /// Per predicate with facts in the program: their argument counts.
    fact_arities: BTreeMap<u32, BTreeSet<usize>>,
    /// Per compiled rule: its text.
    texts: Vec<String>,
}

impl RuleGraph {
    /// The graph of `rules`, whose non-fact rules `templates` compiled.
    pub(crate) fn new(rules: &[Rule], templates: &Templates) -> Self {
        let symbols = &templates.symbols;
        let mut names: Vec<String> = (0..symbols.pred_count() as u32)
            .map(|p| match symbols.pred(p) {
                (name, true) => format!("-{name}"),
                (name, false) => name.clone(),
            })
            .collect();
        let mut ids: HashMap<String, u32> = names
            .iter()
            .enumerate()
            .map(|(id, name)| (name.clone(), id as u32))
            .collect();
        let mut fact_arities: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
        let mut texts = Vec::with_capacity(templates.rules.len());
        let entries: Vec<Entry> = rules
            .iter()
            .map(|rule| {
                if !rule.is_fact() {
                    texts.push(rule.to_string());
                    return Entry::Rule(texts.len() as u32 - 1);
                }
                let head = &rule.head[0];
                let name = head.signed_predicate();
                let id = *ids.entry(name).or_insert_with_key(|name| {
                    names.push(name.clone());
                    names.len() as u32 - 1
                });
                fact_arities.entry(id).or_default().insert(head.terms.len());
                Entry::Fact(id)
            })
            .collect();
        let n = names.len();
        let complement: Vec<Option<u32>> = names
            .iter()
            .map(|name| ids.get(&complement_key(name)).copied())
            .collect();
        let mut derivable = vec![false; n];
        let mut defines = vec![Vec::new(); n];
        let mut forced = Vec::new();
        for &pred in fact_arities.keys() {
            derivable[pred as usize] = true;
        }
        for (r, rule) in templates.rules.iter().enumerate() {
            if rule.heads.is_empty() {
                forced.extend(body_predicates(rule).map(|(pred, _)| pred));
            }
            for head in &rule.heads {
                derivable[head.pred as usize] = true;
                let defining = &mut defines[head.pred as usize];
                if defining.last() != Some(&(r as u32)) {
                    defining.push(r as u32);
                }
            }
        }
        forced.extend(odd_loop_predicates(n, &templates.rules));
        for pred in (0..n as u32).filter(|&p| derivable[p as usize]) {
            if let Some(comp) = derivable_complement(&complement, &derivable, pred) {
                forced.extend([pred, comp]);
            }
        }
        RuleGraph {
            names,
            ids,
            complement,
            derivable,
            defines,
            forced,
            entries,
            fact_arities,
            texts,
        }
    }

    /// Analyze the program for `seeds`, with further facts given by shape
    /// (see [`RelevanceAnalysis::analyze_with_facts`]). `templates` are the
    /// ones the graph was built from. The relevant set grows from the
    /// seeds, the forced predicates and the complementary pairs the tables
    /// add, along the defining rules of each relevant predicate and the
    /// derivable complement of each; nothing is re-derived from the rules.
    pub(crate) fn analyze<'s>(
        &self,
        templates: &Templates,
        fact_shapes: impl IntoIterator<Item = (&'s str, usize)>,
        seeds: &[QuerySeed],
    ) -> RelevanceAnalysis {
        // Predicates beyond the graph's: named by a table or a seed only.
        let mut extra: Vec<String> = Vec::new();
        let id_of = |name: &str, extra: &mut Vec<String>| -> u32 {
            if let Some(&id) = self.ids.get(name) {
                return id;
            }
            let at = extra.iter().position(|e| e == name).unwrap_or_else(|| {
                extra.push(name.to_string());
                extra.len() - 1
            });
            (self.names.len() + at) as u32
        };
        let mut fact_arities = self.fact_arities.clone();
        let mut tables: Vec<u32> = Vec::new();
        for (signed, arity) in fact_shapes {
            let id = id_of(signed, &mut extra);
            tables.push(id);
            fact_arities.entry(id).or_default().insert(arity);
        }
        let seed_ids: Vec<u32> = seeds
            .iter()
            .map(|seed| id_of(&seed.predicate, &mut extra))
            .collect();
        let n = self.names.len() + extra.len();
        let name = |id: u32| match id as usize {
            i if i < self.names.len() => self.names[i].as_str(),
            i => extra[i - self.names.len()].as_str(),
        };
        let mut complement = self.complement.clone();
        complement.resize(n, None);
        for e in self.names.len()..n {
            let comp = complement_key(name(e as u32));
            let found = self.ids.get(&comp).copied().or_else(|| {
                (self.names.len()..n)
                    .find(|&i| name(i as u32) == comp)
                    .map(|i| i as u32)
            });
            complement[e] = found;
            if let Some(c) = found {
                complement[c as usize] = Some(e as u32);
            }
        }
        let mut derivable = self.derivable.clone();
        derivable.resize(n, false);
        for &t in &tables {
            derivable[t as usize] = true;
        }

        // Backward closure from the initial relevant set: a relevant
        // predicate makes every rule defining it kept, and all of that
        // rule's predicates relevant, and makes its derivable complement
        // relevant (coherence).
        let mut relevant = vec![false; n];
        let mut queue: Vec<u32> = Vec::new();
        let mark = |pred: u32, relevant: &mut Vec<bool>, queue: &mut Vec<u32>| {
            if !relevant[pred as usize] {
                relevant[pred as usize] = true;
                queue.push(pred);
            }
        };
        for &pred in seed_ids.iter().chain(&self.forced) {
            mark(pred, &mut relevant, &mut queue);
        }
        for &t in &tables {
            if let Some(comp) = derivable_complement(&complement, &derivable, t) {
                mark(t, &mut relevant, &mut queue);
                mark(comp, &mut relevant, &mut queue);
            }
        }
        let rules = &templates.rules;
        let mut kept: Vec<bool> = rules.iter().map(|r| r.heads.is_empty()).collect();
        while let Some(pred) = queue.pop() {
            if let Some(comp) = derivable_complement(&complement, &derivable, pred) {
                mark(comp, &mut relevant, &mut queue);
            }
            for &r in self
                .defines
                .get(pred as usize)
                .map_or(&[][..], Vec::as_slice)
            {
                if !kept[r as usize] {
                    kept[r as usize] = true;
                    for (p, _) in rule_predicates(&rules[r as usize]) {
                        mark(p, &mut relevant, &mut queue);
                    }
                }
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
        // binding-matching atoms). A kept fact predicate restricts only when
        // every fact of it has the seed's arity.
        let mut restrictable = BTreeSet::new();
        'seed: for (seed, &s) in seeds.iter().zip(&seed_ids) {
            if seed.is_unbound() {
                continue;
            }
            let comp = complement[s as usize];
            for (rule, _) in rules.iter().zip(&kept).filter(|(_, &k)| k) {
                let heads = || rule.heads.iter().map(|h| h.pred);
                if comp.is_some_and(|c| rule_predicates(rule).any(|(p, _)| p == c)) {
                    continue 'seed;
                }
                if heads().any(|h| h == s) {
                    if rule.heads.len() > 1 || !preserves_bindings(rule, s, &seed.bindings) {
                        continue 'seed;
                    }
                } else if body_predicates(rule).any(|(p, _)| p == s) {
                    // Read by a rule (or constraint) that does not define
                    // the seed: restricting it would change what that reader
                    // observes.
                    continue 'seed;
                }
            }
            for (&pred, arities) in &fact_arities {
                if !relevant[pred as usize] {
                    continue;
                }
                let mismatch = pred == s && arities.iter().any(|&a| a != seed.bindings.len());
                if Some(pred) == comp || mismatch {
                    continue 'seed;
                }
            }
            restrictable.insert(seed.predicate.clone());
        }

        // The kept rules a build instantiates, each with the bindings of
        // the bound restrictable seed its single head defines.
        let mut bound: HashMap<u32, u32> = HashMap::new();
        for (i, (seed, &s)) in seeds.iter().zip(&seed_ids).enumerate() {
            if restrictable.contains(&seed.predicate) && !seed.is_unbound() {
                bound.insert(s, i as u32);
            }
        }
        let kept_rules: Vec<(u32, Option<u32>)> = (0..rules.len())
            .filter(|&r| kept[r])
            .map(|r| {
                let seed = match &rules[r].heads[..] {
                    [head] => bound.get(&head.pred).copied(),
                    _ => None,
                };
                (r as u32, seed)
            })
            .collect();
        let relevant_names: BTreeSet<String> = (0..n as u32)
            .filter(|&p| relevant[p as usize])
            .map(|p| name(p).to_string())
            .collect();

        // Fact-insensitive slice identity: kept non-fact rule content plus
        // the relevant predicate set (which determines the kept facts).
        let mut slice_hash: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                slice_hash ^= u64::from(b);
                slice_hash = slice_hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        for &(r, _) in &kept_rules {
            eat(self.texts[r as usize].as_bytes());
            eat(b"\x00;");
        }
        for pred in &relevant_names {
            eat(pred.as_bytes());
            eat(b"\x00,");
        }

        RelevanceAnalysis {
            seeds: seeds.to_vec(),
            kept: self
                .entries
                .iter()
                .map(|&entry| match entry {
                    Entry::Rule(r) => kept[r as usize],
                    Entry::Fact(pred) => relevant[pred as usize],
                })
                .collect(),
            relevant: relevant_names,
            restrictable,
            total_rules: self.entries.len(),
            slice_hash,
            kept_structural: kept_rules.len(),
            total_structural: rules.len(),
            kept_rules,
        }
    }
}

/// The complement of `pred`, when it is derivable.
fn derivable_complement(complement: &[Option<u32>], derivable: &[bool], pred: u32) -> Option<u32> {
    complement[pred as usize].filter(|&comp| derivable[comp as usize])
}

/// A rule's body predicates with their negation parity (`true` =
/// default-negated).
fn body_predicates(rule: &CompiledRule) -> impl Iterator<Item = (u32, bool)> + '_ {
    let pos = rule.pos.iter().map(|t| (t.pred, false));
    pos.chain(rule.naf.iter().map(|t| (t.pred, true)))
}

/// Every predicate of a rule (heads, then body).
fn rule_predicates(rule: &CompiledRule) -> impl Iterator<Item = (u32, bool)> + '_ {
    let heads = rule.heads.iter().map(|t| (t.pred, false));
    heads.chain(body_predicates(rule))
}

/// Does a seed-defining rule pass every bound position through its
/// recursive body occurrences unchanged? True when the rule is
/// non-recursive in the seed. Default-negated self-occurrences reject the
/// restriction outright (bindings do not propagate through negation).
fn preserves_bindings(rule: &CompiledRule, seed: u32, bindings: &[Option<Arc<str>>]) -> bool {
    let Some(head) = rule.heads.first() else {
        return false;
    };
    if head.args.len() != bindings.len() {
        // Unknown binding arity: the build leaves the rule unrestricted,
        // so recursion through it would observe the full extension.
        return bindings.is_empty();
    }
    if rule.naf.iter().any(|t| t.pred == seed) {
        return false;
    }
    let occurrences: Vec<&Template> = rule.pos.iter().filter(|t| t.pred == seed).collect();
    for (position, binding) in bindings.iter().enumerate() {
        if binding.is_none() || occurrences.is_empty() {
            continue;
        }
        let Arg::Slot(var) = head.args[position] else {
            return false;
        };
        if occurrences
            .iter()
            .any(|o| o.args.get(position) != Some(&Arg::Slot(var)))
        {
            return false;
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
/// dependency graph over the `n` predicate ids, then parity 2-coloring of
/// each component over its internal edges — a coloring conflict means some
/// cycle in the component has odd negative parity.
fn odd_loop_predicates(n: usize, rules: &[CompiledRule]) -> Vec<u32> {
    // Edges body → head, labelled with the negation parity.
    let mut edges: Vec<BTreeSet<(usize, bool)>> = vec![BTreeSet::new(); n];
    for rule in rules {
        for (pred, negated) in body_predicates(rule) {
            for head in &rule.heads {
                edges[pred as usize].insert((head.pred as usize, negated));
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
    let mut odd = Vec::new();
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
            odd.extend(nodes.iter().map(|&m| m as u32));
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
