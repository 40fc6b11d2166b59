//! The naive, string-keyed grounder, kept as a test oracle for the
//! semi-naive id-based grounder in `datalog`.
//!
//! Phase 1 saturates the possibly-derivable atoms by re-matching every rule
//! against everything until nothing changes; phase 2 instantiates every
//! rule against the saturated sets with a backtracking nested-loop join
//! over `BTreeSet` candidates, substitutions as `BTreeMap<String,
//! Arc<str>>`. It uses only the public `datalog` API: the caller unfolds
//! choice atoms with `Grounder::new(..).program()`.
//!
//! Two emission orders are provided: [`ground`] is `Grounder::ground`'s
//! (program order, facts where they occur), [`ground_incremental`] is
//! `IncrementalGround::to_ground`'s (distinct facts in `GroundAtom` order,
//! then the non-fact rules' instances).

use datalog::ground::{GroundAtom, GroundProgram, GroundRule};
use datalog::syntax::{Atom, BodyItem, Builtin, Program, Rule, Term};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Partial substitution from variable names to constant symbols.
type Subst = BTreeMap<String, Arc<str>>;

/// Possibly-derivable atoms bucketed by signed predicate key.
type PossibleSets = BTreeMap<String, BTreeSet<GroundAtom>>;

/// One rule instance in symbolic form: heads, positive body, naf body.
type SymRule = (Vec<GroundAtom>, Vec<GroundAtom>, Vec<GroundAtom>);

/// Ground a safe, choice-free program in `Grounder::ground`'s order.
pub fn ground(program: &Program) -> GroundProgram {
    // Phase 1: saturate the possibly-derivable atoms.
    let possible = saturate(program.rules());

    // Phase 2: instantiate rules against the saturated set.
    let mut ground = GroundProgram::default();
    for rule in program.rules() {
        let substitutions = rule_matches(rule, &possible);
        'subst: for theta in substitutions {
            let mut heads = Vec::with_capacity(rule.head.len());
            for h in &rule.head {
                heads.push(ground.intern(apply(h, &theta)));
            }
            let mut pos = Vec::new();
            let mut neg = Vec::new();
            for item in &rule.body {
                match item {
                    BodyItem::Pos(a) => {
                        let g = apply(a, &theta);
                        pos.push(ground.intern(g));
                    }
                    BodyItem::Naf(a) => {
                        let g = apply(a, &theta);
                        if contains(&possible, &g) {
                            neg.push(ground.intern(g));
                        }
                        // Atom can never be derived: `not g` is true,
                        // drop the literal.
                    }
                    BodyItem::Builtin(_) => {
                        // Already checked during matching.
                    }
                    BodyItem::Choice(_) => {
                        // Unfolded by the caller; unreachable.
                        continue 'subst;
                    }
                }
            }
            // Drop tautologies: a head atom also in the positive body.
            if heads.iter().any(|h| pos.contains(h)) {
                continue;
            }
            ground.add_rule(GroundRule { heads, pos, neg });
        }
    }
    ground
}

/// Ground a safe, choice-free program in `IncrementalGround::to_ground`'s
/// order: the distinct facts sorted, then each non-fact rule's instances
/// (heads, then positive body, then surviving naf literals).
pub fn ground_incremental(program: &Program) -> GroundProgram {
    let possible = saturate(program.rules());
    let mut facts: BTreeSet<GroundAtom> = BTreeSet::new();
    let mut groups: Vec<Vec<SymRule>> = Vec::new();
    for rule in program.rules() {
        if rule.is_fact() {
            facts.insert(apply(&rule.head[0], &Subst::new()));
        } else {
            groups.push(instantiate(rule, &possible));
        }
    }
    let mut ground = GroundProgram::default();
    for fact in &facts {
        let id = ground.intern(fact.clone());
        ground.add_rule(GroundRule {
            heads: vec![id],
            pos: Vec::new(),
            neg: Vec::new(),
        });
    }
    for group in &groups {
        for (heads, pos, neg) in group {
            let heads = heads.iter().map(|a| ground.intern(a.clone())).collect();
            let pos = pos.iter().map(|a| ground.intern(a.clone())).collect();
            let neg = neg.iter().map(|a| ground.intern(a.clone())).collect();
            ground.add_rule(GroundRule { heads, pos, neg });
        }
    }
    ground
}

/// Instantiate one rule against the possible sets, with naf-dropping and
/// tautology elimination.
fn instantiate(rule: &Rule, possible: &PossibleSets) -> Vec<SymRule> {
    rule_matches(rule, possible)
        .into_iter()
        .filter_map(|theta| {
            let heads: Vec<GroundAtom> = rule.head.iter().map(|h| apply(h, &theta)).collect();
            let mut pos = Vec::new();
            let mut neg = Vec::new();
            for item in &rule.body {
                match item {
                    BodyItem::Pos(a) => pos.push(apply(a, &theta)),
                    BodyItem::Naf(a) => {
                        let g = apply(a, &theta);
                        if contains(possible, &g) {
                            neg.push(g);
                        }
                    }
                    BodyItem::Builtin(_) => {}
                    BodyItem::Choice(_) => return None,
                }
            }
            if heads.iter().any(|h| pos.contains(h)) {
                return None;
            }
            Some((heads, pos, neg))
        })
        .collect()
}

/// Fixpoint of possibly-derivable atoms.
fn saturate(rules: &[Rule]) -> PossibleSets {
    let mut possible: PossibleSets = BTreeMap::new();
    loop {
        let mut changed = false;
        for rule in rules {
            for theta in rule_matches(rule, &possible) {
                for h in &rule.head {
                    let g = apply(h, &theta);
                    let entry = possible.entry(predicate_key(&g)).or_default();
                    if entry.insert(g) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return possible;
        }
    }
}

/// All substitutions satisfying a rule's positive body atoms against the
/// possible sets and its built-in comparisons (default-negated literals are
/// read optimistically, i.e. ignored).
fn rule_matches(rule: &Rule, possible: &PossibleSets) -> Vec<Subst> {
    let positives: Vec<&Atom> = rule
        .body
        .iter()
        .filter_map(|b| match b {
            BodyItem::Pos(a) => Some(a),
            _ => None,
        })
        .collect();
    let mut results = Vec::new();
    let mut current = Subst::new();
    join(&positives, 0, possible, &mut current, &mut results);
    retain_builtin_satisfying(rule, &mut results);
    results
}

/// Keep only substitutions satisfying the rule's built-in comparisons.
fn retain_builtin_satisfying(rule: &Rule, results: &mut Vec<Subst>) {
    let builtins: Vec<&Builtin> = rule
        .body
        .iter()
        .filter_map(|b| match b {
            BodyItem::Builtin(b) => Some(b),
            _ => None,
        })
        .collect();
    if builtins.is_empty() {
        return;
    }
    results.retain(|theta| {
        builtins.iter().all(|b| {
            let l = resolve(&b.left, theta);
            let r = resolve(&b.right, theta);
            match (l, r) {
                (Some(l), Some(r)) => b.op.eval(&l, &r),
                _ => false,
            }
        })
    });
}

/// Backtracking join of positive body atoms against the possible sets.
fn join(
    positives: &[&Atom],
    idx: usize,
    possible: &PossibleSets,
    current: &mut Subst,
    results: &mut Vec<Subst>,
) {
    if idx == positives.len() {
        results.push(current.clone());
        return;
    }
    let atom = positives[idx];
    let key = signed_key(atom);
    let empty = BTreeSet::new();
    let candidates = possible.get(&key).unwrap_or(&empty);
    for cand in candidates {
        if let Some(added) = try_unify(atom, cand, current) {
            join(positives, idx + 1, possible, current, results);
            for v in added {
                current.remove(&v);
            }
        }
    }
}

/// Unify one body atom occurrence with a candidate ground atom under the
/// current substitution. On success, returns the variables newly bound; on
/// clash, restores `current` and returns `None`.
fn try_unify(atom: &Atom, cand: &GroundAtom, current: &mut Subst) -> Option<Vec<String>> {
    if cand.args.len() != atom.terms.len() {
        return None;
    }
    let mut added: Vec<String> = Vec::new();
    for (term, value) in atom.terms.iter().zip(cand.args.iter()) {
        let ok = match term {
            Term::Const(c) => c == value,
            Term::Var(v) => match current.get(v) {
                Some(bound) => bound == value,
                None => {
                    current.insert(v.clone(), value.clone());
                    added.push(v.clone());
                    true
                }
            },
        };
        if !ok {
            for v in added {
                current.remove(&v);
            }
            return None;
        }
    }
    Some(added)
}

/// The signed-predicate key used to bucket atoms during grounding.
fn predicate_key(atom: &GroundAtom) -> String {
    if atom.strong_neg {
        format!("-{}", atom.predicate)
    } else {
        atom.predicate.clone()
    }
}

fn signed_key(atom: &Atom) -> String {
    if atom.strong_neg {
        format!("-{}", atom.predicate)
    } else {
        atom.predicate.clone()
    }
}

fn contains(possible: &PossibleSets, atom: &GroundAtom) -> bool {
    possible
        .get(&predicate_key(atom))
        .map(|set| set.contains(atom))
        .unwrap_or(false)
}

fn apply(atom: &Atom, theta: &Subst) -> GroundAtom {
    GroundAtom {
        predicate: atom.predicate.clone(),
        strong_neg: atom.strong_neg,
        args: atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => c.clone(),
                Term::Var(v) => theta
                    .get(v)
                    .cloned()
                    .unwrap_or_else(|| Arc::from(format!("_unbound_{v}").as_str())),
            })
            .collect(),
    }
}

fn resolve(term: &Term, theta: &Subst) -> Option<Arc<str>> {
    match term {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => theta.get(v).cloned(),
    }
}
