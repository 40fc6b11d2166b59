//! Dependency graphs: strongly connected components, head-cycle-freeness and
//! stratification.
//!
//! Section 4.1 of the paper relies on the notion of *head-cycle-free* (HCF)
//! disjunctive programs (Ben-Eliyahu & Dechter): a disjunctive program is HCF
//! when no two atoms occurring in the same rule head share a cycle of the
//! positive dependency graph. HCF programs can be *shifted* into equivalent
//! non-disjunctive programs (see [`crate::shift`]), which is the optimization
//! Example 3 illustrates.
//!
//! This module also provides predicate-level stratification checking, used by
//! the solver to take a deterministic fixpoint fast path for stratified
//! normal programs.

use crate::ground::{AtomId, GroundProgram};
use crate::syntax::{BodyItem, Program};
use std::collections::{BTreeMap, BTreeSet};

/// Strongly connected components of a directed graph given as adjacency
/// lists over `0..n`. Returns, for each node, the index of its component;
/// components are numbered in reverse topological order (Kosaraju).
pub fn strongly_connected_components(n: usize, edges: &[Vec<usize>]) -> Vec<usize> {
    // Kosaraju with explicit stacks (no recursion).
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        // Iterative post-order DFS.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        visited[start] = true;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            if *idx < edges[node].len() {
                let next = edges[node][*idx];
                *idx += 1;
                if !visited[next] {
                    visited[next] = true;
                    stack.push((next, 0));
                }
            } else {
                order.push(node);
                stack.pop();
            }
        }
    }

    // Transpose.
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (from, outs) in edges.iter().enumerate() {
        for &to in outs {
            reverse[to].push(from);
        }
    }

    let mut component = vec![usize::MAX; n];
    let mut current = 0;
    for &node in order.iter().rev() {
        if component[node] != usize::MAX {
            continue;
        }
        // DFS over the transposed graph.
        let mut stack = vec![node];
        component[node] = current;
        while let Some(v) = stack.pop() {
            for &w in &reverse[v] {
                if component[w] == usize::MAX {
                    component[w] = current;
                    stack.push(w);
                }
            }
        }
        current += 1;
    }
    component
}

/// The positive atom-dependency graph of a ground program: per atom, the
/// sorted, distinct heads of the rules it occurs in positively.
pub fn positive_dependency_graph(program: &GroundProgram) -> Vec<Vec<AtomId>> {
    let mut edges = vec![Vec::new(); program.atom_count()];
    for rule in program.rules() {
        for &b in rule.pos {
            edges[b].extend_from_slice(rule.heads);
        }
    }
    for outs in &mut edges {
        outs.sort_unstable();
        outs.dedup();
    }
    edges
}

/// Is the ground program head-cycle-free?
///
/// A program is HCF iff no rule has two distinct head atoms lying in the same
/// strongly connected component of the positive dependency graph.
pub fn is_head_cycle_free(program: &GroundProgram) -> bool {
    if !program.is_disjunctive() {
        return true;
    }
    let edges = positive_dependency_graph(program);
    let component = strongly_connected_components(program.atom_count(), &edges);
    for rule in program.rules() {
        for (i, &a) in rule.heads.iter().enumerate() {
            for &b in &rule.heads[i + 1..] {
                if a != b && component[a] == component[b] {
                    return false;
                }
            }
        }
    }
    true
}

/// One recursion-through-negation component of a program, reported by
/// [`PredicateGraph::negation_loops`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct NegationLoop {
    /// The signed predicates of the strongly connected component, sorted.
    pub predicates: Vec<String>,
    /// The members lying on a cycle with an *odd* number of negative edges
    /// (sorted). Empty when the component only has even recursion through
    /// negation.
    pub odd_core: Vec<String>,
}

/// Predicate-level dependency information of a non-ground program.
#[derive(Debug, Clone)]
pub struct PredicateGraph {
    predicates: Vec<String>,
    index: BTreeMap<String, usize>,
    /// Positive edges body → head.
    positive: Vec<BTreeSet<usize>>,
    /// Negative (default-negation) edges body → head.
    negative: Vec<BTreeSet<usize>>,
    /// The head predicates of each pair of heads of one rule.
    head_pairs: Vec<(usize, usize)>,
}

impl PredicateGraph {
    /// Build the predicate dependency graph of a program (signed predicates:
    /// `p` and `-p` are distinct nodes).
    pub fn new(program: &Program) -> Self {
        let mut index = BTreeMap::new();
        let mut predicates = Vec::new();
        let intern =
            |name: String, predicates: &mut Vec<String>, index: &mut BTreeMap<String, usize>| {
                *index.entry(name.clone()).or_insert_with(|| {
                    predicates.push(name);
                    predicates.len() - 1
                })
            };
        for p in program.predicates() {
            intern(p, &mut predicates, &mut index);
        }
        let mut positive = vec![BTreeSet::new(); predicates.len()];
        let mut negative = vec![BTreeSet::new(); predicates.len()];
        let mut head_pairs = Vec::new();
        for rule in program.rules() {
            let heads: Vec<usize> = rule
                .head
                .iter()
                .map(|a| index[&a.signed_predicate()])
                .collect();
            for item in &rule.body {
                match item {
                    BodyItem::Pos(a) => {
                        let b = index[&a.signed_predicate()];
                        for &h in &heads {
                            positive[b].insert(h);
                        }
                    }
                    BodyItem::Naf(a) => {
                        let b = index[&a.signed_predicate()];
                        for &h in &heads {
                            negative[b].insert(h);
                        }
                    }
                    _ => {}
                }
            }
            for (i, &a) in heads.iter().enumerate() {
                head_pairs.extend(heads[i + 1..].iter().map(|&b| (a, b)));
            }
        }
        PredicateGraph {
            predicates,
            index,
            positive,
            negative,
            head_pairs,
        }
    }

    /// Number of (signed) predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// True when the graph has no predicates.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Is the program stratified (no cycle through a negative edge)?
    pub fn is_stratified(&self) -> bool {
        let n = self.len();
        let mut all_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (from, outs) in self.positive.iter().enumerate() {
            all_edges[from].extend(outs.iter().copied());
        }
        for (from, outs) in self.negative.iter().enumerate() {
            all_edges[from].extend(outs.iter().copied());
        }
        let component = strongly_connected_components(n, &all_edges);
        for (from, outs) in self.negative.iter().enumerate() {
            for &to in outs {
                if component[from] == component[to] {
                    return false;
                }
            }
        }
        true
    }

    /// Is every grounding head-cycle-free? True when no rule has two heads
    /// whose predicates share a positive cycle (or one predicate twice, on
    /// one). Ground positive paths project onto predicate paths, so this
    /// certifies [`is_head_cycle_free`] for every grounding and its slices.
    pub fn is_head_cycle_free(&self) -> bool {
        let edges: Vec<Vec<usize>> = self
            .positive
            .iter()
            .map(|outs| outs.iter().copied().collect())
            .collect();
        let component = strongly_connected_components(self.len(), &edges);
        let on_cycle = |p: usize| edges[p].iter().any(|&q| component[q] == component[p]);
        self.head_pairs
            .iter()
            .all(|&(a, b)| component[a] != component[b] || (a == b && !on_cycle(a)))
    }

    /// The (signed) predicate names, in interning order.
    pub fn predicates(&self) -> impl Iterator<Item = &str> {
        self.predicates.iter().map(|s| s.as_str())
    }

    /// The recursion-through-negation components of the program: one
    /// [`NegationLoop`] per strongly connected component (of the combined
    /// positive + negative dependency graph) that contains at least one
    /// internal negative edge. The program [`PredicateGraph::is_stratified`]
    /// exactly when this is empty.
    ///
    /// Each loop also reports its *odd core*: the member predicates lying on
    /// some cycle with an odd number of negative edges. Even loops (empty
    /// core) are the benign `p ← not q, q ← not p` pattern the stable-model
    /// semantics resolves by branching; odd loops can make atoms
    /// unsupportable and are what the static analyzer warns about.
    pub fn negation_loops(&self) -> Vec<NegationLoop> {
        let n = self.len();
        let mut all_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (from, outs) in self.positive.iter().enumerate() {
            all_edges[from].extend(outs.iter().copied());
        }
        for (from, outs) in self.negative.iter().enumerate() {
            all_edges[from].extend(outs.iter().copied());
        }
        let component = strongly_connected_components(n, &all_edges);

        // Components with at least one internal negative edge, in the order
        // of their smallest member index.
        let mut flagged: Vec<usize> = Vec::new();
        for (from, outs) in self.negative.iter().enumerate() {
            for &to in outs {
                if component[from] == component[to] && !flagged.contains(&component[from]) {
                    flagged.push(component[from]);
                }
            }
        }

        let mut loops = Vec::new();
        for comp in flagged {
            let members: Vec<usize> = (0..n).filter(|&v| component[v] == comp).collect();
            let local: BTreeMap<usize, usize> = members
                .iter()
                .enumerate()
                .map(|(local, &global)| (global, local))
                .collect();
            // Parity-doubled graph restricted to the component: node `2v+p`
            // is "v reached with negative-edge parity p"; an edge of sign s
            // maps (v, p) → (w, p ⊕ s). A member lies on an odd negative
            // cycle exactly when both of its copies share an SCC.
            let m = members.len();
            let mut doubled: Vec<Vec<usize>> = vec![Vec::new(); 2 * m];
            for (&from, &lf) in &local {
                for (edges, sign) in [(&self.positive, 0usize), (&self.negative, 1usize)] {
                    for &to in &edges[from] {
                        if let Some(&lt) = local.get(&to) {
                            doubled[2 * lf].push(2 * lt + sign);
                            doubled[2 * lf + 1].push(2 * lt + (1 - sign));
                        }
                    }
                }
            }
            let dcomp = strongly_connected_components(2 * m, &doubled);
            let mut odd_core: Vec<String> = members
                .iter()
                .enumerate()
                .filter(|&(local_idx, _)| dcomp[2 * local_idx] == dcomp[2 * local_idx + 1])
                .map(|(_, &global)| self.predicates[global].clone())
                .collect();
            odd_core.sort();
            let mut predicates: Vec<String> = members
                .iter()
                .map(|&v| self.predicates[v].clone())
                .collect();
            predicates.sort();
            loops.push(NegationLoop {
                predicates,
                odd_core,
            });
        }
        loops.sort();
        loops
    }

    /// A stratification: predicate name → stratum number (0-based), lowest
    /// strata first. Returns `None` when the program is not stratified.
    pub fn stratification(&self) -> Option<BTreeMap<String, usize>> {
        if !self.is_stratified() {
            return None;
        }
        let n = self.len();
        // Longest-path layering over the condensation: iterate to fixpoint
        // (n iterations suffice because the condensation is acyclic w.r.t.
        // negative edges and positive cycles keep equal strata).
        let mut stratum = vec![0usize; n];
        let mut changed = true;
        let mut guard = 0;
        while changed && guard <= n + 1 {
            changed = false;
            guard += 1;
            for (from, outs) in self.positive.iter().enumerate() {
                for &to in outs {
                    if stratum[to] < stratum[from] {
                        stratum[to] = stratum[from];
                        changed = true;
                    }
                }
            }
            for (from, outs) in self.negative.iter().enumerate() {
                for &to in outs {
                    if stratum[to] < stratum[from] + 1 {
                        stratum[to] = stratum[from] + 1;
                        changed = true;
                    }
                }
            }
        }
        let mut out = BTreeMap::new();
        for (name, &idx) in &self.index {
            out.insert(name.clone(), stratum[idx]);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::syntax::{Atom, Rule};

    fn atom(p: &str, args: &[&str]) -> Atom {
        Atom::new(p, args)
    }

    #[test]
    fn scc_identifies_cycles() {
        // 0 -> 1 -> 2 -> 0 (one SCC), 3 -> 0 (own SCC).
        let edges = vec![vec![1], vec![2], vec![0], vec![0]];
        let comp = strongly_connected_components(4, &edges);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[3], comp[0]);
    }

    #[test]
    fn scc_handles_disconnected_nodes() {
        let edges = vec![vec![], vec![], vec![]];
        let comp = strongly_connected_components(3, &edges);
        let distinct: BTreeSet<usize> = comp.into_iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn non_disjunctive_programs_are_hcf() {
        let mut p = Program::new();
        p.add_fact(atom("a", &["x"]));
        p.add_rule(Rule::new(
            vec![atom("b", &["X"])],
            vec![BodyItem::Pos(atom("a", &["X"]))],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        assert!(is_head_cycle_free(&g));
    }

    #[test]
    fn disjunction_without_cycle_is_hcf() {
        // a v b :- c.   (no positive path between a and b)
        let mut p = Program::new();
        p.add_fact(atom("c", &[] as &[&str]));
        p.add_rule(Rule::new(
            vec![atom("a", &[] as &[&str]), atom("b", &[] as &[&str])],
            vec![BodyItem::Pos(atom("c", &[] as &[&str]))],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        assert!(is_head_cycle_free(&g));
    }

    #[test]
    fn head_cycle_is_detected() {
        // a v b :- c.   a :- b.   b :- a.   → a and b share an SCC.
        let mut p = Program::new();
        p.add_fact(atom("c", &[] as &[&str]));
        p.add_rule(Rule::new(
            vec![atom("a", &[] as &[&str]), atom("b", &[] as &[&str])],
            vec![BodyItem::Pos(atom("c", &[] as &[&str]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("a", &[] as &[&str])],
            vec![BodyItem::Pos(atom("b", &[] as &[&str]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("b", &[] as &[&str])],
            vec![BodyItem::Pos(atom("a", &[] as &[&str]))],
        ));
        let g = Grounder::new(&p).ground().unwrap();
        assert!(!is_head_cycle_free(&g));
    }

    #[test]
    fn positive_edges_are_sorted_and_distinct() {
        // b :- a.  c v b :- a.  — edges a → b, a → c, a → b, in that order.
        let (a, b, c) = (atom("a", &[]), atom("b", &[]), atom("c", &[]));
        let mut p = Program::new();
        p.add_fact(a.clone());
        p.add_rule(Rule::new(vec![b.clone()], vec![BodyItem::Pos(a.clone())]));
        p.add_rule(Rule::new(vec![c, b], vec![BodyItem::Pos(a)]));
        let g = Grounder::new(&p).ground().unwrap();
        let edges = positive_dependency_graph(&g);
        let a = g
            .atom_id(&crate::GroundAtom::new("a", &[] as &[&str]))
            .unwrap();
        assert_eq!(edges[a].len(), 2);
        assert!(edges
            .iter()
            .all(|outs| outs.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    fn predicate_certificate_decides_every_grounding() {
        let rule = |heads: &[&Atom], body: &[&Atom]| {
            let body = body.iter().map(|&a| BodyItem::Pos(a.clone())).collect();
            Rule::new(heads.iter().map(|&a| a.clone()).collect(), body)
        };
        let (p_x, p_y, e_xy) = (atom("p", &["X"]), atom("p", &["Y"]), atom("e", &["X", "Y"]));
        let (q_x, r_x) = (atom("q", &["X"]), atom("r", &["X"]));
        let choice = rule(&[&p_x, &q_x], &[&r_x]);
        let pair = rule(&[&p_x, &p_y], &[&e_xy]);
        // (rules, certified): disjunctions over acyclic, one-way, repeated
        // non-recursive, mutually recursive and recursive head predicates.
        let cases = [
            (vec![choice.clone()], true),
            (vec![choice.clone(), rule(&[&q_x], &[&p_x])], true),
            (vec![pair.clone()], true),
            (
                vec![choice, rule(&[&q_x], &[&p_x]), rule(&[&p_x], &[&q_x])],
                false,
            ),
            (vec![pair, rule(&[&p_y], &[&p_x, &e_xy])], false),
        ];
        for (rules, certified) in cases {
            let mut p = Program::new();
            for fact in [
                atom("r", &["a"]),
                atom("e", &["a", "b"]),
                atom("e", &["b", "a"]),
            ] {
                p.add_fact(fact);
            }
            for r in rules {
                p.add_rule(r);
            }
            assert_eq!(
                PredicateGraph::new(&p).is_head_cycle_free(),
                certified,
                "{p}"
            );
            let g = Grounder::new(&p).ground().unwrap();
            // Sound: a certified program grounds head-cycle-free. Every
            // uncertified case here has a ground head cycle too.
            assert_eq!(is_head_cycle_free(&g), certified, "{p}");
        }
    }

    #[test]
    fn stratified_program_detected() {
        // q(X) :- p(X), not r(X).   r(X) :- s(X).   — stratified.
        let mut p = Program::new();
        p.add_fact(atom("p", &["a"]));
        p.add_fact(atom("s", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("q", &["X"])],
            vec![
                BodyItem::Pos(atom("p", &["X"])),
                BodyItem::Naf(atom("r", &["X"])),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("r", &["X"])],
            vec![BodyItem::Pos(atom("s", &["X"]))],
        ));
        let graph = PredicateGraph::new(&p);
        assert!(graph.is_stratified());
        let strata = graph.stratification().unwrap();
        assert!(strata["r"] < strata["q"]);
    }

    #[test]
    fn unstratified_program_detected() {
        // p :- not q.  q :- not p.  — the classic even cycle through negation.
        let mut p = Program::new();
        p.add_fact(atom("dom", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("p", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("q", &["X"])),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("q", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("p", &["X"])),
            ],
        ));
        let graph = PredicateGraph::new(&p);
        assert!(!graph.is_stratified());
        assert!(graph.stratification().is_none());
    }

    #[test]
    fn even_negation_loop_has_empty_odd_core() {
        // p :- not q.  q :- not p.  — a 2-cycle with two negative edges.
        let mut p = Program::new();
        p.add_rule(Rule::new(
            vec![atom("p", &[] as &[&str])],
            vec![BodyItem::Naf(atom("q", &[] as &[&str]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("q", &[] as &[&str])],
            vec![BodyItem::Naf(atom("p", &[] as &[&str]))],
        ));
        let graph = PredicateGraph::new(&p);
        let loops = graph.negation_loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].predicates, vec!["p".to_string(), "q".to_string()]);
        assert!(loops[0].odd_core.is_empty());
    }

    #[test]
    fn odd_negation_loop_is_detected_with_its_core() {
        // p :- not p.  — the canonical odd loop (one negative edge).
        let mut p = Program::new();
        p.add_rule(Rule::new(
            vec![atom("p", &[] as &[&str])],
            vec![BodyItem::Naf(atom("p", &[] as &[&str]))],
        ));
        let graph = PredicateGraph::new(&p);
        let loops = graph.negation_loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].odd_core, vec!["p".to_string()]);
    }

    #[test]
    fn odd_loop_through_a_positive_edge() {
        // p :- q.  q :- not p.  — cycle with exactly one negative edge.
        let mut p = Program::new();
        p.add_rule(Rule::new(
            vec![atom("p", &[] as &[&str])],
            vec![BodyItem::Pos(atom("q", &[] as &[&str]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("q", &[] as &[&str])],
            vec![BodyItem::Naf(atom("p", &[] as &[&str]))],
        ));
        let graph = PredicateGraph::new(&p);
        let loops = graph.negation_loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].odd_core, vec!["p".to_string(), "q".to_string()]);
    }

    #[test]
    fn negation_loops_agree_with_stratification() {
        let mut strat = Program::new();
        strat.add_rule(Rule::new(
            vec![atom("q", &["X"])],
            vec![
                BodyItem::Pos(atom("p", &["X"])),
                BodyItem::Naf(atom("r", &["X"])),
            ],
        ));
        let graph = PredicateGraph::new(&strat);
        assert!(graph.is_stratified());
        assert!(graph.negation_loops().is_empty());
    }

    #[test]
    fn paper_copy_rules_are_not_stratified() {
        // Rules (4)/(6)-style: r1p(X,Y) :- r1(X,Y), not -r1p(X,Y).
        // together with -r1p defined via r1p would be unstratified, but the
        // copy rule alone (with -r1p defined independently) is stratified.
        let mut p = Program::new();
        p.add_fact(atom("r1", &["a", "b"]));
        p.add_rule(Rule::new(
            vec![atom("r1p", &["X", "Y"])],
            vec![
                BodyItem::Pos(atom("r1", &["X", "Y"])),
                BodyItem::Naf(atom("r1p", &["X", "Y"]).strongly_negated()),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("r1p", &["X", "Y"]).strongly_negated()],
            vec![
                BodyItem::Pos(atom("r1", &["X", "Y"])),
                BodyItem::Naf(atom("r1p", &["X", "Y"])),
            ],
        ));
        let graph = PredicateGraph::new(&p);
        assert!(!graph.is_stratified());
    }
}
