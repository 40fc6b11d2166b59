//! Differential test of the grounder against the naive string grounder
//! (`tests/support/naive_grounder.rs`).
//!
//! `Grounder::ground` and `IncrementalGround::new(..).to_ground()` must
//! emit exactly what the naive grounder emits — the same rules in the same
//! order (compared on `GroundProgram`'s `Display`) over the same atom
//! numbering — on random programs and on every relevance slice of the
//! workload generator's systems. On those slices,
//! `IncrementalGround::from_tables` over the rules plus the instances as
//! fact tables of store ids must emit the same, with the text program's
//! relevance fingerprint. Random insert/delete sequences applied with
//! `apply_delta` must leave `to_ground` equal to a fresh grounding of the
//! updated program.

#[path = "support/naive_grounder.rs"]
mod naive_grounder;

use datalog::ground::{GroundAtom, GroundProgram, Grounder};
use datalog::syntax::{Atom, BodyItem, Builtin, BuiltinOp, ChoiceAtom, Program, Rule, Term};
use datalog::{FactTable, IncrementalGround, QuerySeed, RelevanceAnalysis};
use pdes_core::asp::encode::{fact_tables, symbol_text};
use pdes_core::asp::{annotated_program_with, transitive_program_with};
use pdes_core::P2PSystem;
use proptest::TestRng;
use relalg::SymbolTable;
use std::collections::BTreeSet;
use std::sync::Arc;
use workload::{generate, Topology, TrustMix, WorkloadSpec};

/// The atoms of a ground program in id order.
fn atom_order(ground: &GroundProgram) -> Vec<String> {
    ground.atoms().map(|(_, a)| a.to_string()).collect()
}

/// Assert that both groundings of `program` agree with the oracle: rules
/// byte for byte and atoms in the same id order.
fn assert_matches_oracle(program: &Program, context: &str) {
    let grounder = Grounder::new(program);
    let unfolded = grounder.program();
    let expected = naive_grounder::ground(unfolded);
    let got = grounder.ground().unwrap();
    assert_eq!(
        got.to_string(),
        expected.to_string(),
        "Grounder::ground differs from the oracle on {context}\n{program}"
    );
    assert_eq!(
        atom_order(&got),
        atom_order(&expected),
        "atom order, {context}"
    );

    let expected = naive_grounder::ground_incremental(unfolded);
    let got = IncrementalGround::new(program).unwrap().to_ground();
    assert_eq!(
        got.to_string(),
        expected.to_string(),
        "IncrementalGround::to_ground differs from the oracle on {context}\n{program}"
    );
    assert_eq!(
        atom_order(&got),
        atom_order(&expected),
        "atom order, {context}"
    );
}

/// Small random programs over a fixed vocabulary.
struct Gen {
    rng: TestRng,
}

const PREDICATES: [(&str, usize); 5] = [("p", 1), ("q", 2), ("r", 2), ("s", 1), ("t", 2)];
const CONSTANTS: [&str; 5] = ["c", "a", "bb", "b", "a1"];
const VARIABLES: [&str; 3] = ["X", "Y", "Z"];

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn constant(&mut self) -> &'static str {
        CONSTANTS[self.below(CONSTANTS.len())]
    }

    fn fact(&mut self) -> GroundAtom {
        let (name, arity) = PREDICATES[self.below(PREDICATES.len())];
        let args: Vec<&str> = (0..arity).map(|_| self.constant()).collect();
        let atom = GroundAtom::new(name, &args);
        if self.chance(10) {
            atom.strongly_negated()
        } else {
            atom
        }
    }

    /// An atom whose terms are drawn from `vars` (or constants).
    fn atom(&mut self, vars: &[&str], const_percent: usize) -> Atom {
        let (name, arity) = PREDICATES[self.below(PREDICATES.len())];
        let terms: Vec<Term> = (0..arity)
            .map(|_| {
                if vars.is_empty() || self.chance(const_percent) {
                    Term::cnst(self.constant())
                } else {
                    Term::var(vars[self.below(vars.len())])
                }
            })
            .collect();
        let atom = Atom::from_terms(name, terms);
        if self.chance(15) {
            atom.strongly_negated()
        } else {
            atom
        }
    }

    fn rule(&mut self) -> Rule {
        // A body-less disjunction over constants.
        if self.chance(5) {
            return Rule::new(vec![self.atom(&[], 100), self.atom(&[], 100)], vec![]);
        }
        let mut body = Vec::new();
        for _ in 0..1 + self.below(3) {
            body.push(BodyItem::Pos(self.atom(&VARIABLES, 15)));
        }
        let bound: Vec<&str> = VARIABLES
            .iter()
            .copied()
            .filter(|v| {
                body.iter().any(|b| match b {
                    BodyItem::Pos(a) => a.variables().contains(*v),
                    _ => false,
                })
            })
            .collect();
        if self.chance(40) {
            body.insert(
                self.below(body.len() + 1),
                BodyItem::Naf(self.atom(&bound, 20)),
            );
        }
        if self.chance(40) && !bound.is_empty() {
            let ops = [
                BuiltinOp::Neq,
                BuiltinOp::Eq,
                BuiltinOp::Lt,
                BuiltinOp::Leq,
                BuiltinOp::Gt,
                BuiltinOp::Geq,
            ];
            let op = ops[self.below(ops.len())];
            let left = Term::var(bound[self.below(bound.len())]);
            let right = if self.chance(30) {
                Term::cnst(self.constant())
            } else {
                Term::var(bound[self.below(bound.len())])
            };
            body.push(BodyItem::Builtin(Builtin::new(op, left, right)));
        }
        if self.chance(8) && bound.len() >= 2 {
            body.push(BodyItem::Choice(ChoiceAtom::new(
                vec![Term::var(bound[0])],
                vec![Term::var(bound[1])],
            )));
        }
        let heads = match self.below(10) {
            0 => 0,
            1 | 2 => 2,
            _ => 1,
        };
        let head = (0..heads).map(|_| self.atom(&bound, 10)).collect();
        Rule::new(head, body)
    }

    fn program(&mut self, facts: usize, rules: usize) -> Program {
        let mut program = Program::new();
        for _ in 0..facts {
            program.add_fact(to_atom(&self.fact()));
        }
        for _ in 0..rules {
            // Interleave facts and rules now and then.
            if self.chance(10) {
                program.add_fact(to_atom(&self.fact()));
            }
            program.add_rule(self.rule());
        }
        program
    }
}

fn to_atom(g: &GroundAtom) -> Atom {
    let args: Vec<Term> = g.args.iter().map(|a| Term::Const(a.clone())).collect();
    let atom = Atom::from_terms(g.predicate.clone(), args);
    if g.strong_neg {
        atom.strongly_negated()
    } else {
        atom
    }
}

/// The program's non-fact rules over a replacement fact set.
fn with_facts(program: &Program, facts: &BTreeSet<GroundAtom>) -> Program {
    let mut out = Program::new();
    for fact in facts {
        out.add_fact(to_atom(fact));
    }
    for rule in program.rules().iter().filter(|r| !r.is_fact()) {
        out.add_rule(rule.clone());
    }
    out
}

fn fact_set(program: &Program) -> BTreeSet<GroundAtom> {
    program
        .rules()
        .iter()
        .filter(|r| r.is_fact())
        .map(|r| {
            let h = &r.head[0];
            let args: Vec<&str> = h.terms.iter().filter_map(Term::as_const).collect();
            let g = GroundAtom::new(h.predicate.clone(), &args);
            if h.strong_neg {
                g.strongly_negated()
            } else {
                g
            }
        })
        .collect()
}

#[test]
fn random_programs_match_the_naive_grounder() {
    for case in 0..400 {
        let mut gen = Gen {
            rng: TestRng::for_case(case),
        };
        let facts = 3 + gen.below(8);
        let rules = 1 + gen.below(6);
        let program = gen.program(facts, rules);
        if !program.unsafe_rules().is_empty() {
            continue;
        }
        assert_matches_oracle(&program, &format!("random case {case}"));
    }
}

/// Positive recursion with a cycle, joins, a naf literal and a builtin.
fn reach_program() -> Program {
    let mut p = Program::new();
    for (x, y) in [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "e")] {
        p.add_fact(Atom::new("edge", &[x, y]));
    }
    p.add_fact(Atom::new("blocked", &["d"]));
    p.add_rule(Rule::new(
        vec![Atom::new("reach", &["X", "Y"])],
        vec![BodyItem::Pos(Atom::new("edge", &["X", "Y"]))],
    ));
    p.add_rule(Rule::new(
        vec![Atom::new("reach", &["X", "Z"])],
        vec![
            BodyItem::Pos(Atom::new("reach", &["X", "Y"])),
            BodyItem::Pos(Atom::new("edge", &["Y", "Z"])),
            BodyItem::Builtin(Builtin::new(BuiltinOp::Neq, Term::var("X"), Term::var("Z"))),
        ],
    ));
    p.add_rule(Rule::new(
        vec![Atom::new("open", &["X"])],
        vec![
            BodyItem::Pos(Atom::new("reach", &["a", "X"])),
            BodyItem::Naf(Atom::new("blocked", &["X"])),
        ],
    ));
    p
}

#[test]
fn recursive_programs_match_the_naive_grounder() {
    assert_matches_oracle(&reach_program(), "reach");
}

/// Apply random insert/delete batches to an incremental state and compare
/// every step with a fresh grounding of the updated program.
fn check_delta_sequence(program: &Program, gen: &mut Gen, steps: usize, context: &str) {
    let mut state = IncrementalGround::new(program).unwrap();
    let mut facts = fact_set(program);
    for step in 0..steps {
        let mut insertions = Vec::new();
        let mut deletions = Vec::new();
        for _ in 0..1 + gen.below(3) {
            if gen.chance(50) && !facts.is_empty() {
                let victim = facts.iter().nth(gen.below(facts.len())).unwrap().clone();
                deletions.push(victim);
            } else {
                insertions.push(gen.fact());
            }
        }
        state.apply_delta(&insertions, &deletions);
        for d in &deletions {
            facts.remove(d);
        }
        for i in &insertions {
            if !deletions.contains(i) {
                facts.insert(i.clone());
            }
        }
        let updated = with_facts(program, &facts);
        let patched = state.to_ground();
        let fresh = IncrementalGround::new(&updated).unwrap().to_ground();
        let oracle = naive_grounder::ground_incremental(Grounder::new(&updated).program());
        let context = format!("{context}, step {step}");
        assert_eq!(
            patched.to_string(),
            fresh.to_string(),
            "{context}\n{updated}"
        );
        assert_eq!(atom_order(&patched), atom_order(&fresh), "{context}");
        assert_eq!(
            patched.to_string(),
            oracle.to_string(),
            "{context}\n{updated}"
        );
    }
}

#[test]
fn random_delta_sequences_patch_to_a_fresh_grounding() {
    for case in 0..150 {
        let mut gen = Gen {
            rng: TestRng::for_case(10_000 + case),
        };
        let facts = 3 + gen.below(6);
        let rules = 1 + gen.below(5);
        let program = gen.program(facts, rules);
        if !program.unsafe_rules().is_empty() {
            continue;
        }
        check_delta_sequence(&program, &mut gen, 6, &format!("random case {case}"));
    }
}

#[test]
fn recursive_deletions_patch_to_a_fresh_grounding() {
    let program = reach_program();
    let mut state = IncrementalGround::new(&program).unwrap();
    let mut facts = fact_set(&program);
    // Deleting a cycle edge must fall back to full re-saturation.
    let cut = GroundAtom::new("edge", &["b", "a"]);
    let stats = state.apply_delta(&[], std::slice::from_ref(&cut));
    assert!(stats.full_resaturation);
    facts.remove(&cut);
    let updated = with_facts(&program, &facts);
    assert_eq!(
        state.to_ground().to_string(),
        naive_grounder::ground_incremental(&updated).to_string()
    );
    // Then random batches toggling one or two edges, over the program's
    // nodes and two it does not mention, so deletions on the cycle meet
    // insertions over new constants in the same delta.
    let mut gen = Gen {
        rng: TestRng::for_case(99),
    };
    let mut facts_now = facts;
    for step in 0..40 {
        let nodes = ["a", "b", "c", "d", "e", "f", "g"];
        let (mut ins, mut del) = (vec![], vec![]);
        for _ in 0..1 + gen.below(2) {
            let edge = GroundAtom::new(
                "edge",
                &[nodes[gen.below(nodes.len())], nodes[gen.below(nodes.len())]],
            );
            if ins.contains(&edge) || del.contains(&edge) {
                continue;
            }
            if facts_now.contains(&edge) {
                del.push(edge);
            } else {
                ins.push(edge);
            }
        }
        state.apply_delta(&ins, &del);
        for edge in &del {
            facts_now.remove(edge);
        }
        facts_now.extend(ins);
        let updated = with_facts(&program, &facts_now);
        assert_eq!(
            state.to_ground().to_string(),
            naive_grounder::ground_incremental(&updated).to_string(),
            "step {step}\n{updated}"
        );
    }
}

#[test]
fn recursive_deletion_with_a_new_constant_patches_to_a_fresh_grounding() {
    // The deletion forces a full re-saturation, which interns `q(z)` and
    // `s(z)` for the first time; the rule for `s` mentions neither `edge`
    // nor `node`, so only the re-saturation's diff can mark it changed.
    let mut program = reach_program();
    program.add_fact(Atom::new("node", &["a"]));
    program.add_rule(Rule::new(
        vec![Atom::new("q", &["X"])],
        vec![BodyItem::Pos(Atom::new("node", &["X"]))],
    ));
    program.add_rule(Rule::new(
        vec![Atom::new("s", &["X"])],
        vec![BodyItem::Pos(Atom::new("q", &["X"]))],
    ));
    let mut state = IncrementalGround::new(&program).unwrap();
    let insert = GroundAtom::new("node", &["z"]);
    let cut = GroundAtom::new("edge", &["b", "a"]);
    let stats = state.apply_delta(std::slice::from_ref(&insert), std::slice::from_ref(&cut));
    assert!(stats.full_resaturation);
    let mut facts = fact_set(&program);
    facts.remove(&cut);
    facts.insert(insert);
    let updated = with_facts(&program, &facts);
    let patched = state.to_ground();
    let fresh = IncrementalGround::new(&updated).unwrap().to_ground();
    assert_eq!(patched.to_string(), fresh.to_string(), "\n{updated}");
    assert_eq!(atom_order(&patched), atom_order(&fresh));
    assert_eq!(
        patched.to_string(),
        naive_grounder::ground_incremental(&updated).to_string()
    );
}

/// Every relevance slice of a system: for each peer, both specification
/// programs, and for each of the peer's relations an unbound seed and a
/// seed binding the first argument to a constant of the peer's instance.
/// Each slice is also grounded from the rules plus the instances as fact
/// tables of store ids ([`assert_table_slice_matches`]), with one more
/// seed binding a material relation (a fact predicate).
fn assert_slices_match(system: &P2PSystem, name: &str) {
    let symbols = SymbolTable::new();
    for peer in system.peers() {
        symbols.intern_database(&peer.instance);
    }
    let tables = fact_tables(system.peers().map(|p| &p.instance), &symbols, |_| true);
    let text = symbol_text(&symbols);
    let facts = TableFacts {
        tables: &tables,
        text: &text,
    };
    let mut restricted_fact_seeds = 0;
    for peer in system.peer_ids() {
        let data = system.peer(peer).unwrap();
        let relations: Vec<String> = data.schema.relation_names().map(str::to_string).collect();
        let constant = data
            .instance
            .relations()
            .flat_map(|r| r.iter())
            .next()
            .map(|t| t.iter().next().unwrap().to_string());
        let direct = annotated_program_with(system, peer, None).unwrap();
        let transitive = transitive_program_with(system, peer, None).unwrap();
        let specs: [(&str, &Program, Vec<String>); 2] = [
            (
                "annotated",
                &direct.program,
                relations
                    .iter()
                    .map(|r| direct.solution_predicate(r))
                    .collect(),
            ),
            (
                "transitive",
                &transitive.program,
                relations
                    .iter()
                    .map(|r| transitive.solution_predicate(system, r))
                    .collect(),
            ),
        ];
        for (flavour, program, predicates) in specs {
            let grounder = Grounder::new(program);
            for predicate in &predicates {
                let mut seeds = vec![QuerySeed::new(predicate.clone())];
                if let Some(c) = &constant {
                    seeds.push(QuerySeed::with_bindings(
                        predicate.clone(),
                        vec![Some(c.as_str().into()), None],
                    ));
                }
                for seed in seeds {
                    let slice = grounder
                        .relevance(std::slice::from_ref(&seed))
                        .restrict(grounder.program());
                    assert_matches_oracle(
                        &slice,
                        &format!("{name} {peer} {flavour} {predicate} {seed:?}"),
                    );
                    assert_table_slice_matches(
                        &grounder,
                        &facts,
                        &seed,
                        &format!("{name} {peer} {flavour} {predicate} {seed:?} from tables"),
                    );
                }
            }
            // A bound seed on a material relation: a fact predicate no rule
            // of the spec reads, when there is one (the seed is then
            // restrictable and filters the relation's rows), else the
            // peer's first relation.
            let fact_seed = tables
                .iter()
                .rev()
                .find(|t| {
                    let rules = program.rules().iter().filter(|r| !r.is_fact());
                    !rules.into_iter().any(|r| mentions(r, t.predicate()))
                })
                .or_else(|| tables.iter().find(|t| t.predicate() == relations[0]))
                .map(|table| {
                    let bound = text(table.row(0)[0]);
                    let mut bindings = vec![None; table.arity()];
                    bindings[0] = Some(bound);
                    QuerySeed::with_bindings(table.predicate(), bindings)
                });
            if let Some(seed) = fact_seed {
                let context = format!("{name} {peer} {flavour} fact seed {seed:?}");
                if assert_table_slice_matches(&grounder, &facts, &seed, &context) {
                    restricted_fact_seeds += 1;
                }
            }
        }
    }
    assert!(
        restricted_fact_seeds > 0,
        "{name}: no bound fact seed filtered rows"
    );
}

/// A system's instances as the public encoder's fact tables of store ids,
/// with the store's id → text function.
struct TableFacts<'a> {
    tables: &'a [FactTable],
    text: &'a dyn Fn(u32) -> Arc<str>,
}

/// Does `rule` mention `predicate` anywhere?
fn mentions(rule: &Rule, predicate: &str) -> bool {
    rule.head.iter().any(|a| a.predicate == predicate)
        || rule.body.iter().any(|item| match item {
            BodyItem::Pos(a) | BodyItem::Naf(a) => a.predicate == predicate,
            _ => false,
        })
}

/// Ground `grounder`'s slice for `seed` from its rules plus `facts`
/// through `IncrementalGround::from_tables`, and assert it equals the
/// oracle's grounding of the text slice (rules byte for byte, atoms in
/// the same id order) and that the relevance fingerprint equals the text
/// program's. Returns whether the seed was binding-restrictable.
fn assert_table_slice_matches(
    grounder: &Grounder<'_>,
    facts: &TableFacts<'_>,
    seed: &QuerySeed,
    context: &str,
) -> bool {
    let seeds = std::slice::from_ref(seed);
    let text_analysis = grounder.relevance(seeds);
    let mut rules = Program::new();
    for rule in grounder.program().rules().iter().filter(|r| !r.is_fact()) {
        rules.add_rule(rule.clone());
    }
    let shapes = facts.tables.iter().map(|t| (t.predicate(), t.arity()));
    let analysis = RelevanceAnalysis::analyze_with_facts(&rules, shapes, seeds);
    assert_eq!(
        analysis.fingerprint(),
        text_analysis.fingerprint(),
        "fingerprint, {context}"
    );
    let kept = analysis.restrict_facts(facts.tables, facts.text);
    let kept = kept.iter().map(|t| &**t);
    let got = IncrementalGround::from_tables(&analysis.restrict(&rules), kept, facts.text)
        .unwrap()
        .to_ground();
    let expected = naive_grounder::ground_incremental(&text_analysis.restrict(grounder.program()));
    assert_eq!(
        got.to_string(),
        expected.to_string(),
        "IncrementalGround::from_tables differs from the oracle on {context}"
    );
    assert_eq!(
        atom_order(&got),
        atom_order(&expected),
        "atom order, {context}"
    );
    analysis.is_restrictable(&seed.predicate)
}

#[test]
fn workload_slices_match_the_naive_grounder() {
    let star = WorkloadSpec {
        peers: 4,
        tuples_per_relation: 8,
        violations_per_dec: 2,
        topology: Topology::Star,
        trust_mix: TrustMix::Mixed,
        key_constraint_percent: 50,
        seed: 42,
    };
    let chain = WorkloadSpec {
        topology: Topology::Chain,
        trust_mix: TrustMix::AllLess,
        ..star
    };
    assert_slices_match(&generate(&star).unwrap().system, "star");
    assert_slices_match(&generate(&chain).unwrap().system, "chain");
    assert_slices_match(&pdes_bench::parallel::cluster_system(3, 6, 2), "cluster");
}
