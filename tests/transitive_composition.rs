//! The transitive specification program (Section 4.3) composes the
//! reachable peers' annotated programs. The composition encodes the
//! system's facts once and gives every per-peer specification its rules
//! only; this suite checks that it still equals, rule for rule, the
//! composition of whole per-peer programs — each peer's
//! `annotated_program_with` output, facts kept from the first program
//! only, every other rule rewired through the owning peers' `tss`
//! predicates — on the paper's Example 4, an `A ← B ← C` inclusion chain
//! and the generated chains the benchmark runs.

use datalog::{Atom, BodyItem, Program, Rule};
use p2p_data_exchange::constraints::builders::{full_inclusion, mixed_referential};
use p2p_data_exchange::core::asp::{
    annotated_program_with, transitive_program_with, AnnotatedSpec,
};
use p2p_data_exchange::relalg::RelationSchema;
use p2p_data_exchange::{P2PSystem, PeerId, TrustLevel, Tuple};
use relalg::SymbolTable;
use std::collections::{BTreeMap, BTreeSet};
use workload::{generate, Topology, TrustMix, WorkloadSpec};

/// Rewrite the body atoms of `rule` over a substituted relation.
fn rewire(rule: &Rule, substitution: &BTreeMap<String, String>) -> Rule {
    let atom = |a: &Atom| match substitution.get(&a.predicate) {
        Some(predicate) if !a.strong_neg => Atom {
            predicate: predicate.clone(),
            strong_neg: false,
            terms: a.terms.clone(),
        },
        _ => a.clone(),
    };
    Rule {
        head: rule.head.clone(),
        body: rule
            .body
            .iter()
            .map(|item| match item {
                BodyItem::Pos(a) => BodyItem::Pos(atom(a)),
                BodyItem::Naf(a) => BodyItem::Naf(atom(a)),
                other => other.clone(),
            })
            .collect(),
    }
}

/// The composition of whole per-peer programs for `peer`, built from
/// public functions only.
fn composition_of_whole_programs(
    system: &P2PSystem,
    peer: &PeerId,
    symbols: &SymbolTable,
) -> Program {
    let mut reachable = BTreeSet::new();
    let mut queue = vec![peer.clone()];
    while let Some(current) = queue.pop() {
        if reachable.insert(current.clone()) {
            let (less, same) = system.trusted_decs_of(&current);
            queue.extend(less.into_iter().chain(same).map(|dec| dec.other.clone()));
        }
    }
    let specs: BTreeMap<PeerId, AnnotatedSpec> = reachable
        .into_iter()
        .map(|p| {
            let spec = annotated_program_with(system, &p, Some(symbols)).unwrap();
            (p, spec)
        })
        .collect();
    let mut program = Program::new();
    for (index, (owner_of_program, spec)) in specs.iter().enumerate() {
        let mut substitution = BTreeMap::new();
        for relation in spec.relevant.difference(&spec.flexible) {
            let Some(owner) = system.owner_of(relation) else {
                continue;
            };
            match specs.get(&owner) {
                Some(owner_spec)
                    if &owner != owner_of_program && owner_spec.flexible.contains(relation) =>
                {
                    substitution.insert(relation.clone(), owner_spec.solution_predicate(relation));
                }
                _ => {}
            }
        }
        for rule in spec.program.rules() {
            if !rule.is_fact() {
                program.add_rule(rewire(rule, &substitution));
            } else if index == 0 {
                program.add_rule(rule.clone());
            }
        }
    }
    program
}

fn rule_texts(program: &Program) -> Vec<String> {
    program.rules().iter().map(ToString::to_string).collect()
}

/// Every peer's transitive program equals the composition of whole
/// programs.
fn assert_composition_unchanged(system: &P2PSystem, context: &str) {
    let symbols = SymbolTable::new();
    for peer in system.peers() {
        symbols.intern_database(&peer.instance);
    }
    for peer in system.peer_ids() {
        let spec = transitive_program_with(system, peer, Some(&symbols)).unwrap();
        let reference = composition_of_whole_programs(system, peer, &symbols);
        assert_eq!(
            rule_texts(&spec.program),
            rule_texts(&reference),
            "{context}: the composition for {peer} changed"
        );
    }
}

/// Example 4: `P` less-trusts `Q` under constraint (3), `Q` less-trusts
/// `C` under `U ⊆ S1` (also the `transitive_network` example's system).
fn example4_system() -> P2PSystem {
    let mut sys = P2PSystem::new();
    for p in ["P", "Q", "C"] {
        sys.add_peer(p).unwrap();
    }
    let (p, q, c) = (PeerId::new("P"), PeerId::new("Q"), PeerId::new("C"));
    for (peer, rel) in [(&p, "R1"), (&p, "R2"), (&q, "S1"), (&q, "S2"), (&c, "U")] {
        sys.add_relation(peer, RelationSchema::new(rel, &["x", "y"]))
            .unwrap();
    }
    sys.insert(&p, "R1", Tuple::strs(["a", "b"])).unwrap();
    sys.insert(&q, "S2", Tuple::strs(["c", "e"])).unwrap();
    sys.insert(&q, "S2", Tuple::strs(["c", "f"])).unwrap();
    sys.insert(&c, "U", Tuple::strs(["c", "b"])).unwrap();
    let sigma_pq = mixed_referential("sigma_p_q", "R1", "S1", "R2", "S2").unwrap();
    sys.add_dec(&p, &q, sigma_pq).unwrap();
    let sigma_qc = full_inclusion("sigma_q_c", "U", "S1", 2).unwrap();
    sys.add_dec(&q, &c, sigma_qc).unwrap();
    sys.set_trust(&p, TrustLevel::Less, &q).unwrap();
    sys.set_trust(&q, TrustLevel::Less, &c).unwrap();
    sys
}

/// The `A ← B ← C` chain of full inclusions, every peer trusting the next
/// more.
fn inclusion_chain_system() -> P2PSystem {
    let mut sys = P2PSystem::new();
    for p in ["A", "B", "C"] {
        sys.add_peer(p).unwrap();
    }
    let (a, b, c) = (PeerId::new("A"), PeerId::new("B"), PeerId::new("C"));
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
    sys
}

#[test]
fn paper_systems_compose_like_whole_programs() {
    assert_composition_unchanged(&example4_system(), "example 4");
    assert_composition_unchanged(&inclusion_chain_system(), "inclusion chain");
}

fn chain(tuples_per_relation: usize, violations_per_dec: usize) -> WorkloadSpec {
    WorkloadSpec {
        peers: 4,
        tuples_per_relation,
        violations_per_dec,
        topology: Topology::Chain,
        trust_mix: TrustMix::AllLess,
        key_constraint_percent: 100,
        seed: 42,
    }
}

#[test]
fn generated_chains_compose_like_whole_programs() {
    // The benchmark's chain at its tiny and full sizes.
    for (tuples, violations) in [(6, 1), (40, 2)] {
        let system = generate(&chain(tuples, violations)).unwrap().system;
        assert_composition_unchanged(&system, &format!("chain with {tuples} tuples"));
    }
    let mixed = WorkloadSpec {
        trust_mix: TrustMix::Mixed,
        key_constraint_percent: 50,
        ..chain(6, 1)
    };
    let system = generate(&mixed).unwrap().system;
    assert_composition_unchanged(&system, "mixed-trust chain");
}
