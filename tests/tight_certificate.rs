//! Tightness-certificate oracle: a grounding with no positive cycle carries
//! a certificate (`GroundProgram::is_tight`) that lets `NormalSolver` skip
//! its unfounded-set pass. For every slice the compiled path certifies,
//! solving it with the certificate dropped must give the same answer sets
//! and the same branch-node count, while only the uncertified solve runs
//! unfounded-set passes.
//!
//! Inputs: every query slice of every peer of the paper's Example 1, a
//! transitive network, a cyclic `less` network and small generated star
//! and chain systems under every `TrustMix`, each under both specification
//! flavours (direct and transitive), plus the paper's verbatim Section 3.1,
//! Example 4 and appendix programs. The certificate is dropped by a round
//! trip through the public `intern` and `add_rule`, which keeps every atom
//! id and rule.

use datalog::ground::{GroundProgram, GroundRule};
use datalog::solve::{solve_ground_recorded, SolveResult, SolverConfig};
use datalog::{CompiledProgram, ConstantIds, Program, QuerySeed, TextOrder};
use p2p_data_exchange::core::asp::paper::{
    appendix_lav_program, example4_program, section31_program,
};
use p2p_data_exchange::core::asp::{annotated_program_with, transitive_program_with};
use p2p_data_exchange::{P2PSystem, PeerId, TraceRecorder, TrustLevel, Tuple};
use pdes_exec::Executor;
use relalg::{RelationSchema, SymbolTable};
use std::collections::BTreeSet;
use std::sync::Arc;
use workload::{generate, Topology, TrustMix, WorkloadSpec};

/// `ground` rebuilt atom by atom and rule by rule through the public
/// `intern` and `add_rule`: the same ids and rules, no certificate.
fn uncertified(ground: &GroundProgram) -> GroundProgram {
    let mut copy = GroundProgram::default();
    for (id, atom) in ground.atoms() {
        assert_eq!(copy.intern(atom), id);
    }
    for rule in ground.rules() {
        copy.add_rule(GroundRule {
            heads: rule.heads.to_vec(),
            pos: rule.pos.to_vec(),
            neg: rule.neg.to_vec(),
        });
    }
    assert!(!copy.is_tight());
    copy
}

/// The id space of no fact tables: the specs below carry their facts.
struct NoTables;

impl ConstantIds for NoTables {
    fn texts(&self, ids: &[u32], _: &mut Vec<Arc<str>>) {
        assert!(ids.is_empty(), "no table, so no table id");
    }

    fn find(&self, _: &str) -> Option<u32> {
        None
    }
}

/// Solve sequentially; also returns the unfounded-set passes it ran.
fn solved(ground: GroundProgram) -> (SolveResult, u64) {
    let recorder = TraceRecorder::new();
    let exec = Executor::sequential();
    let result = solve_ground_recorded(ground, SolverConfig::default(), &exec, &recorder).unwrap();
    let passes = recorder.registry().counter_value("solver.unfounded_passes");
    (result, passes)
}

/// How many slices were certified and how many were not.
#[derive(Default)]
struct Tally {
    certified: usize,
    uncertified: usize,
}

impl Tally {
    /// Ground the slice of `program` that `seeds` keep, the way the engine
    /// does, and check the certificate on it.
    fn check(&mut self, program: &Program, seeds: &[QuerySeed], context: &str) {
        let compiled = CompiledProgram::new(program).unwrap();
        let analysis = compiled.analyze([], seeds);
        let order = Arc::new(TextOrder::new());
        let (state, _) = compiled.ground(&analysis, [], &NoTables, &order);
        let ground = state.to_solver();
        if !ground.is_tight() {
            self.uncertified += 1;
            return;
        }
        self.certified += 1;
        let copy = uncertified(&ground);
        let (certified, passes) = solved(ground);
        let (reference, reference_passes) = solved(copy);
        assert_eq!(
            certified.answer_sets, reference.answer_sets,
            "{context}: answer sets"
        );
        assert_eq!(
            certified.branch_nodes, reference.branch_nodes,
            "{context}: branch nodes"
        );
        assert_eq!(passes, 0, "{context}: a certified slice runs no pass");
        assert!(reference_passes > 0, "{context}");
    }

    /// Every query slice of every peer of `system`, both flavours.
    fn check_system(&mut self, name: &str, system: &P2PSystem) {
        let symbols = SymbolTable::new();
        let topology = system.topology_only();
        for peer in system.peer_ids() {
            let direct = annotated_program_with(system, peer, Some(&symbols)).unwrap();
            let transitive = transitive_program_with(system, peer, Some(&symbols)).unwrap();
            for relation in system.peer(peer).unwrap().relation_names() {
                let seed = QuerySeed::new(direct.solution_predicate(&relation));
                let context = format!("{name} {peer} direct {relation}");
                self.check(&direct.program, &[seed], &context);
                let seed = QuerySeed::new(transitive.solution_predicate(&topology, &relation));
                let context = format!("{name} {peer} transitive {relation}");
                self.check(&transitive.program, &[seed], &context);
            }
        }
    }

    /// A verbatim paper program, one slice per predicate a rule derives.
    fn check_program(&mut self, name: &str, program: &Program) {
        let heads: BTreeSet<&str> = program
            .rules()
            .iter()
            .flat_map(|rule| &rule.head)
            .map(|atom| atom.predicate.as_str())
            .collect();
        for head in heads {
            self.check(program, &[QuerySeed::new(head)], &format!("{name} {head}"));
        }
    }
}

/// Two-column relations `(peer, relation)` with `(peer, relation, row)`
/// facts, DECs `(owner, other, dec)` and `less` trust pairs.
fn system(
    relations: &[(&str, &str)],
    rows: &[(&str, &str, [&str; 2])],
    decs: Vec<(&str, &str, constraints::Constraint)>,
) -> P2PSystem {
    let mut system = P2PSystem::new();
    for &(peer, relation) in relations {
        let peer = PeerId::new(peer);
        if system.peer(&peer).is_err() {
            system.add_peer(peer.clone()).unwrap();
        }
        let schema = RelationSchema::new(relation, &["x", "y"]);
        system.add_relation(&peer, schema).unwrap();
    }
    for &(peer, relation, row) in rows {
        let tuple = Tuple::strs(row);
        system.insert(&PeerId::new(peer), relation, tuple).unwrap();
    }
    for (owner, other, dec) in decs {
        let (owner, other) = (PeerId::new(owner), PeerId::new(other));
        system.add_dec(&owner, &other, dec).unwrap();
        system.set_trust(&owner, TrustLevel::Less, &other).unwrap();
    }
    system
}

/// Example 4: `P` imports from `Q`, which imports from `C`.
fn transitive_network() -> P2PSystem {
    use constraints::builders::{full_inclusion, mixed_referential};
    system(
        &[
            ("P", "R1"),
            ("P", "R2"),
            ("Q", "S1"),
            ("Q", "S2"),
            ("C", "U"),
        ],
        &[
            ("P", "R1", ["a", "b"]),
            ("Q", "S2", ["c", "e"]),
            ("Q", "S2", ["c", "f"]),
            ("C", "U", ["c", "b"]),
        ],
        vec![
            (
                "P",
                "Q",
                mixed_referential("sigma_p_q", "R1", "S1", "R2", "S2").unwrap(),
            ),
            ("Q", "C", full_inclusion("sigma_q_c", "U", "S1", 2).unwrap()),
        ],
    )
}

/// `P` and `Q` each import the other's relation and trust it more.
fn cyclic_less_network() -> P2PSystem {
    use constraints::builders::full_inclusion;
    system(
        &[("P", "R"), ("Q", "S")],
        &[("P", "R", ["a", "b"]), ("Q", "S", ["c", "d"])],
        vec![
            ("P", "Q", full_inclusion("sigma_p_q", "S", "R", 2).unwrap()),
            ("Q", "P", full_inclusion("sigma_q_p", "R", "S", 2).unwrap()),
        ],
    )
}

#[test]
fn certified_paper_slices_solve_alike_without_their_certificate() {
    let mut tally = Tally::default();
    tally.check_system("example1", &p2p_data_exchange::example1_system());
    tally.check_system("transitive_network", &transitive_network());
    tally.check_system("cyclic_less", &cyclic_less_network());
    let t = |rows: &[[&str; 2]]| rows.iter().map(|&r| Tuple::strs(r)).collect::<Vec<_>>();
    let (r1, s1, s2) = (
        t(&[["a", "b"]]),
        t(&[["c", "b"]]),
        t(&[["c", "e"], ["c", "f"]]),
    );
    tally.check_program("section31", &section31_program(&r1, &[], &s1, &s2));
    tally.check_program("example4", &example4_program(&r1, &[], &[], &s2, &s1));
    tally.check_program("appendix", &appendix_lav_program(&r1, &[], &s1, &s2));
    assert!(
        tally.certified >= 20,
        "only {} certified slices",
        tally.certified
    );
    // A positive cycle through the transitive program of two peers that
    // import from each other keeps its slices uncertified.
    assert!(tally.uncertified > 0, "every slice was certified");
}

#[test]
fn certified_workload_slices_solve_alike_without_their_certificate() {
    let mut tally = Tally::default();
    for topology in [Topology::Star, Topology::Chain] {
        for trust_mix in [TrustMix::AllLess, TrustMix::AllSame, TrustMix::Mixed] {
            let spec = WorkloadSpec {
                peers: 3,
                tuples_per_relation: 4,
                violations_per_dec: 1,
                topology,
                trust_mix,
                key_constraint_percent: 50,
                seed: 7,
            };
            let name = format!("{topology:?} {trust_mix:?}");
            tally.check_system(&name, &generate(&spec).unwrap().system);
        }
    }
    assert!(
        tally.certified >= 36,
        "only {} certified slices",
        tally.certified
    );
}
