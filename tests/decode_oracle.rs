//! Decode oracle: the id-native decode of solver models
//! (`AnnotatedSpec::columnar_worlds` / `TransitiveSpec::columnar_worlds`,
//! the path the engine answers through) must give exactly the worlds of the
//! string reference (`AnswerSets` plus `solution_databases`) over the same
//! `SolveResult` — the same number of distinct worlds and the same set of
//! {relation → tuple set} maps, empty relations included. The id-native
//! worlds are the decoded `WorldSet` expanded to `core ⊎ deltaᵢ`.
//!
//! Covered: example 1, the Section 3.1 referential system, the Example 4
//! transitive network and three small generated systems (star, chain and a
//! same-trust star with many worlds), every peer, both specification
//! flavours, over the full program and over each query slice. A hand-edited
//! model set adds the cases the generated ones may miss: two models that
//! decode to one world, a strongly negated solution atom, a constant the
//! store never saw, integer values and a world with empty relations.

use datalog::ground::GroundAtom;
use datalog::solve::solve_ground;
use datalog::{AnswerSets, Grounder, QuerySeed, SolveResult, SolverConfig};
use p2p_data_exchange::core::asp::{
    annotated_program_with, transitive_program_with, AnnotatedSpec, TransitiveSpec,
};
use p2p_data_exchange::{P2PSystem, PeerId, TrustLevel, Tuple};
use relalg::{Database, RelationSchema, SymbolTable, Value, WorldSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use workload::{generate, Topology, TrustMix, WorkloadSpec};

/// A world as a comparable value: every declared relation with its tuples.
type World = BTreeMap<String, BTreeSet<Tuple>>;

fn world_of(db: &Database) -> World {
    db.relations()
        .map(|r| (r.name().to_string(), r.iter().cloned().collect()))
        .collect()
}

/// The store's view of a system: every instance value interned.
fn store_symbols(system: &P2PSystem) -> Arc<SymbolTable> {
    let symbols = Arc::new(SymbolTable::new());
    for peer in system.peers() {
        symbols.intern_database(&peer.instance);
    }
    symbols
}

/// The string reference decode of `result`'s models.
fn answer_sets(result: &SolveResult) -> AnswerSets {
    AnswerSets {
        sets: result
            .answer_sets
            .iter()
            .map(|model| result.ground.decode(model))
            .collect(),
        branch_nodes: result.branch_nodes,
        used_shift: result.used_shift,
    }
}

/// One specification flavour of one peer. The transitive spec carries
/// the system's topology, which is all its decode reads (relation
/// ownership), as in the engine.
enum Spec {
    Direct(AnnotatedSpec),
    Transitive(TransitiveSpec, P2PSystem),
}

impl Spec {
    /// Both flavours of `peer`'s spec, constants encoded through `symbols`.
    fn both(system: &P2PSystem, peer: &PeerId, symbols: &SymbolTable) -> [(&'static str, Spec); 2] {
        let direct = annotated_program_with(system, peer, Some(symbols)).unwrap();
        let transitive = transitive_program_with(system, peer, Some(symbols)).unwrap();
        [
            ("direct", Spec::Direct(direct)),
            (
                "transitive",
                Spec::Transitive(transitive, system.topology_only()),
            ),
        ]
    }

    fn program(&self) -> &datalog::Program {
        match self {
            Spec::Direct(spec) => &spec.program,
            Spec::Transitive(spec, _) => &spec.program,
        }
    }

    fn solution_predicate(&self, relation: &str) -> String {
        match self {
            Spec::Direct(spec) => spec.solution_predicate(relation),
            Spec::Transitive(spec, topology) => spec.solution_predicate(topology, relation),
        }
    }

    /// The string reference decode.
    fn reference(&self, sets: &AnswerSets) -> Vec<Database> {
        match self {
            Spec::Direct(spec) => spec.solution_databases(sets),
            Spec::Transitive(spec, topology) => spec.solution_databases(topology, sets),
        }
        .unwrap()
    }

    /// The id-native decode the engine runs.
    fn id_native(&self, result: &SolveResult, symbols: &Arc<SymbolTable>) -> WorldSet {
        match self {
            Spec::Direct(spec) => spec.columnar_worlds(result, symbols),
            Spec::Transitive(spec, topology) => spec.columnar_worlds(topology, result, symbols),
        }
        .unwrap()
    }
}

/// Assert the two decodes of `result` agree; returns the id-native worlds,
/// in the reference's (model) order: the set keeps its worlds by size.
fn assert_decodes_agree(
    spec: &Spec,
    result: &SolveResult,
    symbols: &Arc<SymbolTable>,
    context: &str,
) -> Vec<World> {
    let reference: Vec<World> = spec
        .reference(&answer_sets(result))
        .iter()
        .map(world_of)
        .collect();
    let set = spec.id_native(result, symbols);
    let id_native: Vec<World> = (0..set.len()).map(|i| world_of(&set.world(i))).collect();
    assert_eq!(
        id_native.len(),
        reference.len(),
        "{context}: world counts differ"
    );
    assert_eq!(
        id_native.iter().collect::<BTreeSet<_>>(),
        reference.iter().collect::<BTreeSet<_>>(),
        "{context}: worlds differ"
    );
    let mut id_native = id_native;
    id_native.sort_by_key(|world| reference.iter().position(|r| r == world));
    id_native
}

/// Check every peer of `system`, both flavours, full program and slices.
fn check_system(name: &str, system: &P2PSystem) {
    let symbols = store_symbols(system);
    for peer in system.peer_ids() {
        for (flavour, spec) in Spec::both(system, peer, &symbols) {
            let grounder = Grounder::new(spec.program());
            let full = solve_ground(grounder.ground().unwrap(), SolverConfig::default()).unwrap();
            let context = format!("{name} {peer} {flavour} full program");
            assert!(!full.answer_sets.is_empty(), "{context}: no models");
            assert_decodes_agree(&spec, &full, &symbols, &context);
            // One slice per query over one of the peer's relations.
            for relation in system.peer(peer).unwrap().relation_names() {
                let seed = spec.solution_predicate(&relation);
                let slice = grounder.ground_relevant(&[QuerySeed::new(&seed)]).unwrap();
                let result = solve_ground(slice, SolverConfig::default()).unwrap();
                let context = format!("{name} {peer} {flavour} slice {seed}");
                assert_decodes_agree(&spec, &result, &symbols, &context);
            }
        }
    }
}

/// Peer `P` owns `R1`, `R2`; `Q` owns `S1`, `S2`; `P` trusts `Q` more, and
/// the referential DEC (3) of Section 3.1 needs a choice of witness.
fn referential_system() -> P2PSystem {
    let mut system = P2PSystem::new();
    let (p, q) = (PeerId::new("P"), PeerId::new("Q"));
    for peer in [&p, &q] {
        system.add_peer(peer.clone()).unwrap();
    }
    for (peer, rel) in [(&p, "R1"), (&p, "R2"), (&q, "S1"), (&q, "S2")] {
        system
            .add_relation(peer, RelationSchema::new(rel, &["x", "y"]))
            .unwrap();
    }
    system.insert(&p, "R1", Tuple::strs(["a", "b"])).unwrap();
    system.insert(&q, "S1", Tuple::strs(["c", "b"])).unwrap();
    system.insert(&q, "S2", Tuple::strs(["c", "e"])).unwrap();
    system.insert(&q, "S2", Tuple::strs(["c", "f"])).unwrap();
    let dec = constraints::builders::mixed_referential("sigma3", "R1", "S1", "R2", "S2").unwrap();
    system.add_dec(&p, &q, dec).unwrap();
    system.set_trust(&p, TrustLevel::Less, &q).unwrap();
    system
}

/// Example 4: `P` imports from `Q`, which imports from `C`.
fn transitive_network_system() -> P2PSystem {
    let mut system = P2PSystem::new();
    let (p, q, c) = (PeerId::new("P"), PeerId::new("Q"), PeerId::new("C"));
    for peer in [&p, &q, &c] {
        system.add_peer(peer.clone()).unwrap();
    }
    for (peer, rel) in [(&p, "R1"), (&p, "R2"), (&q, "S1"), (&q, "S2"), (&c, "U")] {
        system
            .add_relation(peer, RelationSchema::new(rel, &["x", "y"]))
            .unwrap();
    }
    system.insert(&p, "R1", Tuple::strs(["a", "b"])).unwrap();
    system.insert(&q, "S2", Tuple::strs(["c", "e"])).unwrap();
    system.insert(&q, "S2", Tuple::strs(["c", "f"])).unwrap();
    system.insert(&c, "U", Tuple::strs(["c", "b"])).unwrap();
    let pq = constraints::builders::mixed_referential("sigma_p_q", "R1", "S1", "R2", "S2").unwrap();
    let qc = constraints::builders::full_inclusion("sigma_q_c", "U", "S1", 2).unwrap();
    system.add_dec(&p, &q, pq).unwrap();
    system.add_dec(&q, &c, qc).unwrap();
    system.set_trust(&p, TrustLevel::Less, &q).unwrap();
    system.set_trust(&q, TrustLevel::Less, &c).unwrap();
    system
}

/// Small generated systems of the benchmark's three shapes.
fn generated_systems() -> Vec<(&'static str, P2PSystem)> {
    let star = WorkloadSpec {
        peers: 4,
        tuples_per_relation: 6,
        violations_per_dec: 1,
        topology: Topology::Star,
        trust_mix: TrustMix::Mixed,
        key_constraint_percent: 100,
        seed: 42,
    };
    let chain = WorkloadSpec {
        topology: Topology::Chain,
        trust_mix: TrustMix::AllLess,
        ..star
    };
    let wide = WorkloadSpec {
        peers: 3,
        tuples_per_relation: 2,
        trust_mix: TrustMix::AllSame,
        key_constraint_percent: 50,
        ..star
    };
    [("star", star), ("chain", chain), ("wide", wide)]
        .into_iter()
        .map(|(name, spec)| (name, generate(&spec).unwrap().system))
        .collect()
}

#[test]
fn paper_systems_decode_like_the_reference() {
    check_system("example1", &p2p_data_exchange::example1_system());
    check_system("referential", &referential_system());
    check_system("transitive_network", &transitive_network_system());
}

#[test]
fn generated_systems_decode_like_the_reference() {
    for (name, system) in generated_systems() {
        check_system(name, &system);
    }
}

#[test]
fn edited_models_decode_like_the_reference() {
    // Example 1 with integer tuples in P2's `R2`, which P1 imports.
    let mut system = p2p_data_exchange::example1_system();
    let p2 = PeerId::new("P2");
    system.insert(&p2, "R2", Tuple::ints([3, 4])).unwrap();
    let p1 = PeerId::new("P1");
    let symbols = store_symbols(&system);
    for (flavour, spec) in Spec::both(&system, &p1, &symbols) {
        let mut result = datalog::solve(spec.program(), SolverConfig::default()).unwrap();
        let first = result.answer_sets[0].clone();
        let r1 = spec.solution_predicate("R1");
        let solution: BTreeSet<&str> = ["R1", "R2", "R3"].into_iter().chain([&*r1]).collect();
        // An atom of a non-solution predicate the first model lacks: adding
        // it gives a second model that decodes to the same world.
        let aux = result
            .ground
            .atoms()
            .find(|(id, atom)| {
                !first.contains(id) && !atom.strong_neg && !solution.contains(&*atom.predicate)
            })
            .map(|(id, _)| id)
            .expect("a non-solution atom outside the first model");
        // A strongly negated solution atom, which names no tuple.
        let negated = result
            .ground
            .intern(GroundAtom::new(&r1, &["neg_x", "neg_y"]).strongly_negated());
        // A constant the store never saw.
        let constant = Value::str(format!("fresh_{flavour}"));
        assert!(symbols.lookup(&constant).is_none());
        let fresh = result
            .ground
            .intern(GroundAtom::new(&r1, &[&*constant.render(), "b"]));
        let with = |id| {
            let mut model = first.clone();
            let at = model.partition_point(|&a| a < id);
            model.insert(at, id);
            model
        };
        result.answer_sets = vec![
            first.clone(),
            with(aux),
            with(negated),
            with(fresh),
            Vec::new(),
        ];
        let context = format!("edited example1 P1 {flavour}");
        let worlds = assert_decodes_agree(&spec, &result, &symbols, &context);
        assert_eq!(worlds.len(), 3, "{context}: the duplicates collapse");
        assert!(worlds[0]["R1"].contains(&Tuple::ints([3, 4])), "{context}");
        let fresh_row = Tuple::new(vec![constant.clone(), Value::str("b")]);
        assert!(worlds[1]["R1"].contains(&fresh_row), "{context}");
        assert!(symbols.lookup(&constant).is_some());
        let empty = &worlds[2];
        assert_eq!(
            empty.keys().map(String::as_str).collect::<Vec<_>>(),
            ["R1", "R2", "R3"],
            "{context}: the empty world keeps every relevant relation"
        );
        assert!(empty.values().all(BTreeSet::is_empty), "{context}");
    }
}
