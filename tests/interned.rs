//! Columnar-plane equivalence: the engine, whose prepared worlds live only
//! as interned columnar id blocks, must answer exactly like the string-world
//! reference (`pdes_bench::reference`, which builds every world as
//! a string `Database` and intersects `QueryEvaluator` answers) — for all
//! four strategies, over the in-process store and the sharded store at
//! shard counts 1/2, pool sizes 1/4, and across live commits, on a plain
//! scan and on a negated query. The store's symbol table must be a
//! bijection on everything it has interned (`intern(resolve(id)) == id`),
//! and columnar worlds must decode back to the databases they came from.
//!
//! Like the sharding suite, the grids narrow through `PDES_SHARDS` /
//! `PDES_POOLS` so a CI matrix leg can exercise one cell.

use p2p_data_exchange::{
    vars, ExecConfig, Formula, P2PSystem, PeerId, PeerStore, QueryEngine, ShardedStore, Strategy,
    Tuple,
};
use pdes_bench::reference::reference_answers;
use relalg::database::GroundAtom;
use relalg::{ColumnarDatabase, Delta, Symbol, SymbolTable};
use std::collections::BTreeSet;
use std::sync::Arc;
use workload::generator::GeneratedWorkload;
use workload::{generate, generate_updates, Topology, TrustMix, UpdateSpec, WorkloadSpec};

const ALL_STRATEGIES: [Strategy; 4] = [
    Strategy::Naive,
    Strategy::Rewriting,
    Strategy::Asp,
    Strategy::TransitiveAsp,
];

fn shard_counts() -> Vec<usize> {
    matrix_from_env("PDES_SHARDS", &[1, 2])
}

fn pool_sizes() -> Vec<usize> {
    matrix_from_env("PDES_POOLS", &[1, 4])
}

fn matrix_from_env(var: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(var) {
        Ok(list) => list
            .split(',')
            .map(|n| n.trim().parse().expect("matrix entries are integers"))
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// The generated workloads the equivalence runs over: a two-peer chain with
/// conflicts and a four-peer star (different topologies exercise different
/// DEC shapes in the specification programs).
fn workloads() -> Vec<GeneratedWorkload> {
    vec![
        generate(&WorkloadSpec {
            peers: 2,
            tuples_per_relation: 8,
            violations_per_dec: 2,
            trust_mix: TrustMix::AllLess,
            ..WorkloadSpec::default()
        })
        .expect("valid chain spec"),
        generate(&WorkloadSpec {
            peers: 4,
            tuples_per_relation: 5,
            violations_per_dec: 1,
            trust_mix: TrustMix::AllLess,
            topology: Topology::Star,
            ..WorkloadSpec::default()
        })
        .expect("valid star spec"),
    ]
}

/// `R(X, Y) ∧ ¬R(Y, X)`: safe negation, answered by the columnar
/// anti-join on the naive strategy and refused by the others.
fn negated(relation: &str) -> Formula {
    Formula::and(vec![
        Formula::atom(relation, vec!["X", "Y"]),
        Formula::not(Formula::atom(relation, vec!["Y", "X"])),
    ])
}

/// Every peer's canonical `R(X, Y)` query over its first relation, plus its
/// negated variant.
fn peer_queries(system: &P2PSystem) -> Vec<(PeerId, Formula)> {
    system
        .peers()
        .flat_map(|p| {
            let relation = p
                .schema
                .relation_names()
                .next()
                .expect("every peer owns one relation");
            [
                (p.id.clone(), Formula::atom(relation, vec!["X", "Y"])),
                (p.id.clone(), negated(relation)),
            ]
        })
        .collect()
}

/// Engine answers for every peer query, with unsupported combinations
/// recorded as `None` so the engine and the reference must fail alike.
fn all_answers(
    engine: &QueryEngine,
    strategy: Strategy,
    queries: &[(PeerId, Formula)],
) -> Vec<Option<BTreeSet<Tuple>>> {
    let fv = vars(&["X", "Y"]);
    queries
        .iter()
        .map(|(peer, query)| {
            engine
                .answer_with(strategy, peer, query, &fv)
                .ok()
                .map(|a| a.tuples)
        })
        .collect()
}

/// The string-world reference answers for every peer query over `system`.
fn reference(
    system: &P2PSystem,
    strategy: Strategy,
    queries: &[(PeerId, Formula)],
) -> Vec<Option<BTreeSet<Tuple>>> {
    let fv = vars(&["X", "Y"]);
    queries
        .iter()
        .map(|(peer, query)| reference_answers(system, strategy, peer, query, &fv))
        .collect()
}

fn engine_for(system: &P2PSystem, strategy: Strategy) -> QueryEngine {
    QueryEngine::builder(system.clone())
        .strategy(strategy)
        .build()
}

#[test]
fn interned_answers_match_the_legacy_string_path() {
    for w in workloads() {
        let queries = peer_queries(&w.system);
        for strategy in ALL_STRATEGIES {
            let engine = engine_for(&w.system, strategy);
            let want = reference(&w.system, strategy, &queries);
            assert!(
                want.iter().any(Option::is_some),
                "{strategy:?} answers something"
            );
            assert_eq!(
                all_answers(&engine, strategy, &queries),
                want,
                "{strategy:?} columnar answers diverged from the string reference"
            );
        }
    }
}

#[test]
fn interned_answers_match_legacy_across_live_commits() {
    for w in workloads() {
        let queries = peer_queries(&w.system);
        for strategy in ALL_STRATEGIES {
            let engine = engine_for(&w.system, strategy);
            let mut system = w.system.clone();
            // Warm the engine, then interleave commits and warm reads so
            // patched/repaired artifacts are compared too, with constants
            // the store has never seen before.
            let _ = all_answers(&engine, strategy, &queries);
            let peers: Vec<PeerId> = w.system.peer_ids().cloned().collect();
            for round in 0..4 {
                let peer = peers[round % peers.len()].clone();
                let relation = w
                    .system
                    .peer(&peer)
                    .expect("peer exists")
                    .schema
                    .relation_names()
                    .next()
                    .expect("one relation per peer")
                    .to_string();
                let delta = Delta::from_changes(
                    [GroundAtom::new(
                        relation,
                        Tuple::strs([format!("fresh_k_{round}").as_str(), "fresh_v"]),
                    )],
                    [],
                );
                engine.commit_delta(&peer, &delta).expect("commit");
                system.apply_delta(&peer, &delta).expect("apply");
                assert_eq!(
                    all_answers(&engine, strategy, &queries),
                    reference(&system, strategy, &queries),
                    "{strategy:?} diverged after commit {round}"
                );
            }
        }
    }
}

#[test]
fn interned_answers_match_legacy_over_the_sharded_store() {
    for w in workloads() {
        let queries = peer_queries(&w.system);
        for strategy in ALL_STRATEGIES {
            let want = reference(&w.system, strategy, &queries);
            for shards in shard_counts() {
                for pool in pool_sizes() {
                    let store = Arc::new(
                        ShardedStore::builder(w.system.clone())
                            .shards(shards)
                            .exec(ExecConfig::with_workers(pool))
                            .build(),
                    );
                    let engine = QueryEngine::builder(w.system.clone())
                        .store(store as Arc<dyn PeerStore>)
                        .strategy(strategy)
                        .build();
                    assert_eq!(
                        all_answers(&engine, strategy, &queries),
                        want,
                        "{strategy:?} sharded answers diverged from the string \
                         reference at shards={shards} pool={pool}"
                    );
                }
            }
        }
    }
}

#[test]
fn symbol_tables_round_trip_over_generated_workloads() {
    for w in workloads() {
        // The store's table covers the system: peer names, relation and
        // attribute names, every constant.
        let engine = QueryEngine::builder(w.system.clone()).build();
        let symbols = engine.store().symbols();
        assert!(!symbols.is_empty(), "the store interned the workload");
        for id in 0..symbols.len() as u32 {
            let symbol = Symbol::from_id(id);
            let value = symbols.resolve(symbol);
            assert_eq!(
                symbols.intern(&value),
                symbol,
                "intern(resolve({id})) must return the same symbol"
            );
            // Rendered text is memoized per symbol: two resolutions alias
            // one allocation.
            assert!(Arc::ptr_eq(
                &symbols.resolve_text(symbol),
                &symbols.resolve_text(symbol)
            ));
        }
        // Commits extend the bijection without disturbing existing ids.
        let before = symbols.len();
        let peer = w.queried_peer.clone();
        let relation = w
            .system
            .peer(&peer)
            .expect("peer exists")
            .schema
            .relation_names()
            .next()
            .expect("one relation per peer")
            .to_string();
        let delta = Delta::from_changes(
            [GroundAtom::new(
                relation,
                Tuple::strs(["roundtrip_key", "roundtrip_value"]),
            )],
            [],
        );
        engine.commit_delta(&peer, &delta).expect("commit");
        assert!(symbols.len() > before, "the commit interned new constants");
        for id in 0..symbols.len() as u32 {
            let symbol = Symbol::from_id(id);
            assert_eq!(symbols.intern(&symbols.resolve(symbol)), symbol);
        }
    }
    // Columnar worlds decode back to the databases they were built from:
    // same relations, arities and tuples.
    for w in workloads() {
        let symbols = Arc::new(SymbolTable::new());
        for peer in w.system.peers() {
            let columnar = ColumnarDatabase::from_database(&peer.instance, &symbols);
            let back = columnar.to_database();
            assert_eq!(back.ground_atoms(), peer.instance.ground_atoms());
            for relation in peer.instance.relations() {
                let decoded = back.relation(relation.name()).expect("relation kept");
                assert_eq!(decoded.arity(), relation.arity());
            }
            assert_eq!(back.relation_count(), peer.instance.relation_count());
        }
    }
    // A fresh table round-trips arbitrary values, independent of any store.
    let table = SymbolTable::new();
    for value in [
        relalg::Value::str("plain"),
        relalg::Value::str(""),
        relalg::Value::int(0),
        relalg::Value::int(-42),
        relalg::Value::Bool(true),
        relalg::Value::Null,
    ] {
        let symbol = table.intern(&value);
        assert_eq!(table.resolve(symbol), value);
        assert_eq!(table.intern(&table.resolve(symbol)), symbol);
    }
}

/// The rewriting oracle's queries over `relation`: a scan, a bound constant
/// the instance holds, one the store never minted, a projection and a
/// self-join. Their rewritings carry guarded universals, nested negation
/// and (for the self-join) `∧` over `∨`.
fn rewriting_queries(relation: &str, key: &str) -> Vec<(Formula, Vec<String>)> {
    use relalg::query::Term;
    let scan = Formula::atom(relation, vec!["X", "Y"]);
    let bound = |k: &str| Formula::atom_terms(relation, vec![Term::cnst(k), Term::var("Y")]);
    vec![
        (scan.clone(), vars(&["X", "Y"])),
        (bound(key), vars(&["Y"])),
        (bound("never_minted_key"), vars(&["Y"])),
        (Formula::exists(vec!["Y"], scan.clone()), vars(&["X"])),
        (
            Formula::and(vec![scan, Formula::atom(relation, vec!["X", "Z"])]),
            vars(&["X", "Y", "Z"]),
        ),
    ]
}

/// Assert the engine's rewriting answers equal the string reference's
/// (`rewrite_query` evaluated by `QueryEvaluator` over the string global
/// instance) for every query, and that the reference answers something.
fn assert_rewriting_matches(
    engine: &QueryEngine,
    system: &P2PSystem,
    peer: &PeerId,
    queries: &[(Formula, Vec<String>)],
    context: &str,
) {
    for (query, fv) in queries {
        let want = reference_answers(system, Strategy::Rewriting, peer, query, fv)
            .unwrap_or_else(|| panic!("{context}: the reference rewrites {query}"));
        let got = engine
            .answer_with(Strategy::Rewriting, peer, query, fv)
            .unwrap_or_else(|e| panic!("{context}: the engine rewrites {query}: {e}"));
        assert_eq!(got.tuples, want, "{context}: {query}");
    }
    let scan = &queries[0];
    assert!(
        !reference_answers(system, Strategy::Rewriting, peer, &scan.0, &scan.1)
            .expect("rewritable")
            .is_empty(),
        "{context}: the scan answers something"
    );
}

/// The same-trust key-agreement workload `Auto` answers by rewriting.
fn keyed_workload() -> GeneratedWorkload {
    generate(&WorkloadSpec {
        peers: 2,
        tuples_per_relation: 8,
        violations_per_dec: 2,
        trust_mix: TrustMix::AllSame,
        key_constraint_percent: 100,
        ..WorkloadSpec::default()
    })
    .expect("valid keyed spec")
}

#[test]
fn rewriting_matches_the_string_reference_with_imports_and_conflicts() {
    // Example 1: P1 imports R2 (more trusted) and conflicts with R3 (same
    // trust), so its rewriting is the paper's guarded universal.
    let system = p2p_data_exchange::example1_system();
    let engine = engine_for(&system, Strategy::Rewriting);
    let p1 = PeerId::new("P1");
    assert_rewriting_matches(
        &engine,
        &system,
        &p1,
        &rewriting_queries("R1", "a"),
        "example 1",
    );
    // The generator's same-trust key-agreement shape.
    let w = keyed_workload();
    let engine = engine_for(&w.system, Strategy::Rewriting);
    for peer in w.system.peer_ids() {
        let index = &peer.name()[1..];
        assert_rewriting_matches(
            &engine,
            &w.system,
            peer,
            &rewriting_queries(&format!("T{index}"), &format!("k_{index}_0")),
            "keyed workload",
        );
    }
}

#[test]
fn rewriting_matches_the_string_reference_across_commits() {
    // A seeded stream of commits maintains the engine's interned global
    // instance (decode, apply, re-intern); after each one the rewriting
    // must still answer like the string reference on the patched system.
    // The stream deletes P1's base tuples and inserts fresh keys; two more
    // commits insert into P0's keys on both sides of the key agreement.
    let w = keyed_workload();
    let mut batches: Vec<(PeerId, Delta)> = generate_updates(
        &w,
        &UpdateSpec {
            batches: 6,
            batch_size: 2,
            insert_percent: 50,
            seed: 11,
            ..UpdateSpec::default()
        },
    )
    .expect("valid update spec")
    .into_iter()
    .map(|batch| (batch.peer, batch.delta))
    .collect();
    for (peer, relation) in [("P1", "T1"), ("P0", "T0")] {
        batches.push((
            PeerId::new(peer),
            Delta::from_changes(
                [GroundAtom::new(
                    relation,
                    Tuple::strs(["k_0_1", "fresh_value"]),
                )],
                [],
            ),
        ));
    }
    let engine = engine_for(&w.system, Strategy::Rewriting);
    let mut system = w.system.clone();
    let p0 = PeerId::new("P0");
    let queries = rewriting_queries("T0", "k_0_1");
    assert_rewriting_matches(&engine, &system, &p0, &queries, "before commits");
    for (round, (peer, delta)) in batches.iter().enumerate() {
        engine.commit_delta(peer, delta).expect("commit");
        system.apply_delta(peer, delta).expect("apply");
        assert_rewriting_matches(
            &engine,
            &system,
            &p0,
            &queries,
            &format!("after commit {round}"),
        );
    }
}
