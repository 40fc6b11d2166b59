//! Columnar-plane equivalence: the engine, whose prepared worlds live only
//! as interned columnar id blocks, must answer exactly like the string-world
//! reference (`tests/support/string_worlds.rs`, which builds every world as
//! a string `Database` and intersects `QueryEvaluator` answers) — for all
//! four strategies, over the in-process store and the sharded store at
//! shard counts 1/2, pool sizes 1/4, and across live commits, on a plain
//! scan and on a negated query. The store's symbol table must be a
//! bijection on everything it has interned (`intern(resolve(id)) == id`),
//! and columnar worlds must decode back to the databases they came from.
//!
//! Like the sharding suite, the grids narrow through `PDES_SHARDS` /
//! `PDES_POOLS` so a CI matrix leg can exercise one cell.

#[path = "support/string_worlds.rs"]
mod string_worlds;

use p2p_data_exchange::{
    vars, ExecConfig, Formula, P2PSystem, PeerId, PeerStore, QueryEngine, ShardedStore, Strategy,
    Tuple,
};
use relalg::database::GroundAtom;
use relalg::{ColumnarDatabase, Delta, Symbol, SymbolTable};
use std::collections::BTreeSet;
use std::sync::Arc;
use string_worlds::reference_answers;
use workload::generator::GeneratedWorkload;
use workload::{generate, Topology, TrustMix, WorkloadSpec};

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
