//! Id rows under MVCC. Every relation page of a published epoch carries its
//! tuples as the store's symbol ids, built once when the store builds the
//! page, and the ASP mechanisms read those rows instead of interning the
//! values again. A commit copies only the pages it touches and gives only
//! them new rows: a pinned epoch keeps its rows and its cold answers,
//! untouched pages share their rows with the epoch before, and the rows of
//! the new epoch are exactly the symbol table's ids of its values.

use p2p_data_exchange::relalg::database::GroundAtom;
use p2p_data_exchange::relalg::{Delta, SymbolTable};
use p2p_data_exchange::{
    example1_system, vars, Formula, PeerId, PeerStore, QueryEngine, Snapshot, Strategy, Tuple,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Every page's id rows, by peer and relation. Panics on a page that
/// carries none of `symbols`' ids.
fn rows(snapshot: &Snapshot, symbols: &SymbolTable) -> BTreeMap<(PeerId, String), Vec<u32>> {
    let mut out = BTreeMap::new();
    for peer in snapshot.topology().peer_ids() {
        for relation in snapshot.instance_of(peer).unwrap().relations() {
            let Cow::Borrowed(ids) = relation.symbol_ids(symbols) else {
                panic!("{peer}'s page {} carries no id rows", relation.name());
            };
            out.insert((peer.clone(), relation.name().to_string()), ids.to_vec());
        }
    }
    out
}

/// Where a page's id rows live, to tell shared rows from copied ones.
fn rows_at(snapshot: &Snapshot, symbols: &SymbolTable, peer: &str, relation: &str) -> *const u32 {
    let instance = snapshot.instance_of(&PeerId::new(peer)).unwrap();
    let page = instance.relation(relation).unwrap();
    page.symbol_ids(symbols).as_ptr()
}

/// Cold answers of every peer's scan under the ASP mechanisms, from an
/// engine that reads `store`.
fn cold_answers(store: Arc<dyn PeerStore>) -> Vec<BTreeSet<Tuple>> {
    let engine = QueryEngine::builder(store.topology().clone())
        .store(store)
        .build();
    let mut out = Vec::new();
    for strategy in [Strategy::Asp, Strategy::TransitiveAsp] {
        for (peer, relation) in [("P1", "R1"), ("P2", "R2"), ("P3", "R3")] {
            let query = Formula::atom(relation, vec!["X", "Y"]);
            let peer = PeerId::new(peer);
            let answers = engine.answer_with(strategy, &peer, &query, &vars(&["X", "Y"]));
            out.push(answers.unwrap().iter().cloned().collect());
        }
    }
    out
}

#[test]
fn a_commit_leaves_pinned_rows_alone_and_gives_new_pages_their_ids() {
    let engine = QueryEngine::builder(example1_system()).build();
    let pinned = engine.pin().unwrap();
    let symbols = pinned.symbols();
    let (rows_before, minted_before) = (rows(&pinned, &symbols), symbols.len());
    let answers_before = cold_answers(Arc::new(pinned.clone()));

    // One transaction: new constants into P1's R1, and a deletion from
    // P2's R2, a page the pin still shares.
    let insert = Delta::from_changes([GroundAtom::new("R1", Tuple::strs(["fresh", "value"]))], []);
    let delete = Delta::from_changes([], [GroundAtom::new("R2", Tuple::strs(["c", "d"]))]);
    let changes = BTreeMap::from([(PeerId::new("P1"), insert), (PeerId::new("P2"), delete)]);
    engine.commit(&changes).unwrap();
    assert_eq!(
        symbols.len(),
        minted_before + 2,
        "the commit minted its constants"
    );

    // The pinned epoch reads what it read before.
    assert_eq!(rows(&pinned, &symbols), rows_before);
    assert_eq!(cold_answers(Arc::new(pinned.clone())), answers_before);

    // The new epoch's rows are the table's ids of its values, row after
    // row; the copied pages got new rows, the untouched one shares its own.
    let current = engine.pin().unwrap();
    for ((peer, relation), ids) in rows(&current, &symbols) {
        let instance = current.instance_of(&peer).unwrap();
        let values = instance.relation(&relation).unwrap().iter();
        let interned: Vec<u32> = values
            .flat_map(|tuple| tuple.iter().map(|value| symbols.intern(value).id()))
            .collect();
        assert_eq!(ids, interned, "{peer}'s {relation}");
    }
    assert_eq!(
        symbols.len(),
        minted_before + 2,
        "reading the rows mints nothing"
    );
    for (peer, relation, shared) in [("P1", "R1", false), ("P2", "R2", false), ("P3", "R3", true)] {
        let (old, new) = (
            rows_at(&pinned, &symbols, peer, relation),
            rows_at(&current, &symbols, peer, relation),
        );
        assert_eq!(old == new, shared, "{peer}'s {relation}");
    }

    // A cold prepare at the new epoch answers like a fresh engine over the
    // new system.
    let fresh = engine.snapshot_system().unwrap();
    let fresh_answers = cold_answers(Arc::new(p2p_data_exchange::InProcessStore::new(fresh)));
    assert_eq!(cold_answers(Arc::new(current)), fresh_answers);
    engine.flush_cache();
    let live: Arc<dyn PeerStore> = Arc::clone(engine.store());
    assert_eq!(cold_answers(live), fresh_answers);
}
