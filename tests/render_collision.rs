//! Two values that render alike, the integer `1` and the string `"1"`, are
//! one constant of the specification programs: the programs hold the
//! instances as facts over constant text (Section 4.2). These tests pin
//! what the ASP mechanisms answer when two peers hold the two forms under a
//! key-agreement DEC, whichever form the store interns first. The two rows
//! agree on their key as constants, so they conflict with nothing, and the
//! shared constant decodes to the smaller value, the integer.

use p2p_data_exchange::constraints::builders::key_agreement;
use p2p_data_exchange::relalg::query::Term;
use p2p_data_exchange::relalg::{RelationSchema, Value};
use p2p_data_exchange::{
    vars, Formula, P2PSystem, PeerId, QueryEngine, Strategy, TrustLevel, Tuple,
};
use std::collections::BTreeSet;

/// P1 owns `R1 = {(a, b), (k, one)}` and P2 owns `R2 = {(a, c), (k, other)}`,
/// where `one` and `other` are `1` and `"1"` in either order; P1 trusts P2
/// the same under `key_agreement("ka", "R1", "R2")`, so `(a, b)` and
/// `(a, c)` conflict.
fn system(one: Value, other: Value) -> P2PSystem {
    let (p1, p2) = (PeerId::new("P1"), PeerId::new("P2"));
    let mut sys = P2PSystem::new();
    for (peer, relation, value, clean) in [(&p1, "R1", one, "b"), (&p2, "R2", other, "c")] {
        sys.add_peer(peer.clone()).unwrap();
        sys.add_relation(peer, RelationSchema::new(relation, &["x", "y"]))
            .unwrap();
        sys.insert(peer, relation, Tuple::strs(["a", clean]))
            .unwrap();
        sys.insert(peer, relation, Tuple::new(vec![Value::str("k"), value]))
            .unwrap();
    }
    sys.add_dec(&p1, &p2, key_agreement("ka", "R1", "R2").unwrap())
        .unwrap();
    sys.set_trust(&p1, TrustLevel::Same, &p2).unwrap();
    sys
}

fn answers(
    engine: &QueryEngine,
    strategy: Strategy,
    peer: &str,
    query: Formula,
    free: &[&str],
) -> BTreeSet<Tuple> {
    let answers = engine
        .answer_with(strategy, &PeerId::new(peer), &query, &vars(free))
        .unwrap();
    answers.iter().cloned().collect()
}

#[test]
fn alike_values_are_one_constant_that_decodes_to_the_integer() {
    let (int, string) = (Value::int(1), Value::str("1"));
    let k_one = Tuple::new(vec![Value::str("k"), int.clone()]);
    for (one, other) in [(int.clone(), string.clone()), (string.clone(), int.clone())] {
        for strategy in [Strategy::Asp, Strategy::TransitiveAsp] {
            let engine = QueryEngine::builder(system(one.clone(), other.clone()))
                .strategy(strategy)
                .build();
            let context = format!("{strategy:?}, P1 holds {one:?}");
            // P1's own relation: (a, b) is repaired away in one solution,
            // the agreeing key survives in both.
            let scan = Formula::atom("R1", vec!["X", "Y"]);
            let got = answers(&engine, strategy, "P1", scan, &["X", "Y"]);
            assert_eq!(got, BTreeSet::from([k_one.clone()]), "{context}");
            // Bound to the key.
            let bound = Formula::atom_terms("R1", vec![Term::cnst("k"), Term::var("Y")]);
            let got = answers(&engine, strategy, "P1", bound, &["Y"]);
            assert_eq!(
                got,
                BTreeSet::from([Tuple::new(vec![int.clone()])]),
                "{context}"
            );
            // A query constant is a string: `"1"` is not the integer the
            // answer decodes to, so it matches nothing (the limitation the
            // encoding documents).
            let by_value = Formula::atom_terms("R1", vec![Term::var("X"), Term::cnst("1")]);
            let got = answers(&engine, strategy, "P1", by_value, &["X"]);
            assert_eq!(got, BTreeSet::new(), "{context}");
            // P2 has no DEC of its own: its instance, with the shared
            // constant decoded to the integer too.
            let other_scan = Formula::atom("R2", vec!["X", "Y"]);
            let got = answers(&engine, strategy, "P2", other_scan, &["X", "Y"]);
            assert_eq!(
                got,
                BTreeSet::from([Tuple::strs(["a", "c"]), k_one.clone()]),
                "{context}"
            );
        }
    }
}
