//! Encoding of relational data as logic-program facts and back.
//!
//! Values are encoded as constant symbols via their textual rendering and
//! decoded back through a [`ValueDecoder`] built from the system's active
//! domain, so that the original typed values (integers vs. strings) are
//! recovered.
//!
//! Limitation: two distinct values that render identically (the integer
//! `1` and the string `"1"`) encode to the same constant, and the decoder
//! maps that constant back to whichever of the two it met first. Answers
//! over a system that holds both forms can therefore confuse them. The
//! workloads and examples in this repository never mix the two forms
//! within one system.

use crate::system::P2PSystem;
use datalog::{Atom, Program, Rule, Term};
use relalg::{Database, SymbolTable, Tuple, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Encode a value as a constant symbol.
pub fn encode_value(value: &Value) -> String {
    value.render().to_string()
}

/// Encode a tuple as a vector of constant terms.
pub fn encode_tuple(tuple: &Tuple) -> Vec<Term> {
    tuple.iter().map(|v| Term::cnst(encode_value(v))).collect()
}

/// Encode a value as a constant symbol sharing the store's interned text:
/// every occurrence of an already-interned constant aliases one `Arc<str>`
/// ([`SymbolTable::resolve_text`]) instead of re-allocating its rendering
/// per tuple occurrence. Values the table has never seen (program-introduced
/// constants) fall back to a fresh allocation.
pub fn encode_value_shared(value: &Value, symbols: &SymbolTable) -> Arc<str> {
    match symbols.lookup(value) {
        Some(symbol) => symbols.resolve_text(symbol),
        None => Arc::from(encode_value(value).as_str()),
    }
}

/// [`encode_tuple`] through the shared interned text of
/// [`encode_value_shared`].
pub fn encode_tuple_shared(tuple: &Tuple, symbols: &SymbolTable) -> Vec<Term> {
    tuple
        .iter()
        .map(|v| Term::Const(encode_value_shared(v, symbols)))
        .collect()
}

/// Decodes constant symbols back into the values of a system's domain.
/// Clones share one map until one of them learns a new constant.
#[derive(Debug, Clone, Default)]
pub struct ValueDecoder {
    map: Arc<BTreeMap<String, Value>>,
}

impl ValueDecoder {
    /// Build a decoder from every value appearing in the system.
    pub fn for_system(system: &P2PSystem) -> Self {
        let mut map = BTreeMap::new();
        for peer in system.peers() {
            for value in peer.instance.active_domain() {
                map.entry(encode_value(&value)).or_insert(value);
            }
        }
        ValueDecoder { map: Arc::new(map) }
    }

    /// Build a decoder from a single database.
    pub fn for_database(db: &Database) -> Self {
        let mut map = BTreeMap::new();
        for value in db.active_domain() {
            map.entry(encode_value(&value)).or_insert(value);
        }
        ValueDecoder { map: Arc::new(map) }
    }

    /// Add the constants of `values` the decoder does not know yet, so a
    /// value first seen after the decoder was built (one a commit
    /// inserted) decodes to itself rather than to a string. A constant
    /// already known keeps its value, and a decoder that learns nothing
    /// new keeps sharing its map.
    pub(crate) fn learn<'v>(&mut self, values: impl IntoIterator<Item = &'v Value>) {
        for value in values {
            let symbol = encode_value(value);
            if !self.map.contains_key(&symbol) {
                Arc::make_mut(&mut self.map).insert(symbol, value.clone());
            }
        }
    }

    /// Decode a symbol; unknown symbols become string values (they can only
    /// arise from constants introduced by the program itself).
    pub fn decode(&self, symbol: &str) -> Value {
        self.map
            .get(symbol)
            .cloned()
            .unwrap_or_else(|| Value::str(symbol))
    }

    /// Decode a full argument vector into a tuple.
    pub fn decode_tuple<S: AsRef<str>>(&self, args: &[S]) -> Tuple {
        Tuple::new(args.iter().map(|a| self.decode(a.as_ref())).collect())
    }
}

/// Positional variable terms `X0 … X{n-1}`.
pub fn positional_vars(arity: usize) -> Vec<Term> {
    (0..arity).map(|i| Term::var(format!("X{i}"))).collect()
}

/// Annotation suffixes used by the annotated specification programs
/// (Section 4.2 / appendix): the names mirror the paper's annotation
/// constants.
pub mod ann {
    /// Original ("true in the database") copy.
    pub const TD: &str = "td";
    /// Advised insertion.
    pub const TA: &str = "ta";
    /// Advised deletion.
    pub const FA: &str = "fa";
    /// True originally or inserted (the paper's `t*`).
    pub const TS: &str = "ts";
    /// True in the solution (the paper's `t**` / `tss`).
    pub const TSS: &str = "tss";
}

/// The predicate name carrying annotation `ann` for `relation` in the
/// specification program generated for `peer`.
pub fn annotated_predicate(peer: &str, relation: &str, ann: &str) -> String {
    format!("{peer}__{relation}__{ann}")
}

/// The answer predicate used when evaluating a query against a specification
/// program.
pub const ANSWER_PREDICATE: &str = "query_answer";

/// Emit every tuple of a database as facts over the original relation names.
pub fn facts_for_database(db: &Database, program: &mut Program) {
    for relation in db.relations() {
        for tuple in relation.iter() {
            program.add_fact(Atom::from_terms(relation.name(), encode_tuple(tuple)));
        }
    }
}

/// [`facts_for_database`] with constant terms aliased through the store's
/// symbol table (the interned data plane's fact encoding).
pub fn facts_for_database_shared(db: &Database, program: &mut Program, symbols: &SymbolTable) {
    for relation in db.relations() {
        for tuple in relation.iter() {
            program.add_fact(Atom::from_terms(
                relation.name(),
                encode_tuple_shared(tuple, symbols),
            ));
        }
    }
}

/// Emit the facts of every peer of the system.
pub fn facts_for_system(system: &P2PSystem, program: &mut Program) {
    for peer in system.peers() {
        facts_for_database(&peer.instance, program);
    }
}

/// [`facts_for_system`] with constant terms aliased through the store's
/// symbol table; see [`encode_value_shared`].
pub fn facts_for_system_shared(system: &P2PSystem, program: &mut Program, symbols: &SymbolTable) {
    for peer in system.peers() {
        facts_for_database_shared(&peer.instance, program, symbols);
    }
}

/// [`facts_for_system`], or [`facts_for_system_shared`] when the store's
/// symbol table is given.
pub(crate) fn facts_for_system_with(
    system: &P2PSystem,
    program: &mut Program,
    symbols: Option<&SymbolTable>,
) {
    match symbols {
        Some(symbols) => facts_for_system_shared(system, program, symbols),
        None => facts_for_system(system, program),
    }
}

/// Build a rule `head ← relation(x̄)` copying a material relation into an
/// annotated predicate.
pub fn copy_rule(head_predicate: &str, relation: &str, arity: usize) -> Rule {
    let vars = positional_vars(arity);
    Rule::new(
        vec![Atom::from_terms(head_predicate, vars.clone())],
        vec![datalog::BodyItem::Pos(Atom::from_terms(relation, vars))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::example1_system;

    #[test]
    fn encode_and_decode_round_trip() {
        let sys = example1_system();
        let decoder = ValueDecoder::for_system(&sys);
        assert_eq!(decoder.decode("a"), Value::str("a"));
        assert_eq!(decoder.decode("unseen"), Value::str("unseen"));
        let t = Tuple::strs(["a", "b"]);
        let encoded = encode_tuple(&t);
        assert_eq!(encoded.len(), 2);
        let decoded = decoder.decode_tuple(&["a", "b"]);
        assert_eq!(decoded, t);
    }

    #[test]
    fn integer_values_round_trip() {
        let mut db = Database::new();
        db.add_relation(relalg::Relation::new(relalg::RelationSchema::new(
            "N",
            &["x"],
        )));
        db.insert("N", Tuple::ints([42])).unwrap();
        let decoder = ValueDecoder::for_database(&db);
        assert_eq!(decoder.decode("42"), Value::int(42));
    }

    #[test]
    fn learned_values_decode_typed_and_keep_known_constants() {
        let mut decoder = ValueDecoder::for_system(&example1_system());
        assert_eq!(decoder.decode("7"), Value::str("7"));
        decoder.learn(&[Value::int(7), Value::str("a"), Value::int(7)]);
        assert_eq!(decoder.decode("7"), Value::int(7));
        assert_eq!(decoder.decode("a"), Value::str("a"));
    }

    #[test]
    fn facts_cover_every_tuple() {
        let sys = example1_system();
        let mut program = Program::new();
        facts_for_system(&sys, &mut program);
        assert_eq!(program.len(), 6);
        let text = program.to_string();
        assert!(text.contains("R1(a, b)."));
        assert!(text.contains("R3(s, u)."));
    }

    #[test]
    fn annotated_predicate_naming() {
        assert_eq!(annotated_predicate("P1", "R1", ann::TA), "P1__R1__ta");
    }

    #[test]
    fn copy_rule_shape() {
        let rule = copy_rule("P1__R1__td", "R1", 2);
        assert_eq!(rule.to_string(), "P1__R1__td(X0, X1) :- R1(X0, X1).");
    }
}
