//! Encoding of relational data as logic-program facts and back.
//!
//! The engine's path is id-native from the snapshot to the decode. Every
//! page of a pinned epoch carries its tuples as store symbol ids, interned
//! once when the store built the page ([`crate::store`]). [`fact_tables`]
//! copies those rows into [`FactTable`]s and is where canonicalisation
//! happens: a program sees a constant only as text, so each id becomes its
//! text class's ([`SymbolTable::canonicalize`]) and values that render
//! alike are one constant. The grounder reads the tables through
//! [`StoreConstants`], keying constants by id; the decode maps each
//! constant back through the store id it came from
//! ([`SymbolTable::smallest_alike`]). Text is looked up
//! ([`SymbolTable::lookup_text`]) only for constants the program itself
//! introduces.
//!
//! The public builders ([`crate::asp::annotated_program_with`],
//! [`crate::asp::transitive_program_with`]) stay the string reference:
//! their programs hold the instances as text facts ([`facts_for_system`],
//! values encoded as constant symbols via their rendering), and their
//! [`ValueDecoder`], built from the system's active domain, recovers the
//! typed values (integers vs. strings) of an answer set's constants.
//!
//! Limitation: values that render alike encode to one constant, which
//! every decode maps to the smaller value (the integer `1` over the string
//! `"1"`) whatever the interning order; answers over a system that holds
//! both forms can still confuse them.

use crate::system::P2PSystem;
use datalog::{Atom, ConstantIds, FactTable, Program, Rule, Term};
use relalg::{Database, Symbol, SymbolTable, Tuple, Value};
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

/// Decodes constant symbols back into the values of a system's domain:
/// the string reference's decoder (the engine decodes through the store's
/// [`SymbolTable::lookup_text`]). Clones share one map.
#[derive(Debug, Clone, Default)]
pub struct ValueDecoder {
    map: Arc<BTreeMap<String, Value>>,
}

impl ValueDecoder {
    /// Build a decoder from every value appearing in the system. A symbol
    /// two values render to decodes to the smaller one.
    pub fn for_system(system: &P2PSystem) -> Self {
        let mut map: BTreeMap<String, Value> = BTreeMap::new();
        for peer in system.peers() {
            for value in peer.instance.active_domain() {
                map.entry(encode_value(&value))
                    .and_modify(|kept| {
                        if value < *kept {
                            *kept = value.clone();
                        }
                    })
                    .or_insert(value);
            }
        }
        ValueDecoder { map: Arc::new(map) }
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

/// The rows of `instances` as fact tables of text-canonical store symbol
/// ids: one table per non-empty relation whose name `keep` accepts, named
/// after the relation (the fact predicates of the specification programs),
/// rows in the relation's order. A pinned page hands over its id rows; any
/// other page's values are interned ([`relalg::Relation::symbol_ids`]).
pub fn fact_tables<'d>(
    instances: impl IntoIterator<Item = &'d Database>,
    symbols: &SymbolTable,
    keep: impl Fn(&str) -> bool,
) -> Vec<FactTable> {
    let mut tables = Vec::new();
    let mut rows = Vec::new();
    for relation in instances.into_iter().flat_map(Database::relations) {
        if relation.is_empty() || !keep(relation.name()) {
            continue;
        }
        rows.clear();
        rows.extend_from_slice(&relation.symbol_ids(symbols));
        symbols.canonicalize(&mut rows);
        let mut table = FactTable::new(relation.name(), relation.arity());
        table.push_rows(&rows, relation.len());
        tables.push(table);
    }
    tables
}

/// The store's symbol table as the grounder's view of [`fact_tables`]' ids.
pub struct StoreConstants<'a>(pub &'a SymbolTable);

impl ConstantIds for StoreConstants<'_> {
    fn texts(&self, ids: &[u32], out: &mut Vec<Arc<str>>) {
        self.0.resolve_texts(ids, out);
    }

    fn find(&self, text: &str) -> Option<u32> {
        let mut id = [self.0.lookup_text(text)?.id()];
        self.0.canonicalize(&mut id);
        Some(id[0])
    }
}

/// The `(predicate, arity)` shape of every table [`fact_tables`] encodes
/// for `instances` with every relation kept, without encoding a row: what
/// [`datalog::RelevanceAnalysis::analyze_with_facts`] reads.
pub fn fact_shapes<'d>(
    instances: impl IntoIterator<Item = &'d Database>,
) -> impl Iterator<Item = (&'d str, usize)> {
    instances
        .into_iter()
        .flat_map(Database::relations)
        .filter(|relation| !relation.is_empty())
        .map(|relation| (relation.name(), relation.arity()))
}

/// The id → text function of [`fact_tables`]' tables: a store symbol's
/// shared rendered text ([`SymbolTable::resolve_text`]).
pub fn symbol_text(symbols: &SymbolTable) -> impl Fn(u32) -> Arc<str> + '_ {
    move |id| symbols.resolve_text(Symbol::from_id(id))
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

/// Emit the facts of every peer of the system over the original relation
/// names: the string reference's text encoding. With the store's symbol
/// table, constants alias its shared text ([`encode_value_shared`]).
pub fn facts_for_system(system: &P2PSystem, program: &mut Program, symbols: Option<&SymbolTable>) {
    for peer in system.peers() {
        for relation in peer.instance.relations() {
            for tuple in relation.iter() {
                let terms = tuple
                    .iter()
                    .map(|v| match symbols {
                        Some(symbols) => Term::Const(encode_value_shared(v, symbols)),
                        None => Term::cnst(encode_value(v)),
                    })
                    .collect();
                program.add_fact(Atom::from_terms(relation.name(), terms));
            }
        }
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
    use crate::system::{example1_system, PeerId};
    use relalg::RelationSchema;

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

    /// Every peer's instance.
    fn instances(sys: &P2PSystem) -> impl Iterator<Item = &Database> {
        sys.peers().map(|peer| &peer.instance)
    }

    /// A one-peer system whose `N` holds the integer 42.
    fn integer_system() -> P2PSystem {
        let mut sys = P2PSystem::new();
        let p = PeerId::new("P");
        sys.add_peer(p.clone()).unwrap();
        sys.add_relation(&p, RelationSchema::new("N", &["x"]))
            .unwrap();
        sys.insert(&p, "N", Tuple::ints([42])).unwrap();
        sys
    }

    #[test]
    fn integer_values_round_trip() {
        let sys = integer_system();
        // The string reference: text facts and the system's decoder.
        let decoder = ValueDecoder::for_system(&sys);
        assert_eq!(decoder.decode("42"), Value::int(42));
        // The id path: a fact table of store ids, read back as text and
        // decoded through the store's text index.
        let symbols = SymbolTable::new();
        let tables = fact_tables(instances(&sys), &symbols, |_| true);
        let text = symbol_text(&symbols);
        assert_eq!(&*text(tables[0].row(0)[0]), "42");
        let symbol = symbols.lookup_text("42").unwrap();
        assert_eq!(symbols.resolve(symbol), Value::int(42));
    }

    #[test]
    fn both_decodes_keep_the_smaller_of_two_values_with_one_text() {
        let mut sys = integer_system();
        let p = PeerId::new("P");
        sys.add_relation(&p, RelationSchema::new("S", &["x"]))
            .unwrap();
        sys.insert(&p, "S", Tuple::strs(["42"])).unwrap();
        assert_eq!(ValueDecoder::for_system(&sys).decode("42"), Value::int(42));
        let symbols = SymbolTable::new();
        symbols.intern(&Value::str("42"));
        fact_tables(instances(&sys), &symbols, |_| true);
        let symbol = symbols.lookup_text("42").unwrap();
        assert_eq!(symbols.resolve(symbol), Value::int(42));
    }

    #[test]
    fn facts_cover_every_tuple() {
        let sys = example1_system();
        let symbols = SymbolTable::new();
        for shared in [None, Some(&symbols)] {
            let mut program = Program::new();
            facts_for_system(&sys, &mut program, shared);
            assert_eq!(program.len(), 6);
            let text = program.to_string();
            assert!(text.contains("R1(a, b)."));
            assert!(text.contains("R3(s, u)."));
        }
        // The id tables hold the same rows, one table per relation, and
        // the shapes name them without encoding a row.
        let tables = fact_tables(instances(&sys), &symbols, |_| true);
        assert_eq!(tables.iter().map(FactTable::len).sum::<usize>(), 6);
        let shapes: Vec<(&str, usize)> = fact_shapes(instances(&sys)).collect();
        assert_eq!(
            shapes,
            tables
                .iter()
                .map(|t| (t.predicate(), t.arity()))
                .collect::<Vec<_>>()
        );
        let text = symbol_text(&symbols);
        let r3 = tables.iter().find(|t| t.predicate() == "R3").unwrap();
        let rows: Vec<Vec<Arc<str>>> = r3
            .rows()
            .map(|row| row.iter().map(|&id| text(id)).collect())
            .collect();
        assert!(rows.contains(&vec![Arc::from("s"), Arc::from("u")]));
        // Only the kept relations are encoded.
        let kept = fact_tables(instances(&sys), &symbols, |relation| relation == "R1");
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].predicate(), "R1");
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
