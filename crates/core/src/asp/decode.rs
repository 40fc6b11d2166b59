//! Id-native decoding of answer sets into columnar solution worlds.
//!
//! Each answer set of a specification program stands for one solution of
//! the peer (Definition 3), and the peer consistent answers are those true
//! in every solution (Definition 5). [`decode_worlds`] turns the solver's
//! models — sets of atom ids of the solved [`GroundProgram`] — straight into
//! a [`WorldSet`] over the store's [`SymbolTable`]:
//!
//! * one table maps each atom id to its relation slot and its row of store
//!   symbol ids. An atom is decoded the first time some model holds it;
//!   atoms of other predicates and strongly negated atoms map to nothing;
//! * every distinct constant text is decoded to its typed [`Value`] by the
//!   spec's [`ValueDecoder`] and interned once;
//! * a model becomes a world by table lookups: rows are collected per
//!   relation, and [`WorldSet::from_id_rows`] sorts them by id,
//!   deduplicates them, keeps worlds with equal rows once, in model order,
//!   and splits the sorted rows into the core every world shares and each
//!   world's delta by merging — no full world is ever built as blocks.
//!
//! The string decode (`AnswerSets` plus the specs' `solution_databases`)
//! stays as the reference this module is checked against; both give the
//! same worlds.
//!
//! [`Value`]: relalg::Value

use crate::asp::encode::ValueDecoder;
use crate::Result;
use datalog::SolveResult;
use relalg::{SymbolTable, WorldSet};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// What one atom id contributes to a world.
#[derive(Clone)]
enum Decoded {
    /// Not yet held by any model.
    Unseen,
    /// No row: another predicate, or a strongly negated atom.
    Skip,
    /// A row of the `slot`-th relevant relation, as store symbol ids.
    Row(usize, Box<[u32]>),
}

/// Decode the models of `result` into the set of distinct worlds over the
/// `relevant` relations, interning constants into `symbols`. A relation's
/// tuples are the positive atoms of its `solution_predicate`; solution
/// predicates are distinct across relations. The set's core, and with it
/// every world, declares every relevant relation, empty or not. Fails when
/// an atom's argument count differs from its relation's arity.
pub(crate) fn decode_worlds(
    result: &SolveResult,
    relevant: &BTreeSet<String>,
    arities: &BTreeMap<String, usize>,
    solution_predicate: impl Fn(&str) -> String,
    decoder: &ValueDecoder,
    symbols: &Arc<SymbolTable>,
) -> Result<WorldSet> {
    let (ground, models) = (&result.ground, &result.answer_sets);
    let slots: HashMap<String, usize> = relevant
        .iter()
        .enumerate()
        .map(|(slot, relation)| (solution_predicate(relation), slot))
        .collect();
    let mut constants: HashMap<&str, u32> = HashMap::new();
    let mut table = vec![Decoded::Unseen; ground.atom_count()];
    for &id in models.iter().flatten() {
        if !matches!(table[id], Decoded::Unseen) {
            continue;
        }
        let atom = ground.atom(id);
        table[id] = match slots.get(atom.predicate.as_str()) {
            Some(&slot) if !atom.strong_neg => Decoded::Row(
                slot,
                atom.args
                    .iter()
                    .map(|arg| {
                        *constants
                            .entry(&**arg)
                            .or_insert_with(|| symbols.intern(&decoder.decode(arg)).id())
                    })
                    .collect(),
            ),
            _ => Decoded::Skip,
        };
    }
    let worlds = models.iter().map(|model| {
        let mut rows: Vec<Vec<&[u32]>> = vec![Vec::new(); relevant.len()];
        for &id in model {
            if let Decoded::Row(slot, row) = &table[id] {
                rows[*slot].push(&**row);
            }
        }
        rows
    });
    let relations: Vec<(&str, usize)> = relevant
        .iter()
        .map(|relation| {
            let arity = arities.get(relation).copied().unwrap_or(0);
            (relation.as_str(), arity)
        })
        .collect();
    Ok(WorldSet::from_id_rows(&relations, worlds, symbols)?)
}
