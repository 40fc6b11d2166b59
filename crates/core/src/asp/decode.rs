//! Id-native decoding of answer sets into columnar solution worlds.
//!
//! Each answer set of a specification program stands for one solution of
//! the peer (Definition 3), and the peer consistent answers are those true
//! in every solution (Definition 5). [`decode_worlds`] turns the solver's
//! models — sets of atom ids of the solved [`GroundProgram`] — straight into
//! a [`WorldSet`] over the store's [`SymbolTable`]:
//!
//! * the solved program is id-native: each atom is a predicate id plus
//!   constant ids over the grounding's symbol table. Each predicate id is
//!   mapped to its relation slot once — predicates of other relations and
//!   strongly negated ones map to nothing — and each constant id to a store
//!   symbol once, the first time a row needs it, by looking its text up in
//!   the store's text index ([`SymbolTable::lookup_text`]). The store
//!   interns every value it holds, commits included, so a typed value
//!   decodes to itself; a text the store never interned (a constant the
//!   program introduced) becomes a string value and is interned;
//! * an atom's row of store symbol ids is built the first time some model
//!   holds it, into one flat buffer;
//! * a model becomes a world by table lookups: rows are collected per
//!   relation, and [`WorldSet::from_id_rows`] sorts them by id,
//!   deduplicates them, keeps worlds with equal rows once, in model order,
//!   and splits the sorted rows into the core every world shares and each
//!   world's delta by merging — no full world is ever built as blocks.
//!
//! The string decode (`AnswerSets` plus the public specs'
//! `solution_databases` and their [`ValueDecoder`]) stays as the reference
//! this module is checked against; both give the same worlds.
//!
//! [`GroundProgram`]: datalog::GroundProgram
//! [`ValueDecoder`]: crate::asp::encode::ValueDecoder

use crate::Result;
use datalog::SolveResult;
use relalg::{SymbolTable, Value, WorldSet};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// "Not decoded yet" in the per-atom and per-constant tables.
const UNSEEN: u32 = u32::MAX;
/// "No row": an atom of another predicate, or a strongly negated one.
const SKIP: u32 = u32::MAX - 1;

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
    symbols: &Arc<SymbolTable>,
) -> Result<WorldSet> {
    let (ground, models) = (&result.ground, &result.answer_sets);
    let slots: HashMap<String, u32> = relevant
        .iter()
        .enumerate()
        .map(|(slot, relation)| (solution_predicate(relation), slot as u32))
        .collect();
    // Per predicate id: the relation slot its positive atoms fill.
    let slot_of: Vec<u32> = (0..ground.predicate_count() as u32)
        .map(|pred| match ground.predicate(pred) {
            (name, false) => slots.get(name).copied().unwrap_or(SKIP),
            (_, true) => SKIP,
        })
        .collect();
    // Per constant id: its store symbol, decoded the first time a row
    // holds it.
    let mut symbol_of = vec![UNSEEN; ground.constant_count()];
    // Per atom id: its slot and the end of its row in `rows`, filled the
    // first time a model holds it.
    let mut row_of = vec![(UNSEEN, 0u32); ground.atom_count()];
    let mut ids: Vec<u32> = Vec::new();
    for &id in models.iter().flatten() {
        if row_of[id].0 != UNSEEN {
            continue;
        }
        let slot = slot_of[ground.atom_predicate(id) as usize];
        if slot != SKIP {
            for &c in ground.atom_args(id) {
                let symbol = &mut symbol_of[c as usize];
                if *symbol == UNSEEN {
                    let text = ground.constant(c);
                    *symbol = symbols
                        .lookup_text(text)
                        .unwrap_or_else(|| symbols.intern(&Value::Str(Arc::clone(text))))
                        .id();
                }
                ids.push(*symbol);
            }
        }
        row_of[id] = (slot, ids.len() as u32);
    }
    let worlds = models.iter().map(|model| {
        let mut rows: Vec<Vec<&[u32]>> = vec![Vec::new(); relevant.len()];
        for &id in model {
            let (slot, end) = row_of[id];
            if slot != SKIP {
                let start = end as usize - ground.atom_args(id).len();
                rows[slot as usize].push(&ids[start..end as usize]);
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
