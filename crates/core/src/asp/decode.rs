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
//!   symbol once: through the store id a fresh grounding reports it came
//!   from ([`SymbolTable::smallest_alike`]), or else, the first time a row
//!   needs it, through its text ([`SymbolTable::lookup_text`]). The store
//!   interns every value it holds, commits included, so a typed value
//!   decodes to itself; a text the store never interned (a constant the
//!   program introduced) becomes a string value and is interned;
//! * an atom's row of store symbol ids is built the first time some model
//!   holds it, into one flat buffer;
//! * the solver's atom ids already name the rows: grounding constants are
//!   unique by text and each text has one store symbol, so within a
//!   relation atom → row is injective (checked by a `debug_assert!`).
//!   Each model is therefore projected onto its row atoms — sorted ids,
//!   since models are sorted — and models with equal projections are one
//!   world, kept once, in model order;
//! * the core is the atoms every distinct world holds and each world's
//!   delta the rest of its atoms; a single world is all core. Only then do
//!   the atoms become rows, and [`WorldSet::from_split`] sorts each part's
//!   rows once. No world's rows are sorted on their own, no world is
//!   hashed, and no full world is ever built as blocks.
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
/// `relevant` relations, interning constants into `symbols`; `origin` maps
/// a constant to the store id it came from (empty when unknown). A
/// relation's tuples are the positive atoms of its `solution_predicate`;
/// solution predicates are distinct across relations. The set's core, and
/// with it every world, declares every relevant relation, empty or not.
/// Fails when an atom's argument count differs from its relation's arity.
pub(crate) fn decode_worlds(
    result: &SolveResult,
    relevant: &BTreeSet<String>,
    arities: &BTreeMap<String, usize>,
    solution_predicate: impl Fn(&str) -> String,
    origin: &[Option<u32>],
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
    // Per constant id: its store symbol, known from its origin or decoded
    // the first time a row holds it.
    let mut symbol_of: Vec<u32> = (0..ground.constant_count())
        .map(|c| origin.get(c).copied().flatten().unwrap_or(UNSEEN))
        .collect();
    symbols.smallest_alike(symbol_of.iter_mut().filter(|s| **s != UNSEEN));
    let mut symbol = |c: u32| {
        let symbol = &mut symbol_of[c as usize];
        if *symbol == UNSEEN {
            let text = ground.constant(c);
            *symbol = symbols
                .lookup_text(text)
                .unwrap_or_else(|| symbols.intern(&Value::Str(Arc::clone(text))))
                .id();
        }
        *symbol
    };
    // Per atom id: its slot and the end of its row in `ids`, filled the
    // first time a model holds it; and each model projected onto its row
    // atoms, sorted as the model is.
    let mut row_of = vec![(UNSEEN, 0u32); ground.atom_count()];
    let mut ids: Vec<u32> = Vec::new();
    let mut projections: Vec<Vec<u32>> = Vec::with_capacity(models.len());
    for model in models {
        let mut projection = Vec::new();
        for &id in model {
            if row_of[id].0 == UNSEEN {
                let slot = slot_of[ground.atom_predicate(id) as usize];
                if slot != SKIP {
                    ids.extend(ground.atom_args(id).iter().map(|&c| symbol(c)));
                }
                row_of[id] = (slot, ids.len() as u32);
            }
            if row_of[id].0 != SKIP {
                projection.push(id as u32);
            }
        }
        projections.push(projection);
    }
    let row = |id: u32| {
        let (slot, end) = row_of[id as usize];
        let start = end as usize - ground.atom_args(id as usize).len();
        (slot as usize, &ids[start..end as usize])
    };
    debug_assert!(
        {
            let atoms = (0..row_of.len() as u32).filter(|&id| row_of[id as usize].0 < SKIP);
            let mut rows: Vec<_> = atoms.map(row).collect();
            rows.sort_unstable();
            rows.windows(2).all(|pair| pair[0] != pair[1])
        },
        "two atoms of one relation decode to the same row"
    );
    // Atom → row is injective, so equal projections are equal worlds: keep
    // the first of each, in model order.
    let mut kept: Vec<usize> = (0..projections.len()).collect();
    kept.sort_by(|&a, &b| projections[a].cmp(&projections[b]));
    kept.dedup_by(|later, first| projections[*later] == projections[*first]);
    kept.sort_unstable();
    let distinct: Vec<&[u32]> = kept.iter().map(|&m| &projections[m][..]).collect();
    let (core, deltas) = match &distinct[..] {
        [] => (Vec::new(), Vec::new()),
        [only] => (only.iter().map(|&id| row(id)).collect(), vec![Vec::new()]),
        worlds => {
            // The core holds the atoms every world holds, each delta the
            // rest of its world.
            let mut held = vec![0u32; ground.atom_count()];
            for &id in worlds.iter().copied().flatten() {
                held[id as usize] += 1;
            }
            let every = worlds.len() as u32;
            let part = |atoms: &[u32], core: bool| {
                let atoms = atoms
                    .iter()
                    .filter(|&&id| (held[id as usize] == every) == core);
                atoms.map(|&id| row(id)).collect()
            };
            let deltas = worlds.iter().map(|atoms| part(atoms, false)).collect();
            (part(worlds[0], true), deltas)
        }
    };
    let relations: Vec<(&str, usize)> = relevant
        .iter()
        .map(|relation| {
            let arity = arities.get(relation).copied().unwrap_or(0);
            (relation.as_str(), arity)
        })
        .collect();
    Ok(WorldSet::from_split(&relations, core, deltas, symbols)?)
}
