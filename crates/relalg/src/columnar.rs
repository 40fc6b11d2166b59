//! Columnar relation storage, solution worlds and join kernels over
//! interned symbols.
//!
//! A [`ColumnarRelation`] stores one `Vec<u32>` block per attribute — each
//! value replaced by its [`Symbol`] id from a shared [`SymbolTable`] — so a
//! conjunctive query can be answered entirely with integer comparisons and
//! dense hashing; strings are materialized only at the answer boundary
//! ([`CqPlan::materialize`]). Row order is whatever the constructor was
//! given: [`ColumnarRelation::from_relation`] keeps the source
//! [`Relation`]'s value order, and a [`WorldSet`] sorts its id rows
//! ([`WorldSet::from_split`], which [`WorldSet::from_id_rows`] ends in).
//! No kernel depends on row order: answers are sets of id rows.
//!
//! A [`WorldSet`] holds the distinct solution worlds of one prepared slice
//! as a shared core — the rows every world has — plus one delta per world,
//! its rows beyond the core, kept by ascending size. Solutions are the
//! peer's instance changed by a minimal set of changes, so they overlap
//! heavily and the core carries most rows once. A plan reads world `i`
//! through a two-part view: each relation's core block followed by its
//! delta block. [`WorldSet::certain`] answers Definition 5 from the core
//! first: a monotone plan's answers over the core are answers in every
//! world, and only the smallest world's remaining answers need checking in
//! the others.
//!
//! [`CqPlan`] compiles the safe fragment of [`Formula`] — atoms,
//! conjunction, disjunction, existentials, comparisons over bound
//! variables, and nested negation `¬∃Ȳ B` of such blocks, which covers
//! guarded universals `∀Ȳ (φ → ψ)` (compiled as `¬∃Ȳ (φ ∧ ¬ψ)`) — into a
//! union of blocks run by hash-join, semi-join and correlated anti-join
//! kernel steps. Any formula outside the fragment (unguarded universals,
//! bare implications, unsafe negation) fails to compile
//! ([`CqPlan::compile`] returns `None`); callers decode the instance with
//! [`ColumnarDatabase::to_database`] (a world with [`WorldSet::world`]) and
//! run the general active-domain
//! [`QueryEvaluator`](crate::query::QueryEvaluator) — the plan is a fast
//! path, never a semantic fork.

use crate::database::Database;
use crate::error::RelalgError;
use crate::intern::{Symbol, SymbolTable};
use crate::query::ast::{CompareOp, Formula, Term};
use crate::relation::Relation;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One relation stored column-wise as interned symbol ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarRelation {
    name: String,
    /// One block per attribute; all blocks have `rows` entries.
    columns: Vec<Vec<u32>>,
    rows: usize,
}

impl ColumnarRelation {
    /// Intern a relation into column blocks. Rows follow the relation's
    /// iteration order, which is its tuples' value order.
    pub fn from_relation(relation: &Relation, symbols: &SymbolTable) -> Self {
        let arity = relation.arity();
        let mut columns = vec![Vec::with_capacity(relation.len()); arity];
        for tuple in relation.iter() {
            for (col, value) in columns.iter_mut().zip(tuple.iter()) {
                col.push(symbols.intern(value).id());
            }
        }
        ColumnarRelation {
            name: relation.name().to_string(),
            columns,
            rows: relation.len(),
        }
    }

    /// Build a relation from rows of symbol ids already minted by the table
    /// the relation will be read against. Rows keep the given order, and
    /// `rows` may be empty (the relation is then present with no rows).
    /// Fails when a row's length is not `arity`.
    fn from_id_rows(name: impl Into<String>, arity: usize, rows: &[&[u32]]) -> Result<Self> {
        let name = name.into();
        let mut columns = vec![Vec::with_capacity(rows.len()); arity];
        for row in rows {
            if row.len() != arity {
                return Err(RelalgError::ArityMismatch {
                    relation: name,
                    expected: arity,
                    found: row.len(),
                });
            }
            for (col, &id) in columns.iter_mut().zip(row.iter()) {
                col.push(id);
            }
        }
        Ok(ColumnarRelation {
            name,
            columns,
            rows: rows.len(),
        })
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row `r` decoded back into a tuple.
    fn tuple(&self, r: usize, symbols: &SymbolTable) -> Tuple {
        Tuple::from(
            self.columns
                .iter()
                .map(|col| symbols.resolve(Symbol::from_id(col[r])))
                .collect::<Vec<Value>>(),
        )
    }

    /// Exact resident bytes of the column blocks: 4 bytes per id plus the
    /// relation name. Deterministic across platforms — this is the number
    /// the engine's memo cache budgets against.
    pub fn exact_bytes(&self) -> usize {
        self.name.len() + 4 * self.rows * self.arity()
    }
}

/// A database instance interned into columnar blocks, sharing one
/// [`SymbolTable`] with its store.
#[derive(Debug, Clone)]
pub struct ColumnarDatabase {
    relations: BTreeMap<String, ColumnarRelation>,
    symbols: Arc<SymbolTable>,
}

impl ColumnarDatabase {
    /// Intern every relation of `db` into column blocks.
    pub fn from_database(db: &Database, symbols: &Arc<SymbolTable>) -> Self {
        let relations = db
            .relations()
            .map(|rel| {
                (
                    rel.name().to_string(),
                    ColumnarRelation::from_relation(rel, symbols),
                )
            })
            .collect();
        ColumnarDatabase {
            relations,
            symbols: Arc::clone(symbols),
        }
    }

    /// Assemble a database from per-relation id rows: one
    /// `(name, arity, rows)` entry per relation, its rows of symbol ids
    /// already minted by `symbols` and kept in the given order. A relation
    /// with no rows is kept as an empty block, so the database declares
    /// every relation listed. Fails when a row's length is not its
    /// relation's arity.
    fn from_id_rows<'r, N: Into<String>>(
        relations: impl IntoIterator<Item = (N, usize, &'r [&'r [u32]])>,
        symbols: &Arc<SymbolTable>,
    ) -> Result<Self> {
        let relations = relations
            .into_iter()
            .map(|(name, arity, rows)| {
                let relation = ColumnarRelation::from_id_rows(name, arity, rows)?;
                Ok((relation.name.clone(), relation))
            })
            .collect::<Result<_>>()?;
        Ok(ColumnarDatabase {
            relations,
            symbols: Arc::clone(symbols),
        })
    }

    /// The shared symbol table the blocks are interned against.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.symbols
    }

    /// Look a relation up by name.
    pub fn relation(&self, name: &str) -> Option<&ColumnarRelation> {
        self.relations.get(name)
    }

    /// Iterate relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &ColumnarRelation> {
        self.relations.values()
    }

    /// Decode the blocks back into a string [`Database`] — the on-demand
    /// bridge for formulas [`CqPlan`] cannot express. Attribute names are
    /// not stored, so relations come back with positional schemas
    /// ([`RelationSchema::with_arity`]); names, arities and tuples
    /// round-trip exactly.
    pub fn to_database(&self) -> Database {
        let mut db = Database::new();
        for rel in self.relations.values() {
            let mut relation = Relation::new(RelationSchema::with_arity(&rel.name, rel.arity()));
            for r in 0..rel.rows {
                relation
                    .insert(rel.tuple(r, &self.symbols))
                    .expect("every row has the relation's arity");
            }
            db.add_relation(relation);
        }
        db
    }

    /// Exact resident bytes of all column blocks (excluding the shared
    /// symbol table, which is owned by the store and amortized across every
    /// snapshot and cache entry).
    pub fn exact_bytes(&self) -> usize {
        32 + self.block_bytes()
    }

    /// The blocks' share of [`ColumnarDatabase::exact_bytes`]: 16 bytes
    /// per relation plus its ids and name.
    fn block_bytes(&self) -> usize {
        self.relations
            .values()
            .map(|r| 16 + r.exact_bytes())
            .sum::<usize>()
    }

    /// Number of rows over all relations.
    fn row_count(&self) -> usize {
        self.relations.values().map(ColumnarRelation::rows).sum()
    }
}

/// The distinct worlds of one prepared slice — the solutions of a peer
/// (Definition 3) — stored as a shared core plus one delta per world.
///
/// The `core` holds the rows present in every world; world `i`'s delta
/// holds its rows minus the core, so world `i` is exactly `core ⊎ deltaᵢ`.
/// The core declares every relation; a delta holds blocks only for the
/// relations it has rows for, and a lookup falls through to the core.
/// Deltas are kept by ascending row count (ties in input order), so world
/// 0 is a smallest world.
///
/// [`WorldSet::certain`] answers Definition 5 — the tuples that are
/// answers in every world — without running the plan on every world when
/// it can.
#[derive(Debug, Clone)]
pub struct WorldSet {
    core: ColumnarDatabase,
    deltas: Vec<ColumnarDatabase>,
}

impl WorldSet {
    /// Split worlds given as id rows into a core and per-world deltas.
    /// `relations` lists each relation's name and arity; each world lists
    /// its rows of symbol ids, already minted by `symbols`, per relation in
    /// `relations` order, in any order and with repeats. Rows are sorted
    /// and deduplicated per relation, and worlds with equal rows are kept
    /// once, in input order. The core is then the merge-intersection of
    /// each relation's sorted rows over the worlds, and each delta the
    /// merge-difference of a world's rows and the core's. The parts end in
    /// [`WorldSet::from_split`]. Fails when a row's length is not its
    /// relation's arity.
    pub fn from_id_rows<R>(
        relations: &[(&str, usize)],
        worlds: impl IntoIterator<Item = Vec<Vec<R>>>,
        symbols: &Arc<SymbolTable>,
    ) -> Result<WorldSet>
    where
        R: AsRef<[u32]> + Ord + std::hash::Hash,
    {
        /// Per-relation rows as `(relation index, row)` pairs.
        fn part<'r>(
            slots: impl IntoIterator<Item = impl IntoIterator<Item = &'r [u32]>>,
        ) -> Vec<(usize, &'r [u32])> {
            let slots = slots.into_iter().enumerate();
            slots
                .flat_map(|(slot, rows)| rows.into_iter().map(move |row| (slot, row)))
                .collect()
        }
        let worlds: Vec<Vec<Vec<R>>> = worlds
            .into_iter()
            .map(|mut world| {
                for rows in &mut world {
                    rows.sort_unstable();
                    rows.dedup();
                }
                world
            })
            .collect();
        let mut seen = HashSet::new();
        let distinct: Vec<&Vec<Vec<R>>> = worlds.iter().filter(|w| seen.insert(*w)).collect();
        let (core, deltas) = match &distinct[..] {
            [] => (Vec::new(), Vec::new()),
            [first, rest @ ..] => {
                let shared: Vec<Vec<&[u32]>> = first
                    .iter()
                    .enumerate()
                    .map(|(slot, rows)| {
                        let mut shared: Vec<&[u32]> = rows.iter().map(AsRef::as_ref).collect();
                        for world in rest {
                            shared = merge(&shared, &world[slot], true);
                        }
                        shared
                    })
                    .collect();
                let deltas = distinct
                    .iter()
                    .map(|world| {
                        let slots = world.iter().zip(&shared);
                        part(slots.map(|(rows, shared)| merge(shared, rows, false)))
                    })
                    .collect();
                (part(shared.iter().map(|rows| rows.iter().copied())), deltas)
            }
        };
        WorldSet::from_split(relations, core, deltas, symbols)
    }

    /// The set of distinct worlds, given split into a core and per-world
    /// deltas: `core` holds the rows every world has, `deltas[i]` world
    /// `i`'s remaining rows, each row as its relation's index in
    /// `relations` and its symbol ids, already minted by `symbols`. Rows
    /// are distinct within a part and no delta row is a core row; their
    /// order is free, because each part is sorted here once, by relation
    /// and then by row. The core declares every relation (none when there
    /// is no world), a delta only the relations it has rows for, and the
    /// deltas are kept by ascending row count, ties in input order. Fails
    /// when a row's length is not its relation's arity.
    pub fn from_split(
        relations: &[(&str, usize)],
        core: Vec<(usize, &[u32])>,
        deltas: Vec<Vec<(usize, &[u32])>>,
        symbols: &Arc<SymbolTable>,
    ) -> Result<WorldSet> {
        let database = |mut part: Vec<(usize, &[u32])>, every: bool| {
            part.sort_unstable();
            debug_assert!(
                part.windows(2).all(|w| w[0] != w[1]),
                "a row repeats in a part"
            );
            debug_assert!(part
                .last()
                .map_or(true, |&(slot, _)| slot < relations.len()));
            let rows: Vec<&[u32]> = part.iter().map(|&(_, row)| row).collect();
            let mut at = 0;
            let blocks: Vec<(&str, usize, &[&[u32]])> = relations
                .iter()
                .enumerate()
                .map(|(slot, &(name, arity))| {
                    let len = part[at..].iter().take_while(|(s, _)| *s == slot).count();
                    at += len;
                    (name, arity, &rows[at - len..at])
                })
                .filter(|(_, _, rows)| every || !rows.is_empty())
                .collect();
            ColumnarDatabase::from_id_rows(blocks, symbols)
        };
        let core = database(core, !deltas.is_empty())?;
        let mut deltas = deltas
            .into_iter()
            .map(|delta| database(delta, false))
            .collect::<Result<Vec<_>>>()?;
        deltas.sort_by_key(ColumnarDatabase::row_count);
        Ok(WorldSet { core, deltas })
    }

    /// Number of distinct worlds.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True when there is no world (the peer has no solution).
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The rows present in every world.
    pub fn core(&self) -> &ColumnarDatabase {
        &self.core
    }

    /// World `i` (`core ⊎ deltaᵢ`, worlds by ascending size) decoded into
    /// a string [`Database`], like [`ColumnarDatabase::to_database`]: the
    /// on-demand bridge for formulas [`CqPlan`] cannot express.
    pub fn world(&self, i: usize) -> Database {
        let mut db = self.core.to_database();
        for rel in self.deltas[i].relations() {
            for r in 0..rel.rows {
                db.insert(&rel.name, rel.tuple(r, &self.core.symbols))
                    .expect("the core declares every delta relation at its arity");
            }
        }
        db
    }

    /// Exact resident bytes: one 32-byte database header per world, the
    /// core's blocks once and each delta's blocks, each block charged as in
    /// [`ColumnarDatabase::exact_bytes`]. A one-world set charges exactly
    /// what that world alone would.
    pub fn exact_bytes(&self) -> usize {
        32 * self.len()
            + self.core.block_bytes()
            + self
                .deltas
                .iter()
                .map(ColumnarDatabase::block_bytes)
                .sum::<usize>()
    }

    /// The plan's certain answers over the set (Definition 5): the id rows
    /// that are answers in every world — none when there is no world —
    /// and how many worlds were evaluated, `Q(core)` counting as one.
    ///
    /// `intersect(items, f)` must return the intersection of `f(i)` over
    /// `items` (the empty set for none), in any order and on any threads,
    /// as `pdes_exec::Executor::try_intersect` does.
    ///
    /// * One world: `Q(core)`, since the core is the world.
    /// * A monotone plan (no negated sub-block; comparisons and `∨` are
    ///   fine): `core ⊆ Wᵢ` gives `Q(core) ⊆ Q(Wᵢ)` for every world, so the
    ///   answer is `Q(core)` plus the candidates `Q(W₀) \ Q(core)` of the
    ///   smallest world that are answers in every other world. Each other
    ///   world's answers are cut down to the candidates before
    ///   `intersect` folds them.
    /// * Any other plan: `intersect` over every world's answers.
    pub fn certain<F>(&self, plan: &CqPlan, intersect: F) -> Result<(BTreeSet<Vec<u32>>, usize)>
    where
        F: FnOnce(
            &[usize],
            &(dyn Fn(&usize) -> Result<BTreeSet<Vec<u32>>> + Sync),
        ) -> Result<BTreeSet<Vec<u32>>>,
    {
        let checked = AtomicUsize::new(0);
        let answers = |delta: Option<&ColumnarDatabase>| {
            checked.fetch_add(1, Ordering::Relaxed);
            plan.answers_in(World {
                base: &self.core,
                delta,
            })
        };
        let world = |i: usize| answers(Some(&self.deltas[i]));
        let rows = match self.len() {
            0 => BTreeSet::new(),
            1 => answers(None)?,
            n if plan.monotone() => {
                let mut certain = answers(None)?;
                let mut candidates = world(0)?;
                candidates.retain(|row| !certain.contains(row));
                if !candidates.is_empty() {
                    let rest: Vec<usize> = (1..n).collect();
                    certain.extend(intersect(&rest, &|&i| {
                        let mut rows = world(i)?;
                        rows.retain(|row| candidates.contains(row));
                        Ok(rows)
                    })?);
                }
                certain
            }
            n => intersect(&(0..n).collect::<Vec<_>>(), &|&i| world(i))?,
        };
        Ok((rows, checked.into_inner()))
    }
}

/// Merge two sorted, deduplicated row lists: their intersection (`keep`)
/// or the rows of `rows` not in `shared` (`!keep`), in order.
fn merge<'r, R: AsRef<[u32]>>(shared: &[&[u32]], rows: &'r [R], keep: bool) -> Vec<&'r [u32]> {
    let mut out = Vec::new();
    let mut s = shared.iter().peekable();
    for row in rows {
        let row = row.as_ref();
        while s.next_if(|other| **other < row).is_some() {}
        let present = s.next_if(|other| **other == row).is_some();
        if present == keep {
            out.push(row);
        }
    }
    out
}

/// One instance as a plan reads it: a base database and, for a member of
/// a [`WorldSet`], the world's delta over the set's core.
#[derive(Clone, Copy)]
struct World<'a> {
    base: &'a ColumnarDatabase,
    delta: Option<&'a ColumnarDatabase>,
}

impl<'a> World<'a> {
    /// A relation's rows in this world: the base block's, then the delta
    /// block's. `None` when neither part declares the relation.
    fn relation(&self, name: &str) -> Option<Rows<'a>> {
        let head = self.base.relation(name);
        let tail = self.delta.and_then(|delta| delta.relation(name));
        let arity = head.or(tail)?.arity();
        let columns = |rel: Option<&'a ColumnarRelation>| rel.map_or(&[][..], |r| &r.columns[..]);
        let split = head.map_or(0, ColumnarRelation::rows);
        Some(Rows {
            head: columns(head),
            tail: columns(tail),
            split,
            len: split + tail.map_or(0, ColumnarRelation::rows),
            arity,
        })
    }

    fn symbols(&self) -> &'a SymbolTable {
        self.base.symbols()
    }
}

/// One relation of a [`World`]: rows `0..split` are the base block's,
/// the rest the delta block's.
struct Rows<'a> {
    head: &'a [Vec<u32>],
    tail: &'a [Vec<u32>],
    split: usize,
    len: usize,
    arity: usize,
}

impl Rows<'_> {
    fn rows(&self) -> usize {
        self.len
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn id_at(&self, row: usize, col: usize) -> u32 {
        if row < self.split {
            self.head[col][row]
        } else {
            self.tail[col][row - self.split]
        }
    }
}

/// A term position in a compiled atom: a constant (matched by symbol id) or
/// a variable slot in the plan's binding row.
#[derive(Debug, Clone)]
enum PlanTerm {
    /// Constant: matched against column ids. The value is looked up in the
    /// table lazily at evaluation time (a constant the table has never
    /// minted cannot match any stored tuple).
    Const(Value),
    /// Variable: the slot of one variable binding (every quantifier gets
    /// slots of its own).
    Var(usize),
}

impl PlanTerm {
    fn slot(&self) -> Option<usize> {
        match self {
            PlanTerm::Var(slot) => Some(*slot),
            PlanTerm::Const(_) => None,
        }
    }
}

/// One relational atom step of a block.
#[derive(Debug, Clone)]
struct AtomStep {
    relation: String,
    terms: Vec<PlanTerm>,
}

impl AtomStep {
    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.iter().filter_map(PlanTerm::slot)
    }
}

/// One comparison filter applied once both sides are bound.
#[derive(Debug, Clone)]
struct FilterStep {
    op: CompareOp,
    left: PlanTerm,
    right: PlanTerm,
}

impl FilterStep {
    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        [&self.left, &self.right]
            .into_iter()
            .filter_map(PlanTerm::slot)
    }

    /// Keep the rows the comparison holds on. Ids decide equality
    /// directly; ordered comparisons, and constants the table never
    /// minted, compare values.
    fn apply(&self, symbols: &SymbolTable, bound: &[usize], rows: &mut Vec<Vec<u32>>) {
        let column = |term: &PlanTerm| {
            term.slot().map(|slot| {
                bound
                    .iter()
                    .position(|b| *b == slot)
                    .expect("filter var bound")
            })
        };
        let constant = |term: &PlanTerm| match term {
            PlanTerm::Const(value) => symbols.lookup(value).map(Symbol::id),
            PlanTerm::Var(_) => None,
        };
        let (left_col, right_col) = (column(&self.left), column(&self.right));
        let (left_const, right_const) = (constant(&self.left), constant(&self.right));
        let value = |term: &PlanTerm, id: Option<u32>| match (term, id) {
            (_, Some(id)) => symbols.resolve(Symbol::from_id(id)),
            (PlanTerm::Const(value), None) => value.clone(),
            (PlanTerm::Var(_), None) => unreachable!("variables are bound"),
        };
        rows.retain(|row| {
            let left = left_col.map(|c| row[c]).or(left_const);
            let right = right_col.map(|c| row[c]).or(right_const);
            match (self.op, left, right) {
                (CompareOp::Eq, Some(l), Some(r)) => l == r,
                (CompareOp::Neq, Some(l), Some(r)) => l != r,
                (op, l, r) => op.apply(&value(&self.left, l), &value(&self.right, r)),
            }
        });
    }
}

/// One conjunctive block: atoms joined left to right, then filters, then
/// correlated anti-joins against the negated sub-blocks.
#[derive(Debug, Clone, Default)]
struct Conjunct {
    atoms: Vec<AtomStep>,
    filters: Vec<FilterStep>,
    /// Negated sub-blocks `¬∃Ȳ B`: each is a block of its own, evaluated
    /// seeded with this block's binding rows.
    negated: Vec<Conjunct>,
    /// The slots this block quantifies: `Ȳ` for a negated sub-block (the
    /// existentials of a top-level block need no check).
    locals: Vec<usize>,
}

impl Conjunct {
    /// The conjunction of two blocks.
    fn and(&self, other: &Conjunct) -> Conjunct {
        fn both<T: Clone>(a: &[T], b: &[T]) -> Vec<T> {
            a.iter().chain(b).cloned().collect()
        }
        Conjunct {
            atoms: both(&self.atoms, &other.atoms),
            filters: both(&self.filters, &other.filters),
            negated: both(&self.negated, &other.negated),
            locals: both(&self.locals, &other.locals),
        }
    }

    /// Check the block's safety, given the slots `outer` bound on entry.
    /// Returns the slots bound on exit, or `None` for an unsafe block.
    ///
    /// Every filter variable must be bound by some atom of the block or an
    /// enclosing one. In a negated sub-block, every atom variable must be
    /// bound on entry or be one of the block's own quantified variables,
    /// and each of those must occur in an atom (the guard a quantifier
    /// ranges over).
    fn safe(&self, outer: &HashSet<usize>, negated: bool) -> Option<HashSet<usize>> {
        let mut bound = outer.clone();
        for slot in self.atoms.iter().flat_map(AtomStep::slots) {
            if negated && !outer.contains(&slot) && !self.locals.contains(&slot) {
                return None;
            }
            bound.insert(slot);
        }
        let guarded = !negated || self.locals.iter().all(|slot| bound.contains(slot));
        let filtered = self
            .filters
            .iter()
            .flat_map(FilterStep::slots)
            .all(|slot| bound.contains(&slot));
        if !(guarded && filtered) {
            return None;
        }
        for sub in &self.negated {
            sub.safe(&bound, true)?;
        }
        Some(bound)
    }

    /// Evaluate the block over the binding rows `rows`, whose columns hold
    /// the slots `bound`: the join, filter and anti-join steps in order. On
    /// return `rows` are the block's extended bindings and `bound` their
    /// columns. Under a negation (`negated`), an atom whose arity no stored
    /// tuple has matches nothing (like `Database::holds`); in positive
    /// position it errors (like the evaluator).
    fn run(
        &self,
        world: World<'_>,
        bound: &mut Vec<usize>,
        rows: &mut Vec<Vec<u32>>,
        negated: bool,
    ) -> Result<()> {
        let symbols = world.symbols();
        for atom in &self.atoms {
            let rel = match world.relation(&atom.relation) {
                Some(rel) if rel.arity() != atom.terms.len() && !negated => {
                    return Err(RelalgError::ArityMismatch {
                        relation: atom.relation.clone(),
                        expected: rel.arity(),
                        found: atom.terms.len(),
                    });
                }
                // Undeclared relations are empty (mirrors the evaluator).
                rel => rel.filter(|rel| rel.arity() == atom.terms.len()),
            };
            // An unseen constant empties the atom, and with it the block.
            let Some((rel, access)) =
                rel.and_then(|rel| Some((rel, Access::resolve(atom, symbols, bound)?)))
            else {
                rows.clear();
                return Ok(());
            };
            if access.fresh.is_empty() {
                // Semi-join kernel: the atom introduces no new variables, so
                // it only filters the binding rows by key membership.
                let present = access.key_set(&rel);
                rows.retain(|row| present.contains(&access.probe(row)));
            } else {
                // Hash-join kernel: index matching relation rows by their
                // join-key projection, probe with every binding row, emit
                // rows extended with the fresh columns.
                let mut index: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
                for r in 0..rel.rows() {
                    if access.matches(&rel, r) {
                        index.entry(access.stored_key(&rel, r)).or_default().push(r);
                    }
                }
                let mut next = Vec::new();
                for row in rows.iter() {
                    if let Some(matches) = index.get(&access.probe(row)) {
                        for &r in matches {
                            let mut extended = row.clone();
                            extended.extend(access.fresh.iter().map(|(col, _)| rel.id_at(r, *col)));
                            next.push(extended);
                        }
                    }
                }
                bound.extend(access.fresh.iter().map(|(_, slot)| *slot));
                *rows = next;
            }
            if rows.is_empty() {
                return Ok(());
            }
        }
        for filter in &self.filters {
            filter.apply(symbols, bound, rows);
        }
        // Correlated anti-join kernel: run each sub-block seeded with the
        // binding rows, then drop every row some extended row starts with.
        for sub in &self.negated {
            if rows.is_empty() {
                break;
            }
            let mut sub_bound = bound.clone();
            let mut extended = rows.clone();
            sub.run(world, &mut sub_bound, &mut extended, true)?;
            let width = bound.len();
            let matched: HashSet<&[u32]> = extended.iter().map(|row| &row[..width]).collect();
            rows.retain(|row| !matched.contains(row.as_slice()));
        }
        Ok(())
    }
}

/// How one atom meets the binding rows built so far: constant columns,
/// join-key columns (variables already bound), fresh columns (variables the
/// atom binds first) and intra-atom repeats of a fresh variable.
#[derive(Default)]
struct Access {
    /// (column, constant id).
    consts: Vec<(usize, u32)>,
    /// (column, position in the binding row).
    keys: Vec<(usize, usize)>,
    /// (column, slot) — the first column of each fresh variable.
    fresh: Vec<(usize, usize)>,
    /// (column, earlier column of the same fresh variable).
    repeats: Vec<(usize, usize)>,
}

impl Access {
    /// Resolve an atom against the slots bound so far. `None` when a
    /// constant was never minted by the table: the atom matches nothing
    /// (and the constant is only looked up, never interned).
    fn resolve(atom: &AtomStep, symbols: &SymbolTable, bound: &[usize]) -> Option<Access> {
        let mut access = Access::default();
        let mut first_col: HashMap<usize, usize> = HashMap::new();
        for (col, term) in atom.terms.iter().enumerate() {
            match term {
                PlanTerm::Const(value) => access.consts.push((col, symbols.lookup(value)?.id())),
                PlanTerm::Var(slot) => {
                    if let Some(earlier) = first_col.get(slot) {
                        access.repeats.push((col, *earlier));
                    } else {
                        first_col.insert(*slot, col);
                        match bound.iter().position(|b| b == slot) {
                            Some(pos) => access.keys.push((col, pos)),
                            None => access.fresh.push((col, *slot)),
                        }
                    }
                }
            }
        }
        Some(access)
    }

    /// Does stored row `r` agree with the atom's constants and repeats?
    fn matches(&self, rel: &Rows<'_>, r: usize) -> bool {
        self.consts
            .iter()
            .all(|(col, id)| rel.id_at(r, *col) == *id)
            && self
                .repeats
                .iter()
                .all(|(col, earlier)| rel.id_at(r, *col) == rel.id_at(r, *earlier))
    }

    /// The join key of stored row `r`.
    fn stored_key(&self, rel: &Rows<'_>, r: usize) -> Vec<u32> {
        self.keys
            .iter()
            .map(|(col, _)| rel.id_at(r, *col))
            .collect()
    }

    /// The join key of a binding row.
    fn probe(&self, row: &[u32]) -> Vec<u32> {
        self.keys.iter().map(|(_, pos)| row[*pos]).collect()
    }

    /// The key of every matching stored row: the semi-join kernel tests
    /// binding rows for membership in this set (an atom with no bound
    /// variables has the empty key, present iff any row matches).
    fn key_set(&self, rel: &Rows<'_>) -> HashSet<Vec<u32>> {
        (0..rel.rows())
            .filter(|r| self.matches(rel, *r))
            .map(|r| self.stored_key(rel, r))
            .collect()
    }
}

/// A compiled conjunctive plan: a union of blocks, each evaluated with
/// hash-join / semi-join / correlated anti-join kernels over interned ids,
/// projected onto the query's free variables.
///
/// # Examples
///
/// ```
/// use relalg::{ColumnarDatabase, Database, Relation, RelationSchema, SymbolTable, Tuple};
/// use relalg::columnar::CqPlan;
/// use relalg::query::Formula;
/// use std::sync::Arc;
///
/// let mut db = Database::new();
/// db.add_relation(Relation::new(RelationSchema::new("R", &["a", "b"])));
/// db.insert("R", Tuple::strs(["x", "y"])).unwrap();
///
/// let symbols = Arc::new(SymbolTable::new());
/// let columnar = ColumnarDatabase::from_database(&db, &symbols);
///
/// let q = Formula::exists(vec!["Y"], Formula::atom("R", vec!["X", "Y"]));
/// let plan = CqPlan::compile(&q, &["X".to_string()]).expect("conjunctive");
/// let rows = plan.answers(&columnar).unwrap();
/// let tuples = CqPlan::materialize(&rows, &symbols);
/// assert_eq!(tuples.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CqPlan {
    /// The slots of the query's free variables.
    output: Vec<usize>,
    /// Union of conjunctive blocks (one for a plain conjunctive query).
    disjuncts: Vec<Conjunct>,
}

/// The most blocks one union may expand to when `∧` distributes over `∨`;
/// a larger plan falls back to the evaluator rather than blow up.
const MAX_BLOCKS: usize = 64;

/// The blocks of `A ∧ B`, given those of `A` and `B`.
fn conjoin(left: &[Conjunct], right: &[Conjunct]) -> Option<Vec<Conjunct>> {
    (left.len() * right.len() <= MAX_BLOCKS).then(|| {
        left.iter()
            .flat_map(|l| right.iter().map(move |r| l.and(r)))
            .collect()
    })
}

/// Compile-time slot numbering shared by every block of one plan.
#[derive(Default)]
struct Compiler {
    /// Slots handed out so far.
    slots: usize,
    /// Slots of the variables no quantifier binds (the free variables
    /// first).
    names: HashMap<String, usize>,
    /// The quantified variables in scope, innermost last.
    scope: Vec<(String, usize)>,
}

impl Compiler {
    fn fresh(&mut self) -> usize {
        self.slots += 1;
        self.slots - 1
    }

    /// The slot of an unquantified variable, numbered on first sight.
    fn name(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.names.get(name) {
            return slot;
        }
        let slot = self.fresh();
        self.names.insert(name.to_string(), slot);
        slot
    }

    /// A term's plan form: a constant, or the slot its variable denotes
    /// here — its innermost quantifier's, else the unquantified variable's.
    fn term(&mut self, term: &Term) -> PlanTerm {
        match term {
            Term::Const(v) => PlanTerm::Const(v.clone()),
            Term::Var(name) => {
                PlanTerm::Var(match self.scope.iter().rev().find(|(n, _)| n == name) {
                    Some(&(_, slot)) => slot,
                    None => self.name(name),
                })
            }
        }
    }

    fn atom(&mut self, relation: &str, terms: &[Term]) -> Conjunct {
        let terms = terms.iter().map(|t| self.term(t)).collect();
        Conjunct {
            atoms: vec![AtomStep {
                relation: relation.to_string(),
                terms,
            }],
            ..Conjunct::default()
        }
    }

    fn filter(&mut self, op: CompareOp, left: &Term, right: &Term) -> Conjunct {
        Conjunct {
            filters: vec![FilterStep {
                op,
                left: self.term(left),
                right: self.term(right),
            }],
            ..Conjunct::default()
        }
    }

    /// Compile `inner` with `qvars` bound to fresh slots, so they shadow
    /// any outer variable of the same name exactly like the evaluator's
    /// quantifiers. The slots become locals of every block of `inner`.
    fn quantified(
        &mut self,
        qvars: &[String],
        inner: impl FnOnce(&mut Self) -> Option<Vec<Conjunct>>,
    ) -> Option<Vec<Conjunct>> {
        let mark = self.scope.len();
        let locals: Vec<usize> = qvars.iter().map(|_| self.fresh()).collect();
        self.scope
            .extend(qvars.iter().cloned().zip(locals.iter().copied()));
        let blocks = inner(self);
        self.scope.truncate(mark);
        let mut blocks = blocks?;
        for block in &mut blocks {
            block.locals.extend(&locals);
        }
        Some(blocks)
    }

    /// Flatten a formula in positive position into a union of blocks,
    /// distributing `∧` over `∨`. Bails (returns `None`) on any construct
    /// outside the fragment.
    fn flatten(&mut self, f: &Formula) -> Option<Vec<Conjunct>> {
        match f {
            Formula::True => Some(vec![Conjunct::default()]),
            Formula::False => Some(Vec::new()),
            Formula::Atom { relation, terms } => Some(vec![self.atom(relation, terms)]),
            Formula::Compare { op, left, right } => Some(vec![self.filter(*op, left, right)]),
            Formula::And(parts) => parts
                .iter()
                .try_fold(vec![Conjunct::default()], |blocks, part| {
                    conjoin(&blocks, &self.flatten(part)?)
                }),
            Formula::Or(parts) => {
                let mut blocks = Vec::new();
                for part in parts {
                    blocks.extend(self.flatten(part)?);
                }
                (blocks.len() <= MAX_BLOCKS).then_some(blocks)
            }
            Formula::Exists(qvars, inner) => self.quantified(qvars, |c| c.flatten(inner)),
            Formula::Not(inner) => self.negation(inner),
            // ∀Ȳ (φ → ψ) is ¬∃Ȳ (φ ∧ ¬ψ), and ∀Ȳ ψ is ¬∃Ȳ ¬ψ.
            Formula::Forall(qvars, body) => {
                let negated = self.quantified(qvars, |c| match body.as_ref() {
                    Formula::Implies(guard, consequent) => {
                        conjoin(&c.flatten(guard)?, &c.negation(consequent)?)
                    }
                    other => c.negation(other),
                })?;
                Some(vec![Conjunct {
                    negated,
                    ..Conjunct::default()
                }])
            }
            // A bare implication has no guard to range over.
            Formula::Implies(..) => None,
        }
    }

    /// Flatten `¬f`: a negated comparison is a filter with the negated
    /// operator; anything else becomes one negated sub-block per block of
    /// `f` (so `¬(A ∨ B)` is `¬A ∧ ¬B`).
    fn negation(&mut self, f: &Formula) -> Option<Vec<Conjunct>> {
        match f {
            Formula::Compare { op, left, right } => {
                Some(vec![self.filter(op.negate(), left, right)])
            }
            other => Some(vec![Conjunct {
                negated: self.flatten(other)?,
                ..Conjunct::default()
            }]),
        }
    }
}

impl CqPlan {
    /// Compile the safe fragment: atoms, comparisons, `∧`, `∨` (with `∧`
    /// distributed over it into a top-level union of blocks), `∃`, and
    /// nested negation `¬∃Ȳ B` of such blocks, including guarded
    /// universals `∀Ȳ (φ → ψ)`, compiled as `¬∃Ȳ (φ ∧ ¬ψ)`. Every block
    /// must bind the free variables; every comparison's variables must be
    /// bound by an atom; every variable of a negated block must be bound
    /// outside it or be quantified by it and occur in one of its atoms.
    /// Returns `None` for anything else — unguarded universals, bare
    /// implications, unsafe negation or comparisons — which callers
    /// evaluate with the general
    /// [`QueryEvaluator`](crate::query::QueryEvaluator).
    pub fn compile(query: &Formula, free_vars: &[String]) -> Option<CqPlan> {
        let mut compiler = Compiler::default();
        let output: Vec<usize> = free_vars.iter().map(|v| compiler.name(v)).collect();
        let disjuncts = compiler.flatten(query)?;
        for block in &disjuncts {
            let bound = block.safe(&HashSet::new(), false)?;
            if !output.iter().all(|slot| bound.contains(slot)) {
                return None;
            }
        }
        Some(CqPlan { output, disjuncts })
    }

    /// Evaluate the plan over a columnar instance: per-block hash joins,
    /// semi-joins and correlated anti-joins over interned ids, unioned and
    /// projected onto the free variables. Rows come back as id vectors;
    /// materialize them with [`CqPlan::materialize`] only at the answer
    /// boundary.
    pub fn answers(&self, db: &ColumnarDatabase) -> Result<BTreeSet<Vec<u32>>> {
        self.answers_in(World {
            base: db,
            delta: None,
        })
    }

    /// [`CqPlan::answers`] over one world, a base plus an optional delta.
    fn answers_in(&self, world: World<'_>) -> Result<BTreeSet<Vec<u32>>> {
        let mut out = BTreeSet::new();
        for block in &self.disjuncts {
            let mut bound = Vec::new();
            let mut rows = vec![Vec::new()];
            block.run(world, &mut bound, &mut rows, false)?;
            if rows.is_empty() {
                continue;
            }
            let columns: Vec<usize> = self
                .output
                .iter()
                .map(|slot| bound.iter().position(|b| b == slot).expect("output bound"))
                .collect();
            // Rows already laid out as the output move into the set as-is.
            if columns.iter().copied().eq(0..bound.len()) {
                out.extend(rows);
            } else {
                out.extend(
                    rows.into_iter()
                        .map(|row| columns.iter().map(|c| row[*c]).collect::<Vec<u32>>()),
                );
            }
        }
        Ok(out)
    }

    /// True when no block negates a sub-block: the answers can then only
    /// grow as rows are added to the instance. Comparisons, negated ones
    /// included, and `∨` keep a plan monotone; they read bound values only.
    fn monotone(&self) -> bool {
        self.disjuncts.iter().all(|block| block.negated.is_empty())
    }

    /// Materialize id rows back into tuples — the single point where the
    /// columnar plane touches strings again.
    pub fn materialize(rows: &BTreeSet<Vec<u32>>, symbols: &SymbolTable) -> BTreeSet<Tuple> {
        rows.iter()
            .map(|row| {
                Tuple::from(
                    row.iter()
                        .map(|id| symbols.resolve(Symbol::from_id(*id)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryEvaluator;

    fn fixture() -> (Database, Arc<SymbolTable>, ColumnarDatabase) {
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new("R", &["a", "b"])));
        db.add_relation(Relation::new(RelationSchema::new("S", &["b", "c"])));
        for (x, y) in [("a", "b"), ("b", "c"), ("c", "c"), ("d", "d")] {
            db.insert("R", Tuple::strs([x, y])).unwrap();
        }
        for (x, y) in [("b", "1"), ("c", "2"), ("z", "3")] {
            db.insert("S", Tuple::strs([x, y])).unwrap();
        }
        let symbols = Arc::new(SymbolTable::new());
        let columnar = ColumnarDatabase::from_database(&db, &symbols);
        (db, symbols, columnar)
    }

    fn check_matches_evaluator(q: &Formula, free: &[&str]) {
        let (db, symbols, columnar) = fixture();
        let free: Vec<String> = free.iter().map(|s| s.to_string()).collect();
        let plan = CqPlan::compile(q, &free).expect("plan should compile");
        let rows = plan.answers(&columnar).unwrap();
        let got = CqPlan::materialize(&rows, &symbols);
        let want = QueryEvaluator::new(&db).answers(q, &free).unwrap();
        assert_eq!(got, want, "query {q}");
    }

    #[test]
    fn single_atom_scan() {
        check_matches_evaluator(&Formula::atom("R", vec!["X", "Y"]), &["X", "Y"]);
    }

    #[test]
    fn projection_via_exists() {
        let q = Formula::exists(vec!["Y"], Formula::atom("R", vec!["X", "Y"]));
        check_matches_evaluator(&q, &["X"]);
    }

    #[test]
    fn hash_join_across_relations() {
        // R(X, Y) ∧ S(Y, Z)
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::atom("S", vec!["Y", "Z"]),
        ]);
        check_matches_evaluator(&q, &["X", "Y", "Z"]);
    }

    #[test]
    fn semi_join_filters_bound_rows() {
        // ∃Z: R(X, Y) ∧ S(Y, Z) projected to X — second atom partly fresh;
        // ∃: R(X, Y) ∧ S(X, Y) — second atom fully bound (semi-join).
        let q = Formula::exists(
            vec!["Z"],
            Formula::and(vec![
                Formula::atom("R", vec!["X", "Y"]),
                Formula::atom("S", vec!["Y", "Z"]),
            ]),
        );
        check_matches_evaluator(&q, &["X"]);
        let q2 = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::atom("S", vec!["X", "Y"]),
        ]);
        check_matches_evaluator(&q2, &["X", "Y"]);
    }

    #[test]
    fn repeated_variables_and_constants() {
        // R(X, X) — intra-atom repeat.
        check_matches_evaluator(&Formula::atom("R", vec!["X", "X"]), &["X"]);
        // R(c, Y) — constant position.
        let q = Formula::atom_terms("R", vec![Term::cnst("c"), Term::var("Y")]);
        check_matches_evaluator(&q, &["Y"]);
    }

    #[test]
    fn unseen_constant_matches_nothing() {
        let (_, symbols, columnar) = fixture();
        let q = Formula::atom_terms("R", vec![Term::cnst("never-stored"), Term::var("Y")]);
        let plan = CqPlan::compile(&q, &["Y".to_string()]).unwrap();
        assert!(plan.answers(&columnar).unwrap().is_empty());
        // The query constant must not leak into the store's table.
        assert_eq!(symbols.lookup(&Value::str("never-stored")), None);
    }

    #[test]
    fn comparison_filters() {
        let neq = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::compare(CompareOp::Neq, Term::var("X"), Term::var("Y")),
        ]);
        check_matches_evaluator(&neq, &["X", "Y"]);
        let lt = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::compare(CompareOp::Lt, Term::var("X"), Term::cnst("c")),
        ]);
        check_matches_evaluator(&lt, &["X", "Y"]);
    }

    #[test]
    fn union_of_conjuncts() {
        let q = Formula::Or(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::atom("S", vec!["X", "Y"]),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
    }

    #[test]
    fn negated_atom_over_bound_variables() {
        // R(X, Y) ∧ ¬R(Y, X) — the warm-read benchmark's negated query.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::not(Formula::atom("R", vec!["Y", "X"])),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
        // A bound variable repeated inside the negated atom.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::not(Formula::atom("R", vec!["Y", "Y"])),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
        // Missing relations and arities no stored tuple has match nothing,
        // so their negation keeps every row.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::not(Formula::atom("Elsewhere", vec!["X"])),
            Formula::not(Formula::atom("S", vec!["X"])),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
    }

    #[test]
    fn negated_atom_with_constants() {
        let negate_s = |c: &str| {
            Formula::and(vec![
                Formula::atom("R", vec!["X", "Y"]),
                Formula::not(Formula::atom_terms(
                    "S",
                    vec![Term::var("Y"), Term::cnst(c)],
                )),
            ])
        };
        check_matches_evaluator(&negate_s("1"), &["X", "Y"]);
        // A constant the table never minted matches nothing: every row
        // survives, and the constant does not leak into the table.
        let q = negate_s("never-stored");
        check_matches_evaluator(&q, &["X", "Y"]);
        let (_, symbols, columnar) = fixture();
        let plan = CqPlan::compile(&q, &["X".to_string(), "Y".to_string()]).unwrap();
        assert_eq!(plan.answers(&columnar).unwrap().len(), 4);
        assert_eq!(symbols.lookup(&Value::str("never-stored")), None);
    }

    #[test]
    fn negated_existential_is_local_to_the_negation() {
        // R(X, Y) ∧ ¬∃Z S(X, Z).
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::not(Formula::exists(
                vec!["Z"],
                Formula::atom("S", vec!["X", "Z"]),
            )),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
        // The negation's Y is its own, not the outer R's Y.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::not(Formula::exists(
                vec!["Y"],
                Formula::atom("S", vec!["X", "Y"]),
            )),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
        // A repeated local variable must agree with itself.
        let q = Formula::and(vec![
            Formula::atom("S", vec!["X", "Y"]),
            Formula::not(Formula::exists(
                vec!["Z"],
                Formula::atom("R", vec!["Z", "Z"]),
            )),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
    }

    #[test]
    fn negation_inside_one_disjunct() {
        let q = Formula::Or(vec![
            Formula::and(vec![
                Formula::atom("R", vec!["X", "Y"]),
                Formula::not(Formula::atom("R", vec!["Y", "X"])),
            ]),
            Formula::atom("S", vec!["X", "Y"]),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
    }

    #[test]
    fn to_database_round_trips() {
        let (db, _, columnar) = fixture();
        let back = columnar.to_database();
        assert_eq!(back.ground_atoms(), db.ground_atoms());
        for rel in db.relations() {
            assert_eq!(back.relation(rel.name()).unwrap().arity(), rel.arity());
        }
    }

    #[test]
    fn id_rows_build_the_same_blocks_and_keep_empty_relations() {
        let (db, symbols, columnar) = fixture();
        let id_rows = |name: &str| -> Vec<Vec<u32>> {
            let rel = columnar.relation(name).unwrap();
            (0..rel.rows())
                .map(|r| (0..rel.arity()).map(|c| rel.columns[c][r]).collect())
                .collect()
        };
        let (r, s) = (id_rows("R"), id_rows("S"));
        let r: Vec<&[u32]> = r.iter().map(Vec::as_slice).collect();
        let s: Vec<&[u32]> = s.iter().map(Vec::as_slice).collect();
        let built = ColumnarDatabase::from_id_rows(
            [
                ("R", 2, r.as_slice()),
                ("S", 2, s.as_slice()),
                ("E", 3, &[]),
            ],
            &symbols,
        )
        .unwrap();
        assert_eq!(built.relation("R"), columnar.relation("R"));
        assert_eq!(built.relation("S"), columnar.relation("S"));
        let empty = built.relation("E").expect("an empty relation is kept");
        assert_eq!((empty.arity(), empty.rows()), (3, 0));
        assert_eq!(built.to_database().ground_atoms(), db.ground_atoms());
        assert!(matches!(
            ColumnarRelation::from_id_rows("R", 2, &[&[1, 2, 3]]),
            Err(RelalgError::ArityMismatch { found: 3, .. })
        ));
    }

    /// The intersection of `f(i)` over `items`, folded in order.
    fn intersect(
        items: &[usize],
        f: &(dyn Fn(&usize) -> Result<BTreeSet<Vec<u32>>> + Sync),
    ) -> Result<BTreeSet<Vec<u32>>> {
        let mut acc: Option<BTreeSet<Vec<u32>>> = None;
        for item in items {
            let these = f(item)?;
            acc = Some(match acc {
                None => these,
                Some(acc) => acc.intersection(&these).cloned().collect(),
            });
        }
        Ok(acc.unwrap_or_default())
    }

    /// Worlds over `R` and `S` given as `(relation, x, y)` facts.
    fn world_set(worlds: &[&[(&str, &str, &str)]]) -> (WorldSet, Arc<SymbolTable>) {
        let symbols = Arc::new(SymbolTable::new());
        let rows = worlds.iter().map(|facts| {
            ["R", "S"]
                .iter()
                .map(|relation| {
                    facts
                        .iter()
                        .filter(|(r, _, _)| r == relation)
                        .map(|(_, x, y)| {
                            vec![
                                symbols.intern(&Value::str(*x)).id(),
                                symbols.intern(&Value::str(*y)).id(),
                            ]
                        })
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        let rows: Vec<_> = rows.collect();
        let set = WorldSet::from_id_rows(&[("R", 2), ("S", 2)], rows, &symbols).unwrap();
        (set, symbols)
    }

    #[test]
    fn world_sets_split_into_a_core_and_ascending_deltas() {
        let big: &[_] = &[
            ("R", "a", "b"),
            ("R", "b", "c"),
            ("R", "c", "c"),
            ("S", "b", "1"),
        ];
        let small: &[_] = &[
            ("S", "b", "1"),
            ("R", "a", "b"),
            ("S", "c", "2"),
            ("S", "c", "2"),
        ];
        let (set, symbols) = world_set(&[big, small, big]);
        assert_eq!(set.len(), 2, "the repeated world is kept once");
        let core = set.core().to_database();
        assert_eq!(core.relation("R").unwrap().len(), 1);
        assert_eq!(core.relation("S").unwrap().len(), 1);
        // The smaller world comes first; each world is core ⊎ delta.
        let facts = |world: &[(&str, &str, &str)]| {
            world
                .iter()
                .map(|(r, x, y)| (r.to_string(), Tuple::strs([*x, *y])))
                .collect::<BTreeSet<_>>()
        };
        for (i, want) in [small, big].into_iter().enumerate() {
            let got: BTreeSet<_> = set
                .world(i)
                .ground_atoms()
                .into_iter()
                .map(|atom| (atom.relation.to_string(), atom.tuple))
                .collect();
            assert_eq!(got, facts(want), "world {i}");
        }
        // One 32-byte header per world; the shared rows are charged once.
        let r = 16 + 1;
        assert_eq!(
            set.exact_bytes(),
            2 * 32 + (r + 8) + (r + 8) + (r + 8) + (r + 16)
        );
        let (none, _) = world_set(&[]);
        assert!(none.is_empty());
        assert_eq!(none.exact_bytes(), 0);
        assert_eq!(symbols.lookup(&Value::str("never-stored")), None);
    }

    #[test]
    fn certain_answers_check_only_what_the_core_leaves() {
        let one: &[_] = &[("R", "a", "b"), ("S", "b", "1")];
        let two: &[_] = &[("R", "a", "b"), ("R", "b", "1"), ("R", "c", "d")];
        let three: &[_] = &[("R", "a", "b"), ("R", "c", "d"), ("S", "b", "1")];
        let (set, symbols) = world_set(&[one, two, three]);
        let xy = ["X".to_string(), "Y".to_string()];
        let certain = |q: &Formula| {
            let plan = CqPlan::compile(q, &xy).unwrap();
            let (rows, checked) = set.certain(&plan, intersect).unwrap();
            let want = (0..set.len())
                .map(|i| QueryEvaluator::new(&set.world(i)).answers(q, &xy).unwrap())
                .reduce(|a, b| a.intersection(&b).cloned().collect())
                .unwrap();
            assert_eq!(CqPlan::materialize(&rows, &symbols), want, "{q}");
            checked
        };
        // Q(core) = {(a, b)}; the smallest world leaves no candidate.
        assert_eq!(certain(&Formula::atom("R", vec!["X", "Y"])), 2);
        // (b, 1) is a candidate of the smallest world that the others
        // confirm, through `S` in one and `R` in the other.
        let either = Formula::Or(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::atom("S", vec!["X", "Y"]),
        ]);
        assert_eq!(certain(&either), 4);
        // A negated plan runs on every world.
        let negated = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::not(Formula::exists(
                vec!["Z"],
                Formula::atom("S", vec!["Y", "Z"]),
            )),
        ]);
        assert_eq!(certain(&negated), 3);
        // One world: the core is the world.
        let (single, _) = world_set(&[two]);
        let plan = CqPlan::compile(&negated, &xy).unwrap();
        assert_eq!(single.certain(&plan, intersect).unwrap().1, 1);
        let (none, _) = world_set(&[]);
        assert_eq!(
            none.certain(&plan, intersect).unwrap(),
            (BTreeSet::new(), 0)
        );
    }

    #[test]
    fn missing_relation_is_empty() {
        let (_, _, columnar) = fixture();
        let q = Formula::atom("Elsewhere", vec!["X"]);
        let plan = CqPlan::compile(&q, &["X".to_string()]).unwrap();
        assert!(plan.answers(&columnar).unwrap().is_empty());
    }

    #[test]
    fn arity_mismatch_errors_like_the_evaluator() {
        let (_, _, columnar) = fixture();
        let q = Formula::atom("R", vec!["X"]);
        let plan = CqPlan::compile(&q, &["X".to_string()]).unwrap();
        assert!(matches!(
            plan.answers(&columnar),
            Err(RelalgError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn negated_disjunction_is_two_anti_joins() {
        // R(X, Y) ∧ ¬(S(Y, X) ∨ R(Y, X)).
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::not(Formula::Or(vec![
                Formula::atom("S", vec!["Y", "X"]),
                Formula::atom("R", vec!["Y", "X"]),
            ])),
        ]);
        check_matches_evaluator(&q, &["X"]);
        check_matches_evaluator(&q, &["X", "Y"]);
    }

    #[test]
    fn negated_comparison_is_a_filter() {
        // R(X, Y) ∧ ¬(X = Y), R(X, Y) ∧ ¬(X < c), and a constant the table
        // never minted on either side.
        for (op, right) in [
            (CompareOp::Eq, Term::var("Y")),
            (CompareOp::Lt, Term::cnst("c")),
            (CompareOp::Eq, Term::cnst("never-stored")),
            (CompareOp::Geq, Term::cnst("never-stored")),
        ] {
            let q = Formula::and(vec![
                Formula::atom("R", vec!["X", "Y"]),
                Formula::not(Formula::compare(op, Term::var("X"), right)),
            ]);
            check_matches_evaluator(&q, &["X", "Y"]);
        }
        // Two constants the table never minted compare by value.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::eq(Term::cnst("never-stored"), Term::cnst("never-stored")),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
    }

    #[test]
    fn guarded_universals_run_as_anti_joins() {
        // R(X, Y) ∧ ∀Z (S(Y, Z) → Z = 1): comparison consequent.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::forall(
                vec!["Z"],
                Formula::implies(
                    Formula::atom("S", vec!["Y", "Z"]),
                    Formula::eq(Term::var("Z"), Term::cnst("1")),
                ),
            ),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
        // R(X, Y) ∧ ∀Z (R(Y, Z) → R(Z, Z)): atom consequent.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::forall(
                vec!["Z"],
                Formula::implies(
                    Formula::atom("R", vec!["Y", "Z"]),
                    Formula::atom("R", vec!["Z", "Z"]),
                ),
            ),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
    }

    #[test]
    fn example2_rewriting_runs_on_the_plan() {
        // Q'' of Example 2: [R1(x,y) ∧ ∀z1 (R3(x,z1) ∧ ¬∃z2 R2(x,z2) → z1 = y)] ∨ R2(x,y).
        let mut db = Database::new();
        for r in ["R1", "R2", "R3"] {
            db.add_relation(Relation::new(RelationSchema::new(r, &["x", "y"])));
        }
        for (r, a, b) in [
            ("R1", "a", "b"),
            ("R1", "s", "t"),
            ("R2", "c", "d"),
            ("R2", "a", "e"),
            ("R3", "a", "f"),
            ("R3", "s", "u"),
        ] {
            db.insert(r, Tuple::strs([a, b])).unwrap();
        }
        let guard = Formula::forall(
            vec!["Z1"],
            Formula::implies(
                Formula::and(vec![
                    Formula::atom("R3", vec!["X", "Z1"]),
                    Formula::not(Formula::exists(
                        vec!["Z2"],
                        Formula::atom("R2", vec!["X", "Z2"]),
                    )),
                ]),
                Formula::eq(Term::var("Z1"), Term::var("Y")),
            ),
        );
        let q = Formula::or(vec![
            Formula::and(vec![Formula::atom("R1", vec!["X", "Y"]), guard]),
            Formula::atom("R2", vec!["X", "Y"]),
        ]);
        let free = vec!["X".to_string(), "Y".to_string()];
        let symbols = Arc::new(SymbolTable::new());
        let columnar = ColumnarDatabase::from_database(&db, &symbols);
        let plan = CqPlan::compile(&q, &free).expect("guarded rewriting compiles");
        let got = CqPlan::materialize(&plan.answers(&columnar).unwrap(), &symbols);
        assert_eq!(got, QueryEvaluator::new(&db).answers(&q, &free).unwrap());
        assert_eq!(
            got,
            BTreeSet::from([
                Tuple::strs(["a", "b"]),
                Tuple::strs(["c", "d"]),
                Tuple::strs(["a", "e"]),
            ])
        );
    }

    #[test]
    fn conjunction_distributes_over_disjunction() {
        // (R(X, Y) ∨ S(X, Y)) ∧ ∃Z (R(Y, Z) ∨ S(Y, Z)).
        let q = Formula::and(vec![
            Formula::Or(vec![
                Formula::atom("R", vec!["X", "Y"]),
                Formula::atom("S", vec!["X", "Y"]),
            ]),
            Formula::exists(
                vec!["Z"],
                Formula::Or(vec![
                    Formula::atom("R", vec!["Y", "Z"]),
                    Formula::atom("S", vec!["Y", "Z"]),
                ]),
            ),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
    }

    #[test]
    fn quantifiers_shadow_outer_variables() {
        // R(X, Y) ∧ ∃Y S(X, Y): the existential's Y is its own.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::exists(vec!["Y"], Formula::atom("S", vec!["X", "Y"])),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
        // R(X, Y) ∧ ∀Y (R(X, Y) → ¬∃Y S(Y, Y)): nested shadowing.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::forall(
                vec!["Y"],
                Formula::implies(
                    Formula::atom("R", vec!["X", "Y"]),
                    Formula::not(Formula::exists(
                        vec!["Y"],
                        Formula::atom("S", vec!["Y", "Y"]),
                    )),
                ),
            ),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
    }

    #[test]
    fn arity_mismatch_under_negation_matches_nothing() {
        // ∀Z (R(X, Z, Z) → Z = Y): no stored R tuple has three columns, so
        // the universal holds vacuously (like `Database::holds`).
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::forall(
                vec!["Z"],
                Formula::implies(
                    Formula::atom("R", vec!["X", "Z", "Z"]),
                    Formula::eq(Term::var("Z"), Term::var("Y")),
                ),
            ),
        ]);
        check_matches_evaluator(&q, &["X", "Y"]);
    }

    #[test]
    fn out_of_fragment_formulas_do_not_compile() {
        let x = "X".to_string();
        // Unsafe negation: no positive atom binds the negated variables.
        assert!(CqPlan::compile(
            &Formula::not(Formula::atom("R", vec!["X", "Y"])),
            std::slice::from_ref(&x)
        )
        .is_none());
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::not(Formula::atom("S", vec!["Y", "Z"])),
        ]);
        assert!(CqPlan::compile(&q, &[x.clone(), "Y".to_string()]).is_none());
        // Unguarded universals: ∀Z S(X, Z), ∀Z (Z = Y), and a quantified
        // variable no atom of the universal mentions.
        for body in [
            Formula::atom("S", vec!["X", "Z"]),
            Formula::eq(Term::var("Z"), Term::var("Y")),
            Formula::implies(
                Formula::atom("S", vec!["X", "Y"]),
                Formula::atom("R", vec!["Y", "X"]),
            ),
        ] {
            let q = Formula::and(vec![
                Formula::atom("R", vec!["X", "Y"]),
                Formula::forall(vec!["Z"], body),
            ]);
            assert!(
                CqPlan::compile(&q, std::slice::from_ref(&x)).is_none(),
                "{q}"
            );
        }
        // A bare implication.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::implies(
                Formula::atom("S", vec!["X", "Y"]),
                Formula::atom("R", vec!["Y", "X"]),
            ),
        ]);
        assert!(CqPlan::compile(&q, std::slice::from_ref(&x)).is_none());
        // Unbound free variable in a disjunct.
        let q = Formula::Or(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::atom("S", vec!["Z", "W"]),
        ]);
        assert!(CqPlan::compile(&q, &[x.clone(), "Y".to_string()]).is_none());
        // Filter over a variable no atom binds.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::compare(CompareOp::Eq, Term::var("Free"), Term::cnst("v")),
        ]);
        assert!(CqPlan::compile(&q, std::slice::from_ref(&x)).is_none());
        // ∧ over seven ∨s distributes into 128 blocks, past MAX_BLOCKS.
        let either = Formula::Or(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::atom("S", vec!["X", "Y"]),
        ]);
        assert!(CqPlan::compile(
            &Formula::And(vec![either.clone(); 6]),
            std::slice::from_ref(&x)
        )
        .is_some());
        assert!(CqPlan::compile(&Formula::And(vec![either; 7]), &[x]).is_none());
    }

    #[test]
    fn exact_bytes_counts_ids() {
        let (_, _, columnar) = fixture();
        let r = columnar.relation("R").unwrap();
        // 4 rows × 2 columns × 4 bytes + name
        assert_eq!(r.exact_bytes(), 1 + 32);
        assert_eq!(columnar.exact_bytes(), 32 + (16 + 1 + 32) + (16 + 1 + 24));
    }

    #[test]
    fn columnar_rows_follow_relation_order() {
        let (db, symbols, columnar) = fixture();
        let rel = db.relation("R").unwrap();
        let col = columnar.relation("R").unwrap();
        for (row, tuple) in rel.iter().enumerate() {
            for (c, value) in tuple.iter().enumerate() {
                assert_eq!(
                    symbols.resolve(Symbol::from_id(col.columns[c][row])),
                    *value
                );
            }
        }
    }

    /// `WorldSet::from_id_rows` as it was before it ended in
    /// [`WorldSet::from_split`]: every world's rows sorted, equal worlds
    /// dropped by hashing, the core and deltas merged and built directly.
    fn reference_world_set(
        relations: &[(&str, usize)],
        worlds: &[Vec<Vec<Vec<u32>>>],
        symbols: &Arc<SymbolTable>,
    ) -> Result<WorldSet> {
        let worlds: Vec<Vec<Vec<&[u32]>>> = worlds
            .iter()
            .map(|world| {
                let mut world: Vec<Vec<&[u32]>> = world
                    .iter()
                    .map(|rows| rows.iter().map(Vec::as_slice).collect())
                    .collect();
                for rows in &mut world {
                    rows.sort_unstable();
                    rows.dedup();
                }
                world
            })
            .collect();
        let mut seen = HashSet::new();
        let distinct: Vec<_> = worlds.iter().filter(|w| seen.insert(*w)).collect();
        let database = |blocks: Vec<(&str, usize, Vec<&[u32]>)>| {
            let blocks = blocks
                .iter()
                .map(|(name, arity, rows)| (*name, *arity, &rows[..]));
            ColumnarDatabase::from_id_rows(blocks, symbols)
        };
        let core: Vec<Vec<&[u32]>> = match distinct.split_first() {
            None => Vec::new(),
            Some((first, rest)) => (0..relations.len())
                .map(|slot| {
                    let mut shared = first[slot].clone();
                    for world in rest {
                        shared = merge(&shared, &world[slot], true);
                    }
                    shared
                })
                .collect(),
        };
        let mut deltas = distinct
            .iter()
            .map(|world| {
                let blocks = relations
                    .iter()
                    .zip(world.iter().zip(&core))
                    .map(|(&(name, arity), (rows, shared))| {
                        (name, arity, merge(shared, rows, false))
                    })
                    .filter(|(_, _, rows)| !rows.is_empty())
                    .collect();
                database(blocks)
            })
            .collect::<Result<Vec<_>>>()?;
        deltas.sort_by_key(ColumnarDatabase::row_count);
        let core = relations
            .iter()
            .zip(core)
            .map(|(&(name, arity), rows)| (name, arity, rows))
            .collect();
        Ok(WorldSet {
            core: database(core)?,
            deltas,
        })
    }

    /// The same blocks, row for row, in the same order, at the same cost.
    fn assert_same_set(got: &WorldSet, want: &WorldSet, context: &str) {
        let blocks = |db: &ColumnarDatabase| db.relations().cloned().collect::<Vec<_>>();
        assert_eq!(blocks(&got.core), blocks(&want.core), "{context}: core");
        assert_eq!(got.len(), want.len(), "{context}: world count");
        for (i, (g, w)) in got.deltas.iter().zip(&want.deltas).enumerate() {
            assert_eq!(blocks(g), blocks(w), "{context}: delta {i}");
        }
        assert_eq!(got.exact_bytes(), want.exact_bytes(), "{context}: bytes");
    }

    #[test]
    fn split_constructor_builds_the_reference_world_sets() {
        const RELATIONS: [(&str, usize); 3] = [("R", 2), ("S", 1), ("E", 3)];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let symbols = Arc::new(SymbolTable::new());
        for case in 0..400 {
            // A few rows over a small domain, so that worlds overlap and
            // rows repeat within a world.
            let world = |next: &mut dyn FnMut(u64) -> u64| -> Vec<Vec<Vec<u32>>> {
                RELATIONS
                    .iter()
                    .map(|&(_, arity)| {
                        let rows = if arity == 3 { next(2) } else { next(6) };
                        (0..rows)
                            .map(|_| (0..arity).map(|_| next(3) as u32).collect())
                            .collect()
                    })
                    .collect()
            };
            let worlds: Vec<Vec<Vec<Vec<u32>>>> = match case % 4 {
                0 => (0..next(2)).map(|_| world(&mut next)).collect(),
                1 => vec![world(&mut next)],
                2 => {
                    let one = world(&mut next);
                    let other = world(&mut next);
                    vec![one.clone(), other, one.clone(), one]
                }
                _ => (0..2 + next(4)).map(|_| world(&mut next)).collect(),
            };
            let context = format!("case {case}: {worlds:?}");
            let want = reference_world_set(&RELATIONS, &worlds, &symbols).unwrap();
            let got = WorldSet::from_id_rows(&RELATIONS, worlds.clone(), &symbols).unwrap();
            assert_same_set(&got, &want, &format!("from_id_rows, {context}"));
            // The split by sets of `(relation, row)`, each part listed in
            // reverse order for the constructor to sort.
            let sets: Vec<BTreeSet<(usize, &[u32])>> = worlds
                .iter()
                .map(|world| {
                    let slots = world.iter().enumerate();
                    slots
                        .flat_map(|(slot, rows)| rows.iter().map(move |row| (slot, &row[..])))
                        .collect()
                })
                .collect();
            let mut distinct: Vec<&BTreeSet<(usize, &[u32])>> = Vec::new();
            for set in &sets {
                if !distinct.contains(&set) {
                    distinct.push(set);
                }
            }
            let core = distinct
                .split_first()
                .map_or(BTreeSet::new(), |(first, rest)| {
                    let shared = (*first).clone();
                    rest.iter().fold(shared, |core, set| {
                        core.intersection(set).copied().collect()
                    })
                });
            let deltas: Vec<Vec<(usize, &[u32])>> = distinct
                .iter()
                .map(|set| {
                    let rows: Vec<_> = set.difference(&core).copied().collect();
                    rows.into_iter().rev().collect()
                })
                .collect();
            let core: Vec<(usize, &[u32])> = core.into_iter().rev().collect();
            let got = WorldSet::from_split(&RELATIONS, core, deltas, &symbols).unwrap();
            assert_same_set(&got, &want, &format!("from_split, {context}"));
        }
        let long: Vec<Vec<Vec<u32>>> = vec![vec![vec![1, 2, 3]], vec![], vec![]];
        for set in [
            reference_world_set(&RELATIONS, std::slice::from_ref(&long), &symbols),
            WorldSet::from_id_rows(&RELATIONS, [long.clone()], &symbols),
            WorldSet::from_split(
                &RELATIONS,
                vec![(0, &long[0][0][..])],
                vec![vec![]],
                &symbols,
            ),
        ] {
            assert!(matches!(
                set,
                Err(RelalgError::ArityMismatch { found: 3, .. })
            ));
        }
    }
}
