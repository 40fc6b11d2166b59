//! Columnar relation storage and join kernels over interned symbols.
//!
//! A [`ColumnarRelation`] stores one `Vec<u32>` block per attribute — each
//! value replaced by its [`Symbol`] id from a shared [`SymbolTable`] — so a
//! conjunctive query can be answered entirely with integer comparisons and
//! dense hashing; strings are materialized only at the answer boundary
//! ([`CqPlan::materialize`]). Row order matches the source
//! [`Relation`]'s deterministic `BTreeSet` iteration order, so two columnar
//! snapshots of equal relations are bit-identical.
//!
//! [`CqPlan`] compiles the safe conjunctive fragment of [`Formula`] (atoms,
//! conjunction, disjunction, existentials, comparisons over bound
//! variables, and negated atoms `¬A` / `¬∃Ȳ A` over bound variables) into a
//! pipeline of hash-join, semi-join and anti-join kernel steps. Any formula
//! outside the fragment (universals, implications, unsafe negation) fails
//! to compile ([`CqPlan::compile`] returns `None`); callers decode the
//! instance with [`ColumnarDatabase::to_database`] and run the general
//! active-domain [`QueryEvaluator`](crate::query::QueryEvaluator) — the plan
//! is a fast path, never a semantic fork.

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
    /// Intern a relation into column blocks. Row order is the relation's
    /// own deterministic iteration order.
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

    /// The id at (row, column).
    fn id_at(&self, row: usize, col: usize) -> u32 {
        self.columns[col][row]
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
                let values: Vec<Value> = rel
                    .columns
                    .iter()
                    .map(|col| self.symbols.resolve(Symbol::from_id(col[r])))
                    .collect();
                relation
                    .insert(Tuple::from(values))
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
        32 + self
            .relations
            .values()
            .map(|r| 16 + r.exact_bytes())
            .sum::<usize>()
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
    /// Variable: index into the plan's variable list.
    Var(usize),
}

/// One relational atom step of a conjunct.
#[derive(Debug, Clone)]
struct AtomStep {
    relation: String,
    terms: Vec<PlanTerm>,
}

/// One comparison filter applied once both sides are bound.
#[derive(Debug, Clone)]
struct FilterStep {
    op: CompareOp,
    left: PlanTerm,
    right: PlanTerm,
}

/// One conjunctive block: atoms joined left to right, then filters, then
/// anti-joins against the negated atoms.
#[derive(Debug, Clone, Default)]
struct Conjunct {
    atoms: Vec<AtomStep>,
    filters: Vec<FilterStep>,
    /// Safely negated atoms (`¬A` / `¬∃Ȳ A`). Their variables are either
    /// bound by `atoms` or local to the negation (`Ȳ`); a local never
    /// appears anywhere else, so the kernel reads it as a wildcard.
    negated: Vec<AtomStep>,
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
    /// (column, plan variable) — the first column of each fresh variable.
    fresh: Vec<(usize, usize)>,
    /// (column, earlier column of the same fresh variable).
    repeats: Vec<(usize, usize)>,
}

impl Access {
    /// Resolve an atom against the variables bound so far. `None` when a
    /// constant was never minted by the table: the atom matches nothing
    /// (and the constant is only looked up, never interned).
    fn resolve(atom: &AtomStep, symbols: &SymbolTable, bound: &[usize]) -> Option<Access> {
        let mut access = Access::default();
        let mut first_col: HashMap<usize, usize> = HashMap::new();
        for (col, term) in atom.terms.iter().enumerate() {
            match term {
                PlanTerm::Const(value) => access.consts.push((col, symbols.lookup(value)?.id())),
                PlanTerm::Var(var) => {
                    if let Some(earlier) = first_col.get(var) {
                        access.repeats.push((col, *earlier));
                    } else {
                        first_col.insert(*var, col);
                        match bound.iter().position(|b| b == var) {
                            Some(pos) => access.keys.push((col, pos)),
                            None => access.fresh.push((col, *var)),
                        }
                    }
                }
            }
        }
        Some(access)
    }

    /// Does stored row `r` agree with the atom's constants and repeats?
    fn matches(&self, rel: &ColumnarRelation, r: usize) -> bool {
        self.consts
            .iter()
            .all(|(col, id)| rel.id_at(r, *col) == *id)
            && self
                .repeats
                .iter()
                .all(|(col, earlier)| rel.id_at(r, *col) == rel.id_at(r, *earlier))
    }

    /// The join key of stored row `r`.
    fn stored_key(&self, rel: &ColumnarRelation, r: usize) -> Vec<u32> {
        self.keys
            .iter()
            .map(|(col, _)| rel.id_at(r, *col))
            .collect()
    }

    /// The join key of a binding row.
    fn probe(&self, row: &[u32]) -> Vec<u32> {
        self.keys.iter().map(|(_, pos)| row[*pos]).collect()
    }

    /// The key of every matching stored row: the semi-join and anti-join
    /// kernels test binding rows for membership in this set (an atom with
    /// no bound variables has the empty key, present iff any row matches).
    fn key_set(&self, rel: &ColumnarRelation) -> HashSet<Vec<u32>> {
        (0..rel.rows())
            .filter(|r| self.matches(rel, *r))
            .map(|r| self.stored_key(rel, r))
            .collect()
    }
}

/// A compiled conjunctive plan: a union of conjuncts, each evaluated with
/// hash-join / semi-join / anti-join kernels over interned ids, projected
/// onto the query's free variables.
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
    /// All variables of the plan, in first-seen order.
    vars: Vec<String>,
    /// Positions of the query's free variables inside `vars`.
    output: Vec<usize>,
    /// Union of conjunctive blocks (one for a plain conjunctive query).
    disjuncts: Vec<Conjunct>,
}

/// Compile-time variable numbering shared by every block of one plan.
#[derive(Default)]
struct Compiler {
    vars: Vec<String>,
    var_index: HashMap<String, usize>,
}

impl Compiler {
    /// The plan variable named `name`, numbered on first sight.
    fn var(&mut self, name: &str) -> usize {
        if let Some(&idx) = self.var_index.get(name) {
            return idx;
        }
        self.vars.push(name.to_string());
        self.var_index.insert(name.to_string(), self.vars.len() - 1);
        self.vars.len() - 1
    }

    fn term(&mut self, term: &Term) -> PlanTerm {
        match term {
            Term::Const(v) => PlanTerm::Const(v.clone()),
            Term::Var(name) => PlanTerm::Var(self.var(name)),
        }
    }

    /// Compile one conjunctive block, flattening nested `And`/`Exists`.
    fn conjunct(
        &mut self,
        block: &Formula,
        free_vars: &[String],
        outer_scope: &HashSet<String>,
    ) -> Option<Conjunct> {
        let mut out = Conjunct::default();
        let mut locals = HashSet::new();
        let mut scope = outer_scope.clone();
        self.flatten(block, &mut scope, &mut out, &mut locals)?;
        // Safety: every free variable, every filter variable and every
        // non-local variable of a negated atom must be bound by some
        // positive atom of this block.
        let bound: HashSet<usize> = out
            .atoms
            .iter()
            .flat_map(|a| a.terms.iter())
            .filter_map(|t| match t {
                PlanTerm::Var(i) => Some(*i),
                PlanTerm::Const(_) => None,
            })
            .collect();
        let is_safe = |t: &PlanTerm| match t {
            PlanTerm::Var(i) => bound.contains(i) || locals.contains(i),
            PlanTerm::Const(_) => true,
        };
        let safe = free_vars.iter().all(|v| bound.contains(&self.var_index[v]))
            && out
                .filters
                .iter()
                .flat_map(|f| [&f.left, &f.right])
                .chain(out.negated.iter().flat_map(|a| a.terms.iter()))
                .all(is_safe);
        safe.then_some(out)
    }

    /// Recursive flattening of a conjunctive block into atom, filter and
    /// negation steps. Bails (returns `None`) on any construct outside the
    /// fragment.
    fn flatten(
        &mut self,
        f: &Formula,
        scope: &mut HashSet<String>,
        out: &mut Conjunct,
        locals: &mut HashSet<usize>,
    ) -> Option<()> {
        match f {
            Formula::True => Some(()),
            Formula::Atom { relation, terms } => {
                let terms = terms.iter().map(|t| self.term(t)).collect();
                out.atoms.push(AtomStep {
                    relation: relation.clone(),
                    terms,
                });
                Some(())
            }
            Formula::Compare { op, left, right } => {
                out.filters.push(FilterStep {
                    op: *op,
                    left: self.term(left),
                    right: self.term(right),
                });
                Some(())
            }
            Formula::And(parts) => {
                for p in parts {
                    self.flatten(p, scope, out, locals)?;
                }
                Some(())
            }
            Formula::Exists(qvars, inner) => {
                for v in qvars {
                    if !scope.insert(v.clone()) {
                        return None; // shadowing: fall back to the evaluator
                    }
                }
                self.flatten(inner, scope, out, locals)
            }
            // Safe negation `¬A` / `¬∃Ȳ A`: an anti-join step. Each `Ȳ`
            // gets a slot of its own, so it is scoped to this negation
            // exactly like the evaluator's quantifier.
            Formula::Not(inner) => {
                let (qvars, body) = match inner.as_ref() {
                    Formula::Exists(qvars, body) => (qvars.as_slice(), body.as_ref()),
                    other => (&[][..], other),
                };
                let Formula::Atom { relation, terms } = body else {
                    return None;
                };
                let mut own: HashMap<&str, usize> = HashMap::new();
                let terms = terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(name) if qvars.contains(name) => {
                            PlanTerm::Var(*own.entry(name).or_insert_with(|| {
                                self.vars.push(name.clone());
                                self.vars.len() - 1
                            }))
                        }
                        t => self.term(t),
                    })
                    .collect();
                locals.extend(own.into_values());
                out.negated.push(AtomStep {
                    relation: relation.clone(),
                    terms,
                });
                Some(())
            }
            // Outside the fragment.
            Formula::False | Formula::Or(_) | Formula::Implies(..) | Formula::Forall(..) => None,
        }
    }
}

impl CqPlan {
    /// Compile the safe conjunctive fragment: outer existentials, a
    /// top-level disjunction of conjunctive blocks (each binding every free
    /// variable), atoms, comparisons whose variables the atoms bind, and
    /// safe negation `¬A` / `¬∃Ȳ A` whose other variables the block's
    /// positive atoms bind. Returns `None` for anything else — universals,
    /// implications, unsafe negation or comparisons — which callers
    /// evaluate with the general
    /// [`QueryEvaluator`](crate::query::QueryEvaluator).
    pub fn compile(query: &Formula, free_vars: &[String]) -> Option<CqPlan> {
        let mut compiler = Compiler::default();
        for v in free_vars {
            compiler.var(v);
        }
        // Strip outer existentials; their variables must not shadow free
        // variables (the evaluator would scope them, the flat plan cannot).
        let mut scope: HashSet<String> = free_vars.iter().cloned().collect();
        let mut inner = query;
        while let Formula::Exists(qvars, f) = inner {
            for v in qvars {
                if !scope.insert(v.clone()) {
                    return None;
                }
            }
            inner = f;
        }
        let blocks: Vec<&Formula> = match inner {
            Formula::Or(parts) => parts.iter().collect(),
            other => vec![other],
        };
        let disjuncts = blocks
            .into_iter()
            .map(|block| compiler.conjunct(block, free_vars, &scope))
            .collect::<Option<Vec<_>>>()?;
        let output = free_vars.iter().map(|v| compiler.var_index[v]).collect();
        Some(CqPlan {
            vars: compiler.vars,
            output,
            disjuncts,
        })
    }

    /// All variables of the plan, in first-seen binding order (free
    /// variables first), including the local variables of negated atoms.
    pub fn variables(&self) -> &[String] {
        &self.vars
    }

    /// Evaluate the plan over a columnar instance: per-disjunct hash joins,
    /// semi-joins and anti-joins over interned ids, unioned and projected
    /// onto the free variables. Rows come back as id vectors; materialize
    /// them with [`CqPlan::materialize`] only at the answer boundary.
    pub fn answers(&self, db: &ColumnarDatabase) -> Result<BTreeSet<Vec<u32>>> {
        let mut out = BTreeSet::new();
        for conjunct in &self.disjuncts {
            self.eval_conjunct(conjunct, db, &mut out)?;
        }
        Ok(out)
    }

    /// Evaluate one conjunct, projecting onto the output variables into
    /// `out`.
    fn eval_conjunct(
        &self,
        conjunct: &Conjunct,
        db: &ColumnarDatabase,
        out: &mut BTreeSet<Vec<u32>>,
    ) -> Result<()> {
        let symbols = db.symbols();
        // Binding rows over the subset of plan variables bound so far.
        let mut bound: Vec<usize> = Vec::new();
        let mut rows: Vec<Vec<u32>> = vec![Vec::new()];
        for atom in &conjunct.atoms {
            let Some(rel) = db.relation(&atom.relation) else {
                // Undeclared relations are empty (mirrors the evaluator).
                return Ok(());
            };
            if rel.arity() != atom.terms.len() {
                return Err(RelalgError::ArityMismatch {
                    relation: atom.relation.clone(),
                    expected: rel.arity(),
                    found: atom.terms.len(),
                });
            }
            // An unseen constant empties the atom, and with it the conjunct.
            let Some(access) = Access::resolve(atom, symbols, &bound) else {
                return Ok(());
            };
            if access.fresh.is_empty() {
                // Semi-join kernel: the atom introduces no new variables, so
                // it only filters existing binding rows by key membership.
                let present = access.key_set(rel);
                rows.retain(|row| present.contains(&access.probe(row)));
            } else {
                // Hash-join kernel: index matching relation rows by their
                // join-key projection, probe with every binding row, emit
                // rows extended with the fresh columns.
                let mut index: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
                for r in 0..rel.rows() {
                    if access.matches(rel, r) {
                        index.entry(access.stored_key(rel, r)).or_default().push(r);
                    }
                }
                let mut next = Vec::new();
                for row in &rows {
                    if let Some(matches) = index.get(&access.probe(row)) {
                        for &r in matches {
                            let mut extended = row.clone();
                            extended.extend(access.fresh.iter().map(|(col, _)| rel.id_at(r, *col)));
                            next.push(extended);
                        }
                    }
                }
                bound.extend(access.fresh.iter().map(|(_, var)| *var));
                rows = next;
            }
            if rows.is_empty() {
                return Ok(());
            }
        }
        // Filters: ids decide equality directly; ordered comparisons
        // resolve to values (rare in the hot path).
        for filter in &conjunct.filters {
            let side = |term: &PlanTerm, row: &[u32]| -> Option<u32> {
                match term {
                    PlanTerm::Const(v) => symbols.lookup(v).map(Symbol::id),
                    PlanTerm::Var(v) => {
                        let pos = bound.iter().position(|b| b == v).expect("filter var bound");
                        Some(row[pos])
                    }
                }
            };
            rows.retain(|row| {
                let left = side(&filter.left, row);
                let right = side(&filter.right, row);
                match (filter.op, left, right) {
                    (CompareOp::Eq, Some(l), Some(r)) => l == r,
                    (CompareOp::Eq, _, _) => false, // unseen const equals nothing stored
                    (CompareOp::Neq, Some(l), Some(r)) => l != r,
                    (CompareOp::Neq, _, _) => true,
                    (op, l, r) => {
                        // Ordered comparison: fall back to value order. An
                        // unseen constant resolves from the filter itself.
                        let resolve = |term: &PlanTerm, id: Option<u32>| -> Value {
                            match (term, id) {
                                (_, Some(id)) => symbols.resolve(Symbol::from_id(id)),
                                (PlanTerm::Const(v), None) => v.clone(),
                                (PlanTerm::Var(_), None) => unreachable!("vars always resolve"),
                            }
                        };
                        op.apply(&resolve(&filter.left, l), &resolve(&filter.right, r))
                    }
                }
            });
        }
        // Anti-join kernel: drop the binding rows whose key some stored row
        // of the negated atom matches; the negation's local variables are
        // never bound, so they resolve as wildcard columns. A missing
        // relation, an arity no stored tuple has or an unseen constant
        // matches nothing, and the negation keeps every row (mirrors
        // `Database::holds`).
        for atom in &conjunct.negated {
            let Some(rel) = db
                .relation(&atom.relation)
                .filter(|rel| rel.arity() == atom.terms.len())
            else {
                continue;
            };
            let Some(access) = Access::resolve(atom, symbols, &bound) else {
                continue;
            };
            let present = access.key_set(rel);
            rows.retain(|row| !present.contains(&access.probe(row)));
        }
        // Project onto the output variables.
        for row in rows {
            out.insert(
                self.output
                    .iter()
                    .map(|var| {
                        let pos = bound.iter().position(|b| b == var).expect("output bound");
                        row[pos]
                    })
                    .collect(),
            );
        }
        Ok(())
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
        // Negation of anything but an atom (or ∃ over one).
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::not(Formula::Or(vec![
                Formula::atom("S", vec!["Y", "X"]),
                Formula::atom("R", vec!["Y", "X"]),
            ])),
        ]);
        assert!(CqPlan::compile(&q, std::slice::from_ref(&x)).is_none());
        // Universals and implications.
        let q = Formula::and(vec![
            Formula::atom("R", vec!["X", "Y"]),
            Formula::forall(vec!["Z"], Formula::atom("S", vec!["X", "Z"])),
        ]);
        assert!(CqPlan::compile(&q, std::slice::from_ref(&x)).is_none());
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
        assert!(CqPlan::compile(&q, &[x]).is_none());
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
                assert_eq!(symbols.resolve(Symbol::from_id(col.id_at(row, c))), *value);
            }
        }
    }
}
