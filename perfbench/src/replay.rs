//! The layer replay: an operation re-run through the public call of each
//! layer, following the engine's own path, so that every layer gets a span
//! of its own and every answer gets an independent oracle.
//!
//! * on a miss: pin, hydrate, encode, relevance, ground, solve, decode,
//!   index, then evaluate;
//! * on a hit: evaluate only, over the worlds the replay prepared itself;
//! * on a commit: patch, solve, decode and index each affected slice.
//!
//! Where the engine's step is private, the replay calls the nearest public
//! function (hydration calls `Snapshot::instance_of` per closure peer; the
//! relevance seeds are rebuilt from the query the way the engine builds
//! them). The replay shares the engine's symbol table, as the engine's own
//! preparation does.

use crate::inputs::{Answer, QueryOp};
use crate::trace::Tracer;
use datalog::{AnswerSets, GroundAtom, Grounder, IncrementalGround, QuerySeed, SolverConfig};
use pdes_core::asp::encode::encode_value_shared;
use pdes_core::asp::{
    annotated_program_with, transitive_program_with, AnnotatedSpec, TransitiveSpec,
};
use pdes_core::solution::{solutions_for, SolutionOptions};
use pdes_core::{P2PSystem, PeerId, QueryEngine, StrategyKind};
use pdes_exec::Executor;
use relalg::query::{Formula, QueryEvaluator};
use relalg::{ColumnarDatabase, CqPlan, Database, Delta, SymbolTable};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::fmt::Write as _;
use std::sync::Arc;

type Result<T> = std::result::Result<T, String>;

fn err(e: impl Display) -> String {
    e.to_string()
}

enum Spec {
    Direct(AnnotatedSpec),
    Transitive(TransitiveSpec),
}

impl Spec {
    fn program(&self) -> &datalog::Program {
        match self {
            Spec::Direct(spec) => &spec.program,
            Spec::Transitive(spec) => &spec.program,
        }
    }

    fn solution_predicate(&self, system: &P2PSystem, relation: &str) -> String {
        match self {
            Spec::Direct(spec) => spec.solution_predicate(relation),
            Spec::Transitive(spec) => spec.solution_predicate(system, relation),
        }
    }

    fn solution_databases(&self, system: &P2PSystem, sets: &AnswerSets) -> Result<Vec<Database>> {
        match self {
            Spec::Direct(spec) => spec.solution_databases(sets),
            Spec::Transitive(spec) => spec.solution_databases(system, sets),
        }
        .map_err(err)
    }
}

/// Prepared worlds in both representations the engine keeps.
pub struct Worlds {
    databases: Vec<Database>,
    columnar: Vec<ColumnarDatabase>,
}

/// One grounded and solved ASP slice with its retained grounding state.
struct Slice {
    closure: BTreeSet<PeerId>,
    system: P2PSystem,
    spec: Spec,
    state: IncrementalGround,
    worlds: Worlds,
}

/// Replays engine operations and keeps the worlds it prepared, keyed the
/// way the engine keys its cache.
pub struct Replayer {
    symbols: Arc<SymbolTable>,
    config: SolverConfig,
    options: SolutionOptions,
    slices: Vec<Slice>,
    /// `(peer, transitive, query-shape key)` → slice.
    by_shape: BTreeMap<(PeerId, bool, String), usize>,
    /// `(peer, transitive, relevance fingerprint)` → slice.
    by_fingerprint: BTreeMap<(PeerId, bool, String), usize>,
    naive: BTreeMap<PeerId, Worlds>,
    global: Option<Database>,
}

impl Replayer {
    /// A replayer mirroring `engine`'s configuration. The engine must run
    /// with its default relevance pruning and incremental re-grounding,
    /// which is the path the replay follows.
    pub fn for_engine(engine: &QueryEngine) -> Result<Replayer> {
        if !engine.relevance_pruning() || !engine.incremental_reground() {
            return Err("the replay follows the default relevance-pruned, incremental path".into());
        }
        Ok(Replayer {
            symbols: engine.pin().map_err(err)?.symbols(),
            config: engine.solver_config(),
            options: engine.solution_options(),
            slices: Vec::new(),
            by_shape: BTreeMap::new(),
            by_fingerprint: BTreeMap::new(),
            naive: BTreeMap::new(),
            global: None,
        })
    }

    /// Replay one answered operation. `hit` is the engine's own cache
    /// decision for it, which selects the path replayed.
    pub fn answer(
        &mut self,
        tr: &mut Tracer,
        engine: &QueryEngine,
        op: &QueryOp,
        hit: bool,
    ) -> Result<Answer> {
        let (peer, query, vars) = (&op.query.peer, &op.query.query, &op.query.free_vars);
        match engine.resolve(op.strategy, peer, query) {
            kind @ (StrategyKind::Asp | StrategyKind::TransitiveAsp) => {
                let transitive = kind == StrategyKind::TransitiveAsp;
                let shape = (peer.clone(), transitive, shape_key(query, &self.symbols));
                let known = match self.by_shape.get(&shape) {
                    Some(&index) if hit => Some(index),
                    _ if hit => {
                        // A new query shape served from an existing slice:
                        // the engine encodes and analyses to find it.
                        let (spec, system) = self.encode(tr, engine, peer, transitive)?;
                        let fingerprint = self.relevance(tr, &spec, &system, query).1;
                        self.by_fingerprint
                            .get(&(peer.clone(), transitive, fingerprint))
                            .copied()
                    }
                    _ => None,
                };
                let index = match known {
                    Some(index) => index,
                    None => self.prepare_slice(tr, engine, peer, query, transitive)?,
                };
                self.by_shape.insert(shape, index);
                let worlds = &self.slices[index].worlds;
                eval(tr, &self.symbols, worlds, query, vars)
            }
            StrategyKind::Naive => {
                if !(hit && self.naive.contains_key(peer)) {
                    let worlds = self.prepare_naive(tr, engine, peer)?;
                    self.naive.insert(peer.clone(), worlds);
                }
                eval(tr, &self.symbols, &self.naive[peer], query, vars)
            }
            StrategyKind::Rewriting => {
                if !(hit && self.global.is_some()) {
                    let global = tr.span("global.instance", |tr| {
                        tr.span("store.pin", |_| engine.pin())
                            .and_then(|s| s.system())?
                            .global_instance()
                    });
                    self.global = Some(global.map_err(err)?);
                }
                let global = self.global.as_ref().expect("set above");
                let rewritten = tr
                    .span("rewrite", |_| {
                        pdes_core::rewrite_query(engine.topology(), peer, query)
                    })
                    .map_err(err)?;
                tr.span("rewrite.eval", |_| {
                    QueryEvaluator::new(global).answers(&rewritten, vars)
                })
                .map_err(err)
            }
            other => Err(format!("no replay for strategy {other:?}")),
        }
    }

    /// The relevance fingerprint of an ASP operation's slice: two queries
    /// with equal fingerprints share one prepared artifact.
    pub fn fingerprint(&self, engine: &QueryEngine, op: &QueryOp) -> Result<String> {
        let mut quiet = Tracer::new(false, std::time::Instant::now());
        let (peer, query) = (&op.query.peer, &op.query.query);
        let transitive = match engine.resolve(op.strategy, peer, query) {
            StrategyKind::Asp => false,
            StrategyKind::TransitiveAsp => true,
            other => return Err(format!("{other:?} grounds no slice")),
        };
        let (spec, system) = self.encode(&mut quiet, engine, peer, transitive)?;
        Ok(self.relevance(&mut quiet, &spec, &system, query).1)
    }

    /// Replay a committed delta against `peer`: every retained slice whose
    /// closure holds the peer and whose grounding reads a changed relation
    /// is patched, re-solved, decoded and indexed, as the engine's
    /// committing thread does. Naive worlds are dropped and the global
    /// instance is maintained, as in the engine.
    pub fn commit(&mut self, tr: &mut Tracer, peer: &PeerId, delta: &Delta) -> Result<()> {
        let insertions = program_atoms(&delta.insertions, &self.symbols);
        let deletions = program_atoms(&delta.deletions, &self.symbols);
        let relations = delta.relations();
        for slice in &mut self.slices {
            if !slice.closure.contains(peer) || !relations.iter().any(|r| slice.state.touches(r)) {
                continue;
            }
            let ground = tr.span("patch", |tr| {
                let patch = slice.state.apply_delta(&insertions, &deletions);
                let ground = slice.state.to_ground();
                tr.count(
                    "patch.reinstantiated_rules",
                    patch.reinstantiated_rules as f64,
                );
                tr.count("patch.rules", ground.rule_count() as f64);
                ground
            });
            let solved = solve(tr, ground, self.config)?;
            slice.worlds =
                decode_and_index(tr, &self.symbols, &slice.spec, &slice.system, &solved)?;
        }
        self.naive.clear();
        if let Some(global) = &self.global {
            self.global = Some(delta.apply(global).map_err(err)?);
        }
        Ok(())
    }

    /// Pin, then hydrate the closure of `peer` and encode its program.
    fn encode(
        &self,
        tr: &mut Tracer,
        engine: &QueryEngine,
        peer: &PeerId,
        transitive: bool,
    ) -> Result<(Spec, P2PSystem)> {
        let snapshot = tr.span("store.pin", |_| engine.pin()).map_err(err)?;
        let closure = engine.topology().dependencies_of(peer);
        let system = tr.span("store.hydrate", |_| {
            let mut system = engine.topology().clone();
            for member in &closure {
                system.set_instance(member, snapshot.instance_of(member)?)?;
            }
            Ok::<_, pdes_core::CoreError>(system)
        });
        let system = system.map_err(err)?;
        let symbols = Some(&*self.symbols);
        let spec = tr.span("asp.encode", |_| {
            if transitive {
                transitive_program_with(&system, peer, symbols).map(Spec::Transitive)
            } else {
                annotated_program_with(&system, peer, symbols).map(Spec::Direct)
            }
        });
        Ok((spec.map_err(err)?, system))
    }

    /// The relevance analysis of the query slice: the restricted program and
    /// its canonical fingerprint.
    fn relevance(
        &self,
        tr: &mut Tracer,
        spec: &Spec,
        system: &P2PSystem,
        query: &Formula,
    ) -> (datalog::Program, String) {
        tr.span("relevance", |tr| {
            let seeds: Vec<QuerySeed> = binding_patterns(query, &self.symbols)
                .into_iter()
                .map(|(relation, bindings)| {
                    QuerySeed::with_bindings(spec.solution_predicate(system, &relation), bindings)
                })
                .collect();
            let grounder = Grounder::new(spec.program());
            let analysis = grounder.relevance(&seeds);
            tr.count("relevance.kept_rules", analysis.kept_rule_count() as f64);
            tr.count("relevance.total_rules", analysis.total_rule_count() as f64);
            (
                analysis.restrict(grounder.program()),
                analysis.fingerprint(),
            )
        })
    }

    fn prepare_slice(
        &mut self,
        tr: &mut Tracer,
        engine: &QueryEngine,
        peer: &PeerId,
        query: &Formula,
        transitive: bool,
    ) -> Result<usize> {
        let (spec, system) = self.encode(tr, engine, peer, transitive)?;
        let (restricted, fingerprint) = self.relevance(tr, &spec, &system, query);
        let (state, ground) = tr
            .span("ground", |tr| {
                let state = IncrementalGround::new(&restricted)?;
                let ground = state.to_ground();
                tr.count("ground.rules", ground.rule_count() as f64);
                tr.count("ground.atoms", ground.atom_count() as f64);
                Ok::<_, datalog::DatalogError>((state, ground))
            })
            .map_err(err)?;
        let solved = solve(tr, ground, self.config)?;
        let worlds = decode_and_index(tr, &self.symbols, &spec, &system, &solved)?;
        let slice = Slice {
            closure: engine.topology().dependencies_of(peer),
            system,
            spec,
            state,
            worlds,
        };
        let key = (peer.clone(), transitive, fingerprint);
        let index = match self.by_fingerprint.get(&key) {
            Some(&index) => {
                self.slices[index] = slice;
                index
            }
            None => {
                self.slices.push(slice);
                self.slices.len() - 1
            }
        };
        self.by_fingerprint.insert(key, index);
        Ok(index)
    }

    fn prepare_naive(
        &self,
        tr: &mut Tracer,
        engine: &QueryEngine,
        peer: &PeerId,
    ) -> Result<Worlds> {
        let snapshot = tr.span("store.pin", |_| engine.pin()).map_err(err)?;
        let system = tr
            .span("store.hydrate", |_| snapshot.system())
            .map_err(err)?;
        let databases = tr
            .span("repair.solutions", |_| {
                solutions_for(&system, peer, self.options)?
                    .iter()
                    .map(|s| engine.topology().restrict_to_peer(&s.database, peer))
                    .collect::<pdes_core::Result<Vec<_>>>()
            })
            .map_err(err)?;
        Ok(index(tr, &self.symbols, databases))
    }
}

fn solve(
    tr: &mut Tracer,
    ground: datalog::GroundProgram,
    config: SolverConfig,
) -> Result<datalog::SolveResult> {
    let result = tr
        .span("solve", |_| {
            datalog::solve::solve_ground_with(ground, config, &Executor::sequential())
        })
        .map_err(err)?;
    tr.count("solve.branch_nodes", result.branch_nodes as f64);
    tr.count("asp.worlds", result.answer_sets.len() as f64);
    Ok(result)
}

/// Decode answer sets into per-world databases, then index them.
fn decode_and_index(
    tr: &mut Tracer,
    symbols: &Arc<SymbolTable>,
    spec: &Spec,
    system: &P2PSystem,
    solved: &datalog::SolveResult,
) -> Result<Worlds> {
    let databases = tr.span("asp.decode", |_| {
        let sets = AnswerSets {
            sets: solved
                .answer_sets
                .iter()
                .map(|s| solved.ground.decode(s))
                .collect(),
            branch_nodes: solved.branch_nodes,
            used_shift: solved.used_shift,
        };
        spec.solution_databases(system, &sets)
    })?;
    Ok(index(tr, symbols, databases))
}

fn index(tr: &mut Tracer, symbols: &Arc<SymbolTable>, databases: Vec<Database>) -> Worlds {
    let columnar: Vec<ColumnarDatabase> = tr.span("columnar.index", |_| {
        databases
            .iter()
            .map(|db| ColumnarDatabase::from_database(db, symbols))
            .collect()
    });
    let bytes: usize = columnar.iter().map(ColumnarDatabase::exact_bytes).sum();
    tr.count("columnar.bytes", bytes as f64);
    Worlds {
        databases,
        columnar,
    }
}

/// Certain answers over prepared worlds: the conjunctive-query kernels when
/// the query compiles to a `CqPlan`, the first-order evaluator otherwise.
fn eval(
    tr: &mut Tracer,
    symbols: &SymbolTable,
    worlds: &Worlds,
    query: &Formula,
    vars: &[String],
) -> Result<Answer> {
    let Some(plan) = tr.span("cq.compile", |_| CqPlan::compile(query, vars)) else {
        return tr.span("fo.eval", |_| {
            let mut certain: Option<Answer> = None;
            for db in &worlds.databases {
                let these = QueryEvaluator::new(db).answers(query, vars).map_err(err)?;
                certain = Some(match certain {
                    None => these,
                    Some(acc) => acc.intersection(&these).cloned().collect(),
                });
            }
            Ok(certain.unwrap_or_default())
        });
    };
    let (rows, produced) = tr.span("cq.eval", |_| {
        let mut certain: Option<BTreeSet<Vec<u32>>> = None;
        let mut produced = 0usize;
        for db in &worlds.columnar {
            let these = plan.answers(db).map_err(err)?;
            produced += these.len();
            certain = Some(match certain {
                None => these,
                Some(acc) => acc.intersection(&these).cloned().collect(),
            });
        }
        Ok::<_, String>((certain.unwrap_or_default(), produced))
    })?;
    tr.count("cq.rows", produced as f64);
    tr.count("cq.answers", rows.len() as f64);
    let tuples = tr.span("cq.materialize", |_| CqPlan::materialize(&rows, symbols));
    let bytes: usize = tuples
        .iter()
        .flat_map(|t| t.iter())
        .map(|v| v.to_string().len())
        .sum();
    tr.count("cq.materialized_bytes", bytes as f64);
    Ok(tuples)
}

/// A relational delta as program facts: relation names are the fact
/// predicates of the specification programs.
fn program_atoms(
    atoms: &BTreeSet<relalg::database::GroundAtom>,
    symbols: &SymbolTable,
) -> Vec<GroundAtom> {
    atoms
        .iter()
        .map(|atom| GroundAtom {
            predicate: atom.relation.to_string(),
            strong_neg: false,
            args: atom
                .tuple
                .iter()
                .map(|v| encode_value_shared(v, symbols))
                .collect(),
        })
        .collect()
}

/// Per relation of the query, position `i` is `Some(c)` exactly when every
/// occurrence of the relation carries the constant `c` there: the relevance
/// seeds the engine hands its grounder.
fn binding_patterns(
    query: &Formula,
    symbols: &SymbolTable,
) -> BTreeMap<String, Vec<Option<Arc<str>>>> {
    fn walk(
        query: &Formula,
        symbols: &SymbolTable,
        out: &mut BTreeMap<String, Vec<Option<Arc<str>>>>,
    ) {
        match query {
            Formula::Atom { relation, terms } => {
                let pattern: Vec<Option<Arc<str>>> = terms
                    .iter()
                    .map(|t| t.as_const().map(|v| encode_value_shared(v, symbols)))
                    .collect();
                match out.get_mut(relation) {
                    None => {
                        out.insert(relation.clone(), pattern);
                    }
                    Some(existing) if existing.len() != pattern.len() => {
                        existing.iter_mut().for_each(|slot| *slot = None);
                    }
                    Some(existing) => {
                        for (slot, new) in existing.iter_mut().zip(pattern) {
                            if *slot != new {
                                *slot = None;
                            }
                        }
                    }
                }
            }
            Formula::And(parts) | Formula::Or(parts) => {
                parts.iter().for_each(|p| walk(p, symbols, out));
            }
            Formula::Not(inner) | Formula::Exists(_, inner) | Formula::Forall(_, inner) => {
                walk(inner, symbols, out)
            }
            Formula::Implies(a, b) => {
                walk(a, symbols, out);
                walk(b, symbols, out);
            }
            Formula::Compare { .. } | Formula::True | Formula::False => {}
        }
    }
    let mut out = BTreeMap::new();
    walk(query, symbols, &mut out);
    out
}

/// The query-shape key: relations with their constant bindings, rendered
/// injectively.
fn shape_key(query: &Formula, symbols: &SymbolTable) -> String {
    let mut out = String::new();
    for (relation, bindings) in binding_patterns(query, symbols) {
        let _ = write!(out, "r{}:{};", relation.len(), relation);
        for binding in bindings {
            match binding {
                Some(c) => {
                    let _ = write!(out, "b{}:{};", c.len(), c);
                }
                None => out.push_str("u;"),
            }
        }
        out.push('#');
    }
    out
}
