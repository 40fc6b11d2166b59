//! The unified query-answering facade.
//!
//! The paper defines exactly one semantics — *peer consistent answers*
//! (Definition 5) — but offers several mechanisms for computing them: naive
//! solution enumeration, first-order query rewriting (Example 2), cautious
//! reasoning over the answer-set specification program (Section 3.2) and the
//! transitive composition of Section 4.3. Historically each mechanism was a
//! free function with its own signature and result struct; every caller had
//! to hand-roll dispatch. [`QueryEngine`] replaces that with one facade:
//!
//! ```
//! use pdes_core::engine::{QueryEngine, Strategy};
//! use pdes_core::pca::vars;
//! use pdes_core::system::{example1_system, PeerId};
//! use relalg::query::Formula;
//!
//! let engine = QueryEngine::builder(example1_system())
//!     .strategy(Strategy::Auto)
//!     .build();
//! let answers = engine
//!     .answer(&PeerId::new("P1"), &Formula::atom("R1", vec!["X", "Y"]), &vars(&["X", "Y"]))
//!     .unwrap();
//! assert_eq!(answers.len(), 3); // (a,b), (c,d), (a,e)
//! ```
//!
//! Every strategy returns the same [`Answers`] type: the certain tuples plus
//! per-run [`EngineStats`] (strategy chosen, grounding/solve timings, world
//! counts, cache behaviour) and a mechanism-specific [`Provenance`].
//!
//! ## Strategy selection
//!
//! [`Strategy::Auto`] (the default) statically checks whether the queried
//! peer's DECs fall in the rewritable class of Example 2 — full inclusion
//! DECs towards more-trusted peers plus binary key-agreement DECs towards
//! same-trusted peers, and no local ICs — via
//! [`crate::analyze::classify_rewritability`], and picks the first-order
//! rewriting when they do (and the query is positive existential), falling
//! back to the general ASP mechanism otherwise; the build's analysis
//! classifies every peer once.
//!
//! ## Memoization and relevance-driven grounding
//!
//! The engine owns its system, which makes preparation cacheable: the naive
//! strategy's enumerated solutions and the rewriting strategy's one world
//! (the instances of the peer's relevant-peer closure) are computed once
//! per `(engine, peer)`, and the ASP
//! strategies' *grounded and solved* specification programs once per
//! `(engine, peer, query slice)`, from one specification per `(mechanism,
//! peer)` built once per engine. The solver's models (sets of atom ids) are
//! decoded straight into a [`WorldSet`] over the store's symbol table
//! ([`crate::asp::TransitiveSpec::columnar_worlds`]), with no string world
//! in between: one columnar core holding the rows every world shares plus
//! one delta per world; the naive strategy's solutions are split the same
//! way. The ASP strategies ground only the
//! query-relevant slice of the specification ([`datalog::relevance`],
//! magic-sets-style pruning seeded by the query's relations and bound
//! constants), so the cache key carries the slice:
//! distinct queries over one peer no longer share an over-wide grounding,
//! while repeated queries of the same shape skip spec generation, grounding
//! and stable-model search entirely and only re-run the cheap certain-answer
//! evaluation over the prepared worlds — the hot path of the benchmark
//! suite.
//! [`EngineStats::grounded_rules`] / [`EngineStats::grounded_atoms`] expose
//! the instantiated slice sizes (tracked exactly by the CI smoke gate).
//!
//! ## Live updates and incremental invalidation
//!
//! The system behind an engine is no longer frozen: [`QueryEngine::commit`]
//! applies a transaction — a [`relalg::Delta`] of ground atoms per touched
//! peer — as one store epoch, bumps each touched peer's monotonically
//! increasing *version*, and invalidates exactly the memoized artifacts
//! that could observe the change. Every cached
//! artifact records the `(peer, version)` stamp of the peers it was computed
//! from — the queried peer's *relevant-peer closure*
//! ([`crate::system::P2PSystem::dependencies_of`], the transitive closure of
//! DEC edges) for the rewriting and ASP strategies, and every peer for the
//! naive strategy (whose repair search draws existential witnesses from the
//! global active domain). A commit touching peer `P` therefore recomputes
//! only the artifacts of peers whose closure contains `P`; warm queries on
//! peers outside the closure stay warm, which [`CacheMetrics`] and
//! [`EngineStats::cache_hit`] make observable. A rewriting artifact is not
//! invalidated at all: the committed deltas are applied to its one world and
//! the result re-interned (relation names are globally unique, so
//! peer-local deltas are also a delta of the closure's union). The
//! `pdes-session` crate builds the transactional `Session`/`Tx` surface on
//! top of these primitives.
//!
//! ## Incremental re-grounding and cache budgeting
//!
//! An ASP artifact affected by a commit is not dropped either: commits
//! whose relations lie outside the artifact's grounded slice refresh its
//! version stamp in place (the slice provably cannot observe them), and
//! commits inside the slice turn it into a *stale* entry that keeps the
//! grounding's saturation state ([`datalog::incremental`]) plus the net
//! composition of the queued deltas. The committing thread then repairs
//! the grounding once per transaction — semi-naive insertion propagation,
//! support-counted deletion — re-deriving only the rules the deltas touched
//! ([`EngineStats::regrounded_rules`] vs. the full slice's
//! [`EngineStats::grounded_rules`]; [`CacheMetrics::patched`] counts the
//! repairs), then re-solves. [`QueryEngine::invalidate_peers`] drops the
//! artifacts instead, so the next query re-grounds them from scratch.
//!
//! The memo map itself can be bounded:
//! [`QueryEngineBuilder::cache_capacity`] caps the exact bytes of all
//! memoized artifacts with least-recently-used eviction
//! ([`CacheMetrics::evictions`]), so adversarial streams of distinct
//! bound-constant queries cannot grow the cache without bound. The budget
//! meters the exact size of the interned columnar worlds and the retained
//! grounding state — deterministic and platform-independent — which lets
//! the CI smoke gate pin eviction counts exactly.
//!
//! Skipping the solver on repeat queries is sound because a positive
//! existential query translates into non-disjunctive, positive rules layered
//! on top of the solution predicates: they never change the answer sets, so
//! cautious reasoning over `spec ∪ query` coincides with evaluating the query
//! over each solution world (one per distinct decoded answer set) and
//! intersecting.
//!
//! That intersection rarely needs every world. Each world is the core plus
//! its delta, so for a query without negation every answer over the core is
//! an answer in every world: [`WorldSet::certain`] evaluates the core, takes
//! the smallest world's other answers as the only candidates, and checks
//! them in the remaining worlds until none is left. A query with negation
//! is evaluated on every world. The `cq.worlds_checked` counter reports how
//! many world evaluations each answer took, the core's included.
//!
//! ## Parallel execution
//!
//! The engine parallelizes at two independent levels, both driven by the
//! [`pdes_exec::ExecConfig`] installed via [`QueryEngineBuilder::exec`]
//! (sequential by default):
//!
//! * **Across queries** — [`QueryEngine::answer_batch`] partitions a batch by
//!   each query's relevant-peer closure ([`P2PSystem::dependencies_of`]) and
//!   answers closure-disjoint partitions concurrently. Queries whose closures
//!   intersect stay in one partition, in submission order, so they share
//!   preparations exactly like a sequential loop. The memo cache sits behind
//!   an `RwLock` (warm queries only read) and the lifetime counters are
//!   atomics, so concurrent partitions never serialize on bookkeeping.
//! * **Within a query** — stable-model search fans independent search
//!   subtrees out across workers ([`datalog::solve::solve_ground_with`]) and
//!   the certain-answer intersection evaluates the worlds it still has to
//!   check in parallel ([`Executor::try_intersect`], which stops once the
//!   intersection is empty). Both merges are order-insensitive (sort+dedup,
//!   set intersection), so answers are identical to the sequential path for
//!   every pool size.

use crate::analyze::RewriteVerdict;
use crate::asp::encode;
use crate::asp::transitive::{transitive_spec, trusted_closure, TransitiveSpec};
use crate::cache::{CacheEvent, Cached, Key, Mechanism, MemoCache, Pending};
use crate::error::CoreError;
use crate::pca::vars;
use crate::rewriting;
use crate::solution::{SolutionOptions, SolutionStats};
use crate::store::{InProcessStore, MvccStats, PeerStore, Snapshot, VersionMap};
use crate::system::{P2PSystem, PeerId};
use crate::Result;
use datalog::solve::solve_ground_recorded;
use datalog::{SolveResult, SolverConfig};
use pdes_exec::{ExecConfig, Executor};
use relalg::query::{Formula, QueryEvaluator};
use relalg::{CqPlan, Database, SymbolTable, Tuple, WorldSet};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use pdes_obs::{duration_nanos, NullRecorder, Recorder, Span};

thread_local! {
    /// Set on threads that are already batch-partition workers: per-query
    /// fan-out (solver subtrees, per-world evaluation) is disabled there,
    /// because partition-level parallelism already owns the pool and nesting
    /// would only multiply threads, not progress. Scoped worker threads are
    /// created per `answer_batch` call and die with it, so the flag needs no
    /// reset.
    static IN_BATCH_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The strategy a [`QueryEngine`] uses to answer queries.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm so new
/// answering mechanisms can be added without a breaking release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Strategy {
    /// Pick per query: rewriting when the peer's DECs are statically
    /// rewritable and the query is positive existential, ASP otherwise.
    #[default]
    Auto,
    /// Naive solution enumeration (Definitions 4 and 5) — the semantic
    /// reference.
    Naive,
    /// First-order query rewriting (Example 2) over the original instances.
    Rewriting,
    /// Cautious reasoning over the annotated specification program
    /// (Section 3.2 / 4.2).
    Asp,
    /// Cautious reasoning over the combined transitive program
    /// (Section 4.3).
    TransitiveAsp,
}

/// The mechanism that actually answered a query (the resolution of
/// [`Strategy::Auto`], or the fixed strategy itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StrategyKind {
    /// Naive solution enumeration.
    Naive,
    /// First-order rewriting.
    Rewriting,
    /// Direct ASP specification.
    Asp,
    /// Transitive (global) ASP specification.
    TransitiveAsp,
}

impl StrategyKind {
    /// Stable human-readable label (also used in reports and traces).
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Naive => "naive-solutions",
            StrategyKind::Rewriting => "rewriting",
            StrategyKind::Asp => "asp",
            StrategyKind::TransitiveAsp => "asp-transitive",
        }
    }
}

/// Per-run statistics of one answered query.
///
/// Timings are stored as `u64` nanoseconds and exposed through
/// [`Duration`]-returning accessors ([`EngineStats::prepare_time`] and
/// friends) instead of ad-hoc `*_micros: u128` fields: every phase duration
/// is the *exact* value the engine's [`pdes_obs::Recorder`] saw for the
/// corresponding span, so a trace exported from a [`pdes_obs::TraceRecorder`]
/// can never disagree with the stats (asserted by the observability
/// integration tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "engine statistics are only useful when inspected"]
pub struct EngineStats {
    /// The mechanism that answered the query.
    pub strategy: StrategyKind,
    /// Whether the per-peer preparation (solution enumeration / grounding +
    /// solving / closure instances) was served from the engine cache.
    pub cache_hit: bool,
    /// Preparation nanoseconds spent *this run* (0 on a cache hit).
    pub(crate) prepare_nanos: u64,
    /// Grounding nanoseconds (ASP strategies only).
    pub(crate) ground_nanos: u64,
    /// Stable-model search nanoseconds (ASP strategies only).
    pub(crate) solve_nanos: u64,
    /// Query evaluation nanoseconds.
    pub(crate) eval_nanos: u64,
    /// Nanoseconds the *original* (memoized) preparation cost, reported on
    /// cache hits; 0 on misses.
    pub(crate) cached_prepare_nanos: u64,
    /// Number of worlds the answer is certain over: solutions (naive),
    /// answer sets (ASP), or 1 (rewriting).
    pub worlds: usize,
    /// Ground rules instantiated for this query's preparation (ASP
    /// strategies; 0 elsewhere). Counts only the query-relevant slice — the
    /// deterministic counter the perf-smoke gate tracks exactly.
    pub grounded_rules: usize,
    /// Distinct ground atoms interned during the preparation (ASP
    /// strategies; 0 elsewhere).
    pub grounded_atoms: usize,
    /// Ground rules actually *re-derived* when this artifact was prepared:
    /// equals [`EngineStats::grounded_rules`] on a full (re-)grounding,
    /// strictly smaller when a stale artifact was repaired by the
    /// delta-driven incremental patch ([`datalog::incremental`]) — the
    /// warm-after-commit counter the perf-smoke gate tracks exactly.
    pub regrounded_rules: usize,
    /// When [`Strategy::Auto`] fell back to ASP for a *classifiable* reason,
    /// the diagnostic code of that reason (e.g.
    /// [`crate::analyze::codes::REWRITE_LOCAL_ICS`]); `None` for explicit
    /// strategies, rewritable peers, and queries outside the peer's schema
    /// (where no mechanism-level verdict applies).
    pub auto_reason: Option<&'static str>,
}

impl EngineStats {
    /// Preparation time spent by *this* run (solution enumeration /
    /// grounding + solving / closure-instance materialization). Zero on a
    /// cache hit — see [`EngineStats::cached_prepare_time`] for what the hit
    /// saved.
    pub fn prepare_time(&self) -> Duration {
        Duration::from_nanos(self.prepare_nanos)
    }

    /// Grounding time (ASP strategies only; a sub-phase of
    /// [`EngineStats::prepare_time`]).
    pub fn ground_time(&self) -> Duration {
        Duration::from_nanos(self.ground_nanos)
    }

    /// Stable-model search time (ASP strategies only; a sub-phase of
    /// [`EngineStats::prepare_time`]).
    pub fn solve_time(&self) -> Duration {
        Duration::from_nanos(self.solve_nanos)
    }

    /// Query evaluation time (per-world evaluation + intersection).
    pub fn eval_time(&self) -> Duration {
        Duration::from_nanos(self.eval_nanos)
    }

    /// On a cache hit, the preparation time of the *original* run that
    /// populated the cache — what the hit saved. `None` on a miss, where
    /// [`EngineStats::prepare_time`] already reports the cost paid.
    pub fn cached_prepare_time(&self) -> Option<Duration> {
        self.cache_hit
            .then(|| Duration::from_nanos(self.cached_prepare_nanos))
    }

    /// Total engine time for this run: preparation (which contains grounding
    /// and solving as sub-phases) plus evaluation.
    pub fn total_time(&self) -> Duration {
        self.prepare_time() + self.eval_time()
    }
}

/// Mechanism-specific evidence attached to an [`Answers`] (the successor of
/// the removed `PcaResult` / `RewritingAnswer` / `AspAnswer` structs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// Solution enumeration: how many solutions, and the repair search
    /// statistics.
    Naive {
        /// Number of solutions of the queried peer.
        solution_count: usize,
        /// Two-stage repair search statistics.
        search: SolutionStats,
    },
    /// First-order rewriting: the rewritten query that was evaluated.
    Rewriting {
        /// The rewriting of the original query (Example 2's `Q''`).
        rewritten: Formula,
    },
    /// Cautious reasoning over the direct specification program.
    Asp {
        /// Number of answer sets (= solutions) of the specification.
        answer_set_count: usize,
        /// Branch nodes explored by the solver.
        branch_nodes: usize,
        /// Whether the HCF shift applied.
        used_shift: bool,
    },
    /// Cautious reasoning over the combined transitive program.
    TransitiveAsp {
        /// Number of answer sets of the combined program.
        answer_set_count: usize,
        /// Branch nodes explored by the solver.
        branch_nodes: usize,
        /// Whether the HCF shift applied.
        used_shift: bool,
    },
}

/// Cumulative cache behaviour of one engine, across every query and commit
/// it has served. Unlike the per-run [`EngineStats`], these counters
/// aggregate over the engine's lifetime, which is what the live-update
/// benchmarks report. A read-only view of the memo cache's lifetime
/// counters: each field is written at one place, which also forwards it to
/// the engine's [`Recorder`] as the `cache.*` counter of the same name
/// (`hits` as `cache.hit`, `evictions` as `cache.evict`, and so on).
///
/// Marked `#[non_exhaustive]`: construct it via [`QueryEngine::metrics`] (or
/// `Default`); new counters can be added without a breaking release.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheMetrics {
    /// Preparations served from the cache.
    pub hits: u64,
    /// Preparations that had to run (cold or invalidated).
    pub misses: u64,
    /// Memoized artifacts dropped or staled by invalidation or flushing.
    pub invalidated: u64,
    /// Committed update deltas.
    pub commits: u64,
    /// Stale artifacts repaired by the incremental re-grounding patch
    /// instead of a full re-ground.
    pub patched: u64,
    /// Artifacts evicted by the byte-budgeted LRU policy
    /// ([`QueryEngineBuilder::cache_capacity`]).
    pub evictions: u64,
}

/// The unified result of answering a query through the engine.
#[derive(Debug, Clone)]
#[must_use = "dropping query answers without reading them is almost always a bug"]
pub struct Answers {
    /// The peer consistent answers (certain tuples).
    pub tuples: BTreeSet<Tuple>,
    /// Per-run statistics.
    pub stats: EngineStats,
    /// Mechanism-specific evidence.
    pub provenance: Provenance,
}

impl Answers {
    /// Number of certain tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no tuple is certain.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Iterate over the certain tuples in order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }
}

/// One query of a batch: the queried peer, the formula posed in the peer's
/// own language, and the answer variables. The unit consumed by
/// [`QueryEngine::answer_batch`] and `pdes_session::Session::query`.
///
/// ```
/// use pdes_core::engine::{Query, QueryEngine};
/// use pdes_core::system::example1_system;
/// use relalg::query::Formula;
///
/// let engine = QueryEngine::builder(example1_system()).build();
/// let batch = vec![
///     Query::named("P1", Formula::atom("R1", vec!["X", "Y"]), &["X", "Y"]),
///     Query::named("P2", Formula::atom("R2", vec!["X", "Y"]), &["X", "Y"]),
/// ];
/// let answers = engine.answer_batch(&batch);
/// assert_eq!(answers.len(), 2);
/// assert!(answers.iter().all(|a| a.is_ok()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The peer the query is posed to.
    pub peer: PeerId,
    /// The query formula (in `L(P)`).
    pub query: Formula,
    /// The answer variables.
    pub free_vars: Vec<String>,
}

impl Query {
    /// Construct a batch query.
    pub fn new(peer: PeerId, query: Formula, free_vars: Vec<String>) -> Self {
        Query {
            peer,
            query,
            free_vars,
        }
    }

    /// Convenience constructor: answer variables by name.
    pub fn named(peer: impl Into<PeerId>, query: Formula, free_vars: &[&str]) -> Self {
        Query::new(peer.into(), query, vars(free_vars))
    }
}

/// Builder for [`QueryEngine`].
///
/// Every knob has a production-ready default:
///
/// ```
/// use pdes_core::engine::{QueryEngine, Strategy};
/// use pdes_core::pca::vars;
/// use pdes_core::system::{example1_system, PeerId};
/// use relalg::query::Formula;
///
/// let engine = QueryEngine::builder(example1_system())
///     .strategy(Strategy::Asp)          // pin one mechanism (default: Auto)
///     .cache_capacity(1 << 20)          // bound the memo cache to 1 MiB
///     .build();
/// let answers = engine
///     .answer(&PeerId::new("P1"), &Formula::atom("R1", vec!["X", "Y"]), &vars(&["X", "Y"]))
///     .unwrap();
/// assert_eq!(answers.len(), 3);
/// ```
#[must_use = "a builder does nothing until `build` is called"]
pub struct QueryEngineBuilder {
    store: Arc<dyn PeerStore>,
    strategy: Strategy,
    solver_config: SolverConfig,
    solution_options: SolutionOptions,
    exec: ExecConfig,
    cache_capacity: Option<usize>,
    strict_analysis: bool,
    recorder: Option<Arc<dyn Recorder>>,
}

impl QueryEngineBuilder {
    /// Answer over `store` — the peer-state access point shared by every
    /// layer. Replaces the builder's current store; tests pass their own
    /// [`PeerStore`] doubles or a pinned [`Snapshot`] here.
    /// [`QueryEngine::builder`] is the single-system shorthand (it wraps the
    /// system into an [`InProcessStore`]).
    pub fn store(mut self, store: Arc<dyn PeerStore>) -> Self {
        self.store = store;
        self
    }

    /// The default answering strategy (defaults to [`Strategy::Auto`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Configuration handed to the answer-set solver (ASP strategies).
    pub fn solver_config(mut self, config: SolverConfig) -> Self {
        self.solver_config = config;
        self
    }

    /// Options handed to the repair search (naive strategy).
    pub fn solution_options(mut self, options: SolutionOptions) -> Self {
        self.solution_options = options;
        self
    }

    /// The parallel execution configuration: worker count for
    /// [`QueryEngine::answer_batch`] partitions, stable-model subtree search
    /// and per-world evaluation. Defaults to [`ExecConfig::sequential`], so
    /// an engine never spawns threads unless asked to.
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Shorthand for [`QueryEngineBuilder::exec`] with a deterministic pool
    /// of `workers` threads (`0` = one per available core).
    pub fn workers(self, workers: usize) -> Self {
        self.exec(ExecConfig::with_workers(workers))
    }

    /// Cap the memo cache at `bytes` bytes of prepared artifacts, evicting
    /// least-recently-used entries on overflow (counted in
    /// [`CacheMetrics::evictions`]). Unbounded by default. The budgeted
    /// quantity is the *exact* size of the interned columnar worlds and the
    /// retained grounding state — deterministic and platform-independent
    /// (4 bytes per stored id plus fixed per-relation overheads), so
    /// eviction behaviour is reproducible in CI.
    pub fn cache_capacity(mut self, bytes: usize) -> Self {
        self.cache_capacity = Some(bytes);
        self
    }

    /// Refuse to construct the engine when the static analyzer
    /// ([`P2PSystem::analyze`]) reports *errors* over the system (warnings
    /// and infos never block). Off by default: the non-strict engine keeps
    /// today's behaviour, but still runs the analysis once and keeps the
    /// report inspectable via [`QueryEngine::analysis_report`].
    pub fn strict_analysis(mut self, enabled: bool) -> Self {
        self.strict_analysis = enabled;
        self
    }

    /// Install an observability [`Recorder`]. Every query the engine answers
    /// emits structured spans (`query`, `prepare`, `relevance`, `ground` /
    /// `patch`, `solve`, `decode`, `eval`, …) and counters (`cache.hit`,
    /// `cache.miss`, `solver.branch_nodes`, …) to it, and the recorder is
    /// threaded into the executor so parallel solver subtrees and batch
    /// partitions report too. Defaults to [`NullRecorder`], which keeps the
    /// hot path free of any buffering or locking; install a
    /// [`pdes_obs::TraceRecorder`] to collect a Chrome-traceable timeline
    /// plus latency histograms.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Finish the builder, running the static analyzer over the system.
    ///
    /// With [`QueryEngineBuilder::strict_analysis`] enabled, error-severity
    /// diagnostics make this fail with [`CoreError::AnalysisRejected`]
    /// carrying the rendered report. Without it, this never fails.
    pub fn try_build(self) -> Result<QueryEngine> {
        // The analyzer is topology-only (schemas, DECs, trust — never
        // instance data), so the store's replica serves it without a pin.
        let topology = self.store.topology().clone();
        let (report, verdicts) = topology.analyze_with_verdicts();
        if self.strict_analysis && !report.is_clean() {
            return Err(CoreError::AnalysisRejected {
                errors: report.error_count(),
                report: report.render(),
            });
        }
        let recorder: Arc<dyn Recorder> = self
            .recorder
            .unwrap_or_else(|| Arc::new(NullRecorder) as Arc<dyn Recorder>);
        let symbols = self.store.symbols();
        Ok(QueryEngine {
            store: self.store,
            topology,
            strategy: self.strategy,
            solver_config: self.solver_config,
            solution_options: self.solution_options,
            exec: Executor::new(self.exec).with_recorder(Arc::clone(&recorder)),
            symbols,
            analysis: report,
            verdicts,
            specs: SpecTable::default(),
            texts: Arc::default(),
            cache: MemoCache::new(self.cache_capacity, Arc::clone(&recorder)),
            recorder,
            commit_lock: Mutex::new(()),
        })
    }

    /// Finish the builder.
    ///
    /// # Panics
    ///
    /// Panics when [`QueryEngineBuilder::strict_analysis`] is enabled and
    /// the analyzer reports errors; use
    /// [`QueryEngineBuilder::try_build`] to handle that case. Without
    /// strict analysis (the default) this never panics.
    pub fn build(self) -> QueryEngine {
        self.try_build()
            .unwrap_or_else(|e| panic!("engine construction failed: {e}"))
    }
}

/// The decoded worlds of one peer under one mechanism, plus how long the
/// preparation took.
pub(crate) struct PreparedWorlds {
    /// The distinct worlds (solutions / answer sets) as one columnar core
    /// every world shares plus one delta per world, interned against the
    /// store's symbol table ([`WorldSet`]). Queries in [`CqPlan`]'s
    /// fragment are answered by [`WorldSet::certain`]; other formulas
    /// decode a world on demand ([`WorldSet::world`]).
    set: WorldSet,
    /// World count before deduplication: the answer-set (ASP) or solution
    /// (naive) count, which [`EngineStats::worlds`] reports.
    worlds: usize,
    prepare_nanos: u64,
    ground_nanos: u64,
    solve_nanos: u64,
    /// Ground rules / atoms instantiated for this entry (ASP strategies).
    grounded_rules: usize,
    grounded_atoms: usize,
    /// Ground rules re-derived by the preparation: all of them on a full
    /// grounding, only the patched subset on an incremental repair.
    regrounded_rules: usize,
    /// Evidence template cloned into every answer served from this entry;
    /// `None` for the rewriting, whose evidence is each query's rewriting.
    provenance: Option<Provenance>,
}

impl PreparedWorlds {
    /// Bytes this entry charges against [`QueryEngineBuilder::cache_capacity`]:
    /// the *exact* interned columnar size of the core plus every delta
    /// ([`WorldSet::exact_bytes`] — 4 bytes per stored id plus fixed
    /// per-relation and per-world overheads).
    pub(crate) fn bytes(&self) -> usize {
        256 + self.set.exact_bytes()
    }

    /// Worlds no grounding produced (naive and rewriting); the caller sets
    /// the preparation time.
    fn ungrounded(set: WorldSet, worlds: usize, provenance: Option<Provenance>) -> Self {
        PreparedWorlds {
            set,
            worlds,
            prepare_nanos: 0,
            ground_nanos: 0,
            solve_nanos: 0,
            grounded_rules: 0,
            grounded_atoms: 0,
            regrounded_rules: 0,
            provenance,
        }
    }

    /// The rewriting's artifact: the union of `instances` (a relevant-peer
    /// closure's) as the one world of a set over all their relations.
    fn rewriting<'i>(
        instances: impl IntoIterator<Item = &'i Database>,
        symbols: &Arc<SymbolTable>,
    ) -> Result<PreparedWorlds> {
        let world = instances
            .into_iter()
            .try_fold(Database::new(), |world, instance| world.union(instance))?;
        let relations: Vec<(&str, usize)> = world
            .relations()
            .map(|relation| (relation.name(), relation.arity()))
            .collect();
        let set = world_set(&relations, [&world], symbols)?;
        Ok(PreparedWorlds::ungrounded(set, 1, None))
    }

    /// This rewriting artifact with `delta` applied to its world: what a
    /// commit to a peer of the closure swaps in. Keeps the original
    /// preparation time.
    pub(crate) fn patched(&self, delta: &relalg::Delta) -> Result<PreparedWorlds> {
        let world = delta.apply(&self.set.world(0))?;
        let mut patched = PreparedWorlds::rewriting([&world], self.set.core().symbols())?;
        patched.prepare_nanos = self.prepare_nanos;
        Ok(patched)
    }
}

/// `worlds` as one [`WorldSet`] over `relations` (names and arities; a
/// relation a world lacks is empty in it) of `symbols`' ids: the id rows
/// of a pinned epoch's pages, or the values of any other page interned
/// ([`relalg::Relation::symbol_ids`]).
fn world_set<'w>(
    relations: &[(&str, usize)],
    worlds: impl IntoIterator<Item = &'w Database>,
    symbols: &Arc<SymbolTable>,
) -> Result<WorldSet> {
    let pages: Vec<Vec<(Cow<'w, [u32]>, usize)>> = worlds
        .into_iter()
        .map(|world| {
            let page = |&(name, _): &(&str, usize)| match world.relation(name) {
                Some(relation) => (relation.symbol_ids(symbols), relation.len()),
                None => (Cow::Borrowed(&[][..]), 0),
            };
            relations.iter().map(page).collect()
        })
        .collect();
    let worlds = pages.iter().map(|world| {
        let rows = world.iter().zip(relations);
        rows.map(|((ids, len), &(_, arity))| {
            (0..*len)
                .map(|i| &ids[i * arity..(i + 1) * arity])
                .collect()
        })
        .collect()
    });
    Ok(WorldSet::from_id_rows::<&[u32]>(
        relations, worlds, symbols,
    )?)
}

/// The unified query-answering facade over a P2P data exchange system.
///
/// Construct with [`QueryEngine::builder`]; answer queries with
/// [`QueryEngine::answer`] (configured strategy) or
/// [`QueryEngine::answer_with`] (explicit strategy, sharing the same cache).
pub struct QueryEngine {
    /// Peer-state access point: the only way the engine reaches instances
    /// and applies deltas.
    store: Arc<dyn PeerStore>,
    /// Local topology replica (instances empty): closure queries, schema
    /// checks and strategy resolution never pin the store.
    topology: P2PSystem,
    strategy: Strategy,
    solver_config: SolverConfig,
    solution_options: SolutionOptions,
    exec: Executor,
    recorder: Arc<dyn Recorder>,
    /// The store's symbol table ([`PeerStore::symbols`]): the single
    /// interning authority the columnar fast path and shared-text ASP
    /// encoding resolve against.
    symbols: Arc<relalg::SymbolTable>,
    /// The construction-time static-analysis report over the system.
    analysis: crate::analyze::Report,
    /// The same analysis' verdict for every peer it could classify: what
    /// [`Strategy::Auto`] reads.
    verdicts: BTreeMap<PeerId, RewriteVerdict>,
    /// The ASP specification of every `(mechanism, peer)` prepared so far.
    specs: SpecTable,
    /// The byte order of every constant and predicate text a grounding of
    /// this engine has ranked: ranking a cold grounding's atoms looks its
    /// texts up here instead of sorting them. Like the spec table, it
    /// outlives cache flushes and is not charged to the byte budget.
    texts: Arc<datalog::TextOrder>,
    /// Every memoized artifact, its stamps and the cache counters.
    cache: MemoCache,
    /// Serializes engine-level commits (store publish + cache bookkeeping +
    /// stale-artifact repair). Readers never take it.
    commit_lock: Mutex<()>,
}

impl QueryEngine {
    /// Worlds per prepared entry below which the certain-answer
    /// intersection stays sequential (fan-out overhead dominates).
    const MIN_PARALLEL_WORLDS: usize = 8;

    /// Start building an engine over `system`, served through the canonical
    /// [`InProcessStore`]. To answer over a different [`PeerStore`] (e.g. a
    /// pinned [`Snapshot`]), follow with [`QueryEngineBuilder::store`].
    pub fn builder(system: P2PSystem) -> QueryEngineBuilder {
        QueryEngineBuilder {
            store: Arc::new(InProcessStore::new(system)),
            strategy: Strategy::default(),
            solver_config: SolverConfig::default(),
            solution_options: SolutionOptions::default(),
            exec: ExecConfig::sequential(),
            cache_capacity: None,
            strict_analysis: false,
            recorder: None,
        }
    }

    /// An engine with all defaults ([`Strategy::Auto`]).
    pub fn new(system: P2PSystem) -> Self {
        QueryEngine::builder(system).build()
    }

    /// The store the engine answers over.
    pub fn store(&self) -> &Arc<dyn PeerStore> {
        &self.store
    }

    /// The engine's local topology replica: the system with every instance
    /// *empty*. Schemas, DECs, trust and the relevant-peer closure are all
    /// here; instance data is only reachable through
    /// [`QueryEngine::store`] / [`QueryEngine::snapshot_system`].
    pub fn topology(&self) -> &P2PSystem {
        &self.topology
    }

    /// Materialize the full system (topology + every peer's current
    /// instance) from the store. It clones every instance — use for oracles
    /// and snapshots, not hot paths.
    pub fn snapshot_system(&self) -> Result<P2PSystem> {
        self.pin()?.system()
    }

    /// Pin the store's current epoch: an immutable [`Snapshot`] whose reads
    /// are stable under concurrent commits. Every cold preparation the
    /// engine runs fetches its instances through a pin, so multi-peer reads
    /// are consistent (never torn across an in-flight commit); warm queries
    /// serve version-stamped artifacts and need no pin at all. Emits an
    /// `epoch.pin` span and bumps the `mvcc.pins` counter.
    pub fn pin(&self) -> Result<Snapshot> {
        let span = Span::enter(self.recorder.as_ref(), "epoch.pin");
        let snapshot = self.store.pin();
        span.finish();
        if snapshot.is_ok() {
            self.recorder.count("mvcc.pins", 1);
        }
        snapshot
    }

    /// The store's MVCC counters (pins, epoch publications, copied pages) —
    /// see [`crate::store::MvccStats`].
    pub fn mvcc_stats(&self) -> MvccStats {
        self.store.mvcc_stats()
    }

    /// The instances of `peers`, fetched from one pinned epoch. The pin
    /// makes the multi-peer read consistent: a commit landing mid-fetch
    /// cannot tear it.
    fn instances(&self, peers: &BTreeSet<PeerId>) -> Result<BTreeMap<PeerId, relalg::Database>> {
        self.pin()?.instances(peers)
    }

    /// The configured default strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The solver configuration used by the ASP strategies.
    pub fn solver_config(&self) -> SolverConfig {
        self.solver_config
    }

    /// The repair-search options used by the naive strategy.
    pub fn solution_options(&self) -> SolutionOptions {
        self.solution_options
    }

    /// The parallel execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec.config()
    }

    /// Always `true`: the ASP strategies always ground the query-relevant
    /// slice. Kept only because the `perfbench` replay asserts it; delete it
    /// with the next change to that benchmark.
    pub fn relevance_pruning(&self) -> bool {
        true
    }

    /// Always `true`: commits always patch stale slices in place. Kept only
    /// because the `perfbench` replay asserts it; delete it with the next
    /// change to that benchmark.
    pub fn incremental_reground(&self) -> bool {
        true
    }

    /// The memo cache's byte budget (`None` = unbounded).
    pub fn cache_capacity(&self) -> Option<usize> {
        self.cache.capacity()
    }

    /// The static-analysis report computed when the engine was built
    /// (always present; with strict analysis it is guaranteed error-free).
    pub fn analysis_report(&self) -> &crate::analyze::Report {
        &self.analysis
    }

    /// The executor for *within-query* fan-out: the engine's pool, unless
    /// this thread is already a batch-partition worker (see
    /// [`IN_BATCH_WORKER`]).
    fn query_exec(&self) -> Executor {
        if IN_BATCH_WORKER.with(|flag| flag.get()) {
            Executor::sequential()
        } else {
            self.exec.clone()
        }
    }

    /// The observability recorder every query reports to
    /// ([`NullRecorder`] unless one was installed via
    /// [`QueryEngineBuilder::recorder`]).
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// Resolve which mechanism a query would run under the given strategy
    /// (the [`Strategy::Auto`] decision, made static and inspectable).
    pub fn resolve(&self, strategy: Strategy, peer: &PeerId, query: &Formula) -> StrategyKind {
        self.resolve_explained(strategy, peer, query).0
    }

    /// [`QueryEngine::resolve`], plus — when [`Strategy::Auto`] fell back to
    /// ASP — the diagnostic code of the disqualifying reason (the codes of
    /// [`crate::analyze`]'s rewritability pass, surfaced per answer on
    /// [`EngineStats::auto_reason`]). The peer's half of the decision is the
    /// [`crate::analyze::classify_rewritability`] verdict the build's
    /// analysis recorded, the single source of truth it reports from.
    pub fn resolve_explained(
        &self,
        strategy: Strategy,
        peer: &PeerId,
        query: &Formula,
    ) -> (StrategyKind, Option<&'static str>) {
        match strategy {
            Strategy::Naive => (StrategyKind::Naive, None),
            Strategy::Rewriting => (StrategyKind::Rewriting, None),
            Strategy::Asp => (StrategyKind::Asp, None),
            Strategy::TransitiveAsp => (StrategyKind::TransitiveAsp, None),
            Strategy::Auto => {
                if self.check_language(peer, query).is_err() {
                    // Outside the peer's schema: no verdict applies; the
                    // strategy's own answer will surface the error.
                    return (StrategyKind::Asp, None);
                }
                match self.verdicts.get(peer) {
                    Some(RewriteVerdict::Rewritable) => {
                        if rewriting::supports_query(query) {
                            (StrategyKind::Rewriting, None)
                        } else {
                            (
                                StrategyKind::Asp,
                                Some(crate::analyze::codes::REWRITE_QUERY_FRAGMENT),
                            )
                        }
                    }
                    Some(RewriteVerdict::NotRewritable { code, .. }) => {
                        (StrategyKind::Asp, Some(*code))
                    }
                    None => (StrategyKind::Asp, None),
                }
            }
        }
    }

    /// Answer `query` (with answer variables `free_vars`) posed to `peer`
    /// using the engine's configured strategy.
    pub fn answer(&self, peer: &PeerId, query: &Formula, free_vars: &[String]) -> Result<Answers> {
        self.answer_with(self.strategy, peer, query, free_vars)
    }

    /// Answer with an explicit strategy, sharing this engine's cache. This is
    /// how cross-mechanism comparisons (tests, benchmarks, the examples) run
    /// every mechanism against one system without re-preparing it.
    pub fn answer_with(
        &self,
        strategy: Strategy,
        peer: &PeerId,
        query: &Formula,
        free_vars: &[String],
    ) -> Result<Answers> {
        let (kind, auto_reason) = self.resolve_explained(strategy, peer, query);
        let span = Span::enter_with(
            self.recorder.as_ref(),
            "query",
            &[
                pdes_obs::Field::text("peer", peer.to_string()),
                pdes_obs::Field::text("strategy", kind.label()),
            ],
        );
        let result = self.answer_as(kind, peer, query, free_vars);
        span.finish();
        let mut answers = result?;
        answers.stats.auto_reason = auto_reason;
        Ok(answers)
    }

    /// Answer with one resolved mechanism. Every mechanism validates the
    /// query the same way and in the same order, so an ill-formed query
    /// fails with the same error whichever mechanism would answer it: the
    /// query must be in the peer's language `L(P)`, then (except for the
    /// naive mechanism) positive existential, then bind its answer
    /// variables.
    fn answer_as(
        &self,
        kind: StrategyKind,
        peer: &PeerId,
        query: &Formula,
        free_vars: &[String],
    ) -> Result<Answers> {
        self.check_language(peer, query)?;
        if kind != StrategyKind::Naive {
            ensure_positive_existential(query)?;
        }
        check_free_vars_bound(query, free_vars)?;
        let (worlds, cache_hit) = match kind {
            StrategyKind::Naive => self.whole_peer_worlds(peer, Mechanism::Naive)?,
            StrategyKind::Rewriting => self.whole_peer_worlds(peer, Mechanism::Rewriting)?,
            StrategyKind::Asp => self.asp_worlds(peer, Mechanism::Asp, query)?,
            StrategyKind::TransitiveAsp => self.asp_worlds(peer, Mechanism::Transitive, query)?,
        };
        self.answers_from_worlds(kind, peer, &worlds, cache_hit, query, free_vars)
    }

    /// Convenience wrapper: answer variables by name.
    pub fn answer_named(
        &self,
        peer: &PeerId,
        query: &Formula,
        free_vars: &[&str],
    ) -> Result<Answers> {
        self.answer(peer, query, &vars(free_vars))
    }

    // ------------------------------------------------------------------
    // Batched answering.
    // ------------------------------------------------------------------

    /// Answer a batch of queries, evaluating closure-disjoint partitions
    /// concurrently on the engine's [`ExecConfig`] pool.
    ///
    /// The batch is partitioned by relevant-peer closure
    /// ([`P2PSystem::dependencies_of`]): two queries land in the same
    /// partition exactly when their closures intersect, i.e. when they could
    /// share (or race on) a preparation. Within a partition, queries run
    /// sequentially in submission order — so they warm each other's cache
    /// like a plain loop would — while distinct partitions touch disjoint
    /// peers and run on separate workers. Results come back in submission
    /// order, one per query, and the certain answers are identical to a
    /// sequential loop of [`QueryEngine::answer`] calls for every pool size
    /// (per-run timing and `cache_hit` stats may differ, e.g. two queries
    /// of different shapes whose slices converge on one artifact can land
    /// in two partitions and both miss it where a loop would hit).
    ///
    /// With a sequential [`ExecConfig`] (the default) this *is* the plain
    /// loop.
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Result<Answers>> {
        let recorder = self.recorder.as_ref();
        recorder.count("batch.queries", queries.len() as u64);
        let batch_span = Span::enter_with(
            recorder,
            "batch",
            &[pdes_obs::Field::u64("queries", queries.len() as u64)],
        );
        let out = self.answer_batch_inner(queries);
        batch_span.finish();
        out
    }

    fn answer_batch_inner(&self, queries: &[Query]) -> Vec<Result<Answers>> {
        let one = |q: &Query| self.answer(&q.peer, &q.query, &q.free_vars);
        if self.exec.config().is_sequential() || queries.len() <= 1 {
            return queries.iter().map(one).collect();
        }
        let partition_span = Span::enter(self.recorder.as_ref(), "batch.partition");
        let partitions = self.partition_batch(queries);
        partition_span.finish();
        if partitions.len() <= 1 {
            return queries.iter().map(one).collect();
        }
        let per_partition = self.exec.map(&partitions, |indices| {
            IN_BATCH_WORKER.with(|flag| flag.set(true));
            indices
                .iter()
                .map(|&i| (i, one(&queries[i])))
                .collect::<Vec<_>>()
        });
        let mut out: Vec<Option<Result<Answers>>> = queries.iter().map(|_| None).collect();
        for partition in per_partition {
            for (i, result) in partition {
                out[i] = Some(result);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every query index is assigned to exactly one partition"))
            .collect()
    }

    /// Group query indices into partitions that could share (or duplicate)
    /// a preparation: union-find over *resource tokens*. Two ASP queries
    /// share a token only when they touch the same closure peer with the
    /// same grounded slice (`(peer, slice key)` — so two disjoint-slice
    /// queries on one peer run concurrently), while naive/rewriting queries
    /// — whose preparations are per peer — token on the closure peers
    /// alone. Partitions are ordered by their first query
    /// index and each partition's indices are ascending, so evaluation order
    /// within a partition matches submission order.
    fn partition_batch(&self, queries: &[Query]) -> Vec<Vec<usize>> {
        fn find(parent: &mut [usize], i: usize) -> usize {
            let mut root = i;
            while parent[root] != root {
                root = parent[root];
            }
            let mut walk = i;
            while parent[walk] != root {
                let next = parent[walk];
                parent[walk] = root;
                walk = next;
            }
            root
        }
        let mut parent: Vec<usize> = (0..queries.len()).collect();
        let mut owner_of_token: BTreeMap<String, usize> = BTreeMap::new();
        // The closure is a DEC-graph traversal; compute it once per
        // distinct queried peer, not once per query.
        let mut closures: BTreeMap<&PeerId, BTreeSet<PeerId>> = BTreeMap::new();
        for (i, query) in queries.iter().enumerate() {
            // The per-mechanism slice suffix: ASP artifacts are keyed by
            // `(peer, slice)`, so only same-slice queries contend.
            let suffix = match self.resolve(self.strategy, &query.peer, &query.query) {
                StrategyKind::Asp => format!("a\u{1}{}", self.slice_key(&query.query)),
                StrategyKind::TransitiveAsp => format!("t\u{1}{}", self.slice_key(&query.query)),
                StrategyKind::Naive | StrategyKind::Rewriting => String::new(),
            };
            let closure = closures
                .entry(&query.peer)
                .or_insert_with(|| self.topology.dependencies_of(&query.peer));
            for peer in closure.iter() {
                let token = format!("{peer}\u{1}{suffix}");
                match owner_of_token.entry(token) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(i);
                    }
                    std::collections::btree_map::Entry::Occupied(slot) => {
                        let a = find(&mut parent, i);
                        let b = find(&mut parent, *slot.get());
                        // Union towards the smaller root, keeping the
                        // partition labelled by its earliest query.
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        parent[hi] = lo;
                    }
                }
            }
        }
        let mut partitions: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..queries.len() {
            let root = find(&mut parent, i);
            partitions.entry(root).or_default().push(i);
        }
        partitions.into_values().collect()
    }

    // ------------------------------------------------------------------
    // Live updates: versions, commits, invalidation.
    // ------------------------------------------------------------------

    /// Commit one transaction — a delta per touched peer — as one store
    /// epoch, and bring the memo cache up to date in one pass over it.
    /// Returns the touched peers' new versions and the number of artifacts
    /// the pass invalidated.
    ///
    /// Only artifacts whose relevant-peer closure contains a touched peer
    /// are affected, each once however many of its peers the transaction
    /// touches. A rewriting artifact has the deltas applied to its one world
    /// in place. An ASP artifact whose grounded slice cannot observe the
    /// deltas keeps serving under a refreshed stamp; otherwise the
    /// committing thread repairs it, re-deriving only the affected rules
    /// ([`datalog::incremental`]). Naive artifacts are dropped.
    ///
    /// The store validates every delta against its peer's schema before any
    /// state changes ([`P2PSystem::validate_delta`]); local integrity
    /// constraints are for the transactional layer (`pdes-session`) to
    /// check first.
    pub fn commit(&self, changes: &BTreeMap<PeerId, relalg::Delta>) -> Result<(VersionMap, u64)> {
        let span = Span::enter_with(
            self.recorder.as_ref(),
            "commit",
            &[pdes_obs::Field::u64("peers", changes.len() as u64)],
        );
        let out = self.commit_inner(changes);
        span.finish();
        out
    }

    fn commit_inner(&self, changes: &BTreeMap<PeerId, relalg::Delta>) -> Result<(VersionMap, u64)> {
        // Commits serialize on the engine's commit lock; readers never take
        // it, and the cache write lock below is held only for map updates —
        // never across the store publish or the artifact repair.
        let _commit = self
            .commit_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // The store is the version authority: it validates, applies and
        // stamps; the cache mirrors the returned stamps so memo artifacts
        // key off store truth.
        let cow_before = self.store.mvcc_stats().cow_pages;
        let publish_span = Span::enter(self.recorder.as_ref(), "epoch.publish");
        let versions = self.store.apply_delta(changes)?;
        publish_span.finish();
        self.recorder.count("mvcc.publishes", 1);
        let cow = self.store.mvcc_stats().cow_pages.saturating_sub(cow_before);
        if cow > 0 {
            self.recorder.count("mvcc.cow_pages", cow);
        }
        // The cache registers the slices this commit staled so *this* thread
        // can repair them below.
        let (staled, invalidated) = self.cache.commit(changes, &versions);
        // Repair off the reader hot path: the committing thread patches,
        // re-solves and swaps each staled artifact (outside every lock), so
        // the next reader *hits* instead of paying the patch itself. Each
        // guard unregisters its key and wakes the waiting readers when it
        // drops — after its repair, or while unwinding from a panic in it.
        for guard in staled {
            self.repair_stale(&guard.key);
        }
        self.cache.note(CacheEvent::Commit);
        Ok((versions, invalidated))
    }

    /// Repair one staled ASP artifact on the committing thread: patch its
    /// retained saturation state with the queued deltas, re-solve, re-decode
    /// and swap the result into the entry. Grounding, solving and decoding
    /// all run without the cache lock; the entry stays visible (and stale)
    /// throughout, so racing readers wait for the guard rather than
    /// re-preparing. On any failure the entry is dropped and the next query
    /// re-grounds from scratch.
    fn repair_stale(&self, key: &Key) {
        let Some((mut state, pending)) = self.cache.take_for_repair(key) else {
            return;
        };
        let recorder = self.recorder.as_ref();
        let prepare_span = Span::enter(recorder, "prepare");
        let patch_span = Span::enter(recorder, "patch");
        let (ground, regrounded_rules) = self.patch_grounding(&mut state, &pending);
        let ground_nanos = duration_nanos(patch_span.finish());
        let repaired = self.solve_worlds(
            (key.0, &key.1),
            (ground, &[]),
            prepare_span,
            (ground_nanos, state.rule_count(), regrounded_rules),
        );
        self.cache
            .finish_repair(key, repaired.map(|prepared| (prepared, state)));
    }

    /// Patch a stale grounding with the deltas committed since it was
    /// solved and re-derive only the affected rules. Returns the patched
    /// program for the solver ([`datalog::IncrementalGround::to_solver`])
    /// and the number of rules re-derived. Shared by the reader's stale
    /// path and the commit-side repair.
    ///
    /// Relation names are the fact predicates of the specification programs
    /// (the tables of [`crate::asp::encode::fact_tables`]) and a constant's
    /// text is its store symbol's rendering, so a relational delta is also
    /// a logic-program delta verbatim. Constant arguments alias the store's
    /// shared text ([`crate::asp::encode::encode_value_shared`]) instead of
    /// allocating per atom. Commits intern every value they carry, so the
    /// repaired worlds decode typed values through the store's symbol table
    /// like a fresh preparation does.
    fn patch_grounding(
        &self,
        state: &mut datalog::IncrementalGround,
        pending: &Pending,
    ) -> (datalog::GroundProgram, usize) {
        self.cache.note(CacheEvent::StalePatch);
        let encode = |atom: &relalg::database::GroundAtom| datalog::GroundAtom {
            predicate: atom.relation.to_string(),
            strong_neg: false,
            args: atom
                .tuple
                .iter()
                .map(|v| crate::asp::encode::encode_value_shared(v, &self.symbols))
                .collect(),
        };
        let (mut insertions, mut deletions) = (Vec::new(), Vec::new());
        for delta in pending.values() {
            insertions.extend(delta.insertions.iter().map(encode));
            deletions.extend(delta.deletions.iter().map(encode));
        }
        let patch = state.apply_delta(&insertions, &deletions);
        (state.to_solver(), patch.reinstantiated_rules)
    }

    /// Drop every memoized artifact whose relevant-peer closure intersects
    /// `touched`, rewriting artifacts included (no delta is available here
    /// to maintain them incrementally). Returns the number of artifacts
    /// dropped. Use this when the system was mutated through a
    /// side channel; [`QueryEngine::commit`] invalidates on its own.
    pub fn invalidate_peers<I: IntoIterator<Item = PeerId>>(&self, touched: I) -> u64 {
        let touched: BTreeSet<PeerId> = touched.into_iter().collect();
        if touched.is_empty() {
            return 0;
        }
        self.cache
            .drop_where(|stamp| stamp.keys().any(|p| touched.contains(p)))
    }

    /// Drop the entire cache, so every next query prepares from scratch.
    /// Returns the number of artifacts dropped.
    pub fn flush_cache(&self) -> u64 {
        self.cache.drop_where(|_| true)
    }

    /// The current version of a peer (0 until its first committed update).
    pub fn version_of(&self, peer: &PeerId) -> u64 {
        self.cache.stamp([peer.clone()])[peer]
    }

    /// The current per-peer versions of every peer in the system.
    pub fn versions(&self) -> BTreeMap<PeerId, u64> {
        self.cache.stamp(self.topology.peer_ids().cloned())
    }

    /// The relevant-peer closure of a peer — the peers whose commits
    /// invalidate this peer's memoized artifacts.
    pub fn relevant_peers(&self, peer: &PeerId) -> BTreeSet<PeerId> {
        self.topology.dependencies_of(peer)
    }

    /// Lifetime cache counters (hits, misses, invalidations, commits).
    pub fn metrics(&self) -> CacheMetrics {
        self.cache.metrics()
    }

    /// How many per-peer artifacts (naive / rewriting / ASP / transitive
    /// entries) are currently memoized. Includes stale
    /// entries awaiting an incremental repair (see
    /// [`QueryEngine::stale_artifact_count`]).
    pub fn cached_artifact_count(&self) -> usize {
        self.cache.len()
    }

    /// How many memoized ASP artifacts are *stale* — invalidated by a
    /// commit but kept with their saturation state for the next query to
    /// repair incrementally.
    pub fn stale_artifact_count(&self) -> usize {
        self.cache.stale_len()
    }

    /// The exact total size of the memoized artifacts in bytes (the
    /// quantity bounded by [`QueryEngineBuilder::cache_capacity`]).
    pub fn cached_bytes(&self) -> usize {
        self.cache.bytes()
    }

    // ------------------------------------------------------------------
    // Shared preparation (the memoized hot path).
    // ------------------------------------------------------------------

    /// The artifact of a mechanism that prepares the whole peer, with no
    /// slice: naive solution enumeration, whose stamp covers *every* peer
    /// (the repair search operates on the global instance and draws
    /// existential witnesses from its active domain, so in principle any
    /// peer's data can influence it), or the rewriting's one world, whose
    /// stamp is the peer's relevant-peer closure like an ASP entry's.
    fn whole_peer_worlds(
        &self,
        peer: &PeerId,
        mechanism: Mechanism,
    ) -> Result<(Arc<PreparedWorlds>, bool)> {
        let shape = (mechanism, String::new());
        let stamp = match self.cache.lookup(peer, &shape, || match mechanism {
            Mechanism::Naive => self.topology.peer_ids().cloned().collect(),
            _ => self.topology.dependencies_of(peer),
        }) {
            Cached::Hit(prepared) => return Ok((prepared, true)),
            Cached::Miss(stamp) => stamp,
        };
        let key = match self.cache.claim(peer, shape, String::new()) {
            Cached::Hit(prepared) => return Ok((prepared, true)),
            Cached::Miss((key, _)) => key,
        };
        // Prepare outside the lock (solution search can be expensive), from
        // one pin, so a concurrent commit cannot tear the read.
        let span = Span::enter(self.recorder.as_ref(), "prepare");
        let mut prepared = match mechanism {
            Mechanism::Naive => self.naive_worlds(peer)?,
            _ => {
                let instances = self.instances(&stamp.keys().cloned().collect())?;
                PreparedWorlds::rewriting(instances.values(), &self.symbols)?
            }
        };
        prepared.prepare_nanos = duration_nanos(span.finish());
        let prepared = Arc::new(prepared);
        self.cache.insert(key, stamp, Arc::clone(&prepared), None);
        Ok((prepared, false))
    }

    /// Enumerated solutions of `peer`, restricted to the peer's relations.
    /// The repair search needs every instance (it operates on the global
    /// instance), so a cold naive preparation is the one full-epoch
    /// materialization in the engine.
    fn naive_worlds(&self, peer: &PeerId) -> Result<PreparedWorlds> {
        let snapshot = self.pin()?.system()?;
        let (solutions, search) = crate::solution::solutions_with_stats_recorded(
            &snapshot,
            peer,
            self.solution_options,
            self.recorder.as_ref(),
        )?;
        // The set keeps distinct worlds once, like the ASP decode.
        let schema = &self.topology.peer(peer)?.schema;
        let relations: Vec<(&str, usize)> = schema
            .relation_names()
            .filter_map(|name| Some((name, schema.relation(name)?.arity())))
            .collect();
        let databases = solutions.iter().map(|solution| &solution.database);
        let set = world_set(&relations, databases, &self.symbols)?;
        let solution_count = solutions.len();
        let provenance = Provenance::Naive {
            solution_count,
            search,
        };
        Ok(PreparedWorlds::ungrounded(
            set,
            solution_count,
            Some(provenance),
        ))
    }

    /// The cheap *query-shape* key: an injective rendering of the query's
    /// relations with their generalized constant bindings (every segment is
    /// length-prefixed, so constants containing delimiter characters cannot
    /// collide). Two queries with the same shape key always ground the same
    /// slice; shapes whose differences the relevance analysis cannot exploit
    /// (bindings on unrestrictable seeds) are deduplicated onto one artifact
    /// through the alias map of [`crate::cache::MemoCache`].
    fn slice_key(&self, query: &Formula) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (relation, bindings) in query_binding_patterns(query, &self.symbols) {
            let _ = write!(out, "r{}:{};", relation.len(), relation);
            for binding in &bindings {
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

    /// The query seeds handed to [`datalog::ground_relevant`]: the query's
    /// relations mapped to their solution predicates, carrying the
    /// generalized constant bindings.
    fn query_seeds(&self, query: &Formula, spec: &TransitiveSpec) -> Vec<datalog::QuerySeed> {
        query_binding_patterns(query, &self.symbols)
            .into_iter()
            .map(|(relation, bindings)| {
                let predicate = spec.solution_predicate(&self.topology, &relation);
                datalog::QuerySeed::with_bindings(predicate, bindings)
            })
            .collect()
    }

    /// Grounded + solved specification program of `peer` (direct or
    /// transitive) for one query slice, decoded into its set of worlds.
    ///
    /// The entry's stamp covers the peer's relevant-peer closure
    /// ([`P2PSystem::dependencies_of`]): the specification programs only read
    /// the instances of DEC-reachable peers, so commits outside the closure
    /// leave the entry warm. Only the query-relevant slice of the
    /// specification is grounded and solved ([`datalog::relevance`]); the
    /// decoded worlds carry empty extensions for pruned relations, which is
    /// sound because the artifact is keyed by the slice fingerprint and only
    /// ever evaluates queries over seeded relations.
    ///
    /// Two-level keying: the cheap query-shape key
    /// ([`QueryEngine::slice_key`]) resolves through an alias map to the
    /// canonical slice fingerprint, so a repeated query hits under the read
    /// lock alone, while queries whose shapes differ only in ways the
    /// relevance analysis cannot exploit (e.g. constants on an
    /// unrestrictable seed) converge on one grounded artifact instead of
    /// re-grounding per constant.
    fn asp_worlds(
        &self,
        peer: &PeerId,
        mechanism: Mechanism,
        query: &Formula,
    ) -> Result<(Arc<PreparedWorlds>, bool)> {
        let shape = (mechanism, self.slice_key(query));
        // Fast path: resolve alias and artifact under the read lock. A miss
        // hands out the stamp the preparation will carry, read before the
        // hydration below reads the store.
        let stamp = match self
            .cache
            .lookup(peer, &shape, || self.topology.dependencies_of(peer))
        {
            Cached::Hit(prepared) => return Ok((prepared, true)),
            Cached::Miss(stamp) => stamp,
        };
        // Run the relevance analysis and derive the canonical fingerprint
        // outside any lock (this is cheap next to grounding and solving,
        // which only run when the canonical artifact is cold or stale). The
        // rules depend on the topology alone and come from the engine's spec
        // table. The instances enter as facts; only the peer's relevant-peer
        // closure (the stamp's peers) can influence its answers, so the slow
        // path fetches exactly that closure's instances through the store —
        // one batched fetch, never the whole system.
        let recorder = self.recorder.as_ref();
        let prepare_span = Span::enter(recorder, "prepare");
        let instances = self.instances(&stamp.keys().cloned().collect())?;
        let SpecEntry { spec, rules } = self.specs.get(&self.topology, mechanism, peer)?;
        let seeds = self.query_seeds(query, &spec);
        // The facts' shapes are the non-empty relations: the analysis reads
        // no row, and the rule side of the graph was built with the spec.
        let relevance_span = Span::enter(recorder, "relevance");
        let analysis = rules.analyze(encode::fact_shapes(instances.values()), &seeds);
        relevance_span.finish();
        let fingerprint = analysis.fingerprint();
        // Slow path: record the alias, re-check the canonical artifact
        // under the write lock, and pull out a stale entry's saturation
        // state for patching.
        let (key, stale) = match self.cache.claim(peer, shape, fingerprint) {
            Cached::Hit(prepared) => return Ok((prepared, true)),
            Cached::Miss(miss) => miss,
        };
        // Ground (or patch) and solve outside the lock: these are the
        // expensive phases and must not serialize unrelated queries.
        let ground_span = Span::enter(recorder, if stale.is_some() { "patch" } else { "ground" });
        let (ground, state, regrounded_rules, origin) = match stale {
            Some((mut state, pending)) => {
                let (ground, regrounded_rules) = self.patch_grounding(&mut state, &pending);
                self.cache.note(CacheEvent::Patched);
                (ground, state, regrounded_rules, Vec::new())
            }
            None => {
                // Only the rows of the relations the slice keeps are
                // encoded, as tables of store symbol ids; the kept rules
                // are the spec's compiled templates, taken by index.
                let tables = encode::fact_tables(instances.values(), &self.symbols, |relation| {
                    analysis.is_relevant(relation)
                });
                let constants = encode::StoreConstants(&self.symbols);
                let (state, origin) = rules.ground(&analysis, &tables, &constants, &self.texts);
                let all = state.rule_count();
                (state.to_solver(), state, all, origin)
            }
        };
        let ground_nanos = duration_nanos(ground_span.finish());
        let prepared = self.solve_worlds(
            (mechanism, peer),
            (ground, &origin),
            prepare_span,
            (ground_nanos, state.rule_count(), regrounded_rules),
        )?;
        self.cache
            .insert(key, stamp, Arc::clone(&prepared), Some(state));
        Ok((prepared, false))
    }

    /// Solve a grounded (or patched) slice and decode its models straight
    /// into columnar worlds (under one `decode` span), closing the
    /// preparation's `prepare` span. `ground` is the slice's program for
    /// the solver ([`datalog::IncrementalGround::to_solver`]) with, for a
    /// fresh grounding, the store id each constant came from (`origin`,
    /// empty for a patched one); `ground_nanos`,
    /// `grounded_rules` and `regrounded_rules` report the grounding (or
    /// patch) that built it. Stable-model
    /// search fans out across the query executor's workers. Shared by the
    /// reader's preparation and the commit-side repair, which reads the
    /// spec `(mechanism, peer)` from the spec table.
    fn solve_worlds(
        &self,
        (mechanism, peer): (Mechanism, &PeerId),
        (ground, origin): (datalog::GroundProgram, &[Option<u32>]),
        prepare_span: Span<'_>,
        (ground_nanos, grounded_rules, regrounded_rules): (u64, usize, usize),
    ) -> Result<Arc<PreparedWorlds>> {
        // `grounded_rules` counts the grounder's rules; a grounding emits a
        // certified spec's disjunctive rules as their shift, one per head.
        let shifted = ground.rule_count() > grounded_rules;
        let grounded_atoms = ground.atom_count();
        let recorder = self.recorder.as_ref();
        let span = Span::enter(recorder, "solve");
        let mut result =
            solve_ground_recorded(ground, self.solver_config, &self.query_exec(), recorder)
                .map_err(CoreError::from)?;
        result.used_shift |= shifted;
        let solve_nanos = duration_nanos(span.finish());
        // Decoding consults the topology (relation ownership), never
        // instance data: the worlds come from the solved program.
        let decode_span = Span::enter(recorder, "decode");
        let spec = self.specs.get(&self.topology, mechanism, peer)?.spec;
        let set = crate::asp::decode::decode_worlds(
            &result,
            &spec.relevant,
            &spec.arities,
            |relation| spec.solution_predicate(&self.topology, relation),
            origin,
            &self.symbols,
        )?;
        decode_span.finish();
        Ok(Arc::new(PreparedWorlds {
            set,
            worlds: result.answer_sets.len(),
            prepare_nanos: duration_nanos(prepare_span.finish()),
            ground_nanos,
            solve_nanos,
            grounded_rules,
            grounded_atoms,
            regrounded_rules,
            provenance: Some(asp_provenance(mechanism, &result)),
        }))
    }

    /// Evaluate a query over prepared worlds and assemble the unified
    /// [`Answers`] (shared by every mechanism). Every entry carries its
    /// evidence but the rewriting's: that is the rewritten query (Example
    /// 2's `Q''`), which changes with each query and is what runs over the
    /// entry's one world.
    fn answers_from_worlds(
        &self,
        kind: StrategyKind,
        peer: &PeerId,
        worlds: &PreparedWorlds,
        cache_hit: bool,
        query: &Formula,
        free_vars: &[String],
    ) -> Result<Answers> {
        let span = Span::enter(self.recorder.as_ref(), "eval");
        let provenance = match &worlds.provenance {
            Some(provenance) => provenance.clone(),
            None => Provenance::Rewriting {
                rewritten: rewriting::rewrite_query(&self.topology, peer, query)?,
            },
        };
        let query = match &provenance {
            Provenance::Rewriting { rewritten } => rewritten,
            _ => query,
        };
        let tuples = self.certain_answers(worlds, query, free_vars)?;
        let eval_nanos = duration_nanos(span.finish());
        Ok(Answers {
            tuples,
            stats: EngineStats {
                strategy: kind,
                cache_hit,
                prepare_nanos: if cache_hit { 0 } else { worlds.prepare_nanos },
                ground_nanos: if cache_hit { 0 } else { worlds.ground_nanos },
                solve_nanos: if cache_hit { 0 } else { worlds.solve_nanos },
                eval_nanos,
                cached_prepare_nanos: if cache_hit { worlds.prepare_nanos } else { 0 },
                worlds: worlds.worlds,
                grounded_rules: worlds.grounded_rules,
                grounded_atoms: worlds.grounded_atoms,
                regrounded_rules: worlds.regrounded_rules,
                auto_reason: None,
            },
            provenance,
        })
    }

    /// Verify the query is expressed in the peer's own language `L(P)`.
    fn check_language(&self, peer: &PeerId, query: &Formula) -> Result<()> {
        let peer_data = self.topology.peer(peer)?;
        for relation in query.relations() {
            if !peer_data.schema.contains(&relation) {
                return Err(CoreError::UnknownRelation {
                    peer: peer.to_string(),
                    relation,
                });
            }
        }
        Ok(())
    }

    /// The query's certain answers over the prepared worlds: the tuples it
    /// returns in every world (Definition 5).
    ///
    /// Queries in [`CqPlan`]'s fragment (conjunction, disjunction,
    /// existentials, comparisons, nested safe negation and guarded ∀) run
    /// the join kernels over the columnar id blocks through
    /// [`WorldSet::certain`] and materialize strings once, at the end. A
    /// plan with no negation is answered over the core first, and only the
    /// smallest world's remaining answers are checked in the other worlds;
    /// a plan with negation is evaluated on every world. Anything else
    /// (unguarded ∀, bare →, unsafe ¬) decodes each world on demand, runs
    /// the general [`QueryEvaluator`] and counts one `cq.fallback`. Every
    /// world evaluation, `Q(core)` included, counts one
    /// `cq.worlds_checked`.
    ///
    /// Worlds are intersected on the engine's pool
    /// ([`Executor::try_intersect`]: set intersection commutes, so the
    /// answers are identical for every pool size). Small world sets stay
    /// on the calling thread: below [`QueryEngine::MIN_PARALLEL_WORLDS`]
    /// the per-world evaluations are cheaper than spawning workers for
    /// them.
    fn certain_answers(
        &self,
        worlds: &PreparedWorlds,
        query: &Formula,
        free_vars: &[String],
    ) -> Result<BTreeSet<Tuple>> {
        let set = &worlds.set;
        let exec = if set.len() >= Self::MIN_PARALLEL_WORLDS {
            self.query_exec()
        } else {
            Executor::sequential()
        };
        match CqPlan::compile(query, free_vars) {
            Some(plan) => {
                let (rows, checked) =
                    set.certain(&plan, |items, answers| exec.try_intersect(items, answers))?;
                self.recorder.count("cq.worlds_checked", checked as u64);
                Ok(CqPlan::materialize(&rows, &self.symbols))
            }
            None => {
                self.recorder.count("cq.fallback", 1);
                let all: Vec<usize> = (0..set.len()).collect();
                exec.try_intersect(&all, |&i| {
                    self.recorder.count("cq.worlds_checked", 1);
                    QueryEvaluator::new(&set.world(i))
                        .answers(query, free_vars)
                        .map_err(CoreError::from)
                })
            }
        }
    }
}

/// The engine's ASP specifications, one per `(mechanism, peer)`, built on
/// the first cold preparation that needs one. The rules depend on the
/// topology alone, which never changes after build, so the table is never
/// evicted or invalidated (flushing the memo cache keeps it) and is not
/// charged to the cache's byte budget. Each key has its own lock, so
/// building one peer's spec never blocks preparations of another.
#[derive(Default)]
struct SpecTable(Mutex<BTreeMap<(Mechanism, PeerId), SpecCell>>);

/// One key's slot in the [`SpecTable`], empty until its spec is built.
type SpecCell = Arc<Mutex<Option<SpecEntry>>>;

/// One spec of the [`SpecTable`]: the specification (its solution
/// predicates and decode; its `program` is moved out) and its rule part,
/// compiled once — the rule templates and the rule side of the relevance
/// graph every preparation of the spec reads ([`datalog::CompiledProgram`]).
#[derive(Clone)]
struct SpecEntry {
    spec: Arc<TransitiveSpec>,
    rules: Arc<datalog::CompiledProgram>,
}

impl SpecTable {
    /// The specification of `peer` under `mechanism`: the composition over
    /// the peer alone for direct ASP and over its trusted-DEC closure for
    /// transitive ASP, rules only (the facts reach the grounder as tables of
    /// store ids, [`encode::fact_tables`]), compiled with choice atoms
    /// unfolded. Built under the key's lock, so racing cold preparations
    /// build it once; the only writes add a key and store a finished entry,
    /// so a poisoned lock is recovered.
    fn get(&self, topology: &P2PSystem, mechanism: Mechanism, peer: &PeerId) -> Result<SpecEntry> {
        let cell = {
            let mut specs = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(specs.entry((mechanism, peer.clone())).or_default())
        };
        let mut slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = &*slot {
            return Ok(entry.clone());
        }
        let members = if mechanism == Mechanism::Transitive {
            trusted_closure(topology, peer)
        } else {
            BTreeSet::from([peer.clone()])
        };
        let mut spec = transitive_spec(topology, peer, &members, datalog::Program::new())?;
        // The compiled program is all a preparation reads of the rules, so
        // the table does not keep them twice.
        let program = std::mem::take(&mut spec.program);
        let rules = datalog::CompiledProgram::new(&program).map_err(CoreError::from)?;
        let entry = SpecEntry {
            spec: Arc::new(spec),
            rules: Arc::new(rules),
        };
        *slot = Some(entry.clone());
        Ok(entry)
    }
}

/// The evidence of a solved ASP slice, named after its mechanism;
/// `answer_set_count` counts models before world deduplication.
fn asp_provenance(mechanism: Mechanism, result: &SolveResult) -> Provenance {
    let answer_set_count = result.answer_sets.len();
    let (branch_nodes, used_shift) = (result.branch_nodes, result.used_shift);
    if mechanism == Mechanism::Transitive {
        Provenance::TransitiveAsp {
            answer_set_count,
            branch_nodes,
            used_shift,
        }
    } else {
        Provenance::Asp {
            answer_set_count,
            branch_nodes,
            used_shift,
        }
    }
}

/// The generalized binding pattern of every relation in a query: position
/// `i` is `Some(c)` exactly when *every* occurrence of the relation in the
/// formula carries the constant `c` (encoded as a program symbol) at
/// position `i`. Restricting a relation's extension to such a pattern
/// preserves the answers of every atom occurrence, which makes the pattern
/// safe to hand to the grounder as a [`datalog::QuerySeed`]. Constants the
/// store has interned alias its shared text.
fn query_binding_patterns(
    query: &Formula,
    symbols: &relalg::SymbolTable,
) -> BTreeMap<String, Vec<Option<Arc<str>>>> {
    fn meet(
        out: &mut BTreeMap<String, Vec<Option<Arc<str>>>>,
        relation: &str,
        pattern: Vec<Option<Arc<str>>>,
    ) {
        match out.get_mut(relation) {
            None => {
                out.insert(relation.to_string(), pattern);
            }
            Some(existing) => {
                if existing.len() != pattern.len() {
                    // Inconsistent arity (rejected later by evaluation):
                    // fall back to fully unbound.
                    existing.iter_mut().for_each(|slot| *slot = None);
                    return;
                }
                for (slot, new) in existing.iter_mut().zip(pattern) {
                    if *slot != new {
                        *slot = None;
                    }
                }
            }
        }
    }
    fn walk(
        query: &Formula,
        symbols: &relalg::SymbolTable,
        out: &mut BTreeMap<String, Vec<Option<Arc<str>>>>,
    ) {
        match query {
            Formula::Atom { relation, terms } => {
                let pattern = terms
                    .iter()
                    .map(|t| {
                        t.as_const()
                            .map(|v| crate::asp::encode::encode_value_shared(v, symbols))
                    })
                    .collect();
                meet(out, relation, pattern);
            }
            Formula::And(parts) | Formula::Or(parts) => {
                for part in parts {
                    walk(part, symbols, out);
                }
            }
            Formula::Not(inner) => walk(inner, symbols, out),
            Formula::Implies(a, b) => {
                walk(a, symbols, out);
                walk(b, symbols, out);
            }
            Formula::Exists(_, inner) | Formula::Forall(_, inner) => walk(inner, symbols, out),
            Formula::Compare { .. } | Formula::True | Formula::False => {}
        }
    }
    let mut out = BTreeMap::new();
    walk(query, symbols, &mut out);
    out
}

/// Reject queries outside the positive existential fragment, the only one
/// the rewriting and both ASP mechanisms answer.
fn ensure_positive_existential(query: &Formula) -> Result<()> {
    if rewriting::supports_query(query) {
        Ok(())
    } else {
        Err(CoreError::Unsupported(
            "this strategy answers positive existential queries only".to_string(),
        ))
    }
}

/// Answer variables must be bound by a relational atom in every disjunct for
/// the evaluation to be domain independent (same restriction as the legacy
/// query-program translation). Enforced uniformly by
/// [`QueryEngine::answer_as`], so an ill-formed query fails the same way
/// regardless of the mechanism that would answer it.
fn check_free_vars_bound(query: &Formula, free_vars: &[String]) -> Result<()> {
    fn bound_everywhere(query: &Formula, var: &str) -> bool {
        match query {
            Formula::Atom { terms, .. } => terms.iter().any(|t| t.as_var() == Some(var)),
            Formula::And(parts) => parts.iter().any(|p| bound_everywhere(p, var)),
            Formula::Or(parts) => parts.iter().all(|p| bound_everywhere(p, var)),
            Formula::Exists(_, inner) => bound_everywhere(inner, var),
            _ => false,
        }
    }
    for v in free_vars {
        if !bound_everywhere(query, v) {
            return Err(CoreError::Unsupported(format!(
                "answer variable `{v}` is not bound by a relational atom in every disjunct"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{example1_system, TrustLevel};
    use relalg::RelationSchema;

    /// A one-peer transaction.
    fn one(peer: &PeerId, delta: relalg::Delta) -> BTreeMap<PeerId, relalg::Delta> {
        BTreeMap::from([(peer.clone(), delta)])
    }

    fn example1_engine(strategy: Strategy) -> QueryEngine {
        QueryEngine::builder(example1_system())
            .strategy(strategy)
            .build()
    }

    fn r1_query() -> (Formula, Vec<String>) {
        (Formula::atom("R1", vec!["X", "Y"]), vars(&["X", "Y"]))
    }

    fn expected_example1() -> BTreeSet<Tuple> {
        BTreeSet::from([
            Tuple::strs(["a", "b"]),
            Tuple::strs(["c", "d"]),
            Tuple::strs(["a", "e"]),
        ])
    }

    #[test]
    fn all_four_strategies_agree_on_example1() {
        let p1 = PeerId::new("P1");
        let (query, fv) = r1_query();
        for strategy in [
            Strategy::Naive,
            Strategy::Rewriting,
            Strategy::Asp,
            Strategy::TransitiveAsp,
        ] {
            let engine = example1_engine(strategy);
            let answers = engine.answer(&p1, &query, &fv).unwrap();
            assert_eq!(answers.tuples, expected_example1(), "strategy {strategy:?}");
        }
    }

    #[test]
    fn auto_selects_rewriting_on_the_example2_class() {
        let engine = example1_engine(Strategy::Auto);
        let p1 = PeerId::new("P1");
        let (query, fv) = r1_query();
        assert_eq!(
            engine.resolve(Strategy::Auto, &p1, &query),
            StrategyKind::Rewriting
        );
        let answers = engine.answer(&p1, &query, &fv).unwrap();
        assert_eq!(answers.stats.strategy, StrategyKind::Rewriting);
        assert!(matches!(answers.provenance, Provenance::Rewriting { .. }));
        assert_eq!(answers.tuples, expected_example1());
    }

    #[test]
    fn auto_falls_back_to_asp_on_referential_decs() {
        use constraints::builders::mixed_referential;
        let mut sys = P2PSystem::new();
        sys.add_peer("P").unwrap();
        sys.add_peer("Q").unwrap();
        let p = PeerId::new("P");
        let q = PeerId::new("Q");
        for (peer, rel) in [(&p, "R1"), (&p, "R2"), (&q, "S1"), (&q, "S2")] {
            sys.add_relation(peer, RelationSchema::new(rel, &["x", "y"]))
                .unwrap();
        }
        sys.insert(&p, "R1", Tuple::strs(["a", "b"])).unwrap();
        sys.insert(&q, "S1", Tuple::strs(["c", "b"])).unwrap();
        sys.insert(&q, "S2", Tuple::strs(["c", "e"])).unwrap();
        sys.add_dec(
            &p,
            &q,
            mixed_referential("sigma3", "R1", "S1", "R2", "S2").unwrap(),
        )
        .unwrap();
        sys.set_trust(&p, TrustLevel::Less, &q).unwrap();

        let engine = QueryEngine::new(sys);
        let query = Formula::atom("R1", vec!["X", "Y"]);
        assert_eq!(
            engine.resolve(Strategy::Auto, &p, &query),
            StrategyKind::Asp
        );
        let answers = engine.answer(&p, &query, &vars(&["X", "Y"])).unwrap();
        assert_eq!(answers.stats.strategy, StrategyKind::Asp);
        assert!(matches!(answers.provenance, Provenance::Asp { .. }));
    }

    #[test]
    fn auto_falls_back_to_asp_when_local_ics_exist() {
        let mut sys = example1_system();
        let p1 = PeerId::new("P1");
        sys.add_local_ic(&p1, constraints::builders::key_denial("fd", "R1").unwrap())
            .unwrap();
        let engine = QueryEngine::new(sys);
        let (query, _) = r1_query();
        assert_eq!(
            engine.resolve(Strategy::Auto, &p1, &query),
            StrategyKind::Asp
        );
    }

    #[test]
    fn auto_falls_back_to_asp_on_non_positive_queries() {
        let engine = example1_engine(Strategy::Auto);
        let p1 = PeerId::new("P1");
        let negated = Formula::not(Formula::atom("R1", vec!["X", "Y"]));
        assert_eq!(
            engine.resolve(Strategy::Auto, &p1, &negated),
            StrategyKind::Asp
        );
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let engine = example1_engine(Strategy::Asp);
        let p1 = PeerId::new("P1");
        let (query, fv) = r1_query();
        let first = engine.answer(&p1, &query, &fv).unwrap();
        assert!(!first.stats.cache_hit);
        assert!(first.stats.prepare_time() > Duration::ZERO);
        assert!(first.stats.cached_prepare_time().is_none());
        let second = engine.answer(&p1, &query, &fv).unwrap();
        assert!(second.stats.cache_hit);
        assert_eq!(second.stats.prepare_time(), Duration::ZERO);
        // The hit reports what it saved: the original preparation cost.
        assert_eq!(
            second.stats.cached_prepare_time(),
            Some(first.stats.prepare_time())
        );
        assert_eq!(first.tuples, second.tuples);

        // A different query against the same peer also skips preparation.
        let projected = Formula::exists(vec!["Y"], Formula::atom("R1", vec!["X", "Y"]));
        let third = engine.answer(&p1, &projected, &vars(&["X"])).unwrap();
        assert!(third.stats.cache_hit);
        assert_eq!(
            third.tuples,
            BTreeSet::from([Tuple::strs(["a"]), Tuple::strs(["c"])])
        );
    }

    #[test]
    fn naive_strategy_reports_solution_provenance() {
        let engine = example1_engine(Strategy::Naive);
        let p1 = PeerId::new("P1");
        let (query, fv) = r1_query();
        let answers = engine.answer(&p1, &query, &fv).unwrap();
        assert_eq!(answers.stats.worlds, 2);
        match &answers.provenance {
            Provenance::Naive {
                solution_count,
                search,
            } => {
                assert_eq!(*solution_count, 2);
                assert!(search.states_explored > 0);
            }
            other => panic!("unexpected provenance {other:?}"),
        }
    }

    #[test]
    fn asp_strategy_reports_model_counts_and_timings() {
        let engine = example1_engine(Strategy::Asp);
        let p1 = PeerId::new("P1");
        let (query, fv) = r1_query();
        let answers = engine.answer(&p1, &query, &fv).unwrap();
        assert_eq!(answers.stats.worlds, 2);
        assert!(answers.stats.ground_time() > Duration::ZERO);
        assert!(answers.stats.total_time() >= answers.stats.prepare_time());
        match &answers.provenance {
            Provenance::Asp {
                answer_set_count,
                used_shift,
                ..
            } => {
                assert_eq!(*answer_set_count, 2);
                assert!(used_shift);
            }
            other => panic!("unexpected provenance {other:?}"),
        }
    }

    #[test]
    fn grounded_rules_count_the_grounding_before_the_shift() {
        let engine = example1_engine(Strategy::Asp);
        let (query, fv) = r1_query();
        let answers = engine.answer(&PeerId::new("P1"), &query, &fv).unwrap();
        // The slice's disjunctive rules reach the solver shifted, as more
        // rules; a cold prepare re-derives every rule the grounder made.
        assert!(matches!(
            answers.provenance,
            Provenance::Asp {
                used_shift: true,
                ..
            }
        ));
        assert_eq!(answers.stats.grounded_rules, answers.stats.regrounded_rules);
    }

    #[test]
    fn conjunctive_join_queries_agree_across_strategies() {
        // ∃y (R1(x, y) ∧ R1(z, y)) — self-join on the second column of the
        // peer's (virtually repaired) relation.
        let engine = example1_engine(Strategy::Auto);
        let p1 = PeerId::new("P1");
        let q = Formula::exists(
            vec!["Y"],
            Formula::and(vec![
                Formula::atom("R1", vec!["X", "Y"]),
                Formula::atom("R1", vec!["Z", "Y"]),
            ]),
        );
        let fv = vars(&["X", "Z"]);
        let semantic = engine.answer_with(Strategy::Naive, &p1, &q, &fv).unwrap();
        let asp = engine.answer_with(Strategy::Asp, &p1, &q, &fv).unwrap();
        assert_eq!(semantic.tuples, asp.tuples);
        assert!(asp.contains(&Tuple::strs(["a", "a"])));
    }

    #[test]
    fn union_queries_agree_across_strategies() {
        let engine = example1_engine(Strategy::Auto);
        let p1 = PeerId::new("P1");
        let q = Formula::or(vec![
            Formula::atom("R1", vec!["X", "X"]),
            Formula::exists(vec!["Y"], Formula::atom("R1", vec!["X", "Y"])),
        ]);
        let fv = vars(&["X"]);
        let semantic = engine.answer_with(Strategy::Naive, &p1, &q, &fv).unwrap();
        let asp = engine.answer_with(Strategy::Asp, &p1, &q, &fv).unwrap();
        assert_eq!(semantic.tuples, asp.tuples);
        assert!(asp.contains(&Tuple::strs(["a"])));
        assert!(asp.contains(&Tuple::strs(["c"])));
    }

    #[test]
    fn strategies_share_one_engine_via_answer_with() {
        let engine = example1_engine(Strategy::Auto);
        let p1 = PeerId::new("P1");
        let (query, fv) = r1_query();
        let mut results = Vec::new();
        for strategy in [Strategy::Naive, Strategy::Rewriting, Strategy::Asp] {
            results.push(
                engine
                    .answer_with(strategy, &p1, &query, &fv)
                    .unwrap()
                    .tuples,
            );
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn language_and_fragment_violations_error() {
        let engine = example1_engine(Strategy::Asp);
        let p1 = PeerId::new("P1");
        // Foreign relation.
        let foreign = Formula::atom("R2", vec!["X", "Y"]);
        assert!(matches!(
            engine.answer(&p1, &foreign, &vars(&["X", "Y"])),
            Err(CoreError::UnknownRelation { .. })
        ));
        // Negated query on the ASP route.
        let negated = Formula::not(Formula::atom("R1", vec!["X", "Y"]));
        assert!(matches!(
            engine.answer_with(Strategy::Asp, &p1, &negated, &vars(&["X", "Y"])),
            Err(CoreError::Unsupported(_))
        ));
        // Unbound answer variable: rejected uniformly by every strategy.
        let (query, _) = r1_query();
        for strategy in [
            Strategy::Naive,
            Strategy::Rewriting,
            Strategy::Asp,
            Strategy::TransitiveAsp,
        ] {
            assert!(
                matches!(
                    engine.answer_with(strategy, &p1, &query, &vars(&["Z"])),
                    Err(CoreError::Unsupported(_))
                ),
                "strategy {strategy:?} must reject unbound answer variables"
            );
        }
    }

    #[test]
    fn no_solution_peers_have_no_certain_answers() {
        let mut sys = P2PSystem::new();
        sys.add_peer("A").unwrap();
        sys.add_peer("B").unwrap();
        let a = PeerId::new("A");
        let b = PeerId::new("B");
        sys.add_relation(&a, RelationSchema::new("RA", &["x"]))
            .unwrap();
        sys.add_relation(&b, RelationSchema::new("RB", &["x"]))
            .unwrap();
        sys.insert(&b, "RB", Tuple::strs(["v"])).unwrap();
        sys.add_dec(
            &a,
            &b,
            constraints::builders::full_inclusion("d", "RB", "RA", 1).unwrap(),
        )
        .unwrap();
        sys.set_trust(&a, TrustLevel::Less, &b).unwrap();
        sys.add_local_ic(
            &a,
            constraints::Constraint::new(
                "empty_ra",
                vec![constraints::AtomPattern::parse("RA", &["X"])],
                vec![],
                constraints::ConstraintHead::False,
            )
            .unwrap(),
        )
        .unwrap();
        let engine = QueryEngine::new(sys);
        let query = Formula::atom("RA", vec!["X"]);
        for strategy in [Strategy::Naive, Strategy::Asp] {
            let answers = engine
                .answer_with(strategy, &a, &query, &vars(&["X"]))
                .unwrap();
            assert_eq!(answers.stats.worlds, 0, "strategy {strategy:?}");
            assert!(answers.is_empty());
        }
    }

    #[test]
    fn warm_rewriting_reports_zero_prepare_time() {
        let engine = example1_engine(Strategy::Rewriting);
        let p1 = PeerId::new("P1");
        let (query, fv) = r1_query();
        let _ = engine.answer(&p1, &query, &fv).unwrap();
        let warm = engine.answer(&p1, &query, &fv).unwrap();
        assert!(warm.stats.cache_hit);
        assert_eq!(warm.stats.prepare_time(), Duration::ZERO);
        assert!(warm.stats.cached_prepare_time().is_some());
    }

    #[test]
    fn commit_bumps_version_and_invalidates_only_the_closure() {
        use relalg::database::GroundAtom;
        use relalg::Delta;
        // Example 1: P1's closure is {P1, P2, P3}; P3's closure is {P3}.
        let engine = example1_engine(Strategy::Asp);
        let p1 = PeerId::new("P1");
        let p2 = PeerId::new("P2");
        let p3 = PeerId::new("P3");
        let (query, fv) = r1_query();
        let q3 = Formula::atom("R3", vec!["X", "Y"]);
        // Warm both peers.
        let _ = engine.answer(&p1, &query, &fv).unwrap();
        let _ = engine.answer(&p3, &q3, &fv).unwrap();
        assert_eq!(engine.cached_artifact_count(), 2);
        assert_eq!(engine.version_of(&p2), 0);

        // Commit an insertion into P2: R2(x, y).
        let delta = Delta::from_changes([GroundAtom::new("R2", Tuple::strs(["x", "y"]))], []);
        let version = engine.commit(&one(&p2, delta)).unwrap().0[&p2];
        assert_eq!(version, 1);
        assert_eq!(engine.version_of(&p2), 1);
        assert_eq!(engine.versions()[&p1], 0);

        // P1's artifact was staled and repaired *by the committing thread*
        // (patch-on-commit); P3's stayed warm untouched.
        assert_eq!(engine.cached_artifact_count(), 2);
        assert_eq!(engine.stale_artifact_count(), 0);
        assert_eq!(engine.metrics().patched, 1);
        assert!(engine.metrics().invalidated >= 1);
        let warm = engine.answer(&p3, &q3, &fv).unwrap();
        assert!(warm.stats.cache_hit);
        // The reader *hits* the repaired artifact — the patch cost moved to
        // the commit; the hit still reports the incremental re-derivation.
        let recomputed = engine.answer(&p1, &query, &fv).unwrap();
        assert!(recomputed.stats.cache_hit);
        assert!(
            recomputed.stats.regrounded_rules < recomputed.stats.grounded_rules,
            "patch re-derived {} of {} rules",
            recomputed.stats.regrounded_rules,
            recomputed.stats.grounded_rules
        );
        // The repaired answers include the imported new tuple and agree
        // with a fresh engine over the mutated system.
        assert!(recomputed.contains(&Tuple::strs(["x", "y"])));
        let fresh = QueryEngine::builder(engine.snapshot_system().unwrap())
            .strategy(Strategy::Asp)
            .build();
        assert_eq!(
            fresh.answer(&p1, &query, &fv).unwrap().tuples,
            recomputed.tuples
        );
    }

    #[test]
    fn commits_outside_the_slice_keep_artifacts_warm() {
        use relalg::database::GroundAtom;
        use relalg::Delta;
        // One peer owning two unconstrained relations: the slice of an
        // A-query never mentions B, so a commit into B cannot affect it and
        // the artifact's stamp is refreshed in place.
        let mut sys = P2PSystem::new();
        sys.add_peer("P").unwrap();
        let p = PeerId::new("P");
        sys.add_relation(&p, RelationSchema::new("A", &["x", "y"]))
            .unwrap();
        sys.add_relation(&p, RelationSchema::new("B", &["x", "y"]))
            .unwrap();
        sys.insert(&p, "A", Tuple::strs(["a", "1"])).unwrap();
        sys.insert(&p, "B", Tuple::strs(["b", "1"])).unwrap();
        let engine = QueryEngine::builder(sys).strategy(Strategy::Asp).build();
        let qa = Formula::atom("A", vec!["X", "Y"]);
        let fv = vars(&["X", "Y"]);
        let cold = engine.answer(&p, &qa, &fv).unwrap();
        let delta = Delta::from_changes([GroundAtom::new("B", Tuple::strs(["b", "2"]))], []);
        engine.commit(&one(&p, delta)).unwrap();
        assert_eq!(engine.stale_artifact_count(), 0);
        let warm = engine.answer(&p, &qa, &fv).unwrap();
        assert!(warm.stats.cache_hit, "B-delta cannot touch the A-slice");
        assert_eq!(warm.tuples, cold.tuples);
        // A commit into A stales the artifact, and the committing thread
        // repairs it before returning: the next read is a plain hit.
        let delta = Delta::from_changes([GroundAtom::new("A", Tuple::strs(["a", "2"]))], []);
        engine.commit(&one(&p, delta)).unwrap();
        assert_eq!(engine.stale_artifact_count(), 0);
        assert_eq!(engine.metrics().patched, 1);
        let repaired = engine.answer(&p, &qa, &fv).unwrap();
        assert!(repaired.stats.cache_hit);
        assert!(repaired.contains(&Tuple::strs(["a", "2"])));
    }

    #[test]
    fn insert_then_delete_commits_net_to_a_warm_artifact() {
        use relalg::database::GroundAtom;
        use relalg::Delta;
        let engine = example1_engine(Strategy::Asp);
        let p1 = PeerId::new("P1");
        let p2 = PeerId::new("P2");
        let (query, fv) = r1_query();
        let cold = engine.answer(&p1, &query, &fv).unwrap();
        let atom = GroundAtom::new("R2", Tuple::strs(["x", "y"]));
        let insert = Delta::from_changes([atom.clone()], []);
        let delete = Delta::from_changes([], [atom]);
        // Each commit stales and immediately repairs the artifact, so the
        // reader-facing cache never shows a stale entry.
        engine.commit(&one(&p2, insert)).unwrap();
        assert_eq!(engine.stale_artifact_count(), 0);
        let imported = engine.answer(&p1, &query, &fv).unwrap();
        assert!(imported.stats.cache_hit);
        assert!(imported.contains(&Tuple::strs(["x", "y"])));
        engine.commit(&one(&p2, delete)).unwrap();
        // The delete nets the instance back to the original: warm answers
        // return to the cold baseline.
        assert_eq!(engine.stale_artifact_count(), 0);
        assert_eq!(engine.metrics().patched, 2);
        let warm = engine.answer(&p1, &query, &fv).unwrap();
        assert!(warm.stats.cache_hit);
        assert_eq!(warm.tuples, cold.tuples);
    }

    #[test]
    fn cache_capacity_evicts_least_recently_used_entries() {
        let engine = QueryEngine::builder(example1_system())
            .strategy(Strategy::Asp)
            .cache_capacity(1) // everything overflows: hard thrash
            .build();
        assert_eq!(engine.cache_capacity(), Some(1));
        let p1 = PeerId::new("P1");
        let (query, fv) = r1_query();
        let first = engine.answer(&p1, &query, &fv).unwrap();
        // The sole entry exceeds the budget and is evicted immediately …
        assert_eq!(engine.cached_artifact_count(), 0);
        assert!(engine.metrics().evictions >= 1);
        // … so the repeat query misses but still answers correctly.
        let second = engine.answer(&p1, &query, &fv).unwrap();
        assert!(!second.stats.cache_hit);
        assert_eq!(first.tuples, second.tuples);

        // A budget large enough for one artifact keeps the newest and
        // evicts the oldest.
        let engine = QueryEngine::builder(example1_system())
            .strategy(Strategy::Asp)
            .cache_capacity(200_000)
            .build();
        let p3 = PeerId::new("P3");
        let q3 = Formula::atom("R3", vec!["X", "Y"]);
        let _ = engine.answer(&p1, &query, &fv).unwrap();
        let bytes_one = engine.cached_bytes();
        assert!(bytes_one > 0 && bytes_one <= 200_000, "budget fits one");
        let _ = engine.answer(&p3, &q3, &fv).unwrap();
        if engine.metrics().evictions > 0 {
            // The LRU victim is the older P1 artifact: P3 stays warm.
            let warm = engine.answer(&p3, &q3, &fv).unwrap();
            assert!(warm.stats.cache_hit);
        }
        // Unbounded engines never evict.
        let unbounded = example1_engine(Strategy::Asp);
        let _ = unbounded.answer(&p1, &query, &fv).unwrap();
        let _ = unbounded.answer(&p3, &q3, &fv).unwrap();
        assert_eq!(unbounded.metrics().evictions, 0);
    }

    #[test]
    fn commit_maintains_the_global_instance_incrementally() {
        use relalg::database::GroundAtom;
        use relalg::Delta;
        let engine = example1_engine(Strategy::Rewriting);
        let p1 = PeerId::new("P1");
        let p2 = PeerId::new("P2");
        let (query, fv) = r1_query();
        let _ = engine.answer(&p1, &query, &fv).unwrap();
        let delta = Delta::from_changes([GroundAtom::new("R2", Tuple::strs(["x", "y"]))], []);
        engine.commit(&one(&p2, delta)).unwrap();
        // The rewriting query stays warm and still sees the committed tuple.
        let warm = engine.answer(&p1, &query, &fv).unwrap();
        assert!(warm.stats.cache_hit);
        assert!(warm.contains(&Tuple::strs(["x", "y"])));
    }

    #[test]
    fn rewriting_entries_are_charged_to_the_byte_budget() {
        let p1 = PeerId::new("P1");
        let (query, fv) = r1_query();
        let engine = example1_engine(Strategy::Rewriting);
        let cold = engine.answer(&p1, &query, &fv).unwrap();
        assert_eq!(engine.cached_artifact_count(), 1);
        let bytes = engine.cached_bytes();
        assert!(bytes > 0, "the rewriting entry is charged");
        // A budget one byte short of the entry evicts it on insert.
        let bounded = QueryEngine::builder(example1_system())
            .strategy(Strategy::Rewriting)
            .cache_capacity(bytes - 1)
            .build();
        let first = bounded.answer(&p1, &query, &fv).unwrap();
        assert_eq!(bounded.cached_artifact_count(), 0);
        assert_eq!(bounded.metrics().evictions, 1);
        let second = bounded.answer(&p1, &query, &fv).unwrap();
        assert!(!second.stats.cache_hit);
        assert_eq!(first.tuples, cold.tuples);
        assert_eq!(second.tuples, cold.tuples);
    }

    #[test]
    fn only_queries_outside_the_plan_count_a_fallback() {
        let recorder = Arc::new(pdes_obs::TraceRecorder::new());
        let engine = QueryEngine::builder(example1_system())
            .strategy(Strategy::Rewriting)
            .recorder(recorder.clone())
            .build();
        let p1 = PeerId::new("P1");
        let fallbacks = || recorder.registry().counter_value("cq.fallback");
        // Example 1's rewritings — a scan, a projection and a self-join —
        // carry guarded universals, imports and (for the join) ∧ over ∨;
        // all run on the plan.
        let (scan, fv) = r1_query();
        assert_eq!(
            engine.answer(&p1, &scan, &fv).unwrap().tuples,
            expected_example1()
        );
        let projection = Formula::exists(vec!["Y"], scan.clone());
        let self_join = Formula::and(vec![scan.clone(), Formula::atom("R1", vec!["X", "Z"])]);
        for (query, fv) in [
            (projection, vars(&["X"])),
            (self_join, vars(&["X", "Y", "Z"])),
        ] {
            let want =
                QueryEvaluator::new(&engine.snapshot_system().unwrap().global_instance().unwrap())
                    .answers(
                        &rewriting::rewrite_query(engine.topology(), &p1, &query).unwrap(),
                        &fv,
                    )
                    .unwrap();
            assert_eq!(
                engine.answer(&p1, &query, &fv).unwrap().tuples,
                want,
                "{query}"
            );
        }
        assert_eq!(fallbacks(), 0);
        // An unguarded universal leaves the plan: one fallback per query,
        // however many worlds it is evaluated over.
        let unguarded = Formula::and(vec![
            scan.clone(),
            Formula::forall(vec!["Z"], Formula::atom("R1", vec!["X", "Z"])),
        ]);
        let _ = engine
            .answer_with(Strategy::Naive, &p1, &unguarded, &fv)
            .unwrap();
        assert_eq!(fallbacks(), 1);
    }

    #[test]
    fn flush_and_invalidate_report_dropped_artifacts() {
        let engine = example1_engine(Strategy::Asp);
        let p1 = PeerId::new("P1");
        let p3 = PeerId::new("P3");
        let (query, fv) = r1_query();
        let _ = engine.answer(&p1, &query, &fv).unwrap();
        let _ = engine
            .answer(&p3, &Formula::atom("R3", vec!["X", "Y"]), &fv)
            .unwrap();
        // Invalidating P3 drops only P3's artifact (nobody depends on P3
        // except P1 — but P1's stamp includes P3, so both go).
        assert_eq!(engine.invalidate_peers([p3.clone()]), 2);
        assert_eq!(engine.cached_artifact_count(), 0);
        let _ = engine.answer(&p1, &query, &fv).unwrap();
        assert!(engine.flush_cache() >= 1);
        assert_eq!(engine.cached_artifact_count(), 0);
        let metrics = engine.metrics();
        assert!(metrics.hits == 0 && metrics.misses >= 3);
        assert!(metrics.invalidated >= 3);
    }

    #[test]
    fn relevant_peers_mirror_the_dec_graph() {
        let engine = example1_engine(Strategy::Auto);
        let p1 = PeerId::new("P1");
        let p2 = PeerId::new("P2");
        assert_eq!(engine.relevant_peers(&p1).len(), 3);
        assert_eq!(engine.relevant_peers(&p2), BTreeSet::from([p2.clone()]));
    }

    #[test]
    fn answer_batch_matches_a_sequential_loop_for_every_pool_size() {
        let p1 = PeerId::new("P1");
        let p3 = PeerId::new("P3");
        let (query, fv) = r1_query();
        let batch = vec![
            Query::new(p1.clone(), query.clone(), fv.clone()),
            Query::named("P3", Formula::atom("R3", vec!["X", "Y"]), &["X", "Y"]),
            Query::named("P1", Formula::exists(vec!["Y"], query.clone()), &["X"]),
            Query::new(p3.clone(), Formula::atom("R3", vec!["X", "Y"]), fv.clone()),
        ];
        for strategy in [
            Strategy::Naive,
            Strategy::Rewriting,
            Strategy::Asp,
            Strategy::TransitiveAsp,
        ] {
            // Rewriting does not support every peer of example 1; skip the
            // unsupported combinations the same way on both paths.
            let reference: Vec<_> = {
                let engine = example1_engine(strategy);
                batch
                    .iter()
                    .map(|q| engine.answer(&q.peer, &q.query, &q.free_vars))
                    .collect()
            };
            for workers in [1, 2, 8] {
                let engine = QueryEngine::builder(example1_system())
                    .strategy(strategy)
                    .workers(workers)
                    .build();
                let results = engine.answer_batch(&batch);
                assert_eq!(results.len(), batch.len());
                for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
                    match (got, want) {
                        (Ok(g), Ok(w)) => {
                            assert_eq!(
                                g.tuples, w.tuples,
                                "strategy {strategy:?} workers {workers} query {i}"
                            );
                            assert_eq!(g.stats.worlds, w.stats.worlds);
                            assert_eq!(g.provenance, w.provenance);
                        }
                        (Err(_), Err(_)) => {}
                        other => panic!(
                            "strategy {strategy:?} workers {workers} query {i}: \
                             batch and loop disagree on success: {other:?}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn answer_batch_partitions_by_closure() {
        // Example 1: P2 and P3 import from nobody, so their closures are
        // the singletons {P2} and {P3} — disjoint, hence two partitions
        // (repeat queries join their peer's partition in order).
        let engine = QueryEngine::builder(example1_system()).workers(4).build();
        let q2 = Query::named("P2", Formula::atom("R2", vec!["X", "Y"]), &["X", "Y"]);
        let q3 = Query::named("P3", Formula::atom("R3", vec!["X", "Y"]), &["X", "Y"]);
        let disjoint = vec![q2.clone(), q3.clone(), q2.clone()];
        assert_eq!(engine.partition_batch(&disjoint), vec![vec![0, 2], vec![1]]);
        // P1's closure is {P1, P2, P3}: one P1 query collapses the batch
        // into a single partition.
        let (query, fv) = r1_query();
        let collapsed = vec![Query::new(PeerId::new("P1"), query, fv), q2, q3];
        assert_eq!(engine.partition_batch(&collapsed), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn answer_batch_partitions_same_peer_disjoint_slices_concurrently() {
        // Two bound queries on one peer with distinct restrictable slices
        // prepare distinct `(peer, slice)` artifacts — they no longer share
        // a partition, while repeats of one slice still do.
        let engine = QueryEngine::builder(example1_system())
            .strategy(Strategy::Asp)
            .workers(4)
            .build();
        let bound = |c: &str| {
            Query::named(
                "P3",
                Formula::atom_terms(
                    "R3",
                    vec![
                        relalg::query::Term::cnst(relalg::Value::str(c)),
                        relalg::query::Term::var("Y"),
                    ],
                ),
                &["Y"],
            )
        };
        let batch = vec![bound("a"), bound("c"), bound("a")];
        assert_eq!(engine.partition_batch(&batch), vec![vec![0, 2], vec![1]]);
        // Different mechanisms on one peer are independent resources too,
        // but the same slice under one mechanism still unions.
        let unbound = Query::named("P3", Formula::atom("R3", vec!["X", "Y"]), &["X", "Y"]);
        let mixed = vec![unbound.clone(), bound("a"), unbound];
        assert_eq!(engine.partition_batch(&mixed), vec![vec![0, 2], vec![1]]);
        // The batch answers still match the sequential loop.
        let batch = vec![bound("a"), bound("c")];
        let parallel: Vec<_> = engine
            .answer_batch(&batch)
            .into_iter()
            .map(|r| r.unwrap().tuples)
            .collect();
        let sequential_engine = example1_engine(Strategy::Asp);
        let sequential: Vec<_> = batch
            .iter()
            .map(|q| {
                sequential_engine
                    .answer(&q.peer, &q.query, &q.free_vars)
                    .unwrap()
                    .tuples
            })
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn batch_parallel_metrics_do_not_under_count() {
        // Regression: with plain u64 counters behind the cache lock, the
        // read-path increments raced and dropped hits. Warm one entry per
        // peer, hammer the warm cache with a large parallel batch and check
        // the atomic counters account for every single query.
        let engine = QueryEngine::builder(example1_system())
            .strategy(Strategy::Asp)
            .workers(8)
            .build();
        let (query, fv) = r1_query();
        let q3 = Formula::atom("R3", vec!["X", "Y"]);
        let warmup = vec![
            Query::new(PeerId::new("P1"), query.clone(), fv.clone()),
            Query::new(PeerId::new("P3"), q3.clone(), fv.clone()),
        ];
        for result in engine.answer_batch(&warmup) {
            let _ = result.unwrap();
        }
        let warm_base = engine.metrics();
        let rounds = 64usize;
        let batch: Vec<Query> = (0..rounds)
            .flat_map(|_| {
                [
                    Query::new(PeerId::new("P1"), query.clone(), fv.clone()),
                    Query::new(PeerId::new("P3"), q3.clone(), fv.clone()),
                ]
            })
            .collect();
        let results = engine.answer_batch(&batch);
        assert!(results.iter().all(|r| r.is_ok()));
        let metrics = engine.metrics();
        assert_eq!(
            metrics.hits - warm_base.hits,
            (rounds * 2) as u64,
            "every warm query must be counted as a hit"
        );
        assert_eq!(metrics.misses, warm_base.misses);
    }

    /// Example 1 plus an unrelated peer whose facts only bloat the full
    /// grounding — the relevance slice of any example-1 query drops them.
    fn example1_with_bystander() -> P2PSystem {
        let mut sys = example1_system();
        sys.add_peer("P4").unwrap();
        let p4 = PeerId::new("P4");
        sys.add_relation(&p4, RelationSchema::new("R4", &["x", "y"]))
            .unwrap();
        for i in 0..20 {
            sys.insert(&p4, "R4", Tuple::strs([&format!("k{i}"), "v"]))
                .unwrap();
        }
        sys
    }

    #[test]
    fn relevance_pruning_grounds_strictly_fewer_rules() {
        let p1 = PeerId::new("P1");
        let (query, fv) = r1_query();
        let system = example1_with_bystander();
        let pruned = QueryEngine::builder(system.clone())
            .strategy(Strategy::Asp)
            .build()
            .answer(&p1, &query, &fv)
            .unwrap();
        // The reference: the whole specification program, every peer's
        // facts included, grounded without any relevance analysis.
        let spec = crate::asp::annotated_program_with(&system, &p1, None).unwrap();
        let full = datalog::Grounder::new(&spec.program).ground().unwrap();
        assert_eq!(pruned.tuples, expected_example1());
        assert!(full.rule_count() > 0);
        assert!(
            pruned.stats.grounded_rules < full.rule_count(),
            "pruned {} !< full {}",
            pruned.stats.grounded_rules,
            full.rule_count()
        );
        assert!(pruned.stats.grounded_atoms < full.atom_count());
    }

    #[test]
    fn unexploitable_bindings_share_one_artifact() {
        // P1's solution predicate is read by final-check constraints, so
        // the binding of R1(a, Y) cannot restrict the grounding: the bound
        // and unbound queries resolve to the same canonical slice
        // fingerprint and share one grounded artifact (no per-constant
        // re-grounding).
        let engine = example1_engine(Strategy::Asp);
        let p1 = PeerId::new("P1");
        let (unbound, fv) = r1_query();
        let bound_atom = Formula::atom_terms(
            "R1",
            vec![
                relalg::query::Term::cnst(relalg::Value::str("a")),
                relalg::query::Term::var("Y"),
            ],
        );
        let all = engine.answer(&p1, &unbound, &fv).unwrap();
        let only_a = engine.answer(&p1, &bound_atom, &vars(&["Y"])).unwrap();
        assert!(only_a.stats.cache_hit, "same slice, different shape");
        assert_eq!(engine.cached_artifact_count(), 1);
        // The bound query's answers are the unbound answers restricted to a.
        let expected: BTreeSet<Tuple> = all
            .tuples
            .iter()
            .filter(|t| t.get(0).unwrap().to_string() == "a")
            .map(|t| Tuple::new(vec![t.get(1).unwrap().clone()]))
            .collect();
        assert_eq!(only_a.tuples, expected);
        // A comparison-bound variant (constant outside the atom) shares the
        // unbound shape key outright.
        let via_compare = engine
            .answer(
                &p1,
                &Formula::and(vec![
                    Formula::atom("R1", vec!["X", "Y"]),
                    Formula::eq(
                        relalg::query::Term::var("X"),
                        relalg::query::Term::cnst(relalg::Value::str("a")),
                    ),
                ]),
                &fv,
            )
            .unwrap();
        assert!(via_compare.stats.cache_hit);
        assert_eq!(engine.cached_artifact_count(), 1);
    }

    #[test]
    fn restrictable_bindings_get_their_own_smaller_slice() {
        // P3 has no DECs or ICs of its own, so R3's solution predicate is
        // read by nothing: the binding of R3(a, Y) applies, yielding a
        // distinct, strictly smaller grounded slice.
        let engine = example1_engine(Strategy::Asp);
        let p3 = PeerId::new("P3");
        let q3 = Formula::atom("R3", vec!["X", "Y"]);
        let bound = Formula::atom_terms(
            "R3",
            vec![
                relalg::query::Term::cnst(relalg::Value::str("a")),
                relalg::query::Term::var("Y"),
            ],
        );
        let all = engine.answer(&p3, &q3, &vars(&["X", "Y"])).unwrap();
        let only_a = engine.answer(&p3, &bound, &vars(&["Y"])).unwrap();
        assert!(!only_a.stats.cache_hit, "restricted slice is its own entry");
        assert_eq!(engine.cached_artifact_count(), 2);
        assert!(
            only_a.stats.grounded_rules < all.stats.grounded_rules,
            "bound {} !< unbound {}",
            only_a.stats.grounded_rules,
            all.stats.grounded_rules
        );
        let expected: BTreeSet<Tuple> = all
            .tuples
            .iter()
            .filter(|t| t.get(0).unwrap().to_string() == "a")
            .map(|t| Tuple::new(vec![t.get(1).unwrap().clone()]))
            .collect();
        assert_eq!(only_a.tuples, expected);
        // Repeats of the bound shape hit through the alias.
        let warm = engine.answer(&p3, &bound, &vars(&["Y"])).unwrap();
        assert!(warm.stats.cache_hit);
    }

    #[test]
    fn transitive_strategy_sees_chained_imports() {
        use constraints::builders::full_inclusion;
        let mut sys = P2PSystem::new();
        for p in ["A", "B", "C"] {
            sys.add_peer(p).unwrap();
        }
        let a = PeerId::new("A");
        let b = PeerId::new("B");
        let c = PeerId::new("C");
        for (peer, rel) in [(&a, "RA"), (&b, "RB"), (&c, "RC")] {
            sys.add_relation(peer, RelationSchema::new(rel, &["x"]))
                .unwrap();
        }
        sys.insert(&c, "RC", Tuple::strs(["v"])).unwrap();
        sys.add_dec(&a, &b, full_inclusion("dab", "RB", "RA", 1).unwrap())
            .unwrap();
        sys.add_dec(&b, &c, full_inclusion("dbc", "RC", "RB", 1).unwrap())
            .unwrap();
        sys.set_trust(&a, TrustLevel::Less, &b).unwrap();
        sys.set_trust(&b, TrustLevel::Less, &c).unwrap();

        let engine = QueryEngine::new(sys);
        let query = Formula::atom("RA", vec!["X"]);
        let direct = engine
            .answer_with(Strategy::Asp, &a, &query, &vars(&["X"]))
            .unwrap();
        assert!(direct.is_empty());
        let transitive = engine
            .answer_with(Strategy::TransitiveAsp, &a, &query, &vars(&["X"]))
            .unwrap();
        assert_eq!(transitive.tuples, BTreeSet::from([Tuple::strs(["v"])]));
    }

    #[test]
    fn failed_repairs_drop_the_entry_and_are_counted() {
        use relalg::database::GroundAtom;
        use relalg::Delta;
        let p1 = PeerId::new("P1");
        let p3 = PeerId::new("P3");
        let (query, fv) = r1_query();
        // Size the branch-node budget to exactly what the cold preparation
        // needs, so the repair of a commit that adds a conflict exceeds it.
        let probe = pdes_obs::TraceRecorder::new();
        let engine = QueryEngine::builder(example1_system())
            .strategy(Strategy::Asp)
            .recorder(Arc::new(probe.clone()))
            .build();
        let _ = engine.answer(&p1, &query, &fv).unwrap();
        let nodes = probe.registry().counter_value("solver.branch_nodes") as usize;
        let recorder = pdes_obs::TraceRecorder::new();
        let engine = QueryEngine::builder(example1_system())
            .strategy(Strategy::Asp)
            .solver_config(SolverConfig {
                max_branch_nodes: nodes,
                ..SolverConfig::default()
            })
            .recorder(Arc::new(recorder.clone()))
            .build();
        let _ = engine.answer(&p1, &query, &fv).unwrap();
        assert_eq!(engine.cached_artifact_count(), 1);
        // R3(c, z) conflicts with the R1(c, d) that P1 imports from P2.
        let delta = Delta::from_changes([GroundAtom::new("R3", Tuple::strs(["c", "z"]))], []);
        engine.commit(&one(&p3, delta)).unwrap();
        let registry = recorder.registry();
        assert_eq!(registry.counter_value("cache.stale_patch"), 1);
        assert_eq!(registry.counter_value("cache.repair_failed"), 1);
        assert_eq!(
            engine.cached_artifact_count(),
            0,
            "the failed entry is dropped"
        );
        assert!(!engine
            .cache
            .wait_for_patch(&(Mechanism::Asp, p1, String::new())));
    }

    /// The spec table's entry for `(mechanism, peer)`, if one was built.
    fn table_spec(engine: &QueryEngine, mechanism: Mechanism, peer: &PeerId) -> Option<SpecEntry> {
        let specs = engine.specs.0.lock().unwrap();
        let cell = specs.get(&(mechanism, peer.clone()))?;
        let entry = cell.lock().unwrap().clone();
        entry
    }

    /// Do two entries share one spec and one compiled rule part?
    fn same_entry(a: &SpecEntry, b: &SpecEntry) -> bool {
        Arc::ptr_eq(&a.spec, &b.spec) && Arc::ptr_eq(&a.rules, &b.rules)
    }

    #[test]
    fn one_spec_per_mechanism_and_peer_outlives_flushes_and_repairs() {
        use relalg::database::GroundAtom;
        use relalg::Delta;
        let engine = example1_engine(Strategy::Asp);
        let (p1, p2) = (PeerId::new("P1"), PeerId::new("P2"));
        let (query, fv) = r1_query();
        let _ = engine.answer(&p1, &query, &fv).unwrap();
        let entry =
            table_spec(&engine, Mechanism::Asp, &p1).expect("a cold prepare builds the spec");
        // A flush drops the prepared worlds, not the spec or its compiled
        // rules: the next cold prepare reads the same ones.
        assert_eq!(engine.flush_cache(), 1);
        let cold = engine.answer(&p1, &query, &fv).unwrap();
        assert!(!cold.stats.cache_hit);
        assert!(same_entry(
            &entry,
            &table_spec(&engine, Mechanism::Asp, &p1).unwrap()
        ));
        // A commit that stales the slice is repaired from the same spec.
        let delta = Delta::from_changes([GroundAtom::new("R2", Tuple::strs(["x", "y"]))], []);
        engine.commit(&one(&p2, delta)).unwrap();
        assert_eq!(engine.metrics().patched, 1);
        assert!(engine.answer(&p1, &query, &fv).unwrap().stats.cache_hit);
        assert!(same_entry(
            &entry,
            &table_spec(&engine, Mechanism::Asp, &p1).unwrap()
        ));
        let spec = &entry.spec;
        // The other flavour on the same peer gets its own entry.
        let transitive = engine
            .answer_with(Strategy::TransitiveAsp, &p1, &query, &fv)
            .unwrap();
        assert!(matches!(
            transitive.provenance,
            Provenance::TransitiveAsp { .. }
        ));
        let composed = table_spec(&engine, Mechanism::Transitive, &p1).unwrap();
        assert!(!Arc::ptr_eq(&entry.rules, &composed.rules));
        let composed = &composed.spec;
        assert!(!Arc::ptr_eq(spec, composed));
        assert_eq!(
            spec.specs.len(),
            1,
            "the direct spec is cut at the queried peer"
        );
        assert!(composed.specs.len() > 1, "P1 trusts P2 and P3");
        assert_eq!(engine.specs.0.lock().unwrap().len(), 2);
    }

    #[test]
    fn racing_cold_prepares_build_one_spec() {
        let engine = example1_engine(Strategy::Asp);
        let p1 = PeerId::new("P1");
        let (query, fv) = r1_query();
        let start = std::sync::Barrier::new(4);
        let entries: Vec<SpecEntry> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let _ = engine.answer(&p1, &query, &fv).unwrap();
                        table_spec(&engine, Mechanism::Asp, &p1).unwrap()
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|racer| racer.join().unwrap())
                .collect()
        });
        assert_eq!(engine.specs.0.lock().unwrap().len(), 1);
        assert!(entries.iter().all(|entry| same_entry(entry, &entries[0])));
    }
}
