//! Stable-model (answer-set) computation for ground programs.
//!
//! The solver has three layers:
//!
//! * [`NormalSolver`] — stable models of ground *normal* programs (single-atom
//!   heads) by DPLL-style search: forward propagation, unsupported-atom and
//!   unfounded-set pruning, and branching on undetermined atoms. A complete
//!   assignment at the propagation fixpoint is an answer set already (the
//!   type's docs give the argument), so only its coherence is checked;
//!   debug builds also re-run the Gelfond–Lifschitz reduct check on it as
//!   an assertion. Models are sorted vectors of atom ids.
//! * [`DisjunctiveSolver`] — answer sets of arbitrary ground disjunctive
//!   programs by candidate-model enumeration plus a reduct-minimality check.
//!   This is only used for programs that are *not* head-cycle-free; the
//!   paper's specification programs are HCF (Section 4.1), so the common path
//!   is [`NormalSolver`] over their shift, which the engine gets straight
//!   from the grounding ([`crate::IncrementalGround::to_solver`]);
//!   [`solve_ground_recorded`] checks and shifts any other HCF program.
//! * [`solve`] — the front door: unfolds choices, grounds, picks the
//!   appropriate solver (normal / shifted-HCF / generic disjunctive) and
//!   enforces coherence of classical negation.
//!
//! ## Propagation
//!
//! [`NormalSolver`] does work linear in the program size at each branch
//! node, in the style of clasp (Gebser et al., "Conflict-driven answer set
//! solving", IJCAI 2007):
//!
//! * **Occurrence lists.** Built once per program, read straight off the
//!   ground program's flat rule table: per atom, the rules it occurs in
//!   positively and under default negation, and the number of rules it
//!   heads; per rule, its head and body lengths.
//! * **Counters.** Each assignment updates per-rule counts of true and false
//!   body literals and per-atom counts of live supporting rules, touching
//!   only the rules the atom occurs in. A rule whose body turns true queues
//!   its head as true (a constraint's is a conflict); an atom whose last
//!   supporting rule dies is queued as false.
//! * **Unfounded sets.** Once the queues are empty, one worklist pass
//!   computes the atoms still derivable when unassigned negated literals
//!   are read optimistically — a Horn least model by missing-positive
//!   counters (Dowling & Gallier, 1984) — and every other atom becomes
//!   false. A program certified tight ([`GroundProgram::is_tight`]: no
//!   positive cycle) skips the pass: at a fixpoint of forward and support
//!   propagation it can set nothing and find no conflict, so the closure
//!   and the search tree are the same without it (see [`NormalSolver`]).
//!   Debug builds run it anyway and assert that. Every pass run counts
//!   towards the `solver.unfounded_passes` counter.
//! * **Coherence.** A complete assignment is checked against the list of
//!   complement pairs (`p` and `-p` both interned), compared by id; a
//!   program without such a pair checks nothing.
//! * **Branching.** The branch atom is read off the counters: the first
//!   rule whose body is neither dead nor true gives an unassigned
//!   default-negated atom, else the first such rule an unassigned positive
//!   body atom or head.
//! * **Trail.** Assignments are recorded on a trail; backtracking undoes
//!   them and their counter updates instead of cloning the assignment.
//!
//! Every propagation rule is monotone, so the closure at a node is unique:
//! it does not depend on the order in which rules fire. With the branching
//! choice fixed, the search tree — and so the branch-node count and the
//! order in which answer sets are found — is a function of the program.
//!
//! ## Parallel model search
//!
//! Stable-model enumeration branches on undetermined atoms, and the two
//! subtrees under a branch never observe each other: the search is a pure
//! function of the assignment prefix. [`solve_ground_with`] exploits this by
//! expanding the first few levels of the search tree breadth-first into
//! independent *seed* assignments and fanning the subtree searches out across
//! a [`pdes_exec::Executor`] pool. Models are merged, sorted and deduplicated
//! exactly like the sequential path, so the answer sets are identical for any
//! worker count; the branch-node counter is shared (one atomic) so the
//! search-limit guard spans the whole pool.

use crate::error::DatalogError;
use crate::graph::is_head_cycle_free;
use crate::ground::{AtomId, GroundProgram, Grounder, Rules};
use crate::shift::shift_owned;
use crate::syntax::Program;
use pdes_exec::Executor;
use pdes_obs::{Recorder, Span};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Search limits and options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Abort after this many branch nodes.
    pub max_branch_nodes: usize,
    /// Ground programs with fewer atoms than this solve sequentially even
    /// when a worker pool is supplied: below it, per-subtree work is so
    /// small that thread spawning dominates. Set to 0 to always fan out
    /// (used by the equivalence tests).
    pub parallel_min_atoms: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_branch_nodes: 5_000_000,
            parallel_min_atoms: 128,
        }
    }
}

/// Result of an answer-set computation.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The ground program that was solved (after choice unfolding and, when
    /// applicable, HCF shifting of the original).
    pub ground: GroundProgram,
    /// The answer sets, each as the sorted atom ids of `ground` it makes
    /// true; the list itself is sorted and free of duplicates.
    pub answer_sets: Vec<Vec<AtomId>>,
    /// Number of branch nodes explored.
    pub branch_nodes: usize,
    /// Whether the disjunctive program was solved by HCF shifting.
    pub used_shift: bool,
}

/// Compute the answer sets of a (non-ground) program.
///
/// Choice atoms are unfolded, the program is grounded, and the appropriate
/// solver is selected: normal programs and head-cycle-free disjunctive
/// programs go through the [`NormalSolver`] (the latter after shifting),
/// other disjunctive programs go through the [`DisjunctiveSolver`].
pub fn solve(program: &Program, config: SolverConfig) -> Result<SolveResult, DatalogError> {
    solve_with(program, config, &Executor::sequential())
}

/// [`solve`], fanning the stable-model search out across `exec`'s workers.
pub fn solve_with(
    program: &Program,
    config: SolverConfig,
    exec: &Executor,
) -> Result<SolveResult, DatalogError> {
    let ground = Grounder::new(program).ground()?;
    solve_ground_with(ground, config, exec)
}

/// [`solve_with`], grounding only the query-relevant slice of the program
/// (see [`crate::relevance`]). The answer sets of the pruned program agree
/// with the full program's on every relevant predicate; their *count* may be
/// lower, because dropped rules can only multiply models without changing
/// the relevant atoms.
pub fn solve_relevant_with(
    program: &Program,
    seeds: &[crate::relevance::QuerySeed],
    config: SolverConfig,
    exec: &Executor,
) -> Result<SolveResult, DatalogError> {
    let ground = Grounder::new(program).ground_relevant(seeds)?;
    solve_ground_with(ground, config, exec)
}

/// Compute the answer sets of an already-ground program.
pub fn solve_ground(
    ground: GroundProgram,
    config: SolverConfig,
) -> Result<SolveResult, DatalogError> {
    solve_ground_with(ground, config, &Executor::sequential())
}

/// [`solve_ground`], fanning the stable-model search out across `exec`'s
/// workers. The answer sets are identical to the sequential path for every
/// pool size (see the module docs); only normal and shifted-HCF programs
/// parallelize — the generic disjunctive solver's subset-minimality check is
/// the rare path and stays sequential.
pub fn solve_ground_with(
    ground: GroundProgram,
    config: SolverConfig,
    exec: &Executor,
) -> Result<SolveResult, DatalogError> {
    solve_ground_recorded(ground, config, exec, &pdes_obs::NullRecorder)
}

/// [`solve_ground_with`], reporting search telemetry to `recorder`: every
/// explored branch node counts towards the `solver.branch_nodes` counter,
/// every unfounded-set pass of a normal search towards
/// `solver.unfounded_passes`, and each parallel search subtree runs under a
/// `solve.subtree` span (so a trace shows the fan-out shape and per-subtree
/// time).
pub fn solve_ground_recorded(
    ground: GroundProgram,
    config: SolverConfig,
    exec: &Executor,
    recorder: &dyn Recorder,
) -> Result<SolveResult, DatalogError> {
    if !ground.is_disjunctive() {
        let solver = NormalSolver::new(&ground, config);
        let (answer_sets, branch_nodes) = solver.answer_sets_recorded(exec, recorder)?;
        drop(solver);
        return Ok(SolveResult {
            ground,
            answer_sets,
            branch_nodes,
            used_shift: false,
        });
    }
    if is_head_cycle_free(&ground) {
        let shifted = shift_owned(ground);
        let solver = NormalSolver::new(&shifted, config);
        let (answer_sets, branch_nodes) = solver.answer_sets_recorded(exec, recorder)?;
        drop(solver);
        return Ok(SolveResult {
            ground: shifted,
            answer_sets,
            branch_nodes,
            used_shift: true,
        });
    }
    let solver = DisjunctiveSolver::new(&ground, config);
    let (answer_sets, branch_nodes) = solver.answer_sets()?;
    recorder.count("solver.branch_nodes", branch_nodes as u64);
    Ok(SolveResult {
        ground,
        answer_sets,
        branch_nodes,
        used_shift: false,
    })
}

/// The branch-node budget of one enumeration, shared by every worker of a
/// parallel search so the global limit holds across the whole pool.
struct NodeBudget<'a> {
    counter: &'a AtomicUsize,
    limit: usize,
}

impl NodeBudget<'_> {
    /// Count one search node; error once the global limit is exceeded.
    fn tick(&self) -> Result<(), DatalogError> {
        let nodes = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        if nodes > self.limit {
            return Err(DatalogError::SearchLimitExceeded {
                what: "branch nodes".to_string(),
                limit: self.limit,
            });
        }
        Ok(())
    }
}

/// Truth assignment used during search.
type Assignment = Vec<Option<bool>>;

/// The complement pairs of a ground program: `(p, -p)` for every atom
/// whose complement is interned too. Computed once per ground program, so
/// the coherence check compares ids only. Atoms pair by id: a predicate id
/// with its other-signed twin, then equal constant ids.
fn complement_pairs(program: &GroundProgram) -> Vec<(AtomId, AtomId)> {
    let n = program.atom_count();
    let mut pairs = Vec::new();
    let twin: Vec<Option<u32>> = (0..program.predicate_count() as u32)
        .map(|pred| program.complement_predicate(pred))
        .collect();
    let negated = |pred: u32| program.predicate(pred).1;
    let mut positive: HashMap<(u32, &[u32]), AtomId> = HashMap::new();
    for id in 0..n {
        let pred = program.atom_predicate(id);
        if !negated(pred) && twin[pred as usize].is_some() {
            positive.insert((pred, program.atom_args(id)), id);
        }
    }
    if positive.is_empty() {
        return pairs;
    }
    for id in 0..n {
        let pred = program.atom_predicate(id);
        let Some(twin) = twin[pred as usize].filter(|_| negated(pred)) else {
            continue;
        };
        if let Some(&other) = positive.get(&(twin, program.atom_args(id))) {
            pairs.push((other, id));
        }
    }
    pairs
}

/// Is the complete assignment coherent, i.e. free of `p` / `-p` clashes?
fn is_coherent(complements: &[(AtomId, AtomId)], assign: &Assignment) -> bool {
    let holds = |a: AtomId| assign[a] == Some(true);
    !complements.iter().any(|&(p, q)| holds(p) && holds(q))
}

/// The true atoms of a complete assignment, in id order.
fn true_atoms(assign: &Assignment) -> Vec<AtomId> {
    assign
        .iter()
        .enumerate()
        .filter_map(|(i, v)| if *v == Some(true) { Some(i) } else { None })
        .collect()
}

/// The shape of one normal ground rule, as the counters need it.
#[derive(Debug, Clone, Copy)]
struct RuleShape {
    /// The head atom; `None` for a constraint.
    head: Option<AtomId>,
    /// Number of body literals (positive and default-negated).
    body_len: usize,
    /// Number of positive body literals.
    pos_len: usize,
}

thread_local! {
    /// The `usize` buffers of this thread's finished solvers and subtree
    /// walks, for the next ones: a solve then reuses memory its thread has
    /// touched before instead of faulting fresh heap pages in.
    static BUFFERS: RefCell<Vec<Vec<usize>>> = const { RefCell::new(Vec::new()) };
}

/// `items` in one of this thread's reused buffers.
fn buffer(items: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut buf = BUFFERS.with(|b| b.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.extend(items);
    buf
}

/// Buffers of this many elements or more are freed rather than kept, so an
/// idle thread keeps under two megabytes for the next solve.
const KEPT_CAPACITY: usize = 1 << 14;

/// Hand buffers back to this thread for reuse (dropped instead while the
/// thread tears its locals down).
fn recycle<const N: usize>(buffers: [&mut Vec<usize>; N]) {
    let buffers = buffers.map(std::mem::take);
    let kept = buffers.into_iter().filter(|b| b.capacity() < KEPT_CAPACITY);
    let _ = BUFFERS.try_with(|b| b.borrow_mut().extend(kept));
}

/// Per-atom rule lists in one flat buffer: the rules of atom `a` are
/// `rules[offsets[a]..offsets[a + 1]]`, once per occurrence.
struct Occurrences {
    offsets: Vec<usize>,
    rules: Vec<usize>,
}

impl Occurrences {
    /// The occurrence lists of one body part: `part` maps a rule's end
    /// offsets in the rule table to the part's range of literals.
    fn build(atoms: usize, rules: Rules<'_>, part: impl Fn([u32; 3]) -> Range<u32>) -> Self {
        let body = |&ends: &[u32; 3]| {
            let range = part(ends);
            &rules.lits[range.start as usize..range.end as usize]
        };
        let mut offsets = buffer((0..=atoms).map(|_| 0));
        for ends in rules.ends {
            for &atom in body(ends) {
                offsets[atom + 1] += 1;
            }
        }
        for atom in 0..atoms {
            offsets[atom + 1] += offsets[atom];
        }
        let mut cursor = buffer(offsets.iter().copied());
        let mut flat = buffer((0..offsets[atoms]).map(|_| 0));
        for (idx, ends) in rules.ends.iter().enumerate() {
            for &atom in body(ends) {
                flat[cursor[atom]] = idx;
                cursor[atom] += 1;
            }
        }
        recycle([&mut cursor]);
        Occurrences {
            offsets,
            rules: flat,
        }
    }

    fn of(&self, atom: AtomId) -> &[usize] {
        &self.rules[self.offsets[atom]..self.offsets[atom + 1]]
    }
}

/// Stable-model enumeration for normal ground programs.
///
/// [`NormalSolver::new`] builds the occurrence lists once; each subtree walk
/// then owns the counters, queues and trail of the assignment it explores
/// (see the module docs' *Propagation*).
///
/// A complete assignment M is reached only at a propagation fixpoint, and
/// there it is stable, as in clasp:
///
/// * every rule whose body is true in M has fired, so M is a model of the
///   program P and no constraint body holds;
/// * M is then a model of the reduct P^M too (a reduct rule whose positive
///   body holds in M comes from a rule whose whole body is true in M), so
///   LM(P^M) ⊆ M;
/// * every true atom lies in the optimistic derivable set, a Horn closure
///   over rules whose bodies are true in M; those rules are rules of P^M,
///   so M ⊆ LM(P^M).
///
/// On a program certified tight ([`GroundProgram::is_tight`]) propagation
/// stops at the fixpoint of forward and support propagation, and the last
/// step reads differently. Support propagation makes an atom false once its
/// last rule's body dies, so every true atom of a complete fixpoint M heads
/// a rule whose body is true in M: M is a *supported* model. On a tight
/// program every supported model is stable (Fages 1994; Erdem & Lifschitz,
/// "Tight logic programs", 2003). The skipped pass would have changed
/// nothing: along the positive dependency order, which tightness makes
/// well-founded, every atom not false at a support fixpoint heads a rule
/// with no dead body literal, whose positive atoms are not false either and
/// so derivable, so it is optimistically derivable itself. The search tree
/// is therefore the same with or without the pass; debug builds run it and
/// assert that it sets nothing and finds no conflict.
///
/// So a complete assignment is kept when it is coherent. The
/// Gelfond–Lifschitz check is a `debug_assert!`: every debug-build solve
/// re-checks the argument on every model it finds.
pub struct NormalSolver<'a> {
    program: &'a GroundProgram,
    config: SolverConfig,
    /// Per rule: its head and body lengths.
    shapes: Vec<RuleShape>,
    /// Per atom: the number of rules having it as head.
    head_rules: Vec<usize>,
    /// Per atom: the rules with the atom in their positive body.
    pos_occ: Occurrences,
    /// Per atom: the rules with the atom default-negated in their body.
    neg_occ: Occurrences,
    /// The complement pairs (see [`complement_pairs`]).
    complements: Vec<(AtomId, AtomId)>,
}

impl Drop for NormalSolver<'_> {
    fn drop(&mut self) {
        let (pos, neg) = (&mut self.pos_occ, &mut self.neg_occ);
        recycle([
            &mut self.head_rules,
            &mut pos.offsets,
            &mut pos.rules,
            &mut neg.offsets,
            &mut neg.rules,
        ]);
    }
}

impl Drop for SearchState<'_, '_> {
    fn drop(&mut self) {
        recycle([
            &mut self.trail,
            &mut self.true_lits,
            &mut self.false_lits,
            &mut self.live_rules,
            &mut self.fired,
            &mut self.unsupported,
            &mut self.missing,
        ]);
    }
}

impl<'a> NormalSolver<'a> {
    /// Create a solver. Panics if the program is disjunctive (callers shift
    /// first).
    pub fn new(program: &'a GroundProgram, config: SolverConfig) -> Self {
        assert!(
            !program.is_disjunctive(),
            "NormalSolver requires a non-disjunctive program"
        );
        let atoms = program.atom_count();
        let rules = program.rules();
        let mut head_rules = buffer((0..atoms).map(|_| 0));
        let mut shapes = Vec::with_capacity(rules.len());
        let mut start = 0;
        for &[heads_end, pos_end, end] in rules.ends {
            let head = (start < heads_end).then(|| rules.lits[start as usize]);
            if let Some(h) = head {
                head_rules[h] += 1;
            }
            shapes.push(RuleShape {
                head,
                body_len: (end - heads_end) as usize,
                pos_len: (pos_end - heads_end) as usize,
            });
            start = end;
        }
        NormalSolver {
            program,
            config,
            shapes,
            head_rules,
            pos_occ: Occurrences::build(atoms, rules, |[heads_end, pos_end, _]| heads_end..pos_end),
            neg_occ: Occurrences::build(atoms, rules, |[_, pos_end, end]| pos_end..end),
            complements: complement_pairs(program),
        }
    }

    /// Enumerate all stable models, each as sorted atom ids. Returns
    /// (models, branch node count).
    pub fn answer_sets(&self) -> Result<(Vec<Vec<AtomId>>, usize), DatalogError> {
        self.answer_sets_with(&Executor::sequential())
    }

    /// Enumerate all stable models, fanning independent search subtrees out
    /// across `exec`'s workers. The first few tree levels are expanded
    /// breadth-first into seed assignments (a few per worker, so an
    /// unbalanced tree still load-balances); each seed's subtree is searched
    /// sequentially by one worker. Results are merged, sorted and
    /// deduplicated, which makes the output identical to [`Self::answer_sets`]
    /// for every pool size. Returns (models, branch node count).
    pub fn answer_sets_with(
        &self,
        exec: &Executor,
    ) -> Result<(Vec<Vec<AtomId>>, usize), DatalogError> {
        self.answer_sets_recorded(exec, &pdes_obs::NullRecorder)
    }

    /// [`Self::answer_sets_with`], reporting search telemetry to `recorder`
    /// (`solver.branch_nodes` and `solver.unfounded_passes` counters; one
    /// `solve.subtree` span per parallel search subtree).
    pub fn answer_sets_recorded(
        &self,
        exec: &Executor,
        recorder: &dyn Recorder,
    ) -> Result<(Vec<Vec<AtomId>>, usize), DatalogError> {
        let counter = AtomicUsize::new(0);
        let budget = NodeBudget {
            counter: &counter,
            limit: self.config.max_branch_nodes,
        };
        let root: Assignment = vec![None; self.program.atom_count()];
        let workers = exec.config().workers;
        let mut models = Vec::new();
        let mut passes = 0;
        if workers <= 1 || self.program.atom_count() < self.config.parallel_min_atoms {
            let mut state = SearchState::new(self, &root);
            self.search(&mut state, &mut models, &budget)?;
            passes = state.passes;
        } else {
            let seeds = self.expand_seeds(root, workers * 4, &mut models, &budget, &mut passes)?;
            recorder.count("solver.subtrees", seeds.len() as u64);
            let found = exec.try_map(&seeds, |seed| {
                let span = Span::enter(recorder, "solve.subtree");
                let mut local = Vec::new();
                let mut state = SearchState::new(self, seed);
                self.search(&mut state, &mut local, &budget)?;
                span.finish();
                Ok::<_, DatalogError>((local, state.passes))
            })?;
            for (local, subtree_passes) in found {
                models.extend(local);
                passes += subtree_passes;
            }
        }
        // Deterministic order for reproducibility.
        models.sort();
        models.dedup();
        let branch_nodes = counter.load(Ordering::Relaxed);
        recorder.count("solver.branch_nodes", branch_nodes as u64);
        recorder.count("solver.unfounded_passes", passes as u64);
        Ok((models, branch_nodes))
    }

    /// Expand the search tree breadth-first until at least `target` open
    /// nodes exist (or the tree is exhausted). Complete nodes encountered on
    /// the way are model-checked into `models` directly; the returned seeds
    /// are exactly the open frontier, so seeds ∪ visited covers the same
    /// tree the sequential search walks. Adds the unfounded-set passes it
    /// runs to `passes`.
    fn expand_seeds(
        &self,
        root: Assignment,
        target: usize,
        models: &mut Vec<Vec<AtomId>>,
        budget: &NodeBudget<'_>,
        passes: &mut usize,
    ) -> Result<Vec<Assignment>, DatalogError> {
        let mut frontier: VecDeque<Assignment> = VecDeque::from([root]);
        while frontier.len() < target {
            let Some(seed) = frontier.pop_front() else {
                break;
            };
            budget.tick()?;
            let mut state = SearchState::new(self, &seed);
            let consistent = state.propagate();
            *passes += state.passes;
            if !consistent {
                continue;
            }
            match self.pick_branch_atom(&state) {
                None => self.collect_model(&state.assign, models),
                Some(atom) => {
                    for value in [true, false] {
                        let mut next = state.assign.clone();
                        next[atom] = Some(value);
                        frontier.push_back(next);
                    }
                }
            }
        }
        Ok(frontier.into_iter().collect())
    }

    /// Keep a complete assignment at a propagation fixpoint when it is
    /// coherent. It is stable already (see [`NormalSolver`]); debug builds
    /// check that again with the reduct's least model.
    fn collect_model(&self, assign: &Assignment, models: &mut Vec<Vec<AtomId>>) {
        debug_assert!(
            self.is_stable(assign),
            "a total propagation fixpoint is stable"
        );
        if is_coherent(&self.complements, assign) {
            models.push(true_atoms(assign));
        }
    }

    /// Search the subtree below `state`'s assignment. The caller undoes
    /// whatever this leaves on the trail.
    fn search(
        &self,
        state: &mut SearchState<'_, 'a>,
        models: &mut Vec<Vec<AtomId>>,
        budget: &NodeBudget<'_>,
    ) -> Result<(), DatalogError> {
        budget.tick()?;
        if !state.propagate() {
            return Ok(());
        }
        match self.pick_branch_atom(state) {
            None => {
                self.collect_model(&state.assign, models);
                Ok(())
            }
            Some(atom) => {
                let mark = state.trail.len();
                for value in [true, false] {
                    state.set(atom, value);
                    let explored = self.search(state, models, budget);
                    state.undo(mark);
                    explored?;
                }
                Ok(())
            }
        }
    }

    /// The rules in which assigning `value` to `atom` makes a body literal
    /// true, and those in which it makes one false.
    fn occurrences(&self, atom: AtomId, value: bool) -> (&[usize], &[usize]) {
        let (pos, neg) = (self.pos_occ.of(atom), self.neg_occ.of(atom));
        if value {
            (pos, neg)
        } else {
            (neg, pos)
        }
    }

    /// Least model of the rules `eligible` admits, each read as the Horn
    /// clause `head :- pos`: one worklist pass in which every derived atom
    /// decrements the missing-positive counter of the rules it occurs in,
    /// and a rule whose counter reaches zero derives its head. Linear in
    /// the program size (Dowling & Gallier). `derived` and `missing` are
    /// sized buffers that this overwrites.
    fn horn_closure(
        &self,
        eligible: impl Fn(usize, AtomId) -> bool,
        derived: &mut [bool],
        missing: &mut [usize],
    ) {
        derived.fill(false);
        let mut worklist = Vec::new();
        let fire = |rule: usize, derived: &mut [bool], worklist: &mut Vec<AtomId>| {
            if let Some(head) = self.shapes[rule].head {
                if !derived[head] && eligible(rule, head) {
                    derived[head] = true;
                    worklist.push(head);
                }
            }
        };
        for (rule, shape) in self.shapes.iter().enumerate() {
            missing[rule] = shape.pos_len;
            if shape.pos_len == 0 {
                fire(rule, derived, &mut worklist);
            }
        }
        while let Some(atom) = worklist.pop() {
            for &rule in self.pos_occ.of(atom) {
                missing[rule] -= 1;
                if missing[rule] == 0 {
                    fire(rule, derived, &mut worklist);
                }
            }
        }
    }

    /// Pick the next atom to branch on: prefer atoms occurring under default
    /// negation in rules that are still open (body neither dead nor true,
    /// read off the state's counters), then an open rule's first unassigned
    /// positive body atom or head, then the first unassigned atom.
    fn pick_branch_atom(&self, state: &SearchState<'_, 'a>) -> Option<AtomId> {
        let assign = &state.assign;
        let Rules { lits, ends } = self.program.rules();
        let mut fallback = None;
        let mut end = 0;
        for (rule, &[heads_end, pos_end, next]) in ends.iter().enumerate() {
            let start = std::mem::replace(&mut end, next as usize);
            if state.false_lits[rule] > 0 || state.true_lits[rule] == self.shapes[rule].body_len {
                continue;
            }
            let (heads_end, pos_end) = (heads_end as usize, pos_end as usize);
            if let Some(&n) = lits[pos_end..end].iter().find(|&&n| assign[n].is_none()) {
                return Some(n);
            }
            if fallback.is_none() {
                fallback = lits[heads_end..pos_end]
                    .iter()
                    .chain(&lits[start..heads_end])
                    .copied()
                    .find(|&a| assign[a].is_none());
            }
        }
        fallback.or_else(|| assign.iter().position(Option::is_none))
    }

    /// Gelfond–Lifschitz check on a complete assignment: is its set of true
    /// atoms the least model of its own reduct, and does it satisfy every
    /// constraint? Only debug builds run it (see [`NormalSolver`]).
    fn is_stable(&self, assign: &Assignment) -> bool {
        let holds = |a: &AtomId| assign[*a] == Some(true);
        let rules = self.program.rules();
        // Constraints must be classically satisfied.
        let violated = rules.iter().any(|rule| {
            rule.heads.is_empty() && rule.pos.iter().all(holds) && !rule.neg.iter().any(holds)
        });
        if violated {
            return false;
        }
        // Least model of the reduct: rules with a true negated atom are
        // removed, the rest lose their negative body.
        let removed: Vec<bool> = rules
            .iter()
            .map(|rule| rule.neg.iter().any(holds))
            .collect();
        let mut least = vec![false; assign.len()];
        let mut missing = vec![0; rules.len()];
        self.horn_closure(|rule, _| !removed[rule], &mut least, &mut missing);
        least
            .iter()
            .zip(assign)
            .all(|(&derived, &value)| derived == (value == Some(true)))
    }
}

/// The state of one sequential subtree walk of a [`NormalSolver`]: the
/// partial assignment, its trail, the propagation counters and queues, and
/// the unfounded-set pass's buffers.
struct SearchState<'s, 'a> {
    solver: &'s NormalSolver<'a>,
    assign: Assignment,
    /// Assigned atoms in assignment order.
    trail: Vec<AtomId>,
    /// Per rule: body literals currently true.
    true_lits: Vec<usize>,
    /// Per rule: body literals currently false (the body is dead when > 0).
    false_lits: Vec<usize>,
    /// Per atom: rules with the atom as head whose body is not dead.
    live_rules: Vec<usize>,
    /// Rules whose body became true, not yet propagated.
    fired: Vec<usize>,
    /// Atoms whose last live rule died, not yet propagated.
    unsupported: Vec<AtomId>,
    /// The optimistically derivable atoms of the last unfounded-set pass.
    derivable: Vec<bool>,
    /// Per rule: the unfounded-set pass's missing-positive counters.
    missing: Vec<usize>,
    /// Unfounded-set passes run, for the `solver.unfounded_passes` counter.
    passes: usize,
}

/// What one unfounded-set pass did to the assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unfounded {
    /// Every atom outside the derivable set was false already.
    Unchanged,
    /// Some unassigned atoms were unfounded and are now false.
    Falsified,
    /// A true atom is unfounded.
    Conflict,
}

impl<'s, 'a> SearchState<'s, 'a> {
    /// The state with `seed`'s literals assigned and nothing propagated yet.
    fn new(solver: &'s NormalSolver<'a>, seed: &[Option<bool>]) -> Self {
        let atoms = solver.program.atom_count();
        let rules = solver.shapes.len();
        let mut state = SearchState {
            solver,
            assign: vec![None; atoms],
            trail: buffer([]),
            true_lits: buffer((0..rules).map(|_| 0)),
            false_lits: buffer((0..rules).map(|_| 0)),
            live_rules: buffer(solver.head_rules.iter().copied()),
            // Bodiless rules fire, and atoms that head no rule are
            // unsupported, before anything is assigned.
            fired: buffer((0..rules).filter(|&r| solver.shapes[r].body_len == 0)),
            unsupported: buffer((0..atoms).filter(|&a| solver.head_rules[a] == 0)),
            derivable: vec![false; atoms],
            missing: buffer((0..rules).map(|_| 0)),
            passes: 0,
        };
        for (atom, value) in seed.iter().enumerate() {
            if let Some(value) = *value {
                state.set(atom, value);
            }
        }
        state
    }

    /// Assign an unassigned atom, updating the counters of the rules it
    /// occurs in and queueing the rules and atoms that now propagate.
    fn set(&mut self, atom: AtomId, value: bool) {
        debug_assert!(self.assign[atom].is_none());
        self.assign[atom] = Some(value);
        self.trail.push(atom);
        let solver = self.solver;
        let (made_true, made_false) = solver.occurrences(atom, value);
        for &rule in made_true {
            self.true_lits[rule] += 1;
            if self.true_lits[rule] == solver.shapes[rule].body_len {
                self.fired.push(rule);
            }
        }
        for &rule in made_false {
            self.false_lits[rule] += 1;
            if self.false_lits[rule] == 1 {
                if let Some(head) = solver.shapes[rule].head {
                    self.live_rules[head] -= 1;
                    if self.live_rules[head] == 0 {
                        self.unsupported.push(head);
                    }
                }
            }
        }
    }

    /// Unassign every atom assigned after the trail had length `mark`,
    /// reverting their counter updates. `mark` must be taken at a
    /// propagation fixpoint, where both queues are empty.
    fn undo(&mut self, mark: usize) {
        let solver = self.solver;
        for atom in self.trail.drain(mark..).rev() {
            let value = self.assign[atom].take() == Some(true);
            let (made_true, made_false) = solver.occurrences(atom, value);
            for &rule in made_true {
                self.true_lits[rule] -= 1;
            }
            for &rule in made_false {
                self.false_lits[rule] -= 1;
                if self.false_lits[rule] == 0 {
                    if let Some(head) = solver.shapes[rule].head {
                        self.live_rules[head] += 1;
                    }
                }
            }
        }
        self.fired.clear();
        self.unsupported.clear();
    }

    /// Extend the assignment to the closure of forward, support and
    /// unfounded-set propagation. Returns `false` on conflict. On a program
    /// certified tight the closure is reached without the unfounded-set
    /// pass (see [`NormalSolver`]); debug builds run it to check that.
    fn propagate(&mut self) -> bool {
        let tight = self.solver.program.is_tight();
        loop {
            if !self.propagate_queued() {
                return false;
            }
            if tight {
                debug_assert_eq!(
                    self.falsify_unfounded(),
                    Unfounded::Unchanged,
                    "a tight program's support fixpoint has no unfounded atom"
                );
                return true;
            }
            self.passes += 1;
            match self.falsify_unfounded() {
                Unfounded::Unchanged => return true,
                Unfounded::Falsified => {}
                Unfounded::Conflict => return false,
            }
        }
    }

    /// Unfounded-set pruning: atoms outside the optimistic derivable set
    /// cannot be true, so the unassigned ones become false.
    fn falsify_unfounded(&mut self) -> Unfounded {
        self.optimistic_derivable();
        let mut changed = Unfounded::Unchanged;
        for atom in 0..self.assign.len() {
            if self.derivable[atom] {
                continue;
            }
            match self.assign[atom] {
                Some(true) => return Unfounded::Conflict,
                Some(false) => {}
                None => {
                    self.set(atom, false);
                    changed = Unfounded::Falsified;
                }
            }
        }
        changed
    }

    /// Drain the forward and support queues. Returns `false` on conflict.
    fn propagate_queued(&mut self) -> bool {
        loop {
            if let Some(rule) = self.fired.pop() {
                // A constraint whose body is true is a conflict.
                let Some(head) = self.solver.shapes[rule].head else {
                    return false;
                };
                match self.assign[head] {
                    Some(false) => return false,
                    Some(true) => {}
                    None => self.set(head, true),
                }
            } else if let Some(atom) = self.unsupported.pop() {
                match self.assign[atom] {
                    Some(true) => return false,
                    Some(false) => {}
                    None => self.set(atom, false),
                }
            } else {
                return true;
            }
        }
    }

    /// Fill `derivable` with the atoms still derivable under the current
    /// assignment, reading unassigned default-negated literals
    /// optimistically: a rule can fire when its head is not false and its
    /// body is not dead (no positive atom false, no negated atom true).
    fn optimistic_derivable(&mut self) {
        let (assign, false_lits) = (&self.assign, &self.false_lits);
        self.solver.horn_closure(
            |rule, head| assign[head] != Some(false) && false_lits[rule] == 0,
            &mut self.derivable,
            &mut self.missing,
        );
    }
}

/// Generic answer-set enumeration for (possibly non-HCF) disjunctive ground
/// programs: enumerate classical models of the rules, then keep those that
/// are minimal models of their Gelfond–Lifschitz reduct.
pub struct DisjunctiveSolver<'a> {
    program: &'a GroundProgram,
    config: SolverConfig,
    /// The complement pairs (see [`complement_pairs`]).
    complements: Vec<(AtomId, AtomId)>,
}

impl<'a> DisjunctiveSolver<'a> {
    /// Create a solver.
    pub fn new(program: &'a GroundProgram, config: SolverConfig) -> Self {
        DisjunctiveSolver {
            program,
            config,
            complements: complement_pairs(program),
        }
    }

    /// Enumerate all answer sets, each as sorted atom ids. Returns (models,
    /// branch node count).
    pub fn answer_sets(&self) -> Result<(Vec<Vec<AtomId>>, usize), DatalogError> {
        let mut models = Vec::new();
        let mut nodes = 0usize;
        let assign: Assignment = vec![None; self.program.atom_count()];
        self.search(assign, &mut models, &mut nodes)?;
        models.sort();
        models.dedup();
        let models = models.into_iter().map(|m| m.into_iter().collect());
        Ok((models.collect(), nodes))
    }

    fn search(
        &self,
        mut assign: Assignment,
        models: &mut Vec<BTreeSet<AtomId>>,
        nodes: &mut usize,
    ) -> Result<(), DatalogError> {
        *nodes += 1;
        if *nodes > self.config.max_branch_nodes {
            return Err(DatalogError::SearchLimitExceeded {
                what: "branch nodes".to_string(),
                limit: self.config.max_branch_nodes,
            });
        }
        if !self.propagate(&mut assign) {
            return Ok(());
        }
        match assign.iter().position(|v| v.is_none()) {
            None => {
                let model = true_atoms(&assign).into_iter().collect();
                if self.is_answer_set(&model) && is_coherent(&self.complements, &assign) {
                    models.push(model);
                }
                Ok(())
            }
            Some(atom) => {
                for value in [false, true] {
                    let mut next = assign.clone();
                    next[atom] = Some(value);
                    self.search(next, models, nodes)?;
                }
                Ok(())
            }
        }
    }

    /// Weak propagation for classical-model enumeration.
    fn propagate(&self, assign: &mut Assignment) -> bool {
        loop {
            let mut changed = false;
            for rule in self.program.rules() {
                let mut body_open = false;
                let mut body_dead = false;
                for &p in rule.pos {
                    match assign[p] {
                        Some(false) => body_dead = true,
                        Some(true) => {}
                        None => body_open = true,
                    }
                }
                for &n in rule.neg {
                    match assign[n] {
                        Some(true) => body_dead = true,
                        Some(false) => {}
                        None => body_open = true,
                    }
                }
                if body_dead || body_open {
                    continue;
                }
                // Body is satisfied: at least one head atom must be true.
                let (mut undecided, mut last) = (0, 0);
                let mut any_true = false;
                for &h in rule.heads {
                    match assign[h] {
                        Some(true) => any_true = true,
                        Some(false) => {}
                        None => (undecided, last) = (undecided + 1, h),
                    }
                }
                if any_true {
                    continue;
                }
                match undecided {
                    0 => return false,
                    1 => {
                        assign[last] = Some(true);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return true;
            }
        }
    }

    /// Answer-set test: the candidate must be a model of the program and a
    /// *minimal* model of its reduct.
    fn is_answer_set(&self, model: &BTreeSet<AtomId>) -> bool {
        // Model check (including constraints).
        for rule in self.program.rules() {
            let body_true = rule.pos.iter().all(|p| model.contains(p))
                && rule.neg.iter().all(|n| !model.contains(n));
            if body_true && !rule.heads.iter().any(|h| model.contains(h)) {
                return false;
            }
        }
        !self.has_smaller_reduct_model(model)
    }

    /// Search for a proper subset of `model` that is still a model of the
    /// Gelfond–Lifschitz reduct. Atoms outside `model` stay false.
    fn has_smaller_reduct_model(&self, model: &BTreeSet<AtomId>) -> bool {
        // Reduct rules restricted to the atoms of the candidate.
        let mut reduct: Vec<(&[AtomId], Vec<AtomId>)> = Vec::new(); // (pos, heads)
        for rule in self.program.rules() {
            if rule.heads.is_empty() {
                continue;
            }
            if rule.neg.iter().any(|n| model.contains(n)) {
                continue;
            }
            if rule.pos.iter().any(|p| !model.contains(p)) {
                // Some positive body atom is false in the candidate and stays
                // false in any subset: the rule can never fire.
                continue;
            }
            let heads: Vec<AtomId> = rule
                .heads
                .iter()
                .copied()
                .filter(|h| model.contains(h))
                .collect();
            // If no head atom is in the model the rule is violated by the
            // candidate itself; `is_answer_set` already rejected that case.
            reduct.push((rule.pos, heads));
        }
        let atoms: Vec<AtomId> = model.iter().copied().collect();
        let mut truth: std::collections::BTreeMap<AtomId, Option<bool>> =
            atoms.iter().map(|&a| (a, None)).collect();
        self.subset_search(&reduct, &atoms, &mut truth, 0, model)
    }

    /// Try to build a model of the reduct that is a proper subset of the
    /// candidate.
    fn subset_search(
        &self,
        reduct: &[(&[AtomId], Vec<AtomId>)],
        atoms: &[AtomId],
        truth: &mut std::collections::BTreeMap<AtomId, Option<bool>>,
        idx: usize,
        model: &BTreeSet<AtomId>,
    ) -> bool {
        if idx == atoms.len() {
            // Full assignment: check all reduct rules and properness.
            let assigned: BTreeSet<AtomId> = truth
                .iter()
                .filter_map(|(&a, &v)| if v == Some(true) { Some(a) } else { None })
                .collect();
            if assigned.len() == model.len() {
                return false; // not a proper subset
            }
            for (pos, heads) in reduct {
                let body_true = pos.iter().all(|p| assigned.contains(p));
                if body_true && !heads.iter().any(|h| assigned.contains(h)) {
                    return false;
                }
            }
            return true;
        }
        let atom = atoms[idx];
        for value in [false, true] {
            truth.insert(atom, Some(value));
            // Early pruning: check rules whose atoms are all assigned.
            let consistent = reduct.iter().all(|(pos, heads)| {
                let body_status: Option<bool> = {
                    let mut all_true = true;
                    let mut unknown = false;
                    for p in *pos {
                        match truth.get(p).copied().flatten() {
                            Some(true) => {}
                            Some(false) => {
                                all_true = false;
                                break;
                            }
                            None => unknown = true,
                        }
                    }
                    if !all_true {
                        Some(false)
                    } else if unknown {
                        None
                    } else {
                        Some(true)
                    }
                };
                match body_status {
                    Some(false) | None => true,
                    Some(true) => heads
                        .iter()
                        .any(|h| matches!(truth.get(h).copied().flatten(), Some(true) | None)),
                }
            });
            if consistent && self.subset_search(reduct, atoms, truth, idx + 1, model) {
                truth.insert(atom, None);
                return true;
            }
        }
        truth.insert(atom, None);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundAtom;
    use crate::syntax::{Atom, BodyItem, Rule};

    fn atom(p: &str, args: &[&str]) -> Atom {
        Atom::new(p, args)
    }

    fn names(result: &SolveResult, set_idx: usize) -> BTreeSet<String> {
        result.answer_sets[set_idx]
            .iter()
            .map(|&id| result.ground.atom(id).to_string())
            .collect()
    }

    #[test]
    fn definite_program_has_single_minimal_model() {
        let mut p = Program::new();
        p.add_fact(atom("edge", &["a", "b"]));
        p.add_fact(atom("edge", &["b", "c"]));
        p.add_rule(Rule::new(
            vec![atom("reach", &["X", "Y"])],
            vec![BodyItem::Pos(atom("edge", &["X", "Y"]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("reach", &["X", "Z"])],
            vec![
                BodyItem::Pos(atom("reach", &["X", "Y"])),
                BodyItem::Pos(atom("edge", &["Y", "Z"])),
            ],
        ));
        let result = solve(&p, SolverConfig::default()).unwrap();
        assert_eq!(result.answer_sets.len(), 1);
        let model = names(&result, 0);
        assert!(model.contains("reach(a, c)"));
        assert_eq!(model.len(), 2 + 3);
    }

    #[test]
    fn even_negation_cycle_has_two_answer_sets() {
        // p :- dom, not q.   q :- dom, not p.
        let mut p = Program::new();
        p.add_fact(atom("dom", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("p", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("q", &["X"])),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("q", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("p", &["X"])),
            ],
        ));
        let result = solve(&p, SolverConfig::default()).unwrap();
        assert_eq!(result.answer_sets.len(), 2);
    }

    #[test]
    fn odd_negation_cycle_has_no_answer_set() {
        // p :- dom, not p.
        let mut p = Program::new();
        p.add_fact(atom("dom", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("p", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("p", &["X"])),
            ],
        ));
        let result = solve(&p, SolverConfig::default()).unwrap();
        assert!(result.answer_sets.is_empty());
    }

    #[test]
    fn positive_loop_is_unfounded() {
        // a :- b.  b :- a.  — neither is derivable.
        let mut p = Program::new();
        p.add_fact(atom("seed", &[] as &[&str]));
        p.add_rule(Rule::new(
            vec![atom("a", &[] as &[&str])],
            vec![BodyItem::Pos(atom("b", &[] as &[&str]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("b", &[] as &[&str])],
            vec![BodyItem::Pos(atom("a", &[] as &[&str]))],
        ));
        let result = solve(&p, SolverConfig::default()).unwrap();
        assert_eq!(result.answer_sets.len(), 1);
        assert_eq!(result.answer_sets[0].len(), 1); // only `seed`
    }

    #[test]
    fn constraints_filter_answer_sets() {
        let mut p = Program::new();
        p.add_fact(atom("dom", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("p", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("q", &["X"])),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("q", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("p", &["X"])),
            ],
        ));
        p.add_constraint(vec![BodyItem::Pos(atom("p", &["a"]))]);
        let result = solve(&p, SolverConfig::default()).unwrap();
        assert_eq!(result.answer_sets.len(), 1);
        let model = names(&result, 0);
        assert!(model.contains("q(a)"));
    }

    #[test]
    fn hcf_disjunction_is_shifted_and_split() {
        // a v b :- c.  with fact c: two answer sets {c,a} and {c,b}.
        let mut p = Program::new();
        p.add_fact(atom("c", &["1"]));
        p.add_rule(Rule::new(
            vec![atom("a", &["X"]), atom("b", &["X"])],
            vec![BodyItem::Pos(atom("c", &["X"]))],
        ));
        let result = solve(&p, SolverConfig::default()).unwrap();
        assert!(result.used_shift);
        assert_eq!(result.answer_sets.len(), 2);
    }

    #[test]
    fn non_hcf_disjunction_uses_minimality_check() {
        // a v b.   a :- b.   b :- a.  — answer sets are {a,b}? No: candidate
        // models {a,b} (from disjunction + closure). Minimal models of the
        // reduct (= program, no negation): {a, b} is a model, but so are
        // neither {a} nor {b} alone (each forces the other), and {} violates
        // the disjunctive fact. Hence the single answer set is {a, b}.
        let mut p = Program::new();
        p.add_rule(Rule::new(
            vec![atom("a", &[] as &[&str]), atom("b", &[] as &[&str])],
            vec![],
        ));
        p.add_rule(Rule::new(
            vec![atom("a", &[] as &[&str])],
            vec![BodyItem::Pos(atom("b", &[] as &[&str]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("b", &[] as &[&str])],
            vec![BodyItem::Pos(atom("a", &[] as &[&str]))],
        ));
        let ground = Grounder::new(&p).ground().unwrap();
        assert!(!is_head_cycle_free(&ground));
        let result = solve(&p, SolverConfig::default()).unwrap();
        assert!(!result.used_shift);
        assert_eq!(result.answer_sets.len(), 1);
        assert_eq!(result.answer_sets[0].len(), 2);
    }

    #[test]
    fn plain_disjunctive_fact_has_two_minimal_models() {
        let mut p = Program::new();
        p.add_rule(Rule::new(
            vec![atom("a", &[] as &[&str]), atom("b", &[] as &[&str])],
            vec![],
        ));
        let result = solve(&p, SolverConfig::default()).unwrap();
        assert_eq!(result.answer_sets.len(), 2);
        for m in &result.answer_sets {
            assert_eq!(m.len(), 1);
        }
    }

    #[test]
    fn choice_selects_exactly_one_witness() {
        use crate::syntax::{ChoiceAtom, Term};
        let mut p = Program::new();
        p.add_fact(atom("cand", &["k", "v1"]));
        p.add_fact(atom("cand", &["k", "v2"]));
        p.add_rule(Rule::new(
            vec![atom("pick", &["X", "W"])],
            vec![
                BodyItem::Pos(atom("cand", &["X", "W"])),
                BodyItem::Choice(ChoiceAtom::new(vec![Term::var("X")], vec![Term::var("W")])),
            ],
        ));
        let result = solve(&p, SolverConfig::default()).unwrap();
        assert_eq!(result.answer_sets.len(), 2);
        for (i, _) in result.answer_sets.iter().enumerate() {
            let model = names(&result, i);
            let picks: Vec<&String> = model.iter().filter(|a| a.starts_with("pick(")).collect();
            assert_eq!(picks.len(), 1, "exactly one pick per answer set: {model:?}");
        }
    }

    #[test]
    fn incoherent_candidates_are_rejected() {
        // p.  -p.  — no coherent answer set.
        let mut p = Program::new();
        p.add_fact(atom("p", &["a"]));
        p.add_fact(atom("p", &["a"]).strongly_negated());
        let result = solve(&p, SolverConfig::default()).unwrap();
        assert!(result.answer_sets.is_empty());
    }

    #[test]
    fn classical_negation_in_heads_behaves_like_fresh_predicate() {
        // -q(X) :- p(X), not q(X).   with p(a): answer set contains -q(a).
        let mut p = Program::new();
        p.add_fact(atom("p", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("q", &["X"]).strongly_negated()],
            vec![
                BodyItem::Pos(atom("p", &["X"])),
                BodyItem::Naf(atom("q", &["X"])),
            ],
        ));
        let result = solve(&p, SolverConfig::default()).unwrap();
        assert_eq!(result.answer_sets.len(), 1);
        let model = names(&result, 0);
        assert!(model.contains("-q(a)"));
    }

    #[test]
    fn branch_node_limit_is_enforced() {
        let mut p = Program::new();
        for v in ["a", "b", "c", "d", "e", "f"] {
            p.add_fact(atom("dom", &[v]));
        }
        p.add_rule(Rule::new(
            vec![atom("in", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("out", &["X"])),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("out", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("in", &["X"])),
            ],
        ));
        let config = SolverConfig {
            max_branch_nodes: 3,
            ..SolverConfig::default()
        };
        assert!(matches!(
            solve(&p, config),
            Err(DatalogError::SearchLimitExceeded { .. })
        ));
    }

    #[test]
    fn parallel_search_matches_sequential_for_every_pool_size() {
        use pdes_exec::ExecConfig;
        // A program with many independent even negation cycles: 2^6 answer
        // sets, enough branching to exercise seed expansion and fan-out.
        let mut p = Program::new();
        for v in ["a", "b", "c", "d", "e", "f"] {
            p.add_fact(atom("dom", &[v]));
        }
        p.add_rule(Rule::new(
            vec![atom("in", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("out", &["X"])),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("out", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("in", &["X"])),
            ],
        ));
        p.add_constraint(vec![
            BodyItem::Pos(atom("in", &["a"])),
            BodyItem::Pos(atom("in", &["b"])),
        ]);
        // Threshold 0 so the tiny test program still takes the parallel
        // path (the default keeps small programs sequential on purpose).
        let config = SolverConfig {
            parallel_min_atoms: 0,
            ..SolverConfig::default()
        };
        let sequential = solve(&p, config).unwrap();
        assert_eq!(sequential.answer_sets.len(), 48); // 2^6 minus in(a)∧in(b)
        let decode = |r: &SolveResult| -> Vec<BTreeSet<GroundAtom>> {
            r.answer_sets.iter().map(|s| r.ground.decode(s)).collect()
        };
        for workers in [2, 4, 8] {
            let exec = Executor::new(ExecConfig::with_workers(workers));
            let parallel = solve_with(&p, config, &exec).unwrap();
            assert_eq!(
                decode(&parallel),
                decode(&sequential),
                "{workers} workers must reproduce the sequential answer sets"
            );
            assert!(parallel.branch_nodes > 0);
        }
    }

    #[test]
    fn parallel_search_enforces_the_shared_branch_limit() {
        use pdes_exec::ExecConfig;
        let mut p = Program::new();
        for i in 0..8 {
            p.add_fact(atom("dom", &[&format!("v{i}")]));
        }
        p.add_rule(Rule::new(
            vec![atom("in", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("out", &["X"])),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("out", &["X"])],
            vec![
                BodyItem::Pos(atom("dom", &["X"])),
                BodyItem::Naf(atom("in", &["X"])),
            ],
        ));
        let config = SolverConfig {
            max_branch_nodes: 5,
            parallel_min_atoms: 0,
        };
        let exec = Executor::new(ExecConfig::with_workers(4));
        assert!(matches!(
            solve_with(&p, config, &exec),
            Err(DatalogError::SearchLimitExceeded { .. })
        ));
    }

    #[test]
    fn hcf_and_generic_solvers_agree_on_hcf_programs() {
        // a v b :- c.   b v d :- c.  :- a, d.
        let mut p = Program::new();
        p.add_fact(atom("c", &["1"]));
        p.add_rule(Rule::new(
            vec![atom("a", &["X"]), atom("b", &["X"])],
            vec![BodyItem::Pos(atom("c", &["X"]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("b", &["X"]), atom("d", &["X"])],
            vec![BodyItem::Pos(atom("c", &["X"]))],
        ));
        p.add_constraint(vec![
            BodyItem::Pos(atom("a", &["X"])),
            BodyItem::Pos(atom("d", &["X"])),
        ]);
        let ground = Grounder::new(&p).ground().unwrap();
        assert!(is_head_cycle_free(&ground));

        let shifted_result = solve(&p, SolverConfig::default()).unwrap();
        let generic = DisjunctiveSolver::new(&ground, SolverConfig::default());
        let (generic_sets, _) = generic.answer_sets().unwrap();

        let shifted_models: BTreeSet<BTreeSet<GroundAtom>> = shifted_result
            .answer_sets
            .iter()
            .map(|s| shifted_result.ground.decode(s))
            .collect();
        let generic_models: BTreeSet<BTreeSet<GroundAtom>> =
            generic_sets.iter().map(|s| ground.decode(s)).collect();
        assert_eq!(shifted_models, generic_models);
        // Minimal models of the rule part are {c,b} and {c,a,d}; the
        // constraint rules out the latter, leaving a single answer set.
        assert_eq!(shifted_models.len(), 1);
    }
}
