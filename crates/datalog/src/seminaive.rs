//! The grounding core shared by [`crate::ground::Grounder`] and
//! [`crate::incremental::IncrementalGround`]: one semi-naive pass over
//! interned ids.
//!
//! * **Symbol table.** Every grounding owns a [`Symbols`] table that maps
//!   signed predicates and constants to dense `u32` ids, and an atom store
//!   that maps `(predicate, argument ids)` to a dense atom id. Equality of
//!   constants is equality of ids; only the ordering built-ins (`<`, `<=`,
//!   `>`, `>=`) resolve ids back to text, so they keep their lexicographic
//!   semantics.
//! * **Facts as tables.** [`build`] takes the rules plus [`FactTable`]s of
//!   caller ids and a caller function from id to text; a program's own
//!   facts are grouped into tables first ([`TextFacts`]). An id-keyed map,
//!   dropped with the build, takes each distinct caller id to its constant
//!   id, so a constant's text is hashed once however often it occurs, and
//!   no per-fact `Atom`, `Rule` or safety check is made.
//! * **Compiled rules.** Each non-fact rule is compiled once into templates
//!   whose variables are numbered *slots*. A substitution is a `Vec<u32>`
//!   indexed by slot ([`NONE`] = unbound). Join plans — one in body order,
//!   plus one per positive occurrence `k` that matches `k` first — run each
//!   built-in as soon as its slots are bound.
//! * **Indexes.** A plan step whose arguments are partly bound before it
//!   runs (constants, or slots bound by earlier steps) looks its candidates
//!   up in a hash index keyed on those positions. Plans, indexes and the
//!   per-predicate member lists live in a per-operation [`Scratch`] and are
//!   never kept: built lazily, extended as atoms become possible, dropped
//!   when the grounding or patch ends.
//! * **Semi-naive saturation.** [`Core::insert`] runs rounds; each round's
//!   delta becomes possible and joinable at the round start, and every rule
//!   is joined once per occurrence pinned to the delta, with occurrences
//!   before the pin ranging over the pre-round set and occurrences after it
//!   over the full set. Every derivation over the final possible set is
//!   therefore found exactly once, so the support counts — and, when the
//!   caller records them, each rule's matches — fall out of the one pass.
//!   Building from scratch is "empty state + insert the facts".
//!   [`Core::delete`] runs the same pinned joins in reverse, decrementing
//!   support counts.
//! * **Emission order.** [`Core::ranks`] ranks atoms in [`GroundAtom`]
//!   order (predicate text, negation flag, argument texts) using integer
//!   comparisons only; [`Matches::sort_by_rank`] sorts a rule's matches by
//!   the ranks of their positive-body atoms, which is exactly the order of a
//!   nested-loop join over sorted candidate sets. [`Emitter`] then numbers
//!   the atoms the emitted rules use in first-use order and copies each
//!   one's ids into the [`GroundProgram`], which shares the core's symbol
//!   table instead of rendering atoms as text.

use crate::facts::{FactTable, TextFacts};
use crate::ground::{AtomId, GroundAtom, GroundProgram, GroundRule};
use crate::syntax::{Atom, BodyItem, BuiltinOp, Rule, Term};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;
use std::sync::Arc;

/// "No id": an unbound slot, an empty hash-table slot, an unmapped atom.
pub(crate) const NONE: u32 = u32::MAX;

/// Hash of a seed followed by a sequence of ids (the `FxHash` mixing
/// step): the atom table's probe hash and the hash indexes' keys.
fn hash_ids(seed: u32, ids: impl Iterator<Item = u32>) -> u64 {
    std::iter::once(seed).chain(ids).fold(0u64, |h, id| {
        (h.rotate_left(5) ^ u64::from(id)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

/// Per-grounding symbol table: constants and signed predicates as dense
/// `u32` ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct Symbols {
    consts: Vec<Arc<str>>,
    const_ids: HashMap<Arc<str>, u32>,
    /// `(name, strong_neg)` per predicate id.
    preds: Vec<(String, bool)>,
    /// Name → id, one map per negation flag.
    pred_ids: [HashMap<String, u32>; 2],
}

impl Symbols {
    /// The id of a constant, interning it (and sharing its text) if new.
    pub(crate) fn constant(&mut self, text: &Arc<str>) -> u32 {
        let next = self.consts.len() as u32;
        let id = *self.const_ids.entry(Arc::clone(text)).or_insert(next);
        if id == next {
            self.consts.push(Arc::clone(text));
        }
        id
    }

    pub(crate) fn find_constant(&self, text: &str) -> Option<u32> {
        self.const_ids.get(text).copied()
    }

    pub(crate) fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// The text of a constant id.
    pub(crate) fn const_text(&self, id: u32) -> &Arc<str> {
        &self.consts[id as usize]
    }

    /// The id of a signed predicate, interning it if new.
    pub(crate) fn predicate(&mut self, name: &str, strong_neg: bool) -> u32 {
        if let Some(&id) = self.pred_ids[usize::from(strong_neg)].get(name) {
            return id;
        }
        let id = self.preds.len() as u32;
        self.preds.push((name.to_string(), strong_neg));
        self.pred_ids[usize::from(strong_neg)].insert(name.to_string(), id);
        id
    }

    pub(crate) fn find_predicate(&self, name: &str, strong_neg: bool) -> Option<u32> {
        self.pred_ids[usize::from(strong_neg)].get(name).copied()
    }

    pub(crate) fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// `(name, strong_neg)` of a predicate id.
    pub(crate) fn pred(&self, id: u32) -> &(String, bool) {
        &self.preds[id as usize]
    }

    /// Keep only the constants flagged in `used`, renumbered in their old
    /// order. Returns the new id of each old constant ([`NONE`] = dropped).
    fn retain_constants(&mut self, used: &[bool]) -> Vec<u32> {
        let mut map = vec![NONE; self.consts.len()];
        self.const_ids.clear();
        for (c, text) in std::mem::take(&mut self.consts).into_iter().enumerate() {
            if used[c] {
                map[c] = self.consts.len() as u32;
                self.const_ids.insert(Arc::clone(&text), map[c]);
                self.consts.push(text);
            }
        }
        map
    }

    /// Bytes held by the table: each constant's text once (plus its `Arc`
    /// header), each predicate name twice (vector and map key), and one
    /// vector slot and one map entry per symbol.
    fn bytes(&self) -> usize {
        let consts = self.consts.iter().map(|c| c.len() + 16).sum::<usize>()
            + self.consts.len() * (size_of::<Arc<str>>() + size_of::<(Arc<str>, u32)>());
        let preds = self
            .preds
            .iter()
            .map(|(name, _)| 2 * name.len())
            .sum::<usize>()
            + self.preds.len() * (size_of::<(String, bool)>() + size_of::<(String, u32)>());
        consts + preds
    }
}

/// Rank of each id when the ids are sorted by `cmp`.
fn rank_by(n: usize, mut cmp: impl FnMut(usize, usize) -> std::cmp::Ordering) -> Vec<u32> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| cmp(a, b));
    let mut rank = vec![0u32; n];
    for (r, id) in order.into_iter().enumerate() {
        rank[id] = r as u32;
    }
    rank
}

/// The ground atoms of one grounding, interned as `(predicate, argument
/// ids)` with per-atom saturation state. Lookup is an open-addressing table
/// of atom ids over the flat argument store, so no key is stored twice.
#[derive(Debug, Clone)]
pub(crate) struct AtomStore {
    pred: Vec<u32>,
    /// `args[start[a]..start[a + 1]]` are atom `a`'s argument ids.
    start: Vec<u32>,
    args: Vec<u32>,
    /// Power-of-two table of atom ids ([`NONE`] = empty), at most half full.
    table: Vec<u32>,
    /// Derivation count per atom: 1 for a base fact, plus 1 per (rule,
    /// substitution, head) deriving it. 0 = not supported.
    support: Vec<u32>,
    /// Is the atom in the possible set?
    possible: Vec<bool>,
    /// Is the atom a base fact?
    fact: Vec<bool>,
}

impl Default for AtomStore {
    fn default() -> Self {
        AtomStore {
            pred: Vec::new(),
            start: vec![0],
            args: Vec::new(),
            table: vec![NONE; 16],
            support: Vec::new(),
            possible: Vec::new(),
            fact: Vec::new(),
        }
    }
}

impl AtomStore {
    pub(crate) fn len(&self) -> usize {
        self.pred.len()
    }

    pub(crate) fn pred(&self, atom: u32) -> u32 {
        self.pred[atom as usize]
    }

    pub(crate) fn args(&self, atom: u32) -> &[u32] {
        &self.args[self.start[atom as usize] as usize..self.start[atom as usize + 1] as usize]
    }

    pub(crate) fn is_possible(&self, atom: u32) -> bool {
        self.possible[atom as usize]
    }

    pub(crate) fn is_fact(&self, atom: u32) -> bool {
        self.fact[atom as usize]
    }

    pub(crate) fn set_fact(&mut self, atom: u32, fact: bool) {
        self.fact[atom as usize] = fact;
    }

    pub(crate) fn is_supported(&self, atom: u32) -> bool {
        self.support[atom as usize] > 0
    }

    /// Number of possible atoms.
    pub(crate) fn possible_count(&self) -> usize {
        self.possible.iter().filter(|&&p| p).count()
    }

    fn home(&self, hash: u64) -> usize {
        let bits = self.table.len().trailing_zeros();
        (hash >> (64 - bits)) as usize
    }

    pub(crate) fn find(&self, pred: u32, args: &[u32]) -> Option<u32> {
        let mask = self.table.len() - 1;
        let mut slot = self.home(hash_ids(pred, args.iter().copied()));
        loop {
            let atom = self.table[slot];
            if atom == NONE {
                return None;
            }
            if self.pred(atom) == pred && self.args(atom) == args {
                return Some(atom);
            }
            slot = (slot + 1) & mask;
        }
    }

    fn place(&mut self, atom: u32) {
        let mask = self.table.len() - 1;
        let hash = hash_ids(self.pred(atom), self.args(atom).iter().copied());
        let mut slot = self.home(hash);
        while self.table[slot] != NONE {
            slot = (slot + 1) & mask;
        }
        self.table[slot] = atom;
    }

    pub(crate) fn intern(&mut self, pred: u32, args: &[u32]) -> u32 {
        if let Some(atom) = self.find(pred, args) {
            return atom;
        }
        let atom = self.pred.len() as u32;
        self.pred.push(pred);
        self.args.extend_from_slice(args);
        self.start.push(self.args.len() as u32);
        self.support.push(0);
        self.possible.push(false);
        self.fact.push(false);
        if 2 * self.pred.len() > self.table.len() {
            self.table = vec![NONE; 2 * self.table.len()];
            for a in 0..atom {
                self.place(a);
            }
        }
        self.place(atom);
        atom
    }

    fn bytes(&self) -> usize {
        let per_atom = 2 * size_of::<u32>() + size_of::<u32>() + 2 * size_of::<bool>();
        self.pred.len() * per_atom + (self.args.len() + self.table.len()) * size_of::<u32>()
    }
}

/// A template argument: a constant id or a substitution slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arg {
    Const(u32),
    Slot(u32),
}

impl Arg {
    #[inline]
    fn value(self, slots: &[u32]) -> u32 {
        match self {
            Arg::Const(c) => c,
            Arg::Slot(s) => slots[s as usize],
        }
    }
}

/// A rule atom with its variables numbered.
#[derive(Debug, Clone)]
struct Template {
    pred: u32,
    args: Vec<Arg>,
}

impl Template {
    fn bytes(&self) -> usize {
        size_of::<Template>() + self.args.len() * size_of::<Arg>()
    }
}

/// What one argument position of a join step does with the candidate's id.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The id must equal a constant or an already-bound slot.
    Check(Arg),
    /// Bind a slot that is unbound before this step.
    Bind(u32),
}

/// One positive occurrence in a join plan.
#[derive(Debug, Clone)]
struct Step {
    /// Position of the occurrence among the rule's positive body atoms.
    occurrence: usize,
    pred: u32,
    ops: Vec<Op>,
    /// Index over the positions bound before this step, and the key values
    /// for those positions; `None` scans the predicate's members.
    index: Option<(usize, Vec<Arg>)>,
    /// Built-ins whose slots are all bound once this step matched.
    builtins: Vec<usize>,
}

/// A join order over a rule's positive body.
#[derive(Debug, Clone)]
struct Plan {
    /// Built-ins over constants only, checked before the first step.
    upfront: Vec<usize>,
    steps: Vec<Step>,
}

/// A body literal in source order, for emission.
#[derive(Debug, Clone, Copy)]
enum Lit {
    Pos(usize),
    Naf(usize),
}

/// A hash index's shape: the positions of one predicate and arity it keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct IndexSpec {
    pred: u32,
    arity: usize,
    positions: Vec<usize>,
}

/// A non-fact rule compiled against the grounding's symbol table: its atoms
/// as templates over numbered slots. Join plans are derived per operation
/// ([`Scratch`]), so only the templates are retained.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRule {
    heads: Vec<Template>,
    pos: Vec<Template>,
    naf: Vec<Template>,
    body: Vec<Lit>,
    builtins: Vec<(BuiltinOp, Arg, Arg)>,
    slots: usize,
}

impl CompiledRule {
    fn compile(rule: &Rule, symbols: &mut Symbols) -> CompiledRule {
        let mut vars: Vec<String> = Vec::new();
        let mut pos = Vec::new();
        // Positive atoms first, so their variables take the low slots.
        for item in &rule.body {
            if let BodyItem::Pos(atom) = item {
                pos.push(Template::compile(atom, symbols, &mut vars));
            }
        }
        let heads = rule
            .head
            .iter()
            .map(|h| Template::compile(h, symbols, &mut vars))
            .collect();
        let mut naf = Vec::new();
        let mut body = Vec::new();
        let mut builtins = Vec::new();
        let mut next_pos = 0;
        for item in &rule.body {
            match item {
                BodyItem::Pos(_) => {
                    body.push(Lit::Pos(next_pos));
                    next_pos += 1;
                }
                BodyItem::Naf(atom) => {
                    body.push(Lit::Naf(naf.len()));
                    naf.push(Template::compile(atom, symbols, &mut vars));
                }
                BodyItem::Builtin(b) => {
                    let left = Arg::compile(&b.left, symbols, &mut vars);
                    let right = Arg::compile(&b.right, symbols, &mut vars);
                    builtins.push((b.op, left, right));
                }
                // Choice atoms are unfolded before grounding.
                BodyItem::Choice(_) => {}
            }
        }
        CompiledRule {
            heads,
            pos,
            naf,
            body,
            builtins,
            slots: vars.len(),
        }
    }

    pub(crate) fn head_count(&self) -> usize {
        self.heads.len()
    }

    pub(crate) fn pos_count(&self) -> usize {
        self.pos.len()
    }

    /// Does the rule mention (head, positive or naf body) a predicate for
    /// which `flag` holds?
    pub(crate) fn mentions(&self, flag: &[bool]) -> bool {
        self.heads
            .iter()
            .chain(&self.pos)
            .chain(&self.naf)
            .any(|t| flag[t.pred as usize])
    }

    /// `(body predicate, head predicate)` edges of the positive dependency
    /// graph contributed by this rule.
    pub(crate) fn positive_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.pos
            .iter()
            .flat_map(move |b| self.heads.iter().map(move |h| (b.pred, h.pred)))
    }

    /// Every template and built-in argument.
    fn args_mut(&mut self) -> impl Iterator<Item = &mut Arg> {
        self.heads
            .iter_mut()
            .chain(&mut self.pos)
            .chain(&mut self.naf)
            .flat_map(|t| t.args.iter_mut())
            .chain(self.builtins.iter_mut().flat_map(|(_, l, r)| [l, r]))
    }

    fn bytes(&self) -> usize {
        size_of::<CompiledRule>()
            + self
                .heads
                .iter()
                .chain(&self.pos)
                .chain(&self.naf)
                .map(Template::bytes)
                .sum::<usize>()
            + self.body.len() * size_of::<Lit>()
            + self.builtins.len() * size_of::<(BuiltinOp, Arg, Arg)>()
    }
}

impl Template {
    fn compile(atom: &Atom, symbols: &mut Symbols, vars: &mut Vec<String>) -> Template {
        Template {
            pred: symbols.predicate(&atom.predicate, atom.strong_neg),
            args: atom
                .terms
                .iter()
                .map(|term| Arg::compile(term, symbols, vars))
                .collect(),
        }
    }
}

impl Arg {
    fn compile(term: &Term, symbols: &mut Symbols, vars: &mut Vec<String>) -> Arg {
        match term {
            Term::Const(c) => Arg::Const(symbols.constant(c)),
            Term::Var(v) => Arg::Slot(match vars.iter().position(|x| x == v) {
                Some(slot) => slot as u32,
                None => {
                    vars.push(v.clone());
                    (vars.len() - 1) as u32
                }
            }),
        }
    }
}

/// Flat per-atom stamps: `is(a, s)` is true when atom `a` was last set with
/// stamp `s`. Fresh stamps make clearing free.
#[derive(Debug, Default)]
struct Stamps(Vec<u32>);

impl Stamps {
    #[inline]
    fn is(&self, atom: u32, stamp: u32) -> bool {
        self.0.get(atom as usize) == Some(&stamp)
    }

    fn set(&mut self, atom: u32, stamp: u32) {
        let i = atom as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        self.0[i] = stamp;
    }
}

/// One hash index: key hash of the indexed positions → atoms.
type Index = HashMap<u64, Vec<u32>>;

/// Plan key of a rule's unpinned (body-order) join.
const UNPINNED: usize = usize::MAX;

/// Per-operation working memory, derived from the core for one grounding
/// or one patch and dropped with it: the possible atoms by predicate, the
/// rules reading each predicate, join plans, hash indexes and round
/// stamps. None of it is retained, so none of it is charged to the state.
#[derive(Debug)]
pub(crate) struct Scratch {
    /// Per predicate: its possible atoms (plus atoms retired since the last
    /// compaction, which the possible flag filters out).
    members: Vec<Vec<u32>>,
    /// Per predicate: the `(rule, occurrence)` pairs of rules with a head
    /// that read it positively — the pinned joins a delta atom drives.
    readers: Vec<Vec<(usize, usize)>>,
    /// Join plans by `(rule, pinned occurrence or UNPINNED)`.
    plans: HashMap<(usize, usize), Plan>,
    specs: Vec<IndexSpec>,
    spec_ids: HashMap<IndexSpec, usize>,
    /// Index specs per predicate (which indexes a new possible atom joins).
    specs_of: Vec<Vec<usize>>,
    indexes: Vec<Option<Index>>,
    /// Current-delta membership.
    delta: Stamps,
    /// Next-round queue membership.
    queued: Stamps,
    stamp: u32,
}

impl Scratch {
    /// Working memory over the core's current possible set.
    pub(crate) fn new(core: &Core) -> Scratch {
        let preds = core.symbols.pred_count();
        let mut members = vec![Vec::new(); preds];
        for atom in 0..core.atoms.len() as u32 {
            if core.atoms.is_possible(atom) {
                members[core.atoms.pred(atom) as usize].push(atom);
            }
        }
        let mut readers = vec![Vec::new(); preds];
        for (r, rule) in core.rules.iter().enumerate() {
            if !rule.heads.is_empty() {
                for (k, t) in rule.pos.iter().enumerate() {
                    readers[t.pred as usize].push((r, k));
                }
            }
        }
        Scratch {
            members,
            readers,
            plans: HashMap::new(),
            specs: Vec::new(),
            spec_ids: HashMap::new(),
            specs_of: vec![Vec::new(); preds],
            indexes: Vec::new(),
            delta: Stamps::default(),
            queued: Stamps::default(),
            stamp: 0,
        }
    }

    fn next_stamp(&mut self) -> u32 {
        self.stamp += 1;
        self.stamp
    }

    /// Drop retired atoms from the member lists and forget every index
    /// (rebuilt on demand), so atoms that become possible again are not
    /// listed twice.
    pub(crate) fn compact(&mut self, atoms: &AtomStore) {
        for list in &mut self.members {
            list.retain(|&a| atoms.is_possible(a));
        }
        self.indexes.iter_mut().for_each(|i| *i = None);
    }

    /// Forget every possible atom (a re-saturation starts from scratch).
    fn clear(&mut self) {
        self.members.iter_mut().for_each(Vec::clear);
        self.indexes.iter_mut().for_each(|i| *i = None);
    }

    /// The id of an index shape, registering it if new.
    fn spec(&mut self, spec: IndexSpec) -> usize {
        if let Some(&id) = self.spec_ids.get(&spec) {
            return id;
        }
        let id = self.specs.len();
        self.specs_of[spec.pred as usize].push(id);
        self.spec_ids.insert(spec.clone(), id);
        self.specs.push(spec);
        self.indexes.push(None);
        id
    }

    /// Compile the join plan of rule `r` with occurrence `pin` first (or in
    /// body order for [`UNPINNED`]), registering the index shapes it needs.
    fn compile_plan(&mut self, rule: &CompiledRule, pin: usize) -> Plan {
        let mut order: Vec<usize> = Vec::with_capacity(rule.pos.len());
        if pin != UNPINNED {
            order.push(pin);
        }
        order.extend((0..rule.pos.len()).filter(|&j| j != pin));
        let builtins = &rule.builtins;
        let mut bound = vec![false; rule.slots];
        let ready = |bound: &[bool], (_, l, r): &(BuiltinOp, Arg, Arg)| {
            [l, r].iter().all(|a| match a {
                Arg::Const(_) => true,
                Arg::Slot(s) => bound[*s as usize],
            })
        };
        let mut scheduled = vec![false; builtins.len()];
        let mut upfront = Vec::new();
        for (i, b) in builtins.iter().enumerate() {
            if ready(&bound, b) {
                scheduled[i] = true;
                upfront.push(i);
            }
        }
        let mut steps: Vec<Step> = Vec::with_capacity(order.len());
        for occurrence in order {
            let template = &rule.pos[occurrence];
            let before = bound.clone();
            let mut ops = Vec::with_capacity(template.args.len());
            let mut positions = Vec::new();
            let mut key = Vec::new();
            for (i, &arg) in template.args.iter().enumerate() {
                match arg {
                    Arg::Slot(s) if !before[s as usize] => {
                        if bound[s as usize] {
                            // Repeated within this atom: bound by an earlier
                            // position, so checked but not indexed.
                            ops.push(Op::Check(arg));
                        } else {
                            bound[s as usize] = true;
                            ops.push(Op::Bind(s));
                        }
                    }
                    _ => {
                        ops.push(Op::Check(arg));
                        positions.push(i);
                        key.push(arg);
                    }
                }
            }
            let index = (!positions.is_empty()).then(|| {
                let spec = self.spec(IndexSpec {
                    pred: template.pred,
                    arity: template.args.len(),
                    positions,
                });
                (spec, key)
            });
            let mut ready_now = Vec::new();
            for (i, b) in builtins.iter().enumerate() {
                if !scheduled[i] && ready(&bound, b) {
                    scheduled[i] = true;
                    ready_now.push(i);
                }
            }
            steps.push(Step {
                occurrence,
                pred: template.pred,
                ops,
                index,
                builtins: ready_now,
            });
        }
        Plan { upfront, steps }
    }

    /// Make sure the plan `key` exists and the indexes its steps look up are
    /// built over the current possible set.
    fn prepare(&mut self, core: &Core, key: (usize, usize)) {
        if !self.plans.contains_key(&key) {
            let plan = self.compile_plan(&core.rules[key.0], key.1);
            self.plans.insert(key, plan);
        }
        let Scratch {
            plans,
            specs,
            indexes,
            members,
            ..
        } = self;
        for step in &plans[&key].steps {
            let Some((spec_id, _)) = step.index else {
                continue;
            };
            if indexes[spec_id].is_some() {
                continue;
            }
            let spec = &specs[spec_id];
            let mut index = Index::default();
            for &atom in &members[spec.pred as usize] {
                let args = core.atoms.args(atom);
                if core.atoms.is_possible(atom) && args.len() == spec.arity {
                    let key = hash_ids(0, spec.positions.iter().map(|&p| args[p]));
                    index.entry(key).or_default().push(atom);
                }
            }
            indexes[spec_id] = Some(index);
        }
    }

    /// Record a newly possible atom: it joins its predicate's members and
    /// every built index of its shape.
    fn add_member(&mut self, atoms: &AtomStore, atom: u32) {
        let pred = atoms.pred(atom) as usize;
        self.members[pred].push(atom);
        let args = atoms.args(atom);
        for &spec_id in &self.specs_of[pred] {
            if let Some(index) = self.indexes[spec_id].as_mut() {
                let spec = &self.specs[spec_id];
                if spec.arity == args.len() {
                    let key = hash_ids(0, spec.positions.iter().map(|&p| args[p]));
                    index.entry(key).or_default().push(atom);
                }
            }
        }
    }
}

/// A rule's matches: per match, the atom chosen for each positive
/// occurrence followed by the slot values.
#[derive(Debug, Clone, Default)]
pub(crate) struct Matches {
    pos: usize,
    width: usize,
    data: Vec<u32>,
    count: usize,
}

impl Matches {
    fn new(rule: &CompiledRule) -> Matches {
        let mut m = Matches::default();
        m.reset(rule);
        m
    }

    pub(crate) fn len(&self) -> usize {
        self.count
    }

    fn push(&mut self, chosen: &[u32], slots: &[u32]) {
        self.data.extend_from_slice(chosen);
        self.data.extend_from_slice(slots);
        self.count += 1;
    }

    fn extend(&mut self, other: &Matches) {
        self.data.extend_from_slice(&other.data);
        self.count += other.count;
    }

    /// Empty the buffer for a join of `rule`, keeping its allocation.
    fn reset(&mut self, rule: &CompiledRule) {
        self.pos = rule.pos.len();
        self.width = rule.pos.len() + rule.slots;
        self.data.clear();
        self.count = 0;
    }

    /// The positive-body atoms of match `i`, in body order.
    fn chosen(&self, i: usize) -> &[u32] {
        &self.data[i * self.width..i * self.width + self.pos]
    }

    fn slots(&self, i: usize) -> &[u32] {
        &self.data[i * self.width + self.pos..(i + 1) * self.width]
    }

    /// Sort the matches by the ranks of their positive-body atoms.
    pub(crate) fn sort_by_rank(&mut self, rank: &[u32]) {
        if self.count < 2 || self.width == 0 {
            return;
        }
        let mut order: Vec<usize> = (0..self.count).collect();
        order.sort_unstable_by(|&a, &b| {
            let ra = self.chosen(a).iter().map(|&x| rank[x as usize]);
            let rb = self.chosen(b).iter().map(|&x| rank[x as usize]);
            ra.cmp(rb)
        });
        let mut data = Vec::with_capacity(self.data.len());
        for i in order {
            data.extend_from_slice(&self.data[i * self.width..(i + 1) * self.width]);
        }
        self.data = data;
    }
}

/// The retained grounding state: the symbol table, the atoms with their
/// saturation state, and the compiled rules. The symbol table is shared
/// with every [`GroundProgram`] emitted from the core; the core writes to
/// it copy-on-write ([`Arc::make_mut`]), so a program still alive keeps
/// the ids it was emitted with.
#[derive(Debug, Clone, Default)]
pub(crate) struct Core {
    pub(crate) symbols: Arc<Symbols>,
    pub(crate) atoms: AtomStore,
    pub(crate) rules: Vec<CompiledRule>,
}

/// The product of [`build`]: a saturated core plus every rule's matches in
/// emission order.
pub(crate) struct Built {
    pub(crate) core: Core,
    /// The atom of each fact rule of the program, in program order, then
    /// of each fact table row, in table order (duplicates kept).
    pub(crate) fact_atoms: Vec<u32>,
    /// Per compiled rule (non-fact rules in program order), its matches
    /// over the final possible set, sorted by [`Matches::sort_by_rank`].
    pub(crate) matches: Vec<Matches>,
    /// [`Core::ranks`] of the final state.
    pub(crate) rank: Vec<u32>,
}

/// Ground a (choice-free, safe) program plus fact tables in one semi-naive
/// pass: compile its non-fact rules, intern its own facts (grouped into
/// tables, [`TextFacts`]) and the tables' rows, insert the facts into an
/// empty state while recording every derivation, match headless
/// constraints once against the final possible set, and sort each rule's
/// matches into emission order. `text` gives the constant text of a
/// table id.
pub(crate) fn build<'t>(
    rules: &[Rule],
    tables: impl IntoIterator<Item = &'t FactTable>,
    text: &dyn Fn(u32) -> Arc<str>,
) -> Built {
    let mut symbols = Symbols::default();
    let compiled = rules
        .iter()
        .filter(|r| !r.is_fact())
        .map(|r| CompiledRule::compile(r, &mut symbols))
        .collect();
    let mut atoms = AtomStore::default();
    let own = TextFacts::of(rules);
    let mut own_atoms = Vec::with_capacity(own.order.len());
    let own_text = |id| own.text(id);
    intern_tables(
        &mut symbols,
        &mut atoms,
        &own.tables,
        &own_text,
        &mut own_atoms,
    );
    let mut fact_atoms: Vec<u32> = own.order.iter().map(|&row| own_atoms[row]).collect();
    intern_tables(&mut symbols, &mut atoms, tables, text, &mut fact_atoms);
    let mut core = Core {
        symbols: Arc::new(symbols),
        atoms,
        rules: compiled,
    };
    let mut distinct = Vec::with_capacity(fact_atoms.len());
    for &atom in &fact_atoms {
        if !core.atoms.is_fact(atom) {
            core.atoms.set_fact(atom, true);
            distinct.push(atom);
        }
    }
    let mut scratch = Scratch::new(&core);
    let mut matches: Vec<Matches> = core.rules.iter().map(Matches::new).collect();
    core.saturate(&mut scratch, &distinct, Some(&mut matches));
    for (r, m) in matches.iter_mut().enumerate() {
        if core.rules[r].heads.is_empty() {
            *m = core.full_matches(&mut scratch, r);
        }
    }
    let rank = core.ranks();
    for m in &mut matches {
        m.sort_by_rank(&rank);
    }
    Built {
        core,
        fact_atoms,
        matches,
        rank,
    }
}

/// Intern every row of `tables` as an atom, appending the atom ids to
/// `out` in table and row order. Each distinct caller id's text is
/// fetched and hashed once, through an id-keyed map; every further
/// occurrence costs one integer lookup.
fn intern_tables<'t>(
    symbols: &mut Symbols,
    atoms: &mut AtomStore,
    tables: impl IntoIterator<Item = &'t FactTable>,
    text: &dyn Fn(u32) -> Arc<str>,
    out: &mut Vec<u32>,
) {
    let mut constant: HashMap<u32, u32, BuildHasherDefault<IdHasher>> = HashMap::default();
    let mut args: Vec<u32> = Vec::new();
    for table in tables {
        let pred = symbols.predicate(table.predicate(), table.strong_neg());
        for row in table.rows() {
            args.clear();
            for &id in row {
                let c = *constant
                    .entry(id)
                    .or_insert_with(|| symbols.constant(&text(id)));
                args.push(c);
            }
            out.push(atoms.intern(pred, &args));
        }
    }
}

/// The `FxHash` step for integer keys: the caller-id → constant map of
/// [`intern_tables`] hashes one `u32` per lookup, which SipHash would
/// dominate.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Core {
    /// Intern a [`GroundAtom`], sharing its argument text.
    pub(crate) fn intern_ground(&mut self, atom: &GroundAtom) -> u32 {
        let symbols = Arc::make_mut(&mut self.symbols);
        let pred = symbols.predicate(&atom.predicate, atom.strong_neg);
        let args: Vec<u32> = atom.args.iter().map(|a| symbols.constant(a)).collect();
        self.atoms.intern(pred, &args)
    }

    /// The id of a [`GroundAtom`], if it was ever interned.
    pub(crate) fn find_ground(&self, atom: &GroundAtom) -> Option<u32> {
        let pred = self
            .symbols
            .find_predicate(&atom.predicate, atom.strong_neg)?;
        let args = atom
            .args
            .iter()
            .map(|a| self.symbols.find_constant(a))
            .collect::<Option<Vec<u32>>>()?;
        self.atoms.find(pred, &args)
    }

    /// Apply a template to a substitution.
    fn fill(template: &Template, slots: &[u32], buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(template.args.iter().map(|a| a.value(slots)));
    }

    /// The atom a template denotes under a substitution, if interned.
    fn find_filled(&self, template: &Template, slots: &[u32], buf: &mut Vec<u32>) -> Option<u32> {
        Self::fill(template, slots, buf);
        self.atoms.find(template.pred, buf)
    }

    /// Reset every atom to unsupported and impossible, then saturate from
    /// `facts` (build time, and the recursive-deletion fallback).
    pub(crate) fn saturate(
        &mut self,
        scratch: &mut Scratch,
        facts: &[u32],
        record: Option<&mut Vec<Matches>>,
    ) {
        self.atoms.support.iter_mut().for_each(|s| *s = 0);
        self.atoms.possible.iter_mut().for_each(|p| *p = false);
        scratch.clear();
        let mut changed = vec![false; self.symbols.pred_count()];
        self.insert(scratch, facts, &mut changed, record, true);
    }

    /// Semi-naive insertion: each round joins rule bodies with one
    /// occurrence pinned to a newly-possible atom, counting every new
    /// derivation exactly once and seeding the next round with atoms that
    /// just became possible.
    ///
    /// A round's delta enters the possible set (and the indexes) at the
    /// round start, but atoms derived *during* the round only become visible
    /// as the next round's delta — otherwise a derivation through a
    /// two-level chain would be counted once in the round that derived its
    /// intermediate atom and again with the pin on that atom. With
    /// `unconditional`, rules with a head and no positive body fire first
    /// (only from an empty state: nothing ever retracts their derivations).
    pub(crate) fn insert(
        &mut self,
        scratch: &mut Scratch,
        seeds: &[u32],
        changed: &mut [bool],
        mut record: Option<&mut Vec<Matches>>,
        unconditional: bool,
    ) {
        let mut round: Vec<u32> = Vec::new();
        let queued = scratch.next_stamp();
        for &atom in seeds {
            changed[self.atoms.pred(atom) as usize] = true;
            self.atoms.support[atom as usize] += 1;
            if !self.atoms.is_possible(atom) && !scratch.queued.is(atom, queued) {
                scratch.queued.set(atom, queued);
                round.push(atom);
            }
        }
        let mut buf = Matches::default();
        let mut args = Vec::new();
        if unconditional {
            for r in 0..self.rules.len() {
                let rule = &self.rules[r];
                if rule.heads.is_empty() || !rule.pos.is_empty() {
                    continue;
                }
                buf.reset(rule);
                self.join(scratch, r, None, &mut buf);
                self.derive(r, &buf, &mut args, scratch, queued, &mut round);
                if let Some(record) = record.as_deref_mut() {
                    record[r].extend(&buf);
                }
            }
        }
        while !round.is_empty() {
            let delta = scratch.next_stamp();
            for &atom in &round {
                changed[self.atoms.pred(atom) as usize] = true;
                scratch.delta.set(atom, delta);
                self.atoms.possible[atom as usize] = true;
                scratch.add_member(&self.atoms, atom);
            }
            let queued = scratch.next_stamp();
            let mut next = Vec::new();
            round.sort_unstable_by_key(|&a| self.atoms.pred(a));
            for run in pred_runs(&round, &self.atoms) {
                let run = &round[run];
                let pred = self.atoms.pred(run[0]) as usize;
                for i in 0..scratch.readers[pred].len() {
                    let (r, k) = scratch.readers[pred][i];
                    buf.reset(&self.rules[r]);
                    self.join(scratch, r, Some((k, run, delta)), &mut buf);
                    self.derive(r, &buf, &mut args, scratch, queued, &mut next);
                    if let Some(record) = record.as_deref_mut() {
                        record[r].extend(&buf);
                    }
                }
            }
            round = next;
        }
    }

    /// Count the head derivations of `matches` and queue heads that are not
    /// yet possible.
    fn derive(
        &mut self,
        r: usize,
        matches: &Matches,
        args: &mut Vec<u32>,
        scratch: &mut Scratch,
        queued: u32,
        next: &mut Vec<u32>,
    ) {
        for i in 0..matches.len() {
            for h in 0..self.rules[r].heads.len() {
                let head = &self.rules[r].heads[h];
                let pred = head.pred;
                Self::fill(head, matches.slots(i), args);
                let atom = self.atoms.intern(pred, args);
                self.atoms.support[atom as usize] += 1;
                if !self.atoms.is_possible(atom) && !scratch.queued.is(atom, queued) {
                    scratch.queued.set(atom, queued);
                    next.push(atom);
                }
            }
        }
    }

    /// Counting deletion: each round joins every rule body with one
    /// occurrence pinned to an atom that just lost its last support, to
    /// find (and un-count) the derivations that died with it.
    ///
    /// The possible set is *frozen* for the duration of a round: a round's
    /// atoms are only retired after its joins ran, and atoms dying
    /// mid-round keep their membership until their own round ends. A
    /// derivation whose body atoms die in different rounds is thus
    /// un-counted exactly once, in the earliest round, and the before/after
    /// split excludes the current delta from earlier occurrences so
    /// within-round pairs are not double-counted either.
    pub(crate) fn delete(&mut self, scratch: &mut Scratch, deleted: &[u32], changed: &mut [bool]) {
        let mut round: Vec<u32> = Vec::new();
        for &atom in deleted {
            changed[self.atoms.pred(atom) as usize] = true;
            if self.decrement(atom) {
                round.push(atom);
            }
        }
        let mut buf = Matches::default();
        let mut args = Vec::new();
        while !round.is_empty() {
            let delta = scratch.next_stamp();
            for &atom in &round {
                changed[self.atoms.pred(atom) as usize] = true;
                scratch.delta.set(atom, delta);
            }
            let mut next = Vec::new();
            round.sort_unstable_by_key(|&a| self.atoms.pred(a));
            for run in pred_runs(&round, &self.atoms) {
                let run = &round[run];
                let pred = self.atoms.pred(run[0]) as usize;
                for i in 0..scratch.readers[pred].len() {
                    let (r, k) = scratch.readers[pred][i];
                    buf.reset(&self.rules[r]);
                    self.join(scratch, r, Some((k, run, delta)), &mut buf);
                    for m in 0..buf.len() {
                        for h in 0..self.rules[r].heads.len() {
                            let head = &self.rules[r].heads[h];
                            let Some(atom) = self.find_filled(head, buf.slots(m), &mut args) else {
                                continue;
                            };
                            if !self.atoms.is_supported(atom) {
                                continue; // already dead (queued in an earlier round)
                            }
                            if self.decrement(atom) {
                                next.push(atom);
                            }
                        }
                    }
                }
            }
            // Only now retire this round's atoms from the possible set.
            for &atom in &round {
                self.atoms.possible[atom as usize] = false;
            }
            round = next;
        }
    }

    /// Decrement an atom's support; true when it reached zero.
    fn decrement(&mut self, atom: u32) -> bool {
        let support = &mut self.atoms.support[atom as usize];
        match *support {
            0 => false,
            1 => {
                *support = 0;
                true
            }
            _ => {
                *support -= 1;
                false
            }
        }
    }

    /// Every match of rule `r` over the current possible set.
    pub(crate) fn full_matches(&self, scratch: &mut Scratch, r: usize) -> Matches {
        let mut out = Matches::new(&self.rules[r]);
        self.join(scratch, r, None, &mut out);
        out
    }

    /// Join rule `r`'s positive body, appending each match to `out`. With
    /// `pin = Some((k, atoms, delta))`, occurrence `k` ranges over `atoms`
    /// (the current delta, stamped `delta`), occurrences before `k` over the
    /// possible set minus the delta and occurrences after it over the whole
    /// possible set; without a pin, every occurrence ranges over the whole
    /// possible set.
    fn join(
        &self,
        scratch: &mut Scratch,
        r: usize,
        pin: Option<(usize, &[u32], u32)>,
        out: &mut Matches,
    ) {
        let key = (r, pin.map_or(UNPINNED, |(k, _, _)| k));
        scratch.prepare(self, key);
        let scratch: &Scratch = scratch;
        let rule = &self.rules[r];
        let join = Join {
            core: self,
            scratch,
            rule,
            plan: &scratch.plans[&key],
            pin,
        };
        let mut slots = vec![NONE; rule.slots];
        if join.plan.upfront.iter().all(|&b| join.builtin(b, &slots)) {
            let mut chosen = vec![NONE; rule.pos.len()];
            join.step(0, &mut slots, &mut chosen, out);
        }
    }

    /// Ranks of all atoms in [`GroundAtom`] order (predicate text, negation
    /// flag, argument texts lexicographically), computed from the ranks of
    /// the predicate and constant texts so atoms compare as integers.
    pub(crate) fn ranks(&self) -> Vec<u32> {
        let consts = &self.symbols.consts;
        let preds = &self.symbols.preds;
        let const_rank = rank_by(consts.len(), |a, b| consts[a].cmp(&consts[b]));
        let pred_rank = rank_by(preds.len(), |a, b| preds[a].cmp(&preds[b]));
        let atoms = &self.atoms;
        // Every argument replaced by its constant's rank once, so that
        // comparing two atoms' arguments compares two `u32` slices.
        let ranked: Vec<u32> = atoms.args.iter().map(|&c| const_rank[c as usize]).collect();
        let args = |a: usize| &ranked[atoms.start[a] as usize..atoms.start[a + 1] as usize];
        rank_by(atoms.len(), |a, b| {
            pred_rank[atoms.pred[a] as usize]
                .cmp(&pred_rank[atoms.pred[b] as usize])
                .then_with(|| args(a).cmp(args(b)))
        })
    }

    /// Instances of rule `r` built from `matches`, in match order: heads,
    /// positive body, and the naf literals whose atom is possible.
    /// Tautologies (a head atom also in the positive body) are dropped.
    pub(crate) fn instances(&self, r: usize, matches: &Matches) -> Group {
        let rule = &self.rules[r];
        let mut group = Group::default();
        let mut buf = Vec::new();
        for i in 0..matches.len() {
            let slots = matches.slots(i);
            let chosen = matches.chosen(i);
            let start = group.ids.len();
            for h in &rule.heads {
                let atom = self.find_filled(h, slots, &mut buf);
                group.ids.push(atom.expect("a match's heads were derived"));
            }
            if group.ids[start..].iter().any(|h| chosen.contains(h)) {
                group.ids.truncate(start);
                continue;
            }
            group.ids.extend_from_slice(chosen);
            for n in &rule.naf {
                if let Some(atom) = self.find_filled(n, slots, &mut buf) {
                    if self.atoms.is_possible(atom) {
                        group.ids.push(atom);
                    }
                }
            }
            group.ends.push(group.ids.len() as u32);
        }
        group
    }

    /// Drop every atom that is not possible, and every constant used only
    /// by such atoms, renumbering the rest in their old order. The result
    /// holds exactly the atoms and constants a fresh build over the same
    /// facts would. Returns the new id of each old atom ([`NONE`] =
    /// dropped); callers remap the atom ids they hold.
    pub(crate) fn compact(&mut self) -> Vec<u32> {
        let old = std::mem::take(&mut self.atoms);
        let mut used = vec![false; self.symbols.consts.len()];
        for atom in (0..old.len() as u32).filter(|&a| old.is_possible(a)) {
            for &c in old.args(atom) {
                used[c as usize] = true;
            }
        }
        for arg in self.rules.iter_mut().flat_map(CompiledRule::args_mut) {
            if let Arg::Const(c) = *arg {
                used[c as usize] = true;
            }
        }
        let consts = Arc::make_mut(&mut self.symbols).retain_constants(&used);
        for arg in self.rules.iter_mut().flat_map(CompiledRule::args_mut) {
            if let Arg::Const(c) = arg {
                *c = consts[*c as usize];
            }
        }
        let mut map = vec![NONE; old.len()];
        let mut args = Vec::new();
        for atom in (0..old.len() as u32).filter(|&a| old.is_possible(a)) {
            args.clear();
            args.extend(old.args(atom).iter().map(|&c| consts[c as usize]));
            let id = self.atoms.intern(old.pred(atom), &args);
            self.atoms.support[id as usize] = old.support[atom as usize];
            self.atoms.possible[id as usize] = true;
            self.atoms.fact[id as usize] = old.is_fact(atom);
            map[atom as usize] = id;
        }
        map
    }

    /// Bytes held by the core: symbols, atoms with their saturation state
    /// and compiled rules.
    pub(crate) fn bytes(&self) -> usize {
        self.symbols.bytes()
            + self.atoms.bytes()
            + self.rules.iter().map(CompiledRule::bytes).sum::<usize>()
    }
}

/// The ground instances of one source rule, flat: instance `i` is
/// `ids[ends[i - 1]..ends[i]]`, laid out as the rule's heads, then its
/// positive body, then the surviving naf literals.
#[derive(Debug, Clone, Default)]
pub(crate) struct Group {
    ids: Vec<u32>,
    ends: Vec<u32>,
}

impl Group {
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Instance `i`'s atom ids.
    pub(crate) fn instance(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.ids[start..self.ends[i] as usize]
    }

    /// Renumber the atom ids after [`Core::compact`].
    pub(crate) fn remap(&mut self, map: &[u32]) {
        for id in &mut self.ids {
            *id = map[*id as usize];
            debug_assert_ne!(*id, NONE, "an instance referenced a dropped atom");
        }
    }

    pub(crate) fn bytes(&self) -> usize {
        size_of::<Group>() + (self.ids.len() + self.ends.len()) * size_of::<u32>()
    }
}

/// One join in progress over a plan.
struct Join<'a> {
    core: &'a Core,
    scratch: &'a Scratch,
    rule: &'a CompiledRule,
    plan: &'a Plan,
    pin: Option<(usize, &'a [u32], u32)>,
}

impl Join<'_> {
    fn builtin(&self, b: usize, slots: &[u32]) -> bool {
        let (op, left, right) = self.rule.builtins[b];
        let (l, r) = (left.value(slots), right.value(slots));
        match op {
            BuiltinOp::Eq => l == r,
            BuiltinOp::Neq => l != r,
            _ => {
                let consts = &self.core.symbols.consts;
                op.eval(&consts[l as usize], &consts[r as usize])
            }
        }
    }

    fn step(&self, depth: usize, slots: &mut [u32], chosen: &mut [u32], out: &mut Matches) {
        let Some(step) = self.plan.steps.get(depth) else {
            out.push(chosen, slots);
            return;
        };
        let atoms = &self.core.atoms;
        let (candidates, exclude_delta): (&[u32], Option<u32>) = match self.pin {
            Some((_, delta_atoms, _)) if depth == 0 => (delta_atoms, None),
            pin => {
                let exclude = pin.and_then(|(k, _, d)| (step.occurrence < k).then_some(d));
                let candidates = match &step.index {
                    Some((spec, key)) => {
                        let hash = hash_ids(0, key.iter().map(|a| a.value(slots)));
                        self.scratch.indexes[*spec]
                            .as_ref()
                            .and_then(|index| index.get(&hash))
                            .map_or(&[][..], Vec::as_slice)
                    }
                    None => &self.scratch.members[step.pred as usize],
                };
                (candidates, exclude)
            }
        };
        for &cand in candidates {
            if !atoms.is_possible(cand) {
                continue;
            }
            if let Some(d) = exclude_delta {
                if self.scratch.delta.is(cand, d) {
                    continue;
                }
            }
            let args = atoms.args(cand);
            if args.len() != step.ops.len() {
                continue;
            }
            let mut ok = true;
            for (op, &value) in step.ops.iter().zip(args) {
                match *op {
                    Op::Check(arg) => {
                        if arg.value(slots) != value {
                            ok = false;
                            break;
                        }
                    }
                    Op::Bind(s) => slots[s as usize] = value,
                }
            }
            if ok && step.builtins.iter().all(|&b| self.builtin(b, slots)) {
                chosen[step.occurrence] = cand;
                self.step(depth + 1, slots, chosen, out);
            }
            for op in &step.ops {
                if let Op::Bind(s) = *op {
                    slots[s as usize] = NONE;
                }
            }
        }
    }
}

/// Ranges of equal predicate in a predicate-sorted atom list.
fn pred_runs(list: &[u32], atoms: &AtomStore) -> Vec<std::ops::Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    for i in 1..=list.len() {
        if i == list.len() || atoms.pred(list[i]) != atoms.pred(list[start]) {
            runs.push(start..i);
            start = i;
        }
    }
    runs
}

/// Assembles a [`GroundProgram`] over the core's symbol table (shared, not
/// copied): each core atom used by an emitted rule is numbered in first-use
/// order and copied over as its predicate id and constant ids.
pub(crate) struct Emitter<'a> {
    core: &'a Core,
    map: Vec<u32>,
    ground: GroundProgram,
}

impl<'a> Emitter<'a> {
    pub(crate) fn new(core: &'a Core) -> Self {
        Emitter {
            core,
            map: vec![NONE; core.atoms.len()],
            ground: GroundProgram::over(Arc::clone(&core.symbols)),
        }
    }

    /// The ground-program id of a core atom, numbering it on first use.
    pub(crate) fn id(&mut self, atom: u32) -> AtomId {
        let slot = &mut self.map[atom as usize];
        if *slot == NONE {
            let atoms = &self.core.atoms;
            *slot = self.ground.push_atom(atoms.pred(atom), atoms.args(atom)) as u32;
        }
        *slot as AtomId
    }

    pub(crate) fn rule(&mut self, heads: &[u32], pos: &[u32], neg: &[u32]) {
        let heads = heads.iter().map(|&a| self.id(a)).collect();
        let pos = pos.iter().map(|&a| self.id(a)).collect();
        let neg = neg.iter().map(|&a| self.id(a)).collect();
        self.ground.add_rule(GroundRule { heads, pos, neg });
    }

    /// Emit instance `i` of compiled rule `r` the way the grounder always
    /// has: intern heads, then the body literals in source order (naf
    /// literals only when their atom is possible), and only then drop the
    /// instance if it is a tautology — so its atoms stay interned.
    pub(crate) fn source_instance(&mut self, r: usize, matches: &Matches, i: usize) {
        let core = self.core;
        let rule = &core.rules[r];
        let slots = matches.slots(i);
        let chosen = matches.chosen(i);
        let mut buf = Vec::new();
        let heads: Vec<AtomId> = rule
            .heads
            .iter()
            .map(|h| {
                let atom = core.find_filled(h, slots, &mut buf);
                self.id(atom.expect("a match's heads were derived"))
            })
            .collect();
        let mut pos = Vec::with_capacity(rule.pos.len());
        let mut neg = Vec::new();
        for lit in &rule.body {
            match *lit {
                Lit::Pos(k) => pos.push(self.id(chosen[k])),
                Lit::Naf(n) => {
                    if let Some(atom) = core.find_filled(&rule.naf[n], slots, &mut buf) {
                        if core.atoms.is_possible(atom) {
                            neg.push(self.id(atom));
                        }
                    }
                }
            }
        }
        if heads.iter().any(|h| pos.contains(h)) {
            return;
        }
        self.ground.add_rule(GroundRule { heads, pos, neg });
    }

    pub(crate) fn fact(&mut self, atom: u32) {
        let id = self.id(atom);
        self.ground.add_rule(GroundRule {
            heads: vec![id],
            pos: Vec::new(),
            neg: Vec::new(),
        });
    }

    pub(crate) fn finish(self) -> GroundProgram {
        self.ground
    }
}
