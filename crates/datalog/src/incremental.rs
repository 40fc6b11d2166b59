//! Delta-driven incremental re-grounding.
//!
//! Grounding is a pure function of a program's rules and facts, so when an
//! update changes only a handful of base facts, re-grounding from scratch
//! throws away almost everything it just computed. [`IncrementalGround`]
//! keeps the grounding core's state alive and patches it:
//!
//! * [`crate::CompiledProgram::ground`] grounds the slice a relevance
//!   analysis keeps, over rule templates compiled once per program, plus
//!   fact tables of caller ids ([`crate::FactTable`]) — the same one-pass
//!   semi-naive build as [`crate::ground::Grounder`], over a per-grounding
//!   symbol table of dense `u32` ids holding only what the slice uses,
//!   hashing each distinct fact constant's text once — and retains the
//!   interned atoms, the possible set with a *support count* per atom (how
//!   many distinct derivations — base fact or rule instantiation — produce
//!   it), the kept rules' templates, and the rule instances grouped by
//!   source rule. [`IncrementalGround::from_tables`] compiles a program
//!   and takes the same build over all of its rules;
//!   [`IncrementalGround::new`] is that build over a text program, whose
//!   facts are grouped into tables first.
//! * [`IncrementalGround::apply_delta`] takes base-fact insertions and
//!   deletions and repairs the state:
//!   * **Insertions** propagate by *semi-naive evaluation*: each round joins
//!     only rule bodies with at least one occurrence in the newest delta
//!     (occurrences before the pinned one range over the pre-delta set,
//!     occurrences after it over the full set, so every new derivation is
//!     counted exactly once), incrementing support counts and seeding the
//!     next round with atoms that became possible. The initial build is this
//!     same pass from an empty state.
//!   * **Deletions** run the same delta join in reverse, *decrementing* the
//!     support count of every lost derivation; an atom whose count reaches
//!     zero stops being possible and joins the next deletion round. Support
//!     counting is exact only while no deleted atom can feed a positive
//!     recursive component (cyclic derivations would keep each other alive);
//!     when one can, the state falls back to full re-saturation and reports
//!     it in [`PatchStats::full_resaturation`].
//!   * Finally, only the rules whose predicates intersect the changed set
//!     (head, positive *or default-negated* body — a possibility flip under
//!     `not` changes which literals instantiation drops) are re-instantiated;
//!     every other rule keeps its existing ground instances untouched.
//! * [`IncrementalGround::to_ground`] emits the [`GroundProgram`] from the
//!   facts and instance groups — no joins and no text: each atom's
//!   predicate id and constant ids are copied once, and the program shares
//!   the state's symbol table (the state writes to it copy-on-write, so a
//!   program still alive keeps its ids across later patches). Atoms are
//!   ranked through a shared [`crate::TextOrder`], which the state keeps
//!   for its patches, so a build or patch compares only texts the order
//!   has not seen before. **Emission
//!   order:** facts in [`GroundAtom`] order,
//!   then the groups in source-rule order, each sorted by its tuple of
//!   positive-body atoms in [`GroundAtom`] order (the order of a nested-loop
//!   join over sorted candidate sets); atoms are numbered in first-use order
//!   (heads, then positive body, then naf literals). A patched state
//!   therefore emits exactly what a fresh grounding of the updated program
//!   emits, byte for byte.
//!
//! Hash indexes over bound argument positions are built per grounding or
//! patch and dropped with it, so they never count against the retained
//! state; [`IncrementalGround::exact_bytes`] charges what the state keeps.
//! Deletions retire atoms without freeing them; once retired atoms
//! outnumber live ones, the patch compacts the core (drops them and the
//! constants only they used, renumbering the rest), so the state stays
//! within about twice the size of a fresh build under any update stream.

use crate::compiled::unfolded_and_safe;
use crate::error::DatalogError;
use crate::facts::FactTable;
use crate::ground::{GroundAtom, GroundProgram};
use crate::seminaive::{self, Built, Core, Emitter, Group, Scratch};
use crate::syntax::Program;
use std::mem::size_of;
use std::sync::Arc;

/// What one [`IncrementalGround::apply_delta`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Ground rule instances produced by re-instantiating affected rules
    /// (plus changed base facts). The cost proxy of the patch: a warm
    /// post-commit preparation re-derives this many rules instead of the
    /// whole slice.
    pub reinstantiated_rules: usize,
    /// Ground rule instances kept untouched from unaffected rules.
    pub reused_rules: usize,
    /// Source (non-ground) rules that had to be re-instantiated.
    pub affected_source_rules: usize,
    /// Base facts inserted or deleted by the delta (after deduplication
    /// against the current fact set).
    pub fact_changes: usize,
    /// True when a deletion could feed a positive recursive component and
    /// the state re-saturated from scratch (support counting alone cannot
    /// see through cyclic derivations).
    pub full_resaturation: bool,
}

/// A ground program kept in patchable form: the grounding core (symbols,
/// atoms with support counts, compiled rules), the base facts and the rule
/// instances grouped by source rule. See the module docs.
#[derive(Debug, Clone)]
pub struct IncrementalGround {
    core: Core,
    /// Base facts, in [`GroundAtom`] order.
    facts: Vec<u32>,
    /// Instances per compiled (non-fact) rule, in emission order.
    groups: Vec<Group>,
    /// Per predicate id: does a positive-dependency path reach a positive
    /// recursive component? Deletions touching one force a full
    /// re-saturation.
    feeds_recursion: Vec<bool>,
    /// The rules are certified head-cycle-free (see `to_solver`).
    hcf: bool,
}

impl IncrementalGround {
    /// Ground `program`, retaining the incremental state. Choice atoms are
    /// unfolded first, exactly like [`crate::ground::Grounder::new`]. The
    /// program's facts are grouped into fact tables and take the same build
    /// as [`IncrementalGround::from_tables`].
    pub fn new(program: &Program) -> Result<Self, DatalogError> {
        Self::from_tables(program, [], &|_| unreachable!())
    }

    /// Ground `rules` (and any facts among them) plus the facts of
    /// `tables`, retaining the incremental state; `text` gives the constant
    /// text of a table id. Each distinct id's text is hashed once, and a
    /// table, being ground, needs no safety check. The state equals
    /// [`IncrementalGround::new`]'s over the program that holds the same
    /// facts as text. Compiles the rules on every call and takes the build
    /// [`crate::CompiledProgram::ground`] takes, with every rule kept and
    /// an order of its own.
    pub fn from_tables<'t>(
        rules: &Program,
        tables: impl IntoIterator<Item = &'t FactTable>,
        text: &dyn Fn(u32) -> Arc<str>,
    ) -> Result<Self, DatalogError> {
        let rules = unfolded_and_safe(rules)?;
        Ok(Self::from_built(
            seminaive::build_program(rules.rules(), tables, text).0,
            false,
        ))
    }

    /// The retained state of a build: its facts in [`GroundAtom`] order
    /// and each rule's instances; `hcf` certifies its rules head-cycle-free.
    pub(crate) fn from_built(built: Built, hcf: bool) -> Self {
        let core = built.core;
        let mut facts: Vec<u32> = (0..core.atoms.len() as u32)
            .filter(|&a| core.atoms.is_fact(a))
            .collect();
        facts.sort_unstable_by_key(|&a| built.rank[a as usize]);
        let groups = built
            .matches
            .iter()
            .enumerate()
            .map(|(r, m)| core.instances(r, m))
            .collect();
        let feeds_recursion = feeds_recursion(&core);
        IncrementalGround {
            core,
            facts,
            groups,
            feeds_recursion,
            hcf,
        }
    }

    /// Signed predicates occurring anywhere in the slice (rule heads,
    /// positive and negated bodies, base facts — `-p` for `¬p`). A delta
    /// over a predicate outside this set leaves the grounding — and
    /// therefore the solved worlds — untouched.
    pub fn touches(&self, signed_predicate: &str) -> bool {
        let symbols = &self.core.symbols;
        symbols.find_predicate(signed_predicate, false).is_some()
            || signed_predicate
                .strip_prefix('-')
                .is_some_and(|name| symbols.find_predicate(name, true).is_some())
    }

    /// Number of ground rules currently instantiated (facts included).
    pub fn rule_count(&self) -> usize {
        self.facts.len() + self.groups.iter().map(Group::len).sum::<usize>()
    }

    /// Exact size of the retained state for the byte-budgeted cache: the
    /// symbol table (each constant's text once, plus its `Arc` header and
    /// map entry), the atom store (predicate id, argument offset, argument
    /// ids, support count and flags per atom, plus the open-addressing
    /// table), the compiled rule templates, the fact list, the instance
    /// groups at 4 bytes per atom id and one recursion flag per predicate.
    /// Join plans, hash indexes and per-predicate member lists are rebuilt
    /// for each grounding or patch and dropped with it, so they are not
    /// charged. Atoms retired by deletions stay charged until the next
    /// compaction (see the module docs). Deterministic for a given
    /// grounding and patch sequence on a given target.
    pub fn exact_bytes(&self) -> usize {
        self.core.bytes()
            + self.facts.len() * size_of::<u32>()
            + self.groups.iter().map(Group::bytes).sum::<usize>()
            + self.feeds_recursion.len()
    }

    /// Patch the state for a base-fact delta. Insertions already present and
    /// deletions already absent are ignored. Returns what was re-derived.
    pub fn apply_delta(
        &mut self,
        insertions: &[GroundAtom],
        deletions: &[GroundAtom],
    ) -> PatchStats {
        let mut deleted: Vec<u32> = Vec::new();
        for atom in deletions {
            if let Some(id) = self.core.find_ground(atom) {
                if self.core.atoms.is_fact(id) && !deleted.contains(&id) {
                    deleted.push(id);
                }
            }
        }
        let mut inserted: Vec<u32> = Vec::new();
        for atom in insertions {
            let id = self.core.intern_ground(atom);
            if !self.core.atoms.is_fact(id) && !inserted.contains(&id) {
                inserted.push(id);
            }
        }
        let mut stats = PatchStats {
            fact_changes: inserted.len() + deleted.len(),
            ..PatchStats::default()
        };
        if inserted.is_empty() && deleted.is_empty() {
            stats.reused_rules = self.rule_count();
            return stats;
        }
        for &atom in &deleted {
            self.core.atoms.set_fact(atom, false);
        }
        for &atom in &inserted {
            self.core.atoms.set_fact(atom, true);
        }
        self.facts.retain(|&a| self.core.atoms.is_fact(a));
        self.facts.extend_from_slice(&inserted);
        self.feeds_recursion
            .resize(self.core.symbols.pred_count(), false);

        // Predicates whose possible set changes; seeds re-instantiation.
        let mut changed = vec![false; self.core.symbols.pred_count()];
        let pred = |core: &Core, a: u32| core.atoms.pred(a) as usize;
        let mut scratch = Scratch::new(&self.core);
        let recursive_deletion = deleted
            .iter()
            .any(|&a| self.feeds_recursion[pred(&self.core, a)]);
        if recursive_deletion {
            // Cyclic supports defeat counting: re-saturate from scratch and
            // diff the possible sets to find what changed.
            stats.full_resaturation = true;
            let before: Vec<bool> = (0..self.core.atoms.len() as u32)
                .map(|a| self.core.atoms.is_possible(a))
                .collect();
            self.core.saturate(&mut scratch, &self.facts, None);
            // Saturation may intern atoms (derived from a new constant):
            // they were not possible before.
            for a in 0..self.core.atoms.len() as u32 {
                let was = before.get(a as usize).copied().unwrap_or(false);
                if was != self.core.atoms.is_possible(a) {
                    changed[pred(&self.core, a)] = true;
                }
            }
            for &a in inserted.iter().chain(&deleted) {
                changed[pred(&self.core, a)] = true;
            }
        } else {
            self.core.delete(&mut scratch, &deleted, &mut changed);
            // Retired atoms may become possible again below.
            scratch.compact(&self.core.atoms);
            self.core
                .insert(&mut scratch, &inserted, &mut changed, None, false);
        }

        let rank = self.core.ranks(&[]);
        self.facts.sort_unstable_by_key(|&a| rank[a as usize]);
        // Re-instantiate exactly the rules that can observe a changed
        // predicate (head, positive or negated body occurrence).
        for r in 0..self.groups.len() {
            if self.core.rules[r].mentions(&changed) {
                stats.affected_source_rules += 1;
                let mut matches = self.core.full_matches(&mut scratch, r);
                matches.sort_by_rank(&rank);
                self.groups[r] = self.core.instances(r, &matches);
                stats.reinstantiated_rules += self.groups[r].len();
            } else {
                stats.reused_rules += self.groups[r].len();
            }
        }
        stats.reinstantiated_rules += stats.fact_changes;
        stats.reused_rules += self.facts.len();
        // Deletions retire atoms (and maybe constants) without freeing
        // them; once retired atoms outnumber live ones, drop them.
        let live = self.core.atoms.possible_count();
        if self.core.atoms.len() - live > live {
            self.compact();
        }
        stats
    }

    /// Drop retired atoms and unused constants from the core and renumber
    /// the atom ids held by the facts and instance groups.
    fn compact(&mut self) {
        let map = self.core.compact();
        for fact in &mut self.facts {
            *fact = map[*fact as usize];
        }
        for group in &mut self.groups {
            group.remap(&map);
        }
    }

    /// Emit the [`GroundProgram`] of the current facts and instance groups:
    /// no joins, each atom's ids copied once, in first-use order, over the
    /// state's shared symbol table. The program is certified tight
    /// ([`GroundProgram::is_tight`]) when no predicate of the state's rules
    /// feeds a positive recursive component: a predicate-level positive
    /// graph without cycles has no ground positive cycle either.
    pub fn to_ground(&self) -> GroundProgram {
        self.emit(false)
    }

    /// The program the solver runs: for a [`crate::CompiledProgram`]
    /// certified head-cycle-free, the shift of [`IncrementalGround::to_ground`]
    /// (rule for rule and id for id), unchecked; otherwise `to_ground` itself.
    /// Either way it carries `to_ground`'s tightness certificate: the shift
    /// adds default-negated literals only.
    pub fn to_solver(&self) -> GroundProgram {
        debug_assert!(!self.hcf || crate::graph::is_head_cycle_free(&self.to_ground()));
        self.emit(self.hcf)
    }

    /// Whether the state's rules have no positive cycle at the predicate
    /// level. Patches add facts, never rules, so this holds across them.
    fn is_tight(&self) -> bool {
        !self.feeds_recursion.contains(&true)
    }

    fn emit(&self, shift: bool) -> GroundProgram {
        let mut emitter = Emitter::new(&self.core);
        for &fact in &self.facts {
            emitter.fact(fact);
        }
        for (r, group) in self.groups.iter().enumerate() {
            let rule = &self.core.rules[r];
            let (heads, body) = (rule.head_count(), rule.head_count() + rule.pos_count());
            for i in 0..group.len() {
                let ids = group.instance(i);
                emitter.rule(&ids[..heads], &ids[heads..body], &ids[body..], shift);
            }
        }
        let mut program = emitter.finish();
        if self.is_tight() {
            program.certify_tight();
        }
        program
    }
}

/// Per predicate id: can a positive-dependency path reach a positive
/// recursive component (including the components themselves)?
fn feeds_recursion(core: &Core) -> Vec<bool> {
    let n = core.symbols.pred_count();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_loop = vec![false; n];
    for rule in &core.rules {
        for (body, head) in rule.positive_edges() {
            let (from, to) = (body as usize, head as usize);
            if from == to {
                self_loop[from] = true;
            }
            edges[from].push(to);
        }
    }
    let component = crate::graph::strongly_connected_components(n, &edges);
    let mut members = vec![0usize; n];
    for &c in &component {
        members[c] += 1;
    }
    // Backward reachability: nodes that can reach a recursive node.
    let mut reaches: Vec<bool> = (0..n)
        .map(|v| self_loop[v] || members[component[v]] > 1)
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            if !reaches[v] && edges[v].iter().any(|&w| reaches[w]) {
                reaches[v] = true;
                changed = true;
            }
        }
    }
    reaches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::syntax::{Atom, BodyItem, Builtin, BuiltinOp, Rule, Term};
    use crate::{CompiledProgram, QuerySeed};
    use std::collections::BTreeSet;

    fn atom(p: &str, args: &[&str]) -> Atom {
        Atom::new(p, args)
    }

    fn ga(p: &str, args: &[&str]) -> GroundAtom {
        GroundAtom::new(p, args)
    }

    /// Canonical rule set of a ground program for order-insensitive
    /// comparison.
    fn canonical(ground: &GroundProgram) -> BTreeSet<Vec<Vec<String>>> {
        ground
            .rules()
            .iter()
            .map(|r| {
                let name = |ids: &[usize]| {
                    let mut v: Vec<String> =
                        ids.iter().map(|&id| ground.atom(id).to_string()).collect();
                    v.sort();
                    v
                };
                vec![name(r.heads), name(r.pos), name(r.neg)]
            })
            .collect()
    }

    fn assert_matches_fresh(state: &IncrementalGround, program: &Program) {
        let fresh = Grounder::new(program).ground().unwrap();
        let patched = state.to_ground();
        assert_eq!(
            canonical(&patched),
            canonical(&fresh),
            "patched grounding must equal a fresh grounding"
        );
        let rebuilt = IncrementalGround::new(program).unwrap().to_ground();
        assert_eq!(
            patched.to_string(),
            rebuilt.to_string(),
            "patched emission order must equal a fresh build's"
        );
    }

    /// The non-recursive program used by most tests.
    fn base_program() -> Program {
        let mut p = Program::new();
        p.add_fact(atom("edge", &["a", "b"]));
        p.add_fact(atom("edge", &["b", "c"]));
        p.add_fact(atom("mark", &["b"]));
        p.add_rule(Rule::new(
            vec![atom("hop", &["X", "Z"])],
            vec![
                BodyItem::Pos(atom("edge", &["X", "Y"])),
                BodyItem::Pos(atom("edge", &["Y", "Z"])),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("lonely", &["X"])],
            vec![
                BodyItem::Pos(atom("mark", &["X"])),
                BodyItem::Naf(atom("hop", &["X", "X"])),
            ],
        ));
        p
    }

    /// Mirror a delta onto a plain Program for the fresh-grounding oracle.
    fn program_with(base: &Program, ins: &[GroundAtom], del: &[GroundAtom]) -> Program {
        let mut out = Program::new();
        for rule in base.rules() {
            if rule.is_fact() {
                let head = &rule.head[0];
                let args: Vec<&str> = head.terms.iter().filter_map(Term::as_const).collect();
                let mut fact = GroundAtom::new(head.predicate.clone(), &args);
                fact.strong_neg = head.strong_neg;
                if del.contains(&fact) {
                    continue;
                }
            }
            out.add_rule(rule.clone());
        }
        for a in ins {
            let tokens: Vec<&str> = a.args.iter().map(|s| s.as_ref()).collect();
            let mut fact = Atom::new(a.predicate.clone(), &tokens);
            if a.strong_neg {
                fact = fact.strongly_negated();
            }
            out.add_fact(fact);
        }
        out
    }

    #[test]
    fn initial_grounding_matches_the_grounder() {
        let p = base_program();
        let state = IncrementalGround::new(&p).unwrap();
        assert_matches_fresh(&state, &p);
    }

    #[test]
    fn insertions_patch_to_the_fresh_grounding() {
        let p = base_program();
        let mut state = IncrementalGround::new(&p).unwrap();
        let ins = [ga("edge", &["c", "d"])];
        let stats = state.apply_delta(&ins, &[]);
        assert!(!stats.full_resaturation);
        assert!(stats.reinstantiated_rules > 0);
        assert_matches_fresh(&state, &program_with(&p, &ins, &[]));
        // hop(b, d) is now derivable through the new edge.
        assert!(state.to_ground().atom_id(&ga("hop", &["b", "d"])).is_some());
    }

    #[test]
    fn deletions_patch_to_the_fresh_grounding() {
        let p = base_program();
        let mut state = IncrementalGround::new(&p).unwrap();
        let del = [ga("edge", &["b", "c"])];
        let stats = state.apply_delta(&[], &del);
        assert!(!stats.full_resaturation);
        assert_matches_fresh(&state, &program_with(&p, &[], &del));
        assert!(state.to_ground().atom_id(&ga("hop", &["a", "c"])).is_none());
    }

    #[test]
    fn mixed_deltas_patch_to_the_fresh_grounding() {
        let p = base_program();
        let mut state = IncrementalGround::new(&p).unwrap();
        let ins = [ga("edge", &["c", "a"]), ga("mark", &["a"])];
        let del = [ga("edge", &["a", "b"])];
        state.apply_delta(&ins, &del);
        assert_matches_fresh(
            &state,
            &program_with(&program_with(&p, &[], &del), &ins, &[]),
        );
    }

    #[test]
    fn sequential_patches_compose() {
        let p = base_program();
        let mut state = IncrementalGround::new(&p).unwrap();
        let ins = [ga("edge", &["c", "d"])];
        state.apply_delta(&ins, &[]);
        let del = [ga("edge", &["c", "d"])];
        state.apply_delta(&[], &del);
        assert_matches_fresh(&state, &p);
    }

    #[test]
    fn unaffected_rules_are_reused() {
        let mut p = base_program();
        // A disconnected island whose rules must not be re-instantiated by
        // an edge delta.
        p.add_fact(atom("color", &["x"]));
        p.add_rule(Rule::new(
            vec![atom("colored", &["X"])],
            vec![BodyItem::Pos(atom("color", &["X"]))],
        ));
        let mut state = IncrementalGround::new(&p).unwrap();
        let stats = state.apply_delta(&[ga("edge", &["c", "d"])], &[]);
        assert!(stats.reused_rules > 0);
        assert!(stats.reinstantiated_rules < state.rule_count());
        assert_matches_fresh(&state, &program_with(&p, &[ga("edge", &["c", "d"])], &[]));
    }

    #[test]
    fn deletion_keeps_atoms_with_remaining_support() {
        let mut p = Program::new();
        p.add_fact(atom("p", &["a"]));
        p.add_fact(atom("q", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("r", &["X"])],
            vec![BodyItem::Pos(atom("p", &["X"]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("r", &["X"])],
            vec![BodyItem::Pos(atom("q", &["X"]))],
        ));
        let mut state = IncrementalGround::new(&p).unwrap();
        let del = [ga("p", &["a"])];
        state.apply_delta(&[], &del);
        // r(a) keeps its q-derived support and stays possible.
        assert!(state.to_ground().atom_id(&ga("r", &["a"])).is_some());
        assert_matches_fresh(&state, &program_with(&p, &[], &del));
    }

    #[test]
    fn recursive_deletions_fall_back_to_full_resaturation() {
        let mut p = Program::new();
        p.add_fact(atom("edge", &["a", "b"]));
        p.add_fact(atom("edge", &["b", "a"]));
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
        let mut state = IncrementalGround::new(&p).unwrap();
        let del = [ga("edge", &["b", "a"])];
        let stats = state.apply_delta(&[], &del);
        assert!(
            stats.full_resaturation,
            "cycle-feeding deletion must rescue"
        );
        assert_matches_fresh(&state, &program_with(&p, &[], &del));
        // Insertions on the same recursive program stay semi-naive.
        let ins = [ga("edge", &["c", "d"])];
        let stats = state.apply_delta(&ins, &[]);
        assert!(!stats.full_resaturation);
        assert_matches_fresh(
            &state,
            &program_with(&program_with(&p, &[], &del), &ins, &[]),
        );
    }

    /// Every rule's matches over the state's possible set carry the head
    /// atoms their templates denote, and the rule's instances start with
    /// those heads, tautologies aside.
    fn assert_heads_recorded(state: &IncrementalGround) {
        let core = &state.core;
        let mut scratch = Scratch::new(core);
        let rank = core.ranks(&[]);
        for (r, group) in state.groups.iter().enumerate() {
            let mut matches = core.full_matches(&mut scratch, r);
            core.assert_heads_found(r, &matches);
            matches.sort_by_rank(&rank);
            let tautology = |i| {
                matches
                    .heads(i)
                    .iter()
                    .any(|h| matches.chosen(i).contains(h))
            };
            let want: Vec<&[u32]> = (0..matches.len())
                .filter(|&i| !tautology(i))
                .map(|i| matches.heads(i))
                .collect();
            let heads = core.rules[r].head_count();
            let got: Vec<&[u32]> = (0..group.len())
                .map(|i| &group.instance(i)[..heads])
                .collect();
            assert_eq!(got, want, "rule {r}");
        }
    }

    #[test]
    fn patched_matches_carry_their_head_atoms() {
        let mut p = base_program();
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
        let mut state = IncrementalGround::new(&p).unwrap();
        assert_heads_recorded(&state);
        let ins = [ga("edge", &["c", "a"])];
        assert!(!state.apply_delta(&ins, &[]).full_resaturation);
        assert_heads_recorded(&state);
        let del = [ga("mark", &["b"])];
        assert!(!state.apply_delta(&[], &del).full_resaturation);
        assert_heads_recorded(&state);
        let del = [ga("edge", &["a", "b"])];
        assert!(state.apply_delta(&[], &del).full_resaturation);
        assert_heads_recorded(&state);
    }

    #[test]
    fn resaturation_reinstantiates_rules_over_atoms_it_interns() {
        // Regression: the full-resaturation path diffed the possible flags
        // only over the atoms interned before saturating, so `r(z)` — first
        // interned by the re-saturation itself — never marked `r` changed
        // and `r(z) :- q(z)` was missing from the patched grounding.
        let mut p = Program::new();
        p.add_fact(atom("edge", &["a", "b"]));
        p.add_fact(atom("edge", &["b", "a"]));
        p.add_fact(atom("node", &["a"]));
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
        p.add_rule(Rule::new(
            vec![atom("q", &["X"])],
            vec![BodyItem::Pos(atom("node", &["X"]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("r", &["X"])],
            vec![BodyItem::Pos(atom("q", &["X"]))],
        ));
        let mut state = IncrementalGround::new(&p).unwrap();
        let ins = [ga("node", &["z"])];
        let del = [ga("edge", &["b", "a"])];
        let stats = state.apply_delta(&ins, &del);
        assert!(stats.full_resaturation);
        assert_matches_fresh(
            &state,
            &program_with(&program_with(&p, &[], &del), &ins, &[]),
        );
        assert!(state.to_ground().atom_id(&ga("r", &["z"])).is_some());
    }

    #[test]
    fn naf_literals_flip_with_the_possible_set() {
        let p = base_program();
        let mut state = IncrementalGround::new(&p).unwrap();
        // Inserting edge(b, b) makes hop(b, b) possible, so the `lonely`
        // rule must re-instantiate with the previously-dropped naf literal.
        let ins = [ga("edge", &["b", "b"])];
        state.apply_delta(&ins, &[]);
        let expected = program_with(&p, &ins, &[]);
        assert_matches_fresh(&state, &expected);
        let ground = state.to_ground();
        let hop_bb = ground.atom_id(&ga("hop", &["b", "b"])).unwrap();
        assert!(
            ground.rules().iter().any(|r| r.neg.contains(&hop_bb)),
            "lonely(b) must now carry `not hop(b, b)`"
        );
    }

    #[test]
    fn builtins_filter_delta_matches() {
        let mut p = Program::new();
        p.add_fact(atom("num", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("pair", &["X", "Y"])],
            vec![
                BodyItem::Pos(atom("num", &["X"])),
                BodyItem::Pos(atom("num", &["Y"])),
                BodyItem::Builtin(Builtin::new(BuiltinOp::Neq, Term::var("X"), Term::var("Y"))),
            ],
        ));
        let mut state = IncrementalGround::new(&p).unwrap();
        let ins = [ga("num", &["b"])];
        state.apply_delta(&ins, &[]);
        assert_matches_fresh(&state, &program_with(&p, &ins, &[]));
    }

    #[test]
    fn chained_derivations_are_counted_exactly_once() {
        // Regression: with the possible sets mutated mid-round, the sole
        // derivation of q(a) — through d(a) AND the same-round-derived
        // p(a) — was counted twice (once pinned on d, once pinned on p the
        // next round), so deleting d(a) left q(a) alive on ghost support
        // and `s(a) :- t(a), q(a)` survived in the patched grounding.
        let mut p = Program::new();
        p.add_fact(atom("t", &["a"]));
        p.add_rule(Rule::new(
            vec![atom("p", &["X"])],
            vec![BodyItem::Pos(atom("d", &["X"]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("q", &["X"])],
            vec![
                BodyItem::Pos(atom("d", &["X"])),
                BodyItem::Pos(atom("p", &["X"])),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("s", &["X"])],
            vec![
                BodyItem::Pos(atom("t", &["X"])),
                BodyItem::Pos(atom("q", &["X"])),
            ],
        ));
        let mut state = IncrementalGround::new(&p).unwrap();
        let d = [ga("d", &["a"])];
        state.apply_delta(&d, &[]);
        assert_matches_fresh(&state, &program_with(&p, &d, &[]));
        state.apply_delta(&[], &d);
        // Back to the original program: no ghost q(a)/s(a) rules.
        assert_matches_fresh(&state, &p);
        assert!(state.to_ground().atom_id(&ga("q", &["a"])).is_none());
    }

    #[test]
    fn noop_deltas_change_nothing() {
        let p = base_program();
        let mut state = IncrementalGround::new(&p).unwrap();
        let before = state.rule_count();
        // Insert an existing fact, delete an absent one.
        let stats = state.apply_delta(&[ga("edge", &["a", "b"])], &[ga("edge", &["z", "z"])]);
        assert_eq!(stats.fact_changes, 0);
        assert_eq!(stats.reinstantiated_rules, 0);
        assert_eq!(state.rule_count(), before);
        assert_matches_fresh(&state, &p);
    }

    #[test]
    fn touches_reflects_the_slice_predicates() {
        let p = base_program();
        let state = IncrementalGround::new(&p).unwrap();
        assert!(state.touches("edge"));
        assert!(state.touches("hop"));
        assert!(!state.touches("unrelated"));
    }

    #[test]
    fn exact_bytes_grows_with_the_state() {
        let p = base_program();
        let mut state = IncrementalGround::new(&p).unwrap();
        let before = state.exact_bytes();
        assert!(before > 0);
        state.apply_delta(&[ga("edge", &["c", "d"]), ga("edge", &["d", "e"])], &[]);
        assert!(state.exact_bytes() > before);
    }

    #[test]
    fn exact_bytes_stays_bounded_under_fresh_constants() {
        // Each round inserts a fact over a new constant (deriving a hop over
        // it) and deletes it again. The retired atoms and constants are
        // dropped once they outnumber the live atoms, so the size never
        // exceeds twice the starting size and returns to it exactly.
        let p = base_program();
        let mut state = IncrementalGround::new(&p).unwrap();
        let start = state.exact_bytes();
        let mut returned = 0;
        for i in 0..40 {
            let fact = [ga("edge", &["c", &format!("n{i}")])];
            state.apply_delta(&fact, &[]);
            assert!(state.exact_bytes() <= 2 * start, "round {i} insert");
            state.apply_delta(&[], &fact);
            assert!(state.exact_bytes() <= 2 * start, "round {i} delete");
            if state.exact_bytes() == start {
                returned += 1;
            }
        }
        assert!(
            returned >= 10,
            "compaction ran {returned} times in 40 rounds"
        );
        assert_matches_fresh(&state, &p);
    }

    /// Each atom's rank in [`GroundAtom`] order, by sorting the atoms as
    /// text: the reference [`Core::ranks`] must equal.
    fn text_sort_ranks(core: &Core) -> Vec<u32> {
        let atom = |a: u32| {
            let (name, strong_neg) = core.symbols.pred(core.atoms.pred(a));
            let args = core.atoms.args(a).iter();
            GroundAtom {
                predicate: name.clone(),
                strong_neg: *strong_neg,
                args: args
                    .map(|&c| Arc::clone(core.symbols.const_text(c)))
                    .collect(),
            }
        };
        let mut sorted: Vec<u32> = (0..core.atoms.len() as u32).collect();
        sorted.sort_by_key(|&a| atom(a));
        let mut rank = vec![0; sorted.len()];
        for (r, a) in sorted.into_iter().enumerate() {
            rank[a as usize] = r as u32;
        }
        rank
    }

    #[test]
    fn ranks_match_the_text_sort() {
        // Texts that sort byte-wise: a number next to its quoted form,
        // shared prefixes, non-ASCII text and the empty string; one
        // predicate at two arities and a strongly negated one; and atoms
        // too wide to pack into one key, which tie on the packed prefix.
        let texts = [
            "1", "\"1\"", "k_P1_1", "k_P1_10", "k_P1_2", "", "é", "e", "日本", "z",
        ];
        let mut p = Program::new();
        for (i, &c) in texts.iter().enumerate() {
            p.add_fact(atom("r", &[c, texts[(i + 3) % texts.len()]]));
            p.add_fact(atom("r", &[c]));
            let mut wide = vec!["k_P1_1"; 20];
            wide[19] = c;
            p.add_fact(atom("wide", &wide));
        }
        p.add_rule(Rule::new(
            vec![atom("r", &["Y", "X"]).strongly_negated()],
            vec![
                BodyItem::Pos(atom("r", &["X", "Y"])),
                BodyItem::Pos(atom("r", &["Y"])),
            ],
        ));
        let mut state = IncrementalGround::new(&p).unwrap();
        assert_eq!(state.core.ranks(&[]), text_sort_ranks(&state.core));

        // A second grounding extends the same order with texts of its own;
        // the first grounding's ranks still read the order correctly.
        let mut q = Program::new();
        for c in ["k_P1_100", "ü", "1 ", "0", "k_P1_10"] {
            q.add_fact(atom("s", &[c, "e"]));
        }
        let compiled = CompiledProgram::new(&q).unwrap();
        let analysis = compiled.analyze([], &[QuerySeed::new("s")]);
        let (other, _) = compiled.ground(&analysis, [], &Vec::new(), &state.core.order);
        assert_eq!(other.core.ranks(&[]), text_sort_ranks(&other.core));
        assert_eq!(state.core.ranks(&[]), text_sort_ranks(&state.core));

        // Constants first minted by a patch, after the order was built.
        let ins = [
            ga("r", &["k_P1_11", "é"]),
            ga("r", &["k_P1_11"]),
            ga("r", &["ä", ""]),
            ga("wide", &[&["k_P1_1"; 19][..], &["aa"]].concat()),
        ];
        state.apply_delta(&ins, &[ga("r", &["z"])]);
        assert_eq!(state.core.ranks(&[]), text_sort_ranks(&state.core));
        assert_matches_fresh(&state, &program_with(&p, &ins, &[ga("r", &["z"])]));
    }

    #[test]
    fn exact_bytes_charges_each_constant_text_once() {
        // `b` occurs in three facts and in derived atoms; lengthening it by
        // nine bytes must grow the exact size by exactly nine bytes, since
        // atoms hold constant ids and the text lives once in the symbol
        // table.
        let rename = |from: &str, to: &str| -> Program {
            base_program()
                .rules()
                .iter()
                .map(|rule| {
                    let mut rule = rule.clone();
                    for atom in rule.head.iter_mut() {
                        for t in atom.terms.iter_mut() {
                            if t.as_const() == Some(from) {
                                *t = Term::cnst(to);
                            }
                        }
                    }
                    rule
                })
                .collect()
        };
        let short = IncrementalGround::new(&rename("b", "b")).unwrap();
        let long = IncrementalGround::new(&rename("b", "bbbbbbbbbb")).unwrap();
        assert_eq!(short.rule_count(), long.rule_count());
        assert_eq!(long.exact_bytes() - short.exact_bytes(), 9);
    }
}
