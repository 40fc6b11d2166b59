//! A program's rule part, compiled once.
//!
//! A peer's specification program is fixed rules plus the peers' instances
//! as facts (Section 4.2): the rules depend only on the DECs and the trust
//! topology, and only the facts change between preparations. A
//! [`CompiledProgram`] does the rule-only work once — choice unfolding, the
//! safety check, the rule templates over numbered slots and the rule side
//! of the relevance graph — so that each preparation adds only its fact
//! shapes and seeds ([`CompiledProgram::analyze`]) and instantiates the
//! kept templates by index ([`CompiledProgram::ground`]). No rule is
//! restricted into a new program, re-checked or recompiled.
//!
//! [`crate::IncrementalGround::from_tables`] and
//! [`crate::RelevanceAnalysis::analyze_with_facts`] compile on every call
//! and then take the same path.

use crate::choice::unfold_choices;
use crate::error::DatalogError;
use crate::facts::{ConstantIds, FactTable, TextFacts};
use crate::graph::PredicateGraph;
use crate::incremental::IncrementalGround;
use crate::relevance::{QuerySeed, RelevanceAnalysis, RuleGraph};
use crate::seminaive::{self, Kept, Templates, TextOrder};
use crate::syntax::Program;
use std::borrow::Cow;
use std::sync::Arc;

/// `program` with its choice atoms unfolded, or an error naming its first
/// unsafe rule: what every grounding entry point checks once.
pub(crate) fn unfolded_and_safe(program: &Program) -> Result<Cow<'_, Program>, DatalogError> {
    let program = if program.has_choice() {
        Cow::Owned(unfold_choices(program))
    } else {
        Cow::Borrowed(program)
    };
    if let Some(rule) = program.unsafe_rules().first() {
        return Err(DatalogError::UnsafeRule(rule.to_string()));
    }
    Ok(program)
}

/// A program compiled once for many relevance analyses and groundings:
/// its non-fact rules as templates, its own facts as tables, the rule side
/// of its relevance graph and whether it is head-cycle-free. Immutable, so
/// one value serves any number of concurrent preparations.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    templates: Templates,
    graph: RuleGraph,
    own: TextFacts,
    /// [`PredicateGraph::is_head_cycle_free`] of the unfolded rules.
    hcf: bool,
}

impl CompiledProgram {
    /// Compile `program`: choice atoms are unfolded first, like
    /// [`crate::ground::Grounder::new`]. Fails on an unsafe rule.
    pub fn new(program: &Program) -> Result<Self, DatalogError> {
        let program = unfolded_and_safe(program)?;
        let rules = program.rules();
        let templates = Templates::compile(rules);
        Ok(CompiledProgram {
            graph: RuleGraph::new(rules, &templates),
            own: TextFacts::of(rules),
            templates,
            hcf: PredicateGraph::new(&program).is_head_cycle_free(),
        })
    }

    /// The relevance analysis of the program plus facts given by shape
    /// (see [`RelevanceAnalysis::analyze_with_facts`], whose result it
    /// equals) for `seeds`.
    pub fn analyze<'s>(
        &self,
        fact_shapes: impl IntoIterator<Item = (&'s str, usize)>,
        seeds: &[QuerySeed],
    ) -> RelevanceAnalysis {
        self.graph.analyze(&self.templates, fact_shapes, seeds)
    }

    /// Ground the slice `analysis` keeps — an analysis of this program —
    /// over the program's own facts and `tables` of a caller's
    /// text-canonical ids, which `constants` describes, retaining the
    /// incremental state. Only the kept tables and rows are read (those
    /// [`RelevanceAnalysis::restrict_facts`] keeps, compared by id); the
    /// kept templates are instantiated by index, with the bindings of
    /// restrictable seeds substituted. The state equals [`IncrementalGround::from_tables`]'s
    /// over the restricted program ([`RelevanceAnalysis::restrict`]) and
    /// the kept tables with their texts. Atoms are ranked through `order`,
    /// which the state keeps for its patches.
    ///
    /// Also returns, per constant of the grounding (the ids of
    /// [`crate::GroundProgram::constant`] in the state's programs), the
    /// caller id it came from, or `None` for a constant only the program
    /// mentions: how the caller maps a model back to its own ids without
    /// reading a constant's text. The state does not keep it.
    pub fn ground<'t>(
        &self,
        analysis: &RelevanceAnalysis,
        tables: impl IntoIterator<Item = &'t FactTable>,
        constants: &dyn ConstantIds,
        order: &Arc<TextOrder>,
    ) -> (IncrementalGround, Vec<Option<u32>>) {
        let own = analysis.restrict_fact_ids(&self.own.tables, &self.own);
        let tables = analysis.restrict_fact_ids(tables, constants);
        let kept: Vec<Kept<'_>> = analysis
            .kept_rules
            .iter()
            .map(|&(r, seed)| {
                let bindings = seed.map(|s| &analysis.seeds[s as usize].bindings[..]);
                (r as usize, bindings)
            })
            .collect();
        // `restrict` drops the facts a binding rules out, so an own table
        // left with no row is dropped too.
        let own = own.iter().map(|t| &**t).filter(|t| !t.is_empty()).collect();
        let sources = [
            (own, &self.own as &dyn ConstantIds),
            (tables.iter().map(|t| &**t).collect(), constants),
        ];
        let mut built = seminaive::build(&self.templates, &kept, &sources, order);
        let origin = std::mem::take(&mut built.origin);
        (IncrementalGround::from_built(built, self.hcf), origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::{GroundProgram, GroundRule};
    use crate::shift::shift_ground;
    use crate::syntax::{Atom, BodyItem, Rule};
    use std::collections::BTreeSet;

    fn atom(p: &str, args: &[&str]) -> Atom {
        Atom::new(p, args)
    }

    /// Facts of `edge` and `color` (some as tables), a recursive `reach`,
    /// a `reach` rule whose head constant contradicts a binding, a
    /// repeated head variable, and an island the seeds never reach.
    fn program() -> Program {
        let mut p = Program::new();
        p.add_fact(atom("edge", &["a", "b"]));
        p.add_fact(atom("edge", &["b", "c"]));
        p.add_fact(atom("edge", &["c", "a"]));
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
            vec![atom("reach", &["b", "Y"])],
            vec![BodyItem::Pos(atom("color", &["Y", "C"]))],
        ));
        p.add_rule(Rule::new(
            vec![atom("loop", &["X", "X"])],
            vec![BodyItem::Pos(atom("edge", &["X", "Y"]))],
        ));
        p.add_fact(atom("loop", &["c", "d"]));
        p.add_rule(Rule::new(
            vec![atom("colored", &["X"])],
            vec![BodyItem::Pos(atom("color", &["X", "C"]))],
        ));
        p
    }

    /// The solver's program equals the shift of the disjunctive one, rule
    /// for rule and atom for atom.
    fn assert_emits_its_shift(state: &IncrementalGround) {
        let program = state.to_solver();
        let want = crate::shift::shift_ground(&state.to_ground());
        assert!(state.to_ground().is_disjunctive() && !program.is_disjunctive());
        assert_eq!(program.rules(), want.rules());
        assert_eq!(program.atom_count(), want.atom_count());
        for id in 0..want.atom_count() {
            assert_eq!(program.atom(id), want.atom(id));
        }
    }

    #[test]
    fn certified_groundings_emit_the_shifted_program() {
        // `in ∨ out` over a recursive `reach`, and a three-way disjunction
        // that the patches below add instances of.
        let mut program = program();
        program.add_rule(Rule::new(
            vec![atom("in", &["Y"]), atom("out", &["Y"])],
            vec![
                BodyItem::Pos(atom("reach", &["X", "Y"])),
                BodyItem::Naf(atom("loop", &["X", "Y"])),
            ],
        ));
        program.add_rule(Rule::new(
            vec![atom("x", &["X"]), atom("y", &["X"]), atom("z", &["X"])],
            vec![BodyItem::Pos(atom("edge", &["X", "d"]))],
        ));
        let compiled = CompiledProgram::new(&program).unwrap();
        let order = Arc::new(TextOrder::new());
        let ga = |p: &str, args: &[&str]| crate::GroundAtom::new(p, args);
        for seeds in [
            vec![QuerySeed::new("in"), QuerySeed::new("x")],
            vec![QuerySeed::with_bindings("out", vec![Some(Arc::from("b"))])],
        ] {
            let analysis = compiled.analyze([], &seeds);
            let (mut state, _) = compiled.ground(&analysis, [], &Vec::new(), &order);
            assert_emits_its_shift(&state);
            state.apply_delta(&[ga("edge", &["c", "d"]), ga("edge", &["b", "e"])], &[]);
            assert_emits_its_shift(&state);
            // A recursive deletion re-saturates the whole state.
            state.apply_delta(&[ga("edge", &["a", "d"])], &[ga("edge", &["a", "b"])]);
            assert_emits_its_shift(&state);
        }
    }

    #[test]
    fn head_cycles_stay_disjunctive_for_the_solver() {
        use crate::solve::{solve, solve_ground, SolverConfig};
        // a ∨ b.  a :- b.  b :- a.  — its shift has no answer set.
        let (a, b) = (atom("a", &[]), atom("b", &[]));
        let mut program = Program::new();
        program.add_rule(Rule::new(vec![a.clone(), b.clone()], vec![]));
        program.add_rule(Rule::new(vec![a.clone()], vec![BodyItem::Pos(b.clone())]));
        program.add_rule(Rule::new(vec![b], vec![BodyItem::Pos(a)]));
        let compiled = CompiledProgram::new(&program).unwrap();
        let analysis = compiled.analyze([], &[QuerySeed::new("a"), QuerySeed::new("b")]);
        let order = Arc::new(TextOrder::new());
        let (state, _) = compiled.ground(&analysis, [], &Vec::new(), &order);
        let ground = state.to_solver();
        assert!(ground.is_disjunctive());
        assert_eq!(ground.to_string(), state.to_ground().to_string());
        let got = solve_ground(ground, SolverConfig::default()).unwrap();
        let want = solve(&program, SolverConfig::default()).unwrap();
        assert!(!got.used_shift);
        let decode = |r: &crate::solve::SolveResult| {
            let sets = r.answer_sets.iter().map(|s| r.ground.decode(s));
            sets.collect::<Vec<_>>()
        };
        assert_eq!(decode(&got), decode(&want));
        assert_eq!(decode(&got).len(), 1);
    }

    #[test]
    fn compiled_grounding_equals_the_restricted_programs() {
        let program = program();
        let compiled = CompiledProgram::new(&program).unwrap();
        let texts: Vec<Arc<str>> = ["a", "b", "red", "d"].map(Arc::from).to_vec();
        let text = |id: u32| Arc::clone(&texts[id as usize]);
        let mut color = FactTable::new("color", 2);
        color.push(&[0, 2]);
        color.push(&[1, 2]);
        let mut edge = FactTable::new("edge", 2);
        edge.push(&[1, 3]);
        let tables = [color, edge];
        let bound = |p: &str, b: [Option<&str>; 2]| {
            QuerySeed::with_bindings(p, b.map(|c| c.map(Arc::from)).to_vec())
        };
        let order = Arc::new(TextOrder::new());
        for seeds in [
            vec![QuerySeed::new("reach")],
            vec![bound("reach", [Some("a"), None])],
            vec![bound("reach", [Some("c"), None])],
            vec![bound("loop", [Some("a"), Some("b")])],
            vec![bound("loop", [Some("c"), None])],
            vec![bound("colored", [Some("a"), None])],
            vec![QuerySeed::new("edge"), QuerySeed::new("nothing")],
        ] {
            let shapes = tables.iter().map(|t| (t.predicate(), t.arity()));
            let analysis = compiled.analyze(shapes.clone(), &seeds);
            let expected = RelevanceAnalysis::analyze_with_facts(&program, shapes, &seeds);
            assert_eq!(analysis.fingerprint(), expected.fingerprint(), "{seeds:?}");
            let (got, origin) = compiled.ground(&analysis, &tables, &texts, &order);
            let kept = analysis.restrict_facts(&tables, &text);
            let want = IncrementalGround::from_tables(
                &analysis.restrict(&program),
                kept.iter().map(|t| &**t),
                &text,
            )
            .unwrap();
            assert_eq!(
                got.to_ground().to_string(),
                want.to_ground().to_string(),
                "{seeds:?}"
            );
            assert_eq!(got.exact_bytes(), want.exact_bytes(), "{seeds:?}");
            // Every constant with a table text points at its id, the
            // program's own `d` included.
            let ground = got.to_ground();
            assert_eq!(origin.len(), ground.constant_count(), "{seeds:?}");
            for (c, id) in origin.iter().enumerate() {
                let text = ground.constant(c as u32);
                assert_eq!(*id, texts.find(text), "{seeds:?}");
            }
            for predicate in ["reach", "edge", "color", "loop", "colored", "nothing"] {
                assert_eq!(got.touches(predicate), want.touches(predicate), "{seeds:?}");
            }
        }
        // Without tables, the program's own facts alone.
        let analysis = compiled.analyze([], &[bound("loop", [Some("c"), None])]);
        let (got, _) = compiled.ground(&analysis, [], &Vec::new(), &order);
        let want = IncrementalGround::new(&analysis.restrict(&program)).unwrap();
        assert_eq!(got.to_ground().to_string(), want.to_ground().to_string());
        assert_eq!(got.exact_bytes(), want.exact_bytes());
    }

    /// `ground` rebuilt atom by atom and rule by rule through the public
    /// `intern` and `add_rule`: the same ids and rules, no certificate.
    fn uncertified(ground: &GroundProgram) -> GroundProgram {
        let mut copy = GroundProgram::default();
        for (id, atom) in ground.atoms() {
            assert_eq!(copy.intern(atom), id);
        }
        for rule in ground.rules() {
            copy.add_rule(GroundRule {
                heads: rule.heads.to_vec(),
                pos: rule.pos.to_vec(),
                neg: rule.neg.to_vec(),
            });
        }
        copy
    }

    #[test]
    fn the_tightness_certificate_changes_no_model_and_no_branch_node() {
        use crate::solve::{solve, solve_ground_recorded, SolveResult, SolverConfig};
        use crate::syntax::{ChoiceAtom, Term};
        use pdes_exec::Executor;
        use pdes_obs::TraceRecorder;
        // The recursive `reach` program, plus a disjunction, a choice and
        // default negation over its non-recursive part.
        let mut program = program();
        program.add_rule(Rule::new(
            vec![atom("in", &["X"]), atom("out", &["X"])],
            vec![
                BodyItem::Pos(atom("edge", &["X", "Y"])),
                BodyItem::Naf(atom("loop", &["X", "X"])),
            ],
        ));
        program.add_rule(Rule::new(
            vec![atom("pick", &["X", "Y"])],
            vec![
                BodyItem::Pos(atom("edge", &["X", "Y"])),
                BodyItem::Pos(atom("in", &["X"])),
                BodyItem::Choice(ChoiceAtom::new(vec![Term::var("X")], vec![Term::var("Y")])),
            ],
        ));
        program.add_constraint(vec![
            BodyItem::Pos(atom("pick", &["X", "Y"])),
            BodyItem::Pos(atom("out", &["Y"])),
        ]);
        let compiled = CompiledProgram::new(&program).unwrap();
        let order = Arc::new(TextOrder::new());
        let solved = |ground: GroundProgram| {
            let recorder = TraceRecorder::new();
            let config = SolverConfig::default();
            let result =
                solve_ground_recorded(ground, config, &Executor::sequential(), &recorder).unwrap();
            let passes = recorder.registry().counter_value("solver.unfounded_passes");
            (result, passes)
        };
        let decoded = |r: &SolveResult| -> BTreeSet<_> {
            r.answer_sets.iter().map(|s| r.ground.decode(s)).collect()
        };
        for (seed, recursive) in [
            ("reach", true),
            ("in", false),
            ("pick", false),
            ("colored", false),
        ] {
            let analysis = compiled.analyze([], &[QuerySeed::new(seed)]);
            let (state, _) = compiled.ground(&analysis, [], &Vec::new(), &order);
            let ground = state.to_solver();
            assert_eq!(ground.is_tight(), !recursive, "{seed}");
            assert_eq!(state.to_ground().is_tight(), !recursive, "{seed}");
            assert_eq!(shift_ground(&state.to_ground()).is_tight(), !recursive);
            let copy = uncertified(&ground);
            assert!(!copy.is_tight(), "{seed}: `add_rule` drops the certificate");
            let (certified, passes) = solved(ground);
            let (reference, reference_passes) = solved(copy);
            assert_eq!(certified.answer_sets, reference.answer_sets, "{seed}");
            assert_eq!(certified.branch_nodes, reference.branch_nodes, "{seed}");
            assert!(reference_passes > 0, "{seed}");
            if recursive {
                assert_eq!(passes, reference_passes, "{seed}");
            } else {
                assert_eq!(passes, 0, "{seed}: a tight slice runs no pass");
            }
            // The text front door is never certified and agrees.
            let text = solve(&analysis.restrict(&program), SolverConfig::default()).unwrap();
            assert!(!text.ground.is_tight());
            assert_eq!(decoded(&certified), decoded(&text), "{seed}");
            assert!(!certified.answer_sets.is_empty(), "{seed}");
        }
    }
}
