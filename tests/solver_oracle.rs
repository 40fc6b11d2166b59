//! Differential test of the stable-model solver against a brute-force
//! reference (`tests/support/brute_force_asp.rs`).
//!
//! Seeded random ground programs of at most ten atoms mix random rules with
//! the shapes that stress stable-model propagation: positive loops, even and
//! odd negation cycles, constraints and `p`/`-p` pairs. On normal programs,
//! `solve_ground_with` must return exactly the reference's answer sets, in
//! the same order. On head-cycle-free disjunctive programs, the shifted
//! `NormalSolver` must agree with the generic `DisjunctiveSolver`. Every
//! comparison runs at pool sizes 1, 2 and 4 with `parallel_min_atoms: 0`,
//! so the parallel seed expansion is exercised too, and the branch-node
//! count must not depend on the pool size.

#[path = "support/brute_force_asp.rs"]
mod brute_force_asp;

use datalog::graph::is_head_cycle_free;
use datalog::ground::{AtomId, GroundAtom, GroundProgram, GroundRule};
use datalog::solve::{solve_ground_with, DisjunctiveSolver, SolveResult, SolverConfig};
use pdes_exec::{ExecConfig, Executor};
use proptest::TestRng;
use std::collections::BTreeSet;

/// The most atoms a generated program has.
const MAX_ATOMS: usize = 10;

/// Solver settings that send even the smallest program down the parallel
/// path when the pool has more than one worker.
const CONFIG: SolverConfig = SolverConfig {
    max_branch_nodes: 1_000_000,
    parallel_min_atoms: 0,
};

/// The stress shapes a generated program is built around, one per case in
/// rotation so every shape is covered.
#[derive(Debug, Clone, Copy)]
enum Motif {
    PositiveLoop,
    EvenCycle,
    OddCycle,
    Constraint,
    ComplementPair,
}

const MOTIFS: [Motif; 5] = [
    Motif::PositiveLoop,
    Motif::EvenCycle,
    Motif::OddCycle,
    Motif::Constraint,
    Motif::ComplementPair,
];

/// A seeded generator of small random ground programs.
struct ProgramGen {
    rng: TestRng,
    /// Allow two-atom disjunctive heads in the random rules.
    disjunctive: bool,
}

impl ProgramGen {
    fn below(&mut self, bound: usize) -> usize {
        (self.rng.next_u64() % bound as u64) as usize
    }

    fn percent(&mut self, p: u64) -> bool {
        self.rng.next_u64() % 100 < p
    }

    fn pick(&mut self, atoms: usize) -> AtomId {
        self.below(atoms)
    }

    /// Three distinct atoms (`atoms` is at least three).
    fn distinct(&mut self, atoms: usize) -> [AtomId; 3] {
        let x = self.pick(atoms);
        let y = (x + 1 + self.below(atoms - 1)) % atoms;
        let mut z = self.pick(atoms);
        while z == x || z == y {
            z = (z + 1) % atoms;
        }
        [x, y, z]
    }

    fn atoms(&mut self, atoms: usize, max: usize) -> Vec<AtomId> {
        let len = self.below(max + 1);
        (0..len).map(|_| self.pick(atoms)).collect()
    }

    /// One program around `motif`: interned atoms `p(i)` with the
    /// complement `-p(i)` of some of them (always of `p(0)`), the motif's
    /// rules, a few facts, and random rules with up to two positive and two
    /// default-negated body atoms (a sixth of them constraints).
    fn program(&mut self, motif: Motif) -> GroundProgram {
        let mut ground = GroundProgram::default();
        let base = 2 + self.below(5);
        for i in 0..base {
            ground.intern(GroundAtom::new("p", &[i.to_string()]));
        }
        for i in 0..base {
            if ground.atom_count() < MAX_ATOMS && (i == 0 || self.percent(40)) {
                ground.intern(GroundAtom::new("p", &[i.to_string()]).strongly_negated());
            }
        }
        let atoms = ground.atom_count();
        let [x, y, z] = self.distinct(atoms);
        let rule =
            |heads: Vec<AtomId>, pos: Vec<AtomId>, neg: Vec<AtomId>| GroundRule { heads, pos, neg };
        match motif {
            Motif::PositiveLoop => {
                ground.add_rule(rule(vec![x], vec![y], vec![]));
                ground.add_rule(rule(vec![y], vec![x], vec![]));
                ground.add_rule(rule(vec![x], vec![], vec![z]));
            }
            Motif::EvenCycle => {
                ground.add_rule(rule(vec![x], vec![], vec![y]));
                ground.add_rule(rule(vec![y], vec![], vec![x]));
            }
            Motif::OddCycle => {
                ground.add_rule(rule(vec![x], vec![], vec![y]));
                ground.add_rule(rule(vec![y], vec![], vec![z]));
                ground.add_rule(rule(vec![z], vec![], vec![x]));
            }
            Motif::Constraint => {
                ground.add_rule(rule(vec![x], vec![], vec![y]));
                ground.add_rule(rule(vec![y], vec![], vec![x]));
                ground.add_rule(rule(vec![], vec![x], vec![z]));
            }
            Motif::ComplementPair => {
                // p(0) and -p(0) are ids 0 and `base`.
                ground.add_rule(rule(vec![0], vec![], vec![y]));
                ground.add_rule(rule(vec![base], vec![], vec![z]));
            }
        }
        for _ in 0..self.below(3) {
            let fact = self.pick(atoms);
            ground.add_rule(rule(vec![fact], vec![], vec![]));
        }
        if self.percent(50) {
            let [u, v, _] = self.distinct(atoms);
            ground.add_rule(rule(vec![u], vec![], vec![v]));
            ground.add_rule(rule(vec![v], vec![], vec![u]));
        }
        for _ in 0..1 + self.below(atoms / 2 + 1) {
            let mut heads = if self.percent(10) {
                Vec::new()
            } else {
                vec![self.pick(atoms)]
            };
            if self.disjunctive && !heads.is_empty() && self.percent(40) {
                let other = self.pick(atoms);
                if !heads.contains(&other) {
                    heads.push(other);
                }
            }
            let pos = self.atoms(atoms, 2);
            let mut neg = self.atoms(atoms, 1);
            // Odd loops come from the motif; a direct `h :- not h` in the
            // random rules would leave most programs without answer sets.
            neg.retain(|n| !heads.contains(n));
            ground.add_rule(rule(heads, pos, neg));
        }
        ground
    }
}

/// Solve `ground` at pool sizes 1, 2 and 4; assert the three runs agree on
/// everything, including the branch-node count, and return the first.
fn solve_at_every_pool_size(ground: &GroundProgram, context: &str) -> SolveResult {
    let runs = [1, 2, 4].map(|workers| {
        let exec = Executor::new(ExecConfig::with_workers(workers));
        solve_ground_with(ground.clone(), CONFIG, &exec)
            .unwrap_or_else(|e| panic!("{context}, {workers} workers: {e}"))
    });
    for (run, workers) in runs.iter().zip([1, 2, 4]).skip(1) {
        assert_eq!(
            run.answer_sets, runs[0].answer_sets,
            "{context}: {workers} workers changed the answer sets"
        );
        assert_eq!(
            run.branch_nodes, runs[0].branch_nodes,
            "{context}: {workers} workers changed the search tree"
        );
    }
    let [first, _, _] = runs;
    first
}

/// Answer sets as decoded atoms, comparable across differently numbered
/// programs (the shifted program and its original).
fn decoded(ground: &GroundProgram, sets: &[Vec<AtomId>]) -> BTreeSet<BTreeSet<GroundAtom>> {
    sets.iter().map(|s| ground.decode(s)).collect()
}

#[test]
fn normal_solver_matches_the_brute_force_reference() {
    let (mut none, mut several) = (0, 0);
    for case in 0..500u64 {
        let motif = MOTIFS[case as usize % MOTIFS.len()];
        let ground = ProgramGen {
            rng: TestRng::for_case(case),
            disjunctive: false,
        }
        .program(motif);
        let context = format!("case {case} ({motif:?})\n{ground}");
        let expected = brute_force_asp::answer_sets(&ground);
        let got = solve_at_every_pool_size(&ground, &context);
        assert!(!got.used_shift);
        assert_eq!(got.answer_sets, expected, "{context}");
        none += usize::from(expected.is_empty());
        several += usize::from(expected.len() >= 2);
    }
    // The generator reaches both incoherent/odd-cycle dead ends and
    // branching programs with several answer sets.
    assert!(none >= 50, "only {none} cases without answer sets");
    assert!(
        several >= 50,
        "only {several} cases with several answer sets"
    );
}

#[test]
fn shifted_hcf_programs_match_the_disjunctive_solver() {
    let mut checked = 0;
    for case in 0..600u64 {
        let motif = MOTIFS[case as usize % MOTIFS.len()];
        let ground = ProgramGen {
            rng: TestRng::for_case(50_000 + case),
            disjunctive: true,
        }
        .program(motif);
        if !ground.is_disjunctive() || !is_head_cycle_free(&ground) {
            continue;
        }
        let context = format!("case {case} ({motif:?})\n{ground}");
        let (generic, _) = DisjunctiveSolver::new(&ground, CONFIG)
            .answer_sets()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        let shifted = solve_at_every_pool_size(&ground, &context);
        assert!(shifted.used_shift, "{context}");
        assert_eq!(
            decoded(&shifted.ground, &shifted.answer_sets),
            decoded(&ground, &generic),
            "{context}"
        );
        // The shifted program is normal, so the reference applies to it.
        assert_eq!(
            shifted.answer_sets,
            brute_force_asp::answer_sets(&shifted.ground),
            "{context}"
        );
        checked += 1;
    }
    assert!(checked >= 100, "only {checked} HCF disjunctive programs");
}
