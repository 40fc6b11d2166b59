//! A brute-force answer-set reference for small ground normal programs,
//! kept as a test oracle for `datalog::solve`'s `NormalSolver`.
//!
//! It enumerates every interpretation of the program's atoms and keeps
//! those that equal the least model of their Gelfond–Lifschitz reduct,
//! satisfy every constraint and are coherent (no `p` together with `-p`).
//! The least model is a naive fixpoint over `BTreeSet`s and the coherence
//! check compares decoded atoms, so the reference shares no propagation,
//! counter or complement-table code with the solver. Exponential in the
//! atom count: keep programs to about ten atoms.

use datalog::ground::{AtomId, GroundProgram};
use std::collections::BTreeSet;

/// Every answer set of a normal ground program, each as sorted atom ids,
/// in ascending order.
pub fn answer_sets(program: &GroundProgram) -> Vec<Vec<AtomId>> {
    assert!(
        !program.is_disjunctive(),
        "the reference handles normal programs only"
    );
    let atoms = program.atom_count();
    assert!(atoms <= 16, "{atoms} atoms is too many to enumerate");
    let mut models: Vec<BTreeSet<AtomId>> = (0u32..1 << atoms)
        .map(|bits| (0..atoms).filter(|&a| bits & (1 << a) != 0).collect())
        .filter(|candidate| {
            satisfies_constraints(program, candidate)
                && least_model_of_reduct(program, candidate) == *candidate
                && is_coherent(program, candidate)
        })
        .collect();
    models.sort();
    models
        .into_iter()
        .map(|m| m.into_iter().collect())
        .collect()
}

/// No constraint's body holds in `model`.
fn satisfies_constraints(program: &GroundProgram, model: &BTreeSet<AtomId>) -> bool {
    !program.rules().iter().any(|rule| {
        rule.heads.is_empty()
            && rule.pos.iter().all(|p| model.contains(p))
            && rule.neg.iter().all(|n| !model.contains(n))
    })
}

/// The least model of the reduct of `program` by `model`: drop every rule
/// with a default-negated atom in `model`, strip the remaining negative
/// bodies, and saturate.
fn least_model_of_reduct(program: &GroundProgram, model: &BTreeSet<AtomId>) -> BTreeSet<AtomId> {
    let mut least = BTreeSet::new();
    loop {
        let mut changed = false;
        for rule in program.rules() {
            let Some(&head) = rule.heads.first() else {
                continue;
            };
            if rule.neg.iter().any(|n| model.contains(n)) {
                continue;
            }
            if rule.pos.iter().all(|p| least.contains(p)) && least.insert(head) {
                changed = true;
            }
        }
        if !changed {
            return least;
        }
    }
}

/// No atom of `model` has its classical complement in `model` too.
fn is_coherent(program: &GroundProgram, model: &BTreeSet<AtomId>) -> bool {
    let decoded: BTreeSet<_> = model.iter().map(|&a| program.atom(a)).collect();
    decoded
        .iter()
        .all(|atom| !decoded.contains(&atom.clone().strongly_negated()))
}
