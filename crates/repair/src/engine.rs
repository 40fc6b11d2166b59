//! The repair search engine.

use constraints::{Constraint, ConstraintChecker, Violation};
use relalg::database::{Database, GroundAtom};
use relalg::delta::{minimal_deltas, Delta};
use relalg::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A repair: a consistent instance together with its delta from the base
/// instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repair {
    /// The repaired (consistent) instance.
    pub database: Database,
    /// The symmetric difference from the base instance.
    pub delta: Delta,
}

/// Limits that keep the exponential repair search under control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairLimits {
    /// Maximum number of search states to expand before giving up.
    pub max_states: usize,
    /// Maximum number of changes (insertions + deletions) along a branch.
    pub max_changes: usize,
}

impl Default for RepairLimits {
    fn default() -> Self {
        RepairLimits {
            max_states: 200_000,
            max_changes: 10_000,
        }
    }
}

/// Errors raised by the repair engine.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm so new
/// failure modes (e.g. transport-backed repair inputs) are not breaking
/// changes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RepairError {
    /// The search exceeded [`RepairLimits::max_states`].
    SearchSpaceExhausted {
        /// Number of search states explored before giving up.
        states: usize,
    },
    /// Propagated constraint-checking error.
    Constraint(constraints::ConstraintError),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::SearchSpaceExhausted { states } => {
                write!(
                    f,
                    "repair search exceeded the state limit ({states} states)"
                )
            }
            RepairError::Constraint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<constraints::ConstraintError> for RepairError {
    fn from(e: constraints::ConstraintError) -> Self {
        RepairError::Constraint(e)
    }
}

/// Outcome of a repair enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOutcome {
    /// The `⊆`-minimal repairs found. Empty when the instance admits no
    /// repair under the given protections (e.g. a violated constraint whose
    /// every fix would touch a protected relation).
    pub repairs: Vec<Repair>,
    /// Number of search states expanded (for the benchmark harness).
    pub states_explored: usize,
}

impl RepairOutcome {
    /// True when at least one repair exists.
    pub fn is_repairable(&self) -> bool {
        !self.repairs.is_empty()
    }
}

/// Enumerates the `≤_r`-minimal repairs of an instance.
pub struct RepairEngine {
    constraints: Vec<Constraint>,
    protected: BTreeSet<String>,
    limits: RepairLimits,
    extra_domain: Vec<Value>,
}

impl RepairEngine {
    /// Create an engine for a set of constraints with no protected relations.
    pub fn new(constraints: Vec<Constraint>) -> Self {
        RepairEngine {
            constraints,
            protected: BTreeSet::new(),
            limits: RepairLimits::default(),
            extra_domain: Vec::new(),
        }
    }

    /// Mark relations as protected: their tuples can be neither deleted nor
    /// inserted during the repair (the paper's "kept fixed" relations).
    pub fn with_protected<I, S>(mut self, relations: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.protected.extend(relations.into_iter().map(Into::into));
        self
    }

    /// Override the default search limits.
    pub fn with_limits(mut self, limits: RepairLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Extend the active domain used when searching for existential
    /// witnesses (e.g. with the domain of the full multi-peer instance).
    pub fn with_domain(mut self, domain: impl IntoIterator<Item = Value>) -> Self {
        self.extra_domain.extend(domain);
        self
    }

    /// The protected relations.
    pub fn protected(&self) -> &BTreeSet<String> {
        &self.protected
    }

    /// The constraints being enforced.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Is the relation allowed to change?
    fn is_flexible(&self, relation: &str) -> bool {
        !self.protected.contains(relation)
    }

    /// Enumerate the minimal repairs of `base`.
    pub fn repairs(&self, base: &Database) -> Result<RepairOutcome, RepairError> {
        self.repairs_recorded(base, &pdes_obs::NullRecorder)
    }

    /// [`RepairEngine::repairs`] with the search instrumented on `recorder`:
    /// one `repair.search` span over the whole enumeration, plus the
    /// `repair.states` and `repair.repairs` counters.
    pub fn repairs_recorded(
        &self,
        base: &Database,
        recorder: &dyn pdes_obs::Recorder,
    ) -> Result<RepairOutcome, RepairError> {
        let span = pdes_obs::Span::enter(recorder, "repair.search");
        let outcome = self.repairs_inner(base);
        span.finish();
        if let Ok(outcome) = &outcome {
            recorder.count("repair.states", outcome.states_explored as u64);
            recorder.count("repair.repairs", outcome.repairs.len() as u64);
        }
        outcome
    }

    fn repairs_inner(&self, base: &Database) -> Result<RepairOutcome, RepairError> {
        let mut candidates: Vec<(Database, Delta)> = Vec::new();
        let mut visited: BTreeSet<Vec<GroundAtom>> = BTreeSet::new();
        let mut states = 0usize;
        let mut stack: Vec<(Database, Delta)> = vec![(base.clone(), Delta::empty())];

        while let Some((db, delta)) = stack.pop() {
            let signature: Vec<GroundAtom> = db.ground_atoms().into_iter().collect();
            if !visited.insert(signature) {
                continue;
            }
            states += 1;
            if states > self.limits.max_states {
                return Err(RepairError::SearchSpaceExhausted { states });
            }

            // Prune branches already dominated by a known consistent candidate.
            if candidates
                .iter()
                .any(|(_, cd)| cd.is_subset_of(&delta) && cd != &delta)
            {
                continue;
            }

            let checker = ConstraintChecker::with_domain(&db, self.extra_domain.iter().cloned());
            let violation = self.first_violation(&checker)?;
            match violation {
                None => candidates.push((db, delta)),
                Some((constraint, violation)) => {
                    if delta.len() >= self.limits.max_changes {
                        continue;
                    }
                    for (insertions, deletions) in
                        self.fixes(&checker, constraint, &violation, &delta)?
                    {
                        let next = db
                            .apply_changes(insertions.iter(), deletions.iter())
                            .map_err(|e| {
                                RepairError::Constraint(constraints::ConstraintError::Relalg(e))
                            })?;
                        let next_delta = Delta::between(base, &next);
                        stack.push((next, next_delta));
                    }
                }
            }
        }

        let repairs = minimal_deltas(
            candidates
                .into_iter()
                .map(|(database, delta)| Repair { database, delta })
                .collect(),
            |r| &r.delta,
        );
        Ok(RepairOutcome {
            repairs,
            states_explored: states,
        })
    }

    /// Check whether the instance already satisfies every constraint.
    pub fn is_consistent(&self, db: &Database) -> Result<bool, RepairError> {
        let checker = ConstraintChecker::with_domain(db, self.extra_domain.iter().cloned());
        Ok(self.first_violation(&checker)?.is_none())
    }

    /// First violation in deterministic (constraint declaration, binding)
    /// order, if any.
    fn first_violation<'c>(
        &'c self,
        checker: &ConstraintChecker<'_>,
    ) -> Result<Option<(&'c Constraint, Violation)>, RepairError> {
        for c in &self.constraints {
            let mut violations = checker.violations(c)?;
            if !violations.is_empty() {
                return Ok(Some((c, violations.remove(0))));
            }
        }
        Ok(None)
    }

    /// The candidate fixes of a violation: each fix is a pair
    /// (insertions, deletions) applying exactly one change alternative.
    ///
    /// Fixes never undo changes recorded in `delta` (no re-inserting a
    /// deleted atom, no deleting an inserted atom); this keeps deltas
    /// monotone along a branch, which both guarantees termination and makes
    /// the dominance pruning sound.
    #[allow(clippy::type_complexity)]
    fn fixes(
        &self,
        checker: &ConstraintChecker<'_>,
        constraint: &Constraint,
        violation: &Violation,
        delta: &Delta,
    ) -> Result<Vec<(Vec<GroundAtom>, Vec<GroundAtom>)>, RepairError> {
        let mut out = Vec::new();

        // Alternative 1: delete one flexible body atom.
        for atom in violation.ground_body(constraint) {
            if self.is_flexible(&atom.relation) && !delta.insertions.contains(&atom) {
                out.push((vec![], vec![atom]));
            }
        }

        // Alternative 2: insert the missing flexible head atoms for some witness.
        let options = checker
            .head_insertion_options(constraint, &violation.binding, |r| self.is_flexible(r))?;
        for insertions in options {
            if insertions.iter().any(|atom| delta.deletions.contains(atom)) {
                continue;
            }
            out.push((insertions, vec![]));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use constraints::builders::{full_inclusion, key_agreement, key_denial};
    use relalg::{Relation, RelationSchema, Tuple};

    fn example1_db() -> Database {
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
        db
    }

    #[test]
    fn consistent_instance_has_single_empty_repair() {
        let db = example1_db();
        let engine = RepairEngine::new(vec![]);
        let outcome = engine.repairs(&db).unwrap();
        assert_eq!(outcome.repairs.len(), 1);
        assert!(outcome.repairs[0].delta.is_empty());
        assert!(engine.is_consistent(&db).unwrap());
    }

    #[test]
    fn inclusion_with_protected_source_forces_insertions() {
        // Stage 1 of Example 1: repair w.r.t. Σ(P1, P2) with R2 and R3 fixed.
        let db = example1_db();
        let engine = RepairEngine::new(vec![full_inclusion("d12", "R2", "R1", 2).unwrap()])
            .with_protected(["R2", "R3"]);
        let outcome = engine.repairs(&db).unwrap();
        assert_eq!(outcome.repairs.len(), 1);
        let repair = &outcome.repairs[0];
        assert!(repair.database.holds("R1", &Tuple::strs(["c", "d"])));
        assert!(repair.database.holds("R1", &Tuple::strs(["a", "e"])));
        assert_eq!(repair.delta.insertions.len(), 2);
        assert!(repair.delta.deletions.is_empty());
    }

    #[test]
    fn inclusion_with_flexible_source_allows_both_directions() {
        // Without protections a violated inclusion can be fixed by inserting
        // into the target or deleting from the source.
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new("A", &["x"])));
        db.add_relation(Relation::new(RelationSchema::new("B", &["x"])));
        db.insert("A", Tuple::strs(["v"])).unwrap();
        let engine = RepairEngine::new(vec![full_inclusion("inc", "A", "B", 1).unwrap()]);
        let outcome = engine.repairs(&db).unwrap();
        assert_eq!(outcome.repairs.len(), 2);
        let deltas: Vec<usize> = outcome.repairs.iter().map(|r| r.delta.len()).collect();
        assert_eq!(deltas, vec![1, 1]);
    }

    #[test]
    fn key_agreement_with_protected_side_deletes_other_side() {
        // Σ(P1, P3) alone with R3 protected: must delete the R1 member of
        // each conflicting pair.
        let db = example1_db();
        let engine = RepairEngine::new(vec![key_agreement("d13", "R1", "R3").unwrap()])
            .with_protected(["R3"]);
        let outcome = engine.repairs(&db).unwrap();
        assert_eq!(outcome.repairs.len(), 1);
        let repair = &outcome.repairs[0];
        assert!(!repair.database.holds("R1", &Tuple::strs(["a", "b"])));
        assert!(!repair.database.holds("R1", &Tuple::strs(["s", "t"])));
        assert_eq!(repair.delta.deletions.len(), 2);
    }

    #[test]
    fn key_agreement_without_protection_branches_per_conflict() {
        let db = example1_db();
        let engine = RepairEngine::new(vec![key_agreement("d13", "R1", "R3").unwrap()]);
        let outcome = engine.repairs(&db).unwrap();
        // Two independent conflicts, each resolvable two ways → 4 repairs.
        assert_eq!(outcome.repairs.len(), 4);
        for r in &outcome.repairs {
            assert_eq!(r.delta.len(), 2);
        }
    }

    #[test]
    fn unrepairable_when_every_fix_is_protected() {
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new("A", &["x"])));
        db.add_relation(Relation::new(RelationSchema::new("B", &["x"])));
        db.insert("A", Tuple::strs(["v"])).unwrap();
        let engine = RepairEngine::new(vec![full_inclusion("inc", "A", "B", 1).unwrap()])
            .with_protected(["A", "B"]);
        let outcome = engine.repairs(&db).unwrap();
        assert!(!outcome.is_repairable());
    }

    #[test]
    fn denial_constraints_only_delete() {
        let mut db = Database::new();
        db.add_relation(Relation::new(RelationSchema::new("R", &["x", "y"])));
        db.insert("R", Tuple::strs(["k", "v1"])).unwrap();
        db.insert("R", Tuple::strs(["k", "v2"])).unwrap();
        let engine = RepairEngine::new(vec![key_denial("fd", "R").unwrap()]);
        let outcome = engine.repairs(&db).unwrap();
        assert_eq!(outcome.repairs.len(), 2);
        for r in &outcome.repairs {
            assert!(r.delta.insertions.is_empty());
            assert_eq!(r.delta.deletions.len(), 1);
        }
    }

    #[test]
    fn repairs_satisfy_all_constraints() {
        let db = example1_db();
        let cs = vec![
            full_inclusion("d12", "R2", "R1", 2).unwrap(),
            key_agreement("d13", "R1", "R3").unwrap(),
        ];
        let engine = RepairEngine::new(cs.clone()).with_protected(["R2"]);
        let outcome = engine.repairs(&db).unwrap();
        assert!(outcome.is_repairable());
        for r in &outcome.repairs {
            let checker = ConstraintChecker::new(&r.database);
            assert!(checker.all_satisfied(cs.iter()).unwrap());
            // Protected relation untouched.
            assert_eq!(
                r.database.relation("R2").unwrap().tuples(),
                db.relation("R2").unwrap().tuples()
            );
        }
    }

    #[test]
    fn state_limit_is_enforced() {
        let db = example1_db();
        let engine = RepairEngine::new(vec![key_agreement("d13", "R1", "R3").unwrap()])
            .with_limits(RepairLimits {
                max_states: 1,
                max_changes: 10,
            });
        assert!(matches!(
            engine.repairs(&db),
            Err(RepairError::SearchSpaceExhausted { .. })
        ));
    }
}
