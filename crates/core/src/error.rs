//! Errors raised by the peer-to-peer data exchange core.

use std::fmt;

/// Errors raised by system construction, solution computation and peer
/// consistent query answering.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm so new
/// failure modes can be added without a breaking release.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A peer id was added twice.
    DuplicatePeer(String),
    /// A peer id was referenced but never added.
    UnknownPeer(String),
    /// A relation is owned by a different peer than expected.
    RelationOwnedElsewhere { relation: String, owner: String },
    /// A relation was referenced that the given peer does not declare.
    UnknownRelation { peer: String, relation: String },
    /// A constraint (DEC or local IC) references a relation no peer declares.
    /// Raised eagerly by [`crate::P2PSystem::add_dec`] /
    /// [`crate::P2PSystem::add_local_ic`]; the static analyzer reports the
    /// batch-mode equivalent as diagnostic `PDES-A001`.
    ConstraintUnknownRelation {
        /// Name of the offending constraint.
        constraint: String,
        /// The undeclared relation.
        relation: String,
    },
    /// A constraint atom's arity differs from the declared relation schema.
    /// Raised eagerly by [`crate::P2PSystem::add_dec`] /
    /// [`crate::P2PSystem::add_local_ic`]; the static analyzer reports the
    /// batch-mode equivalent as diagnostic `PDES-A002`.
    ConstraintArity {
        /// Name of the offending constraint.
        constraint: String,
        /// The relation whose schema disagrees.
        relation: String,
        /// Declared arity.
        expected: usize,
        /// Arity used by the constraint atom.
        found: usize,
    },
    /// Strict static analysis refused engine construction
    /// ([`crate::engine::QueryEngineBuilder::strict_analysis`]).
    AnalysisRejected {
        /// Number of error-severity diagnostics.
        errors: usize,
        /// The rendered diagnostic report.
        report: String,
    },
    /// A query or DEC uses a feature outside the fragment supported by the
    /// selected answering mechanism (e.g. FO rewriting on a referential DEC).
    Unsupported(String),
    /// Propagated relational-layer error.
    Relalg(relalg::RelalgError),
    /// Propagated constraint error.
    Constraint(constraints::ConstraintError),
    /// Propagated repair-engine error.
    Repair(repair::RepairError),
    /// Propagated answer-set engine error.
    Datalog(datalog::DatalogError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DuplicatePeer(p) => write!(f, "peer `{p}` already exists"),
            CoreError::UnknownPeer(p) => write!(f, "unknown peer `{p}`"),
            CoreError::RelationOwnedElsewhere { relation, owner } => {
                write!(f, "relation `{relation}` is owned by peer `{owner}`")
            }
            CoreError::UnknownRelation { peer, relation } => {
                write!(f, "peer `{peer}` does not declare relation `{relation}`")
            }
            CoreError::ConstraintUnknownRelation {
                constraint,
                relation,
            } => write!(
                f,
                "constraint `{constraint}` references undeclared relation `{relation}`"
            ),
            CoreError::ConstraintArity {
                constraint,
                relation,
                expected,
                found,
            } => write!(
                f,
                "constraint `{constraint}` uses relation `{relation}` with arity {found}, \
                 declared with arity {expected}"
            ),
            CoreError::AnalysisRejected { errors, report } => {
                write!(
                    f,
                    "static analysis rejected the system ({errors} errors):\n{report}"
                )
            }
            CoreError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            CoreError::Relalg(e) => write!(f, "{e}"),
            CoreError::Constraint(e) => write!(f, "{e}"),
            CoreError::Repair(e) => write!(f, "{e}"),
            CoreError::Datalog(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<relalg::RelalgError> for CoreError {
    fn from(e: relalg::RelalgError) -> Self {
        CoreError::Relalg(e)
    }
}

impl From<constraints::ConstraintError> for CoreError {
    fn from(e: constraints::ConstraintError) -> Self {
        CoreError::Constraint(e)
    }
}

impl From<repair::RepairError> for CoreError {
    fn from(e: repair::RepairError) -> Self {
        CoreError::Repair(e)
    }
}

impl From<datalog::DatalogError> for CoreError {
    fn from(e: datalog::DatalogError) -> Self {
        CoreError::Datalog(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offending_names() {
        assert!(CoreError::DuplicatePeer("P1".into())
            .to_string()
            .contains("P1"));
        assert!(CoreError::UnknownPeer("P9".into())
            .to_string()
            .contains("P9"));
        assert!(CoreError::Unsupported("negated query atoms".into())
            .to_string()
            .contains("negated"));
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let e: CoreError = relalg::RelalgError::UnknownRelation("R".into()).into();
        assert!(matches!(e, CoreError::Relalg(_)));
        let e: CoreError = datalog::DatalogError::UnsafeRule("p(X).".into()).into();
        assert!(matches!(e, CoreError::Datalog(_)));
    }
}
