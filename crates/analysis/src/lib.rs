//! # pdes-analyze — static diagnostics over peer specifications
//!
//! The user-facing surface of the static analyzer that lives in
//! [`pdes_core::analyze`] (re-exported here in full): load a system from a
//! `.pds` file, a DSL string, or a synthetic [`WorkloadSpec`], run every
//! analysis pass, and get a [`Report`] of [`Diagnostic`]s with stable codes.
//!
//! ## Diagnostic codes
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | `PDES-A000` | error | specification file does not parse |
//! | `PDES-A001` | error | constraint references an undeclared relation |
//! | `PDES-A002` | error | constraint arity differs from the declared schema |
//! | `PDES-A003` | error | unsafe constraint (empty body / unbound variable) |
//! | `PDES-A004` | error | unsafe rule in a specification program |
//! | `PDES-A005` | warning | constraint mentions a non-endpoint peer's relation |
//! | `PDES-A006` | error | specification program generation failed |
//! | `PDES-A101` | warning | odd negative loop in a specification program |
//! | `PDES-A102` | info | program not stratified (even loops only) |
//! | `PDES-A103` | warning | complementary classically-negated facts |
//! | `PDES-A104` | info | not head-cycle-free at the predicate level |
//! | `PDES-A201` | warning | cycle in the DEC network |
//! | `PDES-A202` | info | peer participates in no DEC |
//! | `PDES-A203` | warning | peer declares no relations |
//! | `PDES-A204` | warning | trust entry between peers that share no DEC |
//! | `PDES-A205` | warning | asymmetric (or mutually deferring) trust |
//! | `PDES-A206` | warning | DEC without a matching trust declaration |
//! | `PDES-A207` | info | undirected DEC graph is one component spanning all peers |
//! | `PDES-A301` | info | not rewritable: peer has local ICs |
//! | `PDES-A302` | info | not rewritable: less-trusted DEC is not a full inclusion |
//! | `PDES-A303` | info | not rewritable: same-trusted DEC is not key agreement |
//! | `PDES-A304` | — | `Auto` fell back to ASP for the *query* (per answer only) |
//!
//! ## The `pdes-lint` CLI
//!
//! ```text
//! pdes-lint FILE.pds …            lint specification files
//! pdes-lint --all-examples        lint every .pds under examples/specs/
//! pdes-lint --workload-matrix     lint the generated workload matrix
//! pdes-lint --deny-warnings …     exit non-zero on warnings too
//! ```
//!
//! Exit status: `0` clean, `1` diagnostics at the denied severity, `2`
//! usage or I/O error.

#![warn(missing_docs)]

pub use pdes_core::analyze::{
    check_constraint, check_program, classify_rewritability, code_for_error, codes, Diagnostic,
    Location, Report, RewriteVerdict, Severity,
};
use pdes_core::system::P2PSystem;
use workload::{generate, Topology, TrustMix, WorkloadSpec};

/// Run every static-analysis pass over an already-constructed system
/// (thin alias for [`P2PSystem::analyze`], so CLI and library callers read
/// the same way).
pub fn lint_system(system: &P2PSystem) -> Report {
    system.analyze()
}

/// Parse a `.pds` document and analyze the resulting system. Parse failures
/// become a single error diagnostic — under the construction-time code of
/// the underlying finding when there is one ([`DslError::code`]), under
/// [`codes::PARSE`] otherwise — so `pdes-lint` reports eager-validation
/// failures and batch-analysis findings uniformly.
///
/// The library entry point behind `pdes-lint FILE.pds`:
///
/// ```
/// use pdes_analyze::lint_source;
///
/// let report = lint_source(
///     "peer P0\n\
///      peer P1\n\
///      relation P0 T0(k, v)\n\
///      relation P1 T1(k, v)\n\
///      fact T1(1, a)\n\
///      trust P0 less P1\n\
///      dec d01 P0 P1: T1(X, Y) -> T0(X, Y)\n",
/// );
/// assert!(report.is_clean());
///
/// let broken = lint_source("peer P0\nfact Ghost(1)\n");
/// assert!(broken.error_count() > 0);
/// ```
///
/// [`DslError::code`]: dsl::DslError
pub fn lint_source(source: &str) -> Report {
    match dsl::parse(source) {
        Ok(parsed) => parsed.system.analyze(),
        Err(e) => Report::from_diagnostics(vec![Diagnostic {
            code: e.code.unwrap_or(codes::PARSE),
            severity: Severity::Error,
            location: Location::System,
            message: e.to_string(),
            payload: vec![("line".into(), e.line.to_string())],
        }]),
    }
}

/// Generate a synthetic workload and analyze its system. Generation
/// failures (malformed specs) become a single [`codes::SPEC_GENERATION`]
/// error diagnostic.
pub fn lint_workload(spec: &WorkloadSpec) -> Report {
    match generate(spec) {
        Ok(generated) => generated.system.analyze(),
        Err(e) => Report::from_diagnostics(vec![Diagnostic {
            code: codes::SPEC_GENERATION,
            severity: Severity::Error,
            location: Location::System,
            message: format!("workload generation failed: {e}"),
            payload: Vec::new(),
        }]),
    }
}

/// The deterministic workload matrix `pdes-lint --workload-matrix` (and CI)
/// lints: every topology × trust mix, with and without key-agreement DECs,
/// at two sizes. Every spec in the matrix must analyze error-free.
pub fn workload_matrix() -> Vec<WorkloadSpec> {
    let mut specs = Vec::new();
    for topology in [Topology::Star, Topology::Chain] {
        for trust_mix in [TrustMix::AllLess, TrustMix::AllSame, TrustMix::Mixed] {
            for key_constraint_percent in [0, 100] {
                for peers in [2, 4] {
                    specs.push(WorkloadSpec {
                        peers,
                        tuples_per_relation: 8,
                        violations_per_dec: 1,
                        topology,
                        trust_mix,
                        key_constraint_percent,
                        seed: 7,
                    });
                }
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_reports_parse_failures_under_a000() {
        let report = lint_source("peer\n");
        assert_eq!(report.error_count(), 1);
        assert!(report.has_code(codes::PARSE));
    }

    #[test]
    fn lint_source_reports_eager_validation_under_the_analyzer_code() {
        let report = lint_source(
            "peer P1\npeer P2\nrelation P1 R1(x, y)\nrelation P2 R2(x, y)\n\
             trust P1 less P2\ndec d P1 P2: R2(X, Y, Z) -> R1(X, Y)\n",
        );
        assert!(
            report.has_code(codes::ARITY_MISMATCH),
            "{}",
            report.render()
        );
    }

    #[test]
    fn workload_matrix_is_clean() {
        for spec in workload_matrix() {
            let report = lint_workload(&spec);
            assert!(
                report.is_clean(),
                "workload {spec} has errors:\n{}",
                report.render()
            );
        }
    }
}
