//! # datalog — a disjunctive datalog / answer set programming engine
//!
//! The paper specifies a peer's solutions as the stable models of a
//! disjunctive logic program with default negation, classical negation and
//! the `choice` operator (Sections 3 and 4), and computes peer consistent
//! answers by skeptical (cautious) reasoning over those models. The authors
//! use the DLV system for this; DLV is closed-source and external, so this
//! crate provides the required engine natively in Rust:
//!
//! * [`syntax`] — terms, atoms (with classical negation), default-negated
//!   literals, built-ins, choice atoms, disjunctive rules and programs;
//! * [`choice`] — unfolding of `choice((x̄),(w̄))` into its *stable version*
//!   (`chosen`/`diffchoice` rules), as done in the paper's appendix;
//! * [`ground`] — safety checking and intelligent grounding;
//! * [`facts`] — ground facts as tables of caller ids, the grounder's
//!   fact input beside a program's rules;
//! * [`relevance`] — magic-sets-style relevance analysis: prune a program to
//!   the slice that can influence a query before grounding it
//!   ([`ground::ground_relevant`]);
//! * [`incremental`] — delta-driven incremental re-grounding: keep the
//!   saturated possible-atom sets (with per-atom support counts) alive
//!   across base-fact updates and patch only the affected rules via
//!   semi-naive evaluation instead of re-grounding the slice;
//! * [`graph`] — dependency graphs, stratification and head-cycle-freeness;
//! * [`shift`] — the HCF disjunctive → normal shifting of Section 4.1;
//! * [`solve`](mod@solve) — stable-model enumeration (DPLL-style search with forward,
//!   support and unfounded-set propagation for normal programs; candidate
//!   enumeration plus reduct-minimality checking for non-HCF disjunctive
//!   programs);
//! * [`reason`] — cautious / brave consequences and query-predicate
//!   extraction.
//!
//! The engine handles exactly the program class the paper's generators emit
//! and is validated against every stable model listed in the paper.
//!
//! ## Example
//!
//! ```
//! use datalog::syntax::{Atom, BodyItem, Program, Rule};
//! use datalog::reason::AnswerSets;
//! use datalog::solve::SolverConfig;
//!
//! let mut program = Program::new();
//! program.add_fact(Atom::new("r1", &["a", "b"]));
//! // r1p(X, Y) :- r1(X, Y), not -r1p(X, Y).
//! program.add_rule(Rule::new(
//!     vec![Atom::new("r1p", &["X", "Y"])],
//!     vec![
//!         BodyItem::Pos(Atom::new("r1", &["X", "Y"])),
//!         BodyItem::Naf(Atom::new("r1p", &["X", "Y"]).strongly_negated()),
//!     ],
//! ));
//! let sets = AnswerSets::compute(&program, SolverConfig::default()).unwrap();
//! assert_eq!(sets.len(), 1);
//! assert_eq!(sets.cautious_tuples("r1p").len(), 1);
//! ```

#![warn(missing_docs)]

pub mod choice;
pub mod error;
pub mod facts;
pub mod graph;
pub mod ground;
pub mod incremental;
pub mod reason;
pub mod relevance;
mod seminaive;
pub mod shift;
pub mod solve;
pub mod syntax;

pub use error::DatalogError;
pub use facts::FactTable;
pub use graph::{NegationLoop, PredicateGraph};
pub use ground::{ground_relevant, GroundAtom, GroundProgram, Grounder};
pub use incremental::{IncrementalGround, PatchStats};
pub use reason::AnswerSets;
pub use relevance::{QuerySeed, RelevanceAnalysis};
pub use solve::{
    solve, solve_ground_recorded, solve_relevant_with, solve_with, SolveResult, SolverConfig,
};
pub use syntax::{Atom, BodyItem, Builtin, BuiltinOp, ChoiceAtom, Program, Rule, Term};
