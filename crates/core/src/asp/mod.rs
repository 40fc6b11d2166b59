//! Answer-set-programming specifications of a peer's solutions.
//!
//! The paper's second (and more general) mechanism for peer consistent query
//! answering specifies the solutions of a peer as the stable models of a
//! disjunctive logic program and answers queries by cautious reasoning over
//! those models (Sections 3 and 4). This module provides:
//!
//! * [`encode`] — conversions between relational values/tuples and logic
//!   program constants, fact generation and predicate-name conventions;
//! * `decode` — the id-native decode of solver models into a columnar
//!   core plus per-world deltas ([`AnnotatedSpec::columnar_worlds`],
//!   [`TransitiveSpec::columnar_worlds`]), the path the [`crate::engine`]
//!   answers through;
//! * [`annotated`] — the general *annotation-based* specification program
//!   (the style of Section 4.2 and the appendix, with `td`/`ta`/`fa`/`tss`
//!   annotations realized as predicate suffixes). This is the workhorse
//!   behind the [`crate::engine`] ASP strategies and the benchmarks;
//! * [`paper`] — the verbatim programs listed in the paper (the Section 3.1
//!   GAV choice program, the appendix LAV program and the Example 4 combined
//!   program), used to validate the answer-set engine against every stable
//!   model the paper reports;
//! * [`transitive`] — composition of per-peer annotated programs into the
//!   global programs of Section 4.3.

pub mod annotated;
pub(crate) mod decode;
pub mod encode;
pub mod paper;
pub mod transitive;

pub use annotated::{annotated_program, annotated_program_with, AnnotatedSpec};
pub use transitive::{transitive_program, transitive_program_with, TransitiveSpec};
