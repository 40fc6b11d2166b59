//! # pdes-core — peer-to-peer data exchange systems
//!
//! A faithful implementation of *Bertossi & Bravo, "Query Answering in
//! Peer-to-Peer Data Exchange Systems" (EDBT 2004 workshops)*:
//!
//! * [`system`] — the framework of Definition 2: peers, schemas, instances,
//!   local integrity constraints, data exchange constraints (DECs) and the
//!   trust relation;
//! * [`solution`] — the solutions of a peer (Definition 4, direct case) as
//!   two-stage minimal repairs of the global instance;
//! * [`pca`] — peer-consistent-answer helpers (the semantics of
//!   Definition 5 itself is served by [`engine::Strategy::Naive`]);
//! * [`rewriting`] — the first-order query rewriting mechanism of Example 2
//!   for inclusion + key-agreement DECs;
//! * [`asp`] — answer-set-programming specifications of the solutions: the
//!   annotation-based generator (Section 4.2 / appendix style), the paper's
//!   verbatim programs, and the transitive composition of Section 4.3;
//! * [`engine`] — the unified [`engine::QueryEngine`] facade serving every
//!   mechanism, with per-slice memoization and relevance-driven grounding;
//! * [`store`] — the [`store::PeerStore`] trait through which the engine and
//!   every other layer reach peer state, with
//!   [`store::InProcessStore`] as its implementation.
//!
//! ## Quickstart
//!
//! All four mechanisms are served by one facade, [`engine::QueryEngine`]:
//!
//! ```
//! use pdes_core::engine::{QueryEngine, Strategy};
//! use pdes_core::pca::vars;
//! use pdes_core::system::{example1_system, PeerId};
//! use relalg::query::Formula;
//!
//! let engine = QueryEngine::builder(example1_system())
//!     .strategy(Strategy::Auto)
//!     .build();
//! let query = Formula::atom("R1", vec!["X", "Y"]);
//! let answers = engine
//!     .answer(&PeerId::new("P1"), &query, &vars(&["X", "Y"]))
//!     .unwrap();
//! assert_eq!(answers.len(), 3); // (a,b), (c,d), (a,e)
//! ```

pub mod analyze;
pub mod asp;
mod cache;
pub mod engine;
pub mod error;
pub mod pca;
pub mod rewriting;
pub mod solution;
pub mod store;
pub mod system;

pub use analyze::{classify_rewritability, Diagnostic, Location, Report, RewriteVerdict, Severity};
pub use engine::{
    Answers, CacheMetrics, EngineStats, Provenance, Query, QueryEngine, QueryEngineBuilder,
    Strategy, StrategyKind,
};
pub use error::CoreError;
pub use rewriting::rewrite_query;
pub use solution::{solutions_for, Solution, SolutionOptions, SolutionStats};
pub use store::{InProcessStore, MvccStats, PeerStore, Snapshot, VersionMap};
pub use system::{example1_system, Dec, P2PSystem, Peer, PeerId, TrustLevel, TrustRelation};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, CoreError>;
