//! # p2p-data-exchange
//!
//! Umbrella crate for the reproduction of *Bertossi & Bravo, "Query Answering
//! in Peer-to-Peer Data Exchange Systems" (EDBT 2004 workshops)*. It
//! re-exports the workspace crates so that examples, integration tests and
//! downstream users can depend on a single package:
//!
//! * [`relalg`] — relational substrate (values, instances, first-order
//!   queries, the Δ of Definition 1);
//! * [`constraints`] — integrity and data exchange constraints;
//! * [`repair`] — minimal-change repairs;
//! * [`datalog`] — the disjunctive answer-set engine (choice operator, HCF
//!   shifting, cautious reasoning);
//! * [`core`] — the paper's contribution: P2P systems, trust,
//!   solutions, peer consistent answers, rewriting and ASP specifications,
//!   and the [`PeerStore`] trait every layer reads peer state through, with
//!   [`InProcessStore`] as its implementation;
//! * [`dsl`] — a textual format for systems and queries;
//! * [`workload`] — synthetic workload and update-stream generation for the
//!   benchmarks;
//! * [`session`] — live, versioned systems: snapshot-isolated `&self`
//!   reads over MVCC epochs (cloneable [`ReadHandle`]s), a single
//!   [`Writer`] handle owning `Tx`/commit updates validated against local
//!   ICs, an update log with snapshot replay, and incremental invalidation
//!   of the engine's memoized artifacts (stale grounded slices are
//!   *patched* on the committing thread by `datalog::incremental` rather
//!   than re-ground);
//! * [`exec`] — the dependency-free scoped thread-pool executor behind the
//!   engine's batched/parallel answering;
//! * [`obs`] — the dependency-free tracing + metrics subsystem: the
//!   [`Recorder`] sink every layer reports spans and counters to, the
//!   [`TraceRecorder`] with Chrome-trace / text-profile / Prometheus
//!   exporters, and the shared fixed-bucket [`Histogram`];
//! * [`analysis`] — static diagnostics over peer specifications
//!   (stable-coded [`Diagnostic`]s, the `Strategy::Auto` explanation, and
//!   the `pdes-lint` CLI).
//!
//! See `README.md` for a tour and `examples/` for runnable scenarios.

pub use constraints;
pub use datalog;
pub use dsl;
pub use pdes_analyze as analysis;
pub use pdes_core as core;
pub use pdes_exec as exec;
pub use pdes_obs as obs;
pub use pdes_session as session;
pub use relalg;
pub use repair;
pub use workload;

// Flat re-exports so a quickstart needs only `use p2p_data_exchange::…`:
// the engine facade, the system vocabulary, query building blocks and the
// solver/repair knobs.
pub use datalog::SolverConfig;
pub use pdes_analyze::{Diagnostic, Report, Severity};
pub use pdes_core::engine::{
    Answers, EngineStats, Provenance, Query, QueryEngine, QueryEngineBuilder, Strategy,
    StrategyKind,
};
pub use pdes_core::pca::vars;
pub use pdes_core::{
    CacheMetrics, InProcessStore, MvccStats, P2PSystem, Peer, PeerId, PeerStore, Snapshot,
    SolutionOptions, TrustLevel, VersionMap,
};
pub use pdes_exec::{ExecConfig, Executor};
pub use pdes_obs::{
    Histogram, HistogramSummary, MetricsRegistry, NullRecorder, Recorder, Span, TraceRecorder,
};
pub use pdes_session::{ReadHandle, Session, Tx, Update, Version, Writer};
pub use relalg::query::Formula;
pub use relalg::Tuple;

/// The canonical Example 1 system of the paper, re-exported for convenience.
pub fn example1_system() -> pdes_core::P2PSystem {
    pdes_core::example1_system()
}

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_are_usable() {
        let system = super::example1_system();
        assert_eq!(system.peer_count(), 3);
    }
}
