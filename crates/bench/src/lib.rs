//! # pdes-bench — the perf-smoke gate
//!
//! [`smoke`] runs a small fixed workload and writes the `BENCH_smoke.json`
//! artifact behind the CI perf-smoke gate (`cargo run --release -p
//! pdes-bench --bin harness -- --smoke`). Its exact counters — grounded
//! rules and atoms, solver branch nodes, re-derived rules after a commit,
//! cache bytes and evictions, trace spans, MVCC pins — are the
//! deterministic regression signal; end-to-end timings belong to the
//! repository benchmark in `perfbench/`.
//!
//! The other modules are what the gate drives:
//!
//! * [`parallel`] — batched answering over closure-disjoint clusters;
//! * [`live`] — query throughput under a mutation stream;
//! * [`mvcc`] — closed-loop readers under a sustained writer;
//! * [`reference`](mod@reference) — the full-program reference for the
//!   engine's certain answers, shared with the integration tests.

pub mod live;
pub mod mvcc;
pub mod parallel;
pub mod reference;
pub mod smoke;

pub use smoke::{run_smoke, run_smoke_traced, SmokeReport};
