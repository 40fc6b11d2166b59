//! # pdes-bench — benchmark harness
//!
//! Reproduction harness for the experiment tables B1–B7 listed in DESIGN.md.
//! The paper contains no measurements of its own (it is a semantics paper),
//! so these experiments characterize the behaviour of the mechanisms it
//! defines: query rewriting vs. the answer-set specification vs. naive
//! solution enumeration, the head-cycle-free shifting optimization, the
//! transitive (global) semantics and the single-database CQA baseline.
//!
//! `cargo run -p pdes-bench --release --bin harness` prints every table.
//!
//! Table B8 ([`live`]) measures sustained query throughput under a mutation
//! stream: cold engines vs. full cache flushes vs. the engine's incremental
//! closure-based invalidation.
//!
//! Table B11 ([`live`], [`experiments::table_b11`]) extends B8 with the
//! delta-driven incremental re-grounding comparison: closure-based
//! invalidation (drop + full slice re-ground) vs. patching stale artifacts
//! ([`datalog::incremental`]), with the warm-after-commit re-derived-rule
//! counters the smoke gate tracks exactly.
//!
//! Table B9 ([`parallel`]) measures batched answering over closure-disjoint
//! clusters at increasing worker counts, and [`smoke`] packages a small
//! fixed workload into the `BENCH_smoke.json` artifact behind the CI
//! perf-smoke gate (`cargo run --release -p pdes-bench --bin harness --
//! --smoke`).
//!
//! Table B10 ([`grounding`]) compares the legacy full grounding against the
//! relevance-pruned grounding ([`datalog::relevance`]) on star workloads of
//! increasing peer count; the smoke gate additionally tracks exact
//! grounded-rule/atom counters so grounding blow-ups fail CI
//! deterministically.
//!
//! Table B12 ([`obs`]) decomposes query latency per engine phase: a
//! [`pdes_obs::TraceRecorder`] on the workload engine feeds every span into
//! the shared histogram registry, and the table reports per-label count /
//! p50 / p99 — the same machinery behind the B8/B11 percentile columns and
//! the smoke gate's exact `trace_span_count` / `trace_event_count`
//! counters.
//!
//! Table B13 ([`sharding`]) measures the peer-sharded serving runtime:
//! closure-fetch, full-snapshot and end-to-end cold-query latency against a
//! [`pdes_store::ShardedStore`] over disjoint DEC chains, at shard counts
//! 1/2/4, with the store's `local`/`remote` traffic split alongside; the
//! smoke gate pins exact `shard_local_queries` / `shard_remote_queries`
//! counts and hard-errors if the sharded answers diverge from the
//! single-store oracle.
//!
//! Table B14 ([`mvcc`]) measures reader latency and throughput under a
//! sustained writer: a closed loop of reader threads over cloned
//! `ReadHandle`s, the single `Writer` committing back to back, p50/p99
//! reader latency and aggregate queries/second alongside the store's
//! epoch-publish and snapshot-pin counters; the smoke gate tracks
//! `reader_qps_under_writes` (gated *downward* — losing half the
//! throughput under writes fails CI) plus exact `mvcc_epochs_published` /
//! `snapshot_pins` counts.

pub mod experiments;
pub mod grounding;
pub mod live;
pub mod mvcc;
pub mod obs;
pub mod parallel;
pub mod runners;
pub mod sharding;
pub mod smoke;

pub use grounding::{render_grounding_table, GroundingMeasurement};
pub use live::{render_incremental_table, render_live_table, LiveMeasurement, LiveMode};
pub use mvcc::{render_mvcc_table, MvccMeasurement};
pub use obs::{render_obs_table, ObsMeasurement};
pub use parallel::{render_parallel_table, ParallelMeasurement};
pub use runners::{render_table, Measurement};
pub use sharding::{render_shard_table, ShardMeasurement};
pub use smoke::{run_smoke, run_smoke_traced, SmokeReport};
