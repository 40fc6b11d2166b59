//! The CI perf-smoke gate: a small fixed workload, a flat JSON metrics
//! report (`BENCH_smoke.json`), and a >2x-regression comparison against the
//! committed baseline in `crates/bench/baselines/`.
//!
//! The report format is deliberately tiny — a flat `"name": number` map —
//! written and parsed by hand (the workspace's vendored `serde` is a no-op
//! stub), so the gate has zero dependencies and the artifact stays
//! greppable:
//!
//! ```json
//! {
//!   "schema": "pdes-bench-smoke/v1",
//!   "metrics": {
//!     "batch_asp_w1_ms": 12.345,
//!     "batch_asp_w4_ms": 5.678
//!   }
//! }
//! ```
//!
//! Metrics come in three kinds, distinguished by name: `*_ms` metrics are
//! wall-clock timings (lower is better; the gate fails when one exceeds
//! twice its baseline), metrics with `_qps` in the name are throughputs
//! (higher is better; the gate fails when one drops below half its
//! baseline), every other
//! metric is a *count* (answers, worlds) and must match the baseline
//! **exactly** — an output-count drift in
//! either direction is a behaviour change, not a perf result. Metrics added
//! since the baseline was recorded pass with a note (commit a refreshed
//! baseline alongside the change that adds them). Timings are sized to tens
//! of milliseconds so scheduler jitter on shared CI runners stays well
//! inside the 2x margin.

use crate::live::run_live;
use crate::parallel::{cluster_batch, cluster_system, run_batch};
use crate::reference::{full_grounding, reference_answers};
use pdes_core::engine::Strategy;
use pdes_obs::{NullRecorder, TraceRecorder};
use relalg::query::Formula;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use workload::{generate, generate_updates, Topology, TrustMix, UpdateSpec, WorkloadSpec};

/// Allowed slow-down before the gate fails (the "regresses >2x" rule).
pub const REGRESSION_FACTOR: f64 = 2.0;

/// The flat metrics report of one smoke run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SmokeReport {
    /// `(metric name, value)` pairs, in a stable order. All lower-is-better.
    pub metrics: Vec<(String, f64)>,
}

impl SmokeReport {
    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Render the report as the `BENCH_smoke.json` artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"pdes-bench-smoke/v1\",\n  \"metrics\": {\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 == self.metrics.len() { "" } else { "," };
            out.push_str(&format!("    \"{name}\": {value:.3}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse a report previously written by [`SmokeReport::to_json`] (or
    /// hand-edited to the same flat shape). Only the `"metrics"` object is
    /// read; unknown surrounding keys are ignored.
    pub fn from_json(text: &str) -> Result<SmokeReport, String> {
        let metrics_at = text
            .find("\"metrics\"")
            .ok_or_else(|| "no \"metrics\" object in baseline".to_string())?;
        let body = &text[metrics_at..];
        let open = body
            .find('{')
            .ok_or_else(|| "malformed \"metrics\" object".to_string())?;
        let close = body[open..]
            .find('}')
            .ok_or_else(|| "unterminated \"metrics\" object".to_string())?;
        let inner = &body[open + 1..open + close];
        let mut metrics = Vec::new();
        for entry in inner.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (raw_name, raw_value) = entry
                .split_once(':')
                .ok_or_else(|| format!("malformed metric entry `{entry}`"))?;
            let name = raw_name.trim().trim_matches('"').to_string();
            let value: f64 = raw_value
                .trim()
                .parse()
                .map_err(|e| format!("metric `{name}`: {e}"))?;
            metrics.push((name, value));
        }
        Ok(SmokeReport { metrics })
    }

    /// Compare this run against a baseline. Timing metrics (`*_ms`) must
    /// stay under `baseline * REGRESSION_FACTOR` (with a small absolute
    /// floor so a rounded-to-zero baseline cannot fail every future run);
    /// throughput metrics (`_qps` in the name, higher is better) must stay *above*
    /// `baseline / REGRESSION_FACTOR`; every other metric is a *count* and
    /// must match the baseline exactly — fewer answers than the baseline is
    /// a correctness bug, not a perf win. Returns the human-readable
    /// verdict lines and whether the gate passes.
    pub fn compare(&self, baseline: &SmokeReport) -> (Vec<String>, bool) {
        /// Timing floor in milliseconds: baselines below it compare as if
        /// they were this large, so sub-rounding measurements never brick
        /// the gate.
        const FLOOR_MS: f64 = 0.01;
        let mut lines = Vec::new();
        let mut pass = true;
        for (name, base) in &baseline.metrics {
            match self.get(name) {
                None => {
                    pass = false;
                    lines.push(format!("FAIL {name}: tracked in baseline but not reported"));
                }
                Some(current) if name.ends_with("_ms") => {
                    let allowed = base.max(FLOOR_MS) * REGRESSION_FACTOR;
                    if current > allowed {
                        pass = false;
                        lines.push(format!(
                            "FAIL {name}: {current:.3} > {REGRESSION_FACTOR}x baseline {base:.3}"
                        ));
                    } else {
                        lines.push(format!("ok   {name}: {current:.3} (baseline {base:.3})"));
                    }
                }
                Some(current) if name.contains("_qps") => {
                    // Throughput: gate the *downward* direction only — a
                    // faster run is a win, losing more than half the
                    // baseline throughput is a concurrency regression.
                    let required = base / REGRESSION_FACTOR;
                    if current < required {
                        pass = false;
                        lines.push(format!(
                            "FAIL {name}: {current:.3} < baseline {base:.3} / {REGRESSION_FACTOR}"
                        ));
                    } else {
                        lines.push(format!("ok   {name}: {current:.3} (baseline {base:.3})"));
                    }
                }
                Some(current) => {
                    // Count metric: any drift (up or down) is a behaviour
                    // change that needs investigation + a refreshed baseline.
                    if current == *base {
                        lines.push(format!("ok   {name}: {current:.3} (exact)"));
                    } else {
                        pass = false;
                        lines.push(format!(
                            "FAIL {name}: count changed, {current:.3} != baseline {base:.3}"
                        ));
                    }
                }
            }
        }
        for (name, value) in &self.metrics {
            if baseline.get(name).is_none() {
                lines.push(format!(
                    "note {name}: {value:.3} (untracked — refresh the baseline)"
                ));
            }
        }
        (lines, pass)
    }
}

/// Run the fixed smoke workload and collect the tracked metrics. Small by
/// construction (a couple of seconds end to end) so the CI job stays cheap;
/// big enough that a pathological slow-down in grounding, solving, batching
/// or invalidation moves a metric well past 2x.
pub fn run_smoke() -> Result<SmokeReport, String> {
    run_smoke_traced().map(|(report, _)| report)
}

/// [`run_smoke`], additionally returning the Chrome trace-event JSON of the
/// traced sub-workload (the artifact `harness --smoke --trace PATH` writes
/// and CI uploads).
pub fn run_smoke_traced() -> Result<(SmokeReport, String), String> {
    let mut metrics = Vec::new();

    // Batched answering over disjoint clusters, sequential vs. pooled.
    let system = cluster_system(4, 12, 5);
    let batch = cluster_batch(4, 3);
    let w1 =
        run_batch(&system, &batch, Strategy::Asp, 1).ok_or("smoke batch failed at 1 worker")?;
    let w4 =
        run_batch(&system, &batch, Strategy::Asp, 4).ok_or("smoke batch failed at 4 workers")?;
    if (w1.answers, w1.worlds, w1.grounded_rules) != (w4.answers, w4.worlds, w4.grounded_rules) {
        return Err(format!(
            "parallel batch diverged from sequential: {}/{}/{} vs {}/{}/{} \
             answers/worlds/grounded-rules",
            w1.answers, w1.worlds, w1.grounded_rules, w4.answers, w4.worlds, w4.grounded_rules
        ));
    }
    metrics.push(("batch_asp_w1_ms".to_string(), w1.millis));
    metrics.push(("batch_asp_w4_ms".to_string(), w4.millis));
    metrics.push(("batch_answers".to_string(), w1.answers as f64));
    metrics.push(("batch_worlds".to_string(), w1.worlds as f64));
    // Grounding-size counter: exact-match in the gate, so a grounding
    // blow-up (or an unsound over-prune) fails CI deterministically even on
    // single-core runners where the timing gates are mushy.
    metrics.push(("batch_grounded_rules".to_string(), w1.grounded_rules as f64));
    // The solver's search tree over the same batch on one cold engine,
    // pinned exactly: a solver change that keeps the answers but explores a
    // different tree (another propagation closure or branching order) fails
    // the gate.
    let solver_recorder = Arc::new(TraceRecorder::new());
    let solver_engine = pdes_core::engine::QueryEngine::builder(system.clone())
        .strategy(Strategy::Asp)
        .recorder(solver_recorder.clone())
        .build();
    let mut answers = 0;
    for result in solver_engine.answer_batch(&batch) {
        answers += result.map_err(|e| e.to_string())?.len();
    }
    if answers != w1.answers {
        return Err("the traced batch diverged from the untraced one".to_string());
    }
    metrics.push((
        "asp_branch_nodes".to_string(),
        solver_recorder
            .registry()
            .counter_value("solver.branch_nodes") as f64,
    ));

    // Plan fallbacks, pinned exactly: Example 1's rewritings of a scan, a
    // projection and a self-join (guarded universals, nested negation, ∧
    // over ∨) must all run on the columnar plan, not the evaluator.
    let plan_recorder = Arc::new(TraceRecorder::new());
    let plan_engine = pdes_core::engine::QueryEngine::builder(pdes_core::example1_system())
        .strategy(Strategy::Auto)
        .recorder(plan_recorder.clone())
        .build();
    let p1 = pdes_core::PeerId::new("P1");
    let scan = Formula::atom("R1", vec!["X", "Y"]);
    for (query, free) in [
        (scan.clone(), vec!["X", "Y"]),
        (Formula::exists(vec!["Y"], scan.clone()), vec!["X"]),
        (
            Formula::and(vec![scan, Formula::atom("R1", vec!["X", "Z"])]),
            vec!["X", "Y", "Z"],
        ),
    ] {
        let _ = plan_engine
            .answer(&p1, &query, &pdes_core::pca::vars(&free))
            .map_err(|e| e.to_string())?;
    }
    metrics.push((
        "cq_fallbacks".to_string(),
        plan_recorder.registry().counter_value("cq.fallback") as f64,
    ));

    // Cold + warm single-query latency on the canonical generated workload.
    let w = generate(&WorkloadSpec {
        peers: 2,
        tuples_per_relation: 20,
        violations_per_dec: 2,
        trust_mix: TrustMix::AllLess,
        ..WorkloadSpec::default()
    })
    .map_err(|e| e.to_string())?;
    // Repetition counts are sized so each metric lands in the tens of
    // milliseconds — large enough that CI scheduler jitter stays well
    // inside the 2x regression margin.
    let asp_engine = || {
        pdes_core::engine::QueryEngine::builder(w.system.clone())
            .strategy(Strategy::Asp)
            .build()
    };
    let start = Instant::now();
    let mut cold_tuples = None;
    for _ in 0..10 {
        let engine = asp_engine();
        let cold = engine
            .answer(&w.queried_peer, &w.query, &w.free_vars)
            .map_err(|e| e.to_string())?;
        cold_tuples = Some((cold.tuples, cold.stats));
    }
    metrics.push((
        "asp_cold10_ms".to_string(),
        start.elapsed().as_secs_f64() * 1e3,
    ));
    let (cold_tuples, cold_stats) = cold_tuples.expect("ten cold runs");
    // Per-scenario grounding counters (exact-match in the gate), plus the
    // full-program reference: the pruned answers must equal the unpruned
    // specification's, and relevance pruning must instantiate strictly fewer
    // rules than grounding the whole program — a structural regression here
    // is a hard failure, not a perf note.
    metrics.push((
        "asp_grounded_rules".to_string(),
        cold_stats.grounded_rules as f64,
    ));
    metrics.push((
        "asp_grounded_atoms".to_string(),
        cold_stats.grounded_atoms as f64,
    ));
    let full_answers = reference_answers(
        &w.system,
        Strategy::Asp,
        &w.queried_peer,
        &w.query,
        &w.free_vars,
    )
    .ok_or("the full-program reference failed")?;
    if full_answers != cold_tuples {
        return Err("the full program's answers diverged from the pruned ones".to_string());
    }
    let full = full_grounding(&w.system, Strategy::Asp, &w.queried_peer)
        .ok_or("the full program failed to ground")?;
    if cold_stats.grounded_rules >= full.rule_count() {
        return Err(format!(
            "relevance pruning did not shrink the grounding: pruned {} >= full {}",
            cold_stats.grounded_rules,
            full.rule_count()
        ));
    }
    metrics.push((
        "asp_full_grounded_rules".to_string(),
        full.rule_count() as f64,
    ));
    metrics.push((
        "asp_full_grounded_atoms".to_string(),
        full.atom_count() as f64,
    ));
    let engine = asp_engine();
    let _ = engine
        .answer(&w.queried_peer, &w.query, &w.free_vars)
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    for _ in 0..500 {
        let warm = engine
            .answer(&w.queried_peer, &w.query, &w.free_vars)
            .map_err(|e| e.to_string())?;
        if warm.tuples != cold_tuples {
            return Err("warm answers diverged from cold".to_string());
        }
    }
    metrics.push((
        "asp_warm500_ms".to_string(),
        start.elapsed().as_secs_f64() * 1e3,
    ));

    // Resident bytes of the warm engine's cache (exact interned columnar
    // sizes) and the store's symbol count: both exact-match metrics.
    let symbols = engine.store().symbols().len();
    if symbols == 0 {
        return Err("the store interned no symbols on the smoke workload".to_string());
    }
    metrics.push((
        "interned_cached_bytes".to_string(),
        engine.cached_bytes() as f64,
    ));
    metrics.push(("interned_symbols".to_string(), symbols as f64));

    // Observability overhead + exact trace-shape counters. First the
    // NullRecorder control: an engine with the default (null) recorder
    // explicitly installed must stay within the ordinary 2x timing budget —
    // a hot-path instrumentation regression shows up here even if the
    // engine's own defaults change.
    let null_engine = pdes_core::engine::QueryEngine::builder(w.system.clone())
        .strategy(Strategy::Asp)
        .recorder(Arc::new(NullRecorder))
        .build();
    let _ = null_engine
        .answer(&w.queried_peer, &w.query, &w.free_vars)
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    for _ in 0..500 {
        let warm = null_engine
            .answer(&w.queried_peer, &w.query, &w.free_vars)
            .map_err(|e| e.to_string())?;
        if warm.tuples != cold_tuples {
            return Err("null-recorder warm answers diverged from cold".to_string());
        }
    }
    metrics.push((
        "obs_null_warm500_ms".to_string(),
        start.elapsed().as_secs_f64() * 1e3,
    ));
    // Then the traced run: a deterministic cold + 20-warm sequence on a
    // sequential engine. Span and event counts are *exact-match* metrics:
    // an instrumentation point added or removed anywhere on the query path
    // must come with a refreshed baseline.
    let trace_recorder = Arc::new(TraceRecorder::new());
    let traced_engine = pdes_core::engine::QueryEngine::builder(w.system.clone())
        .strategy(Strategy::Asp)
        .recorder(trace_recorder.clone())
        .build();
    for _ in 0..21 {
        let traced = traced_engine
            .answer(&w.queried_peer, &w.query, &w.free_vars)
            .map_err(|e| e.to_string())?;
        if traced.tuples != cold_tuples {
            return Err("traced answers diverged from cold".to_string());
        }
    }
    let trace = trace_recorder.trace();
    if trace.malformed() > 0 {
        return Err(format!(
            "trace has {} malformed span events",
            trace.malformed()
        ));
    }
    metrics.push(("trace_span_count".to_string(), trace.span_count() as f64));
    metrics.push(("trace_event_count".to_string(), trace.event_count() as f64));
    let trace_json = trace.chrome_json();

    // Live throughput under a mutation stream with incremental invalidation.
    let live_w = generate(&WorkloadSpec {
        peers: 4,
        tuples_per_relation: 10,
        violations_per_dec: 1,
        trust_mix: TrustMix::AllLess,
        topology: Topology::Star,
        ..WorkloadSpec::default()
    })
    .map_err(|e| e.to_string())?;
    let stream = generate_updates(
        &live_w,
        &UpdateSpec {
            batches: 16,
            batch_size: 2,
            ..UpdateSpec::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let live = run_live(&live_w, &stream, Strategy::Asp, 4).ok_or("smoke live run failed")?;
    metrics.push(("live_incremental_ms".to_string(), live.millis));

    // Incremental-commit counters: warm the star hub's slice, commit into a
    // leaf, and require the repaired preparation to re-derive strictly
    // fewer rules than the full slice — a patch that degenerates into a
    // full re-ground is a hard error, not a perf note.
    let engine = pdes_core::engine::QueryEngine::builder(live_w.system.clone())
        .strategy(Strategy::Asp)
        .build();
    let cold = engine
        .answer(&live_w.queried_peer, &live_w.query, &live_w.free_vars)
        .map_err(|e| e.to_string())?;
    let leaf = pdes_core::system::PeerId::new("P1");
    let delta = relalg::Delta::from_changes(
        [relalg::database::GroundAtom::new(
            "T1",
            relalg::Tuple::strs(["smoke_commit_k", "smoke_commit_v"]),
        )],
        [],
    );
    engine
        .commit(&BTreeMap::from([(leaf.clone(), delta.clone())]))
        .map_err(|e| e.to_string())?;
    let repaired = engine
        .answer(&live_w.queried_peer, &live_w.query, &live_w.free_vars)
        .map_err(|e| e.to_string())?;
    if !repaired.stats.cache_hit {
        return Err(
            "warm-after-commit query was not served from the repaired artifact".to_string(),
        );
    }
    if repaired.stats.regrounded_rules >= repaired.stats.grounded_rules {
        return Err(format!(
            "incremental re-ground did not beat the full slice: \
             re-derived {} >= slice {}",
            repaired.stats.regrounded_rules, repaired.stats.grounded_rules
        ));
    }
    // The committed tuple may or may not be certain under the repair
    // semantics; equality with a fresh engine over the mutated system is
    // the correctness bar.
    drop(cold);
    let fresh = pdes_core::engine::QueryEngine::builder(
        engine.snapshot_system().map_err(|e| e.to_string())?,
    )
    .strategy(Strategy::Asp)
    .build()
    .answer(&live_w.queried_peer, &live_w.query, &live_w.free_vars)
    .map_err(|e| e.to_string())?;
    if repaired.tuples != fresh.tuples {
        return Err("patched answers diverged from a fresh engine".to_string());
    }
    metrics.push((
        "warm_after_commit_regrounded_rules".to_string(),
        repaired.stats.regrounded_rules as f64,
    ));
    metrics.push((
        "warm_after_commit_slice_rules".to_string(),
        repaired.stats.grounded_rules as f64,
    ));
    // MVCC counters of the same fixed sequence (one cold preparation, one
    // commit, one warm read): exact-match in the gate, so a read path that
    // starts over- or under-pinning, or a commit path that stops
    // publishing epochs, fails CI deterministically.
    let mvcc = engine.mvcc_stats();
    if mvcc.publishes == 0 {
        return Err("the commit published no epoch".to_string());
    }
    metrics.push(("mvcc_epochs_published".to_string(), mvcc.publishes as f64));
    metrics.push(("snapshot_pins".to_string(), mvcc.pins as f64));

    // Eviction counters: the same workload under a deliberately tiny byte
    // budget must evict (and still answer every query — the equivalence is
    // asserted by the property tests; here the deterministic eviction count
    // is what the gate tracks).
    let bounded = pdes_core::engine::QueryEngine::builder(live_w.system.clone())
        .strategy(Strategy::Asp)
        .cache_capacity(20_000)
        .build();
    let fv = pdes_core::pca::vars(&["X", "Y"]);
    for _ in 0..2 {
        for peer in live_w
            .system
            .peers()
            .map(|p| p.id.clone())
            .collect::<Vec<_>>()
        {
            let relation = live_w
                .system
                .peer(&peer)
                .map_err(|e| e.to_string())?
                .schema
                .relation_names()
                .next()
                .ok_or("generated peer owns no relation")?
                .to_string();
            let query = relalg::query::Formula::atom(&relation, vec!["X", "Y"]);
            let _ = bounded
                .answer(&peer, &query, &fv)
                .map_err(|e| e.to_string())?;
        }
    }
    let evictions = bounded.metrics().evictions;
    if evictions == 0 {
        return Err("tiny cache budget produced no evictions".to_string());
    }
    metrics.push(("cache_evictions".to_string(), evictions as f64));

    // Closed-loop readers under a sustained writer at a fixed small
    // configuration: the throughput is gated *downward* in CI — a read path
    // that starts blocking on commits loses most of it.
    let under_writes =
        crate::mvcc::run_readers_under_writes(4, 150, 4).ok_or("reader-under-writes run failed")?;
    if under_writes.commits == 0 {
        return Err("the writer made no progress under the reader storm".to_string());
    }
    metrics.push((
        "reader_qps_under_writes".to_string(),
        under_writes.reader_qps,
    ));

    // Static-analyzer counters over the two smoke systems (exact-match in
    // the gate). Errors on a generated workload are a hard failure — the
    // generator must only ever produce analyzer-clean systems.
    let mut analyzer_errors = 0usize;
    let mut analyzer_warnings = 0usize;
    let mut analyzer_infos = 0usize;
    for (name, system) in [("asp", &w.system), ("live", &live_w.system)] {
        let report = system.analyze();
        if !report.is_clean() {
            return Err(format!(
                "smoke workload `{name}` has analyzer errors:\n{}",
                report.render()
            ));
        }
        analyzer_errors += report.error_count();
        analyzer_warnings += report.warning_count();
        analyzer_infos += report.count(pdes_core::analyze::Severity::Info);
    }
    metrics.push(("analyzer_errors".to_string(), analyzer_errors as f64));
    metrics.push(("analyzer_warnings".to_string(), analyzer_warnings as f64));
    metrics.push(("analyzer_infos".to_string(), analyzer_infos as f64));

    Ok((SmokeReport { metrics }, trace_json))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, f64)]) -> SmokeReport {
        SmokeReport {
            metrics: pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn json_round_trips() {
        let original = report(&[("a_ms", 12.5), ("b_count", 96.0)]);
        let parsed = SmokeReport::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed, report(&[("a_ms", 12.5), ("b_count", 96.0)]));
    }

    #[test]
    fn compare_flags_regressions_and_missing_metrics() {
        let baseline = report(&[("a_ms", 10.0), ("gone_ms", 1.0)]);
        let current = report(&[("a_ms", 25.0), ("new_ms", 3.0)]);
        let (lines, pass) = current.compare(&baseline);
        assert!(!pass);
        assert!(lines.iter().any(|l| l.starts_with("FAIL a_ms")));
        assert!(lines.iter().any(|l| l.starts_with("FAIL gone_ms")));
        assert!(lines.iter().any(|l| l.starts_with("note new_ms")));
    }

    #[test]
    fn compare_passes_within_the_factor() {
        let baseline = report(&[("a_ms", 10.0)]);
        let current = report(&[("a_ms", 19.9)]);
        let (_, pass) = current.compare(&baseline);
        assert!(pass);
    }

    #[test]
    fn count_metrics_require_exact_equality() {
        let baseline = report(&[("batch_answers", 84.0)]);
        // Fewer answers is a correctness bug, not a perf improvement.
        let (lines, pass) = report(&[("batch_answers", 10.0)]).compare(&baseline);
        assert!(!pass);
        assert!(lines.iter().any(|l| l.contains("count changed")));
        let (_, pass) = report(&[("batch_answers", 84.0)]).compare(&baseline);
        assert!(pass);
    }

    #[test]
    fn zero_timing_baselines_do_not_brick_the_gate() {
        // A baseline rounded down to 0.000 must still allow small positive
        // measurements (absolute floor), while catching real blow-ups.
        let baseline = report(&[("tiny_ms", 0.0)]);
        let (_, pass) = report(&[("tiny_ms", 0.015)]).compare(&baseline);
        assert!(pass);
        let (_, pass) = report(&[("tiny_ms", 5.0)]).compare(&baseline);
        assert!(!pass);
    }

    #[test]
    fn qps_metrics_gate_the_downward_direction_only() {
        let baseline = report(&[("reader_qps_under_writes", 1000.0)]);
        // Faster is fine, even far beyond 2x.
        let (_, pass) = report(&[("reader_qps_under_writes", 5000.0)]).compare(&baseline);
        assert!(pass);
        // Hovering just above half the baseline still passes…
        let (_, pass) = report(&[("reader_qps_under_writes", 501.0)]).compare(&baseline);
        assert!(pass);
        // …but losing more than half the throughput fails.
        let (lines, pass) = report(&[("reader_qps_under_writes", 499.0)]).compare(&baseline);
        assert!(!pass);
        assert!(lines.iter().any(|l| l.starts_with("FAIL")));
    }

    #[test]
    fn smoke_run_reports_every_tracked_metric() {
        let smoke = run_smoke().unwrap();
        for name in [
            "batch_asp_w1_ms",
            "batch_asp_w4_ms",
            "batch_answers",
            "batch_worlds",
            "batch_grounded_rules",
            "asp_cold10_ms",
            "asp_warm500_ms",
            "interned_cached_bytes",
            "interned_symbols",
            "obs_null_warm500_ms",
            "trace_span_count",
            "trace_event_count",
            "asp_branch_nodes",
            "cq_fallbacks",
            "asp_grounded_rules",
            "asp_grounded_atoms",
            "asp_full_grounded_rules",
            "asp_full_grounded_atoms",
            "live_incremental_ms",
            "warm_after_commit_regrounded_rules",
            "warm_after_commit_slice_rules",
            "mvcc_epochs_published",
            "snapshot_pins",
            "cache_evictions",
            "reader_qps_under_writes",
            "analyzer_errors",
            "analyzer_warnings",
            "analyzer_infos",
        ] {
            assert!(smoke.get(name).is_some(), "missing metric {name}");
        }
        // The pruned grounding is strictly smaller than the full one (the
        // run itself hard-errors otherwise; this documents the invariant).
        assert!(smoke.get("asp_grounded_rules") < smoke.get("asp_full_grounded_rules"));
        // The incremental patch re-derives strictly fewer rules than the
        // full slice (also a hard error inside the run).
        assert!(
            smoke.get("warm_after_commit_regrounded_rules")
                < smoke.get("warm_after_commit_slice_rules")
        );
        // The tiny-budget engine evicted (hard error inside the run).
        assert!(smoke.get("cache_evictions") > Some(0.0));
        // The store interned the workload (hard error inside the run).
        assert!(smoke.get("interned_symbols") > Some(0.0));
        // The traced sub-workload produced a well-formed, non-empty trace
        // with two events (enter + exit) per span.
        assert!(smoke.get("trace_span_count") > Some(0.0));
        assert_eq!(
            smoke.get("trace_event_count"),
            smoke.get("trace_span_count").map(|s| s * 2.0)
        );
        // The MVCC sub-workload pinned and published (hard errors inside
        // the run back these up).
        assert!(smoke.get("mvcc_epochs_published") > Some(0.0));
        assert!(smoke.get("snapshot_pins") > Some(0.0));
        assert!(smoke.get("reader_qps_under_writes") > Some(0.0));
        // The smoke workloads are analyzer-error-free (hard error inside
        // the run); the warning/info counters are exact-match in the gate.
        assert_eq!(smoke.get("analyzer_errors"), Some(0.0));
        // Example 1's rewritings all run on the columnar plan.
        assert_eq!(smoke.get("cq_fallbacks"), Some(0.0));
        // Self-comparison always passes.
        let (_, pass) = smoke.compare(&smoke);
        assert!(pass);
    }
}
