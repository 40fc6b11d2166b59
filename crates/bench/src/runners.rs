//! Shared runners: execute one answering strategy on one workload through
//! the [`QueryEngine`] facade and report wall-clock time plus basic
//! statistics.
//!
//! The per-mechanism `run_*` functions are thin wrappers over
//! [`run_strategy`]; callers that answer repeatedly build an engine once per
//! workload with [`engine_for`], which exercises the engine's per-peer
//! memoization (repeat queries skip re-grounding/solving — the hot path the
//! smoke gate's warm metrics measure).

use pdes_core::engine::{QueryEngine, Strategy};
use repair::{consistent_answers, RepairEngine};
use std::time::Instant;
use workload::generator::GeneratedWorkload;

/// One measured data point.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The mechanism that was exercised.
    pub mechanism: &'static str,
    /// Workload parameters, rendered for the table.
    pub params: String,
    /// Wall-clock time in milliseconds (one run).
    pub millis: f64,
    /// Number of peer consistent answers returned.
    pub answers: usize,
    /// Number of solutions / answer sets / repairs considered.
    pub worlds: usize,
}

/// Build a fresh engine over a workload's system with the given strategy.
pub fn engine_for(w: &GeneratedWorkload, strategy: Strategy) -> QueryEngine {
    QueryEngine::builder(w.system.clone())
        .strategy(strategy)
        .build()
}

/// Run one answering strategy on the workload's canonical query through a
/// fresh engine (cold cache: the measurement includes preparation).
pub fn run_strategy(
    w: &GeneratedWorkload,
    strategy: Strategy,
    params: &str,
) -> Option<Measurement> {
    let engine = engine_for(w, strategy);
    let start = Instant::now();
    let result = engine
        .answer(&w.queried_peer, &w.query, &w.free_vars)
        .ok()?;
    Some(Measurement {
        mechanism: result.stats.strategy.label(),
        params: params.to_string(),
        millis: start.elapsed().as_secs_f64() * 1e3,
        answers: result.len(),
        worlds: result.stats.worlds,
    })
}

/// Run the first-order rewriting mechanism.
pub fn run_rewriting(w: &GeneratedWorkload, params: &str) -> Option<Measurement> {
    run_strategy(w, Strategy::Rewriting, params)
}

/// Run the (direct) answer-set specification mechanism.
pub fn run_asp(w: &GeneratedWorkload, params: &str) -> Option<Measurement> {
    run_strategy(w, Strategy::Asp, params)
}

/// Run the transitive (global) answer-set mechanism.
pub fn run_transitive_asp(w: &GeneratedWorkload, params: &str) -> Option<Measurement> {
    run_strategy(w, Strategy::TransitiveAsp, params)
}

/// Run the naive solution-enumeration (Definition 4 / 5) mechanism.
pub fn run_naive(w: &GeneratedWorkload, params: &str) -> Option<Measurement> {
    run_strategy(w, Strategy::Naive, params)
}

/// Run the single-database CQA baseline: the same data and constraints, but
/// treated as one inconsistent database repaired under the DECs with no peer
/// or trust structure. (Not a peer semantics, hence not an engine strategy.)
pub fn run_cqa_baseline(w: &GeneratedWorkload, params: &str) -> Option<Measurement> {
    let constraints: Vec<constraints::Constraint> = w
        .system
        .decs()
        .iter()
        .map(|d| d.constraint.clone())
        .collect();
    let db = w.system.global_instance().ok()?;
    let engine = RepairEngine::new(constraints);
    let start = Instant::now();
    let result = consistent_answers(&engine, &db, &w.query, &w.free_vars).ok()?;
    Some(Measurement {
        mechanism: "cqa-baseline",
        params: params.to_string(),
        millis: start.elapsed().as_secs_f64() * 1e3,
        answers: result.answers.len(),
        worlds: result.repair_count,
    })
}

/// Render a list of measurements as an aligned text table.
pub fn render_table(title: &str, rows: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&format!(
        "{:<34} {:<16} {:>12} {:>9} {:>8}\n",
        "parameters", "mechanism", "time (ms)", "answers", "worlds"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<34} {:<16} {:>12.3} {:>9} {:>8}\n",
            row.params, row.mechanism, row.millis, row.answers, row.worlds
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{generate, WorkloadSpec};

    #[test]
    fn runners_produce_consistent_answers_on_tiny_workload() {
        let w = generate(&WorkloadSpec::tiny()).unwrap();
        let rewriting = run_rewriting(&w, "tiny").unwrap();
        let asp = run_asp(&w, "tiny").unwrap();
        let naive = run_naive(&w, "tiny").unwrap();
        assert_eq!(rewriting.answers, asp.answers);
        assert_eq!(asp.answers, naive.answers);
        assert!(asp.millis >= 0.0);
    }

    #[test]
    fn runner_labels_match_the_legacy_table_names() {
        let w = generate(&WorkloadSpec::tiny()).unwrap();
        assert_eq!(run_rewriting(&w, "t").unwrap().mechanism, "rewriting");
        assert_eq!(run_asp(&w, "t").unwrap().mechanism, "asp");
        assert_eq!(run_naive(&w, "t").unwrap().mechanism, "naive-solutions");
        assert_eq!(
            run_transitive_asp(&w, "t").unwrap().mechanism,
            "asp-transitive"
        );
    }

    #[test]
    fn warm_engines_answer_from_cache() {
        let w = generate(&WorkloadSpec::tiny()).unwrap();
        let engine = engine_for(&w, Strategy::Asp);
        let cold = engine
            .answer(&w.queried_peer, &w.query, &w.free_vars)
            .unwrap();
        let warm = engine
            .answer(&w.queried_peer, &w.query, &w.free_vars)
            .unwrap();
        assert!(!cold.stats.cache_hit);
        assert!(warm.stats.cache_hit);
        assert_eq!(cold.tuples, warm.tuples);
    }

    #[test]
    fn table_rendering_includes_rows() {
        let w = generate(&WorkloadSpec::tiny()).unwrap();
        let rows = vec![run_rewriting(&w, "tiny").unwrap()];
        let table = render_table("B1", &rows);
        assert!(table.contains("B1"));
        assert!(table.contains("rewriting"));
    }

    #[test]
    fn cqa_baseline_runs_on_tiny_workload() {
        let w = generate(&WorkloadSpec::tiny()).unwrap();
        let m = run_cqa_baseline(&w, "tiny").unwrap();
        assert!(m.worlds >= 1);
    }
}
