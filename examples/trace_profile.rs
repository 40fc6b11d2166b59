//! Trace a cold and a warm query on the paper's Example 1 system, print the
//! flat phase profile and per-phase percentile summary, and write a Chrome
//! trace-event file (open it in `chrome://tracing` or Perfetto).
//!
//! Run with `cargo run --example trace_profile [-- out.json]`.

use p2p_data_exchange::{
    example1_system, vars, Formula, PeerId, QueryEngine, Strategy, TraceRecorder,
};
use std::sync::Arc;

fn main() {
    let recorder = Arc::new(TraceRecorder::new());
    let engine = QueryEngine::builder(example1_system())
        .strategy(Strategy::Asp)
        .recorder(recorder.clone())
        .build();
    let p1 = PeerId::new("P1");
    let query = Formula::atom("R1", vec!["X", "Y"]);
    let free_vars = vars(&["X", "Y"]);

    // One cold query (relevance → ground → solve → decode → eval) and a few
    // warm repeats that hit the memo cache and only re-evaluate.
    let cold = engine.answer(&p1, &query, &free_vars).expect("answerable");
    println!(
        "cold: {} answers, prepared in {} µs",
        cold.len(),
        cold.stats.prepare_time().as_micros()
    );
    for _ in 0..5 {
        let warm = engine.answer(&p1, &query, &free_vars).expect("answerable");
        assert!(warm.stats.cache_hit);
    }

    // Where did the time go? `total` is inclusive span time, `self`
    // excludes direct children — the same spans EngineStats is built from.
    let trace = recorder.trace();
    println!("\nphase profile (Example 1, 1 cold + 5 warm queries):");
    print!("{}", trace.text_profile());

    // Percentiles come from the recorder's shared histogram registry.
    println!("per-phase latency percentiles:");
    println!(
        "{:<24} {:>7} {:>10} {:>10} {:>10}",
        "span", "count", "p50 (µs)", "p95 (µs)", "p99 (µs)"
    );
    for (label, s) in recorder.registry().histograms() {
        if s.count == 0 {
            continue;
        }
        println!(
            "{:<24} {:>7} {:>10.1} {:>10.1} {:>10.1}",
            label,
            s.count,
            s.p50 as f64 / 1e3,
            s.p95 as f64 / 1e3,
            s.p99 as f64 / 1e3
        );
    }

    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_profile.json".to_string());
    std::fs::write(&out, trace.chrome_json()).expect("write trace file");
    println!(
        "\nwrote {} spans to {out} — load it in chrome://tracing or Perfetto",
        trace.span_count()
    );
}
