//! End-to-end tests of the observability subsystem through the public API:
//! the Chrome trace-event export round-trips with correctly nested phase
//! spans, `EngineStats` timings are exactly the recorded span durations
//! (one clock, one truth), and traces stay well-formed — with exact
//! counters — while `answer_batch` hammers the recorder from worker pools
//! of every size. Every `CacheMetrics` field has exactly one source: it
//! equals the recorder counter of the same cache event.

use p2p_data_exchange::obs::parse_chrome_trace;
use p2p_data_exchange::{
    vars, Formula, PeerId, Query, QueryEngine, Strategy, TraceRecorder, Tuple,
};
use proptest::prelude::*;
use relalg::database::GroundAtom;
use relalg::{Delta, RelationSchema};
use std::sync::Arc;
use workload::{generate, TrustMix, WorkloadSpec};

fn traced_example1_engine() -> (QueryEngine, Arc<TraceRecorder>) {
    let recorder = Arc::new(TraceRecorder::new());
    let engine = QueryEngine::builder(p2p_data_exchange::example1_system())
        .strategy(Strategy::Asp)
        .recorder(recorder.clone())
        .build();
    (engine, recorder)
}

/// The acceptance test of the PR: export a trace of a cold ASP query as
/// Chrome trace-event JSON, parse it back, and check that every phase span
/// (`relevance`, `ground`, `solve`, `eval`, …) nests inside the enclosing
/// `query` interval and that phase durations sum to within the recorded
/// query wall time.
#[test]
fn chrome_trace_round_trips_with_nested_phase_spans() {
    let (engine, recorder) = traced_example1_engine();
    let p1 = PeerId::new("P1");
    let query = Formula::atom("R1", vec!["X", "Y"]);
    let answers = engine.answer(&p1, &query, &vars(&["X", "Y"])).unwrap();
    assert!(!answers.tuples.is_empty());

    let trace = recorder.trace();
    assert_eq!(trace.malformed(), 0);
    let events = parse_chrome_trace(&trace.chrome_json()).unwrap();
    assert_eq!(events.len(), trace.span_count());

    let find = |name: &str| {
        events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no `{name}` event in the exported trace"))
    };
    let query_ev = find("query");
    assert_eq!(query_ev.ph, "X");
    assert!(query_ev.args.iter().any(|(k, v)| k == "peer" && v == "P1"));
    assert!(query_ev
        .args
        .iter()
        .any(|(k, v)| k == "strategy" && v == "asp"));

    // Every phase lies inside the query interval.
    for phase in ["prepare", "relevance", "ground", "solve", "decode", "eval"] {
        let ev = find(phase);
        assert!(
            ev.ts_nanos >= query_ev.ts_nanos && ev.end_nanos() <= query_ev.end_nanos(),
            "`{phase}` [{}, {}] escapes `query` [{}, {}]",
            ev.ts_nanos,
            ev.end_nanos(),
            query_ev.ts_nanos,
            query_ev.end_nanos()
        );
    }
    // The inner phases additionally nest inside `prepare`, and durations
    // sum to within the enclosing span at both levels.
    let prepare = find("prepare");
    let inner: u64 = ["relevance", "ground", "solve", "decode"]
        .iter()
        .map(|phase| {
            let ev = find(phase);
            assert!(
                ev.ts_nanos >= prepare.ts_nanos && ev.end_nanos() <= prepare.end_nanos(),
                "`{phase}` escapes `prepare`"
            );
            ev.dur_nanos
        })
        .sum();
    assert!(inner <= prepare.dur_nanos);
    assert!(prepare.dur_nanos + find("eval").dur_nanos <= query_ev.dur_nanos);
}

/// `EngineStats` phase timings are rebuilt *from* the recorded spans — the
/// recorder reports the same `Duration` the span returns — so the stats and
/// the trace agree bit-for-bit, not approximately.
#[test]
fn engine_stats_equal_recorded_span_durations() {
    let (engine, recorder) = traced_example1_engine();
    let p1 = PeerId::new("P1");
    let query = Formula::atom("R1", vec!["X", "Y"]);
    let cold = engine.answer(&p1, &query, &vars(&["X", "Y"])).unwrap();

    let trace = recorder.trace();
    let span_nanos = |label: &str| {
        let spans = trace.spans_labelled(label);
        assert_eq!(spans.len(), 1, "expected exactly one `{label}` span");
        spans[0].dur_nanos
    };
    assert!(!cold.stats.cache_hit);
    assert_eq!(
        cold.stats.prepare_time().as_nanos() as u64,
        span_nanos("prepare")
    );
    assert_eq!(
        cold.stats.ground_time().as_nanos() as u64,
        span_nanos("ground")
    );
    assert_eq!(
        cold.stats.solve_time().as_nanos() as u64,
        span_nanos("solve")
    );
    assert_eq!(cold.stats.eval_time().as_nanos() as u64, span_nanos("eval"));
    assert_eq!(recorder.registry().counter_value("cache.miss"), 1);

    // A warm repeat hits the cache: no new prepare/ground/solve spans, and
    // the hit's `cached_prepare_time` carries the cold run's exact cost.
    let warm = engine.answer(&p1, &query, &vars(&["X", "Y"])).unwrap();
    assert!(warm.stats.cache_hit);
    assert_eq!(
        warm.stats.cached_prepare_time(),
        Some(cold.stats.prepare_time())
    );
    let trace = recorder.trace();
    assert_eq!(trace.spans_labelled("prepare").len(), 1);
    assert_eq!(trace.spans_labelled("query").len(), 2);
    assert_eq!(recorder.registry().counter_value("cache.hit"), 1);
}

/// Check one replayed trace for structural well-formedness: no malformed
/// events, every span closed, and every child interval contained in its
/// parent's.
fn assert_well_formed(trace: &p2p_data_exchange::obs::Trace) {
    assert_eq!(trace.malformed(), 0);
    for (i, span) in trace.spans.iter().enumerate() {
        assert!(span.closed, "span {i} (`{}`) never exited", span.label);
        if let Some(p) = span.parent {
            let parent = &trace.spans[p];
            assert_eq!(parent.tid, span.tid);
            assert!(parent.depth < span.depth);
            assert!(
                span.start_nanos >= parent.start_nanos && span.end_nanos() <= parent.end_nanos(),
                "span {i} (`{}`) escapes its parent `{}`",
                span.label,
                parent.label
            );
        } else {
            assert_eq!(span.depth, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hammer one traced engine with `answer_batch` from pools of size 1, 2
    /// and 8: every per-thread buffer must replay to a well-formed span
    /// tree, and the batch/query counters must be exact — concurrency may
    /// interleave spans across threads but can never lose or corrupt one.
    #[test]
    fn batch_traces_stay_well_formed_under_every_pool_size(
        tuples in 1usize..6,
        violations in 0usize..2,
        seed in 0u64..1000
    ) {
        let w = generate(&WorkloadSpec {
            peers: 3,
            tuples_per_relation: tuples,
            violations_per_dec: violations,
            trust_mix: TrustMix::AllLess,
            seed,
            ..WorkloadSpec::default()
        })
        .unwrap();
        let batch: Vec<Query> = (0..6)
            .map(|_| Query::new(w.queried_peer.clone(), w.query.clone(), w.free_vars.clone()))
            .collect();
        for workers in [1usize, 2, 8] {
            let recorder = Arc::new(TraceRecorder::new());
            let engine = QueryEngine::builder(w.system.clone())
                .strategy(Strategy::Asp)
                .workers(workers)
                .recorder(recorder.clone())
                .build();
            for result in engine.answer_batch(&batch) {
                prop_assert!(result.is_ok());
            }
            let trace = recorder.trace();
            assert_well_formed(&trace);
            prop_assert_eq!(trace.spans_labelled("batch").len(), 1);
            prop_assert_eq!(trace.spans_labelled("query").len(), batch.len());
            let registry = recorder.registry();
            prop_assert_eq!(registry.counter_value("batch.queries"), batch.len() as u64);
            // Exactly one histogram sample per query span, whatever the
            // interleaving.
            let (_, summary) = registry
                .histograms()
                .into_iter()
                .find(|(label, _)| *label == "query")
                .unwrap();
            prop_assert_eq!(summary.count, batch.len() as u64);
        }
    }
}

/// `CacheMetrics` is a view of one set of counters: each field equals the
/// recorder counter its event forwards, across batches on pools of 1, 2 and
/// 8 workers, commits that refresh, stale-and-patch and drop entries, a byte
/// budget that evicts, `invalidate_peers` and `flush_cache`.
#[test]
fn cache_metrics_equal_their_recorder_counters() {
    // Example 1 plus a relation of P3 that no DEC or query reads: a commit
    // into it refreshes the ASP slices stamped with P3 in place.
    let mut system = p2p_data_exchange::example1_system();
    let (p1, p2, p3) = (PeerId::new("P1"), PeerId::new("P2"), PeerId::new("P3"));
    system
        .add_relation(&p3, RelationSchema::new("S3", &["x", "y"]))
        .unwrap();
    let insert = |relation: &str, a: &str, b: &str| {
        Delta::from_changes([GroundAtom::new(relation, Tuple::strs([a, b]))], [])
    };
    let fv = vars(&["X", "Y"]);
    let scan = |relation: &str| Formula::atom(relation, vec!["X", "Y"]);
    let batch: Vec<Query> = (0..3)
        .flat_map(|_| {
            [
                Query::new(p1.clone(), scan("R1"), fv.clone()),
                Query::new(p2.clone(), scan("R2"), fv.clone()),
                Query::new(p3.clone(), scan("R3"), fv.clone()),
            ]
        })
        .collect();
    for workers in [1usize, 2, 8] {
        for capacity in [None, Some(20_000)] {
            let recorder = Arc::new(TraceRecorder::new());
            let mut builder = QueryEngine::builder(system.clone())
                .strategy(Strategy::Asp)
                .workers(workers)
                .recorder(recorder.clone());
            if let Some(bytes) = capacity {
                builder = builder.cache_capacity(bytes);
            }
            let engine = builder.build();
            let warm = |engine: &QueryEngine| {
                for result in engine.answer_batch(&batch) {
                    let _ = result.unwrap();
                }
                for strategy in [
                    Strategy::Naive,
                    Strategy::TransitiveAsp,
                    Strategy::Rewriting,
                ] {
                    let _ = engine.answer_with(strategy, &p1, &scan("R1"), &fv).unwrap();
                }
            };
            warm(&engine);
            // Refreshes P1's and P3's slices, drops the naive entry.
            engine.commit_delta(&p3, &insert("S3", "s", "t")).unwrap();
            warm(&engine);
            // Stales P1's slices; the committing thread patches them.
            engine.commit_delta(&p2, &insert("R2", "k", "m")).unwrap();
            warm(&engine);
            engine.invalidate_peers([p2.clone()]);
            warm(&engine);
            engine.flush_cache();

            let metrics = engine.metrics();
            let registry = recorder.registry();
            let counted = |name| registry.counter_value(name);
            let cell = format!("workers {workers}, capacity {capacity:?}: {metrics:?}");
            assert_eq!(metrics.hits, counted("cache.hit"), "{cell}");
            assert_eq!(metrics.misses, counted("cache.miss"), "{cell}");
            assert_eq!(metrics.invalidated, counted("cache.invalidated"), "{cell}");
            assert_eq!(metrics.commits, counted("cache.commit"), "{cell}");
            assert_eq!(metrics.patched, counted("cache.patched"), "{cell}");
            assert_eq!(metrics.evictions, counted("cache.evict"), "{cell}");
            assert!(metrics.hits > 0 && metrics.invalidated > 0, "{cell}");
            assert_eq!(metrics.commits, 2, "{cell}");
            if capacity.is_some() {
                assert!(metrics.evictions > 0, "{cell}");
            } else {
                assert!(metrics.patched > 0, "{cell}");
            }
        }
    }
}
