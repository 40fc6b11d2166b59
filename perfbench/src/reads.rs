//! The shared loop of the two read workloads (cold-prepare and
//! warm-read): set-up, warm-up, answer checks and the closed loop.

use crate::client::Client;
use crate::inputs::{QueryOp, Rng};
use crate::stats::{self, Checks, Summary};
use crate::trace::Tracer;
use crate::{Config, Measured};
use pdes_core::{P2PSystem, QueryEngine, Strategy};
use std::time::Instant;

/// A read workload: its engines' systems and strategies, and how to build
/// its query rotation from probe engines and the seeded stream.
pub struct ReadPlan {
    pub systems: Vec<(P2PSystem, Strategy)>,
    pub rotation: fn(&[QueryEngine], &mut Rng) -> Result<Vec<QueryOp>, String>,
    /// Flush before every query (cold-prepare) or never (warm-read).
    pub cold: bool,
}

/// Build one engine the way every workload does: one worker, the given
/// strategy, default cache. Traced, the analysis and the build are timed
/// on their own.
pub fn build_engine(tr: &mut Tracer, system: P2PSystem, strategy: Strategy) -> QueryEngine {
    if tr.enabled() {
        let start = Instant::now();
        std::hint::black_box(system.analyze());
        tr.sample("setup.analyze_ms", ms_since(start));
    }
    let start = Instant::now();
    let engine = QueryEngine::builder(system)
        .strategy(strategy)
        .workers(1)
        .build();
    tr.sample("setup.build_ms", ms_since(start));
    engine
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

pub fn run(config: &Config, tr: &mut Tracer, plan: ReadPlan) -> Result<(Measured, Checks), String> {
    let specs = config.size.specs();
    let mut rng = Rng::new(config.seed);
    let rotation = {
        let mut quiet = Tracer::new(false, Instant::now());
        let probes: Vec<QueryEngine> = plan
            .systems
            .iter()
            .map(|(system, strategy)| build_engine(&mut quiet, system.clone(), *strategy))
            .collect();
        (plan.rotation)(&probes, &mut rng)?
    };

    // Set up several times; the last set-up's engines serve the run.
    let mut checks = Checks::default();
    let mut measured = Measured::default();
    let setups = if tr.enabled() { 1 } else { specs.setups };
    let mut engines = Vec::new();
    let mut replayers = Vec::new();
    let mut warm_answers = Vec::new();
    let mut warm_checks = Checks::default();
    for _ in 0..setups {
        let systems: Vec<(P2PSystem, Strategy)> = plan.systems.clone();
        tr.set_counting(true);
        let slowdown = stats::slowdown();
        let start = Instant::now();
        engines = systems
            .into_iter()
            .map(|(system, strategy)| build_engine(tr, system, strategy))
            .collect();
        let mut client = Client::new(&engines, plan.cold)?;
        warm_checks = Checks::default();
        let (warmup_ms, answers) = client.warm_up(tr, &rotation, &mut warm_checks);
        measured
            .setup_s
            .push(start.elapsed().as_secs_f64() / slowdown);
        tr.sample("setup.warmup_ms", warmup_ms);
        tr.set_counting(false);
        warm_answers = answers;
        replayers = client.into_replayers();
    }
    checks.absorb(warm_checks);
    let mut client = Client::resume(&engines, replayers, plan.cold);
    if !tr.enabled() {
        client.validate(&rotation, &warm_answers, &mut checks);
    }

    // Pins the replay takes are the benchmark's, not the engine's.
    let own_pins = tr.span_count("store.pin");
    let before: Vec<_> = engines
        .iter()
        .map(|e| (e.metrics(), e.mvcc_stats()))
        .collect();
    let window = config.window();
    let measured_run = if tr.enabled() {
        // Tracing overhead: an untraced quarter-window first, then the
        // traced window.
        let mut quiet = Tracer::new(false, Instant::now());
        let untraced = client.run(
            &mut quiet,
            &rotation,
            &warm_answers,
            window / 4,
            &mut checks,
        );
        let traced = client.run(tr, &rotation, &warm_answers, window, &mut checks);
        tr.sample(
            "trace.overhead_ratio",
            stats::ratio(stats::median(&traced), stats::median(&untraced)),
        );
        traced
    } else {
        client.run(tr, &rotation, &warm_answers, window, &mut checks)
    };
    let (mut hits, mut misses, mut pins, mut publishes) = (0, 0, 0, 0);
    for (engine, (metrics, mvcc)) in engines.iter().zip(&before) {
        hits += engine.metrics().hits - metrics.hits;
        misses += engine.metrics().misses - metrics.misses;
        pins += engine.mvcc_stats().pins - mvcc.pins;
        publishes += engine.mvcc_stats().publishes - mvcc.publishes;
    }
    tr.sample(
        "engine.cache_hit_ratio",
        stats::ratio(hits as f64, (hits + misses) as f64),
    );
    let own_pins = tr.span_count("store.pin") - own_pins;
    tr.sample("store.pins", pins.saturating_sub(own_pins as u64) as f64);
    tr.sample("store.epochs_published", publishes as f64);

    measured.queries = Summary::of(&measured_run);
    measured.ops = measured.queries;
    if plan.cold {
        // The working set: every query of the rotation, prepared once.
        let mut quiet = Tracer::new(false, Instant::now());
        let mut filler = Client::new(&engines, false)?;
        for engine in &engines {
            engine.flush_cache();
        }
        for (op, want) in rotation.iter().zip(&warm_answers) {
            filler.step(&mut quiet, op, Some(want), &mut checks);
        }
    }
    measured.cache_bytes = engines.iter().map(QueryEngine::cached_bytes).sum();
    Ok((measured, checks))
}
