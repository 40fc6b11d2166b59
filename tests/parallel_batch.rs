//! Parallel-execution equivalence and stress tests:
//!
//! * property: `answer_batch` over any workload equals a sequential loop of
//!   single `answer` calls — same certain answers, same world counts, same
//!   error/success shape — for all four strategies and pool sizes 1/2/8;
//! * stress: a shared engine hammered from 8 reader threads while a writer
//!   commits `Session` transactions, checking the atomic cache counters
//!   account for every query (the counters under-counted when they were
//!   plain fields behind the cache lock).

use p2p_data_exchange::core::engine::Query;
use p2p_data_exchange::{PeerId, QueryEngine, Session, Strategy, Tuple};
use pdes_bench::parallel::{cluster_batch, cluster_system};
use proptest::prelude::*;
use relalg::query::Formula;
use workload::{generate, TrustMix, WorkloadSpec};

/// Answer the batch as a plain loop on a fresh sequential engine — the
/// reference the parallel paths must reproduce.
fn reference_answers(
    system: &p2p_data_exchange::P2PSystem,
    strategy: Strategy,
    batch: &[Query],
) -> Vec<Result<(std::collections::BTreeSet<Tuple>, usize), String>> {
    let engine = QueryEngine::builder(system.clone())
        .strategy(strategy)
        .build();
    batch
        .iter()
        .map(|q| {
            engine
                .answer(&q.peer, &q.query, &q.free_vars)
                .map(|a| (a.tuples, a.stats.worlds))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Assert batch results equal the reference elementwise (answers and world
/// counts on success; both failing on error).
fn assert_batch_matches(
    system: &p2p_data_exchange::P2PSystem,
    strategy: Strategy,
    batch: &[Query],
    workers: usize,
) {
    let reference = reference_answers(system, strategy, batch);
    let engine = QueryEngine::builder(system.clone())
        .strategy(strategy)
        .workers(workers)
        .build();
    let results = engine.answer_batch(batch);
    assert_eq!(results.len(), reference.len());
    for (i, (got, want)) in results.into_iter().zip(reference).enumerate() {
        match (got, want) {
            (Ok(a), Ok((tuples, worlds))) => {
                assert_eq!(
                    a.tuples, tuples,
                    "strategy {strategy:?} workers {workers} query {i}"
                );
                assert_eq!(a.stats.worlds, worlds);
            }
            (Err(_), Err(_)) => {}
            (got, want) => panic!(
                "strategy {strategy:?} workers {workers} query {i}: \
                 batch/loop success shape diverged: {got:?} vs {want:?}"
            ),
        }
    }
}

const ALL_STRATEGIES: [Strategy; 4] = [
    Strategy::Naive,
    Strategy::Rewriting,
    Strategy::Asp,
    Strategy::TransitiveAsp,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated single-cluster workloads: the batch repeats the canonical
    /// query and a projected variant against the queried peer, so every
    /// query shares one partition and must warm the cache exactly like a
    /// loop.
    #[test]
    fn batch_equals_loop_on_generated_workloads(seed in 0u64..40, tuples in 3usize..6) {
        let w = generate(&WorkloadSpec {
            peers: 2,
            tuples_per_relation: tuples,
            violations_per_dec: 1,
            trust_mix: TrustMix::AllLess,
            seed,
            ..WorkloadSpec::default()
        })
        .expect("valid workload spec");
        let projected = Formula::exists(vec!["Y"], w.query.clone());
        let batch = vec![
            Query::new(w.queried_peer.clone(), w.query.clone(), w.free_vars.clone()),
            Query::new(w.queried_peer.clone(), projected, vec!["X".to_string()]),
            Query::new(w.queried_peer.clone(), w.query.clone(), w.free_vars.clone()),
        ];
        for strategy in ALL_STRATEGIES {
            for workers in [1usize, 2, 8] {
                assert_batch_matches(&w.system, strategy, &batch, workers);
            }
        }
    }

    /// Independent key-agreement clusters: disjoint closures, so the batch
    /// genuinely partitions and runs concurrently at ≥2 workers.
    #[test]
    fn batch_equals_loop_on_disjoint_clusters(
        clusters in 2usize..4,
        tuples in 3usize..6,
        conflicts in 1usize..3,
    ) {
        let system = cluster_system(clusters, tuples, conflicts);
        let batch = cluster_batch(clusters, 2);
        for strategy in ALL_STRATEGIES {
            for workers in [1usize, 2, 8] {
                assert_batch_matches(&system, strategy, &batch, workers);
            }
        }
    }
}

/// 8 reader threads hammer a shared session through cloned [`ReadHandle`]s
/// while the single [`Writer`] commits transactions — no lock around the
/// session at all, the point of the MVCC read/write split. Checks liveness
/// (no deadlock between the commit path and the engine's cache lock),
/// answer sanity across invalidations, and that the atomic hit/miss
/// counters account for every single query.
#[test]
fn stress_shared_engine_during_session_commits() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    const CLUSTERS: usize = 4;
    const READERS: usize = 8;
    const QUERIES_PER_READER: usize = 25;
    const COMMITS: usize = 10;

    let system = cluster_system(CLUSTERS, 6, 2);
    let session = Session::with_engine(
        QueryEngine::builder(system)
            .strategy(Strategy::Asp)
            .workers(2)
            .build(),
    );
    let answered = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let handle = session.reader();
            let answered = &answered;
            scope.spawn(move || {
                for round in 0..QUERIES_PER_READER {
                    let i = (reader + round) % CLUSTERS;
                    let query = Query::named(
                        PeerId::new(format!("A{i}")),
                        Formula::atom(format!("RA{i}"), vec!["X", "Y"]),
                        &["X", "Y"],
                    );
                    let answers = handle
                        .query(&query)
                        .expect("query must survive concurrent commits");
                    // Two planted conflicts per cluster: always 4 worlds,
                    // and the non-conflicting tuples are always certain.
                    assert_eq!(answers.stats.worlds, 4);
                    assert!(answers.len() >= 4);
                    answered.fetch_add(1, Ordering::Release);
                }
            });
        }
        let mut writer = session.writer().unwrap();
        let answered = &answered;
        scope.spawn(move || {
            // Commit only once a reader has answered, so some commit lands
            // on a cached entry: the Acquire load pairs with the readers'
            // Release increment, which follows their entry's insert. The
            // deadline only keeps a run whose readers all failed from hanging.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while answered.load(Ordering::Acquire) == 0 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            for round in 0..COMMITS {
                let i = round % CLUSTERS;
                let peer = PeerId::new(format!("B{i}"));
                let relation = format!("RB{i}");
                let mut tx = writer.begin();
                tx.insert(
                    &peer,
                    &relation,
                    Tuple::strs([format!("extra{round}"), "v".to_string()]),
                )
                .unwrap();
                let receipt = tx.commit().unwrap();
                assert_eq!(receipt.touched.len(), 1);
            }
        });
    });

    let total = answered.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(total, READERS * QUERIES_PER_READER);
    let metrics = session.metrics();
    // Every query() performs exactly one preparation lookup; with atomic
    // counters none may be lost, even under contention.
    assert_eq!(
        metrics.hits + metrics.misses,
        total as u64,
        "cache counters must account for every query: {metrics:?}"
    );
    assert_eq!(metrics.commits, COMMITS as u64);
    assert!(
        metrics.invalidated >= 1,
        "commits must invalidate artifacts"
    );
}
