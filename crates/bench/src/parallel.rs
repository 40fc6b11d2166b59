//! Batched answering over closure-disjoint clusters.
//!
//! The batch workload is a set of *independent clusters*: pairs of peers
//! `(A_i, B_i)` where `A_i` owns a binary relation with a key-agreement DEC
//! towards the same-trusted `B_i`, with `conflicts` planted key conflicts
//! per cluster. Each cluster's relevant-peer closure is `{A_i, B_i}` —
//! pairwise disjoint — so a batch that queries every cluster partitions into
//! one partition per cluster and [`pdes_core::engine::QueryEngine::answer_batch`]
//! spreads the per-cluster preparation (grounding + 2^conflicts-model
//! solving + per-world evaluation) across the pool. The smoke gate runs the
//! same batch at one and four workers and requires identical output.

use pdes_core::engine::{Query, QueryEngine, Strategy};
use pdes_core::pca::vars;
use pdes_core::system::{P2PSystem, PeerId, TrustLevel};
use relalg::query::Formula;
use relalg::{RelationSchema, Tuple};
use std::time::Instant;

/// One measured batch run.
#[derive(Debug, Clone)]
pub struct ParallelMeasurement {
    /// Queries in the batch.
    pub queries: usize,
    /// Total certain answers across the batch.
    pub answers: usize,
    /// Total worlds (answer sets) evaluated across the batch.
    pub worlds: usize,
    /// Total ground rules instantiated across the batch (warm queries
    /// re-report their artifact's count, so the sum is deterministic — the
    /// grounding-size counter the smoke gate tracks exactly).
    pub grounded_rules: usize,
    /// Wall-clock time of the whole batch in milliseconds.
    pub millis: f64,
}

/// Build a system of `clusters` independent two-peer clusters. Cluster `i`
/// has peers `A<i>`/`B<i>` owning `RA<i>`/`RB<i>` with `tuples` rows each, a
/// key-agreement DEC between them at equal trust, and `conflicts` planted
/// key conflicts — so each cluster independently admits `2^conflicts`
/// solutions.
pub fn cluster_system(clusters: usize, tuples: usize, conflicts: usize) -> P2PSystem {
    assert!(
        conflicts <= tuples,
        "cannot plant more conflicts than tuples"
    );
    let mut sys = P2PSystem::new();
    for i in 0..clusters {
        let a = PeerId::new(format!("A{i}"));
        let b = PeerId::new(format!("B{i}"));
        sys.add_peer(a.clone()).expect("fresh peer");
        sys.add_peer(b.clone()).expect("fresh peer");
        let ra = format!("RA{i}");
        let rb = format!("RB{i}");
        sys.add_relation(&a, RelationSchema::new(&ra, &["x", "y"]))
            .expect("fresh relation");
        sys.add_relation(&b, RelationSchema::new(&rb, &["x", "y"]))
            .expect("fresh relation");
        for j in 0..tuples {
            let key = format!("k{j}");
            sys.insert(&a, &ra, Tuple::strs([&key, &format!("v{j}")]))
                .expect("insert");
            // The first `conflicts` keys disagree on the dependent value.
            let other = if j < conflicts {
                format!("w{j}")
            } else {
                format!("v{j}")
            };
            sys.insert(&b, &rb, Tuple::strs([&key, &other]))
                .expect("insert");
        }
        sys.add_dec(
            &a,
            &b,
            constraints::builders::key_agreement(format!("d{i}"), &ra, &rb).expect("dec"),
        )
        .expect("dec");
        sys.set_trust(&a, TrustLevel::Same, &b).expect("trust");
    }
    sys
}

/// The canonical batch over a cluster system: each cluster's `RA<i>(X, Y)`
/// query, `repeat` times round-robin (so warm repeats exercise the shared
/// cache inside each partition).
pub fn cluster_batch(clusters: usize, repeat: usize) -> Vec<Query> {
    let mut batch = Vec::with_capacity(clusters * repeat);
    for _ in 0..repeat {
        for i in 0..clusters {
            batch.push(Query::new(
                PeerId::new(format!("A{i}")),
                Formula::atom(format!("RA{i}"), vec!["X", "Y"]),
                vars(&["X", "Y"]),
            ));
        }
    }
    batch
}

/// Run one batch on a fresh engine with `workers` workers. Returns `None`
/// if any query errors (the smoke gate treats that as a hard failure).
pub fn run_batch(
    system: &P2PSystem,
    batch: &[Query],
    strategy: Strategy,
    workers: usize,
) -> Option<ParallelMeasurement> {
    let engine = QueryEngine::builder(system.clone())
        .strategy(strategy)
        .workers(workers)
        .build();
    let start = Instant::now();
    let results = engine.answer_batch(batch);
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let mut answers = 0usize;
    let mut worlds = 0usize;
    let mut grounded_rules = 0usize;
    for result in results {
        let a = result.ok()?;
        answers += a.len();
        worlds += a.stats.worlds;
        grounded_rules += a.stats.grounded_rules;
    }
    Some(ParallelMeasurement {
        queries: batch.len(),
        answers,
        worlds,
        grounded_rules,
        millis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_system_has_disjoint_closures_and_planted_worlds() {
        let sys = cluster_system(3, 5, 2);
        assert_eq!(sys.peer_count(), 6);
        for i in 0..3 {
            let closure = sys.dependencies_of(&PeerId::new(format!("A{i}")));
            assert_eq!(closure.len(), 2, "cluster {i} closure is its own pair");
        }
        let engine = QueryEngine::builder(sys).strategy(Strategy::Asp).build();
        let answers = engine
            .answer_named(
                &PeerId::new("A0"),
                &Formula::atom("RA0", vec!["X", "Y"]),
                &["X", "Y"],
            )
            .unwrap();
        assert_eq!(answers.stats.worlds, 4, "2^2 planted solutions");
        // Conflicting keys are uncertain, the rest survive.
        assert_eq!(answers.len(), 3);
    }

    #[test]
    fn batch_runs_agree_across_worker_counts() {
        let system = cluster_system(3, 5, 2);
        let batch = cluster_batch(3, 2);
        let rows: Vec<ParallelMeasurement> = [1usize, 4]
            .iter()
            .filter_map(|&w| run_batch(&system, &batch, Strategy::Asp, w))
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].answers, rows[1].answers);
        assert_eq!(rows[0].worlds, rows[1].worlds);
        assert_eq!(rows[0].queries, batch.len());
    }
}
