//! Query throughput under a mutation stream.
//!
//! [`run_live`] replays a deterministic [`UpdateBatch`] stream through one
//! [`Session`] and interleaves queries between commits. Each commit stales
//! the artifacts whose relevant-peer closure it touches, keeping their
//! saturation state, and the commit-side repair patches only the rules the
//! delta touched ([`datalog::incremental`]).
//!
//! Between commits, every peer is queried round-robin with its canonical
//! `T<i>(X, Y)` query, so the measurement mixes queries inside and outside
//! the mutated peers' closures.

use pdes_core::engine::{Query, QueryEngine, Strategy};
use pdes_core::pca::vars;
use pdes_session::{Session, Update};
use relalg::query::Formula;
use std::time::Instant;
use workload::generator::GeneratedWorkload;
use workload::UpdateBatch;

/// One measured live run.
#[derive(Debug, Clone)]
pub struct LiveMeasurement {
    /// Commits replayed.
    pub commits: usize,
    /// Queries answered.
    pub queries: usize,
    /// Queries served from warm cache entries.
    pub cache_hits: usize,
    /// Stale artifacts repaired by the incremental patch instead of a full
    /// re-ground (engine lifetime counter).
    pub patched: u64,
    /// Total wall-clock time in milliseconds.
    pub millis: f64,
}

/// The per-peer canonical queries `T<i>(X, Y)` of a generated workload. The
/// relation name comes from each peer's own schema (peer ids sort
/// lexicographically, so an enumeration index would mispair peers and
/// relations beyond 10 peers).
fn peer_queries(w: &GeneratedWorkload) -> Vec<Query> {
    let fv = vars(&["X", "Y"]);
    w.system
        .peers()
        .map(|p| {
            let relation = p
                .schema
                .relation_names()
                .next()
                .expect("generated peers own one relation");
            Query::new(
                p.id.clone(),
                Formula::atom(relation, vec!["X", "Y"]),
                fv.clone(),
            )
        })
        .collect()
}

/// Replay `stream` against the workload under the given strategy,
/// answering `queries_per_commit` round-robin peer queries after every
/// commit. Returns `None` when a query or commit fails (e.g. a strategy
/// that does not support the workload's DEC class).
pub fn run_live(
    w: &GeneratedWorkload,
    stream: &[UpdateBatch],
    strategy: Strategy,
    queries_per_commit: usize,
) -> Option<LiveMeasurement> {
    let queries = peer_queries(w);
    let session = Session::with_engine(
        QueryEngine::builder(w.system.clone())
            .strategy(strategy)
            .build(),
    );
    let mut answered = 0usize;
    let mut cache_hits = 0usize;

    let start = Instant::now();
    for batch in stream {
        let _ = session
            .writer()
            .ok()?
            .apply(&[Update::new(batch.peer.clone(), batch.delta.clone())])
            .ok()?;
        for _ in 0..queries_per_commit {
            let query = &queries[answered % queries.len()];
            let answers = session.query(query).ok()?;
            answered += 1;
            if answers.stats.cache_hit {
                cache_hits += 1;
            }
        }
    }
    Some(LiveMeasurement {
        commits: stream.len(),
        queries: answered,
        cache_hits,
        patched: session.metrics().patched,
        millis: start.elapsed().as_secs_f64() * 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{generate, generate_updates, TrustMix, UpdateSpec, WorkloadSpec};

    #[test]
    fn live_runs_patch_stale_slices_and_stay_warm() {
        let w = generate(&WorkloadSpec {
            peers: 3,
            trust_mix: TrustMix::AllLess,
            ..WorkloadSpec::tiny()
        })
        .unwrap();
        let stream = generate_updates(
            &w,
            &UpdateSpec {
                batches: 4,
                batch_size: 1,
                ..UpdateSpec::default()
            },
        )
        .unwrap();
        let m = run_live(&w, &stream, Strategy::Asp, 3).unwrap();
        assert_eq!(m.commits, stream.len());
        assert_eq!(m.queries, stream.len() * 3);
        assert!(m.patched > 0, "stale artifacts must be patched");
        assert!(m.cache_hits > 0, "repaired artifacts must serve warm");
        assert!(m.millis >= 0.0);
    }
}
