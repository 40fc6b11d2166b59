//! Reader throughput under a sustained writer — the closed loop behind the
//! smoke gate's `reader_qps_under_writes`.
//!
//! The workload is the disjoint-cluster system of [`crate::parallel`]: N
//! reader threads share one [`Session`] through cloned
//! [`ReadHandle`](pdes_session::ReadHandle)s and re-answer the warm
//! cluster-head queries in a closed loop (no think time), while the
//! session's single [`Writer`](pdes_session::Writer) commits one-tuple
//! transactions back to back for the whole measurement window. Every commit
//! invalidates the artifacts in its cluster's closure and repairs them *on
//! the committing thread*, so readers stay on the warm path: they pin a
//! published epoch and never wait for the writer.
//!
//! A run reports the reader-side closed-loop throughput (queries/second
//! across all readers), the number of commits the writer managed in the
//! same window, and the store's MVCC counters (epochs published, snapshots
//! pinned). The smoke gate runs it at a fixed small configuration and gates
//! the throughput *downward*: losing more than half of it under writes is a
//! concurrency regression.

use crate::parallel::cluster_system;
use pdes_core::engine::{Query, QueryEngine, Strategy};
use pdes_core::system::PeerId;
use pdes_session::{Session, Update};
use relalg::database::GroundAtom;
use relalg::query::Formula;
use relalg::{Delta, Tuple};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Clusters in the workload.
const CLUSTERS: usize = 4;

/// Reader throughput and MVCC counters of one closed-loop run.
#[derive(Debug, Clone)]
pub struct MvccMeasurement {
    /// Closed-loop reader throughput, queries/second across all readers.
    pub reader_qps: f64,
    /// Commits the writer completed inside the measurement window.
    pub commits: u64,
    /// Epochs the store published (from [`pdes_core::MvccStats`]).
    pub publishes: u64,
    /// Snapshots pinned by the read path (from [`pdes_core::MvccStats`]).
    pub pins: u64,
}

/// Run one closed-loop point: `readers` reader threads for `window_ms`
/// milliseconds against a sustained writer. Returns `None` if the workload
/// fails to build or a query errors (the smoke gate turns that into a
/// failed run).
pub fn run_readers_under_writes(
    readers: usize,
    window_ms: u64,
    tuples: usize,
) -> Option<MvccMeasurement> {
    let system = cluster_system(CLUSTERS, tuples, 2);
    let session = Session::with_engine(
        QueryEngine::builder(system)
            .strategy(Strategy::Asp)
            .workers(1)
            .build(),
    );
    let queries: Vec<Query> = (0..CLUSTERS)
        .map(|i| {
            Query::named(
                PeerId::new(format!("A{i}")),
                Formula::atom(format!("RA{i}"), vec!["X", "Y"]),
                &["X", "Y"],
            )
        })
        .collect();
    // Warm every cluster head so the measurement window exercises the
    // steady state: warm reads racing commit-thread repairs.
    for query in &queries {
        let _ = session.query(query).ok()?;
    }

    let answered = AtomicU64::new(0);
    let commits = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_millis(window_ms);
    let failed = AtomicBool::new(false);

    let mut writer = session.writer().ok()?;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for reader in 0..readers {
            let handle = session.reader();
            let queries = &queries;
            let (answered, stop, failed) = (&answered, &stop, &failed);
            scope.spawn(move || {
                let mut round = reader;
                while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                    let query = &queries[round % CLUSTERS];
                    round += 1;
                    if handle.query(query).is_err() {
                        failed.store(true, Ordering::Relaxed);
                        stop.store(true, Ordering::Relaxed);
                        return;
                    }
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let (commits, stop, failed) = (&commits, &stop, &failed);
        scope.spawn(move || {
            let mut round = 0usize;
            while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                let peer = PeerId::new(format!("B{}", round % CLUSTERS));
                let relation = format!("RB{}", round % CLUSTERS);
                let delta = Delta::from_changes(
                    [GroundAtom::new(
                        relation,
                        Tuple::strs([format!("b14_{round}").as_str(), "v"]),
                    )],
                    [],
                );
                if writer.apply(&[Update::new(peer, delta)]).is_err() {
                    failed.store(true, Ordering::Relaxed);
                    stop.store(true, Ordering::Relaxed);
                    return;
                }
                commits.fetch_add(1, Ordering::Relaxed);
                round += 1;
            }
        });
    });
    let elapsed = start.elapsed().as_secs_f64();
    if failed.load(Ordering::Relaxed) {
        return None;
    }

    let total = answered.load(Ordering::Relaxed);
    let mvcc = session.mvcc_stats();
    Some(MvccMeasurement {
        reader_qps: total as f64 / elapsed.max(f64::EPSILON),
        commits: commits.load(Ordering::Relaxed),
        publishes: mvcc.publishes,
        pins: mvcc.pins,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_and_the_writer_both_make_progress() {
        let row = run_readers_under_writes(2, 120, 4).expect("closed loop runs");
        assert!(row.reader_qps > 0.0, "readers made progress: {row:?}");
        assert!(row.commits > 0, "the writer made progress: {row:?}");
        assert!(row.publishes >= row.commits, "every commit publishes");
        assert!(row.pins > 0, "reads pin epochs");
    }
}
