//! A multi-threaded serving loop over a live mutation stream — the MVCC
//! snapshot-isolation API end to end.
//!
//! Four server threads share one [`Session`] through cloned
//! [`ReadHandle`]s and answer peer-consistent queries in a closed loop,
//! while the session's single [`Writer`] drains a generated update stream,
//! committing one batch at a time. Readers pin published epochs: they are
//! never blocked by an in-flight commit, and artifacts invalidated by a
//! commit are repaired *on the committing thread*, so the serve loop stays
//! on the warm path throughout. Per-request latency lands in a shared
//! lock-free [`Histogram`]; the example prints the p50/p99 and aggregate
//! QPS, then proves the served answers equal
//! a fresh engine built on the final snapshot.
//!
//! Run with `cargo run --release --example server`.

use p2p_data_exchange::{Formula, Histogram, Query, QueryEngine, Session, Strategy, Update};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use workload::{generate, generate_updates, Topology, TrustMix, UpdateSpec, WorkloadSpec};

/// Server threads (each a cloned `ReadHandle` over the shared session).
const SERVERS: usize = 4;

fn main() {
    // A small star workload: P1 is the hub, every mutation's closure
    // contains it, so the serve loop keeps racing commit-thread repairs.
    let w = generate(&WorkloadSpec {
        peers: 4,
        tuples_per_relation: 6,
        violations_per_dec: 1,
        trust_mix: TrustMix::AllLess,
        topology: Topology::Star,
        ..WorkloadSpec::default()
    })
    .expect("valid workload spec");
    let stream = generate_updates(
        &w,
        &UpdateSpec {
            batches: 24,
            batch_size: 2,
            ..UpdateSpec::default()
        },
    )
    .expect("valid update spec");

    let session = Session::with_engine(
        QueryEngine::builder(w.system.clone())
            .strategy(Strategy::Asp)
            .build(),
    );
    // Every peer's canonical query — the "requests" the servers rotate over.
    let requests: Vec<Query> = w
        .system
        .peers()
        .map(|p| {
            let relation = p
                .schema
                .relation_names()
                .next()
                .expect("every peer owns a relation");
            Query::named(
                p.id.clone(),
                Formula::atom(relation, vec!["X", "Y"]),
                &["X", "Y"],
            )
        })
        .collect();

    let latency = Histogram::new();
    let served = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let mut writer = session.writer().expect("claim the single writer");

    println!("serving {} peers on {SERVERS} threads…", requests.len());
    let start = Instant::now();
    std::thread::scope(|scope| {
        // The serve loop: closed-loop readers until the stream drains.
        for server in 0..SERVERS {
            let handle = session.reader();
            let (requests, latency, served, done) = (&requests, &latency, &served, &done);
            scope.spawn(move || {
                let mut round = server;
                while !done.load(Ordering::Relaxed) {
                    let request = &requests[round % requests.len()];
                    round += 1;
                    let t0 = Instant::now();
                    let answers = handle.query(request).expect("serve a pinned read");
                    latency.record(t0.elapsed().as_micros() as u64);
                    served.fetch_add(1, Ordering::Relaxed);
                    assert!(answers.stats.worlds >= 1);
                }
            });
        }
        // The mutation stream: the single writer commits batch by batch.
        let done = &done;
        scope.spawn(move || {
            for batch in &stream {
                let receipt = writer
                    .apply(&[Update::new(batch.peer.clone(), batch.delta.clone())])
                    .expect("commit a stream batch");
                // Pace the stream so the servers interleave with commits.
                std::thread::sleep(Duration::from_millis(2));
                drop(receipt);
            }
            done.store(true, Ordering::Relaxed);
        });
    });
    let elapsed = start.elapsed().as_secs_f64();

    let total = served.load(Ordering::Relaxed);
    println!(
        "served {total} requests in {:.0} ms across {} commits",
        elapsed * 1e3,
        session.current_seq()
    );
    println!(
        "reader latency: p50 {} us, p99 {} us — {:.0} requests/s",
        latency.quantile(0.50),
        latency.quantile(0.99),
        total as f64 / elapsed
    );
    println!(
        "engine metrics: {:?}\nmvcc: {:?}",
        session.metrics(),
        session.mvcc_stats()
    );

    // Correctness bar: the live answers equal a fresh engine built on the
    // final snapshot — snapshot isolation changed scheduling, not answers.
    let fresh = QueryEngine::builder(session.current_system().expect("final snapshot"))
        .strategy(Strategy::Asp)
        .build();
    for request in &requests {
        let live = session.query(request).expect("live answer");
        let reference = fresh
            .answer(&request.peer, &request.query, &request.free_vars)
            .expect("fresh answer");
        assert_eq!(
            live.tuples, reference.tuples,
            "diverged at {}",
            request.peer
        );
    }
    println!(
        "all {} peers' answers verified against a fresh engine",
        requests.len()
    );
}
