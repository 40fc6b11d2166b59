//! Snapshot-isolation (MVCC) integration tests — the tentpole guarantees:
//!
//! * property: under a sustained writer, an engine pointed at any reader's
//!   pinned epoch answers exactly like a fresh engine built on that epoch's
//!   hydrated system — for all four strategies, shards 1/2, pools 1/4;
//! * `Writer::commit` completes while a [`Snapshot`] is held, and the held
//!   snapshot stays frozen at its pre-commit epoch;
//! * timing — readers pinned to an epoch never block on a concurrent
//!   commit, demonstrated against a store whose `apply_delta` is
//!   artificially slowed;
//! * the `CacheMetrics` conflation regression: 8 readers hammering an
//!   artifact that the committing thread is repairing account for exactly
//!   one hit-or-miss per query — a read racing the patch never counts as a
//!   miss *and* a patch;
//! * stale-artifact races: a cold preparation that read the store before a
//!   commit never memoizes what it read as current, for every strategy;
//! * fault injection: a panic inside the commit-side repair leaves no
//!   reader blocked and no wrong answer behind.

use p2p_data_exchange::obs::Recorder;
use p2p_data_exchange::{
    example1_system, vars, ExecConfig, Formula, InProcessStore, P2PSystem, PeerId, PeerStore,
    Query, QueryEngine, Session, ShardedStore, Strategy, Tuple, Update, Version,
};
use proptest::prelude::*;
use relalg::database::{Database, GroundAtom};
use relalg::Delta;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use workload::{generate, generate_updates, TrustMix, UpdateSpec, WorkloadSpec};

const ALL_STRATEGIES: [Strategy; 4] = [
    Strategy::Naive,
    Strategy::Rewriting,
    Strategy::Asp,
    Strategy::TransitiveAsp,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A sustained writer commits a random update stream; after every commit
    /// the reader pins the just-published epoch. Each pinned epoch — served
    /// through the store's MVCC path by an engine whose store *is* the
    /// snapshot — answers exactly like a fresh engine built on the epoch's
    /// hydrated system, for every strategy, shard count and pool size, even
    /// though the live system has long since moved past the pin.
    #[test]
    fn pinned_epochs_answer_like_fresh_engines(seed in 0u64..10, batches in 1usize..3) {
        let w = generate(&WorkloadSpec {
            peers: 2,
            tuples_per_relation: 3,
            violations_per_dec: 1,
            trust_mix: TrustMix::AllLess,
            seed,
            ..WorkloadSpec::default()
        }).unwrap();
        let stream = generate_updates(&w, &UpdateSpec {
            batches,
            batch_size: 1,
            insert_percent: 70,
            hot_peer_percent: 100,
            seed,
        }).unwrap();
        let hot_q = Query::named("P1", Formula::atom("T1", vec!["X", "Y"]), &["X", "Y"]);
        let live_q = Query::new(w.queried_peer.clone(), w.query.clone(), w.free_vars.clone());

        for shards in [1usize, 2] {
            for pool in [1usize, 4] {
                let store = Arc::new(
                    ShardedStore::builder(w.system.clone())
                        .shards(shards)
                        .exec(ExecConfig::with_workers(pool))
                        .build(),
                );
                let session = Session::with_engine(
                    QueryEngine::builder(w.system.clone())
                        .store(store as Arc<dyn PeerStore>)
                        .strategy(Strategy::Asp)
                        .build(),
                );
                let mut writer = session.writer().unwrap();
                let mut pins = vec![session.pin().unwrap()];
                for batch in &stream {
                    let _ = writer
                        .apply(&[Update::new(batch.peer.clone(), batch.delta.clone())])
                        .unwrap();
                    pins.push(session.pin().unwrap());
                }
                for (i, pin) in pins.iter().enumerate() {
                    let hydrated = pin.system().unwrap();
                    // An engine whose store is the pinned snapshot itself…
                    let frozen = QueryEngine::builder(pin.topology().clone())
                        .store(Arc::new(pin.clone()) as Arc<dyn PeerStore>)
                        .build();
                    // …versus a fresh engine over the hydrated system.
                    let fresh = QueryEngine::builder(hydrated).build();
                    for strategy in ALL_STRATEGIES {
                        for q in [&live_q, &hot_q] {
                            let got = frozen
                                .answer_with(strategy, &q.peer, &q.query, &q.free_vars)
                                .unwrap();
                            let want = fresh
                                .answer_with(strategy, &q.peer, &q.query, &q.free_vars)
                                .unwrap();
                            prop_assert_eq!(
                                &got.tuples, &want.tuples,
                                "pin {} diverged: {:?} shards={} pool={}",
                                i, strategy, shards, pool
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn commits_complete_while_snapshots_are_held() {
    let session = Session::new(example1_system());
    let p2 = PeerId::new("P2");
    let pinned = session.pin().unwrap();
    let epoch_before = pinned.epoch();

    // The commit must neither block on nor invalidate the live pin.
    let mut writer = session.writer().unwrap();
    let mut tx = writer.begin();
    tx.insert(&p2, "R2", Tuple::strs(["held", "pin"])).unwrap();
    let receipt = tx
        .commit()
        .expect("commit completes while a Snapshot is held");
    assert_eq!(receipt.versions[&p2], Version(1));

    // The held snapshot is frozen at its pre-commit epoch and contents…
    assert_eq!(pinned.epoch(), epoch_before);
    assert_eq!(pinned.version_of(&p2).unwrap(), 0);
    assert_eq!(pinned.system().unwrap(), example1_system());
    // …while a fresh pin observes the published epoch.
    let fresh = session.pin().unwrap();
    assert!(fresh.epoch() > epoch_before);
    assert_eq!(fresh.version_of(&p2).unwrap(), 1);
}

/// An [`InProcessStore`] whose `apply_delta` sleeps with a flag raised —
/// the artificially slowed commit of the no-blocking acceptance test.
struct SlowCommitStore {
    inner: InProcessStore,
    committing: AtomicBool,
    delay: Duration,
}

impl SlowCommitStore {
    fn new(system: P2PSystem, delay: Duration) -> Self {
        SlowCommitStore {
            inner: InProcessStore::new(system),
            committing: AtomicBool::new(false),
            delay,
        }
    }
}

impl PeerStore for SlowCommitStore {
    fn topology(&self) -> &P2PSystem {
        self.inner.topology()
    }

    fn instance_of(&self, peer: &PeerId) -> p2p_data_exchange::core::Result<Database> {
        self.inner.instance_of(peer)
    }

    fn instances(
        &self,
        peers: &BTreeSet<PeerId>,
    ) -> p2p_data_exchange::core::Result<BTreeMap<PeerId, Database>> {
        self.inner.instances(peers)
    }

    fn snapshot(&self) -> p2p_data_exchange::core::Result<P2PSystem> {
        self.inner.snapshot()
    }

    fn apply_delta(&self, peer: &PeerId, delta: &Delta) -> p2p_data_exchange::core::Result<u64> {
        self.committing.store(true, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        let result = self.inner.apply_delta(peer, delta);
        self.committing.store(false, Ordering::SeqCst);
        result
    }

    fn insert(
        &self,
        peer: &PeerId,
        relation: &str,
        tuple: Tuple,
    ) -> p2p_data_exchange::core::Result<u64> {
        self.inner.insert(peer, relation, tuple)
    }

    fn delete(
        &self,
        peer: &PeerId,
        relation: &str,
        tuple: &Tuple,
    ) -> p2p_data_exchange::core::Result<bool> {
        self.inner.delete(peer, relation, tuple)
    }

    fn version_of(&self, peer: &PeerId) -> p2p_data_exchange::core::Result<u64> {
        self.inner.version_of(peer)
    }

    fn versions(&self) -> p2p_data_exchange::core::Result<p2p_data_exchange::VersionMap> {
        self.inner.versions()
    }

    fn pin(&self) -> p2p_data_exchange::core::Result<p2p_data_exchange::Snapshot> {
        self.inner.pin()
    }

    fn mvcc_stats(&self) -> p2p_data_exchange::MvccStats {
        self.inner.mvcc_stats()
    }

    fn symbols(&self) -> Arc<relalg::SymbolTable> {
        self.inner.symbols()
    }
}

/// The ISSUE acceptance criterion, verbatim: readers pinned to an epoch
/// never block on a concurrent `Writer::commit`. The store's `apply_delta`
/// is slowed to 400 ms; a warm read and a fresh pin taken *while the commit
/// is provably in flight* must complete in a fraction of that.
#[test]
fn pinned_readers_never_block_on_a_slow_commit() {
    let store = Arc::new(SlowCommitStore::new(
        example1_system(),
        Duration::from_millis(400),
    ));
    let session = Session::with_engine(
        QueryEngine::builder(example1_system())
            .store(store.clone() as Arc<dyn PeerStore>)
            .strategy(Strategy::Asp)
            .build(),
    );
    let p2 = PeerId::new("P2");
    let q3 = Query::named("P3", Formula::atom("R3", vec!["X", "Y"]), &["X", "Y"]);

    // Warm P3 (outside P2's closure) and pin the pre-commit epoch.
    let cold = session.query(&q3).unwrap();
    let pinned = session.pin().unwrap();

    let mut writer = session.writer().unwrap();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut tx = writer.begin();
            tx.insert(&p2, "R2", Tuple::strs(["slow", "commit"]))
                .unwrap();
            let _ = tx.commit().expect("slowed commit");
        });
        // Wait until the commit is inside the slowed apply_delta.
        while !store.committing.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let start = Instant::now();
        let warm = session.query(&q3).expect("read during commit");
        let mid_commit_pin = session.pin().expect("pin during commit");
        let elapsed = start.elapsed();
        assert!(warm.stats.cache_hit, "P3 stays warm during the commit");
        assert_eq!(warm.tuples, cold.tuples);
        // The commit has not published yet, so the pin is the old epoch…
        assert_eq!(mid_commit_pin.epoch(), pinned.epoch());
        // …and neither read waited out the 400 ms apply.
        assert!(
            elapsed < Duration::from_millis(200),
            "reader blocked on the in-flight commit: {elapsed:?}"
        );
    });

    // After the writer thread joins, the epoch advanced.
    assert!(session.pin().unwrap().epoch() > pinned.epoch());
}

/// The `CacheMetrics` conflation regression: 8 readers hammer the one
/// artifact the committing thread keeps repairing. Every read must count
/// exactly once — a reader landing on a stale entry mid-patch waits for the
/// committing thread and books a single hit (hit-after-patch), never a miss
/// plus a patch.
#[test]
fn racing_readers_count_once_per_query_during_patches() {
    const READERS: usize = 8;
    const QUERIES_PER_READER: usize = 30;
    const COMMITS: usize = 6;

    let session = Session::with_engine(
        QueryEngine::builder(example1_system())
            .strategy(Strategy::Asp)
            .build(),
    );
    let p2 = PeerId::new("P2");
    // P1's closure contains P2, so every commit invalidates + repairs the
    // artifact all readers are hammering.
    let q1 = Query::named("P1", Formula::atom("R1", vec!["X", "Y"]), &["X", "Y"]);
    let cold = session.query(&q1).unwrap();
    assert!(!cold.stats.cache_hit);
    let answered = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let handle = session.reader();
            let q1 = &q1;
            let answered = &answered;
            scope.spawn(move || {
                for _ in 0..QUERIES_PER_READER {
                    let _ = handle.query(q1).expect("read during patching");
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let mut writer = session.writer().unwrap();
        scope.spawn(move || {
            for round in 0..COMMITS {
                let mut tx = writer.begin();
                tx.insert(
                    &p2,
                    "R2",
                    Tuple::strs([format!("patch{round}"), "v".to_string()]),
                )
                .unwrap();
                let _ = tx.commit().expect("commit during reader storm");
            }
        });
    });

    assert_eq!(
        answered.load(Ordering::Relaxed),
        READERS * QUERIES_PER_READER
    );
    let metrics = session.metrics();
    // One cold miss up front, then exactly one hit-or-miss per racing read.
    assert_eq!(
        metrics.hits + metrics.misses,
        (1 + READERS * QUERIES_PER_READER) as u64,
        "a read racing a patch was double-counted: {metrics:?}"
    );
    assert_eq!(metrics.commits, COMMITS as u64);
    assert!(
        metrics.invalidated >= 1,
        "commits must invalidate P1's artifact"
    );
    assert!(metrics.patched >= 1, "commit-thread repair must be counted");
}

/// Parks the first thread that closes a `relevance` or `prepare` span until
/// the test releases it. Both spans close after a cold preparation has read
/// the store and before it memoizes what it read.
struct PauseFirstPreparation {
    armed: AtomicBool,
    reached: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Recorder for PauseFirstPreparation {
    fn span_exit(&self, label: &'static str, _at: Instant, _dur: Duration) {
        if matches!(label, "relevance" | "prepare") && self.armed.swap(false, Ordering::SeqCst) {
            self.reached.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
    }
}

fn r2_insert(a: &str, b: &str) -> Delta {
    Delta::from_changes([GroundAtom::new("R2", Tuple::strs([a, b]))], [])
}

/// The answers of a fresh engine over `engine`'s current system.
fn fresh_answers(engine: &QueryEngine, strategy: Strategy, peer: &PeerId) -> BTreeSet<Tuple> {
    let fresh = QueryEngine::builder(engine.snapshot_system().unwrap())
        .strategy(strategy)
        .build();
    fresh
        .answer(
            peer,
            &Formula::atom("R1", vec!["X", "Y"]),
            &vars(&["X", "Y"]),
        )
        .unwrap()
        .tuples
}

/// A cold preparation that read the store before a commit must not be
/// memoized as current: the commit lands while the reader is parked between
/// its store read and its cache insert, and the next query must see the
/// committed tuple. Every artifact's stamp is read before its preparation
/// reads the store, and an artifact whose stamp a commit has since moved is
/// not memoized, so the racing artifact is never served. A second commit
/// before the next query — one the slice observes (repaired in place) and
/// an empty one (stamp refreshed in place) — must not revalidate it either.
#[test]
fn cold_preparations_racing_a_commit_never_serve_pre_commit_data() {
    let p1 = PeerId::new("P1");
    let p2 = PeerId::new("P2");
    let query = Formula::atom("R1", vec!["X", "Y"]);
    let fv = vars(&["X", "Y"]);
    let second_commits = [None, Some(r2_insert("n", "o")), Some(Delta::default())];
    for strategy in ALL_STRATEGIES {
        for second in &second_commits {
            let (reached_tx, reached) = mpsc::channel();
            let (release, release_rx) = mpsc::channel();
            let engine = QueryEngine::builder(example1_system())
                .strategy(strategy)
                .recorder(Arc::new(PauseFirstPreparation {
                    armed: AtomicBool::new(true),
                    reached: Mutex::new(reached_tx),
                    release: Mutex::new(release_rx),
                }))
                .build();
            std::thread::scope(|scope| {
                let reader = scope.spawn(|| engine.answer(&p1, &query, &fv));
                reached.recv().expect("the reader reaches its preparation");
                engine.commit_delta(&p2, &r2_insert("k", "m")).unwrap();
                release.send(()).unwrap();
                let _ = reader.join().unwrap().expect("the racing read answers");
            });
            if let Some(delta) = second {
                engine.commit_delta(&p2, delta).unwrap();
            }
            let after = engine.answer(&p1, &query, &fv).unwrap();
            let case = format!("{strategy:?}, second commit {second:?}");
            assert_eq!(
                after.tuples,
                fresh_answers(&engine, strategy, &p1),
                "{case}"
            );
            assert!(after.contains(&Tuple::strs(["k", "m"])), "{case}");
        }
    }
}

/// Panics on the first `cache.stale_patch`: the commit-side repair fails
/// mid-patch.
struct PanicOnFirstPatch(AtomicBool);

impl Recorder for PanicOnFirstPatch {
    fn count(&self, name: &'static str, _delta: u64) {
        if name == "cache.stale_patch" && self.0.swap(false, Ordering::SeqCst) {
            panic!("injected fault in the commit-side repair");
        }
    }
}

/// A panic inside the commit-side repair unwinds the commit, but leaves no
/// reader of the staled slice blocked and no stale answer behind: the next
/// read returns within a bound with a fresh engine's answers, and later
/// commits keep the engine correct.
#[test]
fn a_panicking_repair_blocks_no_reader_and_serves_no_stale_answer() {
    let engine = Arc::new(
        QueryEngine::builder(example1_system())
            .strategy(Strategy::Asp)
            .recorder(Arc::new(PanicOnFirstPatch(AtomicBool::new(true))))
            .build(),
    );
    let p1 = PeerId::new("P1");
    let query = Formula::atom("R1", vec!["X", "Y"]);
    let fv = vars(&["X", "Y"]);
    let _ = engine.answer(&p1, &query, &fv).unwrap();
    // R3(c, z) conflicts with the R1(c, d) that P1 imports: it stales P1's
    // slice, and its repair hits the injected fault.
    let delta = Delta::from_changes([GroundAtom::new("R3", Tuple::strs(["c", "z"]))], []);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.commit_delta(&PeerId::new("P3"), &delta)
    }));
    assert!(unwound.is_err(), "the injected fault unwinds the commit");

    let (tx, rx) = mpsc::channel();
    let reader = {
        let (engine, p1, query, fv) = (Arc::clone(&engine), p1.clone(), query.clone(), fv.clone());
        std::thread::spawn(move || tx.send(engine.answer(&p1, &query, &fv).map(|a| a.tuples)))
    };
    let read = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("a reader returns within 5 s of the failed repair")
        .unwrap();
    reader.join().unwrap().unwrap();
    assert_eq!(read, fresh_answers(&engine, Strategy::Asp, &p1));

    engine
        .commit_delta(&PeerId::new("P2"), &r2_insert("k", "m"))
        .unwrap();
    let read = engine.answer(&p1, &query, &fv).unwrap().tuples;
    assert_eq!(read, fresh_answers(&engine, Strategy::Asp, &p1));
}
