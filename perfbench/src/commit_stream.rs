//! `commit-stream`: a `Session` over the `Mixed` star with every slice warm,
//! one open-loop writer and one closed-loop reader.
//!
//! The writer replays `generate_updates` at a fixed rate (70% inserts, 80%
//! of batches to the hot peer `P1`, 2 atoms per batch); each commit is timed
//! from its scheduled start, so a stall also delays the commits behind it.
//! A round commits rate × round length batches, a fixed number, so the patch
//! work repeats exactly at a fixed seed. The reader re-answers every peer's
//! query through a `ReadHandle` until the writer is done. After each round
//! every peer's answer is compared with a fresh engine built over
//! `Session::current_system`.

use crate::client::Client;
use crate::inputs::{generate, scan, Answer, QueryOp, Rng};
use crate::reads::{build_engine, ms_since};
use crate::replay::Replayer;
use crate::stats::{self, Checks, Summary};
use crate::trace::Tracer;
use crate::{Config, Measured};
use pdes_core::{P2PSystem, Strategy};
use pdes_session::{ReadHandle, Session, Update};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workload::{generate_updates, UpdateBatch, UpdateSpec};

/// The writer calibrates before a commit when it has this much time to
/// spare; the reader recalibrates this often.
const CALIBRATION_SLACK: Duration = Duration::from_millis(20);
const READER_CALIBRATION: Duration = Duration::from_millis(100);

/// Seed of the update stream's composition.
const STREAM_SEED: u64 = 7;

/// Operation ids of the two threads, kept apart in the merged trace.
const WRITER_OPS: u64 = 1 << 32;
const READER_OPS: u64 = 2 << 32;

/// Length of one round of the commit stream. An untraced run repeats the
/// same stream once per round, each time on a fresh session, and each
/// commit's latency is its fastest over the rounds; a traced run makes one
/// round.
const ROUND_SECONDS: f64 = 5.0;

pub fn run(config: &Config, tr: &mut Tracer) -> Result<(Measured, Checks), String> {
    let specs = config.size.specs();
    let generated = generate(&specs.star)?;
    let ops: Vec<QueryOp> = (0..specs.star.peers)
        .map(|i| {
            QueryOp::new(
                0,
                Strategy::Asp,
                &format!("P{i}"),
                scan(&format!("T{i}")),
                &["X", "Y"],
            )
        })
        .collect();
    let rate = specs.commit_rate;
    let rounds = (config.seconds / ROUND_SECONDS).round().max(1.0) as usize;
    let commits = (rate * config.seconds / rounds as f64).round().max(1.0) as usize;
    // The stream's composition (which batches hit the hot peer, which
    // atoms are inserts) is fixed; the seed orders it. Every seed so
    // commits the same work and ends on the same data.
    let mut updates = generate_updates(
        &generated,
        &UpdateSpec {
            batches: commits,
            batch_size: 2,
            insert_percent: 70,
            hot_peer_percent: 80,
            seed: STREAM_SEED,
        },
    )
    .map_err(|e| e.to_string())?;
    Rng::new(config.seed).shuffle(&mut updates);

    let mut checks = Checks::default();
    let mut measured = Measured::default();
    let setups = if tr.enabled() { 1 } else { specs.setups };
    let mut built = None;
    for _ in 0..setups {
        let (session, replayer, secs) = set_up(tr, &generated.system, &ops, &mut checks)?;
        measured.setup_s.push(secs);
        built = Some((session, replayer));
    }
    let (mut session, mut replayer) = built.expect("at least one set-up");

    if tr.enabled() {
        // Tracing overhead, on the reader alone before the writer starts: an
        // untraced quarter-window, then a traced one whose spans are
        // dropped.
        let quarter = config.window() / 4;
        let mut quiet = Tracer::new(false, Instant::now());
        let untraced = timed_reads(&session, &ops, &mut quiet, quarter, &mut checks);
        let traced = timed_reads(&session, &ops, &mut tr.fork(), quarter, &mut checks);
        let p50 = |passes: &[Vec<f64>]| stats::median(&stats::fastest_of(passes, stats::REPEATS));
        tr.sample(
            "trace.overhead_ratio",
            stats::ratio(p50(&traced), p50(&untraced)),
        );
    }

    let rounds = if tr.enabled() { 1 } else { rounds };
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        if round > 0 {
            let mut quiet = Tracer::new(false, Instant::now());
            (session, replayer, _) = set_up(&mut quiet, &generated.system, &ops, &mut checks)?;
        }
        let (read, write) = stream(
            &session,
            &ops,
            &updates,
            rate,
            tr,
            &mut replayer,
            &mut checks,
        )?;
        reads.extend(read);
        writes.push(write);
        if round == 0 {
            measured.cache_bytes = session.engine().cached_bytes();
        }
        final_check(&session, &ops, &mut replayer, tr, &mut checks)?;
    }
    measured.queries = Summary::of(&stats::fastest_of(&reads, stats::REPEATS));
    measured.ops = Summary::of(&stats::fastest_of(&writes, writes.len()));
    Ok((measured, checks))
}

/// Build the session and answer every query once, so every slice is warm.
/// Returns the session, the replayer holding the slices it prepared, and
/// the set-up time in seconds.
fn set_up(
    tr: &mut Tracer,
    system: &P2PSystem,
    ops: &[QueryOp],
    checks: &mut Checks,
) -> Result<(Session, Replayer, f64), String> {
    let system = system.clone();
    tr.set_counting(true);
    let slowdown = stats::slowdown();
    let start = Instant::now();
    let session = Session::try_with_engine(build_engine(tr, system, Strategy::Asp))
        .map_err(|e| e.to_string())?;
    let mut client = Client::new(std::slice::from_ref(session.engine()), false)?;
    let (warmup_ms, answers) = client.warm_up(tr, ops, checks);
    let secs = start.elapsed().as_secs_f64() / slowdown;
    tr.sample("setup.warmup_ms", warmup_ms);
    tr.set_counting(false);
    if !tr.enabled() {
        client.validate(ops, &answers, checks);
    }
    let replayer = client.into_replayers().pop().expect("one engine");
    Ok((session, replayer, secs))
}

/// One pass of the commit stream with the reader running beside it.
/// Returns the reader's latencies per pass over the queries, and each
/// commit's latency from its scheduled start.
fn stream(
    session: &Session,
    ops: &[QueryOp],
    updates: &[UpdateBatch],
    rate: f64,
    tr: &mut Tracer,
    replayer: &mut Replayer,
    checks: &mut Checks,
) -> Result<(Vec<Vec<f64>>, Vec<f64>), String> {
    let (metrics, mvcc) = (session.metrics(), session.mvcc_stats());
    // Pins the traced reader takes to time them are the benchmark's.
    let own_pins = tr.span_count("store.pin");
    let done = AtomicBool::new(false);
    let mut writer_tr = tr.fork();
    let mut reader_tr = tr.fork();
    let mut reader_checks = Checks::default();
    let (written, query_ms) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let out = write_loop(session, updates, rate, &mut writer_tr);
            done.store(true, Ordering::SeqCst);
            out
        });
        let query_ms = read_loop(
            &session.reader(),
            ops,
            &mut reader_tr,
            &done,
            &mut reader_checks,
        );
        (writer.join(), query_ms)
    });
    let written = written.map_err(|_| "the writer thread panicked".to_string())??;
    tr.merge(writer_tr);
    tr.merge(reader_tr);
    checks.absorb(written.checks);
    checks.absorb(reader_checks);
    if tr.enabled() {
        // Replay the logged (normalized) commits in order, after the run so
        // the replay neither delays the writer nor competes with the reader.
        tr.set_counting(true);
        for tx in session.log() {
            tr.begin_op(written.ops.get(&tx.seq).copied().unwrap_or(0));
            let replayed = tr.span("replay", |tr| {
                tx.changes
                    .iter()
                    .try_for_each(|(peer, delta)| replayer.commit(tr, peer, delta))
            });
            if let Err(e) = &replayed {
                eprintln!("replay of commit {} failed: {e}", tx.seq);
            }
            checks.record(replayed.is_ok());
        }
        tr.set_counting(false);
    }

    let after = session.metrics();
    let (hits, misses) = (after.hits - metrics.hits, after.misses - metrics.misses);
    tr.sample(
        "engine.cache_hit_ratio",
        stats::ratio(hits as f64, (hits + misses) as f64),
    );
    tr.sample(
        "engine.cache_patched",
        (after.patched - metrics.patched) as f64,
    );
    let mvcc_after = session.mvcc_stats();
    let own_pins = (tr.span_count("store.pin") - own_pins) as u64;
    tr.sample(
        "store.pins",
        (mvcc_after.pins - mvcc.pins).saturating_sub(own_pins) as f64,
    );
    tr.sample(
        "store.epochs_published",
        (mvcc_after.publishes - mvcc.publishes) as f64,
    );
    tr.sample(
        "session.lateness_ms",
        stats::quantile(&written.lateness_ms, 0.95),
    );
    eprintln!(
        "commit-stream: {} commits at {rate}/s; generator lateness p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
        written.commit_ms.len(),
        stats::quantile(&written.lateness_ms, 0.5),
        stats::quantile(&written.lateness_ms, 0.95),
        stats::quantile(&written.lateness_ms, 1.0),
    );
    Ok((query_ms, written.commit_ms))
}

struct Written {
    commit_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    checks: Checks,
    /// Commit sequence number → operation id of its `session.apply` span.
    ops: BTreeMap<u64, u64>,
}

/// The open-loop writer: commit `updates[k]` at `k / rate` seconds after the
/// start, whether or not the previous commit finished on time.
fn write_loop(
    session: &Session,
    updates: &[UpdateBatch],
    rate: f64,
    tr: &mut Tracer,
) -> Result<Written, String> {
    let mut writer = session.writer().map_err(|e| e.to_string())?;
    let mut out = Written {
        commit_ms: Vec::with_capacity(updates.len()),
        lateness_ms: Vec::with_capacity(updates.len()),
        checks: Checks::default(),
        ops: BTreeMap::new(),
    };
    let start = Instant::now();
    let mut slowdown = stats::slowdown();
    for (k, batch) in updates.iter().enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        if due > Instant::now() + CALIBRATION_SLACK {
            slowdown = stats::slowdown();
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.lateness_ms.push(ms_since(due));
        tr.begin_op(WRITER_OPS + k as u64);
        let update = Update::new(batch.peer.clone(), batch.delta.clone());
        let result = tr.span("session.apply", |_| writer.apply(&[update]));
        out.commit_ms.push(ms_since(due) / slowdown);
        match &result {
            Ok(receipt) => out.ops.insert(receipt.seq, WRITER_OPS + k as u64),
            Err(e) => {
                eprintln!("commit {k} failed: {e}");
                None
            }
        };
        out.checks.record(result.is_ok());
    }
    Ok(out)
}

/// The closed-loop reader: re-answer every peer's query until `done`.
/// Traced, each iteration also pins and hydrates a snapshot, timing the
/// store's read path under the live writer.
fn read_loop(
    reader: &ReadHandle,
    ops: &[QueryOp],
    tr: &mut Tracer,
    done: &AtomicBool,
    checks: &mut Checks,
) -> Vec<Vec<f64>> {
    let mut passes = Vec::new();
    let mut next = READER_OPS;
    let mut slowdown = stats::slowdown();
    let mut calibrated = Instant::now();
    while !done.load(Ordering::SeqCst) {
        if calibrated.elapsed() > READER_CALIBRATION {
            slowdown = stats::slowdown();
            calibrated = Instant::now();
        }
        let mut pass = Vec::with_capacity(ops.len());
        for op in ops {
            next += 1;
            tr.begin_op(next);
            if tr.enabled() {
                if let Ok(snapshot) = tr.span("store.pin", |_| reader.pin()) {
                    let _ = tr.span("store.hydrate", |_| snapshot.system());
                }
            }
            let start = Instant::now();
            let result = tr.span("engine.answer", |_| reader.query(&op.query));
            pass.push(ms_since(start) / slowdown);
            if let Err(e) = &result {
                eprintln!("read of {:?} failed: {e}", op.query);
            }
            checks.record(result.is_ok());
        }
        passes.push(pass);
    }
    passes
}

/// The reader alone for `window`.
fn timed_reads(
    session: &Session,
    ops: &[QueryOp],
    tr: &mut Tracer,
    window: Duration,
    checks: &mut Checks,
) -> Vec<Vec<f64>> {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(window);
            done.store(true, Ordering::SeqCst);
        });
        read_loop(&session.reader(), ops, tr, &done, checks)
    })
}

/// Every peer's session answer against a fresh engine over the session's
/// current system, and (traced) against the replay's patched worlds.
fn final_check(
    session: &Session,
    ops: &[QueryOp],
    replayer: &mut Replayer,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<(), String> {
    let current = session.current_system().map_err(|e| e.to_string())?;
    let mut quiet = Tracer::new(false, Instant::now());
    let fresh = build_engine(&mut quiet, current, Strategy::Asp);
    for op in ops {
        let live: Result<Answer, String> = session
            .query(&op.query)
            .map(|a| a.tuples)
            .map_err(|e| e.to_string());
        let oracle = op.answer(&fresh).map(|a| a.tuples);
        let mut ok = live.is_ok() && live == oracle;
        if tr.enabled() {
            ok &= replayer.answer(&mut quiet, session.engine(), op, true) == live;
        }
        if !ok {
            eprintln!(
                "final answer of {:?} disagrees: live {live:?}, fresh {oracle:?}",
                op.query
            );
        }
        checks.record(ok);
    }
    Ok(())
}
