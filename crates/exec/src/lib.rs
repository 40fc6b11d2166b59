//! # pdes-exec — scoped thread-pool execution with deterministic ordering
//!
//! The answering pipeline is embarrassingly parallel at two levels: disjoint
//! relevant-peer closures can be prepared independently, and the per-query
//! work (stable-model subtree search, per-world query evaluation, per-peer IC
//! revalidation) splits along items that never observe each other. This crate
//! provides the one primitive all of those call sites share: *run a closure
//! over every item of a slice, possibly on several threads, and hand the
//! results back in input order*.
//!
//! It is built on [`std::thread::scope`] only — no crates.io dependencies —
//! so borrowed data (the engine, the system, prepared worlds) flows into
//! workers without `Arc`-wrapping or cloning.
//!
//! ## Determinism
//!
//! [`Executor::map`] always returns `out[i] == f(&items[i])` with the output
//! index matching the input index, regardless of the worker count or
//! scheduling. Callers that fold the results (intersections, unions, table
//! rows) therefore observe the exact sequential order, which is what makes
//! the parallel engine byte-identical to the sequential one. The work is
//! distributed dynamically (an atomic next-item cursor), so determinism costs
//! no load-balancing.
//!
//! ## Sequential fallback
//!
//! A pool of size 1 (or a slice of length ≤ 1) never spawns: `map` degrades
//! to a plain in-place loop on the calling thread. Code can therefore be
//! written once against the executor and tuned purely through [`ExecConfig`].
//!
//! ```
//! use pdes_exec::{ExecConfig, Executor};
//!
//! let exec = Executor::new(ExecConfig::with_workers(4));
//! let squares = exec.map(&[1u64, 2, 3, 4], |&n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use pdes_obs::{duration_nanos, Recorder};
use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a parallel execution context: how many workers to use.
///
/// The default is a single worker (purely sequential), so parallelism is
/// always an explicit opt-in at the call site that owns the configuration
/// (e.g. `QueryEngineBuilder::exec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads. `1` means sequential execution on the
    /// calling thread (nothing is spawned); `0` is normalized to the
    /// machine's available parallelism at construction time.
    pub workers: usize,
}

impl ExecConfig {
    /// Sequential execution (one worker).
    pub fn sequential() -> Self {
        ExecConfig { workers: 1 }
    }

    /// A pool with `workers` threads (`0` = one thread per available core).
    pub fn with_workers(workers: usize) -> Self {
        ExecConfig {
            workers: normalize_workers(workers),
        }
    }

    /// True when this configuration never spawns worker threads.
    pub fn is_sequential(&self) -> bool {
        self.workers <= 1
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::sequential()
    }
}

/// Resolve a requested worker count: `0` means "one per available core".
fn normalize_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        workers
    }
}

/// A scoped fork-join executor. Holds no threads of its own — workers are
/// spawned per [`Executor::map`] call inside a [`std::thread::scope`], which
/// is what lets closures borrow from the caller's stack. Spawning a thread
/// is ~10µs; every call site in this workspace amortizes that over solver
/// search, query evaluation or constraint checking, all of which dominate.
///
/// An executor may carry a [`pdes_obs::Recorder`]
/// ([`Executor::with_recorder`]): parallel `map` calls then record each
/// task's *claim latency* (time from fan-out start to the worker claiming
/// the task — queueing delay plus upstream task time) in the
/// `exec.claim_nanos` histogram and count claimed tasks in `exec.tasks`.
/// The sequential path and recorder-less executors record nothing.
#[derive(Clone, Default)]
pub struct Executor {
    config: ExecConfig,
    recorder: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("config", &self.config)
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl Executor {
    /// An executor over the given configuration.
    pub fn new(config: ExecConfig) -> Self {
        Executor {
            config,
            recorder: None,
        }
    }

    /// A sequential executor (never spawns).
    pub fn sequential() -> Self {
        Executor::new(ExecConfig::sequential())
    }

    /// Attach a recorder for task claim/queue latency instrumentation.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<dyn Recorder>> {
        self.recorder.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// Number of workers `map` will use for a slice of `len` items (capped
    /// by the item count — a worker without work is never spawned).
    pub fn workers_for(&self, len: usize) -> usize {
        self.config.workers.max(1).min(len.max(1))
    }

    /// Apply `f` to every item, returning the results *in input order*.
    ///
    /// With one worker (or ≤ 1 item) this is a plain loop on the calling
    /// thread. Otherwise items are claimed dynamically by an atomic cursor
    /// and each result is written into its input slot, so the output is
    /// independent of scheduling. A panic in `f` propagates to the caller
    /// once all workers have stopped (no result is silently dropped).
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.map_indexed(items, |_, item| f(item))
    }

    /// [`Executor::map`], with the item index passed to the closure.
    pub fn map_indexed<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let workers = self.workers_for(items.len());
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        // Workers claim indices from the shared cursor and collect
        // `(index, result)` pairs locally — no per-item synchronization;
        // the locals are merged into input-order slots after the join.
        let recorder = self.recorder.as_deref().filter(|r| r.is_enabled());
        let fanout_start = Instant::now();
        if let Some(recorder) = recorder {
            recorder.count("exec.maps", 1);
            recorder.count("exec.tasks", items.len() as u64);
        }
        let cursor = AtomicUsize::new(0);
        let collected: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            if let Some(recorder) = recorder {
                                recorder.observe(
                                    "exec.claim_nanos",
                                    duration_nanos(fanout_start.elapsed()),
                                );
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        let mut out: Vec<Option<U>> = items.iter().map(|_| None).collect();
        for (i, value) in collected.into_iter().flatten() {
            out[i] = Some(value);
        }
        out.into_iter()
            .map(|slot| slot.expect("every index is claimed by exactly one worker"))
            .collect()
    }

    /// Apply a fallible `f` to every item; returns all results in input
    /// order, or the error of the *lowest-indexed* failing item.
    ///
    /// The sequential path short-circuits at the first error, the parallel
    /// path may evaluate later items before discovering it — but both return
    /// the same `Err` value (the first in input order), keeping observable
    /// behaviour deterministic.
    pub fn try_map<T, U, E, F>(&self, items: &[T], f: F) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(&T) -> Result<U, E> + Sync,
    {
        let workers = self.workers_for(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let results = self.map(items, f);
        let mut out = Vec::with_capacity(results.len());
        for result in results {
            out.push(result?);
        }
        Ok(out)
    }

    /// Intersect the sets `f(item)` over every item (the empty set for no
    /// items) — the certain-answer fold over worlds or repairs.
    ///
    /// Each worker streams one contiguous chunk into a running
    /// intersection, so at most one partial set per worker is live (exactly
    /// one on the sequential path), never one per item. A running
    /// intersection that empties stops its fold: no later item of that
    /// chunk (of the slice, on the sequential path) is evaluated. Set
    /// intersection commutes, so the result is identical for every pool
    /// size; an error is the one of the first failing item in input order
    /// that the sequential fold reaches, i.e. one met before the
    /// intersection of the items ahead of it is empty.
    pub fn try_intersect<T, U, E, F>(&self, items: &[T], f: F) -> Result<BTreeSet<U>, E>
    where
        T: Sync,
        U: Ord + Clone + Send,
        E: Send,
        F: Fn(&T) -> Result<BTreeSet<U>, E> + Sync,
    {
        let meet = |acc: Option<BTreeSet<U>>, these: BTreeSet<U>| match acc {
            None => these,
            Some(acc) => acc.intersection(&these).cloned().collect(),
        };
        // A chunk's running intersection up to where its fold stopped, and
        // the error it stopped on, if any.
        let fold = |chunk: &[T]| -> (Option<BTreeSet<U>>, Option<E>) {
            let mut acc: Option<BTreeSet<U>> = None;
            for item in chunk {
                match f(item) {
                    Ok(these) => acc = Some(meet(acc, these)),
                    Err(e) => return (acc, Some(e)),
                }
                if acc.as_ref().is_some_and(BTreeSet::is_empty) {
                    break;
                }
            }
            (acc, None)
        };
        let workers = self.workers_for(items.len());
        let chunks = if workers <= 1 {
            vec![fold(items)]
        } else {
            let chunks: Vec<&[T]> = items.chunks(items.len().div_ceil(workers)).collect();
            self.map(&chunks, |chunk| fold(chunk))
        };
        // Merge in input order, as the sequential fold would meet them: an
        // intersection that is already empty ends the fold before any later
        // chunk's error.
        let mut certain: Option<BTreeSet<U>> = None;
        for (acc, error) in chunks {
            if let Some(acc) = acc {
                certain = Some(meet(certain, acc));
            }
            if certain.as_ref().is_some_and(BTreeSet::is_empty) {
                break;
            }
            if let Some(e) = error {
                return Err(e);
            }
        }
        Ok(certain.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_config_is_the_default() {
        let config = ExecConfig::default();
        assert_eq!(config.workers, 1);
        assert!(config.is_sequential());
    }

    #[test]
    fn zero_workers_resolve_to_available_parallelism() {
        let config = ExecConfig::with_workers(0);
        assert!(config.workers >= 1);
        assert!(!ExecConfig::with_workers(8).is_sequential());
    }

    #[test]
    fn map_preserves_input_order_across_pool_sizes() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|n| n * 3 + 1).collect();
        for workers in [1, 2, 4, 8] {
            let exec = Executor::new(ExecConfig::with_workers(workers));
            assert_eq!(
                exec.map(&items, |&n| n * 3 + 1),
                expected,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn map_indexed_passes_matching_indices() {
        let items = ["a", "b", "c", "d", "e"];
        let exec = Executor::new(ExecConfig::with_workers(3));
        let out = exec.map_indexed(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn all_items_run_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<usize> = (0..64).collect();
        let exec = Executor::new(ExecConfig::with_workers(8));
        let seen: BTreeSet<usize> = exec
            .map(&items, |&i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i
            })
            .into_iter()
            .collect();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn try_map_returns_the_first_error_in_input_order() {
        let items: Vec<u32> = (0..40).collect();
        for workers in [1, 4] {
            let exec = Executor::new(ExecConfig::with_workers(workers));
            let result = exec.try_map(&items, |&n| if n % 7 == 3 { Err(n) } else { Ok(n) });
            assert_eq!(result, Err(3), "{workers} workers");
            let ok = exec.try_map(&items, |&n| Ok::<_, u32>(n * 2));
            assert_eq!(ok.unwrap()[13], 26);
        }
    }

    #[test]
    fn try_intersect_matches_the_sequential_fold() {
        // Item n contributes the multiples of n below 60; lcm(1..=6) = 60.
        let items: Vec<u32> = (1..=6).collect();
        let multiples = |&n: &u32| Ok::<_, u32>((0..60).filter(|m| m % n == 0).collect());
        let expected = BTreeSet::from([0]);
        for workers in [1, 2, 4, 8] {
            let exec = Executor::new(ExecConfig::with_workers(workers));
            assert_eq!(exec.try_intersect(&items, multiples), Ok(expected.clone()));
            let failing =
                exec.try_intersect(&items, |&n| if n > 3 { Err(n) } else { multiples(&n) });
            assert_eq!(failing, Err(4), "{workers} workers");
            assert_eq!(
                exec.try_intersect(&[] as &[u32], multiples),
                Ok(BTreeSet::new())
            );
        }
    }

    #[test]
    fn try_intersect_stops_once_the_intersection_is_empty() {
        // Items 0..4 keep {0, 1}, item 4 empties the intersection, and the
        // items after it fail: the fold never reaches them.
        let items: Vec<u32> = (0..12).collect();
        let sets = |n: u32| -> Result<BTreeSet<u32>, u32> {
            match n {
                0..=3 => Ok(BTreeSet::from([0, 1, n + 2])),
                4 => Ok(BTreeSet::from([7])),
                _ => Err(n),
            }
        };
        let calls = AtomicU64::new(0);
        let counted = |&n: &u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            sets(n)
        };
        let sequential = Executor::sequential().try_intersect(&items, counted);
        assert_eq!(sequential, Ok(BTreeSet::new()));
        assert_eq!(
            calls.load(Ordering::Relaxed),
            5,
            "items after 4 are skipped"
        );
        // An error met before the intersection empties is returned.
        let failing = |&n: &u32| if n == 2 { Err(n) } else { sets(n) };
        assert_eq!(
            Executor::sequential().try_intersect(&items, failing),
            Err(2)
        );
        // Items 0..4 keep {0, 1}; every pool size agrees with the
        // sequential fold, whichever chunk empties or fails first.
        let shifted = |&n: &u32| if n < 4 { sets(n) } else { sets(n - 1) };
        // The second chunk of two fails only after an item that already
        // empties the intersection with the first chunk's.
        let late = |&n: &u32| match n {
            0 | 1 => Ok(BTreeSet::from([1])),
            2 => Ok(BTreeSet::from([2])),
            _ => Err(n),
        };
        assert_eq!(
            Executor::new(ExecConfig::with_workers(2)).try_intersect(&items[..4], late),
            Ok(BTreeSet::new())
        );
        for workers in [1, 2, 4, 8] {
            let exec = Executor::new(ExecConfig::with_workers(workers));
            assert_eq!(
                exec.try_intersect(&items, |n| sets(*n)),
                sequential,
                "{workers} workers"
            );
            assert_eq!(
                exec.try_intersect(&items, failing),
                Err(2),
                "{workers} workers"
            );
            assert_eq!(
                exec.try_intersect(&items[..4], |n| sets(*n)),
                Ok(BTreeSet::from([0, 1])),
                "{workers} workers"
            );
            assert_eq!(
                exec.try_intersect(&items, shifted),
                Ok(BTreeSet::new()),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs_never_spawn() {
        let exec = Executor::new(ExecConfig::with_workers(8));
        assert_eq!(exec.workers_for(0), 1);
        assert_eq!(exec.workers_for(1), 1);
        assert!(exec.map(&[] as &[u8], |&b| b).is_empty());
        assert_eq!(exec.map(&[7u8], |&b| b + 1), vec![8]);
    }

    #[test]
    fn recorder_counts_every_claimed_task() {
        let recorder = Arc::new(pdes_obs::TraceRecorder::new());
        let exec = Executor::new(ExecConfig::with_workers(4)).with_recorder(recorder.clone());
        let items: Vec<u64> = (0..32).collect();
        let out = exec.map(&items, |&n| n + 1);
        assert_eq!(out.len(), 32);
        let registry = recorder.registry();
        assert_eq!(registry.counter_value("exec.maps"), 1);
        assert_eq!(registry.counter_value("exec.tasks"), 32);
        let histograms = registry.histograms();
        let claims = histograms
            .iter()
            .find(|(name, _)| *name == "exec.claim_nanos")
            .expect("claim latency histogram");
        assert_eq!(claims.1.count, 32);
        // Sequential fan-outs record nothing.
        let seq = Executor::sequential().with_recorder(recorder.clone());
        seq.map(&items, |&n| n + 1);
        assert_eq!(registry.counter_value("exec.tasks"), 32);
    }

    #[test]
    fn borrowed_state_flows_into_workers() {
        // The whole point of scoped threads: `data` is borrowed, not Arc'd.
        let data: Vec<String> = (0..16).map(|i| format!("row{i}")).collect();
        let exec = Executor::new(ExecConfig::with_workers(4));
        let lens = exec.map(&data, |s| s.len());
        assert_eq!(
            lens.iter().sum::<usize>(),
            data.iter().map(String::len).sum()
        );
    }
}
