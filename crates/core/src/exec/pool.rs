//! Scoped-thread worker pool with deterministic, order-restoring output.
//!
//! A paper-scale campaign is 100 golden + 300 injection runs × 3 protection
//! settings × several environments of embarrassingly parallel missions: every
//! run derives its seed from the campaign base seed and its own index, so no
//! run depends on any other.  [`WorkerPool`] exploits that:
//!
//! * **Deterministic seeding** — jobs are identified by index; seed
//!   derivation stays a pure function of `(base_seed, index)` exactly as in
//!   the serial code, so a run's inputs never depend on scheduling.
//! * **Shared immutable state** — trained detectors (and any other captured
//!   context) are borrowed by the worker closures, not cloned per worker.
//! * **Stable ordering** — results carry their job index and are handed to
//!   the caller in input order, making parallel output byte-identical to
//!   serial output for any worker count.
//!
//! Workers pull the next job index from an atomic counter (work stealing),
//! so long and short missions interleave without static partitioning skew.
//! [`WorkerPool::fold_ordered`] *streams* results through an
//! order-restoring aggregator: completed results are folded in index order
//! while later jobs are still running, so bulky per-run artifacts (full
//! [`MissionOutcome`](crate::runner::MissionOutcome)s with sampled trails)
//! can be reduced to compact statistics without ever materialising the whole
//! campaign in memory.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// How far ahead of the aggregator workers may claim jobs, as a multiple of
/// the worker count (with a floor for small pools).  This caps the
/// out-of-order completion buffer: even when the head-of-line job is the
/// slowest in the campaign, at most this many completed results wait in
/// memory while everything behind the head stalls.
const CLAIM_WINDOW_PER_WORKER: usize = 8;
const CLAIM_WINDOW_MIN: usize = 64;

/// A scoped-thread worker pool running indexed jobs with stable output
/// order.
///
/// # Examples
///
/// ```
/// use mavfi::exec::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let square = |_, &n: &u64| Ok::<u64, ()>(n * n);
/// let push = |squares: &mut Vec<u64>, _, n| squares.push(n);
/// let mut squares = Vec::new();
/// let stats = pool.fold_ordered(&[1, 2, 3, 4, 5], square, &mut squares, push).unwrap();
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// assert_eq!(stats.total_jobs(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

/// Scheduling statistics of one pool execution: observability data for the
/// campaign telemetry rollup.
///
/// Everything here is **scheduling-dependent** (which worker claims which
/// job, how often the claim window stalls) and therefore nondeterministic —
/// it belongs in the wall-clock section of a telemetry report, never in
/// results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs executed per worker, indexed by worker id.  A single entry for
    /// serial/inline execution.
    pub worker_jobs: Vec<u64>,
    /// Claim-window backpressure naps taken across all workers (each nap is
    /// one bounded sleep while waiting for the fold position to advance).
    pub fold_stalls: u64,
}

impl PoolStats {
    /// Total jobs executed across workers.
    pub fn total_jobs(&self) -> u64 {
        self.worker_jobs.iter().sum()
    }
}

/// Min-heap entry pairing a result with its job index; ordering ignores the
/// payload so results dequeue strictly by index.
struct Pending<R> {
    index: usize,
    result: R,
}

impl<R> PartialEq for Pending<R> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}

impl<R> Eq for Pending<R> {}

impl<R> PartialOrd for Pending<R> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<R> Ord for Pending<R> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest index.
        other.index.cmp(&self.index)
    }
}

impl WorkerPool {
    /// Creates a pool with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self { workers: workers.max(1) }
    }

    /// Reads the worker count from the `MAVFI_WORKERS` environment variable,
    /// falling back to the machine's available parallelism.
    pub(crate) fn from_env() -> Self {
        let workers = std::env::var("MAVFI_WORKERS")
            .ok()
            .and_then(|value| value.parse::<usize>().ok())
            .filter(|&workers| workers > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        Self::new(workers)
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job` for every element of `jobs` and streams the results
    /// through an order-restoring aggregator: `fold` receives each
    /// successful result exactly once, in strict job-index order, while
    /// later jobs may still be running on other workers.  `job` receives the
    /// element's index and a reference to it.
    ///
    /// With one worker (or one job) everything runs inline on the calling
    /// thread; otherwise scoped worker threads pull indices from a shared
    /// counter.  Only the out-of-order completion window is buffered, and
    /// the caller reduces each result to aggregate state as soon as its turn
    /// comes.  Workers may claim jobs only a fixed window ahead of the
    /// aggregator's fold position, so the buffer stays bounded even under
    /// pathological skew (for example a head-of-line golden run flying its
    /// whole time budget while every later job finishes instantly); workers
    /// that run out of window briefly sleep instead of piling up results.
    /// Because `fold` observes the same results in the same order as a
    /// serial loop, any aggregation — including floating-point sums — is
    /// byte-identical to sequential execution.
    ///
    /// After a job fails, jobs with a *higher* index are skipped instead of
    /// run, so a failure early in a long campaign does not cost the whole
    /// campaign's compute.  Jobs below an observed failure always still run
    /// (a failure can only skip indices above itself), which makes the
    /// returned error — and the folded prefix, exactly the results a serial
    /// `?` loop would have folded before stopping — independent of the
    /// worker count.
    ///
    /// On success, returns the run's scheduling statistics ([`PoolStats`]).
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing job.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job after all workers have stopped.
    pub fn fold_ordered<T, R, E, S, F, G>(
        &self,
        jobs: &[T],
        job: F,
        state: &mut S,
        mut fold: G,
    ) -> Result<PoolStats, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
        G: FnMut(&mut S, usize, R),
    {
        let workers = self.workers.min(jobs.len()).max(1);
        if workers == 1 {
            for (index, item) in jobs.iter().enumerate() {
                fold(state, index, job(index, item)?);
            }
            return Ok(PoolStats { worker_jobs: vec![jobs.len() as u64], fold_stalls: 0 });
        }

        let next_job = AtomicUsize::new(0);
        let folded = AtomicUsize::new(0);
        let lowest_failure = AtomicUsize::new(usize::MAX);
        let aborted = AtomicBool::new(false);
        let window = (workers * CLAIM_WINDOW_PER_WORKER).max(CLAIM_WINDOW_MIN);
        // Per-worker job tallies and the shared stall counter cost a few
        // relaxed increments per job — cheap enough to collect on every run.
        let job_counts: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let stall_count = AtomicU64::new(0);
        let (sender, receiver) = mpsc::channel::<Pending<Result<R, E>>>();
        let mut outcome = Ok(());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let sender = sender.clone();
                    scope.spawn({
                        let next_job = &next_job;
                        let folded = &folded;
                        let lowest_failure = &lowest_failure;
                        let aborted = &aborted;
                        let job = &job;
                        let job_counts = &job_counts;
                        let stall_count = &stall_count;
                        move || {
                            // If this worker unwinds mid-job, its result never
                            // reaches the aggregator and the fold position
                            // stops advancing — workers parked on the claim
                            // window below would otherwise sleep forever.  The
                            // guard flips the abort flag on the way out so
                            // every parked worker exits and the panic can
                            // propagate through `handle.join()`.
                            struct AbortOnPanic<'a>(&'a AtomicBool);
                            impl Drop for AbortOnPanic<'_> {
                                fn drop(&mut self) {
                                    if std::thread::panicking() {
                                        self.0.store(true, Ordering::Release);
                                    }
                                }
                            }
                            let _guard = AbortOnPanic(aborted);
                            // Skip only indices *above* a recorded failure: a
                            // job below it (which could be an even lower
                            // failure) always runs, so which error wins never
                            // depends on scheduling.  Claims only grow, so a
                            // worker past the failure has nothing left to run.
                            // Skipped jobs never reach the aggregator, so the
                            // fold position may stop short of a worker parked
                            // on the claim window; it leaves on the same test.
                            let stop = |index: usize| {
                                aborted.load(Ordering::Acquire)
                                    || index > lowest_failure.load(Ordering::Relaxed)
                            };
                            loop {
                                let index = next_job.fetch_add(1, Ordering::Relaxed);
                                let Some(item) = jobs.get(index) else { break };
                                // Claim-window backpressure: never run more than
                                // `window` jobs ahead of the fold position.  The
                                // worker holding the lowest in-flight index is
                                // always inside the window, so the pool as a
                                // whole keeps making progress.
                                while index >= folded.load(Ordering::Acquire) + window {
                                    if stop(index) {
                                        return;
                                    }
                                    stall_count.fetch_add(1, Ordering::Relaxed);
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                                if stop(index) {
                                    break;
                                }
                                job_counts[worker].fetch_add(1, Ordering::Relaxed);
                                let result = job(index, item);
                                if result.is_err() {
                                    lowest_failure.fetch_min(index, Ordering::Relaxed);
                                }
                                // A send only fails when the aggregator side was
                                // torn down early, which scoped lifetimes rule
                                // out short of a panic already in flight.
                                if sender.send(Pending { index, result }).is_err() {
                                    break;
                                }
                            }
                        }
                    })
                })
                .collect();
            // The workers hold clones; dropping ours lets `recv` end once
            // every worker is done.
            drop(sender);

            let mut pending = BinaryHeap::new();
            let mut next_expected = 0usize;
            while let Ok(done) = receiver.recv() {
                pending.push(done);
                while pending.peek().is_some_and(|entry| entry.index == next_expected) {
                    let entry = pending.pop().expect("peeked entry");
                    match (entry.result, &outcome) {
                        (Ok(result), Ok(())) => fold(state, entry.index, result),
                        (Err(error), Ok(())) => outcome = Err(error),
                        _ => {}
                    }
                    next_expected += 1;
                }
                folded.store(next_expected, Ordering::Release);
            }

            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        outcome.map(|()| PoolStats {
            worker_jobs: job_counts.iter().map(|count| count.load(Ordering::Relaxed)).collect(),
            fold_stalls: stall_count.load(Ordering::Relaxed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Collects every result of a [`WorkerPool::fold_ordered`] run in fold
    /// order.
    fn collect<T, R, E>(
        pool: WorkerPool,
        jobs: &[T],
        job: impl Fn(usize, &T) -> Result<R, E> + Sync,
    ) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
    {
        let mut results = Vec::new();
        pool.fold_ordered(jobs, job, &mut results, |results, _, result| results.push(result))?;
        Ok(results)
    }

    #[test]
    fn results_preserve_input_order_for_any_worker_count() {
        let jobs: Vec<usize> = (0..37).collect();
        let job = |i, &n: &usize| Ok::<_, ()>(i * 1000 + n);
        let serial = collect(WorkerPool::new(1), &jobs, job).unwrap();
        for workers in [2, 3, 8, 64] {
            let parallel = collect(WorkerPool::new(workers), &jobs, job).unwrap();
            assert_eq!(parallel, serial, "worker count {workers}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<u32> = (0..100).collect();
        let results = collect(WorkerPool::new(8), &jobs, |_, _| {
            Ok::<_, ()>(counter.fetch_add(1, Ordering::Relaxed))
        })
        .unwrap();
        assert_eq!(results.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_job_list_yields_empty_results() {
        let results = collect(WorkerPool::new(4), &[] as &[u8], |_, &b| Ok::<_, ()>(b)).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn try_run_reports_lowest_indexed_error() {
        let jobs: Vec<usize> = (0..50).collect();
        let outcome =
            collect(WorkerPool::new(8), &jobs, |i, _| if i % 7 == 3 { Err(i) } else { Ok(i) });
        assert_eq!(outcome.unwrap_err(), 3);
    }

    #[test]
    fn worker_count_is_clamped_and_env_fallback_works() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
        assert!(WorkerPool::from_env().workers() >= 1);
    }

    #[test]
    fn shared_state_is_borrowed_not_cloned() {
        let shared = [1u64, 2, 3];
        let sums = collect(WorkerPool::new(4), &[10u64, 20], |_, &base| {
            Ok::<_, ()>(base + shared.iter().sum::<u64>())
        })
        .unwrap();
        assert_eq!(sums, vec![16, 26]);
    }

    #[test]
    fn fold_ordered_observes_strict_index_order() {
        let jobs: Vec<u64> = (0..200).collect();
        for workers in [1, 2, 8] {
            let mut seen = Vec::new();
            WorkerPool::new(workers)
                .fold_ordered(
                    &jobs,
                    |index, &n| {
                        // Uneven job durations force out-of-order completion.
                        let spin = (n % 13) * 500;
                        let mut acc = 0u64;
                        for i in 0..spin {
                            acc = acc.wrapping_add(std::hint::black_box(i));
                        }
                        Ok::<_, ()>((index, n.wrapping_add(acc.wrapping_mul(0))))
                    },
                    &mut seen,
                    |seen, index, (job_index, n)| {
                        assert_eq!(index, job_index);
                        seen.push((index, n));
                    },
                )
                .unwrap();
            let expected: Vec<(usize, u64)> = (0..200).map(|n| (n as usize, n)).collect();
            assert_eq!(seen, expected, "worker count {workers}");
        }
    }

    #[test]
    fn stalled_head_job_bounds_the_completion_buffer() {
        // Job 0 is by far the slowest: every other job would complete while
        // the head of the line is still running.  The claim window must cap
        // how far past the fold position workers run — nothing can fold
        // until job 0 does, so until then no job at or beyond the window
        // (max(4 * 8, 64) = 64 here) may execute — and order restoration
        // must still hold once job 0 lands.
        use std::sync::atomic::AtomicBool;
        let jobs: Vec<u64> = (0..500).collect();
        let head_done = AtomicBool::new(false);
        let max_before_head = AtomicUsize::new(0);
        let seen = collect(WorkerPool::new(4), &jobs, |index, &n| {
            if index == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
                head_done.store(true, Ordering::Release);
            } else if !head_done.load(Ordering::Acquire) {
                max_before_head.fetch_max(index, Ordering::Relaxed);
            }
            Ok::<_, ()>(n)
        })
        .unwrap();
        assert_eq!(seen, jobs);
        let max_index = max_before_head.load(Ordering::Relaxed);
        assert!(max_index < 64, "job {max_index} ran beyond the claim window while job 0 stalled");
    }

    #[test]
    fn errors_stop_the_pool_from_claiming_the_tail() {
        let jobs: Vec<usize> = (0..1_000).collect();
        let run = |workers| {
            let executed = AtomicUsize::new(0);
            let outcome = collect(WorkerPool::new(workers), &jobs, |i, _| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(outcome.unwrap_err(), 3, "worker count {workers}");
            executed.into_inner()
        };
        // Serial pool: execution order is the job order, so everything after
        // the error is skipped, deterministically.
        assert_eq!(run(1), 4, "jobs after the error must not run");
        // Parallel pool: the skipped tail depends on timing, but a job at
        // index 3 + CLAIM_WINDOW_MIN (the window of 8 workers) or above can
        // only be claimed once job 3 has folded, and by then every worker
        // sees the failure — so for any schedule at most jobs 0..=66 run.
        let executed = run(8);
        assert!(executed <= 3 + CLAIM_WINDOW_MIN, "{executed} jobs ran past the failure");
    }

    #[test]
    #[should_panic(expected = "job 0 exploded")]
    fn panicking_job_propagates_instead_of_hanging() {
        // Job 0 panics while enough jobs exist that other workers park on
        // the claim window (200 > 64); without the abort flag they would
        // sleep forever waiting for a fold position that can never advance.
        let jobs: Vec<u64> = (0..200).collect();
        let _ = collect(WorkerPool::new(4), &jobs, |i, &n| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
                panic!("job 0 exploded");
            }
            Ok::<_, ()>(n)
        });
    }

    #[test]
    fn pool_stats_account_for_every_job() {
        let jobs: Vec<u64> = (0..120).collect();
        for workers in [1, 2, 8] {
            let mut sum = 0u64;
            let stats = WorkerPool::new(workers)
                .fold_ordered(&jobs, |_, &n| Ok::<_, ()>(n), &mut sum, |sum, _, n| *sum += n)
                .unwrap();
            assert_eq!(sum, jobs.iter().sum::<u64>(), "worker count {workers}");
            assert_eq!(stats.total_jobs(), jobs.len() as u64, "worker count {workers}");
            assert_eq!(stats.worker_jobs.len(), workers.min(jobs.len()));
        }
        let stats = WorkerPool::new(1)
            .fold_ordered(&jobs, |_, &n| Ok::<_, ()>(n), &mut (), |(), _, _| {})
            .unwrap();
        assert_eq!(stats.fold_stalls, 0);
    }

    #[test]
    fn try_fold_with_stats_reports_error_and_partial_counts() {
        let jobs: Vec<usize> = (0..50).collect();
        for workers in [1, 4] {
            let mut folded = Vec::new();
            let outcome = WorkerPool::new(workers).fold_ordered(
                &jobs,
                |i, _| if i == 10 { Err(i) } else { Ok(i) },
                &mut folded,
                |folded, _, i| folded.push(i),
            );
            assert_eq!(outcome.unwrap_err(), 10, "worker count {workers}");
            assert_eq!(folded, (0..10).collect::<Vec<_>>(), "worker count {workers}");
        }
    }

    #[test]
    fn fold_ordered_matches_serial_floating_point_sums() {
        // Summation order changes floating-point results; identical sums
        // prove the aggregator restored the serial order bit for bit.
        let jobs: Vec<u64> = (0..500).collect();
        let sum = |workers| {
            let mut total = 0.0f64;
            WorkerPool::new(workers)
                .fold_ordered(
                    &jobs,
                    |_, &n| Ok::<_, ()>(1.0 / (n as f64 + 1.0)),
                    &mut total,
                    |total, _, term| *total += term,
                )
                .unwrap();
            total.to_bits()
        };
        let serial = sum(1);
        assert_eq!(sum(2), serial);
        assert_eq!(sum(8), serial);
    }
}
