//! # snd-exec
//!
//! Deterministic parallel execution of independent experiment trials.
//!
//! Every evaluation in this repository is a batch of independent trials:
//! `trial 0..n`, each on its own seeded RNG stream, each producing a result
//! that is folded into a table row or a run report. This crate fans those
//! trials out across threads while keeping the *merged* output bit-for-bit
//! identical to a serial run:
//!
//! * **Seed derivation** — each trial's seed is a [`splitmix64`] mix of
//!   `(base_seed, trial)` (see [`trial_seed`]), never `base + trial`:
//!   additive derivation makes adjacent base seeds share trial streams
//!   (seed 42 / trial 1 would equal seed 43 / trial 0), silently
//!   correlating experiments that are supposed to be independent.
//! * **Trial-order merge** — [`run_trials`] returns results indexed by
//!   trial, not by completion. Callers fold floating-point sums, metrics
//!   counters and JSONL rows in trial order, so the merged output does not
//!   depend on scheduling.
//! * **Thread-count independence** — a trial's closure sees only
//!   `(trial, seed)`; nothing about worker identity or timing leaks in.
//!   Running with 1 thread, 8 threads, or [`SND_THREADS`] threads produces
//!   byte-identical reports.
//!
//! The determinism contract is spelled out in `DESIGN.md` §9 and enforced
//! by `crates/bench/tests/determinism.rs`.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Environment variable selecting the worker-pool size. Unset, empty, `0`
/// or unparsable values fall back to the machine's available parallelism.
pub const SND_THREADS: &str = "SND_THREADS";

/// Sebastiano Vigna's fixed-increment constant for splitmix64 streams
/// (the golden-ratio gamma).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a bijective avalanche mix of one `u64`.
///
/// Used to turn structured inputs (base seed plus trial index) into seeds
/// with no arithmetic relationship between neighbors.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives trial `trial`'s seed from `base_seed`.
///
/// The trial index strides by the golden-ratio gamma (`0x9E37_79B9_7F4A_7C15`)
/// before the avalanche mix, so `trial_seed(b, i) == trial_seed(b', i')` for
/// `(b, i) != (b', i')` requires `b - b'` to equal an exact multiple of the
/// gamma — unlike the old `base + trial` derivation, where seed 42 / trial 1
/// and seed 43 / trial 0 were the *same* experiment.
#[inline]
pub fn trial_seed(base_seed: u64, trial: u64) -> u64 {
    splitmix64(base_seed.wrapping_add(trial.wrapping_mul(GOLDEN_GAMMA)))
}

/// Derives an independent sub-stream from a trial seed.
///
/// Trials that need several RNGs (deployment, attack placement, workload
/// sampling) label each with a distinct `stream` constant instead of
/// ad-hoc XOR offsets.
#[inline]
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// The number of worker threads [`Executor::from_env`] will use: the
/// `SND_THREADS` variable when set to a positive integer, otherwise the
/// machine's available parallelism, otherwise 1.
pub fn threads_from_env() -> usize {
    match std::env::var(SND_THREADS) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A sized worker pool for [`run_trials`]-style batches.
///
/// Carries only the thread count; every batch spawns scoped workers and
/// joins them before returning, so there is no long-lived pool state to
/// leak between experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// A serial executor: one worker, trials run inline in trial order.
    pub fn serial() -> Self {
        Executor::new(1)
    }

    /// An executor sized by [`threads_from_env`] (`SND_THREADS`, default:
    /// available parallelism).
    pub fn from_env() -> Self {
        Executor::new(threads_from_env())
    }

    /// The worker-pool size.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `n` independent trials of `f` on this executor's pool; see
    /// [`run_trials`].
    pub fn run_trials<T, F>(&self, base_seed: u64, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, u64) -> T + Sync,
    {
        run_trials(base_seed, n, self.threads, f)
    }

    /// Runs `f` once per item of `items`, passing each worker invocation
    /// `(index, item, seed)` with the seed derived as in [`run_trials`].
    /// Results come back in item order.
    ///
    /// This is the row-sweep form of [`run_trials`]: bench binaries whose
    /// "trials" are table rows (cluster sizes, update caps, densities) map
    /// their row parameters through it.
    pub fn run_over<I, T, F>(&self, base_seed: u64, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I, u64) -> T + Sync,
    {
        run_trials(base_seed, items.len(), self.threads, |trial, seed| {
            f(trial, &items[trial], seed)
        })
    }

    /// Runs `f(index)` for every index in `0..n` and returns the results
    /// **in index order** — [`run_trials`] without the seed plumbing, for
    /// pure read-only fan-out (row sweeps over a frozen snapshot).
    ///
    /// The index-order merge makes the output identical at any thread
    /// count; `f` must be a pure function of its index for that guarantee
    /// to mean anything.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        run_trials(0, n, self.threads, |i, _seed| f(i))
    }

    /// Runs `f` once per item of `items` — each invocation gets exclusive
    /// `&mut` access to its item — and returns the results **in item
    /// order**.
    ///
    /// This is the scoped per-item map the in-wave parallel stages use:
    /// the discovery engine hands each worker one node's state plus its
    /// drained inbox, workers mutate their items independently, and the
    /// index-order merge keeps everything folded from the results
    /// byte-identical at any thread count (DESIGN.md §9).
    ///
    /// Items are split into one contiguous chunk per worker (no work
    /// stealing): per-item cost is assumed roughly uniform, and static
    /// chunking needs no shared cursor over `&mut` state.
    ///
    /// # Panics
    ///
    /// If an invocation panics, the panic is propagated after the scope
    /// joins (other workers run to completion first).
    pub fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = items.len();
        let threads = self.threads.clamp(1, n.max(1));
        if threads == 1 {
            return items
                .iter_mut()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        let chunk = n.div_ceil(threads);
        let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(threads));
        // As in `run_trials`: keep the first original panic payload and
        // re-raise it after the scope joins.
        let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        std::thread::scope(|scope| {
            let mut rest = items;
            let mut start = 0usize;
            while !rest.is_empty() {
                let take = chunk.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let s = start;
                start += take;
                let (f, done, panicked) = (&f, &done, &panicked);
                scope.spawn(move || {
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        head.iter_mut()
                            .enumerate()
                            .map(|(i, item)| f(s + i, item))
                            .collect::<Vec<R>>()
                    }));
                    match run {
                        Ok(results) => done.lock().push((s, results)),
                        Err(payload) => {
                            panicked.lock().get_or_insert(payload);
                        }
                    }
                });
            }
        });

        if let Some(payload) = panicked.into_inner() {
            std::panic::resume_unwind(payload);
        }
        let mut parts = done.into_inner();
        parts.sort_by_key(|&(s, _)| s);
        let mut out = Vec::with_capacity(n);
        for (_, mut results) in parts {
            out.append(&mut results);
        }
        debug_assert_eq!(out.len(), n);
        out
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

/// Runs `n` independent trials of `f` across `threads` workers and returns
/// the results **in trial order**.
///
/// Each trial `i` receives `(i, trial_seed(base_seed, i))`. Workers claim
/// chunks of the trial index space from a shared cursor, so scheduling is
/// nondeterministic — but because a trial's inputs depend only on its
/// index and every result lands in its trial's slot, the returned vector
/// (and anything folded from it in order) is identical at any thread
/// count, including 1.
///
/// # Panics
///
/// If a trial panics, the panic is propagated after the scope joins (other
/// in-flight trials run to completion first).
pub fn run_trials<T, F>(base_seed: u64, n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n)
            .map(|trial| f(trial, trial_seed(base_seed, trial as u64)))
            .collect();
    }

    // Chunked claiming: big enough to amortize the shared cursor, small
    // enough that an unlucky worker cannot hold the batch's tail hostage.
    let chunk = (n / (threads * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    // `thread::scope` replaces a child's panic payload with its own
    // message; keep the first original payload and re-raise it instead.
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    if panicked.lock().is_some() {
                        break;
                    }
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for trial in start..(start + chunk).min(n) {
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            f(trial, trial_seed(base_seed, trial as u64))
                        }));
                        match run {
                            Ok(result) => local.push((trial, result)),
                            Err(payload) => {
                                panicked.lock().get_or_insert(payload);
                                done.lock().extend(local);
                                return;
                            }
                        }
                    }
                }
                done.lock().extend(local);
            });
        }
    });

    if let Some(payload) = panicked.into_inner() {
        std::panic::resume_unwind(payload);
    }
    let mut indexed = done.into_inner();
    debug_assert_eq!(indexed.len(), n);
    indexed.sort_by_key(|&(trial, _)| trial);
    indexed.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn trial_seeds_are_unique_across_adjacent_bases() {
        // The regression the derivation exists to prevent: overlapping
        // streams between base seeds that differ by small offsets.
        let mut seen = BTreeSet::new();
        for base in 0u64..64 {
            for trial in 0u64..64 {
                assert!(
                    seen.insert(trial_seed(base, trial)),
                    "collision at base={base} trial={trial}"
                );
            }
        }
        // And the concrete pair from the bug report.
        assert_ne!(trial_seed(42, 1), trial_seed(43, 0));
    }

    #[test]
    fn trial_seed_is_deterministic() {
        assert_eq!(trial_seed(7, 3), trial_seed(7, 3));
        assert_ne!(trial_seed(7, 3), trial_seed(7, 4));
        assert_ne!(trial_seed(7, 3), trial_seed(8, 3));
    }

    #[test]
    fn stream_seeds_split_a_trial_seed() {
        let s = trial_seed(9, 0);
        assert_ne!(stream_seed(s, 0), stream_seed(s, 1));
        assert_ne!(stream_seed(s, 1), s);
    }

    #[test]
    fn results_come_back_in_trial_order_at_any_thread_count() {
        let serial = run_trials(5, 100, 1, |trial, seed| (trial, seed));
        for threads in [2usize, 3, 8, 16] {
            let parallel = run_trials(5, 100, threads, |trial, seed| (trial, seed));
            assert_eq!(serial, parallel, "threads={threads}");
        }
        for (trial, &(i, seed)) in serial.iter().enumerate() {
            assert_eq!(i, trial);
            assert_eq!(seed, trial_seed(5, trial as u64));
        }
    }

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u64> = run_trials(1, 0, 8, |_, seed| seed);
        assert!(out.is_empty());
    }

    #[test]
    fn single_trial_runs_inline() {
        let out = run_trials(3, 1, 8, |trial, seed| (trial, seed));
        assert_eq!(out, vec![(0, trial_seed(3, 0))]);
    }

    #[test]
    fn executor_run_over_maps_items_in_order() {
        let items = [10usize, 20, 30, 40];
        let out = Executor::new(4).run_over(11, &items, |i, &item, seed| {
            (i, item, seed == trial_seed(11, i as u64))
        });
        assert_eq!(
            out,
            vec![(0, 10, true), (1, 20, true), (2, 30, true), (3, 40, true)]
        );
    }

    #[test]
    fn floating_point_folds_match_serial() {
        // The reason trial-order merge matters: f64 addition is not
        // associative, so the fold must see the same order every time.
        let serial: f64 = run_trials(17, 1000, 1, |t, s| (s as f64).sqrt() / (t + 1) as f64)
            .into_iter()
            .sum();
        for threads in [2usize, 8] {
            let parallel: f64 =
                run_trials(17, 1000, threads, |t, s| (s as f64).sqrt() / (t + 1) as f64)
                    .into_iter()
                    .sum();
            assert_eq!(serial.to_bits(), parallel.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn executor_clamps_and_reads_env() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::serial().threads(), 1);
        assert!(Executor::from_env().threads() >= 1);
    }

    #[test]
    fn map_mut_mutates_every_item_in_order() {
        for threads in [1usize, 2, 3, 8] {
            let mut items: Vec<u64> = (0..100).collect();
            let out = Executor::new(threads).map_mut(&mut items, |i, item| {
                *item += 1;
                (i, *item)
            });
            assert_eq!(items, (1..=100).collect::<Vec<u64>>(), "threads={threads}");
            let expect: Vec<(usize, u64)> = (0..100).map(|i| (i, i as u64 + 1)).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_mut_is_thread_count_invariant() {
        let run = |threads: usize| {
            let mut items: Vec<Vec<u64>> = (0..37).map(|i| vec![i]).collect();
            let out = Executor::new(threads).map_mut(&mut items, |i, item| {
                item.push(splitmix64(i as u64));
                item.iter().sum::<u64>()
            });
            (items, out)
        };
        let serial = run(1);
        for threads in [2usize, 5, 8] {
            assert_eq!(serial, run(threads), "threads={threads}");
        }
    }

    #[test]
    fn map_mut_empty_and_single() {
        let mut empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = Executor::new(8).map_mut(&mut empty, |_, &mut x| x);
        assert!(out.is_empty());
        let mut one = vec![7u32];
        let out = Executor::new(8).map_mut(&mut one, |i, x| {
            *x *= 2;
            (i, *x)
        });
        assert_eq!(out, vec![(0, 14)]);
        assert_eq!(one, vec![14]);
    }

    #[test]
    #[should_panic(expected = "item 5 exploded")]
    fn map_mut_panics_propagate() {
        let mut items: Vec<u32> = (0..16).collect();
        let _ = Executor::new(4).map_mut(&mut items, |i, _| {
            if i == 5 {
                panic!("item 5 exploded");
            }
            i
        });
    }

    #[test]
    fn map_indexed_matches_inline_loop() {
        let serial: Vec<u64> = (0..50).map(|i| splitmix64(i as u64)).collect();
        for threads in [1usize, 2, 8] {
            let out = Executor::new(threads).map_indexed(50, |i| splitmix64(i as u64));
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "trial 7 exploded")]
    fn trial_panics_propagate() {
        let _ = run_trials(0, 16, 4, |trial, _| {
            if trial == 7 {
                panic!("trial 7 exploded");
            }
            trial
        });
    }
}
