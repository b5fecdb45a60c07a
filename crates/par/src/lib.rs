//! Fork-join parallelism primitives for the `sft` workspace.
//!
//! Threads stay only where they win on a 2-core machine: the robust
//! path-delay-fault campaign's pattern-pair blocks (`sft pdf --jobs`) and
//! the serve daemon's job-level workers. Resynthesis, stuck-at campaigns
//! and test generation run on the calling thread. The build environment
//! vendors no external crates, so this crate provides the minimal
//! substrate on plain `std::thread`:
//!
//! - [`Jobs`] — the thread-count knob (the CLI's `--jobs` on `sft pdf` and
//!   `sft serve`). `Jobs::serial()` runs everything inline;
//!   [`Jobs::all_cores`] uses every available core.
//! - [`parallel_map`] — an order-preserving parallel map over a slice with
//!   atomic work stealing. Results come back in input order, so a
//!   deterministic sequential reduction over them is deterministic at any
//!   thread count.
//! - [`derive_seed`] — counter-based RNG stream derivation (SplitMix64
//!   finalizer). Engines derive the RNG stream of pattern block `b` as a
//!   pure function of `(seed, b)`, so a worker simulating block `b`
//!   regenerates exactly the patterns the single-threaded loop would have
//!   drawn, regardless of which other blocks run concurrently.
//!
//! Determinism contract: the PDF campaign produces bit-identical results
//! at `--jobs 1` and `--jobs N`. [`parallel_map`] guarantees order,
//! [`derive_seed`] guarantees patterns; callers must merge worker results
//! in input order (never in completion order).
//!
//! # Examples
//!
//! ```
//! use sft_par::{parallel_map, Jobs};
//!
//! let squares = parallel_map(Jobs::new(4), &[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // input order, any thread count
//! ```

#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of worker threads an engine may use.
///
/// `Jobs` is the `--jobs` knob of the two threaded paths: the PDF campaign
/// (bit-identical results at any value) and the serve daemon's worker
/// pool. [`Jobs::serial`] (the `Default`) spawns no worker threads at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Jobs(NonZeroUsize);

impl Jobs {
    /// Exactly one worker: no threads are spawned, work runs inline in the
    /// caller's deterministic order.
    pub fn serial() -> Self {
        Jobs(NonZeroUsize::MIN)
    }

    /// One worker per available core (at least one). Falls back to serial
    /// when the platform cannot report its parallelism.
    pub fn all_cores() -> Self {
        Jobs(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// `n` workers; `0` means [`all_cores`](Self::all_cores) (the CLI
    /// convention for `--jobs 0`).
    pub fn new(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(n) => Jobs(n),
            None => Jobs::all_cores(),
        }
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// Whether this is the inline, no-threads configuration.
    pub fn is_serial(self) -> bool {
        self.0.get() == 1
    }
}

impl Default for Jobs {
    fn default() -> Self {
        Jobs::serial()
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::str::FromStr for Jobs {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "all" | "0" => Ok(Jobs::all_cores()),
            other => other
                .parse::<usize>()
                .map(Jobs::new)
                .map_err(|_| format!("bad job count {other:?} (use a number, 0 or \"all\")")),
        }
    }
}

/// Derives the seed of an independent RNG stream from a base seed and a
/// stream index (SplitMix64 finalizer over the pair).
///
/// Used by the campaign engines to give pattern block `b` the stream
/// `derive_seed(seed, b)`: the patterns of a block become a pure function
/// of the configuration seed and the block index, independent of thread
/// count, word width, fault-drop history and every other block.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-preserving parallel map: applies `f` to every element of `items`
/// on up to `jobs` scoped worker threads and returns the results **in
/// input order**.
///
/// Work is distributed by atomic index stealing, so uneven per-item cost
/// balances automatically. With `jobs` serial (or one item), no thread is
/// spawned and `f` runs inline left to right — the exact sequential order.
/// `f` receives the item index alongside the item so callers can label
/// work or derive per-item RNG streams.
///
/// # Panics
///
/// Propagates the first panic of any worker (after all workers finish).
pub fn parallel_map<T, R, F>(jobs: Jobs, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.get().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every index is produced exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_constructors() {
        assert!(Jobs::serial().is_serial());
        assert_eq!(Jobs::serial(), Jobs::default());
        assert_eq!(Jobs::new(3).get(), 3);
        assert_eq!(Jobs::new(0), Jobs::all_cores());
        assert!(Jobs::all_cores().get() >= 1);
    }

    #[test]
    fn jobs_parses() {
        assert_eq!("4".parse::<Jobs>().unwrap().get(), 4);
        assert_eq!("all".parse::<Jobs>().unwrap(), Jobs::all_cores());
        assert_eq!("0".parse::<Jobs>().unwrap(), Jobs::all_cores());
        assert!("x".parse::<Jobs>().is_err());
        assert_eq!(Jobs::new(2).to_string(), "2");
    }

    #[test]
    fn map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = parallel_map(Jobs::new(jobs), &items, |_, &x| x * 3 + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn map_passes_indices() {
        let items = vec!["a"; 50];
        let got = parallel_map(Jobs::new(4), &items, |i, _| i);
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(Jobs::new(8), &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(Jobs::new(8), &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn derive_seed_is_deterministic_and_spreads() {
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        assert_ne!(derive_seed(42, 0), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
        // Stream 0 must not collapse to the raw seed.
        assert_ne!(derive_seed(42, 0), 42);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn map_propagates_worker_panics() {
        let items: Vec<u32> = (0..64).collect();
        parallel_map(Jobs::new(4), &items, |_, &x| {
            assert!(x != 63, "boom");
            x
        });
    }
}
