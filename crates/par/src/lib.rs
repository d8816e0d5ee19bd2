//! # ccs-par
//!
//! A small **deterministic** parallel-map layer over a lazily started
//! persistent worker pool, for the embarrassingly parallel evaluation
//! batches inside the CCS schedulers (CCSA's facility scan, CCSGA's
//! best-response scan, the submodular oracle's prefix chains).
//!
//! ## Determinism contract
//!
//! [`par_eval`] and [`par_map`] return results **in index order**, exactly
//! as the equivalent serial loop would, regardless of how the work was
//! interleaved across threads. As long as the supplied closure is a pure
//! function of its index (which every caller in this workspace guarantees),
//! the output is *bit-identical at any thread count* — callers then apply
//! their own serial reductions (first-wins argmin, prefix diffs, …) on top,
//! so whole-algorithm results do not drift when `CCS_THREADS` changes.
//!
//! ## The thread-count knob
//!
//! The worker count is a process-wide knob resolved in this order:
//!
//! 1. [`set_threads`] (the `--threads` CLI flag calls this),
//! 2. the `CCS_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A count of `1` short-circuits to the **exact serial path**: no threads
//! are spawned and the closure runs inline in index order.
//!
//! ## The worker pool
//!
//! Earlier versions spawned scoped threads per call — tens of microseconds
//! of overhead that swamped paper-size batches (BENCH_3 recorded
//! `speedup < 1` on every parallel bench). Batches now run on a
//! **persistent pool** (the `pool` module): worker threads are spawned lazily on
//! the first large-enough batch, park on a condvar between batches, and
//! live for the rest of the process. Submitting a batch costs one mutex
//! push plus a wake; the **caller always participates** as the first
//! worker, so a batch completes at serial speed even if every helper
//! arrives late. Work is claimed in chunks from an atomic cursor and every
//! result is scattered back into its index slot, so the determinism
//! contract above is unchanged. Nested calls from inside a batch closure
//! run inline on the worker that issued them.
//!
//! ## The minimum-work cutoff
//!
//! Even a pooled dispatch costs a few microseconds — more than an entire
//! small batch (e.g. the 48-element Lovász prefix chains of `sfm_mnp_n48`)
//! takes to run serially. Batches shorter than [`MIN_ITEMS`] therefore run
//! inline even when multiple workers are configured; the result is
//! bit-identical by construction (it is the same serial order). Callers
//! whose per-item work is expensive (a candidate-move scan, say) can lower
//! the bar per call site with [`par_eval_min_into`].
//!
//! ## Zero-dependency design
//!
//! Like `ccs-telemetry`, this crate uses nothing beyond `std` (plus the
//! telemetry counters themselves). The build environment has no registry
//! access, and a persistent pool with an atomic chunk cursor covers
//! everything the schedulers need — a full `rayon` would add weight for
//! features (nested pools, splitting heuristics) the hot paths never use.

mod pool;

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// `0` means "no override": fall back to `CCS_THREADS` or the machine.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The environment/default resolution, done once per process.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        match std::env::var("CCS_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    })
}

/// The worker count parallel batches currently run with (always `>= 1`).
pub fn threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Overrides the process-wide worker count. `0` clears the override,
/// restoring the `CCS_THREADS`-or-machine default; `1` forces the exact
/// serial path.
///
/// Because every parallel batch is deterministic (see the module docs),
/// changing this concurrently with running work affects only performance,
/// never results.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Batches below this many items run inline: they never pay the pool's
/// dispatch overhead.
pub const MIN_ITEMS: usize = 64;

/// Evaluates `f(0), f(1), …, f(n-1)` and returns the results in index
/// order, fanning the evaluations out over the persistent worker pool.
///
/// Work is distributed dynamically (chunks claimed from an atomic cursor),
/// so uneven per-index cost does not idle workers; results are scattered
/// back by index, so the output order is always the serial order. With
/// [`threads`]` == 1` or `n <= 1` the pool is not touched and `f` runs
/// inline — the exact serial path. The calling thread always executes
/// chunks itself, so throughput never regresses below serial waiting for a
/// pool worker to wake.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker.
pub fn par_eval<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_eval_min(n, MIN_ITEMS, f)
}

/// [`par_eval`] with an explicit per-call minimum batch size instead of
/// [`MIN_ITEMS`].
pub(crate) fn par_eval_min<U, F>(n: usize, min: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = threads().min(n);
    if workers <= 1 || n < min || pool::on_pool_worker() {
        return (0..n).map(f).collect();
    }
    ccs_telemetry::counter!("par.batches").incr();
    ccs_telemetry::counter!("par.items").add(n as u64);

    pool::run(n, workers, &f)
}

/// [`par_eval`] with an explicit per-call minimum batch size instead of
/// [`MIN_ITEMS`], writing into a caller-owned buffer instead of returning a
/// fresh `Vec`. Call sites whose per-item work is heavy (candidate-move
/// scans) pass a small `min` so they still parallelize below the global
/// cutoff. `out` is cleared and refilled with `f(0), …, f(n-1)` in index
/// order. On the serial path (one worker, small batch, or a nested
/// call) this is **allocation-free** once `out` has grown to capacity —
/// the property the coalition engine's per-probe gain batches rely on.
/// The parallel path still allocates one scatter buffer inside the pool.
pub fn par_eval_min_into<U, F>(n: usize, min: usize, out: &mut Vec<U>, f: F)
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    out.clear();
    let workers = threads().min(n);
    if workers <= 1 || n < min || pool::on_pool_worker() {
        out.extend((0..n).map(f));
        return;
    }
    ccs_telemetry::counter!("par.batches").incr();
    ccs_telemetry::counter!("par.items").add(n as u64);

    let mut scattered = pool::run(n, workers, &f);
    out.append(&mut scattered);
}

/// Maps `f` over `items`, returning results in item order. The closure also
/// receives the item index so callers can carry positional context without
/// allocating.
///
/// Same determinism and fallback semantics as [`par_eval`].
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_eval(items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_index_order() {
        let out = par_eval(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_passes_items_and_indices() {
        let items = vec![10u64, 20, 30];
        let out = par_map(&items, |i, &x| x + i as u64);
        assert_eq!(out, vec![10, 21, 32]);
    }

    #[test]
    fn identical_across_thread_counts() {
        let work = |i: usize| ((i as f64) * 0.37).sin().to_bits();
        let mut reference: Option<Vec<u64>> = None;
        for t in [1usize, 2, 3, 8] {
            set_threads(t);
            let got = par_eval(257, work);
            match &reference {
                Some(expected) => assert_eq!(&got, expected, "threads = {t}"),
                None => reference = Some(got),
            }
        }
        set_threads(0);
    }

    #[test]
    fn empty_and_singleton_batches() {
        assert_eq!(par_eval(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_eval(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn every_index_evaluated_exactly_once() {
        set_threads(4);
        let calls = AtomicU64::new(0);
        let out = par_eval(1000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        set_threads(0);
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn override_takes_precedence_and_clears() {
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn below_cutoff_runs_on_the_calling_thread() {
        set_threads(8);
        let me = thread::current().id();
        let ids = par_eval_min(16, 64, |_| thread::current().id());
        set_threads(0);
        assert!(
            ids.iter().all(|&id| id == me),
            "small batch spawned threads"
        );
    }

    #[test]
    fn explicit_min_is_bit_identical_to_inline() {
        set_threads(4);
        let work = |i: usize| ((i as f64) * 0.73).cos().to_bits();
        let parallel = par_eval_min(200, 1, work);
        let inline = par_eval_min(200, 1000, work);
        set_threads(0);
        assert_eq!(parallel, inline);
    }

    #[test]
    fn into_variants_match_the_allocating_api() {
        set_threads(4);
        let work = |i: usize| ((i as f64) * 1.13).sin().to_bits();
        let mut buf = Vec::new();
        par_eval_min_into(300, 1, &mut buf, work);
        assert_eq!(buf, par_eval_min(300, 1, work));
        // Refilling the same buffer must fully replace its contents.
        par_eval_min_into(5, 1000, &mut buf, work);
        set_threads(0);
        assert_eq!(buf, (0..5).map(work).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panics_propagate() {
        set_threads(2);
        let result = panic::catch_unwind(|| {
            par_eval(64, |i| {
                if i == 13 {
                    panic!("boom");
                }
                i
            })
        });
        set_threads(0);
        assert!(result.is_err());
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        set_threads(4);
        for round in 0..4 {
            let result = panic::catch_unwind(|| {
                par_eval_min(256, 1, |i| {
                    if i % 97 == round {
                        panic!("boom {round}");
                    }
                    i
                })
            });
            assert!(result.is_err(), "round {round}");
        }
        // The pool must still produce correct batches afterwards.
        let out = par_eval_min(256, 1, |i| i * 2);
        set_threads(0);
        assert_eq!(out, (0..256).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        set_threads(4);
        let out = par_eval_min(64, 1, |i| {
            // A nested batch from inside a batch closure must not deadlock
            // the pool, whichever thread executes it.
            par_eval_min(8, 1, move |j| i * 8 + j).iter().sum::<usize>()
        });
        set_threads(0);
        let expected: Vec<usize> = (0..64).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        set_threads(4);
        let results: Vec<Vec<u64>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    scope.spawn(move || {
                        par_eval_min(512, 1, move |i| (i as u64).wrapping_mul(t + 1))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        set_threads(0);
        for (t, got) in results.iter().enumerate() {
            let expected: Vec<u64> = (0..512u64).map(|i| i.wrapping_mul(t as u64 + 1)).collect();
            assert_eq!(got, &expected, "caller {t}");
        }
    }

    #[test]
    fn repeated_batches_reuse_pool_workers() {
        set_threads(3);
        for _ in 0..200 {
            let out = par_eval_min(128, 1, |i| i + 1);
            assert_eq!(out.len(), 128);
            assert_eq!(out[127], 128);
        }
        set_threads(0);
    }
}
