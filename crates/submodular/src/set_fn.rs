//! Set functions: the [`SetFunction`] trait and the wrappers the
//! minimizers run on.
//!
//! * [`FnSetFunction`] — any closure, for tests and ad-hoc objectives;
//! * [`CardinalityPenalized`] — `f(S) − λ·|S|`, the inner objective of
//!   Dinkelbach density search;
//! * [`CountingFn`] and [`MemoFn`] — count (and memoize) oracle probes on
//!   `sfm.oracle_evals`.
//!
//! The CCS group bill itself is a
//! [`SeparableFn`](crate::minimize::SeparableFn).
//!
//! # Examples
//!
//! ```
//! use ccs_submodular::set_fn::{CardinalityPenalized, FnSetFunction, SetFunction};
//! use ccs_submodular::subset::Subset;
//!
//! // Modular energy plus a concave congestion term 2·√|S|.
//! let weights = [3.0, 1.0, 2.0];
//! let bill = FnSetFunction::new(3, move |s| {
//!     s.iter().map(|i| weights[i]).sum::<f64>() + 2.0 * (s.len() as f64).sqrt()
//! });
//! let s = Subset::from_indices(3, [0, 2]);
//! let expected = (3.0 + 2.0) + 2.0 * 2.0f64.sqrt();
//! assert!((bill.eval(&s) - expected).abs() < 1e-12);
//! // A penalty of 1 per member lowers a two-member set by 2.
//! let penalized = CardinalityPenalized::new(bill, 1.0);
//! assert!((penalized.eval(&s) - (expected - 2.0)).abs() < 1e-12);
//! ```

use crate::subset::Subset;
use std::fmt;
use std::sync::Arc;

/// A real-valued function on subsets of a fixed ground set.
///
/// Implementations must be deterministic: repeated evaluation of the same
/// subset returns the same value. Optimization code additionally assumes
/// finiteness on every subset.
///
/// The `Send + Sync` supertraits let the oracle batches in this crate fan
/// evaluations out over `ccs-par` scoped threads; determinism then makes
/// the batched results identical to the serial ones.
pub trait SetFunction: Send + Sync {
    /// Size of the ground set `{0, .., n-1}`.
    fn ground_size(&self) -> usize;

    /// Evaluates the function on a subset.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `s.ground_size() != self.ground_size()`.
    fn eval(&self, s: &Subset) -> f64;

    /// Marginal gain `f(S ∪ {i}) − f(S)`.
    ///
    /// The default does two evaluations; implementations with cheaper
    /// marginals should override.
    fn marginal(&self, s: &Subset, i: usize) -> f64 {
        if s.contains(i) {
            0.0
        } else {
            self.eval(&s.with(i)) - self.eval(s)
        }
    }

    /// `f(∅)` — used to normalize before polyhedral algorithms.
    fn at_empty(&self) -> f64 {
        self.eval(&Subset::empty(self.ground_size()))
    }
}

impl<F: SetFunction + ?Sized> SetFunction for &F {
    fn ground_size(&self) -> usize {
        (**self).ground_size()
    }
    fn eval(&self, s: &Subset) -> f64 {
        (**self).eval(s)
    }
    fn marginal(&self, s: &Subset, i: usize) -> f64 {
        (**self).marginal(s, i)
    }
}

/// `f(S) − λ·|S|` — the penalized objective of Dinkelbach density search.
///
/// Submodular whenever `f` is (the subtracted term is modular).
#[derive(Debug, Clone)]
pub struct CardinalityPenalized<F> {
    inner: F,
    lambda: f64,
}

impl<F: SetFunction> CardinalityPenalized<F> {
    /// Wraps `inner` with penalty coefficient `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is non-finite.
    pub fn new(inner: F, lambda: f64) -> Self {
        assert!(lambda.is_finite(), "lambda must be finite");
        CardinalityPenalized { inner, lambda }
    }
}

impl<F: SetFunction> SetFunction for CardinalityPenalized<F> {
    fn ground_size(&self) -> usize {
        self.inner.ground_size()
    }

    fn eval(&self, s: &Subset) -> f64 {
        self.inner.eval(s) - self.lambda * s.len() as f64
    }

    fn marginal(&self, s: &Subset, i: usize) -> f64 {
        if s.contains(i) {
            0.0
        } else {
            self.inner.marginal(s, i) - self.lambda
        }
    }
}

/// Counts every oracle probe of the wrapped function on the global
/// `sfm.oracle_evals` telemetry counter.
///
/// The minimizer entry points (`mnp::minimize*`, `density::dinkelbach`)
/// install this wrapper (or the memoizing [`MemoFn`]) around the caller's
/// function, so `sfm.oracle_evals` reports the *actual* number of oracle
/// queries instead of the hand-maintained per-call-site estimates the
/// counter used to accumulate (which silently undercounted paths such as
/// `at_empty` normalization probes and drifted whenever an algorithm
/// changed).
#[derive(Debug, Clone)]
pub struct CountingFn<F> {
    inner: F,
}

impl<F: SetFunction> CountingFn<F> {
    /// Wraps `inner`; every `eval`/`marginal` probe increments
    /// `sfm.oracle_evals` by one.
    pub fn new(inner: F) -> Self {
        CountingFn { inner }
    }
}

impl<F: SetFunction> SetFunction for CountingFn<F> {
    fn ground_size(&self) -> usize {
        self.inner.ground_size()
    }

    fn eval(&self, s: &Subset) -> f64 {
        ccs_telemetry::counter!("sfm.oracle_evals").incr();
        self.inner.eval(s)
    }

    fn marginal(&self, s: &Subset, i: usize) -> f64 {
        // One oracle probe regardless of how the inner function computes it.
        ccs_telemetry::counter!("sfm.oracle_evals").incr();
        self.inner.marginal(s, i)
    }
}

/// Memoizes evaluations of the wrapped function by subset, counting each
/// *distinct* evaluated subset once on `sfm.oracle_evals` (at the vacant
/// insert) and repeats on `sfm.memo_hits`.
///
/// `mnp::minimize` wraps its argument in this: the Lovász prefix chains of
/// consecutive major iterations share long runs of identical prefixes once
/// the sort order stabilizes, and the final extraction sweep re-walks a
/// chain the last major iteration already evaluated. The memo is held for
/// one `minimize` call, so memory stays bounded by the evaluation count.
///
/// Lookups and inserts happen under one mutex acquisition, so the counters
/// are a pure function of the distinct-subset set — identical at any
/// `ccs-par` thread count.
pub struct MemoFn<F> {
    inner: F,
    memo: std::sync::Mutex<std::collections::HashMap<Subset, f64>>,
}

impl<F: SetFunction> MemoFn<F> {
    /// Wraps `inner` with an empty memo.
    pub fn new(inner: F) -> Self {
        MemoFn {
            inner,
            memo: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Number of memoized (distinct evaluated) subsets.
    pub fn len(&self) -> usize {
        self.memo.lock().expect("memo poisoned").len()
    }

    /// Whether no subset has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<F: SetFunction> fmt::Debug for MemoFn<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoFn")
            .field("memoized", &self.len())
            .finish_non_exhaustive()
    }
}

impl<F: SetFunction> SetFunction for MemoFn<F> {
    fn ground_size(&self) -> usize {
        self.inner.ground_size()
    }

    fn eval(&self, s: &Subset) -> f64 {
        let mut memo = self.memo.lock().expect("memo poisoned");
        if let Some(&v) = memo.get(s) {
            ccs_telemetry::counter!("sfm.memo_hits").incr();
            return v;
        }
        ccs_telemetry::counter!("sfm.oracle_evals").incr();
        let v = self.inner.eval(s);
        memo.insert(s.clone(), v);
        v
    }
}

/// A set function defined by a closure (for tests and ad-hoc objectives).
///
/// The closure is shared behind an [`Arc`] so the wrapper stays cheap to
/// clone into solver internals.
#[derive(Clone)]
pub struct FnSetFunction {
    ground_size: usize,
    f: Arc<dyn Fn(&Subset) -> f64 + Send + Sync>,
}

impl FnSetFunction {
    /// Wraps a closure as a set function.
    pub fn new(ground_size: usize, f: impl Fn(&Subset) -> f64 + Send + Sync + 'static) -> Self {
        FnSetFunction {
            ground_size,
            f: Arc::new(f),
        }
    }
}

impl fmt::Debug for FnSetFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnSetFunction")
            .field("ground_size", &self.ground_size)
            .finish_non_exhaustive()
    }
}

impl SetFunction for FnSetFunction {
    fn ground_size(&self) -> usize {
        self.ground_size
    }

    fn eval(&self, s: &Subset) -> f64 {
        (self.f)(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subset::all_subsets;

    /// `f(S) = Σ_{i∈S} w_i`.
    fn modular(weights: Vec<f64>) -> FnSetFunction {
        FnSetFunction::new(weights.len(), move |s| s.iter().map(|i| weights[i]).sum())
    }

    #[test]
    fn penalized_subtracts_lambda_per_element() {
        let p = CardinalityPenalized::new(modular(vec![5.0, 5.0, 5.0]), 2.0);
        let s = Subset::from_indices(3, [0, 1]);
        assert_eq!(p.eval(&s), 10.0 - 4.0);
        assert_eq!(p.marginal(&s, 2), 3.0);
        assert_eq!(p.marginal(&s, 0), 0.0, "already-present element");
    }

    #[test]
    fn fn_set_function_wraps_closure() {
        let f = FnSetFunction::new(4, |s| s.len() as f64 * 2.0);
        assert_eq!(f.eval(&Subset::from_indices(4, [0, 3])), 4.0);
        assert_eq!(f.ground_size(), 4);
        let dbg = format!("{f:?}");
        assert!(dbg.contains("FnSetFunction"));
    }

    #[test]
    fn counting_fn_is_transparent() {
        let f = modular(vec![1.0, -2.0, 3.0]);
        let counted = CountingFn::new(f.clone());
        for s in all_subsets(3) {
            assert_eq!(counted.eval(&s), f.eval(&s));
            assert_eq!(counted.marginal(&s, 0), f.marginal(&s, 0));
        }
        assert_eq!(counted.ground_size(), 3);
    }
    #[test]
    fn memo_fn_evaluates_each_distinct_subset_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let calls_inner = Arc::clone(&calls);
        let f = FnSetFunction::new(4, move |s| {
            calls_inner.fetch_add(1, Ordering::Relaxed);
            s.len() as f64
        });
        let memo = MemoFn::new(f);
        assert!(memo.is_empty());
        let a = Subset::from_indices(4, [0, 2]);
        let b = Subset::from_indices(4, [1]);
        assert_eq!(memo.eval(&a), 2.0);
        assert_eq!(memo.eval(&a), 2.0);
        assert_eq!(memo.eval(&b), 1.0);
        assert_eq!(memo.eval(&a), 2.0);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "one real eval per key");
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn marginal_default_matches_eval_difference() {
        let f = FnSetFunction::new(4, |s| (s.len() as f64).powi(2));
        for s in all_subsets(4) {
            for i in 0..4 {
                let expected = if s.contains(i) {
                    0.0
                } else {
                    f.eval(&s.with(i)) - f.eval(&s)
                };
                assert!((f.marginal(&s, i) - expected).abs() < 1e-12);
            }
        }
    }
}
