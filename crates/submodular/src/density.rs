//! Minimum-density subset search: `min_{S ≠ ∅} f(S) / |S|`.
//!
//! CCSA's inner loop asks, for each candidate facility, *which group of
//! devices has the cheapest per-member bill*. That is a minimum-ratio
//! problem, solved exactly by **Dinkelbach's algorithm**: repeatedly
//! minimize the parametric function `f(S) − λ|S|` (submodular whenever `f`
//! is, so each step is an SFM call) and tighten `λ` to the ratio of the
//! minimizer, until no subset beats the current ratio.
//!
//! Two inner oracles are provided: the general min-norm-point SFM and the
//! `O(n log n)` exact path for [`SeparableFn`] objectives.

use crate::minimize::{separable_min, SeparableFn};
use crate::mnp::minimize_warm;
use crate::set_fn::{CardinalityPenalized, CountingFn, SetFunction};
use crate::subset::Subset;
use std::fmt;

/// Error from density search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DensityError {
    /// The ground set was empty, so no nonempty subset exists.
    EmptyGroundSet,
    /// `f(∅)` was not (numerically) zero; the ratio `f(S)/|S|` is only
    /// meaningful for normalized functions.
    NotNormalized,
}

impl fmt::Display for DensityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DensityError::EmptyGroundSet => write!(f, "ground set is empty"),
            DensityError::NotNormalized => {
                write!(
                    f,
                    "set function must satisfy f(empty) = 0 for density search"
                )
            }
        }
    }
}

impl std::error::Error for DensityError {}

/// Result of a minimum-density search.
#[derive(Debug, Clone)]
pub struct DensityResult {
    /// A nonempty subset achieving the minimum ratio.
    pub minimizer: Subset,
    /// The minimum value of `f(S)/|S|`.
    pub density: f64,
    /// Dinkelbach iterations performed (SFM calls).
    pub iterations: usize,
}

const MAX_DINKELBACH_ITERATIONS: usize = 64;
const RATIO_TOLERANCE: f64 = 1e-9;

/// Dinkelbach iteration shared by both oracles. `inner(lambda)` must return
/// a global minimizer of `f(S) − λ|S|` (the empty set allowed); it is
/// `FnMut` so the inner solver may carry state across iterations (the MNP
/// oracle warm-starts each minimization from the previous minimizer).
///
/// The seeding and ratio-refresh probes run through a [`CountingFn`], so
/// `sfm.oracle_evals` counts what was actually evaluated here; the inner
/// minimizer accounts for its own probes.
fn dinkelbach<F, O>(f: &F, mut inner: O) -> Result<DensityResult, DensityError>
where
    F: SetFunction,
    O: FnMut(f64) -> (Subset, f64),
{
    let f = CountingFn::new(f);
    let n = f.ground_size();
    if n == 0 {
        return Err(DensityError::EmptyGroundSet);
    }
    if f.at_empty().abs() > 1e-9 {
        return Err(DensityError::NotNormalized);
    }

    // Start from the cheapest singleton ratio (an upper bound on the
    // answer). The n singleton probes are independent, so they run as one
    // parallel oracle batch; the min is then taken over the batch in index
    // order, which reproduces the serial scan's selection exactly.
    let empty = Subset::empty(n);
    let singleton_values: Vec<f64> = ccs_par::par_eval(n, |i| f.eval(&empty.with(i)));
    let (mut best_set, mut best_ratio) = singleton_values
        .iter()
        .enumerate()
        .map(|(i, &r)| (empty.with(i), r))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty ground set has singletons");

    let mut iterations = 0;
    while iterations < MAX_DINKELBACH_ITERATIONS {
        iterations += 1;
        let (s, h_min) = inner(best_ratio);
        if s.is_empty() || h_min >= -RATIO_TOLERANCE * (1.0 + best_ratio.abs()) {
            break; // No subset has ratio strictly below best_ratio.
        }
        let ratio = f.eval(&s) / s.len() as f64;
        if ratio >= best_ratio - RATIO_TOLERANCE * (1.0 + best_ratio.abs()) {
            break; // Numerical stall; best_ratio is the answer.
        }
        best_ratio = ratio;
        best_set = s;
    }

    ccs_telemetry::counter!("sfm.dinkelbach_calls").incr();
    ccs_telemetry::counter!("sfm.dinkelbach_iters").add(iterations as u64);

    Ok(DensityResult {
        minimizer: best_set,
        density: best_ratio,
        iterations,
    })
}

/// Minimum-density search for a general (normalized) submodular `f`, using
/// the min-norm-point algorithm for the inner parametric minimizations.
///
/// Consecutive Dinkelbach iterations minimize `f − λ|S|` for nearby `λ`, so
/// each MNP call after the first is warm-started from the previous
/// iteration's minimizer ([`minimize_warm`]) — the Wolfe loop starts at a
/// vertex whose prefix chain passes through the old answer and typically
/// converges in a fraction of the cold-start major iterations.
///
/// # Errors
///
/// Returns [`DensityError::EmptyGroundSet`] for `n = 0` and
/// [`DensityError::NotNormalized`] when `f(∅) ≠ 0`.
pub fn min_density_mnp<F: SetFunction>(f: &F) -> Result<DensityResult, DensityError> {
    let mut prev: Option<Subset> = None;
    dinkelbach(f, move |lambda| {
        let penalized = CardinalityPenalized::new(f, lambda);
        let r = minimize_warm(&penalized, prev.as_ref());
        prev = Some(r.minimizer.clone());
        (r.minimizer, r.value)
    })
}

/// Minimum-density search for the separable family, using the exact
/// `O(n log n)` inner minimizer — the fast path CCSA runs in production.
///
/// # Errors
///
/// Returns [`DensityError::EmptyGroundSet`] for `n = 0`. Separable
/// functions are normalized by construction.
pub fn min_density_separable(f: &SeparableFn) -> Result<DensityResult, DensityError> {
    dinkelbach(f, |lambda| separable_min(f, lambda))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::brute_force_min_density;
    use crate::set_fn::FnSetFunction;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empty_ground_set_is_an_error() {
        let f = SeparableFn::new(vec![], 0.0, 0.0);
        assert_eq!(
            min_density_separable(&f).unwrap_err(),
            DensityError::EmptyGroundSet
        );
    }

    #[test]
    fn unnormalized_function_is_an_error() {
        let f = FnSetFunction::new(3, |_| 7.0);
        assert_eq!(
            min_density_mnp(&f).unwrap_err(),
            DensityError::NotNormalized
        );
    }

    #[test]
    fn fee_amortization_takes_whole_group() {
        // fee 10, unit weights: density (10 + k)/k strictly decreasing in k.
        let f = SeparableFn::new(vec![1.0; 6], 10.0, 0.0);
        let r = min_density_separable(&f).unwrap();
        assert_eq!(r.minimizer.len(), 6);
        assert!((r.density - 16.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn expensive_member_is_left_out() {
        // fee 4, weights [1, 1, 100]: best group is {0, 1} with (4+2)/2 = 3.
        let f = SeparableFn::new(vec![1.0, 1.0, 100.0], 4.0, 0.0);
        let r = min_density_separable(&f).unwrap();
        assert_eq!(r.minimizer.to_vec(), vec![0, 1]);
        assert!((r.density - 3.0).abs() < 1e-9);
    }

    #[test]
    fn separable_density_matches_brute_force_randomized() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for trial in 0..60 {
            let n = rng.gen_range(1..=9);
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..5.0)).collect();
            let fee = rng.gen_range(0.0..8.0);
            let scale = rng.gen_range(0.0..2.0);
            let f = SeparableFn::new(weights, fee, scale);
            let r = min_density_separable(&f).unwrap();
            let (_, expected) = brute_force_min_density(&f);
            assert!(
                (r.density - expected).abs() < 1e-8,
                "trial {trial}: dinkelbach {} vs brute {expected}",
                r.density
            );
            let check = f.eval(&r.minimizer) / r.minimizer.len() as f64;
            assert!((check - r.density).abs() < 1e-9);
        }
    }

    #[test]
    fn mnp_density_matches_separable_fast_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        for _ in 0..20 {
            let n = rng.gen_range(1..=7);
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..5.0)).collect();
            let fee = rng.gen_range(0.0..6.0);
            let f = SeparableFn::new(weights, fee, 1.0);
            let fast = min_density_separable(&f).unwrap();
            let general = min_density_mnp(&f).unwrap();
            assert!(
                (fast.density - general.density).abs() < 1e-7,
                "fast {} vs mnp {}",
                fast.density,
                general.density
            );
        }
    }

    #[test]
    fn density_with_negative_weights() {
        // Negative-weight elements (subsidized members) should be scooped up.
        let f = SeparableFn::new(vec![-2.0, 3.0], 1.0, 0.0);
        let r = min_density_separable(&f).unwrap();
        let (_, expected) = brute_force_min_density(&f);
        assert!((r.density - expected).abs() < 1e-9);
        assert!(r.density < 0.0);
    }

    #[test]
    fn iterations_stay_bounded() {
        let f = SeparableFn::new(vec![1.0; 20], 30.0, 3.0);
        let r = min_density_separable(&f).unwrap();
        assert!(r.iterations <= MAX_DINKELBACH_ITERATIONS);
        assert!(r.iterations >= 1);
    }
}
