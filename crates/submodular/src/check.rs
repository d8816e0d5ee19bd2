//! Brute-force structural checks for set functions.
//!
//! These are exponential-time verifiers used in tests, debug assertions and
//! property-based testing — never in the hot path. They are the ground truth
//! the polynomial algorithms are validated against.

use crate::set_fn::SetFunction;
use crate::subset::{all_subsets, Subset};

/// Exhaustively checks submodularity via the diminishing-returns
/// characterization: for all `S ⊆ T` and `i ∉ T`,
/// `f(S ∪ {i}) − f(S) >= f(T ∪ {i}) − f(T)`.
///
/// Equivalent (and cheaper) check used here: for all `S` and `i ≠ j ∉ S`,
/// `f(S+i) + f(S+j) >= f(S+i+j) + f(S)`.
///
/// # Panics
///
/// Panics if the ground set exceeds 25 elements (exhaustive enumeration).
pub fn is_submodular<F: SetFunction>(f: &F, tol: f64) -> bool {
    let n = f.ground_size();
    for s in all_subsets(n) {
        for i in 0..n {
            if s.contains(i) {
                continue;
            }
            for j in (i + 1)..n {
                if s.contains(j) {
                    continue;
                }
                let fi = f.eval(&s.with(i));
                let fj = f.eval(&s.with(j));
                let fij = f.eval(&s.with(i).with(j));
                let fs = f.eval(&s);
                if fi + fj + tol < fij + fs {
                    return false;
                }
            }
        }
    }
    true
}

/// Exhaustively checks monotonicity (`S ⊆ T ⇒ f(S) <= f(T)`), via
/// nonnegative marginals.
///
/// # Panics
///
/// Panics if the ground set exceeds 25 elements.
pub fn is_monotone_nondecreasing<F: SetFunction>(f: &F, tol: f64) -> bool {
    let n = f.ground_size();
    for s in all_subsets(n) {
        for i in 0..n {
            if !s.contains(i) && f.marginal(&s, i) < -tol {
                return false;
            }
        }
    }
    true
}

/// Exhaustively finds the global minimizer; ground truth for SFM tests.
///
/// Returns `(argmin, min)`. Ties break toward the lexicographically first
/// enumerated subset (the empty set first).
///
/// # Panics
///
/// Panics if the ground set exceeds 25 elements.
pub fn brute_force_min<F: SetFunction>(f: &F) -> (Subset, f64) {
    let n = f.ground_size();
    let mut best: Option<(Subset, f64)> = None;
    for s in all_subsets(n) {
        let v = f.eval(&s);
        match &best {
            Some((_, bv)) if *bv <= v => {}
            _ => best = Some((s, v)),
        }
    }
    best.expect("at least the empty set exists")
}

/// Exhaustively finds the nonempty subset minimizing `f(S) / |S|`;
/// ground truth for density-search tests.
///
/// # Panics
///
/// Panics if the ground set exceeds 25 elements or is empty.
pub fn brute_force_min_density<F: SetFunction>(f: &F) -> (Subset, f64) {
    let n = f.ground_size();
    assert!(n > 0, "density undefined on an empty ground set");
    let mut best: Option<(Subset, f64)> = None;
    for s in all_subsets(n) {
        if s.is_empty() {
            continue;
        }
        let v = f.eval(&s) / s.len() as f64;
        match &best {
            Some((_, bv)) if *bv <= v => {}
            _ => best = Some((s, v)),
        }
    }
    best.expect("a nonempty ground set has nonempty subsets")
}

/// `f(S) = offset + Σ_{i∈S} wᵢ + scale·g(|S|)`: modular plus concave of
/// cardinality, the family the unit tests check the algorithms on.
#[cfg(test)]
pub(crate) fn modular_plus_concave(
    offset: f64,
    weights: Vec<f64>,
    scale: f64,
    g: fn(f64) -> f64,
) -> crate::set_fn::FnSetFunction {
    crate::set_fn::FnSetFunction::new(weights.len(), move |s| {
        offset + s.iter().map(|i| weights[i]).sum::<f64>() + scale * g(s.len() as f64)
    })
}

/// `f(S) = Σ_{i∈S} wᵢ`.
#[cfg(test)]
pub(crate) fn modular(weights: Vec<f64>) -> crate::set_fn::FnSetFunction {
    modular_plus_concave(0.0, weights, 0.0, f64::sqrt)
}

/// The concave curves `g` the unit tests draw from: `√k`, `ln(1 + k)` and
/// `min(k, 2)`.
#[cfg(test)]
pub(crate) const CURVES: [fn(f64) -> f64; 3] = [f64::sqrt, |k| (1.0 + k).ln(), |k| k.min(2.0)];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_fn::FnSetFunction;

    #[test]
    fn modular_is_submodular_and_monotone_with_nonneg_weights() {
        let f = modular(vec![1.0, 2.0, 0.0]);
        assert!(is_submodular(&f, 1e-12));
        assert!(is_monotone_nondecreasing(&f, 1e-12));
    }

    #[test]
    fn concave_cardinality_is_submodular() {
        for g in CURVES {
            let f = modular_plus_concave(0.0, vec![0.0; 5], 2.0, g);
            assert!(is_submodular(&f, 1e-12));
            assert!(is_monotone_nondecreasing(&f, 1e-12));
        }
    }

    #[test]
    fn convex_cardinality_is_not_submodular() {
        let f = FnSetFunction::new(4, |s| (s.len() as f64).powi(2));
        assert!(!is_submodular(&f, 1e-12));
        assert!(is_monotone_nondecreasing(&f, 1e-12));
    }

    #[test]
    fn coverage_function_is_submodular_not_modular() {
        // f(S) = |union of sets|: the canonical submodular example.
        let sets = [vec![0, 1], vec![1, 2], vec![2, 3]];
        let f = FnSetFunction::new(3, move |s| {
            let mut covered = std::collections::BTreeSet::new();
            for i in s.iter() {
                covered.extend(sets[i].iter().copied());
            }
            covered.len() as f64
        });
        assert!(is_submodular(&f, 1e-12));
    }

    #[test]
    fn sum_preserves_submodularity() {
        // Modular plus concave of cardinality.
        let f = modular_plus_concave(0.0, vec![1.0, -2.0, 2.0, 0.0], 3.0, f64::sqrt);
        assert!(is_submodular(&f, 1e-9));
        // Negative weight makes it non-monotone.
        assert!(!is_monotone_nondecreasing(&f, 1e-9));
    }

    #[test]
    fn brute_force_min_finds_negative_pocket() {
        let f = modular(vec![2.0, -3.0, 1.0, -1.0]);
        let (s, v) = brute_force_min(&f);
        assert_eq!(s.to_vec(), vec![1, 3]);
        assert_eq!(v, -4.0);
    }

    #[test]
    fn brute_force_min_of_nonnegative_is_empty_set() {
        let f = modular(vec![1.0, 2.0]);
        let (s, v) = brute_force_min(&f);
        assert!(s.is_empty());
        assert_eq!(v, 0.0);
    }

    #[test]
    fn brute_force_density_prefers_fee_amortization() {
        // Fixed fee 10 plus per-element cost 1: density of a set of size k is
        // (10 + k)/k, minimized by taking everything.
        let f = FnSetFunction::new(4, |s| {
            if s.is_empty() {
                0.0
            } else {
                10.0 + s.len() as f64
            }
        });
        let (s, v) = brute_force_min_density(&f);
        assert_eq!(s.len(), 4);
        assert!((v - 14.0 / 4.0).abs() < 1e-12);
    }
}
