//! The specialized minimizer complementing the general min-norm-point
//! algorithm.
//!
//! [`SeparableFn`] is the `fee·1[S≠∅] + Σ w_i + scale·√|S|` family the
//! CCS group bill lives in, with an exact `O(n log n)` minimizer
//! ([`separable_min`]): sort weights ascending, scan prefixes.

use crate::set_fn::SetFunction;
use crate::subset::Subset;

/// A separable submodular function
/// `f(S) = fee·1[S ≠ ∅] + Σ_{i∈S} w_i + scale·√|S|`.
///
/// This is exactly the shape of the CCS group bill for a fixed facility
/// (congestion `η_j·√k`, DESIGN §1), so CCSA's inner minimization has a
/// fast exact path that avoids the general polytope machinery.
#[derive(Debug, Clone, PartialEq)]
pub struct SeparableFn {
    weights: Vec<f64>,
    fee: f64,
    scale: f64,
}

impl SeparableFn {
    /// Creates the function.
    ///
    /// # Panics
    ///
    /// Panics if weights/fee/scale are non-finite, `fee < 0`, or `scale < 0`.
    pub fn new(weights: Vec<f64>, fee: f64, scale: f64) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite()),
            "weights must be finite"
        );
        assert!(fee.is_finite() && fee >= 0.0, "fee must be finite and >= 0");
        assert!(
            scale.is_finite() && scale >= 0.0,
            "scale must be finite and >= 0"
        );
        SeparableFn {
            weights,
            fee,
            scale,
        }
    }

    /// The per-element weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The fixed fee paid by any nonempty set.
    pub fn fee(&self) -> f64 {
        self.fee
    }
}

impl SetFunction for SeparableFn {
    fn ground_size(&self) -> usize {
        self.weights.len()
    }

    fn eval(&self, s: &Subset) -> f64 {
        assert_eq!(s.ground_size(), self.weights.len(), "ground size mismatch");
        if s.is_empty() {
            return 0.0;
        }
        self.fee
            + s.iter().map(|i| self.weights[i]).sum::<f64>()
            + self.scale * (s.len() as f64).sqrt()
    }

    fn marginal(&self, s: &Subset, i: usize) -> f64 {
        if s.contains(i) {
            return 0.0;
        }
        let k = s.len();
        let fee_part = if k == 0 { self.fee } else { 0.0 };
        fee_part + self.weights[i] + self.scale * (((k + 1) as f64).sqrt() - (k as f64).sqrt())
    }
}

/// Exactly minimizes `f(S) − lambda·|S|` for a [`SeparableFn`] in
/// `O(n log n)`: for each cardinality `k` the optimal set takes the `k`
/// smallest weights, so scanning sorted prefixes covers every candidate.
///
/// Returns `(argmin, min)`; the empty set (value 0) is a candidate.
pub fn separable_min(f: &SeparableFn, lambda: f64) -> (Subset, f64) {
    let n = f.ground_size();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| f.weights[a].total_cmp(&f.weights[b]).then(a.cmp(&b)));

    let mut best_val = 0.0; // empty set
    let mut best_k = 0usize;
    let mut acc = 0.0;
    for (idx, &i) in order.iter().enumerate() {
        let k = idx + 1;
        acc += f.weights[i];
        let v = f.fee + acc + f.scale * (k as f64).sqrt() - lambda * k as f64;
        if v < best_val - 1e-15 {
            best_val = v;
            best_k = k;
        }
    }
    let set = Subset::from_indices(n, order[..best_k].iter().copied());
    (set, best_val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{brute_force_min, is_submodular};
    use crate::set_fn::CardinalityPenalized;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn separable_fn_is_submodular() {
        let f = SeparableFn::new(vec![1.0, -2.0, 3.0, 0.5], 5.0, 2.0);
        assert!(is_submodular(&f, 1e-9));
        assert_eq!(f.eval(&Subset::empty(4)), 0.0, "empty set pays nothing");
        let s = Subset::from_indices(4, [0, 1]);
        let expected = 5.0 + (1.0 - 2.0) + 2.0 * 2.0f64.sqrt();
        assert!((f.eval(&s) - expected).abs() < 1e-12);
    }

    #[test]
    fn separable_marginal_includes_fee_only_from_empty() {
        let f = SeparableFn::new(vec![1.0, 1.0], 10.0, 0.0);
        let empty = Subset::empty(2);
        assert_eq!(f.marginal(&empty, 0), 11.0);
        let one = Subset::from_indices(2, [0]);
        assert_eq!(f.marginal(&one, 1), 1.0);
    }

    #[test]
    fn separable_min_matches_brute_force_randomized() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for trial in 0..60 {
            let n = rng.gen_range(1..=9);
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let fee = rng.gen_range(0.0..6.0);
            let scale = rng.gen_range(0.0..3.0);
            let lambda = rng.gen_range(0.0..5.0);
            let f = SeparableFn::new(weights, fee, scale);
            let (set, val) = separable_min(&f, lambda);
            let penalized = CardinalityPenalized::new(f.clone(), lambda);
            let (_, expected) = brute_force_min(&penalized);
            assert!(
                (val - expected).abs() < 1e-9,
                "trial {trial}: separable {val} vs brute {expected}"
            );
            assert!((penalized.eval(&set) - val).abs() < 1e-9);
        }
    }

    #[test]
    fn separable_min_returns_empty_when_nothing_pays() {
        let f = SeparableFn::new(vec![1.0, 2.0], 5.0, 1.0);
        let (set, val) = separable_min(&f, 0.0);
        assert!(set.is_empty());
        assert_eq!(val, 0.0);
    }

    #[test]
    fn separable_min_takes_everything_under_large_lambda() {
        let f = SeparableFn::new(vec![1.0, 2.0, 3.0], 5.0, 1.0);
        let (set, _) = separable_min(&f, 100.0);
        assert_eq!(set.len(), 3);
    }
}
