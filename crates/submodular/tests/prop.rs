//! Property-based tests of the submodular toolkit against its exponential
//! brute-force ground truth.

use ccs_submodular::check::{brute_force_min, brute_force_min_density, is_submodular};
use ccs_submodular::density::min_density_separable;
use ccs_submodular::lovasz::greedy_vertex;
use ccs_submodular::minimize::{separable_min, SeparableFn};
use ccs_submodular::mnp::minimize;
use ccs_submodular::set_fn::{CardinalityPenalized, FnSetFunction, SetFunction};
use ccs_submodular::subset::{all_subsets, Subset};
use proptest::prelude::*;

/// A concave nondecreasing cardinality curve `g` with `g(0) = 0`.
#[derive(Debug, Clone, Copy)]
enum Curve {
    /// `√k`.
    Sqrt,
    /// `ln(1 + k)`.
    Log1p,
    /// `k`.
    Linear,
    /// `k^p` for `p` in `(0, 1)`.
    Power(f64),
    /// `min(k, c)`.
    Saturating(f64),
}

impl Curve {
    fn eval(self, k: f64) -> f64 {
        match self {
            Curve::Sqrt => k.sqrt(),
            Curve::Log1p => (1.0 + k).ln(),
            Curve::Linear => k,
            Curve::Power(p) => k.powf(p),
            Curve::Saturating(c) => k.min(c),
        }
    }
}

fn arb_curve() -> impl Strategy<Value = Curve> {
    prop_oneof![
        Just(Curve::Sqrt),
        Just(Curve::Log1p),
        Just(Curve::Linear),
        (0.1f64..1.0).prop_map(Curve::Power),
        (1usize..5).prop_map(|c| Curve::Saturating(c as f64)),
    ]
}

/// `f(S) = Σ_{i∈S} wᵢ + scale·g(|S|)`: modular plus concave of cardinality.
fn modular_plus_concave(weights: Vec<f64>, scale: f64, curve: Curve) -> FnSetFunction {
    FnSetFunction::new(weights.len(), move |s| {
        s.iter().map(|i| weights[i]).sum::<f64>() + scale * curve.eval(s.len() as f64)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn modular_plus_concave_is_submodular(
        weights in proptest::collection::vec(-5.0f64..5.0, 1..7),
        scale in 0.0f64..4.0,
        curve in arb_curve(),
    ) {
        let f = modular_plus_concave(weights, scale, curve);
        prop_assert!(is_submodular(&f, 1e-9));
    }

    #[test]
    fn mnp_equals_brute_force(
        weights in proptest::collection::vec(-5.0f64..5.0, 1..8),
        scale in 0.0f64..3.0,
        curve in arb_curve(),
    ) {
        let f = modular_plus_concave(weights, scale, curve);
        let got = minimize(&f);
        let (_, expected) = brute_force_min(&f);
        prop_assert!((got.value - expected).abs() < 1e-7,
            "mnp {} vs brute {}", got.value, expected);
        // Reported minimizer must evaluate to the reported value.
        prop_assert!((f.eval(&got.minimizer) - got.value).abs() < 1e-9);
    }

    #[test]
    fn separable_min_equals_penalized_brute_force(
        weights in proptest::collection::vec(-4.0f64..4.0, 1..8),
        fee in 0.0f64..8.0,
        scale in 0.0f64..3.0,
        lambda in 0.0f64..6.0,
    ) {
        let f = SeparableFn::new(weights, fee, scale);
        let (set, val) = separable_min(&f, lambda);
        let penalized = CardinalityPenalized::new(f.clone(), lambda);
        let (_, expected) = brute_force_min(&penalized);
        prop_assert!((val - expected).abs() < 1e-8);
        prop_assert!((penalized.eval(&set) - val).abs() < 1e-9);
    }

    #[test]
    fn dinkelbach_density_equals_brute_force(
        weights in proptest::collection::vec(0.0f64..5.0, 1..8),
        fee in 0.0f64..8.0,
        scale in 0.0f64..2.0,
    ) {
        let f = SeparableFn::new(weights, fee, scale);
        let got = min_density_separable(&f).unwrap();
        let (_, expected) = brute_force_min_density(&f);
        prop_assert!((got.density - expected).abs() < 1e-7);
        prop_assert!(!got.minimizer.is_empty());
    }

    #[test]
    fn greedy_vertex_lies_in_the_base_polytope(
        weights in proptest::collection::vec(-3.0f64..3.0, 1..6),
        scale in 0.0f64..2.0,
        curve in arb_curve(),
        direction in proptest::collection::vec(-1.0f64..1.0, 6),
    ) {
        let n = weights.len();
        let f = modular_plus_concave(weights, scale, curve);
        let v = greedy_vertex(&f, &direction[..n]);
        // x(S) <= f(S) for all S, with equality at the ground set.
        for s in all_subsets(n) {
            let xs: f64 = s.iter().map(|i| v[i]).sum();
            prop_assert!(xs <= f.eval(&s) + 1e-9);
        }
        let total: f64 = v.iter().sum();
        prop_assert!((total - f.eval(&Subset::from_indices(n, 0..n))).abs() < 1e-9);
    }

    #[test]
    fn cut_functions_minimize_to_zero(
        edges in proptest::collection::vec((0usize..6, 0usize..6), 0..10),
    ) {
        let f = FnSetFunction::new(6, move |s| {
            edges
                .iter()
                .filter(|(u, v)| u != v && s.contains(*u) != s.contains(*v))
                .count() as f64
        });
        prop_assert!(is_submodular(&f, 1e-12));
        let r = minimize(&f);
        prop_assert!(r.value.abs() < 1e-9, "empty/full cut is always zero");
    }
}
