//! Exact submodular function minimization via the Fujishige–Wolfe
//! minimum-norm-point algorithm.
//!
//! Fujishige's theorem: if `x*` is the minimum-norm point of the base
//! polytope `B(f)` of a normalized submodular `f`, then
//! `S* = { i : x*_i < 0 }` minimizes `f` (and `{ i : x*_i <= 0 }` is the
//! maximal minimizer). Wolfe's algorithm finds `x*` by maintaining a small
//! affine basis of polytope vertices, alternating *major* steps (add the
//! vertex minimizing `<x, ·>`, from Edmonds' greedy oracle) and *minor*
//! steps (move to the affine minimizer of the basis, dropping vertices whose
//! convex coefficient would turn negative).
//!
//! For robustness against floating-point noise the minimizer is extracted by
//! scanning all prefixes of the ground set sorted by `x*` (which provably
//! contains a true minimizer for exact arithmetic) and returning the best.
//!
//! # Examples
//!
//! ```
//! use ccs_submodular::set_fn::FnSetFunction;
//! use ccs_submodular::mnp::minimize;
//!
//! // min over S of sum of weights: take exactly the negative elements.
//! let weights = [2.0, -3.0, 1.0, -1.0];
//! let f = FnSetFunction::new(4, move |s| s.iter().map(|i| weights[i]).sum());
//! let result = minimize(&f);
//! assert_eq!(result.minimizer.to_vec(), vec![1, 3]);
//! assert_eq!(result.value, -4.0);
//! ```

use crate::lovasz::greedy_vertex;
use crate::set_fn::{MemoFn, SetFunction};
use crate::subset::Subset;

/// Relative duality-gap tolerance of the Wolfe loop.
const TOLERANCE: f64 = 1e-10;

/// Result of a submodular function minimization.
#[derive(Debug, Clone)]
pub struct SfmResult {
    /// A minimizing subset.
    pub minimizer: Subset,
    /// `f(minimizer)` (in the caller's un-normalized scale).
    pub value: f64,
    /// The minimum-norm point of the base polytope (normalized `f`).
    pub min_norm_point: Vec<f64>,
    /// Number of major (vertex-adding) iterations performed.
    pub major_iterations: usize,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `G z = 1` (ones vector) with partial pivoting; retries with an
/// increasing ridge when the Gram matrix is numerically singular (affinely
/// dependent vertices).
fn solve_gram_ones(gram: &[Vec<f64>]) -> Option<Vec<f64>> {
    let k = gram.len();
    let trace: f64 = (0..k).map(|i| gram[i][i]).sum();
    let mut ridge = 0.0;
    for _attempt in 0..4 {
        let mut a: Vec<Vec<f64>> = gram.to_vec();
        for (i, row) in a.iter_mut().enumerate() {
            row[i] += ridge;
        }
        let mut b = vec![1.0; k];
        if gaussian_solve(&mut a, &mut b) {
            return Some(b);
        }
        ridge = if ridge == 0.0 {
            1e-12 * (1.0 + trace / k as f64)
        } else {
            ridge * 1e3
        };
    }
    None
}

/// In-place Gaussian elimination with partial pivoting. Returns `false` on a
/// pivot below tolerance.
fn gaussian_solve(a: &mut [Vec<f64>], b: &mut [f64]) -> bool {
    let k = a.len();
    for col in 0..k {
        let pivot_row = (col..k)
            .max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))
            .expect("nonempty range");
        if a[pivot_row][col].abs() < 1e-13 {
            return false;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in (col + 1)..k {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            let (pivot_rows, rest) = a.split_at_mut(col + 1);
            let pivot_row_vals = &pivot_rows[col];
            let row_vals = &mut rest[row - col - 1];
            for (rv, pv) in row_vals[col..k].iter_mut().zip(&pivot_row_vals[col..k]) {
                *rv -= factor * pv;
            }
            b[row] -= factor * b[col];
        }
    }
    for col in (0..k).rev() {
        let mut v = b[col];
        for c in (col + 1)..k {
            v -= a[col][c] * b[c];
        }
        b[col] = v / a[col][col];
    }
    b.iter().all(|v| v.is_finite())
}

/// Affine minimizer coefficients of the vertex set `points`: the `α` with
/// `Σ α_i = 1` minimizing `||Σ α_i points_i||²` (signs unconstrained).
fn affine_minimizer(points: &[Vec<f64>]) -> Option<Vec<f64>> {
    let k = points.len();
    let mut gram = vec![vec![0.0; k]; k];
    for i in 0..k {
        for j in i..k {
            let g = dot(&points[i], &points[j]);
            gram[i][j] = g;
            gram[j][i] = g;
        }
    }
    let z = solve_gram_ones(&gram)?;
    let sum: f64 = z.iter().sum();
    if sum.abs() < 1e-300 || !sum.is_finite() {
        return None;
    }
    Some(z.iter().map(|v| v / sum).collect())
}

fn combine(points: &[Vec<f64>], coeffs: &[f64], n: usize) -> Vec<f64> {
    let mut x = vec![0.0; n];
    for (p, &c) in points.iter().zip(coeffs) {
        for (xi, pi) in x.iter_mut().zip(p) {
            *xi += c * pi;
        }
    }
    x
}

/// Minimizes a submodular function exactly (up to floating point) using the
/// Fujishige–Wolfe minimum-norm-point algorithm.
///
/// The function is normalized internally (`f(∅)` subtracted); the returned
/// `value` is in the caller's original scale. Ties prefer the minimal
/// minimizer (strictly negative coordinates of the min-norm point), and the
/// empty set is always a candidate, so for nonnegative normalized functions
/// the empty set is returned.
///
/// The caller is responsible for actually passing a *submodular* function;
/// on non-submodular input the result is a heuristic local answer.
pub fn minimize<F: SetFunction>(f: &F) -> SfmResult {
    minimize_warm(f, None)
}

/// [`minimize`] with an optional warm-start set.
///
/// When `warm` is given (typically the minimizer of a *nearby* problem —
/// Dinkelbach density search re-minimizes `f − λ|S|` with only `λ` moving),
/// the initial polytope vertex is the greedy vertex for the direction that
/// sorts `warm`'s members first. Its prefix chain then walks straight
/// through the previous minimizer, so the first major iteration already
/// starts near the answer and the Wolfe loop converges in fewer vertex
/// additions. The result is the same minimum (up to the usual floating
/// tolerance) regardless of `warm` — only the path changes.
///
/// Every oracle probe runs through a per-call [`MemoFn`], so the prefix
/// chains shared between consecutive major iterations (and the final
/// extraction sweep) are evaluated once, and `sfm.oracle_evals` counts
/// exactly the distinct subsets evaluated.
pub fn minimize_warm<F: SetFunction>(f: &F, warm: Option<&Subset>) -> SfmResult {
    ccs_telemetry::counter!("sfm.mnp_calls").incr();
    let f = MemoFn::new(f);
    let f = &f;
    let n = f.ground_size();
    if n == 0 {
        return SfmResult {
            minimizer: Subset::empty(0),
            value: f.at_empty(),
            min_norm_point: Vec::new(),
            major_iterations: 0,
        };
    }

    // Hard cap on major iterations (vertex additions).
    let max_major = 10 * n + 100;

    // Initial vertex: warm-started toward the previous minimizer, or from
    // an arbitrary direction.
    let w0: Vec<f64> = match warm {
        Some(s) => {
            assert_eq!(s.ground_size(), n, "warm-start ground size mismatch");
            (0..n)
                .map(|i| if s.contains(i) { -1.0 } else { 0.0 })
                .collect()
        }
        None => vec![0.0; n],
    };
    let x0 = greedy_vertex(f, &w0);
    let mut vertices: Vec<Vec<f64>> = vec![x0.clone()];
    let mut coeffs: Vec<f64> = vec![1.0];
    let mut x = x0;
    let mut major_iterations = 0;

    while major_iterations < max_major {
        major_iterations += 1;

        // Major step: linear oracle toward the most improving vertex.
        let q = greedy_vertex(f, &x);
        let xx = dot(&x, &x);
        let xq = dot(&x, &q);
        if xx - xq <= TOLERANCE * (1.0 + xx.abs()) {
            break; // x is (numerically) the min-norm point.
        }
        // Guard against re-adding an existing vertex (numerical stall).
        let dup = vertices.iter().any(|v| {
            v.iter()
                .zip(&q)
                .all(|(a, b)| (a - b).abs() <= 1e-12 * (1.0 + a.abs()))
        });
        if dup {
            break;
        }
        vertices.push(q);
        coeffs.push(0.0);

        // Minor loop: project onto the affine hull, dropping vertices whose
        // coefficient would go negative. Each pass removes at least one
        // vertex or terminates, so it runs at most |vertices| times.
        loop {
            let alpha = match affine_minimizer(&vertices) {
                Some(a) => a,
                None => {
                    // Degenerate basis: drop the oldest vertex and retry;
                    // if only one remains, keep it.
                    if vertices.len() > 1 {
                        vertices.remove(0);
                        coeffs.remove(0);
                        continue;
                    }
                    coeffs = vec![1.0];
                    break;
                }
            };
            if alpha.iter().all(|&a| a >= -1e-12) {
                coeffs = alpha.iter().map(|&a| a.max(0.0)).collect();
                break;
            }
            // Step from coeffs toward alpha until the first coefficient hits 0.
            let mut theta = 1.0f64;
            for (&l, &a) in coeffs.iter().zip(&alpha) {
                if a < -1e-12 {
                    theta = theta.min(l / (l - a));
                }
            }
            let theta = theta.clamp(0.0, 1.0);
            for (l, &a) in coeffs.iter_mut().zip(&alpha) {
                *l = (1.0 - theta) * *l + theta * a;
            }
            // Drop vanished vertices.
            let mut i = 0;
            while i < coeffs.len() {
                if coeffs[i] <= 1e-12 {
                    coeffs.remove(i);
                    vertices.remove(i);
                } else {
                    i += 1;
                }
            }
            if vertices.is_empty() {
                // Should not happen; restore a safe state.
                let v = greedy_vertex(f, &vec![0.0; n]);
                vertices.push(v);
                coeffs = vec![1.0];
                break;
            }
            // Renormalize to guard drift.
            let s: f64 = coeffs.iter().sum();
            if s > 0.0 {
                for c in coeffs.iter_mut() {
                    *c /= s;
                }
            }
        }
        x = combine(&vertices, &coeffs, n);
    }

    // Robust extraction: all prefixes of the ground set ordered by x*,
    // plus the empty set, are candidate minimizers. The prefix values are
    // one parallel oracle batch; the scan stays serial so the first-best
    // tie-break is identical at any thread count.
    let offset = f.at_empty();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| x[a].total_cmp(&x[b]).then(a.cmp(&b)));
    let values = crate::lovasz::prefix_values(f, &order);
    let mut best_set = Subset::empty(n);
    let mut best_val = 0.0; // normalized f(∅) = 0
    let mut prefix = Subset::empty(n);
    for (&i, &raw) in order.iter().zip(&values) {
        prefix.insert(i);
        let v = raw - offset;
        if v < best_val - 1e-15 {
            best_val = v;
            best_set = prefix.clone();
        }
    }

    ccs_telemetry::counter!("sfm.mnp_major_iters").add(major_iterations as u64);

    SfmResult {
        value: best_val + offset,
        minimizer: best_set,
        min_norm_point: x,
        major_iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{brute_force_min, is_submodular, modular, modular_plus_concave, CURVES};
    use crate::minimize::SeparableFn;
    use crate::set_fn::{CardinalityPenalized, FnSetFunction};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn assert_matches_brute_force<F: SetFunction>(f: &F) {
        let (_, expected) = brute_force_min(f);
        let got = minimize(f);
        assert!(
            (got.value - expected).abs() < 1e-8,
            "mnp found {} but brute force found {}",
            got.value,
            expected
        );
        let check = f.eval(&got.minimizer);
        assert!(
            (check - got.value).abs() < 1e-9,
            "reported value must match reported set"
        );
    }

    #[test]
    fn empty_ground_set() {
        let f = modular(vec![]);
        let r = minimize(&f);
        assert_eq!(r.minimizer.ground_size(), 0);
        assert_eq!(r.value, 0.0);
    }

    #[test]
    fn modular_minimization_selects_negatives() {
        let f = modular(vec![2.0, -3.0, 1.0, -1.0, 0.5]);
        let r = minimize(&f);
        assert_eq!(r.minimizer.to_vec(), vec![1, 3]);
        assert_eq!(r.value, -4.0);
    }

    #[test]
    fn nonnegative_function_minimized_by_empty_set() {
        let f = modular_plus_concave(0.0, vec![0.0; 6], 3.0, f64::sqrt);
        let r = minimize(&f);
        assert!(r.minimizer.is_empty());
        assert_eq!(r.value, 0.0);
    }

    #[test]
    fn offset_does_not_change_minimizer() {
        let f = modular_plus_concave(50.0, vec![1.0, -2.0], 0.0, f64::sqrt);
        let r = minimize(&f);
        assert_eq!(r.minimizer.to_vec(), vec![1]);
        assert!((r.value - 48.0).abs() < 1e-9);
    }

    #[test]
    fn penalized_bill_shape_matches_brute_force() {
        // The exact structure CCSA minimizes: fee + modular + congestion − λ|S|.
        for lambda in [0.5, 2.0, 5.0, 10.0] {
            let bill = SeparableFn::new(vec![3.0, 1.0, 4.0, 1.5, 2.5], 6.0, 2.0);
            let f = CardinalityPenalized::new(bill, lambda);
            assert!(is_submodular(&f, 1e-9));
            assert_matches_brute_force(&f);
        }
    }

    #[test]
    fn random_submodular_instances_match_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for trial in 0..40 {
            let n = rng.gen_range(1..=8);
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let scale = rng.gen_range(0.0..3.0);
            let f = modular_plus_concave(0.0, weights, scale, CURVES[trial % 3]);
            assert!(is_submodular(&f, 1e-9), "trial {trial} not submodular");
            assert_matches_brute_force(&f);
        }
    }

    #[test]
    fn cut_function_minimization() {
        // Graph cut functions are submodular. Path graph 0-1-2-3 with unit
        // edges: f(S) = #edges crossing the cut. Minimum is 0 (empty/full).
        let edges = [(0usize, 1usize), (1, 2), (2, 3)];
        let f = FnSetFunction::new(4, move |s| {
            edges
                .iter()
                .filter(|(u, v)| s.contains(*u) != s.contains(*v))
                .count() as f64
        });
        assert!(is_submodular(&f, 1e-12));
        let r = minimize(&f);
        assert_eq!(r.value, 0.0);
    }

    #[test]
    fn shifted_cut_function_finds_nontrivial_cut() {
        // Cut minus rewards for taking vertices: forces a nontrivial set.
        let edges = [(0usize, 1usize), (1, 2), (2, 3), (3, 0)];
        let reward = [1.5, 0.2, 1.5, 0.2];
        let f = FnSetFunction::new(4, move |s| {
            let cut = edges
                .iter()
                .filter(|(u, v)| s.contains(*u) != s.contains(*v))
                .count() as f64;
            let r: f64 = s.iter().map(|i| reward[i]).sum();
            cut - r
        });
        assert!(is_submodular(&f, 1e-12));
        assert_matches_brute_force(&f);
    }

    #[test]
    fn warm_start_finds_the_same_minimum() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..20 {
            let n = rng.gen_range(1..=8);
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let f = modular_plus_concave(0.0, weights, 1.5, f64::sqrt);
            let cold = minimize(&f);
            // Warm-start from the answer itself, from the empty set, and
            // from the full set: all must land on the same minimum.
            for warm in [
                cold.minimizer.clone(),
                Subset::empty(n),
                Subset::from_indices(n, 0..n),
            ] {
                let warmed = minimize_warm(&f, Some(&warm));
                assert!(
                    (warmed.value - cold.value).abs() < 1e-8,
                    "warm {} vs cold {}",
                    warmed.value,
                    cold.value
                );
            }
        }
    }

    #[test]
    fn larger_instance_runs_within_iteration_budget() {
        let n = 60;
        let weights: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let f = modular_plus_concave(0.0, weights, 4.0, f64::sqrt);
        let r = minimize(&f);
        assert!(r.major_iterations <= 10 * n + 100);
        // Verify against the fast exact answer for this separable form:
        // choosing the k most negative weights and comparing all k.
        let mut sorted: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        sorted.sort_by(f64::total_cmp);
        let mut best = 0.0f64;
        let mut acc = 0.0;
        for (k, w) in sorted.iter().enumerate() {
            acc += w;
            best = best.min(acc + 4.0 * ((k + 1) as f64).sqrt());
        }
        assert!(
            (r.value - best).abs() < 1e-7,
            "mnp {} vs analytic {}",
            r.value,
            best
        );
    }
}
