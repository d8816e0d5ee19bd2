//! Edmonds' greedy vertex oracle for the base polytope of a submodular
//! function (the vertex that evaluates the Lovász extension).
//!
//! For a *normalized* submodular `f` (`f(∅) = 0`), the base polytope is
//!
//! ```text
//! B(f) = { x ∈ R^n : x(S) <= f(S) ∀S, x(V) = f(V) }
//! ```
//!
//! Edmonds' greedy algorithm solves `min_{v ∈ B(f)} <w, v>` exactly: sort the
//! ground set by increasing `w` and hand out marginals along that order.
//! This is the linear-minimization oracle inside the Fujishige–Wolfe
//! minimum-norm-point algorithm.

use crate::set_fn::SetFunction;
use crate::subset::Subset;

/// Sorts ground elements by ascending key with deterministic index
/// tie-breaking.
fn order_by(w: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..w.len()).collect();
    idx.sort_by(|&a, &b| w[a].total_cmp(&w[b]).then(a.cmp(&b)));
    idx
}

/// Evaluates `f` on every prefix of `order`, fanning the evaluations out
/// over `ccs-par` when the chain is long enough to amortize the threads.
/// Chains that `ccs-par` would run serially anyway skip the prefix-clone
/// staging entirely.
///
/// The prefixes are independent subsets once the order is fixed, so the
/// batched values are identical to the serial ones; callers diff adjacent
/// values to recover marginals.
pub(crate) fn prefix_values<F: SetFunction>(f: &F, order: &[usize]) -> Vec<f64> {
    let n = order.len();
    if ccs_par::threads() == 1 || n < ccs_par::MIN_ITEMS {
        let mut values = Vec::with_capacity(n);
        let mut prefix = Subset::empty(f.ground_size());
        for &i in order {
            prefix.insert(i);
            values.push(f.eval(&prefix));
        }
        return values;
    }
    let mut prefixes: Vec<Subset> = Vec::with_capacity(n);
    let mut prefix = Subset::empty(f.ground_size());
    for &i in order {
        prefix.insert(i);
        prefixes.push(prefix.clone());
    }
    ccs_par::par_map(&prefixes, |_, s| f.eval(s))
}

/// Edmonds' greedy vertex: the vertex of `B(f − f(∅))` minimizing `<w, ·>`.
///
/// `f` is normalized internally (its value at the empty set is subtracted),
/// so callers may pass un-normalized functions. The prefix chain — the
/// oracle-evaluation bulk of every min-norm-point major iteration — is
/// evaluated as one parallel batch; results are identical at any thread
/// count.
///
/// Oracle accounting happens in the wrappers the entry points install
/// ([`crate::set_fn::CountingFn`] / [`crate::set_fn::MemoFn`]), not here:
/// this function cannot know whether a probe is fresh or memoized.
///
/// # Panics
///
/// Panics if `w.len() != f.ground_size()`.
pub fn greedy_vertex<F: SetFunction>(f: &F, w: &[f64]) -> Vec<f64> {
    let n = f.ground_size();
    assert_eq!(w.len(), n, "weight vector length mismatch");
    let order = order_by(w);
    let values = prefix_values(f, &order);
    let mut vertex = vec![0.0; n];
    let mut prev = f.at_empty();
    for (&i, &cur) in order.iter().zip(&values) {
        vertex[i] = cur - prev;
        prev = cur;
    }
    vertex
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{modular, modular_plus_concave};
    use crate::subset::all_subsets;

    #[test]
    fn greedy_vertex_of_modular_is_weights() {
        let f = modular(vec![3.0, -1.0, 2.0]);
        let v = greedy_vertex(&f, &[0.5, 0.1, 0.9]);
        assert_eq!(v, vec![3.0, -1.0, 2.0], "modular marginals are constant");
    }

    #[test]
    fn greedy_vertex_sums_to_f_of_universe() {
        let f = modular_plus_concave(0.0, vec![0.0; 5], 2.0, f64::sqrt);
        let v = greedy_vertex(&f, &[0.3, -0.2, 0.9, 0.0, 0.5]);
        let total: f64 = v.iter().sum();
        assert!((total - f.eval(&Subset::from_indices(5, 0..5))).abs() < 1e-12);
    }

    #[test]
    fn greedy_vertex_respects_polytope_constraints() {
        // x(S) <= f(S) for every S, with equality at the universe.
        let f = modular_plus_concave(0.0, vec![0.0; 4], 1.5, |k| (1.0 + k).ln());
        let v = greedy_vertex(&f, &[0.7, 0.1, 0.4, 0.2]);
        for s in all_subsets(4) {
            let xs: f64 = s.iter().map(|i| v[i]).sum();
            assert!(
                xs <= f.eval(&s) + 1e-9,
                "x(S) = {xs} must be <= f(S) = {} for S = {s}",
                f.eval(&s)
            );
        }
    }

    #[test]
    fn greedy_vertex_normalizes_offset() {
        let f = modular_plus_concave(100.0, vec![1.0, 2.0], 0.0, f64::sqrt);
        let v = greedy_vertex(&f, &[0.0, 0.0]);
        assert_eq!(v, vec![1.0, 2.0], "offset must not leak into marginals");
    }

    #[test]
    fn greedy_vertex_minimizes_linear_objective() {
        // Compare <w, greedy vertex> against vertices from random orders.
        let f = modular_plus_concave(0.0, vec![0.0; 4], 1.0, f64::sqrt);
        let w = [0.9, -0.5, 0.3, 0.1];
        let v = greedy_vertex(&f, &w);
        let obj: f64 = w.iter().zip(&v).map(|(a, b)| a * b).sum();
        // All 24 permutations give all base vertices for this symmetric f.
        let perms = permutations(4);
        for perm in perms {
            let mut vertex = vec![0.0; 4];
            let mut prefix = Subset::empty(4);
            let mut prev = 0.0;
            for &i in &perm {
                prefix.insert(i);
                let cur = f.eval(&prefix);
                vertex[i] = cur - prev;
                prev = cur;
            }
            let other: f64 = w.iter().zip(&vertex).map(|(a, b)| a * b).sum();
            assert!(obj <= other + 1e-9);
        }
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for rest in permutations(n - 1) {
            for pos in 0..=rest.len() {
                let mut p = rest.clone();
                p.insert(pos, n - 1);
                out.push(p);
            }
        }
        out
    }
}
