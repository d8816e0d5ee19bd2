//! # ccs-submodular — submodular optimization toolkit
//!
//! The optimization substrate behind the CCSA approximation algorithm of the
//! Cooperative Charging as Service reproduction:
//!
//! * [`subset`] — compact bitset subsets of a ground set;
//! * [`set_fn`] — the set-function trait, closures as set functions, the
//!   cardinality penalty of density search, and oracle counting;
//! * [`lovasz`] — Edmonds' greedy base-polytope vertex oracle;
//! * [`mnp`] — exact submodular function minimization via the
//!   Fujishige–Wolfe minimum-norm-point algorithm;
//! * [`minimize`] — the CCS group bill `fee + Σ wᵢ + scale·√|S|` and its
//!   fast exact minimizer;
//! * [`density`] — Dinkelbach minimum-density search
//!   `min_{S≠∅} f(S)/|S|`;
//! * [`check`] — exponential brute-force verifiers used as ground truth in
//!   tests.
//!
//! # Example
//!
//! ```
//! use ccs_submodular::minimize::SeparableFn;
//! use ccs_submodular::density::min_density_separable;
//!
//! // A 10-unit hire fee amortized over unit-cost members: the cheapest
//! // per-member group is everyone.
//! let bill = SeparableFn::new(vec![1.0; 5], 10.0, 0.0);
//! let best = min_density_separable(&bill)?;
//! assert_eq!(best.minimizer.len(), 5);
//! # Ok::<(), ccs_submodular::density::DensityError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod check;
pub mod density;
pub mod lovasz;
pub mod minimize;
pub mod mnp;
pub mod set_fn;
pub mod subset;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::density::{min_density_mnp, min_density_separable, DensityResult};
    pub use crate::minimize::{separable_min, SeparableFn};
    pub use crate::mnp::{minimize, SfmResult};
    pub use crate::set_fn::{CardinalityPenalized, FnSetFunction, SetFunction};
    pub use crate::subset::Subset;
}
