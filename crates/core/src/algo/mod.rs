//! The CCS scheduling algorithms.
//!
//! | Module | Algorithm | Role in the paper |
//! |---|---|---|
//! | [`noncoop`] | NCP | the noncooperation baseline (everyone hires alone) |
//! | [`mod@cluster`] | CLU | spatial k-means clustering baseline (geometry-only) |
//! | [`mod@ccsa`] | CCSA | greedy + submodular-minimization approximation |
//! | [`mod@ccsga`] | CCSGA | coalition-formation game for large instances |
//! | [`mod@optimal`] | OPT | exact set-partition DP (small instances) |
//!
//! All algorithms take the same [`CcsProblem`](crate::problem::CcsProblem)
//! and [`CostSharing`](crate::sharing::CostSharing) scheme and return a
//! [`Schedule`](crate::schedule::Schedule), so their total costs are
//! directly comparable.

pub mod ccsa;
pub mod ccsga;
pub mod cluster;
pub mod noncoop;
pub mod optimal;

pub use ccsa::{ccsa, CcsaOptions, InnerMinimizer};
pub use ccsga::{ccsga, CcsgaOptions, CcsgaOutcome};
pub use cluster::clustering;
pub use noncoop::noncooperation;
pub use optimal::{optimal, OptimalError};
