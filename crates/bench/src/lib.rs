//! # ccs-bench — benchmark harness of the CCS reproduction
//!
//! Regenerates every table and figure of the paper's evaluation (see the
//! per-experiment index in `DESIGN.md`):
//!
//! ```text
//! cargo run --release -p ccs-bench --bin experiments            # everything
//! cargo run --release -p ccs-bench --bin experiments -- fig8_vs_optimal
//! ```
//!
//! Results are printed and written as CSV/markdown under `results/`.
//! Criterion micro-benchmarks live under `benches/`. CI's gated bench
//! suites run through the `bench_gate` binary ([`harness`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exp;
pub mod gate;
pub mod harness;
mod load;
