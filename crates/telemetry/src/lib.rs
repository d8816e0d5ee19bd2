//! # ccs-telemetry
//!
//! Observability substrate for the CCS scheduling stack: named counters,
//! gauges, and wall-clock timers collected in a [`Registry`], hierarchical
//! RAII [`Span`]s, an optional JSONL event [`sink`], a serializable
//! [`RunReport`] snapshot (with a flat self-time profile), log-linear
//! latency [`hist`]ograms (bounded memory, ≤ 3.1% quantile error,
//! shard-merged across threads), and a size-capped [`rotate`]-on-write
//! JSONL writer for request tracing.
//!
//! ## Zero-dependency design
//!
//! This crate deliberately uses nothing beyond `std` and the three
//! dependencies the workspace already declares (`parking_lot`, `serde`,
//! `serde_json`). The build environment has no registry access, and the
//! instrumented crates sit on every hot path of the scheduler — pulling a
//! full metrics framework (`metrics`, `tracing`, `prometheus`) would add
//! compile-time and runtime weight for features (exporters, dynamic
//! subscribers, label sets) the experiments never use. A `BTreeMap` of
//! atomics behind one short-lived lock covers the whole need.
//!
//! ## Cost model
//!
//! Telemetry is **disabled by default** and the disabled path is designed
//! to be unmeasurable in benchmarks:
//!
//! * [`Counter::add`] is one relaxed atomic load (the shared enabled flag)
//!   and a predictable branch; no atomic RMW happens while disabled.
//! * [`Registry::span`] and [`Registry::timer`]-based recording skip the
//!   clock read entirely while disabled.
//! * Handle creation ([`Registry::counter`]) takes the registry lock once;
//!   hot loops hoist handles outside the loop and pay only the atomic
//!   increment per iteration when enabled.
//!
//! ## Usage
//!
//! ```
//! use ccs_telemetry::Registry;
//!
//! let registry = Registry::new();
//! registry.enable();
//!
//! let oracle = registry.counter("sfm.oracle_evals");
//! {
//!     let _span = registry.span("plan");
//!     for _ in 0..100 {
//!         oracle.incr();
//!     }
//! }
//!
//! let report = registry.report();
//! assert_eq!(report.counters["sfm.oracle_evals"], 100);
//! assert_eq!(report.spans["plan"].count, 1);
//! ```
//!
//! Library crates instrument against the process-wide [`global`] registry;
//! binaries opt in by calling `global().enable()` (the `--report` /
//! `--trace-json` CLI flags do exactly that) and snapshot it at exit.

pub mod hist;
mod registry;
mod report;
pub mod rotate;
pub mod sink;
mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry, Timer};
pub use report::{ProfileRow, RunReport, TimerStats};
pub use rotate::RotatingWriter;
pub use span::Span;

use std::sync::OnceLock;

/// Returns the process-wide registry all library instrumentation records
/// into. Disabled until a surface (CLI flag, bench harness, test) calls
/// [`Registry::enable`] on it.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Expands to a `&'static Counter` on the [`global`] registry, registered
/// once per call site. The idiomatic way to instrument a hot path:
///
/// ```
/// let evals = ccs_telemetry::counter!("sfm.oracle_evals");
/// for _ in 0..10 {
///     evals.incr(); // one relaxed atomic load while disabled
/// }
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Expands to a `&'static Timer` on the [`global`] registry, registered
/// once per call site.
#[macro_export]
macro_rules! timer {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Timer> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::global().timer($name))
    }};
}

/// Opens a hierarchical RAII span on the [`global`] registry; bind it to a
/// local (`let _span = ccs_telemetry::span!("greedy");`) so it drops at
/// scope exit.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().span($name)
    };
}
