//! # ccs-serve — the CCS scheduling stack as a long-running service
//!
//! `ccs serve` turns the one-shot CLI (`plan`, `replay`, `lifetime`) into a
//! daemon speaking a line-oriented JSON protocol (JSONL): one request
//! object per input line, one response object per output line. The daemon
//! reads stdin by default or accepts connections on a Unix domain socket
//! (`--socket PATH`), and is built around four guarantees:
//!
//! 1. **Bounded admission with explicit backpressure** — at most
//!    `--queue-depth` requests wait for a worker; beyond that, requests are
//!    answered immediately with a `rejected` error instead of buffering
//!    without bound ([`queue`]).
//! 2. **Panic-proof request handling** — malformed or poison requests
//!    produce structured `error` responses; worker panics are caught at
//!    the service boundary and never take the daemon down ([`service`],
//!    [`protocol`]).
//! 3. **Transparent caching** — scenarios are canonically hashed, so
//!    repeated requests reuse the precomputed [`ProblemTables`] kernel and
//!    memoized plans while staying byte-identical to a cold computation
//!    ([`cache`]).
//! 4. **Drain on shutdown** — EOF or a `shutdown` request finishes all
//!    in-flight and queued work, rejects new work, and exits cleanly
//!    without waiting for idle clients ([`service::Service::drain`]).
//!
//! The HTTP gateway (`ccs-gateway`) shares the [`service`] core; the
//! daemon in [`server`] adds only JSONL framing.
//!
//! The one-shot CLI (`ccs plan|replay|lifetime`) runs the same
//! [`handlers`] in process, so a served `plan`'s `result.text` equals
//! `ccs plan` stdout for the same scenario, algorithm, and sharing scheme.
//!
//! [`ProblemTables`]: ccs_core::tables::ProblemTables

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod handlers;
pub mod lru;
pub mod obs;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;

pub use cache::{scenario_hash, CachedPlan, PlanCache, DEFAULT_CACHE_BYTES};
pub use lru::{lock_unpoisoned, ByteLru};
pub use obs::{Phase, ReqTrace, ServeObs, STATS_SCHEMA};
pub use protocol::{err_response, ok_response, ErrorKind, ServeError};
pub use queue::{AdmissionQueue, AdmitError};
pub use server::{serve_connection, serve_stdio, serve_unix, ServeConfig};
pub use service::{Reply, ServeSummary, Service};

/// One-stop import for daemon embedders and the CLI.
pub mod prelude {
    pub use crate::protocol::{ErrorKind, ServeError};
    pub use crate::server::{serve_connection, serve_stdio, serve_unix, ServeConfig};
    pub use crate::service::ServeSummary;
}
