//! # ccs-gateway — the CCS scheduling service as a multi-tenant HTTP API
//!
//! `ccs gateway` fronts the [`ccs_serve`] engine with a plain HTTP/1.1
//! server on `std::net::TcpListener` (no external HTTP dependency — see
//! [`http`] for the vendored shim and its deliberate scope):
//!
//! * `POST /v1/plan` — one JSONL-daemon request body; the response body is
//!   byte-identical to the daemon's response line (and its `result.text`
//!   to `ccs plan` stdout).
//! * `POST /v1/batch` — many plan bodies in one request, grouped by
//!   scenario hash so each group amortizes one `ProblemTables` build.
//! * `GET /v1/stats` — versioned per-tenant counters, cache sizes, queue
//!   depths, and latency histograms (`ccs-gateway-stats/v1`).
//! * `GET /healthz` — liveness; `POST /v1/shutdown` — drain and exit
//!   (authenticated: the admin token when one is configured, else any
//!   tenants-file token; open only on a credential-free gateway).
//!
//! **Tenancy** is the organizing principle ([`tenant`]): every tenant gets
//! a private byte-budgeted plan cache (isolation: one tenant's eviction
//! pressure cannot evict another's entries), a rate-limit tier, and its
//! own stats section. Identity comes from `Authorization: Bearer` tokens
//! (named tenants from a tenants file; those names are reserved from
//! self-declaration) or the self-service `X-Tenant` header; headerless
//! requests share the default tenant at the default tier.
//!
//! **Scheduling** is the daemon's own [`ccs_serve::Service`] (admission,
//! workers, deadlines, counters, drain) with one queue per scenario-hash
//! shard; this crate adds only HTTP framing, routes, and tenancy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod server;
pub mod tenant;

pub use http::{read_request, write_response, HttpRequest, ReadOutcome};
pub use server::{
    run_gateway, run_gateway_on, GatewayConfig, GatewaySummary, GATEWAY_STATS_SCHEMA,
};
pub use tenant::{Tenant, TenantRegistry, Tier, DEFAULT_TENANT};

/// One-stop import for gateway embedders and the CLI.
pub mod prelude {
    pub use crate::server::{run_gateway, run_gateway_on, GatewayConfig, GatewaySummary};
    pub use crate::tenant::{Tier, DEFAULT_TENANT};
}
