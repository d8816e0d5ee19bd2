//! The gateway: HTTP/1.1 framing, routes, tenancy, and batch grouping in
//! front of the shared [`Service`].
//!
//! ```text
//!  TCP accept ─▶ connection thread ─▶ resolve tenant ─▶ rate limit
//!                      │                                   │
//!                      │     group items by scenario hash % shards
//!                      │                                   ▼
//!                      │    Service::submit (queues, workers, deadlines)
//!                      ◀── mpsc answers ──┘
//!                      ▼
//!               HTTP response (keep-alive)
//! ```
//!
//! Sharding by scenario hash sends every request for one scenario to the
//! same worker pool, so a burst of requests against one scenario builds
//! its `ProblemTables` once and then rides the tenant cache, while other
//! scenarios proceed on other shards. `/v1/batch` goes further: each
//! shard's group runs back-to-back on one worker, amortizing cache lookups
//! too.
//!
//! Responses are rendered by the same [`ccs_serve::protocol`] functions
//! the JSONL daemon uses, so a `/v1/plan` body is byte-identical to the
//! daemon's response line — and its `result.text` to `ccs plan` stdout.

use crate::http::{read_request, write_response, HttpRequest, ReadOutcome};
use crate::tenant::{ResolveError, Tenant, TenantRegistry, Tier};
use ccs_serve::cache::DEFAULT_CACHE_BYTES;
use ccs_serve::obs::{latency_entry, render_value};
use ccs_serve::protocol::{err_response, object, ok_response, response_value};
use ccs_serve::protocol::{ErrorKind, ServeError};
use ccs_serve::service::{Answer, Outcome, Service};
use ccs_serve::{scenario_hash, ServeObs};
use ccs_telemetry::Histogram;
use serde::value::{Number, Value};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Version tag of the `/v1/stats` payload.
pub const GATEWAY_STATS_SCHEMA: &str = "ccs-gateway-stats/v1";

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address, e.g. `127.0.0.1:7077` (`:0` = ephemeral port).
    pub addr: String,
    /// Worker-pool shards (scenario hash space partitions). `0` = auto
    /// (see [`Service::new`]).
    pub shards: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Queued-request cap per shard (beyond it: `429`).
    pub queue_depth: usize,
    /// Cap on one request body.
    pub max_body_bytes: usize,
    /// Cap on one `/v1/batch` request's item count.
    pub batch_max: usize,
    /// Byte budget of each tenant's private cache.
    pub cache_bytes: usize,
    /// Default rate-limit tier for self-declared tenants
    /// (`rate <= 0` = unlimited).
    pub rate: f64,
    /// Default burst capacity.
    pub burst: f64,
    /// Optional tenants file mapping bearer tokens to named tenants and
    /// their tiers (see [`TenantRegistry::load_tokens`]).
    pub tenants_file: Option<String>,
    /// Optional admin token gating `/v1/shutdown` (overrides the tenants
    /// file's `admin_token`; see [`TenantRegistry::authorize_admin`]).
    pub admin_token: Option<String>,
    /// Cap on distinct live tenants.
    pub max_tenants: usize,
    /// Idle keep-alive connections are dropped after this long.
    pub idle_timeout: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:7077".to_string(),
            shards: 0,
            workers_per_shard: 1,
            queue_depth: 64,
            max_body_bytes: 4 << 20,
            batch_max: 64,
            cache_bytes: DEFAULT_CACHE_BYTES / 8,
            rate: 0.0,
            burst: 0.0,
            tenants_file: None,
            admin_token: None,
            max_tenants: 256,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// Final counters of one gateway run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewaySummary {
    /// HTTP requests served (all routes).
    pub requests: u64,
    /// Plan-route items answered `ok`.
    pub completed: u64,
    /// Error answers, framing and routing errors included (rejections
    /// not counted).
    pub errors: u64,
    /// Answers of kind `rejected`: queue backpressure, drain, the tenant
    /// cap, and rate limits.
    pub rejected: u64,
    /// Requests refused by a tenant's rate limit.
    pub rate_limited: u64,
    /// `/v1/batch` requests served.
    pub batches: u64,
    /// Items carried by those batches.
    pub batch_items: u64,
}

/// The routes, in `http_latency_us` order (`none` = no such route).
const ROUTES: [&str; 6] = ["batch", "healthz", "none", "plan", "shutdown", "stats"];

/// An HTTP status and response body.
type Answered = (u16, String);

struct Gateway {
    service: Service<mpsc::Sender<Answer>>,
    registry: TenantRegistry,
    batches: AtomicU64,
    batch_items: AtomicU64,
    route_latency: [Histogram; ROUTES.len()],
    max_body_bytes: usize,
    batch_max: usize,
    idle_timeout: Duration,
}

fn status_of(kind: ErrorKind) -> u16 {
    match kind {
        ErrorKind::BadRequest => 400,
        ErrorKind::Rejected => 429,
        ErrorKind::Failed => 422,
        ErrorKind::Internal => 500,
        ErrorKind::Expired => 504,
    }
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl Gateway {
    fn new(config: &GatewayConfig) -> std::io::Result<Self> {
        let burst = Some(config.burst).filter(|b| *b > 0.0);
        let default_tier = Tier {
            rate: config.rate,
            burst: burst.unwrap_or(config.rate.max(1.0)),
        };
        let mut registry =
            TenantRegistry::new(config.cache_bytes, default_tier, config.max_tenants);
        if let Some(path) = &config.tenants_file {
            let invalid = |e: String| {
                let message = format!("tenants file {path}: {e}");
                std::io::Error::new(std::io::ErrorKind::InvalidData, message)
            };
            let text = std::fs::read_to_string(path)?;
            let value: Value = serde_json::from_str(&text).map_err(|e| invalid(e.to_string()))?;
            registry.load_tokens(&value).map_err(invalid)?;
        }
        if let Some(token) = &config.admin_token {
            registry.set_admin_token(token.clone());
        }
        let workers = config.workers_per_shard.max(1);
        let obs = ServeObs::new(None, None);
        Ok(Gateway {
            service: Service::new(config.shards, workers, config.queue_depth, obs),
            registry,
            batches: AtomicU64::new(0),
            batch_items: AtomicU64::new(0),
            route_latency: std::array::from_fn(|_| Histogram::new()),
            max_body_bytes: config.max_body_bytes,
            batch_max: config.batch_max,
            idle_timeout: config.idle_timeout,
        })
    }

    /// Counts and renders an answer the gateway gives before dispatch.
    fn refuse(&self, status: u16, id: &Value, err: ServeError) -> Answered {
        self.service.count_error(err.kind);
        (status, err_response(id, &err))
    }

    /// Runs `items` for `tenant` — grouped by shard, each group one job —
    /// and returns every item's `(id, outcome)` in request order.
    fn dispatch(&self, tenant: &Tenant, items: Vec<Value>) -> Vec<(Value, Outcome)> {
        let total = items.len();
        let shards = self.service.shards() as u64;
        let mut groups: BTreeMap<usize, Vec<(usize, Value)>> = BTreeMap::new();
        for (index, body) in items.into_iter().enumerate() {
            let shard = (scenario_hash(body.field("scenario")) % shards) as usize;
            groups.entry(shard).or_default().push((index, body));
        }
        let (reply, answers) = mpsc::channel();
        for (shard, group) in groups {
            let reply = reply.clone();
            self.service
                .submit(shard, &tenant.cache, group, Some("plan"), reply);
        }
        drop(reply);
        let lost = || (Value::Null, Err(ServeError::internal("worker reply lost")));
        let mut results: Vec<_> = (0..total).map(|_| lost()).collect();
        // Every item is answered exactly once; a worker lost to a poisoned
        // process drops its sender, which ends the wait.
        for (index, id, outcome) in answers.iter().take(total) {
            let counter = if outcome.is_ok() {
                &tenant.completed
            } else {
                &tenant.errors
            };
            counter.fetch_add(1, Ordering::Relaxed);
            results[index] = (id, outcome);
        }
        results
    }

    /// Binds the request to a tenant and spends its rate-limit token.
    fn tenant(&self, req: &HttpRequest) -> Result<Arc<Tenant>, Answered> {
        let auth = req.header("authorization");
        let tenant = self.registry.resolve(auth, req.header("x-tenant"));
        let tenant = tenant.map_err(|refusal| {
            let (status, message) = match refusal {
                ResolveError::UnknownToken => (401, "unknown bearer token".to_string()),
                ResolveError::BadName(name) => (
                    400,
                    format!("invalid X-Tenant {name:?}: want 1-64 chars of [A-Za-z0-9_-]"),
                ),
                ResolveError::ReservedName(name) => {
                    (403, format!("tenant {name:?} requires its bearer token"))
                }
                ResolveError::TooManyTenants => {
                    let err = ServeError::rejected("tenant capacity reached");
                    return self.refuse(429, &Value::Null, err);
                }
            };
            self.refuse(status, &Value::Null, ServeError::bad_request(message))
        })?;
        if !tenant.admit() {
            let err = ServeError::rejected(format!("tenant {} rate limit exceeded", tenant.name()));
            return Err(self.refuse(429, &Value::Null, err));
        }
        Ok(tenant)
    }

    fn parse_body(&self, req: &HttpRequest) -> Result<Value, Answered> {
        let parsed = match std::str::from_utf8(&req.body) {
            Ok(text) => serde_json::from_str(text).map_err(|e| format!("malformed body: {e}")),
            Err(_) => Err("body is not valid UTF-8".to_string()),
        };
        parsed.map_err(|message| self.refuse(400, &Value::Null, ServeError::bad_request(message)))
    }

    /// `POST /v1/plan` — one request body, JSONL-daemon semantics (a
    /// missing `cmd` means `plan`).
    fn plan_route(&self, req: &HttpRequest) -> Result<Answered, Answered> {
        let tenant = self.tenant(req)?;
        let body = self.parse_body(req)?;
        let (id, outcome) = self.dispatch(&tenant, vec![body]).remove(0);
        let status = outcome.as_ref().map_or_else(|e| status_of(e.kind), |_| 200);
        Ok((status, render_value(&response_value(&id, outcome))))
    }

    /// `POST /v1/batch` — many request bodies in one HTTP request, grouped
    /// by scenario so each group amortizes one tables build. Each item
    /// answers exactly as the daemon's response line for it.
    fn batch_route(&self, req: &HttpRequest) -> Result<Answered, Answered> {
        let tenant = self.tenant(req)?;
        let body = self.parse_body(req)?;
        let id = body.field("id");
        let Value::Array(items) = body.field("requests") else {
            let err = ServeError::bad_request("missing 'requests' array");
            return Err(self.refuse(400, id, err));
        };
        if items.is_empty() || items.len() > self.batch_max {
            let err = ServeError::bad_request(format!(
                "'requests' must carry 1..={} items, got {}",
                self.batch_max,
                items.len()
            ));
            return Err(self.refuse(400, id, err));
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let answers = self.dispatch(&tenant, items.clone()).into_iter();
        let answers = answers.map(|(item_id, outcome)| response_value(&item_id, outcome));
        Ok((200, ok_response(id, Value::Array(answers.collect()))))
    }

    /// `GET /v1/stats` — the service's shared sections, extended with the
    /// gateway's request counts, shard count, tenants, and route latency.
    fn stats_route(&self) -> Value {
        let uint = |v: u64| Value::Number(Number::PosInt(v));
        let tenants = self.registry.snapshot();
        let caches: Vec<_> = tenants.iter().map(|t| Arc::clone(&t.cache)).collect();
        let mut map = self.service.stats(&caches);
        let (s, counts) = (self.summary(), self.service.summary());
        if let Some(Value::Object(requests)) = map.get_mut("requests") {
            requests.extend(
                [
                    ("batch_items", s.batch_items),
                    ("batches", s.batches),
                    ("http", s.requests),
                    ("plan_hits", counts.plan_hits),
                    ("rate_limited", s.rate_limited),
                    ("scenario_hits", counts.scenario_hits),
                ]
                .map(|(k, v)| (k.to_string(), uint(v))),
            );
        }
        if let Some(Value::Object(queue)) = map.get_mut("queue") {
            queue.insert("shards".to_string(), uint(self.service.shards() as u64));
        }
        let tenants = tenants.iter().map(|t| {
            let cache = object([
                ("bytes", uint(t.cache.bytes() as u64)),
                ("evictions", uint(t.cache.evictions())),
                ("hits", uint(t.cache.hits())),
                ("misses", uint(t.cache.misses())),
                ("plans", uint(t.cache.plans_cached() as u64)),
                ("scenarios", uint(t.cache.scenarios() as u64)),
            ]);
            let entry = object([
                ("cache", cache),
                ("completed", uint(load(&t.completed))),
                ("errors", uint(load(&t.errors))),
                ("rate_limited", uint(load(&t.rate_limited))),
                ("requests", uint(load(&t.requests))),
            ]);
            (t.name().to_string(), entry)
        });
        let routes = ROUTES.iter().zip(&self.route_latency);
        let http_latency = routes.map(|(r, h)| (r.to_string(), latency_entry(&h.snapshot())));
        let schema = Value::String(GATEWAY_STATS_SCHEMA.to_string());
        let own = [
            ("http_latency_us", Value::Object(http_latency.collect())),
            ("schema", schema),
            ("tenants", Value::Object(tenants.collect())),
        ];
        map.extend(own.map(|(k, v)| (k.to_string(), v)));
        Value::Object(map)
    }

    /// Routes one request. Refusals and answers alike come back as the
    /// status and body to send.
    fn route(&self, req: &HttpRequest) -> Answered {
        let started = Instant::now();
        let ok = |result: Value| Ok((200, ok_response(&Value::Null, result)));
        let (route, answer) = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => ("healthz", ok(object([("ok", Value::Bool(true))]))),
            ("GET", "/v1/stats") => ("stats", ok(self.stats_route())),
            ("POST", "/v1/plan") => ("plan", self.plan_route(req)),
            ("POST", "/v1/batch") => ("batch", self.batch_route(req)),
            // Draining kills every tenant's service at once, so it demands
            // the strongest credential configured — never the anonymous
            // default that the plan routes are happy with.
            ("POST", "/v1/shutdown")
                if self.registry.authorize_admin(req.header("authorization")) =>
            {
                self.service.drain();
                ("shutdown", ok(object([("draining", Value::Bool(true))])))
            }
            ("POST", "/v1/shutdown") => {
                let err = ServeError::bad_request("shutdown requires an authorized bearer token");
                ("shutdown", Err(self.refuse(401, &Value::Null, err)))
            }
            _ => {
                let err = ServeError::bad_request(format!("no route {} {}", req.method, req.path));
                ("none", Err(self.refuse(404, &Value::Null, err)))
            }
        };
        let index = ROUTES.iter().position(|r| *r == route).unwrap_or(0);
        let elapsed = u64::try_from(started.elapsed().as_nanos());
        self.route_latency[index].record(elapsed.unwrap_or(u64::MAX));
        answer.unwrap_or_else(|refused| refused)
    }

    fn connection(&self, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(self.idle_timeout));
        // One buffered write per response + TCP_NODELAY: without these, each
        // formatted fragment becomes its own small segment and Nagle stalls
        // every keep-alive round trip on the peer's delayed ACK (~40 ms).
        let _ = stream.set_nodelay(true);
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let mut out = std::io::BufWriter::new(write_half);
        let mut reader = BufReader::new(stream);
        loop {
            match read_request(&mut reader, self.max_body_bytes) {
                // Idle past the timeout, a transport error, or EOF (the
                // drain shuts every read half): drop the connection.
                Err(_) | Ok(ReadOutcome::Closed) => break,
                Ok(ReadOutcome::Bad(message)) => {
                    // The stream cannot be resynchronized after a framing
                    // error; answer and close.
                    let err = ServeError::bad_request(message);
                    let (status, body) = self.refuse(400, &Value::Null, err);
                    let _ = write_response(&mut out, status, &body, false);
                    break;
                }
                Ok(ReadOutcome::Request(req)) => {
                    let (status, body) = self.route(&req);
                    // A draining gateway (after `/v1/shutdown`, say) closes
                    // each connection after its answer.
                    let keep = req.keep_alive() && !self.service.is_draining();
                    if write_response(&mut out, status, &body, keep).is_err() || !keep {
                        break;
                    }
                }
            }
        }
    }

    fn summary(&self) -> GatewaySummary {
        let s = self.service.summary();
        let tenants = self.registry.snapshot();
        GatewaySummary {
            requests: self.route_latency.iter().map(|h| h.snapshot().count).sum(),
            completed: s.completed,
            errors: s.errors,
            rejected: s.rejected,
            rate_limited: tenants.iter().map(|t| load(&t.rate_limited)).sum(),
            batches: load(&self.batches),
            batch_items: load(&self.batch_items),
        }
    }
}

/// Binds `config.addr` and serves until a `/v1/shutdown` drains the
/// gateway. See [`run_gateway_on`] for the listener-injected variant.
///
/// # Errors
///
/// Binding the listener, or an invalid tenants file.
pub fn run_gateway(config: &GatewayConfig) -> std::io::Result<GatewaySummary> {
    let listener = TcpListener::bind(&config.addr)?;
    eprintln!(
        "gateway: listening on {}",
        listener
            .local_addr()
            .map_or_else(|_| config.addr.clone(), |a| a.to_string())
    );
    run_gateway_on(listener, config)
}

/// Serves an already-bound listener (tests bind port 0 and read
/// `local_addr` first). Returns after a `/v1/shutdown` request has
/// drained all shards; idle keep-alive connections do not hold it open.
///
/// # Errors
///
/// Configuring the listener, or an invalid tenants file.
pub fn run_gateway_on(
    listener: TcpListener,
    config: &GatewayConfig,
) -> std::io::Result<GatewaySummary> {
    listener.set_nonblocking(true)?;
    let gateway = Gateway::new(config)?;
    gateway.service.run(|| {
        gateway
            .service
            .accept(&listener, |stream| gateway.connection(stream));
    });
    let summary = gateway.summary();
    eprintln!(
        "gateway: drained — requests={} completed={} errors={} rejected={} \
         rate_limited={} batches={} batch_items={}",
        summary.requests,
        summary.completed,
        summary.errors,
        summary.rejected,
        summary.rate_limited,
        summary.batches,
        summary.batch_items,
    );
    Ok(summary)
}
