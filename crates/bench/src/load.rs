//! The closed-loop load driver of the `serve` and `gateway` suites.
//!
//! Starts an in-process server, then drives it with concurrent client
//! connections, each reading every answer before sending its next request.
//! The transport is the only difference between the two suites:
//!
//! * [`Transport::Jsonl`] — the `ccs serve` daemon ([`serve_unix`]) on a
//!   Unix socket with an auto-sized worker pool, 4 clients × 25 requests.
//!   Each lap of five is three `plan` calls over a pool of three scenarios
//!   (so the scenario and plan caches get hit), one `replay` with a
//!   per-request seed (a cached plan, fresh testbed work), and one
//!   malformed line (the error path must not cost the connection).
//! * [`Transport::Http`] — the `ccs gateway` ([`run_gateway_on`]) on an
//!   ephemeral TCP port with 2 shards × 2 workers, 8 keep-alive clients ×
//!   175 round trips. Client `c` is tenant `alpha`/`beta`/`gamma`
//!   (`c % 3`, via `X-Tenant`), so the run spans three private caches.
//!   Each lap of seven is five `POST /v1/plan` bodies, one four-item
//!   `POST /v1/batch` (the scenario-grouped path), and one malformed body
//!   (the `400` path).
//!
//! Every client asserts one answer per plan item and that the server never
//! drops its connection. Round-trip latency lands in a [`Histogram`] (and,
//! over HTTP, in one per tenant). After the batch, with the server
//! quiescent, the transport's own stats probe checks the snapshot: for the
//! daemon the `ccs-serve-stats/v1` schema, non-zero `serve.plan` p50/p99
//! and `errors == bad_request + expired + failed + panics`; for the
//! gateway the `ccs-gateway-stats/v1` schema with every tenant's counters
//! live.

use crate::harness::num;
use ccs_gateway::{run_gateway_on, GatewayConfig, GATEWAY_STATS_SCHEMA};
use ccs_serve::prelude::*;
use ccs_serve::protocol::object;
use ccs_telemetry::Histogram;
use ccs_wrsn::scenario::ScenarioGenerator;
use serde::Serialize;
use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// How the load reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// JSONL lines to the daemon over a Unix socket.
    Jsonl,
    /// HTTP/1.1 to the gateway over TCP.
    Http,
}

/// The mixed-tenant pool of the HTTP load: client `c` is tenant `c % 3`.
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Where the server listens.
#[derive(Clone)]
enum Addr {
    Unix(String),
    Tcp(String),
}

/// One request: the HTTP method and path (unused over JSONL), the body,
/// and the plan items it carries.
struct Req {
    method: &'static str,
    path: &'static str,
    body: String,
    items: u64,
}

impl Req {
    fn post(path: &'static str, body: String, items: u64) -> Req {
        Req {
            method: "POST",
            path,
            body,
            items,
        }
    }
}

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// One client connection; `tenant` is set over HTTP.
struct Conn {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    tenant: Option<&'static str>,
}

impl Conn {
    fn open(addr: &Addr, tenant: &'static str) -> io::Result<Conn> {
        let (reader, writer, tenant): (Box<dyn Read + Send>, Box<dyn Write + Send>, _) = match addr
        {
            Addr::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                (Box::new(stream.try_clone()?), Box::new(stream), None)
            }
            Addr::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                (
                    Box::new(stream.try_clone()?),
                    Box::new(stream),
                    Some(tenant),
                )
            }
        };
        Ok(Conn {
            reader: BufReader::new(reader),
            writer,
            tenant,
        })
    }

    /// Sends `req` in one write (with `TCP_NODELAY`, a fragmented write
    /// would hand Nagle a reason to stall the round trip) and parses the
    /// answer.
    fn call(&mut self, req: &Req) -> io::Result<Value> {
        let wire = match self.tenant {
            None => format!("{}\n", req.body),
            Some(tenant) => format!(
                "{} {} HTTP/1.1\r\nHost: bench-gate\r\nX-Tenant: {tenant}\r\n\
                 Content-Length: {}\r\n\r\n{}",
                req.method,
                req.path,
                req.body.len(),
                req.body
            ),
        };
        self.writer.write_all(wire.as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-batch",
            ));
        }
        let body = if self.tenant.is_some() {
            self.http_body(&line)?
        } else {
            line
        };
        serde_json::from_str(&body).map_err(|e| invalid(format!("unparseable response: {e}")))
    }

    /// Reads the headers after `status_line` and the `Content-Length` body.
    fn http_body(&mut self, status_line: &str) -> io::Result<String> {
        if status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .is_none()
        {
            return Err(invalid(format!("malformed status line: {status_line:?}")));
        }
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(invalid("connection closed mid-headers"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(value) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid(format!("bad content-length: {header:?}")))?;
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body).map_err(|_| invalid("response body is not UTF-8"))
    }
}

/// Answers counted per plan item.
#[derive(Default)]
struct Tally {
    ok: u64,
    errors: u64,
    rejected: u64,
}

impl Tally {
    fn add(&mut self, answer: &Value) -> io::Result<()> {
        match answer.field("ok") {
            Value::Bool(true) => self.ok += 1,
            Value::Bool(false) => {
                self.errors += 1;
                if answer.field("error").field("kind") == &Value::String("rejected".into()) {
                    self.rejected += 1;
                }
            }
            _ => return Err(invalid("response carries no 'ok' field")),
        }
        Ok(())
    }

    /// Counts the answer to `req`: each item of an answered batch, or the
    /// one answer once per item it stands for (a refused batch).
    fn answer(&mut self, req: &Req, answer: &Value) -> io::Result<()> {
        match (answer.field("ok"), answer.field("result")) {
            (Value::Bool(true), Value::Array(items)) => items.iter().try_for_each(|a| self.add(a)),
            _ => (0..req.items).try_for_each(|_| self.add(answer)),
        }
    }
}

impl Transport {
    /// `(clients, requests per client)`.
    fn load(self) -> (usize, usize) {
        match self {
            Transport::Jsonl => (4, 25),
            Transport::Http => (8, 175),
        }
    }

    /// Request `i` of client `c` (see the module docs for the mix).
    fn request(self, c: usize, i: usize, scenario: &str) -> Req {
        let id = (c * self.load().1 + i) as u64;
        let plan = |id: u64, k: u64| {
            let algo = if k % 2 == 0 { "ccsa" } else { "ncp" };
            format!(r#"{{"id":{id},"cmd":"plan","scenario":{scenario},"algo":"{algo}"}}"#)
        };
        let malformed = "{not json".to_string();
        match self {
            Transport::Jsonl => match i % 5 {
                4 => Req::post("", malformed, 1),
                3 => Req::post(
                    "",
                    format!(
                        r#"{{"id":{id},"cmd":"replay","scenario":{scenario},"seed":{i},"noshow":0.2}}"#
                    ),
                    1,
                ),
                _ => Req::post("", plan(id, i as u64), 1),
            },
            Transport::Http => match i % 7 {
                6 => Req::post("/v1/plan", malformed, 1),
                4 => {
                    let items: Vec<String> = (0..4).map(|j| plan(id * 10 + j, j)).collect();
                    let body = format!(r#"{{"id":{id},"requests":[{}]}}"#, items.join(","));
                    Req::post("/v1/batch", body, 4)
                }
                _ => Req::post("/v1/plan", plan(id, i as u64), 1),
            },
        }
    }

    fn stats_request(self) -> Req {
        match self {
            Transport::Jsonl => Req::post("", r#"{"id":"stats-probe","cmd":"stats"}"#.into(), 1),
            Transport::Http => Req {
                method: "GET",
                path: "/v1/stats",
                body: String::new(),
                items: 1,
            },
        }
    }

    fn shutdown_request(self) -> Req {
        match self {
            Transport::Jsonl => Req::post("", r#"{"cmd":"shutdown"}"#.into(), 1),
            Transport::Http => Req::post("/v1/shutdown", String::new(), 1),
        }
    }

    /// The transport's stats probe over the quiescent server's snapshot.
    fn probe(self, snapshot: &Value) -> Result<(), String> {
        let u64_at = |path: &[&str]| match path.iter().fold(snapshot, |v, key| v.field(key)) {
            Value::Number(Number::PosInt(u)) => Ok(*u),
            other => Err(format!("{} is not a u64: {other:?}", path.join("."))),
        };
        let schema = match self {
            Transport::Jsonl => ccs_serve::STATS_SCHEMA,
            Transport::Http => GATEWAY_STATS_SCHEMA,
        };
        if snapshot.field("schema") != &Value::String(schema.to_string()) {
            return Err(format!("unexpected schema: {:?}", snapshot.field("schema")));
        }
        match self {
            Transport::Jsonl => {
                let p50 = u64_at(&["latency_us", "serve.plan", "p50"])?;
                let p99 = u64_at(&["latency_us", "serve.plan", "p99"])?;
                if p50 == 0 || p99 == 0 {
                    return Err(format!(
                        "serve.plan latency is zero under load (p50 {p50} us, p99 {p99} us)"
                    ));
                }
                let errors = u64_at(&["requests", "errors"])?;
                let mut by_kind = 0;
                for kind in ["bad_request", "expired", "failed", "panics"] {
                    by_kind += u64_at(&["requests", kind])?;
                }
                if errors != by_kind {
                    return Err(format!(
                        "error counters inconsistent: errors {errors} != by-kind sum {by_kind}"
                    ));
                }
            }
            Transport::Http => {
                for tenant in TENANTS {
                    // `completed` counts plan items (a batch carries
                    // several), `requests` HTTP requests: both must be live.
                    let requests = u64_at(&["tenants", tenant, "requests"]);
                    let completed = u64_at(&["tenants", tenant, "completed"]);
                    if requests? == 0 || completed? == 0 {
                        return Err(format!("tenant {tenant:?} counters dead"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Scenario pool the clients draw from: small enough that plans are
/// cache-hot after the first lap, large enough for multi-entry caches.
fn scenario_pool() -> Vec<String> {
    (1u64..=3)
        .map(|seed| {
            let scenario = ScenarioGenerator::new(seed)
                .devices(10)
                .chargers(3)
                .generate();
            serde_json::to_string(&scenario.to_value()).expect("scenario serializes")
        })
        .collect()
}

/// One client's closed loop: every request of its share, each answer read
/// before the next request goes out.
fn run_client(
    addr: &Addr,
    transport: Transport,
    c: usize,
    scenarios: &[String],
    latency: &[&Histogram],
) -> io::Result<(Tally, u64)> {
    let mut conn = Conn::open(addr, TENANTS[c % TENANTS.len()])?;
    let (mut tally, mut items) = (Tally::default(), 0);
    for i in 0..transport.load().1 {
        let req = transport.request(c, i, &scenarios[(c + i) % scenarios.len()]);
        let start = Instant::now();
        let answer = conn.call(&req)?;
        let took = start.elapsed();
        latency.iter().for_each(|h| h.record_duration(took));
        tally.answer(&req, &answer)?;
        items += req.items;
    }
    Ok((tally, items))
}

fn latency_fields(hist: &Histogram) -> [(&'static str, Value); 3] {
    let snap = hist.snapshot();
    let ms = |ns: u64| num(ns as f64 / 1e6);
    [
        ("p50_ms", ms(snap.quantile(0.50))),
        ("p99_ms", ms(snap.quantile(0.99))),
        ("max_ms", ms(snap.max)),
    ]
}

/// Runs the transport's load and returns its bench entries:
/// `serve_mixed` / `gateway_mixed`, plus `gateway_tenant_*` over HTTP.
/// Fails when the stats probe does.
pub fn drive(transport: Transport) -> Result<BTreeMap<String, Value>, String> {
    let clients = transport.load().0;
    let scenarios = scenario_pool();
    let latency = Histogram::new();
    let tenants: Vec<Histogram> = TENANTS.iter().map(|_| Histogram::new()).collect();

    let (total, items, elapsed, probe) = std::thread::scope(|scope| {
        let (addr, server) = match transport {
            Transport::Jsonl => {
                let socket = std::env::temp_dir()
                    .join(format!("ccs-bench-gate-{}.sock", std::process::id()))
                    .to_string_lossy()
                    .into_owned();
                let config = ServeConfig {
                    workers: 0,
                    queue_depth: 64,
                    stats_every: None,
                    ..ServeConfig::default()
                };
                let path = socket.clone();
                // Both servers print their own drain summary.
                let server = scope.spawn(move || serve_unix(&path, &config).map(drop));
                let deadline = Instant::now() + Duration::from_secs(10);
                while !std::path::Path::new(&socket).exists() {
                    assert!(Instant::now() < deadline, "daemon socket never appeared");
                    std::thread::sleep(Duration::from_millis(10));
                }
                (Addr::Unix(socket), server)
            }
            Transport::Http => {
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
                let addr = listener.local_addr().expect("listener has a local addr");
                let config = GatewayConfig {
                    shards: 2,
                    workers_per_shard: 2,
                    queue_depth: 256,
                    ..GatewayConfig::default()
                };
                let server = scope.spawn(move || run_gateway_on(listener, &config).map(drop));
                (Addr::Tcp(addr.to_string()), server)
            }
        };

        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, scenarios) = (addr.clone(), &scenarios);
                let mut hists = vec![&latency];
                if transport == Transport::Http {
                    hists.push(&tenants[c % TENANTS.len()]);
                }
                scope.spawn(move || run_client(&addr, transport, c, scenarios, &hists))
            })
            .collect();
        let (mut total, mut items) = (Tally::default(), 0);
        for handle in handles {
            let (tally, sent) = handle.join().expect("client thread").expect("client io");
            total.ok += tally.ok;
            total.errors += tally.errors;
            total.rejected += tally.rejected;
            items += sent;
        }
        let elapsed = start.elapsed();

        // Every client is done: the server is quiescent, so the snapshot's
        // counters are final.
        let mut conn = Conn::open(&addr, TENANTS[0]).expect("probe connection");
        let probe = match conn.call(&transport.stats_request()) {
            Ok(answer) if answer.field("ok") == &Value::Bool(true) => {
                transport.probe(answer.field("result"))
            }
            Ok(answer) => Err(format!("stats probe not ok: {answer:?}")),
            Err(e) => Err(format!("stats probe io: {e}")),
        };
        conn.call(&transport.shutdown_request())
            .expect("shutdown request");
        server.join().expect("server thread").expect("server run");
        (total, items, elapsed, probe)
    });

    assert_eq!(
        total.ok + total.errors,
        items,
        "every request must be answered"
    );
    probe.map_err(|why| format!("stats probe failed: {why}"))?;

    let answered = total.ok + total.errors;
    let mut mixed = vec![
        (
            "throughput_rps",
            num(answered as f64 / elapsed.as_secs_f64()),
        ),
        ("total_ms", num(elapsed.as_secs_f64() * 1000.0)),
        ("ok", total.ok.to_value()),
        ("errors", total.errors.to_value()),
        ("rejected", total.rejected.to_value()),
    ];
    mixed.extend(latency_fields(&latency));
    let prefix = match transport {
        Transport::Jsonl => "serve",
        Transport::Http => "gateway",
    };
    let mut benches = BTreeMap::from([(format!("{prefix}_mixed"), object(mixed))]);
    if transport == Transport::Http {
        for (tenant, hist) in TENANTS.iter().zip(&tenants) {
            let [p50, p99, _] = latency_fields(hist);
            let requests = ("requests", hist.snapshot().count.to_value());
            benches.insert(
                format!("gateway_tenant_{tenant}"),
                object([requests, p50, p99]),
            );
        }
    }
    Ok(benches)
}
