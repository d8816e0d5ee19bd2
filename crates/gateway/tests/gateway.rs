//! Gateway protocol suite: keep-alive, malformed requests, framing
//! errors, tenant isolation, rate limiting, batching, deadlines, drain,
//! and byte-identity of `/v1/plan` with a live JSONL daemon's response
//! line.

use ccs_gateway::prelude::*;
use ccs_serve::prelude::{serve_connection, ServeConfig, ServeSummary};
use ccs_wrsn::scenario::ScenarioGenerator;
use serde::value::Value;
use serde::Serialize;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A gateway running on an ephemeral port, shut down on `stop()`.
struct TestGateway {
    addr: std::net::SocketAddr,
    thread: JoinHandle<std::io::Result<GatewaySummary>>,
}

fn start_gateway(mut config: GatewayConfig) -> TestGateway {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    config.idle_timeout = std::time::Duration::from_secs(2);
    let thread = std::thread::spawn(move || run_gateway_on(listener, &config));
    TestGateway { addr, thread }
}

impl TestGateway {
    fn connect(&self) -> TcpStream {
        TcpStream::connect(self.addr).expect("connect to gateway")
    }

    fn stop(self) -> GatewaySummary {
        self.stop_with(&[])
    }

    /// Stops a gateway whose `/v1/shutdown` demands credentials.
    fn stop_with(self, headers: &[(&str, &str)]) -> GatewaySummary {
        let mut stream = self.connect();
        let (status, body) = request(&mut stream, "POST", "/v1/shutdown", headers, "");
        assert_eq!(status, 200, "shutdown refused: {body}");
        self.thread
            .join()
            .expect("gateway thread")
            .expect("gateway run")
    }
}

/// Writes a tenants file into a per-test temp path.
fn write_tenants_file(name: &str, contents: &str) -> String {
    let path = std::env::temp_dir().join(format!("ccs-gw-{}-{name}.json", std::process::id()));
    std::fs::write(&path, contents).expect("write tenants file");
    path.to_str().expect("utf-8 temp path").to_string()
}

/// Sends one request and reads one response off `stream`.
fn request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String) {
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(raw.as_bytes()).expect("write request");
    read_response(stream)
}

/// Reads one `Content-Length`-framed response.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(raw) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = raw.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

fn scenario_value(seed: u64, devices: usize) -> Value {
    ScenarioGenerator::new(seed)
        .devices(devices)
        .chargers(3)
        .generate()
        .to_value()
}

/// Devices in a plan that must hold a worker well past a 1 ms deadline: a
/// 30-device, 3-charger CCSA plan takes about 10 ms on a 2-vCPU host.
const HEAVY_DEVICES: usize = 30;

fn plan_body(seed: u64, devices: usize, algo: &str, sharing: &str, id: u64) -> String {
    let scenario = serde_json::to_string(&scenario_value(seed, devices)).expect("serializes");
    format!(
        r#"{{"id":{id},"cmd":"plan","scenario":{scenario},"algo":"{algo}","sharing":"{sharing}"}}"#
    )
}

fn parsed(body: &str) -> Value {
    serde_json::from_str(body).expect("response body parses")
}

/// A live JSONL daemon (`serve_connection`) on one end of a socket pair.
struct TestDaemon {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    thread: JoinHandle<ServeSummary>,
}

impl TestDaemon {
    fn start() -> Self {
        let (client, server) = UnixStream::pair().expect("socket pair");
        let input = BufReader::new(server.try_clone().expect("clone"));
        let config = ServeConfig {
            workers: 1,
            stats_every: None,
            ..ServeConfig::default()
        };
        let thread = std::thread::spawn(move || serve_connection(input, Box::new(server), &config));
        let reader = BufReader::new(client.try_clone().expect("clone"));
        TestDaemon {
            writer: client,
            reader,
            thread,
        }
    }

    /// Sends one request line and reads its response line.
    fn call(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("write request line");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("response line");
        response.trim_end().to_string()
    }

    fn stop(mut self) -> ServeSummary {
        self.call(r#"{"cmd":"shutdown"}"#);
        self.thread.join().expect("daemon thread")
    }
}

/// Appends `extra` (`"key":value` pairs) to a request object.
fn with_fields(body: &str, extra: &str) -> String {
    format!("{},{extra}}}", &body[..body.len() - 1])
}

/// Transport parity: every `/v1/plan` HTTP body must equal a live JSONL
/// daemon's response line for the same request, byte for byte — the
/// 27-request plan grid (3 seeds x 3 algorithms x 3 sharing schemes) plus
/// the other queued commands and the refusals both transports share.
/// Combined with the serve crate's
/// `served_plan_is_byte_identical_to_direct_computation` (daemon line ==
/// one-shot `ccs plan` stdout), this pins the whole chain. Afterwards the
/// `requests` counters the two stats snapshots share must agree.
/// Transport control (`ping`, `stats`, `shutdown`) and framing errors stay
/// transport-specific and are not compared.
#[test]
fn plan_responses_are_byte_identical_to_the_daemon_for_27_requests() {
    let gateway = start_gateway(GatewayConfig::default());
    let mut daemon = TestDaemon::start();
    let mut stream = gateway.connect();
    let mut bodies = Vec::new();
    let mut id = 0u64;
    for seed in [41, 42, 43] {
        for algo in ["ccsa", "ccsga", "ncp"] {
            for sharing in ["equal", "proportional", "shapley"] {
                id += 1;
                bodies.push((200, plan_body(seed, 8, algo, sharing, id)));
            }
        }
    }
    let scenario = serde_json::to_string(&scenario_value(44, 8)).unwrap();
    for (status, body) in [
        (
            200,
            format!(r#"{{"id":28,"cmd":"replay","scenario":{scenario},"seed":7}}"#),
        ),
        (
            200,
            format!(r#"{{"id":29,"cmd":"lifetime","scenario":{scenario},"rounds":2}}"#),
        ),
        (
            200,
            format!(r#"{{"id":30,"cmd":"online_step","scenario":{scenario},"pending":[0,2,4]}}"#),
        ),
        (400, r#"{"id":31,"cmd":"warp"}"#.to_string()),
        (400, "[1,2,3]".to_string()),
        (
            400,
            with_fields(&plan_body(41, 8, "ccsa", "equal", 32), r#""deadline_ms":0"#),
        ),
    ] {
        bodies.push((status, body));
    }
    for (status, body) in &bodies {
        let (got_status, got) = request(&mut stream, "POST", "/v1/plan", &[], body);
        assert_eq!(got, daemon.call(body), "body {body:.80}");
        assert_eq!(got_status, *status, "{got}");
    }

    let daemon_stats = parsed(&daemon.call(r#"{"id":0,"cmd":"stats"}"#));
    let (_, gateway_stats) = request(&mut stream, "GET", "/v1/stats", &[], "");
    let daemon_requests = daemon_stats.field("result").field("requests");
    let gateway_requests = parsed(&gateway_stats)
        .field("result")
        .field("requests")
        .clone();
    let shared: Vec<&String> = daemon_requests
        .as_object()
        .expect("requests object")
        .keys()
        .filter(|key| gateway_requests.as_object().unwrap().contains_key(*key))
        .collect();
    assert_eq!(
        shared,
        [
            "admitted",
            "bad_request",
            "completed",
            "errors",
            "expired",
            "failed",
            "panics",
            "rejected",
            "slow"
        ]
    );
    for key in shared {
        assert_eq!(
            daemon_requests.field(key),
            gateway_requests.field(key),
            "requests.{key}: daemon {daemon_requests:?} gateway {gateway_requests:?}"
        );
    }
    drop(stream);
    let served = daemon.stop();
    let summary = gateway.stop();
    assert_eq!(summary.completed, 30);
    assert_eq!(summary.errors, 3);
    // The daemon's summary also counts its inline `stats` answer.
    assert_eq!((served.completed, served.errors), (31, 3));
}

/// One connection, many requests: HTTP/1.1 keep-alive must reuse the
/// stream, and `Connection: close` must end it.
#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let gateway = start_gateway(GatewayConfig::default());
    let mut stream = gateway.connect();
    for id in 1..=5u64 {
        let body = plan_body(7, 6, "ccsa", "equal", id);
        let (status, response) = request(&mut stream, "POST", "/v1/plan", &[], &body);
        assert_eq!(status, 200);
        let value = parsed(&response);
        assert_eq!(value.field("ok"), &Value::Bool(true));
        assert_eq!(
            value.field("id"),
            &Value::Number(serde::value::Number::PosInt(id))
        );
    }
    // Same stream, now with Connection: close — answered, then closed.
    let (status, _) = request(
        &mut stream,
        "GET",
        "/healthz",
        &[("Connection", "close")],
        "",
    );
    assert_eq!(status, 200);
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "server closed after Connection: close");
    drop(stream);
    gateway.stop();
}

/// Malformed request lines, bad headers, and unsupported framing are
/// answered `400` (not dropped, not fatal), and the gateway keeps serving
/// fresh connections afterwards.
#[test]
fn malformed_requests_get_400_and_the_gateway_survives() {
    let gateway = start_gateway(GatewayConfig::default());
    for raw in [
        "NOT-EVEN-HTTP\r\n\r\n",
        "GET /healthz SPDY/3\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nbroken header line\r\n\r\n",
        "POST /v1/plan HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        "POST /v1/plan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        // Conflicting lengths must not frame a smuggled second request.
        "POST /v1/plan HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 40\r\n\r\n\
         {}GET /healthz HTTP/1.1\r\n\r\n",
        "POST /v1/plan HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
        // Header names that are not tokens: a tab before the colon must
        // not frame a bodiless request, a tab-led line is no header.
        "POST /v1/plan HTTP/1.1\r\nContent-Length\t: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nX-Tenant: a\r\n\tfolded: b\r\n\r\n",
    ] {
        let mut stream = gateway.connect();
        stream.write_all(raw.as_bytes()).expect("write");
        let (status, body) = read_response(&mut stream);
        assert_eq!(status, 400, "raw {raw:?}: {body}");
        let value = parsed(&body);
        assert_eq!(value.field("ok"), &Value::Bool(false));
        // A framing error closes the connection: nothing else is answered.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        match stream.read(&mut [0u8; 64]) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("raw {raw:?}: connection still open after a 400: {other:?}"),
        }
    }
    // Content-Length mismatch: declared longer than sent.
    let mut stream = gateway.connect();
    stream
        .write_all(b"POST /v1/plan HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        .expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("content-length mismatch"), "{body}");

    // Well-framed requests with bad bodies: a non-string `cmd` and a
    // truncated JSON body.
    let mut stream = gateway.connect();
    for body in [r#"{"cmd":5}"#, r#"{"cmd":"plan","scen"#] {
        let (status, response) = request(&mut stream, "POST", "/v1/plan", &[], body);
        assert_eq!(status, 400, "{body}: {response}");
    }

    // The gateway is still alive and serving, and it counted every error
    // it answered.
    let (status, _) = request(&mut stream, "GET", "/healthz", &[], "");
    assert_eq!(status, 200);
    let (_, stats) = request(&mut stream, "GET", "/v1/stats", &[], "");
    let stats = parsed(&stats);
    let requests = stats.field("result").field("requests");
    let count = |key: &str| match requests.field(key) {
        Value::Number(n) => n.as_f64() as u64,
        other => panic!("requests.{key} missing: {other:?}"),
    };
    assert_eq!(count("bad_request"), 12, "{requests:?}");
    assert_eq!(
        count("errors"),
        count("bad_request") + count("expired") + count("failed") + count("panics")
    );
    drop(stream);
    let summary = gateway.stop();
    assert_eq!(summary.errors, 12);
}

/// Tenant isolation: tenant A's eviction pressure (many distinct
/// scenarios against a tiny per-tenant cache budget) must not evict
/// tenant B's cached scenario.
#[test]
fn tenant_a_eviction_pressure_does_not_evict_tenant_b() {
    let config = GatewayConfig {
        cache_bytes: 64 << 10,
        ..GatewayConfig::default()
    };
    let gateway = start_gateway(config);
    let mut stream = gateway.connect();
    let b_headers = [("X-Tenant", "tenant-b")];
    let a_headers = [("X-Tenant", "tenant-a")];

    // Warm tenant B with one scenario.
    let (status, _) = request(
        &mut stream,
        "POST",
        "/v1/plan",
        &b_headers,
        &plan_body(100, 6, "ccsa", "equal", 1),
    );
    assert_eq!(status, 200);

    // Hammer tenant A with enough distinct scenarios to overflow its
    // 64 KiB budget several times over.
    for seed in 0..24u64 {
        let (status, _) = request(
            &mut stream,
            "POST",
            "/v1/plan",
            &a_headers,
            &plan_body(200 + seed, 6, "ccsa", "equal", 10 + seed),
        );
        assert_eq!(status, 200);
    }

    let (status, stats) = request(&mut stream, "GET", "/v1/stats", &[], "");
    assert_eq!(status, 200);
    let stats = parsed(&stats);
    let tenants = stats.field("result").field("tenants");
    let a_cache = tenants.field("tenant-a").field("cache");
    let b_cache = tenants.field("tenant-b").field("cache");
    let num = |v: &Value| match v {
        Value::Number(n) => n.as_f64() as u64,
        other => panic!("expected number, got {other:?}"),
    };
    assert!(
        num(a_cache.field("evictions")) > 0,
        "tenant A must be under eviction pressure: {a_cache:?}"
    );
    assert_eq!(
        num(b_cache.field("evictions")),
        0,
        "tenant B saw no eviction pressure"
    );
    assert_eq!(num(b_cache.field("scenarios")), 1);

    // Tenant B's entry is still hot: replaying its request hits the cache.
    let before = num(b_cache.field("hits"));
    let (status, _) = request(
        &mut stream,
        "POST",
        "/v1/plan",
        &b_headers,
        &plan_body(100, 6, "ccsa", "equal", 2),
    );
    assert_eq!(status, 200);
    let (_, stats) = request(&mut stream, "GET", "/v1/stats", &[], "");
    let stats = parsed(&stats);
    let b_cache = stats
        .field("result")
        .field("tenants")
        .field("tenant-b")
        .field("cache");
    assert!(
        num(b_cache.field("hits")) > before,
        "tenant B's scenario survived A's evictions: {b_cache:?}"
    );
    drop(stream);
    gateway.stop();
}

/// The default tier's token bucket answers `429` once the burst is spent.
#[test]
fn rate_limited_tenants_get_429() {
    let config = GatewayConfig {
        rate: 0.001,
        burst: 3.0,
        ..GatewayConfig::default()
    };
    let gateway = start_gateway(config);
    let mut stream = gateway.connect();
    let headers = [("X-Tenant", "limited")];
    let mut seen_429 = 0;
    for id in 1..=6u64 {
        let (status, body) = request(
            &mut stream,
            "POST",
            "/v1/plan",
            &headers,
            &plan_body(9, 6, "ccsa", "equal", id),
        );
        match status {
            200 => {}
            429 => {
                seen_429 += 1;
                assert!(body.contains("rate limit"), "{body}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(seen_429, 3, "burst of 3, then limited");
    drop(stream);
    let summary = gateway.stop();
    assert_eq!(summary.rate_limited, 3);
    gateway_summary_sane(&summary);
}

fn gateway_summary_sane(summary: &GatewaySummary) {
    assert!(summary.requests >= summary.completed);
}

/// `/v1/batch`: one HTTP request carrying many plan bodies; per-item
/// responses come back in request order, and repeats of one scenario
/// amortize onto the cache.
#[test]
fn batch_requests_answer_per_item_in_order() {
    let gateway = start_gateway(GatewayConfig::default());
    let mut stream = gateway.connect();
    let scenario = serde_json::to_string(&scenario_value(55, 6)).unwrap();
    let items: Vec<String> = (0..6)
        .map(|i| {
            if i == 3 {
                // One poison item: unknown algo -> per-item error, not a
                // failed batch.
                format!(r#"{{"cmd":"plan","scenario":{scenario},"algo":"nope"}}"#)
            } else {
                format!(r#"{{"cmd":"plan","scenario":{scenario},"algo":"ccsa"}}"#)
            }
        })
        .collect();
    let body = format!(r#"{{"id":77,"requests":[{}]}}"#, items.join(","));
    let (status, response) = request(&mut stream, "POST", "/v1/batch", &[], &body);
    assert_eq!(status, 200, "{response}");
    let value = parsed(&response);
    assert_eq!(value.field("ok"), &Value::Bool(true));
    let Value::Array(results) = value.field("result") else {
        panic!("batch result must be an array: {response}");
    };
    assert_eq!(results.len(), 6);
    let mut ok_texts = Vec::new();
    for (i, item) in results.iter().enumerate() {
        if i == 3 {
            assert_eq!(item.field("ok"), &Value::Bool(false), "item {i}");
            continue;
        }
        assert_eq!(item.field("ok"), &Value::Bool(true), "item {i}");
        let Value::String(text) = item.field("result").field("text") else {
            panic!("item {i} has no result.text");
        };
        ok_texts.push(text.clone());
    }
    assert!(
        ok_texts.windows(2).all(|w| w[0] == w[1]),
        "identical requests produce identical plans"
    );

    // The five identical items hit the plan memo after the first.
    let (_, stats) = request(&mut stream, "GET", "/v1/stats", &[], "");
    let stats = parsed(&stats);
    let requests = stats.field("result").field("requests");
    let Value::Number(plan_hits) = requests.field("plan_hits") else {
        panic!("stats carry plan_hits: {stats:?}");
    };
    assert!(
        plan_hits.as_f64() >= 4.0,
        "batch amortizes repeated items: {requests:?}"
    );
    drop(stream);
    let summary = gateway.stop();
    assert_eq!(summary.batches, 1);
    assert_eq!(summary.batch_items, 6);
    assert_eq!(summary.errors, 1);
}

/// On a credentialed gateway `/v1/shutdown` is an authenticated route:
/// anonymous and unknown-token requests bounce with 401 (and the gateway
/// keeps serving), tenant tokens qualify — unless an admin token is
/// configured, which then becomes the only accepted credential.
#[test]
fn shutdown_requires_credentials_on_a_credentialed_gateway() {
    let tenants = write_tenants_file(
        "shutdown",
        r#"{"tenants":[{"name":"acme","token":"tok_acme"}]}"#,
    );
    let config = GatewayConfig {
        tenants_file: Some(tenants.clone()),
        ..GatewayConfig::default()
    };
    let gateway = start_gateway(config);
    let mut stream = gateway.connect();
    let (status, body) = request(&mut stream, "POST", "/v1/shutdown", &[], "");
    assert_eq!(status, 401, "anonymous shutdown must bounce: {body}");
    let (status, body) = request(
        &mut stream,
        "POST",
        "/v1/shutdown",
        &[("Authorization", "Bearer wrong")],
        "",
    );
    assert_eq!(status, 401, "unknown-token shutdown must bounce: {body}");
    // The bounced shutdowns didn't drain anything.
    let (status, _) = request(&mut stream, "GET", "/healthz", &[], "");
    assert_eq!(status, 200, "gateway still serving after refused shutdowns");
    drop(stream);
    gateway.stop_with(&[("Authorization", "Bearer tok_acme")]);

    // With an admin token configured, tenant tokens no longer qualify.
    let config = GatewayConfig {
        tenants_file: Some(tenants.clone()),
        admin_token: Some("root_token".to_string()),
        ..GatewayConfig::default()
    };
    let gateway = start_gateway(config);
    let mut stream = gateway.connect();
    let (status, body) = request(
        &mut stream,
        "POST",
        "/v1/shutdown",
        &[("Authorization", "Bearer tok_acme")],
        "",
    );
    assert_eq!(status, 401, "tenant token is not the admin token: {body}");
    drop(stream);
    gateway.stop_with(&[("Authorization", "Bearer root_token")]);
    let _ = std::fs::remove_file(&tenants);
}

/// Token-configured names are reserved: a bare `X-Tenant` naming one is
/// refused 403 rather than handed that tenant's cache and rate bucket.
#[test]
fn self_declared_tenant_cannot_impersonate_a_token_configured_one() {
    let tenants = write_tenants_file(
        "reserved",
        r#"{"tenants":[{"name":"acme","token":"tok_acme"}]}"#,
    );
    let config = GatewayConfig {
        tenants_file: Some(tenants.clone()),
        ..GatewayConfig::default()
    };
    let gateway = start_gateway(config);
    let mut stream = gateway.connect();
    let (status, body) = request(
        &mut stream,
        "POST",
        "/v1/plan",
        &[("X-Tenant", "acme")],
        "{}",
    );
    assert_eq!(status, 403, "{body}");
    assert!(body.contains("bearer token"), "{body}");
    // Other self-declared names still work.
    let (status, _) = request(
        &mut stream,
        "POST",
        "/v1/plan",
        &[("X-Tenant", "someone-else")],
        &plan_body(3, 6, "ccsa", "equal", 1),
    );
    assert_eq!(status, 200);
    drop(stream);
    gateway.stop_with(&[("Authorization", "Bearer tok_acme")]);
    let _ = std::fs::remove_file(&tenants);
}

/// Omitting both identity headers lands on the default tenant at the
/// configured default tier — not an unlimited rate-limit bypass.
#[test]
fn anonymous_requests_are_rate_limited_at_the_default_tier() {
    let config = GatewayConfig {
        rate: 0.001,
        burst: 3.0,
        ..GatewayConfig::default()
    };
    let gateway = start_gateway(config);
    let mut stream = gateway.connect();
    let mut seen_429 = 0;
    for id in 1..=6u64 {
        let (status, body) = request(
            &mut stream,
            "POST",
            "/v1/plan",
            &[],
            &plan_body(9, 6, "ccsa", "equal", id),
        );
        match status {
            200 => {}
            429 => seen_429 += 1,
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(seen_429, 3, "headerless requests spend the default bucket");
    drop(stream);
    gateway.stop();
}

/// Identity handling: bad tenant names are 400, unknown bearer tokens are
/// 401, and the stats snapshot is versioned.
#[test]
fn identity_refusals_and_stats_schema() {
    let gateway = start_gateway(GatewayConfig::default());
    let mut stream = gateway.connect();
    let (status, body) = request(
        &mut stream,
        "POST",
        "/v1/plan",
        &[("X-Tenant", "no spaces allowed")],
        "{}",
    );
    assert_eq!(status, 400, "{body}");

    let mut stream = gateway.connect();
    let (status, body) = request(
        &mut stream,
        "POST",
        "/v1/plan",
        &[("Authorization", "Bearer nobody-knows-me")],
        "{}",
    );
    assert_eq!(status, 401, "{body}");

    let (status, stats) = request(&mut stream, "GET", "/v1/stats", &[], "");
    assert_eq!(status, 200);
    let stats = parsed(&stats);
    let snapshot = stats.field("result");
    assert_eq!(
        snapshot.field("schema"),
        &Value::String("ccs-gateway-stats/v1".to_string())
    );
    // The v1 key sets: the daemon's shared sections plus the gateway's own.
    let keys =
        |v: &Value| -> Vec<String> { v.as_object().expect("object").keys().cloned().collect() };
    assert_eq!(
        keys(snapshot),
        [
            "cache",
            "http_latency_us",
            "latency_us",
            "queue",
            "requests",
            "schema",
            "tenants",
            "uptime_s"
        ]
    );
    assert_eq!(
        keys(snapshot.field("requests")),
        [
            "admitted",
            "bad_request",
            "batch_items",
            "batches",
            "completed",
            "errors",
            "expired",
            "failed",
            "http",
            "panics",
            "plan_hits",
            "rate_limited",
            "rejected",
            "scenario_hits",
            "slow"
        ]
    );
    assert_eq!(
        keys(snapshot.field("queue")),
        ["capacity", "depth", "high_water", "shards"]
    );
    assert_eq!(
        keys(snapshot.field("http_latency_us")),
        ["batch", "healthz", "none", "plan", "shutdown", "stats"]
    );
    let (status, body) = request(&mut stream, "GET", "/v1/nope", &[], "");
    assert_eq!(status, 404, "{body}");
    drop(stream);
    gateway.stop();
}

fn error_kind(response: &Value) -> &str {
    match response.field("error").field("kind") {
        Value::String(kind) => kind,
        other => panic!("error.kind missing: {other:?}"),
    }
}

fn stats_count(stream: &mut TcpStream, key: &str) -> u64 {
    let (_, stats) = request(stream, "GET", "/v1/stats", &[], "");
    match parsed(&stats).field("result").field("requests").field(key) {
        Value::Number(n) => n.as_f64() as u64,
        other => panic!("requests.{key} missing: {other:?}"),
    }
}

/// Polls `/v1/stats` until `requests.admitted` reaches `n`.
fn await_admitted(gateway: &TestGateway, n: u64) {
    let mut stream = gateway.connect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats_count(&mut stream, "admitted") < n {
        assert!(Instant::now() < deadline, "work never admitted");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One shard, so every item queues behind the one before it.
fn one_shard() -> GatewayConfig {
    GatewayConfig {
        shards: 1,
        ..GatewayConfig::default()
    }
}

/// `deadline_ms: 0` can only mean "already expired": the gateway refuses
/// it with the daemon's message, while an absent or `null` deadline means
/// "no deadline".
#[test]
fn explicit_zero_deadline_is_a_bad_request() {
    let gateway = start_gateway(GatewayConfig::default());
    let mut stream = gateway.connect();
    let body = |id, extra: &str| with_fields(&plan_body(9, 5, "ccsa", "equal", id), extra);
    let (status, response) = request(
        &mut stream,
        "POST",
        "/v1/plan",
        &[],
        &body(1, r#""deadline_ms":0"#),
    );
    assert_eq!(status, 400, "{response}");
    let response = parsed(&response);
    assert_eq!(error_kind(&response), "bad_request");
    assert_eq!(
        response.field("error").field("message"),
        &Value::String("deadline_ms must be >= 1; omit for no deadline".to_string())
    );
    let (status, _) = request(&mut stream, "POST", "/v1/plan", &[], &body(2, r#""x":1"#));
    assert_eq!(status, 200);
    let (status, _) = request(
        &mut stream,
        "POST",
        "/v1/plan",
        &[],
        &body(3, r#""deadline_ms":null"#),
    );
    assert_eq!(status, 200);
    assert_eq!(stats_count(&mut stream, "bad_request"), 1);
    drop(stream);
    let summary = gateway.stop();
    assert_eq!((summary.completed, summary.errors), (2, 1));
}

/// `recover` and lifetime `rounds` are bounded inputs: over its bound a
/// count is refused with `400` and the daemon's message, because a solve
/// that runs cannot be stopped by a deadline.
#[test]
fn over_bound_loop_counts_are_bad_requests() {
    let gateway = start_gateway(GatewayConfig::default());
    let mut stream = gateway.connect();
    let scenario = serde_json::to_string(&scenario_value(9, 5)).unwrap();
    for (body, message) in [
        (
            format!(
                r#"{{"id":1,"cmd":"replay","scenario":{scenario},"breakdown":1,"recover":33}}"#
            ),
            "recover must be <= 32",
        ),
        (
            format!(r#"{{"id":2,"cmd":"lifetime","scenario":{scenario},"rounds":1001}}"#),
            "rounds must be <= 1000",
        ),
    ] {
        let (status, response) = request(&mut stream, "POST", "/v1/plan", &[], &body);
        assert_eq!(status, 400, "{response}");
        let response = parsed(&response);
        assert_eq!(error_kind(&response), "bad_request");
        assert_eq!(
            response.field("error").field("message"),
            &Value::String(message.to_string())
        );
    }
    assert_eq!(stats_count(&mut stream, "bad_request"), 2);
    drop(stream);
    let summary = gateway.stop();
    assert_eq!((summary.completed, summary.errors), (0, 2));
}

/// Work still queued when its deadline passes is cancelled with `504
/// expired` instead of occupying the worker.
#[test]
fn queued_work_past_its_deadline_is_cancelled() {
    let gateway = start_gateway(one_shard());
    // Six distinct heavy plans keep the only worker busy.
    let items: Vec<String> = (0..6)
        .map(|i| plan_body(60 + i, HEAVY_DEVICES, "ccsa", "equal", i))
        .collect();
    let batch = format!(r#"{{"id":1,"requests":[{}]}}"#, items.join(","));
    let mut busy = gateway.connect();
    let raw = format!(
        "POST /v1/batch HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{batch}",
        batch.len()
    );
    busy.write_all(raw.as_bytes()).expect("write batch");
    await_admitted(&gateway, 6);

    let mut stream = gateway.connect();
    let late = with_fields(&plan_body(9, 5, "ccsa", "equal", 7), r#""deadline_ms":1"#);
    let (status, response) = request(&mut stream, "POST", "/v1/plan", &[], &late);
    assert_eq!(status, 504, "{response}");
    assert_eq!(error_kind(&parsed(&response)), "expired");
    let (status, _) = read_response(&mut busy);
    assert_eq!(status, 200, "the batch itself completes");
    assert_eq!(stats_count(&mut stream, "expired"), 1);
    drop((busy, stream));
    let summary = gateway.stop();
    assert_eq!((summary.completed, summary.errors), (6, 1));
}

/// A deadline can also pass during the solve: the finished result is
/// answered `504 expired`, never as a stale success.
#[test]
fn deadline_elapsing_during_the_solve_answers_expired() {
    let gateway = start_gateway(GatewayConfig::default());
    let mut stream = gateway.connect();
    let heavy = with_fields(
        &plan_body(8, HEAVY_DEVICES, "ccsa", "equal", 1),
        r#""deadline_ms":1"#,
    );
    let (status, response) = request(&mut stream, "POST", "/v1/plan", &[], &heavy);
    assert_eq!(status, 504, "{response}");
    assert_eq!(error_kind(&parsed(&response)), "expired");
    assert_eq!(stats_count(&mut stream, "expired"), 1);
    drop(stream);
    let summary = gateway.stop();
    assert_eq!(
        summary.completed, 0,
        "a post-deadline result is not a success"
    );
    assert_eq!(summary.errors, 1);
}

/// In a `/v1/batch`, each item carries its own deadline: only the item
/// that waited too long behind a heavy one answers `expired`.
#[test]
fn only_the_late_batch_item_expires() {
    let gateway = start_gateway(one_shard());
    let mut stream = gateway.connect();
    let items = [
        plan_body(8, HEAVY_DEVICES, "ccsa", "equal", 1),
        with_fields(&plan_body(9, 5, "ccsa", "equal", 2), r#""deadline_ms":1"#),
        plan_body(9, 5, "ccsa", "equal", 3),
    ];
    let batch = format!(r#"{{"id":7,"requests":[{}]}}"#, items.join(","));
    let (status, response) = request(&mut stream, "POST", "/v1/batch", &[], &batch);
    assert_eq!(status, 200, "{response}");
    let response = parsed(&response);
    let Value::Array(results) = response.field("result") else {
        panic!("batch result must be an array: {response:?}");
    };
    let oks: Vec<&Value> = results.iter().map(|item| item.field("ok")).collect();
    assert_eq!(
        oks,
        [&Value::Bool(true), &Value::Bool(false), &Value::Bool(true)]
    );
    assert_eq!(error_kind(&results[1]), "expired");
    drop(stream);
    let summary = gateway.stop();
    assert_eq!((summary.completed, summary.errors), (2, 1));
}

/// The drain does not wait for idle keep-alive clients: it returns in
/// well under a second (the idle timeout here is 2 s) while an idle
/// connection stays open, and work admitted before the drain still gets
/// its answer.
#[test]
fn drain_does_not_wait_for_idle_connections() {
    let gateway = start_gateway(one_shard());
    let idle = gateway.connect();
    let mut busy = gateway.connect();
    let body = plan_body(12, 10, "ccsga", "equal", 1);
    let raw = format!(
        "POST /v1/plan HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    busy.write_all(raw.as_bytes()).expect("write plan");
    await_admitted(&gateway, 1);
    let started = Instant::now();
    let summary = gateway.stop();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(900), "drain took {took:?}");
    let (status, response) = read_response(&mut busy);
    assert_eq!(status, 200, "admitted work is answered: {response}");
    assert_eq!(summary.completed, 1);
    drop(idle);
}
