//! `serve_mixed`: the JSONL daemon (`serve_unix`) and the HTTP gateway
//! (`run_gateway_on`) in-process, one worker each, driven closed-loop by
//! one client connection per transport with a seeded, fixed request mix.
//!
//! It is the only workload that exercises admission, queueing, cache hit
//! vs miss, serialization and both transports. Every lap of a client sends
//! the same mix: plans on a hot pool of n = 10 scenarios (cache hits),
//! plans on scenarios never seen before (n = 20; scenario-cache miss,
//! tables, CCSA or CCSGA, insert), `online_step` and `replay` requests on
//! hot scenarios (daemon), four-item `/v1/batch` requests alternating two
//! `X-Tenant` identities (gateway), and malformed bodies. No request
//! carries `deadline_ms`, so no outcome depends on the clock.

use crate::trace::Tracer;
use crate::{
    check_coverage, counter_layers, fnv, latency_metrics, mix, peak_rss_mb, program_span_ms,
    self_time_table, setup_metric, stats, write_spans, Args, Checks, Corrupt, Layers, Metric,
    Outcome, OUT_DIR,
};
use ccs_gateway::{run_gateway_on, GatewayConfig, GatewaySummary};
use ccs_serve::{serve_unix, PlanCache, ServeConfig, ServeObs, ServeSummary};
use ccs_wrsn::scenario::ScenarioGenerator;
use serde::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Input size of the workload.
#[derive(Debug, Clone)]
pub struct Size {
    /// Scenarios in the hot pool.
    pub hot: usize,
    /// Devices per hot scenario.
    pub hot_devices: usize,
    /// Devices per fresh scenario.
    pub fresh_devices: usize,
    /// Chargers per scenario.
    pub chargers: usize,
    /// Hot plan requests per lap and client.
    pub hot_per_lap: usize,
    /// Fresh plan requests per lap and client (the same bodies on both).
    pub fresh_per_lap: usize,
    /// `online_step` requests per daemon lap.
    pub online_per_lap: usize,
    /// `replay` requests per daemon lap.
    pub replay_per_lap: usize,
    /// `/v1/batch` requests per gateway lap.
    pub batch_per_lap: usize,
    /// Malformed bodies per lap and client.
    pub malformed_per_lap: usize,
    /// Timed laps whose plan responses define `cost`; every run completes
    /// at least this many.
    pub cost_laps: usize,
    /// Laps per phase of the traced run.
    pub traced_laps: usize,
    /// Set-ups per run (their median is `setup_s`).
    pub setups: usize,
    /// Byte budget of every plan cache: small enough that fresh entries
    /// cycle out and memory plateaus early in a run, large enough that
    /// the hot pool always hits.
    pub cache_bytes: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Size {
            hot: 32,
            hot_devices: 10,
            fresh_devices: 20,
            chargers: 4,
            hot_per_lap: 76,
            fresh_per_lap: 2,
            online_per_lap: 8,
            replay_per_lap: 4,
            batch_per_lap: 12,
            malformed_per_lap: 4,
            cost_laps: 4,
            traced_laps: 40,
            setups: 3,
            cache_bytes: 1 << 20,
        }
    }

    /// A size small enough for the self-tests.
    pub fn tiny() -> Self {
        Size {
            hot: 4,
            hot_devices: 6,
            fresh_devices: 8,
            chargers: 3,
            hot_per_lap: 6,
            fresh_per_lap: 2,
            online_per_lap: 2,
            replay_per_lap: 1,
            batch_per_lap: 2,
            malformed_per_lap: 1,
            cost_laps: 2,
            traced_laps: 3,
            setups: 2,
            cache_bytes: 1 << 20,
        }
    }
}

/// One request of a lap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Hot(usize),
    Fresh(usize),
    Online(usize),
    Replay(usize),
    Batch(usize),
    Malformed,
}

impl Key {
    /// The latency class the request belongs to.
    fn class(self) -> &'static str {
        match self {
            Key::Hot(_) => "hot plan",
            Key::Fresh(j) if j % 2 == 0 => "fresh plan, ccsa",
            Key::Fresh(_) => "fresh plan, ccsga",
            Key::Online(_) => "online_step",
            Key::Replay(_) => "replay",
            Key::Batch(_) => "batch of 4",
            Key::Malformed => "malformed",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Transport {
    Daemon,
    Gateway,
}

const MALFORMED_LINE: &str = r#"{"cmd":"plan","id":"m","scenario":{"devices":["#;
const MALFORMED_BODY: &str = r#"{"cmd":"plan","scenario":"#;

/// The generated inputs: pre-rendered bodies and each client's lap order.
#[derive(Debug)]
struct Inputs {
    seed: u64,
    size: Size,
    hot: Vec<String>,
    online: Vec<String>,
    replay: Vec<String>,
    batch: Vec<String>,
    daemon_lap: Vec<Key>,
    gateway_lap: Vec<Key>,
}

fn scenario_json(seed: u64, devices: usize, chargers: usize) -> String {
    let scenario = ScenarioGenerator::new(seed)
        .devices(devices)
        .chargers(chargers)
        .generate();
    serde_json::to_string(&scenario).expect("scenarios serialize")
}

/// Seeded Fisher–Yates shuffle.
fn shuffle(keys: &mut [Key], seed: u64) {
    for i in (1..keys.len()).rev() {
        let j = (mix(seed, 5, i as u64) % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
}

impl Inputs {
    fn generate(seed: u64, size: &Size) -> Self {
        let hot_json: Vec<String> = (0..size.hot as u64)
            .map(|i| scenario_json(mix(seed, 3, i), size.hot_devices, size.chargers))
            .collect();
        let hot = hot_json
            .iter()
            .enumerate()
            .map(|(i, s)| format!(r#"{{"cmd":"plan","id":"h{i}","scenario":{s}}}"#))
            .collect();
        let online = (0..size.online_per_lap)
            .map(|i| {
                let k = i % size.hot;
                let mut pending: Vec<u64> = (0..size.hot_devices as u64)
                    .filter(|d| mix(seed, 6, (i * 1000) as u64 + d) % 2 == 0)
                    .collect();
                if pending.is_empty() {
                    pending.push(0);
                }
                let pending: Vec<String> = pending.iter().map(u64::to_string).collect();
                format!(
                    r#"{{"cmd":"online_step","id":"o{i}","pending":[{}],"scenario":{}}}"#,
                    pending.join(","),
                    hot_json[k]
                )
            })
            .collect();
        let replay = (0..size.replay_per_lap)
            .map(|i| {
                format!(
                    r#"{{"cmd":"replay","id":"r{i}","scenario":{},"seed":{i}}}"#,
                    hot_json[(i * 3 + 1) % size.hot]
                )
            })
            .collect();
        let batch = (0..size.batch_per_lap)
            .map(|b| {
                let items: Vec<String> = (0..4)
                    .map(|k| {
                        let h = (4 * b + k) % size.hot;
                        format!(
                            r#"{{"cmd":"plan","id":"b{b}.{k}","scenario":{}}}"#,
                            hot_json[h]
                        )
                    })
                    .collect();
                format!(r#"{{"id":"b{b}","requests":[{}]}}"#, items.join(","))
            })
            .collect();
        let hot_keys = (0..size.hot_per_lap).map(|i| Key::Hot(i % size.hot));
        let fresh_keys = (0..size.fresh_per_lap).map(Key::Fresh);
        let malformed = std::iter::repeat_n(Key::Malformed, size.malformed_per_lap);
        let mut daemon_lap: Vec<Key> = hot_keys
            .clone()
            .chain(fresh_keys.clone())
            .chain(malformed.clone())
            .chain((0..size.online_per_lap).map(Key::Online))
            .chain((0..size.replay_per_lap).map(Key::Replay))
            .collect();
        let mut gateway_lap: Vec<Key> = hot_keys
            .chain(fresh_keys)
            .chain(malformed)
            .chain((0..size.batch_per_lap).map(Key::Batch))
            .collect();
        shuffle(&mut daemon_lap, mix(seed, 7, 0));
        shuffle(&mut gateway_lap, mix(seed, 7, 1));
        Inputs {
            seed,
            size: size.clone(),
            hot,
            online,
            replay,
            batch,
            daemon_lap,
            gateway_lap,
        }
    }

    /// The fresh plan bodies of `lap`: scenarios no earlier lap used,
    /// alternating the default CCSA and CCSGA.
    fn fresh(&self, lap: usize) -> Vec<String> {
        (0..self.size.fresh_per_lap)
            .map(|j| {
                let s = scenario_json(
                    mix(self.seed, 4, (lap * self.size.fresh_per_lap + j) as u64),
                    self.size.fresh_devices,
                    self.size.chargers,
                );
                let algo = if j % 2 == 0 { "ccsa" } else { "ccsga" };
                format!(r#"{{"algo":"{algo}","cmd":"plan","id":"f{lap}.{j}","scenario":{s}}}"#)
            })
            .collect()
    }

    fn lap(&self, transport: Transport) -> &[Key] {
        match transport {
            Transport::Daemon => &self.daemon_lap,
            Transport::Gateway => &self.gateway_lap,
        }
    }

    /// `(path, tenant, body)` of one request.
    fn wire<'a>(
        &'a self,
        transport: Transport,
        key: Key,
        fresh: &'a [String],
    ) -> (&'static str, &'static str, &'a str) {
        let body = match key {
            Key::Hot(i) => self.hot[i].as_str(),
            Key::Fresh(j) => fresh[j].as_str(),
            Key::Online(i) => self.online[i].as_str(),
            Key::Replay(i) => self.replay[i].as_str(),
            Key::Batch(i) => self.batch[i].as_str(),
            Key::Malformed => match transport {
                Transport::Daemon => MALFORMED_LINE,
                Transport::Gateway => MALFORMED_BODY,
            },
        };
        match key {
            Key::Batch(i) => ("/v1/batch", if i % 2 == 0 { "t0" } else { "t1" }, body),
            _ => ("/v1/plan", "t0", body),
        }
    }
}

/// One client connection.
enum Conn {
    Daemon(UnixStream, BufReader<UnixStream>),
    Http(TcpStream, BufReader<TcpStream>),
}

fn invalid(what: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

impl Conn {
    fn daemon(path: &PathBuf) -> std::io::Result<Conn> {
        // The daemon binds its socket on its own thread; wait for it.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Conn::Daemon(stream, reader));
                }
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    fn http(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn::Http(stream, reader))
    }

    /// Sends one request and reads its response: `(status, body)`; the
    /// daemon has no status and reports 0.
    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        tenant: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        match self {
            Conn::Daemon(w, r) => {
                let mut line = String::with_capacity(body.len() + 1);
                line.push_str(body);
                line.push('\n');
                w.write_all(line.as_bytes())?;
                let mut response = String::new();
                if r.read_line(&mut response)? == 0 {
                    return Err(invalid("daemon closed the connection".into()));
                }
                response.truncate(response.trim_end().len());
                Ok((0, response))
            }
            Conn::Http(w, r) => {
                let request = format!(
                    "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nX-Tenant: {tenant}\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                w.write_all(request.as_bytes())?;
                let mut line = String::new();
                if r.read_line(&mut line)? == 0 {
                    return Err(invalid("gateway closed the connection".into()));
                }
                let status: u16 = line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| invalid(format!("malformed status line {line:?}")))?;
                let mut length = 0usize;
                loop {
                    let mut header = String::new();
                    if r.read_line(&mut header)? == 0 {
                        return Err(invalid("connection closed mid-headers".into()));
                    }
                    let header = header.trim_end();
                    if header.is_empty() {
                        break;
                    }
                    if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v
                            .trim()
                            .parse()
                            .map_err(|_| invalid(format!("bad header {header:?}")))?;
                    }
                }
                let mut buf = vec![0u8; length];
                r.read_exact(&mut buf)?;
                String::from_utf8(buf)
                    .map(|b| (status, b))
                    .map_err(|_| invalid("response is not UTF-8".into()))
            }
        }
    }

    fn stats(&mut self) -> Result<Value, String> {
        let (_, body) = match self {
            Conn::Daemon(..) => self.round_trip("", "", "", r#"{"cmd":"stats","id":"s"}"#),
            Conn::Http(..) => self.round_trip("GET", "/v1/stats", "t0", ""),
        }
        .map_err(|e| format!("stats probe: {e}"))?;
        let v: Value = serde_json::from_str(&body).map_err(|e| format!("stats body: {e}"))?;
        Ok(v.field("result").clone())
    }
}

/// The daemon and the gateway running on their own threads.
struct Servers {
    daemon: JoinHandle<std::io::Result<ServeSummary>>,
    gateway: JoinHandle<std::io::Result<GatewaySummary>>,
    socket: PathBuf,
    addr: SocketAddr,
}

impl Servers {
    fn start(size: &Size) -> std::io::Result<Servers> {
        std::fs::create_dir_all(OUT_DIR)?;
        // Relative, so the path stays short wherever the checkout lives.
        let socket = PathBuf::from(OUT_DIR).join(format!("serve-{}.sock", std::process::id()));
        let config = ServeConfig {
            workers: 1,
            stats_every: None,
            metrics_file: None,
            trace_requests: None,
            slow_ms: None,
            cache_bytes: size.cache_bytes,
            ..ServeConfig::default()
        };
        let path = socket.to_string_lossy().into_owned();
        let daemon = std::thread::spawn(move || serve_unix(&path, &config));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let config = GatewayConfig {
            addr: addr.to_string(),
            shards: 1,
            workers_per_shard: 1,
            cache_bytes: size.cache_bytes,
            ..GatewayConfig::default()
        };
        let gateway = std::thread::spawn(move || run_gateway_on(listener, &config));
        Ok(Servers {
            daemon,
            gateway,
            socket,
            addr,
        })
    }

    fn connect(&self) -> std::io::Result<(Conn, Conn)> {
        Ok((Conn::daemon(&self.socket)?, Conn::http(self.addr)?))
    }

    /// Drains both servers through their shutdown requests and joins them.
    fn stop(self, mut daemon: Conn, mut gateway: Conn) -> Result<(), String> {
        let d = daemon.round_trip("", "", "", r#"{"cmd":"shutdown","id":"x"}"#);
        let g = gateway.round_trip("POST", "/v1/shutdown", "t0", "");
        // The gateway's drain waits for open connections to close.
        drop((daemon, gateway));
        let d_join = self.daemon.join();
        let g_join = self.gateway.join();
        match (d, g, d_join, g_join) {
            (Ok(_), Ok((200, _)), Ok(Ok(_)), Ok(Ok(_))) => Ok(()),
            other => Err(format!("server shutdown failed: {other:?}")),
        }
    }
}

/// What a response is expected to be, learnt from its first sighting.
#[derive(Debug, Clone, Copy)]
struct Expected {
    hash: u64,
    cost: f64,
    plans: usize,
}

/// State the two client threads share for cross-checks.
#[derive(Debug, Default)]
struct Shared {
    /// Hot bodies are shared by both transports (same id, same bytes).
    expect: Mutex<HashMap<(Option<Transport>, Key), Expected>>,
    /// Fresh responses waiting for the other transport's answer.
    fresh: Mutex<HashMap<(usize, usize), u64>>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

/// Parses an ok plan-bearing response: `(cost sum, plan count)`.
fn parse_ok(body: &str, key: Key) -> Result<(f64, usize), String> {
    let v: Value =
        serde_json::from_str(body).map_err(|e| format!("{key:?}: unparsable response: {e}"))?;
    if v.field("ok") != &Value::Bool(true) {
        return Err(format!("{key:?}: not ok: {body:.200}"));
    }
    let plan_cost = |r: &Value| -> Result<f64, String> {
        match number(r.field("total_cost")) {
            Some(c) if c.is_finite() && c > 0.0 => Ok(c),
            _ => Err(format!("{key:?}: plan without a positive total_cost")),
        }
    };
    match key {
        Key::Hot(_) | Key::Fresh(_) => Ok((plan_cost(v.field("result"))?, 1)),
        Key::Batch(_) => {
            let Value::Array(items) = v.field("result") else {
                return Err(format!("{key:?}: batch result is not an array"));
            };
            let mut sum = 0.0;
            for item in items {
                if item.field("ok") != &Value::Bool(true) {
                    return Err(format!("{key:?}: batch item not ok"));
                }
                sum += plan_cost(item.field("result"))?;
            }
            Ok((sum, items.len()))
        }
        _ => Ok((0.0, 0)),
    }
}

fn check_malformed(transport: Transport, status: u16, body: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(body)
        .map_err(|e| format!("malformed: unparsable error response: {e}"))?;
    let kind = v.field("error").field("kind");
    let status_ok = transport == Transport::Daemon || status == 400;
    if v.field("ok") == &Value::Bool(false)
        && kind == &Value::String("bad_request".into())
        && status_ok
    {
        Ok(())
    } else {
        Err(format!(
            "{transport:?}: malformed body answered {status} {body:.200}"
        ))
    }
}

impl Shared {
    /// Checks one response; returns its plan cost sum and plan count.
    fn check(
        &self,
        transport: Transport,
        key: Key,
        lap: usize,
        status: u16,
        body: &str,
    ) -> Result<(f64, usize), String> {
        if status != 0 && status != 200 && key != Key::Malformed {
            return Err(format!("{transport:?} {key:?}: HTTP {status}"));
        }
        match key {
            Key::Malformed => check_malformed(transport, status, body).map(|()| (0.0, 0)),
            Key::Fresh(j) => {
                let parsed = parse_ok(body, key)?;
                let hash = fnv(body.as_bytes());
                let mut fresh = self.fresh.lock().expect("fresh map poisoned");
                match fresh.remove(&(lap, j)) {
                    None => {
                        fresh.insert((lap, j), hash);
                    }
                    Some(other) if other == hash => {}
                    Some(_) => {
                        return Err(format!(
                            "lap {lap} fresh {j}: daemon and gateway results differ"
                        ))
                    }
                }
                Ok(parsed)
            }
            _ => {
                let scope = match key {
                    Key::Hot(_) => None,
                    _ => Some(transport),
                };
                let hash = fnv(body.as_bytes());
                let known = self
                    .expect
                    .lock()
                    .expect("expect map poisoned")
                    .get(&(scope, key))
                    .copied();
                match known {
                    Some(e) if e.hash == hash => Ok((e.cost, e.plans)),
                    Some(_) => Err(format!(
                        "{transport:?} {key:?}: response differs from the first one for the same body"
                    )),
                    None => {
                        let (cost, plans) = parse_ok(body, key)?;
                        self.expect
                            .lock()
                            .expect("expect map poisoned")
                            .insert((scope, key), Expected { hash, cost, plans });
                        Ok((cost, plans))
                    }
                }
            }
        }
    }
}

/// One client's record of a phase.
struct ClientRun {
    rtt_ms: Vec<f64>,
    by_class: BTreeMap<&'static str, Vec<f64>>,
    batch_ms: Vec<f64>,
    /// `(lap, position in lap, rtt)` for pairing with in-process replays.
    pairs: Vec<(usize, usize, f64)>,
    sent: usize,
    received: usize,
    cost: f64,
    plans: usize,
    checks: Checks,
    tracer: Tracer,
    end: Instant,
}

/// Runs laps `first_lap..` on one connection until `until(laps done)`.
/// The first `cost_laps` of them define `cost`.
fn client(
    inputs: &Inputs,
    shared: &Shared,
    transport: Transport,
    conn: &mut Conn,
    first_lap: usize,
    tracer: Tracer,
    until: &dyn Fn(usize) -> bool,
) -> ClientRun {
    let cost_laps = inputs.size.cost_laps;
    let mut run = ClientRun {
        rtt_ms: Vec::new(),
        by_class: BTreeMap::new(),
        batch_ms: Vec::new(),
        pairs: Vec::new(),
        sent: 0,
        received: 0,
        cost: 0.0,
        plans: 0,
        checks: Checks::default(),
        tracer,
        end: Instant::now(),
    };
    let name = match transport {
        Transport::Daemon => "daemon.request",
        Transport::Gateway => "gateway.request",
    };
    let mut lap = first_lap;
    while !until(lap - first_lap) {
        let fresh = inputs.fresh(lap);
        for (pos, &key) in inputs.lap(transport).iter().enumerate() {
            let (path, tenant, body) = inputs.wire(transport, key, &fresh);
            let op = (lap * 1000 + pos) as u64;
            run.sent += 1;
            let start = Instant::now();
            let id = run.tracer.begin(name, op);
            let response = conn.round_trip("POST", path, tenant, body);
            run.tracer.end(id);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            match response {
                Ok((status, response)) => {
                    run.received += 1;
                    run.rtt_ms.push(ms);
                    run.by_class.entry(key.class()).or_default().push(ms);
                    run.pairs.push((lap, pos, ms));
                    if matches!(key, Key::Batch(_)) {
                        run.batch_ms.push(ms);
                    }
                    let checked = shared.check(transport, key, lap, status, &response);
                    if let Ok((cost, plans)) = &checked {
                        if lap - first_lap < cost_laps {
                            run.cost += cost;
                            run.plans += plans;
                        }
                    }
                    run.checks.record(checked.map(|_| ()));
                }
                Err(e) => {
                    run.checks
                        .record(Err(format!("{transport:?} {key:?}: {e}")));
                    run.end = Instant::now();
                    return run;
                }
            }
        }
        lap += 1;
    }
    run.end = Instant::now();
    run
}

/// Runs both clients concurrently from lap 1 (lap 0 is the set-up's
/// warm-up); `until(laps done, phase start)` ends each client's loop
/// between laps.
fn phase(
    inputs: &Inputs,
    shared: &Shared,
    conns: &mut (Conn, Conn),
    traced: Option<Instant>,
    until: &(dyn Fn(usize, Instant) -> bool + Sync),
) -> (Instant, ClientRun, ClientRun) {
    let tracer = || Tracer::new(traced.is_some(), traced.unwrap_or_else(Instant::now));
    let (d, g) = (&mut conns.0, &mut conns.1);
    let start = Instant::now();
    let stop = |done| until(done, start);
    let (dr, gr) = std::thread::scope(|s| {
        let stop = &stop;
        let dh = s.spawn(move || client(inputs, shared, Transport::Daemon, d, 1, tracer(), stop));
        let gh = s.spawn(move || client(inputs, shared, Transport::Gateway, g, 1, tracer(), stop));
        (
            dh.join().expect("daemon client thread panicked"),
            gh.join().expect("gateway client thread panicked"),
        )
    });
    (start, dr, gr)
}

/// Set-up: inputs, both servers, both connections, one warm-up lap.
fn setup(
    args: &Args,
    size: &Size,
    shared: &Shared,
) -> Result<(Inputs, Servers, (Conn, Conn), Checks), String> {
    let inputs = Inputs::generate(args.seed, size);
    let servers = Servers::start(size).map_err(|e| format!("starting servers: {e}"))?;
    let mut conns = servers.connect().map_err(|e| format!("connecting: {e}"))?;
    let mut checks = Checks::default();
    for transport in [Transport::Daemon, Transport::Gateway] {
        let conn = match transport {
            Transport::Daemon => &mut conns.0,
            Transport::Gateway => &mut conns.1,
        };
        let run = client(
            &inputs,
            shared,
            transport,
            conn,
            0,
            Tracer::new(false, Instant::now()),
            &|done| done >= 1,
        );
        checks.absorb(run.checks);
    }
    Ok((inputs, servers, conns, checks))
}

/// Round-trip latency per request class, both connections pooled, so
/// the classes `lat_ms` and `lat_ms_tail` fall into can be read off.
fn class_table(runs: &[&ClientRun]) -> Vec<String> {
    let mut pooled: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for run in runs {
        for (class, ms) in &run.by_class {
            pooled.entry(class).or_default().extend(ms);
        }
    }
    let total: usize = pooled.values().map(Vec::len).sum();
    let mut lines = vec!["round trip by request class:".to_string()];
    for (class, ms) in pooled {
        let tail = stats::tail(&ms).map_or(f64::NAN, |t| t.value);
        lines.push(format!(
            "  {class:<20} {:>6.2}% of requests  p50 {:>8.3} ms  tail {:>8.3} ms",
            ms.len() as f64 / total as f64 * 100.0,
            stats::median(&ms),
            tail
        ));
    }
    lines
}

/// Runs the workload.
///
/// # Errors
///
/// Starting, connecting to or stopping the servers.
pub fn run(args: &Args, size: &Size, corrupt: Corrupt) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let shared = Shared::default();
    if corrupt == Corrupt::Expectation {
        shared.expect.lock().expect("expect map poisoned").insert(
            (None, Key::Hot(0)),
            Expected {
                hash: 0,
                cost: 0.0,
                plans: 0,
            },
        );
    }
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..size.setups {
        let start = Instant::now();
        let (inputs, servers, conns, checks) = setup(args, size, &shared)?;
        setups.push(start.elapsed().as_secs_f64());
        out.checks.absorb(checks);
        if i + 1 < size.setups {
            servers.stop(conns.0, conns.1)?;
        } else {
            live = Some((inputs, servers, conns));
        }
    }
    let (inputs, servers, mut conns) = live.expect("at least one set-up");

    if args.trace {
        let pending = traced(&inputs, &shared, &mut conns, &mut out)?;
        servers.stop(conns.0, conns.1)?;
        replay_in_process(args, &inputs, pending, &mut out);
        return Ok(out);
    }

    let seconds = args.seconds;
    let min_laps = size.cost_laps;
    let (start, d, g) = phase(&inputs, &shared, &mut conns, None, &move |done, start| {
        done >= min_laps && start.elapsed() >= seconds
    });
    servers.stop(conns.0, conns.1)?;
    let wall = d.end.max(g.end).duration_since(start).as_secs_f64();
    let rtt: Vec<f64> = d.rtt_ms.iter().chain(&g.rtt_ms).copied().collect();
    out.notes = class_table(&[&d, &g]);
    let cost = (d.cost + g.cost) / (d.plans + g.plans) as f64;
    let (sent, received) = (d.sent + g.sent, d.received + g.received);
    let served_share = received as f64 / sent as f64;
    out.checks.absorb(d.checks);
    out.checks.absorb(g.checks);
    out.checks.require(cost.is_finite() && cost > 0.0, || {
        format!("cost {cost} undefined")
    });
    let [lat_ms, lat_tail] = latency_metrics(&rtt, &mut out.checks);
    out.exact.insert("cost".into(), cost.to_bits());
    out.exact
        .insert("served_share".into(), served_share.to_bits());
    out.metrics = vec![
        setup_metric(&setups),
        lat_ms.note("median round trip, both connections"),
        lat_tail,
        Metric::new("throughput_per_s", received as f64 / wall, "1/s", received)
            .note(format!("responses over {wall:.2} s, both connections")),
        Metric::new("cost", cost, "cost", d.plans + g.plans).note(format!(
            "mean total_cost per ok plan response, first {min_laps} laps"
        )),
        Metric::new("served_share", served_share, "ratio", sent),
        Metric::new(
            "ok_share",
            out.checks.ok_share(),
            "ratio",
            out.checks.attempted as usize,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ];
    Ok(out)
}

fn u64_at(v: &Value, path: &[&str]) -> u64 {
    let leaf = path.iter().fold(v, |v, k| v.field(k));
    number(leaf).map_or(0, |n| n as u64)
}

/// Mean of a phase histogram over both servers' snapshots, in ms.
fn phase_mean_ms(daemon: &Value, gateway: &Value, phase: &str) -> (f64, usize) {
    let key = format!("phase.{phase}");
    let (mut total, mut count) = (0.0, 0u64);
    for snap in [daemon, gateway] {
        let entry = snap.field("latency_us").field(&key);
        let n = u64_at(entry, &["count"]);
        total += number(entry.field("mean")).unwrap_or(0.0) * n as f64;
        count += n;
    }
    if count == 0 {
        (0.0, 0)
    } else {
        (total / count as f64 / 1e3, count as usize)
    }
}

/// The traced run's two phases over the live servers: untraced laps (the
/// overhead baseline), then traced laps with the program's counters on,
/// bracketed by stats snapshots of both servers.
fn traced(
    inputs: &Inputs,
    shared: &Shared,
    conns: &mut (Conn, Conn),
    out: &mut Outcome,
) -> Result<Pending, String> {
    let laps = inputs.size.traced_laps;
    let (_, a_d, a_g) = phase(inputs, shared, conns, None, &move |done, _| done >= laps);
    let before = (conns.0.stats()?, conns.1.stats()?);
    let telemetry = ccs_telemetry::global();
    telemetry.reset();
    telemetry.enable();
    let origin = Instant::now();
    // Phase B sends phase A's laps again. Their fresh scenarios were
    // evicted long ago, so they miss again, and cost must match exactly.
    let (_, b_d, b_g) = phase(inputs, shared, conns, Some(origin), &move |done, _| {
        done >= laps
    });
    telemetry.disable();
    let report = telemetry.report();
    let after = (conns.0.stats()?, conns.1.stats()?);
    // A second untraced phase after the traced one: the overhead baseline
    // pools both, so drift over the run does not pass for overhead.
    let (_, c_d, c_g) = phase(inputs, shared, conns, None, &move |done, _| done >= laps);

    let lat_a: Vec<f64> = [&a_d, &a_g, &c_d, &c_g]
        .iter()
        .flat_map(|r| r.rtt_ms.iter().copied())
        .collect();
    let lat_b: Vec<f64> = b_d.rtt_ms.iter().chain(&b_g.rtt_ms).copied().collect();
    let cost_a = (a_d.cost + a_g.cost) / (a_d.plans + a_g.plans) as f64;
    let cost_b = (b_d.cost + b_g.cost) / (b_d.plans + b_g.plans) as f64;
    for run in [&a_d, &a_g, &b_d, &b_g, &c_d, &c_g] {
        out.checks.absorb(run.checks.clone());
    }
    let delta = |path: &[&str]| {
        (
            u64_at(&after.0, path) - u64_at(&before.0, path),
            u64_at(&after.1, path) - u64_at(&before.1, path),
        )
    };

    let mut layers = Layers::default();
    counter_layers(&report, &mut layers, out);
    for (metric, phase) in [
        ("serve.queue_wait_ms", "queue_wait"),
        ("serve.cache_lookup_ms", "cache_lookup"),
        ("serve.tables_ms", "tables"),
        ("serve.solve_ms", "solve"),
        ("serve.serialize_ms", "serialize"),
    ] {
        let (v, n) = phase_mean_ms(&after.0, &after.1, phase);
        layers.set(metric, v, n);
    }
    let (admitted, _) = delta(&["requests", "admitted"]);
    let (scenario_hits, _) = delta(&["cache", "scenario_hits"]);
    let (plan_hits, _) = delta(&["cache", "plan_hits"]);
    let ratio = |n: u64| {
        if admitted == 0 {
            0.0
        } else {
            n as f64 / admitted as f64
        }
    };
    layers.set(
        "serve.scenario_hit_ratio",
        ratio(scenario_hits),
        admitted as usize,
    );
    layers.set("serve.plan_hit_ratio", ratio(plan_hits), admitted as usize);
    let (rd, rg) = delta(&["requests", "rejected"]);
    layers.set("serve.rejected", (rd + rg) as f64, 1);
    let (ed, eg) = delta(&["requests", "errors"]);
    layers.set("serve.errors", (ed + eg) as f64, 1);
    for (name, value) in [
        ("serve.admitted", admitted),
        ("serve.scenario_hits", scenario_hits),
        ("serve.plan_hits", plan_hits),
        ("serve.errors", ed + eg),
        ("serve.rejected", rd + rg),
    ] {
        out.exact.insert(name.into(), value);
    }
    let (v, n) = program_span_ms(&report, "ccsa");
    layers.set("ccsa.solve_ms", v, n);
    let (v, n) = program_span_ms(&report, "ccsga");
    layers.set("ccsga.solve_ms", v, n);
    layers.set(
        "daemon.rtt_ms",
        stats::median(&b_d.rtt_ms),
        b_d.rtt_ms.len(),
    );
    layers.set(
        "gateway.rtt_ms",
        stats::median(&b_g.rtt_ms),
        b_g.rtt_ms.len(),
    );
    let per_item: Vec<f64> = b_g.batch_ms.iter().map(|ms| ms / 4.0).collect();
    layers.set(
        "gateway.batch_item_ms",
        stats::median(&per_item),
        per_item.len(),
    );
    let (a, b) = (stats::median(&lat_a), stats::median(&lat_b));
    layers.set("trace.overhead_pct", (b - a) / a * 100.0, lat_b.len());
    out.checks
        .require(cost_a.to_bits() == cost_b.to_bits(), || {
            format!("traced cost {cost_b} differs from untraced {cost_a}")
        });
    let served_b = (b_d.received + b_g.received) as f64 / (b_d.sent + b_g.sent) as f64;
    out.exact.insert("cost".into(), cost_b.to_bits());
    out.exact.insert("served_share".into(), served_b.to_bits());
    out.notes.push(format!(
        "round trip p50 untraced {a:.3} ms, traced {b:.3} ms over {} requests; cost {cost_b}",
        lat_b.len()
    ));

    let mut tracer = b_d.tracer;
    tracer.absorb(b_g.tracer);
    Ok(Pending {
        tracer,
        layers,
        rtts: [b_d.pairs, b_g.pairs],
        laps,
    })
}

/// Per-layer values measured over the sockets, waiting for the
/// in-process replay to add the execute and transport split.
struct Pending {
    tracer: Tracer,
    layers: Layers,
    rtts: [Vec<(usize, usize, f64)>; 2],
    laps: usize,
}

/// Replays the traced laps' requests in-process through
/// `ccs_serve::engine::execute`, with one cache per server identity warmed
/// by the warm-up lap, so hits and misses mirror the servers'. The
/// difference between a request's round trip and its execute time is the
/// transport's share.
fn replay_in_process(args: &Args, inputs: &Inputs, pending: Pending, out: &mut Outcome) {
    let mut layers = pending.layers;
    let caches: HashMap<&str, PlanCache> = ["daemon", "t0", "t1"]
        .into_iter()
        .map(|k| (k, PlanCache::with_budget(inputs.size.cache_bytes)))
        .collect();
    let obs = ServeObs::new(None, None);
    let mut tr = Tracer::new(true, Instant::now());
    let mut transport_ms = Vec::new();
    let mut execute_ms = Vec::new();
    for (t, transport) in [Transport::Daemon, Transport::Gateway]
        .into_iter()
        .enumerate()
    {
        let rtt: HashMap<(usize, usize), f64> = pending.rtts[t]
            .iter()
            .map(|&(l, p, ms)| ((l, p), ms))
            .collect();
        let laps = 0..=pending.laps;
        for lap in laps {
            let fresh = inputs.fresh(lap);
            for (pos, &key) in inputs.lap(transport).iter().enumerate() {
                if key == Key::Malformed {
                    continue;
                }
                let (_, tenant, body) = inputs.wire(transport, key, &fresh);
                let cache = &caches[match transport {
                    Transport::Daemon => "daemon",
                    Transport::Gateway => tenant,
                }];
                let op = (lap * 1000 + pos) as u64;
                let root = tr.begin("serve.replay_request", op);
                let items: Vec<Value> = tr.span("serve.parse", op, || {
                    let parsed: Value = serde_json::from_str(body).expect("generated bodies parse");
                    match (key, parsed) {
                        (Key::Batch(_), Value::Object(mut map)) => match map.remove("requests") {
                            Some(Value::Array(items)) => items,
                            _ => Vec::new(),
                        },
                        (_, parsed) => vec![parsed],
                    }
                });
                let exec = tr.begin("serve.execute", op);
                let mut ok = true;
                for item in &items {
                    let cmd = match item.field("cmd") {
                        Value::String(c) => c.clone(),
                        _ => "plan".to_string(),
                    };
                    let mut trace = obs.start();
                    ok &= ccs_serve::engine::execute(cache, &cmd, item, &mut trace).is_ok();
                }
                tr.end(exec);
                let ms = tr.ms(exec);
                tr.end(root);
                out.checks
                    .require(ok, || format!("in-process replay of {key:?} failed"));
                if lap > 0 {
                    execute_ms.push(ms);
                    if let Some(r) = rtt.get(&(lap, pos)) {
                        transport_ms.push(r - ms);
                    }
                }
            }
        }
    }
    let coverage = check_coverage(&tr, "serve.replay_request", &mut out.checks);
    layers.set(
        "serve.execute_ms",
        stats::median(&execute_ms),
        execute_ms.len(),
    );
    layers.set(
        "transport_ms",
        stats::median(&transport_ms),
        transport_ms.len(),
    );
    out.notes
        .extend(self_time_table(&tr, "the in-process replay"));
    out.notes.push(coverage);
    let mut spans = pending.tracer;
    spans.absorb(tr);
    write_spans(&spans, "serve_mixed", args.seed, &mut out.checks);
    out.metrics = layers.into_metrics();
}
