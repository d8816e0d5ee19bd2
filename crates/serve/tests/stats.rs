//! Observability integration tests: the `stats` protocol command, the
//! versioned snapshot shape, the slow-request trace, and the guarantee
//! that observing the daemon never perturbs plan bytes.

use ccs_serve::prelude::*;
use ccs_serve::STATS_SCHEMA;
use ccs_wrsn::scenario::ScenarioGenerator;
use serde::value::Value;
use serde::Serialize;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` sink the test can read back after the server returns.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run_server_with(lines: &[String], config: &ServeConfig) -> (Vec<String>, ServeSummary) {
    let input = std::io::Cursor::new(lines.join("\n").into_bytes());
    let out = SharedBuf::default();
    let summary = serve_connection(input, Box::new(out.clone()), config);
    let bytes = out.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("responses are UTF-8");
    (text.lines().map(str::to_string).collect(), summary)
}

fn scenario_json(seed: u64, devices: usize) -> String {
    let scenario = ScenarioGenerator::new(seed)
        .devices(devices)
        .chargers(3)
        .generate();
    serde_json::to_string(&scenario.to_value()).expect("scenario serializes")
}

fn response_with_id(lines: &[String], id: u64) -> Value {
    for line in lines {
        let value: Value = serde_json::from_str(line).expect("response parses");
        if let Value::Number(n) = value.field("id") {
            if n.as_f64() == id as f64 {
                return value;
            }
        }
    }
    panic!("no response with id {id} in {lines:#?}");
}

fn plan_text(response: &Value) -> String {
    match response.field("result").field("text") {
        Value::String(s) => s.clone(),
        other => panic!("plan response carries no text field: {other:?}"),
    }
}

fn keys(value: &Value) -> Vec<&str> {
    value
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn u64_field(value: &Value, key: &str) -> u64 {
    match value.field(key) {
        Value::Number(n) => n.as_f64() as u64,
        other => panic!("'{key}' is not a number: {other:?}"),
    }
}

/// The golden shape of the versioned stats snapshot: a client written
/// against `ccs-serve-stats/v1` must find exactly these keys, and the
/// counters must satisfy the quiescent-observer invariants. Runs over a
/// Unix socket so the client can sequence requests deterministically:
/// once a response has been read, its counters are settled.
#[test]
fn stats_snapshot_is_versioned_and_consistent() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    let socket = std::env::temp_dir().join(format!("ccs-stats-test-{}.sock", std::process::id()));
    let socket = socket.to_string_lossy().into_owned();
    let config = ServeConfig {
        workers: 1,
        queue_depth: 8,
        stats_every: None,
        ..ServeConfig::default()
    };
    std::thread::scope(|scope| {
        let daemon = {
            let socket = socket.clone();
            let config = config.clone();
            scope.spawn(move || serve_unix(&socket, &config))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !std::path::Path::new(&socket).exists() {
            assert!(
                std::time::Instant::now() < deadline,
                "socket never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        let stream = UnixStream::connect(&socket).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut read_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            serde_json::from_str::<Value>(line.trim()).expect("response parses")
        };

        // One successful plan, one online step, then one bad request — all
        // fully answered before the snapshot is taken.
        let scenario = scenario_json(31, 6);
        writeln!(writer, r#"{{"id":1,"cmd":"plan","scenario":{scenario}}}"#).expect("write");
        let plan = read_line();
        assert_eq!(plan.field("ok"), &Value::Bool(true));
        writeln!(
            writer,
            r#"{{"id":4,"cmd":"online_step","scenario":{scenario},"pending":[0,2]}}"#
        )
        .expect("write");
        let step = read_line();
        assert_eq!(step.field("ok"), &Value::Bool(true));
        writeln!(writer, r#"{{"id":2,"cmd":"warp"}}"#).expect("write");
        let bad = read_line();
        assert_eq!(bad.field("ok"), &Value::Bool(false));

        // Latency histograms fold in just *after* the response line is
        // written (end-to-end latency includes the write), so poll until
        // the plan and step samples have landed.
        let snapshot = loop {
            writeln!(writer, r#"{{"id":3,"cmd":"stats"}}"#).expect("write");
            let response = read_line();
            assert_eq!(response.field("ok"), &Value::Bool(true));
            let snapshot = response.field("result").clone();
            let count = |series| u64_field(snapshot.field("latency_us").field(series), "count");
            if count("serve.plan") >= 1 && count("serve.online_step") >= 1 {
                break snapshot;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "plan and step samples never landed"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        writeln!(writer, r#"{{"cmd":"shutdown"}}"#).expect("write");
        daemon.join().expect("daemon thread").expect("daemon bind");

        // Golden key sets — schema v1 clients depend on these names.
        assert_eq!(
            snapshot.field("schema"),
            &Value::String(STATS_SCHEMA.to_string())
        );
        assert_eq!(
            keys(&snapshot),
            [
                "cache",
                "latency_us",
                "queue",
                "requests",
                "schema",
                "uptime_s"
            ]
        );
        let requests = snapshot.field("requests");
        assert_eq!(
            keys(requests),
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
        assert_eq!(
            keys(snapshot.field("queue")),
            ["capacity", "depth", "high_water"]
        );
        assert_eq!(
            keys(snapshot.field("cache")),
            [
                "bytes",
                "evictions",
                "plan_hits",
                "plans",
                "scenario_hits",
                "scenarios"
            ]
        );
        assert!(
            u64_field(snapshot.field("cache"), "bytes") > 0,
            "a cached scenario has a non-zero byte estimate"
        );
        let plan_latency = snapshot.field("latency_us").field("serve.plan");
        assert_eq!(
            keys(plan_latency),
            ["count", "max", "mean", "p50", "p90", "p99", "p999"]
        );

        // Every queued command has its own end-to-end series.
        let step_latency = snapshot.field("latency_us").field("serve.online_step");
        assert_eq!(u64_field(step_latency, "count"), 1);

        // Counter invariants for a quiescent observer.
        assert_eq!(u64_field(requests, "admitted"), 2);
        assert_eq!(u64_field(requests, "bad_request"), 1);
        assert_eq!(
            u64_field(requests, "errors"),
            u64_field(requests, "bad_request")
                + u64_field(requests, "expired")
                + u64_field(requests, "failed")
                + u64_field(requests, "panics")
        );
        assert!(
            u64_field(plan_latency, "p50") > 0,
            "a real plan takes non-zero microseconds: {plan_latency:?}"
        );
        assert!(u64_field(plan_latency, "p99") >= u64_field(plan_latency, "p50"));
        assert!(u64_field(plan_latency, "max") >= u64_field(plan_latency, "p99"));
        assert_eq!(u64_field(snapshot.field("queue"), "capacity"), 8);
    });
    let _ = std::fs::remove_file(&socket);
}

/// Observing the daemon must be free: interleaved `stats` requests plus
/// request tracing and a slow log must not change a single byte of the
/// served plan.
#[test]
fn stats_mid_load_does_not_perturb_plan_bytes() {
    let scenario = scenario_json(32, 8);
    let quiet_lines = vec![
        format!(r#"{{"id":1,"cmd":"plan","scenario":{scenario},"algo":"ccsa"}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let quiet_config = ServeConfig {
        workers: 1,
        queue_depth: 8,
        stats_every: None,
        ..ServeConfig::default()
    };
    let (quiet, _) = run_server_with(&quiet_lines, &quiet_config);
    let baseline = plan_text(&response_with_id(&quiet, 1));

    let dir = std::env::temp_dir().join(format!("ccs-stats-identity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.jsonl");
    let observed_lines = vec![
        r#"{"id":10,"cmd":"stats"}"#.to_string(),
        format!(r#"{{"id":1,"cmd":"plan","scenario":{scenario},"algo":"ccsa"}}"#),
        r#"{"id":11,"cmd":"stats"}"#.to_string(),
        format!(r#"{{"id":2,"cmd":"plan","scenario":{scenario},"algo":"ccsa"}}"#),
        r#"{"id":12,"cmd":"stats"}"#.to_string(),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let observed_config = ServeConfig {
        workers: 2,
        queue_depth: 8,
        stats_every: None,
        trace_requests: Some(trace_path.to_string_lossy().into_owned()),
        slow_ms: Some(10_000),
        ..ServeConfig::default()
    };
    let (observed, summary) = run_server_with(&observed_lines, &observed_config);
    assert_eq!(summary.errors, 0, "stats and tracing introduce no errors");

    for id in [1, 2] {
        assert_eq!(
            plan_text(&response_with_id(&observed, id)),
            baseline,
            "plan bytes changed under observation (id {id})"
        );
    }
    for id in [10, 11, 12] {
        let stats = response_with_id(&observed, id);
        assert_eq!(stats.field("ok"), &Value::Bool(true));
        assert_eq!(
            stats.field("result").field("schema"),
            &Value::String(STATS_SCHEMA.to_string())
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The slow log: with a zero threshold every pipelined request is flagged
/// slow in its trace line; with a huge threshold none are. The trace file
/// is complete by the time the server has drained.
#[test]
fn slow_threshold_flags_trace_lines() {
    let dir = std::env::temp_dir().join(format!("ccs-slow-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = scenario_json(33, 6);
    let lines = vec![
        format!(r#"{{"id":1,"cmd":"plan","scenario":{scenario}}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];

    let run = |trace_path: &std::path::Path, slow_ms: Option<u64>| {
        let config = ServeConfig {
            workers: 1,
            queue_depth: 8,
            stats_every: None,
            trace_requests: Some(trace_path.to_string_lossy().into_owned()),
            slow_ms,
            ..ServeConfig::default()
        };
        let (_, summary) = run_server_with(&lines, &config);
        assert_eq!(summary.completed, 1);
        let text = std::fs::read_to_string(trace_path).expect("trace file written");
        let traces: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("trace line parses"))
            .collect();
        assert_eq!(traces.len(), 1, "one trace line per pipelined request");
        traces.into_iter().next().unwrap()
    };

    // Zero threshold: every request is at least 0 ms end-to-end.
    let slow = run(&dir.join("slow.jsonl"), Some(0));
    assert_eq!(slow.field("slow"), &Value::Bool(true));
    assert_eq!(slow.field("cmd"), &Value::String("plan".to_string()));
    assert_eq!(slow.field("status"), &Value::String("ok".to_string()));
    assert_eq!(
        keys(&slow),
        ["cmd", "phases_us", "req_id", "slow", "status", "total_us"]
    );
    assert!(
        slow.field("phases_us")
            .as_object()
            .unwrap()
            .contains_key("solve"),
        "a computed plan records a solve phase: {slow:?}"
    );

    // A ten-minute threshold: nothing in this test is that slow.
    let fast = run(&dir.join("fast.jsonl"), Some(600_000));
    assert_eq!(fast.field("slow"), &Value::Bool(false));
    let _ = std::fs::remove_dir_all(&dir);
}
