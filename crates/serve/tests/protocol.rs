//! Protocol-level integration tests of the daemon engine: golden
//! byte-stable responses, error paths that must not kill the server,
//! backpressure, deadlines, caching, and the drain contract.

use ccs_core::prelude::*;
use ccs_serve::prelude::*;
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

/// Runs a full server lifecycle over `lines`, returning every response
/// line and the drain summary.
fn run_server(lines: &[String], workers: usize, queue_depth: usize) -> (Vec<String>, ServeSummary) {
    let input = std::io::Cursor::new(lines.join("\n").into_bytes());
    let out = SharedBuf::default();
    let config = ServeConfig {
        workers,
        queue_depth,
        stats_every: None,
        ..ServeConfig::default()
    };
    let summary = serve_connection(input, Box::new(out.clone()), &config);
    let bytes = out.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("responses are UTF-8");
    (text.lines().map(str::to_string).collect(), summary)
}

/// Devices in a plan that must hold a worker well past a 1 ms deadline: a
/// 30-device, 3-charger CCSGA plan takes about 5 ms on a 2-vCPU host.
const HEAVY_DEVICES: usize = 30;

fn scenario_json(seed: u64, devices: usize) -> String {
    let scenario = ScenarioGenerator::new(seed)
        .devices(devices)
        .chargers(3)
        .generate();
    serde_json::to_string(&scenario.to_value()).expect("scenario serializes")
}

/// A scenario no charger can serve: `CcsProblem::new` panics on it, which
/// is exactly what the worker's panic backstop must absorb.
fn poison_scenario_json() -> String {
    let scenario = ScenarioGenerator::new(5).devices(4).chargers(2).generate();
    let mut value = scenario.to_value();
    if let Value::Object(map) = &mut value {
        map.insert("chargers".to_string(), Value::Array(Vec::new()));
    }
    serde_json::to_string(&value).expect("scenario serializes")
}

/// The parsed response with the given id.
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

fn response_ok(response: &Value) -> bool {
    response.field("ok") == &Value::Bool(true)
}

fn error_kind(response: &Value) -> &str {
    match response.field("error").field("kind") {
        Value::String(s) => s,
        other => panic!("error.kind missing: {other:?}"),
    }
}

#[test]
fn served_plan_is_byte_identical_to_direct_computation() {
    let scenario_json = scenario_json(11, 8);
    let lines = vec![
        format!(r#"{{"id":1,"cmd":"plan","scenario":{scenario_json},"algo":"ccsa"}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (responses, summary) = run_server(&lines, 1, 8);
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.errors, 0);

    let response = response_with_id(&responses, 1);
    assert_eq!(response.field("ok"), &Value::Bool(true));
    let Value::String(text) = response.field("result").field("text") else {
        panic!("plan response carries no text field");
    };

    let scenario = ScenarioGenerator::new(11).devices(8).chargers(3).generate();
    let problem = CcsProblem::new(scenario);
    let direct = ccsa(&problem, &EqualShare, CcsaOptions::default());
    assert_eq!(
        text,
        &direct.to_string(),
        "served plan text must be byte-identical to the one-shot computation"
    );
}

#[test]
fn responses_are_byte_stable_across_runs() {
    let scenario_json = scenario_json(3, 6);
    let lines = vec![
        format!(r#"{{"id":1,"cmd":"plan","scenario":{scenario_json}}}"#),
        format!(r#"{{"id":2,"cmd":"plan","scenario":{scenario_json},"algo":"ncp"}}"#),
        format!(r#"{{"id":3,"cmd":"replay","scenario":{scenario_json},"seed":7}}"#),
        r#"{"id":4,"cmd":"ping"}"#.to_string(),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (mut first, _) = run_server(&lines, 1, 8);
    let (mut second, _) = run_server(&lines, 2, 8);
    // Worker interleaving may reorder lines; the bytes of each response
    // must not change.
    first.sort();
    second.sort();
    assert_eq!(first, second);
    assert_eq!(first.len(), 5);
}

#[test]
fn malformed_requests_get_errors_and_the_daemon_keeps_serving() {
    let scenario_json = scenario_json(2, 5);
    let lines = vec![
        "{definitely not json".to_string(),
        r#"[1, 2, 3]"#.to_string(),
        r#"{"id":10,"cmd":"warp"}"#.to_string(),
        r#"{"id":11,"cmd":"plan"}"#.to_string(),
        format!(r#"{{"id":12,"cmd":"plan","scenario":{scenario_json},"algo":7}}"#),
        format!(r#"{{"id":13,"cmd":"plan","scenario":{scenario_json}}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (responses, summary) = run_server(&lines, 2, 8);
    // Every line including the shutdown got exactly one response.
    assert_eq!(responses.len(), 7);
    assert_eq!(summary.errors, 5);
    assert_eq!(summary.completed, 1, "the valid request still completed");
    assert_eq!(summary.panics, 0, "malformed input never reaches a panic");

    assert_eq!(error_kind(&response_with_id(&responses, 10)), "bad_request");
    assert_eq!(error_kind(&response_with_id(&responses, 11)), "bad_request");
    assert_eq!(error_kind(&response_with_id(&responses, 12)), "bad_request");
    let ok = response_with_id(&responses, 13);
    assert_eq!(ok.field("ok"), &Value::Bool(true));
}

#[test]
fn poison_request_is_caught_and_the_daemon_survives() {
    let poison = poison_scenario_json();
    let healthy = scenario_json(4, 5);
    let lines = vec![
        format!(r#"{{"id":1,"cmd":"plan","scenario":{poison}}}"#),
        format!(r#"{{"id":2,"cmd":"plan","scenario":{healthy}}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (responses, summary) = run_server(&lines, 1, 8);
    assert_eq!(summary.panics, 1, "the poison scenario panics in core");
    assert_eq!(summary.completed, 1);

    let poisoned = response_with_id(&responses, 1);
    assert_eq!(poisoned.field("ok"), &Value::Bool(false));
    assert_eq!(error_kind(&poisoned), "internal");

    let healthy = response_with_id(&responses, 2);
    assert_eq!(
        healthy.field("ok"),
        &Value::Bool(true),
        "the daemon keeps serving after a caught panic"
    );
}

#[test]
fn queue_overflow_is_rejected_with_explicit_backpressure() {
    // One worker, queue depth 1, eight distinct (uncacheable) plans pushed
    // in one burst: the reader admits far faster than the worker computes,
    // so most requests must see an explicit reject, and every request must
    // be answered one way or the other.
    let total = 8u64;
    let mut lines: Vec<String> = (0..total)
        .map(|i| {
            let scenario = scenario_json(100 + i, 10);
            format!(r#"{{"id":{i},"cmd":"plan","scenario":{scenario}}}"#)
        })
        .collect();
    lines.push(r#"{"cmd":"shutdown"}"#.to_string());
    let (responses, summary) = run_server(&lines, 1, 1);

    assert_eq!(summary.admitted + summary.rejected, total);
    assert!(
        summary.rejected >= 1,
        "a depth-1 queue under burst load must reject: {summary:?}"
    );
    assert_eq!(summary.completed, summary.admitted);

    let mut rejected = 0;
    for id in 0..total {
        let response = response_with_id(&responses, id);
        match response.field("ok") {
            Value::Bool(true) => {}
            Value::Bool(false) => {
                assert_eq!(error_kind(&response), "rejected");
                rejected += 1;
            }
            other => panic!("response without ok: {other:?}"),
        }
    }
    assert_eq!(rejected, summary.rejected);
}

#[test]
fn identical_requests_hit_the_scenario_and_plan_caches() {
    let scenario_json = scenario_json(6, 6);
    let lines = vec![
        format!(r#"{{"id":1,"cmd":"plan","scenario":{scenario_json}}}"#),
        format!(r#"{{"id":2,"cmd":"plan","scenario":{scenario_json}}}"#),
        format!(r#"{{"id":3,"cmd":"replay","scenario":{scenario_json},"seed":1}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (responses, summary) = run_server(&lines, 1, 8);
    assert_eq!(summary.completed, 3);
    assert_eq!(
        summary.scenario_hits, 2,
        "requests 2 and 3 reuse the problem"
    );
    assert_eq!(
        summary.plan_hits, 2,
        "request 2 and the replay reuse the plan"
    );

    // Cache hits are transparent: identical requests (different ids) get
    // responses identical except for the id.
    let one = response_with_id(&responses, 1);
    let two = response_with_id(&responses, 2);
    assert_eq!(
        serde_json::to_string(&one.field("result")).unwrap(),
        serde_json::to_string(&two.field("result")).unwrap()
    );
}

#[test]
fn queued_work_past_its_deadline_is_cancelled() {
    // One worker: the first (heavy) plan occupies it for far longer than
    // 1 ms, so the second request expires while queued and must be
    // cancelled gracefully instead of computed.
    let heavy = scenario_json(8, HEAVY_DEVICES);
    let light = scenario_json(9, 5);
    let lines = vec![
        format!(r#"{{"id":1,"cmd":"plan","scenario":{heavy}}}"#),
        format!(r#"{{"id":2,"cmd":"plan","scenario":{light},"deadline_ms":1}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (responses, summary) = run_server(&lines, 1, 8);
    assert_eq!(summary.completed, 1);
    let expired = response_with_id(&responses, 2);
    assert_eq!(error_kind(&expired), "expired");
}

#[test]
fn deadline_elapsing_during_the_solve_answers_expired() {
    // The request is alone in the queue, so it dequeues well inside its
    // 1 ms budget — but the heavy solve takes far longer, so the deadline
    // passes *during* execution. The finished result must be answered
    // `expired` (and counted), never as a stale success.
    let heavy = scenario_json(8, HEAVY_DEVICES);
    let lines = vec![
        format!(r#"{{"id":1,"cmd":"plan","scenario":{heavy},"deadline_ms":1}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (responses, summary) = run_server(&lines, 1, 8);
    assert_eq!(
        summary.completed, 0,
        "a post-deadline result is not a success"
    );
    assert_eq!(summary.expired, 1);
    assert_eq!(summary.errors, 1);
    let expired = response_with_id(&responses, 1);
    assert!(!response_ok(&expired));
    assert_eq!(error_kind(&expired), "expired");
}

#[test]
fn explicit_zero_deadline_is_a_bad_request() {
    // `deadline_ms: 0` can only mean "already expired" — it is rejected
    // outright, while omitting the field (or JSON `null`) still means
    // "no deadline" and the request completes normally.
    let light = scenario_json(9, 5);
    let lines = vec![
        format!(r#"{{"id":1,"cmd":"plan","scenario":{light},"deadline_ms":0}}"#),
        format!(r#"{{"id":2,"cmd":"plan","scenario":{light}}}"#),
        format!(r#"{{"id":3,"cmd":"plan","scenario":{light},"deadline_ms":null}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (responses, summary) = run_server(&lines, 1, 8);
    let rejected = response_with_id(&responses, 1);
    assert_eq!(error_kind(&rejected), "bad_request");
    let Value::String(message) = rejected.field("error").field("message") else {
        panic!("bad_request carries no message");
    };
    assert!(
        message.contains("deadline_ms must be >= 1"),
        "message must explain the semantics, got '{message}'"
    );
    assert!(response_ok(&response_with_id(&responses, 2)));
    assert!(response_ok(&response_with_id(&responses, 3)));
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.bad_request, 1);
}

#[test]
fn online_step_plans_pending_requests_and_validates_input() {
    let light = scenario_json(9, 6);
    let lines = vec![
        format!(r#"{{"id":1,"cmd":"online_step","scenario":{light},"pending":[0,2,4]}}"#),
        format!(r#"{{"id":2,"cmd":"online_step","scenario":{light},"pending":[]}}"#),
        format!(r#"{{"id":3,"cmd":"online_step","scenario":{light},"pending":[99]}}"#),
        format!(r#"{{"id":4,"cmd":"online_step","scenario":{light},"pending":[0],"algo":"fcfs"}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (responses, summary) = run_server(&lines, 1, 8);
    let planned = response_with_id(&responses, 1);
    assert!(response_ok(&planned));
    let Value::Array(groups) = planned.field("result").field("groups") else {
        panic!("online_step must answer a groups array");
    };
    assert!(!groups.is_empty());
    // Members are mapped back to *original* device ids.
    let mut members: Vec<u64> = groups
        .iter()
        .flat_map(|g| match g.field("members") {
            Value::Array(ms) => ms
                .iter()
                .map(|m| match m {
                    Value::Number(serde::value::Number::PosInt(v)) => *v,
                    other => panic!("member must be an id, got {other:?}"),
                })
                .collect::<Vec<_>>(),
            other => panic!("groups carry member arrays, got {other:?}"),
        })
        .collect();
    members.sort_unstable();
    assert_eq!(members, vec![0, 2, 4]);
    assert_eq!(error_kind(&response_with_id(&responses, 2)), "bad_request");
    assert_eq!(error_kind(&response_with_id(&responses, 3)), "bad_request");
    assert!(
        response_ok(&response_with_id(&responses, 4)),
        "fcfs policy serves"
    );
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.bad_request, 2);
}

#[test]
fn scenario_breaking_an_entity_invariant_is_a_bad_request() {
    // A deserialized scenario skips the entity builders; a negative price
    // must be refused before planning (unchecked, it plans a negative
    // total cost), for `plan` and for every command that takes a scenario.
    let mut value = ScenarioGenerator::new(5)
        .devices(6)
        .chargers(3)
        .generate()
        .to_value();
    let Value::Object(top) = &mut value else {
        panic!("a scenario is a JSON object")
    };
    let Some(Value::Array(chargers)) = top.get_mut("chargers") else {
        panic!("a scenario lists its chargers")
    };
    let Some(Value::Object(first)) = chargers.first_mut() else {
        panic!("the scenario has chargers")
    };
    first.insert(
        "energy_price".to_string(),
        Value::Number(serde::value::Number::Float(-3.0)),
    );
    let hostile = serde_json::to_string(&value).expect("scenario serializes");
    let lines = vec![
        format!(r#"{{"id":1,"cmd":"plan","scenario":{hostile}}}"#),
        format!(r#"{{"id":2,"cmd":"replay","scenario":{hostile}}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (responses, summary) = run_server(&lines, 1, 8);
    for id in [1, 2] {
        let response = response_with_id(&responses, id);
        assert_eq!(error_kind(&response), "bad_request");
        let Value::String(message) = response.field("error").field("message") else {
            panic!("bad_request carries no message");
        };
        assert!(
            message.contains("c0: energy price must be finite and nonnegative"),
            "{message}"
        );
    }
    assert_eq!(summary.panics, 0);
    assert_eq!(summary.bad_request, 2);
}

#[test]
fn lifetime_with_zero_rounds_is_a_bad_request() {
    // Zero rounds would trip `run_lifetime`'s assert; the handler must
    // answer `bad_request`, not a caught panic (`internal`).
    let light = scenario_json(9, 5);
    let lines = vec![
        format!(r#"{{"id":1,"cmd":"lifetime","scenario":{light},"rounds":0}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (responses, summary) = run_server(&lines, 1, 8);
    assert_eq!(error_kind(&response_with_id(&responses, 1)), "bad_request");
    assert_eq!(summary.panics, 0, "validation must fire before the assert");
    assert_eq!(summary.bad_request, 1);
}

#[test]
fn replay_and_lifetime_bound_their_loops() {
    use ccs_serve::handlers::{MAX_LIFETIME_ROUNDS, MAX_RECOVER};
    // A running solve cannot be stopped, so the loop counts are input
    // bounds: one body must not be able to hold a worker for hours.
    let light = scenario_json(9, 5);
    let recover = MAX_RECOVER + 1;
    let rounds = MAX_LIFETIME_ROUNDS + 1;
    let lines = vec![
        format!(
            r#"{{"id":1,"cmd":"replay","scenario":{light},"breakdown":1,"recover":{recover}}}"#
        ),
        format!(
            r#"{{"id":2,"cmd":"lifetime","scenario":{light},"breakdown":1,"recover":{recover}}}"#
        ),
        format!(r#"{{"id":3,"cmd":"lifetime","scenario":{light},"rounds":{rounds}}}"#),
        // At the bound the loop runs every round it was given.
        format!(
            r#"{{"id":4,"cmd":"replay","scenario":{light},"breakdown":1,"recover":{MAX_RECOVER},"degrade":false}}"#
        ),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let (responses, summary) = run_server(&lines, 1, 8);
    for (id, needle) in [
        (1, "recover must be <= 32"),
        (2, "recover must be <= 32"),
        (3, "rounds must be <= 1000"),
    ] {
        let response = response_with_id(&responses, id);
        assert_eq!(error_kind(&response), "bad_request");
        let Value::String(message) = response.field("error").field("message") else {
            panic!("bad_request carries no message");
        };
        assert!(message.contains(needle), "{id}: {message}");
    }
    let at_bound = response_with_id(&responses, 4);
    let Value::Number(extra) = at_bound
        .field("result")
        .field("recovery")
        .field("extra_rounds")
    else {
        panic!("no recovery section: {at_bound:?}");
    };
    assert_eq!(extra.as_f64(), MAX_RECOVER as f64);
    assert_eq!(summary.panics, 0);
    assert_eq!(summary.bad_request, 3);
}

#[test]
fn unix_socket_serves_and_drains() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    let socket = std::env::temp_dir().join(format!("ccs-serve-test-{}.sock", std::process::id()));
    let socket = socket.to_string_lossy().into_owned();
    let config = ServeConfig {
        workers: 1,
        queue_depth: 4,
        stats_every: None,
        ..ServeConfig::default()
    };
    let summary = std::thread::scope(|scope| {
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
        writeln!(writer, r#"{{"id":1,"cmd":"ping"}}"#).expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line.trim(), r#"{"id":1,"ok":true,"result":{"pong":true}}"#);

        writeln!(writer, r#"{{"cmd":"shutdown"}}"#).expect("write");
        daemon.join().expect("daemon thread").expect("daemon bind")
    });
    assert_eq!(summary.completed, 1);
    assert!(
        !std::path::Path::new(&socket).exists(),
        "socket file removed"
    );
}

/// The line-cap regression (ISSUE 8): a request line past
/// `max_line_bytes` is answered with `bad_request` instead of being
/// buffered without bound, and the connection resynchronizes — the next
/// request on the same stream is served normally.
#[test]
fn oversized_request_line_is_rejected_and_the_stream_resyncs() {
    let scenario = scenario_json(11, 6);
    let huge = format!(
        r#"{{"id":1,"cmd":"plan","scenario":{scenario},"pad":"{}"}}"#,
        "x".repeat(8192)
    );
    let lines = [
        huge,
        format!(r#"{{"id":2,"cmd":"plan","scenario":{scenario}}}"#),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let input = std::io::Cursor::new(lines.join("\n").into_bytes());
    let out = SharedBuf::default();
    let config = ServeConfig {
        workers: 1,
        queue_depth: 8,
        stats_every: None,
        max_line_bytes: 4096,
        ..ServeConfig::default()
    };
    let summary = serve_connection(input, Box::new(out.clone()), &config);
    let bytes = out.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("responses are UTF-8");
    let responses: Vec<String> = text.lines().map(str::to_string).collect();

    // The oversized line's response has a null id (the line was never
    // parsed), kind bad_request, and a message naming the cap.
    let rejected = responses
        .iter()
        .map(|l| serde_json::from_str::<Value>(l).expect("response parses"))
        .find(|v| v.field("id") == &Value::Null && v.field("ok") == &Value::Bool(false))
        .expect("the oversized line was answered");
    assert_eq!(error_kind(&rejected), "bad_request");
    let Value::String(message) = rejected.field("error").field("message") else {
        panic!("error.message missing: {rejected:?}");
    };
    assert!(message.contains("4096-byte cap"), "{message}");

    // The stream resynchronized: the follow-up plan was served.
    let plan = response_with_id(&responses, 2);
    assert_eq!(plan.field("ok"), &Value::Bool(true));
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.bad_request, 1);
}

/// The drain does not wait for idle clients: after a `shutdown` from one
/// connection, `serve_unix` returns in well under a second while another
/// client sits idle, and a request admitted before the drain still gets
/// its response.
#[test]
fn unix_drain_does_not_wait_for_idle_clients() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    let socket = std::env::temp_dir().join(format!("ccs-drain-test-{}.sock", std::process::id()));
    let socket = socket.to_string_lossy().into_owned();
    let config = ServeConfig {
        workers: 1,
        stats_every: None,
        ..ServeConfig::default()
    };
    std::thread::scope(|scope| {
        let daemon = {
            let (socket, config) = (socket.clone(), config.clone());
            scope.spawn(move || serve_unix(&socket, &config))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !std::path::Path::new(&socket).exists() {
            assert!(Instant::now() < deadline, "socket never appeared");
            std::thread::sleep(Duration::from_millis(5));
        }
        let idle = UnixStream::connect(&socket).expect("connect idle client");
        let mut busy = UnixStream::connect(&socket).expect("connect busy client");
        let scenario = scenario_json(12, 10);
        writeln!(busy, r#"{{"id":1,"cmd":"plan","scenario":{scenario}}}"#).expect("write");

        // Shut down from a third connection once the plan is admitted.
        let control = UnixStream::connect(&socket).expect("connect control client");
        let mut reader = BufReader::new(control.try_clone().expect("clone"));
        let mut control = control;
        loop {
            writeln!(control, r#"{{"cmd":"stats"}}"#).expect("write");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            let stats: Value = serde_json::from_str(&line).expect("stats parses");
            if stats.field("result").field("requests").field("admitted")
                == &Value::Number(serde::value::Number::PosInt(1))
            {
                break;
            }
            assert!(Instant::now() < deadline, "plan never admitted");
            std::thread::sleep(Duration::from_millis(2));
        }
        let started = Instant::now();
        writeln!(control, r#"{{"cmd":"shutdown"}}"#).expect("write");
        let mut busy_reader = BufReader::new(busy.try_clone().expect("clone"));
        let mut response = String::new();
        busy_reader.read_line(&mut response).expect("read");
        let response: Value = serde_json::from_str(&response).expect("response parses");
        assert!(response_ok(&response), "admitted work is answered");

        // Both clients stay open. A watchdog closes them after 5 s at most,
        // so a drain that waits for them fails the timing assertion below
        // instead of hanging.
        let (done, watchdog) = std::sync::mpsc::channel::<()>();
        scope.spawn(move || {
            let _ = watchdog.recv_timeout(Duration::from_secs(5));
            drop((idle, busy, busy_reader));
        });
        daemon.join().expect("daemon thread").expect("daemon bind");
        let took = started.elapsed();
        drop(done);
        assert!(took < Duration::from_millis(900), "drain took {took:?}");
    });
}
