//! Integration tests of the `ccs` command-line binary: gen → plan →
//! replay → lifetime, end to end through real process invocations.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ccs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccs"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ccs_cli_test_{}_{name}", std::process::id()));
    p
}

/// Writes a copy of the scenario file `src` to the temp file `name`, with
/// `field` of the first entity in `list` (`devices` or `chargers`) set to
/// `value`.
fn edited_scenario(src: &str, name: &str, list: &str, field: &str, value: f64) -> PathBuf {
    use serde_json::{Number, Value};
    let mut json: Value = serde_json::from_str(&std::fs::read_to_string(src).unwrap()).unwrap();
    let Value::Object(top) = &mut json else {
        panic!("a scenario is a JSON object")
    };
    let Some(Value::Array(entities)) = top.get_mut(list) else {
        panic!("a scenario lists its {list}")
    };
    let Some(Value::Object(first)) = entities.first_mut() else {
        panic!("the scenario has {list}")
    };
    first.insert(field.to_string(), Value::Number(Number::Float(value)));
    let path = temp_path(name);
    std::fs::write(&path, serde_json::to_string(&json).unwrap()).unwrap();
    path
}

#[test]
fn gen_plan_replay_lifetime_pipeline() {
    let scenario = temp_path("scenario.json");
    let schedule = temp_path("schedule.json");
    let scenario_str = scenario.to_str().unwrap();
    let schedule_str = schedule.to_str().unwrap();

    // gen
    let out = ccs(&[
        "gen",
        "--seed",
        "7",
        "--devices",
        "10",
        "--chargers",
        "3",
        "-o",
        scenario_str,
    ]);
    assert!(out.status.success(), "gen failed: {out:?}");
    let json = std::fs::read_to_string(&scenario).unwrap();
    let parsed: ccs_wrsn::scenario::Scenario = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed.devices().len(), 10);

    // plan (every algorithm)
    for algo in ["ccsa", "ccsga", "ncp", "opt"] {
        let out = ccs(&[
            "plan",
            "--scenario",
            scenario_str,
            "--algo",
            algo,
            "-o",
            schedule_str,
        ]);
        assert!(out.status.success(), "plan --algo {algo} failed: {out:?}");
        // Human-readable results belong on stdout; stderr is reserved for
        // errors and diagnostics.
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("schedule"), "{algo}: {stdout}");
        let schedule_json = std::fs::read_to_string(&schedule).unwrap();
        assert!(schedule_json.contains("groups"), "{algo} wrote a schedule");
    }

    // replay
    let out = ccs(&[
        "replay",
        "--scenario",
        scenario_str,
        "--noise",
        "ideal",
        "--seed",
        "1",
    ]);
    assert!(out.status.success(), "replay failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("served 10/10 devices"), "{stdout}");

    // replay with failures serves fewer
    let out = ccs(&[
        "replay",
        "--scenario",
        scenario_str,
        "--noshow",
        "1.0",
        "--seed",
        "1",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("served 0/10 devices"), "{stdout}");

    // replay with recovery closes the loop: every no-show is re-planned
    // until the degraded round serves it.
    let out = ccs(&[
        "replay",
        "--scenario",
        scenario_str,
        "--noshow",
        "1.0",
        "--seed",
        "1",
        "--recover",
        "2",
    ]);
    assert!(out.status.success(), "replay --recover failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("recovered: served 100%"), "{stdout}");
    assert!(stdout.contains("degraded to solo dispatches"), "{stdout}");

    // lifetime
    let out = ccs(&[
        "lifetime",
        "--scenario",
        scenario_str,
        "--rounds",
        "5",
        "--policy",
        "ccsga",
    ]);
    assert!(out.status.success(), "lifetime failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("over 5 rounds"), "{stdout}");
    assert!(
        !stdout.contains("testbed delivery"),
        "planner-faithful lifetime must not claim testbed delivery: {stdout}"
    );

    // lifetime on the testbed: failure flags are honoured (the help used to
    // advertise them while cmd_lifetime silently ignored them).
    let out = ccs(&[
        "lifetime",
        "--scenario",
        scenario_str,
        "--rounds",
        "5",
        "--breakdown",
        "0.5",
        "--noshow",
        "0.2",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "faulty lifetime failed: {out:?}");
    let faulty = String::from_utf8_lossy(&out.stdout);
    assert!(
        faulty.contains("refill request(s) went unserved"),
        "{faulty}"
    );

    // ... and --recover drives unserved requests back to zero.
    let out = ccs(&[
        "lifetime",
        "--scenario",
        scenario_str,
        "--rounds",
        "5",
        "--breakdown",
        "0.5",
        "--noshow",
        "0.2",
        "--seed",
        "3",
        "--recover",
        "3",
    ]);
    assert!(out.status.success(), "recovering lifetime failed: {out:?}");
    let recovered = String::from_utf8_lossy(&out.stdout);
    assert!(
        recovered.contains("0 refill request(s) went unserved"),
        "{recovered}"
    );

    let _ = std::fs::remove_file(&scenario);
    let _ = std::fs::remove_file(&schedule);
}

/// Seeded runs keep their exact bytes: stdout, the `ccsga:` stderr line
/// and the `-o` schedule file. The expected bytes were captured from the
/// CLI once the gathering kernel returned anchor optima exactly (Kuhn's
/// test); the daemon's command layer reproduced the bytes of the direct
/// solver calls it replaced.
#[test]
fn seeded_runs_keep_their_exact_bytes() {
    let scenario = temp_path("pinned_scenario.json");
    let schedule = temp_path("pinned_schedule.json");
    let (sc, sched) = (scenario.to_str().unwrap(), schedule.to_str().unwrap());
    let gen = ["gen", "--seed", "7", "--devices", "12", "--chargers", "4"];
    assert!(ccs(&[&gen[..], &["-o", sc]].concat()).status.success());

    let out = ccs(&["plan", "--scenario", sc, "--algo", "ccsga", "-o", sched]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!(
            "ccsga schedule (equal sharing), 2 groups, total cost 284.70\n  \
             group 0: charger c1 at (120.15, 232.30) members [d0 d3 d4 d6 d7 d11] bill 111.21\n  \
             group 1: charger c0 at (128.72, 55.54) members [d1 d2 d5 d8 d9 d10] bill 127.29\n\n\
             wrote schedule to {sched}\n"
        )
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "ccsga: 13 switches, 3 rounds, Nash-stable: true\n"
    );
    assert_eq!(
        std::fs::read_to_string(&schedule).unwrap(),
        include_str!("golden/ccsga_schedule.json")
    );

    let cases: [(&[&str], &str); 5] = [
        (
            &["plan", "--algo", "opt"],
            "opt schedule (equal sharing), 2 groups, total cost 284.70\n  \
             group 0: charger c0 at (128.72, 55.54) members [d1 d2 d5 d8 d9 d10] bill 127.29\n  \
             group 1: charger c1 at (120.15, 232.30) members [d0 d3 d4 d6 d7 d11] bill 111.21\n\n",
        ),
        (
            &["replay", "--breakdown", "0.3", "--noshow", "0.2", "--recover", "2", "--seed", "4"],
            "planned 284.70 $, realized 180.47 $, served 5/12 devices, makespan 1944.2 s, \
             mean wait 750.6 s\n  \
             recovery round 1: 7 device(s) re-planned, 5 now served\n  \
             recovery round 2: 2 device(s) re-planned, 1 now served\n  \
             recovery round 3: 1 device(s) re-planned (degraded to solo dispatches), 1 now served\n\
             recovered: served 100% of devices in 3 extra round(s), total 383.98 $\n",
        ),
        // Nobody served: the mean wait prints as zero.
        (
            &["replay", "--breakdown", "1", "--seed", "4"],
            "planned 284.70 $, realized 57.07 $, served 0/12 devices, makespan 152.1 s, \
             mean wait 0.0 s\n",
        ),
        (
            &["replay", "--noshow", "1", "--recover", "1", "--seed", "4"],
            "planned 284.70 $, realized 91.92 $, served 0/12 devices, makespan 147.4 s, \
             mean wait 0.0 s\n  \
             recovery round 1: 12 device(s) re-planned, 0 now served\n  \
             recovery round 2: 12 device(s) re-planned (degraded to solo dispatches), 12 now served\n\
             recovered: served 100% of devices in 2 extra round(s), total 702.62 $\n",
        ),
        (
            &["lifetime", "--breakdown", "0.2", "--recover", "1", "--rounds", "6", "--seed", "4"],
            "ccsa over 6 rounds: OPEX 548.16 $, 5 hires, 79.1 kJ purchased, survival 100.0%\n  \
             testbed delivery: 0 refill request(s) went unserved\n",
        ),
    ];
    for (args, expected) in cases {
        let out = ccs(&[&args[..1], &["--scenario", sc], &args[1..]].concat());
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}: {out:?}");
    }

    let _ = std::fs::remove_file(&scenario);
    let _ = std::fs::remove_file(&schedule);
}

#[test]
fn zero_device_scenarios_plan_and_stream_nothing() {
    let scenario = temp_path("zero_devices.json");
    let sc = scenario.to_str().unwrap();
    assert!(ccs(&["gen", "--devices", "3", "--chargers", "2", "-o", sc])
        .status
        .success());
    let mut json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&scenario).unwrap()).unwrap();
    if let serde_json::Value::Object(fields) = &mut json {
        fields.insert("devices".to_string(), serde_json::Value::Array(Vec::new()));
    }
    std::fs::write(&scenario, serde_json::to_string(&json).unwrap()).unwrap();

    // An empty sum is +0.0, so the total prints without a sign.
    for algo in ["ccsa", "ccsga", "ncp", "opt"] {
        let out = ccs(&["plan", "--scenario", sc, "--algo", algo]);
        assert!(out.status.success(), "{algo}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            format!("{algo} schedule (equal sharing), 0 groups, total cost 0.00\n\n")
        );
    }

    // The daemon answers the same CCSGA plan `ok`, with no dynamics run.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_ccs"))
        .args(["serve", "--workers", "1", "--stats-every", "0"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    std::io::Write::write_all(
        &mut daemon.stdin.take().expect("stdin"),
        format!(
            "{{\"id\":1,\"cmd\":\"plan\",\"scenario_path\":\"{sc}\",\"algo\":\"ccsga\"}}\n\
             {{\"cmd\":\"shutdown\"}}\n"
        )
        .as_bytes(),
    )
    .expect("requests written");
    let out = daemon.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let plan = stdout
        .lines()
        .find(|l| l.contains("\"id\":1"))
        .expect("plan response present");
    assert!(
        plan.contains("\"ok\":true")
            && plan.contains("\"groups\":0")
            && plan.contains("\"switches\":0")
            && plan.contains("\"nash_stable\":true"),
        "{plan}"
    );

    // A fleet of no devices requests nothing.
    let out = ccs(&["online", "--scenario", sc]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).starts_with("online ccsga: 0 arrival(s), 0 served"),
        "{out:?}"
    );

    let _ = std::fs::remove_file(&scenario);
}

#[test]
fn bad_input_yields_clean_errors() {
    // Unknown command.
    let out = ccs(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing scenario file.
    let out = ccs(&["plan", "--scenario", "/nonexistent/file.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("reading"));

    // Bad algorithm name.
    let scenario = temp_path("err_scenario.json");
    let scenario_str = scenario.to_str().unwrap();
    assert!(ccs(&[
        "gen",
        "--devices",
        "4",
        "--chargers",
        "2",
        "-o",
        scenario_str
    ])
    .status
    .success());
    let out = ccs(&["plan", "--scenario", scenario_str, "--algo", "nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));

    // Flag without a value.
    let out = ccs(&["gen", "--seed"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));

    let _ = std::fs::remove_file(&scenario);
}

#[test]
fn malformed_flags_fail_with_one_line_errors() {
    let scenario = temp_path("badflag_scenario.json");
    let scenario_str = scenario.to_str().unwrap();
    assert!(ccs(&[
        "gen",
        "--devices",
        "4",
        "--chargers",
        "2",
        "-o",
        scenario_str
    ])
    .status
    .success());

    // Non-numeric or out-of-range values: clean error, exit 1, no panic,
    // regardless of which command or flag carries the typo.
    let online = |flag, value| vec!["online", "--scenario", scenario_str, flag, value];
    for (args, needle) in [
        (
            vec!["plan", "--scenario", scenario_str, "--threads", "abc"],
            "invalid value 'abc' for --threads",
        ),
        (
            vec!["lifetime", "--scenario", scenario_str, "--seed", "1.5x"],
            "invalid value '1.5x' for --seed",
        ),
        (
            vec!["gen", "--devices", "-3"],
            "invalid value '-3' for --devices",
        ),
        (vec!["gen", "--devices", "0"], "need at least one device"),
        (vec!["gen", "--chargers", "0"], "need at least one charger"),
        (vec!["gen", "--field", "-5"], "rect min must be <= max"),
        (vec!["gen", "--field", "nan"], "rect corners must be finite"),
        (vec!["gen", "--field", "inf"], "rect corners must be finite"),
        (
            vec!["replay", "--scenario", scenario_str, "--noshow", "lots"],
            "invalid value 'lots' for --noshow",
        ),
        (
            vec!["serve", "--queue-depth", "deep"],
            "invalid value 'deep' for --queue-depth",
        ),
        (
            vec!["replay", "--scenario", scenario_str, "--breakdown", "1.5"],
            "field 'breakdown' must be a probability in [0, 1], got 1.5",
        ),
        (
            vec!["lifetime", "--scenario", scenario_str, "--rounds", "0"],
            "rounds must be >= 1",
        ),
        (
            vec![
                "lifetime",
                "--scenario",
                scenario_str,
                "--rounds",
                "100000000",
            ],
            "rounds must be <= 1000",
        ),
        (
            vec![
                "replay",
                "--scenario",
                scenario_str,
                "--breakdown",
                "1",
                "--recover",
                "1000000000",
                "--degrade",
                "false",
            ],
            "recover must be <= 32",
        ),
        (
            vec!["lifetime", "--scenario", scenario_str, "--breakdown", "2"],
            "field 'breakdown' must be a probability in [0, 1], got 2",
        ),
        (online("--rate", "0"), "rate must be positive"),
        (online("--rate", "nan"), "rate must be positive"),
        (online("--horizon", "0"), "horizon must be positive"),
        (online("--slack", "-1"), "slack must be positive"),
        (
            online("--battery-cap", "-5"),
            "battery capacity must be positive",
        ),
        (online("--ecr-move", "-1"), "ecr_move must be nonnegative"),
        (online("--ecr-charge", "0.5"), "ecr_charge must be >= 1"),
    ] {
        let out = ccs(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail cleanly");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(
            stderr.lines().count(),
            1,
            "{args:?}: flag errors are one line, got: {stderr}"
        );
    }

    // Scenario files skip the entity builders, so both commands that read
    // one check every entity's invariants before planning.
    let mut hostile = Vec::new();
    for (list, field, value, needle) in [
        (
            "chargers",
            "energy_price",
            -3.0,
            "c0: energy price must be finite and nonnegative",
        ),
        (
            "chargers",
            "travel_cost_rate",
            -0.5,
            "c0: travel cost rate must be finite and nonnegative",
        ),
        (
            "devices",
            "move_cost_rate",
            -1.0,
            "d0: move cost rate must be finite and nonnegative",
        ),
        (
            "devices",
            "speed",
            0.0,
            "d0: speed must be finite and positive",
        ),
        (
            "devices",
            "demand",
            -50.0,
            "d0: demand must be finite and nonnegative",
        ),
    ] {
        let path = edited_scenario(
            scenario_str,
            &format!("hostile_{field}.json"),
            list,
            field,
            value,
        );
        let path_str = path.to_str().unwrap().to_string();
        for command in ["plan", "online"] {
            let out = ccs(&[command, "--scenario", &path_str]);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{command} with {field} = {value}"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(needle), "{command}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{command}: {stderr}");
        }
        hostile.push(path);
    }
    for path in hostile {
        let _ = std::fs::remove_file(path);
    }

    let _ = std::fs::remove_file(&scenario);

    // Unknown flags are rejected per command instead of silently ignored.
    let out = ccs(&["plan", "--scenario", "x.json", "--sede", "9"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag '--sede' for 'ccs plan'"),
        "{stderr}"
    );

    // ... including flags that exist on *other* commands.
    let out = ccs(&["gen", "--policy", "ccsa"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag '--policy'"));
}

#[test]
fn serve_pipes_jsonl_and_matches_one_shot_plan() {
    use std::io::Write;
    use std::process::Stdio;

    let scenario = temp_path("serve_scenario.json");
    let scenario_str = scenario.to_str().unwrap();
    assert!(ccs(&[
        "gen",
        "--seed",
        "21",
        "--devices",
        "8",
        "--chargers",
        "3",
        "-o",
        scenario_str
    ])
    .status
    .success());

    // One-shot plan: the reference bytes.
    let one_shot = ccs(&["plan", "--scenario", scenario_str]);
    assert!(one_shot.status.success());
    let one_shot_stdout = String::from_utf8_lossy(&one_shot.stdout).into_owned();

    // The same plan through the daemon, twice (the second is a cache hit),
    // plus a poison line mid-batch.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_ccs"))
        .args(["serve", "--workers", "1", "--stats-every", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut stdin = daemon.stdin.take().expect("stdin");
    writeln!(
        stdin,
        "{{\"id\":1,\"cmd\":\"plan\",\"scenario_path\":\"{scenario_str}\"}}\n\
         not json at all\n\
         {{\"id\":2,\"cmd\":\"plan\",\"scenario_path\":\"{scenario_str}\"}}\n\
         {{\"cmd\":\"shutdown\"}}"
    )
    .expect("requests written");
    drop(stdin);
    let out = daemon.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "daemon must exit 0 after a drain even with poison in the batch: {out:?}"
    );

    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    assert_eq!(
        lines.iter().filter(|l| l.contains("\"ok\":false")).count(),
        1,
        "exactly the poison line errors: {stdout}"
    );

    // Byte-identity: the served text field equals one-shot stdout (which
    // carries one extra trailing newline from println!).
    let plan_line = lines
        .iter()
        .find(|l| l.contains("\"id\":1") && l.contains("\"ok\":true"))
        .expect("plan response present");
    let response: serde_json::Value = serde_json::from_str(plan_line).unwrap();
    let serde_json::Value::String(text) = response.field("result").field("text") else {
        panic!("no text field in {plan_line}");
    };
    assert_eq!(
        format!("{text}\n"),
        one_shot_stdout,
        "served plan must be byte-identical to one-shot `ccs plan` stdout"
    );

    // Identical requests produce identical responses modulo id.
    let second = lines
        .iter()
        .find(|l| l.contains("\"id\":2") && l.contains("\"ok\":true"))
        .expect("second plan response present");
    assert_eq!(
        plan_line.replace("\"id\":1", "\"id\":2"),
        **second,
        "cache hits are transparent"
    );

    let _ = std::fs::remove_file(&scenario);
}

#[test]
fn report_and_trace_flags_emit_telemetry_files() {
    let scenario = temp_path("telemetry_scenario.json");
    let report = temp_path("telemetry_report.json");
    let trace = temp_path("telemetry_trace.jsonl");
    let scenario_str = scenario.to_str().unwrap();

    assert!(ccs(&[
        "gen",
        "--seed",
        "1",
        "--devices",
        "8",
        "--chargers",
        "3",
        "-o",
        scenario_str
    ])
    .status
    .success());
    let out = ccs(&[
        "plan",
        "--scenario",
        scenario_str,
        "--algo",
        "ccsga",
        "--report",
        report.to_str().unwrap(),
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "plan with telemetry flags failed: {out:?}"
    );

    let report_json = std::fs::read_to_string(&report).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&report_json).unwrap();
    assert!(
        parsed.field("counters").as_object().is_some(),
        "report has counters"
    );
    // The process's peak resident set, where `/proc/self/status` has it.
    if cfg!(target_os = "linux") {
        match parsed.field("gauges").field("peak_rss_mb") {
            serde_json::Value::Number(mb) => assert!(mb.as_f64() > 0.0, "peak_rss_mb {mb:?}"),
            other => panic!("peak_rss_mb gauge missing: {other:?}"),
        }
    }

    // The trace is JSON Lines: every line parses on its own and names its
    // event kind.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(!trace_text.trim().is_empty(), "trace must contain events");
    for line in trace_text.lines() {
        let ev: serde_json::Value = serde_json::from_str(line).unwrap();
        assert!(
            matches!(ev.field("event"), serde_json::Value::String(_)),
            "bad trace line: {line}"
        );
    }

    let _ = std::fs::remove_file(&scenario);
    let _ = std::fs::remove_file(&report);
    let _ = std::fs::remove_file(&trace);
}

/// At fields of `1e100` and `1e200` bills reach that magnitude, and a share
/// sum one ulp off its bill is rounding, not imbalance: these scenarios plan
/// and validate under every algorithm and sharing scheme.
#[test]
fn huge_fields_plan_under_every_algorithm_and_scheme() {
    let scenario = temp_path("huge_field.json");
    let path = scenario.to_str().unwrap();
    for (seed, field) in [
        ("5", "1e100"),
        ("9", "1e100"),
        ("10", "1e100"),
        ("11", "1e100"),
        ("12", "1e200"),
    ] {
        let gen = [
            "gen",
            "--seed",
            seed,
            "--devices",
            "8",
            "--chargers",
            "3",
            "--field",
            field,
            "-o",
            path,
        ];
        assert!(ccs(&gen).status.success());
        for algo in ["ccsa", "ccsga", "ncp", "opt"] {
            for sharing in ["equal", "proportional", "shapley"] {
                let out = ccs(&[
                    "plan",
                    "--scenario",
                    path,
                    "--algo",
                    algo,
                    "--sharing",
                    sharing,
                ]);
                assert!(
                    out.status.success(),
                    "seed {seed}, field {field}, {algo}/{sharing}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
            }
        }
    }
    let _ = std::fs::remove_file(&scenario);
}

/// `--report` counts the gathering kernel: every memo miss runs exactly one
/// Weiszfeld solve (neither a CCSGA nor a CCSA plan makes an unmemoized
/// one), every solve that Kuhn's test does not settle at an anchor runs at
/// least one iteration, and on a 40-device, 6-charger instance some solves
/// stop at an anchor and some lose to an incumbent charger and are
/// abandoned.
#[test]
fn report_counts_the_gathering_kernel() {
    let scenario = temp_path("kernel_scenario.json");
    let report = temp_path("kernel_report.json");
    let scenario_str = scenario.to_str().unwrap();
    let gen = [
        "gen",
        "--seed",
        "3",
        "--devices",
        "40",
        "--chargers",
        "6",
        "-o",
        scenario_str,
    ];
    assert!(ccs(&gen).status.success());
    for algo in ["ccsga", "ccsa"] {
        let out = ccs(&[
            "plan",
            "--scenario",
            scenario_str,
            "--algo",
            algo,
            "--report",
            report.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{out:?}");
        let parsed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let counter = |name: &str| match parsed.field("counters").field(name) {
            serde_json::Value::Number(n) => n.as_f64() as u64,
            other => panic!("{algo}: counter {name} missing: {other:?}"),
        };
        let solves = counter("gathering.solves");
        assert_eq!(solves, counter("tables.gather_misses"), "{algo}");
        assert!(counter("gathering.abandoned") > 0, "{algo}");
        assert!(counter("gathering.anchor") > 0, "{algo}");
        assert!(
            counter("gathering.iterations") + counter("gathering.anchor") >= solves,
            "{algo}"
        );
    }

    let _ = std::fs::remove_file(&scenario);
    let _ = std::fs::remove_file(&report);
}

#[test]
fn help_lists_all_commands() {
    let out = ccs(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["gen", "plan", "replay", "lifetime", "serve"] {
        assert!(text.contains(cmd), "help must mention {cmd}");
    }
    for flag in ["--breakdown", "--noshow", "--recover", "--degrade"] {
        assert!(text.contains(flag), "help must mention {flag}");
    }
}
