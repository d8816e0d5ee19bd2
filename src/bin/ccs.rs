//! `ccs` — command-line front end of the CCS reproduction stack.
//!
//! ```text
//! ccs gen  --seed 1 --devices 20 --chargers 5 [--field 300] -o scenario.json
//! ccs plan --scenario scenario.json [--algo ccsa|ccsga|ncp|opt]
//!          [--sharing equal|proportional|shapley] [-o schedule.json]
//! ccs replay --scenario scenario.json [--noise ideal|field]
//!            [--breakdown P] [--noshow P] [--seed S]
//!            [--recover R] [--degrade true|false]
//! ccs lifetime --scenario scenario.json [--rounds R] [--policy ccsa|ccsga|ncp]
//!              [--noise ideal|field] [--breakdown P] [--noshow P]
//!              [--recover R] [--degrade true|false]
//! ccs online --scenario scenario.json [--policy ccsga|fcfs] [--sharing S]
//!            [--rate R] [--horizon S] [--slack S]
//!            [--profile poisson|hotspot|burst] [--stream-seed N]
//!            [--battery-cap J] [--ecr-move JPM] [--ecr-charge R] [--json true]
//! ccs serve  [--socket PATH] [--workers N] [--queue-depth N] [--stats-every S]
//!            [--metrics-file FILE] [--trace-requests FILE] [--trace-max-bytes N]
//!            [--slow-ms MS] [--max-line-bytes N] [--cache-mb MB]
//! ccs gateway [--addr HOST:PORT] [--shards N] [--workers-per-shard N]
//!             [--queue-depth N] [--max-body-mb MB] [--batch-max N]
//!             [--cache-mb MB] [--rate R] [--burst B] [--tenants-file FILE]
//!             [--admin-token TOK] [--max-tenants N] [--idle-secs S]
//! ccs stats  --socket PATH [--json true]
//! ```
//!
//! Scenarios are plain JSON (the `ccs-wrsn` serde format), so workloads can
//! be generated once and replayed across machines and algorithms. `plan`,
//! `replay` and `lifetime` run in process as requests to the daemon's
//! command layer (`ccs_serve::engine`) and share its names, defaults and
//! validation.
//!
//! `plan`, `replay`, and `lifetime` additionally accept `--report FILE`
//! (write a `ccs-telemetry` [`RunReport`](ccs_repro::ccs_telemetry::RunReport)
//! snapshot as JSON) and `--trace-json FILE` (stream telemetry events as
//! JSONL while the run executes). Either flag enables the otherwise-dormant
//! global telemetry registry.
//!
//! Every command accepts `--threads N` to pin the worker count of the
//! deterministic parallel evaluation layer (`ccs-par`); `CCS_THREADS` is
//! the environment equivalent. Schedules are bit-identical at any setting.
//!
//! Human-readable results go to stdout; stderr carries errors and
//! diagnostics only.

use ccs_repro::prelude::*;
use serde_json::{Number, Value};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = parse_flags(rest)
        .and_then(|opts| {
            validate_flags(command, &opts)?;
            Ok(opts)
        })
        .and_then(|opts| {
            // Global knob: worker threads for the parallel evaluation
            // batches (default: CCS_THREADS env, then available
            // parallelism; results are deterministic at any setting, `1`
            // forces the exact serial path).
            let n: usize = get(&opts, "threads", 0)?;
            if n > 0 {
                ccs_repro::ccs_par::set_threads(n);
            }
            match command.as_str() {
                "gen" => cmd_gen(&opts),
                "plan" | "replay" | "lifetime" => cmd_served(command, &opts),
                "online" => cmd_online(&opts),
                "serve" => cmd_serve(&opts),
                "gateway" => cmd_gateway(&opts),
                "stats" => cmd_stats(&opts),
                other => Err(format!("unknown command '{other}'")),
            }
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err} (run 'ccs help' for usage)");
            ExitCode::FAILURE
        }
    }
}

/// The flags each command understands (besides the global `--threads`).
/// Anything else is a hard error — a typo like `--sede` must not silently
/// fall back to a default.
fn validate_flags(command: &str, opts: &Flags) -> Result<(), String> {
    const TELEMETRY: [&str; 2] = ["report", "trace-json"];
    let allowed: &[&str] = match command {
        "gen" => &["seed", "devices", "chargers", "field", "o"],
        "plan" => &["scenario", "algo", "sharing", "o"],
        "replay" => &[
            "scenario",
            "sharing",
            "noise",
            "breakdown",
            "noshow",
            "seed",
            "recover",
            "degrade",
        ],
        "lifetime" => &[
            "scenario",
            "sharing",
            "rounds",
            "policy",
            "seed",
            "noise",
            "breakdown",
            "noshow",
            "recover",
            "degrade",
        ],
        "online" => &[
            "scenario",
            "policy",
            "sharing",
            "rate",
            "horizon",
            "slack",
            "profile",
            "stream-seed",
            "battery-cap",
            "ecr-move",
            "ecr-charge",
            "json",
        ],
        "serve" => &[
            "socket",
            "workers",
            "queue-depth",
            "stats-every",
            "metrics-file",
            "trace-requests",
            "trace-max-bytes",
            "slow-ms",
            "max-line-bytes",
            "cache-mb",
        ],
        "gateway" => &[
            "addr",
            "shards",
            "workers-per-shard",
            "queue-depth",
            "max-body-mb",
            "batch-max",
            "cache-mb",
            "rate",
            "burst",
            "tenants-file",
            "admin-token",
            "max-tenants",
            "idle-secs",
        ],
        "stats" => &["socket", "json"],
        // Unknown commands fail later with their own message; don't let a
        // flag complaint mask it.
        _ => return Ok(()),
    };
    let telemetry_ok = command != "gen";
    for key in opts.keys() {
        let known = key == "threads"
            || allowed.contains(&key.as_str())
            || (telemetry_ok && TELEMETRY.contains(&key.as_str()));
        if !known {
            return Err(format!("unknown flag '--{key}' for 'ccs {command}'"));
        }
    }
    Ok(())
}

const USAGE: &str = "\
usage: ccs <command> [flags]

commands:
  gen       generate a scenario        --seed N --devices N --chargers N [--field M] [-o FILE]
  plan      schedule a scenario        --scenario FILE [--algo ccsa|ccsga|ncp|opt] [--sharing S] [-o FILE]
  replay    execute on the testbed     --scenario FILE [--noise ideal|field] [--breakdown P] [--noshow P] [--seed N]
  lifetime  multi-round operation      --scenario FILE [--rounds N] [--policy ccsa|ccsga|ncp] [--seed N]
  online    streaming request service  --scenario FILE [--policy ccsga|fcfs] [--rate R] [--horizon S]
  serve     long-running JSONL daemon  [--socket PATH] [--workers N] [--queue-depth N] [--stats-every SECS]
  gateway   multi-tenant HTTP service  [--addr HOST:PORT] [--shards N] [--tenants-file FILE] [--rate R]
  stats     query a running daemon     --socket PATH [--json true]

service mode (serve):
  reads one JSON request per line from stdin (or connections on --socket),
  writes one JSON response per line; `{\"cmd\":\"shutdown\"}` or EOF drains
  in-flight work and exits. --workers 0 = auto, --stats-every 0 = silent.
  --max-line-bytes N caps one request line (default 4 MiB); --cache-mb MB
  caps the plan/scenario cache byte budget (default 256 MiB).

gateway mode (gateway):
  HTTP/1.1 on a TcpListener: POST /v1/plan (one daemon request body, the
  response body is byte-identical to the daemon's response line),
  POST /v1/batch ({\"requests\":[...]} grouped by scenario hash so each
  group amortizes one tables build), GET /v1/stats, GET /healthz, and
  POST /v1/shutdown (drain and exit; requires --admin-token or the
  tenants file's \"admin_token\" when set, else any configured bearer
  token — open only when no credentials are configured at all).
  Tenancy: `Authorization: Bearer` tokens map to named tenants via
  --tenants-file ({\"tenants\":[{\"name\",\"token\",\"rate\",\"burst\"}]},
  names reserved from X-Tenant); the X-Tenant header self-declares a
  tenant on the default tier (--rate/--burst, rate 0 = unlimited), and
  requests with neither header share the 'default' tenant on that same
  tier. Every tenant gets a private --cache-mb cache and its own token
  bucket. --shards 0 = auto; --max-tenants caps distinct tenants
  (default 256); --idle-secs drops silent keep-alive connections.

observability (serve):
  --stats-every S       period of the stats line on stderr (JSON snapshot)
  --metrics-file FILE   atomically rewrite FILE with Prometheus text metrics
                        every stats period and at drain
  --trace-requests FILE append one JSONL trace line per request (req_id,
                        phase breakdown, status); size-capped with rotation
  --trace-max-bytes N   active trace file cap before rotation (default 16 MiB)
  --slow-ms MS          count+log requests slower end-to-end than MS
  `{\"cmd\":\"stats\"}` returns the live snapshot; `ccs stats --socket PATH`
  pretty-prints it.

online mode (online):
  a seeded request stream (arrivals + deadlines) over the scenario's
  devices, served event-by-event with finite charger tanks and depot
  refills. --rate R requests/s over --horizon S seconds, each with
  --slack S seconds of deadline; --profile hotspot concentrates traffic
  on 20% of devices, --profile burst pulses the rate 8x every 60 s.
  --policy ccsga re-plans incrementally via the coalition game; fcfs is
  the first-come-first-served baseline. --json true prints the metrics
  as machine-readable JSON (used by CI).

failures and recovery (replay, lifetime):
  --breakdown P      probability a hired charger breaks down per leg
  --noshow P         probability a device turns around en route
  --recover R        closed-loop recovery: re-plan unserved devices up to
                     R extra rounds (0 = off, report losses only)
  --degrade BOOL     after R rounds, degrade stragglers to dedicated solo
                     dispatches so everyone is served (default true)

telemetry (plan, replay, lifetime):
  --report FILE      write a JSON RunReport (counters, timers, span timings)
  --trace-json FILE  stream telemetry events to FILE as JSON Lines

performance (all commands):
  --threads N        worker threads for parallel evaluation batches
                     (default: CCS_THREADS env, then available cores;
                     1 = exact serial path; results are identical at any N)";

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .or_else(|| flag.strip_prefix('-'))
            .ok_or_else(|| format!("expected a flag, got '{flag}'"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn parse<T: std::str::FromStr>(key: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("invalid value '{raw}' for --{key}"))
}

fn get<T: std::str::FromStr>(opts: &Flags, key: &str, default: T) -> Result<T, String> {
    opts.get(key).map_or(Ok(default), |raw| parse(key, raw))
}

fn load_scenario(opts: &Flags) -> Result<Scenario, String> {
    let path = opts
        .get("scenario")
        .ok_or("missing --scenario FILE".to_string())?;
    let json = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let scenario: Scenario =
        serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    scenario
        .validate()
        .map_err(|e| format!("{path}: invalid scenario: {e}"))?;
    Ok(scenario)
}

/// Arms the global telemetry registry when `--report` or `--trace-json` is
/// present. Returns the `--report` path so the command can snapshot at exit
/// via [`write_report`].
fn telemetry_setup(opts: &Flags) -> Result<Option<String>, String> {
    let report = opts.get("report").cloned();
    let trace = opts.get("trace-json");
    if report.is_none() && trace.is_none() {
        return Ok(None);
    }
    let registry = ccs_repro::ccs_telemetry::global();
    if let Some(path) = trace {
        let sink = ccs_repro::ccs_telemetry::sink::EventSink::create(path)
            .map_err(|e| format!("creating {path}: {e}"))?;
        registry.set_sink(sink);
    }
    registry.enable();
    Ok(report)
}

/// Writes the global registry's [`RunReport`](ccs_repro::ccs_telemetry::RunReport)
/// snapshot to `path` as pretty JSON, with the process's peak resident set
/// as the `peak_rss_mb` gauge where the platform reports it.
fn write_report(path: &str) -> Result<(), String> {
    let registry = ccs_repro::ccs_telemetry::global();
    if let Some(mb) = peak_rss_mb() {
        registry.gauge("peak_rss_mb").set(mb);
    }
    let report = registry.report();
    let json = report.to_json_pretty();
    fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote telemetry report to {path}");
    // The flat self-time profile, for eyes (stderr keeps stdout contracts
    // intact); the same rows are in the report's `profile` array.
    let table = report.profile_table();
    if !table.is_empty() {
        eprint!("self-time profile:\n{table}");
    }
    Ok(())
}

/// The process's peak resident set size (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn cmd_gen(opts: &Flags) -> Result<(), String> {
    let seed: u64 = get(opts, "seed", 0)?;
    let devices: usize = get(opts, "devices", 20)?;
    let chargers: usize = get(opts, "chargers", 5)?;
    let field: f64 = get(opts, "field", 300.0)?;
    let generator = ScenarioGenerator::new(seed)
        .devices(devices)
        .chargers(chargers)
        .field_side(field);
    generator.validate()?;
    let scenario = generator.generate();
    let json = serde_json::to_string_pretty(&scenario).map_err(|e| e.to_string())?;
    match opts.get("o") {
        Some(path) => {
            fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote scenario ({devices} devices, {chargers} chargers, seed {seed}) to {path}"
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// `ccs plan|replay|lifetime` — one request through the daemon's command
/// layer ([`execute`](ccs_repro::ccs_serve::engine::execute)); only its
/// `result` is rendered here.
fn cmd_served(command: &str, opts: &Flags) -> Result<(), String> {
    use ccs_repro::ccs_serve::{engine, PlanCache, ServeObs};
    let body = request_body(opts)?;
    let report_path = telemetry_setup(opts)?;
    let mut trace = ServeObs::new(None, None).start();
    let handled =
        engine::execute(&PlanCache::new(), command, &body, &mut trace).map_err(|e| e.message)?;
    let result = &handled.result;
    match command {
        "plan" => render_plan(result, opts)?,
        "replay" => render_replay(result),
        _ => render_lifetime(result),
    }
    if let Some(path) = report_path {
        write_report(&path)?;
    }
    Ok(())
}

/// The daemon request body the flags stand for: `--scenario` becomes
/// `scenario_path`, every other request flag keeps its name, and numbers are
/// parsed here so a typo names its flag. Absent flags take the daemon's
/// defaults.
fn request_body(opts: &Flags) -> Result<Value, String> {
    let path = opts.get("scenario").ok_or("missing --scenario FILE")?;
    let mut body = BTreeMap::from([("scenario_path".to_string(), Value::String(path.clone()))]);
    let mut flags: Vec<_> = opts.iter().collect();
    flags.sort();
    for (key, raw) in flags {
        let value = match key.as_str() {
            "algo" | "sharing" | "noise" | "policy" => Value::String(raw.clone()),
            "seed" | "rounds" | "recover" => Value::Number(Number::PosInt(parse(key, raw)?)),
            "breakdown" | "noshow" => Value::Number(Number::Float(parse(key, raw)?)),
            "degrade" => Value::Bool(parse(key, raw)?),
            // The CLI's own: --scenario, -o, --report, --trace-json, --threads.
            _ => continue,
        };
        body.insert(key.clone(), value);
    }
    Ok(Value::Object(body))
}

fn uint(v: &Value) -> u64 {
    match v {
        Value::Number(Number::PosInt(u)) => *u,
        _ => 0,
    }
}

/// A number field; `null` (e.g. the mean wait when nobody was served)
/// reads as zero.
fn float(v: &Value) -> f64 {
    match v {
        Value::Number(n) => n.as_f64(),
        _ => 0.0,
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        _ => "?",
    }
}

fn render_plan(plan: &Value, opts: &Flags) -> Result<(), String> {
    if let Value::Bool(stable) = plan.field("nash_stable") {
        eprintln!(
            "ccsga: {} switches, {} rounds, Nash-stable: {stable}",
            uint(plan.field("switches")),
            uint(plan.field("rounds")),
        );
    }
    println!("{}", text(plan.field("text")));
    if let Some(path) = opts.get("o") {
        let json =
            serde_json::to_string_pretty(plan.field("schedule")).map_err(|e| e.to_string())?;
        fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote schedule to {path}");
    }
    Ok(())
}

fn render_replay(replay: &Value) {
    println!(
        "planned {:.2} $, realized {:.2} $, served {}/{} devices, makespan {:.1} s, mean wait {:.1} s",
        float(replay.field("planned_cost")),
        float(replay.field("realized_cost")),
        uint(replay.field("served")),
        uint(replay.field("devices")),
        float(replay.field("makespan_s")),
        float(replay.field("mean_wait_s")),
    );
    let recovery = replay.field("recovery");
    let Value::Array(rounds) = recovery.field("rounds") else {
        return;
    };
    for round in rounds {
        println!(
            "  recovery round {}: {} device(s) re-planned{}, {} now served",
            uint(round.field("round")),
            uint(round.field("devices")),
            if round.field("degraded") == &Value::Bool(true) {
                " (degraded to solo dispatches)"
            } else {
                ""
            },
            uint(round.field("served")),
        );
    }
    println!(
        "recovered: served {:.0}% of devices in {} extra round(s), total {:.2} $",
        float(recovery.field("served_fraction")) * 100.0,
        uint(recovery.field("extra_rounds")),
        float(recovery.field("total_cost")),
    );
}

fn render_lifetime(lifetime: &Value) {
    println!(
        "{} over {} rounds: OPEX {:.2} $, {} hires, {:.1} kJ purchased, survival {:.1}%",
        text(lifetime.field("policy")),
        uint(lifetime.field("rounds")),
        float(lifetime.field("total_cost")),
        uint(lifetime.field("hires")),
        float(lifetime.field("energy_kj")),
        float(lifetime.field("survival_rate")) * 100.0,
    );
    // Rounds replay on the testbed when any failure, recovery or noise
    // flag was given; unserved devices re-request next round.
    if lifetime.field("testbed") == &Value::Bool(true) {
        println!(
            "  testbed delivery: {} refill request(s) went unserved",
            uint(lifetime.field("unserved_requests"))
        );
    }
}

/// `ccs online` — the event-driven online mode (see `ccs_core::online`):
/// replays a seeded arrival stream over the scenario's devices and prints
/// the service metrics.
fn cmd_online(opts: &Flags) -> Result<(), String> {
    use ccs_repro::ccs_serve::handlers::{online_policy, sharing_scheme};
    let report_path = telemetry_setup(opts)?;
    let scenario = load_scenario(opts)?;
    let sharing = sharing_scheme(opts.get("sharing").map_or("equal", String::as_str))
        .map_err(|e| e.message)?;
    let policy_name = opts.get("policy").map_or("ccsga", String::as_str);
    let policy = online_policy(policy_name).map_err(|e| e.message)?;
    let profile = match opts.get("profile").map(String::as_str).unwrap_or("poisson") {
        "poisson" => ArrivalProfile::Poisson,
        "hotspot" => ArrivalProfile::Hotspot {
            fraction: 0.2,
            share: 0.8,
        },
        "burst" => ArrivalProfile::Burst {
            period: 60.0,
            width: 10.0,
            factor: 8.0,
        },
        other => return Err(format!("unknown arrival profile '{other}'")),
    };
    let defaults = EnergyModel::default();
    let energy = EnergyModel {
        battery_cap: Joules::new(get(opts, "battery-cap", defaults.battery_cap.value())?),
        ecr_move: get(opts, "ecr-move", defaults.ecr_move)?,
        ecr_charge: get(opts, "ecr-charge", defaults.ecr_charge)?,
    };
    energy.validate()?;
    let arrivals = ArrivalGenerator::new(get(opts, "stream-seed", 0)?)
        .rate(get(opts, "rate", 0.2)?)
        .horizon(get(opts, "horizon", 200.0)?)
        .slack(get(opts, "slack", 600.0)?)
        .profile(profile);
    arrivals.validate()?;
    let stream = arrivals.generate(scenario.devices().len());
    let config = OnlineConfig { policy, energy };
    let problem = CcsProblem::new(scenario);
    let report = OnlineSim::new(problem, stream, sharing.as_ref(), config).run();
    let m = &report.metrics;
    if get(opts, "json", false)? {
        let json = serde_json::to_string_pretty(m).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        println!(
            "online {policy_name}: {} arrival(s), {} served, {} missed (miss rate {:.1}%)",
            m.arrivals,
            m.served,
            m.missed,
            m.miss_rate * 100.0,
        );
        println!(
            "  fleet: utilization {:.1}%, {} replan(s), {} depot cycle(s), makespan {:.1} s",
            m.charger_utilization * 100.0,
            m.replans,
            m.depot_cycles,
            m.makespan.value(),
        );
        println!(
            "  energy: {:.1} kJ delivered, {:.1} kJ consumed ({:.1} kJ per served request)",
            m.energy_delivered.value() / 1000.0,
            m.energy_consumed.value() / 1000.0,
            m.energy_per_served / 1000.0,
        );
    }
    if let Some(path) = report_path {
        write_report(&path)?;
    }
    Ok(())
}

/// `ccs serve` — the long-running daemon (see `ccs_serve` for the
/// protocol). Serves stdin→stdout, or a Unix socket with `--socket PATH`.
fn cmd_serve(opts: &Flags) -> Result<(), String> {
    use ccs_repro::ccs_serve::prelude::*;
    let report_path = telemetry_setup(opts)?;
    let stats_secs: u64 = get(opts, "stats-every", 10)?;
    let slow_ms: u64 = get(opts, "slow-ms", 0)?;
    let config = ServeConfig {
        workers: get(opts, "workers", 0)?,
        queue_depth: get(opts, "queue-depth", 64)?,
        stats_every: (stats_secs > 0).then(|| std::time::Duration::from_secs(stats_secs)),
        metrics_file: opts.get("metrics-file").cloned(),
        trace_requests: opts.get("trace-requests").cloned(),
        trace_max_bytes: get(opts, "trace-max-bytes", 16 << 20)?,
        slow_ms: (slow_ms > 0).then_some(slow_ms),
        max_line_bytes: get(opts, "max-line-bytes", 4usize << 20)?,
        cache_bytes: mb_to_bytes(get(
            opts,
            "cache-mb",
            ccs_repro::ccs_serve::DEFAULT_CACHE_BYTES >> 20,
        )?),
    };
    let summary = match opts.get("socket") {
        Some(path) => serve_unix(path, &config).map_err(|e| format!("socket {path}: {e}"))?,
        None => serve_stdio(&config),
    };
    // The daemon exits 0 after a drain even if individual requests failed:
    // every failure was answered in-band as a structured error response.
    let _ = summary;
    if let Some(path) = report_path {
        write_report(&path)?;
    }
    Ok(())
}

/// `--cache-mb` and `--max-body-mb` are declared in MiB (0 floors to 1).
fn mb_to_bytes(mb: usize) -> usize {
    mb.max(1).saturating_mul(1 << 20)
}

/// `ccs gateway` — the multi-tenant HTTP front end (see `ccs_gateway` for
/// the routes, the tenancy model, and the vendored HTTP/1.1 shim's scope).
fn cmd_gateway(opts: &Flags) -> Result<(), String> {
    use ccs_repro::ccs_gateway::prelude::*;
    let config = GatewayConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7077".to_string()),
        shards: get(opts, "shards", 0)?,
        workers_per_shard: get(opts, "workers-per-shard", 1)?,
        queue_depth: get(opts, "queue-depth", 64)?,
        max_body_bytes: mb_to_bytes(get(opts, "max-body-mb", 4)?),
        batch_max: get(opts, "batch-max", 64)?,
        cache_bytes: mb_to_bytes(get(opts, "cache-mb", 32)?),
        rate: get(opts, "rate", 0.0)?,
        burst: get(opts, "burst", 0.0)?,
        tenants_file: opts.get("tenants-file").cloned(),
        admin_token: opts.get("admin-token").cloned(),
        max_tenants: get(opts, "max-tenants", 256)?,
        idle_timeout: std::time::Duration::from_secs(get(opts, "idle-secs", 5)?),
    };
    // The drain summary line comes from `run_gateway_on` itself.
    let _summary = run_gateway(&config).map_err(|e| format!("gateway: {e}"))?;
    Ok(())
}

/// `ccs stats` — queries a running daemon's `{"cmd":"stats"}` snapshot
/// over its Unix socket and pretty-prints it (`--json true` for the raw
/// snapshot).
fn cmd_stats(opts: &Flags) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let socket = opts
        .get("socket")
        .ok_or("missing --socket PATH (the running daemon's socket)".to_string())?;
    let stream = UnixStream::connect(socket).map_err(|e| format!("connecting to {socket}: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?,
    );
    let mut writer = stream;
    writeln!(writer, r#"{{"id":"ccs-stats","cmd":"stats"}}"#)
        .map_err(|e| format!("sending stats request: {e}"))?;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("reading stats response: {e}"))?;
    let response: Value =
        serde_json::from_str(&line).map_err(|e| format!("parsing stats response: {e}"))?;
    if response.field("ok") != &Value::Bool(true) {
        return Err(format!("daemon returned an error: {}", line.trim()));
    }
    let snapshot = response.field("result");
    if get(opts, "json", false)? {
        println!(
            "{}",
            serde_json::to_string_pretty(snapshot).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!(
        "{} — uptime {:.1} s",
        text(snapshot.field("schema")),
        float(snapshot.field("uptime_s"))
    );
    let r = snapshot.field("requests");
    println!(
        "requests: admitted {} completed {} errors {} (bad_request {}, expired {}, \
         failed {}, panics {}) rejected {} slow {}",
        uint(r.field("admitted")),
        uint(r.field("completed")),
        uint(r.field("errors")),
        uint(r.field("bad_request")),
        uint(r.field("expired")),
        uint(r.field("failed")),
        uint(r.field("panics")),
        uint(r.field("rejected")),
        uint(r.field("slow")),
    );
    let q = snapshot.field("queue");
    println!(
        "queue: depth {} / {} (high water {})",
        uint(q.field("depth")),
        uint(q.field("capacity")),
        uint(q.field("high_water")),
    );
    let c = snapshot.field("cache");
    println!(
        "cache: {} scenarios, {} plans (hits: scenario {}, plan {})",
        uint(c.field("scenarios")),
        uint(c.field("plans")),
        uint(c.field("scenario_hits")),
        uint(c.field("plan_hits")),
    );
    if let Value::Object(series) = snapshot.field("latency_us") {
        println!(
            "{:<18} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "latency (us)", "count", "p50", "p90", "p99", "p999", "max"
        );
        for (name, entry) in series {
            if uint(entry.field("count")) == 0 {
                continue;
            }
            println!(
                "  {:<16} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                name,
                uint(entry.field("count")),
                uint(entry.field("p50")),
                uint(entry.field("p90")),
                uint(entry.field("p99")),
                uint(entry.field("p999")),
                uint(entry.field("max")),
            );
        }
    }
    Ok(())
}
