//! Request handlers: the one implementation of each protocol command,
//! run by the daemon, the gateway and the `ccs` CLI alike. All return
//! `Result<Value, ServeError>` — every failure mode of the underlying
//! stack (bad scenarios, solver budget errors, degenerate schedules) is
//! mapped to a structured error at this boundary. Handlers call only the
//! *fallible* core APIs (`try_average_cost`, `try_saving_percent`, …);
//! a caught panic in anything below is the server's last line of defense,
//! not the expected path.

use crate::cache::{CachedPlan, PlanCache};
use crate::obs::{Phase, ReqTrace};
use crate::protocol::{fields, ServeError};
use ccs_core::prelude::*;
use ccs_testbed::prelude::*;
use ccs_wrsn::entities::DeviceId;
use serde::value::{Number, Value};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds a JSON object from key/value pairs.
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut map = BTreeMap::new();
    for (k, v) in pairs {
        map.insert(k.to_string(), v);
    }
    Value::Object(map)
}

fn num(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

fn uint(x: u64) -> Value {
    Value::Number(Number::PosInt(x))
}

/// The largest `recover` (recovery rounds) a `replay` or `lifetime`
/// request may ask for. A solve cannot be stopped once it runs, so an
/// unbounded value would hold a worker for as long as the caller likes.
pub const MAX_RECOVER: u64 = 32;

/// The largest `rounds` a `lifetime` request may ask for, for the same
/// reason as [`MAX_RECOVER`].
pub const MAX_LIFETIME_ROUNDS: u64 = 1_000;

/// What a handler produced, plus cache-accounting for the stats layer.
pub struct Handled {
    /// The response `result` tree.
    pub result: Value,
    /// Scenario-cache hit (a `ProblemTables` rebuild was avoided).
    pub scenario_hit: Option<bool>,
    /// Plan-memo hit (a full plan computation was avoided).
    pub plan_hit: Option<bool>,
}

/// Dispatches one admitted request, recording the cache-lookup, tables,
/// and solve phases into `trace`.
///
/// # Errors
///
/// Every invalid field, missing scenario, or domain failure comes back as
/// a [`ServeError`]; this function never panics on malformed input (a
/// panic deeper in the stack is caught by the worker).
pub fn handle(
    cache: &PlanCache,
    cmd: &str,
    body: &Value,
    trace: &mut ReqTrace,
) -> Result<Handled, ServeError> {
    match cmd {
        "plan" => handle_plan(cache, body, trace),
        "replay" => handle_replay(cache, body, trace),
        "lifetime" => handle_lifetime(cache, body, trace),
        "online_step" => handle_online_step(cache, body, trace),
        other => Err(ServeError::bad_request(format!("unknown cmd '{other}'"))),
    }
}

/// One stateless online re-plan: `pending` lists the device ids with an
/// open charging request; the response is the residual schedule with
/// members mapped back to original ids — the daemon-side ingest path of
/// the online mode (`ccs online` drives the full event loop locally).
fn handle_online_step(
    cache: &PlanCache,
    body: &Value,
    trace: &mut ReqTrace,
) -> Result<Handled, ServeError> {
    let _span = ccs_telemetry::global().span("serve.online_step");
    let (_, problem, scenario_hit) = load_problem(cache, body, trace)?;
    let scheme = sharing(body)?;
    let policy = online_policy(fields::str_or(body, "algo", "ccsga")?)?;
    let n = problem.num_devices();
    let pending = match body.field("pending") {
        Value::Array(items) if !items.is_empty() => {
            let mut ids = Vec::with_capacity(items.len());
            for item in items {
                let Value::Number(Number::PosInt(id)) = item else {
                    return Err(ServeError::bad_request(format!(
                        "'pending' entries must be device ids, got {}",
                        item.kind()
                    )));
                };
                if *id >= n as u64 {
                    return Err(ServeError::bad_request(format!(
                        "pending device {id} outside the {n}-device scenario"
                    )));
                }
                ids.push(DeviceId::new(*id as u32));
            }
            ids
        }
        Value::Array(_) | Value::Null => {
            return Err(ServeError::bad_request(
                "'pending' must be a non-empty array of device ids",
            ))
        }
        other => {
            return Err(ServeError::bad_request(format!(
                "'pending' must be an array, got {}",
                other.kind()
            )))
        }
    };
    let schedule = trace.time(Phase::Solve, || {
        plan_step(&problem, &pending, scheme.as_ref(), policy)
    });
    let groups: Vec<Value> = schedule
        .groups()
        .iter()
        .map(|g| {
            let members: Vec<Value> = g
                .members
                .iter()
                .map(|m| uint(pending[m.index()].index() as u64))
                .collect();
            obj(vec![
                ("bill", num(g.bill.total().value())),
                ("charger", uint(g.charger.index() as u64)),
                (
                    "gathering_point",
                    Value::Array(vec![num(g.gathering_point.x), num(g.gathering_point.y)]),
                ),
                ("members", Value::Array(members)),
            ])
        })
        .collect();
    Ok(Handled {
        result: obj(vec![
            ("groups", Value::Array(groups)),
            ("pending", uint(pending.len() as u64)),
            ("total_cost", num(schedule.total_cost().value())),
        ]),
        scenario_hit: Some(scenario_hit),
        plan_hit: Some(false),
    })
}

/// Loads the request's scenario — inline `scenario` object or
/// `scenario_path` file — through the cache, then forces the
/// `ProblemTables` kernel so the tables build is timed apart from the
/// solve (a no-op on a scenario-cache hit).
fn load_problem(
    cache: &PlanCache,
    body: &Value,
    trace: &mut ReqTrace,
) -> Result<(u64, Arc<CcsProblem>, bool), ServeError> {
    let (hash, problem, hit) = trace.time(Phase::CacheLookup, || lookup_problem(cache, body))?;
    trace.time(Phase::Tables, || {
        problem.tables();
    });
    Ok((hash, problem, hit))
}

fn lookup_problem(
    cache: &PlanCache,
    body: &Value,
) -> Result<(u64, Arc<CcsProblem>, bool), ServeError> {
    match body.field("scenario") {
        Value::Null => {}
        value @ Value::Object(_) => return cache.problem(value),
        other => {
            return Err(ServeError::bad_request(format!(
                "field 'scenario' must be an object, got {}",
                other.kind()
            )))
        }
    }
    match body.field("scenario_path") {
        Value::String(path) => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| ServeError::bad_request(format!("reading {path}: {e}")))?;
            let value: Value = serde_json::from_str(&json)
                .map_err(|e| ServeError::bad_request(format!("parsing {path}: {e}")))?;
            cache.problem(&value)
        }
        Value::Null => Err(ServeError::bad_request(
            "missing 'scenario' (inline object) or 'scenario_path' (file)",
        )),
        other => Err(ServeError::bad_request(format!(
            "field 'scenario_path' must be a string, got {}",
            other.kind()
        ))),
    }
}

/// A planner: the schedule, plus the algorithm's own result fields.
type Planner =
    fn(&CcsProblem, &dyn CostSharing) -> Result<(Schedule, Vec<(&'static str, Value)>), ServeError>;

/// The planning algorithms by wire name.
const ALGORITHMS: [(&str, Planner); 4] = [
    ("ccsa", |p, s| {
        Ok((ccsa(p, s, CcsaOptions::default()), Vec::new()))
    }),
    ("ccsga", |p, s| {
        let out = ccsga(p, s, CcsgaOptions::default());
        let dynamics = vec![
            ("nash_stable", Value::Bool(out.nash_stable)),
            ("rounds", uint(out.rounds as u64)),
            ("switches", uint(out.switches as u64)),
        ];
        Ok((out.schedule, dynamics))
    }),
    ("ncp", |p, s| Ok((noncooperation(p, s), Vec::new()))),
    ("opt", |p, s| {
        let schedule = optimal(p, s).map_err(|e| ServeError::failed(e.to_string()))?;
        Ok((schedule, Vec::new()))
    }),
];

/// The algorithm named `name`: its interned name (the plan-cache key) and
/// its planner.
fn algorithm(name: &str) -> Result<(&'static str, Planner), ServeError> {
    ALGORITHMS
        .into_iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| ServeError::bad_request(format!("unknown algorithm '{name}'")))
}

/// The cost-sharing scheme named `name` (`equal`, `proportional` or
/// `shapley`), for every `sharing` field and `--sharing` flag.
///
/// # Errors
///
/// `bad_request` for any other name.
pub fn sharing_scheme(name: &str) -> Result<Box<dyn CostSharing>, ServeError> {
    all_schemes()
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| ServeError::bad_request(format!("unknown sharing scheme '{name}'")))
}

fn sharing(body: &Value) -> Result<Box<dyn CostSharing>, ServeError> {
    sharing_scheme(fields::str_or(body, "sharing", "equal")?)
}

/// The online dispatch policy named `name` (`ccsga` or `fcfs`), read by
/// `online_step` and `ccs online`.
///
/// # Errors
///
/// `bad_request` for any other name.
pub fn online_policy(name: &str) -> Result<OnlinePolicy, ServeError> {
    match name {
        "ccsga" => Ok(OnlinePolicy::Ccsga(CcsgaOptions::default())),
        "fcfs" => Ok(OnlinePolicy::Fcfs),
        other => Err(ServeError::bad_request(format!(
            "unknown online policy '{other}' (want 'ccsga' or 'fcfs')"
        ))),
    }
}

fn noise_model(body: &Value) -> Result<NoiseModel, ServeError> {
    match fields::str_or(body, "noise", "field")? {
        "ideal" => Ok(NoiseModel::ideal()),
        "field" => Ok(NoiseModel::field()),
        other => Err(ServeError::bad_request(format!(
            "unknown noise model '{other}'"
        ))),
    }
}

fn probability(body: &Value, key: &str) -> Result<f64, ServeError> {
    let p = fields::f64_or(body, key, 0.0)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(ServeError::bad_request(format!(
            "field '{key}' must be a probability in [0, 1], got {p}"
        )));
    }
    Ok(p)
}

fn failure_model(body: &Value) -> Result<FailureModel, ServeError> {
    Ok(FailureModel {
        charger_breakdown_prob: probability(body, "breakdown")?,
        device_no_show_prob: probability(body, "noshow")?,
    })
}

fn recovery_config(body: &Value) -> Result<Option<RecoveryConfig>, ServeError> {
    let max_rounds = fields::u64_or(body, "recover", 0)?;
    if max_rounds > MAX_RECOVER {
        return Err(ServeError::bad_request(format!(
            "recover must be <= {MAX_RECOVER}"
        )));
    }
    if max_rounds == 0 {
        return Ok(None);
    }
    Ok(Some(RecoveryConfig {
        max_rounds: max_rounds as usize,
        degrade: fields::bool_or(body, "degrade", true)?,
    }))
}

/// The memoized plan of `algo` under `scheme` for the scenario `hash`.
fn plan_cached(
    cache: &PlanCache,
    hash: u64,
    problem: &CcsProblem,
    (algo, planner): (&'static str, Planner),
    scheme: &dyn CostSharing,
) -> Result<(Arc<CachedPlan>, bool), ServeError> {
    cache.plan(hash, algo, scheme.name(), || {
        let (schedule, extra) = planner(problem, scheme)?;
        schedule
            .validate(problem)
            .map_err(|e| ServeError::failed(format!("schedule failed validation: {e}")))?;
        let mut pairs = vec![
            ("algorithm", Value::String(schedule.algorithm().to_string())),
            (
                "average_cost",
                schedule
                    .try_average_cost()
                    .map_or(Value::Null, |c| num(c.value())),
            ),
            ("groups", uint(schedule.groups().len() as u64)),
            ("schedule", schedule.to_value()),
            ("sharing", Value::String(schedule.sharing().to_string())),
            ("text", Value::String(schedule.to_string())),
            ("total_cost", num(schedule.total_cost().value())),
        ];
        pairs.extend(extra);
        Ok(CachedPlan {
            schedule,
            result: obj(pairs),
        })
    })
}

fn handle_plan(
    cache: &PlanCache,
    body: &Value,
    trace: &mut ReqTrace,
) -> Result<Handled, ServeError> {
    let _span = ccs_telemetry::global().span("serve.plan");
    let (hash, problem, scenario_hit) = load_problem(cache, body, trace)?;
    let algo = algorithm(fields::str_or(body, "algo", "ccsa")?)?;
    let scheme = sharing(body)?;
    let (plan, plan_hit) = trace.time(Phase::Solve, || {
        plan_cached(cache, hash, &problem, algo, scheme.as_ref())
    })?;
    Ok(Handled {
        result: plan.result.clone(),
        scenario_hit: Some(scenario_hit),
        plan_hit: Some(plan_hit),
    })
}

fn count_served(served: &[bool]) -> u64 {
    served.iter().filter(|s| **s).count() as u64
}

fn handle_replay(
    cache: &PlanCache,
    body: &Value,
    trace: &mut ReqTrace,
) -> Result<Handled, ServeError> {
    let _span = ccs_telemetry::global().span("serve.replay");
    let (hash, problem, scenario_hit) = load_problem(cache, body, trace)?;
    let scheme = sharing(body)?;
    let seed = fields::u64_or(body, "seed", 0)?;
    let noise = noise_model(body)?;
    let failures = failure_model(body)?;
    let recovery = recovery_config(body)?;
    // Replay executes the cooperative (CCSA) plan.
    let ccsa = algorithm("ccsa")?;
    let (plan, plan_hit) = trace.time(Phase::Solve, || {
        plan_cached(cache, hash, &problem, ccsa, scheme.as_ref())
    })?;
    let run = trace.time(Phase::Solve, || {
        execute_with_failures(
            &problem,
            &plan.schedule,
            scheme.as_ref(),
            &noise,
            &failures,
            seed,
        )
    });
    let served = count_served(&run.served);
    let mut pairs = vec![
        ("devices", uint(run.served.len() as u64)),
        ("makespan_s", num(run.makespan.value())),
        (
            "mean_wait_s",
            if served > 0 {
                num(run.average_wait().value())
            } else {
                Value::Null
            },
        ),
        ("planned_cost", num(plan.schedule.total_cost().value())),
        ("realized_cost", num(run.total_cost().value())),
        ("served", uint(served)),
    ];
    if let Some(config) = recovery {
        let out = trace.time(Phase::Solve, || {
            recover(
                &problem,
                &plan.schedule,
                Policy::Ccsa,
                scheme.as_ref(),
                &noise,
                &failures,
                seed,
                &config,
            )
        });
        let rounds = out.rounds[1..].iter().map(|round| {
            obj(vec![
                ("degraded", Value::Bool(round.mode == RoundMode::Degraded)),
                ("devices", uint(round.devices.len() as u64)),
                ("round", uint(round.round as u64)),
                ("served", uint(count_served(&round.execution.served))),
            ])
        });
        pairs.push((
            "recovery",
            obj(vec![
                ("extra_rounds", uint(out.recovery_rounds() as u64)),
                ("rounds", Value::Array(rounds.collect())),
                ("served_fraction", num(out.served_fraction())),
                ("total_cost", num(out.total_cost().value())),
            ]),
        ));
    }
    Ok(Handled {
        result: obj(pairs),
        scenario_hit: Some(scenario_hit),
        plan_hit: Some(plan_hit),
    })
}

fn handle_lifetime(
    cache: &PlanCache,
    body: &Value,
    trace: &mut ReqTrace,
) -> Result<Handled, ServeError> {
    let _span = ccs_telemetry::global().span("serve.lifetime");
    let (_, problem, scenario_hit) = load_problem(cache, body, trace)?;
    let scheme = sharing(body)?;
    let rounds = fields::u64_or(body, "rounds", 20)?;
    if rounds == 0 {
        // `run_lifetime` asserts on this; surface it as a clean protocol
        // error rather than a caught panic (`internal`).
        return Err(ServeError::bad_request("rounds must be >= 1"));
    }
    if rounds > MAX_LIFETIME_ROUNDS {
        return Err(ServeError::bad_request(format!(
            "rounds must be <= {MAX_LIFETIME_ROUNDS}"
        )));
    }
    let rounds = rounds as usize;
    let seed = fields::u64_or(body, "seed", 0)?;
    let policy = match fields::str_or(body, "policy", "ccsa")? {
        "ccsa" => Policy::Ccsa,
        "ccsga" => Policy::Ccsga,
        "ncp" => Policy::Noncooperative,
        other => return Err(ServeError::bad_request(format!("unknown policy '{other}'"))),
    };
    let config = LifetimeConfig { rounds, seed };
    let failures = failure_model(body)?;
    let recovery = recovery_config(body)?;
    let faulty = failures != FailureModel::none()
        || recovery.is_some()
        || !matches!(body.field("noise"), Value::Null);
    let scenario = problem.scenario();
    let noise = if faulty {
        Some(noise_model(body)?)
    } else {
        None
    };
    let report = trace.time(Phase::Solve, || {
        if let Some(noise) = &noise {
            let mut driver =
                TestbedDriver::new(noise, &failures, scheme.as_ref(), policy, recovery, seed);
            run_lifetime_with(scenario, scheme.as_ref(), policy, &config, &mut driver)
        } else {
            run_lifetime(scenario, scheme.as_ref(), policy, &config)
        }
    });
    Ok(Handled {
        result: obj(vec![
            ("energy_kj", num(report.energy_purchased.value() / 1000.0)),
            ("hires", uint(report.hires as u64)),
            ("policy", Value::String(policy.name().to_string())),
            ("rounds", uint(rounds as u64)),
            ("survival_rate", num(report.survival_rate)),
            ("testbed", Value::Bool(faulty)),
            ("total_cost", num(report.total_cost.value())),
            ("unserved_requests", uint(report.unserved_requests as u64)),
        ]),
        scenario_hit: Some(scenario_hit),
        plan_hit: None,
    })
}
