//! `online_stream`: online-CCSGA with the default `OnlineConfig`, driven
//! by `OnlineSim::step()` over long contended hotspot streams (60 devices,
//! 6 chargers, 20% of devices sending 80% of requests, 0.3 req/s, 200 s
//! slack): the deadline-driven request model of the online mode.
//!
//! Every replan extracts a residual problem and solves it cold. The
//! n = 10k shortlist paths and both transports sit idle. A run cycles over
//! several seeded (scenario, stream) pairs, so its figures average over
//! layouts instead of hanging on one.

use crate::trace::Tracer;
use crate::{
    check_coverage, counter_layers, latency_metrics, mix, peak_rss_mb, self_time_table,
    setup_metric, stats, write_spans, Args, Checks, Corrupt, Layers, Metric, Outcome,
};
use ccs_core::online::{EventKind, ReplanRecord};
use ccs_core::prelude::*;
use ccs_wrsn::arrival::{ArrivalGenerator, ArrivalProfile, ChargeRequest};
use ccs_wrsn::scenario::{Scenario, ScenarioGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Input size of the workload.
#[derive(Debug, Clone)]
pub struct Size {
    /// Devices per scenario.
    pub devices: usize,
    /// Chargers per fleet.
    pub chargers: usize,
    /// (scenario, stream) pairs a run cycles over; `cost` and
    /// `served_share` cover one lap of each.
    pub pairs: usize,
    /// Virtual horizon of each stream in seconds (one lap replays it).
    pub horizon: f64,
    /// Replans per pair the set-up's warm-up runs, so set-up is not a
    /// sub-millisecond window.
    pub warm_replans: usize,
    /// Set-ups per run (their median is `setup_s`).
    pub setups: usize,
    /// Untraced runs replay every `replay_every`-th replan of each pair's
    /// first lap after the window.
    pub replay_every: usize,
    /// Pairs whose replans the traced run replays (audit on and off).
    pub traced_replay_pairs: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Size {
            devices: 60,
            chargers: 6,
            pairs: 8,
            horizon: 1_500.0,
            warm_replans: 8,
            setups: 3,
            replay_every: 8,
            traced_replay_pairs: 2,
        }
    }

    /// A size small enough for the self-tests.
    pub fn tiny() -> Self {
        Size {
            devices: 20,
            chargers: 3,
            pairs: 2,
            horizon: 300.0,
            warm_replans: 3,
            setups: 2,
            replay_every: 1,
            traced_replay_pairs: 1,
        }
    }
}

/// One seeded input: a scenario and the contended hotspot stream over it.
pub type Pair = (Scenario, Vec<ChargeRequest>);

/// The run's (scenario, stream) pairs for `seed`.
pub fn generate(seed: u64, size: &Size) -> Vec<Pair> {
    (0..size.pairs as u64)
        .map(|k| {
            let scenario = ScenarioGenerator::new(mix(seed, 2, 2 * k))
                .devices(size.devices)
                .chargers(size.chargers)
                .generate();
            let stream = ArrivalGenerator::new(mix(seed, 2, 2 * k + 1))
                .rate(0.3)
                .horizon(size.horizon)
                .slack(200.0)
                .profile(ArrivalProfile::Hotspot {
                    fraction: 0.2,
                    share: 0.8,
                })
                .generate(size.devices);
            (scenario, stream)
        })
        .collect()
}

fn solver_options() -> CcsgaOptions {
    match OnlineConfig::default().policy {
        OnlinePolicy::Ccsga(options) => options,
        OnlinePolicy::Fcfs => unreachable!("the default online policy is CCSGA"),
    }
}

fn new_sim<'a>(scenario: &Scenario, stream: &[ChargeRequest]) -> OnlineSim<'a> {
    OnlineSim::new(
        CcsProblem::new(scenario.clone()),
        stream.to_vec(),
        &EqualShare,
        OnlineConfig::default(),
    )
}

/// What one pass over the stream did.
#[derive(Debug, Default)]
struct Lap {
    replan_ms: Vec<f64>,
    idle_us: Vec<f64>,
    step_s: f64,
    arrivals: usize,
    served: usize,
    missed: usize,
    bills: f64,
    residual_devices: usize,
    /// Per replan: the schedule's total cost bits and how many commitments
    /// it produced — laps over one stream must agree exactly.
    fingerprint: Vec<(u64, usize)>,
}

/// Steps one full lap. `on_replan` sees each replan's record, with its
/// index in the lap, after the step's timer stopped.
fn lap(
    scenario: &Scenario,
    stream: &[ChargeRequest],
    tr: &mut Tracer,
    telemetry: bool,
    on_replan: &mut dyn FnMut(&mut Tracer, usize, ReplanRecord),
) -> Lap {
    let mut sim = new_sim(scenario, stream);
    let mut committed = vec![false; stream.len()];
    let mut out = Lap::default();
    let registry = ccs_telemetry::global();
    for step in 0u64.. {
        if telemetry {
            registry.enable();
        }
        let start = Instant::now();
        let id = tr.begin("online.step", step);
        let outcome = sim.step();
        tr.end(id);
        let elapsed = start.elapsed().as_secs_f64();
        if telemetry {
            registry.disable();
        }
        let Some(outcome) = outcome else { break };
        out.step_s += elapsed;
        match outcome.kind {
            EventKind::Arrival(_) => out.arrivals += 1,
            EventKind::Expiry(i) if !committed[i] => out.missed += 1,
            _ => {}
        }
        for c in &outcome.committed {
            out.served += c.requests.len();
            out.bills += c.bill.value();
            for &r in &c.requests {
                committed[r] = true;
            }
        }
        match outcome.replan {
            Some(record) => {
                out.replan_ms.push(elapsed * 1e3);
                out.residual_devices += record.problem.num_devices();
                out.fingerprint.push((
                    record.schedule.total_cost().value().to_bits(),
                    outcome.committed.len(),
                ));
                on_replan(tr, out.replan_ms.len() - 1, record);
            }
            None => out.idle_us.push(elapsed * 1e6),
        }
    }
    out
}

/// What a replay needs of a replan: its residual and the schedule the
/// program produced, without the record's built tables and memos (kept
/// records would otherwise inflate `peak_rss_mb`).
struct Residual {
    scenario: Scenario,
    params: CostParams,
    schedule: Schedule,
}

impl Residual {
    fn of(record: ReplanRecord) -> Self {
        Residual {
            scenario: record.problem.scenario().clone(),
            params: record.problem.params().clone(),
            schedule: record.schedule,
        }
    }
}

/// Replays a replan's residual from scratch: fresh problem, tables, the
/// same solve (audit on), validation — and demands the identical schedule.
/// With `audit_off`, also times the solve without the stability audit.
fn replay(tr: &mut Tracer, op: u64, record: &Residual, audit_off: bool) -> Result<(), String> {
    let fresh = || CcsProblem::with_params(record.scenario.clone(), record.params.clone());
    let root = tr.begin("replay.op", op);
    let problem = tr.span("replay.construct", op, fresh);
    tr.span("replay.tables", op, || {
        black_box(problem.tables());
    });
    let outcome = tr.span("replay.solve", op, || {
        ccsga(&problem, &EqualShare, solver_options())
    });
    let valid = tr.span("replay.validate", op, || {
        outcome.schedule.validate(&problem)
    });
    tr.end(root);
    if audit_off {
        let problem = fresh();
        problem.tables();
        let options = CcsgaOptions {
            check_stability: false,
            ..solver_options()
        };
        let off = tr.span("replay.solve_audit_off", op, || {
            ccsga(&problem, &EqualShare, options)
        });
        if off.schedule != record.schedule {
            return Err(format!("replan {op}: the audit changed the schedule"));
        }
    }
    valid.map_err(|e| format!("replan {op}: replayed schedule invalid: {e}"))?;
    if outcome.schedule != record.schedule {
        return Err(format!(
            "replan {op}: replay differs from the recorded schedule"
        ));
    }
    Ok(())
}

fn check_record(record: &ReplanRecord) -> Result<(), String> {
    record
        .schedule
        .validate(&record.problem)
        .map_err(|e| format!("replan schedule invalid: {e}"))
}

/// Lap invariants: accounting closes, and a repeat lap over the same pair
/// matches the first.
fn check_lap(checks: &mut Checks, lap: &Lap, first: Option<&Lap>, expected_arrivals: usize) {
    checks.require(
        lap.served + lap.missed == lap.arrivals && lap.arrivals == expected_arrivals,
        || {
            format!(
                "served {} + missed {} != arrivals {} (expected {expected_arrivals})",
                lap.served, lap.missed, lap.arrivals
            )
        },
    );
    if let Some(first) = first {
        checks.require(
            lap.fingerprint == first.fingerprint
                && lap.served == first.served
                && lap.bills.to_bits() == first.bills.to_bits(),
            || "a repeated lap over the same stream diverged".to_string(),
        );
    }
}

/// Totals over one lap of every pair: `(cost, served_share)`.
fn quality(laps: &[&Lap]) -> (f64, f64) {
    let served: usize = laps.iter().map(|l| l.served).sum();
    let arrivals: usize = laps.iter().map(|l| l.arrivals).sum();
    let bills: f64 = laps.iter().map(|l| l.bills).sum();
    (bills / served as f64, served as f64 / arrivals as f64)
}

/// Runs the workload.
pub fn run(args: &Args, size: &Size, corrupt: Corrupt) -> Outcome {
    let mut out = Outcome::default();
    let mut untraced = Tracer::new(false, Instant::now());

    // Set-up: generate the pairs, then warm up with the first replans of
    // each pair's simulator.
    let mut setups = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..size.setups {
        let start = Instant::now();
        pairs = generate(args.seed, size);
        for (scenario, stream) in &pairs {
            let mut sim = new_sim(scenario, stream);
            let mut replans = 0;
            while replans < size.warm_replans {
                let Some(step) = sim.step() else { break };
                if let Some(record) = step.replan {
                    replans += 1;
                    out.checks.record(check_record(&record));
                }
            }
        }
        setups.push(start.elapsed().as_secs_f64());
    }

    // Each stream's length is the arrivals its laps must account for.
    let expected: Vec<usize> = pairs
        .iter()
        .map(|(_, stream)| stream.len() + usize::from(corrupt == Corrupt::Expectation))
        .collect();
    if args.trace {
        traced(args, size, &pairs, &expected, &mut out);
        return out;
    }

    let mut laps: Vec<Lap> = Vec::new();
    let start = Instant::now();
    while laps.len() < pairs.len() || start.elapsed() < args.seconds {
        let k = laps.len() % pairs.len();
        let first_lap = laps.len() < pairs.len();
        let (scenario, stream) = &pairs[k];
        let checks = &mut out.checks;
        let mut kept = Vec::new();
        let lap = lap(
            scenario,
            stream,
            &mut untraced,
            false,
            &mut |_, i, record| {
                checks.record(check_record(&record));
                if first_lap && i % size.replay_every == 0 {
                    kept.push((i, Residual::of(record)));
                }
            },
        );
        let first = (!first_lap).then(|| &laps[k]);
        check_lap(&mut out.checks, &lap, first, expected[k]);
        // Replayed between laps, so the replays neither sit inside a
        // step's timing nor pile up in memory.
        for (i, record) in kept {
            let op = (k * 100_000 + i) as u64;
            out.checks.record(replay(&mut untraced, op, &record, false));
        }
        laps.push(lap);
    }

    let firsts: Vec<&Lap> = laps[..pairs.len()].iter().collect();
    let (cost, served_share) = quality(&firsts);
    out.checks.require(cost.is_finite() && cost > 0.0, || {
        format!("cost {cost} is not a positive bill per served request")
    });
    let lat: Vec<f64> = laps
        .iter()
        .flat_map(|l| l.replan_ms.iter().copied())
        .collect();
    let arrivals: usize = laps.iter().map(|l| l.arrivals).sum();
    let step_s: f64 = laps.iter().map(|l| l.step_s).sum();
    let first_arrivals: usize = firsts.iter().map(|l| l.arrivals).sum();
    let [lat_ms, lat_tail] = latency_metrics(&lat, &mut out.checks);
    out.exact.insert("cost".into(), cost.to_bits());
    out.exact
        .insert("served_share".into(), served_share.to_bits());
    out.metrics = vec![
        setup_metric(&setups),
        lat_ms.note("median replan step"),
        lat_tail,
        Metric::new(
            "throughput_per_s",
            arrivals as f64 / step_s,
            "1/s",
            arrivals,
        )
        .note(format!(
            "arrivals over {step_s:.2} s inside OnlineSim::step, {} laps",
            laps.len()
        )),
        Metric::new("cost", cost, "cost", first_arrivals).note(format!(
            "commitment bills / served over {} streams",
            pairs.len()
        )),
        Metric::new("served_share", served_share, "ratio", first_arrivals)
            .note(format!("served / arrivals over {} streams", pairs.len())),
        Metric::new(
            "ok_share",
            out.checks.ok_share(),
            "ratio",
            out.checks.attempted as usize,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ];
    out
}

/// The traced run: one untraced lap of every pair (the overhead baseline
/// and the untraced cost), then one traced lap of every pair with the
/// program's counters on. After each replan of the first
/// `traced_replay_pairs` traced laps, the residual is replayed from
/// scratch with the audit on and off.
fn traced(args: &Args, size: &Size, pairs: &[Pair], expected: &[usize], out: &mut Outcome) {
    let origin = Instant::now();
    let mut untraced = Tracer::new(false, origin);
    let laps_a: Vec<Lap> = pairs
        .iter()
        .zip(expected)
        .map(|((scenario, stream), &expected)| {
            let lap = lap(scenario, stream, &mut untraced, false, &mut |_, _, _| {});
            check_lap(&mut out.checks, &lap, None, expected);
            lap
        })
        .collect();

    let telemetry = ccs_telemetry::global();
    telemetry.reset();
    let mut tr = Tracer::new(true, origin);
    let mut replays = Checks::default();
    let mut laps_b = Vec::new();
    for (k, (scenario, stream)) in pairs.iter().enumerate() {
        let replayed = k < size.traced_replay_pairs;
        let lap = lap(scenario, stream, &mut tr, true, &mut |tr, i, record| {
            if replayed {
                replays.record(check_record(&record));
                let op = (k * 100_000 + i) as u64;
                replays.record(replay(tr, op, &Residual::of(record), true));
            }
        });
        check_lap(&mut out.checks, &lap, Some(&laps_a[k]), expected[k]);
        laps_b.push(lap);
    }
    let report = telemetry.report();
    out.checks.absorb(replays);
    let (scenario, stream) = &pairs[0];
    let metrics = new_sim(scenario, stream).run().metrics;
    out.checks.require(
        (metrics.served, metrics.missed, metrics.arrivals)
            == (laps_b[0].served, laps_b[0].missed, laps_b[0].arrivals),
        || "OnlineSim::run disagrees with the stepped lap".to_string(),
    );
    let (cost_a, share_a) = quality(&laps_a.iter().collect::<Vec<_>>());
    let (cost, served_share) = quality(&laps_b.iter().collect::<Vec<_>>());
    out.checks.require(
        (cost.to_bits(), served_share.to_bits()) == (cost_a.to_bits(), share_a.to_bits()),
        || format!("traced cost {cost} / share {served_share} differ from untraced {cost_a} / {share_a}"),
    );
    let coverage = check_coverage(&tr, "replay.op", &mut out.checks);

    // Layer splits come from the replayed pairs' replans.
    let replayed: Vec<&Lap> = laps_b.iter().take(size.traced_replay_pairs).collect();
    let replan_ms: Vec<f64> = replayed
        .iter()
        .flat_map(|l| l.replan_ms.iter().copied())
        .collect();
    let tables = tr.durations_ms("replay.tables");
    let solve = tr.durations_ms("replay.solve");
    let solve_off = tr.durations_ms("replay.solve_audit_off");
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    // The replayed layers must not claim more time than the steps took.
    out.checks
        .require(sum(&tables) + sum(&solve) <= 1.05 * sum(&replan_ms), || {
            "replayed tables + solve exceed the replan steps by more than 5%".to_string()
        });

    let all_replans: Vec<f64> = laps_b
        .iter()
        .flat_map(|l| l.replan_ms.iter().copied())
        .collect();
    let idle: Vec<f64> = laps_b
        .iter()
        .flat_map(|l| l.idle_us.iter().copied())
        .collect();
    let residual_devices: usize = laps_b.iter().map(|l| l.residual_devices).sum();
    let mut layers = Layers::default();
    counter_layers(&report, &mut layers, out);
    layers.set(
        "online.replan_ms",
        stats::median(&all_replans),
        all_replans.len(),
    );
    layers.set(
        "online.residual_tables_ms",
        stats::mean(&tables),
        tables.len(),
    );
    layers.set("online.residual_solve_ms", stats::mean(&solve), solve.len());
    layers.set(
        "online.extract_admit_ms",
        stats::mean(&replan_ms) - stats::mean(&tables) - stats::mean(&solve),
        replan_ms.len(),
    );
    layers.set("online.idle_step_us", stats::median(&idle), idle.len());
    layers.set(
        "online.residual_devices",
        residual_devices as f64,
        all_replans.len(),
    );
    layers.set(
        "ccsga.audit_ms",
        (sum(&solve) - sum(&solve_off)) / solve.len().max(1) as f64,
        solve.len(),
    );
    layers.set("ccsga.solve_ms", stats::median(&solve), solve.len());
    layers.set("tables.build_ms", stats::median(&tables), tables.len());
    let validate = tr.durations_ms("replay.validate");
    layers.set(
        "schedule.validate_ms",
        stats::median(&validate),
        validate.len(),
    );
    let baseline: Vec<f64> = laps_a
        .iter()
        .flat_map(|l| l.replan_ms.iter().copied())
        .collect();
    let (a, b) = (stats::median(&baseline), stats::median(&all_replans));
    layers.set("trace.overhead_pct", (b - a) / a * 100.0, all_replans.len());

    out.exact.insert("cost".into(), cost.to_bits());
    out.exact
        .insert("served_share".into(), served_share.to_bits());
    out.exact
        .insert("online.residual_devices".into(), residual_devices as u64);
    out.exact
        .insert("online.replans".into(), all_replans.len() as u64);
    out.notes = self_time_table(
        &tr,
        &format!("{} laps, {} replans", laps_b.len(), all_replans.len()),
    );
    out.notes.push(coverage);
    out.notes.push(format!(
        "replan p50 untraced {a:.3} ms, traced {b:.3} ms; cost {cost}, served share {served_share}"
    ));
    write_spans(&tr, "online_stream", args.seed, &mut out.checks);
    out.metrics = layers.into_metrics();
}
