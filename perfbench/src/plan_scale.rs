//! `plan_scale`: cold CCSGA plans in the documented scale mode at
//! n = 10k.
//!
//! Every op is a *fresh* `CcsProblem::with_params` → `tables()` →
//! `ccsga()` → `Schedule::validate` on one of a few scenarios generated
//! during set-up, which is what `ccs plan` pays on a scenario it has not
//! seen. The grid/ring facility scan, the gathering memo and the coalition
//! engine do almost all the work; the transports and the online loop do
//! none.

use crate::trace::Tracer;
use crate::{
    check_coverage, counter_layers, latency_metrics, peak_rss_mb, self_time_table, setup_metric,
    stats, write_spans, Args, Corrupt, Layers, Metric, Outcome,
};
use ccs_core::gathering::gathering_point;
use ccs_core::prelude::*;
use ccs_wrsn::scenario::{scale_preset, Scenario};
use std::hint::black_box;
use std::time::Instant;

/// Input size of the workload.
#[derive(Debug, Clone)]
pub struct Size {
    /// Devices per scenario.
    pub devices: usize,
    /// Scenarios in the rotation.
    pub scenarios: usize,
    /// Timed ops at least, even past the measured window, so the tail
    /// percentile always has ten samples beyond it.
    pub min_ops: usize,
    /// Set-ups per run (their median is `setup_s`).
    pub setups: usize,
}

impl Size {
    /// The benchmark's size: n = 10k, four scenarios.
    pub fn full() -> Self {
        Size {
            devices: 10_000,
            scenarios: 4,
            min_ops: 2 * stats::MIN_BEYOND,
            setups: 3,
        }
    }

    /// A size small enough for the self-tests.
    pub fn tiny() -> Self {
        Size {
            devices: 300,
            scenarios: 2,
            min_ops: 2 * stats::MIN_BEYOND,
            setups: 2,
        }
    }
}

/// Scale mode as documented for n = 10k: groups of at most 8, four
/// neighbour candidates, two rounds, no stability audit.
fn params() -> CostParams {
    CostParams {
        max_group_size: Some(8),
        ..CostParams::default()
    }
}

fn options() -> CcsgaOptions {
    CcsgaOptions {
        neighbor_cap: 4,
        max_rounds: 2,
        check_stability: false,
        ..CcsgaOptions::default()
    }
}

/// The rotation: `scale_preset(seed + i, n)` for each scenario `i`.
pub fn generate(seed: u64, size: &Size) -> Vec<Scenario> {
    (0..size.scenarios as u64)
        .map(|i| scale_preset(seed.wrapping_add(i), size.devices).generate())
        .collect()
}

struct Planned {
    ms: f64,
    problem: CcsProblem,
    outcome: CcsgaOutcome,
    valid: Result<(), ScheduleError>,
}

/// One cold plan, timed from problem construction to validation.
fn plan_op(tr: &mut Tracer, op: u64, scenario: Scenario) -> Planned {
    let start = Instant::now();
    let root = tr.begin("plan.op", op);
    let problem = tr.span("problem.construct", op, || {
        CcsProblem::with_params(scenario, params())
    });
    tr.span("tables.build", op, || {
        black_box(problem.tables());
    });
    let outcome = tr.span("ccsga.solve", op, || {
        ccsga(&problem, &EqualShare, options())
    });
    let valid = tr.span("schedule.validate", op, || {
        outcome.schedule.validate(&problem)
    });
    tr.end(root);
    Planned {
        ms: start.elapsed().as_secs_f64() * 1e3,
        problem,
        outcome,
        valid,
    }
}

/// Per-scenario expected `total_cost` bits: set on first sight, and every
/// repeat of the scenario must reproduce them exactly.
struct Expect(Vec<Option<u64>>);

impl Expect {
    fn check(&mut self, k: usize, planned: &Planned) -> Result<(), String> {
        if let Err(e) = &planned.valid {
            return Err(format!("scenario {k}: invalid schedule: {e}"));
        }
        let n = planned.problem.num_devices();
        let scheduled: usize = planned
            .outcome
            .schedule
            .groups()
            .iter()
            .map(|g| g.members.len())
            .sum();
        if scheduled != n {
            return Err(format!(
                "scenario {k}: {scheduled} of {n} devices scheduled"
            ));
        }
        let bits = planned.outcome.schedule.total_cost().value().to_bits();
        match self.0[k] {
            None => {
                self.0[k] = Some(bits);
                Ok(())
            }
            Some(b) if b == bits => Ok(()),
            Some(b) => Err(format!(
                "scenario {k}: total_cost {} differs from {} on repeat",
                f64::from_bits(bits),
                f64::from_bits(b)
            )),
        }
    }

    /// Mean total cost over the rotation (each scenario counted once, so
    /// the value does not depend on how many ops fit in the window).
    fn mean_cost(&self) -> f64 {
        let costs: Vec<f64> = self
            .0
            .iter()
            .flatten()
            .map(|b| f64::from_bits(*b))
            .collect();
        if costs.len() == self.0.len() {
            stats::mean(&costs)
        } else {
            f64::NAN
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args, size: &Size, corrupt: Corrupt) -> Outcome {
    let mut out = Outcome::default();
    let mut expect = Expect(vec![None; size.scenarios]);
    if corrupt == Corrupt::Expectation {
        expect.0[0] = Some((-1.0f64).to_bits());
    }
    let mut untraced = Tracer::new(false, Instant::now());

    // Set-up: generate the rotation, then one warm-up plan.
    let mut setups = Vec::new();
    let mut scenarios = Vec::new();
    for _ in 0..size.setups {
        let start = Instant::now();
        scenarios = generate(args.seed, size);
        let planned = plan_op(&mut untraced, 0, scenarios[0].clone());
        setups.push(start.elapsed().as_secs_f64());
        out.checks.record(expect.check(0, &planned));
    }

    if args.trace {
        traced(args, &scenarios, &mut expect, &mut out);
    } else {
        let mut lat = Vec::new();
        let (mut scheduled, mut devices) = (0usize, 0usize);
        let start = Instant::now();
        let mut i = 0usize;
        while i < size.min_ops.max(size.scenarios) || start.elapsed() < args.seconds {
            let k = i % size.scenarios;
            let planned = plan_op(&mut untraced, i as u64, scenarios[k].clone());
            lat.push(planned.ms);
            devices += planned.problem.num_devices();
            scheduled += planned
                .outcome
                .schedule
                .groups()
                .iter()
                .map(|g| g.members.len())
                .sum::<usize>();
            out.checks.record(expect.check(k, &planned));
            i += 1;
        }
        let wall = start.elapsed().as_secs_f64();
        let cost = expect.mean_cost();
        let served_share = scheduled as f64 / devices as f64;
        out.checks
            .require(cost.is_finite(), || "cost undefined".to_string());
        let [lat_ms, lat_tail] = latency_metrics(&lat, &mut out.checks);
        out.exact.insert("cost".into(), cost.to_bits());
        out.exact
            .insert("served_share".into(), served_share.to_bits());
        out.metrics = vec![
            setup_metric(&setups),
            lat_ms,
            lat_tail,
            Metric::new(
                "throughput_per_s",
                lat.len() as f64 / wall,
                "1/s",
                lat.len(),
            )
            .note(format!("plans over {wall:.1} s")),
            Metric::new("cost", cost, "cost", size.scenarios)
                .note("mean total cost per scenario of the rotation"),
            Metric::new("served_share", served_share, "ratio", devices),
            Metric::new(
                "ok_share",
                out.checks.ok_share(),
                "ratio",
                out.checks.attempted as usize,
            ),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
        ];
    }
    out
}

/// The traced run: every scenario is planned once untraced (the overhead
/// baseline) and once traced with the program's counters on. Each traced
/// plan is followed by replays of the gathering-point search and the
/// facility scan over its final groups.
fn traced(args: &Args, scenarios: &[Scenario], expect: &mut Expect, out: &mut Outcome) {
    let origin = Instant::now();
    let mut untraced = Tracer::new(false, origin);
    let mut tr = Tracer::new(true, origin);
    let telemetry = ccs_telemetry::global();
    telemetry.reset();
    let (mut lat_a, mut lat_b) = (Vec::new(), Vec::new());
    let (mut scheduled, mut devices) = (0usize, 0usize);
    for (k, scenario) in scenarios.iter().enumerate() {
        let op = k as u64;
        // Each scenario is planned untraced and traced; which goes first
        // alternates, so warm-up order does not bias the overhead. The
        // expectation check makes both reproduce the same cost bits.
        let order = if k % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            if !traced {
                let planned = plan_op(&mut untraced, op, scenario.clone());
                lat_a.push(planned.ms);
                out.checks.record(expect.check(k, &planned));
                continue;
            }
            telemetry.enable();
            let planned = plan_op(&mut tr, op, scenario.clone());
            telemetry.disable();
            lat_b.push(planned.ms);
            out.checks.record(expect.check(k, &planned));
            devices += planned.problem.num_devices();
            let problem = &planned.problem;
            let mut replay = Ok(());
            for group in planned.outcome.schedule.groups() {
                scheduled += group.members.len();
                let point = tr.span("replay.gathering", op, || {
                    gathering_point(
                        problem,
                        group.charger,
                        &group.members,
                        problem.params().gathering,
                    )
                });
                if (point.x, point.y) != (group.gathering_point.x, group.gathering_point.y) {
                    replay = Err(format!(
                        "scenario {k}: replayed gathering point differs for a group at charger {}",
                        group.charger
                    ));
                }
                let choice = tr.span("replay.facility_scan", op, || {
                    try_best_facility(problem, &group.members)
                });
                if choice.is_none() {
                    replay = Err(format!("scenario {k}: a planned group has no facility"));
                }
            }
            out.checks.record(replay);
        }
    }
    let report = telemetry.report();
    let cost = expect.mean_cost();
    let coverage = check_coverage(&tr, "plan.op", &mut out.checks);

    let mut layers = Layers::default();
    counter_layers(&report, &mut layers, out);
    let median_of = |name: &str| {
        let d = tr.durations_ms(name);
        (stats::median(&d), d.len())
    };
    let (v, n) = median_of("tables.build");
    layers.set("tables.build_ms", v, n);
    let (v, n) = median_of("ccsga.solve");
    layers.set("ccsga.solve_ms", v, n);
    let (v, n) = median_of("schedule.validate");
    layers.set("schedule.validate_ms", v, n);
    let gather = tr.durations_ms("replay.gathering");
    layers.set(
        "gathering.point_us",
        stats::mean(&gather) * 1e3,
        gather.len(),
    );
    layers.set("gathering.calls", gather.len() as f64, gather.len());
    let scan = tr.durations_ms("replay.facility_scan");
    layers.set(
        "cost.facility_scan_us",
        stats::mean(&scan) * 1e3,
        scan.len(),
    );
    let (a, b) = (stats::median(&lat_a), stats::median(&lat_b));
    layers.set("trace.overhead_pct", (b - a) / a * 100.0, lat_b.len());

    out.exact.insert("cost".into(), cost.to_bits());
    out.exact.insert(
        "served_share".into(),
        (scheduled as f64 / devices as f64).to_bits(),
    );
    out.exact
        .insert("gathering.calls".into(), gather.len() as u64);
    out.notes = self_time_table(&tr, &format!("{} plan ops", lat_b.len()));
    out.notes.push(coverage);
    out.notes.push(format!(
        "plan latency untraced {a:.2} ms {lat_a:.1?}, traced {b:.2} ms {lat_b:.1?}; cost {cost}"
    ));
    write_spans(&tr, "plan_scale", args.seed, &mut out.checks);
    out.metrics = layers.into_metrics();
}
