//! The bench-gate harness behind the `bench_gate` binary: one cell table,
//! one timing routine, one `ccs-bench/v1` document writer and one check
//! path for every gated suite.
//!
//! ```text
//! bench_gate --suite smoke|scaling|serve|gateway|online [--only CELL] [--out FILE] [--check]
//! ```
//!
//! Every suite writes the same document (to `--out`, else stdout):
//!
//! ```json
//! {
//!   "schema": "ccs-bench/v1",
//!   "suite": "scaling",
//!   "available_parallelism": 4,
//!   "host_sentinel_ms": 3.1,
//!   "benches": {
//!     "scale_ccsa_n1k": {
//!       "t1_mean_ms": 810.0, "t1_p95_ms": 840.2,
//!       "t4_mean_ms": 270.1, "t4_p95_ms": 280.9,
//!       "speedup": 3.0, "cores": 4, "items_per_s": 1.23,
//!       "probes_skipped": 0, "facilities_skipped": 91
//!     }
//!   }
//! }
//! ```
//!
//! # Timed cells (`smoke`, `scaling`, `online`)
//!
//! Per thread count (1, then 4) a warmup run yields the cell's result
//! fingerprint and three timed runs, each of which must reproduce it, give
//! `t{1,4}_mean_ms` and `t{1,4}_p95_ms`; the 1- and 4-thread fingerprints
//! must agree (the `ccs-par` determinism contract). `speedup` is
//! `t1 / t4`, or `null` on a host with fewer than 2 cores, where the ratio
//! measures pool overhead, not scaling. `cores` is the parallelism when
//! the cell ran. `items_per_s` is the items of one run (one solve, or one
//! stream's arrivals) over the 1-thread mean. One untimed serial pass with
//! telemetry on then records the cell's counters and outcome fields. The
//! frontier cell `scale_ccsga_n100k` times one run per thread count and,
//! in a full sweep, runs only on hosts with at least 4 cores (`--only`
//! forces it anywhere).
//!
//! The `serve` and `gateway` suites run the closed-loop load driver
//! (`crates/bench/src/load.rs`) instead.
//!
//! # `--check`
//!
//! The newest committed `BENCH_<N>.json` at the workspace root covering
//! the suite's cells is read before anything is written, so `--out` onto a
//! committed file still compares against the committed version. The run
//! fails on any baseline regression of an exact counter, then of the
//! suite's own invariants ([`Suite::invariants`]), then of a wall-clock
//! gate ([`Suite::gates`]). Without a baseline the baseline gates are
//! skipped and the invariants still apply.

use crate::gate::{self, Direction, Gate};
use crate::load::{self, Transport};
use ccs_core::online::{OnlineConfig, OnlinePolicy, OnlineSim};
use ccs_core::prelude::*;
use ccs_core::problem::CostParams;
use ccs_serve::protocol::object;
use ccs_submodular::minimize::SeparableFn;
use ccs_submodular::mnp::minimize;
use ccs_submodular::set_fn::CardinalityPenalized;
use ccs_wrsn::arrival::{ArrivalGenerator, ArrivalProfile, ChargeRequest};
use ccs_wrsn::scenario::{scale_preset, Scenario, ScenarioGenerator};
use serde::Serialize;
use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::process::ExitCode;
use std::time::Instant;

/// Schema tag of every document the runner writes.
const SCHEMA: &str = "ccs-bench/v1";

/// The command line the runner accepts.
pub const USAGE: &str =
    "usage: bench_gate --suite smoke|scaling|serve|gateway|online [--only CELL] [--out FILE] [--check]";

/// Timed runs per thread count (the frontier cell runs one).
const ITERS: usize = 3;

/// A gated suite: one family of cells, one baseline, one set of gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Hot-path solver timings and oracle / cache counters.
    Smoke,
    /// The solvers across problem sizes and thread counts.
    Scaling,
    /// Closed-loop load on the JSONL daemon.
    Serve,
    /// Closed-loop mixed-tenant load on the HTTP gateway.
    Gateway,
    /// Full online event-loop runs.
    Online,
}

/// The serial mean may grow 20%, through the host sentinel.
const SERIAL_TIME: Gate = Gate {
    field: "t1_mean_ms",
    tolerance: 0.20,
    direction: Direction::HigherIsWorse,
    zero_base_fails: false,
    host_sensitive: true,
};

/// The oracle counter may grow 5%; any growth from zero fails.
const SMOKE_GATES: [Gate; 2] = [
    Gate {
        field: "oracle_evals",
        tolerance: 0.05,
        direction: Direction::HigherIsWorse,
        zero_base_fails: true,
        host_sensitive: false,
    },
    SERIAL_TIME,
];

/// Throughput may halve and p99 double. Not host-scaled: the serve and
/// gateway baselines carry no sentinel, and these tolerances already
/// absorb host drift while catching a serialized worker pool or a tail
/// latency cliff.
const LOAD_GATES: [Gate; 2] = [
    Gate {
        field: "throughput_rps",
        tolerance: 0.5,
        direction: Direction::LowerIsWorse,
        zero_base_fails: false,
        host_sensitive: false,
    },
    Gate {
        field: "p99_ms",
        tolerance: 1.0,
        direction: Direction::HigherIsWorse,
        zero_base_fails: false,
        host_sensitive: false,
    },
];

/// Misses are deterministic, so any growth fails; throughput may drop
/// 25%, through the host sentinel.
const ONLINE_GATES: [Gate; 2] = [
    Gate {
        field: "miss_rate_pct",
        tolerance: 0.0,
        direction: Direction::HigherIsWorse,
        zero_base_fails: true,
        host_sensitive: false,
    },
    Gate {
        field: "items_per_s",
        tolerance: 0.25,
        direction: Direction::LowerIsWorse,
        zero_base_fails: false,
        host_sensitive: true,
    },
];

impl Suite {
    const ALL: [Suite; 5] = [
        Suite::Smoke,
        Suite::Scaling,
        Suite::Serve,
        Suite::Gateway,
        Suite::Online,
    ];

    /// The name `--suite` takes.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Smoke => "smoke",
            Suite::Scaling => "scaling",
            Suite::Serve => "serve",
            Suite::Gateway => "gateway",
            Suite::Online => "online",
        }
    }

    /// The baseline gates every cell of the suite is held to, exact
    /// counters first.
    pub fn gates(self) -> &'static [Gate] {
        match self {
            Suite::Smoke => &SMOKE_GATES,
            Suite::Scaling => std::slice::from_ref(&SERIAL_TIME),
            Suite::Serve | Suite::Gateway => &LOAD_GATES,
            Suite::Online => &ONLINE_GATES,
        }
    }

    /// The suite's baseline-free assertions over its `benches`:
    ///
    /// * scaling, on hosts with ≥ 4 cores (fewer cannot physically beat
    ///   serial, so they skip with a notice): the 4-thread `n = 50` CCSGA
    ///   run does not lose to serial, the CCSA `n = 1k` speedup reaches
    ///   2.5×, and the `n = 10k` 4-thread mean stays under 1 s;
    /// * online: the easy stream (slack to spare: a miss there is an
    ///   admission bug, not load) misses nothing, and CCSGA misses no more
    ///   than FCFS on the identical contended stream.
    pub fn invariants(self, benches: &Value, cores: u64) -> Vec<String> {
        let at = |cell: &str, field: &str| match benches.field(cell).field(field) {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        };
        let mut failures = Vec::new();
        match self {
            Suite::Scaling if cores < 4 => eprintln!(
                "scaling invariants: host has {cores} core(s) < 4 — skipping the speedup \
                 and 10k-latency assertions (CI runners enforce them)"
            ),
            Suite::Scaling => {
                let speedup = |cell| Some(at(cell, "t1_mean_ms")? / at(cell, "t4_mean_ms")?);
                if let Some(s) = speedup("scale_ccsga_n50").filter(|s| *s < 1.0) {
                    failures.push(format!(
                        "scale_ccsga_n50: 4-thread run slower than serial (speedup {s:.2} < 1.0)"
                    ));
                }
                if let Some(s) = speedup("scale_ccsa_n1k").filter(|s| *s < 2.5) {
                    failures.push(format!(
                        "scale_ccsa_n1k: thread scaling below par (speedup {s:.2} < 2.5)"
                    ));
                }
                if let Some(t) = at("scale_ccsga_n10k", "t4_mean_ms").filter(|t| *t >= 1000.0) {
                    failures.push(format!(
                        "scale_ccsga_n10k: scale-mode mean {t:.0} ms >= 1000 ms"
                    ));
                }
            }
            Suite::Online => {
                if let Some(m) = at("online_ccsga_easy", "missed").filter(|m| *m > 0.0) {
                    failures.push(format!(
                        "online_ccsga_easy: {m} miss(es) on a stream with slack to spare"
                    ));
                }
                let ccsga = at("online_ccsga_stream", "missed");
                let fcfs = at("online_fcfs_stream", "missed");
                if let (Some(c), Some(f)) = (ccsga, fcfs) {
                    if c > f {
                        failures.push(format!(
                            "online_ccsga_stream: {c} miss(es) vs fcfs's {f} on the identical stream"
                        ));
                    }
                }
            }
            Suite::Smoke | Suite::Serve | Suite::Gateway => {}
        }
        failures
    }
}

/// What one timed run reports.
struct Run {
    /// Equal across repeated runs and thread counts.
    fingerprint: u64,
    /// Items the run processed (`items_per_s` divides by the 1-thread mean).
    items: u64,
    /// Exact outcome fields, recorded from the serial pass.
    fields: Vec<(&'static str, Value)>,
}

impl Run {
    /// One solve.
    fn solve(fingerprint: u64) -> Run {
        Run {
            fingerprint,
            items: 1,
            fields: Vec::new(),
        }
    }
}

/// A timed workload: builds its inputs (untimed) and returns the run.
type Setup = fn() -> Box<dyn Fn() -> Run>;

/// What a cell runs.
enum Workload {
    Timed(Setup),
    Load(Transport),
}

/// One row of the cell table; its gates are its suite's.
struct Cell {
    /// The `benches` key (the load cells also add per-tenant entries).
    name: &'static str,
    suite: Suite,
    workload: Workload,
    /// `(field, telemetry counter)` pairs the serial pass records.
    counters: &'static [(&'static str, &'static str)],
    /// One timed run per thread count, and only on ≥ 4 cores unless named
    /// by `--only`.
    frontier: bool,
}

const SMOKE_COUNTERS: &[(&str, &str)] = &[
    ("oracle_evals", "sfm.oracle_evals"),
    ("cache_hits", "cache.hits"),
    ("cache_misses", "cache.misses"),
];

/// Work the activity-driven worklist (CCSGA) and the incremental facility
/// sweep (CCSA) avoided.
const SCALING_COUNTERS: &[(&str, &str)] = &[
    ("probes_skipped", "coalition.probes_skipped"),
    ("facilities_skipped", "ccsa.facilities_skipped"),
];

const fn timed(
    name: &'static str,
    suite: Suite,
    counters: &'static [(&'static str, &'static str)],
    setup: Setup,
) -> Cell {
    Cell {
        name,
        suite,
        workload: Workload::Timed(setup),
        counters,
        frontier: false,
    }
}

const fn load(name: &'static str, suite: Suite, transport: Transport) -> Cell {
    Cell {
        name,
        suite,
        workload: Workload::Load(transport),
        counters: &[],
        frontier: false,
    }
}

/// Every gated cell. Names are disjoint across suites, so the name-aware
/// baseline lookup never cross-matches.
static CELLS: [Cell; 14] = [
    timed("ccsa_n40", Suite::Smoke, SMOKE_COUNTERS, || {
        ccsa_run(smoke_problem(40), CcsaOptions::default())
    }),
    timed("ccsga_n50", Suite::Smoke, SMOKE_COUNTERS, || {
        ccsga_run(smoke_problem(50), CcsgaOptions::default())
    }),
    timed("ccsga_n100", Suite::Smoke, SMOKE_COUNTERS, || {
        ccsga_run(smoke_problem(100), CcsgaOptions::default())
    }),
    timed("sfm_mnp_n48", Suite::Smoke, SMOKE_COUNTERS, sfm_run),
    // Paper size, exact algorithm: the "parallel must not lose to serial"
    // cell.
    timed("scale_ccsga_n50", Suite::Scaling, SCALING_COUNTERS, || {
        ccsga_run(
            CcsProblem::new(scale_preset(50, 50).generate()),
            CcsgaOptions::default(),
        )
    }),
    // CCSA's greedy core at n = 1k: per-round facility batches of ~20k
    // items, the thread-scaling workhorse. The serial `local_improvement`
    // polish is off: it dominates wall clock at scale (>90% at n = 250)
    // without exercising the parallel path this suite curves.
    timed("scale_ccsa_n1k", Suite::Scaling, SCALING_COUNTERS, || {
        let opts = CcsaOptions {
            local_improvement: false,
            ..CcsaOptions::default()
        };
        ccsa_run(CcsProblem::new(scale_preset(50, 1_000).generate()), opts)
    }),
    timed("scale_ccsga_n1k", Suite::Scaling, SCALING_COUNTERS, || {
        ccsga_run(
            CcsProblem::new(scale_preset(50, 1_000).generate()),
            scale_mode(6, 0),
        )
    }),
    timed("scale_ccsga_n10k", Suite::Scaling, SCALING_COUNTERS, || {
        ccsga_run(capped(10_000), scale_mode(4, 2))
    }),
    // The frontier cell proves the size completes and tracks its order of
    // magnitude; it is the suite's time-budget hog.
    Cell {
        frontier: true,
        ..timed(
            "scale_ccsga_n100k",
            Suite::Scaling,
            SCALING_COUNTERS,
            || ccsga_run(capped(100_000), scale_mode(4, 2)),
        )
    },
    load("serve_mixed", Suite::Serve, Transport::Jsonl),
    load("gateway_mixed", Suite::Gateway, Transport::Http),
    // Slack to spare: every request must be served. The admission
    // correctness canary, not a load test.
    timed("online_ccsga_easy", Suite::Online, &[], || {
        let scenario = ScenarioGenerator::new(101)
            .devices(20)
            .chargers(4)
            .generate();
        let stream = ArrivalGenerator::new(5)
            .rate(0.1)
            .horizon(200.0)
            .slack(100_000.0)
            .generate(20);
        online_run(scenario, stream, ccsga_policy())
    }),
    // The contended pair: identical scenario and stream, two policies.
    timed("online_ccsga_stream", Suite::Online, &[], || {
        contended(ccsga_policy())
    }),
    timed("online_fcfs_stream", Suite::Online, &[], || {
        contended(OnlinePolicy::Fcfs)
    }),
];

fn smoke_problem(n: usize) -> CcsProblem {
    CcsProblem::new(
        ScenarioGenerator::new(n as u64)
            .devices(n)
            .chargers((n / 10).max(2))
            .generate(),
    )
}

/// The scale preset with a service-capacity cap (`max_group_size`, a paper
/// knob): full coalitions are rejected by the cheap feasibility check
/// before any facility evaluation, which bounds the per-round cost.
fn capped(n: usize) -> CcsProblem {
    let params = CostParams {
        max_group_size: Some(8),
        ..Default::default()
    };
    CcsProblem::with_params(scale_preset(50, n).generate(), params)
}

/// CCSGA scale mode, the configuration `README.md` documents for
/// `n ≥ 1k`: shortlist joins to the nearest coalitions, skip the final
/// stability audit, bound the rounds.
fn scale_mode(neighbor_cap: usize, max_rounds: usize) -> CcsgaOptions {
    CcsgaOptions {
        neighbor_cap,
        check_stability: false,
        max_rounds,
        ..CcsgaOptions::default()
    }
}

fn ccsa_run(problem: CcsProblem, opts: CcsaOptions) -> Box<dyn Fn() -> Run> {
    Box::new(move || {
        let cost = ccsa(&problem, &EqualShare, opts).total_cost();
        Run::solve(cost.value().to_bits())
    })
}

fn ccsga_run(problem: CcsProblem, opts: CcsgaOptions) -> Box<dyn Fn() -> Run> {
    Box::new(move || {
        let cost = ccsga(&problem, &EqualShare, opts).schedule.total_cost();
        Run::solve(cost.value().to_bits())
    })
}

/// Min-norm-point SFM over a separable bill with a cardinality penalty.
fn sfm_run() -> Box<dyn Fn() -> Run> {
    let weights: Vec<f64> = (0..48usize)
        .map(|i| ((i * 2654435761) % 97) as f64 / 10.0)
        .collect();
    let bill = SeparableFn::new(weights, 25.0, 3.0);
    let f = CardinalityPenalized::new(bill, 4.0);
    Box::new(move || {
        let sol = minimize(&f);
        Run::solve(sol.value.to_bits() ^ sol.minimizer.len() as u64)
    })
}

fn ccsga_policy() -> OnlinePolicy {
    OnlinePolicy::Ccsga(CcsgaOptions::default())
}

/// A hotspot stream over 30 devices and 4 chargers, tight enough that
/// naive dispatch visibly drops requests.
fn contended(policy: OnlinePolicy) -> Box<dyn Fn() -> Run> {
    let scenario = ScenarioGenerator::new(211)
        .devices(30)
        .chargers(4)
        .generate();
    let stream = ArrivalGenerator::new(9)
        .rate(0.3)
        .horizon(240.0)
        .slack(500.0)
        .profile(ArrivalProfile::Hotspot {
            fraction: 0.2,
            share: 0.8,
        })
        .generate(30);
    online_run(scenario, stream, policy)
}

/// One full event-loop run per call. The fingerprint covers everything
/// the gates read plus the energy ledger, so a thread-count divergence
/// cannot hide.
fn online_run(
    scenario: Scenario,
    stream: Vec<ChargeRequest>,
    policy: OnlinePolicy,
) -> Box<dyn Fn() -> Run> {
    Box::new(move || {
        let config = OnlineConfig {
            policy,
            ..OnlineConfig::default()
        };
        let problem = CcsProblem::new(scenario.clone());
        let m = OnlineSim::new(problem, stream.clone(), &EqualShare, config)
            .run()
            .metrics;
        let mut hasher = DefaultHasher::new();
        let energy = [m.energy_consumed.value(), m.energy_delivered.value()];
        (m.served, m.missed, m.replans, energy.map(f64::to_bits)).hash(&mut hasher);
        Run {
            fingerprint: hasher.finish(),
            items: m.arrivals as u64,
            fields: vec![
                ("served", m.served.to_value()),
                ("missed", m.missed.to_value()),
                ("arrivals", m.arrivals.to_value()),
                ("replans", m.replans.to_value()),
                ("miss_rate_pct", num(m.miss_rate * 100.0)),
            ],
        }
    })
}

/// A metric rounded to two decimals.
pub(crate) fn num(x: f64) -> Value {
    Value::Number(Number::Float((x * 100.0).round() / 100.0))
}

fn cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// The timing routine of every timed cell (see the module docs).
fn time_cell(cell: &Cell, run: &dyn Fn() -> Run) -> Value {
    let iters = if cell.frontier { 1 } else { ITERS };
    let at = |threads: usize| {
        ccs_par::set_threads(threads);
        let fingerprint = run().fingerprint;
        let mut ms: Vec<f64> = (0..iters)
            .map(|_| {
                let start = Instant::now();
                let again = run().fingerprint;
                let took = start.elapsed().as_secs_f64() * 1000.0;
                assert_eq!(
                    again, fingerprint,
                    "{}: repeated runs diverged at {threads} thread(s)",
                    cell.name
                );
                took
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        let mean = ms.iter().sum::<f64>() / iters as f64;
        let p95 = ms[(iters as f64 * 0.95).ceil() as usize - 1];
        (mean, p95, fingerprint)
    };
    let (t1_mean, t1_p95, fp1) = at(1);
    let (t4_mean, t4_p95, fp4) = at(4);
    assert_eq!(
        fp1, fp4,
        "{}: 1-thread and 4-thread results diverged — determinism bug",
        cell.name
    );

    ccs_par::set_threads(1);
    let registry = ccs_telemetry::global();
    registry.reset();
    registry.enable();
    let serial = run();
    let report = registry.report();
    registry.disable();
    registry.reset();
    ccs_par::set_threads(0);

    let cores = cores();
    let speedup = match cores {
        0 | 1 => Value::Null,
        _ => num(t1_mean / t4_mean),
    };
    let mut entry = vec![
        ("t1_mean_ms", num(t1_mean)),
        ("t1_p95_ms", num(t1_p95)),
        ("t4_mean_ms", num(t4_mean)),
        ("t4_p95_ms", num(t4_p95)),
        ("speedup", speedup),
        ("cores", cores.to_value()),
        ("items_per_s", num(serial.items as f64 / (t1_mean / 1000.0))),
    ];
    entry.extend(
        cell.counters
            .iter()
            .map(|(field, counter)| (*field, report.counter(counter).to_value())),
    );
    entry.extend(serial.fields);
    object(entry)
}

/// The `ccs-bench/v1` document of one suite run.
fn document(suite: Suite, benches: BTreeMap<String, Value>) -> Value {
    object([
        ("schema", SCHEMA.to_value()),
        ("suite", suite.name().to_value()),
        ("available_parallelism", cores().to_value()),
        (gate::SENTINEL_FIELD, num(gate::host_sentinel_ms())),
        ("benches", Value::Object(benches)),
    ])
}

/// Gates `doc` (see the module docs for the order): one line per failure.
fn check(suite: Suite, doc: &Value, baseline: Option<&Value>) -> Vec<String> {
    // Exact counters are the gates for which growth from zero is real.
    let (exact, wall): (Vec<Gate>, Vec<Gate>) =
        suite.gates().iter().partition(|g| g.zero_base_fails);
    let against = |gates: &[Gate]| match baseline {
        Some(base) => gate::regressions(doc, base, gates),
        None => Vec::new(),
    };
    let cores = match doc.field("available_parallelism") {
        Value::Number(n) => n.as_f64() as u64,
        _ => 1,
    };
    let mut failures = against(&exact);
    failures.extend(suite.invariants(doc.field("benches"), cores));
    failures.extend(against(&wall));
    failures
}

/// A validated command line.
#[derive(Debug)]
pub struct Args {
    /// The suite to run.
    pub suite: Suite,
    /// The one cell to run (a row of `suite`), if named.
    pub only: Option<&'static str>,
    /// Where the document goes (stdout when unset).
    pub out: Option<String>,
    /// Gate the run against the newest committed baseline.
    pub check: bool,
}

/// Parses the runner's flags. An unknown flag, suite or cell, a missing
/// `--suite`, or a flag without its value is an error.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = args.into_iter();
    let (mut suite, mut only, mut out, mut check) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--suite" => suite = Some(value()?),
            "--only" => only = Some(value()?),
            "--out" => out = Some(value()?),
            "--check" => check = true,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let suite = suite.ok_or("--suite is required")?;
    let suite = Suite::ALL
        .into_iter()
        .find(|s| s.name() == suite)
        .ok_or_else(|| format!("unknown suite '{suite}'"))?;
    let only = match only {
        Some(name) => Some(
            CELLS
                .iter()
                .find(|c| c.suite == suite && c.name == name)
                .ok_or_else(|| format!("suite {} has no cell '{name}'", suite.name()))?
                .name,
        ),
        None => None,
    };
    Ok(Args {
        suite,
        only,
        out,
        check,
    })
}

/// Runs a parsed command line: the suite's cells, the document, the gate.
pub fn run(args: &Args) -> ExitCode {
    let cells: Vec<&Cell> = CELLS.iter().filter(|c| c.suite == args.suite).collect();
    let names: Vec<&str> = cells.iter().map(|c| c.name).collect();
    let baseline = gate::newest_baseline(&gate::workspace_root(), &names);

    let mut benches = BTreeMap::new();
    for cell in cells {
        if args.only.is_some_and(|only| only != cell.name) {
            continue;
        }
        if cell.frontier && args.only.is_none() && cores() < 4 {
            eprintln!(
                "cell {}: host has {} core(s) < 4 — skipped (run with `--only {}` to force it)",
                cell.name,
                cores(),
                cell.name
            );
            continue;
        }
        let entries = match &cell.workload {
            Workload::Timed(setup) => {
                BTreeMap::from([(cell.name.to_string(), time_cell(cell, &*setup()))])
            }
            Workload::Load(transport) => match load::drive(*transport) {
                Ok(entries) => entries,
                Err(why) => {
                    eprintln!("error: {}: {why}", cell.name);
                    return ExitCode::FAILURE;
                }
            },
        };
        for (name, entry) in entries {
            eprintln!(
                "cell {name}: {}",
                serde_json::to_string(&entry).expect("entry serializes")
            );
            benches.insert(name, entry);
        }
    }

    let doc = document(args.suite, benches);
    let json = serde_json::to_string_pretty(&doc).expect("document serializes");
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    if !args.check {
        return ExitCode::SUCCESS;
    }
    let suite = args.suite.name();
    let against = match &baseline {
        Some((file, _)) => file.as_str(),
        None => {
            eprintln!(
                "bench gate ({suite}): no committed BENCH_*.json baseline, skipping its gates"
            );
            "no baseline"
        }
    };
    let failures = check(args.suite, &doc, baseline.as_ref().map(|(_, base)| base));
    if failures.is_empty() {
        eprintln!("bench gate ({suite}): ok vs {against}");
        return ExitCode::SUCCESS;
    }
    eprintln!("bench gate ({suite}): FAILED vs {against}:");
    for f in &failures {
        eprintln!("  {f}");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parser_accepts_the_four_flags() {
        let args = parse("--suite scaling --only scale_ccsga_n100k --out f.json --check").unwrap();
        assert_eq!(args.suite, Suite::Scaling);
        assert_eq!(args.only, Some("scale_ccsga_n100k"));
        assert_eq!(args.out.as_deref(), Some("f.json"));
        assert!(args.check);
        let args = parse("--suite online").unwrap();
        assert!(args.only.is_none() && args.out.is_none() && !args.check);
    }

    #[test]
    fn parser_rejects_what_would_pass_vacuously() {
        for bad in [
            "",
            "--check",
            "--suite",
            "--suite smok",
            "--suite online --only online_ccsga_typo",
            "--suite smoke --only scale_ccsa_n1k",
            "--suite smoke --check --out",
            "--suite smoke --out --check",
            "--suite smoke --iters 3",
            "--suite serve --clients 8",
            "--gateway",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn every_gate_has_a_baseline_field_to_compare() {
        // `gate::regressions` skips a field missing on either side, so a
        // renamed field would silently drop its gate.
        let root = gate::workspace_root();
        for suite in Suite::ALL {
            let names: Vec<&str> = CELLS
                .iter()
                .filter(|c| c.suite == suite)
                .map(|c| c.name)
                .collect();
            let (file, base) = gate::newest_baseline(&root, &names)
                .unwrap_or_else(|| panic!("no committed baseline for suite {}", suite.name()));
            for name in &names {
                for g in suite.gates() {
                    let field = base.field("benches").field(name).field(g.field);
                    assert!(
                        matches!(field, Value::Number(_)),
                        "{file}: {name}.{} missing, so its gate never runs",
                        g.field
                    );
                    if g.host_sensitive {
                        assert!(
                            matches!(base.field(gate::SENTINEL_FIELD), Value::Number(n) if n.as_f64() > 0.0),
                            "{file}: no {} for the host-sensitive {} gate",
                            gate::SENTINEL_FIELD,
                            g.field
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn check_reports_exact_counters_before_wall_clock() {
        let doc = |missed: u64, items: f64| {
            document(
                Suite::Online,
                BTreeMap::from([(
                    "online_ccsga_stream".to_string(),
                    object([
                        ("miss_rate_pct", num(missed as f64)),
                        ("items_per_s", num(items)),
                    ]),
                )]),
            )
        };
        // Both sides carry this host's sentinel; a 99.9% throughput drop
        // fails whatever its noise.
        let fails = check(Suite::Online, &doc(11, 1.0), Some(&doc(10, 1000.0)));
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(
            fails[0].contains("miss_rate_pct") && fails[1].contains("items_per_s"),
            "{fails:?}"
        );
        assert!(check(Suite::Online, &doc(11, 1.0), None).is_empty());
    }
}
