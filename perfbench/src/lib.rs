//! The repository benchmark: three workloads over the CCS scheduling
//! stack, each built from a seed, each checked for correctness, each
//! reporting the same eight end-to-end metrics (untraced runs) or the
//! per-layer metrics (traced runs). See `README.md` for the rationale.

#![forbid(unsafe_code)]

pub mod online_stream;
pub mod plan_scale;
pub mod serve_mixed;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// `plan_scale`, `online_stream` or `serve_mixed`.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["plan_scale", "online_stream", "serve_mixed"];

/// Directory (relative to the working directory) for sockets and span
/// files. Listed in the repository's `.gitignore`.
pub const OUT_DIR: &str = ".bench_out";

/// Correctness bookkeeping: every op is checked, and a failed check counts
/// against `ok_share` and fails the run.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Ops (and run-level invariants) checked.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one checked op.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(msg);
            }
        }
    }

    /// Records a run-level invariant.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(if ok { Ok(()) } else { Err(what()) });
    }

    /// Folds another thread's checks in.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }

    /// Share of checked ops that passed.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples or items it was computed from.
    pub samples: usize,
    /// How it was computed (percentile chosen, …), for the human report.
    pub note: String,
}

impl Metric {
    /// A metric with no extra note.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    /// Adds the human-readable note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness of every op.
    pub checks: Checks,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human report.
    pub notes: Vec<String>,
    /// Values that must repeat bit for bit at one seed: `cost`,
    /// `served_share` and the program's exact work counters.
    pub exact: BTreeMap<String, u64>,
}

impl Outcome {
    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
            && self.checks.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The value of a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        )
    }
}

/// Renders a finite number with every digit; a non-finite value (a bug in
/// a metric) becomes `null`, and [`Outcome::correct`] is then false.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Name and unit of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("lat_ms", "ms"),
    ("lat_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("cost", "cost"),
    ("served_share", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Name and unit of every per-layer metric, grouped by layer.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("tables.build_ms", "ms"),
    ("tables.gather_misses", "count"),
    ("tables.gather_hit_ratio", "ratio"),
    ("gathering.point_us", "us"),
    ("gathering.calls", "count"),
    ("cost.facility_scan_us", "us"),
    ("ccsa.facility_evals", "count"),
    ("ccsa.facility_pruned", "count"),
    ("ccsga.solve_ms", "ms"),
    ("coalition.rounds", "count"),
    ("coalition.switch_ops", "count"),
    ("coalition.preference_evals", "count"),
    ("coalition.probes_skipped", "count"),
    ("coalition.useful_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("ccsga.coalition_cache_entries", "count"),
    ("ccsga.audit_ms", "ms"),
    ("ccsa.solve_ms", "ms"),
    ("ccsa.rounds", "count"),
    ("sfm.oracle_evals", "count"),
    ("schedule.validate_ms", "ms"),
    ("online.replan_ms", "ms"),
    ("online.residual_tables_ms", "ms"),
    ("online.residual_solve_ms", "ms"),
    ("online.extract_admit_ms", "ms"),
    ("online.idle_step_us", "us"),
    ("online.residual_devices", "count"),
    ("online.commitments", "count"),
    ("online.degraded", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.cache_lookup_ms", "ms"),
    ("serve.tables_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.scenario_hit_ratio", "ratio"),
    ("serve.plan_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.errors", "count"),
    ("gateway.rtt_ms", "ms"),
    ("daemon.rtt_ms", "ms"),
    ("transport_ms", "ms"),
    ("gateway.batch_item_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer values one traced run measured; layers the workload
/// leaves idle read 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Layers {
    /// Sets a per-layer metric from `samples` observations.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`] (a typo in this crate).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, (value, samples));
    }

    /// The full per-layer metric list, in [`PER_LAYER`] order.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
                Metric::new(name, value, unit, samples)
            })
            .collect()
    }
}

/// Work counters the program keeps in `ccs_telemetry::global()` that the
/// traced runs read. They repeat exactly at one seed.
pub const EXACT_COUNTERS: [&str; 17] = [
    "tables.gather_hits",
    "tables.gather_misses",
    "ccsa.facility_evals",
    "ccsa.facility_pruned",
    "ccsa.rounds",
    "coalition.rounds",
    "coalition.switch_ops",
    "coalition.preference_evals",
    "coalition.probes_skipped",
    "cache.hits",
    "cache.misses",
    "ccsga.coalition_cache_entries",
    "sfm.oracle_evals",
    "online.replans",
    "online.commitments",
    "online.degraded",
    "online.served",
];

/// Fills the counter-derived per-layer metrics from a telemetry report
/// and records the counters as exact values. The default CCSA path reads
/// the congestion table, never the submodular oracle, so
/// `sfm.oracle_evals` must stay 0.
pub fn counter_layers(report: &ccs_telemetry::RunReport, layers: &mut Layers, out: &mut Outcome) {
    let c = |name: &str| report.counter(name);
    out.checks.require(c("sfm.oracle_evals") == 0, || {
        format!("sfm.oracle_evals is {}, not 0", c("sfm.oracle_evals"))
    });
    let exact = &mut out.exact;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    for name in EXACT_COUNTERS {
        exact.insert(format!("counter.{name}"), c(name));
    }
    let gather = c("tables.gather_hits") + c("tables.gather_misses");
    layers.set("tables.gather_misses", c("tables.gather_misses") as f64, 1);
    layers.set(
        "tables.gather_hit_ratio",
        ratio(c("tables.gather_hits"), gather),
        gather as usize,
    );
    for name in [
        "ccsa.facility_evals",
        "ccsa.facility_pruned",
        "ccsa.rounds",
        "coalition.rounds",
        "coalition.switch_ops",
        "coalition.preference_evals",
        "coalition.probes_skipped",
        "ccsga.coalition_cache_entries",
        "sfm.oracle_evals",
        "online.commitments",
        "online.degraded",
    ] {
        layers.set(name, c(name) as f64, 1);
    }
    let prefs = c("coalition.preference_evals");
    layers.set(
        "coalition.useful_ratio",
        ratio(c("coalition.switch_ops"), prefs),
        prefs as usize,
    );
    let lookups = c("cache.hits") + c("cache.misses");
    layers.set(
        "cache.hit_ratio",
        ratio(c("cache.hits"), lookups),
        lookups as usize,
    );
}

/// Mean duration in milliseconds of the program's own telemetry spans
/// whose path ends in `/name` (or is `name`), with their count.
pub fn program_span_ms(report: &ccs_telemetry::RunReport, name: &str) -> (f64, usize) {
    let suffix = format!("/{name}");
    let (mut total, mut count) = (0.0, 0u64);
    for (path, s) in &report.spans {
        if path == name || path.ends_with(&suffix) {
            total += s.total_ms;
            count += s.count;
        }
    }
    if count == 0 {
        (0.0, 0)
    } else {
        (total / count as f64, count as usize)
    }
}

/// The tail-latency metric with its percentile and sample count, checking
/// that it is defined and does not undercut the median.
pub fn latency_metrics(samples_ms: &[f64], checks: &mut Checks) -> [Metric; 2] {
    let median = stats::median(samples_ms);
    let tail = stats::tail(samples_ms);
    checks.require(tail.is_some(), || {
        format!(
            "lat_ms_tail needs at least {} samples, got {}",
            2 * stats::MIN_BEYOND,
            samples_ms.len()
        )
    });
    let tail = tail.unwrap_or(stats::Tail {
        percentile: 100.0,
        value: f64::NAN,
        beyond: 0,
    });
    checks.require(tail.value >= median, || {
        format!("lat_ms_tail {} below lat_ms {median}", tail.value)
    });
    [
        Metric::new("lat_ms", median, "ms", samples_ms.len()).note("median"),
        Metric::new("lat_ms_tail", tail.value, "ms", samples_ms.len()).note(format!(
            "p{} of n={} ({} beyond)",
            tail.percentile,
            samples_ms.len(),
            tail.beyond
        )),
    ]
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of repeated set-ups, in seconds.
pub fn setup_metric(setups_s: &[f64]) -> Metric {
    Metric::new("setup_s", stats::median(setups_s), "s", setups_s.len())
        .note(format!("median of {} set-ups", setups_s.len()))
}

/// Seeds derived from the run seed: `mix(seed, a, b)` is a stable 64-bit
/// hash (SplitMix64 finalizer) so sub-inputs never collide across seeds.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stable FNV-1a hash of a response, for byte-identity checks.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The per-layer self-time table of a traced run, as report lines.
pub fn self_time_table(tr: &trace::Tracer, what: &str) -> Vec<String> {
    let by_name = tr.self_ms_by_name();
    let total: f64 = by_name.values().sum();
    let mut rows: Vec<(&str, f64)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut lines = vec![format!(
        "self time by span over {what} ({total:.1} ms traced):"
    )];
    lines.extend(rows.into_iter().map(|(name, ms)| {
        format!(
            "  {name:<28} {ms:>12.3} ms {:>6.1}%",
            ms / total.max(1e-9) * 100.0
        )
    }));
    lines
}

/// Checks that the layer spans inside the ops named `root` add up to the
/// ops' traced latency: the time outside every layer span is at most 5% of
/// the ops' total latency, and at most 5% of the median op's latency.
/// Single ops can miss by more when the host stalls the thread for a few
/// microseconds between two spans; how many did is reported, not failed.
pub fn check_coverage(tr: &trace::Tracer, root: &str, checks: &mut Checks) -> String {
    let ops = tr.coverage(root);
    let gap = |(dur, covered): (u64, u64)| dur.saturating_sub(covered) as f64;
    let total_dur: f64 = ops.iter().map(|&(d, _)| d as f64).sum();
    let total_gap: f64 = ops.iter().map(|&op| gap(op)).sum();
    let shares: Vec<f64> = ops.iter().map(|&op| gap(op) / op.0.max(1) as f64).collect();
    let within = shares.iter().filter(|&&s| s <= 0.05).count();
    checks.require(total_gap <= 0.05 * total_dur, || {
        format!("{root}: layer spans leave {total_gap:.0} of {total_dur:.0} ns uncovered")
    });
    let median = stats::median(&shares);
    checks.require(median <= 0.05, || {
        format!(
            "{root}: the median op has {:.1}% outside its layer spans",
            median * 100.0
        )
    });
    format!(
        "{within} of {} {root} ops have layer spans within 5% of their traced latency \
         ({:.2}% uncovered overall)",
        ops.len(),
        total_gap / total_dur.max(1.0) * 100.0
    )
}

/// Writes the spans to `.bench_out/<workload>-seed<seed>.spans.jsonl`.
pub fn write_spans(tr: &trace::Tracer, workload: &str, seed: u64, checks: &mut Checks) {
    let path = std::path::Path::new(OUT_DIR).join(format!("{workload}-seed{seed}.spans.jsonl"));
    let written = tr.write_jsonl(&path);
    checks.require(written.is_ok(), || {
        format!("writing {}: {:?}", path.display(), written.err())
    });
}

/// Runs one workload at full size.
///
/// # Errors
///
/// An unknown workload name or an I/O failure setting up the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    // One solver thread everywhere: the program, not the scheduler, is
    // what is measured (and results are identical at any thread count).
    ccs_par::set_threads(1);
    match args.workload.as_str() {
        "plan_scale" => Ok(plan_scale::run(
            args,
            &plan_scale::Size::full(),
            Corrupt::No,
        )),
        "online_stream" => Ok(online_stream::run(
            args,
            &online_stream::Size::full(),
            Corrupt::No,
        )),
        "serve_mixed" => serve_mixed::run(args, &serve_mixed::Size::full(), Corrupt::No),
        other => Err(format!(
            "unknown workload '{other}' (want one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Whether to plant a wrong expectation before the run: the self-tests
/// use it to show that the checker fails the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// Normal run.
    No,
    /// Seed the checker with a wrong expected value.
    Expectation,
}
