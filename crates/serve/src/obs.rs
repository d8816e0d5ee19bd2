//! Request-scoped tracing and the live metrics surface of the daemon.
//!
//! Every admitted request gets a stable `req_id` and a [`ReqTrace`] that
//! rides with the job through the pipeline, timing each [`Phase`]
//! (admission, queue wait, cache lookup, tables build, solve, serialize).
//! When the response is written the trace folds into [`ServeObs`]:
//!
//! * per-command and per-phase latency histograms (log-linear, bounded
//!   memory, mergeable — [`ccs_telemetry::hist`]);
//! * an optional one-line-JSON-per-request trace file (`--trace-requests`,
//!   size-capped via [`ccs_telemetry::RotatingWriter`]);
//! * a slow-request log: any request whose end-to-end latency crosses
//!   `--slow-ms` is counted, flagged `"slow":true` in its trace line, and
//!   echoed to stderr with its full phase breakdown.
//!
//! The aggregated state is queryable at any time as a versioned JSON
//! snapshot ([`STATS_SCHEMA`]) — served by the `{"cmd":"stats"}` protocol
//! command, printed by the `--stats-every` ticker, and rendered to
//! Prometheus text format for `--metrics-file`.

use crate::protocol::object;
use ccs_telemetry::{Histogram, HistogramSnapshot, RotatingWriter};
use serde::value::{Number, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Version tag of the stats snapshot JSON. Consumers must check it:
/// additions bump nothing, renames/removals bump the suffix.
pub const STATS_SCHEMA: &str = "ccs-serve-stats/v1";

/// The timed stages of one request's journey through the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Parsing the request line and the admission decision.
    Admission,
    /// Sitting in the admission queue waiting for a worker.
    QueueWait,
    /// Scenario parse / cache lookup (`CcsProblem` construction on miss).
    CacheLookup,
    /// Forcing the `ProblemTables` kernel (near-zero when already built).
    Tables,
    /// The planner / testbed computation itself.
    Solve,
    /// Rendering the response line.
    Serialize,
}

/// All phases, in pipeline order.
pub const PHASES: [Phase; 6] = [
    Phase::Admission,
    Phase::QueueWait,
    Phase::CacheLookup,
    Phase::Tables,
    Phase::Solve,
    Phase::Serialize,
];

impl Phase {
    /// The snapshot/trace key of this phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::QueueWait => "queue_wait",
            Phase::CacheLookup => "cache_lookup",
            Phase::Tables => "tables",
            Phase::Solve => "solve",
            Phase::Serialize => "serialize",
        }
    }

    /// The position in [`PHASES`] (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// The protocol commands that run on the worker pool — the ones the
/// service admits, each with an end-to-end latency histogram.
pub const COMMANDS: [&str; 4] = ["plan", "replay", "lifetime", "online_step"];

fn command_index(cmd: &str) -> Option<usize> {
    COMMANDS.iter().position(|c| *c == cmd)
}

/// One request's timing record, created at admission and carried through
/// the pipeline with the job. Phase recording is plain mutation — the
/// trace is owned by whichever thread holds the request.
#[derive(Debug)]
pub struct ReqTrace {
    /// Stable per-server request id (assigned at admission, monotonic).
    pub req_id: u64,
    started: Instant,
    phase_ns: [u64; PHASES.len()],
}

impl ReqTrace {
    /// Adds `ns` to `phase` (phases hit twice — e.g. two cache lookups —
    /// accumulate).
    pub fn record(&mut self, phase: Phase, ns: u64) {
        self.phase_ns[phase.index()] = self.phase_ns[phase.index()].saturating_add(ns);
    }

    /// Times `f` into `phase` and returns its output.
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(phase, elapsed_ns(start));
        out
    }

    /// Nanoseconds since this trace was opened (the end-to-end clock).
    pub fn total_ns(&self) -> u64 {
        elapsed_ns(self.started)
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The server's aggregated observability state: request ids, latency
/// histograms, the slow counter, and the optional trace writer. One per
/// server, shared by the reader and every worker.
pub struct ServeObs {
    started: Instant,
    next_req_id: AtomicU64,
    commands: [Histogram; COMMANDS.len()],
    phases: [Histogram; PHASES.len()],
    slow: AtomicU64,
    queue_high_water: AtomicU64,
    slow_threshold: Option<Duration>,
    trace: Option<RotatingWriter>,
}

impl ServeObs {
    /// Creates the observability state. `trace` is the `--trace-requests`
    /// writer (already size-capped); `slow_threshold` the `--slow-ms`
    /// cutoff.
    pub fn new(trace: Option<RotatingWriter>, slow_threshold: Option<Duration>) -> Self {
        ServeObs {
            started: Instant::now(),
            next_req_id: AtomicU64::new(1),
            commands: std::array::from_fn(|_| Histogram::new()),
            phases: std::array::from_fn(|_| Histogram::new()),
            slow: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            slow_threshold,
            trace,
        }
    }

    /// Opens the trace of one request: assigns its `req_id` and starts the
    /// end-to-end clock.
    pub fn start(&self) -> ReqTrace {
        ReqTrace {
            req_id: self.next_req_id.fetch_add(1, Ordering::Relaxed),
            started: Instant::now(),
            phase_ns: [0; PHASES.len()],
        }
    }

    /// Observes a queue depth (tracks the high-water mark).
    pub fn observe_queue_depth(&self, depth: usize) {
        self.queue_high_water
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Seconds since the server started.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Requests that crossed the slow threshold so far.
    pub fn slow_count(&self) -> u64 {
        self.slow.load(Ordering::Relaxed)
    }

    /// The deepest queue observed at any admission.
    pub fn high_water(&self) -> u64 {
        self.queue_high_water.load(Ordering::Relaxed)
    }

    /// Folds one finished request into the aggregates: end-to-end latency
    /// into the command's histogram, each phase into its histogram, the
    /// slow-log check, and the JSONL trace line. `status` is the response
    /// disposition (`ok`, `bad_request`, `expired`, …).
    pub fn finish(&self, trace: &ReqTrace, cmd: &str, status: &str) {
        let total_ns = trace.total_ns();
        if let Some(i) = command_index(cmd) {
            self.commands[i].record(total_ns);
        }
        for phase in PHASES {
            let ns = trace.phase_ns[phase.index()];
            if ns > 0 {
                self.phases[phase.index()].record(ns);
            }
        }
        let slow = self
            .slow_threshold
            .is_some_and(|t| Duration::from_nanos(total_ns) >= t);
        if slow {
            self.slow.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "{}",
                render_value(&trace_value(trace, cmd, status, total_ns, true))
            );
        }
        if let Some(writer) = &self.trace {
            writer.write_line(&render_value(&trace_value(
                trace, cmd, status, total_ns, slow,
            )));
        }
    }

    /// The `latency_us` object of the stats snapshot: one entry per
    /// command (`serve.<cmd>`) and per phase (`phase.<name>`), each with
    /// count/p50/p90/p99/p999/max/mean in microseconds.
    pub fn latency_value(&self) -> Value {
        let mut map = BTreeMap::new();
        for (i, cmd) in COMMANDS.iter().enumerate() {
            map.insert(
                format!("serve.{cmd}"),
                latency_entry(&self.commands[i].snapshot()),
            );
        }
        for phase in PHASES {
            map.insert(
                format!("phase.{}", phase.name()),
                latency_entry(&self.phases[phase.index()].snapshot()),
            );
        }
        Value::Object(map)
    }
}

fn trace_value(trace: &ReqTrace, cmd: &str, status: &str, total_ns: u64, slow: bool) -> Value {
    let us = |ns: u64| Value::Number(Number::PosInt(ns / 1_000));
    let phases = PHASES.iter().map(|p| (p.name(), trace.phase_ns[p.index()]));
    let phases = phases.filter(|(_, ns)| *ns > 0).map(|(p, ns)| (p, us(ns)));
    object([
        ("cmd", Value::String(cmd.to_string())),
        ("phases_us", object(phases)),
        ("req_id", Value::Number(Number::PosInt(trace.req_id))),
        ("slow", Value::Bool(slow)),
        ("status", Value::String(status.to_string())),
        ("total_us", us(total_ns)),
    ])
}

/// Renders one histogram snapshot (nanosecond samples) as the standard
/// microsecond latency entry (`count`/`max`/`mean`/`p50`/`p90`/`p99`/
/// `p999`) — shared by the daemon's stats snapshot and the gateway's.
pub fn latency_entry(snap: &HistogramSnapshot) -> Value {
    let us = |ns: u64| Value::Number(Number::PosInt(ns / 1_000));
    object([
        ("count", Value::Number(Number::PosInt(snap.count))),
        ("max", us(snap.max)),
        ("mean", Value::Number(Number::Float(snap.mean() / 1_000.0))),
        ("p50", us(snap.quantile(0.50))),
        ("p90", us(snap.quantile(0.90))),
        ("p99", us(snap.quantile(0.99))),
        ("p999", us(snap.quantile(0.999))),
    ])
}

/// Renders a value tree as one canonical line (objects are `BTreeMap`s, so
/// key order is stable).
pub fn render_value(value: &Value) -> String {
    serde_json::to_string(value).expect("value tree serializes")
}

/// Renders a stats snapshot as Prometheus text exposition format: every
/// scalar leaf becomes a `ccs_`-prefixed gauge, the `latency_us` tree
/// becomes `ccs_latency_us{series="…",stat="…"}` samples.
pub fn render_prometheus(snapshot: &Value) -> String {
    let mut out = String::new();
    let Value::Object(top) = snapshot else {
        return out;
    };
    for (section, value) in top {
        match (section.as_str(), value) {
            ("schema", _) => {}
            ("latency_us", Value::Object(series)) => {
                out.push_str("# TYPE ccs_latency_us gauge\n");
                for (name, entry) in series {
                    let Value::Object(stats) = entry else {
                        continue;
                    };
                    for (stat, v) in stats {
                        if let Some(n) = prom_number(v) {
                            out.push_str(&format!(
                                "ccs_latency_us{{series=\"{name}\",stat=\"{stat}\"}} {n}\n"
                            ));
                        }
                    }
                }
            }
            (_, Value::Object(fields)) => {
                for (key, v) in fields {
                    if let Some(n) = prom_number(v) {
                        out.push_str(&format!("ccs_{section}_{key} {n}\n"));
                    }
                }
            }
            (_, v) => {
                if let Some(n) = prom_number(v) {
                    out.push_str(&format!("ccs_{section} {n}\n"));
                }
            }
        }
    }
    out
}

fn prom_number(value: &Value) -> Option<String> {
    match value {
        Value::Number(Number::PosInt(u)) => Some(u.to_string()),
        Value::Number(Number::NegInt(i)) => Some(i.to_string()),
        Value::Number(Number::Float(f)) => Some(format!("{f}")),
        _ => None,
    }
}

/// Atomically replaces `path` with `contents`: written to a sibling
/// temporary file, then renamed over, so readers never see a torn file.
/// IO errors are swallowed — metrics must never take the daemon down.
pub fn write_file_atomic(path: &str, contents: &str) {
    let tmp = format!("{path}.tmp");
    if std::fs::write(&tmp, contents).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_ids_are_unique_and_monotonic() {
        let obs = ServeObs::new(None, None);
        let a = obs.start();
        let b = obs.start();
        assert!(b.req_id > a.req_id);
    }

    #[test]
    fn phases_accumulate_and_flow_into_histograms() {
        let obs = ServeObs::new(None, None);
        let mut trace = obs.start();
        trace.record(Phase::Solve, 5_000);
        trace.record(Phase::Solve, 7_000);
        trace.record(Phase::QueueWait, 100);
        obs.finish(&trace, "plan", "ok");
        let latency = obs.latency_value();
        let solve = latency.field("phase.solve");
        assert_eq!(
            solve.field("count"),
            &Value::Number(Number::PosInt(1)),
            "two records in one trace are one sample"
        );
        assert_eq!(solve.field("max"), &Value::Number(Number::PosInt(12)));
        let plan = latency.field("serve.plan");
        assert_eq!(plan.field("count"), &Value::Number(Number::PosInt(1)));
    }

    #[test]
    fn slow_threshold_counts_and_flags() {
        let dir = std::env::temp_dir().join(format!("ccs-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let writer = RotatingWriter::create(path.to_str().unwrap(), 1 << 20).unwrap();
        let obs = ServeObs::new(Some(writer), Some(Duration::from_nanos(1)));
        let trace = obs.start();
        obs.finish(&trace, "plan", "ok");
        assert_eq!(obs.slow_count(), 1);
        let line = std::fs::read_to_string(&path).unwrap();
        assert!(line.contains("\"slow\":true"), "trace line: {line}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prometheus_rendering_flattens_the_snapshot() {
        let snapshot: Value = serde_json::from_str(
            r#"{"schema":"ccs-serve-stats/v1","uptime_s":1.5,
                "queue":{"depth":2,"capacity":64},
                "latency_us":{"serve.plan":{"count":3,"p50":120}}}"#,
        )
        .unwrap();
        let text = render_prometheus(&snapshot);
        assert!(text.contains("ccs_uptime_s 1.5"));
        assert!(text.contains("ccs_queue_depth 2"));
        assert!(text.contains("ccs_latency_us{series=\"serve.plan\",stat=\"p50\"} 120"));
        assert!(!text.contains("schema"), "schema tag is not a metric");
    }

    #[test]
    fn atomic_rewrite_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("ccs-metrics-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let path = path.to_str().unwrap();
        write_file_atomic(path, "first 1\n");
        write_file_atomic(path, "second 2\n");
        assert_eq!(std::fs::read_to_string(path).unwrap(), "second 2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
