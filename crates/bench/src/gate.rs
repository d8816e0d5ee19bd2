//! The shared bench-regression gate.
//!
//! Every suite of the `bench_gate` runner emits a `ccs-bench/v1` document
//! with a top-level `benches` object mapping cell names to numeric metrics,
//! and gates a `--check` run against the newest committed baseline. The
//! suites emit disjoint cell families (`smoke` the hot-path timings,
//! `serve` the daemon throughput), so the baseline lookup is *name-aware*:
//! it picks the newest `BENCH_<N>.json` at the workspace root that covers
//! at least one of the caller's cell names. A freshly committed baseline
//! from one family therefore never silently turns another family's gate
//! into a no-op.
//!
//! # Host calibration
//!
//! Wall-clock baselines only transfer between hosts of similar speed: a
//! `t1_mean_ms` recorded on a fast CI runner fails any 20% gate on a slower
//! laptop even when the code got *faster*. Documents therefore record a
//! `host_sentinel_ms` — the wall clock of [`host_sentinel_ms`], a fixed
//! deterministic single-threaded workload — and [`regressions`] rescales
//! the baseline of every [`Gate`] marked `host_sensitive` by the sentinel
//! ratio before comparing: a slower host stretches a time budget and
//! lowers a throughput floor by the same factor. When either side lacks
//! the sentinel (baselines committed before calibration existed),
//! host-sensitive gates are skipped with a notice on stderr;
//! host-independent gates (exact work counters) still apply, so the
//! algorithmic regression net stays up.

use serde_json::Value;
use std::path::{Path, PathBuf};

/// Root field under which bench documents record their host calibration.
pub const SENTINEL_FIELD: &str = "host_sentinel_ms";

/// Which direction of drift is a regression for a gated field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger numbers are regressions (timings, work counters).
    HigherIsWorse,
    /// Smaller numbers are regressions (throughput).
    LowerIsWorse,
}

/// One gated metric: a field of each bench entry, a relative tolerance,
/// and the regression direction.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Field name inside each `benches.<name>` object.
    pub field: &'static str,
    /// Relative tolerance (0.20 = 20% drift allowed).
    pub tolerance: f64,
    /// Which way drift counts as a regression.
    pub direction: Direction,
    /// Whether a zero baseline with a nonzero current value fails (exact
    /// counters: any growth from zero is real) or is skipped (timings:
    /// a zero baseline carries no signal).
    pub zero_base_fails: bool,
    /// Whether the metric tracks raw host speed (wall-clock timings) and
    /// must be compared through the `host_sentinel_ms` calibration, or is
    /// host-independent (work counters, ratios) and compares as recorded.
    pub host_sensitive: bool,
}

/// Wall clock (ms) of a fixed, deterministic, single-threaded workload —
/// the calibration constant that makes timing baselines comparable across
/// hosts. Min of five passes: the minimum estimates the host's unloaded
/// speed, which is what the gate's ratio needs, and is far more stable
/// than a mean under background load.
pub fn host_sentinel_ms() -> f64 {
    fn pass() -> f64 {
        // xorshift64* feeding a square root: exercises both the integer
        // and the floating-point pipes, cannot be const-folded, and has a
        // loop-carried dependency so faster hosts win on latency, not on
        // vectorization tricks the real solvers don't benefit from.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut acc = 0.0_f64;
        for _ in 0..2_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += ((x >> 11) as f64).sqrt();
        }
        acc
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = std::time::Instant::now();
        std::hint::black_box(pass());
        best = best.min(start.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

/// The baseline→current calibration factor: >1 means the current host is
/// that much slower than the baseline's, so host-sensitive time budgets
/// stretch by it and throughput floors shrink by it. `None` when either
/// document lacks a positive sentinel.
pub fn timing_scale(current: &Value, baseline: &Value) -> Option<f64> {
    let read = |doc: &Value| match doc.field(SENTINEL_FIELD) {
        Value::Number(n) if n.as_f64() > 0.0 => Some(n.as_f64()),
        _ => None,
    };
    Some(read(current)? / read(baseline)?)
}

/// The directory holding the committed `BENCH_<N>.json` baselines: the
/// workspace root, wherever the runner is started from.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The newest committed baseline *covering this cell family*: the
/// `BENCH_<N>.json` in `dir` with the largest `N` whose `benches` object
/// shares at least one name with `names`. Unreadable or unrelated files
/// are skipped, so the gate degrades gracefully on a fresh checkout (no
/// baseline → `None` → skip).
pub fn newest_baseline(dir: &Path, names: &[&str]) -> Option<(String, Value)> {
    let mut candidates: Vec<(u64, String)> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter_map(|entry| {
            let file = entry.file_name().to_string_lossy().into_owned();
            let num = file
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse::<u64>()
                .ok()?;
            Some((num, file))
        })
        .collect();
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    for (_, file) in candidates {
        let Ok(text) = std::fs::read_to_string(dir.join(&file)) else {
            continue;
        };
        let Ok(value) = serde_json::from_str::<Value>(&text) else {
            continue;
        };
        let covers = value
            .field("benches")
            .as_object()
            .is_some_and(|benches| names.iter().any(|n| benches.contains_key(*n)));
        if covers {
            return Some((file, value));
        }
    }
    None
}

/// Compares `current` against `baseline` under `gates`, returning one
/// human-readable line per regression beyond its tolerance. Benches or
/// fields absent from either side are ignored (older baseline schemas
/// simply gate on fewer metrics). Host-sensitive gates compare against the
/// baseline rescaled by [`timing_scale`]; without sentinels on both sides
/// they are skipped with a notice on stderr.
pub fn regressions(current: &Value, baseline: &Value, gates: &[Gate]) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(base_benches) = baseline.field("benches").as_object() else {
        return failures;
    };
    let Some(cur_benches) = current.field("benches").as_object() else {
        return failures;
    };
    let scale = timing_scale(current, baseline);
    if scale.is_none() && gates.iter().any(|g| g.host_sensitive) {
        eprintln!(
            "bench-regression gate: no host_sentinel_ms on both sides — \
             skipping host-sensitive fields (timings don't transfer across \
             hosts; counters still gate)"
        );
    }
    for (name, entry) in cur_benches {
        let Some(base_entry) = base_benches.get(name) else {
            continue;
        };
        for gate in gates {
            let (Value::Number(cur), Value::Number(base)) =
                (entry.field(gate.field), base_entry.field(gate.field))
            else {
                continue;
            };
            let (cur, mut base) = (cur.as_f64(), base.as_f64());
            if gate.host_sensitive {
                // `s > 1`: this host is slower, so it needs more time and
                // reaches less throughput than the baseline's host.
                match (scale, gate.direction) {
                    (Some(s), Direction::HigherIsWorse) => base *= s,
                    (Some(s), Direction::LowerIsWorse) => base /= s,
                    (None, _) => continue,
                }
            }
            let failed = if base > 0.0 {
                match gate.direction {
                    Direction::HigherIsWorse => cur > base * (1.0 + gate.tolerance),
                    Direction::LowerIsWorse => cur < base * (1.0 - gate.tolerance),
                }
            } else {
                gate.zero_base_fails && gate.direction == Direction::HigherIsWorse && cur > 0.0
            };
            if failed {
                let drift = if base > 0.0 {
                    format!(" ({:+.0}%)", (cur / base - 1.0) * 100.0)
                } else {
                    String::new()
                };
                let scaled = match scale {
                    Some(s) if gate.host_sensitive => format!(" (host-scaled ×{s:.2})"),
                    _ => String::new(),
                };
                failures.push(format!(
                    "{name}: {} {cur:.2} vs baseline {base:.2}{scaled}{drift}",
                    gate.field
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(json: &str) -> Value {
        serde_json::from_str(json).unwrap()
    }

    const GATES: [Gate; 2] = [
        Gate {
            field: "serial_ms",
            tolerance: 0.20,
            direction: Direction::HigherIsWorse,
            zero_base_fails: false,
            host_sensitive: false,
        },
        Gate {
            field: "oracle_evals",
            tolerance: 0.05,
            direction: Direction::HigherIsWorse,
            zero_base_fails: true,
            host_sensitive: false,
        },
    ];

    /// `serial_ms` gated through the sentinel calibration, the counter raw.
    const CALIBRATED: [Gate; 2] = [
        Gate {
            field: "serial_ms",
            tolerance: 0.20,
            direction: Direction::HigherIsWorse,
            zero_base_fails: false,
            host_sensitive: true,
        },
        Gate {
            field: "oracle_evals",
            tolerance: 0.05,
            direction: Direction::HigherIsWorse,
            zero_base_fails: true,
            host_sensitive: false,
        },
    ];

    #[test]
    fn flags_only_out_of_tolerance_drift() {
        let base = doc(r#"{"benches":{"a":{"serial_ms":100.0,"oracle_evals":200}}}"#);
        let ok = doc(r#"{"benches":{"a":{"serial_ms":115.0,"oracle_evals":205}}}"#);
        assert!(regressions(&ok, &base, &GATES).is_empty());
        let slow = doc(r#"{"benches":{"a":{"serial_ms":130.0,"oracle_evals":200}}}"#);
        assert_eq!(regressions(&slow, &base, &GATES).len(), 1);
        let churn = doc(r#"{"benches":{"a":{"serial_ms":100.0,"oracle_evals":300}}}"#);
        assert_eq!(regressions(&churn, &base, &GATES).len(), 1);
    }

    #[test]
    fn zero_baselines_follow_the_per_gate_policy() {
        let base = doc(r#"{"benches":{"a":{"serial_ms":0.0,"oracle_evals":0}}}"#);
        let cur = doc(r#"{"benches":{"a":{"serial_ms":50.0,"oracle_evals":3}}}"#);
        let fails = regressions(&cur, &base, &GATES);
        assert_eq!(fails.len(), 1, "timing skipped, counter flagged: {fails:?}");
        assert!(fails[0].contains("oracle_evals"));
    }

    #[test]
    fn sentinel_rescales_host_sensitive_gates() {
        // Baseline from a 10× faster host (sentinel 1 ms vs our 10 ms):
        // its 100 ms budget stretches to 1000 ms here.
        let base =
            doc(r#"{"host_sentinel_ms":1.0,"benches":{"a":{"serial_ms":100.0,"oracle_evals":5}}}"#);
        let ok = doc(
            r#"{"host_sentinel_ms":10.0,"benches":{"a":{"serial_ms":900.0,"oracle_evals":5}}}"#,
        );
        assert!(regressions(&ok, &base, &CALIBRATED).is_empty());
        let slow = doc(
            r#"{"host_sentinel_ms":10.0,"benches":{"a":{"serial_ms":1300.0,"oracle_evals":5}}}"#,
        );
        let fails = regressions(&slow, &base, &CALIBRATED);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("host-scaled"), "{fails:?}");
    }

    #[test]
    fn missing_sentinel_skips_timing_but_still_gates_counters() {
        // Pre-calibration baseline: no sentinel. The wall clock can't be
        // compared, the exact counter still can.
        let base = doc(r#"{"benches":{"a":{"serial_ms":5.0,"oracle_evals":100}}}"#);
        let cur = doc(
            r#"{"host_sentinel_ms":10.0,"benches":{"a":{"serial_ms":50.0,"oracle_evals":120}}}"#,
        );
        let fails = regressions(&cur, &base, &CALIBRATED);
        assert_eq!(fails.len(), 1, "timing skipped, counter flagged: {fails:?}");
        assert!(fails[0].contains("oracle_evals"));
    }

    #[test]
    fn host_sentinel_is_positive_and_finite() {
        let ms = host_sentinel_ms();
        assert!(ms.is_finite() && ms > 0.0, "sentinel {ms}");
    }

    #[test]
    fn lower_is_worse_gates_throughput() {
        let gate = [Gate {
            field: "throughput_rps",
            tolerance: 0.5,
            direction: Direction::LowerIsWorse,
            zero_base_fails: false,
            host_sensitive: false,
        }];
        let base = doc(r#"{"benches":{"s":{"throughput_rps":100.0}}}"#);
        assert!(regressions(
            &doc(r#"{"benches":{"s":{"throughput_rps":60.0}}}"#),
            &base,
            &gate
        )
        .is_empty());
        assert_eq!(
            regressions(
                &doc(r#"{"benches":{"s":{"throughput_rps":40.0}}}"#),
                &base,
                &gate
            )
            .len(),
            1
        );
    }

    #[test]
    fn missing_benches_and_fields_are_ignored() {
        let base = doc(r#"{"benches":{"other":{"serial_ms":1.0}}}"#);
        let cur = doc(r#"{"benches":{"a":{"serial_ms":99.0}}}"#);
        assert!(regressions(&cur, &base, &GATES).is_empty());
        let v1 = doc(r#"{"benches":{"a":{"serial_ms":1.0}}}"#);
        let cur = doc(r#"{"benches":{"a":{"serial_ms":1.0,"oracle_evals":999}}}"#);
        assert!(regressions(&cur, &v1, &GATES).is_empty());
    }

    #[test]
    fn slower_host_lowers_a_throughput_floor() {
        // Baseline from a 2× faster host: its 100 items/s is 50 here, so
        // the 25% floor sits at 37.5, not at 150.
        let gate = [Gate {
            field: "items_per_s",
            tolerance: 0.25,
            direction: Direction::LowerIsWorse,
            zero_base_fails: false,
            host_sensitive: true,
        }];
        let base = doc(r#"{"host_sentinel_ms":1.0,"benches":{"s":{"items_per_s":100.0}}}"#);
        let ok = doc(r#"{"host_sentinel_ms":2.0,"benches":{"s":{"items_per_s":45.0}}}"#);
        assert!(regressions(&ok, &base, &gate).is_empty());
        let slow = doc(r#"{"host_sentinel_ms":2.0,"benches":{"s":{"items_per_s":30.0}}}"#);
        let fails = regressions(&slow, &base, &gate);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("vs baseline 50.00"), "{fails:?}");
    }

    #[test]
    fn newest_baseline_is_the_highest_number_covering_a_name() {
        let dir = std::env::temp_dir().join(format!("ccs-gate-lookup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |file: &str, text: &str| std::fs::write(dir.join(file), text).unwrap();
        write("BENCH_3.json", r#"{"benches":{"a":{}}}"#);
        write("BENCH_10.json", r#"{"benches":{"b":{}}}"#);
        write("BENCH_12.json", "{not json");
        write("BENCH_x.json", r#"{"benches":{"a":{}}}"#);
        let found = |names: &[&str]| newest_baseline(&dir, names).map(|(file, _)| file);
        assert_eq!(found(&["a"]).as_deref(), Some("BENCH_3.json"));
        assert_eq!(found(&["a", "b"]).as_deref(), Some("BENCH_10.json"));
        assert_eq!(found(&["c"]), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_baselines_are_found_from_any_working_directory() {
        // `cargo test` runs this from `crates/bench`, which holds no
        // baseline of its own.
        let (file, _) = newest_baseline(&workspace_root(), &["ccsa_n40"]).expect("smoke baseline");
        assert!(file.starts_with("BENCH_"), "{file}");
    }
}
