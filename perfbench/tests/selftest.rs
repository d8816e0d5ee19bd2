//! Self-tests of the benchmark at a tiny size: outputs repeat exactly at
//! one seed, another seed changes the inputs, and a wrong expectation fed
//! to the checker fails the run.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ccs_perfbench::{
    online_stream, plan_scale, serve_mixed, Args, Corrupt, Outcome, END_TO_END, PER_LAYER,
    WORKLOADS,
};
use std::sync::Mutex;
use std::time::Duration;

/// The workloads share process-global state (the telemetry registry, the
/// daemon's socket path), so the tests run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(workload: &str, seed: u64, trace: bool, corrupt: Corrupt) -> Outcome {
    ccs_par::set_threads(1);
    let args = Args {
        workload: workload.to_string(),
        seed,
        seconds: Duration::from_millis(200),
        trace,
    };
    match workload {
        "plan_scale" => plan_scale::run(&args, &plan_scale::Size::tiny(), corrupt),
        "online_stream" => online_stream::run(&args, &online_stream::Size::tiny(), corrupt),
        "serve_mixed" => serve_mixed::run(&args, &serve_mixed::Size::tiny(), corrupt)
            .expect("servers start and stop"),
        other => panic!("unknown workload {other}"),
    }
}

fn correct(workload: &str, outcome: &Outcome) {
    assert!(
        outcome.correct(),
        "{workload}: {:?}",
        outcome.checks.messages
    );
}

/// Untraced runs report exactly the end-to-end metrics, traced runs
/// exactly the per-layer ones, with their units.
fn reports(outcome: &Outcome, expected: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, expected);
}

#[test]
fn one_seed_repeats_cost_share_and_counters_exactly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in WORKLOADS {
        let untraced = run(workload, 7, false, Corrupt::No);
        let traced = run(workload, 7, true, Corrupt::No);
        let again = run(workload, 7, true, Corrupt::No);
        for outcome in [&untraced, &traced, &again] {
            correct(workload, outcome);
        }
        reports(&untraced, &END_TO_END);
        reports(&traced, &PER_LAYER);
        assert_eq!(traced.exact, again.exact, "{workload}: traced runs differ");
        assert!(
            traced.exact.keys().any(|k| k.starts_with("counter.")),
            "{workload}: traced runs record the program's counters"
        );
        for key in ["cost", "served_share"] {
            assert_eq!(
                untraced.exact[key], traced.exact[key],
                "{workload}: traced {key} differs from untraced"
            );
        }
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_ne!(
        plan_scale::generate(7, &plan_scale::Size::tiny()),
        plan_scale::generate(8, &plan_scale::Size::tiny())
    );
    let (a, b) = (
        online_stream::generate(7, &online_stream::Size::tiny()),
        online_stream::generate(8, &online_stream::Size::tiny()),
    );
    assert_ne!(a[0].0, b[0].0, "scenarios differ");
    assert_ne!(
        a[0].1.iter().map(|r| r.arrival.value()).collect::<Vec<_>>(),
        b[0].1.iter().map(|r| r.arrival.value()).collect::<Vec<_>>(),
        "streams differ"
    );
    for workload in WORKLOADS {
        let (x, y) = (
            run(workload, 7, false, Corrupt::No),
            run(workload, 8, false, Corrupt::No),
        );
        assert_ne!(x.exact["cost"], y.exact["cost"], "{workload}");
    }
}

#[test]
fn a_corrupted_expectation_fails_the_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = run(workload, 7, trace, Corrupt::Expectation);
            assert!(!outcome.correct(), "{workload} trace={trace} passed");
            assert!(outcome.checks.failed > 0);
            assert!(outcome.json_line().starts_with(r#"{"correct":false,"#));
        }
    }
}
