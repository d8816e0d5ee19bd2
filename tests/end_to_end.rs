//! End-to-end integration tests: the full pipeline from scenario
//! generation through every scheduler to testbed replay, spanning all
//! crates of the workspace.

use ccs_repro::prelude::*;

fn problem(seed: u64, n: usize, m: usize) -> CcsProblem {
    CcsProblem::new(
        ScenarioGenerator::new(seed)
            .devices(n)
            .chargers(m)
            .generate(),
    )
}

#[test]
fn cost_ordering_opt_le_heuristics_le_ncp() {
    for seed in 1..=10 {
        let p = problem(seed, 9, 3);
        let opt = optimal(&p, &EqualShare).unwrap();
        let greedy = ccsa(&p, &EqualShare, CcsaOptions::default());
        let game = ccsga(&p, &EqualShare, CcsgaOptions::default());
        let solo = noncooperation(&p, &EqualShare);
        let eps = Cost::new(1e-6);
        assert!(
            opt.total_cost() <= greedy.total_cost() + eps,
            "seed {seed}: OPT > CCSA"
        );
        assert!(
            opt.total_cost() <= game.schedule.total_cost() + eps,
            "seed {seed}: OPT > CCSGA"
        );
        assert!(
            greedy.total_cost() <= solo.total_cost() + eps,
            "seed {seed}: CCSA > NCP"
        );
        assert!(
            game.schedule.total_cost() <= solo.total_cost() + eps,
            "seed {seed}: CCSGA > NCP"
        );
    }
}

#[test]
fn every_scheduler_emits_valid_schedules() {
    for seed in [3, 17, 99] {
        let p = problem(seed, 14, 5);
        for schedule in [
            noncooperation(&p, &EqualShare),
            ccsa(&p, &EqualShare, CcsaOptions::default()),
            ccsga(&p, &EqualShare, CcsgaOptions::default()).schedule,
        ] {
            schedule
                .validate(&p)
                .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", schedule.algorithm()));
        }
    }
}

#[test]
fn headline_shape_simulation() {
    // H1/H2 shape at integration scale: across seeds, CCSA saves a
    // substantial fraction over NCP and stays close to OPT.
    let mut savings = Vec::new();
    let mut gaps = Vec::new();
    for seed in 1..=15 {
        let p = problem(seed, 10, 4);
        let opt = optimal(&p, &EqualShare).unwrap();
        let greedy = ccsa(&p, &EqualShare, CcsaOptions::default());
        let solo = noncooperation(&p, &EqualShare);
        savings.push(saving_percent(greedy.total_cost(), solo.total_cost()));
        gaps.push(gap_above_optimal_percent(
            greedy.total_cost(),
            opt.total_cost(),
        ));
    }
    let avg_saving = savings.iter().sum::<f64>() / savings.len() as f64;
    let avg_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    assert!(
        avg_saving > 15.0,
        "expected substantial cooperative saving, got {avg_saving:.1}%"
    );
    assert!(
        avg_gap < 15.0,
        "expected near-optimal CCSA, got {avg_gap:.1}% above OPT"
    );
    assert!(avg_gap >= 0.0);
}

#[test]
fn headline_shape_field_experiment() {
    // H3 shape: the realized field saving exceeds the planner's simulated
    // saving band lower end, and stays positive on every trial batch.
    let mut coop = Cost::ZERO;
    let mut solo = Cost::ZERO;
    for trial in 0..6 {
        let p = field_problem(trial);
        let plan = ccsa(&p, &EqualShare, CcsaOptions::default());
        let base = noncooperation(&p, &EqualShare);
        coop += execute(&p, &plan, &EqualShare, &NoiseModel::field(), trial).total_cost();
        solo += execute(&p, &base, &EqualShare, &NoiseModel::field(), trial).total_cost();
    }
    let saving = saving_percent(coop, solo);
    assert!(saving > 20.0, "field saving too small: {saving:.1}%");
}

#[test]
fn ccsga_converges_to_nash_equilibrium_at_scale() {
    let p = problem(5, 60, 8);
    let out = ccsga(&p, &EqualShare, CcsgaOptions::default());
    assert!(out.converged, "CCSGA must converge");
    assert!(out.nash_stable, "CCSGA must end in a pure Nash equilibrium");
    out.schedule.validate(&p).unwrap();
}

#[test]
fn testbed_replay_matches_plan_without_noise() {
    let p = problem(8, 12, 4);
    for schedule in [
        ccsa(&p, &EqualShare, CcsaOptions::default()),
        noncooperation(&p, &EqualShare),
    ] {
        let run = execute(&p, &schedule, &EqualShare, &NoiseModel::ideal(), 0);
        assert!(
            (run.total_cost() - schedule.total_cost()).abs() < Cost::new(1e-6),
            "{}: ideal replay {} vs plan {}",
            schedule.algorithm(),
            run.total_cost(),
            schedule.total_cost()
        );
    }
}

#[test]
fn sharing_schemes_preserve_group_totals() {
    // Budget balance means the scheme changes who pays, never how much in
    // total: the schedule total is scheme-invariant for fixed groupings.
    let p = problem(9, 12, 4);
    // Fix groupings by disabling the IR repair (it depends on the scheme).
    let options = CcsaOptions {
        ir_repair: false,
        ..Default::default()
    };
    let totals: Vec<Cost> = all_schemes()
        .into_iter()
        .map(|scheme| ccsa(&p, scheme.as_ref(), options).total_cost())
        .collect();
    for pair in totals.windows(2) {
        assert!(
            (pair[0] - pair[1]).abs() < Cost::new(1e-6),
            "totals differ across schemes: {totals:?}"
        );
    }
}

#[test]
fn scenario_serde_preserves_scheduling_results() {
    let p = problem(11, 10, 3);
    let json = serde_json::to_string(p.scenario()).unwrap();
    let back: ccs_wrsn::scenario::Scenario = serde_json::from_str(&json).unwrap();
    let p2 = CcsProblem::new(back);
    let a = ccsa(&p, &EqualShare, CcsaOptions::default());
    let b = ccsa(&p2, &EqualShare, CcsaOptions::default());
    assert_eq!(a, b, "scheduling must be invariant under serde round-trip");
}

/// Runs the `ccs` binary with `--report` and parses the emitted JSON into a
/// typed [`ccs_repro::ccs_telemetry::RunReport`]. Separate processes give
/// each run a fresh (process-wide) telemetry registry.
fn run_report_for(algo: &str) -> ccs_repro::ccs_telemetry::RunReport {
    use std::process::Command;
    let dir = std::env::temp_dir();
    let scenario = dir.join(format!(
        "ccs_e2e_{}_{algo}_scenario.json",
        std::process::id()
    ));
    let report = dir.join(format!("ccs_e2e_{}_{algo}_report.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_ccs"))
        .args(["gen", "--seed", "3", "--devices", "12", "--chargers", "4"])
        .args(["-o", scenario.to_str().unwrap()])
        .output()
        .expect("gen runs");
    assert!(out.status.success(), "gen failed: {out:?}");
    let out = Command::new(env!("CARGO_BIN_EXE_ccs"))
        .args(["plan", "--scenario", scenario.to_str().unwrap()])
        .args(["--algo", algo, "--report", report.to_str().unwrap()])
        .output()
        .expect("plan runs");
    assert!(out.status.success(), "plan --algo {algo} failed: {out:?}");
    let json = std::fs::read_to_string(&report).expect("report written");
    let _ = std::fs::remove_file(&scenario);
    let _ = std::fs::remove_file(&report);
    serde_json::from_str(&json).expect("report parses as a RunReport")
}

#[test]
fn ccsga_run_report_records_game_dynamics() {
    let report = run_report_for("ccsga");
    assert!(
        report.counter("coalition.switch_ops") > 0,
        "expected switch operations, got {:?}",
        report.counters
    );
    assert!(
        report.counter("coalition.rounds") > 0,
        "{:?}",
        report.counters
    );
    // Phase wall-clock timings: the outer algorithm span and the nested
    // engine span must both be present with real durations. `ccs plan`
    // runs through the daemon's command layer, so they nest under its
    // `serve.plan` span.
    for span in ["serve.plan/ccsga", "serve.plan/ccsga/coalition_run"] {
        let stats = report.spans.get(span).unwrap_or_else(|| {
            panic!(
                "missing span {span:?} in {:?}",
                report.spans.keys().collect::<Vec<_>>()
            )
        });
        assert_eq!(stats.count, 1, "{span} opened once");
        assert!(stats.total_ms > 0.0, "{span} has wall-clock time");
    }
}

#[test]
fn ccsa_run_report_records_facility_pricing() {
    let report = run_report_for("ccsa");
    // The production prefix-scan minimizer is oracle-free since the
    // evaluation kernel landed: the congestion term is tabulated instead of
    // reconstructed from `SetFunction::eval` round-trips.
    assert_eq!(
        report.counter("sfm.oracle_evals"),
        0,
        "the prefix-scan path must not burn oracle evaluations, got {:?}",
        report.counters
    );
    assert!(
        report.counter("ccsa.facility_evals") > 0,
        "{:?}",
        report.counters
    );
    assert!(report.counter("ccsa.rounds") > 0, "{:?}", report.counters);
    assert!(
        report.spans.contains_key("serve.plan/ccsa/greedy"),
        "{:?}",
        report.spans.keys().collect::<Vec<_>>()
    );
}

#[test]
fn telemetry_stays_dormant_without_opt_in() {
    // Library calls must not accumulate anything unless a surface enables
    // the global registry: the schedulers above ran in this process, so an
    // empty report here proves the disabled path really is a no-op.
    let p = problem(2, 8, 3);
    let _ = ccsa(&p, &EqualShare, CcsaOptions::default());
    let report = ccs_repro::ccs_telemetry::global().report();
    assert_eq!(report.counter("sfm.oracle_evals"), 0);
    assert!(report.spans.is_empty());
}

#[test]
fn larger_mixed_pipeline_smoke() {
    // One bigger end-to-end pass exercising everything together.
    let p = problem(42, 40, 6);
    let greedy = ccsa(&p, &ProportionalShare, CcsaOptions::default());
    greedy.validate(&p).unwrap();
    let game = ccsga(&p, &ProportionalShare, CcsgaOptions::default());
    game.schedule.validate(&p).unwrap();
    let run = execute(&p, &greedy, &ProportionalShare, &NoiseModel::field(), 1);
    assert!(run.total_cost() > Cost::ZERO);
    assert!(run.makespan > Seconds::ZERO);
    assert_eq!(run.device_costs.len(), 40);
    let fairness = jain_fairness(&run.device_costs);
    assert!(fairness > 0.0 && fairness <= 1.0);
}
