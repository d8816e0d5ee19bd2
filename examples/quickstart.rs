//! Quickstart: generate a workload, run every scheduler, compare costs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ccs_repro::prelude::*;

fn main() {
    // A 300 m × 300 m field with 12 rechargeable devices and 4 mobile
    // charging-service providers, deterministic from the seed.
    let scenario = ScenarioGenerator::new(2024)
        .devices(12)
        .chargers(4)
        .generate();
    let problem = CcsProblem::new(scenario);

    println!(
        "CCS instance: {} devices, {} chargers, field {:.0} m square\n",
        problem.num_devices(),
        problem.num_chargers(),
        problem.scenario().field().width(),
    );

    // The paper's schedulers plus both baselines, on the same instance and
    // sharing scheme.
    let sharing = EqualShare;
    let solo = noncooperation(&problem, &sharing);
    let clu = clustering(&problem, &sharing);
    let greedy = ccsa(&problem, &sharing, CcsaOptions::default());
    let game = ccsga(&problem, &sharing, CcsgaOptions::default());
    let exact =
        optimal(&problem, &sharing).expect("12 devices is within the exact solver's budget");

    println!(
        "{:<8} {:>12} {:>10} {:>8} {:>14} {:>12}",
        "algo", "total $", "avg $", "groups", "save vs NCP %", "gap vs OPT %"
    );
    for schedule in [&solo, &clu, &greedy, &game.schedule, &exact] {
        let row = compare(schedule, Some(&solo), Some(&exact));
        println!(
            "{:<8} {:>12.2} {:>10.2} {:>8} {:>14.1} {:>12.1}",
            row.algorithm,
            row.total.value(),
            row.average.value(),
            row.groups,
            row.saving_vs_ncp.unwrap_or(0.0),
            row.gap_vs_opt.unwrap_or(0.0),
        );
    }

    println!(
        "\nCCSGA dynamics: {} switches over {} rounds, converged={}, Nash-stable={}",
        game.switches, game.rounds, game.converged, game.nash_stable
    );

    println!("\nCCSA schedule detail:\n{greedy}");
}
