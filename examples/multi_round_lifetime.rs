//! Multi-round operation: charging as a *recurring* service.
//!
//! Simulates a season of operation — sensing drains batteries, devices buy
//! refills whenever they drop below threshold — and compares the cumulative
//! operating expenditure (OPEX) of the three scheduling policies on the
//! exact same consumption sequence.
//!
//! ```text
//! cargo run --release --example multi_round_lifetime
//! ```

use ccs_repro::ccs_core::lifetime::{CONSUMPTION, REFILL_THRESHOLD, TARGET_SOC};
use ccs_repro::prelude::*;

fn main() {
    let scenario = ScenarioGenerator::new(314)
        .devices(24)
        .chargers(6)
        .field_side(250.0)
        .generate();
    let config = LifetimeConfig {
        rounds: 40,
        ..Default::default()
    };
    println!(
        "24 devices, 6 chargers, {} rounds, {:.0}-{:.0} J drawn per round, \
         refill below {:.0}% up to {:.0}%\n",
        config.rounds,
        CONSUMPTION.lo,
        CONSUMPTION.hi,
        REFILL_THRESHOLD * 100.0,
        TARGET_SOC * 100.0,
    );

    let policies = [Policy::Noncooperative, Policy::Ccsa, Policy::Ccsga];
    println!(
        "{:<8} {:>12} {:>8} {:>14} {:>14} {:>12}",
        "policy", "OPEX $", "hires", "$/hire", "energy kJ", "survival %"
    );
    let mut baseline = None;
    for policy in policies {
        let report = run_lifetime(&scenario, &EqualShare, policy, &config);
        println!(
            "{:<8} {:>12.2} {:>8} {:>14.2} {:>14.1} {:>12.1}",
            policy.name(),
            report.total_cost.value(),
            report.hires,
            report.total_cost.value() / report.hires.max(1) as f64,
            report.energy_purchased.value() / 1000.0,
            report.survival_rate * 100.0,
        );
        match &baseline {
            None => baseline = Some(report.total_cost),
            Some(ncp) => println!(
                "{:<8} season saving over noncooperation: {:.1}%",
                "",
                saving_percent(report.total_cost, *ncp)
            ),
        }
    }

    // Show the per-round rhythm of the cooperative policy.
    let report = run_lifetime(&scenario, &EqualShare, Policy::Ccsa, &config);
    let busy_rounds = report
        .per_round_cost
        .iter()
        .filter(|c| **c > Cost::ZERO)
        .count();
    println!(
        "\nccsa bought charging in {busy_rounds}/{} rounds; peak round {:.2} $",
        config.rounds,
        report
            .per_round_cost
            .iter()
            .copied()
            .fold(Cost::ZERO, Cost::max)
            .value(),
    );
}
