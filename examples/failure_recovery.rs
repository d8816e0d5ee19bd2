//! Closed-loop failure recovery: deliver the service, don't write it off.
//!
//! Replays the paper's 5-charger / 8-node field testbed under a harsh
//! failure model (20% charger breakdowns, 10% device no-shows) and compares
//! the write-off baseline against the recovery loop: unserved devices are
//! re-planned with the same algorithm from wherever they ended up, up to 3
//! extra rounds, then degraded to dedicated solo dispatches — so every
//! device is served, at a visible price.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use ccs_repro::prelude::*;

fn main() {
    let trials = 10u64;
    let noise = NoiseModel::field();
    let failures = FailureModel {
        charger_breakdown_prob: 0.2,
        device_no_show_prob: 0.1,
    };
    let config = RecoveryConfig {
        max_rounds: 3,
        degrade: true,
    };
    println!(
        "failure recovery: 8 nodes, 5 chargers, breakdown 20%, no-show 10%, {trials} trials\n"
    );
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>7} {:>9}",
        "trial", "off served", "on served", "off $", "on $", "rounds", "degraded"
    );

    let mut off_served = 0usize;
    let mut on_served = 0usize;
    let mut devices = 0usize;
    let mut off_total = Cost::ZERO;
    let mut on_total = Cost::ZERO;
    for trial in 0..trials {
        let problem = field_problem(trial);
        let plan = ccsa(&problem, &EqualShare, CcsaOptions::default());

        // Baseline: one faulty replay, losses written off.
        let off = execute_with_failures(&problem, &plan, &EqualShare, &noise, &failures, trial);
        // Recovery: same replay as round 0, then close the loop.
        let on = recover(
            &problem,
            &plan,
            Policy::Ccsa,
            &EqualShare,
            &noise,
            &failures,
            trial,
            &config,
        );

        let n = problem.num_devices();
        let off_n = off.served.iter().filter(|s| **s).count();
        let on_n = on.served.iter().filter(|s| **s).count();
        off_served += off_n;
        on_served += on_n;
        devices += n;
        off_total += off.total_cost();
        on_total += on.total_cost();
        println!(
            "{:>5} {:>9}/{} {:>9}/{} {:>12.2} {:>12.2} {:>7} {:>9}",
            trial,
            off_n,
            n,
            on_n,
            n,
            off.total_cost().value(),
            on.total_cost().value(),
            on.recovery_rounds(),
            if on.degraded { "yes" } else { "no" },
        );
    }

    let premium = (on_total.value() / off_total.value() - 1.0) * 100.0;
    println!(
        "\nwrite-off serves {off_served}/{devices} devices for {:.2} $; \
         recovery serves {on_served}/{devices} for {:.2} $ (+{premium:.1}%)",
        off_total.value(),
        on_total.value(),
    );
    println!("every unserved device is a broken service promise — recovery keeps all of them.");
}
