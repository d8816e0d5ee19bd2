//! Extension experiments beyond the paper's evaluation (the "future work"
//! directions its service framing implies):
//!
//! * `fig13_lifetime` — multi-round operation: cumulative operating
//!   expenditure and hire counts over a 30-round horizon per policy;
//! * `fig14_failures` — robustness: realized cost and served fraction
//!   under increasing charger-breakdown rates (cooperation makes fewer
//!   hires, so it exposes fewer failure opportunities);
//! * `fig15_poa` — price of anarchy: how far CCSGA's Nash equilibria sit
//!   from the exact optimum, and how often the allocations are core-stable;
//! * `fig16_recovery` — closed-loop recovery: served fraction and realized
//!   cost with recovery on/off under rising breakdown probability (what it
//!   costs to actually deliver the service instead of writing losses off);
//! * `abl_exclusive` — the price of exclusivity: CCSA with shared
//!   providers vs the Hungarian-reassigned one-hire-per-provider variant.

use crate::exp::common::{mean_std, parallel_map, write_csv};
use ccs_core::prelude::*;
use ccs_testbed::noise::{FailureModel, NoiseModel};
use ccs_testbed::recover::recover;
use ccs_testbed::sim::execute_with_failures;
use ccs_wrsn::scenario::ScenarioGenerator;
use std::io;
use std::path::Path;

/// Multi-round operating expenditure.
pub fn fig13(out: &Path) -> io::Result<()> {
    println!("== fig13: 30-round lifetime OPEX (n = 20, m = 5, 10 seeds) ==");
    println!(
        "{:>8} {:>12} {:>8} {:>14} {:>12}",
        "policy", "opex $", "hires", "energy kJ", "survival %"
    );
    let policies = [
        ("ncp", Policy::Noncooperative),
        ("ccsa", Policy::Ccsa),
        ("ccsga", Policy::Ccsga),
    ];
    let runs = parallel_map((0..10u64).collect::<Vec<_>>(), |seed| {
        let scenario = ScenarioGenerator::new(seed.wrapping_mul(41) + 5)
            .devices(20)
            .chargers(5)
            .generate();
        let config = LifetimeConfig { rounds: 30, seed };
        policies
            .iter()
            .map(|(_, policy)| {
                let r = run_lifetime(&scenario, &EqualShare, *policy, &config);
                (
                    r.total_cost.value(),
                    r.hires as f64,
                    r.energy_purchased.value() / 1000.0,
                    r.survival_rate * 100.0,
                )
            })
            .collect::<Vec<_>>()
    });
    let mut rows = Vec::new();
    for (pi, (name, _)) in policies.iter().enumerate() {
        let (opex, opex_std) = mean_std(&runs.iter().map(|r| r[pi].0).collect::<Vec<_>>());
        let (hires, _) = mean_std(&runs.iter().map(|r| r[pi].1).collect::<Vec<_>>());
        let (energy, _) = mean_std(&runs.iter().map(|r| r[pi].2).collect::<Vec<_>>());
        let (survival, _) = mean_std(&runs.iter().map(|r| r[pi].3).collect::<Vec<_>>());
        println!(
            "{:>8} {:>12.1} {:>8.1} {:>14.1} {:>12.1}",
            name, opex, hires, energy, survival
        );
        rows.push(format!(
            "{name},{opex:.4},{opex_std:.4},{hires:.2},{energy:.3},{survival:.2}"
        ));
    }
    write_csv(
        out,
        "fig13.csv",
        "policy,opex_mean,opex_std,hires_mean,energy_kJ,survival_pct",
        &rows,
    )?;
    Ok(())
}

/// Robustness to charger breakdowns.
pub fn fig14(out: &Path) -> io::Result<()> {
    println!(
        "== fig14: served fraction & realized cost vs breakdown rate (n = 12, m = 4, 20 seeds) =="
    );
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "p_break", "ccsa served %", "ncp served %", "ccsa real $", "ncp real $"
    );
    let mut rows = Vec::new();
    for &p_break in &[0.0f64, 0.05, 0.10, 0.20, 0.30] {
        let runs = parallel_map((0..20u64).collect::<Vec<_>>(), |seed| {
            let problem = CcsProblem::new(
                ScenarioGenerator::new(seed.wrapping_mul(53) + 3)
                    .devices(12)
                    .chargers(4)
                    .generate(),
            );
            let failures = FailureModel {
                charger_breakdown_prob: p_break,
                device_no_show_prob: 0.0,
            };
            let coop = ccsa(&problem, &EqualShare, CcsaOptions::default());
            let solo = noncooperation(&problem, &EqualShare);
            let coop_run = execute_with_failures(
                &problem,
                &coop,
                &EqualShare,
                &NoiseModel::field(),
                &failures,
                seed,
            );
            let solo_run = execute_with_failures(
                &problem,
                &solo,
                &EqualShare,
                &NoiseModel::field(),
                &failures,
                seed,
            );
            (
                coop_run.served_fraction() * 100.0,
                solo_run.served_fraction() * 100.0,
                coop_run.total_cost().value(),
                solo_run.total_cost().value(),
            )
        });
        let (c_served, _) = mean_std(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
        let (n_served, _) = mean_std(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
        let (c_cost, _) = mean_std(&runs.iter().map(|r| r.2).collect::<Vec<_>>());
        let (n_cost, _) = mean_std(&runs.iter().map(|r| r.3).collect::<Vec<_>>());
        println!(
            "{:>8.2} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            p_break, c_served, n_served, c_cost, n_cost
        );
        rows.push(format!(
            "{p_break},{c_served:.2},{n_served:.2},{c_cost:.4},{n_cost:.4}"
        ));
    }
    write_csv(
        out,
        "fig14.csv",
        "breakdown_prob,ccsa_served_pct,ncp_served_pct,ccsa_realized_cost,ncp_realized_cost",
        &rows,
    )?;
    Ok(())
}

/// Closed-loop recovery: what it costs to actually deliver the service.
///
/// Recovery re-plans unserved devices up to 3 extra rounds and then
/// degrades stragglers to solo dispatches, so its served fraction is 100%
/// by construction; the experiment measures the *price* of that guarantee
/// (realized cost and extra rounds) against the write-off baseline as
/// breakdowns get more likely.
pub fn fig16(out: &Path) -> io::Result<()> {
    println!("== fig16: recovery on/off vs breakdown rate (n = 12, m = 4, noshow 5%, 20 seeds) ==");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "p_break", "off served%", "on served%", "off real $", "on real $", "extra rds"
    );
    let mut rows = Vec::new();
    for &p_break in &[0.0f64, 0.05, 0.10, 0.20, 0.30] {
        let runs = parallel_map((0..20u64).collect::<Vec<_>>(), |seed| {
            let problem = CcsProblem::new(
                ScenarioGenerator::new(seed.wrapping_mul(67) + 19)
                    .devices(12)
                    .chargers(4)
                    .generate(),
            );
            let failures = FailureModel {
                charger_breakdown_prob: p_break,
                device_no_show_prob: 0.05,
            };
            let noise = NoiseModel::field();
            let plan = ccsa(&problem, &EqualShare, CcsaOptions::default());
            let off = execute_with_failures(&problem, &plan, &EqualShare, &noise, &failures, seed);
            let on = recover(
                &problem,
                &plan,
                Policy::Ccsa,
                &EqualShare,
                &noise,
                &failures,
                seed,
                &RecoveryConfig::default(),
            );
            (
                off.served_fraction() * 100.0,
                on.served_fraction() * 100.0,
                off.total_cost().value(),
                on.total_cost().value(),
                on.recovery_rounds() as f64,
            )
        });
        let (off_served, _) = mean_std(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
        let (on_served, _) = mean_std(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
        let (off_cost, _) = mean_std(&runs.iter().map(|r| r.2).collect::<Vec<_>>());
        let (on_cost, _) = mean_std(&runs.iter().map(|r| r.3).collect::<Vec<_>>());
        let (extra, _) = mean_std(&runs.iter().map(|r| r.4).collect::<Vec<_>>());
        println!(
            "{:>8.2} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>10.2}",
            p_break, off_served, on_served, off_cost, on_cost, extra
        );
        rows.push(format!(
            "{p_break},{off_served:.2},{on_served:.2},{off_cost:.4},{on_cost:.4},{extra:.3}"
        ));
    }
    write_csv(
        out,
        "fig16.csv",
        "breakdown_prob,off_served_pct,on_served_pct,off_realized_cost,on_realized_cost,extra_rounds",
        &rows,
    )?;
    Ok(())
}

/// The price of exclusivity.
pub fn abl_exclusive(out: &Path) -> io::Result<()> {
    println!("== abl_exclusive: shared vs one-hire-per-charger (n = 30, m = 12, 15 seeds) ==");
    let runs = parallel_map((0..15u64).collect::<Vec<_>>(), |seed| {
        let problem = CcsProblem::new(
            ScenarioGenerator::new(seed.wrapping_mul(11) + 7)
                .devices(30)
                .chargers(12)
                .generate(),
        );
        let shared = ccsa(&problem, &EqualShare, CcsaOptions::default());
        let ratio = exclusivity_ratio(&shared);
        match enforce_exclusivity(&problem, &shared, &EqualShare) {
            Ok(exclusive) => Some((
                shared.total_cost().value(),
                exclusive.total_cost().value(),
                ratio,
            )),
            Err(_) => None, // more groups than chargers this seed
        }
    });
    let ok: Vec<_> = runs.into_iter().flatten().collect();
    let (shared_cost, _) = mean_std(&ok.iter().map(|r| r.0).collect::<Vec<_>>());
    let (exclusive_cost, _) = mean_std(&ok.iter().map(|r| r.1).collect::<Vec<_>>());
    let (ratio, _) = mean_std(&ok.iter().map(|r| r.2).collect::<Vec<_>>());
    let premium = (exclusive_cost / shared_cost - 1.0) * 100.0;
    println!(
        "shared {shared_cost:.1} $, exclusive {exclusive_cost:.1} $ (+{premium:.1}%); \
         CCSA already uses distinct chargers for {:.0}% of its groups",
        ratio * 100.0
    );
    write_csv(
        out,
        "abl_exclusive.csv",
        "shared_cost,exclusive_cost,premium_pct,natural_exclusivity_ratio",
        &[format!(
            "{shared_cost:.4},{exclusive_cost:.4},{premium:.3},{ratio:.4}"
        )],
    )?;
    Ok(())
}

/// Price of anarchy of the CCS coalition game: the ratio of CCSGA's
/// Nash-equilibrium cost to the exact optimum on small instances, plus how
/// often the resulting allocation is *core-stable* (no coalition of any
/// shape could profitably defect).
pub fn fig15(out: &Path) -> io::Result<()> {
    println!("== fig15: price of anarchy & core stability (n = 8, m = 3, 30 seeds) ==");
    let runs = parallel_map((0..30u64).collect::<Vec<_>>(), |seed| {
        let problem = CcsProblem::new(
            ScenarioGenerator::new(seed.wrapping_mul(61) + 13)
                .devices(8)
                .chargers(3)
                .generate(),
        );
        let exact = optimal(&problem, &EqualShare).expect("n = 8 fits the exact solver");
        let game = ccsga(&problem, &EqualShare, CcsgaOptions::default());
        let poa = game.schedule.total_cost() / exact.total_cost();
        let ne_core_stable =
            is_core_stable(&problem, &game.schedule, ccs_wrsn::units::Cost::new(1e-6));
        let opt_core_stable = is_core_stable(&problem, &exact, ccs_wrsn::units::Cost::new(1e-6));
        (poa, game.nash_stable, ne_core_stable, opt_core_stable)
    });

    let poas: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let (poa_mean, poa_std) = mean_std(&poas);
    let poa_max = poas.iter().copied().fold(1.0f64, f64::max);
    let nash = runs.iter().filter(|r| r.1).count() as f64 / runs.len() as f64 * 100.0;
    let ne_core = runs.iter().filter(|r| r.2).count() as f64 / runs.len() as f64 * 100.0;
    let opt_core = runs.iter().filter(|r| r.3).count() as f64 / runs.len() as f64 * 100.0;
    println!(
        "price of anarchy: mean {poa_mean:.4} ± {poa_std:.4}, worst {poa_max:.4}; \
         Nash-stable {nash:.0}%, NE allocation core-stable {ne_core:.0}%, \
         OPT allocation core-stable {opt_core:.0}%"
    );
    write_csv(
        out,
        "fig15.csv",
        "poa_mean,poa_std,poa_max,nash_stable_pct,ne_core_stable_pct,opt_core_stable_pct",
        &[format!(
            "{poa_mean:.6},{poa_std:.6},{poa_max:.6},{nash:.1},{ne_core:.1},{opt_core:.1}"
        )],
    )?;
    Ok(())
}
