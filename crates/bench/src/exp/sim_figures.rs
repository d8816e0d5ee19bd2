//! Simulation cost-curve figures: comprehensive cost vs network scale.
//!
//! * `fig5_cost_vs_devices` — average comprehensive cost as the number of
//!   devices grows (fixed chargers);
//! * `fig6_cost_vs_chargers` — as the number of chargers grows (fixed
//!   devices);
//! * `fig7_cost_vs_field` — as the field side grows (fixed populations).
//!
//! Every point is a mean over seeds; CCSA, CCSGA and NCP run on identical
//! instances. The expected *shape* (per the paper): both cooperative
//! algorithms sit well below NCP everywhere, with the relative saving
//! growing with device density (more devices per charger → more fee
//! amortization) and shrinking with field size (longer gathering trips eat
//! the shared savings).

use crate::exp::common::{mean_std, parallel_map, write_csv};
use ccs_core::prelude::*;
use ccs_wrsn::scenario::ScenarioGenerator;
use ccs_wrsn::units::Cost;
use std::io;
use std::path::Path;

const SEEDS: u64 = 10;

struct PointStats {
    ccsa_mean: f64,
    ccsa_std: f64,
    ccsga_mean: f64,
    ccsga_std: f64,
    clu_mean: f64,
    ncp_mean: f64,
    ncp_std: f64,
}

fn run_point(make: impl Fn(u64) -> ScenarioGenerator + Sync) -> PointStats {
    let runs = parallel_map((0..SEEDS).collect::<Vec<u64>>(), |seed| {
        let problem = CcsProblem::new(make(seed).generate());
        let ccsa_cost = ccsa(&problem, &EqualShare, CcsaOptions::default())
            .average_cost()
            .value();
        let ccsga_cost = ccsga(&problem, &EqualShare, CcsgaOptions::default())
            .schedule
            .average_cost()
            .value();
        let clu_cost = clustering(&problem, &EqualShare).average_cost().value();
        let ncp_cost = noncooperation(&problem, &EqualShare).average_cost().value();
        (ccsa_cost, ccsga_cost, clu_cost, ncp_cost)
    });
    let (ccsa_mean, ccsa_std) = mean_std(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
    let (ccsga_mean, ccsga_std) = mean_std(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
    let (clu_mean, _) = mean_std(&runs.iter().map(|r| r.2).collect::<Vec<_>>());
    let (ncp_mean, ncp_std) = mean_std(&runs.iter().map(|r| r.3).collect::<Vec<_>>());
    PointStats {
        ccsa_mean,
        ccsa_std,
        ccsga_mean,
        ccsga_std,
        clu_mean,
        ncp_mean,
        ncp_std,
    }
}

fn emit(out: &Path, file: &str, x_name: &str, points: Vec<(f64, PointStats)>) -> io::Result<()> {
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>14} {:>14}",
        x_name, "ccsa avg$", "ccsga avg$", "clu avg$", "ncp avg$", "ccsa save %", "ccsga save %"
    );
    let mut rows = Vec::new();
    for (x, p) in &points {
        // A zero/negative NCP baseline makes the saving undefined; emit an
        // explicit `na` marker rather than an `inf` that poisons the CSV.
        let ccsa_save = try_saving_percent(Cost::new(p.ccsa_mean), Cost::new(p.ncp_mean));
        let ccsga_save = try_saving_percent(Cost::new(p.ccsga_mean), Cost::new(p.ncp_mean));
        let pct = |s: Option<f64>, digits: usize| match s {
            Some(v) => format!("{v:.digits$}"),
            None => "na".to_string(),
        };
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>14} {:>14}",
            x,
            p.ccsa_mean,
            p.ccsga_mean,
            p.clu_mean,
            p.ncp_mean,
            pct(ccsa_save, 1),
            pct(ccsga_save, 1)
        );
        rows.push(format!(
            "{x},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{},{}",
            p.ccsa_mean,
            p.ccsa_std,
            p.ccsga_mean,
            p.ccsga_std,
            p.clu_mean,
            p.ncp_mean,
            p.ncp_std,
            pct(ccsa_save, 2),
            pct(ccsga_save, 2)
        ));
    }
    write_csv(
        out,
        file,
        &format!("{x_name},ccsa_mean,ccsa_std,ccsga_mean,ccsga_std,clu_mean,ncp_mean,ncp_std,ccsa_saving_pct,ccsga_saving_pct"),
        &rows,
    )?;
    Ok(())
}

/// Fig. 5 family: average comprehensive cost vs number of devices.
pub fn fig5(out: &Path) -> io::Result<()> {
    println!("== fig5: cost vs number of devices (m = 10, field 300 m) ==");
    let points = [10usize, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        .iter()
        .map(|&n| {
            let stats = run_point(|seed| {
                ScenarioGenerator::new(seed.wrapping_mul(1000) + n as u64)
                    .devices(n)
                    .chargers(10)
            });
            (n as f64, stats)
        })
        .collect();
    emit(out, "fig5.csv", "n_devices", points)
}

/// Fig. 6 family: average comprehensive cost vs number of chargers.
pub fn fig6(out: &Path) -> io::Result<()> {
    println!("== fig6: cost vs number of chargers (n = 50, field 300 m) ==");
    let points = [2usize, 4, 6, 8, 10, 12, 14, 16, 18, 20]
        .iter()
        .map(|&m| {
            let stats = run_point(|seed| {
                ScenarioGenerator::new(seed.wrapping_mul(1000) + m as u64)
                    .devices(50)
                    .chargers(m)
            });
            (m as f64, stats)
        })
        .collect();
    emit(out, "fig6.csv", "m_chargers", points)
}

/// Fig. 7 family: average comprehensive cost vs field side length.
pub fn fig7(out: &Path) -> io::Result<()> {
    println!("== fig7: cost vs field side (n = 50, m = 10) ==");
    let points = [100.0f64, 200.0, 300.0, 400.0, 500.0]
        .iter()
        .map(|&side| {
            let stats = run_point(|seed| {
                ScenarioGenerator::new(seed.wrapping_mul(1000) + side as u64)
                    .devices(50)
                    .chargers(10)
                    .field_side(side)
            });
            (side, stats)
        })
        .collect();
    emit(out, "fig7.csv", "field_side_m", points)
}
