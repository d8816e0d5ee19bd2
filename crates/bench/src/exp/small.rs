//! `fig8_vs_optimal`: the small-instance comparison against the exact
//! optimum — the experiment behind the paper's two simulation headlines:
//!
//! * **H1** — CCSA's average comprehensive cost ≈ 27.3% below the
//!   noncooperation baseline;
//! * **H2** — CCSA ≈ 7.3% above the optimal solution on average.
//!
//! We sweep `n ∈ 4..=12` with `m = 4` and many seeds, reporting the mean
//! saving over NCP and the mean gap above OPT per point and pooled.

use crate::exp::common::{mean_std, parallel_map, write_csv};
use ccs_core::prelude::*;
use ccs_wrsn::scenario::ScenarioGenerator;
use ccs_wrsn::units::Cost;
use std::io;
use std::path::Path;

const SEEDS: u64 = 20;

/// Runs the experiment, returning the pooled `(saving %, gap %)` for use by
/// EXPERIMENTS.md tooling.
pub fn fig8(out: &Path) -> io::Result<(f64, f64)> {
    println!("== fig8: CCSA vs OPT vs NCP on small instances (m = 4) ==");
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>14} {:>13} {:>13}",
        "n", "opt avg$", "ccsa avg$", "ncp avg$", "ccsa save %", "ccsa gap %", "ccsga gap %"
    );

    let mut rows = Vec::new();
    let mut pooled_saving = Vec::new();
    let mut pooled_gap = Vec::new();
    for n in 4usize..=12 {
        let runs = parallel_map((0..SEEDS).collect::<Vec<u64>>(), |seed| {
            let scenario = ScenarioGenerator::new(seed.wrapping_mul(7919) + n as u64)
                .devices(n)
                .chargers(4)
                .field_side(200.0)
                .generate();
            let problem = CcsProblem::new(scenario);
            let exact = optimal(&problem, &EqualShare)
                .expect("n <= 12 is within the exact solver's budget");
            let approx = ccsa(&problem, &EqualShare, CcsaOptions::default());
            let game = ccsga(&problem, &EqualShare, CcsgaOptions::default());
            let solo = noncooperation(&problem, &EqualShare);
            (
                exact.total_cost().value(),
                approx.total_cost().value(),
                game.schedule.total_cost().value(),
                solo.total_cost().value(),
            )
        });

        let opt_avg = runs.iter().map(|r| r.0).sum::<f64>() / runs.len() as f64 / n as f64;
        let ccsa_avg = runs.iter().map(|r| r.1).sum::<f64>() / runs.len() as f64 / n as f64;
        let ncp_avg = runs.iter().map(|r| r.3).sum::<f64>() / runs.len() as f64 / n as f64;
        // Degenerate (non-positive) baselines make the ratios undefined;
        // the fallible metric forms drop those runs instead of feeding
        // `inf`/NaN into the pooled means.
        let savings: Vec<f64> = runs
            .iter()
            .filter_map(|r| try_saving_percent(Cost::new(r.1), Cost::new(r.3)))
            .collect();
        let gaps: Vec<f64> = runs
            .iter()
            .filter_map(|r| try_gap_above_optimal_percent(Cost::new(r.1), Cost::new(r.0)))
            .collect();
        let ccsga_gaps: Vec<f64> = runs
            .iter()
            .filter_map(|r| try_gap_above_optimal_percent(Cost::new(r.2), Cost::new(r.0)))
            .collect();
        pooled_saving.extend_from_slice(&savings);
        pooled_gap.extend_from_slice(&gaps);

        let (saving_mean, saving_std) = mean_std(&savings);
        let (gap_mean, gap_std) = mean_std(&gaps);
        let (ccsga_gap_mean, _) = mean_std(&ccsga_gaps);
        println!(
            "{:>4} {:>12.2} {:>12.2} {:>12.2} {:>14.1} {:>13.1} {:>13.1}",
            n, opt_avg, ccsa_avg, ncp_avg, saving_mean, gap_mean, ccsga_gap_mean
        );
        rows.push(format!(
            "{n},{opt_avg:.4},{ccsa_avg:.4},{ncp_avg:.4},{saving_mean:.2},{saving_std:.2},{gap_mean:.2},{gap_std:.2},{ccsga_gap_mean:.2}"
        ));
    }

    let (pooled_saving_mean, _) = mean_std(&pooled_saving);
    let (pooled_gap_mean, _) = mean_std(&pooled_gap);
    println!(
        "\npooled over all n and seeds: CCSA saves {pooled_saving_mean:.1}% vs NCP (paper: 27.3%), \
         sits {pooled_gap_mean:.1}% above OPT (paper: 7.3%)"
    );
    rows.push(format!(
        "pooled,,,,{pooled_saving_mean:.2},,{pooled_gap_mean:.2},,"
    ));
    write_csv(
        out,
        "fig8.csv",
        "n,opt_avg,ccsa_avg,ncp_avg,ccsa_saving_mean_pct,ccsa_saving_std,ccsa_gap_mean_pct,ccsa_gap_std,ccsga_gap_mean_pct",
        &rows,
    )?;
    Ok((pooled_saving_mean, pooled_gap_mean))
}
