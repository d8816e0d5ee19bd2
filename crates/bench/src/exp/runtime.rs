//! Scalability figures (the paper's **H4**):
//!
//! * `fig9_runtime` — wall-clock running time of CCSA vs CCSGA as the
//!   network grows. The paper's claim: "CCSGA is much faster than the
//!   approximation algorithm and is more suitable for large-scale
//!   cooperative charging scheduling."
//! * `fig10_convergence` — CCSGA's switch operations and rounds until a
//!   Nash-stable partition, vs network size (convergence cost grows
//!   modestly, supporting the large-scale claim).

use crate::exp::common::{mean_std, parallel_map, write_csv};
use ccs_core::prelude::*;
use ccs_wrsn::scenario::ScenarioGenerator;
use std::io;
use std::path::Path;
use std::time::Instant;

const SIZES: &[usize] = &[20, 50, 100, 200, 300];

fn instance(n: usize, seed: u64) -> CcsProblem {
    CcsProblem::new(
        ScenarioGenerator::new(seed.wrapping_mul(31) + n as u64)
            .devices(n)
            .chargers((n / 10).max(2))
            .field_side(400.0)
            .generate(),
    )
}

/// The median of an odd number of timings.
fn median(mut ms: Vec<f64>) -> f64 {
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// Fig. 9 family: running time vs number of devices. The seeds run one
/// after another, so no solve competes with another for the cores its own
/// `ccs-par` pool uses (default size). A cell's time is the median of its
/// 3 solves, and its cost their mean.
pub fn fig9(out: &Path) -> io::Result<()> {
    println!("== fig9: running time vs n (median of 3 seeds, one solve at a time) ==");
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "n", "ccsa ms", "ccsga ms", "speedup", "ccsa $", "ccsga $"
    );
    let mut rows = Vec::new();
    for &n in SIZES {
        let runs: Vec<_> = (0..3u64)
            .map(|seed| {
                let problem = instance(n, seed);
                let t0 = Instant::now();
                let a = ccsa(&problem, &EqualShare, CcsaOptions::default());
                let ccsa_ms = t0.elapsed().as_secs_f64() * 1e3;
                let t1 = Instant::now();
                let g = ccsga(&problem, &EqualShare, CcsgaOptions::default());
                let ccsga_ms = t1.elapsed().as_secs_f64() * 1e3;
                (
                    ccsa_ms,
                    ccsga_ms,
                    a.total_cost().value(),
                    g.schedule.total_cost().value(),
                )
            })
            .collect();
        let ccsa_ms = median(runs.iter().map(|r| r.0).collect());
        let ccsga_ms = median(runs.iter().map(|r| r.1).collect());
        let (ccsa_cost, _) = mean_std(&runs.iter().map(|r| r.2).collect::<Vec<_>>());
        let (ccsga_cost, _) = mean_std(&runs.iter().map(|r| r.3).collect::<Vec<_>>());
        let speedup = ccsa_ms / ccsga_ms.max(1e-9);
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>10.1} {:>12.1} {:>12.1}",
            n, ccsa_ms, ccsga_ms, speedup, ccsa_cost, ccsga_cost
        );
        rows.push(format!(
            "{n},{ccsa_ms:.3},{ccsga_ms:.3},{speedup:.2},{ccsa_cost:.2},{ccsga_cost:.2}"
        ));
    }
    write_csv(
        out,
        "fig9.csv",
        "n,ccsa_ms,ccsga_ms,ccsa_over_ccsga,ccsa_cost,ccsga_cost",
        &rows,
    )?;
    Ok(())
}

/// Fig. 10 family: CCSGA convergence statistics vs network size.
pub fn fig10(out: &Path) -> io::Result<()> {
    println!("== fig10: CCSGA convergence vs n (5 seeds each) ==");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>10}",
        "n", "switches", "rounds", "converged %", "NE %"
    );
    let mut rows = Vec::new();
    for &n in SIZES {
        let runs = parallel_map((0..5u64).collect::<Vec<_>>(), |seed| {
            let problem = instance(n, seed);
            let g = ccsga(&problem, &EqualShare, CcsgaOptions::default());
            (
                g.switches as f64,
                g.rounds as f64,
                g.converged,
                g.nash_stable,
            )
        });
        let (switches, switches_std) = mean_std(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
        let (rounds, _) = mean_std(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
        let converged = runs.iter().filter(|r| r.2).count() as f64 / runs.len() as f64 * 100.0;
        let stable = runs.iter().filter(|r| r.3).count() as f64 / runs.len() as f64 * 100.0;
        println!(
            "{:>6} {:>10.1} {:>10.1} {:>12.0} {:>10.0}",
            n, switches, rounds, converged, stable
        );
        rows.push(format!(
            "{n},{switches:.2},{switches_std:.2},{rounds:.2},{converged:.0},{stable:.0}"
        ));
    }
    write_csv(
        out,
        "fig10.csv",
        "n,switches_mean,switches_std,rounds_mean,converged_pct,nash_stable_pct",
        &rows,
    )?;
    Ok(())
}
