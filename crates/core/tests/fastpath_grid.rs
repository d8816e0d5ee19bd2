//! Property tests pinning down the **byte-identity of the grid-pruned
//! search paths**: at 64 chargers and more, `try_best_facility` takes the
//! ring-ordered charger scan, which must return the exact `FacilityChoice`
//! of the exhaustive scan — same argmin, same tie-break, same `f64` bits —
//! across random and clustered scenarios and at 1 and 8 worker threads;
//! the grid's `nearest_distance` must equal the brute-force scan bitwise;
//! and the CCSA density-bound pruning (a racy shared threshold by design)
//! must leave schedules bit-identical across thread counts.

mod common;

use ccs_core::cost::try_best_facility;
use ccs_core::grid::UniformGrid;
use ccs_core::prelude::*;
use ccs_wrsn::geometry::Point;
use ccs_wrsn::scenario::{Placement, ScenarioGenerator};
use common::{members_from_mask, reference_best_facility};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 2] = [1, 8];

/// A scenario with enough chargers to cross the grid-dispatch cutoff
/// (`GRID_MIN_CHARGERS = 64`), either uniform or clustered.
fn problem(seed: u64, devices: usize, chargers: usize, clustered: bool) -> CcsProblem {
    let mut generator = ScenarioGenerator::new(seed)
        .devices(devices)
        .chargers(chargers);
    if clustered {
        generator = generator
            .device_placement(Placement::Clustered {
                count: 3,
                sigma: 10.0,
            })
            .charger_placement(Placement::Clustered {
                count: 4,
                sigma: 15.0,
            });
    }
    CcsProblem::new(generator.generate())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ring-ordered enumeration with geometric floors prunes *work*, never
    /// *answers*: the ring scan behind `try_best_facility` returns bitwise
    /// the exhaustive reference (every eligible charger at a fresh
    /// gathering point) on uniform and clustered geometry, under both
    /// thread counts (the scan is deterministic regardless, but the
    /// surrounding memo fills concurrently).
    #[test]
    fn grid_scan_is_bitwise_identical_to_full_scan(
        seed in 0u64..500,
        devices in 6usize..14,
        chargers in 64usize..90,
        mask in 1u64..(1 << 14),
    ) {
        let clustered = seed % 2 == 0;
        let p = problem(seed, devices, chargers, clustered);
        let members = members_from_mask(devices, mask);
        let reference = reference_best_facility(&p, &members);
        for &t in &THREAD_COUNTS {
            ccs_par::set_threads(t);
            let grid = try_best_facility(&p, &members);
            ccs_par::set_threads(0);
            prop_assert!(grid == reference, "threads {t}: {grid:?} vs {reference:?}");
        }
    }

    /// `UniformGrid::nearest_distance` equals the brute-force minimum
    /// bitwise (same formula, same inputs — the rings only change the
    /// enumeration order).
    #[test]
    fn grid_nearest_distance_matches_brute_force(
        seed in 0u64..500,
        n in 1usize..200,
        qx in -50.0f64..350.0,
        qy in -50.0f64..350.0,
    ) {
        let scenario = ScenarioGenerator::new(seed).devices(n.max(1)).chargers(2).generate();
        let positions: Vec<Point> =
            scenario.devices().iter().map(|d| d.position()).collect();
        let grid = UniformGrid::build(&positions);
        let q = Point::new(qx, qy);
        let brute = positions
            .iter()
            .map(|p| q.distance_value(p))
            .fold(f64::INFINITY, f64::min);
        let fast = grid.nearest_distance(q, &positions);
        prop_assert_eq!(fast.to_bits(), brute.to_bits());
    }
}

proptest! {
    // CCSA runs a full solve per case; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// CCSA's density-bound pruning shares a racy atomic threshold across
    /// the parallel facility batch. The exact total-order reduce makes the
    /// winner invariant under any interleaving: schedules must stay
    /// bit-identical across thread counts, *with the grid path engaged*
    /// (≥ 64 chargers).
    #[test]
    fn ccsa_with_grid_and_pruning_is_thread_count_invariant(
        seed in 0u64..200,
        devices in 10usize..18,
    ) {
        let clustered = seed % 2 == 0;
        let p = problem(seed, devices, 64, clustered);
        let mut reference: Option<(String, u64)> = None;
        for &t in &THREAD_COUNTS {
            ccs_par::set_threads(t);
            let s = ccsa(&p, &EqualShare, CcsaOptions::default());
            ccs_par::set_threads(0);
            let got = (
                serde_json::to_string(&s).expect("schedules serialize"),
                s.total_cost().value().to_bits(),
            );
            match &reference {
                None => reference = Some(got),
                Some(want) => prop_assert!(&got == want, "threads {t} diverged"),
            }
        }
    }
}
