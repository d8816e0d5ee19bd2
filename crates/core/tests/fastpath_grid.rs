//! Property tests pinning down the **byte-identity of the grid-pruned
//! search paths**: the ring-ordered charger scan (`facility_scan_grid`)
//! must return the exact `FacilityChoice` of the sort-based full scan —
//! same argmin, same tie-break, same `f64` bits — across random and
//! clustered scenarios and at 1 and 8 worker threads; the grid's
//! `nearest_distance` must equal the brute-force scan bitwise; and the
//! CCSA density-bound pruning (a racy shared threshold by design) must
//! leave schedules bit-identical across thread counts.

use ccs_core::cost::{facility_scan_full, facility_scan_grid};
use ccs_core::grid::UniformGrid;
use ccs_core::prelude::*;
use ccs_wrsn::entities::DeviceId;
use ccs_wrsn::geometry::Point;
use ccs_wrsn::scenario::{Placement, ScenarioGenerator};
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

/// Deterministic nonempty sorted member subset of `0..devices`.
fn members_from_mask(devices: usize, mask: u64) -> Vec<DeviceId> {
    let mut members: Vec<DeviceId> = (0..devices)
        .filter(|&i| (mask >> i) & 1 == 1)
        .map(|i| DeviceId::new(i as u32))
        .collect();
    if members.is_empty() {
        members.push(DeviceId::new((mask % devices as u64) as u32));
    }
    members
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole equivalence: ring-ordered enumeration with geometric
    /// floors prunes *work*, never *answers*. Checked from an unbounded
    /// threshold (the `best_facility` entry path) on uniform and clustered
    /// geometry, under both thread counts (the scans are deterministic
    /// regardless, but the surrounding memo fills concurrently).
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
        for &t in &THREAD_COUNTS {
            ccs_par::set_threads(t);
            let full = facility_scan_full(&p, &members, f64::INFINITY);
            let grid = facility_scan_grid(&p, &members, f64::INFINITY);
            ccs_par::set_threads(0);
            prop_assert!(grid == full, "threads {t}: {grid:?} vs {full:?}");
        }
    }

    /// Same equivalence under a *finite* threshold (what an anchored
    /// scan's incumbent imposes): both scans may return `None` when the
    /// threshold excludes everything, and must agree on which.
    #[test]
    fn grid_scan_agrees_under_seeded_thresholds(
        seed in 0u64..500,
        devices in 6usize..12,
        chargers in 64usize..80,
        mask in 1u64..(1 << 12),
        threshold in 0.0f64..400.0,
    ) {
        let p = problem(seed, devices, chargers, seed % 2 == 0);
        let members = members_from_mask(devices, mask);
        let full = facility_scan_full(&p, &members, threshold);
        let grid = facility_scan_grid(&p, &members, threshold);
        prop_assert_eq!(&grid, &full);
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
