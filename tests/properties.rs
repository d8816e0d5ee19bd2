//! Property-based tests (proptest) on the cross-crate invariants listed in
//! `DESIGN.md` §6.

use ccs_repro::prelude::*;
use ccs_submodular::check::{brute_force_min, brute_force_min_density, is_submodular};
use ccs_submodular::set_fn::SetFunction;
use ccs_wrsn::geometry::{weighted_distance_sum, weighted_geometric_median};
use proptest::prelude::*;

/// A small random CCS problem described by plain values proptest can shrink.
fn arb_problem() -> impl Strategy<Value = (u64, usize, usize)> {
    (0u64..10_000, 2usize..10, 1usize..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn group_bill_is_submodular_on_random_scenarios(
        (seed, n, m) in arb_problem(),
        px in 0.0f64..300.0,
        py in 0.0f64..300.0,
        charger_idx in 0usize..4,
    ) {
        let scenario = ScenarioGenerator::new(seed).devices(n).chargers(m).generate();
        let problem = CcsProblem::new(scenario);
        let charger = ChargerId::new((charger_idx % m) as u32);
        let point = Point::new(px, py);
        let ids: Vec<DeviceId> = problem.scenario().device_ids().collect();
        let pc = problem.clone();
        let f = FnSetFunction::new(n, move |s| {
            if s.is_empty() {
                return 0.0;
            }
            let members: Vec<DeviceId> = s.iter().map(|i| ids[i]).collect();
            ccs_core::cost::group_bill(&pc, charger, &members, &point)
                .total()
                .value()
        });
        prop_assert!(is_submodular(&f, 1e-9));
    }

    #[test]
    fn mnp_matches_brute_force_on_random_penalized_bills(
        weights in proptest::collection::vec(-6.0f64..6.0, 1..9),
        fee in 0.0f64..10.0,
        scale in 0.0f64..4.0,
        lambda in 0.0f64..6.0,
    ) {
        let n = weights.len();
        let bill = SeparableFn::new(weights, fee, scale);
        let f = CardinalityPenalized::new(bill, lambda);
        let got = minimize(&f);
        let (_, expected) = brute_force_min(&f);
        prop_assert!((got.value - expected).abs() < 1e-7,
            "mnp {} vs brute {} (n={n})", got.value, expected);
    }

    #[test]
    fn density_search_matches_brute_force(
        weights in proptest::collection::vec(0.0f64..6.0, 1..9),
        fee in 0.0f64..10.0,
        scale in 0.0f64..3.0,
    ) {
        let bill = SeparableFn::new(weights, fee, scale);
        let got = min_density_separable(&bill).unwrap();
        let (_, expected) = brute_force_min_density(&bill);
        prop_assert!((got.density - expected).abs() < 1e-7);
        // The reported set really has the reported density.
        let check = bill.eval(&got.minimizer) / got.minimizer.len() as f64;
        prop_assert!((check - got.density).abs() < 1e-9);
    }

    #[test]
    fn schedules_are_partitions_and_budget_balanced((seed, n, m) in arb_problem()) {
        let problem = CcsProblem::new(
            ScenarioGenerator::new(seed).devices(n).chargers(m).generate(),
        );
        for schedule in [
            noncooperation(&problem, &ProportionalShare),
            ccsa(&problem, &ProportionalShare, CcsaOptions::default()),
            ccsga(&problem, &ProportionalShare, CcsgaOptions::default()).schedule,
        ] {
            prop_assert!(schedule.validate(&problem).is_ok(),
                "{} schedule invalid", schedule.algorithm());
        }
    }

    #[test]
    fn ccsa_is_individually_rational((seed, n, m) in arb_problem()) {
        let problem = CcsProblem::new(
            ScenarioGenerator::new(seed).devices(n).chargers(m).generate(),
        );
        let schedule = ccsa(&problem, &EqualShare, CcsaOptions::default());
        for d in problem.scenario().device_ids() {
            let coop = schedule.device_cost(d).unwrap();
            let solo = ccs_core::algo::noncoop::solo_cost(&problem, d);
            prop_assert!(coop <= solo + Cost::new(1e-6),
                "device {d} pays {coop} > solo {solo}");
        }
    }

    #[test]
    fn cooperation_never_costs_more_than_noncooperation((seed, n, m) in arb_problem()) {
        let problem = CcsProblem::new(
            ScenarioGenerator::new(seed).devices(n).chargers(m).generate(),
        );
        let solo = noncooperation(&problem, &EqualShare);
        let coop = ccsa(&problem, &EqualShare, CcsaOptions::default());
        prop_assert!(coop.total_cost() <= solo.total_cost() + Cost::new(1e-6));
    }

    #[test]
    fn weiszfeld_beats_fine_grid(
        seed in 0u64..1_000,
        k in 1usize..8,
    ) {
        let scenario = ScenarioGenerator::new(seed).devices(k).chargers(1).generate();
        let anchors: Vec<Point> = scenario.devices().iter().map(|d| d.position()).collect();
        let weights: Vec<f64> = scenario
            .devices()
            .iter()
            .map(|d| d.move_cost_rate().value())
            .collect();
        let median =
            weighted_geometric_median(&anchors, &weights).unwrap();
        let best_grid = scenario
            .field()
            .grid(40)
            .iter()
            .map(|p| weighted_distance_sum(p, &anchors, &weights))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(median.objective <= best_grid + 1e-6);
        prop_assert!(median.point.is_finite());
    }

    #[test]
    fn ideal_replay_reproduces_any_valid_plan((seed, n, m) in arb_problem()) {
        let problem = CcsProblem::new(
            ScenarioGenerator::new(seed).devices(n).chargers(m).generate(),
        );
        let plan = ccsga(&problem, &EqualShare, CcsgaOptions::default()).schedule;
        let run = execute(&problem, &plan, &EqualShare, &NoiseModel::ideal(), seed);
        prop_assert!((run.total_cost() - plan.total_cost()).abs() < Cost::new(1e-6));
    }

    #[test]
    fn shares_are_nonnegative_and_balanced(
        (seed, n, m) in arb_problem(),
        group_bits in 1u32..255,
    ) {
        let problem = CcsProblem::new(
            ScenarioGenerator::new(seed).devices(n).chargers(m).generate(),
        );
        let members: Vec<DeviceId> = (0..n)
            .filter(|i| group_bits & (1 << (i % 8)) != 0 || *i == 0)
            .map(|i| DeviceId::new(i as u32))
            .collect();
        let facility = best_facility(&problem, &members);
        for scheme in all_schemes() {
            let shares = scheme.shares(
                &problem,
                facility.charger,
                &members,
                &facility.point,
                &facility.bill,
            );
            let total: Cost = shares.iter().copied().sum();
            prop_assert!((total - facility.bill.total()).abs() < Cost::new(1e-6),
                "{} not budget balanced", scheme.name());
            prop_assert!(shares.iter().all(|s| *s >= Cost::new(-1e-9)),
                "{} produced a negative share", scheme.name());
        }
    }
}
