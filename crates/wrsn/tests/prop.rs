//! Property-based tests of the WRSN substrate.

use ccs_wrsn::energy::Battery;
use ccs_wrsn::geometry::{weighted_distance_sum, weighted_geometric_median, Point, Rect};
use ccs_wrsn::scenario::{ParamRange, ScenarioGenerator};
use ccs_wrsn::units::*;
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn distance_is_a_metric(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert_eq!(a.distance(&b), b.distance(&a));
        prop_assert!(a.distance(&a).value() == 0.0);
        prop_assert!(a.distance(&b) >= Meters::ZERO);
        // Triangle inequality.
        prop_assert!(
            a.distance(&c).value() <= a.distance(&b).value() + b.distance(&c).value() + 1e-9
        );
    }

    #[test]
    fn distance_squared_is_consistent(a in arb_point(), b in arb_point()) {
        let d = a.distance(&b).value();
        prop_assert!((d * d - a.distance_sq(&b)).abs() < 1e-6 * (1.0 + d * d));
    }

    #[test]
    fn lerp_stays_on_segment(a in arb_point(), b in arb_point(), t in 0.0f64..1.0) {
        let p = a.lerp(&b, t);
        let via = a.distance(&p).value() + p.distance(&b).value();
        prop_assert!((via - a.distance(&b).value()).abs() < 1e-6);
    }

    #[test]
    fn rect_clamp_is_idempotent_and_contained(p in arb_point(), side in 1.0f64..500.0) {
        let r = Rect::square(side);
        let q = r.clamp(p);
        prop_assert!(r.contains(&q));
        prop_assert_eq!(r.clamp(q), q);
        if r.contains(&p) {
            prop_assert_eq!(q, p);
        }
    }

    #[test]
    fn weiszfeld_never_beats_but_matches_anchors(
        pts in proptest::collection::vec(arb_point(), 1..8),
        raw_weights in proptest::collection::vec(0.01f64..5.0, 8),
    ) {
        let weights = &raw_weights[..pts.len()];
        let m = weighted_geometric_median(&pts, weights).unwrap();
        prop_assert!(m.point.is_finite());
        // Optimal objective can never exceed the best anchor's objective.
        let best_anchor = pts
            .iter()
            .map(|p| weighted_distance_sum(p, &pts, weights))
            .fold(f64::INFINITY, f64::min);
        // When the optimum sits exactly on an anchor, Weiszfeld converges
        // to it only asymptotically; allow a small relative slack.
        prop_assert!(m.objective <= best_anchor * 1.01 + 1e-9);
    }

    #[test]
    fn battery_never_leaves_bounds(
        capacity in 1.0f64..10_000.0,
        start_frac in 0.0f64..1.0,
        ops in proptest::collection::vec((any::<bool>(), 0.0f64..5_000.0), 0..40),
    ) {
        let cap = Joules::new(capacity);
        let mut b = Battery::new(cap, cap * start_frac).unwrap();
        for (charge, amount) in ops {
            let amount = Joules::new(amount);
            if charge {
                let overflow = b.charge(amount);
                prop_assert!(overflow >= Joules::ZERO);
            } else {
                // Discharge what is available.
                let take = amount.min(b.level());
                b.discharge(take).unwrap();
            }
            prop_assert!(b.level() >= Joules::ZERO);
            prop_assert!(b.level() <= b.capacity());
            prop_assert!((0.0..=1.0).contains(&b.state_of_charge()));
        }
    }

    #[test]
    fn generated_scenarios_always_validate(
        seed in any::<u64>(),
        n in 1usize..40,
        m in 1usize..10,
        side in 10.0f64..1_000.0,
    ) {
        let s = ScenarioGenerator::new(seed)
            .devices(n)
            .chargers(m)
            .field_side(side)
            .generate();
        prop_assert_eq!(s.devices().len(), n);
        prop_assert_eq!(s.chargers().len(), m);
        for d in s.devices() {
            prop_assert!(s.field().contains(&d.position()));
            prop_assert!(d.demand() >= Joules::ZERO);
        }
        prop_assert!(s.total_demand() >= Joules::ZERO);
    }

    #[test]
    fn param_range_samples_in_bounds(lo in -100.0f64..100.0, width in 0.0f64..50.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let r = ParamRange::new(lo, lo + width);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..32 {
            let v = r.sample(&mut rng);
            prop_assert!(v >= lo && v <= lo + width);
        }
    }
}
