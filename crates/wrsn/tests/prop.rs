//! Property-based tests of the WRSN substrate.

use ccs_wrsn::energy::Battery;
use ccs_wrsn::geometry::{
    weighted_distance_sum, weighted_geometric_median, weiszfeld, Point, Rect, WeiszfeldStop,
};
use ccs_wrsn::scenario::{ParamRange, ScenarioGenerator};
use ccs_wrsn::units::*;
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(x, y)| Point::new(x, y))
}

/// Anchors on a coarse integer lattice, so duplicates are common and the
/// weighted centroid often lands exactly on an anchor (the Vardi–Zhang
/// branch), with weights that are often exactly zero.
fn arb_weighted_anchors() -> impl Strategy<Value = (Vec<Point>, Vec<f64>)> {
    proptest::collection::vec(
        (
            (0u8..5, 0u8..5).prop_map(|(x, y)| Point::new(f64::from(x), f64::from(y))),
            prop_oneof![Just(0.0), Just(1.0), Just(2.0), 0.01f64..5.0],
        ),
        1..8,
    )
    .prop_map(|pairs| pairs.into_iter().unzip())
}

/// Continuous anchors, with weights that are sometimes exactly zero.
fn arb_continuous_anchors() -> impl Strategy<Value = (Vec<Point>, Vec<f64>)> {
    proptest::collection::vec((arb_point(), prop_oneof![Just(0.0), 0.01f64..5.0]), 1..8)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

/// Up to seven continuous anchors with positive weights.
fn arb_anchor_set() -> impl Strategy<Value = (Vec<Point>, Vec<f64>)> {
    (
        proptest::collection::vec(arb_point(), 1..8),
        proptest::collection::vec(0.01f64..5.0, 8),
    )
        .prop_map(|(pts, mut weights)| {
            weights.truncate(pts.len());
            (pts, weights)
        })
}

/// Three positive weights.
fn arb_three_weights() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.01f64..5.0, 0.01f64..5.0, 0.01f64..5.0)
}

/// Three weighted anchors, the shape two devices and their charger give a
/// gathering solve, in the families that stress the closed form: any
/// triangle; near-collinear anchors (`|cross|` about `1e-12` of the
/// squared longest side); two coincident anchors; a zero-weight fourth
/// anchor; weights that break the triangle inequality, where the heaviest
/// anchor is the optimum; and anchors scaled by `2^k`, `|k| ≤ 900`, with
/// weights scaled by `2^j`, `|j| ≤ 60`.
fn arb_three_anchors() -> impl Strategy<Value = (Vec<Point>, Vec<f64>)> {
    let triangle = || (arb_point(), arb_point(), arb_point());
    prop_oneof![
        (triangle(), arb_three_weights())
            .prop_map(|((a, b, c), (u, v, w))| (vec![a, b, c], vec![u, v, w])),
        (
            (arb_point(), arb_point()),
            -0.5f64..1.5,
            -1.0f64..1.0,
            arb_three_weights(),
        )
            .prop_map(|((a, b), t, s, (u, v, w))| {
                // Off the line through a and b by s·1e-12·|b − a|, so
                // |cross| = |s|·1e-12·|b − a|².
                let (dx, dy) = (b.x - a.x, b.y - a.y);
                let off = s * 1e-12;
                let c = Point::new(a.x + t * dx - off * dy, a.y + t * dy + off * dx);
                (vec![a, b, c], vec![u, v, w])
            }),
        ((arb_point(), arb_point()), arb_three_weights())
            .prop_map(|((a, b), (u, v, w))| (vec![a, b, a], vec![u, v, w])),
        (triangle(), arb_point(), arb_three_weights())
            .prop_map(|((a, b, c), d, (u, v, w))| (vec![a, b, c, d], vec![u, v, w, 0.0])),
        (
            triangle(),
            arb_three_weights(),
            prop_oneof![Just(0.0), 0.0f64..1.0],
            0usize..3,
        )
            .prop_map(|((a, b, c), (u, v, _), excess, heavy)| {
                let mut weights = vec![u, v, (u + v) * (1.0 + excess)];
                weights.rotate_right(heavy);
                (vec![a, b, c], weights)
            }),
        (triangle(), arb_three_weights(), -900i32..=900, -60i32..=60).prop_map(
            |((a, b, c), (u, v, w), k, j)| {
                let (s, t) = (2f64.powi(k), 2f64.powi(j));
                let scaled = |p: Point| Point::new(p.x * s, p.y * s);
                (
                    vec![scaled(a), scaled(b), scaled(c)],
                    vec![u * t, v * t, w * t],
                )
            }
        ),
    ]
}

/// Exactly three positive weights, at three distinct positions.
fn three_distinct_anchors(anchors: &[Point], weights: &[f64]) -> bool {
    let weighted: Vec<Point> = anchors
        .iter()
        .zip(weights)
        .filter(|(_, &w)| w > 0.0)
        .map(|(&a, _)| a)
        .collect();
    weighted.len() == 3
        && weighted[0] != weighted[1]
        && weighted[0] != weighted[2]
        && weighted[1] != weighted[2]
}

/// The kernel's solve without a cutoff never ends above the best anchor's
/// objective or the reference loop's, each up to relative `1e-12`, and a
/// solve of three distinct weighted anchors never iterates: it stops at an
/// anchor or in closed form.
fn check_against_anchors_and_loop(anchors: &[Point], weights: &[f64]) -> Result<(), String> {
    let median = weighted_geometric_median(anchors, weights).map_err(|e| e.to_string())?;
    if !median.point.is_finite() {
        return Err(format!("non-finite point {:?}", median.point));
    }
    let best_anchor = anchors
        .iter()
        .map(|p| weighted_distance_sum(p, anchors, weights))
        .fold(f64::INFINITY, f64::min);
    let (point, _) = reference_weiszfeld(anchors, weights).expect("valid weights");
    let old = weighted_distance_sum(&point, anchors, weights);
    for (bound, name) in [(best_anchor, "best anchor"), (old, "reference loop")] {
        if median.objective > bound * (1.0 + 1e-12) {
            return Err(format!(
                "objective {} above the {name}'s {bound} for {anchors:?} / {weights:?}",
                median.objective
            ));
        }
    }
    if three_distinct_anchors(anchors, weights) {
        let run = weiszfeld(anchors.iter().copied().zip(weights.iter().copied()), |_| {
            false
        });
        if !matches!(run.stop, WeiszfeldStop::Anchor | WeiszfeldStop::ClosedForm) {
            return Err(format!(
                "three anchors stopped {:?} after {} iterations: {anchors:?} / {weights:?}",
                run.stop, run.iterations
            ));
        }
    }
    Ok(())
}

/// The heaviest positive-weight anchor (the first, on ties) when Kuhn's
/// condition holds there with a relative margin of `1e-9`: the norm of the
/// other anchors' weighted unit vectors toward it is at most `1 − 1e-9`
/// times the weight sitting on it.
fn kuhn_heaviest_anchor(anchors: &[Point], weights: &[f64]) -> Option<Point> {
    let mut heaviest: Option<(Point, f64)> = None;
    for (&a, &w) in anchors.iter().zip(weights) {
        if w > heaviest.map_or(0.0, |(_, hw)| hw) {
            heaviest = Some((a, w));
        }
    }
    let (h, _) = heaviest?;
    let (mut on, mut gx, mut gy) = (0.0, 0.0, 0.0);
    for (&a, &w) in anchors.iter().zip(weights) {
        if a == h {
            on += w;
        } else {
            let d = a.distance(&h).value();
            gx += w * (a.x - h.x) / d;
            gy += w * (a.y - h.y) / d;
        }
    }
    (gx.hypot(gy) <= on * (1.0 - 1e-9)).then_some(h)
}

/// The stand-alone Weiszfeld loop the shared [`weiszfeld`] kernel replaced,
/// kept verbatim as the reference: `(point, iterations)`, or `None` where
/// `weighted_geometric_median` rejects the weights.
fn reference_weiszfeld(anchors: &[Point], weights: &[f64]) -> Option<(Point, usize)> {
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) || weights.iter().sum::<f64>() <= 0.0 {
        return None;
    }
    let wsum: f64 = weights.iter().sum();
    let mut current = Point::new(
        anchors
            .iter()
            .zip(weights)
            .map(|(a, w)| a.x * w)
            .sum::<f64>()
            / wsum,
        anchors
            .iter()
            .zip(weights)
            .map(|(a, w)| a.y * w)
            .sum::<f64>()
            / wsum,
    );
    let mut iterations = 0;
    while iterations < 200 {
        iterations += 1;
        let mut num_x = 0.0;
        let mut num_y = 0.0;
        let mut denom = 0.0;
        let mut at_anchor: Option<usize> = None;
        for (idx, (a, &w)) in anchors.iter().zip(weights).enumerate() {
            if w == 0.0 {
                continue;
            }
            let d = current.distance(a).value();
            if d < 1e-12 {
                at_anchor = Some(idx);
                continue;
            }
            let inv = w / d;
            num_x += a.x * inv;
            num_y += a.y * inv;
            denom += inv;
        }
        let next = if let Some(idx) = at_anchor {
            let r = (num_x - current.x * denom).hypot(num_y - current.y * denom);
            let w_at = weights[idx];
            if r <= w_at || denom == 0.0 {
                break;
            }
            let t = (1.0 - w_at / r).max(0.0);
            let pull = Point::new(num_x / denom, num_y / denom);
            current.lerp(&pull, t)
        } else {
            Point::new(num_x / denom, num_y / denom)
        };
        let step = current.distance(&next).value();
        current = next;
        if step < 1e-7 {
            break;
        }
    }
    Some((current, iterations))
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

    /// The optimal objective never exceeds the best anchor's, nor the
    /// reference loop's. Kuhn's test returns an optimum at the heaviest
    /// anchor or at the one nearest the centroid exactly, and with exactly
    /// three weighted anchors at any of them, or inside their triangle in
    /// closed form. With four or more, an optimum at another anchor or just
    /// off one is still approached slowly and can end above the best
    /// anchor: 345 of 40,000 random inputs did, every one with four to seven
    /// anchors (DESIGN.md §2), none of the sampled cases here.
    #[test]
    fn weiszfeld_never_beats_but_matches_anchors(
        (pts, weights) in prop_oneof![arb_anchor_set(), arb_three_anchors()],
    ) {
        check_against_anchors_and_loop(&pts, &weights)?;
    }

    /// Run without a cutoff, the shared kernel's objective is never above
    /// the loop it replaced (up to relative `1e-12`) through zero weights,
    /// coincident anchors, starts on an anchor, single anchors and the
    /// three-anchor shapes of the closed form, and it returns the heaviest
    /// anchor's exact bits, after no iteration, wherever Kuhn's condition
    /// holds there with a margin; all-zero weights stay rejected.
    #[test]
    fn weiszfeld_kernel_never_loses_to_the_reference_loop(
        (anchors, weights) in prop_oneof![
            arb_weighted_anchors(),
            arb_continuous_anchors(),
            arb_three_anchors(),
        ],
    ) {
        let reference = reference_weiszfeld(&anchors, &weights);
        match weighted_geometric_median(&anchors, &weights) {
            Ok(median) => {
                prop_assert!(reference.is_some(), "the reference accepts these weights");
                check_against_anchors_and_loop(&anchors, &weights)?;
                let run = weiszfeld(anchors.iter().copied().zip(weights.iter().copied()), |_| false);
                prop_assert_eq!(run.point, median.point);
                prop_assert_eq!(run.iterations, median.iterations);
                prop_assert!(run.stop != WeiszfeldStop::Abandoned);
                if let Some(h) = kuhn_heaviest_anchor(&anchors, &weights) {
                    prop_assert_eq!(run.stop, WeiszfeldStop::Anchor);
                    prop_assert_eq!(run.iterations, 0);
                    prop_assert_eq!(median.point.x.to_bits(), h.x.to_bits());
                    prop_assert_eq!(median.point.y.to_bits(), h.y.to_bits());
                }
            }
            Err(_) => prop_assert!(reference.is_none()),
        }
    }

    /// Scaling every anchor by `2^k` (exact in binary) scales the solve:
    /// the point stays finite and its objective stays within relative
    /// `1e-9` of `2^k` times the unscaled one, also where squared distances
    /// overflow or underflow and the kernel measures them with `hypot`.
    #[test]
    fn weiszfeld_scales_to_extreme_magnitudes(
        pts in proptest::collection::vec(arb_point(), 1..8),
        raw_weights in proptest::collection::vec(0.01f64..5.0, 8),
        k in -900i32..=900,
    ) {
        let weights = &raw_weights[..pts.len()];
        let scale = 2f64.powi(k);
        let scaled: Vec<Point> = pts.iter().map(|p| Point::new(p.x * scale, p.y * scale)).collect();
        let expected = weighted_geometric_median(&pts, weights).unwrap().objective * scale;
        let median = weighted_geometric_median(&scaled, weights).unwrap();
        prop_assert!(median.point.is_finite(), "2^{k}: {:?}", median.point);
        prop_assert!(
            (median.objective - expected).abs() <= 1e-9 * expected,
            "2^{k}: objective {} against {expected}", median.objective
        );
    }

    /// Every bound the kernel reports is at most the objective at the point
    /// the full solve reaches — an upper bound on the minimum — so a bound
    /// never claims more than the objective can deliver.
    #[test]
    fn weiszfeld_bounds_never_exceed_the_reached_objective(
        pts in proptest::collection::vec(arb_point(), 1..8),
        raw_weights in proptest::collection::vec(prop_oneof![Just(0.0), 0.01f64..5.0], 8),
    ) {
        let mut weights = raw_weights[..pts.len()].to_vec();
        if weights.iter().sum::<f64>() <= 0.0 {
            weights[0] = 1.0;
        }
        let mut bounds = Vec::new();
        let run = weiszfeld(pts.iter().copied().zip(weights.iter().copied()), |bound| {
            bounds.push(bound);
            false
        });
        let reached = weighted_distance_sum(&run.point, &pts, &weights);
        for bound in bounds {
            prop_assert!(bound <= reached, "bound {bound} above reached objective {reached}");
        }
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
        prop_assert_eq!(s.validate(), Ok(()));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40_000))]

    /// The three-anchor families of the closed form, 40,000 cases: no
    /// solve ends above the best anchor's objective or the reference
    /// loop's by more than relative `1e-12`, and three distinct weighted
    /// anchors never iterate. Ignored by default; CI runs it in release
    /// with `--ignored`.
    #[test]
    #[ignore]
    fn three_anchor_kernel_stress((anchors, weights) in arb_three_anchors()) {
        check_against_anchors_and_loop(&anchors, &weights)?;
    }
}
