//! Property tests pinning down the evaluation kernel's **bit-exactness**:
//! its fast paths (the gathering loop, the pruned best-facility scan, the
//! anchored warm start) must return results bitwise identical to the
//! reference computations they replaced. No tolerance comparisons here —
//! equality is on the raw `f64` payloads (via `PartialEq` on
//! `Cost`/`Point`).

mod common;

use ccs_core::cost::{try_best_facility, try_best_facility_anchored};
use ccs_core::gathering::{gathering_point, GatheringStrategy};
use ccs_core::prelude::*;
use ccs_wrsn::entities::{Charger, ChargerId, DeviceId};
use ccs_wrsn::geometry::{weighted_geometric_median, Point};
use ccs_wrsn::scenario::{ParamRange, Placement, Scenario, ScenarioGenerator};
use common::{members_from_mask, reference_best_facility};
use proptest::prelude::*;

fn problem(seed: u64, devices: usize, chargers: usize, budgeted: bool) -> CcsProblem {
    problem_in_field(seed, devices, chargers, budgeted, None)
}

/// [`problem`] on a square field of side `10^field_exp` (the generator's
/// default side when `None`).
fn problem_in_field(
    seed: u64,
    devices: usize,
    chargers: usize,
    budgeted: bool,
    field_exp: Option<i32>,
) -> CcsProblem {
    let mut generator = ScenarioGenerator::new(seed)
        .devices(devices)
        .chargers(chargers);
    if budgeted {
        generator = generator.charger_energy_budget_range(ParamRange::new(9_000.0, 14_000.0));
    }
    if let Some(exp) = field_exp {
        generator = generator.field_side(10f64.powi(exp));
    }
    CcsProblem::new(generator.generate())
}

/// A field-side exponent for the scan-equivalence proptests: half the
/// cases keep the default field, the rest span `1e-150` to `1e200`, where
/// the pruning bounds' squared distances underflow or overflow.
fn field_exp() -> impl Strategy<Value = Option<i32>> {
    prop_oneof![Just(None), (-150i32..=200).prop_map(Some)]
}

/// The gathering point as computed before the one Weiszfeld loop: anchor
/// and weight `Vec`s from the entities, the checked
/// `weighted_geometric_median`, and the centroid when every weight is zero.
fn reference_gathering_point(p: &CcsProblem, charger: ChargerId, members: &[DeviceId]) -> Point {
    let c = p.charger(charger);
    let mut anchors: Vec<Point> = members.iter().map(|&d| p.device(d).position()).collect();
    let mut weights: Vec<f64> = members
        .iter()
        .map(|&d| p.device(d).move_cost_rate().value())
        .collect();
    anchors.push(c.position());
    weights.push(c.travel_cost_rate().value());
    let field = p.scenario().field();
    if weights.iter().sum::<f64>() <= 0.0 {
        return field.clamp(Point::centroid(&anchors).expect("nonempty anchors"));
    }
    field.clamp(weighted_geometric_median(&anchors, &weights).unwrap().point)
}

/// A scenario whose movement and travel rates may be zero (so all weights
/// can vanish) and whose devices may all stand on one spot (coincident
/// anchors).
fn degenerate_problem(seed: u64, devices: usize, zero_moves: bool, stacked: bool) -> CcsProblem {
    let mut generator = ScenarioGenerator::new(seed).devices(devices).chargers(3);
    if zero_moves {
        generator = generator
            .device_move_cost_range(ParamRange::fixed(0.0))
            .charger_travel_cost_range(ParamRange::new(0.0, 0.2));
    }
    if stacked {
        generator = generator.device_placement(Placement::Clustered {
            count: 1,
            sigma: 0.0,
        });
    }
    CcsProblem::new(generator.generate())
}

/// `scenario` with every charger followed, after the originals, by a twin
/// at the same position with the same prices and budget: equal group costs
/// bit for bit, told apart only by id.
fn with_twin_chargers(scenario: &Scenario) -> CcsProblem {
    let originals = scenario.chargers();
    let chargers = originals
        .iter()
        .chain(originals)
        .enumerate()
        .map(|(j, c)| {
            let twin = Charger::builder(ChargerId::new(j as u32), c.position())
                .base_fee(c.base_fee())
                .travel_cost_rate(c.travel_cost_rate())
                .energy_price(c.energy_price())
                .occupancy_rate(c.occupancy_rate())
                .speed(c.speed())
                .wpt(*c.wpt());
            match c.energy_budget() {
                Some(budget) => twin.energy_budget(budget),
                None => twin,
            }
            .build()
        })
        .collect();
    let scenario = Scenario::new(scenario.field(), scenario.devices().to_vec(), chargers)
        .expect("twins keep ids dense and positions in the field");
    CcsProblem::new(scenario)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Weiszfeld gathering point, solved by the one loop from the
    /// thread-local anchor buffer, is bitwise the reference built from
    /// anchor and weight `Vec`s and the checked median, through zero
    /// weights (all of them, in which case the centroid is used),
    /// coincident member positions, and singletons.
    #[test]
    fn table_backed_gathering_is_bitwise_the_reference(
        seed in 0u64..1_000,
        devices in 1usize..9,
        mask in 1u64..(1 << 9),
        zero_moves in any::<bool>(),
        stacked in any::<bool>(),
    ) {
        let p = degenerate_problem(seed, devices, zero_moves, stacked);
        let members = members_from_mask(devices, mask);
        for c in p.scenario().charger_ids() {
            let fast = gathering_point(&p, c, &members, GatheringStrategy::Weiszfeld);
            let reference = reference_gathering_point(&p, c, &members);
            prop_assert_eq!(fast.x.to_bits(), reference.x.to_bits());
            prop_assert_eq!(fast.y.to_bits(), reference.y.to_bits());
        }
    }

    /// Exact ties: with every charger twinned (same position, prices and
    /// budget, different id) the pruned scan and every anchored scan return
    /// bitwise the exhaustive reference, lower twin winning, on both sides
    /// of the scan-strategy cutoff. An anchored scan's incumbent is often
    /// the higher twin, whose equal-cost sibling must not be abandoned.
    #[test]
    fn twin_chargers_tie_break_like_the_reference(
        seed in 0u64..1_000,
        devices in 2usize..10,
        originals in prop_oneof![Just(2usize), Just(32usize)],
        mask in 1u64..(1 << 10),
        budgeted in any::<bool>(),
    ) {
        let p = with_twin_chargers(problem(seed, devices, originals, budgeted).scenario());
        let members = members_from_mask(devices, mask);
        let reference = reference_best_facility(&p, &members);
        prop_assert_eq!(&try_best_facility(&p, &members), &reference);
        for anchor in p.scenario().charger_ids() {
            prop_assert_eq!(&try_best_facility_anchored(&p, &members, anchor), &reference);
        }
    }

    /// The pruned, memoized charger scan returns bitwise the exhaustive
    /// reference choice (including the charger-id tie-break), with and
    /// without energy budgets narrowing eligibility, at field sides from
    /// `1e-150` to `1e200`.
    #[test]
    fn pruned_scan_matches_full_scan_bitwise(
        seed in 0u64..1_000,
        devices in 2usize..12,
        chargers in 2usize..6,
        mask in 1u64..(1 << 12),
        budgeted in any::<bool>(),
        field_exp in field_exp(),
    ) {
        let p = problem_in_field(seed, devices, chargers, budgeted, field_exp);
        let members = members_from_mask(devices, mask);
        let pruned = try_best_facility(&p, &members);
        let reference = reference_best_facility(&p, &members);
        prop_assert_eq!(&pruned, &reference);
    }

    /// The anchored warm start never changes the answer: for every
    /// charger as the anchor — including anchors whose budget cannot
    /// cover the group — the choice is bitwise the unanchored scan's, on
    /// both sides of the scan-strategy cutoff (the sorted full scan below
    /// 64 chargers, the ring scan at 64 and above), with and without
    /// energy budgets, at field sides from `1e-150` to `1e200`.
    #[test]
    fn anchored_scan_matches_the_unanchored_scan_bitwise(
        seed in 0u64..1_000,
        devices in 2usize..12,
        chargers in prop_oneof![2usize..6, 64usize..72],
        mask in 1u64..(1 << 12),
        budgeted in any::<bool>(),
        field_exp in field_exp(),
    ) {
        let p = problem_in_field(seed, devices, chargers, budgeted, field_exp);
        let members = members_from_mask(devices, mask);
        let plain = try_best_facility(&p, &members);
        for anchor in p.scenario().charger_ids() {
            let anchored = try_best_facility_anchored(&p, &members, anchor);
            prop_assert!(
                anchored == plain,
                "anchor {anchor} (serves: {}): {anchored:?} vs {plain:?}",
                p.charger_can_serve(anchor, &members)
            );
        }
    }
}

/// The anchored proptest above only covers an unservable anchor when the
/// sampled group outgrows some budget; this pins such cases outright, on
/// both sides of the scan-strategy cutoff: the smallest prefix group that
/// some charger's budget covers and some does not.
#[test]
fn anchored_scan_skips_an_anchor_that_cannot_serve_the_group() {
    for chargers in [4, 64] {
        let p = problem(3, 12, chargers, true);
        let members = (1..=12)
            .map(|k| members_from_mask(12, (1 << k) - 1))
            .find(|m| {
                let serves = |c| p.charger_can_serve(c, m);
                p.scenario().charger_ids().any(serves) && !p.scenario().charger_ids().all(serves)
            })
            .expect("some prefix group fits some budgets but not all");
        let plain = try_best_facility(&p, &members);
        assert!(plain.is_some());
        for anchor in p.scenario().charger_ids() {
            assert_eq!(
                try_best_facility_anchored(&p, &members, anchor),
                plain,
                "{chargers} chargers, anchor {anchor}"
            );
        }
    }
}

/// The gathering-point memo is transparent: repeated `best_facility` calls
/// for the same composition return the identical choice, and the memo only
/// grows with distinct `(charger, members)` keys.
#[test]
fn repeated_best_facility_is_stable_and_memoized() {
    let p = problem(5, 10, 4, false);
    let members: Vec<DeviceId> = [1u32, 4, 7].iter().map(|&i| DeviceId::new(i)).collect();
    let first = best_facility(&p, &members);
    let cached_entries = p.tables().gather_cache_len();
    for _ in 0..3 {
        assert_eq!(best_facility(&p, &members), first);
    }
    assert_eq!(
        p.tables().gather_cache_len(),
        cached_entries,
        "re-evaluating a known composition must not grow the memo"
    );
}
