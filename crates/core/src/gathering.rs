//! Gathering-point selection for a charging group.
//!
//! The group meets its charger at a single point `p`; the spatially
//! relevant part of the group cost is
//!
//! ```text
//! τ_j · d(q_j, p)  +  Σ_{i∈S} κ_i · d(p_i, p)
//! ```
//!
//! a weighted Fermat-point objective over the members (weights: their
//! movement cost rates) and the charger (weight: its travel cost rate).
//! [`GatheringStrategy::Weiszfeld`] solves it near-exactly with the one
//! Weiszfeld loop, [`ccs_wrsn::geometry::weiszfeld`], reading the anchors
//! straight from the member and charger entities. When the optimum sits on
//! a member or on the charger, Kuhn's test in that loop returns the
//! anchor's exact position without iterating; that is how a singleton
//! gathers at its device or at its charger, whichever is heavier. A pair
//! of devices with their charger (three weighted anchors) whose optimum is
//! inside their triangle gets it in closed form, also without iterating.
//! The cheaper strategies exist only for the `abl_gathering` ablation.

use crate::problem::CcsProblem;
use ccs_wrsn::entities::{ChargerId, DeviceId};
use ccs_wrsn::geometry::{weiszfeld, Point, WeiszfeldStop};
use std::cell::RefCell;

/// How a group's gathering point is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GatheringStrategy {
    /// Weighted geometric median of members + charger (Weiszfeld) —
    /// the near-optimal default.
    Weiszfeld,
    /// Unweighted centroid of member positions (fast, ignores weights and
    /// the charger).
    Centroid,
    /// The member position with the lowest objective (groups gather at one
    /// device).
    BestMember,
    /// Best point of a `k × k` grid over the field.
    Grid(usize),
}

/// The spatial objective `τ_j·d(q_j,p) + Σ κ_i·d(p_i,p)` at candidate `p`.
pub fn spatial_cost(
    problem: &CcsProblem,
    charger: ChargerId,
    members: &[DeviceId],
    p: &Point,
) -> f64 {
    let c = problem.charger(charger);
    let mut total = c.travel_cost_rate().value() * c.position().distance(p).value();
    for &d in members {
        let dev = problem.device(d);
        total += dev.move_cost_rate().value() * dev.position().distance(p).value();
    }
    total
}

/// Chooses the gathering point for `(charger, members)` under `strategy`.
///
/// Always returns a point inside the field.
///
/// # Panics
///
/// Panics if `members` is empty or `Grid(0)` is passed.
pub fn gathering_point(
    problem: &CcsProblem,
    charger: ChargerId,
    members: &[DeviceId],
    strategy: GatheringStrategy,
) -> Point {
    assert!(!members.is_empty(), "a group needs at least one member");
    let field = problem.scenario().field();
    match strategy {
        GatheringStrategy::Weiszfeld => weiszfeld_point(problem, charger, members, |_| false)
            .0
            .expect("a solve without a cutoff is never abandoned"),
        GatheringStrategy::Centroid => {
            let anchors: Vec<Point> = members
                .iter()
                .map(|&d| problem.device(d).position())
                .collect();
            field.clamp(Point::centroid(&anchors).expect("nonempty members"))
        }
        GatheringStrategy::BestMember => members
            .iter()
            .map(|&d| problem.device(d).position())
            .min_by(|a, b| {
                spatial_cost(problem, charger, members, a)
                    .total_cmp(&spatial_cost(problem, charger, members, b))
            })
            .expect("nonempty members"),
        GatheringStrategy::Grid(k) => {
            assert!(k >= 1, "grid resolution must be >= 1");
            field
                .grid(k)
                .into_iter()
                .min_by(|a, b| {
                    spatial_cost(problem, charger, members, a)
                        .total_cmp(&spatial_cost(problem, charger, members, b))
                })
                .expect("grid is nonempty")
        }
    }
}

/// The [`GatheringStrategy::Weiszfeld`] point for `(charger, members)`, or
/// `None` when `abandon` accepted a lower bound on the spatial objective's
/// minimum (see [`weiszfeld`] for the bound and its float margin), paired
/// with whether the solve settled without iterating: at an anchor by
/// Kuhn's test, or at a three-anchor optimum in closed form. A settled
/// point costs `O(k)` to find again, so the gathering memo does not keep
/// it.
///
/// The anchors are the members' positions weighted by their movement
/// rates, then the charger's position weighted by its travel rate, read
/// from the entities into a thread-local buffer once per solve, so the loop
/// walks contiguous memory and allocates nothing once the buffer has grown.
/// When every weight is zero any point is optimal and the anchors' centroid
/// is used.
/// Each solve counts once in `gathering.solves`, its iterations in
/// `gathering.iterations`, and an anchor optimum decided by Kuhn's test
/// (no iterations), a closed-form three-anchor optimum (no iterations), a
/// cap or an abandonment in `gathering.anchor`, `gathering.closed_form`,
/// `gathering.capped` or `gathering.abandoned`.
///
/// # Panics
///
/// Panics if `members` is empty.
pub(crate) fn weiszfeld_point(
    problem: &CcsProblem,
    charger: ChargerId,
    members: &[DeviceId],
    abandon: impl FnMut(f64) -> bool,
) -> (Option<Point>, bool) {
    thread_local! {
        /// The solve's `(anchor, weight)` pairs.
        static PAIRS: RefCell<Vec<(Point, f64)>> = const { RefCell::new(Vec::new()) };
    }
    assert!(!members.is_empty(), "a group needs at least one member");
    let field = problem.scenario().field();
    let c = problem.charger(charger);
    let run = PAIRS.with(|cell| {
        let mut pairs = cell.borrow_mut();
        pairs.clear();
        pairs.extend(members.iter().map(|&d| {
            let dev = problem.device(d);
            (dev.position(), dev.move_cost_rate().value())
        }));
        pairs.push((c.position(), c.travel_cost_rate().value()));
        let positive = pairs.iter().map(|&(_, w)| w).sum::<f64>() > 0.0;
        positive.then(|| weiszfeld(pairs.iter().copied(), abandon))
    });
    let Some(run) = run else {
        // Every weight is zero (free movement): any point is optimal.
        let points: Vec<Point> = members
            .iter()
            .map(|&d| problem.device(d).position())
            .chain(std::iter::once(c.position()))
            .collect();
        let centroid = Point::centroid(&points).expect("nonempty anchors");
        return (Some(field.clamp(centroid)), false);
    };
    ccs_telemetry::counter!("gathering.solves").incr();
    ccs_telemetry::counter!("gathering.iterations").add(run.iterations as u64);
    match run.stop {
        WeiszfeldStop::Anchor => {
            ccs_telemetry::counter!("gathering.anchor").incr();
            (Some(field.clamp(run.point)), true)
        }
        WeiszfeldStop::ClosedForm => {
            ccs_telemetry::counter!("gathering.closed_form").incr();
            (Some(field.clamp(run.point)), true)
        }
        WeiszfeldStop::Converged => (Some(field.clamp(run.point)), false),
        WeiszfeldStop::Capped => {
            ccs_telemetry::counter!("gathering.capped").incr();
            (Some(field.clamp(run.point)), false)
        }
        WeiszfeldStop::Abandoned => {
            ccs_telemetry::counter!("gathering.abandoned").incr();
            (None, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_wrsn::scenario::ScenarioGenerator;

    fn problem() -> CcsProblem {
        CcsProblem::new(ScenarioGenerator::new(3).devices(8).chargers(3).generate())
    }

    fn ids(v: &[u32]) -> Vec<DeviceId> {
        v.iter().map(|&i| DeviceId::new(i)).collect()
    }

    #[test]
    fn weiszfeld_beats_or_matches_other_strategies() {
        let p = problem();
        let members = ids(&[0, 1, 2, 3]);
        let c = ChargerId::new(0);
        let w = gathering_point(&p, c, &members, GatheringStrategy::Weiszfeld);
        let w_cost = spatial_cost(&p, c, &members, &w);
        for strategy in [
            GatheringStrategy::Centroid,
            GatheringStrategy::BestMember,
            GatheringStrategy::Grid(8),
        ] {
            let q = gathering_point(&p, c, &members, strategy);
            let q_cost = spatial_cost(&p, c, &members, &q);
            assert!(
                w_cost <= q_cost + 1e-6,
                "weiszfeld {w_cost} should beat {strategy:?} at {q_cost}"
            );
        }
    }

    #[test]
    fn singleton_group_gathers_near_itself() {
        // With a typical device move rate below the charger travel rate the
        // median sits at the charger; with a heavy device it sits at the
        // device. The 2-anchor objective is linear along the segment, so the
        // optimum is the heavier endpoint, which Kuhn's test returns exactly.
        let p = problem();
        let members = ids(&[0]);
        let c = ChargerId::new(1);
        let g = gathering_point(&p, c, &members, GatheringStrategy::Weiszfeld);
        let at_dev = spatial_cost(&p, c, &members, &p.device(DeviceId::new(0)).position());
        let at_chg = spatial_cost(&p, c, &members, &p.charger(c).position());
        let at_g = spatial_cost(&p, c, &members, &g);
        assert_eq!(
            at_g,
            at_dev.min(at_chg),
            "gathered at {at_g}, endpoints {at_dev} / {at_chg}"
        );
    }

    #[test]
    fn best_member_returns_a_member_position() {
        let p = problem();
        let members = ids(&[2, 4, 6]);
        let g = gathering_point(
            &p,
            ChargerId::new(0),
            &members,
            GatheringStrategy::BestMember,
        );
        assert!(members
            .iter()
            .any(|&d| p.device(d).position().distance(&g).value() < 1e-12));
    }

    #[test]
    fn all_strategies_stay_in_field() {
        let p = problem();
        let members = ids(&[0, 5, 7]);
        for strategy in [
            GatheringStrategy::Weiszfeld,
            GatheringStrategy::Centroid,
            GatheringStrategy::BestMember,
            GatheringStrategy::Grid(3),
        ] {
            let g = gathering_point(&p, ChargerId::new(2), &members, strategy);
            assert!(
                p.scenario().field().contains(&g),
                "{strategy:?} left the field"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_group_panics() {
        let p = problem();
        let _ = gathering_point(&p, ChargerId::new(0), &[], GatheringStrategy::Centroid);
    }
}
