//! The CCS cost model: group bills, moving costs and comprehensive cost.
//!
//! For a group `S` served by charger `j` at gathering point `p`:
//!
//! ```text
//! bill(S, j, p) = b_j                      base service fee (per hire)
//!               + τ_j · d(q_j, p)          charger travel
//!               + Σ_{i∈S} π_j · w_i        energy at price π_j
//!               + η_j · g(|S|)             service-time congestion (concave g)
//! ```
//!
//! Each member additionally pays its own moving cost `κ_i · d(p_i, p)`. The
//! **group cost** (what OPT and the social objective count) is the bill plus
//! all members' moving costs; the **comprehensive cost of a device** is its
//! bill *share* (see `sharing`) plus its own moving cost.
//!
//! `bill(·, j, p)` as a function of `S` is `fee·1[S≠∅] + modular +
//! concave(|S|)` — nonnegative submodular — which is what CCSA's machinery
//! requires; the property test in this module pins that down.
//!
//! Every term reads its parameters from the `Device` and `Charger`
//! entities: `π_j · w_i` is [`CcsProblem::energy`] and `η_j · g(|S|)` is
//! [`CcsProblem::congestion`]. The facility scans ([`try_best_facility`],
//! [`try_best_facility_anchored`]) skip chargers whose lower bound exceeds
//! the incumbent and abandon gathering solves that cannot beat it, and
//! return bitwise the choice of evaluating every eligible charger.

use crate::problem::CcsProblem;
use ccs_wrsn::entities::{ChargerId, DeviceId};
use ccs_wrsn::geometry::Point;
use ccs_wrsn::units::Cost;

/// Itemized charging-service bill of one group.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct GroupBill {
    /// The charger's per-hire base fee `b_j`.
    pub base_fee: Cost,
    /// Charger travel `τ_j · d(q_j, p)`.
    pub charger_travel: Cost,
    /// Per-member energy charges `π_j · w_i`, aligned with the member list
    /// the bill was computed for.
    pub energy: Vec<Cost>,
    /// Service-time congestion `η_j · g(|S|)`.
    pub congestion: Cost,
}

impl GroupBill {
    /// The group-level (member-independent) part: fee + travel + congestion.
    pub fn group_level(&self) -> Cost {
        self.base_fee + self.charger_travel + self.congestion
    }

    /// The full bill: group-level part plus all energy charges.
    pub fn total(&self) -> Cost {
        self.group_level() + self.energy.iter().copied().sum::<Cost>()
    }
}

/// Computes the itemized bill for `(members, charger, point)` from the
/// charger's and members' entity fields.
///
/// The `energy` entries align with `members` order.
///
/// # Panics
///
/// Panics if `members` is empty.
pub fn group_bill(
    problem: &CcsProblem,
    charger: ChargerId,
    members: &[DeviceId],
    point: &Point,
) -> GroupBill {
    assert!(!members.is_empty(), "a group needs at least one member");
    let c = problem.charger(charger);
    GroupBill {
        base_fee: c.base_fee(),
        charger_travel: c.travel_cost_rate() * c.position().distance(point),
        energy: members
            .iter()
            .map(|&d| problem.energy(charger, d))
            .collect(),
        congestion: problem.congestion(charger, members.len()),
    }
}

/// Per-member moving costs `κ_i · d(p_i, p)`, aligned with `members`.
pub fn moving_costs(problem: &CcsProblem, members: &[DeviceId], point: &Point) -> Vec<Cost> {
    members
        .iter()
        .map(|&d| {
            let dev = problem.device(d);
            dev.move_cost_rate() * dev.position().distance(point)
        })
        .collect()
}

/// A fully resolved facility choice for one group: the charger, the
/// gathering point, the itemized bill and the members' moving costs.
#[derive(Debug, Clone, PartialEq)]
pub struct FacilityChoice {
    /// The hired charger.
    pub charger: ChargerId,
    /// The gathering point.
    pub point: Point,
    /// The itemized bill (aligned with the member list used to build it).
    pub bill: GroupBill,
    /// Per-member moving costs (same alignment).
    pub moving: Vec<Cost>,
}

impl FacilityChoice {
    /// The group cost: bill total plus all moving costs — the quantity OPT
    /// minimizes summed over groups.
    pub fn group_cost(&self) -> Cost {
        self.bill.total() + self.moving.iter().copied().sum::<Cost>()
    }
}

/// Evaluates one `(charger, point)` facility for a member set.
pub fn evaluate_facility(
    problem: &CcsProblem,
    charger: ChargerId,
    members: &[DeviceId],
    point: Point,
) -> FacilityChoice {
    FacilityChoice {
        charger,
        point,
        bill: group_bill(problem, charger, members, &point),
        moving: moving_costs(problem, members, &point),
    }
}

/// The largest `r·d(a, b)` over a pruning bound's `(rate, a, b)` pairs,
/// taken from below with one square root for all of them.
///
/// [`add`](Self::add) keeps the largest `(r·dx)² + (r·dy)²`, and
/// [`floor`](Self::floor) returns its root scaled by `1 − 2⁻⁴⁹`. That never
/// exceeds the per-pair `r·hypot(dx, dy)` products it stands for. With
/// `u = 2⁻⁵³`, the products, squares, sum and root leave the root at most
/// `4·u` above the exact `r·‖(dx, dy)‖`; the reference product is at most
/// `3·u` below it (`hypot` is within one ulp, `2·u`, of the norm, and the
/// product rounds once); the factor takes off `16·u`. The ulp bound holds
/// only where the norm is a normal float, so the floor falls back to the
/// reference products when the winning pair's differences are both
/// subnormal, and also when the squared sum overflows. A maximum below
/// `f64::MIN_POSITIVE` floors to `0`, which is below every product. Each
/// bound built on it is then at most the bound the products gave, so a
/// scan prunes a subset of what they pruned, and its argmin and tie-break
/// stay bitwise the same.
#[derive(Clone, Copy)]
struct RateDistanceFloor {
    /// The largest `(r·dx)² + (r·dy)²` added.
    sq: f64,
    /// The coordinate differences of the pair that set `sq`.
    dx: f64,
    dy: f64,
}

impl RateDistanceFloor {
    /// No pairs: the floor is `0`.
    const EMPTY: Self = RateDistanceFloor {
        sq: 0.0,
        dx: 0.0,
        dy: 0.0,
    };

    /// Adds the pair `rate · d(a, b)`.
    #[inline]
    fn add(&mut self, rate: f64, a: Point, b: Point) {
        let (dx, dy) = (a.x - b.x, a.y - b.y);
        let (x, y) = (rate * dx, rate * dy);
        let sq = x * x + y * y;
        if sq > self.sq {
            *self = RateDistanceFloor { sq, dx, dy };
        }
    }

    /// The floor on the largest pair; `reference` computes the per-pair
    /// `r·hypot` maximum where one root cannot be trusted.
    #[inline]
    fn floor(self, reference: impl FnOnce() -> f64) -> f64 {
        if self.sq < f64::MIN_POSITIVE {
            0.0
        } else if self.sq.is_finite() && self.dx.abs().max(self.dy.abs()) >= f64::MIN_POSITIVE {
            self.sq.sqrt() * (1.0 - 8.0 * f64::EPSILON)
        } else {
            reference()
        }
    }
}

/// The largest of `rate(i) · d(a(i), b(i))` over `pairs`, each distance a
/// `hypot`: the values [`RateDistanceFloor`] stands in for.
fn max_rate_distance(pairs: impl Iterator<Item = (f64, Point, Point)>) -> f64 {
    pairs.fold(0.0, |best, (rate, a, b)| {
        let bound = rate * a.distance_value(&b);
        if bound > best {
            bound
        } else {
            best
        }
    })
}

/// A lower bound on `group_cost` for serving `members` with `charger` at
/// *any* gathering point: the point-independent bill terms plus a spatial
/// bound (`dd_lb` is the charger-independent device-pair bound, computed
/// once per scan by [`pairwise_spatial_bound`]).
///
/// The spatial term `τ_j·d(q_j,p) + Σ κ_i·d(p_i,p)` is bounded below by
/// `min(τ_j, κ_i)·d(q_j, p_i)` for every member `i` (triangle inequality),
/// and by `min(κ_i, κ_i')·d(p_i, p_i')` for every member pair; the member
/// terms are taken through [`RateDistanceFloor`].
fn facility_lower_bound(
    problem: &CcsProblem,
    charger: ChargerId,
    members: &[DeviceId],
    dd_lb: f64,
) -> f64 {
    let c = problem.charger(charger);
    let mut fixed = c.base_fee() + problem.congestion(charger, members.len());
    let (tau, q) = (c.travel_cost_rate().value(), c.position());
    let pair = |d: DeviceId| {
        let dev = problem.device(d);
        (tau.min(dev.move_cost_rate().value()), dev.position(), q)
    };
    let mut floor = RateDistanceFloor::EMPTY;
    for &d in members {
        fixed += problem.energy(charger, d);
        let (rate, p, _) = pair(d);
        floor.add(rate, p, q);
    }
    let travel = floor.floor(|| max_rate_distance(members.iter().map(|&d| pair(d))));
    fixed.value() + dd_lb.max(travel)
}

/// An `O(1)` per-charger prefilter ahead of the `O(k)` exact bound,
/// shared by both scan strategies. The exact bound's bill part is
/// `b_j + η_j·g(k) + Σ_i π_j·w_i`; `π_j·Σ_i w_i` can differ from that
/// member-by-member sum only by float reassociation error, which the
/// `1 − 1e-9` factor dominates (the relative error of a reordered
/// nonnegative sum is ≤ k·ε ≈ 1e-11 even at k = 10⁵). The exact spatial
/// part maximises over members and so is at least the reference-member
/// term reproduced here through the same [`RateDistanceFloor`] (a floor
/// over more pairs is never lower). The returned value is
/// therefore a true lower bound on [`facility_lower_bound`], and skipping
/// a charger whose cheap bound exceeds the threshold prunes a subset of
/// what the exact bound would prune — the argmin is unchanged, bit for
/// bit.
#[inline]
fn cheap_charger_bound(
    problem: &CcsProblem,
    charger: ChargerId,
    k: usize,
    total_demand: f64,
    dd_lb: f64,
    ref_pos: Point,
    kappa_ref: f64,
) -> f64 {
    let c = problem.charger(charger);
    let cheap_bill = ((c.base_fee() + problem.congestion(charger, k)).value()
        + c.energy_price().value() * total_demand)
        * (1.0 - 1e-9);
    let rate = c.travel_cost_rate().value().min(kappa_ref);
    let (p, q) = (ref_pos, c.position());
    let mut floor = RateDistanceFloor::EMPTY;
    floor.add(rate, p, q);
    let travel = floor.floor(|| max_rate_distance(std::iter::once((rate, p, q))));
    cheap_bill + dd_lb.max(travel)
}

/// The charger-independent part of the spatial lower bound: the largest
/// `min(κ_i, κ_i')·d(p_i, p_i')` over member pairs (`0` for singletons),
/// through [`RateDistanceFloor`].
fn pairwise_spatial_bound(problem: &CcsProblem, members: &[DeviceId]) -> f64 {
    let pair = |a: DeviceId, b: DeviceId| {
        let (a, b) = (problem.device(a), problem.device(b));
        (
            a.move_cost_rate().value().min(b.move_cost_rate().value()),
            a.position(),
            b.position(),
        )
    };
    let mut floor = RateDistanceFloor::EMPTY;
    for (idx, &a) in members.iter().enumerate() {
        for &b in &members[idx + 1..] {
            let (rate, pa, pb) = pair(a, b);
            floor.add(rate, pa, pb);
        }
    }
    floor.floor(|| {
        max_rate_distance(
            members
                .iter()
                .enumerate()
                .flat_map(|(idx, &a)| members[idx + 1..].iter().map(move |&b| pair(a, b))),
        )
    })
}

/// The group cost of serving `members` with `charger` at `point`, as a
/// bare scalar — no `FacilityChoice`, no `Vec`s. Accumulates exactly the
/// terms [`evaluate_facility`]`(..).group_cost()` accumulates, in exactly
/// the same order (`(base + travel + congestion) + Σ energy`, then
/// `+ Σ moving`, each `Σ` a left fold in member order), so the result is
/// bitwise the materialized one — pinned by the `scan_scalar` proptest.
fn group_cost_at(
    problem: &CcsProblem,
    charger: ChargerId,
    members: &[DeviceId],
    point: &Point,
) -> f64 {
    let c = problem.charger(charger);
    let group_level = c.base_fee()
        + c.travel_cost_rate() * c.position().distance(point)
        + problem.congestion(charger, members.len());
    let energy: Cost = members.iter().map(|&d| problem.energy(charger, d)).sum();
    let moving: Cost = members
        .iter()
        .map(|&d| {
            let dev = problem.device(d);
            dev.move_cost_rate() * dev.position().distance(point)
        })
        .sum();
    ((group_level + energy) + moving).value()
}

/// The memoized gathering point for serving `members` with `charger`, or
/// `None` when its Weiszfeld solve, or a bound an earlier solve of this
/// key left in the memo, proves that this facility's group cost (as the
/// scans compute it) strictly exceeds `incumbent` (`f64::INFINITY` never
/// abandons). A returned point is bitwise the unbounded solve's.
///
/// The solve is abandoned once `(fixed + max(bound, 0))·(1 − 1e-9) >
/// incumbent`, where `fixed = b_j + η_j·g(k) + Σ_i π_j·w_i` is the
/// point-independent bill and `bound` (see [`ccs_wrsn::geometry::weiszfeld`])
/// is at most the exact minimum of the spatial term `τ_j·d(q_j,p) +
/// Σ κ_i·d(p_i,p)`, itself at most its value at any gathering point; the
/// minimum is nonnegative, so clamping `bound` at `0` keeps it a bound.
/// Every term the scans' `group_cost_at` sums is a nonnegative product
/// (entity validation keeps prices, rates and demands finite and
/// nonnegative), so its float total is within `(k + 7)·ε` of the exact
/// cost, `fixed` is within `(k + 2)·ε` of its exact sum of the same
/// products, and the test's own two roundings add `3·ε`. The `1 − 1e-9`
/// factor dominates their sum for any `k < 10⁶`, as it does in
/// `cheap_charger_bound`, so an abandoned charger can be neither the
/// argmin nor an id tie-break winner.
fn bounded_gathering_point(
    problem: &CcsProblem,
    charger: ChargerId,
    members: &[DeviceId],
    incumbent: f64,
) -> Option<Point> {
    let t = problem.tables();
    if incumbent == f64::INFINITY {
        // Nothing to beat: a constant test lets the solve skip the bound.
        return t.cached_gathering_point(problem, charger, members, |_| false);
    }
    let fixed = (problem.charger(charger).base_fee() + problem.congestion(charger, members.len()))
        .value()
        + members
            .iter()
            .map(|&d| problem.energy(charger, d))
            .sum::<Cost>()
            .value();
    t.cached_gathering_point(problem, charger, members, |bound| {
        (fixed + bound.max(0.0)) * (1.0 - 1e-9) > incumbent
    })
}

/// Evaluates one candidate charger against the incumbent, updating
/// `best`/`best_cost` under the exact `(group_cost, charger id)` total
/// order shared by both scan strategies.
///
/// Candidates are ranked by the allocation-free [`group_cost_at`] scalar;
/// the `FacilityChoice` (with its itemized-bill and moving-cost `Vec`s) is
/// materialized only when the candidate actually wins. `best_cost` carries
/// the incumbent's group cost (`f64::INFINITY` while `best` is `None`) and
/// is the scans' pruning threshold, so losing candidates never touch the
/// incumbent either, and a candidate whose gathering solve proves it cannot
/// beat the incumbent is dropped mid-solve ([`bounded_gathering_point`]).
fn consider_charger(
    problem: &CcsProblem,
    members: &[DeviceId],
    c: ChargerId,
    best: &mut Option<FacilityChoice>,
    best_cost: &mut f64,
) {
    let Some(point) = bounded_gathering_point(problem, c, members, *best_cost) else {
        return;
    };
    let cost = group_cost_at(problem, c, members, &point);
    let better = match &best {
        None => true,
        Some(incumbent) => {
            cost.total_cmp(best_cost).then(c.cmp(&incumbent.charger)) == std::cmp::Ordering::Less
        }
    };
    if better {
        *best_cost = cost;
        *best = Some(evaluate_facility(problem, c, members, point));
    }
}

/// The sorted charger scan, continued from an already-evaluated incumbent
/// (`best` at `best_cost`, `None` at infinity) and never visiting `skip`
/// (the charger the caller already evaluated): every eligible charger gets
/// a lower bound, chargers are visited in ascending `(bound, id)` order and
/// the scan stops as soon as the next bound *strictly* exceeds `best_cost`
/// (which shrinks to the best cost found so far). A pruned charger's true
/// cost is `>=` its bound `>` the final best, so it can be neither the
/// argmin nor a tie — the result (including the id tie-break) is bitwise
/// the exhaustive scan's. Visit order never affects the result — the
/// `(group_cost, charger id)` comparison in [`consider_charger`] is a total
/// order — so starting from an incumbent only tightens pruning. When no
/// charger other than `skip` can deliver the group's demand (an online
/// residual with one idle charger, re-priced at its anchor), the incumbent
/// comes back before the `O(k²)` pair bound is computed.
fn facility_scan_full(
    problem: &CcsProblem,
    members: &[DeviceId],
    skip: Option<ChargerId>,
    mut best: Option<FacilityChoice>,
    mut best_cost: f64,
) -> Option<FacilityChoice> {
    let demand = problem.group_demand(members);
    let eligible = |c: ChargerId| Some(c) != skip && problem.charger(c).can_deliver(demand);
    if !problem.scenario().charger_ids().any(eligible) {
        // The O(k²) pair bound is only worth computing for a charger to scan.
        return best;
    }
    let dd_lb = pairwise_spatial_bound(problem, members);
    let k = members.len();
    let total_demand: f64 = members
        .iter()
        .map(|&d| problem.device(d).demand().value())
        .sum();
    let ref_dev = problem.device(members[0]);
    let (ref_pos, kappa_ref) = (ref_dev.position(), ref_dev.move_cost_rate().value());
    let mut candidates: Vec<(f64, ChargerId)> = problem
        .scenario()
        .charger_ids()
        .filter(|&c| {
            eligible(c)
                && cheap_charger_bound(problem, c, k, total_demand, dd_lb, ref_pos, kappa_ref)
                    <= best_cost
        })
        .map(|c| (facility_lower_bound(problem, c, members, dd_lb), c))
        .collect();
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    for (bound, c) in candidates {
        if bound > best_cost {
            break;
        }
        consider_charger(problem, members, c, &mut best, &mut best_cost);
    }
    best
}

/// The ring-ordered charger scan, continued from an incumbent and never
/// visiting `skip` like [`facility_scan_full`]: chargers are enumerated
/// outward from the first member's position through the charger
/// [`UniformGrid`](crate::grid::UniformGrid), ring by ring. Ring `r`
/// carries a floor on the cost of *every* charger in it or beyond — the
/// fleet-wide fee/price/congestion minima plus `min(τ_min, κ_ref) ·
/// ring_distance` — so the search stops without touching the remaining
/// rings once the floor exceeds `best_cost`. Within the visited rings each
/// charger gets the same per-charger lower bound as the sorted scan and
/// candidates run in `(bound, id)` order against the same exact total
/// order, so the winner (including tie-breaks) is bitwise the sorted
/// scan's — only the number of evaluated chargers differs.
/// `O(chargers near the group)` instead of `O(m log m)` per call.
fn facility_scan_grid(
    problem: &CcsProblem,
    members: &[DeviceId],
    skip: Option<ChargerId>,
    mut best: Option<FacilityChoice>,
    mut best_cost: f64,
) -> Option<FacilityChoice> {
    let t = problem.tables();
    let dd_lb = pairwise_spatial_bound(problem, members);

    // Point-independent floor over ALL chargers: b_j + η_j·g(k) + Σ π_j·w_i
    // >= min_b + min_η·g(k) + min_π·Σw_i for any charger j.
    let total_demand: f64 = members
        .iter()
        .map(|&d| problem.device(d).demand().value())
        .sum();
    let fixed_floor = t.min_base_fee()
        + t.min_occupancy() * t.curve_value(members.len())
        + t.min_energy_price() * total_demand;
    // Rate for the ring-distance floor: spatial_j >= min(τ_j, κ_ref) ·
    // d(q_j, p_ref) >= min(τ_min, κ_ref) · ring lower bound.
    let ref_dev = problem.device(members[0]);
    let (ref_pos, kappa_ref) = (ref_dev.position(), ref_dev.move_cost_rate().value());
    let spatial_rate = t.min_travel_rate().min(kappa_ref);

    let k = members.len();
    let demand = problem.group_demand(members);
    let mut cursor = t.charger_grid().rings_from(ref_pos);
    let mut ring: Vec<u32> = Vec::new();
    let mut candidates: Vec<(f64, ChargerId)> = Vec::new();
    while let Some(ring_lb) = cursor.next_ring(&mut ring) {
        if fixed_floor + dd_lb.max(spatial_rate * ring_lb) > best_cost {
            break;
        }
        candidates.clear();
        for &raw in &ring {
            let c = ChargerId::new(raw);
            if Some(c) == skip
                || cheap_charger_bound(problem, c, k, total_demand, dd_lb, ref_pos, kappa_ref)
                    > best_cost
                || !problem.charger(c).can_deliver(demand)
            {
                continue;
            }
            candidates.push((facility_lower_bound(problem, c, members, dd_lb), c));
        }
        ring.clear();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(bound, c) in &candidates {
            if bound > best_cost {
                break;
            }
            consider_charger(problem, members, c, &mut best, &mut best_cost);
        }
    }
    best
}

/// Chargers counts below this use the sort-based full scan; the grid's
/// ring machinery only pays off once there are enough chargers to skip.
const GRID_MIN_CHARGERS: usize = 64;

/// Strategy dispatch behind [`try_best_facility`] and
/// [`try_best_facility_anchored`], continuing from an incumbent `best` at
/// `best_cost` (`None` at infinity), which is also the pruning threshold,
/// and never visiting `skip`. Both strategies return the bitwise-identical
/// argmin (pinned by the `fastpath` and `fastpath_grid` proptests against
/// an exhaustive scan), so the cutoff is purely a performance choice.
fn pruned_facility_scan(
    problem: &CcsProblem,
    members: &[DeviceId],
    skip: Option<ChargerId>,
    best: Option<FacilityChoice>,
    best_cost: f64,
) -> Option<FacilityChoice> {
    if problem.num_chargers() >= GRID_MIN_CHARGERS {
        facility_scan_grid(problem, members, skip, best, best_cost)
    } else {
        facility_scan_full(problem, members, skip, best, best_cost)
    }
}

/// The cheapest facility for a member set among the chargers whose energy
/// budget covers the group's demand, with the lowest group cost winning
/// (deterministic tie-break on charger id).
///
/// Chargers whose per-charger lower bound already exceeds the best cost
/// found are pruned without running Weiszfeld — the dominant saving of the
/// evaluation kernel — and gathering points come from the per-problem memo.
/// The result is bitwise identical to evaluating every eligible charger.
///
/// Returns `None` when no charger can serve the group (never happens for
/// singletons: problem construction validates them).
pub fn try_best_facility(problem: &CcsProblem, members: &[DeviceId]) -> Option<FacilityChoice> {
    assert!(!members.is_empty(), "a group needs at least one member");
    pruned_facility_scan(problem, members, None, None, f64::INFINITY)
}

/// [`try_best_facility`] that evaluates `anchor` — a charger a caller has
/// reason to believe is the winner, e.g. the charger of the group this set
/// differs from by one member — before the ordered scan. This is the one
/// warm start for re-pricing a group: CCSGA's cache misses and CCSA's
/// local-improvement moves both take it. The anchor's *achieved* cost is a
/// valid threshold from the first ring, so the scan prunes as hard as
/// possible; an anchor whose budget cannot cover the group is skipped.
/// The scan never visits the anchor again: a second visit would re-price
/// it through a memo hit, and an equal cost at the same id is never
/// better. Bitwise identical to [`try_best_facility`] for every anchor
/// (pinned by the `fastpath` proptests): pruning compares against an
/// achieved cost and the `(group_cost, charger id)` order is visit-order
/// independent.
pub fn try_best_facility_anchored(
    problem: &CcsProblem,
    members: &[DeviceId],
    anchor: ChargerId,
) -> Option<FacilityChoice> {
    assert!(!members.is_empty(), "a group needs at least one member");
    let mut best: Option<FacilityChoice> = None;
    let mut best_cost = f64::INFINITY;
    if problem.charger_can_serve(anchor, members) {
        consider_charger(problem, members, anchor, &mut best, &mut best_cost);
    }
    pruned_facility_scan(problem, members, Some(anchor), best, best_cost)
}

/// Like [`try_best_facility`], for callers that have already established
/// feasibility.
///
/// # Panics
///
/// Panics if `members` is empty or no charger's budget covers the group.
pub fn best_facility(problem: &CcsProblem, members: &[DeviceId]) -> FacilityChoice {
    try_best_facility(problem, members)
        .expect("no charger's energy budget covers this group's demand")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gathering::{gathering_point, GatheringStrategy};
    use ccs_submodular::check::{is_monotone_nondecreasing, is_submodular};
    use ccs_submodular::set_fn::FnSetFunction;
    use ccs_wrsn::scenario::ScenarioGenerator;
    use proptest::prelude::*;

    fn problem() -> CcsProblem {
        CcsProblem::new(ScenarioGenerator::new(7).devices(8).chargers(3).generate())
    }

    fn ids(v: &[u32]) -> Vec<DeviceId> {
        v.iter().map(|&i| DeviceId::new(i)).collect()
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

    #[test]
    fn bill_items_add_up() {
        let p = problem();
        let members = ids(&[0, 1, 2]);
        let c = ChargerId::new(0);
        let point = p.charger(c).position();
        let bill = group_bill(&p, c, &members, &point);
        assert_eq!(bill.charger_travel, Cost::ZERO, "charger gathers at home");
        assert_eq!(bill.energy.len(), 3);
        let manual = bill.base_fee
            + bill.charger_travel
            + bill.congestion
            + bill.energy.iter().copied().sum::<Cost>();
        assert!((bill.total() - manual).abs() < Cost::new(1e-9));
        assert!(bill.group_level() <= bill.total());
    }

    #[test]
    fn bigger_group_pays_more_total_but_congestion_is_concave() {
        let p = problem();
        let c = ChargerId::new(1);
        let point = Point::new(50.0, 50.0);
        let b1 = group_bill(&p, c, &ids(&[0]), &point);
        let b2 = group_bill(&p, c, &ids(&[0, 1]), &point);
        let b3 = group_bill(&p, c, &ids(&[0, 1, 2]), &point);
        assert!(b2.total() > b1.total());
        assert!(b3.total() > b2.total());
        let inc12 = b2.congestion - b1.congestion;
        let inc23 = b3.congestion - b2.congestion;
        assert!(inc23 <= inc12 + Cost::new(1e-12), "diminishing congestion");
    }

    #[test]
    fn bill_is_submodular_and_monotone_in_membership() {
        // The paper-critical property: for a FIXED facility, S -> bill(S)
        // (with bill(∅) = 0) is nonnegative, monotone and submodular.
        let p = problem();
        let c = ChargerId::new(2);
        let point = Point::new(120.0, 80.0);
        let all: Vec<DeviceId> = (0..6).map(DeviceId::new).collect();
        let pc = p.clone();
        let f = FnSetFunction::new(6, move |s| {
            if s.is_empty() {
                return 0.0;
            }
            let members: Vec<DeviceId> = s.iter().map(|i| all[i]).collect();
            group_bill(&pc, c, &members, &point).total().value()
        });
        assert!(is_submodular(&f, 1e-9));
        assert!(is_monotone_nondecreasing(&f, 1e-9));
    }

    #[test]
    fn moving_costs_align_and_scale_with_distance() {
        let p = problem();
        let members = ids(&[0, 3]);
        let at_dev0 = p.device(DeviceId::new(0)).position();
        let mv = moving_costs(&p, &members, &at_dev0);
        assert_eq!(mv.len(), 2);
        assert_eq!(mv[0], Cost::ZERO, "device 0 does not move");
        assert!(mv[1] >= Cost::ZERO);
    }

    #[test]
    fn best_facility_beats_every_single_charger_choice() {
        let p = problem();
        let members = ids(&[1, 4, 5]);
        let best = best_facility(&p, &members);
        for c in p.scenario().charger_ids() {
            let point = gathering_point(&p, c, &members, p.params().gathering);
            let alt = evaluate_facility(&p, c, &members, point);
            assert!(best.group_cost() <= alt.group_cost() + Cost::new(1e-9));
        }
        assert_eq!(best.moving.len(), members.len());
        assert_eq!(best.bill.energy.len(), members.len());
    }

    #[test]
    fn facility_group_cost_is_bill_plus_moving() {
        let p = problem();
        let members = ids(&[2, 6]);
        let f = best_facility(&p, &members);
        let manual = f.bill.total() + f.moving.iter().copied().sum::<Cost>();
        assert!((f.group_cost() - manual).abs() < Cost::new(1e-9));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_group_bill_panics() {
        let p = problem();
        let _ = group_bill(&p, ChargerId::new(0), &[], &Point::ORIGIN);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A solve abandoned against an incumbent cost `T` belongs to a
        /// facility whose completed group cost strictly exceeds `T`, and a
        /// solve that completes returns the unbounded point. Each `T` probes a
        /// fresh problem, so no memo entry hides the solve. After an
        /// abandonment the memo holds the bound it proved: asking about `T`
        /// again still abandons, while an exact tie with the completed cost,
        /// and then no incumbent at all, get the unbounded point.
        #[test]
        fn abandoned_solves_cost_more_than_the_incumbent(
            seed in 0u64..1_000,
            devices in 2usize..12,
            chargers in 1usize..5,
            mask in 1u64..(1 << 12),
            factor in 0.5f64..1.5,
        ) {
            let scenario = ScenarioGenerator::new(seed).devices(devices).chargers(chargers).generate();
            let reference = CcsProblem::new(scenario.clone());
            let members = members_from_mask(devices, mask);
            for c in reference.scenario().charger_ids() {
                let point = gathering_point(&reference, c, &members, GatheringStrategy::Weiszfeld);
                let cost = evaluate_facility(&reference, c, &members, point).group_cost().value();
                for incumbent in [0.0, cost * factor, cost, f64::from_bits(cost.to_bits() - 1)] {
                    let fresh = CcsProblem::new(scenario.clone());
                    match bounded_gathering_point(&fresh, c, &members, incumbent) {
                        None => {
                            prop_assert!(
                                cost > incumbent,
                                "abandoned {c} at incumbent {incumbent}, completed cost {cost}"
                            );
                            prop_assert_eq!(bounded_gathering_point(&fresh, c, &members, incumbent), None);
                            prop_assert_eq!(bounded_gathering_point(&fresh, c, &members, cost), Some(point));
                            prop_assert_eq!(
                                bounded_gathering_point(&fresh, c, &members, f64::INFINITY),
                                Some(point)
                            );
                        }
                        Some(bounded) => prop_assert_eq!(bounded, point),
                    }
                }
            }
        }
    }

    mod scan_scalar {
        use super::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// [`group_cost_at`] is bitwise
            /// `evaluate_facility(..).group_cost()`: the scalar ranking in
            /// `consider_charger` sees exactly the costs the materialized
            /// path would, so deferring `FacilityChoice` construction to
            /// winners cannot change any argmin or tie-break.
            #[test]
            fn scalar_cost_is_bitwise_the_materialized_cost(
                seed in 0u64..1_000,
                devices in 2usize..14,
                chargers in 1usize..5,
                mask in 1u64..(1 << 14),
                px in 0.0f64..200.0,
                py in 0.0f64..200.0,
            ) {
                let p = CcsProblem::new(
                    ScenarioGenerator::new(seed)
                        .devices(devices)
                        .chargers(chargers)
                        .generate(),
                );
                let members = members_from_mask(devices, mask);
                let point = Point::new(px, py);
                for c in p.scenario().charger_ids() {
                    let scalar = group_cost_at(&p, c, &members, &point);
                    let materialized =
                        evaluate_facility(&p, c, &members, point).group_cost().value();
                    prop_assert_eq!(scalar.to_bits(), materialized.to_bits());
                }
            }
        }
    }

    /// `r·d(a, b)` floors for hand-picked pairs at the edges of the float
    /// range, against the `r·hypot` product they stand for.
    #[test]
    fn rate_distance_floor_stays_below_the_hypot_product_at_the_extremes() {
        let tiny = f64::from_bits(1); // 2⁻¹⁰⁷⁴, the least subnormal
        let cases = [
            // Subnormal differences with a huge rate: `hypot` rounds
            // √2·2⁻¹⁰⁷⁴ down to 2⁻¹⁰⁷⁴, far below one root of the squares.
            (2f64.powi(600), Point::new(tiny, tiny), Point::ORIGIN),
            // Squares that overflow while the product does not.
            (0.5, Point::new(1e300, 1e300), Point::ORIGIN),
            // Squares that underflow: the floor is 0.
            (1e-160, Point::new(1e-160, 0.0), Point::ORIGIN),
            (0.07, Point::new(120.5, 33.25), Point::new(7.0, 250.0)),
        ];
        for (rate, a, b) in cases {
            let mut floor = RateDistanceFloor::EMPTY;
            floor.add(rate, a, b);
            let reference = max_rate_distance(std::iter::once((rate, a, b)));
            let value = floor.floor(|| reference);
            assert!(
                (0.0..=reference).contains(&value),
                "rate {rate:e}, {a:?}-{b:?}: floor {value:e} vs hypot bound {reference:e}"
            );
        }
    }

    mod one_root_floor {
        use super::*;
        use ccs_wrsn::scenario::ParamRange;

        /// The bounds as they were computed before [`RateDistanceFloor`]:
        /// one `min(rate)·hypot` product per pair, maximized. Returns the
        /// pairwise, facility and cheap bounds for `charger`.
        fn hypot_bounds(p: &CcsProblem, c: ChargerId, members: &[DeviceId]) -> (f64, f64, f64) {
            let kappa = |d: DeviceId| p.device(d).move_cost_rate().value();
            let pos = |d: DeviceId| p.device(d).position();
            let ch = p.charger(c);
            let tau = ch.travel_cost_rate().value();
            let mut dd = 0.0f64;
            for (idx, &a) in members.iter().enumerate() {
                for &b in &members[idx + 1..] {
                    let bound = kappa(a).min(kappa(b)) * pos(a).distance_value(&pos(b));
                    if bound > dd {
                        dd = bound;
                    }
                }
            }
            let mut fixed = ch.base_fee() + p.congestion(c, members.len());
            let mut spatial = dd;
            for &d in members {
                fixed += p.energy(c, d);
                let bound = tau.min(kappa(d)) * pos(d).distance_value(&ch.position());
                if bound > spatial {
                    spatial = bound;
                }
            }
            let total_demand: f64 = members.iter().map(|&d| p.device(d).demand().value()).sum();
            let cheap_bill = ((ch.base_fee() + p.congestion(c, members.len())).value()
                + ch.energy_price().value() * total_demand)
                * (1.0 - 1e-9);
            let reference = members[0];
            let cheap = cheap_bill
                + dd.max(tau.min(kappa(reference)) * pos(reference).distance_value(&ch.position()));
            (dd, fixed.value() + spatial, cheap)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// With positions scaled by `2^k_pos` and rates by `2^k_rate`,
            /// every one-root bound is at most the `hypot` bound it
            /// replaced, through overflow, underflow and everything between.
            #[test]
            fn one_root_bounds_never_exceed_the_hypot_bounds(
                seed in 0u64..1_000,
                devices in 2usize..10,
                chargers in 1usize..5,
                mask in 1u64..(1 << 10),
                k_pos in -1000i32..=1000,
                k_rate in -1000i32..=1000,
            ) {
                let (pos_scale, rate_scale) = (2f64.powi(k_pos), 2f64.powi(k_rate));
                let p = CcsProblem::new(
                    ScenarioGenerator::new(seed)
                        .devices(devices)
                        .chargers(chargers)
                        .field_side(300.0 * pos_scale)
                        .device_move_cost_range(ParamRange::new(
                            0.04 * rate_scale,
                            0.10 * rate_scale,
                        ))
                        .charger_travel_cost_range(ParamRange::new(
                            0.08 * rate_scale,
                            0.15 * rate_scale,
                        ))
                        .generate(),
                );
                let members = members_from_mask(devices, mask);
                let dd = pairwise_spatial_bound(&p, &members);
                let total_demand: f64 = members.iter().map(|&d| p.device(d).demand().value()).sum();
                let reference = p.device(members[0]);
                for c in p.scenario().charger_ids() {
                    let (hypot_dd, hypot_facility, hypot_cheap) = hypot_bounds(&p, c, &members);
                    let facility = facility_lower_bound(&p, c, &members, dd);
                    let cheap = cheap_charger_bound(
                        &p,
                        c,
                        members.len(),
                        total_demand,
                        dd,
                        reference.position(),
                        reference.move_cost_rate().value(),
                    );
                    prop_assert!((0.0..=hypot_dd).contains(&dd), "pairs: {dd:e} vs {hypot_dd:e}");
                    prop_assert!(facility <= hypot_facility, "{facility:e} vs {hypot_facility:e}");
                    prop_assert!(cheap <= hypot_cheap, "{cheap:e} vs {hypot_cheap:e}");
                    prop_assert!(cheap <= facility, "cheap {cheap:e} over exact {facility:e}");
                }
            }
        }
    }
}
