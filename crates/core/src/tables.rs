//! The derived state of the evaluation kernel: [`ProblemTables`].
//!
//! Every scheduler in this workspace funnels through the same two oracles —
//! `cost::evaluate_facility` (a bill at a fixed facility) and
//! `cost::try_best_facility` (a scan over chargers, each requiring a
//! Weiszfeld gathering-point solve). The per-device and per-charger
//! parameters they price with (positions, rates, demands, fees and prices)
//! live on the [`Device`](ccs_wrsn::entities::Device) and [`Charger`]
//! entities, and the kernel reads them from there. `ProblemTables` holds
//! only what is *derived* from the instance, built once per [`CcsProblem`]
//! on first use:
//!
//! * two [`UniformGrid`] spatial indexes (devices and chargers) powering
//!   ring-ordered candidate enumeration with geometric lower bounds in
//!   `cost::try_best_facility` and CCSGA's neighbour shortlists, plus the
//!   fleet-wide fee, price, congestion and travel-rate minima the ring
//!   scan's floors need;
//! * the congestion curve `g(k) = √k` for every `k ≤ n`, so the congestion
//!   term `η_j · g(k)` ([`CcsProblem::congestion`]) costs one
//!   multiplication.
//!   Distances are not tabulated: the scans' pruning bounds read the
//!   positions directly (see `cost`), so a cold plan builds nothing
//!   `O(n·m)` or `O(n²)`;
//! * a memo of gathering points keyed by flat `[charger, member ids…]`
//!   slices (probed allocation-free from thread-local scratch), so a
//!   `(charger, group)` pair priced again on the same problem reuses its
//!   solve.
//!   Re-evaluating the same membership in best-response scans is absorbed
//!   earlier, by the ccsga coalition cache. When a facility scan's cutoff
//!   abandons a losing solve, the memo keeps the lower bound that proved
//!   it, so a repeated solve of the same problem re-abandons without
//!   solving. Only solves that iterated or were abandoned are kept: an
//!   optimum that Kuhn's test settles at an anchor, or a three-anchor
//!   optimum found in closed form, is decided again, in `O(k)` and without
//!   iterating, on a later probe;
//! * a memo of CCSGA's neighbour orders, keyed by `(device, limit)`.
//!
//! The tables are **read-only shared state** (both memos are pure function
//! caches), so they cannot perturb determinism.

use crate::gathering::{gathering_point, weiszfeld_point, GatheringStrategy};
use crate::grid::UniformGrid;
use crate::problem::CcsProblem;
use ccs_coalition::memo::Memo;
use ccs_wrsn::entities::{Charger, ChargerId, DeviceId};
use ccs_wrsn::geometry::Point;
use ccs_wrsn::scenario::Scenario;
use std::fmt;

/// What the gathering memo knows about one `(charger, members)` key.
#[derive(Debug, Clone, Copy)]
enum Gathered {
    /// The solve completed at this point.
    Point(Point),
    /// The solve was abandoned; the spatial objective's minimum is at
    /// least this bound.
    Above(f64),
}

/// Per-instance derived state of the CCS cost model: spatial indexes,
/// fleet-wide minima, the congestion curve and the solve memos.
pub struct ProblemTables {
    /// `g(k) = √k` for every `k ≤ n`.
    curve: Vec<f64>,
    /// Spatial index over device positions.
    device_grid: UniformGrid,
    /// Spatial index over charger positions.
    charger_grid: UniformGrid,
    /// `min_j τ_j` (`0` when there are no chargers).
    min_travel_rate: f64,
    /// `min_j b_j` as a raw value.
    min_base_fee: f64,
    /// `min_j π_j` as a raw value.
    min_energy_price: f64,
    /// `min_j η_j` as a raw value.
    min_occupancy: f64,
    /// Gathering-point memo keyed by flat `[charger, sorted member ids…]`
    /// slices. The hit path probes with a borrowed `&[u32]` built in
    /// thread-local scratch; an owned key is only built alongside a miss's
    /// solve.
    gather: Memo<Box<[u32]>, Gathered>,
    /// Spatial neighbor-order memo: `(device, limit) -> nearest device ids
    /// in ascending (distance, id) order`.
    neighbors: Memo<(u32, u32), Box<[u32]>>,
}

impl ProblemTables {
    /// Builds the tables for a scenario. Called once per problem via
    /// `CcsProblem::tables`; `O(n + m)` time and space.
    pub(crate) fn new(scenario: &Scenario) -> Self {
        let chargers = scenario.chargers();
        let device_pos: Vec<Point> = scenario.devices().iter().map(|d| d.position()).collect();
        let charger_pos: Vec<Point> = chargers.iter().map(|c| c.position()).collect();
        // The fleet-wide minimum of one charger parameter (`0` when there
        // are no chargers).
        let min_of = |value: fn(&Charger) -> f64| {
            let min = chargers.iter().map(value).fold(f64::INFINITY, f64::min);
            if min.is_finite() {
                min
            } else {
                0.0
            }
        };
        ProblemTables {
            curve: (0..=device_pos.len()).map(|k| (k as f64).sqrt()).collect(),
            device_grid: UniformGrid::build(&device_pos),
            charger_grid: UniformGrid::build(&charger_pos),
            min_travel_rate: min_of(|c| c.travel_cost_rate().value()),
            min_base_fee: min_of(|c| c.base_fee().value()),
            min_energy_price: min_of(|c| c.energy_price().value()),
            min_occupancy: min_of(|c| c.occupancy_rate().value()),
            gather: Memo::new(),
            neighbors: Memo::new(),
        }
    }

    /// The spatial index over device positions.
    #[inline]
    pub fn device_grid(&self) -> &UniformGrid {
        &self.device_grid
    }

    /// The spatial index over charger positions.
    #[inline]
    pub fn charger_grid(&self) -> &UniformGrid {
        &self.charger_grid
    }

    /// `min_j τ_j`, the floor used by ring-ordered charger search.
    #[inline]
    pub fn min_travel_rate(&self) -> f64 {
        self.min_travel_rate
    }

    /// `min_j b_j` as a raw value.
    #[inline]
    pub fn min_base_fee(&self) -> f64 {
        self.min_base_fee
    }

    /// `min_j π_j` as a raw value.
    #[inline]
    pub fn min_energy_price(&self) -> f64 {
        self.min_energy_price
    }

    /// `min_j η_j` as a raw value.
    #[inline]
    pub fn min_occupancy(&self) -> f64 {
        self.min_occupancy
    }

    /// `g(k) = √k` as a raw value (`k ≤ n`).
    #[inline]
    pub fn curve_value(&self, k: usize) -> f64 {
        self.curve[k]
    }

    /// The gathering point for `(charger, members)` under the problem's
    /// strategy, memoized. The memo is a pure-function cache — a hit returns
    /// bitwise the point a fresh [`gathering_point`] call would compute.
    ///
    /// Under [`GatheringStrategy::Weiszfeld`] the solve hands `abandon` a
    /// lower bound on the spatial objective's minimum after every ordinary
    /// iteration; `None` means `abandon` accepted one. An abandoned solve
    /// is memoized as the best bound it proved: a later probe of the key
    /// first offers `abandon` that bound, and solves again only when it
    /// is refused. A solve that settles without iterating (at an anchor by
    /// Kuhn's test, or at a three-anchor optimum in closed form) is not
    /// memoized: a later probe decides it again in `O(k)`. A probe answered
    /// from the memo counts in `tables.gather_hits`, one that solves in
    /// `tables.gather_misses`. The cheaper strategies never consult
    /// `abandon`.
    pub fn cached_gathering_point(
        &self,
        problem: &CcsProblem,
        charger: ChargerId,
        members: &[DeviceId],
        mut abandon: impl FnMut(f64) -> bool,
    ) -> Option<Point> {
        thread_local! {
            /// Scratch for the flat `[charger, member ids…]` probe key.
            static KEY: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        let hit = KEY.with(|cell| {
            let mut key = cell.borrow_mut();
            key.clear();
            key.push(charger.value());
            key.extend(members.iter().map(|d| d.value()));
            self.gather.get(&key[..], |&gathered| gathered)
        });
        let mut proven = f64::NEG_INFINITY;
        match hit {
            Some(Gathered::Point(point)) => {
                ccs_telemetry::counter!("tables.gather_hits").incr();
                return Some(point);
            }
            Some(Gathered::Above(bound)) if abandon(bound) => {
                ccs_telemetry::counter!("tables.gather_hits").incr();
                return None;
            }
            Some(Gathered::Above(bound)) => proven = bound,
            None => {}
        }
        ccs_telemetry::counter!("tables.gather_misses").incr();
        let (point, settled) = match problem.params().gathering {
            GatheringStrategy::Weiszfeld => weiszfeld_point(problem, charger, members, |bound| {
                proven = proven.max(bound);
                abandon(bound)
            }),
            strategy => (
                Some(gathering_point(problem, charger, members, strategy)),
                false,
            ),
        };
        if settled {
            return point;
        }
        let key: Box<[u32]> = std::iter::once(charger.value())
            .chain(members.iter().map(|d| d.value()))
            .collect();
        self.gather
            .insert(key, point.map_or(Gathered::Above(proven), Gathered::Point));
        point
    }

    /// Copies the memoized neighbor order for `(device, limit)` into
    /// `out`, returning whether there was a hit. See
    /// [`store_neighbor_order`](Self::store_neighbor_order).
    pub fn cached_neighbor_order(&self, device: u32, limit: u32, out: &mut Vec<usize>) -> bool {
        self.neighbors
            .get(&(device, limit), |order| {
                out.extend(order.iter().map(|&q| q as usize))
            })
            .is_some()
    }

    /// Memoizes a neighbor order computed for `(device, limit)`. The order
    /// must be the pure spatial ranking the ccsga game computes — nearest
    /// devices by exact `(distance, id)` — so a later hit is bitwise the
    /// recomputation.
    pub fn store_neighbor_order(&self, device: u32, limit: u32, order: &[usize]) {
        let boxed: Box<[u32]> = order.iter().map(|&q| q as u32).collect();
        self.neighbors.insert((device, limit), boxed);
    }

    /// Number of memoized gathering solves, points and abandonment bounds
    /// alike (for tests and diagnostics).
    pub fn gather_cache_len(&self) -> usize {
        self.gather.len()
    }
}

impl fmt::Debug for ProblemTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProblemTables")
            .field("gather_cache_len", &self.gather_cache_len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_wrsn::scenario::ScenarioGenerator;

    fn problem() -> CcsProblem {
        CcsProblem::new(ScenarioGenerator::new(11).devices(9).chargers(3).generate())
    }

    #[test]
    fn rate_floors_match_entity_minima() {
        let p = problem();
        let t = p.tables();
        let min_tau = p
            .scenario()
            .chargers()
            .iter()
            .map(|c| c.travel_cost_rate().value())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(t.min_travel_rate(), min_tau);
        let min_fee = p
            .scenario()
            .chargers()
            .iter()
            .map(|c| c.base_fee().value())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(t.min_base_fee(), min_fee);
    }

    #[test]
    fn grids_cover_all_entities() {
        let p = problem();
        let t = p.tables();
        assert_eq!(t.device_grid().len(), p.num_devices());
        assert_eq!(t.charger_grid().len(), p.scenario().chargers().len());
    }

    #[test]
    fn gathering_memo_is_transparent() {
        let p = problem();
        let t = p.tables();
        let members: Vec<DeviceId> = [0u32, 2, 5].iter().map(|&i| DeviceId::new(i)).collect();
        let c = ChargerId::new(1);
        let fresh = gathering_point(&p, c, &members, p.params().gathering);
        // An abandoned solve leaves the bound it proved: a later probe is
        // offered exactly that bound first.
        let mut first_bound = None;
        let abandoned = t.cached_gathering_point(&p, c, &members, |bound| {
            first_bound = Some(bound);
            true
        });
        assert_eq!(abandoned, None);
        assert_eq!(t.gather_cache_len(), 1);
        let mut offered = Vec::new();
        let refused = t.cached_gathering_point(&p, c, &members, |bound| {
            offered.push(bound);
            false
        });
        assert_eq!(offered[0], first_bound.unwrap());
        // Refusing the stored bound runs the full solve, which replaces it.
        assert_eq!(refused, Some(fresh));
        let hit = t.cached_gathering_point(&p, c, &members, |_| true);
        assert_eq!(
            hit,
            Some(fresh),
            "a completed point never consults the cutoff"
        );
        assert_eq!(t.gather_cache_len(), 1);
    }

    #[test]
    fn clone_of_problem_shares_no_stale_state() {
        let p = problem();
        let _ = p.tables();
        let q = p.clone();
        // The clone either re-derives or shares the same immutable tables;
        // both must answer identically.
        for k in 0..=p.num_devices() {
            assert_eq!(
                q.congestion(ChargerId::new(0), k),
                p.congestion(ChargerId::new(0), k)
            );
        }
    }
}
