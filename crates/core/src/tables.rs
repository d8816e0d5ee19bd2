//! The precomputed evaluation kernel: [`ProblemTables`].
//!
//! Every scheduler in this workspace funnels through the same two oracles —
//! `cost::evaluate_facility` (a bill at a fixed facility) and
//! `cost::best_facility` (a scan over chargers, each requiring a Weiszfeld
//! gathering-point solve). Both used to recompute geometry and price terms
//! from the entities on every call. `ProblemTables` hoists everything that
//! depends only on the *instance* into flat arrays, built once per
//! [`CcsProblem`] on first use:
//!
//! * **SoA factor columns** — `demand[i]`, `energy_price[j]`,
//!   `occupancy[j]`, `curve[k]`, `move_rate[i]`, `travel_rate[j]`, and the
//!   raw positions. The hot per-(charger, device) reads are products of two
//!   column entries (`π_j · w_i`, `η_j · g(k)`), bitwise identical to the
//!   direct entity computation but read from contiguous, cache-friendly
//!   vectors instead of an `m × n` matrix. Distances are not tabulated:
//!   the scans' pruning bounds read the positions directly (see `cost`),
//!   so a cold plan builds nothing `O(n·m)` or `O(n²)`;
//! * two [`UniformGrid`] spatial indexes (devices and chargers) powering
//!   ring-ordered candidate enumeration with geometric lower bounds in
//!   `cost::try_best_facility` and the CCSA candidate scan, plus the
//!   instance-wide rate/price floors those bounds need;
//! * a memo of gathering points keyed by flat `[charger, member ids…]`
//!   slices (probed allocation-free from thread-local scratch), so a
//!   `(charger, group)` pair priced again on the same problem reuses its
//!   solve.
//!   Re-evaluating the same membership in best-response scans is absorbed
//!   earlier, by the ccsga coalition cache. When a facility scan's cutoff
//!   abandons a losing solve, the memo keeps the lower bound that proved
//!   it, so a repeated solve of the same problem re-abandons without
//!   solving. Only solves that iterated or were abandoned are kept: an
//!   optimum that Kuhn's test settles at an anchor is decided again, in
//!   `O(k)` and without iterating, on a later probe.
//!
//! The tables are **read-only shared state** (the gathering memo is a pure
//! function cache), so they cannot perturb determinism: every value read
//! from a table is bitwise the value the direct computation produces, which
//! `cost::group_bill_direct` and the `fastpath` proptests pin down.

use crate::gathering::{gathering_point, weiszfeld_point, GatheringStrategy};
use crate::grid::UniformGrid;
use crate::problem::CcsProblem;
use ccs_coalition::fasthash::FastBuildHasher;
use ccs_wrsn::entities::{ChargerId, DeviceId};
use ccs_wrsn::geometry::Point;
use ccs_wrsn::scenario::Scenario;
use ccs_wrsn::units::{Cost, CostPerJoule, Joules};
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Mutex;

/// Number of independently locked shards of the gathering-point memo.
const GATHER_SHARDS: usize = 16;

/// One shard of the gathering-point memo: a flat `[charger, member ids…]`
/// key to the memoized solve. The flat key lets the hit path probe with a
/// borrowed `&[u32]` built in thread-local scratch — no allocation at all;
/// an owned boxed key is only materialized alongside a miss's Weiszfeld
/// solve.
type GatherShard = Mutex<HashMap<Box<[u32]>, Gathered, FastBuildHasher>>;

/// What the gathering memo knows about one `(charger, members)` key.
#[derive(Debug, Clone, Copy)]
enum Gathered {
    /// The solve completed at this point.
    Point(Point),
    /// The solve was abandoned; the spatial objective's minimum is at
    /// least this bound.
    Above(f64),
}

/// One shard of the neighbor-order memo: `(device, limit)` to the nearest
/// device ids in ascending `(distance, id)` order.
type NeighborShard = Mutex<HashMap<(u32, u32), Box<[u32]>, FastBuildHasher>>;

/// Flat per-instance lookup tables for the CCS cost model.
pub struct ProblemTables {
    n: usize,
    m: usize,
    /// `κ_i` as raw values, indexed by device.
    move_rate: Vec<f64>,
    /// `τ_j` as raw values, indexed by charger.
    travel_rate: Vec<f64>,
    /// `w_i`, indexed by device.
    demand: Vec<Joules>,
    /// `π_j`, indexed by charger.
    energy_price: Vec<CostPerJoule>,
    /// `b_j`, indexed by charger.
    base_fee: Vec<Cost>,
    /// `η_j`, indexed by charger.
    occupancy: Vec<Cost>,
    /// `g(k)` for every `k ≤ n`.
    curve: Vec<f64>,
    /// `p_i`, indexed by device.
    device_pos: Vec<Point>,
    /// `q_j`, indexed by charger.
    charger_pos: Vec<Point>,
    /// Spatial index over device positions.
    device_grid: UniformGrid,
    /// Spatial index over charger positions.
    charger_grid: UniformGrid,
    /// `min_j τ_j` (`0` when there are no chargers).
    min_travel_rate: f64,
    /// `min_i κ_i` (`0` when there are no devices).
    min_move_rate: f64,
    /// `min_j b_j` as a raw value.
    min_base_fee: f64,
    /// `min_j π_j` as a raw value.
    min_energy_price: f64,
    /// `min_j η_j` as a raw value.
    min_occupancy: f64,
    /// Gathering-point memo: `(charger, sorted member ids) -> point`.
    gather: Vec<GatherShard>,
    /// Spatial neighbor-order memo: `(device, limit) -> nearest device ids
    /// in ascending (distance, id) order`. Pure function of the instance,
    /// like the gathering memo, so memoization cannot perturb determinism;
    /// sharded by device id so parallel probes rarely contend.
    neighbors: Vec<NeighborShard>,
}

impl ProblemTables {
    /// Builds the tables for a scenario + cost parameters. Called once per
    /// problem via `CcsProblem::tables`; `O(n + m)` time and space.
    pub(crate) fn new(
        scenario: &Scenario,
        curve: &ccs_submodular::set_fn::CardinalityCurve,
    ) -> Self {
        let devices = scenario.devices();
        let chargers = scenario.chargers();
        let (n, m) = (devices.len(), chargers.len());

        let move_rate: Vec<f64> = devices.iter().map(|d| d.move_cost_rate().value()).collect();
        let travel_rate: Vec<f64> = chargers
            .iter()
            .map(|c| c.travel_cost_rate().value())
            .collect();
        let demand: Vec<Joules> = devices.iter().map(|d| d.demand()).collect();
        let energy_price: Vec<CostPerJoule> = chargers.iter().map(|c| c.energy_price()).collect();
        let base_fee: Vec<Cost> = chargers.iter().map(|c| c.base_fee()).collect();
        let occupancy: Vec<Cost> = chargers.iter().map(|c| c.occupancy_rate()).collect();
        let curve: Vec<f64> = (0..=n).map(|k| curve.eval(k)).collect();
        let device_pos: Vec<Point> = devices.iter().map(|d| d.position()).collect();
        let charger_pos: Vec<Point> = chargers.iter().map(|c| c.position()).collect();

        let fold_min = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };

        ProblemTables {
            n,
            m,
            min_travel_rate: finite(fold_min(&travel_rate)),
            min_move_rate: finite(fold_min(&move_rate)),
            min_base_fee: finite(
                chargers
                    .iter()
                    .map(|c| c.base_fee().value())
                    .fold(f64::INFINITY, f64::min),
            ),
            min_energy_price: finite(
                energy_price
                    .iter()
                    .map(|p| p.value())
                    .fold(f64::INFINITY, f64::min),
            ),
            min_occupancy: finite(
                occupancy
                    .iter()
                    .map(|o| o.value())
                    .fold(f64::INFINITY, f64::min),
            ),
            move_rate,
            travel_rate,
            demand,
            energy_price,
            base_fee,
            occupancy,
            curve,
            device_grid: UniformGrid::build(&device_pos),
            charger_grid: UniformGrid::build(&charger_pos),
            device_pos,
            charger_pos,
            gather: (0..GATHER_SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
            neighbors: (0..GATHER_SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
        }
    }

    /// Ground-set size `n` the tables were built for.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.n
    }

    /// Number of chargers `m` the tables were built for.
    #[inline]
    pub fn num_chargers(&self) -> usize {
        self.m
    }

    /// The energy charge `π_j · w_i` — the product of the two factor
    /// columns, bitwise `device.demand() * charger.energy_price()`.
    #[inline]
    pub fn energy(&self, charger: ChargerId, device: DeviceId) -> Cost {
        self.demand[device.index()] * self.energy_price[charger.index()]
    }

    /// The base fee `b_j` — the charger column, bitwise
    /// `charger.base_fee()`.
    #[inline]
    pub fn base_fee(&self, charger: ChargerId) -> Cost {
        self.base_fee[charger.index()]
    }

    /// The energy price `π_j` — the charger column, bitwise
    /// `charger.energy_price()`.
    #[inline]
    pub fn energy_price(&self, charger: ChargerId) -> CostPerJoule {
        self.energy_price[charger.index()]
    }

    /// The congestion term `η_j · g(k)` for a group of size `k ≤ n`.
    #[inline]
    pub fn congestion(&self, charger: ChargerId, k: usize) -> Cost {
        self.occupancy[charger.index()] * self.curve[k]
    }

    /// The device's movement cost rate `κ_i` as a raw value.
    #[inline]
    pub fn move_rate(&self, device: DeviceId) -> f64 {
        self.move_rate[device.index()]
    }

    /// The charger's travel cost rate `τ_j` as a raw value.
    #[inline]
    pub fn travel_rate(&self, charger: ChargerId) -> f64 {
        self.travel_rate[charger.index()]
    }

    /// The device's position `p_i`.
    #[inline]
    pub fn device_position(&self, device: DeviceId) -> Point {
        self.device_pos[device.index()]
    }

    /// The charger's position `q_j`.
    #[inline]
    pub fn charger_position(&self, charger: ChargerId) -> Point {
        self.charger_pos[charger.index()]
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

    /// `min_i κ_i`, the floor used by the CCSA candidate-point bound.
    #[inline]
    pub fn min_move_rate(&self) -> f64 {
        self.min_move_rate
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

    /// `g(k)` as a raw value (`k ≤ n`).
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
    /// is refused. A solve that Kuhn's test settles at an anchor is not
    /// memoized: it ran no iteration, and a later probe decides it again
    /// in `O(k)`. A probe answered from the memo counts in
    /// `tables.gather_hits`, one that solves in `tables.gather_misses`.
    /// The cheaper strategies never consult `abandon`.
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
        let (shard_idx, hit) = KEY.with(|cell| {
            let mut key = cell.borrow_mut();
            key.clear();
            key.push(charger.value());
            key.extend(members.iter().map(|d| d.value()));
            let shard_idx = FastBuildHasher::default().hash_one(&key[..]) as usize % GATHER_SHARDS;
            let hit = self.gather[shard_idx]
                .lock()
                .expect("gathering memo poisoned")
                .get(&key[..])
                .copied();
            (shard_idx, hit)
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
        let (point, at_anchor) = match problem.params().gathering {
            GatheringStrategy::Weiszfeld => weiszfeld_point(problem, charger, members, |bound| {
                proven = proven.max(bound);
                abandon(bound)
            }),
            strategy => (
                Some(gathering_point(problem, charger, members, strategy)),
                false,
            ),
        };
        if at_anchor {
            return point;
        }
        let key: Box<[u32]> = std::iter::once(charger.value())
            .chain(members.iter().map(|d| d.value()))
            .collect();
        self.gather[shard_idx]
            .lock()
            .expect("gathering memo poisoned")
            .insert(key, point.map_or(Gathered::Above(proven), Gathered::Point));
        point
    }

    /// Copies the memoized neighbor order for `(device, limit)` into
    /// `out`, returning whether there was a hit. See
    /// [`store_neighbor_order`](Self::store_neighbor_order).
    pub fn cached_neighbor_order(&self, device: u32, limit: u32, out: &mut Vec<usize>) -> bool {
        let shard = &self.neighbors[device as usize % GATHER_SHARDS];
        match shard
            .lock()
            .expect("neighbor memo poisoned")
            .get(&(device, limit))
        {
            Some(order) => {
                out.extend(order.iter().map(|&q| q as usize));
                true
            }
            None => false,
        }
    }

    /// Memoizes a neighbor order computed for `(device, limit)`. The order
    /// must be the pure spatial ranking the ccsga game computes — nearest
    /// devices by exact `(distance, id)` — so a later hit is bitwise the
    /// recomputation.
    pub fn store_neighbor_order(&self, device: u32, limit: u32, order: &[usize]) {
        let boxed: Box<[u32]> = order.iter().map(|&q| q as u32).collect();
        self.neighbors[device as usize % GATHER_SHARDS]
            .lock()
            .expect("neighbor memo poisoned")
            .insert((device, limit), boxed);
    }

    /// Number of memoized gathering solves, points and abandonment bounds
    /// alike (for tests and diagnostics).
    pub fn gather_cache_len(&self) -> usize {
        self.gather
            .iter()
            .map(|s| s.lock().expect("gathering memo poisoned").len())
            .sum()
    }
}

impl fmt::Debug for ProblemTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProblemTables")
            .field("n", &self.n)
            .field("m", &self.m)
            .field("gather_cache_len", &self.gather_cache_len())
            .finish()
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
    fn tables_match_direct_entity_computation() {
        let p = problem();
        let t = p.tables();
        for c in p.scenario().charger_ids() {
            let ch = p.charger(c);
            for d in p.scenario().device_ids() {
                let dev = p.device(d);
                assert_eq!(t.energy(c, d), dev.demand() * ch.energy_price());
            }
            for k in 0..=p.num_devices() {
                assert_eq!(
                    t.congestion(c, k),
                    ch.occupancy_rate() * p.params().congestion_curve.eval(k)
                );
            }
        }
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
        assert_eq!(
            q.tables().energy(ChargerId::new(0), DeviceId::new(0)),
            p.tables().energy(ChargerId::new(0), DeviceId::new(0))
        );
    }
}
