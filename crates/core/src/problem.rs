//! The Cooperative Charging Scheduling (CCS) problem instance.
//!
//! A [`CcsProblem`] pairs an immutable WRSN [`Scenario`] with the cost-model
//! parameters every scheduler shares: the gathering-point strategy and an
//! optional group-size cap. The service-time congestion curve is fixed at
//! `g(k) = √k` ([`CcsProblem::congestion`]).
//! Keeping the parameters on the problem (not on the algorithms) guarantees
//! all algorithms optimize — and are compared on — the same objective.

use crate::gathering::GatheringStrategy;
use crate::tables::ProblemTables;
use ccs_wrsn::entities::{Charger, ChargerId, Device, DeviceId};
use ccs_wrsn::scenario::Scenario;
use ccs_wrsn::units::{Cost, Joules};
use std::sync::{Arc, OnceLock};

/// Shared cost-model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// How each group's gathering point is chosen.
    pub gathering: GatheringStrategy,
    /// Optional cap on group size (e.g. a charger can serve at most `k`
    /// devices per hire). `None` means unbounded.
    pub max_group_size: Option<usize>,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            gathering: GatheringStrategy::Weiszfeld,
            max_group_size: None,
        }
    }
}

/// A CCS problem instance: world + cost model.
#[derive(Debug, Clone)]
pub struct CcsProblem {
    scenario: Scenario,
    params: CostParams,
    /// The evaluation kernel, built lazily on first use. Clones share the
    /// already-built tables (they are pure functions of scenario + params).
    tables: OnceLock<Arc<ProblemTables>>,
}

impl CcsProblem {
    /// Wraps a scenario with the default cost parameters.
    pub fn new(scenario: Scenario) -> Self {
        CcsProblem::with_params(scenario, CostParams::default())
    }

    /// Wraps a scenario with explicit cost parameters.
    ///
    /// # Panics
    ///
    /// Panics if `max_group_size` is `Some(0)`, or if some device's demand
    /// exceeds every charger's energy budget.
    pub fn with_params(scenario: Scenario, params: CostParams) -> Self {
        assert!(
            params.max_group_size != Some(0),
            "max group size of zero admits no groups"
        );
        // Every device must be individually servable, or the instance is
        // unschedulable (singletons are the universal fallback).
        for d in scenario.devices() {
            assert!(
                scenario
                    .chargers()
                    .iter()
                    .any(|c| c.can_deliver(d.demand())),
                "device {} demands {} but no charger's energy budget covers it",
                d.id(),
                d.demand()
            );
        }
        CcsProblem {
            scenario,
            params,
            tables: OnceLock::new(),
        }
    }

    /// The precomputed evaluation kernel (see [`ProblemTables`]), built on
    /// first access and shared by every scheduler run on this instance.
    #[inline]
    pub fn tables(&self) -> &ProblemTables {
        self.tables
            .get_or_init(|| Arc::new(ProblemTables::new(&self.scenario)))
    }

    /// The underlying world.
    #[inline]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The shared cost parameters.
    #[inline]
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Number of devices `n`.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.scenario.devices().len()
    }

    /// Number of chargers `m`.
    #[inline]
    pub fn num_chargers(&self) -> usize {
        self.scenario.chargers().len()
    }

    /// Device lookup (panics on foreign ids, same as [`Scenario::device`]).
    #[inline]
    pub fn device(&self, id: DeviceId) -> &Device {
        self.scenario.device(id)
    }

    /// Charger lookup (panics on foreign ids, same as [`Scenario::charger`]).
    #[inline]
    pub fn charger(&self, id: ChargerId) -> &Charger {
        self.scenario.charger(id)
    }

    /// The energy charge `π_j · w_i` of serving `device` with `charger`.
    #[inline]
    pub fn energy(&self, charger: ChargerId, device: DeviceId) -> Cost {
        self.device(device).demand() * self.charger(charger).energy_price()
    }

    /// The congestion term `η_j · g(k)` of a group of `k ≤ n` devices at
    /// `charger`, with `g(k) = √k` read from the [`ProblemTables`] table.
    #[inline]
    pub fn congestion(&self, charger: ChargerId, k: usize) -> Cost {
        self.charger(charger).occupancy_rate() * self.tables().curve_value(k)
    }

    /// Whether a group of this size is admissible.
    #[inline]
    pub fn group_size_ok(&self, size: usize) -> bool {
        size >= 1 && self.params.max_group_size.is_none_or(|cap| size <= cap)
    }

    /// Total energy demand of a member set.
    pub fn group_demand(&self, members: &[DeviceId]) -> Joules {
        members.iter().map(|&d| self.device(d).demand()).sum()
    }

    /// Whether one hire of `charger` can deliver the group's demand.
    pub fn charger_can_serve(&self, charger: ChargerId, members: &[DeviceId]) -> bool {
        self.charger(charger)
            .can_deliver(self.group_demand(members))
    }

    /// Whether the group is admissible at all: within the size cap and
    /// servable by at least one charger's energy budget. The one
    /// admissibility rule every solver uses; the demand is summed once, as
    /// the same left fold as [`group_demand`](Self::group_demand).
    pub fn feasible_group(&self, members: impl ExactSizeIterator<Item = DeviceId>) -> bool {
        if !self.group_size_ok(members.len()) {
            return false;
        }
        let demand: Joules = members.map(|d| self.device(d).demand()).sum();
        self.scenario
            .chargers()
            .iter()
            .any(|c| c.can_deliver(demand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_wrsn::scenario::ScenarioGenerator;

    fn scenario() -> Scenario {
        ScenarioGenerator::new(1).devices(6).chargers(3).generate()
    }

    #[test]
    fn default_params_are_valid() {
        let p = CcsProblem::new(scenario());
        assert_eq!(p.num_devices(), 6);
        assert_eq!(p.num_chargers(), 3);
        assert!(p.group_size_ok(1));
        assert!(p.group_size_ok(6));
        assert!(!p.group_size_ok(0));
    }

    #[test]
    fn group_size_cap_enforced() {
        let p = CcsProblem::with_params(
            scenario(),
            CostParams {
                max_group_size: Some(3),
                ..CostParams::default()
            },
        );
        assert!(p.group_size_ok(3));
        assert!(!p.group_size_ok(4));
    }

    #[test]
    #[should_panic(expected = "max group size of zero")]
    fn rejects_zero_cap() {
        let _ = CcsProblem::with_params(
            scenario(),
            CostParams {
                max_group_size: Some(0),
                ..CostParams::default()
            },
        );
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use ccs_wrsn::entities::{Charger, ChargerId, Device, DeviceId};
    use ccs_wrsn::geometry::Point;
    use ccs_wrsn::scenario::ScenarioGenerator;

    #[test]
    fn feasibility_respects_energy_budgets() {
        let field = ccs_wrsn::geometry::Rect::square(10.0);
        let dev = |i: u32, demand: f64| {
            Device::builder(DeviceId::new(i), Point::new(5.0, 5.0))
                .demand(Joules::new(demand))
                .build()
        };
        let charger = Charger::builder(ChargerId::new(0), Point::new(5.0, 5.0))
            .energy_budget(Joules::new(5_000.0))
            .build();
        let scenario = ccs_wrsn::scenario::Scenario::new(
            field,
            vec![dev(0, 3_000.0), dev(1, 3_000.0)],
            vec![charger],
        )
        .unwrap();
        let p = CcsProblem::new(scenario);
        // Singletons fit; the pair exceeds the single charger's budget.
        assert!(p.feasible_group([DeviceId::new(0)].into_iter()));
        assert!(p.feasible_group([DeviceId::new(1)].into_iter()));
        assert!(!p.feasible_group([DeviceId::new(0), DeviceId::new(1)].into_iter()));
        assert!(!p.charger_can_serve(ChargerId::new(0), &[DeviceId::new(0), DeviceId::new(1)]));
        assert_eq!(
            p.group_demand(&[DeviceId::new(0), DeviceId::new(1)]),
            Joules::new(6_000.0)
        );
    }

    #[test]
    #[should_panic(expected = "no charger's energy budget covers it")]
    fn rejects_unservable_devices() {
        let field = ccs_wrsn::geometry::Rect::square(10.0);
        let dev = Device::builder(DeviceId::new(0), Point::new(5.0, 5.0))
            .demand(Joules::new(9_000.0))
            .build();
        let charger = Charger::builder(ChargerId::new(0), Point::new(5.0, 5.0))
            .energy_budget(Joules::new(1_000.0))
            .build();
        let scenario = ccs_wrsn::scenario::Scenario::new(field, vec![dev], vec![charger]).unwrap();
        let _ = CcsProblem::new(scenario);
    }

    #[test]
    fn unbudgeted_chargers_serve_anything() {
        let p = CcsProblem::new(ScenarioGenerator::new(1).devices(10).chargers(2).generate());
        let all: Vec<DeviceId> = p.scenario().device_ids().collect();
        assert!(p.feasible_group(all.iter().copied()));
    }
}
