//! Multi-round operation: charging as a *recurring* service.
//!
//! The paper schedules one round; a deployed WRSN buys charging again and
//! again as sensing drains batteries. This module drives that loop: each
//! round every device consumes a random amount of energy, devices whose
//! state of charge falls below a threshold request a refill, the chosen
//! scheduling policy plans the round, and batteries/ledgers are updated.
//! The cumulative comprehensive cost over a horizon is the *operating
//! expenditure* of the network — the quantity the `fig13_lifetime`
//! experiment compares across policies.
//!
//! Deaths (device-rounds spent at an empty battery) are also tracked:
//! with aggressive thresholds or heavy consumption, devices can brown out
//! before their next refill.

use crate::algo::{ccsa, ccsga, noncooperation, CcsaOptions, CcsgaOptions};
use crate::problem::CcsProblem;
use crate::schedule::Schedule;
use crate::sharing::CostSharing;
use ccs_wrsn::energy::{Battery, EnergyDemand};
use ccs_wrsn::entities::{Device, DeviceId};
use ccs_wrsn::scenario::{ParamRange, Scenario};
use ccs_wrsn::units::{Cost, Joules};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which scheduler plans each round, with its default options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Greedy + submodular minimization.
    Ccsa,
    /// Coalition-formation game.
    Ccsga,
    /// Everyone hires alone.
    Noncooperative,
}

impl Policy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Ccsa => "ccsa",
            Policy::Ccsga => "ccsga",
            Policy::Noncooperative => "ncp",
        }
    }

    /// Plans one round with this policy. The single dispatch point shared
    /// by the lifetime loop and the recovery engine, so "re-plan with the
    /// same algorithm" means exactly that.
    pub fn plan(&self, problem: &CcsProblem, sharing: &dyn CostSharing) -> Schedule {
        match self {
            Policy::Ccsa => ccsa(problem, sharing, CcsaOptions::default()),
            Policy::Ccsga => ccsga(problem, sharing, CcsgaOptions::default()).schedule,
            Policy::Noncooperative => noncooperation(problem, sharing),
        }
    }
}

/// What one round's schedule actually delivered, as reported by a
/// [`LifetimeDriver`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDelivery {
    /// Whether each *round-local* device (index into the round problem)
    /// received its energy.
    pub served: Vec<bool>,
    /// Realized total comprehensive cost of the round.
    pub total_cost: Cost,
    /// Charger hires actually made (recovery re-dispatches add hires).
    pub hires: usize,
}

/// Executes one planned round of the lifetime loop.
///
/// The default driver ([`PlannedDelivery`]) trusts the planner: every
/// scheduled device is served at the planned cost. A testbed-backed driver
/// replays the schedule under noise and hard failures (optionally with
/// closed-loop recovery) and reports what was *really* delivered; devices
/// it leaves unserved keep their depleted batteries and re-request in the
/// next round.
pub trait LifetimeDriver {
    /// Delivers `schedule` for `problem`, round index `round`.
    fn deliver(&mut self, problem: &CcsProblem, schedule: &Schedule, round: usize)
        -> RoundDelivery;
}

/// The planner-faithful driver: everything planned is delivered.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannedDelivery;

impl LifetimeDriver for PlannedDelivery {
    fn deliver(
        &mut self,
        problem: &CcsProblem,
        schedule: &Schedule,
        _round: usize,
    ) -> RoundDelivery {
        RoundDelivery {
            served: vec![true; problem.num_devices()],
            total_cost: schedule.total_cost(),
            hires: schedule.groups().len(),
        }
    }
}

/// Per-device per-round energy consumption, sampled uniformly (Joules).
pub const CONSUMPTION: ParamRange = ParamRange {
    lo: 500.0,
    hi: 1_500.0,
};

/// A device requests a refill when its state of charge falls below this
/// fraction.
pub const REFILL_THRESHOLD: f64 = 0.3;

/// A refill brings the state of charge up to this fraction.
pub const TARGET_SOC: f64 = 0.9;

/// Configuration of a multi-round run.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeConfig {
    /// Number of rounds to simulate.
    pub rounds: usize,
    /// Seed of the consumption process (shared across policies so they face
    /// identical workloads).
    pub seed: u64,
}

impl Default for LifetimeConfig {
    fn default() -> Self {
        LifetimeConfig {
            rounds: 20,
            seed: 0,
        }
    }
}

/// Outcome of a multi-round run.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeReport {
    /// Cumulative comprehensive cost over the horizon.
    pub total_cost: Cost,
    /// Cost of each round (zero for rounds with no requests).
    pub per_round_cost: Vec<Cost>,
    /// Number of charger hires over the horizon.
    pub hires: usize,
    /// Total energy purchased.
    pub energy_purchased: Joules,
    /// Device-rounds spent with an empty battery.
    pub dead_device_rounds: usize,
    /// Fraction of device-rounds with a non-empty battery, in `[0, 1]`.
    pub survival_rate: f64,
    /// Refill requests that went unserved (failure-aware drivers only;
    /// always zero under the planner-faithful default driver).
    pub unserved_requests: usize,
}

/// Runs the multi-round loop.
///
/// # Examples
///
/// ```
/// use ccs_core::prelude::*;
/// use ccs_wrsn::scenario::ScenarioGenerator;
///
/// let scenario = ScenarioGenerator::new(1).devices(8).chargers(3).generate();
/// let report = run_lifetime(
///     &scenario,
///     &EqualShare,
///     Policy::Ccsa,
///     &LifetimeConfig { rounds: 5, ..Default::default() },
/// );
/// assert_eq!(report.per_round_cost.len(), 5);
/// assert!((0.0..=1.0).contains(&report.survival_rate));
/// ```
///
/// Each round: consume ([`CONSUMPTION`]) → collect refill requests (below
/// [`REFILL_THRESHOLD`], up to [`TARGET_SOC`]) → schedule the requesters
/// with `policy` under the default cost parameters → charge batteries and
/// account costs. Rounds with no requester cost nothing. The consumption
/// sequence depends only on `config.seed`, so different policies face
/// identical workloads.
///
/// # Panics
///
/// Panics if `config.rounds == 0`.
pub fn run_lifetime(
    scenario: &Scenario,
    sharing: &dyn CostSharing,
    policy: Policy,
    config: &LifetimeConfig,
) -> LifetimeReport {
    run_lifetime_with(scenario, sharing, policy, config, &mut PlannedDelivery)
}

/// Runs the multi-round loop with an explicit [`LifetimeDriver`].
///
/// Same contract as [`run_lifetime`], but each planned round is handed to
/// `driver` for delivery: only the devices the driver reports as served get
/// their batteries refilled (and their demand counted as purchased energy),
/// and the round is accounted at the driver's *realized* cost. Unserved
/// requesters stay depleted and naturally re-request next round — the
/// lifetime-level recovery loop.
///
/// # Panics
///
/// Same as [`run_lifetime`].
pub fn run_lifetime_with(
    scenario: &Scenario,
    sharing: &dyn CostSharing,
    policy: Policy,
    config: &LifetimeConfig,
    driver: &mut dyn LifetimeDriver,
) -> LifetimeReport {
    assert!(config.rounds > 0, "need at least one round");

    let n = scenario.devices().len();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut batteries: Vec<Battery> = scenario.devices().iter().map(|d| *d.battery()).collect();

    let mut per_round_cost = Vec::with_capacity(config.rounds);
    let mut total_cost = Cost::ZERO;
    let mut hires = 0usize;
    let mut energy_purchased = Joules::ZERO;
    let mut dead_device_rounds = 0usize;
    let mut unserved_requests = 0usize;

    for round in 0..config.rounds {
        // 1. Consumption (dead devices stay dead but keep consuming nothing).
        for battery in batteries.iter_mut() {
            let draw = Joules::new(CONSUMPTION.sample(&mut rng));
            let usable = draw.min(battery.level());
            battery
                .discharge(usable)
                .expect("usable is clamped to the level");
            if battery.is_empty() {
                dead_device_rounds += 1;
            }
        }

        // 2. Refill requests.
        let requesters: Vec<(DeviceId, Joules)> = scenario
            .device_ids()
            .filter_map(|d| {
                let b = &batteries[d.index()];
                if b.state_of_charge() < REFILL_THRESHOLD {
                    let demand = EnergyDemand::refill_to(b, TARGET_SOC);
                    (!demand.is_zero()).then_some((d, demand.amount()))
                } else {
                    None
                }
            })
            .collect();
        if requesters.is_empty() {
            per_round_cost.push(Cost::ZERO);
            continue;
        }

        // 3. Build the round's sub-problem over the requesters (ids must be
        // dense, so requesters are renumbered; `origin` maps back).
        let origin: Vec<DeviceId> = requesters.iter().map(|(d, _)| *d).collect();
        let round_devices: Vec<Device> = requesters
            .iter()
            .enumerate()
            .map(|(i, (d, demand))| {
                let dev = scenario.device(*d);
                Device::builder(DeviceId::new(i as u32), dev.position())
                    .battery(batteries[d.index()])
                    .demand(*demand)
                    .move_cost_rate(dev.move_cost_rate())
                    .speed(dev.speed())
                    .build()
            })
            .collect();
        let round_scenario = Scenario::new(
            scenario.field(),
            round_devices,
            scenario.chargers().to_vec(),
        )
        .expect("round scenario is valid by construction");
        let problem = CcsProblem::new(round_scenario);

        // 4. Plan, deliver, account. The driver decides who was actually
        // served and what the round really cost; anyone left unserved keeps
        // a depleted battery and re-requests next round.
        let schedule = policy.plan(&problem, sharing);
        debug_assert!(schedule.validate(&problem).is_ok());
        let delivery = driver.deliver(&problem, &schedule, round);
        debug_assert_eq!(delivery.served.len(), problem.num_devices());
        let round_cost = delivery.total_cost;
        total_cost += round_cost;
        per_round_cost.push(round_cost);
        hires += delivery.hires;

        // 5. Deliver the energy to the served devices.
        for group in schedule.groups() {
            for &local in &group.members {
                if !delivery.served[local.index()] {
                    unserved_requests += 1;
                    continue;
                }
                let global = origin[local.index()];
                let demand = requesters
                    .iter()
                    .find(|(d, _)| *d == global)
                    .expect("member came from the requester list")
                    .1;
                let overflow = batteries[global.index()].charge(demand);
                energy_purchased += demand - overflow;
            }
        }
    }

    let device_rounds = n * config.rounds;
    LifetimeReport {
        total_cost,
        per_round_cost,
        hires,
        energy_purchased,
        dead_device_rounds,
        survival_rate: survival_rate(dead_device_rounds, device_rounds),
        unserved_requests,
    }
}

/// `1 - dead/total`, defined as full survival (`1.0`) when there are no
/// device-rounds at all — the degenerate denominator must not leak `NaN`
/// into a report field documented to lie in `[0, 1]`.
fn survival_rate(dead_device_rounds: usize, device_rounds: usize) -> f64 {
    if device_rounds == 0 {
        1.0
    } else {
        1.0 - dead_device_rounds as f64 / device_rounds as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharing::EqualShare;
    use ccs_wrsn::scenario::ScenarioGenerator;

    fn scenario() -> Scenario {
        ScenarioGenerator::new(4).devices(12).chargers(4).generate()
    }

    fn config(rounds: usize) -> LifetimeConfig {
        LifetimeConfig {
            rounds,
            ..Default::default()
        }
    }

    /// `scenario()` with every battery replaced by one of `capacity` Joules
    /// at state of charge `soc`, which sets how long the fixed
    /// [`CONSUMPTION`] takes to drain it.
    fn with_batteries(capacity: f64, soc: f64) -> Scenario {
        let s = scenario();
        let devices = s
            .devices()
            .iter()
            .map(|d| {
                let battery = Battery::new(Joules::new(capacity), Joules::new(capacity * soc))
                    .expect("valid battery");
                Device::builder(d.id(), d.position())
                    .battery(battery)
                    .move_cost_rate(d.move_cost_rate())
                    .speed(d.speed())
                    .build()
            })
            .collect();
        Scenario::new(s.field(), devices, s.chargers().to_vec()).expect("same layout")
    }

    #[test]
    fn survival_rate_guards_the_zero_denominator() {
        assert_eq!(
            survival_rate(0, 0),
            1.0,
            "no device-rounds is full survival"
        );
        assert_eq!(survival_rate(0, 10), 1.0);
        assert_eq!(survival_rate(5, 10), 0.5);
        assert!(survival_rate(0, 0).is_finite(), "must never be NaN");
    }

    #[test]
    #[should_panic(expected = "need at least one round")]
    fn zero_rounds_is_rejected_by_config_validation() {
        let s = scenario();
        run_lifetime(&s, &EqualShare, Policy::Ccsa, &config(0));
    }

    #[test]
    fn runs_the_full_horizon() {
        let s = scenario();
        let report = run_lifetime(&s, &EqualShare, Policy::Ccsa, &config(10));
        assert_eq!(report.per_round_cost.len(), 10);
        assert!(report.total_cost > Cost::ZERO, "someone must need charging");
        assert!(report.hires > 0);
        assert!(report.energy_purchased > Joules::ZERO);
        assert!((0.0..=1.0).contains(&report.survival_rate));
        let sum: Cost = report.per_round_cost.iter().copied().sum();
        assert!((sum - report.total_cost).abs() < Cost::new(1e-9));
    }

    #[test]
    fn cooperative_policies_cost_less_over_the_horizon() {
        let s = scenario();
        let cfg = config(15);
        let ncp = run_lifetime(&s, &EqualShare, Policy::Noncooperative, &cfg);
        let coop = run_lifetime(&s, &EqualShare, Policy::Ccsa, &cfg);
        let game = run_lifetime(&s, &EqualShare, Policy::Ccsga, &cfg);
        assert!(
            coop.total_cost <= ncp.total_cost + Cost::new(1e-6),
            "ccsa {} vs ncp {}",
            coop.total_cost,
            ncp.total_cost
        );
        assert!(game.total_cost <= ncp.total_cost + Cost::new(1e-6));
        assert!(coop.hires <= ncp.hires, "cooperation amortizes hires");
    }

    #[test]
    fn identical_seeds_identical_workloads() {
        let s = scenario();
        let cfg = config(8);
        let a = run_lifetime(&s, &EqualShare, Policy::Noncooperative, &cfg);
        let b = run_lifetime(&s, &EqualShare, Policy::Noncooperative, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_consumption_causes_deaths() {
        // Consumption far above what one refill-to-90% of a 1 kJ battery
        // can cover.
        let s = with_batteries(1_000.0, 0.9);
        let cfg = LifetimeConfig {
            rounds: 10,
            seed: 1,
        };
        let report = run_lifetime(&s, &EqualShare, Policy::Ccsa, &cfg);
        assert!(report.dead_device_rounds > 0, "devices must brown out");
        assert!(report.survival_rate < 1.0);
    }

    #[test]
    fn light_consumption_keeps_everyone_alive_and_cheap() {
        let s = with_batteries(1e9, 0.5);
        let report = run_lifetime(&s, &EqualShare, Policy::Noncooperative, &config(5));
        // Batteries start at half of 1 GJ, well above the threshold; at
        // most 1.5 kJ a round cannot pull anyone below it within 5 rounds.
        assert_eq!(report.total_cost, Cost::ZERO);
        assert_eq!(report.hires, 0);
        assert_eq!(report.survival_rate, 1.0);
    }

    #[test]
    fn failing_driver_leaves_requests_unserved_and_buys_nothing() {
        struct NothingDelivered;
        impl LifetimeDriver for NothingDelivered {
            fn deliver(
                &mut self,
                problem: &CcsProblem,
                _schedule: &Schedule,
                _round: usize,
            ) -> RoundDelivery {
                RoundDelivery {
                    served: vec![false; problem.num_devices()],
                    total_cost: Cost::ZERO,
                    hires: 0,
                }
            }
        }
        let s = scenario();
        let cfg = config(10);
        let report = run_lifetime_with(
            &s,
            &EqualShare,
            Policy::Noncooperative,
            &cfg,
            &mut NothingDelivered,
        );
        assert!(report.unserved_requests > 0, "someone must have requested");
        assert_eq!(report.energy_purchased, Joules::ZERO);
        assert_eq!(report.total_cost, Cost::ZERO);
        assert_eq!(report.hires, 0);
        // Never refilled, so devices die more than under the faithful driver.
        let faithful = run_lifetime(&s, &EqualShare, Policy::Noncooperative, &cfg);
        assert_eq!(faithful.unserved_requests, 0);
        assert!(report.dead_device_rounds >= faithful.dead_device_rounds);
    }
}
